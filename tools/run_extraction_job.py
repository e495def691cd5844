"""Cluster job entrypoint for the partitioned, resumable extraction run.

Submit to a Ray cluster exactly as the north rule prescribes::

    ray job submit --working-dir . -- \
        python tools/run_extraction_job.py \
        --docs /data/corpus_docs --media /data/corpus_media.parquet \
        --out /data/extracted --n-parts 256

The job streams every uncommitted partition through ONE Ray Data
execution (read -> fused extract task stage, which writes each block
under its partition), commits each partition atomically with
per-partition lineage + metrics as soon as all of its docs are written,
and RESUMES from the committed partitions if resubmitted after a
failure (see pipelines/checkpoint.py). ``--no-resume`` forces a clean
re-run. It prints the run summary as one JSON line.

Locally the same entrypoint runs against its own session
(``--num-cpus N``); on a cluster, ``ray job submit`` routes it to the
head node unchanged — the script owns its Ray session either way.
Before any work it checks that a Ray worker can import the package
(workers inherit ``PYTHONPATH`` pointing at this checkout) and exits
with status 2 and a message if not, instead of failing the run on the
first extract task.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# self-locating: `ray job submit --working-dir .` (or a bare python
# invocation from anywhere) must find the package without PYTHONPATH
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

IMPORT_PROBE_TIMEOUT_S = 60.0


def _import_probe() -> str:
    import ocr_pipeline_ray

    return ocr_pipeline_ray.__file__


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--docs", required=True, help="docs table: parquet file or dir")
    ap.add_argument("--media", required=True, help="media side table (parquet)")
    ap.add_argument("--out", required=True, help="output root (part-{i}/ + _lineage/)")
    ap.add_argument("--n-parts", type=int, default=64)
    ap.add_argument("--no-resume", action="store_true")
    ap.add_argument("--num-cpus", type=int, default=None, help="local-mode CPU override")
    args = ap.parse_args(argv)

    # the raylet, and through it every worker, inherits this variable
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    )
    import ray

    if not ray.is_initialized():
        init_kwargs = {"include_dashboard": False}
        if args.num_cpus:
            init_kwargs.update(address="local", num_cpus=args.num_cpus)
        ray.init(**init_kwargs)
    try:
        probe = ray.remote(num_cpus=0, max_retries=0)(_import_probe)
        ray.get(probe.remote(), timeout=IMPORT_PROBE_TIMEOUT_S)
    except Exception as e:
        print(
            f"a Ray worker cannot import ocr_pipeline_ray from {ROOT} "
            f"within {IMPORT_PROBE_TIMEOUT_S:.0f} s: {type(e).__name__}: {e}",
            file=sys.stderr,
        )
        ray.shutdown()
        return 2

    import pyarrow.parquet as pq

    from ocr_pipeline_ray.pipelines.checkpoint import run_partitioned_extraction

    summary = run_partitioned_extraction(
        args.docs,
        pq.read_table(args.media),
        args.out,
        n_parts=args.n_parts,
        resume=not args.no_resume,
    )
    print(json.dumps(summary))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
