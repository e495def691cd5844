"""Benchmark harness. Prints ONE JSON line.

Headline: flagship extraction (explode -> HTML strip -> OCR/PDF
extract tasks -> ordered reassembly) over the deterministic synthetic
interleaved corpus (FIXTURES.md bench tier), measured as docs/sec.

``--scaling``: run the headline twice in FRESH processes at
``SCALE_LO`` and ``SCALE_HI`` pinned cores (default 4 and 16) on the
same input and report both throughputs +
scaling efficiency (the sandbox stand-in for the north rule's N vs 4N
node criterion).

Env: RAY_GRAFT_CPUS (default: this host's CPU count, ``os.cpu_count()``),
BENCH_DOCS (default 100000).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", os.cpu_count()))
BENCH_DOCS = int(os.environ.get("BENCH_DOCS", "100000"))
# min-of-N per pipeline: the shared sandbox host has ±2-4x co-tenant
# load spikes; a single sample can quadruple a 3 s query (measured)
BENCH_REPS = int(os.environ.get("BENCH_REPS", "2"))
CORPUS_ROOT = "/tmp/ocr_ray_bench"


def _corpus(n_docs: int) -> dict:
    from ocr_pipeline_ray.sources.gen import write_corpus

    d = os.path.join(CORPUS_ROOT, f"n{n_docs}_s42")
    os.makedirs(d, exist_ok=True)
    return write_corpus(d, n_docs, seed=42, shards=64)


def run_headline(out: dict) -> None:
    """Extraction throughput over the synthetic interleaved corpus."""
    import pyarrow.parquet as pq
    import ray.data

    from ocr_pipeline_ray.pipelines.extract import build_extraction_pipeline, read_docs

    paths = _corpus(BENCH_DOCS)
    media = pq.read_table(paths["media"])
    # warm page cache so we measure compute+shuffle, not first disk read
    ray.data.read_parquet(paths["docs"]).count()

    import shutil

    best = None
    for _ in range(BENCH_REPS):
        t0 = time.time()
        ds = read_docs(paths["docs"])
        result = build_extraction_pipeline(ds, media)
        sink = f"/tmp/ocr_ray_bench/out_{NUM_CPUS}"
        shutil.rmtree(sink, ignore_errors=True)
        result.write_parquet(sink)
        dt = time.time() - t0
        best = dt if best is None else min(best, dt)
    n = sum(
        pq.ParquetFile(os.path.join(sink, f)).metadata.num_rows
        for f in os.listdir(sink)
        if f.endswith(".parquet")
    )
    out["docs"] = n
    out["sec"] = round(best, 3)
    out["value"] = round(n / best, 2)


def bench_once() -> dict:
    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False

    out = {"metric": "extraction docs/sec", "unit": "docs/s", "num_cpus": NUM_CPUS}
    run_headline(out)
    ray.shutdown()
    return out


SCALE_LO = int(os.environ.get("SCALE_LO", "4"))
SCALE_HI = int(os.environ.get("SCALE_HI", "16"))
# sized so extract compute (~0.45 ms/doc after the fast stripper)
# dominates the ~15-20 s fixed session+pool+shuffle overhead at the
# high level — smaller corpora measure overhead, not scaling
SCALING_DOCS = int(os.environ.get("SCALING_DOCS", "800000"))


def _taskset_prefix(n_cores: int) -> list[str]:
    """Pin the whole Ray session (raylet + workers inherit affinity) to
    ``n_cores`` physical CPUs — the in-sandbox emulation of a fixed
    N-node cluster. Without pinning, a small ``num_cpus`` session
    borrows idle host cores through library thread pools and the
    measured 'small cluster' is not actually small."""
    import shutil as _sh

    if _sh.which("taskset"):
        return ["taskset", "-c", f"0-{n_cores - 1}"]
    return []


def scaling() -> dict:
    """Same headline job at N=4 and 4N=16 pinned cores, fresh
    processes, same input; min of 2 runs per level (host is shared and
    noisy). Also measures the HOST CEILING: the same strip workload on
    bare multiprocessing at the same worker counts — on this sandbox
    host per-core throughput degrades with parallelism for any
    framework, so ceiling-relative efficiency is reported alongside
    raw efficiency."""

    def run_once(ncpu: int) -> dict:
        # BENCH_REPS=1: the outer interleaved min-of-2 already damps
        # host noise; doubling inside each subprocess would only slow
        # the study without adding an independent sample
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), BENCH_DOCS=str(SCALING_DOCS), BENCH_REPS="1")
        p = subprocess.run(
            _taskset_prefix(ncpu)
            + [sys.executable, os.path.join(os.path.dirname(__file__) or ".", "bench.py")],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        return json.loads(p.stdout.strip().splitlines()[-1])

    _corpus(SCALING_DOCS)  # generate once, outside timing
    # interleave levels (lo, hi, lo, hi, ...) so slow host drift hits
    # both levels equally; min per level damps noise spikes
    lo = hi = None
    for _ in range(2):
        r_lo, r_hi = run_once(SCALE_LO), run_once(SCALE_HI)
        if lo is None or r_lo["sec"] < lo["sec"]:
            lo = r_lo
        if hi is None or r_hi["sec"] < hi["sec"]:
            hi = r_hi
    t_lo = lo["sec"]
    t_hi = hi["sec"]
    ratio = SCALE_HI / SCALE_LO
    eff = (t_lo / t_hi) / ratio
    out = {
        "metric": f"scaling efficiency ({SCALE_LO} -> {SCALE_HI} pinned cores, fresh processes, same input, min of 2)",
        "docs": lo["docs"],
        f"sec_{SCALE_LO}": t_lo,
        f"sec_{SCALE_HI}": t_hi,
        f"docs_per_sec_{SCALE_LO}": lo["value"],
        f"docs_per_sec_{SCALE_HI}": hi["value"],
        "scaling_efficiency": round(eff, 3),
    }
    ceiling = host_ceiling_efficiency()
    if ceiling is not None:
        out["host_ceiling_efficiency"] = ceiling
        out["efficiency_vs_host_ceiling"] = round(eff / ceiling, 3)
    return out


def host_ceiling_efficiency() -> float | None:
    """Bare-multiprocessing scaling of the identical strip workload at
    the same worker counts — the best ANY framework could do on this
    host (captures shared-VM per-core degradation, not Ray overhead)."""
    try:
        import multiprocessing as mp
        import time as _t

        d = os.path.join(CORPUS_ROOT, f"n{SCALING_DOCS}_s42", "docs")
        files = sorted(os.path.join(d, f) for f in os.listdir(d) if f.endswith(".parquet"))
        files = files[: max(8, len(files) // 4)]  # a slice is enough for a rate

        def measure(k: int) -> float:
            shards = [files[i::k] for i in range(k)]
            t0 = _t.time()
            with mp.Pool(k) as p:
                ns = p.map(_mp_strip_worker, shards)
            return sum(ns) / (_t.time() - t0)

        lo_workers = max(1, int(SCALE_LO * 0.75))
        hi_workers = max(1, int(SCALE_HI * 0.75))
        r_lo, r_hi = measure(lo_workers), measure(hi_workers)
        return round((r_hi / r_lo) / (hi_workers / lo_workers), 3)
    except Exception:
        return None


def _mp_strip_worker(shard_files: list[str]) -> int:
    import pyarrow.parquet as pq

    from ocr_pipeline_ray.functions.html import strip_boilerplate
    from ocr_pipeline_ray.stages.explode import explode_batch

    n = 0
    for f in shard_files:
        spans = explode_batch(pq.read_table(f))
        for k, s in zip(spans["kind"].to_pylist(), spans["text"].to_pylist()):
            if k == "text":
                strip_boilerplate(s)
                n += 1
    return n


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(scaling()))
    else:
        print(json.dumps(bench_once()))
