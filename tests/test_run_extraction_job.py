"""The job entrypoint runs from any working directory: it points the
workers at its checkout and checks that they can import the package
before any work, so a foreign cwd neither crash-loops nor hangs."""

import json
import os
import subprocess
import sys

import pyarrow.parquet as pq

from ocr_pipeline_ray.sources.gen import write_corpus

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "tools", "run_extraction_job.py")


def test_job_from_foreign_cwd_finishes(tmp_path):
    paths = write_corpus(str(tmp_path / "corpus"), 60, seed=5, shards=4)
    cwd = tmp_path / "elsewhere"
    cwd.mkdir()
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "RAY_ADDRESS")}
    out = str(tmp_path / "out")
    proc = subprocess.run(
        [sys.executable, SCRIPT, "--docs", paths["docs"], "--media", paths["media"],
         "--out", out, "--n-parts", "2", "--num-cpus", "2"],
        cwd=str(cwd), env=env, capture_output=True, text=True, timeout=240,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["ran"] == [0, 1] and summary["n_docs"] == 60
    assert pq.read_table(os.path.join(out, "part-0")).num_rows > 0
