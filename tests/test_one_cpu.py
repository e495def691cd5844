"""A 1-CPU Ray session must run the broadcast and the join pipelines to
golden output. Extract stages that hold a CPU for the whole execution
(an actor pool sized from the cluster) leave none for the read and
shuffle tasks on one CPU, and the execution hangs; the test therefore
runs in its own process and session, under a deadline."""

import os
import signal
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEADLINE_S = 240

SCRIPT = """
import sys

import pyarrow.parquet as pq
import ray
from ray.data import DataContext

from ocr_pipeline_ray.pipelines.extract import build_extraction_pipeline, read_docs
from ocr_pipeline_ray.sources.gen import write_corpus

ray.init(address="local", num_cpus=1, object_store_memory=200 << 20,
         include_dashboard=False, logging_level="ERROR")
DataContext.get_current().enable_progress_bars = False


def key(rows):
    return {r["doc_id"]: [(s["kind"], s["text"], s["media_ref"], s["offset"])
                          for s in r["spans"]] for r in rows}


paths = write_corpus(sys.argv[1], 200, seed=42)
media = pq.read_table(paths["media"])
gold = key(pq.read_table(paths["golden"]).to_pylist())
for mode in ("broadcast", "join"):
    out = build_extraction_pipeline(read_docs(paths["docs"]), media, media_mode=mode)
    assert key(out.iter_rows()) == gold, f"{mode}: output differs from golden"
    print(mode, "golden", flush=True)
ray.shutdown()
"""


def test_one_cpu_session_runs_both_topologies_to_golden(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (ROOT, env.get("PYTHONPATH")) if p)
    env.pop("RAY_ADDRESS", None)
    # own process group: a timeout kills the driver and the Ray
    # processes it started
    proc = subprocess.Popen(
        [sys.executable, "-c", SCRIPT, str(tmp_path / "corpus")],
        cwd=str(tmp_path),
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        pytest.fail(
            f"a 1-CPU session did not finish within {DEADLINE_S} s; "
            f"stdout: {out!r}; stderr tail: {err[-2000:]!r}"
        )
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    assert proc.returncode == 0, err[-4000:]
    assert out.split() == ["broadcast", "golden", "join", "golden"]
