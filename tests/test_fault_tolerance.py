"""Worker-crash fault tolerance: a worker process killed MID-RUN (hard
process exit, not a Python exception) while it runs an extract task
must not lose its batch: Ray re-runs the task on a live worker, which
builds its own warm engine, and the final output stays golden-equal.

Formalizes the reference's declared-but-unwired retry policy
(reference configs/config.yml:24-25 ``retries: 5``): a task whose
worker died is retried (``max_retries``).
"""

import pyarrow.parquet as pq

from ocr_pipeline_ray.functions import chaos
from ocr_pipeline_ray.pipelines.extract import build_extraction_pipeline, read_docs


def _spans_key(table):
    return {
        r["doc_id"]: [(s["kind"], s["text"], s["media_ref"], s["offset"]) for s in r["spans"]]
        for r in table.to_pylist()
    }


def test_worker_killed_mid_run_still_golden(tmp_path):
    from ocr_pipeline_ray.sources.gen import write_corpus

    d = str(tmp_path / "corpus")
    paths = write_corpus(d, 300, seed=42, shards=4)
    media = pq.read_table(paths["media"])
    gold = pq.read_table(paths["golden"])

    chaos.arm()
    try:
        out = build_extraction_pipeline(
            read_docs(paths["docs"]),
            media,
            engine_factory=chaos.KillOnceEngine,
        )
        out_dir = str(tmp_path / "out")
        out.write_parquet(out_dir)
    finally:
        if chaos.armed():
            chaos.disarm()
            raise AssertionError("kill flag never consumed — crash path not exercised")

    res = pq.read_table(out_dir)
    assert _spans_key(res) == _spans_key(gold)


def test_worker_killed_mid_run_join_topology_still_golden(tmp_path):
    """Same hard-kill chaos through the media_mode='join' topology: the
    Arrow bucketed join feeds InlineMediaExtract tasks, a killed
    worker's in-flight joined batch must be retried and the output stay
    golden — exercising retry recovery across the shuffle boundary."""
    from ocr_pipeline_ray.sources.gen import write_corpus

    d = str(tmp_path / "corpus")
    paths = write_corpus(d, 300, seed=42, shards=4)
    media = pq.read_table(paths["media"])
    gold = pq.read_table(paths["golden"])

    chaos.arm()
    try:
        out = build_extraction_pipeline(
            read_docs(paths["docs"]),
            media,
            media_mode="join",
            engine_factory=chaos.KillOnceEngine,
        )
        out_dir = str(tmp_path / "out")
        out.write_parquet(out_dir)
    finally:
        if chaos.armed():
            chaos.disarm()
            raise AssertionError("kill flag never consumed — crash path not exercised")

    res = pq.read_table(out_dir)
    assert _spans_key(res) == _spans_key(gold)
