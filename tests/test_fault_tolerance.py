"""Actor-crash fault tolerance: an extract actor killed MID-RUN (hard
process exit, not a Python exception) must restart and its in-flight
batch must be retried, with the final output still golden-equal.

Formalizes the reference's declared-but-unwired retry policy
(reference configs/config.yml:24-25 ``retries: 5``): Ray Data's
actor pools restart the dead actor and re-submit its batch.
"""

import pyarrow.parquet as pq

from ocr_pipeline_ray.functions import chaos
from ocr_pipeline_ray.pipelines.extract import build_extraction_pipeline, read_docs


def _spans_key(table):
    return {
        r["doc_id"]: [(s["kind"], s["text"], s["media_ref"], s["offset"]) for s in r["spans"]]
        for r in table.to_pylist()
    }


def test_actor_killed_mid_run_still_golden(tmp_path):
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
            extract_concurrency=2,
        )
        out_dir = str(tmp_path / "out")
        out.write_parquet(out_dir)
    finally:
        if chaos.armed():
            chaos.disarm()
            raise AssertionError("kill flag never consumed — crash path not exercised")

    res = pq.read_table(out_dir)
    assert _spans_key(res) == _spans_key(gold)


def test_actor_killed_mid_run_join_topology_still_golden(tmp_path):
    """Same hard-kill chaos through the media_mode='join' topology: the
    Arrow bucketed join feeds InlineMediaExtract actor pools, a killed
    actor's in-flight joined batch must be retried and the output stay
    golden — exercising restart recovery across the shuffle boundary."""
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
