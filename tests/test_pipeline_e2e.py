"""Distributed pipeline vs golden: span-sequence equality (kind, text,
media_ref, order) per document — the BASELINE.json per-row invariant."""

import pytest
import ray
import ray.data

from ocr_pipeline_ray.pipelines.extract import build_extraction_pipeline


def _spans_map(ds) -> dict[str, list[tuple]]:
    out = {}
    for row in ds.iter_rows():
        out[row["doc_id"]] = [
            (s["kind"], s["text"], s["media_ref"], s["offset"]) for s in row["spans"]
        ]
    return out


def _golden_map(golden) -> dict[str, list[tuple]]:
    return {
        r["doc_id"]: [(s["kind"], s["text"], s["media_ref"], s["offset"]) for s in r["spans"]]
        for r in golden.to_pylist()
    }


def test_inline_pipeline_matches_golden(small_corpus):
    docs, media, golden = small_corpus
    ds = ray.data.from_arrow(docs).repartition(6)
    out = build_extraction_pipeline(ds, media)
    assert _spans_map(out) == _golden_map(golden)


def test_shuffled_input_partitions_still_ordered(small_corpus):
    """FIXTURES.md §4: shuffled arrival order must not change the output."""
    docs, media, golden = small_corpus
    ds = ray.data.from_arrow(docs).random_shuffle(seed=7).repartition(5)
    out = build_extraction_pipeline(ds, media)
    assert _spans_map(out) == _golden_map(golden)


def test_split_kinds_pipeline_matches_golden(small_corpus, tmp_path):
    """Kind+size routing: the corpus has 2-8 page pdfs, so the
    heavy route (n_pages >= 5 -> dedicated small-batch pool) engages,
    and the output must still be golden-identical."""
    import os

    docs, media, golden = small_corpus
    ds = ray.data.from_arrow(docs).repartition(4)
    stage = str(tmp_path / "stage")
    out = build_extraction_pipeline(ds, media, split_kinds=True, stage_dir=stage)
    result = _spans_map(out)
    # size-aware routing actually split the pdfs into light and heavy
    assert os.path.isdir(os.path.join(stage, "route=pdf"))
    assert os.path.isdir(os.path.join(stage, "route=pdf_heavy"))
    assert result == _golden_map(golden)


def test_join_media_mode_matches_golden(small_corpus):
    """The at-scale media path (bucketed hash join instead of
    broadcast) must produce identical output — including the
    missing-media error fixture surviving the left join."""
    docs, media, golden = small_corpus
    ds = ray.data.from_arrow(docs).repartition(4)
    out = build_extraction_pipeline(ds, media, media_mode="join")
    assert _spans_map(out) == _golden_map(golden)


def test_error_rows_kept_in_band(small_corpus):
    docs, media, _ = small_corpus
    ds = ray.data.from_arrow(docs)
    out = build_extraction_pipeline(ds, media)
    rows = {r["doc_id"]: r for r in out.iter_rows()}
    # doc 1 carries the missing-media span: kept, text "", one error
    r = rows["doc-00000001"]
    assert r["n_errors"] == 1
    assert r["spans"][-1]["text"] == ""
    assert r["n_spans"] == len(r["spans"])


def test_wide_row_doc(small_corpus):
    """A single doc with 5000 spans (far past the 128-span heavy tier)
    must round-trip: explode-early spreads it across blocks instead of
    one straggler row (SURVEY.md §7 'wide rows')."""
    import pyarrow as pa

    from ocr_pipeline_ray.schema import DOCS_SCHEMA

    _, media, _ = small_corpus
    spans = [
        {"kind": "text", "text": f"<p>{'word ' * 30}span {i} text</p>", "media_ref": "", "offset": i}
        for i in range(5000)
    ]
    docs = pa.Table.from_pydict({"doc_id": ["doc-wide"], "spans": [spans]}, schema=DOCS_SCHEMA)
    out = build_extraction_pipeline(ray.data.from_arrow(docs), media)
    rows = list(out.iter_rows())
    assert len(rows) == 1
    got = rows[0]["spans"]
    assert len(got) == 5000
    assert [s["offset"] for s in got] == list(range(5000))
    assert got[4999]["text"].endswith("span 4999 text")


def test_batch_size_invariance(small_corpus):
    """Results identical for batch_size 1 vs 64 (the property the
    reference asserts informally at str-recognition/processor.py:137)."""
    docs, media, golden = small_corpus
    small = docs.slice(0, 40)
    ds1 = ray.data.from_arrow(small)
    ds2 = ray.data.from_arrow(small)
    out1 = build_extraction_pipeline(ds1, media, text_batch_size=1)
    out2 = build_extraction_pipeline(ds2, media, text_batch_size=64)
    assert _spans_map(out1) == _spans_map(out2)


def test_media_remote_args_reach_map_batches(small_corpus, monkeypatch):
    """media_remote_args (num_gpus / custom resources for a real GPU
    engine behind the engine seam) must flow into the extract pool's
    map_batches ray_remote_args."""
    import ray.data

    from ocr_pipeline_ray.pipelines.extract import build_extraction_pipeline

    docs, media, _ = small_corpus
    seen = []
    orig = ray.data.Dataset.map_batches

    def spy(self, fn, **kwargs):
        seen.append((getattr(fn, "__name__", str(fn)), kwargs))
        return orig(self, fn, **kwargs)

    monkeypatch.setattr(ray.data.Dataset, "map_batches", spy)
    build_extraction_pipeline(
        ray.data.from_arrow(docs), media,
        media_remote_args={"num_gpus": 0.25, "resources": {"accel": 1}},
    )
    pool_calls = [kw for name, kw in seen if "ExtractPackAll" in name]
    assert pool_calls, f"extract pool stage not built: {[n for n, _ in seen]}"
    assert pool_calls[0]["num_gpus"] == 0.25
    assert pool_calls[0]["resources"] == {"accel": 1}
    # default stays empty: the no-override call must NOT pass the args
    # (explicit ray_remote_args disable an actor submission fast path)
    seen.clear()
    build_extraction_pipeline(ray.data.from_arrow(docs), media)
    pool_calls = [kw for name, kw in seen if "ExtractPackAll" in name]
    assert "num_gpus" not in pool_calls[0] and "resources" not in pool_calls[0]


def test_incremental_hourly_equals_batch():
    """Incremental maintenance contract: base run + delta merge ==
    one-shot batch aggregate, bit-for-bit (any cutoff)."""
    import pandas as pd

    from ocr_pipeline_ray.pipelines.events import events_hourly, events_hourly_incremental

    sf = "/root/testdata/sf0.001"
    batch = events_hourly(sf)
    for frac in (0.3, 0.6, 0.95):
        inc = events_hourly_incremental(sf, cutoff_frac=frac)
        pd.testing.assert_frame_equal(inc, batch)


def _oracle_map(docs, media) -> dict[str, list[tuple]]:
    from ocr_pipeline_ray.oracle import extract_docs

    return _golden_map(extract_docs(docs, media))


@pytest.mark.parametrize(
    "kwargs",
    [{}, {"local_reassembly": False}, {"media_mode": "join"}, {"split_kinds": True}],
    ids=["fused", "shuffle", "join", "split_kinds"],
)
def test_zero_span_doc_kept(kwargs, tmp_path):
    """A doc whose span list is empty stays in the output with
    ``n_spans = 0`` on every topology, as the oracle keeps it."""
    import pyarrow as pa

    from ocr_pipeline_ray.schema import DOCS_SCHEMA
    from ocr_pipeline_ray.sources.gen import generate_corpus

    docs, media, _ = generate_corpus(20, seed=1)
    rows = docs.to_pylist()
    rows[3]["spans"] = []
    docs = pa.Table.from_pylist(rows, schema=DOCS_SCHEMA)
    if kwargs.get("split_kinds"):
        kwargs = {**kwargs, "stage_dir": str(tmp_path / "stage")}
    out = build_extraction_pipeline(ray.data.from_arrow(docs).repartition(3), media, **kwargs)
    got = pa.concat_tables(ray.get(out.to_arrow_refs()))
    assert _golden_map(got) == _oracle_map(docs, media)
    row = {r["doc_id"]: r for r in got.to_pylist()}["doc-00000003"]
    assert row["n_spans"] == 0 and row["spans"] == []
