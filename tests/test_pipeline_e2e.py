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


@pytest.mark.parametrize("topology", ["fused", "join"])
def test_partitioning_invariance(small_corpus, topology):
    """The same docs as 1 input block and as 40 give equal output on
    every topology (the property the reference asserts informally at
    str-recognition/processor.py:137)."""
    docs, media, _ = small_corpus
    small = docs.slice(0, 40)
    kwargs = {"fused": {}, "join": {"media_mode": "join"}}
    outs = []
    for n_blocks in (1, 40):
        ds = ray.data.from_arrow(small).repartition(n_blocks)
        outs.append(_spans_map(build_extraction_pipeline(ds, media, **kwargs[topology])))
    assert len(outs[0]) == 40
    assert outs[0] == outs[1]


def _with_duplicate_ref(media):
    """The media table plus a second row for its first media_ref,
    carrying a different payload."""
    import pyarrow as pa

    dup = media.slice(0, 1)
    dup = dup.set_column(
        dup.schema.get_field_index("payload"), "payload", pa.array([b"other"], pa.binary())
    )
    return pa.concat_tables([media, dup]), media.column("media_ref")[0].as_py()


def test_duplicate_media_ref_fails_fused(small_corpus):
    docs, media, _ = small_corpus
    media, ref = _with_duplicate_ref(media)
    with pytest.raises(ValueError, match=f"duplicate media_ref '{ref}'"):
        build_extraction_pipeline(ray.data.from_arrow(docs), media)


def test_duplicate_media_ref_fails_join(small_corpus):
    docs, media, _ = small_corpus
    media, ref = _with_duplicate_ref(media)
    out = build_extraction_pipeline(ray.data.from_arrow(docs), media, media_mode="join")
    with pytest.raises(Exception, match=f"duplicate media_ref '{ref}'"):
        out.materialize()


def _with_null_ref(media):
    """The media table plus a copy of its first row whose media_ref is
    null."""
    import pyarrow as pa

    row = media.slice(0, 1)
    row = row.set_column(
        row.schema.get_field_index("media_ref"), "media_ref", pa.array([None], pa.string())
    )
    return pa.concat_tables([media, row])


def test_null_media_ref_fails_fused(small_corpus):
    docs, media, _ = small_corpus
    with pytest.raises(ValueError, match="null media_ref"):
        build_extraction_pipeline(ray.data.from_arrow(docs), _with_null_ref(media))


def test_null_media_ref_fails_join(small_corpus):
    docs, media, _ = small_corpus
    out = build_extraction_pipeline(
        ray.data.from_arrow(docs), _with_null_ref(media), media_mode="join"
    )
    with pytest.raises(Exception, match="null media_ref"):
        out.materialize()


def test_dataset_in_broadcast_mode_fails_before_execution(small_corpus):
    """Broadcast takes a pa.Table; a Dataset used to die in the pool
    constructor seconds into the run."""
    docs, media, _ = small_corpus
    with pytest.raises(ValueError, match="media_mode=\"join\""):
        build_extraction_pipeline(ray.data.from_arrow(docs), ray.data.from_arrow(media))


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


@pytest.mark.parametrize("key", ["max_restarts", "max_task_retries", "concurrency"])
@pytest.mark.parametrize("mode", ["broadcast", "join"])
def test_actor_only_remote_args_fail_at_build(small_corpus, key, mode):
    """The extract stages are tasks: an actor-only option in
    media_remote_args raises at build time, naming the key, instead of
    failing the submission mid-run."""
    docs, media, _ = small_corpus
    with pytest.raises(ValueError, match=key):
        build_extraction_pipeline(
            ray.data.from_arrow(docs), media, media_mode=mode, media_remote_args={key: 2}
        )


def test_gpu_request_reaches_the_fused_task_with_text_batches(small_corpus, monkeypatch):
    """A GPU request makes the fused stage a GPU task: Ray Data needs an
    explicit batch size then, and the stage gets TEXT_BATCH_SIZE."""
    from ocr_pipeline_ray.pipelines.extract import TEXT_BATCH_SIZE

    docs, media, _ = small_corpus
    seen = []
    orig = ray.data.Dataset.map_batches

    def spy(self, fn, **kwargs):
        seen.append((str(fn), kwargs))
        return orig(self, fn, **kwargs)

    monkeypatch.setattr(ray.data.Dataset, "map_batches", spy)
    build_extraction_pipeline(ray.data.from_arrow(docs), media, media_remote_args={"num_gpus": 1})
    (kwargs,) = [kw for name, kw in seen if "ExtractPackAll" in name]
    assert kwargs["num_gpus"] == 1 and kwargs["batch_size"] == TEXT_BATCH_SIZE
    assert "concurrency" not in kwargs


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
    [{}, {"media_mode": "join"}],
    ids=["fused", "join"],
)
def test_zero_span_doc_kept(kwargs):
    """A doc whose span list is empty stays in the output with
    ``n_spans = 0`` on every topology, as the oracle keeps it."""
    import pyarrow as pa

    from ocr_pipeline_ray.schema import DOCS_SCHEMA
    from ocr_pipeline_ray.sources.gen import generate_corpus

    docs, media, _ = generate_corpus(20, seed=1)
    rows = docs.to_pylist()
    rows[3]["spans"] = []
    docs = pa.Table.from_pylist(rows, schema=DOCS_SCHEMA)
    out = build_extraction_pipeline(ray.data.from_arrow(docs).repartition(3), media, **kwargs)
    got = pa.concat_tables(ray.get(out.to_arrow_refs()))
    assert _golden_map(got) == _oracle_map(docs, media)
    row = {r["doc_id"]: r for r in got.to_pylist()}["doc-00000003"]
    assert row["n_spans"] == 0 and row["spans"] == []


def test_empty_block_packs_to_typed_empty_table(small_corpus):
    """An empty input block (e.g. an empty shard on the fused path)
    packs to zero docs with the output schema."""
    from ocr_pipeline_ray.pipelines.extract import SPAN_COLS
    from ocr_pipeline_ray.stages.explode import explode_batch
    from ocr_pipeline_ray.stages.reassemble import pack_bucket

    docs, _, _ = small_corpus
    full = pack_bucket(explode_batch(docs.slice(0, 3)).select(SPAN_COLS))
    empty = pack_bucket(explode_batch(docs.slice(0, 0)).select(SPAN_COLS))
    assert empty.num_rows == 0
    assert empty.schema == full.schema


def test_fused_broadcast_runs_the_raster_engine():
    """The fused broadcast topology with ``PpmOcrEngine``: real rasters
    decode to their golden texts, a 48-page pdf stored in reverse page
    order comes back in reading order, and a corrupt image and a
    truncated pdf stay in the output with empty text and one error
    each. The packed rows carry only ``n_errors``, so the in-band error
    values are read from the same extract stage run over the exploded
    spans."""
    import pyarrow as pa

    from ocr_pipeline_ray.functions.ppm_ocr import PpmOcrEngine, encode_pdf_ppm, render_text_ppm
    from ocr_pipeline_ray.schema import DOCS_SCHEMA, MEDIA_SCHEMA
    from ocr_pipeline_ray.stages.explode import explode_batch
    from ocr_pipeline_ray.stages.extract import MediaExtractActor, strip_html_batch
    from ocr_pipeline_ray.state.media_store import broadcast_media

    pdf = encode_pdf_ppm([(5, 0, "second block"), (0, 9, "first 2"), (0, 0, "first 1")])
    n_heavy = 48
    heavy = encode_pdf_ppm([(p, 0, f"page {p} of {n_heavy}") for p in reversed(range(n_heavy))])
    media = {
        "mem://d0/1": ("image", render_text_ppm("Hello raster 42")),
        "mem://d0/2": ("pdf", pdf),
        "mem://d1/0": ("image", render_text_ppm("under_score OK")),
        "mem://d2/0": ("image", b"P6\n-6 7 255\n" + bytes(126)),
        "mem://d2/1": ("pdf", pdf[:-10]),
        "mem://d2/2": ("image", render_text_ppm("after the bad ones")),
        "mem://d3/0": ("pdf", heavy),
    }
    n_pages = {"mem://d3/0": n_heavy}
    layout = {
        "doc-0": [("text", "plain words"), ("image", "mem://d0/1"), ("pdf", "mem://d0/2")],
        "doc-1": [("image", "mem://d1/0"), ("text", "tail text")],
        "doc-2": [("image", "mem://d2/0"), ("pdf", "mem://d2/1"), ("image", "mem://d2/2")],
        "doc-3": [("pdf", "mem://d3/0")],
    }
    docs = pa.Table.from_pylist(
        [
            {
                "doc_id": d,
                "spans": [
                    {"kind": k, "text": v, "media_ref": "", "offset": i}
                    if k == "text"
                    else {"kind": k, "text": "", "media_ref": v, "offset": i}
                    for i, (k, v) in enumerate(spans)
                ],
            }
            for d, spans in layout.items()
        ],
        schema=DOCS_SCHEMA,
    )
    media_t = pa.Table.from_pylist(
        [
            {"media_ref": r, "kind": k, "payload": p, "n_pages": n_pages.get(r, 1)}
            for r, (k, p) in media.items()
        ],
        schema=MEDIA_SCHEMA,
    )
    golden = {
        "doc-0": ["plain words", "HELLO RASTER 42", "FIRST 1 FIRST 2 SECOND BLOCK"],
        "doc-1": ["UNDER_SCORE OK", "tail text"],
        "doc-2": ["", "", "AFTER THE BAD ONES"],
        "doc-3": [" ".join(f"PAGE {p} OF {n_heavy}" for p in range(n_heavy))],
    }

    out = build_extraction_pipeline(
        ray.data.from_arrow(docs).repartition(2), media_t, engine_factory=PpmOcrEngine
    )
    rows = {r["doc_id"]: r for r in out.iter_rows()}
    assert {d: [s["text"] for s in r["spans"]] for d, r in rows.items()} == golden
    assert {d: r["n_spans"] for d, r in rows.items()} == {d: len(s) for d, s in layout.items()}
    assert {d: r["n_errors"] for d, r in rows.items()} == {
        "doc-0": 0, "doc-1": 0, "doc-2": 2, "doc-3": 0
    }

    stage = MediaExtractActor(broadcast_media(media_t), engine_factory=PpmOcrEngine)
    spans = stage(strip_html_batch(explode_batch(docs)))
    errors = {
        (d, o): e
        for d, o, e in zip(*(spans.column(c).to_pylist() for c in ("doc_id", "offset", "error")))
    }
    assert len(errors) == 9
    assert errors.pop(("doc-2", 0)) == "extract failed: negative PPM size -6x7"
    assert errors.pop(("doc-2", 1)).startswith(
        "extract failed: PPMPDF block 2 runs past the payload"
    )
    assert set(errors.values()) == {""}
