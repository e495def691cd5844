"""The broadcast media store reads payloads in place: whatever shape
the broadcast table has — several chunks, a chunk sliced at a non-zero
offset, unsorted refs, ``large_binary`` payloads, null payloads — the
store builds only a ref index, hands out views of the object-store
buffers, and both topologies keep golden span output."""

import numpy as np
import pyarrow as pa
import pytest
import ray

from ocr_pipeline_ray.oracle import extract_docs
from ocr_pipeline_ray.pipelines.extract import _ExtractPackAll, build_extraction_pipeline
from ocr_pipeline_ray.stages.explode import explode_batch
from ocr_pipeline_ray.stages.extract import (
    InlineMediaExtract,
    MediaExtractActor,
    strip_html_batch,
)
from ocr_pipeline_ray.state.media_store import BroadcastMediaStore, payload_views


def _spans(table: pa.Table) -> dict:
    return {
        r["doc_id"]: [(s["kind"], s["text"], s["media_ref"], s["offset"]) for s in r["spans"]]
        for r in table.to_pylist()
    }


def _large_binary(media: pa.Table) -> pa.Table:
    i = media.schema.get_field_index("payload")
    return media.cast(media.schema.set(i, pa.field("payload", pa.large_binary())))


VARIANTS = {
    # three chunks; the second and third are slices at offsets 40 and 41
    "chunked": lambda m: pa.concat_tables([m.slice(0, 40), m.slice(40, 1), m.slice(41)]),
    "unsorted": lambda m: m.take(np.random.default_rng(7).permutation(m.num_rows)),
    "large_binary": _large_binary,
    "unsorted_large_chunked": lambda m: _large_binary(
        pa.concat_tables([m.slice(60), m.slice(0, 60)])
    ),
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_store_shapes_keep_golden_output_on_both_topologies(small_corpus, variant):
    """Golden spans from the fused kernel over a caller's own
    ``ray.put`` ref, and from the join over the same table."""
    docs, media, _ = small_corpus
    table = VARIANTS[variant](media)
    assert table.num_rows == media.num_rows
    want = _spans(extract_docs(docs, media))
    assert _spans(_ExtractPackAll(ray.put(table))(docs)) == want
    joined = build_extraction_pipeline(ray.data.from_arrow(docs), table, media_mode="join")
    assert _spans(pa.concat_tables(ray.get(joined.to_arrow_refs()))) == want


def test_null_payload_and_missing_ref_read_as_not_found(small_corpus):
    """A media row whose payload is null and a ref missing from the
    table both give ``text=""`` and ``error="media_ref not found"``,
    from the store and from an inline (joined) payload column alike."""
    docs, media, _ = small_corpus
    refs = media["media_ref"].to_pylist()
    kinds = media["kind"].to_pylist()
    null_ref = refs[kinds.index("image")]
    gone_ref = refs[kinds.index("pdf")]
    payloads = [None if r == null_ref else p for r, p in zip(refs, media["payload"].to_pylist())]
    table = media.set_column(
        media.schema.get_field_index("payload"), "payload", pa.array(payloads, pa.binary())
    ).filter(pa.array([r != gone_ref for r in refs]))

    spans = strip_html_batch(explode_batch(docs))
    by_ref = dict(zip(table["media_ref"].to_pylist(), table["payload"].to_pylist()))
    inline = spans.append_column(
        "payload", pa.array([by_ref.get(r) for r in spans["media_ref"].to_pylist()], pa.binary())
    )
    for out in (MediaExtractActor(ray.put(table))(spans), InlineMediaExtract()(inline)):
        rows = [r for r in out.to_pylist() if r["media_ref"] in (null_ref, gone_ref)]
        assert len(rows) == 2
        assert all(r["text"] == "" and r["error"] == "media_ref not found" for r in rows)

    want = _spans(extract_docs(docs, table))
    assert _spans(_ExtractPackAll(ray.put(table))(docs)) == want
    joined = build_extraction_pipeline(ray.data.from_arrow(docs), table, media_mode="join")
    assert _spans(pa.concat_tables(ray.get(joined.to_arrow_refs()))) == want


def test_store_build_and_lookups_copy_no_payload():
    """Building the store grows the Arrow heap by less than the ref
    column (it copies no payload, sorted or not), and a lookup — or
    reading an inline payload column — grows it by nothing."""
    rng = np.random.default_rng(3)
    n = 2000
    refs = [f"r{i:05d}" for i in range(n)]
    bodies = [rng.bytes(1000) for _ in range(n)]
    order = rng.permutation(n)
    table = pa.table(
        {
            "media_ref": pa.array(refs, pa.string()).take(order),
            "payload": pa.array(bodies, pa.binary()).take(order),
        }
    )
    ref = ray.put(table)
    query = pa.array(refs[::3] + ["absent"], pa.string())

    before = pa.total_allocated_bytes()
    store = BroadcastMediaStore(ref)
    assert pa.total_allocated_bytes() - before < table["media_ref"].nbytes

    before = pa.total_allocated_bytes()
    views = store.payloads(query)
    inline = payload_views(table["payload"])
    assert pa.total_allocated_bytes() - before == 0

    assert [bytes(v) for v in views[:-1]] == bodies[::3] and views[-1] is None
    assert all(v.readonly for v in views[:-1])
    assert [bytes(v) for v in inline] == [bodies[i] for i in order]
    assert store.get(refs[5]) == bodies[5] and store.get("absent") is None
