"""Explode doc rows into span rows — vectorized, zero-copy Arrow.

One doc row ``(doc_id, spans: list<struct>)`` becomes N span rows
``(doc_id, offset, kind, text, media_ref, error)``. This
replaces the reference's per-region fan-out where region identity is
packed into a composite string key (reference std-detection/api.py:108,
parsed back at pipeline/file_utils.py:17-22) with explicit columns.

Exploding *early* is the wide-row defense (SURVEY.md §7 step 9): a
heavy doc with 128 spans becomes 128 independent rows that spread
across blocks instead of one straggler row.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ocr_pipeline_ray.schema import SPAN_ROWS_SCHEMA


def explode_batch(batch: pa.Table) -> pa.Table:
    """docs batch -> span-rows batch (pure Arrow kernels, no Python loop).

    A doc with no spans becomes one placeholder row with a null
    ``offset`` (an empty text span otherwise), so every stage carries
    it like a text span and the pack emits the doc with ``n_spans = 0``
    instead of dropping it."""
    spans = batch.column("spans").combine_chunks()
    flat = pc.list_flatten(spans)
    parents = pc.list_parent_indices(spans)
    doc_id = pc.take(batch.column("doc_id"), parents)
    kind = pc.struct_field(flat, "kind")
    text = pc.struct_field(flat, "text")
    media_ref = pc.struct_field(flat, "media_ref")
    offset = pc.struct_field(flat, "offset")
    error = pa.nulls(len(flat), pa.string()).fill_null("")
    out = pa.Table.from_arrays(
        [doc_id, offset, kind, text, media_ref, error], names=SPAN_ROWS_SCHEMA.names
    )
    empty = pc.equal(pc.fill_null(pc.list_value_length(spans), 0), 0)
    if not pc.any(empty).as_py():
        return out
    ids = batch.column("doc_id").combine_chunks().filter(empty).to_pylist()
    n = len(ids)
    placeholders = pa.Table.from_pydict(
        {"doc_id": ids, "offset": [None] * n, "kind": ["text"] * n, "text": [""] * n,
         "media_ref": [""] * n, "error": [""] * n},
        schema=SPAN_ROWS_SCHEMA,
    )
    return pa.concat_tables([out, placeholders.cast(out.schema)])

