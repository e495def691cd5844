"""Arrow schemas for the interleaved-document data model.

Per BASELINE.json ``input_hint`` / FIXTURES.md: one logical ``docs``
table (one row per interleaved document) plus a ``media`` side table.
This replaces the reference's row-oriented Pydantic models
(reference common/schema/detection.py:5-31, recognition.py:13-29) with
columnar Arrow types; the composite string key ``{request_id}_{idx}``
the reference packs span order into (reference std-detection/api.py:108)
becomes explicit ``(doc_id, offset)`` columns.
"""

from __future__ import annotations

import pyarrow as pa

KIND_TEXT = "text"
KIND_IMAGE = "image"
KIND_PDF = "pdf"
KINDS = (KIND_TEXT, KIND_IMAGE, KIND_PDF)

SPAN_STRUCT = pa.struct(
    [
        pa.field("kind", pa.string()),
        pa.field("text", pa.string()),
        pa.field("media_ref", pa.string()),
        pa.field("offset", pa.int32()),
    ]
)

DOCS_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.string()),
        pa.field("spans", pa.list_(SPAN_STRUCT)),
    ]
)

MEDIA_SCHEMA = pa.schema(
    [
        pa.field("media_ref", pa.string()),
        pa.field("kind", pa.string()),
        pa.field("payload", pa.binary()),
        pa.field("n_pages", pa.int32()),
    ]
)

# Exploded span rows — the unit of per-span processing between the
# explode and reassemble stages (SURVEY.md §2.6). ``error`` is the
# in-band error channel (reference str-recognition/api.py:216-224:
# failed regions stay in the response with an error field).
SPAN_ROWS_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.string()),
        pa.field("offset", pa.int32()),
        pa.field("kind", pa.string()),
        pa.field("text", pa.string()),
        pa.field("media_ref", pa.string()),
        pa.field("error", pa.string()),
    ]
)
