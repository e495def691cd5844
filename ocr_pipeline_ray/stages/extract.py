"""Extraction stages: text strip (stateless tasks) + media engines (actor pools).

Mirrors the reference's stage split — cheap preprocessing as plain
functions, warm-model work as load-once-per-worker state
(reference std-detection/api.py:40-60, str-recognition/api.py:97-124) —
re-expressed as Ray Data ``map_batches`` stages:

* :func:`strip_html_batch` — stateless task stage (no state to warm).
* :class:`MediaExtractActor` — actor pool holding a warm engine + the
  broadcast media store; ``__init__`` once per actor, ``__call__`` per
  batch. Swap ``SyntheticEngine`` for a PaddleOCR/Tesseract/pdfium
  wrapper to run real models behind the identical plumbing.
* :class:`InlineMediaExtract` — the same loop over rows whose
  ``payload`` the media join already attached (no store).

Error semantics: every input span row stays in the output; failures set
``text=""`` and put the message in the ``error`` column
(reference str-recognition/api.py:216-224 keeps failed regions with an
error field — dropping rows would break span-sequence equality).
"""

from __future__ import annotations

import pyarrow as pa

from ocr_pipeline_ray.functions.html import strip_boilerplate
from ocr_pipeline_ray.functions.synthetic_media import (
    decode_image_payload,
    decode_pdf_payload,
)
from ocr_pipeline_ray.state.media_store import BroadcastMediaStore


def strip_html_batch(batch: pa.Table) -> pa.Table:
    """Text-span stage: HTML boilerplate strip over an Arrow batch.

    The per-row HTML parse IS the compute (like the reference's CRAFT
    forward pass per image); columns move zero-copy around it.
    """
    texts = batch.column("text").to_pylist()
    kinds = batch.column("kind").to_pylist()
    out = [strip_boilerplate(t) if k == "text" else t for t, k in zip(texts, kinds)]
    i = batch.schema.get_field_index("text")
    return batch.set_column(i, "text", pa.array(out, pa.string()))


class SyntheticEngine:
    """Deterministic stand-in for a warm OCR / PDF-layout engine.

    Holds "loaded state" (nothing real here — a real engine loads
    weights; the reference loads craft_mlt_25k.pth once per process,
    std-detection/api.py:40-60). The interface is the plug point for
    PaddleOCR / Tesseract / pdfium wrappers.
    """

    def extract(self, kind: str, media_ref: str, payload: bytes) -> str:
        if kind == "image":
            return decode_image_payload(media_ref, payload)
        if kind == "pdf":
            return decode_pdf_payload(payload)
        raise ValueError(f"unsupported media kind: {kind}")


class MediaExtractActor:
    """Actor-pool stage for media spans (image and/or pdf): the
    package's one per-span engine loop, which every topology runs.

    Use via::

        ds.map_batches(MediaExtractActor,
                       fn_constructor_kwargs={"media_object_ref": ref},
                       concurrency=(2, 8), batch_size=256,
                       batch_format="pyarrow")

    ``__init__`` runs once per actor: resolve the broadcast media store
    and warm the engine. ``__call__`` runs per batch: a batch without a
    ``payload`` column gets one from the store (one vectorized lookup
    per batch), the engine extracts every media span, and ``payload``
    is dropped from the output.
    """

    def __init__(self, media_object_ref, engine_factory=SyntheticEngine):
        self.store = BroadcastMediaStore(media_object_ref)
        self.engine = engine_factory()

    def __call__(self, batch: pa.Table) -> pa.Table:
        if "payload" not in batch.column_names:
            batch = batch.append_column("payload", self.store.payloads(batch.column("media_ref")))
        kinds = batch.column("kind").to_pylist()
        refs = batch.column("media_ref").to_pylist()
        payloads = batch.column("payload").to_pylist()
        texts = batch.column("text").to_pylist()
        errors = batch.column("error").to_pylist()
        for j, (k, ref, payload) in enumerate(zip(kinds, refs, payloads)):
            if k == "text":
                continue
            if payload is None:
                texts[j], errors[j] = "", "media_ref not found"
                continue
            try:
                texts[j] = self.engine.extract(k, ref, payload)
            except Exception as e:  # keep the span, carry the error in-band
                texts[j], errors[j] = "", f"extract failed: {e}"
        out = batch.set_column(
            batch.schema.get_field_index("text"), "text", pa.array(texts, pa.string())
        )
        out = out.set_column(
            out.schema.get_field_index("error"), "error", pa.array(errors, pa.string())
        )
        return out.drop_columns(["payload"])


class InlineMediaExtract(MediaExtractActor):
    """:class:`MediaExtractActor` over rows that already carry
    ``payload`` inline (the bucketed-join media path for media too
    large to broadcast): no store; still an actor pool so a real
    engine stays warm across batches.
    """

    def __init__(self, engine_factory=SyntheticEngine):
        self.engine = engine_factory()
