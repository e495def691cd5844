"""Extraction stages: text strip + media engines, all stateless Ray Data tasks.

Mirrors the reference's stage split — cheap preprocessing as plain
functions, warm-model work as load-once-per-process state
(reference std-detection/api.py:40-60, str-recognition/api.py:97-124) —
re-expressed as Ray Data ``map_batches`` task stages:

* :func:`strip_html_batch` — stateless task stage (no state to warm).
* :class:`MediaExtractActor` — a small picklable callable (a broadcast
  media ref and an engine factory) that ``map_batches`` runs as a
  task. Its engine and resolved media store live in a per-process warm
  cache (:func:`warm_state`): built on the first batch a worker
  process sees, reused by every later batch and Ray Data execution
  that process runs. No actor pool, so no pool start-up per execution,
  and a 1-CPU session schedules the stage like any other task. Swap
  ``SyntheticEngine`` for a PaddleOCR/Tesseract/pdfium wrapper to run
  real models behind the identical plumbing.
* :class:`InlineMediaExtract` — the same loop over rows whose
  ``payload`` the media join already attached (no store).

The engine seam: ``engine.extract(kind, media_ref, payload) -> str``,
where ``payload`` is a read-only bytes-like buffer — a ``memoryview``
of the Arrow payload buffer, never a copy of it. An engine that needs
``bytes`` converts at its own door (``bytes(payload)``).

Error semantics: every input span row stays in the output; failures set
``text=""`` and put the message in the ``error`` column
(reference str-recognition/api.py:216-224 keeps failed regions with an
error field — dropping rows would break span-sequence equality).
"""

from __future__ import annotations

import threading

import pyarrow as pa
from ray import cloudpickle

from ocr_pipeline_ray.functions.html import strip_boilerplate
from ocr_pipeline_ray.functions.synthetic_media import (
    decode_image_payload,
    decode_pdf_payload,
)
from ocr_pipeline_ray.state.media_store import BroadcastMediaStore, payload_views


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
    PaddleOCR / Tesseract / pdfium wrappers: ``payload`` is a
    read-only bytes-like buffer (see the module docstring).
    """

    def extract(self, kind: str, media_ref: str, payload: bytes | memoryview) -> str:
        if kind == "image":
            return decode_image_payload(media_ref, payload)
        if kind == "pdf":
            return decode_pdf_payload(payload)
        raise ValueError(f"unsupported media kind: {kind}")


# module level on purpose: Ray Data gives a task no per-process
# setup hook, so this is the state a worker process keeps between tasks
_warm_lock = threading.Lock()
_warm_key = None
_warm = None


def warm_state(media_object_ref, engine_factory):
    """This worker process's ``(store, engine)``: the resolved
    :class:`BroadcastMediaStore` of ``media_object_ref`` (``None``: no
    store) and ``engine_factory()``, built on the first call and
    reused by every later batch and Ray Data execution the process
    runs.

    One entry, keyed by value: the ref's hex and the pickled factory.
    Each task unpickles its own copy of the stage callable, so a
    ``functools.partial`` factory is a new object every time and an
    identity key would never hit. A call with another key drops the
    entry before building the new one, so an idle worker pins at most
    one broadcast table.
    """
    global _warm_key, _warm
    key = (
        None if media_object_ref is None else media_object_ref.hex(),
        cloudpickle.dumps(engine_factory),
    )
    with _warm_lock:
        if key != _warm_key:
            _warm_key = _warm = None
            store = None if media_object_ref is None else BroadcastMediaStore(media_object_ref)
            _warm_key, _warm = key, (store, engine_factory())
        return _warm


class MediaExtractActor:
    """Task stage for media spans (image and/or pdf): the package's one
    per-span engine loop, which every topology runs. (The name dates
    from when this was an actor pool.)

    Use via::

        ds.map_batches(MediaExtractActor(ref, engine_factory=...),
                       batch_size=256, batch_format="pyarrow")

    The instance holds only the media ref and the factory, so it is
    cheap to pickle into every task. ``__call__`` takes the store and
    the engine from :func:`warm_state` and runs per batch: each media
    span's payload is a read-only view of an Arrow buffer — of the
    batch's own ``payload`` column when it has one (the join), else
    of the broadcast table in the object store (one vectorized lookup
    per batch) — the engine extracts every media span, and the output
    has the input's columns without ``payload``.
    """

    def __init__(self, media_object_ref, engine_factory=SyntheticEngine):
        self.media_object_ref = media_object_ref
        self.engine_factory = engine_factory

    def __call__(self, batch: pa.Table) -> pa.Table:
        store, engine = warm_state(self.media_object_ref, self.engine_factory)
        if "payload" in batch.column_names:
            payloads = payload_views(batch.column("payload"))
            batch = batch.drop_columns(["payload"])
        else:
            payloads = store.payloads(batch.column("media_ref"))
        kinds = batch.column("kind").to_pylist()
        refs = batch.column("media_ref").to_pylist()
        texts = batch.column("text").to_pylist()
        errors = batch.column("error").to_pylist()
        for j, (k, ref, payload) in enumerate(zip(kinds, refs, payloads)):
            if k == "text":
                continue
            if payload is None:
                texts[j], errors[j] = "", "media_ref not found"
                continue
            try:
                texts[j] = engine.extract(k, ref, payload)
            except Exception as e:  # keep the span, carry the error in-band
                texts[j], errors[j] = "", f"extract failed: {e}"
        out = batch.set_column(
            batch.schema.get_field_index("text"), "text", pa.array(texts, pa.string())
        )
        return out.set_column(
            out.schema.get_field_index("error"), "error", pa.array(errors, pa.string())
        )


class InlineMediaExtract(MediaExtractActor):
    """:class:`MediaExtractActor` over rows that already carry
    ``payload`` inline (the bucketed-join media path for media too
    large to broadcast): no store, so the warm entry is keyed by the
    engine factory only.
    """

    def __init__(self, engine_factory=SyntheticEngine):
        super().__init__(None, engine_factory)
