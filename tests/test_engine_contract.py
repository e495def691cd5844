"""The engine seam's payload contract: ``extract(kind, media_ref,
payload)`` receives a read-only bytes-like buffer — the extract stages
pass a ``memoryview`` of the Arrow payload buffer, never a copy — and
every engine and decoder gives the same result for it as for ``bytes``
(the ``as_payload`` fixture runs each test in both forms)."""

import functools
import sys
import types

import numpy as np
import pyarrow as pa
import pytest

from ocr_pipeline_ray.functions.bmp import encode_bmp
from ocr_pipeline_ray.functions.engines import (
    CompositeEngine,
    PaddleOCREngine,
    TesseractEngine,
    decode_raster,
)
from ocr_pipeline_ray.functions.jpeg import encode_jpeg
from ocr_pipeline_ray.functions.png import encode_png
from ocr_pipeline_ray.functions.ppm_ocr import PpmOcrEngine, encode_pdf_ppm, render_text_ppm
from ocr_pipeline_ray.functions.synthetic_media import encode_image_payload, encode_pdf_payload
from ocr_pipeline_ray.stages.extract import MediaExtractActor, SyntheticEngine

RGB = (np.arange(8 * 16 * 3, dtype=np.uint8).reshape(8, 16, 3) * 7) % 251

CASES = [
    (SyntheticEngine, "image", encode_image_payload("m-1", "hello world"), "hello world"),
    (
        SyntheticEngine,
        "pdf",
        encode_pdf_payload([[{"y": 1, "x": 0, "t": "second"}, {"y": 0, "x": 0, "t": "first"}]]),
        "first second",
    ),
    (PpmOcrEngine, "image", render_text_ppm("HELLO 42"), "HELLO 42"),
    (PpmOcrEngine, "pdf", encode_pdf_ppm([(1, 0, "B"), (0, 0, "A")]), "A B"),
    (
        functools.partial(CompositeEngine, image_factory=PpmOcrEngine, pdf_factory=SyntheticEngine),
        "image",
        render_text_ppm("MIXED"),
        "MIXED",
    ),
    (
        functools.partial(CompositeEngine, image_factory=PpmOcrEngine, pdf_factory=SyntheticEngine),
        "pdf",
        encode_pdf_payload([[{"y": 0, "x": 0, "t": "layout"}]]),
        "layout",
    ),
]


@pytest.mark.parametrize(
    "factory,kind,payload,expected",
    CASES,
    ids=[
        "synthetic-image", "synthetic-pdf", "ppm-image", "ppm-pdf", "composite-image",
        "composite-pdf",
    ],
)
def test_engines_read_any_bytes_like_payload(as_payload, factory, kind, payload, expected):
    assert factory().extract(kind, "m-1", as_payload(payload)) == expected


@pytest.mark.parametrize(
    "encode",
    [
        lambda a: render_text_ppm("RASTER"),
        encode_png,
        encode_bmp,
        functools.partial(encode_jpeg, quality=90),
    ],
    ids=["ppm", "png", "bmp", "jpeg"],
)
def test_decode_raster_reads_any_bytes_like_payload(as_payload, encode):
    payload = encode(RGB)
    want = decode_raster(payload)
    got = decode_raster(as_payload(payload))
    assert got.dtype == np.uint8 and got.shape == want.shape and (got == want).all()


def _stub(monkeypatch, name, **attrs):
    mod = types.ModuleType(name)
    for k, v in attrs.items():
        setattr(mod, k, v)
    monkeypatch.setitem(sys.modules, name, mod)


def _pixels(img) -> str:
    """What the stubbed model "reads": a digest of the pixels it got."""
    arr = np.asarray(img)
    return f"{arr.shape[0]}x{arr.shape[1]}:{int(arr.astype(np.int64).sum())}"


def test_stubbed_adapters_read_any_bytes_like_payload(as_payload, monkeypatch):
    """PaddleOCR and Tesseract decode the payload themselves
    (``decode_raster``); only the model call is stubbed, and it reports
    the pixels it was handed."""

    class PaddleOCR:
        def __init__(self, **kw):
            pass

        def ocr(self, img, cls=False):
            return [[[[[0, 0], [9, 0], [9, 9], [0, 9]], (_pixels(img), 1.0)]]]

    _stub(monkeypatch, "paddleocr", PaddleOCR=PaddleOCR)
    _stub(monkeypatch, "pytesseract", image_to_string=lambda img, lang: _pixels(img))
    for payload in (render_text_ppm("OCR ME"), encode_png(RGB), encode_bmp(RGB)):
        want = _pixels(decode_raster(payload))
        assert PaddleOCREngine().extract("image", "m", as_payload(payload)) == want
        assert TesseractEngine().extract("image", "m", as_payload(payload)) == want


class _ViewRecordingEngine(SyntheticEngine):
    """Fails a span unless its payload arrives as a read-only view."""

    def extract(self, kind, media_ref, payload):
        if not (isinstance(payload, memoryview) and payload.readonly):
            raise TypeError(f"payload arrived as {type(payload).__name__}")
        return super().extract(kind, media_ref, payload)


def test_both_extract_paths_hand_engines_read_only_views(small_corpus):
    """The broadcast store and the inline (join) payload column both
    give the engine a read-only ``memoryview``, never ``bytes``."""
    import ray

    from ocr_pipeline_ray.oracle import extract_docs
    from ocr_pipeline_ray.stages.explode import explode_batch
    from ocr_pipeline_ray.stages.extract import InlineMediaExtract, strip_html_batch

    docs, media, _ = small_corpus
    spans = strip_html_batch(explode_batch(docs))
    by_ref = dict(zip(media["media_ref"].to_pylist(), media["payload"].to_pylist()))
    inline = spans.append_column(
        "payload", pa.array([by_ref.get(r) for r in spans["media_ref"].to_pylist()], pa.binary())
    )
    broadcast = MediaExtractActor(ray.put(media), engine_factory=_ViewRecordingEngine)(spans)
    joined = InlineMediaExtract(engine_factory=_ViewRecordingEngine)(inline)
    assert broadcast.equals(joined)
    assert broadcast.column_names == spans.column_names
    errors = set(broadcast["error"].to_pylist())
    assert errors <= {"", "media_ref not found"} and not any(
        e.startswith("extract failed") for e in errors
    )
    want = {
        (r["doc_id"], s["offset"]): s["text"]
        for r in extract_docs(docs, media).to_pylist()
        for s in r["spans"]
    }
    keys = zip(broadcast["doc_id"].to_pylist(), broadcast["offset"].to_pylist())
    assert dict(zip(keys, broadcast["text"].to_pylist())) == want
