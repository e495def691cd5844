"""The engine_factory seam with REAL third-party adapters.

Three layers of evidence, strongest available in this container first:

1. Wiring tests with a stubbed library module — the adapter's decode ->
   engine call -> reading-order join -> in-band error path runs for
   real; only the model call is faked (runs everywhere).
2. Import-guard tests — constructing without the library raises
   ImportError carrying the install hint (runs when the lib is absent).
3. Skip-marked real-library tests — run only where paddleocr /
   pypdfium2 / pytesseract are installed.
"""

import importlib.util
import sys
import types

import numpy as np
import pyarrow as pa
import pytest


def _has(mod):
    return importlib.util.find_spec(mod) is not None

from ocr_pipeline_ray.functions.engines import (
    CompositeEngine,
    PaddleOCREngine,
    PdfiumEngine,
    TesseractEngine,
    decode_raster,
    reading_order_join,
)
from ocr_pipeline_ray.functions.ppm_ocr import render_text_ppm


def test_decode_raster_sniffs_all_wire_formats():
    from ocr_pipeline_ray.functions.bmp import encode_bmp
    from ocr_pipeline_ray.functions.png import encode_png

    rgb = (np.arange(4 * 6 * 3, dtype=np.uint8).reshape(4, 6, 3) * 3) % 251
    assert decode_raster(encode_png(rgb)).shape == (4, 6, 3)
    assert (decode_raster(encode_bmp(rgb)) == rgb).all()
    ppm = render_text_ppm("HI")
    assert decode_raster(ppm).ndim == 3
    with pytest.raises(ValueError):
        decode_raster(b"\x00\x01nonsense")


def test_reading_order_join_sorts_top_then_left():
    lines = [(10.0, 50.0, "right"), (10.0, 2.0, "left"), (90.0, 0.0, "below")]
    assert reading_order_join(lines) == "left right below"


def _install_fake_paddleocr(monkeypatch, page_result):
    fake = types.ModuleType("paddleocr")
    calls = {}

    class PaddleOCR:
        def __init__(self, **kw):
            calls["init_kwargs"] = kw

        def ocr(self, img, cls=False):
            calls["img_shape"] = np.asarray(img).shape
            return [page_result]

    fake.PaddleOCR = PaddleOCR
    monkeypatch.setitem(sys.modules, "paddleocr", fake)
    return calls


def test_paddle_adapter_wiring_with_stubbed_library(monkeypatch):
    """Decode + reading-order join run for real; only the model call
    is stubbed. Boxes arrive deliberately out of reading order."""
    page = [
        [[[5, 40], [60, 40], [60, 55], [5, 55]], ("world", 0.97)],
        [[[4, 3], [50, 3], [50, 18], [4, 18]], ("hello", 0.99)],
    ]
    calls = _install_fake_paddleocr(monkeypatch, page)
    eng = PaddleOCREngine(lang="en")
    payload = render_text_ppm("ANYTHING")
    assert eng.extract("image", "m-1", payload) == "hello world"
    assert calls["img_shape"][2] == 3  # decoded raster reached the model
    assert calls["init_kwargs"]["lang"] == "en"  # warm init happened once
    with pytest.raises(ValueError):
        eng.extract("pdf", "m-1", b"%PDF")


def test_paddle_adapter_through_actor_plumbing(monkeypatch):
    """The adapter behind the SAME MediaExtractActor plumbing the
    pipeline uses (in-process: module stubs don't cross Ray workers) —
    store lookup, engine call, and the in-band error
    channel for a missing media_ref."""
    _install_fake_paddleocr(
        monkeypatch, [[[[0, 0], [9, 0], [9, 9], [0, 9]], ("ok", 1.0)]]
    )
    from ocr_pipeline_ray.schema import MEDIA_SCHEMA
    from ocr_pipeline_ray.stages.extract import MediaExtractActor
    from ocr_pipeline_ray.state.media_store import broadcast_media

    media = pa.table(
        {
            "media_ref": ["m-1"],
            "kind": ["image"],
            "payload": [render_text_ppm("X")],
            "n_pages": pa.array([1], pa.int32()),
        },
        schema=MEDIA_SCHEMA,
    )
    actor = MediaExtractActor(broadcast_media(media), engine_factory=PaddleOCREngine)
    batch = pa.table(
        {
            "doc_id": ["d", "d"],
            "offset": pa.array([0, 1], pa.int32()),
            "kind": ["image", "image"],
            "text": ["", ""],
            "media_ref": ["m-1", "m-MISSING"],
            "error": ["", ""],
        }
    )
    out = actor(batch)
    assert out.column("text").to_pylist() == ["ok", ""]
    assert out.column("error").to_pylist() == ["", "media_ref not found"]


def test_composite_engine_dispatches_by_kind():
    class Img:
        def extract(self, kind, ref, payload):
            return "img:" + ref

    class Pdf:
        def extract(self, kind, ref, payload):
            return "pdf:" + ref

    eng = CompositeEngine(image_factory=Img, pdf_factory=Pdf)
    assert eng.extract("image", "a", b"") == "img:a"
    assert eng.extract("pdf", "b", b"") == "pdf:b"
    with pytest.raises(ValueError):
        eng.extract("video", "c", b"")
    with pytest.raises(ValueError):
        CompositeEngine(image_factory=Img).extract("pdf", "d", b"")


@pytest.mark.skipif(_has("paddleocr"), reason="paddleocr installed; guard test is for its absence")
def test_paddle_import_guard_message():
    sys.modules.pop("paddleocr", None)  # drop any stub left by other tests
    with pytest.raises(ImportError, match="paddleocr"):
        PaddleOCREngine()


@pytest.mark.skipif(_has("pypdfium2"), reason="pypdfium2 installed; guard test is for its absence")
def test_pdfium_import_guard_message():
    with pytest.raises(ImportError, match="pypdfium2"):
        PdfiumEngine()


@pytest.mark.skipif(not _has("pytesseract"), reason="pytesseract not installed")
def test_tesseract_real():  # pragma: no cover - optional dependency
    eng = TesseractEngine()
    out = eng.extract("image", "m", render_text_ppm("HELLO"))
    assert isinstance(out, str)


@pytest.mark.skipif(not _has("pypdfium2"), reason="pypdfium2 not installed")
def test_pdfium_real():  # pragma: no cover - optional dependency
    import pypdfium2 as pdfium

    doc = pdfium.PdfDocument.new()
    doc.new_page(200, 100)
    import io

    buf = io.BytesIO()
    doc.save(buf)
    eng = PdfiumEngine()
    assert eng.extract("pdf", "m", buf.getvalue()) == ""


@pytest.mark.skipif(not _has("paddleocr"), reason="paddleocr not installed")
def test_paddleocr_real():  # pragma: no cover - optional dependency
    eng = PaddleOCREngine()
    out = eng.extract("image", "m", render_text_ppm("HELLO WORLD"))
    assert isinstance(out, str)
