"""Real third-party engine adapters for the ``engine_factory`` seam.

The flagship claim "real engines plug in" (SURVEY.md §2.7): each
adapter is a picklable top-level class whose ``__init__`` loads the
heavy library ONCE PER WORKER PROCESS (the extract stages keep one
warm engine per process) — the warm-model pattern the reference
implements by loading ``craft_mlt_25k.pth`` once per process
(reference std-detection/api.py:40-60) and the TPS-ResNet recognizer
once per process (reference str-recognition/api.py:97-124) — and whose
``extract(kind, media_ref, payload) -> str`` matches
:class:`~ocr_pipeline_ray.stages.extract.SyntheticEngine`: ``payload``
is a read-only bytes-like buffer (a ``memoryview`` of the Arrow
payload buffer), and an adapter whose library needs ``bytes``
converts at its own door. So it drops
into ``build_extraction_pipeline(..., engine_factory=...)`` (add
``media_remote_args={"num_gpus": ...}`` to give each extract task a
GPU share). Every topology calls it from the one engine loop,
:class:`~ocr_pipeline_ray.stages.extract.MediaExtractActor`.

Import-guarded: this container ships none of paddleocr / pytesseract /
pypdfium2, so constructing an adapter without its library raises
ImportError with the install hint. The wiring (raster decode -> engine
call -> reading-order join -> in-band error channel) is tested against
a stubbed library; a skip-marked test exercises the real library when
it is installed.

Raster decode uses the package's own wire-format decoders (PPM / PNG /
BMP / JPEG) rather than PIL, so the only third-party import is the OCR
library itself.
"""

from __future__ import annotations

import numpy as np


def decode_raster(payload: bytes | memoryview) -> np.ndarray:
    """Format-sniffing decode of any supported wire format to an
    ``(h, w, 3)`` uint8 RGB array (PPM, PNG, BMP, JPEG). ``payload`` is
    any bytes-like buffer: PPM decodes in place, the other parsers
    take ``bytes`` at their door."""
    if payload[:2] == b"P6":
        from ocr_pipeline_ray.functions.ppm_ocr import parse_ppm

        return parse_ppm(payload)
    if payload[:8] == b"\x89PNG\r\n\x1a\n":
        from ocr_pipeline_ray.functions.png import parse_png

        return parse_png(payload)
    if payload[:2] == b"BM":
        from ocr_pipeline_ray.functions.bmp import parse_bmp

        return parse_bmp(payload)
    if payload[:2] == b"\xff\xd8":
        from ocr_pipeline_ray.functions.jpeg import decode_jpeg

        return decode_jpeg(payload)
    raise ValueError("unknown image format")


def reading_order_join(lines: list[tuple[float, float, str]]) -> str:
    """Join OCR line results in reading order: top-to-bottom, then
    left-to-right by each line's box origin (the same re-sort the
    PDF-layout path applies to layout blocks)."""
    return " ".join(t for _, _, t in sorted(lines, key=lambda r: (r[0], r[1])))


class PaddleOCREngine:
    """PaddleOCR adapter (detector + recognizer, warm per worker process).

    ``paddleocr.PaddleOCR`` bundles a DB-style detector and a CRNN
    recognizer — the same det->rec split the reference builds from
    CRAFT + TPS-ResNet (reference pipeline/app.py:157-212), here one
    warm object per Ray worker process instead of two HTTP services.
    """

    def __init__(self, lang: str = "en", **ocr_kwargs):
        try:
            from paddleocr import PaddleOCR
        except ImportError as e:  # pragma: no cover - container has no paddle
            raise ImportError(
                "PaddleOCREngine targets the paddleocr 2.x result format: "
                "`pip install 'paddleocr<3' paddlepaddle` (3.x renamed "
                "use_angle_cls and restructured .ocr() results)"
            ) from e
        self._ocr = PaddleOCR(lang=lang, use_angle_cls=False, **ocr_kwargs)

    def extract(self, kind: str, media_ref: str, payload: bytes | memoryview) -> str:
        if kind != "image":
            raise ValueError(
                "PaddleOCREngine handles image spans; compose with "
                "PdfiumEngine via CompositeEngine for pdf spans"
            )
        img = decode_raster(payload)
        result = self._ocr.ocr(img, cls=False)
        page = result[0] if result else None
        if not page:
            return ""
        lines = [
            (min(p[1] for p in box), min(p[0] for p in box), text)
            for box, (text, _conf) in page
        ]
        return reading_order_join(lines)


class TesseractEngine:
    """pytesseract adapter — CPU OCR, zero model download, the
    lightest real engine to smoke a deployment with."""

    def __init__(self, lang: str = "eng"):
        try:
            import pytesseract
        except ImportError as e:  # pragma: no cover - container has no tesseract
            raise ImportError(
                "TesseractEngine requires `pip install pytesseract` and a "
                "tesseract binary on PATH"
            ) from e
        self._tess = pytesseract
        self._lang = lang

    def extract(self, kind: str, media_ref: str, payload: bytes | memoryview) -> str:
        if kind != "image":
            raise ValueError("TesseractEngine handles image spans only")
        text = self._tess.image_to_string(decode_raster(payload), lang=self._lang)
        return " ".join(text.split())


class PdfiumEngine:
    """pypdfium2 adapter: born-digital pages yield their embedded text
    layer; scanned pages (empty text layer) render at 2x scale and
    fall through to the OCR engine supplied as ``image_engine`` — the
    page-render -> layout-order -> OCR chain of the north rule."""

    def __init__(self, image_engine=None):
        try:
            import pypdfium2 as pdfium
        except ImportError as e:  # pragma: no cover - container has no pdfium
            raise ImportError("PdfiumEngine requires `pip install pypdfium2`") from e
        self._pdfium = pdfium
        self._image_engine = image_engine

    def extract(self, kind: str, media_ref: str, payload: bytes | memoryview) -> str:
        if kind != "pdf":
            raise ValueError("PdfiumEngine handles pdf spans only")
        doc = self._pdfium.PdfDocument(bytes(payload))
        try:
            pages = []
            for page in doc:
                text = page.get_textpage().get_text_range().strip()
                if not text and self._image_engine is not None:
                    # rev_byteorder gives RGBA; pdfium's default render
                    # is BGRA, and slicing that [:, :, :3] would hand
                    # the OCR engine channel-swapped (BGR) pixels —
                    # wrong for any luminance-weighted processing on
                    # colored scans.
                    bitmap = page.render(scale=2.0, rev_byteorder=True)
                    arr = np.asarray(bitmap.to_numpy())[:, :, :3]
                    from ocr_pipeline_ray.functions.bmp import encode_bmp

                    text = self._image_engine.extract(
                        "image", media_ref, encode_bmp(np.ascontiguousarray(arr))
                    )
                pages.append(text)
            return "\n".join(pages)
        finally:
            doc.close()


class CompositeEngine:
    """Kind-dispatch wrapper so one ``engine_factory`` serves mixed
    media: image spans to one engine, pdf spans to another. Build a
    picklable factory with ``functools.partial``::

        factory = functools.partial(
            CompositeEngine,
            image_factory=PaddleOCREngine,
            pdf_factory=PdfiumEngine,
        )
        build_extraction_pipeline(ds, media, engine_factory=factory)
    """

    def __init__(self, image_factory=None, pdf_factory=None):
        self._image = image_factory() if image_factory is not None else None
        self._pdf = pdf_factory() if pdf_factory is not None else None

    def extract(self, kind: str, media_ref: str, payload: bytes | memoryview) -> str:
        engine = self._image if kind == "image" else self._pdf if kind == "pdf" else None
        if engine is None:
            raise ValueError(f"no engine configured for media kind: {kind}")
        return engine.extract(kind, media_ref, payload)
