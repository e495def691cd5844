"""Deterministic synthetic media payloads + their extraction engines.

The container has no OCR weights / pdfium / image libs, so media
extraction is exercised through *self-describing deterministic
payloads* (FIXTURES.md §2): the payload bytes encode exactly the text a
real engine would extract. The **Ray-side plumbing is real** — actor
pools, batch sizing, error channels, ordering — and a real engine
(PaddleOCR / Tesseract / pdfium) drops in behind the same interface
(see ``ocr_pipeline_ray.stages.extract``), mirroring how the reference
holds CRAFT+STR weights warm per process
(reference std-detection/api.py:40-60, str-recognition/api.py:97-124).

Payload formats
---------------
image:  b"OCR1\\n" + xor(key(media_ref), utf8(text))
        Decoding requires the media_ref (the xor key is derived from
        it), so the media lookup path is genuinely exercised.
pdf:    b"PDF1\\n" + json{"pages": [[{"y","x","t"}...] ...]}
        Blocks are stored shuffled; extraction must sort into reading
        order (page, then y, then x) — the generalization of the
        reference's connected-component enumeration order
        (reference std-detection/craft_utils.py:34-77).
"""

from __future__ import annotations

import hashlib
import json

IMG_MAGIC = b"OCR1\n"
PDF_MAGIC = b"PDF1\n"


def _xor_key(media_ref: str, n: int) -> bytes:
    """Repeating key derived from the media_ref."""
    seed = hashlib.md5(media_ref.encode("utf-8")).digest()
    reps = n // len(seed) + 1
    return (seed * reps)[:n]


def encode_image_payload(media_ref: str, text: str) -> bytes:
    raw = text.encode("utf-8")
    key = _xor_key(media_ref, len(raw))
    return IMG_MAGIC + bytes(a ^ b for a, b in zip(raw, key))


def decode_image_payload(media_ref: str, payload: bytes | memoryview) -> str:
    """Synthetic OCR: invert :func:`encode_image_payload`. ``payload``
    is any bytes-like buffer.

    Raises ``ValueError`` on a corrupt payload — callers keep the span
    and record the error in-band (reference str-recognition/api.py:216-224).
    """
    payload = bytes(payload)
    if not payload.startswith(IMG_MAGIC):
        raise ValueError("bad image payload magic")
    body = payload[len(IMG_MAGIC):]
    key = _xor_key(media_ref, len(body))
    raw = bytes(a ^ b for a, b in zip(body, key))
    return raw.decode("utf-8")


def encode_pdf_payload(pages: list[list[dict]]) -> bytes:
    """``pages`` = list of pages, each a list of ``{"y","x","t"}`` blocks
    (stored order may be arbitrary)."""
    return PDF_MAGIC + json.dumps(pages, separators=(",", ":")).encode("utf-8")


def decode_pdf_payload(payload: bytes | memoryview) -> str:
    """Synthetic layout parse: page render -> block ordering -> text.
    ``payload`` is any bytes-like buffer.

    Reading order is (page, y, x) — top-to-bottom, left-to-right.
    """
    payload = bytes(payload)
    if not payload.startswith(PDF_MAGIC):
        raise ValueError("bad pdf payload magic")
    pages = json.loads(payload[len(PDF_MAGIC):].decode("utf-8"))
    out: list[str] = []
    for page in pages:
        for block in sorted(page, key=lambda b: (b["y"], b["x"])):
            out.append(block["t"])
    return " ".join(out)
