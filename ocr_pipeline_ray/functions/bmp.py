"""Pure-stdlib BMP (Windows DIB) codec: 24-bit uncompressed BI_RGB.

The third REAL wire format behind the decode seam (alongside
functions/png.py and functions/jpeg.py) — the reference decodes
arbitrary user uploads via cv2/skimage (std-detection/file_utils.py:
12-27); this container has no codec library, so the engine carries
its own. BMP is the simplest format real web data still ships:
little-endian headers, BGR pixel order, bottom-up rows, each row
padded to a 4-byte boundary.
"""

from __future__ import annotations

import struct

import numpy as np

BMP_MAGIC = b"BM"


def encode_bmp(arr: np.ndarray) -> bytes:
    """(h, w, 3) uint8 RGB -> 24-bit BI_RGB BMP bytes."""
    h, w, _ = arr.shape
    row_len = (w * 3 + 3) & ~3
    img = np.zeros((h, row_len), dtype=np.uint8)
    # bottom-up rows, BGR order
    img[:, : w * 3] = arr[::-1, :, ::-1].reshape(h, w * 3)
    pixel_data = img.tobytes()
    off = 14 + 40
    header = struct.pack("<2sIHHI", BMP_MAGIC, off + len(pixel_data), 0, 0, off)
    dib = struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0, len(pixel_data), 2835, 2835, 0, 0)
    return header + dib + pixel_data


def parse_bmp(payload: bytes | memoryview) -> np.ndarray:
    """24-bit BI_RGB BMP bytes -> (h, w, 3) uint8 RGB. Handles both
    bottom-up (positive height) and top-down (negative height) DIBs.
    ``payload`` is any byte buffer (``bytes`` or a ``"B"``-format
    ``memoryview``); it is read in place."""
    if payload[:2] != BMP_MAGIC:
        raise ValueError("not a BMP payload")
    off = struct.unpack_from("<I", payload, 10)[0]
    dib_size = struct.unpack_from("<I", payload, 14)[0]
    if dib_size < 40:
        raise ValueError(f"unsupported DIB header size {dib_size}")
    w, h_signed = struct.unpack_from("<ii", payload, 18)
    planes, bpp = struct.unpack_from("<HH", payload, 26)
    compression = struct.unpack_from("<I", payload, 30)[0]
    if planes != 1 or bpp != 24 or compression != 0:
        raise ValueError(f"unsupported BMP: planes={planes} bpp={bpp} compression={compression}")
    h = abs(h_signed)
    row_len = (w * 3 + 3) & ~3
    data = np.frombuffer(payload, dtype=np.uint8, count=h * row_len, offset=off)
    rows = data.reshape(h, row_len)[:, : w * 3].reshape(h, w, 3)
    if h_signed > 0:
        rows = rows[::-1]  # bottom-up storage
    return np.ascontiguousarray(rows[:, :, ::-1])  # BGR -> RGB
