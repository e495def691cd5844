"""A REAL (non-synthetic) media kernel behind the engine seam: PPM
raster decode + 5x7 glyph template matching, pure stdlib + numpy.

The container has no PIL/cv2/torch, so the production OCR models stay
stubbed — but the engine seam itself (reference T1/T5: warm model in
an actor, bytes in, text out — std-detection/api.py:40-60,
str-recognition/api.py:97-124) is proven here with real compute:

* ``render_text_ppm`` rasterizes text into a binary P6 PPM image with
  a fixed 5x7 bitmap font (the test-side "camera").
* ``decode_text_ppm`` parses the P6 header/pixels into a numpy
  raster, segments fixed-pitch glyph cells, and template-matches each
  cell against the font by Hamming distance (:func:`_match_cells`: one
  float32 matmul per raster) — an actual decode -> segment -> classify
  OCR pipeline, deterministic and dependency-free.
* ``PpmOcrEngine`` is a drop-in ``engine_factory`` for
  :class:`~ocr_pipeline_ray.stages.extract.MediaExtractActor` (the one
  engine loop of both the broadcast and the join topology): image
  payloads are single PPMs; pdf payloads are multi-block containers
  whose blocks carry (y, x) layout coordinates and must be re-sorted
  into reading order (same layout contract as the synthetic pdf
  payload).
"""

from __future__ import annotations

import re
import struct

import numpy as np

GLYPH_W, GLYPH_H, PITCH = 5, 7, 6  # 1px inter-glyph gap

_FONT_ROWS: dict[str, tuple[str, ...]] = {
    "A": (" ### ", "#   #", "#   #", "#####", "#   #", "#   #", "#   #"),
    "B": ("#### ", "#   #", "#   #", "#### ", "#   #", "#   #", "#### "),
    "C": (" ### ", "#   #", "#    ", "#    ", "#    ", "#   #", " ### "),
    "D": ("#### ", "#   #", "#   #", "#   #", "#   #", "#   #", "#### "),
    "E": ("#####", "#    ", "#    ", "#### ", "#    ", "#    ", "#####"),
    "F": ("#####", "#    ", "#    ", "#### ", "#    ", "#    ", "#    "),
    "G": (" ### ", "#   #", "#    ", "# ###", "#   #", "#   #", " ### "),
    "H": ("#   #", "#   #", "#   #", "#####", "#   #", "#   #", "#   #"),
    "I": (" ### ", "  #  ", "  #  ", "  #  ", "  #  ", "  #  ", " ### "),
    "J": ("  ###", "   # ", "   # ", "   # ", "   # ", "#  # ", " ##  "),
    "K": ("#   #", "#  # ", "# #  ", "##   ", "# #  ", "#  # ", "#   #"),
    "L": ("#    ", "#    ", "#    ", "#    ", "#    ", "#    ", "#####"),
    "M": ("#   #", "## ##", "# # #", "# # #", "#   #", "#   #", "#   #"),
    "N": ("#   #", "##  #", "# # #", "#  ##", "#   #", "#   #", "#   #"),
    "O": (" ### ", "#   #", "#   #", "#   #", "#   #", "#   #", " ### "),
    "P": ("#### ", "#   #", "#   #", "#### ", "#    ", "#    ", "#    "),
    "Q": (" ### ", "#   #", "#   #", "#   #", "# # #", "#  # ", " ## #"),
    "R": ("#### ", "#   #", "#   #", "#### ", "# #  ", "#  # ", "#   #"),
    "S": (" ####", "#    ", "#    ", " ### ", "    #", "    #", "#### "),
    "T": ("#####", "  #  ", "  #  ", "  #  ", "  #  ", "  #  ", "  #  "),
    "U": ("#   #", "#   #", "#   #", "#   #", "#   #", "#   #", " ### "),
    "V": ("#   #", "#   #", "#   #", "#   #", "#   #", " # # ", "  #  "),
    "W": ("#   #", "#   #", "#   #", "# # #", "# # #", "## ##", "#   #"),
    "X": ("#   #", "#   #", " # # ", "  #  ", " # # ", "#   #", "#   #"),
    "Y": ("#   #", "#   #", " # # ", "  #  ", "  #  ", "  #  ", "  #  "),
    "Z": ("#####", "    #", "   # ", "  #  ", " #   ", "#    ", "#####"),
    "0": (" ### ", "#   #", "#  ##", "# # #", "##  #", "#   #", " ### "),
    "1": ("  #  ", " ##  ", "  #  ", "  #  ", "  #  ", "  #  ", " ### "),
    "2": (" ### ", "#   #", "    #", "   # ", "  #  ", " #   ", "#####"),
    "3": (" ### ", "#   #", "    #", "  ## ", "    #", "#   #", " ### "),
    "4": ("   # ", "  ## ", " # # ", "#  # ", "#####", "   # ", "   # "),
    "5": ("#####", "#    ", "#### ", "    #", "    #", "#   #", " ### "),
    "6": (" ### ", "#    ", "#    ", "#### ", "#   #", "#   #", " ### "),
    "7": ("#####", "    #", "   # ", "  #  ", " #   ", " #   ", " #   "),
    "8": (" ### ", "#   #", "#   #", " ### ", "#   #", "#   #", " ### "),
    "9": (" ### ", "#   #", "#   #", " ####", "    #", "    #", " ### "),
    "_": ("     ", "     ", "     ", "     ", "     ", "     ", "#####"),
    " ": ("     ", "     ", "     ", "     ", "     ", "     ", "     "),
}


def _font_tensor() -> tuple[str, np.ndarray]:
    chars = "".join(_FONT_ROWS.keys())
    t = np.zeros((len(chars), GLYPH_H, GLYPH_W), dtype=np.uint8)
    for i, c in enumerate(chars):
        for y, row in enumerate(_FONT_ROWS[c]):
            for x, px in enumerate(row):
                t[i, y, x] = 1 if px == "#" else 0
    return chars, t


_FONT_CHARS, _FONT = _font_tensor()

# Hamming distance of a 0/1 cell a to glyph b is |a| + |b| - 2 a.b,
# i.e. a.(1 - 2b) + |b|: one matmul against this (35 x n_glyphs) weight
# matrix plus the glyph norms. Every term is an integer of magnitude at
# most 35, so float32 computes it exactly.
_GLYPH_BITS = _FONT.reshape(len(_FONT_CHARS), -1).T.astype(np.float32)
_MATCH_WEIGHTS = 1.0 - 2.0 * _GLYPH_BITS
_GLYPH_NORMS = _GLYPH_BITS.sum(axis=0)
_CHAR_CODES = np.frombuffer(_FONT_CHARS.encode("ascii"), dtype=np.uint8)


def _normalize_ocr_text(text: str) -> str:
    """The raster alphabet is A-Z 0-9 _ and space; lowercase maps up,
    anything else maps to '_' (one glyph per char keeps pitch fixed)."""
    out = []
    for ch in text.upper():
        out.append(ch if ch in _FONT_ROWS else "_")
    return "".join(out)


def render_text_ppm(text: str) -> bytes:
    """Rasterize ``text`` to a binary (P6) PPM: white glyphs on black,
    one ``PITCH``-wide cell per character."""
    text = _normalize_ocr_text(text)
    w = max(1, PITCH * len(text))
    img = np.zeros((GLYPH_H, w), dtype=np.uint8)
    for i, ch in enumerate(text):
        img[:, i * PITCH : i * PITCH + GLYPH_W] = _FONT[_FONT_CHARS.index(ch)]
    rgb = np.repeat((img * 255)[:, :, None], 3, axis=2)
    header = f"P6\n{w} {GLYPH_H}\n255\n".encode("ascii")
    return header + rgb.tobytes()


# the header render_text_ppm writes: magic, width, height and maxval as
# plain decimals separated by whitespace, then one whitespace byte
_PPM_HEADER = re.compile(rb"P6\s+(\d+)\s+(\d+)\s+(\d+)\s")


def _scan_ppm_header(payload: bytes) -> tuple[int, int, int, int]:
    """General P6 header scan (whitespace and ``#`` comment tolerant):
    ``(width, height, maxval, raster offset)``."""
    if not payload.startswith(b"P6"):
        raise ValueError("not a P6 PPM")
    # header = magic, width, height, maxval — each token separated by
    # whitespace, '#' comments run to end of line
    tokens: list[bytes] = []
    i = 2
    while len(tokens) < 3:
        while i < len(payload) and payload[i : i + 1].isspace():
            i += 1
        if payload[i : i + 1] == b"#":
            while i < len(payload) and payload[i : i + 1] != b"\n":
                i += 1
            continue
        j = i
        while j < len(payload) and not payload[j : j + 1].isspace():
            j += 1
        if j == i:
            raise ValueError("truncated PPM header")
        tokens.append(payload[i:j])
        i = j
    i += 1  # single whitespace after maxval
    try:
        w, h, maxval = (int(t) for t in tokens)
    except ValueError:
        raise ValueError(f"PPM header fields {tokens!r} are not integers") from None
    return w, h, maxval, i


def parse_ppm(payload: bytes | memoryview) -> np.ndarray:
    """Parse a binary P6 PPM into an (h, w, 3) uint8 array (a view of
    ``payload``, no copy).

    A header of plain decimal fields takes one regex match; any other
    header (comments, signs, garbage) goes through the general scanner.
    Either way a negative size, a maxval outside 1..255 or a raster
    shorter than ``w*h*3`` bytes raises ``ValueError``."""
    m = _PPM_HEADER.match(payload)
    if m:
        w, h, maxval, offset = int(m[1]), int(m[2]), int(m[3]), m.end()
    else:
        w, h, maxval, offset = _scan_ppm_header(bytes(payload))
    if w < 0 or h < 0:
        raise ValueError(f"negative PPM size {w}x{h}")
    if not 1 <= maxval <= 255:
        raise ValueError(f"PPM maxval {maxval} outside 1..255 (16-bit PPM not supported)")
    n = w * h * 3
    if len(payload) - offset < n:
        raise ValueError(f"PPM raster truncated: {max(0, len(payload) - offset)} of {n} bytes")
    raster = np.frombuffer(payload, dtype=np.uint8, count=n, offset=offset)
    return raster.reshape(h, w, 3)


def _glyph_cells(payload: bytes | memoryview) -> tuple[np.ndarray, np.ndarray]:
    """Parse a text raster, binarize its red channel and segment it into
    fixed-pitch glyph cells: ``(bits (h, w) bool, cells (n_cells, 35))``."""
    bits = parse_ppm(payload)[:, :, 0] > 127
    h, w = bits.shape
    if h != GLYPH_H:
        raise ValueError(f"unsupported raster height {h}")
    n_cells = w // PITCH
    usable = bits[:, : n_cells * PITCH].reshape(GLYPH_H, n_cells, PITCH)
    cells = usable[:, :, :GLYPH_W].transpose(1, 0, 2).reshape(n_cells, GLYPH_H * GLYPH_W)
    return bits, cells


def _match_cells(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Classify (n_cells, 35) 0/1 cells by minimum Hamming distance to
    the font: ``(best glyph index per cell, (n_cells, n_glyphs) distance
    matrix)``. A tie goes to the glyph that comes first in font order
    (``argmin``)."""
    dist = cells.astype(np.float32) @ _MATCH_WEIGHTS
    dist += _GLYPH_NORMS
    return dist.argmin(axis=1), dist


def decode_text_ppm(payload: bytes | memoryview) -> str:
    """OCR a rendered PPM: binarize, segment fixed-pitch cells, and
    classify each cell by minimum Hamming distance to the font — one
    matmul for all cells against all glyphs (:func:`_match_cells`)."""
    best, _ = _match_cells(_glyph_cells(payload)[1])
    return _CHAR_CODES[best].tobytes().decode("ascii").rstrip()


# ---------------------------------------------------------------------------
# detection boxes + polygon refinement (reference T1-T3)
# ---------------------------------------------------------------------------


def _refine_polygon(mask: np.ndarray, x_off: int) -> list[list[int]] | None:
    """T3 analog of CRAFT's ``getPoly_core``
    (std-detection/craft_utils.py:81-225): trace a 14-point polygon
    from the region's binary mask by splitting the box into 7 x
    segments and taking the top/bottom foreground contour of each —
    7 top points left->right then 7 bottom points right->left, the
    same vertex convention as the reference. Returns ``None`` (caller
    keeps the rectangle) when the box is too narrow or a segment has
    no foreground — the reference's small-box / low-confidence
    fallbacks (craft_utils.py:87-89,118-120)."""
    h, w = mask.shape
    if w < 2 * PITCH:  # polygon not beneficial for small boxes
        return None
    edges = np.linspace(0, w, 8).astype(int)
    top: list[list[int]] = []
    bot: list[list[int]] = []
    for s in range(7):
        seg = mask[:, edges[s] : edges[s + 1]]
        rows = np.nonzero(seg.any(axis=1))[0]
        if rows.size == 0:  # blank segment -> no reliable contour
            return None
        xc = x_off + int(edges[s] + edges[s + 1] - 1) // 2
        top.append([xc, int(rows[0])])
        bot.append([xc, int(rows[-1])])
    return top + bot[::-1]


def detect_boxes_ppm(
    payload: bytes,
    poly: bool = False,
    link_refine: bool = False,
    link_gap_cells: int = 1,
) -> list[dict]:
    """T1-T2(+T3,+T4) analog: word-level detection over the raster.

    Binarize, segment fixed-pitch glyph cells, group contiguous
    occupied cells into word regions (the detector), classify each
    cell by template match (the recognizer), and — when ``poly=True``,
    off by default exactly like the reference (``poly=False``
    std-detection/test.py:53, api.py:87) — refine each rectangle to a
    14-point polygon via :func:`_refine_polygon`.

    ``link_refine=True`` is the T4 LinkRefiner analog (reference
    std-detection/refinenet.py:14-64, wiring test.py:140-153 — shipped
    commented out there, off by default here): the refiner strengthens
    inter-word links so whole TEXT LINES group as one region. Here the
    link score between adjacent word regions is their cell gap — gaps
    of at most ``link_gap_cells`` (a single inter-word space) link
    into one line-level region whose text preserves the gap spaces;
    wider gaps (column breaks) stay separate. Like the reference,
    enabling the refiner forces ``poly=True`` (test.py:153
    ``args.poly = True``).

    Returns one dict per (word or linked line) region:
    ``{text, x0, y0, x1, y1, confidence, polygon}`` with pixel
    coordinates snapped to the cell grid (x1/y1 exclusive, i.e. the
    box spans columns ``x0..x1-1``) and confidence = matched-pixel
    fraction of the winning templates over the region's glyph cells.
    """
    if link_refine:
        poly = True  # the reference forces poly under the refiner
    bits, cells = _glyph_cells(payload)
    n_cells = len(cells)
    lit = cells.any(axis=1)
    best, dist = _match_cells(cells)
    best_d = dist[np.arange(n_cells), best]
    chars = _CHAR_CODES[best].tobytes().decode("ascii")
    # word runs of contiguous lit cells
    runs: list[tuple[int, int]] = []
    c = 0
    while c < n_cells:
        if not lit[c]:
            c += 1
            continue
        c0 = c
        while c < n_cells and lit[c]:
            c += 1
        runs.append((c0, c))
    # T4 linking: merge runs whose gap is within the link threshold
    groups: list[list[tuple[int, int]]] = []
    for run in runs:
        if link_refine and groups and run[0] - groups[-1][-1][1] <= link_gap_cells:
            groups[-1].append(run)
        else:
            groups.append([run])
    regions: list[dict] = []
    for grp in groups:
        text = ""
        tot_d = 0
        tot_px = 0
        for i, (c0, c1) in enumerate(grp):
            if i:
                text += " " * (c0 - grp[i - 1][1])
            text += chars[c0:c1]
            tot_d += int(best_d[c0:c1].sum())
            tot_px += GLYPH_W * GLYPH_H * (c1 - c0)
        x0 = PITCH * grp[0][0]
        x1 = PITCH * (grp[-1][1] - 1) + GLYPH_W
        conf = 1.0 - tot_d / tot_px
        regions.append(
            {
                "text": text,
                "x0": x0,
                "y0": 0,
                "x1": x1,
                "y1": GLYPH_H,
                "confidence": round(conf, 4),
                "polygon": _refine_polygon(bits[:, x0:x1], x0) if poly else None,
            }
        )
    return regions


# ---------------------------------------------------------------------------
# pdf-analog container: blocks with layout coords, reading-order decode
# ---------------------------------------------------------------------------

_PDF_MAGIC = b"PPMPDF1\n"


def encode_pdf_ppm(blocks: list[tuple[int, int, str]]) -> bytes:
    """Container of (y, x, text) layout blocks, each rasterized to a
    PPM; stored in the GIVEN order (callers may store out of reading
    order — the decoder must re-sort)."""
    out = [_PDF_MAGIC, struct.pack("<I", len(blocks))]
    for y, x, text in blocks:
        ppm = render_text_ppm(text)
        out.append(struct.pack("<iiI", y, x, len(ppm)))
        out.append(ppm)
    return b"".join(out)


def decode_pdf_ppm(payload: bytes | memoryview) -> str:
    """Decode each block's raster, then join texts in READING ORDER
    (sort by (y, x)) — the layout-parse contract (reference pdf page
    render -> block ordering -> OCR). ``payload`` is any bytes-like
    buffer; blocks decode in place (memoryview slices). A truncated
    container or a block running past the payload raises
    ``ValueError``."""
    view = memoryview(payload).cast("B")
    if view[: len(_PDF_MAGIC)] != _PDF_MAGIC:
        raise ValueError("not a PPMPDF container")
    i = len(_PDF_MAGIC)
    if len(view) < i + 4:
        raise ValueError(f"truncated PPMPDF container: {len(view)} bytes, no block count")
    (n,) = struct.unpack_from("<I", view, i)
    i += 4
    blocks = []
    for k in range(n):
        if len(view) < i + 12:
            raise ValueError(f"truncated PPMPDF container: block {k} of {n} has no header")
        y, x, ln = struct.unpack_from("<iiI", view, i)
        i += 12
        if i + ln > len(view):
            raise ValueError(
                f"PPMPDF block {k} runs past the payload "
                f"({ln} bytes at offset {i} of {len(view)})"
            )
        blocks.append((y, x, decode_text_ppm(view[i : i + ln])))
        i += ln
    blocks.sort(key=lambda b: (b[0], b[1]))
    return " ".join(b[2] for b in blocks if b[2])


class PpmOcrEngine:
    """Real-kernel ``engine_factory`` for MediaExtractActor — same
    interface as SyntheticEngine, but every span decodes an actual
    raster (parse -> binarize -> segment -> template-match), read in
    place from the payload buffer."""

    def extract(self, kind: str, media_ref: str, payload: bytes | memoryview) -> str:
        if kind == "image":
            return decode_text_ppm(payload)
        if kind == "pdf":
            return decode_pdf_ppm(payload)
        raise ValueError(f"unsupported media kind: {kind}")
