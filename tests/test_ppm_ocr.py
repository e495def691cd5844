"""The real raster kernel: PPM parse + glyph template-match OCR."""

import pytest

from ocr_pipeline_ray.functions.ppm_ocr import (
    PpmOcrEngine,
    decode_pdf_ppm,
    decode_text_ppm,
    encode_pdf_ppm,
    parse_ppm,
    render_text_ppm,
)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("HELLO WORLD", "HELLO WORLD"),
        ("lowercase maps up", "LOWERCASE MAPS UP"),
        ("digits 0123456789", "DIGITS 0123456789"),
        ("punct,goes-to_underscore!", "PUNCT_GOES_TO_UNDERSCORE_"),
        ("", ""),
    ],
)
def test_roundtrip(text, expected):
    assert decode_text_ppm(render_text_ppm(text)) == expected


def test_parse_ppm_handles_comments_and_whitespace():
    img = parse_ppm(b"P6\n# a comment\n2 1\n255\n" + bytes([255, 0, 0, 0, 255, 0]))
    assert img.shape == (1, 2, 3)
    assert img[0, 0, 0] == 255 and img[0, 1, 1] == 255


def test_decode_is_noise_tolerant():
    """Template matching is nearest-glyph: flipping one pixel per
    glyph (for glyphs whose min inter-glyph Hamming distance is >=5)
    must not change the decode (real-OCR robustness property)."""
    text = "WALKS"  # every glyph has min distance >=5 in this font
    payload = bytearray(render_text_ppm(text))
    raster_off = payload.index(b"255\n") + 4
    w = 6 * len(text)
    for cell in range(len(text)):
        y, x = 3, cell * 6 + 2  # one in-glyph pixel per cell
        byte_idx = raster_off + (y * w + x) * 3
        for ch in range(3):  # flip the full RGB triple across binarize
            payload[byte_idx + ch] ^= 0xFF
    assert decode_text_ppm(bytes(payload)) == text


def test_pdf_container_reading_order():
    pdf = encode_pdf_ppm([(2, 0, "THIRD"), (0, 5, "SECOND"), (0, 0, "FIRST")])
    assert decode_pdf_ppm(pdf) == "FIRST SECOND THIRD"
    assert decode_pdf_ppm(encode_pdf_ppm([])) == ""


def test_engine_interface():
    eng = PpmOcrEngine()
    assert eng.extract("image", "mem://x/1", render_text_ppm("ABC")) == "ABC"
    assert eng.extract("pdf", "mem://x/2", encode_pdf_ppm([(0, 0, "P")])) == "P"
    with pytest.raises(ValueError):
        eng.extract("video", "mem://x/3", b"")
    with pytest.raises(ValueError):
        eng.extract("image", "mem://x/4", b"not a ppm")


# ---------------------------------------------------------------------------
# detection boxes + T3 polygon refinement
# ---------------------------------------------------------------------------


def test_detect_boxes_words_and_geometry():
    from ocr_pipeline_ray.functions.ppm_ocr import detect_boxes_ppm

    regs = detect_boxes_ppm(render_text_ppm("HELLO WORLD X"))
    assert [r["text"] for r in regs] == ["HELLO", "WORLD", "X"]
    # cell-grid geometry: word i starts at 6*sum(len+1) of prior words
    assert [(r["x0"], r["x1"]) for r in regs] == [(0, 29), (36, 65), (72, 77)]
    assert all(r["y0"] == 0 and r["y1"] == 7 for r in regs)
    # exact rendering -> perfect template match
    assert all(r["confidence"] == 1.0 for r in regs)
    # poly defaults off, like the reference (std-detection/test.py:53)
    assert all(r["polygon"] is None for r in regs)
    assert detect_boxes_ppm(render_text_ppm("")) == []


def test_detect_boxes_noise_confidence():
    from ocr_pipeline_ray.functions.ppm_ocr import detect_boxes_ppm

    payload = bytearray(render_text_ppm("WALKS"))
    header_len = len(b"P6\n30 7\n255\n")
    # flip one pixel (3 bytes RGB) of the first glyph
    for b in range(3):
        payload[header_len + b] = 255 - payload[header_len + b]
    (reg,) = detect_boxes_ppm(bytes(payload))
    assert reg["text"] == "WALKS"  # still nearest glyph
    assert 0.9 < reg["confidence"] < 1.0  # but no longer a perfect match


def test_polygon_golden_from_font():
    """The 14-point polygon must equal the contour computed directly
    from the font bitmaps (independent reimplementation)."""
    import numpy as np

    from ocr_pipeline_ray.functions.ppm_ocr import _FONT, _FONT_CHARS, detect_boxes_ppm

    word = "TAIL"
    (reg,) = detect_boxes_ppm(render_text_ppm(word), poly=True)
    # reassemble the word's mask from font bitmaps: 6px pitch, 5px glyphs
    w = 6 * (len(word) - 1) + 5
    mask = np.zeros((7, w), dtype=np.uint8)
    for i, ch in enumerate(word):
        mask[:, 6 * i : 6 * i + 5] = _FONT[_FONT_CHARS.index(ch)]
    edges = np.linspace(0, w, 8).astype(int)
    top, bot = [], []
    for s in range(7):
        rows = np.nonzero(mask[:, edges[s] : edges[s + 1]].any(axis=1))[0]
        xc = int(edges[s] + edges[s + 1] - 1) // 2
        top.append([xc, int(rows[0])])
        bot.append([xc, int(rows[-1])])
    assert reg["polygon"] == top + bot[::-1]
    assert len(reg["polygon"]) == 14


def test_polygon_small_box_fallback():
    from ocr_pipeline_ray.functions.ppm_ocr import detect_boxes_ppm

    # words narrower than 2 glyph pitches keep the rectangle (polygon
    # None), mirroring the reference's small-box fallback
    regs = detect_boxes_ppm(render_text_ppm("A BC DEF"), poly=True)
    assert [r["text"] for r in regs] == ["A", "BC", "DEF"]
    assert regs[0]["polygon"] is None and regs[1]["polygon"] is None
    assert regs[2]["polygon"] is not None


def test_link_refiner_links_single_space_words():
    """T4 LinkRefiner analog (reference refinenet.py:14-64, wiring
    test.py:140-153): single-space gaps link adjacent words into one
    line-level region; wider gaps (column breaks) stay separate; the
    refiner forces poly=True exactly like the reference test.py:153."""
    from ocr_pipeline_ray.functions.ppm_ocr import detect_boxes_ppm, render_text_ppm

    regs = detect_boxes_ppm(render_text_ppm("HELLO WORLD  NEXT"), link_refine=True)
    assert [r["text"] for r in regs] == ["HELLO WORLD", "NEXT"]
    # linked box spans both words
    words = detect_boxes_ppm(render_text_ppm("HELLO WORLD  NEXT"))
    assert regs[0]["x0"] == words[0]["x0"] and regs[0]["x1"] == words[1]["x1"]
    # poly forced on: the wide linked region gets a 14-point polygon
    assert regs[0]["polygon"] is not None and len(regs[0]["polygon"]) == 14
    # confidence counts only glyph cells (gap cells carry no glyph):
    # both words decode cleanly, so the linked region stays perfect
    assert regs[0]["confidence"] == 1.0


def test_link_refiner_off_is_unchanged():
    from ocr_pipeline_ray.functions.ppm_ocr import detect_boxes_ppm, render_text_ppm

    p = render_text_ppm("HELLO WORLD X")
    assert detect_boxes_ppm(p) == detect_boxes_ppm(p, link_refine=False)
    assert [r["text"] for r in detect_boxes_ppm(p)] == ["HELLO", "WORLD", "X"]


# ---------------------------------------------------------------------------
# malformed input: headers and containers fail with a named ValueError
# ---------------------------------------------------------------------------


def _no_scanner(payload):
    raise AssertionError("general header scanner called")


MALFORMED_PPM = [
    (b"P6\n-6 7 255\n" + bytes(126), True, "negative PPM size -6x7"),
    (b"P6\n6 -7 255\n" + bytes(126), True, "negative PPM size 6x-7"),
    (b"P6\n6 7 0\n" + bytes(126), False, "maxval 0 outside 1..255"),
    (b"P6\n# c\n6 7 0\n" + bytes(126), True, "maxval 0 outside 1..255"),
    (b"P6\n6 7 256\n" + bytes(252), False, "maxval 256 outside 1..255"),
    (b"P6\n6 7 255\n" + bytes(125), False, "raster truncated: 125 of 126 bytes"),
    (b"P6\n# c\n6 7 255\n" + bytes(10), True, "raster truncated: 10 of 126 bytes"),
    (b"P6\n6 7", True, "truncated PPM header"),
    (b"P6\n6 x 255\n", True, "are not integers"),
    (b"P5\n6 7 255\n" + bytes(42), True, "not a P6 PPM"),
]
MALFORMED_PPM_IDS = [
    "negative-width", "negative-height", "maxval-0", "maxval-0-commented", "maxval-256",
    "short-raster", "short-raster-commented", "cut-header", "non-integer", "not-p6",
]


@pytest.mark.parametrize("payload,via_scanner,match", MALFORMED_PPM, ids=MALFORMED_PPM_IDS)
def test_parse_ppm_rejects_invalid_headers(monkeypatch, payload, via_scanner, match):
    """Each problem raises a ValueError naming it, on the regex fast
    path (scanner patched out) and on the general scanner alike."""
    from ocr_pipeline_ray.functions import ppm_ocr

    if not via_scanner:
        monkeypatch.setattr(ppm_ocr, "_scan_ppm_header", _no_scanner)
    with pytest.raises(ValueError, match=match):
        parse_ppm(payload)


def test_canonical_header_skips_the_general_scanner(monkeypatch):
    from ocr_pipeline_ray.functions import ppm_ocr

    monkeypatch.setattr(ppm_ocr, "_scan_ppm_header", _no_scanner)
    assert decode_text_ppm(render_text_ppm("fast path 42")) == "FAST PATH 42"
    assert decode_pdf_ppm(encode_pdf_ppm([(1, 0, "B"), (0, 0, "A")])) == "A B"
    with pytest.raises(AssertionError, match="scanner called"):
        parse_ppm(b"P6\n# a comment\n2 1\n255\n" + bytes(6))


def _malformed_pdf_ppm() -> list[tuple[bytes, str]]:
    """Truncated and overrunning PPMPDF containers, each with the
    ``ValueError`` message it must raise."""
    import struct

    pdf = encode_pdf_ppm([(0, 0, "AB"), (1, 0, "CD")])
    # a length field past the end, with every raster byte still there
    first_len = struct.unpack_from("<I", pdf, 12 + 8)[0]
    second = 12 + 12 + first_len
    y, x, ln = struct.unpack_from("<iiI", pdf, second)
    longer = pdf[:second] + struct.pack("<iiI", y, x, ln + 100) + pdf[second + 12 :]
    return [
        (pdf[:10], "truncated PPMPDF container: 10 bytes, no block count"),
        (pdf[:17], "truncated PPMPDF container: block 0 of 2 has no header"),
        (pdf[:-1], "PPMPDF block 1 runs past the payload"),
        (longer, "PPMPDF block 1 runs past the payload"),
    ]


def test_decode_pdf_ppm_rejects_malformed_containers():
    for payload, match in _malformed_pdf_ppm():
        with pytest.raises(ValueError, match=match):
            decode_pdf_ppm(payload)


def test_engine_raises_the_same_error_for_a_view(as_payload):
    """The engine seam hands ``PpmOcrEngine`` read-only views of the
    Arrow payload buffer; malformed input raises the same named
    ``ValueError`` through a view as through ``bytes``."""
    cases = [("image", p, m) for p, _, m in MALFORMED_PPM]
    cases += [("pdf", p, m) for p, m in _malformed_pdf_ppm()]
    cases.append(("pdf", b"P6\n1 1 255\n\0\0\0", "not a PPMPDF container"))
    for kind, payload, match in cases:
        with pytest.raises(ValueError, match=match):
            PpmOcrEngine().extract(kind, "m", as_payload(payload))


# ---------------------------------------------------------------------------
# kernel equivalence: the vectorized matcher against a brute-force loop
# ---------------------------------------------------------------------------


def _reference_classify(cells):
    """Brute-force nearest glyph of each (7, 5) 0/1 cell: per-pixel
    Hamming distance to every glyph; the first glyph in font order
    wins a tie. Returns [(char, distance, n_tied_at_min)]."""
    from ocr_pipeline_ray.functions.ppm_ocr import _FONT, _FONT_CHARS

    out = []
    for cell in cells.tolist():
        dists = [
            sum(cell[y][x] != int(glyph[y][x]) for y in range(7) for x in range(5))
            for glyph in _FONT.tolist()
        ]
        best = min(range(len(dists)), key=lambda k: (dists[k], k))
        out.append((_FONT_CHARS[best], dists[best], dists.count(dists[best])))
    return out


def _raster_of(cells, rng, tail=0):
    """P6 payload whose red channel binarizes (> 127) to ``cells`` at
    the 6 px pitch; green/blue, the gap column and ``tail`` trailing
    columns (a partial cell) carry random bytes."""
    import numpy as np

    n = len(cells)
    img = rng.integers(0, 256, size=(7, 6 * n + tail, 3), dtype=np.uint8)
    for i, cell in enumerate(cells):
        on = rng.integers(128, 256, size=(7, 5))
        off = rng.integers(0, 128, size=(7, 5))
        img[:, 6 * i : 6 * i + 5, 0] = np.where(cell == 1, on, off)
    return f"P6\n{img.shape[1]} 7\n255\n".encode("ascii") + img.tobytes()


def _reference_boxes(ref):
    """Word regions of the reference classification: runs of lit cells
    with their text and matched-pixel confidence."""
    regions, c = [], 0
    while c < len(ref):
        if not ref[c][3]:
            c += 1
            continue
        c0 = c
        while c < len(ref) and ref[c][3]:
            c += 1
        run = ref[c0:c]
        conf = 1.0 - sum(r[1] for r in run) / (35 * len(run))
        regions.append(("".join(r[0] for r in run), round(conf, 4)))
    return regions


def _cell_sets():
    """Random binary cells, noisy renders of every glyph, and cells
    built halfway between two glyphs (a tie at equal distance)."""
    import numpy as np

    from ocr_pipeline_ray.functions.ppm_ocr import _FONT

    rng = np.random.default_rng(5)
    sets = []
    for p in (0.05, 0.3, 0.5, 0.8):
        sets.append((rng.random((40, 7, 5)) < p).astype(np.uint8))
    for flips in (1, 3, 6):
        noisy = _FONT.copy()
        for cell in noisy:
            idx = rng.choice(35, size=flips, replace=False)
            cell.reshape(-1)[idx] ^= 1
        sets.append(noisy[rng.permutation(len(noisy))])
    ties = []
    for _ in range(120):
        a, b = rng.choice(len(_FONT), size=2, replace=False)
        differ = np.flatnonzero(_FONT[a].reshape(-1) != _FONT[b].reshape(-1))
        differ = differ[: len(differ) // 2 * 2]
        cell = _FONT[a].reshape(-1).copy()
        take_b = rng.choice(differ, size=len(differ) // 2, replace=False)
        cell[take_b] = _FONT[b].reshape(-1)[take_b]
        ties.append(cell.reshape(7, 5))
    sets.append(np.stack(ties))
    return sets


def test_matcher_equals_brute_force_reference():
    import numpy as np

    from ocr_pipeline_ray.functions.ppm_ocr import detect_boxes_ppm

    rng = np.random.default_rng(11)
    tied = 0
    for tail, cells in enumerate(_cell_sets()):
        tail %= 6
        payload = _raster_of(cells, rng, tail=tail)
        ref = [(*r, bool(c.any())) for r, c in zip(_reference_classify(cells), cells)]
        tied += sum(r[2] > 1 for r in ref)
        assert decode_text_ppm(payload) == "".join(r[0] for r in ref).rstrip()
        got = [(r["text"], r["confidence"]) for r in detect_boxes_ppm(payload)]
        assert got == _reference_boxes(ref)
    # the tie set really exercises the first-index tie-break
    assert tied >= 50
    # a raster narrower than one cell decodes to nothing
    assert decode_text_ppm(_raster_of(np.zeros((0, 7, 5), np.uint8), rng, tail=5)) == ""
