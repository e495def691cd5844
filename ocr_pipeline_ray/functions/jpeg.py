"""Pure stdlib+numpy baseline JPEG (ITU-T T.81) codec — the second
real wire format behind the multimodal decode seam (the reference
decodes JPEG via cv2/skimage, std-detection/file_utils.py:12-27;
this container ships no codec library).

Encoder: JFIF baseline sequential DCT, 8-bit, 4:4:4 or 4:2:0, Annex-K
quantization tables scaled by the IJG quality curve, and per-image
OPTIMAL Huffman tables (two-pass, Annex K.2 tree build + K.3 16-bit
length limiting, libjpeg's reserved-symbol trick so no code is all
ones) — emitting the measured tables in DHT keeps the file fully
spec-compliant without hardcoding the 162-entry default AC tables.

Decoder: marker walk (DQT/SOF0/DHT/DRI/SOS), canonical Huffman decode
with byte-unstuffing and restart-marker resync, dezigzag, dequantize,
vectorized 8x8 IDCT (one einsum over all blocks), chroma upsample,
YCbCr->RGB. Handles any sampling factors h,v in {1,2} and separate
quant/huffman tables per component — i.e. ordinary camera/web
baseline JPEGs, not just this encoder's output.

Math shared by both directions: the orthonormal DCT-II matrix (so
IDCT is the exact transpose), verified in tests against the O(n^4)
textbook definition.
"""

from __future__ import annotations

import struct

import numpy as np

JPEG_MAGIC = b"\xff\xd8\xff"

# ---------------------------------------------------------------------------
# shared math
# ---------------------------------------------------------------------------


def _dct_matrix() -> np.ndarray:
    n = np.arange(8)
    c = np.cos(np.pi * (2 * n[None, :] + 1) * n[:, None] / 16.0)
    c[0] *= np.sqrt(0.5)
    return c * 0.5  # orthonormal: C @ C.T == I


_C = _dct_matrix()


def _zigzag_order() -> np.ndarray:
    """Flat indices of the 8x8 zigzag walk (T.81 Figure 5)."""
    out = []
    for s in range(15):
        cells = [(i, s - i) for i in range(max(0, s - 7), min(s, 7) + 1)]
        if s % 2 == 0:
            cells.reverse()  # even diagonals run bottom-left -> top-right
        out.extend(i * 8 + j for i, j in cells)
    return np.array(out, dtype=np.int64)


_ZIGZAG = _zigzag_order()
_UNZIGZAG = np.argsort(_ZIGZAG)

# Annex K.1 example quantization tables (the de-facto standard ones)
_QT_LUMA = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=np.int64,
)
_QT_CHROMA = np.array(
    [
        [17, 18, 24, 47, 99, 99, 99, 99],
        [18, 21, 26, 66, 99, 99, 99, 99],
        [24, 26, 56, 99, 99, 99, 99, 99],
        [47, 66, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
    ],
    dtype=np.int64,
)


def _scaled_qt(base: np.ndarray, quality: int) -> np.ndarray:
    quality = min(100, max(1, int(quality)))
    scale = 5000 // quality if quality < 50 else 200 - 2 * quality
    return np.clip((base * scale + 50) // 100, 1, 255).astype(np.int64)


def _rgb_to_ycbcr(rgb: np.ndarray) -> np.ndarray:
    r, g, b = (rgb[..., i].astype(np.float64) for i in range(3))
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = -0.168736 * r - 0.331264 * g + 0.5 * b + 128.0
    cr = 0.5 * r - 0.418688 * g - 0.081312 * b + 128.0
    return np.stack([y, cb, cr], axis=-1)


def _ycbcr_to_rgb(ycc: np.ndarray) -> np.ndarray:
    y, cb, cr = (ycc[..., i] for i in range(3))
    r = y + 1.402 * (cr - 128.0)
    g = y - 0.344136 * (cb - 128.0) - 0.714136 * (cr - 128.0)
    b = y + 1.772 * (cb - 128.0)
    return np.clip(np.round(np.stack([r, g, b], axis=-1)), 0, 255).astype(np.uint8)


def _blockify(plane: np.ndarray) -> np.ndarray:
    """(H, W) with H,W % 8 == 0 -> (n_blocks, 8, 8), raster block order."""
    h, w = plane.shape
    return plane.reshape(h // 8, 8, w // 8, 8).transpose(0, 2, 1, 3).reshape(-1, 8, 8)


def _unblockify(blocks: np.ndarray, h: int, w: int) -> np.ndarray:
    return blocks.reshape(h // 8, w // 8, 8, 8).transpose(0, 2, 1, 3).reshape(h, w)


def _fdct_quant(plane: np.ndarray, qt: np.ndarray) -> np.ndarray:
    """Forward DCT + quantize for every 8x8 block at once ->
    (n_blocks, 64) int coefficients in zigzag order."""
    blocks = _blockify(plane.astype(np.float64) - 128.0)
    coef = np.einsum("ij,njk,lk->nil", _C, blocks, _C)
    q = np.round(coef / qt[None, :, :]).astype(np.int64)
    return q.reshape(-1, 64)[:, _ZIGZAG]


def _dequant_idct(zz: np.ndarray, qt: np.ndarray) -> np.ndarray:
    """(n_blocks, 64) zigzag ints -> (n_blocks, 8, 8) float pixels."""
    coef = (zz[:, _UNZIGZAG].reshape(-1, 8, 8) * qt[None, :, :]).astype(np.float64)
    return np.einsum("ji,njk,kl->nil", _C, coef, _C) + 128.0


def _magnitude(v: int) -> tuple[int, int]:
    """JPEG magnitude coding: value -> (size category, extra bits)."""
    if v == 0:
        return 0, 0
    size = int(abs(v)).bit_length()
    bits = v if v > 0 else v + (1 << size) - 1
    return size, bits


# ---------------------------------------------------------------------------
# Huffman (optimal per image, Annex K.2/K.3)
# ---------------------------------------------------------------------------


def _optimal_huffman(freq: dict[int, int]) -> tuple[list[int], list[int]]:
    """Code lengths for the observed symbols: returns (bits[1..16],
    huffval) per the DHT wire layout. Doubles real frequencies and
    adds a reserved symbol 256 with frequency 1 (strictly minimal, so
    it takes the deepest code) which is dropped at the end — the
    libjpeg guard that keeps the all-ones code unused."""
    f = {s: 2 * c for s, c in freq.items() if c > 0}
    f[256] = 1
    groups = [(c, [s]) for s, c in f.items()]
    depth = {s: 0 for s in f}
    while len(groups) > 1:
        groups.sort(key=lambda g: (g[0], -max(g[1])))
        (c1, s1), (c2, s2) = groups[0], groups[1]
        for s in s1 + s2:
            depth[s] += 1
        groups = [(c1 + c2, s1 + s2)] + groups[2:]
    if len(f) == 1:  # degenerate: only the reserved symbol
        depth[256] = 1
    maxd = max(depth.values())
    bits = [0] * (maxd + 1)
    for s, d in depth.items():
        bits[d] += 1
    # K.3: push codes longer than 16 bits up the tree
    for i in range(maxd, 16, -1):
        while bits[i] > 0:
            j = i - 2
            while bits[j] == 0:
                j -= 1
            bits[i] -= 2
            bits[i - 1] += 1
            bits[j + 1] += 2
            bits[j] -= 1
    bits = bits[:17] + [0] * max(0, 17 - len(bits))
    # drop the reserved symbol's code (it sorts deepest+last)
    for i in range(16, 0, -1):
        if bits[i] > 0:
            bits[i] -= 1
            break
    huffval = [s for s in sorted(f, key=lambda s: (depth[s], s)) if s != 256]
    huffval = huffval[: sum(bits[1:])]
    return bits[1:17], huffval


def _canonical_codes(bits: list[int], huffval: list[int]) -> dict[int, tuple[int, int]]:
    """DHT (bits, huffval) -> {symbol: (code, length)}."""
    out: dict[int, tuple[int, int]] = {}
    code = 0
    k = 0
    for length in range(1, 17):
        for _ in range(bits[length - 1]):
            out[huffval[k]] = (code, length)
            code += 1
            k += 1
        code <<= 1
    return out


class _BitWriter:
    def __init__(self):
        self.buf = bytearray()
        self.acc = 0
        self.n = 0

    def write(self, code: int, length: int):
        if length == 0:
            return
        self.acc = (self.acc << length) | (code & ((1 << length) - 1))
        self.n += length
        while self.n >= 8:
            self.n -= 8
            byte = (self.acc >> self.n) & 0xFF
            self.buf.append(byte)
            if byte == 0xFF:
                self.buf.append(0x00)  # byte stuffing

    def flush(self) -> bytes:
        if self.n:
            pad = 8 - self.n
            self.write((1 << pad) - 1, pad)  # pad with 1s
        return bytes(self.buf)


# ---------------------------------------------------------------------------
# encoder
# ---------------------------------------------------------------------------


def _component_symbols(zz: np.ndarray, dc_pred: int) -> tuple[list, list, int]:
    """One component's blocks -> (dc tokens, ac tokens, new dc pred).
    Tokens are (symbol, extra_bits, extra_len) triples."""
    dc_toks, ac_toks = [], []
    for blk in zz:
        diff = int(blk[0]) - dc_pred
        dc_pred = int(blk[0])
        size, extra = _magnitude(diff)
        dc_toks.append((size, extra, size))
        ac = blk[1:]
        nz = np.flatnonzero(ac)
        toks = []
        prev = -1
        for idx in nz:
            run = idx - prev - 1
            while run >= 16:
                toks.append((0xF0, 0, 0))  # ZRL
                run -= 16
            size, extra = _magnitude(int(ac[idx]))
            toks.append(((run << 4) | size, extra, size))
            prev = idx
        if len(nz) == 0 or nz[-1] != 62:
            toks.append((0x00, 0, 0))  # EOB
        ac_toks.append(toks)
    return dc_toks, ac_toks, dc_pred


def encode_jpeg(rgb: np.ndarray, quality: int = 85, subsampling: str = "4:4:4") -> bytes:
    """Encode (H, W, 3) RGB or (H, W) gray uint8 to baseline JFIF."""
    rgb = np.asarray(rgb, dtype=np.uint8)
    gray = rgb.ndim == 2
    if gray:
        rgb = np.stack([rgb] * 3, axis=-1)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError(f"unsupported array shape {rgb.shape}")
    h, w = rgb.shape[:2]
    if h == 0 or w == 0:
        raise ValueError("empty image")
    sub = {"4:4:4": (1, 1), "4:2:0": (2, 2)}[subsampling]
    ycc = _rgb_to_ycbcr(rgb)

    qt_l = _scaled_qt(_QT_LUMA, quality)
    qt_c = _scaled_qt(_QT_CHROMA, quality)

    def _pad(plane: np.ndarray, m: int) -> np.ndarray:
        ph = (-plane.shape[0]) % m
        pw = (-plane.shape[1]) % m
        return np.pad(plane, ((0, ph), (0, pw)), mode="edge")

    hs, vs = sub
    y_plane = _pad(ycc[..., 0], 8 * hs)
    if sub == (1, 1):
        cb = _pad(ycc[..., 1], 8)
        cr = _pad(ycc[..., 2], 8)
    else:
        # 2x2 box-mean chroma downsample
        p1 = _pad(ycc[..., 1], 2)
        p2 = _pad(ycc[..., 2], 2)
        cb = _pad(p1.reshape(p1.shape[0] // 2, 2, p1.shape[1] // 2, 2).mean(axis=(1, 3)), 8)
        cr = _pad(p2.reshape(p2.shape[0] // 2, 2, p2.shape[1] // 2, 2).mean(axis=(1, 3)), 8)

    zz_y = _fdct_quant(y_plane, qt_l)
    zz_cb = _fdct_quant(cb, qt_c)
    zz_cr = _fdct_quant(cr, qt_c)

    # MCU-ordered block sequence per component
    yw = y_plane.shape[1] // 8
    mcus_x = y_plane.shape[1] // (8 * hs)
    mcus_y = y_plane.shape[0] // (8 * vs)

    def _y_block_order() -> list[int]:
        order = []
        for my in range(mcus_y):
            for mx in range(mcus_x):
                for dy in range(vs):
                    for dx in range(hs):
                        order.append((my * vs + dy) * yw + (mx * hs + dx))
        return order

    zz_y = zz_y[_y_block_order()]

    comps = [(zz_y, 0, 0), (zz_cb, 1, 1), (zz_cr, 1, 1)]  # (blocks, qt id, huff id)
    dc_tokens: list[list] = [[], []]
    ac_tokens: list[list] = [[], []]
    per_comp: list[tuple[list, list]] = []
    for zz, _, hid in comps:
        dct, act, _ = _component_symbols(zz, 0)
        per_comp.append((dct, act))
        dc_tokens[hid].extend(dct)
        ac_tokens[hid].extend(t for blk in act for t in blk)

    def _freq(tokens) -> dict[int, int]:
        f: dict[int, int] = {}
        for sym, _, _ in tokens:
            f[sym] = f.get(sym, 0) + 1
        return f

    dc_tables = [_optimal_huffman(_freq(dc_tokens[i])) for i in range(2)]
    ac_tables = [_optimal_huffman(_freq(ac_tokens[i])) for i in range(2)]
    dc_codes = [_canonical_codes(*t) for t in dc_tables]
    ac_codes = [_canonical_codes(*t) for t in ac_tables]

    # entropy-coded segment: interleaved MCUs
    bw = _BitWriter()
    n_mcus = mcus_x * mcus_y
    blocks_per_mcu = [hs * vs, 1, 1]
    cursors = [0, 0, 0]
    for _ in range(n_mcus):
        for ci, (_, _, hid) in enumerate(comps):
            dct, act = per_comp[ci]
            for _ in range(blocks_per_mcu[ci]):
                k = cursors[ci]
                cursors[ci] += 1
                sym, extra, elen = dct[k]
                code, length = dc_codes[hid][sym]
                bw.write(code, length)
                bw.write(extra, elen)
                for sym, extra, elen in act[k]:
                    code, length = ac_codes[hid][sym]
                    bw.write(code, length)
                    bw.write(extra, elen)
    ecs = bw.flush()

    def seg(marker: int, body: bytes) -> bytes:
        return struct.pack(">HH", marker, len(body) + 2) + body

    out = bytearray(b"\xff\xd8")  # SOI
    out += seg(0xFFE0, b"JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00")
    for tid, qt in ((0, qt_l), (1, qt_c)):
        out += seg(0xFFDB, bytes([tid]) + bytes(qt.reshape(-1)[_ZIGZAG].tolist()))
    sof = struct.pack(">BHHB", 8, h, w, 3)
    for cid, (hsamp, vsamp, tq) in enumerate([(hs, vs, 0), (1, 1, 1), (1, 1, 1)], start=1):
        sof += bytes([cid, (hsamp << 4) | vsamp, tq])
    out += seg(0xFFC0, sof)
    for cls, tables in ((0, dc_tables), (1, ac_tables)):
        for tid, (bits, huffval) in enumerate(tables):
            out += seg(0xFFC4, bytes([(cls << 4) | tid]) + bytes(bits) + bytes(huffval))
    sos = bytes([3])
    for cid, hid in ((1, 0), (2, 1), (3, 1)):
        sos += bytes([cid, (hid << 4) | hid])
    sos += bytes([0, 63, 0])  # Ss, Se, Ah/Al
    out += seg(0xFFDA, sos)
    out += ecs
    out += b"\xff\xd9"  # EOI
    return bytes(out)


# ---------------------------------------------------------------------------
# decoder
# ---------------------------------------------------------------------------


class _BitReader:
    """ECS bit reader: un-stuffs 0xFF00, stops at markers (caller
    resyncs on RSTn)."""

    def __init__(self, data: bytes, pos: int):
        self.data = data
        self.pos = pos
        self.acc = 0
        self.n = 0

    def _fill(self):
        d = self.data
        if self.pos >= len(d):
            raise EOFError("truncated entropy stream")
        b = d[self.pos]
        if b == 0xFF:
            nxt = d[self.pos + 1] if self.pos + 1 < len(d) else 0xD9
            if nxt == 0x00:
                self.pos += 2
            else:
                raise _MarkerHit(0xFF00 | nxt, self.pos)
        else:
            self.pos += 1
        self.acc = (self.acc << 8) | b
        self.n += 8

    def bit(self) -> int:
        if self.n == 0:
            self._fill()
        self.n -= 1
        return (self.acc >> self.n) & 1

    def bits(self, k: int) -> int:
        v = 0
        for _ in range(k):
            v = (v << 1) | self.bit()
        return v

    def align(self):
        self.acc = 0
        self.n = 0


class _MarkerHit(Exception):
    def __init__(self, marker: int, pos: int):
        self.marker = marker
        self.pos = pos


def _decode_symbol(br: _BitReader, table: dict[tuple[int, int], int]) -> int:
    code = 0
    for length in range(1, 17):
        code = (code << 1) | br.bit()
        sym = table.get((length, code))
        if sym is not None:
            return sym
    raise ValueError("invalid Huffman code")


def _extend(v: int, size: int) -> int:
    if size == 0:
        return 0
    return v if v >= (1 << (size - 1)) else v - (1 << size) + 1


def decode_jpeg(data: bytes | memoryview) -> np.ndarray:
    """Decode a baseline sequential JPEG to (H, W, 3) RGB uint8.
    ``data`` is any bytes-like buffer; the marker walk needs ``bytes``,
    so a view is copied here."""
    data = bytes(data)
    if not data.startswith(b"\xff\xd8"):
        raise ValueError("not a JPEG (no SOI)")
    qts: dict[int, np.ndarray] = {}
    huff: dict[tuple[int, int], dict[tuple[int, int], int]] = {}
    frame = None
    restart_interval = 0
    pos = 2
    while pos < len(data):
        if data[pos] != 0xFF:
            pos += 1
            continue
        # T.81 B.1.1.2: a marker may be preceded by any number of 0xFF
        # fill bytes — consume them so the real marker byte is read
        while pos + 1 < len(data) and data[pos + 1] == 0xFF:
            pos += 1
        marker = data[pos + 1]
        pos += 2
        if marker in (0xD8, 0x01) or 0xD0 <= marker <= 0xD7:
            continue
        if marker == 0xD9:
            break
        (length,) = struct.unpack(">H", data[pos : pos + 2])
        body = data[pos + 2 : pos + length]
        if marker == 0xDB:  # DQT (possibly several tables)
            i = 0
            while i < len(body):
                pq, tq = body[i] >> 4, body[i] & 0xF
                if pq != 0:
                    raise ValueError("16-bit quant tables unsupported (progressive/12-bit)")
                tbl = np.zeros(64, dtype=np.int64)
                tbl[_ZIGZAG] = np.frombuffer(body[i + 1 : i + 65], dtype=np.uint8)
                qts[tq] = tbl.reshape(8, 8)
                i += 65
        elif marker == 0xC4:  # DHT (possibly several tables)
            i = 0
            while i < len(body):
                tc, th = body[i] >> 4, body[i] & 0xF
                bits = list(body[i + 1 : i + 17])
                nsym = sum(bits)
                huffval = list(body[i + 17 : i + 17 + nsym])
                codes = _canonical_codes(bits, huffval)
                huff[(tc, th)] = {(ln, code): sym for sym, (code, ln) in codes.items()}
                i += 17 + nsym
        elif marker in (0xC0, 0xC1):  # SOF0/1 (baseline + extended sequential)
            precision, h, w, nc = struct.unpack(">BHHB", body[:6])
            if precision != 8:
                raise ValueError("only 8-bit precision supported")
            comps = []
            for ci in range(nc):
                cid, hv, tq = body[6 + 3 * ci : 9 + 3 * ci]
                comps.append({"id": cid, "h": hv >> 4, "v": hv & 0xF, "tq": tq})
            frame = {"h": h, "w": w, "comps": comps}
        elif marker in (0xC2, 0xC3, 0xC5, 0xC6, 0xC7, 0xC9, 0xCA, 0xCB, 0xCD, 0xCE, 0xCF):
            raise ValueError(f"unsupported SOF marker 0xFF{marker:02X} (not baseline)")
        elif marker == 0xDD:  # DRI
            (restart_interval,) = struct.unpack(">H", body[:2])
        elif marker == 0xDA:  # SOS
            if frame is None:
                raise ValueError("SOS before SOF")
            ns = body[0]
            sel = {}
            for i in range(ns):
                cs, tdta = body[1 + 2 * i], body[2 + 2 * i]
                sel[cs] = (tdta >> 4, tdta & 0xF)
            return _decode_scan(data, pos + length, frame, sel, qts, huff, restart_interval)
        pos += length
    raise ValueError("no SOS marker found")


def _decode_scan(data, pos, frame, sel, qts, huff, restart_interval):
    comps = frame["comps"]
    h, w = frame["h"], frame["w"]
    hmax = max(c["h"] for c in comps)
    vmax = max(c["v"] for c in comps)
    mcus_x = -(-w // (8 * hmax))
    mcus_y = -(-h // (8 * vmax))
    planes = []
    coefs = []
    for c in comps:
        ph = mcus_y * c["v"] * 8
        pw = mcus_x * c["h"] * 8
        planes.append((ph, pw))
        coefs.append(np.zeros((ph // 8 * (pw // 8), 64), dtype=np.int64))

    br = _BitReader(data, pos)
    preds = [0] * len(comps)
    mcu = 0
    n_mcus = mcus_x * mcus_y
    while mcu < n_mcus:
        try:
            my, mx = divmod(mcu, mcus_x)
            for ci, c in enumerate(comps):
                td, ta = sel[c["id"]]
                dc_tbl = huff[(0, td)]
                ac_tbl = huff[(1, ta)]
                bw = planes[ci][1] // 8
                for dy in range(c["v"]):
                    for dx in range(c["h"]):
                        size = _decode_symbol(br, dc_tbl)
                        diff = _extend(br.bits(size), size)
                        preds[ci] += diff
                        blk = np.zeros(64, dtype=np.int64)
                        blk[0] = preds[ci]
                        k = 1
                        while k < 64:
                            rs = _decode_symbol(br, ac_tbl)
                            if rs == 0x00:  # EOB
                                break
                            if rs == 0xF0:  # ZRL
                                k += 16
                                continue
                            k += rs >> 4
                            size = rs & 0xF
                            if k > 63:
                                raise ValueError("AC index out of range")
                            blk[k] = _extend(br.bits(size), size)
                            k += 1
                        bi = (my * c["v"] + dy) * bw + (mx * c["h"] + dx)
                        coefs[ci][bi] = blk
            mcu += 1
            if restart_interval and mcu % restart_interval == 0 and mcu < n_mcus:
                br.align()
                # expect RSTn next in the byte stream
                p = br.pos
                if data[p] == 0xFF and 0xD0 <= data[p + 1] <= 0xD7:
                    br.pos = p + 2
                preds = [0] * len(comps)
        except _MarkerHit as mh:
            if 0xFFD0 <= mh.marker <= 0xFFD7:  # RST mid-stream
                br = _BitReader(data, mh.pos + 2)
                preds = [0] * len(comps)
                continue
            raise ValueError(f"unexpected marker 0x{mh.marker:04X} in scan") from mh

    out_planes = []
    for ci, c in enumerate(comps):
        ph, pw = planes[ci]
        px = _dequant_idct(coefs[ci], qts[c["tq"]])
        plane = _unblockify(px, ph, pw)
        # upsample to full MCU-grid resolution by pixel replication
        ry, rx = vmax // c["v"], hmax // c["h"]
        if ry > 1 or rx > 1:
            plane = np.repeat(np.repeat(plane, ry, axis=0), rx, axis=1)
        out_planes.append(plane[: mcus_y * vmax * 8, : mcus_x * hmax * 8])
    if len(out_planes) == 1:  # grayscale: the lone plane IS luma
        y = np.clip(np.round(out_planes[0]), 0, 255).astype(np.uint8)
        return np.stack([y, y, y], axis=-1)[:h, :w]
    ycc = np.stack(out_planes[:3], axis=-1)
    rgb = _ycbcr_to_rgb(np.clip(ycc, 0.0, 255.0))
    return rgb[:h, :w]
