"""PNG codec tests: stdlib-zlib encoder/decoder round trips, all five
unfilter paths, color-type expansion, and the decode-stage wire-up."""

import struct
import zlib

import numpy as np
import pytest

from ocr_pipeline_ray.functions.png import (
    PNG_MAGIC,
    _chunk,
    encode_png,
    parse_png,
)


def _rand_rgb(h, w, seed=0):
    return np.random.default_rng(seed).integers(0, 256, (h, w, 3), dtype=np.uint8)


@pytest.mark.parametrize("filter_type", [0, 1, 2])
def test_rgb_roundtrip_encoder_filters(filter_type):
    arr = _rand_rgb(13, 31, seed=filter_type)
    assert np.array_equal(parse_png(encode_png(arr, filter_type=filter_type)), arr)


def test_gray_roundtrip_broadcasts_to_rgb():
    g = np.random.default_rng(7).integers(0, 256, (9, 17), dtype=np.uint8)
    out = parse_png(encode_png(g, filter_type=1))
    assert out.shape == (9, 17, 3)
    assert np.array_equal(out[:, :, 0], g)
    assert np.array_equal(out[:, :, 1], g)


def _raw_png(arr, scanline_filters, *, color_type=2, extra_chunks=()):
    """Hand-build a PNG with per-scanline filter bytes (reference
    filtering done with plain ints, independent of the codec under
    test)."""
    h, w = arr.shape[:2]
    bpp = arr.shape[2] if arr.ndim == 3 else 1
    px = arr.reshape(h, w * bpp).astype(np.int16)
    lines = bytearray()
    for y in range(h):
        f = scanline_filters[y]
        lines.append(f)
        for x in range(w * bpp):
            a = int(px[y, x - bpp]) if x >= bpp else 0
            b = int(px[y - 1, x]) if y > 0 else 0
            c = int(px[y - 1, x - bpp]) if (x >= bpp and y > 0) else 0
            if f == 0:
                v = px[y, x]
            elif f == 1:
                v = px[y, x] - a
            elif f == 2:
                v = px[y, x] - b
            elif f == 3:
                v = px[y, x] - (a + b) // 2
            else:
                p = a + b - c
                pa_, pb_, pc_ = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa_ <= pb_ and pa_ <= pc_) else (b if pb_ <= pc_ else c)
                v = px[y, x] - pred
            lines.append(int(v) % 256)
    ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0)
    body = PNG_MAGIC + _chunk(b"IHDR", ihdr)
    for tag, payload in extra_chunks:
        body += _chunk(tag, payload)
    return body + _chunk(b"IDAT", zlib.compress(bytes(lines))) + _chunk(b"IEND", b"")


def test_decode_average_and_paeth_filters():
    arr = _rand_rgb(6, 11, seed=42)
    # mix all five filter types across scanlines
    png = _raw_png(arr, [0, 1, 2, 3, 4, 3])
    assert np.array_equal(parse_png(png), arr)


def test_decode_palette():
    plte = bytes(range(30))  # 10 palette entries
    idx = np.random.default_rng(3).integers(0, 10, (5, 8, 1), dtype=np.uint8)
    png = _raw_png(idx, [0] * 5, color_type=3, extra_chunks=[(b"PLTE", plte)])
    expect = np.frombuffer(plte, np.uint8).reshape(-1, 3)[idx[:, :, 0]]
    assert np.array_equal(parse_png(png), expect)


def test_decode_rgba_drops_alpha():
    rgba = np.random.default_rng(5).integers(0, 256, (4, 6, 4), dtype=np.uint8)
    png = _raw_png(rgba, [4, 2, 1, 0], color_type=6)
    assert np.array_equal(parse_png(png), rgba[:, :, :3])


def test_decode_gray_alpha():
    ga = np.random.default_rng(9).integers(0, 256, (3, 5, 2), dtype=np.uint8)
    png = _raw_png(ga, [1, 3, 4], color_type=4)
    out = parse_png(png)
    assert np.array_equal(out[:, :, 0], ga[:, :, 0])
    assert np.array_equal(out[:, :, 2], ga[:, :, 0])


def test_rejects_non_png_and_bad_depth():
    with pytest.raises(ValueError):
        parse_png(b"JFIFnothing")
    ihdr = struct.pack(">IIBBBBB", 2, 2, 16, 2, 0, 0, 0)
    bad = PNG_MAGIC + _chunk(b"IHDR", ihdr) + _chunk(b"IEND", b"")
    with pytest.raises(ValueError):
        parse_png(bad)


def test_decode_actor_handles_png(ray_session):
    import pyarrow as pa
    import ray.data

    from ocr_pipeline_ray.stages.multimodal import decode_images

    arrs = [_rand_rgb(7, 7, seed=s) for s in range(4)]
    t = pa.table(
        {
            "media_ref": pa.array([str(i) for i in range(4)]),
            "modality": pa.array(["image"] * 4),
            "payload": pa.array([bytes(encode_png(a)) for a in arrs], pa.binary()),
            "width": pa.array([0] * 4, pa.int32()),
            "height": pa.array([0] * 4, pa.int32()),
            "duration_ms": pa.array([0] * 4, pa.int32()),
        }
    )
    out = decode_images(ray.data.from_arrow(t), target_size=None, concurrency=(1, 2)).to_pandas()
    assert list(out["error"]) == [""] * 4
    assert list(out["width"]) == [7] * 4 and list(out["height"]) == [7] * 4
    expect = [np.round(a.mean(axis=(0, 1)), 3) for a in arrs]
    got = {r: np.round(v, 3) for r, v in zip(out["media_ref"], out["channel_means"])}
    for i, e in enumerate(expect):
        assert np.allclose(got[str(i)], e, atol=0.01)
