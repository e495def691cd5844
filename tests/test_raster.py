"""Real numpy raster kernels: resize / normalize / tensorize /
channel fixups."""

import numpy as np

from ocr_pipeline_ray.functions.raster import (
    IMAGENET_MEAN,
    IMAGENET_STD,
    normalize_tensor,
    resize_bilinear,
    resize_nearest,
    rgb_to_bgr,
    to_grayscale,
)


def _img(h=8, w=12):
    rng = np.random.default_rng(1)
    return rng.integers(0, 256, (h, w, 3), dtype=np.uint8)


def test_resize_nearest_identity_and_shape():
    img = _img()
    assert np.array_equal(resize_nearest(img, 8, 12), img)  # same-size = identity
    out = resize_nearest(img, 4, 6)
    assert out.shape == (4, 6, 3)
    # 2x downsample by index sampling picks existing pixels
    assert all(out.reshape(-1, 3)[i].tolist() in img.reshape(-1, 3).tolist() for i in range(3))


def test_resize_bilinear_properties():
    img = _img()
    assert np.array_equal(resize_bilinear(img, 8, 12), img)  # same-size = identity
    up = resize_bilinear(img, 16, 24)
    assert up.shape == (16, 24, 3)
    # constant image stays constant under any resize
    const = np.full((5, 7, 3), 117, dtype=np.uint8)
    assert (resize_bilinear(const, 9, 3) == 117).all()
    # values bounded by input range
    assert up.min() >= img.min() and up.max() <= img.max()


def test_normalize_tensor_chw_and_values():
    img = _img(4, 4)
    t = normalize_tensor(img)
    assert t.shape == (3, 4, 4) and t.dtype == np.float32
    expect = (img[0, 0].astype(np.float32) / 255.0 - IMAGENET_MEAN) / IMAGENET_STD
    assert np.allclose(t[:, 0, 0], expect, atol=1e-6)


def test_channel_fixups():
    img = _img(2, 2)
    assert np.array_equal(rgb_to_bgr(img)[..., 0], img[..., 2])
    g = to_grayscale(img)
    assert g.shape == (2, 2) and g.dtype == np.uint8
    white = np.full((1, 1, 3), 255, dtype=np.uint8)
    assert to_grayscale(white)[0, 0] == 255


def test_ppm_decode_resize_roundtrip():
    """The real P6 parser + bilinear resize compose (the in-container
    live decode path of ImageDecodeActor)."""
    from ocr_pipeline_ray.functions.ppm_ocr import parse_ppm, render_text_ppm

    img = parse_ppm(render_text_ppm("RESIZE ME"))
    out = resize_bilinear(img, 32, 32)
    assert out.shape == (32, 32, 3)
    assert out.max() > 0  # glyph pixels survived
