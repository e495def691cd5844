"""Multimodal column stages: decode / resize / feature-extract /
frame-sample over opaque ``binary`` media columns with typed metadata.

The container has no image/audio codecs (no PIL/cv2/ffmpeg), so the
DECODE KERNELS are stubbed — either a clearly-marked
``NotImplementedError`` (strict mode) or a deterministic fake — while
the Ray-side plumbing is REAL and tested: schemas, actor-pool
signatures, batch sizing for large binary payloads, output layout.
Swap the kernel import for the real library on a cluster image and
nothing else changes (the same pluggable-engine seam as
``stages.extract.SyntheticEngine``; the reference's analog is the
CRAFT/STR weights loaded per service, reference std-detection/api.py:40-60).

Batch-size guidance for binary payloads: a batch must fit
``batch_size x payload_size x concurrency`` in worker heaps — e.g.
4 MiB images => batch_size 16-64, NOT the 256+ used for text rows
(the reference derives its 350-crop GPU cap the same way,
reference README.md:84-88).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from ocr_pipeline_ray.state.media_store import payload_views


def _try_import_pil():
    try:
        from PIL import Image  # noqa: F401

        return Image
    except ImportError:
        return None


class ImageDecodeActor:
    """payload binary -> (height, width, channels) + pixel feature vec.

    Decode ladder, most-real first:
    1. the REAL dependency-free parsers exercised live in this
       container — P6 PPM (functions/ppm_ocr.py) and PNG via stdlib
       zlib (functions/png.py) — + pure-numpy bilinear resize;
    2. PIL (any other format) when the cluster image ships it;
    3. a deterministic fake from the payload digest (strict=False) or
       a clearly-marked ``NotImplementedError`` (strict=True) so the
       plumbing (schema, feature shapes) stays testable for formats
       with no in-container codec.
    """

    def __init__(self, target_size: int | None = 32, strict: bool = False):
        """``target_size=None`` keeps the decoded raster's native
        dimensions (no resize) — the metadata-extraction mode."""
        self.pil = _try_import_pil()
        self.target = target_size
        self.strict = strict

    def _decode_fake(self, payload: bytes) -> np.ndarray:
        if self.strict:
            raise NotImplementedError(
                "image decode requires PIL/cv2 — not available in this container"
            )
        # deterministic fake "pixels" from the payload digest
        size = self.target or 32
        seed = int.from_bytes(hashlib.md5(payload).digest()[:8], "big")
        rng = np.random.default_rng(seed)
        return rng.integers(0, 256, (size, size, 3), dtype=np.uint8)

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ocr_pipeline_ray.functions.bmp import BMP_MAGIC, parse_bmp
        from ocr_pipeline_ray.functions.jpeg import JPEG_MAGIC, decode_jpeg
        from ocr_pipeline_ray.functions.png import PNG_MAGIC, parse_png
        from ocr_pipeline_ray.functions.ppm_ocr import parse_ppm
        from ocr_pipeline_ray.functions.raster import resize_bilinear

        feats, hs, ws, errs = [], [], [], []
        for payload in payload_views(batch.column("payload")):
            try:
                if payload[:2] == b"P6":
                    # real decode + real resize, no codec library
                    arr = parse_ppm(payload)
                    if self.target is not None:
                        arr = resize_bilinear(arr, self.target, self.target)
                elif payload[: len(PNG_MAGIC)] == PNG_MAGIC:
                    # real wire format: stdlib zlib inflate + unfilter
                    arr = parse_png(payload)
                    if self.target is not None:
                        arr = resize_bilinear(arr, self.target, self.target)
                elif payload[: len(JPEG_MAGIC)] == JPEG_MAGIC:
                    # real wire format: baseline T.81 Huffman+IDCT
                    arr = decode_jpeg(payload)
                    if self.target is not None:
                        arr = resize_bilinear(arr, self.target, self.target)
                elif payload[: len(BMP_MAGIC)] == BMP_MAGIC:
                    # real wire format: 24-bit DIB, padded BGR rows
                    arr = parse_bmp(payload)
                    if self.target is not None:
                        arr = resize_bilinear(arr, self.target, self.target)
                elif self.pil is not None:
                    import io

                    img = self.pil.open(io.BytesIO(payload)).convert("RGB")
                    if self.target is not None:
                        img = img.resize((self.target, self.target))
                    arr = np.asarray(img, dtype=np.uint8)
                else:
                    arr = self._decode_fake(payload)
                hs.append(arr.shape[0])
                ws.append(arr.shape[1])
                # cheap feature: per-channel mean (a real extractor would
                # run a vision model here — batched, on the actor's GPU)
                feats.append(arr.mean(axis=(0, 1)).astype(np.float32).tolist())
                errs.append("")
            except Exception as e:
                hs.append(0)
                ws.append(0)
                feats.append([0.0, 0.0, 0.0])
                errs.append(f"decode failed: {e}")
        return pa.Table.from_arrays(
            [
                batch.column("media_ref"),
                pa.array(hs, pa.int32()),
                pa.array(ws, pa.int32()),
                pa.array(feats, pa.list_(pa.float32())),
                pa.array(errs, pa.string()),
            ],
            names=["media_ref", "height", "width", "channel_means", "error"],
        )


class FrameSampleActor:
    """video payload -> K evenly-spaced frame refs (metadata only here;
    real impl pulls frames via ffmpeg/pyav behind the same signature)."""

    def __init__(self, n_frames: int = 4):
        self.n_frames = n_frames

    def __call__(self, batch: pa.Table) -> pa.Table:
        refs, frame_idx, ts_ms = [], [], []
        for ref, dur in zip(
            batch.column("media_ref").to_pylist(), batch.column("duration_ms").to_pylist()
        ):
            d = int(dur or 0)
            for i in range(self.n_frames):
                refs.append(ref)
                frame_idx.append(i)
                ts_ms.append((d * (2 * i + 1)) // (2 * self.n_frames))
        return pa.Table.from_arrays(
            [
                pa.array(refs, pa.string()),
                pa.array(frame_idx, pa.int32()),
                pa.array(ts_ms, pa.int32()),
            ],
            names=["media_ref", "frame_idx", "ts_ms"],
        )


def decode_images(ds, *, batch_size: int = 32, concurrency=(1, 4), target_size: int | None = 32):
    """Actor-pool image decode: small batches for large binary rows."""
    return ds.map_batches(
        ImageDecodeActor,
        fn_constructor_kwargs={"target_size": target_size},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


def sample_frames(ds, *, n_frames: int = 4, batch_size: int = 64, concurrency=(1, 2)):
    return ds.map_batches(
        FrameSampleActor,
        fn_constructor_kwargs={"n_frames": n_frames},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


class ImageDHashActor:
    """Perceptual difference-hash (dHash) stage: decode the payload
    (same codec dispatch as ImageDecodeActor), grayscale, bilinear
    downsample to 9x8, emit the 64 horizontal-gradient bits as a hex
    string. The raster never leaves the worker — at 100 TB only
    (media_ref, 16-byte hash) rows flow downstream, which is what
    makes corpus-wide image near-dup feasible."""

    def __init__(self):
        self.pil = _try_import_pil()

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ocr_pipeline_ray.functions.bmp import BMP_MAGIC, parse_bmp
        from ocr_pipeline_ray.functions.jpeg import JPEG_MAGIC, decode_jpeg
        from ocr_pipeline_ray.functions.png import PNG_MAGIC, parse_png
        from ocr_pipeline_ray.functions.ppm_ocr import parse_ppm
        from ocr_pipeline_ray.functions.raster import resize_bilinear, to_grayscale

        hashes, errs = [], []
        for payload in payload_views(batch.column("payload")):
            try:
                if payload[:2] == b"P6":
                    arr = parse_ppm(payload)
                elif payload[: len(PNG_MAGIC)] == PNG_MAGIC:
                    arr = parse_png(payload)
                elif payload[: len(JPEG_MAGIC)] == JPEG_MAGIC:
                    arr = decode_jpeg(payload)
                elif payload[: len(BMP_MAGIC)] == BMP_MAGIC:
                    arr = parse_bmp(payload)
                elif self.pil is not None:
                    import io

                    arr = np.asarray(
                        self.pil.open(io.BytesIO(payload)).convert("RGB"), dtype=np.uint8
                    )
                else:
                    raise ValueError("no decoder for payload")
                g = to_grayscale(resize_bilinear(arr, 8, 9)).astype(np.int16)
                bits = (g[:, 1:] > g[:, :-1]).flatten()
                h = 0
                for b in bits:
                    h = (h << 1) | int(b)
                hashes.append(f"{h:016x}")
                errs.append("")
            except Exception as e:
                hashes.append("")
                errs.append(f"decode failed: {e}")
        return pa.Table.from_arrays(
            [batch.column("media_ref"), pa.array(hashes, pa.string()), pa.array(errs, pa.string())],
            names=["media_ref", "dhash", "error"],
        )


def dhash_images(ds, *, batch_size: int = 32, concurrency=(1, 4)):
    """Actor-pool perceptual hashing: small batches for binary rows."""
    return ds.map_batches(
        ImageDHashActor,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )
