"""Multimodal pipelines over the ``documents`` table as QUERIES: wrap
each doc's leading tokens into a REAL P6 PPM raster (the deterministic
"camera" from functions/ppm_ocr.py), then run the actor-pool decode
stages over the binary payload column.

The ``media_dimensions_*`` queries are fully oracle-checkable: the
raster geometry is a pure function of the token text (width = 6 px per
glyph cell, height = one 7 px glyph row), so DuckDB can derive the
expected dimensions from the documents view while the Ray side must
actually parse the image headers to produce them — a true end-to-end
decode check.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from ocr_pipeline_ray.functions.ppm_ocr import render_text_ppm
from ocr_pipeline_ray.functions.textstats import TOKEN_RE
from ocr_pipeline_ray.stages.multimodal import decode_images


def _media_payload_ds(sf_dir: str, fmt: str = "ppm") -> "ray.data.Dataset":
    """documents -> (media_ref=doc_id, payload=raster of the first
    5 tokens); the wrap runs inside map_batches. ``fmt='png'`` encodes
    the same glyph raster as a real PNG (stdlib zlib DEFLATE), so the
    decode stage exercises an actual wire format end to end."""

    def wrap(t: pa.Table) -> pa.Table:
        refs, payloads = [], []
        for did, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            toks = TOKEN_RE.findall(text)
            refs.append(str(did))
            ppm = render_text_ppm(" ".join(toks[:5]))
            if fmt == "png":
                from ocr_pipeline_ray.functions.png import encode_png
                from ocr_pipeline_ray.functions.ppm_ocr import parse_ppm

                # Sub filter: exercises the decoder's cumsum unfilter path
                payloads.append(encode_png(parse_ppm(ppm), filter_type=1))
            elif fmt == "jpeg":
                from ocr_pipeline_ray.functions.jpeg import encode_jpeg
                from ocr_pipeline_ray.functions.ppm_ocr import parse_ppm

                # lossy wire format — geometry survives exactly
                payloads.append(encode_jpeg(parse_ppm(ppm), quality=90))
            elif fmt == "bmp":
                from ocr_pipeline_ray.functions.bmp import encode_bmp
                from ocr_pipeline_ray.functions.ppm_ocr import parse_ppm

                # padded bottom-up BGR rows — the DIB layout
                payloads.append(encode_bmp(parse_ppm(ppm)))
            else:
                payloads.append(ppm)
        return pa.Table.from_pydict(
            {
                "media_ref": pa.array(refs, pa.string()),
                "modality": pa.array(["image"] * len(refs), pa.string()),
                "payload": pa.array(payloads, pa.binary()),
                "width": pa.array([0] * len(refs), pa.int32()),
                "height": pa.array([0] * len(refs), pa.int32()),
                "duration_ms": pa.array([0] * len(refs), pa.int32()),
            }
        )

    return ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]).map_batches(
        wrap, batch_format="pyarrow"
    )


def media_dimensions_bmp(sf_dir: str) -> pd.DataFrame:
    """Same geometry oracle, payloads are REAL BMPs (24-bit DIB,
    bottom-up padded BGR rows) — the Ray side must parse the
    little-endian headers and un-pad the rows. Shares
    MEDIA_DIMENSIONS_SQL."""
    out = decode_images(
        _media_payload_ds(sf_dir, fmt="bmp"), target_size=None, concurrency=(1, 4)
    ).to_pandas()
    bad = out[out["error"] != ""]
    if len(bad):
        raise ValueError(f"bmp decode errors: {bad['error'].iloc[0]}")
    out["doc_id"] = out["media_ref"].astype("int64")
    return (
        out[["doc_id", "width", "height"]]
        .astype({"width": "int64", "height": "int64"})
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


# width = 6 px per glyph cell over the OCR-normalized first-5-token
# string (normalization maps chars 1:1, so length is preserved);
# empty -> 1 px. height = one 7 px glyph row.
MEDIA_DIMENSIONS_SQL = r"""
WITH base AS (
  SELECT doc_id, array_to_string(regexp_extract_all(text, '[A-Za-z0-9_]+')[1:5], ' ') AS s
  FROM documents
)
SELECT doc_id,
       CAST(greatest(1, 6 * length(s)) AS BIGINT) AS width,
       CAST(7 AS BIGINT) AS height
FROM base ORDER BY doc_id
"""


def media_word_boxes(sf_dir: str) -> pd.DataFrame:
    """Word-level detection + polygon refinement (reference T1-T3) as
    a fully oracled query: raster every doc's leading tokens, run
    :func:`~ocr_pipeline_ray.functions.ppm_ocr.detect_boxes_ppm` with
    ``poly=True`` (the T3 path executes for every region; the
    14-point polygons themselves are font-dependent so their golden
    checks live in tests/test_ppm_ocr.py), and emit the word text +
    box geometry, which DuckDB can derive from token layout alone.

    Output: (doc_id, word_idx, word_text, x0, x1) per detected word.
    """
    from ocr_pipeline_ray.functions.ppm_ocr import detect_boxes_ppm

    def detect(t: pa.Table) -> pa.Table:
        doc_ids, idxs, texts, x0s, x1s = [], [], [], [], []
        for ref, payload in zip(t["media_ref"].to_pylist(), t["payload"].to_pylist()):
            for i, r in enumerate(detect_boxes_ppm(payload, poly=True)):
                doc_ids.append(int(ref))
                idxs.append(i)
                texts.append(r["text"])
                x0s.append(r["x0"])
                x1s.append(r["x1"] - 1)  # inclusive last glyph column
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "word_idx": pa.array(idxs, pa.int64()),
                "word_text": pa.array(texts, pa.string()),
                "x0": pa.array(x0s, pa.int64()),
                "x1": pa.array(x1s, pa.int64()),
            }
        )

    out = _media_payload_ds(sf_dir).map_batches(detect, batch_format="pyarrow").to_pandas()
    return out.sort_values(["doc_id", "word_idx"]).reset_index(drop=True)


# the raster is a pure function of the first-5-token layout: word i
# starts at cell sum(len+1) of preceding words, 6 px pitch, glyphs
# 5 px wide; OCR-normalize = upper() (tokens are [A-Za-z0-9_]+, all
# in the font alphabet)
MEDIA_WORD_BOXES_SQL = r"""
WITH toks AS (
  SELECT doc_id,
         unnest(regexp_extract_all(text, '[A-Za-z0-9_]+')[1:5]) AS tok,
         generate_subscripts(regexp_extract_all(text, '[A-Za-z0-9_]+')[1:5], 1) AS idx
  FROM documents
), pos AS (
  SELECT doc_id, idx - 1 AS word_idx, upper(tok) AS word_text, length(tok) AS len,
         coalesce(sum(length(tok) + 1) OVER (
           PARTITION BY doc_id ORDER BY idx
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS c0
  FROM toks
)
SELECT doc_id, CAST(word_idx AS BIGINT) AS word_idx, word_text,
       CAST(6 * c0 AS BIGINT) AS x0,
       CAST(6 * (c0 + len - 1) + 4 AS BIGINT) AS x1
FROM pos ORDER BY doc_id, word_idx
"""


def media_line_boxes(sf_dir: str) -> pd.DataFrame:
    """T4 link refiner (reference std-detection/refinenet.py:14-64,
    wiring test.py:140-153) as a fully oracled query: the same rasters
    as :func:`media_word_boxes` through
    ``detect_boxes_ppm(link_refine=True)``. Every inter-word gap in
    the raster is a single space, so the refiner links each doc's
    words into ONE line-level region — whose text and box DuckDB
    derives from token layout alone (string_agg + glyph-pitch
    arithmetic). A refiner that under-links (extra regions) or
    over-links (wrong spans) fails the oracle.

    Output: (doc_id, line_idx, line_text, x0, x1) per linked line.
    """
    from ocr_pipeline_ray.functions.ppm_ocr import detect_boxes_ppm

    def detect(t: pa.Table) -> pa.Table:
        doc_ids, idxs, texts, x0s, x1s = [], [], [], [], []
        for ref, payload in zip(t["media_ref"].to_pylist(), t["payload"].to_pylist()):
            for i, r in enumerate(detect_boxes_ppm(payload, link_refine=True)):
                doc_ids.append(int(ref))
                idxs.append(i)
                texts.append(r["text"])
                x0s.append(r["x0"])
                x1s.append(r["x1"] - 1)  # inclusive last glyph column
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "line_idx": pa.array(idxs, pa.int64()),
                "line_text": pa.array(texts, pa.string()),
                "x0": pa.array(x0s, pa.int64()),
                "x1": pa.array(x1s, pa.int64()),
            }
        )

    out = _media_payload_ds(sf_dir).map_batches(detect, batch_format="pyarrow").to_pandas()
    return out.sort_values(["doc_id", "line_idx"]).reset_index(drop=True)


MEDIA_LINE_BOXES_SQL = r"""
WITH toks AS (
  SELECT doc_id,
         unnest(regexp_extract_all(text, '[A-Za-z0-9_]+')[1:5]) AS tok,
         generate_subscripts(regexp_extract_all(text, '[A-Za-z0-9_]+')[1:5], 1) AS idx
  FROM documents
), agg AS (
  SELECT doc_id, string_agg(upper(tok), ' ' ORDER BY idx) AS line_text,
         sum(length(tok)) + count(*) - 1 AS n_cells
  FROM toks GROUP BY doc_id
)
SELECT doc_id, CAST(0 AS BIGINT) AS line_idx, line_text,
       CAST(0 AS BIGINT) AS x0,
       CAST(6 * (n_cells - 1) + 4 AS BIGINT) AS x1
FROM agg ORDER BY doc_id
"""


_MEDIA_PLANT = 1_000_000_000


def media_dhash_planted_clones(sf_dir: str, plant_every: int = 20) -> pd.DataFrame:
    """The decode -> dHash machinery under an EXACT oracle (the
    planted-clone pattern for perceptual hashing): every
    ``plant_every``-th raster re-enters BYTE-IDENTICAL under
    ``media_ref + 1e9``. Identical payload bytes -> identical decode ->
    identical 64-bit dHash is structural, so each planted pair must
    agree; disagreement means the decode or hash path is
    non-deterministic. The pair check runs distributed (grouped by
    source id); the oracle enumerates one (doc_id, clone_doc_id, 1)
    row per planted source."""
    import numpy as np

    from ocr_pipeline_ray.stages.multimodal import dhash_images

    def _plant(t: pa.Table) -> pa.Table:
        refs = t["media_ref"].to_pylist()
        keep = [i for i, r in enumerate(refs) if int(r) % plant_every == 0]
        clone = t.take(pa.array(keep, pa.int64()))
        new_refs = pa.array(
            [str(int(r) + _MEDIA_PLANT) for r in clone["media_ref"].to_pylist()],
            pa.string(),
        )
        clone = clone.set_column(
            clone.schema.get_field_index("media_ref"), "media_ref", new_refs
        )
        return pa.concat_tables([t, clone])

    hashed = dhash_images(
        _media_payload_ds(sf_dir).map_batches(_plant, batch_format="pyarrow"),
        concurrency=(1, 4),
    )

    def _tag(t: pa.Table) -> pd.DataFrame:
        df = t.to_pandas()
        ids = df["media_ref"].astype("int64").to_numpy()
        src = np.where(ids >= _MEDIA_PLANT, ids - _MEDIA_PLANT, ids)
        df = df.assign(__src=src)[["__src", "dhash"]]
        return df[src % plant_every == 0]

    def _check(g: pd.DataFrame) -> pd.DataFrame:
        src = int(g["__src"].iloc[0])
        return pd.DataFrame(
            {
                "doc_id": pd.Series([src], dtype="int64"),
                "clone_doc_id": pd.Series([src + _MEDIA_PLANT], dtype="int64"),
                "same_hash": pd.Series(
                    [1 if (len(g) == 2 and g["dhash"].nunique() == 1) else 0],
                    dtype="int64",
                ),
            }
        )

    out = (
        hashed.map_batches(_tag, batch_format="pyarrow")
        .groupby("__src")
        .map_groups(_check, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values("doc_id").reset_index(drop=True)


def media_dhash_planted_clones_sql(plant_every: int = 20) -> str:
    return f"""
SELECT CAST(doc_id AS BIGINT) AS doc_id,
       CAST(doc_id + {_MEDIA_PLANT} AS BIGINT) AS clone_doc_id,
       CAST(1 AS BIGINT) AS same_hash
FROM documents WHERE doc_id % {plant_every} = 0
ORDER BY doc_id
"""


MEDIA_DHASH_PLANTED_CLONES_SQL = media_dhash_planted_clones_sql()


def media_channel_stats_planted_clones(sf_dir: str, plant_every: int = 20) -> pd.DataFrame:
    """The decode -> channel-statistics machinery under an EXACT
    oracle (the dHash planted pattern, applied to the feature-extract
    stage): every ``plant_every``-th raster re-enters BYTE-IDENTICAL
    under ``media_ref + 1e9``; identical payload bytes -> identical
    decode -> identical resize -> identical channel means is
    structural, so each planted pair must agree exactly (pre-round
    float equality — both sides run the same arithmetic on the same
    bytes). The comparison is over the FULL per-channel vector, not
    its scalar mean — a mean-of-means is invariant under channel
    permutation and would be blind to exactly the BGR/RGB-swap bug
    class this repo fixed in PdfiumEngine. The pair check runs
    distributed (grouped by source id, like the dHash anchor); the
    oracle enumerates one (doc_id, clone_doc_id, 1) row per planted
    source."""
    import numpy as np

    from ocr_pipeline_ray.stages.multimodal import decode_images

    def _plant(t: pa.Table) -> pa.Table:
        refs = t["media_ref"].to_pylist()
        keep = [i for i, r in enumerate(refs) if int(r) % plant_every == 0]
        clone = t.take(pa.array(keep, pa.int64()))
        new_refs = pa.array(
            [str(int(r) + _MEDIA_PLANT) for r in clone["media_ref"].to_pylist()],
            pa.string(),
        )
        clone = clone.set_column(
            clone.schema.get_field_index("media_ref"), "media_ref", new_refs
        )
        return pa.concat_tables([t, clone])

    decoded = decode_images(
        _media_payload_ds(sf_dir).map_batches(_plant, batch_format="pyarrow"),
        target_size=32,
        concurrency=(1, 4),
    )

    def _tag(t: pa.Table) -> pd.DataFrame:
        df = t.to_pandas()
        ids = df["media_ref"].astype("int64").to_numpy()
        src = np.where(ids >= _MEDIA_PLANT, ids - _MEDIA_PLANT, ids)
        # exact channel-ORDERED fingerprint (repr of every float, in
        # channel order) — permutation-sensitive where a mean is not
        df = df.assign(
            __src=src,
            __stats=["|".join(f"{float(x):.17g}" for x in v) for v in df["channel_means"]],
        )[["__src", "__stats"]]
        return df[src % plant_every == 0]

    def _check(g: pd.DataFrame) -> pd.DataFrame:
        src = int(g["__src"].iloc[0])
        return pd.DataFrame(
            {
                "doc_id": pd.Series([src], dtype="int64"),
                "clone_doc_id": pd.Series([src + _MEDIA_PLANT], dtype="int64"),
                "same_stats": pd.Series(
                    [1 if (len(g) == 2 and g["__stats"].nunique() == 1) else 0],
                    dtype="int64",
                ),
            }
        )

    out = (
        decoded.map_batches(_tag, batch_format="pyarrow")
        .groupby("__src")
        .map_groups(_check, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values("doc_id").reset_index(drop=True)


def media_channel_stats_planted_clones_sql(plant_every: int = 20) -> str:
    return f"""
SELECT CAST(doc_id AS BIGINT) AS doc_id,
       CAST(doc_id + {_MEDIA_PLANT} AS BIGINT) AS clone_doc_id,
       CAST(1 AS BIGINT) AS same_stats
FROM documents WHERE doc_id % {plant_every} = 0
ORDER BY doc_id
"""


MEDIA_CHANNEL_STATS_PLANTED_CLONES_SQL = media_channel_stats_planted_clones_sql()


def media_dimensions_jpeg(sf_dir: str) -> pd.DataFrame:
    """Same geometry oracle, payloads are REAL baseline JPEGs (our
    pure-numpy T.81 encoder): the Ray side must walk markers, Huffman
    decode and IDCT to produce the dimensions. Lossy pixels, exact
    geometry — shares MEDIA_DIMENSIONS_SQL."""
    out = decode_images(
        _media_payload_ds(sf_dir, fmt="jpeg"), target_size=None, concurrency=(1, 4)
    ).to_pandas()
    bad = out[out["error"] != ""]
    if len(bad):
        raise ValueError(f"jpeg decode errors: {bad['error'].iloc[0]}")
    out["doc_id"] = out["media_ref"].astype("int64")
    return (
        out[["doc_id", "width", "height"]]
        .astype({"width": "int64", "height": "int64"})
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def media_lit_stats(sf_dir: str) -> pd.DataFrame:
    """PIXEL-CONTENT oracle for the decode stage: the lit (white)
    pixel COUNT of each doc's native-size raster, recovered from the
    decode stage's channel means (the raster is binary 0/255, so
    n_lit = mean * 7*width / 255 — the stage's float32 mean has
    relative error ~1e-7, far below the 0.5 needed to flip the
    integer, making the output exact with NO float rounding on either
    side). Per-character lit counts are a pure function of the 5x7
    font, embedded in MEDIA_LIT_STATS_SQL as a VALUES table: the Ray
    side must actually decode every payload pixel; DuckDB derives the
    expectation from the text alone. A much stronger end-to-end
    decode check than geometry — every glyph pixel is accounted
    for."""
    out = decode_images(_media_payload_ds(sf_dir), target_size=None, concurrency=(1, 4)).to_pandas()
    out["doc_id"] = out["media_ref"].astype("int64")
    mean = np.array([float(np.mean(v)) for v in out["channel_means"]])
    w = out["width"].astype("int64").to_numpy()
    out["n_lit"] = np.round(mean * 7 * w / 255.0).astype("int64")
    out["width"] = w
    return out[["doc_id", "width", "n_lit"]].sort_values("doc_id").reset_index(drop=True)


def _lit_values_table() -> str:
    from ocr_pipeline_ray.functions.ppm_ocr import _FONT, _FONT_CHARS

    rows = ", ".join(
        f"('{c}', {int(_FONT[i].sum())})" for i, c in enumerate(_FONT_CHARS) if c != "'"
    )
    return rows


MEDIA_LIT_STATS_SQL = f"""
WITH font(ch, lit) AS (VALUES {_lit_values_table()}),
base AS (
  SELECT doc_id,
         upper(array_to_string(regexp_extract_all(text, '[A-Za-z0-9_]+')[1:5], ' ')) AS s
  FROM documents
), chars AS (
  SELECT doc_id, unnest(regexp_extract_all(s, '.')) AS ch FROM base
), lits AS (
  SELECT c.doc_id, sum(f.lit) AS lit FROM chars c JOIN font f USING (ch) GROUP BY c.doc_id
)
SELECT b.doc_id,
       CAST(greatest(1, 6 * length(b.s)) AS BIGINT) AS width,
       CAST(coalesce(l.lit, 0) AS BIGINT) AS n_lit
FROM base b LEFT JOIN lits l USING (doc_id) ORDER BY b.doc_id
"""


def media_frame_sample(sf_dir: str, n_frames: int = 4) -> pd.DataFrame:
    """Video frame-sampling plumbing (reference analog: the per-media
    preprocessing fan-out): each document becomes a synthetic video
    whose duration derives deterministically from its length
    (duration_ms = n_chars * 40); the actor-pool FrameSampleActor
    emits K evenly-spaced (frame_idx, ts_ms) refs per payload. The
    timestamps are integer arithmetic, so the oracle is exact."""
    from ocr_pipeline_ray.stages.multimodal import sample_frames

    def wrap(t: "pa.Table") -> "pa.Table":
        import pyarrow as pa_

        dur = [int(n) * 40 for n in t["n_chars"].to_pylist()]
        return pa_.Table.from_pydict(
            {
                "media_ref": pa_.array([str(d) for d in t["doc_id"].to_pylist()], pa_.string()),
                "duration_ms": pa_.array(dur, pa_.int32()),
            }
        )

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    ).map_batches(wrap, batch_format="pyarrow")
    out = sample_frames(ds, n_frames=n_frames).to_pandas()
    out["frame_idx"] = out["frame_idx"].astype("int64")
    out["ts_ms"] = out["ts_ms"].astype("int64")
    return out.sort_values(["media_ref", "frame_idx"]).reset_index(drop=True)


MEDIA_FRAME_SAMPLE_SQL = """
SELECT CAST(doc_id AS VARCHAR) AS media_ref,
       CAST(i AS BIGINT) AS frame_idx,
       CAST(((n_chars * 40) * (2 * i + 1)) // 8 AS BIGINT) AS ts_ms
FROM documents CROSS JOIN (SELECT unnest(generate_series(0, 3)) AS i)
ORDER BY media_ref, frame_idx
"""


def media_dhash_dupes(sf_dir: str) -> pd.DataFrame:
    """Perceptual (dHash) image duplicate groups over the rendered
    doc rasters: decode -> grayscale -> 9x8 downsample -> 64 gradient
    bits, all inside the actor pool (the raster never leaves the
    worker), then ONE coarse-bucket shuffle on the hash co-locates
    collisions and each bucket emits its duplicate groups. Docs whose
    first-5-token prefix renders the same raster are guaranteed
    same-hash; visually-near rasters collide too (that is the point
    of a perceptual hash), so the exact group membership is pinned by
    pytest (planted byte-identical payloads + prefix-sharing docs),
    not a SQL oracle. Output: (dhash, n_docs, min_doc, max_doc) for
    groups of >= 2."""
    from ocr_pipeline_ray.stages.multimodal import dhash_images

    hashed = dhash_images(_media_payload_ds(sf_dir), concurrency=(1, 4))

    n_buckets = 32

    def _bucket(t: pa.Table) -> pd.DataFrame:
        df = t.to_pandas()
        df = df[df["dhash"] != ""]
        df["__bucket"] = df["dhash"].map(lambda h: int(h, 16) % n_buckets).astype("int64")
        return df[["media_ref", "dhash", "__bucket"]]

    def _groups(g: pd.DataFrame) -> pd.DataFrame:
        ids = g["media_ref"].astype("int64")
        agg = g.assign(doc_id=ids).groupby("dhash")["doc_id"].agg(["count", "min", "max"]).reset_index()
        agg = agg[agg["count"] >= 2]
        return pd.DataFrame(
            {
                "dhash": agg["dhash"].astype("object"),
                "n_docs": agg["count"].astype("int64"),
                "min_doc": agg["min"].astype("int64"),
                "max_doc": agg["max"].astype("int64"),
            }
        )

    return (
        hashed.map_batches(_bucket, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(_groups, batch_format="pandas")
        .to_pandas()
        .sort_values("dhash")
        .reset_index(drop=True)
    )
