"""Seeded, cached benchmark inputs and their oracle answers.

Every workload's inputs are a pure function of ``(workload, seed,
n_docs)``. They are generated once per key into
``.bench_cache/<workload>-s<seed>-n<n_docs>/`` and handed to the
program only as parquet files:

* ``docs/part-*.parquet`` — the docs table, ``N_SHARDS`` files (the
  partitioned job splits partitions by input file);
* ``media.parquet`` — the media side table;
* ``oracle.parquet`` — ``ocr_pipeline_ray.oracle.extract_docs`` on the
  same docs and media, the answer every pass is checked against.

Corpora:

* ``standard`` — ``sources.gen.generate_corpus`` (text-heavy mix, edge
  fixtures included), used by ``partitioned_job``;
* ``hot_ref`` — the standard corpus with one planted hot ``media_ref``:
  ``HOT_SHARE`` of the image spans are re-pointed at one shared logo,
  used by ``join_shuffle``;
* ``raster`` — a media-heavy corpus whose image and pdf payloads are
  real P6 rasters (``render_text_ppm`` / ``encode_pdf_ppm``), used by
  ``raster_ocr``. The oracle only knows the synthetic payload codecs, so
  it runs on a twin media table that carries the same texts and block
  layouts in synthetic encoding; its media texts are then normalized
  the way ``functions/ppm_ocr.py`` renders them (upper case, unknown
  glyphs to ``_``, trailing blanks dropped).
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ocr_pipeline_ray.functions.ppm_ocr import _normalize_ocr_text, encode_pdf_ppm, render_text_ppm
from ocr_pipeline_ray.functions.synthetic_media import encode_image_payload, encode_pdf_payload
from ocr_pipeline_ray.oracle import extract_docs
from ocr_pipeline_ray.schema import DOCS_SCHEMA, MEDIA_SCHEMA
from ocr_pipeline_ray.sources.gen import WORDS, _make_text_span, generate_corpus

N_SHARDS = 8
CACHE_KEEP = 4
HOT_REF = "mem://site/logo"
# share of image spans re-pointed at HOT_REF: image spans are ~83% of
# the media spans, so the logo holds ~8% of them, above the 5%
# threshold of join_media_spans' hot-ref detection
HOT_SHARE = 0.10
# raster corpus span mix: text, image, pdf
RASTER_MIX = (0.2, 0.55, 0.25)


def _raster_corpus(n_docs: int, seed: int) -> tuple[pa.Table, pa.Table, pa.Table]:
    """(docs, ppm media, synthetic twin media) for the raster workload."""
    rng = np.random.default_rng(seed)
    words = np.array(WORDS)

    def phrase(lo: int, hi: int) -> str:
        return " ".join(words[rng.integers(0, len(words), int(rng.integers(lo, hi)))])

    doc_ids, doc_spans, media_rows = [], [], []
    for i in range(n_docs):
        doc_id = f"doc-{i:08d}"
        spans = []
        for off in range(int(rng.integers(1, 5))):
            r = rng.random()
            if r < RASTER_MIX[0]:
                html, _ = _make_text_span(rng)
                spans.append({"kind": "text", "text": html, "media_ref": "", "offset": off})
                continue
            ref = f"mem://{doc_id}/{off}"
            if r < RASTER_MIX[0] + RASTER_MIX[1]:
                text = phrase(3, 11)
                media_rows.append(
                    (ref, "image", render_text_ppm(text), encode_image_payload(ref, text), 1)
                )
                kind = "image"
            else:
                blocks = [
                    (int(rng.integers(0, 1000)), int(rng.integers(0, 1000)), phrase(2, 8))
                    for _ in range(int(rng.integers(2, 6)))
                ]
                twin = encode_pdf_payload([[{"y": y, "x": x, "t": t} for y, x, t in blocks]])
                media_rows.append((ref, "pdf", encode_pdf_ppm(blocks), twin, 1))
                kind = "pdf"
            spans.append({"kind": kind, "text": "", "media_ref": ref, "offset": off})
        doc_ids.append(doc_id)
        doc_spans.append(spans)
    docs = pa.Table.from_pydict({"doc_id": doc_ids, "spans": doc_spans}, schema=DOCS_SCHEMA)

    def media(col: int) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "media_ref": [m[0] for m in media_rows],
                "kind": [m[1] for m in media_rows],
                "payload": [m[col] for m in media_rows],
                "n_pages": [m[4] for m in media_rows],
            },
            schema=MEDIA_SCHEMA,
        )

    return docs, media(2), media(3)


def _normalize_media_texts(oracle: pa.Table) -> pa.Table:
    rows = oracle.to_pylist()
    for row in rows:
        for s in row["spans"]:
            if s["kind"] != "text":
                s["text"] = _normalize_ocr_text(s["text"]).rstrip()
    return pa.Table.from_pylist(rows, schema=DOCS_SCHEMA)


def _plant_hot_ref(docs: pa.Table, media: pa.Table, seed: int) -> tuple[pa.Table, pa.Table]:
    """Re-point ``HOT_SHARE`` of the image spans at one shared logo."""
    rng = np.random.default_rng(seed + 1)
    rows = docs.to_pylist()
    known = set(media["media_ref"].to_pylist())
    moved = set()
    for row in rows:
        for s in row["spans"]:
            if s["kind"] == "image" and s["media_ref"] in known and rng.random() < HOT_SHARE:
                moved.add(s["media_ref"])
                s["media_ref"] = HOT_REF
    keep = media.filter(pa.array([r not in moved for r in media["media_ref"].to_pylist()]))
    logo = pa.Table.from_pydict(
        {
            "media_ref": [HOT_REF],
            "kind": ["image"],
            "payload": [encode_image_payload(HOT_REF, "corp logo wordmark")],
            "n_pages": [1],
        },
        schema=MEDIA_SCHEMA,
    )
    media = pa.concat_tables([keep, logo]).sort_by("media_ref")
    return pa.Table.from_pylist(rows, schema=DOCS_SCHEMA), media


def build_inputs(corpus: str, n_docs: int, seed: int) -> tuple[pa.Table, pa.Table, pa.Table]:
    """(docs, media, oracle) for one corpus kind."""
    if corpus == "raster":
        docs, media, twin = _raster_corpus(n_docs, seed)
        return docs, media, _normalize_media_texts(extract_docs(docs, twin))
    docs, media, _ = generate_corpus(n_docs, seed=seed)
    if corpus == "hot_ref":
        docs, media = _plant_hot_ref(docs, media, seed)
    elif corpus != "standard":
        raise ValueError(f"unknown corpus {corpus!r}")
    return docs, media, extract_docs(docs, media)


def cached_inputs(cache_root: str, key: str, corpus: str, n_docs: int, seed: int) -> tuple[dict, bool]:
    """Paths of the cached inputs for ``key``; generates them on a miss.

    Returns ``(paths, generated)``. A directory is complete only once
    its ``_DONE`` marker exists, so a run killed mid-write regenerates.
    After a miss, only the ``CACHE_KEEP`` newest entries of the same
    workload are kept.
    """
    d = os.path.join(cache_root, key)
    paths = {
        "docs": os.path.join(d, "docs"),
        "media": os.path.join(d, "media.parquet"),
        "oracle": os.path.join(d, "oracle.parquet"),
    }
    if os.path.exists(os.path.join(d, "_DONE")):
        return paths, False
    shutil.rmtree(d, ignore_errors=True)
    docs, media, oracle = build_inputs(corpus, n_docs, seed)
    os.makedirs(paths["docs"])
    edges = np.linspace(0, docs.num_rows, N_SHARDS + 1).astype(int)
    for s in range(N_SHARDS):
        lo, hi = int(edges[s]), int(edges[s + 1])
        pq.write_table(docs.slice(lo, hi - lo), os.path.join(paths["docs"], f"part-{s:04d}.parquet"))
    pq.write_table(media, paths["media"])
    pq.write_table(oracle.sort_by("doc_id"), paths["oracle"])
    with open(os.path.join(d, "_DONE"), "w") as f:
        f.write("ok")
    prefix = key.split("-s")[0] + "-s"
    entries = sorted(
        (os.path.join(cache_root, e) for e in os.listdir(cache_root) if e.startswith(prefix)),
        key=os.path.getmtime,
    )
    for old in entries[:-CACHE_KEEP]:
        shutil.rmtree(old, ignore_errors=True)
    return paths, True


def count_wrong(out: pa.Table, oracle: pa.Table) -> int:
    """Docs of ``oracle`` whose ``(kind, text, media_ref, offset)``
    sequence is missing from, or differs in, ``out``; docs of ``out``
    that the oracle does not have, or that appear twice, count too.
    ``oracle`` is sorted by ``doc_id``."""
    out = out.select(["doc_id", "spans"]).sort_by("doc_id")
    if out.num_rows == oracle.num_rows and out.column("doc_id").equals(oracle.column("doc_id")):
        if out.column("spans").cast(oracle.schema.field("spans").type).equals(oracle.column("spans")):
            return 0
    want = dict(zip(oracle["doc_id"].to_pylist(), oracle["spans"].to_pylist()))
    got: dict[str, list] = {}
    wrong = 0
    for doc_id, spans in zip(out["doc_id"].to_pylist(), out["spans"].to_pylist()):
        if doc_id in got or doc_id not in want:
            wrong += 1
        got[doc_id] = spans
    for doc_id, spans in want.items():
        if got.get(doc_id) != spans:
            wrong += 1
    return wrong
