"""Flagship pipeline over driver testdata: wrap ``documents`` rows into
interleaved text+media docs deterministically, run the FULL extraction
engine (explode -> HTML strip -> OCR/PDF actor pools -> ordered
reassembly), and emit per-doc extracted span texts.

Because the wrapping is deterministic and invertible, the expected
output is SQL-expressible over the original ``documents`` view — this
gives the whole extraction engine a DuckDB oracle:

* text span   = HTML page embedding the raw document text as main
  content between link-dense boilerplate -> extraction must equal the
  whitespace-normalized text (or "" when under the 25-char block
  threshold).
* image span  = synthetic OCR payload of the first 5 tokens.
* pdf span    = 2 layout blocks (tokens 6-7 and 8-10) stored in
  REVERSED order with reading-order coordinates -> extraction must
  re-sort them; docs with <10 tokens get an empty payload -> "".

Everything is streaming: the wrap runs INSIDE ``map_batches`` (both
the docs view and the media side-table are lazy Datasets over the
same pruned parquet read), media attaches via the bucketed hash join
(``media_mode='join'`` — no driver-side media table), and the per-doc
unwrap is another batch stage; the driver only ever holds the final
query result. The one exception is :func:`extract_split_kinds`, whose
routing needs the broadcast store and so collects the media table.

``codec='ppm'`` swaps the synthetic payloads for REAL rasters
(functions/ppm_ocr.py): media spans round-trip through an actual
P6-PPM decode -> glyph segmentation -> template-match OCR kernel
(engine seam proof — reference T1/T5 semantics with real compute).
"""

from __future__ import annotations

import shutil

import pandas as pd
import pyarrow as pa
import ray
import ray.data

from ocr_pipeline_ray.functions.ppm_ocr import (
    PpmOcrEngine,
    encode_pdf_ppm,
    render_text_ppm,
)
from ocr_pipeline_ray.functions.synthetic_media import (
    encode_image_payload,
    encode_pdf_payload,
)
from ocr_pipeline_ray.functions.textstats import TOKEN_RE
from ocr_pipeline_ray.pipelines.extract import build_extraction_pipeline
from ocr_pipeline_ray.schema import DOCS_SCHEMA, MEDIA_SCHEMA

# where extract_split_kinds stages its route partitions
SPLIT_STAGE_DIR = "/tmp/ocr_ray_split_stage"

_NAV = '<a href="/">home</a> | <a href="/a">about</a> | <a href="/c">contact</a>'


def _wrap_spans_only(doc_id_int: int, text: str) -> tuple[str, list[dict]]:
    """The docs-side half of the wrap: builds the HTML wrap and span
    skeleton WITHOUT encoding any media payloads (the media dataset
    does the complementary half — neither side pays for the other's
    work). The text span's expected extraction matches
    trim(regexp_replace(text,'\\s+',' ','g'))."""
    doc_id = f"doc-{doc_id_int:08d}"
    html = (
        f"<html><body><nav>{_NAV}</nav>"
        f'<div class="content"><p>{text}</p></div>'
        f"<div>(c) corp</div><footer>{_NAV}</footer></body></html>"
    )
    spans = [
        {"kind": "text", "text": html, "media_ref": "", "offset": 0},
        {"kind": "image", "text": "", "media_ref": f"mem://{doc_id}/1", "offset": 1},
        {"kind": "pdf", "text": "", "media_ref": f"mem://{doc_id}/2", "offset": 2},
    ]
    return doc_id, spans


def _wrap_docs_batch():
    # the span skeleton is codec-independent — only the media side
    # varies with the payload codec
    def _f(t: pa.Table) -> pa.Table:
        ids, spans_col = [], []
        for did, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            doc_id, spans = _wrap_spans_only(did, text)
            ids.append(doc_id)
            spans_col.append(spans)
        return pa.Table.from_pydict({"doc_id": ids, "spans": spans_col}, schema=DOCS_SCHEMA)

    return _f


def _wrap_media_batch(codec: str):
    def _f(t: pa.Table) -> pa.Table:
        rows = []
        for did, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            rows.extend(_wrap_media_only(did, text, codec))
        return pa.Table.from_pydict(
            {
                "media_ref": [m[0] for m in rows],
                "kind": [m[1] for m in rows],
                "payload": [m[2] for m in rows],
                "n_pages": [m[3] for m in rows],
            },
            schema=MEDIA_SCHEMA,
        )

    return _f


def _wrap_media_only(doc_id_int: int, text: str, codec: str) -> list[tuple]:
    """The media-side half of the wrap: payload encoding without
    rebuilding the HTML wrap. Pdf blocks are stored out of reading
    order -> the decoder must re-sort."""
    doc_id = f"doc-{doc_id_int:08d}"
    toks = TOKEN_RE.findall(text)
    img_ref = f"mem://{doc_id}/1"
    pdf_ref = f"mem://{doc_id}/2"
    if codec == "ppm":
        img_payload = render_text_ppm(" ".join(toks[:5]))
        if len(toks) >= 10:
            pdf_payload = encode_pdf_ppm(
                [(1, 0, " ".join(toks[7:10])), (0, 0, " ".join(toks[5:7]))]
            )
        else:
            pdf_payload = encode_pdf_ppm([])
    else:
        img_payload = encode_image_payload(img_ref, " ".join(toks[:5]))
        if len(toks) >= 10:
            block_a = {"y": 0, "x": 0, "t": " ".join(toks[5:7])}
            block_b = {"y": 1, "x": 0, "t": " ".join(toks[7:10])}
            pdf_payload = encode_pdf_payload([[block_b, block_a]])  # stored reversed
        else:
            pdf_payload = encode_pdf_payload([])
    return [(img_ref, "image", img_payload, 1), (pdf_ref, "pdf", pdf_payload, 1)]


def interleaved_datasets(
    sf_dir: str, codec: str = "synthetic"
) -> tuple["ray.data.Dataset", "ray.data.Dataset"]:
    """Lazy (docs, media) Datasets over the ``documents`` table — the
    deterministic wrap runs inside ``map_batches`` on workers; the
    driver never holds a corpus-sized table."""
    path = f"{sf_dir}/documents.parquet"
    docs = ray.data.read_parquet(path, columns=["doc_id", "text"]).map_batches(
        _wrap_docs_batch(), batch_format="pyarrow"
    )
    media = ray.data.read_parquet(path, columns=["doc_id", "text"]).map_batches(
        _wrap_media_batch(codec), batch_format="pyarrow"
    )
    return docs, media


def _unwrap_batch(t: pa.Table) -> pa.Table:
    """Per-doc wide row from the reassembled span lists (runs on
    workers — the driver sees only the final query result)."""
    ids, texts, images, pdfs = [], [], [], []
    for did, spans in zip(t["doc_id"].to_pylist(), t["spans"].to_pylist()):
        by_off = {s["offset"]: s["text"] for s in spans}
        ids.append(int(did.split("-")[1]))
        texts.append(by_off.get(0, ""))
        images.append(by_off.get(1, ""))
        pdfs.append(by_off.get(2, ""))
    return pa.Table.from_pydict(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "text_extracted": pa.array(texts, pa.string()),
            "image_extracted": pa.array(images, pa.string()),
            "pdf_extracted": pa.array(pdfs, pa.string()),
        }
    )


def _extract_interleaved(sf_dir: str, codec: str, engine_factory=None) -> "ray.data.Dataset":
    docs, media = interleaved_datasets(sf_dir, codec)
    out = build_extraction_pipeline(
        docs, media, media_mode="join", engine_factory=engine_factory
    )
    return out.map_batches(_unwrap_batch, batch_format="pyarrow")


def extract_interleaved(sf_dir: str) -> pd.DataFrame:
    """Run the full extraction engine; return per-doc extracted texts.

    Output columns (all oracle-comparable): doc_id BIGINT,
    text_extracted, image_extracted, pdf_extracted.
    """
    df = _extract_interleaved(sf_dir, "synthetic").to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)


def extract_interleaved_ppm(sf_dir: str) -> pd.DataFrame:
    """Flagship variant on the REAL raster kernel: media payloads are
    P6 PPM images / block containers, joined to their spans like
    :func:`extract_interleaved`, and the warm-engine actor pool
    actually decodes pixels (functions/ppm_ocr.py). The raster
    alphabet uppercases text, so the oracle applies upper() to the
    media spans."""
    df = _extract_interleaved(sf_dir, "ppm", PpmOcrEngine).to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)


def extract_span_stats(sf_dir: str) -> pd.DataFrame:
    """Metric aggregation over the flagship output (the G7 counters
    analog, reference monitoring/monitoring.py:116-130): per span kind,
    span count + total extracted chars — a grouped aggregate computed
    FROM the Ray extraction output, oracle-checked against the
    SQL-derivable expectation."""
    import pyarrow.compute as pc_

    docs, media = interleaved_datasets(sf_dir, "synthetic")
    out = build_extraction_pipeline(docs, media, media_mode="join")

    def stats(batch):
        import pyarrow as pa_

        flat = pc_.list_flatten(batch.column("spans").combine_chunks())
        kind = pc_.struct_field(flat, "kind")
        chars = pc_.utf8_length(pc_.struct_field(flat, "text"))
        return pa_.Table.from_arrays([kind, chars], names=["kind", "chars"])

    from ray.data.aggregate import Count, Sum

    df = (
        out.map_batches(stats, batch_format="pyarrow")
        .groupby("kind")
        .aggregate(Count(alias_name="n_spans"), Sum("chars", alias_name="total_chars"))
        .to_pandas()
        .sort_values("kind")
        .reset_index(drop=True)
    )
    df["total_chars"] = df["total_chars"].astype("int64")
    return df


EXTRACT_SPAN_STATS_SQL = r"""
WITH base AS (
  SELECT trim(regexp_replace(text, '\s+', ' ', 'g')) AS norm,
         regexp_extract_all(text, '[A-Za-z0-9_]+') AS toks
  FROM documents
), per_doc AS (
  SELECT CASE WHEN length(norm) >= 25 THEN length(norm) ELSE 0 END AS text_chars,
         length(array_to_string(toks[1:5], ' ')) AS image_chars,
         CASE WHEN len(toks) >= 10
              THEN length(array_to_string(toks[6:7], ' ') || ' ' || array_to_string(toks[8:10], ' '))
              ELSE 0 END AS pdf_chars
  FROM base
)
SELECT kind, count(*) AS n_spans, CAST(sum(chars) AS BIGINT) AS total_chars
FROM (
  SELECT 'text' AS kind, text_chars AS chars FROM per_doc
  UNION ALL SELECT 'image', image_chars FROM per_doc
  UNION ALL SELECT 'pdf', pdf_chars FROM per_doc
)
GROUP BY kind ORDER BY kind
"""


EXTRACT_INTERLEAVED_SQL = r"""
WITH base AS (
  SELECT doc_id,
         trim(regexp_replace(text, '\s+', ' ', 'g')) AS norm,
         regexp_extract_all(text, '[A-Za-z0-9_]+') AS toks
  FROM documents
)
SELECT doc_id,
       CASE WHEN length(norm) >= 25 THEN norm ELSE '' END AS text_extracted,
       array_to_string(toks[1:5], ' ') AS image_extracted,
       CASE WHEN len(toks) >= 10
            THEN array_to_string(toks[6:7], ' ') || ' ' || array_to_string(toks[8:10], ' ')
            ELSE '' END AS pdf_extracted
FROM base ORDER BY doc_id
"""


# the raster alphabet is A-Z 0-9 _ and space; documents tokens are
# [A-Za-z0-9_]+ so upper() alone reproduces the OCR normalization
EXTRACT_INTERLEAVED_PPM_SQL = r"""
WITH base AS (
  SELECT doc_id,
         trim(regexp_replace(text, '\s+', ' ', 'g')) AS norm,
         regexp_extract_all(text, '[A-Za-z0-9_]+') AS toks
  FROM documents
)
SELECT doc_id,
       CASE WHEN length(norm) >= 25 THEN norm ELSE '' END AS text_extracted,
       upper(array_to_string(toks[1:5], ' ')) AS image_extracted,
       CASE WHEN len(toks) >= 10
            THEN upper(array_to_string(toks[6:7], ' ') || ' ' || array_to_string(toks[8:10], ' '))
            ELSE '' END AS pdf_extracted
FROM base ORDER BY doc_id
"""


def extract_error_audit(sf_dir: str) -> pd.DataFrame:
    """End-to-end audit of the M9 error channel (reference keeps
    failed regions in-band, std-ocr/serving_server.py error path):
    image media payloads for every doc_id divisible by 17 are DROPPED
    before the join, the full extraction pipeline runs, and the
    output must show exactly one in-band error span for the planted
    docs (n_spans stays 3 — dropping rows would break span-sequence
    equality) and zero everywhere else. Oracle-checkable because the
    plant is deterministic in doc_id.
    """
    docs, media = interleaved_datasets(sf_dir, "synthetic")

    def _drop_planted(t: pa.Table) -> pa.Table:
        keep = []
        for ref, kind in zip(t["media_ref"].to_pylist(), t["kind"].to_pylist()):
            n = int(ref.split("/")[2][4:])
            keep.append(not (kind == "image" and n % 17 == 0))
        return t.filter(pa.array(keep))

    media = media.map_batches(_drop_planted, batch_format="pyarrow")
    out = build_extraction_pipeline(docs, media, media_mode="join")

    def _summarize(t: pa.Table) -> pa.Table:
        ids = [int(d[4:]) for d in t["doc_id"].to_pylist()]
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_spans": t["n_spans"],
                "n_errors": t["n_errors"],
            }
        )

    df = out.map_batches(_summarize, batch_format="pyarrow").to_pandas()
    df["n_spans"] = df["n_spans"].astype("int64")
    df["n_errors"] = df["n_errors"].astype("int64")
    return df.sort_values("doc_id").reset_index(drop=True)


EXTRACT_ERROR_AUDIT_SQL = """
SELECT doc_id, CAST(3 AS BIGINT) AS n_spans,
       CAST(CASE WHEN doc_id % 17 = 0 THEN 1 ELSE 0 END AS BIGINT) AS n_errors
FROM documents ORDER BY doc_id
"""


def extract_split_kinds(sf_dir: str) -> pd.DataFrame:
    """The SKEW-ROUTED extraction topology under the oracle gate:
    ``split_kinds=True`` stages exploded span rows under
    :data:`SPLIT_STAGE_DIR` partitioned by route, routes light HTML
    rows through stateless tasks and image/pdf rows through dedicated
    actor pools (pdf with the small batch cap — the north rule's
    heavy-row requirement), then reassembles through the bucketized
    doc_id shuffle. Routing reads page counts from the broadcast
    store, so the media Dataset is collected into one Arrow table
    (broadcast is the small-media regime by definition). The output
    must be IDENTICAL to the join topology — same oracle as
    `extract_interleaved`, so topology choice provably never changes
    results.
    """
    shutil.rmtree(SPLIT_STAGE_DIR, ignore_errors=True)

    docs, media = interleaved_datasets(sf_dir, "synthetic")
    media_table = pa.concat_tables(ray.get(media.to_arrow_refs()))
    out = build_extraction_pipeline(
        docs, media_table, split_kinds=True, stage_dir=SPLIT_STAGE_DIR
    )

    df = out.map_batches(_unwrap_batch, batch_format="pyarrow").to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)
