"""Text-analysis pipelines over the ``documents`` table: token counts,
fingerprints, language ID, quality scoring.

All stages are ``map_batches`` transforms; the regex/stopword state is
compiled once per actor (the reference's load-once-per-worker pattern,
reference std-detection/api.py:40-60, for lightweight state).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from ocr_pipeline_ray.functions.textstats import (
    TOKEN_RE,
    detect_language,
    fingerprint_md5,
    quality_stats,
)
from ocr_pipeline_ray.pipelines.relational import _read


def fingerprints(sf_dir: str) -> pd.DataFrame:
    """(doc_id, fp): md5 of whitespace-normalized lowercase text."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def f(t: pa.Table) -> pa.Table:
        fps = [fingerprint_md5(s) for s in t["text"].to_pylist()]
        return pa.Table.from_arrays([t["doc_id"], pa.array(fps, pa.string())], names=["doc_id", "fp"])

    return ds.map_batches(f, batch_format="pyarrow").to_pandas().sort_values("doc_id").reset_index(drop=True)


FINGERPRINTS_SQL = r"""
SELECT doc_id, md5(lower(trim(regexp_replace(text, '\s+', ' ', 'g')))) AS fp
FROM documents ORDER BY doc_id
"""


def vocab_top_terms(sf_dir: str, k: int = 50) -> pd.DataFrame:
    """Corpus vocabulary: top-k tokens by total count (the
    vocab-building / n-gram-counting primitive of a training-data
    pipeline). Per-batch term counting is one ``np.unique`` over the
    batch's concatenated token stream; totals combine through the
    high-cardinality-safe bucketed aggregate (the vocabulary IS the
    key domain), and the top-k is a per-batch partial reduce.
    Deterministic tie-break: count desc, term asc."""
    import numpy as np

    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate, partial_topk

    ds = _read(sf_dir, "documents", columns=["text"])

    def count_batch(t: pa.Table) -> pa.Table:
        toks: list[str] = []
        for s in t["text"].to_pylist():
            toks.extend(TOKEN_RE.findall(s.lower()))
        if not toks:
            return pa.Table.from_pydict(
                {"term": pa.array([], pa.string()), "n": pa.array([], pa.int64())}
            )
        uniq, counts = np.unique(np.asarray(toks, dtype=object), return_counts=True)
        return pa.Table.from_pydict(
            {"term": pa.array(list(uniq), pa.string()), "n": pa.array(counts, pa.int64())}
        )

    totals = bucketed_aggregate(
        ds.map_batches(count_batch, batch_format="pyarrow"),
        "term",
        {"n": ("n", "sum")},
        num_buckets=16,
    )
    out = partial_topk(totals, by=["n", "term"], ascending=[False, True], k=k)
    out["n"] = out["n"].astype("int64")
    return out[["term", "n"]].reset_index(drop=True)


def curate_corpus(sf_dir: str, min_quality: float = 0.5, langs=("en", "unknown")) -> pd.DataFrame:
    """End-to-end corpus curation COMPOSITION — the shape of a real
    training-data job: one streaming pass computes quality + language
    per doc and filters; survivors emit (md5, doc_id) pairs; the
    bucketed min-per-hash aggregate keeps one doc per identical text.
    Output: surviving doc_ids (oracle-checked — the quality, language
    and md5-dedup components are each SQL-expressible, so the whole
    composition has a DuckDB oracle)."""
    import hashlib

    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def _signals(t: pa.Table) -> pa.Table:
        ids, hs = [], []
        for did, s in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            if quality_stats(s)["quality_score"] < min_quality:
                continue
            if detect_language(s) not in langs:
                continue
            ids.append(did)
            hs.append(hashlib.md5(s.encode("utf-8")).hexdigest())
        return pa.Table.from_pydict(
            {"doc_id": pa.array(ids, pa.int64()), "h": pa.array(hs, pa.string())}
        )

    out = (
        bucketed_aggregate(
            ds.map_batches(_signals, batch_format="pyarrow"),
            "h", {"doc_id": ("doc_id", "min")},
        )
        .to_pandas()
    )
    if out.empty:
        return pd.DataFrame({"doc_id": pd.Series(dtype="int64")})
    return out[["doc_id"]].sort_values("doc_id").reset_index(drop=True)


def repetition_stats(sf_dir: str) -> pd.DataFrame:
    """Gopher-style repetition signals per doc: fraction of tokens in
    duplicate lines, and the share of the most frequent word bigram —
    the repetition filters every curation pipeline runs before
    training. Stateless map; fractions are raw IEEE integer ratios
    (bit-equal to the DuckDB oracle's DOUBLE division) and the
    heuristics are additionally property-tested on planted docs."""
    import numpy as np

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def f(t: pa.Table) -> pa.Table:
        ids, dup_line_frac, top_bigram_frac = [], [], []
        for did, s in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            lines = [ln.strip() for ln in s.splitlines() if ln.strip()]
            toks = TOKEN_RE.findall(s.lower())
            n_tok = len(toks)
            if lines and n_tok:
                seen: dict[str, int] = {}
                dup_tokens = 0
                for ln in lines:
                    k = len(TOKEN_RE.findall(ln))
                    if ln in seen:
                        dup_tokens += k
                    seen[ln] = seen.get(ln, 0) + 1
                dl = dup_tokens / n_tok
            else:
                dl = 0.0
            if n_tok >= 2:
                bigrams = [f"{a} {b}" for a, b in zip(toks, toks[1:])]
                _, counts = np.unique(np.asarray(bigrams, dtype=object), return_counts=True)
                tb = float(counts.max()) / len(bigrams)
            else:
                tb = 0.0
            ids.append(did)
            dup_line_frac.append(dl)
            top_bigram_frac.append(tb)
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "dup_line_frac": pa.array(dup_line_frac, pa.float64()),
                "top_bigram_frac": pa.array(top_bigram_frac, pa.float64()),
            }
        )

    return (
        ds.map_batches(f, batch_format="pyarrow")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


SEG_IDX_BITS = 32  # (doc_id, seg_idx) packed into one int64 order key


def segment_dedup(sf_dir: str, seg_len: int = 3) -> pd.DataFrame:
    """GLOBAL exact segment-level dedup (the paragraph-dedup shape for
    corpora whose docs are flat token streams): split every doc into
    consecutive ``seg_len``-token segments and keep only the FIRST
    occurrence of each distinct segment corpus-wide, ordered by
    (doc_id, seg_idx).

    Distributed first-occurrence = a MIN aggregate over a packed
    ``doc_id << 32 | seg_idx`` order key, grouped by segment text —
    high-cardinality, so it rides :func:`bucketed_aggregate` (per-batch
    partial min + one coarse-bucket shuffle). No driver set, no
    whole-corpus materialization; output rows decode the packed key
    back to (doc_id, seg_idx).

    Output: (doc_id, seg_idx, seg) of kept segments.
    """
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    assert seg_len > 0

    def _segs(t: pa.Table) -> pd.DataFrame:
        doc_ids, idxs, segs = [], [], []
        for did, s in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            toks = TOKEN_RE.findall(s)
            for i in range(0, len(toks), seg_len):
                doc_ids.append(did)
                idxs.append(i // seg_len)
                segs.append(" ".join(toks[i : i + seg_len]))
        import numpy as np

        di = np.asarray(doc_ids, dtype="int64")
        ix = np.asarray(idxs, dtype="int64")
        # loud guard: overflowing either field would silently attribute
        # kept segments to the wrong document
        if len(ix) and (ix.max() >= (1 << SEG_IDX_BITS) or di.max() >= (1 << (63 - SEG_IDX_BITS))):
            raise ValueError(
                f"segment_dedup: doc_id/seg_idx exceed the {63 - SEG_IDX_BITS}/"
                f"{SEG_IDX_BITS}-bit pack (doc {di.max()}, seg {ix.max()})"
            )
        df = pd.DataFrame({"seg": segs})
        df["order"] = (di << SEG_IDX_BITS) | ix
        return df

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        _segs, batch_format="pyarrow"
    )
    first = bucketed_aggregate(ds, "seg", {"first_order": ("order", "min")})

    def _decode(df: pd.DataFrame) -> pd.DataFrame:
        import numpy as np

        order = df["first_order"].to_numpy().astype("int64")
        return pd.DataFrame(
            {
                "doc_id": order >> SEG_IDX_BITS,
                "seg_idx": order & ((1 << SEG_IDX_BITS) - 1),
                "seg": df["seg"].to_numpy(),
            }
        )

    out = first.map_batches(_decode, batch_format="pandas").to_pandas()
    return out.sort_values(["doc_id", "seg_idx"]).reset_index(drop=True)


SEGMENT_DEDUP_SQL = r"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(text, '[A-Za-z0-9_]+') AS ts FROM documents
), segs AS (
  SELECT doc_id, i - 1 AS seg_idx,
         array_to_string(ts[(i - 1) * 3 + 1 : (i - 1) * 3 + 3], ' ') AS seg
  FROM (SELECT doc_id, ts,
               unnest(range(1, CAST(ceil(len(ts) / 3.0) AS BIGINT) + 1)) AS i
        FROM toks)
), ranked AS (
  SELECT doc_id, seg_idx, seg,
         row_number() OVER (PARTITION BY seg ORDER BY doc_id, seg_idx) AS rn
  FROM segs
)
SELECT doc_id, CAST(seg_idx AS BIGINT) AS seg_idx, seg
FROM ranked WHERE rn = 1 ORDER BY doc_id, seg_idx
"""


def heavy_hitter_terms(
    sf_dir: str,
    min_frac: float = 0.033,
    width: int = 1 << 14,
    depth: int = 4,
    reduce_partitions: int = 8,
) -> pd.DataFrame:
    """Heavy hitters: every term whose corpus-wide count is at least
    ``ceil(min_frac * total_tokens)`` — exact result, sketch-powered
    plan (the count-min analog of the Bloom semi join:
    sketch PRE-filter + exact verify, so approximation costs work,
    never correctness):

    1. one pass builds per-batch partials — a count-min sketch over
       the batch's term counts, the batch token total, and the batch's
       LOCAL heavy hitters (count >= min_frac * batch_total; by
       pigeonhole every global heavy hitter is a local one in at
       least one batch, so the union is an exact candidate superset) —
       tree-reduced in-dataset (CMS merge is elementwise +), the
       driver sees only ``reduce_partitions`` fixed-size rows;
    2. the merged sketch prunes candidates (CMS never underestimates,
       so pruning keeps the superset property);
    3. a second pass exact-counts the surviving candidates (broadcast
       set, per-batch partials, tiny driver combine) and applies the
       true threshold.

    Output: (term, n) for terms with n >= ceil(min_frac * N), count
    desc then term asc.
    """
    import math

    import numpy as np

    from ocr_pipeline_ray.functions.sketches import CountMinSketch

    ds = _read(sf_dir, "documents", columns=["text"])

    def _term_counts(t: pa.Table):
        toks: list[str] = []
        for s in t["text"].to_pylist():
            toks.extend(TOKEN_RE.findall(s.lower()))
        if not toks:
            return None, None
        return np.unique(np.asarray(toks, dtype=object), return_counts=True)

    def _hash_terms(terms) -> "np.ndarray":
        return pd.util.hash_pandas_object(pd.Series(terms, dtype=object), index=False).to_numpy()

    def _partial(t: pa.Table) -> pa.Table:
        uniq, counts = _term_counts(t)
        if uniq is None:
            uniq, counts = np.array([], dtype=object), np.array([], dtype=np.int64)
        cms = CountMinSketch(width, depth).add(_hash_terms(uniq), counts)
        total = int(counts.sum())
        cands = [str(x) for x in uniq[counts >= min_frac * total]] if total else []
        return pa.Table.from_pydict(
            {
                "cms": pa.array([cms.table.tobytes()], pa.binary()),
                "total": pa.array([total], pa.int64()),
                "cands": pa.array([cands], pa.list_(pa.string())),
            }
        )

    def _merge_partition(t: pa.Table) -> pa.Table:
        acc = np.zeros((depth, width), dtype=np.int64)
        total = 0
        cands: set[str] = set()
        for blob, n, cl in zip(t["cms"].to_pylist(), t["total"].to_pylist(), t["cands"].to_pylist()):
            acc += np.frombuffer(blob, dtype=np.int64).reshape(depth, width)
            total += n
            cands.update(cl)
        return pa.Table.from_pydict(
            {
                "cms": pa.array([acc.tobytes()], pa.binary()),
                "total": pa.array([total], pa.int64()),
                "cands": pa.array([sorted(cands)], pa.list_(pa.string())),
            }
        )

    rows = (
        # batch_size=None -> one 512 KiB CMS partial per BLOCK, not per
        # default-sized batch (the partial is fixed-size, so fewer,
        # bigger adds cut the shuffled partial bytes ~10x)
        ds.map_batches(_partial, batch_format="pyarrow", batch_size=None)
        .repartition(reduce_partitions)
        .map_batches(_merge_partition, batch_format="pyarrow", batch_size=None)
        .take_all()
    )
    assert len(rows) <= reduce_partitions
    cms = CountMinSketch(width, depth)
    n_total = 0
    cand_union: set[str] = set()
    for row in rows:
        cms.table += np.frombuffer(row["cms"], dtype=np.int64).reshape(depth, width)
        n_total += row["total"]
        cand_union.update(row["cands"])
    if not n_total:
        return pd.DataFrame({"term": pd.Series(dtype="object"), "n": pd.Series(dtype="int64")})
    thresh = math.ceil(min_frac * n_total)
    cands = np.array(sorted(cand_union), dtype=object)
    cands = cands[cms.estimate(_hash_terms(cands)) >= thresh]

    cand_ref = ray.put(np.sort(cands))

    def _verify(t: pa.Table) -> pa.Table:
        uniq, counts = _term_counts(t)
        if uniq is None:
            return pa.Table.from_pydict(
                {"term": pa.array([], pa.string()), "n": pa.array([], pa.int64())}
            )
        keep = np.isin(uniq, ray.get(cand_ref))
        return pa.Table.from_pydict(
            {"term": pa.array(list(uniq[keep]), pa.string()), "n": pa.array(counts[keep], pa.int64())}
        )

    parts = ds.map_batches(_verify, batch_format="pyarrow").to_pandas()
    out = parts.groupby("term", as_index=False)["n"].sum()
    out = out[out["n"] >= thresh].sort_values(["n", "term"], ascending=[False, True])
    out["n"] = out["n"].astype("int64")
    return out.reset_index(drop=True)


HEAVY_HITTER_TERMS_SQL = r"""
WITH toks AS (
  SELECT unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS term FROM documents
), tot AS (SELECT count(*) AS n FROM toks)
SELECT term, CAST(count(*) AS BIGINT) AS n
FROM toks GROUP BY term
HAVING count(*) >= ceil(0.033 * (SELECT n FROM tot))
ORDER BY n DESC, term
"""


def stratified_sample(sf_dir: str, k: int = 5) -> pd.DataFrame:
    """Deterministic stratified sample: the k docs per ``source``
    stratum with the smallest md5(doc_id) — reproducible on any
    cluster size (pure hash order, no RNG state), equal-depth across
    strata regardless of stratum skew.

    Distributed shape: per-batch top-k per stratum (vectorized
    hash + groupby head), driver combines k x strata x batches
    partial rows — the corpus never shuffles (same partial-top-k
    shape as knn).
    """
    import hashlib

    ds = _read(sf_dir, "documents", columns=["doc_id", "source"])

    def _local(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(h=[hashlib.md5(str(int(d)).encode()).hexdigest() for d in df["doc_id"]])
        return df.sort_values(["h", "doc_id"]).groupby("source", sort=False).head(k)

    parts = ds.map_batches(_local, batch_format="pandas").to_pandas()
    out = (
        parts.sort_values(["h", "doc_id"])
        .groupby("source", sort=False)
        .head(k)[["source", "doc_id"]]
        .sort_values(["source", "doc_id"])
        .reset_index(drop=True)
    )
    return out.astype({"doc_id": "int64"})


STRATIFIED_SAMPLE_SQL = r"""
SELECT source, doc_id FROM (
  SELECT source, doc_id,
         row_number() OVER (PARTITION BY source ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id) AS rn
  FROM documents
) WHERE rn <= 5 ORDER BY source, doc_id
"""


def _apply_merges(sym: list[str], merges: list[tuple[str, str]]) -> list[str]:
    """Apply learned merges in rank order, left-to-right non-overlapping
    (the Sennrich-BPE apply rule)."""
    for left, right in merges:
        i, out = 0, []
        while i < len(sym):
            if i + 1 < len(sym) and sym[i] == left and sym[i + 1] == right:
                out.append(left + right)
                i += 2
            else:
                out.append(sym[i])
                i += 1
        sym = out
    return sym


def bpe_learn_merges(sf_dir: str, n_merges: int = 8) -> pd.DataFrame:
    """BPE tokenizer TRAINING (Sennrich 2016) as a distributed
    iterative pipeline: one corpus pass reduces to the word-type
    vocabulary (word, count) — the only corpus-scale step — then each
    merge round is (a) broadcast the merges learned so far, (b)
    ``map_batches`` over the vocab re-segments each word and emits
    weighted adjacent-pair partials, (c) a bucketed aggregate + tiny
    top-1 picks the most frequent pair (ties: lexicographic). The
    corpus never moves after pass 1; each round moves only (pair,
    count) partials. Deterministic; no SQL oracle (iterative
    algorithm) — rows-only + pytest vs an independent single-process
    reference implementation.

    Output: (rank, left, right, n) per learned merge."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate, partial_topk

    ds = _read(sf_dir, "documents", columns=["text"])

    def _word_counts(t: pa.Table) -> pd.DataFrame:
        from collections import Counter

        c = Counter()
        for s in t["text"].to_pylist():
            c.update(w.lower() for w in TOKEN_RE.findall(s))
        return pd.DataFrame({"word": list(c.keys()), "n": list(c.values())})

    vocab = bucketed_aggregate(
        ds.map_batches(_word_counts, batch_format="pyarrow"), "word", {"n": ("n", "sum")}
    ).materialize()

    merges: list[tuple[str, str]] = []
    out_rows = []
    for rank in range(n_merges):
        merges_ref = ray.put(list(merges))

        def _pair_partials(df: pd.DataFrame) -> pd.DataFrame:
            from collections import Counter

            ms = ray.get(merges_ref)
            c = Counter()
            for word, n in zip(df["word"], df["n"]):
                sym = _apply_merges(list(word), ms)
                for a, b in zip(sym, sym[1:]):
                    c[(a, b)] += int(n)
            if not c:
                return pd.DataFrame(
                    {"left": pd.Series(dtype="object"), "right": pd.Series(dtype="object"), "n": pd.Series(dtype="int64")}
                )
            ks = list(c.keys())
            return pd.DataFrame(
                {"left": [k[0] for k in ks], "right": [k[1] for k in ks], "n": list(c.values())}
            )

        pair_counts = bucketed_aggregate(
            vocab.map_batches(_pair_partials, batch_format="pandas"),
            ["left", "right"],
            {"n": ("n", "sum")},
        )
        top = partial_topk(
            pair_counts, by=["n", "left", "right"], ascending=[False, True, True], k=1
        )
        if top.empty:
            break
        best = (str(top["left"].iloc[0]), str(top["right"].iloc[0]))
        out_rows.append((rank, best[0], best[1], int(top["n"].iloc[0])))
        merges.append(best)
    return pd.DataFrame(out_rows, columns=["rank", "left", "right", "n"]).astype(
        {"rank": "int64", "n": "int64"}
    )


def bpe_first_merge(sf_dir: str) -> pd.DataFrame:
    """The FIRST BPE merge round as an exact-oracle anchor for the
    iterative trainer (the anchor pattern for iterative algorithms:
    the first iterate is closed-form even when the fixpoint is not).
    With zero merges learned, every word segments to characters, so
    round 1 is exactly 'the most frequent weighted adjacent character
    pair, ties lexicographic' — a pure SQL aggregate over the same
    word-type vocabulary. Runs the IDENTICAL distributed machinery
    (corpus -> vocab reduce -> pair partials -> bucketed aggregate ->
    top-1) as the full trainer, for one round."""
    return bpe_learn_merges(sf_dir, n_merges=1)


BPE_FIRST_MERGE_SQL = r"""
WITH toks AS (
  SELECT unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS w FROM documents
),
wc AS (SELECT w, count(*) AS n FROM toks GROUP BY w),
pairs AS (
  SELECT substr(w, CAST(i AS INTEGER), 1) AS l,
         substr(w, CAST(i AS INTEGER) + 1, 1) AS r,
         sum(n) AS n
  FROM (SELECT w, n, unnest(range(1, length(w))) AS i FROM wc)
  GROUP BY 1, 2
)
SELECT CAST(0 AS BIGINT) AS "rank", l AS "left", r AS "right", CAST(n AS BIGINT) AS n
FROM pairs ORDER BY n DESC, l, r LIMIT 1
"""


def source_term_divergence(sf_dir: str, num_buckets: int = 16) -> pd.DataFrame:
    """Per-source KL divergence of the source's term distribution vs
    the whole corpus — the domain-shift / contamination diagnostic of
    a training-data mix. ONE shuffle:

        KL_s = (1/tot_s) * sum_t n_st * ln(n_st / cn_t)
               - ln(tot_s) + ln(C)

    so once (source, term) partial counts co-locate by TERM hash
    bucket, the corpus term count cn_t is local to the bucket and each
    bucket emits per-source (sum n*ln(n/cn), sum n) partials — the
    driver reduces buckets x sources rows and applies the closed form.
    Neither the vocabulary nor the corpus ever reaches the driver."""
    import numpy as np

    ds = _read(sf_dir, "documents", columns=["source", "text"])

    def count_batch(df: pd.DataFrame) -> pd.DataFrame:
        src_all: list[str] = []
        tok_all: list[str] = []
        for src, s in zip(df["source"], df["text"]):
            toks = TOKEN_RE.findall(s.lower())
            tok_all.extend(toks)
            src_all.extend([src] * len(toks))
        if not tok_all:
            return pd.DataFrame(
                {"source": pd.Series(dtype="object"), "term": pd.Series(dtype="object"),
                 "n": pd.Series(dtype="int64")}
            )
        out = (
            pd.DataFrame({"source": src_all, "term": tok_all})
            .groupby(["source", "term"], sort=False)
            .size()
            .reset_index(name="n")
        )
        out["n"] = out["n"].astype("int64")
        return out

    def add_term_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["__bucket"] = (
            pd.util.hash_array(df["term"].to_numpy(dtype=object)) % num_buckets
        ).astype("int64")
        return df

    def _bucket_partials(g: pd.DataFrame) -> pd.DataFrame:
        # co-located by term hash: every (source, term) partial for a
        # term is HERE, so cn_t is exact within the group
        sc = g.groupby(["source", "term"], sort=False)["n"].sum().reset_index()
        cn = sc.groupby("term", sort=False)["n"].sum().rename("cn")
        sc = sc.join(cn, on="term")
        nv = sc["n"].to_numpy(dtype=np.float64)
        contrib = nv * np.log(nv / sc["cn"].to_numpy(dtype=np.float64))
        sc = sc.assign(part=contrib)
        out = sc.groupby("source", sort=False).agg(
            part=("part", "sum"), tot=("n", "sum")
        ).reset_index()
        out["tot"] = out["tot"].astype("int64")
        return out[["source", "part", "tot"]]

    parts = (
        ds.map_batches(count_batch, batch_format="pandas")
        .map_batches(add_term_bucket, batch_format="pandas")
        .groupby("__bucket")
        .map_groups(_bucket_partials, batch_format="pandas")
        .to_pandas()
    )
    agg = parts.groupby("source").agg(part=("part", "sum"), tot=("tot", "sum")).reset_index()
    C = float(agg["tot"].sum())
    tot = agg["tot"].to_numpy(dtype=np.float64)
    kl = agg["part"].to_numpy() / tot - np.log(tot) + np.log(C)
    out = pd.DataFrame(
        {"source": agg["source"], "n_terms": agg["tot"].astype("int64"), "kl": np.round(kl, 4)}
    )
    return out.sort_values("source").reset_index(drop=True)


SOURCE_TERM_DIVERGENCE_SQL = """
WITH tok AS (
  SELECT source, t.term
  FROM documents, unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS t(term)
),
sc AS (SELECT source, term, count(*) AS n FROM tok GROUP BY source, term),
stot AS (SELECT source, sum(n) AS tot FROM sc GROUP BY source),
ct AS (SELECT term, sum(n) AS cn FROM sc GROUP BY term),
ctot AS (SELECT sum(n) AS c FROM sc)
SELECT sc.source, CAST(stot.tot AS BIGINT) AS n_terms,
       round(sum((sc.n / stot.tot) * ln((sc.n / stot.tot) / (ct.cn / ctot.c))), 4) AS kl
FROM sc
JOIN stot ON sc.source = stot.source
JOIN ct ON sc.term = ct.term
CROSS JOIN ctot
GROUP BY sc.source, stot.tot
ORDER BY sc.source
"""


# ---------------------------------------------------------------------------
# CCNet-style bigram-LM perplexity quality scoring
# ---------------------------------------------------------------------------

def doc_perplexity(sf_dir: str) -> pd.DataFrame:
    """CCNet-style (Wenzek et al. 2020) language-model quality scoring:
    train an add-one-smoothed bigram LM on the corpus, then score every
    document by its average negative log-likelihood (low = fluent /
    in-distribution, high = boilerplate-ish or noisy — the CCNet
    head/middle/tail split keys off exactly this number).

    Two streaming passes, both scale-shaped:

    1. TRAIN — per-batch unigram and bigram count partials over the
       tokenized text ride :func:`bucketed_aggregate` on the token key
       domain (the vocabulary, NOT the corpus, bounds the shuffle).
    2. SCORE — the count tables broadcast once (``ray.put``; in CCNet
       the LM is trained on a fixed reference corpus, so the model is
       small relative to the 100 TB being scored — top-K bigram pruning
       is the knob if vocabulary ever outgrows a worker heap) and each
       batch scores its docs vectorized: token→count lookups via
       pandas ``Series.map`` over the whole batch's token stream, one
       log over the stacked array.

    P(w2|w1) = (c(w1 w2) + 1) / (c(w1) + V); avg_nll = -mean log P
    over the doc's bigram positions; docs with < 2 tokens drop (no
    bigram support), matching the SQL oracle's join semantics."""
    import numpy as np

    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def _uni_partial(t: pa.Table) -> pd.DataFrame:
        toks: list[str] = []
        for s in t["text"].to_pylist():
            toks.extend(TOKEN_RE.findall(s))
        d = pd.DataFrame({"tok": toks, "c": 1})
        return d.groupby("tok", as_index=False).sum()

    def _bi_partial(t: pa.Table) -> pd.DataFrame:
        w1: list[str] = []
        w2: list[str] = []
        for s in t["text"].to_pylist():
            ts = TOKEN_RE.findall(s)
            w1.extend(ts[:-1])
            w2.extend(ts[1:])
        d = pd.DataFrame({"w1": w1, "w2": w2, "c": 1})
        return d.groupby(["w1", "w2"], as_index=False).sum()

    uni = bucketed_aggregate(
        docs.map_batches(_uni_partial, batch_format="pyarrow"),
        "tok", {"c": ("c", "sum")}, num_buckets=16,
    ).to_pandas()
    bi = bucketed_aggregate(
        docs.map_batches(_bi_partial, batch_format="pyarrow"),
        ["w1", "w2"], {"c": ("c", "sum")}, num_buckets=16,
    ).to_pandas()
    vocab_size = len(uni)
    uni_map = dict(zip(uni["tok"], uni["c"].astype(np.float64)))
    bi_map = dict(
        zip(bi["w1"].str.cat(bi["w2"], sep="\x00"), bi["c"].astype(np.float64))
    )
    uni_ref = ray.put(uni_map)
    bi_ref = ray.put(bi_map)

    def _score(t: pa.Table) -> pd.DataFrame:
        u = ray.get(uni_ref)
        b = ray.get(bi_ref)
        ids, firsts, seconds, pos_doc = [], [], [], []
        for doc_id, s in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            ts = TOKEN_RE.findall(s)
            if len(ts) < 2:
                continue
            ids.append(doc_id)
            firsts.extend(ts[:-1])
            seconds.extend(ts[1:])
            pos_doc.extend([len(ids) - 1] * (len(ts) - 1))
        if not ids:
            return pd.DataFrame({
                "doc_id": pd.Series(dtype="int64"),
                "n_bigrams": pd.Series(dtype="int64"),
                "avg_nll": pd.Series(dtype="float64"),
            })
        w1 = pd.Series(firsts)
        key = w1.str.cat(pd.Series(seconds), sep="\x00")
        cb = key.map(b).fillna(0.0).to_numpy(np.float64)
        cu = w1.map(u).to_numpy(np.float64)  # w1 always in vocab (trained on same corpus)
        logp = np.log((cb + 1.0) / (cu + vocab_size))
        grp = np.asarray(pos_doc)
        sums = np.bincount(grp, weights=-logp, minlength=len(ids))
        cnts = np.bincount(grp, minlength=len(ids))
        return pd.DataFrame({
            "doc_id": pd.Series(ids, dtype="int64"),
            "n_bigrams": cnts.astype("int64"),
            "avg_nll": np.round(sums / cnts, 4),
        })

    out = docs.map_batches(_score, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


DOC_PERPLEXITY_SQL = r"""
WITH toks AS (
  SELECT doc_id, unnest(arr) AS tok, generate_subscripts(arr, 1) AS pos
  FROM (SELECT doc_id, regexp_extract_all(text, '[A-Za-z0-9_]+') AS arr FROM documents)
),
big AS (
  SELECT doc_id, lag(tok) OVER (PARTITION BY doc_id ORDER BY pos) AS w1, tok AS w2
  FROM toks
  QUALIFY w1 IS NOT NULL
),
uni AS (SELECT tok AS w, count(*) AS cu FROM toks GROUP BY 1),
bi AS (SELECT w1, w2, count(*) AS cb FROM big GROUP BY 1, 2),
v AS (SELECT count(*) AS vs FROM uni)
SELECT big.doc_id, count(*) AS n_bigrams,
       round(-avg(ln((bi.cb + 1.0) / (uni.cu + v.vs))), 4) AS avg_nll
FROM big
JOIN bi USING (w1, w2)
JOIN uni ON big.w1 = uni.w
CROSS JOIN v
GROUP BY big.doc_id
ORDER BY big.doc_id
"""


# ---------------------------------------------------------------------------
# decontamination + substring-level duplication (Lee et al. 2021 shapes)
# ---------------------------------------------------------------------------

_NGRAM_N = 8


def _doc_ngrams(tokens: list[str], n: int = _NGRAM_N) -> list[str]:
    return [" ".join(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def benchmark_contamination(sf_dir: str) -> pd.DataFrame:
    """GPT-3/PaLM-style benchmark decontamination: flag training
    documents that share an 8-token n-gram with a held-out benchmark
    set (here: the deterministic ``doc_id % 50 == 0`` slice stands in
    for e.g. MMLU — the benchmark is SMALL by construction, which is
    the whole point of the broadcast topology).

    Pass 1 streams only the benchmark slice and collects its distinct
    n-grams; that set ships once (``ray.put``) and every training batch
    probes it vectorized (``Series.isin`` — a hash probe per gram, no
    shuffle anywhere). Output: per contaminated doc, total grams, hit
    count and hit fraction. At 100 TB the training side streams once
    against a fixed ~MB-scale benchmark set."""
    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def _bench_grams(t: pa.Table) -> pd.DataFrame:
        grams: set[str] = set()
        for doc_id, s in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            if doc_id % 50 == 0:
                grams.update(_doc_ngrams(TOKEN_RE.findall(s)))
        return pd.DataFrame({"g": sorted(grams)})

    bench = set(
        docs.map_batches(_bench_grams, batch_format="pyarrow").to_pandas()["g"]
    )
    bench_ref = ray.put(bench)

    def _probe(t: pa.Table) -> pd.DataFrame:
        bset = ray.get(bench_ref)
        ids, gs, owner = [], [], []
        for doc_id, s in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            if doc_id % 50 == 0:
                continue
            ng = _doc_ngrams(TOKEN_RE.findall(s))
            ids.append((doc_id, len(ng)))
            gs.extend(ng)
            owner.extend([len(ids) - 1] * len(ng))
        if not ids:
            return pd.DataFrame({
                "doc_id": pd.Series(dtype="int64"),
                "n_grams": pd.Series(dtype="int64"),
                "n_hits": pd.Series(dtype="int64"),
            })
        hit = pd.Series(gs).isin(bset).to_numpy()
        import numpy as np

        hits = np.bincount(
            np.asarray(owner), weights=hit.astype(np.float64), minlength=len(ids)
        ).astype("int64")
        out = pd.DataFrame(
            {
                "doc_id": [d for d, _ in ids],
                "n_grams": [n for _, n in ids],
                "n_hits": hits,
            }
        )
        return out[out["n_hits"] > 0]

    out = docs.map_batches(_probe, batch_format="pyarrow").to_pandas()
    if len(out) == 0:
        return pd.DataFrame(
            {"doc_id": pd.Series(dtype="int64"), "n_grams": pd.Series(dtype="int64"),
             "n_hits": pd.Series(dtype="int64"), "hit_frac": pd.Series(dtype="float64")}
        )
    out["hit_frac"] = (out["n_hits"] / out["n_grams"]).round(4)
    out["doc_id"] = out["doc_id"].astype("int64")
    out["n_grams"] = out["n_grams"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


_GRAM_WINDOW_SQL = r"""
grams AS (
  SELECT doc_id,
         concat_ws(' ', lag(tok, 7) OVER w, lag(tok, 6) OVER w, lag(tok, 5) OVER w,
                        lag(tok, 4) OVER w, lag(tok, 3) OVER w, lag(tok, 2) OVER w,
                        lag(tok, 1) OVER w, tok) AS g
  FROM toks
  WINDOW w AS (PARTITION BY doc_id ORDER BY pos)
  QUALIFY lag(tok, 7) OVER w IS NOT NULL
)
"""

BENCHMARK_CONTAMINATION_SQL = (
    r"""
WITH toks AS (
  SELECT doc_id, unnest(arr) AS tok, generate_subscripts(arr, 1) AS pos
  FROM (SELECT doc_id, regexp_extract_all(text, '[A-Za-z0-9_]+') AS arr FROM documents)
),
"""
    + _GRAM_WINDOW_SQL
    + r""",
bench AS (SELECT DISTINCT g FROM grams WHERE doc_id % 50 = 0),
train AS (SELECT * FROM grams WHERE doc_id % 50 <> 0),
hits AS (
  SELECT t.doc_id, count(*) AS n_hits
  FROM train t JOIN bench b USING (g) GROUP BY t.doc_id
),
totals AS (SELECT doc_id, count(*) AS n_grams FROM train GROUP BY doc_id)
SELECT totals.doc_id, totals.n_grams, hits.n_hits,
       round(hits.n_hits / CAST(totals.n_grams AS DOUBLE), 4) AS hit_frac
FROM hits JOIN totals USING (doc_id)
ORDER BY totals.doc_id
"""
)


def duplicate_ngram_spans(sf_dir: str, hash_grams: bool = False) -> pd.DataFrame:
    """Substring-level duplication profile (Lee et al. 2021,
    "Deduplicating Training Data Makes Language Models Better"): for
    every document, the fraction of its 8-token n-gram positions whose
    n-gram occurs MORE THAN ONCE across the whole corpus.

    Both sides are corpus-scale, so unlike the decontamination query
    nothing broadcasts: gram occurrences ride ONE hash shuffle on the
    gram key — per batch, (gram, doc_id) partial counts; per gram
    bucket, total counts resolve and only positions whose gram total
    > 1 emit (doc_id, dup_count) partials; a tiny bucketed aggregate
    per doc finishes. The shuffle is bounded by the distinct-gram
    domain, never by document payload bytes.

    ``hash_grams=True`` is the 100 TB knob: grams ship as stable u64
    hashes (8 bytes) instead of ~50-byte strings, shrinking the
    shuffle ~6×; a u64 collision inflates a count by one — harmless
    for a duplication PROFILE (tested equal on the test corpora). The
    oracle-exact default keeps strings."""
    import numpy as np

    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def _gram_rows(t: pa.Table) -> pd.DataFrame:
        ids, gs = [], []
        for doc_id, s in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            ng = _doc_ngrams(TOKEN_RE.findall(s))
            gs.extend(ng)
            ids.extend([doc_id] * len(ng))
        d = pd.DataFrame({"doc_id": ids, "g": gs})
        if hash_grams:
            d["g"] = pd.util.hash_pandas_object(d["g"], index=False).to_numpy()
        # partial: occurrences of gram g in doc d within this batch
        return d.groupby(["doc_id", "g"], as_index=False).size().rename(columns={"size": "c"})

    gram_rows = docs.map_batches(_gram_rows, batch_format="pyarrow")

    def _bucket(df: pd.DataFrame) -> pd.DataFrame:
        h = pd.util.hash_pandas_object(df["g"], index=False)
        df = df.copy()
        df["__bucket"] = (h.to_numpy() % 64).astype("int64")
        return df

    def _resolve(g: pd.DataFrame) -> pd.DataFrame:
        per_gram = g.groupby("g")["c"].transform("sum")
        dup = g[per_gram > 1]
        out = dup.groupby("doc_id", as_index=False)["c"].sum()
        return out.rename(columns={"c": "n_dup"})

    dup_partials = (
        gram_rows.map_batches(_bucket, batch_format="pandas")
        .groupby("__bucket")
        .map_groups(_resolve, batch_format="pandas")
    )
    per_doc_dup = bucketed_aggregate(
        dup_partials, "doc_id", {"n_dup": ("n_dup", "sum")}, num_buckets=16
    ).to_pandas()

    def _totals(t: pa.Table) -> pd.DataFrame:
        ids, ns = [], []
        for doc_id, s in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            ids.append(doc_id)
            ns.append(max(len(TOKEN_RE.findall(s)) - _NGRAM_N + 1, 0))
        return pd.DataFrame({"doc_id": ids, "n_grams": ns})

    totals = docs.map_batches(_totals, batch_format="pyarrow").to_pandas()
    out = totals[totals["n_grams"] > 0].merge(per_doc_dup, on="doc_id", how="left")
    out["n_dup"] = out["n_dup"].fillna(0).astype("int64")
    out["dup_frac"] = np.round(out["n_dup"] / out["n_grams"], 4)
    out["doc_id"] = out["doc_id"].astype("int64")
    out["n_grams"] = out["n_grams"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


DUPLICATE_NGRAM_SPANS_SQL = (
    r"""
WITH toks AS (
  SELECT doc_id, unnest(arr) AS tok, generate_subscripts(arr, 1) AS pos
  FROM (SELECT doc_id, regexp_extract_all(text, '[A-Za-z0-9_]+') AS arr FROM documents)
),
"""
    + _GRAM_WINDOW_SQL
    + r""",
gram_totals AS (SELECT g, count(*) AS n FROM grams GROUP BY g),
per_doc AS (
  SELECT grams.doc_id,
         count(*) AS n_grams,
         count(*) FILTER (gram_totals.n > 1) AS n_dup
  FROM grams JOIN gram_totals USING (g)
  GROUP BY grams.doc_id
)
SELECT doc_id, n_grams, n_dup,
       round(n_dup / CAST(n_grams AS DOUBLE), 4) AS dup_frac
FROM per_doc
ORDER BY doc_id
"""
)


# ---------------------------------------------------------------------------
# PII detection (C4 / Dolma-style curation stage)
# ---------------------------------------------------------------------------

# Deliberately simple patterns kept in lock-step with the DuckDB oracle
# below (RE2-compatible, no lookaround): the point is the distributed
# stage shape; production swaps in presidio-grade patterns behind the
# same seam.
_PII_EMAIL = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
_PII_PHONE = r"\+?[0-9]{3}[-. ][0-9]{3}[-. ][0-9]{4}"
_PII_IP = r"[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}"


def pii_counts(sf_dir: str) -> pd.DataFrame:
    """Per-document PII hit counts (emails, phone-shaped numbers,
    IPv4-shaped dotted quads) — the detection half of a C4/Dolma-style
    redaction stage, as a stateless ``map_batches`` scan with the
    three regexes compiled once per actor. Only docs with at least
    one hit emit (the 100 TB-side result is sparse).

    The synthetic corpus contains no PII, so every 20th doc gets a
    deterministic doc_id-derived email/IP (and every 40th a phone)
    PLANTED inside the pipeline — mirrored exactly in the SQL oracle —
    so the driver's check sees a nonzero, value-checked result instead
    of a vacuous empty table."""
    import re

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    class _Scan:
        def __init__(self):
            self.email = re.compile(_PII_EMAIL)
            self.phone = re.compile(_PII_PHONE)
            self.ip = re.compile(_PII_IP)

        def __call__(self, t: pa.Table) -> pd.DataFrame:
            ids, ne, np_, ni = [], [], [], []
            for doc_id, s in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
                if doc_id % 20 == 0:
                    s = f"{s} contact_{doc_id}@example.com from 10.0.{doc_id % 256}.{doc_id % 100}"
                if doc_id % 40 == 0:
                    s = f"{s} call {300 + doc_id % 700:03d}-555-{1000 + doc_id % 9000:04d}"
                e = len(self.email.findall(s))
                p = len(self.phone.findall(s))
                i = len(self.ip.findall(s))
                if e or p or i:
                    ids.append(doc_id)
                    ne.append(e)
                    np_.append(p)
                    ni.append(i)
            return pd.DataFrame(
                {
                    "doc_id": pd.Series(ids, dtype="int64"),
                    "n_emails": pd.Series(ne, dtype="int64"),
                    "n_phones": pd.Series(np_, dtype="int64"),
                    "n_ips": pd.Series(ni, dtype="int64"),
                }
            )

    # autoscale from 1: a FIXED pool of 4 can eat every CPU of a
    # small session and starve the upstream read (observed deadlock
    # under the 4-CPU pytest session)
    out = docs.map_batches(_Scan, batch_format="pyarrow", concurrency=(1, 4)).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


PII_COUNTS_SQL = rf"""
WITH planted AS (
  SELECT doc_id,
         text
         || CASE WHEN doc_id % 20 = 0
                 THEN ' contact_' || doc_id || '@example.com from 10.0.'
                      || (doc_id % 256) || '.' || (doc_id % 100)
                 ELSE '' END
         || CASE WHEN doc_id % 40 = 0
                 THEN ' call ' || printf('%03d', 300 + doc_id % 700)
                      || '-555-' || printf('%04d', 1000 + doc_id % 9000)
                 ELSE '' END AS text
  FROM documents
),
c AS (
  SELECT doc_id,
         len(regexp_extract_all(text, '{_PII_EMAIL}')) AS n_emails,
         len(regexp_extract_all(text, '{_PII_PHONE}')) AS n_phones,
         len(regexp_extract_all(text, '{_PII_IP}')) AS n_ips
  FROM planted
)
SELECT doc_id, CAST(n_emails AS BIGINT) AS n_emails,
       CAST(n_phones AS BIGINT) AS n_phones, CAST(n_ips AS BIGINT) AS n_ips
FROM c WHERE n_emails + n_phones + n_ips > 0
ORDER BY doc_id
"""


def compression_ratio(
    sf_dir: str, level: int = 6, plant_every: int | None = None
) -> pd.DataFrame:
    """Per-document zlib compression ratio — the Dolma/RedPajama-style
    redundancy signal (highly repetitive or templated text compresses
    far below natural prose; a common pre-training quality filter
    alongside the Gopher repetition rules). Stateless ``map_batches``
    scan; DEFLATE is not SQL-expressible, so correctness rides the
    pytest property tests (known-answer monotonicity: repeated text
    compresses strictly better than unique text) and the driver's
    rows-only check."""
    import zlib

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    if plant_every is not None:

        def _plant(t: pa.Table) -> pa.Table:
            ids = t["doc_id"].combine_chunks().to_numpy(zero_copy_only=False)
            clones = t.filter(pa.array(ids % plant_every == 0))
            new_ids = pa.array(
                clones["doc_id"].combine_chunks().to_numpy(zero_copy_only=False)
                + _COMP_PLANT,
                pa.int64(),
            )
            return pa.concat_tables(
                [t, clones.set_column(clones.schema.get_field_index("doc_id"), "doc_id", new_ids)]
            )

        docs = docs.map_batches(_plant, batch_format="pyarrow")

    def _scan(t: pa.Table) -> pd.DataFrame:
        ids, ratios, sizes = [], [], []
        for doc_id, s in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            raw = s.encode("utf-8")
            if not raw:
                continue
            comp = zlib.compress(raw, level)
            ids.append(doc_id)
            sizes.append(len(raw))
            ratios.append(round(len(comp) / len(raw), 4))
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "n_bytes": pd.Series(sizes, dtype="int64"),
                "zlib_ratio": pd.Series(ratios, dtype="float64"),
            }
        )

    out = docs.map_batches(_scan, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


_COMP_PLANT = 1_000_000_000


def compression_ratio_planted_clones(sf_dir: str, plant_every: int = 20) -> pd.DataFrame:
    """The zlib-scan machinery under an EXACT oracle via planted
    verbatim clones (DEFLATE itself is not SQL-expressible; identical
    bytes -> identical deflate stream IS structural): every
    ``plant_every``-th doc re-enters verbatim at ``doc_id + 1e9``
    inside the batch UDF, and each planted pair must report the
    identical (n_bytes, zlib_ratio). The pair check rides the entry's
    existing per-doc driver-side result contract (the production
    entry already returns one row per doc). Empty-text docs emit no
    row in the scan, so the oracle filters ``text <> ''`` exactly as
    the pipeline skips them."""
    out = compression_ratio(sf_dir, plant_every=plant_every)
    ids = out["doc_id"].to_numpy()
    src = out[(ids % plant_every == 0) & (ids < _COMP_PLANT)]
    clone = out[ids >= _COMP_PLANT].copy()
    clone["doc_id"] -= _COMP_PLANT
    m = src.merge(clone, on="doc_id", suffixes=("", "_c"))
    same = (
        (m["n_bytes"] == m["n_bytes_c"]) & (m["zlib_ratio"] == m["zlib_ratio_c"])
    ).astype("int64")
    return pd.DataFrame(
        {
            "doc_id": m["doc_id"].to_numpy("int64"),
            "clone_doc_id": (m["doc_id"] + _COMP_PLANT).to_numpy("int64"),
            "same_ratio": same.to_numpy(),
        }
    ).sort_values("doc_id").reset_index(drop=True)


def compression_ratio_planted_clones_sql(plant_every: int = 20) -> str:
    return f"""
SELECT CAST(doc_id AS BIGINT) AS doc_id,
       CAST(doc_id + {_COMP_PLANT} AS BIGINT) AS clone_doc_id,
       CAST(1 AS BIGINT) AS same_ratio
FROM documents WHERE doc_id % {plant_every} = 0 AND text <> ''
ORDER BY doc_id
"""


COMPRESSION_RATIO_PLANTED_CLONES_SQL = compression_ratio_planted_clones_sql()


# ---------------------------------------------------------------------------
# Sequence packing (LLM training prep): concatenate the token stream in
# doc_id order and chop it into fixed-size context windows.
# ---------------------------------------------------------------------------

_PACK_BUCKETS = 64


def pack_sequences(sf_dir: str, ctx: int = 512) -> pd.DataFrame:
    """Assign every document its span of fixed-``ctx`` training
    sequences: docs are concatenated into one token stream in doc_id
    order and chopped every ``ctx`` tokens (the standard
    concat-and-chunk packing used to build LLM pre-training batches).

    Output: (doc_id, n_tokens, stream_offset, seq_first, seq_last)
    where stream_offset is the doc's global token offset and
    seq_first/seq_last the first/last context window it lands in.

    Distributed as a textbook two-pass SCAN (prefix sum) — the shape
    that survives 100 TB:
      pass 1: per-batch token counts -> per-range-bucket partial sums
              (only ``_PACK_BUCKETS`` tiny rows reach the driver);
      driver: exclusive prefix over the bucket sums (O(buckets));
      pass 2: one bucketed shuffle of (doc_id, n_tokens) pairs (tiny
              rows, never the text), per-bucket local cumsum + the
              broadcast bucket offset.
    No global sort, no full-table driver materialization."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def _counts(t: pa.Table) -> pd.DataFrame:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        ns = [len(TOKEN_RE.findall(s)) for s in t["text"].to_pylist()]
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "n_tokens": pd.Series(ns, dtype="int64"),
            }
        )

    # token counts are consumed twice (bucket sums + the packed scan):
    # materialize the tiny (doc_id, n_tokens) dataset once so the text
    # is read and tokenized exactly once.
    counts = ds.map_batches(_counts, batch_format="pyarrow").materialize()

    import numpy as np

    lo, hi = counts.min("doc_id"), counts.max("doc_id")
    width = max(1, (int(hi) - int(lo) + _PACK_BUCKETS) // _PACK_BUCKETS)

    def _bucket_of(ids: "np.ndarray") -> "np.ndarray":
        return ((ids - int(lo)) // width).astype("int64")

    # pass 1: per-bucket token sums, combined on the driver (tiny).
    def _partial_sums(df: pd.DataFrame) -> pd.DataFrame:
        b = _bucket_of(df["doc_id"].to_numpy())
        out = df.assign(__bucket=b).groupby("__bucket", as_index=False)["n_tokens"].sum()
        return out

    parts = counts.map_batches(_partial_sums, batch_format="pandas").to_pandas()
    sums = parts.groupby("__bucket")["n_tokens"].sum()
    bucket_sums = np.zeros(_PACK_BUCKETS + 1, dtype="int64")
    bucket_sums[sums.index.to_numpy()] = sums.to_numpy()
    offsets = np.concatenate([[0], np.cumsum(bucket_sums)[:-1]])  # exclusive prefix

    # pass 2: bucketed shuffle + local scan.
    def _add_bucket(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(__bucket=_bucket_of(df["doc_id"].to_numpy()))

    def _scan_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id")
        n = g["n_tokens"].to_numpy()
        base = int(offsets[int(g["__bucket"].iloc[0])])
        prev = base + np.concatenate([[0], np.cumsum(n)[:-1]])
        first = prev // ctx
        last = np.where(n > 0, (prev + np.maximum(n, 1) - 1) // ctx, first)
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy(),
                "n_tokens": n,
                "stream_offset": prev,
                "seq_first": first.astype("int64"),
                "seq_last": last.astype("int64"),
            }
        )

    return (
        counts.map_batches(_add_bucket, batch_format="pandas")
        .groupby("__bucket")
        .map_groups(_scan_bucket, batch_format="pandas")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


PACK_SEQUENCES_SQL = r"""
WITH t AS (
  SELECT doc_id,
         CAST(len(regexp_extract_all(text, '[A-Za-z0-9_]+')) AS BIGINT) AS n_tokens
  FROM documents
), c AS (
  SELECT doc_id, n_tokens,
         CAST(COALESCE(SUM(n_tokens) OVER (ORDER BY doc_id
                    ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT) AS stream_offset
  FROM t
)
SELECT doc_id, n_tokens, stream_offset,
       CAST(stream_offset // 512 AS BIGINT) AS seq_first,
       CAST(CASE WHEN n_tokens > 0 THEN (stream_offset + n_tokens - 1) // 512
            ELSE stream_offset // 512 END AS BIGINT) AS seq_last
FROM c ORDER BY doc_id
"""


def chunk_documents(sf_dir: str, size: int = 500, overlap: int = 100) -> pd.DataFrame:
    """RAG-style chunking: each doc split into windows of ``size``
    chars advancing by ``size - overlap`` (so consecutive chunks share
    ``overlap`` chars); every window start < n_chars is emitted. Rows
    are (doc_id, chunk_id, start, chunk_len, chunk_md5) — the md5
    keeps the result small while pinning the exact chunk bytes.

    One stateless flat-explode ``map_batches``; no shuffle. At 100 TB
    the output is written partitioned, never collected — collected
    here only because the driver compares full results."""
    import hashlib

    step = size - overlap
    assert step > 0
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def _explode(t: pa.Table) -> pd.DataFrame:
        ids, cids, starts, lens, md5s = [], [], [], [], []
        for doc_id, s in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            n = len(s)
            for i, start in enumerate(range(0, max(n, 1), step)):
                if start >= n and n > 0:
                    break
                chunk = s[start : start + size]
                ids.append(doc_id)
                cids.append(i)
                starts.append(start)
                lens.append(len(chunk))
                md5s.append(hashlib.md5(chunk.encode("utf-8")).hexdigest())
                if n == 0:
                    break
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "chunk_id": pd.Series(cids, dtype="int64"),
                "start": pd.Series(starts, dtype="int64"),
                "chunk_len": pd.Series(lens, dtype="int64"),
                "chunk_md5": pd.Series(md5s, dtype="object"),
            }
        )

    return (
        ds.map_batches(_explode, batch_format="pyarrow")
        .to_pandas()
        .sort_values(["doc_id", "chunk_id"])
        .reset_index(drop=True)
    )


CHUNK_DOCUMENTS_SQL = r"""
WITH d AS (SELECT doc_id, text, length(text) AS n FROM documents),
s AS (
  SELECT doc_id, text, n, UNNEST(generate_series(0, GREATEST(n - 1, 0), 400)) AS start
  FROM d
)
SELECT doc_id,
       start // 400 AS chunk_id,
       start,
       length(substring(text, start + 1, 500)) AS chunk_len,
       md5(substring(text, start + 1, 500)) AS chunk_md5
FROM s ORDER BY doc_id, chunk_id
"""


def char_entropy(sf_dir: str) -> pd.DataFrame:
    """Per-document Shannon entropy (bits) of the character
    distribution — a classic low-quality-text signal (binary junk and
    boilerplate sit far from prose's ~4.1 bits/char). Stateless
    vectorized scan: one numpy unique-count per doc, no shuffle."""
    import numpy as np

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def _scan(t: pa.Table) -> pd.DataFrame:
        ids, ents = [], []
        for doc_id, s in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            if not s:
                continue
            _, cnt = np.unique(np.frombuffer(s.encode("utf-32-le"), dtype="uint32"), return_counts=True)
            p = cnt / cnt.sum()
            ids.append(doc_id)
            ents.append(round(float(-(p * np.log2(p)).sum()), 6))
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "entropy_bits": pd.Series(ents, dtype="float64"),
            }
        )

    return ds.map_batches(_scan, batch_format="pyarrow").to_pandas().sort_values("doc_id").reset_index(drop=True)


CHAR_ENTROPY_SQL = r"""
WITH chars AS (
  SELECT doc_id, UNNEST(regexp_extract_all(text, '[\s\S]')) AS ch
  FROM documents WHERE length(text) > 0
), freq AS (
  SELECT doc_id, ch, CAST(COUNT(*) AS DOUBLE) AS c FROM chars GROUP BY doc_id, ch
), tot AS (
  SELECT doc_id, SUM(c) AS n FROM freq GROUP BY doc_id
)
SELECT f.doc_id,
       round(-SUM((f.c / t.n) * log2(f.c / t.n)), 6) AS entropy_bits
FROM freq f JOIN tot t USING (doc_id)
GROUP BY f.doc_id ORDER BY f.doc_id
"""


# ---------------------------------------------------------------------------
# BM25 full-text relevance — the inverted-index search primitive.
# ---------------------------------------------------------------------------

_BM25_TERMS = ("spark", "window", "hash")
_BM25_K1 = 1.2
_BM25_B = 0.75


def bm25_scores(sf_dir: str, terms: tuple[str, ...] = _BM25_TERMS) -> pd.DataFrame:
    """Okapi BM25 relevance of every matching document for a fixed
    multi-term query (Lucene idf variant). The distributed shape is
    the inverted-index search pattern without materializing the index:

      pass 1 (one tokenize scan): per-doc features (dl, tf per query
              term) — a tiny fixed-width dataset, materialized once;
      stats:  N, total dl and per-term df via dataset aggregates over
              the tiny features (exact integer partials -> the
              idf/avgdl floats are bitwise identical to the oracle's);
      pass 2: vectorized score over the features, matching docs only.

    Corpus text is read exactly once; nothing document-shaped reaches
    the driver. Output (doc_id, score) for docs with score > 0, the
    full posting union — top-k ordering is pinned separately in
    pytest (ties broken by doc_id)."""
    import numpy as np

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def _features(t: pa.Table) -> pd.DataFrame:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        dls, tfs = [], []
        for s in t["text"].to_pylist():
            toks = TOKEN_RE.findall(s)
            dls.append(len(toks))
            tfs.append([toks.count(q) for q in terms])
        out = {"doc_id": pd.Series(ids, dtype="int64"), "dl": pd.Series(dls, dtype="int64")}
        arr = np.asarray(tfs, dtype="int64").reshape(len(dls), len(terms))
        for j, q in enumerate(terms):
            out[f"tf_{q}"] = arr[:, j]
        return pd.DataFrame(out)

    feats = ds.map_batches(_features, batch_format="pyarrow").materialize()

    # exact integer corpus stats -> tiny driver reduce
    n_docs = feats.count()
    agg = feats.sum(["dl"] + [f"tf_{q}" for q in terms])
    total_dl = int(agg["sum(dl)"])

    def _df_partial(df: pd.DataFrame) -> pd.DataFrame:
        row = {f"df_{q}": [int((df[f"tf_{q}"] > 0).sum())] for q in terms}
        return pd.DataFrame(row)

    df_parts = feats.map_batches(_df_partial, batch_format="pandas").to_pandas()
    dfs = {q: int(df_parts[f"df_{q}"].sum()) for q in terms}

    avgdl = total_dl / n_docs
    idf = {q: float(np.log((n_docs - dfs[q] + 0.5) / (dfs[q] + 0.5) + 1.0)) for q in terms}

    def _score(df: pd.DataFrame) -> pd.DataFrame:
        dl = df["dl"].to_numpy(dtype="float64")
        score = np.zeros(len(df))
        for q in terms:
            tf = df[f"tf_{q}"].to_numpy(dtype="float64")
            score = score + idf[q] * (
                tf * (_BM25_K1 + 1) / (tf + _BM25_K1 * (1 - _BM25_B + _BM25_B * dl / avgdl))
            )
        out = pd.DataFrame({"doc_id": df["doc_id"], "score": np.round(score, 6)})
        return out[out["score"] > 0]

    return (
        feats.map_batches(_score, batch_format="pandas")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


BM25_SCORES_SQL = r"""
WITH feat AS (
  SELECT doc_id,
         CAST(len(regexp_extract_all(text, '[A-Za-z0-9_]+')) AS BIGINT) AS dl,
         CAST(len(list_filter(regexp_extract_all(text, '[A-Za-z0-9_]+'), x -> x = 'spark')) AS BIGINT) AS tf_spark,
         CAST(len(list_filter(regexp_extract_all(text, '[A-Za-z0-9_]+'), x -> x = 'window')) AS BIGINT) AS tf_window,
         CAST(len(list_filter(regexp_extract_all(text, '[A-Za-z0-9_]+'), x -> x = 'hash')) AS BIGINT) AS tf_hash
  FROM documents
), stats AS (
  SELECT CAST(COUNT(*) AS DOUBLE) AS n,
         CAST(SUM(dl) AS DOUBLE) / COUNT(*) AS avgdl,
         CAST(SUM(CASE WHEN tf_spark  > 0 THEN 1 ELSE 0 END) AS DOUBLE) AS df_spark,
         CAST(SUM(CASE WHEN tf_window > 0 THEN 1 ELSE 0 END) AS DOUBLE) AS df_window,
         CAST(SUM(CASE WHEN tf_hash   > 0 THEN 1 ELSE 0 END) AS DOUBLE) AS df_hash
  FROM feat
)
SELECT doc_id,
       round(
           ln((n - df_spark + 0.5) / (df_spark + 0.5) + 1.0)
             * (tf_spark * 2.2) / (tf_spark + 1.2 * (1 - 0.75 + 0.75 * dl / avgdl))
         + ln((n - df_window + 0.5) / (df_window + 0.5) + 1.0)
             * (tf_window * 2.2) / (tf_window + 1.2 * (1 - 0.75 + 0.75 * dl / avgdl))
         + ln((n - df_hash + 0.5) / (df_hash + 0.5) + 1.0)
             * (tf_hash * 2.2) / (tf_hash + 1.2 * (1 - 0.75 + 0.75 * dl / avgdl)),
       6) AS score
FROM feat, stats
WHERE tf_spark + tf_window + tf_hash > 0
ORDER BY doc_id
"""


def mixture_sample(sf_dir: str, budget_tokens: int = 600) -> pd.DataFrame:
    """Training-mixture curation: give every source the same token
    budget and fill it greedily in deterministic md5(doc_id) order
    (the reproducible-shuffle trick — no RNG state to coordinate
    across cluster sizes). A doc is taken while the tokens already
    taken from its source are under budget (the last doc may
    overshoot, standard greedy fill). Output (doc_id, source,
    n_tokens).

    Distributed shape: one tokenize scan emits tiny (doc_id, source,
    n_tokens, h) rows; ONE coarse-bucket shuffle on hash(source)
    co-locates each source, and the per-bucket pandas grouped cumsum
    reproduces the window frame exactly. Text never moves; only the
    fixed-width rows shuffle."""
    import hashlib

    import numpy as np

    ds = _read(sf_dir, "documents", columns=["doc_id", "source", "text"])
    n_buckets = 32

    def _feat(t: pa.Table) -> pd.DataFrame:
        ids = t["doc_id"].to_pylist()
        srcs = t["source"].to_pylist()
        ns = [len(TOKEN_RE.findall(s)) for s in t["text"].to_pylist()]
        hs = [hashlib.md5(str(i).encode()).hexdigest() for i in ids]
        bks = [int(hashlib.md5(s.encode()).hexdigest(), 16) % n_buckets for s in srcs]
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "source": pd.Series(srcs, dtype="object"),
                "n_tokens": pd.Series(ns, dtype="int64"),
                "h": pd.Series(hs, dtype="object"),
                "__bucket": pd.Series(bks, dtype="int64"),
            }
        )

    def _fill(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["source", "h"])
        cum = g.groupby("source", sort=False)["n_tokens"].cumsum().to_numpy()
        prev = cum - g["n_tokens"].to_numpy()
        keep = prev < budget_tokens
        out = g.loc[keep, ["doc_id", "source", "n_tokens"]]
        return out

    return (
        ds.map_batches(_feat, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(_fill, batch_format="pandas")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


MIXTURE_SAMPLE_SQL = r"""
WITH t AS (
  SELECT doc_id, source,
         CAST(len(regexp_extract_all(text, '[A-Za-z0-9_]+')) AS BIGINT) AS n_tokens,
         md5(CAST(doc_id AS VARCHAR)) AS h
  FROM documents
), c AS (
  SELECT doc_id, source, n_tokens,
         CAST(COALESCE(SUM(n_tokens) OVER (PARTITION BY source ORDER BY h
                  ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT) AS prev
  FROM t
)
SELECT doc_id, source, n_tokens FROM c WHERE prev < 600 ORDER BY doc_id
"""


def bpe_apply_tokenize(sf_dir: str, n_merges: int = 8) -> pd.DataFrame:
    """BPE tokenizer APPLICATION at corpus scale: learn the merge
    table with :func:`bpe_learn_merges` (distributed rounds over the
    word-type vocabulary), broadcast the tiny merge list once via
    ``ray.put``, then ONE stateless ``map_batches`` pass re-segments
    every document and emits (doc_id, n_subwords, n_words). The merge
    table is actor-held state resolved once per task, not re-shipped
    per batch; the corpus streams once. Iterative-trained tokenizer
    -> no SQL oracle; pytest pins equality against the single-process
    :func:`_apply_merges` reference on the same merges."""
    learned = bpe_learn_merges(sf_dir, n_merges=n_merges)
    merges = list(zip(learned["left"], learned["right"]))
    merges_ref = ray.put(merges)

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def _tokenize(t: pa.Table, _m=merges_ref) -> pd.DataFrame:
        ms = ray.get(_m)
        cache: dict[str, int] = {}
        ids, n_sub, n_words = [], [], []
        for doc_id, s in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            words = [w.lower() for w in TOKEN_RE.findall(s)]
            total = 0
            for w in words:
                k = cache.get(w)
                if k is None:
                    k = len(_apply_merges(list(w), ms))
                    cache[w] = k
                total += k
            ids.append(doc_id)
            n_sub.append(total)
            n_words.append(len(words))
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "n_subwords": pd.Series(n_sub, dtype="int64"),
                "n_words": pd.Series(n_words, dtype="int64"),
            }
        )

    return (
        ds.map_batches(_tokenize, batch_format="pyarrow")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def bpe_apply_zero_merges(sf_dir: str) -> pd.DataFrame:
    """The corpus-scale BPE APPLY machinery under an EXACT oracle via
    the zero-merge regime (the apply-side sibling of
    ``bpe_first_merge``): with an EMPTY learned merge table every word
    segments into its characters, so ``n_subwords`` degenerates to the
    document's total token characters and ``n_words`` to its token
    count — both closed-form SQL over the shared TOKEN_RE mirror. The
    full pipeline still runs for real: the distributed vocabulary
    pass of the trainer (zero rounds), the ``ray.put`` merge-table
    broadcast, and the stateless corpus re-segmentation pass with its
    per-task word cache — a broken broadcast, cache, or segmentation
    loop all surface here."""
    return bpe_apply_tokenize(sf_dir, n_merges=0)


BPE_APPLY_ZERO_MERGES_SQL = """
SELECT CAST(doc_id AS BIGINT) AS doc_id,
       CAST(length(regexp_replace(text, '[^A-Za-z0-9_]+', '', 'g')) AS BIGINT) AS n_subwords,
       CAST(len(regexp_extract_all(text, '[A-Za-z0-9_]+')) AS BIGINT) AS n_words
FROM documents ORDER BY doc_id
"""


def pmi_collocations(sf_dir: str, min_count: int = 30, k: int = 15) -> pd.DataFrame:
    """Top-k adjacent-bigram collocations by pointwise mutual
    information — the phrase-mining primitive (word2vec-style phrase
    detection). One tokenize pass emits per-batch bigram AND unigram
    count partials; the bigram domain is aggregated under ONE
    coarse-bucket shuffle (gram-domain, same as duplicate_ngram_spans)
    while the aggregated unigram vocabulary — orders of magnitude
    smaller than the corpus — is broadcast once via ``ray.put`` (the
    documented small-side pattern; at web scale a ~10M-row vocab is
    ~100 MB, still broadcastable). PMI is computed from exact integer
    counts inside the buckets, filtered at ``min_count``, and only
    (pair, pmi) survivors reach the driver for the final top-k.
    Ties: (-pmi, w1, w2)."""
    import math
    from collections import Counter

    n_buckets = 32
    ds = _read(sf_dir, "documents", columns=["text"]).materialize()

    def _uni(t: pa.Table) -> pd.DataFrame:
        c = Counter()
        for s in t["text"].to_pylist():
            c.update(w.lower() for w in TOKEN_RE.findall(s))
        return pd.DataFrame({"w": list(c.keys()), "n": list(c.values())})

    uni_parts = ds.map_batches(_uni, batch_format="pyarrow").to_pandas()
    uni = uni_parts.groupby("w")["n"].sum()
    uni_ref = ray.put(uni.to_dict())
    total_uni = int(uni.sum())

    def _bi(t: pa.Table) -> pd.DataFrame:
        c = Counter()
        for s in t["text"].to_pylist():
            toks = [w.lower() for w in TOKEN_RE.findall(s)]
            c.update(zip(toks, toks[1:]))
        if not c:
            return pd.DataFrame({"w1": [], "w2": [], "n": [], "__bucket": []})
        w1, w2 = zip(*c.keys())
        df = pd.DataFrame({"w1": w1, "w2": w2, "n": list(c.values())})
        import zlib

        # deterministic cross-process hash (Python's str hash is
        # seed-randomized per worker and would split the key domain)
        df["__bucket"] = df["w1"].map(lambda x: zlib.crc32(x.encode())) % n_buckets
        return df

    bi = ds.map_batches(_bi, batch_format="pyarrow")
    total_pairs_parts = bi.map_batches(
        lambda df: pd.DataFrame({"n": [int(df["n"].sum())]}), batch_format="pandas"
    ).to_pandas()
    total_pairs = int(total_pairs_parts["n"].sum())

    def _pmi_bucket(g: pd.DataFrame, _u=uni_ref) -> pd.DataFrame:
        u = ray.get(_u)
        s = g.groupby(["w1", "w2"], as_index=False)["n"].sum()
        s = s[s["n"] >= min_count].reset_index(drop=True)
        if not len(s):
            return pd.DataFrame({"w1": [], "w2": [], "n_pair": [], "pmi": []})
        pmi = [
            math.log((cp / total_pairs) / ((u[a] / total_uni) * (u[b] / total_uni)))
            for a, b, cp in zip(s["w1"], s["w2"], s["n"])
        ]
        return pd.DataFrame(
            {
                "w1": s["w1"].astype("object"),
                "w2": s["w2"].astype("object"),
                "n_pair": s["n"].astype("int64"),
                "pmi": pd.Series(pmi, dtype="float64"),
            }
        )

    all_rows = (
        bi.groupby("__bucket").map_groups(_pmi_bucket, batch_format="pandas").to_pandas()
    )
    all_rows = all_rows.sort_values(["pmi", "w1", "w2"], ascending=[False, True, True]).head(k)
    all_rows["pmi"] = all_rows["pmi"].round(6)
    return all_rows.reset_index(drop=True)


PMI_COLLOCATIONS_SQL = r"""
WITH toks AS (
  SELECT doc_id, UNNEST(ts) AS w, generate_subscripts(ts, 1) AS ord
  FROM (SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9_]+') AS ts FROM documents)
), pairs AS (
  SELECT w AS w1, lead(w) OVER (PARTITION BY doc_id ORDER BY ord) AS w2 FROM toks
), bi AS (
  SELECT w1, w2, CAST(count(*) AS BIGINT) AS n_pair
  FROM pairs WHERE w2 IS NOT NULL GROUP BY w1, w2
), uni AS (
  SELECT w, CAST(count(*) AS BIGINT) AS c FROM toks GROUP BY w
), tot AS (
  SELECT (SELECT sum(c) FROM uni) AS tu, (SELECT sum(n_pair) FROM bi) AS tp
)
SELECT w1, w2, n_pair,
       round(ln((n_pair / tp) / ((u1.c / tu) * (u2.c / tu))), 6) AS pmi
FROM bi
JOIN uni u1 ON u1.w = bi.w1
JOIN uni u2 ON u2.w = bi.w2
CROSS JOIN tot
WHERE n_pair >= 30
ORDER BY ln((n_pair / tp) / ((u1.c / tu) * (u2.c / tu))) DESC, w1, w2
LIMIT 15
"""


def inverted_index_sample(sf_dir: str, k_terms: int = 5, k_docs: int = 10) -> pd.DataFrame:
    """Materialized inverted-index build for the ``k_terms`` most
    frequent terms: (term, df, posting) where posting is the first
    ``k_docs`` doc_ids comma-joined — the index-construction shape
    (BM25 above is the index-FREE scan; this is the persisted layout
    a search deployment writes). Stage 1 reuses the bucketed
    vocabulary aggregate for global term counts (tiny top-k to the
    driver); stage 2 broadcasts the k terms and streams the corpus
    once, emitting (term, doc_id) postings only for those terms; ONE
    bucket shuffle groups per-term and truncates posting lists
    locally. At 100 TB the full-vocabulary version writes
    term-partitioned parquet instead of collecting."""
    from collections import Counter

    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"]).materialize()

    def _uni(t: pa.Table) -> pd.DataFrame:
        c = Counter()
        for s in t["text"].to_pylist():
            c.update(w.lower() for w in TOKEN_RE.findall(s))
        return pd.DataFrame({"w": list(c.keys()), "n": list(c.values())})

    vocab = bucketed_aggregate(
        ds.map_batches(_uni, batch_format="pyarrow"), "w", {"n": ("n", "sum")}
    ).to_pandas()
    top = vocab.sort_values(["n", "w"], ascending=[False, True]).head(k_terms)
    terms = set(top["w"])

    def _post(t: pa.Table) -> pd.DataFrame:
        rows_t, rows_d = [], []
        for doc_id, s in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            present = {w.lower() for w in TOKEN_RE.findall(s)} & terms
            for w in present:
                rows_t.append(w)
                rows_d.append(doc_id)
        return pd.DataFrame(
            {"term": pd.Series(rows_t, dtype="object"), "doc_id": pd.Series(rows_d, dtype="int64")}
        )

    def _agg(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id")
        ids = g["doc_id"].tolist()
        return pd.DataFrame(
            {
                "term": [g["term"].iloc[0]],
                "df": pd.Series([len(ids)], dtype="int64"),
                "posting": [",".join(str(i) for i in ids[:k_docs])],
            }
        )

    return (
        ds.map_batches(_post, batch_format="pyarrow")
        .groupby("term")
        .map_groups(_agg, batch_format="pandas")
        .to_pandas()
        .sort_values("term")
        .reset_index(drop=True)
    )


INVERTED_INDEX_SAMPLE_SQL = r"""
WITH uni AS (
  SELECT UNNEST(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS w FROM documents
), top5 AS (
  SELECT w FROM (SELECT w, count(*) AS c FROM uni GROUP BY w)
  ORDER BY c DESC, w LIMIT 5
), posts AS (
  SELECT t.w, d.doc_id
  FROM documents d
  JOIN top5 t ON list_contains(regexp_extract_all(lower(d.text), '[a-z0-9_]+'), t.w)
), ranked AS (
  SELECT w, doc_id,
         ROW_NUMBER() OVER (PARTITION BY w ORDER BY doc_id) AS rn,
         count(*) OVER (PARTITION BY w) AS df
  FROM posts
)
SELECT w AS term, CAST(max(df) AS BIGINT) AS df,
       string_agg(CASE WHEN rn <= 10 THEN CAST(doc_id AS VARCHAR) END, ',' ORDER BY doc_id) AS posting
FROM ranked GROUP BY w ORDER BY term
"""


_CHECKSUM_MOD = 2305843009213693951  # 2^61 - 1


def table_checksum(sf_dir: str) -> pd.DataFrame:
    """Order-independent content checksum of the documents table —
    the anti-entropy / replica-verification primitive (two clusters
    compare (n_rows, checksum) without moving data). Per-row value is
    the low 64 bits of md5(text) (little-endian — DuckDB's
    md5_number_lower), summed mod 2^61-1; addition commutes, so the
    result is independent of partitioning, batch size and visit
    order. Per-batch partials are single int64 rows; the driver adds
    a handful of them."""
    import hashlib

    ds = _read(sf_dir, "documents", columns=["text"])

    def _partial(t: pa.Table) -> pd.DataFrame:
        s = 0
        n = 0
        for txt in t["text"].to_pylist():
            v = int.from_bytes(hashlib.md5(txt.encode("utf-8")).digest()[8:16], "little")
            s = (s + v) % _CHECKSUM_MOD
            n += 1
        return pd.DataFrame({"n": pd.Series([n], dtype="int64"), "s": pd.Series([s], dtype="int64")})

    parts = ds.map_batches(_partial, batch_format="pyarrow").to_pandas()
    # accumulate partials in PYTHON ints: a pandas int64 sum of values
    # each < 2^61 overflows past four partials
    csum = sum(int(x) for x in parts["s"]) % _CHECKSUM_MOD
    return pd.DataFrame(
        {
            "n_rows": pd.Series([int(parts["n"].sum())], dtype="int64"),
            "checksum": pd.Series([csum], dtype="int64"),
        }
    )


TABLE_CHECKSUM_SQL = """
SELECT CAST(count(*) AS BIGINT) AS n_rows,
       CAST(sum(md5_number_lower(text) % 2305843009213693951)
            % 2305843009213693951 AS BIGINT) AS checksum
FROM documents
"""


def sentence_stats(sf_dir: str) -> pd.DataFrame:
    """Sentence segmentation rollup per source: documents split on
    ``[.!?]+`` boundaries, segments trimmed of ASCII whitespace, empty
    segments dropped. Reports docs, sentences, and mean sentence
    length — the segmentation primitive under chunkers and
    quality filters. Per-batch partials are exact integer
    (count, sum-of-lengths) tuples; one tiny combine."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "source"])

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        docs = df.groupby("source", as_index=False).size().rename(columns={"size": "n_docs"})
        seg = df[["source", "text"]].copy()
        seg["text"] = seg["text"].str.split(r"[.!?]+", regex=True)
        seg = seg.explode("text")
        s = seg["text"].str.strip(" \t\n\r")
        seg = seg[s != ""]
        seg["len"] = s[s != ""].str.len()
        sent = seg.groupby("source", as_index=False).agg(
            n_sentences=("len", "size"), sum_chars=("len", "sum")
        )
        out = docs.merge(sent, on="source", how="left")
        out[["n_sentences", "sum_chars"]] = (
            out[["n_sentences", "sum_chars"]].fillna(0).astype("int64")
        )
        return out

    parts = ds.map_batches(_partial, batch_format="pandas").to_pandas()
    out = parts.groupby("source", as_index=False)[["n_docs", "n_sentences", "sum_chars"]].sum()
    out["avg_sentence_chars"] = (out["sum_chars"] / out["n_sentences"]).round(4)
    out = out.drop(columns="sum_chars")
    for c in ("n_docs", "n_sentences"):
        out[c] = out[c].astype("int64")
    return out.sort_values("source").reset_index(drop=True)


SENTENCE_STATS_SQL = """
WITH segs AS (
  SELECT source, trim(seg, ' ' || chr(9) || chr(10) || chr(13)) AS s
  FROM (SELECT source, unnest(regexp_split_to_array(text, '[.!?]+')) AS seg
        FROM documents)
),
sent AS (
  SELECT source, count(*) AS n_sentences, sum(length(s)) AS sum_chars
  FROM segs WHERE s <> '' GROUP BY source
),
docs AS (SELECT source, count(*) AS n_docs FROM documents GROUP BY source)
SELECT d.source,
       CAST(d.n_docs AS BIGINT) AS n_docs,
       CAST(COALESCE(sent.n_sentences, 0) AS BIGINT) AS n_sentences,
       round(sent.sum_chars * 1.0 / sent.n_sentences, 4) AS avg_sentence_chars
FROM docs d LEFT JOIN sent ON d.source = sent.source
ORDER BY d.source
"""


def extract_numbers(sf_dir: str) -> pd.DataFrame:
    """Regex flat-map extraction: every integer literal (runs of up to
    9 digits — greedy left-to-right, so longer runs split identically
    in RE2 and Python) pulled out of each document. Reports per doc
    the match count and their sum — the structured-field-extraction
    primitive (IDs, prices, years) behind wrangling pipelines. Pure
    vectorized pandas ``str.findall`` + explode inside map_batches."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def _f(df: pd.DataFrame) -> pd.DataFrame:
        hits = df["text"].str.findall(r"[0-9]{1,9}")
        n = hits.str.len().astype("int64")
        sums = hits.apply(lambda xs: sum(int(x) for x in xs))
        return pd.DataFrame(
            {"doc_id": df["doc_id"].astype("int64"), "n_numbers": n,
             "sum_numbers": sums.astype("int64")}
        )

    out = ds.map_batches(_f, batch_format="pandas").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


EXTRACT_NUMBERS_SQL = """
SELECT doc_id,
       CAST(len(hits) AS BIGINT) AS n_numbers,
       CAST(COALESCE(list_sum(list_transform(hits, x -> CAST(x AS BIGINT))), 0) AS BIGINT)
         AS sum_numbers
FROM (SELECT doc_id, regexp_extract_all(text, '[0-9]{1,9}') AS hits FROM documents)
ORDER BY doc_id
"""


def top_terms_per_source(sf_dir: str, k: int = 5) -> pd.DataFrame:
    """Grouped top-k: the k most frequent tokens per source (count
    desc, term asc tie-break) — the per-domain vocabulary profile.
    Same machinery as :func:`vocab_top_terms` with (source, term) as
    the aggregate key and the group-aware partial top-k reduce, so
    the driver sees at most k rows per source per batch."""
    import numpy as np

    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate, partial_topk

    ds = _read(sf_dir, "documents", columns=["source", "text"])

    def count_batch(df: pd.DataFrame) -> pd.DataFrame:
        srcs: list[str] = []
        toks: list[str] = []
        for src, s in zip(df["source"], df["text"]):
            ts = TOKEN_RE.findall(s.lower())
            toks.extend(ts)
            srcs.extend([src] * len(ts))
        if not toks:
            return pd.DataFrame({"source": [], "term": [], "n": []})
        out = pd.DataFrame({"source": srcs, "term": toks})
        return out.groupby(["source", "term"], as_index=False).size().rename(columns={"size": "n"})

    totals = bucketed_aggregate(
        ds.map_batches(count_batch, batch_format="pandas"),
        ["source", "term"],
        {"n": ("n", "sum")},
        num_buckets=16,
    )
    out = partial_topk(totals, by=["n", "term"], ascending=[False, True], k=k, group="source")
    out["n"] = out["n"].astype("int64")
    out["rk"] = out.groupby("source").cumcount().astype("int64") + 1
    return (
        out[["source", "term", "n", "rk"]]
        .sort_values(["source", "rk"])
        .reset_index(drop=True)
    )


def top_terms_per_source_sql(k: int = 5) -> str:
    return f"""
WITH tok AS (
  SELECT source, unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS term
  FROM documents
),
c AS (SELECT source, term, count(*) AS n FROM tok GROUP BY 1, 2),
r AS (SELECT *, row_number() OVER (PARTITION BY source ORDER BY n DESC, term) AS rk FROM c)
SELECT source, term, CAST(n AS BIGINT) AS n, CAST(rk AS BIGINT) AS rk
FROM r WHERE rk <= {k} ORDER BY source, rk
"""


TOP_TERMS_PER_SOURCE_SQL = top_terms_per_source_sql()


def source_vocab_jaccard(sf_dir: str) -> pd.DataFrame:
    """Aggregate-level set similarity: pairwise Jaccard between the
    SOURCES' vocabularies (distinct-token sets). The (source, term)
    distinct pairs build in one bucketed pass over the TERM domain;
    within each term bucket the co-occurring source pairs emit
    intersection partials (terms never leave their bucket), and the
    tiny |sources|² driver reduce finishes |A∩B| / (|A|+|B|-|A∩B|)."""
    import numpy as np

    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "documents", columns=["source", "text"])

    def distinct_pairs(df: pd.DataFrame) -> pd.DataFrame:
        srcs: list[str] = []
        toks: list[str] = []
        for src, s in zip(df["source"], df["text"]):
            for t in set(TOKEN_RE.findall(s.lower())):
                srcs.append(src)
                toks.append(t)
        out = pd.DataFrame({"source": srcs, "term": toks}).drop_duplicates()
        out["one"] = 1
        return out

    # distinct (source, term) via bucketed min-reduction on the pair key
    st = bucketed_aggregate(
        ds.map_batches(distinct_pairs, batch_format="pandas"),
        ["term", "source"],
        {"one": ("one", "min")},
        num_buckets=16,
    )

    def _term_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        h = pd.util.hash_pandas_object(df["term"], index=False)
        df["__tbucket"] = (h.to_numpy() % 16).astype("int64")
        return df[["term", "source", "__tbucket"]]

    def _pairs(g: pd.DataFrame) -> pd.DataFrame:
        sizes = g.groupby("source").size().rename("sz").reset_index()
        m = g.merge(g, on="term")
        m = m[m["source_x"] < m["source_y"]]
        inter = m.groupby(["source_x", "source_y"], as_index=False).size().rename(
            columns={"size": "n_inter"}
        )
        sizes = sizes.rename(columns={"source": "src", "sz": "n_terms"})
        sizes["source_x"] = sizes["src"]
        return pd.concat(
            [
                inter.assign(kind="i")[["kind", "source_x", "source_y", "n_inter"]],
                pd.DataFrame(
                    {
                        "kind": "s",
                        "source_x": sizes["src"],
                        "source_y": "",
                        "n_inter": sizes["n_terms"],
                    }
                ),
            ],
            ignore_index=True,
        )

    parts = (
        st.map_batches(_term_bucket, batch_format="pandas")
        .groupby("__tbucket")
        .map_groups(lambda g: _pairs(g.drop(columns="__tbucket")), batch_format="pandas")
        .to_pandas()
    )
    sizes = (
        parts[parts["kind"] == "s"].groupby("source_x")["n_inter"].sum().to_dict()
    )
    inter = (
        parts[parts["kind"] == "i"]
        .groupby(["source_x", "source_y"], as_index=False)["n_inter"]
        .sum()
    )
    inter["jaccard"] = (
        inter["n_inter"]
        / (
            inter["source_x"].map(sizes)
            + inter["source_y"].map(sizes)
            - inter["n_inter"]
        )
    ).round(6)
    out = inter.rename(columns={"source_x": "source_a", "source_y": "source_b"})
    out["n_inter"] = out["n_inter"].astype("int64")
    return out.sort_values(["source_a", "source_b"]).reset_index(drop=True)


SOURCE_VOCAB_JACCARD_SQL = """
WITH st AS (
  SELECT DISTINCT source, t.term
  FROM documents, unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS t(term)
),
sz AS (SELECT source, count(*) AS n FROM st GROUP BY source),
i AS (
  SELECT a.source AS source_a, b.source AS source_b, count(*) AS n_inter
  FROM st a JOIN st b ON a.term = b.term AND a.source < b.source
  GROUP BY 1, 2
)
SELECT i.source_a, i.source_b, CAST(i.n_inter AS BIGINT) AS n_inter,
       round(i.n_inter * 1.0 / (sa.n + sb.n - i.n_inter), 6) AS jaccard
FROM i JOIN sz sa ON sa.source = i.source_a JOIN sz sb ON sb.source = i.source_b
ORDER BY source_a, source_b
"""


def length_psi_by_source(sf_dir: str, bucket_chars: int = 200, n_psi_bins: int = 10) -> pd.DataFrame:
    """Population Stability Index of each source's doc-length
    distribution against the whole corpus — the drift-monitoring
    primitive behind "did this crawl slice change shape?" checks.
    Lengths bin into capped equal-width buckets; per-(source, bin)
    counts reduce through one bucketed aggregate; the tiny densified
    grid computes PSI = sum((p - q) * ln(p / q)) with +0.5 smoothing
    so empty cells stay finite (mirrored exactly in the oracle)."""
    import numpy as np

    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "documents", columns=["source", "text"])

    def _cells(df: pd.DataFrame) -> pd.DataFrame:
        b = np.minimum(df["text"].str.len() // bucket_chars, n_psi_bins - 1).astype("int64")
        d = pd.DataFrame({"source": df["source"], "bin": b})
        return d.groupby(["source", "bin"], as_index=False).size().rename(columns={"size": "o"})

    cells = bucketed_aggregate(
        ds.map_batches(_cells, batch_format="pandas"),
        ["source", "bin"],
        {"o": ("o", "sum")},
        num_buckets=8,
    ).to_pandas()
    pivot = (
        cells.pivot_table(index="source", columns="bin", values="o", fill_value=0)
        .reindex(columns=range(n_psi_bins), fill_value=0)
    )
    o = pivot.to_numpy(dtype=np.float64)
    row_n = o.sum(axis=1, keepdims=True)
    glob = o.sum(axis=0)
    p = (o + 0.5) / (row_n + 0.5 * n_psi_bins)
    q = (glob + 0.5) / (glob.sum() + 0.5 * n_psi_bins)
    psi = ((p - q) * np.log(p / q)).sum(axis=1)
    return (
        pd.DataFrame({"source": pivot.index, "psi": np.round(psi, 6)})
        .sort_values("source")
        .reset_index(drop=True)
    )


LENGTH_PSI_BY_SOURCE_SQL = """
WITH b AS (
  SELECT source,
         least(CAST(floor(length(text) / 200.0) AS BIGINT), 9) AS bin
  FROM documents
),
c AS (SELECT source, bin, count(*) AS o FROM b GROUP BY 1, 2),
srcs AS (SELECT DISTINCT source FROM documents),
bins AS (SELECT range AS bin FROM range(10)),
f AS (
  SELECT s.source, bb.bin, COALESCE(c.o, 0) AS o
  FROM srcs s CROSS JOIN bins bb
  LEFT JOIN c ON c.source = s.source AND c.bin = bb.bin
),
tot AS (SELECT source, sum(o) AS n FROM f GROUP BY 1),
g AS (SELECT bin, sum(o) AS og FROM f GROUP BY 1),
gn AS (SELECT sum(og) AS n FROM g),
p AS (
  SELECT f.source,
         (f.o + 0.5) / (tot.n + 5.0) AS ps,
         (g.og + 0.5) / (gn.n + 5.0) AS q
  FROM f JOIN tot USING (source) JOIN g USING (bin) CROSS JOIN gn
)
SELECT source, round(sum((ps - q) * ln(ps / q)), 6) AS psi
FROM p GROUP BY source ORDER BY source
"""


def boolean_and_search(sf_dir: str) -> pd.DataFrame:
    """Boolean retrieval over the corpus: doc_ids containing BOTH of
    the corpus's two most frequent tokens — the aggregate → broadcast
    → filter composition (the query terms are themselves derived
    distributed, then the filter streams with the tiny term set in
    every batch; the inverted-index lookup path without building the
    index)."""
    top2 = set(vocab_top_terms(sf_dir, k=2)["term"])
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def _match(df: pd.DataFrame) -> pd.DataFrame:
        keep = [
            top2 <= set(TOKEN_RE.findall(s.lower()))
            for s in df["text"]
        ]
        return pd.DataFrame({"doc_id": df["doc_id"].to_numpy()[np.asarray(keep, bool)]})

    import numpy as np  # noqa: F811 — local alias for the closure above

    out = ds.map_batches(_match, batch_format="pandas").to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


BOOLEAN_AND_SEARCH_SQL = """
WITH tok AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS term
  FROM documents
),
top2 AS (
  SELECT term FROM (
    SELECT term, count(*) AS n FROM tok GROUP BY term
    ORDER BY n DESC, term LIMIT 2
  )
)
SELECT doc_id FROM tok
WHERE term IN (SELECT term FROM top2)
GROUP BY doc_id HAVING count(DISTINCT term) = 2
ORDER BY doc_id
"""


def partitioned_write_roundtrip(sf_dir: str) -> pd.DataFrame:
    """Sink surface under the correctness gate: documents stream to a
    PARTITIONED parquet layout (one directory per source — the
    resumable-output convention every pipeline here writes), read
    back per partition, and reconciled as (source, n_docs, n_chars) —
    the write-audit primitive that certifies a sink against its
    input. Output goes under /tmp and is re-created per call
    (deterministic layout, no uuids)."""
    import os as _os
    import shutil as _shutil

    import pyarrow.parquet as _pq

    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    out_dir = "/tmp/ocr_ray_roundtrip"
    _shutil.rmtree(out_dir, ignore_errors=True)

    ds = _read(sf_dir, "documents", columns=["doc_id", "source", "n_chars"])
    ds.write_parquet(out_dir, partition_cols=["source"])

    back = ray.data.read_parquet(out_dir)

    def _partial(t: pa.Table) -> pd.DataFrame:
        df = t.to_pandas()
        return df.groupby("source", as_index=False).agg(
            n_docs=("doc_id", "size"), n_chars=("n_chars", "sum")
        )

    parts = back.map_batches(_partial, batch_format="pyarrow").to_pandas()
    out = parts.groupby("source", as_index=False)[["n_docs", "n_chars"]].sum()
    out["source"] = out["source"].astype(str)
    out["n_docs"] = out["n_docs"].astype("int64")
    out["n_chars"] = out["n_chars"].astype("int64")
    return out.sort_values("source").reset_index(drop=True)


PARTITIONED_WRITE_ROUNDTRIP_SQL = """
SELECT source, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(n_chars) AS BIGINT) AS n_chars
FROM documents GROUP BY source ORDER BY source
"""


def bucketed_checksums(sf_dir: str, n_buckets: int = 16) -> pd.DataFrame:
    """Merkle-style anti-entropy: per key-range bucket
    (doc_id % n_buckets), row count and order-independent content
    checksum — the unit two replicas actually exchange to LOCATE a
    divergent range before `table_diff` drills in (completing the
    checksum → locate → diff chain). One streamed pass; per-batch
    per-bucket partials; Python-int accumulate at the combine."""
    import hashlib

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def _partial(t: pa.Table) -> pd.DataFrame:
        ids = t["doc_id"].to_pylist()
        acc: dict[int, list] = {}
        for i, txt in zip(ids, t["text"].to_pylist()):
            b = i % n_buckets
            v = int.from_bytes(hashlib.md5(txt.encode("utf-8")).digest()[8:16], "little")
            cur = acc.setdefault(b, [0, 0])
            cur[0] += 1
            cur[1] = (cur[1] + v) % _CHECKSUM_MOD
        return pd.DataFrame(
            {"bucket": list(acc), "n": [a[0] for a in acc.values()],
             "s": [a[1] for a in acc.values()]}
        )

    parts = ds.map_batches(_partial, batch_format="pyarrow").to_pandas()
    rows = []
    for b, grp in parts.groupby("bucket"):
        rows.append(
            {"bucket": int(b), "n_rows": int(sum(int(x) for x in grp["n"])),
             "checksum": int(sum(int(x) for x in grp["s"]) % _CHECKSUM_MOD)}
        )
    out = pd.DataFrame(rows, columns=["bucket", "n_rows", "checksum"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values("bucket").reset_index(drop=True)


BUCKETED_CHECKSUMS_SQL = """
SELECT CAST(doc_id % 16 AS BIGINT) AS bucket,
       CAST(count(*) AS BIGINT) AS n_rows,
       CAST(sum(md5_number_lower(text) % 2305843009213693951)
            % 2305843009213693951 AS BIGINT) AS checksum
FROM documents GROUP BY 1 ORDER BY 1
"""


def ks_length_sources(sf_dir: str, src_a: str = "src0", src_b: str = "src1") -> pd.DataFrame:
    """Two-sample Kolmogorov-Smirnov statistic between two sources'
    doc-length distributions — the distribution-equality test behind
    crawl-slice regression checks. Lengths are integers, so the exact
    CDFs walk the merged distinct-value domain: per-batch
    (length, n_a, n_b) partials, ONE bucketed aggregate over the
    value domain, and the tiny sorted walk takes
    D = max |F_a - F_b| on the driver."""
    import numpy as np

    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "documents", columns=["source", "text"])

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["source"].isin([src_a, src_b])]
        d = pd.DataFrame(
            {"length": df["text"].str.len().astype("int64"), "source": df["source"]}
        )
        c = d.groupby(["length", "source"]).size().unstack(fill_value=0)
        for s in (src_a, src_b):
            if s not in c.columns:
                c[s] = 0
        return pd.DataFrame(
            {"length": c.index.astype("int64"), "n_a": c[src_a].to_numpy(),
             "n_b": c[src_b].to_numpy()}
        )

    counts = (
        bucketed_aggregate(
            ds.map_batches(_partial, batch_format="pandas"),
            "length",
            {"n_a": ("n_a", "sum"), "n_b": ("n_b", "sum")},
            num_buckets=8,
        )
        .to_pandas()
        .sort_values("length")
    )
    ta, tb = counts["n_a"].sum(), counts["n_b"].sum()
    d = float(
        np.abs(counts["n_a"].cumsum() / ta - counts["n_b"].cumsum() / tb).max()
    )
    return pd.DataFrame({"ks_stat": [round(d, 6)]})


KS_LENGTH_SOURCES_SQL = """
WITH d AS (
  SELECT length(text) AS len, source FROM documents WHERE source IN ('src0', 'src1')
),
c AS (
  SELECT len,
         sum(CASE WHEN source = 'src0' THEN 1 ELSE 0 END) AS n_a,
         sum(CASE WHEN source = 'src1' THEN 1 ELSE 0 END) AS n_b
  FROM d GROUP BY len
),
w AS (
  SELECT sum(n_a) OVER (ORDER BY len) * 1.0 / (SELECT sum(n_a) FROM c) AS fa,
         sum(n_b) OVER (ORDER BY len) * 1.0 / (SELECT sum(n_b) FROM c) AS fb
  FROM c
)
SELECT round(max(abs(fa - fb)), 6) AS ks_stat FROM w
"""


def zipf_slope(sf_dir: str, k: int = 1000) -> pd.DataFrame:
    """Zipf power-law fit of the vocabulary: OLS slope of ln(count)
    against ln(rank) over the top-k terms — the corpus-health
    diagnostic (natural corpora fit ≈ -1; generated or templated text
    drifts). The term counts come from the same distributed
    vocabulary reduction as :func:`vocab_top_terms`; the fit runs on
    the tiny k-row result with the deterministic (count desc, term)
    rank order mirrored in the oracle's row_number()."""
    import numpy as np

    top = vocab_top_terms(sf_dir, k=k)
    n = len(top)
    x = np.log(np.arange(1, n + 1, dtype=np.float64))
    y = np.log(top["n"].to_numpy(np.float64))
    mx, my = x.mean(), y.mean()
    slope = ((x - mx) * (y - my)).sum() / ((x - mx) ** 2).sum()
    return pd.DataFrame(
        {"n_terms": pd.Series([n], dtype="int64"), "slope": [round(float(slope), 6)]}
    )


def zipf_slope_sql(k: int = 1000) -> str:
    return f"""
WITH c AS (
  SELECT t.term, count(*) AS n
  FROM documents, unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS t(term)
  GROUP BY t.term ORDER BY n DESC, term LIMIT {k}
),
r AS (SELECT ln(row_number() OVER (ORDER BY n DESC, term)) AS x, ln(n) AS y FROM c)
SELECT CAST(count(*) AS BIGINT) AS n_terms,
       round(regr_slope(y, x), 6) AS slope
FROM r
"""


ZIPF_SLOPE_SQL = zipf_slope_sql()


def doc_length_percentile(sf_dir: str) -> pd.DataFrame:
    """Quantile-transform feature: each document's length mapped to
    its corpus percent_rank ((rank-1)/(n-1)) — the normalization that
    makes length filters SF-invariant. Reuses the distributed
    global-rank primitive over the documents table (ranks by
    (length, doc_id) — the deterministic tie-break mirrored in the
    oracle's ORDER BY)."""
    import numpy as np

    from ocr_pipeline_ray.pipelines.relational import _global_rank

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        lambda df: pd.DataFrame(
            {"doc_id": df["doc_id"].astype("int64"),
             "length": df["text"].str.len().astype("float64")}
        ),
        batch_format="pandas",
    )
    n = int(ds.count())
    ranked = _global_rank(ds, "length", ["doc_id"])

    def _pct(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"doc_id": df["doc_id"].astype("int64"),
             "length_pct": ((df["rank"].to_numpy(np.float64) - 1) / (n - 1)).round(6)}
        )

    out = ranked.map_batches(_pct, batch_format="pandas").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


DOC_LENGTH_PERCENTILE_SQL = """
SELECT doc_id,
       round((row_number() OVER (ORDER BY length(text), doc_id) - 1) * 1.0
             / (count(*) OVER () - 1), 6) AS length_pct
FROM documents ORDER BY doc_id
"""


def partition_skew_report(sf_dir: str, bucket_chars: int = 400) -> pd.DataFrame:
    """Partition-planning diagnostic: if the corpus were partitioned
    by (source, length-band), how balanced would the partitions be?
    Reports partition count, max/mean partition sizes and the skew
    factor max/mean — the pre-flight check before choosing a
    partitioning key at scale (a skew factor of k means the slowest
    worker does k× the average work). One bucketed count, tiny driver
    arithmetic."""
    import numpy as np

    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "documents", columns=["source", "text"])

    def _cells(df: pd.DataFrame) -> pd.DataFrame:
        d = pd.DataFrame(
            {"source": df["source"],
             "band": (df["text"].str.len() // bucket_chars).astype("int64")}
        )
        return d.groupby(["source", "band"], as_index=False).size().rename(columns={"size": "n"})

    cells = bucketed_aggregate(
        ds.map_batches(_cells, batch_format="pandas"),
        ["source", "band"],
        {"n": ("n", "sum")},
        num_buckets=8,
    ).to_pandas()
    sizes = cells["n"].to_numpy(np.float64)
    return pd.DataFrame(
        {
            "n_partitions": pd.Series([len(sizes)], dtype="int64"),
            "max_rows": pd.Series([int(sizes.max())], dtype="int64"),
            "mean_rows": [round(float(sizes.mean()), 4)],
            "skew_factor": [round(float(sizes.max() / sizes.mean()), 4)],
        }
    )


PARTITION_SKEW_REPORT_SQL = """
WITH c AS (
  SELECT source, length(text) // 400 AS band, count(*) AS n
  FROM documents GROUP BY 1, 2
)
SELECT CAST(count(*) AS BIGINT) AS n_partitions,
       CAST(max(n) AS BIGINT) AS max_rows,
       round(avg(n), 4) AS mean_rows,
       round(max(n) / avg(n), 4) AS skew_factor
FROM c
"""


def ttr_by_source(sf_dir: str) -> pd.DataFrame:
    """Type-token ratio per source (distinct terms / total tokens —
    the lexical-diversity signal quality filters threshold on).
    Per-batch (source, term) counting is one pandas groupby over the
    batch's tagged token stream; totals combine through the bucketed
    aggregate over the (source, term) key domain, and the per-source
    reduce (distinct = surviving rows, tokens = summed counts) is a
    second tiny bucketed aggregate — the vocabulary never reaches the
    driver.
    """
    import numpy as np

    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "documents", columns=["source", "text"])

    def count_batch(t: pa.Table) -> pa.Table:
        srcs: list[str] = []
        toks: list[str] = []
        for src, s in zip(t["source"].to_pylist(), t["text"].to_pylist()):
            tt = TOKEN_RE.findall(s.lower())
            toks.extend(tt)
            srcs.extend([src] * len(tt))
        df = pd.DataFrame({"source": srcs, "term": toks})
        out = df.groupby(["source", "term"], as_index=False).size()
        return pa.Table.from_pandas(
            out.rename(columns={"size": "n"}), preserve_index=False
        )

    per_term = bucketed_aggregate(
        ds.map_batches(count_batch, batch_format="pyarrow"),
        ["source", "term"],
        {"n": ("n", "sum")},
        num_buckets=16,
    )

    def _src_partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("source")
        return pd.DataFrame(
            {
                "source": g.size().index,
                "n_distinct": g.size().to_numpy("int64"),
                "n_tokens": g["n"].sum().to_numpy("int64"),
            }
        )

    parts = per_term.map_batches(_src_partial, batch_format="pandas").to_pandas()
    out = parts.groupby("source", as_index=False)[["n_distinct", "n_tokens"]].sum()
    out["ttr"] = (out["n_distinct"] / out["n_tokens"]).round(6)
    out["n_distinct"] = out["n_distinct"].astype("int64")
    out["n_tokens"] = out["n_tokens"].astype("int64")
    return out.sort_values("source").reset_index(drop=True)


TTR_BY_SOURCE_SQL = """
WITH t AS (
  SELECT source, tt.term
  FROM documents,
       unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS tt(term)
)
SELECT source, CAST(count(DISTINCT term) AS BIGINT) AS n_distinct,
       CAST(count(*) AS BIGINT) AS n_tokens,
       round(count(DISTINCT term) / CAST(count(*) AS DOUBLE), 6) AS ttr
FROM t GROUP BY source ORDER BY source
"""


def hapax_stats(sf_dir: str) -> pd.DataFrame:
    """Hapax legomena profile of the corpus vocabulary: vocabulary
    size, number of terms occurring exactly once, and the hapax ratio
    (Zipf-tail health check for tokenizer/vocab decisions). Term
    totals reduce through the bucketed aggregate over the vocabulary
    key domain; the hapax count is a per-batch partial over the
    totals — the vocabulary itself never reaches the driver.
    """
    import numpy as np

    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "documents", columns=["text"])

    def count_batch(t: pa.Table) -> pa.Table:
        toks: list[str] = []
        for s in t["text"].to_pylist():
            toks.extend(TOKEN_RE.findall(s.lower()))
        if not toks:
            return pa.Table.from_pydict(
                {"term": pa.array([], pa.string()), "n": pa.array([], pa.int64())}
            )
        uniq, counts = np.unique(np.asarray(toks, dtype=object), return_counts=True)
        return pa.Table.from_pydict(
            {"term": pa.array(list(uniq), pa.string()),
             "n": pa.array(counts, pa.int64())}
        )

    totals = bucketed_aggregate(
        ds.map_batches(count_batch, batch_format="pyarrow"),
        "term",
        {"n": ("n", "sum")},
        num_buckets=16,
    )

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "vocab": [len(df)],
                "hapax": [int((df["n"].to_numpy() == 1).sum())],
            }
        )

    parts = totals.map_batches(_partial, batch_format="pandas").to_pandas()
    vocab = int(parts["vocab"].sum())
    hapax = int(parts["hapax"].sum())
    return pd.DataFrame(
        {
            "vocab_size": [vocab],
            "n_hapax": [hapax],
            "hapax_ratio": [round(hapax / vocab, 6)],
        }
    )


HAPAX_STATS_SQL = """
WITH t AS (
  SELECT tt.term, count(*) AS n
  FROM documents,
       unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS tt(term)
  GROUP BY tt.term
)
SELECT CAST(count(*) AS BIGINT) AS vocab_size,
       CAST(count(*) FILTER (WHERE n = 1) AS BIGINT) AS n_hapax,
       round(count(*) FILTER (WHERE n = 1) / CAST(count(*) AS DOUBLE), 6)
         AS hapax_ratio
FROM t
"""


def dup_cluster_size_hist(sf_dir: str) -> pd.DataFrame:
    """Histogram of boilerplate-prefix cluster sizes: docs sharing
    the same 32-char text prefix (template detection — near-identical
    headers cluster even when bodies differ) counted into (cluster
    size -> n_clusters). Two bucketed reductions — (prefix hash ->
    count), then (count -> clusters) — both over bounded key domains;
    raw text never shuffles, only (hash, 1) partials do.
    """
    import hashlib

    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "documents", columns=["text"])

    def hash_batch(t: pa.Table) -> pa.Table:
        hs = [
            hashlib.md5(s[:32].encode("utf-8")).hexdigest()
            for s in t["text"].to_pylist()
        ]
        return pa.Table.from_pydict({"h": pa.array(hs, pa.string())})

    per_hash = bucketed_aggregate(
        ds.map_batches(hash_batch, batch_format="pyarrow"),
        "h",
        {"k": ("h", "size")},
        num_buckets=16,
    )
    hist = (
        bucketed_aggregate(
            per_hash, "k", {"n_clusters": ("k", "size")}, num_buckets=4
        )
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    hist["cluster_size"] = hist["k"].astype("int64")
    hist["n_clusters"] = hist["n_clusters"].astype("int64")
    return hist[["cluster_size", "n_clusters"]]


DUP_CLUSTER_SIZE_HIST_SQL = """
WITH c AS (
  SELECT md5(substr(text, 1, 32)) AS h, count(*) AS k FROM documents GROUP BY 1
)
SELECT CAST(k AS BIGINT) AS cluster_size,
       CAST(count(*) AS BIGINT) AS n_clusters
FROM c GROUP BY k ORDER BY cluster_size
"""


def cramers_v_lang_source(sf_dir: str) -> pd.DataFrame:
    """Effect size of the (lang x source) association: chi-square
    over the contingency table plus Cramér's V (chi2 alone grows with
    n; V is the [0,1]-normalized strength — the number you compare
    across corpora). The contingency reduces through the bucketed
    aggregate over the bounded (lang, source) domain; expected
    counts, chi2, dof and V are arithmetic on that table.
    """
    import numpy as np

    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "documents", columns=["lang", "source"])
    ct = bucketed_aggregate(
        ds, ["lang", "source"], {"n": ("lang", "size")}, num_buckets=8
    ).to_pandas()
    piv = ct.pivot_table(
        index="lang", columns="source", values="n", fill_value=0
    ).astype("float64")
    o = piv.to_numpy()
    n = o.sum()
    e = o.sum(axis=1, keepdims=True) * o.sum(axis=0, keepdims=True) / n
    chi2 = float(((o - e) ** 2 / e).sum())
    r, c = o.shape
    dof = (r - 1) * (c - 1)
    v = float(np.sqrt(chi2 / (n * (min(r, c) - 1))))
    return pd.DataFrame(
        {
            "chi2": [round(chi2, 6)],
            "dof": [int(dof)],
            "cramers_v": [round(v, 6)],
        }
    )


CRAMERS_V_LANG_SOURCE_SQL = """
WITH ct AS (
  SELECT lang, source, CAST(count(*) AS DOUBLE) AS n
  FROM documents GROUP BY 1, 2
),
tot AS (SELECT sum(n) AS n FROM ct),
rt AS (SELECT lang, sum(n) AS rn FROM ct GROUP BY lang),
st AS (SELECT source, sum(n) AS cn FROM ct GROUP BY source),
full_grid AS (
  SELECT rt.lang, st.source, coalesce(ct.n, 0) AS o,
         rt.rn * st.cn / tot.n AS e
  FROM rt CROSS JOIN st CROSS JOIN tot
  LEFT JOIN ct ON ct.lang = rt.lang AND ct.source = st.source
),
x AS (
  SELECT sum((o - e) * (o - e) / e) AS chi2,
         (count(DISTINCT lang) - 1) * (count(DISTINCT source) - 1) AS dof,
         least(count(DISTINCT lang), count(DISTINCT source)) - 1 AS mind
  FROM full_grid
)
SELECT round(chi2, 6) AS chi2, CAST(dof AS BIGINT) AS dof,
       round(sqrt(chi2 / ((SELECT n FROM tot) * mind)), 6) AS cramers_v
FROM x
"""


def mixed_format_union(sf_dir: str) -> pd.DataFrame:
    """Format federation under the correctness gate: half the corpus
    is exported as JSONL, half as parquet (split on doc_id parity),
    then BOTH formats are read back by their native distributed
    readers, unioned, and reconciled per source — the
    heterogeneous-lake read path (the engine's read_docs supports
    parquet/CSV/JSONL/Lance; this certifies the union seam
    end-to-end). Deterministic layout under /tmp.
    """
    import shutil as _shutil

    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    root = "/tmp/ocr_ray_mixed_union"
    _shutil.rmtree(root, ignore_errors=True)

    ds = _read(sf_dir, "documents", columns=["doc_id", "source", "n_chars"])

    def _half(even: bool):
        def _f(df: pd.DataFrame) -> pd.DataFrame:
            m = (df["doc_id"].to_numpy("int64") % 2 == 0) == even
            return df[m]

        return _f

    ds.map_batches(_half(True), batch_format="pandas").write_json(f"{root}/jsonl")
    ds.map_batches(_half(False), batch_format="pandas").write_parquet(f"{root}/parquet")

    back = ray.data.read_json(f"{root}/jsonl").union(
        ray.data.read_parquet(f"{root}/parquet")
    )
    out = (
        bucketed_aggregate(
            back.map_batches(
                lambda df: df[["source", "n_chars"]], batch_format="pandas"
            ),
            ["source"],
            {"n_docs": ("n_chars", "size"), "n_chars": ("n_chars", "sum")},
            num_buckets=4,
        )
        .to_pandas()
        .sort_values("source")
        .reset_index(drop=True)
    )
    out["n_docs"] = out["n_docs"].astype("int64")
    out["n_chars"] = out["n_chars"].astype("int64")
    return out[["source", "n_docs", "n_chars"]]


MIXED_FORMAT_UNION_SQL = """
SELECT source, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(n_chars) AS BIGINT) AS n_chars
FROM documents GROUP BY source ORDER BY source
"""


def heaps_law_fit(sf_dir: str) -> pd.DataFrame:
    """Heaps' law exponent of vocabulary growth: fit
    V(n) ~ K * n^beta over 10 corpus-prefix checkpoints (prefix =
    doc_id order; beta ~0.4-0.6 for natural text — the
    tokenizer-budget planning number next to the Zipf slope). Fully
    distributed: each term's FIRST-SEEN doc reduces through a
    bucketed min aggregate (the vocabulary never reaches the driver);
    cumulative token and vocab counts at each checkpoint come from
    per-batch partial sums (10 numbers per batch); the log-log OLS
    runs on 10 points.
    """
    import numpy as np

    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    lo = ds.min("doc_id")
    hi = ds.max("doc_id")
    bounds = [lo + (hi - lo + 1) * i // 10 - 1 for i in range(1, 11)]
    barr = np.array(bounds, dtype="int64")

    def _term_first(t: pa.Table) -> pa.Table:
        ids, terms = [], []
        for did, s in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            for tok in set(TOKEN_RE.findall(s.lower())):
                ids.append(did)
                terms.append(tok)
        return pa.Table.from_pydict(
            {"term": pa.array(terms, pa.string()), "doc_id": pa.array(ids, pa.int64())}
        )

    first_seen = bucketed_aggregate(
        ds.map_batches(_term_first, batch_format="pyarrow"),
        "term",
        {"fd": ("doc_id", "min")},
        num_buckets=16,
    )

    def _vocab_partial(df: pd.DataFrame) -> pd.DataFrame:
        fd = df["fd"].to_numpy("int64")
        return pd.DataFrame(
            {"i": np.arange(1, 11), "v": [(fd <= b).sum() for b in barr]}
        )

    def _tok_partial(t: pa.Table) -> pd.DataFrame:
        ids = np.asarray(t["doc_id"].to_pylist(), dtype="int64")
        ntok = np.asarray(
            [len(TOKEN_RE.findall(s.lower())) for s in t["text"].to_pylist()],
            dtype="int64",
        )
        return pd.DataFrame(
            {"i": np.arange(1, 11), "t": [ntok[ids <= b].sum() for b in barr]}
        )

    v = (
        first_seen.map_batches(_vocab_partial, batch_format="pandas")
        .to_pandas()
        .groupby("i")["v"]
        .sum()
    )
    t = (
        ds.map_batches(_tok_partial, batch_format="pyarrow")
        .to_pandas()
        .groupby("i")["t"]
        .sum()
    )
    pts = pd.DataFrame({"t": t, "v": v}).query("t > 0 and v > 0")
    x = np.log(pts["t"].to_numpy("float64"))
    y = np.log(pts["v"].to_numpy("float64"))
    n = len(x)
    slope = (n * (x * y).sum() - x.sum() * y.sum()) / (
        n * (x * x).sum() - x.sum() ** 2
    )
    return pd.DataFrame({"heaps_beta": [round(float(slope), 6)]})


HEAPS_LAW_FIT_SQL = """
WITH tok AS (
  SELECT doc_id, tt.term
  FROM documents,
       unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS tt(term)
),
dom AS (SELECT min(doc_id) AS lo, max(doc_id) AS hi FROM documents),
cps AS (
  SELECT i.i, dom.lo + (dom.hi - dom.lo + 1) * i.i // 10 - 1 AS bound
  FROM dom, (SELECT unnest(generate_series(1, 10)) AS i) i
),
fs AS (SELECT term, min(doc_id) AS fd FROM tok GROUP BY term),
pts AS (
  SELECT i,
         (SELECT count(*) FROM tok WHERE doc_id <= bound) AS t,
         (SELECT count(*) FROM fs WHERE fd <= bound) AS v
  FROM cps
)
SELECT round(regr_slope(ln(v), ln(t)), 6) AS heaps_beta
FROM pts WHERE t > 0 AND v > 0
"""


def train_test_split_audit(sf_dir: str) -> pd.DataFrame:
    """Train/test split audit — the ML-ops gate before any model
    run: a deterministic hash split (doc_id % 10 < 8 -> train), with
    (a) split sizes, and (b) EXACT-DUPLICATE LEAKAGE: distinct
    md5(text) values present on BOTH sides (a leak inflates eval).
    The per-hash side-membership reduces through the bucketed
    aggregate as a 2-bit mask (OR of sides); only mask==3 counts —
    text never reaches the driver.
    """
    import hashlib

    import numpy as np

    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def _mask(t: pa.Table) -> pd.DataFrame:
        ids = np.asarray(t["doc_id"].to_pylist(), dtype="int64")
        side = np.where(ids % 10 < 8, 1, 2)
        hs = [hashlib.md5(s.encode("utf-8")).hexdigest() for s in t["text"].to_pylist()]
        return pd.DataFrame({"h": hs, "side": side, "n_train": (side == 1).astype("int64")})

    masked = ds.map_batches(_mask, batch_format="pyarrow")
    per_hash = bucketed_aggregate(
        masked,
        ["h"],
        {"mask_min": ("side", "min"), "mask_max": ("side", "max"),
         "n_train": ("n_train", "sum"), "n_rows": ("side", "size")},
        num_buckets=16,
    )

    def _summ(df: pd.DataFrame) -> pd.DataFrame:
        leaks = int(((df["mask_min"] == 1) & (df["mask_max"] == 2)).sum())
        return pd.DataFrame(
            {
                "n_train": [int(df["n_train"].sum())],
                "n_rows": [int(df["n_rows"].sum())],
                "leaks": [leaks],
            }
        )

    parts = per_hash.map_batches(_summ, batch_format="pandas").to_pandas()
    n_train = int(parts["n_train"].sum())
    n_rows = int(parts["n_rows"].sum())
    return pd.DataFrame(
        {
            "n_train": [n_train],
            "n_test": [n_rows - n_train],
            "n_dup_leaks": [int(parts["leaks"].sum())],
        }
    )


TRAIN_TEST_SPLIT_AUDIT_SQL = """
WITH m AS (
  SELECT md5(text) AS h,
         CASE WHEN doc_id % 10 < 8 THEN 1 ELSE 2 END AS side
  FROM documents
)
SELECT CAST(count(*) FILTER (WHERE side = 1) AS BIGINT) AS n_train,
       CAST(count(*) FILTER (WHERE side = 2) AS BIGINT) AS n_test,
       CAST((SELECT count(*) FROM (
          SELECT h FROM m GROUP BY h HAVING min(side) = 1 AND max(side) = 2
       )) AS BIGINT) AS n_dup_leaks
FROM m
"""


def vocab_coverage_curve(sf_dir: str) -> pd.DataFrame:
    """Tokenizer-budget coverage curve: the fraction of all token
    OCCURRENCES covered by the top-V vocabulary, for V in
    (10, 100, 1000) — the planning number behind every vocab-size
    decision. Term totals reduce through the bucketed aggregate; the
    top-1000 survives via the partial top-k reduce (driver sees 1000
    rows) and the grand total via a per-batch scalar partial.
    Deterministic ties: count desc, term asc.
    """
    import numpy as np

    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate, partial_topk

    ds = _read(sf_dir, "documents", columns=["text"])

    def count_batch(t: pa.Table) -> pa.Table:
        toks: list[str] = []
        for s in t["text"].to_pylist():
            toks.extend(TOKEN_RE.findall(s.lower()))
        if not toks:
            return pa.Table.from_pydict(
                {"term": pa.array([], pa.string()), "n": pa.array([], pa.int64())}
            )
        uniq, counts = np.unique(np.asarray(toks, dtype=object), return_counts=True)
        return pa.Table.from_pydict(
            {"term": pa.array(list(uniq), pa.string()),
             "n": pa.array(counts, pa.int64())}
        )

    totals = bucketed_aggregate(
        ds.map_batches(count_batch, batch_format="pyarrow"),
        "term",
        {"n": ("n", "sum")},
        num_buckets=16,
    )
    top = partial_topk(totals, by=["n", "term"], ascending=[False, True], k=1000)
    grand = int(
        totals.map_batches(
            lambda df: pd.DataFrame({"s": [int(df["n"].sum())]}), batch_format="pandas"
        )
        .to_pandas()["s"]
        .sum()
    )
    cum = top["n"].to_numpy("int64").cumsum()
    rows = []
    for v in (10, 100, 1000):
        covered = int(cum[min(v, len(cum)) - 1]) if len(cum) else 0
        rows.append((v, round(covered / grand, 6)))
    return pd.DataFrame(rows, columns=["top_v", "coverage"]).astype(
        {"top_v": "int64"}
    )


VOCAB_COVERAGE_CURVE_SQL = """
WITH t AS (
  SELECT tt.term, CAST(count(*) AS BIGINT) AS n
  FROM documents,
       unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS tt(term)
  GROUP BY tt.term
),
tot AS (SELECT sum(n) AS total FROM t),
r AS (SELECT n, row_number() OVER (ORDER BY n DESC, term) AS rk FROM t)
SELECT v.v AS top_v,
       round((SELECT sum(n) FROM r WHERE rk <= v.v) / CAST(total AS DOUBLE), 6)
         AS coverage
FROM (VALUES (10), (100), (1000)) v(v), tot
ORDER BY top_v
"""


def pii_redact_audit(sf_dir: str) -> pd.DataFrame:
    """The REDACTION half of the PII stage (pii_counts is the
    detection half): plant the same deterministic emails/phones/IPs,
    replace every match with '[PII]' (email -> phone -> ip, fixed
    order, non-overlapping left-to-right on both engines), and
    certify per source: docs touched, total chars after redaction,
    and the residual hit count — which the oracle also computes on
    ITS redacted text, so a lazy no-op redactor cannot pass.
    Stateless map_batches; regexes compiled once per actor.
    """
    import re

    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    docs = _read(sf_dir, "documents", columns=["doc_id", "source", "text"])

    class _Redact:
        def __init__(self):
            self.pats = [
                re.compile(_PII_EMAIL),
                re.compile(_PII_PHONE),
                re.compile(_PII_IP),
            ]

        def __call__(self, t: pa.Table) -> pd.DataFrame:
            srcs, touched, chars, resid = [], [], [], []
            for doc_id, src, s in zip(
                t["doc_id"].to_pylist(), t["source"].to_pylist(), t["text"].to_pylist()
            ):
                if doc_id % 20 == 0:
                    s = f"{s} contact_{doc_id}@example.com from 10.0.{doc_id % 256}.{doc_id % 100}"
                if doc_id % 40 == 0:
                    s = f"{s} call {300 + doc_id % 700:03d}-555-{1000 + doc_id % 9000:04d}"
                red = s
                for p in self.pats:
                    red = p.sub("[PII]", red)
                srcs.append(src)
                touched.append(int(red != s))
                chars.append(len(red))
                resid.append(sum(len(p.findall(red)) for p in self.pats))
            return pd.DataFrame(
                {
                    "source": srcs,
                    "n_redacted_docs": pd.Series(touched, dtype="int64"),
                    "n_chars": pd.Series(chars, dtype="int64"),
                    "n_residual_hits": pd.Series(resid, dtype="int64"),
                }
            )

    out = (
        bucketed_aggregate(
            docs.map_batches(_Redact, batch_format="pyarrow", concurrency=(1, 4)),
            ["source"],
            {
                "n_redacted_docs": ("n_redacted_docs", "sum"),
                "n_chars": ("n_chars", "sum"),
                "n_residual_hits": ("n_residual_hits", "sum"),
            },
            num_buckets=4,
        )
        .to_pandas()
        .sort_values("source")
        .reset_index(drop=True)
    )
    for c in ("n_redacted_docs", "n_chars", "n_residual_hits"):
        out[c] = out[c].astype("int64")
    return out[["source", "n_redacted_docs", "n_chars", "n_residual_hits"]]


PII_REDACT_AUDIT_SQL = rf"""
WITH planted AS (
  SELECT doc_id, source,
         text
         || CASE WHEN doc_id % 20 = 0
                 THEN ' contact_' || doc_id || '@example.com from 10.0.'
                      || (doc_id % 256) || '.' || (doc_id % 100)
                 ELSE '' END
         || CASE WHEN doc_id % 40 = 0
                 THEN ' call ' || printf('%03d', 300 + doc_id % 700)
                      || '-555-' || printf('%04d', 1000 + doc_id % 9000)
                 ELSE '' END AS text
  FROM documents
),
red AS (
  SELECT source, text,
         regexp_replace(
           regexp_replace(
             regexp_replace(text, '{_PII_EMAIL}', '[PII]', 'g'),
             '{_PII_PHONE}', '[PII]', 'g'),
           '{_PII_IP}', '[PII]', 'g') AS redacted
  FROM planted
)
SELECT source,
       CAST(count(*) FILTER (WHERE redacted <> text) AS BIGINT)
         AS n_redacted_docs,
       CAST(sum(length(redacted)) AS BIGINT) AS n_chars,
       CAST(sum(len(regexp_extract_all(redacted, '{_PII_EMAIL}'))
              + len(regexp_extract_all(redacted, '{_PII_PHONE}'))
              + len(regexp_extract_all(redacted, '{_PII_IP}'))) AS BIGINT)
         AS n_residual_hits
FROM red GROUP BY source ORDER BY source
"""


# ---------------------------------------------------------------------------
# DSIR — Data Selection via Importance Resampling (Xie et al. 2023,
# arXiv:2302.03169): score raw docs by hashed/unigram importance
# log-ratio against a target distribution, select the top-k
# ---------------------------------------------------------------------------


def dsir_selection(sf_dir: str, target_lang: str = "en", k: int = 100) -> pd.DataFrame:
    """DSIR data selection: pick the ``k`` non-target docs whose
    unigram distribution is most target-like. Target = docs with
    ``lang == target_lang``; raw = the whole corpus. Per doc the
    importance weight is the sum over token OCCURRENCES of
    ``ln(p_target(w) / p_raw(w))`` with add-1 smoothing over the joint
    vocabulary.

    Distributed shape:

    1. ONE pass emits per-batch partial (term, c_raw, c_tgt) counts;
       the vocabulary key domain rides the high-cardinality-safe
       bucketed aggregate — corpus bytes never shuffle.
    2. The vocab table (vocabulary << corpus, the same broadcast
       assumption every df/idf operator here documents) reduces to a
       sorted term array + one log-ratio vector and broadcasts once.
    3. ONE streaming scoring pass over non-target docs; each batch
       emits only its local top-k, the driver reduces k rows/batch.

    Ranking uses unrounded weights (matches the SQL ORDER BY); the
    reported weight rounds to 4 decimals for hash comparison.
    """
    import numpy as np

    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])

    def _counts(t: pa.Table) -> pa.Table:
        terms: list[str] = []
        tgt: list[bool] = []
        for s, lg in zip(t["text"].to_pylist(), t["lang"].to_pylist()):
            toks = TOKEN_RE.findall(s.lower())
            terms.extend(toks)
            tgt.extend([lg == target_lang] * len(toks))
        if not terms:
            return pa.Table.from_pydict(
                {
                    "term": pa.array([], pa.string()),
                    "c_raw": pa.array([], pa.int64()),
                    "c_tgt": pa.array([], pa.int64()),
                }
            )
        arr = np.asarray(terms, dtype=object)
        is_t = np.asarray(tgt, dtype=np.int64)
        uniq, inv = np.unique(arr, return_inverse=True)
        c_raw = np.bincount(inv, minlength=len(uniq))
        c_tgt = np.bincount(inv, weights=is_t, minlength=len(uniq)).astype(np.int64)
        return pa.Table.from_pydict(
            {
                "term": pa.array(list(uniq), pa.string()),
                "c_raw": pa.array(c_raw, pa.int64()),
                "c_tgt": pa.array(c_tgt, pa.int64()),
            }
        )

    vocab = (
        bucketed_aggregate(
            ds.map_batches(_counts, batch_format="pyarrow"),
            "term",
            {"c_raw": ("c_raw", "sum"), "c_tgt": ("c_tgt", "sum")},
            num_buckets=16,
        )
        .to_pandas()
        .sort_values("term")
        .reset_index(drop=True)
    )
    v = len(vocab)
    n_raw = float(vocab["c_raw"].sum())
    n_tgt = float(vocab["c_tgt"].sum())
    log_ratio = np.log((vocab["c_tgt"].to_numpy() + 1.0) / (n_tgt + v)) - np.log(
        (vocab["c_raw"].to_numpy() + 1.0) / (n_raw + v)
    )
    ref = ray.put((vocab["term"].to_numpy(), log_ratio))

    class _Score:
        def __init__(self):
            self.terms, self.lr = ray.get(ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            import numpy as np

            ids, ws = [], []
            for did, s, lg in zip(
                t["doc_id"].to_pylist(), t["text"].to_pylist(), t["lang"].to_pylist()
            ):
                if lg == target_lang:
                    continue
                toks = TOKEN_RE.findall(s.lower())
                if not toks:
                    continue
                uniq, tf = np.unique(np.asarray(toks, dtype=object), return_counts=True)
                idx = np.searchsorted(self.terms, uniq)
                ids.append(did)
                ws.append(float((tf * self.lr[idx]).sum()))
            if not ids:
                return pa.Table.from_pydict(
                    {"doc_id": pa.array([], pa.int64()), "w": pa.array([], pa.float64())}
                )
            # local top-k partial: only k rows per batch reach the driver
            ids_a, ws_a = np.asarray(ids, dtype=np.int64), np.asarray(ws)
            top = np.lexsort((ids_a, -ws_a))[:k]
            return pa.Table.from_pydict(
                {"doc_id": pa.array(ids_a[top], pa.int64()), "w": pa.array(ws_a[top], pa.float64())}
            )

    parts = ds.map_batches(_Score, batch_format="pyarrow", concurrency=(1, 4)).to_pandas()
    parts = parts.sort_values(["w", "doc_id"], ascending=[False, True]).head(k)
    out = parts.reset_index(drop=True)
    out["dsir_weight"] = out["w"].round(4)
    out["doc_id"] = out["doc_id"].astype("int64")
    return out[["doc_id", "dsir_weight"]]


def dsir_selection_sql(target_lang: str = "en", k: int = 100) -> str:
    return f"""
WITH tokens AS (
  SELECT d.doc_id, d.lang, t.term
  FROM documents d,
       unnest(regexp_extract_all(lower(d.text), '[a-z0-9_]+')) AS t(term)
),
vocab AS (
  SELECT term,
         count(*) AS c_raw,
         count(*) FILTER (WHERE lang = '{target_lang}') AS c_tgt
  FROM tokens GROUP BY term
),
tot AS (
  SELECT CAST(sum(c_raw) AS DOUBLE) AS n_raw,
         CAST(sum(c_tgt) AS DOUBLE) AS n_tgt,
         CAST(count(*) AS DOUBLE) AS v
  FROM vocab
),
scored AS (
  SELECT tok.doc_id,
         sum(ln((vb.c_tgt + 1.0) / (tot.n_tgt + tot.v))
             - ln((vb.c_raw + 1.0) / (tot.n_raw + tot.v))) AS w
  FROM tokens tok JOIN vocab vb USING (term) CROSS JOIN tot
  WHERE tok.lang <> '{target_lang}'
  GROUP BY tok.doc_id
)
SELECT CAST(doc_id AS BIGINT) AS doc_id, round(w, 4) AS dsir_weight
FROM scored ORDER BY w DESC, doc_id LIMIT {k}
"""


DSIR_SELECTION_SQL = dsir_selection_sql()


# ---------------------------------------------------------------------------
# Distributed logistic regression — the fastText/CCNet-style quality/
# language classifier trained IN the pipeline (full-batch GD, one
# map_batches pass per iteration emitting tiny gradient partials)
# ---------------------------------------------------------------------------

_QC_FEATURES = ["bias", "log_n_chars", "mean_word_len", "stopword_ratio", "alpha_ratio"]


def _qc_feature_matrix(texts: list[str]) -> "np.ndarray":
    """(n, 5) float64 feature matrix shared by the distributed trainer
    and the sequential reference — cheap per-doc stats in the
    C4/Gopher feature tradition (bias, log length, mean word length,
    English-stopword ratio, alpha ratio)."""
    import numpy as np

    from ocr_pipeline_ray.functions.textstats import STOPWORDS

    en_stop = STOPWORDS["en"]
    rows = np.zeros((len(texts), 5), dtype=np.float64)
    for i, s in enumerate(texts):
        toks = TOKEN_RE.findall(s)
        n_tokens = len(toks)
        n_chars = len(s)
        rows[i, 0] = 1.0
        rows[i, 1] = float(np.log1p(n_chars))
        rows[i, 2] = (sum(len(t) for t in toks) / n_tokens) if n_tokens else 0.0
        rows[i, 3] = (
            (sum(1 for t in toks if t.lower() in en_stop) / n_tokens) if n_tokens else 0.0
        )
        rows[i, 4] = (sum(1 for ch in s if ch.isalpha()) / n_chars) if n_chars else 0.0
    return rows


def quality_classifier(
    sf_dir: str, target_lang: str = "en", iters: int = 30, lr: float = 1.0
) -> pd.DataFrame:
    """Train a logistic-regression doc classifier (label: ``lang ==
    target_lang``) INSIDE the pipeline — the quality/language-filter
    model of CCNet/fastText pipelines, here with hand features and
    full-batch gradient descent so the run is deterministic.

    The 100 TB shape: three streaming passes, all reducing to tiny
    driver-side vectors. (1) feature moments (n, sum, sumsq) per batch
    -> global standardization params; (2) ``iters`` rounds, each ONE
    ``map_batches`` pass emitting a (d+1)-float gradient partial per
    batch, driver sums and steps — weights broadcast per round via
    ``ray.put``; (3) a scoring pass counting correct predictions.
    The corpus never materializes; every partial is O(d).

    Iterative -> no SQL oracle; pytest pins the distributed result to
    :func:`quality_classifier_reference` (same math, one process).
    Output: one row per feature weight + a train_accuracy row.
    """
    import numpy as np

    ds = _read(sf_dir, "documents", columns=["text", "lang"])

    def _moments(t: pa.Table) -> pa.Table:
        x = _qc_feature_matrix(t["text"].to_pylist())
        return pa.Table.from_pydict(
            {
                "n": pa.array([len(x)], pa.int64()),
                "s": pa.array([x.sum(axis=0).tolist()]),
                "s2": pa.array([(x * x).sum(axis=0).tolist()]),
            }
        )

    mom = ds.map_batches(_moments, batch_format="pyarrow").to_pandas()
    n = float(mom["n"].sum())
    s = np.stack(mom["s"].to_numpy()).sum(axis=0)
    s2 = np.stack(mom["s2"].to_numpy()).sum(axis=0)
    mean = s / n
    std = np.sqrt(np.maximum(s2 / n - mean * mean, 0.0))
    mean[0], std[0] = 0.0, 1.0  # bias column untouched
    std[std == 0] = 1.0

    w = np.zeros(5, dtype=np.float64)
    for _ in range(iters):
        ref = ray.put((w, mean, std))

        def _grad(t: pa.Table, _r=ref) -> pa.Table:
            wt, mu, sd = ray.get(_r)
            x = (_qc_feature_matrix(t["text"].to_pylist()) - mu) / sd
            y = np.asarray(
                [1.0 if lg == target_lang else 0.0 for lg in t["lang"].to_pylist()]
            )
            p = 1.0 / (1.0 + np.exp(-(x @ wt)))
            g = x.T @ (p - y)
            return pa.Table.from_pydict(
                {"n": pa.array([len(y)], pa.int64()), "g": pa.array([g.tolist()])}
            )

        parts = ds.map_batches(_grad, batch_format="pyarrow").to_pandas()
        g = np.stack(parts["g"].to_numpy()).sum(axis=0)
        w = w - lr * g / float(parts["n"].sum())

    ref = ray.put((w, mean, std))

    def _score(t: pa.Table, _r=ref) -> pa.Table:
        wt, mu, sd = ray.get(_r)
        x = (_qc_feature_matrix(t["text"].to_pylist()) - mu) / sd
        y = np.asarray([1.0 if lg == target_lang else 0.0 for lg in t["lang"].to_pylist()])
        pred = (x @ wt) > 0
        return pa.Table.from_pydict(
            {
                "n": pa.array([len(y)], pa.int64()),
                "correct": pa.array([int((pred == (y > 0.5)).sum())], pa.int64()),
            }
        )

    sc = ds.map_batches(_score, batch_format="pyarrow").to_pandas()
    acc = float(sc["correct"].sum()) / float(sc["n"].sum())
    return pd.DataFrame(
        {
            "name": _QC_FEATURES + ["train_accuracy"],
            "value": [round(float(x), 4) for x in w] + [round(acc, 4)],
        }
    )


def quality_classifier_first_step(sf_dir: str, target_lang: str = "en") -> pd.DataFrame:
    """The distributed GD trainer under an EXACT oracle via the
    first-iterate pattern (``bpe_first_merge``'s sibling for model
    training): with one iteration from ``w = 0`` every sigmoid is
    exactly 0.5, so the single gradient step is the closed form
    ``w = -lr/n * sum_i x_std_i (0.5 - y_i)`` — plain SQL aggregates
    over the standardized features — and the training accuracy is one
    more aggregate over ``sign(x_std . w)``. ALL three distributed
    passes run for real (feature-moment partials, one gradient-partial
    round, the scoring pass); only the iteration count collapses the
    math into SQL. Features/standardization are
    :func:`quality_classifier`'s."""
    return quality_classifier(sf_dir, target_lang=target_lang, iters=1)


def quality_classifier_first_step_sql(target_lang: str = "en", lr: float = 1.0) -> str:
    stop = "('the','and','of','a','to','in','is','that','it','for')"
    return f"""
WITH base AS (
  SELECT lang,
         length(text) AS n_chars,
         len(regexp_extract_all(text, '[A-Za-z0-9_]+')) AS n_tokens,
         length(regexp_replace(text, '[^A-Za-z0-9_]+', '', 'g')) AS tok_chars,
         len(list_filter(regexp_extract_all(lower(text), '[a-z0-9_]+'),
             x -> x IN {stop})) AS n_stop,
         length(regexp_replace(text, '[^A-Za-z]+', '', 'g')) AS n_alpha
  FROM documents
), feat AS (
  SELECT CASE WHEN lang = '{target_lang}' THEN 1.0 ELSE 0.0 END AS y,
         ln(1 + n_chars) AS x1,
         CASE WHEN n_tokens > 0 THEN tok_chars / CAST(n_tokens AS DOUBLE) ELSE 0.0 END AS x2,
         CASE WHEN n_tokens > 0 THEN n_stop / CAST(n_tokens AS DOUBLE) ELSE 0.0 END AS x3,
         CASE WHEN n_chars > 0 THEN n_alpha / CAST(n_chars AS DOUBLE) ELSE 0.0 END AS x4
  FROM base
), st AS (
  SELECT avg(x1) AS m1, CASE WHEN sqrt(greatest(avg(x1*x1) - avg(x1)*avg(x1), 0)) = 0 THEN 1.0 ELSE sqrt(greatest(avg(x1*x1) - avg(x1)*avg(x1), 0)) END AS s1,
         avg(x2) AS m2, CASE WHEN sqrt(greatest(avg(x2*x2) - avg(x2)*avg(x2), 0)) = 0 THEN 1.0 ELSE sqrt(greatest(avg(x2*x2) - avg(x2)*avg(x2), 0)) END AS s2,
         avg(x3) AS m3, CASE WHEN sqrt(greatest(avg(x3*x3) - avg(x3)*avg(x3), 0)) = 0 THEN 1.0 ELSE sqrt(greatest(avg(x3*x3) - avg(x3)*avg(x3), 0)) END AS s3,
         avg(x4) AS m4, CASE WHEN sqrt(greatest(avg(x4*x4) - avg(x4)*avg(x4), 0)) = 0 THEN 1.0 ELSE sqrt(greatest(avg(x4*x4) - avg(x4)*avg(x4), 0)) END AS s4
  FROM feat
), z AS (
  SELECT y, 1.0 AS z0,
         (x1 - m1) / s1 AS z1, (x2 - m2) / s2 AS z2,
         (x3 - m3) / s3 AS z3, (x4 - m4) / s4 AS z4
  FROM feat, st
), w AS (
  SELECT -{lr} * avg(z0 * (0.5 - y)) AS w0,
         -{lr} * avg(z1 * (0.5 - y)) AS w1,
         -{lr} * avg(z2 * (0.5 - y)) AS w2,
         -{lr} * avg(z3 * (0.5 - y)) AS w3,
         -{lr} * avg(z4 * (0.5 - y)) AS w4
  FROM z
), acc AS (
  SELECT avg(CASE WHEN ((z0*w0 + z1*w1 + z2*w2 + z3*w3 + z4*w4) > 0) = (y = 1.0)
                  THEN 1.0 ELSE 0.0 END) AS a
  FROM z, w
)
SELECT 'bias' AS name, round(w0, 4) AS value FROM w
UNION ALL SELECT 'log_n_chars', round(w1, 4) FROM w
UNION ALL SELECT 'mean_word_len', round(w2, 4) FROM w
UNION ALL SELECT 'stopword_ratio', round(w3, 4) FROM w
UNION ALL SELECT 'alpha_ratio', round(w4, 4) FROM w
UNION ALL SELECT 'train_accuracy', round(a, 4) FROM acc
"""


QUALITY_CLASSIFIER_FIRST_STEP_SQL = quality_classifier_first_step_sql()


def quality_classifier_reference(
    sf_dir: str, target_lang: str = "en", iters: int = 30, lr: float = 1.0
) -> pd.DataFrame:
    """Single-process numpy reference for :func:`quality_classifier`
    (same features, standardization, update rule) — the pytest oracle."""
    import numpy as np
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["text", "lang"])
    x = _qc_feature_matrix(t["text"].to_pylist())
    y = np.asarray([1.0 if lg == target_lang else 0.0 for lg in t["lang"].to_pylist()])
    mean, std = x.mean(axis=0), x.std(axis=0)
    mean[0], std[0] = 0.0, 1.0
    std[std == 0] = 1.0
    xs = (x - mean) / std
    w = np.zeros(5, dtype=np.float64)
    for _ in range(iters):
        p = 1.0 / (1.0 + np.exp(-(xs @ w)))
        w = w - lr * (xs.T @ (p - y)) / len(y)
    acc = float((((xs @ w) > 0) == (y > 0.5)).mean())
    return pd.DataFrame(
        {
            "name": _QC_FEATURES + ["train_accuracy"],
            "value": [round(float(v), 4) for v in w] + [round(acc, 4)],
        }
    )


def mixture_rebalance_plan(sf_dir: str) -> pd.DataFrame:
    """Corpus mixture-rebalance plan: per (lang, source) cell, the
    token mass, its share of the corpus, and the downsampling rate
    that would equalize every cell to the uniform target T/G — the
    planning table a data-mixing stage (DoReMi-style reweighting,
    dedup-then-rebalance curation) consults before it samples.
    rate = min(1, target/tokens): over-represented cells downsample,
    under-represented cells keep everything (upsampling is a repeat
    factor decided elsewhere).

    Distributed: per-batch token counts (the [A-Za-z0-9_]+
    tokenizer) partial-aggregate per cell inside the batch, one
    coarse bucketed shuffle combines the ~G cell rows; the plan math
    runs on the G-row result."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "lang", "source"])

    def _toks(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "lang": df["lang"],
                "source": df["source"],
                "one": np.int64(1),
                "toks": [len(TOKEN_RE.findall(s)) for s in df["text"]],
            }
        )

    cells = (
        bucketed_aggregate(
            ds.map_batches(_toks, batch_format="pandas"),
            ["lang", "source"],
            {"n_docs": ("one", "sum"), "n_tokens": ("toks", "sum")},
            num_buckets=8,
        )
        .to_pandas()
        .sort_values(["lang", "source"])
        .reset_index(drop=True)
    )
    total = float(cells["n_tokens"].sum())
    g = len(cells)
    target = total / g
    toks = cells["n_tokens"].to_numpy("float64")
    rate = np.minimum(1.0, target / toks)
    return pd.DataFrame(
        {
            "lang": cells["lang"],
            "source": cells["source"],
            "n_docs": cells["n_docs"].astype("int64"),
            "n_tokens": cells["n_tokens"].astype("int64"),
            "token_share": np.round(toks / total, 6),
            "target_tokens": round(target, 2),
            "sample_rate": np.round(rate, 6),
            "expected_tokens": np.round(toks * rate, 2),
        }
    )


MIXTURE_REBALANCE_PLAN_SQL = r"""
WITH cells AS (
  SELECT lang, source, count(*) AS n_docs,
         sum(len(regexp_extract_all(text, '[A-Za-z0-9_]+'))) AS n_tokens
  FROM documents GROUP BY lang, source
),
tot AS (SELECT sum(n_tokens)::DOUBLE AS t, count(*) AS g FROM cells)
SELECT lang, source, CAST(n_docs AS BIGINT) AS n_docs,
       CAST(n_tokens AS BIGINT) AS n_tokens,
       round(n_tokens / (SELECT t FROM tot), 6) AS token_share,
       round((SELECT t / g FROM tot), 2) AS target_tokens,
       round(least(1.0, (SELECT t / g FROM tot) / n_tokens), 6) AS sample_rate,
       round(n_tokens * least(1.0, (SELECT t / g FROM tot) / n_tokens), 2) AS expected_tokens
FROM cells ORDER BY lang, source
"""


def auc_length_english(sf_dir: str, n_range_buckets: int = 64) -> pd.DataFrame:
    """Ranker-evaluation AUC: how well does raw document length
    (n_chars) separate English from non-English documents? AUC is the
    Mann-Whitney statistic rescaled — (rank-sum of positives minus
    n_pos(n_pos+1)/2) / (n_pos*n_neg) with exact midranks — computed
    through the shared distributed midrank reduction
    (relational._rank_sum_stats: range-bucket histogram partials +
    O(buckets) prefix offsets). The model-eval primitive every
    quality-classifier gate needs, with a trivial scorer."""
    from ocr_pipeline_ray.pipelines.relational import _rank_sum_stats

    ds = _read(sf_dir, "documents", columns=["n_chars", "lang"])
    lo = float(ds.min("n_chars"))
    hi = float(ds.max("n_chars"))
    width = (hi - lo) / n_range_buckets or 1.0

    def _hist(df: pd.DataFrame) -> pd.DataFrame:
        g = (
            pd.DataFrame(
                {
                    "x": df["n_chars"].to_numpy("float64"),
                    "c": np.int64(1),
                    "ca": (df["lang"] == "en").to_numpy().astype("int64"),
                }
            )
            .groupby("x", as_index=False)
            .sum()
        )
        g["__bucket"] = np.clip(
            np.floor((g["x"].to_numpy() - lo) / width).astype("int64"), 0, n_range_buckets - 1
        )
        return g

    s = _rank_sum_stats(ds.map_batches(_hist, batch_format="pandas"), n_range_buckets)
    na, n = s["na"], s["n"]
    nb = n - na
    auc = (s["ra"] - na * (na + 1) / 2.0) / (na * nb)
    return pd.DataFrame(
        {
            "n_pos": [np.int64(na)],
            "n_neg": [np.int64(nb)],
            "auc": [round(float(auc), 6)],
        }
    )


AUC_LENGTH_ENGLISH_SQL = """
WITH v AS (
  SELECT n_chars AS x, count(*) AS c,
         count(CASE WHEN lang = 'en' THEN 1 END) AS ca
  FROM documents GROUP BY x
),
r AS (SELECT x, c, ca, sum(c) OVER (ORDER BY x) - c AS before FROM v),
agg AS (
  SELECT sum(ca * (before + (c + 1) / 2.0)) AS ra,
         sum(ca) AS na, sum(c) AS n
  FROM r
)
SELECT CAST(na AS BIGINT) AS n_pos, CAST(n - na AS BIGINT) AS n_neg,
       round((ra - na * (na + 1) / 2.0) / (na * (n - na)), 6) AS auc
FROM agg
"""


def reciprocal_rank_fusion(sf_dir: str, k_rrf: int = 60, topk: int = 20) -> pd.DataFrame:
    """Reciprocal-rank fusion of two rankers over the BM25 posting
    union (docs matching any query term): ranker 1 = BM25 relevance,
    ranker 2 = document length prior (longer first). Each candidate's
    RRF score is 1/(60+r1) + 1/(60+r2) — integer ranks only, so the
    fusion is FP-exact across engines; ranks break ties by doc_id.

    Distributed: the candidate set is the BM25 pipeline's result-sized
    posting union; their n_chars come back through a broadcast
    membership filter (pc.is_in inside map_batches), never a
    driver-side scan of the corpus."""
    import pyarrow.compute as pc

    scores = bm25_scores(sf_dir)  # result-sized (posting union)
    need = ray.put(scores["doc_id"].to_numpy("int64"))
    lens = (
        _read(sf_dir, "documents", columns=["doc_id", "n_chars"])
        .map_batches(
            lambda t: t.filter(pc.is_in(t["doc_id"], pa.array(ray.get(need)))),
            batch_format="pyarrow",
        )
        .to_pandas()
    )
    cand = scores.merge(lens, on="doc_id")
    cand = cand.sort_values(["score", "doc_id"], ascending=[False, True]).reset_index(drop=True)
    cand["r_bm25"] = np.arange(1, len(cand) + 1, dtype="int64")
    cand = cand.sort_values(["n_chars", "doc_id"], ascending=[False, True]).reset_index(drop=True)
    cand["r_len"] = np.arange(1, len(cand) + 1, dtype="int64")
    cand["rrf"] = np.round(
        1.0 / (k_rrf + cand["r_bm25"].to_numpy("float64"))
        + 1.0 / (k_rrf + cand["r_len"].to_numpy("float64")),
        6,
    )
    out = (
        cand.sort_values(["rrf", "doc_id"], ascending=[False, True])
        .head(topk)
        .reset_index(drop=True)
    )
    return out[["doc_id", "r_bm25", "r_len", "rrf"]].astype(
        {"doc_id": "int64", "r_bm25": "int64", "r_len": "int64"}
    )


RECIPROCAL_RANK_FUSION_SQL = r"""
WITH feat AS (
  SELECT doc_id, n_chars,
         CAST(len(regexp_extract_all(text, '[A-Za-z0-9_]+')) AS BIGINT) AS dl,
         CAST(len(list_filter(regexp_extract_all(text, '[A-Za-z0-9_]+'), x -> x = 'spark')) AS BIGINT) AS tf_spark,
         CAST(len(list_filter(regexp_extract_all(text, '[A-Za-z0-9_]+'), x -> x = 'window')) AS BIGINT) AS tf_window,
         CAST(len(list_filter(regexp_extract_all(text, '[A-Za-z0-9_]+'), x -> x = 'hash')) AS BIGINT) AS tf_hash
  FROM documents
), stats AS (
  SELECT CAST(COUNT(*) AS DOUBLE) AS n,
         CAST(SUM(dl) AS DOUBLE) / COUNT(*) AS avgdl,
         CAST(SUM(CASE WHEN tf_spark  > 0 THEN 1 ELSE 0 END) AS DOUBLE) AS df_spark,
         CAST(SUM(CASE WHEN tf_window > 0 THEN 1 ELSE 0 END) AS DOUBLE) AS df_window,
         CAST(SUM(CASE WHEN tf_hash   > 0 THEN 1 ELSE 0 END) AS DOUBLE) AS df_hash
  FROM feat
), cand AS (
  SELECT doc_id, n_chars,
         round(
             ln((n - df_spark + 0.5) / (df_spark + 0.5) + 1.0)
               * (tf_spark * 2.2) / (tf_spark + 1.2 * (1 - 0.75 + 0.75 * dl / avgdl))
           + ln((n - df_window + 0.5) / (df_window + 0.5) + 1.0)
               * (tf_window * 2.2) / (tf_window + 1.2 * (1 - 0.75 + 0.75 * dl / avgdl))
           + ln((n - df_hash + 0.5) / (df_hash + 0.5) + 1.0)
               * (tf_hash * 2.2) / (tf_hash + 1.2 * (1 - 0.75 + 0.75 * dl / avgdl)),
         6) AS score
  FROM feat, stats
  WHERE tf_spark + tf_window + tf_hash > 0
), ranked AS (
  SELECT doc_id,
         row_number() OVER (ORDER BY score DESC, doc_id) AS r_bm25,
         row_number() OVER (ORDER BY n_chars DESC, doc_id) AS r_len
  FROM cand
)
SELECT doc_id, r_bm25, r_len,
       round(1.0 / (60 + r_bm25) + 1.0 / (60 + r_len), 6) AS rrf
FROM ranked ORDER BY rrf DESC, doc_id LIMIT 20
"""


def cohens_kappa_labelers(sf_dir: str, len_cut: int = 800) -> pd.DataFrame:
    """Inter-annotator agreement (Cohen's kappa) between two cheap
    deterministic labelers every curation stack compares: labeler 1 =
    "is English" (lang tag), labeler 2 = "is long" (n_chars > 800).
    kappa = (po - pe) / (1 - pe) from the 2x2 confusion counts — the
    agreement primitive for judging weak labelers before ensembling.
    One pass of per-batch confusion partials; four scalars reach the
    driver."""
    ds = _read(sf_dir, "documents", columns=["lang", "n_chars"])

    def _conf(df: pd.DataFrame) -> pd.DataFrame:
        a = (df["lang"] == "en").to_numpy()
        b = (df["n_chars"] > len_cut).to_numpy()
        return pd.DataFrame(
            {
                "n11": [np.int64((a & b).sum())],
                "n10": [np.int64((a & ~b).sum())],
                "n01": [np.int64((~a & b).sum())],
                "n00": [np.int64((~a & ~b).sum())],
            }
        )

    s = ds.map_batches(_conf, batch_format="pandas").to_pandas().sum()
    n11, n10, n01, n00 = (int(s[k]) for k in ("n11", "n10", "n01", "n00"))
    n = n11 + n10 + n01 + n00
    po = (n11 + n00) / n
    pe = ((n11 + n10) / n) * ((n11 + n01) / n) + ((n01 + n00) / n) * ((n10 + n00) / n)
    kappa = (po - pe) / (1 - pe)
    return pd.DataFrame(
        {
            "n": [np.int64(n)],
            "po": [round(po, 6)],
            "pe": [round(pe, 6)],
            "kappa": [round(kappa, 6)],
        }
    )


COHENS_KAPPA_LABELERS_SQL = """
WITH c AS (
  SELECT count(CASE WHEN lang = 'en' AND n_chars > 800 THEN 1 END) AS n11,
         count(CASE WHEN lang = 'en' AND n_chars <= 800 THEN 1 END) AS n10,
         count(CASE WHEN lang <> 'en' AND n_chars > 800 THEN 1 END) AS n01,
         count(CASE WHEN lang <> 'en' AND n_chars <= 800 THEN 1 END) AS n00,
         count(*) AS n
  FROM documents
),
m AS (
  SELECT n, (n11 + n00) / CAST(n AS DOUBLE) AS po,
         ((n11 + n10) / CAST(n AS DOUBLE)) * ((n11 + n01) / CAST(n AS DOUBLE))
         + ((n01 + n00) / CAST(n AS DOUBLE)) * ((n10 + n00) / CAST(n AS DOUBLE)) AS pe
  FROM c
)
SELECT CAST(n AS BIGINT) AS n, round(po, 6) AS po, round(pe, 6) AS pe,
       round((po - pe) / (1 - pe), 6) AS kappa
FROM m
"""


def wasserstein_length_sources(sf_dir: str, src_a: str = "src0", src_b: str = "src1") -> pd.DataFrame:
    """Earth-mover (Wasserstein-1) distance between two sources'
    document-length distributions — the drift metric that, unlike KS
    (ks_length_sources), weighs HOW FAR the mass moved, not just the
    max CDF gap. For discrete empirical distributions
    W1 = sum_i |F_a(v_i) - F_b(v_i)| * (v_{i+1} - v_i) over the merged
    sorted support.

    Distributed: per-batch (n_chars, count) histogram partials per
    source reduce through one bucketed aggregate (the value DOMAIN,
    not the row count, bounds the result); the CDF walk runs on that
    result-sized support."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "documents", columns=["source", "n_chars"]).map_batches(
        lambda df: df[df["source"].isin([src_a, src_b])], batch_format="pandas"
    )

    def _hist(df: pd.DataFrame) -> pd.DataFrame:
        g = (
            pd.DataFrame(
                {
                    "x": df["n_chars"].to_numpy("int64"),
                    "ca": (df["source"] == src_a).to_numpy().astype("int64"),
                    "cb": (df["source"] == src_b).to_numpy().astype("int64"),
                }
            )
            .groupby("x", as_index=False)
            .sum()
        )
        return g

    h = (
        bucketed_aggregate(
            ds.map_batches(_hist, batch_format="pandas"),
            ["x"],
            {"ca": ("ca", "sum"), "cb": ("cb", "sum")},
            num_buckets=16,
        )
        .to_pandas()
        .sort_values("x")
        .reset_index(drop=True)
    )
    na = float(h["ca"].sum())
    nb = float(h["cb"].sum())
    fa = h["ca"].cumsum().to_numpy("float64") / na
    fb = h["cb"].cumsum().to_numpy("float64") / nb
    x = h["x"].to_numpy("float64")
    gaps = np.diff(x)
    w1 = float((np.abs(fa - fb)[:-1] * gaps).sum())
    return pd.DataFrame(
        {
            "n_a": [np.int64(na)],
            "n_b": [np.int64(nb)],
            "support": [np.int64(len(h))],
            "w1": [round(w1, 6)],
        }
    )


def wasserstein_length_sources_sql(src_a: str = "src0", src_b: str = "src1") -> str:
    return f"""
WITH h AS (
  SELECT n_chars AS x,
         count(CASE WHEN source = '{src_a}' THEN 1 END) AS ca,
         count(CASE WHEN source = '{src_b}' THEN 1 END) AS cb
  FROM documents WHERE source IN ('{src_a}', '{src_b}')
  GROUP BY n_chars
),
c AS (
  SELECT x,
         sum(ca) OVER (ORDER BY x) / (SELECT CAST(sum(ca) AS DOUBLE) FROM h) AS fa,
         sum(cb) OVER (ORDER BY x) / (SELECT CAST(sum(cb) AS DOUBLE) FROM h) AS fb,
         lead(x) OVER (ORDER BY x) AS nx
  FROM h
)
SELECT (SELECT CAST(sum(ca) AS BIGINT) FROM h) AS n_a,
       (SELECT CAST(sum(cb) AS BIGINT) FROM h) AS n_b,
       (SELECT CAST(count(*) AS BIGINT) FROM h) AS support,
       round(sum(abs(fa - fb) * (nx - x)), 6) AS w1
FROM c WHERE nx IS NOT NULL
"""


WASSERSTEIN_LENGTH_SOURCES_SQL = wasserstein_length_sources_sql()


_BLOCKLIST = ("casino", "viagra", "lottery", "xxx")


def blocklist_filter_report(sf_dir: str, terms: tuple[str, ...] = _BLOCKLIST) -> pd.DataFrame:
    """Blocklist-filter preflight: per source, how many documents
    would a token blocklist remove and what fraction of the corpus is
    that — the curation gate every web-scale corpus runs before
    training. Matching is whole-token (the [A-Za-z0-9_]+ tokenizer,
    lowercased) so 'class' never trips a 'ass' entry. One tokenize
    pass emits per-batch (source, hit) partials."""
    ds = _read(sf_dir, "documents", columns=["source", "text"])
    tset = set(terms)

    def _scan(df: pd.DataFrame) -> pd.DataFrame:
        hits = [
            any(tok.lower() in tset for tok in TOKEN_RE.findall(s))
            for s in df["text"]
        ]
        return (
            pd.DataFrame({"source": df["source"], "hit": np.asarray(hits, dtype="int64"), "one": np.int64(1)})
            .groupby("source", as_index=False)
            .sum()
        )

    g = (
        ds.map_batches(_scan, batch_format="pandas")
        .to_pandas()
        .groupby("source", as_index=False)
        .sum()
        .sort_values("source")
        .reset_index(drop=True)
    )
    return pd.DataFrame(
        {
            "source": g["source"],
            "n_docs": g["one"].astype("int64"),
            "n_blocked": g["hit"].astype("int64"),
            "block_rate": np.round(g["hit"].to_numpy("float64") / g["one"].to_numpy("float64"), 6),
        }
    )


BLOCKLIST_FILTER_REPORT_SQL = r"""
SELECT source, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(count(CASE WHEN len(list_filter(regexp_extract_all(text, '[A-Za-z0-9_]+'),
              x -> lower(x) IN ('casino', 'viagra', 'lottery', 'xxx'))) > 0 THEN 1 END) AS BIGINT) AS n_blocked,
       round(count(CASE WHEN len(list_filter(regexp_extract_all(text, '[A-Za-z0-9_]+'),
              x -> lower(x) IN ('casino', 'viagra', 'lottery', 'xxx'))) > 0 THEN 1 END)
             / CAST(count(*) AS DOUBLE), 6) AS block_rate
FROM documents GROUP BY source ORDER BY source
"""


def dedup_token_savings(sf_dir: str) -> pd.DataFrame:
    """Token-budget savings report for exact dedup: per source, the
    token mass before and after keeping min(doc_id) per identical
    text (md5 groups) — the number a curation owner reads to decide
    whether dedup is worth the shuffle at this corpus' duplication
    rate. ONE md5-bucket shuffle resolves winners AND sums survivor
    tokens in place; per-source totals ride along as per-batch
    partials."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate
    import hashlib

    ds = _read(sf_dir, "documents", columns=["doc_id", "source", "text"])

    def _prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy("int64"),
                "source": df["source"],
                "h": [hashlib.md5(s.encode("utf-8")).hexdigest() for s in df["text"]],
                "toks": [len(TOKEN_RE.findall(s)) for s in df["text"]],
            }
        )

    prepped = ds.map_batches(_prep, batch_format="pandas").materialize()
    totals = (
        prepped.map_batches(
            lambda df: df.groupby("source", as_index=False).agg(
                n_docs=("doc_id", "size"), total_tokens=("toks", "sum")
            ),
            batch_format="pandas",
        )
        .to_pandas()
        .groupby("source", as_index=False)
        .sum()
    )

    def _bucket(df: pd.DataFrame) -> pd.DataFrame:
        hb = pd.util.hash_pandas_object(df["h"], index=False).to_numpy() % 64
        return df.assign(__hbucket=hb.astype("int64"))

    def _kept(g: pd.DataFrame) -> pd.DataFrame:
        keep = g.groupby("h")["doc_id"].transform("min") == g["doc_id"]
        k = g[keep]
        return k.groupby("source", as_index=False).agg(kept_tokens=("toks", "sum"))

    kept = (
        prepped.map_batches(_bucket, batch_format="pandas")
        .groupby("__hbucket")
        .map_groups(_kept, batch_format="pandas")
        .to_pandas()
        .groupby("source", as_index=False)
        .sum()
    )
    out = totals.merge(kept, on="source", how="left").fillna({"kept_tokens": 0})
    out = out.sort_values("source").reset_index(drop=True)
    return pd.DataFrame(
        {
            "source": out["source"],
            "n_docs": out["n_docs"].astype("int64"),
            "total_tokens": out["total_tokens"].astype("int64"),
            "kept_tokens": out["kept_tokens"].astype("int64"),
            "savings_rate": np.round(
                1.0 - out["kept_tokens"].to_numpy("float64") / out["total_tokens"].to_numpy("float64"), 6
            ),
        }
    )


DEDUP_TOKEN_SAVINGS_SQL = r"""
WITH d AS (
  SELECT doc_id, source, md5(text) AS h,
         CAST(len(regexp_extract_all(text, '[A-Za-z0-9_]+')) AS BIGINT) AS toks
  FROM documents
),
w AS (SELECT h, min(doc_id) AS keep FROM d GROUP BY h)
SELECT source, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(toks) AS BIGINT) AS total_tokens,
       CAST(sum(CASE WHEN doc_id = keep THEN toks ELSE 0 END) AS BIGINT) AS kept_tokens,
       round(1.0 - sum(CASE WHEN doc_id = keep THEN toks ELSE 0 END)
             / CAST(sum(toks) AS DOUBLE), 6) AS savings_rate
FROM d JOIN w USING (h) GROUP BY source ORDER BY source
"""


def yules_k_by_lang(sf_dir: str) -> pd.DataFrame:
    """Yule's K lexical-richness characteristic per language:
    K = 10^4 * (sum_m m^2*V(m) - N) / N^2 over the
    frequency-of-frequencies table V(m) (#types occurring m times) —
    the repetitiveness constant stylometry and corpus-quality work
    report because, unlike TTR, it is length-invariant.

    Distributed: per-batch (lang, token) count partials reduce through
    the vocabulary-keyed bucketed aggregate; inside the SAME combine
    each bucket collapses straight to (lang, sum m^2, sum m, n_types)
    partials, so the freq-of-freq table never materializes anywhere."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "documents", columns=["lang", "text"])

    def _counts(df: pd.DataFrame) -> pd.DataFrame:
        rows = {"lang": [], "term": [], "m": []}
        for lang, g in df.groupby("lang"):
            toks: list[str] = []
            for s in g["text"]:
                toks.extend(TOKEN_RE.findall(s.lower()))
            if not toks:
                continue
            uniq, counts = np.unique(np.asarray(toks, dtype=object), return_counts=True)
            rows["lang"].extend([lang] * len(uniq))
            rows["term"].extend(list(uniq))
            rows["m"].extend(counts.tolist())
        return pd.DataFrame(rows)

    vocab = bucketed_aggregate(
        ds.map_batches(_counts, batch_format="pandas"),
        ["lang", "term"],
        {"m": ("m", "sum")},
    )

    def _partials(df: pd.DataFrame) -> pd.DataFrame:
        m = df["m"].to_numpy("int64")
        return (
            pd.DataFrame({"lang": df["lang"], "smm": m * m, "sm": m, "types": np.int64(1)})
            .groupby("lang", as_index=False)
            .sum()
        )

    g = (
        vocab.map_batches(_partials, batch_format="pandas")
        .to_pandas()
        .groupby("lang", as_index=False)
        .sum()
        .sort_values("lang")
        .reset_index(drop=True)
    )
    N = g["sm"].to_numpy("float64")
    return pd.DataFrame(
        {
            "lang": g["lang"],
            "n_tokens": g["sm"].astype("int64"),
            "n_types": g["types"].astype("int64"),
            "yules_k": np.round(1e4 * (g["smm"].to_numpy("float64") - N) / (N * N), 6),
        }
    )


YULES_K_BY_LANG_SQL = r"""
WITH toks AS (
  SELECT lang, unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS term
  FROM documents
),
v AS (SELECT lang, term, count(*) AS m FROM toks GROUP BY 1, 2),
g AS (
  SELECT lang, sum(m * m) AS smm, sum(m) AS sm, count(*) AS types
  FROM v GROUP BY lang
)
SELECT lang, CAST(sm AS BIGINT) AS n_tokens, CAST(types AS BIGINT) AS n_types,
       round(10000.0 * (smm - CAST(sm AS DOUBLE)) / (CAST(sm AS DOUBLE) * sm), 6) AS yules_k
FROM g ORDER BY lang
"""


def contingency_residuals(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Cell-level drill-down of the lang x source association
    (cramers_v_lang_source gives one number; this names the cells):
    standardized residuals (observed - expected)/sqrt(expected), top-k
    by |residual| — which (lang, source) combinations are over- or
    under-represented. One pass of per-batch cell-count partials; the
    margins and residuals run on the G-cell grid."""
    ds = _read(sf_dir, "documents", columns=["lang", "source"])
    g = (
        ds.map_batches(
            lambda df: df.groupby(["lang", "source"], as_index=False).size().rename(columns={"size": "c"}),
            batch_format="pandas",
        )
        .to_pandas()
        .groupby(["lang", "source"], as_index=False)["c"]
        .sum()
    )
    n = float(g["c"].sum())
    row = g.groupby("lang")["c"].sum()
    col = g.groupby("source")["c"].sum()
    e = row.reindex(g["lang"]).to_numpy("float64") * col.reindex(g["source"]).to_numpy("float64") / n
    r = (g["c"].to_numpy("float64") - e) / np.sqrt(e)
    out = pd.DataFrame(
        {
            "lang": g["lang"],
            "source": g["source"],
            "observed": g["c"].astype("int64"),
            "expected": np.round(e, 4),
            "std_resid": np.round(r, 6),
        }
    )
    out = out.reindex(np.abs(out["std_resid"]).sort_values(ascending=False).index).head(k)
    return out.sort_values(["lang", "source"]).reset_index(drop=True)


CONTINGENCY_RESIDUALS_SQL = """
WITH cell AS (SELECT lang, source, count(*) AS c FROM documents GROUP BY 1, 2),
tot AS (SELECT CAST(sum(c) AS DOUBLE) AS n FROM cell),
r AS (SELECT lang, sum(c) AS rc FROM cell GROUP BY lang),
cc AS (SELECT source, sum(c) AS sc FROM cell GROUP BY source),
x AS (
  SELECT cell.lang, cell.source, c,
         rc * sc / (SELECT n FROM tot) AS e
  FROM cell JOIN r USING (lang) JOIN cc USING (source)
),
top AS (
  SELECT lang, source, c, e, (c - e) / sqrt(e) AS sr
  FROM x ORDER BY abs((c - e) / sqrt(e)) DESC LIMIT 10
)
SELECT lang, source, CAST(c AS BIGINT) AS observed, round(e, 4) AS expected,
       round(sr, 6) AS std_resid
FROM top ORDER BY lang, source
"""


def term_dispersion_top(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Corpus dispersion (Gries' DP) for the top-k terms: how unevenly
    is each frequent term spread across sources, DP = 0.5 * sum_s
    |share_of_term_in_s - share_of_all_tokens_in_s|? DP near 0 =
    evenly dispersed function word, near 1 = clumped topical term —
    the vocabulary-quality signal dedup and mixture planning read.

    Distributed: pass 1 finds the top-k terms (vocab-bucketed
    aggregate + partial top-k, same as vocab_top_terms); the winners
    broadcast and pass 2 reduces (term, source) counts for them plus
    per-source token totals in the same scan."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate, partial_topk

    ds = _read(sf_dir, "documents", columns=["source", "text"])

    def _counts(df: pd.DataFrame) -> pd.DataFrame:
        rows = {"term": [], "n": []}
        for s in df["text"]:
            rows["term"].extend(TOKEN_RE.findall(s.lower()))
        u, c = np.unique(np.asarray(rows["term"], dtype=object), return_counts=True)
        return pd.DataFrame({"term": list(u), "n": c})

    vocab = bucketed_aggregate(
        ds.map_batches(_counts, batch_format="pandas"), ["term"], {"n": ("n", "sum")}
    )
    top = partial_topk(vocab, ["n", "term"], [False, True], k)["term"].tolist()
    top_ref = ray.put(set(top))

    def _per_source(df: pd.DataFrame) -> pd.DataFrame:
        tset = ray.get(top_ref)
        rows = {"source": [], "term": [], "n": []}
        tot = {"source": [], "n": []}
        for src, g in df.groupby("source"):
            toks = []
            for s in g["text"]:
                toks.extend(TOKEN_RE.findall(s.lower()))
            tot["source"].append(src)
            tot["n"].append(len(toks))
            arr = np.asarray(toks, dtype=object)
            hit = np.isin(arr, list(tset))
            u, c = np.unique(arr[hit], return_counts=True)
            rows["source"].extend([src] * len(u))
            rows["term"].extend(list(u))
            rows["n"].extend(c.tolist())
        a = pd.DataFrame(rows)
        b = pd.DataFrame(tot)
        b["term"] = "\x00__total__"
        return pd.concat([a, b[["source", "term", "n"]]], ignore_index=True)

    g = (
        ds.map_batches(_per_source, batch_format="pandas")
        .to_pandas()
        .groupby(["source", "term"], as_index=False)["n"]
        .sum()
    )
    totals = g[g["term"] == "\x00__total__"].set_index("source")["n"]
    tk = g[g["term"] != "\x00__total__"]
    grand = float(totals.sum())
    src_share = (totals / grand).astype("float64")
    rows = []
    for term, gg in tk.groupby("term"):
        tshare = gg.set_index("source")["n"].reindex(src_share.index, fill_value=0).astype("float64")
        tshare = tshare / float(tshare.sum())
        dp = 0.5 * float(np.abs(tshare.to_numpy() - src_share.to_numpy()).sum())
        rows.append({"term": term, "n": np.int64(gg["n"].sum()), "dp": round(dp, 6)})
    return (
        pd.DataFrame(rows)
        .sort_values(["n", "term"], ascending=[False, True])
        .reset_index(drop=True)
    )


def term_dispersion_top_sql(k: int = 10) -> str:
    return rf"""
WITH toks AS (
  SELECT source, unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS term
  FROM documents
),
top AS (
  SELECT term, count(*) AS n FROM toks GROUP BY term
  ORDER BY n DESC, term LIMIT {k}
),
stot AS (SELECT source, count(*) AS st FROM toks GROUP BY source),
grand AS (SELECT sum(st) AS g FROM stot),
tcell AS (
  SELECT t.term, s.source, count(*) AS c
  FROM toks s JOIN top t USING (term) GROUP BY 1, 2
),
ttot AS (SELECT term, sum(c) AS tt FROM tcell GROUP BY term),
full_grid AS (
  SELECT top.term, stot.source, stot.st, coalesce(tcell.c, 0) AS c
  FROM top CROSS JOIN stot
  LEFT JOIN tcell ON tcell.term = top.term AND tcell.source = stot.source
)
SELECT f.term, CAST(t.tt AS BIGINT) AS n,
       round(0.5 * sum(abs(f.c / CAST(t.tt AS DOUBLE)
                           - f.st / (SELECT CAST(g AS DOUBLE) FROM grand))), 6) AS dp
FROM full_grid f JOIN ttot t USING (term)
GROUP BY f.term, t.tt ORDER BY n DESC, term
"""


TERM_DISPERSION_TOP_SQL = term_dispersion_top_sql()


_OVERLAP_SOURCES = ("src0", "src1", "src2", "src3", "src4")


def source_ngram_overlap(sf_dir: str, n: int = 8) -> pd.DataFrame:
    """Cross-source contamination matrix: for the first five sources,
    the pairwise overlap of their DISTINCT 8-token n-gram sets
    (intersection count + Jaccard) — which corpora share boilerplate
    or copied passages. The gram domain rides ONE hash-bucket shuffle:
    per gram, the source membership set resolves in-bucket and emits
    pair partials plus per-source distinct-gram counts; nothing
    gram-scale reaches the driver."""
    srcs = list(_OVERLAP_SOURCES)
    idx = {s: i for i, s in enumerate(srcs)}
    ds = _read(sf_dir, "documents", columns=["source", "text"]).map_batches(
        lambda df: df[df["source"].isin(srcs)], batch_format="pandas"
    )

    def _grams(df: pd.DataFrame) -> pd.DataFrame:
        rows = {"g": [], "s": []}
        for src, txt in zip(df["source"], df["text"]):
            toks = TOKEN_RE.findall(txt)
            si = idx[src]
            for i in range(len(toks) - n + 1):
                rows["g"].append(" ".join(toks[i : i + n]))
                rows["s"].append(si)
        out = pd.DataFrame(rows).drop_duplicates()
        out["__gb"] = (
            pd.util.hash_pandas_object(out["g"], index=False).to_numpy() % 64
        ).astype("int64")
        return out

    def _resolve(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["g", "s"])
        # membership bitmask per gram
        mask = g.groupby("g")["s"].agg(lambda x: int(np.bitwise_or.reduce(1 << x.to_numpy())))
        singles = pd.DataFrame(
            {"sa": g.groupby("s").size().index.to_numpy(), "sb": -1,
             "cnt": g.groupby("s").size().to_numpy()}
        )
        m = mask.to_numpy()
        pair_rows = {"sa": [], "sb": [], "cnt": []}
        for a in range(len(srcs)):
            for b in range(a + 1, len(srcs)):
                both = ((m >> a) & 1) & ((m >> b) & 1)
                pair_rows["sa"].append(a)
                pair_rows["sb"].append(b)
                pair_rows["cnt"].append(int(both.sum()))
        return pd.concat([pd.DataFrame(pair_rows), singles], ignore_index=True)

    parts = (
        ds.map_batches(_grams, batch_format="pandas")
        .groupby("__gb")
        .map_groups(_resolve, batch_format="pandas")
        .to_pandas()
        .groupby(["sa", "sb"], as_index=False)["cnt"]
        .sum()
    )
    singles = parts[parts["sb"] == -1].set_index("sa")["cnt"]
    pairs = parts[parts["sb"] >= 0]
    rows = []
    for _, r in pairs.iterrows():
        na, nb = int(singles.loc[r["sa"]]), int(singles.loc[r["sb"]])
        inter = int(r["cnt"])
        rows.append(
            {
                "source_a": srcs[int(r["sa"])],
                "source_b": srcs[int(r["sb"])],
                "n_a": np.int64(na),
                "n_b": np.int64(nb),
                "n_common": np.int64(inter),
                "jaccard": round(inter / (na + nb - inter), 6),
            }
        )
    return (
        pd.DataFrame(rows)
        .sort_values(["source_a", "source_b"])
        .reset_index(drop=True)
    )


SOURCE_NGRAM_OVERLAP_SQL = (
    r"""
WITH toks AS (
  SELECT doc_id, source, unnest(arr) AS tok, generate_subscripts(arr, 1) AS pos
  FROM (SELECT doc_id, source, regexp_extract_all(text, '[A-Za-z0-9_]+') AS arr
        FROM documents WHERE source IN ('src0','src1','src2','src3','src4'))
),
grams AS (
  SELECT source,
         concat_ws(' ', lag(tok, 7) OVER w, lag(tok, 6) OVER w, lag(tok, 5) OVER w,
                        lag(tok, 4) OVER w, lag(tok, 3) OVER w, lag(tok, 2) OVER w,
                        lag(tok, 1) OVER w, tok) AS g
  FROM toks
  WINDOW w AS (PARTITION BY doc_id ORDER BY pos)
  QUALIFY lag(tok, 7) OVER w IS NOT NULL
),
sg AS (SELECT DISTINCT source, g FROM grams),
singles AS (SELECT source, count(*) AS n FROM sg GROUP BY source),
pairs AS (
  SELECT a.source AS source_a, b.source AS source_b, count(*) AS n_common
  FROM sg a JOIN sg b ON a.g = b.g AND a.source < b.source
  GROUP BY 1, 2
),
grid AS (
  SELECT sa.source AS source_a, sb.source AS source_b, sa.n AS n_a, sb.n AS n_b,
         coalesce(p.n_common, 0) AS n_common
  FROM singles sa JOIN singles sb ON sa.source < sb.source
  LEFT JOIN pairs p ON p.source_a = sa.source AND p.source_b = sb.source
)
SELECT source_a, source_b, CAST(n_a AS BIGINT) AS n_a, CAST(n_b AS BIGINT) AS n_b,
       CAST(n_common AS BIGINT) AS n_common,
       round(n_common / CAST(n_a + n_b - n_common AS DOUBLE), 6) AS jaccard
FROM grid ORDER BY source_a, source_b
"""
)


def term_keyness_g2(sf_dir: str, k: int = 20) -> pd.DataFrame:
    """Corpus-linguistics keyness: the top-k terms most characteristic
    of English documents vs the rest by log-likelihood
    G2 = 2 * (a*ln(a/Ea) + b*ln(b/Eb)) over the two term counts and
    their expected values — the contrastive-vocabulary report
    (what words mark this sub-corpus?). Per-batch (term, en?, count)
    partials reduce through the vocabulary-keyed bucketed aggregate;
    G2 needs only the term row plus two corpus totals."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "documents", columns=["lang", "text"])

    def _counts(df: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for is_en, g in df.groupby(df["lang"] == "en"):
            toks: list[str] = []
            for s in g["text"]:
                toks.extend(TOKEN_RE.findall(s.lower()))
            if not toks:
                continue
            u, c = np.unique(np.asarray(toks, dtype=object), return_counts=True)
            frames.append(pd.DataFrame({"term": list(u), "a": c if is_en else 0, "b": 0 if is_en else c}))
        return pd.concat(frames, ignore_index=True) if frames else pd.DataFrame(
            {"term": pd.Series(dtype=object), "a": pd.Series(dtype="int64"), "b": pd.Series(dtype="int64")}
        )

    vocab = bucketed_aggregate(
        ds.map_batches(_counts, batch_format="pandas"),
        ["term"],
        {"a": ("a", "sum"), "b": ("b", "sum")},
    ).materialize()
    tot = (
        vocab.map_batches(
            lambda df: pd.DataFrame({"ta": [np.int64(df["a"].sum())], "tb": [np.int64(df["b"].sum())]}),
            batch_format="pandas",
        )
        .to_pandas()
        .sum()
    )
    ta, tb = float(tot["ta"]), float(tot["tb"])

    def _g2(df: pd.DataFrame) -> pd.DataFrame:
        a = df["a"].to_numpy("float64")
        b = df["b"].to_numpy("float64")
        tot_t = a + b
        ea = tot_t * ta / (ta + tb)
        eb = tot_t * tb / (ta + tb)
        with np.errstate(divide="ignore", invalid="ignore"):
            g2 = 2.0 * (
                np.where(a > 0, a * np.log(a / ea), 0.0)
                + np.where(b > 0, b * np.log(b / eb), 0.0)
            )
        out = pd.DataFrame({"term": df["term"], "n_en": a.astype("int64"), "n_other": b.astype("int64"), "g2": g2})
        return out.sort_values(["g2", "term"], ascending=[False, True]).head(k)

    parts = vocab.map_batches(_g2, batch_format="pandas").to_pandas()
    top = parts.sort_values(["g2", "term"], ascending=[False, True]).head(k).reset_index(drop=True)
    top["g2"] = np.round(top["g2"].to_numpy("float64"), 6)
    return top


def term_keyness_g2_sql(k: int = 20) -> str:
    return rf"""
WITH toks AS (
  SELECT lang = 'en' AS is_en, unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS term
  FROM documents
),
v AS (
  SELECT term,
         count(CASE WHEN is_en THEN 1 END) AS a,
         count(CASE WHEN NOT is_en THEN 1 END) AS b
  FROM toks GROUP BY term
),
tot AS (SELECT CAST(sum(a) AS DOUBLE) AS ta, CAST(sum(b) AS DOUBLE) AS tb FROM v),
g AS (
  SELECT term, a, b,
         2.0 * (CASE WHEN a > 0 THEN a * ln(a / ((a + b) * (SELECT ta FROM tot) / ((SELECT ta FROM tot) + (SELECT tb FROM tot)))) ELSE 0 END
              + CASE WHEN b > 0 THEN b * ln(b / ((a + b) * (SELECT tb FROM tot) / ((SELECT ta FROM tot) + (SELECT tb FROM tot)))) ELSE 0 END) AS g2
  FROM v
)
SELECT term, CAST(a AS BIGINT) AS n_en, CAST(b AS BIGINT) AS n_other, round(g2, 6) AS g2
FROM g ORDER BY g2 DESC, term LIMIT {k}
"""


TERM_KEYNESS_G2_SQL = term_keyness_g2_sql()


def naive_bayes_lang(sf_dir: str) -> pd.DataFrame:
    """Multinomial Naive Bayes language classifier — TRAINED and
    evaluated distributed, with exact cross-engine parity (no RNG, no
    iterations): per-(term, lang) counts with Laplace smoothing over
    the global vocabulary, per-doc argmax of
    ln P(lang) + sum_tokens ln P(token|lang), resubstitution recall
    per language. The model is the classic fastText-style lang-id
    baseline; the training reduce is ONE vocabulary-keyed bucketed
    aggregate and inference broadcasts the V x L log-prob table
    (model broadcast — the standard NB serving shape).
    Ties in the argmax break toward the lexicographically smaller
    language on both engines."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "documents", columns=["doc_id", "lang", "text"])

    def _counts(df: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for lang, g in df.groupby("lang"):
            toks: list[str] = []
            for s in g["text"]:
                toks.extend(TOKEN_RE.findall(s.lower()))
            if not toks:
                continue
            u, c = np.unique(np.asarray(toks, dtype=object), return_counts=True)
            frames.append(pd.DataFrame({"term": list(u), "lang": lang, "c": c}))
        return pd.concat(frames, ignore_index=True) if frames else pd.DataFrame(
            {"term": pd.Series(dtype=object), "lang": pd.Series(dtype=object), "c": pd.Series(dtype="int64")}
        )

    tl = bucketed_aggregate(
        ds.map_batches(_counts, batch_format="pandas"), ["term", "lang"], {"c": ("c", "sum")}
    ).to_pandas()  # model-scale: V x L rows (the broadcastable model)
    langs = sorted(tl["lang"].unique())
    v_total = tl["term"].nunique()
    tok_l = tl.groupby("lang")["c"].sum()
    docs_l = (
        ds.map_batches(
            lambda df: df.groupby("lang", as_index=False).size().rename(columns={"size": "n"}),
            batch_format="pandas",
        )
        .to_pandas()
        .groupby("lang")["n"]
        .sum()
    )
    n_docs = int(docs_l.sum())
    wide = tl.pivot(index="term", columns="lang", values="c")
    model = pd.DataFrame(index=wide.index)
    unseen = {}
    prior = {}
    for l in langs:
        denom = float(tok_l.loc[l] + v_total)
        col = wide[l] if l in wide.columns else pd.Series(np.nan, index=wide.index)
        model[l] = np.log((col.fillna(0.0).to_numpy("float64") + 1.0) / denom)
        unseen[l] = float(np.log(1.0 / denom))
        prior[l] = float(np.log(docs_l.loc[l] / n_docs))
    model_ref = ray.put((model, unseen, prior, langs))

    class _Classify:
        def __init__(self):
            self.model, self.unseen, self.prior, self.langs = ray.get(model_ref)

        def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
            rows = {"lang": [], "pred": []}
            for gold, txt in zip(df["lang"], df["text"]):
                toks = TOKEN_RE.findall(txt.lower())
                u, c = np.unique(np.asarray(toks, dtype=object), return_counts=True)
                sub = self.model.reindex(u)
                best_l, best_s = None, None
                for l in self.langs:
                    lp = sub[l].fillna(self.unseen[l]).to_numpy("float64")
                    s = self.prior[l] + float((lp * c).sum())
                    if best_s is None or s > best_s:
                        best_l, best_s = l, s
                rows["lang"].append(gold)
                rows["pred"].append(best_l)
            out = pd.DataFrame(rows)
            out["n"] = np.int64(1)
            out["correct"] = (out["lang"] == out["pred"]).astype("int64")
            return out.groupby("lang", as_index=False).agg(n=("n", "sum"), n_correct=("correct", "sum"))

    g = (
        ds.map_batches(_Classify, batch_format="pandas", batch_size=256, concurrency=(1, 8))
        .to_pandas()
        .groupby("lang", as_index=False)
        .sum()
        .sort_values("lang")
        .reset_index(drop=True)
    )
    return pd.DataFrame(
        {
            "lang": g["lang"],
            "n_docs": g["n"].astype("int64"),
            "n_correct": g["n_correct"].astype("int64"),
            "recall": np.round(g["n_correct"].to_numpy("float64") / g["n"].to_numpy("float64"), 6),
        }
    )


NAIVE_BAYES_LANG_SQL = r"""
WITH toks AS (
  SELECT doc_id, lang, unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS term
  FROM documents
),
dt AS (SELECT doc_id, lang AS gold, term, count(*) AS c FROM toks GROUP BY 1, 2, 3),
tl AS (SELECT term, lang, count(*) AS c FROM toks GROUP BY 1, 2),
vocab AS (SELECT count(DISTINCT term) AS v FROM tl),
langs AS (SELECT lang, sum(c) AS tok_l FROM tl GROUP BY lang),
docs AS (SELECT lang, count(*) AS d FROM documents GROUP BY lang),
nd AS (SELECT sum(d) AS n FROM docs),
scores AS (
  SELECT dt.doc_id, dt.gold, langs.lang AS cand,
         ln(docs.d / CAST((SELECT n FROM nd) AS DOUBLE))
           + sum(dt.c * ln((coalesce(tl.c, 0) + 1.0)
                           / (langs.tok_l + (SELECT v FROM vocab)))) AS score
  FROM dt
  CROSS JOIN langs
  JOIN docs ON docs.lang = langs.lang
  LEFT JOIN tl ON tl.term = dt.term AND tl.lang = langs.lang
  GROUP BY dt.doc_id, dt.gold, langs.lang, docs.d, langs.tok_l
),
pred AS (
  SELECT doc_id, gold, cand AS pred
  FROM scores
  QUALIFY row_number() OVER (PARTITION BY doc_id ORDER BY score DESC, cand) = 1
)
SELECT gold AS lang, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(count(CASE WHEN pred = gold THEN 1 END) AS BIGINT) AS n_correct,
       round(count(CASE WHEN pred = gold THEN 1 END) / CAST(count(*) AS DOUBLE), 6) AS recall
FROM pred GROUP BY gold ORDER BY lang
"""


def char_trigram_entropy_by_lang(sf_dir: str) -> pd.DataFrame:
    """Character-level conditional entropy H(c | ab) per language from
    the char-trigram/bigram count ratio:
    H = -sum_abc p(abc) * ln(n_abc / n_ab) — the compressibility /
    script-complexity profile a char-LM data stage reports (lower =
    more predictable orthography). Per-batch (lang, trigram) count
    partials reduce through the bucketed aggregate; bigram marginals
    come from the same table by prefix."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "documents", columns=["lang", "text"])

    def _tri(df: pd.DataFrame) -> pd.DataFrame:
        rows = {"lang": [], "g": []}
        for lang, s in zip(df["lang"], df["text"]):
            n = len(s)
            if n < 3:
                continue
            rows["lang"].extend([lang] * (n - 2))
            rows["g"].extend(s[i : i + 3] for i in range(n - 2))
        out = pd.DataFrame(rows)
        return out.groupby(["lang", "g"], as_index=False).size().rename(columns={"size": "c"})

    tri = bucketed_aggregate(
        ds.map_batches(_tri, batch_format="pandas"), ["lang", "g"], {"c": ("c", "sum")}
    ).materialize()

    def _partials(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(ab=df["g"].str.slice(0, 2))
        return df

    # bigram-prefix totals per (lang, ab): trigram counts grouped by
    # prefix are EXACT totals of bigrams at positions 1..n-2, the
    # denominator the conditional entropy needs
    pre = bucketed_aggregate(
        tri.map_batches(_partials, batch_format="pandas"),
        ["lang", "ab"],
        {"nab": ("c", "sum")},
    ).to_pandas()
    tdf = tri.to_pandas()
    tdf["ab"] = tdf["g"].str.slice(0, 2)
    m = tdf.merge(pre, on=["lang", "ab"])
    rows = []
    for lang, g in m.groupby("lang"):
        c = g["c"].to_numpy("float64")
        nab = g["nab"].to_numpy("float64")
        total = c.sum()
        h = float(-((c / total) * np.log(c / nab)).sum())
        rows.append(
            {
                "lang": lang,
                "n_trigrams": np.int64(total),
                "n_types": np.int64(len(g)),
                "cond_entropy": round(h, 6),
            }
        )
    return pd.DataFrame(rows).sort_values("lang").reset_index(drop=True)


CHAR_TRIGRAM_ENTROPY_BY_LANG_SQL = """
WITH tri AS (
  SELECT lang, substr(text, CAST(i AS INT), 3) AS g, count(*) AS c
  FROM (SELECT lang, text, unnest(range(1, len(text) - 1)) AS i FROM documents)
  WHERE len(text) >= 3
  GROUP BY 1, 2
),
pre AS (SELECT lang, substr(g, 1, 2) AS ab, sum(c) AS nab FROM tri GROUP BY 1, 2),
j AS (
  SELECT tri.lang, c, nab FROM tri JOIN pre
    ON pre.lang = tri.lang AND pre.ab = substr(tri.g, 1, 2)
),
tot AS (SELECT lang, sum(c) AS total FROM j GROUP BY lang)
SELECT j.lang, CAST(max(total) AS BIGINT) AS n_trigrams,
       CAST(count(*) AS BIGINT) AS n_types,
       round(-sum((c / CAST(total AS DOUBLE)) * ln(c / CAST(nab AS DOUBLE))), 6) AS cond_entropy
FROM j JOIN tot ON tot.lang = j.lang
GROUP BY j.lang ORDER BY j.lang
"""


def token_stutter_top(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Degenerate-repetition audit: the longest run of the SAME token
    inside each document, top-k stutteriest docs — the "the the the"
    smell that perplexity filters miss when the repeated token is
    common. The run scan is one vectorized pass per batch; only
    per-batch top-k partials reduce. Ties: run desc, doc_id asc."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def _runs(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for did, s in zip(df["doc_id"], df["text"]):
            toks = TOKEN_RE.findall(s.lower())
            if not toks:
                continue
            arr = np.asarray(toks, dtype=object)
            brk = np.flatnonzero(arr[1:] != arr[:-1])
            bounds = np.concatenate(([0], brk + 1, [len(arr)]))
            best = int(np.diff(bounds).max())
            rows.append((int(did), best))
        out = pd.DataFrame(rows, columns=["doc_id", "max_run"])
        return out.sort_values(["max_run", "doc_id"], ascending=[False, True]).head(k)

    parts = ds.map_batches(_runs, batch_format="pandas").to_pandas()
    return (
        parts.sort_values(["max_run", "doc_id"], ascending=[False, True])
        .head(k)
        .reset_index(drop=True)
        .astype({"doc_id": "int64", "max_run": "int64"})
    )


TOKEN_STUTTER_TOP_SQL = r"""
WITH toks AS (
  SELECT doc_id, unnest(arr) AS tok, generate_subscripts(arr, 1) AS pos
  FROM (SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9_]+') AS arr FROM documents)
),
isl AS (
  SELECT doc_id, tok,
         pos - row_number() OVER (PARTITION BY doc_id, tok ORDER BY pos) AS grp
  FROM toks
),
runs AS (
  SELECT doc_id, count(*) AS run FROM isl GROUP BY doc_id, tok, grp
),
best AS (SELECT doc_id, max(run) AS max_run FROM runs GROUP BY doc_id)
SELECT doc_id, CAST(max_run AS BIGINT) AS max_run
FROM best ORDER BY max_run DESC, doc_id LIMIT 10
"""


def mcnemar_labelers(sf_dir: str, len_cut: int = 800) -> pd.DataFrame:
    """McNemar's test between the two weak labelers of
    cohens_kappa_labelers ("is English" vs "is long"): the DISCORDANT
    cells b (en-only) and c (long-only) and chi2 = (b-c)^2/(b+c) —
    kappa says how much they agree; McNemar says whether their
    disagreement is biased one way (one labeler systematically fires
    more). Same one-pass confusion partials."""
    ds = _read(sf_dir, "documents", columns=["lang", "n_chars"])

    def _conf(df: pd.DataFrame) -> pd.DataFrame:
        a = (df["lang"] == "en").to_numpy()
        b = (df["n_chars"] > len_cut).to_numpy()
        return pd.DataFrame(
            {"b": [np.int64((a & ~b).sum())], "c": [np.int64((~a & b).sum())]}
        )

    s = ds.map_batches(_conf, batch_format="pandas").to_pandas().sum()
    b, c = int(s["b"]), int(s["c"])
    chi2 = (b - c) ** 2 / (b + c)
    return pd.DataFrame(
        {
            "n_discordant": [np.int64(b + c)],
            "b_en_only": [np.int64(b)],
            "c_long_only": [np.int64(c)],
            "chi2": [round(chi2, 6)],
        }
    )


MCNEMAR_LABELERS_SQL = """
WITH m AS (
  SELECT count(CASE WHEN lang = 'en' AND n_chars <= 800 THEN 1 END) AS b,
         count(CASE WHEN lang <> 'en' AND n_chars > 800 THEN 1 END) AS c
  FROM documents
)
SELECT CAST(b + c AS BIGINT) AS n_discordant,
       CAST(b AS BIGINT) AS b_en_only, CAST(c AS BIGINT) AS c_long_only,
       round((b - c) * (b - c) / CAST(b + c AS DOUBLE), 6) AS chi2
FROM m
"""


def cochran_q_labelers(sf_dir: str, len_cut: int = 800) -> pd.DataFrame:
    """Cochran's Q test across THREE weak binary labelers — the
    k-treatment generalization of :func:`mcnemar_labelers` (do the
    labelers fire at the same rate, blocked by document?). Labelers:
    L1 = (lang == 'en'), L2 = (n_chars > len_cut), L3 = (text contains
    'data'). Q = (k-1) * (k * SUM(G_j^2) - (SUM G)^2)
    / (k * SUM(L_i) - SUM(L_i^2)) with G_j the per-labeler positive
    totals and L_i the per-document positive count.

    One pass of scalar integer partials (per-batch G sums, SUM L,
    SUM L^2); every term is an exact int64 on both engines, so the
    single final division matches bit-for-bit."""
    ds = _read(sf_dir, "documents", columns=["lang", "n_chars", "text"])

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        a = (df["lang"] == "en").to_numpy("int64")
        b = (df["n_chars"] > len_cut).to_numpy("int64")
        c = df["text"].str.contains("data", regex=False).to_numpy("int64")
        li = a + b + c
        return pd.DataFrame(
            {
                "n": [np.int64(len(df))],
                "g1": [np.int64(a.sum())],
                "g2": [np.int64(b.sum())],
                "g3": [np.int64(c.sum())],
                "sl": [np.int64(li.sum())],
                "sl2": [np.int64((li * li).sum())],
            }
        )

    s = ds.map_batches(_partial, batch_format="pandas").to_pandas().sum()
    k = 3
    g1, g2, g3 = int(s["g1"]), int(s["g2"]), int(s["g3"])
    sl, sl2 = int(s["sl"]), int(s["sl2"])
    num = (k - 1) * (k * (g1 * g1 + g2 * g2 + g3 * g3) - sl * sl)
    den = k * sl - sl2
    q = num / den
    return pd.DataFrame(
        {
            "n": pd.Series([int(s["n"])], dtype="int64"),
            "g_en": pd.Series([g1], dtype="int64"),
            "g_long": pd.Series([g2], dtype="int64"),
            "g_data": pd.Series([g3], dtype="int64"),
            "q": [round(q, 6)],
        }
    )


COCHRAN_Q_LABELERS_SQL = """
WITH l AS (
  SELECT CASE WHEN lang = 'en' THEN 1 ELSE 0 END AS a,
         CASE WHEN n_chars > 800 THEN 1 ELSE 0 END AS b,
         CASE WHEN text LIKE '%data%' THEN 1 ELSE 0 END AS c
  FROM documents
),
s AS (
  SELECT count(*) AS n, sum(a) AS g1, sum(b) AS g2, sum(c) AS g3,
         sum(a + b + c) AS sl, sum((a + b + c) * (a + b + c)) AS sl2
  FROM l
)
SELECT CAST(n AS BIGINT) AS n,
       CAST(g1 AS BIGINT) AS g_en, CAST(g2 AS BIGINT) AS g_long,
       CAST(g3 AS BIGINT) AS g_data,
       round(2.0 * (3 * (g1 * g1 + g2 * g2 + g3 * g3) - sl * sl)
             / (3 * sl - sl2), 6) AS q
FROM s
"""


def burrows_delta_sources(sf_dir: str, k: int = 20) -> pd.DataFrame:
    """Burrows' Delta stylometric distance between every pair of
    sources: z-score each of the corpus top-k terms' relative
    frequencies across sources, Delta(s1, s2) = mean |z1 - z2| — the
    classic authorship-attribution measure ("which feeds write
    alike?").

    Distributed shape: ONE vocabulary-keyed (term, source) count grid
    (the same bucketed reduce as vocab_top_terms), materialized once
    (vocab-scale, << corpus); per-source token totals and the top-k
    term selection are scalar/partial-topk passes over that grid, and
    only the k x n_sources cell matrix reaches the driver."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate, partial_topk

    ds = _read(sf_dir, "documents", columns=["text", "source"])

    def count_batch(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for src, s in zip(df["source"], df["text"]):
            for tok in TOKEN_RE.findall(s.lower()):
                rows.append((tok, src))
        if not rows:
            return pd.DataFrame(
                {"term": pd.Series(dtype=object), "source": pd.Series(dtype=object),
                 "n": pd.Series(dtype="int64")}
            )
        out = pd.DataFrame(rows, columns=["term", "source"])
        return out.groupby(["term", "source"], as_index=False).size().rename(columns={"size": "n"})

    grid = bucketed_aggregate(
        ds.map_batches(count_batch, batch_format="pandas"),
        ["term", "source"],
        {"n": ("n", "sum")},
        num_buckets=16,
    ).materialize()

    src_tot = (
        grid.map_batches(
            lambda df: df.groupby("source", as_index=False)["n"].sum(), batch_format="pandas"
        )
        .to_pandas()
        .groupby("source")["n"]
        .sum()
    )
    term_tot = bucketed_aggregate(grid, "term", {"n": ("n", "sum")}, num_buckets=16)
    top = partial_topk(term_tot, by=["n", "term"], ascending=[False, True], k=k)
    top_ref = ray.put(set(top["term"]))
    cells = (
        grid.map_batches(
            lambda df: df[df["term"].isin(ray.get(top_ref))], batch_format="pandas"
        )
        .to_pandas()
        .pivot(index="term", columns="source", values="n")
        .reindex(sorted(top["term"]))
        .fillna(0)
    )
    f = cells.to_numpy("float64") / src_tot.reindex(cells.columns).to_numpy("float64")
    mean = f.mean(axis=1, keepdims=True)
    std = f.std(axis=1, ddof=1, keepdims=True)
    z = (f - mean) / std
    srcs = list(cells.columns)
    rows = []
    for i in range(len(srcs)):
        for j in range(i + 1, len(srcs)):
            rows.append((srcs[i], srcs[j], round(float(np.abs(z[:, i] - z[:, j]).mean()), 6)))
    return pd.DataFrame(rows, columns=["src_a", "src_b", "delta"]).sort_values(
        ["src_a", "src_b"]
    ).reset_index(drop=True)


def burrows_delta_sources_sql(k: int = 20) -> str:
    return f"""
WITH toks AS (
  SELECT source, t.term
  FROM documents, unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS t(term)
),
topk AS (
  SELECT term FROM toks GROUP BY term ORDER BY count(*) DESC, term LIMIT {k}
),
src_tot AS (SELECT source, count(*) AS tot FROM toks GROUP BY source),
cnt AS (SELECT source, term, count(*) AS n FROM toks GROUP BY 1, 2),
f AS (
  SELECT s.source, tk.term, coalesce(c.n, 0) * 1.0 / s.tot AS f
  FROM src_tot s CROSS JOIN topk tk
  LEFT JOIN cnt c ON c.source = s.source AND c.term = tk.term
),
z AS (
  SELECT source, term,
         (f - avg(f) OVER (PARTITION BY term))
         / stddev_samp(f) OVER (PARTITION BY term) AS z
  FROM f
)
SELECT a.source AS src_a, b.source AS src_b,
       round(avg(abs(a.z - b.z)), 6) AS delta
FROM z a JOIN z b ON a.term = b.term AND a.source < b.source
GROUP BY 1, 2
ORDER BY 1, 2
"""


BURROWS_DELTA_SOURCES_SQL = burrows_delta_sources_sql()


def fleiss_kappa_labelers(sf_dir: str, len_cut: int = 800) -> pd.DataFrame:
    """Fleiss' kappa agreement among the THREE weak binary labelers of
    :func:`cochran_q_labelers` (L1 = English, L2 = long, L3 = mentions
    'data') — Cochran asks whether the labelers fire at the same RATE;
    Fleiss asks how much they AGREE beyond chance. For k = 3 binary
    raters the whole statistic reduces to the same integer sums
    (N, SUM L_i, SUM L_i^2): P_bar = (SUM L^2 - 3 SUM L + 3N)/(3N),
    p = SUM L / (3N), Pe = p^2 + (1-p)^2,
    kappa = (P_bar - Pe)/(1 - Pe). One scalar-partial pass; exact to
    the final divisions."""
    ds = _read(sf_dir, "documents", columns=["lang", "n_chars", "text"])

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        li = (
            (df["lang"] == "en").to_numpy("int64")
            + (df["n_chars"] > len_cut).to_numpy("int64")
            + df["text"].str.contains("data", regex=False).to_numpy("int64")
        )
        return pd.DataFrame(
            {
                "n": [np.int64(len(df))],
                "sl": [np.int64(li.sum())],
                "sl2": [np.int64((li * li).sum())],
            }
        )

    s = ds.map_batches(_partial, batch_format="pandas").to_pandas().sum()
    n, sl, sl2 = int(s["n"]), int(s["sl"]), int(s["sl2"])
    p_bar = (sl2 - 3.0 * sl + 3.0 * n) / (3.0 * n)
    p = sl / (3.0 * n)
    pe = p * p + (1 - p) * (1 - p)
    kappa = (p_bar - pe) / (1 - pe)
    return pd.DataFrame(
        {
            "n": pd.Series([n], dtype="int64"),
            "p_bar": [round(p_bar, 6)],
            "kappa": [round(kappa, 6)],
        }
    )


FLEISS_KAPPA_LABELERS_SQL = """
WITH l AS (
  SELECT (CASE WHEN lang = 'en' THEN 1 ELSE 0 END
          + CASE WHEN n_chars > 800 THEN 1 ELSE 0 END
          + CASE WHEN text LIKE '%data%' THEN 1 ELSE 0 END) AS li
  FROM documents
),
s AS (SELECT count(*) AS n, sum(li) AS sl, sum(li * li) AS sl2 FROM l),
c AS (
  SELECT n,
         (sl2 - 3.0 * sl + 3.0 * n) / (3.0 * n) AS p_bar,
         sl / (3.0 * n) AS p
  FROM s
)
SELECT CAST(n AS BIGINT) AS n, round(p_bar, 6) AS p_bar,
       round((p_bar - (p * p + (1 - p) * (1 - p)))
             / (1 - (p * p + (1 - p) * (1 - p))), 6) AS kappa
FROM c
"""


def cronbach_alpha_labelers(sf_dir: str, len_cut: int = 800) -> pd.DataFrame:
    """Cronbach's alpha internal-consistency reliability of the
    three weak binary labelers (English / long / mentions-'data'):
    alpha = k/(k-1) * (1 - SUM(var_item) / var_total) with sample
    variances — the psychometric companion of Fleiss' kappa (do the
    items measure one underlying 'quality' trait?).

    One scalar-partial pass collects the exact integer sums
    (SUM a, SUM b, SUM c, SUM L, SUM L^2 with L = a+b+c); every
    variance is the closed two-pass form from those sums, so both
    engines agree to the final division."""
    ds = _read(sf_dir, "documents", columns=["lang", "n_chars", "text"])

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        a = (df["lang"] == "en").to_numpy("int64")
        b = (df["n_chars"] > len_cut).to_numpy("int64")
        c = df["text"].str.contains("data", regex=False).to_numpy("int64")
        li = a + b + c
        return pd.DataFrame(
            {
                "n": [np.int64(len(df))],
                "sa": [np.int64(a.sum())],
                "sb": [np.int64(b.sum())],
                "sc": [np.int64(c.sum())],
                "sl": [np.int64(li.sum())],
                "sl2": [np.int64((li * li).sum())],
            }
        )

    s = ds.map_batches(_partial, batch_format="pandas").to_pandas().sum()
    n = int(s["n"])
    sa, sb, sc = int(s["sa"]), int(s["sb"]), int(s["sc"])
    sl, sl2 = int(s["sl"]), int(s["sl2"])

    def _var(sx: int) -> float:
        return (sx - sx * 1.0 * sx / n) / (n - 1.0)

    var_items = _var(sa) + _var(sb) + _var(sc)
    var_total = (sl2 - sl * 1.0 * sl / n) / (n - 1.0)
    alpha = 3.0 / 2.0 * (1 - var_items / var_total)
    return pd.DataFrame(
        {
            "n": pd.Series([n], dtype="int64"),
            "var_total": [round(var_total, 6)],
            "alpha": [round(alpha, 6)],
        }
    )


CRONBACH_ALPHA_LABELERS_SQL = """
WITH l AS (
  SELECT CASE WHEN lang = 'en' THEN 1 ELSE 0 END AS a,
         CASE WHEN n_chars > 800 THEN 1 ELSE 0 END AS b,
         CASE WHEN text LIKE '%data%' THEN 1 ELSE 0 END AS c
  FROM documents
),
s AS (
  SELECT count(*) AS n, sum(a) AS sa, sum(b) AS sb, sum(c) AS sc,
         sum(a + b + c) AS sl, sum((a + b + c) * (a + b + c)) AS sl2
  FROM l
),
v AS (
  SELECT n,
         ((sa - sa * 1.0 * sa / n) / (n - 1.0)
          + (sb - sb * 1.0 * sb / n) / (n - 1.0)
          + (sc - sc * 1.0 * sc / n) / (n - 1.0)) AS var_items,
         (sl2 - sl * 1.0 * sl / n) / (n - 1.0) AS var_total
  FROM s
)
SELECT CAST(n AS BIGINT) AS n, round(var_total, 6) AS var_total,
       round(3.0 / 2.0 * (1 - var_items / var_total), 6) AS alpha
FROM v
"""


def logloss_length_english(sf_dir: str, bucket_chars: int = 200) -> pd.DataFrame:
    """Cross-entropy (log-loss) eval of the length-bucket English
    predictor under the same leakage-safe even/odd doc split as the
    Brier and ECE evals, with add-one Laplace smoothing
    p_b = (n_en + 1)/(n + 2) so log terms are always finite (unseen
    test buckets fall back to the smoothed global train rate).
    Reports the model's log-loss, the constant-rate baseline's, and
    the log-loss skill score 1 - LL/LL_base — the proper-scoring
    triple (Brier / ECE / log-loss) complete.

    Same ONE (bucket, split) integer grid; every probability is a
    ratio of exact integers."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "documents", columns=["doc_id", "lang", "n_chars"])

    def _grid(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(
            b=(df["n_chars"] // bucket_chars).astype("int64"),
            train=(df["doc_id"] % 2 == 0).astype("int64"),
            en=(df["lang"] == "en").astype("int64"),
        ).groupby(["b", "train"], as_index=False).agg(n=("en", "size"), n_en=("en", "sum"))

    grid = (
        bucketed_aggregate(
            ds.map_batches(_grid, batch_format="pandas"),
            ["b", "train"],
            {"n": ("n", "sum"), "n_en": ("n_en", "sum")},
            num_buckets=8,
        )
        .to_pandas()
        .sort_values(["b", "train"])
    )
    tr = grid[grid["train"] == 1].set_index("b")
    te = grid[grid["train"] == 0].set_index("b").sort_index()
    g_rate = (tr["n_en"].sum() + 1.0) / (tr["n"].sum() + 2.0)
    p_hat = (
        ((tr["n_en"] + 1.0) / (tr["n"] + 2.0)).reindex(te.index).fillna(g_rate).to_numpy("float64")
    )
    n_te = te["n"].to_numpy("int64")
    k_te = te["n_en"].to_numpy("int64")
    n_test = int(n_te.sum())
    ll = -float((k_te * np.log(p_hat) + (n_te - k_te) * np.log(1.0 - p_hat)).sum()) / n_test
    llb = -float((k_te * np.log(g_rate) + (n_te - k_te) * np.log(1.0 - g_rate)).sum()) / n_test
    return pd.DataFrame(
        {
            "n_test": pd.Series([n_test], dtype="int64"),
            "log_loss": [round(ll, 6)],
            "log_loss_base": [round(llb, 6)],
            "skill": [round(1.0 - ll / llb, 6)],
        }
    )


LOGLOSS_LENGTH_ENGLISH_SQL = """
WITH g AS (
  SELECT n_chars // 200 AS b, doc_id % 2 = 0 AS train,
         count(*) AS n, sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END) AS n_en
  FROM documents GROUP BY 1, 2
),
gr AS (
  SELECT (sum(CASE WHEN train THEN n_en ELSE 0 END) + 1.0)
         / (sum(CASE WHEN train THEN n ELSE 0 END) + 2.0) AS g_rate
  FROM g
),
te AS (
  SELECT t.n, t.n_en,
         coalesce((tr.n_en + 1.0) / (tr.n + 2.0), gr.g_rate) AS p_hat, gr.g_rate
  FROM (SELECT * FROM g WHERE NOT train) t
  LEFT JOIN (SELECT * FROM g WHERE train) tr ON tr.b = t.b, gr
),
s AS (
  SELECT sum(n) AS n_test,
         -sum(n_en * ln(p_hat) + (n - n_en) * ln(1.0 - p_hat)) / sum(n) AS ll,
         -sum(n_en * ln(g_rate) + (n - n_en) * ln(1.0 - g_rate)) / sum(n) AS llb
  FROM te
)
SELECT CAST(n_test AS BIGINT) AS n_test, round(ll, 6) AS log_loss,
       round(llb, 6) AS log_loss_base, round(1.0 - ll / llb, 6) AS skill
FROM s
"""

def chao1_vocab_richness(sf_dir: str) -> pd.DataFrame:
    """Chao1 nonparametric species-richness estimate of the corpus
    vocabulary: S_chao1 = S_obs + F1*(F1-1)/(2*(F2+1)) (bias-corrected
    form) where F1/F2 are the singleton/doubleton term counts — "how
    many distinct terms would an infinite corpus reveal", the
    capture-recapture view of Heaps' law.

    Term totals reduce through the bucketed aggregate over the
    vocabulary key domain; the frequency-of-frequency counts are
    per-batch partials over the totals — the vocabulary never reaches
    the driver."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "documents", columns=["text"])

    def count_batch(t: pa.Table) -> pa.Table:
        toks: list[str] = []
        for s in t["text"].to_pylist():
            toks.extend(TOKEN_RE.findall(s.lower()))
        if not toks:
            return pa.Table.from_pydict(
                {"term": pa.array([], pa.string()), "n": pa.array([], pa.int64())}
            )
        uniq, counts = np.unique(np.asarray(toks, dtype=object), return_counts=True)
        return pa.Table.from_pydict(
            {"term": pa.array(list(uniq), pa.string()), "n": pa.array(counts, pa.int64())}
        )

    totals = bucketed_aggregate(
        ds.map_batches(count_batch, batch_format="pyarrow"),
        "term",
        {"n": ("n", "sum")},
        num_buckets=16,
    )

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        n = df["n"].to_numpy("int64")
        return pd.DataFrame(
            {
                "vocab": [np.int64(len(n))],
                "f1": [np.int64((n == 1).sum())],
                "f2": [np.int64((n == 2).sum())],
            }
        )

    s = totals.map_batches(_partial, batch_format="pandas").to_pandas().sum()
    vocab, f1, f2 = int(s["vocab"]), int(s["f1"]), int(s["f2"])
    chao1 = vocab + f1 * (f1 - 1) / (2.0 * (f2 + 1))
    return pd.DataFrame(
        {
            "vocab_size": pd.Series([vocab], dtype="int64"),
            "f1": pd.Series([f1], dtype="int64"),
            "f2": pd.Series([f2], dtype="int64"),
            "chao1": [round(float(chao1), 6)],
        }
    )


CHAO1_VOCAB_RICHNESS_SQL = """
WITH t AS (
  SELECT tt.term, count(*) AS n
  FROM documents,
       unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS tt(term)
  GROUP BY tt.term
),
s AS (
  SELECT count(*) AS vocab,
         count(*) FILTER (WHERE n = 1) AS f1,
         count(*) FILTER (WHERE n = 2) AS f2
  FROM t
)
SELECT CAST(vocab AS BIGINT) AS vocab_size, CAST(f1 AS BIGINT) AS f1,
       CAST(f2 AS BIGINT) AS f2,
       round(vocab + f1 * (f1 - 1) / (2.0 * (f2 + 1)), 6) AS chao1
FROM s
"""


def good_turing_unseen_mass(sf_dir: str) -> pd.DataFrame:
    """Good-Turing estimate of the unseen-vocabulary probability mass
    P0 = F1 / N (the fraction of the NEXT token expected to be a
    never-seen term) plus the smoothed effective count of singletons
    r* = 2*F2/F1 — the language-modeling companion of Chao1's
    richness view, and the quantity every held-out-perplexity
    smoother has to allocate.

    Same bucketed term-total reduce; only four integers reach the
    driver."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "documents", columns=["text"])

    def count_batch(t: pa.Table) -> pa.Table:
        toks: list[str] = []
        for s in t["text"].to_pylist():
            toks.extend(TOKEN_RE.findall(s.lower()))
        if not toks:
            return pa.Table.from_pydict(
                {"term": pa.array([], pa.string()), "n": pa.array([], pa.int64())}
            )
        uniq, counts = np.unique(np.asarray(toks, dtype=object), return_counts=True)
        return pa.Table.from_pydict(
            {"term": pa.array(list(uniq), pa.string()), "n": pa.array(counts, pa.int64())}
        )

    totals = bucketed_aggregate(
        ds.map_batches(count_batch, batch_format="pyarrow"),
        "term",
        {"n": ("n", "sum")},
        num_buckets=16,
    )

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        n = df["n"].to_numpy("int64")
        return pd.DataFrame(
            {
                "ntok": [np.int64(n.sum())],
                "f1": [np.int64((n == 1).sum())],
                "f2": [np.int64((n == 2).sum())],
            }
        )

    s = totals.map_batches(_partial, batch_format="pandas").to_pandas().sum()
    ntok, f1, f2 = int(s["ntok"]), int(s["f1"]), int(s["f2"])
    return pd.DataFrame(
        {
            "n_tokens": pd.Series([ntok], dtype="int64"),
            "f1": pd.Series([f1], dtype="int64"),
            "p_unseen": [round(f1 * 1.0 / ntok, 6)],
            "singleton_rstar": [round(2.0 * f2 / f1, 6) if f1 else 0.0],
        }
    )


GOOD_TURING_UNSEEN_MASS_SQL = """
WITH t AS (
  SELECT tt.term, count(*) AS n
  FROM documents,
       unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS tt(term)
  GROUP BY tt.term
),
s AS (
  SELECT sum(n) AS ntok,
         count(*) FILTER (WHERE n = 1) AS f1,
         count(*) FILTER (WHERE n = 2) AS f2
  FROM t
)
SELECT CAST(ntok AS BIGINT) AS n_tokens, CAST(f1 AS BIGINT) AS f1,
       round(f1 * 1.0 / ntok, 6) AS p_unseen,
       round(coalesce(2.0 * f2 / nullif(f1, 0), 0.0), 6) AS singleton_rstar
FROM s
"""

def krippendorff_alpha_labelers(sf_dir: str, len_cut: int = 800) -> pd.DataFrame:
    """Krippendorff's alpha reliability of the three weak binary
    labelers (English / long / mentions-'data'): for nominal binary
    data with m = 3 raters and no missing values the whole statistic
    reduces to the same integer sums as Fleiss' kappa —
    Do = (3*SL - SL2)/(3n), De = 2*SL*(3n - SL)/(3n*(3n - 1)),
    alpha = 1 - Do/De — but with the finite-sample pooled-pair chance
    term that makes alpha the field default for annotation QC.

    One scalar-partial pass; exact integers to the final division."""
    ds = _read(sf_dir, "documents", columns=["lang", "n_chars", "text"])

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        li = (
            (df["lang"] == "en").to_numpy("int64")
            + (df["n_chars"] > len_cut).to_numpy("int64")
            + df["text"].str.contains("data", regex=False).to_numpy("int64")
        )
        return pd.DataFrame(
            {
                "n": [np.int64(len(df))],
                "sl": [np.int64(li.sum())],
                "sl2": [np.int64((li * li).sum())],
            }
        )

    s = ds.map_batches(_partial, batch_format="pandas").to_pandas().sum()
    n, sl, sl2 = int(s["n"]), int(s["sl"]), int(s["sl2"])
    do = (3.0 * sl - sl2) / (3.0 * n)
    de = 2.0 * sl * (3.0 * n - sl) / (3.0 * n * (3.0 * n - 1.0))
    alpha = 1.0 - do / de
    return pd.DataFrame(
        {
            "n": pd.Series([n], dtype="int64"),
            "d_obs": [round(do, 6)],
            "alpha": [round(alpha, 6)],
        }
    )


KRIPPENDORFF_ALPHA_LABELERS_SQL = """
WITH l AS (
  SELECT (CASE WHEN lang = 'en' THEN 1 ELSE 0 END
          + CASE WHEN n_chars > 800 THEN 1 ELSE 0 END
          + CASE WHEN text LIKE '%data%' THEN 1 ELSE 0 END) AS li
  FROM documents
),
s AS (SELECT count(*) AS n, sum(li) AS sl, sum(li * li) AS sl2 FROM l)
SELECT CAST(n AS BIGINT) AS n,
       round((3.0 * sl - sl2) / (3.0 * n), 6) AS d_obs,
       round(1.0 - ((3.0 * sl - sl2) / (3.0 * n))
             / (2.0 * sl * (3.0 * n - sl) / (3.0 * n * (3.0 * n - 1.0))), 6) AS alpha
FROM s
"""


def gwet_ac1_labelers(sf_dir: str, len_cut: int = 800) -> pd.DataFrame:
    """Gwet's AC1 agreement coefficient for the same three weak
    binary labelers: AC1 = (Pa - Pe)/(1 - Pe) with the SAME observed
    agreement Pa as Fleiss but the paradox-resistant chance term
    Pe = 2*pi*(1 - pi) — AC1 stays high when prevalence is extreme,
    where kappa collapses (the kappa paradox). Reporting both lets a
    labeling QC dashboard see whether low kappa is disagreement or
    just skew.

    Same one scalar-partial pass over (n, SUM L, SUM L^2)."""
    ds = _read(sf_dir, "documents", columns=["lang", "n_chars", "text"])

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        li = (
            (df["lang"] == "en").to_numpy("int64")
            + (df["n_chars"] > len_cut).to_numpy("int64")
            + df["text"].str.contains("data", regex=False).to_numpy("int64")
        )
        return pd.DataFrame(
            {
                "n": [np.int64(len(df))],
                "sl": [np.int64(li.sum())],
                "sl2": [np.int64((li * li).sum())],
            }
        )

    s = ds.map_batches(_partial, batch_format="pandas").to_pandas().sum()
    n, sl, sl2 = int(s["n"]), int(s["sl"]), int(s["sl2"])
    p_bar = (sl2 - 3.0 * sl + 3.0 * n) / (3.0 * n)
    p = sl / (3.0 * n)
    pe = 2.0 * p * (1.0 - p)
    ac1 = (p_bar - pe) / (1.0 - pe)
    return pd.DataFrame(
        {
            "n": pd.Series([n], dtype="int64"),
            "p_bar": [round(p_bar, 6)],
            "ac1": [round(ac1, 6)],
        }
    )


GWET_AC1_LABELERS_SQL = """
WITH l AS (
  SELECT (CASE WHEN lang = 'en' THEN 1 ELSE 0 END
          + CASE WHEN n_chars > 800 THEN 1 ELSE 0 END
          + CASE WHEN text LIKE '%data%' THEN 1 ELSE 0 END) AS li
  FROM documents
),
s AS (SELECT count(*) AS n, sum(li) AS sl, sum(li * li) AS sl2 FROM l),
c AS (
  SELECT n, (sl2 - 3.0 * sl + 3.0 * n) / (3.0 * n) AS p_bar,
         2.0 * (sl / (3.0 * n)) * (1.0 - sl / (3.0 * n)) AS pe
  FROM s
)
SELECT CAST(n AS BIGINT) AS n, round(p_bar, 6) AS p_bar,
       round((p_bar - pe) / (1.0 - pe), 6) AS ac1
FROM c
"""

def icc_labelers(sf_dir: str, len_cut: int = 800) -> pd.DataFrame:
    """One-way random-effects intraclass correlation ICC(1,1) of the
    three weak binary labelers: from the one-way ANOVA decomposition
    of the n x 3 rating matrix, ICC = (MSB - MSW)/(MSB + 2*MSW) —
    the variance-components view of reliability that Fleiss/
    Krippendorff give in agreement terms. For binary ratings every
    sum of squares reduces to the same exact integer sums
    (SSW = SL - SL2/3, SSB = SL2/3 - SL^2/(3n)).

    One scalar-partial pass; exact to the final division."""
    ds = _read(sf_dir, "documents", columns=["lang", "n_chars", "text"])

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        li = (
            (df["lang"] == "en").to_numpy("int64")
            + (df["n_chars"] > len_cut).to_numpy("int64")
            + df["text"].str.contains("data", regex=False).to_numpy("int64")
        )
        return pd.DataFrame(
            {
                "n": [np.int64(len(df))],
                "sl": [np.int64(li.sum())],
                "sl2": [np.int64((li * li).sum())],
            }
        )

    s = ds.map_batches(_partial, batch_format="pandas").to_pandas().sum()
    n, sl, sl2 = int(s["n"]), int(s["sl"]), int(s["sl2"])
    ssw = sl - sl2 / 3.0
    ssb = sl2 / 3.0 - sl * 1.0 * sl / (3.0 * n)
    msb = ssb / (n - 1.0)
    msw = ssw / (2.0 * n)
    icc = (msb - msw) / (msb + 2.0 * msw)
    return pd.DataFrame(
        {
            "n": pd.Series([n], dtype="int64"),
            "msb": [round(msb, 6)],
            "msw": [round(msw, 6)],
            "icc1": [round(icc, 6)],
        }
    )


ICC_LABELERS_SQL = """
WITH l AS (
  SELECT (CASE WHEN lang = 'en' THEN 1 ELSE 0 END
          + CASE WHEN n_chars > 800 THEN 1 ELSE 0 END
          + CASE WHEN text LIKE '%data%' THEN 1 ELSE 0 END) AS li
  FROM documents
),
s AS (SELECT count(*) AS n, sum(li) AS sl, sum(li * li) AS sl2 FROM l),
c AS (
  SELECT n,
         (sl2 / 3.0 - sl * 1.0 * sl / (3.0 * n)) / (n - 1.0) AS msb,
         (sl - sl2 / 3.0) / (2.0 * n) AS msw
  FROM s
)
SELECT CAST(n AS BIGINT) AS n, round(msb, 6) AS msb, round(msw, 6) AS msw,
       round((msb - msw) / (msb + 2.0 * msw), 6) AS icc1
FROM c
"""


def scott_pi_labelers(sf_dir: str, len_cut: int = 800) -> pd.DataFrame:
    """Scott's pi between the first two weak labelers (English vs
    long-document): pi = (Po - Pe)/(1 - Pe) with the POOLED marginal
    chance term Pe = pbar^2 + (1-pbar)^2, pbar = (p1 + p2)/2 — the
    two-rater reduction of Fleiss' kappa, differing from Cohen's
    kappa exactly in how chance is estimated (pooled vs per-rater
    marginals).

    One scalar-partial pass over the four confusion-cell integers."""
    ds = _read(sf_dir, "documents", columns=["lang", "n_chars"])

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        a = (df["lang"] == "en").to_numpy("int64")
        b = (df["n_chars"] > len_cut).to_numpy("int64")
        return pd.DataFrame(
            {
                "n": [np.int64(len(df))],
                "sa": [np.int64(a.sum())],
                "sb": [np.int64(b.sum())],
                "sab": [np.int64((a & b).sum())],
            }
        )

    s = ds.map_batches(_partial, batch_format="pandas").to_pandas().sum()
    n, sa, sb, sab = int(s["n"]), int(s["sa"]), int(s["sb"]), int(s["sab"])
    po = (n - sa - sb + 2 * sab) * 1.0 / n
    pbar = (sa + sb) / (2.0 * n)
    pe = pbar * pbar + (1.0 - pbar) * (1.0 - pbar)
    pi = (po - pe) / (1.0 - pe)
    return pd.DataFrame(
        {
            "n": pd.Series([n], dtype="int64"),
            "p_obs": [round(po, 6)],
            "scott_pi": [round(pi, 6)],
        }
    )


SCOTT_PI_LABELERS_SQL = """
WITH l AS (
  SELECT CASE WHEN lang = 'en' THEN 1 ELSE 0 END AS a,
         CASE WHEN n_chars > 800 THEN 1 ELSE 0 END AS b
  FROM documents
),
s AS (SELECT count(*) AS n, sum(a) AS sa, sum(b) AS sb, sum(a * b) AS sab FROM l),
c AS (
  SELECT n, (n - sa - sb + 2 * sab) * 1.0 / n AS po,
         (sa + sb) / (2.0 * n) AS pbar
  FROM s
)
SELECT CAST(n AS BIGINT) AS n, round(po, 6) AS p_obs,
       round((po - (pbar * pbar + (1 - pbar) * (1 - pbar)))
             / (1 - (pbar * pbar + (1 - pbar) * (1 - pbar))), 6) AS scott_pi
FROM c
"""

def source_vocab_dice_overlap(sf_dir: str) -> pd.DataFrame:
    """Sorensen-Dice and Szymkiewicz-Simpson overlap coefficients
    between the sources' vocabularies — the two set-similarity
    normalizations Jaccard doesn't give: Dice = 2|A∩B|/(|A|+|B|)
    (F1 of set membership) and overlap = |A∩B|/min(|A|,|B|) (is the
    smaller vocabulary a subset?).

    Same distributed shape as source_vocab_jaccard: distinct
    (source, term) pairs via a bucketed min-reduction over the term
    domain, in-bucket co-occurrence partials, |sources|^2 driver
    reduce."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "documents", columns=["source", "text"])

    def distinct_pairs(df: pd.DataFrame) -> pd.DataFrame:
        srcs: list[str] = []
        toks: list[str] = []
        for src, s in zip(df["source"], df["text"]):
            for t in set(TOKEN_RE.findall(s.lower())):
                srcs.append(src)
                toks.append(t)
        out = pd.DataFrame({"source": srcs, "term": toks}).drop_duplicates()
        out["one"] = 1
        return out

    st = bucketed_aggregate(
        ds.map_batches(distinct_pairs, batch_format="pandas"),
        ["term", "source"],
        {"one": ("one", "min")},
        num_buckets=16,
    )

    def _term_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        h = pd.util.hash_pandas_object(df["term"], index=False)
        df["__tbucket"] = (h.to_numpy() % 16).astype("int64")
        return df[["term", "source", "__tbucket"]]

    def _pairs(g: pd.DataFrame) -> pd.DataFrame:
        sizes = g.groupby("source").size().rename("sz").reset_index()
        m = g.merge(g, on="term")
        m = m[m["source_x"] < m["source_y"]]
        inter = m.groupby(["source_x", "source_y"], as_index=False).size().rename(
            columns={"size": "n_inter"}
        )
        return pd.concat(
            [
                inter.assign(kind="i")[["kind", "source_x", "source_y", "n_inter"]],
                pd.DataFrame(
                    {
                        "kind": "s",
                        "source_x": sizes["source"],
                        "source_y": "",
                        "n_inter": sizes["sz"],
                    }
                ),
            ],
            ignore_index=True,
        )

    parts = (
        st.map_batches(_term_bucket, batch_format="pandas")
        .groupby("__tbucket")
        .map_groups(lambda g: _pairs(g.drop(columns="__tbucket")), batch_format="pandas")
        .to_pandas()
    )
    sizes = parts[parts["kind"] == "s"].groupby("source_x")["n_inter"].sum().to_dict()
    inter = (
        parts[parts["kind"] == "i"]
        .groupby(["source_x", "source_y"], as_index=False)["n_inter"]
        .sum()
    )
    na = inter["source_x"].map(sizes)
    nb = inter["source_y"].map(sizes)
    inter["dice"] = (2.0 * inter["n_inter"] / (na + nb)).round(6)
    inter["overlap"] = (inter["n_inter"] / np.minimum(na, nb)).round(6)
    out = inter.rename(columns={"source_x": "source_a", "source_y": "source_b"})
    out["n_inter"] = out["n_inter"].astype("int64")
    return out.sort_values(["source_a", "source_b"]).reset_index(drop=True)


SOURCE_VOCAB_DICE_OVERLAP_SQL = """
WITH st AS (
  SELECT DISTINCT source, t.term
  FROM documents, unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS t(term)
),
sz AS (SELECT source, count(*) AS n FROM st GROUP BY source),
i AS (
  SELECT a.source AS source_a, b.source AS source_b, count(*) AS n_inter
  FROM st a JOIN st b ON a.term = b.term AND a.source < b.source
  GROUP BY 1, 2
)
SELECT i.source_a, i.source_b, CAST(i.n_inter AS BIGINT) AS n_inter,
       round(2.0 * i.n_inter / (sa.n + sb.n), 6) AS dice,
       round(i.n_inter * 1.0 / least(sa.n, sb.n), 6) AS overlap
FROM i JOIN sz sa ON sa.source = i.source_a JOIN sz sb ON sb.source = i.source_b
ORDER BY source_a, source_b
"""

def _rater_3x3_cells(sf_dir: str) -> np.ndarray:
    """3x3 paired-rating contingency between two weak 3-class
    labelers over documents — rater A from char-length cuts
    (<=224 / <=384 / longer), rater B from whitespace-count cuts
    (<=40 / <=70 / more spaces): the shared exact-integer grid
    behind the marginal-homogeneity family (Stuart-Maxwell,
    Bhapkar). One vectorized pass; 9 cells reach the driver."""
    ds = _read(sf_dir, "documents", columns=["text", "n_chars"])

    def _cells(df: pd.DataFrame) -> pd.DataFrame:
        nc = df["n_chars"].to_numpy("int64")
        a = np.where(nc <= 224, 0, np.where(nc <= 384, 1, 2))
        sp = df["text"].str.count(" ").to_numpy("int64")
        b = np.where(sp <= 40, 0, np.where(sp <= 70, 1, 2))
        return (
            pd.DataFrame({"a": a, "b": b})
            .groupby(["a", "b"], as_index=False)
            .size()
            .rename(columns={"size": "c"})
        )

    g = (
        ds.map_batches(_cells, batch_format="pandas")
        .to_pandas()
        .groupby(["a", "b"], as_index=False)
        .sum()
    )
    cells = np.zeros((3, 3), dtype="int64")
    for _, r in g.iterrows():
        cells[int(r["a"]), int(r["b"])] = int(r["c"])
    return cells


def stuart_maxwell_raters(sf_dir: str) -> pd.DataFrame:
    """Stuart-Maxwell marginal-homogeneity test between the two
    3-class weak labelers (length class vs whitespace class): do the
    raters produce the same class DISTRIBUTION (as opposed to
    agreeing per item — that's kappa)? d = (row_i - col_i) for the
    first two categories, S_ii = row_i + col_i - 2*n_ii, S_01 =
    -(n_01 + n_10), chi2 = d' S^-1 d via the explicit 2x2 inverse;
    df = 2. All exact integers to the final division."""
    n = _rater_3x3_cells(sf_dir)
    row = n.sum(axis=1).astype("float64")
    col = n.sum(axis=0).astype("float64")
    d0, d1 = row[0] - col[0], row[1] - col[1]
    s00 = row[0] + col[0] - 2.0 * n[0, 0]
    s11 = row[1] + col[1] - 2.0 * n[1, 1]
    s01 = -(float(n[0, 1]) + float(n[1, 0]))
    det = s00 * s11 - s01 * s01
    chi2 = (d1 * d1 * s00 - 2.0 * d0 * d1 * s01 + d0 * d0 * s11) / det
    return pd.DataFrame(
        {
            "n": pd.Series([int(n.sum())], dtype="int64"),
            "d_short": [round(d0, 1)],
            "d_mid": [round(d1, 1)],
            "sm_chi2": [round(chi2, 6)],
        }
    )


_RATER_3X3_SQL = """
WITH r AS (
  SELECT CASE WHEN n_chars <= 224 THEN 0 WHEN n_chars <= 384 THEN 1 ELSE 2 END AS a,
         CASE WHEN length(text) - length(replace(text, ' ', '')) <= 40 THEN 0
              WHEN length(text) - length(replace(text, ' ', '')) <= 70 THEN 1
              ELSE 2 END AS b
  FROM documents
),
c AS (
  SELECT count(*) AS nn,
         count(CASE WHEN a = 0 THEN 1 END) AS r0,
         count(CASE WHEN a = 1 THEN 1 END) AS r1,
         count(CASE WHEN b = 0 THEN 1 END) AS c0,
         count(CASE WHEN b = 1 THEN 1 END) AS c1,
         count(CASE WHEN a = 0 AND b = 0 THEN 1 END) AS n00,
         count(CASE WHEN a = 1 AND b = 1 THEN 1 END) AS n11,
         count(CASE WHEN a = 0 AND b = 1 THEN 1 END) AS n01,
         count(CASE WHEN a = 1 AND b = 0 THEN 1 END) AS n10
  FROM r
)
"""

STUART_MAXWELL_RATERS_SQL = (
    _RATER_3X3_SQL
    + """
SELECT CAST(nn AS BIGINT) AS n,
       round((r0 - c0) * 1.0, 1) AS d_short,
       round((r1 - c1) * 1.0, 1) AS d_mid,
       round(((r1 - c1) * (r1 - c1) * (r0 + c0 - 2.0 * n00)
              - 2.0 * (r0 - c0) * (r1 - c1) * (-(n01 + n10))
              + (r0 - c0) * (r0 - c0) * (r1 + c1 - 2.0 * n11))
             / ((r0 + c0 - 2.0 * n00) * (r1 + c1 - 2.0 * n11)
                - (n01 + n10) * 1.0 * (n01 + n10)), 6) AS sm_chi2
FROM c
"""
)


def bhapkar_raters(sf_dir: str) -> pd.DataFrame:
    """Bhapkar marginal-homogeneity test — the asymptotically more
    powerful Wald version of Stuart-Maxwell on the same 3x3 rater
    grid: W_ij = S_ij - d_i*d_j/n (covariance under the alternative),
    chi2_B = d' W^-1 d, equivalently chi2_SM / (1 - chi2_SM/n).
    Computed from its own explicit 2x2 inverse so both engines
    evaluate the same closed form."""
    n = _rater_3x3_cells(sf_dir)
    nn = float(n.sum())
    row = n.sum(axis=1).astype("float64")
    col = n.sum(axis=0).astype("float64")
    d0, d1 = row[0] - col[0], row[1] - col[1]
    w00 = row[0] + col[0] - 2.0 * n[0, 0] - d0 * d0 / nn
    w11 = row[1] + col[1] - 2.0 * n[1, 1] - d1 * d1 / nn
    w01 = -(float(n[0, 1]) + float(n[1, 0])) - d0 * d1 / nn
    det = w00 * w11 - w01 * w01
    chi2 = (d1 * d1 * w00 - 2.0 * d0 * d1 * w01 + d0 * d0 * w11) / det
    return pd.DataFrame(
        {
            "n": pd.Series([int(nn)], dtype="int64"),
            "bhapkar_chi2": [round(chi2, 6)],
        }
    )


BHAPKAR_RATERS_SQL = (
    _RATER_3X3_SQL
    + """,
w AS (
  SELECT nn,
         (r0 - c0) * 1.0 AS d0, (r1 - c1) * 1.0 AS d1,
         (r0 + c0 - 2.0 * n00) - (r0 - c0) * 1.0 * (r0 - c0) / nn AS w00,
         (r1 + c1 - 2.0 * n11) - (r1 - c1) * 1.0 * (r1 - c1) / nn AS w11,
         -(n01 + n10) - (r0 - c0) * 1.0 * (r1 - c1) / nn AS w01
  FROM c
)
SELECT CAST(nn AS BIGINT) AS n,
       round((d1 * d1 * w00 - 2.0 * d0 * d1 * w01 + d0 * d0 * w11)
             / (w00 * w11 - w01 * w01), 6) AS bhapkar_chi2
FROM w
"""
)

def _vocab_distribution_sums(sf_dir: str) -> tuple[float, float, float, float]:
    """(N, V, sum f*(f-1), sum f*ln f) over the corpus unigram
    distribution — term counts stay distributed (bucketed aggregate
    over the vocabulary key domain, then per-batch scalar partials);
    only four numbers reach the driver."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "documents", columns=["text"])

    def count_batch(t: pa.Table) -> pa.Table:
        toks: list[str] = []
        for s in t["text"].to_pylist():
            toks.extend(TOKEN_RE.findall(s.lower()))
        uniq, counts = np.unique(np.asarray(toks, dtype=object), return_counts=True)
        return pa.Table.from_pydict(
            {"term": pa.array(list(uniq), pa.string()), "n": pa.array(counts, pa.int64())}
        )

    totals = bucketed_aggregate(
        ds.map_batches(count_batch, batch_format="pyarrow"),
        "term",
        {"n": ("n", "sum")},
        num_buckets=16,
    )

    def _sums(df: pd.DataFrame) -> pd.DataFrame:
        f = df["n"].to_numpy("int64").astype("float64")
        return pd.DataFrame(
            {
                "n": [f.sum()],
                "v": [float(len(f))],
                "f2": [(f * (f - 1.0)).sum()],
                "flnf": [(f * np.log(f)).sum()],
            }
        )

    s = totals.map_batches(_sums, batch_format="pandas").to_pandas().sum()
    return float(s["n"]), float(s["v"]), float(s["f2"]), float(s["flnf"])


def simpson_diversity_vocab(sf_dir: str) -> pd.DataFrame:
    """Simpson concentration / diversity of the corpus unigram
    distribution: lambda = SUM f(f-1) / (N(N-1)) (the probability two
    random tokens are the SAME type, unbiased form), diversity
    1 - lambda and effective vocabulary 1/lambda — the
    repeated-token-mass diagnostic next to zipf_slope and
    chao1_vocab_richness, over the same [a-z0-9_]+ tokenization."""
    n, v, f2, _ = _vocab_distribution_sums(sf_dir)
    lam = f2 / (n * (n - 1.0))
    return pd.DataFrame(
        {
            "n_tokens": pd.Series([int(n)], dtype="int64"),
            "vocab_size": pd.Series([int(v)], dtype="int64"),
            "simpson_lambda": [round(lam, 8)],
            "inv_simpson": [round(1.0 / lam, 4)],
        }
    )


SIMPSON_DIVERSITY_VOCAB_SQL = """
WITH tc AS (
  SELECT t.term, count(*) AS f
  FROM documents, unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS t(term)
  GROUP BY t.term
),
s AS (SELECT sum(f) AS n, count(*) AS v, sum(f * (f - 1.0)) AS f2 FROM tc)
SELECT CAST(n AS BIGINT) AS n_tokens,
       CAST(v AS BIGINT) AS vocab_size,
       round(f2 / (n * (n - 1.0)), 8) AS simpson_lambda,
       round(n * (n - 1.0) / f2, 4) AS inv_simpson
FROM s
"""


def shannon_entropy_vocab(sf_dir: str) -> pd.DataFrame:
    """Shannon entropy of the corpus unigram distribution,
    H = ln N - (SUM f ln f)/N nats, with Pielou evenness H / ln V
    and the perplexity exp(H) — the information-theoretic summary of
    vocabulary concentration (a Zipfian corpus sits far below the
    uniform ln V ceiling). Same distributed term-count reduction as
    simpson_diversity_vocab."""
    n, v, _, flnf = _vocab_distribution_sums(sf_dir)
    h = np.log(n) - flnf / n
    return pd.DataFrame(
        {
            "n_tokens": pd.Series([int(n)], dtype="int64"),
            "vocab_size": pd.Series([int(v)], dtype="int64"),
            "entropy_nats": [round(float(h), 6)],
            "pielou_evenness": [round(float(h / np.log(v)), 6)],
            "perplexity": [round(float(np.exp(h)), 4)],
        }
    )


SHANNON_ENTROPY_VOCAB_SQL = """
WITH tc AS (
  SELECT t.term, count(*) AS f
  FROM documents, unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS t(term)
  GROUP BY t.term
),
s AS (SELECT sum(f) AS n, count(*) AS v, sum(f * ln(f)) AS flnf FROM tc)
SELECT CAST(n AS BIGINT) AS n_tokens,
       CAST(v AS BIGINT) AS vocab_size,
       round(ln(n) - flnf / n, 6) AS entropy_nats,
       round((ln(n) - flnf / n) / ln(v), 6) AS pielou_evenness,
       round(exp(ln(n) - flnf / n), 4) AS perplexity
FROM s
"""

def gini_term_frequencies(sf_dir: str) -> pd.DataFrame:
    """Gini coefficient of the corpus term-frequency distribution —
    the inequality view of vocabulary concentration (Simpson/Shannon
    give the diversity view): via the identity G = MeanAbsDiff /
    (2*mean), computed EXACTLY on the count-of-counts histogram
    (frequency f -> number of terms with that f), so no sort of the
    vocabulary is ever needed: SUM_{f,g} m_f m_g |f-g| over the tiny
    histogram cross join. Same [a-z0-9_]+ tokenization as the other
    vocab queries."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "documents", columns=["text"])

    def count_batch(t: pa.Table) -> pa.Table:
        toks: list[str] = []
        for s in t["text"].to_pylist():
            toks.extend(TOKEN_RE.findall(s.lower()))
        uniq, counts = np.unique(np.asarray(toks, dtype=object), return_counts=True)
        return pa.Table.from_pydict(
            {"term": pa.array(list(uniq), pa.string()), "n": pa.array(counts, pa.int64())}
        )

    totals = bucketed_aggregate(
        ds.map_batches(count_batch, batch_format="pyarrow"),
        "term",
        {"n": ("n", "sum")},
        num_buckets=16,
    )

    def _foff(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.groupby("n", as_index=False)
            .size()
            .rename(columns={"n": "f", "size": "m"})
        )

    hist = (
        totals.map_batches(_foff, batch_format="pandas")
        .to_pandas()
        .groupby("f", as_index=False)
        .sum()
    )
    f = hist["f"].to_numpy("int64").astype("float64")
    m = hist["m"].to_numpy("int64").astype("float64")
    v = m.sum()
    mean = float((f * m).sum()) / v
    mad = float(m @ np.abs(f[:, None] - f[None, :]) @ m) / (v * v)
    return pd.DataFrame(
        {
            "vocab_size": pd.Series([int(v)], dtype="int64"),
            "mean_freq": [round(mean, 6)],
            "gini_freq": [round(mad / (2.0 * mean), 6)],
        }
    )


GINI_TERM_FREQUENCIES_SQL = """
WITH tc AS (
  SELECT t.term, count(*) AS f
  FROM documents, unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS t(term)
  GROUP BY t.term
),
h AS (SELECT f, count(*) AS m FROM tc GROUP BY f),
tot AS (SELECT sum(m) AS v, sum(f * m) * 1.0 / sum(m) AS mean FROM h),
mad AS (
  SELECT sum(a.m * b.m * abs(a.f - b.f)) * 1.0
           / ((SELECT v FROM tot) * (SELECT v FROM tot)) AS d
  FROM h a CROSS JOIN h b
)
SELECT (SELECT CAST(v AS BIGINT) FROM tot) AS vocab_size,
       round((SELECT mean FROM tot), 6) AS mean_freq,
       round((SELECT d FROM mad) / (2.0 * (SELECT mean FROM tot)), 6) AS gini_freq
"""


def berger_parker_vocab(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Berger-Parker dominance (share of the single most frequent
    term) and top-k coverage (share of the k most frequent terms) of
    the corpus token stream — the head-side concentration numbers
    next to the tail-side Gini/Simpson/Shannon. Term totals stay
    distributed; only the partial top-k and three scalars reach the
    driver. Tie-break: count desc, term asc (matches
    vocab_top_terms)."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate, partial_topk

    ds = _read(sf_dir, "documents", columns=["text"])

    def count_batch(t: pa.Table) -> pa.Table:
        toks: list[str] = []
        for s in t["text"].to_pylist():
            toks.extend(TOKEN_RE.findall(s.lower()))
        uniq, counts = np.unique(np.asarray(toks, dtype=object), return_counts=True)
        return pa.Table.from_pydict(
            {"term": pa.array(list(uniq), pa.string()), "n": pa.array(counts, pa.int64())}
        )

    totals = bucketed_aggregate(
        ds.map_batches(count_batch, batch_format="pyarrow"),
        "term",
        {"n": ("n", "sum")},
        num_buckets=16,
    )
    nn = int(totals.sum("n"))
    top = partial_topk(totals, by=["n", "term"], ascending=[False, True], k=k)
    return pd.DataFrame(
        {
            "n_tokens": pd.Series([nn], dtype="int64"),
            "top_term": [top["term"].iloc[0]],
            "berger_parker": [round(int(top["n"].iloc[0]) / nn, 6)],
            "topk_coverage": [round(int(top["n"].sum()) / nn, 6)],
        }
    )


def berger_parker_vocab_sql(k: int = 10) -> str:
    return f"""
WITH tc AS (
  SELECT t.term, count(*) AS f
  FROM documents, unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS t(term)
  GROUP BY t.term
),
tot AS (SELECT sum(f) AS n FROM tc),
top AS (
  SELECT term, f, row_number() OVER (ORDER BY f DESC, term) AS rk FROM tc
  QUALIFY rk <= {k}
)
SELECT (SELECT CAST(n AS BIGINT) FROM tot) AS n_tokens,
       (SELECT term FROM top WHERE rk = 1) AS top_term,
       round((SELECT f FROM top WHERE rk = 1) * 1.0 / (SELECT n FROM tot), 6) AS berger_parker,
       round(sum(f) * 1.0 / (SELECT n FROM tot), 6) AS topk_coverage
FROM top
"""


BERGER_PARKER_VOCAB_SQL = berger_parker_vocab_sql()

def weighted_kappa_raters(sf_dir: str) -> pd.DataFrame:
    """Quadratic-weighted Cohen's kappa between the two ordinal
    3-class labelers of stuart_maxwell_raters (length class vs
    whitespace class): disagreement weight w_ij = (i-j)^2/(k-1)^2, so
    short-vs-long costs 4x short-vs-mid — the ordinal-aware
    agreement number the plain kappa flattens. kappa_w = 1 -
    SUM w_ij n_ij / SUM w_ij e_ij with e_ij = row_i*col_j/n. Exact
    integer cells from the same 9-cell paired grid."""
    n = _rater_3x3_cells(sf_dir)
    nn = float(n.sum())
    row = n.sum(axis=1).astype("float64")
    col = n.sum(axis=0).astype("float64")
    i = np.arange(3, dtype="float64")
    w = (i[:, None] - i[None, :]) ** 2 / 4.0
    obs = float((w * n).sum())
    exp = float((w * np.outer(row, col) / nn).sum())
    return pd.DataFrame(
        {
            "n": pd.Series([int(nn)], dtype="int64"),
            "weighted_disagreement": [round(obs / nn, 6)],
            "weighted_kappa": [round(1.0 - obs / exp, 6)],
        }
    )


WEIGHTED_KAPPA_RATERS_SQL = (
    _RATER_3X3_SQL.replace("n00,", "n00,")
    + """,
cells AS (
  SELECT a, b, count(*) AS n
  FROM r GROUP BY 1, 2
),
marg AS (
  SELECT (SELECT sum(n) FROM cells) AS nn
),
full_g AS (
  SELECT ra.a, cb.b, COALESCE(cells.n, 0) AS n,
         (SELECT sum(n) FROM cells c2 WHERE c2.a = ra.a) AS rn,
         (SELECT sum(n) FROM cells c3 WHERE c3.b = cb.b) AS cn
  FROM (SELECT DISTINCT a FROM cells) ra
  CROSS JOIN (SELECT DISTINCT b FROM cells) cb
  LEFT JOIN cells ON cells.a = ra.a AND cells.b = cb.b
),
s AS (
  SELECT sum((a - b) * (a - b) / 4.0 * n) AS obs,
         sum((a - b) * (a - b) / 4.0 * rn * cn / (SELECT nn FROM marg)) AS exp
  FROM full_g
)
SELECT (SELECT CAST(nn AS BIGINT) FROM marg) AS n,
       round(obs / (SELECT nn FROM marg), 6) AS weighted_disagreement,
       round(1.0 - obs / exp, 6) AS weighted_kappa
FROM s
"""
)


def bangdiwala_b_raters(sf_dir: str) -> pd.DataFrame:
    """Bangdiwala's B agreement statistic on the same 3x3 rater
    grid: B = SUM n_ii^2 / SUM (row_i * col_i) — the area of the
    observed agreement squares inside the marginal rectangles of the
    agreement chart; 1 = perfect agreement, robust to prevalence in
    a way kappa is not. Exact integers to the final division."""
    n = _rater_3x3_cells(sf_dir)
    row = n.sum(axis=1).astype("int64")
    col = n.sum(axis=0).astype("int64")
    num = int((np.diag(n).astype("int64") ** 2).sum())
    den = int((row * col).sum())
    return pd.DataFrame(
        {
            "n": pd.Series([int(n.sum())], dtype="int64"),
            "bangdiwala_b": [round(num / den, 6)],
        }
    )


BANGDIWALA_B_RATERS_SQL = (
    _RATER_3X3_SQL
    + """,
cells AS (SELECT a, b, count(*) AS n FROM r GROUP BY 1, 2),
diag AS (SELECT sum(n * n) AS num FROM cells WHERE a = b),
marg AS (
  SELECT sum(rn * cn) AS den, sum(nn2) AS nn FROM (
    SELECT (SELECT sum(n) FROM cells c2 WHERE c2.a = k.k) AS rn,
           (SELECT sum(n) FROM cells c3 WHERE c3.b = k.k) AS cn,
           (SELECT sum(n) FROM cells c4 WHERE c4.a = k.k) AS nn2
    FROM (SELECT DISTINCT a AS k FROM cells) k
  )
)
SELECT (SELECT CAST(nn AS BIGINT) FROM marg) AS n,
       round((SELECT num FROM diag) * 1.0 / (SELECT den FROM marg), 6) AS bangdiwala_b
FROM marg
"""
)


def _vocab_richness_scalars(sf_dir: str) -> tuple[int, int, int]:
    """Shared distributed reduction for the lexical-richness family:
    (n_tokens, vocab_size, hapax_count) — term totals reduce through
    the bucketed vocabulary aggregate, then per-batch partials over
    the totals; the vocabulary never reaches the driver."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "documents", columns=["text"])

    def count_batch(t: pa.Table) -> pa.Table:
        toks: list[str] = []
        for s in t["text"].to_pylist():
            toks.extend(TOKEN_RE.findall(s.lower()))
        if not toks:
            return pa.Table.from_pydict(
                {"term": pa.array([], pa.string()), "n": pa.array([], pa.int64())}
            )
        uniq, counts = np.unique(np.asarray(toks, dtype=object), return_counts=True)
        return pa.Table.from_pydict(
            {"term": pa.array(list(uniq), pa.string()), "n": pa.array(counts, pa.int64())}
        )

    totals = bucketed_aggregate(
        ds.map_batches(count_batch, batch_format="pyarrow"),
        "term",
        {"n": ("n", "sum")},
        num_buckets=16,
    )

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        n = df["n"].to_numpy("int64")
        return pd.DataFrame(
            {
                "ntok": [np.int64(n.sum())],
                "vocab": [np.int64(len(n))],
                "f1": [np.int64((n == 1).sum())],
            }
        )

    s = totals.map_batches(_partial, batch_format="pandas").to_pandas().sum()
    return int(s["ntok"]), int(s["vocab"]), int(s["f1"])


def brunet_w_vocab(sf_dir: str) -> pd.DataFrame:
    """Brunet's W lexical-richness index of the corpus:
    W = N^(V^-0.165) — the classic length-insensitive vocabulary
    measure (lower = richer), completing the richness family beside
    Yule's K, Chao1, Heaps and Honore's H. Two scalars from the
    distributed vocabulary reduction; closed form on the driver."""
    ntok, vocab, _ = _vocab_richness_scalars(sf_dir)
    w = float(ntok) ** (float(vocab) ** -0.165)
    return pd.DataFrame(
        {
            "n_tokens": pd.Series([ntok], dtype="int64"),
            "vocab_size": pd.Series([vocab], dtype="int64"),
            "brunet_w": [round(w, 6)],
        }
    )


BRUNET_W_VOCAB_SQL = """
WITH t AS (
  SELECT tt.term, count(*) AS n
  FROM documents,
       unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS tt(term)
  GROUP BY tt.term
),
s AS (SELECT sum(n) AS ntok, count(*) AS vocab FROM t)
SELECT CAST(ntok AS BIGINT) AS n_tokens,
       CAST(vocab AS BIGINT) AS vocab_size,
       round(pow(ntok, pow(vocab, -0.165)), 6) AS brunet_w
FROM s
"""


def honore_h_vocab(sf_dir: str) -> pd.DataFrame:
    """Honore's H lexical-richness statistic of the corpus:
    H = 100 ln N / (1 - V1/V) — hapax-sensitive richness (higher =
    richer), the singleton-weighted companion of Brunet's W on the
    same three scalars from the one distributed vocabulary pass."""
    ntok, vocab, f1 = _vocab_richness_scalars(sf_dir)
    h = 100.0 * np.log(float(ntok)) / (1.0 - float(f1) / float(vocab))
    return pd.DataFrame(
        {
            "n_tokens": pd.Series([ntok], dtype="int64"),
            "vocab_size": pd.Series([vocab], dtype="int64"),
            "f1": pd.Series([f1], dtype="int64"),
            "honore_h": [round(float(h), 6)],
        }
    )


HONORE_H_VOCAB_SQL = """
WITH t AS (
  SELECT tt.term, count(*) AS n
  FROM documents,
       unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS tt(term)
  GROUP BY tt.term
),
s AS (
  SELECT sum(n) AS ntok, count(*) AS vocab,
         count(*) FILTER (WHERE n = 1) AS f1
  FROM t
)
SELECT CAST(ntok AS BIGINT) AS n_tokens,
       CAST(vocab AS BIGINT) AS vocab_size,
       CAST(f1 AS BIGINT) AS f1,
       round(100.0 * ln(ntok) / (1.0 - f1 * 1.0 / vocab), 6) AS honore_h
FROM s
"""


def _length_english_calibration_grid(sf_dir: str, bucket_chars: int = 200) -> pd.DataFrame:
    """Shared leakage-safe calibration table for the probabilistic
    length->English classifier evals: TRAIN (even doc_id) learns
    per-length-bucket English rates, TEST (odd doc_id) rows carry
    (n, n_en, p_hat) per bucket with the global train rate for unseen
    buckets — same ONE (bucket, split) integer-count grid as the
    Brier/ECE/log-loss family."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "documents", columns=["doc_id", "lang", "n_chars"])

    def _grid(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(
            b=(df["n_chars"] // bucket_chars).astype("int64"),
            train=(df["doc_id"] % 2 == 0).astype("int64"),
            en=(df["lang"] == "en").astype("int64"),
        ).groupby(["b", "train"], as_index=False).agg(n=("en", "size"), n_en=("en", "sum"))

    grid = (
        bucketed_aggregate(
            ds.map_batches(_grid, batch_format="pandas"),
            ["b", "train"],
            {"n": ("n", "sum"), "n_en": ("n_en", "sum")},
            num_buckets=8,
        )
        .to_pandas()
        .sort_values(["b", "train"])
    )
    tr = grid[grid["train"] == 1].set_index("b")
    te = grid[grid["train"] == 0].set_index("b")
    g_rate = tr["n_en"].sum() * 1.0 / tr["n"].sum()
    p_hat = (tr["n_en"] * 1.0 / tr["n"]).reindex(te.index).fillna(g_rate)
    return pd.DataFrame(
        {
            "n": te["n"].to_numpy("int64"),
            "n_en": te["n_en"].to_numpy("int64"),
            "p_hat": p_hat.to_numpy("float64"),
        }
    )


def hosmer_lemeshow_length_english(sf_dir: str) -> pd.DataFrame:
    """Hosmer-Lemeshow goodness-of-calibration chi-square of the
    length->English classifier on the held-out half: groups are the
    length buckets (each has a constant trained p_hat), chi2 =
    SUM (O - n p)^2 / (n p (1-p)) over buckets with 0 < p_hat < 1 —
    the grouped-calibration companion of the Brier/ECE point scores.
    Same one integer-count grid; both engines apply the identical
    degenerate-bucket exclusion."""
    t = _length_english_calibration_grid(sf_dir)
    keep = (t["p_hat"] > 0) & (t["p_hat"] < 1)
    t = t[keep]
    n = t["n"].to_numpy("int64").astype("float64")
    o = t["n_en"].to_numpy("int64").astype("float64")
    p = t["p_hat"].to_numpy("float64")
    chi2 = float(((o - n * p) ** 2 / (n * p * (1 - p))).sum())
    return pd.DataFrame(
        {
            "n_groups": pd.Series([len(t)], dtype="int64"),
            "n_test": pd.Series([int(n.sum())], dtype="int64"),
            "hl_chi2": [round(chi2, 6)],
        }
    )


HOSMER_LEMESHOW_LENGTH_ENGLISH_SQL = """
WITH g AS (
  SELECT n_chars // 200 AS b, doc_id % 2 = 0 AS train,
         count(*) AS n, sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END) AS n_en
  FROM documents GROUP BY 1, 2
),
gr AS (
  SELECT sum(CASE WHEN train THEN n_en ELSE 0 END) * 1.0
         / sum(CASE WHEN train THEN n ELSE 0 END) AS g_rate
  FROM g
),
te AS (
  SELECT t.b, t.n, t.n_en,
         coalesce(tr.n_en * 1.0 / tr.n, gr.g_rate) AS p
  FROM (SELECT * FROM g WHERE NOT train) t
  LEFT JOIN (SELECT * FROM g WHERE train) tr ON tr.b = t.b, gr
),
k AS (SELECT * FROM te WHERE p > 0 AND p < 1)
SELECT CAST(count(*) AS BIGINT) AS n_groups,
       CAST(sum(n) AS BIGINT) AS n_test,
       round(sum(pow(n_en - n * p, 2) / (n * p * (1 - p))), 6) AS hl_chi2
FROM k
"""


def spiegelhalter_z_length_english(sf_dir: str) -> pd.DataFrame:
    """Spiegelhalter's Z test of calibration of the length->English
    classifier on the held-out half: z = SUM (y - p)(1 - 2p) /
    sqrt(SUM (1-2p)^2 p (1-p)) — the closed-form decomposition of the
    Brier score into calibration-only evidence (no grouping choice,
    unlike Hosmer-Lemeshow). Per-bucket constant p collapses both
    sums onto the same integer-count grid."""
    t = _length_english_calibration_grid(sf_dir)
    n = t["n"].to_numpy("int64").astype("float64")
    o = t["n_en"].to_numpy("int64").astype("float64")
    p = t["p_hat"].to_numpy("float64")
    num = float(((1 - 2 * p) * (o - n * p)).sum())
    den = float(((1 - 2 * p) ** 2 * n * p * (1 - p)).sum())
    z = num / np.sqrt(den)
    return pd.DataFrame(
        {
            "n_test": pd.Series([int(n.sum())], dtype="int64"),
            "z_num": [round(num, 6)],
            "spiegelhalter_z": [round(float(z), 6)],
        }
    )


SPIEGELHALTER_Z_LENGTH_ENGLISH_SQL = """
WITH g AS (
  SELECT n_chars // 200 AS b, doc_id % 2 = 0 AS train,
         count(*) AS n, sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END) AS n_en
  FROM documents GROUP BY 1, 2
),
gr AS (
  SELECT sum(CASE WHEN train THEN n_en ELSE 0 END) * 1.0
         / sum(CASE WHEN train THEN n ELSE 0 END) AS g_rate
  FROM g
),
te AS (
  SELECT t.b, t.n, t.n_en,
         coalesce(tr.n_en * 1.0 / tr.n, gr.g_rate) AS p
  FROM (SELECT * FROM g WHERE NOT train) t
  LEFT JOIN (SELECT * FROM g WHERE train) tr ON tr.b = t.b, gr
),
s AS (
  SELECT sum(n) AS n_test,
         sum((1 - 2 * p) * (n_en - n * p)) AS num,
         sum(pow(1 - 2 * p, 2) * n * p * (1 - p)) AS den
  FROM te
)
SELECT CAST(n_test AS BIGINT) AS n_test,
       round(num, 6) AS z_num,
       round(num / sqrt(den), 6) AS spiegelhalter_z
FROM s
"""


def ace_vocab_richness(sf_dir: str) -> pd.DataFrame:
    """ACE (abundance-based coverage estimator) species-richness
    estimate of the corpus vocabulary: rare terms are those with
    count <= 10; C_ace = 1 - F1/N_rare is the rare-coverage estimate,
    gamma^2 = max(S_rare/C_ace * SUM i(i-1)F_i / (N_rare(N_rare-1))
    - 1, 0) the rare-class CV, and S_ace = S_abund + S_rare/C_ace +
    F1/C_ace * gamma^2 — the coverage-based companion of Chao1 on
    the SAME bucketed term-total reduction (the vocabulary never
    reaches the driver; the F_1..F_10 spectrum does)."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    totals = _term_totals(sf_dir)

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        n = df["n"].to_numpy("int64")
        rare = n[n <= 10]
        return pd.DataFrame(
            {
                "s_abund": [np.int64((n > 10).sum())],
                "s_rare": [np.int64(len(rare))],
                "n_rare": [np.int64(rare.sum())],
                "f1": [np.int64((n == 1).sum())],
                "sii": [np.int64((rare * (rare - 1)).sum())],
            }
        )

    s = totals.map_batches(_partial, batch_format="pandas").to_pandas().sum()
    s_abund, s_rare = int(s["s_abund"]), int(s["s_rare"])
    n_rare, f1, sii = int(s["n_rare"]), int(s["f1"]), int(s["sii"])
    # degenerate-corpus guards, mirrored in the SQL: no rare terms ->
    # coverage 1 (ACE = S_abund + S_rare); all rare terms singletons
    # (coverage 0) -> divide by 1 instead (ACE undefined classically)
    c_ace = 1.0 - f1 / max(n_rare, 1)
    denom = c_ace if c_ace > 0.0 else 1.0
    g2 = max(
        (s_rare / denom) * sii / max(n_rare * (n_rare - 1.0), 1.0) - 1.0, 0.0
    )
    ace = s_abund + s_rare / denom + (f1 / denom) * g2
    return pd.DataFrame(
        {
            "s_rare": pd.Series([s_rare], dtype="int64"),
            "s_abund": pd.Series([s_abund], dtype="int64"),
            "c_ace": [round(c_ace, 6)],
            "ace": [round(float(ace), 6)],
        }
    )


ACE_VOCAB_RICHNESS_SQL = """
WITH t AS (
  SELECT tt.term, count(*) AS n
  FROM documents,
       unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS tt(term)
  GROUP BY tt.term
),
s AS (
  SELECT count(*) FILTER (WHERE n > 10) AS s_abund,
         count(*) FILTER (WHERE n <= 10) AS s_rare,
         coalesce(sum(n) FILTER (WHERE n <= 10), 0) AS n_rare,
         count(*) FILTER (WHERE n = 1) AS f1,
         coalesce(sum(n * (n - 1)) FILTER (WHERE n <= 10), 0) AS sii
  FROM t
),
c AS (
  SELECT s_abund, s_rare, n_rare, f1, sii,
         1.0 - f1 * 1.0 / greatest(n_rare, 1) AS c_ace,
         CASE WHEN 1.0 - f1 * 1.0 / greatest(n_rare, 1) > 0.0
              THEN 1.0 - f1 * 1.0 / greatest(n_rare, 1) ELSE 1.0 END AS denom
  FROM s
),
g AS (
  SELECT s_abund, s_rare, f1, c_ace, denom,
         greatest((s_rare / denom) * sii
                  / greatest(n_rare * (n_rare - 1.0), 1.0) - 1.0, 0.0) AS g2
  FROM c
)
SELECT CAST(s_rare AS BIGINT) AS s_rare,
       CAST(s_abund AS BIGINT) AS s_abund,
       round(c_ace, 6) AS c_ace,
       round(s_abund + s_rare / denom + (f1 / denom) * g2, 6) AS ace
FROM g
"""


def jackknife_vocab_richness(sf_dir: str) -> pd.DataFrame:
    """First- and second-order abundance-based jackknife richness
    estimates of the corpus vocabulary: jack1 = S + F1*(n-1)/n,
    jack2 = S + F1*(2n-3)/n - F2*(n-2)^2/(n*(n-1)) with n = total
    token count — the resampling-theory members beside Chao1 and ACE
    on the same bucketed term-total reduction."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    totals = _term_totals(sf_dir)

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        n = df["n"].to_numpy("int64")
        return pd.DataFrame(
            {
                "vocab": [np.int64(len(n))],
                "ntok": [np.int64(n.sum())],
                "f1": [np.int64((n == 1).sum())],
                "f2": [np.int64((n == 2).sum())],
            }
        )

    s = totals.map_batches(_partial, batch_format="pandas").to_pandas().sum()
    vocab, ntok, f1, f2 = int(s["vocab"]), int(s["ntok"]), int(s["f1"]), int(s["f2"])
    jack1 = vocab + f1 * (ntok - 1.0) / ntok
    jack2 = vocab + f1 * (2.0 * ntok - 3.0) / ntok - f2 * (ntok - 2.0) ** 2 / (
        ntok * (ntok - 1.0)
    )
    return pd.DataFrame(
        {
            "vocab_size": pd.Series([vocab], dtype="int64"),
            "n_tokens": pd.Series([ntok], dtype="int64"),
            "jack1": [round(float(jack1), 6)],
            "jack2": [round(float(jack2), 6)],
        }
    )


JACKKNIFE_VOCAB_RICHNESS_SQL = """
WITH t AS (
  SELECT tt.term, count(*) AS n
  FROM documents,
       unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS tt(term)
  GROUP BY tt.term
),
s AS (
  SELECT count(*) AS vocab, sum(n) AS ntok,
         count(*) FILTER (WHERE n = 1) AS f1,
         count(*) FILTER (WHERE n = 2) AS f2
  FROM t
)
SELECT CAST(vocab AS BIGINT) AS vocab_size,
       CAST(ntok AS BIGINT) AS n_tokens,
       round(vocab + f1 * (ntok - 1.0) / ntok, 6) AS jack1,
       round(vocab + f1 * (2.0 * ntok - 3.0) / ntok
             - f2 * pow(ntok - 2.0, 2) / (ntok * (ntok - 1.0)), 6) AS jack2
FROM s
"""


def _term_totals(sf_dir: str):
    """Shared bucketed per-term total-count reduction (the chao1
    machinery): tokenize per batch, unique-count locally, combine by
    term through the bucketed aggregate over the vocabulary key
    domain. Returns the totals dataset (term, n)."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "documents", columns=["text"])

    def count_batch(t: pa.Table) -> pa.Table:
        toks: list[str] = []
        for s in t["text"].to_pylist():
            toks.extend(TOKEN_RE.findall(s.lower()))
        if not toks:
            return pa.Table.from_pydict(
                {"term": pa.array([], pa.string()), "n": pa.array([], pa.int64())}
            )
        uniq, counts = np.unique(np.asarray(toks, dtype=object), return_counts=True)
        return pa.Table.from_pydict(
            {"term": pa.array(list(uniq), pa.string()), "n": pa.array(counts, pa.int64())}
        )

    return bucketed_aggregate(
        ds.map_batches(count_batch, batch_format="pyarrow"),
        "term",
        {"n": ("n", "sum")},
        num_buckets=16,
    )


def _length_english_confusion(sf_dir: str):
    """Shared exact confusion counts for the length->English
    classifier at the LOWER-MEDIAN length threshold (predict English
    when n_chars >= t*, t* = smallest value whose cumulative count
    reaches ceil(n/2) from below) — one bucketed value-domain
    histogram, O(distinct lengths) driver walk. Returns
    (threshold, tp, fp, fn, tn)."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "documents", columns=["lang", "n_chars"])

    def _grid(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(pos=(df["lang"] == "en").astype("int64")).groupby(
            "n_chars", as_index=False
        ).agg(n=("pos", "size"), n_pos=("pos", "sum"))

    grid = (
        bucketed_aggregate(
            ds.map_batches(_grid, batch_format="pandas"),
            "n_chars",
            {"n": ("n", "sum"), "n_pos": ("n_pos", "sum")},
            num_buckets=16,
        )
        .to_pandas()
        .sort_values("n_chars")
        .reset_index(drop=True)
    )
    n = grid["n"].to_numpy("int64")
    pos = grid["n_pos"].to_numpy("int64")
    n_tot, p_tot = int(n.sum()), int(pos.sum())
    cum = np.cumsum(n)
    t_idx = int(np.argmax(cum >= (n_tot + 1) // 2))
    thr = int(grid["n_chars"].iloc[t_idx])
    sel = grid["n_chars"].to_numpy("int64") >= thr
    tp = int(pos[sel].sum())
    fp = int((n[sel] - pos[sel]).sum())
    fn = p_tot - tp
    tn = (n_tot - p_tot) - fp
    return thr, tp, fp, fn, tn


def confusion_metrics_length_english(sf_dir: str) -> pd.DataFrame:
    """Point confusion-matrix metrics of the length->English
    classifier at the lower-median length threshold: precision,
    recall, F1, balanced accuracy and Matthews correlation — the
    fixed-operating-point report card beside the threshold-free
    AUC/AP ranking metrics and the Youden-selected point."""
    thr, tp, fp, fn, tn = _length_english_confusion(sf_dir)
    prec = tp / (tp + fp)
    rec = tp / (tp + fn)
    f1 = 2.0 * prec * rec / (prec + rec)
    bacc = 0.5 * (rec + tn / (tn + fp))
    mcc = (tp * 1.0 * tn - fp * 1.0 * fn) / np.sqrt(
        (tp + fp) * 1.0 * (tp + fn) * (tn + fp) * (tn + fn)
    )
    return pd.DataFrame(
        {
            "threshold": pd.Series([thr], dtype="int64"),
            "precision": [round(prec, 6)],
            "recall": [round(rec, 6)],
            "f1": [round(f1, 6)],
            "balanced_acc": [round(bacc, 6)],
            "mcc": [round(float(mcc), 6)],
        }
    )


_LEN_EN_CONF_SQL = """
WITH g AS (
  SELECT n_chars, count(*) AS n,
         sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END) AS pos
  FROM documents GROUP BY 1
),
tot AS (SELECT sum(n) AS n_tot, sum(pos) AS p_tot FROM g),
cum AS (
  SELECT n_chars, sum(n) OVER (ORDER BY n_chars) AS c FROM g
),
thr AS (
  SELECT min(n_chars) AS t FROM cum
  WHERE c >= ((SELECT n_tot FROM tot) + 1) // 2
),
cf AS (
  SELECT (SELECT t FROM thr) AS t,
         sum(CASE WHEN n_chars >= (SELECT t FROM thr) THEN pos ELSE 0 END) AS tp,
         sum(CASE WHEN n_chars >= (SELECT t FROM thr) THEN n - pos ELSE 0 END) AS fp,
         (SELECT p_tot FROM tot)
           - sum(CASE WHEN n_chars >= (SELECT t FROM thr) THEN pos ELSE 0 END) AS fn,
         (SELECT n_tot - p_tot FROM tot)
           - sum(CASE WHEN n_chars >= (SELECT t FROM thr) THEN n - pos ELSE 0 END) AS tn
  FROM g
)
"""

CONFUSION_METRICS_LENGTH_ENGLISH_SQL = (
    _LEN_EN_CONF_SQL
    + """
SELECT CAST(t AS BIGINT) AS threshold,
       round(tp * 1.0 / (tp + fp), 6) AS precision,
       round(tp * 1.0 / (tp + fn), 6) AS recall,
       round(2.0 * (tp * 1.0 / (tp + fp)) * (tp * 1.0 / (tp + fn))
             / (tp * 1.0 / (tp + fp) + tp * 1.0 / (tp + fn)), 6) AS f1,
       round(0.5 * (tp * 1.0 / (tp + fn) + tn * 1.0 / (tn + fp)), 6) AS balanced_acc,
       round((tp * 1.0 * tn - fp * 1.0 * fn)
             / sqrt((tp + fp) * 1.0 * (tp + fn) * (tn + fp) * (tn + fn)), 6) AS mcc
FROM cf
"""
)


def fowlkes_mallows_length_english(sf_dir: str) -> pd.DataFrame:
    """Fowlkes-Mallows index (geometric mean of precision and
    recall), informedness (TPR + TNR - 1, the multi-threshold Youden
    J) and markedness (PPV + NPV - 1) of the length->English
    classifier at the same lower-median threshold — the
    chance-aware operating-point triple whose product
    informedness x markedness = MCC^2."""
    thr, tp, fp, fn, tn = _length_english_confusion(sf_dir)
    ppv = tp / (tp + fp)
    tpr = tp / (tp + fn)
    tnr = tn / (tn + fp)
    npv = tn / (tn + fn)
    return pd.DataFrame(
        {
            "threshold": pd.Series([thr], dtype="int64"),
            "fowlkes_mallows": [round(float(np.sqrt(ppv * tpr)), 6)],
            "informedness": [round(tpr + tnr - 1.0, 6)],
            "markedness": [round(ppv + npv - 1.0, 6)],
        }
    )


FOWLKES_MALLOWS_LENGTH_ENGLISH_SQL = (
    _LEN_EN_CONF_SQL
    + """
SELECT CAST(t AS BIGINT) AS threshold,
       round(sqrt((tp * 1.0 / (tp + fp)) * (tp * 1.0 / (tp + fn))), 6)
         AS fowlkes_mallows,
       round(tp * 1.0 / (tp + fn) + tn * 1.0 / (tn + fp) - 1.0, 6) AS informedness,
       round(tp * 1.0 / (tp + fp) + tn * 1.0 / (tn + fn) - 1.0, 6) AS markedness
FROM cf
"""
)


def lexical_richness_indices(sf_dir: str) -> pd.DataFrame:
    """Length-compensated lexical richness indices of the corpus:
    Herdan's C = ln V / ln N, Guiraud's R = V / sqrt(N), and Maas
    a^2 = (ln N - ln V) / ln^2 N (lower = richer; the most
    length-stable of the family) — the type-token members beside
    Brunet's W and Honore's H on the same bucketed term-total
    reduction (only (V, N) scalars reach the driver)."""
    totals = _term_totals(sf_dir)

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        n = df["n"].to_numpy("int64")
        return pd.DataFrame(
            {"vocab": [np.int64(len(n))], "ntok": [np.int64(n.sum())]}
        )

    s = totals.map_batches(_partial, batch_format="pandas").to_pandas().sum()
    v, n = int(s["vocab"]), int(s["ntok"])
    return pd.DataFrame(
        {
            "vocab_size": pd.Series([v], dtype="int64"),
            "n_tokens": pd.Series([n], dtype="int64"),
            "herdan_c": [round(np.log(v) / np.log(n), 6)],
            "guiraud_r": [round(v / np.sqrt(n), 6)],
            "maas_a2": [round((np.log(n) - np.log(v)) / np.log(n) ** 2, 6)],
        }
    )


LEXICAL_RICHNESS_INDICES_SQL = """
WITH t AS (
  SELECT tt.term, count(*) AS n
  FROM documents,
       unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS tt(term)
  GROUP BY tt.term
),
s AS (SELECT count(*) AS v, sum(n) AS n FROM t)
SELECT CAST(v AS BIGINT) AS vocab_size,
       CAST(n AS BIGINT) AS n_tokens,
       round(ln(v) / ln(n), 6) AS herdan_c,
       round(v / sqrt(n), 6) AS guiraud_r,
       round((ln(n) - ln(v)) / (ln(n) * ln(n)), 6) AS maas_a2
FROM s
"""


def sichel_s_vocab(sf_dir: str) -> pd.DataFrame:
    """Sichel's S = F2 / V, the proportion of dis legomena
    (twice-occurring terms) in the vocabulary — empirically constant
    across text lengths and the F2-based member of the richness
    family (Honore uses F1, Yule's K the full spectrum); reported
    with the hapax proportion F1/V it is usually read against."""
    totals = _term_totals(sf_dir)

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        n = df["n"].to_numpy("int64")
        return pd.DataFrame(
            {
                "vocab": [np.int64(len(n))],
                "f1": [np.int64((n == 1).sum())],
                "f2": [np.int64((n == 2).sum())],
            }
        )

    s = totals.map_batches(_partial, batch_format="pandas").to_pandas().sum()
    v, f1, f2 = int(s["vocab"]), int(s["f1"]), int(s["f2"])
    return pd.DataFrame(
        {
            "vocab_size": pd.Series([v], dtype="int64"),
            "sichel_s": [round(f2 / v, 6)],
            "hapax_prop": [round(f1 / v, 6)],
        }
    )


SICHEL_S_VOCAB_SQL = """
WITH t AS (
  SELECT tt.term, count(*) AS n
  FROM documents,
       unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS tt(term)
  GROUP BY tt.term
),
s AS (
  SELECT count(*) AS v,
         count(*) FILTER (WHERE n = 1) AS f1,
         count(*) FILTER (WHERE n = 2) AS f2
  FROM t
)
SELECT CAST(v AS BIGINT) AS vocab_size,
       round(f2 * 1.0 / v, 6) AS sichel_s,
       round(f1 * 1.0 / v, 6) AS hapax_prop
FROM s
"""


def hill_numbers_vocab(sf_dir: str) -> pd.DataFrame:
    """Hill-number diversity profile of the corpus vocabulary — the
    effective number of equally-common terms at orders q = 0 (richness
    V), q = 1 (exp Shannon), q = 2 (inverse Simpson) and q = inf
    (1/Berger-Parker): the unified scale that the separate
    Shannon/Simpson/Berger-Parker queries are points on. All four
    from one pass over the bucketed term totals (sum p ln p, sum p^2,
    max p are distributed partials)."""
    totals = _term_totals(sf_dir)

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        n = df["n"].to_numpy("int64").astype("float64")
        return pd.DataFrame(
            {
                "vocab": [np.int64(len(n))],
                "ntok": [np.int64(n.sum())],
                "snlogn": [float((n * np.log(n)).sum())],
                "sn2": [float((n * n).sum())],
                "nmax": [np.int64(n.max())],
            }
        )

    p = totals.map_batches(_partial, batch_format="pandas").to_pandas()
    vocab = int(p["vocab"].sum())
    ntok = int(p["ntok"].sum())
    h = np.log(ntok) - float(p["snlogn"].sum()) / ntok
    d2 = ntok * ntok / float(p["sn2"].sum())
    dinf = ntok / float(p["nmax"].max())
    return pd.DataFrame(
        {
            "q0_richness": pd.Series([vocab], dtype="int64"),
            "q1_exp_shannon": [round(float(np.exp(h)), 6)],
            "q2_inv_simpson": [round(d2, 6)],
            "qinf_inv_bp": [round(dinf, 6)],
        }
    )


HILL_NUMBERS_VOCAB_SQL = """
WITH t AS (
  SELECT tt.term, count(*) AS n
  FROM documents,
       unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS tt(term)
  GROUP BY tt.term
),
s AS (
  SELECT count(*) AS v, sum(n) AS ntok, sum(n * ln(n)) AS snlogn,
         sum(n * n) AS sn2, max(n) AS nmax
  FROM t
)
SELECT CAST(v AS BIGINT) AS q0_richness,
       round(exp(ln(ntok) - snlogn / ntok), 6) AS q1_exp_shannon,
       round(ntok * ntok * 1.0 / sn2, 6) AS q2_inv_simpson,
       round(ntok * 1.0 / nmax, 6) AS qinf_inv_bp
FROM s
"""


def evenness_profile_vocab(sf_dir: str) -> pd.DataFrame:
    """Evenness profile of the corpus vocabulary: Sheldon's E =
    exp(H)/V, Heip's E = (exp(H)-1)/(V-1) and Simpson evenness
    (1/D2)/V — the richness-normalized companions of the raw Hill
    numbers (Pielou's J = H/ln V is the log-scale member already
    covered). Same one-pass term-total partials."""
    totals = _term_totals(sf_dir)

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        n = df["n"].to_numpy("int64").astype("float64")
        return pd.DataFrame(
            {
                "vocab": [np.int64(len(n))],
                "ntok": [np.int64(n.sum())],
                "snlogn": [float((n * np.log(n)).sum())],
                "sn2": [float((n * n).sum())],
            }
        )

    p = totals.map_batches(_partial, batch_format="pandas").to_pandas()
    vocab = int(p["vocab"].sum())
    ntok = int(p["ntok"].sum())
    h = np.log(ntok) - float(p["snlogn"].sum()) / ntok
    d2 = ntok * ntok / float(p["sn2"].sum())
    return pd.DataFrame(
        {
            "vocab_size": pd.Series([vocab], dtype="int64"),
            "sheldon_e": [round(float(np.exp(h)) / vocab, 6)],
            "heip_e": [round((float(np.exp(h)) - 1.0) / (vocab - 1.0), 6)],
            "simpson_e": [round(d2 / vocab, 6)],
        }
    )


EVENNESS_PROFILE_VOCAB_SQL = """
WITH t AS (
  SELECT tt.term, count(*) AS n
  FROM documents,
       unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS tt(term)
  GROUP BY tt.term
),
s AS (
  SELECT count(*) AS v, sum(n) AS ntok, sum(n * ln(n)) AS snlogn,
         sum(n * n) AS sn2
  FROM t
)
SELECT CAST(v AS BIGINT) AS vocab_size,
       round(exp(ln(ntok) - snlogn / ntok) / v, 6) AS sheldon_e,
       round((exp(ln(ntok) - snlogn / ntok) - 1.0) / (v - 1.0), 6) AS heip_e,
       round((ntok * ntok * 1.0 / sn2) / v, 6) AS simpson_e
FROM s
"""


def likelihood_ratios_length_english(sf_dir: str) -> pd.DataFrame:
    """Diagnostic likelihood ratios of the length->English classifier
    at the lower-median threshold: LR+ = sensitivity/(1-specificity)
    (how much a positive call raises the odds of English), LR- =
    (1-sensitivity)/specificity, and the diagnostic odds ratio
    DOR = LR+/LR- — the pre/post-test-odds report card beside the
    precision/recall point metrics, from the SAME exact confusion
    cells."""
    thr, tp, fp, fn, tn = _length_english_confusion(sf_dir)
    sens = tp * 1.0 / (tp + fn)
    spec = tn * 1.0 / (tn + fp)
    lr_pos = sens / (1.0 - spec)
    lr_neg = (1.0 - sens) / spec
    return pd.DataFrame(
        {
            "threshold": pd.Series([thr], dtype="int64"),
            "lr_pos": [round(lr_pos, 6)],
            "lr_neg": [round(lr_neg, 6)],
            "dor": [round(lr_pos / lr_neg, 6)],
        }
    )


LIKELIHOOD_RATIOS_LENGTH_ENGLISH_SQL = (
    _LEN_EN_CONF_SQL
    + """
SELECT CAST(t AS BIGINT) AS threshold,
       round((tp * 1.0 / (tp + fn)) / (1.0 - tn * 1.0 / (tn + fp)), 6) AS lr_pos,
       round((1.0 - tp * 1.0 / (tp + fn)) / (tn * 1.0 / (tn + fp)), 6) AS lr_neg,
       round(((tp * 1.0 / (tp + fn)) / (1.0 - tn * 1.0 / (tn + fp)))
             / ((1.0 - tp * 1.0 / (tp + fn)) / (tn * 1.0 / (tn + fp))), 6) AS dor
FROM cf
"""
)


def margalef_menhinick_vocab(sf_dir: str) -> pd.DataFrame:
    """Margalef richness D_mg = (S - 1)/ln N and Menhinick richness
    D_mn = S/sqrt(N) of the corpus vocabulary (S = distinct terms,
    N = total tokens) — the two classical size-normalized richness
    indices beside Chao1/ACE/jackknife, answering 'is vocabulary
    large FOR this corpus size'. Same bucketed term-total reduction;
    the vocabulary never reaches the driver."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "documents", columns=["text"])

    def count_batch(t: pa.Table) -> pa.Table:
        toks: list[str] = []
        for s in t["text"].to_pylist():
            toks.extend(TOKEN_RE.findall(s.lower()))
        if not toks:
            return pa.Table.from_pydict(
                {"term": pa.array([], pa.string()), "n": pa.array([], pa.int64())}
            )
        uniq, counts = np.unique(np.asarray(toks, dtype=object), return_counts=True)
        return pa.Table.from_pydict(
            {"term": pa.array(list(uniq), pa.string()), "n": pa.array(counts, pa.int64())}
        )

    totals = bucketed_aggregate(
        ds.map_batches(count_batch, batch_format="pyarrow"),
        "term",
        {"n": ("n", "sum")},
        num_buckets=16,
    )

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        n = df["n"].to_numpy("int64")
        return pd.DataFrame(
            {"vocab": [np.int64(len(n))], "tokens": [np.int64(n.sum())]}
        )

    s = totals.map_batches(_partial, batch_format="pandas").to_pandas().sum()
    vocab, tokens = int(s["vocab"]), int(s["tokens"])
    return pd.DataFrame(
        {
            "vocab_size": pd.Series([vocab], dtype="int64"),
            "n_tokens": pd.Series([tokens], dtype="int64"),
            "margalef": [round((vocab - 1.0) / np.log(tokens), 6)],
            "menhinick": [round(vocab / np.sqrt(tokens), 6)],
        }
    )


MARGALEF_MENHINICK_VOCAB_SQL = """
WITH t AS (
  SELECT tt.term, count(*) AS n
  FROM documents,
       unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS tt(term)
  GROUP BY tt.term
),
s AS (SELECT count(*) AS vocab, sum(n) AS tokens FROM t)
SELECT CAST(vocab AS BIGINT) AS vocab_size,
       CAST(tokens AS BIGINT) AS n_tokens,
       round((vocab - 1.0) / ln(tokens), 6) AS margalef,
       round(vocab / sqrt(tokens), 6) AS menhinick
FROM s
"""


def _top_terms_doc_stats(sf_dir: str, k: int = 5):
    """Shared two-pass reduction for the term-burstiness pair: pass 1
    finds the top-k terms by collection frequency (bucketed vocab
    aggregate + partial top-k, ties lexicographic); pass 2 counts,
    per top term, N docs, df (docs containing), df2 (docs with tf >=
    2) and cf — per-batch partials with the tiny term set in the
    closure. Returns (n_docs, DataFrame[term, cf, df, df2])."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "documents", columns=["text"])

    def count_batch(t: pa.Table) -> pa.Table:
        toks: list[str] = []
        for s in t["text"].to_pylist():
            toks.extend(TOKEN_RE.findall(s.lower()))
        if not toks:
            return pa.Table.from_pydict(
                {"term": pa.array([], pa.string()), "n": pa.array([], pa.int64())}
            )
        uniq, counts = np.unique(np.asarray(toks, dtype=object), return_counts=True)
        return pa.Table.from_pydict(
            {"term": pa.array(list(uniq), pa.string()), "n": pa.array(counts, pa.int64())}
        )

    totals = bucketed_aggregate(
        ds.map_batches(count_batch, batch_format="pyarrow"),
        "term",
        {"n": ("n", "sum")},
        num_buckets=16,
    )
    top = (
        totals.map_batches(
            lambda df: df.sort_values(["n", "term"], ascending=[False, True]).head(k),
            batch_format="pandas",
        )
        .to_pandas()
        .sort_values(["n", "term"], ascending=[False, True])
        .head(k)
        .reset_index(drop=True)
    )
    terms = list(top["term"])

    def _doc_stats(t: pa.Table) -> pd.DataFrame:
        rows = {w: [0, 0, 0, 0] for w in terms}  # n_docs_any unused per term
        nd = 0
        for s in t["text"].to_pylist():
            nd += 1
            toks = TOKEN_RE.findall(s.lower())
            if not toks:
                continue
            u, c = np.unique(np.asarray(toks, dtype=object), return_counts=True)
            m = dict(zip(u.tolist(), c.tolist()))
            for w in terms:
                tf = m.get(w, 0)
                if tf >= 1:
                    rows[w][0] += 1
                    rows[w][2] += int(tf)
                if tf >= 2:
                    rows[w][1] += 1
        out = pd.DataFrame(
            {
                "term": terms,
                "df": [rows[w][0] for w in terms],
                "df2": [rows[w][1] for w in terms],
                "cf": [rows[w][2] for w in terms],
                "nd": nd,
            }
        )
        return out

    s = (
        ds.map_batches(_doc_stats, batch_format="pyarrow")
        .to_pandas()
        .groupby("term", as_index=False)
        .sum()
    )
    n_docs = int(s["nd"].sum() / len(terms)) if len(terms) else 0
    return n_docs, s[["term", "cf", "df", "df2"]].reset_index(drop=True)


def katz_k_mixture_top_term(sf_dir: str) -> pd.DataFrame:
    """Katz K-mixture fit (Katz 1996) of the within-document
    frequency of the corpus's top collection-frequency term: beta =
    (cf - df)/df (extra occurrences per containing document), alpha
    = (cf/N)/beta — the burstiness model that fixed the Poisson's
    failure on content words; reports the observed containing-doc
    mean tf (= 1 + beta under the model, exactly, by construction of
    the MoM fit) and the Poisson-expected df for contrast."""
    n_docs, s = _top_terms_doc_stats(sf_dir, k=1)
    term = s["term"].iloc[0]
    cf, df = int(s["cf"].iloc[0]), int(s["df"].iloc[0])
    lam = cf * 1.0 / n_docs
    beta = (cf - df) * 1.0 / df
    alpha = lam / beta
    poisson_df = n_docs * (1.0 - np.exp(-lam))
    return pd.DataFrame(
        {
            "term": [term],
            "cf": pd.Series([cf], dtype="int64"),
            "df": pd.Series([df], dtype="int64"),
            "beta": [round(beta, 6)],
            "alpha": [round(alpha, 6)],
            "poisson_expected_df": [round(float(poisson_df), 4)],
        }
    )


KATZ_K_MIXTURE_TOP_TERM_SQL = """
WITH toks AS (
  SELECT doc_id, tt.term
  FROM documents,
       unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS tt(term)
),
cfs AS (SELECT term, count(*) AS cf FROM toks GROUP BY term),
top1 AS (SELECT term, cf FROM cfs ORDER BY cf DESC, term ASC LIMIT 1),
nd AS (SELECT count(*) AS n FROM documents),
dfs AS (
  SELECT count(DISTINCT doc_id) AS df
  FROM toks WHERE term = (SELECT term FROM top1)
),
p AS (
  SELECT (SELECT term FROM top1) AS term,
         (SELECT cf FROM top1) AS cf,
         (SELECT df FROM dfs) AS df,
         (SELECT n FROM nd) AS n
)
SELECT term, CAST(cf AS BIGINT) AS cf, CAST(df AS BIGINT) AS df,
       round((cf - df) * 1.0 / df, 6) AS beta,
       round((cf * 1.0 / n) / ((cf - df) * 1.0 / df), 6) AS alpha,
       round(n * (1.0 - exp(-(cf * 1.0 / n))), 4) AS poisson_expected_df
FROM p
"""


def term_adaptation_top_terms(sf_dir: str, k: int = 5) -> pd.DataFrame:
    """Church-Gale adaptation probabilities for the top-5
    collection-frequency terms: P(tf >= 2 | tf >= 1) = df2/df1
    against the Poisson expectation (1 - e^-m - m e^-m)/(1 - e^-m)
    at m = cf/N — adaptation >> Poisson is the signature of topical
    burstiness ('a word used once will be used again'), per-term
    rows from the same two-pass reduction."""
    n_docs, s = _top_terms_doc_stats(sf_dir, k=k)
    s = s.sort_values(["cf", "term"], ascending=[False, True]).reset_index(drop=True)
    m = s["cf"].to_numpy("int64") * 1.0 / n_docs
    pois = (1.0 - np.exp(-m) - m * np.exp(-m)) / (1.0 - np.exp(-m))
    return pd.DataFrame(
        {
            "term": s["term"],
            "df1": s["df"].astype("int64"),
            "df2": s["df2"].astype("int64"),
            "adaptation": np.round(s["df2"].to_numpy() / s["df"].to_numpy("float64"), 6),
            "poisson_adaptation": np.round(pois, 6),
        }
    )


TERM_ADAPTATION_TOP_TERMS_SQL = """
WITH toks AS (
  SELECT doc_id, tt.term
  FROM documents,
       unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS tt(term)
),
cfs AS (SELECT term, count(*) AS cf FROM toks GROUP BY term),
top5 AS (SELECT term, cf FROM cfs ORDER BY cf DESC, term ASC LIMIT 5),
nd AS (SELECT count(*) AS n FROM documents),
per AS (
  SELECT t.term, t.doc_id, count(*) AS tf
  FROM toks t WHERE t.term IN (SELECT term FROM top5)
  GROUP BY t.term, t.doc_id
),
agg AS (
  SELECT term, count(*) AS df1,
         sum(CASE WHEN tf >= 2 THEN 1 ELSE 0 END) AS df2
  FROM per GROUP BY term
)
SELECT a.term,
       CAST(a.df1 AS BIGINT) AS df1,
       CAST(a.df2 AS BIGINT) AS df2,
       round(a.df2 * 1.0 / a.df1, 6) AS adaptation,
       round((1.0 - exp(-(t.cf * 1.0 / (SELECT n FROM nd)))
              - (t.cf * 1.0 / (SELECT n FROM nd))
                * exp(-(t.cf * 1.0 / (SELECT n FROM nd))))
             / (1.0 - exp(-(t.cf * 1.0 / (SELECT n FROM nd)))), 6)
         AS poisson_adaptation
FROM agg a JOIN top5 t USING (term)
ORDER BY t.cf DESC, a.term ASC
"""


def _length_english_confusion_by_source(sf_dir: str) -> pd.DataFrame:
    """Shared per-SOURCE confusion grid for the length->English
    classifier at the GLOBAL lower-median threshold — the group-level
    decomposition behind the fairness-audit pair. One bucketed
    (source, n_chars) histogram; the driver derives the global
    threshold by marginalizing sources, then cuts each source's
    confusion at that same threshold. Returns per-source
    (source, n, npred, tp, fp, p, neg) exact integers."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "documents", columns=["source", "lang", "n_chars"])

    def _grid(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(pos=(df["lang"] == "en").astype("int64")).groupby(
            ["source", "n_chars"], as_index=False
        ).agg(n=("pos", "size"), n_pos=("pos", "sum"))

    grid = (
        bucketed_aggregate(
            ds.map_batches(_grid, batch_format="pandas"),
            ["source", "n_chars"],
            {"n": ("n", "sum"), "n_pos": ("n_pos", "sum")},
            num_buckets=16,
        )
        .to_pandas()
        .sort_values(["source", "n_chars"])
        .reset_index(drop=True)
    )
    lens = grid.groupby("n_chars", as_index=False)["n"].sum().sort_values("n_chars")
    n_tot = int(lens["n"].sum())
    cum = np.cumsum(lens["n"].to_numpy("int64"))
    thr = int(lens["n_chars"].iloc[int(np.argmax(cum >= (n_tot + 1) // 2))])
    grid["pred"] = (grid["n_chars"] >= thr).astype("int64")
    by = grid.groupby("source").apply(
        lambda g: pd.Series(
            {
                "n": int(g["n"].sum()),
                "npred": int(g.loc[g["pred"] == 1, "n"].sum()),
                "tp": int(g.loc[g["pred"] == 1, "n_pos"].sum()),
                "fp": int((g.loc[g["pred"] == 1, "n"] - g.loc[g["pred"] == 1, "n_pos"]).sum()),
                "p": int(g["n_pos"].sum()),
                "neg": int((g["n"] - g["n_pos"]).sum()),
            }
        ),
        include_groups=False,
    ).reset_index()
    by["threshold"] = thr
    return by


def fairness_rates_by_source(sf_dir: str) -> pd.DataFrame:
    """Per-source fairness report card for the length->English
    classifier at the global lower-median threshold: selection rate
    (predicted-positive share — the demographic-parity coordinate),
    TPR and FPR (the equalized-odds coordinates) and PPV (the
    predictive-parity coordinate) for each source group — the
    group-conditional rates every formal fairness criterion compares."""
    by = _length_english_confusion_by_source(sf_dir)
    return pd.DataFrame(
        {
            "source": by["source"].astype(object),
            "n": by["n"].astype("int64"),
            "sel_rate": np.round(by["npred"] / by["n"], 6),
            "tpr": np.round(by["tp"] / by["p"], 6),
            "fpr": np.round(by["fp"] / by["neg"], 6),
            "ppv": np.round(by["tp"] / by["npred"], 6),
        }
    ).sort_values("source").reset_index(drop=True)


_LEN_EN_BY_SOURCE_SQL = """
WITH g AS (
  SELECT source, n_chars, count(*) AS n,
         sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END) AS pos
  FROM documents GROUP BY 1, 2
),
lens AS (SELECT n_chars, sum(n) AS n FROM g GROUP BY 1),
tot AS (SELECT sum(n) AS n_tot FROM lens),
cum AS (SELECT n_chars, sum(n) OVER (ORDER BY n_chars) AS c FROM lens),
thr AS (
  SELECT min(n_chars) AS t FROM cum
  WHERE c >= ((SELECT n_tot FROM tot) + 1) // 2
),
bys AS (
  SELECT source, sum(n) AS n,
         sum(CASE WHEN n_chars >= (SELECT t FROM thr) THEN n ELSE 0 END) AS npred,
         sum(CASE WHEN n_chars >= (SELECT t FROM thr) THEN pos ELSE 0 END) AS tp,
         sum(CASE WHEN n_chars >= (SELECT t FROM thr) THEN n - pos ELSE 0 END) AS fp,
         sum(pos) AS p, sum(n - pos) AS neg
  FROM g GROUP BY source
)
"""

FAIRNESS_RATES_BY_SOURCE_SQL = (
    _LEN_EN_BY_SOURCE_SQL
    + """
SELECT source, CAST(n AS BIGINT) AS n,
       round(npred * 1.0 / n, 6) AS sel_rate,
       round(tp * 1.0 / p, 6) AS tpr,
       round(fp * 1.0 / neg, 6) AS fpr,
       round(tp * 1.0 / npred, 6) AS ppv
FROM bys ORDER BY source
"""
)


def fairness_gaps_by_source(sf_dir: str) -> pd.DataFrame:
    """Scalar fairness-criterion gaps of the length->English
    classifier across source groups: demographic parity difference
    (max - min selection rate), disparate impact ratio (min/max
    selection rate — the EEOC four-fifths-rule statistic), the
    equalized-odds gaps (largest between-group TPR and FPR
    differences), and the predictive-parity gap (largest PPV
    difference) — the audit scalars over the same per-source
    confusion grid."""
    by = _length_english_confusion_by_source(sf_dir)
    sel = (by["npred"] / by["n"]).to_numpy("float64")
    tpr = (by["tp"] / by["p"]).to_numpy("float64")
    fpr = (by["fp"] / by["neg"]).to_numpy("float64")
    ppv = (by["tp"] / by["npred"]).to_numpy("float64")
    return pd.DataFrame(
        {
            "n_groups": pd.Series([len(by)], dtype="int64"),
            "dp_diff": [round(float(sel.max() - sel.min()), 6)],
            "di_ratio": [round(float(sel.min() / sel.max()), 6)],
            "eo_tpr_gap": [round(float(tpr.max() - tpr.min()), 6)],
            "eo_fpr_gap": [round(float(fpr.max() - fpr.min()), 6)],
            "pp_gap": [round(float(ppv.max() - ppv.min()), 6)],
        }
    )


FAIRNESS_GAPS_BY_SOURCE_SQL = (
    _LEN_EN_BY_SOURCE_SQL
    + """
SELECT CAST(count(*) AS BIGINT) AS n_groups,
       round(max(npred * 1.0 / n) - min(npred * 1.0 / n), 6) AS dp_diff,
       round(min(npred * 1.0 / n) / max(npred * 1.0 / n), 6) AS di_ratio,
       round(max(tp * 1.0 / p) - min(tp * 1.0 / p), 6) AS eo_tpr_gap,
       round(max(fp * 1.0 / neg) - min(fp * 1.0 / neg), 6) AS eo_fpr_gap,
       round(max(tp * 1.0 / npred) - min(tp * 1.0 / npred), 6) AS pp_gap
FROM bys
"""
)


# ---------------------------------------------------------------------------
# vocabulary rarefaction (hypergeometric expected-distinct curve)
# ---------------------------------------------------------------------------

def _freq_of_freq(sf_dir: str) -> pd.DataFrame:
    """Frequency-of-frequencies vector phi_f (how many terms occur
    exactly f times) from the shared bucketed term-total reduction —
    terms with equal counts contribute identically to every
    occupancy statistic, so the rarefaction math collapses from
    |vocab| to |distinct f| terms. The vocabulary never reaches the
    driver; only the (f, phi_f) rows do."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    totals = _term_totals(sf_dir)

    def _fof(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.groupby("n", as_index=False)
            .size()
            .rename(columns={"n": "f", "size": "phi"})
        )

    return (
        bucketed_aggregate(
            totals.map_batches(_fof, batch_format="pandas"),
            ["f"],
            {"phi": ("phi", "sum")},
            num_buckets=4,
        )
        .to_pandas()
        .sort_values("f")
        .reset_index(drop=True)
    )


def vocab_rarefaction_curve(sf_dir: str) -> pd.DataFrame:
    """Hypergeometric rarefaction of the corpus vocabulary: the EXACT
    expected number of distinct terms in a uniform subsample of m
    tokens, E[S_m] = SUM_f phi_f (1 - C(N-f, m)/C(N, m)), at m =
    10%..90% of the corpus — the sampling-theory-correct version of
    the accumulation curve (which depends on document order), and the
    standard way to compare vocabulary richness at equal sample
    sizes. lgamma closed forms over the (f, phi_f) vector; identical
    in the oracle."""
    from math import lgamma

    fof = _freq_of_freq(sf_dir)
    f = fof["f"].to_numpy("int64")
    phi = fof["phi"].to_numpy("int64").astype("float64")
    n = int((f * fof["phi"].to_numpy("int64")).sum())
    rows = []
    for i in range(1, 10):
        m = (i * n) // 10
        acc = 0.0
        for ff, pp in zip(f, phi):
            if n - ff - m < 0:
                acc += pp
            else:
                acc += pp * (
                    1.0
                    - np.exp(
                        lgamma(n - ff + 1) + lgamma(n - m + 1)
                        - lgamma(n + 1) - lgamma(n - ff - m + 1)
                    )
                )
        rows.append({"pct": np.int64(i * 10), "m_tokens": np.int64(m),
                     "expected_distinct": round(acc, 6)})
    out = pd.DataFrame(rows)
    out["pct"] = out["pct"].astype("int64")
    out["m_tokens"] = out["m_tokens"].astype("int64")
    return out


_FOF_SQL = """
WITH tok AS (
  SELECT t.term FROM documents,
         unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS t(term)
),
tt AS (SELECT term, count(*) AS f FROM tok GROUP BY 1),
fof AS (SELECT f, count(*) AS phi FROM tt GROUP BY 1),
nn AS (SELECT sum(f * phi) AS n FROM fof)
"""

VOCAB_RAREFACTION_CURVE_SQL = (
    _FOF_SQL
    + """,
ms AS (
  SELECT i.i * 10 AS pct,
         (i.i * (SELECT n FROM nn)) // 10 AS m
  FROM (SELECT unnest(generate_series(1, 9)) AS i) i
)
SELECT CAST(ms.pct AS BIGINT) AS pct,
       CAST(ms.m AS BIGINT) AS m_tokens,
       round(sum(CASE WHEN (SELECT n FROM nn) - fof.f - ms.m < 0 THEN fof.phi
                 ELSE fof.phi * (1.0 - exp(
                   lgamma((SELECT n FROM nn) - fof.f + 1)
                   + lgamma((SELECT n FROM nn) - ms.m + 1)
                   - lgamma((SELECT n FROM nn) + 1)
                   - lgamma((SELECT n FROM nn) - fof.f - ms.m + 1))) END), 6)
         AS expected_distinct
FROM ms, fof GROUP BY 1, 2 ORDER BY 1
"""
)


def vocab_expected_singletons(sf_dir: str) -> pd.DataFrame:
    """Expected number of SINGLETON terms (exactly one occurrence) in
    a uniform m-token subsample: E[phi_1(m)] = SUM_f phi_f f m
    C(N-f, m-1)/C(N, m) — the Good-Turing trajectory behind
    unseen-mass estimates (its value at m = N is the observed hapax
    count, an identity the query exhibits at pct = 100). Same
    (f, phi_f) reduction and lgamma closed forms."""
    from math import lgamma

    fof = _freq_of_freq(sf_dir)
    f = fof["f"].to_numpy("int64")
    phi = fof["phi"].to_numpy("int64").astype("float64")
    n = int((f * fof["phi"].to_numpy("int64")).sum())
    rows = []
    for pct in (25, 50, 75, 100):
        m = (pct * n) // 100
        acc = 0.0
        for ff, pp in zip(f, phi):
            if n - ff - m + 1 < 0:
                continue
            acc += pp * ff * m * np.exp(
                lgamma(n - ff + 1) + lgamma(n - m + 1)
                - lgamma(n + 1) - lgamma(n - ff - m + 2)
            )
        rows.append({"pct": np.int64(pct), "expected_singletons": round(acc, 6)})
    out = pd.DataFrame(rows)
    out["pct"] = out["pct"].astype("int64")
    return out


VOCAB_EXPECTED_SINGLETONS_SQL = (
    _FOF_SQL
    + """,
ms AS (
  SELECT i.i AS pct, (i.i * (SELECT n FROM nn)) // 100 AS m
  FROM (SELECT unnest([25, 50, 75, 100]) AS i) i
)
SELECT CAST(ms.pct AS BIGINT) AS pct,
       round(sum(CASE WHEN (SELECT n FROM nn) - fof.f - ms.m + 1 < 0 THEN 0.0
                 ELSE fof.phi * fof.f * ms.m * exp(
                   lgamma((SELECT n FROM nn) - fof.f + 1)
                   + lgamma((SELECT n FROM nn) - ms.m + 1)
                   - lgamma((SELECT n FROM nn) + 1)
                   - lgamma((SELECT n FROM nn) - fof.f - ms.m + 2)) END), 6)
         AS expected_singletons
FROM ms, fof GROUP BY 1 ORDER BY 1
"""
)


# ---------------------------------------------------------------------------
# partial AUC and Somers' D of the length->English score
# ---------------------------------------------------------------------------

def _len_en_hist(sf_dir: str) -> pd.DataFrame:
    """Shared (n_chars -> n, n_pos) histogram for the threshold-free
    ranking diagnostics — the same bucketed reduction as the
    confusion family, returned as the full grid."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "documents", columns=["lang", "n_chars"])

    def _grid(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(pos=(df["lang"] == "en").astype("int64")).groupby(
            "n_chars", as_index=False
        ).agg(n=("pos", "size"), n_pos=("pos", "sum"))

    return (
        bucketed_aggregate(
            ds.map_batches(_grid, batch_format="pandas"),
            "n_chars",
            {"n": ("n", "sum"), "n_pos": ("n_pos", "sum")},
            num_buckets=16,
        )
        .to_pandas()
        .sort_values("n_chars")
        .reset_index(drop=True)
    )


def partial_auc_length_english(sf_dir: str, fmax: float = 0.2) -> pd.DataFrame:
    """Partial AUC of the length->English score restricted to the
    low-false-positive region FPR <= 0.2 (the regime screening
    pipelines actually operate in — two models with equal full AUC
    can differ badly here): trapezoid over the descending-threshold
    ROC with exact linear interpolation at the boundary, the
    normalized pAUC/0.2, and the McClish transform 0.5 (1 + (pAUC -
    min)/(max - min)) that maps chance to 0.5. Same histogram
    reduction as the AUC query."""
    g = _len_en_hist(sf_dir).sort_values("n_chars", ascending=False)
    pos = g["n_pos"].to_numpy("int64").astype("float64")
    neg = (g["n"] - g["n_pos"]).to_numpy("int64").astype("float64")
    pt, nt = pos.sum(), neg.sum()
    tpr = np.concatenate([[0.0], np.cumsum(pos) / pt])
    fpr = np.concatenate([[0.0], np.cumsum(neg) / nt])
    pauc = 0.0
    for i in range(1, len(tpr)):
        f0, f1, t0, t1 = fpr[i - 1], fpr[i], tpr[i - 1], tpr[i]
        if f0 >= fmax:
            break
        if f1 <= fmax:
            pauc += (f1 - f0) * (t0 + t1) / 2.0
        else:
            ts = t0 + (t1 - t0) * (fmax - f0) / (f1 - f0)
            pauc += (fmax - f0) * (t0 + ts) / 2.0
            break
    pmin = fmax * fmax / 2.0
    return pd.DataFrame(
        {
            "pauc": [round(pauc, 6)],
            "pauc_normalized": [round(pauc / fmax, 6)],
            "mcclish": [round(0.5 * (1.0 + (pauc - pmin) / (fmax - pmin)), 6)],
        }
    )


_LEN_EN_ROC_SQL = """
WITH g AS (
  SELECT n_chars, count(*) AS n,
         sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END) AS pos
  FROM documents GROUP BY 1
),
tot AS (SELECT sum(pos) * 1.0 AS pt, sum(n - pos) * 1.0 AS nt FROM g),
roc AS (
  SELECT sum(pos) OVER (ORDER BY n_chars DESC) / (SELECT pt FROM tot) AS tpr,
         sum(n - pos) OVER (ORDER BY n_chars DESC) / (SELECT nt FROM tot) AS fpr
  FROM g
),
seg AS (
  SELECT coalesce(lag(fpr) OVER (ORDER BY fpr), 0.0) AS f0, fpr AS f1,
         coalesce(lag(tpr) OVER (ORDER BY fpr), 0.0) AS t0, tpr AS t1
  FROM roc
)
"""

PARTIAL_AUC_LENGTH_ENGLISH_SQL = (
    _LEN_EN_ROC_SQL
    + """,
pa AS (
  SELECT sum(CASE
    WHEN f0 >= 0.2 THEN 0.0
    WHEN f1 <= 0.2 THEN (f1 - f0) * (t0 + t1) / 2.0
    ELSE (0.2 - f0) * (t0 + (t0 + (t1 - t0) * (0.2 - f0) / (f1 - f0))) / 2.0
  END) AS pauc
  FROM seg
)
SELECT round(pauc, 6) AS pauc,
       round(pauc / 0.2, 6) AS pauc_normalized,
       round(0.5 * (1.0 + (pauc - 0.02) / (0.2 - 0.02)), 6) AS mcclish
FROM pa
"""
)


def somers_d_length_english(sf_dir: str) -> pd.DataFrame:
    """Somers' D of document length against the English label, BOTH
    asymmetric directions: D_yx = (C - D)/(n_pos n_neg) (= 2 AUC - 1
    with score ties counted half — the Gini of the ranking) and
    D_xy = (C - D)/(pairs untied on length) — plus Kendall's tau-a.
    Exact pair counts from the histogram's cumulative sums (C =
    SUM pos_v x negs-below, D = SUM pos_v x negs-above); no pair
    enumeration."""
    g = _len_en_hist(sf_dir)
    pos = g["n_pos"].to_numpy("int64")
    neg = (g["n"] - g["n_pos"]).to_numpy("int64")
    c_all = g["n"].to_numpy("int64")
    pt, nt = int(pos.sum()), int(neg.sum())
    n = pt + nt
    cum_neg_below = np.concatenate([[0], np.cumsum(neg)[:-1]])
    cum_neg_above = nt - np.cumsum(neg)
    c = int((pos * cum_neg_below).sum())
    d = int((pos * cum_neg_above).sum())
    pairs = n * (n - 1) // 2
    tied_x = int((c_all * (c_all - 1) // 2).sum())
    return pd.DataFrame(
        {
            "somers_d_yx": [round((c - d) / (pt * nt), 6)],
            "somers_d_xy": [round((c - d) / (pairs - tied_x), 6)],
            "kendall_tau_a": [round((c - d) / pairs, 6)],
        }
    )


SOMERS_D_LENGTH_ENGLISH_SQL = """
WITH g AS (
  SELECT n_chars, count(*) AS n,
         sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END) AS pos
  FROM documents GROUP BY 1
),
cm AS (
  SELECT pos, n - pos AS neg, n,
         sum(n - pos) OVER (ORDER BY n_chars) - (n - pos) AS neg_below,
         (SELECT sum(n - pos) FROM g) - sum(n - pos) OVER (ORDER BY n_chars) AS neg_above
  FROM g
),
s AS (
  SELECT sum(pos * neg_below) AS c, sum(pos * neg_above) AS d,
         (SELECT sum(pos) FROM g) AS pt, (SELECT sum(n - pos) FROM g) AS nt,
         (SELECT sum(n) FROM g) AS nn,
         sum(n * (n - 1) // 2) AS tied_x
  FROM cm
)
SELECT round((c - d) * 1.0 / (pt * nt), 6) AS somers_d_yx,
       round((c - d) * 1.0 / (nn * (nn - 1) // 2 - tied_x), 6) AS somers_d_xy,
       round((c - d) * 1.0 / (nn * (nn - 1) // 2), 6) AS kendall_tau_a
FROM s
"""


# ---------------------------------------------------------------------------
# incidence-based vocabulary richness: Chao2 + ICE over document frequencies
# ---------------------------------------------------------------------------

def _df_incidence_hist(sf_dir: str) -> tuple[pd.DataFrame, int]:
    """Shared (df -> Q_df) incidence frequency-count histogram for the
    Chao2/ICE pair: per-batch per-doc-deduped terms reduce through
    the bucketed vocabulary aggregate (same machinery as tfidf's df
    map), then each vocab bucket collapses to (df_value, n_terms)
    partials — the vocabulary itself never reaches the driver, only
    the result-sized count-of-counts table. Returns (hist, n_docs)."""
    import numpy as np

    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def _doc_terms(t: pa.Table) -> pa.Table:
        terms: list[str] = []
        for s in t["text"].to_pylist():
            terms.extend(set(TOKEN_RE.findall(s.lower())))
        uniq, counts = (
            np.unique(np.asarray(terms, dtype=object), return_counts=True)
            if terms
            else (np.array([], dtype=object), np.array([], dtype=np.int64))
        )
        return pa.Table.from_pydict(
            {"term": pa.array(list(uniq), pa.string()), "df": pa.array(counts, pa.int64())}
        )

    per_term = bucketed_aggregate(
        ds.map_batches(_doc_terms, batch_format="pyarrow"),
        "term",
        {"df": ("df", "sum")},
        num_buckets=16,
    )

    def _foc(df: pd.DataFrame) -> pd.DataFrame:
        u, c = np.unique(df["df"].to_numpy("int64"), return_counts=True)
        return pd.DataFrame({"df": u, "q": c})

    hist = (
        per_term.map_batches(_foc, batch_format="pandas")
        .to_pandas()
        .groupby("df", as_index=False)["q"]
        .sum()
        .sort_values("df")
        .reset_index(drop=True)
    )
    n_docs = int(_read(sf_dir, "documents", columns=["doc_id"]).count())
    return hist, n_docs


def chao2_vocab_richness(sf_dir: str) -> pd.DataFrame:
    """Chao2 incidence-based richness estimate of the corpus
    vocabulary: terms are species, DOCUMENTS are the sampling units,
    Q_k = #terms appearing in exactly k docs. The bias-corrected
    estimator S = S_obs + ((m-1)/m) Q1(Q1-1)/(2(Q2+1)) — defined even
    when no doubletons exist — is the incidence twin of the
    abundance-based Chao1 already in the suite (presence/absence
    across docs instead of token counts, the right frame when a term
    pasted 100x in one doc should count once). Vocabulary stays
    distributed; the driver sees the count-of-counts table."""
    hist, m = _df_incidence_hist(sf_dir)
    s_obs = int(hist["q"].sum())
    q1 = int(hist.loc[hist["df"] == 1, "q"].sum())
    q2 = int(hist.loc[hist["df"] == 2, "q"].sum())
    chao2 = s_obs + (m - 1.0) / m * q1 * (q1 - 1.0) / (2.0 * (q2 + 1.0))
    return pd.DataFrame(
        {
            "n_docs": pd.Series([m], dtype="int64"),
            "s_obs": pd.Series([s_obs], dtype="int64"),
            "q1": pd.Series([q1], dtype="int64"),
            "q2": pd.Series([q2], dtype="int64"),
            "chao2_bc": [round(chao2, 4)],
        }
    )


_DF_HIST_SQL = r"""
WITH dt AS (
  SELECT DISTINCT doc_id, t.term
  FROM documents, unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS t(term)
),
dfreq AS (SELECT term, count(*) AS df FROM dt GROUP BY term),
hist AS (SELECT df, count(*) AS q FROM dfreq GROUP BY df),
m AS (SELECT count(*) * 1.0 AS m FROM documents)
"""

CHAO2_VOCAB_RICHNESS_SQL = (
    _DF_HIST_SQL
    + """
SELECT CAST((SELECT m FROM m) AS BIGINT) AS n_docs,
       CAST(sum(q) AS BIGINT) AS s_obs,
       CAST(coalesce(sum(CASE WHEN df = 1 THEN q END), 0) AS BIGINT) AS q1,
       CAST(coalesce(sum(CASE WHEN df = 2 THEN q END), 0) AS BIGINT) AS q2,
       round(sum(q)
             + ((SELECT m FROM m) - 1.0) / (SELECT m FROM m)
               * coalesce(sum(CASE WHEN df = 1 THEN q END), 0)
               * (coalesce(sum(CASE WHEN df = 1 THEN q END), 0) - 1.0)
               / (2.0 * (coalesce(sum(CASE WHEN df = 2 THEN q END), 0) + 1.0)), 4)
         AS chao2_bc
FROM hist
"""
)


def ice_vocab_richness(sf_dir: str, rare_cutoff: int = 10) -> pd.DataFrame:
    """ICE (incidence-based coverage estimator) of the same
    vocabulary: split terms at df <= 10 (infrequent) vs frequent,
    estimate sample coverage C = 1 - Q1/n_inf from the infrequent
    incidences, inflate S_inf/C, and add the CV correction
    gamma^2 = max(0, (S_inf/C)(m/(m-1)) SUM k(k-1)Q_k / n_inf^2 - 1)
    (m = total docs — the simple-ICE convention, applied identically
    in both engines). The coverage-based companion Chao2's
    rare-tail-only extrapolation lacks. Same shared histogram."""
    hist, m = _df_incidence_hist(sf_dir)
    k = hist["df"].to_numpy("int64")
    q = hist["q"].to_numpy("int64")
    inf = k <= rare_cutoff
    s_inf = int(q[inf].sum())
    s_freq = int(q[~inf].sum())
    n_inf = int((k[inf] * q[inf]).sum())
    q1 = int(q[k == 1].sum())
    if n_inf == 0:
        # no infrequent terms at all: coverage is complete by definition
        c, gamma2, ice = 1.0, 0.0, float(s_freq)
    else:
        c = 1.0 - q1 / n_inf
        skk = float((k[inf] * (k[inf] - 1.0) * q[inf]).sum())
        gamma2 = max(
            (s_inf / c) * (m / (m - 1.0)) * skk / (n_inf * 1.0 * n_inf) - 1.0, 0.0
        )
        ice = s_freq + s_inf / c + q1 / c * gamma2
    return pd.DataFrame(
        {
            "s_freq": pd.Series([s_freq], dtype="int64"),
            "s_infreq": pd.Series([s_inf], dtype="int64"),
            "coverage_c": [round(c, 6)],
            "gamma2": [round(gamma2, 6)],
            "ice": [round(ice, 4)],
        }
    )


ICE_VOCAB_RICHNESS_SQL = (
    _DF_HIST_SQL
    + """,
agg AS (
  SELECT sum(CASE WHEN df <= 10 THEN q ELSE 0 END) * 1.0 AS s_inf,
         sum(CASE WHEN df > 10 THEN q ELSE 0 END) * 1.0 AS s_freq,
         sum(CASE WHEN df <= 10 THEN df * q ELSE 0 END) * 1.0 AS n_inf,
         sum(CASE WHEN df = 1 THEN q ELSE 0 END) * 1.0 AS q1,
         sum(CASE WHEN df <= 10 THEN df * (df - 1.0) * q ELSE 0 END) AS skk
  FROM hist
),
f AS (
  SELECT s_inf, s_freq, n_inf, q1,
         CASE WHEN n_inf = 0 THEN 1.0 ELSE 1.0 - q1 / n_inf END AS c,
         CASE WHEN n_inf = 0 THEN 0.0
              ELSE greatest((s_inf / (1.0 - q1 / n_inf))
                            * ((SELECT m FROM m) / ((SELECT m FROM m) - 1.0))
                            * skk / (n_inf * n_inf) - 1.0, 0.0) END AS gamma2
  FROM agg
)
SELECT CAST(s_freq AS BIGINT) AS s_freq,
       CAST(s_inf AS BIGINT) AS s_infreq,
       round(c, 6) AS coverage_c,
       round(gamma2, 6) AS gamma2,
       round(CASE WHEN n_inf = 0 THEN s_freq
                  ELSE s_freq + s_inf / c + q1 / c * gamma2 END, 4) AS ice
FROM f
"""
)


# ---------------------------------------------------------------------------
# AUC uncertainty: DeLong variance + Hanley-McNeil approximation
# ---------------------------------------------------------------------------

def _roc_value_hist(sf_dir: str) -> pd.DataFrame:
    """Shared exact (n_chars -> count, positives) value histogram for
    the AUC-uncertainty pair — the same collapse the AUC/pAUC family
    uses: the score domain is result-sized, so placements and their
    variances are exact cumulative-sum algebra on the driver."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "documents", columns=["n_chars", "lang"])

    def _hist(df: pd.DataFrame) -> pd.DataFrame:
        return (
            pd.DataFrame(
                {
                    "x": df["n_chars"].to_numpy("int64"),
                    "c": np.int64(1),
                    "ca": (df["lang"] == "en").to_numpy().astype("int64"),
                }
            )
            .groupby("x", as_index=False)
            .sum()
        )

    return (
        bucketed_aggregate(
            ds.map_batches(_hist, batch_format="pandas"),
            ["x"],
            {"c": ("c", "sum"), "ca": ("ca", "sum")},
            num_buckets=8,
        )
        .to_pandas()
        .sort_values("x")
        .reset_index(drop=True)
    )


def _delong_terms(sf_dir: str):
    h = _roc_value_hist(sf_dir)
    cpos = h["ca"].to_numpy("int64").astype("float64")
    cneg = (h["c"] - h["ca"]).to_numpy("int64").astype("float64")
    np_, nn = cpos.sum(), cneg.sum()
    cum_neg_before = np.concatenate([[0.0], np.cumsum(cneg)[:-1]])
    cum_pos_before = np.concatenate([[0.0], np.cumsum(cpos)[:-1]])
    v10 = (cum_neg_before + 0.5 * cneg) / nn          # placement of each positive at x
    v01 = 1.0 - (cum_pos_before + 0.5 * cpos) / np_   # placement of each negative at x
    auc = float((cpos * v10).sum() / np_)
    s10 = float((cpos * (v10 - auc) ** 2).sum() / (np_ - 1.0))
    s01 = float((cneg * (v01 - auc) ** 2).sum() / (nn - 1.0))
    var = s10 / np_ + s01 / nn
    return np_, nn, auc, var


def delong_auc_ci_length_english(sf_dir: str) -> pd.DataFrame:
    """DeLong nonparametric variance of the length->English AUC: the
    placement-value decomposition Var = S10/n_pos + S01/n_neg (each
    positive's placement = fraction of negatives it outranks, tie =
    1/2), collapsed exactly onto the score-value histogram since
    placements are constant within a value cell — the distribution-
    free CI every reported AUC should carry, with the Wald 95%
    bounds. Shared histogram with the Hanley-McNeil companion."""
    np_, nn, auc, var = _delong_terms(sf_dir)
    se = float(np.sqrt(var))
    return pd.DataFrame(
        {
            "n_pos": pd.Series([int(np_)], dtype="int64"),
            "n_neg": pd.Series([int(nn)], dtype="int64"),
            "auc": [round(auc, 6)],
            "se_delong": [round(se, 6)],
            "ci_lo": [round(auc - 1.96 * se, 6)],
            "ci_hi": [round(auc + 1.96 * se, 6)],
        }
    )


_DELONG_BASE_SQL = """
WITH v AS (
  SELECT n_chars AS x, count(*) * 1.0 AS c,
         count(CASE WHEN lang = 'en' THEN 1 END) * 1.0 AS ca
  FROM documents GROUP BY x
),
r AS (
  SELECT x, c, ca, c - ca AS cb,
         sum(c - ca) OVER (ORDER BY x) - (c - ca) AS negb,
         sum(ca) OVER (ORDER BY x) - ca AS posb
  FROM v
),
t AS (SELECT sum(ca) AS np, sum(c - ca) AS nn FROM v),
pl AS (
  SELECT ca, cb,
         (negb + 0.5 * cb) / (SELECT nn FROM t) AS v10,
         1.0 - (posb + 0.5 * ca) / (SELECT np FROM t) AS v01
  FROM r
),
a AS (SELECT sum(ca * v10) / (SELECT np FROM t) AS auc FROM pl),
s AS (
  SELECT sum(ca * (v10 - (SELECT auc FROM a)) * (v10 - (SELECT auc FROM a)))
           / ((SELECT np FROM t) - 1.0) AS s10,
         sum(cb * (v01 - (SELECT auc FROM a)) * (v01 - (SELECT auc FROM a)))
           / ((SELECT nn FROM t) - 1.0) AS s01
  FROM pl
)
"""

DELONG_AUC_CI_LENGTH_ENGLISH_SQL = (
    _DELONG_BASE_SQL
    + """
SELECT CAST((SELECT np FROM t) AS BIGINT) AS n_pos,
       CAST((SELECT nn FROM t) AS BIGINT) AS n_neg,
       round((SELECT auc FROM a), 6) AS auc,
       round(sqrt(s10 / (SELECT np FROM t) + s01 / (SELECT nn FROM t)), 6)
         AS se_delong,
       round((SELECT auc FROM a)
             - 1.96 * sqrt(s10 / (SELECT np FROM t) + s01 / (SELECT nn FROM t)), 6)
         AS ci_lo,
       round((SELECT auc FROM a)
             + 1.96 * sqrt(s10 / (SELECT np FROM t) + s01 / (SELECT nn FROM t)), 6)
         AS ci_hi
FROM s
"""
)


def hanley_mcneil_se_length_english(sf_dir: str) -> pd.DataFrame:
    """Hanley-McNeil (1982) parametric SE of the same AUC — the
    bi-exponential approximation Q1 = A/(2-A), Q2 = 2A^2/(1+A),
    SE^2 = (A(1-A) + (np-1)(Q1-A^2) + (nn-1)(Q2-A^2))/(np nn) — beside
    its exact DeLong replacement: the ratio tells you how much the
    textbook shortcut mis-sizes this data's CI (it assumes a specific
    score shape; DeLong assumes nothing). Shared placement terms."""
    np_, nn, auc, var = _delong_terms(sf_dir)
    q1 = auc / (2.0 - auc)
    q2 = 2.0 * auc * auc / (1.0 + auc)
    se_hm = float(
        np.sqrt(
            (auc * (1 - auc) + (np_ - 1) * (q1 - auc * auc) + (nn - 1) * (q2 - auc * auc))
            / (np_ * nn)
        )
    )
    return pd.DataFrame(
        {
            "auc": [round(auc, 6)],
            "se_hanley_mcneil": [round(se_hm, 6)],
            "se_ratio_hm_over_delong": [round(se_hm / float(np.sqrt(var)), 6)],
        }
    )


HANLEY_MCNEIL_SE_LENGTH_ENGLISH_SQL = (
    _DELONG_BASE_SQL
    + """,
hm AS (
  SELECT (SELECT auc FROM a) AS auc,
         sqrt(((SELECT auc FROM a) * (1 - (SELECT auc FROM a))
               + ((SELECT np FROM t) - 1)
                 * ((SELECT auc FROM a) / (2.0 - (SELECT auc FROM a))
                    - (SELECT auc FROM a) * (SELECT auc FROM a))
               + ((SELECT nn FROM t) - 1)
                 * (2.0 * (SELECT auc FROM a) * (SELECT auc FROM a)
                      / (1.0 + (SELECT auc FROM a))
                    - (SELECT auc FROM a) * (SELECT auc FROM a)))
              / ((SELECT np FROM t) * (SELECT nn FROM t))) AS se_hm,
         sqrt(s10 / (SELECT np FROM t) + s01 / (SELECT nn FROM t)) AS se_dl
  FROM s
)
SELECT round(auc, 6) AS auc,
       round(se_hm, 6) AS se_hanley_mcneil,
       round(se_hm / se_dl, 6) AS se_ratio_hm_over_delong
FROM hm
"""
)


# ---------------------------------------------------------------------------
# reliability bounds: Guttman lambda2 + Spearman-Brown prophecy
# ---------------------------------------------------------------------------

def _labeler_cov_terms(sf_dir: str, len_cut: int = 800):
    """Shared exact integer moment pass for the reliability pair: the
    three weak binary labelers (English / long / mentions-'data')
    with ALL pairwise product sums, so the full 3x3 item covariance
    matrix is closed-form on the driver. Same labeler definitions as
    the kappa/alpha family."""
    ds = _read(sf_dir, "documents", columns=["lang", "n_chars", "text"])

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        a = (df["lang"] == "en").to_numpy("int64")
        b = (df["n_chars"] > len_cut).to_numpy("int64")
        c = df["text"].str.contains("data", regex=False).to_numpy("int64")
        return pd.DataFrame(
            {
                "n": [np.int64(len(df))],
                "sa": [np.int64(a.sum())],
                "sb": [np.int64(b.sum())],
                "sc": [np.int64(c.sum())],
                "sab": [np.int64((a * b).sum())],
                "sac": [np.int64((a * c).sum())],
                "sbc": [np.int64((b * c).sum())],
            }
        )

    s = ds.map_batches(_partial, batch_format="pandas").to_pandas().sum()
    n = int(s["n"])

    def var(sx):
        return (sx - sx * 1.0 * sx / n) / (n - 1.0)

    def cov(sxy, sx, sy):
        return (sxy - sx * 1.0 * sy / n) / (n - 1.0)

    sa, sb, sc = int(s["sa"]), int(s["sb"]), int(s["sc"])
    v = [var(sa), var(sb), var(sc)]
    c01 = cov(int(s["sab"]), sa, sb)
    c02 = cov(int(s["sac"]), sa, sc)
    c12 = cov(int(s["sbc"]), sb, sc)
    return n, v, (c01, c02, c12)


def guttman_lambda2_labelers(sf_dir: str) -> pd.DataFrame:
    """Guttman's lower bounds to the reliability of the 3-labeler
    scale: lambda1 = 1 - SUM var_i / V_t, lambda3 = Cronbach's alpha,
    and lambda2 = lambda1 + sqrt(k/(k-1) SUM_(i!=j) c_ij^2)/V_t —
    always >= alpha, strictly better when item covariances are
    unequal (exactly this data: three heterogeneous weak labelers),
    so reporting alpha alone understates reliability. Closed forms of
    the shared 3x3 covariance pass."""
    n, v, (c01, c02, c12) = _labeler_cov_terms(sf_dir)
    sum_var = sum(v)
    sum_cov2 = 2.0 * (c01 + c02 + c12)
    vt = sum_var + sum_cov2
    lam1 = 1.0 - sum_var / vt
    ssq = 2.0 * (c01 * c01 + c02 * c02 + c12 * c12)
    lam2 = lam1 + np.sqrt(1.5 * ssq) / vt
    alpha = 1.5 * (1.0 - sum_var / vt)
    return pd.DataFrame(
        {
            "n": pd.Series([n], dtype="int64"),
            "lambda1": [round(lam1, 6)],
            "alpha_lambda3": [round(alpha, 6)],
            "lambda2": [round(float(lam2), 6)],
        }
    )


_LABELER_COV_SQL = """
WITH l AS (
  SELECT CASE WHEN lang = 'en' THEN 1 ELSE 0 END AS a,
         CASE WHEN n_chars > 800 THEN 1 ELSE 0 END AS b,
         CASE WHEN text LIKE '%data%' THEN 1 ELSE 0 END AS c
  FROM documents
),
s AS (
  SELECT count(*) * 1.0 AS n, sum(a) * 1.0 AS sa, sum(b) * 1.0 AS sb,
         sum(c) * 1.0 AS sc, sum(a * b) * 1.0 AS sab,
         sum(a * c) * 1.0 AS sac, sum(b * c) * 1.0 AS sbc
  FROM l
),
cv AS (
  SELECT n,
         (sa - sa * sa / n) / (n - 1.0) AS v0,
         (sb - sb * sb / n) / (n - 1.0) AS v1,
         (sc - sc * sc / n) / (n - 1.0) AS v2,
         (sab - sa * sb / n) / (n - 1.0) AS c01,
         (sac - sa * sc / n) / (n - 1.0) AS c02,
         (sbc - sb * sc / n) / (n - 1.0) AS c12
  FROM s
)
"""

GUTTMAN_LAMBDA2_LABELERS_SQL = (
    _LABELER_COV_SQL
    + """
SELECT CAST(n AS BIGINT) AS n,
       round(1.0 - (v0 + v1 + v2) / (v0 + v1 + v2 + 2.0 * (c01 + c02 + c12)), 6)
         AS lambda1,
       round(1.5 * (1.0 - (v0 + v1 + v2)
                    / (v0 + v1 + v2 + 2.0 * (c01 + c02 + c12))), 6)
         AS alpha_lambda3,
       round(1.0 - (v0 + v1 + v2) / (v0 + v1 + v2 + 2.0 * (c01 + c02 + c12))
             + sqrt(1.5 * 2.0 * (c01 * c01 + c02 * c02 + c12 * c12))
               / (v0 + v1 + v2 + 2.0 * (c01 + c02 + c12)), 6) AS lambda2
FROM cv
"""
)


def spearman_brown_labelers(sf_dir: str) -> pd.DataFrame:
    """Spearman-Brown prophecy for the labeler panel: the average
    inter-item correlation rbar, the standardized alpha
    k rbar/(1+(k-1)rbar), the predicted reliability if the panel
    DOUBLED to six labelers (2a/(1+a) applied to raw alpha), and the
    implied panel size to reach 0.9 reliability n* = k x
    0.9(1-a)/(a x 0.1) — the 'how many more annotators do we need'
    planning readout every labeling budget meeting asks for. Shared
    covariance pass."""
    n, v, (c01, c02, c12) = _labeler_cov_terms(sf_dir)

    def _r(c, va, vb):
        # a constant labeler carries no covariation information
        return c / np.sqrt(va * vb) if va > 0 and vb > 0 else 0.0

    r01 = _r(c01, v[0], v[1])
    r02 = _r(c02, v[0], v[2])
    r12 = _r(c12, v[1], v[2])
    rbar = float((r01 + r02 + r12) / 3.0)
    alpha_std = 3.0 * rbar / (1.0 + 2.0 * rbar)
    vt = sum(v) + 2.0 * (c01 + c02 + c12)
    alpha = 1.5 * (1.0 - sum(v) / vt)
    dbl = 2.0 * alpha / (1.0 + alpha)
    n_star = 3.0 * 0.9 * (1.0 - alpha) / (alpha * 0.1)
    return pd.DataFrame(
        {
            "rbar": [round(rbar, 6)],
            "alpha_standardized": [round(float(alpha_std), 6)],
            "reliability_doubled": [round(float(dbl), 6)],
            "n_items_for_090": [round(float(n_star), 4)],
        }
    )


SPEARMAN_BROWN_LABELERS_SQL = (
    _LABELER_COV_SQL
    + """,
r AS (
  SELECT (CASE WHEN v0 * v1 > 0 THEN c01 / sqrt(v0 * v1) ELSE 0.0 END
          + CASE WHEN v0 * v2 > 0 THEN c02 / sqrt(v0 * v2) ELSE 0.0 END
          + CASE WHEN v1 * v2 > 0 THEN c12 / sqrt(v1 * v2) ELSE 0.0 END)
           / 3.0 AS rbar,
         1.5 * (1.0 - (v0 + v1 + v2)
                / (v0 + v1 + v2 + 2.0 * (c01 + c02 + c12))) AS alpha
  FROM cv
)
SELECT round(rbar, 6) AS rbar,
       round(3.0 * rbar / (1.0 + 2.0 * rbar), 6) AS alpha_standardized,
       round(2.0 * alpha / (1.0 + alpha), 6) AS reliability_doubled,
       round(3.0 * 0.9 * (1.0 - alpha) / (alpha * 0.1), 4) AS n_items_for_090
FROM r
"""
)


# ---------------------------------------------------------------------------
# forecast verification: Murphy decomposition + linear calibration slope
# ---------------------------------------------------------------------------

def _calibration_grid(sf_dir: str, bucket_chars: int = 200) -> pd.DataFrame:
    """Shared (length-bucket) grid for the forecast-verification
    pair, same leakage discipline as the Brier query: TRAIN = even
    doc_id learns per-bucket English rates (the forecast), TEST =
    odd doc_id supplies outcomes. Exact integer (n, n_en) counts per
    (bucket, split); buckets unseen in training fall back to the
    global train rate."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "documents", columns=["doc_id", "lang", "n_chars"])

    def _grid(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "b": (df["n_chars"] // bucket_chars).astype("int64"),
                "split": (df["doc_id"].to_numpy("int64") % 2),
                "n": np.int64(1),
                "en": (df["lang"] == "en").astype("int64"),
            }
        )
        return out.groupby(["b", "split"], as_index=False).sum()

    g = (
        bucketed_aggregate(
            ds.map_batches(_grid, batch_format="pandas"),
            ["b", "split"],
            {"n": ("n", "sum"), "en": ("en", "sum")},
            num_buckets=8,
        )
        .to_pandas()
        .groupby(["b", "split"], as_index=False)
        .sum()
    )
    tr = g[g["split"] == 0].set_index("b")
    te = g[g["split"] == 1].set_index("b")
    glob = float(tr["en"].sum()) / float(tr["n"].sum())
    out = pd.DataFrame(
        {
            "b": te.index,
            "n": te["n"].to_numpy("int64"),
            "en": te["en"].to_numpy("int64"),
        }
    )
    f = []
    for b in out["b"]:
        if b in tr.index and int(tr.loc[b, "n"]) > 0:
            f.append(float(tr.loc[b, "en"]) / float(tr.loc[b, "n"]))
        else:
            f.append(glob)
    out["f"] = f
    return out.reset_index(drop=True)


def murphy_brier_decomposition(sf_dir: str) -> pd.DataFrame:
    """Murphy's three-part decomposition of the test-set Brier score
    of the length-bucket English forecaster: BS = REL - RES + UNC
    EXACTLY when forecasts are constant within bins (they are, by
    construction) — reliability (calibration error to drive down),
    resolution (discrimination to drive up), uncertainty (the
    outcome's own variance, the no-skill floor). Identity residual
    reported at 1e-10; one shared (bucket, split) integer grid."""
    g = _calibration_grid(sf_dir)
    n = g["n"].to_numpy("int64").astype("float64")
    en = g["en"].to_numpy("int64").astype("float64")
    f = g["f"].to_numpy("float64")
    nn = n.sum()
    obar_b = en / n
    obar = en.sum() / nn
    brier = float((n * f * f - 2.0 * f * en + en).sum()) / nn
    rel = float((n * (f - obar_b) ** 2).sum()) / nn
    res = float((n * (obar_b - obar) ** 2).sum()) / nn
    unc = obar * (1.0 - obar)
    return pd.DataFrame(
        {
            "n_test": pd.Series([int(nn)], dtype="int64"),
            "brier": [round(brier, 6)],
            "reliability": [round(rel, 6)],
            "resolution": [round(res, 6)],
            "uncertainty": [round(unc, 6)],
            "identity_residual": [round(brier - (rel - res + unc), 10)],
        }
    )


_CALIB_GRID_SQL = """
WITH d AS (
  SELECT n_chars // 200 AS b, doc_id % 2 AS split,
         CASE WHEN lang = 'en' THEN 1 ELSE 0 END AS en
  FROM documents
),
g AS (
  SELECT b, split, count(*) * 1.0 AS n, sum(en) * 1.0 AS en
  FROM d GROUP BY 1, 2
),
gl AS (
  SELECT sum(en) / sum(n) AS p FROM g WHERE split = 0
),
te AS (
  SELECT t.b, t.n, t.en,
         coalesce(tr.en / nullif(tr.n, 0), (SELECT p FROM gl)) AS f
  FROM (SELECT * FROM g WHERE split = 1) t
  LEFT JOIN (SELECT * FROM g WHERE split = 0) tr USING (b)
),
tot AS (SELECT sum(n) AS nn, sum(en) / sum(n) AS obar FROM te)
"""

MURPHY_BRIER_DECOMPOSITION_SQL = (
    _CALIB_GRID_SQL
    + """,
m AS (
  SELECT sum(n * f * f - 2.0 * f * en + en) / (SELECT nn FROM tot) AS brier,
         sum(n * (f - en / n) * (f - en / n)) / (SELECT nn FROM tot) AS rel,
         sum(n * (en / n - (SELECT obar FROM tot))
             * (en / n - (SELECT obar FROM tot))) / (SELECT nn FROM tot) AS res,
         (SELECT obar * (1.0 - obar) FROM tot) AS unc
  FROM te
)
SELECT CAST((SELECT nn FROM tot) AS BIGINT) AS n_test,
       round(brier, 6) AS brier,
       round(rel, 6) AS reliability,
       round(res, 6) AS resolution,
       round(unc, 6) AS uncertainty,
       round(brier - (rel - res + unc), 10) AS identity_residual
FROM m
"""
)


def calibration_slope_length_english(sf_dir: str) -> pd.DataFrame:
    """Weak-calibration diagnostics of the same forecaster on the
    same held-out split: calibration-in-the-large (mean outcome minus
    mean forecast — systematic over/under-confidence), and the linear
    calibration slope cov(o, f)/var(f) with its intercept — the
    Cox-style recalibration line whose ideal is (0, 1): slope < 1
    means forecasts are too extreme, > 1 too timid. Closed forms of
    the shared grid (forecasts are constant within buckets)."""
    g = _calibration_grid(sf_dir)
    n = g["n"].to_numpy("int64").astype("float64")
    en = g["en"].to_numpy("int64").astype("float64")
    f = g["f"].to_numpy("float64")
    nn = n.sum()
    fbar = float((n * f).sum()) / nn
    obar = en.sum() / nn
    cov = float((f * en).sum()) / nn - fbar * obar
    var_f = float((n * f * f).sum()) / nn - fbar * fbar
    slope = cov / var_f
    return pd.DataFrame(
        {
            "n_test": pd.Series([int(nn)], dtype="int64"),
            "cal_in_large": [round(obar - fbar, 6)],
            "cal_slope": [round(slope, 6)],
            "cal_intercept": [round(obar - slope * fbar, 6)],
        }
    )


CALIBRATION_SLOPE_LENGTH_ENGLISH_SQL = (
    _CALIB_GRID_SQL
    + """,
s AS (
  SELECT sum(n * f) / (SELECT nn FROM tot) AS fbar,
         (SELECT obar FROM tot) AS obar,
         sum(f * en) / (SELECT nn FROM tot) AS sfo,
         sum(n * f * f) / (SELECT nn FROM tot) AS sff
  FROM te
)
SELECT CAST((SELECT nn FROM tot) AS BIGINT) AS n_test,
       round(obar - fbar, 6) AS cal_in_large,
       round((sfo - fbar * obar) / (sff - fbar * fbar), 6) AS cal_slope,
       round(obar - (sfo - fbar * obar) / (sff - fbar * fbar) * fbar, 6)
         AS cal_intercept
FROM s
"""
)


# ---------------------------------------------------------------------------
# operating-point selection: cost-optimal thresholds + precision targeting
# ---------------------------------------------------------------------------

def _threshold_table(sf_dir: str):
    """Shared per-threshold confusion table for the operating-point
    pair: thresholds = every distinct n_chars value plus a
    predict-nothing sentinel (max+1); predict English when
    n_chars >= t, so TP/FP at t are suffix sums over the shared
    value histogram and FN/TN are their complements. Exact
    integers."""
    h = _roc_value_hist(sf_dir)
    x = h["x"].to_numpy("int64")
    cpos = h["ca"].to_numpy("int64")
    cneg = (h["c"] - h["ca"]).to_numpy("int64")
    np_, nn = int(cpos.sum()), int(cneg.sum())
    thr = np.concatenate([x, [x[-1] + 1]])
    tp = np.concatenate([cpos[::-1].cumsum()[::-1], [0]])
    fp = np.concatenate([cneg[::-1].cumsum()[::-1], [0]])
    return thr, tp, fp, np_, nn


def cost_optimal_thresholds_length_english(sf_dir: str) -> pd.DataFrame:
    """Cost-sensitive operating points of the length->English rule:
    for each misclassification cost ratio (c_fp, c_fn) in (1,10),
    (1,2), (1,1), (2,1), (10,1), the threshold minimizing the
    normalized expected cost (c_fp FP + c_fn FN)/n over ALL
    candidate thresholds including predict-nothing — the sweep that
    turns one ROC into five deployable rules (asymmetric costs move
    the cut, which is the whole point of cost curves). Smallest
    threshold among minima; exact integer confusion cells from the
    shared suffix-sum table."""
    thr, tp, fp, np_, nn = _threshold_table(sf_dir)
    n = np_ + nn
    rows = []
    for cf, cn_ in ((1, 10), (1, 2), (1, 1), (2, 1), (10, 1)):
        cost = (cf * fp + cn_ * (np_ - tp)) / n
        i = int(np.argmin(cost))  # first minimum = smallest threshold
        rows.append(
            {
                "cost_fp": np.int64(cf),
                "cost_fn": np.int64(cn_),
                "threshold": np.int64(thr[i]),
                "norm_cost": round(float(cost[i]), 6),
            }
        )
    out = pd.DataFrame(rows)
    for c in ("cost_fp", "cost_fn", "threshold"):
        out[c] = out[c].astype("int64")
    return out


_THRESH_TABLE_SQL = """
WITH v AS (
  SELECT n_chars AS x, count(*) AS c,
         count(CASE WHEN lang = 'en' THEN 1 END) AS ca
  FROM documents GROUP BY x
),
t AS (SELECT sum(ca) * 1.0 AS np, sum(c - ca) * 1.0 AS nn FROM v),
thr AS (
  SELECT x AS t FROM v
  UNION ALL SELECT max(x) + 1 FROM v
),
conf AS (
  SELECT thr.t,
         coalesce((SELECT sum(ca) FROM v WHERE v.x >= thr.t), 0) * 1.0 AS tp,
         coalesce((SELECT sum(c - ca) FROM v WHERE v.x >= thr.t), 0) * 1.0 AS fp
  FROM thr
)
"""

COST_OPTIMAL_THRESHOLDS_LENGTH_ENGLISH_SQL = (
    _THRESH_TABLE_SQL
    + """,
costs AS (
  SELECT * FROM (VALUES (1, 10), (1, 2), (1, 1), (2, 1), (10, 1))
    AS c(cost_fp, cost_fn)
),
scored AS (
  SELECT costs.cost_fp, costs.cost_fn, conf.t,
         (costs.cost_fp * conf.fp
          + costs.cost_fn * ((SELECT np FROM t) - conf.tp))
           / ((SELECT np + nn FROM t)) AS nc,
         row_number() OVER (PARTITION BY costs.cost_fp, costs.cost_fn
                            ORDER BY (costs.cost_fp * conf.fp
                                      + costs.cost_fn * ((SELECT np FROM t) - conf.tp)),
                                     conf.t) AS rk
  FROM costs CROSS JOIN conf
)
SELECT CAST(cost_fp AS BIGINT) AS cost_fp,
       CAST(cost_fn AS BIGINT) AS cost_fn,
       CAST(t AS BIGINT) AS threshold,
       round(nc, 6) AS norm_cost
FROM scored WHERE rk = 1 ORDER BY cost_fp, cost_fn
"""
)


def precision_target_threshold_length_english(
    sf_dir: str, target: float = 0.9
) -> pd.DataFrame:
    """Precision-targeted deployment threshold: the SMALLEST length
    cut whose precision TP/(TP+FP) reaches 0.9 (maximizing recall
    subject to the precision floor — the standard quality-gate
    contract), with its achieved precision and recall; if no
    threshold reaches the target, fall back to the highest-precision
    point (ties -> smallest threshold) and report attained = 0.
    Same shared suffix-sum table."""
    thr, tp, fp, np_, _ = _threshold_table(sf_dir)
    denom = tp + fp
    valid = denom > 0
    prec = np.where(valid, tp / np.maximum(denom, 1), -1.0)
    ok = valid & (prec >= target)
    if ok.any():
        i = int(np.flatnonzero(ok)[0])
        attained = 1
    else:
        i = int(np.argmax(prec))
        attained = 0
    return pd.DataFrame(
        {
            "threshold": pd.Series([int(thr[i])], dtype="int64"),
            "precision": [round(float(prec[i]), 6)],
            "recall": [round(float(tp[i] / np_), 6)],
            "target_attained": pd.Series([attained], dtype="int64"),
        }
    )


PRECISION_TARGET_THRESHOLD_LENGTH_ENGLISH_SQL = (
    _THRESH_TABLE_SQL
    + """,
pr AS (
  SELECT t, tp, fp, tp / (tp + fp) AS prec
  FROM conf WHERE tp + fp > 0
),
hit AS (SELECT * FROM pr WHERE prec >= 0.9 ORDER BY t LIMIT 1),
fallback AS (SELECT * FROM pr ORDER BY prec DESC, t LIMIT 1),
pick AS (
  SELECT *, 1 AS attained FROM hit
  UNION ALL
  SELECT *, 0 AS attained FROM fallback
  WHERE NOT EXISTS (SELECT 1 FROM hit)
)
SELECT CAST(t AS BIGINT) AS threshold,
       round(prec, 6) AS precision,
       round(tp / (SELECT np FROM t), 6) AS recall,
       CAST(attained AS BIGINT) AS target_attained
FROM pick
"""
)


# ---------------------------------------------------------------------------
# classical item analysis + McDonald's omega for the labeler panel
# ---------------------------------------------------------------------------

def item_analysis_labelers(sf_dir: str) -> pd.DataFrame:
    """Classical test-theory item analysis of the three weak
    labelers: per item its variance, the CORRECTED item-rest
    correlation r(x_i, sum of the others) — the standard 'does this
    annotator track the same trait' screen (corrected because
    item-TOTAL correlation counts the item against itself) — and
    alpha-if-deleted (for k=3 the 2-item alpha of the remainder):
    an item whose deletion RAISES alpha is actively hurting the
    panel. Closed forms of the shared exact 3x3 covariance pass."""
    n, v, (c01, c02, c12) = _labeler_cov_terms(sf_dir)
    names = ["english", "long", "mentions_data"]
    covs = {
        0: (c01, c02, c12),  # cov(i,j), cov(i,k), cov(j,k) for rest {j,k}
        1: (c01, c12, c02),
        2: (c02, c12, c01),
    }
    rest = {0: (1, 2), 1: (0, 2), 2: (0, 1)}
    rows = []
    for i in range(3):
        cij, cik, cjk = covs[i]
        j, k = rest[i]
        var_rest = v[j] + v[k] + 2.0 * cjk
        # zero-variance convention:
        # a constant labeler carries no covariation information -> r = 0
        if v[i] == 0.0 or var_rest == 0.0:
            r_ir = 0.0
        else:
            r_ir = (cij + cik) / float(np.sqrt(v[i] * var_rest))
        alpha_del = 0.0 if var_rest == 0.0 else 2.0 * (1.0 - (v[j] + v[k]) / var_rest)
        rows.append(
            {
                "item": names[i],
                "variance": round(v[i], 6),
                "item_rest_corr": round(r_ir, 6),
                "alpha_if_deleted": round(alpha_del, 6),
            }
        )
    return pd.DataFrame(rows)


ITEM_ANALYSIS_LABELERS_SQL = (
    _LABELER_COV_SQL
    + """
SELECT t.item, round(t.variance, 6) AS variance,
       round(t.item_rest_corr, 6) AS item_rest_corr,
       round(t.alpha_if_deleted, 6) AS alpha_if_deleted
FROM cv, LATERAL (
  SELECT 'english' AS item, v0 AS variance,
         CASE WHEN v0 = 0 OR v1 + v2 + 2.0 * c12 = 0 THEN 0.0
              ELSE (c01 + c02) / sqrt(v0 * (v1 + v2 + 2.0 * c12)) END AS item_rest_corr,
         CASE WHEN v1 + v2 + 2.0 * c12 = 0 THEN 0.0
              ELSE 2.0 * (1.0 - (v1 + v2) / (v1 + v2 + 2.0 * c12)) END AS alpha_if_deleted
  UNION ALL
  SELECT 'long', v1,
         CASE WHEN v1 = 0 OR v0 + v2 + 2.0 * c02 = 0 THEN 0.0
              ELSE (c01 + c12) / sqrt(v1 * (v0 + v2 + 2.0 * c02)) END,
         CASE WHEN v0 + v2 + 2.0 * c02 = 0 THEN 0.0
              ELSE 2.0 * (1.0 - (v0 + v2) / (v0 + v2 + 2.0 * c02)) END
  UNION ALL
  SELECT 'mentions_data', v2,
         CASE WHEN v2 = 0 OR v0 + v1 + 2.0 * c01 = 0 THEN 0.0
              ELSE (c02 + c12) / sqrt(v2 * (v0 + v1 + 2.0 * c01)) END,
         CASE WHEN v0 + v1 + 2.0 * c01 = 0 THEN 0.0
              ELSE 2.0 * (1.0 - (v0 + v1) / (v0 + v1 + 2.0 * c01)) END
) t
ORDER BY t.item
"""
)


def mcdonald_omega_labelers(sf_dir: str) -> pd.DataFrame:
    """McDonald's omega via the Spearman triad solution: with exactly
    three indicators the one-factor model is just-identified, so the
    loadings are closed-form lambda_a = sqrt(c_ab c_ac / c_bc) (no
    iteration — which is what makes an exact cross-engine oracle
    possible where a fitted omega is not), omega = (SUM lambda)^2 /
    ((SUM lambda)^2 + SUM(v_i - lambda_i^2)), reported beside alpha:
    omega > alpha exactly when loadings are unequal, i.e. alpha's
    tau-equivalence assumption fails — for three heterogeneous weak
    labelers, the honest reliability number."""
    n, v, (c01, c02, c12) = _labeler_cov_terms(sf_dir)

    def _lam(cij, cik, cjk):
        # triad loading; a zero cross covariance leaves the factor
        # unidentified for that item -> loading 0 by convention
        if cjk == 0.0:
            return 0.0
        return float(np.sqrt(max(cij * cik / cjk, 0.0)))

    la = _lam(c01, c02, c12)
    lb = _lam(c01, c12, c02)
    lc = _lam(c02, c12, c01)
    lam_sum = la + lb + lc
    psi = (v[0] - la * la) + (v[1] - lb * lb) + (v[2] - lc * lc)
    den = lam_sum**2 + psi
    omega = 0.0 if den == 0.0 else lam_sum**2 / den
    vt = sum(v) + 2.0 * (c01 + c02 + c12)
    alpha = 1.5 * (1.0 - sum(v) / vt)
    return pd.DataFrame(
        {
            "n": pd.Series([n], dtype="int64"),
            "loading_english": [round(la, 6)],
            "loading_long": [round(lb, 6)],
            "loading_mentions_data": [round(lc, 6)],
            "omega": [round(omega, 6)],
            "alpha": [round(alpha, 6)],
        }
    )


MCDONALD_OMEGA_LABELERS_SQL = (
    _LABELER_COV_SQL
    + """,
ld AS (
  SELECT n, v0, v1, v2,
         CASE WHEN c12 = 0 THEN 0.0
              ELSE sqrt(greatest(c01 * c02 / c12, 0.0)) END AS la,
         CASE WHEN c02 = 0 THEN 0.0
              ELSE sqrt(greatest(c01 * c12 / c02, 0.0)) END AS lb,
         CASE WHEN c01 = 0 THEN 0.0
              ELSE sqrt(greatest(c02 * c12 / c01, 0.0)) END AS lc,
         v0 + v1 + v2 + 2.0 * (c01 + c02 + c12) AS vt,
         v0 + v1 + v2 AS sv
  FROM cv
)
SELECT CAST(n AS BIGINT) AS n,
       round(la, 6) AS loading_english,
       round(lb, 6) AS loading_long,
       round(lc, 6) AS loading_mentions_data,
       round(CASE WHEN (la + lb + lc) * (la + lb + lc)
                       + (v0 - la * la) + (v1 - lb * lb) + (v2 - lc * lc) = 0
                  THEN 0.0
                  ELSE (la + lb + lc) * (la + lb + lc)
                       / ((la + lb + lc) * (la + lb + lc)
                          + (v0 - la * la) + (v1 - lb * lb) + (v2 - lc * lc))
             END, 6) AS omega,
       round(1.5 * (1.0 - sv / vt), 6) AS alpha
FROM ld
"""
)


# ---------------------------------------------------------------------------
# latent-class truth inference from the three labelers (no gold labels)
# ---------------------------------------------------------------------------

def _labeler_triple_terms(sf_dir: str):
    """Shared exact integer moment pass INCLUDING the triple product
    for the latent-class pair. The panel here differs from the
    kappa/alpha labelers on purpose: the latent-class triad needs
    POSITIVELY associated tests of one trait, so the three
    'substantial document' indicators are chars > 300, words > 60
    and mentions-'data' (all pairwise covariances positive at every
    tested scale). Population moments (/n) used consistently in both
    engines."""
    ds = _read(sf_dir, "documents", columns=["n_chars", "text"])

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        a = (df["n_chars"] > 300).to_numpy("int64")
        b = (df["text"].str.count(" ").to_numpy("int64") + 1 > 60).astype("int64")
        c = df["text"].str.contains("data", regex=False).to_numpy("int64")
        return pd.DataFrame(
            {
                "n": [np.int64(len(df))],
                "sa": [np.int64(a.sum())],
                "sb": [np.int64(b.sum())],
                "sc": [np.int64(c.sum())],
                "sab": [np.int64((a * b).sum())],
                "sac": [np.int64((a * c).sum())],
                "sbc": [np.int64((b * c).sum())],
                "sabc": [np.int64((a * b * c).sum())],
            }
        )

    s = ds.map_batches(_partial, batch_format="pandas").to_pandas().sum()
    n = float(int(s["n"]))
    pa, pb, pc = int(s["sa"]) / n, int(s["sb"]) / n, int(s["sc"]) / n
    eab, eac, ebc = int(s["sab"]) / n, int(s["sac"]) / n, int(s["sbc"]) / n
    eabc = int(s["sabc"]) / n
    cab = eab - pa * pb
    cac = eac - pa * pc
    cbc = ebc - pb * pc
    m3 = eabc - pa * ebc - pb * eac - pc * eab + 2.0 * pa * pb * pc
    return int(n), (pa, pb, pc), (cab, cac, cbc), m3


def _latent_class_solution(sf_dir: str):
    """Closed-form 2-class latent-class model for three conditionally
    independent binary tests (just-identified: 7 parameters = 7 dof):
    cov_ij = pi(1-pi) th_i th_j and the central triple moment
    = pi(1-pi)(1-2pi) th1 th2 th3 give K = m3/sqrt(c12 c13 c23) =
    (1-2pi)/sqrt(pi(1-pi)), a quadratic in pi; theta (Youden) per
    test from covariance triads; sens/spec from the margins.
    Degenerate triad (any pairwise cov <= 0, e.g. the constant
    labeler at the smallest scale) returns None -> sentinel zeros,
    identically in both engines."""
    n, (pa, pb, pc), (cab, cac, cbc), m3 = _labeler_triple_terms(sf_dir)
    if cab <= 0.0 or cac <= 0.0 or cbc <= 0.0:
        return n, None
    k = m3 / float(np.sqrt(cab * cac * cbc))
    disc = float(np.sqrt(1.0 - 4.0 / (4.0 + k * k)))
    pi = (1.0 - disc) / 2.0 if k >= 0 else (1.0 + disc) / 2.0
    pq = pi * (1.0 - pi)
    th = (
        float(np.sqrt(cab * cac / cbc / pq)),
        float(np.sqrt(cab * cbc / cac / pq)),
        float(np.sqrt(cac * cbc / cab / pq)),
    )
    ps = (pa, pb, pc)
    sens = tuple(p + (1.0 - pi) * t for p, t in zip(ps, th))
    spec = tuple(1.0 - (p - pi * t) for p, t in zip(ps, th))
    return n, (pi, th, sens, spec)


def latent_class_labelers(sf_dir: str) -> pd.DataFrame:
    """Truth inference WITHOUT gold labels: the three weak labelers
    as conditionally independent tests of one latent binary 'quality'
    trait — the 2-class latent-class model is just-identified for
    k=3, so prevalence, per-labeler sensitivity and specificity are
    CLOSED FORMS of the pairwise covariances and the central triple
    moment (the Dawid-Skene idea in its exactly-solvable corner,
    which is what makes a cross-engine oracle possible). Per-labeler
    rows; the degenerate triad at the smallest scale emits the
    sentinel zeros in both engines."""
    n, sol = _latent_class_solution(sf_dir)
    names = ["long_chars", "long_words", "mentions_data"]
    if sol is None:
        rows = [
            {"item": nm, "sens": 0.0, "spec": 0.0, "youden": 0.0} for nm in names
        ]
        return pd.DataFrame(rows)
    pi, th, sens, spec = sol
    return pd.DataFrame(
        {
            "item": names,
            "sens": [round(v, 6) for v in sens],
            "spec": [round(v, 6) for v in spec],
            "youden": [round(v, 6) for v in th],
        }
    )


_LABELER_TRIPLE_SQL = """
WITH l AS (
  SELECT CASE WHEN n_chars > 300 THEN 1 ELSE 0 END AS a,
         CASE WHEN length(text) - length(replace(text, ' ', '')) + 1 > 60
              THEN 1 ELSE 0 END AS b,
         CASE WHEN text LIKE '%data%' THEN 1 ELSE 0 END AS c
  FROM documents
),
s AS (
  SELECT count(*) * 1.0 AS n, sum(a) * 1.0 AS sa, sum(b) * 1.0 AS sb,
         sum(c) * 1.0 AS sc, sum(a * b) * 1.0 AS sab,
         sum(a * c) * 1.0 AS sac, sum(b * c) * 1.0 AS sbc,
         sum(a * b * c) * 1.0 AS sabc
  FROM l
),
p AS (
  SELECT n, sa / n AS pa, sb / n AS pb, sc / n AS pc,
         sab / n AS eab, sac / n AS eac, sbc / n AS ebc,
         sabc / n AS eabc
  FROM s
),
cv AS (
  SELECT n, pa, pb, pc,
         eab - pa * pb AS cab,
         eac - pa * pc AS cac,
         ebc - pb * pc AS cbc,
         eabc - pa * ebc - pb * eac - pc * eab + 2.0 * pa * pb * pc AS m3
  FROM p
),
sol AS (
  SELECT n, pa, pb, pc, cab, cac, cbc,
         CASE WHEN cab <= 0 OR cac <= 0 OR cbc <= 0 THEN 0 ELSE 1 END AS ok,
         CASE WHEN cab <= 0 OR cac <= 0 OR cbc <= 0 THEN 0.0
              ELSE m3 / sqrt(cab * cac * cbc) END AS k
  FROM cv
),
pi AS (
  SELECT n, pa, pb, pc, cab, cac, cbc, ok,
         CASE WHEN ok = 0 THEN 0.0
              WHEN k >= 0 THEN (1.0 - sqrt(1.0 - 4.0 / (4.0 + k * k))) / 2.0
              ELSE (1.0 + sqrt(1.0 - 4.0 / (4.0 + k * k))) / 2.0 END AS pi
  FROM sol
),
th AS (
  SELECT n, pa, pb, pc, ok, pi,
         CASE WHEN ok = 0 THEN 0.0
              ELSE sqrt(cab * cac / cbc / (pi * (1.0 - pi))) END AS ta,
         CASE WHEN ok = 0 THEN 0.0
              ELSE sqrt(cab * cbc / cac / (pi * (1.0 - pi))) END AS tb,
         CASE WHEN ok = 0 THEN 0.0
              ELSE sqrt(cac * cbc / cab / (pi * (1.0 - pi))) END AS tc
  FROM pi
)
"""

LATENT_CLASS_LABELERS_SQL = (
    _LABELER_TRIPLE_SQL
    + """
SELECT t.item,
       round(t.sens, 6) AS sens,
       round(t.spec, 6) AS spec,
       round(t.youden, 6) AS youden
FROM th, LATERAL (
  SELECT 'long_chars' AS item,
         CASE WHEN ok = 0 THEN 0.0 ELSE pa + (1.0 - pi) * ta END AS sens,
         CASE WHEN ok = 0 THEN 0.0 ELSE 1.0 - (pa - pi * ta) END AS spec,
         ta AS youden
  UNION ALL
  SELECT 'long_words',
         CASE WHEN ok = 0 THEN 0.0 ELSE pb + (1.0 - pi) * tb END,
         CASE WHEN ok = 0 THEN 0.0 ELSE 1.0 - (pb - pi * tb) END,
         tb
  UNION ALL
  SELECT 'mentions_data',
         CASE WHEN ok = 0 THEN 0.0 ELSE pc + (1.0 - pi) * tc END,
         CASE WHEN ok = 0 THEN 0.0 ELSE 1.0 - (pc - pi * tc) END,
         tc
) t
ORDER BY t.item
"""
)


def latent_class_majority_vote(sf_dir: str) -> pd.DataFrame:
    """What the fitted latent-class model says a 2-of-3 MAJORITY
    VOTE is worth: estimated prevalence of the latent trait, the
    model-implied P(majority fires), and the majority vote's PPV /
    NPV under within-class independence — the principled version of
    'just take 2 of 3 annotators', with the same sentinel-zeros
    degenerate convention."""
    n, sol = _latent_class_solution(sf_dir)
    if sol is None:
        return pd.DataFrame(
            {
                "n": pd.Series([n], dtype="int64"),
                "prevalence": [0.0],
                "p_majority": [0.0],
                "ppv_majority": [0.0],
                "npv_majority": [0.0],
            }
        )
    pi, th, sens, spec = sol
    s1, s2, s3 = sens
    f1, f2, f3 = (1.0 - spec[0], 1.0 - spec[1], 1.0 - spec[2])
    a = s1 * s2 + s1 * s3 + s2 * s3 - 2.0 * s1 * s2 * s3
    b = f1 * f2 + f1 * f3 + f2 * f3 - 2.0 * f1 * f2 * f3
    p2 = pi * a + (1.0 - pi) * b
    ppv = pi * a / p2
    npv = (1.0 - pi) * (1.0 - b) / (1.0 - p2)
    return pd.DataFrame(
        {
            "n": pd.Series([n], dtype="int64"),
            "prevalence": [round(pi, 6)],
            "p_majority": [round(p2, 6)],
            "ppv_majority": [round(ppv, 6)],
            "npv_majority": [round(npv, 6)],
        }
    )


LATENT_CLASS_MAJORITY_VOTE_SQL = (
    _LABELER_TRIPLE_SQL
    + """,
sens AS (
  SELECT n, ok, pi,
         pa + (1.0 - pi) * ta AS s1, pb + (1.0 - pi) * tb AS s2,
         pc + (1.0 - pi) * tc AS s3,
         pa - pi * ta AS f1, pb - pi * tb AS f2, pc - pi * tc AS f3
  FROM th
),
ab AS (
  SELECT n, ok, pi,
         s1 * s2 + s1 * s3 + s2 * s3 - 2.0 * s1 * s2 * s3 AS a,
         f1 * f2 + f1 * f3 + f2 * f3 - 2.0 * f1 * f2 * f3 AS b
  FROM sens
)
SELECT CAST(n AS BIGINT) AS n,
       round(CASE WHEN ok = 0 THEN 0.0 ELSE pi END, 6) AS prevalence,
       round(CASE WHEN ok = 0 THEN 0.0
                  ELSE pi * a + (1.0 - pi) * b END, 6) AS p_majority,
       round(CASE WHEN ok = 0 THEN 0.0
                  ELSE pi * a / (pi * a + (1.0 - pi) * b) END, 6) AS ppv_majority,
       round(CASE WHEN ok = 0 THEN 0.0
                  ELSE (1.0 - pi) * (1.0 - b)
                       / (1.0 - (pi * a + (1.0 - pi) * b)) END, 6) AS npv_majority
FROM ab
"""
)


# ---------------------------------------------------------------------------
# Zipf-Mandelbrot shift fit + rank-size break detection on the vocabulary
# ---------------------------------------------------------------------------

def _zipf_xy(sf_dir: str, k: int = 1000):
    """Shared (ln rank-grid basis, ln count) working vectors over the
    deterministic top-k vocabulary — same reduction as zipf_slope."""
    top = vocab_top_terms(sf_dir, k=k)
    r = np.arange(1, len(top) + 1, dtype="float64")
    y = np.log(top["n"].to_numpy("float64"))
    return r, y


def _ols_sse(x: np.ndarray, y: np.ndarray):
    """Closed-form OLS slope/intercept/SSE via raw sums (the exact
    arithmetic mirrored in the oracle SQL)."""
    k = float(len(x))
    sx, sy = float(x.sum()), float(y.sum())
    sxx, sxy, syy = float((x * x).sum()), float((x * y).sum()), float((y * y).sum())
    slope = (k * sxy - sx * sy) / (k * sxx - sx * sx)
    sse = (syy - sy * sy / k) - slope * slope * (sxx - sx * sx / k)
    return slope, sy / k - slope * sx / k, sse


def zipf_mandelbrot_fit(sf_dir: str, k: int = 1000) -> pd.DataFrame:
    """Zipf-Mandelbrot fit of the top-1000 vocabulary: ln(count) =
    alpha - s ln(rank + q), with the shift q chosen by DETERMINISTIC
    grid search over q = 0, 0.5, ..., 10 (argmin SSE, smallest-q
    ties) — q bends the head flattening every real corpus shows into
    the straight line plain Zipf forces through it; grid argmin
    instead of continuous optimization is what keeps the fit exactly
    oracle-able. Reports q*, the slope there, R^2, and the SSE ratio
    vs plain Zipf (q = 0)."""
    r, y = _zipf_xy(sf_dir, k)
    best = None
    _, _, sse0 = _ols_sse(np.log(r), y)
    syy_c = float(((y - y.mean()) ** 2).sum())
    for qi in range(21):
        q = qi * 0.5
        slope, _, sse = _ols_sse(np.log(r + q), y)
        if best is None or sse < best[1]:
            best = (q, sse, slope)
    q, sse, slope = best
    return pd.DataFrame(
        {
            "q_star": [round(q, 1)],
            "slope": [round(slope, 6)],
            "r2": [round(1.0 - sse / syy_c, 6)],
            "sse_vs_plain_zipf": [round(sse / sse0, 6)],
        }
    )


def zipf_mandelbrot_fit_sql(k: int = 1000) -> str:
    return f"""
WITH c AS (
  SELECT t.term, count(*) AS n
  FROM documents, unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS t(term)
  GROUP BY t.term ORDER BY n DESC, term LIMIT {k}
),
r AS (
  SELECT row_number() OVER (ORDER BY n DESC, term) * 1.0 AS rk, ln(n) AS y
  FROM c
),
qs AS (SELECT unnest(generate_series(0, 20)) * 0.5 AS q),
st AS (
  SELECT q, count(*) * 1.0 AS k, sum(ln(rk + q)) AS sx, sum(y) AS sy,
         sum(ln(rk + q) * ln(rk + q)) AS sxx,
         sum(ln(rk + q) * y) AS sxy, sum(y * y) AS syy
  FROM r CROSS JOIN qs GROUP BY q
),
fit AS (
  SELECT q,
         (k * sxy - sx * sy) / (k * sxx - sx * sx) AS slope,
         (syy - sy * sy / k)
         - pow((k * sxy - sx * sy) / (k * sxx - sx * sx), 2)
           * (sxx - sx * sx / k) AS sse,
         syy - sy * sy / k AS syy_c
  FROM st
),
best AS (SELECT * FROM fit ORDER BY sse, q LIMIT 1)
SELECT round(best.q, 1) AS q_star,
       round(best.slope, 6) AS slope,
       round(1.0 - best.sse / best.syy_c, 6) AS r2,
       round(best.sse / (SELECT sse FROM fit WHERE q = 0.0), 6)
         AS sse_vs_plain_zipf
FROM best
"""


ZIPF_MANDELBROT_FIT_SQL = zipf_mandelbrot_fit_sql()


def zipf_break_detection(sf_dir: str, k: int = 1000) -> pd.DataFrame:
    """Rank-size regime break in the same log-log vocabulary: fit
    SEPARATE Zipf lines to ranks 1..b and b+1..end for every break
    b on the grid {5, 8, 11, ..., 26} that leaves >= 3 points on
    each side, taking the argmin of total SSE (smallest-b ties) —
    the two-regime structure (function-word head vs content tail
    with distinct exponents) one global slope averages away; the
    head/tail slope gap and the SSE ratio vs the single line
    quantify it. The grid is sized to the synthetic corpus's small
    closed vocabulary."""
    r, y = _zipf_xy(sf_dir, k)
    x = np.log(r)
    n = len(x)
    _, _, sse1 = _ols_sse(x, y)
    best = None
    for b in (5, 8, 11, 14, 17, 20, 23, 26):
        if b < 3 or n - b < 3:
            continue
        sh, _, sseh = _ols_sse(x[:b], y[:b])
        st_, _, sset = _ols_sse(x[b:], y[b:])
        tot = sseh + sset
        if best is None or tot < best[1]:
            best = (b, tot, sh, st_)
    b, tot, sh, st_ = best
    return pd.DataFrame(
        {
            "b_star": pd.Series([b], dtype="int64"),
            "slope_head": [round(sh, 6)],
            "slope_tail": [round(st_, 6)],
            "sse_vs_single": [round(tot / sse1, 6)],
        }
    )


def zipf_break_detection_sql(k: int = 1000) -> str:
    return f"""
WITH c AS (
  SELECT t.term, count(*) AS n
  FROM documents, unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS t(term)
  GROUP BY t.term ORDER BY n DESC, term LIMIT {k}
),
r AS (
  SELECT row_number() OVER (ORDER BY n DESC, term) AS rk, ln(n) AS y
  FROM c
),
single AS (
  SELECT (syy - sy * sy / k)
         - pow((k * sxy - sx * sy) / (k * sxx - sx * sx), 2)
           * (sxx - sx * sx / k) AS sse
  FROM (
    SELECT count(*) * 1.0 AS k, sum(ln(rk * 1.0)) AS sx, sum(y) AS sy,
           sum(ln(rk * 1.0) * ln(rk * 1.0)) AS sxx,
           sum(ln(rk * 1.0) * y) AS sxy, sum(y * y) AS syy
    FROM r
  )
),
bs AS (
  SELECT b FROM (SELECT unnest([5, 8, 11, 14, 17, 20, 23, 26]) AS b)
  WHERE b >= 3 AND (SELECT count(*) FROM r) - b >= 3
),
seg AS (
  SELECT bs.b, CASE WHEN rk <= bs.b THEN 0 ELSE 1 END AS part,
         ln(rk * 1.0) AS x, y
  FROM r CROSS JOIN bs
),
st AS (
  SELECT b, part, count(*) * 1.0 AS k, sum(x) AS sx, sum(y) AS sy,
         sum(x * x) AS sxx, sum(x * y) AS sxy, sum(y * y) AS syy
  FROM seg GROUP BY b, part
),
fit AS (
  SELECT b, part,
         (k * sxy - sx * sy) / (k * sxx - sx * sx) AS slope,
         (syy - sy * sy / k)
         - pow((k * sxy - sx * sy) / (k * sxx - sx * sx), 2)
           * (sxx - sx * sx / k) AS sse
  FROM st
),
tot AS (
  SELECT b, sum(sse) AS sse,
         max(CASE WHEN part = 0 THEN slope END) AS sh,
         max(CASE WHEN part = 1 THEN slope END) AS st2
  FROM fit GROUP BY b
),
best AS (SELECT * FROM tot ORDER BY sse, b LIMIT 1)
SELECT CAST(b AS BIGINT) AS b_star,
       round(sh, 6) AS slope_head,
       round(st2, 6) AS slope_tail,
       round(sse / (SELECT sse FROM single), 6) AS sse_vs_single
FROM best
"""


ZIPF_BREAK_DETECTION_SQL = zipf_break_detection_sql()


# ---------------------------------------------------------------------------
# Menzerath-Altmann law: longer documents -> shorter sentences?
# ---------------------------------------------------------------------------

def _menzerath_doc_word(df: pd.DataFrame) -> pd.DataFrame:
    """Per-document (token count x, token char sum sc) under the
    shared [a-z0-9_]+ lowercase token convention of the vocabulary
    family."""
    toks = df.set_index("doc_id")["text"].str.lower().str.findall(r"[a-z0-9_]+")
    ex = toks.explode().dropna()
    lens = ex.str.len()
    per = lens.groupby(level=0).agg(["size", "sum"])
    per.columns = ["x", "sc"]
    return per


def _menzerath_terms(sf_dir: str):
    """Shared moment pass for the Menzerath pair: per document the
    construct size x (tokens, same [a-z0-9_]+ lowercase convention
    as the vocabulary family) and constituent size y (mean token
    length in chars), reduced to the ten raw sums of the
    two-regressor fit ln y = ln a + b ln x + c/x."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        per = _menzerath_doc_word(df)
        x = per["x"].to_numpy("int64").astype("float64")
        y = per["sc"].to_numpy("int64").astype("float64") / x
        u = np.log(x)
        v = 1.0 / x
        w = np.log(y)
        return pd.DataFrame(
            {
                "n": [np.int64(len(x))],
                "su": [float(u.sum())], "sv": [float(v.sum())],
                "sw": [float(w.sum())],
                "suu": [float((u * u).sum())], "svv": [float((v * v).sum())],
                "suv": [float((u * v).sum())],
                "suw": [float((u * w).sum())], "svw": [float((v * w).sum())],
                "sww": [float((w * w).sum())],
            }
        )

    s = ds.map_batches(_partial, batch_format="pandas").to_pandas().sum()
    n = float(int(s["n"]))
    cuu = float(s["suu"]) - float(s["su"]) ** 2 / n
    cvv = float(s["svv"]) - float(s["sv"]) ** 2 / n
    cuv = float(s["suv"]) - float(s["su"]) * float(s["sv"]) / n
    cuw = float(s["suw"]) - float(s["su"]) * float(s["sw"]) / n
    cvw = float(s["svw"]) - float(s["sv"]) * float(s["sw"]) / n
    cww = float(s["sww"]) - float(s["sw"]) ** 2 / n
    det = cuu * cvv - cuv * cuv
    b = (cvv * cuw - cuv * cvw) / det
    c = (cuu * cvw - cuv * cuw) / det
    lna = (float(s["sw"]) - b * float(s["su"]) - c * float(s["sv"])) / n
    r2 = (b * cuw + c * cvw) / cww
    return int(n), lna, b, c, r2


def menzerath_fit_documents(sf_dir: str) -> pd.DataFrame:
    """Menzerath-Altmann law fit over documents: 'the longer the
    construct, the shorter its constituents' — y = a x^b e^(c/x)
    with x = tokens per document, y = mean token length in
    chars, linearized to the closed-form two-regressor OLS
    ln y = ln a + b ln x + c/x (the quantitative-linguistics
    counterpart of the Heaps/Zipf corpus-health fits; b < 0 is the
    law holding). Same segmentation convention as sentence_stats;
    one streaming moment pass."""
    n, lna, b, c, r2 = _menzerath_terms(sf_dir)
    return pd.DataFrame(
        {
            "n_docs": pd.Series([n], dtype="int64"),
            "a": [round(float(np.exp(lna)), 6)],
            "b": [round(b, 6)],
            "c": [round(c, 6)],
            "r2": [round(r2, 6)],
        }
    )


_MENZERATH_SQL = """
WITH toks AS (
  SELECT doc_id, t.term AS s
  FROM documents, unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS t(term)
),
per AS (
  SELECT doc_id, count(*) * 1.0 AS x, sum(length(s)) * 1.0 / count(*) AS y
  FROM toks GROUP BY 1
),
m AS (
  SELECT count(*) * 1.0 AS n,
         sum(ln(x)) AS su, sum(1.0 / x) AS sv, sum(ln(y)) AS sw,
         sum(ln(x) * ln(x)) AS suu, sum(1.0 / (x * x)) AS svv,
         sum(ln(x) / x) AS suv, sum(ln(x) * ln(y)) AS suw,
         sum(ln(y) / x) AS svw, sum(ln(y) * ln(y)) AS sww
  FROM per
),
cm AS (
  SELECT n, su, sv, sw,
         suu - su * su / n AS cuu, svv - sv * sv / n AS cvv,
         suv - su * sv / n AS cuv, suw - su * sw / n AS cuw,
         svw - sv * sw / n AS cvw, sww - sw * sw / n AS cww
  FROM m
),
fit AS (
  SELECT n, su, sv, sw, cuw, cvw, cww,
         (cvv * cuw - cuv * cvw) / (cuu * cvv - cuv * cuv) AS b,
         (cuu * cvw - cuv * cuw) / (cuu * cvv - cuv * cuv) AS c
  FROM cm
),
fin AS (
  SELECT n, b, c, (sw - b * su - c * sv) / n AS lna,
         (b * cuw + c * cvw) / cww AS r2
  FROM fit
)
"""

MENZERATH_FIT_DOCUMENTS_SQL = (
    _MENZERATH_SQL
    + """
SELECT CAST(n AS BIGINT) AS n_docs,
       round(exp(lna), 6) AS a,
       round(b, 6) AS b,
       round(c, 6) AS c,
       round(r2, 6) AS r2
FROM fin
"""
)


def menzerath_profile_documents(sf_dir: str) -> pd.DataFrame:
    """The observed-vs-fitted Menzerath profile: documents bucketed
    by token count (width-10 buckets, first 10), the exact mean
    constituent size per bucket beside the law's fitted
    a xbar^b e^(c/xbar) at the bucket-mean x — WHERE the law bends
    away from the data (short-doc boundary effects are the classic
    deviation). Same shared per-document reduction and fit."""
    n, lna, b, c, r2 = _menzerath_terms(sf_dir)
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        per = _menzerath_doc_word(df)
        per = per.reset_index(drop=True)
        per["bkt"] = (per["x"] // 10) * 10
        per["y"] = per["sc"] / per["x"]
        g = per.groupby("bkt").agg(nd=("y", "size"), sy=("y", "sum"),
                                   sx=("x", "sum"))
        return pd.DataFrame(
            {"bkt": g.index.to_numpy("int64"), "nd": g["nd"].to_numpy("int64"),
             "sy": g["sy"].to_numpy("float64"), "sx": g["sx"].to_numpy("int64")}
        )

    g = (
        ds.map_batches(_partial, batch_format="pandas")
        .to_pandas()
        .groupby("bkt", as_index=False)[["nd", "sy", "sx"]]
        .sum()
        .sort_values("bkt")
        .head(10)
    )
    nd = g["nd"].to_numpy("int64").astype("float64")
    mean_y = g["sy"].to_numpy("float64") / nd
    xbar = g["sx"].to_numpy("int64") / nd
    fitted = np.exp(lna) * np.power(xbar, b) * np.exp(c / xbar)
    return pd.DataFrame(
        {
            "token_bucket": g["bkt"].to_numpy("int64"),
            "n_docs": g["nd"].to_numpy("int64"),
            "mean_word_chars": np.round(mean_y, 6),
            "fitted": np.round(fitted, 6),
        }
    ).reset_index(drop=True)


MENZERATH_PROFILE_DOCUMENTS_SQL = (
    _MENZERATH_SQL
    + """,
prof AS (
  SELECT CAST(x AS BIGINT) // 10 * 10 AS bkt, count(*) AS nd,
         sum(y) / count(*) AS my, sum(x) / count(*) AS xbar
  FROM per GROUP BY 1 ORDER BY 1 LIMIT 10
)
SELECT bkt AS token_bucket,
       CAST(nd AS BIGINT) AS n_docs,
       round(my, 6) AS mean_word_chars,
       round((SELECT exp(lna) FROM fin) * pow(xbar, (SELECT b FROM fin))
             * exp((SELECT c FROM fin) / xbar), 6) AS fitted
FROM prof ORDER BY token_bucket
"""
)


# ---------------------------------------------------------------------------
# decision-curve analysis: is the length->English forecaster worth USING?
# ---------------------------------------------------------------------------

_DCA_GRID = (0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)


def _dca_rows(sf_dir: str):
    """Shared decision-curve arithmetic off the leakage-safe
    calibration grid: at each probability threshold pt, call a test
    bucket positive when its TRAIN-learned rate f >= pt, and compute
    net benefit (TP - FP pt/(1-pt))/N for the model beside the
    treat-all benchmark."""
    g = _calibration_grid(sf_dir)
    n = g["n"].to_numpy("int64").astype("float64")
    en = g["en"].to_numpy("int64").astype("float64")
    f = g["f"].to_numpy("float64")
    nn = n.sum()
    en_tot = en.sum()
    out = []
    for pt in _DCA_GRID:
        w = pt / (1.0 - pt)
        called = f >= pt
        tp = float(en[called].sum())
        fp = float((n[called] - en[called]).sum())
        nb_model = (tp - fp * w) / nn
        nb_all = (en_tot - (nn - en_tot) * w) / nn
        out.append((pt, nb_model, nb_all))
    return out


def decision_curve_length_english(sf_dir: str) -> pd.DataFrame:
    """Decision-curve analysis (Vickers-Elkin) of the length-bucket
    English forecaster on the held-out split: at each probability
    threshold pt — the cost-benefit point where calling a doc
    English is worth pt/(1-pt) false calls — the model's NET BENEFIT
    (TP - FP pt/(1-pt))/N beside the treat-all and treat-none
    defaults, with the per-threshold winner. The clinical-utility
    rung above AUC/Brier: a well-calibrated, well-discriminating
    model can still lose to 'just take everything' at low
    thresholds."""
    rows = []
    for pt, nb_model, nb_all in _dca_rows(sf_dir):
        if nb_model >= nb_all and nb_model >= 0.0:
            best = "model"
        elif nb_all >= 0.0:
            best = "treat_all"
        else:
            best = "none"
        rows.append(
            {
                "pt": round(pt, 2),
                "nb_model": round(nb_model, 6),
                "nb_treat_all": round(nb_all, 6),
                "best": best,
            }
        )
    return pd.DataFrame(rows)


_DCA_SQL = (
    _CALIB_GRID_SQL
    + """,
pts AS (SELECT unnest([0.05, 0.10, 0.15, 0.20, 0.30, 0.40,
                       0.50, 0.60, 0.70, 0.80]) AS pt),
nb AS (
  SELECT pts.pt,
         (sum(CASE WHEN te.f >= pts.pt THEN te.en ELSE 0 END)
          - sum(CASE WHEN te.f >= pts.pt THEN te.n - te.en ELSE 0 END)
            * pts.pt / (1.0 - pts.pt)) / (SELECT nn FROM tot) AS nb_model,
         ((SELECT sum(en) FROM te)
          - ((SELECT nn FROM tot) - (SELECT sum(en) FROM te))
            * pts.pt / (1.0 - pts.pt)) / (SELECT nn FROM tot) AS nb_all
  FROM te CROSS JOIN pts
  GROUP BY pts.pt
)
"""
)

DECISION_CURVE_LENGTH_ENGLISH_SQL = (
    _DCA_SQL
    + """
SELECT round(pt, 2) AS pt,
       round(nb_model, 6) AS nb_model,
       round(nb_all, 6) AS nb_treat_all,
       CASE WHEN nb_model >= nb_all AND nb_model >= 0.0 THEN 'model'
            WHEN nb_all >= 0.0 THEN 'treat_all'
            ELSE 'none' END AS best
FROM nb ORDER BY pt
"""
)


def decision_curve_advantage(sf_dir: str) -> pd.DataFrame:
    """The usable-range summary of the same curve: how many grid
    thresholds the model strictly beats BOTH defaults on, the
    lowest and highest such threshold (-1 sentinels when none), and
    the largest net-benefit margin over the better default with the
    threshold where it happens (smallest pt on ties) — 'where in
    cost-benefit space is this model actually the right policy'."""
    rows = _dca_rows(sf_dir)
    wins = [
        (pt, nb_m - max(nb_a, 0.0))
        for pt, nb_m, nb_a in rows
        if nb_m > max(nb_a, 0.0)
    ]
    margins = [(nb_m - max(nb_a, 0.0), pt) for pt, nb_m, nb_a in rows]
    best_margin, best_pt = max(margins, key=lambda t: (t[0], -t[1]))
    return pd.DataFrame(
        {
            "n_win_thresholds": pd.Series([len(wins)], dtype="int64"),
            "win_pt_lo": [round(min(w[0] for w in wins), 2) if wins else -1.0],
            "win_pt_hi": [round(max(w[0] for w in wins), 2) if wins else -1.0],
            "max_margin": [round(best_margin, 6)],
            "at_pt": [round(best_pt, 2)],
        }
    )


DECISION_CURVE_ADVANTAGE_SQL = (
    _DCA_SQL
    + """,
wd AS (
  SELECT pt, nb_model - greatest(nb_all, 0.0) AS margin
  FROM nb
),
wins AS (SELECT pt FROM wd WHERE margin > 0),
mx AS (SELECT margin, pt FROM wd ORDER BY margin DESC, pt LIMIT 1)
SELECT CAST((SELECT count(*) FROM wins) AS BIGINT) AS n_win_thresholds,
       round(coalesce((SELECT min(pt) FROM wins), -1.0), 2) AS win_pt_lo,
       round(coalesce((SELECT max(pt) FROM wins), -1.0), 2) AS win_pt_hi,
       round((SELECT margin FROM mx), 6) AS max_margin,
       round((SELECT pt FROM mx), 2) AS at_pt
"""
)


# ---------------------------------------------------------------------------
# model-upgrade accounting: NRI + IDI, source forecaster vs length forecaster
# ---------------------------------------------------------------------------

def _two_model_cells(sf_dir: str, bucket_chars: int = 200) -> pd.DataFrame:
    """Shared two-forecaster test cells: TRAIN (even doc_id) learns
    per-length-bucket and per-source English rates separately; TEST
    (odd doc_id) cells are the (bucket, source) cross grid with
    exact integer (n, n_en) and both models' forecasts attached
    (global-train-rate fallback for unseen keys)."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "documents", columns=["doc_id", "lang", "n_chars", "source"])

    def _grid(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "b": (df["n_chars"] // bucket_chars).astype("int64"),
                "src": df["source"].to_numpy(object),
                "split": (df["doc_id"].to_numpy("int64") % 2),
                "n": np.int64(1),
                "en": (df["lang"] == "en").astype("int64"),
            }
        )
        return out.groupby(["b", "src", "split"], as_index=False).sum()

    g = (
        bucketed_aggregate(
            ds.map_batches(_grid, batch_format="pandas"),
            ["b", "src", "split"],
            {"n": ("n", "sum"), "en": ("en", "sum")},
            num_buckets=8,
        )
        .to_pandas()
        .groupby(["b", "src", "split"], as_index=False)
        .sum()
    )
    tr = g[g["split"] == 0]
    te = g[g["split"] == 1].copy()
    glob = float(tr["en"].sum()) / float(tr["n"].sum())
    rb = tr.groupby("b")[["n", "en"]].sum()
    rs = tr.groupby("src")[["n", "en"]].sum()
    fb = {b: float(r["en"]) / float(r["n"]) for b, r in rb.iterrows() if r["n"] > 0}
    fs = {s: float(r["en"]) / float(r["n"]) for s, r in rs.iterrows() if r["n"] > 0}
    te["f_len"] = [fb.get(b, glob) for b in te["b"]]
    te["f_src"] = [fs.get(s, glob) for s in te["src"]]
    return te.reset_index(drop=True)


def nri_source_vs_length(sf_dir: str) -> pd.DataFrame:
    """Category-free (continuous) Net Reclassification Improvement
    of upgrading from the length-bucket forecaster to the SOURCE
    forecaster: among English docs, share moved UP minus share moved
    DOWN by the new model; among non-English, the reverse — their
    sum is the Pencina NRI, the 'does the new model move the right
    documents in the right direction' ledger that a bare AUC delta
    hides. Exact integer cells on the shared two-model test grid."""
    te = _two_model_cells(sf_dir)
    n = te["n"].to_numpy("int64").astype("float64")
    en = te["en"].to_numpy("int64").astype("float64")
    up = (te["f_src"].to_numpy("float64") > te["f_len"].to_numpy("float64"))
    dn = (te["f_src"].to_numpy("float64") < te["f_len"].to_numpy("float64"))
    ev = en.sum()
    ne = (n - en).sum()
    nri_ev = (en[up].sum() - en[dn].sum()) / ev
    nri_ne = ((n - en)[dn].sum() - (n - en)[up].sum()) / ne
    return pd.DataFrame(
        {
            "n_events": pd.Series([int(ev)], dtype="int64"),
            "n_nonevents": pd.Series([int(ne)], dtype="int64"),
            "nri_events": [round(float(nri_ev), 6)],
            "nri_nonevents": [round(float(nri_ne), 6)],
            "nri_total": [round(float(nri_ev + nri_ne), 6)],
        }
    )


_TWO_MODEL_SQL = """
WITH d AS (
  SELECT n_chars // 200 AS b, source AS src, doc_id % 2 AS split,
         CASE WHEN lang = 'en' THEN 1 ELSE 0 END AS en
  FROM documents
),
g AS (
  SELECT b, src, split, count(*) * 1.0 AS n, sum(en) * 1.0 AS en
  FROM d GROUP BY 1, 2, 3
),
gl AS (SELECT sum(en) / sum(n) AS p FROM g WHERE split = 0),
rb AS (SELECT b, sum(en) / sum(n) AS f FROM g WHERE split = 0 GROUP BY b),
rs AS (SELECT src, sum(en) / sum(n) AS f FROM g WHERE split = 0 GROUP BY src),
te AS (
  SELECT t.b, t.src, t.n, t.en,
         coalesce(rb.f, (SELECT p FROM gl)) AS f_len,
         coalesce(rs.f, (SELECT p FROM gl)) AS f_src
  FROM (SELECT b, src, n, en FROM g WHERE split = 1) t
  LEFT JOIN rb USING (b)
  LEFT JOIN rs USING (src)
)
"""

NRI_SOURCE_VS_LENGTH_SQL = (
    _TWO_MODEL_SQL
    + """,
agg AS (
  SELECT sum(en) AS ev, sum(n - en) AS ne,
         sum(CASE WHEN f_src > f_len THEN en ELSE 0 END) AS ev_up,
         sum(CASE WHEN f_src < f_len THEN en ELSE 0 END) AS ev_dn,
         sum(CASE WHEN f_src > f_len THEN n - en ELSE 0 END) AS ne_up,
         sum(CASE WHEN f_src < f_len THEN n - en ELSE 0 END) AS ne_dn
  FROM te
)
SELECT CAST(ev AS BIGINT) AS n_events,
       CAST(ne AS BIGINT) AS n_nonevents,
       round((ev_up - ev_dn) / ev, 6) AS nri_events,
       round((ne_dn - ne_up) / ne, 6) AS nri_nonevents,
       round((ev_up - ev_dn) / ev + (ne_dn - ne_up) / ne, 6) AS nri_total
FROM agg
"""
)


def idi_source_vs_length(sf_dir: str) -> pd.DataFrame:
    """Integrated Discrimination Improvement on the same upgrade:
    each model's discrimination slope (mean forecast among English
    minus mean forecast among non-English — the Yates slope), and
    IDI = slope_new - slope_old: how much further apart the new
    model pushes the two classes ON AVERAGE, the magnitude
    companion to NRI's direction-only count."""
    te = _two_model_cells(sf_dir)
    n = te["n"].to_numpy("int64").astype("float64")
    en = te["en"].to_numpy("int64").astype("float64")
    ev = en.sum()
    ne = (n - en).sum()
    sl_len = float((en * te["f_len"]).sum() / ev - ((n - en) * te["f_len"]).sum() / ne)
    sl_src = float((en * te["f_src"]).sum() / ev - ((n - en) * te["f_src"]).sum() / ne)
    return pd.DataFrame(
        {
            "slope_length": [round(sl_len, 6)],
            "slope_source": [round(sl_src, 6)],
            "idi": [round(sl_src - sl_len, 6)],
        }
    )


IDI_SOURCE_VS_LENGTH_SQL = (
    _TWO_MODEL_SQL
    + """,
agg AS (
  SELECT sum(en) AS ev, sum(n - en) AS ne,
         sum(en * f_len) AS e_len, sum((n - en) * f_len) AS x_len,
         sum(en * f_src) AS e_src, sum((n - en) * f_src) AS x_src
  FROM te
)
SELECT round(e_len / ev - x_len / ne, 6) AS slope_length,
       round(e_src / ev - x_src / ne, 6) AS slope_source,
       round((e_src / ev - x_src / ne) - (e_len / ev - x_len / ne), 6) AS idi
FROM agg
"""
)


# ---------------------------------------------------------------------------
# non-nested model comparison: Vuong + Clarke on the two forecasters
# ---------------------------------------------------------------------------

def _model_llr_cells(sf_dir: str):
    """Shared per-cell log-likelihood-ratio terms (source model over
    length model) on the held-out split: each (bucket, source) cell
    contributes en docs with llr_pos = ln(fB/fA) and n-en docs with
    llr_neg = ln((1-fB)/(1-fA)); forecasts clamped to
    [1e-6, 1-1e-6] identically in both engines so an extreme
    training bucket can't produce ln 0."""
    te = _two_model_cells(sf_dir)
    fa = np.clip(te["f_len"].to_numpy("float64"), 1e-6, 1.0 - 1e-6)
    fb = np.clip(te["f_src"].to_numpy("float64"), 1e-6, 1.0 - 1e-6)
    n = te["n"].to_numpy("int64").astype("float64")
    en = te["en"].to_numpy("int64").astype("float64")
    lp = np.log(fb / fa)
    ln_ = np.log((1.0 - fb) / (1.0 - fa))
    return n, en, lp, ln_


def vuong_source_vs_length(sf_dir: str) -> pd.DataFrame:
    """Vuong's non-nested likelihood-ratio test between the source
    and length forecasters as Bernoulli models of the same held-out
    outcomes: z = sum(llr) / (sd(llr) sqrt(N)) — the correction
    that stops 'higher total likelihood' from being mistaken for
    significance when per-doc contributions are noisy; two-sided
    A-S p. Positive z favors the source model. Exact integer cell
    expansion of the per-doc LLR moments."""
    n, en, lp, ln_ = _model_llr_cells(sf_dir)
    nn = n.sum()
    s1 = float((en * lp).sum() + ((n - en) * ln_).sum())
    s2 = float((en * lp * lp).sum() + ((n - en) * ln_ * ln_).sum())
    var = s2 / nn - (s1 / nn) ** 2
    z = s1 / float(np.sqrt(var * nn))
    from ocr_pipeline_ray.pipelines.relational import _norm_cdf_as

    p2 = 2.0 * float(_norm_cdf_as(np.array([-abs(z)]))[0])
    return pd.DataFrame(
        {
            "n_docs": pd.Series([int(nn)], dtype="int64"),
            "sum_llr": [round(s1, 6)],
            "vuong_z": [round(z, 6)],
            "p_two_sided": [round(p2, 6)],
        }
    )


_LLR_CELLS_SQL = (
    _TWO_MODEL_SQL
    + """,
cl AS (
  SELECT n, en,
         ln(greatest(least(f_src, 1.0 - 1e-6), 1e-6)
            / greatest(least(f_len, 1.0 - 1e-6), 1e-6)) AS lp,
         ln((1.0 - greatest(least(f_src, 1.0 - 1e-6), 1e-6))
            / (1.0 - greatest(least(f_len, 1.0 - 1e-6), 1e-6))) AS ln_
  FROM te
)
"""
)

VUONG_SOURCE_VS_LENGTH_SQL = (
    _LLR_CELLS_SQL
    + """,
mm AS (
  SELECT sum(n) AS nn,
         sum(en * lp + (n - en) * ln_) AS s1,
         sum(en * lp * lp + (n - en) * ln_ * ln_) AS s2
  FROM cl
),
zz AS (
  SELECT nn, s1,
         s1 / sqrt((s2 / nn - (s1 / nn) * (s1 / nn)) * nn) AS z
  FROM mm
)
SELECT CAST(nn AS BIGINT) AS n_docs,
       round(s1, 6) AS sum_llr,
       round(z, 6) AS vuong_z,
       round(2.0 * exp(-z * z / 2.0) / sqrt(2.0 * pi())
             * ((1.0 / (1.0 + 0.2316419 * abs(z)))
                * (0.319381530
                   + (1.0 / (1.0 + 0.2316419 * abs(z)))
                     * (-0.356563782
                        + (1.0 / (1.0 + 0.2316419 * abs(z)))
                          * (1.781477937
                             + (1.0 / (1.0 + 0.2316419 * abs(z)))
                               * (-1.821255978
                                  + (1.0 / (1.0 + 0.2316419 * abs(z)))
                                    * 1.330274429))))), 6) AS p_two_sided
FROM zz
"""
)


def clarke_sign_test_models(sf_dir: str) -> pd.DataFrame:
    """Clarke's distribution-free companion: just COUNT the held-out
    docs whose individual log-likelihood favors each model (exact
    zeros dropped) and run the exact binomial sign test via the
    O(N) lgamma tail — robust exactly where Vuong is fragile
    (heavy-tailed per-doc LLRs let a few extreme docs swing the
    mean; the median doesn't care). The two tests disagreeing is
    itself the diagnostic."""
    n, en, lp, ln_ = _model_llr_cells(sf_dir)
    pos = int((en[lp > 0]).sum() + ((n - en)[ln_ > 0]).sum())
    neg = int((en[lp < 0]).sum() + ((n - en)[ln_ < 0]).sum())
    m = pos + neg
    from math import lgamma

    def _lchoose(a, b):
        return lgamma(a + 1) - lgamma(b + 1) - lgamma(a - b + 1)

    k = max(pos, neg)
    tail = sum(np.exp(_lchoose(m, j) - m * np.log(2.0)) for j in range(k, m + 1))
    p2 = min(1.0, 2.0 * tail)
    return pd.DataFrame(
        {
            "n_favor_source": pd.Series([pos], dtype="int64"),
            "n_favor_length": pd.Series([neg], dtype="int64"),
            "p_two_sided": [round(float(p2), 6)],
        }
    )


CLARKE_SIGN_TEST_MODELS_SQL = (
    _LLR_CELLS_SQL
    + """,
cnt AS (
  SELECT CAST(sum(CASE WHEN lp > 0 THEN en ELSE 0 END)
              + sum(CASE WHEN ln_ > 0 THEN n - en ELSE 0 END) AS BIGINT) AS pos,
         CAST(sum(CASE WHEN lp < 0 THEN en ELSE 0 END)
              + sum(CASE WHEN ln_ < 0 THEN n - en ELSE 0 END) AS BIGINT) AS neg
  FROM cl
),
tl AS (
  SELECT pos, neg,
         least(1.0, 2.0 * (
           SELECT sum(exp(lgamma(pos + neg + 1) - lgamma(j + 1)
                          - lgamma(pos + neg - j + 1)
                          - (pos + neg) * ln(2.0)))
           FROM unnest(range(CAST(greatest(pos, neg) AS BIGINT),
                             CAST(pos + neg + 1 AS BIGINT))) AS t(j)
         )) AS p2
  FROM cnt
)
SELECT pos AS n_favor_source,
       neg AS n_favor_length,
       round(p2, 6) AS p_two_sided
FROM tl
"""
)


# ---------------------------------------------------------------------------
# data valuation: exact Shapley value of each source for bigram coverage
# ---------------------------------------------------------------------------

def _bigram_source_grid(sf_dir: str) -> pd.DataFrame:
    """Shared distinct (bigram, source) membership grid under the
    vocabulary token convention — the sufficient statistic of the
    coverage game (type-dimension result: bounded by the bigram
    type space, not the corpus)."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "documents", columns=["doc_id", "source", "text"])

    def _prep(df: pd.DataFrame) -> pd.DataFrame:
        rows_b, rows_s = [], []
        for src, txt in zip(df["source"], df["text"]):
            ts = TOKEN_RE.findall(txt.lower())
            for a, b in zip(ts, ts[1:]):
                rows_b.append(a + " " + b)
                rows_s.append(src)
        out = pd.DataFrame({"b": rows_b, "src": rows_s})
        return out.drop_duplicates().assign(one=np.int64(1))

    return (
        bucketed_aggregate(
            ds.map_batches(_prep, batch_format="pandas"),
            ["b", "src"],
            {"n": ("one", "sum")},
            num_buckets=8,
        )
        .to_pandas()[["b", "src"]]
        .drop_duplicates()
        .reset_index(drop=True)
    )


def shapley_source_coverage(sf_dir: str) -> pd.DataFrame:
    """EXACT Shapley data valuation of the 20 sources for bigram
    coverage: in the coverage game (a type counts once some source
    containing it is in the coalition) the Shapley value has a
    closed form — every bigram splits its unit of value EQUALLY
    among the k sources that contain it — so no subset enumeration
    and no sampling, which is what lets a data-valuation number be
    exactly oracle-checked. Per source: solo coverage, Shapley
    value, and the uniqueness ratio shapley/solo (near 1/k_typical =
    redundant commodity data; near 1 = sole owner of its types)."""
    g = _bigram_source_grid(sf_dir)
    k = g.groupby("b")["src"].transform("count").to_numpy("float64")
    g2 = pd.DataFrame({"src": g["src"], "w": 1.0 / k, "one": 1})
    per = g2.groupby("src").agg(shapley=("w", "sum"), solo=("one", "sum"))
    per = per.sort_index()
    return pd.DataFrame(
        {
            "source": per.index.to_numpy(object),
            "solo_coverage": pd.Series(per["solo"].to_numpy("int64"), dtype="int64"),
            "shapley_value": np.round(per["shapley"].to_numpy("float64"), 6),
            "uniqueness_ratio": np.round(
                (per["shapley"] / per["solo"]).to_numpy("float64"), 6
            ),
        }
    )


_BIGRAM_GRID_SQL = """
WITH toks AS (
  SELECT source, regexp_extract_all(lower(text), '[a-z0-9_]+') AS ts
  FROM documents
),
bg AS (
  SELECT DISTINCT source AS src, ts[i] || ' ' || ts[i + 1] AS b
  FROM toks, unnest(generate_series(1, len(ts) - 1)) AS t(i)
),
kk AS (SELECT b, count(*) AS k FROM bg GROUP BY 1)
"""

SHAPLEY_SOURCE_COVERAGE_SQL = (
    _BIGRAM_GRID_SQL
    + """
SELECT bg.src AS source,
       CAST(count(*) AS BIGINT) AS solo_coverage,
       round(sum(1.0 / kk.k), 6) AS shapley_value,
       round(sum(1.0 / kk.k) / count(*), 6) AS uniqueness_ratio
FROM bg JOIN kk USING (b)
GROUP BY bg.src ORDER BY source
"""
)


def coverage_game_summary(sf_dir: str) -> pd.DataFrame:
    """The game's audit row: total bigram types, the Shapley
    EFFICIENCY certificate (values sum to exactly the total — the
    axiom, so a nonzero residual exposes broken accounting), the
    most and least valuable sources, and the Gini concentration of
    data value across sources (0 = every source equally valuable,
    high = a few sources own the coverage — the 'should we even pay
    for the rest' number)."""
    g = _bigram_source_grid(sf_dir)
    n_types = int(g["b"].nunique())
    k = g.groupby("b")["src"].transform("count").to_numpy("float64")
    per = (
        pd.DataFrame({"src": g["src"], "w": 1.0 / k})
        .groupby("src")["w"]
        .sum()
        .sort_index()
    )
    v = np.sort(per.to_numpy("float64"))
    m = len(v)
    gini = float(
        (2.0 * ((np.arange(1, m + 1)) * v).sum() - (m + 1) * v.sum())
        / (m * v.sum())
    )
    order = np.lexsort((per.index.astype(str), -per.to_numpy("float64")))
    top = per.index[order[0]]
    bot = per.index[order[-1]]
    return pd.DataFrame(
        {
            "n_types": pd.Series([n_types], dtype="int64"),
            "shapley_sum": [round(float(per.sum()), 6)],
            "efficiency_residual": [round(float(per.sum()) - n_types, 6)],
            "top_source": [top],
            "bottom_source": [bot],
            "value_gini": [round(gini, 6)],
        }
    )


COVERAGE_GAME_SUMMARY_SQL = (
    _BIGRAM_GRID_SQL
    + """,
per AS (
  SELECT bg.src, sum(1.0 / kk.k) AS w
  FROM bg JOIN kk USING (b) GROUP BY bg.src
),
rk AS (
  SELECT src, w, row_number() OVER (ORDER BY w) AS i,
         count(*) OVER () AS m, sum(w) OVER () AS sw
  FROM per
),
gin AS (
  SELECT (2.0 * sum(i * w) - (max(m) + 1) * max(sw)) / (max(m) * max(sw)) AS g
  FROM rk
),
tp AS (SELECT src FROM per ORDER BY w DESC, src LIMIT 1),
bt AS (SELECT src FROM per ORDER BY w ASC, src DESC LIMIT 1)
SELECT CAST((SELECT count(*) FROM kk) AS BIGINT) AS n_types,
       round((SELECT sum(w) FROM per), 6) AS shapley_sum,
       round((SELECT sum(w) FROM per) - (SELECT count(*) FROM kk), 6)
         AS efficiency_residual,
       (SELECT src FROM tp) AS top_source,
       (SELECT src FROM bt) AS bottom_source,
       round((SELECT g FROM gin), 6) AS value_gini
"""
)


# ---------------------------------------------------------------------------
# Banzhaf values of the coverage game + the power-index disagreement
# ---------------------------------------------------------------------------

def banzhaf_source_coverage(sf_dir: str) -> pd.DataFrame:
    """Raw Banzhaf value of each source in the same bigram-coverage
    game — also closed form: a source is PIVOTAL for a type held by
    k sources in exactly 2^(n-k) of the 2^(n-1) coalitions of the
    others, so each type contributes 2^(1-k) — which punishes shared
    types exponentially where Shapley only divides by k. The raw
    values don't sum to the total (Banzhaf trades the efficiency
    axiom for a probabilistic-pivot story); the normalized share is
    reported beside them."""
    g = _bigram_source_grid(sf_dir)
    k = g.groupby("b")["src"].transform("count").to_numpy("float64")
    g2 = pd.DataFrame({"src": g["src"], "w": np.power(2.0, 1.0 - k)})
    per = g2.groupby("src")["w"].sum().sort_index()
    tot = float(per.sum())
    return pd.DataFrame(
        {
            "source": per.index.to_numpy(object),
            "banzhaf_raw": np.round(per.to_numpy("float64"), 6),
            "banzhaf_share": np.round(per.to_numpy("float64") / tot, 6),
        }
    )


BANZHAF_SOURCE_COVERAGE_SQL = (
    _BIGRAM_GRID_SQL
    + """,
per AS (
  SELECT bg.src, sum(pow(2.0, 1.0 - kk.k)) AS w
  FROM bg JOIN kk USING (b) GROUP BY bg.src
)
SELECT src AS source,
       round(w, 6) AS banzhaf_raw,
       round(w / (SELECT sum(w) FROM per), 6) AS banzhaf_share
FROM per ORDER BY source
"""
)


def power_index_disagreement(sf_dir: str) -> pd.DataFrame:
    """Do the two power indexes even agree on who matters? Spearman
    rank correlation between the sources' Shapley and Banzhaf
    values (value ties broken by source name in both engines), the
    number of sources whose rank moves, and the biggest mover with
    its two ranks — they diverge exactly when a source's portfolio
    mixes a few exclusive types with many widely-shared ones,
    because Banzhaf discounts sharing exponentially."""
    g = _bigram_source_grid(sf_dir)
    k = g.groupby("b")["src"].transform("count").to_numpy("float64")
    d = pd.DataFrame(
        {
            "src": g["src"],
            "sh": 1.0 / k,
            "bz": np.power(2.0, 1.0 - k),
        }
    ).groupby("src").sum().sort_index()
    names = d.index.to_numpy(object)
    m = len(d)

    def _rank(v):
        order = np.lexsort((names.astype(str), -v))
        r = np.empty(m, dtype="int64")
        r[order] = np.arange(1, m + 1)
        return r

    rs = _rank(d["sh"].to_numpy("float64"))
    rb = _rank(d["bz"].to_numpy("float64"))
    dr = rs.astype("float64") - rb.astype("float64")
    rho = 1.0 - 6.0 * float((dr * dr).sum()) / (m * (m * m - 1.0))
    moved = int((rs != rb).sum())
    j = int(np.lexsort((names.astype(str), -np.abs(dr)))[0])
    return pd.DataFrame(
        {
            "spearman_rho": [round(rho, 6)],
            "n_rank_moves": pd.Series([moved], dtype="int64"),
            "biggest_mover": [names[j]],
            "rank_shapley": pd.Series([int(rs[j])], dtype="int64"),
            "rank_banzhaf": pd.Series([int(rb[j])], dtype="int64"),
        }
    )


POWER_INDEX_DISAGREEMENT_SQL = (
    _BIGRAM_GRID_SQL
    + """,
per AS (
  SELECT bg.src,
         sum(1.0 / kk.k) AS sh,
         sum(pow(2.0, 1.0 - kk.k)) AS bz
  FROM bg JOIN kk USING (b) GROUP BY bg.src
),
rk AS (
  SELECT src,
         row_number() OVER (ORDER BY sh DESC, src) AS rs,
         row_number() OVER (ORDER BY bz DESC, src) AS rb,
         count(*) OVER () AS m
  FROM per
),
mv AS (
  SELECT src, rs, rb FROM rk
  ORDER BY abs(rs - rb) DESC, src LIMIT 1
)
SELECT round(1.0 - 6.0 * (SELECT sum((rs - rb) * (rs - rb) * 1.0) FROM rk)
             / ((SELECT max(m) FROM rk)
                * ((SELECT max(m) FROM rk) * (SELECT max(m) FROM rk) - 1.0)), 6)
         AS spearman_rho,
       CAST((SELECT count(*) FROM rk WHERE rs <> rb) AS BIGINT) AS n_rank_moves,
       (SELECT src FROM mv) AS biggest_mover,
       CAST((SELECT rs FROM mv) AS BIGINT) AS rank_shapley,
       CAST((SELECT rb FROM mv) AS BIGINT) AS rank_banzhaf
"""
)


# ---------------------------------------------------------------------------
# source LM geometry: unigram cross-entropy between every source pair
# ---------------------------------------------------------------------------

def _source_term_matrix(sf_dir: str):
    """Shared (source x term) count matrix under the vocabulary
    token convention plus per-source totals and the global vocab
    size V — the sufficient statistic for every smoothed-LM
    cross-entropy."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "documents", columns=["source", "text"])

    def _prep(df: pd.DataFrame) -> pd.DataFrame:
        rows_t, rows_s = [], []
        for src, txt in zip(df["source"], df["text"]):
            for tok in TOKEN_RE.findall(txt.lower()):
                rows_t.append(tok)
                rows_s.append(src)
        return pd.DataFrame({"src": rows_s, "term": rows_t, "one": np.int64(1)}).groupby(
            ["src", "term"], as_index=False
        ).agg(c=("one", "sum"))

    g = (
        bucketed_aggregate(
            ds.map_batches(_prep, batch_format="pandas"),
            ["src", "term"],
            {"c": ("c", "sum")},
            num_buckets=8,
        )
        .to_pandas()
    )
    piv = g.pivot(index="src", columns="term", values="c").fillna(0).astype("int64")
    piv = piv.sort_index()
    return piv, int(piv.shape[1])


def _cross_entropy_matrix(sf_dir: str):
    piv, vsize = _source_term_matrix(sf_dir)
    c = piv.to_numpy("float64")
    n = c.sum(axis=1)
    p = c / n[:, None]
    q = (c + 1.0) / (n + float(vsize))[:, None]
    lq = np.log(q)
    ce = -(p @ lq.T)  # ce[a, b] = cross entropy of a under b's smoothed LM
    return piv.index.to_numpy(object), ce


def source_lm_cross_entropy(sf_dir: str) -> pd.DataFrame:
    """Who reads like whom: train a Laplace-smoothed unigram LM per
    source and evaluate every source's term distribution under every
    other's model — per source the self cross-entropy (its own
    compressibility), the mean cross-entropy under the other 19
    models, the excess (how much it costs to read this source with
    someone else's codebook — the KL-style distinctiveness), and its
    nearest foreign model (name tiebreak). The routing table for
    'which existing domain model should score this new source'."""
    names, ce = _cross_entropy_matrix(sf_dir)
    m = len(names)
    rows = []
    for i in range(m):
        others = np.array([ce[i, j] for j in range(m) if j != i])
        idx = [j for j in range(m) if j != i]
        j = idx[int(np.lexsort((np.array([str(names[k]) for k in idx]), others))[0])]
        rows.append(
            {
                "source": names[i],
                "self_ce": round(float(ce[i, i]), 6),
                "mean_cross_ce": round(float(others.mean()), 6),
                "excess": round(float(others.mean() - ce[i, i]), 6),
                "nearest_model": names[j],
            }
        )
    return pd.DataFrame(rows)


_SOURCE_LM_SQL = """
WITH tok AS (
  SELECT source AS src, t.term, count(*) AS c
  FROM documents, unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS t(term)
  GROUP BY 1, 2
),
tot AS (SELECT src, sum(c) * 1.0 AS n FROM tok GROUP BY 1),
vv AS (SELECT count(DISTINCT term) * 1.0 AS v FROM tok),
ce AS (
  SELECT a.src AS sa, b2.src AS sb,
         -sum((a.c / ta.n)
              * ln((coalesce(bb.c, 0) + 1.0) / (tb.n + (SELECT v FROM vv)))) AS ce
  FROM tok a
  JOIN tot ta ON ta.src = a.src
  CROSS JOIN (SELECT DISTINCT src FROM tok) b2
  JOIN tot tb ON tb.src = b2.src
  LEFT JOIN tok bb ON bb.src = b2.src AND bb.term = a.term
  GROUP BY 1, 2
)
"""

SOURCE_LM_CROSS_ENTROPY_SQL = (
    _SOURCE_LM_SQL
    + """,
per AS (
  SELECT sa AS source,
         max(CASE WHEN sa = sb THEN ce END) AS self_ce,
         avg(CASE WHEN sa <> sb THEN ce END) AS mean_cross_ce
  FROM ce GROUP BY 1
),
nearest AS (
  SELECT sa AS source, sb AS nearest_model,
         row_number() OVER (PARTITION BY sa ORDER BY ce, sb) AS rk
  FROM ce WHERE sa <> sb
)
SELECT per.source,
       round(per.self_ce, 6) AS self_ce,
       round(per.mean_cross_ce, 6) AS mean_cross_ce,
       round(per.mean_cross_ce - per.self_ce, 6) AS excess,
       (SELECT nearest_model FROM nearest
        WHERE nearest.source = per.source AND rk = 1) AS nearest_model
FROM per ORDER BY per.source
"""
)


def lm_divergence_extremes(sf_dir: str) -> pd.DataFrame:
    """The corpus's LM geometry in one row: the most SIMILAR ordered
    source pair (smallest cross-entropy excess over the target's
    self-entropy — candidates for merging their domain models) and
    the most ALIEN pair (largest excess — the pair a single shared
    tokenizer/model hurts most), with the grand mean excess as the
    corpus's overall domain-fragmentation score."""
    names, ce = _cross_entropy_matrix(sf_dir)
    m = len(names)
    best = worst = None
    tot = 0.0
    cnt = 0
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            ex = float(ce[i, j] - ce[i, i])
            tot += ex
            cnt += 1
            key = (ex, str(names[i]), str(names[j]))
            if best is None or key < best:
                best = key
            if worst is None or (ex, str(names[i]), str(names[j])) > worst:
                worst = key if False else (ex, str(names[i]), str(names[j]))
    return pd.DataFrame(
        {
            "closest_src": [best[1]],
            "closest_model": [best[2]],
            "closest_excess": [round(best[0], 6)],
            "farthest_src": [worst[1]],
            "farthest_model": [worst[2]],
            "farthest_excess": [round(worst[0], 6)],
            "mean_excess": [round(tot / cnt, 6)],
        }
    )


LM_DIVERGENCE_EXTREMES_SQL = (
    _SOURCE_LM_SQL
    + """,
ex AS (
  SELECT a.sa, a.sb, a.ce - s.ce AS excess
  FROM ce a JOIN ce s ON s.sa = a.sa AND s.sb = a.sa
  WHERE a.sa <> a.sb
),
best AS (SELECT * FROM ex ORDER BY excess, sa, sb LIMIT 1),
worst AS (SELECT * FROM ex ORDER BY excess DESC, sa, sb LIMIT 1)
SELECT (SELECT sa FROM best) AS closest_src,
       (SELECT sb FROM best) AS closest_model,
       round((SELECT excess FROM best), 6) AS closest_excess,
       (SELECT sa FROM worst) AS farthest_src,
       (SELECT sb FROM worst) AS farthest_model,
       round((SELECT excess FROM worst), 6) AS farthest_excess,
       round((SELECT avg(excess) FROM ex), 6) AS mean_excess
"""
)


# ---------------------------------------------------------------------------
# signal detection theory for the length->English rule (Acklam inverse normal)
# ---------------------------------------------------------------------------

def _qnorm_acklam(p: float) -> float:
    """Acklam's rational approximation to the standard normal
    quantile — closed-form polynomials only, mirrored verbatim in
    the SQL oracle (relative error < 1.15e-9, far below the
    round-6 comparison)."""
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    plow = 0.02425
    if p < plow:
        q = float(np.sqrt(-2.0 * np.log(p)))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    if p <= 1.0 - plow:
        q = p - 0.5
        r = q * q
        return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
            ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
        )
    q = float(np.sqrt(-2.0 * np.log(1.0 - p)))
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
        (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
    )


def _qnorm_sql(expr: str) -> str:
    """The same Acklam approximation as a SQL expression over
    `expr` (assumed strictly inside (0,1))."""
    return f"""
  CASE WHEN ({expr}) < 0.02425 THEN
    (((((-7.784894002430293e-03 * sqrt(-2.0 * ln({expr})) - 3.223964580411365e-01)
        * sqrt(-2.0 * ln({expr})) - 2.400758277161838e+00)
        * sqrt(-2.0 * ln({expr})) - 2.549732539343734e+00)
        * sqrt(-2.0 * ln({expr})) + 4.374664141464968e+00)
        * sqrt(-2.0 * ln({expr})) + 2.938163982698783e+00)
    / ((((7.784695709041462e-03 * sqrt(-2.0 * ln({expr})) + 3.224671290700398e-01)
         * sqrt(-2.0 * ln({expr})) + 2.445134137142996e+00)
         * sqrt(-2.0 * ln({expr})) + 3.754408661907416e+00)
         * sqrt(-2.0 * ln({expr})) + 1.0)
  WHEN ({expr}) <= 0.97575 THEN
    (((((-3.969683028665376e+01 * (({expr}) - 0.5) * (({expr}) - 0.5)
         + 2.209460984245205e+02) * (({expr}) - 0.5) * (({expr}) - 0.5)
         - 2.759285104469687e+02) * (({expr}) - 0.5) * (({expr}) - 0.5)
         + 1.383577518672690e+02) * (({expr}) - 0.5) * (({expr}) - 0.5)
         - 3.066479806614716e+01) * (({expr}) - 0.5) * (({expr}) - 0.5)
         + 2.506628277459239e+00) * (({expr}) - 0.5)
    / (((((-5.447609879822406e+01 * (({expr}) - 0.5) * (({expr}) - 0.5)
           + 1.615858368580409e+02) * (({expr}) - 0.5) * (({expr}) - 0.5)
           - 1.556989798598866e+02) * (({expr}) - 0.5) * (({expr}) - 0.5)
           + 6.680131188771972e+01) * (({expr}) - 0.5) * (({expr}) - 0.5)
           - 1.328068155288572e+01) * (({expr}) - 0.5) * (({expr}) - 0.5) + 1.0)
  ELSE
    -((((((-7.784894002430293e-03) * sqrt(-2.0 * ln(1.0 - ({expr})))
          - 3.223964580411365e-01) * sqrt(-2.0 * ln(1.0 - ({expr})))
          - 2.400758277161838e+00) * sqrt(-2.0 * ln(1.0 - ({expr})))
          - 2.549732539343734e+00) * sqrt(-2.0 * ln(1.0 - ({expr})))
          + 4.374664141464968e+00) * sqrt(-2.0 * ln(1.0 - ({expr})))
          + 2.938163982698783e+00)
    / ((((7.784695709041462e-03 * sqrt(-2.0 * ln(1.0 - ({expr})))
          + 3.224671290700398e-01) * sqrt(-2.0 * ln(1.0 - ({expr})))
          + 2.445134137142996e+00) * sqrt(-2.0 * ln(1.0 - ({expr})))
          + 3.754408661907416e+00) * sqrt(-2.0 * ln(1.0 - ({expr}))) + 1.0)
  END
"""


def _len_en_rates(sf_dir: str, thr: int):
    """Hit and false-alarm rates of 'call English when n_chars > thr'
    with the 1/(2n)-clamp convention so the normal quantiles stay
    finite, identical in both engines."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate, _read as _r

    ds = _r(sf_dir, "documents", columns=["lang", "n_chars"])

    def _prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "en": (df["lang"] == "en").astype("int64"),
                "call": (df["n_chars"] > thr).astype("int64"),
                "one": np.int64(1),
            }
        ).groupby(["en", "call"], as_index=False).sum()

    g = (
        ds.map_batches(_prep, batch_format="pandas")
        .to_pandas()
        .groupby(["en", "call"], as_index=False)
        .sum()
    )
    cell = {(int(r["en"]), int(r["call"])): int(r["one"]) for _, r in g.iterrows()}
    tp = cell.get((1, 1), 0)
    fn = cell.get((1, 0), 0)
    fp = cell.get((0, 1), 0)
    tn = cell.get((0, 0), 0)
    np_, nn_ = tp + fn, fp + tn
    h = min(max(tp / np_, 1.0 / (2.0 * np_)), 1.0 - 1.0 / (2.0 * np_))
    f = min(max(fp / nn_, 1.0 / (2.0 * nn_)), 1.0 - 1.0 / (2.0 * nn_))
    return h, f


def signal_detection_dprime(sf_dir: str, thr: int = 600) -> pd.DataFrame:
    """Signal detection theory for the length -> English rule at the
    600-char criterion: sensitivity d' = z(hit) - z(FA) (distance
    between the class distributions in noise-sd units, the
    threshold-free cousin of accuracy), the criterion c = -(z(hit)
    + z(FA))/2 (negative = liberal caller), and ln beta = c d' —
    the psychophysics coordinates, exactly oracle-able because the
    normal quantile is Acklam's rational approximation evaluated
    verbatim in both engines."""
    h, f = _len_en_rates(sf_dir, thr)
    zh, zf = _qnorm_acklam(h), _qnorm_acklam(f)
    dprime = zh - zf
    c = -(zh + zf) / 2.0
    return pd.DataFrame(
        {
            "hit_rate": [round(h, 6)],
            "fa_rate": [round(f, 6)],
            "d_prime": [round(dprime, 6)],
            "criterion_c": [round(c, 6)],
            "ln_beta": [round(c * dprime, 6)],
        }
    )


def _sdt_rates_sql(thr: int) -> str:
    return f"""
WITH cf AS (
  SELECT sum(CASE WHEN lang = 'en' AND n_chars > {thr} THEN 1 ELSE 0 END) * 1.0 AS tp,
         sum(CASE WHEN lang = 'en' AND n_chars <= {thr} THEN 1 ELSE 0 END) * 1.0 AS fn,
         sum(CASE WHEN lang <> 'en' AND n_chars > {thr} THEN 1 ELSE 0 END) * 1.0 AS fp,
         sum(CASE WHEN lang <> 'en' AND n_chars <= {thr} THEN 1 ELSE 0 END) * 1.0 AS tn
  FROM documents
),
rates AS (
  SELECT least(greatest(tp / (tp + fn), 1.0 / (2.0 * (tp + fn))),
               1.0 - 1.0 / (2.0 * (tp + fn))) AS h,
         least(greatest(fp / (fp + tn), 1.0 / (2.0 * (fp + tn))),
               1.0 - 1.0 / (2.0 * (fp + tn))) AS f
  FROM cf
)
"""


SIGNAL_DETECTION_DPRIME_SQL = (
    _sdt_rates_sql(600)
    + f""",
zz AS (
  SELECT h, f,
         ({_qnorm_sql('h')}) AS zh,
         ({_qnorm_sql('f')}) AS zf
  FROM rates
)
SELECT round(h, 6) AS hit_rate,
       round(f, 6) AS fa_rate,
       round(zh - zf, 6) AS d_prime,
       round(-(zh + zf) / 2.0, 6) AS criterion_c,
       round(-(zh + zf) / 2.0 * (zh - zf), 6) AS ln_beta
FROM zz
"""
)


def sdt_isosensitivity_check(sf_dir: str) -> pd.DataFrame:
    """The equal-variance Gaussian ROC's falsifiable claim: d'
    should be the SAME at every criterion. Computed at the 200/400/
    600/800-char cuts — four (z(FA), z(hit)) points that lie on a
    unit-slope line iff the model holds; the d' spread (max - min)
    is the violation magnitude, and a systematic drift with the
    threshold is the classic unequal-variance signature read
    without any fitting."""
    rows = []
    ds = []
    for thr in (200, 400, 600, 800):
        h, f = _len_en_rates(sf_dir, thr)
        d = _qnorm_acklam(h) - _qnorm_acklam(f)
        ds.append(d)
        rows.append(
            {"threshold": np.int64(thr), "hit_rate": round(h, 6),
             "fa_rate": round(f, 6), "d_prime": round(d, 6)}
        )
    out = pd.DataFrame(rows)
    out["threshold"] = out["threshold"].astype("int64")
    out["dprime_spread"] = round(max(ds) - min(ds), 6)
    return out


SDT_ISOSENSITIVITY_CHECK_SQL = (
    """
WITH thr AS (SELECT unnest([200, 400, 600, 800]) AS t),
cf AS (
  SELECT thr.t,
         sum(CASE WHEN lang = 'en' AND n_chars > thr.t THEN 1 ELSE 0 END) * 1.0 AS tp,
         sum(CASE WHEN lang = 'en' AND n_chars <= thr.t THEN 1 ELSE 0 END) * 1.0 AS fn,
         sum(CASE WHEN lang <> 'en' AND n_chars > thr.t THEN 1 ELSE 0 END) * 1.0 AS fp,
         sum(CASE WHEN lang <> 'en' AND n_chars <= thr.t THEN 1 ELSE 0 END) * 1.0 AS tn
  FROM documents CROSS JOIN thr
  GROUP BY thr.t
),
rates AS (
  SELECT t,
         least(greatest(tp / (tp + fn), 1.0 / (2.0 * (tp + fn))),
               1.0 - 1.0 / (2.0 * (tp + fn))) AS h,
         least(greatest(fp / (fp + tn), 1.0 / (2.0 * (fp + tn))),
               1.0 - 1.0 / (2.0 * (fp + tn))) AS f
  FROM cf
),
zz AS (
  SELECT t, h, f,
"""
    + f"         ({_qnorm_sql('h')}) - ({_qnorm_sql('f')}) AS d"
    + """
  FROM rates
)
SELECT CAST(t AS BIGINT) AS threshold,
       round(h, 6) AS hit_rate,
       round(f, 6) AS fa_rate,
       round(d, 6) AS d_prime,
       round((SELECT max(d) - min(d) FROM zz), 6) AS dprime_spread
FROM zz ORDER BY threshold
"""
)


# ---------------------------------------------------------------------------
# normal-scores rank tests: van der Waerden location + Klotz scale
# ---------------------------------------------------------------------------

def _vdw_terms(sf_dir: str):
    """Shared normal-scores machinery on urgent-vs-other order
    prices: mid-ranks per distinct cent value (deterministic tie
    handling), Acklam scores a = qnorm(r/(n+1)), and the group-1
    partial sums for both the location (a) and scale (a^2)
    statistics — all off the (value, group) histogram so only cells
    leave the cluster."""
    from ocr_pipeline_ray.pipelines.relational import _price_cents_by_urgent

    h = _price_cents_by_urgent(sf_dir)
    per_v = h.groupby("v", as_index=False).agg(c=("c", "sum")).sort_values("v")
    cum = per_v["c"].cumsum()
    lo = cum - per_v["c"]
    mid = (lo + (cum + 1.0)) / 2.0  # average rank of a tie block
    n = float(per_v["c"].sum())
    per_v = per_v.assign(midrank=mid.to_numpy("float64"))
    scores = np.array(
        [_qnorm_acklam(r / (n + 1.0)) for r in per_v["midrank"]]
    )
    per_v = per_v.assign(a=scores)
    h = h.merge(per_v[["v", "a"]], on="v", how="left")
    n1 = float(h.loc[h["g"] == 1, "c"].sum())
    s1 = float((h.loc[h["g"] == 1, "a"] * h.loc[h["g"] == 1, "c"]).sum())
    s1_sq = float(
        (h.loc[h["g"] == 1, "a"] ** 2 * h.loc[h["g"] == 1, "c"]).sum()
    )
    sa2 = float((per_v["a"] ** 2 * per_v["c"]).sum())
    sa4 = float((per_v["a"] ** 4 * per_v["c"]).sum())
    sa = float((per_v["a"] * per_v["c"]).sum())
    return n, n1, s1, s1_sq, sa, sa2, sa4


def van_der_waerden_urgent_price(sf_dir: str) -> pd.DataFrame:
    """Van der Waerden normal-scores location test of urgent vs
    other order prices: replace each mid-rank by qnorm(r/(n+1)) and
    z-test the urgent group's score sum — asymptotically the MOST
    efficient rank test under normality while keeping full rank
    robustness (the ARE-1 sibling of Mann-Whitney, which pays 3/pi
    there); exactly oracle-able because the scores are Acklam
    rationals in both engines. Mid-rank ties, two-sided A-S p."""
    n, n1, s1, _, sa, sa2, _ = _vdw_terms(sf_dir)
    n2 = n - n1
    mean1 = n1 * sa / n
    var1 = n1 * n2 / (n * (n - 1.0)) * (sa2 - sa * sa / n)
    z = (s1 - mean1) / float(np.sqrt(var1))
    from ocr_pipeline_ray.pipelines.relational import _norm_cdf_as

    p2 = 2.0 * float(_norm_cdf_as(np.array([-abs(z)]))[0])
    return pd.DataFrame(
        {
            "n_urgent": pd.Series([int(n1)], dtype="int64"),
            "score_sum": [round(s1, 6)],
            "z": [round(z, 6)],
            "p_two_sided": [round(p2, 6)],
        }
    )


def _vdw_base_sql() -> str:
    return (
        """
WITH h AS (
  SELECT CAST(round(o_totalprice * 100) AS BIGINT) AS v,
         CASE WHEN o_orderpriority = '1-URGENT' THEN 1 ELSE 0 END AS g,
         count(*) AS c
  FROM orders GROUP BY 1, 2
),
pv AS (
  SELECT v, sum(c) AS c FROM h GROUP BY 1
),
rk AS (
  SELECT v, c,
         (sum(c) OVER (ORDER BY v) - c
          + (sum(c) OVER (ORDER BY v) + 1.0)) / 2.0 AS midrank,
         (SELECT sum(c) * 1.0 FROM pv) AS n
  FROM pv
),
sc AS (
  SELECT v, c, ("""
        + _qnorm_sql("midrank / (n + 1.0)")
        + """) AS a
  FROM rk
),
j AS (
  SELECT h.v, h.g, h.c, sc.a FROM h JOIN sc ON sc.v = h.v
),
mm AS (
  SELECT (SELECT sum(c) * 1.0 FROM pv) AS n,
         sum(CASE WHEN g = 1 THEN c END) * 1.0 AS n1,
         sum(CASE WHEN g = 1 THEN a * c END) AS s1,
         sum(CASE WHEN g = 1 THEN a * a * c END) AS s1sq
  FROM j
),
tot AS (
  SELECT sum(a * c) AS sa, sum(a * a * c) AS sa2,
         sum(a * a * a * a * c) AS sa4
  FROM sc
)
"""
    )


VAN_DER_WAERDEN_URGENT_PRICE_SQL = (
    _vdw_base_sql()
    + """,
zz AS (
  SELECT n1,
         (s1 - n1 * (SELECT sa FROM tot) / n)
         / sqrt(n1 * (n - n1) / (n * (n - 1.0))
                * ((SELECT sa2 FROM tot)
                   - (SELECT sa FROM tot) * (SELECT sa FROM tot) / n)) AS z,
         s1
  FROM mm
)
SELECT CAST(n1 AS BIGINT) AS n_urgent,
       round(s1, 6) AS score_sum,
       round(z, 6) AS z,
       round(2.0 * exp(-z * z / 2.0) / sqrt(2.0 * pi())
             * ((1.0 / (1.0 + 0.2316419 * abs(z)))
                * (0.319381530
                   + (1.0 / (1.0 + 0.2316419 * abs(z)))
                     * (-0.356563782
                        + (1.0 / (1.0 + 0.2316419 * abs(z)))
                          * (1.781477937
                             + (1.0 / (1.0 + 0.2316419 * abs(z)))
                               * (-1.821255978
                                  + (1.0 / (1.0 + 0.2316419 * abs(z)))
                                    * 1.330274429))))), 6) AS p_two_sided
FROM zz
"""
)


def klotz_scale_urgent_price(sf_dir: str) -> pd.DataFrame:
    """The Klotz normal-scores SCALE test on the same machinery:
    the urgent group's sum of SQUARED normal scores z-tested against
    its permutation moments — the locally-most-powerful rank test
    for a variance shift under normality, completing the scale
    ladder beside Ansari-Bradley / Mood / Siegel-Tukey (which pay
    efficiency there); same mid-rank scores, two-sided A-S p."""
    n, n1, _, s1_sq, sa, sa2, sa4 = _vdw_terms(sf_dir)
    n2 = n - n1
    mean1 = n1 * sa2 / n
    var1 = n1 * n2 / (n * (n - 1.0)) * (sa4 - sa2 * sa2 / n)
    z = (s1_sq - mean1) / float(np.sqrt(var1))
    from ocr_pipeline_ray.pipelines.relational import _norm_cdf_as

    p2 = 2.0 * float(_norm_cdf_as(np.array([-abs(z)]))[0])
    return pd.DataFrame(
        {
            "n_urgent": pd.Series([int(n1)], dtype="int64"),
            "sq_score_sum": [round(s1_sq, 6)],
            "z": [round(z, 6)],
            "p_two_sided": [round(p2, 6)],
        }
    )


KLOTZ_SCALE_URGENT_PRICE_SQL = (
    _vdw_base_sql()
    + """,
zz AS (
  SELECT n1,
         (s1sq - n1 * (SELECT sa2 FROM tot) / n)
         / sqrt(n1 * (n - n1) / (n * (n - 1.0))
                * ((SELECT sa4 FROM tot)
                   - (SELECT sa2 FROM tot) * (SELECT sa2 FROM tot) / n)) AS z,
         s1sq
  FROM mm
)
SELECT CAST(n1 AS BIGINT) AS n_urgent,
       round(s1sq, 6) AS sq_score_sum,
       round(z, 6) AS z,
       round(2.0 * exp(-z * z / 2.0) / sqrt(2.0 * pi())
             * ((1.0 / (1.0 + 0.2316419 * abs(z)))
                * (0.319381530
                   + (1.0 / (1.0 + 0.2316419 * abs(z)))
                     * (-0.356563782
                        + (1.0 / (1.0 + 0.2316419 * abs(z)))
                          * (1.781477937
                             + (1.0 / (1.0 + 0.2316419 * abs(z)))
                               * (-1.821255978
                                  + (1.0 / (1.0 + 0.2316419 * abs(z)))
                                    * 1.330274429))))), 6) AS p_two_sided
FROM zz
"""
)


# ---------------------------------------------------------------------------
# grouped probit twin of the Berkson logit + the link-function duel
# ---------------------------------------------------------------------------

def _probit_fit_terms(sf_dir: str):
    """Grouped probit by minimum normit chi-square (Berkson's probit
    twin): z_q = qnorm(p~) at p~ = (r+.5)/(n+1), weights
    w = n phi(z)^2 / (p(1-p)), WLS line — closed forms with the
    Acklam quantile, identical in both engines. Returns the 50-cell
    grid plus both links' fits."""
    from ocr_pipeline_ray.pipelines.relational import _return_quantity_grid

    g = _return_quantity_grid(sf_dir)
    q = g["q"].to_numpy("int64").astype("float64")
    n = g["n"].to_numpy("int64").astype("float64")
    r = g["r"].to_numpy("int64").astype("float64")
    p = (r + 0.5) / (n + 1.0)
    z = np.array([_qnorm_acklam(v) for v in p])
    phi = np.exp(-z * z / 2.0) / np.sqrt(2.0 * np.pi)
    w = n * phi * phi / (p * (1.0 - p))
    sw = w.sum()
    xb = (w * q).sum() / sw
    yb = (w * z).sum() / sw
    b = float((w * (q - xb) * (z - yb)).sum() / (w * (q - xb) ** 2).sum())
    a = float(yb - b * xb)
    # logit fit (same as berkson_logit machinery)
    lo = np.log((r + 0.5) / (n - r + 0.5))
    wl = n * p * (1.0 - p)
    swl = wl.sum()
    xbl = (wl * q).sum() / swl
    ybl = (wl * lo).sum() / swl
    bl = float((wl * (q - xbl) * (lo - ybl)).sum() / (wl * (q - xbl) ** 2).sum())
    al = float(ybl - bl * xbl)
    return q, n, r, a, b, al, bl


def berkson_probit_return_by_quantity(sf_dir: str) -> pd.DataFrame:
    """The probit twin of the Berkson logit: grouped minimum
    NORMIT chi-square — empirical normits qnorm((r+.5)/(n+1)) with
    the textbook n phi^2/(pq) weights, WLS closed form (Bliss's
    bioassay estimator, pre-computer like Berkson's) — intercept,
    per-unit slope, and the slope times 1.6 next to it: the folk
    logit-probit conversion whose accuracy the duel query audits."""
    q, n, r, a, b, al, bl = _probit_fit_terms(sf_dir)
    return pd.DataFrame(
        {
            "intercept": [round(a, 6)],
            "slope_per_unit": [round(b, 8)],
            "slope_x16": [round(1.6 * b, 8)],
        }
    )


_PROBIT_BASE_SQL = (
    """
WITH g AS (
  SELECT CAST(l_quantity AS BIGINT) AS q, count(*) * 1.0 AS n,
         sum(CASE WHEN l_returnflag = 'R' THEN 1 ELSE 0 END) * 1.0 AS r
  FROM lineitem GROUP BY 1
),
t AS (
  SELECT q, n, r, (r + 0.5) / (n + 1.0) AS p,
         ln((r + 0.5) / (n - r + 0.5)) AS lo,
         ("""
    + _qnorm_sql("(r + 0.5) / (n + 1.0)")
    + """) AS z
  FROM g
),
t2 AS (
  SELECT q, n, r, p, lo, z,
         n * exp(-z * z) / (2.0 * pi()) / (p * (1.0 - p)) AS wp,
         n * p * (1.0 - p) AS wl
  FROM t
),
mp AS (
  SELECT sum(wp * q) / sum(wp) AS xb, sum(wp * z) / sum(wp) AS yb FROM t2
),
fp AS (
  SELECT (SELECT yb FROM mp)
         - (SELECT sum(wp * (q - (SELECT xb FROM mp)) * (z - (SELECT yb FROM mp))) FROM t2)
           / (SELECT sum(wp * pow(q - (SELECT xb FROM mp), 2)) FROM t2)
           * (SELECT xb FROM mp) AS a,
         (SELECT sum(wp * (q - (SELECT xb FROM mp)) * (z - (SELECT yb FROM mp))) FROM t2)
         / (SELECT sum(wp * pow(q - (SELECT xb FROM mp), 2)) FROM t2) AS b
),
ml AS (
  SELECT sum(wl * q) / sum(wl) AS xb, sum(wl * lo) / sum(wl) AS yb FROM t2
),
fl AS (
  SELECT (SELECT yb FROM ml)
         - (SELECT sum(wl * (q - (SELECT xb FROM ml)) * (lo - (SELECT yb FROM ml))) FROM t2)
           / (SELECT sum(wl * pow(q - (SELECT xb FROM ml), 2)) FROM t2)
           * (SELECT xb FROM ml) AS a,
         (SELECT sum(wl * (q - (SELECT xb FROM ml)) * (lo - (SELECT yb FROM ml))) FROM t2)
         / (SELECT sum(wl * pow(q - (SELECT xb FROM ml), 2)) FROM t2) AS b
)
"""
)

BERKSON_PROBIT_RETURN_BY_QUANTITY_SQL = (
    _PROBIT_BASE_SQL
    + """
SELECT round(a, 6) AS intercept,
       round(b, 8) AS slope_per_unit,
       round(1.6 * b, 8) AS slope_x16
FROM fp
"""
)


def link_function_duel(sf_dir: str) -> pd.DataFrame:
    """Does the link matter? Pearson X^2 of the fitted logit and
    probit curves against the exact 50-cell counts (fitted rates
    via the shared A-S Phi / logistic, evaluated identically in
    both engines), the winner, and the empirical slope ratio
    logit/probit beside the folk 1.6 — on a fat-middle grid like
    this the links differ only in the tails, which is exactly where
    the X^2 terms say so."""
    from ocr_pipeline_ray.pipelines.relational import _norm_cdf_as

    q, n, r, a, b, al, bl = _probit_fit_terms(sf_dir)
    p_probit = _norm_cdf_as(a + b * q)
    p_logit = 1.0 / (1.0 + np.exp(-(al + bl * q)))
    x2p = float(((r - n * p_probit) ** 2 / (n * p_probit * (1.0 - p_probit))).sum())
    x2l = float(((r - n * p_logit) ** 2 / (n * p_logit * (1.0 - p_logit))).sum())
    return pd.DataFrame(
        {
            "x2_logit": [round(x2l, 6)],
            "x2_probit": [round(x2p, 6)],
            "winner": ["logit" if x2l < x2p else "probit"],
            "slope_ratio": [round(bl / b, 6)],
        }
    )


LINK_FUNCTION_DUEL_SQL = (
    _PROBIT_BASE_SQL
    + """,
pred AS (
  SELECT t2.q, t2.n, t2.r,
         1.0 / (1.0 + exp(-((SELECT a FROM fl) + (SELECT b FROM fl) * t2.q))) AS pl,
         (SELECT a FROM fp) + (SELECT b FROM fp) * t2.q AS zp
  FROM t2
),
pp AS (
  SELECT q, n, r, pl,
         CASE WHEN zp >= 0
              THEN 1.0 - exp(-zp * zp / 2.0) / sqrt(2.0 * pi())
                   * ((1.0 / (1.0 + 0.2316419 * abs(zp)))
                      * (0.319381530
                         + (1.0 / (1.0 + 0.2316419 * abs(zp)))
                           * (-0.356563782
                              + (1.0 / (1.0 + 0.2316419 * abs(zp)))
                                * (1.781477937
                                   + (1.0 / (1.0 + 0.2316419 * abs(zp)))
                                     * (-1.821255978
                                        + (1.0 / (1.0 + 0.2316419 * abs(zp)))
                                          * 1.330274429)))))
              ELSE exp(-zp * zp / 2.0) / sqrt(2.0 * pi())
                   * ((1.0 / (1.0 + 0.2316419 * abs(zp)))
                      * (0.319381530
                         + (1.0 / (1.0 + 0.2316419 * abs(zp)))
                           * (-0.356563782
                              + (1.0 / (1.0 + 0.2316419 * abs(zp)))
                                * (1.781477937
                                   + (1.0 / (1.0 + 0.2316419 * abs(zp)))
                                     * (-1.821255978
                                        + (1.0 / (1.0 + 0.2316419 * abs(zp)))
                                          * 1.330274429)))))
         END AS pz
  FROM pred
),
x2 AS (
  SELECT sum(pow(r - n * pl, 2) / (n * pl * (1.0 - pl))) AS x2l,
         sum(pow(r - n * pz, 2) / (n * pz * (1.0 - pz))) AS x2p
  FROM pp
)
SELECT round(x2l, 6) AS x2_logit,
       round(x2p, 6) AS x2_probit,
       CASE WHEN x2l < x2p THEN 'logit' ELSE 'probit' END AS winner,
       round((SELECT b FROM fl) / (SELECT b FROM fp), 6) AS slope_ratio
FROM x2
"""
)


# ---------------------------------------------------------------------------
# rankit normality: Shapiro-Francia + the Q-Q plot fit on daily revenue
# ---------------------------------------------------------------------------

def _rankit_terms(sf_dir: str):
    """Shared rankit machinery: the sorted daily revenue series and
    Blom scores qnorm((i - 3/8)/(n + 1/4)) via the Acklam
    quantile — day-dimension arithmetic, identical in SQL."""
    from ocr_pipeline_ray.pipelines.relational import _daily_rev_cents

    daily = _daily_rev_cents(sf_dir)
    y = np.sort(daily["rev_c"].to_numpy("int64").astype("float64")) / 100.0
    n = len(y)
    m = np.array(
        [_qnorm_acklam((i - 0.375) / (n + 0.25)) for i in range(1, n + 1)]
    )
    return y, m


def shapiro_francia_daily_revenue(sf_dir: str) -> pd.DataFrame:
    """Shapiro-Francia normality statistic for daily revenue:
    W' = the squared correlation between the ORDER STATISTICS and
    their Blom rankit scores — the probability-plot-straightness
    number (1 = perfectly normal), the computationally honest
    sibling of Shapiro-Wilk whose coefficients need no tabled
    covariances and hence mirror exactly in SQL; reported with
    1 - W' (the bend) beside it."""
    y, m = _rankit_terms(sf_dir)
    n = float(len(y))
    cy = y - y.mean()
    cm = m - m.mean()
    w = float(((cy * cm).sum()) ** 2 / ((cy * cy).sum() * (cm * cm).sum()))
    return pd.DataFrame(
        {
            "n_days": pd.Series([int(n)], dtype="int64"),
            "w_prime": [round(w, 6)],
            "one_minus_w": [round(1.0 - w, 6)],
        }
    )


_RANKIT_SQL = (
    """
WITH d AS (
  SELECT o_orderdate AS day,
         SUM(CAST(round(o_totalprice * 100) AS BIGINT)) / 100.0 AS y
  FROM orders GROUP BY 1
),
rk AS (
  SELECT y, row_number() OVER (ORDER BY y, day) AS i,
         count(*) OVER () AS n
  FROM d
),
sc AS (
  SELECT y, ("""
    + _qnorm_sql("(i - 0.375) / (n + 0.25)")
    + """) AS m
  FROM rk
)
"""
)

SHAPIRO_FRANCIA_DAILY_REVENUE_SQL = (
    _RANKIT_SQL
    + """,
mm AS (
  SELECT count(*) * 1.0 AS n, avg(y) AS ay, avg(m) AS am,
         sum((y - (SELECT avg(y) FROM sc)) * (m - (SELECT avg(m) FROM sc))) AS cym,
         sum(pow(y - (SELECT avg(y) FROM sc), 2)) AS cyy,
         sum(pow(m - (SELECT avg(m) FROM sc), 2)) AS cmm
  FROM sc
)
SELECT CAST(n AS BIGINT) AS n_days,
       round(cym * cym / (cyy * cmm), 6) AS w_prime,
       round(1.0 - cym * cym / (cyy * cmm), 6) AS one_minus_w
FROM mm
"""
)


def qq_plot_fit_daily_revenue(sf_dir: str) -> pd.DataFrame:
    """The Q-Q plot's fitted line as numbers: OLS of the order
    statistics on the Blom scores gives the probability-plot
    estimates of location (intercept) and scale (slope) — the
    graphical estimator analysts eyeball — compared against the
    moment mean and sd: slope/sd far from 1 localizes WHERE
    normality fails (heavy tails inflate the moment sd above the
    plot slope; skew splits the means)."""
    y, m = _rankit_terms(sf_dir)
    n = float(len(y))
    cm = m - m.mean()
    slope = float((cm * y).sum() / (cm * cm).sum())
    intercept = float(y.mean() - slope * m.mean())
    mu = float(y.mean())
    sd = float(np.sqrt(((y - mu) ** 2).sum() / (n - 1.0)))
    return pd.DataFrame(
        {
            "plot_location": [round(intercept, 4)],
            "plot_scale": [round(slope, 4)],
            "moment_mean": [round(mu, 4)],
            "moment_sd": [round(sd, 4)],
            "scale_ratio": [round(slope / sd, 6)],
        }
    )


QQ_PLOT_FIT_DAILY_REVENUE_SQL = (
    _RANKIT_SQL
    + """,
mm AS (
  SELECT count(*) * 1.0 AS n, avg(y) AS ay, avg(m) AS am,
         sum((m - (SELECT avg(m) FROM sc)) * y) AS cmy,
         sum(pow(m - (SELECT avg(m) FROM sc), 2)) AS cmm,
         sum(pow(y - (SELECT avg(y) FROM sc), 2)) AS cyy
  FROM sc
),
fit AS (
  SELECT n, ay, am, cmy / cmm AS slope,
         ay - (cmy / cmm) * am AS intercept,
         sqrt(cyy / (n - 1.0)) AS sd
  FROM mm
)
SELECT round(intercept, 4) AS plot_location,
       round(slope, 4) AS plot_scale,
       round(ay, 4) AS moment_mean,
       round(sd, 4) AS moment_sd,
       round(slope / sd, 6) AS scale_ratio
FROM fit
"""
)


# ---------------------------------------------------------------------------
# normal-theory interval estimates via Wilson-Hilferty chi-square quantiles
# ---------------------------------------------------------------------------

def _wh_chi2_quantile(p: float, nu: float) -> float:
    """Wilson-Hilferty chi-square quantile: nu (1 - 2/(9 nu) +
    qnorm(p) sqrt(2/(9 nu)))^3 — closed form with the Acklam
    quantile, identical in both engines (relative error < 1e-3 for
    the nu used here, far inside round-6 after the ratio forms)."""
    z = _qnorm_acklam(p)
    return nu * (1.0 - 2.0 / (9.0 * nu) + z * np.sqrt(2.0 / (9.0 * nu))) ** 3


def _price_moments(sf_dir: str):
    from ocr_pipeline_ray.pipelines.relational import _price_cents_hist

    h = _price_cents_hist(sf_dir)
    v = h["v"].to_numpy("int64").astype("float64") / 100.0
    c = h["c"].to_numpy("int64").astype("float64")
    n = float(c.sum())
    mu = float((v * c).sum()) / n
    s2 = float(((v - mu) ** 2 * c).sum()) / (n - 1.0)
    return n, mu, s2


def variance_ci_daily_price(sf_dir: str) -> pd.DataFrame:
    """Normal-theory confidence interval for the order-price
    VARIANCE: [(n-1)s^2/chi2_hi, (n-1)s^2/chi2_lo] with the
    chi-square quantiles from the Wilson-Hilferty cube — the
    interval nobody reports because it needed tables, restored as a
    closed form; the sd CI beside it, and the n-driven narrowness
    (hi/lo ratio) showing how fast variance uncertainty collapses."""
    n, mu, s2 = _price_moments(sf_dir)
    nu = n - 1.0
    lo_q = _wh_chi2_quantile(0.025, nu)
    hi_q = _wh_chi2_quantile(0.975, nu)
    v_lo = nu * s2 / hi_q
    v_hi = nu * s2 / lo_q
    return pd.DataFrame(
        {
            "s2": [round(s2, 2)],
            "var_ci_lo": [round(v_lo, 2)],
            "var_ci_hi": [round(v_hi, 2)],
            "sd_ci_lo": [round(float(np.sqrt(v_lo)), 4)],
            "sd_ci_hi": [round(float(np.sqrt(v_hi)), 4)],
            "width_ratio": [round(v_hi / v_lo, 6)],
        }
    )


def _wh_sql(p_expr: str, nu_expr: str) -> str:
    return (
        f"(({nu_expr}) * pow(1.0 - 2.0 / (9.0 * ({nu_expr})) + ("
        + _qnorm_sql(p_expr)
        + f") * sqrt(2.0 / (9.0 * ({nu_expr}))), 3))"
    )


_PRICE_MOM_SQL = """
WITH h AS (
  SELECT CAST(round(o_totalprice * 100) AS BIGINT) / 100.0 AS v, count(*) AS c
  FROM orders GROUP BY 1
),
mm AS (
  SELECT sum(c) * 1.0 AS n,
         sum(v * c) / sum(c) AS mu
  FROM h
),
s2t AS (
  SELECT (SELECT n FROM mm) AS n, (SELECT mu FROM mm) AS mu,
         sum(pow(v - (SELECT mu FROM mm), 2) * c) / ((SELECT n FROM mm) - 1.0) AS s2
  FROM h
)
"""

VARIANCE_CI_DAILY_PRICE_SQL = (
    _PRICE_MOM_SQL
    + """,
ci AS (
  SELECT n, s2,
         (n - 1.0) * s2 / """
    + _wh_sql("0.975", "(n - 1.0)")
    + """ AS v_lo,
         (n - 1.0) * s2 / """
    + _wh_sql("0.025", "(n - 1.0)")
    + """ AS v_hi
  FROM s2t
)
SELECT round(s2, 2) AS s2,
       round(v_lo, 2) AS var_ci_lo,
       round(v_hi, 2) AS var_ci_hi,
       round(sqrt(v_lo), 4) AS sd_ci_lo,
       round(sqrt(v_hi), 4) AS sd_ci_hi,
       round(v_hi / v_lo, 6) AS width_ratio
FROM ci
"""
)


def normal_tolerance_vs_wilks(sf_dir: str) -> pd.DataFrame:
    """Howe's normal-theory two-sided tolerance interval covering
    90% of order prices with 95% confidence — k = z_0.95
    sqrt(nu (1 + 1/n) / chi2_0.05(nu)) via Wilson-Hilferty — beside
    the exact moments it needs; the parametric interval is MUCH
    narrower than the distribution-free Wilks order-statistic one
    on the same data exactly when the normal assumption is doing
    heavy lifting, and the width is the price of dropping it."""
    n, mu, s2 = _price_moments(sf_dir)
    nu = n - 1.0
    k = _qnorm_acklam(0.95) * float(
        np.sqrt(nu * (1.0 + 1.0 / n) / _wh_chi2_quantile(0.05, nu))
    )
    sd = float(np.sqrt(s2))
    return pd.DataFrame(
        {
            "k_factor": [round(k, 6)],
            "tol_lo": [round(mu - k * sd, 2)],
            "tol_hi": [round(mu + k * sd, 2)],
            "width": [round(2.0 * k * sd, 2)],
        }
    )


NORMAL_TOLERANCE_VS_WILKS_SQL = (
    _PRICE_MOM_SQL
    + """,
kk AS (
  SELECT n, mu, s2,
         ("""
    + _qnorm_sql("0.95")
    + """) * sqrt((n - 1.0) * (1.0 + 1.0 / n) / """
    + _wh_sql("0.05", "(n - 1.0)")
    + """) AS k
  FROM s2t
)
SELECT round(k, 6) AS k_factor,
       round(mu - k * sqrt(s2), 2) AS tol_lo,
       round(mu + k * sqrt(s2), 2) AS tol_hi,
       round(2.0 * k * sqrt(s2), 2) AS width
FROM kk
"""
)


# ---------------------------------------------------------------------------
# Tukey g-and-h fit of order prices by Hoaglin's quantile estimators
# ---------------------------------------------------------------------------

_GH_PS = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45)


def _gh_terms(sf_dir: str):
    """Shared g-and-h machinery: exact order-statistic quantiles of
    order price at the symmetric p grid (rank ceil(p n)), Acklam
    z_p, Hoaglin's per-p skew estimates g_p, their median g, and
    the log-spread regression that yields h and ln B — every step a
    closed form mirrored in SQL."""
    from ocr_pipeline_ray.pipelines.relational import _price_cents_hist

    h = _price_cents_hist(sf_dir)
    v = h["v"].to_numpy("int64")
    c = h["c"].to_numpy("int64")
    n = int(c.sum())
    cum = np.cumsum(c)

    def _q_pct(pct):
        # integer-exact rank ceil(pct n / 100): no float knife edges
        rank = (pct * n + 99) // 100
        return float(v[np.searchsorted(cum, rank)]) / 100.0

    med = _q_pct(50)
    gps, zs, lows, highs = [], [], [], []
    for p in _GH_PS:
        pct = int(round(p * 100))
        zp = abs(_qnorm_acklam(p))
        xlo, xhi = _q_pct(pct), _q_pct(100 - pct)
        gps.append(-(1.0 / zp) * float(np.log((xhi - med) / (med - xlo))))
        zs.append(zp)
        lows.append(xlo)
        highs.append(xhi)
    g = float(np.median(np.array(gps)))
    # spread regression: ln[ g(x_hi - x_lo) / (e^{g z} - e^{-g z}) ] = ln B + h z^2/2
    y = np.array(
        [
            np.log(
                g * (hi_ - lo_) / (np.exp(g * z) - np.exp(-g * z))
            )
            for z, lo_, hi_ in zip(zs, lows, highs)
        ]
    )
    x = np.array([z * z / 2.0 for z in zs])
    xm, ym = x.mean(), y.mean()
    hh = float(((x - xm) * (y - ym)).sum() / ((x - xm) ** 2).sum())
    lnb = float(ym - hh * xm)
    return n, med, g, hh, float(np.exp(lnb))


def g_and_h_fit_price(sf_dir: str) -> pd.DataFrame:
    """Tukey's g-and-h distribution fitted to order prices by
    Hoaglin's closed quantile estimators: per-p skew reads
    g_p = -(1/z_p) ln((x_{1-p} - med)/(med - x_p)) medianed over
    the grid, then h and B from the log-spread line against
    z^2/2 — g is pure asymmetry, h pure tail heaviness (h > 0 means
    EVERY moment beyond 1/h diverges), the four-number shape
    audit quantile matching makes exactly oracle-able where MLE
    cannot be."""
    n, med, g, hh, b = _gh_terms(sf_dir)
    return pd.DataFrame(
        {
            "median_a": [round(med, 2)],
            "g_skew": [round(g, 6)],
            "h_tail": [round(hh, 6)],
            "scale_b": [round(b, 4)],
        }
    )


def _gh_base_sql() -> str:
    pcts = ", ".join(str(int(round(p * 100))) for p in _GH_PS)
    return (
        f"""
WITH h AS (
  SELECT CAST(round(o_totalprice * 100) AS BIGINT) AS v, count(*) AS c
  FROM orders GROUP BY 1
),
nn AS (SELECT sum(c) AS n FROM h),
rkv AS (SELECT v, sum(c) OVER (ORDER BY v) AS cum FROM h),
qq AS (
  SELECT ps.pct / 100.0 AS p,
         (SELECT min(v) FROM rkv
          WHERE cum >= (ps.pct * (SELECT n FROM nn) + 99) // 100) / 100.0 AS xlo,
         (SELECT min(v) FROM rkv
          WHERE cum >= ((100 - ps.pct) * (SELECT n FROM nn) + 99) // 100) / 100.0 AS xhi
  FROM (SELECT unnest([{pcts}]) AS pct) ps
),
md AS (
  SELECT (SELECT min(v) FROM rkv
          WHERE cum >= (50 * (SELECT n FROM nn) + 99) // 100) / 100.0 AS med
),
gp AS (
  SELECT p, xlo, xhi,
         abs("""
        + _qnorm_sql("p")
        + """) AS z,
         -(1.0 / abs("""
        + _qnorm_sql("p")
        + """))
         * ln((xhi - (SELECT med FROM md)) / ((SELECT med FROM md) - xlo)) AS g_p
  FROM qq
),
gg AS (SELECT median(g_p) AS g FROM gp),
sp AS (
  SELECT z * z / 2.0 AS x,
         ln((SELECT g FROM gg) * (xhi - xlo)
            / (exp((SELECT g FROM gg) * z) - exp(-(SELECT g FROM gg) * z))) AS y
  FROM gp
),
fit AS (
  SELECT (sum(x * y) - count(*) * avg(x) * avg(y))
         / (sum(x * x) - count(*) * avg(x) * avg(x)) AS hh,
         avg(y) - (sum(x * y) - count(*) * avg(x) * avg(y))
                  / (sum(x * x) - count(*) * avg(x) * avg(x)) * avg(x) AS lnb
  FROM sp
)
"""
    )


G_AND_H_FIT_PRICE_SQL = (
    _gh_base_sql().replace(
        "fit AS (",
        "fit AS (",
    )
    + """
SELECT round((SELECT med FROM md), 2) AS median_a,
       round((SELECT g FROM gg), 6) AS g_skew,
       round(hh, 6) AS h_tail,
       round(exp(lnb), 4) AS scale_b
FROM fit
"""
)


def g_and_h_quantile_check(sf_dir: str) -> pd.DataFrame:
    """The fit talking back: fitted g-and-h quantiles
    A + B (e^{g z}-1)/g e^{h z^2/2} against the exact order
    statistics at p = 0.05/0.25/0.5/0.75/0.95 with relative errors
    — four numbers reproducing five quantiles (and the tails
    hardest) is the whole point of the parameterization; where the
    relative error concentrates says which feature (skew vs tail)
    the data refuses to compress."""
    from ocr_pipeline_ray.pipelines.relational import _price_cents_hist

    n, med, g, hh, b = _gh_terms(sf_dir)
    h = _price_cents_hist(sf_dir)
    v = h["v"].to_numpy("int64")
    c = h["c"].to_numpy("int64")
    cum = np.cumsum(c)
    rows = []
    for p in (0.05, 0.25, 0.5, 0.75, 0.95):
        pct = int(round(p * 100))
        z = _qnorm_acklam(p)
        if abs(z) < 1e-12:
            fitted = med
        else:
            fitted = med + b * (np.exp(g * z) - 1.0) / g * np.exp(hh * z * z / 2.0)
        actual = float(v[np.searchsorted(cum, (pct * n + 99) // 100)]) / 100.0
        rows.append(
            {
                "p": round(p, 2),
                "actual": round(actual, 2),
                "fitted": round(float(fitted), 2),
                "rel_err": round(float(fitted) / actual - 1.0, 6),
            }
        )
    return pd.DataFrame(rows)


G_AND_H_QUANTILE_CHECK_SQL = (
    _gh_base_sql()
    + """,
chk AS (
  SELECT ps.pct / 100.0 AS p,
         (SELECT min(v) FROM rkv
          WHERE cum >= (ps.pct * (SELECT n FROM nn) + 99) // 100) / 100.0
           AS actual,
         ("""
    + _qnorm_sql("ps.pct / 100.0")
    + """) AS z
  FROM (SELECT unnest([5, 25, 50, 75, 95]) AS pct) ps
)
SELECT round(p, 2) AS p,
       round(actual, 2) AS actual,
       round(CASE WHEN abs(z) < 1e-12 THEN (SELECT med FROM md)
                  ELSE (SELECT med FROM md)
                       + exp((SELECT lnb FROM fit))
                         * (exp((SELECT g FROM gg) * z) - 1.0) / (SELECT g FROM gg)
                         * exp((SELECT hh FROM fit) * z * z / 2.0)
             END, 2) AS fitted,
       round(CASE WHEN abs(z) < 1e-12 THEN (SELECT med FROM md)
                  ELSE (SELECT med FROM md)
                       + exp((SELECT lnb FROM fit))
                         * (exp((SELECT g FROM gg) * z) - 1.0) / (SELECT g FROM gg)
                         * exp((SELECT hh FROM fit) * z * z / 2.0)
             END / actual - 1.0, 6) AS rel_err
FROM chk ORDER BY p
"""
)


# ---------------------------------------------------------------------------
# Johnson system: Slifker-Shapiro selector + closed-form SU/SB fit
# ---------------------------------------------------------------------------

_SS_Z = 0.524
_SS_PS = (0.05797528178768352, 0.3001392507117573,
          0.6998607492882427, 0.9420247182123165)


def _johnson_terms(sf_dir: str):
    """Shared Slifker-Shapiro machinery: the four order-price
    quantiles at the equally-z-spaced probabilities Phi(+-z),
    Phi(+-3z) for z = 0.524 (the probabilities are precomputed A-S
    literals shared verbatim by both engines), and the spreads
    m = x4-x3, n = x2-x1, p = x3-x2 whose ratio mn/p^2 selects the
    Johnson family."""
    from ocr_pipeline_ray.pipelines.relational import _price_cents_hist

    h = _price_cents_hist(sf_dir)
    v = h["v"].to_numpy("int64")
    c = h["c"].to_numpy("int64")
    n = int(c.sum())
    cum = np.cumsum(c)

    def _q(p):
        return float(v[np.searchsorted(cum, int(np.ceil(p * n)))]) / 100.0

    x1, x2, x3, x4 = (_q(p) for p in _SS_PS)
    m = x4 - x3
    nn = x2 - x1
    p = x3 - x2
    return (x1, x2, x3, x4), m, nn, p


def johnson_family_selector(sf_dir: str) -> pd.DataFrame:
    """Slifker-Shapiro (1980) family selection for order prices:
    four quantiles at equal normal spacings decide the Johnson
    family by the single discriminant mn/p^2 — > 1 unbounded SU,
    < 1 bounded SB, = 1 lognormal SL — the pre-computer answer to
    'which transformation makes this normal', with the tail-spread
    ratios that drive it."""
    (x1, x2, x3, x4), m, nn, p = _johnson_terms(sf_dir)
    d = m * nn / (p * p)
    fam = "SU" if d >= 1.0 else "SB"
    return pd.DataFrame(
        {
            "m_over_p": [round(m / p, 6)],
            "n_over_p": [round(nn / p, 6)],
            "discriminant": [round(d, 6)],
            "family": [fam],
        }
    )


_JOHNSON_SQL = """
WITH h AS (
  SELECT CAST(round(o_totalprice * 100) AS BIGINT) AS v, count(*) AS c
  FROM orders GROUP BY 1
),
nn0 AS (SELECT sum(c) AS n FROM h),
rkv AS (SELECT v, sum(c) OVER (ORDER BY v) AS cum FROM h),
qq AS (
  SELECT
    (SELECT min(v) FROM rkv WHERE cum >= CAST(ceil(0.05797528178768352 * (SELECT n FROM nn0)) AS BIGINT)) / 100.0 AS x1,
    (SELECT min(v) FROM rkv WHERE cum >= CAST(ceil(0.3001392507117573 * (SELECT n FROM nn0)) AS BIGINT)) / 100.0 AS x2,
    (SELECT min(v) FROM rkv WHERE cum >= CAST(ceil(0.6998607492882427 * (SELECT n FROM nn0)) AS BIGINT)) / 100.0 AS x3,
    (SELECT min(v) FROM rkv WHERE cum >= CAST(ceil(0.9420247182123165 * (SELECT n FROM nn0)) AS BIGINT)) / 100.0 AS x4
),
sp AS (
  SELECT x1, x2, x3, x4,
         x4 - x3 AS m, x2 - x1 AS nn, x3 - x2 AS p
  FROM qq
)
"""

JOHNSON_FAMILY_SELECTOR_SQL = (
    _JOHNSON_SQL
    + """
SELECT round(m / p, 6) AS m_over_p,
       round(nn / p, 6) AS n_over_p,
       round(m * nn / (p * p), 6) AS discriminant,
       CASE WHEN m * nn / (p * p) >= 1.0 THEN 'SU' ELSE 'SB' END AS family
FROM sp
"""
)


def johnson_fit_price(sf_dir: str) -> pd.DataFrame:
    """The selected Johnson family's closed-form parameters
    (Slifker-Shapiro, arccosh/arcsinh written as logarithms so both
    engines evaluate letter-identical formulas): shape gamma and
    delta, location xi and scale lam — for SU via the
    arccosh((m/p + n/p)/2) route, for SB via
    arccosh(sqrt((1+p/m)(1+p/n))/2... the bounded twin) — the
    'which transformation makes prices normal' answer as four
    numbers with the family tag."""
    (x1, x2, x3, x4), m, nn, p = _johnson_terms(sf_dir)
    z = _SS_Z
    mp, np_ = m / p, nn / p
    d = mp * np_
    if d >= 1.0:
        fam = "SU"
        t = 0.5 * (mp + np_)
        delta = 2.0 * z / float(np.log(t + np.sqrt(t * t - 1.0)))
        u = (np_ - mp) / (2.0 * float(np.sqrt(d - 1.0)))
        gamma = delta * float(np.log(u + np.sqrt(u * u + 1.0)))
        lam = (
            2.0 * p * float(np.sqrt(d - 1.0))
            / ((mp + np_ - 2.0) * float(np.sqrt(mp + np_ + 2.0)))
        )
        xi = (x3 + x2) / 2.0 + p * (np_ - mp) / (2.0 * (mp + np_ - 2.0))
    else:
        fam = "SB"
        pm, pn = p / m, p / nn
        t = 0.5 * float(np.sqrt((1.0 + pm) * (1.0 + pn)))
        delta = z / float(np.log(t + np.sqrt(t * t - 1.0)))
        u = (pn - pm) * float(
            np.sqrt((1.0 + pm) * (1.0 + pn) - 4.0)
        ) / (2.0 * (pm * pn - 1.0))
        gamma = delta * float(np.log(u + np.sqrt(u * u + 1.0)))
        lam = (
            p
            * float(np.sqrt(((1.0 + pm) * (1.0 + pn) - 2.0) ** 2 - 4.0))
            / (pm * pn - 1.0)
        )
        xi = (
            (x3 + x2) / 2.0
            - lam / 2.0
            + p * (pn - pm) / (2.0 * (pm * pn - 1.0))
        )
    return pd.DataFrame(
        {
            "family": [fam],
            "gamma": [round(gamma, 6)],
            "delta": [round(delta, 6)],
            "xi": [round(xi, 4)],
            "lam": [round(lam, 4)],
        }
    )


JOHNSON_FIT_PRICE_SQL = (
    _JOHNSON_SQL
    + """,
rt AS (
  SELECT x1, x2, x3, x4, m, nn, p,
         m / p AS mp, nn / p AS np_, m * nn / (p * p) AS d
  FROM sp
),
su AS (
  SELECT 'SU' AS family,
         2.0 * 0.524 / ln(0.5 * (mp + np_)
                          + sqrt(0.25 * (mp + np_) * (mp + np_) - 1.0)) AS delta,
         (np_ - mp) / (2.0 * sqrt(d - 1.0)) AS u,
         2.0 * p * sqrt(d - 1.0)
           / ((mp + np_ - 2.0) * sqrt(mp + np_ + 2.0)) AS lam,
         (x3 + x2) / 2.0 + p * (np_ - mp) / (2.0 * (mp + np_ - 2.0)) AS xi,
         d
  FROM rt
),
sb AS (
  SELECT 'SB' AS family,
         0.524 / ln(0.5 * sqrt((1.0 + p / m) * (1.0 + p / nn))
                    + sqrt(0.25 * (1.0 + p / m) * (1.0 + p / nn) - 1.0)) AS delta,
         (p / nn - p / m) * sqrt((1.0 + p / m) * (1.0 + p / nn) - 4.0)
           / (2.0 * ((p / m) * (p / nn) - 1.0)) AS u,
         p * sqrt(pow((1.0 + p / m) * (1.0 + p / nn) - 2.0, 2) - 4.0)
           / ((p / m) * (p / nn) - 1.0) AS lam,
         (x3 + x2) / 2.0
           - p * sqrt(pow((1.0 + p / m) * (1.0 + p / nn) - 2.0, 2) - 4.0)
             / ((p / m) * (p / nn) - 1.0) / 2.0
           + p * (p / nn - p / m) / (2.0 * ((p / m) * (p / nn) - 1.0)) AS xi,
         d
  FROM rt
),
pick AS (
  SELECT * FROM su WHERE d >= 1.0
  UNION ALL
  SELECT * FROM sb WHERE d < 1.0
)
SELECT family,
       round(delta * ln(u + sqrt(u * u + 1.0)), 6) AS gamma,
       round(delta, 6) AS delta,
       round(xi, 4) AS xi,
       round(lam, 4) AS lam
FROM pick
"""
)


# ---------------------------------------------------------------------------
# Vasicek spacing entropy + the maximum-entropy normality test
# ---------------------------------------------------------------------------

def _vasicek_terms(sf_dir: str):
    """Shared m-spacing entropy machinery on order prices: ranks
    1..n mapped to order-statistic values through the cents
    histogram (no sample expansion — searchsorted per rank), window
    m = floor(sqrt(n) + 0.5), spacings floored at one cent so tied
    blocks cannot produce ln 0 (documented, identical in both
    engines)."""
    from ocr_pipeline_ray.pipelines.relational import _price_cents_hist

    h = _price_cents_hist(sf_dir)
    v = h["v"].to_numpy("int64")
    c = h["c"].to_numpy("int64")
    n = int(c.sum())
    cum = np.cumsum(c)
    m = int(np.floor(np.sqrt(n) + 0.5))
    ranks = np.arange(1, n + 1)
    hi = np.minimum(ranks + m, n)
    lo = np.maximum(ranks - m, 1)
    x_hi = v[np.searchsorted(cum, hi)].astype("float64") / 100.0
    x_lo = v[np.searchsorted(cum, lo)].astype("float64") / 100.0
    sp = np.maximum(x_hi - x_lo, 0.01)
    hv = float(np.log(n * sp / (2.0 * m)).mean())
    mu = float((v * c).sum()) / n / 100.0
    sd = float(
        np.sqrt((((v / 100.0) - mu) ** 2 * c).sum() / (n - 1.0))
    )
    return n, m, hv, sd


def vasicek_entropy_price(sf_dir: str) -> pd.DataFrame:
    """Vasicek's m-spacing estimator of the DIFFERENTIAL entropy of
    order prices: H = mean ln(n (x_(i+m) - x_(i-m)) / 2m) with
    m = floor(sqrt n) — the continuous companion of the discrete
    Miller-Madow/Chao-Shen table, and the quantity exp(H) is the
    'effective support width' the price distribution occupies
    (dollars of genuine spread after discounting clumping)."""
    n, m, hv, sd = _vasicek_terms(sf_dir)
    return pd.DataFrame(
        {
            "n": pd.Series([n], dtype="int64"),
            "m_window": pd.Series([m], dtype="int64"),
            "entropy_nats": [round(hv, 6)],
            "eff_width": [round(float(np.exp(hv)), 2)],
        }
    )


_VASICEK_SQL = """
WITH h AS (
  SELECT CAST(round(o_totalprice * 100) AS BIGINT) AS v, count(*) AS c
  FROM orders GROUP BY 1
),
nn AS (
  SELECT sum(c) AS n,
         CAST(floor(sqrt(sum(c)) + 0.5) AS BIGINT) AS m
  FROM h
),
rkv AS (SELECT v, sum(c) OVER (ORDER BY v) AS cum FROM h),
ranks AS (
  SELECT unnest(generate_series(1, CAST((SELECT n FROM nn) AS BIGINT))) AS i
),
spc AS (
  SELECT i,
         greatest(
           ((SELECT min(v) FROM rkv
             WHERE cum >= least(i + (SELECT m FROM nn), (SELECT n FROM nn)))
            - (SELECT min(v) FROM rkv
               WHERE cum >= greatest(i - (SELECT m FROM nn), 1))) / 100.0,
           0.01) AS sp
  FROM ranks
),
hv AS (
  SELECT avg(ln((SELECT n FROM nn) * sp / (2.0 * (SELECT m FROM nn)))) AS h
  FROM spc
)
"""

VASICEK_ENTROPY_PRICE_SQL = (
    _VASICEK_SQL
    + """
SELECT CAST((SELECT n FROM nn) AS BIGINT) AS n,
       CAST((SELECT m FROM nn) AS BIGINT) AS m_window,
       round((SELECT h FROM hv), 6) AS entropy_nats,
       round(exp((SELECT h FROM hv)), 2) AS eff_width
"""
)


def entropy_normality_price(sf_dir: str) -> pd.DataFrame:
    """Vasicek's maximum-entropy normality test: among ALL
    distributions with this sd, the normal uniquely maximizes
    entropy at ln(sd sqrt(2 pi e)) — so K = exp(H)/(sd sqrt(2 pi e))
    is <= 1 with equality iff normal, and 1 - K is the entropy
    DEFICIT: how much more structured than noise the price
    distribution is (the information-theoretic cousin of
    Shapiro-Francia, agreeing with it is the cross-check)."""
    n, m, hv, sd = _vasicek_terms(sf_dir)
    kmax = sd * float(np.sqrt(2.0 * np.pi * np.e))
    k = float(np.exp(hv)) / kmax
    return pd.DataFrame(
        {
            "entropy_nats": [round(hv, 6)],
            "max_entropy_nats": [round(float(np.log(kmax)), 6)],
            "k_statistic": [round(k, 6)],
            "entropy_deficit": [round(1.0 - k, 6)],
        }
    )


ENTROPY_NORMALITY_PRICE_SQL = (
    _VASICEK_SQL
    + """,
sdd AS (
  SELECT sqrt(sum(pow(v / 100.0 - (SELECT sum(v * c) * 1.0 / sum(c) FROM h) / 100.0, 2) * c)
              / ((SELECT n FROM nn) - 1.0)) AS sd
  FROM h
),
kk AS (
  SELECT (SELECT h FROM hv) AS hv,
         (SELECT sd FROM sdd) * sqrt(2.0 * pi() * exp(1.0)) AS kmax
)
SELECT round(hv, 6) AS entropy_nats,
       round(ln(kmax), 6) AS max_entropy_nats,
       round(exp(hv) / kmax, 6) AS k_statistic,
       round(1.0 - exp(hv) / kmax, 6) AS entropy_deficit
FROM kk
"""
)
