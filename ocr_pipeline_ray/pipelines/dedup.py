"""Deduplication pipelines over the ``documents`` table — exact,
MinHash+LSH, SimHash, n-gram Jaccard, embedding-cosine near-dup.

Scale shapes (per the aggregation-at-scale discipline):

* exact: hash column per batch (vectorized) -> ``groupby(hash)`` keep
  min doc_id. ONE shuffle over (hash, doc_id) pairs only — the text
  never moves.
* MinHash-LSH: signature per row (``map_batches``) -> explode to
  (band_id, band_key, doc_id) rows -> ``groupby(band)`` emits
  candidate pairs -> exact-Jaccard verify on the pair list. The
  all-pairs matrix is never formed; only same-bucket pairs shuffle.
* SimHash: 64-bit fingerprint per row -> pigeonhole band buckets ->
  verify Hamming distance <= threshold.
* embedding near-dup: blocked cosine against a broadcast matrix (see
  similarity.py) — candidates above threshold.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from ocr_pipeline_ray.functions.hashing import (
    jaccard,
    lsh_band_keys,
    minhash_params,
    shingles,
    simhash64,
    simhash_band_keys,
)
from ocr_pipeline_ray.functions.textstats import tokenize
from ocr_pipeline_ray.pipelines.relational import _read

MINHASH_PERMS = 128
LSH_BANDS = 32
LSH_ROWS = 4  # 32 bands x 4 rows: ~50% candidate recall at J=0.5, >99% at J=0.8


def dedup_exact(sf_dir: str) -> pd.DataFrame:
    """Exact dedup: surviving doc_id = min(doc_id) per identical text.

    Hash-partition + per-group first (SURVEY-prompt dedup item). The
    md5 is computed per batch; the groupby shuffles only (hash, doc_id).
    """
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def add_hash(t: pa.Table) -> pa.Table:
        hashes = [hashlib.md5(s.encode("utf-8")).hexdigest() for s in t["text"].to_pylist()]
        return pa.Table.from_arrays(
            [t["doc_id"], pa.array(hashes, pa.string())], names=["doc_id", "h"]
        )

    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    # nearly every hash group has one member, so the key is maximally
    # high-cardinality — the bucketed aggregate keeps the min-doc_id
    # reduction vectorized (Ray's groupby().aggregate() pays a
    # per-group Python cost in reduce; see bucketed_aggregate)
    out = (
        bucketed_aggregate(
            ds.map_batches(add_hash, batch_format="pyarrow"),
            "h", {"doc_id": ("doc_id", "min")},
        )
        .select_columns(["doc_id"])
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    return out


DEDUP_EXACT_SQL = """
SELECT min(doc_id) AS doc_id FROM documents GROUP BY md5(text) ORDER BY doc_id
"""


class _MinhashBands:
    """Actor: MinHash params built once; per batch emit band rows.

    Batch-vectorized: the permutation hashes are computed ONCE over the
    batch's unique shingle set (cross-doc shingle overlap is high in
    real corpora), then each doc's signature is a min-reduction over
    its slice — instead of an independent outer product per doc.
    """

    def __init__(self, num_perm=MINHASH_PERMS, bands=LSH_BANDS, rows=LSH_ROWS, shingle_k=3):
        self.a, self.b = minhash_params(num_perm)
        self.bands, self.rows, self.k = bands, rows, shingle_k

    def __call__(self, t: pa.Table) -> pa.Table:
        from ocr_pipeline_ray.functions.hashing import _MAX_HASH, _MERSENNE

        texts = t["text"].to_pylist()
        ids = t["doc_id"].to_pylist()
        sh_list = [shingles(s, self.k) for s in texts]
        lens = np.array([s.size for s in sh_list])
        doc_ids, band_ids, band_keys = [], [], []
        if lens.sum() > 0:
            all_sh = np.concatenate([s for s in sh_list if s.size])
            uniq, inv = np.unique(all_sh & _MAX_HASH, return_inverse=True)
            # (num_perm, n_unique) permutation values, computed once
            phv = ((np.outer(self.a, uniq) + self.b[:, None]) % _MERSENNE) & _MAX_HASH
            pos = 0
            for doc_id, n in zip(ids, lens):
                if n == 0:
                    sig = np.full(self.a.shape[0], _MAX_HASH, dtype=np.uint64)
                else:
                    sig = phv[:, inv[pos : pos + n]].min(axis=1)
                    pos += n
                for band_id, key in enumerate(lsh_band_keys(sig, self.bands, self.rows)):
                    doc_ids.append(doc_id)
                    band_ids.append(band_id)
                    band_keys.append(key)
        else:
            for doc_id in ids:
                sig = np.full(self.a.shape[0], _MAX_HASH, dtype=np.uint64)
                for band_id, key in enumerate(lsh_band_keys(sig, self.bands, self.rows)):
                    doc_ids.append(doc_id)
                    band_ids.append(band_id)
                    band_keys.append(key)
        return pa.Table.from_arrays(
            [
                pa.array(doc_ids, pa.int64()),
                pa.array(band_ids, pa.int32()),
                pa.array(band_keys, pa.int64()),
            ],
            names=["doc_id", "band_id", "band_key"],
        )


N_COARSE_BUCKETS = 64


def _add_coarse_bucket(t: pa.Table) -> pa.Table:
    """Hash (band_id, band_key) into a few coarse shuffle buckets so
    candidate-pair extraction is one vectorized call per COARSE bucket
    instead of one Python call per (band_id, band_key) group — the
    same per-tiny-group-overhead fix as reassembly's pack_bucket."""
    b = np.asarray(t["band_id"].to_pandas(), dtype=np.int64)
    k = np.asarray(t["band_key"].to_pandas(), dtype=np.int64)
    h = (b * np.int64(0x9E3779B1) ^ k) % N_COARSE_BUCKETS
    return t.append_column("cbucket", pa.array(h, pa.int64()))


def _pairs_in_coarse_bucket(g: pd.DataFrame) -> pd.DataFrame:
    """All doc pairs sharing an exact (band_id, band_key) within this
    coarse bucket: lexsort once, find equal-key runs with numpy, emit
    pairs only for runs of >=2 (actual candidates are rare)."""
    b = g["band_id"].to_numpy()
    k = g["band_key"].to_numpy()
    d = g["doc_id"].to_numpy()
    order = np.lexsort((d, k, b))
    b, k, d = b[order], k[order], d[order]
    if len(d) < 2:
        return pd.DataFrame({"a": pd.Series(dtype="int64"), "b": pd.Series(dtype="int64")})
    new_run = np.concatenate(([0], np.flatnonzero((b[1:] != b[:-1]) | (k[1:] != k[:-1])) + 1, [len(d)]))
    out_a, out_b = [], []
    for s, e in zip(new_run[:-1], new_run[1:]):
        if e - s < 2:
            continue
        ids = np.unique(d[s:e])
        if len(ids) < 2:
            continue
        ii, jj = np.triu_indices(len(ids), k=1)
        out_a.append(ids[ii])
        out_b.append(ids[jj])
    if not out_a:
        return pd.DataFrame({"a": pd.Series(dtype="int64"), "b": pd.Series(dtype="int64")})
    return pd.DataFrame({"a": np.concatenate(out_a), "b": np.concatenate(out_b)})


# ONE planted-id offset across every planted oracle (text, embedding,
# ANN): the selections (b - a == offset) and the f-string SQL literals
# all depend on this staying equal everywhere
from ocr_pipeline_ray.pipelines.similarity import PLANT_OFFSET as _CLONE_OFFSET


def _clone_augment(plant_every: int):
    """Distributed verbatim-clone planting: every ``plant_every``-th
    doc re-emitted under ``doc_id + _CLONE_OFFSET`` inside the batch
    UDF (no driver materialization)."""

    def _f(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].combine_chunks().to_numpy(zero_copy_only=False)
        clones = t.filter(pa.array((ids % plant_every) == 0))
        new_ids = pa.array(
            clones["doc_id"].combine_chunks().to_numpy(zero_copy_only=False)
            + _CLONE_OFFSET,
            pa.int64(),
        )
        clones = clones.set_column(
            clones.schema.get_field_index("doc_id"), "doc_id", new_ids
        )
        return pa.concat_tables([t, clones])

    return _f


def minhash_candidate_pairs(
    sf_dir: str, shingle_k: int = 3, plant_every: int | None = None
) -> pd.DataFrame:
    """LSH candidate pairs (unverified), deduplicated across bands."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    if plant_every:
        ds = ds.map_batches(_clone_augment(plant_every), batch_format="pyarrow")
    bands = ds.map_batches(
        _MinhashBands,
        fn_constructor_kwargs={"shingle_k": shingle_k},
        batch_format="pyarrow",
        batch_size=512,
        concurrency=(1, 8),
    )
    pairs = (
        bands.map_batches(_add_coarse_bucket, batch_format="pyarrow")
        .groupby("cbucket")
        .map_groups(_pairs_in_coarse_bucket, batch_format="pandas")
        .to_pandas()
    )
    if pairs.empty:
        return pd.DataFrame({"a": pd.Series(dtype="int64"), "b": pd.Series(dtype="int64")})
    return pairs.drop_duplicates().sort_values(["a", "b"]).reset_index(drop=True)


def candidate_shingle_sets(
    sf_dir: str, need_ids, shingle_k: int = 3, plant_every: int | None = None
) -> dict[int, np.ndarray]:
    """Collect the shingle sets of ONLY the candidate docs.

    The candidate-id set is broadcast once (``ray.put``); every batch
    filters with a vectorized ``pc.is_in`` and shingles the survivors
    inside ``map_batches`` — the corpus text streams through workers
    and never reaches the driver. Only (doc_id, shingles) rows for
    candidates (<< corpus, typically k*|pairs|) are collected.
    """
    import pyarrow.compute as pc

    need_ref = ray.put(pa.array(sorted(int(x) for x in need_ids), pa.int64()))

    def _shingle_candidates(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_in(t["doc_id"], value_set=ray.get(need_ref)))
        shs = [shingles(s, shingle_k).astype("uint64") for s in t["text"].to_pylist()]
        return pa.Table.from_arrays(
            [t["doc_id"], pa.array([s.tolist() for s in shs], pa.list_(pa.uint64()))],
            names=["doc_id", "sh"],
        )

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    if plant_every:
        ds = ds.map_batches(_clone_augment(plant_every), batch_format="pyarrow")
    out = ds.map_batches(_shingle_candidates, batch_format="pyarrow").take_all()
    return {int(r["doc_id"]): np.asarray(r["sh"], dtype=np.uint64) for r in out}


def minhash_lsh_dedup(
    sf_dir: str,
    threshold: float = 0.8,
    shingle_k: int = 3,
    plant_every: int | None = None,
) -> pd.DataFrame:
    """MinHash+LSH near-dup pairs verified by exact Jaccard >= threshold.

    Verification is distributed: the candidate-id set (small) is
    broadcast and each batch re-shingles only its candidate rows (see
    :func:`candidate_shingle_sets`); the full corpus is never
    materialized driver-side. Returns (a, b, jacc) pairs.
    """
    pairs = minhash_candidate_pairs(sf_dir, shingle_k, plant_every)
    if pairs.empty:
        return pd.DataFrame(
            {"a": pd.Series(dtype="int64"), "b": pd.Series(dtype="int64"), "jacc": pd.Series(dtype="float64")}
        )
    need = set(pairs["a"]).union(pairs["b"])
    sh = candidate_shingle_sets(sf_dir, need, shingle_k, plant_every)
    jc = [jaccard(sh[a], sh[b]) for a, b in zip(pairs["a"], pairs["b"])]
    pairs = pairs.assign(jacc=np.round(jc, 4))
    out = pairs[pairs["jacc"] >= threshold].reset_index(drop=True)
    return out


class _SimhashBands:
    """Batch UDF: simhash per doc, band rows emitted IN the UDF (the
    fingerprint table never round-trips through the driver). The full
    signature rides along on each band row (8 bytes x bands — cheap)
    so Hamming verification happens inside the distributed pair
    extraction with zero extra passes over the corpus."""

    def __init__(self, bands: int = 4):
        self.bands = bands

    def __call__(self, t: pa.Table) -> pa.Table:
        doc_ids, band_ids, band_keys, sigs = [], [], [], []
        for doc_id, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            h = simhash64(text)
            for band_id, key in simhash_band_keys(h, bands=self.bands):
                doc_ids.append(doc_id)
                band_ids.append(band_id)
                band_keys.append(key)
                sigs.append(np.uint64(h).astype(np.int64))
        return pa.Table.from_arrays(
            [
                pa.array(doc_ids, pa.int64()),
                pa.array(band_ids, pa.int32()),
                pa.array(band_keys, pa.int64()),
                pa.array(sigs, pa.int64()),
            ],
            names=["doc_id", "band_id", "band_key", "sig"],
        )


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit popcount (numpy<2 has no bitwise_count)."""
    x = np.ascontiguousarray(x, dtype=np.uint64)
    return np.unpackbits(x.view(np.uint8)).reshape(-1, 64).sum(axis=1).astype(np.int64)


def _simhash_pairs_in_coarse_bucket(max_hamming: int):
    """Pair extraction + inline Hamming verify within a coarse bucket:
    same run-finding as :func:`_pairs_in_coarse_bucket`, but each band
    row carries its doc's full signature, so pairs are verified with a
    vectorized xor+popcount right where they are generated — nothing
    but surviving (a, b, hamming) rows leaves the workers."""

    def _f(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"a": pd.Series(dtype="int64"), "b": pd.Series(dtype="int64"), "hamming": pd.Series(dtype="int64")}
        )
        b = g["band_id"].to_numpy()
        k = g["band_key"].to_numpy()
        d = g["doc_id"].to_numpy()
        s = g["sig"].to_numpy().astype(np.uint64)
        order = np.lexsort((d, k, b))
        b, k, d, s = b[order], k[order], d[order], s[order]
        if len(d) < 2:
            return empty
        new_run = np.concatenate(
            ([0], np.flatnonzero((b[1:] != b[:-1]) | (k[1:] != k[:-1])) + 1, [len(d)])
        )
        out_a, out_b, out_h = [], [], []
        for st, en in zip(new_run[:-1], new_run[1:]):
            if en - st < 2:
                continue
            ids, first = np.unique(d[st:en], return_index=True)
            if len(ids) < 2:
                continue
            sig_run = s[st:en][first]
            ii, jj = np.triu_indices(len(ids), k=1)
            ham = _popcount64(sig_run[ii] ^ sig_run[jj])
            keep = ham <= max_hamming
            out_a.append(ids[ii[keep]])
            out_b.append(ids[jj[keep]])
            out_h.append(ham[keep])
        if not out_a:
            return empty
        return pd.DataFrame(
            {
                "a": np.concatenate(out_a),
                "b": np.concatenate(out_b),
                "hamming": np.concatenate(out_h),
            }
        )

    return _f


def simhash_neardup(
    sf_dir: str, max_hamming: int = 3, plant_every: int | None = None
) -> pd.DataFrame:
    """SimHash near-dup pairs: pigeonhole banding (4 x 16-bit blocks
    catches all pairs with hamming <= 3) then exact Hamming verify.

    Fully distributed: band rows (with signature attached) are emitted
    inside the batch UDF, pair extraction + Hamming verification run
    per coarse bucket inside ``map_groups``; only verified pairs (a
    tiny result) reach the driver."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    if plant_every:
        ds = ds.map_batches(_clone_augment(plant_every), batch_format="pyarrow")
    pairs = (
        ds.map_batches(_SimhashBands, batch_format="pyarrow", batch_size=512, concurrency=(1, 8))
        .map_batches(_add_coarse_bucket, batch_format="pyarrow")
        .groupby("cbucket")
        .map_groups(_simhash_pairs_in_coarse_bucket(max_hamming), batch_format="pandas")
        .to_pandas()
        .drop_duplicates(["a", "b"])
    )
    if pairs.empty:
        return pd.DataFrame(
            {"a": pd.Series(dtype="int64"), "b": pd.Series(dtype="int64"), "hamming": pd.Series(dtype="int64")}
        )
    return pairs.sort_values(["a", "b"]).reset_index(drop=True)


def minhash_lsh_planted_clones(sf_dir: str, plant_every: int = 20) -> pd.DataFrame:
    """The MinHash+LSH path under an EXACT oracle via deterministic
    verbatim clones: every ``plant_every``-th doc is re-emitted
    verbatim under ``doc_id + 1e9`` inside the batch UDF. A verbatim clone has the
    identical shingle set, hence the identical MinHash signature,
    hence identical keys in EVERY band — candidacy is structural, not
    probabilistic — and exact-Jaccard verification returns exactly
    1.0. Restricted to the (a, a + 1e9) clone pairs, the result is
    exactly one row per planted doc, which is what the oracle
    enumerates. (Organic pairs cannot alias into this set: b - a =
    1e9 forces b to be the clone of a.)"""
    pairs = minhash_lsh_dedup(sf_dir, threshold=1.0, plant_every=plant_every)
    sel = pairs[(pairs["b"] - pairs["a"]) == _CLONE_OFFSET]
    return pd.DataFrame(
        {
            "a": sel["a"].to_numpy("int64"),
            "b": sel["b"].to_numpy("int64"),
            "jacc": sel["jacc"].to_numpy("float64"),
        }
    ).reset_index(drop=True)


def minhash_lsh_planted_clones_sql(plant_every: int = 20) -> str:
    return f"""
SELECT CAST(doc_id AS BIGINT) AS a,
       CAST(doc_id + {_CLONE_OFFSET} AS BIGINT) AS b,
       CAST(1.0 AS DOUBLE) AS jacc
FROM documents WHERE doc_id % {plant_every} = 0
ORDER BY a
"""


MINHASH_LSH_PLANTED_CLONES_SQL = minhash_lsh_planted_clones_sql()


def simhash_planted_clones(sf_dir: str, plant_every: int = 20) -> pd.DataFrame:
    """The SimHash banding path under the same planted-clone EXACT
    oracle: a verbatim clone has the identical 64-bit SimHash, so its
    Hamming distance to the source is 0 and every 16-bit band block
    matches — candidacy and verification are both structural. Exactly
    one (a, a + 1e9, 0) row per planted doc."""
    pairs = simhash_neardup(sf_dir, plant_every=plant_every)
    sel = pairs[(pairs["b"] - pairs["a"]) == _CLONE_OFFSET]
    return pd.DataFrame(
        {
            "a": sel["a"].to_numpy("int64"),
            "b": sel["b"].to_numpy("int64"),
            "hamming": sel["hamming"].to_numpy("int64"),
        }
    ).reset_index(drop=True)


def simhash_planted_clones_sql(plant_every: int = 20) -> str:
    return f"""
SELECT CAST(doc_id AS BIGINT) AS a,
       CAST(doc_id + {_CLONE_OFFSET} AS BIGINT) AS b,
       CAST(0 AS BIGINT) AS hamming
FROM documents WHERE doc_id % {plant_every} = 0
ORDER BY a
"""


SIMHASH_PLANTED_CLONES_SQL = simhash_planted_clones_sql()


def ngram_jaccard_planted_clones(
    sf_dir: str, plant_every: int = 20, threshold: float = 0.5, shingle_k: int = 3
) -> pd.DataFrame:
    """Exact anchor of the LSH-pruned + exact-verified n-gram Jaccard
    machinery (:func:`minhash_lsh_dedup`) at its production threshold
    (0.5, k=3 shingles — the branch where ORGANIC candidates also
    flow through the verifier, unlike the threshold-1.0 minhash
    anchor), restricted to planted verbatim clones. Identical text ->
    identical shingle set -> structural candidacy and exact Jaccard
    1.0 >= any threshold; the (b - a == 1e9) filter can only match
    true (source, clone) pairs."""
    pairs = minhash_lsh_dedup(
        sf_dir, threshold=threshold, shingle_k=shingle_k, plant_every=plant_every
    )
    sel = pairs[(pairs["b"] - pairs["a"]) == _CLONE_OFFSET]
    return pd.DataFrame(
        {
            "a": sel["a"].to_numpy("int64"),
            "b": sel["b"].to_numpy("int64"),
            "jacc": sel["jacc"].to_numpy("float64"),
        }
    ).reset_index(drop=True)


def ngram_jaccard_planted_clones_sql(plant_every: int = 20) -> str:
    return f"""
SELECT CAST(doc_id AS BIGINT) AS a,
       CAST(doc_id + {_CLONE_OFFSET} AS BIGINT) AS b,
       CAST(1.0 AS DOUBLE) AS jacc
FROM documents WHERE doc_id % {plant_every} = 0
ORDER BY a
"""


NGRAM_JACCARD_PLANTED_CLONES_SQL = ngram_jaccard_planted_clones_sql()


# ---------------------------------------------------------------------------
# Exact n-gram Jaccard pairs (inverted shingle index) + connected-
# component clustering — the "group near-dups, keep one per cluster"
# step that follows pair generation in corpus curation.
# ---------------------------------------------------------------------------

def _shingle_pair_counts_ds(
    sf_dir: str, shingle_k: int = 3, plant_every: int | None = None
) -> "ray.data.Dataset":
    """EXACT Jaccard>=threshold pairs via a distributed inverted
    shingle index — no LSH pruning, so (unlike
    :func:`minhash_lsh_dedup`) the result is deterministic-complete
    and SQL-oracle-able.

    Shape: (doc_id, shingle, n_doc) rows stream out of ``map_batches``;
    ONE shuffle on a coarse shingle bucket; per bucket a vectorized
    run-scan emits (a, b, shared-count) partials (each shingle lives in
    exactly one bucket, so partials sum exactly); a bucketed aggregate
    combines partials and the Jaccard filter runs vectorized. Only
    final pairs reach the driver.

    Scale note: this is the exact operator — its cost is the inverted
    index (sum over shingles of |bucket postings|^2). Hot shingles
    (boilerplate) make that quadratic; above ~1 TB use
    :func:`minhash_lsh_dedup` (same verify, LSH-pruned candidates) —
    the documented recall/cost trade, same split as
    embedding_neardup vs embedding_neardup_lsh.
    """
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def _shingle_rows(t: pa.Table) -> pa.Table:
        ids, shs, ns = [], [], []
        for doc_id, s in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            # STRICT k-grams: shingles() falls back to shorter grams
            # for sub-k-token docs (right for MinHash recall, wrong for
            # the EXACT operator — the SQL oracle emits no grams there)
            toks = tokenize(s.lower())
            if len(toks) < shingle_k:
                continue
            sh = shingles(s, shingle_k).astype(np.int64)
            ids.append(np.full(sh.size, doc_id, dtype=np.int64))
            shs.append(sh)
            ns.append(np.full(sh.size, sh.size, dtype=np.int64))
            if plant_every and doc_id % plant_every == 0:
                # deterministic prefix crop: first ceil(2L/5) tokens
                # (exact integer formula, identical in the oracle)
                m = (2 * len(toks) + 4) // 5
                if m >= shingle_k:
                    crop = " ".join(toks[:m])
                    shc = shingles(crop, shingle_k).astype(np.int64)
                    ids.append(
                        np.full(shc.size, doc_id + 1_000_000_000, dtype=np.int64)
                    )
                    shs.append(shc)
                    ns.append(np.full(shc.size, shc.size, dtype=np.int64))
        if not ids:
            ids, shs, ns = [np.array([], dtype=np.int64)] * 3
        return pa.Table.from_pydict(
            {
                "doc_id": np.concatenate(ids),
                "sh": np.concatenate(shs),
                "n": np.concatenate(ns),
            }
        )

    def _bucket(t: pa.Table) -> pa.Table:
        h = (np.asarray(t["sh"].to_pandas(), dtype=np.int64) * np.int64(0x9E3779B1)) % N_COARSE_BUCKETS
        return t.append_column("cbucket", pa.array(np.abs(h), pa.int64()))

    def _pair_partials(g: pd.DataFrame) -> pd.DataFrame:
        sh = g["sh"].to_numpy()
        d = g["doc_id"].to_numpy()
        n_by_doc = dict(zip(d, g["n"].to_numpy()))
        order = np.lexsort((d, sh))
        sh, d = sh[order], d[order]
        runs = np.concatenate(([0], np.flatnonzero(sh[1:] != sh[:-1]) + 1, [len(sh)]))
        out_a, out_b = [], []
        for s, e in zip(runs[:-1], runs[1:]):
            if e - s < 2:
                continue
            ids = np.unique(d[s:e])
            if len(ids) < 2:
                continue
            ii, jj = np.triu_indices(len(ids), k=1)
            out_a.append(ids[ii])
            out_b.append(ids[jj])
        if not out_a:
            return pd.DataFrame(
                {c: pd.Series(dtype="int64") for c in ("a", "b", "cnt", "n_a", "n_b")}
            )
        df = pd.DataFrame({"a": np.concatenate(out_a), "b": np.concatenate(out_b)})
        df = df.groupby(["a", "b"], as_index=False).size().rename(columns={"size": "cnt"})
        df["n_a"] = df["a"].map(n_by_doc).astype("int64")
        df["n_b"] = df["b"].map(n_by_doc).astype("int64")
        return df

    partials = (
        ds.map_batches(_shingle_rows, batch_format="pyarrow")
        .map_batches(_bucket, batch_format="pyarrow")
        .groupby("cbucket")
        .map_groups(_pair_partials, batch_format="pandas")
    )
    return bucketed_aggregate(
        partials, ["a", "b"], {"cnt": ("cnt", "sum"), "n_a": ("n_a", "min"), "n_b": ("n_b", "min")}
    )


def exact_jaccard_pairs_ds(
    sf_dir: str, threshold: float = 0.5, shingle_k: int = 3
) -> "ray.data.Dataset":
    """Jaccard >= threshold filter over the shared exact pair-count
    builder (see :func:`_shingle_pair_counts_ds`)."""
    combined = _shingle_pair_counts_ds(sf_dir, shingle_k)

    def _jacc_filter(df: pd.DataFrame) -> pd.DataFrame:
        jacc = df["cnt"] / (df["n_a"] + df["n_b"] - df["cnt"])
        df = df.assign(jacc=np.round(jacc, 4))[jacc >= threshold]
        return df[["a", "b", "jacc"]]

    return combined.map_batches(_jacc_filter, batch_format="pandas")


def exact_jaccard_pairs(sf_dir: str, threshold: float = 0.5, shingle_k: int = 3) -> pd.DataFrame:
    """Driver-facing projection of :func:`exact_jaccard_pairs_ds` —
    the verified pairs (tiny by construction) are the only rows that
    leave the cluster."""
    out = exact_jaccard_pairs_ds(sf_dir, threshold, shingle_k).to_pandas()
    if out.empty:
        return pd.DataFrame(
            {"a": pd.Series(dtype="int64"), "b": pd.Series(dtype="int64"), "jacc": pd.Series(dtype="float64")}
        )
    return out.sort_values(["a", "b"]).reset_index(drop=True)


def connected_components(edges: "ray.data.Dataset", max_iters: int = 64) -> pd.DataFrame:
    """Distributed connected components by min-label propagation over
    an edge Dataset with int64 columns (a, b).

    Each round is one bucketed hash join (labels shipped to
    neighbors) + one bucketed min-aggregate; labels are monotone
    nonincreasing per node, so the rounds converge (<= graph diameter)
    and ``sum(label)`` is a fixpoint certificate — the driver sees one
    scalar per round plus the final (node, label) table. Nothing else
    leaves the cluster; the corpus itself is never touched here.
    """
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate, shuffle_hash_join

    def _sym(t: pa.Table) -> pa.Table:
        a = np.asarray(t["a"].to_pandas(), dtype=np.int64)
        b = np.asarray(t["b"].to_pandas(), dtype=np.int64)
        return pa.Table.from_pydict(
            {"u": np.concatenate([a, b]), "v": np.concatenate([b, a])}
        )

    sym0 = edges.map_batches(_sym, batch_format="pyarrow").materialize()
    n_edges = sym0.count()
    if n_edges == 0:
        return pd.DataFrame({"doc_id": pd.Series(dtype="int64"), "cluster_id": pd.Series(dtype="int64")})
    # size the shuffles to the edge set: each round's cost is dominated
    # by fixed per-bucket task overhead, so a small dup graph gets few
    # fat buckets and a 100 TB one scales the bucket count with size
    nb = max(4, min(64, n_edges // 50_000 + 4))
    # the upstream pair pipeline leaves one near-empty block per
    # coarse bucket; compact to nb blocks so each propagation round
    # launches O(nb) tasks, not O(upstream buckets)
    sym = sym0.repartition(nb).materialize()

    # init: label(u) = min(u, min direct neighbor) — one free round
    labels = bucketed_aggregate(sym, "u", {"label": ("v", "min")}, num_buckets=nb).map_batches(
        lambda df: df.assign(label=np.minimum(df["u"], df["label"])),
        batch_format="pandas",
    )

    def _pin(df: pd.DataFrame) -> pd.DataFrame:
        # shuffle_hash_join's union-schema reindex promotes key columns
        # of empty buckets to float64; a mixed int/float block stream
        # hash-partitions the SAME node into DIFFERENT buckets (the
        # shuffle_hash_join dtype discipline), which would split nodes
        # into duplicate label rows — pin int64 every round. Empty
        # buckets surface as schema-less blocks: emit typed empties.
        if df.empty or "u" not in df.columns:
            return pd.DataFrame(
                {"u": pd.Series(dtype="int64"), "label": pd.Series(dtype="int64")}
            )
        return pd.DataFrame(
            {"u": df["u"].astype("int64"), "label": df["label"].astype("int64")}
        )

    prev_sum = None
    converged = False
    for _ in range(max_iters):
        labels = labels.materialize()
        cur_sum = labels.sum("label")
        if cur_sum == prev_sum:
            converged = True
            break
        prev_sum = cur_sum
        labels_v = labels.map_batches(
            lambda df: df.rename(columns={"u": "v"}), batch_format="pandas"
        )
        msgs = shuffle_hash_join(
            sym, labels_v, on="v", left_cols=["u", "v"], right_cols=["v", "label"],
            num_buckets=nb,
        ).map_batches(_pin, batch_format="pandas")
        labels = bucketed_aggregate(
            msgs.union(labels), "u", {"label": ("label", "min")}, num_buckets=nb
        ).map_batches(_pin, batch_format="pandas")
    if not converged:
        # a silent non-fixpoint would return non-transitive labels
        raise RuntimeError(
            f"connected_components: no fixpoint after {max_iters} rounds "
            "(component diameter exceeds max_iters — raise it)"
        )
    out = labels.to_pandas().rename(columns={"u": "doc_id", "label": "cluster_id"})
    out = out.astype({"doc_id": "int64", "cluster_id": "int64"})
    return out.sort_values("doc_id").reset_index(drop=True)


def neardup_clusters(sf_dir: str, threshold: float = 0.5, shingle_k: int = 3) -> pd.DataFrame:
    """Near-duplicate clusters: exact Jaccard pairs (inverted shingle
    index) -> distributed connected components; cluster_id = min
    doc_id of the component (the canonical "keep one per cluster" key
    used downstream by corpus curation). Output: (doc_id, cluster_id)
    for every doc in at least one near-dup pair."""
    edges = exact_jaccard_pairs_ds(sf_dir, threshold=threshold, shingle_k=shingle_k).map_batches(
        lambda df: df[["a", "b"]], batch_format="pandas"
    )
    # the edge Dataset flows straight into label propagation — pairs
    # never round-trip through the driver
    return connected_components(edges)


# exact Jaccard over distinct lowercase [a-z0-9_]+ 3-gram shingles,
# then transitive closure (recursive CTE) == the label-propagation
# fixpoint; cluster_id = min doc_id reachable.
NEARDUP_CLUSTERS_SQL = r"""
WITH RECURSIVE toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9_]+') AS tk FROM documents
), pos AS (
  SELECT doc_id, unnest(tk) AS tok, generate_subscripts(tk, 1) AS i FROM toks
), grams AS (
  SELECT DISTINCT a.doc_id, a.tok || ' ' || b.tok || ' ' || c.tok AS g
  FROM pos a
  JOIN pos b ON b.doc_id = a.doc_id AND b.i = a.i + 1
  JOIN pos c ON c.doc_id = a.doc_id AND c.i = a.i + 2
), sizes AS (SELECT doc_id, count(*) AS n FROM grams GROUP BY doc_id),
inter AS (
  SELECT x.doc_id AS a, y.doc_id AS b, count(*) AS i
  FROM grams x JOIN grams y ON x.g = y.g AND x.doc_id < y.doc_id
  GROUP BY 1, 2
), edges AS (
  SELECT a, b FROM inter
  JOIN sizes sa ON sa.doc_id = inter.a
  JOIN sizes sb ON sb.doc_id = inter.b
  WHERE inter.i * 1.0 / (sa.n + sb.n - inter.i) >= 0.5
), sym AS (
  SELECT a AS u, b AS v FROM edges UNION SELECT b, a FROM edges
), reach AS (
  SELECT u, v FROM sym
  UNION
  SELECT r.u, s.v FROM reach r JOIN sym s ON s.u = r.v
)
SELECT u AS doc_id, CAST(least(u, min(v)) AS BIGINT) AS cluster_id
FROM reach GROUP BY u ORDER BY doc_id
"""

def dedup_keep_longest(sf_dir: str) -> pd.DataFrame:
    """Exact dedup with a KEEP POLICY (the curation form: survivors
    are chosen by quality, not arrival order): groups share the
    whitespace-normalized lowercase fingerprint; the survivor is the
    longest doc (ties: lowest doc_id). One fingerprint scan emits
    (fp, doc_id, n_chars); ONE coarse-bucket shuffle on the
    fingerprint co-locates each group; per-bucket vectorized
    sort + drop_duplicates picks survivors. Only fixed-width rows
    move."""
    from ocr_pipeline_ray.functions.textstats import fingerprint_md5

    n_buckets = 32
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def _fp(t: pa.Table) -> pd.DataFrame:
        ids = t["doc_id"].to_pylist()
        texts = t["text"].to_pylist()
        fps = [fingerprint_md5(s) for s in texts]
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "fp": pd.Series(fps, dtype="object"),
                "n_chars": pd.Series([len(s) for s in texts], dtype="int64"),
                "__bucket": pd.Series([int(f[:8], 16) % n_buckets for f in fps], dtype="int64"),
            }
        )

    def _keep(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["fp", "n_chars", "doc_id"], ascending=[True, False, True])
        k = g.drop_duplicates("fp", keep="first")
        return k[["doc_id", "fp", "n_chars"]]

    return (
        ds.map_batches(_fp, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(_keep, batch_format="pandas")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


DEDUP_KEEP_LONGEST_SQL = r"""
WITH d AS (
  SELECT doc_id, CAST(length(text) AS BIGINT) AS n_chars,
         md5(lower(trim(regexp_replace(text, '\s+', ' ', 'g')))) AS fp
  FROM documents
), r AS (
  SELECT *, ROW_NUMBER() OVER (PARTITION BY fp ORDER BY n_chars DESC, doc_id) AS rn
  FROM d
)
SELECT doc_id, fp, n_chars FROM r WHERE rn = 1 ORDER BY doc_id
"""


def dedup_normalized(sf_dir: str) -> pd.DataFrame:
    """Canonicalize-then-dedup: texts lowercased, whitespace runs
    collapsed to single spaces, trimmed — the normalization layer that
    catches near-identical web pages differing only in case or
    formatting (a standard curation pass ahead of exact dedup).
    Surviving doc_id = min(doc_id) per normalized form; same
    hash-partitioned min-reduction wire shape as :func:`dedup_exact`,
    with the canonical text never leaving the batch (only its md5
    shuffles)."""
    import re as _re

    ws = _re.compile(r"\s+")
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def add_hash(t: pa.Table) -> pa.Table:
        hashes = [
            hashlib.md5(ws.sub(" ", s.lower()).strip(" ").encode("utf-8")).hexdigest()
            for s in t["text"].to_pylist()
        ]
        return pa.Table.from_arrays(
            [t["doc_id"], pa.array(hashes, pa.string())], names=["doc_id", "h"]
        )

    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    return (
        bucketed_aggregate(
            ds.map_batches(add_hash, batch_format="pyarrow"),
            "h", {"doc_id": ("doc_id", "min")},
        )
        .select_columns(["doc_id"])
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


DEDUP_NORMALIZED_SQL = """
SELECT min(doc_id) AS doc_id FROM documents
GROUP BY trim(regexp_replace(lower(text), '\\s+', ' ', 'g'))
ORDER BY doc_id
"""


def sorted_neighborhood_dedup(
    sf_dir: str, window: int = 5, max_dist: int = 3, block: int = 256
) -> pd.DataFrame:
    """Sorted-neighborhood near-duplicate detection (Hernandez-Stolfo
    merge/purge): sort all documents by a cheap blocking key
    (n_chars, doc_id), slide a width-``window`` comparison window down
    the sorted order, and keep pairs whose 32-char normalized prefixes
    are within Levenshtein distance ``max_dist`` — the classic
    record-linkage complement of the LSH dedups above (O(n*w) exact
    comparisons instead of probabilistic buckets).

    Distributed: the global sort position comes from the distributed
    ROW_NUMBER primitive (range buckets + prefix offsets — no global
    sort shuffle, relational.py _global_rank); rows land in rank
    blocks of ``block`` and the last ``window-1`` rows of each block
    REPLICATE into the next block, so every in-window pair is present
    in exactly one block (the one owning the later row). Each block's
    candidate pairs (<= block*window) verify locally."""
    from ocr_pipeline_ray.pipelines.relational import _levenshtein, _read

    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "n_chars"]).map_batches(
        lambda df: pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "pre": df["text"].str.slice(0, 32),
                "n_chars": df["n_chars"].astype("float64"),
            }
        ),
        batch_format="pandas",
    )
    from ocr_pipeline_ray.pipelines.relational import _global_rank

    ranked = _global_rank(ds, "n_chars", ["doc_id", "pre"])

    w1 = window - 1

    def _assign_blocks(df: pd.DataFrame) -> pd.DataFrame:
        rn = df["rank"].to_numpy("int64")
        primary = df.assign(__block=(rn - 1) // block)
        repl_mask = (rn - 1 + w1) // block != (rn - 1) // block
        repl = df[repl_mask].assign(__block=(df["rank"].to_numpy("int64")[repl_mask] - 1) // block + 1)
        return pd.concat([primary, repl], ignore_index=True)

    def _pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("rank").reset_index(drop=True)
        blk = int(g["__block"].iloc[0])
        rn = g["rank"].to_numpy("int64")
        ids = g["doc_id"].to_numpy("int64")
        pre = g["pre"].to_numpy(object)
        out = {"doc_a": [], "doc_b": [], "dist": []}
        pos = {int(r): i for i, r in enumerate(rn)}
        for j_idx in range(len(g)):
            rj = int(rn[j_idx])
            if (rj - 1) // block != blk:
                continue  # replicated row: its pairs belong to its own block
            for d in range(1, window):
                i_idx = pos.get(rj - d)
                if i_idx is None:
                    continue
                dist = _levenshtein(pre[i_idx], pre[j_idx])
                if dist <= max_dist:
                    out["doc_a"].append(ids[i_idx])
                    out["doc_b"].append(ids[j_idx])
                    out["dist"].append(dist)
        return pd.DataFrame(
            {
                "doc_a": pd.Series(out["doc_a"], dtype="int64"),
                "doc_b": pd.Series(out["doc_b"], dtype="int64"),
                "dist": pd.Series(out["dist"], dtype="int64"),
            }
        )

    pairs = (
        ranked.map_batches(_assign_blocks, batch_format="pandas")
        .groupby("__block")
        .map_groups(_pairs, batch_format="pandas")
        .to_pandas()
    )
    if pairs.empty:
        return pd.DataFrame(
            {
                "doc_a": pd.Series(dtype="int64"),
                "doc_b": pd.Series(dtype="int64"),
                "dist": pd.Series(dtype="int64"),
            }
        )
    return pairs.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


def sorted_neighborhood_dedup_sql(window: int = 5, max_dist: int = 3) -> str:
    return f"""
WITH r AS (
  SELECT doc_id, substr(text, 1, 32) AS pre,
         row_number() OVER (ORDER BY n_chars, doc_id) AS rn
  FROM documents
)
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
       CAST(levenshtein(a.pre, b.pre) AS BIGINT) AS dist
FROM r a JOIN r b ON b.rn > a.rn AND b.rn <= a.rn + {window - 1}
WHERE levenshtein(a.pre, b.pre) <= {max_dist}
ORDER BY doc_a, doc_b
"""


SORTED_NEIGHBORHOOD_DEDUP_SQL = sorted_neighborhood_dedup_sql()


def similar_docs_by_shingles(sf_dir: str, query_doc: int = 0, n: int = 3, k: int = 10) -> pd.DataFrame:
    """Similar-document retrieval for ONE query document by EXACT
    3-token-shingle Jaccard: the single-query complement of the
    all-pairs LSH dedups — top-k docs sharing at least one shingle
    with the query. The query's shingle set broadcasts (one doc);
    every other doc computes |own|, |intersection| in its batch and
    only (doc_id, inter, own) partial rows reach the reduce. Ties:
    jaccard desc, doc_id asc."""
    from ocr_pipeline_ray.functions.textstats import TOKEN_RE

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def _shingles(txt: str) -> set:
        toks = TOKEN_RE.findall(txt.lower())
        return {" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)}

    qtxt = (
        ds.map_batches(lambda df: df[df["doc_id"] == query_doc], batch_format="pandas")
        .to_pandas()["text"]
        .iloc[0]
    )
    qset = _shingles(qtxt)
    q_ref = ray.put(qset)

    nq = len(qset)

    def _score(df: pd.DataFrame) -> pd.DataFrame:
        qs = ray.get(q_ref)
        rows = []
        for did, txt in zip(df["doc_id"], df["text"]):
            if did == query_doc:
                continue
            s = _shingles(txt)
            inter = len(s & qs)
            if inter:
                rows.append((int(did), inter, inter / (nq + len(s) - inter)))
        return pd.DataFrame(rows, columns=["doc_id", "inter", "jaccard"]) if rows else pd.DataFrame(
            {"doc_id": pd.Series(dtype="int64"), "inter": pd.Series(dtype="int64"), "jaccard": pd.Series(dtype="float64")}
        )

    # two-level distributed top-k (partial_topk): on a corpus with a
    # stop-shingle the candidate set is corpus-sized, so the reduce to
    # k rows happens on workers — the driver sees at most buckets x k
    # rows, never the candidate set.
    from ocr_pipeline_ray.pipelines.relational import partial_topk

    top = partial_topk(
        ds.map_batches(_score, batch_format="pandas"),
        by=["jaccard", "doc_id"],
        ascending=[False, True],
        k=k,
    )
    if top.empty:
        return pd.DataFrame(
            {"doc_id": pd.Series(dtype="int64"), "n_common": pd.Series(dtype="int64"),
             "jaccard": pd.Series(dtype="float64")}
        )
    return pd.DataFrame(
        {
            "doc_id": top["doc_id"].to_numpy("int64"),
            "n_common": top["inter"].to_numpy("int64"),
            "jaccard": np.round(top["jaccard"].to_numpy("float64"), 6),
        }
    ).reset_index(drop=True)


def similar_docs_by_shingles_sql(query_doc: int = 0, k: int = 10) -> str:
    return rf"""
WITH toks AS (
  SELECT doc_id, unnest(arr) AS tok, generate_subscripts(arr, 1) AS pos
  FROM (SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9_]+') AS arr FROM documents)
),
grams AS (
  SELECT DISTINCT doc_id,
         concat_ws(' ', lag(tok, 2) OVER w, lag(tok, 1) OVER w, tok) AS g
  FROM toks
  WINDOW w AS (PARTITION BY doc_id ORDER BY pos)
  QUALIFY lag(tok, 2) OVER w IS NOT NULL
),
q AS (SELECT g FROM grams WHERE doc_id = {query_doc}),
own AS (SELECT doc_id, count(*) AS own FROM grams GROUP BY doc_id),
inter AS (
  SELECT doc_id, count(*) AS inter
  FROM grams JOIN q USING (g)
  WHERE doc_id <> {query_doc}
  GROUP BY doc_id
)
SELECT inter.doc_id, CAST(inter AS BIGINT) AS n_common,
       round(inter / CAST((SELECT count(*) FROM q) + own.own - inter AS DOUBLE), 6) AS jaccard
FROM inter JOIN own ON own.doc_id = inter.doc_id
ORDER BY inter / CAST((SELECT count(*) FROM q) + own.own - inter AS DOUBLE) DESC, inter.doc_id
LIMIT {k}
"""


SIMILAR_DOCS_BY_SHINGLES_SQL = similar_docs_by_shingles_sql()


# ---------------------------------------------------------------------------
# asymmetric containment: near-subset duplication the Jaccard filter misses
# ---------------------------------------------------------------------------

def containment_pairs(sf_dir: str, threshold: float = 0.8, shingle_k: int = 3) -> pd.DataFrame:
    """Broder CONTAINMENT pairs over the same exact shingle index:
    C(a in b) = |A n B|/|A| and its mirror, kept when either side
    reaches 0.8 — the asymmetric measure that catches a short doc
    embedded in a long one, which symmetric Jaccard dilutes below
    any usable threshold. Reports both containments and the Jaccard
    for contrast; only qualifying pairs reach the driver."""
    combined = _shingle_pair_counts_ds(sf_dir, shingle_k)

    def _filt(df: pd.DataFrame) -> pd.DataFrame:
        c_ab = df["cnt"] / df["n_a"]
        c_ba = df["cnt"] / df["n_b"]
        jacc = df["cnt"] / (df["n_a"] + df["n_b"] - df["cnt"])
        keep = np.maximum(c_ab, c_ba) >= threshold
        return pd.DataFrame(
            {
                "a": df["a"][keep],
                "b": df["b"][keep],
                "contain_ab": np.round(c_ab[keep], 4),
                "contain_ba": np.round(c_ba[keep], 4),
                "jacc": np.round(jacc[keep], 4),
            }
        )

    out = combined.map_batches(_filt, batch_format="pandas").to_pandas()
    if out.empty:
        return pd.DataFrame(
            {
                "a": pd.Series(dtype="int64"), "b": pd.Series(dtype="int64"),
                "contain_ab": pd.Series(dtype="float64"),
                "contain_ba": pd.Series(dtype="float64"),
                "jacc": pd.Series(dtype="float64"),
            }
        )
    out["a"] = out["a"].astype("int64")
    out["b"] = out["b"].astype("int64")
    return out.sort_values(["a", "b"]).reset_index(drop=True)


_SHINGLE_COUNT_SQL = r"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9_]+') AS tk FROM documents
), pos AS (
  SELECT doc_id, unnest(tk) AS tok, generate_subscripts(tk, 1) AS i FROM toks
), grams AS (
  SELECT DISTINCT a.doc_id, a.tok || ' ' || b.tok || ' ' || c.tok AS g
  FROM pos a
  JOIN pos b ON b.doc_id = a.doc_id AND b.i = a.i + 1
  JOIN pos c ON c.doc_id = a.doc_id AND c.i = a.i + 2
), sizes AS (SELECT doc_id, count(*) AS n FROM grams GROUP BY doc_id),
inter AS (
  SELECT x.doc_id AS a, y.doc_id AS b, count(*) AS i
  FROM grams x JOIN grams y ON x.g = y.g AND x.doc_id < y.doc_id
  GROUP BY 1, 2
)
"""

CONTAINMENT_PAIRS_SQL = (
    _SHINGLE_COUNT_SQL
    + """
SELECT a, b,
       round(inter.i * 1.0 / sa.n, 4) AS contain_ab,
       round(inter.i * 1.0 / sb.n, 4) AS contain_ba,
       round(inter.i * 1.0 / (sa.n + sb.n - inter.i), 4) AS jacc
FROM inter
JOIN sizes sa ON sa.doc_id = inter.a
JOIN sizes sb ON sb.doc_id = inter.b
WHERE greatest(inter.i * 1.0 / sa.n, inter.i * 1.0 / sb.n) >= 0.8
ORDER BY a, b
"""
)


def subset_duplicates(sf_dir: str, c_thresh: float = 0.9, j_thresh: float = 0.5, shingle_k: int = 3) -> pd.DataFrame:
    """The pairs ONLY containment can see: one side's shingles are
    >= 90% inside the other (near-subset duplication — quoted
    articles, prefix crops, boilerplate wrappers) while the Jaccard
    stays BELOW 0.5, so every symmetric dedup pass ships both copies.
    Emits (contained doc, container doc, containment, jacc) with the
    contained side normalized first — the actionable curation list.
    The synthetic corpus's near-dups are all SYMMETRIC, so the
    subset regime is planted deterministically: every 10th doc also
    enters as a prefix crop of its first ceil(2L/5) tokens under
    doc_id + 1e9 — containment of the crop in its source is 1.0 by
    construction while the Jaccard sits near 0.4, exactly the blind
    spot being demonstrated; the oracle plants identically.
    Same shared pair-count index."""
    combined = _shingle_pair_counts_ds(sf_dir, shingle_k, plant_every=10)

    def _filt(df: pd.DataFrame) -> pd.DataFrame:
        c_ab = (df["cnt"] / df["n_a"]).to_numpy()
        c_ba = (df["cnt"] / df["n_b"]).to_numpy()
        jacc = (df["cnt"] / (df["n_a"] + df["n_b"] - df["cnt"])).to_numpy()
        best = np.maximum(c_ab, c_ba)
        keep = (best >= c_thresh) & (jacc < j_thresh)
        a = df["a"].to_numpy("int64")[keep]
        b = df["b"].to_numpy("int64")[keep]
        ab = c_ab[keep] >= c_ba[keep]
        return pd.DataFrame(
            {
                "contained": np.where(ab, a, b),
                "container": np.where(ab, b, a),
                "containment": np.round(best[keep], 4),
                "jacc": np.round(jacc[keep], 4),
            }
        )

    out = combined.map_batches(_filt, batch_format="pandas").to_pandas()
    if out.empty:
        return pd.DataFrame(
            {
                "contained": pd.Series(dtype="int64"),
                "container": pd.Series(dtype="int64"),
                "containment": pd.Series(dtype="float64"),
                "jacc": pd.Series(dtype="float64"),
            }
        )
    out["contained"] = out["contained"].astype("int64")
    out["container"] = out["container"].astype("int64")
    return out.sort_values(["contained", "container"]).reset_index(drop=True)


_SHINGLE_COUNT_PLANTED_SQL = r"""
WITH toks0 AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9_]+') AS tk FROM documents
), toks AS (
  SELECT doc_id, tk FROM toks0
  UNION ALL
  SELECT doc_id + 1000000000 AS doc_id,
         tk[1:(2 * len(tk) + 4) // 5] AS tk
  FROM toks0
  WHERE doc_id % 10 = 0 AND (2 * len(tk) + 4) // 5 >= 3
), pos AS (
  SELECT doc_id, unnest(tk) AS tok, generate_subscripts(tk, 1) AS i FROM toks
), grams AS (
  SELECT DISTINCT a.doc_id, a.tok || ' ' || b.tok || ' ' || c.tok AS g
  FROM pos a
  JOIN pos b ON b.doc_id = a.doc_id AND b.i = a.i + 1
  JOIN pos c ON c.doc_id = a.doc_id AND c.i = a.i + 2
), sizes AS (SELECT doc_id, count(*) AS n FROM grams GROUP BY doc_id),
inter AS (
  SELECT x.doc_id AS a, y.doc_id AS b, count(*) AS i
  FROM grams x JOIN grams y ON x.g = y.g AND x.doc_id < y.doc_id
  GROUP BY 1, 2
)
"""

SUBSET_DUPLICATES_SQL = (
    _SHINGLE_COUNT_PLANTED_SQL
    + """,
sc AS (
  SELECT a, b,
         inter.i * 1.0 / sa.n AS c_ab,
         inter.i * 1.0 / sb.n AS c_ba,
         inter.i * 1.0 / (sa.n + sb.n - inter.i) AS jacc
  FROM inter
  JOIN sizes sa ON sa.doc_id = inter.a
  JOIN sizes sb ON sb.doc_id = inter.b
)
SELECT CASE WHEN c_ab >= c_ba THEN a ELSE b END AS contained,
       CASE WHEN c_ab >= c_ba THEN b ELSE a END AS container,
       round(greatest(c_ab, c_ba), 4) AS containment,
       round(jacc, 4) AS jacc
FROM sc
WHERE greatest(c_ab, c_ba) >= 0.9 AND jacc < 0.5
ORDER BY contained, container
"""
)
