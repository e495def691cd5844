"""Property tests for the central distributed kernels against their
single-process pandas equivalents: bucketed_aggregate, partial_topk,
key_set_op. Random frames via hypothesis; Ray datasets built with
random block splits so kernel results must be partitioning-invariant."""

import numpy as np
import pandas as pd
import pytest
import ray.data
from hypothesis import given, settings, strategies as st

from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate, partial_topk


def _make(seed, nk, n):
    rng = np.random.default_rng(seed)
    return pd.DataFrame(
        {"k": rng.integers(0, nk, n), "v": np.round(rng.random(n) * 100, 3)}
    )


frames = st.builds(_make, st.integers(0, 2**31), st.integers(1, 50), st.integers(1, 300))


def _ds(df: pd.DataFrame, n_blocks: int) -> "ray.data.Dataset":
    return ray.data.from_pandas(df).repartition(min(n_blocks, max(1, len(df))))


@settings(max_examples=15, deadline=None)
@given(frames, st.integers(1, 5))
def test_bucketed_aggregate_matches_pandas(df, n_blocks):
    got = (
        bucketed_aggregate(_ds(df, n_blocks), "k",
                           {"s": ("v", "sum"), "mn": ("v", "min"),
                            "mx": ("v", "max"), "n": ("v", "size")},
                           num_buckets=7)
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    exp = (
        df.groupby("k", as_index=False)
        .agg(s=("v", "sum"), mn=("v", "min"), mx=("v", "max"), n=("v", "size"))
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert got["k"].tolist() == exp["k"].tolist()
    assert np.allclose(got["s"], exp["s"])
    assert np.allclose(got["mn"], exp["mn"]) and np.allclose(got["mx"], exp["mx"])
    assert got["n"].astype(int).tolist() == exp["n"].astype(int).tolist()


@settings(max_examples=10, deadline=None)
@given(frames, st.integers(1, 5), st.integers(1, 8))
def test_partial_topk_matches_pandas(df, n_blocks, k):
    got = partial_topk(_ds(df, n_blocks), by=["v", "k"], ascending=[False, True], k=k)
    exp = df.sort_values(["v", "k"], ascending=[False, True]).head(k).reset_index(drop=True)
    assert got["v"].tolist() == exp["v"].tolist()
    assert got["k"].tolist() == exp["k"].tolist()


@settings(max_examples=10, deadline=None)
@given(frames, st.integers(1, 5), st.integers(1, 8))
def test_partial_topk_grouped_matches_pandas(df, n_blocks, k):
    df = df.assign(g=(df["k"] % 3).astype("int64"))
    got = partial_topk(
        _ds(df, n_blocks), by=["v", "k"], ascending=[False, True], k=k, group="g"
    )
    exp = (
        df.sort_values(["v", "k"], ascending=[False, True])
        .groupby("g", sort=False)
        .head(k)
    )
    got_s = got.sort_values(["g", "v", "k"], ascending=[True, False, True]).reset_index(drop=True)
    exp_s = exp.sort_values(["g", "v", "k"], ascending=[True, False, True]).reset_index(drop=True)
    assert got_s[["g", "k", "v"]].values.tolist() == exp_s[["g", "k", "v"]].values.tolist()


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2**31), st.integers(0, 40), st.integers(0, 40))
def test_key_set_op_matches_python_sets(tmp_path_factory, seed, na, nb):
    from ocr_pipeline_ray.pipelines.relational import key_set_op

    rng = np.random.default_rng(seed)
    a = np.unique(rng.integers(0, 60, na)) if na else np.array([], dtype=np.int64)
    b = np.unique(rng.integers(0, 60, nb)) if nb else np.array([], dtype=np.int64)
    d = tmp_path_factory.mktemp("setop")
    pd.DataFrame({"c_custkey": a.astype("int64")}).to_parquet(d / "customer.parquet")
    pd.DataFrame({"s_suppkey": b.astype("int64")}).to_parquet(d / "supplier.parquet")
    inter = key_set_op(str(d), ("customer", "c_custkey"), ("supplier", "s_suppkey"), "intersect")
    exc = key_set_op(str(d), ("customer", "c_custkey"), ("supplier", "s_suppkey"), "except")
    assert inter["key"].tolist() == sorted(set(a) & set(b))
    assert exc["key"].tolist() == sorted(set(a) - set(b))


def test_shuffle_hash_join_salted_hot_key_matches_pandas():
    """A 90%-hot key salted across sub-buckets must produce exactly
    the unsalted/pandas join result (inner and left)."""
    from ocr_pipeline_ray.pipelines.relational import shuffle_hash_join

    rng = np.random.default_rng(7)
    n = 4000
    keys = np.where(rng.random(n) < 0.9, 42, rng.integers(0, 50, n))
    left = pd.DataFrame({"k": keys.astype("int64"), "lv": np.arange(n)})
    right = pd.DataFrame({"k": np.arange(50, dtype="int64"), "rv": np.arange(50) * 10})
    # give the hot key several build rows to exercise replication
    right = pd.concat(
        [right, pd.DataFrame({"k": [42, 42], "rv": [1000, 2000]})], ignore_index=True
    )
    for how in ("inner", "left"):
        got = (
            shuffle_hash_join(
                _ds(left, 4), _ds(right, 2), on="k", how=how, num_buckets=8,
                left_cols=["k", "lv"], right_cols=["k", "rv"],
                hot_keys=[42], salt=4,
            )
            .to_pandas()
            .sort_values(["k", "lv", "rv"])
            .reset_index(drop=True)
        )
        exp = (
            left.merge(right, on="k", how=how)
            .sort_values(["k", "lv", "rv"])
            .reset_index(drop=True)
        )
        assert len(got) == len(exp), (how, len(got), len(exp))
        assert got["lv"].tolist() == exp["lv"].tolist()
        assert got["rv"].fillna(-1).tolist() == exp["rv"].fillna(-1).tolist()


def test_detect_hot_keys_finds_planted_skew():
    from ocr_pipeline_ray.stages.reassemble import detect_hot_keys

    rng = np.random.default_rng(9)
    keys = np.where(rng.random(20_000) < 0.4, 7, rng.integers(100, 5000, 20_000))
    ds = _ds(pd.DataFrame({"k": keys.astype("int64")}), 4)
    hot = detect_hot_keys(ds, "k", hot_fraction=0.05)
    assert hot == [7]
    # uniform keys -> nothing hot
    ds2 = _ds(pd.DataFrame({"k": rng.integers(0, 5000, 20_000).astype("int64")}), 4)
    assert detect_hot_keys(ds2, "k", hot_fraction=0.05) == []


def test_rank_in_group_matches_pandas_window(ray_session):
    """rank_in_group == row_number() OVER (PARTITION BY g ORDER BY v
    DESC, t) on a skewed distribution with heavy value ties."""
    import numpy as np
    import pandas as pd
    import ray.data

    from ocr_pipeline_ray.pipelines.relational import rank_in_group

    rng = np.random.default_rng(5)
    n = 5000
    df = pd.DataFrame(
        {
            "g": rng.choice(["a", "b", "c"], size=n, p=[0.8, 0.15, 0.05]),
            # few distinct values -> ties straddle range boundaries
            "v": rng.integers(0, 40, size=n).astype(float),
            "t": np.arange(n),
        }
    )
    ds = ray.data.from_pandas(df).repartition(8)
    got = (
        rank_in_group(ds, "g", "v", "t", out_cols=["g", "v", "t"], num_ranges=8)
        .to_pandas()
        .sort_values(["g", "rank"])
        .reset_index(drop=True)
    )
    exp = df.sort_values(["g", "v", "t"], ascending=[True, False, True]).reset_index(drop=True)
    exp["rank"] = exp.groupby("g").cumcount() + 1
    pd.testing.assert_frame_equal(got, exp[["g", "v", "t", "rank"]], check_dtype=False)


def test_segment_dedup_first_occurrence(ray_session, tmp_path):
    """Keeps exactly the first (doc_id, seg_idx) occurrence of each
    distinct segment, including within-doc repeats and partial tails."""
    import pandas as pd

    docs = pd.DataFrame(
        {
            "doc_id": [1, 2, 3],
            "text": [
                "a b c a b c d e",   # segs: 'a b c' x2 -> second dropped; tail 'd e'
                "a b c x y z",       # 'a b c' dup of doc 1; 'x y z' new
                "",                  # no tokens -> no segments
            ],
        }
    )
    d = tmp_path / "docs"
    d.mkdir()
    docs.to_parquet(d / "documents.parquet")

    from ocr_pipeline_ray.pipelines.text import segment_dedup

    out = segment_dedup(str(d))
    got = list(map(tuple, out[["doc_id", "seg_idx", "seg"]].values))
    assert got == [(1, 0, "a b c"), (1, 2, "d e"), (2, 1, "x y z")]


def test_global_rank_constant_column_is_exact(ray_session):
    """Pathological all-ties input (VERDICT r4 item 5): a constant
    rank column collapses every sampled boundary to one value — the
    shuffle serializes into a single bucket BY SEMANTIC NECESSITY (one
    global tie group must be ordered against its tie-break keys in one
    place) and the result must still equal the single-machine
    window."""
    import numpy as np
    import pandas as pd
    import ray

    from ocr_pipeline_ray.pipelines.relational import _global_rank

    n = 5000
    df = pd.DataFrame({"k": np.arange(n)[::-1], "v": np.zeros(n)})
    ranked = _global_rank(ray.data.from_pandas(df), "v", ["k"]).to_pandas()
    got = ranked.sort_values("k").reset_index(drop=True)
    # constant v -> rank is the (v, k) order = ascending k
    assert (got["rank"].to_numpy() == got["k"].to_numpy() + 1).all()
    assert len(got) == n


def test_global_rank_skewed_distribution_balances_buckets(ray_session):
    """Sampled-quantile boundaries (not fixed-width min/max): with 90%
    of the mass at 0.0 and a 10% long tail to 1e9, fixed-width splits
    would pile ~90% of rows into bucket 0 AND shatter the tail; the
    sampled boundaries must instead isolate the tie-heavy value in one
    bucket (required for exactness) and spread the tail across many
    buckets, while the ranks stay exact."""
    import numpy as np
    import pandas as pd
    import ray

    from ocr_pipeline_ray.pipelines.relational import _global_rank

    rng = np.random.default_rng(3)
    n = 20_000
    v = np.where(rng.random(n) < 0.9, 0.0, rng.random(n) * 1e9)
    df = pd.DataFrame({"k": np.arange(n), "v": v})
    ds = ray.data.from_pandas(df).repartition(8)
    ranked = _global_rank(ds, "v", ["k"], num_buckets=32).to_pandas()
    got = ranked.sort_values("k").reset_index(drop=True)
    want = df.sort_values(["v", "k"]).assign(rank=np.arange(1, n + 1)).sort_values("k")
    assert (got["rank"].to_numpy() == want["rank"].to_numpy()).all()
    tail_ranks = got.loc[got["v"] > 0, "rank"]
    assert tail_ranks.min() == int((v == 0).sum()) + 1

    # balance, asserted on the partitioner core directly: sampled
    # boundaries isolate the 90%-mass tie value in ONE bucket and
    # still spread the tail across many buckets
    from ocr_pipeline_ray.pipelines.relational import _rank_boundaries

    sv = np.sort(v)[np.linspace(0, n - 1, 2048).astype(int)]
    b = _rank_boundaries(sv, np.full(len(sv), n / len(sv)), 32)
    assert (b == 0.0).sum() <= 1  # tie value contributes one cut at most
    assert (b > 0.0).sum() >= 2  # the 10% tail still gets sub-divided
    buckets = np.searchsorted(b, v, side="right")
    assert len(np.unique(buckets[v > 0])) >= 3
    # all ties share one bucket (the exactness invariant)
    assert len(np.unique(buckets[v == 0.0])) == 1


def test_shuffle_hash_join_auto_hot_keys(ray_session):
    """hot_keys='auto' detects the planted 90%-hot key from the left
    prefix sample and produces exactly the pandas join result — the
    analytics-kernel twin of join_media_spans' automatic guard."""
    from ocr_pipeline_ray.pipelines.relational import shuffle_hash_join

    rng = np.random.default_rng(11)
    n = 6000
    keys = np.where(rng.random(n) < 0.9, 13, rng.integers(0, 40, n))
    left = pd.DataFrame({"k": keys.astype("int64"), "lv": np.arange(n)})
    right = pd.DataFrame({"k": np.arange(40, dtype="int64"), "rv": np.arange(40) * 10})
    got = (
        shuffle_hash_join(
            _ds(left, 4), _ds(right, 2), on="k", how="inner", num_buckets=8,
            left_cols=["k", "lv"], right_cols=["k", "rv"], hot_keys="auto", salt=4,
        )
        .to_pandas()
        .sort_values(["k", "lv"])
        .reset_index(drop=True)
    )
    exp = left.merge(right, on="k", how="inner").sort_values(["k", "lv"]).reset_index(drop=True)
    assert got["lv"].tolist() == exp["lv"].tolist()
    assert got["rv"].tolist() == exp["rv"].tolist()

    import pytest

    with pytest.raises(ValueError, match="auto"):
        shuffle_hash_join(_ds(left, 2), _ds(right, 2), on="k", hot_keys="bogus")
    with pytest.raises(ValueError, match="single join column"):
        shuffle_hash_join(
            _ds(left, 2), _ds(right, 2), on=["k", "lv"],
            right_cols=["k", "lv"], hot_keys="auto",
        )
