import pyarrow.parquet as pq


def test_auto_join_routes_and_matches_pandas():
    """auto_join picks broadcast for a dimension side, shuffle for two
    fact sides, and both strategies produce the pandas-merge result."""
    import pandas as pd

    from ocr_pipeline_ray.pipelines.relational import _read, auto_join

    sf = "/root/testdata/sf0.001"
    cust = _read(sf, "customer", columns=["c_custkey", "c_mktsegment"])
    orders = _read(sf, "orders", columns=["o_custkey", "o_orderkey"]).map_batches(
        lambda df: df.rename(columns={"o_custkey": "c_custkey"}), batch_format="pandas"
    )

    # dimension right side -> broadcast
    ds, dec = auto_join(orders, cust, on="c_custkey", explain=True)
    assert dec["strategy"] == "broadcast_right"
    mine = ds.to_pandas().sort_values(["o_orderkey"]).reset_index(drop=True)

    o = _read(sf, "orders").to_pandas().rename(columns={"o_custkey": "c_custkey"})
    c = _read(sf, "customer", columns=["c_custkey", "c_mktsegment"]).to_pandas()
    gold = (
        o[["c_custkey", "o_orderkey"]]
        .merge(c, on="c_custkey")
        .sort_values("o_orderkey")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(mine[gold.columns.tolist()], gold)

    # force both-large -> shuffle (threshold 1 byte), same result
    ds2, dec2 = auto_join(
        orders,
        cust,
        on="c_custkey",
        broadcast_threshold_bytes=1,
        left_cols=["c_custkey", "o_orderkey"],
        right_cols=["c_custkey", "c_mktsegment"],
        explain=True,
    )
    assert dec2["strategy"] == "shuffle_hash"
    mine2 = ds2.to_pandas().sort_values("o_orderkey").reset_index(drop=True)
    # the shuffle join's union-schema concat widens ints to float on
    # empty buckets (documented in shuffle_hash_join) — values only
    pd.testing.assert_frame_equal(mine2[gold.columns.tolist()], gold, check_dtype=False)


def test_default_num_buckets_size_probe(tmp_path, ray_session, monkeypatch):
    """Pins the private-API metadata probe (ADVICE r4): size-aware
    bucketing must (a) resolve a fresh read's bytes, (b) resolve
    THROUGH a map_batches chain via input_dependencies, and (c) fall
    back to the CPU-scaled floor WITH a one-time warning when the
    probe breaks (a Ray upgrade renaming internals must be visible,
    not silent)."""
    import logging

    import numpy as np
    import pyarrow as pa
    import ray

    import ocr_pipeline_ray.stages.reassemble as rs

    # ~8 MiB parquet of incompressible bytes
    rng = np.random.default_rng(0)
    t = pa.table({"doc_id": [f"d{i}" for i in range(256)],
                  "payload": [rng.bytes(32768) for _ in range(256)]})
    p = tmp_path / "blob.parquet"
    pq.write_table(t, p, compression="none")
    ds = ray.data.read_parquet(str(p))

    got = rs._plan_size_bytes(ds._logical_plan.dag)
    assert got is not None and got > 4 << 20  # (a) read size known

    chained = ds.map_batches(lambda b: b, batch_format="pyarrow")
    got2 = rs._plan_size_bytes(chained._logical_plan.dag)
    assert got2 == got  # (b) resolved through the map chain

    # tiny target -> bucket count scales with size, floor respected
    nb = rs.default_num_buckets(chained, floor=4, target_bucket_bytes=1 << 20)
    assert nb >= max(4, got // (1 << 20))
    assert rs.default_num_buckets(ds, floor=4) >= 4

    # (c) broken probe -> floor + ONE-time warning across calls
    rs._META_PROBE_WARNED = False

    def _broken(dag):
        raise AttributeError("renamed by a Ray upgrade")

    monkeypatch.setattr(rs, "_plan_size_bytes", _broken)
    floor = max(64, int(ray.cluster_resources().get("CPU", 8)) * 4)
    records = []

    class _H(logging.Handler):
        def emit(self, record):
            records.append(record)

    logger = logging.getLogger("ocr_pipeline_ray.stages.reassemble")
    h = _H()
    logger.addHandler(h)
    try:
        assert rs.default_num_buckets(ds, floor=64) == floor
        assert rs.default_num_buckets(ds, floor=64) == floor
    finally:
        logger.removeHandler(h)
    assert sum("size-aware" in r.getMessage() for r in records) == 1
    rs._META_PROBE_WARNED = False
