"""Stream-shaped operators over the bounded ``events`` table.

Ray Data has no event-time watermarks (SURVEY.md §2.5 — neither does
the reference; its time-based bucket flush is a processing-time
timeout, reference message_queue/message_process/hybrid.py:30-43).
Stream semantics are expressed batch-first: partition by key, sort by
``ts`` within the group, window with pandas inside ``map_groups``.
The partitioning assumption: one key's events fit one worker (salt
hot keys into (key, ts-day) sub-groups if they don't).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data

from ocr_pipeline_ray.pipelines.relational import ROUND_DECIMALS, _read

SESSION_GAP_MIN = 30

# Per-key windows never group by the fine key directly: a Python
# map_groups call costs ~0.3-0.5 ms per group (measured, BASELINE.md),
# which dominates at 10^6+ users. Keys hash into <=64 coarse buckets
# (the reassemble.pack_bucket pattern); within a bucket the window op
# is ONE vectorized call over all its users' rows.
N_USER_BUCKETS = 64


def _add_user_bucket(df: pd.DataFrame) -> pd.DataFrame:
    df = df.copy()
    df["__bucket"] = (df["user_id"].to_numpy() % N_USER_BUCKETS).astype("int64")
    return df


def events_hourly(sf_dir: str) -> pd.DataFrame:
    """Tumbling 1-hour window per event_type: count + value sum.

    The window key is computed vectorized per batch (floor to hour) so
    the shuffle groups by (event_type, hour) directly — a pre-keyed
    tumbling window, not a driver loop.
    """
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "events", columns=["event_type", "ts", "value"])

    def add_hour(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["hour"] = df["ts"].dt.floor("h")
        return df.drop(columns=["ts"])

    # (event_type, hour) grows with the stream's time extent ->
    # high-cardinality-safe bucketed aggregate
    out = (
        bucketed_aggregate(
            ds.map_batches(add_hour, batch_format="pandas"),
            ["event_type", "hour"],
            {"n_events": ("value", "size"), "sum_value": ("value", "sum")},
        )
        .to_pandas()
        .sort_values(["event_type", "hour"])
        .reset_index(drop=True)
    )
    out["sum_value"] = out["sum_value"].round(ROUND_DECIMALS)
    return out


def sessionize(sf_dir: str) -> pd.DataFrame:
    """Gap-based sessionization per user (30-min inactivity closes a
    session): ``groupby(user_id).map_groups`` over ts-sorted events.

    Returns one row per session: (user_id, session_id, n_events,
    session_start, session_end). session_id is the 0-based session
    index within the user — deterministic, replayable (no uuids;
    SURVEY.md M12)."""
    ds = _read(sf_dir, "events", columns=["user_id", "ts"])

    def _sessions_bucket(g: pd.DataFrame) -> pd.DataFrame:
        """All users of one coarse bucket, sessionized in ONE
        vectorized pass: sort by (user, ts), find session boundaries
        (user change OR gap), reduce runs with numpy — no per-user
        Python call."""
        g = g.sort_values(["user_id", "ts"])
        u = g["user_id"].to_numpy()
        ts = g["ts"].to_numpy()
        if len(u) == 0:
            return pd.DataFrame(
                {
                    "user_id": pd.Series(dtype="int64"),
                    "session_id": pd.Series(dtype="int64"),
                    "n_events": pd.Series(dtype="int64"),
                    "session_start": pd.Series(dtype="datetime64[us]"),
                    "session_end": pd.Series(dtype="datetime64[us]"),
                }
            )
        new_user = np.concatenate(([True], u[1:] != u[:-1]))
        gap = np.concatenate(
            ([False], (ts[1:] - ts[:-1]) > np.timedelta64(SESSION_GAP_MIN * 60, "s"))
        )
        new_sess = new_user | gap
        sess_ord = np.cumsum(new_sess) - 1  # global session ordinal in bucket
        user_idx = np.cumsum(new_user) - 1
        first_sess_of_user = sess_ord[np.flatnonzero(new_user)]
        session_id = sess_ord - first_sess_of_user[user_idx]
        starts = np.flatnonzero(new_sess)
        ends = np.append(starts[1:], len(u))
        return pd.DataFrame(
            {
                "user_id": u[starts],
                "session_id": session_id[starts].astype("int64"),
                "n_events": (ends - starts).astype("int64"),
                "session_start": ts[starts],
                "session_end": ts[ends - 1],
            }
        )

    return (
        ds.map_batches(_add_user_bucket, batch_format="pandas")
        .groupby("__bucket")
        .map_groups(_sessions_bucket, batch_format="pandas")
        .to_pandas()
        .sort_values(["user_id", "session_id"])
        .reset_index(drop=True)
    )


SESSIONIZE_SQL = """
WITH marked AS (
  SELECT user_id, ts,
         CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts)
                   > INTERVAL 30 MINUTE OR
                   lag(ts) OVER (PARTITION BY user_id ORDER BY ts) IS NULL
              THEN 1 ELSE 0 END AS new_session
  FROM events
), sess AS (
  SELECT user_id, ts,
         CAST(sum(new_session) OVER (PARTITION BY user_id ORDER BY ts
                                     ROWS UNBOUNDED PRECEDING) - 1 AS BIGINT) AS session_id
  FROM marked
)
SELECT user_id, session_id, count(*) AS n_events,
       min(ts) AS session_start, max(ts) AS session_end
FROM sess GROUP BY user_id, session_id
ORDER BY user_id, session_id
"""


def asof_latest_order(sf_dir: str) -> pd.DataFrame:
    """As-of join: for each event, the most recent order of that
    customer with o_orderdate <= ts (backward as-of).

    BOTH sides stream: events and orders are tagged with the same
    coarse user-bucket, union into one dataset (block concat, no
    shuffle yet), and ONE ``groupby(bucket)`` co-locates each bucket's
    events + orders; ``pd.merge_asof(..., by='user_id')`` then resolves
    the whole bucket in one vectorized call — no per-user Python call,
    no fact-table broadcast. Skewed users salt into (user, ts-range)
    sub-buckets if a single user outgrows a worker.
    """
    all_cols = ["event_id", "user_id", "ts", "o_orderkey", "o_orderdate"]

    def _tag_events(df: pd.DataFrame) -> pd.DataFrame:
        # event_id rides as float64 (exact to 2^53) so both sides'
        # blocks share one Arrow schema across the union
        out = pd.DataFrame(
            {
                "event_id": df["event_id"].astype("float64"),
                "user_id": df["user_id"].astype("int64"),
                "ts": df["ts"],
                "o_orderkey": np.nan,
                "o_orderdate": pd.NaT,
            }
        )
        out["o_orderdate"] = out["o_orderdate"].astype(df["ts"].dtype)
        out["__bucket"] = (out["user_id"].to_numpy() % N_USER_BUCKETS).astype("int64")
        out["__side"] = "e"
        return out

    def _tag_orders(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "event_id": np.nan,
                "user_id": df["o_custkey"].astype("int64"),
                "ts": pd.NaT,
                "o_orderkey": df["o_orderkey"].astype("float64"),
                "o_orderdate": df["o_orderdate"],
            }
        )
        out["ts"] = out["ts"].astype(df["o_orderdate"].dtype)
        out["__bucket"] = (out["user_id"].to_numpy() % N_USER_BUCKETS).astype("int64")
        out["__side"] = "o"
        return out

    events = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"]).map_batches(
        _tag_events, batch_format="pandas"
    )
    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate"]).map_batches(
        _tag_orders, batch_format="pandas"
    )

    def _asof_bucket(g: pd.DataFrame) -> pd.DataFrame:
        ev = g[g["__side"] == "e"][["event_id", "user_id", "ts"]].sort_values("ts")
        # ties -> merge_asof takes the last row = max o_orderkey
        od = g[g["__side"] == "o"][["user_id", "o_orderkey", "o_orderdate"]].sort_values(
            ["o_orderdate", "o_orderkey"]
        )
        out = pd.merge_asof(
            ev, od, left_on="ts", right_on="o_orderdate", by="user_id", direction="backward"
        )
        return out[["event_id", "user_id", "o_orderkey"]]

    out = (
        events.union(orders)
        .groupby("__bucket")
        .map_groups(_asof_bucket, batch_format="pandas")
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    out["event_id"] = out["event_id"].astype("int64")
    out["o_orderkey"] = out["o_orderkey"].astype("float64")
    return out[["event_id", "user_id", "o_orderkey"]]


def props_k_by_type(sf_dir: str) -> pd.DataFrame:
    """JSON-payload parser operator: extract ``props.k`` per event
    (vectorized json parse per batch) and aggregate per event_type —
    the semi-structured-parsing capability (events.props is a JSON
    string column)."""
    import json

    import pyarrow as pa

    ds = _read(sf_dir, "events", columns=["event_type", "props"])

    def parse(t: pa.Table) -> pa.Table:
        ks = []
        for p in t["props"].to_pylist():
            try:
                v = json.loads(p).get("k")
                ks.append(int(v) if v is not None else None)
            except (ValueError, TypeError, AttributeError):
                ks.append(None)  # malformed JSON -> NULL (SQL semantics)
        return pa.Table.from_arrays(
            [t["event_type"], pa.array(ks, pa.int64())], names=["event_type", "k"]
        )

    from ray.data.aggregate import Count, Sum

    df = (
        ds.map_batches(parse, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(Sum("k", alias_name="sum_k"), Count(alias_name="n_events"))
        .to_pandas()
        .sort_values("event_type")
        .reset_index(drop=True)
    )
    df["sum_k"] = df["sum_k"].astype("Int64")  # nullable: all-NULL group -> <NA> (SQL parity)
    return df


PROPS_K_SQL = """
SELECT event_type,
       CAST(sum(CAST(json_extract(props, '$.k') AS BIGINT)) AS BIGINT) AS sum_k,
       count(*) AS n_events
FROM events GROUP BY event_type ORDER BY event_type
"""


ASOF_SQL = """
WITH ranked AS (
  SELECT e.event_id, o.o_orderkey,
         row_number() OVER (PARTITION BY e.event_id
                            ORDER BY o.o_orderdate DESC, o.o_orderkey DESC) AS rn
  FROM events e JOIN orders o
    ON o.o_custkey = e.user_id AND o.o_orderdate <= e.ts
)
SELECT e.event_id, e.user_id, CAST(r.o_orderkey AS DOUBLE) AS o_orderkey
FROM events e LEFT JOIN ranked r ON r.event_id = e.event_id AND r.rn = 1
ORDER BY e.event_id
"""


def distinct_users_per_type(sf_dir: str) -> pd.DataFrame:
    """count(DISTINCT user_id) per event_type, EXACTLY, at scale:
    per-batch dedup of (event_type, user_id) pairs, ONE coarse-bucket
    shuffle on hash(user) co-locates duplicates, per-bucket dedup +
    per-type partial counts, tiny driver reduce (|types| x |buckets|
    rows). No high-cardinality groupby, no driver-side pair set; the
    approximate path at extreme cardinality is an HLL sketch with the
    same partial/combine shape."""
    ds = _read(sf_dir, "events", columns=["event_type", "user_id"])

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates(["event_type", "user_id"])
        d = d.assign(__bucket=(d["user_id"].to_numpy() % N_USER_BUCKETS).astype("int64"))
        return d

    def _count_bucket(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["event_type", "user_id"])
        out = d.groupby("event_type", as_index=False).size()
        return out.rename(columns={"size": "n"})

    parts = (
        ds.map_batches(_partial, batch_format="pandas")
        .groupby("__bucket")
        .map_groups(_count_bucket, batch_format="pandas")
        .to_pandas()
    )
    out = parts.groupby("event_type", as_index=False)["n"].sum()
    out = out.rename(columns={"n": "n_users"})
    out["n_users"] = out["n_users"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


def distinct_users_hll(sf_dir: str, p: int = 12) -> pd.DataFrame:
    """APPROXIMATE count(DISTINCT user_id) per event_type via
    HyperLogLog: one fixed-size register array per (batch, type)
    partial, max-merged on the driver (|types| x |batches| tiny rows)
    — O(2^p) state per group at any cardinality, the sketch analog of
    :func:`distinct_users_per_type`. No SQL oracle (approximate by
    design); accuracy vs the exact operator is property-tested."""

    from ocr_pipeline_ray.functions.sketches import HyperLogLog

    ds = _read(sf_dir, "events", columns=["event_type", "user_id"])

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for etype, g in df.groupby("event_type", sort=False):
            h = HyperLogLog(p).add(g["user_id"].to_numpy().astype(np.uint64))
            rows.append((etype, h.registers.tobytes()))
        return pd.DataFrame(rows, columns=["event_type", "registers"])

    parts = ds.map_batches(_partial, batch_format="pandas").take_all()
    merged: dict[str, HyperLogLog] = {}
    for r in parts:
        h = HyperLogLog(p)
        h.registers = np.frombuffer(r["registers"], dtype=np.uint8).copy()
        if r["event_type"] in merged:
            merged[r["event_type"]].merge(h)
        else:
            merged[r["event_type"]] = h
    out = pd.DataFrame(
        sorted((k, int(round(v.estimate()))) for k, v in merged.items()),
        columns=["event_type", "n_users_approx"],
    )
    out["n_users_approx"] = out["n_users_approx"].astype("int64")
    return out


def events_hopping(sf_dir: str, window_min: int = 60, hop_min: int = 15) -> pd.DataFrame:
    """HOPPING (overlapping) window per event_type: 1-hour windows
    advancing every 15 min — each event lands in window/hop (=4)
    windows. The assignment explodes vectorized per batch (np.repeat +
    one floor), so the shuffle sees pre-keyed (event_type,
    window_start) rows exactly like the tumbling case — the overlap
    factor multiplies rows inside the map stage, never the driver.
    The overlapping complement of :func:`events_hourly`."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    k = window_min // hop_min
    hop = pd.Timedelta(minutes=hop_min)
    ds = _read(sf_dir, "events", columns=["event_type", "ts", "value"])

    def explode_windows(df: pd.DataFrame) -> pd.DataFrame:
        base = df["ts"].dt.floor(f"{hop_min}min")
        idx = np.repeat(np.arange(len(df)), k)
        offs = np.tile(np.arange(k), len(df))
        out = pd.DataFrame(
            {
                "event_type": df["event_type"].to_numpy()[idx],
                "window_start": base.to_numpy()[idx] - offs * hop.to_numpy(),
                "value": df["value"].to_numpy()[idx],
            }
        )
        return out

    out = (
        bucketed_aggregate(
            ds.map_batches(explode_windows, batch_format="pandas"),
            ["event_type", "window_start"],
            {"n_events": ("value", "size"), "sum_value": ("value", "sum")},
        )
        .to_pandas()
        .sort_values(["event_type", "window_start"])
        .reset_index(drop=True)
    )
    out["sum_value"] = out["sum_value"].round(ROUND_DECIMALS)
    return out


EVENTS_HOPPING_SQL = """
SELECT event_type,
       make_timestamp((CAST(floor(epoch(ts) / 900) AS BIGINT) - u.k) * 900000000) AS window_start,
       count(*) AS n_events, round(sum(value), 4) AS sum_value
FROM events, unnest([0, 1, 2, 3]) AS u(k)
GROUP BY 1, 2 ORDER BY 1, 2
"""


def event_value_moments(sf_dir: str) -> pd.DataFrame:
    """Distributed second-moment aggregates per event_type: population
    stddev of ``value`` and corr(value, props.k) — the mergeable
    co-moment pattern: each batch emits (n, Σx, Σx², Σk, Σk², Σxk)
    partials (one row per group per batch), a tiny combine sums them,
    and the moments come out closed-form. Nothing but six scalars per
    (batch, group) ever moves — the same partial/combine discipline as
    the centroid and KLL builds, for variance/covariance."""
    import json

    import pyarrow as pa

    ds = _read(sf_dir, "events", columns=["event_type", "value", "props"])

    def _partial(t: pa.Table) -> pd.DataFrame:
        ks = []
        for p in t["props"].to_pylist():
            try:
                v = json.loads(p).get("k")
                ks.append(float(v) if v is not None else np.nan)
            except (ValueError, TypeError, AttributeError):
                ks.append(np.nan)
        df = pd.DataFrame(
            {
                "event_type": t["event_type"].to_pylist(),
                "x": np.asarray(t["value"].to_pandas(), dtype=np.float64),
                "k": np.asarray(ks, dtype=np.float64),
            }
        )
        df["x2"] = df["x"] * df["x"]
        df["k2"] = df["k"] * df["k"]
        df["xk"] = df["x"] * df["k"]
        # corr must be PAIRWISE-complete (DuckDB corr() drops rows with
        # a NULL k, while avg/stddev of value keep them) — track the
        # x-moments twice: over all rows (mean/std) and over rows with
        # a parseable k (corr), plus the pairwise row count nk
        mask = ~df["k"].isna()
        df["xp"] = df["x"].where(mask)
        df["x2p"] = df["x2"].where(mask)
        g = df.groupby("event_type", as_index=False).agg(
            n=("x", "size"), sx=("x", "sum"), sx2=("x2", "sum"),
            nk=("k", "count"), sk=("k", "sum"), sk2=("k2", "sum"), sxk=("xk", "sum"),
            sxp=("xp", "sum"), sx2p=("x2p", "sum"),
        )
        return g

    parts = ds.map_batches(_partial, batch_format="pyarrow").to_pandas()
    out = parts.groupby("event_type", as_index=False).sum()
    n = out["n"].astype(np.float64)
    mean = out["sx"] / n
    var = out["sx2"] / n - mean**2
    nk = out["nk"].astype(np.float64)
    mk = out["sk"] / nk
    mxp = out["sxp"] / nk
    cov = out["sxk"] / nk - mxp * mk
    vark = out["sk2"] / nk - mk**2
    varxp = out["sx2p"] / nk - mxp**2
    corr = cov / np.sqrt(varxp * vark)
    res = pd.DataFrame(
        {
            "event_type": out["event_type"],
            "n_events": out["n"].astype("int64"),
            "avg_value": np.round(mean, 4),
            "stddev_value": np.round(np.sqrt(var), 4),
            "corr_value_k": np.round(corr, 4),
        }
    )
    return res.sort_values("event_type").reset_index(drop=True)


EVENT_VALUE_MOMENTS_SQL = r"""
SELECT event_type, count(*) AS n_events,
       round(avg(value), 4) AS avg_value,
       round(stddev_pop(value), 4) AS stddev_value,
       round(corr(value, CAST(regexp_extract(props, '"k":\s*(-?\d+(?:\.\d+)?)', 1) AS DOUBLE)), 4) AS corr_value_k
FROM events GROUP BY event_type ORDER BY event_type
"""


def funnel_signup_purchase(sf_dir: str, window_hours: int = 24) -> pd.DataFrame:
    """Funnel conversion: users whose first ``signup`` is followed by a
    ``purchase`` within ``window_hours`` — (user_id, signup_ts,
    purchase_ts = earliest qualifying, latency_us).

    Same partitioning as sessionize: rows hash to coarse user buckets
    (a user's events co-locate), ONE shuffle, and inside each bucket
    the funnel is two vectorized groupby-mins (first signup per user,
    earliest qualifying purchase per user) — no per-user Python. Only
    converting users leave the workers. The read prunes to the two
    funnel stages with an Arrow filter before the shuffle."""
    import pyarrow as pa
    import pyarrow.compute as pc

    ds = _read(sf_dir, "events", columns=["user_id", "ts", "event_type"])

    def _prefilter(t: "pa.Table") -> "pa.Table":
        return t.filter(pc.is_in(t["event_type"], value_set=pa.array(["signup", "purchase"])))

    def _funnel_bucket(g: pd.DataFrame) -> pd.DataFrame:
        s = (
            g[g["event_type"] == "signup"]
            .groupby("user_id", as_index=False)["ts"]
            .min()
            .rename(columns={"ts": "signup_ts"})
        )
        p = g[g["event_type"] == "purchase"].merge(s, on="user_id")
        p = p[(p["ts"] > p["signup_ts"]) & (p["ts"] <= p["signup_ts"] + pd.Timedelta(hours=window_hours))]
        if p.empty:
            return pd.DataFrame(
                {
                    "user_id": pd.Series(dtype="int64"),
                    "signup_ts": pd.Series(dtype="datetime64[us]"),
                    "purchase_ts": pd.Series(dtype="datetime64[us]"),
                    "latency_us": pd.Series(dtype="int64"),
                }
            )
        out = p.groupby(["user_id", "signup_ts"], as_index=False)["ts"].min().rename(
            columns={"ts": "purchase_ts"}
        )
        out["latency_us"] = (
            (out["purchase_ts"] - out["signup_ts"]).dt.total_seconds() * 1_000_000
        ).round().astype("int64")
        return out[["user_id", "signup_ts", "purchase_ts", "latency_us"]]

    return (
        ds.map_batches(_prefilter, batch_format="pyarrow")
        .map_batches(_add_user_bucket, batch_format="pandas")
        .groupby("__bucket")
        .map_groups(_funnel_bucket, batch_format="pandas")
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )


FUNNEL_SQL = """
WITH s AS (
  SELECT user_id, min(ts) AS signup_ts FROM events
  WHERE event_type = 'signup' GROUP BY user_id
), p AS (
  SELECT e.user_id, s.signup_ts, min(e.ts) AS purchase_ts
  FROM events e JOIN s USING (user_id)
  WHERE e.event_type = 'purchase' AND e.ts > s.signup_ts
    AND e.ts <= s.signup_ts + INTERVAL 24 HOUR
  GROUP BY e.user_id, s.signup_ts
)
SELECT user_id, signup_ts, purchase_ts,
       CAST(epoch_us(purchase_ts) - epoch_us(signup_ts) AS BIGINT) AS latency_us
FROM p ORDER BY user_id
"""


def events_hourly_incremental(sf_dir: str, cutoff_frac: float = 0.6) -> pd.DataFrame:
    """INCREMENTAL aggregate maintenance: the tumbling-hour aggregate
    built in two runs — a base run over events with ts < cutoff (the
    "yesterday" batch), persisted as a partial-state parquet +
    high-watermark, then a delta run that reads ONLY rows past the
    watermark (Arrow predicate at the read — the delta scan prunes,
    it does not rescan history) and merges its partials into the
    persisted state. Returns the merged aggregate, which must equal
    the one-shot batch aggregate exactly (:func:`events_hourly` is the
    reference) — the correctness contract of incremental ETL. Sum/count
    partials merge by +; the state file is the mergeable-sketch
    discipline applied to plain aggregates."""
    import os
    import tempfile

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    # deterministic cutoff: quantile of ts over a sampled read
    full = _read(sf_dir, "events", columns=["ts"])
    lo, hi = full.min("ts"), full.max("ts")
    cutoff = lo + (hi - lo) * cutoff_frac

    def _agg(ds) -> pd.DataFrame:
        def add_hour(df: pd.DataFrame) -> pd.DataFrame:
            df = df.copy()
            df["hour"] = df["ts"].dt.floor("h")
            return df.drop(columns=["ts"])

        return (
            bucketed_aggregate(
                ds.map_batches(add_hour, batch_format="pandas"),
                ["event_type", "hour"],
                {"n_events": ("value", "size"), "sum_value": ("value", "sum")},
            )
            .to_pandas()
        )

    import shutil

    state_dir = tempfile.mkdtemp(prefix="hourly_state_")
    try:
        cols = ["event_type", "ts", "value"]

        # run 1: base batch -> persist state + watermark
        base = _read(sf_dir, "events", columns=cols).map_batches(
            lambda t: t.filter(pc.less(t["ts"], pa.scalar(cutoff))), batch_format="pyarrow"
        )
        base_parts = _agg(base)
        pq.write_table(pa.Table.from_pandas(base_parts, preserve_index=False),
                       os.path.join(state_dir, "state.parquet"))
        with open(os.path.join(state_dir, "watermark.txt"), "w") as f:
            f.write(str(cutoff))

        # run 2 (fresh logical job): read watermark, scan ONLY the delta
        wm = pd.Timestamp(open(os.path.join(state_dir, "watermark.txt")).read())
        delta = _read(sf_dir, "events", columns=cols).map_batches(
            lambda t: t.filter(pc.greater_equal(t["ts"], pa.scalar(wm))), batch_format="pyarrow"
        )
        delta_parts = _agg(delta)
        state = pq.read_table(os.path.join(state_dir, "state.parquet")).to_pandas()
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)
    merged = (
        pd.concat([state, delta_parts], ignore_index=True)
        .groupby(["event_type", "hour"], as_index=False)
        .agg(n_events=("n_events", "sum"), sum_value=("sum_value", "sum"))
        .sort_values(["event_type", "hour"])
        .reset_index(drop=True)
    )
    merged["sum_value"] = merged["sum_value"].round(ROUND_DECIMALS)
    return merged


def events_hourly_delta(sf_dir: str) -> pd.DataFrame:
    """Hour-over-hour change per event_type (window lag over an
    aggregated series): the tumbling-hour aggregate stays distributed
    (bucketed, as events_hourly), then the lag-diff runs inside ONE
    map_groups per event_type — the series is already reduced to
    |types| x |hours| rows, so the per-type sort is tiny and the full
    event stream never re-sorts."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "events", columns=["event_type", "ts", "value"])

    def add_hour(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["hour"] = df["ts"].dt.floor("h")
        return df.drop(columns=["ts"])

    hourly = bucketed_aggregate(
        ds.map_batches(add_hour, batch_format="pandas"),
        ["event_type", "hour"],
        {"sum_value": ("value", "sum")},
    )

    def _lag_diff(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("hour").reset_index(drop=True)
        sv = g["sum_value"].round(ROUND_DECIMALS)
        g["sum_value"] = sv
        g["delta"] = (sv - sv.shift(1)).round(ROUND_DECIMALS)
        return g

    out = (
        hourly.groupby("event_type")
        .map_groups(_lag_diff, batch_format="pandas")
        .to_pandas()
        .sort_values(["event_type", "hour"])
        .reset_index(drop=True)
    )
    return out[["event_type", "hour", "sum_value", "delta"]]


EVENTS_HOURLY_DELTA_SQL = """
WITH h AS (
  SELECT event_type, date_trunc('hour', ts) AS hour, round(sum(value), 4) AS sum_value
  FROM events GROUP BY event_type, date_trunc('hour', ts)
)
SELECT event_type, hour, sum_value,
       round(sum_value - lag(sum_value) OVER (PARTITION BY event_type ORDER BY hour), 4) AS delta
FROM h ORDER BY event_type, hour
"""


def user_value_anomalies(sf_dir: str, z_thresh: float = 3.0) -> pd.DataFrame:
    """Per-user anomaly detection (z-score against the user's own
    distribution): per-user moments are a bucketed co-moment partial
    (n, Σx, Σx² — the event_value_moments discipline), the closed-form
    mean/std table broadcasts back onto the streaming events, and the
    |z| filter runs vectorized per batch — only anomalous rows reach
    the driver. Membership compares the ROUNDED z so the float-drift
    tolerance is the same proven 4-decimal contract as the other
    moment queries."""
    from ocr_pipeline_ray.pipelines.relational import broadcast_lookup, bucketed_aggregate

    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "value"])

    def _widen(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["x2"] = df["value"] * df["value"]
        return df

    stats = bucketed_aggregate(
        ds.map_batches(_widen, batch_format="pandas"),
        "user_id",
        {"n": ("value", "size"), "sx": ("value", "sum"), "sx2": ("x2", "sum")},
    ).to_pandas()
    n = stats["n"].astype(np.float64)
    mu = stats["sx"] / n
    sd = np.sqrt(np.maximum(stats["sx2"] / n - mu * mu, 0.0))
    stat_map = pd.DataFrame({"user_id": stats["user_id"], "mu": mu, "sd": sd})

    def _flag(df: pd.DataFrame) -> pd.DataFrame:
        z = np.round((df["value"] - df["mu"]) / df["sd"], ROUND_DECIMALS)
        keep = (df["sd"] > 0) & (z.abs() > z_thresh)
        out = df.loc[keep, ["event_id", "user_id", "value"]].copy()
        out["z"] = z[keep]
        return out

    out = (
        broadcast_lookup(ds, "user_id", stat_map, "user_id", ["mu", "sd"])
        .map_batches(_flag, batch_format="pandas")
        .to_pandas()
    )
    if out.empty:
        return pd.DataFrame(
            {
                "event_id": pd.Series(dtype="int64"),
                "user_id": pd.Series(dtype="int64"),
                "value": pd.Series(dtype="float64"),
                "z": pd.Series(dtype="float64"),
            }
        )
    out["event_id"] = out["event_id"].astype("int64")
    out["user_id"] = out["user_id"].astype("int64")
    return out.sort_values("event_id").reset_index(drop=True)


USER_VALUE_ANOMALIES_SQL = """
WITH s AS (
  SELECT user_id, count(*) AS n, avg(value) AS mu,
         sqrt(greatest(sum(value * value) / count(*) - avg(value) * avg(value), 0)) AS sd
  FROM events GROUP BY user_id
)
SELECT event_id, e.user_id, value, round((value - mu) / sd, 4) AS z
FROM events e JOIN s ON e.user_id = s.user_id
WHERE sd > 0 AND abs(round((value - mu) / sd, 4)) > 3
ORDER BY event_id
"""


def pivot_user_event_values(sf_dir: str) -> pd.DataFrame:
    """Pivot / wide aggregation: one row per user with the summed
    ``value`` per event type as columns. The CASE-WHEN widening is
    vectorized per batch; the per-user reduce is the bucketed
    high-cardinality aggregate (10k x SF users) — the pivoted fact
    never exists row-wise."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    types = ["click", "error", "purchase", "signup", "view"]
    ds = _read(sf_dir, "events", columns=["user_id", "event_type", "value"])

    def _widen(df: pd.DataFrame) -> pd.DataFrame:
        out = {"user_id": df["user_id"]}
        for t in types:
            out[f"{t}_value"] = df["value"].where(df["event_type"] == t, 0.0)
        return pd.DataFrame(out)

    spec = {f"{t}_value": (f"{t}_value", "sum") for t in types}
    out = (
        bucketed_aggregate(
            ds.map_batches(_widen, batch_format="pandas"), "user_id", spec
        )
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    out["user_id"] = out["user_id"].astype("int64")
    for t in types:
        out[f"{t}_value"] = out[f"{t}_value"].round(ROUND_DECIMALS)
    return out


PIVOT_USER_EVENT_VALUES_SQL = """
SELECT user_id,
       round(sum(CASE WHEN event_type = 'click' THEN value ELSE 0 END), 4) AS click_value,
       round(sum(CASE WHEN event_type = 'error' THEN value ELSE 0 END), 4) AS error_value,
       round(sum(CASE WHEN event_type = 'purchase' THEN value ELSE 0 END), 4) AS purchase_value,
       round(sum(CASE WHEN event_type = 'signup' THEN value ELSE 0 END), 4) AS signup_value,
       round(sum(CASE WHEN event_type = 'view' THEN value ELSE 0 END), 4) AS view_value
FROM events GROUP BY user_id ORDER BY user_id
"""


def events_hourly_filled(sf_dir: str) -> pd.DataFrame:
    """Time-series densify (gap-fill): the tumbling-hour aggregate
    re-gridded onto the full [min_hour, max_hour] range per event
    type, missing hours zero-filled and flagged. The global bounds are
    per-batch min/max partials (two scalars to the driver); the
    densify runs per event_type inside map_groups against the
    already-reduced hourly series — the grid never materializes
    row-wise before the fill."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "events", columns=["event_type", "ts", "value"])

    def add_hour(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["hour"] = df["ts"].dt.floor("h")
        return df.drop(columns=["ts"])

    hourly = bucketed_aggregate(
        ds.map_batches(add_hour, batch_format="pandas"),
        ["event_type", "hour"],
        {"sum_value": ("value", "sum")},
    ).materialize()

    bounds = hourly.map_batches(
        lambda df: pd.DataFrame({"lo": [df["hour"].min()], "hi": [df["hour"].max()]}),
        batch_format="pandas",
    ).to_pandas()
    lo, hi = bounds["lo"].min(), bounds["hi"].max()
    grid = pd.date_range(lo, hi, freq="h")

    def _fill(g: pd.DataFrame) -> pd.DataFrame:
        et = g["event_type"].iloc[0]
        s = g.set_index("hour")["sum_value"].reindex(grid)
        return pd.DataFrame(
            {
                "event_type": et,
                "hour": grid,
                "sum_value": s.fillna(0.0).round(ROUND_DECIMALS).to_numpy(),
                "filled": s.isna().to_numpy(),
            }
        )

    out = (
        hourly.groupby("event_type")
        .map_groups(_fill, batch_format="pandas")
        .to_pandas()
        .sort_values(["event_type", "hour"])
        .reset_index(drop=True)
    )
    return out


EVENTS_HOURLY_FILLED_SQL = """
WITH h AS (
  SELECT event_type, date_trunc('hour', ts) AS hour, round(sum(value), 4) AS sum_value
  FROM events GROUP BY event_type, date_trunc('hour', ts)
),
b AS (SELECT min(hour) AS lo, max(hour) AS hi FROM h),
grid AS (
  SELECT t.event_type, g.ts AS hour
  FROM (SELECT DISTINCT event_type FROM h) t
  CROSS JOIN (
    SELECT unnest(generate_series((SELECT lo FROM b), (SELECT hi FROM b),
                                  INTERVAL 1 HOUR)) AS ts
  ) g
)
SELECT grid.event_type, grid.hour, coalesce(h.sum_value, 0.0) AS sum_value,
       h.sum_value IS NULL AS filled
FROM grid LEFT JOIN h ON h.event_type = grid.event_type AND h.hour = grid.hour
ORDER BY grid.event_type, grid.hour
"""


def user_behavior_profile(sf_dir: str) -> pd.DataFrame:
    """Per-user behavior profile: event count, distinct types, modal
    event type (count desc, type asc tie-break), and Shannon entropy
    of the type distribution. The (user, type) counts are one bucketed
    aggregate; mode and entropy reduce per USER bucket with vectorized
    pandas (sort + drop_duplicates for the argmax, a transform-sum for
    the distribution) — the <=|types| rows per user never leave their
    bucket unreduced."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "events", columns=["user_id", "event_type"])
    counts = bucketed_aggregate(
        ds, ["user_id", "event_type"], {"n": ("event_type", "size")}
    )

    def _ubucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["__ubucket"] = (df["user_id"].to_numpy() % 32).astype("int64")
        return df

    def _profile(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "n", "event_type"], ascending=[True, False, True])
        tot = g.groupby("user_id")["n"].transform("sum")
        p = g["n"] / tot
        ent = (
            (-p * np.log(p))
            .groupby(g["user_id"])
            .sum()
            .rename("entropy")
            .reset_index()
        )
        agg = g.groupby("user_id", as_index=False).agg(
            n_events=("n", "sum"), n_types=("event_type", "size")
        )
        mode = g.drop_duplicates("user_id")[["user_id", "event_type"]].rename(
            columns={"event_type": "mode_type"}
        )
        out = agg.merge(mode, on="user_id").merge(ent, on="user_id")
        out["entropy"] = out["entropy"].round(ROUND_DECIMALS)
        return out

    out = (
        counts.map_batches(_ubucket, batch_format="pandas")
        .groupby("__ubucket")
        .map_groups(_profile, batch_format="pandas")
        .to_pandas()
    )
    out["user_id"] = out["user_id"].astype("int64")
    out["n_events"] = out["n_events"].astype("int64")
    out["n_types"] = out["n_types"].astype("int64")
    return out[["user_id", "n_events", "n_types", "mode_type", "entropy"]].sort_values(
        "user_id"
    ).reset_index(drop=True)


USER_BEHAVIOR_PROFILE_SQL = """
WITH c AS (
  SELECT user_id, event_type, count(*) AS n FROM events GROUP BY user_id, event_type
),
t AS (SELECT user_id, sum(n) AS tot FROM c GROUP BY user_id),
e AS (
  SELECT c.user_id, CAST(sum(n) AS BIGINT) AS n_events, count(*) AS n_types,
         round(-sum((n * 1.0 / tot) * ln(n * 1.0 / tot)), 4) AS entropy
  FROM c JOIN t ON c.user_id = t.user_id GROUP BY c.user_id
),
m AS (
  SELECT user_id, event_type AS mode_type
  FROM (SELECT user_id, event_type,
               row_number() OVER (PARTITION BY user_id ORDER BY n DESC, event_type) AS rn
        FROM c)
  WHERE rn = 1
)
SELECT e.user_id, n_events, n_types, mode_type, entropy
FROM e JOIN m ON e.user_id = m.user_id
ORDER BY e.user_id
"""


def cohort_retention(sf_dir: str) -> pd.DataFrame:
    """Cohort retention matrix (product-analytics shape): users bucket
    into their first-activity week; each (cohort_week, activity_week)
    cell counts the cohort's users active that week. Weeks are integer
    epoch-day arithmetic (exact in both engines). All three reductions
    are distributed: distinct (user, week) pairs and per-user cohort
    minima via bucketed aggregates, the cohort attach via ONE
    streaming shuffle join (user cardinality is fact-scale — no
    broadcast), the cell counts via a final bucketed aggregate. Key
    columns pin int64 before re-joining (see shuffle_hash_join's dtype
    discipline)."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate, shuffle_hash_join

    ds = _read(sf_dir, "events", columns=["user_id", "ts"])

    def _week(df: pd.DataFrame) -> pd.DataFrame:
        days = (df["ts"].dt.normalize() - pd.Timestamp("1970-01-01")).dt.days
        return pd.DataFrame({"user_id": df["user_id"], "week": (days // 7).astype("int64")})

    activity = bucketed_aggregate(
        ds.map_batches(_week, batch_format="pandas"),
        ["user_id", "week"],
        {"n": ("week", "size")},
    ).map_batches(
        lambda df: pd.DataFrame(
            {"user_id": df["user_id"].astype("int64"), "week": df["week"].astype("int64")}
        ),
        batch_format="pandas",
    ).materialize()

    cohort = bucketed_aggregate(
        activity, "user_id", {"cohort_week": ("week", "min")}, num_buckets=16
    ).map_batches(
        lambda df: pd.DataFrame(
            {
                "user_id": df["user_id"].astype("int64"),
                "cohort_week": df["cohort_week"].astype("int64"),
            }
        ),
        batch_format="pandas",
    )

    joined = shuffle_hash_join(
        activity,
        cohort,
        on="user_id",
        num_buckets=16,
        left_cols=["user_id", "week"],
        right_cols=["user_id", "cohort_week"],
    )
    out = bucketed_aggregate(
        joined, ["cohort_week", "week"], {"n_users": ("user_id", "size")}, num_buckets=16
    ).to_pandas()
    out = out.rename(columns={"week": "activity_week"})
    for c in ("cohort_week", "activity_week", "n_users"):
        out[c] = out[c].astype("int64")
    return out.sort_values(["cohort_week", "activity_week"]).reset_index(drop=True)


COHORT_RETENTION_SQL = """
WITH a AS (
  SELECT DISTINCT user_id,
         CAST(floor(date_diff('day', DATE '1970-01-01', CAST(ts AS DATE)) / 7) AS BIGINT) AS week
  FROM events
),
c AS (SELECT user_id, min(week) AS cohort_week FROM a GROUP BY user_id)
SELECT cohort_week, week AS activity_week, count(*) AS n_users
FROM a JOIN c ON a.user_id = c.user_id
GROUP BY cohort_week, week
ORDER BY cohort_week, activity_week
"""

def session_concurrency(sf_dir: str) -> pd.DataFrame:
    """Interval-overlap coverage: for every wall-clock hour, how many
    sessions were active (a session covers every hour bucket its
    [start, end] interval touches). Stream-shaped: sessions are built
    per coarse user bucket (the ``sessionize`` machinery), each session
    explodes into its covered hours VECTORIZED (repeat + offset
    arange, no per-session Python), counts pre-aggregate inside the
    same map_groups call, and one small bucketed aggregate sums the
    per-bucket partials. Only (hour, partial_count) rows shuffle —
    never the sessions, never the events."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "events", columns=["user_id", "ts"])
    hour_us = 3_600_000_000

    def _hours_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts"])
        u = g["user_id"].to_numpy()
        ts = g["ts"].to_numpy("datetime64[us]").astype("int64")
        if len(u) == 0:
            return pd.DataFrame(
                {"hour": pd.Series(dtype="int64"), "n": pd.Series(dtype="int64")}
            )
        new_user = np.concatenate(([True], u[1:] != u[:-1]))
        gap = np.concatenate(([False], (ts[1:] - ts[:-1]) > SESSION_GAP_MIN * 60_000_000))
        new_sess = new_user | gap
        starts = np.flatnonzero(new_sess)
        ends = np.append(starts[1:], len(u))
        start_h = ts[starts] // hour_us
        end_h = ts[ends - 1] // hour_us
        n_hours = end_h - start_h + 1
        # explode [start_h..end_h] per session: repeat starts, add a
        # per-session 0..n-1 ramp built from one global arange
        total = int(n_hours.sum())
        base = np.repeat(start_h, n_hours)
        excl = np.concatenate(([0], np.cumsum(n_hours)[:-1]))
        ramp = np.arange(total) - np.repeat(excl, n_hours)
        hours = base + ramp
        hr, cnt = np.unique(hours, return_counts=True)
        return pd.DataFrame({"hour": hr.astype("int64"), "n": cnt.astype("int64")})

    out = (
        bucketed_aggregate(
            ds.map_batches(_add_user_bucket, batch_format="pandas")
            .groupby("__bucket")
            .map_groups(_hours_bucket, batch_format="pandas"),
            "hour",
            {"n_active": ("n", "sum")},
            num_buckets=16,
        )
        .to_pandas()
        .sort_values("hour")
        .reset_index(drop=True)
    )
    out["n_active"] = out["n_active"].astype("int64")
    out["hour"] = pd.to_datetime(out["hour"].astype("int64") * hour_us, unit="us")
    return out[["hour", "n_active"]]


SESSION_CONCURRENCY_SQL = """
WITH marked AS (
  SELECT user_id, ts,
         CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts)
                   > INTERVAL 30 MINUTE OR
                   lag(ts) OVER (PARTITION BY user_id ORDER BY ts) IS NULL
              THEN 1 ELSE 0 END AS new_session
  FROM events
), sess AS (
  SELECT user_id, ts,
         sum(new_session) OVER (PARTITION BY user_id ORDER BY ts
                                ROWS UNBOUNDED PRECEDING) AS session_id
  FROM marked
), agg AS (
  SELECT user_id, session_id, min(ts) AS session_start, max(ts) AS session_end
  FROM sess GROUP BY user_id, session_id
)
SELECT t.hour, count(*) AS n_active
FROM agg CROSS JOIN unnest(generate_series(date_trunc('hour', session_start),
                            date_trunc('hour', session_end), INTERVAL 1 HOUR)) AS t(hour)
GROUP BY t.hour ORDER BY t.hour
"""

def event_transitions(sf_dir: str) -> pd.DataFrame:
    """Markov transition counts over each user's event stream: global
    counts of (prev_type -> next_type) adjacent pairs in (ts,
    event_id) order. Same partitioning contract as ``sessionize``:
    users hash into coarse buckets, ONE vectorized shift per bucket
    (user-boundary rows masked out), pairs pre-count inside the
    map_groups call, and a small bucketed aggregate sums the
    per-bucket partials — only (pair, count) rows shuffle."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "events", columns=["user_id", "ts", "event_id", "event_type"])

    def _pairs_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        u = g["user_id"].to_numpy()
        et = g["event_type"].to_numpy()
        if len(u) < 2:
            return pd.DataFrame(
                {
                    "prev_type": pd.Series(dtype="object"),
                    "next_type": pd.Series(dtype="object"),
                    "n": pd.Series(dtype="int64"),
                }
            )
        same_user = u[1:] == u[:-1]
        prev = et[:-1][same_user]
        nxt = et[1:][same_user]
        # pre-count within the bucket: factorize pairs, one bincount
        df = pd.DataFrame({"prev_type": prev, "next_type": nxt})
        cnt = df.groupby(["prev_type", "next_type"], sort=False).size().reset_index(name="n")
        cnt["n"] = cnt["n"].astype("int64")
        return cnt

    out = (
        bucketed_aggregate(
            ds.map_batches(_add_user_bucket, batch_format="pandas")
            .groupby("__bucket")
            .map_groups(_pairs_bucket, batch_format="pandas"),
            ["prev_type", "next_type"],
            {"n": ("n", "sum")},
            num_buckets=8,
        )
        .to_pandas()
        .sort_values(["prev_type", "next_type"])
        .reset_index(drop=True)
    )
    out["n"] = out["n"].astype("int64")
    return out


EVENT_TRANSITIONS_SQL = """
WITH seq AS (
  SELECT user_id, event_type,
         lag(event_type) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS prev_type
  FROM events
)
SELECT prev_type, event_type AS next_type, count(*) AS n
FROM seq WHERE prev_type IS NOT NULL
GROUP BY prev_type, next_type ORDER BY prev_type, next_type
"""


def latest_event_state(sf_dir: str) -> pd.DataFrame:
    """CDC/upsert compaction — last-writer-wins: for every
    (user_id, event_type) key, the value of the LATEST event
    (tie-broken by event_id). The changelog-to-snapshot primitive
    behind mutable-table maintenance at scale: each batch keeps one
    candidate row per key (vectorized sort + drop_duplicates), ONE
    hash shuffle co-locates candidates, each bucket resolves the same
    way — the winner never travels with more than |keys| rows."""
    num_buckets = 16
    ds = _read(sf_dir, "events", columns=["user_id", "event_type", "ts", "event_id", "value"])

    def _best(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(
            ["user_id", "event_type", "ts", "event_id"],
            ascending=[True, True, False, False],
        ).drop_duplicates(["user_id", "event_type"])

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        b = _best(df).copy()
        h = pd.util.hash_pandas_object(
            b[["user_id", "event_type"]], index=False
        )
        b["__bucket"] = (h.to_numpy() % num_buckets).astype("int64")
        return b

    out = (
        ds.map_batches(_partial, batch_format="pandas")
        .groupby("__bucket")
        .map_groups(lambda g: _best(g).drop(columns="__bucket"), batch_format="pandas")
        .to_pandas()
    )
    out["user_id"] = out["user_id"].astype("int64")
    out["event_id"] = out["event_id"].astype("int64")
    out["value"] = out["value"].round(4)
    return out.sort_values(["user_id", "event_type"]).reset_index(drop=True)


LATEST_EVENT_STATE_SQL = """
SELECT user_id, event_type, ts, event_id, round(value, 4) AS value
FROM (
  SELECT *, row_number() OVER (PARTITION BY user_id, event_type
                               ORDER BY ts DESC, event_id DESC) AS rn
  FROM events
)
WHERE rn = 1
ORDER BY user_id, event_type
"""


def rolling_distinct_types(sf_dir: str) -> pd.DataFrame:
    """Per event: how many DISTINCT event types this user produced in
    the trailing hour (inclusive window [ts - 1h, ts]) — the windowed
    count-distinct no SQL window frame supports (DuckDB has no
    COUNT(DISTINCT) OVER; the oracle is a correlated subquery). Shape:
    user-bucket shuffle (fixed-width rows only), per-bucket
    chronological sort, and a two-pointer sliding window per user with
    a type-multiset — O(n) per user, state never bigger than the
    window. At 100 TB each user's history is small and bucket-local;
    nothing crosses buckets."""
    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "ts", "event_type"])

    def _scan(g: pd.DataFrame) -> pd.DataFrame:
        from collections import Counter

        g = g.sort_values(["user_id", "ts", "event_id"])
        out_ids, out_n = [], []
        for _, u in g.groupby("user_id", sort=False):
            ts = u["ts"].to_numpy()
            types = u["event_type"].to_numpy()
            ids = u["event_id"].to_numpy()
            window: Counter = Counter()
            lo = hi = 0
            n_rows = len(u)
            horizon = np.timedelta64(1, "h")
            for i in range(n_rows):
                # include EVERY event at ts <= ts[i] (same-timestamp
                # peers count regardless of event_id order — matches
                # the oracle's e2.ts <= e1.ts frame)
                while hi < n_rows and ts[hi] <= ts[i]:
                    window[types[hi]] += 1
                    hi += 1
                while ts[lo] < ts[i] - horizon:
                    window[types[lo]] -= 1
                    if window[types[lo]] == 0:
                        del window[types[lo]]
                    lo += 1
                out_ids.append(ids[i])
                out_n.append(len(window))
        return pd.DataFrame(
            {
                "event_id": pd.Series(out_ids, dtype="int64"),
                "n_types_1h": pd.Series(out_n, dtype="int64"),
            }
        )

    return (
        ds.map_batches(_add_user_bucket, batch_format="pandas")
        .groupby("__bucket")
        .map_groups(_scan, batch_format="pandas")
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )


ROLLING_DISTINCT_TYPES_SQL = """
SELECT e1.event_id,
       (SELECT CAST(count(DISTINCT e2.event_type) AS BIGINT) FROM events e2
        WHERE e2.user_id = e1.user_id
          AND e2.ts >= e1.ts - INTERVAL 1 HOUR AND e2.ts <= e1.ts) AS n_types_1h
FROM events e1 ORDER BY e1.event_id
"""


def scd2_state_dwell(sf_dir: str) -> pd.DataFrame:
    """SCD Type-2 interval construction + dwell-time rollup: each
    user's event stream is a changelog of their current state
    (event_type); consecutive events define validity intervals
    [ts, next_ts). Reports, per state, how many CLOSED intervals were
    built and the total dwell time in microseconds — the
    slowly-changing-dimension primitive behind temporal snapshots.
    ONE user-bucket shuffle; within a bucket the lead() is a single
    vectorized sort + shift over all users' rows (user-boundary rows
    masked out); only (event_type, count, sum) partials return."""
    ds = _read(sf_dir, "events", columns=["user_id", "ts", "event_id", "event_type"])

    def _dwell_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        ts_us = g["ts"].to_numpy().astype("datetime64[us]").astype("int64")
        uid = g["user_id"].to_numpy()
        next_ts = np.roll(ts_us, -1)
        closed = np.empty(len(g), dtype=bool)
        if len(g):
            closed[:-1] = uid[:-1] == uid[1:]
            closed[-1] = False
        out = pd.DataFrame(
            {
                "event_type": g["event_type"].to_numpy()[closed],
                "dwell_us": (next_ts - ts_us)[closed],
            }
        )
        p = out.groupby("event_type", as_index=False).agg(
            n_intervals=("dwell_us", "size"), dwell_us=("dwell_us", "sum")
        )
        return p

    parts = (
        ds.map_batches(_add_user_bucket, batch_format="pandas")
        .groupby("__bucket")
        .map_groups(
            lambda g: _dwell_bucket(g.drop(columns="__bucket")), batch_format="pandas"
        )
        .to_pandas()
    )
    # Python-int accumulate: microsecond sums can approach int64 scale
    # at high SF (same overflow discipline as table_checksum).
    rows = []
    for et, grp in parts.groupby("event_type"):
        rows.append(
            {
                "event_type": et,
                "n_intervals": int(sum(int(x) for x in grp["n_intervals"])),
                "dwell_us": int(sum(int(x) for x in grp["dwell_us"])),
            }
        )
    out = pd.DataFrame(rows, columns=["event_type", "n_intervals", "dwell_us"])
    out["n_intervals"] = out["n_intervals"].astype("int64")
    out["dwell_us"] = out["dwell_us"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


SCD2_STATE_DWELL_SQL = """
SELECT event_type,
       CAST(count(*) AS BIGINT) AS n_intervals,
       CAST(sum(epoch_us(next_ts) - epoch_us(ts)) AS BIGINT) AS dwell_us
FROM (
  SELECT event_type, ts,
         lead(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS next_ts
  FROM events
)
WHERE next_ts IS NOT NULL
GROUP BY event_type ORDER BY event_type
"""


def events_dow_profile(sf_dir: str) -> pd.DataFrame:
    """Calendar profile: event count and value sum by (ISO day of
    week, hour of day) — the date-part aggregate family. Exact
    integer/sum partials per batch, one tiny bucketed combine; the
    168-cell output never exceeds a broadcastable size at any SF."""
    ds = _read(sf_dir, "events", columns=["ts", "value"])

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        d = pd.DataFrame(
            {
                "isodow": (df["ts"].dt.dayofweek + 1).astype("int64"),
                "hour": df["ts"].dt.hour.astype("int64"),
                "value": df["value"],
            }
        )
        return d.groupby(["isodow", "hour"], as_index=False).agg(
            n_events=("value", "size"), sum_value=("value", "sum")
        )

    parts = ds.map_batches(_partial, batch_format="pandas").to_pandas()
    out = parts.groupby(["isodow", "hour"], as_index=False)[["n_events", "sum_value"]].sum()
    # value literals carry 4 decimals, so sums are exact at round(4);
    # a mean would divide onto .5 boundaries where pandas (half-even)
    # and DuckDB (half-away) disagree
    out["sum_value"] = out["sum_value"].round(4)
    out["n_events"] = out["n_events"].astype("int64")
    return out.sort_values(["isodow", "hour"]).reset_index(drop=True)


EVENTS_DOW_PROFILE_SQL = """
SELECT CAST(isodow(ts) AS BIGINT) AS isodow,
       CAST(hour(ts) AS BIGINT) AS hour,
       CAST(count(*) AS BIGINT) AS n_events,
       round(sum(value), 4) AS sum_value
FROM events GROUP BY 1, 2 ORDER BY 1, 2
"""


def state_as_of(sf_dir: str, lag_days: int = 7) -> pd.DataFrame:
    """Point-in-time (AS OF) snapshot — the query side of SCD2: each
    user's state (their latest event_type) at cut = max(ts) - lag_days,
    rolled up to users-per-state. Two stages: a tiny extrema pass
    derives the cut; then the filtered stream resolves
    latest-event-per-USER exactly like :func:`latest_event_state`
    (per-batch best, ONE key shuffle, per-bucket re-best) and only the
    per-type counts return."""
    ds = _read(sf_dir, "events", columns=["user_id", "event_type", "ts", "event_id"])

    mx = ds.map_batches(
        lambda df: pd.DataFrame({"m": [df["ts"].max()]}) if len(df) else pd.DataFrame({"m": []}),
        batch_format="pandas",
    ).to_pandas()
    cut = mx["m"].max() - pd.Timedelta(days=lag_days)
    num_buckets = 16

    def _best(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(
            ["user_id", "ts", "event_id"], ascending=[True, False, False]
        ).drop_duplicates(["user_id"])

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["ts"] <= cut]
        if df.empty:
            return pd.DataFrame(
                {"user_id": pd.Series(dtype="int64"), "event_type": pd.Series(dtype="object"),
                 "ts": pd.Series(dtype="datetime64[us]"), "event_id": pd.Series(dtype="int64"),
                 "__bucket": pd.Series(dtype="int64")}
            )
        b = _best(df).copy()
        b["__bucket"] = (b["user_id"].to_numpy() % num_buckets).astype("int64")
        return b

    resolved = (
        ds.map_batches(_partial, batch_format="pandas")
        .groupby("__bucket")
        .map_groups(lambda g: _best(g), batch_format="pandas")
    )

    def _count(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("event_type", as_index=False).size().rename(columns={"size": "n_users"})

    parts = resolved.map_batches(_count, batch_format="pandas").to_pandas()
    out = parts.groupby("event_type", as_index=False)["n_users"].sum()
    out["n_users"] = out["n_users"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


STATE_AS_OF_SQL = """
WITH t AS (SELECT max(ts) - INTERVAL 7 DAY AS cut FROM events),
r AS (
  SELECT user_id, event_type,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY ts DESC, event_id DESC) AS rn
  FROM events, t WHERE ts <= t.cut
)
SELECT event_type, CAST(count(*) AS BIGINT) AS n_users
FROM r WHERE rn = 1 GROUP BY event_type ORDER BY event_type
"""


def interval_union_coverage(sf_dir: str) -> pd.DataFrame:
    """Interval UNION (island detection): each event opens a validity
    window [ts, ts + (event_id % 30 + 1) minutes); overlapping windows
    of one user merge into maximal islands. Reports per user the
    island count and total covered microseconds — the
    coverage/uptime-rollup primitive. ONE user-bucket shuffle; within
    a bucket the merge is a vectorized per-user running-max sweep
    (pandas groupby().cummax(), no Python loop)."""
    ds = _read(sf_dir, "events", columns=["user_id", "ts", "event_id"])

    def _islands(g: pd.DataFrame) -> pd.DataFrame:
        g = g.copy()
        s = g["ts"].to_numpy().astype("datetime64[us]").astype("int64")
        dur = ((g["event_id"].to_numpy() % 30) + 1) * 60_000_000
        g["s"] = s
        g["e"] = s + dur
        g = g.sort_values(["user_id", "s", "e"], kind="mergesort")
        # running max of interval end within user, EXCLUSIVE of the
        # current row: a new island starts when s > that max
        prev_max = g.groupby("user_id")["e"].cummax().groupby(g["user_id"]).shift(1)
        island = ((g["s"] > prev_max) | prev_max.isna()).cumsum()
        isl = (
            g.assign(__island=island)
            .groupby(["user_id", "__island"], as_index=False)
            .agg(s0=("s", "min"), e1=("e", "max"))
        )
        isl["cov"] = isl["e1"] - isl["s0"]
        return isl.groupby("user_id", as_index=False).agg(
            n_islands=("cov", "size"), covered_us=("cov", "sum")
        )

    out = (
        ds.map_batches(_add_user_bucket, batch_format="pandas")
        .groupby("__bucket")
        .map_groups(lambda g: _islands(g.drop(columns="__bucket")), batch_format="pandas")
        .to_pandas()
    )
    for c in ("user_id", "n_islands", "covered_us"):
        out[c] = out[c].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


INTERVAL_UNION_COVERAGE_SQL = """
WITH iv AS (
  SELECT user_id, ts AS s,
         ts + (event_id % 30 + 1) * INTERVAL 1 MINUTE AS e
  FROM events
),
m AS (
  SELECT user_id, s, e,
         CASE WHEN s > max(e) OVER (PARTITION BY user_id ORDER BY s, e
              ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
              THEN 1 ELSE 0 END AS new_island
  FROM iv
),
g AS (
  SELECT user_id, s, e,
         sum(new_island) OVER (PARTITION BY user_id ORDER BY s, e
             ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS island
  FROM m
),
isl AS (
  SELECT user_id, island, min(s) AS s0, max(e) AS e1 FROM g GROUP BY user_id, island
)
SELECT user_id, CAST(count(*) AS BIGINT) AS n_islands,
       CAST(sum(epoch_us(e1) - epoch_us(s0)) AS BIGINT) AS covered_us
FROM isl GROUP BY user_id ORDER BY user_id
"""


def events_time_rollup(sf_dir: str) -> pd.DataFrame:
    """Multi-granularity time rollup in ONE scan: hour, day and week
    tumbling counts emitted as partials from the same pass (the
    GROUPING SETS analog over event time — one fact read feeds every
    grain instead of three scans). Week = ISO Monday truncation,
    matching date_trunc('week')."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "events", columns=["ts"])

    def _grains(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for grain, trunc in (
            ("hour", df["ts"].dt.floor("h")),
            ("day", df["ts"].dt.floor("D")),
            ("week", (df["ts"] - pd.to_timedelta(df["ts"].dt.dayofweek, unit="D")).dt.floor("D")),
        ):
            g = trunc.value_counts().rename_axis("period_start").reset_index(name="n_events")
            g["grain"] = grain
            outs.append(g)
        return pd.concat(outs, ignore_index=True)[["grain", "period_start", "n_events"]]

    out = (
        bucketed_aggregate(
            ds.map_batches(_grains, batch_format="pandas"),
            ["grain", "period_start"],
            {"n_events": ("n_events", "sum")},
            num_buckets=8,
        )
        .to_pandas()
        .sort_values(["grain", "period_start"])
        .reset_index(drop=True)
    )
    out["n_events"] = out["n_events"].astype("int64")
    return out


EVENTS_TIME_ROLLUP_SQL = """
SELECT grain, period_start, CAST(count(*) AS BIGINT) AS n_events FROM (
  SELECT 'hour' AS grain, date_trunc('hour', ts) AS period_start FROM events
  UNION ALL SELECT 'day', date_trunc('day', ts) FROM events
  UNION ALL SELECT 'week', date_trunc('week', ts) FROM events
) GROUP BY grain, period_start ORDER BY grain, period_start
"""


def chi2_type_dow(sf_dir: str) -> pd.DataFrame:
    """Pearson chi-square independence test between event_type and ISO
    day-of-week — the statistical-monitoring primitive behind "did the
    traffic mix shift?" alerts. The contingency counts reduce through
    one bucketed aggregate (|types| x 7 cells); the tiny densified
    table computes chi2 = sum((o-e)^2 / e) on the driver with all
    zero cells contributing their expectation."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "events", columns=["event_type", "ts"])

    def _cells(df: pd.DataFrame) -> pd.DataFrame:
        d = pd.DataFrame(
            {"event_type": df["event_type"], "dow": (df["ts"].dt.dayofweek + 1).astype("int64")}
        )
        return d.groupby(["event_type", "dow"], as_index=False).size().rename(columns={"size": "o"})

    cells = bucketed_aggregate(
        ds.map_batches(_cells, batch_format="pandas"),
        ["event_type", "dow"],
        {"o": ("o", "sum")},
        num_buckets=8,
    ).to_pandas()
    pivot = cells.pivot_table(index="event_type", columns="dow", values="o", fill_value=0)
    # densify onto the full 1..7 dow range (a dow absent EVERYWHERE has
    # zero column total and contributes nothing — drop it like the SQL
    # does by building the domain from observed distinct values)
    o = pivot.to_numpy(dtype=np.float64)
    n = o.sum()
    e = o.sum(axis=1, keepdims=True) @ o.sum(axis=0, keepdims=True) / n
    chi2 = float(((o - e) ** 2 / e).sum())
    dof = (o.shape[0] - 1) * (o.shape[1] - 1)
    return pd.DataFrame(
        {"chi2": [round(chi2, 4)], "dof": pd.Series([dof], dtype="int64")}
    )


CHI2_TYPE_DOW_SQL = """
WITH c AS (
  SELECT event_type, isodow(ts) AS dow, count(*) AS o FROM events GROUP BY 1, 2
),
t AS (SELECT DISTINCT event_type FROM c),
d AS (SELECT DISTINCT dow FROM c),
f AS (
  SELECT t.event_type, d.dow, COALESCE(c.o, 0) AS o
  FROM t CROSS JOIN d LEFT JOIN c ON c.event_type = t.event_type AND c.dow = d.dow
),
r AS (SELECT event_type, sum(o) AS rt FROM f GROUP BY 1),
k AS (SELECT dow, sum(o) AS ct FROM f GROUP BY 1),
n AS (SELECT sum(o) AS n FROM f)
SELECT round(sum((f.o - r.rt * k.ct / n.n) * (f.o - r.rt * k.ct / n.n)
                 / (r.rt * k.ct / n.n)), 4) AS chi2,
       (SELECT CAST((count(*) - 1) AS BIGINT) FROM t)
         * (SELECT CAST((count(*) - 1) AS BIGINT) FROM d) AS dof
FROM f JOIN r USING (event_type) JOIN k USING (dow) CROSS JOIN n
"""


def decayed_user_value(sf_dir: str, half_life_hours: float = 24.0) -> pd.DataFrame:
    """Exponential time-decay aggregate: per user, sum of
    value * 2^(-(t_ref - ts)/half_life) with t_ref = max(ts) over the
    stream — the recency-weighted feature behind engagement scores.
    Pass 1 is a tiny extrema reduce for t_ref; pass 2 emits per-batch
    per-user partial decayed sums (the decay factors multiply into the
    batch BEFORE the shuffle, so partials stay additive). Only
    (user, float) pairs move."""
    ds = _read(sf_dir, "events", columns=["user_id", "ts", "value"])

    mx = ds.map_batches(
        lambda df: pd.DataFrame({"m": [df["ts"].max()]}) if len(df) else pd.DataFrame({"m": []}),
        batch_format="pandas",
    ).to_pandas()
    t_ref = mx["m"].max()
    ref_us = np.int64(pd.Timestamp(t_ref).value // 1000)
    hl_us = half_life_hours * 3_600_000_000.0

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        age = ref_us - df["ts"].to_numpy().astype("datetime64[us]").astype("int64")
        w = np.exp2(-age / hl_us)
        out = pd.DataFrame({"user_id": df["user_id"], "dv": df["value"].to_numpy() * w})
        return out.groupby("user_id", as_index=False)["dv"].sum()

    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    out = (
        bucketed_aggregate(
            ds.map_batches(_partial, batch_format="pandas"),
            "user_id",
            {"dv": ("dv", "sum")},
            num_buckets=16,
        )
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    out["user_id"] = out["user_id"].astype("int64")
    out["decayed_value"] = out["dv"].round(6)
    return out[["user_id", "decayed_value"]]


DECAYED_USER_VALUE_SQL = """
WITH t AS (SELECT max(ts) AS t_ref FROM events)
SELECT user_id,
       round(sum(value * pow(2.0,
             -(epoch_us(t.t_ref) - epoch_us(ts)) / 86400000000.0)), 6)
         AS decayed_value
FROM events, t GROUP BY user_id ORDER BY user_id
"""


def rolling_median_value(sf_dir: str, window: int = 5) -> pd.DataFrame:
    """Order-statistic window: per event, the median of the user's
    trailing ``window`` values (fewer at the stream head) — the
    robust-smoothing counterpart of the rolling mean. ONE user-bucket
    shuffle; inside a bucket pandas ``rolling(window).median()`` runs
    per user group in C (the frame never crosses users because the
    roll is applied per group)."""
    ds = _read(sf_dir, "events", columns=["user_id", "ts", "event_id", "value"])

    def _roll(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        med = (
            g.groupby("user_id", sort=False)["value"]
            .rolling(window, min_periods=1)
            .median()
            .reset_index(drop=True)
        )
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(),
                "user_id": g["user_id"].to_numpy(),
                "rolling_median": med.to_numpy().round(4),
            }
        )

    out = (
        ds.map_batches(_add_user_bucket, batch_format="pandas")
        .groupby("__bucket")
        .map_groups(lambda g: _roll(g.drop(columns="__bucket")), batch_format="pandas")
        .to_pandas()
    )
    out["event_id"] = out["event_id"].astype("int64")
    out["user_id"] = out["user_id"].astype("int64")
    return out.sort_values("event_id").reset_index(drop=True)


ROLLING_MEDIAN_VALUE_SQL = """
SELECT event_id, user_id,
       round(median(value) OVER (PARTITION BY user_id ORDER BY ts, event_id
             ROWS BETWEEN 4 PRECEDING AND CURRENT ROW), 4) AS rolling_median
FROM events ORDER BY event_id
"""


def type_cooccurrence_matrix(sf_dir: str) -> pd.DataFrame:
    """Co-engagement matrix: for every pair of event types, how many
    users produced BOTH — the exact set-intersection counts behind
    audience-overlap analysis. Distinct (user, type) pairs reduce
    through one bucketed pass; within a USER bucket every user
    contributes its type-pair combinations (types are a tiny enum, so
    the per-user explosion is bounded); tiny per-pair partial sums
    return."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "events", columns=["user_id", "event_type"])

    def _distinct(df: pd.DataFrame) -> pd.DataFrame:
        out = df.drop_duplicates().copy()
        out["one"] = 1
        return out

    ut = bucketed_aggregate(
        ds.map_batches(_distinct, batch_format="pandas"),
        ["user_id", "event_type"],
        {"one": ("one", "min")},
        num_buckets=16,
    )

    def _ubucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df[["user_id", "event_type"]].copy()
        df["__ubucket"] = (df["user_id"].to_numpy() % 16).astype("int64")
        return df

    def _pairs(g: pd.DataFrame) -> pd.DataFrame:
        m = g.merge(g, on="user_id")
        m = m[m["event_type_x"] < m["event_type_y"]]
        return m.groupby(["event_type_x", "event_type_y"], as_index=False).size().rename(
            columns={"size": "n_users"}
        )

    parts = (
        ut.map_batches(_ubucket, batch_format="pandas")
        .groupby("__ubucket")
        .map_groups(lambda g: _pairs(g.drop(columns="__ubucket")), batch_format="pandas")
        .to_pandas()
    )
    out = parts.groupby(["event_type_x", "event_type_y"], as_index=False)["n_users"].sum()
    out = out.rename(columns={"event_type_x": "type_a", "event_type_y": "type_b"})
    out["n_users"] = out["n_users"].astype("int64")
    return out.sort_values(["type_a", "type_b"]).reset_index(drop=True)


TYPE_COOCCURRENCE_SQL = """
WITH ut AS (SELECT DISTINCT user_id, event_type FROM events)
SELECT a.event_type AS type_a, b.event_type AS type_b,
       CAST(count(*) AS BIGINT) AS n_users
FROM ut a JOIN ut b ON a.user_id = b.user_id AND a.event_type < b.event_type
GROUP BY 1, 2 ORDER BY 1, 2
"""


def hourly_value_bands(sf_dir: str) -> pd.DataFrame:
    """Grouped continuous quantiles over time buckets: p50 / p95 of
    event value per hour (linear interpolation, quantile_cont
    semantics) — the percentile-band timeseries behind latency/SLO
    dashboards. Hours are the shuffle key: each hour's values
    co-locate in one bucket group and the exact interpolated
    quantiles compute vectorized per hour; only (hour, p50, p95)
    rows return."""
    ds = _read(sf_dir, "events", columns=["ts", "value"])

    def _hour(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({"hour": df["ts"].dt.floor("h"), "value": df["value"]})
        out["__bucket"] = (
            out["hour"].astype("int64") // 3_600_000_000_000 % 16
        ).astype("int64")
        return out

    def _bands(g: pd.DataFrame) -> pd.DataFrame:
        q = g.groupby("hour")["value"].quantile([0.5, 0.95]).unstack()
        return pd.DataFrame(
            {
                "hour": q.index,
                "p50": q[0.5].to_numpy().round(4),
                "p95": q[0.95].to_numpy().round(4),
            }
        )

    out = (
        ds.map_batches(_hour, batch_format="pandas")
        .groupby("__bucket")
        .map_groups(lambda g: _bands(g.drop(columns="__bucket")), batch_format="pandas")
        .to_pandas()
        .sort_values("hour")
        .reset_index(drop=True)
    )
    return out


HOURLY_VALUE_BANDS_SQL = """
SELECT date_trunc('hour', ts) AS hour,
       round(quantile_cont(value, 0.5), 4) AS p50,
       round(quantile_cont(value, 0.95), 4) AS p95
FROM events GROUP BY 1 ORDER BY 1
"""


def dedup_events_window(sf_dir: str, tol_seconds: int = 60) -> pd.DataFrame:
    """Streaming retry suppression: within each (user, event_type)
    stream, an event arriving less than ``tol_seconds`` after its
    predecessor is treated as an at-least-once duplicate and dropped
    (gap-based, lag semantics). Reports survivors per type. ONE
    user-bucket shuffle; the gap test is a single vectorized
    shift-compare over the bucket with key-boundary masking."""
    ds = _read(sf_dir, "events", columns=["user_id", "event_type", "ts", "event_id"])

    def _scan(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "event_type", "ts", "event_id"], kind="mergesort")
        ts = g["ts"].to_numpy().astype("datetime64[us]").astype("int64")
        u = g["user_id"].to_numpy()
        t = g["event_type"].to_numpy()
        first = np.concatenate(([True], (u[1:] != u[:-1]) | (t[1:] != t[:-1])))
        gap = np.concatenate(([0], ts[1:] - ts[:-1]))
        keep = first | (gap >= tol_seconds * 1_000_000)
        out = pd.DataFrame({"event_type": t[keep]})
        return out.groupby("event_type", as_index=False).size().rename(columns={"size": "n_kept"})

    parts = (
        ds.map_batches(_add_user_bucket, batch_format="pandas")
        .groupby("__bucket")
        .map_groups(lambda g: _scan(g.drop(columns="__bucket")), batch_format="pandas")
        .to_pandas()
    )
    out = parts.groupby("event_type", as_index=False)["n_kept"].sum()
    out["n_kept"] = out["n_kept"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


DEDUP_EVENTS_WINDOW_SQL = """
WITH l AS (
  SELECT event_type,
         epoch_us(ts) - epoch_us(lag(ts) OVER (PARTITION BY user_id, event_type
                                               ORDER BY ts, event_id)) AS gap
  FROM events
)
SELECT event_type, CAST(count(*) AS BIGINT) AS n_kept
FROM l WHERE gap IS NULL OR gap >= 60000000
GROUP BY event_type ORDER BY event_type
"""


def time_weighted_avg_value(sf_dir: str) -> pd.DataFrame:
    """Time-weighted average (step/ZOH integration): per user, each
    event's value holds until the next event, so
    TWA = sum(value_i * (t_{i+1} - t_i)) / (t_last - t_first) — the
    sensor/metric-rollup semantic where arithmetic means over-weight
    bursts. ONE user-bucket shuffle; the integration is the same
    masked shift used by :func:`scd2_state_dwell`; users with a
    single event are skipped (zero span)."""
    ds = _read(sf_dir, "events", columns=["user_id", "ts", "event_id", "value"])

    def _twa(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        ts = g["ts"].to_numpy().astype("datetime64[us]").astype("int64")
        u = g["user_id"].to_numpy()
        v = g["value"].to_numpy(np.float64)
        nxt = np.roll(ts, -1)
        closed = np.empty(len(g), dtype=bool)
        if len(g):
            closed[:-1] = u[:-1] == u[1:]
            closed[-1] = False
        d = pd.DataFrame(
            {"user_id": u[closed], "num": v[closed] * (nxt - ts)[closed],
             "den": (nxt - ts)[closed].astype("float64")}
        )
        return d.groupby("user_id", as_index=False)[["num", "den"]].sum()

    parts = (
        ds.map_batches(_add_user_bucket, batch_format="pandas")
        .groupby("__bucket")
        .map_groups(lambda g: _twa(g.drop(columns="__bucket")), batch_format="pandas")
        .to_pandas()
    )
    out = parts.groupby("user_id", as_index=False)[["num", "den"]].sum()
    out = out[out["den"] > 0]
    out["twa_value"] = (out["num"] / out["den"]).round(6)
    out["user_id"] = out["user_id"].astype("int64")
    return out[["user_id", "twa_value"]].sort_values("user_id").reset_index(drop=True)


TIME_WEIGHTED_AVG_VALUE_SQL = """
WITH s AS (
  SELECT user_id, value,
         epoch_us(lead(ts) OVER w) - epoch_us(ts) AS dt
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
)
SELECT user_id, round(sum(value * dt) / sum(dt), 6) AS twa_value
FROM s WHERE dt IS NOT NULL
GROUP BY user_id HAVING sum(dt) > 0 ORDER BY user_id
"""


def cumulative_unique_users(sf_dir: str) -> pd.DataFrame:
    """Audience growth curve: per day, the cumulative count of
    DISTINCT users seen so far — the running-distinct semantic that a
    naive window cannot pre-aggregate but FIRST-SEEN reduction can:
    min(first day) per user shuffles once (tiny pairs), the per-day
    new-user counts walk cumulatively on the driver, densified onto
    the observed day grid."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "events", columns=["user_id", "ts"])

    def _first(df: pd.DataFrame) -> pd.DataFrame:
        d = pd.DataFrame({"user_id": df["user_id"], "day": df["ts"].dt.floor("D")})
        return d.groupby("user_id", as_index=False)["day"].min()

    firsts = bucketed_aggregate(
        ds.map_batches(_first, batch_format="pandas"),
        "user_id",
        {"day": ("day", "min")},
        num_buckets=16,
    ).to_pandas()

    days = (
        ds.map_batches(
            lambda df: pd.DataFrame({"day": df["ts"].dt.floor("D").unique()}),
            batch_format="pandas",
        )
        .to_pandas()["day"]
        .drop_duplicates()
        .sort_values()
    )
    new_per_day = firsts.groupby("day").size()
    out = pd.DataFrame({"day": days.to_numpy()})
    out["cum_users"] = (
        out["day"].map(new_per_day).fillna(0).cumsum().astype("int64")
    )
    return out.reset_index(drop=True)


CUMULATIVE_UNIQUE_USERS_SQL = """
WITH f AS (
  SELECT user_id, min(date_trunc('day', ts)) AS day FROM events GROUP BY 1
),
nu AS (SELECT day, count(*) AS n_new FROM f GROUP BY 1),
days AS (SELECT DISTINCT date_trunc('day', ts) AS day FROM events)
SELECT days.day,
       CAST(sum(COALESCE(nu.n_new, 0)) OVER (ORDER BY days.day) AS BIGINT)
         AS cum_users
FROM days LEFT JOIN nu ON nu.day = days.day
ORDER BY days.day
"""


def transition_entropy(sf_dir: str) -> pd.DataFrame:
    """Conditional entropy H(next | prev) of the user event-type
    Markov chain, in nats — the predictability diagnostic over the
    same distributed transition counts as :func:`event_transitions`
    (the count table is |types|² and tiny; the information-theoretic
    reduction runs on the driver with the oracle's exact formula
    H = -sum p(a,b) * ln(c(a,b) / c(a,·)))."""
    counts = event_transitions(sf_dir)
    n_total = counts["n"].sum()
    row_tot = counts.groupby("prev_type")["n"].transform("sum")
    p_ab = counts["n"] / n_total
    h = float(-(p_ab * np.log(counts["n"] / row_tot)).sum())
    return pd.DataFrame(
        {"n_transitions": pd.Series([int(n_total)], dtype="int64"),
         "cond_entropy": [round(h, 6)]}
    )


TRANSITION_ENTROPY_SQL = """
WITH p AS (
  SELECT user_id, event_type,
         lead(event_type) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS nxt
  FROM events
),
c AS (
  SELECT event_type AS prev_type, nxt AS next_type, count(*) AS n
  FROM p WHERE nxt IS NOT NULL GROUP BY 1, 2
),
r AS (SELECT prev_type, sum(n) AS rt FROM c GROUP BY 1),
t AS (SELECT sum(n) AS nt FROM c)
SELECT CAST(t.nt AS BIGINT) AS n_transitions,
       round(-sum((c.n * 1.0 / t.nt) * ln(c.n * 1.0 / r.rt)), 6) AS cond_entropy
FROM c JOIN r USING (prev_type) CROSS JOIN t
GROUP BY t.nt
"""


def bounce_rate(sf_dir: str) -> pd.DataFrame:
    """Bounce rate: the fraction of sessions containing exactly one
    event (30-min gap sessionization) — the engagement-quality KPI
    composed from the same vectorized boundary scan as
    :func:`sessionize`, reduced to per-bucket (n_sessions, n_bounces)
    partials instead of materializing session rows."""
    ds = _read(sf_dir, "events", columns=["user_id", "ts"])

    def _count_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts"])
        u = g["user_id"].to_numpy()
        ts = g["ts"].to_numpy()
        if len(u) == 0:
            return pd.DataFrame({"n_sessions": [0], "n_bounces": [0]})
        new_user = np.concatenate(([True], u[1:] != u[:-1]))
        gap = np.concatenate(
            ([False], (ts[1:] - ts[:-1]) > np.timedelta64(SESSION_GAP_MIN * 60, "s"))
        )
        new_sess = new_user | gap
        starts = np.flatnonzero(new_sess)
        ends = np.append(starts[1:], len(u))
        sizes = ends - starts
        return pd.DataFrame(
            {"n_sessions": [int(len(starts))], "n_bounces": [int((sizes == 1).sum())]}
        )

    parts = (
        ds.map_batches(_add_user_bucket, batch_format="pandas")
        .groupby("__bucket")
        .map_groups(lambda g: _count_bucket(g.drop(columns="__bucket")), batch_format="pandas")
        .to_pandas()
    )
    ns, nb = int(parts["n_sessions"].sum()), int(parts["n_bounces"].sum())
    return pd.DataFrame(
        {"n_sessions": pd.Series([ns], dtype="int64"),
         "n_bounces": pd.Series([nb], dtype="int64"),
         "bounce_rate": [round(nb / ns, 6) if ns else float("nan")]}
    )


BOUNCE_RATE_SQL = """
WITH marked AS (
  SELECT user_id, ts,
         CASE WHEN lag(ts) OVER w IS NULL
                   OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
              THEN 1 ELSE 0 END AS new_sess
  FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts)
),
sess AS (
  SELECT user_id,
         sum(new_sess) OVER (PARTITION BY user_id ORDER BY ts
             ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS sid
  FROM marked
),
sizes AS (SELECT user_id, sid, count(*) AS sz FROM sess GROUP BY 1, 2)
SELECT CAST(count(*) AS BIGINT) AS n_sessions,
       CAST(sum(CASE WHEN sz = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_bounces,
       round(sum(CASE WHEN sz = 1 THEN 1 ELSE 0 END) * 1.0 / count(*), 6)
         AS bounce_rate
FROM sizes
"""


def asof_next_order(sf_dir: str) -> pd.DataFrame:
    """FORWARD as-of join: for each event, the EARLIEST order of that
    customer with o_orderdate >= ts (ties -> min o_orderkey) — the
    "what did this touchpoint convert into" direction that completes
    the as-of family. Identical two-sided bucket topology to
    :func:`asof_latest_order`; only the merge_asof direction and the
    tie-side sort flip."""
    def _tag_events(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "event_id": df["event_id"].astype("float64"),
                "user_id": df["user_id"].astype("int64"),
                "ts": df["ts"],
                "o_orderkey": np.nan,
                "o_orderdate": pd.NaT,
            }
        )
        out["o_orderdate"] = out["o_orderdate"].astype(df["ts"].dtype)
        out["__bucket"] = (out["user_id"].to_numpy() % N_USER_BUCKETS).astype("int64")
        out["__side"] = "e"
        return out

    def _tag_orders(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "event_id": np.nan,
                "user_id": df["o_custkey"].astype("int64"),
                "ts": pd.NaT,
                "o_orderkey": df["o_orderkey"].astype("float64"),
                "o_orderdate": df["o_orderdate"],
            }
        )
        out["ts"] = out["ts"].astype(df["o_orderdate"].dtype)
        out["__bucket"] = (out["user_id"].to_numpy() % N_USER_BUCKETS).astype("int64")
        out["__side"] = "o"
        return out

    events = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"]).map_batches(
        _tag_events, batch_format="pandas"
    )
    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate"]).map_batches(
        _tag_orders, batch_format="pandas"
    )

    def _asof_bucket(g: pd.DataFrame) -> pd.DataFrame:
        ev = g[g["__side"] == "e"][["event_id", "user_id", "ts"]].sort_values("ts")
        # forward + ascending (date, orderkey) -> first match = min key
        od = g[g["__side"] == "o"][["user_id", "o_orderkey", "o_orderdate"]].sort_values(
            ["o_orderdate", "o_orderkey"]
        )
        out = pd.merge_asof(
            ev, od, left_on="ts", right_on="o_orderdate", by="user_id",
            direction="forward",
        )
        return out[["event_id", "user_id", "o_orderkey"]]

    out = (
        events.union(orders)
        .groupby("__bucket")
        .map_groups(_asof_bucket, batch_format="pandas")
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    out["event_id"] = out["event_id"].astype("int64")
    out["o_orderkey"] = out["o_orderkey"].astype("float64")
    return out[["event_id", "user_id", "o_orderkey"]]


ASOF_NEXT_ORDER_SQL = """
WITH j AS (
  SELECT e.event_id, e.user_id, o.o_orderkey,
         row_number() OVER (PARTITION BY e.event_id
                            ORDER BY o.o_orderdate, o.o_orderkey) AS rn
  FROM events e LEFT JOIN orders o
    ON o.o_custkey = e.user_id AND o.o_orderdate >= e.ts
)
SELECT event_id, user_id, CAST(o_orderkey AS DOUBLE) AS o_orderkey
FROM j WHERE rn = 1 ORDER BY event_id
"""


def centered_moving_avg(sf_dir: str, half: int = 2) -> pd.DataFrame:
    """Centered smoothing window: per event, the mean of the user's
    values over ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING (partial at
    the stream edges) — the symmetric-frame variant the trailing
    windows don't cover. ONE user-bucket shuffle; pandas
    rolling(center=True) runs per user group in C."""
    window = 2 * half + 1
    ds = _read(sf_dir, "events", columns=["user_id", "ts", "event_id", "value"])

    def _roll(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        sm = (
            g.groupby("user_id", sort=False)["value"]
            .rolling(window, center=True, min_periods=1)
            .mean()
            .reset_index(drop=True)
        )
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(),
                "user_id": g["user_id"].to_numpy(),
                "smoothed": sm.to_numpy().round(6),
            }
        )

    out = (
        ds.map_batches(_add_user_bucket, batch_format="pandas")
        .groupby("__bucket")
        .map_groups(lambda g: _roll(g.drop(columns="__bucket")), batch_format="pandas")
        .to_pandas()
    )
    out["event_id"] = out["event_id"].astype("int64")
    out["user_id"] = out["user_id"].astype("int64")
    return out.sort_values("event_id").reset_index(drop=True)


CENTERED_MOVING_AVG_SQL = """
SELECT event_id, user_id,
       round(avg(value) OVER (PARTITION BY user_id ORDER BY ts, event_id
             ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING), 6) AS smoothed
FROM events ORDER BY event_id
"""


def user_type_bitmask(sf_dir: str) -> pd.DataFrame:
    """Bitmask aggregate: per user, an int64 whose bit i is set iff
    the user produced the i-th event type (types indexed in sorted
    order) — the compact engagement-profile encoding behind audience
    segmentation joins. The tiny type dimension derives distributed,
    broadcasts as an index map, and the per-user single-bit masks
    dedup-and-sum through ONE bucket shuffle (equal to the bitwise OR
    — associative, commutative, mergeable like sums)."""
    ds = _read(sf_dir, "events", columns=["user_id", "event_type"])
    types = sorted(
        ds.map_batches(
            lambda df: pd.DataFrame({"t": df["event_type"].unique()}),
            batch_format="pandas",
        )
        .to_pandas()["t"]
        .unique()
    )
    idx = {t: i for i, t in enumerate(types)}

    def _or_reduce(d: pd.DataFrame) -> pd.DataFrame:
        # bitwise OR is not in bucketed_aggregate's named-fn set, but
        # for a one-bit-per-row encoding OR(group) == max over the
        # per-(user, bit) dedup — simpler: groupby + np.bitwise_or
        # via the sum of DISTINCT single-bit masks
        dd = d.drop_duplicates(["user_id", "mask"])
        return dd.groupby("user_id", as_index=False)["mask"].sum()

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        d = pd.DataFrame(
            {"user_id": df["user_id"],
             "mask": np.left_shift(np.int64(1), df["event_type"].map(idx).to_numpy("int64"))}
        )
        # keep single-bit masks through the shuffle: the combine
        # dedups (user, bit) and sums — equal to the bitwise OR
        d = d.drop_duplicates()
        d["__bucket"] = (d["user_id"].to_numpy() % 16).astype("int64")
        return d

    out = (
        ds.map_batches(_partial, batch_format="pandas")
        .groupby("__bucket")
        .map_groups(lambda g: _or_reduce(g.drop(columns="__bucket")), batch_format="pandas")
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    out["user_id"] = out["user_id"].astype("int64")
    out = out.rename(columns={"mask": "type_mask"})
    out["type_mask"] = out["type_mask"].astype("int64")
    return out


USER_TYPE_BITMASK_SQL = """
WITH t AS (
  SELECT event_type, row_number() OVER (ORDER BY event_type) - 1 AS idx
  FROM (SELECT DISTINCT event_type FROM events)
)
SELECT user_id, CAST(bit_or(1 << t.idx) AS BIGINT) AS type_mask
FROM events e JOIN t USING (event_type)
GROUP BY user_id ORDER BY user_id
"""


def top_session_paths(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Path mining: the k most common 3-step event-type paths taken
    WITHIN a session (30-min gap sessionization) — transitions tell
    you edges, paths tell you flows. The trigram extraction is two
    vectorized shifts over the session-bounded stream inside each
    user bucket; (path, count) partials reduce through the bucketed
    aggregate and a partial top-k. Tie-break: count desc, path asc."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate, partial_topk

    ds = _read(sf_dir, "events", columns=["user_id", "ts", "event_id", "event_type"])

    def _trigrams(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        u = g["user_id"].to_numpy()
        ts = g["ts"].to_numpy()
        et = g["event_type"].to_numpy()
        if len(u) < 3:
            return pd.DataFrame({"t1": [], "t2": [], "t3": [], "n": []})
        new_user = np.concatenate(([True], u[1:] != u[:-1]))
        gap = np.concatenate(
            ([False], (ts[1:] - ts[:-1]) > np.timedelta64(SESSION_GAP_MIN * 60, "s"))
        )
        new_sess = new_user | gap
        sess = np.cumsum(new_sess)  # session ordinal in bucket
        same3 = (sess[:-2] == sess[1:-1]) & (sess[1:-1] == sess[2:])
        d = pd.DataFrame(
            {"t1": et[:-2][same3], "t2": et[1:-1][same3], "t3": et[2:][same3]}
        )
        out = d.groupby(["t1", "t2", "t3"], as_index=False).size().rename(columns={"size": "n"})
        out["n"] = out["n"].astype("int64")
        return out

    totals = bucketed_aggregate(
        ds.map_batches(_add_user_bucket, batch_format="pandas")
        .groupby("__bucket")
        .map_groups(lambda g: _trigrams(g.drop(columns="__bucket")), batch_format="pandas"),
        ["t1", "t2", "t3"],
        {"n": ("n", "sum")},
        num_buckets=8,
    )
    out = partial_topk(totals, by=["n", "t1", "t2", "t3"], ascending=[False, True, True, True], k=k)
    out["n"] = out["n"].astype("int64")
    return out[["t1", "t2", "t3", "n"]].reset_index(drop=True)


def top_session_paths_sql(k: int = 10) -> str:
    return f"""
WITH marked AS (
  SELECT user_id, ts, event_id, event_type,
         CASE WHEN lag(ts) OVER w IS NULL
                   OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
              THEN 1 ELSE 0 END AS new_sess
  FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
),
sess AS (
  SELECT user_id, ts, event_id, event_type,
         sum(new_sess) OVER (PARTITION BY user_id ORDER BY ts, event_id
             ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS sid
  FROM marked
),
tri AS (
  SELECT event_type AS t1,
         lead(event_type, 1) OVER w2 AS t2,
         lead(event_type, 2) OVER w2 AS t3,
         sid,
         lead(sid, 2) OVER w2 AS sid3
  FROM sess WINDOW w2 AS (PARTITION BY user_id ORDER BY ts, event_id)
)
SELECT t1, t2, t3, CAST(count(*) AS BIGINT) AS n
FROM tri WHERE sid3 = sid
GROUP BY 1, 2, 3 ORDER BY n DESC, t1, t2, t3 LIMIT {k}
"""


TOP_SESSION_PATHS_SQL = top_session_paths_sql()


def user_activity_streaks(sf_dir: str) -> pd.DataFrame:
    """Gaps-and-islands per user: count of distinct active days and
    the LONGEST run of consecutive active days (the classic streak
    query; the reference has no window engine at all — SURVEY §2.5).

    Scale plan: (user_id, day) pairs are deduped per batch (bounded
    partial), then ONE shuffle on the coarse user bucket; inside a
    bucket the island detection is fully vectorized across all its
    users (sort by (user, day), run starts where the user changes or
    the day step != 1, run lengths by cumsum-of-starts bincount) — no
    per-user Python loop, no global sort.
    """
    ds = _read(sf_dir, "events", columns=["user_id", "ts"])

    def _days(df: pd.DataFrame) -> pd.DataFrame:
        day = (
            df["ts"].to_numpy("datetime64[us]").astype("datetime64[D]").astype("int64")
        )
        out = pd.DataFrame({"user_id": df["user_id"].to_numpy("int64"), "day": day})
        out = out.drop_duplicates()
        out["__bucket"] = (out["user_id"] % N_USER_BUCKETS).astype("int64")
        return out

    def _streaks(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["user_id", "day"]).sort_values(["user_id", "day"])
        u = g["user_id"].to_numpy("int64")
        d = g["day"].to_numpy("int64")
        start = np.ones(len(g), dtype=bool)
        if len(g) > 1:
            start[1:] = (u[1:] != u[:-1]) | (d[1:] - d[:-1] != 1)
        run_id = np.cumsum(start) - 1
        run_len = np.bincount(run_id)
        run_user = u[start]
        per_run = pd.DataFrame({"user_id": run_user, "len": run_len})
        out = per_run.groupby("user_id", as_index=False).agg(
            longest_streak=("len", "max"), n_active_days=("len", "sum")
        )
        return out[["user_id", "n_active_days", "longest_streak"]]

    out = (
        ds.map_batches(_days, batch_format="pandas")
        .groupby("__bucket")
        .map_groups(lambda g: _streaks(g.drop(columns="__bucket")), batch_format="pandas")
        .to_pandas()
    )
    out["user_id"] = out["user_id"].astype("int64")
    out["n_active_days"] = out["n_active_days"].astype("int64")
    out["longest_streak"] = out["longest_streak"].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


USER_ACTIVITY_STREAKS_SQL = """
WITH d AS (
  SELECT DISTINCT user_id, CAST(date_trunc('day', ts) AS DATE) AS day FROM events
),
r AS (
  SELECT user_id, day,
         datediff('day', DATE '1970-01-01', day)
           - row_number() OVER (PARTITION BY user_id ORDER BY day) AS grp
  FROM d
),
runs AS (
  SELECT user_id, grp, count(*) AS len FROM r GROUP BY user_id, grp
)
SELECT user_id, CAST(sum(len) AS BIGINT) AS n_active_days,
       CAST(max(len) AS BIGINT) AS longest_streak
FROM runs GROUP BY user_id ORDER BY user_id
"""


def interarrival_stats(sf_dir: str) -> pd.DataFrame:
    """Inter-arrival gap statistics of the per-type event stream
    (consecutive events ordered by ts): gap count, mean and max in
    seconds — the burstiness profile / Poisson-rate MLE input.

    Scale plan exploits the telescoping identity: the SUM of
    consecutive gaps is max(ts) - min(ts), so the mean needs only the
    per-type (n, min, max) — one tiny aggregate, NO ordering at all.
    Only max_gap needs sequence locality: rows hash into (type, day)
    blocks, each block computes its internal max gap vectorized
    (sorted diffs), and the driver stitches the O(types x days)
    block summaries with cross-block boundary gaps. No global sort,
    driver work is summary-sized.
    """
    ds = _read(sf_dir, "events", columns=["event_type", "ts"])

    # ONE shuffle on (type, day): block count = types x days (small),
    # each map_groups group is one block, diffed vectorized inside.
    def _key(df: pd.DataFrame) -> pd.DataFrame:
        t = df["ts"].to_numpy("datetime64[us]").astype("int64")
        return pd.DataFrame(
            {"event_type": df["event_type"], "day": t // (86_400 * 1_000_000), "t": t}
        )

    def _block(g: pd.DataFrame) -> pd.DataFrame:
        t = np.sort(g["t"].to_numpy("int64"))
        max_gap = int(np.diff(t).max()) if len(t) > 1 else -1
        return pd.DataFrame(
            {
                "event_type": [g["event_type"].iloc[0]],
                "day": [int(g["day"].iloc[0])],
                "n": [len(t)],
                "lo": [int(t[0])],
                "hi": [int(t[-1])],
                "max_gap": [max_gap],
            }
        )

    blocks = (
        ds.map_batches(_key, batch_format="pandas")
        .groupby(["event_type", "day"])
        .map_groups(_block, batch_format="pandas")
        .to_pandas()
    )
    rows = []
    for et, b in blocks.groupby("event_type"):
        b = b.sort_values("day")
        n = int(b["n"].sum())
        if n < 2:
            continue
        boundary = (b["lo"].to_numpy("int64")[1:] - b["hi"].to_numpy("int64")[:-1])
        max_gap = max(
            int(b["max_gap"].max()),
            int(boundary.max()) if len(boundary) else -1,
        )
        mean_gap = (int(b["hi"].max()) - int(b["lo"].min())) / (n - 1) / 1e6
        rows.append((et, n - 1, round(mean_gap, 6), round(max_gap / 1e6, 6)))
    out = pd.DataFrame(rows, columns=["event_type", "n_gaps", "mean_gap_s", "max_gap_s"])
    out["n_gaps"] = out["n_gaps"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


INTERARRIVAL_STATS_SQL = """
WITH d AS (
  SELECT event_type,
         epoch(ts) - lag(epoch(ts)) OVER (PARTITION BY event_type ORDER BY ts) AS gap
  FROM events
)
SELECT event_type, CAST(count(gap) AS BIGINT) AS n_gaps,
       round(avg(gap), 6) AS mean_gap_s, round(max(gap), 6) AS max_gap_s
FROM d WHERE gap IS NOT NULL
GROUP BY event_type ORDER BY event_type
"""


def welch_ttest_value(sf_dir: str) -> pd.DataFrame:
    """Welch two-sample t-test of ``value`` between purchase and view
    events: t statistic + Welch-Satterthwaite dof. The entire fact
    scan reduces to six numbers (n, sum, sumsq per group) via
    per-batch partials — a one-pass, shuffle-free moment aggregate;
    the test statistic is arithmetic on the driver.
    """
    ds = _read(sf_dir, "events", columns=["event_type", "value"])

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        sub = df[df["event_type"].isin(["purchase", "view"])]
        g = sub.groupby("event_type")["value"]
        return pd.DataFrame(
            {
                "event_type": g.sum().index,
                "n": g.count().to_numpy("int64"),
                "s": g.sum().to_numpy("float64"),
                "ss": g.apply(lambda v: float((v.to_numpy() ** 2).sum())).to_numpy(
                    "float64"
                ),
            }
        )

    parts = ds.map_batches(_partial, batch_format="pandas").to_pandas()
    m = parts.groupby("event_type").sum()
    stats = {}
    for et in ("purchase", "view"):
        n = float(m.loc[et, "n"])
        s = float(m.loc[et, "s"])
        ss = float(m.loc[et, "ss"])
        mean = s / n
        var = (ss - s * s / n) / (n - 1.0)
        stats[et] = (n, mean, var)
    n1, m1, v1 = stats["purchase"]
    n2, m2, v2 = stats["view"]
    se2 = v1 / n1 + v2 / n2
    t = (m1 - m2) / np.sqrt(se2)
    dof = se2 * se2 / ((v1 / n1) ** 2 / (n1 - 1.0) + (v2 / n2) ** 2 / (n2 - 1.0))
    return pd.DataFrame(
        {"t_stat": [round(float(t), 6)], "dof": [round(float(dof), 6)]}
    )


WELCH_TTEST_VALUE_SQL = """
WITH g AS (
  SELECT event_type, count(*) AS n, avg(value) AS m, var_samp(value) AS v
  FROM events WHERE event_type IN ('purchase', 'view') GROUP BY 1
),
p AS (SELECT n, m, v FROM g WHERE event_type = 'purchase'),
w AS (SELECT n, m, v FROM g WHERE event_type = 'view')
SELECT
  round((p.m - w.m) / sqrt(p.v / p.n + w.v / w.n), 6) AS t_stat,
  round(pow(p.v / p.n + w.v / w.n, 2)
        / (pow(p.v / p.n, 2) / (p.n - 1) + pow(w.v / w.n, 2) / (w.n - 1)),
        6) AS dof
FROM p, w
"""


def rolling_corr_daily(sf_dir: str, window: int = 7) -> pd.DataFrame:
    """7-day rolling Pearson correlation between the daily view count
    and daily purchase count (co-movement of two derived series — the
    windowed two-series statistic Ray Data has no primitive for).
    The fact table collapses to one row per (type, day) through the
    bucketed aggregate; the zero-filled pivot + rolling corr run on
    the result-sized daily series. Only full windows are emitted
    (partial leading windows are alignment-ambiguous across engines).
    """
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "events", columns=["event_type", "ts"])

    def _day(df: pd.DataFrame) -> pd.DataFrame:
        sub = df[df["event_type"].isin(["purchase", "view"])]
        return pd.DataFrame(
            {"event_type": sub["event_type"], "day": sub["ts"].dt.floor("D")}
        )

    daily = (
        bucketed_aggregate(
            ds.map_batches(_day, batch_format="pandas"),
            ["event_type", "day"],
            {"n": ("day", "size")},
            num_buckets=16,
        )
        .to_pandas()
    )
    lo, hi = daily["day"].min(), daily["day"].max()
    spine = pd.date_range(lo, hi, freq="D")
    piv = (
        daily.pivot_table(index="day", columns="event_type", values="n", fill_value=0)
        .reindex(spine, fill_value=0)
        .astype("float64")
    )
    x = piv.get("view", pd.Series(0.0, index=spine))
    y = piv.get("purchase", pd.Series(0.0, index=spine))
    r = x.rolling(window).corr(y)
    out = pd.DataFrame({"day": spine, "corr7": r.round(6)})
    out = out.iloc[window - 1 :].reset_index(drop=True)
    return out


ROLLING_CORR_DAILY_SQL = """
WITH spine AS (
  SELECT unnest(generate_series(
    (SELECT date_trunc('day', min(ts)) FROM events
      WHERE event_type IN ('purchase','view')),
    (SELECT date_trunc('day', max(ts)) FROM events
      WHERE event_type IN ('purchase','view')),
    INTERVAL 1 DAY)) AS day
),
daily AS (
  SELECT date_trunc('day', ts) AS day,
         CAST(count(*) FILTER (WHERE event_type = 'view') AS DOUBLE) AS nv,
         CAST(count(*) FILTER (WHERE event_type = 'purchase') AS DOUBLE) AS np
  FROM events WHERE event_type IN ('purchase','view') GROUP BY 1
),
series AS (
  SELECT s.day, coalesce(nv, 0) AS nv, coalesce(np, 0) AS np,
         row_number() OVER (ORDER BY s.day) AS rn
  FROM spine s LEFT JOIN daily d ON s.day = d.day
),
r AS (
  SELECT day, rn,
         corr(nv, np) OVER (ORDER BY day ROWS BETWEEN 6 PRECEDING AND CURRENT ROW)
           AS corr7
  FROM series
)
SELECT day, round(corr7, 6) AS corr7 FROM r WHERE rn >= 7 ORDER BY day
"""


def time_to_nth_purchase(sf_dir: str, nth: int = 3) -> pd.DataFrame:
    """Per-user time (seconds) from the FIRST purchase to the Nth
    purchase (n=3), for users with >= n purchases — the
    order-statistic window (ROW_NUMBER + pivot on rank) behind
    activation/LTV latency metrics. Purchases are filtered at the
    read, bucketed by coarse user hash, and the rank selection is
    ONE vectorized pass per bucket (sort + cumcount), never a
    per-user loop. Tie-robust: the statistic is a difference of order
    statistics of the sorted ts multiset.
    """
    ds = _read(sf_dir, "events", columns=["user_id", "ts", "event_type"])

    def _purchases(df: pd.DataFrame) -> pd.DataFrame:
        sub = df[df["event_type"] == "purchase"]
        out = pd.DataFrame(
            {
                "user_id": sub["user_id"].to_numpy("int64"),
                "t": sub["ts"].to_numpy("datetime64[us]").astype("int64"),
            }
        )
        out["__bucket"] = (out["user_id"] % N_USER_BUCKETS).astype("int64")
        return out

    def _nth(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "t"])
        rank = g.groupby("user_id").cumcount()
        first = g[rank == 0].set_index("user_id")["t"]
        nthv = g[rank == nth - 1].set_index("user_id")["t"]
        joined = pd.concat([first, nthv], axis=1, keys=["t1", "tn"]).dropna()
        return pd.DataFrame(
            {
                "user_id": joined.index.to_numpy("int64"),
                "secs_to_nth": ((joined["tn"] - joined["t1"]) / 1e6).round(6),
            }
        )

    out = (
        ds.map_batches(_purchases, batch_format="pandas")
        .groupby("__bucket")
        .map_groups(lambda g: _nth(g.drop(columns="__bucket")), batch_format="pandas")
        .to_pandas()
    )
    out["user_id"] = out["user_id"].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


TIME_TO_NTH_PURCHASE_SQL = """
WITH p AS (
  SELECT user_id, ts,
         row_number() OVER (PARTITION BY user_id ORDER BY ts) AS rn
  FROM events WHERE event_type = 'purchase'
)
SELECT a.user_id,
       round(epoch(b.ts) - epoch(a.ts), 6) AS secs_to_nth
FROM p a JOIN p b ON a.user_id = b.user_id AND a.rn = 1 AND b.rn = 3
ORDER BY a.user_id
"""


def dau_mau_stickiness(sf_dir: str) -> pd.DataFrame:
    """Product-analytics stickiness per calendar month: average DAU
    (active user-day pairs / days in the month), MAU (distinct active
    users), and the DAU/MAU ratio. One shuffle on the coarse user
    bucket dedupes (user, day) pairs; because users are PARTITIONED
    by the bucket, per-bucket distinct counts add exactly — each
    bucket emits tiny per-month partials (pair count + distinct-user
    count) and the driver sums O(months x buckets) rows. Partial
    first/last months use the full calendar-month day count (both
    engines compute the same convention).
    """
    ds = _read(sf_dir, "events", columns=["user_id", "ts"])

    def _pairs(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "user_id": df["user_id"].to_numpy("int64"),
                "day": df["ts"].dt.floor("D"),
            }
        ).drop_duplicates()
        out["__bucket"] = (out["user_id"] % N_USER_BUCKETS).astype("int64")
        return out

    def _month_partials(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["user_id", "day"]).copy()
        g["month"] = g["day"].dt.to_period("M").dt.start_time
        agg = g.groupby("month").agg(
            pairs=("user_id", "size"), users=("user_id", "nunique")
        )
        return agg.reset_index()

    parts = (
        ds.map_batches(_pairs, batch_format="pandas")
        .groupby("__bucket")
        .map_groups(
            lambda g: _month_partials(g.drop(columns="__bucket")),
            batch_format="pandas",
        )
        .to_pandas()
    )
    m = parts.groupby("month", as_index=False)[["pairs", "users"]].sum()
    days = m["month"].dt.to_period("M").dt.days_in_month.astype("float64")
    m["avg_dau"] = (m["pairs"] / days).round(6)
    m["mau"] = m["users"].astype("int64")
    m["stickiness"] = (m["pairs"] / days / m["mau"]).round(6)
    return (
        m[["month", "avg_dau", "mau", "stickiness"]]
        .sort_values("month")
        .reset_index(drop=True)
    )


DAU_MAU_STICKINESS_SQL = """
WITH ud AS (
  SELECT DISTINCT user_id, date_trunc('day', ts) AS day FROM events
),
dau AS (
  SELECT date_trunc('month', day) AS month, CAST(count(*) AS DOUBLE) AS pairs
  FROM ud GROUP BY 1
),
mau AS (
  SELECT date_trunc('month', day) AS month,
         CAST(count(DISTINCT user_id) AS BIGINT) AS mau
  FROM ud GROUP BY 1
)
SELECT d.month,
       round(pairs / date_diff('day', d.month, d.month + INTERVAL 1 MONTH), 6)
         AS avg_dau,
       m.mau,
       round(pairs / date_diff('day', d.month, d.month + INTERVAL 1 MONTH) / m.mau,
             6) AS stickiness
FROM dau d JOIN mau m ON d.month = m.month
ORDER BY d.month
"""


def trailing_7d_active_users(sf_dir: str, window: int = 7) -> pd.DataFrame:
    """SLIDING-window distinct count: users active in the trailing 7
    days, per day — the WAU curve (harder than cumulative distinct:
    users leave the window again). Scale shape: (user, day) pairs
    dedup inside ONE user-bucket shuffle; each user's active days
    become +1/-1 COVERAGE DELTAS of their merged [day, day+6]
    intervals (a user counts on day d iff active in [d-6, d]), so a
    bucket emits O(intervals) delta rows, and the final curve is a
    prefix sum over the tiny (day, delta) table on the driver —
    distinct-ness is resolved where the data lives, never globally.
    """
    ds = _read(sf_dir, "events", columns=["user_id", "ts"])

    def _pairs(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "user_id": df["user_id"].to_numpy("int64"),
                "day": df["ts"]
                .to_numpy("datetime64[us]")
                .astype("datetime64[D]")
                .astype("int64"),
            }
        ).drop_duplicates()
        out["__bucket"] = (out["user_id"] % N_USER_BUCKETS).astype("int64")
        return out

    def _deltas(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["user_id", "day"]).sort_values(["user_id", "day"])
        u = g["user_id"].to_numpy("int64")
        d = g["day"].to_numpy("int64")
        # merge each user's cover-intervals [d, d+window-1]: a new
        # interval starts where the user changes or the gap > window-1
        start = np.ones(len(g), dtype=bool)
        if len(g) > 1:
            start[1:] = (u[1:] != u[:-1]) | (d[1:] - d[:-1] >= window)
        run_id = np.cumsum(start) - 1
        lo = pd.Series(d).groupby(run_id).min().to_numpy()
        hi = pd.Series(d).groupby(run_id).max().to_numpy() + window  # exclusive
        return pd.DataFrame(
            {
                "day": np.concatenate([lo, hi]),
                "delta": np.concatenate(
                    [np.ones(len(lo), "int64"), -np.ones(len(hi), "int64")]
                ),
            }
        )

    parts = (
        ds.map_batches(_pairs, batch_format="pandas")
        .groupby("__bucket")
        .map_groups(lambda g: _deltas(g.drop(columns="__bucket")), batch_format="pandas")
        .to_pandas()
    )
    curve = parts.groupby("day", as_index=False)["delta"].sum().sort_values("day")
    curve["wau"] = curve["delta"].cumsum()
    # restrict to days within the observed data span
    days = parts["day"]
    lo_day = int(days.min())
    hi_day = int(days.max()) - window  # last ACTIVE day (hi deltas are +window)
    spine = np.arange(lo_day, hi_day + 1, dtype="int64")
    filled = (
        curve.set_index("day")["wau"].reindex(
            np.arange(curve["day"].min(), hi_day + 1)
        ).ffill()
    )
    out = pd.DataFrame(
        {
            "day": pd.to_datetime(spine, unit="D"),
            "wau": filled.loc[spine].to_numpy("int64"),
        }
    )
    return out.reset_index(drop=True)


TRAILING_7D_ACTIVE_USERS_SQL = """
WITH ud AS (
  SELECT DISTINCT user_id, CAST(date_trunc('day', ts) AS DATE) AS day FROM events
),
spine AS (
  SELECT unnest(generate_series(
    (SELECT min(day) FROM ud), (SELECT max(day) FROM ud),
    INTERVAL 1 DAY))::DATE AS day
)
SELECT CAST(s.day AS TIMESTAMP) AS day,
       CAST(count(DISTINCT ud.user_id) AS BIGINT) AS wau
FROM spine s JOIN ud
  ON ud.day BETWEEN s.day - INTERVAL 6 DAY AND s.day
GROUP BY s.day ORDER BY s.day
"""


CUPED_SPLIT = pd.Timestamp("2024-01-16")


def cuped_value_adjustment(sf_dir: str) -> pd.DataFrame:
    """CUPED variance reduction audit: per user, the experiment metric
    is total event value in the POST period (ts >= Jan 16) and the
    covariate is the same user's PRE-period value (ts < Jan 16);
    theta = cov(pre, post) / var(pre) and the adjusted metric's
    variance has the closed form var(post) - cov^2/var(pre). Reports
    theta and the achieved variance reduction — the standard A/B-test
    sensitivity-boost preflight.

    Distributed: one bucketed per-user aggregate produces the
    (pre, post) pairs; a second pass reduces the five moment partials
    (sums of pre, post, pre^2, post^2, pre*post), so only O(batches)
    scalar rows reach the driver."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "events", columns=["user_id", "ts", "value"])

    def _prep(df: pd.DataFrame) -> pd.DataFrame:
        pre_mask = df["ts"] < CUPED_SPLIT
        return pd.DataFrame(
            {
                "user_id": df["user_id"],
                "pre": df["value"].where(pre_mask, 0.0),
                "post": df["value"].where(~pre_mask, 0.0),
            }
        )

    per_user = bucketed_aggregate(
        ds.map_batches(_prep, batch_format="pandas"),
        ["user_id"],
        {"pre": ("pre", "sum"), "post": ("post", "sum")},
    )

    def _moments(df: pd.DataFrame) -> pd.DataFrame:
        a = df["pre"].to_numpy("float64")
        b = df["post"].to_numpy("float64")
        return pd.DataFrame(
            {
                "n": [np.int64(len(df))],
                "sa": [a.sum()],
                "sb": [b.sum()],
                "saa": [(a * a).sum()],
                "sbb": [(b * b).sum()],
                "sab": [(a * b).sum()],
            }
        )

    m = per_user.map_batches(_moments, batch_format="pandas").to_pandas().sum()
    n = float(m["n"])
    cov = m["sab"] / n - (m["sa"] / n) * (m["sb"] / n)
    var_pre = m["saa"] / n - (m["sa"] / n) ** 2
    var_post = m["sbb"] / n - (m["sb"] / n) ** 2
    theta = cov / var_pre
    var_adj = var_post - cov * cov / var_pre
    return pd.DataFrame(
        {
            "n_users": [np.int64(n)],
            "theta": [round(float(theta), 6)],
            "var_post": [round(float(var_post), 6)],
            "var_adj": [round(float(var_adj), 6)],
            "var_reduction": [round(float(1.0 - var_adj / var_post), 6)],
        }
    )


CUPED_VALUE_ADJUSTMENT_SQL = """
WITH per AS (
  SELECT user_id,
         sum(CASE WHEN ts < TIMESTAMP '2024-01-16' THEN value ELSE 0 END) AS pre,
         sum(CASE WHEN ts >= TIMESTAMP '2024-01-16' THEN value ELSE 0 END) AS post
  FROM events GROUP BY user_id
),
m AS (
  SELECT count(*) AS n, sum(pre) AS sa, sum(post) AS sb,
         sum(pre * pre) AS saa, sum(post * post) AS sbb,
         sum(pre * post) AS sab
  FROM per
)
SELECT CAST(n AS BIGINT) AS n_users,
       round((sab/n - (sa/n)*(sb/n)) / (saa/n - (sa/n)*(sa/n)), 6) AS theta,
       round(sbb/n - (sb/n)*(sb/n), 6) AS var_post,
       round((sbb/n - (sb/n)*(sb/n))
             - (sab/n - (sa/n)*(sb/n)) * (sab/n - (sa/n)*(sb/n))
               / (saa/n - (sa/n)*(sa/n)), 6) AS var_adj,
       round(((sab/n - (sa/n)*(sb/n)) * (sab/n - (sa/n)*(sb/n))
               / (saa/n - (sa/n)*(sa/n)))
             / (sbb/n - (sb/n)*(sb/n)), 6) AS var_reduction
FROM m
"""


def wilcoxon_signed_rank_prepost(sf_dir: str, n_range_buckets: int = 64) -> pd.DataFrame:
    """Wilcoxon signed-rank test on the paired per-user (pre, post)
    period values (same split as cuped_value_adjustment): rank the
    nonzero |post - pre| differences with exact midranks, sum the
    ranks of the positive differences (W+), and report the
    tie-corrected normal approximation
    z = (W+ - n(n+1)/4) / sqrt(n(n+1)(2n+1)/24 - ties/48).

    Distributed: per-user pairs come from the bucketed aggregate; the
    midrank reduction is the shared range-bucket histogram machinery
    (relational._rank_sum_stats) over x = |d| with group A = {d > 0},
    so W+ is exactly the rank-sum the estimator needs."""
    from ocr_pipeline_ray.pipelines.relational import _rank_sum_stats, bucketed_aggregate

    ds = _read(sf_dir, "events", columns=["user_id", "ts", "value"])

    def _prep(df: pd.DataFrame) -> pd.DataFrame:
        pre_mask = df["ts"] < CUPED_SPLIT
        return pd.DataFrame(
            {
                "user_id": df["user_id"],
                "pre": df["value"].where(pre_mask, 0.0),
                "post": df["value"].where(~pre_mask, 0.0),
            }
        )

    per_user = bucketed_aggregate(
        ds.map_batches(_prep, batch_format="pandas"),
        ["user_id"],
        {"pre": ("pre", "sum"), "post": ("post", "sum")},
    )
    lo = 0.0
    hi = float(
        per_user.map_batches(
            lambda df: pd.DataFrame({"m": [np.abs(df["post"] - df["pre"]).max()]}),
            batch_format="pandas",
        )
        .to_pandas()["m"]
        .max()
    )
    width = (hi - lo) / n_range_buckets or 1.0

    def _hist(df: pd.DataFrame) -> pd.DataFrame:
        d = (df["post"] - df["pre"]).to_numpy("float64")
        d = d[d != 0.0]
        if len(d) == 0:
            return pd.DataFrame(
                {"x": pd.Series(dtype="float64"), "c": pd.Series(dtype="int64"),
                 "ca": pd.Series(dtype="int64"), "__bucket": pd.Series(dtype="int64")}
            )
        g = (
            pd.DataFrame({"x": np.abs(d), "c": np.int64(1), "ca": (d > 0).astype("int64")})
            .groupby("x", as_index=False)
            .sum()
        )
        g["__bucket"] = np.clip(
            np.floor((g["x"].to_numpy() - lo) / width).astype("int64"), 0, n_range_buckets - 1
        )
        return g

    s = _rank_sum_stats(per_user.map_batches(_hist, batch_format="pandas"), n_range_buckets)
    n = s["n"]
    w_plus = s["ra"]
    mu = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0 - s["ties"] / 48.0
    z = (w_plus - mu) / np.sqrt(var)
    return pd.DataFrame(
        {
            "n_pairs": [np.int64(n)],
            "w_plus": [round(w_plus, 4)],
            "z": [round(float(z), 6)],
        }
    )


WILCOXON_SIGNED_RANK_PREPOST_SQL = """
WITH per AS (
  SELECT user_id,
         sum(CASE WHEN ts < TIMESTAMP '2024-01-16' THEN value ELSE 0 END) AS pre,
         sum(CASE WHEN ts >= TIMESTAMP '2024-01-16' THEN value ELSE 0 END) AS post
  FROM events GROUP BY user_id
),
d AS (SELECT post - pre AS d FROM per WHERE post - pre <> 0),
v AS (
  SELECT abs(d) AS x, count(*) AS c,
         count(CASE WHEN d > 0 THEN 1 END) AS ca
  FROM d GROUP BY 1
),
r AS (SELECT x, c, ca, sum(c) OVER (ORDER BY x) - c AS before FROM v),
agg AS (
  SELECT sum(ca * (before + (c + 1) / 2.0)) AS wplus,
         sum(c * c * c - c) AS ties, sum(c) AS n
  FROM r
)
SELECT CAST(n AS BIGINT) AS n_pairs, round(wplus, 4) AS w_plus,
       round((wplus - n * (n + 1) / 4.0)
             / sqrt(n * (n + 1) * (2 * n + 1) / 24.0 - ties / 48.0), 6) AS z
FROM agg
"""


def two_proportion_conversion(sf_dir: str) -> pd.DataFrame:
    """Two-proportion z-test on purchase conversion between the two
    deterministic assignment buckets real A/B systems use (user_id
    parity — the hash-bucket arm assignment): a user converts if they
    ever fire a 'purchase' event; z uses the pooled proportion — the
    A/B-readout primitive.

    Distributed: one bucketed per-user aggregate (max purchase flag);
    the four arm counters reduce from per-batch partials."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "events", columns=["user_id", "event_type"])

    def _prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "user_id": df["user_id"],
                "pur": (df["event_type"] == "purchase").astype("int64"),
            }
        )

    per_user = bucketed_aggregate(
        ds.map_batches(_prep, batch_format="pandas"),
        ["user_id"],
        {"pur": ("pur", "max")},
    )

    def _counts(df: pd.DataFrame) -> pd.DataFrame:
        a = (df["user_id"].to_numpy("int64") % 2 == 0)
        pur = df["pur"].to_numpy("int64")
        return pd.DataFrame(
            {
                "na": [np.int64(a.sum())],
                "xa": [np.int64(pur[a].sum())],
                "nb": [np.int64((~a).sum())],
                "xb": [np.int64(pur[~a].sum())],
            }
        )

    s = per_user.map_batches(_counts, batch_format="pandas").to_pandas().sum()
    na, xa, nb, xb = int(s["na"]), int(s["xa"]), int(s["nb"]), int(s["xb"])
    pa, pb = xa / na, xb / nb
    pool = (xa + xb) / (na + nb)
    z = (pa - pb) / np.sqrt(pool * (1 - pool) * (1.0 / na + 1.0 / nb))
    return pd.DataFrame(
        {
            "n_a": [np.int64(na)],
            "conv_a": [round(pa, 6)],
            "n_b": [np.int64(nb)],
            "conv_b": [round(pb, 6)],
            "z": [round(float(z), 6)],
        }
    )


TWO_PROPORTION_CONVERSION_SQL = """
WITH per AS (
  SELECT user_id,
         max(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END) AS pur
  FROM events GROUP BY user_id
),
c AS (
  SELECT count(CASE WHEN user_id % 2 = 0 THEN 1 END) AS na,
         sum(CASE WHEN user_id % 2 = 0 THEN pur ELSE 0 END) AS xa,
         count(CASE WHEN user_id % 2 = 1 THEN 1 END) AS nb,
         sum(CASE WHEN user_id % 2 = 1 THEN pur ELSE 0 END) AS xb
  FROM per
)
SELECT CAST(na AS BIGINT) AS n_a, round(xa / CAST(na AS DOUBLE), 6) AS conv_a,
       CAST(nb AS BIGINT) AS n_b, round(xb / CAST(nb AS DOUBLE), 6) AS conv_b,
       round((xa / CAST(na AS DOUBLE) - xb / CAST(nb AS DOUBLE))
             / sqrt(((xa + xb) / CAST(na + nb AS DOUBLE))
                    * (1 - (xa + xb) / CAST(na + nb AS DOUBLE))
                    * (1.0 / na + 1.0 / nb)), 6) AS z
FROM c
"""


def view_then_purchase_days(sf_dir: str) -> pd.DataFrame:
    """Eventual-follow sequential pattern on user-days: of the
    (user, day) cells containing a 'view', how many also contain a
    LATER 'purchase' the same day? "Eventually followed" reduces
    exactly to min_ts(view) < max_ts(purchase) — two conditional
    extremes per cell, so ONE bucketed per-(user, day) aggregate
    answers a pattern query that naively needs a within-group
    self-join."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "events", columns=["user_id", "ts", "event_type"])

    def _prep(df: pd.DataFrame) -> pd.DataFrame:
        view = df["event_type"] == "view"
        pur = df["event_type"] == "purchase"
        return pd.DataFrame(
            {
                "user_id": df["user_id"],
                "day": df["ts"].dt.normalize(),
                "tsv": df["ts"].where(view),
                "tsp": df["ts"].where(pur),
            }
        )

    cells = bucketed_aggregate(
        ds.map_batches(_prep, batch_format="pandas"),
        ["user_id", "day"],
        {"mina": ("tsv", "min"), "maxb": ("tsp", "max")},
    )

    def _counts(df: pd.DataFrame) -> pd.DataFrame:
        has_a = df["mina"].notna().to_numpy()
        both = has_a & df["maxb"].notna().to_numpy() & (df["mina"] < df["maxb"]).to_numpy()
        return pd.DataFrame(
            {"n_days_view": [np.int64(has_a.sum())], "n_days_converted": [np.int64(both.sum())]}
        )

    s = cells.map_batches(_counts, batch_format="pandas").to_pandas().sum()
    nv, nc = int(s["n_days_view"]), int(s["n_days_converted"])
    return pd.DataFrame(
        {
            "n_days_view": [np.int64(nv)],
            "n_days_converted": [np.int64(nc)],
            "conversion": [round(nc / nv, 6)],
        }
    )


VIEW_THEN_PURCHASE_DAYS_SQL = """
WITH ud AS (
  SELECT user_id, date_trunc('day', ts) AS d,
         min(CASE WHEN event_type = 'view' THEN ts END) AS mina,
         max(CASE WHEN event_type = 'purchase' THEN ts END) AS maxb
  FROM events GROUP BY 1, 2
),
c AS (
  SELECT count(CASE WHEN mina IS NOT NULL THEN 1 END) AS nv,
         count(CASE WHEN mina IS NOT NULL AND maxb IS NOT NULL AND mina < maxb THEN 1 END) AS nc
  FROM ud
)
SELECT CAST(nv AS BIGINT) AS n_days_view, CAST(nc AS BIGINT) AS n_days_converted,
       round(nc / CAST(nv AS DOUBLE), 6) AS conversion
FROM c
"""


def score_decile_lift(sf_dir: str) -> pd.DataFrame:
    """Decile lift table — the standard propensity-model readout —
    for the cheapest scorer there is: rank users by view count, split
    into exact row-number deciles (ties broken by user_id so both
    engines cut identically), and report purchase rate and lift per
    decile.

    Distributed: per-user (views, purchased) from ONE bucketed
    aggregate; the global decile position comes from the distributed
    ROW_NUMBER primitive (relational._global_rank — range buckets +
    prefix offsets, no global sort); decile confusion partials reduce
    per batch."""
    from ocr_pipeline_ray.pipelines.relational import _global_rank, bucketed_aggregate

    ds = _read(sf_dir, "events", columns=["user_id", "event_type"])

    def _prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "user_id": df["user_id"],
                "v": (df["event_type"] == "view").astype("int64"),
                "p": (df["event_type"] == "purchase").astype("int64"),
            }
        )

    per_user = (
        bucketed_aggregate(
            ds.map_batches(_prep, batch_format="pandas"),
            ["user_id"],
            {"v": ("v", "sum"), "p": ("p", "max")},
        )
        .map_batches(
            # rank ascending by negated score = descending by views
            lambda df: df.assign(negv=-df["v"].to_numpy("float64")),
            batch_format="pandas",
        )
        # _global_rank consumes its input four times (min, max, counts,
        # rank); pin the user-scale aggregate in the object store so
        # those passes don't re-run the events shuffle each time
        .materialize()
    )
    n = per_user.count()
    ranked = _global_rank(per_user, "negv", ["user_id", "p"])

    def _dec(df: pd.DataFrame) -> pd.DataFrame:
        d = ((df["rank"].to_numpy("int64") - 1) * 10) // n
        return (
            pd.DataFrame({"decile": d, "one": 1, "pos": df["p"].to_numpy("int64")})
            .groupby("decile", as_index=False)
            .sum()
        )

    g = (
        ranked.map_batches(_dec, batch_format="pandas")
        .to_pandas()
        .groupby("decile", as_index=False)
        .sum()
        .sort_values("decile")
        .reset_index(drop=True)
    )
    overall = g["pos"].sum() / g["one"].sum()
    return pd.DataFrame(
        {
            "decile": g["decile"].astype("int64"),
            "n_users": g["one"].astype("int64"),
            "n_pos": g["pos"].astype("int64"),
            "rate": np.round(g["pos"].to_numpy("float64") / g["one"].to_numpy("float64"), 6),
            "lift": np.round(
                (g["pos"].to_numpy("float64") / g["one"].to_numpy("float64")) / overall, 6
            ),
        }
    )


SCORE_DECILE_LIFT_SQL = """
WITH per AS (
  SELECT user_id,
         count(CASE WHEN event_type = 'view' THEN 1 END) AS v,
         max(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END) AS p
  FROM events GROUP BY user_id
),
r AS (
  SELECT p, row_number() OVER (ORDER BY v DESC, user_id) AS rn,
         (SELECT count(*) FROM per) AS n
  FROM per
),
g AS (
  SELECT ((rn - 1) * 10) // n AS decile, count(*) AS nu, sum(p) AS np
  FROM r GROUP BY 1
),
tot AS (SELECT sum(np) / CAST(sum(nu) AS DOUBLE) AS overall FROM g)
SELECT CAST(decile AS BIGINT) AS decile, CAST(nu AS BIGINT) AS n_users,
       CAST(np AS BIGINT) AS n_pos,
       round(np / CAST(nu AS DOUBLE), 6) AS rate,
       round((np / CAST(nu AS DOUBLE)) / (SELECT overall FROM tot), 6) AS lift
FROM g ORDER BY decile
"""


def fano_factor_hourly_by_type(sf_dir: str) -> pd.DataFrame:
    """Burstiness screen: the Fano factor (var/mean of hourly counts,
    zero-filled over the global hour spine) per event type — ~1 means
    Poisson-like arrivals, >1 means bursts a rate-limiter or anomaly
    monitor should know about. The heavy reduce is the bucketed
    (type, hour) count; the spine fill and moments run on the
    result-sized grid."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "events", columns=["event_type", "ts"])
    lo = pd.Timestamp(ds.min("ts")).floor("h")
    hi = pd.Timestamp(ds.max("ts")).floor("h")
    cnt = (
        bucketed_aggregate(
            ds.map_batches(
                lambda df: pd.DataFrame(
                    {"event_type": df["event_type"], "h": df["ts"].dt.floor("h"), "one": np.int64(1)}
                ),
                batch_format="pandas",
            ),
            ["event_type", "h"],
            {"c": ("one", "sum")},
            num_buckets=16,
        )
        .to_pandas()
    )
    spine = pd.date_range(lo, hi, freq="h")
    rows = []
    for t, g in cnt.groupby("event_type"):
        filled = g.set_index("h")["c"].reindex(spine, fill_value=0).to_numpy("float64")
        mean = filled.mean()
        var = filled.var()  # population variance
        rows.append(
            {
                "event_type": t,
                "n_hours": np.int64(len(filled)),
                "mean_c": round(float(mean), 6),
                "var_c": round(float(var), 6),
                "fano": round(float(var / mean), 6),
            }
        )
    return pd.DataFrame(rows).sort_values("event_type").reset_index(drop=True)


FANO_FACTOR_HOURLY_BY_TYPE_SQL = """
WITH hours AS (
  SELECT unnest(generate_series(
           date_trunc('hour', (SELECT min(ts) FROM events)),
           date_trunc('hour', (SELECT max(ts) FROM events)),
           INTERVAL 1 HOUR)) AS h
),
types AS (SELECT DISTINCT event_type FROM events),
cnt AS (
  SELECT event_type, date_trunc('hour', ts) AS h, count(*) AS c
  FROM events GROUP BY 1, 2
),
filled AS (
  SELECT t.event_type, hh.h, coalesce(c, 0) AS c
  FROM types t CROSS JOIN hours hh
  LEFT JOIN cnt ON cnt.event_type = t.event_type AND cnt.h = hh.h
)
SELECT event_type, CAST(count(*) AS BIGINT) AS n_hours,
       round(avg(c), 6) AS mean_c,
       round(var_pop(c), 6) AS var_c,
       round(var_pop(c) / avg(c), 6) AS fano
FROM filled GROUP BY event_type ORDER BY event_type
"""


def latency_sla_by_type(
    sf_dir: str, ps=(0.5, 0.95, 0.99), n_range_buckets: int = 128
) -> pd.DataFrame:
    """SLA table: EXACT p50/p95/p99 (quantile_disc order-statistic
    semantics, rank ceil(p*n)) of per-type inter-event latency in
    seconds — the latency report an event pipeline publishes per
    stream. Interarrivals are formed per type inside coarse user-free
    type groups (types are few; each type's stream sorts once within
    its group), then the exact order statistics come from the same
    two-pass (type, range-bucket) grid selection as
    price_percentile_cont_by_flag."""
    ds = _read(sf_dir, "events", columns=["event_type", "ts", "event_id"])

    def _gaps(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ts", "event_id"])
        d = g["ts"].diff().dt.total_seconds().to_numpy("float64")[1:]
        return pd.DataFrame({"t": g["event_type"].iloc[0], "x": d})

    gaps = (
        ds.groupby("event_type")
        .map_groups(_gaps, batch_format="pandas")
        .materialize()
    )
    lo = float(gaps.min("x"))
    hi = float(gaps.max("x"))
    width = (hi - lo) / n_range_buckets or 1.0

    def _bucket(v: np.ndarray) -> np.ndarray:
        return np.clip(np.floor((v - lo) / width).astype("int64"), 0, n_range_buckets - 1)

    def _counts(df: pd.DataFrame) -> pd.DataFrame:
        return (
            pd.DataFrame({"t": df["t"], "b": _bucket(df["x"].to_numpy("float64"))})
            .groupby(["t", "b"], as_index=False)
            .size()
            .rename(columns={"size": "c"})
        )

    grid = (
        gaps.map_batches(_counts, batch_format="pandas")
        .to_pandas()
        .groupby(["t", "b"], as_index=False)["c"]
        .sum()
    )
    needed: dict[str, set[int]] = {}
    targets = []
    for t, g in grid.groupby("t"):
        g = g.sort_values("b")
        cum = g["c"].cumsum().to_numpy("int64")
        n_t = int(cum[-1])
        bs = g["b"].to_numpy("int64")
        for p in ps:
            k = int(np.ceil(p * n_t))
            j = int(np.searchsorted(cum, k))
            needed.setdefault(t, set()).add(int(bs[j]))
            targets.append((t, float(p), k, int(bs[j]), int(cum[j] - g["c"].to_numpy("int64")[j])))
    need_ref = ray.put({t: np.array(sorted(v)) for t, v in needed.items()})

    def _pull(df: pd.DataFrame) -> pd.DataFrame:
        nd = ray.get(need_ref)
        b = _bucket(df["x"].to_numpy("float64"))
        keep = np.zeros(len(df), dtype=bool)
        tv = df["t"].to_numpy(object)
        for t, bset in nd.items():
            keep |= (tv == t) & np.isin(b, bset)
        return pd.DataFrame({"t": tv[keep], "x": df["x"].to_numpy("float64")[keep], "b": b[keep]})

    pulled = gaps.map_batches(_pull, batch_format="pandas").to_pandas()
    rows = []
    for t, p, k, bj, before in targets:
        vals = np.sort(pulled[(pulled["t"] == t) & (pulled["b"] == bj)]["x"].to_numpy("float64"))
        rows.append(
            {"event_type": t, "p": p, "latency_s": round(float(vals[k - before - 1]), 4)}
        )
    return pd.DataFrame(rows).sort_values(["event_type", "p"]).reset_index(drop=True)


LATENCY_SLA_BY_TYPE_SQL = """
WITH gaps AS (
  SELECT event_type AS t,
         epoch(ts - lag(ts) OVER (PARTITION BY event_type ORDER BY ts, event_id)) AS x
  FROM events
  QUALIFY x IS NOT NULL
)
SELECT t AS event_type, p, round(v, 4) AS latency_s
FROM (
  SELECT t, 0.5 AS p, quantile_disc(x, 0.5) AS v FROM gaps GROUP BY t
  UNION ALL
  SELECT t, 0.95, quantile_disc(x, 0.95) FROM gaps GROUP BY t
  UNION ALL
  SELECT t, 0.99, quantile_disc(x, 0.99) FROM gaps GROUP BY t
) ORDER BY event_type, p
"""


def view_purchase_lag_xcorr(sf_dir: str, max_lag: int = 24) -> pd.DataFrame:
    """Cross-correlation lag finder: at which hourly lag does the
    'view' series best predict the 'purchase' series? Pearson r
    between view counts at hour h and purchase counts at hour h+lag
    for lag 0..24 over the zero-filled hour spine — the
    cause-precedes-effect screen for event streams. The bucketed
    (type, hour) count is the only heavy reduce; the 25 lagged
    correlations run on the result-sized spine."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "events", columns=["event_type", "ts"]).map_batches(
        lambda df: df[df["event_type"].isin(["view", "purchase"])], batch_format="pandas"
    )
    lo = pd.Timestamp(ds.min("ts")).floor("h")
    hi = pd.Timestamp(ds.max("ts")).floor("h")
    cnt = (
        bucketed_aggregate(
            ds.map_batches(
                lambda df: pd.DataFrame(
                    {"t": df["event_type"], "h": df["ts"].dt.floor("h"), "one": np.int64(1)}
                ),
                batch_format="pandas",
            ),
            ["t", "h"],
            {"c": ("one", "sum")},
            num_buckets=16,
        ).to_pandas()
    )
    spine = pd.date_range(lo, hi, freq="h")
    v = cnt[cnt["t"] == "view"].set_index("h")["c"].reindex(spine, fill_value=0).to_numpy("float64")
    p = cnt[cnt["t"] == "purchase"].set_index("h")["c"].reindex(spine, fill_value=0).to_numpy("float64")
    rows = []
    for lag in range(max_lag + 1):
        a = v[: len(v) - lag]
        b = p[lag:]
        n = len(a)
        sa, sb = a.sum(), b.sum()
        sab = (a * b).sum()
        saa = (a * a).sum()
        sbb = (b * b).sum()
        r = (sab / n - (sa / n) * (sb / n)) / np.sqrt(
            (saa / n - (sa / n) ** 2) * (sbb / n - (sb / n) ** 2)
        )
        rows.append({"lag": np.int64(lag), "n": np.int64(n), "r": round(float(r), 6)})
    return pd.DataFrame(rows)


VIEW_PURCHASE_LAG_XCORR_SQL = """
WITH hours AS (
  SELECT unnest(generate_series(
           date_trunc('hour', (SELECT min(ts) FROM events WHERE event_type IN ('view','purchase'))),
           date_trunc('hour', (SELECT max(ts) FROM events WHERE event_type IN ('view','purchase'))),
           INTERVAL 1 HOUR)) AS h
),
cnt AS (
  SELECT event_type AS t, date_trunc('hour', ts) AS h, count(*) AS c
  FROM events WHERE event_type IN ('view', 'purchase') GROUP BY 1, 2
),
filled AS (
  SELECT hh.h,
         row_number() OVER (ORDER BY hh.h) AS rn,
         coalesce(v.c, 0) AS v, coalesce(p.c, 0) AS p
  FROM hours hh
  LEFT JOIN cnt v ON v.t = 'view' AND v.h = hh.h
  LEFT JOIN cnt p ON p.t = 'purchase' AND p.h = hh.h
),
lags AS (SELECT unnest(range(0, 25)) AS lag),
m AS (
  SELECT lag, count(*) AS n, sum(a.v) AS sa, sum(b.p) AS sb,
         sum(a.v * b.p) AS sab, sum(a.v * a.v) AS saa, sum(b.p * b.p) AS sbb
  FROM lags JOIN filled a ON true JOIN filled b ON b.rn = a.rn + lag
  GROUP BY lag
)
SELECT CAST(lag AS BIGINT) AS lag, CAST(n AS BIGINT) AS n,
       round((sab / n - (sa / CAST(n AS DOUBLE)) * (sb / n))
             / sqrt((saa / n - (sa / CAST(n AS DOUBLE)) * (sa / n))
                    * (sbb / n - (sb / CAST(n AS DOUBLE)) * (sb / n))), 6) AS r
FROM m ORDER BY lag
"""


def diff_in_diff_value(sf_dir: str) -> pd.DataFrame:
    """Difference-in-differences readout: arms = the deterministic
    user_id-parity assignment (as two_proportion_conversion), periods
    = the CUPED pre/post split; DiD = (A_post - A_pre) -
    (B_post - B_pre) over per-event mean values — the quasi-experiment
    estimator. One pass of (arm, period) partials; four cell means
    reduce on the driver."""
    ds = _read(sf_dir, "events", columns=["user_id", "ts", "value"])

    def _p(df: pd.DataFrame) -> pd.DataFrame:
        arm = np.where(df["user_id"].to_numpy("int64") % 2 == 0, "A", "B")
        period = np.where(df["ts"] < CUPED_SPLIT, "pre", "post")
        return (
            pd.DataFrame({"arm": arm, "period": period, "n": np.int64(1), "s": df["value"].to_numpy("float64")})
            .groupby(["arm", "period"], as_index=False)
            .sum()
        )

    g = (
        ds.map_batches(_p, batch_format="pandas")
        .to_pandas()
        .groupby(["arm", "period"], as_index=False)
        .sum()
    )
    cell = {(r["arm"], r["period"]): (int(r["n"]), float(r["s"])) for _, r in g.iterrows()}
    mean = {k: s / n for k, (n, s) in cell.items()}
    did = (mean[("A", "post")] - mean[("A", "pre")]) - (mean[("B", "post")] - mean[("B", "pre")])
    return pd.DataFrame(
        {
            "a_pre": [round(mean[("A", "pre")], 6)],
            "a_post": [round(mean[("A", "post")], 6)],
            "b_pre": [round(mean[("B", "pre")], 6)],
            "b_post": [round(mean[("B", "post")], 6)],
            "did": [round(did, 6)],
        }
    )


DIFF_IN_DIFF_VALUE_SQL = """
WITH cells AS (
  SELECT CASE WHEN user_id % 2 = 0 THEN 'A' ELSE 'B' END AS arm,
         CASE WHEN ts < TIMESTAMP '2024-01-16' THEN 'pre' ELSE 'post' END AS period,
         count(*) AS n, sum(value) AS s
  FROM events GROUP BY 1, 2
),
m AS (
  SELECT max(CASE WHEN arm = 'A' AND period = 'pre' THEN s / n END) AS a_pre,
         max(CASE WHEN arm = 'A' AND period = 'post' THEN s / n END) AS a_post,
         max(CASE WHEN arm = 'B' AND period = 'pre' THEN s / n END) AS b_pre,
         max(CASE WHEN arm = 'B' AND period = 'post' THEN s / n END) AS b_post
  FROM cells
)
SELECT round(a_pre, 6) AS a_pre, round(a_post, 6) AS a_post,
       round(b_pre, 6) AS b_pre, round(b_post, 6) AS b_post,
       round((a_post - a_pre) - (b_post - b_pre), 6) AS did
FROM m
"""


def ab_power_mde(sf_dir: str) -> pd.DataFrame:
    """A/B preflight power calculation: with the current arm sizes and
    pooled conversion (user-parity arms, purchase conversion), the
    minimum detectable effect at alpha=0.05 / power=0.80 is
    (z_a + z_b) * se with the fixed normal constants 1.96 and 0.84 —
    the go/no-go number an experimenter reads before launching. Same
    one-pass per-user reduce as two_proportion_conversion."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "events", columns=["user_id", "event_type"])

    def _prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "user_id": df["user_id"],
                "pur": (df["event_type"] == "purchase").astype("int64"),
            }
        )

    per_user = bucketed_aggregate(
        ds.map_batches(_prep, batch_format="pandas"),
        ["user_id"],
        {"pur": ("pur", "max")},
    )

    def _counts(df: pd.DataFrame) -> pd.DataFrame:
        a = df["user_id"].to_numpy("int64") % 2 == 0
        pur = df["pur"].to_numpy("int64")
        return pd.DataFrame(
            {
                "na": [np.int64(a.sum())],
                "nb": [np.int64((~a).sum())],
                "x": [np.int64(pur.sum())],
            }
        )

    s = per_user.map_batches(_counts, batch_format="pandas").to_pandas().sum()
    na, nb, x = int(s["na"]), int(s["nb"]), int(s["x"])
    p = x / (na + nb)
    se = np.sqrt(p * (1 - p) * (1.0 / na + 1.0 / nb))
    return pd.DataFrame(
        {
            "n_a": [np.int64(na)],
            "n_b": [np.int64(nb)],
            "p_pool": [round(p, 6)],
            "se": [round(float(se), 6)],
            "mde": [round(float((1.96 + 0.84) * se), 6)],
        }
    )


AB_POWER_MDE_SQL = """
WITH per AS (
  SELECT user_id, max(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END) AS pur
  FROM events GROUP BY user_id
),
c AS (
  SELECT count(CASE WHEN user_id % 2 = 0 THEN 1 END) AS na,
         count(CASE WHEN user_id % 2 = 1 THEN 1 END) AS nb,
         sum(pur) AS x
  FROM per
)
SELECT CAST(na AS BIGINT) AS n_a, CAST(nb AS BIGINT) AS n_b,
       round(x / CAST(na + nb AS DOUBLE), 6) AS p_pool,
       round(sqrt((x / CAST(na + nb AS DOUBLE)) * (1 - x / CAST(na + nb AS DOUBLE))
                  * (1.0 / na + 1.0 / nb)), 6) AS se,
       round((1.96 + 0.84) * sqrt((x / CAST(na + nb AS DOUBLE)) * (1 - x / CAST(na + nb AS DOUBLE))
                  * (1.0 / na + 1.0 / nb)), 6) AS mde
FROM c
"""


def peak_user_rate(sf_dir: str, window_s: int = 3600, k: int = 10) -> pd.DataFrame:
    """Rate-limiter audit: each user's PEAK event count inside any
    sliding window of one hour ending at an event (the
    RANGE-window max a throttling rule would have seen), top-k
    users by peak. Per user-bucket the window count is one vectorized
    searchsorted over the user's sorted timestamps — no per-event
    Python; top-k reduces from per-bucket partials."""
    ds = _read(sf_dir, "events", columns=["user_id", "ts"])

    def _peaks(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts"])
        out_u, out_p = [], []
        for uid, gu in g.groupby("user_id", sort=False):
            t = gu["ts"].to_numpy("datetime64[us]").astype("int64")
            lo = np.searchsorted(t, t - window_s * 1_000_000, side="left")
            peak = int((np.arange(1, len(t) + 1) - lo).max())
            out_u.append(uid)
            out_p.append(peak)
        df = pd.DataFrame({"user_id": pd.Series(out_u, dtype="int64"), "peak": pd.Series(out_p, dtype="int64")})
        return df.sort_values(["peak", "user_id"], ascending=[False, True]).head(k)

    parts = (
        ds.map_batches(_add_user_bucket, batch_format="pandas")
        .groupby("__bucket")
        .map_groups(_peaks, batch_format="pandas")
        .to_pandas()
    )
    return (
        parts.sort_values(["peak", "user_id"], ascending=[False, True])
        .head(k)
        .reset_index(drop=True)
    )


PEAK_USER_RATE_SQL = """
WITH w AS (
  SELECT user_id,
         count(*) OVER (PARTITION BY user_id ORDER BY ts
           RANGE BETWEEN INTERVAL 3600 SECONDS PRECEDING AND CURRENT ROW) AS c
  FROM events
),
p AS (SELECT user_id, max(c) AS peak FROM w GROUP BY user_id)
SELECT user_id, CAST(peak AS BIGINT) AS peak
FROM p ORDER BY peak DESC, user_id LIMIT 10
"""


def routine_users_entropy(sf_dir: str, k: int = 10, min_events: int = 20) -> pd.DataFrame:
    """Routine detection: Shannon entropy (nats) of each user's
    hour-of-day activity histogram — low entropy = the user acts at
    the same hours every day (a bot/cron smell, or a power routine).
    Top-k LOWEST entropy among users with >= 20 events, ties by
    user_id. Per-(user, hour) counts reduce through ONE bucketed
    aggregate; the per-user entropy is a vectorized groupby over the
    (user, 24) grid inside each user bucket."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "events", columns=["user_id", "ts"])

    cnt = bucketed_aggregate(
        ds.map_batches(
            lambda df: pd.DataFrame(
                {"user_id": df["user_id"], "hod": df["ts"].dt.hour.astype("int64"), "one": np.int64(1)}
            ),
            batch_format="pandas",
        ),
        ["user_id", "hod"],
        {"c": ("one", "sum")},
    )

    def _entropy(df: pd.DataFrame) -> pd.DataFrame:
        tot = df.groupby("user_id")["c"].transform("sum")
        p = df["c"].to_numpy("float64") / tot.to_numpy("float64")
        ent = pd.DataFrame({"user_id": df["user_id"], "e": -p * np.log(p), "n": df["c"]})
        g = ent.groupby("user_id", as_index=False).agg(entropy=("e", "sum"), n_events=("n", "sum"))
        g = g[g["n_events"] >= min_events]
        return g.sort_values(["entropy", "user_id"]).head(k)

    def _ubucket(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(__b=(df["user_id"].to_numpy("int64") % 32))

    parts = (
        cnt.map_batches(_ubucket, batch_format="pandas")
        .groupby("__b")
        .map_groups(_entropy, batch_format="pandas")
        .to_pandas()
    )
    out = parts.sort_values(["entropy", "user_id"]).head(k).reset_index(drop=True)
    return pd.DataFrame(
        {
            "user_id": out["user_id"].astype("int64"),
            "n_events": out["n_events"].astype("int64"),
            "entropy": np.round(out["entropy"].to_numpy("float64"), 6),
        }
    )


ROUTINE_USERS_ENTROPY_SQL = """
WITH c AS (
  SELECT user_id, hour(ts) AS hod, count(*) AS c
  FROM events GROUP BY 1, 2
),
t AS (SELECT user_id, sum(c) AS tot FROM c GROUP BY 1),
e AS (
  SELECT c.user_id,
         sum(-(c / CAST(tot AS DOUBLE)) * ln(c / CAST(tot AS DOUBLE))) AS entropy,
         max(tot) AS n_events
  FROM c JOIN t USING (user_id) GROUP BY c.user_id
)
SELECT CAST(user_id AS BIGINT) AS user_id, CAST(n_events AS BIGINT) AS n_events,
       round(entropy, 6) AS entropy
FROM e WHERE n_events >= 20 ORDER BY entropy, user_id LIMIT 10
"""


def erasure_audit(sf_dir: str) -> pd.DataFrame:
    """GDPR right-to-erasure audit: delete every event of the target
    users (user_id % 97 == 0 — the deletion-request roster), then
    CERTIFY the erasure: zero residual target rows, exact surviving
    row count, and content checksums (sum of surviving event_ids, sum
    of surviving values) proving non-target rows are untouched — the
    compliance evidence a deletion job must emit. One filtered pass
    of per-batch partials."""
    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "value"])

    def _audit(df: pd.DataFrame) -> pd.DataFrame:
        tgt = df["user_id"].to_numpy("int64") % 97 == 0
        kept = df[~tgt]
        return pd.DataFrame(
            {
                "n_before": [np.int64(len(df))],
                "n_deleted": [np.int64(tgt.sum())],
                "n_after": [np.int64(len(kept))],
                "residual_target_rows": [
                    np.int64((kept["user_id"].to_numpy("int64") % 97 == 0).sum())
                ],
                "checksum_id": [np.int64(kept["event_id"].to_numpy("int64").sum())],
                "checksum_val": [float(kept["value"].to_numpy("float64").sum())],
            }
        )

    s = ds.map_batches(_audit, batch_format="pandas").to_pandas().sum()
    return pd.DataFrame(
        {
            "n_before": [np.int64(s["n_before"])],
            "n_deleted": [np.int64(s["n_deleted"])],
            "n_after": [np.int64(s["n_after"])],
            "residual_target_rows": [np.int64(s["residual_target_rows"])],
            "checksum_id": [np.int64(s["checksum_id"])],
            "checksum_val": [round(float(s["checksum_val"]), 2)],
        }
    )


ERASURE_AUDIT_SQL = """
WITH kept AS (SELECT * FROM events WHERE user_id % 97 <> 0)
SELECT (SELECT CAST(count(*) AS BIGINT) FROM events) AS n_before,
       (SELECT CAST(count(*) AS BIGINT) FROM events WHERE user_id % 97 = 0) AS n_deleted,
       CAST(count(*) AS BIGINT) AS n_after,
       CAST(count(CASE WHEN user_id % 97 = 0 THEN 1 END) AS BIGINT) AS residual_target_rows,
       CAST(sum(event_id) AS BIGINT) AS checksum_id,
       round(sum(value), 2) AS checksum_val
FROM kept
"""


def markov_order_test(sf_dir: str) -> pd.DataFrame:
    """Likelihood-ratio test of Markov order 1 vs 2 on per-user event
    streams: G2 = 2 * sum_abc n_abc * ln(n_abc * n_b / (n_ab * n_bc))
    over trigram counts and their marginals — does the next event
    depend on TWO steps of history? (transition_entropy assumes order
    1; this tests it.) Trigram extraction is two vectorized shifts per
    user bucket; the state space is tiny so the G2 reduce is
    result-sized."""
    ds = _read(sf_dir, "events", columns=["user_id", "ts", "event_id", "event_type"])

    def _trigrams(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        u = g["user_id"].to_numpy()
        t = g["event_type"].to_numpy(object)
        same2 = (u[:-2] == u[1:-1]) & (u[1:-1] == u[2:])
        if not same2.any():
            return pd.DataFrame({"a": [], "b": [], "c": [], "n": []})
        df = pd.DataFrame(
            {"a": t[:-2][same2], "b": t[1:-1][same2], "c": t[2:][same2], "n": np.int64(1)}
        )
        return df.groupby(["a", "b", "c"], as_index=False).sum()

    tri = (
        ds.map_batches(_add_user_bucket, batch_format="pandas")
        .groupby("__bucket")
        .map_groups(_trigrams, batch_format="pandas")
        .to_pandas()
        .groupby(["a", "b", "c"], as_index=False)["n"]
        .sum()
    )
    n_ab = tri.groupby(["a", "b"])["n"].sum()
    n_bc = tri.groupby(["b", "c"])["n"].sum()
    n_b = tri.groupby("b")["n"].sum()
    nabc = tri["n"].to_numpy("float64")
    vab = n_ab.reindex(pd.MultiIndex.from_frame(tri[["a", "b"]])).to_numpy("float64")
    vbc = n_bc.reindex(pd.MultiIndex.from_frame(tri[["b", "c"]])).to_numpy("float64")
    vb = n_b.reindex(tri["b"]).to_numpy("float64")
    g2 = float(2.0 * (nabc * np.log(nabc * vb / (vab * vbc))).sum())
    m = tri[["a"]].drop_duplicates().size
    return pd.DataFrame(
        {
            "n_trigrams": [np.int64(nabc.sum())],
            "n_cells": [np.int64(len(tri))],
            "n_states": [np.int64(m)],
            "g2": [round(g2, 6)],
        }
    )


MARKOV_ORDER_TEST_SQL = """
WITH seq AS (
  SELECT event_type AS a,
         lead(event_type, 1) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS b,
         lead(event_type, 2) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS c
  FROM events
),
tri AS (
  SELECT a, b, c, count(*) AS n FROM seq WHERE c IS NOT NULL GROUP BY 1, 2, 3
),
ab AS (SELECT a, b, sum(n) AS nab FROM tri GROUP BY 1, 2),
bc AS (SELECT b, c, sum(n) AS nbc FROM tri GROUP BY 1, 2),
bb AS (SELECT b, sum(n) AS nb FROM tri GROUP BY 1)
SELECT CAST((SELECT sum(n) FROM tri) AS BIGINT) AS n_trigrams,
       CAST((SELECT count(*) FROM tri) AS BIGINT) AS n_cells,
       CAST((SELECT count(DISTINCT a) FROM tri) AS BIGINT) AS n_states,
       round(2.0 * sum(n * ln(n * nb / (CAST(nab AS DOUBLE) * nbc))), 6) AS g2
FROM tri JOIN ab USING (a, b) JOIN bc USING (b, c) JOIN bb USING (b)
"""


def purchase_attribution(sf_dir: str) -> pd.DataFrame:
    """Marketing attribution table: for every purchase event, the
    LAST-touch channel (the user's immediately-preceding event type)
    and the FIRST-touch channel (the user's first-ever event type),
    counted as (last_touch, first_touch) cells — the two attribution
    models every growth team compares. Per-user-bucket vectorized
    shift; cells reduce from partials."""
    ds = _read(sf_dir, "events", columns=["user_id", "ts", "event_id", "event_type"])

    def _attr(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        u = g["user_id"].to_numpy()
        t = g["event_type"].to_numpy(object)
        prev = np.empty(len(g), dtype=object)
        prev[1:] = t[:-1]
        prev[0] = None
        same = np.empty(len(g), dtype=bool)
        same[1:] = u[1:] == u[:-1]
        same[0] = False
        first = pd.Series(t).groupby(pd.Series(u)).transform("first").to_numpy(object)
        is_pur = t == "purchase"
        keep = is_pur & same  # purchases with a preceding same-user event
        df = pd.DataFrame({"last_touch": prev[keep], "first_touch": first[keep], "n": np.int64(1)})
        return df.groupby(["last_touch", "first_touch"], as_index=False).sum()

    out = (
        ds.map_batches(_add_user_bucket, batch_format="pandas")
        .groupby("__bucket")
        .map_groups(_attr, batch_format="pandas")
        .to_pandas()
        .groupby(["last_touch", "first_touch"], as_index=False)["n"]
        .sum()
        .sort_values(["last_touch", "first_touch"])
        .reset_index(drop=True)
    )
    out["n"] = out["n"].astype("int64")
    return out


PURCHASE_ATTRIBUTION_SQL = """
WITH seq AS (
  SELECT user_id, event_type,
         lag(event_type) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS last_touch,
         first_value(event_type) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS first_touch
  FROM events
)
SELECT last_touch, first_touch, CAST(count(*) AS BIGINT) AS n
FROM seq
WHERE event_type = 'purchase' AND last_touch IS NOT NULL
GROUP BY 1, 2 ORDER BY last_touch, first_touch
"""


def quantile_treatment_effect(sf_dir: str, n_range_buckets: int = 128) -> pd.DataFrame:
    """Quantile treatment effects: at each decile p = 0.1..0.9, the
    difference between the two arms' per-user total-value quantiles
    (user-parity arms, quantile_disc order statistics) — where in the
    outcome distribution the treatment moves mass, which a mean-only
    readout (diff_in_diff_value) cannot see. Exact per-arm order
    statistics via the shared two-pass (arm, range-bucket) grid
    selection."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "events", columns=["user_id", "value"])
    per_user = bucketed_aggregate(
        ds.map_batches(
            lambda df: pd.DataFrame({"user_id": df["user_id"], "v": df["value"]}),
            batch_format="pandas",
        ),
        ["user_id"],
        {"v": ("v", "sum")},
    ).map_batches(
        lambda df: pd.DataFrame(
            {
                "arm": np.where(df["user_id"].to_numpy("int64") % 2 == 0, "A", "B"),
                "x": df["v"].to_numpy("float64"),
            }
        ),
        batch_format="pandas",
    ).materialize()
    lo = float(per_user.min("x"))
    hi = float(per_user.max("x"))
    width = (hi - lo) / n_range_buckets or 1.0
    ps = [round(0.1 * i, 1) for i in range(1, 10)]

    def _bucket(v: np.ndarray) -> np.ndarray:
        return np.clip(np.floor((v - lo) / width).astype("int64"), 0, n_range_buckets - 1)

    grid = (
        per_user.map_batches(
            lambda df: pd.DataFrame({"arm": df["arm"], "b": _bucket(df["x"].to_numpy("float64"))})
            .groupby(["arm", "b"], as_index=False)
            .size()
            .rename(columns={"size": "c"}),
            batch_format="pandas",
        )
        .to_pandas()
        .groupby(["arm", "b"], as_index=False)["c"]
        .sum()
    )
    targets = {}
    needed: dict[str, set[int]] = {}
    for arm, g in grid.groupby("arm"):
        g = g.sort_values("b")
        cum = g["c"].cumsum().to_numpy("int64")
        n_arm = int(cum[-1])
        bs = g["b"].to_numpy("int64")
        for p in ps:
            k = int(np.ceil(p * n_arm))
            j = int(np.searchsorted(cum, k))
            needed.setdefault(arm, set()).add(int(bs[j]))
            targets[(arm, p)] = (k, int(bs[j]), int(cum[j] - g["c"].to_numpy("int64")[j]))
    need_ref = ray.put({a: np.array(sorted(v)) for a, v in needed.items()})

    def _pull(df: pd.DataFrame) -> pd.DataFrame:
        nd = ray.get(need_ref)
        b = _bucket(df["x"].to_numpy("float64"))
        keep = np.zeros(len(df), dtype=bool)
        av = df["arm"].to_numpy(object)
        for a, bset in nd.items():
            keep |= (av == a) & np.isin(b, bset)
        return pd.DataFrame({"arm": av[keep], "x": df["x"].to_numpy("float64")[keep], "b": b[keep]})

    pulled = per_user.map_batches(_pull, batch_format="pandas").to_pandas()
    rows = []
    for p in ps:
        q = {}
        for arm in ("A", "B"):
            k, bj, before = targets[(arm, p)]
            vals = np.sort(pulled[(pulled["arm"] == arm) & (pulled["b"] == bj)]["x"].to_numpy("float64"))
            q[arm] = float(vals[k - before - 1])
        rows.append(
            {
                "p": p,
                "q_a": round(q["A"], 4),
                "q_b": round(q["B"], 4),
                "qte": round(q["A"] - q["B"], 4),
            }
        )
    return pd.DataFrame(rows)


QUANTILE_TREATMENT_EFFECT_SQL = """
WITH per AS (
  SELECT user_id, CASE WHEN user_id % 2 = 0 THEN 'A' ELSE 'B' END AS arm,
         sum(value) AS x
  FROM events GROUP BY 1, 2
),
ps AS (SELECT round(0.1 * unnest(range(1, 10)), 1) AS p),
r AS (
  SELECT arm, x,
         row_number() OVER (PARTITION BY arm ORDER BY x) AS rk,
         count(*) OVER (PARTITION BY arm) AS n
  FROM per
),
q AS (
  SELECT ps.p,
         max(CASE WHEN arm = 'A' THEN x END) AS q_a,
         max(CASE WHEN arm = 'B' THEN x END) AS q_b
  FROM ps JOIN r ON r.rk = CAST(ceil(ps.p * r.n) AS BIGINT)
  GROUP BY ps.p
)
SELECT p, round(q_a, 4) AS q_a, round(q_b, 4) AS q_b,
       round(q_a - q_b, 4) AS qte
FROM q ORDER BY p
"""


def matched_att_value(sf_dir: str) -> pd.DataFrame:
    """Matched-pair treatment effect (ATT): each arm-A user is matched
    WITH REPLACEMENT to the arm-B user with the closest PRE-period
    value (ties: smaller |gap| then smaller user_id), and the effect
    is the mean post-period difference over matched pairs — the
    covariate-matching estimator next to CUPED and DiD. Matching is a
    vectorized searchsorted against the broadcast sorted B-arm
    (user-scale broadcast — the documented small-side ceiling; range
    co-partitioning is the beyond-broadcast path)."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "events", columns=["user_id", "ts", "value"])

    def _prep(df: pd.DataFrame) -> pd.DataFrame:
        pre_mask = df["ts"] < CUPED_SPLIT
        return pd.DataFrame(
            {
                "user_id": df["user_id"],
                "pre": df["value"].where(pre_mask, 0.0),
                "post": df["value"].where(~pre_mask, 0.0),
            }
        )

    per_user = bucketed_aggregate(
        ds.map_batches(_prep, batch_format="pandas"),
        ["user_id"],
        {"pre": ("pre", "sum"), "post": ("post", "sum")},
    ).materialize()
    bdf = (
        per_user.map_batches(
            lambda df: df[df["user_id"].to_numpy("int64") % 2 == 1], batch_format="pandas"
        )
        .to_pandas()
        .sort_values(["pre", "user_id"])
        .reset_index(drop=True)
    )
    b_ref = ray.put(
        (
            bdf["pre"].to_numpy("float64"),
            bdf["user_id"].to_numpy("int64"),
            bdf["post"].to_numpy("float64"),
        )
    )

    def _match(df: pd.DataFrame) -> pd.DataFrame:
        bpre, bid, bpost = ray.get(b_ref)
        a = df[df["user_id"].to_numpy("int64") % 2 == 0]
        if a.empty:
            return pd.DataFrame({"n": [np.int64(0)], "s": [0.0]})
        apre = a["pre"].to_numpy("float64")
        apost = a["post"].to_numpy("float64")
        # vectorized nearest-match: the only candidates are the FIRST
        # element (smallest id) of the equal-value run at/after apre
        # and of the run just below it — (|gap|, id) ordering picks one
        j = np.searchsorted(bpre, apre, side="left")
        jr = np.clip(j, 0, len(bpre) - 1)
        jl_last = np.clip(j - 1, 0, len(bpre) - 1)
        jl = np.searchsorted(bpre, bpre[jl_last], side="left")
        dr = np.abs(apre - bpre[jr])
        dr[j == len(bpre)] = np.inf
        dl = np.abs(apre - bpre[jl])
        dl[j == 0] = np.inf
        pick_left = (dl < dr) | ((dl == dr) & (bid[jl] < bid[jr]))
        best = np.where(pick_left, jl, jr)
        out_diff = apost - bpost[best]
        return pd.DataFrame({"n": [np.int64(len(a))], "s": [float(out_diff.sum())]})

    s = per_user.map_batches(_match, batch_format="pandas").to_pandas().sum()
    n = int(s["n"])
    return pd.DataFrame(
        {
            "n_matched": [np.int64(n)],
            "att": [round(float(s["s"]) / n, 6)],
        }
    )


MATCHED_ATT_VALUE_SQL = """
WITH per AS (
  SELECT user_id,
         sum(CASE WHEN ts < TIMESTAMP '2024-01-16' THEN value ELSE 0 END) AS pre,
         sum(CASE WHEN ts >= TIMESTAMP '2024-01-16' THEN value ELSE 0 END) AS post
  FROM events GROUP BY user_id
),
a AS (SELECT * FROM per WHERE user_id % 2 = 0),
b AS (SELECT * FROM per WHERE user_id % 2 = 1),
m AS (
  SELECT a.user_id, a.post - b.post AS diff
  FROM a JOIN b ON true
  QUALIFY row_number() OVER (PARTITION BY a.user_id
            ORDER BY abs(a.pre - b.pre), b.user_id) = 1
)
SELECT CAST(count(*) AS BIGINT) AS n_matched,
       round(sum(diff) / count(*), 6) AS att
FROM m
"""


def burst_minutes(sf_dir: str, k: int = 5) -> pd.DataFrame:
    """Burst detection: the k busiest minutes with their Poisson
    surprise -ln P(X = c) under the global per-minute rate — how
    un-random is the spike (Kleinberg-style burst scoring, one
    level). The minute histogram reduces through one bucketed
    aggregate; the surprise math uses Stirling-free exact terms
    (lgamma) on the k winners."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate, partial_topk
    import math

    ds = _read(sf_dir, "events", columns=["ts"])
    lo = pd.Timestamp(ds.min("ts")).floor("min")
    hi = pd.Timestamp(ds.max("ts")).floor("min")
    n_minutes = int((hi - lo).total_seconds() // 60) + 1
    cnt = bucketed_aggregate(
        ds.map_batches(
            lambda df: pd.DataFrame({"m": df["ts"].dt.floor("min"), "one": np.int64(1)}),
            batch_format="pandas",
        ),
        ["m"],
        {"c": ("one", "sum")},
        num_buckets=16,
    ).materialize()
    total = int(
        cnt.map_batches(
            lambda df: pd.DataFrame({"t": [np.int64(df["c"].sum())]}), batch_format="pandas"
        )
        .to_pandas()["t"]
        .sum()
    )
    lam = total / n_minutes
    top = partial_topk(cnt, ["c", "m"], [False, True], k)
    c = top["c"].to_numpy("int64")
    surprise = np.array(
        [-(ci * math.log(lam) - lam - math.lgamma(ci + 1)) for ci in c]
    )
    return pd.DataFrame(
        {
            "minute": top["m"].to_numpy(),
            "n_events": c,
            "surprise": np.round(surprise, 6),
        }
    ).reset_index(drop=True)


BURST_MINUTES_SQL = """
WITH c AS (
  SELECT date_trunc('minute', ts) AS m, count(*) AS c FROM events GROUP BY 1
),
st AS (
  SELECT CAST(sum(c) AS DOUBLE)
           / (datediff('minute',
                date_trunc('minute', (SELECT min(ts) FROM events)),
                date_trunc('minute', (SELECT max(ts) FROM events))) + 1) AS lam
  FROM c
)
SELECT m AS minute, CAST(c AS BIGINT) AS n_events,
       round(-(c * ln((SELECT lam FROM st)) - (SELECT lam FROM st) - lgamma(c + 1.0)), 6) AS surprise
FROM c ORDER BY c DESC, m LIMIT 5
"""


def msprt_crossing_day(sf_dir: str, tau2: float = 1.0) -> pd.DataFrame:
    """Always-valid sequential A/B monitoring (mSPRT with a normal
    mixture prior, tau^2 = 1): for each day of the experiment, the
    cumulative log mixture-likelihood-ratio for the arm difference in
    per-event value, and whether it has crossed the 1/alpha = 20
    boundary — the peeking-safe dashboard readout.
    ln(Lambda_t) = 0.5*ln(v_t/(v_t + n_t*tau2))
                 + d_t^2 * n_t^2 * tau2 / (2*v_t*(v_t + n_t*tau2))
    with n_t the harmonic pair size, d_t the cumulative mean
    difference and v_t the pooled variance. Per-(day, arm) moment
    partials reduce once; the cumulative walk runs on the 30-day
    table."""
    ds = _read(sf_dir, "events", columns=["user_id", "ts", "value"])

    def _p(df: pd.DataFrame) -> pd.DataFrame:
        x = df["value"].to_numpy("float64")
        return (
            pd.DataFrame(
                {
                    "day": df["ts"].dt.normalize(),
                    "arm": np.where(df["user_id"].to_numpy("int64") % 2 == 0, "A", "B"),
                    "n": np.int64(1),
                    "s": x,
                    "ss": x * x,
                }
            )
            .groupby(["day", "arm"], as_index=False)
            .sum()
        )

    g = (
        ds.map_batches(_p, batch_format="pandas")
        .to_pandas()
        .groupby(["day", "arm"], as_index=False)
        .sum()
        .sort_values(["day", "arm"])
    )
    days = sorted(g["day"].unique())
    cum = {a: {"n": 0.0, "s": 0.0, "ss": 0.0} for a in ("A", "B")}
    rows = []
    for d in days:
        for _, r in g[g["day"] == d].iterrows():
            c = cum[r["arm"]]
            c["n"] += float(r["n"]); c["s"] += float(r["s"]); c["ss"] += float(r["ss"])
        na, nb = cum["A"]["n"], cum["B"]["n"]
        if na < 2 or nb < 2:
            continue
        ma, mb = cum["A"]["s"] / na, cum["B"]["s"] / nb
        va = cum["A"]["ss"] / na - ma * ma
        vb = cum["B"]["ss"] / nb - mb * mb
        v = (na * va + nb * vb) / (na + nb)
        n_eff = na * nb / (na + nb)
        diff = ma - mb
        ll = 0.5 * np.log(v / (v + n_eff * tau2)) + (
            diff * diff * n_eff * n_eff * tau2 / (2.0 * v * (v + n_eff * tau2))
        )
        rows.append(
            {
                "day": d,
                "n_a": np.int64(na),
                "n_b": np.int64(nb),
                "log_lambda": round(float(ll), 4),
                "crossed": bool(ll > np.log(20.0)),
            }
        )
    return pd.DataFrame(rows)


MSPRT_CROSSING_DAY_SQL = """
WITH daily AS (
  SELECT date_trunc('day', ts) AS day,
         CASE WHEN user_id % 2 = 0 THEN 'A' ELSE 'B' END AS arm,
         count(*) AS n, sum(value) AS s, sum(value * value) AS ss
  FROM events GROUP BY 1, 2
),
cum AS (
  SELECT day, arm,
         sum(n) OVER (PARTITION BY arm ORDER BY day) AS cn,
         sum(s) OVER (PARTITION BY arm ORDER BY day) AS cs,
         sum(ss) OVER (PARTITION BY arm ORDER BY day) AS css
  FROM daily
),
wide AS (
  SELECT day,
         max(CASE WHEN arm = 'A' THEN cn END) AS na,
         max(CASE WHEN arm = 'A' THEN cs END) AS sa,
         max(CASE WHEN arm = 'A' THEN css END) AS ssa,
         max(CASE WHEN arm = 'B' THEN cn END) AS nb,
         max(CASE WHEN arm = 'B' THEN cs END) AS sb,
         max(CASE WHEN arm = 'B' THEN css END) AS ssb
  FROM cum GROUP BY day
),
filled AS (
  SELECT day,
         max(na) OVER (ORDER BY day) AS na, max(sa) OVER (ORDER BY day) AS sa,
         max(ssa) OVER (ORDER BY day) AS ssa,
         max(nb) OVER (ORDER BY day) AS nb, max(sb) OVER (ORDER BY day) AS sb,
         max(ssb) OVER (ORDER BY day) AS ssb
  FROM wide
),
m AS (
  SELECT day, na, nb,
         sa / na AS ma, sb / nb AS mb,
         ((na * (ssa / na - (sa / na) * (sa / na)))
          + (nb * (ssb / nb - (sb / nb) * (sb / nb)))) / (na + nb) AS v,
         na * nb / CAST(na + nb AS DOUBLE) AS neff
  FROM filled WHERE na >= 2 AND nb >= 2
)
SELECT day, CAST(na AS BIGINT) AS n_a, CAST(nb AS BIGINT) AS n_b,
       round(0.5 * ln(v / (v + neff * 1.0))
             + (ma - mb) * (ma - mb) * neff * neff * 1.0
               / (2.0 * v * (v + neff * 1.0)), 4) AS log_lambda,
       (0.5 * ln(v / (v + neff * 1.0))
             + (ma - mb) * (ma - mb) * neff * neff * 1.0
               / (2.0 * v * (v + neff * 1.0))) > ln(20.0) AS crossed
FROM m ORDER BY day
"""


def lognormal_fit_user_value(sf_dir: str) -> pd.DataFrame:
    """Lognormal fit of per-user total event value: MLE parameters
    mu-hat and sigma-hat from the log moments, plus the implied median
    exp(mu) and mean exp(mu + sigma^2/2) — the standard heavy-tail
    parameterization for LTV planning. One bucketed per-user
    aggregate, then scalar log-moment partials."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "events", columns=["user_id", "value"])
    per_user = bucketed_aggregate(
        ds.map_batches(
            lambda df: pd.DataFrame({"user_id": df["user_id"], "v": df["value"]}),
            batch_format="pandas",
        ),
        ["user_id"],
        {"v": ("v", "sum")},
    )

    def _m(df: pd.DataFrame) -> pd.DataFrame:
        lv = np.log(df["v"].to_numpy("float64"))
        return pd.DataFrame({"n": [np.int64(len(df))], "s": [lv.sum()], "ss": [(lv * lv).sum()]})

    m = per_user.map_batches(_m, batch_format="pandas").to_pandas().sum()
    n = float(m["n"])
    mu = m["s"] / n
    sigma2 = m["ss"] / n - mu * mu
    return pd.DataFrame(
        {
            "n_users": [np.int64(n)],
            "mu": [round(float(mu), 6)],
            "sigma": [round(float(np.sqrt(sigma2)), 6)],
            "median_value": [round(float(np.exp(mu)), 4)],
            "mean_value": [round(float(np.exp(mu + sigma2 / 2.0)), 4)],
        }
    )


LOGNORMAL_FIT_USER_VALUE_SQL = """
WITH per AS (SELECT user_id, sum(value) AS v FROM events GROUP BY user_id),
m AS (
  SELECT count(*) AS n, sum(ln(v)) AS s, sum(ln(v) * ln(v)) AS ss FROM per
)
SELECT CAST(n AS BIGINT) AS n_users,
       round(s / n, 6) AS mu,
       round(sqrt(ss / n - (s / n) * (s / n)), 6) AS sigma,
       round(exp(s / n), 4) AS median_value,
       round(exp(s / n + (ss / n - (s / n) * (s / n)) / 2.0), 4) AS mean_value
FROM m
"""


def cvm_arm_event_counts(sf_dir: str) -> pd.DataFrame:
    """Cramér–von Mises two-sample statistic between the arms'
    per-user EVENT-COUNT distributions: T = (na*nb/(na+nb)^2) *
    sum over the pooled sample of (F_A(x) - F_B(x))^2 — the
    integrated-CDF companion to KS (sensitive across the whole
    distribution, not just the max gap). Counts are integers, so the
    value-domain histogram is exact: one bucketed per-user count, a
    tiny (count-value, arm) histogram, and the CDF walk on its rows."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "events", columns=["user_id"])
    per_user = bucketed_aggregate(
        ds.map_batches(
            lambda df: pd.DataFrame({"user_id": df["user_id"], "one": np.int64(1)}),
            batch_format="pandas",
        ),
        ["user_id"],
        {"c": ("one", "sum")},
    )
    h = (
        per_user.map_batches(
            lambda df: pd.DataFrame(
                {
                    "x": df["c"].to_numpy("int64"),
                    "a": (df["user_id"].to_numpy("int64") % 2 == 0).astype("int64"),
                    "b": (df["user_id"].to_numpy("int64") % 2 == 1).astype("int64"),
                }
            )
            .groupby("x", as_index=False)
            .sum(),
            batch_format="pandas",
        )
        .to_pandas()
        .groupby("x", as_index=False)
        .sum()
        .sort_values("x")
        .reset_index(drop=True)
    )
    na = float(h["a"].sum())
    nb = float(h["b"].sum())
    fa = h["a"].cumsum().to_numpy("float64") / na
    fb = h["b"].cumsum().to_numpy("float64") / nb
    w = (h["a"] + h["b"]).to_numpy("float64")  # pooled multiplicity at each value
    t = (na * nb / (na + nb) ** 2) * float(((fa - fb) ** 2 * w).sum())
    return pd.DataFrame(
        {
            "n_a": [np.int64(na)],
            "n_b": [np.int64(nb)],
            "cvm_t": [round(t, 6)],
        }
    )


CVM_ARM_EVENT_COUNTS_SQL = """
WITH per AS (
  SELECT user_id, count(*) AS c FROM events GROUP BY user_id
),
h AS (
  SELECT c AS x,
         count(CASE WHEN user_id % 2 = 0 THEN 1 END) AS a,
         count(CASE WHEN user_id % 2 = 1 THEN 1 END) AS b
  FROM per GROUP BY c
),
tot AS (SELECT CAST(sum(a) AS DOUBLE) AS na, CAST(sum(b) AS DOUBLE) AS nb FROM h),
cdf AS (
  SELECT x, a, b,
         sum(a) OVER (ORDER BY x) / (SELECT na FROM tot) AS fa,
         sum(b) OVER (ORDER BY x) / (SELECT nb FROM tot) AS fb
  FROM h
)
SELECT CAST((SELECT na FROM tot) AS BIGINT) AS n_a,
       CAST((SELECT nb FROM tot) AS BIGINT) AS n_b,
       round((SELECT na FROM tot) * (SELECT nb FROM tot)
             / (((SELECT na FROM tot) + (SELECT nb FROM tot))
                * ((SELECT na FROM tot) + (SELECT nb FROM tot)))
             * sum((fa - fb) * (fa - fb) * (a + b)), 6) AS cvm_t
FROM cdf
"""


def user_sequence_edit_distance(sf_dir: str, n_users: int = 5) -> pd.DataFrame:
    """Behavioral-sequence comparison: Levenshtein edit distance
    between the event-type sequences (first letter per event, in
    (ts, event_id) order) of the first five users, all 10 pairs — the
    session-alignment primitive behind journey clustering. Sequences
    assemble in one filtered pass (per-user vectorized concat);
    the pairwise DP runs on the 10 result-sized pairs."""
    from ocr_pipeline_ray.pipelines.relational import _levenshtein

    users = (
        _read(sf_dir, "events", columns=["user_id"])
        .map_batches(lambda df: df.drop_duplicates(), batch_format="pandas")
        .to_pandas()["user_id"]
        .drop_duplicates()
        .nsmallest(n_users)
        .to_numpy("int64")
    )
    u_ref = ray.put(set(users.tolist()))
    rows = (
        _read(sf_dir, "events", columns=["user_id", "ts", "event_id", "event_type"])
        .map_batches(
            lambda df: df[df["user_id"].isin(ray.get(u_ref))], batch_format="pandas"
        )
        .to_pandas()
        .sort_values(["user_id", "ts", "event_id"])
    )
    seqs = {
        int(u): "".join(t[0] for t in g["event_type"])
        for u, g in rows.groupby("user_id")
    }
    out = []
    us = sorted(seqs)
    for i in range(len(us)):
        for j in range(i + 1, len(us)):
            out.append(
                {
                    "user_a": np.int64(us[i]),
                    "user_b": np.int64(us[j]),
                    "len_a": np.int64(len(seqs[us[i]])),
                    "len_b": np.int64(len(seqs[us[j]])),
                    "edit_dist": np.int64(_levenshtein(seqs[us[i]], seqs[us[j]])),
                }
            )
    return pd.DataFrame(out)


def user_sequence_edit_distance_sql(n_users: int = 5) -> str:
    return f"""
WITH users AS (SELECT DISTINCT user_id FROM events ORDER BY 1 LIMIT {n_users}),
seqs AS (
  SELECT user_id,
         string_agg(substr(event_type, 1, 1), '' ORDER BY ts, event_id) AS s
  FROM events WHERE user_id IN (SELECT user_id FROM users)
  GROUP BY user_id
)
SELECT a.user_id AS user_a, b.user_id AS user_b,
       CAST(len(a.s) AS BIGINT) AS len_a, CAST(len(b.s) AS BIGINT) AS len_b,
       CAST(levenshtein(a.s, b.s) AS BIGINT) AS edit_dist
FROM seqs a JOIN seqs b ON a.user_id < b.user_id
ORDER BY user_a, user_b
"""


USER_SEQUENCE_EDIT_DISTANCE_SQL = user_sequence_edit_distance_sql()


def markov_heldout_perplexity(sf_dir: str) -> pd.DataFrame:
    """Held-out evaluation of the order-1 event-type Markov LM: train
    transition counts on pre-Jan-16 consecutive pairs, score the
    post-period pairs with Laplace smoothing over the T types,
    perplexity = exp(-mean ln P(b|a)) — the train/eval split
    discipline applied to the sequence model (transition_entropy is
    resubstitution; this is the honest number). Both per-user pair
    extractions are vectorized shifts; train counts are a tiny grid;
    test log-prob partials reduce per bucket."""
    ds = _read(sf_dir, "events", columns=["user_id", "ts", "event_id", "event_type"])

    def _pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        u = g["user_id"].to_numpy()
        t = g["event_type"].to_numpy(object)
        ts = g["ts"].to_numpy()
        same = u[1:] == u[:-1]
        a, b = t[:-1][same], t[1:][same]
        t0, t1 = ts[:-1][same], ts[1:][same]
        split = np.datetime64(CUPED_SPLIT)
        is_train = (t0 < split) & (t1 < split)
        is_test = (t0 >= split) & (t1 >= split)
        frames = []
        for name, mask in (("train", is_train), ("test", is_test)):
            if mask.any():
                d = pd.DataFrame({"a": a[mask], "b": b[mask], "n": np.int64(1), "split": name})
                frames.append(d.groupby(["split", "a", "b"], as_index=False).sum())
        return pd.concat(frames, ignore_index=True) if frames else pd.DataFrame(
            {"split": pd.Series(dtype=object), "a": pd.Series(dtype=object),
             "b": pd.Series(dtype=object), "n": pd.Series(dtype="int64")}
        )

    grid = (
        ds.map_batches(_add_user_bucket, batch_format="pandas")
        .groupby("__bucket")
        .map_groups(_pairs, batch_format="pandas")
        .to_pandas()
        .groupby(["split", "a", "b"], as_index=False)["n"]
        .sum()
    )
    train = grid[grid["split"] == "train"]
    test = grid[grid["split"] == "test"]
    types = sorted(set(grid["a"]) | set(grid["b"]))
    t_count = len(types)
    c_ab = train.set_index(["a", "b"])["n"]
    c_a = train.groupby("a")["n"].sum()
    logp_sum = 0.0
    n_test = 0
    for _, r in test.iterrows():
        cab = int(c_ab.get((r["a"], r["b"]), 0))
        ca = int(c_a.get(r["a"], 0))
        logp_sum += float(r["n"]) * np.log((cab + 1.0) / (ca + t_count))
        n_test += int(r["n"])
    ppl = float(np.exp(-logp_sum / n_test))
    return pd.DataFrame(
        {
            "n_train_pairs": [np.int64(train["n"].sum())],
            "n_test_pairs": [np.int64(n_test)],
            "n_types": [np.int64(t_count)],
            "perplexity": [round(ppl, 6)],
        }
    )


MARKOV_HELDOUT_PERPLEXITY_SQL = """
WITH seq AS (
  SELECT user_id, ts, event_type AS a,
         lead(event_type) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS b,
         lead(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS ts2
  FROM events
),
pairs AS (
  SELECT a, b,
         CASE WHEN ts < TIMESTAMP '2024-01-16' AND ts2 < TIMESTAMP '2024-01-16' THEN 'train'
              WHEN ts >= TIMESTAMP '2024-01-16' AND ts2 >= TIMESTAMP '2024-01-16' THEN 'test'
         END AS split
  FROM seq WHERE b IS NOT NULL
),
grid AS (
  SELECT split, a, b, count(*) AS n FROM pairs WHERE split IS NOT NULL GROUP BY 1, 2, 3
),
types AS (
  SELECT count(*) AS t FROM (
    SELECT DISTINCT a AS x FROM grid UNION SELECT DISTINCT b FROM grid
  )
),
ca AS (SELECT a, sum(n) AS ca FROM grid WHERE split = 'train' GROUP BY a),
scored AS (
  SELECT t.n,
         ln((coalesce(tr.n, 0) + 1.0)
            / (coalesce(ca.ca, 0) + (SELECT t FROM types))) AS lp
  FROM grid t
  LEFT JOIN grid tr ON tr.split = 'train' AND tr.a = t.a AND tr.b = t.b
  LEFT JOIN ca ON ca.a = t.a
  WHERE t.split = 'test'
)
SELECT (SELECT CAST(sum(n) AS BIGINT) FROM grid WHERE split = 'train') AS n_train_pairs,
       CAST(sum(n) AS BIGINT) AS n_test_pairs,
       (SELECT CAST(t AS BIGINT) FROM types) AS n_types,
       round(exp(-sum(n * lp) / sum(n)), 6) AS perplexity
FROM scored
"""


def user_day_surprise(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Per-user anomaly localization: the k most surprising user-days,
    scored by -ln P(X = c) under each USER'S OWN daily Poisson rate
    (their total events / global day span) — the personalized version
    of burst_minutes that separates a heavy user's normal day from a
    quiet user's explosion. One bucketed (user, day) count; rates from
    the same rows; lgamma-exact scoring on the winners."""
    import math

    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate, partial_topk

    ds = _read(sf_dir, "events", columns=["user_id", "ts"])
    lo = pd.Timestamp(ds.min("ts")).normalize()
    hi = pd.Timestamp(ds.max("ts")).normalize()
    n_days = int((hi - lo).days) + 1
    ud = bucketed_aggregate(
        ds.map_batches(
            lambda df: pd.DataFrame(
                {"user_id": df["user_id"], "day": df["ts"].dt.normalize(), "one": np.int64(1)}
            ),
            batch_format="pandas",
        ),
        ["user_id", "day"],
        {"c": ("one", "sum")},
    ).materialize()
    tot = (
        ud.map_batches(
            lambda df: df.groupby("user_id", as_index=False)["c"].sum(), batch_format="pandas"
        )
        .to_pandas()
        .groupby("user_id", as_index=False)
        .sum()
        .set_index("user_id")["c"]
    )
    rate_ref = ray.put(tot / n_days)

    def _score(df: pd.DataFrame) -> pd.DataFrame:
        lam = ray.get(rate_ref).reindex(df["user_id"]).to_numpy("float64")
        c = df["c"].to_numpy("int64")
        sur = np.array(
            [-(ci * math.log(l) - l - math.lgamma(ci + 1)) for ci, l in zip(c, lam)]
        )
        out = pd.DataFrame(
            {"user_id": df["user_id"].to_numpy("int64"), "day": df["day"], "n_events": c, "surprise": sur}
        )
        return out.sort_values(["surprise", "user_id", "day"], ascending=[False, True, True]).head(k)

    parts = ud.map_batches(_score, batch_format="pandas").to_pandas()
    top = (
        parts.sort_values(["surprise", "user_id", "day"], ascending=[False, True, True])
        .head(k)
        .reset_index(drop=True)
    )
    top["surprise"] = np.round(top["surprise"].to_numpy("float64"), 6)
    return top


USER_DAY_SURPRISE_SQL = """
WITH ud AS (
  SELECT user_id, date_trunc('day', ts) AS day, count(*) AS c
  FROM events GROUP BY 1, 2
),
span AS (
  SELECT datediff('day', date_trunc('day', (SELECT min(ts) FROM events)),
                  date_trunc('day', (SELECT max(ts) FROM events))) + 1 AS nd
),
rates AS (
  SELECT user_id, sum(c) / CAST((SELECT nd FROM span) AS DOUBLE) AS lam
  FROM ud GROUP BY user_id
)
SELECT ud.user_id, day, CAST(c AS BIGINT) AS n_events,
       round(-(c * ln(lam) - lam - lgamma(c + 1.0)), 6) AS surprise
FROM ud JOIN rates USING (user_id)
ORDER BY -(c * ln(lam) - lam - lgamma(c + 1.0)) DESC, ud.user_id, day
LIMIT 10
"""


def capture_recapture_users(sf_dir: str) -> pd.DataFrame:
    """Lincoln-Petersen capture-recapture estimate of the active-user
    population from two independent "captures" — users seen in 'view'
    events vs users seen in 'click' events: N-hat = nA * nB / overlap
    (Chapman-corrected variant reported alongside) — the coverage
    estimator data teams use when no registry exists. Per-user flags
    reduce through one bucketed aggregate; four counters reach the
    driver."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "events", columns=["user_id", "event_type"])
    per = bucketed_aggregate(
        ds.map_batches(
            lambda df: pd.DataFrame(
                {
                    "user_id": df["user_id"],
                    "a": (df["event_type"] == "view").astype("int64"),
                    "b": (df["event_type"] == "click").astype("int64"),
                }
            ),
            batch_format="pandas",
        ),
        ["user_id"],
        {"a": ("a", "max"), "b": ("b", "max")},
    )
    s = (
        per.map_batches(
            lambda df: pd.DataFrame(
                {
                    "na": [np.int64(df["a"].sum())],
                    "nb": [np.int64(df["b"].sum())],
                    "both": [np.int64(((df["a"] == 1) & (df["b"] == 1)).sum())],
                    "n_true": [np.int64(len(df))],
                }
            ),
            batch_format="pandas",
        )
        .to_pandas()
        .sum()
    )
    na, nb, both, n_true = (int(s[k]) for k in ("na", "nb", "both", "n_true"))
    lp = na * nb / both
    chapman = (na + 1) * (nb + 1) / (both + 1) - 1
    return pd.DataFrame(
        {
            "n_view_users": [np.int64(na)],
            "n_click_users": [np.int64(nb)],
            "n_both": [np.int64(both)],
            "n_true_users": [np.int64(n_true)],
            "lp_estimate": [round(lp, 4)],
            "chapman_estimate": [round(chapman, 4)],
        }
    )


CAPTURE_RECAPTURE_USERS_SQL = """
WITH per AS (
  SELECT user_id,
         max(CASE WHEN event_type = 'view' THEN 1 ELSE 0 END) AS a,
         max(CASE WHEN event_type = 'click' THEN 1 ELSE 0 END) AS b
  FROM events GROUP BY user_id
),
c AS (
  SELECT sum(a) AS na, sum(b) AS nb,
         count(CASE WHEN a = 1 AND b = 1 THEN 1 END) AS nboth,
         count(*) AS nt
  FROM per
)
SELECT CAST(na AS BIGINT) AS n_view_users, CAST(nb AS BIGINT) AS n_click_users,
       CAST(nboth AS BIGINT) AS n_both, CAST(nt AS BIGINT) AS n_true_users,
       round(na * nb / CAST(nboth AS DOUBLE), 4) AS lp_estimate,
       round((na + 1) * (nb + 1) / CAST(nboth + 1 AS DOUBLE) - 1, 4) AS chapman_estimate
FROM c
"""


def post_error_intensity(sf_dir: str, window_s: int = 3600) -> pd.DataFrame:
    """Self-excitation check: is a user's event intensity in the hour
    AFTER an error elevated over their average rate? Counts events in
    (t_err, t_err + 1h] per error (vectorized searchsorted per user
    inside buckets), compares to the expected count under each user's
    own uniform rate over the global span — ratio >> 1 means errors
    cluster/cascade (retry storms). Partials: (n_errors, observed,
    expected) per bucket."""
    ds = _read(sf_dir, "events", columns=["user_id", "ts", "event_type"])
    lo = pd.Timestamp(ds.min("ts"))
    hi = pd.Timestamp(ds.max("ts"))
    span_s = (hi - lo).total_seconds()

    def _p(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts"])
        n_err, obs, exp = 0, 0, 0.0
        for _, gu in g.groupby("user_id", sort=False):
            t = gu["ts"].to_numpy("datetime64[us]").astype("int64")
            err = t[(gu["event_type"] == "error").to_numpy()]
            if len(err) == 0:
                continue
            hi_idx = np.searchsorted(t, err + window_s * 1_000_000, side="right")
            lo_idx = np.searchsorted(t, err, side="right")
            obs += int((hi_idx - lo_idx).sum())
            n_err += len(err)
            exp += len(err) * (len(t) - 1) * (window_s / span_s)
        return pd.DataFrame({"n_err": [np.int64(n_err)], "obs": [np.int64(obs)], "exp": [exp]})

    s = (
        ds.map_batches(_add_user_bucket, batch_format="pandas")
        .groupby("__bucket")
        .map_groups(_p, batch_format="pandas")
        .to_pandas()
        .sum()
    )
    return pd.DataFrame(
        {
            "n_errors": [np.int64(s["n_err"])],
            "observed": [np.int64(s["obs"])],
            "expected": [round(float(s["exp"]), 4)],
            "intensity_ratio": [round(float(s["obs"]) / float(s["exp"]), 6)],
        }
    )


POST_ERROR_INTENSITY_SQL = """
WITH span AS (
  SELECT epoch((SELECT max(ts) FROM events) - (SELECT min(ts) FROM events)) AS s
),
rates AS (SELECT user_id, count(*) AS n FROM events GROUP BY user_id),
err AS (SELECT user_id, ts FROM events WHERE event_type = 'error'),
obs AS (
  SELECT e.user_id, count(b.ts) AS c
  FROM err e LEFT JOIN events b
    ON b.user_id = e.user_id AND b.ts > e.ts
       AND b.ts <= e.ts + INTERVAL 3600 SECONDS
  GROUP BY e.user_id, e.ts
),
agg AS (
  SELECT (SELECT count(*) FROM err) AS n_err,
         (SELECT sum(c) FROM obs) AS o,
         (SELECT sum(en.c * (r.n - 1) * (3600.0 / (SELECT s FROM span)))
          FROM (SELECT user_id, count(*) AS c FROM err GROUP BY user_id) en
          JOIN rates r USING (user_id)) AS e
)
SELECT CAST(n_err AS BIGINT) AS n_errors, CAST(o AS BIGINT) AS observed,
       round(e, 4) AS expected, round(o / e, 6) AS intensity_ratio
FROM agg
"""


def first_before_first_support(sf_dir: str) -> pd.DataFrame:
    """Sequential-pattern precedence support: for every ordered pair
    of event types (a, b), the number of users whose FIRST a strictly
    precedes their FIRST b — the 'a leads to b' support count behind
    market-basket-style sequence mining (complements the consecutive
    transition counts of event_transitions with an any-gap ordering).

    Distributed: ONE bucketed (user, type) -> min(ts) aggregate (the
    per-user first-occurrence grid), then the pair evaluation runs
    vectorized inside each user-bucket group (per-bucket pivot +
    pairwise comparison) emitting (type_a, type_b, count) partials —
    only the tiny type x type matrix reaches the driver."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    num_buckets = 32
    ds = _read(sf_dir, "events", columns=["user_id", "event_type", "ts"])

    firsts = bucketed_aggregate(
        ds.map_batches(
            lambda df: df.rename(columns={"ts": "mn"}), batch_format="pandas"
        ),
        ["user_id", "event_type"],
        {"mn": ("mn", "min")},
        num_buckets=num_buckets,
    )

    def _rebucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["__ub"] = (df["user_id"].to_numpy() % num_buckets).astype("int64")
        return df

    def _pairs(g: pd.DataFrame) -> pd.DataFrame:
        p = g.pivot(index="user_id", columns="event_type", values="mn")
        types = sorted(p.columns)
        rows = []
        for a in types:
            for b in types:
                if a == b:
                    continue
                rows.append((a, b, int((p[a] < p[b]).sum())))
        return pd.DataFrame(rows, columns=["type_a", "type_b", "n_users"])

    out = (
        firsts.map_batches(_rebucket, batch_format="pandas")
        .groupby("__ub")
        .map_groups(_pairs, batch_format="pandas")
        .to_pandas()
        .groupby(["type_a", "type_b"], as_index=False)["n_users"]
        .sum()
        .sort_values(["type_a", "type_b"])
        .reset_index(drop=True)
    )
    out["n_users"] = out["n_users"].astype("int64")
    return out


FIRST_BEFORE_FIRST_SUPPORT_SQL = """
WITH f AS (
  SELECT user_id, event_type, min(ts) AS mn FROM events GROUP BY 1, 2
)
SELECT a.event_type AS type_a, b.event_type AS type_b,
       CAST(count(*) AS BIGINT) AS n_users
FROM f a JOIN f b
  ON a.user_id = b.user_id AND a.event_type <> b.event_type AND a.mn < b.mn
GROUP BY 1, 2
ORDER BY 1, 2
"""


def deming_views_purchases(sf_dir: str) -> pd.DataFrame:
    """Deming errors-in-variables regression (lambda = 1) of daily
    purchase counts on daily view counts: both sides of the funnel
    are noisy counts, so OLS attenuates the slope; Deming's
    slope = (cyy - cxx + sqrt((cyy - cxx)^2 + 4*cxy^2)) / (2*cxy)
    treats the error symmetrically — the measurement-error companion
    of the existing view->purchase OLS and Granger queries.

    ONE bucketed (day, type) count grid, zero-filled day series;
    exact integer moment sums; closed-form slope on the driver."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "events", columns=["ts", "event_type"])

    def _prep(df: pd.DataFrame) -> pd.DataFrame:
        sel = df["event_type"].isin(["view", "purchase"])
        d = df[sel]
        return pd.DataFrame(
            {
                "day": d["ts"].dt.normalize(),
                "t": d["event_type"].to_numpy(object),
                "one": np.ones(int(sel.sum()), dtype="int64"),
            }
        )

    grid = (
        bucketed_aggregate(
            ds.map_batches(_prep, batch_format="pandas"),
            ["day", "t"],
            {"c": ("one", "sum")},
            num_buckets=8,
        )
        .to_pandas()
        .pivot(index="day", columns="t", values="c")
    )
    full_days = pd.date_range(grid.index.min(), grid.index.max(), freq="D")
    grid = grid.reindex(full_days).fillna(0).astype("int64")
    x = grid.get("view", pd.Series(0, index=grid.index)).to_numpy("int64")
    y = grid.get("purchase", pd.Series(0, index=grid.index)).to_numpy("int64")
    n = len(x)
    sx, sy = int(x.sum()), int(y.sum())
    sxx = int((x * x).sum())
    syy = int((y * y).sum())
    sxy = int((x * y).sum())
    cxx = sxx - sx * 1.0 * sx / n
    cyy = syy - sy * 1.0 * sy / n
    cxy = sxy - sx * 1.0 * sy / n
    slope = (cyy - cxx + np.sqrt((cyy - cxx) ** 2 + 4.0 * cxy * cxy)) / (2.0 * cxy)
    intercept = sy * 1.0 / n - slope * sx / n
    return pd.DataFrame(
        {
            "n_days": pd.Series([n], dtype="int64"),
            "deming_slope": [round(float(slope), 6)],
            "deming_intercept": [round(float(intercept), 6)],
        }
    )


DEMING_VIEWS_PURCHASES_SQL = """
WITH b AS (SELECT min(CAST(ts AS DATE)) AS lo, max(CAST(ts AS DATE)) AS hi FROM events),
days AS (SELECT unnest(generate_series((SELECT lo FROM b), (SELECT hi FROM b), INTERVAL 1 DAY)) AS day),
c AS (
  SELECT CAST(ts AS DATE) AS day,
         count(*) FILTER (WHERE event_type = 'view') AS v,
         count(*) FILTER (WHERE event_type = 'purchase') AS p
  FROM events GROUP BY 1
),
g AS (
  SELECT coalesce(c.v, 0) AS x, coalesce(c.p, 0) AS y
  FROM days LEFT JOIN c ON c.day = CAST(days.day AS DATE)
),
m AS (
  SELECT count(*) AS n, sum(x) AS sx, sum(y) AS sy,
         sum(x * x) AS sxx, sum(y * y) AS syy, sum(x * y) AS sxy
  FROM g
),
cm AS (
  SELECT n, sx, sy,
         sxx - sx * 1.0 * sx / n AS cxx,
         syy - sy * 1.0 * sy / n AS cyy,
         sxy - sx * 1.0 * sy / n AS cxy
  FROM m
),
fit AS (
  SELECT n, sx, sy,
         (cyy - cxx + sqrt((cyy - cxx) * (cyy - cxx) + 4.0 * cxy * cxy)) / (2.0 * cxy) AS slope
  FROM cm
)
SELECT CAST(n AS BIGINT) AS n_days,
       round(slope, 6) AS deming_slope,
       round(sy * 1.0 / n - slope * sx / n, 6) AS deming_intercept
FROM fit
"""


def rma_views_purchases(sf_dir: str) -> pd.DataFrame:
    """Reduced-major-axis (geometric-mean) regression of daily
    purchase counts on daily view counts: slope = sign(cxy) *
    sqrt(cyy / cxx) — the scale-symmetric line whose slope is the
    geometric mean of the two OLS directions, completing the
    errors-in-variables pair with Deming's lambda = 1 line.

    Same ONE bucketed (day, type) grid, zero-filled series, exact
    integer moments."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "events", columns=["ts", "event_type"])

    def _prep(df: pd.DataFrame) -> pd.DataFrame:
        sel = df["event_type"].isin(["view", "purchase"])
        d = df[sel]
        return pd.DataFrame(
            {
                "day": d["ts"].dt.normalize(),
                "t": d["event_type"].to_numpy(object),
                "one": np.ones(int(sel.sum()), dtype="int64"),
            }
        )

    grid = (
        bucketed_aggregate(
            ds.map_batches(_prep, batch_format="pandas"),
            ["day", "t"],
            {"c": ("one", "sum")},
            num_buckets=8,
        )
        .to_pandas()
        .pivot(index="day", columns="t", values="c")
    )
    full_days = pd.date_range(grid.index.min(), grid.index.max(), freq="D")
    grid = grid.reindex(full_days).fillna(0).astype("int64")
    x = grid.get("view", pd.Series(0, index=grid.index)).to_numpy("int64")
    y = grid.get("purchase", pd.Series(0, index=grid.index)).to_numpy("int64")
    n = len(x)
    sx, sy = int(x.sum()), int(y.sum())
    sxx = int((x * x).sum())
    syy = int((y * y).sum())
    sxy = int((x * y).sum())
    cxx = sxx - sx * 1.0 * sx / n
    cyy = syy - sy * 1.0 * sy / n
    cxy = sxy - sx * 1.0 * sy / n
    slope = float(np.sign(cxy) * np.sqrt(cyy / cxx))
    intercept = sy * 1.0 / n - slope * sx / n
    return pd.DataFrame(
        {
            "n_days": pd.Series([n], dtype="int64"),
            "rma_slope": [round(slope, 6)],
            "rma_intercept": [round(float(intercept), 6)],
        }
    )


RMA_VIEWS_PURCHASES_SQL = """
WITH b AS (SELECT min(CAST(ts AS DATE)) AS lo, max(CAST(ts AS DATE)) AS hi FROM events),
days AS (SELECT unnest(generate_series((SELECT lo FROM b), (SELECT hi FROM b), INTERVAL 1 DAY)) AS day),
c AS (
  SELECT CAST(ts AS DATE) AS day,
         count(*) FILTER (WHERE event_type = 'view') AS v,
         count(*) FILTER (WHERE event_type = 'purchase') AS p
  FROM events GROUP BY 1
),
g AS (
  SELECT coalesce(c.v, 0) AS x, coalesce(c.p, 0) AS y
  FROM days LEFT JOIN c ON c.day = CAST(days.day AS DATE)
),
m AS (
  SELECT count(*) AS n, sum(x) AS sx, sum(y) AS sy,
         sum(x * x) AS sxx, sum(y * y) AS syy, sum(x * y) AS sxy
  FROM g
),
cm AS (
  SELECT n, sx, sy,
         sxx - sx * 1.0 * sx / n AS cxx,
         syy - sy * 1.0 * sy / n AS cyy,
         sxy - sx * 1.0 * sy / n AS cxy
  FROM m
),
fit AS (
  SELECT n, sx, sy,
         (CASE WHEN cxy < 0 THEN -1.0 ELSE 1.0 END) * sqrt(cyy / cxx) AS slope
  FROM cm
)
SELECT CAST(n AS BIGINT) AS n_days,
       round(slope, 6) AS rma_slope,
       round(sy * 1.0 / n - slope * sx / n, 6) AS rma_intercept
FROM fit
"""

def js_divergence_hourly_profiles(sf_dir: str) -> pd.DataFrame:
    """Jensen-Shannon divergence between the hour-of-day profiles of
    VIEW and PURCHASE events: JSD = H(m) - (H(p) + H(q))/2 with
    m = (p + q)/2 over the 24 hour bins — the symmetric, bounded
    [0, ln 2] answer to "do purchases follow the same daily rhythm as
    views", where the chi-square independence test only yields a
    p-value.

    ONE bucketed (hour, type) count grid (48 cells); the entropy
    arithmetic runs on exact integer counts."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "events", columns=["ts", "event_type"])

    def _prep(df: pd.DataFrame) -> pd.DataFrame:
        sel = df["event_type"].isin(["view", "purchase"])
        d = df[sel]
        return pd.DataFrame(
            {
                "h": d["ts"].dt.hour.astype("int64"),
                "t": d["event_type"].to_numpy(object),
                "one": np.ones(int(sel.sum()), dtype="int64"),
            }
        )

    grid = (
        bucketed_aggregate(
            ds.map_batches(_prep, batch_format="pandas"),
            ["h", "t"],
            {"c": ("one", "sum")},
            num_buckets=8,
        )
        .to_pandas()
        .pivot_table(index="h", columns="t", values="c", fill_value=0)
        .reindex(range(24), fill_value=0)
    )
    v = grid.get("view", pd.Series(0, index=grid.index)).to_numpy("int64").astype("float64")
    u = grid.get("purchase", pd.Series(0, index=grid.index)).to_numpy("int64").astype("float64")
    p = v / v.sum()
    q = u / u.sum()
    m = (p + q) / 2.0

    def _h(d: np.ndarray) -> float:
        nz = d[d > 0]
        return float(-(nz * np.log(nz)).sum())

    jsd = _h(m) - (_h(p) + _h(q)) / 2.0
    return pd.DataFrame(
        {
            "n_views": pd.Series([int(v.sum())], dtype="int64"),
            "n_purchases": pd.Series([int(u.sum())], dtype="int64"),
            "jsd_nats": [round(jsd, 6)],
        }
    )


JS_DIVERGENCE_HOURLY_PROFILES_SQL = """
WITH g AS (
  SELECT CAST(date_part('hour', ts) AS BIGINT) AS h,
         count(*) FILTER (WHERE event_type = 'view') AS v,
         count(*) FILTER (WHERE event_type = 'purchase') AS u
  FROM events WHERE event_type IN ('view', 'purchase') GROUP BY 1
),
tot AS (SELECT sum(v) AS nv, sum(u) AS nu FROM g),
d AS (
  SELECT v * 1.0 / (SELECT nv FROM tot) AS p,
         u * 1.0 / (SELECT nu FROM tot) AS q
  FROM g
),
e AS (
  SELECT
    -sum(CASE WHEN (p + q) > 0 THEN ((p + q) / 2.0) * ln((p + q) / 2.0) ELSE 0 END) AS hm,
    -sum(CASE WHEN p > 0 THEN p * ln(p) ELSE 0 END) AS hp,
    -sum(CASE WHEN q > 0 THEN q * ln(q) ELSE 0 END) AS hq
  FROM d
)
SELECT (SELECT CAST(nv AS BIGINT) FROM tot) AS n_views,
       (SELECT CAST(nu AS BIGINT) FROM tot) AS n_purchases,
       round(hm - (hp + hq) / 2.0, 6) AS jsd_nats
FROM e
"""


def hellinger_hourly_profiles(sf_dir: str) -> pd.DataFrame:
    """Hellinger distance between the hour-of-day profiles of VIEW
    and PURCHASE events: H = sqrt(1 - SUM sqrt(p*q)) over the 24 hour
    bins — the metric (triangle-inequality-respecting) companion of
    the JS divergence on the same grid, bounded [0, 1].

    Same ONE bucketed (hour, type) count grid."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "events", columns=["ts", "event_type"])

    def _prep(df: pd.DataFrame) -> pd.DataFrame:
        sel = df["event_type"].isin(["view", "purchase"])
        d = df[sel]
        return pd.DataFrame(
            {
                "h": d["ts"].dt.hour.astype("int64"),
                "t": d["event_type"].to_numpy(object),
                "one": np.ones(int(sel.sum()), dtype="int64"),
            }
        )

    grid = (
        bucketed_aggregate(
            ds.map_batches(_prep, batch_format="pandas"),
            ["h", "t"],
            {"c": ("one", "sum")},
            num_buckets=8,
        )
        .to_pandas()
        .pivot_table(index="h", columns="t", values="c", fill_value=0)
        .reindex(range(24), fill_value=0)
    )
    v = grid.get("view", pd.Series(0, index=grid.index)).to_numpy("int64").astype("float64")
    u = grid.get("purchase", pd.Series(0, index=grid.index)).to_numpy("int64").astype("float64")
    p = v / v.sum()
    q = u / u.sum()
    bc = float(np.sqrt(p * q).sum())
    h = float(np.sqrt(max(0.0, 1.0 - bc)))
    return pd.DataFrame(
        {
            "n_views": pd.Series([int(v.sum())], dtype="int64"),
            "n_purchases": pd.Series([int(u.sum())], dtype="int64"),
            "bhattacharyya": [round(bc, 6)],
            "hellinger": [round(h, 6)],
        }
    )


HELLINGER_HOURLY_PROFILES_SQL = """
WITH g AS (
  SELECT CAST(date_part('hour', ts) AS BIGINT) AS h,
         count(*) FILTER (WHERE event_type = 'view') AS v,
         count(*) FILTER (WHERE event_type = 'purchase') AS u
  FROM events WHERE event_type IN ('view', 'purchase') GROUP BY 1
),
tot AS (SELECT sum(v) AS nv, sum(u) AS nu FROM g),
s AS (
  SELECT sum(sqrt((v * 1.0 / (SELECT nv FROM tot)) * (u * 1.0 / (SELECT nu FROM tot)))) AS bc
  FROM g
)
SELECT (SELECT CAST(nv AS BIGINT) FROM tot) AS n_views,
       (SELECT CAST(nu AS BIGINT) FROM tot) AS n_purchases,
       round(bc, 6) AS bhattacharyya,
       round(sqrt(greatest(0.0, 1.0 - bc)), 6) AS hellinger
FROM s
"""

def lin_ccc_views_purchases(sf_dir: str) -> pd.DataFrame:
    """Lin's concordance correlation coefficient between the daily
    VIEW and PURCHASE count series: CCC = 2*cxy / (cxx + cyy +
    (xbar - ybar)^2) — penalizes location and scale shifts that
    Pearson's r forgives, i.e. "do the two funnel stages move
    together AND on the same line of identity".

    Same zero-filled (day, type) grid as the errors-in-variables
    pair; population moments from exact integer sums."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "events", columns=["ts", "event_type"])

    def _prep(df: pd.DataFrame) -> pd.DataFrame:
        sel = df["event_type"].isin(["view", "purchase"])
        d = df[sel]
        return pd.DataFrame(
            {
                "day": d["ts"].dt.normalize(),
                "t": d["event_type"].to_numpy(object),
                "one": np.ones(int(sel.sum()), dtype="int64"),
            }
        )

    grid = (
        bucketed_aggregate(
            ds.map_batches(_prep, batch_format="pandas"),
            ["day", "t"],
            {"c": ("one", "sum")},
            num_buckets=8,
        )
        .to_pandas()
        .pivot(index="day", columns="t", values="c")
    )
    full_days = pd.date_range(grid.index.min(), grid.index.max(), freq="D")
    grid = grid.reindex(full_days).fillna(0).astype("int64")
    x = grid.get("view", pd.Series(0, index=grid.index)).to_numpy("int64")
    y = grid.get("purchase", pd.Series(0, index=grid.index)).to_numpy("int64")
    n = len(x)
    sx, sy = int(x.sum()), int(y.sum())
    sxx, syy, sxy = int((x * x).sum()), int((y * y).sum()), int((x * y).sum())
    cxx = sxx * 1.0 / n - (sx * 1.0 / n) ** 2
    cyy = syy * 1.0 / n - (sy * 1.0 / n) ** 2
    cxy = sxy * 1.0 / n - (sx * 1.0 / n) * (sy * 1.0 / n)
    ccc = 2.0 * cxy / (cxx + cyy + (sx * 1.0 / n - sy * 1.0 / n) ** 2)
    r = cxy / np.sqrt(cxx * cyy)
    return pd.DataFrame(
        {
            "n_days": pd.Series([n], dtype="int64"),
            "pearson_r": [round(float(r), 6)],
            "lin_ccc": [round(float(ccc), 6)],
        }
    )


LIN_CCC_VIEWS_PURCHASES_SQL = """
WITH b AS (SELECT min(CAST(ts AS DATE)) AS lo, max(CAST(ts AS DATE)) AS hi FROM events),
days AS (SELECT unnest(generate_series((SELECT lo FROM b), (SELECT hi FROM b), INTERVAL 1 DAY)) AS day),
c AS (
  SELECT CAST(ts AS DATE) AS day,
         count(*) FILTER (WHERE event_type = 'view') AS v,
         count(*) FILTER (WHERE event_type = 'purchase') AS p
  FROM events GROUP BY 1
),
g AS (
  SELECT coalesce(c.v, 0) AS x, coalesce(c.p, 0) AS y
  FROM days LEFT JOIN c ON c.day = CAST(days.day AS DATE)
),
m AS (
  SELECT count(*) AS n, sum(x) AS sx, sum(y) AS sy,
         sum(x * x) AS sxx, sum(y * y) AS syy, sum(x * y) AS sxy
  FROM g
),
cm AS (
  SELECT n,
         sxx * 1.0 / n - (sx * 1.0 / n) * (sx * 1.0 / n) AS cxx,
         syy * 1.0 / n - (sy * 1.0 / n) * (sy * 1.0 / n) AS cyy,
         sxy * 1.0 / n - (sx * 1.0 / n) * (sy * 1.0 / n) AS cxy,
         sx * 1.0 / n - sy * 1.0 / n AS mdiff
  FROM m
)
SELECT CAST(n AS BIGINT) AS n_days,
       round(cxy / sqrt(cxx * cyy), 6) AS pearson_r,
       round(2.0 * cxy / (cxx + cyy + mdiff * mdiff), 6) AS lin_ccc
FROM cm
"""


def bland_altman_views_purchases(sf_dir: str) -> pd.DataFrame:
    """Bland-Altman agreement summary between the daily VIEW and
    PURCHASE counts: mean difference (bias) and the 95% limits of
    agreement bias ± 1.96*sd(diff) (sample sd) — the method-
    comparison companion of Lin's CCC that reports the DISAGREEMENT
    in the series' own units.

    Same zero-filled (day, type) grid; diff moments are exact
    integers."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "events", columns=["ts", "event_type"])

    def _prep(df: pd.DataFrame) -> pd.DataFrame:
        sel = df["event_type"].isin(["view", "purchase"])
        d = df[sel]
        return pd.DataFrame(
            {
                "day": d["ts"].dt.normalize(),
                "t": d["event_type"].to_numpy(object),
                "one": np.ones(int(sel.sum()), dtype="int64"),
            }
        )

    grid = (
        bucketed_aggregate(
            ds.map_batches(_prep, batch_format="pandas"),
            ["day", "t"],
            {"c": ("one", "sum")},
            num_buckets=8,
        )
        .to_pandas()
        .pivot(index="day", columns="t", values="c")
    )
    full_days = pd.date_range(grid.index.min(), grid.index.max(), freq="D")
    grid = grid.reindex(full_days).fillna(0).astype("int64")
    x = grid.get("view", pd.Series(0, index=grid.index)).to_numpy("int64")
    y = grid.get("purchase", pd.Series(0, index=grid.index)).to_numpy("int64")
    d = x - y
    n = len(d)
    sd1 = int(d.sum())
    sd2 = int((d * d).sum())
    bias = sd1 * 1.0 / n
    sdd = np.sqrt((sd2 - sd1 * 1.0 * sd1 / n) / (n - 1))
    return pd.DataFrame(
        {
            "n_days": pd.Series([n], dtype="int64"),
            "bias": [round(bias, 6)],
            "loa_lo": [round(float(bias - 1.96 * sdd), 6)],
            "loa_hi": [round(float(bias + 1.96 * sdd), 6)],
        }
    )


BLAND_ALTMAN_VIEWS_PURCHASES_SQL = """
WITH b AS (SELECT min(CAST(ts AS DATE)) AS lo, max(CAST(ts AS DATE)) AS hi FROM events),
days AS (SELECT unnest(generate_series((SELECT lo FROM b), (SELECT hi FROM b), INTERVAL 1 DAY)) AS day),
c AS (
  SELECT CAST(ts AS DATE) AS day,
         count(*) FILTER (WHERE event_type = 'view') AS v,
         count(*) FILTER (WHERE event_type = 'purchase') AS p
  FROM events GROUP BY 1
),
g AS (
  SELECT coalesce(c.v, 0) - coalesce(c.p, 0) AS d
  FROM days LEFT JOIN c ON c.day = CAST(days.day AS DATE)
),
m AS (SELECT count(*) AS n, sum(d) AS s1, sum(d * d) AS s2 FROM g),
f AS (
  SELECT n, s1 * 1.0 / n AS bias,
         sqrt((s2 - s1 * 1.0 * s1 / n) / (n - 1)) AS sdd
  FROM m
)
SELECT CAST(n AS BIGINT) AS n_days, round(bias, 6) AS bias,
       round(bias - 1.96 * sdd, 6) AS loa_lo,
       round(bias + 1.96 * sdd, 6) AS loa_hi
FROM f
"""

def hourly_profile_stability(sf_dir: str) -> pd.DataFrame:
    """Stability of the daily activity rhythm: the mean cosine
    similarity between each day's 24-bin hourly event-count profile
    and the profile 1 day later, and 7 days later — near-1 at lag 7
    with a dip at lag 1 is the weekly-rhythm signature the
    autocorrelation of raw counts can't localize to the SHAPE of the
    day.

    ONE bucketed (day, hour) count grid; the (days x 24) profile
    matrix is result-sized and the lag cosines are vectorized on the
    driver."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "events", columns=["ts"])

    def _prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "day": df["ts"].dt.normalize(),
                "h": df["ts"].dt.hour.astype("int64"),
                "one": np.int64(1),
            }
        )

    grid = (
        bucketed_aggregate(
            ds.map_batches(_prep, batch_format="pandas"),
            ["day", "h"],
            {"c": ("one", "sum")},
            num_buckets=8,
        )
        .to_pandas()
        .pivot_table(index="day", columns="h", values="c", fill_value=0)
        .reindex(columns=range(24), fill_value=0)
        .sort_index()
    )
    full_days = pd.date_range(grid.index.min(), grid.index.max(), freq="D")
    m = grid.reindex(full_days).fillna(0).to_numpy("int64").astype("float64")
    norms = np.sqrt((m * m).sum(axis=1))
    rows = []
    for lag in (1, 7):
        a, b = m[:-lag], m[lag:]
        na, nb = norms[:-lag], norms[lag:]
        ok = (na > 0) & (nb > 0)
        cos = ((a * b).sum(axis=1)[ok]) / (na[ok] * nb[ok])
        rows.append((lag, int(ok.sum()), round(float(cos.sum() / ok.sum()), 6)))
    return pd.DataFrame(
        {
            "day_lag": pd.Series([r[0] for r in rows], dtype="int64"),
            "n_pairs": pd.Series([r[1] for r in rows], dtype="int64"),
            "mean_cosine": [r[2] for r in rows],
        }
    )


HOURLY_PROFILE_STABILITY_SQL = """
WITH b AS (SELECT min(CAST(ts AS DATE)) AS lo, max(CAST(ts AS DATE)) AS hi FROM events),
days AS (SELECT unnest(generate_series((SELECT lo FROM b), (SELECT hi FROM b), INTERVAL 1 DAY)) AS day),
hrs AS (SELECT unnest(range(0, 24)) AS h),
c AS (
  SELECT CAST(ts AS DATE) AS day, CAST(date_part('hour', ts) AS BIGINT) AS h, count(*) AS n
  FROM events GROUP BY 1, 2
),
g AS (
  SELECT CAST(days.day AS DATE) AS day, hrs.h, coalesce(c.n, 0) AS n
  FROM days CROSS JOIN hrs
  LEFT JOIN c ON c.day = CAST(days.day AS DATE) AND c.h = hrs.h
),
lags AS (SELECT unnest([1, 7]) AS lag),
pair AS (
  SELECT lags.lag, a.day AS d,
         sum(a.n * 1.0 * bb.n) AS dot,
         sqrt(sum(a.n * 1.0 * a.n)) AS na,
         sqrt(sum(bb.n * 1.0 * bb.n)) AS nb
  FROM g a
  JOIN lags ON true
  JOIN g bb ON bb.day = a.day + CAST(lags.lag || ' day' AS INTERVAL) AND bb.h = a.h
  GROUP BY 1, 2
)
SELECT CAST(lag AS BIGINT) AS day_lag,
       CAST(count(*) FILTER (WHERE na > 0 AND nb > 0) AS BIGINT) AS n_pairs,
       round(sum(CASE WHEN na > 0 AND nb > 0 THEN dot / (na * nb) ELSE 0 END)
             / count(*) FILTER (WHERE na > 0 AND nb > 0), 6) AS mean_cosine
FROM pair GROUP BY lag ORDER BY lag
"""


def weekday_weekend_hourly_js(sf_dir: str) -> pd.DataFrame:
    """Jensen-Shannon divergence between the WEEKDAY and WEEKEND
    hour-of-day event profiles — "does the clock of activity change
    on weekends", the calendar companion of the view-vs-purchase
    profile divergence.

    ONE bucketed (hour, is_weekend) count grid (48 cells); entropy
    arithmetic on exact integers."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "events", columns=["ts"])

    def _prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "h": df["ts"].dt.hour.astype("int64"),
                "w": (df["ts"].dt.dayofweek >= 5).astype("int64"),
                "one": np.int64(1),
            }
        )

    grid = (
        bucketed_aggregate(
            ds.map_batches(_prep, batch_format="pandas"),
            ["h", "w"],
            {"c": ("one", "sum")},
            num_buckets=8,
        )
        .to_pandas()
        .pivot_table(index="h", columns="w", values="c", fill_value=0)
        .reindex(index=range(24), columns=[0, 1], fill_value=0)
    )
    wd = grid[0].to_numpy("int64").astype("float64")
    we = grid[1].to_numpy("int64").astype("float64")
    p = wd / wd.sum()
    q = we / we.sum()
    m = (p + q) / 2.0

    def _h(d: np.ndarray) -> float:
        nz = d[d > 0]
        return float(-(nz * np.log(nz)).sum())

    jsd = _h(m) - (_h(p) + _h(q)) / 2.0
    return pd.DataFrame(
        {
            "n_weekday": pd.Series([int(wd.sum())], dtype="int64"),
            "n_weekend": pd.Series([int(we.sum())], dtype="int64"),
            "jsd_nats": [round(jsd, 6)],
        }
    )


WEEKDAY_WEEKEND_HOURLY_JS_SQL = """
WITH g AS (
  SELECT CAST(date_part('hour', ts) AS BIGINT) AS h,
         count(*) FILTER (WHERE dayofweek(ts) IN (0, 6)) AS we,
         count(*) FILTER (WHERE dayofweek(ts) NOT IN (0, 6)) AS wd
  FROM events GROUP BY 1
),
tot AS (SELECT sum(wd) AS nwd, sum(we) AS nwe FROM g),
d AS (
  SELECT wd * 1.0 / (SELECT nwd FROM tot) AS p,
         we * 1.0 / (SELECT nwe FROM tot) AS q
  FROM g
),
e AS (
  SELECT
    -sum(CASE WHEN (p + q) > 0 THEN ((p + q) / 2.0) * ln((p + q) / 2.0) ELSE 0 END) AS hm,
    -sum(CASE WHEN p > 0 THEN p * ln(p) ELSE 0 END) AS hp,
    -sum(CASE WHEN q > 0 THEN q * ln(q) ELSE 0 END) AS hq
  FROM d
)
SELECT (SELECT CAST(nwd AS BIGINT) FROM tot) AS n_weekday,
       (SELECT CAST(nwe AS BIGINT) FROM tot) AS n_weekend,
       round(hm - (hp + hq) / 2.0, 6) AS jsd_nats
FROM e
"""

def allan_variance_event_rate(sf_dir: str) -> pd.DataFrame:
    """Allan variance of the hourly event rate at window sizes
    m in {1, 2, 4, 8, 16} hours: AVAR(m) = mean of
    (ybar_{k+1} - ybar_k)^2 / 2 over adjacent NON-overlapping
    m-hour window means — the clock-stability view of rate noise
    (white noise falls as 1/m; drifting rates flatten out), the
    engineering cousin of the variance-time curve.

    ONE bucketed per-hour count grid (zero hours implicit via the
    full hour index); the windowing is vectorized on the ~n_hours
    series."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "events", columns=["ts"])

    def _prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"hr": df["ts"].dt.floor("h"), "one": np.int64(1)})

    grid = (
        bucketed_aggregate(
            ds.map_batches(_prep, batch_format="pandas"),
            ["hr"],
            {"c": ("one", "sum")},
            num_buckets=8,
        )
        .to_pandas()
        .set_index("hr")["c"]
    )
    full = pd.date_range(grid.index.min(), grid.index.max(), freq="h")
    y = grid.reindex(full).fillna(0).to_numpy("int64")
    rows = []
    for m in (1, 2, 4, 8, 16):
        k = len(y) // m
        s = y[: k * m].reshape(k, m).sum(axis=1).astype("float64") / m
        d = np.diff(s)
        av = float((d * d).sum()) / (2.0 * (k - 1))
        rows.append((m, k, round(av, 6)))
    return pd.DataFrame(
        {
            "window_hours": pd.Series([r[0] for r in rows], dtype="int64"),
            "n_windows": pd.Series([r[1] for r in rows], dtype="int64"),
            "allan_var": [r[2] for r in rows],
        }
    )


ALLAN_VARIANCE_EVENT_RATE_SQL = """
WITH b AS (SELECT min(date_trunc('hour', ts)) AS lo, max(date_trunc('hour', ts)) AS hi FROM events),
hrs AS (
  SELECT unnest(generate_series((SELECT lo FROM b), (SELECT hi FROM b), INTERVAL 1 HOUR)) AS hr
),
c AS (SELECT date_trunc('hour', ts) AS hr, count(*) AS n FROM events GROUP BY 1),
g AS (
  SELECT row_number() OVER (ORDER BY hrs.hr) - 1 AS i, coalesce(c.n, 0) AS n
  FROM hrs LEFT JOIN c ON c.hr = hrs.hr
),
ms AS (SELECT unnest([1, 2, 4, 8, 16]) AS m),
w AS (
  SELECT ms.m AS m, g.i // ms.m AS k, sum(g.n) * 1.0 / ms.m AS ybar, count(*) AS cnt
  FROM g, ms GROUP BY 1, 2
),
f AS (SELECT m, k, ybar FROM w WHERE cnt = m),
d AS (
  SELECT m, ybar - lag(ybar) OVER (PARTITION BY m ORDER BY k) AS dd
  FROM f
)
SELECT CAST(m AS BIGINT) AS window_hours,
       CAST(count(*) + 1 AS BIGINT) AS n_windows,
       round(sum(dd * dd) / (2.0 * count(*)), 6) AS allan_var
FROM d WHERE dd IS NOT NULL GROUP BY m ORDER BY m
"""


def variance_time_curve_events(sf_dir: str) -> pd.DataFrame:
    """Variance-time curve of hourly event counts: the index of
    dispersion (variance / mean of NON-overlapping m-hour block
    SUMS) at m in {1, 2, 4, 8, 16} — flat near 1 for Poisson
    traffic, growing with m under long-range dependence (the
    Leland-style self-similarity check that complements the Hurst
    and Taylor's-law estimates).

    Same ONE per-hour grid; block sums stay exact integers."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "events", columns=["ts"])

    def _prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"hr": df["ts"].dt.floor("h"), "one": np.int64(1)})

    grid = (
        bucketed_aggregate(
            ds.map_batches(_prep, batch_format="pandas"),
            ["hr"],
            {"c": ("one", "sum")},
            num_buckets=8,
        )
        .to_pandas()
        .set_index("hr")["c"]
    )
    full = pd.date_range(grid.index.min(), grid.index.max(), freq="h")
    y = grid.reindex(full).fillna(0).to_numpy("int64")
    rows = []
    for m in (1, 2, 4, 8, 16):
        k = len(y) // m
        s = y[: k * m].reshape(k, m).sum(axis=1)
        s1 = int(s.sum())
        s2 = float((s.astype("float64") * s.astype("float64")).sum())
        mu = s1 * 1.0 / k
        var = s2 / k - mu * mu
        rows.append((m, k, round(var / mu, 6)))
    return pd.DataFrame(
        {
            "window_hours": pd.Series([r[0] for r in rows], dtype="int64"),
            "n_windows": pd.Series([r[1] for r in rows], dtype="int64"),
            "dispersion_index": [r[2] for r in rows],
        }
    )


VARIANCE_TIME_CURVE_EVENTS_SQL = """
WITH b AS (SELECT min(date_trunc('hour', ts)) AS lo, max(date_trunc('hour', ts)) AS hi FROM events),
hrs AS (
  SELECT unnest(generate_series((SELECT lo FROM b), (SELECT hi FROM b), INTERVAL 1 HOUR)) AS hr
),
c AS (SELECT date_trunc('hour', ts) AS hr, count(*) AS n FROM events GROUP BY 1),
g AS (
  SELECT row_number() OVER (ORDER BY hrs.hr) - 1 AS i, coalesce(c.n, 0) AS n
  FROM hrs LEFT JOIN c ON c.hr = hrs.hr
),
ms AS (SELECT unnest([1, 2, 4, 8, 16]) AS m),
w AS (
  SELECT ms.m AS m, g.i // ms.m AS k, sum(g.n) AS s, count(*) AS cnt
  FROM g, ms GROUP BY 1, 2
),
f AS (SELECT m, s FROM w WHERE cnt = m),
agg AS (
  SELECT m, count(*) AS k, sum(s) AS s1, sum(s * 1.0 * s) AS s2
  FROM f GROUP BY m
)
SELECT CAST(m AS BIGINT) AS window_hours, CAST(k AS BIGINT) AS n_windows,
       round((s2 / k - (s1 * 1.0 / k) * (s1 * 1.0 / k)) / (s1 * 1.0 / k), 6) AS dispersion_index
FROM agg ORDER BY m
"""

def rate_ratio_weekend_events(sf_dir: str) -> pd.DataFrame:
    """Poisson rate-ratio test of weekend vs weekday event intensity:
    RR = (c_we / t_we) / (c_wd / t_wd) with exact event counts and
    whole-day exposures, and the Wald z on ln RR with
    se = sqrt(1/c_we + 1/c_wd) — 'is the platform busier per weekend
    day', the two-sample rate inference the hourly profiles only
    display.

    ONE bucketed (day, count) aggregate; exposures come from the
    calendar span split by day-of-week — all exact integers."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "events", columns=["ts"])

    def _prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "w": (df["ts"].dt.dayofweek >= 5).astype("int64"),
                "one": np.int64(1),
            }
        ).groupby("w", as_index=False).sum()

    cnt = (
        ds.map_batches(_prep, batch_format="pandas")
        .to_pandas()
        .groupby("w")["one"]
        .sum()
    )
    lo = pd.Timestamp(ds.min("ts")).normalize()
    hi = pd.Timestamp(ds.max("ts")).normalize()
    days = pd.date_range(lo, hi, freq="D")
    t_we = int((days.dayofweek >= 5).sum())
    t_wd = len(days) - t_we
    c_we = int(cnt.get(1, 0))
    c_wd = int(cnt.get(0, 0))
    rr = (c_we * 1.0 / t_we) / (c_wd * 1.0 / t_wd)
    z = np.log(rr) / np.sqrt(1.0 / c_we + 1.0 / c_wd)
    return pd.DataFrame(
        {
            "n_weekend": pd.Series([c_we], dtype="int64"),
            "n_weekday": pd.Series([c_wd], dtype="int64"),
            "rate_ratio": [round(float(rr), 6)],
            "z": [round(float(z), 6)],
        }
    )


RATE_RATIO_WEEKEND_EVENTS_SQL = """
WITH c AS (
  SELECT count(*) FILTER (WHERE dayofweek(ts) IN (0, 6)) AS c_we,
         count(*) FILTER (WHERE dayofweek(ts) NOT IN (0, 6)) AS c_wd,
         min(CAST(ts AS DATE)) AS lo, max(CAST(ts AS DATE)) AS hi
  FROM events
),
d AS (
  SELECT count(*) FILTER (WHERE dayofweek(day) IN (0, 6)) AS t_we,
         count(*) FILTER (WHERE dayofweek(day) NOT IN (0, 6)) AS t_wd
  FROM (SELECT unnest(generate_series((SELECT lo FROM c), (SELECT hi FROM c),
                                      INTERVAL 1 DAY)) AS day)
),
r AS (
  SELECT c_we, c_wd,
         (c_we * 1.0 / (SELECT t_we FROM d)) / (c_wd * 1.0 / (SELECT t_wd FROM d)) AS rr
  FROM c
)
SELECT CAST(c_we AS BIGINT) AS n_weekend, CAST(c_wd AS BIGINT) AS n_weekday,
       round(rr, 6) AS rate_ratio,
       round(ln(rr) / sqrt(1.0 / c_we + 1.0 / c_wd), 6) AS z
FROM r
"""


def _lgamma_vec(x: np.ndarray) -> np.ndarray:
    from math import lgamma

    return np.array([lgamma(float(v)) for v in x])


def binomial_exact_weekend_purchases(sf_dir: str) -> pd.DataFrame:
    """Exact binomial upper-tail test of the weekend PURCHASE share
    against the calendar null p0 = weekend days / total days:
    P(X >= x | n, p0) summed term-by-term with lgamma-exact binomial
    coefficients — the small-count-exact companion of the Poisson
    rate-ratio z (identical term enumeration on both engines, so the
    oracle matches to 6 decimals).

    One scalar-count pass; the tail sum is arithmetic on the
    driver."""
    ds = _read(sf_dir, "events", columns=["ts", "event_type"])

    def _prep(df: pd.DataFrame) -> pd.DataFrame:
        d = df[df["event_type"] == "purchase"]
        return pd.DataFrame(
            {
                "w": (d["ts"].dt.dayofweek >= 5).astype("int64"),
                "one": np.ones(len(d), dtype="int64"),
            }
        ).groupby("w", as_index=False).sum()

    cnt = (
        ds.map_batches(_prep, batch_format="pandas")
        .to_pandas()
        .groupby("w")["one"]
        .sum()
    )
    lo = pd.Timestamp(ds.min("ts")).normalize()
    hi = pd.Timestamp(ds.max("ts")).normalize()
    days = pd.date_range(lo, hi, freq="D")
    t_we = int((days.dayofweek >= 5).sum())
    p0 = t_we * 1.0 / len(days)
    x = int(cnt.get(1, 0))
    n = x + int(cnt.get(0, 0))
    k = np.arange(x, n + 1, dtype="float64")
    logc = _lgamma_vec(np.full(len(k), n + 1.0)) - _lgamma_vec(k + 1.0) - _lgamma_vec(n - k + 1.0)
    logp = logc + k * np.log(p0) + (n - k) * np.log(1.0 - p0)
    tail = float(np.exp(logp).sum())
    return pd.DataFrame(
        {
            "n_purchases": pd.Series([n], dtype="int64"),
            "x_weekend": pd.Series([x], dtype="int64"),
            "p0": [round(p0, 6)],
            "p_upper": [round(tail, 6)],
        }
    )


BINOMIAL_EXACT_WEEKEND_PURCHASES_SQL = """
WITH c AS (
  SELECT count(*) FILTER (WHERE dayofweek(ts) IN (0, 6)) AS x,
         count(*) AS n,
         min(CAST(ts AS DATE)) AS lo, max(CAST(ts AS DATE)) AS hi
  FROM events WHERE event_type = 'purchase'
),
d AS (
  SELECT count(*) FILTER (WHERE dayofweek(day) IN (0, 6)) * 1.0 / count(*) AS p0
  FROM (SELECT unnest(generate_series((SELECT lo FROM c), (SELECT hi FROM c),
                                      INTERVAL 1 DAY)) AS day)
),
ks AS (
  SELECT unnest(range((SELECT x FROM c), (SELECT n FROM c) + 1)) AS k
),
t AS (
  SELECT exp(lgamma((SELECT n FROM c) + 1.0) - lgamma(k + 1.0)
             - lgamma((SELECT n FROM c) - k + 1.0)
             + k * ln((SELECT p0 FROM d))
             + ((SELECT n FROM c) - k) * ln(1.0 - (SELECT p0 FROM d))) AS p
  FROM ks
)
SELECT (SELECT CAST(n AS BIGINT) FROM c) AS n_purchases,
       (SELECT CAST(x AS BIGINT) FROM c) AS x_weekend,
       round((SELECT p0 FROM d), 6) AS p0,
       round(sum(p), 6) AS p_upper
FROM t
"""

def event_id_time_inversions(sf_dir: str) -> pd.DataFrame:
    """Out-of-order ingestion audit: among each user's events, the
    number of pairs whose event_id order DISAGREES with their
    timestamp order (id_i < id_j but ts_i > ts_j, ties on either axis
    excluded), plus the rate against all orderable pairs — the
    Kendall-discordance view of 'did this stream arrive late /
    shuffled', per-user and exact.

    Per-user-bucket shuffle co-locates each user's events; the
    in-bucket pair counting is vectorized per user (O(k^2) on the
    per-user event counts; the merge-sort O(k log k) inversion count
    is the documented upgrade path for power users). Only two
    integers leave each bucket."""
    ds = _read(sf_dir, "events", columns=["user_id", "ts", "event_id"])

    def _count(g: pd.DataFrame) -> pd.DataFrame:
        inv = 0
        tot = 0
        for _, sub in g.groupby("user_id", sort=False):
            ids = sub.sort_values("event_id")["event_id"].to_numpy("int64")
            ts = sub.sort_values("event_id")["ts"].to_numpy("datetime64[us]").astype("int64")
            k = len(ids)
            if k < 2:
                continue
            lt = ts[:, None] > ts[None, :]
            iu = np.triu_indices(k, 1)
            inv += int(lt[iu].sum())
            tot += int((ts[:, None] != ts[None, :])[iu].sum())
        return pd.DataFrame({"inv": [np.int64(inv)], "tot": [np.int64(tot)]})

    s = (
        ds.map_batches(_add_user_bucket, batch_format="pandas")
        .groupby("__bucket")
        .map_groups(_count, batch_format="pandas")
        .to_pandas()
        .sum()
    )
    inv, tot = int(s["inv"]), int(s["tot"])
    return pd.DataFrame(
        {
            "n_pairs": pd.Series([tot], dtype="int64"),
            "n_inversions": pd.Series([inv], dtype="int64"),
            "inversion_rate": [round(inv * 1.0 / tot, 6)],
        }
    )


EVENT_ID_TIME_INVERSIONS_SQL = """
WITH p AS (
  SELECT sum(CASE WHEN a.ts > b.ts THEN 1 ELSE 0 END) AS inv,
         sum(CASE WHEN a.ts <> b.ts THEN 1 ELSE 0 END) AS tot
  FROM events a JOIN events b
    ON a.user_id = b.user_id AND a.event_id < b.event_id
)
SELECT CAST(tot AS BIGINT) AS n_pairs, CAST(inv AS BIGINT) AS n_inversions,
       round(inv * 1.0 / tot, 6) AS inversion_rate
FROM p
"""

_EULER_GAMMA = 0.5772156649015329


def gumbel_fit_daily_max_value(sf_dir: str) -> pd.DataFrame:
    """Gumbel (EV type-I) method-of-moments fit of the DAILY MAXIMUM
    event value — the block-maxima side of extreme-value theory
    (hill/pickands do the tail-index side): beta = s*sqrt(6)/pi,
    mu = mean - gamma_E*beta over the per-day maxima, plus the
    100-day return level mu - beta*ln(-ln(1 - 1/100)). The fact
    table reduces through ONE bucketed per-day max; moments run on
    the day series."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "events", columns=["ts", "value"])

    def _prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"day": df["ts"].dt.normalize(), "v": df["value"].to_numpy("float64")}
        )

    daily = (
        bucketed_aggregate(
            ds.map_batches(_prep, batch_format="pandas"),
            ["day"],
            {"v": ("v", "max")},
            num_buckets=16,
        )
        .to_pandas()
        .sort_values("day")
    )
    x = daily["v"].to_numpy("float64")
    n = float(len(x))
    mean = float(x.mean())
    s = float(np.sqrt(((x - mean) ** 2).sum() / (n - 1.0)))
    beta = s * np.sqrt(6.0) / np.pi
    mu = mean - _EULER_GAMMA * beta
    rl100 = mu - beta * np.log(-np.log(1.0 - 1.0 / 100.0))
    return pd.DataFrame(
        {
            "n_days": pd.Series([int(n)], dtype="int64"),
            "gumbel_mu": [round(mu, 6)],
            "gumbel_beta": [round(beta, 6)],
            "return_level_100d": [round(rl100, 6)],
        }
    )


GUMBEL_FIT_DAILY_MAX_VALUE_SQL = """
WITH d AS (
  SELECT CAST(ts AS DATE) AS day, max(value) AS v FROM events GROUP BY 1
),
m AS (
  SELECT count(*) AS n, avg(v) AS mean,
         sqrt(sum((v - (SELECT avg(v) FROM d)) * (v - (SELECT avg(v) FROM d)))
              / (count(*) - 1.0)) AS s
  FROM d
)
SELECT CAST(n AS BIGINT) AS n_days,
       round(mean - 0.5772156649015329 * s * sqrt(6.0) / pi(), 6) AS gumbel_mu,
       round(s * sqrt(6.0) / pi(), 6) AS gumbel_beta,
       round(mean - 0.5772156649015329 * s * sqrt(6.0) / pi()
             - s * sqrt(6.0) / pi() * ln(-ln(1.0 - 1.0 / 100.0)), 6) AS return_level_100d
FROM m
"""

def circular_linear_corr_time_value(sf_dir: str) -> pd.DataFrame:
    """Mardia circular-linear correlation between event time-of-day
    (angle theta = 2*pi*us/86400e6)
    and event value: R^2 = (r_cv^2 + r_sv^2 - 2*r_cv*r_sv*r_cs) /
    (1 - r_cs^2) from the three Pearson correlations of (cos theta,
    sin theta, value) — does the SIZE of an event depend on the
    clock, even when the linear hourly mean hides it by wrapping?
    ONE streaming pass of ten scalar cross-moment partials."""
    ds = _read(sf_dir, "events", columns=["ts", "value"])

    def _p(df: pd.DataFrame) -> pd.DataFrame:
        us = df["ts"].to_numpy("datetime64[us]").astype("int64") % 86_400_000_000
        th = 2.0 * np.pi * us / 86_400_000_000.0
        c, s = np.cos(th), np.sin(th)
        v = df["value"].to_numpy("float64")
        return pd.DataFrame(
            {
                "n": [float(len(v))],
                "sc": [c.sum()], "ss": [s.sum()], "sv": [v.sum()],
                "scv": [(c * v).sum()], "ssv": [(s * v).sum()],
                "scs": [(c * s).sum()],
                "sc2": [(c * c).sum()], "ss2": [(s * s).sum()], "sv2": [(v * v).sum()],
            }
        )

    t = ds.map_batches(_p, batch_format="pandas").to_pandas().sum()
    n = float(t["n"])

    def corr(sxy, sx, sy, sx2, sy2):
        return (sxy - sx * sy / n) / np.sqrt((sx2 - sx * sx / n) * (sy2 - sy * sy / n))

    r_cv = corr(t["scv"], t["sc"], t["sv"], t["sc2"], t["sv2"])
    r_sv = corr(t["ssv"], t["ss"], t["sv"], t["ss2"], t["sv2"])
    r_cs = corr(t["scs"], t["sc"], t["ss"], t["sc2"], t["ss2"])
    r2 = (r_cv ** 2 + r_sv ** 2 - 2.0 * r_cv * r_sv * r_cs) / (1.0 - r_cs ** 2)
    return pd.DataFrame(
        {
            "n": pd.Series([int(n)], dtype="int64"),
            "r_cos_value": [round(float(r_cv), 6)],
            "r_sin_value": [round(float(r_sv), 6)],
            "circ_linear_r": [round(float(np.sqrt(max(r2, 0.0))), 6)],
        }
    )


CIRCULAR_LINEAR_CORR_TIME_VALUE_SQL = """
WITH b AS (
  SELECT cos(2.0 * pi() * (epoch_us(ts) % 86400000000) / 86400000000.0) AS c,
         sin(2.0 * pi() * (epoch_us(ts) % 86400000000) / 86400000000.0) AS s,
         value AS v
  FROM events
),
r AS (
  SELECT corr(c, v) AS r_cv, corr(s, v) AS r_sv, corr(c, s) AS r_cs,
         count(*) AS n
  FROM b
)
SELECT CAST(n AS BIGINT) AS n,
       round(r_cv, 6) AS r_cos_value,
       round(r_sv, 6) AS r_sin_value,
       round(sqrt(greatest((r_cv * r_cv + r_sv * r_sv - 2.0 * r_cv * r_sv * r_cs)
                           / (1.0 - r_cs * r_cs), 0.0)), 6) AS circ_linear_r
FROM r
"""


def kuiper_dow_uniformity(sf_dir: str) -> pd.DataFrame:
    """Kuiper one-sample test of event day-of-week against the
    CALENDAR null (expected share of isodow k = number of such
    calendar days inside [first event day, last event day]) — the
    rotation-invariant GoF where a Monday-vs-Sunday cut cannot
    change the answer: V = D+ + D- over the 7-step observed-vs-
    expected CDF gap. Exact integer counts and exposures on both
    engines."""
    ds = _read(sf_dir, "events", columns=["ts"])

    def _p(df: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame(
            {
                "dow": (df["ts"].dt.dayofweek + 1).astype("int64"),
                "day": df["ts"].dt.normalize(),
            }
        )
        out = g.groupby("dow", as_index=False).agg(n=("dow", "size"))
        out["min_day"] = g["day"].min()
        out["max_day"] = g["day"].max()
        return out

    parts = ds.map_batches(_p, batch_format="pandas").to_pandas()
    counts = parts.groupby("dow")["n"].sum().reindex(range(1, 8), fill_value=0)
    lo, hi = parts["min_day"].min(), parts["max_day"].max()
    days = pd.date_range(lo, hi, freq="D")
    expo = pd.Series(days.dayofweek + 1).value_counts().reindex(range(1, 8), fill_value=0)
    n = float(counts.sum())
    e = float(expo.sum())
    fo = np.cumsum(counts.to_numpy("int64")) / n
    fe = np.cumsum(expo.to_numpy("int64")) / e
    d_plus = float((fo - fe).max())
    d_minus = float((fe - fo).max())
    return pd.DataFrame(
        {
            "n_events": pd.Series([int(n)], dtype="int64"),
            "n_days": pd.Series([int(e)], dtype="int64"),
            "d_plus": [round(d_plus, 6)],
            "d_minus": [round(d_minus, 6)],
            "kuiper_v": [round(d_plus + d_minus, 6)],
        }
    )


KUIPER_DOW_UNIFORMITY_SQL = """
WITH span AS (
  SELECT CAST(min(ts) AS DATE) AS lo, CAST(max(ts) AS DATE) AS hi FROM events
),
cal AS (
  SELECT isodow(d) AS dow, count(*) AS e
  FROM (SELECT unnest(generate_series((SELECT lo FROM span), (SELECT hi FROM span),
                                      INTERVAL 1 DAY)) AS d)
  GROUP BY 1
),
obs AS (SELECT isodow(ts) AS dow, count(*) AS n FROM events GROUP BY 1),
g AS (
  SELECT cal.dow, COALESCE(obs.n, 0) AS n, cal.e
  FROM cal LEFT JOIN obs ON cal.dow = obs.dow
),
tot AS (SELECT sum(n) * 1.0 AS n, sum(e) * 1.0 AS e FROM g),
cdf AS (
  SELECT sum(n) OVER (ORDER BY dow) / (SELECT n FROM tot) AS fo,
         sum(e) OVER (ORDER BY dow) / (SELECT e FROM tot) AS fe
  FROM g
)
SELECT (SELECT CAST(n AS BIGINT) FROM tot) AS n_events,
       (SELECT CAST(e AS BIGINT) FROM tot) AS n_days,
       round(max(fo - fe), 6) AS d_plus,
       round(max(fe - fo), 6) AS d_minus,
       round(max(fo - fe) + max(fe - fo), 6) AS kuiper_v
FROM cdf
"""


def laplace_trend_events(sf_dir: str) -> pd.DataFrame:
    """Laplace trend (centroid) test of the event arrival process:
    U = (mean(t_i) - T/2) / (T sqrt(1/(12 n))) over arrival times
    t_i measured from the first event, T = observation span — U ~
    N(0,1) under a homogeneous Poisson process, positive when
    arrivals intensify over time (the reliability-growth screen
    beside the Allan-variance / variance-time stationarity views).

    Pass 1 reduces (n, min ts, max ts); pass 2 sums the offsets in
    EXACT integer microseconds (each <= span, so no int64 overflow
    and bit-identical totals on both engines)."""
    ds = _read(sf_dir, "events", columns=["ts"])

    def _bounds(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"lo": [df["ts"].min()], "hi": [df["ts"].max()], "n": [len(df)]}
        )

    b = ds.map_batches(_bounds, batch_format="pandas").to_pandas()
    lo, hi, n = b["lo"].min(), b["hi"].max(), int(b["n"].sum())
    lo64 = np.int64(pd.Timestamp(lo).value // 1000)

    def _offsets(df: pd.DataFrame) -> pd.DataFrame:
        tu = df["ts"].to_numpy(dtype="datetime64[us]").astype("int64") - lo64
        return pd.DataFrame({"st": [int(tu.sum())]})

    st = int(ds.map_batches(_offsets, batch_format="pandas").to_pandas()["st"].sum())
    tt = float(pd.Timestamp(hi).value // 1000 - lo64)
    u = (st / n - tt / 2.0) / (tt * np.sqrt(1.0 / (12.0 * n)))
    return pd.DataFrame(
        {
            "n": pd.Series([n], dtype="int64"),
            "laplace_u": [round(float(u), 6)],
        }
    )


LAPLACE_TREND_EVENTS_SQL = """
WITH b AS (SELECT min(ts) AS lo, max(ts) AS hi, count(*) AS n FROM events),
s AS (
  SELECT sum(date_diff('microsecond', (SELECT lo FROM b), ts)) AS st
  FROM events
),
tt AS (
  SELECT date_diff('microsecond', lo, hi) * 1.0 AS t, n FROM b
)
SELECT CAST((SELECT n FROM b) AS BIGINT) AS n,
       round(((SELECT st FROM s) * 1.0 / n - t / 2.0)
             / (t * sqrt(1.0 / (12.0 * n))), 6) AS laplace_u
FROM tt
"""


def crow_amsaa_events(sf_dir: str) -> pd.DataFrame:
    """Crow-AMSAA (Duane) power-law NHPP fit of the event arrival
    process, N(t) = lambda t^beta: failure-truncated MLE beta =
    m / SUM ln(T / t_i) over arrivals with t_i > 0 (origin = first
    event, T = last), lambda = m / T_days^beta in events/day^beta —
    beta < 1 decelerating, > 1 intensifying; the parametric
    companion of the nonparametric Laplace trend U on the same
    exact-integer-microsecond offsets."""
    ds = _read(sf_dir, "events", columns=["ts"])

    def _bounds(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"lo": [df["ts"].min()], "hi": [df["ts"].max()]})

    b = ds.map_batches(_bounds, batch_format="pandas").to_pandas()
    lo64 = np.int64(pd.Timestamp(b["lo"].min()).value // 1000)
    tt = float(pd.Timestamp(b["hi"].max()).value // 1000 - lo64)

    def _logs(df: pd.DataFrame) -> pd.DataFrame:
        tu = (
            df["ts"].to_numpy(dtype="datetime64[us]").astype("int64") - lo64
        ).astype("float64")
        tu = tu[tu > 0]
        return pd.DataFrame({"m": [len(tu)], "sl": [float(np.log(tt / tu).sum())]})

    p = ds.map_batches(_logs, batch_format="pandas").to_pandas()
    m, sl = int(p["m"].sum()), float(p["sl"].sum())
    beta = m / sl
    lam = m / (tt / 86400e6) ** beta
    return pd.DataFrame(
        {
            "m": pd.Series([m], dtype="int64"),
            "beta": [round(beta, 6)],
            "lambda_per_day": [round(lam, 6)],
        }
    )


CROW_AMSAA_EVENTS_SQL = """
WITH b AS (SELECT min(ts) AS lo, max(ts) AS hi FROM events),
tt AS (SELECT date_diff('microsecond', lo, hi) * 1.0 AS t FROM b),
o AS (
  SELECT date_diff('microsecond', (SELECT lo FROM b), ts) * 1.0 AS tu
  FROM events
),
s AS (
  SELECT count(*) AS m, sum(ln((SELECT t FROM tt) / tu)) AS sl
  FROM o WHERE tu > 0
)
SELECT CAST(m AS BIGINT) AS m,
       round(m / sl, 6) AS beta,
       round(m / pow((SELECT t FROM tt) / 86400e6, m / sl), 6) AS lambda_per_day
FROM s
"""


def transfer_entropy_views_purchases(sf_dir: str) -> pd.DataFrame:
    """Lag-1 binary transfer entropy TE(view -> purchase) over the
    zero-filled daily count series: binarize each series at its own
    mean (exact integer comparison n*x_t > sum_x on both engines),
    then TE = SUM p(y, y', x') ln[ p(y|y',x') / p(y|y') ] over the 8
    joint cells — the model-free directed-information companion of
    the Granger F on the same ONE bucketed (day, type) count grid.
    Also reports the reverse direction for the asymmetry check."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "events", columns=["ts", "event_type"])

    def _prep(df: pd.DataFrame) -> pd.DataFrame:
        sel = df["event_type"].isin(["view", "purchase"])
        d = df[sel]
        return pd.DataFrame(
            {
                "day": d["ts"].dt.normalize(),
                "t": d["event_type"].to_numpy(object),
                "one": np.ones(int(sel.sum()), dtype="int64"),
            }
        )

    grid = (
        bucketed_aggregate(
            ds.map_batches(_prep, batch_format="pandas"),
            ["day", "t"],
            {"c": ("one", "sum")},
            num_buckets=8,
        )
        .to_pandas()
        .pivot(index="day", columns="t", values="c")
    )
    full_days = pd.date_range(grid.index.min(), grid.index.max(), freq="D")
    grid = grid.reindex(full_days).fillna(0).astype("int64")
    p = grid.get("purchase", pd.Series(0, index=grid.index)).to_numpy("int64")
    v = grid.get("view", pd.Series(0, index=grid.index)).to_numpy("int64")
    n = len(p)
    bp = (n * p > int(p.sum())).astype("int64")
    bv = (n * v > int(v.sum())).astype("int64")

    def _te(y: np.ndarray, x: np.ndarray) -> float:
        yt, yp, xp = y[1:], y[:-1], x[:-1]
        m = len(yt)
        te = 0.0
        for a in (0, 1):
            for b in (0, 1):
                c_yp_xp = int(((yp == b) & (xp == a)).sum())
                c_yp = int((yp == b).sum())
                if not c_yp_xp:
                    continue
                for yy in (0, 1):
                    c3 = int(((yt == yy) & (yp == b) & (xp == a)).sum())
                    c2 = int(((yt == yy) & (yp == b)).sum())
                    if c3:
                        te += (c3 / m) * np.log(
                            (c3 / c_yp_xp) / (c2 / c_yp)
                        )
        return te

    return pd.DataFrame(
        {
            "n_days": pd.Series([n], dtype="int64"),
            "te_v_to_p": [round(_te(bp, bv), 6)],
            "te_p_to_v": [round(_te(bv, bp), 6)],
        }
    )


TRANSFER_ENTROPY_VIEWS_PURCHASES_SQL = """
WITH b AS (SELECT min(date_trunc('day', ts)) AS lo, max(date_trunc('day', ts)) AS hi FROM events),
days AS (
  SELECT unnest(generate_series((SELECT lo FROM b), (SELECT hi FROM b), INTERVAL 1 DAY)) AS day
),
c AS (
  SELECT date_trunc('day', ts) AS day, event_type AS t, count(*) AS n
  FROM events WHERE event_type IN ('view', 'purchase') GROUP BY 1, 2
),
g AS (
  SELECT row_number() OVER (ORDER BY days.day) AS i,
         coalesce(max(CASE WHEN c.t = 'purchase' THEN c.n END), 0) AS p,
         coalesce(max(CASE WHEN c.t = 'view' THEN c.n END), 0) AS v
  FROM days LEFT JOIN c ON c.day = days.day GROUP BY days.day
),
tot AS (SELECT count(*) AS n, sum(p) AS sp, sum(v) AS sv FROM g),
z AS (
  SELECT i,
         CASE WHEN (SELECT n FROM tot) * p > (SELECT sp FROM tot) THEN 1 ELSE 0 END AS bp,
         CASE WHEN (SELECT n FROM tot) * v > (SELECT sv FROM tot) THEN 1 ELSE 0 END AS bv
  FROM g
),
tr AS (
  SELECT bp AS y, lag(bp) OVER (ORDER BY i) AS yp, lag(bv) OVER (ORDER BY i) AS xp,
         bv AS y2, lag(bv) OVER (ORDER BY i) AS yp2, lag(bp) OVER (ORDER BY i) AS xp2
  FROM z
),
t1 AS (
  SELECT y, yp, xp, count(*) AS c3,
         sum(count(*)) OVER (PARTITION BY yp, xp) AS c_yp_xp,
         sum(count(*)) OVER (PARTITION BY y, yp) AS c2,
         sum(count(*)) OVER (PARTITION BY yp) AS c_yp,
         sum(count(*)) OVER () AS m
  FROM tr WHERE yp IS NOT NULL GROUP BY 1, 2, 3
),
t2 AS (
  SELECT y2 AS y, yp2 AS yp, xp2 AS xp, count(*) AS c3,
         sum(count(*)) OVER (PARTITION BY yp2, xp2) AS c_yp_xp,
         sum(count(*)) OVER (PARTITION BY y2, yp2) AS c2,
         sum(count(*)) OVER (PARTITION BY yp2) AS c_yp,
         sum(count(*)) OVER () AS m
  FROM tr WHERE yp2 IS NOT NULL GROUP BY 1, 2, 3
)
SELECT (SELECT CAST(n AS BIGINT) FROM tot) AS n_days,
       (SELECT round(sum((c3 * 1.0 / m)
               * ln((c3 * 1.0 / c_yp_xp) / (c2 * 1.0 / c_yp))), 6) FROM t1)
         AS te_v_to_p,
       (SELECT round(sum((c3 * 1.0 / m)
               * ln((c3 * 1.0 / c_yp_xp) / (c2 * 1.0 / c_yp))), 6) FROM t2)
         AS te_p_to_v
"""


def _hourly_count_series(sf_dir: str) -> np.ndarray:
    """Zero-filled hourly event-count series (exact integers) —
    shared by the point-process second-order statistics (binned
    Ripley K, pair correlation); ONE bucketed per-hour grid."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "events", columns=["ts"])

    def _prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"hr": df["ts"].dt.floor("h"), "one": np.int64(1)})

    grid = (
        bucketed_aggregate(
            ds.map_batches(_prep, batch_format="pandas"),
            ["hr"],
            {"c": ("one", "sum")},
            num_buckets=8,
        )
        .to_pandas()
        .set_index("hr")["c"]
    )
    full = pd.date_range(grid.index.min(), grid.index.max(), freq="h")
    return grid.reindex(full).fillna(0).to_numpy("int64")


def ripley_k_events(sf_dir: str) -> pd.DataFrame:
    """Binned 1-D Ripley's K of the event arrival process at lag
    windows h in {1, 2, 4, 8, 24} hours: pair count P(h) =
    SUM_a c_a * (SUM_{|b-a|<=h} c_b) - n (self-pairs removed),
    K(h) = T P(h) / n^2, reported against the edge-naive CSR
    expectation 2h+1 — K/CSR > 1 means arrivals CLUSTER at that
    scale (the second-order view beside the Fano factor and Allan
    variance). Windowed sums on the shared zero-filled hourly
    grid."""
    c = _hourly_count_series(sf_dir).astype("float64")
    t = len(c)
    n = float(c.sum())
    cum = np.concatenate([[0.0], np.cumsum(c)])
    rows = []
    for h in (1, 2, 4, 8, 24):
        idx = np.arange(t)
        lo = np.maximum(idx - h, 0)
        hi = np.minimum(idx + h, t - 1)
        win = cum[hi + 1] - cum[lo]
        p = float((c * win).sum()) - n
        k = t * p / (n * n)
        rows.append((h, round(k, 6), round(k / (2.0 * h + 1.0), 6)))
    return pd.DataFrame(
        {
            "h_hours": pd.Series([r[0] for r in rows], dtype="int64"),
            "k_hat": [r[1] for r in rows],
            "k_over_csr": [r[2] for r in rows],
        }
    )


RIPLEY_K_EVENTS_SQL = """
WITH b AS (SELECT min(date_trunc('hour', ts)) AS lo, max(date_trunc('hour', ts)) AS hi FROM events),
hrs AS (
  SELECT unnest(generate_series((SELECT lo FROM b), (SELECT hi FROM b), INTERVAL 1 HOUR)) AS hr
),
cg AS (SELECT date_trunc('hour', ts) AS hr, count(*) AS n FROM events GROUP BY 1),
g AS (
  SELECT row_number() OVER (ORDER BY hrs.hr) AS i, coalesce(cg.n, 0) AS c
  FROM hrs LEFT JOIN cg ON cg.hr = hrs.hr
),
tot AS (SELECT count(*) * 1.0 AS t, sum(c) * 1.0 AS n FROM g),
ks AS (SELECT unnest([1, 2, 4, 8, 24]) AS h),
p AS (
  SELECT ks.h AS h,
         sum(a.c * b2.c) - (SELECT n FROM tot) AS pc
  FROM ks JOIN g a ON TRUE
  JOIN g b2 ON abs(a.i - b2.i) <= ks.h
  GROUP BY ks.h
)
SELECT CAST(h AS BIGINT) AS h_hours,
       round((SELECT t FROM tot) * pc / ((SELECT n FROM tot) * (SELECT n FROM tot)), 6)
         AS k_hat,
       round((SELECT t FROM tot) * pc / ((SELECT n FROM tot) * (SELECT n FROM tot))
             / (2.0 * h + 1.0), 6) AS k_over_csr
FROM p ORDER BY h
"""


def pair_correlation_events(sf_dir: str) -> pd.DataFrame:
    """Pair correlation function of the event arrival process at
    exact hour lags h in {1, 2, 3, 6, 12, 24}: g(h) = T SUM_a c_a
    c_{a+h} / n^2 — 1 under a homogeneous Poisson process, > 1 when
    events attract at that separation (the non-cumulative derivative
    view of Ripley's K on the same zero-filled hourly grid)."""
    c = _hourly_count_series(sf_dir).astype("float64")
    t = len(c)
    n = float(c.sum())
    rows = []
    for h in (1, 2, 3, 6, 12, 24):
        s = float((c[h:] * c[:-h]).sum())
        rows.append((h, round(t * s / (n * n), 6)))
    return pd.DataFrame(
        {
            "h_hours": pd.Series([r[0] for r in rows], dtype="int64"),
            "g_hat": [r[1] for r in rows],
        }
    )


PAIR_CORRELATION_EVENTS_SQL = """
WITH b AS (SELECT min(date_trunc('hour', ts)) AS lo, max(date_trunc('hour', ts)) AS hi FROM events),
hrs AS (
  SELECT unnest(generate_series((SELECT lo FROM b), (SELECT hi FROM b), INTERVAL 1 HOUR)) AS hr
),
cg AS (SELECT date_trunc('hour', ts) AS hr, count(*) AS n FROM events GROUP BY 1),
g AS (
  SELECT row_number() OVER (ORDER BY hrs.hr) AS i, coalesce(cg.n, 0) AS c
  FROM hrs LEFT JOIN cg ON cg.hr = hrs.hr
),
tot AS (SELECT count(*) * 1.0 AS t, sum(c) * 1.0 AS n FROM g),
ks AS (SELECT unnest([1, 2, 3, 6, 12, 24]) AS h),
p AS (
  SELECT ks.h AS h, sum(a.c * b2.c) AS s
  FROM ks JOIN g a ON TRUE JOIN g b2 ON b2.i = a.i + ks.h
  GROUP BY ks.h
)
SELECT CAST(h AS BIGINT) AS h_hours,
       round((SELECT t FROM tot) * s / ((SELECT n FROM tot) * (SELECT n FROM tot)), 6)
         AS g_hat
FROM p ORDER BY h
"""


def _circular_trig_moments(sf_dir: str):
    """First and second trigonometric moments of the event
    time-of-day angles — (n, C1, S1, C2, S2) scalar partials from one
    streaming pass; shared by the directional-statistics family."""
    ds = _read(sf_dir, "events", columns=["ts"])

    def _partials(df: pd.DataFrame) -> pd.DataFrame:
        us = df["ts"].to_numpy("datetime64[us]").astype("int64") % 86_400_000_000
        theta = 2.0 * np.pi * us / 86_400_000_000.0
        return pd.DataFrame(
            {
                "n": [np.int64(len(us))],
                "c1": [float(np.cos(theta).sum())],
                "s1": [float(np.sin(theta).sum())],
                "c2": [float(np.cos(2.0 * theta).sum())],
                "s2": [float(np.sin(2.0 * theta).sum())],
            }
        )

    s = ds.map_batches(_partials, batch_format="pandas").to_pandas().sum()
    return int(s["n"]), float(s["c1"]), float(s["s1"]), float(s["c2"]), float(s["s2"])


def v_test_noon_events(sf_dir: str) -> pd.DataFrame:
    """The V-test (modified Rayleigh) of event time-of-day against
    the SPECIFIED mean direction noon (mu0 = pi): V = Rbar
    cos(thetabar - mu0), u = V sqrt(2n) ~ N(0,1) — more powerful
    than the omnibus Rayleigh when the alternative direction is
    known a priori; same one-pass trig moments."""
    n, c1, s1, _, _ = _circular_trig_moments(sf_dir)
    rbar = np.sqrt(c1 * c1 + s1 * s1) / n
    theta = np.arctan2(s1, c1)
    v = rbar * np.cos(theta - np.pi)
    u = v * np.sqrt(2.0 * n)
    return pd.DataFrame(
        {
            "n": pd.Series([n], dtype="int64"),
            "v_stat": [round(float(v), 6)],
            "u_stat": [round(float(u), 6)],
        }
    )


V_TEST_NOON_EVENTS_SQL = """
WITH a AS (
  SELECT 2.0 * pi()
         * (CAST(epoch_us(ts) % 86400000000 AS DOUBLE) / 86400000000.0) AS th
  FROM events
),
m AS (
  SELECT count(*) * 1.0 AS n, sum(cos(th)) AS c1, sum(sin(th)) AS s1 FROM a
)
SELECT CAST(n AS BIGINT) AS n,
       round(sqrt(c1 * c1 + s1 * s1) / n
             * cos(atan2(s1, c1) - pi()), 6) AS v_stat,
       round(sqrt(c1 * c1 + s1 * s1) / n
             * cos(atan2(s1, c1) - pi()) * sqrt(2.0 * n), 6) AS u_stat
FROM m
"""


def circular_moments_events(sf_dir: str) -> pd.DataFrame:
    """Higher circular moments of event time-of-day: circular
    variance 1 - Rbar, circular standard deviation sqrt(-2 ln Rbar),
    and the Fisher circular skewness b = R2 sin(mu2 - 2 mu1) /
    (1 - R1)^1.5 and kurtosis k = (R2 cos(mu2 - 2 mu1) - R1^4) /
    (1 - R1)^2 from the second trigonometric moment — the shape
    profile of the daily activity cycle beside its Rayleigh
    concentration test."""
    n, c1, s1, c2, s2 = _circular_trig_moments(sf_dir)
    r1 = np.sqrt(c1 * c1 + s1 * s1) / n
    r2 = np.sqrt(c2 * c2 + s2 * s2) / n
    mu1 = np.arctan2(s1, c1)
    mu2 = np.arctan2(s2, c2)
    skew = r2 * np.sin(mu2 - 2.0 * mu1) / (1.0 - r1) ** 1.5
    kurt = (r2 * np.cos(mu2 - 2.0 * mu1) - r1**4) / (1.0 - r1) ** 2
    return pd.DataFrame(
        {
            "n": pd.Series([n], dtype="int64"),
            "circ_var": [round(float(1.0 - r1), 6)],
            "circ_sd": [round(float(np.sqrt(-2.0 * np.log(r1))), 6)],
            "circ_skew": [round(float(skew), 6)],
            "circ_kurt": [round(float(kurt), 6)],
        }
    )


CIRCULAR_MOMENTS_EVENTS_SQL = """
WITH a AS (
  SELECT 2.0 * pi()
         * (CAST(epoch_us(ts) % 86400000000 AS DOUBLE) / 86400000000.0) AS th
  FROM events
),
m AS (
  SELECT count(*) * 1.0 AS n,
         sum(cos(th)) AS c1, sum(sin(th)) AS s1,
         sum(cos(2.0 * th)) AS c2, sum(sin(2.0 * th)) AS s2
  FROM a
),
r AS (
  SELECT n,
         sqrt(c1 * c1 + s1 * s1) / n AS r1,
         sqrt(c2 * c2 + s2 * s2) / n AS r2,
         atan2(s1, c1) AS mu1, atan2(s2, c2) AS mu2
  FROM m
)
SELECT CAST(n AS BIGINT) AS n,
       round(1.0 - r1, 6) AS circ_var,
       round(sqrt(-2.0 * ln(r1)), 6) AS circ_sd,
       round(r2 * sin(mu2 - 2.0 * mu1) / pow(1.0 - r1, 1.5), 6) AS circ_skew,
       round((r2 * cos(mu2 - 2.0 * mu1) - pow(r1, 4)) / pow(1.0 - r1, 2), 6)
         AS circ_kurt
FROM r
"""


def _type_trig_sums(sf_dir: str) -> pd.DataFrame:
    """Per-event-type first trigonometric moment sums of the
    time-of-day angles — shared by the circular-ANOVA family; one
    bucketed aggregate over the type key."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "events", columns=["ts", "event_type"])

    def _partials(df: pd.DataFrame) -> pd.DataFrame:
        us = df["ts"].to_numpy("datetime64[us]").astype("int64") % 86_400_000_000
        theta = 2.0 * np.pi * us / 86_400_000_000.0
        g = pd.DataFrame(
            {"t": df["event_type"], "n": np.int64(1),
             "c": np.cos(theta), "s": np.sin(theta)}
        )
        return g.groupby("t", as_index=False).sum()

    return (
        bucketed_aggregate(
            ds.map_batches(_partials, batch_format="pandas"),
            ["t"],
            {"n": ("n", "sum"), "c": ("c", "sum"), "s": ("s", "sum")},
            num_buckets=4,
        )
        .to_pandas()
        .sort_values("t")
        .reset_index(drop=True)
    )


def watson_williams_event_types(sf_dir: str) -> pd.DataFrame:
    """Watson-Williams circular ANOVA: do the event types share one
    mean time-of-day direction? F = ((N-k)(SUM R_g - R)) /
    ((k-1)(N - SUM R_g)) from the per-type and pooled resultant
    lengths — the von-Mises k-sample location test completing the
    directional family (Rayleigh/V-test are its one-sample
    ancestors). One bucketed per-type trig reduction."""
    g = _type_trig_sums(sf_dir)
    rg = np.sqrt(g["c"].to_numpy("float64") ** 2 + g["s"].to_numpy("float64") ** 2)
    n = float(g["n"].sum())
    k = len(g)
    r_pool = float(np.sqrt(g["c"].sum() ** 2 + g["s"].sum() ** 2))
    sum_rg = float(rg.sum())
    f = ((n - k) * (sum_rg - r_pool)) / ((k - 1.0) * (n - sum_rg))
    return pd.DataFrame(
        {
            "n": pd.Series([int(n)], dtype="int64"),
            "k_types": pd.Series([k], dtype="int64"),
            "ww_f": [round(f, 6)],
        }
    )


WATSON_WILLIAMS_EVENT_TYPES_SQL = """
WITH a AS (
  SELECT event_type AS t,
         2.0 * pi()
         * (CAST(epoch_us(ts) % 86400000000 AS DOUBLE) / 86400000000.0) AS th
  FROM events
),
g AS (
  SELECT t, count(*) * 1.0 AS n, sum(cos(th)) AS c, sum(sin(th)) AS s
  FROM a GROUP BY 1
),
agg AS (
  SELECT sum(n) AS n, count(*) AS k,
         sum(sqrt(c * c + s * s)) AS sum_rg,
         sqrt(pow(sum(c), 2) + pow(sum(s), 2)) AS r_pool
  FROM g
)
SELECT CAST(n AS BIGINT) AS n,
       CAST(k AS BIGINT) AS k_types,
       round(((n - k) * (sum_rg - r_pool)) / ((k - 1.0) * (n - sum_rg)), 6) AS ww_f
FROM agg
"""


def peak_hour_by_event_type(sf_dir: str) -> pd.DataFrame:
    """Circular mean time-of-day per event type: the resultant
    direction converted back to hours (atan2 wrapped to [0, 24)) with
    the concentration Rbar — the per-group directional profile the
    Watson-Williams F summarizes into one number."""
    g = _type_trig_sums(sf_dir)
    c = g["c"].to_numpy("float64")
    s = g["s"].to_numpy("float64")
    n = g["n"].to_numpy("int64").astype("float64")
    theta = np.arctan2(s, c)
    hours = (theta % (2.0 * np.pi)) * 24.0 / (2.0 * np.pi)
    rbar = np.sqrt(c * c + s * s) / n
    return pd.DataFrame(
        {
            "event_type": g["t"].to_numpy(object),
            "n": pd.Series(n.astype("int64"), dtype="int64"),
            "peak_hour": np.round(hours, 4),
            "rbar": np.round(rbar, 6),
        }
    ).sort_values("event_type").reset_index(drop=True)


PEAK_HOUR_BY_EVENT_TYPE_SQL = """
WITH a AS (
  SELECT event_type AS t,
         2.0 * pi()
         * (CAST(epoch_us(ts) % 86400000000 AS DOUBLE) / 86400000000.0) AS th
  FROM events
),
g AS (
  SELECT t, count(*) * 1.0 AS n, sum(cos(th)) AS c, sum(sin(th)) AS s
  FROM a GROUP BY 1
)
SELECT t AS event_type,
       CAST(n AS BIGINT) AS n,
       round(((atan2(s, c) + 2.0 * pi()) - 2.0 * pi() * floor((atan2(s, c) + 2.0 * pi()) / (2.0 * pi())))
             * 24.0 / (2.0 * pi()), 4) AS peak_hour,
       round(sqrt(c * c + s * s) / n, 6) AS rbar
FROM g ORDER BY t
"""


def _hourly_two_type_series(sf_dir: str, type_a: str, type_b: str):
    """Zero-filled hourly count series for TWO event types on the
    POOLED corpus hour range (so the series align) — the shared grid
    behind the cross-type second-order statistics. One bucketed
    (type, hour) aggregate."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "events", columns=["ts", "event_type"])

    def _prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"hr": df["ts"].dt.floor("h"), "et": df["event_type"], "one": np.int64(1)}
        )

    grid = (
        bucketed_aggregate(
            ds.map_batches(_prep, batch_format="pandas"),
            ["hr", "et"],
            {"c": ("one", "sum")},
            num_buckets=8,
        )
        .to_pandas()
    )
    full = pd.date_range(grid["hr"].min(), grid["hr"].max(), freq="h")
    a = (
        grid[grid["et"] == type_a].set_index("hr")["c"].reindex(full).fillna(0)
        .to_numpy("int64")
    )
    b = (
        grid[grid["et"] == type_b].set_index("hr")["c"].reindex(full).fillna(0)
        .to_numpy("int64")
    )
    return a, b


def cross_k_views_purchases(sf_dir: str) -> pd.DataFrame:
    """Bivariate (cross-type) Ripley's K between view and purchase
    arrivals at lag windows h in {1, 2, 4, 8, 24} hours: K12(h) =
    T SUM_a v_a (SUM_{|b-a|<=h} p_b) / (n1 n2), against the
    edge-naive CSR expectation 2h+1 — K12/CSR > 1 means purchases
    CLUSTER around views at that scale (cross-type attraction, the
    independence question the single-type K cannot ask). Windowed
    sums on the shared pooled-range hourly grids."""
    v, p = _hourly_two_type_series(sf_dir, "view", "purchase")
    vf, pf = v.astype("float64"), p.astype("float64")
    t = len(vf)
    n1, n2 = float(vf.sum()), float(pf.sum())
    cum = np.concatenate([[0.0], np.cumsum(pf)])
    rows = []
    for h in (1, 2, 4, 8, 24):
        idx = np.arange(t)
        lo = np.maximum(idx - h, 0)
        hi = np.minimum(idx + h, t - 1)
        win = cum[hi + 1] - cum[lo]
        k = t * float((vf * win).sum()) / (n1 * n2)
        rows.append((h, round(k, 6), round(k / (2.0 * h + 1.0), 6)))
    return pd.DataFrame(
        {
            "h_hours": pd.Series([r[0] for r in rows], dtype="int64"),
            "k12_hat": [r[1] for r in rows],
            "k12_over_csr": [r[2] for r in rows],
        }
    )


CROSS_K_VIEWS_PURCHASES_SQL = """
WITH b AS (SELECT min(date_trunc('hour', ts)) AS lo, max(date_trunc('hour', ts)) AS hi FROM events),
hrs AS (
  SELECT unnest(generate_series((SELECT lo FROM b), (SELECT hi FROM b), INTERVAL 1 HOUR)) AS hr
),
vg AS (SELECT date_trunc('hour', ts) AS hr, count(*) AS n FROM events WHERE event_type = 'view' GROUP BY 1),
pg AS (SELECT date_trunc('hour', ts) AS hr, count(*) AS n FROM events WHERE event_type = 'purchase' GROUP BY 1),
g AS (
  SELECT row_number() OVER (ORDER BY hrs.hr) AS i,
         coalesce(vg.n, 0) AS v, coalesce(pg.n, 0) AS p
  FROM hrs LEFT JOIN vg ON vg.hr = hrs.hr LEFT JOIN pg ON pg.hr = hrs.hr
),
tot AS (SELECT count(*) * 1.0 AS t, sum(v) * 1.0 AS n1, sum(p) * 1.0 AS n2 FROM g),
ks AS (SELECT unnest([1, 2, 4, 8, 24]) AS h),
pc AS (
  SELECT ks.h AS h, sum(a.v * b2.p) AS s
  FROM ks JOIN g a ON TRUE
  JOIN g b2 ON abs(a.i - b2.i) <= ks.h
  GROUP BY ks.h
)
SELECT CAST(h AS BIGINT) AS h_hours,
       round((SELECT t FROM tot) * s / ((SELECT n1 FROM tot) * (SELECT n2 FROM tot)), 6)
         AS k12_hat,
       round((SELECT t FROM tot) * s / ((SELECT n1 FROM tot) * (SELECT n2 FROM tot))
             / (2.0 * h + 1.0), 6) AS k12_over_csr
FROM pc ORDER BY h
"""


def cross_pcf_views_purchases(sf_dir: str) -> pd.DataFrame:
    """Cross-type pair correlation between views and purchases at
    exact hour lags h in {0, 1, 2, 3, 6, 12, 24}: g12(h) =
    T (SUM_a v_a p_{a+h} + SUM_a v_a p_{a-h}) / (2 n1 n2) for h > 0
    (direction-averaged) and T SUM v_a p_a / (n1 n2) at h = 0 — 1
    under independent homogeneous processes, the non-cumulative
    derivative view of the cross-K on the same pooled-range grids."""
    v, p = _hourly_two_type_series(sf_dir, "view", "purchase")
    vf, pf = v.astype("float64"), p.astype("float64")
    t = len(vf)
    n1, n2 = float(vf.sum()), float(pf.sum())
    rows = []
    for h in (0, 1, 2, 3, 6, 12, 24):
        if h == 0:
            g = t * float((vf * pf).sum()) / (n1 * n2)
        else:
            fwd = float((vf[:-h] * pf[h:]).sum())
            bwd = float((vf[h:] * pf[:-h]).sum())
            g = t * (fwd + bwd) / (2.0 * n1 * n2)
        rows.append((h, round(g, 6)))
    return pd.DataFrame(
        {
            "h_hours": pd.Series([r[0] for r in rows], dtype="int64"),
            "g12": [r[1] for r in rows],
        }
    )


CROSS_PCF_VIEWS_PURCHASES_SQL = """
WITH b AS (SELECT min(date_trunc('hour', ts)) AS lo, max(date_trunc('hour', ts)) AS hi FROM events),
hrs AS (
  SELECT unnest(generate_series((SELECT lo FROM b), (SELECT hi FROM b), INTERVAL 1 HOUR)) AS hr
),
vg AS (SELECT date_trunc('hour', ts) AS hr, count(*) AS n FROM events WHERE event_type = 'view' GROUP BY 1),
pg AS (SELECT date_trunc('hour', ts) AS hr, count(*) AS n FROM events WHERE event_type = 'purchase' GROUP BY 1),
g AS (
  SELECT row_number() OVER (ORDER BY hrs.hr) AS i,
         coalesce(vg.n, 0) AS v, coalesce(pg.n, 0) AS p
  FROM hrs LEFT JOIN vg ON vg.hr = hrs.hr LEFT JOIN pg ON pg.hr = hrs.hr
),
tot AS (SELECT count(*) * 1.0 AS t, sum(v) * 1.0 AS n1, sum(p) * 1.0 AS n2 FROM g),
ks AS (SELECT unnest([0, 1, 2, 3, 6, 12, 24]) AS h),
pc AS (
  SELECT ks.h AS h,
         CASE WHEN ks.h = 0
              THEN (SELECT t FROM tot) * (SELECT sum(v * p) FROM g)
                   / ((SELECT n1 FROM tot) * (SELECT n2 FROM tot))
              ELSE (SELECT t FROM tot)
                   * ((SELECT coalesce(sum(a.v * b2.p), 0) FROM g a JOIN g b2 ON b2.i = a.i + ks.h)
                      + (SELECT coalesce(sum(a.v * b2.p), 0) FROM g a JOIN g b2 ON b2.i = a.i - ks.h))
                   / (2.0 * (SELECT n1 FROM tot) * (SELECT n2 FROM tot))
         END AS g12
  FROM ks
)
SELECT CAST(h AS BIGINT) AS h_hours, round(g12, 6) AS g12
FROM pc ORDER BY h
"""


# ---------------------------------------------------------------------------
# single-frequency cross-spectral analysis of the view/purchase day series
# ---------------------------------------------------------------------------

def _daily_view_purchase_series(sf_dir: str):
    """Shared zero-filled daily count series for 'view' and 'purchase'
    over the common day spine — the input of the cross-spectral pair.
    ONE bucketed (type, day) count reduction; the spine is
    day-dimension scale."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "events", columns=["event_type", "ts"]).map_batches(
        lambda df: df[df["event_type"].isin(["view", "purchase"])], batch_format="pandas"
    )
    lo = pd.Timestamp(ds.min("ts")).floor("D")
    hi = pd.Timestamp(ds.max("ts")).floor("D")
    cnt = bucketed_aggregate(
        ds.map_batches(
            lambda df: pd.DataFrame(
                {"t": df["event_type"], "d": df["ts"].dt.floor("D"), "one": np.int64(1)}
            ),
            batch_format="pandas",
        ),
        ["t", "d"],
        {"c": ("one", "sum")},
        num_buckets=16,
    ).to_pandas()
    spine = pd.date_range(lo, hi, freq="D")
    v = cnt[cnt["t"] == "view"].set_index("d")["c"].reindex(spine, fill_value=0).to_numpy("float64")
    p = cnt[cnt["t"] == "purchase"].set_index("d")["c"].reindex(spine, fill_value=0).to_numpy("float64")
    return v, p


def weekly_cross_spectrum_views_purchases(sf_dir: str) -> pd.DataFrame:
    """Cross-spectrum of the daily view and purchase count series AT
    the weekly frequency (omega = 2 pi / 7): per-series amplitude of
    the 7-day cycle (2|C|/n of the demeaned series), the cross-
    spectral phase difference arg(C_v conj(C_p)), and the implied lead
    of views over purchases in days (phase/omega in (-3.5, 3.5]) —
    the frequency-domain companion of the time-domain lag
    cross-correlation, pinned to the one cycle that matters.

    Distributed: the shared bucketed (type, day) count; DFT sums on
    the day-dimension spine."""
    v, p = _daily_view_purchase_series(sf_dir)
    n = len(v)
    t = np.arange(n, dtype="float64")
    w = 2.0 * np.pi / 7.0
    cosw, sinw = np.cos(w * t), np.sin(w * t)
    vv, pp = v - v.mean(), p - p.mean()
    cv = complex(float((vv * cosw).sum()), -float((vv * sinw).sum()))
    cp = complex(float((pp * cosw).sum()), -float((pp * sinw).sum()))
    cross = cv * np.conj(cp)
    phase = float(np.arctan2(cross.imag, cross.real))
    return pd.DataFrame(
        {
            "n_days": pd.Series([n], dtype="int64"),
            "amp_views": [round(2.0 * abs(cv) / n, 6)],
            "amp_purchases": [round(2.0 * abs(cp) / n, 6)],
            "phase_diff": [round(phase, 6)],
            "lead_days": [round(phase / w, 6)],
        }
    )


_DAILY_VP_SQL = """
WITH days AS (
  SELECT unnest(generate_series(
           date_trunc('day', (SELECT min(ts) FROM events WHERE event_type IN ('view','purchase'))),
           date_trunc('day', (SELECT max(ts) FROM events WHERE event_type IN ('view','purchase'))),
           INTERVAL 1 DAY)) AS d
),
cnt AS (
  SELECT event_type AS t, date_trunc('day', ts) AS d, count(*) AS c
  FROM events WHERE event_type IN ('view', 'purchase') GROUP BY 1, 2
),
filled AS (
  SELECT row_number() OVER (ORDER BY days.d) - 1 AS t,
         coalesce(v.c, 0) * 1.0 AS v, coalesce(p.c, 0) * 1.0 AS p
  FROM days
  LEFT JOIN cnt v ON v.d = days.d AND v.t = 'view'
  LEFT JOIN cnt p ON p.d = days.d AND p.t = 'purchase'
)
"""

WEEKLY_CROSS_SPECTRUM_VIEWS_PURCHASES_SQL = (
    _DAILY_VP_SQL
    + """,
m AS (SELECT count(*) * 1.0 AS n, avg(v) AS mv, avg(p) AS mp FROM filled),
dft AS (
  SELECT (SELECT n FROM m) AS n,
         sum((v - (SELECT mv FROM m)) * cos(2 * pi() / 7 * t)) AS cvr,
         -sum((v - (SELECT mv FROM m)) * sin(2 * pi() / 7 * t)) AS cvi,
         sum((p - (SELECT mp FROM m)) * cos(2 * pi() / 7 * t)) AS cpr,
         -sum((p - (SELECT mp FROM m)) * sin(2 * pi() / 7 * t)) AS cpi
  FROM filled
)
SELECT CAST(n AS BIGINT) AS n_days,
       round(2.0 * sqrt(cvr * cvr + cvi * cvi) / n, 6) AS amp_views,
       round(2.0 * sqrt(cpr * cpr + cpi * cpi) / n, 6) AS amp_purchases,
       round(atan2(cvi * cpr - cvr * cpi, cvr * cpr + cvi * cpi), 6) AS phase_diff,
       round(atan2(cvi * cpr - cvr * cpi, cvr * cpr + cvi * cpi) / (2 * pi() / 7), 6)
         AS lead_days
FROM dft
"""
)


def weekly_band_coherence_views_purchases(sf_dir: str, half_band: int = 2) -> pd.DataFrame:
    """Magnitude-squared coherence between daily views and purchases
    in the WEEKLY band: cross- and auto-periodograms at the five
    exact Fourier bins nearest 1/7 cycles/day (j0 = round(n/7) +/- 2),
    Welch-averaged across the band — coh = |SUM Sxy|^2 /
    (SUM Sxx * SUM Syy) in [0, 1] (a single bin is identically 1;
    band-averaging is what makes coherence informative) — plus the
    band-averaged cross phase. Exact Fourier bins need no demeaning
    (the DC term is orthogonal). Same shared daily reduction."""
    v, p = _daily_view_purchase_series(sf_dir)
    n = len(v)
    t = np.arange(n, dtype="float64")
    j0 = int(round(n / 7.0))
    sxy = 0j
    sxx = syy = 0.0
    for j in range(j0 - half_band, j0 + half_band + 1):
        w = 2.0 * np.pi * j / n
        cv = complex(float((v * np.cos(w * t)).sum()), -float((v * np.sin(w * t)).sum()))
        cp = complex(float((p * np.cos(w * t)).sum()), -float((p * np.sin(w * t)).sum()))
        sxy += cv * np.conj(cp)
        sxx += abs(cv) ** 2
        syy += abs(cp) ** 2
    coh = abs(sxy) ** 2 / (sxx * syy)
    return pd.DataFrame(
        {
            "n_days": pd.Series([n], dtype="int64"),
            "j_center": pd.Series([j0], dtype="int64"),
            "coherence": [round(float(coh), 6)],
            "band_phase": [round(float(np.arctan2(sxy.imag, sxy.real)), 6)],
        }
    )


WEEKLY_BAND_COHERENCE_VIEWS_PURCHASES_SQL = (
    _DAILY_VP_SQL
    + """,
m AS (SELECT count(*) * 1.0 AS n, CAST(round(count(*) / 7.0) AS BIGINT) AS j0 FROM filled),
bins AS (
  SELECT unnest(generate_series((SELECT j0 FROM m) - 2, (SELECT j0 FROM m) + 2)) AS j
),
dft AS (
  SELECT j,
         sum(v * cos(2 * pi() * j / (SELECT n FROM m) * t)) AS cvr,
         -sum(v * sin(2 * pi() * j / (SELECT n FROM m) * t)) AS cvi,
         sum(p * cos(2 * pi() * j / (SELECT n FROM m) * t)) AS cpr,
         -sum(p * sin(2 * pi() * j / (SELECT n FROM m) * t)) AS cpi
  FROM filled, bins GROUP BY j
),
band AS (
  SELECT sum(cvr * cpr + cvi * cpi) AS sxy_re,
         sum(cvi * cpr - cvr * cpi) AS sxy_im,
         sum(cvr * cvr + cvi * cvi) AS sxx,
         sum(cpr * cpr + cpi * cpi) AS syy
  FROM dft
)
SELECT CAST((SELECT n FROM m) AS BIGINT) AS n_days,
       CAST((SELECT j0 FROM m) AS BIGINT) AS j_center,
       round((sxy_re * sxy_re + sxy_im * sxy_im) / (sxx * syy), 6) AS coherence,
       round(atan2(sxy_im, sxy_re), 6) AS band_phase
FROM band
"""
)


# ---------------------------------------------------------------------------
# circular uniformity of event time-of-day: Watson U^2 and Rao spacings
# ---------------------------------------------------------------------------

def _second_of_day_hist(sf_dir: str) -> pd.DataFrame:
    """Shared second-of-day histogram of all events (u = sec/86400 on
    the unit circle) — the grouped-order-statistics input of the
    circular-uniformity pair. ONE bucketed aggregate, <=86400 cells."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "events", columns=["ts"])

    def _prep(df: pd.DataFrame) -> pd.DataFrame:
        t = df["ts"]
        sec = (t.dt.hour * 3600 + t.dt.minute * 60 + t.dt.second).astype("int64")
        return pd.DataFrame({"sec": sec, "one": np.int64(1)}).groupby(
            "sec", as_index=False
        ).agg(c=("one", "sum"))

    return (
        bucketed_aggregate(
            ds.map_batches(_prep, batch_format="pandas"),
            ["sec"],
            {"c": ("c", "sum")},
            num_buckets=16,
        )
        .to_pandas()
        .sort_values("sec")
        .reset_index(drop=True)
    )


def watson_u2_time_of_day(sf_dir: str) -> pd.DataFrame:
    """Watson's U^2 one-sample test of time-of-day uniformity over
    ALL events (origin-invariant — unlike Kuiper's V it needs no
    choice of where the circle 'starts'): U^2 = SUM (u_(i) -
    (2i-1)/(2n))^2 - n(ubar - 1/2)^2 + 1/(12n), with the order
    statistics collapsed EXACTLY onto the second-of-day histogram via
    the closed forms SUM(2k-1) = m^2 and SUM(2k-1)^2 =
    m(2m-1)(2m+1)/3 over each tie run — no per-event work anywhere."""
    g = _second_of_day_hist(sf_dir)
    c = g["c"].to_numpy("int64").astype("float64")
    u = g["sec"].to_numpy("int64").astype("float64") / 86400.0
    n = float(c.sum())
    s = np.concatenate([[0.0], np.cumsum(c)[:-1]])

    def _f(m):
        return m * (2.0 * m - 1.0) * (2.0 * m + 1.0) / 3.0

    sum_a = ((s + c) ** 2 - s ** 2) / (2.0 * n)
    sum_a2 = (_f(s + c) - _f(s)) / (4.0 * n * n)
    term = float((c * u * u - 2.0 * u * sum_a + sum_a2).sum())
    ubar = float((c * u).sum()) / n
    u2 = term - n * (ubar - 0.5) ** 2 + 1.0 / (12.0 * n)
    return pd.DataFrame(
        {
            "n_events": pd.Series([int(n)], dtype="int64"),
            "ubar": [round(ubar, 6)],
            "watson_u2": [round(u2, 6)],
        }
    )


_SEC_HIST_SQL = """
WITH h AS (
  SELECT date_part('hour', ts) * 3600 + date_part('minute', ts) * 60
           + date_part('second', ts) AS sec,
         count(*) AS c
  FROM events GROUP BY 1
),
hh AS (
  SELECT sec / 86400.0 AS u, c * 1.0 AS c,
         (sum(c) OVER (ORDER BY sec) - c) * 1.0 AS s
  FROM h
),
nn AS (SELECT sum(c) AS n FROM hh)
"""

WATSON_U2_TIME_OF_DAY_SQL = (
    _SEC_HIST_SQL
    + """,
terms AS (
  SELECT c * u * u
         - 2.0 * u * (pow(s + c, 2) - pow(s, 2)) / (2.0 * (SELECT n FROM nn))
         + ((s + c) * (2.0 * (s + c) - 1.0) * (2.0 * (s + c) + 1.0) / 3.0
            - s * (2.0 * s - 1.0) * (2.0 * s + 1.0) / 3.0)
           / (4.0 * (SELECT n FROM nn) * (SELECT n FROM nn)) AS t,
         c * u AS cu
  FROM hh
)
SELECT CAST((SELECT n FROM nn) AS BIGINT) AS n_events,
       round(sum(cu) / (SELECT n FROM nn), 6) AS ubar,
       round(sum(t)
             - (SELECT n FROM nn) * pow(sum(cu) / (SELECT n FROM nn) - 0.5, 2)
             + 1.0 / (12.0 * (SELECT n FROM nn)), 6) AS watson_u2
FROM terms
"""
)


def rao_spacing_time_of_day(sf_dir: str) -> pd.DataFrame:
    """Rao's spacing test of time-of-day uniformity: T = (1/2)
    SUM |D_i - 1/n| over the n arc gaps between successive events on
    the unit circle (wrap-around included) — sensitive to multimodal
    clumping that mean-direction tests miss entirely. Tie runs
    collapse exactly: a cell with c events contributes (c-1) zero
    gaps of |0 - 1/n| each plus one gap to the next distinct second.
    Same shared histogram."""
    g = _second_of_day_hist(sf_dir)
    c = g["c"].to_numpy("int64").astype("float64")
    u = g["sec"].to_numpy("int64").astype("float64") / 86400.0
    n = float(c.sum())
    lam = 1.0 / n
    zero_part = float(((c - 1.0) * lam).sum())
    gaps = np.diff(u)
    wrap = 1.0 - u[-1] + u[0]
    gap_part = float(np.abs(gaps - lam).sum()) + abs(wrap - lam)
    t = 0.5 * (zero_part + gap_part)
    return pd.DataFrame(
        {
            "n_events": pd.Series([int(n)], dtype="int64"),
            "rao_t": [round(t, 6)],
            "rao_t_degrees": [round(t * 360.0, 4)],
        }
    )


RAO_SPACING_TIME_OF_DAY_SQL = (
    _SEC_HIST_SQL
    + """,
gp AS (
  SELECT u, c,
         lead(u) OVER (ORDER BY u) AS nxt,
         first_value(u) OVER (ORDER BY u
           ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING) AS firstu
  FROM hh
),
parts AS (
  SELECT sum((c - 1.0) / (SELECT n FROM nn)) AS zero_part,
         sum(CASE WHEN nxt IS NOT NULL
                  THEN abs(nxt - u - 1.0 / (SELECT n FROM nn))
                  ELSE abs(1.0 - u + firstu - 1.0 / (SELECT n FROM nn)) END) AS gap_part
  FROM gp
)
SELECT CAST((SELECT n FROM nn) AS BIGINT) AS n_events,
       round(0.5 * (zero_part + gap_part), 6) AS rao_t,
       round(0.5 * (zero_part + gap_part) * 360.0, 4) AS rao_t_degrees
FROM parts
"""
)


# ---------------------------------------------------------------------------
# multivariate information measures of (event_type, weekday, hour band)
# ---------------------------------------------------------------------------

def _tdb_cube(sf_dir: str) -> pd.DataFrame:
    """Shared 3-way count cube over (event_type, ISO weekday,
    6-hour band) — the joint distribution behind the multivariate-
    information pair. ONE bucketed aggregate; ~|types| x 7 x 4
    cells."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "events", columns=["event_type", "ts"])

    def _prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "t": df["event_type"],
                "d": (df["ts"].dt.dayofweek + 1).astype("int64"),
                "b": (df["ts"].dt.hour // 6).astype("int64"),
                "one": np.int64(1),
            }
        ).groupby(["t", "d", "b"], as_index=False).agg(c=("one", "sum"))

    return bucketed_aggregate(
        ds.map_batches(_prep, batch_format="pandas"),
        ["t", "d", "b"],
        {"c": ("c", "sum")},
        num_buckets=4,
    ).to_pandas()


def _cube_entropies(cube: pd.DataFrame) -> dict[str, float]:
    """All seven marginal/joint Shannon entropies (bits) of the
    (t, d, b) cube."""
    n = float(cube["c"].sum())

    def _h(keys) -> float:
        p = cube.groupby(keys)["c"].sum().to_numpy("float64") / n
        return float(-(p * np.log2(p)).sum())

    return {
        "x": _h(["t"]), "y": _h(["d"]), "z": _h(["b"]),
        "xy": _h(["t", "d"]), "xz": _h(["t", "b"]), "yz": _h(["d", "b"]),
        "xyz": _h(["t", "d", "b"]), "n": n,
    }


def interaction_information_events(sf_dir: str) -> pd.DataFrame:
    """McGill interaction information of (event_type, weekday,
    hour band): I(X;Y;Z) = H(X)+H(Y)+H(Z) - H(XY) - H(XZ) - H(YZ)
    + H(XYZ) = I(X;Y) - I(X;Y|Z), in bits — positive = redundancy
    (the weekday/type association is explained by hour band),
    negative = synergy (conditioning REVEALS association) — the
    three-way completion of the pairwise MI queries. Shared cube
    reduction; entropy math on ~140 cells."""
    h = _cube_entropies(_tdb_cube(sf_dir))
    i_xy = h["x"] + h["y"] - h["xy"]
    inter = h["x"] + h["y"] + h["z"] - h["xy"] - h["xz"] - h["yz"] + h["xyz"]
    return pd.DataFrame(
        {
            "n_events": pd.Series([int(h["n"])], dtype="int64"),
            "i_type_dow": [round(i_xy, 6)],
            "i_type_dow_given_band": [round(i_xy - inter, 6)],
            "interaction_info": [round(inter, 6)],
        }
    )


_TDB_CUBE_SQL = """
WITH cube_ AS (
  SELECT event_type AS t, isodow(ts) AS d, date_part('hour', ts) // 6 AS b,
         count(*) AS c
  FROM events GROUP BY 1, 2, 3
),
nn AS (SELECT sum(c) * 1.0 AS n FROM cube_),
hx AS (SELECT -sum(p * log2(p)) AS h FROM (
  SELECT sum(c) / (SELECT n FROM nn) AS p FROM cube_ GROUP BY t)),
hy AS (SELECT -sum(p * log2(p)) AS h FROM (
  SELECT sum(c) / (SELECT n FROM nn) AS p FROM cube_ GROUP BY d)),
hz AS (SELECT -sum(p * log2(p)) AS h FROM (
  SELECT sum(c) / (SELECT n FROM nn) AS p FROM cube_ GROUP BY b)),
hxy AS (SELECT -sum(p * log2(p)) AS h FROM (
  SELECT sum(c) / (SELECT n FROM nn) AS p FROM cube_ GROUP BY t, d)),
hxz AS (SELECT -sum(p * log2(p)) AS h FROM (
  SELECT sum(c) / (SELECT n FROM nn) AS p FROM cube_ GROUP BY t, b)),
hyz AS (SELECT -sum(p * log2(p)) AS h FROM (
  SELECT sum(c) / (SELECT n FROM nn) AS p FROM cube_ GROUP BY d, b)),
hxyz AS (SELECT -sum(c / (SELECT n FROM nn) * log2(c / (SELECT n FROM nn))) AS h
  FROM cube_)
"""

INTERACTION_INFORMATION_EVENTS_SQL = (
    _TDB_CUBE_SQL
    + """
SELECT CAST((SELECT n FROM nn) AS BIGINT) AS n_events,
       round((SELECT h FROM hx) + (SELECT h FROM hy) - (SELECT h FROM hxy), 6)
         AS i_type_dow,
       round(((SELECT h FROM hx) + (SELECT h FROM hy) - (SELECT h FROM hxy))
             - ((SELECT h FROM hx) + (SELECT h FROM hy) + (SELECT h FROM hz)
                - (SELECT h FROM hxy) - (SELECT h FROM hxz) - (SELECT h FROM hyz)
                + (SELECT h FROM hxyz)), 6) AS i_type_dow_given_band,
       round((SELECT h FROM hx) + (SELECT h FROM hy) + (SELECT h FROM hz)
             - (SELECT h FROM hxy) - (SELECT h FROM hxz) - (SELECT h FROM hyz)
             + (SELECT h FROM hxyz), 6) AS interaction_info
"""
)


def o_information_events(sf_dir: str) -> pd.DataFrame:
    """Total correlation C = SUM H(marginals) - H(joint), dual total
    correlation D = H(XY)+H(XZ)+H(YZ) - 2 H(XYZ), and the
    O-information O = C - D (Rosas 2019) of the same triple — O > 0
    means the system is redundancy-dominated, O < 0 synergy-
    dominated; the modern scalar verdict on top of the McGill sign.
    Same shared cube."""
    h = _cube_entropies(_tdb_cube(sf_dir))
    c = h["x"] + h["y"] + h["z"] - h["xyz"]
    d = h["xy"] + h["xz"] + h["yz"] - 2.0 * h["xyz"]
    return pd.DataFrame(
        {
            "n_events": pd.Series([int(h["n"])], dtype="int64"),
            "total_correlation": [round(c, 6)],
            "dual_total_correlation": [round(d, 6)],
            "o_information": [round(c - d, 6)],
        }
    )


O_INFORMATION_EVENTS_SQL = (
    _TDB_CUBE_SQL
    + """
SELECT CAST((SELECT n FROM nn) AS BIGINT) AS n_events,
       round((SELECT h FROM hx) + (SELECT h FROM hy) + (SELECT h FROM hz)
             - (SELECT h FROM hxyz), 6) AS total_correlation,
       round((SELECT h FROM hxy) + (SELECT h FROM hxz) + (SELECT h FROM hyz)
             - 2.0 * (SELECT h FROM hxyz), 6) AS dual_total_correlation,
       round(((SELECT h FROM hx) + (SELECT h FROM hy) + (SELECT h FROM hz)
              - (SELECT h FROM hxyz))
             - ((SELECT h FROM hxy) + (SELECT h FROM hxz) + (SELECT h FROM hyz)
                - 2.0 * (SELECT h FROM hxyz)), 6) AS o_information
"""
)


# ---------------------------------------------------------------------------
# Erlang capacity planning from the peak-hour arrival rate
# ---------------------------------------------------------------------------

_ERLANG_SERVICE_S = 180.0  # assumed mean handle time (seconds), documented constant


def _peak_hour_lambda(sf_dir: str):
    """Shared peak-hour arrival rate: events per hour in the busiest
    hour-of-day, averaged over the distinct days in the data (peak =
    argmax average count, smallest hour on ties). ONE bucketed
    (hour, day) -> hour count reduction."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "events", columns=["ts"])

    def _prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "h": df["ts"].dt.hour.astype("int64"),
                "d": df["ts"].dt.floor("D"),
                "one": np.int64(1),
            }
        ).groupby(["h", "d"], as_index=False).agg(c=("one", "sum"))

    g = bucketed_aggregate(
        ds.map_batches(_prep, batch_format="pandas"),
        ["h", "d"],
        {"c": ("c", "sum")},
        num_buckets=8,
    ).to_pandas()
    n_days = g["d"].nunique()
    per_h = g.groupby("h")["c"].sum().sort_index()
    lam = per_h / n_days
    peak = int(lam.idxmax())  # pandas idxmax -> first (smallest h) on ties
    return peak, float(lam.loc[peak])


def _erlang_terms(a: float, n: int) -> float:
    """SUM_{k=0..n} A^k/k! normalized by the n-th term (stable via
    lgamma) — the shared kernel of both Erlang formulas."""
    from math import lgamma, log

    ref = n * log(a) - lgamma(n + 1)
    return float(
        sum(np.exp(k * log(a) - lgamma(k + 1) - ref) for k in range(0, n + 1))
    )


def erlang_c_staffing(sf_dir: str, target_pwait: float = 0.2) -> pd.DataFrame:
    """Erlang-C staffing plan for the peak hour: with arrival rate
    lambda = busiest hour-of-day average and a documented 180 s mean
    handle time, offered load A = lambda s / 3600 erlangs; the
    smallest agent count N > A with delay probability P_wait =
    (A^N/N! N/(N-A)) / (SUM_{k<N} A^k/k! + A^N/N! N/(N-A)) <= 0.2,
    plus that P_wait and the average speed of answer P_wait s/(N-A)
    — the queueing-theory capacity answer computed identically (lgamma
    -normalized sums) in both engines."""
    peak, lam = _peak_hour_lambda(sf_dir)
    a = lam * _ERLANG_SERVICE_S / 3600.0
    n = int(np.floor(a)) + 1
    while True:
        s_all = _erlang_terms(a, n)  # sum_{k<=n} / term_n
        # p_wait = term_n*(n/(n-a)) / (sum_{k<n} + term_n*n/(n-a)); normalize by term_n:
        c_fac = n / (n - a)
        p_wait = c_fac / ((s_all - 1.0) + c_fac)
        if p_wait <= target_pwait or n > 500:
            break
        n += 1
    asa = p_wait * _ERLANG_SERVICE_S / (n - a)
    return pd.DataFrame(
        {
            "peak_hour": pd.Series([peak], dtype="int64"),
            "lambda_per_hour": [round(lam, 6)],
            "offered_erlangs": [round(a, 6)],
            "n_agents": pd.Series([n], dtype="int64"),
            "p_wait": [round(p_wait, 6)],
            "asa_seconds": [round(asa, 6)],
        }
    )


_PEAK_LAMBDA_SQL = """
WITH g AS (
  SELECT date_part('hour', ts) AS h, count(*) * 1.0 AS c FROM events GROUP BY 1
),
dd AS (SELECT count(DISTINCT date_trunc('day', ts)) * 1.0 AS nd FROM events),
lamt AS (
  SELECT h, c / (SELECT nd FROM dd) AS lam FROM g
),
pk AS (SELECT h, lam FROM lamt ORDER BY lam DESC, h LIMIT 1),
aa AS (SELECT h, lam, lam * 180.0 / 3600.0 AS a FROM pk)
"""

ERLANG_C_STAFFING_SQL = (
    _PEAK_LAMBDA_SQL
    + """,
cand AS (
  SELECT nn.n, aa.h, aa.lam, aa.a,
         (nn.n / (nn.n - aa.a))
           / ((SELECT sum(exp(k.k * ln(aa.a) - lgamma(k.k + 1)
                              - (nn.n * ln(aa.a) - lgamma(nn.n + 1))))
               FROM (SELECT unnest(generate_series(0, CAST(nn.n AS BIGINT))) AS k) k)
              - 1.0 + nn.n / (nn.n - aa.a)) AS p_wait
  FROM aa, (SELECT unnest(generate_series(1, 500)) AS n) nn
  WHERE nn.n > aa.a
),
best AS (
  SELECT * FROM cand WHERE p_wait <= 0.2 ORDER BY n LIMIT 1
)
SELECT CAST(h AS BIGINT) AS peak_hour,
       round(lam, 6) AS lambda_per_hour,
       round(a, 6) AS offered_erlangs,
       CAST(n AS BIGINT) AS n_agents,
       round(p_wait, 6) AS p_wait,
       round(p_wait * 180.0 / (n - a), 6) AS asa_seconds
FROM best
"""
)


def erlang_b_blocking(sf_dir: str, target_block: float = 0.01) -> pd.DataFrame:
    """Erlang-B (loss-system) sizing for the same peak load: blocking
    B(N, A) = (A^N/N!) / SUM_{k<=N} A^k/k! at N = ceil(A) trunks, and
    the smallest N with blocking <= 1% — the no-queue companion of
    the Erlang-C plan (calls that find all trunks busy are lost, not
    queued). Same shared peak-lambda reduction and lgamma kernel."""
    peak, lam = _peak_hour_lambda(sf_dir)
    a = lam * _ERLANG_SERVICE_S / 3600.0
    n0 = int(np.ceil(a))
    b0 = 1.0 / _erlang_terms(a, n0)
    n = n0
    while True:
        b = 1.0 / _erlang_terms(a, n)
        if b <= target_block or n > 500:
            break
        n += 1
    return pd.DataFrame(
        {
            "offered_erlangs": [round(a, 6)],
            "block_at_ceil": [round(b0, 6)],
            "n_trunks_1pct": pd.Series([n], dtype="int64"),
            "block_at_n": [round(b, 6)],
        }
    )


ERLANG_B_BLOCKING_SQL = (
    _PEAK_LAMBDA_SQL
    + """,
cand AS (
  SELECT nn.n, aa.a,
         1.0 / (SELECT sum(exp(k.k * ln(aa.a) - lgamma(k.k + 1)
                               - (nn.n * ln(aa.a) - lgamma(nn.n + 1))))
                FROM (SELECT unnest(generate_series(0, CAST(nn.n AS BIGINT))) AS k) k)
           AS b
  FROM aa, (SELECT unnest(generate_series(1, 500)) AS n) nn
),
c0 AS (SELECT b FROM cand, aa WHERE cand.n = CAST(ceil(aa.a) AS BIGINT)),
best AS (SELECT n, b FROM cand WHERE b <= 0.01 ORDER BY n LIMIT 1)
SELECT round((SELECT a FROM aa), 6) AS offered_erlangs,
       round((SELECT b FROM c0), 6) AS block_at_ceil,
       CAST((SELECT n FROM best) AS BIGINT) AS n_trunks_1pct,
       round((SELECT b FROM best), 6) AS block_at_n
"""
)


# ---------------------------------------------------------------------------
# Engle-Granger cointegration of daily views and purchases
# ---------------------------------------------------------------------------

def _eg_residuals(sf_dir: str):
    """Stage 1 of Engle-Granger on the shared daily view/purchase
    series: OLS purchases = alpha + beta views, returning the
    residual vector (day-dimension scale) and the fit."""
    v, p = _daily_view_purchase_series(sf_dir)
    n = float(len(v))
    sx, sy = float(v.sum()), float(p.sum())
    sxx, sxy = float((v * v).sum()), float((v * p).sum())
    beta = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    alpha = (sy - beta * sx) / n
    e = p - alpha - beta * v
    return v, p, alpha, beta, e


def engle_granger_views_purchases(sf_dir: str) -> pd.DataFrame:
    """Engle-Granger two-step cointegration test between the daily
    view and purchase count series: stage-1 OLS purchases on views,
    then the no-lag Dickey-Fuller regression of delta e_t on e_(t-1)
    over the residuals — a strongly negative DF t (fast mean
    reversion of the residual) is the cointegration signature tying
    the two series to a common trend. Reports alpha, beta, the DF
    coefficient gamma, and its t statistic. Shared daily reduction;
    all regressions are closed-form moment sums."""
    v, p, alpha, beta, e = _eg_residuals(sf_dir)
    x = e[:-1]
    y = np.diff(e)
    m = float(len(x))
    sx, sy = float(x.sum()), float(y.sum())
    sxx, sxy = float((x * x).sum()), float((x * y).sum())
    syy = float((y * y).sum())
    g = (m * sxy - sx * sy) / (m * sxx - sx * sx)
    a2 = (sy - g * sx) / m
    sse = syy - a2 * sy - g * sxy
    se_g = np.sqrt((sse / (m - 2.0)) / (sxx - sx * sx / m))
    return pd.DataFrame(
        {
            "alpha": [round(alpha, 6)],
            "beta": [round(beta, 6)],
            "df_gamma": [round(g, 6)],
            "df_t": [round(float(g / se_g), 6)],
        }
    )


_EG_BASE_SQL = (
    _DAILY_VP_SQL
    + """,
f1 AS (
  SELECT count(*) * 1.0 AS n, sum(v) AS sx, sum(p) AS sy,
         sum(v * v) AS sxx, sum(v * p) AS sxy
  FROM filled
),
ab AS (
  SELECT (n * sxy - sx * sy) / (n * sxx - sx * sx) AS beta,
         (sy - (n * sxy - sx * sy) / (n * sxx - sx * sx) * sx) / n AS alpha
  FROM f1
),
res AS (
  SELECT t, p - (SELECT alpha FROM ab) - (SELECT beta FROM ab) * v AS e
  FROM filled
),
lagd AS (
  SELECT e - lag(e) OVER (ORDER BY t) AS dy, lag(e) OVER (ORDER BY t) AS x
  FROM res
),
d AS (SELECT dy, x FROM lagd WHERE x IS NOT NULL)
"""
)

ENGLE_GRANGER_VIEWS_PURCHASES_SQL = (
    _EG_BASE_SQL
    + """,
f2 AS (
  SELECT count(*) * 1.0 AS m, sum(x) AS sx, sum(dy) AS sy,
         sum(x * x) AS sxx, sum(x * dy) AS sxy, sum(dy * dy) AS syy
  FROM d
),
g2 AS (
  SELECT m, sxx, sx,
         (m * sxy - sx * sy) / (m * sxx - sx * sx) AS g,
         (sy - (m * sxy - sx * sy) / (m * sxx - sx * sx) * sx) / m AS a2,
         sy, sxy, syy
  FROM f2
)
SELECT round((SELECT alpha FROM ab), 6) AS alpha,
       round((SELECT beta FROM ab), 6) AS beta,
       round(g, 6) AS df_gamma,
       round(g / sqrt(((syy - a2 * sy - g * sxy) / (m - 2.0))
                      / (sxx - sx * sx / m)), 6) AS df_t
FROM g2
"""
)


def error_correction_model_views_purchases(sf_dir: str) -> pd.DataFrame:
    """Stage-2 error-correction model on the same pair: OLS of
    delta purchases_t on delta views_t and the lagged equilibrium
    error e_(t-1) — the short-run pass-through coefficient and the
    error-correction speed (a negative lambda is the fraction of
    yesterday's disequilibrium closed today; Granger's representation
    theorem says cointegration forces lambda < 0). Closed-form 2-
    regressor OLS on the shared residual series."""
    v, p, alpha, beta, e = _eg_residuals(sf_dir)
    dv = np.diff(v)
    dp = np.diff(p)
    ec = e[:-1]
    m = float(len(dv))
    x1, x2, y = dv, ec, dp
    s1, s2, sy = float(x1.sum()), float(x2.sum()), float(y.sum())
    s11 = float((x1 * x1).sum()) - s1 * s1 / m
    s22 = float((x2 * x2).sum()) - s2 * s2 / m
    s12 = float((x1 * x2).sum()) - s1 * s2 / m
    s1y = float((x1 * y).sum()) - s1 * sy / m
    s2y = float((x2 * y).sum()) - s2 * sy / m
    det = s11 * s22 - s12 * s12
    b1 = (s22 * s1y - s12 * s2y) / det
    b2 = (s11 * s2y - s12 * s1y) / det
    return pd.DataFrame(
        {
            "short_run_beta": [round(b1, 6)],
            "ec_lambda": [round(b2, 6)],
        }
    )


ERROR_CORRECTION_MODEL_VIEWS_PURCHASES_SQL = (
    _EG_BASE_SQL
    + """,
ecd AS (
  SELECT f.t,
         f.p - lag(f.p) OVER (ORDER BY f.t) AS dp,
         f.v - lag(f.v) OVER (ORDER BY f.t) AS dv,
         lag(r.e) OVER (ORDER BY f.t) AS ec
  FROM filled f JOIN res r ON r.t = f.t
),
e2 AS (SELECT dp, dv, ec FROM ecd WHERE ec IS NOT NULL AND dv IS NOT NULL),
mm AS (
  SELECT count(*) * 1.0 AS m, sum(dv) AS s1, sum(ec) AS s2, sum(dp) AS sy,
         sum(dv * dv) AS q11, sum(ec * ec) AS q22, sum(dv * ec) AS q12,
         sum(dv * dp) AS q1y, sum(ec * dp) AS q2y
  FROM e2
),
cc AS (
  SELECT q11 - s1 * s1 / m AS s11, q22 - s2 * s2 / m AS s22,
         q12 - s1 * s2 / m AS s12, q1y - s1 * sy / m AS s1y,
         q2y - s2 * sy / m AS s2y
  FROM mm
)
SELECT round((s22 * s1y - s12 * s2y) / (s11 * s22 - s12 * s12), 6) AS short_run_beta,
       round((s11 * s2y - s12 * s1y) / (s11 * s22 - s12 * s12), 6) AS ec_lambda
FROM cc
"""
)


# ---------------------------------------------------------------------------
# competing risks: first purchase vs first error after a user's first event
# ---------------------------------------------------------------------------

def _competing_durations(sf_dir: str) -> pd.DataFrame:
    """Shared competing-risks duration grid: per user, time in whole
    days from the FIRST event to the first subsequent purchase
    (cause 1) or error (cause 2), whichever comes first (purchase
    wins exact ties); users with neither are censored (cause 0) at
    the global last timestamp. ONE bucketed (user, type) min-ts
    aggregate; returns the (dur, d1, d2, dc) day-grid counts."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "events", columns=["user_id", "event_type", "ts"])
    globmax = pd.Timestamp(ds.max("ts")).floor("D")

    def _prep(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["user_id", "event_type"], as_index=False)["ts"].min().rename(
            columns={"ts": "t"}
        )

    per = bucketed_aggregate(
        ds.map_batches(_prep, batch_format="pandas"),
        ["user_id", "event_type"],
        {"t": ("t", "min")},
    ).to_pandas()
    t0 = per.groupby("user_id")["t"].min()
    piv = per.pivot(index="user_id", columns="event_type", values="t")
    tp = piv["purchase"] if "purchase" in piv else pd.Series(pd.NaT, index=piv.index)
    te = piv["error"] if "error" in piv else pd.Series(pd.NaT, index=piv.index)
    tp = tp.where(tp > t0)
    te = te.where(te > t0)
    cause = np.where(
        tp.notna() & (te.isna() | (tp <= te)), 1, np.where(te.notna(), 2, 0)
    )
    end = pd.Series(
        np.where(cause == 1, tp.dt.floor("D"), np.where(cause == 2, te.dt.floor("D"), globmax)),
        index=piv.index,
    )
    dur = (pd.to_datetime(end) - t0.dt.floor("D")).dt.days.astype("int64")
    g = pd.DataFrame({"dur": dur, "cause": cause})
    grid = (
        g.groupby("dur")
        .agg(
            d1=("cause", lambda c: int((c == 1).sum())),
            d2=("cause", lambda c: int((c == 2).sum())),
            dc=("cause", lambda c: int((c == 0).sum())),
        )
        .reset_index()
        .sort_values("dur")
        .reset_index(drop=True)
    )
    return grid


_CR_HORIZONS = (7, 30, 90, 180)


def _cif_curves(grid: pd.DataFrame):
    """Aalen-Johansen CIFs and the error-censored 1-KM curve for
    cause 1 on the day grid (ln-guarded at a terminal event)."""
    d1 = grid["d1"].to_numpy("int64").astype("float64")
    d2 = grid["d2"].to_numpy("int64").astype("float64")
    dc = grid["dc"].to_numpy("int64").astype("float64")
    allc = d1 + d2 + dc
    total = float(allc.sum())
    n_at = total - np.concatenate([[0.0], np.cumsum(allc)[:-1]])
    d = d1 + d2
    ln_terms = np.where((d > 0) & (n_at > d), np.log(np.maximum(1.0 - d / n_at, 1e-300)), 0.0)
    s_prev = np.exp(np.concatenate([[0.0], np.cumsum(ln_terms)[:-1]]))
    cif1 = np.cumsum(s_prev * d1 / n_at)
    cif2 = np.cumsum(s_prev * d2 / n_at)
    ln_km = np.where((d1 > 0) & (n_at > d1), np.log(np.maximum(1.0 - d1 / n_at, 1e-300)), 0.0)
    one_minus_km1 = 1.0 - np.exp(np.cumsum(ln_km))
    return cif1, cif2, one_minus_km1


def competing_risks_cif(sf_dir: str) -> pd.DataFrame:
    """Aalen-Johansen cumulative incidence of the two COMPETING
    outcomes after a user's first event — purchase (cause 1) vs error
    (cause 2): CIF_k(t) = SUM_(s<=t) S(s-) d_k(s)/n(s) with the
    overall-survival prefix product as exp of summed logs — at the
    7/30/90/180-day horizons, with the all-cause survival. The
    correct competing-risks estimand (CIFs sum with survival to 1;
    per-cause KMs don't). Shared per-user duration reduction."""
    grid = _competing_durations(sf_dir)
    cif1, cif2, _ = _cif_curves(grid)
    dur = grid["dur"].to_numpy("int64")
    rows = []
    for h in _CR_HORIZONS:
        sel = dur <= h
        c1 = float(cif1[sel][-1]) if sel.any() else 0.0
        c2 = float(cif2[sel][-1]) if sel.any() else 0.0
        rows.append(
            {
                "horizon_days": np.int64(h),
                "cif_purchase": round(c1, 6),
                "cif_error": round(c2, 6),
                "surv_all": round(1.0 - c1 - c2, 6),
            }
        )
    out = pd.DataFrame(rows)
    out["horizon_days"] = out["horizon_days"].astype("int64")
    return out


_CR_GRID_SQL = """
WITH per AS (
  SELECT user_id, event_type, min(ts) AS t FROM events GROUP BY 1, 2
),
t0 AS (SELECT user_id, min(t) AS t0 FROM per GROUP BY 1),
w AS (
  SELECT t0.user_id, t0.t0,
         (SELECT min(t) FROM per p WHERE p.user_id = t0.user_id
          AND p.event_type = 'purchase' AND p.t > t0.t0) AS tp,
         (SELECT min(t) FROM per p WHERE p.user_id = t0.user_id
          AND p.event_type = 'error' AND p.t > t0.t0) AS te
  FROM t0
),
cz AS (
  SELECT user_id, t0,
         CASE WHEN tp IS NOT NULL AND (te IS NULL OR tp <= te) THEN 1
              WHEN te IS NOT NULL THEN 2 ELSE 0 END AS cause,
         CASE WHEN tp IS NOT NULL AND (te IS NULL OR tp <= te) THEN tp
              WHEN te IS NOT NULL THEN te
              ELSE (SELECT max(ts) FROM events) END AS tend
  FROM w
),
durs AS (
  SELECT datediff('day', date_trunc('day', t0), date_trunc('day', tend)) AS dur,
         cause
  FROM cz
),
grid AS (
  SELECT dur,
         sum(CASE WHEN cause = 1 THEN 1 ELSE 0 END) * 1.0 AS d1,
         sum(CASE WHEN cause = 2 THEN 1 ELSE 0 END) * 1.0 AS d2,
         count(*) * 1.0 AS allc
  FROM durs GROUP BY 1
),
tot AS (SELECT sum(allc) AS n FROM grid),
g2 AS (
  SELECT dur, d1, d2,
         (SELECT n FROM tot) - (sum(allc) OVER (ORDER BY dur) - allc) AS n_at,
         d1 + d2 AS d
  FROM grid
),
g3 AS (
  SELECT dur, d1, d2, n_at, d,
         exp(coalesce(sum(CASE WHEN d > 0 AND n_at > d
                          THEN ln(1.0 - d / n_at) ELSE 0 END)
             OVER (ORDER BY dur ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
             0.0)) AS s_prev,
         exp(sum(CASE WHEN d1 > 0 AND n_at > d1
                 THEN ln(1.0 - d1 / n_at) ELSE 0 END)
             OVER (ORDER BY dur)) AS km1
  FROM g2
),
curves AS (
  SELECT dur,
         sum(s_prev * d1 / n_at) OVER (ORDER BY dur) AS cif1,
         sum(s_prev * d2 / n_at) OVER (ORDER BY dur) AS cif2,
         1.0 - km1 AS one_minus_km1
  FROM g3
)
"""

COMPETING_RISKS_CIF_SQL = (
    _CR_GRID_SQL
    + """
SELECT CAST(h.h AS BIGINT) AS horizon_days,
       round(coalesce((SELECT cif1 FROM curves WHERE dur <= h.h
                       ORDER BY dur DESC LIMIT 1), 0.0), 6) AS cif_purchase,
       round(coalesce((SELECT cif2 FROM curves WHERE dur <= h.h
                       ORDER BY dur DESC LIMIT 1), 0.0), 6) AS cif_error,
       round(1.0 - coalesce((SELECT cif1 FROM curves WHERE dur <= h.h
                             ORDER BY dur DESC LIMIT 1), 0.0)
                 - coalesce((SELECT cif2 FROM curves WHERE dur <= h.h
                             ORDER BY dur DESC LIMIT 1), 0.0), 6) AS surv_all
FROM (SELECT unnest([7, 30, 90, 180]) AS h) h ORDER BY 1
"""
)


def km_vs_cif_fallacy(sf_dir: str) -> pd.DataFrame:
    """The competing-risks fallacy, quantified: 1 - KM for purchase
    with errors treated as mere censoring vs the proper Aalen-
    Johansen CIF at the same horizons — 1-KM answers 'if errors were
    abolished' under an independence assumption and ALWAYS
    overestimates real-world incidence; the gap column is the size
    of the mistake. Same shared duration grid."""
    grid = _competing_durations(sf_dir)
    cif1, _, omk = _cif_curves(grid)
    dur = grid["dur"].to_numpy("int64")
    rows = []
    for h in _CR_HORIZONS:
        sel = dur <= h
        c1 = float(cif1[sel][-1]) if sel.any() else 0.0
        k1 = float(omk[sel][-1]) if sel.any() else 0.0
        rows.append(
            {
                "horizon_days": np.int64(h),
                "one_minus_km": round(k1, 6),
                "cif": round(c1, 6),
                "overestimate": round(k1 - c1, 6),
            }
        )
    out = pd.DataFrame(rows)
    out["horizon_days"] = out["horizon_days"].astype("int64")
    return out


KM_VS_CIF_FALLACY_SQL = (
    _CR_GRID_SQL
    + """
SELECT CAST(h.h AS BIGINT) AS horizon_days,
       round(coalesce((SELECT one_minus_km1 FROM curves WHERE dur <= h.h
                       ORDER BY dur DESC LIMIT 1), 0.0), 6) AS one_minus_km,
       round(coalesce((SELECT cif1 FROM curves WHERE dur <= h.h
                       ORDER BY dur DESC LIMIT 1), 0.0), 6) AS cif,
       round(coalesce((SELECT one_minus_km1 FROM curves WHERE dur <= h.h
                       ORDER BY dur DESC LIMIT 1), 0.0)
             - coalesce((SELECT cif1 FROM curves WHERE dur <= h.h
                         ORDER BY dur DESC LIMIT 1), 0.0), 6) AS overestimate
FROM (SELECT unnest([7, 30, 90, 180]) AS h) h ORDER BY 1
"""
)


# ---------------------------------------------------------------------------
# experimentation trust checks: SRM + A/A bucket homogeneity
# ---------------------------------------------------------------------------

def _user_bucket_grid(sf_dir: str) -> pd.DataFrame:
    """Shared 10-cell reduction for the experimentation trust pair:
    each DISTINCT user assigned to a deterministic hash bucket
    (user_id % 10 — the arm-assignment primitive real experiment
    systems hash into), with the bucket's user count and converted
    count (ever fired a 'purchase'). One bucketed per-user aggregate,
    then a 10-row grid on the driver."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "events", columns=["user_id", "event_type"])

    def _prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "user_id": df["user_id"],
                "pur": (df["event_type"] == "purchase").astype("int64"),
            }
        )

    per_user = bucketed_aggregate(
        ds.map_batches(_prep, batch_format="pandas"),
        ["user_id"],
        {"pur": ("pur", "max")},
    )

    def _cells(df: pd.DataFrame) -> pd.DataFrame:
        b = df["user_id"].to_numpy("int64") % 10
        pur = df["pur"].to_numpy("int64")
        out = pd.DataFrame({"b": b, "n": 1, "x": pur})
        return out.groupby("b", as_index=False).sum()

    g = (
        per_user.map_batches(_cells, batch_format="pandas")
        .to_pandas()
        .groupby("b", as_index=False)
        .sum()
        .sort_values("b")
        .reset_index(drop=True)
    )
    return g


def srm_check_user_buckets(sf_dir: str) -> pd.DataFrame:
    """Sample-ratio-mismatch check of the 10-way deterministic hash
    split (user_id % 10): chi-square of the distinct-user bucket
    counts against the uniform 1/10 design allocation, with the
    largest absolute share deviation and its bucket — THE standard
    trust gate run before reading any experiment metric (a bucket
    count that fails SRM invalidates the readout regardless of the
    effect size). Counts are exact integers from one shared per-user
    reduction."""
    g = _user_bucket_grid(sf_dir)
    n = int(g["n"].sum())
    e = n / 10.0
    dev = g["n"].to_numpy("int64") - e
    chi2 = float((dev * dev / e).sum())
    shares = g["n"].to_numpy("int64") / n - 0.1
    worst = int(np.argmax(np.abs(shares)))
    return pd.DataFrame(
        {
            "n_users": pd.Series([n], dtype="int64"),
            "chi2_srm": [round(chi2, 6)],
            "max_share_dev": [round(float(np.abs(shares).max()), 6)],
            "worst_bucket": pd.Series([int(g["b"].iloc[worst])], dtype="int64"),
        }
    )


_BUCKET_GRID_SQL = """
WITH per AS (
  SELECT user_id,
         max(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END) AS pur
  FROM events GROUP BY user_id
),
g AS (
  SELECT user_id % 10 AS b, count(*) AS n, sum(pur) AS x
  FROM per GROUP BY 1
),
tot AS (SELECT sum(n) AS n, sum(x) AS x FROM g)
"""

SRM_CHECK_USER_BUCKETS_SQL = (
    _BUCKET_GRID_SQL
    + """
SELECT CAST((SELECT n FROM tot) AS BIGINT) AS n_users,
       round(sum((g.n - (SELECT n FROM tot) / 10.0)
                 * (g.n - (SELECT n FROM tot) / 10.0)
                 / ((SELECT n FROM tot) / 10.0)), 6) AS chi2_srm,
       round(max(abs(g.n * 1.0 / (SELECT n FROM tot) - 0.1)), 6) AS max_share_dev,
       CAST((SELECT b FROM g
             ORDER BY abs(g.n * 1.0 / (SELECT n FROM tot) - 0.1) DESC, b
             LIMIT 1) AS BIGINT) AS worst_bucket
FROM g
"""
)


def aa_bucket_conversion_homogeneity(sf_dir: str) -> pd.DataFrame:
    """A/A calibration of the same 10 hash buckets on the purchase-
    conversion metric: the 10x2 homogeneity chi-square
    SUM (x_b - n_b pbar)^2 / (n_b pbar (1 - pbar)) on 9 df — under a
    clean instrument every bucket is an A arm and the statistic sits
    near its df; an inflated value means the 'randomization' unit
    leaks signal and all downstream CIs are too narrow. Reports the
    pooled rate and the min/max bucket conversion spread from the
    shared 10-cell grid."""
    g = _user_bucket_grid(sf_dir)
    n = int(g["n"].sum())
    x = int(g["x"].sum())
    pbar = x / n
    nb = g["n"].to_numpy("int64").astype("float64")
    xb = g["x"].to_numpy("int64").astype("float64")
    if x == 0 or x == n:
        # degenerate metric (all or no users convert): nothing to test
        chi2 = 0.0
    else:
        chi2 = float(((xb - nb * pbar) ** 2 / (nb * pbar * (1.0 - pbar))).sum())
    rates = xb / nb
    return pd.DataFrame(
        {
            "n_users": pd.Series([n], dtype="int64"),
            "pooled_conv": [round(pbar, 6)],
            "chi2_homog": [round(chi2, 6)],
            "min_bucket_conv": [round(float(rates.min()), 6)],
            "max_bucket_conv": [round(float(rates.max()), 6)],
        }
    )


AA_BUCKET_CONVERSION_HOMOGENEITY_SQL = (
    _BUCKET_GRID_SQL
    + """
SELECT CAST((SELECT n FROM tot) AS BIGINT) AS n_users,
       round((SELECT x * 1.0 / n FROM tot), 6) AS pooled_conv,
       round(CASE WHEN (SELECT x FROM tot) = 0 OR (SELECT x FROM tot) = (SELECT n FROM tot)
                  THEN 0.0
                  ELSE sum((g.x - g.n * (SELECT x * 1.0 / n FROM tot))
                           * (g.x - g.n * (SELECT x * 1.0 / n FROM tot))
                           / (g.n * (SELECT x * 1.0 / n FROM tot)
                              * (1.0 - (SELECT x * 1.0 / n FROM tot))))
             END, 6) AS chi2_homog,
       round(min(g.x * 1.0 / g.n), 6) AS min_bucket_conv,
       round(max(g.x * 1.0 / g.n), 6) AS max_bucket_conv
FROM g
"""
)


# ---------------------------------------------------------------------------
# recurrent events: Nelson's mean cumulative function for purchases
# ---------------------------------------------------------------------------

def _mcf_grid(sf_dir: str):
    """Shared reduction for the recurrent-event pair: per-user entry
    t0 = first event (any type), administrative censoring at the
    global last day, recurrent purchases = every 'purchase' event
    strictly after t0 at whole-day age a = day(ts) - day(t0). Returns
    the (a, d) recurrence-count day grid, the per-user observation
    limit tau day histogram (for the risk set r(a) = #{tau >= a}),
    and n_users. One bucketed per-user min-ts pass + one broadcast-t0
    streaming pass over purchase events; both grids are result-sized."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "events", columns=["user_id", "event_type", "ts"])
    globmax = pd.Timestamp(ds.max("ts")).floor("D")

    def _prep(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("user_id", as_index=False)["ts"].min().rename(columns={"ts": "t0"})

    t0 = bucketed_aggregate(
        ds.map_batches(_prep, batch_format="pandas"),
        ["user_id"],
        {"t0": ("t0", "min")},
    ).to_pandas()
    n_users = len(t0)
    tau = (globmax - t0["t0"].dt.floor("D")).dt.days.astype("int64")
    tau_hist = tau.value_counts().sort_index()
    t0_map = ray.put(dict(zip(t0["user_id"].to_numpy("int64"), t0["t0"].to_numpy())))

    def _ages(df: pd.DataFrame) -> pd.DataFrame:
        m = ray.get(t0_map)
        df = df[df["event_type"] == "purchase"]
        if not len(df):
            return pd.DataFrame({"a": pd.Series([], dtype="int64"), "d": pd.Series([], dtype="int64")})
        ent = df["user_id"].map(m)
        keep = df["ts"].to_numpy() > ent.to_numpy()
        a = (
            (df["ts"][keep].dt.floor("D") - pd.to_datetime(ent[keep]).dt.floor("D"))
            .dt.days.astype("int64")
        )
        out = pd.DataFrame({"a": a, "d": 1})
        return out.groupby("a", as_index=False).sum()

    d_grid = (
        ds.map_batches(_ages, batch_format="pandas")
        .to_pandas()
        .groupby("a", as_index=False)
        .sum()
        .sort_values("a")
        .reset_index(drop=True)
    )
    return d_grid, tau_hist, n_users


_MCF_HORIZONS = (7, 30, 90, 180)


def _mcf_at_horizons(sf_dir: str):
    d_grid, tau_hist, n = _mcf_grid(sf_dir)
    a = d_grid["a"].to_numpy("int64")
    d = d_grid["d"].to_numpy("int64").astype("float64")
    tau_vals = tau_hist.index.to_numpy()
    tau_cnts = tau_hist.to_numpy()
    # r(a) = #users with tau >= a
    r = np.array([tau_cnts[tau_vals >= av].sum() for av in a], dtype="float64")
    inc = d / r
    rows = []
    for h in _MCF_HORIZONS:
        sel = a <= h
        rows.append(
            {
                "h": h,
                "mcf": float(inc[sel].sum()),
                "naive": float(d[sel].sum()) / n,
                "n_at_risk": int(tau_cnts[tau_vals >= h].sum()),
            }
        )
    return rows, n


def mcf_recurrent_purchases(sf_dir: str) -> pd.DataFrame:
    """Nelson's mean cumulative function for RECURRENT purchases
    after each user's first event: M(t) = SUM_(a<=t) d(a)/r(a), the
    nonparametric expected number of purchases per user by age t
    under staggered entry with administrative censoring at the
    dataset's last day — the recurrent-event estimand the first-
    event-only KM/Nelson-Aalen family cannot see (a user contributes
    EVERY repurchase, not just the first). Evaluated at the
    7/30/90/180-day horizons with the risk-set size still under
    observation at each."""
    rows, _ = _mcf_at_horizons(sf_dir)
    return pd.DataFrame(
        {
            "horizon_days": pd.Series([r["h"] for r in rows], dtype="int64"),
            "mcf": [round(r["mcf"], 6) for r in rows],
            "n_at_risk": pd.Series([r["n_at_risk"] for r in rows], dtype="int64"),
        }
    )


_MCF_BASE_SQL = """
WITH t0 AS (SELECT user_id, min(ts) AS t0 FROM events GROUP BY 1),
gm AS (SELECT CAST(max(ts) AS DATE) AS gmax FROM events),
tau AS (
  SELECT user_id,
         date_diff('day', CAST(t0 AS DATE), (SELECT gmax FROM gm)) AS tau
  FROM t0
),
ev AS (
  SELECT date_diff('day', CAST(t.t0 AS DATE), CAST(e.ts AS DATE)) AS a
  FROM events e JOIN t0 t USING (user_id)
  WHERE e.event_type = 'purchase' AND e.ts > t.t0
),
d AS (SELECT a, count(*) AS d FROM ev GROUP BY 1),
rg AS (
  SELECT d.a, d.d,
         (SELECT count(*) FROM tau WHERE tau.tau >= d.a) AS r
  FROM d
),
h AS (SELECT unnest([7, 30, 90, 180]) AS h)
"""

MCF_RECURRENT_PURCHASES_SQL = (
    _MCF_BASE_SQL
    + """
SELECT CAST(h.h AS BIGINT) AS horizon_days,
       round(coalesce(sum(rg.d * 1.0 / rg.r), 0.0), 6) AS mcf,
       CAST((SELECT count(*) FROM tau WHERE tau.tau >= h.h) AS BIGINT)
         AS n_at_risk
FROM h LEFT JOIN rg ON rg.a <= h.h
GROUP BY h.h ORDER BY 1
"""
)


def mcf_vs_naive_bias(sf_dir: str) -> pd.DataFrame:
    """The staggered-entry fallacy quantified for recurrent events:
    the naive per-user purchase curve N(t)/n divides ALL users into
    the denominator at every age even though late entrants are only
    observed for a short window, so it UNDERestimates the true
    per-user recurrence — the proper MCF shrinks the denominator to
    the still-observed risk set r(a). The gap column is the size of
    the mistake at each horizon (grows with age as observation
    windows run out). Same shared day grids."""
    rows, n = _mcf_at_horizons(sf_dir)
    return pd.DataFrame(
        {
            "horizon_days": pd.Series([r["h"] for r in rows], dtype="int64"),
            "naive_per_user": [round(r["naive"], 6) for r in rows],
            "mcf": [round(r["mcf"], 6) for r in rows],
            "underestimate": [round(r["mcf"] - r["naive"], 6) for r in rows],
        }
    )


MCF_VS_NAIVE_BIAS_SQL = (
    _MCF_BASE_SQL
    + """
SELECT CAST(h.h AS BIGINT) AS horizon_days,
       round(coalesce(sum(rg.d), 0) * 1.0 / (SELECT count(*) FROM t0), 6)
         AS naive_per_user,
       round(coalesce(sum(rg.d * 1.0 / rg.r), 0.0), 6) AS mcf,
       round(coalesce(sum(rg.d * 1.0 / rg.r), 0.0)
             - coalesce(sum(rg.d), 0) * 1.0 / (SELECT count(*) FROM t0), 6)
         AS underestimate
FROM h LEFT JOIN rg ON rg.a <= h.h
GROUP BY h.h ORDER BY 1
"""
)


# ---------------------------------------------------------------------------
# rare-event control charts: t-chart (time between) + g-chart (count between)
# ---------------------------------------------------------------------------

def t_chart_error_gaps(sf_dir: str) -> pd.DataFrame:
    """t-chart of the time between consecutive 'error' events — the
    SPC chart for adverse-event INTERVALS (c/p/u charts break down
    when the event is rare relative to the sampling window): under a
    stable Poisson process the gaps are exponential with the mean
    from the telescoping identity (max-min)/(n-1), and the 3-sigma-
    equivalent probability limits are UCL = -mean ln(0.00135) (a
    too-LONG gap = the process improved) and LCL = -mean ln(0.99865)
    (a too-SHORT gap = errors clustering). Counts of beyond-limit
    gaps come from per-day blocks diffed vectorized plus the O(days)
    boundary stitches — no global sort; exact integer microseconds
    against float limits."""
    ds = _read(sf_dir, "events", columns=["event_type", "ts", "event_id"]).map_batches(
        lambda df: df[df["event_type"] == "error"][["ts", "event_id"]],
        batch_format="pandas",
    )

    def _key(df: pd.DataFrame) -> pd.DataFrame:
        t = df["ts"].to_numpy("datetime64[us]").astype("int64")
        return pd.DataFrame(
            {"day": t // (86_400 * 1_000_000), "t": t, "eid": df["event_id"].to_numpy("int64")}
        )

    def _block(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["t", "eid"])
        t = g["t"].to_numpy("int64")
        gaps = np.diff(t)
        return pd.DataFrame(
            {
                "day": [int(g["day"].iloc[0])],
                "n": [len(t)],
                "lo": [int(t[0])],
                "hi": [int(t[-1])],
                # in-block gap histogram partials stay tiny: we only
                # need the counts against the global limits, so ship
                # the raw block gap array bounds instead: store gaps
                # summary as a list via value counts of coarse cells
                # is lossy -> keep exact by shipping per-block sorted
                # gaps only when the block is small; error blocks are
                # day-sized (result scale), so totals stay bounded.
                "gaps": [gaps.tolist()],
            }
        )

    blocks = (
        ds.map_batches(_key, batch_format="pandas")
        .groupby("day")
        .map_groups(_block, batch_format="pandas")
        .to_pandas()
        .sort_values("day")
        .reset_index(drop=True)
    )
    n_total = int(blocks["n"].sum())
    lo = int(blocks["lo"].min())
    hi = int(blocks["hi"].max())
    mean_us = (hi - lo) / (n_total - 1.0)
    ucl = -mean_us * np.log(0.00135)
    lcl = -mean_us * np.log(1.0 - 0.00135)
    gaps_all = [np.asarray(g, dtype="int64") for g in blocks["gaps"]]
    # boundary gaps between consecutive day blocks
    bounds = blocks["lo"].to_numpy("int64")[1:] - blocks["hi"].to_numpy("int64")[:-1]
    above = sum(int((g > ucl).sum()) for g in gaps_all) + int((bounds > ucl).sum())
    below = sum(int((g < lcl).sum()) for g in gaps_all) + int((bounds < lcl).sum())
    return pd.DataFrame(
        {
            "n_gaps": pd.Series([n_total - 1], dtype="int64"),
            "mean_gap_s": [round(mean_us / 1e6, 6)],
            "ucl_s": [round(ucl / 1e6, 6)],
            "lcl_s": [round(lcl / 1e6, 6)],
            "n_above_ucl": pd.Series([above], dtype="int64"),
            "n_below_lcl": pd.Series([below], dtype="int64"),
        }
    )


T_CHART_ERROR_GAPS_SQL = """
WITH e AS (
  SELECT CAST(ts AS TIMESTAMP) AS ts, event_id FROM events
  WHERE event_type = 'error'
),
g AS (
  SELECT epoch_us(ts) - lag(epoch_us(ts)) OVER (ORDER BY ts, event_id) AS gap
  FROM e
),
m AS (
  SELECT count(*) * 1.0 AS n,
         (max(epoch_us(ts)) - min(epoch_us(ts))) / (count(*) - 1.0) AS mean_us
  FROM e
)
SELECT CAST((SELECT n - 1 FROM m) AS BIGINT) AS n_gaps,
       round((SELECT mean_us FROM m) / 1e6, 6) AS mean_gap_s,
       round(-(SELECT mean_us FROM m) * ln(0.00135) / 1e6, 6) AS ucl_s,
       round(-(SELECT mean_us FROM m) * ln(1.0 - 0.00135) / 1e6, 6) AS lcl_s,
       CAST(sum(CASE WHEN gap > -(SELECT mean_us FROM m) * ln(0.00135)
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_above_ucl,
       CAST(sum(CASE WHEN gap < -(SELECT mean_us FROM m) * ln(1.0 - 0.00135)
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_below_lcl
FROM g WHERE gap IS NOT NULL
"""


def g_chart_error_counts(sf_dir: str) -> pd.DataFrame:
    """g-chart of the number of (non-error) events between
    consecutive errors — the discrete rare-event chart (geometric
    counts): center ḡ = mean between-count, UCL = ḡ + 3 sqrt(ḡ(ḡ+1))
    (no meaningful LCL for geometric data), with the count of
    beyond-limit spells and the zero-spell share (back-to-back
    errors). Global event positions come from the distributed rank
    primitive ((ts, event_id) tie-break); only the result-sized
    error-position list reaches the driver."""
    from ocr_pipeline_ray.pipelines.relational import _global_rank

    ds = _read(sf_dir, "events", columns=["event_type", "ts", "event_id"]).map_batches(
        lambda df: pd.DataFrame(
            {
                "t": df["ts"].to_numpy("datetime64[us]").astype("int64"),
                "eid": df["event_id"].to_numpy("int64"),
                "err": (df["event_type"] == "error").to_numpy("int64"),
            }
        ),
        batch_format="pandas",
    )
    ranked = _global_rank(ds, "t", ["eid", "err"])
    err_ranks = np.sort(
        ranked.map_batches(
            lambda df: df[df["err"] == 1][["rank"]], batch_format="pandas"
        )
        .to_pandas()["rank"]
        .to_numpy("int64")
    )
    between = np.diff(err_ranks) - 1
    gbar = float(between.mean())
    ucl = gbar + 3.0 * np.sqrt(gbar * (gbar + 1.0))
    return pd.DataFrame(
        {
            "n_spells": pd.Series([len(between)], dtype="int64"),
            "mean_between": [round(gbar, 6)],
            "ucl": [round(float(ucl), 6)],
            "n_above_ucl": pd.Series([int((between > ucl).sum())], dtype="int64"),
            "zero_spell_share": [round(float((between == 0).sum() / len(between)), 6)],
        }
    )


G_CHART_ERROR_COUNTS_SQL = """
WITH r AS (
  SELECT event_type,
         row_number() OVER (ORDER BY ts, event_id) AS rk
  FROM events
),
er AS (
  SELECT rk - lag(rk) OVER (ORDER BY rk) - 1 AS between_n
  FROM r WHERE event_type = 'error'
),
b AS (SELECT between_n FROM er WHERE between_n IS NOT NULL),
m AS (SELECT count(*) * 1.0 AS n, avg(between_n) AS gbar FROM b)
SELECT CAST((SELECT n FROM m) AS BIGINT) AS n_spells,
       round((SELECT gbar FROM m), 6) AS mean_between,
       round((SELECT gbar FROM m)
             + 3.0 * sqrt((SELECT gbar FROM m) * ((SELECT gbar FROM m) + 1.0)), 6)
         AS ucl,
       CAST(sum(CASE WHEN between_n > (SELECT gbar FROM m)
                          + 3.0 * sqrt((SELECT gbar FROM m)
                                       * ((SELECT gbar FROM m) + 1.0))
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_above_ucl,
       round(sum(CASE WHEN between_n = 0 THEN 1 ELSE 0 END)
             / (SELECT n FROM m), 6) AS zero_spell_share
FROM b
"""


# ---------------------------------------------------------------------------
# Markov chain drift: stationarity G^2 + per-state transition drift
# ---------------------------------------------------------------------------

def _period_transition_counts(sf_dir: str) -> pd.DataFrame:
    """Shared (period, prev, next) -> count reduction for the
    stationarity pair: per-user adjacent transitions in (ts,
    event_id) order (the event_transitions contract), each assigned
    to the first or second half of the GLOBAL time range by the ts
    of the pair's FIRST event (midpoint = (min+max)/2 epoch-us). One
    bucketed per-user shift pass; only (period, pair, count) rows
    shuffle."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "events", columns=["user_id", "ts", "event_id", "event_type"])
    lo = pd.Timestamp(ds.min("ts")).value // 1000
    hi = pd.Timestamp(ds.max("ts")).value // 1000
    mid = (lo + hi) // 2

    def _pairs_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        u = g["user_id"].to_numpy()
        et = g["event_type"].to_numpy()
        t = g["ts"].to_numpy("datetime64[us]").astype("int64")
        if len(u) < 2:
            return pd.DataFrame(
                {
                    "period": pd.Series(dtype="int64"),
                    "prev_type": pd.Series(dtype="object"),
                    "next_type": pd.Series(dtype="object"),
                    "n": pd.Series(dtype="int64"),
                }
            )
        same = u[1:] == u[:-1]
        df = pd.DataFrame(
            {
                "period": (t[:-1][same] > mid).astype("int64"),
                "prev_type": et[:-1][same],
                "next_type": et[1:][same],
            }
        )
        out = df.groupby(["period", "prev_type", "next_type"], sort=False).size()
        return out.reset_index(name="n")

    return (
        bucketed_aggregate(
            ds.map_batches(_add_user_bucket, batch_format="pandas")
            .groupby("__bucket")
            .map_groups(_pairs_bucket, batch_format="pandas"),
            ["period", "prev_type", "next_type"],
            {"n": ("n", "sum")},
            num_buckets=8,
        )
        .to_pandas()
        .sort_values(["period", "prev_type", "next_type"])
        .reset_index(drop=True)
    )


def markov_stationarity_g2(sf_dir: str) -> pd.DataFrame:
    """Time-homogeneity test of the user-behavior Markov chain: do
    the first and second halves of the observation window share the
    same transition matrix? G^2 = 2 SUM n_pij ln(n_pij/e_pij) with
    e_pij = rowtotal_pi x pooled P(j|i), df = SUM_i (J_i - 1) over
    pooled-support cells — the likelihood-ratio homogeneity test per
    prev-state row, summed. An inflated G^2 means every downstream
    chain-based readout (entropy rate, order test, perplexity)
    averages two different regimes. Shared period-split counts."""
    c = _period_transition_counts(sf_dir)
    piv = c.pivot_table(
        index=["prev_type", "next_type"], columns="period", values="n", fill_value=0
    )
    n0 = piv.get(0, pd.Series(0, index=piv.index)).to_numpy("float64")
    n1 = piv.get(1, pd.Series(0, index=piv.index)).to_numpy("float64")
    pooled = n0 + n1
    prev = piv.index.get_level_values(0).to_numpy()
    g2 = 0.0
    df_total = 0
    for pv in np.unique(prev):
        m = prev == pv
        row_pool = pooled[m]
        tot_pool = row_pool.sum()
        for n_p in (n0[m], n1[m]):
            tot_p = n_p.sum()
            if tot_p == 0:
                continue
            e = tot_p * row_pool / tot_pool
            nz = n_p > 0
            g2 += 2.0 * float((n_p[nz] * np.log(n_p[nz] / e[nz])).sum())
        df_total += int((row_pool > 0).sum()) - 1
    return pd.DataFrame(
        {
            "n_transitions": pd.Series([int(pooled.sum())], dtype="int64"),
            "g2": [round(g2, 6)],
            "df": pd.Series([df_total], dtype="int64"),
        }
    )


_PERIOD_TRANS_SQL = """
WITH mx AS (
  SELECT epoch_us(min(ts)) AS lo, epoch_us(max(ts)) AS hi FROM events
),
seq AS (
  SELECT user_id, event_type,
         lag(event_type) OVER (PARTITION BY user_id ORDER BY ts, event_id)
           AS prev_type,
         lag(epoch_us(ts)) OVER (PARTITION BY user_id ORDER BY ts, event_id)
           AS prev_t
  FROM events
),
pc AS (
  SELECT CASE WHEN prev_t > ((SELECT lo FROM mx) + (SELECT hi FROM mx)) // 2
              THEN 1 ELSE 0 END AS period,
         prev_type, event_type AS next_type, count(*) * 1.0 AS n
  FROM seq WHERE prev_type IS NOT NULL
  GROUP BY 1, 2, 3
)
"""

MARKOV_STATIONARITY_G2_SQL = (
    _PERIOD_TRANS_SQL
    + """,
cells AS (
  SELECT prev_type, next_type,
         sum(CASE WHEN period = 0 THEN n ELSE 0 END) AS n0,
         sum(CASE WHEN period = 1 THEN n ELSE 0 END) AS n1
  FROM pc GROUP BY 1, 2
),
rows_ AS (
  SELECT prev_type, sum(n0) AS r0, sum(n1) AS r1, sum(n0 + n1) AS rp
  FROM cells GROUP BY 1
),
terms AS (
  SELECT c.prev_type,
         CASE WHEN c.n0 > 0
              THEN 2.0 * c.n0 * ln(c.n0 / (r.r0 * (c.n0 + c.n1) / r.rp))
              ELSE 0.0 END
         + CASE WHEN c.n1 > 0
                THEN 2.0 * c.n1 * ln(c.n1 / (r.r1 * (c.n0 + c.n1) / r.rp))
                ELSE 0.0 END AS g,
         CASE WHEN c.n0 + c.n1 > 0 THEN 1 ELSE 0 END AS support
  FROM cells c JOIN rows_ r USING (prev_type)
),
dfc AS (
  SELECT sum(support) - count(DISTINCT prev_type) AS df
  FROM terms
)
SELECT CAST((SELECT sum(n) FROM pc) AS BIGINT) AS n_transitions,
       round(sum(g), 6) AS g2,
       CAST((SELECT df FROM dfc) AS BIGINT) AS df
FROM terms
"""
)


def transition_matrix_drift(sf_dir: str) -> pd.DataFrame:
    """Per-state drift of the same two-period chain: for each prev
    state, the total-variation distance 0.5 SUM_j |P1(j|i)-P2(j|i)|
    between the half-window conditional next-type distributions —
    the interpretable companion of the G^2 scalar that LOCALIZES
    which behavior changed — with each state's pooled row share.
    Shared period-split counts."""
    c = _period_transition_counts(sf_dir)
    piv = c.pivot_table(
        index=["prev_type", "next_type"], columns="period", values="n", fill_value=0
    )
    n0 = piv.get(0, pd.Series(0, index=piv.index)).to_numpy("float64")
    n1 = piv.get(1, pd.Series(0, index=piv.index)).to_numpy("float64")
    prev = piv.index.get_level_values(0).to_numpy()
    total = float((n0 + n1).sum())
    rows = []
    for pv in np.unique(prev):
        m = prev == pv
        t0, t1 = n0[m].sum(), n1[m].sum()
        tv = 0.5 * float(np.abs(n0[m] / t0 - n1[m] / t1).sum())
        rows.append(
            {
                "prev_type": pv,
                "tv_distance": round(tv, 6),
                "row_share": round(float((n0[m] + n1[m]).sum()) / total, 6),
            }
        )
    return pd.DataFrame(rows).sort_values("prev_type").reset_index(drop=True)


TRANSITION_MATRIX_DRIFT_SQL = (
    _PERIOD_TRANS_SQL
    + """,
cells AS (
  SELECT prev_type, next_type,
         sum(CASE WHEN period = 0 THEN n ELSE 0 END) AS n0,
         sum(CASE WHEN period = 1 THEN n ELSE 0 END) AS n1
  FROM pc GROUP BY 1, 2
),
rows_ AS (
  SELECT prev_type, sum(n0) AS r0, sum(n1) AS r1 FROM cells GROUP BY 1
),
tot AS (SELECT sum(n0 + n1) AS t FROM cells)
SELECT c.prev_type,
       round(0.5 * sum(abs(c.n0 / r.r0 - c.n1 / r.r1)), 6) AS tv_distance,
       round(sum(c.n0 + c.n1) / (SELECT t FROM tot), 6) AS row_share
FROM cells c JOIN rows_ r USING (prev_type)
GROUP BY c.prev_type ORDER BY c.prev_type
"""
)


# ---------------------------------------------------------------------------
# repeat buying: purchase-depth ladder + Ehrenberg NBD fit
# ---------------------------------------------------------------------------

def _purchase_count_hist(sf_dir: str) -> pd.DataFrame:
    """Shared per-user purchase-count histogram for the repeat-buying
    pair: every user observed in the event stream (zero purchases
    included), reduced to (k purchases -> n users) — one bucketed
    per-user aggregate then a tiny count-of-counts table."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "events", columns=["user_id", "event_type"])

    def _prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "user_id": df["user_id"],
                "k": (df["event_type"] == "purchase").astype("int64"),
            }
        )

    per = bucketed_aggregate(
        ds.map_batches(_prep, batch_format="pandas"),
        ["user_id"],
        {"k": ("k", "sum")},
    )

    def _hist(df: pd.DataFrame) -> pd.DataFrame:
        u, c = np.unique(df["k"].to_numpy("int64"), return_counts=True)
        return pd.DataFrame({"k": u, "n": c})

    return (
        per.map_batches(_hist, batch_format="pandas")
        .to_pandas()
        .groupby("k", as_index=False)["n"]
        .sum()
        .sort_values("k")
        .reset_index(drop=True)
    )


def purchase_depth_ladder(sf_dir: str, max_k: int = 8) -> pd.DataFrame:
    """The buyer-progression ladder: for k = 1..8, how many users
    reached at least k purchases and the conditional continuation
    rate P(>= k+1 | >= k) — the 'leaky bucket' table behind every
    repeat-purchase program (a FLAT continuation profile is
    Ehrenberg's signature of stationary habit; rates rising with
    depth mean loyalty compounds). Suffix sums over the shared
    count histogram."""
    h = _purchase_count_hist(sf_dir)
    k = h["k"].to_numpy("int64")
    n = h["n"].to_numpy("int64")
    rows = []
    for kk in range(1, max_k + 1):
        ge_k = int(n[k >= kk].sum())
        ge_k1 = int(n[k >= kk + 1].sum())
        rows.append(
            {
                "depth_k": np.int64(kk),
                "n_users_ge_k": np.int64(ge_k),
                "continue_rate": round(ge_k1 / ge_k, 6) if ge_k else 0.0,
            }
        )
    out = pd.DataFrame(rows)
    out["depth_k"] = out["depth_k"].astype("int64")
    out["n_users_ge_k"] = out["n_users_ge_k"].astype("int64")
    return out


_PURCHASE_HIST_SQL = """
WITH per AS (
  SELECT user_id,
         sum(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END) AS k
  FROM events GROUP BY user_id
),
h AS (SELECT k, count(*) AS n FROM per GROUP BY k)
"""

PURCHASE_DEPTH_LADDER_SQL = (
    _PURCHASE_HIST_SQL
    + """,
ks AS (SELECT unnest(generate_series(1, 8)) AS depth_k)
SELECT CAST(depth_k AS BIGINT) AS depth_k,
       CAST((SELECT coalesce(sum(n), 0) FROM h WHERE h.k >= ks.depth_k)
            AS BIGINT) AS n_users_ge_k,
       round((SELECT coalesce(sum(n), 0) FROM h WHERE h.k >= ks.depth_k + 1)
             * 1.0
             / (SELECT sum(n) FROM h WHERE h.k >= ks.depth_k), 6)
         AS continue_rate
FROM ks ORDER BY depth_k
"""
)


def nbd_fit_purchase_counts(sf_dir: str) -> pd.DataFrame:
    """Ehrenberg's NBD (negative binomial) fit of per-user purchase
    counts by method of moments: shape r = m^2/(v - m), scale
    alpha = m/(v - m), with the model-predicted zero share
    (alpha/(1+alpha))^r against the observed never-bought share —
    THE repeat-buying model of marketing science; a close zero-share
    match is the classic evidence that buying is stationary gamma-
    Poisson, a big miss says the population splits into structural
    never-buyers plus buyers. Population moments from the shared
    histogram; the v <= m (underdispersed) degenerate case reports
    r = 0 identically in both engines."""
    h = _purchase_count_hist(sf_dir)
    k = h["k"].to_numpy("int64").astype("float64")
    n = h["n"].to_numpy("int64").astype("float64")
    nn = n.sum()
    m = float((k * n).sum()) / nn
    v = float((k * k * n).sum()) / nn - m * m
    obs0 = float(n[k == 0].sum()) / nn
    if v > m:
        r = m * m / (v - m)
        alpha = m / (v - m)
        p0 = (alpha / (1.0 + alpha)) ** r
    else:
        r, alpha, p0 = 0.0, 0.0, 0.0
    return pd.DataFrame(
        {
            "mean_purchases": [round(m, 6)],
            "dispersion_index": [round(v / m, 6)],
            "nbd_r": [round(r, 6)],
            "nbd_alpha": [round(alpha, 6)],
            "pred_zero_share": [round(p0, 6)],
            "obs_zero_share": [round(obs0, 6)],
        }
    )


NBD_FIT_PURCHASE_COUNTS_SQL = (
    _PURCHASE_HIST_SQL
    + """,
m AS (
  SELECT sum(n) * 1.0 AS nn,
         sum(k * n) / sum(n) AS mu,
         sum(k * k * n) * 1.0 / sum(n)
           - (sum(k * n) / sum(n)) * (sum(k * n) / sum(n)) AS v,
         coalesce(sum(CASE WHEN k = 0 THEN n END), 0) * 1.0 / sum(n) AS obs0
  FROM h
)
SELECT round(mu, 6) AS mean_purchases,
       round(v / mu, 6) AS dispersion_index,
       round(CASE WHEN v > mu THEN mu * mu / (v - mu) ELSE 0.0 END, 6) AS nbd_r,
       round(CASE WHEN v > mu THEN mu / (v - mu) ELSE 0.0 END, 6) AS nbd_alpha,
       round(CASE WHEN v > mu
                  THEN pow((mu / (v - mu)) / (1.0 + mu / (v - mu)),
                           mu * mu / (v - mu))
                  ELSE 0.0 END, 6) AS pred_zero_share,
       round(obs0, 6) AS obs_zero_share
FROM m
"""
)


# ---------------------------------------------------------------------------
# temporal scan statistic (Kulldorff) for error-event clusters
# ---------------------------------------------------------------------------

# ---------------------------------------------------------------------------
# Passing-Bablok method comparison of the funnel's two daily counters
# ---------------------------------------------------------------------------

def _views_purchases_day_counts(sf_dir: str):
    """Shared zero-filled daily (views, purchases) integer count
    series — same bucketed (day, type) grid as the Deming/RMA
    queries, returned as aligned arrays for the rank-based fits."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "events", columns=["ts", "event_type"])

    def _prep(df: pd.DataFrame) -> pd.DataFrame:
        sel = df["event_type"].isin(["view", "purchase"])
        d = df[sel]
        return pd.DataFrame(
            {
                "day": d["ts"].dt.normalize(),
                "t": d["event_type"].to_numpy(object),
                "one": np.ones(int(sel.sum()), dtype="int64"),
            }
        )

    grid = (
        bucketed_aggregate(
            ds.map_batches(_prep, batch_format="pandas"),
            ["day", "t"],
            {"c": ("one", "sum")},
            num_buckets=8,
        )
        .to_pandas()
        .pivot(index="day", columns="t", values="c")
    )
    full_days = pd.date_range(grid.index.min(), grid.index.max(), freq="D")
    grid = grid.reindex(full_days).fillna(0).astype("int64")
    x = grid.get("view", pd.Series(0, index=grid.index)).to_numpy("int64")
    y = grid.get("purchase", pd.Series(0, index=grid.index)).to_numpy("int64")
    return x, y


def _pb_fit(x: np.ndarray, y: np.ndarray):
    """Passing-Bablok slope/intercept: all pairwise slopes excluding
    vertical pairs (x_i = x_j) and slopes exactly -1, shifted median
    with offset K = #(slopes < -1); intercept = median(y - b x)."""
    i, j = np.triu_indices(len(x), k=1)
    dx = x[j] - x[i]
    dy = y[j] - y[i]
    keep = dx != 0
    s = dy[keep] / dx[keep]
    s = s[s != -1.0]
    s = np.sort(s)
    nslopes = len(s)
    k = int((s < -1.0).sum())
    if nslopes % 2 == 1:
        b = float(s[(nslopes + 1) // 2 + k - 1])
    else:
        b = 0.5 * (float(s[nslopes // 2 + k - 1]) + float(s[nslopes // 2 + k]))
    a = float(np.median(y - b * x))
    return nslopes, k, b, a


def passing_bablok_views_purchases(sf_dir: str) -> pd.DataFrame:
    """Passing-Bablok (1983) regression of daily purchases on daily
    views — the clinical-chemistry method-comparison fit: the
    shifted median of all pairwise slopes (offset K = #slopes < -1
    restores scale-swap symmetry), no distributional or
    error-variance assumption at all, outlier-resistant where both
    Deming and RMA are moment-based. Completes the slope ladder
    (OLS / Deming / RMA / PB) on the same shared zero-filled day
    grid; integer pairwise slopes make every engine comparison
    exact."""
    x, y = _views_purchases_day_counts(sf_dir)
    nslopes, k, b, a = _pb_fit(x, y)
    return pd.DataFrame(
        {
            "n_days": pd.Series([len(x)], dtype="int64"),
            "n_slopes": pd.Series([nslopes], dtype="int64"),
            "k_offset": pd.Series([k], dtype="int64"),
            "pb_slope": [round(b, 6)],
            "pb_intercept": [round(a, 6)],
        }
    )


_PB_BASE_SQL = """
WITH b0 AS (SELECT min(CAST(ts AS DATE)) AS lo, max(CAST(ts AS DATE)) AS hi FROM events),
days AS (SELECT unnest(generate_series((SELECT lo FROM b0), (SELECT hi FROM b0), INTERVAL 1 DAY)) AS day),
c AS (
  SELECT CAST(ts AS DATE) AS day,
         count(*) FILTER (WHERE event_type = 'view') AS v,
         count(*) FILTER (WHERE event_type = 'purchase') AS p
  FROM events GROUP BY 1
),
g AS (
  SELECT row_number() OVER (ORDER BY days.day) AS i,
         coalesce(c.v, 0) AS x, coalesce(c.p, 0) AS y
  FROM days LEFT JOIN c ON c.day = CAST(days.day AS DATE)
),
sl0 AS (
  SELECT (b.y - a.y) * 1.0 / (b.x - a.x) AS s
  FROM g a JOIN g b ON a.i < b.i AND a.x <> b.x
),
sl AS (SELECT s FROM sl0 WHERE s <> -1.0),
nk AS (
  SELECT count(*) AS ns,
         sum(CASE WHEN s < -1.0 THEN 1 ELSE 0 END) AS k
  FROM sl
),
srt AS (SELECT s, row_number() OVER (ORDER BY s) AS r FROM sl),
bb AS (
  SELECT CASE WHEN (SELECT ns FROM nk) % 2 = 1
              THEN (SELECT s FROM srt
                    WHERE r = ((SELECT ns FROM nk) + 1) // 2 + (SELECT k FROM nk))
              ELSE 0.5 * ((SELECT s FROM srt
                           WHERE r = (SELECT ns FROM nk) // 2 + (SELECT k FROM nk))
                          + (SELECT s FROM srt
                             WHERE r = (SELECT ns FROM nk) // 2 + (SELECT k FROM nk) + 1))
         END AS b,
         (SELECT ns FROM nk) AS ns, (SELECT k FROM nk) AS k
),
aa AS (
  SELECT (SELECT median(y - (SELECT b FROM bb) * x) FROM g) AS a
)
"""

PASSING_BABLOK_VIEWS_PURCHASES_SQL = (
    _PB_BASE_SQL
    + """
SELECT CAST((SELECT count(*) FROM g) AS BIGINT) AS n_days,
       CAST(bb.ns AS BIGINT) AS n_slopes,
       CAST(bb.k AS BIGINT) AS k_offset,
       round(bb.b, 6) AS pb_slope,
       round((SELECT a FROM aa), 6) AS pb_intercept
FROM bb
"""
)


def passing_bablok_cusum_linearity(sf_dir: str) -> pd.DataFrame:
    """The companion linearity check from the same paper: residual
    signs r_i = y_i - (a + b x_i) walked in ascending-x order as a
    CUSUM (+sqrt(L/l) per positive, -sqrt(l/L) per negative, exact
    zeros dropped) — a systematic bend shows up as a large excursion
    even when signs balance globally. Reports max |CUSUM|, the
    normalized statistic max/sqrt(l + L + 1) and the 1.36
    Kolmogorov-style 95% flag — PB's own answer to 'was a straight
    line even the right model?'."""
    x, y = _views_purchases_day_counts(sf_dir)
    _, _, b, a = _pb_fit(x, y)
    r = y - (a + b * x)
    keep = r != 0.0
    order = np.lexsort((np.arange(len(x))[keep], x[keep]))
    rs = r[keep][order]
    l_pos = int((rs > 0).sum())
    l_neg = int((rs < 0).sum())
    step = np.where(
        rs > 0, np.sqrt(l_neg / float(l_pos)), -np.sqrt(l_pos / float(l_neg))
    )
    cus = np.abs(np.cumsum(step))
    stat = float(cus.max())
    norm = stat / float(np.sqrt(l_pos + l_neg + 1.0))
    return pd.DataFrame(
        {
            "n_pos": pd.Series([l_pos], dtype="int64"),
            "n_neg": pd.Series([l_neg], dtype="int64"),
            "max_cusum": [round(stat, 6)],
            "stat_norm": [round(norm, 6)],
            "nonlinear_95": pd.Series([int(norm > 1.36)], dtype="int64"),
        }
    )


PASSING_BABLOK_CUSUM_LINEARITY_SQL = (
    _PB_BASE_SQL
    + """,
res AS (
  SELECT i, x, y - ((SELECT a FROM aa) + (SELECT b FROM bb) * x) AS r
  FROM g
),
rnz AS (SELECT i, x, r FROM res WHERE r <> 0.0),
cnt AS (
  SELECT sum(CASE WHEN r > 0 THEN 1 ELSE 0 END) AS lp,
         sum(CASE WHEN r < 0 THEN 1 ELSE 0 END) AS ln
  FROM rnz
),
walk AS (
  SELECT sum(CASE WHEN r > 0 THEN sqrt((SELECT ln FROM cnt) * 1.0 / (SELECT lp FROM cnt))
                  ELSE -sqrt((SELECT lp FROM cnt) * 1.0 / (SELECT ln FROM cnt)) END)
             OVER (ORDER BY x, i ROWS UNBOUNDED PRECEDING) AS cus
  FROM rnz
),
mx AS (SELECT max(abs(cus)) AS stat FROM walk)
SELECT CAST((SELECT lp FROM cnt) AS BIGINT) AS n_pos,
       CAST((SELECT ln FROM cnt) AS BIGINT) AS n_neg,
       round(stat, 6) AS max_cusum,
       round(stat / sqrt((SELECT lp + ln + 1.0 FROM cnt)), 6) AS stat_norm,
       CAST(CASE WHEN stat / sqrt((SELECT lp + ln + 1.0 FROM cnt)) > 1.36
                 THEN 1 ELSE 0 END AS BIGINT) AS nonlinear_95
FROM mx
"""
)


# ---------------------------------------------------------------------------
# cosinor rhythmometry of the 24-cell hour-of-day activity profile
# ---------------------------------------------------------------------------

def _hour_profile_counts(sf_dir: str) -> np.ndarray:
    """Shared 24-cell hour-of-day event count profile (bucketed
    integer aggregate, zero-filled) — the aggregated series behind
    the cosinor pair."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "events", columns=["ts"])

    def _prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"h": df["ts"].dt.hour.astype("int64"), "one": np.int64(1)}
        ).groupby("h", as_index=False).agg(c=("one", "sum"))

    h = (
        bucketed_aggregate(
            ds.map_batches(_prep, batch_format="pandas"),
            ["h"],
            {"c": ("c", "sum")},
            num_buckets=4,
        )
        .to_pandas()
        .set_index("h")["c"]
        .reindex(range(24))
        .fillna(0)
        .astype("int64")
        .to_numpy()
    )
    return h


def cosinor_hourly_profile(sf_dir: str) -> pd.DataFrame:
    """Single-cosinor rhythmometry (Halberg) of the 24-cell
    hour-of-day activity profile: fit y_h = M + A cos(2 pi h/24) +
    B sin(2 pi h/24) — over the complete grid the harmonic basis is
    orthogonal, so MESOR = mean, A = (2/24) SUM y cos, B = (2/24)
    SUM y sin in closed form; reports amplitude sqrt(A^2+B^2), the
    relative amplitude/MESOR swing, the ACROPHASE as a clock hour
    (atan2(B, A) mapped to [0, 24)) and the percent rhythm R^2 =
    12(A^2+B^2)/SS_tot — the chronobiology framing of the circular
    resultant the Rayleigh query gives event-wise."""
    y = _hour_profile_counts(sf_dir).astype("float64")
    h = np.arange(24, dtype="float64")
    w = 2.0 * np.pi / 24.0
    m = float(y.mean())
    a = float((y * np.cos(w * h)).sum()) / 12.0
    b = float((y * np.sin(w * h)).sum()) / 12.0
    amp = float(np.sqrt(a * a + b * b))
    ph = float(np.arctan2(b, a)) / w
    if ph < 0:
        ph += 24.0
    sstot = float(((y - m) ** 2).sum())
    r2 = 12.0 * (a * a + b * b) / sstot
    return pd.DataFrame(
        {
            "mesor": [round(m, 6)],
            "amplitude": [round(amp, 6)],
            "rel_amplitude": [round(amp / m, 6)],
            "acrophase_hour": [round(ph, 6)],
            "pct_rhythm": [round(r2, 6)],
        }
    )


_HOUR_PROFILE_SQL = """
WITH raw AS (
  SELECT hour(ts) AS h, count(*) AS c FROM events GROUP BY 1
),
grid AS (
  SELECT g.h, coalesce(raw.c, 0) AS c
  FROM (SELECT unnest(generate_series(0, 23)) AS h) g
  LEFT JOIN raw ON raw.h = g.h
)
"""

COSINOR_HOURLY_PROFILE_SQL = (
    _HOUR_PROFILE_SQL
    + """,
ft AS (
  SELECT avg(c * 1.0) AS m,
         sum(c * cos(2.0 * pi() * h / 24.0)) / 12.0 AS a,
         sum(c * sin(2.0 * pi() * h / 24.0)) / 12.0 AS b,
         sum(c * 1.0 * c) - 24.0 * avg(c * 1.0) * avg(c * 1.0) AS sstot
  FROM grid
)
SELECT round(m, 6) AS mesor,
       round(sqrt(a * a + b * b), 6) AS amplitude,
       round(sqrt(a * a + b * b) / m, 6) AS rel_amplitude,
       round(CASE WHEN atan2(b, a) / (2.0 * pi() / 24.0) < 0
                  THEN atan2(b, a) / (2.0 * pi() / 24.0) + 24.0
                  ELSE atan2(b, a) / (2.0 * pi() / 24.0) END, 6) AS acrophase_hour,
       round(12.0 * (a * a + b * b) / sstot, 6) AS pct_rhythm
FROM ft
"""
)


def cosinor_two_harmonic_hourly(sf_dir: str) -> pd.DataFrame:
    """The two-harmonic extension on the same grid (fundamental +
    12-hour component): second-harmonic amplitude and its phase,
    the combined R^2 = 12(A1^2+B1^2+A2^2+B2^2)/SS_tot, the
    bimodality ratio amp2/amp1 (a commute-style double-peaked day
    shows up here while the single cosinor averages it away), and
    the fitted profile's integer argmax hour (smallest on ties) —
    the model's own 'rush hour'."""
    y = _hour_profile_counts(sf_dir).astype("float64")
    h = np.arange(24, dtype="float64")
    w = 2.0 * np.pi / 24.0
    m = float(y.mean())
    a1 = float((y * np.cos(w * h)).sum()) / 12.0
    b1 = float((y * np.sin(w * h)).sum()) / 12.0
    a2 = float((y * np.cos(2 * w * h)).sum()) / 12.0
    b2 = float((y * np.sin(2 * w * h)).sum()) / 12.0
    amp1 = float(np.sqrt(a1 * a1 + b1 * b1))
    amp2 = float(np.sqrt(a2 * a2 + b2 * b2))
    sstot = float(((y - m) ** 2).sum())
    r2 = 12.0 * (a1 * a1 + b1 * b1 + a2 * a2 + b2 * b2) / sstot
    fit = (
        m
        + a1 * np.cos(w * h) + b1 * np.sin(w * h)
        + a2 * np.cos(2 * w * h) + b2 * np.sin(2 * w * h)
    )
    peak = int(np.argmax(fit))
    return pd.DataFrame(
        {
            "amp_fundamental": [round(amp1, 6)],
            "amp_second": [round(amp2, 6)],
            "bimodality_ratio": [round(amp2 / amp1, 6)],
            "r2_two_harmonic": [round(r2, 6)],
            "fitted_peak_hour": pd.Series([peak], dtype="int64"),
        }
    )


COSINOR_TWO_HARMONIC_HOURLY_SQL = (
    _HOUR_PROFILE_SQL
    + """,
ft AS (
  SELECT avg(c * 1.0) AS m,
         sum(c * cos(2.0 * pi() * h / 24.0)) / 12.0 AS a1,
         sum(c * sin(2.0 * pi() * h / 24.0)) / 12.0 AS b1,
         sum(c * cos(4.0 * pi() * h / 24.0)) / 12.0 AS a2,
         sum(c * sin(4.0 * pi() * h / 24.0)) / 12.0 AS b2,
         sum(c * 1.0 * c) - 24.0 * avg(c * 1.0) * avg(c * 1.0) AS sstot
  FROM grid
),
fitted AS (
  SELECT g.h,
         (SELECT m FROM ft)
         + (SELECT a1 FROM ft) * cos(2.0 * pi() * g.h / 24.0)
         + (SELECT b1 FROM ft) * sin(2.0 * pi() * g.h / 24.0)
         + (SELECT a2 FROM ft) * cos(4.0 * pi() * g.h / 24.0)
         + (SELECT b2 FROM ft) * sin(4.0 * pi() * g.h / 24.0) AS f
  FROM grid g
),
pk AS (SELECT h FROM fitted ORDER BY f DESC, h LIMIT 1)
SELECT round(sqrt(a1 * a1 + b1 * b1), 6) AS amp_fundamental,
       round(sqrt(a2 * a2 + b2 * b2), 6) AS amp_second,
       round(sqrt(a2 * a2 + b2 * b2) / sqrt(a1 * a1 + b1 * b1), 6)
         AS bimodality_ratio,
       round(12.0 * (a1 * a1 + b1 * b1 + a2 * a2 + b2 * b2) / sstot, 6)
         AS r2_two_harmonic,
       CAST((SELECT h FROM pk) AS BIGINT) AS fitted_peak_hour
FROM ft
"""
)


# ---------------------------------------------------------------------------
# ecological aggregation indexes of daily event counts by type
# ---------------------------------------------------------------------------

def _daily_type_count_moments(sf_dir: str) -> pd.DataFrame:
    """Shared per-type daily-count moments over the zero-filled
    calendar span: (type, n_days, sum, sum of squares, sum x(x-1))
    — quadrat-count statistics with days as quadrats. One bucketed
    (type, day) aggregate; zero days enter the moments exactly."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "events", columns=["event_type", "ts"])

    def _prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "t": df["event_type"].to_numpy(object),
                "day": df["ts"].dt.normalize(),
                "one": np.int64(1),
            }
        ).groupby(["t", "day"], as_index=False).agg(c=("one", "sum"))

    g = (
        bucketed_aggregate(
            ds.map_batches(_prep, batch_format="pandas"),
            ["t", "day"],
            {"c": ("c", "sum")},
            num_buckets=8,
        )
        .to_pandas()
    )
    lo, hi = g["day"].min(), g["day"].max()
    n_days = int((hi - lo).days) + 1
    rows = []
    for t, sub in g.groupby("t"):
        c = sub["c"].to_numpy("int64")
        rows.append(
            {
                "t": t,
                "n_days": np.int64(n_days),
                "s1": np.int64(c.sum()),
                "s2": np.int64((c * c).sum()),
                "sp": np.int64((c * (c - 1)).sum()),
            }
        )
    out = pd.DataFrame(rows).sort_values("t").reset_index(drop=True)
    for col in ("n_days", "s1", "s2", "sp"):
        out[col] = out[col].astype("int64")
    return out


def lloyd_morisita_daily_by_type(sf_dir: str) -> pd.DataFrame:
    """Ecological aggregation indexes per event type with DAYS as
    quadrats: Lloyd's mean crowding m* = m + s^2/m - 1 (how many
    same-type events the average event shares its day with — the
    inspection paradox for counts), patchiness m*/m, and Morisita's
    I_delta = n SUM x(x-1) / (N(N-1)) — both 1 for Poisson
    scattering, > 1 for burst clustering, the quadrat-ecology
    reading beside the Fano/Taylor family. Sample variance (n-1);
    zero-filled days count."""
    m = _daily_type_count_moments(sf_dir)
    n = m["n_days"].to_numpy("int64").astype("float64")
    s1 = m["s1"].to_numpy("int64").astype("float64")
    s2 = m["s2"].to_numpy("int64").astype("float64")
    sp = m["sp"].to_numpy("int64").astype("float64")
    mean = s1 / n
    var = (s2 - s1 * s1 / n) / (n - 1.0)
    crowd = mean + var / mean - 1.0
    morisita = n * sp / (s1 * (s1 - 1.0))
    return pd.DataFrame(
        {
            "event_type": m["t"].to_numpy(object),
            "mean_daily": np.round(mean, 6),
            "variance": np.round(var, 6),
            "mean_crowding": np.round(crowd, 6),
            "patchiness": np.round(crowd / mean, 6),
            "morisita": np.round(morisita, 6),
        }
    )


_DAILY_TYPE_MOM_SQL = """
WITH span AS (
  SELECT min(CAST(ts AS DATE)) AS lo, max(CAST(ts AS DATE)) AS hi FROM events
),
nd AS (SELECT date_diff('day', lo, hi) + 1 AS n_days FROM span),
c AS (
  SELECT event_type AS t, CAST(ts AS DATE) AS day, count(*) AS x
  FROM events GROUP BY 1, 2
),
m AS (
  SELECT t, (SELECT n_days FROM nd) * 1.0 AS n,
         sum(x) * 1.0 AS s1, sum(x * x) * 1.0 AS s2,
         sum(x * (x - 1)) * 1.0 AS sp
  FROM c GROUP BY t
)
"""

LLOYD_MORISITA_DAILY_BY_TYPE_SQL = (
    _DAILY_TYPE_MOM_SQL
    + """
SELECT t AS event_type,
       round(s1 / n, 6) AS mean_daily,
       round((s2 - s1 * s1 / n) / (n - 1.0), 6) AS variance,
       round(s1 / n + ((s2 - s1 * s1 / n) / (n - 1.0)) / (s1 / n) - 1.0, 6)
         AS mean_crowding,
       round((s1 / n + ((s2 - s1 * s1 / n) / (n - 1.0)) / (s1 / n) - 1.0)
             / (s1 / n), 6) AS patchiness,
       round(n * sp / (s1 * (s1 - 1.0)), 6) AS morisita
FROM m ORDER BY event_type
"""
)


def negbin_k_aggregation_by_type(sf_dir: str) -> pd.DataFrame:
    """The negative-binomial aggregation parameter per type off the
    same quadrat moments: k = m^2/(s^2 - m) (small k = strong
    clumping, k -> inf = Poisson), its inverse 1/k as the standard
    overdispersion coordinate, and the three-way David-Moore verdict
    per type (variance ratio against 1 at the exact-moment level:
    'aggregated' / 'random' / 'uniform') — the distributional story
    behind the index pair, with the k < 0 underdispersed case
    reported as the 'uniform' sentinel -1 identically in both
    engines."""
    m = _daily_type_count_moments(sf_dir)
    n = m["n_days"].to_numpy("int64").astype("float64")
    s1 = m["s1"].to_numpy("int64").astype("float64")
    s2 = m["s2"].to_numpy("int64").astype("float64")
    mean = s1 / n
    var = (s2 - s1 * s1 / n) / (n - 1.0)
    k = np.where(var > mean, mean * mean / (var - mean), -1.0)
    inv_k = np.where(var > mean, (var - mean) / (mean * mean), 0.0)
    verdict = np.where(var > mean, "aggregated", np.where(var < mean, "uniform", "random"))
    return pd.DataFrame(
        {
            "event_type": m["t"].to_numpy(object),
            "nb_k": np.round(k, 6),
            "inv_k": np.round(inv_k, 6),
            "pattern": verdict,
        }
    )


NEGBIN_K_AGGREGATION_BY_TYPE_SQL = (
    _DAILY_TYPE_MOM_SQL
    + """,
d AS (
  SELECT t, s1 / n AS mean, (s2 - s1 * s1 / n) / (n - 1.0) AS var
  FROM m
)
SELECT t AS event_type,
       round(CASE WHEN var > mean THEN mean * mean / (var - mean)
                  ELSE -1.0 END, 6) AS nb_k,
       round(CASE WHEN var > mean THEN (var - mean) / (mean * mean)
                  ELSE 0.0 END, 6) AS inv_k,
       CASE WHEN var > mean THEN 'aggregated'
            WHEN var < mean THEN 'uniform'
            ELSE 'random' END AS pattern
FROM d ORDER BY event_type
"""
)


# ---------------------------------------------------------------------------
# the agreement ladder completed: Lin decomposition + TDI/coverage
# ---------------------------------------------------------------------------

def lin_agreement_decomposition(sf_dir: str) -> pd.DataFrame:
    """Lin's concordance DECOMPOSED for the daily view/purchase
    series: CCC = r x C_b, where precision r is Pearson and accuracy
    C_b = 2/(v + 1/v + u^2) collapses the two ways a perfectly
    correlated pair can still disagree — the scale ratio
    v = sd_x/sd_y and the standardized location shift
    u = (mean_x - mean_y)/sqrt(sd_x sd_y). The CCC query gives the
    verdict; this one says WHOSE fault it is (miscalibration vs
    noise). Exact integer moment sums off the shared zero-filled
    grid."""
    x, y = _views_purchases_day_counts(sf_dir)
    n = float(len(x))
    mx, my = x.sum() / n, y.sum() / n
    cxx = float((x * x).sum()) / n - mx * mx
    cyy = float((y * y).sum()) / n - my * my
    cxy = float((x * y).sum()) / n - mx * my
    r = cxy / float(np.sqrt(cxx * cyy))
    v = float(np.sqrt(cxx / cyy))
    u = (mx - my) / float((cxx * cyy) ** 0.25)
    cb = 2.0 / (v + 1.0 / v + u * u)
    return pd.DataFrame(
        {
            "pearson_r": [round(r, 6)],
            "scale_ratio_v": [round(v, 6)],
            "location_shift_u": [round(u, 6)],
            "accuracy_cb": [round(cb, 6)],
            "ccc": [round(r * cb, 6)],
        }
    )


_VP_GRID_SQL = """
WITH b0 AS (SELECT min(CAST(ts AS DATE)) AS lo, max(CAST(ts AS DATE)) AS hi FROM events),
days AS (SELECT unnest(generate_series((SELECT lo FROM b0), (SELECT hi FROM b0), INTERVAL 1 DAY)) AS day),
c AS (
  SELECT CAST(ts AS DATE) AS day,
         count(*) FILTER (WHERE event_type = 'view') AS v,
         count(*) FILTER (WHERE event_type = 'purchase') AS p
  FROM events GROUP BY 1
),
g AS (
  SELECT coalesce(c.v, 0) AS x, coalesce(c.p, 0) AS y
  FROM days LEFT JOIN c ON c.day = CAST(days.day AS DATE)
)
"""

LIN_AGREEMENT_DECOMPOSITION_SQL = (
    _VP_GRID_SQL
    + """,
mm AS (
  SELECT count(*) * 1.0 AS n, sum(x) * 1.0 AS sx, sum(y) * 1.0 AS sy,
         sum(x * x) * 1.0 AS sxx, sum(y * y) * 1.0 AS syy,
         sum(x * y) * 1.0 AS sxy
  FROM g
),
cm AS (
  SELECT sxx / n - (sx / n) * (sx / n) AS cxx,
         syy / n - (sy / n) * (sy / n) AS cyy,
         sxy / n - (sx / n) * (sy / n) AS cxy,
         sx / n - sy / n AS du
  FROM mm
),
dc AS (
  SELECT cxy / sqrt(cxx * cyy) AS r,
         sqrt(cxx / cyy) AS v,
         du / pow(cxx * cyy, 0.25) AS u
  FROM cm
)
SELECT round(r, 6) AS pearson_r,
       round(v, 6) AS scale_ratio_v,
       round(u, 6) AS location_shift_u,
       round(2.0 / (v + 1.0 / v + u * u), 6) AS accuracy_cb,
       round(r * 2.0 / (v + 1.0 / v + u * u), 6) AS ccc
FROM dc
"""
)


def tdi_coverage_views_purchases(sf_dir: str) -> pd.DataFrame:
    """Total deviation index and coverage probability — the
    agreement ladder's absolute-units rung: RMSD of the daily
    view-purchase difference, the parametric TDI90 = 1.644854 RMSD
    ('90% of days the two counters disagree by fewer than THIS many
    events' under normality), the EMPIRICAL coverage at that bound
    (its own reality check), and the exact p90 |difference| order
    statistic beside the parametric claim."""
    x, y = _views_purchases_day_counts(sf_dir)
    d = np.abs(x - y).astype("int64")
    n = len(d)
    msd = float(((x - y).astype("float64") ** 2).mean())
    rmsd = float(np.sqrt(msd))
    tdi90 = 1.644854 * rmsd
    cover = float((d <= tdi90).sum()) / n
    ds_ = np.sort(d)
    p90 = int(ds_[int(np.ceil(0.9 * n)) - 1])
    return pd.DataFrame(
        {
            "rmsd": [round(rmsd, 6)],
            "tdi90_parametric": [round(tdi90, 6)],
            "coverage_at_tdi90": [round(cover, 6)],
            "p90_abs_diff": pd.Series([p90], dtype="int64"),
        }
    )


TDI_COVERAGE_VIEWS_PURCHASES_SQL = (
    _VP_GRID_SQL
    + """,
mm AS (
  SELECT count(*) * 1.0 AS n,
         sqrt(avg(pow((x - y) * 1.0, 2))) AS rmsd
  FROM g
),
cov AS (
  SELECT sum(CASE WHEN abs(x - y) <= 1.644854 * (SELECT rmsd FROM mm)
                  THEN 1 ELSE 0 END) * 1.0 / (SELECT n FROM mm) AS cover
  FROM g
),
rk AS (
  SELECT abs(x - y) AS d, row_number() OVER (ORDER BY abs(x - y)) AS i,
         count(*) OVER () AS n
  FROM g
),
p90 AS (SELECT d FROM rk WHERE i = CAST(ceil(0.9 * n) AS BIGINT))
SELECT round((SELECT rmsd FROM mm), 6) AS rmsd,
       round(1.644854 * (SELECT rmsd FROM mm), 6) AS tdi90_parametric,
       round((SELECT cover FROM cov), 6) AS coverage_at_tdi90,
       CAST((SELECT d FROM p90) AS BIGINT) AS p90_abs_diff
"""
)


# ---------------------------------------------------------------------------
# entropy under undersampling: Miller-Madow + Chao-Shen corrections
# ---------------------------------------------------------------------------

def _user_count_of_counts(sf_dir: str) -> pd.DataFrame:
    """Shared count-of-counts histogram of events per user: per-user
    totals via the bucketed aggregate, then (count value, n_users)
    cells — the sufficient statistic for every entropy estimator."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "events", columns=["user_id"])

    def _prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"u": df["user_id"], "one": np.int64(1)}).groupby(
            "u", as_index=False
        ).agg(k=("one", "sum"))

    per = bucketed_aggregate(
        ds.map_batches(_prep, batch_format="pandas"),
        ["u"],
        {"k": ("k", "sum")},
        num_buckets=16,
    )
    return (
        per.map_batches(
            lambda df: df.groupby("k", as_index=False).size().rename(
                columns={"size": "f"}
            ),
            batch_format="pandas",
        )
        .to_pandas()
        .groupby("k", as_index=False)["f"]
        .sum()
        .sort_values("k")
        .reset_index(drop=True)
    )


def _entropy_estimators(k: np.ndarray, f: np.ndarray):
    """Plug-in, Miller-Madow and Chao-Shen entropies (nats) from a
    count-of-counts histogram — identical arithmetic to the SQL."""
    n = float((k * f).sum())
    kk = float(f.sum())
    p = k / n
    h_plug = float(-(f * p * np.log(p)).sum())
    h_mm = h_plug + (kk - 1.0) / (2.0 * n)
    f1 = float(f[k == 1].sum()) if (k == 1).any() else 0.0
    cc = 1.0 - f1 / n
    cp = cc * p
    denom = 1.0 - np.power(1.0 - cp, n)
    h_cs = float(-(f * cp * np.log(cp) / denom).sum())
    return int(n), int(kk), f1, h_plug, h_mm, h_cs


def entropy_estimators_users(sf_dir: str) -> pd.DataFrame:
    """How much does undersampling bias the entropy of the per-user
    activity distribution? The plug-in estimate beside Miller-Madow
    (+ (K-1)/2n first-order bias correction) and Chao-Shen (coverage
    C = 1 - f1/n shrinks the probabilities, Horvitz-Thompson
    reweights unseen mass) — plug-in systematically UNDERSTATES
    diversity when singleton users abound, and the corrected
    effective user count exp(H) is the honest 'how many equally
    active users is this worth'. Count-of-counts sufficiency: only
    (count, n_users) cells leave the cluster."""
    h = _user_count_of_counts(sf_dir)
    k = h["k"].to_numpy("int64").astype("float64")
    f = h["f"].to_numpy("int64").astype("float64")
    n, kk, f1, hp, hm, hc = _entropy_estimators(k, f)
    return pd.DataFrame(
        {
            "n_events": pd.Series([n], dtype="int64"),
            "n_users": pd.Series([kk], dtype="int64"),
            "f1_singletons": pd.Series([int(f1)], dtype="int64"),
            "h_plugin": [round(hp, 6)],
            "h_miller_madow": [round(hm, 6)],
            "h_chao_shen": [round(hc, 6)],
            "eff_users_cs": [round(float(np.exp(hc)), 4)],
        }
    )


_USER_COC_SQL = """
WITH per AS (
  SELECT user_id, count(*) AS k FROM events GROUP BY 1
),
h AS (SELECT k, count(*) * 1.0 AS f FROM per GROUP BY 1),
mm AS (
  SELECT sum(k * f) AS n, sum(f) AS kk,
         coalesce(sum(CASE WHEN k = 1 THEN f END), 0) AS f1
  FROM h
)
"""

ENTROPY_ESTIMATORS_USERS_SQL = (
    _USER_COC_SQL
    + """,
es AS (
  SELECT (SELECT n FROM mm) AS n, (SELECT kk FROM mm) AS kk,
         (SELECT f1 FROM mm) AS f1,
         -sum(f * (k / (SELECT n FROM mm)) * ln(k / (SELECT n FROM mm))) AS hp,
         -sum(f * ((1.0 - (SELECT f1 FROM mm) / (SELECT n FROM mm)) * k / (SELECT n FROM mm))
              * ln((1.0 - (SELECT f1 FROM mm) / (SELECT n FROM mm)) * k / (SELECT n FROM mm))
              / (1.0 - pow(1.0 - (1.0 - (SELECT f1 FROM mm) / (SELECT n FROM mm))
                                 * k / (SELECT n FROM mm),
                           (SELECT n FROM mm)))) AS hc
  FROM h
)
SELECT CAST(n AS BIGINT) AS n_events,
       CAST(kk AS BIGINT) AS n_users,
       CAST(f1 AS BIGINT) AS f1_singletons,
       round(hp, 6) AS h_plugin,
       round(hp + (kk - 1.0) / (2.0 * n), 6) AS h_miller_madow,
       round(hc, 6) AS h_chao_shen,
       round(exp(hc), 4) AS eff_users_cs
FROM es
"""
)


def entropy_estimators_vocab(sf_dir: str) -> pd.DataFrame:
    """The same three estimators on the closed 31-term vocabulary —
    the CONTRAST is the point: with every type seen many times
    (coverage C = 1, no singletons), Miller-Madow's correction is
    microscopic and Chao-Shen collapses onto the plug-in, so
    agreement here certifies the user-table corrections above are
    measuring genuine undersampling, not estimator quirks."""
    from ocr_pipeline_ray.pipelines.text import vocab_top_terms

    top = vocab_top_terms(sf_dir, k=100000)
    k = top["n"].to_numpy("int64").astype("float64")
    f = np.ones_like(k)
    n, kk, f1, hp, hm, hc = _entropy_estimators(k, f)
    return pd.DataFrame(
        {
            "n_tokens": pd.Series([n], dtype="int64"),
            "n_terms": pd.Series([kk], dtype="int64"),
            "h_plugin": [round(hp, 6)],
            "h_miller_madow": [round(hm, 6)],
            "h_chao_shen": [round(hc, 6)],
        }
    )


ENTROPY_ESTIMATORS_VOCAB_SQL = """
WITH c AS (
  SELECT t.term, count(*) * 1.0 AS k
  FROM documents, unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS t(term)
  GROUP BY t.term
),
mm AS (
  SELECT sum(k) AS n, count(*) * 1.0 AS kk,
         coalesce(sum(CASE WHEN k = 1 THEN 1.0 END), 0) AS f1
  FROM c
),
es AS (
  SELECT (SELECT n FROM mm) AS n, (SELECT kk FROM mm) AS kk,
         -sum((k / (SELECT n FROM mm)) * ln(k / (SELECT n FROM mm))) AS hp,
         -sum(((1.0 - (SELECT f1 FROM mm) / (SELECT n FROM mm)) * k / (SELECT n FROM mm))
              * ln((1.0 - (SELECT f1 FROM mm) / (SELECT n FROM mm)) * k / (SELECT n FROM mm))
              / (1.0 - pow(1.0 - (1.0 - (SELECT f1 FROM mm) / (SELECT n FROM mm))
                                 * k / (SELECT n FROM mm),
                           (SELECT n FROM mm)))) AS hc
  FROM c
)
SELECT CAST(n AS BIGINT) AS n_tokens,
       CAST(kk AS BIGINT) AS n_terms,
       round(hp, 6) AS h_plugin,
       round(hp + (kk - 1.0) / (2.0 * n), 6) AS h_miller_madow,
       round(hc, 6) AS h_chao_shen
FROM es
"""


# ---------------------------------------------------------------------------
# DiD credibility: event-study daily gaps + pre-trend placebo
# ---------------------------------------------------------------------------

def _arm_day_values(sf_dir: str) -> pd.DataFrame:
    """Shared (arm, day) value partials for the DiD-credibility pair:
    the same parity arms and value metric as diff_in_diff_value,
    reduced to per-day (n, sum, sum of squares) cells."""
    from ocr_pipeline_ray.pipelines.relational import bucketed_aggregate

    ds = _read(sf_dir, "events", columns=["user_id", "ts", "value"])

    def _p(df: pd.DataFrame) -> pd.DataFrame:
        v = df["value"].to_numpy("float64")
        return pd.DataFrame(
            {
                "arm": np.where(df["user_id"].to_numpy("int64") % 2 == 0, "A", "B"),
                "day": df["ts"].dt.normalize(),
                "n": np.int64(1),
                "s": v,
                "ss": v * v,
            }
        ).groupby(["arm", "day"], as_index=False).sum()

    return (
        bucketed_aggregate(
            ds.map_batches(_p, batch_format="pandas"),
            ["arm", "day"],
            {"n": ("n", "sum"), "s": ("s", "sum"), "ss": ("ss", "sum")},
            num_buckets=8,
        )
        .to_pandas()
        .sort_values(["day", "arm"])
        .reset_index(drop=True)
    )


def did_event_study_daily(sf_dir: str) -> pd.DataFrame:
    """The event-study plot behind the one-number DiD: the daily
    A-minus-B mean-value gap, re-centered on the PRE-period average
    gap so each day reads as a dynamic treatment coefficient — flat
    near zero before the 2024-01-16 split is the parallel-trends
    license, and the post path shows whether the effect is a step,
    a ramp, or a transient the pooled DiD averages into mush. One
    bucketed (arm, day) reduction."""
    g = _arm_day_values(sf_dir)
    piv_n = g.pivot(index="day", columns="arm", values="n")
    piv_s = g.pivot(index="day", columns="arm", values="s")
    gap = piv_s["A"] / piv_n["A"] - piv_s["B"] / piv_n["B"]
    pre = gap.index < CUPED_SPLIT
    base = float(gap[pre].mean())
    return pd.DataFrame(
        {
            "day": gap.index,
            "gap": np.round(gap.to_numpy("float64"), 6),
            "gap_vs_pre": np.round(gap.to_numpy("float64") - base, 6),
            "is_post": (~pre).astype("int64"),
        }
    ).reset_index(drop=True)


_ARM_DAY_SQL = """
WITH c AS (
  SELECT CASE WHEN user_id % 2 = 0 THEN 'A' ELSE 'B' END AS arm,
         CAST(ts AS DATE) AS day,
         count(*) * 1.0 AS n, sum(value) AS s, sum(value * value) AS ss
  FROM events GROUP BY 1, 2
),
gap AS (
  SELECT day,
         max(CASE WHEN arm = 'A' THEN s / n END)
         - max(CASE WHEN arm = 'B' THEN s / n END) AS gp
  FROM c GROUP BY day
),
base AS (
  SELECT avg(gp) AS b FROM gap WHERE day < DATE '2024-01-16'
)
"""

DID_EVENT_STUDY_DAILY_SQL = (
    _ARM_DAY_SQL
    + """
SELECT CAST(day AS TIMESTAMP) AS day,
       round(gp, 6) AS gap,
       round(gp - (SELECT b FROM base), 6) AS gap_vs_pre,
       CAST(CASE WHEN day >= DATE '2024-01-16' THEN 1 ELSE 0 END AS BIGINT)
         AS is_post
FROM gap ORDER BY day
"""
)


def did_pretrend_placebo(sf_dir: str) -> pd.DataFrame:
    """The pre-trend placebo: rerun the exact DiD machinery entirely
    INSIDE the pre period (halves split at 2024-01-08) where the
    true effect is zero by construction — a placebo 'effect' with
    |z| > 1.96 (per-cell variance SE) says the arms were already
    diverging and the real DiD inherits that trend. Reported beside
    the real DiD for scale."""
    g = _arm_day_values(sf_dir)
    g = g.copy()
    g["day"] = pd.to_datetime(g["day"])
    mid = pd.Timestamp("2024-01-08")

    def _cells(frame, split):
        out = {}
        for (arm, post), d in frame.groupby(
            [frame["arm"], (frame["day"] >= split)]
        ):
            n = float(d["n"].sum())
            s = float(d["s"].sum())
            ss = float(d["ss"].sum())
            mean = s / n
            var = (ss - s * s / n) / (n - 1.0)
            out[(arm, bool(post))] = (n, mean, var)
        return out

    pre = g[g["day"] < CUPED_SPLIT]
    cp = _cells(pre, mid)
    placebo = (cp[("A", True)][1] - cp[("A", False)][1]) - (
        cp[("B", True)][1] - cp[("B", False)][1]
    )
    se = float(
        np.sqrt(sum(cp[k][2] / cp[k][0] for k in cp))
    )
    z = placebo / se
    ca = _cells(g, CUPED_SPLIT)
    real = (ca[("A", True)][1] - ca[("A", False)][1]) - (
        ca[("B", True)][1] - ca[("B", False)][1]
    )
    from ocr_pipeline_ray.pipelines.relational import _norm_cdf_as

    p2 = 2.0 * float(_norm_cdf_as(np.array([-abs(z)]))[0])
    return pd.DataFrame(
        {
            "placebo_did": [round(placebo, 6)],
            "placebo_z": [round(z, 6)],
            "p_two_sided": [round(p2, 6)],
            "real_did": [round(real, 6)],
        }
    )


DID_PRETREND_PLACEBO_SQL = (
    _ARM_DAY_SQL
    + """,
cells AS (
  SELECT arm,
         CASE WHEN day >= DATE '2024-01-08' THEN 1 ELSE 0 END AS post,
         sum(n) AS n, sum(s) AS s, sum(ss) AS ss
  FROM c WHERE day < DATE '2024-01-16'
  GROUP BY 1, 2
),
st AS (
  SELECT arm, post, s / n AS mean,
         ((ss - s * s / n) / (n - 1.0)) / n AS vn
  FROM cells
),
pl AS (
  SELECT (max(CASE WHEN arm = 'A' AND post = 1 THEN mean END)
          - max(CASE WHEN arm = 'A' AND post = 0 THEN mean END))
         - (max(CASE WHEN arm = 'B' AND post = 1 THEN mean END)
            - max(CASE WHEN arm = 'B' AND post = 0 THEN mean END)) AS d,
         sqrt(sum(vn)) AS se
  FROM st
),
rl AS (
  SELECT (max(CASE WHEN arm = 'A' AND post = 1 THEN mean END)
          - max(CASE WHEN arm = 'A' AND post = 0 THEN mean END))
         - (max(CASE WHEN arm = 'B' AND post = 1 THEN mean END)
            - max(CASE WHEN arm = 'B' AND post = 0 THEN mean END)) AS d
  FROM (
    SELECT arm,
           CASE WHEN day >= DATE '2024-01-16' THEN 1 ELSE 0 END AS post,
           sum(s) / sum(n) AS mean
    FROM c GROUP BY 1, 2
  )
),
zz AS (SELECT d, se, d / se AS z FROM pl)
SELECT round(d, 6) AS placebo_did,
       round(z, 6) AS placebo_z,
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
                                    * 1.330274429))))), 6) AS p_two_sided,
       round((SELECT d FROM rl), 6) AS real_did
FROM zz
"""
)


# ---------------------------------------------------------------------------
# Crow-AMSAA model criticism: CvM goodness-of-fit + MTBF growth projection
# ---------------------------------------------------------------------------

def _crow_beta_terms(sf_dir: str):
    """Shared Crow-AMSAA ingredients: the origin, the total span tt
    (microseconds), event count m and the MLE beta — identical to
    crow_amsaa_events' reduction."""
    ds = _read(sf_dir, "events", columns=["ts"])

    def _bounds(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"lo": [df["ts"].min()], "hi": [df["ts"].max()]})

    b = ds.map_batches(_bounds, batch_format="pandas").to_pandas()
    lo64 = np.int64(pd.Timestamp(b["lo"].min()).value // 1000)
    tt = float(pd.Timestamp(b["hi"].max()).value // 1000 - lo64)

    def _logs(df: pd.DataFrame) -> pd.DataFrame:
        tu = (
            df["ts"].to_numpy(dtype="datetime64[us]").astype("int64") - lo64
        ).astype("float64")
        tu = tu[tu > 0]
        return pd.DataFrame({"m": [len(tu)], "sl": [float(np.log(tt / tu).sum())]})

    p = ds.map_batches(_logs, batch_format="pandas").to_pandas()
    m, sl = int(p["m"].sum()), float(p["sl"].sum())
    return ds, lo64, tt, m, m / sl


def crow_amsaa_cvm_gof(sf_dir: str) -> pd.DataFrame:
    """MIL-HDBK-189 model criticism for the Crow-AMSAA fit: under
    the fitted power law the transformed arrivals z_i = (t_i/T)^
    betabar (bias-corrected betabar = (m-1)/m beta) are uniform, so
    the Cramer-von Mises statistic C^2 = 1/(12m) + SUM(z_(i) -
    (2i-1)/2m)^2 measures exactly how power-law the growth curve
    is; tied times contribute invariantly, so the distributed rank
    needs no tiebreak. Reported with the 0.22 large-m 95% critical
    value flag."""
    from ocr_pipeline_ray.pipelines.relational import _global_rank

    ds, lo64, tt, m, beta = _crow_beta_terms(sf_dir)
    bbar = (m - 1.0) / m * beta

    def _tu(df: pd.DataFrame) -> pd.DataFrame:
        tu = (
            df["ts"].to_numpy(dtype="datetime64[us]").astype("int64") - lo64
        ).astype("float64")
        tu = tu[tu > 0]
        return pd.DataFrame({"tu": tu})

    ranked = _global_rank(ds.map_batches(_tu, batch_format="pandas"), "tu", [])

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        z = np.power(df["tu"].to_numpy("float64") / tt, bbar)
        i = df["rank"].to_numpy("int64").astype("float64")
        return pd.DataFrame(
            {"s": [float(((z - (2.0 * i - 1.0) / (2.0 * m)) ** 2).sum())]}
        )

    s = float(ranked.map_batches(_partial, batch_format="pandas").to_pandas()["s"].sum())
    c2 = 1.0 / (12.0 * m) + s
    return pd.DataFrame(
        {
            "m": pd.Series([m], dtype="int64"),
            "beta_corrected": [round(bbar, 6)],
            "cvm_stat": [round(c2, 6)],
            "reject_95": pd.Series([int(c2 > 0.22)], dtype="int64"),
        }
    )


CROW_AMSAA_CVM_GOF_SQL = """
WITH b AS (SELECT min(ts) AS lo, max(ts) AS hi FROM events),
tt AS (SELECT date_diff('microsecond', lo, hi) * 1.0 AS t FROM b),
o AS (
  SELECT date_diff('microsecond', (SELECT lo FROM b), ts) * 1.0 AS tu
  FROM events
),
pos AS (SELECT tu FROM o WHERE tu > 0),
mb AS (
  SELECT count(*) * 1.0 AS m,
         count(*) / sum(ln((SELECT t FROM tt) / tu)) AS beta
  FROM pos
),
rk AS (
  SELECT tu, row_number() OVER (ORDER BY tu) AS i FROM pos
),
st AS (
  SELECT sum(pow(pow(tu / (SELECT t FROM tt),
                     ((SELECT m FROM mb) - 1.0) / (SELECT m FROM mb)
                     * (SELECT beta FROM mb))
                 - (2.0 * i - 1.0) / (2.0 * (SELECT m FROM mb)), 2)) AS s
  FROM rk
)
SELECT CAST((SELECT m FROM mb) AS BIGINT) AS m,
       round(((SELECT m FROM mb) - 1.0) / (SELECT m FROM mb)
             * (SELECT beta FROM mb), 6) AS beta_corrected,
       round(1.0 / (12.0 * (SELECT m FROM mb)) + s, 6) AS cvm_stat,
       CAST(CASE WHEN 1.0 / (12.0 * (SELECT m FROM mb)) + s > 0.22
                 THEN 1 ELSE 0 END AS BIGINT) AS reject_95
FROM st
"""


def duane_mtbf_projection(sf_dir: str) -> pd.DataFrame:
    """What the fitted growth curve says operationally: cumulative
    mean time between events T/m vs the INSTANTANEOUS MTBF
    1/(lambda beta T^(beta-1)) — their ratio is exactly 1/beta, the
    Duane-plot reading — plus the projected event count over the
    next 30 days lambda((T+30)^beta - T^beta): the capacity number
    a reliability review actually wants from the fit."""
    ds, lo64, tt, m, beta = _crow_beta_terms(sf_dir)
    t_days = tt / 86400e6
    lam = m / t_days**beta
    mtbf_cum = t_days / m
    mtbf_inst = 1.0 / (lam * beta * t_days ** (beta - 1.0))
    proj = lam * ((t_days + 30.0) ** beta - t_days**beta)
    return pd.DataFrame(
        {
            "mtbf_cum_days": [round(mtbf_cum, 6)],
            "mtbf_inst_days": [round(mtbf_inst, 6)],
            "ratio_inv_beta": [round(mtbf_inst / mtbf_cum, 6)],
            "projected_events_30d": [round(proj, 4)],
        }
    )


DUANE_MTBF_PROJECTION_SQL = """
WITH b AS (SELECT min(ts) AS lo, max(ts) AS hi FROM events),
tt AS (SELECT date_diff('microsecond', lo, hi) / 86400e6 AS t FROM b),
o AS (
  SELECT date_diff('microsecond', (SELECT lo FROM b), ts) * 1.0 AS tu
  FROM events
),
mb AS (
  SELECT count(*) * 1.0 AS m,
         count(*) / sum(ln((SELECT t FROM tt) * 86400e6 / tu)) AS beta
  FROM o WHERE tu > 0
),
fit AS (
  SELECT m, beta, (SELECT t FROM tt) AS t,
         m / pow((SELECT t FROM tt), beta) AS lam
  FROM mb
)
SELECT round(t / m, 6) AS mtbf_cum_days,
       round(1.0 / (lam * beta * pow(t, beta - 1.0)), 6) AS mtbf_inst_days,
       round((1.0 / (lam * beta * pow(t, beta - 1.0))) / (t / m), 6)
         AS ratio_inv_beta,
       round(lam * (pow(t + 30.0, beta) - pow(t, beta)), 4)
         AS projected_events_30d
FROM fit
"""


# ---------------------------------------------------------------------------
# SLO arithmetic on the real error stream: burn rates + budget exhaustion
# ---------------------------------------------------------------------------

_SLO_TARGET = 0.999
_SLO_WINDOWS = (("1h", 1.0, 14.4), ("6h", 6.0, 6.0), ("24h", 24.0, 3.0), ("3d", 72.0, 1.0))


def _slo_window_counts(sf_dir: str):
    """Shared windowed (events, errors) counts anchored at the
    stream's max timestamp: one pass emitting per-window partials
    (window membership tested per event against the broadcast
    anchor)."""
    ds = _read(sf_dir, "events", columns=["ts", "event_type"])
    hi = pd.Timestamp(
        ds.map_batches(
            lambda df: pd.DataFrame({"m": [df["ts"].max()]}), batch_format="pandas"
        ).to_pandas()["m"].max()
    )

    def _p(df: pd.DataFrame) -> pd.DataFrame:
        err = (df["event_type"] == "error").to_numpy("int64")
        age_h = (hi - df["ts"]).dt.total_seconds().to_numpy("float64") / 3600.0
        row = {}
        for name, hours, _ in _SLO_WINDOWS:
            sel = age_h < hours
            row[f"n_{name}"] = [np.int64(sel.sum())]
            row[f"e_{name}"] = [np.int64(err[sel].sum())]
        row["n_all"] = [np.int64(len(df))]
        row["e_all"] = [np.int64(err.sum())]
        return pd.DataFrame(row)

    s = ds.map_batches(_p, batch_format="pandas").to_pandas().sum()
    return s


def slo_burn_rate_windows(sf_dir: str) -> pd.DataFrame:
    """The Google-SRE multiwindow burn-rate table on the real error
    stream against a 99.9% SLO: per lookback window (1h/6h/24h/3d
    from the stream's last event) the error rate, the burn rate
    (rate over the 0.1% budget), and the alert flag at the workbook
    thresholds (14.4 / 6 / 3 / 1) — the fast-burn page and the
    slow-burn ticket computed from the same exact counts."""
    s = _slo_window_counts(sf_dir)
    budget = 1.0 - _SLO_TARGET
    rows = []
    for name, hours, thr in _SLO_WINDOWS:
        n = int(s[f"n_{name}"])
        e = int(s[f"e_{name}"])
        rate = e / n if n else 0.0
        burn = rate / budget
        rows.append(
            {
                "window_name": name,
                "n_events": np.int64(n),
                "n_errors": np.int64(e),
                "burn_rate": round(burn, 6),
                "alert": np.int64(int(burn >= thr)),
            }
        )
    out = pd.DataFrame(rows)
    for c in ("n_events", "n_errors", "alert"):
        out[c] = out[c].astype("int64")
    return out


_SLO_BASE_SQL = """
WITH hi AS (SELECT max(ts) AS m FROM events),
w AS (
  SELECT t.window_name, t.hours, t.thr
  FROM (VALUES ('1h', 1.0, 14.4), ('6h', 6.0, 6.0),
               ('24h', 24.0, 3.0), ('3d', 72.0, 1.0))
       AS t(window_name, hours, thr)
),
cnt AS (
  SELECT w.window_name, w.thr,
         count(*) AS n,
         sum(CASE WHEN event_type = 'error' THEN 1 ELSE 0 END) AS e
  FROM events CROSS JOIN w
  WHERE date_diff('microsecond', ts, (SELECT m FROM hi)) / 3600e6 < w.hours
  GROUP BY 1, 2
)
"""

SLO_BURN_RATE_WINDOWS_SQL = (
    _SLO_BASE_SQL
    + """
SELECT window_name,
       CAST(n AS BIGINT) AS n_events,
       CAST(e AS BIGINT) AS n_errors,
       round(e * 1.0 / n / 0.001, 6) AS burn_rate,
       CAST(CASE WHEN e * 1.0 / n / 0.001 >= thr THEN 1 ELSE 0 END AS BIGINT)
         AS alert
FROM cnt ORDER BY window_name
"""
)


def error_budget_remaining(sf_dir: str) -> pd.DataFrame:
    """The budget ledger over the whole stream: total error budget
    at 99.9% (0.1% of all events), errors actually spent, the
    fraction consumed, and — at the CURRENT 24h burn rate — the
    days until exhaustion of what remains (sentinel -1 when the
    recent window is error-free): the one-row answer to 'can we
    ship this week or are we firefighting'."""
    s = _slo_window_counts(sf_dir)
    n_all, e_all = int(s["n_all"]), int(s["e_all"])
    budget_events = 0.001 * n_all
    used = e_all / budget_events
    n24, e24 = int(s["n_24h"]), int(s["e_24h"])
    daily_spend = e24
    remaining = budget_events - e_all
    days = remaining / daily_spend if daily_spend > 0 else -1.0
    return pd.DataFrame(
        {
            "n_events": pd.Series([n_all], dtype="int64"),
            "budget_events": [round(budget_events, 1)],
            "errors_spent": pd.Series([e_all], dtype="int64"),
            "budget_used_frac": [round(used, 6)],
            "days_to_exhaustion": [round(days, 2)],
        }
    )


ERROR_BUDGET_REMAINING_SQL = """
WITH hi AS (SELECT max(ts) AS m FROM events),
tot AS (
  SELECT count(*) * 1.0 AS n,
         sum(CASE WHEN event_type = 'error' THEN 1 ELSE 0 END) * 1.0 AS e
  FROM events
),
d24 AS (
  SELECT sum(CASE WHEN event_type = 'error' THEN 1 ELSE 0 END) * 1.0 AS e24
  FROM events
  WHERE date_diff('microsecond', ts, (SELECT m FROM hi)) / 3600e6 < 24.0
)
SELECT CAST(n AS BIGINT) AS n_events,
       round(0.001 * n, 1) AS budget_events,
       CAST(e AS BIGINT) AS errors_spent,
       round(e / (0.001 * n), 6) AS budget_used_frac,
       round(CASE WHEN (SELECT e24 FROM d24) > 0
                  THEN (0.001 * n - e) / (SELECT e24 FROM d24)
                  ELSE -1.0 END, 2) AS days_to_exhaustion
FROM tot
"""
