"""Reassemble span rows into per-document ordered span sequences.

The engine's one mandatory shuffle (SURVEY.md §2.4 G3): key =
``doc_id``. This fixes-by-construction the reference's batch-path
identity bug, where pooled regions are re-keyed with a fresh uuid and
results race back to whichever request polls first
(reference pipeline/app.py:111-118, message_queue/monitor.py:87-93):
here ``(doc_id, offset)`` travel with every row and ordering is
restored by an explicit within-group sort — never by executor order
(reference str-recognition/processor.py:135-157 relies on list
discipline for the same guarantee).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ocr_pipeline_ray.schema import SPAN_STRUCT


def pack_bucket(group: pa.Table) -> pa.Table:
    """Vectorized pack of ONE HASH BUCKET of doc_ids (many docs per
    UDF call): sort by (doc_id, offset) once, find doc boundaries with
    numpy, build the list<struct> column with Arrow offset arithmetic.

    One Arrow kernel pass per bucket instead of a pack call per doc
    (~0.1-0.5 ms Python overhead each — at 10^12 docs that is pure
    overhead).
    """
    import numpy as np

    order = pc.sort_indices(
        group, sort_keys=[("doc_id", "ascending"), ("offset", "ascending")]
    )
    g = group.take(order)
    ids = np.asarray(g.column("doc_id").to_pandas(), dtype=object)
    n = len(ids)
    # first row of each doc; none for an empty block (e.g. an empty
    # input shard through the fused local-pack path)
    starts = np.flatnonzero(np.concatenate(([n > 0], ids[1:] != ids[:-1])))
    bounds = np.append(starts, n)
    struct = pa.StructArray.from_arrays(
        [
            g.column("kind").combine_chunks(),
            g.column("text").combine_chunks(),
            g.column("media_ref").combine_chunks(),
            g.column("offset").combine_chunks(),
        ],
        fields=list(SPAN_STRUCT),
    )
    list_bounds = bounds
    if g.column("offset").null_count:
        # null offset = the placeholder row of a doc with no spans
        # (explode_batch): the doc keeps its row, its span list is empty
        real = g.column("offset").is_valid().to_numpy(zero_copy_only=False)
        struct = struct.filter(pa.array(real))
        list_bounds = np.concatenate(([0], np.cumsum(real)))[bounds]
    spans = pa.ListArray.from_arrays(pa.array(list_bounds, pa.int32()), struct)
    err = (np.asarray(g.column("error").to_pandas(), dtype=object) != "").astype(np.int64)
    n_errors = np.add.reduceat(err, starts)
    n_spans = np.diff(list_bounds)
    return pa.Table.from_arrays(
        [
            pa.array(ids[starts], pa.string()),
            spans,
            pa.array(n_spans, pa.int32()),
            pa.array(n_errors, pa.int32()),
        ],
        names=["doc_id", "spans", "n_spans", "n_errors"],
    )


def add_bucket(num_buckets: int):
    """Vectorized doc_id -> hash bucket column (the shuffle key):
    one numpy pass over the Arrow string buffers, no pandas boxing."""

    def _f(batch: pa.Table) -> pa.Table:
        from ocr_pipeline_ray.functions.hashing import hash_string_column

        h = hash_string_column(batch.column("doc_id"))
        return batch.append_column(
            "bucket", pa.array((h % num_buckets).astype("int64"), pa.int64())
        )

    return _f


_META_PROBE_WARNED = False


def _plan_size_bytes(dag) -> int | None:
    """Best-effort size estimate for a logical plan node: its own
    ``infer_metadata().size_bytes`` when known, else the SUM of its
    input dependencies' (recursive) estimates. Map/filter chains over
    parquet reads report ``None`` at the chain head but the read node
    underneath knows its bytes — the source size is an upper-bound
    estimate for the shuffled data (reads are column-pruned at every
    call site, so the bound is tight in practice). Metadata only:
    never executes the plan. Raises on a moved/renamed private API so
    the caller can log the probe failure (a bare ``return None`` here
    would silently disable size-aware bucketing)."""
    size = dag.infer_metadata().size_bytes
    if size is not None:
        return int(size)
    total = None
    for dep in getattr(dag, "input_dependencies", []) or []:
        s = _plan_size_bytes(dep)
        if s is not None:
            total = (total or 0) + s
    return total


def default_num_buckets(
    ds, floor: int = 32, target_bucket_bytes: int = 256 << 20
) -> int:
    """Size-aware shuffle bucket count: enough buckets that one bucket
    holds ~``target_bucket_bytes``, never fewer than ``floor`` or
    4x cluster CPUs (the round-3 fixed defaults become FLOORS — at
    100 TB a fixed 64-bucket shuffle would make ~1.6 TB buckets). The
    input size comes from plan METADATA only (:func:`_plan_size_bytes`
    — known for materialized and freshly-read inputs, and resolved
    through map chains by walking ``input_dependencies`` down to the
    read); an unknown size falls back to the CPU-scaled floor rather
    than triggering execution of a lazy pipeline.

    The probe reads private Ray Data internals (``_logical_plan.dag``)
    and is fully guarded — but a Ray upgrade that renames them would
    silently drop every size-aware shuffle back to the floor, so the
    first failure logs a one-time warning (perf-only degradation must
    be VISIBLE; pinned by tests/test_builder.py's probe test).
    """
    import ray

    global _META_PROBE_WARNED

    floor = max(floor, int(ray.cluster_resources().get("CPU", 8)) * 4)
    try:
        size = _plan_size_bytes(ds._logical_plan.dag)
    except Exception:
        size = None
        if not _META_PROBE_WARNED:
            _META_PROBE_WARNED = True
            import logging

            logging.getLogger(__name__).warning(
                "default_num_buckets: Ray Data plan-metadata probe failed "
                "(private API moved?); size-aware shuffle bucketing is "
                "DISABLED — every shuffle falls back to the CPU-scaled "
                "floor. Correctness is unaffected; 100TB-scale bucket "
                "sizing is."
            )
    if size is None:
        return floor
    return max(floor, -(-int(size) // target_bucket_bytes))


def detect_hot_keys(
    ds: "ray.data.Dataset",
    col: str,
    hot_fraction: float = 0.05,
    sample_batches: int = 8,
    exclude=None,
) -> list:
    """Sampled hot-key detection for shuffle salting: per-batch value
    counts over the first ``sample_batches`` batches (streaming take —
    the dataset is not fully executed), combined on the driver; keys
    holding more than ``hot_fraction`` of sampled rows are hot.
    Deterministic for a deterministic input order. ``exclude`` drops
    one sentinel value BEFORE counting (it neither qualifies as hot nor
    dilutes the fraction denominator) — the media join uses this for
    the empty-ref text rows, which have their own deterministic spread.
    This is the ONE hot-detection implementation in the repo: the media
    join (``detect_hot_refs``) and the analytics joins
    (``relational.shuffle_hash_join``) both call it."""
    import itertools

    counts: dict = {}
    total = 0
    it = ds.iter_batches(batch_size=4096, batch_format="pandas")
    for df in itertools.islice(it, sample_batches):
        s = df[col]
        if exclude is not None:
            s = s[s != exclude]
        vc = s.value_counts()
        total += int(vc.sum())
        for k, n in vc.items():
            counts[k] = counts.get(k, 0) + int(n)
    if not total:
        return []
    return sorted(k for k, n in counts.items() if n / total > hot_fraction)


def reassemble(span_rows_ds, num_buckets: int | None = None):
    """The ordered-reassembly shuffle, bucketized.

    ``groupby(bucket)`` moves each doc's span rows to one place (same
    guarantee as grouping by doc_id — bucket is a pure function of
    doc_id) while giving the packer whole buckets to vectorize over.
    ``num_buckets`` must scale with cluster size/data so one bucket
    fits a worker's heap: default ``default_num_buckets`` (~256 MiB
    per bucket when the input size is known from metadata, else
    4x cluster CPUs).
    """
    if num_buckets is None:
        num_buckets = default_num_buckets(span_rows_ds, floor=32)
    return (
        span_rows_ds.map_batches(add_bucket(num_buckets), batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(_pack_bucket_drop, batch_format="pyarrow")
    )


def _pack_bucket_drop(group: pa.Table) -> pa.Table:
    return pack_bucket(group.drop_columns(["bucket"]))
