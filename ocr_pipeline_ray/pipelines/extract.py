"""The flagship pipeline: interleaved docs -> ordered extracted spans.

Ray-Data-first shape (SURVEY.md §7)::

    read_parquet(docs)
      -> explode                                    # doc rows -> span rows
      -> strip_html                                 # vectorized text spans
      -> MediaExtractActor (task)                   # warm engine per process
      -> pack                                       # ordered reassembly
      [-> write_parquet(out, partitioned)]

Replaces the reference's HTTP microservice chain (pipeline/app.py:157-212)
and its bucket/monitor dynamic batching (message_queue/bucket.py:60-81,
monitor.py:15-93): ``map_batches(batch_size=B)`` + the streaming
executor provide cross-document batch formation and backpressure
natively (SURVEY.md §2.4 G1).

Every topology runs the same extract kernel,
:class:`~ocr_pipeline_ray.stages.extract.MediaExtractActor`, which
hands the engine each media span's payload as a read-only view of an
Arrow buffer, never a copy. Every
extraction stage is a stateless Ray Data task: ``map_batches`` gets a
small picklable callable *instance* (media ref, engine factory), and
the engine plus the resolved media store stay warm per worker process
(:func:`~ocr_pipeline_ray.stages.extract.warm_state`), so no stage
starts an actor pool and Ray Data may fuse the kernel with the read.
One topology per media mode:

* ``media_mode="broadcast"`` (default): the media table is put into
  the object store once and ONE fused task stage
  (:class:`_ExtractPackAll`) explodes a block of doc rows, strips
  HTML, looks each media span's payload up in the store (a view of
  the object-store buffer), extracts and packs the docs locally —
  zero shuffle.
* ``media_mode="join"``: media too large to broadcast. A bucketed hash
  join on ``media_ref`` (:func:`join_media_spans`) attaches
  ``payload`` to the span rows,
  :class:`~ocr_pipeline_ray.stages.extract.InlineMediaExtract` tasks
  extract, and a ``doc_id`` shuffle reassembles.

Skew between heavy multi-page PDFs and tiny HTML rows rests on the
fused kernel: a heavy PDF costs milliseconds inside its block's task
(``PpmOcrEngine`` on one Xeon vCPU: about 1 ms for a 40-page raster
PDF, 4 ms for a 200-page one), so no size routing, staging or
separate pdf batches are needed.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ocr_pipeline_ray.schema import DOCS_SCHEMA, SPAN_ROWS_SCHEMA
from ocr_pipeline_ray.stages.explode import explode_batch
from ocr_pipeline_ray.stages.extract import (
    InlineMediaExtract,
    MediaExtractActor,
    SyntheticEngine,
    strip_html_batch,
)
from ocr_pipeline_ray.stages.reassemble import detect_hot_keys, pack_bucket, reassemble
from ocr_pipeline_ray.state.media_store import broadcast_media, check_unique_refs

SPAN_COLS = SPAN_ROWS_SCHEMA.names

# span rows per batch on the join topology (and on the fused one under
# a GPU request)
TEXT_BATCH_SIZE = 2048
IMAGE_BATCH_SIZE = 1024
# valid only for actors; a task stage retries with ``max_retries``
ACTOR_ONLY_REMOTE_ARGS = ("max_restarts", "max_task_retries", "concurrency")


def read_docs(path: str) -> "ray.data.Dataset":
    """Read the docs table: Lance dataset when the path is one and the
    package is installed (the north rule's preferred format), JSONL
    when the path is .jsonl/.json files (the standard web-corpus dump
    format — spans arrive as lists of dicts and normalize to the same
    Arrow struct schema), else parquet."""
    if os.path.isdir(path) and os.path.exists(os.path.join(path, "_versions")):
        try:
            return ray.data.read_lance(path)
        except (ImportError, AttributeError):
            pass
    is_jsonl = path.endswith((".jsonl", ".json")) or (
        os.path.isdir(path)
        and any(f.endswith((".jsonl", ".json")) for f in os.listdir(path))
    )
    if is_jsonl:
        def _canon(t: pa.Table) -> pa.Table:
            # JSON inference widens ints (offset -> int64) and may
            # order struct fields differently; pin the wire schema
            return t.select(DOCS_SCHEMA.names).cast(DOCS_SCHEMA)

        return ray.data.read_json(path).map_batches(_canon, batch_format="pyarrow")
    is_csv = path.endswith(".csv") or (
        os.path.isdir(path) and any(f.endswith(".csv") for f in os.listdir(path))
    )
    if is_csv:
        # flat dump format: nested spans ship as a JSON string column
        # (the common CSV-with-JSON-payload shape); parse + pin schema
        import json as _json

        def _parse(t: pa.Table) -> pa.Table:
            spans = [_json.loads(s) for s in t["spans"].to_pylist()]
            cols = {n: t[n] for n in DOCS_SCHEMA.names if n != "spans"}
            cols["spans"] = pa.array(spans, DOCS_SCHEMA.field("spans").type)
            return pa.Table.from_pydict(cols).select(DOCS_SCHEMA.names).cast(DOCS_SCHEMA)

        return ray.data.read_csv(path).map_batches(_parse, batch_format="pyarrow")
    return ray.data.read_parquet(path)


class _ExtractPackAll(MediaExtractActor):
    """Fused explode -> extract -> LOCAL pack over one block of doc
    rows: because a document's span rows are created inside this very
    batch (explode) and never leave it, reassembly needs NO shuffle —
    the pack is a local sort within the batch.

    Partitioning assumption (the reason this is correct): the input
    batch contains WHOLE documents (one input row per doc;
    ``batch_size=None`` = one block per call), and no operator between
    explode and pack re-partitions rows. A path that breaks doc
    locality — the media shuffle join — must use the shuffle-based :func:`~ocr_pipeline_ray.stages.reassemble.reassemble`
    instead. Measured: removes the reassembly sort barrier that
    dominated the post-extract tail (~23 s of a 57 s run at 16 cores).

    A ``path`` input column (``read_parquet(include_paths=True)``)
    rides along: each call packs one whole input block, so a doc's
    source file is found by its ``doc_id`` in this same batch.
    ``writer`` (optional) receives the packed block and its return
    value is emitted instead — the partitioned job writes each block
    under its partition from here and emits only a small summary.

    Like its base class, an instance holds only what it was built
    with; the engine and the store come from the worker's warm cache.
    """

    def __init__(self, media_object_ref, writer=None, engine_factory=SyntheticEngine):
        super().__init__(media_object_ref, engine_factory)
        self.writer = writer

    def __call__(self, batch: pa.Table) -> pa.Table:
        spans = explode_batch(batch)
        spans = strip_html_batch(spans)
        spans = super().__call__(spans)
        packed = pack_bucket(spans.select(SPAN_COLS))
        if "path" in batch.column_names:
            idx = pc.index_in(
                packed.column("doc_id"), value_set=batch.column("doc_id").combine_chunks()
            )
            packed = packed.append_column("path", batch.column("path").take(idx))
        return packed if self.writer is None else self.writer(packed)


def build_extraction_pipeline(
    docs_ds: "ray.data.Dataset",
    media: pa.Table | "ray.ObjectRef",
    *,
    media_mode: str = "broadcast",
    engine_factory=None,
    media_remote_args: dict | None = None,
    block_writer=None,
) -> "ray.data.Dataset":
    """Assemble the lazy extraction Dataset; caller consumes it.

    ``media`` is a ``pa.Table`` (broadcast through
    :func:`~ocr_pipeline_ray.state.media_store.broadcast_media`, which
    rejects anything else and duplicate ``media_ref``), an ObjectRef
    the caller already broadcast, or — with ``media_mode="join"`` — a
    Dataset.

    Every extraction stage runs as Ray Data tasks, as many at a time
    as the cluster's free CPUs allow; the engine and the media store
    stay warm per worker process, keyed by the media ref and the
    engine factory (:func:`~ocr_pipeline_ray.stages.extract.warm_state`).

    ``media_remote_args`` go to the media/extract stages only:
    resources (``num_gpus=0.5``, ``resources={"accel": 1}``) for a real
    GPU engine behind the ``engine_factory`` seam, or a retry budget
    (``max_retries``). Without them Ray already re-runs a task whose
    worker died (a killed worker recovers with golden output, proven by
    tests/test_fault_tolerance.py's hard-kill tests; the reference
    DECLARES ``retries: 5`` in configs/config.yml:24-25 but never wires
    it). Options valid only for actors (``ACTOR_ONLY_REMOTE_ARGS``)
    raise ``ValueError`` here, before anything runs.

    ``engine_factory`` overrides the media engine (default
    :class:`SyntheticEngine`); it must be picklable (a top-level
    class or a ``functools.partial`` of one), e.g. the real stdlib
    PPM/BMP decoder engine or a PaddleOCR/pdfium wrapper.

    The broadcast topology fuses explode -> extract -> pack into ONE
    task stage and reassembly is a local sort per block — zero
    shuffle — because doc locality is preserved by construction there
    (see :class:`_ExtractPackAll` for the exact assumption). The
    media-join topology reassembles through the ``doc_id`` shuffle.

    ``block_writer`` (fused topology only) is handed to
    :class:`_ExtractPackAll`, which writes every packed block through
    it and emits its return value instead.
    """
    if block_writer is not None and media_mode == "join":
        raise ValueError("block_writer needs the fused local-pack topology")
    remote_args = media_remote_args or {}
    for key in ACTOR_ONLY_REMOTE_ARGS:
        if key in remote_args:
            raise ValueError(
                f"media_remote_args[{key!r}] is valid only for actors; the extract "
                "stages run as tasks (retry budget: max_retries)"
            )
    engine_factory = engine_factory or SyntheticEngine
    if media_mode == "join":
        # media too large to broadcast: bucketed hash join attaches
        # payloads inline (Arrow end-to-end, int32 offsets preserved
        # through the shuffle), then extract tasks run on the rows
        media_ds = media if isinstance(media, ray.data.Dataset) else ray.data.from_arrow(media)
        spans = docs_ds.map_batches(explode_batch, batch_format="pyarrow")
        joined = join_media_spans(spans, media_ds)

        done = (
            joined.map_batches(strip_html_batch, batch_format="pyarrow", batch_size=TEXT_BATCH_SIZE)
            .map_batches(
                InlineMediaExtract(engine_factory),
                batch_format="pyarrow",
                batch_size=IMAGE_BATCH_SIZE,
                **remote_args,
            )
        )
        return reassemble(done.select_columns(SPAN_COLS))

    media_ref = media if isinstance(media, ray.ObjectRef) else broadcast_media(media)
    # whole blocks = whole documents (zero-shuffle local pack) — except
    # under a GPU request, where Ray Data requires an explicit batch
    # size (GPU memory is sized per batch); doc locality still holds:
    # batches are formed from whole input rows, never split mid-document.
    fused_batch = TEXT_BATCH_SIZE if "num_gpus" in remote_args else None
    return docs_ds.map_batches(
        _ExtractPackAll(media_ref, block_writer, engine_factory),
        batch_format="pyarrow",
        batch_size=fused_batch,
        **remote_args,
    )


def detect_hot_refs(
    spans_ds: "ray.data.Dataset",
    hot_fraction: float = 0.05,
    sample_batches: int = 8,
) -> list[str]:
    """Sampled hot-``media_ref`` detection for :func:`join_media_spans`
    salting: value-counts over the first ``sample_batches`` batches of
    the span side (a streaming prefix — the plan is NOT fully
    executed, but the prefix does run; callers joining from a staged
    parquet read pay one fragment read). Non-empty refs holding more
    than ``hot_fraction`` of sampled media-span rows are hot. The
    empty ref ("" = text spans) is excluded from both the candidates
    and the fraction denominator — it has its own deterministic
    spread in the join and must never salt. Samples only the leading
    rows, so clustered or sorted span input can hide a hot ref (see
    ``detect_hot_keys``). Running the prefix executes the span plan's
    leading stages once here and again when the join consumes the
    plan, so ``hot_refs="auto"`` runs any upstream UDF twice on those
    rows. Thin wrapper over the repo's single hot-detection
    implementation (:func:`~ocr_pipeline_ray.stages.reassemble.detect_hot_keys`)
    so sampling policy can never diverge between the analytics and
    media joins."""
    return detect_hot_keys(
        spans_ds,
        "media_ref",
        hot_fraction=hot_fraction,
        sample_batches=sample_batches,
        exclude="",
    )


def join_media_spans(
    spans_ds: "ray.data.Dataset",
    media_ds: "ray.data.Dataset",
    num_buckets: int | None = None,
    hot_refs="auto",
    salt: int = 8,
    hot_fraction: float = 0.05,
    _return_tagged: bool = False,
) -> "ray.data.Dataset":
    """Attach media payloads to span rows by a bucketed hash join on
    ``media_ref`` — the media path when the media table is TOO LARGE to
    broadcast (the 100 TB regime): both sides shuffle once on
    ``hash(media_ref) % num_buckets`` and join per bucket.

    Arrow end-to-end: the bucket key is
    :func:`~ocr_pipeline_ray.functions.hashing.hash_string_column`
    (one numpy pass over the column's offset/data buffers — no
    pandas/object-dtype boxing on the path every media payload
    crosses), and the per-bucket join is ``pa.Table.join`` on
    zero-copy Arrow tables.

    Skew guard: text spans carry ``media_ref == ""``; hashing them by
    key would funnel 70% of all rows into one hot bucket, so empty-ref
    rows are spread by ``hash(doc_id) + offset`` instead (they match
    no media and only need to ride through the shuffle).

    Hot-ref guard (``hot_refs``, default ``"auto"``): one genuinely
    hot NON-empty ref — a site-wide logo referenced by half the
    corpus' spans — would still serialize one bucket on one worker
    (the reference's skew failure: SURVEY §4's one-doc-1000-regions
    stall). ``"auto"`` samples the span side's leading batches
    (:func:`detect_hot_refs` — a bounded streaming prefix, never a
    full execution); detected hot refs get ``salt`` dedicated
    sub-buckets past ``num_buckets``: their SPAN rows spread by
    ``hash(doc_id) + offset`` across the sub-buckets, their MEDIA row
    (exactly one per ref — the media table is a payload store)
    REPLICATES to all ``salt`` sub-buckets, so no single worker holds
    a hot ref's whole span set and the replication cost is one
    payload row x salt per hot ref. Same result as the unsalted join
    (planted-hot-ref test: tests/test_hot_keys.py). Pass an iterable
    to pin the hot set, or ``None`` to disable.

    COST of ``"auto"``: the detection prefix (up to 8 x 4096 span
    rows) executes the span plan's leading stages on the driver
    BEFORE the join runs, and that upstream prefix re-executes when
    the join itself consumes the lazy plan. Negligible against a
    media-scale join (the regime this path exists for) and measured
    ~nil on the bench extraction topology, but a caller with an
    expensive, stateful or side-effecting span-side plan and
    known-uniform refs should pass ``hot_refs=None``.

    ``_return_tagged=True`` returns the tagged pre-shuffle union
    (testing seam: lets tests assert the actual bucket histogram the
    shuffle would see).

    ``num_buckets=None`` sizes buckets from BOTH sides' metadata
    estimates (~256 MiB per bucket, max of the two — the media side is
    the payload-heavy reason this join exists and is often the side
    whose size IS known: a materialized table or a fresh parquet read,
    while the exploded span side is usually metadata-unknown mid-plan)
    with a floor of ``max(64, 4x cluster CPUs)`` — at 100 TB of media
    that is ~400k buckets, so one bucket always fits a worker's heap.
    """
    import numpy as np

    from ocr_pipeline_ray.functions.hashing import hash_string_column

    if num_buckets is None:
        from ocr_pipeline_ray.stages.reassemble import default_num_buckets

        num_buckets = max(
            default_num_buckets(spans_ds, floor=64),
            default_num_buckets(media_ds, floor=64),
        )
    if hot_refs == "auto":
        hot_refs = detect_hot_refs(spans_ds, hot_fraction=hot_fraction)
    hot_rank: dict[str, int] = (
        {r: i for i, r in enumerate(sorted(set(hot_refs)))} if hot_refs else {}
    )

    _COLS = SPAN_COLS + ["payload", "__bucket", "__side"]

    def tag_spans(t: pa.Table) -> pa.Table:
        ref_hash = hash_string_column(t.column("media_ref"))
        # a zero-span doc's placeholder row has a null offset
        off = t.column("offset").combine_chunks().fill_null(0).to_numpy(zero_copy_only=False)
        spread = hash_string_column(t.column("doc_id")) + off.astype(np.uint64)
        empty = pc.equal(t.column("media_ref"), "").combine_chunks().to_numpy(
            zero_copy_only=False
        )
        bucket = (np.where(empty, spread, ref_hash) % num_buckets).astype(np.int64)
        for ref, rank in hot_rank.items():
            m = pc.equal(t.column("media_ref"), ref).combine_chunks().to_numpy(
                zero_copy_only=False
            )
            if m.any():
                base = num_buckets + rank * salt
                bucket[m] = base + (spread[m] % np.uint64(salt)).astype(np.int64)
        t = t.append_column("payload", pa.nulls(len(t), pa.binary()))
        t = t.append_column("__bucket", pa.array(bucket, pa.int64()))
        t = t.append_column("__side", pa.array(np.ones(len(t), np.int8), pa.int8()))
        return t.select(_COLS)

    def tag_media(t: pa.Table) -> pa.Table:
        n = len(t)
        bucket = (hash_string_column(t.column("media_ref")) % num_buckets).astype(
            np.int64
        )
        # typed-NULL placeholders so the union schema matches the span
        # side block-for-block at zero construction cost (media rows'
        # placeholder columns are never read — join_bucket keeps only
        # media_ref + payload from this side)
        out = pa.Table.from_arrays(
            [
                pa.nulls(n, pa.string()),
                pa.nulls(n, pa.int32()),
                pa.nulls(n, pa.string()),
                pa.nulls(n, pa.string()),
                t.column("media_ref").combine_chunks(),
                pa.nulls(n, pa.string()),
                # compact, not a slice of the input block: Ray
                # serializes a sliced binary column about 13x slower
                # than a compact one (1.9 vs 0.14 ms for 1,024 rows,
                # 220 KB, on one Xeon vCPU), far more than this copy
                t.column("payload").combine_chunks().cast(pa.binary()),
                pa.array(bucket, pa.int64()),
                pa.array(np.zeros(n, np.int8), pa.int8()),
            ],
            names=_COLS,
        )
        if not hot_rank:
            return out
        # a hot ref's single media row REPLICATES to every sub-bucket
        # so each salted span slice finds its payload locally (the
        # cost is one payload row x salt per hot ref, nothing more)
        hot_mask = pc.is_in(
            out.column("media_ref"), value_set=pa.array(list(hot_rank), pa.string())
        )
        cold = out.filter(pc.invert(hot_mask))
        hot_t = out.filter(hot_mask)
        if len(hot_t) == 0:
            return cold
        ranks = np.array(
            [hot_rank[r] for r in hot_t.column("media_ref").to_pylist()], np.int64
        )
        bidx = _COLS.index("__bucket")
        reps = [cold]
        for j in range(salt):
            reps.append(
                hot_t.set_column(
                    bidx,
                    "__bucket",
                    pa.array(num_buckets + ranks * salt + j, pa.int64()),
                )
            )
        return pa.concat_tables(reps)

    st = spans_ds.map_batches(tag_spans, batch_format="pyarrow")
    mt = media_ds.map_batches(tag_media, batch_format="pyarrow")
    if _return_tagged:
        return st.union(mt)

    def join_bucket(g: pa.Table) -> pa.Table:
        # media_ref must be UNIQUE on the media side (payload store;
        # hot-ref replicas land in distinct sub-buckets, so a duplicate
        # here is one in the media table), so the left join is a
        # vectorized index_in + take — null index -> null payload —
        # measured ~25% faster than the general pa.Table.join per
        # bucket (BASELINE.md round-5 A/B) with identical semantics
        smask = pc.equal(g.column("__side"), 1)
        s = g.filter(smask).drop_columns(["payload", "__bucket", "__side"])
        m = g.filter(pc.invert(smask))
        check_unique_refs(m.column("media_ref"))
        idx = pc.index_in(
            s.column("media_ref").combine_chunks(),
            value_set=m.column("media_ref").combine_chunks(),
        )
        payload = m.column("payload").combine_chunks().take(idx)
        return s.append_column("payload", payload)

    return st.union(mt).groupby("__bucket").map_groups(join_bucket, batch_format="pyarrow")

