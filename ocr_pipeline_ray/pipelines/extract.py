"""The flagship pipeline: interleaved docs -> ordered extracted spans.

Ray-Data-first shape (SURVEY.md §7)::

    read_parquet(docs)
      -> map_batches(explode)                       # doc rows -> span rows
      -> map_batches(strip_html)                    # stateless tasks
      -> map_batches(MediaExtractActor, pool)       # warm engines
      -> groupby(doc_id).map_groups(pack)           # THE shuffle
      [-> write_parquet(out, partitioned)]

Replaces the reference's HTTP microservice chain (pipeline/app.py:157-212)
and its bucket/monitor dynamic batching (message_queue/bucket.py:60-81,
monitor.py:15-93): ``map_batches(batch_size=B)`` + the streaming
executor provide cross-document batch formation and backpressure
natively (SURVEY.md §2.4 G1).

Two stage topologies:

* ``split_kinds=False`` (default): one pass; a single extract pool
  handles text inline-vectorized and media via the store. No branch,
  no input re-read — right when engine cost per span is uniform.
* ``split_kinds=True``: size/kind-aware routing (north-rule skew
  requirement). The exploded span rows are staged to disk partitioned
  by kind ONCE (so the three branches do not re-execute the read), then
  light HTML rows flow through cheap stateless tasks while image/pdf
  rows get dedicated actor pools — the pdf pool with a smaller
  ``batch_size`` (the analog of the reference's 350-crop GPU batch cap,
  reference README.md:84-88).
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ocr_pipeline_ray.stages.explode import explode_batch
from ocr_pipeline_ray.stages.extract import (
    InlineMediaExtract,
    MediaExtractActor,
    strip_html_batch,
)
from ocr_pipeline_ray.stages.reassemble import reassemble
from ocr_pipeline_ray.state.media_store import broadcast_media

SPAN_COLS = ["doc_id", "offset", "kind", "text", "media_ref", "error", "size_hint"]


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
        from ocr_pipeline_ray.schema import DOCS_SCHEMA

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

        from ocr_pipeline_ray.schema import DOCS_SCHEMA

        def _parse(t: pa.Table) -> pa.Table:
            spans = [_json.loads(s) for s in t["spans"].to_pylist()]
            cols = {n: t[n] for n in DOCS_SCHEMA.names if n != "spans"}
            cols["spans"] = pa.array(spans, DOCS_SCHEMA.field("spans").type)
            return pa.Table.from_pydict(cols).select(DOCS_SCHEMA.names).cast(DOCS_SCHEMA)

        return ray.data.read_csv(path).map_batches(_parse, batch_format="pyarrow")
    return ray.data.read_parquet(path)


class _ExtractAll(MediaExtractActor):
    """Single-pass extract: text spans vectorized inline, media via store."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        batch = strip_html_batch(batch)
        return super().__call__(batch)


class _ExtractPackAll(MediaExtractActor):
    """Fused explode -> extract -> LOCAL pack over one block of doc
    rows: because a document's span rows are created inside this very
    batch (explode) and never leave it, reassembly needs NO shuffle —
    the pack is a local sort within the batch.

    Partitioning assumption (the reason this is correct): the input
    batch contains WHOLE documents (one input row per doc;
    ``batch_size=None`` = one block per call), and no operator between
    explode and pack re-partitions rows. Any path that breaks doc
    locality — kind-split branches, the media shuffle join — must use
    the shuffle-based :func:`~ocr_pipeline_ray.stages.reassemble.reassemble`
    instead. Measured: removes the reassembly sort barrier that
    dominated the post-extract tail (~23 s of a 57 s run at 16 cores).

    A ``path`` input column (``read_parquet(include_paths=True)``)
    rides along: each call packs one whole input block, so a doc's
    source file is found by its ``doc_id`` in this same batch.
    ``writer`` (optional) receives the packed block and its return
    value is emitted instead — the partitioned job writes each block
    under its partition from here and emits only a small summary.
    """

    def __init__(self, media_object_ref, writer=None, **engine_kwargs):
        super().__init__(media_object_ref, **engine_kwargs)
        self.writer = writer

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ocr_pipeline_ray.stages.reassemble import pack_bucket

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


def _select(ds, cols=SPAN_COLS):
    return ds.select_columns(cols)


def build_extraction_pipeline(
    docs_ds: "ray.data.Dataset",
    media: pa.Table | "ray.ObjectRef",
    *,
    media_mode: str = "broadcast",
    split_kinds: bool = False,
    stage_dir: str | None = None,
    extract_concurrency=None,
    text_batch_size: int = 2048,
    image_batch_size: int = 1024,
    pdf_batch_size: int = 64,
    engine_factory=None,
    max_restarts: int | None = None,
    max_task_retries: int | None = None,
    media_remote_args: dict | None = None,
    local_reassembly: bool = True,
    heavy_page_threshold: int = 5,
    block_writer=None,
) -> "ray.data.Dataset":
    """Assemble the lazy extraction Dataset; caller consumes it.

    ``extract_concurrency=None`` sizes the extract actor pool to the
    cluster: all but 2 CPUs (read/write/reassembly stages are I/O-light
    and interleave under streaming backpressure). A FIXED pool size is
    used so all actors start in parallel up front instead of trickling
    in via autoscaling — at 1000x data the pool is busy for the whole
    run and startup is amortized; at test scale it avoids the
    autoscaler's slow ramp dominating wall time.

    Fault tolerance: Ray Data's actor pools already restart dead
    actors and re-submit their in-flight batches (the default
    ``max_restarts``/``max_task_retries`` policy — a killed worker
    recovers with golden output, proven by
    tests/test_fault_tolerance.py's hard-kill test; the reference
    DECLARES ``retries: 5`` in configs/config.yml:24-25 but never
    wires it). Explicit ``max_restarts``/``max_task_retries``
    overrides are OPT-IN only: benchmarked on this host, passing them
    as ray_remote_args disables an actor-task submission fast path
    and costs ~1.8x wall time on the headline — leave them None
    unless a deployment needs a bounded retry budget.

    ``engine_factory`` overrides the media engine (default
    :class:`SyntheticEngine`); it must be picklable (a top-level
    class), e.g. the real stdlib PPM/BMP decoder engine or a
    PaddleOCR/pdfium wrapper.

    ``local_reassembly=True`` (default, single-pass broadcast path
    only): explode -> extract -> pack fuse into ONE actor stage and
    reassembly is a local sort per block — zero shuffle — because doc
    locality is preserved by construction there (see
    :class:`_ExtractPackAll` for the exact assumption). The kind-split
    and media-join topologies always use the shuffle-based
    reassembly, as do callers that re-partition between explode and
    pack (pass ``local_reassembly=False``).

    ``block_writer`` (fused topology only) is handed to each
    :class:`_ExtractPackAll` actor, which writes every packed block
    through it and emits its return value instead.
    """
    if block_writer is not None and (media_mode == "join" or split_kinds or not local_reassembly):
        raise ValueError("block_writer needs the fused local-pack topology")
    fault_args = {}
    if max_restarts is not None:
        fault_args["max_restarts"] = max_restarts
    if max_task_retries is not None:
        fault_args["max_task_retries"] = max_task_retries
    # resources for the MEDIA/extract actor pools only (num_gpus=0.5,
    # resources={"accel": 1}, ...) — a real GPU engine behind the
    # engine_factory seam sizes its pool with these; the default {}
    # keeps Ray Data's actor-task submission fast path (any explicit
    # ray_remote_args on this host costs ~1.8x wall, see BASELINE.md),
    # and GPU batch sizing guidance lives in stages/multimodal.py.
    fault_args.update(media_remote_args or {})
    engine_kwargs = {} if engine_factory is None else {"engine_factory": engine_factory}
    if media_mode == "join":
        # media too large to broadcast: bucketed hash join attaches
        # payloads inline (Arrow end-to-end, int32 offsets preserved
        # through the shuffle), then a stateless-state actor pool extracts
        media_ds = media if isinstance(media, ray.data.Dataset) else ray.data.from_arrow(media)
        spans = docs_ds.map_batches(explode_batch, batch_format="pyarrow")
        joined = join_media_spans(spans, media_ds)

        done = (
            joined.map_batches(strip_html_batch, batch_format="pyarrow", batch_size=text_batch_size)
            .map_batches(
                InlineMediaExtract,
                fn_constructor_kwargs=engine_kwargs,
                batch_format="pyarrow",
                batch_size=image_batch_size,
                concurrency=(1, 8),
                **fault_args,
            )
        )
        return reassemble(_select(done))

    media_ref = media if isinstance(media, ray.ObjectRef) else broadcast_media(media)
    if extract_concurrency is None:
        n_cpus = int(ray.cluster_resources().get("CPU", 8))
        # ~3/4 of the cluster for the extract pool, headroom for
        # read/shuffle/write tasks; never take the last CPU (a pool
        # owning every CPU starves the other stages and the pipeline
        # serializes or deadlocks). Measured on the bench corpus:
        # batch 2048 spans + fixed pool of 0.75*CPUs is the knee —
        # smaller batches pay per-task dispatch, bigger pools starve
        # the co-resident stages.
        extract_concurrency = min(max(2, int(n_cpus * 0.75)), max(1, n_cpus - 1))
    if not split_kinds:
        if local_reassembly:
            # doc locality is preserved by construction in this path
            # (see _ExtractPackAll) -> fused single stage, ZERO shuffle
            # whole blocks = whole documents (zero-shuffle local pack)
            # — except under a GPU request, where Ray Data requires an
            # explicit batch size (GPU memory is sized per batch, the
            # reference's 350-crop cap analog, reference README.md:84-88);
            # doc locality still holds: batches are formed from whole
            # input rows, never split mid-document.
            fused_batch = text_batch_size if "num_gpus" in fault_args else None
            return docs_ds.map_batches(
                _ExtractPackAll,
                fn_constructor_kwargs={
                    "media_object_ref": media_ref,
                    "writer": block_writer,
                    **engine_kwargs,
                },
                batch_format="pyarrow",
                batch_size=fused_batch,
                concurrency=extract_concurrency,
                **fault_args,
            )
        spans = docs_ds.map_batches(explode_batch, batch_format="pyarrow")
        done = spans.map_batches(
            _ExtractAll,
            fn_constructor_kwargs={"media_object_ref": media_ref, **engine_kwargs},
            batch_format="pyarrow",
            batch_size=text_batch_size,
            concurrency=extract_concurrency,
            **fault_args,
        )
        return reassemble(_select(done))
    spans = docs_ds.map_batches(explode_batch, batch_format="pyarrow")

    if stage_dir is None:
        raise ValueError("split_kinds=True requires stage_dir (disk-staged routing)")
    # two media pools must coexist with read/write tasks: autoscale
    # from 1 so neither pool can deadlock the other on a small cluster
    pool = (1, max(1, (int(extract_concurrency) if not isinstance(extract_concurrency, tuple) else extract_concurrency[1]) // 2))
    # SIZE-AWARE routing (north rule: heavy multi-page PDFs must not
    # ride in the same batches as tiny HTML rows): the route column is
    # kind, except pdf spans whose page count (from the broadcast
    # media store) reaches ``heavy_page_threshold`` — those go to a
    # dedicated heavy pool with 4x smaller batches, so one heavy batch
    # can't head-of-line-block a worker for minutes at cluster scale.
    spans = spans.map_batches(
        _SizeRouter,
        fn_constructor_kwargs={
            "media_object_ref": media_ref,
            "heavy_page_threshold": heavy_page_threshold,
        },
        batch_format="pyarrow",
        concurrency=(1, 4),
    )
    # Stage the exploded rows partitioned by route in ONE pass so the
    # per-route branches read their slice instead of re-executing the
    # upstream read (a Dataset branch re-runs its lineage otherwise).
    spans.write_parquet(stage_dir, partition_cols=["route"])

    branches = []
    for route, kind, batch_size, use_actor in (
        ("text", "text", text_batch_size, False),
        ("image", "image", image_batch_size, True),
        ("pdf", "pdf", pdf_batch_size, True),
        ("pdf_heavy", "pdf", max(8, pdf_batch_size // 4), True),
    ):
        part = os.path.join(stage_dir, f"route={route}")
        if not os.path.isdir(part):
            continue
        branch = ray.data.read_parquet(part)
        branch = branch.map_batches(
            _restore_kind(kind), batch_format="pyarrow", batch_size=batch_size
        )
        if use_actor:
            branch = branch.map_batches(
                MediaExtractActor,
                fn_constructor_kwargs={"media_object_ref": media_ref, **engine_kwargs},
                batch_format="pyarrow",
                batch_size=batch_size,
                concurrency=pool,
                **fault_args,
            )
        else:
            branch = branch.map_batches(
                strip_html_batch, batch_format="pyarrow", batch_size=batch_size
            )
        branches.append(_select(branch))
    head, *rest = branches
    merged = head.union(*rest) if rest else head
    return reassemble(merged)


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
    spread in the join and must never salt. Thin wrapper over the
    repo's single hot-detection implementation
    (:func:`~ocr_pipeline_ray.pipelines.relational.detect_hot_keys`)
    so sampling policy can never diverge between the analytics and
    media joins."""
    from ocr_pipeline_ray.pipelines.relational import detect_hot_keys

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
    expensive span-side plan and known-uniform refs should pass
    ``hot_refs=None``.

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
                pa.nulls(n, pa.int32()),
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
        # media_ref is UNIQUE on the media side (payload store; hot-ref
        # replicas land in distinct sub-buckets), so the left join is a
        # vectorized index_in + take — null index -> null payload —
        # measured ~25% faster than the general pa.Table.join per
        # bucket (BASELINE.md round-5 A/B) with identical semantics
        smask = pc.equal(g.column("__side"), 1)
        s = g.filter(smask).drop_columns(["payload", "__bucket", "__side"])
        m = g.filter(pc.invert(smask))
        idx = pc.index_in(
            s.column("media_ref").combine_chunks(),
            value_set=m.column("media_ref").combine_chunks(),
        )
        payload = m.column("payload").combine_chunks().take(idx)
        return s.append_column("payload", payload)

    return st.union(mt).groupby("__bucket").map_groups(join_bucket, batch_format="pyarrow")


class _SizeRouter:
    """Actor stage appending the size-aware ``route`` column: kind,
    except pdf spans with ``n_pages >= heavy_page_threshold`` (looked
    up in the broadcast media store — resolved ONCE per actor in
    ``__init__``, zero-copy) which route to the dedicated heavy pool."""

    def __init__(self, media_object_ref, heavy_page_threshold: int):
        from ocr_pipeline_ray.state.media_store import BroadcastMediaStore

        self.store = BroadcastMediaStore(media_object_ref)
        self.threshold = heavy_page_threshold

    def __call__(self, batch: pa.Table) -> pa.Table:
        import numpy as np

        kinds = np.asarray(batch.column("kind").to_pylist(), dtype=object)
        routes = kinds.copy()
        # only pdf rows need the per-ref page lookup; text/image rows
        # route vectorized by kind alone
        pdf_idx = np.flatnonzero(kinds == "pdf")
        if pdf_idx.size:
            refs = batch.column("media_ref").take(pa.array(pdf_idx)).to_pylist()
            heavy = [self.store.n_pages(r) >= self.threshold for r in refs]
            routes[pdf_idx[np.asarray(heavy, dtype=bool)]] = "pdf_heavy"
        return batch.append_column("route", pa.array(routes, pa.string()))


def _restore_kind(kind: str):
    """Hive partitioning strips/dictionary-encodes the partition column;
    restore a plain string ``kind`` column in schema position."""

    def _f(batch: pa.Table) -> pa.Table:
        drop = [c for c in ("kind", "route") if c in batch.column_names]
        if drop:
            batch = batch.drop_columns(drop)
        return batch.append_column("kind", pa.array([kind] * len(batch), pa.string()))

    return _f
