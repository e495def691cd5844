"""The three workloads and the per-layer measurements of the traced run.

Each workload drives the package only through its public entry points:

* ``raster_ocr`` — ``build_extraction_pipeline`` in broadcast mode with
  ``PpmOcrEngine``: the fused explode -> strip -> extract -> local-pack
  actor stage; the consumer iterates the output.
* ``join_shuffle`` — ``build_extraction_pipeline(media_mode="join")``:
  hot-ref detection, the bucketed hash-join shuffle,
  ``InlineMediaExtract`` and the ``groupby`` reassembly shuffle.
* ``partitioned_job`` — ``run_partitioned_extraction`` into a fresh
  output directory per pass (parquet write, atomic rename and lineage
  commit per partition), read back with ``read_output``.

Per-layer numbers come from outside the program: Ray Data's own
``Dataset`` stats of each traced pass, a single-process replay of the
layer functions on the same input blocks, and driver-side spans.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data

from inputs import count_wrong
from ocr_pipeline_ray.functions.hashing import hash_string_column
from ocr_pipeline_ray.functions.ppm_ocr import PpmOcrEngine
from ocr_pipeline_ray.pipelines.checkpoint import (
    list_input_files,
    read_output,
    run_partitioned_extraction,
)
from ocr_pipeline_ray.pipelines.extract import (
    SPAN_COLS,
    build_extraction_pipeline,
    detect_hot_refs,
    join_media_spans,
    read_docs,
)
from ocr_pipeline_ray.stages.explode import explode_batch
from ocr_pipeline_ray.stages.extract import (
    InlineMediaExtract,
    MediaExtractActor,
    SyntheticEngine,
    strip_html_batch,
)
from ocr_pipeline_ray.stages.reassemble import default_num_buckets, pack_bucket
from ocr_pipeline_ray.state.media_store import BroadcastMediaStore, broadcast_media

# canonical operator names for Ray Data's (fused) operators, matched on
# the UDF names inside the operator name, first match wins
OPS = (
    ("extract", ("_ExtractPackAll", "InlineMediaExtract")),
    ("join", ("tag_spans", "tag_media", "join_bucket")),
    ("reassemble", ("add_bucket", "_pack_bucket_drop")),
    ("write", ("Write",)),
    ("html", ("strip_html_batch",)),
    ("explode", ("explode_batch",)),
    ("read", ("ReadParquet", "FromArrow")),
)
SHUFFLE_OPS = ("Sort", "Shuffle", "Aggregate", "HashShuffle", "Repartition")
OP_FIELDS = (("wall_s", "s"), ("udf_s", "s"), ("rows_out", "count"), ("bytes_out", "bytes"))
OP_KEYS = [f for f, _ in OP_FIELDS] + ["shuffle_s"]
POOL_PROBES = 3
# a pass (or partition) is stalled when its first output (or duration)
# exceeds this multiple of the run's median
STALL_FACTOR = 3.0


def _canonical_op(name: str) -> str | None:
    for canon, keys in OPS:
        if any(k in name for k in keys):
            return canon
    return None


def _operators_upstream_first(summary, seen=None) -> list:
    seen = set() if seen is None else seen
    ops = []
    for parent in summary.parents or []:
        ops += _operators_upstream_first(parent, seen)
    for op in summary.operators_stats:
        if id(op) not in seen:
            seen.add(id(op))
            ops.append(op)
    return ops


def op_stats(summary, into: dict | None = None) -> dict:
    """Per canonical operator: summed remote wall and UDF time, rows and
    bytes out, from Ray Data's stats of one execution. The sub-operators
    of a shuffle (``SortMap``, ``SortReduce``, ...) carry no UDF; their
    elapsed time (first block start to last block end) is charged as
    ``shuffle_s`` to the grouped map that consumes them (``join_bucket``
    -> join, ``_pack_bucket_drop`` -> reassemble)."""
    out = into if into is not None else {}
    shuffle_wall = 0.0
    for op in _operators_upstream_first(summary):
        name = op.operator_name
        wall = (op.wall_time or {}).get("sum", 0.0)
        if name.startswith(SHUFFLE_OPS):
            shuffle_wall += op.time_total_s
            continue
        canon = _canonical_op(name)
        if canon is None:
            continue
        d = out.setdefault(canon, dict.fromkeys(OP_KEYS, 0.0))
        d["wall_s"] += wall
        d["udf_s"] += (op.udf_time or {}).get("sum", 0.0)
        d["rows_out"] += (op.output_num_rows or {}).get("sum", 0)
        d["bytes_out"] += (op.output_size_bytes or {}).get("sum", 0)
        grouped = _canonical_op(name.split("->")[0])
        if grouped in ("join", "reassemble"):
            out.setdefault(grouped, dict.fromkeys(OP_KEYS, 0.0))["shuffle_s"] += shuffle_wall
        shuffle_wall = 0.0
    return out


@contextlib.contextmanager
def capture_writes(captured: list):
    """Record every Dataset that calls ``write_parquet`` (the
    partitioned job builds its datasets internally)."""
    orig = ray.data.Dataset.write_parquet

    def write_parquet(self, *args, **kwargs):
        captured.append(self)
        return orig(self, *args, **kwargs)

    ray.data.Dataset.write_parquet = write_parquet
    try:
        yield
    finally:
        ray.data.Dataset.write_parquet = orig


class _PoolProbe:
    """One pool actor's worth of start-up: a 1-CPU worker process that
    builds the workload's extract stage in its constructor."""

    def __init__(self, stage_cls, kwargs):
        self.stage = stage_cls(**kwargs)


class Workload:
    def __init__(self, cfg, paths, tracer, work_dir):
        _, _, self.mode, _, self.n_parts = cfg
        self.paths, self.tracer, self.work_dir = paths, tracer, work_dir
        self.engine = PpmOcrEngine if self.mode == "broadcast" else SyntheticEngine
        self.media_ref = None
        self.n_pass = 0

    def setup(self):
        """Load the cached inputs and, for the broadcast pipeline, put
        the media table into the object store once."""
        with self.tracer.span("setup.load_inputs"):
            self.media = pq.read_table(self.paths["media"])
            self.oracle = pq.read_table(self.paths["oracle"])
            self.n_docs = self.oracle.num_rows
        if self.mode == "broadcast":
            with self.tracer.span("setup.broadcast_media"):
                self.media_ref = broadcast_media(self.media)
        os.makedirs(self.work_dir, exist_ok=True)

    def run_pass(self, res: dict, t_start: float):
        """One timed pass; returns the collected output batches, or the
        output directory of the partitioned job."""
        self.n_pass += 1
        if self.mode == "partitioned":
            return self._partitioned_pass(res, t_start)
        t = time.perf_counter()
        with self.tracer.span("build_extraction_pipeline"):
            if self.mode == "broadcast":
                ds = build_extraction_pipeline(
                    read_docs(self.paths["docs"]), self.media_ref, engine_factory=self.engine
                )
            else:
                ds = build_extraction_pipeline(
                    read_docs(self.paths["docs"]), self.media, media_mode="join"
                )
        res["build_s"] = time.perf_counter() - t
        batches = []
        with self.tracer.span("consume"):
            for b in ds.iter_batches(batch_format="pyarrow", batch_size=None):
                if res["first"] is None:
                    res["first"] = time.perf_counter() - t_start
                batches.append(b.select(["doc_id", "spans"]))
        if res["traced"]:
            summary = ds._get_stats_summary()
            res["ops"] = op_stats(summary)
            res["consumer_blocked_s"] = summary.iter_stats.block_time.get()
        return pa.concat_tables(batches)

    def _partitioned_pass(self, res: dict, t_start: float) -> str:
        out_dir = os.path.join(self.work_dir, f"pass-{self.n_pass}")
        marks = []
        captured: list = []
        ctx = capture_writes(captured) if res["traced"] else contextlib.nullcontext()
        with ctx:
            run_partitioned_extraction(
                self.paths["docs"], self.media, out_dir, n_parts=self.n_parts,
                on_part_done=lambda i: marks.append(time.perf_counter()),
            )
        res["first"] = marks[0] - t_start
        res["partition_s"] = []
        for i in range(len(marks)):
            with open(os.path.join(out_dir, "_lineage", f"part-{i}.json")) as f:
                res["partition_s"].append(json.load(f)["duration_sec"])
        prev = t_start
        for i, m in enumerate(marks):
            self.tracer.add("partition", prev, m, part=i, duration_sec=res["partition_s"][i])
            prev = m
        if captured:
            ops: dict = {}
            for ds in captured:
                target = getattr(ds, "_write_ds", None) or ds
                op_stats(target._get_stats_summary(), ops)
            res["ops"] = ops
        return out_dir

    def output(self, res: dict) -> pa.Table:
        """The docs a pass delivered: its collected batches, or the
        committed partitions of its output directory."""
        out = res.pop("out")
        if self.mode != "partitioned":
            return out
        res["out_dir"] = out
        return read_output(out)

    def check(self, out: pa.Table, res: dict) -> int:
        """Docs wrong or missing against the oracle. For the traced
        partitioned job, also times a resumed re-submission over the
        committed output (every partition is skipped, so it costs the
        lineage scan), then removes the output."""
        wrong = count_wrong(out, self.oracle)
        if self.mode == "partitioned":
            out_dir = res.pop("out_dir")
            if res["traced"]:
                with self.tracer.span("checkpoint.resume_scan") as sp:
                    run_partitioned_extraction(
                        self.paths["docs"], self.media, out_dir, n_parts=self.n_parts
                    )
                res["resume_scan_s"] = sp.end - sp.start
            shutil.rmtree(out_dir, ignore_errors=True)
        return wrong

    def cleanup(self):
        shutil.rmtree(self.work_dir, ignore_errors=True)

    # ------------------------------------------------------------------
    # traced run only
    # ------------------------------------------------------------------

    def replay(self) -> dict:
        """Single-process replay of the layer functions on the same
        input blocks (one block per input file): per-layer busy time and
        work counts, and the single-threaded baseline."""
        r: dict = {}
        tr = self.tracer
        with tr.span("replay"):
            files = list_input_files(self.paths["docs"])
            blocks = [pq.read_table(f) for f in files]
            with tr.span("replay.broadcast_media") as sp:
                ref = broadcast_media(self.media)
            r["put_s"] = sp.end - sp.start
            stage = MediaExtractActor(ref, engine_factory=self.engine)
            acc = dict.fromkeys(("explode", "html", "media", "pack", "hash"), 0.0)
            rows = html_spans = media_spans = media_errors = docs_out = 0
            media_refs = []
            for block in blocks:
                t0 = time.perf_counter()
                spans = explode_batch(block)
                t1 = time.perf_counter()
                stripped = strip_html_batch(spans)
                t2 = time.perf_counter()
                extracted = stage(stripped)
                t3 = time.perf_counter()
                packed = pack_bucket(extracted.select(SPAN_COLS))
                t4 = time.perf_counter()
                hash_string_column(spans.column("doc_id"))
                t5 = time.perf_counter()
                for k, a, b in (("explode", t0, t1), ("html", t1, t2), ("media", t2, t3),
                                ("pack", t3, t4), ("hash", t4, t5)):
                    acc[k] += b - a
                    tr.add(f"replay.{k}", a, b)
                kinds = np.asarray(spans.column("kind").to_pylist(), dtype=object)
                media_mask = kinds != "text"
                rows += len(spans)
                html_spans += int((~media_mask).sum())
                media_spans += int(media_mask.sum())
                errs = np.asarray(extracted.column("error").to_pylist(), dtype=object)
                media_errors += int((errs[media_mask] != "").sum())
                media_refs += [m for m, k in zip(spans.column("media_ref").to_pylist(), kinds) if k != "text"]
                docs_out += len(packed)
            store = BroadcastMediaStore(ref)
            with tr.span("replay.media_store_get") as sp:
                for m in media_refs:
                    store.get(m)
            r.update(acc)
            r.update(rows=rows, html_spans=html_spans, media_spans=media_spans,
                     media_errors=media_errors, docs_out=docs_out, lookups=len(media_refs),
                     get_s=sp.end - sp.start)
            r["pool_start_s"] = self._probe_pool_start(ref)
            if self.mode == "partitioned":
                # the job builds its plans internally: build partition
                # 0's plan the way run_partitioned_extraction does
                # (median of 3 back-to-back builds, as partitions follow
                # each other in the job)
                part0 = files[0 :: self.n_parts]
                builds = []
                for _ in range(3):
                    with tr.span("replay.build_extraction_pipeline") as sp:
                        build_extraction_pipeline(ray.data.read_parquet(part0), ref)
                    builds.append(sp.end - sp.start)
                r["plan_build_s"] = float(np.median(builds))
            if self.mode == "join":
                r.update(self._replay_join())
        return r

    def _probe_pool_start(self, media_ref) -> float:
        if self.mode == "join":
            cls, kwargs = InlineMediaExtract, {"engine_factory": self.engine}
        else:
            cls, kwargs = MediaExtractActor, {"media_object_ref": media_ref, "engine_factory": self.engine}
        probe = ray.remote(num_cpus=1)(_PoolProbe)
        times = []
        for _ in range(POOL_PROBES):
            with self.tracer.span("replay.pool_start") as sp:
                a = probe.remote(cls, kwargs)
                ray.get(a.__ray_ready__.remote())
            times.append(sp.end - sp.start)
            ray.kill(a)
        return float(np.median(times))

    def _replay_join(self) -> dict:
        spans_ds = read_docs(self.paths["docs"]).map_batches(explode_batch, batch_format="pyarrow")
        media_ds = ray.data.from_arrow(self.media)
        with self.tracer.span("replay.detect_hot_refs") as sp:
            hot = detect_hot_refs(spans_ds)
        salt = inspect.signature(join_media_spans).parameters["salt"].default
        base = max(default_num_buckets(spans_ds, floor=64), default_num_buckets(media_ds, floor=64))
        counts: dict[int, int] = {}
        nbytes = 0
        with self.tracer.span("replay.join_tagged"):
            tagged = join_media_spans(spans_ds, media_ds, hot_refs=hot, _return_tagged=True)
            for b in tagged.iter_batches(batch_format="pyarrow", batch_size=None):
                nbytes += b.nbytes
                ks, cs = np.unique(b.column("__bucket").to_numpy(), return_counts=True)
                for k, c in zip(ks.tolist(), cs.tolist()):
                    counts[k] = counts.get(k, 0) + c
        sizes = sorted(counts.values())
        return {
            "hot_detect_s": sp.end - sp.start,
            "hot_refs": len(hot),
            "join_buckets": base + salt * len(hot),
            "bucket_rows_max": sizes[-1] if sizes else 0,
            "bucket_rows_p50": float(np.median(sizes)) if sizes else 0,
            "shuffle_bytes": nbytes,
            "reassemble_buckets": default_num_buckets(spans_ds, floor=32),
        }

    def layer_metrics(self, traced: list, ok: list, replay: dict) -> dict:
        """Every per-layer metric by name -> (value, unit); a layer the
        workload does not exercise reads 0."""
        med = lambda xs: float(np.median(xs)) if len(xs) else 0.0  # noqa: E731
        ops = [p.get("ops", {}) for p in traced]

        def op(canon, field):
            return med([o.get(canon, {}).get(field, 0.0) for o in ops])

        m: dict = {}
        m["extract.plan_build_s"] = (
            replay["plan_build_s"] if self.mode == "partitioned"
            else med([p.get("build_s", 0.0) for p in traced]), "s"
        )
        store_used = self.mode != "join"
        m["media_store.put_s"] = (replay["put_s"] if store_used else 0.0, "s")
        m["media_store.bytes"] = (self.media.nbytes if store_used else 0, "bytes")
        m["media_store.lookups"] = (replay["lookups"] if store_used else 0, "count")
        m["media_store.get_us"] = (
            1e6 * replay["get_s"] / max(1, replay["lookups"]) if store_used else 0.0, "us"
        )
        m["explode.busy_s"] = (replay["explode"], "s")
        m["explode.rows_out"] = (replay["rows"], "count")
        m["html.busy_s"] = (replay["html"], "s")
        m["html.spans"] = (replay["html_spans"], "count")
        m["html.us_per_span"] = (1e6 * replay["html"] / max(1, replay["html_spans"]), "us")
        ppm = self.engine is PpmOcrEngine
        m["ocr.busy_s"] = (replay["media"] if ppm else 0.0, "s")
        m["ocr.spans"] = (replay["media_spans"] if ppm else 0, "count")
        m["ocr.us_per_span"] = (1e6 * replay["media"] / max(1, replay["media_spans"]) if ppm else 0.0, "us")
        m["ocr.errors"] = (replay["media_errors"] if ppm else 0, "count")
        m["media_extract.busy_s"] = (0.0 if ppm else replay["media"], "s")
        m["hash.busy_s"] = (replay["hash"], "s")
        m["pack.busy_s"] = (replay["pack"], "s")
        m["pack.docs_out"] = (replay["docs_out"], "count")
        m["replay.docs_per_s"] = (
            self.n_docs / sum(replay[k] for k in ("explode", "html", "media", "pack")), "docs/s"
        )
        m["reassemble.shuffle_s"] = (op("reassemble", "shuffle_s"), "s")
        m["reassemble.num_buckets"] = (replay.get("reassemble_buckets", 0), "count")
        m["join.hot_detect_s"] = (replay.get("hot_detect_s", 0.0), "s")
        m["join.hot_refs"] = (replay.get("hot_refs", 0), "count")
        m["join.shuffle_s"] = (op("join", "shuffle_s"), "s")
        m["join.num_buckets"] = (replay.get("join_buckets", 0), "count")
        m["join.bucket_rows_max"] = (replay.get("bucket_rows_max", 0), "count")
        m["join.bucket_rows_p50"] = (replay.get("bucket_rows_p50", 0), "count")
        m["join.shuffle_bytes"] = (replay.get("shuffle_bytes", 0), "bytes")
        parts = [s for p in ok for s in p.get("partition_s", [])]
        traced_parts = [s for p in traced for s in p.get("partition_s", [])]
        m["checkpoint.partition_s_p50"] = (med(traced_parts), "s")
        m["checkpoint.partition_s_max"] = (max(traced_parts, default=0.0), "s")
        m["checkpoint.stalled_partitions"] = (
            sum(1 for s in parts if s > STALL_FACTOR * med(parts)), "count"
        )
        m["checkpoint.write_busy_s"] = (op("write", "wall_s"), "s")
        m["checkpoint.resume_scan_s"] = (med([p.get("resume_scan_s", 0.0) for p in traced]), "s")
        for canon, _ in OPS:
            for field, unit in OP_FIELDS:
                m[f"op.{canon}.{field}"] = (op(canon, field), unit)
        m["executor.pool_start_s"] = (replay["pool_start_s"], "s")
        m["executor.consumer_blocked_s"] = (med([p.get("consumer_blocked_s", 0.0) for p in traced]), "s")
        return m
