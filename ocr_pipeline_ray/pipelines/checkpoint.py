"""Resumable partitioned extraction runs: checkpoint + lineage + metrics.

Formalizes the reference's artifact-exists-as-done primitive
(reference load_test.py:16-23 counts ``result.txt`` files to detect
completion) and its JSONL monitoring sink
(reference monitoring/monitoring.py:181-194) into an explicit
partition-commit protocol (north rule: "resumable from checkpoint with
per-partition lineage + metrics"):

* The input is split into partitions **by input file** (no read
  amplification — each partition touches only its own parquet
  fragments; at cluster scale a partition is an input shard / key
  range).
* Every uncommitted partition runs in **one** Ray Data execution
  through one extract actor pool (one pool start-up and one plan build
  per job, not per partition). The files are read partition-major with
  their paths; the fused extract stage writes each packed block under
  its partition's ``out/part-{i}.tmp/`` and emits only a per-partition
  summary row.
* The driver reads the summary stream and commits partitions strictly
  in index order, each as soon as its written doc count reaches its
  input row count (parquet footers). A commit checks the on-disk row
  count, atomically renames ``part-{i}.tmp/`` to ``part-{i}/``, then
  writes the lineage record ``_lineage/part-{i}.json`` (input files,
  doc/span/error counts, ``duration_sec`` = time from execution start
  to this commit) — a partition is committed iff its lineage record
  exists. ``summary.json``'s ``duration_sec`` is the run's wall time.
* ``resume=True`` (default) skips committed partitions — a killed job
  re-runs only uncommitted work. Doc identity is deterministic
  (no uuids/timestamps in rows, SURVEY.md M12), and block files are
  named from their content, so replays (and retried blocks) are
  idempotent.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import shutil
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset
import pyarrow.parquet as pq
import ray.data

from ocr_pipeline_ray.pipelines.extract import build_extraction_pipeline
from ocr_pipeline_ray.state.media_store import broadcast_media

_SUMMARY_COLS = ("part", "n_docs", "n_spans", "n_errors")


def _partitions(files: list[str], n_parts: int) -> list[list[str]]:
    files = sorted(files)
    n_parts = min(n_parts, len(files)) or 1
    return [files[i::n_parts] for i in range(n_parts)]


def list_input_files(docs_path: str) -> list[str]:
    if os.path.isfile(docs_path):
        return [docs_path]
    return sorted(
        os.path.join(docs_path, f)
        for f in os.listdir(docs_path)
        if f.endswith(".parquet")
    )


def committed_partitions(out_dir: str) -> set[int]:
    lineage_dir = os.path.join(out_dir, "_lineage")
    if not os.path.isdir(lineage_dir):
        return set()
    parts = set()
    for f in os.listdir(lineage_dir):
        if f.startswith("part-") and f.endswith(".json"):
            parts.add(int(f[len("part-"):-len(".json")]))
    return parts


def _lineage_record(out_dir: str, i: int) -> dict | None:
    lp = os.path.join(out_dir, "_lineage", f"part-{i}.json")
    if not os.path.exists(lp):
        return None
    with open(lp) as f:
        return json.load(f)


def valid_committed_partitions(out_dir: str, parts: list[list[str]]) -> set[int]:
    """Committed partitions whose lineage record matches the CURRENT
    striped file assignment. If the input file set or partition count
    changed between the original run and this resume, membership
    shifts — a record whose ``input_files`` no longer equals the
    current ``parts[i]`` is stale and its partition must re-run
    (otherwise new files would silently never be processed)."""
    valid = set()
    for i in committed_partitions(out_dir):
        if i >= len(parts):
            continue  # partition index no longer exists under the new layout
        rec = _lineage_record(out_dir, i)
        if rec is not None and rec.get("input_files") == parts[i]:
            valid.add(i)
    return valid


def _doc_locality_error(pipeline_kwargs: dict) -> str | None:
    """Why these pipeline options cannot run under per-partition commit
    (every doc's rows must stay in its input block), or None."""
    if pipeline_kwargs.get("split_kinds") or pipeline_kwargs.get("stage_dir"):
        return "split_kinds/stage_dir re-partition span rows across kind branches"
    if pipeline_kwargs.get("media_mode", "broadcast") == "join":
        return 'media_mode="join" shuffles span rows by media_ref'
    return None


class _PartitionWriter:
    """Block writer for the fused extract stage: writes each packed
    block's rows under their partition's ``part-{i}.tmp/`` and returns
    one summary row per input file slice.

    A file is named from its content (input file + first ``doc_id``),
    so a block re-executed after an actor restart overwrites its file
    instead of adding a duplicate; it is written under a hidden name
    and renamed, so a reader never sees half a file."""

    def __init__(self, out_dir: str, file_part: dict[str, int]):
        self.out_dir = out_dir
        self.file_part = file_part

    def __call__(self, packed: pa.Table) -> pa.Table:
        paths = packed.column("path")
        data = packed.drop_columns(["path"])
        rows = []
        for path in pc.unique(paths).to_pylist():
            part = data.filter(pc.equal(paths, path))
            i = self.file_part[path]
            key = f"{path}\0{part.column('doc_id')[0].as_py()}".encode()
            stem = os.path.basename(path).rsplit(".", 1)[0]
            name = f"{stem}-{hashlib.sha1(key).hexdigest()[:16]}.parquet"
            tmp_dir = os.path.join(self.out_dir, f"part-{i}.tmp")
            hidden = os.path.join(tmp_dir, "." + name)
            pq.write_table(part, hidden)
            os.replace(hidden, os.path.join(tmp_dir, name))
            n_spans = pc.sum(part.column("n_spans")).as_py()
            n_errors = pc.sum(part.column("n_errors")).as_py()
            rows.append(dict(zip(_SUMMARY_COLS, (i, part.num_rows, n_spans, n_errors))))
        return pa.Table.from_pylist(rows)


def _commit(out_dir: str, i: int, part_files: list[str], expected: int, counts: list, t0: float):
    """Verify partition ``i``'s written rows, rename its data dir into
    place and write its lineage record (both atomic renames)."""
    part_dir = os.path.join(out_dir, f"part-{i}")
    tmp_dir = part_dir + ".tmp"
    on_disk = pyarrow.dataset.dataset(tmp_dir, format="parquet").count_rows()
    if on_disk != expected:
        raise RuntimeError(
            f"partition {i}: {on_disk} docs on disk in {tmp_dir}, {expected} input rows; not committed"
        )
    os.rename(tmp_dir, part_dir)  # atomic commit of data
    duration = time.time() - t0
    n_docs, n_spans, n_errors = counts
    lineage = {
        "part": i,
        "input_files": part_files,
        "n_docs": n_docs,
        "n_spans": n_spans,
        "n_errors": n_errors,
        "duration_sec": round(duration, 3),
        "docs_per_sec": round(n_docs / duration, 3) if duration > 0 else None,
    }
    lp = os.path.join(out_dir, "_lineage", f"part-{i}.json")
    with open(lp + ".tmp", "w") as f:
        json.dump(lineage, f)
    os.rename(lp + ".tmp", lp)  # atomic commit of the lineage record


def run_partitioned_extraction(
    docs_path: str,
    media: pa.Table,
    out_dir: str,
    n_parts: int = 8,
    resume: bool = True,
    on_part_done=None,
    **pipeline_kwargs,
) -> dict:
    """Run extraction over every uncommitted partition in one execution,
    committing each partition (in index order) as soon as it is written.

    Returns the run summary (also written to ``_lineage/summary.json``).
    ``on_part_done(part_idx)`` is called after each commit (a test hook,
    e.g. raise to simulate a mid-run kill; the execution is shut down
    before any error propagates). ``pipeline_kwargs`` go to
    :func:`build_extraction_pipeline`; options that move a doc's rows
    out of its input block raise ``ValueError``.
    """
    reason = _doc_locality_error(pipeline_kwargs)
    if reason is not None:
        raise ValueError(f"per-partition commit needs whole docs per input block: {reason}")
    t_start = time.time()
    os.makedirs(os.path.join(out_dir, "_lineage"), exist_ok=True)
    files = list_input_files(docs_path)
    parts = _partitions(files, n_parts)
    # resume trusts a lineage record only if its input_files match the
    # current striped assignment — a changed file set or n_parts
    # invalidates stale commits instead of silently skipping new work.
    # Cleanup covers EVERY existing part index (committed or not, in
    # or beyond the current layout): a resume=False re-run with fewer
    # parts must not leave old part-{i} dirs that read_output would
    # then concatenate as duplicates.
    done = valid_committed_partitions(out_dir, parts) if resume else set()
    existing = committed_partitions(out_dir)
    for d in os.listdir(out_dir):
        name = d[:-len(".tmp")] if d.endswith(".tmp") else d
        if name.startswith("part-") and name[len("part-"):].isdigit():
            existing.add(int(name[len("part-"):]))
    stale = existing - done if resume else existing | set(range(len(parts)))
    for i in sorted(stale):
        shutil.rmtree(os.path.join(out_dir, f"part-{i}"), ignore_errors=True)
        shutil.rmtree(os.path.join(out_dir, f"part-{i}.tmp"), ignore_errors=True)
        lp = os.path.join(out_dir, "_lineage", f"part-{i}.json")
        if os.path.exists(lp):
            os.remove(lp)

    todo = [i for i in range(len(parts)) if i not in done]
    skipped = sorted(done)
    for i in todo:
        part_dir = os.path.join(out_dir, f"part-{i}")
        shutil.rmtree(part_dir + ".tmp", ignore_errors=True)  # torn previous attempt
        shutil.rmtree(part_dir, ignore_errors=True)
        os.makedirs(part_dir + ".tmp")
    if todo:
        _run_todo(out_dir, parts, todo, media, on_part_done, pipeline_kwargs)

    # aggregate metrics across all committed partitions
    totals = {"n_docs": 0, "n_spans": 0, "n_errors": 0}
    for i in range(len(parts)):
        rec = _lineage_record(out_dir, i)
        if rec is not None:
            for k in totals:
                totals[k] += rec[k]
    summary = {
        "n_parts": len(parts),
        "ran": todo,
        "skipped_committed": skipped,
        **totals,
        "duration_sec": round(time.time() - t_start, 3),
    }
    with open(os.path.join(out_dir, "_lineage", "summary.json"), "w") as f:
        json.dump(summary, f)
    return summary


def _run_todo(out_dir, parts, todo, media, on_part_done, pipeline_kwargs) -> None:
    """One execution over the ``todo`` partitions' files (partition-major);
    commits each partition from the summary stream, in index order."""
    # the path column holds absolute paths
    file_part = {os.path.abspath(f): i for i in todo for f in parts[i]}
    expected = {i: sum(pq.ParquetFile(f).metadata.num_rows for f in parts[i]) for i in todo}
    counts = {i: [0, 0, 0] for i in todo}
    t0 = time.time()
    stream = _block_summaries(out_dir, file_part, media, pipeline_kwargs)

    def commit(i):
        _commit(out_dir, i, parts[i], expected[i], counts[i], t0)
        if on_part_done is not None:
            on_part_done(i)

    waiting = list(todo)  # committed strictly in index order
    try:
        for summary in stream:
            for i, *c in zip(*(summary.column(k).to_pylist() for k in _SUMMARY_COLS)):
                counts[i] = [a + b for a, b in zip(counts[i], c)]
            while waiting and counts[waiting[0]][0] >= expected[waiting[0]]:
                commit(waiting.pop(0))
        for i in waiting:
            commit(i)
    finally:
        # shut the execution down before returning or raising. The
        # pool's last actor handles sit in reference cycles inside Ray
        # Data, so collect them now: an actor lives (and holds its CPU)
        # until then, and a traceback would keep it alive indefinitely
        stream.close()
        gc.collect()


def _block_summaries(out_dir, file_part, media, pipeline_kwargs):
    """The job's one execution: yields the per-block summary batches.
    Every Dataset object lives in this generator's frame, so closing it
    drops the pool's last actor handles even while a traceback keeps
    the caller's frame alive."""
    ds = ray.data.read_parquet(list(file_part), include_paths=True)
    writer = _PartitionWriter(out_dir, file_part)
    out = build_extraction_pipeline(ds, broadcast_media(media), block_writer=writer, **pipeline_kwargs)
    yield from out.iter_batches(batch_format="pyarrow", batch_size=None, prefetch_batches=0)


def read_output(out_dir: str) -> pa.Table:
    """Read all COMMITTED partitions as one Arrow table.

    A partition counts only if its lineage record exists — a data dir
    without a record (torn run, or leftover from a prior layout with
    more partitions) is never read, so stale ``part-{i}`` dirs can't
    duplicate docs."""
    dirs = [
        os.path.join(out_dir, f"part-{i}")
        for i in sorted(committed_partitions(out_dir))
        if os.path.isdir(os.path.join(out_dir, f"part-{i}"))
    ]
    return pa.concat_tables([pa.parquet.read_table(d) for d in dirs])
