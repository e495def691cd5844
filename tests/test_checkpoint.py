"""Resume-after-kill test (SURVEY.md §5): kill after partition k
commits, rerun, assert committed partitions are not reprocessed and
the final output equals a single-run output."""

import json
import os
import time

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from ocr_pipeline_ray.pipelines.checkpoint import (
    committed_partitions,
    read_output,
    run_partitioned_extraction,
)
from ocr_pipeline_ray.pipelines.extract import SPAN_COLS
from ocr_pipeline_ray.sources.gen import write_corpus
from ocr_pipeline_ray.stages.explode import explode_batch


class _Kill(Exception):
    pass


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("ckpt_corpus"))
    paths = write_corpus(d, 300, seed=42, shards=8)
    media = pq.read_table(paths["media"])
    return paths, media


def _spans_key(table):
    return {
        r["doc_id"]: [(s["kind"], s["text"], s["media_ref"], s["offset"]) for s in r["spans"]]
        for r in table.to_pylist()
    }


def test_kill_and_resume(corpus, tmp_path):
    paths, media = corpus
    out_a = str(tmp_path / "single")
    run_partitioned_extraction(paths["docs"], media, out_a, n_parts=4)
    single = read_output(out_a)

    out_b = str(tmp_path / "resumed")

    def killer(part):
        if part == 1:
            raise _Kill()

    with pytest.raises(_Kill):
        run_partitioned_extraction(paths["docs"], media, out_b, n_parts=4, on_part_done=killer)
    assert committed_partitions(out_b) == {0, 1}
    mtimes = {
        i: os.path.getmtime(os.path.join(out_b, "_lineage", f"part-{i}.json")) for i in (0, 1)
    }

    summary = run_partitioned_extraction(paths["docs"], media, out_b, n_parts=4)
    assert sorted(summary["skipped_committed"]) == [0, 1]
    assert sorted(summary["ran"]) == [2, 3]
    for i in (0, 1):  # committed partitions untouched
        assert os.path.getmtime(os.path.join(out_b, "_lineage", f"part-{i}.json")) == mtimes[i]

    resumed = read_output(out_b)
    assert _spans_key(resumed) == _spans_key(single)
    assert summary["n_docs"] == 300


def test_resume_invalidates_stale_layout(corpus, tmp_path):
    """A resume with a different n_parts (shifted striped assignment)
    must NOT trust old lineage records: stale commits re-run and
    read_output never mixes in leftover part dirs from the old layout."""
    paths, media = corpus
    out = str(tmp_path / "relayout")

    def killer(part):
        if part == 2:
            raise _Kill()

    with pytest.raises(_Kill):
        run_partitioned_extraction(paths["docs"], media, out, n_parts=6, on_part_done=killer)
    assert committed_partitions(out) == {0, 1, 2}

    # resume under a DIFFERENT partition layout: every old record's
    # input_files mismatches the new striping -> all 4 partitions run
    summary = run_partitioned_extraction(paths["docs"], media, out, n_parts=4)
    assert summary["skipped_committed"] == []
    assert sorted(summary["ran"]) == [0, 1, 2, 3]
    assert summary["n_docs"] == 300

    resumed = read_output(out)
    ref_out = str(tmp_path / "relayout_ref")
    run_partitioned_extraction(paths["docs"], media, ref_out, n_parts=4)
    assert _spans_key(resumed) == _spans_key(read_output(ref_out))


def test_read_output_ignores_uncommitted_dirs(corpus, tmp_path):
    """A part dir without a lineage record (torn run or stale layout)
    is never read back."""
    paths, media = corpus
    out = str(tmp_path / "torn")
    run_partitioned_extraction(paths["docs"], media, out, n_parts=2)
    base = read_output(out)
    # fake a torn/stale extra partition dir: data present, no record
    import shutil

    shutil.copytree(os.path.join(out, "part-0"), os.path.join(out, "part-7"))
    assert _spans_key(read_output(out)) == _spans_key(base)


def test_no_resume_rerun_with_fewer_parts_never_duplicates(corpus, tmp_path):
    """resume=False with a smaller n_parts must clean up ALL old part
    dirs (including indices beyond the new layout) — otherwise
    read_output concatenates stale parts and duplicates docs."""
    paths, media = corpus
    out = str(tmp_path / "shrink")
    run_partitioned_extraction(paths["docs"], media, out, n_parts=8)
    first = read_output(out)
    summary = run_partitioned_extraction(paths["docs"], media, out, n_parts=3, resume=False)
    assert sorted(summary["ran"]) == [0, 1, 2]
    again = read_output(out)
    assert again.num_rows == first.num_rows == 300
    assert _spans_key(again) == _spans_key(first)


def test_lineage_records(corpus, tmp_path):
    paths, media = corpus
    out = str(tmp_path / "lin")
    summary = run_partitioned_extraction(paths["docs"], media, out, n_parts=3)
    assert summary["n_docs"] == 300
    assert summary["n_errors"] >= 1  # the missing-media edge fixture
    for i in range(3):
        rec = json.load(open(os.path.join(out, "_lineage", f"part-{i}.json")))
        assert rec["n_docs"] > 0 and rec["n_spans"] >= rec["n_docs"]
        assert rec["input_files"] and rec["duration_sec"] > 0


def _alive_extract_workers() -> list[str]:
    # GCS actor table: the state API needs the dashboard, which the
    # test session does not start
    import ray._private.state

    return [
        a["ActorClassName"]
        for a in ray._private.state.actors().values()
        if a["State"] == "ALIVE" and "_ExtractPackAll" in a["ActorClassName"]
    ]


def _busy_cpus() -> float:
    return ray.cluster_resources()["CPU"] - ray.available_resources().get("CPU", 0.0)


def test_kill_mid_stream_leaves_no_pool_actor(corpus, tmp_path):
    """A hook that raises mid-stream shuts the execution down before the
    error propagates: no task or actor of the killed run keeps a CPU
    (so no extract actor outlives it either), and the resumed output
    equals a single run's."""
    paths, media = corpus
    out = str(tmp_path / "killed")

    def killer(part):
        if part == 0:
            raise _Kill()

    with pytest.raises(_Kill):
        run_partitioned_extraction(paths["docs"], media, out, n_parts=4, on_part_done=killer)
    deadline = time.time() + 10
    while (_alive_extract_workers() or _busy_cpus()) and time.time() < deadline:
        time.sleep(0.2)
    assert _alive_extract_workers() == []
    assert _busy_cpus() == 0

    summary = run_partitioned_extraction(paths["docs"], media, out, n_parts=4)
    assert summary["skipped_committed"] == [0] and summary["ran"] == [1, 2, 3]
    single = str(tmp_path / "single")
    run_partitioned_extraction(paths["docs"], media, single, n_parts=4)
    assert _spans_key(read_output(out)) == _spans_key(read_output(single))


def test_partitions_commit_in_index_order(corpus, tmp_path):
    paths, media = corpus
    out = str(tmp_path / "order")
    seen = []
    summary = run_partitioned_extraction(
        paths["docs"], media, out, n_parts=4, on_part_done=seen.append
    )
    assert seen == summary["ran"] == [0, 1, 2, 3]
    durations = [
        json.load(open(os.path.join(out, "_lineage", f"part-{i}.json")))["duration_sec"]
        for i in seen
    ]
    assert durations == sorted(durations)  # time from execution start to each commit
    assert summary["duration_sec"] >= durations[-1]


def test_rewritten_block_leaves_one_copy(corpus, tmp_path):
    """A block written twice (an actor restart re-runs it) overwrites its
    own file: block files are named from their content."""
    from ocr_pipeline_ray.pipelines.checkpoint import _PartitionWriter
    from ocr_pipeline_ray.stages.reassemble import pack_bucket

    paths, _ = corpus
    out = str(tmp_path / "w")
    os.makedirs(os.path.join(out, "part-0.tmp"))
    f = sorted(os.path.join(paths["docs"], n) for n in os.listdir(paths["docs"]))[0]
    docs = pq.read_table(f)
    packed = pack_bucket(explode_batch(docs).select(SPAN_COLS))
    packed = packed.append_column("path", pa.array([f] * len(packed)))
    writer = _PartitionWriter(out, {f: 0})
    first = writer(packed)
    assert writer(packed) == first
    written = os.listdir(os.path.join(out, "part-0.tmp"))
    assert len(written) == 1
    assert pq.read_table(os.path.join(out, "part-0.tmp")).num_rows == docs.num_rows


def test_extra_rows_on_disk_fail_the_commit(corpus, tmp_path):
    """A partition whose on-disk row count differs from its input row
    count is never committed."""
    import shutil

    paths, media = corpus
    out = str(tmp_path / "planted")

    def plant(part):
        if part == 0:
            src = os.path.join(out, "part-0")
            shutil.copy(os.path.join(src, sorted(os.listdir(src))[0]),
                        os.path.join(out, "part-1.tmp", "extra.parquet"))

    with pytest.raises(RuntimeError, match="partition 1"):
        run_partitioned_extraction(paths["docs"], media, out, n_parts=2, on_part_done=plant)
    assert committed_partitions(out) == {0}


def test_zero_span_doc_is_committed(tmp_path):
    """Commit-by-count is exact with docs that have no spans."""
    from ocr_pipeline_ray.schema import DOCS_SCHEMA
    from ocr_pipeline_ray.sources.gen import generate_corpus

    docs, media, _ = generate_corpus(40, seed=3)
    rows = docs.to_pylist()
    rows[5]["spans"] = []
    docs = pa.Table.from_pylist(rows, schema=DOCS_SCHEMA)
    d = tmp_path / "docs"
    d.mkdir()
    pq.write_table(docs.slice(0, 20), str(d / "a.parquet"))
    pq.write_table(docs.slice(20), str(d / "b.parquet"))
    out = str(tmp_path / "out")
    summary = run_partitioned_extraction(str(d), media, out, n_parts=2)
    assert summary["n_docs"] == 40
    got = {r["doc_id"]: r for r in read_output(out).to_pylist()}
    assert got["doc-00000005"]["n_spans"] == 0


def test_options_that_break_doc_locality_fail_fast(corpus, tmp_path):
    paths, media = corpus
    out = str(tmp_path / "opts")
    with pytest.raises(ValueError, match="media_mode"):
        run_partitioned_extraction(paths["docs"], media, out, n_parts=2, media_mode="join")
    assert not os.path.exists(out)


def test_duplicate_media_ref_fails_the_job(corpus, tmp_path):
    """The job broadcasts its media through the same checked entry as
    the pipeline: a duplicated ref fails before any partition commits."""
    paths, media = corpus
    media = pa.concat_tables([media, media.slice(0, 1)])
    out = str(tmp_path / "dup")
    with pytest.raises(ValueError, match="duplicate media_ref"):
        run_partitioned_extraction(paths["docs"], media, out, n_parts=2)
    assert committed_partitions(out) == set()
