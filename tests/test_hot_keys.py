"""Planted-hot-key tests for the bucketed media join (VERDICT r4 §2).

One media_ref referenced by half the spans (the site-wide-logo shape;
the reference's skew row is SURVEY §4's one-doc-1000-regions stall)
must not serialize a single shuffle bucket on one worker: the salted
route spreads the hot ref's span rows over dedicated sub-buckets and
replicates its single payload row, with results identical to the
unsalted join.
"""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray

from ocr_pipeline_ray.pipelines.extract import detect_hot_refs, join_media_spans


def _planted(n_hot=2000, n_cold=1500, n_text=500):
    rng = np.random.default_rng(7)
    doc_ids, offsets, kinds, refs = [], [], [], []
    for i in range(n_hot):
        doc_ids.append(f"d{i % 997}")
        offsets.append(i)
        kinds.append("image")
        refs.append("hot-logo")
    for i in range(n_cold):
        doc_ids.append(f"d{i % 997}")
        offsets.append(10_000 + i)
        kinds.append("image")
        refs.append(f"m{i:05d}")
    for i in range(n_text):
        doc_ids.append(f"d{i % 997}")
        offsets.append(20_000 + i)
        kinds.append("text")
        refs.append("")
    n = len(doc_ids)
    spans = pa.table(
        {
            "doc_id": pa.array(doc_ids, pa.string()),
            "offset": pa.array(offsets, pa.int32()),
            "kind": pa.array(kinds, pa.string()),
            "text": pa.array(["x"] * n, pa.string()),
            "media_ref": pa.array(refs, pa.string()),
            "error": pa.array([""] * n, pa.string()),
        }
    )
    media_refs = ["hot-logo"] + [f"m{i:05d}" for i in range(n_cold)]
    media = pa.table(
        {
            "media_ref": pa.array(media_refs, pa.string()),
            "payload": pa.array(
                [rng.bytes(16) for _ in media_refs], pa.binary()
            ),
        }
    )
    return spans, media


def test_detect_hot_refs_finds_planted_ref_and_skips_empty(ray_session):
    spans, _ = _planted()
    hot = detect_hot_refs(ray.data.from_arrow(spans), hot_fraction=0.05)
    assert hot == ["hot-logo"]  # "" excluded by contract


def test_salted_join_matches_unsalted_and_balances_buckets(ray_session):
    spans, media = _planted()
    sd, md = ray.data.from_arrow(spans), ray.data.from_arrow(media)
    NB = 32

    def result_key(ds):
        df = ds.to_pandas()[["doc_id", "offset", "media_ref", "payload"]]
        return sorted(
            (r.doc_id, int(r.offset), r.media_ref, r.payload)
            for r in df.itertuples(index=False)
        )

    plain = result_key(join_media_spans(sd, md, num_buckets=NB, hot_refs=None))
    salted = result_key(join_media_spans(sd, md, num_buckets=NB, hot_refs="auto", salt=8))
    assert salted == plain
    assert len(salted) == len(spans)  # left join keeps every span

    # bucket histogram of SPAN rows, as the shuffle would see it
    def span_histogram(**kw):
        tagged = join_media_spans(
            sd, md, num_buckets=NB, _return_tagged=True, **kw
        ).to_arrow_refs()
        tables = [ray.get(r) for r in tagged]
        t = pa.concat_tables([x for x in tables if len(x)])
        t = t.filter(pc.equal(t.column("__side"), 1))  # 1 = span side
        import collections

        return collections.Counter(t.column("__bucket").to_pylist())

    h_plain = span_histogram(hot_refs=None)
    h_salted = span_histogram(hot_refs="auto", salt=8)
    # unsalted: the hot ref funnels all 2000 rows into one bucket
    assert max(h_plain.values()) >= 2000
    # salted: hot rows spread over 8 sub-buckets; no bucket anywhere
    # near the hot count (2000/8 = 250 + cold-bucket noise)
    assert max(h_salted.values()) < 600
    # the hot sub-bucket range is actually used
    assert sum(1 for b in h_salted if b >= NB) == 8

    # media replication: exactly salt copies of the hot payload row
    tagged = join_media_spans(sd, md, num_buckets=NB, hot_refs=["hot-logo"], salt=8,
                              _return_tagged=True)
    t = pa.concat_tables([x for x in (ray.get(r) for r in tagged.to_arrow_refs()) if len(x)])
    m = t.filter(pc.and_(pc.equal(t.column("__side"), 0),  # 0 = media side
                         pc.equal(t.column("media_ref"), "hot-logo")))
    assert len(m) == 8
    assert len(set(m.column("__bucket").to_pylist())) == 8


def test_pinned_hot_refs_and_disabled_agree(ray_session):
    spans, media = _planted(n_hot=300, n_cold=100, n_text=50)
    sd, md = ray.data.from_arrow(spans), ray.data.from_arrow(media)
    a = join_media_spans(sd, md, num_buckets=16, hot_refs=["hot-logo"], salt=4).to_pandas()
    b = join_media_spans(sd, md, num_buckets=16, hot_refs=None).to_pandas()
    key = lambda df: sorted(
        (r.doc_id, int(r.offset), r.media_ref, r.payload)
        for r in df[["doc_id", "offset", "media_ref", "payload"]].itertuples(index=False)
    )
    assert key(a) == key(b)


def test_extraction_path_imports_no_analytics_module(ray_session):
    """The extraction modules, and the media join's hot-ref detection,
    import nothing from the analytics collection: a cold
    ``pipelines.relational`` import costs about half a second, which
    the join's warm-up pass would pay."""
    import os
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = (
        "import sys, pyarrow as pa, ray, ray.data\n"
        "import ocr_pipeline_ray.pipelines.checkpoint\n"
        "import ocr_pipeline_ray.pipelines.interleave\n"
        "from ocr_pipeline_ray.pipelines.extract import detect_hot_refs\n"
        "ray.init(logging_level='ERROR')\n"
        "spans = pa.table({'media_ref': ['a', 'a', 'a', 'b', '']})\n"
        "assert detect_hot_refs(ray.data.from_arrow(spans), hot_fraction=0.5) == ['a']\n"
        "ray.shutdown()\n"
        "print('ocr_pipeline_ray.pipelines.relational' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": root,
           "RAY_ADDRESS": ray.get_runtime_context().gcs_address}
    r = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr[-3000:]
    assert r.stdout.strip().splitlines()[-1] == "False"
