"""read_docs source routing: Lance layout -> read_lance, anything
else -> parquet; missing lance package degrades to the parquet
fallback (the container has no `lance`, so the live branch can only
be exercised via a stub — documented in README)."""

import pyarrow as pa
import ray
import ray.data

from ocr_pipeline_ray.pipelines.extract import read_docs


def _lance_layout(tmp_path):
    d = tmp_path / "corpus.lance"
    (d / "_versions").mkdir(parents=True)
    return d


def test_lance_layout_routes_to_read_lance(tmp_path, monkeypatch):
    d = _lance_layout(tmp_path)
    seen = {}

    def fake_read_lance(path):
        seen["path"] = path
        return ray.data.from_items([{"doc_id": "doc-0", "spans": []}])

    monkeypatch.setattr(ray.data, "read_lance", fake_read_lance, raising=False)
    ds = read_docs(str(d))
    assert seen["path"] == str(d)
    assert ds.count() == 1


def test_lance_import_error_falls_back_to_parquet(tmp_path, monkeypatch):
    import pandas as pd

    d = _lance_layout(tmp_path)
    pd.DataFrame({"doc_id": ["doc-0"], "spans": [[]]}).to_parquet(d / "data.parquet")

    def broken_read_lance(path):
        raise ImportError("lance is not installed")

    monkeypatch.setattr(ray.data, "read_lance", broken_read_lance, raising=False)
    ds = read_docs(str(d))
    assert ds.count() == 1


def test_plain_parquet_path_never_touches_lance(tmp_path, monkeypatch):
    import pandas as pd

    p = tmp_path / "docs.parquet"
    pd.DataFrame({"doc_id": ["doc-0"], "spans": [[]]}).to_parquet(p)

    def explode(path):
        raise AssertionError("read_lance must not be called for parquet input")

    monkeypatch.setattr(ray.data, "read_lance", explode, raising=False)
    assert read_docs(str(p)).count() == 1


def test_real_lance_roundtrip(tmp_path):
    """Write + read an actual Lance dataset when the optional package
    is installed (pip install .[lance]); skipped in containers without
    it — the routing logic above is always covered."""
    import pytest

    lance = pytest.importorskip("lance")
    import pyarrow as pa

    t = pa.table({"doc_id": ["doc-0", "doc-1"], "text": ["a", "b"]})
    d = str(tmp_path / "docs.lance")
    lance.write_dataset(t, d)
    out = read_docs(d)
    assert sorted(r["doc_id"] for r in out.take_all()) == ["doc-0", "doc-1"]


def test_jsonl_docs_extraction_matches_golden(tmp_path):
    """JSONL ingestion (the web-corpus dump wire format): the same
    docs serialized as JSON lines must run the extraction pipeline to
    the identical golden span sequence as the parquet path."""
    import json
    import os

    import pyarrow.parquet as pq

    from ocr_pipeline_ray.pipelines.extract import build_extraction_pipeline
    from ocr_pipeline_ray.sources.gen import write_corpus

    d = str(tmp_path)
    p = write_corpus(d, 120, seed=7)
    docs = pq.read_table(p["docs"]).to_pylist()
    jdir = os.path.join(d, "docs_jsonl")
    os.makedirs(jdir)
    with open(os.path.join(jdir, "part-0.jsonl"), "w") as f:
        for r in docs:
            f.write(json.dumps(r) + "\n")
    media = pq.read_table(p["media"])
    out = build_extraction_pipeline(read_docs(jdir), media)
    res = {
        r["doc_id"]: [(s["kind"], s["text"], s["media_ref"], s["offset"]) for s in r["spans"]]
        for r in out.take_all()
    }
    gold = {
        r["doc_id"]: [(s["kind"], s["text"], s["media_ref"], s["offset"]) for s in r["spans"]]
        for r in pq.read_table(p["golden"]).to_pylist()
    }
    assert res == gold


def test_csv_docs_round_trip_golden(tmp_path):
    """CSV dump with a JSON-encoded spans column routes through the
    CSV branch and extracts golden-equal."""
    import csv
    import json
    import os

    import pyarrow.parquet as pq

    from ocr_pipeline_ray.pipelines.extract import build_extraction_pipeline
    from ocr_pipeline_ray.sources.gen import write_corpus

    d = str(tmp_path)
    p = write_corpus(d, 120, seed=7)
    docs = pq.read_table(p["docs"]).to_pylist()
    cdir = os.path.join(d, "docs_csv")
    os.makedirs(cdir)
    with open(os.path.join(cdir, "part-0.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["doc_id", "spans"])
        for r in docs:
            w.writerow([r["doc_id"], json.dumps(r["spans"])])
    media = pq.read_table(p["media"])
    out = build_extraction_pipeline(read_docs(cdir), media)
    res = {
        r["doc_id"]: [(s["kind"], s["text"], s["media_ref"], s["offset"]) for s in r["spans"]]
        for r in out.take_all()
    }
    gold = {
        r["doc_id"]: [(s["kind"], s["text"], s["media_ref"], s["offset"]) for s in r["spans"]]
        for r in pq.read_table(p["golden"]).to_pylist()
    }
    assert res == gold


def test_restriped_shards_golden_equality(tmp_path):
    """The 100 TB-shaped read path (r4 verdict item 7): the flagship
    consumes a DIRECTORY of parquet shards, and the extracted output
    must be invariant to how the same rows are striped across files —
    shard count, uneven boundaries, and a permuted doc order all
    produce span-for-span golden equality (reassembly owns ordering,
    not file layout; the resume lineage already validates
    input_files)."""
    import numpy as np
    import pyarrow.parquet as pq

    from ocr_pipeline_ray.pipelines.extract import build_extraction_pipeline
    from ocr_pipeline_ray.sources.gen import write_corpus

    paths = write_corpus(str(tmp_path / "c"), 240, seed=42, shards=8)
    docs = pq.read_table(paths["docs"])
    media = pq.read_table(paths["media"])
    golden = pq.read_table(paths["golden"])

    def key(t):
        return {
            r["doc_id"]: [
                (s["kind"], s["text"], s["media_ref"], s["offset"]) for s in r["spans"]
            ]
            for r in t.to_pylist()
        }

    gold = key(golden)

    # three hostile re-stripings of the SAME rows
    rng = np.random.default_rng(0)
    perm = rng.permutation(docs.num_rows)
    layouts = {
        "one_file": [docs],
        "uneven_13": [
            docs.slice(lo, hi - lo)
            for lo, hi in zip(
                np.linspace(0, docs.num_rows, 14).astype(int)[:-1],
                np.linspace(0, docs.num_rows, 14).astype(int)[1:],
            )
            if hi > lo
        ],
        "permuted_5": [
            docs.take(perm[i::5]) for i in range(5)
        ],
    }
    for name, tables in layouts.items():
        d = tmp_path / f"re_{name}"
        d.mkdir()
        for i, t in enumerate(tables):
            pq.write_table(t, d / f"part-{i:03d}.parquet")
        out = build_extraction_pipeline(read_docs(str(d)), media)
        got = key(pa.Table.from_batches(
            [b for b in out.iter_batches(batch_format="pyarrow") for b in b.to_batches()]
        ))
        assert got == gold, f"re-striping {name} broke golden equality"

