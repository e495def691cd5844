"""The per-process warm cache behind the extract task stages: one
entry, keyed by value (broadcast ref hex + pickled engine factory), so
every task's freshly unpickled copy of the stage callable hits it, and
a new media table replaces it. Runs in-process: no Ray scheduling."""

import functools
import sys
import threading
import weakref

import numpy as np
import pyarrow as pa
import ray
from ray import cloudpickle

from ocr_pipeline_ray.functions.engines import CompositeEngine
from ocr_pipeline_ray.oracle import extract_docs
from ocr_pipeline_ray.pipelines.extract import _ExtractPackAll
from ocr_pipeline_ray.stages import extract as stages
from ocr_pipeline_ray.state.media_store import broadcast_media

BUILT_ENGINES = []


class _CountedEngine(stages.SyntheticEngine):
    def __init__(self):
        BUILT_ENGINES.append(self)


def _spans(table: pa.Table) -> dict:
    return {
        r["doc_id"]: [(s["kind"], s["text"], s["media_ref"], s["offset"]) for s in r["spans"]]
        for r in table.to_pylist()
    }


def test_warm_entry_is_built_once_per_key_and_replaced(small_corpus, monkeypatch):
    docs, media, _ = small_corpus
    built_stores = []

    class CountedStore(stages.BroadcastMediaStore):
        def __init__(self, ref):
            built_stores.append(ref.hex())
            super().__init__(ref)

    monkeypatch.setattr(stages, "BroadcastMediaStore", CountedStore)
    monkeypatch.setattr(stages, "_warm_key", None)
    monkeypatch.setattr(stages, "_warm", None)
    BUILT_ENGINES.clear()
    factory = functools.partial(
        CompositeEngine, image_factory=_CountedEngine, pdf_factory=_CountedEngine
    )

    def run_task(ref, block):
        # every Ray task unpickles its own copy of the stage callable
        stage = cloudpickle.loads(cloudpickle.dumps(_ExtractPackAll(ref, None, factory)))
        assert stage.engine_factory is not factory
        return stage(block)

    ref = broadcast_media(media)
    halves = [docs.slice(0, 100), docs.slice(100)]
    out = pa.concat_tables([run_task(ref, h) for h in halves])
    assert built_stores == [ref.hex()]
    assert len(BUILT_ENGINES) == 2  # one CompositeEngine: an image and a pdf engine
    assert _spans(out) == _spans(extract_docs(docs, media))

    # a second media table (half the refs gone) replaces the one entry
    other_media = media.slice(0, media.num_rows // 2)
    other = broadcast_media(other_media)
    out2 = run_task(other, docs)
    assert built_stores == [ref.hex(), other.hex()]
    assert len(BUILT_ENGINES) == 4
    assert stages._warm_key[0] == other.hex()
    assert stages._warm[0] is not None and stages._warm[0]._table.num_rows == other_media.num_rows
    assert _spans(out2) == _spans(extract_docs(docs, other_media))


def test_concurrent_callers_build_one_engine(small_corpus, monkeypatch):
    """Threads of one process racing on the empty cache build the
    entry once and all get the same engine."""
    _, media, _ = small_corpus
    monkeypatch.setattr(stages, "_warm_key", None)
    monkeypatch.setattr(stages, "_warm", None)
    BUILT_ENGINES.clear()
    ref = broadcast_media(media)
    got = []
    start = threading.Barrier(16)

    def call():
        start.wait(timeout=30)
        got.append(stages.warm_state(ref, _CountedEngine)[1])

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=call) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 16 and len(BUILT_ENGINES) == 1
    assert all(e is BUILT_ENGINES[0] for e in got)


def test_alternating_media_tables_keep_the_heap_flat(monkeypatch):
    """Twenty alternations between two broadcast media tables in one
    process: every replaced store dies with its entry, and the Arrow
    heap never holds a payload copy, so it ends where it started."""
    monkeypatch.setattr(stages, "_warm_key", None)
    monkeypatch.setattr(stages, "_warm", None)
    rng = np.random.default_rng(5)
    tables = [
        pa.table(
            {
                "media_ref": [f"t{t}-{i:04d}" for i in range(500)],
                "payload": pa.array([rng.bytes(600) for _ in range(500)], pa.binary()),
            }
        )
        for t in range(2)
    ]
    refs = [ray.put(t) for t in tables]
    baseline = pa.total_allocated_bytes()
    replaced = None
    for i in range(40):
        t = i % 2
        store = stages.warm_state(refs[t], stages.SyntheticEngine)[0]
        assert store.get(f"t{t}-0007") == tables[t]["payload"][7].as_py()
        assert stages._warm[0]._table.num_rows == 500
        assert replaced is None or replaced() is None
        replaced = weakref.ref(store)
        del store
        assert pa.total_allocated_bytes() - baseline < tables[t]["media_ref"].nbytes
    stages._warm_key = stages._warm = None  # monkeypatch restores both
    assert replaced() is None
    assert pa.total_allocated_bytes() == baseline
