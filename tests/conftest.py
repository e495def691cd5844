"""Session-scoped Ray for the whole test run (one init, one shutdown)."""

from __future__ import annotations

import pytest
import ray


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def small_corpus():
    """t1 smoke corpus (FIXTURES.md §5): ~200 docs, seed 42, edge fixtures."""
    from ocr_pipeline_ray.sources.gen import generate_corpus

    return generate_corpus(200, seed=42, edge_fixtures=True)


@pytest.fixture(params=["bytes", "memoryview"])
def as_payload(request):
    """The test runs once per payload form an engine may receive:
    ``bytes``, and what the extract stages hand it — a read-only
    ``memoryview`` of an Arrow payload buffer, at a non-zero offset."""
    if request.param == "bytes":
        return lambda payload: payload
    import pyarrow as pa

    from ocr_pipeline_ray.state.media_store import payload_views

    return lambda payload: payload_views(pa.array([b"pad", payload], pa.binary()))[1]
