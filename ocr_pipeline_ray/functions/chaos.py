"""Chaos-testing engine: hard-kills its worker process once.

Used by tests/test_fault_tolerance.py to prove that Ray's task retry
(``max_retries``) recovers an extract task from a hard crash of its
worker (OOM-kill / preemption analog) with golden output. Lives in the
package (not the test module) so the worker that runs the RETRIED task
can deserialize the engine factory — a fresh worker re-imports the
class by module path and builds its own warm engine.
"""

from __future__ import annotations

import os
import tempfile

from ocr_pipeline_ray.stages.extract import SyntheticEngine

KILL_FLAG = os.path.join(tempfile.gettempdir(), "ocr_ray_test_kill_flag")


def arm() -> None:
    with open(KILL_FLAG, "w") as f:
        f.write("1")


def armed() -> bool:
    return os.path.exists(KILL_FLAG)


def disarm() -> None:
    try:
        os.remove(KILL_FLAG)
    except FileNotFoundError:
        pass


class KillOnceEngine(SyntheticEngine):
    """Kills the worker the first time any process extracts while the
    kill-flag file exists; the flag is consumed atomically, so exactly
    one crash happens per armed run."""

    def extract(self, kind: str, media_ref: str, payload: bytes | memoryview) -> str:
        try:
            os.remove(KILL_FLAG)
        except FileNotFoundError:
            pass
        else:
            os._exit(1)  # hard process death — no exception, no cleanup
        return super().extract(kind, media_ref, payload)
