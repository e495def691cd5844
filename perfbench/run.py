"""End-to-end benchmark of the ocr_pipeline_ray extraction pipelines.

Usage (from the repository root)::

    python3 perfbench/run.py --workload raster_ocr --seed 1 --seconds 10 --trace 0

One run: generate (or reuse) the seeded inputs, set up a local Ray
session of ``NUM_CPUS`` CPUs, run one untimed warm-up pass, then a fixed
number of timed passes of the workload through the package's public
entry points. Every pass is checked against the sequential oracle
outside its timed window. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it print every metric by name and unit.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the
same passes, alternating untraced and traced ones, adds a single-process
replay of the layer functions, reports the per-layer metrics and the
tracing overhead, and writes spans and counters to
``.bench_out/trace-<workload>-s<seed>.json``. See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CACHE_DIR = os.path.join(ROOT, ".bench_cache")
OUT_DIR = os.path.join(ROOT, ".bench_out")
RAY_TMP = os.path.join(ROOT, ".bench_ray")

# 2 CPUs: the default extract pool (3/4 of the CPUs, never the last)
# is 1 actor, leaving 1 CPU for read, shuffle and write tasks
NUM_CPUS = 2
OBJECT_STORE_BYTES = 400 << 20
MIN_PASSES = 3
# a pass that has not finished by then counts all its docs as failed
# (a stalled pass takes about 25 s)
PASS_DEADLINE_S = 45.0
# no timed pass starts after this much of the run has elapsed, so a
# run with stalls or deadline misses still ends inside 180 s
RUN_BUDGET_S = 80.0
WORKER_PROBE_TIMEOUT_S = 60.0

# name -> (corpus, default docs, pipeline, timed passes per 12 s of
# --seconds, partitions). The join and the partitioned job start two
# executions per pass, whose pool start-up is bimodal (an idle worker is
# left over, or not) and which stall most often, so their medians need
# more samples.
WORKLOADS = {
    "raster_ocr": ("raster", 4000, "broadcast", 3, None),
    "join_shuffle": ("hot_ref", 3000, "join", 5, None),
    "partitioned_job": ("standard", 3000, "partitioned", 5, 2),
}


class PassDeadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise PassDeadline()


class Tracer:
    """Driver-side spans (name, start, end, parent) kept in memory and
    written once at the end; a disabled tracer records nothing."""

    def __init__(self, requested: bool):
        self.requested = requested
        self.enabled = requested
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def add(self, name: str, start: float, end: float, parent: int | None = None, **attrs) -> int:
        if not self.enabled:
            return -1
        sid = len(self.spans)
        if parent is None and self._stack:
            parent = self._stack[-1]
        self.spans.append(
            {"id": sid, "name": name, "start": start - _T0, "end": end - _T0, "parent": parent, **attrs}
        )
        return sid

    class _Span:
        def __init__(self, tracer: "Tracer", name: str, attrs: dict):
            self.tracer, self.name, self.attrs = tracer, name, attrs

        def __enter__(self):
            self.start = time.perf_counter()
            t = self.tracer
            if t.enabled:
                self.sid = t.add(self.name, self.start, self.start, **self.attrs)
                t._stack.append(self.sid)
            return self

        def __exit__(self, *exc):
            t = self.tracer
            self.end = time.perf_counter()
            if t.enabled:
                t._stack.pop()
                t.spans[self.sid]["end"] = self.end - _T0
            return False

    def span(self, name: str, **attrs) -> "_Span":
        return Tracer._Span(self, name, attrs)


class MemSampler:
    """Peak summed RSS of this process and all its descendants (the
    local Ray cluster: GCS, raylet, workers), sampled on a thread;
    ``take_peak`` returns the peak since its last call."""

    def __init__(self, psutil, period_s: float = 0.1):
        self.psutil, self.period_s = psutil, period_s
        self.peak = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def sample(self) -> int:
        me = self.psutil.Process()
        total = 0
        for p in [me, *me.children(recursive=True)]:
            try:
                total += p.memory_info().rss
            except (self.psutil.NoSuchProcess, self.psutil.AccessDenied):
                pass
        return total

    def take_peak(self) -> int:
        with self._lock:
            peak, self.peak = max(self.peak, self.sample()), 0
        return peak

    def _run(self):
        while not self._stop.is_set():
            rss = self.sample()
            with self._lock:
                self.peak = max(self.peak, rss)
            self._stop.wait(self.period_s)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False


def _ray_temp_dir() -> str | None:
    # Unix socket paths under the session dir are limited to 107 bytes
    # (session_<date>_<pid>/sockets/plasma_store adds ~70)
    return RAY_TMP if len(RAY_TMP) + 72 < 107 else None


def _worker_probe():
    import ocr_pipeline_ray

    return ocr_pipeline_ray.__file__


def start_session(ray, tracer: Tracer) -> None:
    """Local Ray session whose workers import the package from this
    checkout whatever the caller's cwd; a worker that cannot import it
    fails the run here instead of crash-looping the pool later.

    The raylet, and through it every worker, inherits ``PYTHONPATH``
    from this process. A ``runtime_env`` with the same variable starts
    every worker through an extra interpreter (``setup_worker.py``):
    1.8 s instead of 1.0 s per pool actor on a 1-core host, paid by
    every pass, and the executions stalled several times as often."""
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT, HERE] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    )
    with tracer.span("setup.ray_init"):
        kwargs = dict(
            address="local",
            num_cpus=NUM_CPUS,
            include_dashboard=False,
            log_to_driver=False,
            logging_level="ERROR",
            object_store_memory=OBJECT_STORE_BYTES,
        )
        tmp = _ray_temp_dir()
        if tmp is not None:
            kwargs["_temp_dir"] = tmp
        ray.init(**kwargs)
        from ray.data import DataContext

        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
    with tracer.span("setup.worker_probe"):
        probe = ray.remote(num_cpus=0, max_retries=0)(_worker_probe)
        where = ray.get(probe.remote(), timeout=WORKER_PROBE_TIMEOUT_S)
        if not where.startswith(ROOT):
            raise RuntimeError(f"workers import ocr_pipeline_ray from {where}, not {ROOT}")


def stop_session(ray, psutil) -> None:
    """Shut Ray down and wait until every process this run started has
    ended, killing any that outlive a grace period."""
    me = psutil.Process()
    procs = me.children(recursive=True)
    if ray.is_initialized():
        ray.shutdown()
    procs += [p for p in me.children(recursive=True) if p not in procs]
    _, alive = psutil.wait_procs(procs, timeout=10)
    for p in alive:
        p.kill()
    psutil.wait_procs(alive, timeout=10)


def median(xs):
    return statistics.median(xs) if xs else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--docs", type=int, default=None, help="input size (default per workload)")
    args = ap.parse_args(argv)

    tracer = Tracer(bool(args.trace))
    sys.path.insert(0, ROOT)
    with tracer.span("setup.import"):
        import ray
        import psutil  # ray puts its bundled copy on sys.path

        try:
            import workloads
            from inputs import cached_inputs
        except ImportError as e:
            print(f"cannot import the program under test from {ROOT}: {e}", file=sys.stderr)
            return 2
    import_s = time.perf_counter() - _T0

    corpus, default_docs, _, passes_per_12s, _ = WORKLOADS[args.workload]
    n_docs = args.docs or default_docs
    t = time.perf_counter()
    paths, generated = cached_inputs(
        CACHE_DIR, f"{args.workload}-s{args.seed}-n{n_docs}", corpus, n_docs, args.seed
    )
    gen_s = time.perf_counter() - t
    print(f"inputs: {args.workload} seed={args.seed} docs={n_docs} "
          f"{'generated' if generated else 'cached'} in {gen_s:.3f} s (not gated)")

    n_passes = max(MIN_PASSES, round(passes_per_12s * args.seconds / 12))
    signal.signal(signal.SIGALRM, _on_alarm)
    wl = None
    try:
        t = time.perf_counter()
        start_session(ray, tracer)
        wl = workloads.Workload(WORKLOADS[args.workload], paths, tracer,
                                os.path.join(OUT_DIR, f"work-{os.getpid()}"))
        wl.setup()
        warm = run_pass(wl, traced=False, span="setup.warmup_pass")
        setup_s = import_s + (time.perf_counter() - t)
        if warm["error"]:
            raise RuntimeError(f"warm-up pass failed: {warm['error']}")
        print(f"setup: {setup_s:.3f} s (import {import_s:.3f} s, "
              f"session + warm-up {setup_s - import_s:.3f} s)")

        passes = []
        schedule = [False] * n_passes if not args.trace else [False, True] * n_passes
        with MemSampler(psutil) as mem:
            for traced in schedule:
                if time.perf_counter() - _T0 > RUN_BUDGET_S:
                    print(f"run budget spent: {len(passes)} of {len(schedule)} passes ran",
                          file=sys.stderr)
                    break
                mem.take_peak()
                passes.append(run_pass(wl, traced))
                passes[-1]["peak_rss"] = mem.take_peak()
        t = time.perf_counter()
        for p in [warm, *passes]:
            check_pass(wl, p)
        print(f"outputs checked in {time.perf_counter() - t:.3f} s", file=sys.stderr)
        replay = {}
        if args.trace:
            signal.setitimer(signal.ITIMER_REAL, PASS_DEADLINE_S)
            try:
                replay = wl.replay()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        if wl is not None:
            wl.cleanup()
        t = time.perf_counter()
        stop_session(ray, psutil)
        shutil.rmtree(RAY_TMP, ignore_errors=True)
        print(f"session stopped in {time.perf_counter() - t:.3f} s", file=sys.stderr)

    return report(args, wl, warm, passes, setup_s, replay, tracer)


def run_pass(wl, traced: bool, span: str = "pass") -> dict:
    """One pass under a deadline. A pass that errors or misses the
    deadline delivers nothing: its docs count as failed. Only traced
    passes record spans, apart from the warm-up pass of a traced run."""
    res = {"traced": traced, "error": None, "wall": None, "first": None, "docs": 0, "wrong": 0}
    wl.tracer.enabled = traced or (span != "pass" and wl.tracer.requested)
    signal.setitimer(signal.ITIMER_REAL, PASS_DEADLINE_S)
    try:
        with wl.tracer.span(span, traced=traced) as sp:
            res["out"] = wl.run_pass(res, sp.start)
        res["wall"] = sp.end - sp.start
    except PassDeadline:
        res["error"] = f"deadline {PASS_DEADLINE_S:.0f} s missed"
    except Exception as e:  # a pass that errors is a failed pass, not a crashed run
        res["error"] = f"{type(e).__name__}: {e}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        wl.tracer.enabled = wl.tracer.requested
    if res["error"]:
        print(f"pass failed: {res['error']}", file=sys.stderr)
    else:
        print(f"pass: wall {res['wall']:.3f} s, first output {res['first']:.3f} s, "
              f"traced {traced}", file=sys.stderr)
    return res


def check_pass(wl, res: dict) -> None:
    """Compare a pass's output with the oracle. Runs after the timed
    passes, so passes follow each other back to back as in a closed loop."""
    if res["error"]:
        return
    wl.tracer.enabled = res["traced"]
    try:
        out = wl.output(res)
        res["docs"] = out.num_rows
        res["wrong"] = min(wl.n_docs, wl.check(out, res))
    except Exception as e:
        res["error"] = f"output check: {type(e).__name__}: {e}"
        print(f"pass failed: {res['error']}", file=sys.stderr)
    finally:
        wl.tracer.enabled = wl.tracer.requested


def report(args, wl, warm, passes, setup_s, replay, tracer) -> int:
    import workloads

    ok = [p for p in passes if not p["error"]]
    if not ok:
        print("no timed pass completed", file=sys.stderr)
        return 1
    # the warm-up pass is checked too; its docs count as attempted
    checked = [warm, *passes]
    attempted = wl.n_docs * len(checked)
    wrong = sum(p["wrong"] for p in checked)
    failed = wrong + sum(wl.n_docs for p in checked if p["error"])
    firsts = [p["first"] for p in ok]
    med_first = median(firsts)
    stalled = sum(1 for f in firsts if f > workloads.STALL_FACTOR * med_first)

    def rate(ps):
        return median([p["docs"] / p["wall"] for p in ps])

    untraced = [p for p in ok if not p["traced"]]
    e2e = {
        "docs_per_s": (rate(untraced), "docs/s"),
        "first_output_s": (median([p["first"] for p in untraced]), "s"),
        "setup_s": (setup_s, "s"),
        "peak_mem_mb": (median([p["peak_rss"] for p in untraced]) / 1e6, "MB"),
    }
    print(f"workload {args.workload}: {len(ok)}/{len(passes)} timed passes completed, "
          f"{wl.n_docs} docs each, {NUM_CPUS} Ray CPUs")
    for name, (v, unit) in e2e.items():
        print(f"  {name} = {v:.6g} {unit}")
    print(f"  failed_share = {failed / attempted:.6g} ratio "
          f"({wrong} wrong, {failed - wrong} missed of {attempted} docs)")
    print(f"  stalled_passes = {stalled} count (first output > {workloads.STALL_FACTOR:g}x median)")
    metrics = e2e
    if args.trace:
        traced = [p for p in ok if p["traced"]]
        layer = wl.layer_metrics(traced, ok, replay)
        layer["executor.stalled_passes"] = (stalled, "count")
        tr, un = rate(traced), rate(untraced)
        layer["trace.docs_per_s_traced"] = (tr, "docs/s")
        layer["trace.docs_per_s_untraced"] = (un, "docs/s")
        layer["trace.overhead_pct"] = (100.0 * (un - tr) / un if un else 0.0, "%")
        print("per-layer metrics (traced run):")
        for name, (v, unit) in layer.items():
            print(f"  {name} = {v:.6g} {unit}")
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-s{args.seed}.json")
        with open(path, "w") as f:
            json.dump(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "spans": tracer.spans,
                    "counters": {k: v for k, (v, _) in layer.items()},
                    "passes": passes,
                },
                f,
                indent=1,
            )
        print(f"trace written to {os.path.relpath(path, ROOT)}")
        metrics = layer
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
