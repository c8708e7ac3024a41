"""The two search workloads: a cold search and warm re-plans per iteration,
each iteration in a fresh planner process (``worker.py``).

``r50-x86-step1`` is dominated by the lockstep step-1 search (vector-engine
sweeps) and its re-plan by parsing a large outcome file; ``r152-p9-step2``
by the serial step-2 recompute probes, with a re-plan that reads little.
Their inputs are fixed by the workload name; ``--seed`` does not change
them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from statistics import median

import hostprobe
from common import (
    BENCH_DIR,
    ROOT,
    STATE_DIR,
    plan_digest,
    program_env,
)

#: warm re-plans per iteration: the r50 re-plan costs ~3 s, the r152 one
#: ~0.5 s, so r152 takes more samples of it in the same time
WARM_REPLANS = {"r50-x86-step1": 2, "r152-p9-step2": 4}
#: set-up launches per run besides the iterations' own launches
SETUP_LAUNCHES = 3
MIN_ITERATIONS = 2
#: a worker still running after this long is killed
TIMEOUT_S = 150


class _Worker:
    """A ``worker.py`` process; ``setup_s`` is launch to ``ready``."""

    def __init__(self, workload: str, *args: str) -> None:
        self.launched = time.time()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "worker.py"), workload, *args],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, env=program_env())
        line = self.proc.stdout.readline()
        self.ready = time.time()
        if line.strip() != "ready":
            self.finish()
            raise RuntimeError(f"worker did not start: {line!r}")

    def finish(self) -> dict:
        """Read the worker's output to the end (killing it after
        ``TIMEOUT_S``) and return its result document.  The rest of the
        output goes through the same buffered reader as the ``ready`` line:
        ``communicate`` would read the raw pipe and lose what that reader
        already holds."""
        watchdog = threading.Timer(TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            out = self.proc.stdout.read()
            self.proc.wait()
        finally:
            watchdog.cancel()
            self.proc.stdout.close()
        lines = out.strip().splitlines()
        if self.proc.returncode != 0 or not lines:
            raise RuntimeError(f"worker exited with {self.proc.returncode} "
                               f"and {len(lines)} lines of output")
        return json.loads(lines[-1])

    def setup_sample(self, probe) -> tuple[float, float]:
        """(raw, normalised) launch-to-ready seconds."""
        raw = self.ready - self.launched
        return raw, hostprobe.normalise(raw, probe, self.launched, self.ready)


def _fresh_cache(name: str):
    path = STATE_DIR / "work" / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_iteration(workload: str, *, trace: bool = False) -> dict:
    cache = _fresh_cache(f"{workload}-cache")
    try:
        args = [str(cache), "--warm", str(WARM_REPLANS[workload])]
        worker = _Worker(workload, *args, *(["--trace"] if trace else []))
        doc = worker.finish()
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    doc["setup"] = worker.setup_sample(doc["probe"])
    return doc


def check_iteration(doc: dict, ref: dict) -> tuple[int, int]:
    """(attempted, failed) operations of one iteration: the cold plan, each
    warm re-plan and the ground-truth time against the reference."""
    failed = 0
    if (plan_digest(doc["classes"]) != ref["digest"]
            or doc["predicted"] != repr(ref["predicted_time_s"])):
        failed += 1
    for warm in doc["warm"]:
        if (not warm["hit"] or warm["classes"] != doc["classes"]
                or warm["predicted"] != doc["predicted"]):
            failed += 1
    if doc["plan_iter_ms"] != repr(ref["plan_iter_ms"]):
        failed += 1
    return 2 + len(doc["warm"]), failed


def _metrics(iterations: list[dict], setup: list[tuple[float, float]]):
    """End-to-end metrics (normalised) and their raw counterparts."""
    cold, cold_raw, cpu, cpu_raw, warm, warm_raw = [], [], [], [], [], []
    for doc in iterations:
        probe, c = doc["probe"], doc["cold"]
        wall = c["t1"] - c["t0"]
        cold_raw.append(wall)
        cold.append(hostprobe.normalise(wall, probe, c["t0"], c["t1"]))
        cpu_raw.append(c["cpu"])
        cpu.append(hostprobe.normalise(c["cpu"], probe, c["t0"], c["t1"]))
        for w in doc["warm"]:
            ms = (w["t1"] - w["t0"]) * 1e3
            warm_raw.append(ms)
            warm.append(hostprobe.normalise(ms, probe, w["t0"], w["t1"]))
    warm_p50 = median(warm)
    metrics = {
        "setup_s": median(n for _r, n in setup),
        "cold_s": median(cold),
        "cold_cpu_s": median(cpu),
        "warm_p50_ms": warm_p50,
        # too few re-plans for a tail: the same median, and the re-plans
        # per second of one closed-loop caller
        "warm_p99_ms": warm_p50,
        "warm_rps": 1e3 / warm_p50,
        "plan_iter_ms": float(iterations[0]["plan_iter_ms"]),
        "peak_rss_mb": median(doc["peak_rss_mb"] for doc in iterations),
    }
    raw = {"setup_s": [r for r, _n in setup], "cold_s": cold_raw,
           "cold_cpu_s": cpu_raw, "warm_ms": warm_raw,
           "setup_norm_s": [n for _r, n in setup], "cold_norm_s": cold,
           "warm_norm_ms": warm}
    return metrics, raw


def _probe_ms(docs) -> float:
    return median(d for doc in docs for _s, d in doc["probe"]) * 1e3


def run_untraced(workload: str, seconds: float, ref: dict) -> dict:
    start = time.perf_counter()
    setup = []
    for _ in range(SETUP_LAUNCHES):
        worker = _Worker(workload, "--setup-only")
        setup.append(worker.setup_sample(worker.finish()["probe"]))
    iterations = []
    while True:
        t0 = time.perf_counter()
        iterations.append(run_iteration(workload))
        setup.append(iterations[-1]["setup"])
        took = time.perf_counter() - t0
        if (len(iterations) >= MIN_ITERATIONS
                and time.perf_counter() - start + took > seconds):
            break
    attempted = failed = 0
    for doc in iterations:
        a, f = check_iteration(doc, ref)
        attempted, failed = attempted + a, failed + f
    counts = [doc["counts"] for doc in iterations]
    metrics, raw = _metrics(iterations, setup)
    exact = dict(counts[0], plan_iter_ms=iterations[0]["plan_iter_ms"])
    return {
        "attempted": attempted,
        "failed": failed,
        "consistent": all(c == counts[0] for c in counts)
        and len({doc["plan_iter_ms"] for doc in iterations}) == 1,
        "exact": exact,
        "metrics": metrics,
        "host_probe_ms": _probe_ms(iterations),
        "detail": {"iterations": len(iterations), "raw": raw},
    }


def run_traced(workload: str, ref: dict) -> dict:
    """One untraced iteration as the overhead baseline, then one traced."""
    base = run_iteration(workload)
    traced = run_iteration(workload, trace=True)
    attempted = failed = 0
    for doc in (base, traced):
        a, f = check_iteration(doc, ref)
        attempted, failed = attempted + a, failed + f

    def wall(doc):
        return sum(hostprobe.normalise(t["t1"] - t["t0"], doc["probe"],
                                       t["t0"], t["t1"])
                   for t in (doc["cold"], *doc["warm"]))

    metrics = dict(traced["layers"])
    metrics["bench.trace_overhead_ratio"] = wall(traced) / wall(base)
    metrics["bench.host_probe_ms"] = _probe_ms([traced])
    exact = dict(traced["counts"], plan_iter_ms=traced["plan_iter_ms"])
    return {
        "attempted": attempted,
        "failed": failed,
        "consistent": (base["counts"] == traced["counts"]
                       and base["plan_iter_ms"] == traced["plan_iter_ms"]),
        "exact": exact,
        "metrics": metrics,
        "host_probe_ms": metrics["bench.host_probe_ms"],
        "detail": {"layer_self_s": traced["layer_self"]},
    }
