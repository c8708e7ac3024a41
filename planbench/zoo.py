"""The ``serve-zoo`` workload: one client process against ``repro serve``.

The server (``serve_host.py``: ``python -m repro serve`` plus the host
probe) runs one search worker over a fresh plan-cache directory.  The
catalogue is twelve small-zoo optimize requests at the default search
budget (cold searches of 0.05-0.8 s).

* Cold phase: each key's first request is sent alone and watched to the
  end over the job's event stream, so every search runs uncontended.  The
  ``BURST_KEY`` is submitted ``BURST`` times back-to-back while its search
  runs; submit is asynchronous, so the burst needs no extra connection and
  must run exactly one search.
* Warm phase: ``CLIENTS`` keep-alive connections, each in its own thread
  and each waiting for its reply, send seeded Zipf repeats of the
  catalogue from seeded tenants, a fixed number of them.  Every one is an
  L1 hit.

The client shares the server's CPU.  On separate CPUs a warm request's
latency is set by whichever of the two is slower at the moment, and the
two drift apart; on one CPU the server's host probe accounts for all of it.

Cold and warm requests are separate populations, so no percentile sits on
the edge between them.  ``--seed`` changes only the warm phase: which key
each request draws (from a fixed Zipf popularity order) and its tenant.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import socket
import subprocess
import sys
import threading
import time
from statistics import median
from urllib.parse import urlparse

import hostprobe
from common import (
    BENCH_DIR,
    ROOT,
    STATE_DIR,
    classification_classes,
    percentile,
    plan_digest,
    program_env,
)

#: (model, batch, machine, devices)
CATALOGUE = [
    ("alexnet", 64, "x86", 1),
    ("mobilenet_v1", 64, "x86", 1),
    ("vgg16", 64, "power9", 1),
    ("googlenet", 64, "x86", 1),
    ("alexnet", 64, "power9", 1),
    ("resnet34", 64, "x86", 1),
    ("vgg16", 64, "x86", 1),
    ("unet", 32, "x86", 1),
    ("resnet18", 64, "x86", 1),
    ("resnet18", 64, "power9", 1),
    ("googlenet", 32, "power9", 1),
    ("vgg16", 64, "power9", 2),
]
#: the key submitted ``BURST`` times while its (0.8-s) search runs
BURST_KEY = 5
BURST = 8
TENANTS = 4
#: Zipf popularity (s = 1.1) in catalogue order for every seed: responses
#: differ in size by key, so a seeded ranking would change the work, not
#: just the order it arrives in
ZIPF_WEIGHTS = [1.0 / (rank + 1) ** 1.1 for rank in range(len(CATALOGUE))]
CLIENTS = max(1, min(2, os.cpu_count() or 1))
SETUP_LAUNCHES = 3
#: server processes per untraced run, each through both phases: a server's
#: warm latency differs a little from process to process
SERVERS = 2
#: warm requests of a traced run (and of its untraced overhead baseline)
TRACED_WARM = 2000
#: warm requests per ``--seconds`` of an untraced run, over all servers.  A fixed count, not
#: a deadline: the server's job table keeps every job, so its peak RSS
#: follows the number of requests served, which must not depend on how
#: fast the host is
WARM_PER_SECOND = 500
SERVER_ARGS = ("--serve-workers", "1", "--queue-depth", "256",
               "--tenant-quota", "256")


def request_id(entry) -> str:
    model, batch, machine, devices = entry
    return f"{model}/{batch}/{machine}/d{devices}"


def request_body(entry, tenant: str) -> dict:
    model, batch, machine, devices = entry
    return {"tenant": tenant, "model": model, "batch": batch,
            "machine": machine, "devices": devices}


def resolve(entry):
    """(graph, machine spec, config) exactly as the server resolves them."""
    from repro.serve import ServePlanner

    body = request_body(entry, "bench")
    body.pop("tenant")
    resolved = ServePlanner().resolve(body)
    return resolved.graph, resolved.machine, resolved.config


def ground_truth_ms(graph, classes: dict, machine, config) -> float:
    """Simulated iteration time of a plan, executed as
    ``PoochResult.execute`` does."""
    from repro.runtime.executor import execute
    from repro.runtime.plan import Classification, MapClass
    from repro.runtime.schedule import ScheduleOptions

    classification = Classification(
        {int(m): MapClass(c) for m, c in classes.items()})
    options = ScheduleOptions(policy=config.policy,
                              forward_refetch_gap=config.forward_refetch_gap)
    return execute(graph, classification, machine,
                   options=options).makespan * 1e3


def direct_plan(entry) -> tuple[dict, float, float]:
    """(classes, predicted s, ground-truth ms) of a direct, uncached
    ``PoocH.optimize`` of a catalogue request."""
    from repro.pooch import PoocH

    graph, machine, config = resolve(entry)
    result = PoocH(machine, config).optimize(graph)
    classes = classification_classes(result.classification)
    return (classes, result.predicted.time,
            ground_truth_ms(graph, classes, machine, config))


def _task_cpu_s(pid: int) -> float:
    """CPU seconds of the live threads of ``pid`` (nanosecond schedstat)."""
    total = 0
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{task}/schedstat") as f:
                total += int(f.read().split()[0])
        except (OSError, ValueError, IndexError):
            continue  # the thread ended
    return total / 1e9


class _Server:
    """A ``serve_host.py`` process on a free port; ``setup_s`` is launch
    until ``/v1/healthz`` answers."""

    def __init__(self, cache_dir, name: str, *, trace: bool = False) -> None:
        self.out = STATE_DIR / "work" / f"{name}.json"
        self.out.unlink(missing_ok=True)
        self.launched = time.time()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "serve_host.py"), str(self.out),
             *(["--trace"] if trace else []), "--", "--port", "0",
             "--plan-cache", str(cache_dir), *SERVER_ARGS],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, env=program_env())
        line = self.proc.stdout.readline()
        if " on http://" not in line:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(f"server did not start: {line!r}")
        self.url = line.split(" on ", 1)[1].split()[0]
        conn = _Connection(self.url)
        deadline = time.monotonic() + 60
        while conn.call("GET", "/v1/healthz")[0] != 200:
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("server never became healthy")
            time.sleep(0.005)
        self.ready = time.time()
        conn.close()
        self.peak_rss_mb = 0.0
        self.doc: dict = {}

    def stop(self) -> dict:
        """Shut the server down, reap it (killing it if it does not exit
        within 30 s), keep its peak RSS and return what it wrote."""
        if self.proc.returncode is None:
            conn = _Connection(self.url)
            if conn.call("POST", "/v1/shutdown")[0] != 200:
                self.proc.kill()
            conn.close()
            deadline = time.monotonic() + 30
            while True:
                pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
                if pid:
                    break
                if deadline is not None and time.monotonic() > deadline:
                    self.proc.kill()
                    deadline = None
                time.sleep(0.01)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.proc.stdout.read()
            self.proc.stdout.close()
            self.peak_rss_mb = usage.ru_maxrss / 1024.0
            if self.out.exists():
                self.doc = json.loads(self.out.read_text())
        return self.doc

    def setup_sample(self) -> tuple[float, float]:
        raw = self.ready - self.launched
        return raw, hostprobe.normalise(raw, self.doc["probe"],
                                        self.launched, self.ready)


class _Connection:
    """One persistent HTTP/1.1 connection speaking the JSON wire format of
    :class:`repro.serve.PlannerClient`."""

    def __init__(self, url: str) -> None:
        parsed = urlparse(url)
        self.host, self.port = parsed.hostname, parsed.port
        self.conn = http.client.HTTPConnection(self.host, self.port,
                                               timeout=60)

    def call(self, method: str, path: str, body=None) -> tuple[int, dict]:
        """(HTTP status, JSON body); status 0 on a transport failure, after
        which the next call reconnects."""
        data = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if data else {}
        try:
            self.conn.request(method, path, body=data, headers=headers)
            # acknowledge at once: the server writes headers and body in
            # two segments, and with a delayed ACK the second waits ~40 ms
            # (Nagle) on a kept-alive connection
            self.conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK,
                                      1)
            resp = self.conn.getresponse()
            return resp.status, json.loads(resp.read() or b"{}")
        except (OSError, http.client.HTTPException, ValueError) as e:
            self.conn.close()
            return 0, {"error": f"{type(e).__name__}: {e}"}

    def watch(self, job_id: str) -> None:
        """Block until the job is terminal, reading its event stream on a
        second connection (the server closes it at the end)."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=120)
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/events")
            conn.getresponse().read()
        finally:
            conn.close()

    def close(self) -> None:
        self.conn.close()


def _served_ok(doc: dict, key: str, reference: dict) -> bool:
    """A terminal job doc whose plan is the reference plan of ``key``."""
    if doc.get("state") != "done":
        return False
    result = doc["result"]
    ref = reference[key]
    return (plan_digest(result["plan"]["classes"]) == ref["digest"]
            and repr(result["predicted_time_s"])
            == repr(ref["predicted_time_s"]))


def cold_phase(server: _Server, reference: dict) -> dict:
    """Each key's first request alone; the burst on ``BURST_KEY``."""
    conn = _Connection(server.url)
    samples, failed, attempted, served = [], 0, 0, {}
    for i, entry in enumerate(CATALOGUE):
        key = request_id(entry)
        cpu0, sent = _task_cpu_s(server.proc.pid), time.time()
        status, doc = conn.call("POST", "/v1/optimize",
                                request_body(entry, "cold"))
        attempted += 1
        if status not in (200, 202):
            failed += 1
            continue
        ids = [doc["id"]]
        if i == BURST_KEY:
            for _ in range(BURST - 1):
                status, follower = conn.call(
                    "POST", "/v1/optimize", request_body(entry, "burst"))
                attempted += 1
                if status != 202:
                    failed += 1
                else:
                    ids.append(follower["id"])
        conn.watch(ids[0])
        cpu = _task_cpu_s(server.proc.pid) - cpu0
        docs = [conn.call("GET", f"/v1/jobs/{job_id}")[1] for job_id in ids]
        bad = [d for d in docs if not _served_ok(d, key, reference)]
        failed += len(bad)
        if docs[0] in bad:
            continue
        served[key] = docs[0]["result"]["plan"]["classes"]
        finished = docs[0]["created_s"] + docs[0]["wall_s"]
        samples.append({"key": key, "t0": sent, "t1": finished,
                        "cpu": cpu})
    conn.close()
    return {"samples": samples, "attempted": attempted, "failed": failed,
            "served": served}


def warm_phase(url: str, stream: int, reference: dict,
               per_client: int) -> dict:
    """``CLIENTS`` closed-loop clients of ``per_client`` Zipf repeats each,
    drawn from random stream ``stream``."""
    records: list[list] = [[] for _ in range(CLIENTS)]

    def client(n: int) -> None:
        rng = random.Random(stream * 1000 + n)
        conn = _Connection(url)
        out = records[n]
        while len(out) < per_client:
            entry = rng.choices(CATALOGUE, weights=ZIPF_WEIGHTS)[0]
            tenant = f"tenant-{rng.randrange(TENANTS)}"
            t0 = time.time()
            status, doc = conn.call("POST", "/v1/optimize",
                                    request_body(entry, tenant))
            t1 = time.time()
            ok = (status == 200 and doc.get("cache_tier") == "warm-lru"
                  and _served_ok(doc, request_id(entry), reference))
            out.append((t0, t1, ok))
        conn.close()

    threads = [threading.Thread(target=client, args=(n,))
               for n in range(1, CLIENTS)]
    start = time.time()
    for t in threads:
        t.start()
    client(0)
    for t in threads:
        t.join()
    end = time.time()
    flat = [r for rs in records for r in rs]
    return {"records": flat, "start": start, "end": end,
            "attempted": len(flat),
            "failed": sum(1 for r in flat if not r[2])}


def _fresh_cache(name: str):
    path = STATE_DIR / "work" / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _setup_launches(n: int) -> list[tuple[float, float]]:
    samples = []
    for i in range(n):
        cache = _fresh_cache(f"setup-{i}")
        server = _Server(cache, f"setup-{i}")
        server.stop()
        shutil.rmtree(cache, ignore_errors=True)
        samples.append(server.setup_sample())
    return samples


def plan_iter_total(served: dict, reference: dict) -> tuple[float, int]:
    """Ground-truth iteration time summed over the catalogue's served
    plans; returns (total ms, mismatches against the reference)."""
    total, failed = 0.0, 0
    for entry in CATALOGUE:
        key = request_id(entry)
        ref = reference[key]
        if key not in served:
            failed += 1
            continue
        graph, machine, config = resolve(entry)
        ms = ground_truth_ms(graph, served[key], machine, config)
        if repr(ms) != repr(ref["plan_iter_ms"]):
            failed += 1
        total += ms
    return total, failed


def _counter_checks(stats: dict) -> tuple[dict, int]:
    """Exact server counters of the cold phase and how many break the
    contract (one search per key, the burst coalesced, nothing refused)."""
    c = stats["counters"]
    exact = {"serve.searches": c["searches"],
             "serve.coalesced": c["coalesced"],
             "serve.rejected": c["rejected_quota"] + c["rejected_queue"],
             "serve.failed_jobs": c["failed"]}
    bad = sum((c["searches"] != len(CATALOGUE), c["coalesced"] != BURST - 1,
               exact["serve.rejected"] != 0, c["failed"] != 0))
    return exact, bad


def _norm_factor(samples, t0: float, t1: float) -> float:
    return hostprobe.REFERENCE_S / hostprobe.window_probe(samples, t0, t1)


def _server_pass(seed: int, n: int, warm_per_client: int,
                 reference: dict) -> dict:
    """One server process over a fresh cache: cold phase, warm phase."""
    cache = _fresh_cache(f"zoo-cache-{n}")
    server = _Server(cache, f"zoo-{n}")
    try:
        cold = cold_phase(server, reference)
        warm = warm_phase(server.url, seed * 16 + n, reference,
                          warm_per_client)
        stats = _Connection(server.url).call("GET", "/v1/stats")[1]
    finally:
        doc = server.stop()
        shutil.rmtree(cache, ignore_errors=True)
    return {"server": server, "cold": cold, "warm": warm, "stats": stats,
            "probe": doc["probe"]}


def run_untraced(seed: int, seconds: float, reference: dict) -> dict:
    """``SERVERS`` server processes, each through both phases; the warm
    requests of a run are split evenly between them."""
    hostprobe.pin_to_one_cpu()
    setup = _setup_launches(SETUP_LAUNCHES)
    per_client = int(WARM_PER_SECOND * seconds) // (CLIENTS * SERVERS)
    passes = [_server_pass(seed, n, per_client, reference)
              for n in range(SERVERS)]

    attempted = failed = 0
    cold_s, cold_cpu, lat, norm_span = [], [], [], 0.0
    raw_cold, raw_cpu, raw_lat, raw_span, exact = [], [], [], 0.0, {}
    for p in passes:
        probe, cold, warm = p["probe"], p["cold"], p["warm"]
        setup.append(p["server"].setup_sample())
        iter_ms, iter_failed = plan_iter_total(cold["served"], reference)
        counters, bad = _counter_checks(p["stats"])
        if exact and dict(counters, plan_iter_ms=repr(iter_ms)) != exact:
            bad += 1
        exact = dict(counters, plan_iter_ms=repr(iter_ms))
        attempted += cold["attempted"] + warm["attempted"] + len(CATALOGUE)
        failed += cold["failed"] + warm["failed"] + iter_failed + bad
        for s in cold["samples"]:
            cold_s.append(hostprobe.normalise(s["t1"] - s["t0"], probe,
                                              s["t0"], s["t1"]))
            cold_cpu.append(hostprobe.normalise(s["cpu"], probe, s["t0"],
                                                s["t1"]))
            raw_cold.append(s["t1"] - s["t0"])
            raw_cpu.append(s["cpu"])
        w0, w1 = warm["start"], warm["end"]
        factor = _norm_factor(probe, w0, w1)
        ms = [(t1 - t0) * 1e3 for t0, t1, ok in warm["records"] if ok]
        lat += [x * factor for x in ms]
        raw_lat += ms
        norm_span += (w1 - w0) * factor
        raw_span += w1 - w0
    probes = [d for p in passes for _s, d in p["probe"]]
    metrics = {
        "setup_s": median(n for _r, n in setup),
        "cold_s": median(cold_s) if cold_s else float("inf"),
        "cold_cpu_s": median(cold_cpu) if cold_cpu else float("inf"),
        "warm_p50_ms": median(lat) if lat else float("inf"),
        "warm_p99_ms": percentile(lat, 99) if lat else float("inf"),
        "warm_rps": len(lat) / norm_span,
        "plan_iter_ms": float(exact["plan_iter_ms"]),
        "peak_rss_mb": median(p["server"].peak_rss_mb for p in passes),
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "consistent": True,
        "exact": exact,
        "metrics": metrics,
        "host_probe_ms": median(probes) * 1e3,
        "detail": {
            "warm_requests": len(lat),
            "raw": {"setup_s": [r for r, _n in setup],
                    "cold_s": raw_cold,
                    "cold_cpu_s": raw_cpu,
                    "warm_p50_ms": median(raw_lat) if raw_lat else None,
                    "warm_p99_ms": (percentile(raw_lat, 99) if raw_lat
                                    else None),
                    "warm_rps": len(raw_lat) / raw_span},
            "stats": [p["stats"] for p in passes],
        },
    }


def run_traced(seed: int, reference: dict) -> dict:
    """A traced server: the cold phase and ``TRACED_WARM`` warm requests;
    then an untraced server on the same cache directory (its first request
    per key is a plan-cache hit) for the overhead baseline."""
    hostprobe.pin_to_one_cpu()
    cache = _fresh_cache("zoo-cache")
    per_client = TRACED_WARM // CLIENTS
    try:
        server = _Server(cache, "zoo-traced", trace=True)
        try:
            cold = cold_phase(server, reference)
            warm = warm_phase(server.url, seed * 16, reference, per_client)
            stats = _Connection(server.url).call("GET", "/v1/stats")[1]
        finally:
            doc = server.stop()
        base = _Server(cache, "zoo-base")
        try:
            conn = _Connection(base.url)
            for entry in CATALOGUE:
                status, pre = conn.call("POST", "/v1/optimize",
                                        request_body(entry, "pre"))
                if status == 202:
                    conn.watch(pre["id"])
            conn.close()
            base_warm = warm_phase(base.url, seed * 16, reference,
                                   per_client)
        finally:
            base_doc = base.stop()
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    plan_iter_ms, iter_failed = plan_iter_total(cold["served"], reference)
    exact, bad = _counter_checks(stats)
    exact["plan_iter_ms"] = repr(plan_iter_ms)

    lat = [(t1 - t0) for t0, t1, ok in warm["records"]]
    base_lat = [(t1 - t0) for t0, t1, ok in base_warm["records"]]
    ran = [j for j in doc["jobs"] if j["started"] is not None]
    m = dict(doc["layers"])
    m.update({
        "serve.rtt_p50_ms": median(lat) * 1e3,
        "serve.queue_wait_s": sum(j["started"] - j["created"] for j in ran),
        "serve.warm_hits": stats["counters"]["warm_hits"],
        "serve.coalesced": stats["counters"]["coalesced"],
        "serve.searches": stats["counters"]["searches"],
        "serve.retained_jobs": sum(stats["jobs_by_state"].values()),
        "bench.trace_overhead_ratio": (
            median(lat) * _norm_factor(doc["probe"], warm["start"],
                                       warm["end"])
            / (median(base_lat) * _norm_factor(
                base_doc["probe"], base_warm["start"], base_warm["end"]))),
        "bench.host_probe_ms": median(d for _s, d in doc["probe"]) * 1e3,
    })
    # the client's view: how much of the warm phase's request time the
    # server's HTTP handlers account for (the rest is transport and client)
    http = sum(e - s for name, s, e, _r in doc["spans"]
               if name == "serve.http" and warm["start"] <= s <= warm["end"])
    return {
        "attempted": (cold["attempted"] + warm["attempted"]
                      + base_warm["attempted"] + len(CATALOGUE)),
        "failed": (cold["failed"] + warm["failed"] + base_warm["failed"]
                   + iter_failed + bad),
        "consistent": True,
        "exact": exact,
        "metrics": m,
        "host_probe_ms": m["bench.host_probe_ms"],
        "detail": {"server_share_of_warm_rtt": http / sum(lat)},
    }
