"""Planner-as-a-service: coalescing, cache tiers, admission, HTTP layer.

The concurrency suite is deterministic by construction: a gated planner
blocks every search on an event the test controls, so "N concurrent
identical requests" genuinely overlap and the single-search assertion is
counter-based (profiling invocations are counted at the pipeline boundary),
not timing-based.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

import repro.pooch.pipeline as pipeline_mod
from repro.models import build_model
from repro.pooch import PoocH, PoochConfig
from repro.runtime.plan_io import graph_signature, plan_to_dict
from repro.serve import (
    AuditLog,
    BadRequest,
    Coalescer,
    JobManager,
    JobState,
    LruCache,
    PlannerClient,
    PlannerServer,
    QueueFull,
    QuotaExceeded,
    ServeClientError,
    ServePlanner,
    TIER_COALESCED,
    TIER_PERSISTENT,
    TIER_SEARCH,
    TIER_WARM,
    WarmPlanCache,
)

REQ = {"model": "mlp", "batch": 8, "config": {"budget": 20}}


def small_request(batch: int = 8, **config) -> dict:
    return {"model": "mlp", "batch": batch,
            "config": {"budget": 20, **config}}


class GatedPlanner(ServePlanner):
    """A ServePlanner whose optimize() blocks until the test opens the gate
    (and counts its invocations), so submissions provably overlap."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.gate = threading.Event()
        self.optimize_calls = 0
        self._count_lock = threading.Lock()

    def optimize(self, resolved, progress=None):
        assert self.gate.wait(timeout=30), "test gate never opened"
        with self._count_lock:
            self.optimize_calls += 1
        return super().optimize(resolved, progress=progress)


def drain(manager: JobManager, *jobs, timeout: float = 30.0) -> None:
    for job in jobs:
        assert job.wait(timeout), f"{job.id} stuck in {job.state}"


def wait_until_running(job, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while job.state is not JobState.RUNNING:
        assert time.monotonic() < deadline, f"{job.id} never started"
        time.sleep(0.005)


@pytest.fixture
def manager():
    m = JobManager(ServePlanner(), workers=2, max_queue=8, tenant_quota=8)
    yield m
    m.shutdown()


# -- LRU / warm cache units -------------------------------------------------------


class TestLruCache:
    def test_bounded_with_lru_eviction(self):
        lru = LruCache(2)
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.get("a") == 1  # refresh a
        lru.put("c", 3)  # evicts b, the least recent
        assert "b" not in lru and "a" in lru and "c" in lru
        assert lru.stats()["evictions"] == 1

    def test_hit_miss_accounting(self):
        lru = LruCache(4)
        assert lru.get("nope") is None
        lru.put("k", "v")
        assert lru.get("k") == "v"
        stats = lru.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            LruCache(0)

    def test_thread_safety_smoke(self):
        lru = LruCache(16)

        def hammer(seed: int) -> None:
            for i in range(200):
                lru.put((seed, i % 20), i)
                lru.get((seed, (i + 7) % 20))

        threads = [threading.Thread(target=hammer, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(lru) <= 16


class TestWarmPlanCache:
    def test_response_stamping_copies_outer_dict(self):
        from repro.serve.cache import CachedResponse

        payload = {"plan": {"classes": {"0": "swap"}}, "x": 1}
        cached = CachedResponse(classification=None, payload=payload)
        a = cached.response_for(tier=TIER_WARM)
        b = cached.response_for(tier=TIER_COALESCED, coalesced_with="job-1")
        assert a["cache_tier"] == TIER_WARM and a["coalesced_with"] is None
        assert b["cache_tier"] == TIER_COALESCED
        assert b["coalesced_with"] == "job-1"
        assert "cache_tier" not in payload  # original never mutated
        assert a["plan"] is b["plan"]  # nested plan shared, not copied

    def test_lookup_store(self):
        from repro.serve.cache import CachedResponse

        warm = WarmPlanCache(capacity=2)
        key = ("g", "m", "c")
        assert warm.lookup(key) is None
        warm.store(key, CachedResponse(None, {}))
        assert warm.lookup(key) is not None


# -- coalescer units --------------------------------------------------------------


class TestCoalescer:
    def test_leader_then_followers(self):
        c = Coalescer()
        flight, is_leader = c.join("k", "j1")
        assert is_leader and flight.leader == "j1"
        _, second = c.join("k", "j2")
        _, third = c.join("k", "j3")
        assert not second and not third
        assert flight.members() == ["j1", "j2", "j3"]
        assert c.complete("k", result="r") == ["j2", "j3"]
        assert c.open_flights() == 0
        assert flight.done.is_set() and flight.result == "r"

    def test_distinct_keys_do_not_coalesce(self):
        c = Coalescer()
        _, a = c.join("ka", "j1")
        _, b = c.join("kb", "j2")
        assert a and b
        assert c.open_flights() == 2

    def test_concurrent_joins_elect_exactly_one_leader(self):
        c = Coalescer()
        barrier = threading.Barrier(8)
        leaders = []
        lock = threading.Lock()

        def contender(i: int) -> None:
            barrier.wait()
            _, is_leader = c.join("k", f"j{i}")
            if is_leader:
                with lock:
                    leaders.append(i)

        threads = [threading.Thread(target=contender, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(leaders) == 1
        assert c.coalesced_total == 7 and c.flights_opened == 1
        assert len(c.complete("k")) == 7

    def test_leave_follower_no_promotion(self):
        c = Coalescer()
        c.join("k", "j1")
        c.join("k", "j2")
        assert c.leave("k", "j2") is None
        assert c.flight_for("k").members() == ["j1"]

    def test_cancelled_leader_promotes_oldest_follower(self):
        c = Coalescer()
        c.join("k", "j1")
        c.join("k", "j2")
        c.join("k", "j3")
        assert c.leave("k", "j1") == "j2"
        assert c.flight_for("k").members() == ["j2", "j3"]

    def test_lone_leader_leaving_closes_the_flight(self):
        c = Coalescer()
        c.join("k", "j1")
        assert c.leave("k", "j1") is None
        assert c.open_flights() == 0
        _, is_leader = c.join("k", "j4")  # next request starts fresh
        assert is_leader


# -- request resolution -----------------------------------------------------------


class TestResolve:
    def test_identical_requests_share_a_key_and_graph(self):
        p = ServePlanner()
        a = p.resolve(small_request())
        b = p.resolve(small_request())
        assert a.key == b.key
        assert a.graph is b.graph  # graph LRU: one NNGraph instance

    def test_different_requests_differ_in_key(self):
        p = ServePlanner()
        base = p.resolve(small_request()).key
        assert p.resolve(small_request(batch=16)).key != base
        assert p.resolve(small_request(budget=40)).key != base
        other = dict(small_request())
        other["machine"] = "power9"
        assert p.resolve(other).key != base

    @pytest.mark.parametrize("broken", [
        {"batch": 8},                                   # no model
        {"model": "no-such-model"},
        {"model": "mlp", "batch": 0},
        {"model": "mlp", "batch": True},
        {"model": "mlp", "machine": "sparc"},
        {"model": "mlp", "devices": -1},
        {"model": "mlp", "config": {"warp_drive": 9}},
        {"model": "mlp", "config": ["not", "a", "dict"]},
        {"model": "mlp", "input_size": "wide"},
    ])
    def test_bad_requests_rejected(self, broken):
        with pytest.raises(BadRequest):
            ServePlanner().resolve(broken)

    def test_multi_device_request_changes_machine(self):
        p = ServePlanner()
        multi = dict(small_request())
        multi["devices"] = 4
        resolved = p.resolve(multi)
        assert resolved.machine.devices == 4
        assert resolved.key != p.resolve(small_request()).key


# -- the core acceptance test: N concurrent identical requests, one search --------


class TestCoalescedSubmission:
    def test_eight_concurrent_identical_requests_run_one_search(self):
        planner = GatedPlanner()
        manager = JobManager(planner, workers=2, max_queue=16, tenant_quota=16)
        profiles = {"n": 0}
        real_profiling = pipeline_mod.run_profiling

        def counting_profiling(*args, **kwargs):
            profiles["n"] += 1
            return real_profiling(*args, **kwargs)

        pipeline_mod.run_profiling = counting_profiling
        try:
            barrier = threading.Barrier(8)
            jobs, lock = [], threading.Lock()

            def client() -> None:
                barrier.wait()
                job = manager.submit(small_request())
                with lock:
                    jobs.append(job)

            threads = [threading.Thread(target=client) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            planner.gate.set()
            drain(manager, *jobs)
        finally:
            pipeline_mod.run_profiling = real_profiling
            manager.shutdown()

        # exactly one profiling + one search for the whole cohort
        assert profiles["n"] == 1
        assert planner.optimize_calls == 1
        assert manager.counters["searches"] == 1
        assert manager.counters["coalesced"] == 7
        assert manager.counters["completed"] == 8
        tiers = sorted(j.cache_tier for j in jobs)
        assert tiers == [TIER_COALESCED] * 7 + [TIER_SEARCH]
        # every response carries the identical plan (shared by reference)
        plans = {json.dumps(j.result["plan"], sort_keys=True) for j in jobs}
        assert len(plans) == 1
        leader = next(j for j in jobs if j.cache_tier == TIER_SEARCH)
        for j in jobs:
            if j is not leader:
                assert j.coalesced_with == leader.id

    def test_distinct_requests_do_not_coalesce(self):
        planner = GatedPlanner()
        manager = JobManager(planner, workers=2, max_queue=16, tenant_quota=16)
        try:
            a = manager.submit(small_request(batch=8))
            b = manager.submit(small_request(batch=16))
            # neither is a follower (a worker may already have picked one up)
            assert a.state in (JobState.QUEUED, JobState.RUNNING)
            assert b.state in (JobState.QUEUED, JobState.RUNNING)
            planner.gate.set()
            drain(manager, a, b)
        finally:
            manager.shutdown()
        assert planner.optimize_calls == 2
        assert manager.counters["coalesced"] == 0
        assert {a.cache_tier, b.cache_tier} == {TIER_SEARCH}


class TestCancellation:
    def test_cancelled_queued_leader_promotes_follower(self):
        planner = GatedPlanner()
        # one worker, occupied by a decoy: the real flight stays queued
        manager = JobManager(planner, workers=1, max_queue=16, tenant_quota=16)
        try:
            decoy = manager.submit(small_request(batch=4))
            # wait for the worker to pick the decoy up (it blocks on the gate)
            wait_until_running(decoy)
            leader = manager.submit(small_request())
            follower = manager.submit(small_request())
            assert leader.state is JobState.QUEUED
            assert follower.state is JobState.COALESCED
            assert follower.coalesced_with == leader.id

            assert manager.cancel(leader.id)
            assert leader.state is JobState.CANCELLED
            assert follower.state is JobState.QUEUED  # promoted, re-enqueued
            assert any(e["event"] == "coalesce:promoted"
                       for e in follower.events)

            planner.gate.set()
            drain(manager, decoy, follower)
        finally:
            manager.shutdown()
        assert follower.state is JobState.DONE
        assert follower.cache_tier in (TIER_SEARCH, TIER_PERSISTENT)
        assert manager.counters["cancelled"] == 1

    def test_cancel_running_job_aborts_at_next_checkpoint(self):
        planner = GatedPlanner()
        manager = JobManager(planner, workers=1, max_queue=16, tenant_quota=16)
        try:
            job = manager.submit(small_request())
            wait_until_running(job)
            assert manager.cancel(job.id)  # flags it; abort is cooperative
            assert job.state is JobState.RUNNING
            planner.gate.set()
            drain(manager, job)
        finally:
            manager.shutdown()
        assert job.state is JobState.CANCELLED
        assert manager.counters["cancelled"] == 1

    def test_cancel_terminal_job_returns_false(self, manager):
        job = manager.submit(small_request())
        drain(manager, job)
        assert manager.cancel(job.id) is False

    def test_cancel_unknown_job_raises(self, manager):
        with pytest.raises(KeyError):
            manager.cancel("job-999999")


class TestAdmissionControl:
    def test_tenant_quota_is_deterministic(self):
        planner = GatedPlanner()
        manager = JobManager(planner, workers=1, max_queue=16, tenant_quota=2)
        try:
            a = manager.submit(small_request(batch=4), tenant="alice")
            b = manager.submit(small_request(batch=8), tenant="alice")
            with pytest.raises(QuotaExceeded):
                manager.submit(small_request(batch=16), tenant="alice")
            # another tenant is unaffected
            c = manager.submit(small_request(batch=16), tenant="bob")
            assert manager.counters["rejected_quota"] == 1
            planner.gate.set()
            drain(manager, a, b, c)
            # quota frees up once jobs settle
            d = manager.submit(small_request(batch=32), tenant="alice")
            drain(manager, d)
        finally:
            manager.shutdown()

    def test_queue_full_fails_fast(self):
        planner = GatedPlanner()
        manager = JobManager(planner, workers=1, max_queue=1, tenant_quota=16)
        try:
            running = manager.submit(small_request(batch=4))
            wait_until_running(running)
            queued = manager.submit(small_request(batch=8))
            with pytest.raises(QueueFull):
                manager.submit(small_request(batch=16))
            assert manager.counters["rejected_queue"] == 1
            # but a *coalescible* request still gets in (no queue slot needed)
            follower = manager.submit(small_request(batch=8))
            assert follower.state is JobState.COALESCED
            planner.gate.set()
            drain(manager, running, queued, follower)
        finally:
            manager.shutdown()

    def test_rejected_leader_does_not_leak_a_flight(self):
        planner = GatedPlanner()
        manager = JobManager(planner, workers=1, max_queue=1, tenant_quota=16)
        try:
            running = manager.submit(small_request(batch=4))
            wait_until_running(running)
            manager.submit(small_request(batch=8))  # fills the queue
            with pytest.raises(QueueFull):
                manager.submit(small_request(batch=16))
            # the rejected request's flight must have been rolled back:
            # a retry becomes a leader, not a follower of a ghost flight
            assert manager.coalescer.flight_for(
                planner.resolve(small_request(batch=16)).key) is None
            planner.gate.set()
        finally:
            manager.shutdown()


# -- cache tiers + the bit-identical guarantee ------------------------------------


class TestCacheTiers:
    def test_warm_hit_skips_queue_and_quota(self, manager):
        first = manager.submit(small_request())
        drain(manager, first)
        assert first.cache_tier == TIER_SEARCH
        second = manager.submit(small_request())
        assert second.state is JobState.DONE  # terminal at submit time
        assert second.cache_tier == TIER_WARM
        assert manager.counters["warm_hits"] == 1
        # identical plan, shared by construction
        assert second.result["plan"] == first.result["plan"]

    def test_persistent_tier_across_managers(self, tmp_path):
        cache_dir = tmp_path / "cache"
        m1 = JobManager(ServePlanner(plan_cache=str(cache_dir)), workers=1)
        try:
            cold = m1.submit(small_request())
            drain(m1, cold)
            assert cold.cache_tier == TIER_SEARCH
        finally:
            m1.shutdown()
        # a fresh manager (fresh process, conceptually) shares the directory
        m2 = JobManager(ServePlanner(plan_cache=str(cache_dir)), workers=1)
        try:
            warmish = m2.submit(small_request())
            drain(m2, warmish)
            assert warmish.cache_tier == TIER_PERSISTENT
            assert m2.counters["persistent_hits"] == 1
            assert warmish.result["search"]["plan_cache_hit"] is True
            assert warmish.result["plan"] == cold.result["plan"]
        finally:
            m2.shutdown()

    def test_served_plan_bit_identical_to_direct_optimize(self, manager):
        job = manager.submit(small_request())
        drain(manager, job)
        graph = build_model("mlp", batch=8)
        direct = PoocH(job.resolved.machine,
                       PoochConfig(step1_sim_budget=20)).optimize(graph)
        expected = plan_to_dict(direct.classification, graph,
                                machine=job.resolved.machine.name,
                                predicted_time=direct.predicted.time)
        assert (json.dumps(job.result["plan"], sort_keys=True)
                == json.dumps(expected, sort_keys=True))
        assert job.result["predicted_time_s"] == direct.predicted.time


# -- audit + metrics --------------------------------------------------------------


class TestAudit:
    def test_every_settled_job_leaves_one_record(self, tmp_path):
        audit = AuditLog(tmp_path / "audit.jsonl")
        manager = JobManager(ServePlanner(), workers=2, audit=audit)
        try:
            a = manager.submit(small_request())
            drain(manager, a)
            b = manager.submit(small_request())  # warm
            drain(manager, b)
        finally:
            manager.shutdown()
        records = audit.read()
        assert [r["job_id"] for r in records] == [a.id, b.id]
        assert records[0]["cache_tier"] == TIER_SEARCH
        assert records[1]["cache_tier"] == TIER_WARM
        for r in records:
            assert r["tenant"] == "default"
            assert r["graph_signature"] == a.key[0]
            assert r["wall_s"] is not None

    def test_torn_tail_is_skipped(self, tmp_path):
        audit = AuditLog(tmp_path / "audit.jsonl")
        audit.append({"job_id": "j1"})
        with audit.path.open("a") as f:
            f.write('{"job_id": "j2", "trunc')  # crash mid-write
        assert [r["job_id"] for r in audit.read()] == ["j1"]

    def test_string_path_accepted_by_manager(self, tmp_path):
        manager = JobManager(ServePlanner(), workers=1,
                             audit=str(tmp_path / "a.jsonl"))
        try:
            drain(manager, manager.submit(small_request()))
        finally:
            manager.shutdown()
        assert manager.audit.records_written == 1


class TestServeMetrics:
    def test_publish_metrics_fills_the_serve_section(self, manager):
        from repro.obs.metrics import (
            MetricsRegistry,
            use_registry,
            validate_run_metrics,
        )

        drain(manager, manager.submit(small_request()))
        manager.submit(small_request())  # warm hit
        with use_registry(MetricsRegistry()) as registry:
            manager.publish_metrics()
            doc = registry.snapshot()
        assert validate_run_metrics(doc) == []
        serve = doc["sections"]["serve"]
        assert serve["requests"] == 2
        assert serve["warm_hits"] == 1
        assert serve["searches"] == 1
        assert "queue_depth" in serve


# -- the HTTP layer ---------------------------------------------------------------


@pytest.fixture
def server():
    manager = JobManager(ServePlanner(), workers=2, max_queue=8,
                         tenant_quota=4)
    with PlannerServer(manager, port=0) as srv:
        yield srv


class TestHTTP:
    def test_submit_wait_result_roundtrip(self, server):
        client = PlannerClient(server.url)
        assert client.health() == {"status": "ok"}
        doc = client.submit("mlp", batch=8, config={"budget": 20})
        result = client.result(doc["id"])
        assert result["plan"]["classes"]
        assert result["cache_tier"] in (TIER_SEARCH, TIER_WARM)
        # repeat: warm, terminal in the submit response itself
        again = client.submit("mlp", batch=8, config={"budget": 20})
        assert again["state"] == "done"
        assert again["result"]["cache_tier"] == TIER_WARM

    def test_event_stream_replays_the_pipeline(self, server):
        client = PlannerClient(server.url)
        doc = client.submit("mlp", batch=8, config={"budget": 20})
        client.wait(doc["id"])
        events = [e["event"] for e in client.events(doc["id"])]
        assert events[0] == "queue:admitted"
        assert "profile:start" in events and "search:done" in events
        assert events[-1] == "job:done"
        # ?from=N skips the replayed prefix
        tail = list(client.events(doc["id"], from_seq=len(events) - 1))
        assert [e["event"] for e in tail] == ["job:done"]

    def test_bad_request_maps_to_400(self, server):
        client = PlannerClient(server.url)
        with pytest.raises(ServeClientError) as e:
            client.submit("no-such-model")
        assert e.value.status == 400

    def test_unknown_job_maps_to_404(self, server):
        client = PlannerClient(server.url)
        with pytest.raises(ServeClientError) as e:
            client.job("job-424242")
        assert e.value.status == 404

    def test_quota_rejection_maps_to_429_with_reason(self):
        planner = GatedPlanner()
        manager = JobManager(planner, workers=1, max_queue=8, tenant_quota=1)
        with PlannerServer(manager, port=0) as srv:
            client = PlannerClient(srv.url)
            client.submit("mlp", batch=8, config={"budget": 20})
            with pytest.raises(ServeClientError) as e:
                client.submit("mlp", batch=16, config={"budget": 20})
            assert e.value.status == 429
            assert e.value.body["reason"] == "tenant-quota"
            planner.gate.set()

    def test_cancel_over_http(self):
        planner = GatedPlanner()
        manager = JobManager(planner, workers=1, max_queue=8, tenant_quota=8)
        with PlannerServer(manager, port=0) as srv:
            client = PlannerClient(srv.url)
            decoy = client.submit("mlp", batch=4, config={"budget": 20})
            queued = client.submit("mlp", batch=8, config={"budget": 20})
            assert client.cancel(queued["id"]) is True
            assert client.job(queued["id"])["state"] == "cancelled"
            assert client.cancel(queued["id"]) is False  # already terminal
            planner.gate.set()
            client.wait(decoy["id"])

    def test_keep_alive_responses_do_not_stall(self, server):
        # regression: headers and body left in two segments, and Nagle's
        # algorithm held the body back until the client's delayed ACK
        # (~40 ms per response); a plain client sets no TCP_QUICKACK
        import http.client

        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=10)
        try:
            t0 = time.perf_counter()
            for _ in range(20):
                conn.request("GET", "/v1/healthz")
                resp = conn.getresponse()
                assert json.loads(resp.read()) == {"status": "ok"}
            elapsed = time.perf_counter() - t0
        finally:
            conn.close()
        assert elapsed < 0.5, f"20 keep-alive requests took {elapsed:.3f} s"

    def test_stats_endpoint(self, server):
        client = PlannerClient(server.url)
        client.result(client.submit("mlp", batch=8,
                                    config={"budget": 20})["id"])
        stats = client.stats()
        assert stats["counters"]["requests"] >= 1
        assert stats["warm_cache"]["capacity"] > 0
        assert "queue_depth" in stats and "open_flights" in stats

    def test_remote_shutdown_can_be_disabled(self):
        manager = JobManager(ServePlanner(), workers=1)
        server = PlannerServer(manager, port=0, allow_remote_shutdown=False)
        server.start()
        try:
            client = PlannerClient(server.url)
            with pytest.raises(ServeClientError) as e:
                client.shutdown_server()
            assert e.value.status == 403
        finally:
            server.shutdown()

    def test_eight_concurrent_http_clients_one_search(self):
        planner = GatedPlanner()
        manager = JobManager(planner, workers=2, max_queue=16,
                             tenant_quota=16)
        with PlannerServer(manager, port=0) as srv:
            barrier = threading.Barrier(8)
            docs, lock = [], threading.Lock()

            def client_thread(i: int) -> None:
                client = PlannerClient(srv.url)
                barrier.wait()
                doc = client.submit("mlp", batch=8, tenant=f"t{i}",
                                    config={"budget": 20})
                with lock:
                    docs.append(doc)

            threads = [threading.Thread(target=client_thread, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            planner.gate.set()
            client = PlannerClient(srv.url)
            finals = [client.wait(d["id"]) for d in docs]
            tiers = sorted(f["cache_tier"] for f in finals)
            assert tiers == [TIER_COALESCED] * 7 + [TIER_SEARCH]
            assert planner.optimize_calls == 1
            plans = {json.dumps(f["result"]["plan"], sort_keys=True)
                     for f in finals}
            assert len(plans) == 1
