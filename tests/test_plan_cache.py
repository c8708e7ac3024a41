"""PlanCache: persistent plans and simulation outcomes across runs.

Covers the signature keying, the JSON round trip (including ±inf outcome
times), PoocH's warm start, DynamicPoocH's cross-instance reuse, and the
``classifiable_maps`` provenance check that used to be stored but never
validated on load.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.common.errors import ScheduleError
from repro.models import linear_chain, mlp, poster_example
from repro.pooch import PoocH, PoochConfig
from repro.pooch.dynamic import DynamicPoocH
from repro.runtime.plan import Classification, MapClass
from repro.runtime.plan_io import (
    PlanCache,
    decode_outcome_entries,
    encode_outcome_entries,
    graph_signature,
    machine_signature,
    plan_from_dict,
    plan_to_dict,
    profile_signature,
)
from tests.conftest import tiny_machine

CFG = PoochConfig(max_exact_li=4, step1_sim_budget=100)


@pytest.fixture
def machine():
    return tiny_machine(mem_mib=224)


class TestSignatures:
    def test_graph_signature_is_structural(self):
        assert graph_signature(poster_example()) == graph_signature(
            poster_example()
        )
        assert graph_signature(poster_example(batch=64)) != graph_signature(
            poster_example(batch=128)
        )
        assert graph_signature(poster_example()) != graph_signature(mlp())

    def test_machine_signature_reflects_capacity(self):
        assert machine_signature(tiny_machine(mem_mib=160)) != machine_signature(
            tiny_machine(mem_mib=224)
        )

    def test_key_str_roundtrip(self):
        key = ((0, "swap"), (3, "keep"), (7, "recompute"))
        for k in (key, ()):
            maps, raw = encode_outcome_entries({k: {}})
            assert decode_outcome_entries(maps, raw) == {k: {}}
        assert encode_outcome_entries({key: {}}) == ([0, 3, 7], {"skr": {}})


class TestPlanStore:
    def test_roundtrip(self, tmp_path, machine):
        g = poster_example()
        cls = Classification.all_swap(g).with_class(
            g.classifiable_maps()[2], MapClass.KEEP
        )
        cache = PlanCache(tmp_path)
        cache.store_plan(g, machine, CFG.signature(), cls, predicted_time=0.5)
        hit = cache.load_plan(g, machine, CFG.signature())
        assert hit is not None
        loaded, meta = hit
        assert loaded.key() == cls.key()
        assert meta["predicted_time_s"] == 0.5

    def test_miss_on_different_config(self, tmp_path, machine):
        g = poster_example()
        cache = PlanCache(tmp_path)
        cache.store_plan(g, machine, "cfg-a", Classification.all_swap(g))
        assert cache.load_plan(g, machine, "cfg-b") is None

    def test_miss_on_different_machine(self, tmp_path, machine):
        g = poster_example()
        cache = PlanCache(tmp_path)
        cache.store_plan(g, machine, "cfg", Classification.all_swap(g))
        assert cache.load_plan(g, tiny_machine(mem_mib=320), "cfg") is None

    def test_uncreatable_root_fails_loudly(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(ScheduleError, match="plan cache"):
            PlanCache(blocker / "cache")

    def test_corrupt_file_is_a_miss(self, tmp_path, machine):
        g = poster_example()
        cache = PlanCache(tmp_path)
        path = cache.store_plan(g, machine, "cfg", Classification.all_swap(g))
        path.write_text("{not json")
        assert cache.load_plan(g, machine, "cfg") is None


class TestOutcomeStore:
    def test_merge_and_load(self, tmp_path, machine):
        g = poster_example()
        cache = PlanCache(tmp_path)
        entries = {
            ((0, "swap"), (1, "keep")): {
                "feasible": True, "time": 0.25, "peak_memory": 123,
                "oom_context": "",
            },
            ((0, "keep"), (1, "keep")): {
                "feasible": False, "time": float("inf"), "peak_memory": 0,
                "oom_context": "F1",
            },
        }
        assert cache.merge_outcomes(g, machine, "sig", entries) == 2
        loaded = cache.load_outcomes(g, machine, "sig")
        assert loaded == entries  # floats (incl. inf) survive JSON exactly

    def test_merge_is_a_union(self, tmp_path, machine):
        g = poster_example()
        cache = PlanCache(tmp_path)
        one = {((0, "swap"),): {"feasible": True, "time": 1.0,
                                "peak_memory": 1, "oom_context": ""}}
        two = {((0, "keep"),): {"feasible": True, "time": 2.0,
                                "peak_memory": 2, "oom_context": ""}}
        cache.merge_outcomes(g, machine, "sig", one)
        assert cache.merge_outcomes(g, machine, "sig", two) == 2
        assert len(cache.load_outcomes(g, machine, "sig")) == 2

    def test_signature_scoping(self, tmp_path, machine):
        g = poster_example()
        cache = PlanCache(tmp_path)
        entry = {((0, "swap"),): {"feasible": True, "time": 1.0,
                                  "peak_memory": 1, "oom_context": ""}}
        cache.merge_outcomes(g, machine, "profile-a", entry)
        assert cache.load_outcomes(g, machine, "profile-b") == {}


class TestPoochWarmStart:
    def test_second_optimize_hits_the_plan_cache(self, tmp_path, machine):
        g = poster_example()
        cold = PoocH(machine, CFG, plan_cache=tmp_path).optimize(g)
        assert not cold.stats.plan_cache_hit
        warm = PoocH(machine, CFG, plan_cache=tmp_path).optimize(g)
        assert warm.stats.plan_cache_hit
        assert warm.classification.key() == cold.classification.key()
        assert warm.predicted.time == cold.predicted.time
        assert warm.stats.sims_step1 == 0 and warm.stats.sims_step2 == 0
        assert "(from plan cache)" in warm.summary()

    def test_outcomes_warm_start_skips_all_simulations(self, tmp_path, machine):
        # drop the plan but keep the outcomes: the re-search replays
        # entirely from the cache and lands on the same plan for free
        g = poster_example()
        cache = PlanCache(tmp_path)
        cold = PoocH(machine, CFG, plan_cache=cache).optimize(g)
        cache.plan_path(g, machine, CFG.signature()).unlink()
        redo = PoocH(machine, CFG, plan_cache=cache).optimize(g)
        assert not redo.stats.plan_cache_hit
        assert redo.classification.key() == cold.classification.key()
        assert redo.stats.sims_step1 == 0 and redo.stats.sims_step2 == 0

    def test_different_config_searches_but_shares_outcomes(
        self, tmp_path, machine
    ):
        from dataclasses import replace

        g = poster_example()
        PoocH(machine, CFG, plan_cache=tmp_path).optimize(g)
        other = replace(CFG, step1_sim_budget=150)
        redo = PoocH(machine, other, plan_cache=tmp_path).optimize(g)
        assert not redo.stats.plan_cache_hit  # plan keyed by config
        # but the shared outcome store still serves the overlapping sims
        assert redo.stats.sims_step1 == 0

    def test_path_and_plancache_arguments_equivalent(self, tmp_path, machine):
        p = PoocH(machine, CFG, plan_cache=str(tmp_path))
        assert isinstance(p.plan_cache, PlanCache)


class _Spies:
    """Counts ``PlanCache.load_outcomes`` calls and collects the predictors
    PoocH builds, so a test can assert what a warm optimize touched."""

    def __init__(self, monkeypatch):
        import repro.pooch.pipeline as pipeline_mod
        from repro.pooch.predictor import TimelinePredictor

        self.outcome_loads = 0
        self.predictors = []
        spies = self
        real_load = PlanCache.load_outcomes

        def load_outcomes(cache, *args):
            spies.outcome_loads += 1
            return real_load(cache, *args)

        class SpyPredictor(TimelinePredictor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                spies.predictors.append(self)

        monkeypatch.setattr(PlanCache, "load_outcomes", load_outcomes)
        monkeypatch.setattr(pipeline_mod, "TimelinePredictor", SpyPredictor)


class TestRecordedOutcome:
    """A plan record carries its verifying outcome; an identical profile
    re-plans from the record alone."""

    def test_matching_profile_hit_skips_the_outcome_store(
        self, tmp_path, machine, monkeypatch
    ):
        g = poster_example()
        cold = PoocH(machine, CFG, plan_cache=tmp_path).optimize(g)
        spies = _Spies(monkeypatch)
        warm = PoocH(machine, CFG, plan_cache=tmp_path).optimize(
            poster_example())
        assert warm.stats.plan_cache_hit and warm.stats.plan_cache_from_record
        assert spies.outcome_loads == 0
        assert warm.predicted == cold.predicted  # every field, exactly
        assert warm.classification.key() == cold.classification.key()
        (predictor,) = spies.predictors
        assert predictor.simulations == 0

    def test_record_carries_the_outcome_and_its_signature(
        self, tmp_path, machine
    ):
        g = poster_example()
        cache = PlanCache(tmp_path)
        cold = PoocH(machine, CFG, plan_cache=cache).optimize(g)
        _cls, meta = cache.load_plan(g, machine, CFG.signature())
        rec = meta["outcome"]
        assert rec["time"] == cold.predicted.time
        assert rec["peak_memory"] == cold.predicted.peak_memory
        assert rec["feasible"] is True and rec["oom_context"] == ""
        assert rec["sim_signature"].startswith(
            profile_signature(cold.profile))

    def test_legacy_record_without_outcome_still_hits(
        self, tmp_path, machine, monkeypatch
    ):
        import json

        g = poster_example()
        cache = PlanCache(tmp_path)
        cold = PoocH(machine, CFG, plan_cache=cache).optimize(g)
        path = cache.plan_path(g, machine, CFG.signature())
        record = json.loads(path.read_text())
        del record["outcome"]
        path.write_text(json.dumps(record))
        spies = _Spies(monkeypatch)
        warm = PoocH(machine, CFG, plan_cache=tmp_path).optimize(g)
        assert warm.stats.plan_cache_hit
        assert not warm.stats.plan_cache_from_record
        assert warm.predicted == cold.predicted
        # the bulk path: verified from the outcome store, still no simulation
        assert spies.outcome_loads == 1
        assert spies.predictors[0].simulations == 0

    def test_perturbed_profile_takes_the_bulk_path_and_simulates(
        self, tmp_path, machine, monkeypatch
    ):
        g = poster_example()
        PoocH(machine, CFG, plan_cache=tmp_path).optimize(g)
        spies = _Spies(monkeypatch)
        noisy = PoocH(machine, CFG, plan_cache=tmp_path,
                      faults="profile_noise=0.05", fault_seed=3).optimize(g)
        assert spies.outcome_loads == 1
        assert not noisy.stats.plan_cache_from_record
        assert spies.predictors[0].simulations >= 1

    def test_recorded_infeasible_plan_is_rejected_and_searched(
        self, tmp_path, machine, monkeypatch
    ):
        import json

        g = poster_example()
        cache = PlanCache(tmp_path)
        PoocH(machine, CFG, plan_cache=cache).optimize(g)
        path = cache.plan_path(g, machine, CFG.signature())
        record = json.loads(path.read_text())
        record["outcome"].update(feasible=False, time=float("inf"),
                                 peak_memory=0, oom_context="F1")
        path.write_text(json.dumps(record))
        spies = _Spies(monkeypatch)
        redo = PoocH(machine, CFG, plan_cache=tmp_path).optimize(g)
        assert not redo.stats.plan_cache_hit
        assert spies.outcome_loads == 1


class TestCompactOutcomeStore:
    ENTRIES = {
        "fast": {"feasible": True, "time": 0.25, "peak_memory": 123,
                 "oom_context": ""},
        "oom": {"feasible": False, "time": float("inf"), "peak_memory": 0,
                "oom_context": "F3 alloc"},
        "neg": {"feasible": True, "time": float("-inf"), "peak_memory": 7,
                "oom_context": ""},
    }

    def _classifications(self, g):
        maps = g.classifiable_maps()
        base = Classification.all_swap(g)
        return [base, base.with_class(maps[2], MapClass.KEEP),
                base.with_class(maps[1], MapClass.RECOMPUTE)]

    def test_roundtrip_with_real_keys(self, tmp_path, machine):
        g = poster_example()
        cache = PlanCache(tmp_path)
        classes = self._classifications(g)
        entries = {c.key(): e for c, e in zip(classes, self.ENTRIES.values())}
        cache.merge_outcomes(g, machine, "sig", entries)
        loaded = PlanCache(tmp_path).load_outcomes(g, machine, "sig")
        assert loaded == entries  # ±inf and oom_context included
        assert set(loaded) == {c.key() for c in classes}
        # rebuilt keys share their interned (map, class) pairs
        a, b, _ = loaded
        assert all(x is y for x, y in zip(a, b) if x == y)

    def test_file_is_compact(self, tmp_path, machine):
        import json

        g = poster_example()
        cache = PlanCache(tmp_path)
        (c, *_) = self._classifications(g)
        cache.merge_outcomes(g, machine, "sig", {c.key(): self.ENTRIES["fast"]})
        doc = json.loads(cache.outcomes_path(g, machine, "sig").read_text())
        assert doc["format_version"] == 2
        assert doc["maps"] == [i for i, _ in c.key()]
        assert list(doc["entries"]) == ["s" * len(c.key())]

    def _write(self, cache, g, machine, **doc):
        import json

        path = cache.outcomes_path(g, machine, "sig")
        path.write_text(json.dumps({
            "graph_signature": graph_signature(g),
            "machine_signature": machine_signature(machine),
            "sim_signature": "sig", **doc}))
        return path

    def test_v1_file_reads_as_a_miss(self, tmp_path, machine):
        g = poster_example()
        cache = PlanCache(tmp_path)
        self._write(cache, g, machine, format_version=1, entries={
            "0:swap,1:keep": self.ENTRIES["fast"]})
        assert cache.load_outcomes(g, machine, "sig") == {}
        # and a merge replaces it with a readable v2 file
        assert cache.merge_outcomes(g, machine, "sig", {
            ((0, "swap"),): self.ENTRIES["fast"]}) == 1
        assert len(PlanCache(tmp_path).load_outcomes(g, machine, "sig")) == 1

    @pytest.mark.parametrize("key", ["sss", "s", "sx"])
    def test_key_not_matching_the_header_reads_as_a_miss(
        self, tmp_path, machine, key
    ):
        g = poster_example()
        cache = PlanCache(tmp_path)
        self._write(cache, g, machine, format_version=2, maps=[0, 1],
                    entries={"sk": self.ENTRIES["fast"],
                             key: self.ENTRIES["fast"]})
        assert cache.load_outcomes(g, machine, "sig") == {}

    def test_key_over_other_maps_is_dropped_not_stored(
        self, tmp_path, machine
    ):
        g = poster_example()
        cache = PlanCache(tmp_path, lru_capacity=4)
        e = self.ENTRIES["fast"]
        n = cache.merge_outcomes(g, machine, "sig", {
            ((0, "swap"), (1, "keep")): e, ((0, "swap"),): e})
        assert n == 1
        # the memo holds exactly what the file holds
        assert cache.load_outcomes(g, machine, "sig") == PlanCache(
            tmp_path).load_outcomes(g, machine, "sig")


def _disjoint_entries(worker: int, count: int) -> dict:
    """``count`` outcome entries over maps 0..9 no other worker produces."""
    classes = ("swap", "keep", "recompute")
    out = {}
    for i in range(count):
        n = worker * 1000 + i
        key = []
        for m in range(10):
            n, digit = divmod(n, 3)
            key.append((m, classes[digit]))
        out[tuple(key)] = {"feasible": True, "time": float(worker + i),
                           "peak_memory": i, "oom_context": ""}
    return out


_MERGER = """
import pathlib, sys, time
from repro.models import poster_example
from repro.runtime.plan_io import PlanCache
from tests.conftest import tiny_machine
from tests.test_plan_cache import MERGES, _disjoint_entries

root, worker = sys.argv[1], int(sys.argv[2])
g, machine = poster_example(), tiny_machine(mem_mib=224)
cache = PlanCache(root)
entries = _disjoint_entries(worker, MERGES)
(pathlib.Path(root) / f"ready-{worker}").touch()
go = pathlib.Path(root) / "go"
while not go.exists():
    time.sleep(0.0005)
for k, v in entries.items():
    cache.merge_outcomes(g, machine, "sig", {k: v})
"""
#: merges per process — enough that two unlocked writers reliably overlap
MERGES = 150


class TestLosslessMerge:
    @pytest.mark.parametrize("shared", [True, False])
    def test_concurrent_thread_merges_lose_nothing(
        self, tmp_path, machine, shared
    ):
        g = poster_example()
        one = PlanCache(tmp_path, lru_capacity=4)
        barrier = threading.Barrier(8)
        errors: list[BaseException] = []

        def merger(worker: int) -> None:
            cache = one if shared else PlanCache(tmp_path)
            try:
                barrier.wait()
                for k, v in _disjoint_entries(worker, 10).items():
                    cache.merge_outcomes(g, machine, "sig", {k: v})
            except BaseException as e:  # noqa: BLE001 - surfaced below
                errors.append(e)

        threads = [threading.Thread(target=merger, args=(w,))
                   for w in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # force interleaving inside merges
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        expect = {}
        for w in range(8):
            expect.update(_disjoint_entries(w, 10))
        assert PlanCache(tmp_path).load_outcomes(g, machine, "sig") == expect

    def test_concurrent_process_merges_lose_nothing(self, tmp_path, machine):
        import os
        import pathlib
        import subprocess

        import repro

        root = pathlib.Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(pathlib.Path(repro.__file__).resolve().parents[1]),
             str(root), env.get("PYTHONPATH", "")])
        procs = [subprocess.Popen(
            [sys.executable, "-c", _MERGER, str(tmp_path), str(w)],
            cwd=root, env=env) for w in range(2)]
        deadline = time.monotonic() + 60
        while not all((tmp_path / f"ready-{w}").exists() for w in range(2)):
            assert time.monotonic() < deadline, "merger processes never started"
            assert all(p.poll() is None for p in procs)
            time.sleep(0.005)
        (tmp_path / "go").touch()
        assert [p.wait(timeout=120) for p in procs] == [0, 0]
        expect = {**_disjoint_entries(0, MERGES),
                  **_disjoint_entries(1, MERGES)}
        g = poster_example()
        assert PlanCache(tmp_path).load_outcomes(g, machine, "sig") == expect


class TestDynamicPoochCache:
    def test_plans_persist_across_instances(self, tmp_path, machine):
        import repro.pooch.dynamic as dyn

        def build(batch):
            return linear_chain(6, batch=batch, channels=32, image=64)

        cfg = PoochConfig(max_exact_li=3, step1_sim_budget=120)
        first = DynamicPoocH(machine, build, cfg, plan_cache=tmp_path)
        first.run_stream([16, 32])
        plans = {s: first._plans[s].key() for s in (16, 32)}

        # a fresh instance (fresh process, conceptually) must reuse the
        # cached plans without ever invoking the classifier
        second = DynamicPoocH(machine, build, cfg, plan_cache=tmp_path)

        class Boom:
            def __init__(self, *a, **kw):
                raise AssertionError("search ran despite a cached plan")

        real = dyn.PoochClassifier
        dyn.PoochClassifier = Boom
        try:
            second.run_stream([16, 32])
        finally:
            dyn.PoochClassifier = real
        assert {s: second._plans[s].key() for s in (16, 32)} == plans

    def test_cross_instance_reuse_runs_no_simulation(self, tmp_path, machine):
        def build(batch):
            return linear_chain(6, batch=batch, channels=32, image=64)

        cfg = PoochConfig(max_exact_li=3, step1_sim_budget=120)
        DynamicPoocH(machine, build, cfg, plan_cache=tmp_path).run_stream(
            [16, 32])
        second = DynamicPoocH(machine, build, cfg, plan_cache=tmp_path)
        second.run_stream([16, 32])
        assert second._predictors
        assert sum(p.simulations for p in second._predictors.values()) == 0


class TestSignatureMemoization:
    def test_graph_signature_memoized_on_instance(self):
        g = poster_example()
        assert "_graph_signature" not in g.__dict__
        sig = graph_signature(g)
        assert g.__dict__["_graph_signature"] == sig
        assert graph_signature(g) == sig  # served from the memo

    def test_validate_drops_the_memo(self):
        g = poster_example()
        sig = graph_signature(g)
        g.validate()  # the sanctioned re-check after mutation
        assert "_graph_signature" not in g.__dict__
        assert graph_signature(g) == sig  # recomputed, structurally equal

    def test_memo_does_not_leak_across_instances(self):
        assert graph_signature(poster_example(batch=64)) != graph_signature(
            poster_example(batch=128)
        )

    def test_machine_signature_cached_per_spec(self):
        machine_signature.cache_clear()
        m = tiny_machine(mem_mib=192)
        before = machine_signature.cache_info().hits
        machine_signature(m)
        machine_signature(m)
        assert machine_signature.cache_info().hits == before + 1


class TestAtomicWrites:
    def test_no_temp_files_left_behind(self, tmp_path, machine):
        g = poster_example()
        cache = PlanCache(tmp_path)
        cache.store_plan(g, machine, "cfg", Classification.all_swap(g))
        cache.merge_outcomes(g, machine, "sig", {
            ((0, "swap"),): {"feasible": True, "time": 1.0,
                             "peak_memory": 1, "oom_context": ""},
        })
        leftovers = [p for p in tmp_path.rglob("*") if p.suffix == ".tmp"]
        assert leftovers == []

    def test_concurrent_store_load_never_sees_a_torn_plan(
        self, tmp_path, machine
    ):
        # regression: store_plan used a plain write_text, so a reader (a
        # second optimize process, or another serve worker sharing the
        # directory) could observe a JSON prefix mid-write and fail — or
        # worse, a corrupt-but-parseable document
        g = poster_example()
        cache = PlanCache(tmp_path)
        plans = [
            Classification.all_swap(g),
            Classification.all_swap(g).with_class(
                g.classifiable_maps()[0], MapClass.KEEP
            ),
        ]
        valid_keys = {c.key() for c in plans}
        stop = threading.Event()
        errors: list[BaseException] = []

        def writer() -> None:
            i = 0
            try:
                while not stop.is_set():
                    cache.store_plan(g, machine, "cfg", plans[i % 2])
                    i += 1
            except BaseException as e:  # noqa: BLE001 - surfaced below
                errors.append(e)

        def reader() -> None:
            # a fresh PlanCache per reader: no shared LRU, every load is a
            # real file read racing the writer
            mine = PlanCache(tmp_path)
            try:
                for _ in range(300):
                    hit = mine.load_plan(g, machine, "cfg")
                    if hit is not None:
                        assert hit[0].key() in valid_keys
            except BaseException as e:  # noqa: BLE001 - surfaced below
                errors.append(e)

        readers = [threading.Thread(target=reader) for _ in range(3)]
        w = threading.Thread(target=writer)
        w.start()
        for t in readers:
            t.start()
        for t in readers:
            t.join()
        stop.set()
        w.join()
        assert errors == []
        assert not [p for p in tmp_path.rglob("*") if p.suffix == ".tmp"]


class TestInMemoryLru:
    def test_plan_hits_skip_the_disk_after_first_load(self, tmp_path, machine):
        g = poster_example()
        cache = PlanCache(tmp_path, lru_capacity=8)
        cache.store_plan(g, machine, "cfg", Classification.all_swap(g))
        # store writes through, so the very first load is already memoized
        first = cache.load_plan(g, machine, "cfg")
        assert first is not None
        assert cache.lru_hits == 1 and cache.disk_hits == 0
        # and the memoized Classification is shared by reference
        second = cache.load_plan(g, machine, "cfg")
        assert second[0] is first[0]
        assert cache.lru_hits == 2

    def test_cold_load_counts_a_disk_hit_then_memoizes(self, tmp_path, machine):
        g = poster_example()
        PlanCache(tmp_path).store_plan(g, machine, "cfg",
                                       Classification.all_swap(g))
        cache = PlanCache(tmp_path, lru_capacity=8)  # empty memo
        cache.load_plan(g, machine, "cfg")
        assert cache.disk_hits == 1 and cache.lru_hits == 0
        cache.load_plan(g, machine, "cfg")
        assert cache.disk_hits == 1 and cache.lru_hits == 1

    def test_miss_counted(self, tmp_path, machine):
        cache = PlanCache(tmp_path, lru_capacity=8)
        assert cache.load_plan(poster_example(), machine, "cfg") is None
        assert cache.misses == 1

    def test_zero_capacity_disables_the_memo(self, tmp_path, machine):
        g = poster_example()
        cache = PlanCache(tmp_path)  # default: no LRU
        cache.store_plan(g, machine, "cfg", Classification.all_swap(g))
        cache.load_plan(g, machine, "cfg")
        cache.load_plan(g, machine, "cfg")
        assert cache.lru_hits == 0 and cache.disk_hits == 2

    def test_memoized_outcomes_survive_caller_mutation(self, tmp_path, machine):
        g = poster_example()
        cache = PlanCache(tmp_path, lru_capacity=8)
        entry = {((0, "swap"),): {"feasible": True, "time": 1.0,
                                  "peak_memory": 1, "oom_context": ""}}
        cache.merge_outcomes(g, machine, "sig", entry)
        loaded = cache.load_outcomes(g, machine, "sig")
        loaded[((9, "keep"),)] = {"feasible": True, "time": 9.0,
                                  "peak_memory": 9, "oom_context": ""}
        # the caller's edit must not poison the memo (merge_outcomes mutates
        # the returned dict on every PoocH run)
        assert len(cache.load_outcomes(g, machine, "sig")) == 1

    def test_lru_eviction_is_bounded(self, tmp_path, machine):
        g = poster_example()
        cache = PlanCache(tmp_path, lru_capacity=2)
        for i in range(4):
            cache.store_plan(g, machine, f"cfg-{i}",
                             Classification.all_swap(g))
        assert len(cache._lru) == 2
        # evicted entries fall back to disk, not to a miss
        hit = cache.load_plan(g, machine, "cfg-0")
        assert hit is not None
        assert cache.disk_hits == 1


class TestClassifiableMapsValidation:
    def test_mismatch_rejected(self):
        # regression: the count was stored in every plan file but never
        # checked on load
        g = poster_example()
        data = plan_to_dict(Classification.all_swap(g), g)
        data["classifiable_maps"] += 3
        with pytest.raises(ScheduleError, match="classifiable maps"):
            plan_from_dict(data, g)

    def test_legacy_plan_without_count_still_loads(self):
        g = poster_example()
        data = plan_to_dict(Classification.all_swap(g), g)
        del data["classifiable_maps"]
        loaded = plan_from_dict(data, g)
        assert loaded.key() == Classification.all_swap(g).key()
