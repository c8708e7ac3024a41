"""Ground-truth executor and the profiling phase."""

import gc
import threading

import pytest

from repro.common.errors import OutOfMemoryError, ScheduleError
from repro.common.gcpause import gc_paused
from repro.gpusim import TaskKind
from repro.hw import CostModel
from repro.models import linear_chain, poster_example, small_cnn
from repro.runtime import (
    Classification,
    SwapInPolicy,
    execute,
    images_per_second,
    iteration_time,
    run_profiling,
)
from tests.conftest import tiny_machine


class TestExecute:
    def test_in_core_runs(self, poster, x86):
        r = execute(poster, Classification.all_keep(poster), x86)
        assert r.makespan > 0
        assert r.device_peak > 0

    def test_in_core_fails_on_tiny_machine(self, poster):
        m = tiny_machine(mem_mib=224)
        with pytest.raises(OutOfMemoryError):
            execute(poster, Classification.all_keep(poster), m)

    def test_swap_fits_tiny_machine(self, poster):
        m = tiny_machine(mem_mib=224)
        r = execute(poster, Classification.all_swap(poster), m)
        assert r.device_peak <= m.usable_gpu_memory

    def test_swap_slower_than_keep(self, poster, x86):
        keep = execute(poster, Classification.all_keep(poster), x86)
        swap = execute(poster, Classification.all_swap(poster), x86)
        assert swap.makespan > keep.makespan

    def test_recompute_slower_than_keep(self, poster, x86):
        keep = execute(poster, Classification.all_keep(poster), x86)
        rec = execute(poster, Classification.all_recompute(poster), x86)
        assert rec.makespan > keep.makespan

    def test_policy_changes_timeline(self, poster):
        # eager prefetch usually wins, but its memory headroom can cost a few
        # percent on very small devices — assert it is at least competitive
        m = tiny_machine(mem_mib=224, link_gbps=4.0)
        cls = Classification.all_swap(poster)
        eager = execute(poster, cls, m, policy=SwapInPolicy.EAGER)
        naive = execute(poster, cls, m, policy=SwapInPolicy.NAIVE)
        assert eager.makespan != naive.makespan  # the policy matters
        assert eager.makespan <= naive.makespan * 1.1

    def test_deterministic(self, poster, x86):
        cls = Classification.all_swap(poster)
        a = execute(poster, cls, x86)
        b = execute(poster, cls, x86)
        assert a.makespan == b.makespan
        assert [r.tid for r in a.records] == [r.tid for r in b.records]

    def test_metrics_helpers(self, poster, x86):
        r = execute(poster, Classification.all_keep(poster), x86)
        assert iteration_time(r) == r.makespan
        assert images_per_second(r, 64) == pytest.approx(64 / r.makespan)

    def test_host_memory_tracked_for_swaps(self, poster, x86):
        r = execute(poster, Classification.all_swap(poster), x86)
        assert r.host_peak > 0

    def test_update_task_present(self, poster, x86):
        r = execute(poster, Classification.all_keep(poster), x86)
        assert len(r.records_by_kind(TaskKind.UPDATE)) == 1


class TestProfiler:
    def test_profile_covers_all_layers(self, poster, x86):
        prof = run_profiling(poster, x86)
        assert set(prof.fwd) == set(range(len(poster)))
        classifiable = set(poster.classifiable_maps())
        assert set(prof.swap_out) == classifiable
        assert set(prof.swap_in) == classifiable

    def test_backward_only_for_backward_layers(self, poster, x86):
        prof = run_profiling(poster, x86)
        assert 0 not in prof.bwd  # INPUT has no backward
        assert len(poster) - 1 in prof.bwd

    def test_baseline_timeline_attached(self, poster, x86):
        prof = run_profiling(poster, x86)
        assert prof.baseline is not None
        assert prof.baseline.makespan > 0

    def test_map_bytes_recorded(self, poster, x86):
        prof = run_profiling(poster, x86)
        assert prof.map_bytes[1] == poster[1].out_spec.nbytes

    def test_deterministic_profile_matches_ground_truth(self, poster, x86):
        prof = run_profiling(poster, x86)
        gt = execute(poster, Classification.all_swap(poster), x86)
        assert prof.baseline.makespan == pytest.approx(gt.makespan, rel=1e-12)

    def test_averaging_with_jitter_converges(self, poster, x86):
        noisy = CostModel(x86, jitter=0.10, seed=3)
        clean = run_profiling(poster, x86)
        averaged = run_profiling(poster, x86, cost_model=noisy, iterations=25)
        # averaged profile should sit near the deterministic one
        for i in clean.fwd:
            if clean.fwd[i] > 0:
                assert averaged.fwd[i] == pytest.approx(clean.fwd[i], rel=0.25)

    def test_iterations_must_be_positive(self, poster, x86):
        with pytest.raises(ScheduleError):
            run_profiling(poster, x86, iterations=0)

    def test_profile_durations_raise_for_unknown_layer(self, poster, x86):
        prof = run_profiling(poster, x86)
        dur = prof.durations()
        with pytest.raises(ScheduleError, match="no forward"):
            dur.fwd(9999)

    def test_profile_lookup_error_carries_diagnostics(self, poster, x86):
        from repro.common.errors import ProfileLookupError

        dur = run_profiling(poster, x86).durations()
        with pytest.raises(ProfileLookupError) as exc:
            dur.swap_in(9999)
        err = exc.value
        assert err.key == 9999
        assert err.table == "swap-in"
        assert err.nearest  # names the closest profiled map ids
        assert all(isinstance(k, int) for k in err.nearest)
        # still catchable as the legacy types
        assert isinstance(err, ScheduleError)
        assert isinstance(err, KeyError)

    def test_update_time_profiled(self, poster, x86):
        prof = run_profiling(poster, x86)
        assert prof.update_time > 0


class TestGcPaused:
    def test_collector_off_inside_and_back_after(self):
        assert gc.isenabled()
        with gc_paused():
            assert not gc.isenabled()
            with gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()  # the outer block still holds it
        assert gc.isenabled()

    def test_restored_after_an_exception(self):
        with pytest.raises(RuntimeError):
            with gc_paused():
                raise RuntimeError("boom")
        assert gc.isenabled()

    def test_leaves_a_disabled_collector_disabled(self):
        gc.disable()
        try:
            with gc_paused():
                pass
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_overlapping_threads_reenable_once_the_last_exits(self):
        first_in, second_in = threading.Event(), threading.Event()
        first_out = threading.Event()
        seen = {}

        def first():
            with gc_paused():
                first_in.set()
                second_in.wait(5)
            seen["after_first"] = gc.isenabled()
            first_out.set()

        def second():
            first_in.wait(5)
            with gc_paused():
                second_in.set()
                first_out.wait(5)
                seen["inside_second"] = gc.isenabled()

        threads = [threading.Thread(target=f) for f in (first, second)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert seen == {"after_first": False, "inside_second": False}
        assert gc.isenabled()

    def test_profiling_runs_with_the_collector_paused(self, poster, x86,
                                                      monkeypatch):
        import repro.runtime.profiler as profiler

        states = []
        real = profiler.build_schedule

        def spy(*args, **kwargs):
            states.append(gc.isenabled())
            return real(*args, **kwargs)

        monkeypatch.setattr(profiler, "build_schedule", spy)
        run_profiling(poster, x86, iterations=2)
        assert states == [False, False, False]
        assert gc.isenabled()
