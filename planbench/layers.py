"""The layer map: every metric, its unit, and what it should move.

``BENCHMARK.json`` holds only ``name``/``unit``/``better`` per metric, so
the rationale lives here.  For every per-layer metric: the end-to-end
metric a change to that layer should move, the workload where it should
move it, and the workload where the layer does (almost) no work, so the
prediction there is no change.  A change that claims a gain cites its
metrics from this table, by name, before measuring.

    python3 planbench/layers.py            # the map as a text table
    python3 planbench/layers.py --json     # BENCHMARK.json's metric blocks

``run.py`` emits exactly these names.
"""

from __future__ import annotations

import json
import sys

R50, R152, ZOO = "r50-x86-step1", "r152-p9-step2", "serve-zoo"

WORKLOADS = {
    R50: ("cold ResNet-50/256 x86 search (25k lockstep step-1 sims) plus a "
          "re-plan that parses a 24 MB outcome file"),
    R152: ("cold ResNet-152/160 POWER9 search (607 serial step-2 recompute "
           "probes) plus re-plans that read little"),
    ZOO: ("repro serve: small-zoo cold searches sent alone, an 8-way "
          "coalesced burst, then 2 closed-loop clients of warm L1 hits"),
}

#: (name, unit, better, bound, definition)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25,
     "launch until the first request can be sent: interpreter, import and "
     "graph build (serve-zoo: until /v1/healthz answers); median of the "
     "run's launches"),
    ("cold_s", "s", "lower", 0.25,
     "median time of a request that ran a search (search workloads: "
     "PoocH.optimize through an empty plan cache, profiling and the "
     "plan-cache store included; serve-zoo: first request per key)"),
    ("cold_cpu_s", "s", "lower", 0.25,
     "median planner-process CPU seconds (all threads) per search"),
    ("warm_p50_ms", "ms", "lower", 0.25,
     "median latency of a request answered without a search (search "
     "workloads: the plan-cache re-plan; serve-zoo: an L1 hit)"),
    ("warm_p99_ms", "ms", "lower", 0.25,
     "serve-zoo: p99 of the warm-phase latencies; search workloads: too "
     "few re-plans for a tail, so the re-plan median"),
    ("warm_rps", "1/s", "higher", 0.25,
     "serve-zoo: warm requests completed per second by 2 closed-loop "
     "clients; search workloads: re-plans per second of one caller"),
    ("plan_iter_ms", "sim_ms", "lower", 0.01,
     "simulated ground-truth iteration time of the chosen plan "
     "(serve-zoo: summed over the catalogue); exact"),
    ("peak_rss_mb", "MB", "lower", 0.1,
     "peak RSS of the planner process (serve-zoo: the server, whose job "
     "table keeps every job)"),
]

#: every time metric above is normalised by the host-speed probe
#: (``hostprobe.py``); the raw values are in the run's detail file
TIME_METRICS = ("setup_s", "cold_s", "cold_cpu_s", "warm_p50_ms",
                "warm_p99_ms", "warm_rps")

_SEARCH = f"{R50} and {R152}"

#: (name, unit, better, should move, mostly on, near 0 on)
PER_LAYER = [
    ("graph.build_s", "s", "lower", "setup_s", "all", "none"),
    ("profiler.run_s", "s", "lower", "warm_p50_ms", f"{R152} re-plan",
     f"{R50} cold (share)"),
    ("profiler.calls", "count", "lower", "warm_p50_ms", f"{R152} re-plan",
     f"{R50} cold (share)"),
    ("overlap.analyze_s", "s", "lower", "cold_s", R50, f"{ZOO} warm"),
    ("overlap.candidates", "count", "lower", "cold_s", R50, f"{ZOO} warm"),
    ("classifier.step1_s", "s", "lower", "cold_s", R50, f"{R152} (6 sims)"),
    ("classifier.step1_sims", "count", "lower", "cold_s", R50,
     f"{R152} (6 sims)"),
    ("classifier.leaves_evaluated", "count", "lower", "cold_s", R50,
     f"{R152} (6 sims)"),
    ("classifier.subtrees_pruned", "count", "higher", "cold_s", R50,
     f"{R152} (6 sims)"),
    ("classifier.step2_s", "s", "lower", "cold_s", R152, f"{R50} (42 sims)"),
    ("classifier.step2_sims", "count", "lower", "cold_s", R152,
     f"{R50} (42 sims)"),
    ("classifier.step2_rounds", "count", "lower", "cold_s", R152,
     f"{R50} (42 sims)"),
    ("classifier.r_recomputed", "count", "lower", "cold_s", R152,
     f"{R50} (42 sims)"),
    ("classifier.r_reused", "count", "higher", "cold_s", R152,
     f"{R50} (42 sims)"),
    ("classifier.keep_probes_elided", "count", "higher", "cold_s", R152,
     f"{R50} (42 sims)"),
    ("predictor.calls", "count", "lower", "cold_s", _SEARCH, f"{ZOO} warm"),
    ("predictor.cache_hit_ratio", "ratio", "higher", "cold_s", _SEARCH,
     f"{ZOO} warm"),
    ("predictor.resumed_ratio", "ratio", "higher", "cold_s", _SEARCH,
     f"{ZOO} warm"),
    ("predictor.self_s", "s", "lower", "cold_s", _SEARCH, f"{ZOO} warm"),
    ("vecengine.compile_s", "s", "lower", "cold_s", f"{R50} (big sweeps)",
     f"{R152} (3 small sweeps)"),
    ("vecengine.run_batch_s", "s", "lower", "cold_s", f"{R50} (big sweeps)",
     f"{R152} (3 small sweeps)"),
    ("vecengine.sweeps", "count", "lower", "cold_s", f"{R50} (big sweeps)",
     f"{R152} (3 small sweeps)"),
    ("vecengine.rows", "count", "lower", "cold_s", f"{R50} (big sweeps)",
     f"{R152} (3 small sweeps)"),
    ("vecengine.rows_used_ratio", "ratio", "higher", "cold_s",
     f"{R50} (big sweeps)", f"{R152} (3 small sweeps)"),
    ("fastengine.runs", "count", "lower", "cold_s", R152, R50),
    ("fastengine.init_s", "s", "lower", "cold_s", R152, R50),
    ("fastengine.run_s", "s", "lower", "cold_s", R152, R50),
    ("schedule.drafts", "count", "lower", "cold_s", R152, f"{ZOO} warm"),
    ("schedule.build_s", "s", "lower", "cold_s", R152, f"{ZOO} warm"),
    ("schedule.keep_delta_s", "s", "lower", "cold_s", R152, f"{ZOO} warm"),
    ("schedule.recompute_delta_s", "s", "lower", "cold_s", R152,
     f"{ZOO} warm"),
    ("schedule.liveness_floor_s", "s", "lower", "cold_s", R152,
     f"{ZOO} warm"),
    ("engine.runs", "count", "lower", "warm_p50_ms", f"{R152} re-plan",
     f"{R50} cold (share)"),
    ("engine.run_s", "s", "lower", "warm_p50_ms", f"{R152} re-plan",
     f"{R50} cold (share)"),
    ("executor.execute_s", "s", "lower", "warm_p50_ms", f"{R152} re-plan",
     f"{R50} cold (share)"),
    ("plan_io.load_plan_s", "s", "lower", "warm_p50_ms", f"{R50} (24 MB)",
     f"{R152} (1.7 MB)"),
    ("plan_io.load_outcomes_s", "s", "lower", "warm_p50_ms",
     f"{R50} (24 MB)", f"{R152} (1.7 MB)"),
    ("plan_io.outcomes_loaded", "count", "lower", "warm_p50_ms",
     f"{R50} (24 MB)", f"{R152} (1.7 MB)"),
    ("plan_io.store_s", "s", "lower", "cold_s", f"{R50} (24 MB)",
     f"{R152} (1.7 MB)"),
    ("plan_io.outcome_bytes", "bytes", "lower", "peak_rss_mb",
     f"{R50} (24 MB)", f"{R152} (1.7 MB)"),
    ("serve.resolve_s", "s", "lower", "warm_p50_ms", ZOO, _SEARCH),
    ("serve.submit_s", "s", "lower", "warm_p50_ms", ZOO, _SEARCH),
    ("serve.rtt_p50_ms", "ms", "lower", "warm_p50_ms", ZOO, _SEARCH),
    ("serve.queue_wait_s", "s", "lower", "warm_p99_ms", ZOO, _SEARCH),
    ("serve.warm_hits", "count", "higher", "warm_rps", ZOO, _SEARCH),
    ("serve.coalesced", "count", "higher", "cold_s", ZOO, _SEARCH),
    ("serve.searches", "count", "lower", "cold_s", ZOO, _SEARCH),
    ("serve.retained_jobs", "count", "lower", "peak_rss_mb", ZOO, _SEARCH),
    ("bench.unattributed_share", "ratio", "lower", "none (health check)",
     "all", "all"),
    ("bench.trace_overhead_ratio", "ratio", "lower", "none (health check)",
     "all", "all"),
    ("bench.host_probe_ms", "ms", "lower", "none (host speed)", "all",
     "all"),
]

#: self-time share of each layer in the traced run (names where time goes)
SHARE_LAYERS = ("graph", "profiler", "overlap", "classifier", "predictor",
                "vecengine", "fastengine", "schedule", "engine", "executor",
                "multidevice", "plan_io", "serve")
PER_LAYER += [
    (f"share.{layer}", "ratio", "lower", "the layer's own metrics' target",
     "see the layer's rows", "see the layer's rows")
    for layer in SHARE_LAYERS
]

#: per-layer metrics that must repeat exactly between runs of one tree
EXACT_LAYER = [name for name, unit, *_ in PER_LAYER
               if unit in ("count", "bytes")]


def manifest_blocks() -> dict:
    """The ``workloads``, ``end_to_end`` and ``per_layer`` blocks of
    BENCHMARK.json."""
    return {
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound, _d in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b, *_ in PER_LAYER
        ],
    }


def table() -> str:
    rows = [("metric", "unit", "should move", "mostly on", "near 0 on")]
    rows += [(n, u, moves, on, off) for n, u, _b, moves, on, off in PER_LAYER]
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(r, widths))
                     + "  " + r[4] for r in rows)


if __name__ == "__main__":
    if "--json" in sys.argv[1:]:
        print(json.dumps(manifest_blocks(), indent=2))
    else:
        print(table())
