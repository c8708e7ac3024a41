"""One iteration of a search workload, in a fresh planner process.

    python3 planbench/worker.py WORKLOAD CACHE_DIR [--warm N] [--trace]
    python3 planbench/worker.py WORKLOAD --setup-only

The process imports the planner and builds the workload's graph, prints
``ready`` (the parent times launch to ``ready`` as set-up), then runs one
cold ``PoocH.optimize`` through the empty plan-cache directory
``CACHE_DIR`` and ``N`` warm re-plans, each of a freshly built graph
through the same directory.  Its last line of output is a JSON document
with the timings (``time.time()`` stamps), process CPU, peak RSS, the
plans, the search counts, the ground-truth iteration time and the
host-probe samples.  With ``--trace`` the layers are traced (see
``tracing.py``) and the document carries the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import numpy  # noqa: F401 - starts numpy's thread pool before the pin

import hostprobe

#: workload -> (model, batch, machine)
SEARCH_WORKLOADS = {
    "r50-x86-step1": ("resnet50", 256, "x86"),
    "r152-p9-step2": ("resnet152", 160, "power9"),
}

#: SearchStats fields that must repeat exactly between optimizes
STAT_COUNTS = ("sims_step1", "sims_step2", "leaves_total", "leaves_evaluated",
               "subtrees_pruned", "step2_rounds", "r_recomputed", "r_reused",
               "keep_probes_elided", "sims_full", "sims_resumed",
               "sims_vectorized", "vector_sweeps", "vector_candidates")


#: the benchmark's own spans: cold optimize, warm re-plan, ground truth
ROOT_SPANS = ("bench.iteration", "bench.warm", "bench.execute")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workload", choices=sorted(SEARCH_WORKLOADS))
    p.add_argument("cache", nargs="?")
    p.add_argument("--warm", type=int, default=1)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    hostprobe.pin_to_one_cpu()
    probe = hostprobe.HostProbe().start()
    from common import SEARCH_CONFIG, classification_classes, require_source

    require_source()
    import repro.models as models
    from repro.pooch import PoocH, PoochConfig
    from repro.serve.jobs import MACHINES

    model, batch, machine_name = SEARCH_WORKLOADS[args.workload]
    machine, config = MACHINES[machine_name], PoochConfig(**SEARCH_CONFIG)
    tracer = bridge = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        bridge = tracer.install()
        bridge.__enter__()
    graph = models.build_model(model, batch=batch)
    print("ready", flush=True)
    if args.setup_only:
        print(json.dumps({"probe": probe.stop()}))
        return 0

    def optimize(graph):
        c0, t0 = time.process_time(), time.time()
        result = PoocH(machine, config, plan_cache=args.cache).optimize(graph)
        return result, {"t0": t0, "t1": time.time(),
                        "cpu": time.process_time() - c0}

    if tracer is not None:
        with tracer.span("bench.iteration"):
            cold, cold_t = optimize(graph)
    else:
        cold, cold_t = optimize(graph)
    warm = []
    for _ in range(args.warm):
        if tracer is not None:
            with tracer.span("bench.warm"):
                g = models.build_model(model, batch=batch)
                result, times = optimize(g)
        else:
            g = models.build_model(model, batch=batch)
            result, times = optimize(g)
        times.update(hit=result.stats.plan_cache_hit,
                     classes=classification_classes(result.classification),
                     predicted=repr(result.predicted.time))
        warm.append(times)
    if tracer is not None:
        with tracer.span("bench.execute"):
            iter_ms = cold.execute().makespan * 1e3
    else:
        iter_ms = cold.execute().makespan * 1e3
    doc = {
        "cold": cold_t,
        "warm": warm,
        "classes": classification_classes(cold.classification),
        "predicted": repr(cold.predicted.time),
        "plan_iter_ms": repr(iter_ms),
        "counts": {f: getattr(cold.stats, f) for f in STAT_COUNTS},
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        from common import STATE_DIR
        from tracing import layer_metrics

        bridge.__exit__(None, None, None)
        tracer.uninstall()
        analysis = tracer.analyse(roots=ROOT_SPANS)
        doc["layers"] = layer_metrics(tracer, analysis)
        doc["layer_self"] = analysis["layer_self"]
        out = STATE_DIR / "results" / f"{args.workload}.spans.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        tracer.dump(out)
    doc["probe"] = probe.stop()
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
