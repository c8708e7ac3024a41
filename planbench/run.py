"""The planning benchmark: how long PoocH users wait for a plan.

    python3 planbench/run.py --workload r50-x86-step1 --seed 1 \
        --seconds 30 --trace 0

Workloads (``planbench/layers.py`` says why each exists and maps every
metric to the layer and workload it belongs to):

* ``r50-x86-step1`` and ``r152-p9-step2`` — in fresh planner processes, a
  cold ``PoocH.optimize`` through an empty plan cache, then warm re-plans
  of freshly built graphs through the same cache (``search.py``);
* ``serve-zoo`` — ``python -m repro serve`` driven by one client process:
  cold searches sent alone, an 8-way coalesced burst, then closed-loop
  warm hits from 2 connections (``zoo.py``).

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is a separate run that wraps each layer's public calls and
reports the per-layer metrics.  Every time is normalised to a reference
host speed by a probe thread sharing the planner's CPU (``hostprobe.py``).
Every plan is checked against ``planbench/reference.json`` (a wrong plan is
a failed operation, never a timing), and the exact counts and simulated
times are compared with earlier runs of the same program and benchmark
sources; a difference marks the run incorrect.  The last line of standard
output is the result object; the stamp (commit, source hashes, host,
library versions, thread environment, config signature, host-probe median)
is printed before it, and the full result, with raw times, is written under
``planbench/.state/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from common import (
    SEARCH_CONFIG,
    SRC,
    STATE_DIR,
    bench_hash,
    check_determinism,
    load_reference,
    require_source,
    stamp,
    tree_hash,
)
from layers import END_TO_END, EXACT_LAYER, PER_LAYER, WORKLOADS

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def config_signature(workload: str) -> str:
    from repro.pooch import PoochConfig

    if workload == "serve-zoo":
        return PoochConfig().signature()
    return PoochConfig(**SEARCH_CONFIG).signature()


def _finite(value: float) -> float:
    """JSON has no infinity; a metric that never got a sample (every
    request failed) reads 0 in a result already marked incorrect."""
    return float(value) if math.isfinite(value) else 0.0


def main(argv=None) -> int:
    args = parse_args(argv)
    affinity = sorted(os.sched_getaffinity(0))
    require_source()
    reference = load_reference()
    if args.workload == "serve-zoo":
        import zoo

        ref = reference["serve-zoo"]
        out = (zoo.run_traced(args.seed, ref) if args.trace
               else zoo.run_untraced(args.seed, args.seconds, ref))
    else:
        import search

        ref = reference["search"][args.workload]
        out = (search.run_traced(args.workload, ref) if args.trace
               else search.run_untraced(args.workload, args.seconds, ref))

    wanted = [n for n, *_ in (PER_LAYER if args.trace else END_TO_END)]
    # a layer the workload never entered reads 0
    metrics = ({name: out["metrics"].get(name, 0.0) for name in wanted}
               if args.trace else out["metrics"])
    exact = dict(out["exact"])
    if args.trace:
        exact.update({name: metrics[name] for name in EXACT_LAYER})
    drift = check_determinism(
        f"{args.workload}-{tree_hash(SRC)}-{bench_hash()}", exact)
    if drift:
        print(f"planbench: exact values differ from an earlier run of this "
              f"tree: {drift}", file=sys.stderr)
    if not out["consistent"]:
        print("planbench: exact values differ within this run",
              file=sys.stderr)
    result = {
        "correct": out["failed"] == 0 and not drift and out["consistent"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": _finite(metrics[name]),
                           "unit": UNITS[name]}
                    for name in wanted},
    }
    the_stamp = stamp(config_signature(args.workload), out["host_probe_ms"],
                      affinity)
    results_dir = STATE_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    base = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results_dir / f"{base}.json").write_text(json.dumps(
        {"stamp": the_stamp, "args": vars(args), "result": result,
         "exact": exact, "detail": out["detail"]}, indent=1) + "\n")
    print("stamp: " + json.dumps(the_stamp, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
