"""Regenerate ``planbench/reference.json``: the plan every workload key
must get, from direct ``PoocH.optimize`` calls with no plan cache.

    python3 planbench/make_reference.py

Each entry holds the plan digest, the predicted iteration time and the
ground-truth iteration time (exact float reprs).  The output is a pure
function of the program, so rerunning this on an unchanged tree rewrites
the file byte for byte.  Regenerate only when a change is meant to alter
plans.
"""

from __future__ import annotations

import json

from common import (
    REFERENCE,
    SEARCH_CONFIG,
    classification_classes,
    plan_digest,
    require_source,
)


def entry(classes: dict, predicted: float, iter_ms: float) -> dict:
    return {"digest": plan_digest(classes), "predicted_time_s": predicted,
            "plan_iter_ms": iter_ms}


def main() -> None:
    require_source()
    import zoo
    from repro.models import build_model
    from repro.pooch import PoocH, PoochConfig
    from repro.serve.jobs import MACHINES
    from worker import SEARCH_WORKLOADS

    ref: dict = {"search": {}, "serve-zoo": {}}
    for workload, (model, batch, machine) in SEARCH_WORKLOADS.items():
        result = PoocH(MACHINES[machine], PoochConfig(**SEARCH_CONFIG)
                       ).optimize(build_model(model, batch=batch))
        ref["search"][workload] = entry(
            classification_classes(result.classification),
            result.predicted.time, result.execute().makespan * 1e3)
        print(workload, ref["search"][workload]["digest"], flush=True)
    for catalogue_entry in zoo.CATALOGUE:
        key = zoo.request_id(catalogue_entry)
        ref["serve-zoo"][key] = entry(*zoo.direct_plan(catalogue_entry))
        print(key, ref["serve-zoo"][key]["digest"], flush=True)
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
