"""Plan-cache reuse shared by :class:`~repro.pooch.PoocH` and
:class:`~repro.pooch.dynamic.DynamicPoocH`.

A cached plan is trusted only after its predicted outcome under the current
profile is feasible (simulate-before-running).  The plan record carries the
outcome that verified it when it was stored, under the predictor's
simulation signature; when that signature equals the current one, the
recorded outcome *is* what a simulation would return (outcomes are a pure
function of graph, machine and that signature), so it is installed in the
predictor memo and the outcome store is never opened.  Every other case —
an older record without the outcome, a different profile, a plan miss, a
rejected plan — warm-starts the predictor from the whole outcome store
before verifying or searching.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import TYPE_CHECKING

from repro.obs import metrics
from repro.pooch.predictor import PredictedOutcome, TimelinePredictor
from repro.runtime.plan import Classification
from repro.runtime.plan_io import PlanCache, recorded_outcome

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph import NNGraph
    from repro.hw import MachineSpec


def reuse_cached_plan(
    cache: PlanCache,
    graph: "NNGraph",
    machine: "MachineSpec",
    config_signature: str,
    predictor: TimelinePredictor,
    *,
    lookup: bool = True,
) -> tuple[Classification, PredictedOutcome, bool] | None:
    """A verified cached plan as ``(classification, outcome, from_record)``,
    or ``None`` when a search must run — in which case the predictor has
    been warm-started from the outcome store.  ``from_record`` tells whether
    the recorded outcome verified the plan (no simulation, no outcome store)
    rather than a prediction.  ``lookup=False`` skips the plan and only
    warm-starts."""
    sim_signature = predictor.sim_signature()
    hit = (cache.load_plan(graph, machine, config_signature)
           if lookup else None)
    recorded = (recorded_outcome(hit[1], sim_signature)
                if hit is not None else None)
    if recorded is None:
        predictor.preload_outcomes(
            cache.load_outcomes(graph, machine, sim_signature))
    if hit is None:
        return None
    classification = hit[0]
    if recorded is not None:
        predictor.preload_outcomes({classification.key(): recorded})
    outcome = predictor.predict(classification)
    if outcome.feasible:
        metrics.count("search.plan_cache_hits")
        return classification, outcome, recorded is not None
    metrics.count("search.plan_cache_rejections")
    if recorded is not None:  # the search ahead wants the whole store
        predictor.preload_outcomes(
            cache.load_outcomes(graph, machine, sim_signature))
    return None


def store_search(
    cache: PlanCache,
    graph: "NNGraph",
    machine: "MachineSpec",
    config_signature: str,
    classification: Classification,
    outcome: PredictedOutcome,
    predictor: TimelinePredictor,
) -> None:
    """Record a searched plan with its verifying ``outcome`` and merge the
    predictor's outcomes into the store."""
    sim_signature = predictor.sim_signature()
    cache.store_plan(
        graph, machine, config_signature, classification,
        predicted_time=outcome.time, outcome=asdict(outcome),
        sim_signature=sim_signature,
    )
    cache.merge_outcomes(graph, machine, sim_signature,
                         predictor.export_outcomes())
