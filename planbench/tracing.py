"""Per-layer tracing from outside the program.

A :class:`Tracer` wraps the public calls into each layer (patching the
names the callers actually bind) and bridges the program's own
``repro.obs`` spans (``optimize``, ``profile``, ``search.step1``,
``search.step2``, ``stagger-plan``) through a registry installed with
``use_registry``.  Spans stay in memory — name, start, end, parent, request
id — and :meth:`Tracer.dump` writes them out at the end of the run.

Spans nest per thread, so a planning server's threads each keep their own
stack; a job's spans carry the job id as request id.

A layer's self time is its spans' time minus the time of their child
spans.  Spans of the benchmark itself (``bench.*``) and the pipeline's
``optimize`` glue belong to no layer: their self time is the unattributed
time.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

from repro.obs import metrics as obs_metrics

#: span name -> layer its self time is charged to (None: unattributed)
SPAN_LAYER = {
    "bench.iteration": None,
    "bench.warm": None,
    "bench.execute": None,
    "optimize": None,
    "graph.build": "graph",
    "profiler.run": "profiler",
    "profile": "profiler",
    "profile.baseline": "profiler",
    "overlap.analyze": "overlap",
    "search.step1": "classifier",
    "search.step2": "classifier",
    "classifier.classify": "classifier",
    "predictor.init": "predictor",
    "predictor.predict": "predictor",
    "predictor.predict_keep_batch": "predictor",
    "predictor.provably_infeasible": "predictor",
    "predictor.preload_outcomes": "predictor",
    "predictor.export_outcomes": "predictor",
    "vecengine.compile": "vecengine",
    "vecengine.run_batch": "vecengine",
    "fastengine.init": "fastengine",
    "fastengine.run": "fastengine",
    "engine.init": "engine",
    "engine.run": "engine",
    "schedule.build": "schedule",
    "schedule.keep_delta": "schedule",
    "schedule.recompute_delta": "schedule",
    "schedule.liveness_floor": "schedule",
    "schedule.flip_specs": "schedule",
    "executor.execute": "executor",
    "stagger-plan": "multidevice",
    "plan_io.load_plan": "plan_io",
    "plan_io.store_plan": "plan_io",
    "plan_io.load_outcomes": "plan_io",
    "plan_io.merge_outcomes": "plan_io",
    "serve.http": "serve",
    "serve.submit": "serve",
    "serve.resolve": "serve",
    "serve.job": "serve",
    "serve.optimize": "serve",
}

#: SearchStats fields counted per search (``classifier.<field>``)
SEARCH_COUNTS = ("sims_step1", "sims_step2", "leaves_evaluated",
                 "subtrees_pruned", "step2_rounds", "r_recomputed",
                 "r_reused", "keep_probes_elided", "sims_vectorized")

LAYERS = sorted({layer for layer in SPAN_LAYER.values() if layer})


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "request")

    def __init__(self, sid, name, start, end, parent, request):
        self.sid, self.name, self.start, self.end = sid, name, start, end
        self.parent, self.request = parent, request

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._undo: list[tuple[object, str, object]] = []
        #: TimelinePredictor instances created while tracing (their own
        #: counters give simulations, cache hits and resumed replays)
        self.predictors: list = []
        self.counts: dict[str, int] = defaultdict(int)

    # -- spans --------------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        stack.append(sid)
        start = time.time()
        try:
            yield
        finally:
            end = time.time()
            stack.pop()
            request = getattr(self._tls, "request", None)
            with self._lock:
                self.spans.append(Span(sid, name, start, end, parent, request))

    @contextmanager
    def request(self, request_id: str):
        """Tag every span this thread records with ``request_id``."""
        previous = getattr(self._tls, "request", None)
        self._tls.request = request_id
        try:
            yield
        finally:
            self._tls.request = previous

    def add(self, name: str, value: int) -> None:
        with self._lock:
            self.counts[name] += value

    # -- patching -----------------------------------------------------------------

    def patch(self, owner, attr: str, span_name: str, after=None) -> None:
        """Replace ``owner.attr`` with a wrapper recording ``span_name``.

        ``after(args, kwargs, result)`` runs outside the span, for counts
        read off a call's arguments or result."""
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(span_name):
                result = original(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def install(self, *, serve: bool = False):
        """Patch every layer boundary and install the obs bridge; returns
        the context manager that keeps the bridge active."""
        import repro.models as models
        import repro.pooch.classifier as classifier
        import repro.pooch.pipeline as pipeline
        import repro.pooch.predictor as predictor
        from repro.gpusim.engine import Engine
        from repro.gpusim.fastengine import FastEngine
        from repro.gpusim.vecengine import VectorEngine, VectorTables
        from repro.runtime.plan_io import PlanCache
        from repro.runtime.schedule import ScheduleBuilder

        P = predictor.TimelinePredictor
        self.patch(models, "build_model", "graph.build")
        self.patch(pipeline, "run_profiling", "profiler.run",
                   after=lambda a, k, r: self.add("profiler.calls", 1))
        self.patch(pipeline, "execute", "executor.execute")
        self.patch(classifier, "analyze_overlap", "overlap.analyze",
                   after=lambda a, k, r: self.add("overlap.candidates",
                                                  len(r.candidates)))
        self.patch(classifier.PoochClassifier, "classify",
                   "classifier.classify", after=self._count_search)
        self.patch(P, "__init__", "predictor.init",
                   after=lambda a, k, r: self.predictors.append(a[0]))
        self.patch(P, "predict", "predictor.predict")
        self.patch(P, "predict_keep_batch", "predictor.predict_keep_batch")
        self.patch(P, "provably_infeasible", "predictor.provably_infeasible")
        self.patch(P, "preload_outcomes", "predictor.preload_outcomes")
        self.patch(P, "export_outcomes", "predictor.export_outcomes")
        self.patch(predictor, "apply_keep_delta", "schedule.keep_delta",
                   after=self._count_draft)
        self.patch(predictor, "apply_recompute_delta",
                   "schedule.recompute_delta", after=self._count_draft)
        self.patch(predictor, "liveness_floor", "schedule.liveness_floor")
        self.patch(predictor, "keep_flip_specs", "schedule.flip_specs")
        self.patch(ScheduleBuilder, "build", "schedule.build",
                   after=self._count_draft)
        # build() calls build_raw(): one name, so only the outer call counts
        self.patch(ScheduleBuilder, "build_raw", "schedule.build")
        self.patch(VectorTables, "__init__", "vecengine.compile")
        self.patch(VectorEngine, "run_batch", "vecengine.run_batch",
                   after=self._count_rows)
        self.patch(FastEngine, "__init__", "fastengine.init")
        self.patch(FastEngine, "run", "fastengine.run")
        self.patch(Engine, "__init__", "engine.init")
        self.patch(Engine, "run", "engine.run")
        self.patch(PlanCache, "load_plan", "plan_io.load_plan")
        self.patch(PlanCache, "store_plan", "plan_io.store_plan")
        self.patch(PlanCache, "load_outcomes", "plan_io.load_outcomes",
                   after=lambda a, k, r: self.add("plan_io.outcomes_loaded",
                                                  len(r)))
        self.patch(PlanCache, "merge_outcomes", "plan_io.merge_outcomes",
                   after=self._count_outcome_bytes)
        if serve:
            import repro.serve.jobs as jobs
            import repro.serve.server as server

            self.patch(jobs, "build_model", "graph.build")
            self.patch(jobs.ServePlanner, "resolve", "serve.resolve")
            self.patch(jobs.ServePlanner, "optimize", "serve.optimize")
            self.patch(jobs.JobManager, "submit", "serve.submit")
            # submits only: a GET of the event stream waits for a search
            self.patch(server._Handler, "do_POST", "serve.http")
            run = jobs.JobManager.__dict__["_run"]
            tracer = self

            def traced_run(manager, job):
                with tracer.request(job.id), tracer.span("serve.job"):
                    return run(manager, job)

            jobs.JobManager._run = traced_run
            self._undo.append((jobs.JobManager, "_run", run))
        return obs_metrics.use_registry(_Bridge(self))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _count_search(self, args, kwargs, result) -> None:
        stats = result[1]
        for name in SEARCH_COUNTS:
            self.add(f"classifier.{name}", getattr(stats, name))

    def _count_draft(self, args, kwargs, result) -> None:
        self.add("schedule.drafts", 1)

    def _count_rows(self, args, kwargs, result) -> None:
        self.add("vecengine.rows", len(result))

    def _count_outcome_bytes(self, args, kwargs, result) -> None:
        cache, graph, machine, sim_signature = args[:4]
        size = cache.outcomes_path(graph, machine, sim_signature).stat().st_size
        self.add("plan_io.outcome_bytes", size)

    # -- derived numbers ----------------------------------------------------------

    def analyse(self, roots=None) -> dict:
        """Inclusive time per span name (outermost occurrences only), self
        time per span name and per layer, call counts, and the wall of the
        root spans (``roots``: names of spans that start a measured
        operation; default every span without a parent)."""
        with self._lock:
            spans = list(self.spans)
        by_id = {s.sid: s for s in spans}
        child_time: dict[int, float] = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        inclusive: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        self_by_name: dict[str, float] = defaultdict(float)
        layer_self: dict[str, float] = defaultdict(float)
        for s in spans:
            calls[s.name] += 1
            own = s.duration - child_time[s.sid]
            self_by_name[s.name] += own
            layer_self[SPAN_LAYER[s.name] or "unattributed"] += own
            parent = by_id.get(s.parent)
            while parent is not None and parent.name != s.name:
                parent = by_id.get(parent.parent)
            if parent is None:
                inclusive[s.name] += s.duration
        root_wall = sum(s.duration for s in spans
                        if (s.name in roots if roots else s.parent is None))
        return {
            "inclusive": dict(inclusive),
            "calls": dict(calls),
            "self_by_name": dict(self_by_name),
            "layer_self": dict(layer_self),
            "root_wall": root_wall,
        }

    def dump(self, path) -> None:
        """Write every span (absolute ``time.time()`` seconds)."""
        with self._lock:
            spans = sorted(self.spans, key=lambda s: s.start)
        rows = [{"id": s.sid, "name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "request": s.request} for s in spans]
        path.write_text(json.dumps(rows) + "\n")


class _Bridge(obs_metrics.MetricsRegistry):
    """A ``repro.obs`` registry that records the program's own spans into
    the tracer (per-thread nesting) and keeps its counters under a lock,
    since a planning server reports from several threads."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self._tracer = tracer
        self._count_lock = threading.Lock()

    @contextmanager
    def span(self, name: str, category: str = "phase", **meta):
        with self._tracer.span(name):
            yield self

    def count(self, name: str, value: float = 1) -> None:
        with self._count_lock:
            super().count(name, value)

    def gauge_max(self, name: str, value: float) -> None:
        with self._count_lock:
            super().gauge_max(name, value)


def layer_metrics(tracer: Tracer, analysis: dict) -> dict:
    """The per-layer metrics the tracer gives, for the spans ``analysis``
    summarised.  Metrics of layers the workload never entered read 0."""
    inc, calls = analysis["inclusive"], analysis["calls"]
    self_by_name = analysis["self_by_name"]
    preds = tracer.predictors
    counts = tracer.counts
    predict_calls = calls.get("predictor.predict", 0)
    cache_hits = sum(p.cache_hits for p in preds)
    full = sum(p.full_simulations for p in preds)
    resumed = sum(p.resumed_simulations for p in preds)
    rows = counts.get("vecengine.rows", 0)

    def t(name):
        return inc.get(name, 0.0)

    m = {
        "graph.build_s": (t("graph.build") / calls["graph.build"]
                          if calls.get("graph.build") else 0.0),
        "profiler.run_s": t("profiler.run"),
        "profiler.calls": counts.get("profiler.calls", 0),
        "overlap.analyze_s": t("overlap.analyze"),
        "overlap.candidates": counts.get("overlap.candidates", 0),
        "classifier.step1_s": t("search.step1"),
        "classifier.step1_sims": counts.get("classifier.sims_step1", 0),
        "classifier.leaves_evaluated": counts.get(
            "classifier.leaves_evaluated", 0),
        "classifier.subtrees_pruned": counts.get(
            "classifier.subtrees_pruned", 0),
        "classifier.step2_s": t("search.step2"),
        "classifier.step2_sims": counts.get("classifier.sims_step2", 0),
        "classifier.step2_rounds": counts.get("classifier.step2_rounds", 0),
        "classifier.r_recomputed": counts.get("classifier.r_recomputed", 0),
        "classifier.r_reused": counts.get("classifier.r_reused", 0),
        "classifier.keep_probes_elided": counts.get(
            "classifier.keep_probes_elided", 0),
        "predictor.calls": predict_calls,
        "predictor.cache_hit_ratio": (
            cache_hits / predict_calls if predict_calls else 0.0),
        "predictor.resumed_ratio": (
            resumed / (full + resumed) if full + resumed else 0.0),
        "predictor.self_s": sum(
            v for name, v in self_by_name.items()
            if SPAN_LAYER.get(name) == "predictor"),
        "vecengine.compile_s": t("vecengine.compile"),
        "vecengine.run_batch_s": t("vecengine.run_batch"),
        "vecengine.sweeps": calls.get("vecengine.run_batch", 0),
        "vecengine.rows": rows,
        "vecengine.rows_used_ratio": (
            counts.get("classifier.sims_vectorized", 0) / rows
            if rows else 0.0),
        "fastengine.runs": calls.get("fastengine.run", 0),
        "fastengine.init_s": t("fastengine.init"),
        "fastengine.run_s": t("fastengine.run"),
        "schedule.drafts": counts.get("schedule.drafts", 0),
        "schedule.build_s": t("schedule.build"),
        "schedule.keep_delta_s": t("schedule.keep_delta"),
        "schedule.recompute_delta_s": t("schedule.recompute_delta"),
        "schedule.liveness_floor_s": t("schedule.liveness_floor"),
        "engine.runs": calls.get("engine.run", 0),
        "engine.run_s": t("engine.run"),
        "executor.execute_s": t("executor.execute"),
        "plan_io.load_plan_s": t("plan_io.load_plan"),
        "plan_io.load_outcomes_s": t("plan_io.load_outcomes"),
        "plan_io.outcomes_loaded": counts.get("plan_io.outcomes_loaded", 0),
        "plan_io.store_s": t("plan_io.store_plan") + t("plan_io.merge_outcomes"),
        "plan_io.outcome_bytes": counts.get("plan_io.outcome_bytes", 0),
        "serve.resolve_s": t("serve.resolve"),
        "serve.submit_s": t("serve.submit"),
    }
    total = analysis["root_wall"]
    for layer in LAYERS:
        m[f"share.{layer}"] = (
            analysis["layer_self"].get(layer, 0.0) / total if total else 0.0)
    m["bench.unattributed_share"] = (
        analysis["layer_self"].get("unattributed", 0.0) / total
        if total else 0.0)
    return m
