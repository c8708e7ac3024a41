"""``python -m repro serve`` with the benchmark's host probe (and, with
``--trace``, its layer tracer) in the server process.

    python3 planbench/serve_host.py OUT.json [--trace] -- SERVE-ARGS...

The server runs ``repro.cli.main(["serve", *SERVE-ARGS])``, the code
``python -m repro serve`` runs.  When it returns (after ``POST
/v1/shutdown``) the probe samples — and the per-layer metrics, job timings
and spans of a traced run — are written to ``OUT.json``.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

import numpy  # noqa: F401 - starts numpy's thread pool before the pin

import hostprobe


def job_times(manager) -> list[dict]:
    """Created/started/finished stamps of every job the server kept."""
    with manager._cv:
        jobs = list(manager._jobs.values())
    return [{"id": j.id, "created": j.created_s, "started": j.started_s,
             "finished": (j.created_s + j.wall_s
                          if j.wall_s is not None else None)}
            for j in jobs]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    out = pathlib.Path(argv.pop(0))
    trace = argv[0] == "--trace"
    serve_args = argv[argv.index("--") + 1:]
    hostprobe.pin_to_one_cpu()
    probe = hostprobe.HostProbe().start()
    from common import require_source

    require_source()
    from repro.cli import main as repro_main

    doc: dict = {}
    if not trace:
        rc = repro_main(["serve", *serve_args])
    else:
        import repro.serve.jobs as jobs
        from tracing import Tracer, layer_metrics

        managers = []
        tracer = Tracer()
        tracer.patch(jobs.JobManager, "__init__", "serve.manager_init",
                     after=lambda a, k, r: managers.append(a[0]))
        with tracer.install(serve=True):
            rc = repro_main(["serve", *serve_args])
        tracer.uninstall()
        spans = [s for s in tracer.spans if s.name != "serve.manager_init"]
        tracer.spans = spans
        doc["layers"] = layer_metrics(tracer, tracer.analyse())
        doc["jobs"] = job_times(managers[0])
        doc["spans"] = [[s.name, s.start, s.end, s.request] for s in spans
                        if s.parent is None]
    doc["probe"] = probe.stop()
    doc["stopped"] = time.time()
    out.write_text(json.dumps(doc))
    return rc


if __name__ == "__main__":
    sys.exit(main())
