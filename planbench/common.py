"""Shared helpers: checkout paths, plan digests, statistics, the result
stamp and the record of exact values kept between runs."""

from __future__ import annotations

import hashlib
import json
import math
import os
import pathlib
import platform
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: everything a run leaves behind lives here (listed in .gitignore)
STATE_DIR = BENCH_DIR / ".state"
REFERENCE = BENCH_DIR / "reference.json"

#: the search configuration of both search workloads
SEARCH_CONFIG = {"max_exact_li": 8, "step1_sim_budget": 100_000}


def require_source() -> None:
    """Put the checkout's ``src`` on the import path, or exit non-zero
    without a result when the tree holds no program to measure."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"planbench: no program source under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env() -> dict[str, str]:
    """The caller's environment with the checkout's ``src`` importable and
    nothing else changed (thread settings stay as users have them)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def plan_digest(classes: dict) -> str:
    """Digest of a classification given as ``{map_id: class name}``."""
    text = ";".join(f"{m}:{c}" for m, c in sorted(
        (int(m), c) for m, c in classes.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def classification_classes(classification) -> dict[str, str]:
    """A classification's classes keyed as in a serialized plan."""
    return {str(m): cls.value for m, cls in classification.classes.items()}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tree_hash(root: pathlib.Path, suffixes=(".py",)) -> str:
    """Digest of the files under ``root`` with one of ``suffixes``:
    identifies "the same code" when the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.suffix in suffixes and ".state" not in path.parts:
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def bench_hash() -> str:
    return tree_hash(BENCH_DIR, (".py", ".json"))


def commit() -> str:
    """The checkout's commit; "unknown" outside a git work tree (git may
    not look above the checkout)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _openblas_version() -> str:
    import numpy

    try:
        config = numpy.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 prints instead of returning
        return "unknown"
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "PYTHON_GIL")


def stamp(config_signature: str, host_probe_ms: float,
          affinity: list[int]) -> dict:
    """What a result was measured on: code, host and configuration
    (``affinity``: the CPUs the run was given, before any pinning)."""
    import numpy

    return {
        "commit": commit(),
        "source_hash": tree_hash(SRC),
        "bench_hash": bench_hash(),
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas": _openblas_version(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "config_signature": config_signature,
        "host_probe_ms": host_probe_ms,
    }


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def check_determinism(key: str, values: dict) -> list[str]:
    """Compare this run's exact values with those earlier runs of the same
    trees recorded under ``key`` (a traced and an untraced run share the
    names they both report); returns the names that differ, then adds this
    run's names to the record."""
    path = STATE_DIR / "determinism" / f"{key}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    record = json.loads(path.read_text()) if path.exists() else {}
    diffs = sorted(name for name in values
                   if name in record and record[name] != values[name])
    record.update({k: v for k, v in values.items() if k not in record})
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return diffs
