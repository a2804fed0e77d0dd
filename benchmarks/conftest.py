"""Shared infrastructure for the paper-reproduction benchmark harness.

Every benchmark module regenerates one table or figure of the paper's
evaluation (see DESIGN.md section 4 for the index).  Each test

* runs the experiment over the simulated RMA substrate, collecting
  *simulated-time* metrics (the quantities the paper's figures plot),
* prints the resulting table and appends it to
  ``benchmarks/results/<name>.txt`` so the output survives pytest's
  capture, and
* wraps one representative wall-clock measurement in pytest-benchmark so
  ``pytest benchmarks/ --benchmark-only`` also reports real execution
  times of the Python implementation.

Environment knobs:

* ``REPRO_BENCH_RANKS`` — comma-separated rank counts for the scaling
  sweeps (default ``1,2,4,8``).
* ``REPRO_BENCH_OPS`` — OLTP operations per rank (default 120).
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def bench_ranks() -> list[int]:
    raw = os.environ.get("REPRO_BENCH_RANKS", "1,2,4,8")
    return [int(x) for x in raw.split(",") if x.strip()]


def bench_ops() -> int:
    return int(os.environ.get("REPRO_BENCH_OPS", "120"))


@contextlib.contextmanager
def served_reads_under_locks():
    """Serve read-only requests under read locks instead of on a snapshot.

    ``GraphServer`` runs every read-only request on an MVCC snapshot; the
    experiments that contrast lock-mode serving with it (the HTAP storm's
    lock twin, the skew storm's hot-shard lock traffic) wrap their
    serving phases in this instead of configuring the database.
    """
    from repro.serve import server

    run = server.run_transaction

    def locking(*args, **kwargs):
        return run(*args, **{**kwargs, "snapshot": False})

    server.run_transaction = locking
    try:
        yield
    finally:
        server.run_transaction = run


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def _started() -> set[pathlib.Path]:
    """Report files this session has already written to."""
    return set()


@pytest.fixture()
def report(results_dir, _started):
    """Callable writing a named report section to disk and stdout.

    The first section a session writes to a file replaces its content,
    later ones append: a run of one benchmark file leaves the results of
    all the others as they are.
    """

    def _report(name: str, text: str) -> pathlib.Path:
        path = results_dir / f"{name}.txt"
        with path.open("a" if path in _started else "w") as fh:
            fh.write(text.rstrip() + "\n\n")
        _started.add(path)
        print(f"\n===== {name} =====\n{text}")
        return path

    return _report


@pytest.fixture()
def metrics(results_dir):
    """Callable writing a named machine-readable result to disk.

    The payload must be JSON-serializable; it lands in
    ``results/<name>.json`` and is folded into the committed
    ``BENCH_*.json`` files by the ``test_zz_*`` report step, so the perf
    trajectory stays diffable across PRs.
    """

    def _metrics(name: str, payload: dict) -> pathlib.Path:
        path = results_dir / f"{name}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return path

    return _metrics
