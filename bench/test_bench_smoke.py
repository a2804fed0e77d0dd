"""Smoke test of the benchmark itself: ``python3 -m pytest bench/``.

Outside tier-1's ``testpaths`` on purpose (two ``--quick`` suites take
about two minutes).  It checks the plumbing, not the numbers: every
workload and end-to-end metric of ``BENCHMARK.json`` is reported, the
outputs are correct, and two runs on one seed did the same work: equal
failed share, identical traced counts above the RMA layer, and RMA counts
and simulated metrics equal to within the little that the two racing
build threads leave open (the order of DHT chains, hence a few reads).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def quick_suite() -> tuple[str, dict]:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick", "--seed", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900,
    )
    assert done.returncode == 0, done.stdout
    with open(os.path.join(HERE, "results", "latest.json")) as fh:
        return done.stdout, json.load(fh)


@pytest.fixture(scope="module")
def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def suites() -> list[tuple[str, dict]]:
    return [quick_suite(), quick_suite()]


def test_every_workload_and_metric_is_reported(spec, suites):
    stdout, report = suites[0]
    lines = {tuple(line.split()[:2]) for line in stdout.splitlines()}
    for workload in spec["workloads"]:
        entry = report["workloads"][workload["name"]]
        assert entry["correct"] and entry["failed"] == 0
        for metric in spec["end_to_end"] + spec["per_layer"]:
            assert (workload["name"], metric["name"]) in lines
            assert metric["name"] in entry["metrics"]
        for metric in spec["end_to_end"]:
            assert entry["metrics"][metric["name"]]["median"] > 0


def test_two_runs_on_one_seed_do_the_same_work(spec, suites):
    (_, first), (_, second) = suites
    for workload in spec["workloads"]:
        a, b = (r["workloads"][workload["name"]] for r in (first, second))
        assert a["failed_frac"] == b["failed_frac"]
        for name, cell in a["metrics"].items():
            other = b["metrics"][name]["median"]
            if name == "rma.calls_per_op":
                assert cell["median"] == pytest.approx(other, rel=1e-2), name
            elif name.endswith(".calls_per_op"):
                assert cell["median"] == other, name
            elif name.startswith("sim_"):
                assert cell["median"] == pytest.approx(other, rel=2e-2), name


def test_a_missing_probe_point_is_counted_not_fatal():
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    try:
        from bench import probes

        tracer = probes.Tracer()
        probes.POINTS.append(("repro.gda.dht", "DistributedHashTable", "renamed_away", "gda.dht"))
        try:
            probes.install(tracer)
            assert tracer.missing == ["repro.gda.dht.DistributedHashTable.renamed_away"]
            assert tracer.installed
        finally:
            probes.POINTS.pop()
            probes.uninstall(tracer)
        assert not tracer.installed
    finally:
        del sys.path[:2]
