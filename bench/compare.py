"""Compare two result sets: ``python3 bench/compare.py A.json B.json``.

``A`` is the base (the parent commit), ``B`` the candidate; both are
``bench/results/latest.json`` files written by ``bench/run.py``, ideally
with ``--repeat`` so that each carries its own run-to-run spread.

One row per (workload, end-to-end metric): both medians, the ratio B/A,
how much worse B is in the metric's own direction, and a verdict against
the bound fixed in ``BENCHMARK.json``:

``ok``          no worse than A by more than the bound
``REGRESSION``  worse than A by more than the bound
``unresolved``  a set's own spread (quartile distance over median) is
                wider than the bound, so the bound cannot be judged

Traced counts (``*.calls_per_op``) are listed when they differ: equal
counts are how two runs show they did the same work.  Exits 1 on any
regression or when B failed a larger share of its operations.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spread(values: list[float]) -> float | None:
    """Quartile distance as a share of the median; None for one run."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def verdict(metric: dict, a: dict, b: dict) -> tuple[float, float, str]:
    """``(ratio B/A, worse-by share of A, verdict)`` for one metric."""
    base, cand = a["median"], b["median"]
    ratio = cand / base
    worse = ratio - 1.0 if metric["better"] == "lower" else 1.0 - ratio
    noise = max(spread(a["values"]) or 0.0, spread(b["values"]) or 0.0)
    if noise > metric["bound"]:
        return ratio, worse, "unresolved"
    return ratio, worse, "REGRESSION" if worse > metric["bound"] else "ok"


def compare(spec: dict, a: dict, b: dict, out=sys.stdout) -> int:
    failed = False
    print(f"{'workload':12s} {'metric':16s} {'A (base)':>14s} {'B':>14s} "
          f"{'B/A':>8s} {'worse by':>9s} {'bound':>6s}  verdict", file=out)
    for name in (w["name"] for w in spec["workloads"]):
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            print(f"{name:12s} missing from {'A' if wa is None else 'B'}", file=out)
            failed = True
            continue
        for metric in spec["end_to_end"]:
            ma, mb = wa["metrics"][metric["name"]], wb["metrics"][metric["name"]]
            ratio, worse, word = verdict(metric, ma, mb)
            failed = failed or word == "REGRESSION"
            print(f"{name:12s} {metric['name']:16s} {ma['median']:14.6g} {mb['median']:14.6g} "
                  f"{ratio:8.4f} {worse:+9.2%} {metric['bound']:6.0%}  {word}", file=out)
        fa, fb = wa["failed_frac"], wb["failed_frac"]
        word = "REGRESSION" if fb > fa else "ok"
        failed = failed or fb > fa
        print(f"{name:12s} {'failed_frac':16s} {fa:14.6g} {fb:14.6g} {'':8s} {'':9s} {'':6s}  {word}",
              file=out)
        for metric in spec["per_layer"]:
            key = metric["name"]
            if not key.endswith(".calls_per_op"):
                continue
            ca, cb = wa["metrics"].get(key), wb["metrics"].get(key)
            if ca and cb and ca["median"] != cb["median"]:
                print(f"{name:12s} {key:34s} {ca['median']:.6g} -> {cb['median']:.6g}  count differs",
                      file=out)
    return 1 if failed else 0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sets = []
    for path in argv:
        with open(path) as fh:
            sets.append(json.load(fh))
    return compare(spec, *sets)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
