"""Two-clock end-to-end benchmark of the GDI reproduction.

Two ways in:

``python3 bench/run.py [--seed N] [--workload NAME] [--no-trace] [--quick] [--repeat R]``
    the whole benchmark: every workload untraced for the end-to-end
    metrics, then traced for the per-layer metrics, each in a process of
    its own; prints ``workload metric value unit`` lines and writes
    ``bench/results/latest.json``.

``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
    one run of one workload (what the first form spawns, and what a
    regression driver calls); the last line of standard output is one
    JSON object ``{"correct", "attempted", "failed", "metrics"}``.

Simulated-clock metrics come from the LogGP cost model (``ctx.clock``),
wall-clock metrics from ``perf_counter`` around our Python; README.md
says what each one means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------- one run ----
def end_to_end_metrics(workload, samples, build_times: list[float]) -> dict:
    from bench import config, harness

    window = workload.window_ops
    sim = samples.sim[:window]
    return {
        "setup_s": statistics.median(build_times),
        "wall_ops_per_s": len(samples.wall) / samples.elapsed,
        "wall_mid_us": harness.midmean(samples.wall) * 1e6,
        "sim_mid_us": harness.midmean(sim) * 1e6,
        "sim_tail_us": harness.tail_value(sim, config.WORKLOADS[workload.name]["tail"]) * 1e6,
        "sim_ops_per_s": len(sim) / sum(samples.busy[:window]),
        "peak_rss_mb": harness.peak_rss_mb(),
    }


def per_layer_metrics(workload, plain, traced, tracer, build_totals, calib_us) -> dict:
    """Per-layer numbers of the traced pass; per-op-type latencies and
    the tracing overhead from the untraced pass over the same ops."""
    from bench import config, harness, probes

    n = len(traced.wall)
    totals = tracer.totals()
    out: dict[str, float] = {}
    for layer in config.LAYERS:
        # the generator layer works during set-up: its op is one build
        calls, wall, sim = build_totals[layer] if layer == "generator" else totals[layer]
        per = 1 if layer == "generator" else n
        out[f"{layer}.calls_per_op"] = calls / per
        out[f"{layer}.wall_self_us_per_op"] = wall / per * 1e6
        out[f"{layer}.sim_self_us_per_op"] = sim / per * 1e6
    c = traced.counters
    one_sided = c["remote_ops"] + c["local_ops"]
    lookups = c["plan_cache_hits"] + c["plan_cache_misses"]
    out["rma.bytes_per_op"] = (c["bytes_put"] + c["bytes_got"]) / n
    out["rma.remote_frac"] = c["remote_ops"] / one_sided if one_sided else 0.0
    out["gda.tx.aborts_per_op"] = c["tx_aborted"] / n
    out["gda.tx.restarts_per_op"] = c["tx_restarts"] / n
    out["query.plan.cache_hit_frac"] = c["plan_cache_hits"] / lookups if lookups else 0.0
    out["mvcc.versions_live"] = workload.db.mvcc.versions.total_entries()
    for name in ("queue_wait_sim_p50_us", "queue_peak", "deadline_frac", "shed_frac"):
        out[f"serve.{name}"] = traced.extra.get(f"serve.{name}", 0.0)
    by_kind: dict[str, tuple[list, list]] = dict(plain.parts)
    for kind, w, s in zip(plain.kinds, plain.wall, plain.sim):
        ws, ss = by_kind.setdefault(kind, ([], []))
        ws.append(w)
        ss.append(s)
    for kind in config.OP_TYPES:
        ws, ss = by_kind.get(kind, ((), ()))
        out[f"op.{kind}.wall_mid_us"] = harness.midmean(ws) * 1e6 if ws else 0.0
        out[f"op.{kind}.sim_mid_us"] = harness.midmean(ss) * 1e6 if ss else 0.0
    busy = sum(totals[layer][1] for layer in config.LAYERS)
    driver = totals[probes.DRIVER][1]
    out["driver.wall_p99_us"] = harness.percentile(sorted(plain.wall), 99) * 1e6
    out["driver.calib_us"] = calib_us
    out["driver.idle_wall_us_per_op"] = totals[probes.IDLE][1] / n * 1e6
    out["trace.overhead_frac"] = traced.elapsed / plain.elapsed - 1.0
    out["trace.unattributed_frac"] = driver / (busy + driver)
    out["trace.points_missing"] = len(tracer.missing)
    return out


def fingerprint_problems(built) -> list[str]:
    from bench import config, harness

    found = harness.fingerprint(built)
    if found == config.FINGERPRINT:
        return []
    return [f"graph fingerprint {found}, frozen {config.FINGERPRINT}"]


def run_once(name: str, seed: int, seconds: float, trace: bool, quick: bool, out_dir: str | None) -> dict:
    """One workload, one process: set up, measure, check, report."""
    from bench import config, harness, workloads

    spec = load_spec()
    calib = harness.calibrate()
    problems: list[str] = []
    cls = workloads.ALL[name]
    if not trace:
        built, build_times = harness.timed_setup(1 if quick else config.SETUP_BUILDS)
        problems.extend(fingerprint_problems(built))
        workload = cls(built, seed, quick=quick)
        plain = workload.run(seconds)
        computed = end_to_end_metrics(workload, plain, build_times)
        passes = [plain]
        wanted = spec["end_to_end"]
    else:
        from bench import probes

        harness.build(config.WARMUP_GRAPH)
        plain = cls(harness.build(config.GRAPH), seed, quick=quick).run(None)
        tracer = probes.Tracer()
        probes.install(tracer)
        try:
            built = harness.build(config.GRAPH, tracer)
            build_totals = tracer.totals()
            tracer.clear()
            problems.extend(fingerprint_problems(built))
            workload = cls(built, seed, tracer=tracer, quick=quick)
            traced = workload.run(None)
        finally:
            probes.uninstall(tracer)
        calib = min(calib, harness.calibrate())
        computed = per_layer_metrics(workload, plain, traced, tracer, build_totals, calib)
        passes = [plain, traced]
        wanted = spec["per_layer"]
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            with open(os.path.join(out_dir, f"trace_{name}.jsonl"), "w") as fh:
                for span in tracer.spans():
                    fh.write(json.dumps(dict(zip(probes.SPAN_FIELDS, span))) + "\n")
    problems.extend(workload.check())
    for p in problems[:20]:
        print(f"# {name}: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(len(p.wall) for p in passes),
        "failed": sum(p.failed for p in passes) + len(problems),
        "metrics": {
            m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }


# -------------------------------------------------------------- the suite ----
def suite(args, spec: dict) -> int:
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None:
        names = [args.workload]
    os.makedirs(RESULTS, exist_ok=True)
    from bench import harness

    report = {
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "repeat": args.repeat,
        "environment": harness.environment(),
        "workloads": {},
    }
    bad = False
    for name in names:
        entry = {"attempted": 0, "failed": 0, "correct": True, "metrics": {}}
        for trace in (0,) if args.no_trace else (0, 1):
            for _ in range(args.repeat):
                cmd = [
                    sys.executable, os.path.abspath(__file__), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace), "--out", RESULTS,
                ] + (["--quick"] if args.quick else [])
                done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
                if done.returncode != 0:
                    print(f"{name} trace={trace}: exit code {done.returncode}", file=sys.stderr)
                    return 2
                result = json.loads(done.stdout.strip().splitlines()[-1])
                entry["attempted"] += result["attempted"]
                entry["failed"] += result["failed"]
                entry["correct"] = entry["correct"] and result["correct"]
                for metric, cell in result["metrics"].items():
                    slot = entry["metrics"].setdefault(metric, {"unit": cell["unit"], "values": []})
                    slot["values"].append(cell["value"])
        for metric, slot in entry["metrics"].items():
            slot["median"] = statistics.median(slot["values"])
            print(f"{name} {metric} {slot['median']:.6g} {slot['unit']}")
        entry["failed_frac"] = entry["failed"] / entry["attempted"]
        print(f"{name} failed_frac {entry['failed_frac']:.6g} ratio")
        bad = bad or not entry["correct"] or entry["failed"] > 0
        report["workloads"][name] = entry
    with open(os.path.join(RESULTS, "latest.json"), "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="one workload (default: all of BENCHMARK.json)")
    ap.add_argument("--seed", type=int, default=1, help="seed of the op streams")
    ap.add_argument("--seconds", type=float, help="measured time per run (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="single run: 0 = end-to-end metrics, 1 = per-layer metrics")
    ap.add_argument("--quick", action="store_true",
                    help="1/20 of the op counts, no oracle recomputation")
    ap.add_argument("--no-trace", action="store_true", help="suite: skip the traced runs")
    ap.add_argument("--repeat", type=int, default=1, help="suite: runs per workload and mode")
    ap.add_argument("--out", help="single run: directory for trace_<workload>.jsonl")
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("bench/run.py: no src/repro next to bench/: nothing to measure", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    spec = load_spec()
    if args.workload not in {None} | {w["name"] for w in spec["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.trace is None:
        return suite(args, spec)
    seconds = min(args.seconds, 0.5) if args.quick else args.seconds
    result = run_once(args.workload, args.seed, seconds, bool(args.trace), args.quick, args.out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
