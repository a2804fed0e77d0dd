"""Consolidated evaluation report builder.

Assembles the per-experiment text reports written by the benchmark
harness (``benchmarks/results/*.txt``) into one ``REPORT.md`` ordered by
the paper's evaluation structure, so a single file shows the whole
regenerated evaluation.
"""

from __future__ import annotations

import json
import pathlib

__all__ = [
    "SECTION_ORDER",
    "BENCH_JSON_GROUPS",
    "build_report",
    "write_report",
    "write_bench_json",
]

#: (results file stem, section heading) in the paper's presentation order.
SECTION_ORDER: list[tuple[str, str]] = [
    ("table3_mixes", "Table 3 — OLTP workload mixes"),
    ("fig4_oltp_weak_scaling", "Figure 4 — OLTP weak scaling"),
    ("fig4_oltp_strong_scaling", "Figure 4 — OLTP strong scaling"),
    ("fig5_latency_histograms", "Figure 5 — operation latency histograms"),
    ("fig6_olap_weak_scaling", "Figure 6 — OLAP/OLSP weak scaling"),
    ("fig6_olap_strong_scaling", "Figure 6 — OLAP/OLSP strong scaling"),
    ("sec66_sweeps", "Section 6.6 — labels, properties, edge factors"),
    ("sec67_realworld", "Section 6.7 — real-world graphs"),
    ("sec68_extreme_scale", "Section 6.8 — extreme scales"),
    ("interactive_complex", "Extension — interactive complex queries"),
    ("query_engine", "Extension — declarative query engine, local and collective"),
    ("serve_overload", "Extension — serving under overload"),
    ("traffic_storm", "Extension — adversarial skew storm & live rebalance"),
    ("htap_storm", "Extension — HTAP: snapshot OLAP under OLTP storm"),
    ("micro_batch_coalescing", "Microbenchmark — RMA doorbell coalescing"),
    ("micro_codec", "Microbenchmark — holder codec: struct vs numpy view"),
    ("micro_bulk_scan", "Microbenchmark — bulk scan: columnar vs per-holder decode"),
    ("ablation_blocksize", "Ablation — BGDL block size"),
    ("ablation_features", "Ablations — batching & rebalancing"),
    ("costmodel_validation", "Appendix — cost-model validation"),
]


def build_report(results_dir: pathlib.Path | str) -> str:
    """Concatenate the experiment reports into one markdown document."""
    results_dir = pathlib.Path(results_dir)
    parts = [
        "# Regenerated evaluation — The Graph Database Interface (SC 2023)",
        "",
        "All tables below were produced by `pytest benchmarks/"
        " --benchmark-only` on the simulated RMA substrate; see"
        " EXPERIMENTS.md for the paper-vs-measured discussion and DESIGN.md"
        " for the substitution rules.",
        "",
    ]
    seen = set()
    for stem, heading in SECTION_ORDER:
        path = results_dir / f"{stem}.txt"
        if not path.exists():
            continue
        seen.add(path.name)
        parts.append(f"## {heading}")
        parts.append("")
        parts.append("```")
        parts.append(path.read_text().rstrip())
        parts.append("```")
        parts.append("")
    # anything not in the canonical order still gets included
    for path in sorted(results_dir.glob("*.txt")):
        if path.name in seen:
            continue
        parts.append(f"## {path.stem}")
        parts.append("")
        parts.append("```")
        parts.append(path.read_text().rstrip())
        parts.append("```")
        parts.append("")
    return "\n".join(parts)


def write_report(
    results_dir: pathlib.Path | str, out_path: pathlib.Path | str
) -> pathlib.Path:
    out_path = pathlib.Path(out_path)
    out_path.write_text(build_report(results_dir))
    return out_path


#: Committed tracking file -> the per-experiment JSON stems folded into it.
BENCH_JSON_GROUPS: dict[str, tuple[str, ...]] = {
    "BENCH_fig6.json": (
        "fig6_olap_weak_scaling",
        "fig6_olap_strong_scaling",
    ),
    "BENCH_query.json": (
        "query_engine",
        "micro_codec",
        "micro_bulk_scan",
    ),
    "BENCH_serve.json": (
        "serve_overload",
        "serve_overload_crash",
    ),
    "BENCH_traffic.json": (
        "traffic_storm",
        "traffic_storm_crash",
    ),
    "BENCH_htap.json": ("htap_storm",),
}


def write_bench_json(
    results_dir: pathlib.Path | str, out_dir: pathlib.Path | str
) -> list[pathlib.Path]:
    """Fold per-experiment metrics JSON into the committed BENCH_* files.

    Each group file maps experiment stem -> that experiment's metrics
    payload.  Stems whose ``results/<stem>.json`` is absent (experiment
    not run this session) are skipped, and a group with no present stems
    writes nothing — a partial benchmark run never clobbers tracked
    history with an empty file.
    """
    results_dir = pathlib.Path(results_dir)
    out_dir = pathlib.Path(out_dir)
    written: list[pathlib.Path] = []
    for out_name, stems in BENCH_JSON_GROUPS.items():
        merged = {}
        for stem in stems:
            path = results_dir / f"{stem}.json"
            if path.exists():
                merged[stem] = json.loads(path.read_text())
        if not merged:
            continue
        out_path = out_dir / out_name
        out_path.write_text(
            json.dumps(merged, indent=2, sort_keys=True) + "\n"
        )
        written.append(out_path)
    return written
