"""One function per figure of Section VI.

Each function runs the corresponding experiment at a configurable
(laptop-sized) scale, returns the raw sweep data, and renders the same
series the paper plots — query time means/stds in panel (a), top-k query
counts and candidate-set sizes in panel (b). The benchmark files under
``benchmarks/`` are thin wrappers that also assert the qualitative shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import mean, stdev

import numpy as np

from repro.core.record import Dataset
from repro.data import (
    generate_nba,
    generate_network,
    nba_variant,
    network_variant,
    synthetic_dataset,
)
from repro.experiments.harness import run_algorithm_suite, run_sweep
from repro.experiments.report import format_series, format_table

__all__ = [
    "FigureResult",
    "figure8_vary_tau",
    "figure9_vary_k",
    "figure10_vary_interval",
    "figure11_vary_dimension",
    "figure12_scalability",
    "figure13_runtime_distribution",
    "nba2_dataset",
    "network2_dataset",
]

#: Sweep values, as fractions/absolutes mirroring Table III (downsampled).
TAU_FRACTIONS = [0.01, 0.05, 0.10, 0.25, 0.50]
K_VALUES = [5, 10, 25, 50]
INTERVAL_FRACTIONS = [0.10, 0.30, 0.50, 0.80]
DIMENSIONS = [2, 3, 5, 10, 20, 37]


@dataclass
class FigureResult:
    """A rendered experiment: report text plus raw per-point data."""

    name: str
    report: str
    data: dict = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.report


def nba2_dataset(n: int = 20_000, seed: int = 7) -> Dataset:
    """The NBA-2 workload (points, assists)."""
    return nba_variant(generate_nba(n, seed=seed), 2)


def network2_dataset(n: int = 20_000, seed: int = 11) -> Dataset:
    """The Network-2 workload (first two attributes)."""
    return network_variant(generate_network(n, seed=seed), 2)


def _sweep_report(sweep, title: str) -> str:
    parts = [
        format_series(
            sweep.parameter,
            sweep.parameter_values(),
            sweep.series("mean_ms"),
            title=f"{title} — (a) query time [ms]",
        ),
        format_series(
            sweep.parameter,
            sweep.parameter_values(),
            sweep.series("mean_topk_queries"),
            value_format="{:.0f}",
            title=f"{title} — (b) # top-k queries",
        ),
        format_series(
            sweep.parameter,
            sweep.parameter_values(),
            {
                "s-band |C|": sweep.series("mean_candidate_set")["s-band"],
                "answer |S|": sweep.series("mean_answer_size")["t-hop"],
            }
            if "s-band" in sweep.series("mean_candidate_set")
            else {"answer |S|": sweep.series("mean_answer_size")["t-hop"]},
            value_format="{:.0f}",
            title=f"{title} — candidate-set vs answer size",
        ),
    ]
    return "\n\n".join(parts)


def figure8_vary_tau(dataset: Dataset, n_preferences: int = 3, seed: int = 0) -> FigureResult:
    """Figure 8: all five algorithms as the durability tau varies."""
    sweep = run_sweep(
        dataset, "tau_fraction", TAU_FRACTIONS, n_preferences=n_preferences, seed=seed
    )
    return FigureResult(
        name=f"fig8-{dataset.name}",
        report=_sweep_report(sweep, f"Figure 8 ({dataset.name}): vary tau"),
        data={"sweep": sweep},
    )


def figure9_vary_k(dataset: Dataset, n_preferences: int = 3, seed: int = 0) -> FigureResult:
    """Figure 9: all five algorithms as k varies."""
    sweep = run_sweep(dataset, "k", K_VALUES, n_preferences=n_preferences, seed=seed)
    return FigureResult(
        name=f"fig9-{dataset.name}",
        report=_sweep_report(sweep, f"Figure 9 ({dataset.name}): vary k"),
        data={"sweep": sweep},
    )


def figure10_vary_interval(
    dataset: Dataset, n_preferences: int = 3, seed: int = 0
) -> FigureResult:
    """Figure 10: all five algorithms as the query interval length varies."""
    sweep = run_sweep(
        dataset,
        "interval_fraction",
        INTERVAL_FRACTIONS,
        n_preferences=n_preferences,
        seed=seed,
    )
    return FigureResult(
        name=f"fig10-{dataset.name}",
        report=_sweep_report(sweep, f"Figure 10 ({dataset.name}): vary |I|"),
        data={"sweep": sweep},
    )


def figure11_vary_dimension(
    n: int = 12_000,
    dimensions: list[int] | None = None,
    n_preferences: int = 3,
    seed: int = 0,
) -> FigureResult:
    """Figure 11: T-Base/T-Hop/S-Band/S-Hop across Network-X dimensions.

    S-Base is omitted, as in the paper ("clearly inferior").
    """
    dimensions = dimensions or DIMENSIONS
    full = generate_network(n, seed=11)
    algorithms = ["t-base", "t-hop", "s-band", "s-hop"]
    rows = {}
    for d in dimensions:
        data = network_variant(full, d)
        rows[d] = run_algorithm_suite(
            data, algorithms=algorithms, n_preferences=n_preferences, seed=seed
        )
    series_ms = {a: [rows[d][a].mean_ms for d in dimensions] for a in algorithms}
    series_q = {a: [rows[d][a].mean_topk_queries for d in dimensions] for a in algorithms}
    series_c = {
        "s-band |C|": [rows[d]["s-band"].mean_candidate_set for d in dimensions],
        "answer |S|": [rows[d]["t-hop"].mean_answer_size for d in dimensions],
    }
    report = "\n\n".join(
        [
            format_series("d", dimensions, series_ms, title="Figure 11 — (1) query time [ms] vs d"),
            format_series(
                "d", dimensions, series_q, value_format="{:.0f}",
                title="Figure 11 — (2) # top-k queries vs d",
            ),
            format_series(
                "d", dimensions, series_c, value_format="{:.0f}",
                title="Figure 11 — candidate-set size |C| vs d",
            ),
        ]
    )
    return FigureResult(
        name="fig11-network",
        report=report,
        data={"rows": rows},
    )


def figure12_scalability(
    kind: str,
    sizes: list[int] | None = None,
    n_preferences: int = 3,
    seed: int = 0,
    with_band: bool = True,
) -> FigureResult:
    """Figure 12: scalability over Syn-X (IND or ANTI) sizes.

    The query interval scales with the data (fixed 50% fraction), as in
    the paper.
    """
    sizes = sizes or [10_000, 20_000, 40_000]
    algorithms = ["s-base", "t-hop", "s-hop"] + (["s-band"] if with_band else [])
    rows = {}
    for n in sizes:
        data = synthetic_dataset(kind, n, 2, seed=1)
        rows[n] = run_algorithm_suite(
            data, algorithms=algorithms, n_preferences=n_preferences, seed=seed
        )
    series_ms = {a: [rows[n][a].mean_ms for n in sizes] for a in algorithms}
    series_q = {a: [rows[n][a].mean_topk_queries for n in sizes] for a in algorithms}
    parts = [
        format_series("n", sizes, series_ms, title=f"Figure 12 ({kind.upper()}) — (a) query time [ms]"),
        format_series(
            "n", sizes, series_q, value_format="{:.0f}",
            title=f"Figure 12 ({kind.upper()}) — (b) # top-k queries",
        ),
    ]
    if with_band:
        series_c = {
            "s-band |C|": [rows[n]["s-band"].mean_candidate_set for n in sizes],
            "answer |S|": [rows[n]["t-hop"].mean_answer_size for n in sizes],
        }
        parts.append(
            format_series(
                "n", sizes, series_c, value_format="{:.0f}",
                title=f"Figure 12 ({kind.upper()}) — |C| vs |S|",
            )
        )
    return FigureResult(
        name=f"fig12-{kind}",
        report="\n\n".join(parts),
        data={"rows": rows},
    )


def figure13_runtime_distribution(
    n: int = 16_000,
    n_subsets: int = 12,
    n_preferences: int = 2,
    tau_fraction: float = 0.03,
    seed: int = 0,
) -> FigureResult:
    """Figure 13: runtime distribution over random 5-d NBA attribute subsets.

    T-Hop and S-Hop should cluster tightly; S-Band's runtimes spread wide
    because its candidate set tracks the data distribution. ``tau_fraction``
    defaults below the Table III default so that candidate sets are large
    enough for their spread to dominate S-Band's cost at laptop scale.
    """
    full = generate_nba(n, seed=7)
    rng = np.random.default_rng(seed)
    algorithms = ["t-hop", "s-band", "s-hop"]
    tau = max(1, int(n * tau_fraction))
    times: dict[str, list[float]] = {a: [] for a in algorithms}
    topk_counts: dict[str, list[float]] = {a: [] for a in algorithms}
    candidate_sizes: list[float] = []
    for _ in range(n_subsets):
        dims = sorted(rng.choice(15, size=5, replace=False).tolist())
        data = full.select_attributes(dims, name=f"nba5-{dims}")
        rows = run_algorithm_suite(
            data, algorithms=algorithms, tau=tau, n_preferences=n_preferences, seed=seed
        )
        for a in algorithms:
            times[a].append(rows[a].mean_ms)
            topk_counts[a].append(rows[a].mean_topk_queries)
        candidate_sizes.append(rows["s-band"].mean_candidate_set)
    summary = [
        {
            "algorithm": a,
            "mean_ms": round(mean(ts), 2),
            "std_ms": round(stdev(ts) if len(ts) > 1 else 0.0, 2),
            "min_ms": round(min(ts), 2),
            "max_ms": round(max(ts), 2),
            "spread": round(max(ts) / max(min(ts), 1e-9), 2),
        }
        for a, ts in times.items()
    ]
    report = format_table(
        summary,
        ["algorithm", "mean_ms", "std_ms", "min_ms", "max_ms", "spread"],
        title=f"Figure 13 — runtime distribution over {n_subsets} random 5-d NBA subsets",
    )
    report += (
        f"\ns-band |C| across subsets: min={min(candidate_sizes):.0f} "
        f"max={max(candidate_sizes):.0f} "
        f"(x{max(candidate_sizes) / max(min(candidate_sizes), 1):.1f})"
    )
    return FigureResult(
        name="fig13-nba5",
        report=report,
        data={
            "times": times,
            "topk_counts": topk_counts,
            "candidate_sizes": candidate_sizes,
        },
    )
