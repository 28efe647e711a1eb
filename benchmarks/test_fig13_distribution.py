"""Figure 13: runtime distribution over random 5-d NBA attribute subsets.

Paper's claim: across data distributions (here, random attribute
subsets), T-Hop's and S-Hop's costs concentrate while S-Band's spread
wide — its candidate set tracks the underlying attribute correlations.

At laptop scale, wall-clock noise swamps the few-millisecond differences
the paper measures at 1M rows, so the hard assertions here target the
*deterministic* work drivers — S-Band's per-subset candidate set varies
strongly across subsets while every algorithm's top-k query count stays
in a tight band — and the wall-time distribution plus its correlation
with |C| are reported informationally (on a quiet machine they show the
paper's pattern; see EXPERIMENTS.md).
"""

from statistics import stdev

import numpy as np

from repro.experiments.figures import figure13_runtime_distribution


def test_fig13_runtime_distribution(benchmark, save_report):
    fig = benchmark.pedantic(
        figure13_runtime_distribution,
        kwargs={"n": 16_000, "n_subsets": 12, "n_preferences": 3, "tau_fraction": 0.015},
        rounds=1,
        iterations=1,
    )
    times = fig.data["times"]
    counts = fig.data["topk_counts"]
    csizes = np.asarray(fig.data["candidate_sizes"], dtype=float)
    corr = {
        a: float(np.corrcoef(np.asarray(ts), csizes)[0, 1]) for a, ts in times.items()
    }
    cv = {a: stdev(ts) / (sum(ts) / len(ts)) for a, ts in times.items()}
    report = (
        fig.report
        + "\ncorrelation(runtime, |C|): "
        + ", ".join(f"{a}={c:+.2f}" for a, c in corr.items())
        + "\nruntime cv: "
        + ", ".join(f"{a}={c:.2f}" for a, c in cv.items())
    )
    save_report("fig13_nba5", report)

    # S-Band's work driver |C| genuinely varies across subsets...
    assert csizes.max() > 1.5 * csizes.min(), csizes
    # ...while the distribution-insensitive hop algorithms issue a stable
    # number of top-k queries on every subset (the paper's robustness).
    for algo in ("t-hop", "s-hop"):
        per_subset = np.asarray(counts[algo], dtype=float)
        assert per_subset.max() <= 1.6 * per_subset.min(), (algo, per_subset)
    # S-Band's relative work spread exceeds the hop algorithms' query
    # spread: its cost profile is the one tied to the data distribution.
    band_spread = csizes.max() / csizes.min()
    hop_spread = max(counts["t-hop"]) / min(counts["t-hop"])
    assert band_spread > hop_spread, (band_spread, hop_spread)
