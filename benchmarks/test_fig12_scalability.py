"""Figure 12: scalability on synthetic IND and ANTI data.

Paper's claims reproduced here:
* T-Hop and S-Hop scale gracefully: their top-k query counts stay flat
  as n grows (the interval is a fixed fraction, tau a fixed fraction, so
  k|I|/tau is constant);
* on IND data, |C| stays within a small factor of |S|;
* on ANTI data, |C| blows up relative to |S| (most records sit in the
  k-skyband), hurting S-Band — while T-Hop/S-Hop are insensitive to the
  distribution.
"""


from repro.experiments.figures import figure12_scalability

IND_SIZES = [10_000, 20_000, 40_000]
ANTI_SIZES = [8_000, 16_000, 32_000]


def test_fig12_ind(benchmark, save_report):
    fig = benchmark.pedantic(
        figure12_scalability,
        args=("ind",),
        kwargs={"sizes": IND_SIZES, "n_preferences": 3},
        rounds=1,
        iterations=1,
    )
    save_report("fig12_ind", fig.report)
    rows = fig.data["rows"]
    for algo in ("t-hop", "s-hop"):
        counts = [rows[n][algo].mean_topk_queries for n in IND_SIZES]
        assert max(counts) <= 2.5 * max(min(counts), 1), (algo, counts)
    # IND: candidate set within a small factor of the answer size.
    for n in IND_SIZES:
        ratio = rows[n]["s-band"].mean_candidate_set / max(rows[n]["s-band"].mean_answer_size, 1)
        assert ratio < 20, (n, ratio)


def test_fig12_anti(benchmark, save_report):
    fig = benchmark.pedantic(
        figure12_scalability,
        args=("anti",),
        kwargs={"sizes": ANTI_SIZES, "n_preferences": 3},
        rounds=1,
        iterations=1,
    )
    save_report("fig12_anti", fig.report)
    rows = fig.data["rows"]
    # Hop algorithms stay flat in #queries on ANTI too.
    for algo in ("t-hop", "s-hop"):
        counts = [rows[n][algo].mean_topk_queries for n in ANTI_SIZES]
        assert max(counts) <= 2.5 * max(min(counts), 1), (algo, counts)
    # ANTI inflates |C| far beyond |S| (the distribution S-Band fears).
    biggest = ANTI_SIZES[-1]
    ratio = rows[biggest]["s-band"].mean_candidate_set / max(
        rows[biggest]["s-band"].mean_answer_size, 1
    )
    assert ratio > 20, ratio


def test_fig12_anti_vs_ind_candidate_blowup(benchmark, save_report):
    """Direct IND-vs-ANTI comparison at one size (the Figure 12 story)."""

    def _run():
        ind = figure12_scalability("ind", sizes=[16_000], n_preferences=2)
        anti = figure12_scalability("anti", sizes=[16_000], n_preferences=2)
        return ind, anti

    ind, anti = benchmark.pedantic(_run, rounds=1, iterations=1)
    ind_row = ind.data["rows"][16_000]["s-band"]
    anti_row = anti.data["rows"][16_000]["s-band"]
    ind_ratio = ind_row.mean_candidate_set / max(ind_row.mean_answer_size, 1)
    anti_ratio = anti_row.mean_candidate_set / max(anti_row.mean_answer_size, 1)
    report = (
        "Figure 12 cross-check — |C|/|S| at n=16k\n"
        f"IND : {ind_ratio:8.1f}\n"
        f"ANTI: {anti_ratio:8.1f}"
    )
    save_report("fig12_candidate_blowup", report)
    assert anti_ratio > 3 * ind_ratio
