"""Figure 11: effect of dimensionality d on Network-X.

Paper's claims reproduced here:
* the number of top-k queries is essentially independent of d for every
  algorithm (it depends only on k|I|/tau);
* S-Band's candidate set |C| explodes with d (orders of magnitude above
  the answer size), and S-Band's runtime degrades accordingly;
* T-Hop/S-Hop runtimes grow only mildly with d (costlier top-k queries,
  same number of them).
"""

from repro.experiments.figures import figure11_vary_dimension


def test_fig11_vary_dimension(benchmark, save_report):
    fig = benchmark.pedantic(
        figure11_vary_dimension,
        kwargs={"n": 8_000, "dimensions": [2, 3, 5, 10, 20, 37], "n_preferences": 2},
        rounds=1,
        iterations=1,
    )
    save_report("fig11_network", fig.report)

    rows = fig.data["rows"]
    dims = sorted(rows)
    lo_d, hi_d = dims[0], dims[-1]

    # #top-k queries ~ independent of d for the hop algorithms.
    for algo in ("t-hop", "s-hop"):
        counts = [rows[d][algo].mean_topk_queries for d in dims]
        assert max(counts) <= 3 * max(min(counts), 1), (algo, counts)

    # |C| explodes with dimensionality.
    c_lo = rows[lo_d]["s-band"].mean_candidate_set
    c_hi = rows[hi_d]["s-band"].mean_candidate_set
    assert c_hi > 5 * max(c_lo, 1)
    # ... and towers above the actual answer size at high d.
    assert c_hi > 10 * rows[hi_d]["s-band"].mean_answer_size

    # S-Band pays for it: slower than S-Hop at the highest dimensionality.
    assert rows[hi_d]["s-band"].mean_ms > rows[hi_d]["s-hop"].mean_ms
