"""Figure 10: performance as the query interval length |I| varies.

Paper's claims reproduced here:
* top-k query counts grow (roughly linearly) with |I| for every
  algorithm that issues them;
* the hop algorithms scale better with |I| than the baselines: at
  |I| = 80% they are faster than T-Base and S-Base;
* relative ordering of the algorithms is consistent with Figures 8/9.
"""

import pytest

from repro.experiments.figures import INTERVAL_FRACTIONS, figure10_vary_interval


def _check_shape(fig):
    sweep = fig.data["sweep"]
    topk = sweep.series("mean_topk_queries")
    ms = sweep.series("mean_ms")
    answer = sweep.series("mean_answer_size")["t-hop"]

    # More interval, more answers, more queries.
    assert answer[-1] > answer[0]
    for algo in ("t-hop", "s-hop", "s-band"):
        assert topk[algo][-1] > topk[algo][0], algo
    # At the largest interval the hop algorithms beat both baselines.
    assert ms["t-hop"][-1] < ms["t-base"][-1]
    assert ms["t-hop"][-1] < ms["s-base"][-1]
    assert ms["s-hop"][-1] < ms["s-base"][-1]


@pytest.mark.parametrize("workload", ["nba2", "network2"])
def test_fig10_vary_interval(benchmark, workload, request, save_report):
    dataset = request.getfixturevalue(workload)
    fig = benchmark.pedantic(
        figure10_vary_interval,
        args=(dataset,),
        kwargs={"n_preferences": 3},
        rounds=1,
        iterations=1,
    )
    save_report(f"fig10_{workload}", fig.report)
    _check_shape(fig)
    assert len(fig.data["sweep"].parameter_values()) == len(INTERVAL_FRACTIONS)
