"""Figure 9: performance as k varies.

Paper's claims reproduced here:
* all algorithms except S-Base slow down as k grows (more and costlier
  top-k queries);
* panel (b): top-k query counts grow with k;
* at large k the score-prioritized algorithms stay at or below T-Hop's
  durability-check count (blocking is most valuable when checks are
  expensive).
"""

import pytest

from repro.experiments.figures import K_VALUES, figure9_vary_k


def _check_shape(fig):
    sweep = fig.data["sweep"]
    topk = sweep.series("mean_topk_queries")
    dur = sweep.series("mean_durability_queries")
    answer = sweep.series("mean_answer_size")["t-hop"]

    # Query counts rise with k for the hop algorithms.
    assert topk["t-hop"][-1] > topk["t-hop"][0]
    assert topk["s-hop"][-1] > topk["s-hop"][0]
    # Answer size grows with k (E|S| = k|I|/(tau+1)).
    assert answer[-1] > answer[0]
    # Blocking keeps S-Hop/S-Band durability checks at or below T-Hop's.
    assert dur["s-hop"][-1] <= dur["t-hop"][-1] + 1
    assert dur["s-band"][-1] <= dur["t-hop"][-1] + 1


@pytest.mark.parametrize("workload", ["nba2", "network2"])
def test_fig9_vary_k(benchmark, workload, request, save_report):
    dataset = request.getfixturevalue(workload)
    fig = benchmark.pedantic(
        figure9_vary_k, args=(dataset,), kwargs={"n_preferences": 3}, rounds=1, iterations=1
    )
    save_report(f"fig9_{workload}", fig.report)
    _check_shape(fig)
    assert len(fig.data["sweep"].parameter_values()) == len(K_VALUES)
