"""Figure 8: performance of all five algorithms as tau varies.

Paper's claims reproduced here:
* T-Hop / S-Hop / S-Band get faster as tau grows (query more selective);
* S-Base pays the full sort regardless of tau and ends up slowest at
  large tau; T-Base is mostly tau-independent;
* panel (b): the hop/band algorithms' top-k query counts shrink with tau
  and S-Band/S-Hop durability checks <= T-Hop's (blocking mechanism);
* the S-Band candidate set |C| shrinks with tau and stays a superset of
  the answer.
"""

import pytest

from repro.experiments.figures import TAU_FRACTIONS, figure8_vary_tau


def _check_shape(fig):
    sweep = fig.data["sweep"]
    taus = sweep.parameter_values()
    topk = sweep.series("mean_topk_queries")
    ms = sweep.series("mean_ms")
    cset = sweep.series("mean_candidate_set")["s-band"]
    answer = sweep.series("mean_answer_size")["t-hop"]

    # Hop-based query counts shrink as tau grows.
    assert topk["t-hop"][0] > topk["t-hop"][-1]
    assert topk["s-hop"][0] > topk["s-hop"][-1]
    # At the most selective setting the hop algorithms beat both baselines.
    assert ms["t-hop"][-1] < ms["s-base"][-1]
    assert ms["s-hop"][-1] < ms["s-base"][-1]
    assert ms["t-hop"][-1] < ms["t-base"][-1]
    # Blocking prunes: S-Band/S-Hop durability checks <= T-Hop's.
    dur = sweep.series("mean_durability_queries")
    for i in range(len(taus)):
        assert dur["s-hop"][i] <= dur["t-hop"][i] + 1
        assert dur["s-band"][i] <= dur["t-hop"][i] + 1
    # Candidate sets: superset of answers, shrinking with tau.
    for c, s in zip(cset, answer):
        assert c >= s
    assert cset[0] > cset[-1]


@pytest.mark.parametrize("workload", ["nba2", "network2"])
def test_fig8_vary_tau(benchmark, workload, request, save_report):
    dataset = request.getfixturevalue(workload)
    fig = benchmark.pedantic(
        figure8_vary_tau, args=(dataset,), kwargs={"n_preferences": 3}, rounds=1, iterations=1
    )
    save_report(f"fig8_{workload}", fig.report)
    _check_shape(fig)
    assert len(fig.data["sweep"].parameter_values()) == len(TAU_FRACTIONS)
