"""Table V: DBMS-backed (MiniDB) T-Hop vs T-Base, varying |I|.

Paper's claims reproduced here:
* T-Base's cost grows linearly with |I| (continuous sliding windows);
* T-Hop's cost grows much more slowly (linear in the answer size only);
* T-Hop reads fewer pages at every setting.
"""

from repro.experiments.tables import table5_dbms_vary_interval


def test_table5_dbms_vary_interval(benchmark, save_report):
    fig = benchmark.pedantic(
        table5_dbms_vary_interval, kwargs={"n": 40_000}, rounds=1, iterations=1
    )
    save_report("table5_dbms_interval", fig.report)
    rows = fig.data["rows"]

    base_pages = [r["t-base pages"] for r in rows]
    hop_pages = [r["t-hop pages"] for r in rows]
    # T-Base cost scales with |I| — 5x interval should cost > 2.5x pages.
    assert base_pages[-1] > 2.5 * base_pages[0]
    # T-Hop grows strictly slower than T-Base.
    hop_growth = hop_pages[-1] / max(hop_pages[0], 1)
    base_growth = base_pages[-1] / max(base_pages[0], 1)
    assert hop_growth < base_growth
    # T-Hop cheaper at every point.
    for h, b in zip(hop_pages, base_pages):
        assert h < b
