"""``paper_sweep``: the paper's Section VI grid, in-process and serial.

Table III's one-at-a-time sweep on NBA-2 — vary ``tau``, ``k`` and
``|I|`` around the defaults (k=10, tau=10%, |I|=50% anchored at the
newest record) — with all five engine algorithms and MiniDB's two
stored procedures answering every point. The six answers must agree
exactly; a disagreement fails every query of that point.

A pass answers every grid point under each of :data:`PREFERENCES`
fixed preference vectors, in an order the seed shuffles. Passes repeat
while another one, as long as their mean, fits in the run's time (at
least one runs), and every pass completes, so every run times whole
passes of the same mix. (Preference vectors change a point's cost
several-fold; drawing them per seed made ``capacity_qps`` spread by a
third between seeds.) Work counts (top-k probes, candidates, answers,
pages) are taken over the first pass, so they repeat exactly.
"""

from __future__ import annotations

import statistics
from time import perf_counter, process_time

import numpy as np

import bootstrap

bootstrap.require_source()

from repro.analysis.expected import expected_answer_size, expected_candidate_bound  # noqa: E402
from repro.core.engine import DurableTopKEngine  # noqa: E402
from repro.core.query import DurableTopKQuery  # noqa: E402
from repro.data import generate_nba, nba_variant  # noqa: E402
from repro.minidb import MiniDB, t_base_procedure, t_hop_procedure  # noqa: E402
from repro.scoring import LinearPreference, random_preference  # noqa: E402

N = 10_000
ALGORITHMS = ("t-base", "s-base", "t-hop", "s-band", "s-hop")
PROCEDURES = {"t-hop": t_hop_procedure, "t-base": t_base_procedure}
PREFERENCES = 2

DEFAULT = (10, 0.10, 0.50)  # (k, tau fraction, |I| fraction)
TAU_FRACTIONS = (0.01, 0.05, 0.10, 0.25, 0.50)
K_VALUES = (5, 10, 25, 50)
INTERVAL_FRACTIONS = (0.10, 0.30, 0.50, 0.80)


def grid() -> list[tuple[int, float, float]]:
    """Table III's one-at-a-time sweep, each distinct point once."""
    k0, tau0, len0 = DEFAULT
    points = [(k0, t, len0) for t in TAU_FRACTIONS]
    points += [(k, tau0, len0) for k in K_VALUES]
    points += [(k0, tau0, f) for f in INTERVAL_FRACTIONS]
    return list(dict.fromkeys(points))


#: The NBA table and the preference vectors are fixed, as the paper's
#: table is; the seed orders each pass.
DATA_SEED = 7


def build():
    """Set-up: the NBA-2 table, the engine's offline indexes, MiniDB."""
    dataset = nba_variant(generate_nba(N, seed=DATA_SEED), 2)
    engine = DurableTopKEngine(dataset, skyband_k_max=max(K_VALUES)).prepare(list(ALGORITHMS))
    return dataset, engine, MiniDB(dataset)


def run(seed: int, seconds: float, sweep: bool = True) -> dict:
    """Set up once, then, with ``sweep``, sweep for ``seconds``."""
    start = perf_counter()
    dataset, engine, db = build()
    setup = perf_counter() - start
    if not sweep:
        db.close()
        return {"setup_s": setup}
    rng = np.random.default_rng(DATA_SEED)
    scorers = [LinearPreference(random_preference(rng, 2)) for _ in range(PREFERENCES)]
    items = [(scorer, point) for scorer in scorers for point in grid()]
    order = np.random.default_rng([seed, 5])
    n = dataset.n
    latencies: list[float] = []
    by_name: dict[str, list[float]] = {}
    counts = {"topk": [], "lemma5": [], "lemma4": [], "physical": 0, "logical": 0}
    attempted = failed = 0
    pass_s: list[float] = []
    cpu = process_time()
    start = perf_counter()
    while not pass_s or perf_counter() - start + statistics.fmean(pass_s) <= seconds:
        first = not pass_s
        begun = perf_counter()
        for position in order.permutation(len(items)):
            scorer, (k, tau_fraction, length_fraction) = items[position]
            attempted_here, failed_here = _point(
                engine, db, scorer, n, k, tau_fraction, length_fraction,
                latencies, by_name, counts if first else None,
            )
            attempted += attempted_here
            failed += failed_here
        pass_s.append(perf_counter() - begun)
    wall = perf_counter() - start
    cpu = process_time() - cpu
    db.close()
    layer = {name: statistics.fmean(values) * 1e3 for name, values in by_name.items()}
    layer.update(
        {
            "index.topk_probes_per_query": statistics.fmean(counts["topk"]),
            "index.candidates_vs_lemma5": statistics.fmean(counts["lemma5"]),
            "core.answer_vs_lemma4": statistics.fmean(counts["lemma4"]),
            "minidb.pages_physical": counts["physical"],
            "minidb.pages_logical": counts["logical"],
            "sut.cpu_ms_per_query": cpu / attempted * 1e3,
        }
    )
    return {
        "setup_s": setup,
        "latencies_s": latencies,
        "wall_s": wall,
        "pass_s": pass_s,
        "attempted": attempted,
        "failed": failed,
        "layers": layer,
    }


def _point(engine, db, scorer, n, k, tau_fraction, length_fraction, latencies, by_name, counts):
    """Answer one grid point with every algorithm; ``(attempted, failed)``.

    ``counts`` (first pass only) collects the work counts.
    """
    tau = max(1, int(n * tau_fraction))
    length = max(1, int(n * length_fraction))
    lo, hi = n - length, n - 1
    query = DurableTopKQuery(k=k, tau=tau, interval=(lo, hi))
    answers = []
    for name in ALGORITHMS:
        t0 = perf_counter()
        result = engine.query(query, scorer, algorithm=name)
        elapsed = perf_counter() - t0
        answers.append(result.ids)
        latencies.append(elapsed)
        by_name.setdefault(f"core.{name.replace('-', '_')}_ms", []).append(elapsed)
        if counts is not None:
            counts["topk"].append(result.stats.topk_queries)
            if result.stats.candidate_set_size:
                counts["lemma5"].append(
                    result.stats.candidate_set_size / expected_candidate_bound(k, length, tau, d=2)
                )
    for name, procedure in PROCEDURES.items():
        t0 = perf_counter()
        report = procedure(db, scorer.u, k, tau, lo, hi)
        elapsed = perf_counter() - t0
        answers.append(report.ids)
        latencies.append(elapsed)
        by_name.setdefault(f"minidb.{name.replace('-', '_')}_ms", []).append(elapsed)
        if counts is not None:
            counts["physical"] += report.physical_reads
            counts["logical"] += report.logical_reads
    if counts is not None:
        counts["lemma4"].append(len(answers[0]) / expected_answer_size(k, length, tau))
    failed = len(answers) if any(ids != answers[0] for ids in answers) else 0
    return len(answers), failed
