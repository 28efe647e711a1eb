"""Cost-based algorithm selection for durable top-k queries.

Section VI's conclusion is a decision rule in prose: the hop algorithms
are the robust default; S-Band wins on low-dimensional, benign data when
its offline index exists; the baselines only win degenerate corners
(S-Base when nearly every record is an answer). This module turns that
into an explicit planner driven by the Section V expectations:

* expected answer size ``E|S| = k·|I|/(τ+1)`` (Lemma 4),
* expected candidate set ``E|C| ≈ (|I|/τ)·A(τ+1, d)`` (Lemma 5),

plus per-operation cost constants that can be recalibrated from measured
runs. ``algorithm="auto"`` on the engine delegates here.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.expected import expected_answer_size, expected_skyband_size

__all__ = ["CostModel", "PlannerDecision", "choose_algorithm"]


@dataclass(frozen=True)
class CostModel:
    """Relative per-operation costs (units are arbitrary; ratios matter).

    A top-k building-block call at rank ``k`` costs ``topk_query`` plus
    whichever of its two paths is cheaper for its window
    (:meth:`topk_call`): a segment-tree descent pays ``topk_per_rank``
    for each rank after the first, a scan of the window's scores (one
    ``np.partition``) pays ``scan_per_row`` per row. The constants fit
    per-call timings on a 2-vCPU VM — a rank-1 descent or a scan's fixed
    part ~15 µs, ~9.7 µs per further rank, ~2.3-3.3 ns per scanned row —
    scaled so that a rank-5 call costs 50 per-record steps, the ratio
    the planner's other constants were set against. A call at rank
    ``k`` thus scans up to
    ``(k - 1) * topk_per_rank / scan_per_row`` rows: none at ``k = 1``,
    17k at ``k = 5``, 38k at ``k = 10``. Sorting costs ~2 log-factors
    per record.
    """

    topk_query: float = 16.0
    per_record: float = 1.0
    per_candidate: float = 3.0
    sort_per_record: float = 2.5
    topk_per_rank: float = 8.5
    scan_per_row: float = 0.002

    def scans(self, width: int, k: int) -> bool:
        """Whether one top-k call over a ``width``-row window should scan
        the window's scores rather than descend the segment tree.

        ``top1`` asks at ``k = 1`` and so descends: one range-argmax
        costs about what an argmax over a narrow window does, and less
        over a wide one.
        """
        return width * self.scan_per_row <= (k - 1) * self.topk_per_rank

    def topk_call(self, width: int, k: int) -> float:
        """Price of one top-k call at rank ``k`` over a ``width``-row
        window, on the path :meth:`scans` picks."""
        return self.topk_query + min(
            width * self.scan_per_row, (k - 1) * self.topk_per_rank
        )


@dataclass(frozen=True)
class PlannerDecision:
    """The chosen algorithm plus the estimates that justified it."""

    algorithm: str
    estimates: dict[str, float]
    expected_answer: float
    expected_candidates: float | None

    def explain(self) -> str:
        """One-line human-readable rationale."""
        costs = ", ".join(f"{a}={c:.0f}" for a, c in sorted(self.estimates.items(), key=lambda kv: kv[1]))
        return (
            f"chose {self.algorithm} (E|S|~{self.expected_answer:.0f}"
            + (
                f", E|C|~{self.expected_candidates:.0f}"
                if self.expected_candidates is not None
                else ""
            )
            + f"; est. costs: {costs})"
        )


def choose_algorithm(
    k: int,
    tau: int,
    interval_length: int,
    d: int,
    scorer_monotone: bool,
    scorer_strictly_monotone: bool = False,
    has_skyband_index: bool = False,
    cost_model: CostModel | None = None,
) -> PlannerDecision:
    """Pick the cheapest applicable algorithm for one query shape.

    >>> choose_algorithm(10, 40_000, 200_000, 2, True, True, True).algorithm
    's-band'
    >>> choose_algorithm(10, 40_000, 200_000, 30, True, True, True).algorithm
    't-hop'
    """
    if k < 1 or tau < 1 or interval_length < 1 or d < 1:
        raise ValueError("k, tau, interval_length and d must all be >= 1")
    model = cost_model or CostModel()
    answer = expected_answer_size(k, interval_length, tau)
    windows = max(1.0, interval_length / tau)
    hop_queries = answer + k * windows
    # Every top-k call the algorithms make reads at most tau + 1 rows:
    # durability windows, and S-Hop's candidate bands of width <= tau.
    q_cost = model.topk_call(tau + 1, k)

    estimates: dict[str, float] = {
        # T-Base: every record visited + one recompute per durable record.
        "t-base": interval_length * model.per_record + answer * q_cost,
        # S-Base: sort everything + blocking work per record.
        "s-base": (interval_length + tau) * (model.sort_per_record + model.per_record),
        # T-Hop: Lemma 1 queries.
        "t-hop": hop_queries * q_cost,
        # S-Hop: Lemma 3 durability checks, ~2x candidate queries, blocking.
        "s-hop": hop_queries * q_cost * 1.6 + answer * model.per_candidate,
    }
    candidates: float | None = None
    if scorer_strictly_monotone and has_skyband_index:
        # Lemma 5: per-window skyband expectation, capped by the interval.
        per_window = expected_skyband_size(min(tau + 1, 100_000), d, k)
        candidates = min(windows * per_window, float(interval_length))
        # Blocking prunes most checks: charge queries ~ answer size, plus
        # retrieval + sort of the candidate set.
        estimates["s-band"] = (
            answer * q_cost
            + candidates * (model.sort_per_record + model.per_candidate)
        )
    if not scorer_monotone:
        # Without monotonicity the skyline-tree/k-skyband machinery is out;
        # (estimates only contain generic algorithms anyway).
        estimates.pop("s-band", None)

    algorithm = min(estimates, key=estimates.get)
    return PlannerDecision(
        algorithm=algorithm,
        estimates=estimates,
        expected_answer=answer,
        expected_candidates=candidates,
    )
