"""T-Base and T-Hop as MiniDB "stored procedures" (Section VI-C).

Both procedures may touch data only through the page API (buffered row
reads and index-table top-k queries), mirroring the paper's PL/Python
stored procedures inside PostgreSQL. They return the durable record ids
plus an I/O/time report, which the Table IV–VI benchmarks print.

Each invocation opens a :class:`~repro.minidb.session.MiniDBSession`
bound to its preference vector: consecutive top-k calls of one durable
query then reuse block upper bounds, decoded skyline points, and per-row
scores instead of re-deriving them in Python, while the buffer-pool
accounting stays identical to a session-free run (cached reads replay
their page reads). This is what lets T-Hop's page savings show up on wall time
too, as in the paper.

S-Hop is deliberately absent: the paper implements it "as a wrapper
function outside the DBMS" (footnote 10) because of its heap-and-split
bookkeeping, so the DBMS comparison is T-Base versus T-Hop, as in
Tables IV–VI.
"""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass, field

import numpy as np

from repro.minidb.database import MiniDB
from repro.obs import trace_span

__all__ = [
    "ProcedureReport",
    "t_base_batch_procedure",
    "t_base_procedure",
    "t_hop_batch_procedure",
    "t_hop_procedure",
]


@dataclass
class ProcedureReport:
    """Result and cost accounting of one stored-procedure invocation."""

    ids: list[int]
    algorithm: str
    elapsed_seconds: float
    topk_queries: int
    logical_reads: int
    physical_reads: int
    extra: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "answer_size": len(self.ids),
            "seconds": round(self.elapsed_seconds, 4),
            "topk_queries": self.topk_queries,
            "logical_reads": self.logical_reads,
            "physical_reads": self.physical_reads,
            **self.extra,
        }


def _empty_report(algorithm: str) -> ProcedureReport:
    """The report of a query whose resolved interval is empty."""
    return ProcedureReport(
        ids=[],
        algorithm=algorithm,
        elapsed_seconds=0.0,
        topk_queries=0,
        logical_reads=0,
        physical_reads=0,
    )


def _resolve(db: MiniDB, lo: int | None, hi: int | None) -> tuple[int, int]:
    """Clamp the requested interval to the loaded rows.

    May yield an empty interval (``hi < lo``); the procedures answer those
    with an empty report, matching the in-memory engine's empty-window
    semantics (an empty answer, not an error).
    """
    n = db.n
    lo = 0 if lo is None else max(lo, 0)
    hi = n - 1 if hi is None else min(hi, n - 1)
    return lo, hi


def _validate(k: int, tau: int) -> None:
    """Reject parameters no top-k window can satisfy.

    ``tau = 0`` is legal (a window holding only its own record); the
    in-memory engine's stricter ``tau >= 1`` reflects its query dataclass,
    not the algorithms.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")


def _procedure_session(db: MiniDB, u: np.ndarray, session):
    """The invocation's session: the caller's (validated) or a fresh one.

    An externally supplied session lets the service layer keep one warm
    session per preference across many invocations. The decoded-point and
    per-row score caches replay their page reads on every hit, so keeping
    them warm never changes accounting; the upper-bound cache is the one
    cache whose hits *skip* index-page reads (the seed-era ``ub_cache``
    semantics, scoped to one invocation). Clearing it here keeps every
    invocation's ``logical_reads``/``physical_reads`` byte-identical to a
    fresh-session run — warmth saves decode CPU only — which is what lets
    the concurrent service report serial page counts per request.
    """
    if session is None:
        return db.session(u)
    if session.closed:
        raise RuntimeError("session is closed")
    if session.u is not u and not np.array_equal(session.u, u):
        raise ValueError(
            "session was opened for a different preference vector; "
            "open one per preference via MiniDB.session()"
        )
    session.ub.clear()
    return session


def t_hop_procedure(
    db: MiniDB,
    u: np.ndarray,
    k: int,
    tau: int,
    lo: int | None = None,
    hi: int | None = None,
    cold: bool = True,
    session=None,
) -> ProcedureReport:
    """Algorithm 1 over page storage: hop past non-durable stretches."""
    _validate(k, tau)
    u = np.asarray(u, dtype=float)
    lo, hi = _resolve(db, lo, hi)
    if hi < lo:
        return _empty_report("t-hop")
    session = _procedure_session(db, u, session)
    with trace_span("minidb.pages", algorithm="t-hop", k=k, tau=tau, lo=lo, hi=hi) as span:
        db.reset_io(cold=cold)
        start = time.perf_counter()
        answer: list[int] = []
        queries = 0
        t = hi
        while t >= lo:
            top = db.topk(u, k, t - tau, t, session=session)
            queries += 1
            if t in top:
                answer.append(t)
                t -= 1
            else:
                t = max(top)
        elapsed = time.perf_counter() - start
        answer.reverse()
        io = db.io_stats()
        span.set(
            topk_queries=queries,
            logical_reads=int(io["logical_reads"]),
            physical_reads=int(io["physical_reads"]),
        )
    return ProcedureReport(
        ids=answer,
        algorithm="t-hop",
        elapsed_seconds=elapsed,
        topk_queries=queries,
        logical_reads=int(io["logical_reads"]),
        physical_reads=int(io["physical_reads"]),
    )


def t_base_procedure(
    db: MiniDB,
    u: np.ndarray,
    k: int,
    tau: int,
    lo: int | None = None,
    hi: int | None = None,
    cold: bool = True,
    session=None,
) -> ProcedureReport:
    """The sliding-window baseline over page storage.

    Maintains the window top-k incrementally; each slide reads the
    entering row (one buffered page access), and a durable expiry forces a
    from-scratch top-k query through the index table — the continuous scan
    whose page cost Tables IV–VI show growing linearly with ``|I|``.
    """
    _validate(k, tau)
    u = np.asarray(u, dtype=float)
    lo, hi = _resolve(db, lo, hi)
    if hi < lo:
        return _empty_report("t-base")
    session = _procedure_session(db, u, session)
    with trace_span("minidb.pages", algorithm="t-base", k=k, tau=tau, lo=lo, hi=hi) as span:
        db.reset_io(cold=cold)
        start = time.perf_counter()
        answer: list[int] = []
        queries = 1
        t = hi
        top_keys: list[tuple[float, int]] = sorted(
            (db.score_of(u, i, session=session), i)
            for i in db.topk(u, k, t - tau, t, session=session)
        )
        top_ids = {i for _, i in top_keys}
        while t >= lo:
            if t in top_ids:
                answer.append(t)
            if t == lo:
                break
            if t in top_ids:
                queries += 1
                top_keys = sorted(
                    (db.score_of(u, i, session=session), i)
                    for i in db.topk(u, k, t - 1 - tau, t - 1, session=session)
                )
                top_ids = {i for _, i in top_keys}
            else:
                entering = t - 1 - tau
                if entering >= 0:
                    key = (db.score_of(u, entering, session=session), entering)
                    if len(top_keys) < k:
                        bisect.insort(top_keys, key)
                        top_ids.add(entering)
                    elif key > top_keys[0]:
                        _, evicted = top_keys[0]
                        top_ids.discard(evicted)
                        top_keys.pop(0)
                        bisect.insort(top_keys, key)
                        top_ids.add(entering)
            t -= 1
        elapsed = time.perf_counter() - start
        answer.reverse()
        io = db.io_stats()
        span.set(
            topk_queries=queries,
            logical_reads=int(io["logical_reads"]),
            physical_reads=int(io["physical_reads"]),
        )
    return ProcedureReport(
        ids=answer,
        algorithm="t-base",
        elapsed_seconds=elapsed,
        topk_queries=queries,
        logical_reads=int(io["logical_reads"]),
        physical_reads=int(io["physical_reads"]),
    )


def _clone_report(report: ProcedureReport) -> ProcedureReport:
    """An independent copy for a deduplicated twin query."""
    return ProcedureReport(
        ids=list(report.ids),
        algorithm=report.algorithm,
        elapsed_seconds=report.elapsed_seconds,
        topk_queries=report.topk_queries,
        logical_reads=report.logical_reads,
        physical_reads=report.physical_reads,
        extra=dict(report.extra),
    )


def _batch_procedure(
    procedure, db: MiniDB, u: np.ndarray, queries, cold: bool, session
) -> list[ProcedureReport]:
    """Run many ``(k, tau, lo, hi)`` queries through one warm session.

    The batch keeps byte-identical per-query accounting: every distinct
    query runs the unmodified serial procedure (its own ``ub`` clear, its
    own ``reset_io``), so ``logical_reads``/``physical_reads`` equal a
    serial loop's exactly. What the batch shares is the session's decoded
    points and per-row scores (their cache hits *replay* page reads — see
    :func:`_procedure_session`) and the execution of duplicate queries,
    which run once and return cloned reports (valid because the
    procedures are deterministic under ``cold=True``).

    With ``cold=False`` the buffer pool additionally stays warm across
    the whole batch, so each touched page is physically read once per
    batch rather than once per query — the realistic serving accounting,
    at the price of interleaving-dependent per-query counts.
    """
    u = np.asarray(u, dtype=float)
    if session is None:
        session = db.session(u)
    reports: list[ProcedureReport] = []
    first_of: dict[tuple, int] = {}
    for k, tau, lo, hi in queries:
        key = (int(k), int(tau), lo, hi)
        source = first_of.get(key)
        if source is not None and cold:
            reports.append(_clone_report(reports[source]))
            continue
        first_of.setdefault(key, len(reports))
        reports.append(procedure(db, u, k, tau, lo, hi, cold=cold, session=session))
    return reports


def t_hop_batch_procedure(
    db: MiniDB,
    u: np.ndarray,
    queries,
    cold: bool = True,
    session=None,
) -> list[ProcedureReport]:
    """Batched :func:`t_hop_procedure`: one warm session, dedup, same counts.

    ``queries`` is a sequence of ``(k, tau, lo, hi)`` tuples (``lo``/``hi``
    may be ``None``); returns one report per query in input order,
    byte-identical to a serial loop of single invocations.
    """
    return _batch_procedure(t_hop_procedure, db, u, queries, cold, session)


def t_base_batch_procedure(
    db: MiniDB,
    u: np.ndarray,
    queries,
    cold: bool = True,
    session=None,
) -> list[ProcedureReport]:
    """Batched :func:`t_base_procedure`; see :func:`t_hop_batch_procedure`."""
    return _batch_procedure(t_base_procedure, db, u, queries, cold, session)
