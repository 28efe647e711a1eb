"""Per-preference query sessions: one caching interface for both backends.

A durable top-k query issues many range top-k calls *with the same
preference vector* — T-Hop hops through dozens of windows, T-Base re-runs
a query on every durable expiry, and an interactive user explores many
``k``/``tau``/interval combinations under one scoring function. All of
that work shares preference-bound state that is wasteful to recompute per
call:

* block/level upper bounds (the branch-and-bound pruning keys),
* decoded index payloads (skyline points, already scored),
* the scores of the rows read so far.

:class:`QuerySession` is the shared cache carrier and holds the first
two. The MiniDB backend subclasses it as
:class:`repro.minidb.session.MiniDBSession` (adding a per-row score
store whose reads replay their page accesses, see that module), and the
in-memory engine as
:class:`repro.core.engine.EngineSession` (binding the preference-bound
top-k index). Both expose the same contract:

* a session is bound to **one** preference vector / scoring function and
  must never be shared across preferences;
* caches only ever hold values derived from the dataset and the bound
  preference, so a session can be dropped (or kept) at any point without
  correctness consequences;
* cached state saves CPU, never observable work: page accounting (MiniDB)
  and query statistics (engine) are charged exactly as without a session.

Sessions are context managers: ``with engine.session(scorer) as s: ...``
releases the cached state deterministically on exit. The service layer's
:class:`repro.service.pool.SessionPool` relies on :meth:`QuerySession.close`
to free evicted sessions eagerly instead of waiting for garbage collection.
"""

from __future__ import annotations

import numpy as np

__all__ = ["QuerySession"]


class QuerySession:
    """Reusable per-preference caches for one durable query (or session).

    Attributes
    ----------
    u:
        The bound preference vector (``None`` for engine sessions whose
        scoring function has no weight vector).
    ub:
        Upper-bound cache, keyed by index-node identity.
    points:
        Decoded index payload cache (e.g. a block's skyline points as an
        ``(m, d+1)`` array), keyed by index-node identity.
    """

    __slots__ = ("u", "ub", "points", "closed")

    def __init__(self, u: np.ndarray | None = None) -> None:
        self.u = None if u is None else np.asarray(u, dtype=float)
        self.ub: dict = {}
        self.points: dict = {}
        self.closed = False

    def clear(self) -> None:
        """Drop all cached state (the binding to ``u`` is kept)."""
        self.ub.clear()
        self.points.clear()

    def close(self) -> None:
        """Release cached state and mark the session closed.

        Closing is idempotent. A closed session may not serve further
        queries, but because caches only ever hold state derived from the
        dataset and the bound preference, closing at *any* point is safe —
        there is nothing to flush and no correctness consequence.
        """
        self.clear()
        self.closed = True

    def __enter__(self) -> "QuerySession":
        if self.closed:
            raise RuntimeError("session is closed")
        return self

    def __exit__(self, *exc) -> None:
        self.close()
