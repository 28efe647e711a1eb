"""Randomised interleavings of appends/seals/compactions/queries.

The equivalence gate of the ingest pipeline: at *every* step of a seeded
random schedule, the LiveDataset's answers (top-k membership via
durability, the durable set itself, and max-durability) must be exactly
equal to a from-scratch offline rebuild of the frozen prefix — including
query windows that straddle the tail/segment boundary and look-ahead
durability that resolves across a seal boundary. The same discipline is
applied to the paged LiveMiniDB, with mid-schedule crash-and-reopen
events thrown in.
"""

import numpy as np
import pytest

from repro.core.engine import DurableTopKEngine
from repro.core.query import Direction, DurableTopKQuery
from repro.core.reference import brute_force_durable_topk
from repro.ingest import LiveDataset
from repro.minidb import LiveMiniDB
from repro.minidb.procedures import t_base_procedure, t_hop_procedure
from repro.scoring import LinearPreference


def check_equivalence(live: LiveDataset, scorer, rng, boundary: int | None) -> None:
    """One full cross-check of the live dataset against an offline rebuild."""
    n = live.n
    if n < 3:
        return
    frozen = live.freeze()
    assert frozen.n == n
    engine = DurableTopKEngine(frozen, skyband_k_max=None)
    scores = scorer.scores(frozen.values)

    k = int(rng.integers(1, 4))
    tau = int(rng.integers(1, max(2, n // 2)))
    # Half the intervals are forced to straddle the sealed/tail boundary.
    if boundary is not None and 0 < boundary < n - 1 and rng.random() < 0.5:
        lo = int(rng.integers(0, boundary))
        hi = int(rng.integers(boundary, n))
    else:
        lo = int(rng.integers(0, n))
        hi = int(rng.integers(lo, n))
    direction = Direction.FUTURE if rng.random() < 0.4 else Direction.PAST
    query = DurableTopKQuery(k=k, tau=tau, interval=(lo, hi), direction=direction)
    algorithm = "t-base" if rng.random() < 0.5 else "t-hop"

    got = live.query(query, scorer, algorithm=algorithm, with_durations=True)
    want = engine.query(query, scorer, algorithm=algorithm, with_durations=True)
    assert got.ids == want.ids, (n, k, tau, lo, hi, direction, algorithm)
    assert got.durations == want.durations, (n, k, tau, lo, hi, direction)
    if direction is Direction.PAST:
        # Independent oracle, not just the engine.
        assert got.ids == brute_force_durable_topk(scores, k, lo, hi, tau)
    else:
        # Look-ahead is look-back over the reversed scores: mirror the
        # interval, run the oracle, map its ids back through t -> n-1-t.
        mirrored = brute_force_durable_topk(scores[::-1], k, n - 1 - hi, n - 1 - lo, tau)
        assert got.ids == sorted(n - 1 - t for t in mirrored), (n, k, tau, lo, hi)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_live_dataset_random_interleaving(seed):
    rng = np.random.default_rng(seed)
    scorer = LinearPreference(np.abs(rng.normal(size=2)) + 0.1)
    live = LiveDataset(d=2, seal_rows=10_000, compact_fanout=2)
    # Plenty of score ties stress the canonical tie-breaking.
    pool = rng.random((16, 2)).round(1)

    for _ in range(60):
        op = rng.random()
        if op < 0.55:
            count = int(rng.integers(1, 40))
            rows = pool[rng.integers(0, len(pool), size=count)]
            if rng.random() < 0.5:
                live.extend(rows)
            else:
                for row in rows:
                    live.append(row)
        elif op < 0.70:
            live.seal()
        elif op < 0.80:
            live.compact(force=bool(rng.random() < 0.3))
        else:
            check_equivalence(live, scorer, rng, boundary=live._state.base)
    live.seal()
    check_equivalence(live, scorer, rng, boundary=None)


def test_lookahead_resolves_across_seal_boundary():
    """A record whose look-ahead window is cut by a seal must be judged
    over the full window once the post-seal rows exist."""
    rng = np.random.default_rng(99)
    scorer = LinearPreference([1.0])
    live = LiveDataset(d=1, seal_rows=10_000)
    live.extend(rng.random((100, 1)))
    live.seal()  # records near t=99 have look-ahead windows crossing here
    live.extend(rng.random((60, 1)))
    engine = DurableTopKEngine(live.freeze(), skyband_k_max=None)
    query = DurableTopKQuery(k=1, tau=40, interval=(60, 120), direction=Direction.FUTURE)
    got = live.query(query, scorer, with_durations=True)
    want = engine.query(query, scorer, algorithm="t-hop", with_durations=True)
    assert got.ids == want.ids
    assert got.durations == want.durations


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lazy_stitching_matches_offline_rebuild(seed):
    """Lazily resolved parts answer exactly as an offline ``freeze()``.

    Each round appends a few segments' worth of rows, then poses a batch
    of look-back and look-ahead queries — windows anchored at the tail,
    deep in old segments, and straddling part boundaries — through
    ``query`` and ``query_batch``; every answer, duration and probe
    count must equal the frozen engine's. Fresh stitched indexes per
    call mean each path resolves its own subset of parts.
    """
    rng = np.random.default_rng(seed)
    scorer = LinearPreference(np.abs(rng.normal(size=2)) + 0.1)
    live = LiveDataset(d=2, seal_rows=10_000, compact_fanout=3)
    pool = rng.random((12, 2)).round(1)  # ties across part boundaries
    for _ in range(6):
        for _ in range(int(rng.integers(1, 4))):
            live.extend(pool[rng.integers(0, len(pool), size=int(rng.integers(20, 90)))])
            live.seal()
        live.extend(pool[rng.integers(0, len(pool), size=int(rng.integers(0, 40)))])
        if rng.random() < 0.3:
            live.compact()
        n = live.n
        engine = DurableTopKEngine(live.freeze(), skyband_k_max=None)
        bounds = [seg.lo for seg in live._state.segments[1:]] + [live._state.base]
        queries = []
        for _ in range(8):
            cut = int(rng.choice(bounds)) if bounds else n // 2
            lo = int(rng.integers(max(0, cut - 30), max(1, min(cut, n - 1))))
            hi = int(rng.integers(min(cut, n - 1), n))
            if rng.random() < 0.3:  # anchored at the growing end
                lo, hi = max(0, n - int(rng.integers(1, 40))), n - 1
            direction = Direction.FUTURE if rng.random() < 0.5 else Direction.PAST
            tau = int(rng.integers(1, 60))
            queries.append(DurableTopKQuery(int(rng.integers(1, 4)), tau, (lo, hi), direction))
        algorithms = ["t-hop" if rng.random() < 0.6 else "t-base" for _ in queries]
        want = [
            engine.query(q, scorer, algorithm=a, with_durations=True)
            for q, a in zip(queries, algorithms)
        ]
        snap = live.snapshot()
        serial = [
            live.query(q, scorer, algorithm=a, with_durations=True, snapshot=snap)
            for q, a in zip(queries, algorithms)
        ]
        batched = live.query_batch(queries, scorer, algorithms, True, snap)
        for got_set in (serial, batched):
            for got, ref in zip(got_set, want):
                assert got.ids == ref.ids, (n, got.query)
                assert got.durations == ref.durations, (n, got.query)
                assert got.stats.topk_queries == ref.stats.topk_queries
                assert got.extra == {"snapshot_n": n, "snapshot_version": n}


@pytest.mark.parametrize("seed", [11, 12])
def test_live_minidb_random_interleaving_with_crashes(tmp_path, seed):
    """Appends, seals, queries and crash-reopens against the paged store.

    The shadow array holds every row the WAL has flushed; after each
    reopen the store must hold exactly the shadow (sealed segments are
    never lost, the torn tail is dropped)."""
    rng = np.random.default_rng(seed)
    u = np.array([0.7, 0.3])
    directory = tmp_path / f"db-{seed}"
    store = LiveMiniDB(directory, d=2, seal_rows=10_000, buffer_pages=16)
    shadow: list[np.ndarray] = []

    for _ in range(40):
        op = rng.random()
        if op < 0.5:
            rows = rng.random((int(rng.integers(1, 60)), 2))
            for row in rows:
                store.append(row)
                shadow.append(row)
            store.flush()
        elif op < 0.65:
            store.seal()
        elif op < 0.85 and len(shadow) >= 3:
            scores = np.asarray(shadow) @ u
            n = len(shadow)
            k = int(rng.integers(1, 4))
            tau = int(rng.integers(1, max(2, n // 2)))
            lo = int(rng.integers(0, n))
            hi = int(rng.integers(lo, n))
            procedure = t_hop_procedure if rng.random() < 0.5 else t_base_procedure
            report = procedure(store, u, k, tau, lo, hi)
            assert report.ids == brute_force_durable_topk(scores, k, lo, hi, tau)
        else:
            # Crash: abandon the handle (no close/flush of pending state),
            # optionally tear the WAL tail, then recover.
            store.wal._file.flush()
            if rng.random() < 0.5:
                with open(directory / "wal.log", "ab") as f:
                    f.write(bytes(rng.integers(0, 256, size=int(rng.integers(1, 19)), dtype=np.uint8)))
            del store
            store = LiveMiniDB(directory)
            assert store.n == len(shadow)
            if shadow:
                scores = np.asarray(shadow) @ u
                got = store.topk(u, 3, 0, len(shadow) - 1)
                ids = np.arange(len(shadow))
                order = np.lexsort((ids, scores))[::-1][:3]
                assert got == [int(i) for i in ids[order]]
    store.close()
