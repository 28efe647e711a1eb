"""The system under test: the serving stack in a process of its own.

Builds the stack the way ``repro gateway`` does — ``DurableTopKService``
with its default workers, queue and pool, a default
``SemanticAnswerCache`` and a ``DurableTopKGateway`` on an OS-picked
port — from the library's public constructors. Tenant budgets are
raised far above the offered load so the benchmark measures the stack,
not the token bucket. For ``wire_live_ingest`` a writer thread here
appends rows at a fixed rate while the generator queries.

The parent drives it over stdin/stdout, one JSON object per line::

    {"cmd": "setup"}                       -> {"port": p}
    {"cmd": "warm_done"}                   -> {"setup_s": s}
    {"cmd": "phase_start", "phase": name}  -> {"n": rows_visible}
    {"cmd": "phase_end"}                   -> {"cpu_s": ..., "layers": ..., ...}
    {"cmd": "stop"}                        -> {"peak_rss_mb": mb}

``paper_sweep`` runs in-process instead and prints one result object
(with ``--setup-only 1``, only its set-up time).
Run directly only through ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import threading
from time import perf_counter, sleep

import bootstrap

bootstrap.require_source()

from repro.cache import SemanticAnswerCache  # noqa: E402
from repro.core.engine import DurableTopKEngine  # noqa: E402
from repro.core.record import Dataset  # noqa: E402
from repro.gateway import DurableTopKGateway, Tenant  # noqa: E402
from repro.ingest import LiveDataset  # noqa: E402
from repro.obs import disable as disable_tracing  # noqa: E402
from repro.service import DurableTopKService, EngineBackend, LiveBackend  # noqa: E402

import layers  # noqa: E402
import workloads as wl  # noqa: E402

TENANT = Tenant("perfbench", rate=1e9, burst=1e9, max_inflight=1 << 20)


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """This process's RSS high-water mark (``VmHWM``).

    Not ``ru_maxrss``: that survives ``exec`` and so starts at the
    parent's RSS at fork time, which here is the load generator's.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


class Writer(threading.Thread):
    """Appends ``rows`` master rows in fixed batches at the frozen rate."""

    def __init__(self, live: LiveDataset, master, start_row: int, rows: int) -> None:
        super().__init__(name="perfbench-writer", daemon=True)
        self.live, self.master = live, master
        self.start_row, self.rows = start_row, rows
        self.acks: list[float] = []

    def run(self) -> None:
        interval = wl.LIVE_BATCH_ROWS / wl.LIVE_ROWS_PER_S
        begin = perf_counter()
        at, end = self.start_row, self.start_row + self.rows
        batch = 0
        while at < end:
            delay = begin + batch * interval - perf_counter()
            if delay > 0:
                sleep(delay)
            step = min(wl.LIVE_BATCH_ROWS, end - at)
            t0 = perf_counter()
            self.live.extend(self.master[at : at + step])
            self.acks.append(perf_counter() - t0)
            at += step
            batch += 1


class WireSUT:
    """One wire workload's stack, set up once per SUT process."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool) -> None:
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.clock = layers.LayerClock() if trace else None
        self.live_phase_rows = dict(zip(("capacity", "latency"), wl.live_rows(seconds)))
        self.master = wl.live_master(seed, seconds) if workload == "wire_live_ingest" else None
        self.gateway = self.service = self.cache = self.live = None
        self.writer: Writer | None = None
        self.appended = 0

    # -- stack lifecycle ---------------------------------------------------
    def setup(self) -> dict:
        self.setup_start = perf_counter()
        if self.workload == "wire_live_ingest":
            self.live = LiveDataset(2)
            self.live.extend(self.master[: wl.LIVE_N0])
            self.live.seal()
            self.live.start_maintenance()
            self.appended = wl.LIVE_N0
            backend = LiveBackend(self.live)
        else:
            backend = EngineBackend(DurableTopKEngine(Dataset(wl.engine_values(self.seed))))
        cache = SemanticAnswerCache()
        if self.clock is not None:
            backend = layers.TimedBackend(backend, self.clock)
            cache = layers.TimedCache(cache, self.clock)
        self.cache = cache
        self.service = DurableTopKService(backend, cache=cache)
        self.gateway = DurableTopKGateway(self.service, {wl.API_KEY: TENANT}).start()
        return {"port": self.gateway.port}

    def warm_done(self) -> dict:
        return {"setup_s": perf_counter() - self.setup_start}

    # -- measured phases ---------------------------------------------------
    def phase_start(self, phase: str) -> dict:
        self.cpu0 = cpu_seconds()
        self.pool0 = self.service.pool.stats()
        self.cache0 = self.cache.stats()
        if self.clock is not None:
            self.clock.reset()
        reply = {}
        if self.live is not None:
            self.seals0, self.compactions0 = self.live.seals, self.live.compactions
            reply["n"] = self.live.n
            self.writer = Writer(self.live, self.master, self.appended, self.live_phase_rows[phase])
            self.appended += self.live_phase_rows[phase]
            self.writer.start()
        return reply

    def phase_end(self) -> dict:
        reply: dict = {}
        if self.writer is not None:
            self.writer.join(timeout=60.0)
            if self.writer.is_alive():
                raise RuntimeError("writer did not finish its rows")
            reply["ingest"] = {
                "acks_s": self.writer.acks,
                "rows": self.writer.rows,
                "seals": self.live.seals - self.seals0,
                "compactions": self.live.compactions - self.compactions0,
                "segments": self.live.segment_count,
            }
            self.writer = None
        reply["cpu_s"] = cpu_seconds() - self.cpu0
        pool, cache = self.service.pool.stats(), self.cache.stats()
        reply["pool"] = {key: pool[key] - self.pool0[key] for key in ("hits", "misses")}
        reply["cache"] = {key: cache[key] - self.cache0[key] for key in ("hits", "misses")}
        reply["cache"]["bytes"] = cache["bytes"]
        if self.clock is not None:
            reply["layers"] = self.clock.snapshot()
        return reply

    def stop(self) -> dict:
        if self.gateway is not None:
            self.gateway.close()
            self.service.close()
        return {"peak_rss_mb": peak_rss_mb()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cpus", default="", help="comma-separated CPUs to pin to")
    parser.add_argument(
        "--setup-only", type=int, choices=(0, 1), default=0,
        help="paper_sweep: build, report the set-up time and exit",
    )
    args = parser.parse_args(argv)
    if args.cpus:
        os.sched_setaffinity(0, {int(c) for c in args.cpus.split(",")})
    disable_tracing()
    # Replies own the real stdout; anything else printed goes to stderr.
    replies = os.fdopen(os.dup(1), "w", buffering=1)
    sys.stdout = sys.stderr

    def reply(payload: dict) -> None:
        replies.write(json.dumps(payload) + "\n")

    if args.workload == "paper_sweep":
        import sweep

        result = sweep.run(args.seed, args.seconds, sweep=not args.setup_only)
        result["peak_rss_mb"] = peak_rss_mb()
        reply(result)
        return 0

    sut = WireSUT(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in sys.stdin:
        message = json.loads(line)
        command = message.pop("cmd")
        reply(getattr(sut, command)(**message))
        if command == "stop":
            break
    return 0


if __name__ == "__main__":
    sys.exit(main())
