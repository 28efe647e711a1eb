"""One command for the whole benchmark; see README.md beside this file.

    python3 perfbench/run.py --workload wire_hot_tiles --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout. With ``--trace 0`` the last
line of standard output is a JSON object carrying every end-to-end
metric; with ``--trace 1`` the stack is built with timing wrappers and
the object carries every per-layer metric instead. Lines before it are
the human-readable report and the run-validity diagnostics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import bootstrap

bootstrap.require_source()

from repro.gateway import FrameDecoder, encode_frame, request_from_wire, request_to_wire  # noqa: E402
from repro.scoring import LinearPreference  # noqa: E402

import workloads as wl  # noqa: E402
from loadgen import Generator, Phase  # noqa: E402
from stats import (  # noqa: E402
    INF, backlog, calibration_ms, cpu_ticks, lateness, percentile, steal_share,
)

HERE = Path(__file__).resolve().parent

END_TO_END = {
    "setup_s": "s",
    "capacity_qps": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "gateway.self_ms_mean": "ms",
    "gateway.codec_us": "us",
    "gateway.frame_bytes_out": "bytes",
    "gateway.ping_rtt_us": "us",
    "service.self_ms_mean": "ms",
    "service.batch_size_mean": "count",
    "service.pool_hit_rate": "ratio",
    "cache.hit_rate": "ratio",
    "cache.get_us": "us",
    "cache.bytes": "bytes",
    "core.session_builds": "count",
    "core.session_build_ms": "ms",
    "core.execute_ms_per_query": "ms",
    "core.t_base_ms": "ms",
    "core.t_hop_ms": "ms",
    "core.s_base_ms": "ms",
    "core.s_band_ms": "ms",
    "core.s_hop_ms": "ms",
    "index.topk_probes_per_query": "count",
    "index.candidates_vs_lemma5": "ratio",
    "core.answer_vs_lemma4": "ratio",
    "ingest.extend_us_per_row": "us",
    "ingest.append_p90_ms": "ms",
    "ingest.execute_ms_per_query": "ms",
    "ingest.seals": "count",
    "ingest.compactions": "count",
    "ingest.segments_end": "count",
    "ingest.staleness_rows_p50": "rows",
    "minidb.t_hop_ms": "ms",
    "minidb.t_base_ms": "ms",
    "minidb.pages_physical": "pages",
    "minidb.pages_logical": "pages",
    "sut.cpu_ms_per_query": "ms",
    "traced.capacity_qps": "1/s",
    "traced.latency_p50_ms": "ms",
    "traced.latency_p90_ms": "ms",
}

#: Wire error codes that are admission refusals rather than faults.
REJECTIONS = {"rate_limited", "queue_full", "timeout", "shed", "shutdown"}

#: Stand-in for an infinite percentile (more failures than the
#: percentile tolerates), which JSON cannot carry.
FAILED_LATENCY_MS = 1e12


def split_cpus() -> tuple[set[int], set[int]]:
    """Generator CPU and SUT CPUs: one for the generator, the rest for the SUT."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set(cpus), set(cpus)
    return {cpus[0]}, set(cpus[1:])


def _idle_class_on(cpu: int):
    """``preexec_fn``: pin to ``cpu`` in the idle class before ``exec``."""

    def setup() -> None:
        os.sched_setaffinity(0, {cpu})
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))

    return setup


@contextmanager
def sut_cpus_awake(cpus: set[int]):
    """Keep the SUT's CPUs out of idle during an open-loop phase.

    A halted vCPU of a shared host waits for the host's scheduler to
    wake it, which took milliseconds whenever the host was busy, and an
    open-loop request at 10-18% load nearly always finds the SUT's CPU
    halted: latency then measured the host's wake-up, not the stack.
    One ``SCHED_IDLE`` spinner per SUT CPU keeps each vCPU running. The
    class runs only when nothing else on the CPU can, and a waking SUT
    thread preempts it at once, so the SUT loses no CPU time to it. The
    class is set before ``exec``, so a spinner never runs outside it.
    """
    spinners = [
        subprocess.Popen(
            [sys.executable, "-c", "while True: pass"], preexec_fn=_idle_class_on(cpu)
        )
        for cpu in sorted(cpus)
    ]
    try:
        yield spinners
    finally:
        for spinner in spinners:
            spinner.kill()
        for spinner in spinners:
            spinner.wait()


class SUTProcess:
    """The system under test, driven over its stdin/stdout."""

    def __init__(self, args, cpus: set[int], setup_only: bool = False) -> None:
        command = [
            sys.executable, str(HERE / "sut.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--cpus", ",".join(str(c) for c in sorted(cpus)),
            "--setup-only", str(int(setup_only)),
        ]
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1
        )

    def read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"system under test exited (code {self.proc.poll()})")
        return json.loads(line)

    def call(self, cmd: str, **kwargs) -> dict:
        self.proc.stdin.write(json.dumps({"cmd": cmd, **kwargs}) + "\n")
        self.proc.stdin.flush()
        return self.read()

    def close(self) -> None:
        """Let the SUT exit on end of input; kill it if it does not."""
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# ---------------------------------------------------------------------------
# Correctness and failure accounting
# ---------------------------------------------------------------------------
class Verifier:
    """Re-derives answer ids on a fresh in-process engine, memoised per query."""

    def __init__(self, values, n_visible: int | None) -> None:
        self.values = values
        self.n_visible = n_visible  # None: each answer reports its snapshot
        self.memo: dict = {}

    def check(self, request, frame: dict) -> bool:
        n = self.n_visible if self.n_visible is not None else frame.get("snapshot_n")
        if n is None:
            return False
        key = (
            tuple(request.scorer.u), request.k, request.tau, request.interval,
            request.algorithm, n,
        )
        expected = self.memo.get(key)
        if expected is None:
            expected = self.memo[key] = wl.reference_answer(self.values, n, request)
        return frame.get("ids") == expected


def account(phase: Phase, verifier: Verifier) -> dict:
    """Per-phase outcome counts; sets ``phase.ok`` (one flag per request)."""
    counts = {"sent": len(phase.sent), "ok": 0, "rejected": 0, "error": 0, "wrong": 0}
    phase.ok = []
    for request, frame in zip(phase.requests, phase.frames):
        if frame is None:
            outcome = "error"
        elif frame.get("op") == "error":
            outcome = "rejected" if frame.get("code") in REJECTIONS else "error"
        else:
            outcome = "ok" if verifier.check(request, frame) else "wrong"
        counts[outcome] += 1
        phase.ok.append(outcome == "ok")
    counts["failed_share"] = 1.0 - counts["ok"] / counts["sent"] if counts["sent"] else 0.0
    return counts


def latencies_ms(phase: Phase) -> list[float]:
    """Intended-send to answer, in ms; failures count as ``+inf``."""
    return [
        (received - intended) * 1e3 if ok else INF
        for intended, received, ok in zip(phase.intended, phase.received, phase.ok)
    ]


def finite(value: float) -> float:
    return value if math.isfinite(value) else FAILED_LATENCY_MS


# ---------------------------------------------------------------------------
# Wire workloads
# ---------------------------------------------------------------------------
def live_anchor(n_start: int, t_start: float, rows: int):
    """Send-time ``prepare`` that anchors live requests at the growing end."""

    def prepare(request, t: float):
        grown = min(rows, wl.LIVE_ROWS_PER_S * max(0.0, t - t_start))
        return wl.anchor_live(request, n_start + grown)

    return prepare


def codec_us(phase: Phase, limit: int = 2000) -> float:
    """Mean time of the protocol's encode/decode calls on this run's frames.

    Per request/answer pair: encode and decode the query frame, parse it
    back into a request, and encode and decode the answer frame — the
    calls the gateway and its clients make per request.
    """
    decoder = FrameDecoder()
    scorers: dict = {}

    def scorer_of(weights):
        return scorers.setdefault(weights, LinearPreference(list(weights)))

    pairs = [
        (request, frame)
        for request, frame, ok in zip(phase.requests, phase.frames, phase.ok)
        if ok
    ][:limit]
    if not pairs:
        return 0.0
    start = perf_counter()
    for i, (request, frame) in enumerate(pairs):
        (query,) = decoder.feed(encode_frame(request_to_wire(request, id=i)))
        request_from_wire(query, scorer_of)
        decoder.feed(encode_frame(frame))
    return (perf_counter() - start) / len(pairs) * 1e6


def _mean(clock: dict, name: str, scale: float, per: str = "calls") -> float:
    calls, items, seconds = clock.get(name, (0, 0, 0.0))
    count = calls if per == "calls" else items
    return seconds / count * scale if count else 0.0


def wire_layers(phases: dict, sut_reports: dict, ping: list[float], workload: str) -> dict:
    """Per-layer metrics of a traced wire run (latency phase unless noted)."""
    lat, cap = phases["latency"], phases["capacity"]
    report = sut_reports["latency"]
    clock = report["layers"]
    ok = [i for i, flag in enumerate(lat.ok) if flag]
    out = {name: 0.0 for name in PER_LAYER}
    out["gateway.self_ms_mean"] = statistics.fmean(
        (lat.received[i] - lat.sent[i] - lat.frames[i]["total_seconds"]) * 1e3 for i in ok
    )
    out["gateway.codec_us"] = codec_us(lat)
    out["gateway.frame_bytes_out"] = statistics.fmean(len(encode_frame(lat.frames[i])) for i in ok)
    out["gateway.ping_rtt_us"] = statistics.median(ping)
    # The service's submit-to-done time travels in every answer frame.
    service_s = sum(lat.frames[i]["total_seconds"] for i in ok)
    below_s = sum(clock.get(name, (0, 0, 0.0))[2] for name in ("cache_get", "cache_put", "backend_wait"))
    if ok:
        out["service.self_ms_mean"] = (service_s - below_s) / len(ok) * 1e3
    calls, items, _ = clock.get("execute", (0, 0, 0.0))
    out["service.batch_size_mean"] = items / calls if calls else 0.0
    pool = report["pool"]
    checkouts = pool["hits"] + pool["misses"]
    out["service.pool_hit_rate"] = pool["hits"] / checkouts if checkouts else 0.0
    cache = report["cache"]
    lookups = cache["hits"] + cache["misses"]
    out["cache.hit_rate"] = cache["hits"] / lookups if lookups else 0.0
    out["cache.get_us"] = _mean(clock, "cache_get", 1e6)
    out["cache.bytes"] = cache["bytes"]
    out["core.session_builds"] = clock.get("session_build", (0, 0, 0.0))[0]
    out["core.session_build_ms"] = _mean(clock, "session_build", 1e3)
    execute_ms = _mean(clock, "execute", 1e3, per="items")
    if workload == "wire_live_ingest":
        out["ingest.execute_ms_per_query"] = execute_ms
        acks = [a for name in ("capacity", "latency") for a in sut_reports[name]["ingest"]["acks_s"]]
        rows = sum(sut_reports[name]["ingest"]["rows"] for name in ("capacity", "latency"))
        out["ingest.extend_us_per_row"] = sum(acks) / rows * 1e6
        out["ingest.append_p90_ms"] = percentile(acks, 90) * 1e3
        out["ingest.seals"] = sum(sut_reports[n]["ingest"]["seals"] for n in ("capacity", "latency"))
        out["ingest.compactions"] = sum(
            sut_reports[n]["ingest"]["compactions"] for n in ("capacity", "latency")
        )
        out["ingest.segments_end"] = report["ingest"]["segments"]
        out["ingest.staleness_rows_p50"] = percentile(
            [lat.frames[i].get("staleness_rows", 0) for i in ok], 50
        )
    else:
        out["core.execute_ms_per_query"] = execute_ms
    cap_ok = sum(cap.ok)
    out["sut.cpu_ms_per_query"] = sut_reports["capacity"]["cpu_s"] / cap_ok * 1e3 if cap_ok else 0.0
    return out


def drive(args, sut_cpus, streams) -> dict:
    """:data:`workloads.SETUPS` set-ups in fresh SUT processes; the last serves the phases."""
    wire = wl.WIRE[args.workload]
    live = args.workload == "wire_live_ingest"
    capacity_s, _ = wl.phase_seconds(args.seconds)
    rows = dict(zip(("capacity", "latency"), wl.live_rows(args.seconds)))
    static = live_anchor(wl.LIVE_N0, 0.0, 0) if live else None
    out: dict = {"phases": {}, "reports": {}, "setups": [], "ping": []}
    for i in range(wl.SETUPS):
        sut = SUTProcess(args, sut_cpus)
        generator = None
        try:
            generator = Generator(sut.call("setup")["port"], wl.API_KEY)
            out["phases"][f"warmup{i}"] = generator.run(
                Phase("warmup", list(streams.warmup)), window=wire.window, prepare=static
            )
            out["setups"].append(sut.call("warm_done")["setup_s"])
            if i == wl.SETUPS - 1:
                if args.trace:
                    out["ping"] = generator.ping_rtt_us()
                ticks = cpu_ticks()
                for name in ("capacity", "latency"):
                    started = sut.call("phase_start", phase=name)
                    prepare = live_anchor(started["n"], perf_counter(), rows[name]) if live else None
                    phase = Phase(name, getattr(streams, name))
                    if name == "capacity":
                        generator.run(phase, window=wire.window, duration=capacity_s, prepare=prepare)
                    else:
                        with sut_cpus_awake(sut_cpus):
                            generator.run(phase, offsets=streams.arrivals, prepare=prepare)
                    out["phases"][name] = phase
                    out["reports"][name] = sut.call("phase_end")
                out["steal"] = steal_share(ticks, cpu_ticks())
            generator.close()
            generator = None
            out["peak_rss_mb"] = sut.call("stop")["peak_rss_mb"]
        finally:
            if generator is not None:
                generator.close()
            sut.close()
    return out


def run_wire(args, cpus) -> tuple[dict, dict, dict]:
    live = args.workload == "wire_live_ingest"
    streams = wl.draw_streams(args.workload, args.seed, args.seconds)
    capacity_s, latency_s = wl.phase_seconds(args.seconds)
    gen_cpus, sut_cpus = cpus
    os.sched_setaffinity(0, gen_cpus)
    diagnostics: dict = {"calibration_ms_before": calibration_ms()}
    ticks = cpu_ticks()
    run = drive(args, sut_cpus, streams)
    diagnostics["calibration_ms_after"] = calibration_ms()
    diagnostics["host_steal_share"] = steal_share(ticks, cpu_ticks())
    diagnostics["phase_steal_share"] = run["steal"]

    values = wl.live_master(args.seed, args.seconds) if live else wl.engine_values(args.seed)
    verifier = Verifier(values, None if live else wl.ENGINE_N)
    phases, reports = run["phases"], run["reports"]
    accounting = {name: account(phase, verifier) for name, phase in phases.items()}
    cap, lat = phases["capacity"], phases["latency"]
    lat_ms = latencies_ms(lat)
    ok_times = [r for r, ok in zip(lat.received, lat.ok) if ok]
    late = lateness(lat.intended, lat.sent)
    diagnostics.update(
        {
            "generator_lateness_p50_ms": late["p50_ms"],
            "generator_lateness_p99_ms": late["p99_ms"],
            "offered_qps": len(lat.intended) / latency_s,
            "achieved_qps": len(ok_times) / (max(ok_times) - lat.start) if ok_times else 0.0,
            "backlog_at_schedule_end": backlog(lat.intended, lat.received),
            "latency_samples": len(lat_ms),
            "latency_p90_ms": finite(percentile(lat_ms, 90)),
            "capacity_samples": sum(cap.ok),
            "phases": accounting,
        }
    )
    deadline = cap.start + capacity_s
    done = sum(1 for r, ok in zip(cap.received, cap.ok) if ok and r <= deadline)
    e2e = {
        "setup_s": statistics.median(run["setups"]),
        "capacity_qps": done / capacity_s,
        "latency_p50_ms": finite(percentile(lat_ms, 50)),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    layer = {}
    if args.trace:
        layer = wire_layers(phases, reports, run["ping"], args.workload)
        layer["traced.latency_p90_ms"] = diagnostics["latency_p90_ms"]
    return e2e, layer, diagnostics


# ---------------------------------------------------------------------------
# paper_sweep
# ---------------------------------------------------------------------------
def sweep_run(args, sut_cpus) -> dict:
    """Set-up-only SUT processes, then one that sets up and sweeps."""
    setups = []
    for _ in range(wl.SETUPS - 1):
        sut = SUTProcess(args, sut_cpus, setup_only=True)
        try:
            setups.append(sut.read()["setup_s"])
        finally:
            sut.close()
    ticks = cpu_ticks()
    sut = SUTProcess(args, sut_cpus)
    try:
        result = sut.read()
    finally:
        sut.close()
    result["steal"] = steal_share(ticks, cpu_ticks())
    result["setups"] = setups + [result["setup_s"]]
    return result


def run_sweep(args, cpus) -> tuple[dict, dict, dict]:
    _, sut_cpus = cpus
    diagnostics: dict = {"calibration_ms_before": calibration_ms()}
    ticks = cpu_ticks()
    result = sweep_run(args, sut_cpus)
    diagnostics["calibration_ms_after"] = calibration_ms()
    diagnostics["host_steal_share"] = steal_share(ticks, cpu_ticks())
    diagnostics["phase_steal_share"] = result["steal"]
    latencies = [t * 1e3 for t in result["latencies_s"]]
    e2e = {
        "setup_s": statistics.median(result["setups"]),
        "capacity_qps": len(latencies) / result["wall_s"],
        "latency_p50_ms": percentile(latencies, 50),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    layer = {}
    if args.trace:
        layer = {name: 0.0 for name in PER_LAYER}
        layer.update(result["layers"])
        layer["traced.latency_p90_ms"] = percentile(latencies, 90)
    diagnostics.update(
        {
            "queries": len(latencies),
            "pass_s": result["pass_s"],
            "latency_p90_ms": percentile(latencies, 90),
            "phases": {"sweep": {"sent": result["attempted"], "wrong": result["failed"]}},
        }
    )
    return e2e, layer, {"attempted": result["attempted"], "failed": result["failed"], **diagnostics}


def run_one(args, cpus) -> dict:
    """Run one workload, print its report and return its result object."""
    if args.workload == "paper_sweep":
        e2e, layer, diagnostics = run_sweep(args, cpus)
        attempted, failed = diagnostics.pop("attempted"), diagnostics.pop("failed")
        wrong = failed
    else:
        e2e, layer, diagnostics = run_wire(args, cpus)
        phases = diagnostics["phases"]
        attempted = sum(p["sent"] for p in phases.values())
        failed = sum(p["sent"] - p["ok"] for p in phases.values())
        wrong = sum(p["wrong"] for p in phases.values())
    if args.trace:
        layer["traced.capacity_qps"] = e2e["capacity_qps"]
        layer["traced.latency_p50_ms"] = e2e["latency_p50_ms"]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    for name, unit in END_TO_END.items():
        print(f"  {name:<16} {e2e[name]:>14.4f} {unit}")
    for name, value in layer.items():
        print(f"  {name:<28} {value:>14.4f} {PER_LAYER[name]}")
    print(f"  attempted {attempted}  failed {failed}  wrong {wrong}")
    print("diagnostics " + json.dumps(diagnostics, sort_keys=True))
    table = PER_LAYER if args.trace else END_TO_END
    values = layer if args.trace else e2e
    return {
        "correct": wrong == 0 and attempted > failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in table.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Durable top-k serving benchmark")
    parser.add_argument(
        "--workload", required=True, choices=wl.WORKLOADS + ("all",),
        help="one workload, or all of them in turn",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Split once: running a wire workload pins this process.
    cpus = split_cpus()
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {
        name: run_one(argparse.Namespace(**{**vars(args), "workload": name}), cpus)
        for name in names
    }
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
