"""Command-line entry point for regenerating the paper's experiments.

Usage::

    python -m repro list
    python -m repro run fig8 --workload nba2
    python -m repro run all --out results/
    python -m repro cache-bench --out results/
    python -m repro cache-bench --smoke
    python -m repro ingest-bench --out results/
    python -m repro ingest-bench --smoke
    python -m repro obs-bench --out results/
    python -m repro obs-bench --smoke
    python -m repro gateway --port 8334
    python -m repro gateway-bench --out results/
    python -m repro gateway-bench --smoke
    python -m repro perf-report --baseline benchmarks/baselines --current results
    python -m repro perf-gate --baseline benchmarks/baselines --current results
    python -m repro top --once
    python -m repro trace --top 3
    python -m repro stream --workload nba2 --k 3 --tau 500 --lookahead

Each experiment prints the same table/series its benchmark counterpart
saves, so results can be regenerated without pytest. ``cache-bench``
drives a pipelined workload through the serving layer with and
without the semantic answer cache and reports the p95 speedup and hit
rate (its ``--smoke`` re-derives every served answer — ids, durations
and stats — on an uncached engine, including a live-ingest phase);
``ingest-bench`` drives the live ingestion pipeline (appends
racing queries) and reports throughput, latency and freshness;
``obs-bench`` measures the tracing overhead in both modes and checks
traced answers stay byte-identical; ``gateway`` serves the durable top-k service over
TCP (length-prefixed JSON frames, per-tenant API keys) until
interrupted, and ``gateway-bench`` compares client-observed open-loop
latency over real localhost sockets against the same service driven
in-process, gating the socket p95 at 1.5x the in-process p95 (its
``--smoke`` additionally re-derives every socket-served answer
byte-identically on a fresh engine). For all of them, ``--smoke`` runs
small with serial verification and exits non-zero on any rejected or
incorrect response — the CI gates. Every saved report is stamped with an environment
fingerprint and pairs with a schema'd ``BENCH_<name>.json`` telemetry
file; ``perf-report`` diffs the current telemetry against an archived
baseline (``--promote`` refreshes the baseline), ``perf-gate`` is the
same diff with a non-zero exit on any regression beyond its noise band
— the CI perf smoke. ``top`` repaints a live terminal dashboard over
the observability stack (``--once`` renders a single plain frame for
non-tty use). ``trace`` drives a traced workload and prints the slowest
requests as per-layer waterfalls; ``--log-json`` (global) switches
diagnostics to structured JSON log lines. ``stream`` replays a
dataset as an arrival stream through the online
:class:`~repro.core.streaming.StreamingDurableMonitor` and prints each
record's durability decision the moment it is decidable.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

__all__ = ["main", "EXPERIMENTS"]


def _fig8(args):
    from repro.experiments.figures import figure8_vary_tau, nba2_dataset, network2_dataset

    data = nba2_dataset(args.n) if args.workload == "nba2" else network2_dataset(args.n)
    return figure8_vary_tau(data, n_preferences=args.preferences)


def _fig9(args):
    from repro.experiments.figures import figure9_vary_k, nba2_dataset, network2_dataset

    data = nba2_dataset(args.n) if args.workload == "nba2" else network2_dataset(args.n)
    return figure9_vary_k(data, n_preferences=args.preferences)


def _fig10(args):
    from repro.experiments.figures import figure10_vary_interval, nba2_dataset, network2_dataset

    data = nba2_dataset(args.n) if args.workload == "nba2" else network2_dataset(args.n)
    return figure10_vary_interval(data, n_preferences=args.preferences)


def _fig11(args):
    from repro.experiments.figures import figure11_vary_dimension

    return figure11_vary_dimension(n=min(args.n, 12_000), n_preferences=args.preferences)


def _fig12(args):
    from repro.experiments.figures import figure12_scalability

    kind = "anti" if args.workload == "anti" else "ind"
    sizes = [args.n // 2, args.n, args.n * 2]
    return figure12_scalability(kind, sizes=sizes, n_preferences=args.preferences)


def _fig13(args):
    from repro.experiments.figures import figure13_runtime_distribution

    return figure13_runtime_distribution(n=min(args.n, 16_000), n_preferences=args.preferences)


def _table4(args):
    from repro.experiments.tables import table4_dbms_vary_tau

    return table4_dbms_vary_tau(n=min(args.n * 2, 40_000))


def _table5(args):
    from repro.experiments.tables import table5_dbms_vary_interval

    return table5_dbms_vary_interval(n=min(args.n * 2, 40_000))


def _table6(args):
    from repro.experiments.tables import table6_dbms_datasets

    return table6_dbms_datasets()


#: Experiment id -> (runner, description).
EXPERIMENTS = {
    "fig8": (_fig8, "vary tau, all five algorithms"),
    "fig9": (_fig9, "vary k, all five algorithms"),
    "fig10": (_fig10, "vary |I|, all five algorithms"),
    "fig11": (_fig11, "vary dimensionality on Network-X"),
    "fig12": (_fig12, "scalability on Syn (use --workload anti for ANTI)"),
    "fig13": (_fig13, "runtime distribution over NBA 5-d subsets"),
    "table4": (_table4, "MiniDB backend, vary tau"),
    "table5": (_table5, "MiniDB backend, vary |I|"),
    "table6": (_table6, "MiniDB backend, dataset sizes"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the durable top-k paper's figures and tables.",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit structured JSON log lines (one object per line) on stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", choices=[*EXPERIMENTS, "all"])
    run.add_argument("--workload", default="nba2", choices=["nba2", "network2", "ind", "anti"])
    run.add_argument("--n", type=int, default=20_000, help="dataset size")
    run.add_argument("--preferences", type=int, default=3, help="preference vectors per point")
    run.add_argument("--out", type=Path, default=None, help="directory for report files")

    cache = sub.add_parser(
        "cache-bench",
        help="benchmark the semantic answer cache (uncached vs cached service)",
    )
    cache.add_argument("--n", type=int, default=60_000, help="dataset size")
    cache.add_argument("--requests", type=int, default=1200, help="requests per round")
    cache.add_argument("--clients", type=int, default=8, help="client threads")
    cache.add_argument("--workers", type=int, default=8, help="service worker threads")
    cache.add_argument(
        "--preferences", type=int, default=96, help="distinct preference vectors"
    )
    cache.add_argument("--zipf", type=float, default=1.1, help="preference zipf exponent")
    cache.add_argument(
        "--shapes", type=int, default=8, help="query shapes per preference"
    )
    cache.add_argument(
        "--shape-zipf", type=float, default=1.2, help="shape zipf exponent"
    )
    cache.add_argument("--rounds", type=int, default=2, help="timed rounds per side")
    cache.add_argument(
        "--pool-capacity",
        type=int,
        default=None,
        help="session pool capacity (default: sized to --preferences)",
    )
    cache.add_argument(
        "--cache-mb", type=int, default=64, help="answer cache capacity in MiB"
    )
    cache.add_argument(
        "--verify",
        action="store_true",
        help="re-derive every served answer on an uncached engine "
        "(ids, durations, stats) and run the live-ingest equivalence phase",
    )
    cache.add_argument(
        "--smoke",
        action="store_true",
        help="small run with --verify; exit 1 on any stale/incorrect response",
    )
    cache.add_argument(
        "--out",
        type=Path,
        default=Path("results"),
        help="directory for cache_speedup.txt (default: results/)",
    )

    ingest = sub.add_parser(
        "ingest-bench",
        help="benchmark live ingestion (appends racing durable top-k queries)",
    )
    ingest.add_argument("--n", type=int, default=40_000, help="seeded dataset size")
    ingest.add_argument("--requests", type=int, default=800, help="requests per round")
    ingest.add_argument("--clients", type=int, default=4, help="client threads")
    ingest.add_argument("--workers", type=int, default=4, help="service worker threads")
    ingest.add_argument("--writers", type=int, default=1, help="writer threads")
    ingest.add_argument(
        "--batch-rows", type=int, default=64, help="rows per append micro-batch"
    )
    ingest.add_argument(
        "--preferences", type=int, default=32, help="distinct preference vectors"
    )
    ingest.add_argument("--seal-rows", type=int, default=4096, help="tail size per seal")
    ingest.add_argument(
        "--verify", type=int, default=0, metavar="SAMPLE",
        help="re-derive SAMPLE responses serially against the oracle",
    )
    ingest.add_argument(
        "--smoke",
        action="store_true",
        help="small run verifying every response; exit 1 on any mismatch",
    )
    ingest.add_argument(
        "--out",
        type=Path,
        default=Path("results"),
        help="directory for ingest_throughput.txt (default: results/)",
    )

    obs = sub.add_parser(
        "obs-bench",
        help="measure tracing overhead (disabled fast path and enabled mode)",
    )
    obs.add_argument("--n", type=int, default=60_000, help="dataset size")
    obs.add_argument("--requests", type=int, default=1000, help="requests per round")
    obs.add_argument("--clients", type=int, default=8, help="client threads")
    obs.add_argument("--workers", type=int, default=8, help="service worker threads")
    obs.add_argument(
        "--preferences", type=int, default=64, help="distinct preference vectors"
    )
    obs.add_argument("--zipf", type=float, default=0.9, help="zipf exponent")
    obs.add_argument("--rounds", type=int, default=2, help="interleaved rounds per side")
    obs.add_argument(
        "--smoke",
        action="store_true",
        help="small run; exit 1 if the disabled-path bound or byte-identity fails",
    )
    obs.add_argument(
        "--out",
        type=Path,
        default=Path("results"),
        help="directory for obs_overhead.txt (default: results/)",
    )

    gateway = sub.add_parser(
        "gateway",
        help="serve the durable top-k service over TCP until interrupted",
    )
    gateway.add_argument("--host", default="127.0.0.1", help="bind address")
    gateway.add_argument("--port", type=int, default=8334, help="bind port (0 = OS pick)")
    gateway.add_argument("--n", type=int, default=60_000, help="demo dataset size")
    gateway.add_argument("--workers", type=int, default=4, help="service worker threads")
    gateway.add_argument(
        "--api-key",
        action="append",
        default=None,
        metavar="KEY=TENANT",
        help="accept KEY for TENANT (repeatable; default: dev-key=dev)",
    )
    gateway.add_argument(
        "--tenant-rate", type=float, default=1000.0, help="token-bucket refill req/s"
    )
    gateway.add_argument(
        "--tenant-burst", type=float, default=200.0, help="token-bucket burst size"
    )
    gateway.add_argument(
        "--tenant-inflight", type=int, default=256, help="per-tenant queue quota"
    )

    gwbench = sub.add_parser(
        "gateway-bench",
        help="benchmark socket-served vs in-process latency at equal offered load",
    )
    gwbench.add_argument("--n", type=int, default=60_000, help="dataset size")
    gwbench.add_argument("--requests", type=int, default=1000, help="requests per round")
    gwbench.add_argument(
        "--rate", type=float, default=250.0, help="offered open-loop arrival rate (req/s)"
    )
    gwbench.add_argument("--clients", type=int, default=8, help="socket client connections")
    gwbench.add_argument("--workers", type=int, default=8, help="service worker threads")
    gwbench.add_argument(
        "--preferences", type=int, default=64, help="distinct preference vectors"
    )
    gwbench.add_argument("--zipf", type=float, default=0.9, help="zipf exponent")
    gwbench.add_argument("--rounds", type=int, default=2, help="timed rounds per side")
    gwbench.add_argument(
        "--verify",
        action="store_true",
        help="re-derive every socket-served answer on a fresh engine",
    )
    gwbench.add_argument(
        "--smoke",
        action="store_true",
        help="small run with --verify; exit 1 on any non-identical/rejected "
        "response or a wire p95 price above the SLO ceiling",
    )
    gwbench.add_argument(
        "--pool-capacity",
        type=int,
        default=None,
        help="session pool capacity (default: sized to --preferences)",
    )
    gwbench.add_argument(
        "--out",
        type=Path,
        default=Path("results"),
        help="directory for gateway_throughput.txt (default: results/)",
    )

    for name, blurb in [
        (
            "perf-report",
            "diff current BENCH_*.json telemetry against an archived baseline",
        ),
        (
            "perf-gate",
            "same diff, but exit 1 on any regression beyond its noise band (CI)",
        ),
    ]:
        perf = sub.add_parser(name, help=blurb)
        perf.add_argument(
            "--baseline",
            type=Path,
            default=Path("benchmarks/baselines"),
            help="directory of archived BENCH_*.json records",
        )
        perf.add_argument(
            "--current",
            type=Path,
            default=Path("results"),
            help="directory of freshly produced BENCH_*.json records",
        )
        if name == "perf-report":
            perf.add_argument(
                "--promote",
                action="store_true",
                help="after reporting, archive the current records as the new baseline",
            )

    top = sub.add_parser(
        "top",
        help="live terminal dashboard over the observability stack (demo workload)",
    )
    top.add_argument(
        "--duration", type=float, default=30.0, help="seconds to run (live mode)"
    )
    top.add_argument(
        "--interval", type=float, default=1.0, help="seconds between repaints"
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="render a single plain frame and exit (no ANSI; for non-tty use)",
    )

    trace = sub.add_parser(
        "trace",
        help="drive a traced workload and print the slowest traces as waterfalls",
    )
    trace.add_argument("--n", type=int, default=12_000, help="dataset size")
    trace.add_argument("--requests", type=int, default=120, help="requests to serve")
    trace.add_argument("--clients", type=int, default=4, help="client threads")
    trace.add_argument("--workers", type=int, default=4, help="service worker threads")
    trace.add_argument(
        "--preferences", type=int, default=12, help="distinct preference vectors"
    )
    trace.add_argument("--top", type=int, default=3, help="slowest traces to print")

    stream = sub.add_parser(
        "stream",
        help="replay a dataset as an arrival stream of durability decisions",
    )
    stream.add_argument(
        "--workload", default="nba2", choices=["nba2", "network2", "ind"],
        help="dataset to replay",
    )
    stream.add_argument("--n", type=int, default=2_000, help="records to replay")
    stream.add_argument("--k", type=int, default=3, help="rank threshold")
    stream.add_argument("--tau", type=int, default=200, help="durability duration")
    stream.add_argument(
        "--weights", default=None,
        help="comma-separated preference weights (default: uniform)",
    )
    stream.add_argument(
        "--lookahead", action="store_true",
        help="also resolve look-ahead durability as later arrivals decide it",
    )
    stream.add_argument(
        "--limit", type=int, default=25,
        help="print at most this many durable arrivals (summary always prints)",
    )
    return parser


def _save_result(result, out: Path) -> None:
    """Persist one experiment result: stamped ``.txt`` plus ``BENCH_*.json``.

    The text report gets the environment-fingerprint header (so archived
    artifacts self-describe the box they ran on); results that carry
    structured ``metrics`` also emit a schema'd ``BENCH_<name>.json``
    record and append to the ``BENCH_HISTORY.jsonl`` trajectory — the
    inputs to ``perf-report`` / ``perf-gate``.
    """
    from repro.experiments.resultstore import (
        BenchRecord,
        environment_fingerprint,
        fingerprint_header,
        save_bench_record,
    )

    out.mkdir(parents=True, exist_ok=True)
    env = environment_fingerprint()
    (out / f"{result.name}.txt").write_text(
        fingerprint_header(env) + "\n" + result.report + "\n"
    )
    metrics = getattr(result, "metrics", None)
    if metrics:
        save_bench_record(
            BenchRecord(name=result.name, metrics=list(metrics), environment=env), out
        )


def _finish_bench(label, result, elapsed, out, smoke, failures, ok_message) -> int:
    """Shared tail of the bench subcommands: print, save, smoke-gate.

    ``failures`` are the subcommand-specific smoke checks (already
    evaluated); any entry fails the smoke run with exit code 1.
    """
    print(result.report)
    print(f"[{label} finished in {elapsed:.1f}s]")
    if out is not None:
        _save_result(result, out)
    if smoke:
        if failures:
            print("SMOKE FAILURE: " + "; ".join(failures))
            return 1
        print(ok_message)
    return 0


def _response_failures(data) -> list[str]:
    """Smoke checks every serving bench shares: nothing wrong, nothing refused."""
    failures = []
    if data["incorrect"]:
        failures.append(f"{data['incorrect']} incorrect response(s)")
    if data["rejected"]:
        failures.append(f"{data['rejected']} rejected response(s)")
    return failures


def _cache_bench(args) -> int:
    from repro.experiments.cache_bench import SMOKE_DEFAULTS, cache_speedup_bench

    kwargs = {
        "n": args.n,
        "requests": args.requests,
        "clients": args.clients,
        "workers": args.workers,
        "n_preferences": args.preferences,
        "zipf_s": args.zipf,
        "shapes_per_preference": args.shapes,
        "shape_zipf_s": args.shape_zipf,
        "rounds": args.rounds,
        "pool_capacity": args.pool_capacity,
        "cache_bytes": args.cache_mb * 1024 * 1024,
        "verify": args.verify or args.smoke,
    }
    if args.smoke:
        kwargs.update(SMOKE_DEFAULTS)
        kwargs["verify"] = True
    start = time.perf_counter()
    result = cache_speedup_bench(**kwargs)
    elapsed = time.perf_counter() - start
    failures = []
    if args.smoke:
        failures = _response_failures(result.data)
        if result.data["verified"] != result.data["requests"]:
            failures.append(
                f"serial re-derivation {result.data['verified']}/"
                f"{result.data['requests']}"
            )
        ingest = result.data["ingest"]
        if ingest and ingest["incorrect"]:
            failures.append(
                f"{ingest['incorrect']} live-ingest response(s) diverged from "
                "their frozen snapshot prefix"
            )
        if ingest and ingest["verified"] + ingest["rejected"] != ingest["requests"]:
            failures.append(
                f"live-ingest re-derivation covered "
                f"{ingest['verified'] + ingest['rejected']}/{ingest['requests']}"
            )
    return _finish_bench(
        "cache-bench",
        result,
        elapsed,
        args.out,
        args.smoke,
        failures,
        "smoke ok: every cached answer byte-identical to the uncached engine, "
        "including under live ingest",
    )


def _ingest_bench(args) -> int:
    from repro.experiments.ingest_bench import SMOKE_DEFAULTS, ingest_throughput_bench

    kwargs = {
        "n0": args.n,
        "requests": args.requests,
        "clients": args.clients,
        "workers": args.workers,
        "writers": args.writers,
        "batch_rows": args.batch_rows,
        "n_preferences": args.preferences,
        "seal_rows": args.seal_rows,
        "verify_sample": args.verify,
    }
    if args.smoke:
        kwargs.update(SMOKE_DEFAULTS)
    start = time.perf_counter()
    result = ingest_throughput_bench(**kwargs)
    elapsed = time.perf_counter() - start
    failures = []
    if args.smoke:
        failures = _response_failures(result.data)
        if not result.data["seals"]:
            failures.append("the background sealer never sealed a segment")
    return _finish_bench(
        "ingest-bench",
        result,
        elapsed,
        args.out,
        args.smoke,
        failures,
        "smoke ok: all responses served while ingesting and serially re-derived",
    )


def _obs_bench(args) -> int:
    from repro.experiments.obs_bench import (
        DISABLED_OVERHEAD_BOUND,
        SLO_OVERHEAD_BOUND,
        SMOKE_DEFAULTS,
        obs_overhead_bench,
    )

    kwargs = {
        "n": args.n,
        "requests": args.requests,
        "clients": args.clients,
        "workers": args.workers,
        "n_preferences": args.preferences,
        "zipf_s": args.zipf,
        "rounds": args.rounds,
    }
    if args.smoke:
        kwargs.update(SMOKE_DEFAULTS)
    start = time.perf_counter()
    result = obs_overhead_bench(**kwargs)
    elapsed = time.perf_counter() - start
    failures = []
    if args.smoke:
        failures = _response_failures(result.data)
        if result.data["disabled_overhead"] > DISABLED_OVERHEAD_BOUND:
            failures.append(
                f"disabled-path overhead bound {result.data['disabled_overhead']:.3%} "
                f"exceeds {DISABLED_OVERHEAD_BOUND:.0%}"
            )
        if result.data["slo_overhead"] > SLO_OVERHEAD_BOUND:
            failures.append(
                f"SLO-monitoring overhead {result.data['slo_overhead']:.3%} "
                f"exceeds {SLO_OVERHEAD_BOUND:.0%} of per-request wall"
            )
        if result.data["identical"] != result.data["requests"]:
            failures.append(
                f"byte-identity {result.data['identical']}/{result.data['requests']}"
            )
    return _finish_bench(
        "obs-bench",
        result,
        elapsed,
        args.out,
        args.smoke,
        failures,
        "smoke ok: disabled path and SLO accounting within bounds, "
        "traced answers byte-identical",
    )


def _gateway_serve(args) -> int:
    """``repro gateway`` — serve a demo-backed service until interrupted."""
    from repro.core.engine import DurableTopKEngine
    from repro.data import independent_uniform
    from repro.gateway import DurableTopKGateway, Tenant
    from repro.service import DurableTopKService, EngineBackend

    pairs = args.api_key if args.api_key else ["dev-key=dev"]
    keys = {}
    for pair in pairs:
        key, _, tenant = pair.partition("=")
        if not key or not tenant:
            print(f"--api-key must be KEY=TENANT, got {pair!r}")
            return 2
        keys[key] = Tenant(
            tenant,
            rate=args.tenant_rate,
            burst=args.tenant_burst,
            max_inflight=args.tenant_inflight,
        )
    from repro.cache import SemanticAnswerCache

    dataset = independent_uniform(args.n, 2, seed=7)
    with DurableTopKService(
        EngineBackend(DurableTopKEngine(dataset)),
        workers=args.workers,
        cache=SemanticAnswerCache(),
    ) as service:
        gateway = DurableTopKGateway(
            service, keys, host=args.host, port=args.port
        ).start()
        tenants = ", ".join(sorted(t.name for t in keys.values()))
        print(
            f"gateway serving n={args.n} on {args.host}:{gateway.port} "
            f"({args.workers} workers; tenants: {tenants}) — Ctrl-C to drain"
        )
        try:
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            print("draining...")
        finally:
            gateway.close()
    return 0


def _gateway_bench(args) -> int:
    from repro.experiments.gateway_bench import (
        SLO_P95_RATIO,
        SMOKE_DEFAULTS,
        gateway_throughput_bench,
    )

    kwargs = {
        "n": args.n,
        "requests": args.requests,
        "rate": args.rate,
        "clients": args.clients,
        "workers": args.workers,
        "n_preferences": args.preferences,
        "zipf_s": args.zipf,
        "rounds": args.rounds,
        "pool_capacity": args.pool_capacity,
        "verify": args.verify or args.smoke,
    }
    if args.smoke:
        kwargs.update(SMOKE_DEFAULTS)
        kwargs["verify"] = True
    start = time.perf_counter()
    result = gateway_throughput_bench(**kwargs)
    elapsed = time.perf_counter() - start
    failures = []
    if args.smoke:
        failures = _response_failures(result.data)
        if result.data["verified"] != result.data["requests"]:
            failures.append(
                f"socket re-derivation {result.data['verified']}/"
                f"{result.data['requests']}"
            )
        if result.data["p95_ratio"] > SLO_P95_RATIO:
            failures.append(
                f"wire p95 price {result.data['p95_ratio']:.2f}x exceeds the "
                f"{SLO_P95_RATIO}x SLO"
            )
    return _finish_bench(
        "gateway-bench",
        result,
        elapsed,
        args.out,
        args.smoke,
        failures,
        "smoke ok: every socket-served answer byte-identical on a fresh engine, "
        f"wire p95 price within {SLO_P95_RATIO}x SLO",
    )


def _perf(args, gate_mode: bool) -> int:
    from repro.experiments.perf import compare_dirs, format_report, gate, promote

    deltas, missing_current, missing_baseline = compare_dirs(args.baseline, args.current)
    print(format_report(deltas, missing_current, missing_baseline))
    verdict = gate(deltas)
    if gate_mode:
        if not deltas:
            # A gate with nothing to compare is a misconfiguration, not a pass.
            print(
                "perf-gate: no overlapping BENCH records between "
                f"{args.baseline} and {args.current}"
            )
            return 1
        return verdict
    if getattr(args, "promote", False):
        promoted = promote(args.current, args.baseline)
        print(
            f"promoted {len(promoted)} record(s) to {args.baseline}: "
            + ", ".join(promoted)
        )
    return 0


def _top(args) -> int:
    from repro.experiments.top import run_top

    run_top(duration=args.duration, interval=args.interval, once=args.once)
    return 0


def _trace(args) -> int:
    from repro.experiments.obs_bench import capture_traces
    from repro.obs import format_waterfall

    traces = capture_traces(
        n=args.n,
        requests=args.requests,
        clients=args.clients,
        workers=args.workers,
        n_preferences=args.preferences,
        top=args.top,
    )
    if not traces:
        print("no traces captured")
        return 1
    print(f"slowest {len(traces)} of {args.requests} requests (engine backend):\n")
    for trace in traces:
        print(format_waterfall(trace))
        print()
    return 0


def _stream(args) -> int:
    from repro.core.streaming import StreamingDurableMonitor
    from repro.scoring import LinearPreference

    if args.workload == "nba2":
        from repro.experiments.figures import nba2_dataset

        data = nba2_dataset(args.n)
    elif args.workload == "network2":
        from repro.experiments.figures import network2_dataset

        data = network2_dataset(args.n)
    else:
        from repro.data import independent_uniform

        data = independent_uniform(args.n, 2, seed=0)
    if args.weights is not None:
        weights = [float(w) for w in args.weights.split(",")]
    else:
        weights = [1.0 / data.d] * data.d
    scorer = LinearPreference(weights)
    scorer.validate_for(data.d)
    scores = scorer.scores(data.values)

    monitor = StreamingDurableMonitor(args.k, args.tau, track_lookahead=args.lookahead)
    print(
        f"streaming {data.name}: n={data.n}, k={args.k}, tau={args.tau}, "
        f"u={[round(w, 4) for w in weights]}"
        + (" (+look-ahead)" if args.lookahead else "")
    )
    printed = 0
    ahead_durable = 0
    for t in range(data.n):
        durable, resolutions = monitor.append(scores[t])
        if durable and printed < args.limit:
            rec = data.record(t)
            stamp = rec.timestamp if rec.timestamp is not None else t
            label = f" {rec.label}" if rec.label else ""
            print(
                f"  t={t} [{stamp}]{label} score={scores[t]:.4f} "
                f"durable on arrival (top-{args.k} of its last {args.tau})"
            )
            printed += 1
        for res in resolutions:
            ahead_durable += res.durable
            if res.durable and printed < args.limit:
                print(
                    f"  t={res.t} look-ahead durable "
                    f"(stood {args.tau} arrivals, decided at t={res.decided_at})"
                )
                printed += 1
    for res in monitor.finish():
        ahead_durable += res.durable
    total = len(monitor.durable_ids)
    if total > printed:
        print(f"  ... and more (printed {printed}, use --limit to raise)")
    print(
        f"{total}/{data.n} records look-back durable on arrival"
        + (f"; {ahead_durable} look-ahead durable" if args.lookahead else "")
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.log_json:
        from repro.obs import configure_json_logging

        configure_json_logging()
    if args.command == "list":
        for name, (_, description) in EXPERIMENTS.items():
            print(f"{name:8s} {description}")
        return 0
    if args.command == "cache-bench":
        return _cache_bench(args)
    if args.command == "ingest-bench":
        return _ingest_bench(args)
    if args.command == "obs-bench":
        return _obs_bench(args)
    if args.command == "gateway":
        return _gateway_serve(args)
    if args.command == "gateway-bench":
        return _gateway_bench(args)
    if args.command == "perf-report":
        return _perf(args, gate_mode=False)
    if args.command == "perf-gate":
        return _perf(args, gate_mode=True)
    if args.command == "top":
        return _top(args)
    if args.command == "trace":
        return _trace(args)
    if args.command == "stream":
        return _stream(args)

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        runner, _ = EXPERIMENTS[name]
        start = time.perf_counter()
        result = runner(args)
        elapsed = time.perf_counter() - start
        print(result.report)
        print(f"[{name} finished in {elapsed:.1f}s]\n")
        if args.out is not None:
            _save_result(result, args.out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
