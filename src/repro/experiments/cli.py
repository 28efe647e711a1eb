"""Command-line entry point for regenerating the paper's experiments.

Usage::

    python -m repro list
    python -m repro run fig8 --workload nba2
    python -m repro run all --out results/
    python -m repro gateway --port 8334
    python -m repro top --once
    python -m repro trace --top 3
    python -m repro stream --workload nba2 --k 3 --tau 500 --lookahead

Each experiment prints the same table/series its benchmark counterpart
saves, so results can be regenerated without pytest; ``--out`` also
saves each report, stamped with an environment fingerprint.
``gateway`` serves the durable top-k service over TCP (length-prefixed
JSON frames, per-tenant API keys) until interrupted. ``top`` repaints a
live terminal dashboard over the observability stack (``--once``
renders a single plain frame for non-tty use). ``trace`` drives a
traced workload and prints the slowest requests as per-layer
waterfalls; ``--log-json`` (global) switches diagnostics to structured
JSON log lines. ``stream`` replays a dataset as an arrival stream
through the online :class:`~repro.core.streaming.StreamingDurableMonitor`
and prints each record's durability decision the moment it is
decidable. The serving stack's performance is measured by
``perfbench/run.py``, not by this CLI.
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
    """Write one experiment report, stamped with the environment fingerprint."""
    from repro.experiments.resultstore import fingerprint_header

    out.mkdir(parents=True, exist_ok=True)
    (out / f"{result.name}.txt").write_text(
        fingerprint_header() + "\n" + result.report + "\n"
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


def _top(args) -> int:
    from repro.experiments.top import run_top

    run_top(duration=args.duration, interval=args.interval, once=args.once)
    return 0


def _trace(args) -> int:
    """Drive a traced engine-backed workload; print the slowest waterfalls.

    Each printed tree runs from the service batch down to the index calls.
    """
    from repro.core.engine import DurableTopKEngine
    from repro.data import independent_uniform
    from repro.obs import TRACES, disable, enable, format_waterfall
    from repro.service import (
        DurableTopKService,
        EngineBackend,
        WorkloadGenerator,
        WorkloadSpec,
        run_pipelined,
    )

    seed = 7
    dataset = independent_uniform(args.n, 2, seed=seed)
    spec = WorkloadSpec(
        n_preferences=args.preferences,
        d=2,
        zipf_s=0.9,
        k_choices=(5, 10),
        tau_fractions=(0.05, 0.10),
        interval_fractions=(0.02, 0.05),
        algorithms=("t-hop",),
        seed=seed,
    )
    stream = WorkloadGenerator(spec, dataset.n).requests(args.requests)
    TRACES.clear()
    enable()
    try:
        with DurableTopKService(
            EngineBackend(DurableTopKEngine(dataset)),
            workers=args.workers,
            max_queue=max(4096, 4 * len(stream)),
            max_batch=16,
            pool_capacity=args.preferences,
        ) as service:
            run_pipelined(service.submit, stream, clients=args.clients)
    finally:
        disable()
    traces = TRACES.slowest(args.top)
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
    if args.command == "gateway":
        return _gateway_serve(args)
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
