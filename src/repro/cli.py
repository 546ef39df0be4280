"""Command-line interface.

Exposes the library's main workflows on edge-list files or the synthetic
catalog, so the system is usable without writing Python::

    python -m repro datasets
    python -m repro generate facebook --out stream.tsv --scale 0.5
    python -m repro characteristics facebook --scale 0.3
    python -m repro truth stream.tsv --delta-offset 1
    python -m repro topk stream.tsv --selector MMSD --m 40 --k 25
    python -m repro experiment table5 --scale 0.25
    python -m repro validate dirty.tsv
    python -m repro sanitize dirty.tsv --out clean.tsv --quarantine-dir q/
    python -m repro quarantine replay q/ --policy deletion=repair

Graph inputs: a catalog name (``actors``, ``internet``, ``facebook``,
``dblp``) or a path to an edge-list file — timestamped TSV
(``time<TAB>u<TAB>v[<TAB>w]``) or plain ``u v`` lines in arrival order.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from repro.core.algorithm import find_top_k_converging_pairs
from repro.core.pairs import (
    ENGINES,
    _resolve_engine,
    converging_pairs_at_threshold,
    delta_histogram,
    top_k_converging_pairs,
)
from repro.datasets import catalog, io
from repro.datasets.splits import EVAL_SPLIT
from repro.graph.dynamic import TemporalGraph
from repro.graph.pair import SnapshotPair
from repro.graph.validation import check_snapshot_pair
from repro.selection import available_selectors, get_selector


class CLIError(Exception):
    """A user-input problem (bad path, unknown name, malformed flag).

    Rendered by :func:`main` as a one-line ``error: ...`` message with
    exit code 2; internal failures keep their traceback and exit code 1.
    """


def _sniff_is_stream(path: Path) -> Optional[bool]:
    """Whether the first data line looks timestamped-TSV.

    ``None`` means the file holds no data lines at all.  Decoding is
    lenient here — undecodable bytes are the sanitizer's problem, not
    the sniffer's.
    """
    with path.open("rb") as fh:
        for bline in fh:
            line = bline.decode("utf-8", errors="replace").strip()
            if line and not line.startswith("#"):
                return len(line.split("\t")) >= 3
    return None


def _load_input(source: str, scale: float, seed: Optional[int]) -> TemporalGraph:
    """A catalog name or an edge-list path -> TemporalGraph."""
    if source.lower() in catalog.DATASETS:
        return catalog.load(source, scale=scale, seed=seed)
    path = Path(source)
    if not path.exists():
        raise CLIError(
            f"{source!r} is neither a catalog dataset "
            f"({', '.join(catalog.dataset_names())}) nor an existing file"
        )
    try:
        is_stream = _sniff_is_stream(path)
        if is_stream is None:
            raise CLIError(f"{source!r} contains no edges")
        if is_stream:
            return io.read_edge_stream(path)
        return io.read_edge_list(path)
    except (OSError, ValueError, UnicodeDecodeError) as exc:
        # Unreadable or malformed input is the user's to fix, not a bug.
        raise CLIError(f"cannot read {source!r}: {exc}") from exc


def _parse_policies(specs) -> Optional[dict]:
    """Repeated ``--policy rule=mode`` flags -> an overrides mapping."""
    if not specs:
        return None
    overrides = {}
    for spec in specs:
        rule, sep, mode = spec.partition("=")
        if not sep or not rule.strip() or not mode.strip():
            raise CLIError(
                f"--policy expects rule=mode (e.g. deletion=quarantine), "
                f"got {spec!r}"
            )
        overrides[rule.strip()] = mode.strip()
    return overrides


def _read_sanitized(path: Path, sanitizer) -> TemporalGraph:
    """Load either on-disk format through a sanitizer; errors -> CLIError."""
    from repro.ingest import IngestError

    if not path.exists():
        raise CLIError(f"no such file: {path}")
    try:
        is_stream = _sniff_is_stream(path)
        if is_stream is False:
            return io.read_edge_list(path, sanitizer=sanitizer)
        # Empty files go through the stream reader: zero lines, clean.
        return io.read_edge_stream(path, sanitizer=sanitizer)
    except OSError as exc:
        raise CLIError(f"cannot read {path}: {exc}") from exc
    except IngestError as exc:
        # A strict-policy rejection: the data's problem, located.
        raise CLIError(f"{path}: {exc}") from exc


def _snapshots(temporal: TemporalGraph, split: float):
    return temporal.snapshot_pair(split, 1.0)


def _print_pairs(pairs, limit: int) -> None:
    print(f"{'u':>8}  {'v':>8}  {'d_t1':>5}  {'d_t2':>5}  {'Δ':>4}")
    for p in pairs[:limit]:
        print(f"{p.u!s:>8}  {p.v!s:>8}  {p.d1:>5g}  {p.d2:>5g}  {p.delta:>4g}")
    if len(pairs) > limit:
        print(f"... {len(pairs) - limit} more")


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_datasets(args) -> int:
    for spec in catalog.DATASETS.values():
        print(f"{spec.name:10s} {spec.description}  [{spec.paper_dataset}]")
    return 0


def cmd_selectors(args) -> int:
    for name in available_selectors():
        print(name)
    return 0


def cmd_generate(args) -> int:
    temporal = catalog.load(args.dataset, scale=args.scale, seed=args.seed)
    io.write_edge_stream(temporal, args.out)
    print(f"wrote {temporal.num_events} events to {args.out}")
    return 0


def cmd_characteristics(args) -> int:
    temporal = _load_input(args.input, args.scale, args.seed)
    chars = catalog.characteristics(temporal, split=(args.split, 1.0))
    width = max(len(k) for k in chars)
    for key, value in chars.items():
        print(f"{key:<{width}}  {value:g}")
    return 0


def cmd_truth(args) -> int:
    temporal = _load_input(args.input, args.scale, args.seed)
    g1, g2 = _snapshots(temporal, args.split)
    try:
        _resolve_engine(g1, g2, args.engine)
    except ValueError as exc:
        raise CLIError(str(exc)) from None
    if args.k is not None:
        pairs = top_k_converging_pairs(g1, g2, k=args.k, engine=args.engine)
    else:
        # One validation and one snapshot pair serve both passes.
        check_snapshot_pair(g1, g2)
        pair = SnapshotPair.from_graphs(g1, g2)
        hist = delta_histogram(
            g1, g2, validate=False, engine=args.engine, pair=pair
        )
        positive = [d for d in hist if d > 0]
        if not positive:
            print("no converging pairs")
            return 0
        delta = max(1, max(positive) - args.delta_offset)
        pairs = converging_pairs_at_threshold(
            g1, g2, delta, validate=False, engine=args.engine, pair=pair
        )
        print(f"δ = {delta:g} (Δmax = {max(positive):g}), k = {len(pairs)}")
    _print_pairs(pairs, args.limit)
    return 0


def cmd_train(args) -> int:
    from repro.ml import save_model, train_local_classifier

    temporal = _load_input(args.input, args.scale, args.seed)
    model = train_local_classifier(
        temporal, num_landmarks=args.landmarks, seed=args.seed or 0
    )
    save_model(model, args.out)
    print(
        f"trained local classifier on {args.input} "
        f"(positive fraction {model.positive_fraction:.3f}); "
        f"saved to {args.out}"
    )
    return 0


def _build_cli_selector(args):
    if args.model is not None:
        from repro.ml import load_model
        from repro.selection import (
            GlobalClassifierSelector,
            LocalClassifierSelector,
        )

        model = load_model(args.model)
        if model.uses_graph_features:
            return GlobalClassifierSelector(model)
        return LocalClassifierSelector(model)
    try:
        try:
            return get_selector(args.selector, num_landmarks=args.landmarks)
        except TypeError:
            return get_selector(args.selector)
    except KeyError as exc:
        # get_selector's message lists the known names.
        raise CLIError(exc.args[0]) from None


def _check_workers(workers: int) -> int:
    """Validate a ``--workers`` value (returns it for chaining)."""
    if workers < 1:
        raise CLIError(f"--workers must be >= 1, got {workers}")
    return workers


def cmd_topk(args) -> int:
    temporal = _load_input(args.input, args.scale, args.seed)
    g1, g2 = _snapshots(temporal, args.split)
    selector = _build_cli_selector(args)
    result = find_top_k_converging_pairs(
        g1, g2, k=args.k, m=args.m, selector=selector, seed=args.seed or 0,
    )
    print(
        f"budget: {result.budget.spent}/{result.budget.limit} SSSPs "
        f"{result.budget.by_phase()}"
    )
    print(f"candidates ({len(result.candidates)}): "
          f"{', '.join(str(c) for c in result.candidates[:15])}"
          f"{' ...' if len(result.candidates) > 15 else ''}")
    _print_pairs(result.pairs, args.limit)
    return 0


def _parse_checkpoints(spec: str) -> list:
    """``"0.5,0.75,1.0"`` -> fractions; malformed input is a CLIError."""
    try:
        checkpoints = [float(c) for c in spec.split(",") if c.strip()]
    except ValueError as exc:
        raise CLIError(f"bad --checkpoints list {spec!r}: {exc}") from None
    if len(checkpoints) < 2:
        raise CLIError(
            f"--checkpoints needs at least two fractions, got {spec!r}"
        )
    return checkpoints


def _retry_policy(args, seed: int):
    from repro.resilience import RetryPolicy

    if args.deadline_s is not None and args.deadline_s <= 0:
        raise CLIError(
            f"--deadline-s must be positive, got {args.deadline_s:g}"
        )
    if args.max_retries <= 0:
        return None
    return RetryPolicy(max_retries=args.max_retries, seed=seed)


def _checkpoint_store(args):
    from repro.resilience import CheckpointStore

    if args.checkpoint_dir is None:
        if args.resume:
            raise CLIError("--resume requires --checkpoint-dir")
        return None
    return CheckpointStore(args.checkpoint_dir)


def cmd_monitor(args) -> int:
    from repro.core.monitoring import ConvergenceMonitor

    temporal = _load_input(args.input, args.scale, args.seed)
    checkpoints = _parse_checkpoints(args.checkpoints)

    def selector_factory():
        return get_selector(args.selector)

    try:
        monitor = ConvergenceMonitor(
            temporal,
            selector_factory=selector_factory,
            k=args.k,
            m=args.m,
            seed=args.seed or 0,
            retry_policy=_retry_policy(args, args.seed or 0),
            deadline_s=args.deadline_s,
            on_error=args.on_error,
            on_invalid_window=args.on_invalid_window,
            checkpoint_store=_checkpoint_store(args),
            resume=args.resume,
        )
    except ValueError as exc:
        # The monitor validates its knob combinations (k/m bounds,
        # on_error / on_invalid_window modes); a rejected combination is
        # user input, not a bug — exit 2, like every other flag error.
        raise CLIError(str(exc)) from None
    try:
        reports = monitor.run(checkpoints)
    except ValueError as exc:
        # Out-of-range / non-increasing fractions are user input errors.
        raise CLIError(str(exc)) from None
    for report in reports:
        window = f"{report.start_fraction:g} -> {report.end_fraction:g}"
        if not report.ok:
            print(f"window {window}: FAILED — {report.error}")
            continue
        best = report.pairs[0] if report.pairs else None
        headline = (
            f"best {best.pair} (Δ={best.delta:g})" if best else "no change"
        )
        resumed = " [resumed]" if report.resumed else ""
        print(
            f"window {window}: {len(report.pairs)} pairs, "
            f"{report.sp_spent} SSSPs — {headline}{resumed}"
        )
    movers = monitor.recurrent_nodes(min_windows=2)
    print(f"total SSSPs: {monitor.total_sp_spent()}")
    failed = monitor.failed_windows()
    if failed:
        print(f"failed windows: {len(failed)} (summaries are partial)")
    print(
        "recurrently converging nodes: "
        + (", ".join(str(u) for u in movers[:10]) if movers else "none")
    )
    return 0


def _chaos_hook_from_env():
    """``REPRO_CHAOS_KILL=<point>[:<n>]`` -> a SIGKILL-at-nth hook.

    The chaos acceptance suite sets this to die *mid-operation* (e.g.
    ``wal.append.mid:3``) and then asserts that a recovering run is
    byte-identical to an uninterrupted one.  Unset (production) means no
    hook at all.
    """
    import os
    import signal

    spec = os.environ.get("REPRO_CHAOS_KILL")
    if not spec:
        return None
    point, sep, nth_text = spec.partition(":")
    try:
        nth = int(nth_text) if sep else 1
    except ValueError:
        raise CLIError(
            f"bad REPRO_CHAOS_KILL spec {spec!r}: expected <point>[:<n>]"
        ) from None
    seen = {"count": 0}

    def hook(label: str) -> None:
        if label == point:
            seen["count"] += 1
            if seen["count"] >= nth:
                os.kill(os.getpid(), signal.SIGKILL)

    return hook


def _runtime_config_from_args(args):
    """Shared ``advance``/``serve``/``query`` flag validation."""
    from repro.runtime import RuntimeConfig

    if args.selector is not None:
        try:
            get_selector(args.selector)
        except (KeyError, ValueError) as exc:
            raise CLIError(str(exc)) from None
    if args.max_restarts < 0:
        raise CLIError(
            f"--max-restarts must be >= 0, got {args.max_restarts}"
        )
    try:
        return RuntimeConfig(
            k=args.k,
            batch_size=args.batch_size,
            checkpoint_every=args.checkpoint_every,
            selector=args.selector,
            m=args.m,
            seed=args.seed or 0,
        )
    except ValueError as exc:
        # The config validates its own knob combinations (k/batch
        # bounds, budgeted mode needing --m); a rejected combination is
        # user input — exit 2, like every other flag error.
        raise CLIError(str(exc)) from None


def _resource_guard_from_args(args):
    from repro.runtime import ResourceGuard

    if args.soft_memory_mb is None and args.soft_time_s is None:
        return None
    try:
        return ResourceGuard(
            soft_memory_mb=args.soft_memory_mb,
            soft_time_s=args.soft_time_s,
        )
    except ValueError as exc:
        raise CLIError(str(exc)) from None


def _runtime_from_args(args, *, guard=None, chaos=None):
    """Open (= recover) the stream runtime described by the flags."""
    from repro.runtime import (
        RuntimeRecoveryError,
        StreamRuntime,
        WALError,
    )

    config = _runtime_config_from_args(args)
    temporal = _load_input(args.input, args.scale, args.seed)
    try:
        return StreamRuntime(
            temporal,
            args.wal_dir,
            config,
            max_restarts=args.max_restarts,
            guard=guard,
            chaos=chaos,
        )
    except (WALError, RuntimeRecoveryError) as exc:
        # A WAL/checkpoint directory this run cannot safely resume from
        # is an operator-fixable state problem, not an internal bug.
        raise CLIError(str(exc)) from None


def cmd_advance(args) -> int:
    if args.max_batches is not None and args.max_batches < 1:
        raise CLIError(
            f"--max-batches must be >= 1, got {args.max_batches}"
        )
    runtime = _runtime_from_args(
        args,
        guard=_resource_guard_from_args(args),
        chaos=_chaos_hook_from_env(),
    )
    report = runtime.run(max_batches=args.max_batches)
    print(report.render(limit=args.limit))
    return 0


def _service_address(args):
    """``--socket`` / ``--host``+``--port`` flags -> a service address."""
    if args.socket is not None:
        return ("unix", str(args.socket))
    if args.port is None:
        raise CLIError("need --socket PATH or --port N to reach the service")
    return ("tcp", args.host, args.port)


def cmd_serve(args) -> int:
    import asyncio

    from repro.service import canonical_json

    if args.status:
        from repro.service.client import ServiceClientError, one_shot

        address = _service_address(args)
        try:
            response = one_shot(address, "health")
        except (OSError, ServiceClientError) as exc:
            raise CLIError(f"cannot reach service: {exc}") from None
        print(canonical_json(response))
        return 0 if response.get("ok") else 1

    from repro.service import ConvergenceService

    if args.input is None:
        raise CLIError("serve needs an input stream (or --status)")
    if args.wal_dir is None:
        raise CLIError("serve needs --wal-dir (or --status)")
    if args.capacity < 1:
        raise CLIError(f"--capacity must be >= 1, got {args.capacity}")
    if args.advance_batches < 1:
        raise CLIError(
            f"--advance-batches must be >= 1, got {args.advance_batches}"
        )
    if args.socket is None and args.port is None:
        args.port = 0  # ephemeral TCP; the ready line carries the port
    address = _service_address(args)
    chaos = _chaos_hook_from_env()
    runtime = _runtime_from_args(args, chaos=chaos)
    service = ConvergenceService(
        runtime,
        capacity=args.capacity,
        advance_batches=args.advance_batches,
        guard=_resource_guard_from_args(args),
        chaos=chaos,
    )

    def ready(bound) -> None:
        print(
            canonical_json({"event": "ready", "address": list(bound)}),
            flush=True,
        )

    asyncio.run(service.serve(address, ready=ready))
    print(
        canonical_json({
            "event": "drained",
            "served": service.counters.served,
            "version": runtime.state_version,
        }),
        flush=True,
    )
    return 0


def cmd_query(args) -> int:
    from repro.service import ProtocolError, canonical_json, compute_answer

    runtime = _runtime_from_args(args)
    query_args = {}
    if args.query_k is not None:
        query_args["k"] = args.query_k
    if args.verb == "node":
        if args.u is None:
            raise CLIError("query node requires --u")
        query_args["u"] = _parse_node_id(args.u)
    try:
        result = compute_answer(runtime, args.verb, query_args)
    except ProtocolError as exc:
        raise CLIError(str(exc)) from None
    print(
        canonical_json({
            "result": result,
            "version": runtime.state_version,
        })
    )
    return 0


def _parse_node_id(text: str):
    """CLI node ids mirror the stream reader: integer-looking -> int."""
    try:
        return int(text)
    except ValueError:
        return text


def cmd_validate(args) -> int:
    """Dry-run the sanitizer and report stream health.

    Exit codes follow lint conventions: 0 = clean, 1 = issues found,
    2 = unreadable input.
    """
    from repro.ingest import Sanitizer

    sanitizer = Sanitizer(buffer_size=args.buffer_size)
    _read_sanitized(Path(args.input), sanitizer)
    report = sanitizer.report
    print(report.summary())
    return 0 if report.clean else 1


def cmd_sanitize(args) -> int:
    from repro.ingest import QuarantineStore, Sanitizer

    store = (
        QuarantineStore(args.quarantine_dir)
        if args.quarantine_dir is not None else None
    )
    try:
        sanitizer = Sanitizer(
            _parse_policies(args.policy),
            buffer_size=args.buffer_size,
            quarantine=store,
        )
    except ValueError as exc:
        raise CLIError(str(exc)) from None
    temporal = _read_sanitized(Path(args.input), sanitizer)
    io.write_edge_stream(temporal, args.out)
    print(sanitizer.report.summary())
    print(f"wrote {temporal.num_events} events to {args.out}")
    if store is not None:
        print(
            f"quarantined {len(sanitizer.records)} record(s) "
            f"to {args.quarantine_dir}"
        )
    return 0


def cmd_quarantine(args) -> int:
    from repro.ingest import (
        QuarantineError,
        QuarantineStore,
        replay_quarantine,
    )

    if args.action == "show":
        try:
            run = QuarantineStore(args.dir).load()
        except QuarantineError as exc:
            raise CLIError(str(exc)) from None
        print(f"source      {run.source}")
        print(f"sha256      {run.source_sha256}")
        print(f"buffer_size {run.buffer_size}")
        print("policies    " + ", ".join(
            f"{name}={mode}" for name, mode in sorted(run.policies.items())
        ))
        print(f"records     {len(run.records)}")
        for rec in run.records[:args.limit]:
            print(f"  line {rec.lineno} [{rec.rule}] {rec.reason}")
        if len(run.records) > args.limit:
            print(f"  ... {len(run.records) - args.limit} more")
        return 0

    # replay
    try:
        temporal, sanitizer = replay_quarantine(
            args.dir, _parse_policies(args.policy)
        )
    except (QuarantineError, ValueError) as exc:
        raise CLIError(str(exc)) from None
    print(sanitizer.report.summary())
    if args.out is not None:
        io.write_edge_stream(temporal, args.out)
        print(f"wrote {temporal.num_events} events to {args.out}")
    return 0


def cmd_lint(args) -> int:
    from repro.lint.cli import run_lint

    return run_lint(args)


def cmd_experiment(args) -> int:
    from repro.experiments import ExperimentConfig
    from repro.experiments import (
        figure1,
        figure2,
        figure3,
        table1,
        table2,
        table3,
        table5,
        table6,
    )

    modules = {
        "table1": table1, "table2": table2, "table3": table3,
        "table5": table5, "table6": table6, "figure1": figure1,
        "figure2": figure2, "figure3": figure3,
    }
    if args.name not in modules:
        raise CLIError(
            f"unknown experiment {args.name!r}; "
            f"choose from {', '.join(modules)}"
        )
    module = modules[args.name]
    overrides = {}
    if args.datasets is not None:
        from repro.datasets import catalog as _catalog

        names = [d.strip() for d in args.datasets.split(",") if d.strip()]
        unknown = [d for d in names if d not in _catalog.DATASETS]
        if unknown or not names:
            raise CLIError(
                f"unknown dataset(s) {', '.join(unknown) or args.datasets!r}; "
                f"choose from {', '.join(_catalog.dataset_names())}"
            )
        overrides["datasets"] = tuple(names)
    if args.checkpoint_dir is None and args.resume:
        raise CLIError("--resume requires --checkpoint-dir")
    if args.deadline_s is not None and args.deadline_s <= 0:
        raise CLIError(
            f"--deadline-s must be positive, got {args.deadline_s:g}"
        )
    config = ExperimentConfig(
        scale=args.scale,
        workers=_check_workers(args.workers),
        checkpoint_dir=(
            str(args.checkpoint_dir) if args.checkpoint_dir else None
        ),
        resume=args.resume,
        max_retries=args.max_retries,
        deadline_s=args.deadline_s,
        on_error=args.on_error,
        experiment=args.name,
        **overrides,
    )
    result = module.run(config)
    print(module.render(result))
    if args.json is not None:
        from repro.experiments.export import write_json

        write_json(result, args.json)
        print(f"wrote {args.json}")
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def _add_input_options(sub, with_split=True) -> None:
    sub.add_argument("input", help="catalog dataset name or edge-list path")
    sub.add_argument("--scale", type=float, default=1.0,
                     help="catalog scale factor (ignored for files)")
    sub.add_argument("--seed", type=int, default=None,
                     help="generator / selector seed")
    if with_split:
        sub.add_argument("--split", type=float, default=EVAL_SPLIT[0],
                         help="fraction of the stream forming G_t1 "
                              "(default 0.8)")


def _add_runtime_options(sub, wal_required: bool = True) -> None:
    """The streaming-runtime flags shared by advance/serve/query."""
    sub.add_argument("--wal-dir", type=Path, required=wal_required,
                     help="durable state root: the write-ahead log plus "
                          "the checkpoint store (see docs/runtime.md)")
    sub.add_argument("--k", type=int, default=10,
                     help="top-k pairs per window")
    sub.add_argument("--batch-size", type=int, default=8,
                     help="events per WAL-logged batch")
    sub.add_argument("--checkpoint-every", type=int, default=4,
                     help="batches per window close + checkpoint + "
                          "WAL compaction")
    sub.add_argument("--selector", default=None,
                     help="close windows with the budgeted algorithm "
                          "using this selector (default: exact top-k)")
    sub.add_argument("--m", type=int, default=0,
                     help="candidate budget for --selector windows")
    sub.add_argument("--max-restarts", type=int, default=3,
                     help="lifetime window-computation restarts before "
                          "the supervisor gives up")


def _add_resilience_options(sub) -> None:
    """The long-run recovery flags shared by `experiment` and `monitor`."""
    sub.add_argument("--checkpoint-dir", type=Path, default=None,
                     help="persist each completed unit of work here "
                          "(atomic JSON records; see docs/resilience.md)")
    sub.add_argument("--resume", action="store_true",
                     help="reuse valid checkpoints from --checkpoint-dir "
                          "instead of recomputing completed units")
    sub.add_argument("--max-retries", type=int, default=0,
                     help="retries per unit (exponential backoff) before "
                          "the failure escalates (default 0)")
    sub.add_argument("--deadline-s", type=float, default=None,
                     help="per-unit deadline in seconds, checked between "
                          "retry attempts")
    sub.add_argument("--on-error", choices=("fail", "skip"), default="fail",
                     help="'fail' aborts on a unit failure; 'skip' records "
                          "it (cell rendered as —, window marked FAILED) "
                          "and continues")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Identifying converging pairs of nodes on a budget "
                    "(EDBT 2015 reproduction).",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    subs.add_parser("datasets", help="list the synthetic catalog").set_defaults(
        func=cmd_datasets
    )
    subs.add_parser("selectors", help="list candidate selectors").set_defaults(
        func=cmd_selectors
    )

    gen = subs.add_parser("generate", help="write a synthetic edge stream")
    gen.add_argument("dataset", choices=catalog.dataset_names())
    gen.add_argument("--out", required=True, type=Path)
    gen.add_argument("--scale", type=float, default=1.0)
    gen.add_argument("--seed", type=int, default=None)
    gen.set_defaults(func=cmd_generate)

    chars = subs.add_parser("characteristics",
                            help="Table 2-style dataset characteristics")
    _add_input_options(chars)
    chars.set_defaults(func=cmd_characteristics)

    truth = subs.add_parser("truth", help="exact top-k converging pairs")
    _add_input_options(truth)
    truth.add_argument("--k", type=int, default=None,
                       help="explicit k (default: δ-threshold rule)")
    truth.add_argument("--delta-offset", type=int, default=1,
                       help="δ = Δmax − offset when --k is absent")
    truth.add_argument("--limit", type=int, default=20,
                       help="pairs to print")
    truth.add_argument("--engine", default="auto", choices=ENGINES,
                       help="ground-truth engine (auto: csr, msbfs rows "
                            "on both snapshots, for unweighted snapshots; "
                            "dict otherwise)")
    truth.set_defaults(func=cmd_truth)

    topk = subs.add_parser("topk", help="budgeted top-k (Algorithm 1)")
    _add_input_options(topk)
    topk.add_argument("--selector", default="MMSD",
                      help="candidate selector (see `repro selectors`)")
    topk.add_argument("--m", type=int, default=40,
                      help="candidate budget (2m SSSPs total)")
    topk.add_argument("--k", type=int, default=20)
    topk.add_argument("--landmarks", type=int, default=10)
    topk.add_argument("--limit", type=int, default=20)
    topk.add_argument("--model", type=Path, default=None,
                      help="saved classifier model (.npz) — overrides "
                           "--selector with the matching classifier")
    topk.set_defaults(func=cmd_topk)

    train = subs.add_parser(
        "train", help="train and save a local classifier for a dataset"
    )
    _add_input_options(train, with_split=False)
    train.add_argument("--out", required=True, type=Path)
    train.add_argument("--landmarks", type=int, default=10)
    train.set_defaults(func=cmd_train)

    mon = subs.add_parser(
        "monitor", help="continuous monitoring over stream checkpoints"
    )
    _add_input_options(mon, with_split=False)
    mon.add_argument("--checkpoints", default="0.5,0.75,1.0",
                     help="comma-separated stream fractions")
    mon.add_argument("--selector", default="SumDiff")
    mon.add_argument("--k", type=int, default=15)
    mon.add_argument("--m", type=int, default=20)
    mon.add_argument("--on-invalid-window",
                     choices=("fail", "skip-and-log", "repair"),
                     default="fail",
                     help="what to do when a window's snapshot pair "
                          "violates the insertion-only model (e.g. the "
                          "stream carries a deletion): abort, skip the "
                          "window, or repair the later snapshot")
    _add_resilience_options(mon)
    mon.set_defaults(func=cmd_monitor)

    adv = subs.add_parser(
        "advance",
        help="crash-safe streaming advancement (WAL + checkpoints); "
             "re-running the same --wal-dir resumes exactly where the "
             "previous run stopped",
    )
    _add_input_options(adv, with_split=False)
    _add_runtime_options(adv)
    adv.add_argument("--max-batches", type=int, default=None,
                     help="stop (resumably) after this many new batches")
    adv.add_argument("--soft-memory-mb", type=float, default=None,
                     help="soft peak-RSS budget: checkpoint and shed "
                          "instead of running into the OOM killer")
    adv.add_argument("--soft-time-s", type=float, default=None,
                     help="soft elapsed-time budget: checkpoint and "
                          "shed when exceeded")
    adv.add_argument("--limit", type=int, default=5,
                     help="pairs to print per window")
    adv.set_defaults(func=cmd_advance)

    srv = subs.add_parser(
        "serve",
        help="always-on query service over a runtime --wal-dir: "
             "line-delimited JSON over TCP or a UNIX socket "
             "(see docs/service.md)",
    )
    srv.add_argument("input", nargs="?", default=None,
                     help="catalog dataset name or edge-list path "
                          "(not needed with --status)")
    srv.add_argument("--scale", type=float, default=1.0,
                     help="catalog scale factor (ignored for files)")
    srv.add_argument("--seed", type=int, default=None,
                     help="generator / selector seed")
    _add_runtime_options(srv, wal_required=False)
    srv.add_argument("--socket", type=Path, default=None,
                     help="serve on (or query) this UNIX socket path")
    srv.add_argument("--host", default="127.0.0.1",
                     help="TCP bind host (with --port)")
    srv.add_argument("--port", type=int, default=None,
                     help="TCP port (0 = ephemeral; the ready line "
                          "carries the bound port)")
    srv.add_argument("--capacity", type=int, default=64,
                     help="admission queue bound; arrivals past it are "
                          "rejected with code over_capacity")
    srv.add_argument("--advance-batches", type=int, default=1,
                     help="stream batches ingested per advance request")
    srv.add_argument("--soft-memory-mb", type=float, default=None,
                     help="soft peak-RSS budget: shed the queue, then "
                          "checkpoint")
    srv.add_argument("--soft-time-s", type=float, default=None,
                     help="soft elapsed-time budget: shed the queue, "
                          "then checkpoint")
    srv.add_argument("--status", action="store_true",
                     help="query a running service's health and exit")
    srv.set_defaults(func=cmd_serve)

    qry = subs.add_parser(
        "query",
        help="batch convergence query against a checkpointed --wal-dir "
             "(the differential oracle for `repro serve` answers)",
    )
    qry.add_argument("verb", choices=("topk", "node"),
                     help="global top-k pairs, or partners converging "
                          "toward one node")
    _add_input_options(qry, with_split=False)
    _add_runtime_options(qry)
    qry.add_argument("--query-k", type=int, default=None,
                     help="answer size (default: the runtime's k)")
    qry.add_argument("--u", default=None,
                     help="the focal node for `query node`")
    qry.set_defaults(func=cmd_query)

    val = subs.add_parser(
        "validate",
        help="dry-run the stream sanitizer and report health "
             "(exit 0 clean, 1 issues, 2 unreadable)",
    )
    val.add_argument("input", help="edge-stream or edge-list path")
    val.add_argument("--buffer-size", type=int, default=64,
                     help="timestamp reorder-buffer capacity (events)")
    val.set_defaults(func=cmd_validate)

    san = subs.add_parser(
        "sanitize",
        help="clean a dirty edge stream into a canonical TSV",
    )
    san.add_argument("input", help="edge-stream or edge-list path")
    san.add_argument("--out", required=True, type=Path,
                     help="where to write the sanitized stream")
    san.add_argument("--policy", action="append", default=None,
                     metavar="RULE=MODE",
                     help="per-rule policy override (repeatable), e.g. "
                          "--policy deletion=quarantine; rules: "
                          "self-loop, deletion, weight-increase, "
                          "duplicate, out-of-order, parse; modes: "
                          "strict, repair, quarantine")
    san.add_argument("--quarantine-dir", type=Path, default=None,
                     help="persist diverted events here (atomic, "
                          "checksummed; enables `repro quarantine`)")
    san.add_argument("--buffer-size", type=int, default=64,
                     help="timestamp reorder-buffer capacity (events)")
    san.set_defaults(func=cmd_sanitize)

    quar = subs.add_parser(
        "quarantine",
        help="inspect or replay a quarantine directory",
    )
    quar.add_argument("action", choices=("show", "replay"))
    quar.add_argument("dir", type=Path,
                      help="directory written by sanitize --quarantine-dir")
    quar.add_argument("--policy", action="append", default=None,
                      metavar="RULE=MODE",
                      help="policy overrides applied over the recorded "
                           "run configuration before replaying")
    quar.add_argument("--out", type=Path, default=None,
                      help="write the replayed sanitized stream here")
    quar.add_argument("--limit", type=int, default=10,
                      help="records to list under `show`")
    quar.set_defaults(func=cmd_quarantine)

    lint = subs.add_parser(
        "lint",
        help="check the determinism/budget invariants (reprolint)",
    )
    from repro.lint.cli import add_lint_arguments

    add_lint_arguments(lint)
    lint.set_defaults(func=cmd_lint)

    exp = subs.add_parser("experiment", help="run one paper artefact")
    exp.add_argument("name", help="table1/2/3/5/6 or figure1/2/3")
    exp.add_argument("--scale", type=float, default=0.5)
    exp.add_argument("--json", type=Path, default=None,
                     help="also write the raw result as JSON")
    exp.add_argument("--datasets", default=None,
                     help="comma-separated catalog subset to run "
                          "(default: all four)")
    exp.add_argument("--workers", type=int, default=1,
                     help="process-pool workers for independent coverage "
                          "cells (1 = serial; output is byte-identical "
                          "at any worker count)")
    _add_resilience_options(exp)
    exp.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code.

    User-input problems (:class:`CLIError`) print one ``error:`` line
    and return 2; internal failures propagate with their traceback
    (exit code 1 when run as a script), so bugs stay loud.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
