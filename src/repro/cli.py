"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``info``
    Print the package inventory: algorithms, datasets, default hardware
    configuration.
``query``
    Run one pairwise query through a chosen engine over a generated
    streaming workload and print per-batch answers and work.
``experiment``
    Regenerate one of the paper's artifacts (``table2``, ``table3``,
    ``fig2``, ``fig5a``, ``fig5b``, ``table4``) at the current scale and
    print its markdown section, shape line included.
``validate``
    Differential check: every engine against the reference solver on a
    random stream (useful as a smoke test on new machines).
``report``
    Run the four measured artifacts and render the measured-vs-paper
    markdown report: the same sections ``experiment`` prints.
``genstream``
    Generate a streaming workload and save it to a file for replay.
``recover``
    Restore a crashed resilient pipeline (checkpoint + WAL tail) from its
    state directory and report the recovered stream position and answer.
``wal-verify``
    Scan a write-ahead-log directory and report integrity statistics
    (records, torn tails, corrupt records); exits non-zero on damage.
``serve``
    Run a scripted concurrent query-serving session (standing queries,
    sharded workers, admission control, result cache) over a dataset's
    initial graph; see ``docs/serving.md`` for the script grammar.
``chaos``
    Play deterministic seeded fault schedules (shard kills, hangs, inbox
    saturation, WAL tears, plus the overload schedules: flash crowds,
    hot-key skew, slow shards) against a live serving harness and verify
    that self-healing converges to an uninterrupted offline replay;
    ``--adaptive`` attaches the runtime controller and also fails the run
    on SLO regression; see ``docs/self_healing.md`` and
    ``docs/adaptive_control.md``.
``control-log``
    Render the adaptive controller's decision audit (what knob moved,
    when, why, under which diagnosed condition) from a
    ``control_audit*.jsonl`` export or the ``controller.decision`` trace
    points of an ``events.jsonl``.
``telemetry``
    Summarize, dump or export a telemetry directory written by a
    ``--telemetry PATH`` run (events.jsonl + metrics.json + metrics.prom);
    ``summarize --top N`` adds the N slowest span instances and per-trace
    duration rollups.
``trace``
    Render per-batch causal waterfalls (ingest -> WAL -> shard fan-out ->
    barrier -> commit -> answers) with critical-path attribution from an
    exported events.jsonl; see ``docs/tracing.md``.
``bench``
    Production traffic simulation: ``bench traffic`` plays a seeded
    open-loop profile (``steady``, ``diurnal``, ``flash-crowd``) against
    a live serving harness on a virtual clock and writes an isolated,
    SLO-graded bundle under ``results/<run_id>/``; ``bench reproduce``
    replays a bundle's manifest and checks the summary still holds;
    ``bench profiles`` lists the builtin profiles.  See
    ``docs/traffic.md``.

``query`` and ``experiment`` accept ``--telemetry PATH``: the run executes
with the unified observability layer (:mod:`repro.obs`) enabled and exports
the JSONL event log, the metrics snapshot and a Prometheus text file into
``PATH``.  Without the flag, telemetry is fully disabled (zero overhead).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import List, Optional, Sequence

from repro import baselines
from repro.algorithms import list_algorithms, table2_rows
from repro.bench.datasets import (
    dataset_by_abbreviation,
    dataset_specs,
    make_workload,
    pick_query_pairs,
    table3_rows,
)
from repro.query import PairwiseQuery

@contextlib.contextmanager
def _telemetry_session(path: Optional[str]):
    """Enable the observability layer for the body and export on exit.

    With ``path`` unset this is a no-op yielding None — engines then skip
    every instrumentation branch, preserving the zero-overhead default.
    """
    if not path:
        yield None
        return
    from repro.obs import Telemetry, use_telemetry
    from repro.obs.telemetry import FLIGHT_DIRNAME

    telemetry = Telemetry()
    # flight-recorder bundles dumped mid-run (shard crash, chaos fault,
    # strict-close failure) land on disk immediately, not just at export
    telemetry.flight.directory = os.path.join(path, FLIGHT_DIRNAME)
    with use_telemetry(telemetry):
        yield telemetry
    paths = telemetry.export_dir(path)
    line = (
        f"telemetry: {len(telemetry.events)} events "
        f"({telemetry.events.dropped} dropped) -> {paths['events']}, "
        f"{paths['metrics']}, {paths['prometheus']}"
    )
    if telemetry.flight.bundles:
        line += (
            f"; {len(telemetry.flight.bundles)} flight bundle(s) -> "
            f"{os.path.join(path, FLIGHT_DIRNAME)}"
        )
    print(line)


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------
def _script_verbs(runner: type) -> List[str]:
    """The verbs a serve script runner accepts: its ``_cmd_*`` handlers, in
    definition order (``_cmd_a_b`` answers ``a-b``)."""
    return [
        name[len("_cmd_"):].replace("_", "-")
        for name in vars(runner) if name.startswith("_cmd_")
    ]


def cmd_info(args: argparse.Namespace) -> int:
    """Print the algorithm/dataset/hardware inventory."""
    from repro.bench.reporting import render_table2_markdown, render_table3_markdown

    print(render_table2_markdown(table2_rows()))
    print()
    print(render_table3_markdown(table3_rows()))
    print()
    from repro.hw.config import AcceleratorConfig

    config = AcceleratorConfig()
    print("Accelerator (Table I):")
    print(f"  pipelines:         {config.pipelines} @ {config.freq_ghz} GHz")
    print(f"  propagation units: {config.propagate_units}")
    print(f"  SPM:               {config.spm.size_bytes // (1024 * 1024)} MB, "
          f"{config.spm.ways}-way, {config.spm.ports} ports")
    print(f"  DRAM:              {config.dram.channels}x DDR4 channels")
    print()
    from repro.serve.protocol import ScriptRunner
    from repro.serve.session import SessionState

    print("Serving (repro serve, docs/serving.md):")
    print("  script commands:   " + ", ".join(_script_verbs(ScriptRunner)))
    print("  shed policies:     reject (fail fast), delay (park until deadline)")
    print("  session lifecycle: "
          + " -> ".join(s.value for s in SessionState))
    print("  result cache:      one solve per epoch per unowned source "
          "(see docs/serving.md)")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    """Run one pairwise query through a chosen engine over a stream."""
    from repro.algorithms import get_algorithm

    spec = dataset_by_abbreviation(args.dataset)
    workload = make_workload(spec, num_batches=args.batches, seed=args.seed)
    if args.source is None or args.destination is None:
        query = pick_query_pairs(workload.initial, count=1, seed=args.seed)[0]
    else:
        query = PairwiseQuery(args.source, args.destination)

    factory = baselines.ENGINES[args.engine]
    with _telemetry_session(args.telemetry):
        engine = factory(
            workload.replay.initial_graph, get_algorithm(args.algorithm), query
        )
        answer = engine.initialize()
        print(f"{engine.name} on {spec.name}: {query} initial answer = {answer:g}")
        for step in workload.replay.batches():
            result = engine.on_batch(step.batch)
            line = (
                f"batch {step.snapshot_id}: answer={result.answer:g} "
                f"relaxations={result.total_ops.relaxations}"
            )
            if "useless_fraction" in result.stats:
                line += f" useless={100 * result.stats['useless_fraction']:.0f}%"
            if "response_cycles" in result.stats:
                line += f" response_cycles={int(result.stats['response_cycles'])}"
            print(line)
    return 0


def _algorithms(args: argparse.Namespace) -> List[str]:
    return list_algorithms() if args.algorithm == "all" else [args.algorithm]


def cmd_experiment(args: argparse.Namespace) -> int:
    """Run one of the paper's artifacts and print its markdown section."""
    from repro.bench.reporting import ARTIFACTS, paper_inputs

    artifact = ARTIFACTS[args.name]
    needs_workload = artifact.datasets != "none"
    specs = [dataset_by_abbreviation(args.dataset)] if needs_workload else []
    workloads, queries = paper_inputs(specs, args.pairs, args.batches, args.seed)
    with _telemetry_session(args.telemetry):
        print(artifact.section(artifact.run(workloads, queries, _algorithms(args))))
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    """Differentially validate every engine against the reference."""
    from repro.validate import validate_engines

    report = validate_engines(
        num_vertices=args.vertices,
        num_edges=args.edges,
        num_batches=args.batches,
        seed=args.seed,
        algorithms=_algorithms(args),
    )
    for line in report.lines:
        print(line)
    if report.ok:
        print(f"OK: {report.checks} checks passed")
        return 0
    print("FAILED", file=sys.stderr)
    return 1


def cmd_report(args: argparse.Namespace) -> int:
    """Render the measured-vs-paper markdown report."""
    from repro.bench.reporting import paper_inputs, run_report

    workloads, queries = paper_inputs(
        dataset_specs(), args.pairs, args.batches, args.seed
    )
    report = run_report(workloads, queries, _algorithms(args))
    if args.output == "-":
        print(report)
    else:
        with open(args.output, "w") as handle:
            handle.write(report)
        print(f"wrote {args.output}")
    return 0


def cmd_genstream(args: argparse.Namespace) -> int:
    """Generate a streaming workload and persist it for replay."""
    from repro.graph.stream_io import save_stream_npz, save_stream_text

    spec = dataset_by_abbreviation(args.dataset)
    workload = make_workload(spec, num_batches=args.batches, seed=args.seed)
    if args.output.endswith(".npz"):
        save_stream_npz(args.output, workload.replay)
    else:
        save_stream_text(args.output, workload.replay)
    total = sum(len(workload.replay.batch(i)) for i in range(args.batches))
    print(
        f"wrote {spec.name} stream to {args.output}: "
        f"{workload.initial.num_edges} initial edges, "
        f"{args.batches} batches, {total} updates"
    )
    return 0


def cmd_recover(args: argparse.Namespace) -> int:
    """Recover a resilient pipeline state directory and print the outcome."""
    from repro.errors import RecoveryError, WalError
    from repro.resilience.guard import DifferentialGuard
    from repro.resilience.recovery import RecoveryManager

    manager = RecoveryManager(args.directory, on_corrupt=args.on_corrupt)
    try:
        result = manager.recover(verify=not args.no_verify)
    except (RecoveryError, WalError) as exc:
        print(f"recovery failed: {exc}", file=sys.stderr)
        return 1
    info = result.checkpoint
    print(f"checkpoint: v{info.version} {info.algorithm} snapshot={info.snapshot_id} "
          f"({info.num_vertices} vertices, {info.num_edges} edges)")
    record = result.record
    print("state record: " + (
        f"v{record.version} snapshot={record.snapshot_id} "
        f"base={record.base_snapshot_id}" if record is not None
        else f"rejected ({result.record_rejected})" if result.record_rejected
        else "none"
    ))
    print(f"wal: {result.wal_stats.records} records, "
          f"{len(result.replayed)} replayed, {len(result.skipped)} skipped, "
          f"{result.wal_stats.torn_tails} torn, "
          f"{result.wal_stats.corrupt_records} quarantined")
    print(f"recovered: snapshot={result.snapshot_id} "
          f"{result.engine.query} answer={result.answer:g}")
    if args.guard:
        report = DifferentialGuard(result.engine).check(result.snapshot_id)
        print(str(report))
        if report.diverged:
            return 1
    return 0


def cmd_wal_verify(args: argparse.Namespace) -> int:
    """Scan a WAL directory and report integrity statistics."""
    from repro.resilience.wal import verify

    if not os.path.isdir(args.directory):
        print(f"error: {args.directory!r} is not a directory", file=sys.stderr)
        return 1
    stats = verify(args.directory)
    print(f"segments:        {stats.segments}")
    print(f"records:         {stats.records} ({stats.updates} updates)")
    print(f"last sequence:   {stats.last_sequence}")
    print(f"torn tails:      {stats.torn_tails}")
    print(f"corrupt records: {stats.corrupt_records}")
    for note in stats.notes:
        print(f"  note: {note}")
    if stats.clean:
        print("OK: write-ahead log is clean")
        return 0
    print("DAMAGED: see notes above", file=sys.stderr)
    return 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Run a scripted query-serving session over a dataset's initial graph."""
    import tempfile

    from repro.algorithms import get_algorithm
    from repro.serve import ScriptRunner, ServeHarness, ShedPolicy
    from repro.serve.protocol import format_event, parse_script

    spec = dataset_by_abbreviation(args.dataset)
    workload = make_workload(spec, num_batches=1, seed=args.seed)
    graph = workload.replay.initial_graph
    if args.anchor_source is None or args.anchor_destination is None:
        anchor = pick_query_pairs(workload.initial, count=1, seed=args.seed)[0]
    else:
        anchor = PairwiseQuery(args.anchor_source, args.anchor_destination)

    if args.script == "-":
        lines = sys.stdin.read().splitlines()
    else:
        with open(args.script) as handle:
            lines = handle.read().splitlines()

    directory = args.state_dir or tempfile.mkdtemp(prefix="repro-serve-")
    with _telemetry_session(args.telemetry):
        harness = ServeHarness.open(
            directory,
            graph,
            get_algorithm(args.algorithm),
            anchor,
            num_shards=args.shards,
            queue_bound=args.queue_bound,
            policy=ShedPolicy(args.policy),
            registration_rate=args.rate,
            registration_burst=args.burst,
            dedupe=args.dedupe,
        )
        if args.adaptive:
            harness.attach_controller()
        print(
            f"serving {spec.name} / {args.algorithm}: {args.shards} shards, "
            f"queue bound {args.queue_bound}, policy {args.policy}, "
            f"anchor {anchor}, state in {directory}"
            + (", adaptive control on" if args.adaptive else "")
        )
        runner = ScriptRunner(harness)
        try:
            for command in parse_script(lines):
                event = runner.step(command)
                print(format_event(event))
                if runner.closed:
                    break
        finally:
            runner.close()
    errors = sum(1 for event in runner.events if not event["ok"])
    print(f"serve: {len(runner.events)} commands, {errors} protocol errors")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run seeded fault schedules against a live serving harness."""
    import tempfile

    from repro.algorithms import get_algorithm
    from repro.resilience.chaos import (
        BUILTIN_SCHEDULES,
        builtin_schedule,
        random_schedule,
        run_chaos,
    )
    from repro.serve.control import write_audit

    backend = getattr(args, "backend", "thread")
    if args.schedule == "all":
        schedules = [builtin_schedule(name) for name in BUILTIN_SCHEDULES]
    elif args.schedule == "random":
        schedules = [random_schedule(
            args.seed, num_batches=args.batches, num_shards=args.shards
        )]
    elif args.schedule in BUILTIN_SCHEDULES:
        schedules = [builtin_schedule(args.schedule)]
    else:
        available = ", ".join(BUILTIN_SCHEDULES + ("random", "all"))
        print(
            f"unknown schedule {args.schedule!r}; available: {available}",
            file=sys.stderr,
        )
        return 2
    if backend != "thread":
        if args.schedule == "all":
            # keep the schedules whose faults every backend can deliver
            schedules = [s for s in schedules if not s.thread_only_kinds()]
        elif schedules[0].thread_only_kinds():
            kinds = ", ".join(schedules[0].thread_only_kinds())
            print(
                f"schedule {args.schedule!r} uses thread-only fault kinds "
                f"({kinds}); the {backend!r} backend cannot deliver them",
                file=sys.stderr,
            )
            return 2
    algorithm = get_algorithm(args.algorithm)
    failures = 0
    with _telemetry_session(args.telemetry):
        for schedule in schedules:
            directory = os.path.join(
                args.state_dir or tempfile.mkdtemp(prefix="repro-chaos-"),
                schedule.name,
            )
            report = run_chaos(
                schedule,
                directory,
                algorithm,
                seed=args.seed,
                num_batches=args.batches,
                num_shards=args.shards,
                adaptive=args.adaptive,
                backend=backend,
            )
            print(report.summary())
            if args.adaptive and args.telemetry is not None:
                os.makedirs(args.telemetry, exist_ok=True)
                audit_path = os.path.join(
                    args.telemetry, f"control_audit-{schedule.name}.jsonl"
                )
                write_audit(audit_path, report.decisions)
                print(
                    f"  control audit: {len(report.decisions)} decision(s) "
                    f"-> {audit_path}"
                )
            if args.verbose:
                print(f"  breaker states seen: {report.breaker_states_seen}")
                print(f"  session states:      {report.session_states}")
                for source, breaker in sorted(
                    report.supervisor["breakers"].items()
                ):
                    print(f"  breaker[{source}]: {breaker}")
                for decision in report.decisions:
                    print(
                        f"  decision: epoch {decision['epoch']} "
                        f"[{decision['condition']}] {decision['knob']} "
                        f"{decision['old']:g} -> {decision['new']:g}"
                    )
            for mismatch in report.mismatches:
                print(f"  DIVERGED: {mismatch}", file=sys.stderr)
            if not report.converged:
                failures += 1
            elif args.adaptive and report.slo is not None and not report.slo["met"]:
                # an adaptive run is graded: converging is not enough,
                # the controller must also have met the schedule's SLOs
                failures += 1
                for violation in report.slo["violations"]:
                    print(
                        f"  SLO REGRESSION: {violation}", file=sys.stderr
                    )
    verdict = "OK" if failures == 0 else f"{failures} schedule(s) failed"
    print(f"chaos: {len(schedules)} schedule(s), {verdict}")
    return 0 if failures == 0 else 1


def cmd_control_log(args: argparse.Namespace) -> int:
    """Render adaptive-controller decisions from audit or event logs."""
    import glob as globmod
    import json

    paths: list = []
    if os.path.isdir(args.path):
        paths = sorted(
            globmod.glob(os.path.join(args.path, "control_audit*.jsonl"))
        )
        events = os.path.join(args.path, "events.jsonl")
        if not paths and os.path.exists(events):
            # no audit export: fall back to the decision trace points
            paths = [events]
    elif os.path.exists(args.path):
        paths = [args.path]
    if not paths:
        print(
            f"error: {args.path!r} has no control audit or event log",
            file=sys.stderr,
        )
        return 1
    decisions = []
    for path in paths:
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                # either a raw audit record (has "knob") or a telemetry
                # event whose name is the controller's decision point
                if record.get("name") == "controller.decision":
                    decisions.append(record)
                elif "knob" in record and "condition" in record:
                    decisions.append(record)
    if args.knob:
        decisions = [d for d in decisions if d.get("knob") == args.knob]
    for record in decisions:
        trace = record.get("trace_id") or "-"
        clamped = " (clamped)" if record.get("clamped") else ""
        print(
            f"epoch {record.get('epoch', '?'):>3} "
            f"[{record.get('condition', '?'):<22}] "
            f"{record.get('knob'):<16} "
            f"{record.get('old'):g} -> {record.get('new'):g}{clamped}  "
            f"trace={trace}  {record.get('reason', '')}"
        )
    print(f"control-log: {len(decisions)} decision(s)")
    return 0


def cmd_telemetry(args: argparse.Namespace) -> int:
    """Summarize, dump or export a previously written telemetry directory."""
    from repro.obs.events import load_jsonl
    from repro.obs.summary import (
        resolve_events_path,
        resolve_metrics_path,
        summarize_path,
    )
    from repro.obs.telemetry import PROMETHEUS_FILENAME

    if args.action == "summarize":
        print(summarize_path(args.path, top=args.top,
                             by_worker=args.by_worker))
        return 0
    if args.action == "dump":
        events_path = resolve_events_path(args.path)
        if not os.path.exists(events_path):
            print(f"error: no event log at {events_path}", file=sys.stderr)
            return 1
        events = load_jsonl(events_path)
        shown = events if args.limit <= 0 else events[: args.limit]
        for event in shown:
            fields = " ".join(f"{k}={v}" for k, v in sorted(event.fields.items()))
            print(f"{event.ts:.6f} {event.kind:<6} {event.name:<24} {fields}")
        remaining = len(events) - len(shown)
        if remaining > 0:
            print(f"... {remaining} more events (raise --limit)")
        return 0
    if args.action == "export":
        if args.format == "prom":
            target = (
                os.path.join(args.path, PROMETHEUS_FILENAME)
                if os.path.isdir(args.path)
                else args.path
            )
        else:
            target = resolve_metrics_path(args.path)
        if target is None or not os.path.exists(target):
            print(f"error: no {args.format} export found under {args.path}",
                  file=sys.stderr)
            return 1
        with open(target) as handle:
            sys.stdout.write(handle.read())
        return 0
    print(f"unknown telemetry action {args.action!r}", file=sys.stderr)
    return 2


def cmd_trace(args: argparse.Namespace) -> int:
    """Render causal waterfalls from an exported event log."""
    from repro.obs.events import load_jsonl
    from repro.obs.summary import resolve_events_path
    from repro.obs.tracing import build_traces, render_waterfall

    events_path = resolve_events_path(args.path)
    if not os.path.exists(events_path):
        print(f"error: no event log at {events_path}", file=sys.stderr)
        return 1
    traces = build_traces(load_jsonl(events_path))
    if args.trace:
        traces = [t for t in traces if t.trace_id == args.trace]
    if args.batch is not None:
        traces = [
            t for t in traces
            if t.root is not None
            and t.root.attrs.get("sequence") == args.batch
        ]
    if not traces:
        print("no matching traces", file=sys.stderr)
        return 1
    shown = traces if args.limit <= 0 else traces[-args.limit:]
    skipped = len(traces) - len(shown)
    if skipped > 0:
        print(f"... {skipped} earlier trace(s) skipped (raise --limit)")
    for index, trace in enumerate(shown):
        if index:
            print()
        print(render_waterfall(trace, width=args.width))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """Traffic simulation: run, reproduce or list profiles."""
    import json

    from repro.bench.runner import RunConfig, reproduce_run, run_traffic
    from repro.bench.traffic import TRAFFIC_PROFILES, builtin_profile

    if args.action == "profiles":
        for name in TRAFFIC_PROFILES:
            profile = builtin_profile(name)
            print(
                f"{name:<12} arrival={profile.arrival:<12} "
                f"sessions={profile.sessions} rate={profile.session_rate:g}/s "
                f"pairs={profile.distinct_pairs} zipf={profile.zipf_exponent:g}"
            )
        return 0

    if args.action == "reproduce":
        if not args.run_dir:
            print("error: bench reproduce needs a RUN_DIR", file=sys.stderr)
            return 2
        report = reproduce_run(args.run_dir)
        for failure in report["failures"]:
            print(f"  MISMATCH: {failure}", file=sys.stderr)
        verdict = "OK" if report["ok"] else "FAILED"
        print(
            f"reproduce {report['run_id']}: {verdict} "
            f"({report['checked']} keys checked, "
            f"{len(report['failures'])} failures)"
        )
        return 0 if report["ok"] else 1

    if args.action == "traffic":
        try:
            profile = builtin_profile(args.profile)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        profile = profile.scaled(sessions=args.sessions, seed=args.seed)
        config = RunConfig(
            profile=profile,
            algorithm=args.algorithm,
            adaptive=args.adaptive,
            num_shards=args.shards,
            registration_rate=args.rate,
            registration_burst=args.burst,
            backend=args.backend,
        )
        report = run_traffic(
            config, results_root=args.results, run_id=args.run_id
        )
        summary = report.summary
        slo = summary["slo"]
        print(
            f"traffic {report.run_id}: {profile.name} "
            f"x{profile.sessions} sessions"
            + (" (adaptive)" if args.adaptive else "")
        )
        print(
            f"  admission: {summary['admission']['admitted']} admitted, "
            f"{summary['admission']['rejected']} rejected "
            f"(shed rate {slo['shed_rate']:.3f})"
        )
        print(
            f"  throughput: "
            f"{summary['throughput']['updates_per_sec']:.0f} updates/s, "
            f"{summary['throughput']['events_per_sec']:.0f} events/s; "
            f"answer p99 {slo['answer_p99']:.4f}s"
        )
        verdict = "met" if slo["met"] else "VIOLATED"
        print(f"  slo: {verdict}"
              + "".join(f"\n    {v}" for v in slo["violations"]))
        print(f"  bundle: {report.run_dir}")
        if args.json:
            print(json.dumps(summary, indent=2, sort_keys=True))
        return 0 if (slo["met"] or args.no_grade) else 1

    print(f"unknown bench action {args.action!r}", file=sys.stderr)
    return 2


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CISGraph reproduction command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    datasets = dict(type=str.upper, choices=[s.abbreviation for s in dataset_specs()])
    algorithms = dict(choices=list_algorithms() + ["all"])

    sub.add_parser("info", help="package inventory").set_defaults(func=cmd_info)

    query = sub.add_parser("query", help="run one pairwise query")
    query.add_argument("--dataset", default="OR", **datasets)
    query.add_argument("--algorithm", default="ppsp", choices=list_algorithms() + ["hops"])
    query.add_argument(
        "--engine", default="cisgraph-o", choices=baselines.ENGINES
    )
    query.add_argument("--source", type=int, default=None)
    query.add_argument("--destination", type=int, default=None)
    query.add_argument("--batches", type=int, default=2)
    query.add_argument("--seed", type=int, default=0)
    query.add_argument(
        "--telemetry",
        metavar="PATH",
        default=None,
        help="write events.jsonl/metrics.json/metrics.prom into PATH",
    )
    query.set_defaults(func=cmd_query)

    experiment = sub.add_parser("experiment", help="regenerate a paper artifact")
    experiment.add_argument(
        "name",
        choices=["table2", "table3", "fig2", "fig5a", "fig5b", "table4"],
    )
    experiment.add_argument("--dataset", default="OR", **datasets)
    experiment.add_argument("--algorithm", default="ppsp", **algorithms)
    experiment.add_argument("--pairs", type=int, default=3)
    experiment.add_argument("--batches", type=int, default=1)
    experiment.add_argument("--seed", type=int, default=0)
    experiment.add_argument(
        "--telemetry",
        metavar="PATH",
        default=None,
        help="write events.jsonl/metrics.json/metrics.prom into PATH",
    )
    experiment.set_defaults(func=cmd_experiment)

    validate = sub.add_parser("validate", help="differential engine check")
    validate.add_argument("--vertices", type=int, default=80)
    validate.add_argument("--edges", type=int, default=500)
    validate.add_argument("--batches", type=int, default=2)
    validate.add_argument("--seed", type=int, default=0)
    validate.add_argument("--algorithm", default="all", **algorithms)
    validate.set_defaults(func=cmd_validate)

    report = sub.add_parser("report", help="render a markdown experiment report")
    report.add_argument("--output", default="-", help="'-' prints to stdout")
    report.add_argument("--algorithm", default="all", **algorithms)
    report.add_argument("--pairs", type=int, default=2)
    report.add_argument("--batches", type=int, default=1)
    report.add_argument("--seed", type=int, default=0)
    report.set_defaults(func=cmd_report)

    genstream = sub.add_parser("genstream", help="generate and save a stream")
    genstream.add_argument("output")
    genstream.add_argument("--dataset", default="OR", **datasets)
    genstream.add_argument("--batches", type=int, default=2)
    genstream.add_argument("--seed", type=int, default=0)
    genstream.set_defaults(func=cmd_genstream)

    recover = sub.add_parser(
        "recover", help="restore a crashed pipeline from checkpoint + WAL"
    )
    recover.add_argument("directory", help="pipeline state directory")
    recover.add_argument(
        "--on-corrupt",
        choices=["quarantine", "raise"],
        default="quarantine",
        help="policy for CRC-corrupt WAL records",
    )
    recover.add_argument(
        "--no-verify",
        action="store_true",
        help="skip checkpoint convergence verification",
    )
    recover.add_argument(
        "--guard",
        action="store_true",
        help="differentially cross-check the recovered state (exit 1 on divergence)",
    )
    recover.set_defaults(func=cmd_recover)

    wal_verify = sub.add_parser(
        "wal-verify", help="integrity-scan a write-ahead-log directory"
    )
    wal_verify.add_argument("directory", help="WAL directory (of wal-*.seg files)")
    wal_verify.set_defaults(func=cmd_wal_verify)

    serve = sub.add_parser(
        "serve", help="run a scripted concurrent query-serving session"
    )
    serve.add_argument(
        "--script", default="-",
        help="serve script path ('-' reads stdin; see docs/serving.md)",
    )
    serve.add_argument("--dataset", default="OR", **datasets)
    serve.add_argument("--algorithm", default="ppsp", choices=list_algorithms())
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--shards", type=int, default=2, help="shard workers")
    serve.add_argument(
        "--queue-bound", type=int, default=64, help="per-shard inbox bound"
    )
    serve.add_argument(
        "--policy", choices=["reject", "delay"], default="reject",
        help="load-shedding policy at saturation",
    )
    serve.add_argument(
        "--rate", type=float, default=64.0, help="registrations per second"
    )
    serve.add_argument(
        "--burst", type=float, default=32.0, help="registration burst capacity"
    )
    serve.add_argument(
        "--dedupe", action="store_true",
        help="make duplicate registrations idempotent instead of errors",
    )
    serve.add_argument(
        "--adaptive", action="store_true",
        help="attach the SLO-guarded runtime controller "
             "(see docs/adaptive_control.md)",
    )
    serve.add_argument("--anchor-source", type=int, default=None)
    serve.add_argument("--anchor-destination", type=int, default=None)
    serve.add_argument(
        "--state-dir", default=None,
        help="WAL/checkpoint directory (default: fresh temp dir)",
    )
    serve.add_argument(
        "--telemetry",
        metavar="PATH",
        default=None,
        help="write events.jsonl/metrics.json/metrics.prom into PATH",
    )
    serve.set_defaults(func=cmd_serve)

    chaos = sub.add_parser(
        "chaos",
        help="play seeded fault schedules against a live serving harness",
    )
    chaos.add_argument(
        "--schedule",
        default="all",
        help="builtin schedule name, 'all' builtins (those the backend "
             "can fire), or 'random' for a seeded random one (unknown "
             "names list what is available)",
    )
    chaos.add_argument(
        "--adaptive", action="store_true",
        help="attach the runtime controller and fail on SLO regression",
    )
    chaos.add_argument("--seed", type=int, default=7, help="workload/fault seed")
    chaos.add_argument("--batches", type=int, default=8, help="stream length")
    chaos.add_argument("--shards", type=int, default=2, help="shard workers")
    chaos.add_argument(
        "--backend", default="thread", choices=["thread", "process"],
        help="shard executor backend",
    )
    chaos.add_argument("--algorithm", default="ppsp", choices=list_algorithms())
    chaos.add_argument(
        "--state-dir", default=None,
        help="WAL/checkpoint parent directory (default: fresh temp dir)",
    )
    chaos.add_argument(
        "--verbose", action="store_true",
        help="print breaker and session state detail per schedule",
    )
    chaos.add_argument(
        "--telemetry",
        metavar="PATH",
        default=None,
        help="run with tracing enabled; export events/metrics and "
             "flight-recorder bundles into PATH",
    )
    chaos.set_defaults(func=cmd_chaos)

    control_log = sub.add_parser(
        "control-log",
        help="render adaptive-controller decisions from an audit or event log",
    )
    control_log.add_argument(
        "path",
        help="a control_audit*.jsonl file, an events.jsonl file, or a "
             "telemetry directory containing either",
    )
    control_log.add_argument(
        "--knob", default=None,
        help="only show decisions moving this knob (e.g. shards)",
    )
    control_log.set_defaults(func=cmd_control_log)

    telemetry = sub.add_parser(
        "telemetry", help="inspect a telemetry directory from a --telemetry run"
    )
    telemetry.add_argument("action", choices=["summarize", "dump", "export"])
    telemetry.add_argument("path", help="telemetry directory (or events.jsonl file)")
    telemetry.add_argument(
        "--limit", type=int, default=0, help="dump: max events to print (0 = all)"
    )
    telemetry.add_argument(
        "--format", choices=["json", "prom"], default="prom",
        help="export: which artifact to print",
    )
    telemetry.add_argument(
        "--top", type=int, default=0,
        help="summarize: also show the N slowest span instances and "
             "per-trace duration rollups",
    )
    telemetry.add_argument(
        "--by-worker", action="store_true",
        help="summarize: add a per-worker/per-pid span rollup (spans "
             "merged from process shard children carry worker labels)",
    )
    telemetry.set_defaults(func=cmd_telemetry)

    trace = sub.add_parser(
        "trace",
        help="render per-batch causal waterfalls from an exported event log",
    )
    trace.add_argument("path", help="telemetry directory (or events.jsonl file)")
    trace.add_argument(
        "--trace", default=None, help="render only this trace id (e.g. t000001)"
    )
    trace.add_argument(
        "--batch", type=int, default=None,
        help="render only the trace whose commit root has this WAL sequence",
    )
    trace.add_argument(
        "--width", type=int, default=48, help="waterfall bar width in columns"
    )
    trace.add_argument(
        "--limit", type=int, default=8,
        help="render at most the last N traces (0 = all)",
    )
    trace.set_defaults(func=cmd_trace)

    bench = sub.add_parser(
        "bench",
        help="production traffic simulation: SLO-graded experiment runs",
    )
    bench.add_argument(
        "action", choices=["traffic", "reproduce", "profiles"],
        help="run a profile, replay a bundle's manifest, or list profiles",
    )
    bench.add_argument(
        "run_dir", nargs="?", default=None,
        help="reproduce: the results/<run_id> bundle to replay",
    )
    bench.add_argument(
        "--profile", default="steady",
        help="traffic: builtin profile (steady, diurnal, flash-crowd)",
    )
    bench.add_argument(
        "--sessions", type=int, default=None,
        help="traffic: override the profile's session-arrival count",
    )
    bench.add_argument("--seed", type=int, default=None,
                       help="traffic: override the profile's seed")
    bench.add_argument("--algorithm", default="ppsp",
                       choices=list_algorithms())
    bench.add_argument(
        "--adaptive", action="store_true",
        help="traffic: attach the SLO-guarded runtime controller",
    )
    bench.add_argument("--shards", type=int, default=2, help="shard workers")
    bench.add_argument(
        "--backend", default="thread", choices=["thread", "process"],
        help="traffic: shard executor backend (recorded in the manifest)",
    )
    bench.add_argument(
        "--rate", type=float, default=24.0,
        help="traffic: registration token-bucket refill rate (virtual-clock)",
    )
    bench.add_argument(
        "--burst", type=float, default=32.0,
        help="traffic: registration token-bucket capacity",
    )
    bench.add_argument(
        "--results", default="results",
        help="traffic: parent directory for run bundles",
    )
    bench.add_argument(
        "--run-id", default=None,
        help="traffic: pin the bundle name (default: profile+seed+nonce)",
    )
    bench.add_argument(
        "--json", action="store_true",
        help="traffic: also print the full summary document",
    )
    bench.add_argument(
        "--no-grade", action="store_true",
        help="traffic: exit 0 even when the run violates its SLO",
    )
    bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
