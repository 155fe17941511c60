"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list``                 — show the experiment and bench registry;
* ``run <id>... [--smoke] [--out PATH] [--trace] [--timeline] [--explain]
  [--set FIELD=VALUE]...`` — run registry entries (paper tables/figures and
  the compaction/query/qd/scale/cluster/crash benches), print their tables
  and checks, and write each JSON document to ``PATH`` (a file, or an
  existing directory that receives each entry's result file);
* ``table1``               — print the hardware-spec encoding;
* ``selftest``             — a fast end-to-end sanity run of both stores;
* ``trace``                — run a traced workload, dump a Chrome-trace
  timeline and print the per-command latency-attribution table;
* ``metrics``              — run a traced workload and dump a
  Prometheus-style text exposition of every counter/histogram;
* ``inspect``              — run a workload and dump the versioned
  full-device snapshot as a human tree or JSON;
* ``journal``              — run a journaled workload and print/export the
  structured lifecycle-event journal (JSONL);
* ``audit``                — run an audited workload, checking every device
  invariant on demand and (``--audit-level=phase``) at each flush and
  compaction-phase boundary; exits non-zero on violations.
* ``explain``              — run a workload under the blocked-by/holder
  observer and print the causal critical-path diagnosis: per-op latency
  decomposed into typed segments, p50 vs p99 cohorts, and the dominant
  blocker each cohort spent its time behind (``--diff`` compares two
  saved reports instead);
* ``timeline``             — run a timeline-recorded workload and export the
  sampled series + SLO alerts (JSON/CSV/Chrome counter tracks);
* ``top``                  — run a timeline-recorded workload and render the
  hottest series as terminal sparklines;
* ``profile``              — run a workload under cProfile and print the
  per-subsystem wall-clock cost table.
"""

from __future__ import annotations

import argparse
import os
import sys
import time


def _cmd_list(_args) -> int:
    from repro.bench.registry import REGISTRY

    width = max(len(e) for e in REGISTRY)
    for entry in REGISTRY.values():
        print(f"{entry.id.ljust(width)}  {entry.description}")
    return 0


def _cmd_table1(_args) -> int:
    from repro.bench.table1 import table1, table1_checks

    print(table1())
    for check in table1_checks():
        print(check)
    return 0


def _out_path(out: str | None, entry, n_entries: int) -> str | None:
    """Where one entry's document goes: ``out`` itself, or its result file
    inside ``out`` when that is a directory."""
    if out is None:
        return None
    if os.path.isdir(out):
        return os.path.join(out, entry.result_file or f"{entry.id}.json")
    if n_entries > 1:
        raise ValueError(f"--out {out} is not a directory, and {n_entries} entries run")
    return out


def _cmd_run(args) -> int:
    from repro.bench.registry import OBSERVERS, configure, execute, write_json

    observers = [name for name in OBSERVERS if getattr(args, name)]
    # Reject every bad input before the first (possibly long) run starts.
    try:
        plans = [
            configure(entry_id, args.smoke, args.set, observers)
            for entry_id in args.ids
        ]
        paths = [_out_path(args.out, entry, len(plans)) for entry, _ in plans]
    except ValueError as exc:
        print(f"repro run: {exc}", file=sys.stderr)
        return 2
    ok = True
    for (entry, config), path in zip(plans, paths):
        t0 = time.time()
        run = execute(entry, config, observers)
        for table in run.tables():
            print(table)
        for check in run.checks:
            print(check)
        if path:
            write_json(run.document, path)
            print(f"wrote {path}")
        print(f"({time.time() - t0:.1f}s wall clock)")
        ok = ok and run.ok
    return 0 if ok else 1


def _cmd_selftest(_args) -> int:
    from repro.bench import build_kvcsd_testbed, build_rocksdb_testbed
    from repro.workloads import SyntheticSpec, generate_pairs, get_phase, load_phase

    pairs = generate_pairs(SyntheticSpec(n_pairs=2000, seed=0))
    keys = [k for k, _ in pairs[::50]]

    kv = build_kvcsd_testbed(seed=0)
    load_phase(kv.env, kv.adapter, [("ks", pairs, kv.thread_ctx(0))])

    kv.run(kv.adapter.prepare_queries("ks", kv.thread_ctx(0)))
    get_phase(kv.env, kv.adapter, [("ks", keys, kv.thread_ctx(0))])
    print(f"kv-csd ok ({kv.env.now:.4f} simulated seconds)")

    rk = build_rocksdb_testbed(seed=0, n_test_threads=1, data_bytes=2000 * 48)
    load_phase(rk.env, rk.adapter, [("db", pairs, rk.thread_ctx(0))])
    get_phase(rk.env, rk.adapter, [("db", keys, rk.thread_ctx(0))])
    print(f"rocksdb-baseline ok ({rk.env.now:.4f} simulated seconds)")
    print("selftest passed")
    return 0


def _cmd_trace(args) -> int:
    import json

    from repro.obs import (
        attribution_rows,
        format_attribution,
        min_command_coverage,
        to_chrome_trace,
    )
    from repro.obs.harness import run_traced_selftest

    kv, tracer, _hub = run_traced_selftest(seed=args.seed)
    doc = to_chrome_trace(tracer)
    with open(args.out, "w") as fh:
        json.dump(doc, fh)
    print(format_attribution(attribution_rows(tracer)))
    coverage = min_command_coverage(tracer)
    print(
        f"trace: {len(doc['traceEvents'])} events, "
        f"{len(tracer.spans)} spans -> {args.out}"
    )
    print(
        f"min command coverage: {coverage:.3f} "
        f"({kv.env.now:.4f} simulated seconds)"
    )
    if coverage < 0.95:
        print("FAIL: span trees cover < 95% of command latency", file=sys.stderr)
        return 1
    return 0


def _cmd_metrics(args) -> int:
    if args.workload == "saturate":
        from repro.obs.harness import run_saturated_workload

        _kv, _tracer, hub, _recorder = run_saturated_workload(seed=args.seed)
    elif args.timeline:
        from repro.obs.harness import run_timed_selftest

        _kv, _tracer, hub, _recorder = run_timed_selftest(seed=args.seed)
    else:
        from repro.obs.harness import run_traced_selftest

        _kv, _tracer, hub = run_traced_selftest(seed=args.seed)
    text = hub.to_prometheus()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_inspect(args) -> int:
    from repro.obs import device_snapshot, format_snapshot, snapshot_json
    from repro.obs.harness import run_audited_workload

    kv, _auditor, _report = run_audited_workload(
        seed=args.seed, audit_level="off"
    )
    if args.format == "json":
        print(snapshot_json(kv.device))
    else:
        print(format_snapshot(device_snapshot(kv.device)), end="")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(snapshot_json(kv.device))
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0


def _cmd_journal(args) -> int:
    from repro.obs.harness import run_audited_workload

    kv, _auditor, _report = run_audited_workload(
        seed=args.seed, audit_level="off"
    )
    journal = kv.env.journal
    for event in journal.tail(args.tail):
        fields = " ".join(f"{k}={v}" for k, v in sorted(event.fields.items()))
        span = f" span={event.span_id}" if event.span_id is not None else ""
        print(f"#{event.seq} t={event.time:.6f}s {event.type}{span} {fields}")
    summary = journal.summary()
    print(
        f"journal: {summary['total_recorded']} events recorded, "
        f"{summary['retained']} retained, {summary['dropped']} dropped"
    )
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(journal.to_jsonl())
        print(f"wrote {args.out}")
    return 0


def _cmd_audit(args) -> int:
    import json

    from repro.obs import snapshot_json
    from repro.obs.harness import run_audited_workload

    kv, auditor, final_report = run_audited_workload(
        seed=args.seed, audit_level=args.audit_level
    )
    print(final_report.format(), end="")
    summary = auditor.summary()
    print(
        f"audit summary: {summary['runs']} run(s) at level "
        f"{summary['level']!r}, {summary['failed_runs']} failed, "
        f"{summary['total_violations']} total violation(s)"
    )
    if args.snapshot_out:
        with open(args.snapshot_out, "w") as fh:
            fh.write(snapshot_json(kv.device))
            fh.write("\n")
        print(f"wrote {args.snapshot_out}")
    if args.report_out:
        with open(args.report_out, "w") as fh:
            json.dump([r.as_dict() for r in auditor.reports], fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.report_out}")
    if args.journal_out:
        with open(args.journal_out, "w") as fh:
            fh.write(kv.env.journal.to_jsonl())
        print(f"wrote {args.journal_out}")
    return 0 if summary["total_violations"] == 0 else 1


def _load_explain_doc(path: str) -> dict:
    """Read an explain report, accepting bench JSON carrying one under
    ``"explain"`` as well as raw ``repro explain --out`` documents."""
    import json

    with open(path) as fh:
        doc = json.load(fh)
    if "ops" not in doc and isinstance(doc.get("explain"), dict):
        return doc["explain"]
    return doc


def _cmd_explain(args) -> int:
    import json

    from repro.obs.critpath import (
        diff_explain,
        explain_report,
        explain_to_folded,
        format_explain,
    )

    if args.diff:
        before = _load_explain_doc(args.diff[0])
        after = _load_explain_doc(args.diff[1])
        rows = diff_explain(before, after)
        if not rows:
            print("explain diff: no ops in either report")
            return 0
        print(f"explain diff: {args.diff[0]} -> {args.diff[1]}")
        for row in rows[: args.limit]:
            if row["delta"] is None:
                state = "appeared" if row["after"] else "disappeared"
                print(f"  {row['op']}: {state}")
                continue
            print(
                f"  {row['op']} {row['metric']}: "
                f"{row['before']:.6f} -> {row['after']:.6f} "
                f"({row['delta']:+.6f}s)"
            )
        return 0

    if args.workload == "saturate":
        from repro.obs.harness import run_saturated_workload

        # Prompt reaping: per-op latency then reflects device-side queueing
        # (the thing worth diagnosing) rather than batch reap order.
        kv, tracer, _hub, _recorder = run_saturated_workload(
            seed=args.seed, critpath=True, reap="prompt"
        )
    else:
        from repro.obs.harness import run_traced_selftest

        kv, tracer, _hub = run_traced_selftest(seed=args.seed, critpath=True)
    report = explain_report(tracer, kv.env.critpath, now=kv.env.now)
    # Write artifacts before printing: a closed stdout pipe (`... | head`)
    # must not cost the caller the report files.
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.folded_out:
        with open(args.folded_out, "w") as fh:
            fh.write(explain_to_folded(report))
    print(format_explain(report))
    if args.out:
        print(f"wrote {args.out}")
    if args.folded_out:
        print(f"wrote {args.folded_out} (folded stacks for flamegraph.pl)")
    if report["min_attributed"] < 0.95:
        print(
            "FAIL: < 95% of some sampled op's latency is attributed "
            f"({report['min_attributed']:.1%})",
            file=sys.stderr,
        )
        return 1
    return 0


def _run_timed_workload(args):
    """Shared driver for ``timeline`` / ``top``: run the chosen workload."""
    from repro.obs.harness import run_saturated_workload, run_timed_selftest

    if args.workload == "saturate":
        return run_saturated_workload(seed=args.seed)
    return run_timed_selftest(seed=args.seed)


def _print_alerts(recorder) -> None:
    counts = recorder.alert_counts()
    fired = sum(counts.values())
    if fired == 0:
        print("slo: no alerts fired")
        return
    for alert in recorder.alerts:
        cleared = (
            f" cleared at t={alert.cleared_at:.6f}s"
            if alert.cleared_at is not None
            else " (still firing)"
        )
        print(
            f"slo ALERT {alert.rule}: {alert.condition} — "
            f"{alert.series}={alert.value:g} at t={alert.fired_at:.6f}s{cleared}"
        )


def _cmd_timeline(args) -> int:
    import json

    from repro.obs import timeline_to_csv, to_chrome_trace

    kv, tracer, _hub, recorder = _run_timed_workload(args)
    doc = recorder.to_json()
    print(
        f"timeline: {recorder.ticks} samples, {len(recorder.series)} series, "
        f"{len(recorder.windows)} latency windows "
        f"({kv.env.now:.4f} simulated seconds)"
    )
    _print_alerts(recorder)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    if args.csv_out:
        with open(args.csv_out, "w") as fh:
            fh.write(timeline_to_csv(doc))
        print(f"wrote {args.csv_out}")
    if args.trace_out:
        with open(args.trace_out, "w") as fh:
            json.dump(to_chrome_trace(tracer, timeline=recorder), fh)
        print(f"wrote {args.trace_out} (spans + counter tracks)")
    return 0


def _cmd_top(args) -> int:
    from fnmatch import fnmatchcase

    from repro.obs import sparkline

    kv, _tracer, _hub, recorder = _run_timed_workload(args)
    keys = sorted(recorder.series)
    if args.series:
        keys = [
            k for k in keys
            if any(p == k or fnmatchcase(k, p) for p in args.series)
        ]
    # Rank by dynamic range so flat/constant series drop to the bottom,
    # then keep the busiest ``--limit``.
    def spread(key: str) -> float:
        values = recorder.series[key].values
        return (max(values) - min(values)) if values else 0.0

    keys.sort(key=lambda k: (-spread(k), k))
    keys = keys[: args.limit]
    if not keys:
        print("no series matched")
        return 1
    label_w = max(len(k) for k in keys)
    print(
        f"{recorder.ticks} samples over {kv.env.now:.4f} simulated seconds "
        f"(interval {recorder.config.interval:g}s)"
    )
    for key in keys:
        series = recorder.series[key]
        last = series.last()
        lo, hi = min(series.values), max(series.values)
        print(
            f"{key.ljust(label_w)}  {sparkline(series.values, args.width)}  "
            f"min={lo:g} max={hi:g} last={last:g}"
        )
    _print_alerts(recorder)
    return 0


def _cmd_profile(args) -> int:
    from repro.obs.profile import (
        format_profile,
        profile_call,
        subsystem_rows,
        top_functions,
    )

    def workload():
        if args.workload == "saturate":
            from repro.obs.harness import run_saturated_workload

            return run_saturated_workload(seed=args.seed)
        if args.workload == "timed-selftest":
            from repro.obs.harness import run_timed_selftest

            return run_timed_selftest(seed=args.seed)
        from repro.obs.harness import run_traced_selftest

        return run_traced_selftest(seed=args.seed)

    result, stats = profile_call(workload)
    kv = result[0]
    rows = subsystem_rows(stats)
    total = sum(r["tottime"] for r in rows)
    print(format_profile(rows, total))
    print(
        f"\n{total:.3f}s interpreter time for {kv.env.now:.4f} simulated "
        f"seconds ({args.workload})"
    )
    if args.top:
        print("\nhottest functions:")
        for row in top_functions(stats, args.top):
            print(
                f"  {row['tottime']:.4f}s  {row['calls']:>8} calls  "
                f"{row['function']}"
            )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="KV-CSD reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list the paper's experiments").set_defaults(
        func=_cmd_list
    )
    sub.add_parser("table1", help="print the Table I encoding").set_defaults(
        func=_cmd_table1
    )
    run = sub.add_parser(
        "run", help="run experiments/benches, print their tables and checks"
    )
    run.add_argument("ids", nargs="+", help="registry ids (see `list`)")
    run.add_argument(
        "--smoke", action="store_true", help="the reduced configurations"
    )
    run.add_argument(
        "--out", default=None,
        help="write the JSON document to this file, or each entry's result "
        "file into this directory",
    )
    run.add_argument(
        "--trace", action="store_true",
        help="attach the observed testbed's latency attribution",
    )
    run.add_argument(
        "--timeline", action="store_true",
        help="attach a telemetry timeline (series + SLO alerts)",
    )
    run.add_argument(
        "--explain", action="store_true",
        help="attach a critical-path explain report, checked for >= 95%% "
        "attributed latency",
    )
    run.add_argument(
        "--set", action="append", default=[], metavar="FIELD=VALUE",
        help="override one config field (repeatable; tuples comma-separated)",
    )
    run.set_defaults(func=_cmd_run)
    sub.add_parser("selftest", help="fast sanity run of both stores").set_defaults(
        func=_cmd_selftest
    )
    trace = sub.add_parser(
        "trace",
        help="run a traced workload, export a Chrome-trace timeline",
    )
    trace.add_argument(
        "--workload",
        default="selftest",
        choices=["selftest"],
        help="traced workload to run",
    )
    trace.add_argument("--seed", type=int, default=0, help="workload RNG seed")
    trace.add_argument(
        "--out", default="trace.json", help="Chrome-trace JSON output path"
    )
    trace.set_defaults(func=_cmd_trace)
    metrics = sub.add_parser(
        "metrics",
        help="run a traced workload, dump Prometheus-style metrics",
    )
    metrics.add_argument("--seed", type=int, default=0, help="workload RNG seed")
    metrics.add_argument("--out", default=None, help="write the dump to this path")
    metrics.add_argument(
        "--workload",
        default="selftest",
        choices=["selftest", "saturate"],
        help="'saturate' trips the SLO watchdog; alert counters and firing "
        "gauges appear in the dump",
    )
    metrics.add_argument(
        "--timeline",
        action="store_true",
        help="record the telemetry timeline during the selftest so windowed "
        "quantiles and SLO state appear in the dump",
    )
    metrics.set_defaults(func=_cmd_metrics)
    inspect = sub.add_parser(
        "inspect",
        help="run a workload, dump the versioned full-device snapshot",
    )
    inspect.add_argument("--seed", type=int, default=0, help="workload RNG seed")
    inspect.add_argument(
        "--format",
        default="tree",
        choices=["tree", "json"],
        help="print as a human tree or as JSON",
    )
    inspect.add_argument(
        "--out", default=None, help="also write the JSON snapshot to this path"
    )
    inspect.set_defaults(func=_cmd_inspect)
    journal = sub.add_parser(
        "journal",
        help="run a journaled workload, print/export lifecycle events",
    )
    journal.add_argument("--seed", type=int, default=0, help="workload RNG seed")
    journal.add_argument(
        "--tail", type=int, default=32, help="events to print (most recent)"
    )
    journal.add_argument(
        "--out", default=None, help="write the full journal as JSONL"
    )
    journal.set_defaults(func=_cmd_journal)
    audit = sub.add_parser(
        "audit",
        help="run an audited workload, checking every device invariant",
    )
    audit.add_argument("--seed", type=int, default=0, help="workload RNG seed")
    audit.add_argument(
        "--audit-level",
        default="phase",
        choices=["off", "phase"],
        help="'phase' audits at every flush/compaction-phase boundary; "
        "'off' audits once at the end only",
    )
    audit.add_argument(
        "--snapshot-out", default=None, help="write the device snapshot (JSON)"
    )
    audit.add_argument(
        "--report-out", default=None, help="write all audit reports (JSON)"
    )
    audit.add_argument(
        "--journal-out", default=None, help="write the event journal (JSONL)"
    )
    audit.set_defaults(func=_cmd_audit)
    explain = sub.add_parser(
        "explain",
        help="critical-path diagnosis: typed segments, cohorts, blockers",
    )
    explain.add_argument(
        "--workload",
        default="saturate",
        choices=["selftest", "saturate"],
        help="'saturate' overdrives one query worker (prompt reaping) so "
        "the p99 cohort has a real blocker to name; 'selftest' is the "
        "traced selftest",
    )
    explain.add_argument("--seed", type=int, default=0, help="workload RNG seed")
    explain.add_argument(
        "--out", default=None, help="write the explain report (JSON)"
    )
    explain.add_argument(
        "--folded-out", default=None,
        help="write folded stacks (flamegraph.pl / speedscope input)",
    )
    explain.add_argument(
        "--diff", nargs=2, metavar=("BEFORE", "AFTER"), default=None,
        help="compare two saved reports (raw or bench JSON with an "
        "'explain' key) instead of running a workload",
    )
    explain.add_argument(
        "--limit", type=int, default=16, help="diff rows to print"
    )
    explain.set_defaults(func=_cmd_explain)
    timeline = sub.add_parser(
        "timeline",
        help="run a timeline-recorded workload, export series + SLO alerts",
    )
    timeline.add_argument(
        "--workload",
        default="selftest",
        choices=["selftest", "saturate"],
        help="'selftest' is the traced selftest; 'saturate' overdrives one "
        "query worker to trip the SLO watchdog",
    )
    timeline.add_argument("--seed", type=int, default=0, help="workload RNG seed")
    timeline.add_argument(
        "--out", default=None, help="write the timeline document (JSON)"
    )
    timeline.add_argument(
        "--csv-out", default=None, help="write the series as long-form CSV"
    )
    timeline.add_argument(
        "--trace-out", default=None,
        help="write a Chrome trace with spans + counter tracks",
    )
    timeline.set_defaults(func=_cmd_timeline)
    top = sub.add_parser(
        "top",
        help="run a timeline-recorded workload, render terminal sparklines",
    )
    top.add_argument(
        "--workload",
        default="selftest",
        choices=["selftest", "saturate"],
        help="workload to record (see `timeline`)",
    )
    top.add_argument("--seed", type=int, default=0, help="workload RNG seed")
    top.add_argument(
        "--series", nargs="+", default=None,
        help="series key patterns to show (fnmatch; default: busiest)",
    )
    top.add_argument(
        "--limit", type=int, default=16, help="series rows to print"
    )
    top.add_argument(
        "--width", type=int, default=48, help="sparkline width in columns"
    )
    top.set_defaults(func=_cmd_top)
    profile = sub.add_parser(
        "profile",
        help="run a workload under cProfile, print per-subsystem cost",
    )
    profile.add_argument(
        "--workload",
        default="selftest",
        choices=["selftest", "timed-selftest", "saturate"],
        help="workload to profile",
    )
    profile.add_argument("--seed", type=int, default=0, help="workload RNG seed")
    profile.add_argument(
        "--top", type=int, default=0,
        help="also print the N hottest individual functions",
    )
    profile.set_defaults(func=_cmd_profile)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
