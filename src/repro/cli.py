"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list``                 — show the experiment and bench registry;
* ``run <id>... [--smoke] [--out PATH] [--trace] [--timeline] [--explain]
  [--journal] [--audit] [--set FIELD=VALUE]...`` — run registry entries
  (paper tables/figures, the benches and the observed ``obs_*`` runs),
  print their tables, checks and observer reports, and write each JSON
  document to ``PATH`` (a file, or an existing directory that receives each
  entry's result file) with every observer's native export beside it;
* ``show <doc> [<doc>]``   — render a saved document as ``run`` printed it,
  or diff two documents' explain reports;
* ``profile <id>... [--smoke]`` — run registry entries under cProfile and
  print the per-subsystem wall-clock cost table;
* ``selftest``             — a fast end-to-end sanity run of both stores.
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


def _write_outputs(run, path: str) -> list[str]:
    """The document at ``path`` and each observer export beside it."""
    from repro.bench.registry import write_json

    write_json(run.document, path)
    stem = path[: -len(".json")] if path.endswith(".json") else path
    written = [path]
    for suffix, text in run.exports().items():
        with open(stem + suffix, "w") as fh:
            fh.write(text)
        written.append(stem + suffix)
    return written


def _cmd_run(args) -> int:
    from repro.bench.registry import OBSERVERS, configure, execute
    from repro.obs.show import render

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
        # Files first: a closed stdout pipe (`... | head`) must not cost them.
        written = _write_outputs(run, path) if path else []
        for table in run.tables():
            print(table)
        print(render(run.document))
        for name in written:
            print(f"wrote {name}")
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


def _cmd_show(args) -> int:
    import json

    from repro.obs.show import render, render_diff

    if len(args.docs) > 2:
        print("repro show: one document, or two to diff", file=sys.stderr)
        return 2
    docs = []
    for path in args.docs:
        with open(path) as fh:
            docs.append(json.load(fh))
    if len(docs) == 1:
        print(render(docs[0]))
        return 0
    try:
        print(render_diff(*docs, names=args.docs))
    except ValueError as exc:
        print(f"repro show: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_profile(args) -> int:
    from repro.bench.registry import configure, execute
    from repro.obs.profile import format_profile, profile_call, subsystem_rows

    try:
        plans = [configure(entry_id, args.smoke) for entry_id in args.ids]
    except ValueError as exc:
        print(f"repro profile: {exc}", file=sys.stderr)
        return 2
    for entry, config in plans:
        run, stats = profile_call(execute, entry, config)
        rows = subsystem_rows(stats)
        total = sum(r["tottime"] for r in rows)
        print(f"== {entry.id}: interpreter time by subsystem ==")
        print(format_profile(rows, total))
        print(f"{total:.3f}s interpreter time ({'ok' if run.ok else 'checks FAILED'})")
    return 0


#: one ``run`` flag per observer (:data:`repro.bench.registry.OBSERVERS`)
_OBSERVER_HELP = {
    "trace": "record span trees: latency attribution, a Chrome trace and "
    "a Prometheus dump",
    "timeline": "record sampled series and SLO alerts (sparklines, CSV, "
    "counter tracks)",
    "explain": "attach a critical-path explain report, checked for >= 95%% "
    "attributed latency",
    "journal": "record the lifecycle-event journal (JSONL)",
    "audit": "audit every device invariant at each flush and phase boundary "
    "and at the end (fails on a violation); attach the device snapshot",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="KV-CSD reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list the paper's experiments").set_defaults(
        func=_cmd_list
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
    for name, help_text in _OBSERVER_HELP.items():
        run.add_argument(f"--{name}", action="store_true", help=help_text)
    run.add_argument(
        "--set", action="append", default=[], metavar="FIELD=VALUE",
        help="override one config field (repeatable; tuples comma-separated)",
    )
    run.set_defaults(func=_cmd_run)
    sub.add_parser("selftest", help="fast sanity run of both stores").set_defaults(
        func=_cmd_selftest
    )
    show = sub.add_parser(
        "show", help="render a saved run document; two documents: their explain diff"
    )
    show.add_argument("docs", nargs="+", metavar="DOC", help="JSON written by run --out")
    show.set_defaults(func=_cmd_show)
    profile = sub.add_parser(
        "profile", help="run registry entries under cProfile, print per-subsystem cost"
    )
    profile.add_argument("ids", nargs="+", help="registry ids (see `list`)")
    profile.add_argument("--smoke", action="store_true", help="the reduced configurations")
    profile.set_defaults(func=_cmd_profile)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
