"""The one registry of experiments and benches, and the one runner.

Every table and figure of the paper's evaluation and every ablation bench is
one :class:`Entry`: a scenario function, its default and reduced (``--smoke``)
configs, the file its JSON document lands in, the regression gates
``scripts/check_bench_regression.py`` applies to that document, and the
observers the scenario accepts.  ``repro run``, ``benchmarks/`` and
``examples/reproduce_paper.py`` all go through :func:`configure` +
:func:`execute`; DESIGN.md "Bench registry" says how to add an entry.

A scenario is called as ``scenario(config)``, or ``scenario(config,
observe)`` when the entry accepts observers: it calls ``observe(testbed)``
on the one testbed whose run is worth observing, and the runner installs
the requested observers there and attaches their reports to the document.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Callable, get_args, get_origin, get_type_hints

from repro.bench.cluster import ClusterBenchConfig, run_cluster_bench
from repro.bench.compaction import CompactionBenchConfig, run_compaction_bench
from repro.bench.crash import CrashBenchConfig, run_crash_bench
from repro.bench.fig7 import Fig7Config, run_fig7
from repro.bench.fig8 import Fig8Config, run_fig8
from repro.bench.fig9 import Fig9Config, run_fig9
from repro.bench.fig10 import Fig10Config, run_fig10
from repro.bench.fig11 import Fig11Config, run_fig11
from repro.bench.fig12 import Fig12Config, run_fig12
from repro.bench.qd import QdBenchConfig, run_qd_bench
from repro.bench.query import QueryBenchConfig, run_query_bench
from repro.bench.report import ResultTable, ShapeCheck
from repro.bench.scale import ScaleBenchConfig, run_scale_bench
from repro.bench.table1 import table1, table1_checks
from repro.units import KiB

__all__ = [
    "Entry",
    "OBSERVERS",
    "REGISTRY",
    "Run",
    "configure",
    "execute",
    "write_json",
]

#: Observer flags, in the order the runner installs them on a testbed.
OBSERVERS = ("trace", "timeline", "explain")


@dataclass(frozen=True)
class Entry:
    """One experiment or bench."""

    id: str
    description: str
    #: ``scenario(config[, observe])`` -> a result with ``table()``/``checks()``
    scenario: Callable[..., Any]
    config: Any = None
    #: the reduced configuration ``--smoke`` selects
    reduced: Any = None
    #: JSON document name; figures without one write ``<id>.json``
    result_file: str | None = None
    #: ``(dotted path, "higher" | "lower", relative tolerance)`` rows the
    #: regression gate checks against ``results/baselines/smoke``
    gates: tuple[tuple[str, str, float], ...] = ()
    #: dotted paths reported next to the gates, never gated (wall clocks)
    context: tuple[str, ...] = ()
    #: which of :data:`OBSERVERS` the scenario accepts
    observers: tuple[str, ...] = ()


class _Table1Result:
    """Table I as a result: a configuration table, not a measurement."""

    def table(self) -> ResultTable:
        return table1()

    def checks(self) -> list[ShapeCheck]:
        return table1_checks()


_ENTRIES = (
    Entry(
        "table1",
        "Hardware specification (configuration encoding)",
        lambda config: _Table1Result(),
    ),
    Entry(
        "fig7",
        "PUT time + I/O stats vs host cores, shared keyspace",
        run_fig7,
        Fig7Config(),
        Fig7Config(n_pairs=16384, thread_counts=(1, 2, 4, 8)),
    ),
    Entry(
        "fig8",
        "Insertion time vs value size (32B-4KB)",
        run_fig8,
        Fig8Config(),
        Fig8Config(
            n_pairs=4096,
            value_sizes=(32, 512, 4096),
            rocksdb_threads=8,
            kvcsd_thread_counts=(2, 8),
        ),
    ),
    Entry(
        "fig9",
        "Multi-keyspace scaling; RocksDB auto/deferred/none",
        run_fig9,
        Fig9Config(),
        Fig9Config(pairs_per_thread=4096, thread_counts=(1, 4, 8)),
    ),
    Entry(
        "fig10",
        "Random GET time + read inflation",
        run_fig10,
        Fig10Config(),
        Fig10Config(
            n_keyspaces=8,
            pairs_per_keyspace=8192,
            query_counts=(64, 128, 256, 512),
        ),
    ),
    Entry(
        "fig11",
        "VPIC write-phase breakdown (effective write time)",
        run_fig11,
        Fig11Config(),
        Fig11Config(n_particles=32768),
    ),
    Entry(
        "fig12",
        "VPIC secondary-index query time vs selectivity",
        run_fig12,
        Fig12Config(),
        Fig12Config(
            n_particles=65536, n_files=8, selectivities=(0.001, 0.01, 0.1, 0.2)
        ),
    ),
    Entry(
        "compaction",
        "Multi-core pipelined compaction + device block cache ablation",
        run_compaction_bench,
        CompactionBenchConfig(),
        CompactionBenchConfig(n_pairs=8192, n_queries=512),
        result_file="BENCH_compaction.json",
        observers=("trace", "timeline", "explain"),
    ),
    Entry(
        "query",
        "Query-scheduler fan-out + PIDX bloom ablation",
        run_query_bench,
        QueryBenchConfig(),
        QueryBenchConfig(
            n_pairs=2048, n_threads=4, queries_per_thread=64, absent_queries=256
        ),
        result_file="BENCH_query.json",
        gates=(
            ("get_speedup", "higher", 0.10),
            ("parallel_get_seconds", "lower", 0.02),
            ("block_read_elimination", "higher", 0.05),
        ),
        observers=("timeline", "explain"),
    ),
    Entry(
        "qd",
        "Single-thread queue-depth sweep over the async I/O path",
        run_qd_bench,
        QdBenchConfig(),
        QdBenchConfig(n_pairs=2048, gets_per_depth=192, puts_per_depth=192),
        result_file="BENCH_qd.json",
        gates=(
            ("get_speedup.16", "higher", 0.10),
            ("get_seconds.16", "lower", 0.02),
            ("put_seconds.16", "lower", 0.02),
        ),
        observers=("timeline", "explain"),
    ),
    Entry(
        "scale",
        "1M-key multi-keyspace YCSB-style load + read/update run",
        run_scale_bench,
        ScaleBenchConfig(),
        # same shape, ~1/16 the keys
        ScaleBenchConfig(n_pairs=64_000, ops=4_000, membuf_bytes=256 * KiB),
        result_file="BENCH_scale.json",
        gates=(
            ("phases.load.virtual_seconds", "lower", 0.02),
            ("phases.prepare.virtual_seconds", "lower", 0.02),
            ("phases.ycsb.virtual_seconds", "lower", 0.02),
        ),
        context=("phases.load.wall_seconds", "phases.ycsb.wall_seconds"),
        observers=("timeline", "explain"),
    ),
    Entry(
        "cluster",
        "Scale-out router sweep over 1..N devices + online rebalance",
        run_cluster_bench,
        ClusterBenchConfig(),
        # two fleet sizes, 1/64 the keys
        ClusterBenchConfig(
            devices=(1, 2),
            n_pairs=65_536,
            ops=4_096,
            mixed_ops=2_048,
            n_threads=8,
            min_speedup=1.4,
            steady_gets=96,
            rebalance_pairs=32_768,
        ),
        result_file="BENCH_cluster.json",
        gates=(
            ("get_speedup_max", "higher", 0.10),
            ("put_speedup_max", "higher", 0.10),
            ("rebalance.p99_ratio", "lower", 0.10),
        ),
        observers=("explain",),
    ),
    Entry(
        "crash",
        "Randomized crash-injection campaign + recovery-time curves",
        run_crash_bench,
        CrashBenchConfig(),
        CrashBenchConfig(
            n_pairs=400,
            chunk_pairs=100,
            n_event_points=4,
            n_torn_points=2,
            absent_probes=24,
            curve_volumes=(300, 900),
            min_points=20,
        ),
        result_file="BENCH_crash.json",
        # Every sampled power cut must remount clean (no tolerance: one lost
        # ack is a durability bug, not a perf wobble).
        gates=(
            ("campaign.clean_fraction", "higher", 0.0),
            ("mount.max_seconds", "lower", 0.05),
        ),
    ),
)

REGISTRY: dict[str, Entry] = {entry.id: entry for entry in _ENTRIES}


# ---------------------------------------------------------------- configuring
_BOOLS = {"true": True, "1": True, "false": False, "0": False}


def _parse(kind, text: str):
    """One ``--set`` value, parsed by the config field's annotated type."""
    if get_origin(kind) is tuple:
        return tuple(_parse(get_args(kind)[0], part) for part in text.split(",") if part)
    if kind is bool:
        if text.lower() not in _BOOLS:
            raise ValueError(f"expected true/false, got {text!r}")
        return _BOOLS[text.lower()]
    return kind(text)


def _apply_settings(entry: Entry, config, settings) -> Any:
    if config is None:
        raise ValueError(f"{entry.id} has no configuration to --set")
    hints = get_type_hints(type(config))
    names = [f.name for f in fields(config)]
    changes = {}
    for setting in settings:
        name, _, text = setting.partition("=")
        if name not in names:
            raise ValueError(
                f"{entry.id} has no field {name!r}; valid fields: {', '.join(names)}"
            )
        try:
            changes[name] = _parse(hints[name], text)
        except ValueError as exc:
            raise ValueError(f"--set {setting}: {exc}") from None
    return replace(config, **changes)


def configure(
    entry_id: str, smoke: bool = False, settings=(), observers=()
) -> tuple[Entry, Any]:
    """Resolve an entry and its config; ``ValueError`` on any bad input.

    ``settings`` are ``FIELD=VALUE`` strings applied over the default (or,
    with ``smoke``, the reduced) config; the config's own validation runs
    here, so nothing has been simulated when an input is rejected.
    """
    entry = REGISTRY.get(entry_id)
    if entry is None:
        raise ValueError(
            f"unknown experiment {entry_id!r}; available: {', '.join(REGISTRY)}"
        )
    refused = [name for name in observers if name not in entry.observers]
    if refused:
        accepted = ", ".join(f"--{name}" for name in entry.observers) or "none"
        raise ValueError(
            f"{entry_id} does not accept --{refused[0]} (observers: {accepted})"
        )
    config = entry.reduced if smoke else entry.config
    if settings:
        config = _apply_settings(entry, config, settings)
    return entry, config


# ---------------------------------------------------------------- running
class _Observe:
    """The ``observe(testbed)`` hook handed to a scenario."""

    def __init__(self, names):
        self.names = frozenset(names)
        self.testbed = None

    def __call__(self, testbed) -> None:
        if not self.names:
            return
        self.testbed = testbed
        env = testbed.env
        if "trace" in self.names:
            testbed.enable_tracing()
        if "timeline" in self.names:
            from repro.obs.journal import install_journal

            install_journal(env)
            # a timeline alone keeps no spans (flat memory at 1M keys); the
            # explain report is built from the span trees
            testbed.enable_timeline(retain_spans="explain" in self.names)
        if "explain" in self.names:
            from repro.obs.critpath import install_critpath

            if env.tracer is None:
                testbed.enable_tracing()
            install_critpath(env, tracer=env.tracer)

    def reports(self) -> dict:
        """The observed testbed's attribution/timeline/explain documents."""
        if self.testbed is None:
            return {}
        env = self.testbed.env
        out = {}
        if "trace" in self.names:
            from repro.obs import attribution_rows

            out["attribution"] = attribution_rows(env.tracer)
        if "timeline" in self.names:
            out["timeline"] = env.timeline.to_json()
        if "explain" in self.names:
            from repro.obs.critpath import explain_report

            out["explain"] = explain_report(env.tracer, env.critpath, now=env.now)
        return out


@dataclass
class Run:
    """One executed entry: the scenario's result, its checks, its document."""

    result: Any
    checks: list[ShapeCheck]
    document: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(check.passed for check in self.checks)

    def tables(self) -> list[ResultTable]:
        tables = [self.result.table()]
        if hasattr(self.result, "io_table"):
            tables.append(self.result.io_table())
        return tables


def execute(entry: Entry, config, observers=()) -> Run:
    """Run one configured entry and build its JSON document."""
    observe = _Observe(observers)
    if entry.observers:
        result = entry.scenario(config, observe)
    else:
        result = entry.scenario(config)
    reports = observe.reports()
    checks = result.checks()
    if "explain" in observers:
        attributed = reports.get("explain", {}).get("min_attributed", 0.0)
        checks.append(
            ShapeCheck(
                "explain: >= 95% of every sampled op's latency is "
                "attributed to typed segments",
                attributed >= 0.95,
                f"{attributed * 100:.1f}%",
            )
        )
    run = Run(result, checks)
    if hasattr(result, "metrics"):
        metrics = result.metrics()
    else:
        metrics = {"tables": [table.to_dict() for table in run.tables()]}
    run.document = {
        "config": asdict(config) if config is not None else {},
        **metrics,
        **reports,
        "checks": [asdict(check) for check in checks],
    }
    return run


def write_json(document: dict, path) -> None:
    """Dump a run's document (``results/BENCH_*.json``)."""
    with open(path, "w") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")
