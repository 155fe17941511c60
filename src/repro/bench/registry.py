"""The one registry of experiments and benches, and the one runner.

Every table and figure of the paper's evaluation and every ablation bench is
one :class:`Entry`: a scenario function, its default and reduced (``--smoke``)
configs, the file its JSON document lands in, and the observers the
scenario accepts.  A paper entry's checks are its rows of
:data:`repro.bench.claims.CLAIMS`; a bench's are its result's ``checks()``.
``repro run``, ``benchmarks/`` and ``examples/reproduce_paper.py`` all go
through :func:`configure` + :func:`execute`; DESIGN.md "Bench registry"
says how to add an entry.

A scenario is called as ``scenario(config)``, or ``scenario(config,
observe)`` when the entry accepts observers: it calls ``observe(testbed)``
on the one testbed whose run is worth observing, and the runner installs
the requested observers there, attaches their reports to the document,
turns their gates into checks and offers their native exports
(:meth:`Run.exports`).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace
from types import SimpleNamespace
from typing import Any, Callable, get_args, get_origin, get_type_hints

from repro.bench.claims import CLAIMED, FidelityConfig, run_fidelity, shape_checks
from repro.bench.cluster import ClusterBenchConfig, run_cluster_bench
from repro.bench.compaction import CompactionBenchConfig, run_compaction_bench
from repro.bench.crash import CrashBenchConfig, run_crash_bench
from repro.bench.fig7 import Fig7Config, run_fig7
from repro.bench.fig8 import Fig8Config, run_fig8
from repro.bench.fig9 import Fig9Config, run_fig9
from repro.bench.fig10 import Fig10Config, run_fig10
from repro.bench.fig11 import Fig11Config, run_fig11
from repro.bench.fig12 import Fig12Config, run_fig12
from repro.bench.observed import (
    ObsLifecycleConfig,
    ObsSaturateConfig,
    ObsSelftestConfig,
    run_obs_lifecycle,
    run_obs_saturate,
    run_obs_selftest,
)
from repro.bench.qd import QdBenchConfig, run_qd_bench
from repro.bench.query import QueryBenchConfig, run_query_bench
from repro.bench.report import ResultTable, ShapeCheck
from repro.bench.scale import ScaleBenchConfig, run_scale_bench
from repro.bench.table1 import table1
from repro.units import KiB

__all__ = [
    "Entry",
    "OBSERVERS",
    "Observe",
    "REGISTRY",
    "Run",
    "configure",
    "execute",
    "write_json",
]

#: Observer flags, in the order the runner installs them on a testbed.
OBSERVERS = ("trace", "timeline", "explain", "journal", "audit")


@dataclass(frozen=True)
class Entry:
    """One experiment or bench."""

    id: str
    description: str
    #: ``scenario(config[, observe])`` -> a result with ``table()``, and
    #: ``checks()`` unless the entry has ``bench.claims`` rows
    scenario: Callable[..., Any]
    config: Any = None
    #: the reduced configuration ``--smoke`` selects
    reduced: Any = None
    #: JSON document name; figures without one write ``<id>.json``
    result_file: str | None = None
    #: which of :data:`OBSERVERS` the scenario accepts
    observers: tuple[str, ...] = ()


_ENTRIES = (
    Entry(
        "table1",
        "Hardware specification (configuration encoding)",
        lambda config: SimpleNamespace(table=table1),  # a configuration, not a measurement
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
        observers=("timeline", "explain"),
    ),
    Entry(
        "qd",
        "Single-thread queue-depth sweep over the async I/O path",
        run_qd_bench,
        QdBenchConfig(),
        QdBenchConfig(n_pairs=2048, gets_per_depth=192, puts_per_depth=192),
        result_file="BENCH_qd.json",
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
    ),
    Entry(
        "obs_selftest",
        "Observed selftest: load, compact, point/multi/range queries",
        run_obs_selftest,
        ObsSelftestConfig(),
        ObsSelftestConfig(n_pairs=400),
        observers=OBSERVERS,
    ),
    Entry(
        "obs_saturate",
        "One query worker overdriven by a deep GET burst (trips the SLO watchdog)",
        run_obs_saturate,
        ObsSaturateConfig(),
        ObsSaturateConfig(n_pairs=1024, burst=192),
        observers=OBSERVERS,
    ),
    Entry(
        "obs_lifecycle",
        "Keyspace lifecycle with an inline secondary index, for the auditor",
        run_obs_lifecycle,
        ObsLifecycleConfig(),
        ObsLifecycleConfig(n_pairs=800),
        observers=OBSERVERS,
    ),
    Entry(
        "fidelity",
        "The ledger: every claim of Table I and Figs 7-12, ours beside the paper's",
        run_fidelity,
        FidelityConfig(),
        FidelityConfig(smoke=True),
        result_file="FIDELITY.json",
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
    if config is None or isinstance(config, FidelityConfig):
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
#: journal events a document keeps (the ``.journal.jsonl`` export has all)
JOURNAL_TAIL = 32


class Observe:
    """The ``observe(testbed)`` hook handed to a scenario: the one observer
    installer, and what the observers report, gate and export."""

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
        if {"journal", "timeline"} & self.names:
            from repro.obs.journal import install_journal

            install_journal(env)
        if "timeline" in self.names:
            # a timeline alone keeps no spans (flat memory at 1M keys); the
            # explain report is built from the span trees
            testbed.enable_timeline(retain_spans="explain" in self.names)
        if "explain" in self.names:
            from repro.obs.critpath import install_critpath

            if env.tracer is None:
                testbed.enable_tracing()
            install_critpath(env, tracer=env.tracer)
        if "audit" in self.names:
            from repro.obs.audit import attach_auditor

            attach_auditor(testbed.device, level="phase")

    def reports(self) -> dict:
        """The observed testbed's JSON-able reports, for the document."""
        if self.testbed is None:
            return {}
        env = self.testbed.env
        if "audit" in self.names:
            # first, so the journal below includes the pass's own event
            self.testbed.device.auditor.run("final")
        out = {}
        if "trace" in self.names:
            from repro.obs import attribution_rows

            out["attribution"] = attribution_rows(env.tracer)
        if "timeline" in self.names:
            out["timeline"] = env.timeline.to_json()
        if "explain" in self.names:
            from repro.obs.critpath import explain_report

            out["explain"] = explain_report(env.tracer, env.critpath, now=env.now)
        if "journal" in self.names:
            out["journal"] = {
                "summary": env.journal.summary(),
                "tail": [event.as_dict() for event in env.journal.tail(JOURNAL_TAIL)],
            }
        if "audit" in self.names:
            from repro.obs.inspect import device_snapshot

            auditor = self.testbed.device.auditor
            out["audit"] = {
                "summary": auditor.summary(),
                "reports": [report.as_dict() for report in auditor.reports],
            }
            out["snapshot"] = device_snapshot(self.testbed.device)
        return out

    def gates(self, reports: dict) -> list[ShapeCheck]:
        """One check per gated observer; a failed gate fails the run."""
        checks = []
        if "explain" in self.names:
            attributed = reports.get("explain", {}).get("min_attributed", 0.0)
            checks.append(ShapeCheck(
                "explain: >= 95% of every sampled op's latency is "
                "attributed to typed segments",
                attributed >= 0.95, f"{attributed * 100:.1f}%",
            ))
        if "audit" in reports:
            violations = reports["audit"]["summary"]["total_violations"]
            checks.append(ShapeCheck(
                "audit: no device invariant is violated at any flush, "
                "phase boundary or the end",
                violations == 0, f"{violations} violation(s)",
            ))
        return checks

    def exports(self, reports: dict) -> dict[str, str]:
        """Each observer's native export, by the file suffix it is saved as."""
        if self.testbed is None:
            return {}
        env = self.testbed.env
        out = {}
        if "trace" in self.names:
            from repro.obs import to_chrome_trace

            out[".trace.json"] = json.dumps(
                to_chrome_trace(env.tracer, timeline=env.timeline)
            )
        if {"trace", "timeline"} & self.names:
            out[".prom"] = env.tracer.hub.to_prometheus()
        if "timeline" in self.names:
            from repro.obs import timeline_to_csv

            out[".timeline.csv"] = timeline_to_csv(reports["timeline"])
        if "explain" in self.names:
            from repro.obs.critpath import explain_to_folded

            out[".explain.folded"] = explain_to_folded(reports["explain"])
        if "journal" in self.names:
            out[".journal.jsonl"] = env.journal.to_jsonl()
        return out


@dataclass
class Run:
    """One executed entry: the scenario's result, its checks, its document,
    and the testbed the observers watched (``None`` when none were asked
    for)."""

    result: Any
    checks: list[ShapeCheck]
    document: dict = field(default_factory=dict)
    observed: Observe = field(default_factory=lambda: Observe(()))

    @property
    def ok(self) -> bool:
        return all(check.passed for check in self.checks)

    @property
    def testbed(self):
        return self.observed.testbed

    def tables(self) -> list[ResultTable]:
        tables = [self.result.table()]
        if hasattr(self.result, "io_table"):
            tables.append(self.result.io_table())
        return tables

    def exports(self) -> dict[str, str]:
        return self.observed.exports(self.document)


def execute(entry: Entry, config, observers=()) -> Run:
    """Run one configured entry and build its JSON document."""
    observe = Observe(observers)
    if entry.observers:
        result = entry.scenario(config, observe)
    else:
        result = entry.scenario(config)
    reports = observe.reports()
    own = shape_checks(entry.id, result) if entry.id in CLAIMED else result.checks()
    checks = own + observe.gates(reports)
    run = Run(result, checks, observed=observe)
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
