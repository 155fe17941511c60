"""The paper's evaluation as one table of claims, and the ledger over it.

Each :class:`Claim` is one criterion of Table I or Figures 7-12: the
registry entry whose result it reads, what it asserts, ``ours(result)``
(the number measured, or ``None`` when the run lacks the point, which skips
the claim), the relation that number must meet, and the paper's own value
where the paper gives one.  ``repro run figN`` turns an entry's claims into
its shape checks (:func:`shape_checks`); ``repro run fidelity`` runs every
claimed entry and writes each claim as one ledger row
(``results/FIDELITY.json``), so a check and its ledger row cannot disagree.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.bench.calibration import TABLE1_CSD, TABLE1_HOST, bench_geometry
from repro.bench.fig9 import MODES
from repro.bench.report import ResultTable, ShapeCheck

__all__ = ["CLAIMED", "CLAIMS", "Claim", "FidelityConfig", "Ledger", "claims_of",
           "run_fidelity", "shape_checks"]

AUTO, DEFERRED, NONE = MODES

#: a relation's test of ``ours`` against its bound; "in" is an open interval
RELATIONS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
             "==": operator.eq, "in": lambda ours, bound: bound[0] < ours < bound[1]}


def bound_text(relation: str, bound) -> str:
    if relation == "in":
        return f"in ({bound[0]:g}, {bound[1]:g})"
    return f"{relation} {bound:g}"


@dataclass(frozen=True)
class Claim:
    """One criterion of the paper's evaluation, checked on a result."""

    id: str
    text: str
    ours: Callable[[Any], float | None]
    relation: str
    bound: float | tuple[float, float]
    paper: float | None = None

    def check(self, ours: float) -> ShapeCheck:
        paper = "" if self.paper is None else f"; paper {self.paper:.4g}"
        return ShapeCheck(
            self.text,
            RELATIONS[self.relation](ours, self.bound),
            f"ours {ours:.4g}; bound {bound_text(self.relation, self.bound)}{paper}",
        )


def _growth(values) -> float:
    """The last point of a sweep over its first."""
    return values[-1] / values[0]


def _two_core(r) -> float | None:
    seconds = {row.threads: row.kvcsd_seconds for row in r.rows}
    return seconds[2] / min(seconds.values()) if 2 in seconds else None


def _fig8(r, threads: int) -> list[float]:
    """Speedup per value size at the fewest (0) or most (-1) KV-CSD threads."""
    t = r.config.kvcsd_thread_counts[threads]
    return [row.speedup_at(t) for row in r.rows]


def _fig9(r) -> dict:
    """Speedup over each RocksDB mode at the largest scale."""
    return {mode: r.rows[-1].speedup_over(mode) for mode in MODES}


CLAIMS = (
    # Table I: the encoding's internal consistency (the result is unused)
    Claim("table1", "Host has 8x the SoC's core count",
          lambda _: TABLE1_HOST.n_cores / TABLE1_CSD.n_cores, "==", 8, paper=32 / 4),
    Claim("table1", "SoC cores are weaker than host cores (A53 vs EPYC)",
          lambda _: TABLE1_CSD.arm_slowdown, ">", 1),
    Claim("table1", "SoC sort budget fits in SoC DRAM",
          lambda _: TABLE1_CSD.sort_budget_bytes / TABLE1_CSD.dram_bytes, "<=", 1),
    Claim("table1", "SSD capacity dwarfs SoC DRAM",
          lambda _: bench_geometry().capacity / TABLE1_CSD.dram_bytes, ">=", 4, paper=15e12 / 8e9),
    # Figure 7: PUT time and I/O vs host cores, one shared keyspace
    Claim("fig7", "KV-CSD beats RocksDB at every thread count",
          lambda r: min(row.speedup for row in r.rows), ">", 1),
    Claim("fig7", "KV-CSD reaches ~peak insert performance by 2 host cores", _two_core, "<=", 1.35),
    Claim("fig7", "RocksDB improves with more host cores",
          lambda r: _growth([row.rocksdb_seconds for row in r.rows]), "<", 1),
    Claim("fig7", "KV-CSD speedup at max threads is a multiple",
          lambda r: r.rows[-1].speedup, ">=", 2, paper=4.2),
    Claim("fig7", "Fig 7b: RocksDB writes a multiple of user data (compaction)",
          lambda r: min(row.rocksdb_io.bytes_written for row in r.rows) / r.user_bytes, ">", 1.8),
    Claim("fig7", "Fig 7b: KV-CSD moves less I/O during insertion than RocksDB",
          lambda r: max(row.kvcsd_io.total_bytes / row.rocksdb_io.total_bytes for row in r.rows),
          "<", 1),
    # Figure 8: insertion time vs value size
    Claim("fig8", "KV-CSD advantage grows with value size (compaction becomes data-movement bound)",
          lambda r: _growth(_fig8(r, -1)), ">", 1),
    Claim("fig8", "2-core KV-CSD still beats 32-core RocksDB at 4KB values",
          lambda r: _fig8(r, 0)[-1], ">", 1.5, paper=8.9),
    Claim("fig8", "KV-CSD beats RocksDB at every value size", lambda r: min(_fig8(r, -1)), ">", 1),
    # Figure 9: multi-keyspace insertion, RocksDB in three compaction modes
    Claim("fig9", "KV-CSD beats every RocksDB mode at every scale",
          lambda r: min(row.speedup_over(m) for row in r.rows for m in MODES), ">", 1),
    Claim("fig9", "Deferred compaction beats automatic compaction for RocksDB "
          "(single final pass moves less data)",
          lambda r: (s := r.rows[-1].rocksdb_seconds)[DEFERRED] / s[AUTO], "<", 1),
    Claim("fig9", "No-compaction is the fastest RocksDB mode",
          lambda r: (s := r.rows[-1].rocksdb_seconds)[NONE] / min(s[AUTO], s[DEFERRED]), "<=", 1),
    Claim("fig9", "Speedup ordering at max scale: auto > deferred > none",
          lambda r: min((x := _fig9(r))[AUTO] / x[DEFERRED], x[DEFERRED] / x[NONE], x[NONE]),
          ">", 1),
    Claim("fig9", "KV-CSD beats RocksDB with automatic compaction at max scale",
          lambda r: _fig9(r)[AUTO], ">", 1, paper=7.8),
    Claim("fig9", "KV-CSD beats RocksDB with deferred compaction at max scale",
          lambda r: _fig9(r)[DEFERRED], ">", 1, paper=6.1),
    Claim("fig9", "KV-CSD beats RocksDB with no compaction at max scale",
          lambda r: _fig9(r)[NONE], ">", 1, paper=2.9),
    # Figure 10: random GETs (10a) and read inflation (10b)
    Claim("fig10", "KV-CSD is faster at the smallest query count",
          lambda r: r.rows[0].speedup, ">", 1, paper=1.3),
    Claim("fig10", "RocksDB per-query time improves as more keys are queried (client-side caching)",
          lambda r: _growth([row.rocksdb_seconds / row.queries for row in r.rows]), "<", 1),
    Claim("fig10", "KV-CSD speedup shrinks as query count grows (no device cache)",
          lambda r: _growth([row.speedup for row in r.rows]), "<", 1),
    Claim("fig10", "Fig 10b: RocksDB reads far more than it returns (read inflation)",
          lambda r: min(row.rocksdb_io.bytes_read / (row.queries * r.config.value_bytes)
                        for row in r.rows), ">", 4),
    Claim("fig10", "Fig 10b: on a cold cache (smallest run) KV-CSD reads less from the media "
          "than RocksDB",
          lambda r: r.rows[0].kvcsd_io.bytes_read / r.rows[0].rocksdb_io.bytes_read, "<", 1),
    # Figure 11: VPIC write-phase breakdown
    Claim("fig11", "KV-CSD effective write time is a multiple faster",
          lambda r: r.effective_speedup, ">=", 4, paper=10.6),
    Claim("fig11", "End-to-end (insert+compact+index) both systems are the same order of magnitude",
          lambda r: r.kvcsd_total_s / r.rocksdb_effective_s, "in", (0.2, 3)),
    Claim("fig11", "RocksDB's reported time includes a compaction wait",
          lambda r: r.rocksdb_wait_s, ">", 0),
    # Figure 12: secondary-index query time vs selectivity
    Claim("fig12", "Both systems return exactly the matching particles",
          lambda r: sum((row.kvcsd_hits != row.expected_hits)
                        + (row.rocksdb_hits != row.expected_hits) for row in r.rows), "<=", 0),
    Claim("fig12", "KV-CSD is a multiple faster at the most selective query",
          lambda r: r.rows[0].speedup, ">=", 2, paper=7.4),
    Claim("fig12", "The speedup decays as selectivity grows",
          lambda r: _growth([row.speedup for row in r.rows]), "<", 1, paper=1.3 / 7.4),
    Claim("fig12", "KV-CSD query time is ~linear in the result size (no caching)",
          lambda r: _growth([row.kvcsd_seconds for row in r.rows]), ">", 1),
)

#: the registry ids with claims, in table order
CLAIMED = tuple(dict.fromkeys(claim.id for claim in CLAIMS))


def claims_of(entry_id: str) -> list[Claim]:
    return [claim for claim in CLAIMS if claim.id == entry_id]


def shape_checks(entry_id: str, result) -> list[ShapeCheck]:
    """An entry's claims checked on its result; a claim without a value
    (``ours`` is ``None``) is skipped."""
    return [
        claim.check(ours)
        for claim in claims_of(entry_id)
        if (ours := claim.ours(result)) is not None
    ]


# ---------------------------------------------------------------- the ledger
@dataclass(frozen=True)
class FidelityConfig:
    """The ledger runs each claimed entry at its default config, or with
    ``smoke`` at its reduced one; ``--smoke`` is its only setting."""

    smoke: bool = False


@dataclass
class Ledger:
    """Every claim of every claimed entry: its row (``results/FIDELITY.json``)
    and, unless it was skipped, its check."""

    rows: list[dict] = field(default_factory=list)
    found: list[ShapeCheck] = field(default_factory=list)

    def table(self) -> ResultTable:
        t = ResultTable("Ledger: the paper's claims, ours beside them",
                        ["claim", "paper", "ours", "bound", "verdict"])
        for row in self.rows:
            t.add_row(
                f"{row['id']}: {row['text']}",
                "-" if row["paper"] is None else row["paper"],
                "n/a" if row["ours"] is None else row["ours"],
                bound_text(row["relation"], row["bound"]),
                {True: "PASS", False: "FAIL", None: "skip"}[row["passed"]],
            )
        return t

    def checks(self) -> list[ShapeCheck]:
        return self.found

    def metrics(self) -> dict:
        return {"claims": self.rows}


def run_fidelity(config: FidelityConfig = FidelityConfig()) -> Ledger:
    """Run Table I and Figures 7-12 and check every claim."""
    from repro.bench.registry import configure  # the registry lists this entry

    ledger = Ledger()
    for entry_id in CLAIMED:
        entry, entry_config = configure(entry_id, config.smoke)
        result = entry.scenario(entry_config)
        for claim in claims_of(entry_id):
            ours = claim.ours(result)
            check = None if ours is None else claim.check(ours)
            ledger.rows.append({
                "id": claim.id,
                "text": claim.text,
                "paper": claim.paper,
                # strict JSON: an undefined or infinite value is null
                "ours": float(ours) if ours is not None and math.isfinite(ours) else None,
                "relation": claim.relation,
                "bound": claim.bound,
                "passed": None if check is None else check.passed,
            })
            if check is not None:
                ledger.found.append(replace(check, description=f"{entry_id}: {check.description}"))
    return ledger
