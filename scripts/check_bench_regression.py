#!/usr/bin/env python
"""Perf-regression gate: compare fresh bench JSON against committed baselines.

CI runs the smoke benches fresh every build and lands their JSON in
``results/``; this script compares those documents against the committed
baselines in ``results/baselines/smoke/`` and fails (exit 1) when a
headline metric regressed beyond its tolerance.

The gated metrics are *virtual-clock* quantities (phase seconds, speedups,
cache hit rates) — deterministic for a fixed config, so the tolerances are
tight and a trip means the simulation's performance model actually moved,
not that the CI runner was slow.  Wall-clock numbers are reported for
context but never gated (runner noise).  Directionality matters: speedups
and hit rates gate one-sided on *worse* (lower), phase seconds on *worse*
(higher); improvements always pass — refresh the baselines when you land
one, so the gate ratchets.  The gate and context rows live with each bench
in ``repro.bench.registry``; every entry with gates is checked.

Regenerate baselines (only when a change is *supposed* to move them)::

    PYTHONPATH=src python -m repro run query qd scale cluster crash --smoke --out results/baselines/smoke

Usage::

    python scripts/check_bench_regression.py \
        --fresh results --baseline results/baselines/smoke \
        [--report comparison.json]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Optional

try:
    from repro.bench.registry import REGISTRY
except ImportError:
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    )
    from repro.bench.registry import REGISTRY
from repro.obs.critpath import diff_explain


def _lookup(doc: Any, path: str) -> Optional[float]:
    node = doc
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return float(node) if isinstance(node, (int, float)) else None


def _load(directory: str, name: str) -> Optional[dict]:
    path = os.path.join(directory, name)
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def _explain_hints(
    docs: dict[str, tuple[Optional[dict], Optional[dict]]]
) -> list[str]:
    """Context-only "what changed" lines from attached explain reports.

    When both the fresh and the baseline document carry a critical-path
    ``explain`` report (``--explain`` bench runs), diff them and surface
    the largest per-op segment movements — the resource/kind whose shift
    explains a latency delta.  Committed baselines without explain silently
    produce no hints; these lines never gate.
    """
    hints: list[str] = []
    for name in sorted(docs):
        fresh, base = docs[name]
        if not isinstance(fresh, dict) or not isinstance(base, dict):
            continue
        fresh_exp = fresh.get("explain")
        base_exp = base.get("explain")
        if not isinstance(fresh_exp, dict) or not isinstance(base_exp, dict):
            continue
        for row in diff_explain(base_exp, fresh_exp)[:5]:
            if row["delta"] is None:
                state = "appeared" if row["after"] else "disappeared"
                hints.append(f"{name}: {row['op']} {state}")
                continue
            hints.append(
                f"{name}: {row['op']} {row['metric']}: "
                f"{row['before']:.6g} -> {row['after']:.6g} "
                f"({row['delta']:+.3g}s)"
            )
    return hints


def compare(
    fresh_dir: str, baseline_dir: str
) -> tuple[list[dict], list[str], list[str]]:
    """Returns (per-metric rows, failure messages, explain hints)."""
    rows: list[dict] = []
    failures: list[str] = []
    docs: dict[str, tuple[Optional[dict], Optional[dict]]] = {}
    gated = sorted(
        (e for e in REGISTRY.values() if e.gates), key=lambda e: e.result_file
    )
    for entry in gated:
        name = entry.result_file
        fresh = _load(fresh_dir, name)
        base = _load(baseline_dir, name)
        docs[name] = (fresh, base)
        if base is None:
            failures.append(f"{name}: no committed baseline in {baseline_dir}")
            continue
        if fresh is None:
            failures.append(f"{name}: no fresh result in {fresh_dir}")
            continue
        if fresh.get("config") != base.get("config"):
            failures.append(
                f"{name}: fresh and baseline configs differ — comparison is "
                "meaningless (did the smoke config change without a baseline "
                "refresh?)"
            )
            continue
        for check in fresh.get("checks", []):
            if not check.get("passed", False):
                failures.append(
                    f"{name}: shape check failed: {check['description']}"
                    + (f" ({check['observed']})" if check.get("observed") else "")
                )

        for path, direction, tol in entry.gates:
            fresh_v = _lookup(fresh, path)
            base_v = _lookup(base, path)
            row = {
                "bench": name,
                "metric": path,
                "direction": direction,
                "tolerance": tol,
                "baseline": base_v,
                "fresh": fresh_v,
                "regressed": False,
            }
            if base_v is None:
                failures.append(f"{name}: baseline lacks metric {path!r}")
            elif fresh_v is None:
                row["regressed"] = True
                failures.append(f"{name}: fresh result lacks metric {path!r}")
            else:
                if direction == "higher":
                    bad = fresh_v < base_v * (1.0 - tol)
                else:
                    bad = fresh_v > base_v * (1.0 + tol)
                row["regressed"] = bad
                if bad:
                    failures.append(
                        f"{name}: {path} regressed — fresh {fresh_v:.6g} vs "
                        f"baseline {base_v:.6g} "
                        f"({'lower' if direction == 'higher' else 'higher'} is "
                        f"worse, tolerance {tol:.0%})"
                    )
            rows.append(row)

        for path in entry.context:
            rows.append(
                {
                    "bench": name,
                    "metric": path,
                    "direction": "context",
                    "tolerance": None,
                    "baseline": _lookup(base, path),
                    "fresh": _lookup(fresh, path),
                    "regressed": False,
                }
            )
    return rows, failures, _explain_hints(docs)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="compare fresh smoke-bench JSON against committed baselines"
    )
    parser.add_argument("--fresh", default="results")
    parser.add_argument("--baseline", default="results/baselines/smoke")
    parser.add_argument(
        "--report", default=None, help="write the comparison table as JSON"
    )
    args = parser.parse_args(argv[1:])

    rows, failures, hints = compare(args.fresh, args.baseline)
    width = max((len(r["metric"]) for r in rows), default=10)
    for row in rows:
        base_v, fresh_v = row["baseline"], row["fresh"]
        delta = ""
        if isinstance(base_v, float) and isinstance(fresh_v, float) and base_v:
            delta = f"{(fresh_v - base_v) / base_v:+.2%}"
        marker = "REGRESSED" if row["regressed"] else (
            "ctx" if row["direction"] == "context" else "ok"
        )
        print(
            f"{row['bench']:<22} {row['metric']:<{width}} "
            f"base={base_v!r:<12} fresh={fresh_v!r:<12} {delta:>8}  {marker}"
        )
    if hints:
        print("what changed (critical-path explain, context only):")
        for hint in hints:
            print(f"  {hint}")
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(
                {"rows": rows, "failures": failures,
                 "explain_hints": hints, "ok": not failures},
                fh, indent=2, sort_keys=True,
            )
            fh.write("\n")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("bench regression gate: all metrics within tolerance")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
