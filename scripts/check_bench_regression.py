#!/usr/bin/env python
"""Bench-document gate: every fresh smoke document equals its baseline.

Each ``BENCH_*.json`` in the baseline directory is a pinned smoke document,
and the fresh document of the same name must match it field for field:
config, every metric and every shape check.  The virtual clock is
deterministic, so there is no tolerance.  Left out are paths containing
"wall" (host time) and the ``explain`` report and ``explain:`` check that
``--explain`` attaches.  A change that moves the model regenerates the
baselines and says why::

    PYTHONPATH=src python -m repro run query qd scale cluster crash --smoke --out results/baselines/smoke

Usage (exit 1 on any drift)::

    PYTHONPATH=src python -m repro run query qd scale cluster crash --smoke --out results
    python scripts/check_bench_regression.py --fresh results --baseline results/baselines/smoke

With ``--perf`` it checks the other pinned file of the baseline directory
instead: each workload's ``detail.virt_fingerprint`` in a ``perf/run.py``
document must equal ``perf_fingerprints.json``, exactly::

    python3 perf/run.py --smoke --out /tmp/perf_smoke.json
    python scripts/check_bench_regression.py --perf /tmp/perf_smoke.json
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

try:
    from repro.bench.report import drift, flat
except ImportError:
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    )
    from repro.bench.report import drift, flat

#: drifted paths printed per document
SHOWN = 10


def gated(path: str) -> dict:
    """A document's gated fields, flat: no wall clock, no explain report."""
    with open(path) as fh:
        doc = json.load(fh)
    doc.pop("explain", None)
    doc["checks"] = [
        check for check in doc.get("checks", [])
        if not check["description"].startswith("explain:")
    ]
    return {p: v for p, v in flat(doc) if "wall" not in p}


def compare(fresh_dir: str, baseline_dir: str) -> dict[str, dict]:
    """``{document: drift}`` for every baseline document."""
    out = {}
    for base in sorted(glob.glob(os.path.join(baseline_dir, "BENCH_*.json"))):
        name = os.path.basename(base)
        fresh = os.path.join(fresh_dir, name)
        out[name] = drift(gated(base), gated(fresh) if os.path.exists(fresh) else {})
    return out


def check_perf(perf_path: str, baseline_dir: str) -> int:
    """Exit code of the ``--perf`` comparison.  A fingerprint is a sha256 over
    a workload's model clocks, device counters and checked-op counts: a
    host-clock-only change leaves all six alone, and a change that moves one
    regenerates the file and says why."""
    pins = os.path.join(baseline_dir, "perf_fingerprints.json")
    with open(pins) as fh:
        pinned = json.load(fh)["virt_fingerprint"]
    with open(perf_path) as fh:
        runs = json.load(fh)["workloads"]
    moved = drift(
        pinned, {name: run["detail"]["virt_fingerprint"] for name, run in runs.items()}
    )
    for name, (old, new) in sorted(moved.items()):
        print(f"{name}: baseline {old!r} fresh {new!r}")
    if moved:
        print(
            f"model fingerprint moved on {', '.join(sorted(moved))}: see {pins}",
            file=sys.stderr,
        )
        return 1
    print("every model fingerprint equals its baseline")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="fresh smoke documents must equal their committed baselines"
    )
    parser.add_argument("--fresh", default="results")
    parser.add_argument("--baseline", default="results/baselines/smoke")
    parser.add_argument(
        "--perf", metavar="PERF_JSON",
        help="compare this perf/run.py document's model fingerprints instead",
    )
    args = parser.parse_args(argv[1:])
    if args.perf:
        return check_perf(args.perf, args.baseline)

    drifted = compare(args.fresh, args.baseline)
    if not drifted:
        print(f"no BENCH_*.json baselines in {args.baseline}", file=sys.stderr)
        return 1
    for name, paths in drifted.items():
        print(f"{name}: {len(paths)} drifted")
        for path, (pinned, fresh) in list(paths.items())[:SHOWN]:
            print(f"  {path}: baseline {pinned!r} fresh {fresh!r}")
    moved = [name for name, paths in drifted.items() if paths]
    if moved:
        print(
            f"smoke documents drifted ({', '.join(moved)}): regenerate "
            f"{args.baseline} and say why",
            file=sys.stderr,
        )
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
