#!/usr/bin/env python3
"""The repo's benchmark: one command, every metric by name.

``python3 perf/run.py`` runs every workload, each in a fresh subprocess,
with tracing off, prints every end-to-end metric with its unit and checks
every returned value against the generated inputs; ``--trace`` adds one
traced run per workload for the per-layer numbers and ``--micro`` the
per-layer microbenchmarks.  It exits non-zero if any output was wrong.

``python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1``
measures one workload in this process and prints, as the last line of its
standard output, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    raise ImportError(f"nothing to measure: {ROOT}/src/repro is missing")
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import numpy  # noqa: E402

from perf import harness, micro  # noqa: E402
from perf.scenarios import KVCSD_CONFIG, SCENARIOS  # noqa: E402

DETAIL_PREFIX = "detail: "


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=list(SCENARIOS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=53,
                        help="seed of the input generators")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long one run repeats its rounds")
    parser.add_argument("--rounds", type=int,
                        help="run exactly N rounds instead of --seconds")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics")
    parser.add_argument("--micro", action="store_true",
                        help="also run the microbenchmarks (1 s each)")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at 1/8 size, one round")
    parser.add_argument("--out", help="write the collected results as JSON")
    return parser.parse_args(argv)


def print_metrics(metrics: dict) -> None:
    for name, metric in metrics.items():
        print(f"  {name:36s} {metric['value']:16.6f} {metric['unit']}")


def run_one(args) -> int:
    """Measure one workload in this process (the driver's entry)."""
    name = args.workload[0]
    result, detail = harness.measure(
        name, args.seed, args.seconds, rounds=args.rounds, smoke=args.smoke,
        trace=bool(args.trace),
    )
    print(f"{name}: seed {args.seed}, sizes {detail['sizes']}, "
          f"{detail['host']['wall_s']['rounds']} untraced round(s)")
    print_metrics(result["metrics"])
    for row in detail.get("trace", {}).get("hottest", ()):
        print(f"  hot {row['self_s']:8.3f} s {row['calls']:9d} calls  {row['function']}")
    print(f"  failed_op_share {result['failed']}/{result['attempted']}, "
          f"virt_fingerprint {detail['virt_fingerprint'][:16]}")
    print(DETAIL_PREFIX + json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def child(name: str, args, trace: int) -> dict:
    """One workload in a fresh process, so peak RSS and caches are its own."""
    command = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(trace)]
    if args.rounds is not None:
        command += ["--rounds", str(args.rounds)]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    lines = done.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"perf/run.py: workload {name} printed no result")
    entry = json.loads(lines[-1])
    entry["detail"] = json.loads(lines[-2][len(DETAIL_PREFIX):])
    entry["exit_code"] = done.returncode
    return entry


def git_sha() -> str:
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_suite(args) -> int:
    names = args.workload or list(SCENARIOS)
    report = {
        "meta": {
            "seed": args.seed, "seconds": args.seconds, "rounds": args.rounds,
            "smoke": args.smoke, "kvcsd_config": KVCSD_CONFIG,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_sha": git_sha(),
        },
        "workloads": {},
    }
    ok = True
    for name in names:
        entry = child(name, args, 0)
        print(f"{name}: sizes {entry['detail']['sizes']}, "
              f"failed_op_share {entry['failed']}/{entry['attempted']}")
        print_metrics(entry["metrics"])
        if args.trace:
            traced = child(name, args, 1)
            print(f"{name}: traced")
            print_metrics(traced["metrics"])
            for layer, seconds in traced["detail"]["trace"]["self_s"].items():
                print(f"  {layer + '.self_s':36s} {seconds:16.6f} s")
            entry["per_layer"] = traced["metrics"]
            entry["trace"] = traced["detail"]["trace"]
            ok = ok and traced["correct"] and traced["exit_code"] == 0
        ok = ok and entry["correct"] and entry["exit_code"] == 0
        report["workloads"][name] = entry
    for name, entry in report["workloads"].items():
        reference = SCENARIOS[name].reference
        if reference in report["workloads"]:
            other = report["workloads"][reference]
            same = all(
                entry["metrics"][m]["value"] == other["metrics"][m]["value"]
                for m in harness.VIRT_METRICS
            )
            ratio = (entry["metrics"]["wall_s"]["value"]
                     / other["metrics"]["wall_s"]["value"])
            print(f"{name}: model metrics {'equal' if same else 'DIFFER from'} "
                  f"{reference}; obs.overhead_ratio {ratio:.3f}")
            ok = ok and same
    if args.micro:
        print("microbenchmarks:")
        rates = micro.run_microbenches(1.0)
        report["micro"] = {
            name: {"value": rates[name], "unit": unit}
            for name, (_bench, unit) in micro.MICROBENCHES.items()
        }
        print_metrics(report["micro"])
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print("OK" if ok else "FAILED: an output was wrong")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.smoke and args.rounds is None:
        args.rounds = 1
    if args.workload and len(args.workload) == 1 and not (args.micro or args.out):
        return run_one(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
