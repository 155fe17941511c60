#!/usr/bin/env python3
"""Compare two result files written by ``perf/run.py --out``.

``python3 perf/compare.py A.json B.json`` prints one row per workload and
end-to-end metric — both values with the rounds' median and maximum, the
ratio B/A (A is the base) and a verdict against the bound in
``BENCHMARK.json``:

* ``better`` / ``worse``: B differs from A by more than the bound;
* ``same``: within the bound, and on both sides the median round is within
  the bound of the fastest;
* ``unresolved``: within the bound, but the rounds spread more than the
  bound, so "no change" cannot be told from a change of that size.

It also says, per workload, whether the model fingerprints are equal, and
exits non-zero on any ``worse`` or any rise in the share of failed operations.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def side(entry: dict, metric: str) -> dict:
    """value/median/max of one metric; model metrics have no spread."""
    host = entry["detail"]["host"].get(metric)
    if host is not None:
        return host
    value = entry["metrics"][metric]["value"]
    return {"value": value, "median": value, "max": value}


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    change = b["value"] / a["value"] - 1
    if better == "higher":
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    spread = max((s["median"] - s["value"]) / s["value"] for s in (a, b))
    return "unresolved" if spread > bound else "same"


def compare(a: dict, b: dict, spec: dict) -> tuple[list[tuple], bool]:
    """Rows of the comparison, and whether B regressed against A."""
    rows, regressed = [], False
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in spec["end_to_end"]:
            sa, sb = side(wa, metric["name"]), side(wb, metric["name"])
            result = verdict(sa, sb, metric["better"], metric["bound"])
            regressed = regressed or result == "worse"
            rows.append((name, metric["name"], metric["unit"], sa, sb, result))
        share_a = wa["failed"] / wa["attempted"]
        share_b = wb["failed"] / wb["attempted"]
        regressed = regressed or share_b > share_a
        same = wa["detail"]["virt_fingerprint"] == wb["detail"]["virt_fingerprint"]
        rows.append((name, "failed_op_share", "share", share_a, share_b,
                     "worse" if share_b > share_a else "same"))
        rows.append((name, "virt_fingerprint", "", None, None,
                     "equal" if same else "different"))
    return rows, regressed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    with open(argv[0]) as fa, open(argv[1]) as fb:
        a, b = json.load(fa), json.load(fb)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    rows, regressed = compare(a, b, spec)
    print(f"{'workload':15s} {'metric':21s} {'A value [median, max]':>34s} "
          f"{'B value [median, max]':>34s} {'B/A':>7s}  verdict")
    for name, metric, unit, sa, sb, result in rows:
        if isinstance(sa, dict):
            cells = [
                f"{s['value']:.5g} [{s['median']:.5g}, {s['max']:.5g}] {unit}"
                for s in (sa, sb)
            ]
            ratio = f"{sb['value'] / sa['value']:.3f}"
        elif sa is None:
            cells, ratio = ["", ""], ""
        else:
            cells, ratio = [f"{sa:.5g}", f"{sb:.5g}"], ""
        print(f"{name:15s} {metric:21s} {cells[0]:>34s} {cells[1]:>34s} "
              f"{ratio:>7s}  {result}")
    print("REGRESSED" if regressed else "no regression")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
