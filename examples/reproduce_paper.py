#!/usr/bin/env python
"""Regenerate the paper's evaluation section: every table and figure.

Run:  python examples/reproduce_paper.py [--smoke] [--csv results/] [ID ...]

Runs Table I, Figures 7-12 and the compaction ablation (or the given
registry ids) through the same runner as ``repro run``.  ``--smoke`` uses
the reduced configurations (seconds per experiment); the default full-scale
configs take a few minutes in total.  ``--csv DIR`` additionally writes
every regenerated table as a CSV series for plotting.
"""

import argparse
import os
import sys

from repro.bench.registry import configure, execute

EVALUATION = ["table1", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "compaction"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("ids", nargs="*", default=EVALUATION,
                        help="registry ids (default: the evaluation section)")
    parser.add_argument("--smoke", action="store_true",
                        help="use the reduced experiment configurations")
    parser.add_argument("--csv", default="",
                        help="directory to write per-table CSV files into")
    args = parser.parse_args(argv)
    try:
        plans = [configure(exp_id, smoke=args.smoke) for exp_id in args.ids]
    except ValueError as exc:
        parser.error(str(exc))
    if args.csv:
        os.makedirs(args.csv, exist_ok=True)

    all_ok = True
    for entry, config in plans:
        print(f"\n{'=' * 72}\n{entry.id}: {entry.description}\n{'=' * 72}")
        run = execute(entry, config)
        for i, table in enumerate(run.tables()):
            print(table)
            if args.csv:
                suffix = "" if i == 0 else f"_{i}"
                path = os.path.join(args.csv, f"{entry.id}{suffix}.csv")
                with open(path, "w") as fh:
                    fh.write(table.to_csv())
        for check in run.checks:
            print(check)
        all_ok = all_ok and run.ok
    print("\nall shape criteria passed" if all_ok else "\nSOME SHAPE CRITERIA FAILED")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
