#!/usr/bin/env python
"""Validate a Chrome trace, an explain report or a Prometheus dump.

``repro run <id> --trace --out doc.json`` writes the Chrome trace as
``doc.trace.json`` (and the Prometheus dump as ``doc.prom``); with
``--explain`` the document itself carries the explain report.

Checks the invariants chrome://tracing / Perfetto rely on:

* the file loads as strict JSON with a ``traceEvents`` list;
* every event carries ``name``/``ph``/``pid``, every complete (``X``)
  event also carries numeric ``ts``/``dur``/``tid`` with ``dur >= 0``;
* complete events are sorted by ``(ts, tid)`` (monotonic timestamps);
* at least one complete event exists (an empty trace means the tracer
  was never installed);
* every ``query.dispatch`` span (a query-scheduler worker executing one
  admitted command) temporally contains at least one child event — a
  dispatch with no work inside means the worker's span tree was severed;
* every ``cq.reap`` marker pairs with a prior ``sq.post`` carrying the
  same command id — a reap without a post means the queue pair's
  submission/completion bookkeeping desynchronised;
* every fanned-out per-device command span (a ``cmd.*`` span stamped
  with a ``dev`` arg by the cluster router) has an ancestor named
  ``cluster.*`` or ``migrate.*`` — a device command with no originating
  router span means the fan-out lost its parent and the explain report
  cannot attribute its latency to the logical operation;
* counter (``C``) tracks — the timeline's saturation curves — carry
  finite numeric ``args.value`` samples with per-track monotonically
  non-decreasing timestamps, and their clock agrees with the span
  clock: no counter sample may land beyond the end of the last span
  (both are driven by the same virtual clock, so a counter past the
  final span means the sampler and tracer disagreed about ``env.now``).

Explain reports are detected by shape (top-level ``ops`` +
``min_attributed``, or a run document whose ``explain`` key holds one) and
validated instead against the tiling
invariant: every sampled op's critical-path segments must exactly tile the
op's span — contiguous, starting at the span start, ending at the span
end, with segment widths summing to the span duration.  Gaps, overlaps,
or a mismatched sum mean the attribution engine double-counted or lost
time.

Prometheus text dumps (``.prom``) are detected by the suffix and validated against the exposition format: one
``# TYPE`` line per family, each family's samples contiguous under it,
every sample line parses (``name{label="value",...} value``), and no
``(metric, labels)`` pair repeats.

Usage: ``python scripts/validate_trace.py doc.trace.json|doc.json|doc.prom``
"""

from __future__ import annotations

import json
import re
import sys

_SAMPLE_RE = re.compile(r"([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)")
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
#: sample-name suffixes a family of each kind may carry
_SUFFIXES = {"counter": ("",), "gauge": ("",), "untyped": ("",),
             "summary": ("", "_sum", "_count"),
             "histogram": ("_bucket", "_sum", "_count")}


def _reject_constant(name: str):
    raise ValueError(f"non-finite constant {name!r} in trace")


def validate(path: str) -> list[str]:
    if path.endswith(".prom"):
        return _check_exposition(path)
    errors: list[str] = []
    with open(path) as fh:
        doc = json.load(fh, parse_constant=_reject_constant)
    if _explain_of(doc) is not None:
        return _check_explain_tiling(path, _explain_of(doc))
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        return [f"{path}: top level must be an object with a traceEvents list"]

    complete = []
    counters = []
    for i, event in enumerate(doc["traceEvents"]):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        for key in ("name", "ph", "pid"):
            if key not in event:
                errors.append(f"{where}: missing {key!r}")
        if event.get("ph") == "C":
            counters.append((where, event))
            continue
        if event.get("ph") != "X":
            continue
        complete.append(event)
        for key in ("ts", "dur", "tid"):
            value = event.get(key)
            if not isinstance(value, (int, float)) or value != value:
                errors.append(f"{where}: {key!r} must be a finite number")
        if isinstance(event.get("dur"), (int, float)) and event["dur"] < 0:
            errors.append(f"{where}: negative dur {event['dur']}")

    if not complete:
        errors.append(f"{path}: no complete ('X') events")
    order = [(e.get("ts", 0), e.get("tid", 0)) for e in complete]
    if order != sorted(order):
        errors.append(f"{path}: complete events not sorted by (ts, tid)")
    errors.extend(_check_dispatch_trees(path, complete))
    errors.extend(_check_sq_cq_pairing(path, complete))
    errors.extend(_check_cluster_fanout_parenting(path, complete))
    errors.extend(_check_counter_tracks(path, counters, complete))
    return errors


def _explain_of(doc) -> dict | None:
    """The explain report a document is or carries, else ``None``."""
    if isinstance(doc, dict) and isinstance(doc.get("explain"), dict):
        doc = doc["explain"]
    if isinstance(doc, dict) and "ops" in doc and "min_attributed" in doc:
        return doc
    return None


def _check_exposition(path: str) -> list[str]:
    """One TYPE line per family, contiguous families, parsable samples,
    no repeated ``(metric, labels)`` pair."""
    errors: list[str] = []
    kinds: dict[str, str] = {}  # family -> kind, in TYPE-line order
    family = None
    seen: set[tuple[str, str]] = set()
    with open(path) as fh:
        lines = fh.read().splitlines()
    for number, line in enumerate(lines, 1):
        where = f"{path}:{number}"
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if parts[1:2] != ["TYPE"]:
                continue
            if len(parts) != 4 or parts[3] not in _SUFFIXES:
                errors.append(f"{where}: malformed TYPE line {line!r}")
            elif parts[2] in kinds:
                errors.append(f"{where}: second TYPE line for family {parts[2]!r}")
            else:
                family = parts[2]
                kinds[family] = parts[3]
            continue
        match = _SAMPLE_RE.fullmatch(line)
        if match is None:
            errors.append(f"{where}: unparsable sample {line!r}")
            continue
        name, labels, value = match.groups()
        labels = labels or ""
        pairs = _LABEL_RE.findall(labels)
        if ",".join(f'{k}="{v}"' for k, v in pairs) != labels:
            errors.append(f"{where}: malformed labels {{{labels}}}")
        try:
            float(value)
        except ValueError:
            errors.append(f"{where}: value {value!r} is not a number")
        if family is None or name not in {
            family + suffix for suffix in _SUFFIXES[kinds[family]]
        }:
            errors.append(
                f"{where}: sample {name!r} is outside its family's block "
                f"(the TYPE line above is for {family!r})"
            )
        key = (name, ",".join(sorted(f"{k}={v}" for k, v in pairs)))
        if key in seen:
            errors.append(f"{where}: repeated sample {name}{{{labels}}}")
        seen.add(key)
    if not kinds:
        errors.append(f"{path}: no metric families")
    return errors


def _check_explain_tiling(path: str, doc: dict) -> list[str]:
    """Critical-path segments must exactly tile each sampled op span.

    No gaps (segment N+1 starts where N ends), no overlap (same rule),
    anchored to the span (first segment starts at the sample start, last
    segment ends at the sample end), and the widths sum to the span
    duration.  Everything is a float off the same virtual clock, so the
    comparisons allow a relative epsilon only.
    """
    errors: list[str] = []
    eps = 1e-9
    ops = doc.get("ops")
    if not isinstance(ops, dict) or not ops:
        return [f"{path}: explain report has no ops"]
    for name, op in ops.items():
        for sample in op.get("samples", ()):
            where = f"{path}: {name} sample span={sample.get('span_id')}"
            segments = sample.get("segments", [])
            if not segments:
                errors.append(f"{where}: no segments")
                continue
            start, end = sample["start"], sample["end"]
            duration = sample["duration"]
            tol = eps * max(1.0, abs(end))
            if abs(segments[0]["start"] - start) > tol:
                errors.append(
                    f"{where}: first segment starts at "
                    f"{segments[0]['start']!r}, span starts at {start!r}"
                )
            if abs(segments[-1]["end"] - end) > tol:
                errors.append(
                    f"{where}: last segment ends at "
                    f"{segments[-1]['end']!r}, span ends at {end!r}"
                )
            for prev, cur in zip(segments, segments[1:]):
                if abs(cur["start"] - prev["end"]) > tol:
                    kind = "gap" if cur["start"] > prev["end"] else "overlap"
                    errors.append(
                        f"{where}: {kind} between segments at "
                        f"{prev['end']!r} -> {cur['start']!r}"
                    )
            total = sum(s["end"] - s["start"] for s in segments)
            if abs(total - duration) > max(tol, eps * max(1.0, duration)):
                errors.append(
                    f"{where}: segment widths sum to {total!r}, span "
                    f"duration is {duration!r}"
                )
    return errors


def _check_counter_tracks(
    path: str, counters: list[tuple[str, dict]], complete: list[dict]
) -> list[str]:
    """Counter tracks must be numeric, per-track monotonic, and share the
    span clock."""
    errors: list[str] = []
    last_ts: dict[str, float] = {}
    max_counter_ts = None
    for where, event in counters:
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts != ts:
            errors.append(f"{where}: counter 'ts' must be a finite number")
            continue
        value = event.get("args", {}).get("value")
        if not isinstance(value, (int, float)) or value != value:
            errors.append(
                f"{where}: counter 'args.value' must be a finite number"
            )
        name = event.get("name", "")
        if name in last_ts and ts < last_ts[name]:
            errors.append(
                f"{where}: counter track {name!r} timestamps go backwards "
                f"({ts} after {last_ts[name]})"
            )
        last_ts[name] = ts
        if max_counter_ts is None or ts > max_counter_ts:
            max_counter_ts = ts
    # Clock agreement: the sampler and the tracer read the same virtual
    # clock, so no counter sample may land past the end of the last span.
    if max_counter_ts is not None and complete:
        span_end = max(e.get("ts", 0) + e.get("dur", 0) for e in complete)
        if max_counter_ts > span_end + 1e-6:
            errors.append(
                f"{path}: counter sample at ts={max_counter_ts} lands beyond "
                f"the last span end ({span_end}) — series and span clocks "
                "disagree"
            )
    return errors


def _check_dispatch_trees(path: str, complete: list[dict]) -> list[str]:
    """Every query.dispatch span must contain the work it dispatched."""
    errors: list[str] = []
    epsilon = 1e-6
    for d in (e for e in complete if e.get("name") == "query.dispatch"):
        t0, t1 = d["ts"] - epsilon, d["ts"] + d.get("dur", 0) + epsilon
        if not any(
            e is not d
            and t0 <= e.get("ts", 0)
            and e.get("ts", 0) + e.get("dur", 0) <= t1
            for e in complete
        ):
            errors.append(
                f"{path}: query.dispatch span at ts={d['ts']} contains no "
                "child events (worker span tree severed)"
            )
    return errors


def _check_cluster_fanout_parenting(
    path: str, complete: list[dict]
) -> list[str]:
    """Fanned-out device commands must parent under a router span.

    The cluster router stamps every per-device command span with a
    ``dev`` arg and parents it under the logical ``cluster.<op>`` (or,
    during migration, ``migrate.<phase>``) span that fanned it out.
    Single-device traces never stamp ``dev``, so they pass vacuously.
    """
    errors: list[str] = []
    by_id = {
        e["args"]["span_id"]: e
        for e in complete
        if isinstance(e.get("args"), dict) and "span_id" in e["args"]
    }
    for e in complete:
        args = e.get("args")
        if not isinstance(args, dict) or "dev" not in args:
            continue
        if not str(e.get("name", "")).startswith("cmd."):
            continue
        node, hops = e, 0
        while node is not None and hops < 64:
            name = str(node.get("name", ""))
            if node is not e and (
                name.startswith("cluster.") or name.startswith("migrate.")
            ):
                break
            node = by_id.get(node.get("args", {}).get("parent_id"))
            hops += 1
        else:
            node = None
        if node is None:
            errors.append(
                f"{path}: fanned-out span {e.get('name')!r} "
                f"(dev={args['dev']!r}, ts={e.get('ts')}) has no "
                "cluster.*/migrate.* ancestor"
            )
    return errors


def _check_sq_cq_pairing(path: str, complete: list[dict]) -> list[str]:
    """Every cq.reap marker must follow an sq.post with the same cid."""
    errors: list[str] = []
    posts: dict[object, float] = {}
    for e in complete:
        if e.get("name") == "sq.post":
            cid = e.get("args", {}).get("cid")
            if cid is not None and cid not in posts:
                posts[cid] = e.get("ts", 0)
    for e in complete:
        if e.get("name") != "cq.reap":
            continue
        cid = e.get("args", {}).get("cid")
        if cid is None:
            errors.append(f"{path}: cq.reap at ts={e.get('ts')} has no cid arg")
        elif cid not in posts:
            errors.append(
                f"{path}: cq.reap for cid={cid} has no matching sq.post"
            )
        elif e.get("ts", 0) < posts[cid]:
            errors.append(
                f"{path}: cq.reap for cid={cid} precedes its sq.post"
            )
    return errors


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    errors = validate(argv[1])
    for error in errors:
        print(f"FAIL: {error}", file=sys.stderr)
    if not errors and argv[1].endswith(".prom"):
        print(f"{argv[1]}: valid Prometheus exposition")
    elif not errors:
        with open(argv[1]) as fh:
            doc = json.load(fh)
        if _explain_of(doc) is not None:
            print(
                f"{argv[1]}: valid explain report (segments exactly tile "
                "every sampled op span)"
            )
        else:
            print(f"{argv[1]}: valid Chrome trace")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
