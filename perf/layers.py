"""The layer table, and folding a cProfile run into per-layer self time.

A layer is a group of the repo's modules.  A function belongs to the layer
of the longest module-name prefix in ``LAYER_PREFIXES`` that matches its
module; the table lives here so the benchmark, not ``repro``, owns what a
"layer" means.  ``lsm.block`` and ``lsm.bloom`` are booked to ``core.codec``
because the KV-CSD firmware packs its PIDX/SIDX blocks and filters with
them — a package-level fold books a quarter of ``ingest_compact`` to an
``lsm`` layer that workload never runs.
"""

from __future__ import annotations

import os
import sysconfig

import numpy

from repro.sim.core import Environment, Process

LAYER_PREFIXES = {
    "repro.sim": "sim",
    "repro.core": "core.device",  # device, keyspace, zone_manager, meta, costs
    "repro.core.klog": "core.codec",
    "repro.core.pidx": "core.codec",
    "repro.core.sidx": "core.codec",
    "repro.core.wire": "core.codec",
    "repro.core.membuf": "core.codec",
    "repro.lsm.block": "core.codec",
    "repro.lsm.bloom": "core.codec",
    "repro.core.sort": "core.sort",
    "repro.core.query": "core.query",
    "repro.core.scheduler": "core.query",
    "repro.core.block_cache": "core.query",
    "repro.core.client": "core.client",
    "repro.core.dispatch": "core.client",
    "repro.nvme": "nvme",
    "repro.ssd": "ssd",
    "repro.soc": "soc",
    "repro.host": "host",
    "repro.lsm": "lsm",
    "repro.cluster": "cluster",
    "repro.obs": "obs",
    "repro.workloads": "workloads",
    "repro.bench": "workloads",  # testbed builders, called from set-up only
    "repro": "runtime",  # units, errors: constants and exception classes
    "perf": "perf",
}
LAYERS = (
    "sim", "core.device", "core.codec", "core.sort", "core.query",
    "core.client", "nvme", "ssd", "soc", "host", "lsm", "cluster", "obs",
    "workloads", "runtime", "perf",
)

#: Exact call counts the traced run takes at the kernel boundary.  Only
#: plain functions qualify: cProfile books every resume of a generator as a
#: call, so for ``post``/``append``/``sort`` it counts suspensions, not
#: invocations — those counts come from the model's own counters instead.
BOUNDARY_CALLS = {
    "sim.events": Environment.step,
    "sim.resumes": Process._resume,
}

_PERF_DIR = os.path.dirname(os.path.abspath(__file__))
_RUNTIME_DIRS = tuple(
    os.path.realpath(d) + os.sep
    for d in (
        sysconfig.get_paths()["stdlib"],
        sysconfig.get_paths()["platstdlib"],
        os.path.dirname(numpy.__file__),
    )
)


def module_of(filename: str) -> str | None:
    """Dotted module name of a profiled file; ``None`` if it is not ours."""
    path = os.path.abspath(filename).replace(os.sep, "/")
    if path.startswith(_PERF_DIR.replace(os.sep, "/") + "/"):
        return "perf"
    idx = path.rfind("/repro/")
    if idx < 0 or not path.endswith(".py"):
        return None
    return "repro." + path[idx + len("/repro/") : -3].replace("/", ".").removesuffix(
        ".__init__"
    )


def layer_of_module(module: str) -> str:
    parts = module.split(".")
    for n in range(len(parts), 0, -1):
        layer = LAYER_PREFIXES.get(".".join(parts[:n]))
        if layer is not None:
            return layer
    return "runtime"


def layer_of(filename: str) -> str | None:
    """Layer of one cProfile entry; ``None`` when nothing claims the file."""
    if filename.startswith(("~", "<")):  # builtins, generated code
        return "runtime"
    module = module_of(filename)
    if module is not None:
        return layer_of_module(module)
    if os.path.realpath(filename).startswith(_RUNTIME_DIRS):
        return "runtime"
    return None


def fold(stats) -> dict:
    """Fold ``pstats.Stats`` into layer self time and boundary counts.

    Every call is a span whose self time is cProfile's ``tottime``; summing
    it per layer cannot double count.  Time in files no layer claims is
    returned as ``unattributed_s``.
    """
    self_s = dict.fromkeys(LAYERS, 0.0)
    unattributed = 0.0
    calls = dict.fromkeys(BOUNDARY_CALLS, 0)
    boundary = {
        (f.__code__.co_filename, f.__code__.co_firstlineno, f.__name__): metric
        for metric, f in BOUNDARY_CALLS.items()
    }
    functions = []
    for (filename, lineno, name), (_cc, ncalls, tottime, _ct, _callers) in stats.stats.items():
        layer = layer_of(filename)
        if layer is None:
            unattributed += tottime
        else:
            self_s[layer] += tottime
        metric = boundary.get((filename, lineno, name))
        if metric is not None:
            calls[metric] += ncalls
        functions.append(
            (tottime, f"{module_of(filename) or filename}:{name}:{lineno}", ncalls)
        )
    functions.sort(reverse=True)
    return {
        "self_s": self_s,
        "unattributed_s": unattributed,
        "total_s": sum(self_s.values()) + unattributed,
        "calls": calls,
        "hottest": [
            {"function": f, "self_s": t, "calls": n} for t, f, n in functions[:10]
        ],
    }
