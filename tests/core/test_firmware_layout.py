"""Source checks on the firmware's module layout.

``repro.core`` is split into services no larger than 600 lines each, and
nothing outside it reaches into the device's private state: observers,
benches and the CLI read the keyspace table, its per-keyspace record and
the device's public fields.  One module assembles a device stack.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
MAX_MODULE_LINES = 600


def test_no_core_module_exceeds_the_size_bar():
    sizes = {
        path.name: len(path.read_text().splitlines())
        for path in sorted((SRC / "core").glob("*.py"))
    }
    assert {name: n for name, n in sizes.items() if n > MAX_MODULE_LINES} == {}


def test_nothing_outside_core_reads_private_device_state():
    private = re.compile(r"\bdev(?:ice)?\d*\._[A-Za-z]")
    offenders = [
        f"{path.relative_to(SRC)}:{lineno}: {line.strip()}"
        for path in sorted(SRC.rglob("*.py"))
        if SRC / "core" not in path.parents
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if private.search(line)
    ]
    assert offenders == []


def test_one_module_constructs_the_device():
    constructs = re.compile(r"\bKvCsdDevice\(")
    modules = sorted(
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if constructs.search(path.read_text())
    )
    assert modules == ["bench/calibration.py"]
