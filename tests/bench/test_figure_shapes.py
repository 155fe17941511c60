"""Micro-scale figure regressions inside the main test suite.

The benchmark suite (``pytest benchmarks/``) runs the quick/full configs;
these tests re-run the three cheapest experiments at micro scale so that
``pytest tests/`` alone catches regressions in the harness or in either
store's performance model.
"""

from repro.bench.claims import shape_checks
from repro.bench.fig7 import Fig7Config, run_fig7
from repro.bench.fig9 import Fig9Config, run_fig9
from repro.bench.fig11 import Fig11Config, run_fig11


def _assert_all(checks):
    failed = [str(c) for c in checks if not c.passed]
    assert not failed, "\n".join(failed)


def test_fig7_shape_micro():
    result = run_fig7(Fig7Config(n_pairs=16384, thread_counts=(1, 2, 8)))
    _assert_all(shape_checks("fig7", result))


def test_fig9_shape_micro():
    result = run_fig9(Fig9Config(pairs_per_thread=8192, thread_counts=(1, 8)))
    _assert_all(shape_checks("fig9", result))


def test_fig11_shape_micro():
    result = run_fig11(Fig11Config(n_particles=32768))
    _assert_all(shape_checks("fig11", result))
    assert result.effective_speedup > 1.0
