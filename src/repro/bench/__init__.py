"""Benchmark harness reproducing every table and figure of the evaluation.

The experiments and benches themselves are entries of
:data:`repro.bench.registry.REGISTRY`.
"""

from repro.bench.calibration import (
    HostSpec,
    KvcsdTestbed,
    RocksTestbed,
    TABLE1_CSD,
    TABLE1_HOST,
    bench_db_options,
    bench_geometry,
    build_kvcsd_testbed,
    build_rocksdb_testbed,
)
from repro.bench.report import ResultTable, ShapeCheck, speedup

__all__ = [
    "HostSpec",
    "TABLE1_HOST",
    "TABLE1_CSD",
    "bench_geometry",
    "bench_db_options",
    "KvcsdTestbed",
    "RocksTestbed",
    "build_kvcsd_testbed",
    "build_rocksdb_testbed",
    "ResultTable",
    "ShapeCheck",
    "speedup",
]
