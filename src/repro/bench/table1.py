"""Table I: the hardware specification, as encoded in the calibration.

The paper's Table I is a configuration table, not a measurement; this module
renders our simulation-scale encoding of it next to the paper values so the
scale factors are explicit; ``bench.claims`` checks the encoded specs'
internal consistency.
"""

from __future__ import annotations

from repro.bench.calibration import TABLE1_CSD, TABLE1_HOST, bench_geometry
from repro.bench.report import ResultTable
from repro.units import fmt_bytes

__all__ = ["table1"]


def table1() -> ResultTable:
    geometry = bench_geometry()
    t = ResultTable(
        "Table I: hardware specification (paper -> simulation scale)",
        ["component", "paper", "simulation"],
    )
    t.add_row("Host CPU", "32 AMD EPYC cores", f"{TABLE1_HOST.n_cores} cores")
    t.add_row("Host RAM (page cache)", "512 GB DDR4",
              fmt_bytes(TABLE1_HOST.page_cache_bytes))
    t.add_row("Host<->CSD link", "16x PCIe Gen3",
              f"{TABLE1_HOST.pcie_lanes_to_csd}x PCIe Gen3")
    t.add_row("SoC CPU", "4 ARM Cortex A53 cores", f"{TABLE1_CSD.n_cores} cores")
    t.add_row("SoC RAM", "8 GB DDR4", fmt_bytes(TABLE1_CSD.dram_bytes))
    t.add_row("SoC sort budget", "bounded by 8 GB DRAM",
              fmt_bytes(TABLE1_CSD.sort_budget_bytes))
    t.add_row("ZNS SSD", "15 TB NVMe E1.L", fmt_bytes(geometry.capacity))
    t.add_row("SSD channels", "(not disclosed)", str(geometry.n_channels))
    t.add_row("Zone size", "(not disclosed)", fmt_bytes(geometry.zone_size))
    t.add_note(
        "capacity-like quantities scale together; latency-like quantities "
        "(NAND, PCIe, per-entry CPU costs) are unscaled"
    )
    return t

