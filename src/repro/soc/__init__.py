"""Device-controller substrate: the SoC board and its DRAM budget."""

from repro.soc.board import SocBoard, SocSpec
from repro.soc.dram import DramBudget

__all__ = ["SocBoard", "SocSpec", "DramBudget"]
