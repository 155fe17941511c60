"""CPU cost model for KV-CSD firmware and client library.

All values are *host-core* seconds; work executed on the SoC is multiplied
by ``SocSpec.arm_slowdown`` (the Cortex-A53's deficit against an EPYC core)
before being charged — so the same cost table drives both sides, and the
device can be "upgraded" for ablations (e.g. an FPGA-accelerated sort is a
slowdown < 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import CalibrationError
from repro.units import nsec, usec

__all__ = ["CsdCostModel", "ClientCostModel"]


@dataclass(frozen=True)
class CsdCostModel:
    """Firmware-side CPU costs (host-core seconds; scaled by arm_slowdown)."""

    request_overhead: float = usec(2)  #: parse/route one command
    unpack_per_byte: float = nsec(0.15)  #: bulk message decode (memcpy-like)
    membuf_insert_per_pair: float = nsec(60)  #: append into the write buffer
    record_parse: float = nsec(40)  #: decode one KLOG record
    key_compare: float = nsec(25)  #: one comparator call during sorts
    block_build_per_byte: float = nsec(0.20)  #: serialize PIDX/SIDX/value blocks
    gather_per_record: float = nsec(80)  #: place one value during reorder
    sketch_search: float = nsec(300)  #: binary-search a sketch
    extract_per_record: float = nsec(50)  #: pull a secondary key from a value
    cache_lookup: float = nsec(150)  #: probe the SoC DRAM block cache
    bloom_probe: float = nsec(90)  #: hash + test one key against a block bloom
    bloom_build_per_key: float = nsec(110)  #: hash + set bits for one key
    checksum_per_byte: float = nsec(0.3)  #: CRC a durable metadata frame
    bloom_reload_per_byte: float = nsec(0.5)  #: deserialize a persisted bloom

    def __post_init__(self) -> None:
        for field_name, value in self.__dict__.items():
            if value < 0:
                raise CalibrationError(f"negative cost {field_name}")
        # per-entry-count memo for binary_search(): blocks come in a handful
        # of fill levels, so queries hit the same counts over and over
        object.__setattr__(self, "_bsearch_cache", {})

    def binary_search(self, n_entries: int) -> float:
        """CPU cost of a binary search over ``n_entries`` sorted entries.

        ceil(log2(n)) comparator calls — reflects the actual block fill so
        block-size changes change the charged cost (unlike the old fixed
        12-compare estimate, which assumed 4 KiB blocks of ~50-byte entries).
        """
        cache = self._bsearch_cache
        cost = cache.get(n_entries)
        if cost is None:
            steps = max(1, math.ceil(math.log2(n_entries))) if n_entries > 1 else 1
            cost = self.key_compare * steps
            cache[n_entries] = cost
        return cost

    def binary_search_total(
        self, entry_counts: Sequence[int], lookups: Sequence[int]
    ) -> float:
        """Total cost of ``lookups[i]`` searches over ``entry_counts[i]`` entries.

        Exactly ``sum(binary_search(n) * m)`` accumulated left to right — the
        per-term products are computed vectorized (IEEE-identical to the
        scalar expressions), and the sequential Python sum preserves the
        rounding order of the accumulation it replaces.
        """
        if len(entry_counts) >= 16:
            counts = np.asarray(entry_counts, dtype=np.float64)
            steps = np.ceil(np.log2(np.maximum(counts, 2.0)))
            terms = (
                (self.key_compare * steps)
                * np.asarray(lookups, dtype=np.float64)
            ).tolist()
            return sum(terms)
        return sum(
            self.binary_search(n) * m for n, m in zip(entry_counts, lookups)
        )


@dataclass(frozen=True)
class ClientCostModel:
    """Host-side client library costs (host-core seconds)."""

    pack_per_byte: float = nsec(0.12)  #: serialize pairs into a message
    per_command: float = usec(1.5)  #: build command + doorbell + poll completion
    unpack_per_byte: float = nsec(0.12)  #: decode query results

    def __post_init__(self) -> None:
        for field_name, value in self.__dict__.items():
            if value < 0:
                raise CalibrationError(f"negative cost {field_name}")
