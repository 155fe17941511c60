"""Scale-out cluster layer: N KV-CSD devices behind one logical store.

The host-side :class:`~repro.cluster.router.ClusterRouter` owns one
:class:`~repro.nvme.queues.KvQueuePair` per simulated device (each behind
its own NVMe-oF fabric link) and presents the whole fleet through the
subset of the :class:`~repro.core.client.KvCsdClient` generator API that
:class:`~repro.workloads.adapters.KvCsdAdapter` drives — point/multi GETs
go to the least-loaded replica, bulk PUT batches split per device and
post in parallel at QD>1, and range/SIDX scans scatter to every owning
device with an ordered streaming merge on the host.

Placement is a consistent-hash ring with virtual nodes
(:mod:`repro.cluster.ring`); a :class:`~repro.cluster.rebalance.RingChange`
migrates sealed keyspace slices between devices online — bulk read/put
pipelines under foreground traffic, dual reads while both copies exist,
cutover on completion (:mod:`repro.cluster.rebalance`).
"""

from __future__ import annotations

from repro.cluster.rebalance import (
    MigrationReport,
    RingChange,
    execute_ring_change,
    plan_ring_change,
)
from repro.cluster.ring import HashRing
from repro.cluster.router import ClusterRouter, LogicalKeyspace
from repro.cluster.testbed import ClusterTestbed, build_cluster_testbed

__all__ = [
    "HashRing",
    "ClusterRouter",
    "LogicalKeyspace",
    "RingChange",
    "MigrationReport",
    "plan_ring_change",
    "execute_ring_change",
    "ClusterTestbed",
    "build_cluster_testbed",
]
