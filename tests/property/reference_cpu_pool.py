"""The CPU pool as it was before the pool-level run queue: reference only.

Each core is a capacity-1 :class:`Resource`; work that may run on several
cores requests all of them, keeps the lowest-index core granted by the time
it resumes and gives the rest back.  ``test_cpu_pool_property`` compares
completion times of :class:`repro.sim.CpuPool` against this on the task sets
where the two formulations must agree.  Observer hooks are left out.
"""

from __future__ import annotations

from repro.sim.resources import Resource
from repro.sim.sync import AnyOf


class ReferenceCpuPool:
    def __init__(self, env, n_cores, timeslice):
        self.env = env
        self.n_cores = n_cores
        self.timeslice = timeslice
        self._cores = [Resource(env, capacity=1) for _ in range(n_cores)]
        self.busy_time = [0.0] * n_cores

    def _acquire(self, allowed, priority):
        cores = self._cores
        if len(allowed) == 1:
            idx = allowed[0]
            req = cores[idx].request(priority)
            yield req
            return idx, req
        requests = {idx: cores[idx].request(priority) for idx in allowed}
        yield AnyOf(self.env, list(requests.values()))
        granted = [idx for idx, req in requests.items() if req.processed and req.ok]
        keep = min(granted)
        for idx, req in requests.items():
            if idx != keep:
                cores[idx].release(req)
        return keep, requests[keep]

    def execute(self, seconds, core=None, cores=None, priority=0):
        if core is not None:
            allowed = [core]
        elif cores is not None:
            allowed = sorted(set(cores))
        else:
            allowed = list(range(self.n_cores))
        remaining = float(seconds)
        if remaining == 0.0:
            idx, req = yield from self._acquire(allowed, priority)
            self._cores[idx].release(req)
            return
        while remaining > 0:
            idx, req = yield from self._acquire(allowed, priority)
            slice_len = min(remaining, self.timeslice)
            try:
                yield self.env.timeout(slice_len)
            finally:
                self.busy_time[idx] += slice_len
                self._cores[idx].release(req)
            remaining -= slice_len
