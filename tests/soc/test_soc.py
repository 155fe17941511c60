"""Unit tests for the SoC board and its DRAM budget."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment
from repro.soc import DramBudget, SocBoard, SocSpec
from repro.ssd import SsdGeometry, ZnsSsd
from repro.units import MiB


def make_board(env, **spec_kw):
    ssd = ZnsSsd(env, geometry=SsdGeometry(n_channels=2, n_zones=4, zone_size=MiB))
    return SocBoard(env, ssd, spec=SocSpec(**spec_kw)) if spec_kw else SocBoard(env, ssd)


def test_spec_validation():
    with pytest.raises(SimulationError):
        SocSpec(n_cores=0)
    with pytest.raises(SimulationError):
        SocSpec(arm_slowdown=0)
    with pytest.raises(SimulationError):
        SocSpec(sort_budget_bytes=10**18)
    # the v1 metadata writer is gone; the field only accepts True
    with pytest.raises(SimulationError):
        SocSpec(durable_meta=False)
    assert SocSpec().durable_meta


def test_scale_cpu():
    env = Environment()
    board = make_board(env, arm_slowdown=3.0)
    assert board.scale_cpu(1.0) == pytest.approx(3.0)


def test_dram_budget_reserve_release():
    env = Environment()
    dram = DramBudget(env, capacity_bytes=1000)
    log = []

    def user():
        yield from dram.reserve(800)
        log.append(("got-800", env.now))
        yield env.timeout(1.0)
        yield from dram.release(800)

    def second():
        yield env.timeout(0.1)
        yield from dram.reserve(500)  # must wait for the first release
        log.append(("got-500", env.now))
        yield from dram.release(500)

    env.process(user())
    env.process(second())
    env.run()
    assert log == [("got-800", 0.0), ("got-500", 1.0)]
    assert dram.available == 1000


def test_dram_over_reserve_rejected():
    env = Environment()
    dram = DramBudget(env, capacity_bytes=100)

    def proc():
        yield from dram.reserve(200)

    env.process(proc())
    with pytest.raises(SimulationError):
        env.run()


def test_firmware_ctx_uses_soc_pool():
    env = Environment()
    board = make_board(env, n_cores=2)
    ctx = board.firmware_ctx()

    def proc():
        yield from ctx.execute(0.5)

    env.run(env.process(proc()))
    assert board.cpu.total_busy_time() == pytest.approx(0.5)
