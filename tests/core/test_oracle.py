"""The one-device oracle: a hypothesis state machine drives one KV-CSD through
its client API and holds every answer to a dict-of-dicts model.

The device is a :class:`KvcsdTestbed` small enough that a few hundred pairs
flush the membuf and fill zones: 64 KiB zones, 2-zone clusters, a 16 KiB
membuf, two keyspace names, and an 8 KiB sort budget that a large load's
compaction overruns (an external sort, and an index build job per index).
The rules are create and open; ``put``, ``bulk_put`` (empty batches too),
``bulk_delete`` and ``fsync``; ``compact`` with and without secondary
indexes, ``build_secondary_index`` and ``wait``;
point, multi, range, SIDX point and SIDX range reads; a batch of
``put_async``/``get_async``/``multi_get_async`` tickets, then ``wait`` on
each; ``delete_keyspace``, after a compaction kick-off and twice at once;
a clean ``power_cycle()``; and a composite ``fill`` that loads a keyspace
(without it most calls find no keyspace, or no key).

A compaction or index build the machine does not wait for leaves the model
unsure of one thing only, whether the job has finished: until a ``wait``,
writes must still be refused and a read may answer "still compacting" or
"no such index yet", but any answer it gives must be the model's.  After
every step the auditor is clean, the keyspace table matches the model and
every settled keyspace reads back the model's contents through the range,
multi-get and SIDX range APIs.

Read keys come from a bundle of written keys, and each rule's outcomes are
counted.  Each bug the machine found is pinned by its shrunk trace at the
end of this file.  The long run prints the histogram::

    PYTHONPATH=src python -m pytest -s -q --hypothesis-profile=ci-long tests/core/test_oracle.py
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    multiple,
    rule,
    run_state_machine_as_test,
)

from repro.bench.calibration import HostSpec, KvcsdTestbed
from repro.core.sidx import SidxConfig
from repro.errors import ReproError
from repro.nvme.kv_commands import DeleteKeyspaceCmd
from repro.obs.audit import attach_auditor
from repro.sim.cpu import DEFAULT_TIMESLICE
from repro.soc import SocSpec
from repro.ssd import SsdGeometry
from repro.units import KiB

KEYSPACES = ("a", "b")
#: the secondary indexes a compaction or an index build may ask for
INDEXES = {
    "lo": SidxConfig("lo", value_offset=0, width=2),
    "u32": SidxConfig("u32", value_offset=2, width=4, dtype="u32"),
}
#: above every key the machine writes (keys are at most 3 bytes)
TOP = b"\xff" * 4

names = st.sampled_from(KEYSPACES)
fresh_keys = st.binary(min_size=1, max_size=3)
#: one value in ten is too short for the ``u32`` index
values = st.integers(0, 9).flatmap(
    lambda i: st.binary(max_size=5) if i == 0 else st.binary(min_size=6, max_size=24)
)
index_names = st.sampled_from(sorted(INDEXES))

def skey(config: SidxConfig, value: bytes) -> bytes | None:
    """The raw secondary key of a value, ``None`` when it is too short."""
    end = config.value_offset + config.width
    return value[config.value_offset:end] if len(value) >= end else None


def order(config: SidxConfig, raw: bytes):
    """A raw secondary key as the index orders it."""
    return raw if config.dtype == "bytes" else int.from_bytes(raw, "little")


@dataclass
class KeyspaceModel:
    """What the model knows of one live keyspace."""

    #: "empty", "writable" or "compacted" (where the running jobs leave it)
    state: str = "empty"
    data: dict[bytes, bytes] = field(default_factory=dict)
    #: indexes registered once the running jobs end
    indexes: set[str] = field(default_factory=set)
    #: indexes a running job builds, whether or not its build fails
    building: set[str] = field(default_factory=set)
    #: a job may still run, so the device may still say "compacting"
    busy: bool = False
    #: a job's index build fails, and the next wait says so
    failed: bool = False

    def sidx_rows(self, index: str, keep) -> list[tuple[bytes, bytes]] | None:
        """The records whose secondary key ``keep`` accepts, in primary-key
        order; ``None`` when a value is too short to be indexed."""
        config = INDEXES[index]
        raws = {key: skey(config, value) for key, value in self.data.items()}
        if None in raws.values():
            return None
        return sorted(
            (key, self.data[key]) for key, raw in raws.items() if keep(order(config, raw))
        )


@dataclass
class Tally:
    """What the machines one test builds did: each rule's outcomes ("ok" or
    the error's class name), machines built and model checks run (one per
    machine, one per step)."""

    outcomes: dict[str, Counter] = field(default_factory=lambda: defaultdict(Counter))
    machines: int = 0
    checks: int = 0

    def report(self) -> str:
        lines = [f"one-device oracle: {self.checks - self.machines} steps over "
                 f"{self.machines} runs"]
        for rule_name, counts in sorted(self.outcomes.items()):
            lines.append(f"  {rule_name:<18} " + ", ".join(
                f"{outcome} {n}" for outcome, n in counts.most_common()
            ))
        return "\n".join(lines)


class OneDevice(RuleBasedStateMachine):
    keys = Bundle("keys")

    def __init__(self, tally: Tally | None = None):
        super().__init__()
        self.tally = tally or Tally()
        self.tally.machines += 1
        self.tb = KvcsdTestbed(
            seed=7,
            host=HostSpec(n_cores=2, timeslice=DEFAULT_TIMESLICE),
            soc=SocSpec(
                sort_budget_bytes=8 * KiB, compaction_shards=2, query_workers=2,
                block_cache_bytes=16 * KiB, bloom_bits_per_key=8,
            ),
            geometry=SsdGeometry(n_channels=4, n_zones=128, zone_size=64 * KiB),
            cluster_zones=2,
            membuf_bytes=16 * KiB,
            bulk_message_bytes=4 * KiB,
        )
        self.client = self.tb.client
        self.ctx = self.tb.thread_ctx(0)
        self.auditor = attach_auditor(self.tb.device)
        self.model: dict[str, KeyspaceModel] = {}

    # ------------------------------------------------------------ helpers
    def call(self, gen) -> tuple[str, object]:
        """Run one client call: ``("ok", value)`` or ``(error name, None)``."""
        try:
            return "ok", self.tb.run(gen)
        except ReproError as exc:
            return type(exc).__name__, None

    def expect(self, rule: str | None, gen, allowed: set[str], value=None, key=None) -> str:
        """Run ``gen``, book its outcome under ``rule`` (a step of a
        composite rule passes ``None``) and hold it to the model: an outcome
        in ``allowed``, and ``value`` when it is "ok" (compared after
        ``key``, when given)."""
        outcome, got = self.call(gen)
        if rule is not None:
            self.tally.outcomes[rule][outcome] += 1
        assert outcome in allowed, (rule, outcome, allowed)
        if outcome == "ok":
            assert (key(got) if key else got) == value, (rule, got, value)
        return outcome

    def writes(self, name: str) -> set[str]:
        """What a PUT, bulk PUT, bulk DELETE or compact may answer."""
        ks = self.model.get(name)
        if ks is None:
            return {"KeyspaceNotFoundError"}
        return {"ok"} if ks.state == "writable" else {"KeyspaceStateError"}

    def unsealed(self, name: str) -> set[str]:
        """What an open or fsync may answer: an EMPTY or WRITABLE keyspace
        takes them."""
        ks = self.model.get(name)
        if ks is None:
            return {"KeyspaceNotFoundError"}
        return {"ok"} if ks.state in ("empty", "writable") else {"KeyspaceStateError"}

    def reads(self, name: str) -> set[str]:
        """What a primary-index read may answer ("ok" is the model's value)."""
        ks = self.model.get(name)
        if ks is None:
            return {"KeyspaceNotFoundError"}
        if ks.state != "compacted":
            return {"KeyspaceStateError"}
        return {"ok", "KeyspaceStateError"} if ks.busy else {"ok"}

    def data(self, name: str) -> dict[bytes, bytes]:
        ks = self.model.get(name)
        return ks.data if ks is not None else {}

    def get_reads(self, name: str, key: bytes) -> set[str]:
        """What a GET may answer."""
        allowed = self.reads(name)
        if "ok" in allowed and key not in self.data(name):
            allowed = allowed - {"ok"} | {"KeyNotFoundError"}
        return allowed

    def sidx_reads(self, name: str, index: str, *raws: bytes) -> set[str]:
        """What a SIDX query with raw keys ``raws`` may answer: a typed
        index takes keys of its width only."""
        allowed = self.reads(name)
        if "ok" in allowed:
            ks, config = self.model[name], INDEXES[index]
            if index in ks.building:
                allowed = allowed | {"SecondaryIndexError"}
            if index not in ks.indexes | ks.building or (
                config.dtype != "bytes" and any(len(raw) != config.width for raw in raws)
            ):
                allowed = allowed - {"ok"} | {"SecondaryIndexError"}
        return allowed

    def sidx_rows(self, name: str, index: str, keep):
        ks = self.model.get(name)
        return ks.sidx_rows(index, keep) if ks is not None else None

    def start_job(self, ks: KeyspaceModel, indexes) -> None:
        """A compaction or index build was accepted: where it leaves ``ks``.
        An index that a value is too short for fails alone."""
        ks.state, ks.busy = "compacted", True
        ks.building |= set(indexes)
        built = {index for index in indexes if ks.sidx_rows(index, bool) is not None}
        ks.indexes |= built
        ks.failed |= built != set(indexes)

    def settle(self, rule: str | None, name: str) -> str:
        """``wait_for_device``: every job of ``name`` has ended."""
        ks = self.model.get(name)
        failed = ks is not None and ks.failed
        outcome = self.expect(
            rule, self.client.wait_for_device(name, self.ctx),
            {"SecondaryIndexError"} if failed else {"ok"},
        )
        if ks is not None:
            ks.busy, ks.failed = False, False
            ks.building.clear()
        return outcome

    def raw_skey(self, name: str, index: str, key: bytes, fallback: bytes) -> bytes:
        """The secondary key of ``key``'s value if the model has one, else
        ``fallback``."""
        value = self.data(name).get(key)
        raw = skey(INDEXES[index], value) if value is not None else None
        return raw if raw is not None else fallback

    # ------------------------------------------------------------ keyspaces
    @rule(name=names)
    def create(self, name):
        exists = name in self.model
        outcome = self.expect(
            "create", self.client.create_keyspace(name, self.ctx),
            {"KeyspaceExistsError"} if exists else {"ok"},
        )
        if outcome == "ok":
            self.model[name] = KeyspaceModel()

    @rule(name=names)
    def open(self, name):
        if self.expect(
            "open", self.client.open_keyspace(name, self.ctx), self.unsealed(name)
        ) == "ok":
            self.model[name].state = "writable"

    @rule(name=names, twice=st.booleans(), compact_first=st.booleans())
    def delete(self, name, twice, compact_first):
        if compact_first:
            # the delete then waits for the compaction it lands on
            if self.expect(
                None, self.client.compact(name, self.ctx), self.writes(name)
            ) == "ok":
                self.start_job(self.model[name], ())
        exists = name in self.model
        if not twice:
            self.expect(
                "delete", self.client.delete_keyspace(name, self.ctx),
                {"ok"} if exists else {"KeyspaceNotFoundError"},
            )
        else:
            completions = self.tb.run(
                self.client.submit_many([DeleteKeyspaceCmd(name=name)] * 2, self.ctx)
            )
            statuses = [c.status for c in completions]
            self.tally.outcomes["delete twice"]["/".join(statuses)] += 1
            missing = "KeyspaceNotFoundError"
            assert statuses == (
                ["OK", "KeyspaceStateError"] if exists else [missing, missing]
            ), statuses
        self.model.pop(name, None)

    @initialize(target=keys, seed=st.integers(0, 2**16), compacted=st.sets(names))
    def load(self, seed, compacted):
        """Both keyspaces loaded; those in ``compacted`` compacted with both
        indexes."""
        loaded = []
        for i, name in enumerate(KEYSPACES):
            keys, outcome = self.load_one(name, 200, seed + i, name in compacted, set(INDEXES))
            self.tally.outcomes["load"][outcome] += 1
            loaded += keys
        return multiple(*loaded)

    @rule(target=keys, name=names, n=st.integers(1, 300), seed=st.integers(0, 2**16),
          compact=st.booleans(), indexes=st.sets(index_names))
    def fill(self, name, n, seed, compact, indexes):
        """Load ``name`` from scratch (re-creating it unless it is writable),
        then, if asked, compact it and wait."""
        keys, outcome = self.load_one(name, n, seed, compact, indexes)
        self.tally.outcomes["fill"][outcome] += 1
        return multiple(*keys)

    def load_one(self, name, n, seed, compact, indexes) -> tuple[list[bytes], str]:
        """``fill``'s steps; returns the first 16 keys it wrote and the
        outcome of the compaction's wait ("ok" without one)."""
        ks = self.model.get(name)
        if ks is not None and ks.state != "writable":
            self.expect(None, self.client.delete_keyspace(name, self.ctx), {"ok"})
            del self.model[name]
        if name not in self.model:
            self.expect(None, self.client.create_keyspace(name, self.ctx), {"ok"})
            self.expect(None, self.client.open_keyspace(name, self.ctx), {"ok"})
            self.model[name] = KeyspaceModel(state="writable")
        rng = random.Random(seed)
        pairs = [
            (rng.randrange(1 << 16).to_bytes(2, "big") + b"f",
             rng.randbytes(rng.choice((8, 16, 40))))
            for _ in range(n)
        ]
        if seed % 4 == 0:  # one value too short for the u32 index
            pairs[0] = (pairs[0][0], pairs[0][1][:3])
        self.expect(None, self.client.bulk_put(name, pairs, self.ctx), {"ok"})
        self.model[name].data.update(pairs)
        outcome = "ok"
        if compact:
            configs = [INDEXES[i] for i in sorted(indexes)]
            self.expect(None, self.client.compact(name, self.ctx, configs), {"ok"})
            self.start_job(self.model[name], indexes)
            outcome = self.settle(None, name)
        return [key for key, _value in pairs[:16]], outcome

    # ------------------------------------------------------------ writes
    @rule(target=keys, name=names, key=keys | fresh_keys, value=values)
    def put(self, name, key, value):
        if self.expect(
            "put", self.client.put(name, key, value, self.ctx), self.writes(name)
        ) == "ok":
            self.model[name].data[key] = value
        return key

    @rule(target=keys, name=names,
          pairs=st.lists(st.tuples(keys | fresh_keys, values), max_size=8))
    def bulk_put(self, name, pairs):
        if self.expect(
            "bulk_put", self.client.bulk_put(name, pairs, self.ctx), self.writes(name)
        ) == "ok":
            self.model[name].data.update(pairs)
        return multiple(*[key for key, _value in pairs])

    @rule(name=names, keys=st.lists(keys | fresh_keys, max_size=4))
    def bulk_delete(self, name, keys):
        if self.expect(
            "bulk_delete", self.client.bulk_delete(name, keys, self.ctx), self.writes(name)
        ) == "ok":
            for key in keys:
                self.model[name].data.pop(key, None)

    @rule(name=names)
    def fsync(self, name):
        self.expect("fsync", self.client.fsync(name, self.ctx), self.unsealed(name))

    # ------------------------------------------------------------ jobs
    @rule(name=names, indexes=st.sets(index_names), wait=st.booleans())
    def compact(self, name, indexes, wait):
        configs = [INDEXES[i] for i in sorted(indexes)]
        if self.expect(
            "compact", self.client.compact(name, self.ctx, configs), self.writes(name)
        ) == "ok":
            self.start_job(self.model[name], indexes)
        if wait:
            self.settle(None, name)

    @rule(name=names, index=index_names, wait=st.booleans())
    def build_secondary_index(self, name, index, wait):
        ks = self.model.get(name)
        if ks is None:
            allowed = {"KeyspaceNotFoundError"}
        elif ks.state != "compacted":
            allowed = {"KeyspaceStateError"}
        elif index in ks.indexes:
            allowed = {"SecondaryIndexError"}
        elif index in ks.building:  # a failing build: refused until it ends
            allowed = {"SecondaryIndexError", "ok"}
        else:
            allowed = {"ok"}
        if ks is not None and ks.busy:
            allowed = allowed | {"KeyspaceStateError"}
        config = INDEXES[index]
        outcome = self.expect(
            "build_sidx",
            self.client.build_secondary_index(
                name, index, config.value_offset, config.width, config.dtype, self.ctx
            ),
            allowed,
        )
        if outcome == "ok":
            self.start_job(ks, [index])
        if wait:
            self.settle(None, name)

    @rule(name=names)
    def wait(self, name):
        self.settle("wait", name)

    # ------------------------------------------------------------ reads
    @rule(name=names, key=keys | fresh_keys)
    def get(self, name, key):
        self.expect(
            "get", self.client.get(name, key, self.ctx), self.get_reads(name, key),
            self.data(name).get(key),
        )

    @rule(name=names, keys=st.lists(keys | fresh_keys, max_size=6))
    def multi_get(self, name, keys):
        data = self.data(name)
        self.expect(
            "multi_get", self.client.multi_get(name, keys, self.ctx), self.reads(name),
            {key: data[key] for key in keys if key in data},
        )

    @rule(name=names, lo=keys | fresh_keys, hi=keys | fresh_keys)
    def range_query(self, name, lo, hi):
        data = self.data(name)
        self.expect(
            "range_query", self.client.range_query(name, lo, hi, self.ctx),
            self.reads(name), sorted((k, v) for k, v in data.items() if lo <= k < hi),
        )

    @rule(name=names, index=index_names, key=keys, fallback=st.binary(max_size=4))
    def sidx_point_query(self, name, index, key, fallback):
        raw = self.raw_skey(name, index, key, fallback)
        config = INDEXES[index]
        self.expect(
            "sidx_point_query", self.client.sidx_point_query(name, index, raw, self.ctx),
            self.sidx_reads(name, index, raw),
            self.sidx_rows(name, index, lambda k: k == order(config, raw)),
        )

    @rule(name=names, index=index_names, lo=keys, hi=keys, fallback=st.binary(max_size=4))
    def sidx_range_query(self, name, index, lo, hi, fallback):
        config = INDEXES[index]
        lo_raw = self.raw_skey(name, index, lo, fallback)
        hi_raw = self.raw_skey(name, index, hi, fallback[::-1])
        lo, hi = order(config, lo_raw), order(config, hi_raw)
        self.expect(
            "sidx_range_query",
            self.client.sidx_range_query(name, index, lo_raw, hi_raw, self.ctx),
            self.sidx_reads(name, index, lo_raw, hi_raw),
            self.sidx_rows(name, index, lambda k: lo <= k < hi),
            key=sorted,
        )

    @rule(name=names, ops=st.lists(
        st.tuples(st.just("put"), keys | fresh_keys, values)
        | st.tuples(st.just("get"), keys | fresh_keys)
        | st.tuples(st.just("multi_get"), st.lists(keys | fresh_keys, max_size=4)),
        min_size=1, max_size=6,
    ))
    def async_batch(self, name, ops):
        """Post every op as a ticket, then reap each in turn; puts in one
        batch have distinct keys (in-flight writes to one key may land in
        either order)."""
        batch, put_keys = [], set()
        for op in ops:
            if op[0] == "put":
                if op[1] in put_keys:
                    continue
                put_keys.add(op[1])
            batch.append(op)
        client, ctx = self.client, self.ctx

        def run():
            tickets = []
            for kind, *args in batch:
                post = getattr(client, f"{kind}_async")
                tickets.append((yield from post(name, *args, ctx)))
            completions = []
            for ticket in tickets:
                completions.append(
                    (yield from client.qp.wait(ticket, ctx, raise_on_error=False))
                )
            return completions

        completions = self.tb.run(run())
        data = self.data(name)
        for (kind, *args), completion in zip(batch, completions):
            outcome = "ok" if completion.ok else completion.status
            self.tally.outcomes[f"{kind}_async"][outcome] += 1
            if kind == "put":
                allowed, expected = self.writes(name), None
            elif kind == "get":
                allowed, expected = self.get_reads(name, args[0]), data.get(args[0])
            else:
                allowed = self.reads(name)
                expected = {key: data[key] for key in args[0] if key in data}
            assert outcome in allowed, (kind, outcome, allowed)
            if outcome == "ok":
                assert completion.value == expected, (kind, completion.value, expected)
        for (kind, *args), completion in zip(batch, completions):
            if kind == "put" and completion.ok:
                data[args[0]] = args[1]

    # ------------------------------------------------------------ power
    @rule()
    def power_cycle(self):
        """Wait for every job and fsync every writable keyspace, then cut
        power and remount: a clean cycle loses nothing."""
        for name in sorted(self.model):
            if self.model[name].busy:
                self.settle(None, name)
            if self.model[name].state != "compacted":
                self.expect(None, self.client.fsync(name, self.ctx), {"ok"})
        self.tb.power_cycle()
        self.client = self.tb.client
        assert self.auditor.total_violations == 0
        self.auditor = attach_auditor(self.tb.device)
        self.tally.outcomes["power_cycle"]["ok"] += 1

    # ------------------------------------------------------------ invariant
    @invariant()
    def agrees_with_the_model(self):
        self.tally.checks += 1
        report = self.auditor.run("oracle")
        assert report.ok and self.auditor.total_violations == 0, report.format()
        client, ctx, model = self.client, self.ctx, self.model

        def check():
            assert (yield from client.list_keyspaces(ctx)) == sorted(model)
            for name, ks in sorted(model.items()):
                stat = yield from client.keyspace_stat(name, ctx)
                states = {"compacting", "compacted"} if ks.busy else {ks.state}
                assert stat["state"] in states, (name, stat["state"], states)
                if ks.busy or ks.state != "compacted":
                    continue
                assert stat["secondary_indexes"] == sorted(ks.indexes)
                rows = yield from client.range_query(name, b"", TOP, ctx)
                assert rows == sorted(ks.data.items())
                found = yield from client.multi_get(name, [*ks.data, TOP], ctx)
                assert found == ks.data
                for index in sorted(ks.indexes):
                    config = INDEXES[index]
                    lo, hi = b"\0" * config.width, b"\xff" * (config.width + 1)
                    if config.dtype != "bytes":
                        hi = hi[: config.width]
                    got = yield from client.sidx_range_query(name, index, lo, hi, ctx)
                    top = order(config, hi)
                    assert sorted(got) == ks.sidx_rows(index, lambda k: k < top)

        self.tb.run(check())
        assert self.auditor.total_violations == 0


def test_one_device_agrees_with_the_model():
    tally = Tally()
    run_state_machine_as_test(
        lambda: OneDevice(tally),
        settings=settings(
            max_examples=max(12, settings.default.max_examples // 8),
            stateful_step_count=25,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
        ),
    )
    print("\n" + tally.report())


# ------------------------------------------------------------ shrunk traces
def replay(*steps) -> None:
    """Run one shrunk trace, ``(rule, arguments)`` steps, with the model
    check after each."""
    machine = OneDevice()
    for rule_name, arguments in steps:
        getattr(machine, rule_name)(**arguments)
        machine.agrees_with_the_model()


def test_a_failed_inline_index_leaves_its_sibling_standing():
    # a's values include one too short for u32.  The compaction's failed u32
    # build used to unwind lo too while lo's build ran on past the job's
    # end, so lo was registered on zones no keyspace owned; a compaction
    # whose values exceed the sort budget builds each index as its own job,
    # where lo stands
    replay(("load", dict(seed=0, compacted={"a"})), ("power_cycle", {}))


def test_a_second_build_of_an_index_in_flight_is_refused():
    # only registered indexes were refused, so two builds of one name ran
    # at once and both published it
    replay(
        ("load", dict(seed=1, compacted=set())),
        ("compact", dict(name="a", indexes=set(), wait=True)),
        ("build_secondary_index", dict(name="a", index="u32", wait=False)),
        ("build_secondary_index", dict(name="a", index="u32", wait=False)),
    )


def test_a_phase_audit_while_a_command_is_posted_is_clean():
    # a slot is held while the capsule is packed and sent, before the
    # command counts as submitted: an audit at a compaction phase boundary
    # in that window reported submitted - completed != inflight
    replay(
        ("load", dict(seed=0, compacted=set())),
        ("compact", dict(name="b", indexes=set(), wait=False)),
        *[("create", dict(name="a"))] * 3,
        ("open", dict(name="a")),
    )


def test_an_audit_while_a_keyspace_is_deleted_is_clean():
    # the deleted keyspace stayed in the table while its zones were reset
    # and freed, so an audit at another keyspace's job boundary found its
    # index blocks unreadable and its zones both owned and free
    replay(
        ("load", dict(seed=3, compacted=set())),
        ("compact", dict(name="b", indexes=set(), wait=False)),
        ("compact", dict(name="a", indexes={"lo", "u32"}, wait=False)),
        ("delete", dict(name="b", twice=False, compact_first=False)),
    )


def test_a_typed_secondary_key_of_the_wrong_width_is_refused():
    # a 1-byte key for the u32 index escaped the device as struct.error,
    # which no completion carries, and ended the simulation
    replay(
        ("load", dict(seed=1, compacted={"a"})),
        ("sidx_point_query", dict(name="a", index="u32", key=b"zz", fallback=b"\x01")),
        ("sidx_range_query", dict(name="a", index="u32", lo=b"zz", hi=b"zz", fallback=b"\x01")),
    )
