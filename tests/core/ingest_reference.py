"""The per-pair ingest path, kept as the reference for the columnar one.

A bulk PUT used to turn its columns into rows and back on every hop: the
client split ``(key, value)`` rows into messages and built each command's
columns with generator expressions, the dispatcher zipped them back into
rows, the membuf held ``(key, value, seq)`` triples, and the flush split
those into three lists again.  This module keeps that path, pair by pair,
so the property tests can hold the columnar path to it: the same zone
bytes, the same flush points and the same virtual clock.
"""

from __future__ import annotations

from collections.abc import Generator
from operator import itemgetter

import numpy as np

from repro.core.ingest import Ingest, admit_keys
from repro.core.keyspace import KeyspaceState, lookup
from repro.core.klog import pack_klog_columns
from repro.core.vlog import pointer_columns, stripe_groups
from repro.core.wire import BULK_MESSAGE_BYTES, pair_wire_size
from repro.errors import DbError, ValueTooLargeError
from repro.nvme.kv_commands import KvBulkPutCmd
from repro.obs.trace import trace_span, trace_wait

_HEADER_BYTES = 4
_FRAMING_BYTES = 6


def split_into_messages(
    pairs: list[tuple[bytes, bytes]], message_bytes: int = BULK_MESSAGE_BYTES
) -> list[list[tuple[bytes, bytes]]]:
    """Greedily chunk pairs into messages, checking uniformity pair by pair."""
    if message_bytes <= 0:
        raise DbError("message size must be positive")
    if len(pairs) >= 8:
        klen, vlen = len(pairs[0][0]), len(pairs[0][1])
        if all(len(k) == klen and len(v) == vlen for k, v in pairs):
            need = _FRAMING_BYTES + klen + vlen
            per = max(1, (message_bytes - _HEADER_BYTES) // need)
            return [pairs[i : i + per] for i in range(0, len(pairs), per)]
    messages: list[list[tuple[bytes, bytes]]] = []
    current: list[tuple[bytes, bytes]] = []
    used = _HEADER_BYTES
    for key, value in pairs:
        need = pair_wire_size(key, value)
        if current and used + need > message_bytes:
            messages.append(current)
            current = []
            used = _HEADER_BYTES
        current.append((key, value))
        used += need
    if current:
        messages.append(current)
    return messages


def bulk_put_command(keyspace: str, pairs: list[tuple[bytes, bytes]]) -> KvBulkPutCmd:
    """One bulk-PUT command, its columns and size built pair by pair."""
    return KvBulkPutCmd(
        keyspace=keyspace,
        keys=tuple(k for k, _ in pairs),
        values=tuple(v for _, v in pairs),
        message_bytes=_HEADER_BYTES + _FRAMING_BYTES * len(pairs)
        + sum(len(k) + len(v) for k, v in pairs),
    )


def client_bulk_put(client, keyspace: str, pairs, ctx) -> Generator:
    """``KvCsdClient.bulk_put`` over the per-pair split and command build."""
    for message in split_into_messages(list(pairs), client.bulk_message_bytes) or [[]]:
        yield from client._call(
            bulk_put_command(keyspace, message), ctx, "bulk_put",
            keyspace=keyspace, pairs=len(message),
        )


class ReferenceMemBuffer:
    """The membuf as ``(key, value, seq)`` triples."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._pairs: list[tuple[bytes, bytes, int]] = []
        self._bytes = 0

    def __len__(self) -> int:
        return len(self._pairs)

    @property
    def should_flush(self) -> bool:
        return self._bytes >= self.capacity

    def add_many(self, pairs: list[tuple[bytes, bytes]], first_seq: int) -> None:
        self._pairs.extend(
            (key, value, first_seq + i) for i, (key, value) in enumerate(pairs)
        )
        self._bytes += sum(len(key) + len(value) for key, value in pairs)

    def drain(self) -> list[tuple[bytes, bytes, int]]:
        pairs, self._pairs = self._pairs, []
        self._bytes = 0
        return pairs


class ReferenceIngest(Ingest):
    """The write commands over rows: :meth:`bulk_put` takes ``(key, value)``
    pairs and the membuf holds triples (a :class:`ReferenceMemBuffer`)."""

    def bulk_put(
        self, name: str, pairs: list[tuple[bytes, bytes]], message_bytes: int, ctx
    ) -> Generator:
        with self._inflight.request() as slot:
            yield from trace_wait(self.env, slot, "dev.inflight_wait")
            ks = lookup(self.keyspaces, name)
            ks.require(KeyspaceState.WRITABLE)
            keys = [key for key, _value in pairs]
            admit_keys(keys)
            longest = max(map(len, map(itemgetter(1), pairs)), default=0)
            if longest > self.board.ssd.geometry.zone_size:
                raise ValueTooLargeError(longest, self.board.ssd.geometry.zone_size)
            with ks.write_lock.request() as lock:
                yield from trace_wait(self.env, lock, "dev.write_lock_wait")
                yield from self.board.charge(
                    ctx,
                    self.costs.request_overhead
                    + self.costs.unpack_per_byte * message_bytes
                    + self.costs.membuf_insert_per_pair * len(pairs),
                )
                if pairs:
                    ks.membuf.add_many(pairs, ks.seq + 1)
                    ks.seq += len(pairs)
                    ks.observe_key(min(keys))
                    ks.observe_key(max(keys))
                ks.n_pairs += len(pairs)
                self.stats.counter("pairs_inserted").add(len(pairs))
                if ks.membuf.should_flush:
                    yield from self.flush(ks, ctx)

    def flush(self, ks, ctx) -> Generator:
        pairs = ks.membuf.drain()
        if not pairs:
            return
        charge, append = self.board.charge, self.zone_manager.append_stream
        with trace_span(self.env, "dev.flush", "stage", pairs=len(pairs)):
            clusters_before = len(ks.klog_clusters) + len(ks.vlog_clusters)
            values = [value for _key, value, _seq in pairs]
            lengths = np.fromiter(map(len, values), dtype=np.int64, count=len(values))
            groups, group_index, group_off = stripe_groups(b"".join(values), lengths)
            yield from charge(
                ctx, self.costs.block_build_per_byte * sum(len(g) for g in groups)
            )
            group_zone, group_start = pointer_columns(
                (yield from append(ks.vlog_clusters, groups))
            )
            blob = pack_klog_columns(
                [key for key, _value, _seq in pairs],
                [seq for _key, _value, seq in pairs],
                group_zone[group_index],
                group_start[group_index] + group_off,
                lengths,
            )
            yield from charge(ctx, self.costs.block_build_per_byte * len(blob))
            yield from append(ks.klog_clusters, [blob])
            if len(ks.klog_clusters) + len(ks.vlog_clusters) != clusters_before:
                yield from self.metalog.upsert(ctx, ks)
            self.stats.counter("membuf_flushes").add()
        self._journal("membuf.flush", keyspace=ks.name, pairs=len(pairs))
        self._audit("flush")


def install_reference_ingest(device) -> None:
    """Run ``device``'s writes through :class:`ReferenceIngest`, fed as the
    per-pair dispatcher fed it: the command's columns zipped into rows.

    Keyspaces need a :class:`ReferenceMemBuffer`; patch
    ``repro.core.keyspace.MemBuffer`` while they are created.
    """
    ingest = device.ingest
    ingest.__class__ = ReferenceIngest

    def bulk_put(name, keys, values, message_bytes, ctx):
        return ingest.bulk_put(name, list(zip(keys, values)), message_bytes, ctx)

    device.bulk_put = bulk_put
