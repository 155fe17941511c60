"""Exception hierarchy for the KV-CSD reproduction.

Every error raised by the library derives from :class:`ReproError` so that
applications can catch library failures with a single ``except`` clause while
still being able to distinguish subsystem-specific failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(ReproError):
    """Raised for misuse of the discrete-event simulation kernel."""


class InterruptError(SimulationError):
    """Raised inside a process that has been interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`repro.sim.core.Process.interrupt`.
    """

    def __init__(self, cause: object = None):
        super().__init__(f"process interrupted: {cause!r}")
        self.cause = cause


class StorageError(ReproError):
    """Base class for SSD-level failures."""


class ZoneStateError(StorageError):
    """An operation was attempted on a zone in an incompatible state."""


class ZoneFullError(StorageError):
    """A write or append exceeded the zone's remaining capacity."""


class OutOfSpaceError(StorageError):
    """The device has no free zones/blocks left to satisfy an allocation."""


class InvalidAddressError(StorageError):
    """A read or write referenced an address outside the device."""


class NvmeError(ReproError):
    """An NVMe command completed with a non-success status code."""

    def __init__(self, status: str, message: str = ""):
        super().__init__(f"NVMe status {status}: {message}")
        self.status = status


class FilesystemError(ReproError):
    """Base class for host-filesystem failures."""


class FileNotFoundInFsError(FilesystemError):
    """The named file does not exist in the simulated filesystem."""


class FileExistsInFsError(FilesystemError):
    """The named file already exists and exclusive creation was requested."""


class DbError(ReproError):
    """Base class for key-value store failures (both LSM baseline and KV-CSD)."""


class DbClosedError(DbError):
    """The database handle has been closed."""


class KeyNotFoundError(DbError):
    """A point lookup did not find the requested key."""

    def __init__(self, key: bytes):
        super().__init__(f"key not found: {key!r}")
        self.key = key


class KeyTooLargeError(DbError):
    """A key is longer than the on-flash formats can carry.

    Raised at admission, on the command that brought the key, so nothing of
    that command is buffered and no later flush or compaction can trip on it.
    """

    def __init__(self, key_bytes: int, limit: int):
        super().__init__(f"key of {key_bytes} bytes exceeds the {limit}-byte limit")
        self.key_bytes = key_bytes
        self.limit = limit


class ValueTooLargeError(DbError):
    """A value is larger than one zone, the most a value-log group can span
    (refused at admission, like :class:`KeyTooLargeError`)."""

    def __init__(self, value_bytes: int, limit: int):
        super().__init__(f"value of {value_bytes} bytes exceeds the {limit}-byte limit")
        self.value_bytes = value_bytes
        self.limit = limit


class KeyspaceError(DbError):
    """Base class for keyspace-lifecycle violations on the KV-CSD device."""


class KeyspaceNotFoundError(KeyspaceError):
    """The named keyspace does not exist."""


class KeyspaceExistsError(KeyspaceError):
    """A keyspace with this name already exists."""


class KeyspaceStateError(KeyspaceError):
    """The operation is not permitted in the keyspace's current state.

    For example: writing to a ``COMPACTED`` keyspace, or querying a
    ``WRITABLE`` one.
    """


class KlogTruncatedError(DbError):
    """A KLOG extent ended mid-record (torn tail).

    Distinguished from other :class:`DbError` corruption so mount rescans
    can tolerate exactly this case — the longest intact prefix is
    recoverable — while any other parse failure still surfaces.
    """


class SecondaryIndexError(DbError):
    """Raised for invalid secondary-index configuration or lookups."""


class WorkloadError(ReproError):
    """Raised for invalid workload-generator configuration."""


class CalibrationError(ReproError):
    """Raised for inconsistent benchmark calibration parameters."""
