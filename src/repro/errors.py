"""Exception hierarchy for the JAVMM reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers
can catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """An object was constructed or wired with invalid parameters."""


class AddressError(ReproError):
    """A virtual-address range is malformed or out of bounds."""


class TranslationFault(ReproError):
    """A virtual address has no PFN mapping (page-table walk failed)."""


class FrameExhausted(ReproError):
    """The guest frame allocator ran out of free page frames."""


class HeapError(ReproError):
    """The simulated Java heap was driven into an invalid state."""


class OutOfMemoryError(HeapError):
    """Allocation failed even after garbage collection."""


class ProtocolError(ReproError):
    """The LKM / migration-daemon / application protocol was violated."""


class MigrationError(ReproError):
    """A migration could not start or complete."""


class MigrationVerificationError(MigrationError):
    """Destination memory did not match the source after migration."""


class MigrationAbortedError(MigrationError):
    """A migration was aborted mid-flight and rolled back to the source.

    The source domain is left running and undamaged; the partially
    populated destination has been discarded.  The aborted attempt's
    :class:`~repro.migration.report.MigrationReport` (with
    ``aborted=True`` and the abort reason/phase filled in) is attached
    as :attr:`report` when available.
    """

    def __init__(self, reason: str, report: object | None = None) -> None:
        super().__init__(reason)
        self.report = report


class FaultInjectionError(ReproError):
    """A fault plan or injector was misconfigured (not a simulated fault)."""


class SimulationError(ReproError):
    """The discrete-time engine was misused (e.g. time moved backwards)."""


class TelemetryFormatError(ReproError, ValueError):
    """A file handed to a telemetry reader is not a telemetry stream."""


class CheckpointError(ReproError):
    """A checkpoint archive could not be written, read, or applied."""


class CheckpointSchemaError(CheckpointError):
    """A checkpoint was produced under an incompatible schema version.

    Raised both for the archive-level schema (``manifest.json``) and for
    per-actor ``snapshot_version`` mismatches discovered while applying
    a snapshot payload to a newer class."""
