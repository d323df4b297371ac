"""Atomic on-disk checkpoint archives.

A checkpoint is a tick-stamped directory::

    <dir>/ckpt-<tick>/
        manifest.json   schema version, config hash, tick, actor
                        inventory, journal offset, sha256 digests
        state.pkl       the pickled engine graph (Engine.snapshot)

written under a temporary name and :func:`os.replace`-renamed into
place, with both files fsynced first — so the directory either
exists complete or not at all, and a crash mid-write leaves the
previous checkpoint untouched.  A ``LATEST`` pointer file names the
newest complete checkpoint; loaders fall back to scanning for the
highest tick if the pointer is stale or torn.

Validation happens before any state is applied: the manifest's schema
version, the config hash (when the caller knows what config it expects)
and the ``state.pkl`` digest must all match, otherwise
:class:`~repro.errors.CheckpointError` /
:class:`~repro.errors.CheckpointSchemaError` is raised.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
import shutil
from dataclasses import dataclass
from pathlib import Path

from repro.errors import CheckpointError, CheckpointSchemaError
from repro.sim.engine import Engine

#: on-disk layout version; bump on incompatible manifest/payload changes
CHECKPOINT_SCHEMA = "repro-checkpoint/1"

#: version of the pickled ``state.pkl`` envelope.  v2: a driver root is
#: always an :class:`~repro.core.experiment.ExperimentRun` (v1 archives
#: could hold a bare ``MigrationSupervisor``, which no longer resumes).
#: v3: the TI agent is a :class:`~repro.guest.participant.RuntimeParticipant`
#: (its runtime is ``runtime``, and ``_enforced_in_flight`` is gone).
#: v4: the guest's ``FrameAllocator`` holds numpy arrays (a rank stack
#: and an allocated mask) instead of a list and a set, and a
#: ``HeapLayout`` stores its space sizes.  v5: derived arrays stay out
#: of the pickle -- a ``FrameAllocator`` keeps its pool as given and the
#: live part of its stack, a ``PageTable`` keeps a run as its first PFN
#: and length, and a ``Domain`` and the ``Engine`` rebind their derived
#: fields on restore
STATE_VERSION = 5

_CKPT_RE = re.compile(r"^ckpt-(\d+)$")


def config_hash(config: dict) -> str:
    """Stable sha256 of a JSON-shaped config dict.

    Two runs with the same hash are byte-for-byte interchangeable as
    resume sources; the loader refuses a mismatch rather than resuming
    an experiment into a different experiment.
    """
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _fsync_dir(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


@dataclass
class CheckpointArchive:
    """A loaded (or just-written) checkpoint: path + parsed manifest."""

    path: Path
    manifest: dict

    @property
    def tick(self) -> int:
        return int(self.manifest["tick"])

    @property
    def now_s(self) -> float:
        return float(self.manifest["now_s"])

    def load_state(self) -> object:
        """Deserialize the pickled root (engine, or a resumable
        driver holding the engine), verifying the state digest.

        A missing, unreadable or damaged ``state.pkl`` raises
        :class:`~repro.errors.CheckpointError` naming the file."""
        # Refused before unpickling: an older layout may not even load.
        # Archives older than v5 carry no version in their manifest.
        version = self.manifest.get("state_version", "4 or older")
        if version != STATE_VERSION:
            raise CheckpointSchemaError(
                f"checkpoint state v{version} cannot be applied to "
                f"v{STATE_VERSION}"
            )
        try:
            blob = (self.path / "state.pkl").read_bytes()
        except OSError as exc:
            raise CheckpointError(
                f"checkpoint {self.path} is torn: state.pkl did not read: {exc}"
            ) from exc
        want = self.manifest["digests"]["state.pkl"]
        got = _sha256(blob)
        if got != want:
            raise CheckpointError(
                f"checkpoint {self.path} is corrupt: state.pkl digest "
                f"{got[:12]} != manifest {want[:12]}"
            )
        try:
            version, root = pickle.loads(blob)
        except Exception as exc:
            raise CheckpointError(
                f"checkpoint {self.path}: state.pkl did not load: {exc}"
            ) from exc
        if version != STATE_VERSION:
            raise CheckpointSchemaError(
                f"checkpoint state v{version} cannot be applied to "
                f"v{STATE_VERSION}"
            )
        return root

    def load_engine(self) -> Engine:
        """:meth:`load_state` narrowed to engine-rooted archives."""
        root = self.load_state()
        if not isinstance(root, Engine):
            raise CheckpointError(
                f"checkpoint {self.path} holds a {type(root).__name__} "
                "root, not an Engine"
            )
        return root


class _HashingWriter:
    """The write end of ``state.pkl``: hashes what it passes on, so the
    pickle streams to disk without a copy of it held in memory."""

    def __init__(self, fh) -> None:
        self.fh = fh
        self.sha256 = hashlib.sha256()

    def write(self, data) -> int:
        self.sha256.update(data)
        return self.fh.write(data)


def write_checkpoint(
    directory: str | os.PathLike,
    engine: Engine,
    *,
    root: object | None = None,
    cfg_hash: str = "",
    journal_offset: int = 0,
    extra: dict | None = None,
) -> CheckpointArchive:
    """Atomically write one checkpoint under *directory*.

    The pickled payload is *root* when given (a resumable driver whose
    graph includes the engine), else *engine* itself.  *extra* rides
    in the manifest under ``"extra"`` (e.g. supervisor phase, fault-plan
    offsets).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    target = engine if root is None else root
    tick = engine.clock.ticks
    manifest = {
        "schema": CHECKPOINT_SCHEMA,
        "tick": tick,
        "now_s": engine.now,
        "root": type(target).__name__,
        "state_version": STATE_VERSION,
        "config_hash": cfg_hash,
        "journal_offset": int(journal_offset),
        "engine": engine.describe(),
        "extra": extra or {},
    }

    final = directory / f"ckpt-{tick}"
    tmp = directory / f".tmp-ckpt-{tick}-{os.getpid()}"
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir()
    try:
        with open(tmp / "state.pkl", "wb") as fh:
            out = _HashingWriter(fh)
            try:
                pickle.Pickler(out, protocol=pickle.HIGHEST_PROTOCOL).dump(
                    (STATE_VERSION, target)
                )
            except Exception as exc:
                raise CheckpointError(
                    f"checkpoint state did not serialize: {exc}"
                ) from exc
            fh.flush()
            os.fsync(fh.fileno())
        manifest["digests"] = {"state.pkl": out.sha256.hexdigest()}
        with open(tmp / "manifest.json", "w", encoding="utf-8") as fh:
            fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        if final.exists():  # same tick re-written (e.g. resumed run)
            shutil.rmtree(final)
        os.replace(tmp, final)
        _fsync_dir(directory)
    except Exception as exc:
        shutil.rmtree(tmp, ignore_errors=True)
        if isinstance(exc, CheckpointError):
            raise
        raise CheckpointError(f"checkpoint write failed: {exc}") from exc

    # LATEST pointer: convenience, not authority (loaders re-scan).
    pointer_tmp = directory / ".LATEST.tmp"
    pointer_tmp.write_text(final.name + "\n", encoding="utf-8")
    os.replace(pointer_tmp, directory / "LATEST")
    return CheckpointArchive(final, manifest)


def list_checkpoints(directory: str | os.PathLike) -> list[CheckpointArchive]:
    """All complete checkpoints under *directory*, ascending by tick.

    A directory without a readable manifest (a torn write that somehow
    survived, or foreign content) is skipped, not fatal.
    """
    directory = Path(directory)
    if not directory.exists():
        return []
    out: list[CheckpointArchive] = []
    for entry in directory.iterdir():
        m = _CKPT_RE.match(entry.name)
        if not m or not entry.is_dir():
            continue
        manifest_path = entry / "manifest.json"
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            continue
        out.append(CheckpointArchive(entry, manifest))
    out.sort(key=lambda a: a.tick)
    return out


def load_checkpoint(
    directory: str | os.PathLike,
    *,
    expect_config_hash: str | None = None,
) -> CheckpointArchive:
    """The latest complete checkpoint under *directory*, validated.

    Prefers the ``LATEST`` pointer when it names a complete checkpoint;
    otherwise the highest tick wins.  Raises
    :class:`~repro.errors.CheckpointError` when the directory holds no
    usable checkpoint, :class:`~repro.errors.CheckpointSchemaError` on
    a schema or config-hash mismatch.
    """
    directory = Path(directory)
    available = {a.path.name: a for a in list_checkpoints(directory)}
    if not available:
        raise CheckpointError(f"no complete checkpoint under {directory}")
    chosen: CheckpointArchive | None = None
    pointer = directory / "LATEST"
    if pointer.exists():
        try:
            name = pointer.read_text(encoding="utf-8").strip()
        except OSError:
            name = ""
        chosen = available.get(name)
    if chosen is None:
        chosen = max(available.values(), key=lambda a: a.tick)
    schema = chosen.manifest.get("schema")
    if schema != CHECKPOINT_SCHEMA:
        raise CheckpointSchemaError(
            f"checkpoint {chosen.path} has schema {schema!r}; "
            f"this build reads {CHECKPOINT_SCHEMA!r}"
        )
    if expect_config_hash is not None:
        found = chosen.manifest.get("config_hash", "")
        if found and found != expect_config_hash:
            raise CheckpointSchemaError(
                f"checkpoint {chosen.path} was written by a different "
                f"configuration (hash {found[:12]} != expected "
                f"{expect_config_hash[:12]})"
            )
    return chosen


def prune_checkpoints(directory: str | os.PathLike, keep: int) -> int:
    """Delete all but the newest *keep* checkpoints; returns count removed."""
    archives = list_checkpoints(directory)
    doomed = archives[:-keep] if keep > 0 else archives
    for archive in doomed:
        shutil.rmtree(archive.path, ignore_errors=True)
    return len(doomed)
