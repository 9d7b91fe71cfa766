"""The on-disk snapshot format: versioned, checksummed, atomic.

One snapshot file is::

    MAGIC (8 bytes) | header length (4 bytes, big-endian) |
    JSON header (UTF-8) | pickle payload

The header carries the schema version, the payload's length and SHA-256
digest, and run metadata (sim time, label, sequence number).  Readers
verify every layer before touching the payload — wrong magic, an
unparsable or truncated header, a payload length mismatch, a digest
mismatch, or a schema-version skew each raise a distinct
:class:`SnapshotError` subclass and never partially deserialize.

Writes are atomic: the bytes go to a uniquely-named temp file in the
target directory, are fsynced, then :func:`os.replace`-d over the final
name — a crash mid-write leaves at worst a stray ``.tmp`` file and the
previous snapshot intact.  :class:`SnapshotStore` builds a bounded
rotation on top, and its :meth:`SnapshotStore.readable` walks newest to
oldest, *skipping* corrupt or version-skewed files (fail-soft): a
damaged latest snapshot costs one checkpoint interval, never the run.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: File magic: identifies a Kalis snapshot regardless of version.
MAGIC = b"KALISNAP"

#: Schema version; bump on any layout or pickled-object-graph change.
SCHEMA_VERSION = 5

#: Snapshot filename shape: ``snap-<sequence>.ksnap``.
SNAPSHOT_SUFFIX = ".ksnap"

_LENGTH = struct.Struct(">I")


class SnapshotError(Exception):
    """Base for every snapshot read failure (all are fail-soft)."""


class SnapshotCorrupt(SnapshotError):
    """Magic, header, length or digest did not verify."""


class SnapshotTruncated(SnapshotCorrupt):
    """The file ends before the declared payload does."""


class SnapshotVersionSkew(SnapshotError):
    """The snapshot's schema version is not the one this code writes."""


def write_snapshot(
    path, payload: bytes, meta: Optional[Dict[str, Any]] = None
) -> Path:
    """Atomically write one snapshot file.

    :param payload: the pickled deployment bytes.
    :param meta: extra JSON-safe header fields (``sim_time``, ``label``,
        ``sequence``...); reserved keys are overwritten.
    """
    path = Path(path)
    header: Dict[str, Any] = dict(meta or {})
    header["format"] = "kalis-snapshot"
    header["version"] = SCHEMA_VERSION
    header["payload_len"] = len(payload)
    header["payload_sha256"] = hashlib.sha256(payload).hexdigest()
    header_bytes = json.dumps(
        header, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    try:
        with open(temp, "wb") as handle:
            handle.write(MAGIC)
            handle.write(_LENGTH.pack(len(header_bytes)))
            handle.write(header_bytes)
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
    finally:
        if temp.exists():
            temp.unlink()
    return path


def read_header(path) -> Dict[str, Any]:
    """Parse and verify a snapshot's header without loading the payload."""
    header, _offset = _read_verified_header(Path(path))
    return header


def _read_verified_header(path: Path) -> Tuple[Dict[str, Any], int]:
    try:
        with open(path, "rb") as handle:
            magic = handle.read(len(MAGIC))
            if len(magic) < len(MAGIC):
                raise SnapshotTruncated(f"{path}: file shorter than magic")
            if magic != MAGIC:
                raise SnapshotCorrupt(f"{path}: bad magic {magic!r}")
            length_bytes = handle.read(_LENGTH.size)
            if len(length_bytes) < _LENGTH.size:
                raise SnapshotTruncated(f"{path}: truncated header length")
            (header_len,) = _LENGTH.unpack(length_bytes)
            header_bytes = handle.read(header_len)
            if len(header_bytes) < header_len:
                raise SnapshotTruncated(f"{path}: truncated header")
    except OSError as error:
        raise SnapshotCorrupt(f"{path}: unreadable: {error}") from error
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        raise SnapshotCorrupt(f"{path}: malformed header: {error}") from error
    if not isinstance(header, dict) or header.get("format") != "kalis-snapshot":
        raise SnapshotCorrupt(f"{path}: not a kalis snapshot header")
    version = header.get("version")
    if version != SCHEMA_VERSION:
        raise SnapshotVersionSkew(
            f"{path}: schema version {version!r}, this build reads "
            f"{SCHEMA_VERSION} — refusing to deserialize"
        )
    return header, len(MAGIC) + _LENGTH.size + header_len


def read_snapshot(path) -> Tuple[Dict[str, Any], bytes]:
    """Read and fully verify one snapshot; returns (header, payload).

    Raises a :class:`SnapshotError` subclass on any mismatch; the
    payload digest is checked before the bytes are handed back, so a
    flipped bit anywhere in the payload is caught here, not inside
    ``pickle.loads``.
    """
    path = Path(path)
    header, offset = _read_verified_header(path)
    try:
        with open(path, "rb") as handle:
            handle.seek(offset)
            payload = handle.read()
    except OSError as error:
        raise SnapshotCorrupt(f"{path}: unreadable: {error}") from error
    declared_len = header.get("payload_len")
    if not isinstance(declared_len, int) or declared_len < 0:
        raise SnapshotCorrupt(f"{path}: header missing payload_len")
    if len(payload) < declared_len:
        raise SnapshotTruncated(
            f"{path}: payload is {len(payload)} bytes, header declares "
            f"{declared_len}"
        )
    if len(payload) > declared_len:
        raise SnapshotCorrupt(
            f"{path}: {len(payload) - declared_len} trailing bytes after "
            f"the declared payload"
        )
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header.get("payload_sha256"):
        raise SnapshotCorrupt(
            f"{path}: payload sha256 mismatch (stored "
            f"{header.get('payload_sha256')!r}, computed {digest!r})"
        )
    return header, payload


class SnapshotStore:
    """A directory of rotated snapshots with fail-soft recovery.

    :param directory: where snapshots live; created on first save.
    :param keep: newest snapshots retained after each save (older ones
        are pruned so a long-running daemon's disk use stays bounded).
    """

    def __init__(self, directory, keep: int = 5) -> None:
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.directory = Path(directory)
        self.keep = keep
        #: (path, reason) for every file :meth:`latest` skipped.
        self.skipped: List[Tuple[Path, str]] = []

    def paths(self) -> List[Path]:
        """Every snapshot file, oldest first (by sequence number)."""
        if not self.directory.is_dir():
            return []
        found = []
        for path in self.directory.iterdir():
            sequence = _parse_sequence(path)
            if sequence is not None:
                found.append((sequence, path))
        return [path for _sequence, path in sorted(found)]

    def next_sequence(self) -> int:
        paths = self.paths()
        if not paths:
            return 1
        last = _parse_sequence(paths[-1])
        return (last or 0) + 1

    def save(
        self, payload: bytes, meta: Optional[Dict[str, Any]] = None
    ) -> Path:
        """Write the next snapshot in sequence, then prune old ones."""
        sequence = self.next_sequence()
        header = dict(meta or {})
        header["sequence"] = sequence
        path = self.directory / f"snap-{sequence:08d}{SNAPSHOT_SUFFIX}"
        write_snapshot(path, payload, header)
        self.prune()
        return path

    def prune(self) -> int:
        """Delete all but the newest ``keep`` snapshots."""
        paths = self.paths()
        removed = 0
        for path in paths[: max(0, len(paths) - self.keep)]:
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def readable(self) -> Iterator[Tuple[Path, Dict[str, Any], bytes]]:
        """Every snapshot that reads and verifies, newest first.

        Yields ``(path, header, payload)``.  A corrupt, truncated or
        version-skewed file is recorded in :attr:`skipped` and the walk
        continues — a damaged snapshot never takes the service down, it
        just resumes from the previous good one.
        """
        self.skipped = []
        for path in reversed(self.paths()):
            try:
                header, payload = read_snapshot(path)
            except SnapshotError as error:
                self.skipped.append((path, str(error)))
                continue
            yield path, header, payload

    def latest(self) -> Optional[Tuple[Dict[str, Any], bytes]]:
        """The newest *valid* snapshot's (header, payload), or None."""
        for _path, header, payload in self.readable():
            return header, payload
        return None


def _parse_sequence(path: Path) -> Optional[int]:
    """The sequence number of a snapshot filename, or None."""
    name = path.name
    if not name.startswith("snap-") or not name.endswith(SNAPSHOT_SUFFIX):
        return None
    stem = name[len("snap-") : -len(SNAPSHOT_SUFFIX)]
    if not stem.isdigit():
        return None
    return int(stem)
