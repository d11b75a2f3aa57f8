"""Versioned on-disk persistence for released private structures.

A :class:`ReleaseStore` is a directory of named releases, each with a
monotonically increasing sequence of immutable versions::

    store_root/
      index.json             # names, versions, digests, formats, pins
      genome/
        v0001.json           # canonical JSON payload (compatibility format)
        v0002.dpsb           # binary columnar payload (serving format)
      transit/
        v0001.dpsb

Two payload formats coexist per store (``index.json`` records which one each
version uses):

``json``
    exactly what :meth:`PrivateCountingTrie.save` writes — released noisy
    counts plus public metadata, human-readable, rsyncable to untrusted
    analysts wholesale.  Every byte is re-parsed and the arrays rebuilt on
    load, so cold start is O(nodes) per process.
``binary``
    the ``vNNNN.dpsb`` columnar format of :mod:`repro.serving.binfmt`: the
    counter's flat arrays as raw aligned buffers.  :meth:`load_compiled`
    maps it read-only, so cold start is O(header) and N server processes
    share one page-cache copy of the node data.

Both formats carry the *same* canonical content digest (the SHA-256 of the
canonical JSON payload), recorded in the index and verified on load — a
structure saved in either format round-trips to the same digest, which is
what makes :meth:`migrate` safe to verify before it deletes anything.
``ReleaseStore(format=...)`` picks the default for new saves: ``"json"``,
``"binary"``, or ``"auto"`` (binary — the serving tier's format).

Durability and concurrency
--------------------------
Version payloads and ``index.json`` are written atomically (tmp file +
fsync + ``os.replace`` via :mod:`repro.serving._fsio`), so a crash mid-write
leaves the previous complete index in place instead of a truncated one.
Mutations (``save``/``pin``/``unpin``/``migrate``) serialize across threads
on an internal lock and across curator *processes* on an advisory
``.index.lock`` file, and every operation first re-reads ``index.json``
when its on-disk signature changed — two processes saving into the same
store interleave cleanly (distinct version numbers) instead of silently
clobbering each other's index entries.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.core.private_trie import PrivateCountingTrie
from repro.exceptions import ReleaseNotFoundError, ReproError
from repro.serving import binfmt
from repro.serving._fsio import FileLock, atomic_write_text, file_signature

__all__ = ["ReleaseStore", "ReleaseRecord"]

#: accepted values of ``ReleaseStore(format=...)`` / ``save(format=...)``.
FORMATS = ("json", "binary", "auto")

#: payload file extension per format (the collision scan checks both).
_SUFFIXES = {"json": ".json", "binary": binfmt.BINARY_SUFFIX}


@dataclass(frozen=True)
class ReleaseRecord:
    """Index entry describing one stored version of one release."""

    name: str
    version: int
    path: str
    digest: str
    epsilon: float
    delta: float
    construction: str
    num_patterns: int
    pinned: bool = False
    #: payload format of this version: ``"json"`` or ``"binary"``.
    format: str = "json"
    #: 1-based epoch of a continual-release stream (``None`` for single-shot
    #: releases, which are the trivial one-epoch case).
    epoch: int | None = None
    #: the store version this release supersedes (``None`` for the first).
    parent_version: int | None = None


def _digest(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _check_format(value: str, *, allow_auto: bool = True) -> str:
    if value not in FORMATS or (value == "auto" and not allow_auto):
        raise ReproError(
            f"invalid release format {value!r} (expected one of {FORMATS})"
        )
    return value


class ReleaseStore:
    """Save, version, pin, reload and migrate released private structures."""

    INDEX_NAME = "index.json"
    LOCK_NAME = ".index.lock"

    def __init__(self, root: str | Path, *, format: str = "auto") -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.format = _check_format(format)
        self._index_path = self.root / self.INDEX_NAME
        self._lock = threading.RLock()
        self._file_lock = FileLock(self.root / self.LOCK_NAME)
        self._signature: tuple[int, int] | None = None
        self._load_index()

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def save(
        self,
        name: str,
        structure: PrivateCountingTrie,
        *,
        format: str | None = None,
        epoch: int | None = None,
    ) -> ReleaseRecord:
        """Persist ``structure`` as the next version of release ``name``.

        ``format`` overrides the store default for this save; ``"auto"``
        (and an unset store default) means binary.  The recorded digest is
        the canonical JSON content digest in either format, so the two are
        interchangeable under every digest check.

        ``epoch`` tags the version as the release of a continual stream's
        1-based epoch; the previous latest version is then recorded as its
        ``parent_version``, so the index carries the full re-release chain.
        Versions saved without ``epoch`` keep the exact pre-epoch index
        shape (the keys are simply absent).
        """
        if not name or "/" in name or name.startswith("."):
            raise ReproError(f"invalid release name {name!r}")
        fmt = _check_format(format if format is not None else self.format)
        if fmt == "auto":
            fmt = "binary"
        # Payload assembly happens outside the locks: canonical
        # serialization is pure CPU and must not extend the critical section.
        if fmt == "binary":
            digest = structure.content_digest()
            payload = None
        else:
            payload = structure.to_json()
            digest = _digest(payload)
        with self._lock, self._file_lock:
            self._refresh_if_stale()
            entry = self._index["releases"].setdefault(
                name, {"pinned": None, "versions": {}}
            )
            version = 1 + max((int(v) for v in entry["versions"]), default=0)
            directory = self.root / name
            directory.mkdir(parents=True, exist_ok=True)
            # Never overwrite a payload file the index does not know about
            # (e.g. after a lost index): versions are immutable releases, so
            # skip past whatever already exists on disk — in *either*
            # payload format, so a binary vNNNN can never silently collide
            # with a JSON vNNNN.
            while any(
                (directory / f"v{version:04d}{suffix}").exists()
                for suffix in _SUFFIXES.values()
            ):
                version += 1
            path = directory / f"v{version:04d}{_SUFFIXES[fmt]}"
            # Payload first, index second: a crash in between leaves an
            # orphan version file the index never references (and the next
            # save of that name atomically overwrites it).
            if fmt == "binary":
                binfmt.write_binary(path, structure, content_digest=digest)
            else:
                atomic_write_text(path, payload)
            info = {
                "digest": digest,
                "epsilon": structure.metadata.epsilon,
                "delta": structure.metadata.delta,
                "construction": structure.metadata.construction,
                "num_patterns": structure.num_stored_patterns,
                "format": fmt,
            }
            if epoch is not None:
                info["epoch"] = int(epoch)
                previous = [int(v) for v in entry["versions"]]
                if previous:
                    info["parent_version"] = max(previous)
            entry["versions"][str(version)] = info
            self._write_index()
            return self._record(name, version)

    def pin(self, name: str, version: int) -> None:
        """Make ``version`` the default served version of ``name``."""
        with self._lock, self._file_lock:
            self._refresh_if_stale()
            entry = self._entry(name)
            if str(version) not in entry["versions"]:
                raise ReleaseNotFoundError(
                    f"release {name!r} has no version {version}"
                )
            entry["pinned"] = int(version)
            self._write_index()

    def unpin(self, name: str) -> None:
        """Revert ``name`` to serving its latest version by default."""
        with self._lock, self._file_lock:
            self._refresh_if_stale()
            self._entry(name)["pinned"] = None
            self._write_index()

    def migrate(
        self, name: str | None = None, version: int | None = None
    ) -> list[ReleaseRecord]:
        """Convert stored JSON versions to the binary format, in place.

        For every JSON version of ``name`` (or of every release when
        ``name`` is ``None``; ``version`` narrows to one), the binary
        payload is written atomically next to the JSON one, read back and
        verified to reproduce the *exact* recorded content digest, the
        index entry is flipped under the file lock, and only then is the
        old JSON payload removed.  A crash at any point leaves the version
        loadable: before the index flip the JSON payload is still the one
        the index references; after it, the verified binary payload is.

        Returns the records that were migrated (empty when everything is
        already binary).
        """
        migrated: list[ReleaseRecord] = []
        with self._lock, self._file_lock:
            self._refresh_if_stale()
            names = [name] if name is not None else sorted(self._index["releases"])
            for release_name in names:
                entry = self._entry(release_name)
                versions = (
                    [version]
                    if version is not None
                    else sorted(int(v) for v in entry["versions"])
                )
                for v in versions:
                    record = self._record(release_name, v)
                    if record.format == "binary":
                        continue
                    json_path = Path(record.path)
                    payload = json_path.read_text()
                    if _digest(payload) != record.digest:
                        raise ReproError(
                            f"release {release_name!r} v{v} failed its digest "
                            "check; refusing to migrate a modified payload"
                        )
                    binary_path = json_path.with_suffix(binfmt.BINARY_SUFFIX)
                    binfmt.write_binary(
                        binary_path,
                        PrivateCountingTrie.from_json(payload),
                        content_digest=record.digest,
                    )
                    # Digest equality is *proved* before the JSON payload
                    # goes away: the binary blob is read back in full and
                    # its reconstructed canonical payload must hash to the
                    # recorded digest.
                    reloaded = binfmt.read_binary(
                        binary_path,
                        mmap=False,
                        verify=True,
                        expected_digest=record.digest,
                    )
                    if reloaded.content_digest() != record.digest:
                        binary_path.unlink()
                        raise ReproError(
                            f"release {release_name!r} v{v}: binary round-trip "
                            "digest mismatch; migration aborted"
                        )
                    entry["versions"][str(v)]["format"] = "binary"
                    self._write_index()
                    try:
                        os.unlink(json_path)
                    except OSError:  # pragma: no cover - best-effort cleanup
                        pass
                    migrated.append(self._record(release_name, v))
        return migrated

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def load(self, name: str, version: int | None = None) -> PrivateCountingTrie:
        """Reload a stored structure (pinned-or-latest when no version is
        given), verifying its recorded digest.

        Binary versions are fully read into memory (checksummed) and
        re-digested: the returned structure's canonical digest is proven
        equal to the index record regardless of payload format.  Serving
        paths use :meth:`load_compiled` instead, which maps binary versions
        and compares the header's recorded digest without re-deriving it.
        """
        with self._lock:
            self._refresh_if_stale()
            resolved = self.resolve_version(name, version)
            record = self._record(name, resolved)
        if record.format == "binary":
            structure = binfmt.read_binary(
                record.path,
                mmap=False,
                verify=True,
                expected_digest=record.digest,
            )
            if structure.content_digest() != record.digest:
                raise ReproError(
                    f"release {name!r} v{resolved} failed its digest check; "
                    "the store file was modified after it was written"
                )
            return structure
        payload = Path(record.path).read_text()
        if _digest(payload) != record.digest:
            raise ReproError(
                f"release {name!r} v{resolved} failed its digest check; "
                "the store file was modified after it was written"
            )
        return PrivateCountingTrie.from_json(payload)

    def load_compiled(
        self,
        name: str,
        version: int | None = None,
        *,
        mmap: bool = True,
        verify: bool | None = None,
    ) -> PrivateCountingTrie:
        """The serving-path load of the stored version, zero-copy over
        mapped buffers when the payload is binary.

        For binary versions with ``mmap=True`` (the default) cold start is
        O(header): magic/version/size are validated, the header's canonical
        digest is checked against the index record, and node pages fault in
        lazily on first query — N processes share one page-cache copy.
        ``verify=True`` additionally checksums the data section up front.
        JSON versions are :meth:`load`-ed (their cold start is inherently
        O(nodes)).
        """
        with self._lock:
            self._refresh_if_stale()
            resolved = self.resolve_version(name, version)
            record = self._record(name, resolved)
        if record.format == "binary":
            return binfmt.read_binary(
                record.path,
                mmap=mmap,
                verify=verify,
                expected_digest=record.digest,
            )
        return self.load(name, resolved)

    def resolve_version(self, name: str, version: int | None = None) -> int:
        """The version ``load(name, version)`` would read."""
        with self._lock:
            self._refresh_if_stale()
            entry = self._entry(name)
            if version is not None:
                if str(version) not in entry["versions"]:
                    raise ReleaseNotFoundError(
                        f"release {name!r} has no version {version}"
                    )
                return int(version)
            if entry["pinned"] is not None:
                return int(entry["pinned"])
            return max(int(v) for v in entry["versions"])

    def names(self) -> list[str]:
        with self._lock:
            self._refresh_if_stale()
            return sorted(self._index["releases"])

    def versions(self, name: str) -> list[int]:
        with self._lock:
            self._refresh_if_stale()
            return sorted(int(v) for v in self._entry(name)["versions"])

    def list_releases(self) -> list[ReleaseRecord]:
        """Every stored version of every release, in (name, version) order."""
        with self._lock:
            self._refresh_if_stale()
            return [
                self._record(name, version)
                for name in sorted(self._index["releases"])
                for version in sorted(
                    int(v) for v in self._entry(name)["versions"]
                )
            ]

    def describe(self) -> list[dict]:
        """JSON-friendly view of :meth:`list_releases` (for the server)."""
        return [asdict(record) for record in self.list_releases()]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _load_index(self) -> None:
        signature = file_signature(self._index_path)
        if signature is not None:
            self._index = json.loads(self._index_path.read_text())
        else:
            self._index = {"releases": {}}
        self._signature = signature

    def _refresh_if_stale(self) -> None:
        """Re-read ``index.json`` when another process replaced it (the
        atomic writes guarantee whatever we read is a complete index).  A
        *vanished* index is kept in memory instead — resetting to empty
        would restart version numbering at 1 and overwrite published
        payload files."""
        signature = file_signature(self._index_path)
        if signature == self._signature:
            return
        if signature is None:
            self._signature = None
            return
        self._load_index()

    def _entry(self, name: str) -> dict:
        try:
            return self._index["releases"][name]
        except KeyError:
            raise ReleaseNotFoundError(
                f"no release named {name!r} in store {self.root}"
            ) from None

    def _record(self, name: str, version: int) -> ReleaseRecord:
        entry = self._entry(name)
        info = entry["versions"][str(version)]
        pinned = entry["pinned"] is not None and int(entry["pinned"]) == version
        # Indexes written before the binary format carry no "format" key;
        # those versions are JSON by construction.
        fmt = info.get("format", "json")
        suffix = _SUFFIXES.get(fmt, ".json")
        return ReleaseRecord(
            name=name,
            version=version,
            path=str(self.root / name / f"v{version:04d}{suffix}"),
            digest=info["digest"],
            epsilon=info["epsilon"],
            delta=info["delta"],
            construction=info["construction"],
            num_patterns=info["num_patterns"],
            pinned=pinned,
            format=fmt,
            # Continual-release chain metadata; absent (None) on indexes
            # written by the single-shot path, old or new.
            epoch=info.get("epoch"),
            parent_version=info.get("parent_version"),
        )

    def _write_index(self) -> None:
        # Atomic + fsynced: a crash mid-write leaves the previous complete
        # index loadable instead of truncated JSON.
        atomic_write_text(
            self._index_path, json.dumps(self._index, indent=2, sort_keys=True)
        )
        self._signature = file_signature(self._index_path)
