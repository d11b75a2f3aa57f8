"""The versioned binary columnar release format (``vNNNN.dpsb``).

A released structure is nine flat numpy arrays plus a small amount of
metadata — and the JSON release payload forces every server process to
rebuild those arrays from pattern strings at startup and hold a private copy
of the result.  This module serializes the
:class:`repro.serving.CompiledTrie` columns directly::

    offset 0   magic b"DPSB" | u32 format version | u32 header length
    ...        header: JSON array table (name, dtype, shape, offset, nbytes),
               checksums, canonical content digest, node count
    align 64   data section: the nine arrays as raw little-endian buffers,
               each offset 64-byte aligned (offsets relative to the section
               start, so the table never depends on the header's own size)
    ...        trailer: JSON {vocab, metadata, report}

Design properties:

* **O(header) cold start** — :func:`read_binary` with ``mmap=True`` maps the
  file and builds :class:`CompiledTrie` as zero-copy read-only views over
  the mapped buffers.  Nothing touches a node page until the first query,
  and N server processes share one page-cache copy of the data section.
* **The digest is the JSON digest** — the header stores the structure's
  canonical :meth:`content_digest` (SHA-256 of the canonical JSON payload),
  so a binary release and the JSON release of the same structure are
  interchangeable under the store's digest checks, in both directions.
* **Corruption is detectable** — the exact file size is derivable from the
  header (truncation always fails fast), the trailer carries its own
  SHA-256 (always checked), and ``buffer_sha256`` covers the whole data
  section (checked by default on full reads; opt-in via ``verify=True``
  for mmap loads, where eagerly hashing would defeat the lazy mapping).

Every validation failure raises :class:`repro.exceptions.ReleaseFormatError`
naming the file and the check, so a corrupted store is diagnosable from the
error alone.  Writes go through :func:`repro.serving._fsio.atomic_write_bytes`
(tmp + fsync + rename), so a crash mid-write never damages a prior version.
"""

from __future__ import annotations

import hashlib
import json
import mmap as _mmap_module  # noqa: F401  (documented dependency of np.memmap)
from pathlib import Path

import numpy as np

from repro import faults
from repro.core.private_trie import (
    PrivateCountingTrie,
    StructureMetadata,
    payload_metadata,
)
from repro.exceptions import ReleaseFormatError
from repro.serving._fsio import atomic_write_bytes

__all__ = [
    "BINARY_SUFFIX",
    "FORMAT_VERSION",
    "MAGIC",
    "read_binary",
    "read_header",
    "write_binary",
]

#: four bytes identifying a DP substring-counting binary release.
MAGIC = b"DPSB"
#: bumped on any layout change; readers reject versions they don't know.
FORMAT_VERSION = 1
#: payload file extension (``vNNNN.dpsb``), next to the JSON ``.json``.
BINARY_SUFFIX = ".dpsb"
#: every buffer offset (and the data-section start) is a multiple of this,
#: so mapped views are aligned for any dtype numpy serves.
ALIGN = 64
#: the canonical column order; must match ``CompiledTrie.arrays()``.
ARRAY_FIELDS = (
    "counts",
    "depths",
    "parents",
    "parent_codes",
    "child_start",
    "child_end",
    "edge_keys",
    "edge_labels",
    "edge_targets",
)

_PREAMBLE_NBYTES = 12  # magic + u32 version + u32 header length

#: chaos-drill injection site: ``raise``/``delay`` fire at the top of every
#: binary load, ``corrupt`` flips one trailer byte so the format's own
#: checksum rejection (``ReleaseFormatError``) is what surfaces.
_FP_READ = faults.failpoint(
    "binfmt.read", "Entry of every binary (.dpsb) release read."
)


def _aligned(offset: int) -> int:
    return (offset + ALIGN - 1) // ALIGN * ALIGN


def _format_error(path: Path, check: str) -> ReleaseFormatError:
    return ReleaseFormatError(f"binary release {path}: {check}")


def write_binary(path: str | Path, compiled, *, content_digest: str | None = None) -> dict:
    """Serialize ``compiled`` (a :class:`CompiledTrie`) to ``path`` atomically.

    ``content_digest`` is the canonical JSON digest recorded in the header
    (and by the store's index); when omitted it is computed from ``compiled``
    — callers that already hold the source structure pass its digest instead
    of paying the payload walk twice.  Returns the written header dict.
    """
    path = Path(path)
    if content_digest is None:
        content_digest = compiled.content_digest()

    columns = compiled.arrays()
    if tuple(columns) != ARRAY_FIELDS:  # pragma: no cover - schema drift guard
        raise ReleaseFormatError(
            f"binary release {path}: CompiledTrie.arrays() order "
            f"{tuple(columns)} != format column order {ARRAY_FIELDS}"
        )

    table = []
    buffers: list[bytes] = []
    offset = 0
    buffer_hash = hashlib.sha256()
    for name, array in columns.items():
        # Raw buffers are always little-endian and C-contiguous on disk.
        array = np.ascontiguousarray(array, dtype=array.dtype.newbyteorder("<"))
        raw = array.tobytes()
        aligned = _aligned(offset)
        if aligned != offset:
            pad = b"\x00" * (aligned - offset)
            buffers.append(pad)
            buffer_hash.update(pad)
        table.append(
            {
                "name": name,
                "dtype": array.dtype.str,
                "shape": list(array.shape),
                "offset": aligned,
                "nbytes": len(raw),
            }
        )
        buffers.append(raw)
        buffer_hash.update(raw)
        offset = aligned + len(raw)

    trailer = json.dumps(
        {
            "vocab": compiled._vocab,
            "metadata": payload_metadata(compiled.metadata),
            "report": compiled.report,
        },
        sort_keys=True,
    ).encode("utf-8")

    header = {
        "arrays": table,
        "data_nbytes": offset,
        "buffer_sha256": buffer_hash.hexdigest(),
        "trailer_nbytes": len(trailer),
        "trailer_sha256": hashlib.sha256(trailer).hexdigest(),
        "content_digest": content_digest,
        "num_nodes": int(columns["counts"].size),
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    data_start = _aligned(_PREAMBLE_NBYTES + len(header_bytes))

    chunks = [
        MAGIC,
        FORMAT_VERSION.to_bytes(4, "little"),
        len(header_bytes).to_bytes(4, "little"),
        header_bytes,
        b"\x00" * (data_start - _PREAMBLE_NBYTES - len(header_bytes)),
        *buffers,
        trailer,
    ]
    atomic_write_bytes(path, chunks)
    return header


def _read_preamble(path: Path, handle) -> tuple[dict, int]:
    """Validate magic/version, parse the header, return it + data start."""
    preamble = handle.read(_PREAMBLE_NBYTES)
    if len(preamble) < _PREAMBLE_NBYTES:
        raise _format_error(path, "truncated before the 12-byte preamble")
    if preamble[:4] != MAGIC:
        raise _format_error(
            path, f"bad magic {preamble[:4]!r} (expected {MAGIC!r})"
        )
    version = int.from_bytes(preamble[4:8], "little")
    if version != FORMAT_VERSION:
        raise _format_error(
            path,
            f"unsupported format version {version} "
            f"(this reader understands {FORMAT_VERSION})",
        )
    header_nbytes = int.from_bytes(preamble[8:12], "little")
    header_bytes = handle.read(header_nbytes)
    if len(header_bytes) < header_nbytes:
        raise _format_error(path, "truncated inside the header")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except ValueError as exc:
        raise _format_error(path, f"header is not valid JSON ({exc})") from exc
    for key in (
        "arrays",
        "data_nbytes",
        "buffer_sha256",
        "trailer_nbytes",
        "trailer_sha256",
        "content_digest",
        "num_nodes",
    ):
        if key not in header:
            raise _format_error(path, f"header is missing the {key!r} field")
    if not isinstance(header["arrays"], list):
        raise _format_error(path, "header 'arrays' field is not a table")
    for entry in header["arrays"]:
        if not isinstance(entry, dict) or not (
            {"name", "dtype", "shape", "offset", "nbytes"} <= entry.keys()
        ):
            raise _format_error(
                path, f"malformed array table entry {entry!r} (corrupted header)"
            )
    return header, _aligned(_PREAMBLE_NBYTES + header_nbytes)


def read_header(path: str | Path) -> dict:
    """The validated header of a binary release (O(header), no data read).

    Checks magic, version and — via the exact expected file size — that the
    blob is not truncated.  This is all a cold start has to pay before
    queries begin faulting pages in on demand.
    """
    path = Path(path)
    with open(path, "rb") as handle:
        header, data_start = _read_preamble(path, handle)
        expected = data_start + header["data_nbytes"] + header["trailer_nbytes"]
        actual = path.stat().st_size
        if actual != expected:
            raise _format_error(
                path,
                f"size mismatch: {actual} bytes on disk, header implies "
                f"{expected} (truncated or trailing garbage)",
            )
    return header


def read_binary(
    path: str | Path,
    *,
    mmap: bool = True,
    verify: bool | None = None,
    expected_digest: str | None = None,
):
    """Load a binary release as a :class:`CompiledTrie`.

    With ``mmap=True`` (the default) the arrays are read-only zero-copy
    views over an ``np.memmap`` of the file: cold start is O(header), pages
    fault in on first query, and concurrent processes share one page-cache
    copy.  With ``mmap=False`` the data section is read into memory once
    (a private copy, no page sharing — but also no page faults at query
    time on a cold cache).

    ``verify`` controls the data-section checksum: ``None`` means *checked*
    for full reads (the bytes are in hand anyway) and *skipped* for mmap
    (hashing would fault in every page, defeating the lazy load); pass
    ``True``/``False`` to override.  Truncation and trailer corruption are
    always detected regardless.  ``expected_digest`` (e.g. the store
    index's record) is compared against the header's canonical content
    digest in O(1).
    """
    _FP_READ.hit()
    path = Path(path)
    header = read_header(path)
    if expected_digest is not None and header["content_digest"] != expected_digest:
        raise _format_error(
            path,
            f"content digest mismatch: header records "
            f"{header['content_digest']}, index expects {expected_digest}",
        )

    with open(path, "rb") as handle:
        _, data_start = _read_preamble(path, handle)
        data_nbytes = header["data_nbytes"]
        trailer_start = data_start + data_nbytes
        handle.seek(trailer_start)
        # The corrupt-bytes failpoint flips one deterministic byte here, so
        # chaos drills exercise the real checksum rejection path below.
        trailer_bytes = _FP_READ.corrupt(handle.read(header["trailer_nbytes"]))
        if hashlib.sha256(trailer_bytes).hexdigest() != header["trailer_sha256"]:
            raise _format_error(path, "trailer checksum mismatch (corrupted bytes)")
        data: bytes | None = None
        if not mmap:
            handle.seek(data_start)
            data = handle.read(data_nbytes)

    if verify is None:
        verify = not mmap

    mapped: np.memmap | None = None
    if mmap:
        mapped = np.memmap(path, dtype=np.uint8, mode="r")
        section = mapped[data_start:trailer_start]
        if verify:
            digest = hashlib.sha256(section).hexdigest()
            if digest != header["buffer_sha256"]:
                raise _format_error(
                    path, "data-section checksum mismatch (corrupted bytes)"
                )
    else:
        assert data is not None
        if verify and hashlib.sha256(data).hexdigest() != header["buffer_sha256"]:
            raise _format_error(
                path, "data-section checksum mismatch (corrupted bytes)"
            )

    columns: dict[str, np.ndarray] = {}
    for entry in header["arrays"]:
        try:
            dtype = np.dtype(entry["dtype"])
            start, nbytes = int(entry["offset"]), int(entry["nbytes"])
            if start < 0 or start % ALIGN or start + nbytes > data_nbytes:
                raise _format_error(
                    path, f"array {entry['name']!r} has an out-of-bounds buffer"
                )
            if mapped is not None:
                view = mapped[data_start + start : data_start + start + nbytes]
                array = view.view(dtype).reshape(entry["shape"])
            else:
                array = np.frombuffer(
                    data, dtype=dtype, count=nbytes // dtype.itemsize, offset=start
                )
                array = array.reshape(entry["shape"])
        except (TypeError, ValueError) as exc:
            # A bit flip in the header JSON can corrupt a dtype string or a
            # shape value while the header still parses; numpy's complaint
            # becomes a format error naming the file.
            raise _format_error(
                path, f"malformed array table entry {entry!r} ({exc})"
            ) from exc
        columns[entry["name"]] = array
    missing = [name for name in ARRAY_FIELDS if name not in columns]
    if missing:
        raise _format_error(path, f"header is missing arrays {missing}")

    try:
        trailer = json.loads(trailer_bytes.decode("utf-8"))
        vocab = {str(char): int(code) for char, code in trailer["vocab"].items()}
        metadata = StructureMetadata(**trailer["metadata"])
        report = dict(trailer.get("report", {}))
    except (ValueError, KeyError, TypeError) as exc:
        raise _format_error(path, f"trailer is malformed ({exc})") from exc

    return PrivateCountingTrie(
        counts=columns["counts"],
        depths=columns["depths"],
        parents=columns["parents"],
        parent_codes=columns["parent_codes"],
        child_start=columns["child_start"],
        child_end=columns["child_end"],
        edge_keys=columns["edge_keys"],
        edge_labels=columns["edge_labels"],
        edge_targets=columns["edge_targets"],
        vocab=vocab,
        metadata=metadata,
        report=report,
    )
