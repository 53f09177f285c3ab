"""Crash-safe, content-addressed result ledger (append-only JSONL).

The ledger maps a unit key (:func:`repro.experiments.canonical
.unit_key`) to that unit's pickled result.  It is the persistence
layer behind resumable campaigns: a sweep writes every completed unit
as it finishes, so an interruption — crash, OOM kill, ctrl-C — loses
at most the units that were in flight, and a restart with the same
ledger recomputes only what is missing.

Format: one JSON object per line, ``\\n``-terminated::

    {"v": 1, "kind": "header", "salt": "repro-unit-v1"}
    {"v": 1, "key": "<64 hex>", "payload": "<base64 pickle>",
     "psha": "<sha256 hex of the pickle bytes>", "ts": 1727000000.123}

The first line of a ledger created by this module is a *header*
declaring the :data:`~repro.experiments.canonical.LEDGER_SALT` its
keys were derived under — the cross-machine merge tool refuses to
combine ledgers whose headers disagree.  ``ts`` (seconds since the
epoch, recorded at append time) feeds the age/size-bounded GC
policies of :meth:`ResultLedger.compact`.  Ledgers written before
these fields existed (no header, no ``ts``) still load: a missing
header means "salt unknown" and a missing ``ts`` sorts as oldest.

Durability and recovery rules:

* **Appends are atomic-enough and fsynced.**  Each record is written
  with a single ``os.write`` to an ``O_APPEND`` descriptor and then
  ``fsync``ed, so concurrent writers (two campaign processes sharing a
  ledger) do not interleave records, and a completed append survives
  power loss.
* **Torn trailing records never crash a load.**  A crash mid-append
  leaves a final partial line; :meth:`ResultLedger.load` detects it
  (JSON parse failure, missing fields, or payload-digest mismatch),
  logs a warning, and skips it.  Corrupt *interior* records — bit rot,
  a torn record that a later append happened to follow — are likewise
  skipped with a warning: a ledger miss recomputes, a crash loses the
  whole campaign.
* **Duplicate keys: last write wins.**  Units are pure, so duplicates
  normally carry equal payloads; after a salt-less code change the
  most recent run is the one to trust, and compaction keeps it.
* **Compaction is atomic.**  :meth:`ResultLedger.compact` rewrites the
  live records to a temporary file in the same directory, fsyncs, and
  ``os.replace``s it over the ledger — readers see the old or the new
  file, never a partial one.
* **A long-lived index refreshes incrementally.**
  :meth:`ResultLedger.refresh` parses only the complete lines appended
  since the last load or refresh, by any writer.  It falls back to a
  full :meth:`~ResultLedger.load` when the file was replaced (an
  external ``compact``/``merge``) or shrank, and then reopens the append
  descriptor so later appends reach the new file.  A partial trailing
  line is left unread until its newline arrives.
"""

from __future__ import annotations

import base64
import binascii
import json
import logging
import os
import pickle
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import LedgerMergeError
from repro.experiments.canonical import LEDGER_SALT, sha256_hex

logger = logging.getLogger("repro.experiments.ledger")

#: Record format version; bump on incompatible record-shape changes.
_RECORD_VERSION = 1


class ResultLedger:
    """Append-only JSONL store of pickled unit results, keyed by hash.

    Loading reads and validates every record once; lookups
    (:meth:`__contains__`, :meth:`get`) are O(1) dictionary hits
    afterwards.  :meth:`put` appends crash-safely and updates the
    in-memory index, so a live campaign never re-reads the file, and
    :meth:`refresh` indexes what other writers appended since.  One
    instance may be shared between threads: lookups, appends, refreshes
    and compaction are serialized by an internal lock.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        #: key -> raw pickle bytes of the most recent record (last wins).
        self._records: Dict[str, bytes] = {}
        #: key -> append timestamp of the winning record (0.0 when the
        #: record predates the ``ts`` field — sorts as oldest).
        self._ts: Dict[str, float] = {}
        #: Salt declared by the file's header record, or ``None`` for a
        #: headerless (pre-header-format) ledger.
        self.salt: Optional[str] = None
        #: Records dropped by the last load (torn/corrupt), plus corrupt
        #: lines met by later refreshes.
        self.dropped_records = 0
        self._fd: Optional[int] = None
        #: Byte offset just past the last complete line indexed, and the
        #: number of lines before it (for warning line numbers).
        self._offset = 0
        self._lines = 0
        #: ``(st_dev, st_ino)`` of the file indexed; ``None`` if absent.
        self._file_id: Optional[Tuple[int, int]] = None
        self._lock = threading.RLock()
        self.load()

    # -- loading -------------------------------------------------------

    def load(self) -> None:
        """(Re)build the index from disk, skipping torn/corrupt records.

        The new index is built aside and swapped in whole.  A trailing
        line without its newline is a torn (or still in-flight) append:
        it is reported and counted as dropped but left unread, so a
        :meth:`refresh` after its newline arrives indexes it.
        """
        with self._lock:
            records: Dict[str, bytes] = {}
            stamps: Dict[str, float] = {}
            self.salt = None
            self.dropped_records = 0
            self._offset = self._lines = 0
            self._file_id = None
            try:
                with open(self.path, "rb") as handle:
                    stat = os.fstat(handle.fileno())
                    data = handle.read()
            except FileNotFoundError:
                data = b""
            else:
                self._file_id = (stat.st_dev, stat.st_ino)
            if self._index(data, records, stamps):
                logger.warning(
                    "%s: skipping torn trailing record at line %d "
                    "(no newline)", self.path, self._lines + 1,
                )
                self.dropped_records += 1
            self._records, self._ts = records, stamps

    def refresh(self) -> None:
        """Index the complete records appended since the last (re)load.

        Reads only the bytes past the last complete line already
        indexed — appended by this instance or any other writer.  When
        the file was replaced (an external ``compact``/``merge`` renamed
        a new one over it), removed, or shrank, this is a full
        :meth:`load` instead, and the append descriptor is reopened so
        later appends reach the live file.  A trailing line without its
        newline stays unread until it is complete.
        """
        with self._lock:
            try:
                with open(self.path, "rb") as handle:
                    if self._appended_only(handle):
                        handle.seek(self._offset)
                        self._index(handle.read(), self._records, self._ts)
                        return
            except FileNotFoundError:
                if self._file_id is None:
                    return
            # The append descriptor may still be open on the old file.
            self.close()
            self.load()

    def _appended_only(self, handle) -> bool:
        """Is ``handle`` the indexed file, changed only by appends?"""
        stat = os.fstat(handle.fileno())
        if (stat.st_dev, stat.st_ino) != self._file_id:
            return False
        if self._offset == 0:
            return True
        # The indexed prefix ends in a newline; a file truncated below
        # it (or rewritten in place) no longer has one there.
        handle.seek(self._offset - 1)
        return handle.read(1) == b"\n"

    def _index(
        self, data: bytes, records: Dict[str, bytes], stamps: Dict[str, float]
    ) -> bytes:
        """Index the complete lines of ``data``, the file from the offset.

        Advances the offset past them and returns the unterminated
        remainder, which is left unread.
        """
        end = data.rfind(b"\n") + 1
        for line in data[:end].split(b"\n")[:-1]:
            self._lines += 1
            if not line:
                continue
            record = self._parse_record(line, self._lines)
            if record is not None:
                key, payload, ts = record
                records[key] = payload
                stamps[key] = ts
        self._offset += end
        return data[end:]

    def _parse_record(self, line, lineno):
        """Validate one line; return ``(key, payload, ts)`` or ``None``.

        Header records set :attr:`salt` as a side effect and return
        ``None`` without counting as dropped.
        """
        try:
            obj = json.loads(line)
        except ValueError:
            logger.warning(
                "%s: skipping corrupt record at line %d (unparseable JSON)",
                self.path, lineno,
            )
            self.dropped_records += 1
            return None
        if isinstance(obj, dict) and obj.get("kind") == "header":
            if obj.get("v") == _RECORD_VERSION and isinstance(
                obj.get("salt"), str
            ):
                if self.salt is None:
                    self.salt = obj["salt"]
                    if self.salt != LEDGER_SALT:
                        logger.warning(
                            "%s: ledger salt %r differs from the current "
                            "%r; its keys will miss and recompute",
                            self.path, self.salt, LEDGER_SALT,
                        )
                return None
            logger.warning(
                "%s: skipping corrupt header at line %d "
                "(missing/invalid fields)", self.path, lineno,
            )
            self.dropped_records += 1
            return None
        if (
            not isinstance(obj, dict)
            or obj.get("v") != _RECORD_VERSION
            or not isinstance(obj.get("key"), str)
            or not isinstance(obj.get("payload"), str)
            or not isinstance(obj.get("psha"), str)
        ):
            logger.warning(
                "%s: skipping corrupt record at line %d "
                "(missing/invalid fields)", self.path, lineno,
            )
            self.dropped_records += 1
            return None
        try:
            payload = base64.b64decode(obj["payload"], validate=True)
        except (binascii.Error, ValueError):
            logger.warning(
                "%s: skipping corrupt record at line %d "
                "(invalid base64 payload)", self.path, lineno,
            )
            self.dropped_records += 1
            return None
        if sha256_hex(payload) != obj["psha"]:
            logger.warning(
                "%s: skipping corrupt record at line %d "
                "(payload digest mismatch)", self.path, lineno,
            )
            self.dropped_records += 1
            return None
        ts = obj.get("ts")
        if not isinstance(ts, (int, float)):
            ts = 0.0
        return obj["key"], payload, float(ts)

    # -- lookups -------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._records

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def keys(self) -> Iterator[str]:
        with self._lock:
            return iter(list(self._records))

    def get(self, key: str) -> Any:
        """Unpickle and return the result stored under ``key``.

        Raises :class:`KeyError` when the ledger holds no such key.
        """
        with self._lock:
            payload = self._records[key]
        return pickle.loads(payload)

    # -- appends -------------------------------------------------------

    def _append_fd(self) -> int:
        """The append descriptor, open on the live file, tail sealed."""
        if self._fd is not None and os.fstat(self._fd).st_nlink == 0:
            # The file was replaced under us (an external compact or
            # merge): append to the new one, not to the orphaned inode.
            # The next refresh sees the new file and reloads.
            self.close()
        if self._fd is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fd = os.open(
                self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644
            )
            stat = os.fstat(self._fd)
            # A brand-new ledger starts with a header naming the salt
            # its keys were derived under (the merge tool's safety
            # check).  Two writers racing on creation may both append
            # one — duplicates are recognized and harmless on load.
            if stat.st_size == 0:
                if self._file_id is None:
                    # Empty when opened: every line of it is yet to be
                    # indexed, so refreshes can read it incrementally.
                    self._file_id = (stat.st_dev, stat.st_ino)
                os.write(self._fd, self.encode_header())
                self.salt = LEDGER_SALT
        self._seal_torn_tail(self._fd)
        return self._fd

    @staticmethod
    def _seal_torn_tail(fd: int) -> None:
        """Terminate a torn trailing record before an append.

        A crash mid-append leaves the file ending without a newline;
        appending straight after it would glue the new record onto the
        torn fragment — losing *both* on the next load.  Writing one
        ``\\n`` turns the fragment into a lone corrupt line (skipped
        with a warning) and keeps the append intact.  Checked before
        every append, since another writer may crash at any time; a
        race with a writer mid-append costs at most an empty line.
        """
        size = os.fstat(fd).st_size
        if size and os.pread(fd, 1, size - 1) != b"\n":
            os.write(fd, b"\n")
            os.fsync(fd)

    @staticmethod
    def encode_header(salt: str = LEDGER_SALT) -> bytes:
        """The ledger's first line: the salt its keys were derived under."""
        obj = {"v": _RECORD_VERSION, "kind": "header", "salt": salt}
        return (json.dumps(obj, sort_keys=True) + "\n").encode("ascii")

    @staticmethod
    def encode_record(
        key: str, payload: bytes, ts: Optional[float] = None
    ) -> bytes:
        """One complete JSONL record (newline-terminated) for ``key``."""
        obj = {
            "v": _RECORD_VERSION,
            "key": key,
            "payload": base64.b64encode(payload).decode("ascii"),
            "psha": sha256_hex(payload),
        }
        if ts is not None:
            obj["ts"] = ts
        return (json.dumps(obj, sort_keys=True) + "\n").encode("ascii")

    def put(self, key: str, value: Any) -> None:
        """Append one result crash-safely and index it (last wins).

        The record is written with one ``os.write`` on an ``O_APPEND``
        descriptor and fsynced before :meth:`put` returns — once it
        returns, the result survives a crash, and concurrent writers
        never interleave within a record.
        """
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        ts = time.time()
        line = self.encode_record(key, payload, ts)
        with self._lock:
            fd = self._append_fd()
            os.write(fd, line)
            os.fsync(fd)
            self._records[key] = payload
            self._ts[key] = ts

    def close(self) -> None:
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None

    def __enter__(self) -> "ResultLedger":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- maintenance ---------------------------------------------------

    def compact(
        self,
        *,
        max_age_seconds: Optional[float] = None,
        max_bytes: Optional[int] = None,
        now: Optional[float] = None,
    ) -> int:
        """Atomically rewrite the ledger; optionally GC old/excess records.

        Always drops superseded duplicates and any torn/corrupt lines.
        With ``max_age_seconds`` set, records appended longer ago than
        that are evicted (records predating the ``ts`` field count as
        infinitely old).  With ``max_bytes`` set, records are evicted
        oldest-first until the rewritten file fits the bound (the
        newest records always survive; a bound smaller than one record
        plus the header empties the ledger).  Both bounds compose.

        The replacement is written to a temporary sibling, fsynced, and
        ``os.replace``d over the ledger, then the directory entry is
        fsynced — a crash at any instant leaves either the old or the
        new complete file.  Returns the number of evicted records.
        """
        now = time.time() if now is None else now
        with self._lock:
            survivors: List[Tuple[str, bytes, float]] = [
                (key, payload, self._ts.get(key, 0.0))
                for key, payload in self._records.items()
            ]
            if max_age_seconds is not None:
                cutoff = now - max_age_seconds
                survivors = [rec for rec in survivors if rec[2] >= cutoff]
            encoded = [
                (key, self.encode_record(key, payload, ts or None), ts)
                for key, payload, ts in survivors
            ]
            if max_bytes is not None:
                total = len(self.encode_header()) + sum(
                    len(line) for _, line, _ in encoded
                )
                # Oldest first: ties broken by append order (dict order).
                by_age = sorted(
                    range(len(encoded)), key=lambda i: (encoded[i][2], i)
                )
                evict = set()
                for i in by_age:
                    if total <= max_bytes:
                        break
                    total -= len(encoded[i][1])
                    evict.add(i)
                encoded = [
                    rec for i, rec in enumerate(encoded) if i not in evict
                ]
            evicted = len(self._records) - len(encoded)
            self.close()
            self.salt = self.salt or LEDGER_SALT
            lines = [self.encode_header(self.salt)]
            lines += [line for _, line, _ in encoded]
            self._file_id = _write_atomically(self.path, lines)
            self._offset = sum(len(line) for line in lines)
            self._lines = len(lines)
            self._records = {key: self._records[key] for key, _, _ in encoded}
            self._ts = {key: ts for key, _, ts in encoded}
            self.dropped_records = 0
            return evicted

    def stats(self) -> Dict[str, Any]:
        """Operational summary: live records, bytes, salt, age span."""
        try:
            file_bytes = self.path.stat().st_size
        except OSError:
            file_bytes = 0
        with self._lock:
            live_bytes = sum(
                len(self.encode_record(key, payload, self._ts.get(key) or None))
                for key, payload in self._records.items()
            )
            stamps = [ts for ts in self._ts.values() if ts > 0.0]
            return {
                "path": str(self.path),
                "records": len(self._records),
                "file_bytes": file_bytes,
                "live_bytes": live_bytes,
                "dropped_records": self.dropped_records,
                "salt": self.salt,
                "oldest_ts": min(stamps) if stamps else None,
                "newest_ts": max(stamps) if stamps else None,
            }


# ----------------------------------------------------------------------
# Cross-machine merge
# ----------------------------------------------------------------------


def merge_ledgers(
    out_path: Union[str, Path], in_paths: Sequence[Union[str, Path]]
) -> Dict[str, int]:
    """Merge ledgers into one, last-write-wins on duplicate keys.

    Inputs are processed in argument order and, within a file, in line
    order — so a key appearing in several places resolves to the most
    recent record of the *last* input naming it, matching the ledger's
    own duplicate policy.  Torn/corrupt lines are skipped with a
    warning, exactly as :meth:`ResultLedger.load` would.

    Safety: the merge **refuses** (:class:`~repro.errors
    .LedgerMergeError`) inputs whose headers declare different
    ``LEDGER_SALT`` values, and any record of a different format
    version — both would produce a ledger whose keys silently mean
    different things.  Headerless (legacy) inputs are compatible with
    anything; the output always carries a header.

    The output is written atomically (temp sibling + fsync +
    ``os.replace`` + directory fsync), so it may safely be one of the
    inputs.  Returns counts: ``records`` (live keys written),
    ``duplicates`` (records superseded during the merge), ``skipped``
    (torn/corrupt lines ignored).
    """
    out_path = Path(out_path)
    merged: Dict[str, Tuple[bytes, float]] = {}
    salts: Dict[str, str] = {}
    duplicates = 0
    skipped = 0
    for in_path in map(Path, in_paths):
        if not in_path.exists():
            raise LedgerMergeError(f"input ledger does not exist: {in_path}")
        _refuse_version_mismatch(in_path)
        ledger = ResultLedger(in_path)
        if ledger.salt is not None:
            salts[str(in_path)] = ledger.salt
            if len(set(salts.values())) > 1:
                detail = ", ".join(
                    f"{p}: {s!r}" for p, s in sorted(salts.items())
                )
                raise LedgerMergeError(
                    f"input ledgers declare different salts ({detail}); "
                    "their keys are not comparable"
                )
        skipped += ledger.dropped_records
        for key, payload in ledger._records.items():
            if key in merged:
                duplicates += 1
            merged[key] = (payload, ledger._ts.get(key, 0.0))
    salt = next(iter(salts.values()), LEDGER_SALT)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    _write_atomically(out_path, [ResultLedger.encode_header(salt)] + [
        ResultLedger.encode_record(key, payload, ts or None)
        for key, (payload, ts) in merged.items()
    ])
    return {
        "records": len(merged), "duplicates": duplicates, "skipped": skipped
    }


def _write_atomically(path: Path, lines: Sequence[bytes]) -> Tuple[int, int]:
    """Replace ``path`` with ``lines``; returns the new file's id.

    Temp sibling + fsync + ``os.replace`` + directory fsync: a crash at
    any instant leaves either the old or the new complete file.
    """
    tmp = path.with_name(path.name + ".tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        for line in lines:
            os.write(fd, line)
        os.fsync(fd)
        stat = os.fstat(fd)
    finally:
        os.close(fd)
    os.replace(tmp, path)
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
    return stat.st_dev, stat.st_ino


def _refuse_version_mismatch(path: Path) -> None:
    """Abort the merge if any parseable record has a foreign version.

    A plain load *skips* such records (a miss only costs a recompute);
    a merge must not — silently dropping another version's records
    from the combined ledger would look like data loss.
    """
    for line in path.read_bytes().split(b"\n"):
        if not line:
            continue
        try:
            obj = json.loads(line)
        except ValueError:
            continue  # torn/corrupt: the load pass warns and skips
        if isinstance(obj, dict) and "v" in obj and obj["v"] != _RECORD_VERSION:
            raise LedgerMergeError(
                f"{path}: contains record version {obj['v']!r} "
                f"(this tool writes version {_RECORD_VERSION}); refusing "
                "to merge across format versions"
            )
