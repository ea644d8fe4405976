"""JSON-friendly serialization helpers.

Search results, architectures and benchmark tables are exchanged as plain
dictionaries so they can be dumped with :mod:`json` without custom encoders.
The helpers here normalise numpy scalars/arrays to built-in Python types.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Iterator, Mapping, Tuple, Union

import numpy as np

try:  # pragma: no cover - POSIX only; Windows falls back to O_APPEND alone
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None


def to_jsonable(value: Any) -> Any:
    """Recursively convert ``value`` into JSON-serialisable built-ins.

    Handles numpy scalars, numpy arrays, tuples, sets, dataclass-like objects
    exposing ``to_dict`` and nested containers thereof.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return [to_jsonable(v) for v in value.tolist()]
    if hasattr(value, "to_dict") and callable(value.to_dict):
        return to_jsonable(value.to_dict())
    if isinstance(value, Mapping):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [to_jsonable(v) for v in value]
    raise TypeError(f"cannot serialise value of type {type(value)!r}")


def dump_json(value: Any, path: Union[str, Path], indent: int = 2) -> Path:
    """Serialise ``value`` to a JSON file and return the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(to_jsonable(value), handle, indent=indent, sort_keys=False)
        handle.write("\n")
    return path


def load_json(path: Union[str, Path]) -> Any:
    """Load a JSON file produced by :func:`dump_json`."""
    with Path(path).open("r", encoding="utf-8") as handle:
        return json.load(handle)


def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` crash-safely.

    The content goes to a temp file in the same directory and is
    ``os.replace``-d into place, so a crash mid-write leaves either the old
    file or the new one — never a torn hybrid.  Shared by the campaign
    manifest writer and the circuit breaker's state file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _maybe_inject_append_fault(fd: int, path: Path, line: bytes) -> None:
    """Chaos hook: consult the fault injector before an append's write.

    Imported lazily so the hot path costs one ``sys.modules`` lookup and
    production (no injector installed) returns immediately.  Torn-write
    injection half-writes the line and dies with ``KilledByFault``
    (simulating a writer killed mid-``write``); ENOSPC injection raises
    ``OSError(ENOSPC)`` before a byte lands.  The caller's ``finally``
    blocks unlock and close ``fd`` on both paths.
    """
    from repro.resilience import faults

    injector = faults.active()
    if injector is None:
        return
    if injector.take_enospc():
        import errno

        raise OSError(
            errno.ENOSPC, "injected fault: no space left on device", str(path)
        )
    if injector.take_torn_append():
        os.write(fd, line[: max(1, len(line) // 2)])
        raise faults.KilledByFault(f"injected torn append to {path}")


def append_line_atomic(path: Path, line: bytes) -> Tuple[int, int]:
    """Append one newline-terminated line to ``path`` safely under concurrent writers.

    The whole line goes down in a single ``os.write`` on a descriptor opened
    with ``O_APPEND`` (atomic with respect to the file offset on POSIX),
    wrapped in an advisory ``flock`` where available so concurrent appends
    from workers on one machine never interleave.  If the file does not end
    in a newline — a writer died mid-append — a ``\\n`` is written first, so
    the fragment becomes one unparseable line of its own instead of
    swallowing this record; no byte is ever truncated.  Returns the byte
    range ``(start, end)`` of the new line.  The run store shards write
    their records through it; :func:`append_jsonl_atomic` serves the
    campaign audit logs and the re-admission log (``dead-letter.jsonl``).
    """
    if not line.endswith(b"\n"):
        raise ValueError("an appended line must end with a newline")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(str(path), os.O_APPEND | os.O_CREAT | os.O_RDWR, 0o644)
    try:
        if fcntl is not None:
            fcntl.flock(fd, fcntl.LOCK_EX)
        try:
            offset = os.lseek(fd, 0, os.SEEK_END)
            if offset and os.pread(fd, 1, offset - 1) != b"\n":
                os.write(fd, b"\n")
                offset += 1
            _maybe_inject_append_fault(fd, path, line)
            os.write(fd, line)
        finally:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_UN)
    finally:
        os.close(fd)
    return offset, offset + len(line)


def append_jsonl_atomic(path: Path, payload: Mapping[str, Any]) -> Tuple[int, int]:
    """Append ``payload`` as one JSON line (see :func:`append_line_atomic`)."""
    line = (json.dumps(payload, sort_keys=False) + "\n").encode("utf-8")
    return append_line_atomic(path, line)


def iter_jsonl(path: Union[str, Path]) -> Iterator[Dict[str, Any]]:
    """Stream the JSON objects of a file written by :func:`append_jsonl_atomic`.

    Tolerant of what concurrent writers and crashes leave behind: reading
    stops at an unterminated tail (a writer is, or was, mid-append), and a
    line that does not parse to a JSON object is skipped.  A missing file
    yields nothing.  Used by the campaign audit logs and the re-admission
    log (``dead-letter.jsonl``).
    """
    path = Path(path)
    if not path.exists():
        return
    with path.open("rb") as handle:
        for raw in handle:
            if not raw.endswith(b"\n"):
                break  # torn tail
            try:
                record = json.loads(raw)
            except ValueError:
                continue  # interleave casualty
            if isinstance(record, dict):
                yield record


def format_table(rows: list, headers: list, precision: int = 3) -> str:
    """Render a list of row-sequences as a fixed-width text table.

    Used by the benchmark harnesses to print the same rows the paper's tables
    and figures report, without requiring a plotting backend.
    """
    def fmt(cell: Any) -> str:
        if isinstance(cell, float):
            return f"{cell:.{precision}f}"
        return str(cell)

    str_rows = [[fmt(c) for c in row] for row in rows]
    str_headers = [str(h) for h in headers]
    widths = [len(h) for h in str_headers]
    for row in str_rows:
        if len(row) != len(str_headers):
            raise ValueError(
                f"row has {len(row)} cells but there are {len(str_headers)} headers"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = [" | ".join(h.ljust(w) for h, w in zip(str_headers, widths)), sep]
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
