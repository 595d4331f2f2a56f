"""Small file/format helpers shared by the library and the CLI."""

from __future__ import annotations

import os
import tempfile


def fmt(x: float) -> str:
    """Canonical float formatting: 17 significant digits, '.' decimal."""
    return format(float(x), ".17g")


def atomic_write_text(path, text: str) -> None:
    """Write via temp file + rename so readers never see partial output;
    creates the parent directory on the first write."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header: str, rows, comments=()) -> None:
    """Atomically write '# comment' lines, the header and one line per row.

    Strings are written as they are, every other value through fmt.
    """
    lines = [f"# {c}" for c in comments]
    lines.append(header)
    lines.extend(",".join(v if isinstance(v, str) else fmt(v) for v in row) for row in rows)
    atomic_write_text(path, "\n".join(lines) + "\n")
