"""Small file/format helpers shared by the library and the CLI."""

from __future__ import annotations

import os
import tempfile
from itertools import chain


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


def write_csv(path, header: str, columns, comments=()) -> None:
    """Atomically write '# comment' lines, the header and one line per row.

    columns holds the table column by column, all of one length (numpy
    arrays or sequences).  A column whose first value is a string is written
    as it is, every other value as fmt writes it: '%.17g' is the same
    format, applied to the whole table in one pass.
    """
    columns = [c.tolist() if hasattr(c, "tolist") else list(c) for c in columns]
    rows = len(columns[0]) if columns else 0
    if any(len(c) != rows for c in columns):
        raise ValueError(f"CSV columns differ in length: {[len(c) for c in columns]}")
    text = "".join(f"# {c}\n" for c in comments) + header + "\n"
    if rows:
        row = ",".join("%s" if isinstance(c[0], str) else "%.17g" for c in columns) + "\n"
        text += (row * rows) % tuple(chain.from_iterable(zip(*columns)))
    atomic_write_text(path, text)
