"""The one writer of the CSV artifacts.

Every file is a ``# <meta>`` comment line, the header row, the data rows and
an optional trailing comment line.  Floats are written by fmt, whose 17
significant digits read back to the same float.
"""

from __future__ import annotations

import csv

__all__ = ["fmt", "write_csv"]


def fmt(x) -> str:
    return f"{x:.17g}"


def write_csv(path, header, rows, meta: str, trailer: str = "") -> None:
    """Write ``# <meta>``, header and rows, then trailer as a line of its own if given."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# {meta}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
        if trailer:
            fh.write(trailer + "\n")
