"""CSV tables written in blocks of rows.

The bytes are those ``csv.writer`` writes for the same cells formatted as
``f"{c:.17g}"`` (floats) or ``str(c)`` (integers): comma-separated, each row
ending in ``\\r\\n``.  No cell needs quoting, as numbers and the column names
used here hold no comma, quote or line break.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BLOCK_CELLS", "block_rows", "write_table"]

# Cells converted to Python numbers at a time.  Larger blocks are no faster
# and raise the peak memory of a run (4096 cells by about 0.25 MB).
BLOCK_CELLS = 1024


def block_rows(width: int) -> int:
    """Rows per block of a table ``width`` cells wide."""
    return max(1, BLOCK_CELLS // width)


def write_table(path, comment: str, header, columns) -> None:
    """Write ``# columns: <comment>``, the header row, then one row per index.

    ``columns`` is a sequence of arrays of equal length, each of shape (n,)
    or (n, k); float arrays are written with ``%.17g`` and all others, which
    must hold integers, with ``%d``.  Rows are formatted one block at a time
    from ``.tolist()`` of that block, so memory stays bounded whatever n is.
    """
    cols = [np.asarray(c) for c in columns]
    cols = [c[:, None] if c.ndim == 1 else c for c in cols]
    line = ",".join(
        "%.17g" if c.dtype.kind == "f" else "%d" for c in cols for _ in range(c.shape[1])
    ) + "\r\n"
    n, step = len(cols[0]), block_rows(line.count("%"))
    with open(path, "w", newline="") as fh:
        fh.write(f"# columns: {comment}\n")
        fh.write(",".join(header) + "\r\n")
        for a in range(0, n, step):
            cells = [col for c in cols for col in c[a:a + step].T.tolist()]
            fh.writelines(map(line.__mod__, zip(*cells)))
