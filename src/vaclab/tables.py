"""CSV tables: the one writer and the one reader of every CSV file.

Floats are written with 17 significant digits, so identical inputs give
byte-identical files and reading a file back returns the written values
exactly.
"""
from __future__ import annotations

import csv

import numpy as np


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, str):
        return value
    return f"{value:.17g}"


def write_csv(path, columns) -> None:
    """The columns of a table, by header name and in header order (as
    :func:`read_csv` returns them): a header line, then one line per row;
    None is written as an empty cell and a boolean as true/false.

    A table of float arrays, which every per-output table is, is written
    from the columns' Python floats with one %-template per row, the
    cells and line ends ``csv.writer`` gives them (a number needs no
    quoting); any other table goes cell by cell through ``csv.writer``."""
    values = list(columns.values())
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        if all(isinstance(v, np.ndarray) and v.dtype.kind == "f" for v in values):
            line = ",".join(["%.17g"] * len(values)) + writer.dialect.lineterminator
            fh.writelines(map(line.__mod__, zip(*(v.tolist() for v in values))))
        else:
            writer.writerows([_cell(v) for v in row] for row in zip(*values))


def read_csv(path) -> dict[str, np.ndarray]:
    """The columns of a numeric table, by header name and in header order."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    data = np.array([[float(v) for v in row] for row in rows]).reshape(len(rows), len(header))
    return {name: data[:, k] for k, name in enumerate(header)}
