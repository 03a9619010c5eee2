"""Exact integer coefficient matrices over tree bases, held as the columns
the kernels compute, so a matrix costs its nonzeros.  The dense grid is
built only to be read or printed (CSV and JSON a band of rows at a time),
and only those views refuse a grid above the cell budget."""

from __future__ import annotations

import math
from typing import Iterator

from .trees import DegreeCapError, _fill, _Value


class CoeffMatrix(_Value):
    """Integer matrix indexed by row/column tree serializations: ``columns[j]``
    maps row texts to the nonzero coefficients of column ``col_basis[j]``.

    For the planar base change the matrix is square, upper triangular and
    unipotent in the canonical (descending potential energy) basis order;
    the planar-to-non-planar matrix is rectangular.
    """

    __slots__ = _fields = ("degree", "row_basis", "col_basis", "columns")

    def __init__(
        self,
        degree: int,
        row_basis: tuple[str, ...],
        col_basis: tuple[str, ...],
        columns: tuple[dict[str, int], ...],
    ):
        _fill(self, degree, row_basis, col_basis, columns)

    def __hash__(self):
        return hash((self.degree, self.row_basis, self.col_basis))

    def entry(self, row: str, col: str) -> int:
        return self.column(col)[self.row_basis.index(row)]

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.row_basis), len(self.col_basis))

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self._rows(0, int)))

    def _rows(self, zero, cell) -> list[list]:
        """The dense grid as rows: ``cell(c)`` at each nonzero c, else ``zero``."""
        _check_dense(self.degree, *self.shape)
        index = {r: i for i, r in enumerate(self.row_basis)}
        rows = [[zero] * len(self.col_basis) for _ in self.row_basis]
        for j, column in enumerate(self.columns):
            for r, c in column.items():
                rows[index[r]][j] = cell(c)
        return rows

    def entry_sum(self) -> int:
        return sum(self.column_sums())

    def column(self, col: str) -> tuple[int, ...]:
        get = self.columns[self.col_basis.index(col)].get
        return tuple([get(r, 0) for r in self.row_basis])

    def column_sums(self) -> tuple[int, ...]:
        return tuple([sum(column.values()) for column in self.columns])

    def entry_multiset(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for column in self.columns:
            for c in column.values():
                counts[c] = counts.get(c, 0) + 1
        zeros = math.prod(self.shape) - sum(counts.values())
        if zeros:
            counts[0] = zeros
        return counts

    def is_upper_triangular(self) -> bool:
        index = {r: i for i, r in enumerate(self.row_basis)}
        return all(index[r] <= j for j, column in enumerate(self.columns) for r in column)

    def is_unipotent_upper_triangular(self) -> bool:
        n, m = self.shape
        if n != m or not self.is_upper_triangular():
            return False
        return all(c.get(r) == 1 for r, c in zip(self.row_basis, self.columns))

    def determinant(self) -> Fraction:
        """Exact determinant: the product of the diagonal when the matrix is
        upper triangular (every base change in canonical order is), else
        by Gaussian elimination over fractions."""
        from fractions import Fraction

        n, m = self.shape
        if n != m:
            raise ValueError("determinant of a non-square matrix")
        if self.is_upper_triangular():
            return Fraction(math.prod([c.get(r, 0) for r, c in zip(self.row_basis, self.columns)]))
        a = self._rows(Fraction(0), Fraction)
        det = Fraction(1)
        for col in range(n):
            pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
            if pivot is None:
                return Fraction(0)
            if pivot != col:
                a[col], a[pivot] = a[pivot], a[col]
                det = -det
            det *= a[col][col]
            inv = a[col][col]
            for r in range(col + 1, n):
                factor = a[r][col] / inv
                if factor:
                    a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
        return det

    def to_csv(self) -> str:
        return "".join(self._csv_lines())

    def _csv_lines(self) -> Iterator[str]:
        """The CSV form line by line: the header, then the rows."""
        yield "," + ",".join(self.col_basis) + "\n"
        for name, row in self._printed_rows():
            yield f"{name},{','.join(row)}\n"

    def _printed_rows(self) -> Iterator[tuple[str, list[str]]]:
        """Each row's name and its cells as printed (``str`` of the int),
        filled in bands of at most ``_CSV_BAND_CELLS`` cells, one pass over
        the columns per band.  A cell of a row outside the band goes to a
        spare line that is never printed, so a matrix that fits in one band
        is filled exactly as a dense grid."""
        _check_dense(self.degree, *self.shape)
        n = len(self.col_basis)
        step = max(1, _CSV_BAND_CELLS // max(n, 1))
        text = str  # read as a local in the loop below
        for lo in range(0, len(self.row_basis), step):
            names = self.row_basis[lo : lo + step]
            at = dict.fromkeys(self.row_basis, len(names))  # the spare line
            at.update(zip(names, range(len(names))))
            band = [["0"] * n for _ in range(len(names) + 1)]
            for j, column in enumerate(self.columns):
                for r, c in column.items():
                    band[at[r]][j] = text(c)
            yield from zip(names, band)

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "row_basis": list(self.row_basis),
            "col_basis": list(self.col_basis),
            "entries": self._rows(0, int),
        }

    def to_json_str(self) -> str:
        return "".join(self._json_chunks())

    def _json_chunks(self) -> Iterator[str]:
        """The text of ``json.dumps(self.to_json())`` a row of entries at a
        time: an int prints the same in JSON as by ``str``."""
        import json

        head = {
            "degree": self.degree,
            "row_basis": list(self.row_basis),
            "col_basis": list(self.col_basis),
        }
        yield json.dumps(head)[:-1] + ', "entries": ['
        sep = ""
        for _, row in self._printed_rows():
            yield f"{sep}[{', '.join(row)}]"
            sep = ", "
        yield "]}"


# Most cells of one band of rows that printing a matrix as CSV or JSON fills
# at once (32 MiB of cell pointers); psi_matrix(9) (1430^2 cells) fits in one band.
_CSV_BAND_CELLS = 1 << 22

# Most cells of a dense view of a matrix: of the grid that reading its entries
# or eliminating for its determinant builds, and of what printing it writes.
# The builders have no budget: a matrix holds only its nonzeros.
# psi_matrix(10) (4862^2 = 23.6M cells) and the degree-12 AG expansion and
# beta (4766^2 = 22.7M) print; psi_matrix(11) (16796^2) is built, not printed.
MAX_DENSE_CELLS = 24_000_000


def _check_dense(degree: int, rows: int, cols: int) -> None:
    """Raise ``DegreeCapError`` when a dense ``rows`` x ``cols`` matrix
    exceeds :data:`MAX_DENSE_CELLS`.  The dense views call it with their
    shape; the command line calls it with the closed-form sizes of the
    bases, before any tree is enumerated."""
    if rows * cols > MAX_DENSE_CELLS:
        raise DegreeCapError(
            f"degree {degree}: a dense {rows} x {cols} matrix exceeds {MAX_DENSE_CELLS} cells"
        )


def _from_images(degree: int, row_basis: tuple, col_basis: tuple, images) -> CoeffMatrix:
    """Matrix with one column per text of ``col_basis``: the nonzero
    coefficients of the matching image in the iterable ``images``, each an
    iterable of (text, coefficient) pairs, at the texts of ``row_basis``.
    A text outside the row basis, which only a faulty kernel produces, is
    dropped, so that the column-sum and column checks of ``verify`` report
    the fault as a failed check rather than a traceback."""
    rows = frozenset(row_basis)
    columns = tuple([{t: c for t, c in image if c and t in rows} for image in images])
    return CoeffMatrix(degree, row_basis, col_basis, columns)
