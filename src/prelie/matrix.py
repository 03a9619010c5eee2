"""Exact integer coefficient matrices over tree bases."""

from __future__ import annotations

import io
import math

from .trees import DegreeCapError, _fill, _Value


class CoeffMatrix(_Value):
    """Integer matrix indexed by row/column tree serializations.

    For the planar base change the matrix is square, upper triangular and
    unipotent in the canonical (descending potential energy) basis order;
    the planar-to-non-planar matrix is rectangular.
    """

    __slots__ = _fields = ("degree", "row_basis", "col_basis", "entries")

    def __init__(
        self,
        degree: int,
        row_basis: tuple[str, ...],
        col_basis: tuple[str, ...],
        entries: tuple[tuple[int, ...], ...],
    ):
        _fill(self, degree, row_basis, col_basis, entries)

    def entry(self, row: str, col: str) -> int:
        return self.entries[self.row_basis.index(row)][self.col_basis.index(col)]

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.row_basis), len(self.col_basis))

    def entry_sum(self) -> int:
        return sum(sum(row) for row in self.entries)

    def column(self, col: str) -> tuple[int, ...]:
        j = self.col_basis.index(col)
        return tuple(row[j] for row in self.entries)

    def column_sums(self) -> tuple[int, ...]:
        return tuple(sum(col) for col in zip(*self.entries))

    def entry_multiset(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for row in self.entries:
            for e in row:
                counts[e] = counts.get(e, 0) + 1
        return counts

    def is_upper_triangular(self) -> bool:
        return not any(any(row[:i]) for i, row in enumerate(self.entries))

    def is_unipotent_upper_triangular(self) -> bool:
        n, m = self.shape
        if n != m or not self.is_upper_triangular():
            return False
        return all(self.entries[i][i] == 1 for i in range(n))

    def determinant(self) -> Fraction:
        """Exact determinant: the product of the diagonal when the matrix is
        upper triangular (every base change in canonical order is), else
        by Gaussian elimination over fractions."""
        from fractions import Fraction

        n, m = self.shape
        if n != m:
            raise ValueError("determinant of a non-square matrix")
        if self.is_upper_triangular():
            return Fraction(math.prod([self.entries[i][i] for i in range(n)]))
        a = [[Fraction(e) for e in row] for row in self.entries]
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
        buf = io.StringIO()
        buf.write("," + ",".join(self.col_basis) + "\n")
        for name, row in zip(self.row_basis, self.entries):
            buf.write(name + "," + ",".join([str(e) for e in row]) + "\n")
        return buf.getvalue()

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "row_basis": list(self.row_basis),
            "col_basis": list(self.col_basis),
            "entries": [list(row) for row in self.entries],
        }

    def to_json_str(self) -> str:
        import json

        return json.dumps(self.to_json())


# Most cells one dense matrix may have.  psi_matrix(10) (4862^2 = 23.6M cells)
# and the degree-12 AG expansion and beta (4766^2 = 22.7M) fit; the next
# planar degree (16796^2 = 282M cells) cannot be held in memory.
MAX_DENSE_CELLS = 24_000_000


def _check_dense(degree: int, rows: int, cols: int) -> None:
    """Raise ``DegreeCapError`` when a dense ``rows`` x ``cols`` matrix
    exceeds :data:`MAX_DENSE_CELLS`.  Every matrix builder calls it with the
    closed-form sizes of its bases, before any tree is enumerated."""
    if rows * cols > MAX_DENSE_CELLS:
        raise DegreeCapError(
            f"degree {degree}: a dense {rows} x {cols} matrix exceeds {MAX_DENSE_CELLS} cells"
        )


def _from_images(degree: int, row_basis: tuple, col_basis: tuple, images) -> CoeffMatrix:
    """Matrix with one column per text of ``col_basis``: the coefficients of
    the matching image in the iterable ``images``, each an iterable of
    (text, coefficient) pairs, over the texts ``row_basis``.  Each row text
    is indexed once and only the nonzero cells are written; the caller has
    checked the shape with :func:`_check_dense`."""
    # Every image is drawn before the rows exist: the collector, which runs
    # while images are built, would otherwise walk each row cell each time.
    images = list(images)
    index = {r: i for i, r in enumerate(row_basis)}
    cells = [[0] * len(col_basis) for _ in row_basis]
    for j, image in enumerate(images):
        for t, c in image:
            i = index.get(t)
            if i is not None:
                cells[i][j] = c
    return CoeffMatrix(
        degree=degree,
        row_basis=row_basis,
        col_basis=col_basis,
        entries=tuple(map(tuple, cells)),
    )
