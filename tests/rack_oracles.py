"""Test-side racks and the rack-axiom oracle.

`TableRack` is a rack given by its m x m index table, for the racks of the
tests that are no conjugacy class (dihedral racks, unions of classes).  It
offers what the certificate check and the table-driven search read: size,
elements, op, sq, op_rows and table."""

import numpy as np


def check_axioms(rack) -> None:
    """Left-invertibility and self-distributivity, exhaustively on the
    index table; a failure names the first x (then y, z) it finds."""
    T = rack.table()
    elems = rack.elements
    every = np.arange(rack.size)
    broken = np.flatnonzero((np.sort(T, axis=1) != every).any(axis=1))
    if broken.size:
        raise AssertionError(f"y -> {elems[int(broken[0])]} |> y is not a bijection")
    for x in range(rack.size):
        # [y, z]: x |> (y |> z) against (x |> y) |> (x |> z)
        bad = np.argwhere(T[x][T] != T[np.ix_(T[x], T[x])])
        if len(bad):
            y, z = bad[0].tolist()
            raise AssertionError(
                f"self-distributivity fails at ({elems[x]}, {elems[y]}, {elems[z]})"
            )


class TableRack:
    """The rack on `elements` with i |> j = table[i][j]; the axioms are
    checked when it is built."""

    def __init__(self, elements, table):
        self.elements = list(elements)
        self.size = len(self.elements)
        self._table = np.asarray(table, dtype=np.int64)
        assert self._table.shape == (self.size, self.size)
        check_axioms(self)

    def op(self, x, y):
        z = self._table[x, y]
        return int(z) if np.ndim(z) == 0 else z

    def sq(self, x, y):
        return self.op(x, self.op(y, self.op(x, y)))

    def op_rows(self, X, Y):
        """The whole product X x Y as one block."""
        yield 0, self._table[np.ix_(np.asarray(X, dtype=np.int64), np.asarray(Y, dtype=np.int64))]

    def table(self) -> np.ndarray:
        return self._table.copy()
