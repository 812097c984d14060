"""Exact integer lattice utilities: row Hermite form with transform,
integer kernels, and lattice comparisons through the Hermite form.

Row convention throughout: a lattice is the set of integer combinations of
the ROWS of a matrix (lists of lists of ints).
"""

from __future__ import annotations

__all__ = [
    "hermite_with_transform",
    "integer_kernel",
    "is_full_lattice",
    "lattices_equal",
]


def hermite_with_transform(rows):
    """Row Hermite normal form H = U A with U unimodular.

    Returns (H, U).  H is in row echelon form with positive pivots, entries
    above each pivot reduced into [0, pivot).  Zero rows sink to the bottom.
    Deterministic.
    """
    H = [list(map(int, r)) for r in rows]
    m = len(H)
    n = len(H[0]) if m else 0
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    row = 0
    for col in range(n):
        # find a nonzero entry in this column at or below `row`
        pivot_row = None
        for r in range(row, m):
            if H[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        H[row], H[pivot_row] = H[pivot_row], H[row]
        U[row], U[pivot_row] = U[pivot_row], U[row]
        # kill the column below by Euclidean steps
        for r in range(row + 1, m):
            while H[r][col] != 0:
                q = H[row][col] // H[r][col]
                for k in range(n):
                    H[row][k] -= q * H[r][k]
                for k in range(m):
                    U[row][k] -= q * U[r][k]
                H[row], H[r] = H[r], H[row]
                U[row], U[r] = U[r], U[row]
        if H[row][col] < 0:
            H[row] = [-x for x in H[row]]
            U[row] = [-x for x in U[row]]
        # reduce entries above the pivot
        p = H[row][col]
        for r in range(row):
            q = H[r][col] // p
            if q:
                for k in range(n):
                    H[r][k] -= q * H[row][k]
                for k in range(m):
                    U[r][k] -= q * U[row][k]
        row += 1
        if row == m:
            break
    return H, U


def integer_kernel(matrix):
    """Basis (rows) of {x in Z^m : x A = 0} for an integer matrix A (m x n).

    The returned rows form an actual lattice basis of the kernel, not just a
    finite-index sublattice.
    """
    m = len(matrix)
    H, U = hermite_with_transform(matrix)
    return [U[i] for i in range(m) if all(v == 0 for v in H[i])]


def _hermite_rows(rows):
    """The nonzero rows of the Hermite form: a canonical basis of the
    lattice the rows generate."""
    H, _ = hermite_with_transform(rows)
    return [r for r in H if any(r)]


def is_full_lattice(rows, ambient_rank):
    """Do the rows generate all of Z^ambient_rank as a group?"""
    identity = [[int(i == j) for j in range(ambient_rank)] for i in range(ambient_rank)]
    return _hermite_rows(rows) == identity


def lattices_equal(rows_a, rows_b):
    """Do two row sets generate the same lattice?"""
    return _hermite_rows(rows_a) == _hermite_rows(rows_b)
