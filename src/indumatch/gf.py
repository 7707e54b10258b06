"""Exact linear algebra over a prime field GF(p).

Matrices are dense numpy int64 arrays with entries reduced to [0, p).
Shapes with zero rows or zero columns are legal everywhere: zero spaces
show up at every grid boundary, so empty matrices are first-class.

Subspaces are stored with a canonical column-reduced echelon basis, so
two equal subspaces have bit-identical basis matrices and equality is a
plain array comparison.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


class DimensionMismatch(ValueError):
    """Operands live in incompatible ambient spaces."""


# Largest dimension accepted at a grid position.  The basis sweep and
# the reductions cost d^2 to d^3 steps per position and np.eye(d) takes
# 8 d^2 bytes, so without a cap a file of a few bytes naming a huge
# dimension exhausts memory or runs for hours.
MAX_DIM = 256

# Largest work measure of one ladder, n + the sum of every dimension of
# both modules, i.e. the sum over grid positions t of 1 + dim V(t) +
# dim W(t).  MAX_DIM bounds the work per position, not per file: without
# this bound the cost grows linearly in n (about 0.5 ms per input byte,
# so a file of a few hundred KB runs for minutes).  At the bound, the
# slowest input measured is a bar-pair morphism (bar_pair_morphism in
# tests/conftest.py): random bars of a few lengths on both sides and a
# random coefficient on every hom pair, so M is one block, and the
# tables reduce one bordered matrix per (target bar, source start) of it,
# and match g reads each nonzero pair's walk along its overlap off two
# more.  CLI runs on a shared 2-core x86 VM (medians of 3): n = 16,
# 250 bars a side, lengths 5-10 (work 3,836, an 8.3 MB file) takes
# 1.1 s for match m and 1.5 s for match g over GF(7), the slowest
# measured, and 0.8 s and 1.3 s over GF(2); match chi and barcode take
# 0.3 s over either field.  Over GF(2), n = 32, 110 bars, lengths 9-18
# (work 2,960) takes 0.5 s for match m, 0.6 s for match g and 0.2 s for
# match chi and for barcode.  The dense natural morphism (n = 8, dims
# 255 on both sides, the same dense seeded GF(2) map A at every step of
# both modules, f_t = A + A^2) takes 0.7 s for barcode, for match chi
# and for match m, and 0.8 s for match g.
MAX_WORK = 4096


def field_error(p: int, max_dim: int) -> str | None:
    """Why GF(p) is refused at this dimension, or None if it is usable.

    A dimension above MAX_DIM is refused for every p.  An int64 matrix
    product sums up to max_dim terms below (p-1)^2, so exactness needs
    max_dim * (p-1)^2 < 2^63.  A p below 2 is not prime, whatever its
    size, so it is refused first.  The int64 bound is checked before
    trial division; it caps p near 3e9, so is_prime stays short (about
    7 ms at p = 2^31 - 1), and it runs once per p: a command asks again
    for each module it validates and each file it reads.
    """
    if max_dim > MAX_DIM:
        return f"dimension {max_dim} is above the cap of {MAX_DIM}"
    if p < 2:
        return f"p={p} is not prime"
    if max(max_dim, 1) * (p - 1) ** 2 >= 2**63:
        return f"p={p} is too large for exact int64 arithmetic at dimension {max_dim}"
    if not is_prime(p):
        return f"p={p} is not prime"
    return None


def work_error(n: int, total_dim: int) -> str | None:
    """Why a ladder on n positions whose dims sum to total_dim is refused,
    or None if n + total_dim is within MAX_WORK."""
    if n + total_dim > MAX_WORK:
        return (f"n + the sum of all dims is {n + total_dim}, above the work"
                f" bound of {MAX_WORK}")
    return None


@functools.cache
def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def normalize(entries, p: int) -> np.ndarray:
    """Coerce to a 2-d int64 array with entries reduced mod p."""
    if type(entries) is np.ndarray and entries.dtype == np.int64 and entries.ndim == 2:
        return entries % p
    m = np.asarray(entries, dtype=np.int64)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {m.shape}")
    return m % p


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.int64)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    out = a @ b
    out %= p
    return out


def block_diag(*blocks: np.ndarray) -> np.ndarray:
    out = zeros(sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks))
    r = c = 0
    for b in blocks:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out


def rref(m, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Row-reduced echelon form over GF(p).

    Returns (R, pivot_cols); pivots are 1 and alone in their column.
    """
    r = normalize(m, p)  # always a fresh buffer (the reduction copies)
    rows, cols = r.shape
    pivots: list[int] = []
    pr = 0
    for c in range(cols):
        if pr == rows:
            break
        nz = np.nonzero(r[pr:, c])[0]
        if nz.size == 0:
            continue
        i = pr + int(nz[0])
        if i != pr:
            r[[pr, i]] = r[[i, pr]]
        piv = int(r[pr, c])
        if piv != 1:
            r[pr] = (r[pr] * pow(piv, -1, p)) % p
        col = r[:, c].copy()
        col[pr] = 0
        if col.any():
            r -= np.outer(col, r[pr])
            r %= p
        pivots.append(c)
        pr += 1
    return r, tuple(pivots)


def low_reduce(w: np.ndarray, p: int) -> np.ndarray:
    """The lowest-pivot column reduction over GF(p) of the matrix m whose
    transpose is w, an int64 array with entries in [0, p) and one row per
    column of m, which it reduces in place.

    Each column in turn, left to right, takes its lowest nonzero row as
    its low; while an earlier column already took that low, a multiple of
    that column clears it.  Returns each column's low, or -1 if the column
    reduced to zero.

    Claim G1 (the pairing lemma: Cohen-Steiner, Edelsbrunner and Morozov,
    "Vines and Vineyards").  The reduced matrix is m V with V upper
    unitriangular, and for every k and r the rank of m on its first k
    columns and its rows from r down is the number of lows >= r among its
    first k reduced columns.
    Proof.  Each step adds to a column a multiple of an earlier one, so V
    is upper unitriangular, and m and m V span the same space on every
    prefix of their columns, on any set of rows.  On the rows from r
    down, a reduced column with no low or a low above row r is zero, and
    those with a low >= r have distinct lows, so they are independent.
    """
    lows = [-1] * len(w)
    owner: dict[int, int] = {}  # low -> the column that took it
    for c, col in enumerate(w):
        nz = col.nonzero()[0]
        while nz.size:
            low = int(nz[-1])
            k = owner.get(low)
            if k is None:
                owner[low], lows[c] = c, low
                break
            col -= col[low] * pow(int(w[k, low]), -1, p) % p * w[k]
            col %= p
            nz = col.nonzero()[0]
    return np.array(lows, dtype=np.int64)


def rank(m, p: int) -> int:
    return len(rref(m, p)[1])


def solve(a, b, p: int) -> np.ndarray | None:
    """One solution X of a @ X = b over GF(p), or None if inconsistent.

    b may have any number of columns; X has shape (cols(a), cols(b)).
    """
    a = normalize(a, p)
    b = normalize(b, p)
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"rows {a.shape[0]} != {b.shape[0]}")
    n = a.shape[1]
    r, pivots = rref(np.hstack([a, b]), p)
    if any(c >= n for c in pivots):
        return None
    x = zeros(n, b.shape[1])
    for row, c in enumerate(pivots):
        x[c] = r[row, n:]
    return x


def inverse(a, p: int) -> np.ndarray:
    a = normalize(a, p)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"matrix {a.shape} is not square")
    x = solve(a, identity(a.shape[0]), p)
    if x is None:
        raise ValueError("matrix is singular")
    return x


def null_basis(m: np.ndarray, p: int) -> np.ndarray:
    """One column per free variable of rref(m): a basis of the null space,
    not canonical.  Callers that only take an image of it skip the
    second rref that canonicalizing would cost."""
    # Free column fc gives e_fc - sum_row R[row, fc] e_pivot(row): column
    # fc of the identity with its pivot rows replaced by those of -R.
    r, pivots = rref(m, p)
    basis = identity(m.shape[1])
    if not pivots:  # m is zero: every column is free
        return basis
    pivots = list(pivots)
    basis[pivots] = -r[: len(pivots)] % p
    free = np.ones(m.shape[1], dtype=bool)
    free[pivots] = False
    return basis[:, free]


def _canonical_columns(m: np.ndarray, p: int) -> np.ndarray:
    # Column space basis = transposed nonzero rows of rref(m^T); unique
    # per subspace, which is what makes Subspace equality a byte check.
    r, pivots = rref(m.T, p)
    return r[: len(pivots)].T.copy()


@dataclass(frozen=True)
class Subspace:
    """A subspace of GF(p)^ambient with canonical echelon basis columns."""

    ambient: int
    p: int
    basis: np.ndarray  # ambient x dim

    def __post_init__(self):
        self.basis.setflags(write=False)

    @classmethod
    def image(cls, m, p: int) -> "Subspace":
        m = normalize(m, p)
        return cls(m.shape[0], p, _canonical_columns(m, p))

    @classmethod
    def kernel(cls, m, p: int) -> "Subspace":
        """Null space of m, with the canonical basis of every Subspace."""
        m = normalize(m, p)
        return cls(m.shape[1], p, _canonical_columns(null_basis(m, p), p))

    @classmethod
    def zero(cls, ambient: int, p: int) -> "Subspace":
        return cls(ambient, p, zeros(ambient, 0))

    @classmethod
    def full(cls, ambient: int, p: int) -> "Subspace":
        return cls(ambient, p, identity(ambient))

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient

    def contains_vector(self, v) -> bool:
        v = normalize(v, self.p)
        return solve(self.basis, v, self.p) is not None

    def contains(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        if other.dim == 0:
            return True
        return solve(self.basis, other.basis, self.p) is not None

    def _check_compatible(self, other: "Subspace"):
        if self.ambient != other.ambient:
            raise DimensionMismatch(
                f"ambient {self.ambient} != {other.ambient}"
            )
        if self.p != other.p:
            raise DimensionMismatch(f"field GF({self.p}) != GF({other.p})")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.ambient == other.ambient
            and self.p == other.p
            and np.array_equal(self.basis, other.basis)
        )

    def __hash__(self):
        return hash((self.ambient, self.p, self.basis.tobytes()))

    def __repr__(self):
        return f"Subspace(ambient={self.ambient}, p={self.p}, dim={self.dim})"


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """a n b, read off the null space of [A | B] without canonicalizing it."""
    a._check_compatible(b)
    if a.dim == 0 or b.is_full():
        return a
    if b.dim == 0 or a.is_full():
        return b
    # x with A x = -B y for some y, i.e. the A-part of ker [A | B].
    k = null_basis(np.hstack([a.basis, b.basis]), a.p)
    return Subspace.image(matmul(a.basis, k[: a.dim], a.p), a.p)
