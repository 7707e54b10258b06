"""Exact linear algebra over a prime field GF(p).

Matrices are dense numpy int64 arrays with entries reduced to [0, p).
Shapes with zero rows or zero columns are legal everywhere: zero spaces
show up at every grid boundary, so empty matrices are first-class.

Subspaces are stored with a canonical column-reduced echelon basis, so
two equal subspaces have bit-identical basis matrices and equality is a
plain array comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DimensionMismatch(ValueError):
    """Operands live in incompatible ambient spaces."""


class ContainmentError(ValueError):
    """A subspace expected to contain another does not."""


class WellDefinednessError(ValueError):
    """A map does not respect the given filtrations."""


def field_error(p: int, max_dim: int) -> str | None:
    """Why GF(p) is refused at this dimension, or None if it is usable.

    An int64 matrix product sums up to max_dim terms below (p-1)^2, so
    exactness needs max_dim * (p-1)^2 < 2^63.  That bound is checked
    first; it caps p near 3e9, so is_prime's trial division stays short.
    """
    if max(max_dim, 1) * (p - 1) ** 2 >= 2**63:
        return f"p={p} is too large for exact int64 arithmetic at dimension {max_dim}"
    if not is_prime(p):
        return f"p={p} is not prime"
    return None


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


def block_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = zeros(a.shape[0] + b.shape[0], a.shape[1] + b.shape[1])
    out[: a.shape[0], : a.shape[1]] = a
    out[a.shape[0] :, a.shape[1] :] = b
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
        m = normalize(m, p)
        rows, cols = m.shape
        r, pivots = rref(m, p)
        free = [c for c in range(cols) if c not in pivots]
        basis = zeros(cols, len(free))
        for j, fc in enumerate(free):
            basis[fc, j] = 1
            for row, pc in enumerate(pivots):
                basis[pc, j] = (-r[row, fc]) % p
        return cls(cols, p, _canonical_columns(basis, p))

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


def sum_subspaces(a: Subspace, b: Subspace) -> Subspace:
    a._check_compatible(b)
    if b.dim == 0 or a.is_full():
        return a
    if a.dim == 0 or b.is_full():
        return b
    return Subspace.image(np.hstack([a.basis, b.basis]), a.p)


def intersect(a: Subspace, b: Subspace) -> Subspace:
    a._check_compatible(b)
    if a.dim == 0 or b.is_full():
        return a
    if b.dim == 0 or a.is_full():
        return b
    # x with A x = -B y for some y, i.e. the A-part of ker [A | B].
    k = Subspace.kernel(np.hstack([a.basis, b.basis]), a.p)
    return Subspace.image(matmul(a.basis, k.basis[: a.dim], a.p), a.p)


def preimage(m, s: Subspace, p: int) -> Subspace:
    """{v : m v in s}, a subspace of the domain of m."""
    m = normalize(m, p)
    if m.shape[0] != s.ambient or s.p != p:
        raise DimensionMismatch(
            f"map into GF({p})^{m.shape[0]} vs subspace of GF({s.p})^{s.ambient}"
        )
    if s.dim == s.ambient:
        return Subspace.full(m.shape[1], p)
    k = Subspace.kernel(np.hstack([m, s.basis]), p)
    return Subspace.image(k.basis[: m.shape[1]], p)


def quotient_dim(big: Subspace, small: Subspace) -> int:
    big._check_compatible(small)
    if not big.contains(small):
        raise ContainmentError("quotient by a space that is not contained")
    return big.dim - small.dim


def complement_columns(big: Subspace, small: Subspace) -> np.ndarray:
    """Columns of big's canonical basis extending small to a basis of big.

    Deterministic: scans big's echelon basis left to right, keeping the
    columns that grow the span.  Requires small <= big.
    """
    big._check_compatible(small)
    if not big.contains(small):
        raise ContainmentError("complement of a space that is not contained")
    p = big.p
    chosen: list[np.ndarray] = []
    cur = small.basis
    cur_rank = small.dim
    for j in range(big.dim):
        cand = big.basis[:, j : j + 1]
        stacked = np.hstack([cur, cand])
        if rank(stacked, p) > cur_rank:
            chosen.append(cand)
            cur = stacked
            cur_rank += 1
    if not chosen:
        return zeros(big.ambient, 0)
    return np.hstack(chosen)


def induced_map_on_quotients(
    m,
    src_big: Subspace,
    src_small: Subspace,
    dst_big: Subspace,
    dst_small: Subspace,
    p: int,
) -> np.ndarray:
    """Matrix of the map (src_big/src_small) -> (dst_big/dst_small).

    Coordinates are the canonical complement bases on both sides.  Raises
    WellDefinednessError when m does not carry the source filtration into
    the target one.
    """
    m = normalize(m, p)
    if m.shape[1] != src_big.ambient or m.shape[0] != dst_big.ambient:
        raise DimensionMismatch(
            f"map shape {m.shape} does not match ambients "
            f"{src_big.ambient} -> {dst_big.ambient}"
        )
    c_src = complement_columns(src_big, src_small)
    c_dst = complement_columns(dst_big, dst_small)
    if src_small.dim and not dst_small.contains(
        Subspace.image(matmul(m, src_small.basis, p), p)
    ):
        raise WellDefinednessError("m does not map src_small into dst_small")
    if src_big.dim and not dst_big.contains(
        Subspace.image(matmul(m, src_big.basis, p), p)
    ):
        raise WellDefinednessError("m does not map src_big into dst_big")
    q = c_src.shape[1]
    r = c_dst.shape[1]
    if q == 0:
        return zeros(r, 0)
    coords = solve(np.hstack([c_dst, dst_small.basis]), matmul(m, c_src, p), p)
    if coords is None:  # pragma: no cover - excluded by the checks above
        raise WellDefinednessError("image not contained in target quotient")
    return coords[:r].copy()
