"""Brute-force checkers kept deliberately separate from the main paths.

naive_barcode recovers multiplicities purely from ranks of composite
maps by inclusion-exclusion, independent of the basis sweep, so it can
referee the barcode read off the persistence basis.  count_generators
counts basis generators by an interval predicate.  The interval
operators are read off that same basis, so their independent referee is
the composite definitions (images and kernels of composites, their
intersections and sums) in tests/test_modules.py.
"""

from __future__ import annotations

from . import gf
from .modules import Barcode, GridInterval, PersistenceBasis, PersistenceModule


def _composite_rank(m: PersistenceModule, s: int, t: int) -> int:
    # Conventions: anything starting before the grid or ending past it
    # contributes rank 0.
    if s < 1 or t > m.n:
        return 0
    acc = gf.identity(m.dim(s))
    for k in range(s, t):
        acc = gf.matmul(m.map(k), acc, m.p)
    return gf.rank(acc, m.p)


def naive_barcode(m: PersistenceModule) -> Barcode:
    """Multiplicity of [a, b] by inclusion-exclusion on composite ranks:

        rank(a, b) - rank(a-1, b) - rank(a, b+1) + rank(a-1, b+1)
    """
    ranks: dict[tuple[int, int], int] = {}

    def r(s, t):
        if (s, t) not in ranks:
            ranks[(s, t)] = _composite_rank(m, s, t)
        return ranks[(s, t)]

    entries: dict[GridInterval, int] = {}
    for a in range(1, m.n + 1):
        for b in range(a, m.n + 1):
            mult = r(a, b) - r(a - 1, b) - r(a, b + 1) + r(a - 1, b + 1)
            if mult < 0:
                raise AssertionError(f"negative multiplicity at [{a},{b}]")
            if mult:
                entries[GridInterval(a, b)] = mult
    return Barcode(entries)


def count_generators(basis: PersistenceBasis, predicate) -> int:
    """Number of basis generators whose interval satisfies the predicate."""
    bars = zip(basis.starts.tolist(), basis.ends.tolist())
    return sum(1 for a, b in bars if predicate(GridInterval(a, b)))


# Predicate families matching the four interval operators: a generator is
# counted when it is alive at t and its start/end clears the bound.


def starts_by(c: int, t: int):
    return lambda iv: iv.a <= c and iv.contains(t)


def starts_before(c: int, t: int):
    return lambda iv: iv.a < c and iv.contains(t)


def ends_by(d: int, t: int):
    return lambda iv: iv.b <= d and iv.contains(t)


def ends_before(d: int, t: int):
    return lambda iv: iv.b < d and iv.contains(t)
