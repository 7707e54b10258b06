"""Catalog of indecomposable ladder modules on {1,2,3} and random ladders.

A ladder module is a morphism between two modules on the same grid,
written as a 2x3 dimension code (upper row = target, lower row =
source).  The catalog is one bar table: each code's source bars, target
bars and M, its morphism_from_bars, with each row of the code counting
the bars of that row alive at t.  Twenty-seven entries are thin (all
dimensions 0/1, maps identity where both ends are nonzero): the row
intervals [a,b] on top and [c,d] below joined whenever a <= c <= b <= d,
plus the single-row ones, with 0 or 1 bar per row and weight 1.  The
remaining two carry a 2-dimensional middle space: two bars, [1,2] and
[2,3], on one row, both sent with weight 1 to or from the one bar of the
other row.  The table also holds ZERO_CODE, which has no bar.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import gf
from .modules import (
    GridInterval,
    Morphism,
    PersistenceModule,
    hom_exists,
    module_from_bars,
    morphism_from_bars,
)


@dataclass(frozen=True)
class LadderCode:
    upper: tuple[int, int, int]
    lower: tuple[int, int, int]

    def __repr__(self):
        u = "".join(str(x) for x in self.upper)
        l = "".join(str(x) for x in self.lower)
        return f"{u}/{l}"


def _row_code(bars: list[GridInterval]) -> tuple[int, int, int]:
    """A row of a code: the number of its bars alive at each t."""
    return tuple(sum(iv.contains(t) for iv in bars) for t in (1, 2, 3))


def _entry(src: list[GridInterval], tgt: list[GridInterval], m) -> tuple:
    """A catalog entry, its code and (source bars, target bars, M)."""
    return LadderCode(_row_code(tgt), _row_code(src)), (src, tgt, m)


def _thin(src: list[GridInterval], tgt: list[GridInterval]) -> tuple:
    """A thin entry: 0 or 1 bar a row, joined with weight 1."""
    return _entry(src, tgt, np.ones((len(tgt), len(src)), np.int64))


_INTERVALS = [GridInterval(a, b) for a in (1, 2, 3) for b in range(a, 4)]

# The one bar table, keyed by code: the thin codes, the thick ones and
# the zero code.
_BARS = dict(
    [_thin([], [iv]) for iv in _INTERVALS] + [_thin([iv], []) for iv in _INTERVALS]
    + [_thin([lo], [up]) for up in _INTERVALS for lo in _INTERVALS if hom_exists(lo, up)]
    + [_entry([GridInterval(2, 3)], [GridInterval(1, 2), GridInterval(2, 3)], [[1], [1]]),
       _entry([GridInterval(1, 2), GridInterval(2, 3)], [GridInterval(1, 2)], [[1, 1]]),
       _thin([], [])]
)

THIN_CODES: tuple[LadderCode, ...] = tuple(sorted(
    (c for c in _BARS if max(c.upper + c.lower) == 1), key=lambda c: (c.upper, c.lower)))
THICK_CODES: tuple[LadderCode, ...] = tuple(c for c in _BARS if max(c.upper + c.lower) == 2)
CATALOG_CODES: tuple[LadderCode, ...] = THIN_CODES + THICK_CODES
ZERO_CODE = LadderCode((0, 0, 0), (0, 0, 0))


def from_code(code: LadderCode, p: int = 2) -> Morphism:
    if code not in _BARS:
        raise ValueError(f"unknown ladder code {code}")
    return morphism_from_bars(3, p, *_BARS[code]).validate()


def enumerate_catalog(p: int = 2) -> list[Morphism]:
    return [from_code(code, p) for code in CATALOG_CODES]


# ---------------------------------------------------------------------------
# Random generators for the property suites.


def _random_change(d: int, p: int, rng: random.Random):
    """A random invertible d x d matrix, drawn row by row, and its inverse."""
    while True:
        m = np.array([rng.randrange(p) for _ in range(d * d)], np.int64).reshape(d, d)
        inv = gf.solve(m, gf.identity(d), p)
        if inv is not None:
            return m, inv


def _random_bars(n: int, max_dim: int, p: int, rng: random.Random):
    """A random interval multiset below the dimension cap, and a random
    basis change, with its inverse, per grid position."""
    dims = [0] * n
    intervals: list[GridInterval] = []
    for _ in range(rng.randrange(0, 2 * n + 1)):
        a = rng.randint(1, n)
        b = rng.randint(a, n)
        if any(dims[t - 1] >= max_dim for t in range(a, b + 1)):
            continue
        for t in range(a, b + 1):
            dims[t - 1] += 1
        intervals.append(GridInterval(a, b))
    return intervals, [_random_change(d, p, rng) for d in dims]


def _hide(m: PersistenceModule, changes) -> PersistenceModule:
    """m behind the basis changes: each map V(t) -> V(t+1) is conjugated."""
    return PersistenceModule(m.p, m.dims, [
        gf.matmul(changes[t][0], gf.matmul(m.map(t), changes[t - 1][1], m.p), m.p)
        for t in range(1, m.n)])


def random_module(
    n: int, max_dim: int, p: int, rng: random.Random
) -> PersistenceModule:
    """Direct sum of random intervals hidden behind a random basis change."""
    intervals, changes = _random_bars(n, max_dim, p, rng)
    return _hide(module_from_bars(n, p, intervals), changes)


def random_ladder(n: int, max_dim: int, p: int, seed: int) -> Morphism:
    """Deterministic random morphism between random modules.

    Both sides are random interval sums behind random basis changes; the
    morphism is morphism_from_bars of a random scalar on every pair of
    summands that admits a nonzero map, conjugated to the hidden bases.
    Every morphism between the two modules has this form (Claim M9), so
    the draw covers the whole Hom space and commutation holds exactly.
    """
    rng = random.Random(seed)
    src_ivs, src_chg = _random_bars(n, max_dim, p, rng)
    dst_ivs, dst_chg = _random_bars(n, max_dim, p, rng)
    weights = gf.zeros(len(dst_ivs), len(src_ivs))
    for si, iv in enumerate(src_ivs):
        for di, jv in enumerate(dst_ivs):
            if hom_exists(iv, jv):
                weights[di, si] = rng.randrange(p)
    f = morphism_from_bars(n, p, src_ivs, dst_ivs, weights)
    comps = [gf.matmul(dst[0], gf.matmul(f.comp(t), src[1], p), p)
             for t, (src, dst) in enumerate(zip(src_chg, dst_chg), start=1)]
    return Morphism(_hide(f.source, src_chg), _hide(f.target, dst_chg), comps).validate()
