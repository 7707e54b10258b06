"""Catalog of indecomposable ladder modules on {1,2,3} and random ladders.

A ladder module is a morphism between two modules on the same grid,
written as a 2x3 dimension code (upper row = target, lower row =
source).  Twenty-seven catalog entries are thin (all dimensions 0/1,
maps identity where both ends are nonzero): the row intervals [a,b] on
top and [c,d] below joined whenever a <= c <= b <= d, plus the single-row
ones, each morphism_from_bars of its 0 or 1 bar per row with weight 1.
The remaining two carry a 2-dimensional middle space: two bars, [1,2]
and [2,3], on one row, both sent with weight 1 to or from the one bar of
the other row.
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


def _row_code(iv: GridInterval | None) -> tuple[int, int, int]:
    return tuple(1 if iv is not None and iv.contains(t) else 0 for t in (1, 2, 3))


def _thin_codes() -> list[LadderCode]:
    intervals = [GridInterval(a, b) for a in (1, 2, 3) for b in range(a, 4)]
    codes = []
    for iv in intervals:
        codes.append(LadderCode(_row_code(iv), _row_code(None)))
        codes.append(LadderCode(_row_code(None), _row_code(iv)))
    for up in intervals:
        for lo in intervals:
            if hom_exists(lo, up):
                codes.append(LadderCode(_row_code(up), _row_code(lo)))
    return sorted(codes, key=lambda c: (c.upper, c.lower))


THIN_CODES: tuple[LadderCode, ...] = tuple(_thin_codes())

# The source bars, target bars and M of each thick code.
_THICK_BARS = {
    LadderCode((1, 2, 1), (0, 1, 1)): ([GridInterval(2, 3)],
                                       [GridInterval(1, 2), GridInterval(2, 3)], [[1], [1]]),
    LadderCode((1, 1, 0), (1, 2, 1)): ([GridInterval(1, 2), GridInterval(2, 3)],
                                       [GridInterval(1, 2)], [[1, 1]]),
}
THICK_CODES: tuple[LadderCode, ...] = tuple(_THICK_BARS)
CATALOG_CODES: tuple[LadderCode, ...] = THIN_CODES + THICK_CODES


def _thin_morphism(code: LadderCode, p: int) -> Morphism:
    """A thin code's rows, 0 or 1 bar each, joined with weight 1."""
    lower, upper = _row_bars(code.lower), _row_bars(code.upper)
    return morphism_from_bars(3, p, lower, upper, np.ones((len(upper), len(lower)), np.int64))


def _row_bars(bits: tuple[int, int, int]) -> list[GridInterval]:
    support = [t for t in (1, 2, 3) if bits[t - 1]]
    return [GridInterval(min(support), max(support))] if support else []


ZERO_CODE = LadderCode((0, 0, 0), (0, 0, 0))


def from_code(code: LadderCode, p: int = 2) -> Morphism:
    if code in THICK_CODES:
        return morphism_from_bars(3, p, *_THICK_BARS[code]).validate()
    if code in THIN_CODES or code == ZERO_CODE:
        return _thin_morphism(code, p).validate()
    raise ValueError(f"unknown ladder code {code}")


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
