"""Catalog of indecomposable ladder modules on {1,2,3} and random ladders.

A ladder module is a morphism between two modules on the same grid,
written as a 2x3 dimension code (upper row = target, lower row =
source).  Twenty-seven catalog entries are thin (all dimensions 0/1,
maps identity where both ends are nonzero): the row intervals [a,b] on
top and [c,d] below joined whenever a <= c <= b <= d, plus the single-row
ones.  The remaining two carry a 2-dimensional middle space and are
hard-coded.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import gf
from .modules import (
    GridInterval,
    Morphism,
    PersistenceModule,
    hom_exists,
    interval_module,
    module_from_bars,
    zero_module,
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
THICK_CODES: tuple[LadderCode, ...] = (
    LadderCode((1, 2, 1), (0, 1, 1)),
    LadderCode((1, 1, 0), (1, 2, 1)),
)
CATALOG_CODES: tuple[LadderCode, ...] = THIN_CODES + THICK_CODES


def _thin_row(bits: tuple[int, int, int], p: int) -> PersistenceModule:
    support = [t for t in (1, 2, 3) if bits[t - 1]]
    if not support:
        return zero_module(3, p)
    return interval_module(3, p, GridInterval(min(support), max(support)))


def _thin_morphism(code: LadderCode, p: int) -> Morphism:
    source = _thin_row(code.lower, p)
    target = _thin_row(code.upper, p)
    comps = []
    for t in (1, 2, 3):
        if code.upper[t - 1] and code.lower[t - 1]:
            comps.append(gf.identity(1))
        else:
            comps.append(gf.zeros(code.upper[t - 1], code.lower[t - 1]))
    return Morphism(source, target, comps)


def _thick_morphism(code: LadderCode, p: int) -> Morphism:
    if code == THICK_CODES[0]:
        source = PersistenceModule(p, (0, 1, 1), [gf.zeros(1, 0), [[1]]])
        target = PersistenceModule(p, (1, 2, 1), [[[1], [0]], [[0, 1]]])
        comps = [gf.zeros(1, 0), [[1], [1]], [[1]]]
    else:
        source = PersistenceModule(p, (1, 2, 1), [[[1], [0]], [[0, 1]]])
        target = PersistenceModule(p, (1, 1, 0), [[[1]], gf.zeros(0, 1)])
        comps = [[[1]], [[1, 1]], gf.zeros(0, 1)]
    return Morphism(source, target, comps)


ZERO_CODE = LadderCode((0, 0, 0), (0, 0, 0))


def from_code(code: LadderCode, p: int = 2) -> Morphism:
    if code in THICK_CODES:
        return _thick_morphism(code, p).validate()
    if code in THIN_CODES or code == ZERO_CODE:
        return _thin_morphism(code, p).validate()
    raise ValueError(f"unknown ladder code {code}")


def enumerate_catalog(p: int = 2) -> list[Morphism]:
    return [from_code(code, p) for code in CATALOG_CODES]


# ---------------------------------------------------------------------------
# Random generators for the property suites.


def _random_invertible(d: int, p: int, rng: random.Random):
    if d == 0:
        return gf.zeros(0, 0)
    while True:
        m = _random_matrix(d, d, p, rng)
        if gf.rank(m, p) == d:
            return m


def _random_matrix(rows: int, cols: int, p: int, rng: random.Random):
    m = gf.zeros(rows, cols)
    for i in range(rows):
        for j in range(cols):
            m[i, j] = rng.randrange(p)
    return m


def _random_decomposition(n: int, max_dim: int, p: int, rng: random.Random):
    """Random interval multiset below the dimension cap, plus a random
    basis change per grid position.  Returns (intervals, changes, module)."""
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
    acc = module_from_bars(n, p, intervals)
    changes = [_random_invertible(d, p, rng) for d in acc.dims]
    maps = []
    for t in range(1, n):
        conj = gf.matmul(
            changes[t], gf.matmul(acc.map(t), gf.inverse(changes[t - 1], p), p), p
        )
        maps.append(conj)
    return intervals, changes, PersistenceModule(p, acc.dims, maps)


def random_module(
    n: int, max_dim: int, p: int, rng: random.Random
) -> PersistenceModule:
    """Direct sum of random intervals hidden behind a random basis change."""
    return _random_decomposition(n, max_dim, p, rng)[2]


def random_ladder(n: int, max_dim: int, p: int, seed: int) -> Morphism:
    """Deterministic random morphism between random modules.

    Both sides are random interval sums behind random basis changes; the
    morphism is a random scalar on every pair of summands that admits a
    nonzero map (identity along the overlap), conjugated to the hidden
    bases.  Every morphism between the two modules has this form, so the
    draw covers the whole Hom space and commutation holds exactly.
    """
    rng = random.Random(seed)
    src_ivs, src_chg, v = _random_decomposition(n, max_dim, p, rng)
    dst_ivs, dst_chg, u = _random_decomposition(n, max_dim, p, rng)
    weights = {
        (si, di): rng.randrange(p)
        for si, iv in enumerate(src_ivs)
        for di, jv in enumerate(dst_ivs)
        if hom_exists(iv, jv)
    }
    comps = []
    for t in range(1, n + 1):
        src_alive = [k for k, iv in enumerate(src_ivs) if iv.contains(t)]
        dst_alive = [k for k, jv in enumerate(dst_ivs) if jv.contains(t)]
        src_pos = {k: c for c, k in enumerate(src_alive)}
        dst_pos = {k: r for r, k in enumerate(dst_alive)}
        block = gf.zeros(len(dst_alive), len(src_alive))
        for (si, di), w in weights.items():
            if w and si in src_pos and di in dst_pos:
                block[dst_pos[di], src_pos[si]] = w
        conj = gf.matmul(
            dst_chg[t - 1], gf.matmul(block, gf.inverse(src_chg[t - 1], p), p), p
        )
        comps.append(conj)
    return Morphism(v, u, comps).validate()
