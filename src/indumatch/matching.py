"""Partial matchings induced by a morphism between persistence modules.

For every pair of bars (I, J) of the source and target barcodes, the
morphism squeezes a comparison module out of the target: an upper space
y_plus (what the I-part of the source hits inside the J-part of the
target) and a lower space y_minus (what is already explained by longer
bars on either side).  The quotient is a persistence module whose bars
all die where I meets J; its barcode is the table entry of the
persistence-valued matching, and its size the entry of the counting
matching.  Both tables are linear under direct sums of morphisms.

f is read off the persistence bases of its two ends as one matrix M
(see the proof block in modules.py): F_t, f_t between the generators
alive at t, is a slice of M, and the y spaces are meets and sums of
column sets of F_t and coordinate subspaces.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import gf
from .gf import Subspace
from .modules import (
    Barcode,
    GridInterval,
    InvariantError,
    Morphism,
    PersistenceModule,
    barcode,
    hom_exists,
    interval_sort_key,
    persistence_basis,
    zero_module,
    _basis_matrix,
    _BasisMatrix,
)


def _meet(block: np.ndarray, rows: np.ndarray, p: int) -> np.ndarray:
    """Columns spanning the part of block's span that is zero off rows."""
    return gf.matmul(block, gf._null_basis(block[~rows], p), p)


def _upper(ft: _BasisMatrix, i: GridInterval, j: GridInterval) -> np.ndarray:
    """Columns spanning y_plus in the target generators, from ft = F_t."""
    src_plus = (ft.src_a <= i.a) & (ft.src_b <= i.b)
    return _meet(ft.m[:, src_plus], (ft.tgt_a <= j.a) & (ft.tgt_b <= j.b), ft.p)


def _lower(ft: _BasisMatrix, i: GridInterval, j: GridInterval):
    """Columns spanning y_minus off the v_minus_tgt(J) rows, and those rows."""
    tgt_plus = (ft.tgt_a <= j.a) & (ft.tgt_b <= j.b)
    early = _meet(ft.m[:, ft.src_a < i.a], tgt_plus, ft.p)
    src_minus = ((ft.src_a <= i.a) & (ft.src_b <= i.b)
                 & ((ft.src_a < i.a) | (ft.src_b < i.b)))
    tgt_minus = tgt_plus & ((ft.tgt_a < j.a) | (ft.tgt_b < j.b))
    return np.hstack([ft.m[:, src_minus], early]), tgt_minus


def y_plus(f: Morphism, i: GridInterval, j: GridInterval, t: int) -> Subspace:
    """f(v_plus of source at I) intersected with v_plus of target at J."""
    k = i.intersect(j)
    if k is None or not k.contains(t):
        return Subspace.zero(f.target.dim(t), f.p)
    tgt = persistence_basis(f.target).alive_columns(t)[2]
    upper = _upper(_basis_matrix(f).at(t), i, j)
    return Subspace.image(gf.matmul(tgt, upper, f.p), f.p)


def y_minus(f: Morphism, i: GridInterval, j: GridInterval, t: int) -> Subspace:
    """The part of the target at (J, t) already explained by longer bars.

    Three sources of absorption: the image of the source's own lower
    space, the target's lower space, and the image of anything arriving
    strictly before I's start that lands in the J-part.  The last term
    is the image-level counterpart of the early-arrival term inside the
    source's lower space; without it, two source bars with different
    births and deaths whose images collide in the target would both
    claim the same target bar, breaking the matching inequalities.
    """
    k = i.intersect(j)
    if k is None or not k.contains(t):
        return Subspace.zero(f.target.dim(t), f.p)
    tgt = persistence_basis(f.target).alive_columns(t)[2]
    lower, rows = _lower(_basis_matrix(f).at(t), i, j)
    return Subspace.image(np.hstack([gf.matmul(tgt, lower, f.p), tgt[:, rows]]), f.p)


@dataclass(frozen=True)
class XModule:
    """Quotient comparison module for a bar pair; zero off the overlap."""

    support: GridInterval | None
    module: PersistenceModule


def x_module(f: Morphism, i: GridInterval, j: GridInterval) -> XModule:
    """The quotient of y_plus by the saturated absorbed part, on the full grid.

    The absorbed space at the shared death is y_minus n y_plus; walking
    left, a direction is absorbed as soon as its pushforward eventually
    is.  This keeps every structure map of the quotient injective, so
    all of its bars die together at the right end of the overlap, and
    its dimension there counts them.
    """
    p = f.p
    n = f.n
    support = i.intersect(j)
    if support is None:
        return XModule(None, zero_module(n, p))
    big = {t: y_plus(f, i, j, t) for t in support}
    small: dict[int, Subspace] = {}
    dims = [0] * n
    for t in reversed(list(support)):
        if t == support.b:
            small[t] = gf.intersect(y_minus(f, i, j, t), big[t])
        else:
            pulled = gf.preimage(f.target.map(t), small[t + 1], p)
            small[t] = gf.intersect(pulled, big[t])
        dims[t - 1] = big[t].dim - small[t].dim
    maps = []
    for t in range(1, n):
        if support.contains(t) and support.contains(t + 1):
            mt = gf.induced_map_on_quotients(
                f.target.map(t), big[t], small[t], big[t + 1], small[t + 1], p
            )
            if gf.rank(mt, p) != dims[t - 1]:
                raise InvariantError(f"comparison module of ({i},{j}) not injective"
                                     f" at t={t}")
            maps.append(mt)
        else:
            maps.append(gf.zeros(dims[t], dims[t - 1]))
    return XModule(support, PersistenceModule(p, dims, maps))


def _entry_count(ft: _BasisMatrix, i: GridInterval, j: GridInterval) -> int:
    """Bar count of the comparison module of (I, J): its dimension at the
    shared death t = min(I.b, J.b), read off ft = F_t.

    That is dim (y_minus + y_plus) - dim y_minus in the target generators
    alive at t, modulo the v_minus_tgt(J) rows (y_minus holds those
    coordinate vectors): the pivots of one rref of [lower | upper] that
    fall in upper.
    """
    upper = _upper(ft, i, j)
    if not upper.any():
        return 0
    lower, rows = _lower(ft, i, j)
    _, pivots = gf.rref(np.hstack([lower, upper])[~rows], ft.p)
    return sum(c >= lower.shape[1] for c in pivots)


class MatchingTable:
    """Map from bar pairs to table values; empty entries are omitted."""

    empty: object = None  # the value of an absent entry

    def __init__(self, entries: dict[tuple[GridInterval, GridInterval], object]):
        self._entries = {k: v for k, v in entries.items() if v}

    def get(self, i: GridInterval, j: GridInterval):
        return self._entries.get((i, j), self.empty)

    def items(self):
        return sorted(
            self._entries.items(),
            key=lambda kv: (interval_sort_key(kv[0][0]), interval_sort_key(kv[0][1])),
        )

    def as_dict(self) -> dict:
        return dict(self._entries)

    def __len__(self):
        return len(self._entries)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._entries == other._entries

    def __repr__(self):
        inner = ", ".join(f"({i},{j}): {v}" for (i, j), v in self.items())
        return type(self).__name__ + "{" + inner + "}"


class MMatchingTable(MatchingTable):
    """Counts; zero entries are omitted."""

    empty = 0


class GMatchingTable(MatchingTable):
    """Barcodes; empty entries are omitted."""

    empty = Barcode()


def _check_table_bounds(counts: dict, b_src: Barcode, b_dst: Barcode):
    """Row and column sums of the counts stay within the multiplicities."""
    for side, bars, k in (("row", b_src, 0), ("column", b_dst, 1)):
        sums: Counter = Counter()
        for pair, c in counts.items():
            sums[pair[k]] += c
        for iv, total in sums.items():
            if total > bars.mult(iv):
                raise ValueError(f"{side} sum {total} exceeds multiplicity of {iv}")


def m_matching(f: Morphism) -> MMatchingTable:
    """Counting matching: entry (I, J) is the number of comparison bars.

    Only pairs with J.a <= I.a <= J.b <= I.b (hom_exists) are counted;
    every other entry is 0, as an entry factors through a map from the
    I interval module to the J one.  In detail: disjoint bars count 0.
    Otherwise I.a < J.a or I.b < J.b; let t = min(I.b, J.b), where the
    count is dim y_plus - dim (y_minus n y_plus); V is the source and W
    the target.
      - I.a < J.a: v_plus_src(I, t) lies in im(V(I.a) -> V(t)), inside
        im(V(J.a-1) -> V(t)), so naturality puts f of it in
        im(W(J.a-1) -> W(t)) = im_minus(J, t).
        Since v_plus_tgt(J, t) lies in ker_plus(J, t), y_plus lies in
        im_minus n ker_plus, which is inside v_minus_tgt and so y_minus.
      - I.b < J.b: here t = I.b, and naturality sends v_plus_src(I, t),
        which dies at I.b + 1, into ker(W(t) -> W(I.b+1)), which lies
        in ker(W(t) -> W(J.b)) = ker_minus(J, t).  Since
        v_plus_tgt(J, t) lies in im_plus(J, t), y_plus lies in
        im_plus n ker_minus, inside v_minus_tgt and so y_minus.
    In both cases y_plus lies in y_minus and the entry is 0.
    """
    b_src = barcode(f.source)
    b_dst = barcode(f.target)
    # A hom pair overlaps, and J ends first: the shared death is J.b.
    bm = _basis_matrix(f)
    at = {t: bm.at(t) for t in {j.b for j in b_dst.intervals()}}
    entries = {
        (i, j): _entry_count(at[j.b], i, j)
        for i in b_src.intervals()
        for j in b_dst.intervals()
        if hom_exists(i, j)
    }
    _check_table_bounds(entries, b_src, b_dst)
    return MMatchingTable(entries)


def g_matching(f: Morphism) -> GMatchingTable:
    """Barcode-valued matching: entry (I, J) is the barcode of the
    comparison module, every bar of which dies at the right end of I n J.

    Built on the counting table: injectivity makes the comparison
    module's dimensions nondecreasing toward the shared death, so a zero
    count there forces the whole module to zero, and only the nonzero
    entries of m_matching (whose bounds it checks) need a module.
    """
    entries: dict[tuple[GridInterval, GridInterval], Barcode] = {}
    for (i, j), count in m_matching(f).items():
        x = x_module(f, i, j)
        bars = barcode(x.module)
        if bars.total() != count:
            raise InvariantError(f"bar count {bars.total()} of ({i},{j}) disagrees"
                                 f" with m = {count}")
        if any(iv.b != x.support.b for iv in bars.intervals()):
            raise InvariantError(f"a bar of ({i},{j}) misses the shared death"
                                 f" t={x.support.b}")
        entries[(i, j)] = bars
    return GMatchingTable(entries)


IndexedBar = tuple[GridInterval, int]


class RepMatching:
    """Injective partial map between indexed bars of two barcodes."""

    def __init__(self, pairs: dict[IndexedBar, IndexedBar]):
        values = list(pairs.values())
        if len(set(values)) != len(values):
            raise ValueError("matching is not injective")
        self._pairs = dict(pairs)

    def get(self, bar: IndexedBar) -> IndexedBar | None:
        return self._pairs.get(bar)

    def items(self) -> list[tuple[IndexedBar, IndexedBar]]:
        return sorted(
            self._pairs.items(),
            key=lambda kv: (interval_sort_key(kv[0][0]), kv[0][1]),
        )

    def domain(self) -> set[IndexedBar]:
        return set(self._pairs)

    def image(self) -> set[IndexedBar]:
        return set(self._pairs.values())

    def counts(self) -> dict[tuple[GridInterval, GridInterval], int]:
        out: dict[tuple[GridInterval, GridInterval], int] = {}
        for (i, _), (j, _) in self._pairs.items():
            out[(i, j)] = out.get((i, j), 0) + 1
        return out

    def then(self, other: "RepMatching") -> "RepMatching":
        pairs = {}
        for src, mid in self._pairs.items():
            dst = other.get(mid)
            if dst is not None:
                pairs[src] = dst
        return RepMatching(pairs)

    def __len__(self):
        return len(self._pairs)

    def __eq__(self, other):
        if not isinstance(other, RepMatching):
            return NotImplemented
        return self._pairs == other._pairs

    def __repr__(self):
        inner = ", ".join(
            f"{i}_{l} -> {j}_{m}" for (i, l), (j, m) in self.items()
        )
        return "RepMatching{" + inner + "}"


def representation(
    table: MMatchingTable, b_src: Barcode, b_dst: Barcode
) -> RepMatching:
    """A concrete injective assignment of indexed bars realizing the counts.

    Deterministic: bar pairs are visited in interval order (earlier start
    first, then later end first) and indices are consumed ascending.
    """
    counts = table.as_dict()
    if any(c < 0 for c in counts.values()):
        raise ValueError("negative count")
    _check_table_bounds(counts, b_src, b_dst)
    next_src = {i: 1 for i in b_src.intervals()}
    next_dst = {j: 1 for j in b_dst.intervals()}
    pairs: dict[IndexedBar, IndexedBar] = {}
    for i in b_src.intervals():
        for j in b_dst.intervals():
            for _ in range(table.get(i, j)):
                pairs[(i, next_src[i])] = (j, next_dst[j])
                next_src[i] += 1
                next_dst[j] += 1
    return RepMatching(pairs)
