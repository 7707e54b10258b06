"""Partial matchings induced by a morphism between persistence modules.

For every pair of bars (I, J) of the source and target barcodes, the
morphism squeezes a comparison module out of the target: an upper space
y_plus (what the I-part of the source hits inside the J-part of the
target) and a lower space y_minus (what is already explained by longer
bars on either side).  The quotient is a persistence module whose bars
all die where I meets J; its barcode is the table entry of the
persistence-valued matching, and its size the entry of the counting
matching.  Both tables are linear under direct sums of morphisms.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from . import gf
from .gf import Subspace
from .modules import (
    Barcode,
    GridInterval,
    Morphism,
    PersistenceModule,
    barcode,
    im_minus,
    interval_sort_key,
    memo,
    v_minus,
    v_plus,
    zero_module,
)


def _pushed(f: Morphism, iv: GridInterval, t: int, sign: str) -> Subspace:
    """f_t applied to v_plus / v_minus of the source, cached per morphism."""
    op = v_plus if sign == "+" else v_minus
    return memo(f._push_cache, (sign, iv.a, iv.b, t), lambda: _push(f, op, iv, t))


def _pushed_early(f: Morphism, iv: GridInterval, t: int) -> Subspace:
    """f_t applied to what arrived strictly before the interval's start."""
    return memo(f._push_cache, ("early", iv.a, t), lambda: _push(f, im_minus, iv, t))


def _push(f: Morphism, op, iv: GridInterval, t: int) -> Subspace:
    src = op(f.source, iv, t)
    return Subspace.image(gf.matmul(f.comp(t), src.basis, f.p), f.p)


def y_plus(f: Morphism, i: GridInterval, j: GridInterval, t: int) -> Subspace:
    """f(v_plus of source at I) intersected with v_plus of target at J."""
    k = i.intersect(j)
    if k is None or not k.contains(t):
        return Subspace.zero(f.target.dim(t), f.p)
    return gf.intersect(_pushed(f, i, t, "+"), v_plus(f.target, j, t))


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
    absorbed = gf.sum_subspaces(_pushed(f, i, t, "-"), v_minus(f.target, j, t))
    early = gf.intersect(_pushed_early(f, i, t), v_plus(f.target, j, t))
    return gf.sum_subspaces(absorbed, early)


@dataclass(frozen=True)
class XModule:
    """Quotient comparison module for a bar pair; zero off the overlap."""

    support: GridInterval | None
    module: PersistenceModule

    def dim(self, t: int) -> int:
        return self.module.dim(t)


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
                raise AssertionError(f"comparison module not injective at t={t}")
            maps.append(mt)
        else:
            maps.append(gf.zeros(dims[t], dims[t - 1]))
    return XModule(support, PersistenceModule(p, dims, maps))


def _entry_count(f: Morphism, i: GridInterval, j: GridInterval) -> int:
    """Bar count of the comparison module: its dimension at the shared death."""
    k = i.intersect(j)
    if k is None:
        return 0
    yp = y_plus(f, i, j, k.b)
    ym = y_minus(f, i, j, k.b)
    return yp.dim - gf.intersect(ym, yp).dim


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
    """Counting matching: entry (I, J) is the number of comparison bars."""
    b_src = barcode(f.source)
    b_dst = barcode(f.target)
    entries: dict[tuple[GridInterval, GridInterval], int] = {}
    for i in b_src.intervals():
        for j in b_dst.intervals():
            c = _entry_count(f, i, j)
            if c:
                entries[(i, j)] = c
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
            raise AssertionError(f"bar count of ({i},{j}) disagrees with m")
        if any(iv.b != x.support.b for iv in bars.intervals()):
            raise AssertionError(f"a bar of ({i},{j}) misses the shared death")
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
