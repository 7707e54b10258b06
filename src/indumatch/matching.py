"""Partial matchings induced by a morphism between persistence modules.

For every pair of bars (I, J) of the source and target barcodes, the
morphism squeezes a comparison module out of the target: an upper space
y_plus (what the I-part of the source hits inside the J-part of the
target) and a lower space y_minus (what is already explained by longer
bars on either side).  The comparison module is injective and zero off
the overlap K = I n J, so all of its bars die at K.b and it is fixed by
its dimensions along K: its barcode is the table entry of the
persistence-valued matching, and its dimension at K.b the entry of the
counting matching.  Both tables are linear under direct sums of
morphisms.

f is read off the persistence bases of its two ends as one matrix M
(see the proof block in modules.py): f_t between the generators alive
at t is M on their rows and columns, so the y spaces at t are meets and
sums of column sets of M and coordinate subspaces, read on the rows
alive at t.  Every step reads M itself, masked by its generators' bars,
in M's one generator index.  The target's structure maps are 0/1
selections of those generators, so carrying a vector from t to a later
position keeps its rows still alive there, and each dimension of a
comparison module is the rank count of an entry, on columns of M.  So
the tables (m_table, g_table) take M alone, and read the two barcodes
off its rows and columns: m_matching and g_matching pass f's, and the
CLI passes f's or that of its shift (BasisMatrix.shift).  Their referee,
the y spaces as pushed subspaces of W(t), is in oracle.py.

One walk computes a comparison module's dimensions: it starts at K.b
and steps leftward along K, so its first value is the m entry and the
rest make up the g entry.  The m table takes that first value of each
pair; the g table also takes the rest, for the pairs whose first value
is nonzero (a zero there forces the whole module to zero); x_module
takes the whole walk.  The walk is lazy, so the checks between t and
t+1 run exactly on the steps a table consumes.

Both tables are read one block of M at a time (BasisMatrix.blocks: the
connected components of its nonzero entries), and this is exact by
elementary linear algebra, with no appeal to linearity of the tables.
Every space an entry uses is a span of M-columns, a coordinate subspace,
or a meet or sum of these.  Under the partition of the generators into
blocks, with the generators of an all-zero row or column as summands of
their own, M is block diagonal, so each such space is the direct sum of
its parts in the blocks, and so are the quotients by coordinate rows
that a count takes: pivot counts add over the blocks.
A block with no I-generator counts 0 for (I, J), as its src_minus is its
src_plus, so lower spans upper; so does one with no J-generator, as its
tgt_minus is its tgt_plus, which holds upper.  So an entry is the sum of
the counts of the blocks holding both of its bars, and a comparison
module is the direct sum of theirs, its dims the sums of theirs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import gf
from .modules import (
    Barcode,
    BasisMatrix,
    GridInterval,
    InvariantError,
    Morphism,
    PersistenceModule,
    hom_exists,
    interval_sort_key,
    module_from_bars,
    basis_matrix,
    zero_module,
)


def _off_plus(bm: BasisMatrix, j: GridInterval, t: int) -> np.ndarray:
    """The rows alive at t outside tgt_plus(J).  A row not dead by t stands
    in for one alive at t: a row born after t is zero on every column
    alive at t, as a nonzero M[h, g] has h.a <= g.a."""
    return (bm.tgt_b >= t) & ((bm.tgt_a > j.a) | (bm.tgt_b > j.b))


def _plus(bm: BasisMatrix, i: GridInterval, j: GridInterval, t: int):
    """The mask of the src_plus(I) generators alive at t, their columns P
    of M, and columns N spanning the null space of P on _off_plus: y_plus
    at t is spanned by P N on the rows alive at t."""
    cols = (bm.src_a <= i.a) & (bm.src_b <= i.b) & (bm.src_b >= t)
    plus = bm.m[:, cols]
    return cols, plus, gf.null_basis(plus[_off_plus(bm, j, t)], bm.p)


def _lower(bm: BasisMatrix, i: GridInterval, j: GridInterval, t: int):
    """Columns of M spanning y_minus at t off the v_minus_tgt(J) rows, and
    the rows a count at t drops: all but _off_plus and J's own, so for
    t <= J.b the v_minus_tgt(J) rows and the rows dead by t."""
    alive = bm.src_b >= t  # every column read here has src_a <= I.a <= t
    off = _off_plus(bm, j, t)
    early = bm.m[:, alive & (bm.src_a < i.a)]
    early = gf.matmul(early, gf.null_basis(early[off], bm.p), bm.p)
    src_minus = (alive & (bm.src_a <= i.a) & (bm.src_b <= i.b)
                 & ((bm.src_a < i.a) | (bm.src_b < i.b)))
    own = (bm.tgt_a == j.a) & (bm.tgt_b == j.b)
    return np.hstack([bm.m[:, src_minus], early]), ~(off | own)


def _count(upper: np.ndarray, lower: np.ndarray, rows: np.ndarray, p: int) -> int:
    """dim (span lower + span upper) - dim span lower, modulo the coordinate
    vectors of rows: the pivots of one rref of [lower | upper] off rows
    that fall in upper."""
    _, pivots = gf.rref(np.hstack([lower, upper])[~rows], p)
    return sum(c >= lower.shape[1] for c in pivots)


def _comparison_dims(bm: BasisMatrix, i: GridInterval, j: GridInterval):
    """The dimensions of the comparison module of (I, J) along the overlap
    K = I n J, read off M: a generator that yields them from t = K.b
    leftward to K.a, so its first value is the m entry.

    The module is big_t / small_t with the maps W_t induces, where
    big_t = y_plus(t), small at K.b is big n y_minus(K.b), and walking
    left small_t = big_t n W_t^-1(small_{t+1}).  Let C_t : W(t) -> W(K.b)
    be the composite of structure maps.  If W_t(big_t) lies in big_{t+1}
    for every t < K.b, then C_t(big_t) lies in big at K.b and the walk
    telescopes to small_t = big_t n C_t^-1(small at K.b)
    = big_t n C_t^-1(y_minus(K.b)), the kernel of big_t -> W(K.b) / y_minus.
    So dims[t] = dim (C_t big_t + y_minus) - dim y_minus at K.b.

    Every space is a set of columns of M, read on the rows of the target
    generators alive at its t (_plus, _lower): one generator index, so
    C_t is row selection.  It keeps the rows alive at t and at K.b, and a
    row born after t gets 0, which M already is on every column alive at
    t (a nonzero M[h, g] has h.a <= g.a <= t).  So C_t upper_t is upper_t
    on the rows not dead by K.b.  y_minus at K.b is spanned by the
    columns of _lower and the coordinate vectors of the v_minus_tgt(J)
    rows, and _lower also drops the rows dead by K.b, so dims[t] is
    _count on [lower | upper_t] with the rows _lower names dropped, and
    at K.b that is the m entry.  lower is built on first need: an
    upper_t zero on the rows alive at t counts 0 without it.

    Checks, each naming the pair and t (InvariantError), made on the step
    left to t-1 from t, so a consumer that stops after the first value
    makes none and one that reads the whole walk makes all of them:
      - W_t(span upper_t) lies in span upper_{t+1}.  The induced map
        big_t / small_t -> big_{t+1} / small_{t+1} is well defined when W_t
        carries big into big and small into small; the second holds by the
        definition of small_t, which also makes the kernel of the induced
        map small_t / small_t = 0.  So the module is injective, which is
        what a rank check on its maps would test, exactly when this
        containment holds, and the telescoping above rests on it too.
      - dims nondecreasing along K, as an injective module's are.  Given
        the containment the carried spans are nested, so this guards
        _count.
    The containment is checked with a witness, one product and no solve.
    upper_{t-1} = P_{t-1} N_{t-1} (_plus); the columns of P_t are those
    of P_{t-1} still alive at t, so let y be their rows of N_{t-1} and D
    the rest of P_{t-1}, the columns dying at t-1.  W_{t-1} carries
    upper_{t-1} to its rows alive at t, those born at t being 0 in it as
    above.  That carried upper_{t-1} is zero off tgt_plus: upper_{t-1} is
    zero on _off_plus at t-1, which holds every row alive at t off
    tgt_plus, since tgt_plus does not depend on t.  So if P_t y equals
    upper_{t-1} on the rows alive at t, P_t y is zero on _off_plus at t,
    y lies in the null space N_t spans, and the carried upper_{t-1} lies
    in span upper_t.  By M's support the equation holds: the two sides
    differ by D times the other rows of N_{t-1}, and a column dying at
    t-1 is zero on every row alive at t (a nonzero M[h, g] has
    h.b <= g.b).  _check_support enforces that support on every M built
    from a morphism or a shift, so a failing witness means an M off its
    support, and it raises.
    An injective module zero after K.b has all its bars die at K.b, and
    dims[s] - dims[s-1] of them are born at s (see _overlap_bars).
    """
    ka, kb = max(i.a, j.a), min(i.b, j.b)
    lower = None  # _lower at K.b, built on first need
    plus_l = d_l = None  # P_{t+1} and dims[t+1]
    for t in range(kb, ka - 1, -1):
        cols, plus, null = _plus(bm, i, j, t)
        upper = gf.matmul(plus, null, bm.p)
        d = 0
        if upper[bm.tgt_b >= t].any():
            if plus_l is not None:
                y = null[bm.src_b[cols] > t]  # the witness
                later = bm.tgt_b > t  # the rows alive at t+1
                if not np.array_equal(gf.matmul(plus_l[later], y, bm.p), upper[later]):
                    raise InvariantError(f"W_{t} carries y_plus of ({i},{j}) at"
                                         f" t={t} out of y_plus at t={t + 1}")
            if lower is None:
                lower = _lower(bm, i, j, kb)
            d = _count(upper, *lower, bm.p)
        if plus_l is not None and d > d_l:
            raise InvariantError(f"comparison module of ({i},{j}) shrinks from"
                                 f" {d} to {d_l} at t={t + 1}")
        yield d
        plus_l, d_l = plus, d


def _overlap_bars(k: GridInterval, dims: list[int]) -> Barcode:
    """d_s - d_{s-1} bars [s, K.b] at each s of K, with d_{K.a - 1} = 0, off
    dims = [d_{K.b}, ..., d_{K.a}], as _comparison_dims yields them."""
    return Barcode({GridInterval(k.b - s, k.b): d - e
                    for s, (d, e) in enumerate(zip(dims, dims[1:] + [0]))})


@dataclass(frozen=True)
class XModule:
    """Comparison module for a bar pair; zero off the overlap."""

    support: GridInterval | None
    module: PersistenceModule


def x_module(f: Morphism, i: GridInterval, j: GridInterval) -> XModule:
    """The comparison module of (I, J) on the full grid, as the direct sum
    of its bars, which all die at the right end of the overlap."""
    support = i.intersect(j)
    if support is None:
        return XModule(None, zero_module(f.n, f.p))
    bars = _overlap_bars(support, list(_comparison_dims(basis_matrix(f), i, j)))
    return XModule(support, module_from_bars(f.n, f.p, [iv for iv, _ in bars.rep()]))


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


def _check_table_bounds(counts: dict, b_src: Barcode, b_dst: Barcode, error=ValueError):
    """Row and column sums of the counts stay within the multiplicities;
    error is raised otherwise: InvariantError for a table computed here."""
    for side, bars, k in (("row", b_src, 0), ("column", b_dst, 1)):
        sums: Counter = Counter()
        for pair, c in counts.items():
            sums[pair[k]] += c
        for iv, total in sums.items():
            if total > bars.mult(iv):
                raise error(f"{side} sum {total} exceeds multiplicity of {iv}")


def _bars(starts: np.ndarray, ends: np.ndarray) -> list[GridInterval]:
    """The distinct intervals of some generators, in basis order."""
    return [GridInterval(a, b) for a, b in dict.fromkeys(zip(starts.tolist(), ends.tolist()))]


def _walks(bm: BasisMatrix):
    """(I, J, walk) for the hom_exists pairs of each block of bm, walk the
    _comparison_dims of the block's part of the pair.

    A hom pair overlaps and J ends first, so each walk starts at J.b.
    """
    for block in bm.blocks():
        targets = _bars(block.tgt_a, block.tgt_b)
        for i in _bars(block.src_a, block.src_b):
            for j in targets:
                if hom_exists(i, j):
                    yield i, j, _comparison_dims(block, i, j)


def m_matching(f: Morphism) -> MMatchingTable:
    """Counting matching of f: m_table of its M."""
    return m_table(basis_matrix(f))


def m_table(bm: BasisMatrix) -> MMatchingTable:
    """Counting matching of the morphism whose M is bm: entry (I, J) is
    the number of comparison bars; M's bars bound its row and column sums.

    Read one block of M at a time and summed (see the module docstring):
    within a block only the pairs of its own bars are counted.

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
    counts: Counter = Counter()
    for i, j, walk in _walks(bm):
        counts[(i, j)] += next(walk)
    _check_table_bounds(counts, *bm.barcodes, InvariantError)
    return MMatchingTable(counts)


def g_matching(f: Morphism) -> GMatchingTable:
    """Barcode-valued matching of f: g_table of its M."""
    return g_table(basis_matrix(f))


def g_table(bm: BasisMatrix) -> GMatchingTable:
    """Barcode-valued matching of the morphism whose M is bm: entry (I, J)
    is the barcode of the comparison module, every bar of which dies at
    the right end of I n J.

    Read one block of M at a time (see the module docstring): the
    comparison module of (I, J) is the direct sum of those of the blocks
    holding both bars, so its barcode is the union of theirs.  Within a
    block, the module's dimensions are nondecreasing toward the shared
    death, so a zero first value of the walk, the count at K.b, forces
    the whole module to zero, and only the nonzero ones walk on along
    the overlap; M's bars bound the summed counts.
    """
    counts: Counter = Counter()
    entries: dict[tuple[GridInterval, GridInterval], Barcode] = {}
    for i, j, walk in _walks(bm):
        dims = [next(walk)]
        if dims[0]:
            dims += walk
            counts[(i, j)] += dims[0]
            bars = _overlap_bars(i.intersect(j), dims)
            entries[(i, j)] = entries.get((i, j), Barcode()).union(bars)
    _check_table_bounds(counts, *bm.barcodes, InvariantError)
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
    sources, targets = b_src.intervals(), b_dst.intervals()
    next_src = {i: 1 for i in sources}
    next_dst = {j: 1 for j in targets}
    pairs: dict[IndexedBar, IndexedBar] = {}
    for i in sources:
        for j in targets:
            for _ in range(table.get(i, j)):
                pairs[(i, next_src[i])] = (j, next_dst[j])
                next_src[i] += 1
                next_dst[j] += 1
    return RepMatching(pairs)
