"""Partial matchings induced by a morphism between persistence modules.

For every pair of bars (I, J) of the source and target barcodes, the
morphism squeezes a comparison module out of the target along the
overlap K = I n J: an upper space y_plus (what the I-part of the source
hits inside the J-part of the target) over a lower space y_minus (what
longer bars on either side already explain), whose referees are
oracle.y_plus and oracle.y_minus.  Its dimension at K.b is the entry of
the counting matching (m_table), and its barcode the entry of the
persistence-valued one (g_table).  Both tables take f's basis matrix M
alone (modules.py Claim M1) and read the two barcodes off its columns
and rows: m_matching and g_matching pass f's M, and the CLI passes f's
or its shift (BasisMatrix.shift).

Notation.  Fix (I, J) and t in K.  Among M's columns alive at t, P are
the src_plus(I) ones (g.a <= I.a and g.b <= I.b), S those of P but I's
own (src_minus), and E those with g.a < I.a.  Among M's rows, own are
J's own generators, tgt_plus(J) those with h.a <= J.a and h.b <= J.b,
and off = _off_plus(J, t) those alive at t outside tgt_plus(J).  A_own
and A_off are a column set A on own and on off.

Claim T1 (zero off the hom pairs).  Unless hom_exists(I, J), that is
J.a <= I.a <= J.b <= I.b, the comparison module of (I, J) is zero.
Proof.  Disjoint bars have no overlap.  Otherwise I.a < J.a or
I.b < J.b; let t = K.b, V the source and W the target.
  - I.a < J.a: v_plus_src(I, t) lies in im(V(I.a) -> V(t)), inside
    im(V(J.a-1) -> V(t)), so naturality puts f of it in
    im(W(J.a-1) -> W(t)) = im_minus(J, t).  Since v_plus_tgt(J, t) lies
    in ker_plus(J, t), y_plus lies in im_minus n ker_plus, which is
    inside v_minus_tgt and so y_minus.
  - I.b < J.b: here t = I.b, and naturality sends v_plus_src(I, t),
    which dies at I.b + 1, into ker(W(t) -> W(I.b+1)), which lies in
    ker(W(t) -> W(J.b)) = ker_minus(J, t).  Since v_plus_tgt(J, t) lies
    in im_plus(J, t), y_plus lies in im_plus n ker_minus, inside
    v_minus_tgt and so y_minus.
So the module is 0 at K.b, and so everywhere (Claim T11).

Claim T2 (the y spaces are column sets of M).  In the target generators
alive at t, with the rows of v_minus_tgt(J) dropped, y_plus(t) is
spanned by P ker P_off, which is zero on off, and y_minus(t) by S and by
E ker E_off, which is zero on off too; both live on the rows own + off.
Every dimension a table takes over y_minus is the same with those rows
dropped.
Proof.  f_t is M on the generators alive at t (Claim M1), and v_plus,
v_minus and im_minus are spans of generators (oracle.py Claim O1): of
the source's, so f of them is spanned by P, S and E, and of the
target's, so v_plus_tgt(J) is the coordinate subspace of tgt_plus(J),
whose vectors are those zero on off, and v_minus_tgt(J) that of
tgt_plus(J) less own.  v_minus_tgt(J) lies in y_minus, so dropping its
rows, a quotient by it, changes no dimension taken over y_minus.  A row
born after t is zero on every column alive at t (Claim M1), so off may
hold the rows not dead by t, as _off_plus does.

Claim T3 (two rank identities).
  (a) dim A(ker B) = rk [A; B] - rk B for A and B on the same columns.
  (b) For a column set A and a space W of vectors zero on off,
      dim (span A + W) = rk A_off + dim (W + A_own ker A_off).
Proof.  (a): the image of x -> (Ax, Bx) projects onto im B with kernel
A(ker B).  (b): project span A + W onto the off rows; the image is
im A_off and the kernel is W + A ker A_off, zero on off.

Claim T4 (the count).  Let c(t) = dim (y_minus + y_plus) - dim y_minus
at t, the m entry at t = K.b; L_A = E_own ker E_off + A_own ker A_off,
on J's own rows; and Q_A = [[E_own, A_own], [E_off, 0], [0, A_off]].
Then c(t) = dim L_P - dim L_S, and dim L_A = rk Q_A - rk E_off - rk A_off.
Proof.  By Claim T2, and by Claim T3 (b) with A = S and W the rest,
dim y_minus = rk S_off + dim L_S and, as S lies in P,
dim (y_minus + y_plus) = rk S_off + dim L_P.  L_A is [E_own, A_own] on ker [[E_off, 0], [0, A_off]],
so Claim T3 (a) gives dim L_A.

Claim T5 (one reduction per start).  Let X be the columns alive at t
with g.a <= I.a, ordered by g.b with the g.a = I.a ones last among equal
g.b, and Q = Q_X with E's columns first.  After one gf.low_reduce of Q,
c(t) is the number of I's own columns whose low is an own row, and the
own parts of the reduced columns of Q's prefix [E, S] whose low is an
own row are a basis, lower, of L_S.  E, own and off do not depend on
I.b, so one reduction counts every I of the start I.a against J.
Proof.  S and P are prefixes of X (g.b <= I.b, I's own columns ending
P), so Q_S and Q_P are prefixes of Q, whose off rows are all of Q's rows
below own.  By Claim G1 (gf.low_reduce), rk Q_A counts the nonzero
reduced columns of its prefix and rk E_off + rk A_off those with a low
below own, so dim L_A (Claim T4) counts the columns of its prefix with
an own low, and c(t) = dim L_P - dim L_S counts I's own columns with
one.  The reduced columns of [E, S] with an own low are combinations of
Q_S's columns zero on off, so their own parts lie in L_S; those have
distinct lows, so they are independent, and there are dim L_S of them.

Claim T6 (one block at a time).  Let BasisMatrix.blocks split M into the
connected components of its nonzero entries, with the generators of an
all-zero row or column as summands of their own.  An entry is the sum
of the counts of the blocks that hold both of its bars, and a
comparison module the direct sum of theirs.
Proof.  Every space an entry uses is a span of M-columns, a coordinate
subspace, or a meet or sum of these (Claim T2), and M is block diagonal
under the partition, so each such space is the direct sum of its parts
in the blocks, and so are the quotients by coordinate rows a count
takes: rank counts add over the blocks.  A block with no I-generator
counts 0 for (I, J), as its src_minus is its src_plus, so its y_minus
holds its y_plus; so does one with no J-generator, as its tgt_minus is
its tgt_plus, which holds its y_plus.

Claim T12 (a start that spans J's own rows).  In one block, at t = J.b,
let the reduction of Q for the start a0 (Claim T5) end with an own low
in every own row.  Then c(t) = 0 for every source bar I alive at t with
I.a > a0.
Proof.  Own lows are distinct rows, so Q has |own| columns with an own
low, and by Claim T5, with Q = Q_X, dim L_X = |own|: L_X is all of J's
own rows.  As E lies in X and a vector of ker E_off, padded with zeros,
lies in ker X_off, L_X = X_own ker X_off.  For I.a > a0 at the same t,
own and off are the same, and E, the columns alive at t with g.a < I.a,
holds X of a0, those with g.a <= a0; padding again, L_S and L_P of I
hold X_own ker X_off, so both are all of J's own rows and c(t) =
dim L_P - dim L_S = 0 (Claim T4).  The column sets are masks of the
bars, so this holds for M's columns in any order.

The walk along K, which reads the rest of the g entry, has its claims
(Claim T7 to Claim T11) in _comparison_dims.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

import numpy as np

from . import gf
from .modules import (
    Barcode,
    BasisMatrix,
    GridInterval,
    InvariantError,
    Morphism,
    basis_matrix,
    hom_exists,
    interval_sort_key,
)


def _off_plus(bm: BasisMatrix, j: GridInterval, t: int) -> np.ndarray:
    """The rows alive at t outside tgt_plus(J), as the rows not dead by t
    (Claim T2)."""
    return (bm.tgt_b >= t) & ((bm.tgt_a > j.a) | (bm.tgt_b > j.b))


def _reduce(bm: BasisMatrix, j: GridInterval, a: int,
            t: int) -> tuple[dict[int, tuple[int, np.ndarray]], bool]:
    """Q of the sources starting at a against J at t, reduced by
    gf.low_reduce.  For each source bar [a, b] alive at t, by b: its m
    entry, and lower, the transpose of the basis of L_S on J's own rows
    that Q's prefix [E, S] holds (Claim T5); and whether every own row
    holds an own low, so that Q spans J's own rows (Claim T12)."""
    alive = bm.src_b >= t
    e = (alive & (bm.src_a < a)).nonzero()[0]
    x = (alive & (bm.src_a <= a)).nonzero()[0]
    x = x[np.lexsort((bm.src_a[x] == a, bm.src_b[x]))]
    own = bm.m.T[:, (bm.tgt_a == j.a) & (bm.tgt_b == j.b)]
    off = bm.m.T[:, _off_plus(bm, j, t)]
    no, nf, ne = own.shape[1], off.shape[1], len(e)
    qt = gf.zeros(ne + len(x), no + 2 * nf)  # one row per column of Q
    qt[:ne, :no], qt[ne:, :no] = own[e], own[x]
    qt[:ne, no : no + nf], qt[ne:, no + nf :] = off[e], off[x]
    lows = gf.low_reduce(qt, bm.p)
    in_own = ((lows >= 0) & (lows < no)).tolist()
    lower = qt[in_own, :no]
    k = sum(in_own[:ne])  # the columns with an own low before the current one
    spans: dict[int, list[int]] = {}  # b -> k at [a, b]'s first column, and past its last
    for ga, gb, own_low in zip(bm.src_a[x].tolist(), bm.src_b[x].tolist(), in_own[ne:]):
        if ga == a:
            spans.setdefault(gb, [k, k])[1] += own_low
        k += own_low
    return {b: (end - start, lower[:start]) for b, (start, end) in spans.items()}, k == no


class _Walk(NamedTuple):
    """The two reductions a walk of (I, J) reads every step t < K.b off
    (_walk_reduce, Claim T8), and the deaths that cut P_t and off_t out of
    them at each t (_prefixes)."""

    dies: np.ndarray  # the deaths of P's columns, latest first
    off_dies: np.ndarray  # the deaths of off's rows, earliest first
    k: int  # the number of lower's columns
    lows_a: np.ndarray  # A's lows
    lows_b: np.ndarray  # B's lows


def _walk_reduce(bm: BasisMatrix, i: GridInterval, j: GridInterval, lower: np.ndarray) -> _Walk:
    """The reductions of A = [[0, P_off], [lower, P_own]] (rows off, then
    J's own) and B = P_off by gf.low_reduce (Claim T8), lower from _reduce,
    P the src_plus(I) columns alive at K.a, latest death first, and off
    the rows of _off_plus at K.a, earliest death first.  _comparison_dims
    makes it only for a pair whose overlap loses a row of off (Claim T10)."""
    ka = max(i.a, j.a)
    cols = ((bm.src_a <= i.a) & (bm.src_b <= i.b) & (bm.src_b >= ka)).nonzero()[0]
    cols = cols[np.argsort(-bm.src_b[cols], kind="stable")]
    off = _off_plus(bm, j, ka).nonzero()[0]
    off = off[np.argsort(bm.tgt_b[off], kind="stable")]
    plus = bm.m[:, cols]
    p_off = plus[off].T  # one row per column of P
    p_own = plus[(bm.tgt_a == j.a) & (bm.tgt_b == j.b)].T
    k, nf = len(lower), len(off)
    at = gf.zeros(k + len(cols), nf + p_own.shape[1])  # one row per column of A
    at[:k, nf:], at[k:, :nf], at[k:, nf:] = lower, p_off, p_own
    return _Walk(bm.src_b[cols], bm.tgt_b[off], k,
                 gf.low_reduce(at, bm.p), gf.low_reduce(p_off, bm.p))


def _prefixes(walk: _Walk, t: int) -> tuple[int, int]:
    """n = |P_t|, and f, the index in off where _off_plus at t starts."""
    return int(np.count_nonzero(walk.dies >= t)), int(np.count_nonzero(walk.off_dies < t))


def _dim_at(walk: _Walk, n: int, f: int) -> int:
    """dims[t] = rkA(t) - k - rkB(t) (Claim T8; n and f from _prefixes)."""
    return (int(np.count_nonzero(walk.lows_a[: walk.k + n] >= f)) - walk.k
            - int(np.count_nonzero(walk.lows_b[:n] >= f)))


def _comparison_dims(bm: BasisMatrix, i: GridInterval, j: GridInterval, entry: int,
                     lower: np.ndarray) -> list[int]:
    """The dimensions of the comparison module of (I, J) along the overlap
    K = I n J, read off M, from t = K.b leftward to K.a: entry, the m
    entry, then the rest.  entry and lower are what _reduce(bm, J, I.a,
    K.b) gives I.b; the g table walks only the pairs whose entry is
    nonzero (Claim T11).

    The module is big_t / small_t with the maps W_t induces, where
    big_t = y_plus(t), small at K.b is big n y_minus(K.b), and walking
    left small_t = big_t n W_t^-1(small_{t+1}).  Let C_t : W(t) -> W(K.b)
    be the composite of structure maps.  P_t are the src_plus(I) columns
    alive at t, off_t = _off_plus at t, and upper_t = P_t ker P_t off_t,
    y_plus at t (Claim T2).  As M is on its support, which a BasisMatrix
    is by construction, W_t carries upper_t into upper_{t+1} (Claim T9),
    on which the walk rests (Claim T7), and only a pair whose overlap
    loses a row of off walks (Claim T10).  Each step left to t from t+1
    checks, naming the pair and t+1, that the dims do not fall toward K.b
    (Claim T11): given the containment the carried spaces are nested, so
    this guards _dim_at.

    Claim T7 (the walk telescopes).  If W_t carries big_t into big_{t+1}
    for every t < K.b, the module is injective and
    dims[t] = dim (C_t big_t + y_minus) - dim y_minus at K.b.
    Proof.  The induced map big_t / small_t -> big_{t+1} / small_{t+1} is
    well defined when W_t carries big into big and small into small; the
    second holds by the definition of small_t, which also makes the
    kernel of the induced map small_t / small_t = 0.  C_t then carries
    big_t into big at K.b, and the walk telescopes to
    small_t = big_t n C_t^-1(small at K.b) = big_t n C_t^-1(y_minus(K.b)),
    the kernel of big_t -> W(K.b) / y_minus.

    Claim T8 (two reductions read the walk).  Let lower, of k columns, be
    the basis of L_S at K.b (Claim T5).  Order P = P_{K.a} by death with
    the latest first and off = off_{K.a} by death with the earliest
    first, so that P_t is a prefix of P and off_t a suffix of off.
    gf.low_reduce reduces A = [[0, P_off], [lower, P_own]], rows off then
    own, and B = P_off.  Let rkA(t) be the number of lows among A's first
    k + |P_t| columns in its rows from off_t down, and rkB(t) that among
    B's first |P_t| columns inside off_t.  Then
    dims[t] = rkA(t) - k - rkB(t) for t < K.b.
    Proof.  C_t selects rows in M's one generator index: it keeps the
    rows alive at t and at K.b, and a row born after t gets 0, which M
    already is on every column alive at t (Claim M1).  So C_t big_t is
    upper_t on the rows not dead by K.b.  upper_t is zero on off_t, which
    holds off at K.b, so Claim T3 (b), as in Claim T4, gives
    dims[t] = dim (L_S + P_t own ker P_t off_t) - dim L_S, and with the
    basis lower of L_S, zero on off_t, Claim T3 (a) gives
    dims[t] = rk [[lower, P_t own], [0, P_t off_t]] - k - rk P_t off_t.
    Those two blocks are lower left in A and in B, so by Claim G1 their
    ranks are rkA(t) and rkB(t).

    Claim T9 (M's support carries y_plus).  On the step left to t-1 from
    t, W_{t-1} carries upper_{t-1} into upper_t.
    Proof.  Let D be the columns of P_{t-1} dying at t-1, the rest of it
    past its prefix P_t (Claim T8).  A nonzero M[h, g] has h.b <= g.b
    (Claim M1), which the BasisMatrix constructor enforces on every M, so
    D is zero on every row h with h.b > t-1, the rows alive at t.  Take x
    in ker P_{t-1} off_{t-1}, split into y on P_t and z on D, so
    P_{t-1} x = P_t y + D z.  W_{t-1} carries P_{t-1} x to its rows alive
    at t, those born at t being 0 in it (Claim M1), and there D z is 0, as
    D is, so it is P_t y there.  P_{t-1} x is zero on off_{t-1}, which
    holds every row alive at t off tgt_plus, since tgt_plus does not
    depend on t; so P_t y is zero on off_t, y lies in ker P_t off_t, and
    the carried vector lies in upper_t.

    Claim T10 (a walk that loses no row of off).  If no row of off dies
    at a t in [K.a, K.b) (K.a = K.b among them), then dims[t] = entry at
    every t of K, and a walk that reads no reduction skips no check that
    can fail.
    Proof.  A row of _off_plus at t not in _off_plus at K.b dies in
    [t, K.b), as K.b <= J.b leaves it h.a > J.a, so off_t is off at K.b
    at every t of K.  A column g of P_t not in P_{K.b} dies in [t, K.b),
    so it is zero on every row h with h.b > g.b (Claim M1), J's own rows
    (J.b >= K.b) and the rows of off_t (h.b >= K.b) among them.  So such
    columns add nothing to P_t own ker P_t off_t, which is P own ker P off
    at K.b, and dims[t] = dim (L_S + P own ker P off) - dim L_S, which is
    dim L_P - dim L_S as S lies in P: by Claim T4, the m entry.  The check
    that the dims do not fall would compare equal counts.

    Claim T11 (the bars of an injective module zero after K.b).  A module
    zero outside K whose maps along K are injective has nondecreasing
    dims along K, and all its bars die at K.b, dims[s] - dims[s-1] of them
    born at s.  So a zero dim at K.b makes the module zero.
    Proof.  A bar that died at t < K.b would hold a nonzero vector at t
    that W_t sends to 0, against injectivity.  So every bar alive at s-1
    is alive at s, and the bars born at s number dims[s] - dims[s-1].
    """
    ka, kb = max(i.a, j.a), min(i.b, j.b)
    if not ((bm.tgt_a > j.a) & (bm.tgt_b >= ka) & (bm.tgt_b < kb)).any():
        return [entry] * (kb - ka + 1)  # no row of off dies in K (Claim T10)
    walk = _walk_reduce(bm, i, j, lower)
    dims = [entry]
    for t in range(kb - 1, ka - 1, -1):
        d = _dim_at(walk, *_prefixes(walk, t))
        if d > dims[-1]:
            raise InvariantError(f"comparison module of ({i},{j}) shrinks from"
                                 f" {d} to {dims[-1]} at t={t + 1}")
        dims.append(d)
    return dims


def _overlap_bars(k: GridInterval, dims: list[int]) -> Barcode:
    """d_s - d_{s-1} bars [s, K.b] at each s of K (Claim T11), with
    d_{K.a - 1} = 0, off dims = [d_{K.b}, ..., d_{K.a}], as
    _comparison_dims returns them."""
    return Barcode({GridInterval(k.b - s, k.b): d - e
                    for s, (d, e) in enumerate(zip(dims, dims[1:] + [0]))})


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


def _pairs(bm: BasisMatrix):
    """(block, I, J, entry, lower) for the hom_exists pairs (Claim T1) of
    each block of bm (Claim T6): the m entry of the block's part of the
    pair and the lower a walk of it starts from, off one _reduce per
    (J, I.a) of the block (Claim T5).  A hom pair overlaps and J ends
    first, so each is counted at J.b.  Once a start's reduction spans J's
    own rows, every later start of the block counts 0 against J, with no
    reduction and lower None (Claim T12); a smaller start reached later is
    still reduced, so the columns may come in any order.
    """
    for block in bm.blocks():
        targets = _bars(block.tgt_a, block.tgt_b)
        reductions = {}
        filled: dict[GridInterval, int] = {}  # J -> the least spanning start reached
        for i in _bars(block.src_a, block.src_b):
            for j in targets:
                if hom_exists(i, j):
                    if i.a > filled.get(j, i.a):
                        yield block, i, j, 0, None
                        continue
                    if (j, i.a) not in reductions:
                        reductions[j, i.a], spans = _reduce(block, j, i.a, j.b)
                        if spans:
                            filled[j] = i.a
                    yield block, i, j, *reductions[j, i.a][i.b]


def m_matching(f: Morphism) -> MMatchingTable:
    """Counting matching of f: m_table of its M."""
    return m_table(basis_matrix(f))


def m_table(bm: BasisMatrix) -> MMatchingTable:
    """Counting matching of the morphism whose M is bm: entry (I, J) is
    the dimension of the comparison module at the right end of I n J;
    M's bars bound its row and column sums.  Only the hom_exists pairs
    are counted, as every other entry is 0 (Claim T1), one block of M at a
    time and summed (Claim T6).
    """
    counts: Counter = Counter()
    for _, i, j, entry, _ in _pairs(bm):
        counts[(i, j)] += entry
    _check_table_bounds(counts, *bm.barcodes, InvariantError)
    return MMatchingTable(counts)


def g_matching(f: Morphism) -> GMatchingTable:
    """Barcode-valued matching of f: g_table of its M."""
    return g_table(basis_matrix(f))


def g_table(bm: BasisMatrix) -> GMatchingTable:
    """Barcode-valued matching of the morphism whose M is bm: entry (I, J)
    is the barcode of the comparison module, every bar of which dies at
    the right end of I n J (Claim T11).

    Read one block of M at a time: the comparison module of (I, J) is the
    direct sum of those of the blocks holding both bars (Claim T6), so its
    barcode is the union of theirs.  A zero m entry forces the module to
    zero (Claim T11), so only the pairs with a nonzero one walk along the
    overlap; M's bars bound the summed counts.
    """
    counts: Counter = Counter()
    entries: dict[tuple[GridInterval, GridInterval], Barcode] = {}
    for block, i, j, entry, lower in _pairs(bm):
        if entry:
            counts[(i, j)] += entry
            bars = _overlap_bars(i.intersect(j), _comparison_dims(block, i, j, entry, lower))
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
