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

A comparison module's dimension at K.b is the m entry, and its
dimensions along K make up the g entry.  One reduction per (J, I.a)
(_reduce), shared by every I of that start, gives each I its m entry
and the basis lower that a walk along K starts from, and the pair
iterator _pairs hands both to the tables.  The m table sums the entries
and walks nothing.  The g table walks from K.b leftward along K
(_comparison_dims) only the pairs with a nonzero entry, as a zero there
forces the whole module to zero, and the referee oracle.x_module builds
the module from its g entry.

The counts are ranks, read off one lowest-pivot reduction (gf.low_reduce).
Fix (I, J) and t in K, and let own be the rows of J's own generators and
off = _off_plus(J, t).  The rows alive at t outside R = own + off are
the v_minus_tgt(J) rows, whose coordinate vectors y_minus holds, so a
count drops them (and off's rows born after t are zero on every column
read at t).  Take the columns alive at t: P the src_plus(I) ones, S
those of P but I's own (src_minus), E those with g.a < I.a; A_own and
A_off are a column set A on own and on off.  Then
on R, y_plus is spanned by P ker P_off, which is zero on off, and
y_minus by S and E ker E_off, which is zero on off too.
  - dim A(ker B) = rk [A; B] - rk B for A and B on the same columns: the
    image of x -> (Ax, Bx) projects onto im B with kernel A(ker B).
  - For a column set A and a space W of vectors zero on off,
    dim (span A + W) = rk A_off + dim (W + A_own ker A_off): project onto
    the off rows; the image is im A_off and the kernel is the rest.  So
    with L_A = E_own ker E_off + A_own ker A_off, on J's own rows,
    dim y_minus = rk S_off + dim L_S and, as S lies in P,
    dim (y_minus + y_plus) = rk S_off + dim L_P: the entry is
    dim L_P - dim L_S.
  - Let Q_A = [[E_own, A_own], [E_off, 0], [0, A_off]].  By the first
    item, dim L_A = rk Q_A - rk E_off - rk A_off.
  - Let X be the columns alive at t with g.a <= I.a, ordered by g.b with
    the g.a = I.a ones last among equal g.b.  S and P are then prefixes of
    X (g.b <= I.b, with I's own columns ending P), so with E's columns
    first, Q_S and Q_P are prefixes of Q = Q_X, and their off rows are
    all of Q's rows below own.  By the pairing lemma on one reduction of
    Q, rk Q_A counts the nonzero columns of its prefix and
    rk E_off + rk A_off the lows below own there, so dim L_A counts its
    columns whose low is an own row, and the entry counts I's own columns
    whose low is an own row.  E, own and off do not depend on I.b, so one
    reduction of Q (_reduce) counts every I of the start I.a against J.
Away from K.b the comparison module's dims take y_minus at K.b and
y_plus at t, and they count the same way, each t off two more
reductions per pair (_walk_reduce; the proof is in _comparison_dims).
Order P, the src_plus(I) columns alive at K.a, by death with the latest
first, and off, the rows of _off_plus at K.a, by death with the earliest
first: the columns alive at t are a prefix P_t of P, and _off_plus at t
is a suffix off_t of off.  Let lower be the k reduced columns of Q's
prefix [E, S] whose low is an own row.  gf.low_reduce reduces
A = [[0, P_off], [lower, P_own]] (rows off, then own) and
B = [[1], [P_off]], and with rkA(t) the lows among A's first k + |P_t|
columns in its rows from off_t down and rkB(t) those among B's first
|P_t| columns inside off_t, dims[t] = rkA(t) - k - rkB(t).  The identity
parts of B's first |P_t| columns whose low lies above off_t are a basis
N_t of the null space of P_t on off_t, so y_plus at t is P_t N_t.  Each
of those identity parts is zero past its own index, so P_t N_t is a
column selection of one product U = P V per pair, V the reduced
identity part of B (kept transposed, one row per column): every step
reads y_plus off U, with no rref and no product.  The witness check of
the walk makes one product, and only at K.b - 1 and where a column of P
dies; at every other step it compares a block with itself.  The dims
can change only at a step where a column of P or a row of off dies, so
a pair whose overlap loses neither (K.a = K.b among them) has its m
entry at every t of K, and reads no reduction, no product and no
_src_plus: every count of its walk would read the blocks read at K.b,
and every check would compare a block with itself.

Both tables are read one block of M at a time (BasisMatrix.blocks: the
connected components of its nonzero entries), and this is exact by
elementary linear algebra, with no appeal to linearity of the tables.
Every space an entry uses is a span of M-columns, a coordinate subspace,
or a meet or sum of these.  Under the partition of the generators into
blocks, with the generators of an all-zero row or column as summands of
their own, M is block diagonal, so each such space is the direct sum of
its parts in the blocks, and so are the quotients by coordinate rows
that a count takes: rank counts add over the blocks.
A block with no I-generator counts 0 for (I, J), as its src_minus is its
src_plus, so lower spans upper; so does one with no J-generator, as its
tgt_minus is its tgt_plus, which holds upper.  So an entry is the sum of
the counts of the blocks holding both of its bars, and a comparison
module is the direct sum of theirs, its dims the sums of theirs.
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
    """The rows alive at t outside tgt_plus(J).  A row not dead by t stands
    in for one alive at t: a row born after t is zero on every column
    alive at t, as a nonzero M[h, g] has h.a <= g.a."""
    return (bm.tgt_b >= t) & ((bm.tgt_a > j.a) | (bm.tgt_b > j.b))


def _src_plus(bm: BasisMatrix, i: GridInterval, t: int):
    """The src_plus(I) generators alive at t, latest death first, and their
    columns P_t of M.  The sort is stable, so P_t at t is a prefix of P_s at
    every s <= t, in the same order."""
    cols = ((bm.src_a <= i.a) & (bm.src_b <= i.b) & (bm.src_b >= t)).nonzero()[0]
    cols = cols[np.argsort(-bm.src_b[cols], kind="stable")]
    return cols, bm.m[:, cols]


def _reduce(bm: BasisMatrix, j: GridInterval, a: int,
            t: int) -> dict[int, tuple[int, np.ndarray]]:
    """Q of the sources starting at a against J at t (see the module
    docstring), reduced by gf.low_reduce.  For each source bar [a, b]
    alive at t, by b: its m entry, the number of its own Q columns whose
    low is one of J's own rows, and lower, the transpose of the reduced
    columns before them (Q's prefix [E, S]) with such a low, on J's own
    rows: a basis of L_S."""
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
    return {b: (end - start, lower[:start]) for b, (start, end) in spans.items()}


class _Walk(NamedTuple):
    """The two reductions a walk of (I, J) reads every step t < K.b off
    (_walk_reduce)."""

    plus: np.ndarray  # P, the src_plus(I) columns alive at K.a, latest death first
    dies: np.ndarray  # the deaths of P's columns
    off_dies: np.ndarray  # the deaths of off's rows, earliest first
    k: int  # the number of lower's columns
    lows_a: np.ndarray  # A's lows
    lows_b: np.ndarray  # B's lows
    ident: np.ndarray  # B's reduced identity part, one row per column


def _walk_reduce(bm: BasisMatrix, i: GridInterval, j: GridInterval, lower: np.ndarray) -> _Walk:
    """The reductions of A = [[0, P_off], [lower, P_own]] (rows off, then
    J's own) and B = [[1], [P_off]] by gf.low_reduce, lower the transpose of
    a basis of L_S (_reduce), P _src_plus at K.a and off the rows of
    _off_plus at K.a, earliest death first: P_t is a prefix of P and
    _off_plus at t a suffix of off (see _comparison_dims)."""
    cols, plus = _src_plus(bm, i, max(i.a, j.a))
    off = _off_plus(bm, j, max(i.a, j.a)).nonzero()[0]
    off = off[np.argsort(bm.tgt_b[off], kind="stable")]
    p_off = plus[off].T  # one row per column of P
    p_own = plus[(bm.tgt_a == j.a) & (bm.tgt_b == j.b)].T
    k, nf, n = len(lower), len(off), len(cols)
    at = gf.zeros(k + n, nf + p_own.shape[1])  # one row per column of A
    at[:k, nf:], at[k:, :nf], at[k:, nf:] = lower, p_off, p_own
    bt = np.hstack([gf.identity(n), p_off])  # one row per column of B
    return _Walk(plus, bm.src_b[cols], bm.tgt_b[off], k,
                 gf.low_reduce(at, bm.p), gf.low_reduce(bt, bm.p), bt[:, :n])


def _prefixes(walk: _Walk, t: int) -> tuple[int, int]:
    """n = |P_t|, and f, the index in off where _off_plus at t starts."""
    return int(np.count_nonzero(walk.dies >= t)), int(np.count_nonzero(walk.off_dies < t))


def _null_cols(walk: _Walk, n: int, f: int) -> np.ndarray:
    """The indices of B's first n reduced columns whose low lies above
    _off_plus at t (n and f from _prefixes): their identity parts span
    N_t, the null space of P_t on that suffix of off."""
    return (walk.lows_b[:n] < len(walk.dies) + f).nonzero()[0]


def _dim_at(walk: _Walk, n: int, f: int) -> int:
    """dims[t] = rkA(t) - k - rkB(t) (n and f from _prefixes): the lows in
    A's rows from _off_plus at t down among its first k + n columns, less
    k, less the lows in that suffix of off among B's first n columns."""
    return (int(np.count_nonzero(walk.lows_a[: walk.k + n] >= f)) - walk.k
            - int(np.count_nonzero(walk.lows_b[:n] >= len(walk.dies) + f)))


def _comparison_dims(bm: BasisMatrix, i: GridInterval, j: GridInterval, entry: int,
                     lower: np.ndarray) -> list[int]:
    """The dimensions of the comparison module of (I, J) along the overlap
    K = I n J, read off M, from t = K.b leftward to K.a: entry, the m
    entry, then the rest.  entry and lower are what _reduce(bm, J, I.a,
    K.b) gives I.b; the g table walks only the pairs whose entry is
    nonzero.

    The module is big_t / small_t with the maps W_t induces, where
    big_t = y_plus(t), small at K.b is big n y_minus(K.b), and walking
    left small_t = big_t n W_t^-1(small_{t+1}).  Let C_t : W(t) -> W(K.b)
    be the composite of structure maps.  If W_t(big_t) lies in big_{t+1}
    for every t < K.b, then C_t(big_t) lies in big at K.b and the walk
    telescopes to small_t = big_t n C_t^-1(small at K.b)
    = big_t n C_t^-1(y_minus(K.b)), the kernel of big_t -> W(K.b) / y_minus.
    So dims[t] = dim (C_t big_t + y_minus) - dim y_minus at K.b.

    Every space is a set of columns of M, read on the rows of the target
    generators alive at its t: one generator index, so C_t is row
    selection.  It keeps the rows alive at t and at K.b, and a row born
    after t gets 0, which M already is on every column alive at t (a
    nonzero M[h, g] has h.a <= g.a <= t).  So C_t big_t is upper_t on the
    rows not dead by K.b, where upper_t = P_t N_t is y_plus at t: P_t the
    src_plus(I) columns alive at t (_src_plus), and N_t a basis of the
    null space of P_t off_t, their rows in off_t = _off_plus at t, which
    holds off at K.b.  The counts then follow the module docstring, with
    own, off, E and S at K.b and R the rows a count at K.b keeps:
      - dims[K.b], the m entry, counts I's own columns of Q whose low is
        an own row (_reduce).
      - For t < K.b, upper_t is zero on off_t, so on R it is
        P_t own ker P_t off_t on own, and by the second item of the module
        docstring dims[t] = dim (L_S + P_t own ker P_t off_t) - dim L_S.
        The reduced columns of Q's prefix [E, S] whose low is an own row
        are zero off own, so they lie in L_S, and they are independent and
        as many as dim L_S: they are a basis, lower, of k columns.  By the
        same item, with lower zero on off_t,
        dims[t] = rk [[lower, P_t own], [0, P_t off_t]] - k - rk P_t off_t.
    Two reductions per pair read these ranks at every t < K.b
    (_walk_reduce).  Order P = P_{K.a} latest death first and off =
    _off_plus at K.a earliest death first: P_t is a prefix of P and off_t
    a suffix of off.  On A = [[0, P off], [lower, P own]], rows off then
    own, the first rank is that of the lower-left block of A's first
    k + |P_t| columns and its rows from off_t down; on B = [[1], [P off]],
    the last is that of the block of B's first |P_t| columns on off_t.
    By the pairing lemma each is the number of lows in its block after
    one gf.low_reduce, rkA(t) and rkB(t), so dims[t] = rkA(t) - k - rkB(t)
    (_dim_at).  B reduces to B V with V upper unitriangular, so the
    identity part of its c-th reduced column is V's c-th column, zero past
    row c.  Among its first |P_t| columns, the |P_t| - rkB(t) whose low
    lies above off_t are zero on off_t, so their identity parts lie in
    ker P_t off_t, and they are independent: they are N_t (_null_cols).
    Each of them, V's c-th column for some c < |P_t|, is zero past row c,
    so P_t times it is P times it: upper_t is the columns _null_cols of
    one product U = P V, made once per pair (_Walk.ident holds V's
    columns as rows).
    A step whose upper_t is zero on the rows alive at t counts 0 and
    checks no witness.

    Checks, each naming the pair and t (InvariantError), made on each
    step left to t-1 from t:
      - W_t(span upper_t) lies in span upper_{t+1}.  The induced map
        big_t / small_t -> big_{t+1} / small_{t+1} is well defined when W_t
        carries big into big and small into small; the second holds by the
        definition of small_t, which also makes the kernel of the induced
        map small_t / small_t = 0.  So the module is injective, which is
        what a rank check on its maps would test, exactly when this
        containment holds, and the telescoping above rests on it too.
      - dims nondecreasing along K, as an injective module's are.  Given
        the containment the carried spans are nested, so this guards
        _dim_at.
    The containment is checked with a witness, one product and no solve.
    upper_{t-1} = P_{t-1} N_{t-1}; P_t is the prefix of P_{t-1} of the
    columns still alive at t (at K.b, read by _src_plus), so let y be the
    first |P_t| rows of N_{t-1} and D the rest of P_{t-1}, the columns
    dying at t-1.  W_{t-1} carries upper_{t-1} to its rows alive at t,
    those born at t being 0 in it as above.  That carried upper_{t-1} is
    zero off tgt_plus: upper_{t-1} is zero on _off_plus at t-1, which
    holds every row alive at t off tgt_plus, since tgt_plus does not
    depend on t.  So if P_t y equals upper_{t-1} on the rows alive at t,
    P_t y is zero on _off_plus at t, y lies in the null space N_t spans,
    and the carried upper_{t-1} lies in span upper_t.  By M's support the
    equation holds: the two sides differ by D times the other rows of
    N_{t-1}, and a column dying at t-1 is zero on every row alive at t (a
    nonzero M[h, g] has h.b <= g.b).  _check_support enforces that
    support on every M built from a morphism or a shift, so a failing
    witness means an M off its support, and it raises.
    The witness is made only where it can fail: on the step from K.b,
    where P_t at t = K.b is read on its own (_src_plus), and where a
    column dies at t-1, |P_t| < |P_{t-1}|.  On every other step
    P_t = P_{t-1}, so y is all of N_{t-1} and P_t y = upper_{t-1}: the
    product is the block it is compared with.
    A pair whose overlap loses no generator, that is, no column of P and
    no row of off dies at a t in [K.a, K.b) (K.a = K.b among them), has
    dims[t] = entry at every t of K, and reads no reduction, no product
    and no _src_plus:
      - P_t = P and off_t = off at every t of K, both as at K.b: a
        column of P read at t and not at K.b dies in [t, K.b), and so
        does a row of _off_plus at t not in _off_plus at K.b, as
        K.b <= J.b leaves it h.a > J.a.  So every count of the walk reads
        the same blocks, and dims[t] = dim (L_S + P own ker P off)
        - dim L_S, which is dim L_P - dim L_S as S lies in P: the m entry,
        by the second item of the module docstring.  This is linear
        algebra on M, so it holds on an M off its support too.
      - Where the entry is nonzero, upper_t = P N is nonzero on J's own
        rows, which are alive at every t <= K.b, so no step would take
        the zero branch; where it is 0, that branch and the count both
        give 0.
      - Every witness, the one at K.b - 1 included, would compare
        P_t y = P N with the block it is compared with, and the shrink
        check equal counts: no check that can fail is skipped.
    An injective module zero after K.b has all its bars die at K.b, and
    dims[s] - dims[s-1] of them are born at s (see _overlap_bars).
    """
    ka, kb = max(i.a, j.a), min(i.b, j.b)
    if not (((bm.src_a <= i.a) & (bm.src_b >= ka) & (bm.src_b < kb)).any()
            or ((bm.tgt_a > j.a) & (bm.tgt_b >= ka) & (bm.tgt_b < kb)).any()):
        return [entry] * (kb - ka + 1)  # no column of P and no row of off dies in K
    dims = [entry]
    walk = _walk_reduce(bm, i, j, lower)
    u = gf.matmul(walk.plus, walk.ident.T, bm.p)  # y_plus at t is columns of U
    plus_l = _src_plus(bm, i, kb)[1]  # P_{t+1}
    for t in range(kb - 1, ka - 1, -1):
        n, f = _prefixes(walk, t)
        cols = _null_cols(walk, n, f)
        upper = u[:, cols]
        d = 0
        if upper[bm.tgt_b >= t].any():
            if t == kb - 1 or plus_l.shape[1] < n:
                y = walk.ident[cols, : plus_l.shape[1]].T  # the witness
                later = bm.tgt_b > t  # the rows alive at t+1
                if not np.array_equal(gf.matmul(plus_l[later], y, bm.p), upper[later]):
                    raise InvariantError(f"W_{t} carries y_plus of ({i},{j}) at"
                                         f" t={t} out of y_plus at t={t + 1}")
            d = _dim_at(walk, n, f)
        if d > dims[-1]:
            raise InvariantError(f"comparison module of ({i},{j}) shrinks from"
                                 f" {d} to {dims[-1]} at t={t + 1}")
        dims.append(d)
        plus_l = walk.plus[:, :n]
    return dims


def _overlap_bars(k: GridInterval, dims: list[int]) -> Barcode:
    """d_s - d_{s-1} bars [s, K.b] at each s of K, with d_{K.a - 1} = 0, off
    dims = [d_{K.b}, ..., d_{K.a}], as _comparison_dims returns them."""
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
    """(block, I, J, entry, lower) for the hom_exists pairs of each block
    of bm: the m entry of the block's part of the pair and the lower a
    walk of it starts from, off one _reduce per (J, I.a) of the block.

    A hom pair overlaps and J ends first, so each is counted at J.b.
    """
    for block in bm.blocks():
        targets = _bars(block.tgt_a, block.tgt_b)
        reductions = {}
        for i in _bars(block.src_a, block.src_b):
            for j in targets:
                if hom_exists(i, j):
                    if (j, i.a) not in reductions:
                        reductions[j, i.a] = _reduce(block, j, i.a, j.b)
                    yield block, i, j, *reductions[j, i.a][i.b]


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
    the right end of I n J.

    Read one block of M at a time (see the module docstring): the
    comparison module of (I, J) is the direct sum of those of the blocks
    holding both bars, so its barcode is the union of theirs.  Within a
    block, the module's dimensions are nondecreasing toward the shared
    death, so a zero m entry, the count at K.b, forces the whole module
    to zero, and only the pairs with a nonzero one walk along the
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
