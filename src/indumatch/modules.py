"""Persistence modules over the finite grid {1..n}.

A module is a sequence of GF(p) vector spaces V(1), ..., V(n) joined by
structure matrices V(t) -> V(t+1); a morphism is a grid of component
matrices making every square commute.  All grid positions in the public
API are 1-based, matching the usual way these diagrams are written.

It reads the barcode off one left-to-right sweep (the function sweep),
which keeps only the current basis matrix B_t, of the vectors at t of
the generators alive at t, and records what the bars need: their
births and deaths, the rows of each newborn unit vector, and per death
the older survivors added to the dying generators (Claim M2).  A
morphism f is read off the persistence bases of its two ends as one
matrix M, a BasisMatrix (Claim M1), the only thing a morphism caches
and what every report takes; a module caches nothing.  A BasisMatrix is
on its support by construction: its constructor alone refuses a nonzero
entry on a pair of bars with no nonzero map between them, and no reader
checks that again.  basis_matrix builds every M from the records of the
sweeps of f's two ends, and no basis is built: the replay of a sweep's
record into B_1, ..., B_n (oracle.persistence_basis) is a referee.  M
carries the bars of its rows and columns, the target and source
barcodes (M.barcodes, built once per M), so the image barcode is read
off M alone (M.image_barcode()), and the shift functor is one operation
on M (M.shift(eps)) that builds no module.  The image factorization
and the composite maps are referees that no command runs, kept here
because the benchmark reads them here; the other referees are in
oracle.py.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from . import gf
from .gf import Subspace


class ValidationError(ValueError):
    """A module or morphism breaks one of its structural invariants."""


class InvariantError(AssertionError):
    """An internal invariant failed: a bug, not bad input.

    Raised explicitly, so it survives python -O; the CLI maps it to its
    own exit code.
    """


@dataclass(frozen=True)
class GridInterval:
    """Discrete closed interval [a, b] of grid positions, 1 <= a <= b."""

    a: int
    b: int

    def __post_init__(self):
        if not (1 <= self.a <= self.b):
            raise ValueError(f"bad interval [{self.a}, {self.b}]")

    def contains(self, t: int) -> bool:
        return self.a <= t <= self.b

    def intersect(self, other: "GridInterval") -> "GridInterval | None":
        a = max(self.a, other.a)
        b = min(self.b, other.b)
        return GridInterval(a, b) if a <= b else None

    @property
    def length(self) -> int:
        return self.b - self.a

    def __iter__(self):
        return iter(range(self.a, self.b + 1))

    def __repr__(self):
        return f"[{self.a},{self.b}]"


def interval_sort_key(iv: GridInterval) -> tuple[int, int]:
    # Earlier start first, then later end first.
    return (iv.a, -iv.b)


def hom_exists(i: GridInterval, j: GridInterval) -> bool:
    """Whether a nonzero map from the I interval module to the J one exists.

    It does exactly when J starts no later and ends no later, with
    overlap: J.a <= I.a <= J.b <= I.b.
    """
    return j.a <= i.a <= j.b <= i.b


class Barcode:
    """Multiset of grid intervals with positive multiplicities."""

    def __init__(self, entries: dict[GridInterval, int] | None = None):
        clean: dict[GridInterval, int] = {}
        for iv, m in (entries or {}).items():
            if m < 0:
                raise ValueError(f"negative multiplicity for {iv}")
            if m > 0:
                clean[iv] = m
        self._entries = clean

    @classmethod
    def from_pairs(cls, pairs) -> "Barcode":
        entries: dict[GridInterval, int] = {}
        for a, b, m in pairs:
            iv = GridInterval(a, b)
            entries[iv] = entries.get(iv, 0) + m
        return cls(entries)

    def mult(self, iv: GridInterval) -> int:
        return self._entries.get(iv, 0)

    def intervals(self) -> list[GridInterval]:
        return sorted(self._entries, key=interval_sort_key)

    def items(self) -> list[tuple[GridInterval, int]]:
        return [(iv, self._entries[iv]) for iv in self.intervals()]

    def total(self) -> int:
        return sum(self._entries.values())

    def dim_at(self, t: int) -> int:
        return sum(m for iv, m in self._entries.items() if iv.contains(t))

    def rep(self) -> list[tuple[GridInterval, int]]:
        """Indexed bars (interval, index) with indices 1..multiplicity."""
        out = []
        for iv, m in self.items():
            out.extend((iv, l) for l in range(1, m + 1))
        return out

    def union(self, other: "Barcode") -> "Barcode":
        entries = dict(self._entries)
        for iv, m in other._entries.items():
            entries[iv] = entries.get(iv, 0) + m
        return Barcode(entries)

    def __bool__(self):
        return bool(self._entries)

    def __eq__(self, other):
        if not isinstance(other, Barcode):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self):
        return hash(frozenset(self._entries.items()))

    def __repr__(self):
        inner = ", ".join(f"({iv}, {m})" for iv, m in self.items())
        return "{" + inner + "}"


class PersistenceModule:
    """Dimension sequence plus structure matrices over GF(p)."""

    def __init__(self, p: int, dims, maps):
        self.p = int(p)
        self.dims = tuple(int(d) for d in dims)
        self.n = len(self.dims)
        self.maps = tuple(gf.normalize(m, self.p) for m in maps)
        for m in self.maps:
            m.setflags(write=False)

    def dim(self, t: int) -> int:
        self._check_t(t)
        return self.dims[t - 1]

    def map(self, t: int) -> np.ndarray:
        """Structure matrix V(t) -> V(t+1), 1 <= t <= n-1."""
        if not 1 <= t <= self.n - 1:
            raise IndexError(f"map index {t} out of range 1..{self.n - 1}")
        return self.maps[t - 1]

    def composite(self, s: int, t: int) -> np.ndarray:
        """Matrix of the composite V(s) -> V(t), s <= t."""
        self._check_t(s)
        self._check_t(t)
        if s > t:
            raise IndexError(f"composite needs s <= t, got {s} > {t}")
        out = gf.identity(self.dims[s - 1])
        for u in range(s, t):
            out = gf.matmul(self.map(u), out, self.p)
        return out

    def validate(self) -> "PersistenceModule":
        problem = gf.field_error(self.p, max(self.dims, default=0))
        if problem:
            raise ValidationError(problem)
        if self.n < 1:
            raise ValidationError("grid must have at least one position")
        if len(self.maps) != self.n - 1:
            raise ValidationError(
                f"expected {self.n - 1} structure maps, got {len(self.maps)}"
            )
        for t in range(1, self.n):
            want = (self.dims[t], self.dims[t - 1])
            got = self.maps[t - 1].shape
            if got != want:
                raise ValidationError(
                    f"structure map at t={t} has shape {got}, expected {want}"
                )
        return self

    def is_zero(self) -> bool:
        return all(d == 0 for d in self.dims)

    def _check_t(self, t: int):
        if not 1 <= t <= self.n:
            raise IndexError(f"grid position {t} out of range 1..{self.n}")

    def __eq__(self, other):
        if not isinstance(other, PersistenceModule):
            return NotImplemented
        return (
            self.p == other.p
            and self.dims == other.dims
            and all(np.array_equal(a, b) for a, b in zip(self.maps, other.maps))
        )

    def __repr__(self):
        return f"PersistenceModule(p={self.p}, dims={self.dims})"


class Morphism:
    """Componentwise map between two modules on the same grid and field."""

    def __init__(self, source: PersistenceModule, target: PersistenceModule, comps):
        self.source = source
        self.target = target
        self.comps = tuple(gf.normalize(c, source.p) for c in comps)
        for c in self.comps:
            c.setflags(write=False)
        self._matrix: "BasisMatrix | None" = None  # filled by basis_matrix

    @property
    def n(self) -> int:
        return self.source.n

    @property
    def p(self) -> int:
        return self.source.p

    def comp(self, t: int) -> np.ndarray:
        self.source._check_t(t)
        return self.comps[t - 1]

    def validate(self) -> "Morphism":
        self.source.validate()
        self.target.validate()
        if self.source.n != self.target.n:
            raise ValidationError(
                f"grid lengths differ: {self.source.n} != {self.target.n}"
            )
        if self.source.p != self.target.p:
            raise ValidationError(
                f"fields differ: GF({self.source.p}) != GF({self.target.p})"
            )
        if len(self.comps) != self.n:
            raise ValidationError(
                f"expected {self.n} components, got {len(self.comps)}"
            )
        for t in range(1, self.n + 1):
            want = (self.target.dims[t - 1], self.source.dims[t - 1])
            got = self.comps[t - 1].shape
            if got != want:
                raise ValidationError(
                    f"component at t={t} has shape {got}, expected {want}"
                )
        for t in range(1, self.n):
            lhs = gf.matmul(self.comp(t + 1), self.source.map(t), self.p)
            rhs = gf.matmul(self.target.map(t), self.comp(t), self.p)
            if not np.array_equal(lhs, rhs):
                raise ValidationError(
                    f"naturality fails at t={t}: f_{t + 1} @ V_{t} = {lhs.tolist()}"
                    f" but W_{t} @ f_{t} = {rhs.tolist()}")
        return self

    @classmethod
    def identity(cls, m: PersistenceModule) -> "Morphism":
        return cls(m, m, [gf.identity(d) for d in m.dims])

    @classmethod
    def zero(cls, source: PersistenceModule, target: PersistenceModule) -> "Morphism":
        return cls(
            source,
            target,
            [gf.zeros(dt, ds) for dt, ds in zip(target.dims, source.dims)],
        )

    def __eq__(self, other):
        if not isinstance(other, Morphism):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and all(np.array_equal(a, b) for a, b in zip(self.comps, other.comps))
        )

    def __repr__(self):
        return (
            f"Morphism(p={self.p}, source_dims={self.source.dims}, "
            f"target_dims={self.target.dims})"
        )


def alive_at(starts: np.ndarray, ends: np.ndarray, t: int) -> np.ndarray:
    """Indices of the generators with bars [starts[k], ends[k]] alive at t."""
    return ((starts <= t) & (t <= ends)).nonzero()[0]


def module_from_bars(n: int, p: int, bars) -> PersistenceModule:
    """The direct sum of the interval modules of bars, in their order.

    V(t) has one coordinate per bar alive at t, in the order given, and
    the structure map V(t) -> V(t+1) keeps the bars that survive and
    drops the rest, a 0/1 selection.  The sweep takes the standard basis
    vectors, the bars in stable start order (Claim M9), so each B_t is a
    permutation matrix, the identity when the bars come sorted by start.
    """
    starts, ends = _bar_ends(n, bars)
    alive = [alive_at(starts, ends, t) for t in range(1, n + 1)]
    maps = [(alive[t][:, None] == alive[t - 1]).astype(np.int64) for t in range(1, n)]
    return PersistenceModule(p, [len(k) for k in alive], maps)


def _bar_ends(n: int, bars) -> tuple[np.ndarray, np.ndarray]:
    """The starts and ends of bars, each checked to fit the grid {1..n}."""
    bars = list(bars)
    for iv in bars:
        if iv.b > n:
            raise ValueError(f"interval {iv} does not fit grid of length {n}")
    return (np.array([iv.a for iv in bars], dtype=np.int64),
            np.array([iv.b for iv in bars], dtype=np.int64))


def morphism_from_bars(n: int, p: int, src_bars, tgt_bars, m) -> Morphism:
    """The morphism between module_from_bars of src_bars and of tgt_bars
    whose component at t is m on the bars alive at t: m[h, g] is the
    coefficient of target bar h in the image of source bar g, the bar
    form of m.  The BasisMatrix of the bars and m refuses an m of another
    shape or with a nonzero entry off the hom_exists pairs, and either
    way this raises ValueError, as the mistake is the caller's.

    Claim M9 (the bar form).  The bar form of m is natural exactly when
    every nonzero m[h, g] on a pair of overlapping bars has
    hom_exists(g, h), and with the bars in birth order basis_matrix of it
    returns m: the bar form is the inverse of basis_matrix.  So every
    morphism f is, in the persistence bases of its ends, the bar form of
    its M.
    Proof.  The square at t compares m[h, g] for g alive at t and h alive
    at t+1: W_t f_t keeps it if h is alive at t, and f_{t+1} V_t if g is
    alive at t+1.  So naturality asks m[h, g] = 0 where h outlives g,
    h.b > g.b, and where h is born after g, h.a > g.a.  The structure
    maps send each unit vector to another or to 0, so the sweep subtracts
    nothing and records no death: it takes the unit vectors, the bars in
    stable start order, and in birth order the raw coordinates of f's
    images (Claim M3) are m.  By Claim M1, f_t is M on the generators
    alive at t.
    """
    src_bars, tgt_bars = list(src_bars), list(tgt_bars)
    try:
        bm = BasisMatrix(p, *_bar_ends(n, src_bars), *_bar_ends(n, tgt_bars),
                         gf.normalize(m, p))
    except InvariantError as e:  # the caller's M is off its support
        raise ValueError(*e.args) from None
    return Morphism(module_from_bars(n, p, src_bars), module_from_bars(n, p, tgt_bars),
                    [bm.at(t).m for t in range(1, n + 1)])


def zero_module(n: int, p: int) -> PersistenceModule:
    return module_from_bars(n, p, [])


def interval_module(n: int, p: int, iv: GridInterval) -> PersistenceModule:
    """One-dimensional on the interval with identity maps, zero elsewhere."""
    return module_from_bars(n, p, [iv])


def direct_sum(*modules: PersistenceModule) -> PersistenceModule:
    """The direct sum of one or more modules, in the order given."""
    if not modules:
        raise ValueError("direct sum needs at least one summand")
    first = modules[0]
    if any(m.n != first.n or m.p != first.p for m in modules):
        raise ValidationError("direct sum needs matching grid and field")
    dims = [sum(ds) for ds in zip(*(m.dims for m in modules))]
    maps = [gf.block_diag(*ms) for ms in zip(*(m.maps for m in modules))]
    return PersistenceModule(first.p, dims, maps)


def direct_sum_morphism(*morphisms: Morphism) -> Morphism:
    """The direct sum of one or more morphisms, in the order given.

    Each structure map and component is one block-diagonal matrix of the
    summands' blocks, so a k-way sum costs one build per position rather
    than k - 1 pairwise folds that each copy the growing sum.
    """
    source = direct_sum(*(f.source for f in morphisms))
    target = direct_sum(*(f.target for f in morphisms))
    comps = [gf.block_diag(*cs) for cs in zip(*(f.comps for f in morphisms))]
    return Morphism(source, target, comps)


# ---------------------------------------------------------------------------
# A morphism between the persistence bases.
#
# Claim M1 (M and its support).  Write f_t g_t = sum_h F_t[h, g] h_t for
# the generators g, h of the source and target bases alive at t.  Every
# F_t is a slice of one matrix M, rows the target generators and columns
# the source ones: F_t = M[alive at t, alive at t].  A nonzero M[h, g]
# has hom_exists(g, h), h.a <= g.a <= h.b <= g.b, so on the columns alive
# at t every row born after t is zero, and a column dead before t is zero
# on every row alive at t.  These pairs are M's support, and the
# BasisMatrix constructor refuses every M off it, reading only M's
# nonzero entries: basis_matrix, shift, select and a caller's M in
# morphism_from_bars all pass through it, so no reader checks it again.
# Proof.  For g alive at t and t+1, naturality gives f_{t+1} g_{t+1} =
# f_{t+1} V_t g_t = W_t f_t g_t, and W_t sends h_t to h_{t+1} if h
# survives t, else to 0; comparing coefficients of the basis h_{t+1},
# F_{t+1}[h, g] = F_t[h, g] for h alive at t and t+1, and 0 for h born
# at t+1.  So M[h, g] can be read at t = g.a, and a nonzero one is a
# nonzero map from g's interval module to h's.
#
# M is built from the records of the two sweeps, which keep no past B_s.
# A sweep fixes each basis only at the end: a generator j that dies at t
# with a nonzero image gets the older survivors k, sum_k C[k, j] k, added
# to its vector at every s in [j.a, t] (they are alive over that range),
# and the sweep records C instead of rewriting that past.  Until its own
# death, a generator's vector is its raw one: the unit vector it was born
# as, pushed forward.  Such a rewrite is B_s -> B_s (I + C) at every s it
# touches, restricted at each s to the generators alive there; C^2 = 0,
# as its rows are survivors and its columns dying generators.
#
# Claim M4 (a target death is a row operation).  Start M from the raw
# coordinates of f's images (Claim M3).  A target death with record C
# makes the coordinates (I - C) F_s, one row operation on M,
# M[older] -= C M[dying], and these run on all of M once the sweep is
# done, in death order.
# Proof.  As f_s S_s = B_s F_s = B_s (I + C)(I - C) F_s, the coordinates
# become F_s -> (I - C) F_s.  The operation reaches only the columns read
# while the dying generators live, since their rows are zero on every
# column read before their birth or after their death.  Death order: a
# survivor of one death may die at a later one, and its row must hold
# the earlier one by then.
#
# Claim M5 (a source death is a column operation).  With M in the final
# target basis, the death of a source generator j with record C is one
# column operation, M[:, j] += sum_k C[k, j] M[h.b >= j.a, k], and these
# run in death order.
# Proof.  The raw vector of a generator j born at s is a unit vector e_i
# of V(s), so its image is column i of f_s, with no product: M's columns
# start as the coordinates of those raw images.  j's corrected vector at
# j.a is e_i + sum_k C[k, j] v_k(j.a), v_k(j.a) the raw vector of k at
# j.a.  While k lives, column k of M holds the coordinates of
# f_{k.a} v_k(k.a), and by Claim M1 f_{j.a} v_k(j.a) has the coordinates
# F_{j.a}[:, k]: M[h, k] on the rows h alive at j.a, which are the rows
# with h.b >= j.a, as a row born after j.a is zero there.  In death order,
# k survives j's death, so column k is then still k's own raw column, and
# a later death touches only its own column.
#
# Claim M6 (every row operation runs first).  The column operations
# of Claim M5 give f's M only once every row operation of Claim M4 is
# made.
# Proof.  The row operations are a change of the target basis and the
# column operations one of the source basis.  A column operation reads
# F_{j.a}, coordinates in the final target basis.  In the masked form
# of Claim M5 the two do not commute, since a row operation may add a
# row dead by j.a to one alive there.
#
# As coordinates in a basis are unique, M is the same matrix as solving
# f_{g.a} g = B_{g.a} x for every g against the final bases, the ones
# oracle.persistence_basis replays.


@dataclass(frozen=True)
class BasisMatrix:
    """M (Claim M1) with the starts and ends of its columns (source
    generators) and rows (target generators), in any order: every method
    reads them by their bars (basis_matrix and shift give them in birth
    order); at(t) is F_t.

    M is on its support by construction.  The constructor refuses bar
    arrays whose lengths disagree with m's shape (ValueError, naming both)
    and a nonzero entry on a pair of bars without hom_exists (Claim M1):
    InvariantError names t, both bars and the coefficient of the first
    such entry in row-major order."""

    p: int
    src_a: np.ndarray
    src_b: np.ndarray
    tgt_a: np.ndarray
    tgt_b: np.ndarray
    m: np.ndarray

    def __post_init__(self):
        shape, ends = (len(self.tgt_a), len(self.src_a)), (len(self.tgt_b), len(self.src_b))
        if ends != shape:
            raise ValueError(f"the bars have {shape} starts but {ends} ends")
        if self.m.shape != shape:
            raise ValueError(f"m has shape {self.m.shape}, not {shape}, the bars' shape")
        _check_support(self)

    def at(self, t: int) -> "BasisMatrix":
        """F_t: f_t from the source generators alive at t to the target ones."""
        return self.select(alive_at(self.tgt_a, self.tgt_b, t),
                           alive_at(self.src_a, self.src_b, t))

    def select(self, rows: np.ndarray, cols: np.ndarray) -> "BasisMatrix":
        """The rows and columns of M at the index arrays rows and cols."""
        return BasisMatrix(self.p, self.src_a[cols], self.src_b[cols], self.tgt_a[rows],
                           self.tgt_b[rows], self.m.take(rows, 0).take(cols, 1))

    def blocks(self) -> list["BasisMatrix"]:
        """The connected components of M's bipartite graph, as selects:
        rows (target generators) and columns (source generators) joined by
        the nonzero entries, in the order of their first nonzero.  An
        all-zero row or column is in no block.  The tables read one block
        at a time (matching.py Claim T6)."""
        nr = self.m.shape[0]
        parent = list(range(nr + self.m.shape[1]))  # rows, then columns

        def root(x: int) -> int:
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            return x

        rows, cols = np.nonzero(self.m)
        for h, g in zip(rows.tolist(), (cols + nr).tolist()):
            parent[root(h)] = root(g)
        # A root is a node of its component, so no zero row or column is one.
        groups = {root(h): ([], []) for h in rows.tolist()}
        for x in range(len(parent)):
            group = groups.get(root(x))
            if group is not None:
                group[x >= nr].append(x - nr if x >= nr else x)
        return [self.select(np.array(r), np.array(c)) for r, c in groups.values()]

    @cached_property
    def barcodes(self) -> tuple[Barcode, Barcode]:
        """The source and target barcodes: the bars of M's columns and rows."""
        return (interval_barcode(self.src_a, self.src_b),
                interval_barcode(self.tgt_a, self.tgt_b))

    def shift(self, eps: int) -> "BasisMatrix":
        """The M of the eps-shift of the morphism whose M this is; the shifted
        modules are never built.  Its rows and columns carry the bars of the
        shifted target and source.  A negative eps would lengthen bars past
        the grid, so it is refused.

        Claim M8 (the shift of M).  The eps-shift keeps each bar [a, b] with
        b - a >= eps as [a, b - eps], on both sides, and its M is f's on the
        kept generators, less the entries whose shortened bars no longer
        overlap (g.a > h.b - eps).
        Proof.  im(V(t) -> V(t+eps)) is spanned by the vectors at t+eps of
        the generators alive at t and t+eps, so the kept bars, shortened,
        are a persistence basis of the shifted module in the same birth
        order.  f_{t+eps} sends such a source generator to the sum of
        M[h, g] h over the target generators alive at t+eps, and those kept
        and alive at t are the shifted target's generators at t; one born
        after t has h.a > t >= g.a, so M[h, g] = 0 (Claim M1).  The entries
        with g.a > h.b - eps are read by no shifted F_t.  The constructor's
        support check on the shifted M stands for "the shifted image stays
        in the target's".
        """
        if eps < 0:
            raise ValueError(f"shift amount {eps} is negative")
        kept = self.select((self.tgt_b - self.tgt_a >= eps).nonzero()[0],
                           (self.src_b - self.src_a >= eps).nonzero()[0])
        src_b, tgt_b = kept.src_b - eps, kept.tgt_b - eps
        m = np.where(kept.src_a <= tgt_b[:, None], kept.m, 0)
        return BasisMatrix(self.p, kept.src_a, src_b, kept.tgt_a, tgt_b, m)

    def image_barcode(self) -> Barcode:
        """Barcode of the image of the morphism whose M this is, read off one
        reduction of M.  The rows are sorted by death and the columns by
        birth here, with stable sorts, so M may come in any order.

        Claim M7 (the image barcode from one reduction).  After one
        gf.low_reduce of M with its rows sorted by death and its columns by
        birth, the multiplicity of [a, b] in the image barcode is the number
        of pivot pairs (h, g), h the low of reduced column g, with g.a = a
        and h.b = b.  This is the image-persistence reduction of
        Cohen-Steiner, Edelsbrunner, Harer and Morozov.
        Proof.  The rank r(s, t) of Im(s) -> Im(t), s <= t, is that of f_t
        on the source generators alive at s and t, the columns of F_t with
        g.a <= s <= t <= g.b.  By Claim M1 it is the rank of M on the rows
        h with h.b >= t and the columns g with g.a <= s: the other columns
        with g.a <= s die before t and are zero on those rows, and the rows
        alive at t are those rows less ones born after t, which are zero on
        those columns.  In the sorted M every such block is lower left, so
        by Claim G1 (gf.low_reduce) r(s, t) is the number of pivot pairs
        with g.a <= s and h.b >= t.  Inclusion-exclusion, as in
        oracle.naive_barcode, then makes [a, b]'s multiplicity the number
        of pairs with g.a = a and h.b = b.  A pair with g.a > h.b is counted
        only by the r(s, t) with s > t, which are no ranks of the image, so
        it is dropped.
        """
        order = np.argsort(self.tgt_b, kind="stable")
        death = self.tgt_b[order].tolist()
        cols = self.m.any(0).nonzero()[0]
        cols = cols[np.argsort(self.src_a[cols], kind="stable")]
        birth = self.src_a[cols].tolist()
        # Row g of work is the g-th nonzero column of M by birth, its
        # entries ordered by death; the zero columns are never copied.
        work = self.m.T.take(cols, 0).take(order, 1)
        lows = gf.low_reduce(work, self.p).tolist()
        bars = Counter((birth[g], death[low]) for g, low in enumerate(lows)
                       if low >= 0 and birth[g] <= death[low])
        return Barcode({GridInterval(a, b): k for (a, b), k in bars.items()})


def interval_barcode(starts: np.ndarray, ends: np.ndarray) -> Barcode:
    """The barcode of generators with the bars [starts[k], ends[k]]."""
    bars = Counter(zip(starts.tolist(), ends.tolist()))
    return Barcode({GridInterval(a, b): k for (a, b), k in bars.items()})


def _check_support(bm: BasisMatrix):
    """Raise InvariantError unless every nonzero entry of M sits on a
    hom_exists pair (Claim M1), naming the first that does not in
    row-major order."""
    rows, cols = bm.m.nonzero()
    hom = ((bm.tgt_a[rows] <= bm.src_a[cols]) & (bm.src_a[cols] <= bm.tgt_b[rows])
           & (bm.tgt_b[rows] <= bm.src_b[cols]))
    if not hom.all():
        h, g = (int(x[np.argmin(hom)]) for x in (rows, cols))
        src = GridInterval(int(bm.src_a[g]), int(bm.src_b[g]))
        tgt = GridInterval(int(bm.tgt_a[h]), int(bm.tgt_b[h]))
        raise InvariantError(
            f"f at t={src.a} sends source generator {src} onto target generator"
            f" {tgt} with coefficient {bm.m[h, g]}, but no nonzero map {src} -> {tgt}"
            " exists")


def basis_matrix(f: Morphism) -> BasisMatrix:
    """f's M (Claim M1), cached on f, built from one sweep of each end and
    no basis.

    The source is swept first, and the raw images of its generators, the
    columns of f_s of its newborn rows, ride along the target's sweep,
    which reads their raw coordinates (Claim M3).  Then each target death,
    in death order, is one row operation on M (Claim M4), and after all of
    them (Claim M6) each source death, in death order, one column
    operation (Claim M5).  Neither module's basis is built or cached.
    """
    if f._matrix is None:
        p = f.p
        src = sweep(f.source)
        images = [f.comp(s)[:, rows] for s, rows in enumerate(src.newborn, start=1)]
        tgt = sweep(f.target, images)
        m = tgt.coords
        for dying, alive, c in tgt.deaths:
            # M[alive] -= C M[dying] (Claim M4), on the rows C adds to.
            hit = c.any(1)
            m[alive[hit]] = (m[alive[hit]] - gf.matmul(c[hit], m[dying], p)) % p
        for dying, alive, c in src.deaths:
            # M[:, j] += sum_k C[k, j] M[:, k] (Claim M5), on the rows alive
            # at j's birth.
            added = np.where(tgt.ends[:, None] >= src.starts[dying],
                             gf.matmul(m[:, alive], c, p), 0)
            m[:, dying] = (m[:, dying] + added) % p
        f._matrix = BasisMatrix(p, src.starts, src.ends, tgt.starts, tgt.ends, m)
    return f._matrix


# ---------------------------------------------------------------------------
# The sweep.


def _reduce_images(x: np.ndarray, y: np.ndarray, eye: np.ndarray,
                   p: int) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Reduce a copy of the columns of x, oldest (leftmost) first, and the
    columns of y against them.

    Returns (lead, comb, rest).  lead[j] is the leading row of reduced
    column j of x, or -1 when it reduces to 0.  Column j of comb writes
    reduced column j as a combination of the raw ones (x @ comb is the
    reduced copy); comb is unit upper triangular, and only columns with a
    lead are ever subtracted, so a column that reduces to 0 is its raw
    column plus older survivors.  Nothing is rescaled: each pivot's
    1/lead scales its coefficients instead.
    The columns of y are reduced against the columns with a lead but never
    lead themselves.  Row k of rest is y[:, k] less a combination of the
    reduced columns, then minus that combination of the raw ones, so
    y[:, k] = rest[k, :d] - x @ rest[k, d:] (mod p): the residual
    rest[k, :d] is zero on every leading row, and rest[k, d:] on every
    column without a lead.  eye is an identity at least as wide as x.
    """
    d, width = x.shape
    # Row j of work is column j of x, then its combination: rows make the
    # per-pivot updates contiguous, and only rows that need one are read.
    # The columns of y follow, with empty combinations.
    work = np.zeros((width + y.shape[1], d + width), dtype=np.int64)
    work[:width, :d] = x.T
    work[:width, d:] = eye[:width, :width]
    work[width:, :d] = y.T
    lead = []
    for j in range(width):
        # Row j is reduced mod p only once every older pivot is out of it.
        # Each pivot subtracted a product below p^2 (a reduced row times a
        # reduced coefficient), and there are at most d pivots, so by the
        # field bound d (p-1)^2 < 2^63 nothing overflows meanwhile.  A pivot
        # row is 0 before its lead and, as comb is triangular, past d + j.
        vec = work[j, : d + j + 1]
        vec %= p
        nz = vec[:d].nonzero()[0]
        if not nz.size:
            lead.append(-1)
            continue
        r = int(nz[0])
        lead.append(r)
        c = work[j + 1 :, r] % p
        later = c.nonzero()[0]
        if later.size:
            c = c[later] * pow(int(vec[r]), -1, p) % p
            work[j + 1 + later, r : d + j + 1] -= c[:, None] * vec[r:]
    return lead, work[:width, d:].T, work[width:] % p


@dataclass(frozen=True)
class _Sweep:
    """What one sweep of a module records, with no basis.

    The generators have the bars [starts[k], ends[k]], in birth order;
    newborn[t - 1] lists the rows of V(t) whose unit vectors are born at
    t, in birth order.  deaths holds, per step that kills a generator
    with a nonzero image, in order, (dying, alive, C): the dying
    generators' numbers, those of all generators alive at that step, and
    the matrix C whose column for dying generator j holds the older
    survivors added to j, on the rows of alive.  coords holds the raw
    coordinates of the images the sweep carried, one row per generator:
    each image's in the raw basis at its position, which no later death
    has rewritten.
    """

    starts: np.ndarray
    ends: np.ndarray
    newborn: list[list[int]]
    deaths: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    coords: np.ndarray


def sweep(m: PersistenceModule, images: list[np.ndarray] | None = None) -> _Sweep:
    """One left-to-right reduction of m that keeps only the current B_t,
    and the raw coordinates of images at their positions.

    The vectors at t of the generators alive at t, oldest first, are the
    columns of one matrix B_t.  The step from V(t) to V(t+1):
      1. One image product X = V_t B_t holds the images of all of them.
      2. A copy of X is reduced oldest first (_reduce_images), each
         reduced column kept as a combination comb of the raw ones.
      3. A survivor, a column that keeps a lead, takes its raw image as
         its vector at t+1.
      4. A column that reduces to 0 dies at t.  Adding to it, at every s
         in [birth, t], its comb over the older survivors, which are
         alive over that range, makes its vector at t map to 0.  That
         comb less its diagonal is recorded as the death's C; no past
         B_s is kept or rewritten.
      5. The newborns at t+1 are the unit vectors e_i of the rows i that
         no reduced survivor leads.  They need no reduction.
    The generators are numbered as they are born, survivors keep their
    order and newborns come last, so each B_t is in birth order.  After
    the sweep the generators alive at each t must number dim V(t);
    InvariantError names the first t where they do not.

    images holds per position t a matrix whose columns are vectors of
    V(t), none if images is not given.  coords has one row per generator
    in birth order and one column per image column, positions in order.
    Each column is placed once and never rewritten; a later death's
    change of basis is left to basis_matrix (Claim M4).

    Claim M2 (the sweep is exact).  The generators' vectors, each dying
    one corrected by its recorded C, are a persistence basis of m, and
    the bars are m's barcode.  The basis, and so M, depends on the sweep,
    but every table and chi are basis-invariant.
    Proof.
      - The reduced copies have distinct leading rows, so with those e_i
        they are an echelon set of dim V(t+1) vectors, a basis.
      - Each reduced copy is its raw image less older raw images, a
        unitriangular change, so the raw survivors and the e_i are a
        basis of V(t+1) too.  A death adds older generators alive at
        every s in [birth, t] to the dying one, also unitriangular, so
        every B_s of the corrected basis (oracle.persistence_basis) is a
        basis, and step 4 makes each dying vector map to 0.
      - A column dies exactly when its image lies in the span of the
        older images.  This is the elder rule, so the barcode is the
        module's own.

    Claim M3 (the images ride along).  coords holds the coordinates of
    each image in the raw basis at its position: the generators' vectors
    there before any death adds to them.
    Proof.
      - At t = 1, B_1 is the identity, so the coordinates are the images.
      - The images at t+1 are reduced against the survivors' leads in
        step 2 (they never lead), so each is a combination of the raw
        survivors plus a residual on the unled rows: the coordinates on
        the raw survivors and on the newborns e_i of B_{t+1}, as rest
        gives them.
    """
    p = m.p
    eye = gf.identity(max(m.dims))
    births = [1] * m.dims[0]  # per generator, numbered as they are born
    deaths = [m.n] * m.dims[0]
    # b is B_t, and alive its generators' numbers, ascending, so oldest first.
    b = eye[: m.dims[0], : m.dims[0]]
    alive = np.arange(m.dims[0])
    newborn = [list(range(m.dims[0]))]
    combs = []
    if images is None:
        images = [gf.zeros(d, 0) for d in m.dims]
    coords = gf.zeros(sum(m.dims), sum(y.shape[1] for y in images))
    done = images[0].shape[1]  # columns of coords filled so far
    coords[: m.dims[0], :done] = images[0]
    for t in range(1, m.n):
        x = gf.matmul(m.map(t), b, p)
        y = images[t]
        lead, comb, rest = _reduce_images(x, y, eye, p)
        # A column that reduces to 0 dies at t; if its image was 0 already,
        # nothing is added to it.
        dead = [j for j, r in enumerate(lead) if r < 0]
        for j in dead:
            deaths[alive[j]] = t
        fix = [j for j in dead if x[:, j].any()]
        if fix:
            c = comb[:, fix]
            c[fix, np.arange(len(fix))] = 0
            combs.append((alive[fix], alive, c))
        survive = [j for j, r in enumerate(lead) if r >= 0]
        led = set(lead)
        rows = [i for i in range(m.dims[t]) if i not in led]
        newborn.append(rows)
        # The survivors' raw images, then the unit vectors of the unled rows.
        width = len(lead)
        b = np.concatenate((x, eye[: m.dims[t]]), axis=1)[
            :, survive + [width + i for i in rows]]
        alive = np.concatenate((alive[survive],
                                np.arange(len(births), len(births) + len(rows))))
        births += [t + 1] * len(rows)
        deaths += [m.n] * len(rows)
        if y.shape[1]:
            # Coordinates on the raw survivors, then on the unit vectors.
            block = rest[:, [m.dims[t] + j for j in survive] + rows].T
            block[: len(survive)] = -block[: len(survive)] % p
            coords[alive, done : done + y.shape[1]] = block
            done += y.shape[1]

    _check_alive_counts(m, births, deaths)
    return _Sweep(np.array(births, dtype=np.int64), np.array(deaths, dtype=np.int64),
                  newborn, combs, coords[: len(births)])


def _check_alive_counts(m: PersistenceModule, births: list[int], deaths: list[int]):
    """Raise InvariantError unless dim V(t) generators are alive at each t."""
    change = [0] * (m.n + 2)
    for a, b in zip(births, deaths):
        change[a] += 1
        change[b + 1] -= 1
    for t, (alive, dim) in enumerate(zip(accumulate(change[1:]), m.dims), start=1):
        if alive != dim:
            raise InvariantError(f"persistence basis: {alive} generators alive at"
                                 f" t={t}, but dim V({t}) = {dim}")


def barcode(m: PersistenceModule) -> Barcode:
    """Interval decomposition multiplicities, read off the bars of m's
    sweep, which are m's own (Claim M2); no basis is built."""
    record = sweep(m)
    return interval_barcode(record.starts, record.ends)


# ---------------------------------------------------------------------------
# Image modules.


def image_barcode(f: Morphism) -> Barcode:
    """Barcode of the image of f, read off its M (Claim M7)."""
    return basis_matrix(f).image_barcode()


def image_factorization(
    f: Morphism,
) -> tuple[PersistenceModule, Morphism, Morphism]:
    """Factor f through its image: f = embed o project.

    Returns (image module, projection source ->> image, embedding
    image >-> target).  The image value at t is the column space of the
    component f_t inside the target, in canonical basis.  No production
    path calls it: it referees image_barcode, chi and oracle.shift_morphism.
    """
    p = f.p
    bases = [Subspace.image(f.comp(t), p).basis for t in range(1, f.n + 1)]
    dims = [b.shape[1] for b in bases]
    maps = []
    for t in range(1, f.n):
        pushed = gf.matmul(f.target.map(t), bases[t - 1], p)
        coords = gf.solve(bases[t], pushed, p)
        if coords is None:
            raise InvariantError(f"image is not carried into itself at t={t}")
        maps.append(coords)
    im = PersistenceModule(p, dims, maps)
    embed = Morphism(im, f.target, bases)
    proj_comps = []
    for t in range(1, f.n + 1):
        coords = gf.solve(bases[t - 1], f.comp(t), p)
        if coords is None:
            raise InvariantError(f"f does not land in its image at t={t}")
        proj_comps.append(coords)
    project = Morphism(f.source, im, proj_comps)
    return im, project, embed


def image_module(f: Morphism) -> tuple[PersistenceModule, Morphism]:
    """The image of a morphism together with its embedding into the target."""
    im, _, embed = image_factorization(f)
    return im, embed
