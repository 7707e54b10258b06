"""Referees: the paper's definitions, kept apart from the paths the CLI runs.

Every CLI report reads a morphism's basis matrix M (modules.py); these
are what the reports are checked against, and no module of the package
but __init__ imports them.  persistence_basis replays a module's sweep
into its persistence basis, which no command builds.  naive_barcode
reads multiplicities off composite ranks, independent of the basis
sweep.  The interval operators are spans of basis generators, refereed
in turn by the composite definitions in tests/test_modules.py.  y_plus
and y_minus push the source's operators through f_t and meet and sum
them with the target's in W(t), reading nothing of matching.  x_module
builds a comparison module from its g table entry.  iota and lambda_ are
the factors of the induced matching of Bauer and Lesnick ("Induced
matchings of barcodes and the algebraic stability of persistence").
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from . import gf
from .gf import Subspace
from .bauer_lesnick import bucket_matching, chi
from .matching import RepMatching, g_table, m_matching, representation
from .modules import (Barcode, GridInterval, Morphism, PersistenceModule, ValidationError,
                      alive_at, barcode, basis_matrix, image_module, interval_barcode,
                      module_from_bars, morphism_from_bars, sweep)


# ---------------------------------------------------------------------------
# Persistence bases.


@dataclass(frozen=True, eq=False)
class PersistenceBasis:
    """An interval decomposition of a module, as its generators' bars and
    one matrix per grid position.

    The k-th generator has the bar [starts[k], ends[k]]; they are in
    birth order, so starts is nondecreasing.  vectors[t - 1] is B_t,
    whose columns are the vectors at t of the generators alive at t, in
    that same order: those born by t - 1 that survive it, then those born
    at t.  All arrays are read-only.
    """

    starts: np.ndarray
    ends: np.ndarray
    vectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        for a in (self.starts, self.ends, *self.vectors):
            a.setflags(write=False)

    def interval_barcode(self) -> Barcode:
        return interval_barcode(self.starts, self.ends)

    def alive(self, t: int) -> np.ndarray:
        return alive_at(self.starts, self.ends, t)

    def validate(self, m: PersistenceModule) -> "PersistenceBasis":
        starts, ends = self.starts, self.ends
        if len(self.vectors) != m.n or len(starts) != len(ends):
            raise ValidationError(f"{len(starts)} starts, {len(ends)} ends and"
                                  f" {len(self.vectors)} matrices on a grid of length {m.n}")
        if not np.all((1 <= starts) & (starts <= ends) & (ends <= m.n)):
            raise ValidationError(f"a generator's bar is not inside 1..{m.n}")
        if np.any(np.diff(starts) < 0):
            raise ValidationError("generators are not in birth order")
        for t in range(1, m.n + 1):
            b, alive = self.vectors[t - 1], self.alive(t)
            if b.shape != (m.dim(t), len(alive)) or len(alive) != m.dim(t):
                raise ValidationError(f"B_{t} has shape {b.shape} for {len(alive)}"
                                      f" generators alive in dim V({t}) = {m.dim(t)}")
            if gf.rank(b, m.p) != m.dim(t):
                raise ValidationError(f"basis vectors dependent at t={t}")
            if t < m.n:
                pushed = gf.matmul(m.map(t), b, m.p)
                dies = ends[alive] == t
                if np.any(pushed[:, dies]):
                    raise ValidationError(f"a generator ending at t={t} survives it")
                kept = pushed[:, ~dies]
                if not np.array_equal(kept, self.vectors[t][:, : kept.shape[1]]):
                    raise ValidationError(f"a generator's chain breaks at t={t}")
        return self


# The basis persistence_basis replayed for each live module, by id; a
# module's entry is dropped when the module is (weakref.finalize).
_BASES: dict[int, PersistenceBasis] = {}


def persistence_basis(m: PersistenceModule) -> PersistenceBasis:
    """A persistence basis of m, replayed from the record of its one sweep
    (modules.sweep), read-only like the structure maps, and kept while m
    lives.

    No command builds one: barcode and basis_matrix take the sweep's
    record itself.  The replay runs no reduction.  B_1 is the identity,
    and B_{t+1} is V_t of the survivors' columns of B_t, then the unit
    vectors of the newborn rows of V(t+1): every generator's raw vectors.
    Then each recorded death, in death order, adds the older survivors
    to the dying generators' vectors over their whole past, B_s ->
    B_s (I + C); a survivor is rewritten only at its own later death, so
    it is still raw when it is added.
    """
    basis = _BASES.get(id(m))
    if basis is None:
        p = m.p
        record = sweep(m)
        starts, ends = record.starts, record.ends
        eye = gf.identity(max(m.dims))
        alive = [alive_at(starts, ends, t) for t in range(1, m.n + 1)]
        cols = [eye[: m.dims[0], : m.dims[0]].copy()]
        for t in range(1, m.n):
            kept = cols[-1][:, ends[alive[t - 1]] > t]
            cols.append(np.concatenate((gf.matmul(m.map(t), kept, p),
                                        eye[: m.dims[t], record.newborn[t]]), axis=1))
        for dying, at_death, c in record.deaths:
            for s in range(int(starts[dying[0]]), int(ends[dying[0]]) + 1):
                # C's rows and columns born by s, and where B_s holds them.
                rows, cols_s = starts[at_death] <= s, starts[dying] <= s
                b, place = cols[s - 1], alive[s - 1]
                j = np.searchsorted(place, dying[cols_s])
                b[:, j] = (b[:, j] + b[:, np.searchsorted(place, at_death[rows])]
                           @ c[rows][:, cols_s]) % p
        basis = _BASES[id(m)] = PersistenceBasis(starts, ends, tuple(cols))
        weakref.finalize(m, _BASES.pop, id(m), None)
    return basis


# ---------------------------------------------------------------------------
# Barcodes by composite ranks, and generator counts.


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


# ---------------------------------------------------------------------------
# Interval subspace operators.
#
# For I = [a, b] and t in I, the operators pick out, inside V(t), what
# arrives from the start of the interval and what survives to its end:
#   im_plus  = image of V(a) -> V(t)        (arrived by a)
#   im_minus = image of V(a-1) -> V(t)      (arrived strictly before a; 0 at a = 1)
#   ker_plus = kernel of V(t) -> V(b+1)     (dead just after b; V(t) at b = n)
#   ker_minus= kernel of V(t) -> V(b)       (dead strictly before b's end)
#   v_plus   = im_plus n ker_plus;  v_minus = im_minus n ker_plus + im_plus n ker_minus
#
# All six are spans of persistence-basis generators.  The generators alive
# at t are a basis of V(t), and for s <= t the composite V(s) -> V(t) sends
# a generator g alive at s to its vector at t if g.b >= t, else to 0.  Each
# composite is thus diagonal: its image is spanned by the g alive at t with
# g.a <= s, its kernel by the g alive at s with g.b < t.  So the four keep
# g.a <= a, g.a < a, g.b <= b, g.b < b (no g has g.a < 1, all have g.b <= n),
# and as spans of one basis meet and add like index sets, v_plus keeps
# g.a <= a and g.b <= b, and v_minus the same less the generators of I.


def _span(m: PersistenceModule, t: int, keep) -> Subspace:
    """Span of the basis vectors alive at t whose starts and ends pass keep."""
    basis = persistence_basis(m)
    alive = basis.alive(t)
    return Subspace.image(basis.vectors[t - 1][:, keep(basis.starts[alive],
                                                       basis.ends[alive])], m.p)


def im_plus(m: PersistenceModule, iv: GridInterval, t: int) -> Subspace:
    _require_in_interval(iv, t)
    return _span(m, t, lambda a, b: a <= iv.a)


def im_minus(m: PersistenceModule, iv: GridInterval, t: int) -> Subspace:
    _require_in_interval(iv, t)
    return _span(m, t, lambda a, b: a < iv.a)


def ker_plus(m: PersistenceModule, iv: GridInterval, t: int) -> Subspace:
    _require_in_interval(iv, t)
    return _span(m, t, lambda a, b: b <= iv.b)


def ker_minus(m: PersistenceModule, iv: GridInterval, t: int) -> Subspace:
    _require_in_interval(iv, t)
    return _span(m, t, lambda a, b: b < iv.b)


def v_plus(m: PersistenceModule, iv: GridInterval, t: int) -> Subspace:
    """Largest subspace of V(t) supported exactly along I; zero off I."""
    if not iv.contains(t):
        return Subspace.zero(m.dim(t), m.p)
    return _span(m, t, lambda a, b: (a <= iv.a) & (b <= iv.b))


def v_minus(m: PersistenceModule, iv: GridInterval, t: int) -> Subspace:
    """The part of v_plus already accounted for by longer intervals."""
    if not iv.contains(t):
        return Subspace.zero(m.dim(t), m.p)
    return _span(m, t, lambda a, b: (a <= iv.a) & (b <= iv.b)
                 & ((a != iv.a) | (b != iv.b)))


def _require_in_interval(iv: GridInterval, t: int):
    if not iv.contains(t):
        raise ValueError(f"t={t} not in interval {iv}")


# ---------------------------------------------------------------------------
# The y spaces, as pushed subspaces of W(t).


def sum_subspaces(a: Subspace, b: Subspace) -> Subspace:
    a._check_compatible(b)
    if b.dim == 0 or a.is_full():
        return a
    if a.dim == 0 or b.is_full():
        return b
    return Subspace.image(np.hstack([a.basis, b.basis]), a.p)


def pushed(f: Morphism, op, i: GridInterval, t: int) -> Subspace:
    """f_t of the operator op of the source at (I, t), a subspace of W(t)."""
    return Subspace.image(gf.matmul(f.comp(t), op(f.source, i, t).basis, f.p), f.p)


def y_plus(f: Morphism, i: GridInterval, j: GridInterval, t: int) -> Subspace:
    """f(v_plus of source at I) intersected with v_plus of target at J; zero
    off I n J, as v_plus is off its interval."""
    return gf.intersect(pushed(f, v_plus, i, t), v_plus(f.target, j, t))


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
    if not (i.contains(t) and j.contains(t)):
        return Subspace.zero(f.target.dim(t), f.p)
    absorbed = sum_subspaces(pushed(f, v_minus, i, t), v_minus(f.target, j, t))
    early = gf.intersect(pushed(f, im_minus, i, t), v_plus(f.target, j, t))
    return sum_subspaces(absorbed, early)


@dataclass(frozen=True)
class XModule:
    """Comparison module for a bar pair; zero off the overlap."""

    support: GridInterval | None
    module: PersistenceModule


def x_module(f: Morphism, i: GridInterval, j: GridInterval) -> XModule:
    """The comparison module of (I, J) on the full grid, as the direct sum
    of the bars of its g table entry, which all die at the right end of
    the overlap.  A pair with no entry has the zero module: disjoint bars,
    a pair no nonzero map joins, and an I that is no source bar or a J
    that is no target bar of f, where G_f(I, J) has no generators."""
    bars = g_table(basis_matrix(f)).get(i, j)
    return XModule(i.intersect(j), module_from_bars(f.n, f.p, [iv for iv, _ in bars.rep()]))


def is_injective(f: Morphism) -> bool:
    return all(gf.rank(f.comp(t), f.p) == f.source.dim(t) for t in range(1, f.n + 1))


def is_surjective(f: Morphism) -> bool:
    return all(gf.rank(f.comp(t), f.p) == f.target.dim(t) for t in range(1, f.n + 1))


def restrict(m: PersistenceModule, a: int, b: int) -> PersistenceModule:
    """The module evaluated on grid positions a..b, reindexed from 1."""
    m._check_t(a)
    m._check_t(b)
    if a > b:
        raise IndexError(f"empty restriction {a}..{b}")
    return PersistenceModule(m.p, m.dims[a - 1 : b], m.maps[a - 1 : b - 1])


def one_eps_morphism(m: PersistenceModule, eps: int) -> Morphism:
    """The canonical comparison map from the module to its eps-translate.

    Domain is the module cut to {1..n-eps}; codomain is the translate
    (value V(t+eps)); components are the composites V(t) -> V(t+eps).
    """
    _check_eps(m.n, eps)
    top = m.n - eps
    comps = [m.composite(t, t + eps) for t in range(1, top + 1)]
    return Morphism(restrict(m, 1, top), restrict(m, 1 + eps, m.n), comps)


def shift_module(m: PersistenceModule, eps: int) -> PersistenceModule:
    """Image of the comparison map: value at t is im(V(t) -> V(t+eps))."""
    im, _ = image_module(one_eps_morphism(m, eps))
    return im


def shift_morphism(f: Morphism, eps: int) -> Morphism:
    """The morphism induced between the shifted source and target:
    morphism_from_bars of the columns' and rows' bars of f's shifted M,
    in birth order, and of its matrix, so the result's own M, built by
    basis_matrix when a report reads it, is the shifted matrix again.
    The result is isomorphic to the morphism between the shift_module
    images.
    """
    _check_eps(f.n, eps)
    s = basis_matrix(f).shift(eps)
    return morphism_from_bars(f.n - eps, f.p,
                              map(GridInterval, s.src_a.tolist(), s.src_b.tolist()),
                              map(GridInterval, s.tgt_a.tolist(), s.tgt_b.tolist()), s.m)


def _check_eps(n: int, eps: int):
    if not 0 <= eps <= n - 1:
        raise ValueError(f"shift amount {eps} out of range 0..{n - 1}")


def iota(g: Morphism) -> RepMatching:
    """Death-bucket matching under an injective morphism."""
    if not is_injective(g):
        raise ValueError("iota needs an injective morphism")
    return bucket_matching(barcode(g.source), barcode(g.target), "death")


def lambda_(h: Morphism) -> RepMatching:
    """Birth-bucket matching under a surjective morphism."""
    if not is_surjective(h):
        raise ValueError("lambda_ needs a surjective morphism")
    return bucket_matching(barcode(h.source), barcode(h.target), "birth")


def is_eps_matching(
    sigma: RepMatching, b_src: Barcode, b_dst: Barcode, eps: int
) -> tuple[bool, tuple | None]:
    """Check the epsilon-matching conditions; returns (ok, first violation).

    Bars of persistence above the 2*eps threshold (start + 2*eps <= end)
    must be matched on both sides, and every matched pair must be within
    eps on both endpoints, in both directions.  A negative eps is refused.
    """
    if eps < 0:
        raise ValueError(f"eps-matching needs eps >= 0, got {eps}")
    src_bars, dst_bars = b_src.rep(), b_dst.rep()
    for s, d in sigma.items():
        for bar, bars, side in ((s, src_bars, "source"), (d, dst_bars, "target")):
            if bar not in bars:
                raise ValueError(f"matched bar {bar} is not in the {side} barcode")
    for bars, matched, side in ((src_bars, sigma.domain(), "source"),
                                (dst_bars, sigma.image(), "target")):
        for bar in bars:
            if bar[0].a + 2 * eps <= bar[0].b and bar not in matched:
                return False, (f"unmatched_{side}", bar)
    for s, d in sigma.items():
        (a, b), (c, dd) = (s[0].a, s[0].b), (d[0].a, d[0].b)
        if not (c - eps <= a and b <= dd + eps and a - eps <= c and dd <= b + eps):
            return False, ("containment", s, d)
    return True, None


@dataclass(frozen=True)
class RealizationCertificate:
    ok: bool
    matched_counts: dict[tuple[GridInterval, GridInterval], int]
    induced_counts: dict[tuple[GridInterval, GridInterval], int]


def realize_as_m(f: Morphism) -> tuple[Morphism, RealizationCertificate]:
    """Build g with the same barcodes whose counting table chi_f represents.

    Each matched generator of the source is routed onto its partner
    generator of the target, acting as the identity along the overlap
    and zero elsewhere; unmatched generators map to zero.
    """
    v, u = f.source, f.target
    p = f.p
    alpha, beta = persistence_basis(v), persistence_basis(u)
    sigma = chi(f)

    # Indexed-bar labels in basis order: indices count occurrences of
    # equal intervals.
    def labels(basis):
        seen: dict[GridInterval, int] = {}
        out = []
        for a, b in zip(basis.starts.tolist(), basis.ends.tolist()):
            iv = GridInterval(a, b)
            seen[iv] = seen.get(iv, 0) + 1
            out.append((iv, seen[iv]))
        return out

    beta_index = {label: h for h, label in enumerate(labels(beta))}
    # Per source generator, its partner target generator, or -1.
    partner = np.array([beta_index.get(sigma.get(label), -1) for label in labels(alpha)],
                       dtype=np.int64)

    comps = []
    for t in range(1, f.n + 1):
        mates, tgt = partner[alpha.alive(t)], beta.alive(t)
        routed = np.isin(mates, tgt)
        w_t = gf.zeros(u.dim(t), len(mates))
        w_t[:, routed] = beta.vectors[t - 1][:, np.searchsorted(tgt, mates[routed])]
        comps.append(gf.matmul(w_t, gf.inverse(alpha.vectors[t - 1], p), p))
    g = Morphism(v, u, comps).validate()

    induced = m_matching(g)
    chi_counts = sigma.counts()
    ok = induced.as_dict() == chi_counts
    if ok:
        # The canonical representation of the induced table realizes the
        # same per-pair counts as the matching we started from.
        rep = representation(induced, barcode(v), barcode(u))
        ok = rep.counts() == chi_counts
    return g, RealizationCertificate(ok, chi_counts, induced.as_dict())
