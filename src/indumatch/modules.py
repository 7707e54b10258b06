"""Persistence modules over the finite grid {1..n}.

A module is a sequence of GF(p) vector spaces V(1), ..., V(n) joined by
structure matrices V(t) -> V(t+1); a morphism is a grid of component
matrices making every square commute.  All grid positions in the public
API are 1-based, matching the usual way these diagrams are written.

This module also provides the subspace operators that carve out, at a
single grid position, the part of the module belonging to an interval
(im_plus/im_minus/ker_plus/ker_minus and v_plus/v_minus), explicit
persistence bases and the barcode read off them, image modules, and the
shift-and-image endofunctor used for stability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf
from .gf import Subspace


class ValidationError(ValueError):
    """A module or morphism breaks one of its structural invariants."""


def memo(cache: dict, key, compute):
    """cache[key], computed by compute() and stored on the first request."""
    value = cache.get(key)
    if value is None:
        value = compute()
        cache[key] = value
    return value


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
        self._comp_cache: dict[tuple[int, int], np.ndarray] = {}
        self._sub_cache: dict[tuple, Subspace] = {}
        self._barcode: "Barcode | None" = None

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
        return memo(
            self._comp_cache,
            (s, t),
            lambda: gf.identity(self.dims[t - 1]) if s == t
            else gf.matmul(self.map(t - 1), self.composite(s, t - 1), self.p),
        )

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
        self._push_cache: dict[tuple, Subspace] = {}

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
                raise ValidationError(f"naturality fails at t={t}")
        return self

    def is_injective(self) -> bool:
        return all(
            gf.rank(self.comp(t), self.p) == self.source.dim(t)
            for t in range(1, self.n + 1)
        )

    def is_surjective(self) -> bool:
        return all(
            gf.rank(self.comp(t), self.p) == self.target.dim(t)
            for t in range(1, self.n + 1)
        )

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


def zero_module(n: int, p: int) -> PersistenceModule:
    return PersistenceModule(p, [0] * n, [gf.zeros(0, 0)] * (n - 1))


def interval_module(n: int, p: int, iv: GridInterval) -> PersistenceModule:
    """One-dimensional on the interval with identity maps, zero elsewhere."""
    if iv.b > n:
        raise ValueError(f"interval {iv} does not fit grid of length {n}")
    dims = [1 if iv.contains(t) else 0 for t in range(1, n + 1)]
    maps = []
    for t in range(1, n):
        if iv.contains(t) and iv.contains(t + 1):
            maps.append(gf.identity(1))
        else:
            maps.append(gf.zeros(dims[t], dims[t - 1]))
    return PersistenceModule(p, dims, maps)


def direct_sum(x: PersistenceModule, y: PersistenceModule) -> PersistenceModule:
    if x.n != y.n or x.p != y.p:
        raise ValidationError("direct sum needs matching grid and field")
    dims = [a + b for a, b in zip(x.dims, y.dims)]
    maps = [gf.block_diag(a, b) for a, b in zip(x.maps, y.maps)]
    return PersistenceModule(x.p, dims, maps)


def direct_sum_morphism(f: Morphism, g: Morphism) -> Morphism:
    source = direct_sum(f.source, g.source)
    target = direct_sum(f.target, g.target)
    comps = [gf.block_diag(a, b) for a, b in zip(f.comps, g.comps)]
    return Morphism(source, target, comps)


# ---------------------------------------------------------------------------
# Interval subspace operators.
#
# For I = [a, b] and t in I, the four operators pick out, inside V(t), what
# arrives from the start of the interval and what survives to its end:
#   im_plus  = image of V(a) -> V(t)        (arrived by a)
#   im_minus = image of V(a-1) -> V(t)      (arrived strictly before a)
#   ker_plus = kernel of V(t) -> V(b+1)     (dead just after b)
#   ker_minus= kernel of V(t) -> V(b)       (dead strictly before b's end)
# with the grid-boundary conventions im_minus = 0 at a = 1 and
# ker_plus = V(t) at b = n.


def im_plus(m: PersistenceModule, iv: GridInterval, t: int) -> Subspace:
    _require_in_interval(iv, t)
    return memo(
        m._sub_cache,
        ("im+", iv.a, t),
        lambda: Subspace.image(m.composite(iv.a, t), m.p),
    )


def im_minus(m: PersistenceModule, iv: GridInterval, t: int) -> Subspace:
    _require_in_interval(iv, t)
    return memo(
        m._sub_cache,
        ("im-", iv.a, t),
        lambda: Subspace.zero(m.dim(t), m.p) if iv.a == 1
        else Subspace.image(m.composite(iv.a - 1, t), m.p),
    )


def ker_plus(m: PersistenceModule, iv: GridInterval, t: int) -> Subspace:
    _require_in_interval(iv, t)
    return memo(
        m._sub_cache,
        ("ker+", iv.b, t),
        lambda: Subspace.full(m.dim(t), m.p) if iv.b == m.n
        else Subspace.kernel(m.composite(t, iv.b + 1), m.p),
    )


def ker_minus(m: PersistenceModule, iv: GridInterval, t: int) -> Subspace:
    _require_in_interval(iv, t)
    return memo(
        m._sub_cache,
        ("ker-", iv.b, t),
        lambda: Subspace.kernel(m.composite(t, iv.b), m.p),
    )


def v_plus(m: PersistenceModule, iv: GridInterval, t: int) -> Subspace:
    """Largest subspace of V(t) supported exactly along I; zero off I."""
    if not iv.contains(t):
        return Subspace.zero(m.dim(t), m.p)
    return memo(
        m._sub_cache,
        ("v+", iv.a, iv.b, t),
        lambda: gf.intersect(im_plus(m, iv, t), ker_plus(m, iv, t)),
    )


def v_minus(m: PersistenceModule, iv: GridInterval, t: int) -> Subspace:
    """The part of v_plus already accounted for by longer intervals."""
    if not iv.contains(t):
        return Subspace.zero(m.dim(t), m.p)
    return memo(
        m._sub_cache,
        ("v-", iv.a, iv.b, t),
        lambda: gf.sum_subspaces(
            gf.intersect(im_minus(m, iv, t), ker_plus(m, iv, t)),
            gf.intersect(im_plus(m, iv, t), ker_minus(m, iv, t)),
        ),
    )


def _require_in_interval(iv: GridInterval, t: int):
    if not iv.contains(t):
        raise ValueError(f"t={t} not in interval {iv}")


# ---------------------------------------------------------------------------
# Persistence bases.


@dataclass(frozen=True)
class Generator:
    """A bar with explicit vectors: one per grid position it spans."""

    interval: GridInterval
    vectors: tuple[np.ndarray, ...]

    def vector_at(self, t: int) -> np.ndarray:
        if not self.interval.contains(t):
            raise IndexError(f"t={t} outside {self.interval}")
        return self.vectors[t - self.interval.a]


@dataclass(frozen=True)
class PersistenceBasis:
    generators: tuple[Generator, ...]

    def interval_barcode(self) -> Barcode:
        entries: dict[GridInterval, int] = {}
        for g in self.generators:
            entries[g.interval] = entries.get(g.interval, 0) + 1
        return Barcode(entries)

    def alive_at(self, t: int) -> list[Generator]:
        return [g for g in self.generators if g.interval.contains(t)]

    def validate(self, m: PersistenceModule) -> "PersistenceBasis":
        for g in self.generators:
            iv = g.interval
            if iv.b > m.n:
                raise ValidationError(f"generator interval {iv} exceeds grid")
            if len(g.vectors) != iv.b - iv.a + 1:
                raise ValidationError(f"generator {iv} has wrong vector count")
            for t in iv:
                v = g.vector_at(t)
                if v.shape != (m.dim(t), 1):
                    raise ValidationError(f"generator {iv} vector shape at t={t}")
                if not np.any(v):
                    raise ValidationError(f"generator {iv} vanishes at t={t}")
            for t in range(iv.a, iv.b):
                pushed = gf.matmul(m.map(t), g.vector_at(t), m.p)
                if not np.array_equal(pushed, g.vector_at(t + 1)):
                    raise ValidationError(f"generator {iv} chain breaks at t={t}")
            if iv.b < m.n:
                dead = gf.matmul(m.map(iv.b), g.vector_at(iv.b), m.p)
                if np.any(dead):
                    raise ValidationError(f"generator {iv} survives its end")
        for t in range(1, m.n + 1):
            alive = self.alive_at(t)
            if len(alive) != m.dim(t):
                raise ValidationError(f"basis count at t={t}")
            if alive:
                stack = np.hstack([g.vector_at(t) for g in alive])
                if gf.rank(stack, m.p) != m.dim(t):
                    raise ValidationError(f"basis vectors dependent at t={t}")
        return self


def persistence_basis(m: PersistenceModule) -> PersistenceBasis:
    """Explicit interval decomposition by a left-to-right sweep.

    At each step the images of the live generators are reduced oldest
    first; a generator whose image falls in the span of older ones is
    closed, with the past chain corrected so its final vector maps to
    zero.  Standard basis vectors complete each step's span, becoming
    the newborn generators.
    """
    p = m.p
    finished: list[tuple[int, int, list[np.ndarray]]] = []

    def reduce_against(vec, accepted):
        # accepted vectors have pairwise distinct pivot rows and are zero
        # on the earlier pivots, so one pass fully reduces.
        coeffs = []
        for k, (prow, pvec) in enumerate(accepted):
            c = int(vec[prow, 0])
            if c:
                vec = (vec - c * pvec) % p
                coeffs.append((k, c))
        return vec, coeffs

    start = gf.identity(m.dim(1))
    # (birth, chain), oldest first
    live = [(1, [start[:, i : i + 1]]) for i in range(m.dim(1))]

    for t in range(1, m.n):
        mat = m.map(t)
        accepted: list[tuple[int, np.ndarray]] = []  # (pivot_row, vector at t+1)
        accepted_owner: list[int] = []  # index into next_live
        next_live: list[tuple[int, list[np.ndarray]]] = []
        for birth, chain in live:
            img = gf.matmul(mat, chain[-1], p)
            red, coeffs = reduce_against(img, accepted)
            if coeffs:
                # Apply the same combination to the past chain; the owners
                # are older, so their chains cover [birth, t].
                for k, c in coeffs:
                    other = next_live[accepted_owner[k]][1]
                    other_birth = next_live[accepted_owner[k]][0]
                    for s in range(birth, t + 1):
                        chain[s - birth] = (
                            chain[s - birth] - c * other[s - other_birth]
                        ) % p
            nz = np.nonzero(red[:, 0])[0]
            if nz.size == 0:
                finished.append((birth, t, chain))
                continue
            prow = int(nz[0])
            inv = pow(int(red[prow, 0]), -1, p)
            if inv != 1:
                red = (red * inv) % p
                chain = [(v * inv) % p for v in chain]
            chain.append(red)
            accepted.append((prow, red))
            accepted_owner.append(len(next_live))
            next_live.append((birth, chain))
        fresh = gf.identity(m.dim(t + 1))
        for i in range(fresh.shape[1]):
            red, _ = reduce_against(fresh[:, i : i + 1], accepted)
            nz = np.nonzero(red[:, 0])[0]
            if nz.size == 0:
                continue
            prow = int(nz[0])
            inv = pow(int(red[prow, 0]), -1, p)
            if inv != 1:
                red = (red * inv) % p
            accepted.append((prow, red))
            accepted_owner.append(len(next_live))
            next_live.append((t + 1, [red]))
        live = next_live

    for birth, chain in live:
        finished.append((birth, m.n, chain))

    gens = [
        Generator(GridInterval(birth, death), tuple(chain))
        for birth, death, chain in finished
    ]
    gens.sort(key=lambda g: interval_sort_key(g.interval))
    return PersistenceBasis(tuple(gens))


def barcode(m: PersistenceModule) -> Barcode:
    """Interval decomposition multiplicities, read off the persistence basis.

    The sweep in persistence_basis is the standard left-to-right column
    reduction; the result is cached on the module.  The multiplicity of
    [a, b] also equals dim v_plus - dim v_minus at t = a, which is the
    fact the matching relies on.
    """
    if m._barcode is None:
        m._barcode = persistence_basis(m).interval_barcode()
    return m._barcode


# ---------------------------------------------------------------------------
# Image modules and the shift functor.


def image_factorization(
    f: Morphism,
) -> tuple[PersistenceModule, Morphism, Morphism]:
    """Factor f through its image: f = embed o project.

    Returns (image module, projection source ->> image, embedding
    image >-> target).  The image value at t is the column space of the
    component f_t inside the target, in canonical basis.
    """
    p = f.p
    bases = [Subspace.image(f.comp(t), p).basis for t in range(1, f.n + 1)]
    dims = [b.shape[1] for b in bases]
    maps = []
    for t in range(1, f.n):
        pushed = gf.matmul(f.target.map(t), bases[t - 1], p)
        coords = gf.solve(bases[t], pushed, p)
        if coords is None:
            raise AssertionError(f"image is not carried into itself at t={t}")
        maps.append(coords)
    im = PersistenceModule(p, dims, maps)
    embed = Morphism(im, f.target, bases)
    proj_comps = []
    for t in range(1, f.n + 1):
        coords = gf.solve(bases[t - 1], f.comp(t), p)
        if coords is None:
            raise AssertionError(f"f does not land in its image at t={t}")
        proj_comps.append(coords)
    project = Morphism(f.source, im, proj_comps)
    return im, project, embed


def image_module(f: Morphism) -> tuple[PersistenceModule, Morphism]:
    """The image of a morphism together with its embedding into the target."""
    im, _, embed = image_factorization(f)
    return im, embed


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
    source = restrict(m, 1, top)
    target = restrict(m, 1 + eps, m.n)
    comps = [m.composite(t, t + eps) for t in range(1, top + 1)]
    return Morphism(source, target, comps)


def shift_module(m: PersistenceModule, eps: int) -> PersistenceModule:
    """Image of the comparison map: value at t is im(V(t) -> V(t+eps))."""
    im, _ = image_module(one_eps_morphism(m, eps))
    return im


def shift_morphism(f: Morphism, eps: int) -> Morphism:
    """The morphism induced between the shifted source and target."""
    _check_eps(f.n, eps)
    _, _, src_embed = image_factorization(one_eps_morphism(f.source, eps))
    _, _, dst_embed = image_factorization(one_eps_morphism(f.target, eps))
    p = f.p
    comps = []
    for t in range(1, f.n - eps + 1):
        pushed = gf.matmul(f.comp(t + eps), src_embed.comp(t), p)
        coords = gf.solve(dst_embed.comp(t), pushed, p)
        if coords is None:
            raise AssertionError(f"shifted image escapes the target image at t={t}")
        comps.append(coords)
    return Morphism(src_embed.source, dst_embed.source, comps)


def _check_eps(n: int, eps: int):
    if not 0 <= eps <= n - 1:
        raise ValueError(f"shift amount {eps} out of range 0..{n - 1}")
