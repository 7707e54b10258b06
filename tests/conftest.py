"""Shared fixtures: the worked ladder examples used across the suite."""

from __future__ import annotations

import random
from collections import Counter

import numpy as np
import pytest

from indumatch import (
    GridInterval,
    Morphism,
    PersistenceModule,
    gf,
    hom_exists,
    image_factorization,
    morphism_from_bars,
    one_eps_morphism,
    persistence_basis,
)
from indumatch.modules import (
    Barcode,
    BasisMatrix,
    InvariantError,
    PersistenceBasis,
    _check_support,
    basis_matrix,
)


def mat(rows):
    return np.array(rows, dtype=np.int64)


@pytest.fixture
def reference_ladder():
    """Three-step ladder with source bars [2,3], [2,2] and target bar [1,2].

    Decomposes as the sum of the catalog codes 000/011 and 110/010; the
    counting matching pairs [2,2] with [1,2] while the greedy matching
    pairs [2,3] with [1,2] instead.
    """
    source = PersistenceModule(2, (0, 2, 1), [gf.zeros(2, 0), mat([[1, 0]])])
    target = PersistenceModule(2, (1, 1, 0), [mat([[1]]), gf.zeros(0, 1)])
    return Morphism(
        source, target, [gf.zeros(1, 0), mat([[0, 1]]), gf.zeros(0, 1)]
    ).validate()


@pytest.fixture
def thick_ladder():
    """The 121/011 catalog ladder: k -> k^2 -> k over 0 -> k -> k."""
    source = PersistenceModule(2, (0, 1, 1), [gf.zeros(1, 0), mat([[1]])])
    target = PersistenceModule(
        2, (1, 2, 1), [mat([[1], [0]]), mat([[0, 1]])]
    )
    return Morphism(
        source, target, [gf.zeros(1, 0), mat([[1], [1]]), mat([[1]])]
    ).validate()


@pytest.fixture
def wide_ladder():
    """Four-step ladder with source bars [1,3], [2,4] and target bars
    [1,3], [1,4], [2,3]; the shift-by-one stability example."""
    source = PersistenceModule(
        2, (1, 2, 2, 1), [mat([[1], [0]]), gf.identity(2), mat([[0, 1]])]
    )
    target = PersistenceModule(
        2,
        (2, 3, 3, 1),
        [mat([[1, 0], [0, 1], [0, 0]]), gf.identity(3), mat([[0, 1, 0]])],
    )
    comps = [
        mat([[1], [0]]),
        mat([[1, 0], [0, 1], [0, 1]]),
        mat([[1, 0], [0, 1], [0, 1]]),
        mat([[1]]),
    ]
    return Morphism(source, target, comps).validate()


@pytest.fixture
def chain_module():
    """k_{[1,2]}^2 + k_{[2,3]} written with explicit matrices."""
    return PersistenceModule(
        2, (2, 3, 1), [mat([[1, 0], [0, 1], [0, 0]]), mat([[0, 0, 1]])]
    ).validate()


def iv(a, b):
    return GridInterval(a, b)


def bar_pair_morphism(n, nbars, length, p, seed=1):
    """The bar-pair worst case of the tables: nbars source bars, then nbars
    target bars, each of L positions, L drawn from [length // 2, length]
    and its start from those that fit, every list sorted by (a, b), and a
    random coefficient on every hom pair (target bars outer), so M is one
    dense block on which every hom pair is walked."""
    rng = random.Random(seed)

    def bars():
        out = []
        for _ in range(nbars):
            length_ = rng.randint(max(1, length // 2), length)
            a = rng.randint(1, n - length_ + 1)
            out.append(iv(a, a + length_ - 1))
        return sorted(out, key=lambda bar: (bar.a, bar.b))

    src, tgt = bars(), bars()
    m = gf.zeros(nbars, nbars)
    for h, j in enumerate(tgt):
        for g, i in enumerate(src):
            if hom_exists(i, j):
                m[h, g] = rng.randrange(p)
    return morphism_from_bars(n, p, src, tgt, m)


# ---------------------------------------------------------------------------
# Referees for what the library reads off a morphism's basis matrix M:
# the definitions it used before M, built independently of it.


def ref_frame(f, t):
    """F_t by its definition, T_t F_t = f_t S_t, for the matrices S_t and
    T_t of the source and target generators alive at t."""
    src = persistence_basis(f.source).vectors[t - 1]
    tgt = persistence_basis(f.target).vectors[t - 1]
    coords = gf.solve(tgt, gf.matmul(f.comp(t), src, f.p), f.p)
    assert coords is not None, f"target basis at t={t} does not span f_{t}"
    return coords


def ref_basis_matrix(f):
    """f's M by one gf.solve per distinct source birth s, for the columns
    of the generators born at s against the target generators alive at
    s; not cached on f."""
    p = f.p
    alpha, beta = persistence_basis(f.source), persistence_basis(f.target)
    m = gf.zeros(len(beta.starts), len(alpha.starts))
    for s in sorted(set(alpha.starts.tolist())):
        cols = np.nonzero(alpha.starts == s)[0]
        src = alpha.vectors[s - 1][:, -len(cols):]
        coords = gf.solve(beta.vectors[s - 1], gf.matmul(f.comp(s), src, p), p)
        assert coords is not None, f"target basis at t={s} does not span f_{s}"
        m[beta.alive(s)[:, None], cols] = coords
    return _check_support(BasisMatrix(p, alpha.starts, alpha.ends, beta.starts, beta.ends, m))


def ref_image_barcode(f):
    """The image barcode by one rref of F_t per t: the pivots in the prefix
    of F_t's columns that start by s count r(s, t), and
    inclusion-exclusion gives the multiplicities."""
    bm = basis_matrix(f)
    born = []  # per t: start -> number of pivots of F_t with that start
    for t in range(1, f.n + 1):
        ft = bm.at(t)
        _, pivots = gf.rref(ft.m, f.p)
        born.append(Counter(ft.src_a[list(pivots)].tolist()))
    born.append(Counter())
    entries = {}
    for b in range(1, f.n + 1):
        for a, k in born[b - 1].items():
            mult = k - born[b][a]
            if mult < 0:
                raise InvariantError(f"image barcode: multiplicity {mult} at [{a},{b}]")
            entries[GridInterval(a, b)] = mult
    return Barcode(entries)


def ref_shift_morphism(f, eps):
    """The morphism between the shift_module images of f's two ends, in
    their canonical image bases, by image factorization."""
    _, _, src_embed = image_factorization(one_eps_morphism(f.source, eps))
    _, _, dst_embed = image_factorization(one_eps_morphism(f.target, eps))
    comps = []
    for t in range(1, f.n - eps + 1):
        pushed = gf.matmul(f.comp(t + eps), src_embed.comp(t), f.p)
        coords = gf.solve(dst_embed.comp(t), pushed, f.p)
        assert coords is not None, f"shifted image escapes the target image at t={t}"
        comps.append(coords)
    return Morphism(src_embed.source, dst_embed.source, comps)


def ref_bars_basis(n, bars):
    """The persistence basis of module_from_bars(n, p, bars) by hand: the
    standard basis vectors, generators the bars in stable start order, so
    each B_t is a 0/1 matrix, columns in that order, rows V(t)'s
    coordinates in the given order; not cached on anything."""
    starts = np.array([b.a for b in bars], dtype=np.int64)
    ends = np.array([b.b for b in bars], dtype=np.int64)
    alive = [np.nonzero((starts <= t) & (t <= ends))[0] for t in range(1, n + 1)]
    order = np.argsort(starts, kind="stable")
    starts, ends = starts[order], ends[order]
    vectors = [(k[:, None] == order[(starts <= t) & (t <= ends)]).astype(np.int64)
               for t, k in enumerate(alive, start=1)]
    return PersistenceBasis(starts, ends, tuple(vectors))


# ---------------------------------------------------------------------------
# Referee for the persistence-basis sweep: the earlier sweep, which reduces
# every image and every unit-vector candidate one at a time, rescales each
# pivot to 1 and rewrites the past chain of every generator it reduces.


def ref_persistence_basis(m):
    """A persistence basis of m by the earlier candidate-by-candidate sweep;
    not cached on m."""
    p = m.p
    finished = []

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

    live = []  # (birth, chain), oldest first
    for t in range(m.n):
        # Images in V(t+1) of the live generators, then the standard basis
        # vectors of V(t+1) as candidates born at t+1 with an empty past.
        fresh = gf.identity(m.dim(t + 1))
        candidates = [(birth, chain, gf.matmul(m.map(t), chain[-1], p))
                      for birth, chain in live]
        candidates += [(t + 1, [], fresh[:, i : i + 1]) for i in range(fresh.shape[1])]
        accepted = []  # (pivot_row, vector at t+1)
        live = []  # accepted[k] is the last vector of live[k]
        for birth, chain, img in candidates:
            red, coeffs = reduce_against(img, accepted)
            # Apply the same combination to the past chain; the owners are
            # older, so their chains cover [birth, t].
            for k, c in coeffs:
                other_birth, other = live[k]
                for s in range(birth, t + 1):
                    chain[s - birth] = (chain[s - birth] - c * other[s - other_birth]) % p
            nz = np.nonzero(red[:, 0])[0]
            if nz.size == 0:
                if chain:
                    finished.append((birth, t, chain))
                continue
            prow = int(nz[0])
            inv = pow(int(red[prow, 0]), -1, p)
            if inv != 1:
                red = (red * inv) % p
                chain = [(v * inv) % p for v in chain]
            chain.append(red)
            accepted.append((prow, red))
            live.append((birth, chain))
    finished += [(birth, m.n, chain) for birth, chain in live]
    finished.sort(key=lambda gen: gen[0])  # birth order
    vectors = [np.hstack([chain[t - birth] for birth, death, chain in finished
                          if birth <= t <= death] or [gf.zeros(m.dim(t), 0)])
               for t in range(1, m.n + 1)]
    return PersistenceBasis(np.array([gen[0] for gen in finished], dtype=np.int64),
                            np.array([gen[1] for gen in finished], dtype=np.int64),
                            tuple(vectors))
