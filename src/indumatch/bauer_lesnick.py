"""The Bauer-Lesnick induced matching and its relation to the counting one.

An injective morphism matches bars that die together, longest first; a
surjective one matches bars born together, longest first.  A general
morphism factors through its image and composes the two.  The result
depends only on the three barcodes involved, which is also why it fails
to be additive over direct sums; realize_as_m builds a companion
morphism whose counting table this matching represents.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf
from .matching import IndexedBar, RepMatching, m_matching, representation
from .modules import (
    Barcode,
    GridInterval,
    Morphism,
    barcode,
    image_factorization,
    persistence_basis,
)


def _death_buckets(bc: Barcode) -> dict[int, list[IndexedBar]]:
    out: dict[int, list[IndexedBar]] = {}
    for iv, l in bc.rep():
        out.setdefault(iv.b, []).append((iv, l))
    for bucket in out.values():
        bucket.sort(key=lambda bar: (bar[0].a, bar[1]))  # longest first
    return out


def _birth_buckets(bc: Barcode) -> dict[int, list[IndexedBar]]:
    out: dict[int, list[IndexedBar]] = {}
    for iv, l in bc.rep():
        out.setdefault(iv.a, []).append((iv, l))
    for bucket in out.values():
        bucket.sort(key=lambda bar: (-bar[0].b, bar[1]))  # longest first
    return out


def iota(g: Morphism) -> RepMatching:
    """Death-bucket matching under an injective morphism."""
    if not g.is_injective():
        raise ValueError("iota needs an injective morphism")
    src = _death_buckets(barcode(g.source))
    dst = _death_buckets(barcode(g.target))
    pairs: dict[IndexedBar, IndexedBar] = {}
    for death, q in src.items():
        r = dst.get(death, [])
        if len(q) > len(r):
            raise AssertionError(f"injectivity must not lose deaths at {death}")
        for s, d in zip(q, r):
            pairs[s] = d
    return RepMatching(pairs)


def lambda_(h: Morphism) -> RepMatching:
    """Birth-bucket matching under a surjective morphism."""
    if not h.is_surjective():
        raise ValueError("lambda_ needs a surjective morphism")
    src = _birth_buckets(barcode(h.source))
    dst = _birth_buckets(barcode(h.target))
    pairs: dict[IndexedBar, IndexedBar] = {}
    for birth, r in dst.items():
        q = src.get(birth, [])
        if len(r) > len(q):
            raise AssertionError(f"surjectivity must not add births at {birth}")
        for s, d in zip(q, r):
            pairs[s] = d
    return RepMatching(pairs)


def chi(f: Morphism) -> RepMatching:
    """Composite matching through the image factorization of f."""
    _, project, embed = image_factorization(f)
    return lambda_(project).then(iota(embed))


def _validate_representation(sigma: RepMatching, b_src: Barcode, b_dst: Barcode):
    src_bars = set(b_src.rep())
    dst_bars = set(b_dst.rep())
    for s, d in sigma.items():
        if s not in src_bars:
            raise ValueError(f"matched bar {s} is not in the source barcode")
        if d not in dst_bars:
            raise ValueError(f"matched bar {d} is not in the target barcode")


def is_eps_matching(
    sigma: RepMatching, b_src: Barcode, b_dst: Barcode, eps: int
) -> tuple[bool, tuple | None]:
    """Check the epsilon-matching conditions; returns (ok, first violation).

    Bars of persistence above the 2*eps threshold (start + 2*eps <= end)
    must be matched on both sides, and every matched pair must be within
    eps on both endpoints, in both directions.
    """
    _validate_representation(sigma, b_src, b_dst)
    dom = sigma.domain()
    img = sigma.image()
    for bar in b_src.rep():
        iv = bar[0]
        if iv.a + 2 * eps <= iv.b and bar not in dom:
            return False, ("unmatched_source", bar)
    for bar in b_dst.rep():
        iv = bar[0]
        if iv.a + 2 * eps <= iv.b and bar not in img:
            return False, ("unmatched_target", bar)
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
    alpha = persistence_basis(v)
    beta = persistence_basis(u)
    sigma = chi(f)

    # Indexed-bar labels in generator order (generators are already sorted
    # by interval, so indices count occurrences of equal intervals).
    def labels(basis):
        seen: dict[GridInterval, int] = {}
        out = []
        for gen in basis.generators:
            seen[gen.interval] = seen.get(gen.interval, 0) + 1
            out.append((gen.interval, seen[gen.interval]))
        return out

    alpha_labels = labels(alpha)
    beta_gen_by_label = dict(zip(labels(beta), beta.generators))

    partner = []
    for gen, label in zip(alpha.generators, alpha_labels):
        dst = sigma.get(label)
        partner.append(beta_gen_by_label[dst] if dst is not None else None)

    comps = []
    for t in range(1, f.n + 1):
        cols_basis = []
        cols_image = []
        for gen, mate in zip(alpha.generators, partner):
            if not gen.interval.contains(t):
                continue
            cols_basis.append(gen.vector_at(t))
            if mate is not None and mate.interval.contains(t):
                cols_image.append(mate.vector_at(t))
            else:
                cols_image.append(gf.zeros(u.dim(t), 1))
        if cols_basis:
            a_t = np.hstack(cols_basis)
            w_t = np.hstack(cols_image)
            comps.append(gf.matmul(w_t, gf.inverse(a_t, p), p))
        else:
            comps.append(gf.zeros(u.dim(t), 0))
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
