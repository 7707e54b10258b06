"""The Bauer-Lesnick induced matching and its relation to the counting one.

An injective morphism matches bars that die together, longest first; a
surjective one matches bars born together, longest first.  A general
morphism factors through its image and composes the two, and the result
depends only on the three barcodes involved: chi reads the source and
target barcodes, which are the bars of the columns and rows of f's
basis matrix M, and the image barcode, read off M too
(BasisMatrix.image_barcode), and never builds the image.  That is also
why it fails to be additive over direct sums; realize_as_m builds a
companion morphism whose counting table this matching represents.
chi_table takes M alone: the CLI passes f's, or that of f's shift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf
from .matching import IndexedBar, RepMatching, m_matching, representation
from .modules import (
    Barcode,
    BasisMatrix,
    GridInterval,
    InvariantError,
    Morphism,
    barcode,
    basis_matrix,
    persistence_basis,
)


def _buckets(bc: Barcode, end) -> dict[int, list[IndexedBar]]:
    """Indexed bars grouped by the endpoint end(interval), longest first."""
    out: dict[int, list[IndexedBar]] = {}
    for iv, l in bc.rep():
        out.setdefault(end(iv), []).append((iv, l))
    for bucket in out.values():
        bucket.sort(key=lambda bar: (-bar[0].length, bar[1]))
    return out


def _bucket_matching(b_src: Barcode, b_dst: Barcode, by: str) -> RepMatching:
    """Bars born together (by="birth") or dying together (by="death")
    matched longest first.  A surjection adds no births, so at a birth
    every target bar needs a partner; an injection loses no deaths, so
    at a death every source bar does.  A shortfall raises InvariantError.
    """
    end = (lambda iv: iv.a) if by == "birth" else (lambda iv: iv.b)
    src, dst = _buckets(b_src, end), _buckets(b_dst, end)
    pairs: dict[IndexedBar, IndexedBar] = {}
    for t in sorted(src.keys() | dst.keys()):
        q, r = src.get(t, []), dst.get(t, [])
        need, have = (r, q) if by == "birth" else (q, r)
        if len(need) > len(have):
            side = "target" if by == "birth" else "source"
            raise InvariantError(f"{len(need)} {side} bars with {by} t={t} but only"
                                 f" {len(have)} to match them")
        pairs.update(zip(q, r))
    return RepMatching(pairs)


def iota(g: Morphism) -> RepMatching:
    """Death-bucket matching under an injective morphism."""
    if not g.is_injective():
        raise ValueError("iota needs an injective morphism")
    return _bucket_matching(barcode(g.source), barcode(g.target), "death")


def lambda_(h: Morphism) -> RepMatching:
    """Birth-bucket matching under a surjective morphism."""
    if not h.is_surjective():
        raise ValueError("lambda_ needs a surjective morphism")
    return _bucket_matching(barcode(h.source), barcode(h.target), "birth")


def chi(f: Morphism) -> RepMatching:
    """The Bauer-Lesnick matching of f: chi_table of its M."""
    return chi_table(basis_matrix(f))


def chi_table(bm: BasisMatrix) -> RepMatching:
    """The Bauer-Lesnick matching of the morphism whose M is bm, between
    the barcodes of M's columns and rows: lambda_ of the projection onto
    the image, then iota of its embedding, from the three barcodes:
    births from source to image, then deaths from image to target."""
    b_src, b_dst = bm.barcodes
    b_img = bm.image_barcode()
    return _bucket_matching(b_src, b_img, "birth").then(
        _bucket_matching(b_img, b_dst, "death"))


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
