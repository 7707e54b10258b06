"""The Bauer-Lesnick induced matching and its relation to the counting one.

An injective morphism matches bars that die together, longest first; a
surjective one matches bars born together, longest first (Claim B1).  A
general morphism factors through its image and composes the two, so chi
depends only on three barcodes, all read off f's basis matrix M, and
never builds the image (Claim B2).  chi_table takes M alone: the CLI
passes f's, or that of f's shift.  bucket_matching is the one matching
of bars by a shared endpoint; the two factors on a morphism, iota and
lambda_, the eps-matching check and realize_as_m, a companion morphism
whose counting table chi represents, are referees in oracle.py.
"""

from __future__ import annotations

from .matching import IndexedBar, RepMatching
from .modules import Barcode, BasisMatrix, InvariantError, Morphism, basis_matrix


def _buckets(bc: Barcode, end) -> dict[int, list[IndexedBar]]:
    """Indexed bars grouped by the endpoint end(interval), longest first."""
    out: dict[int, list[IndexedBar]] = {}
    for iv, l in bc.rep():
        out.setdefault(end(iv), []).append((iv, l))
    for bucket in out.values():
        bucket.sort(key=lambda bar: (-bar[0].length, bar[1]))
    return out


def bucket_matching(b_src: Barcode, b_dst: Barcode, by: str) -> RepMatching:
    """Bars born together (by="birth") or dying together (by="death")
    matched longest first.  At a birth every target bar needs a partner,
    and at a death every source bar does (Claim B1): a shortfall raises
    InvariantError, and any other by ValueError.

    Claim B1 (Bauer and Lesnick, "Induced matchings of barcodes and the
    algebraic stability of persistence", proved there).  Under an
    injective morphism, the death buckets matched longest first pair
    every source bar, each with a target bar of its death at least as
    long.  Under a surjective one, the birth buckets matched longest
    first pair every target bar, each with a source bar of its birth at
    least as long.
    """
    if by not in ("birth", "death"):
        raise ValueError(f'bucket_matching by {by!r}: expected "birth" or "death"')
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


def chi(f: Morphism) -> RepMatching:
    """The Bauer-Lesnick matching of f: chi_table of its M."""
    return chi_table(basis_matrix(f))


def chi_table(bm: BasisMatrix) -> RepMatching:
    """The Bauer-Lesnick matching of the morphism whose M is bm, between
    the barcodes of M's columns and rows.

    Claim B2 (chi from three barcodes).  chi is lambda_ of the projection
    onto the image, then iota of its embedding, and equals
    bucket_matching of the source and image barcodes by birth, then of
    the image and target barcodes by death; the source and target
    barcodes are the bars of M's columns and rows, and the image barcode
    is read off M (Claim M7).  Buckets of different summands merge, so
    chi is not additive over direct sums.
    Proof.  The projection is surjective and the embedding injective, so
    each factor is the bucket matching of its two ends (Claim B1), and a
    bucket matching reads only the barcodes of its ends.
    """
    b_src, b_dst = bm.barcodes
    b_img = bm.image_barcode()
    return bucket_matching(b_src, b_img, "birth").then(
        bucket_matching(b_img, b_dst, "death"))
