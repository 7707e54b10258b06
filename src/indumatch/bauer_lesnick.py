"""The Bauer-Lesnick induced matching and its relation to the counting one.

An injective morphism matches bars that die together, longest first; a
surjective one matches bars born together, longest first.  A general
morphism factors through its image and composes the two, and the result
depends only on the three barcodes involved: chi reads the source and
target barcodes, which are the bars of the columns and rows of f's
basis matrix M, and the image barcode, read off M too
(BasisMatrix.image_barcode), and never builds the image.  That is also
why it fails to be additive over direct sums.  chi_table takes M alone:
the CLI passes f's, or that of f's shift.  bucket_matching is the one
matching of bars by a shared endpoint; the two factors on a morphism,
iota and lambda_, the eps-matching check and realize_as_m, a companion
morphism whose counting table chi represents, are referees in oracle.py.
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
    matched longest first.  A surjection adds no births, so at a birth
    every target bar needs a partner; an injection loses no deaths, so
    at a death every source bar does.  A shortfall raises InvariantError,
    and any other by ValueError.
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
    the barcodes of M's columns and rows: lambda_ of the projection onto
    the image, then iota of its embedding, from the three barcodes:
    births from source to image, then deaths from image to target."""
    b_src, b_dst = bm.barcodes
    b_img = bm.image_barcode()
    return bucket_matching(b_src, b_img, "birth").then(
        bucket_matching(b_img, b_dst, "death"))
