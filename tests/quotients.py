"""GF(p) quotient calculus and the comparison module built with it.

The library reads the comparison modules off the persistence bases and
no longer walks quotients of subspaces of W(t).  These are the old
definitions, kept as referees: preimages, complements, the map a linear
map induces between two quotients, and ref_x_module, the subspace walk
on oracle's y spaces that built each comparison module with them.
"""

from __future__ import annotations

import numpy as np

from indumatch import gf, zero_module
from indumatch.gf import DimensionMismatch, Subspace
from indumatch.modules import InvariantError, PersistenceModule
from indumatch.oracle import XModule, y_minus, y_plus


class ContainmentError(ValueError):
    """A subspace expected to contain another does not."""


class WellDefinednessError(ValueError):
    """A map does not respect the given filtrations."""


def preimage(m, s: Subspace, p: int) -> Subspace:
    """{v : m v in s}, a subspace of the domain of m.

    The domain part of the null space of [m | S]; as in gf.intersect,
    that kernel basis is left uncanonicalized because only its image is
    kept.
    """
    m = gf.normalize(m, p)
    if m.shape[0] != s.ambient or s.p != p:
        raise DimensionMismatch(
            f"map into GF({p})^{m.shape[0]} vs subspace of GF({s.p})^{s.ambient}"
        )
    if s.dim == s.ambient:
        return Subspace.full(m.shape[1], p)
    k = gf.null_basis(np.hstack([m, s.basis]), p)
    return Subspace.image(k[: m.shape[1]], p)


def quotient_dim(big: Subspace, small: Subspace) -> int:
    big._check_compatible(small)
    if not big.contains(small):
        raise ContainmentError("quotient by a space that is not contained")
    return big.dim - small.dim


def complement_columns(big: Subspace, small: Subspace) -> np.ndarray:
    """Columns of big's canonical basis extending small to a basis of big.

    Deterministic: the columns of big's echelon basis, left to right,
    that are not in the span of small and the columns before them, read
    off as the pivots of one rref of [small | big].  Requires small <= big.
    """
    big._check_compatible(small)
    if not big.contains(small):
        raise ContainmentError("complement of a space that is not contained")
    _, pivots = gf.rref(np.hstack([small.basis, big.basis]), big.p)
    return big.basis[:, [c - small.dim for c in pivots if c >= small.dim]]


def induced_map_on_quotients(
    m,
    src_big: Subspace,
    src_small: Subspace,
    dst_big: Subspace,
    dst_small: Subspace,
    p: int,
) -> np.ndarray:
    """Matrix of the map (src_big/src_small) -> (dst_big/dst_small).

    Coordinates are the canonical complement bases on both sides.  Raises
    WellDefinednessError when m does not carry the source filtration into
    the target one.
    """
    m = gf.normalize(m, p)
    if m.shape[1] != src_big.ambient or m.shape[0] != dst_big.ambient:
        raise DimensionMismatch(
            f"map shape {m.shape} does not match ambients "
            f"{src_big.ambient} -> {dst_big.ambient}"
        )
    c_src = complement_columns(src_big, src_small)
    c_dst = complement_columns(dst_big, dst_small)
    if src_small.dim and not dst_small.contains(
        Subspace.image(gf.matmul(m, src_small.basis, p), p)
    ):
        raise WellDefinednessError("m does not map src_small into dst_small")
    if src_big.dim and not dst_big.contains(
        Subspace.image(gf.matmul(m, src_big.basis, p), p)
    ):
        raise WellDefinednessError("m does not map src_big into dst_big")
    q = c_src.shape[1]
    r = c_dst.shape[1]
    if q == 0:
        return gf.zeros(r, 0)
    coords = gf.solve(np.hstack([c_dst, dst_small.basis]), gf.matmul(m, c_src, p), p)
    if coords is None:  # pragma: no cover - excluded by the checks above
        raise WellDefinednessError("image not contained in target quotient")
    return coords[:r].copy()


def ref_x_module(f, i, j) -> XModule:
    """The quotient of y_plus by the saturated absorbed part, on the full grid.

    The absorbed space at the shared death is y_minus n y_plus; walking
    left, a direction is absorbed as soon as its pushforward eventually
    is.  This keeps every structure map of the quotient injective, so
    all of its bars die together at the right end of the overlap, and
    its dimension there counts them.
    """
    p = f.p
    n = f.n
    support = i.intersect(j)
    if support is None:
        return XModule(None, zero_module(n, p))
    big = {t: y_plus(f, i, j, t) for t in support}
    small: dict[int, Subspace] = {}
    dims = [0] * n
    for t in reversed(list(support)):
        if t == support.b:
            small[t] = gf.intersect(y_minus(f, i, j, t), big[t])
        else:
            pulled = preimage(f.target.map(t), small[t + 1], p)
            small[t] = gf.intersect(pulled, big[t])
        dims[t - 1] = big[t].dim - small[t].dim
    maps = []
    for t in range(1, n):
        if support.contains(t) and support.contains(t + 1):
            mt = induced_map_on_quotients(
                f.target.map(t), big[t], small[t], big[t + 1], small[t + 1], p
            )
            if gf.rank(mt, p) != dims[t - 1]:
                raise InvariantError(f"comparison module of ({i},{j}) not injective"
                                     f" at t={t}")
            maps.append(mt)
        else:
            maps.append(gf.zeros(dims[t], dims[t - 1]))
    return XModule(support, PersistenceModule(p, dims, maps))
