"""Bar-pair comparison modules and the induced matching tables."""

from __future__ import annotations

import ast
import dataclasses
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import indumatch
from indumatch import (
    Barcode,
    Morphism,
    barcode,
    direct_sum,
    direct_sum_morphism,
    gf,
    hom_exists,
    interval_module,
    g_matching,
    m_matching,
    one_eps_morphism,
    persistence_basis,
    random_ladder,
    random_module,
    representation,
    shift_morphism,
    v_minus,
    x_module,
    y_minus,
    y_plus,
    zero_module,
)
from indumatch.gf import Subspace
from indumatch import matching
from indumatch.matching import GMatchingTable, MMatchingTable
from indumatch.modules import BasisMatrix, InvariantError, basis_matrix
from indumatch.oracle import pushed, sum_subspaces

import quotients
from conftest import bar_pair_morphism, iv, mat, ref_shift_morphism


def lib_dims(bm, i, j):
    """matching._comparison_dims of (I, J) on bm, off the _reduce of I's
    group at K.b, whatever the entry there."""
    entries = matching._reduce(bm, j, i.a, min(i.b, j.b))[0]
    return matching._comparison_dims(bm, i, j, *entries[i.b])


def interval_hom(n, p, src, dst):
    """The canonical nonzero map between interval modules (dst <= src)."""
    source = interval_module(n, p, src)
    target = interval_module(n, p, dst)
    overlap = src.intersect(dst)
    comps = []
    for t in range(1, n + 1):
        rows = 1 if dst.contains(t) else 0
        cols = 1 if src.contains(t) else 0
        c = gf.zeros(rows, cols)
        if overlap is not None and overlap.contains(t):
            c[0, 0] = 1
        comps.append(c)
    return Morphism(source, target, comps).validate()


# ---------------------------------------------------------------------------
# y spaces


def test_y_plus_crossed_pair_vanishes(thick_ladder):
    assert y_plus(thick_ladder, iv(2, 3), iv(1, 2), 2).dim == 0


def test_y_plus_diagonal_is_the_antidiagonal_line(thick_ladder):
    s = y_plus(thick_ladder, iv(2, 3), iv(2, 3), 2)
    assert s == Subspace.image(mat([[1], [1]]), 2)


def test_y_minus_meets_y_plus_trivially_on_diagonal(thick_ladder):
    yp = y_plus(thick_ladder, iv(2, 3), iv(2, 3), 2)
    ym = y_minus(thick_ladder, iv(2, 3), iv(2, 3), 2)
    assert gf.intersect(ym, yp).dim == 0


def test_y_spaces_zero_for_zero_morphism(chain_module):
    z = Morphism.zero(chain_module, chain_module)
    for interval in barcode(chain_module).intervals():
        for t in interval:
            assert y_plus(z, interval, interval, t).dim == 0


def test_y_spaces_zero_off_overlap(wide_ladder):
    assert y_plus(wide_ladder, iv(1, 3), iv(1, 4), 4).ambient == 1
    assert y_plus(wide_ladder, iv(2, 4), iv(2, 3), 1).dim == 0


# Referee: y_plus at t of a walk as P_t N_t, one product per step, with
# N_t a null basis of its own: of P_t, the first |P_t| columns of P, built
# here from the bars as the walk orders it (|P_t| from
# matching._prefixes), on the rows of _off_plus at t.


def ref_plus_cols(bm, i, t):
    """The src_plus(I) columns alive at t, latest death first, ties in
    M's order."""
    cols = ((bm.src_a <= i.a) & (bm.src_b <= i.b) & (bm.src_b >= t)).nonzero()[0]
    return cols[np.argsort(-bm.src_b[cols], kind="stable")]


def ref_walk_plus(bm, i, j):
    """P, the src_plus(I) columns of M alive at K.a, latest death first."""
    return bm.m[:, ref_plus_cols(bm, i, max(i.a, j.a))]


def ref_null(bm, i, j, walk, t):
    """N_t, columns spanning the null space of P_t on _off_plus at t."""
    n = matching._prefixes(walk, t)[0]
    return gf.null_basis(ref_walk_plus(bm, i, j)[matching._off_plus(bm, j, t), :n], bm.p)


def ref_upper(bm, i, j, walk, t):
    """y_plus at t, P_t N_t, by product."""
    n = matching._prefixes(walk, t)[0]
    return gf.matmul(ref_walk_plus(bm, i, j)[:, :n], ref_null(bm, i, j, walk, t), bm.p)


# Referee: the y spaces as pushed subspaces (oracle.y_plus, oracle.y_minus),
# f_t of the source operators met and summed with the target's in W(t),
# against what the library reads off M at t, mapped back to W(t) through
# the target generators alive at t: y_plus as P_t N_t (ref_upper) off the
# reductions of matching._walk_reduce, and the lower columns on J's own
# rows and the count of matching._reduce at t.  The lower columns span
# y_minus met with J's own rows, since y_minus holds the coordinates of
# every other row alive at t in tgt_plus(J).  The referee walk's ref_lower
# is held to all of y_minus at every t too.


def lib_y_spaces(f, i, j, t):
    bm, b = basis_matrix(f), persistence_basis(f.target).vectors[t - 1]
    alive = (bm.tgt_a <= t) & (bm.tgt_b >= t)
    own = (bm.tgt_a == j.a) & (bm.tgt_b == j.b)
    count, lower = matching._reduce(bm, j, i.a, t)[0][i.b]
    walk = matching._walk_reduce(bm, i, j, lower)
    upper = gf.matmul(b, ref_upper(bm, i, j, walk, t)[alive], f.p)
    return (Subspace.image(upper, f.p),
            Subspace.image(gf.matmul(b[:, own[alive]], lower.T, f.p), f.p), count)


def ref_y_minus(f, i, j, t):
    bm, b = basis_matrix(f), persistence_basis(f.target).vectors[t - 1]
    alive = (bm.tgt_a <= t) & (bm.tgt_b >= t)
    lower, rows = ref_lower(bm, i, j, t)
    lower = gf.matmul(b, lower[alive], f.p)
    return Subspace.image(np.hstack([lower, b[:, rows[alive]]]), f.p)


def assert_y_spaces_match_referee(f):
    bm = basis_matrix(f)
    for i in barcode(f.source).intervals():
        for j in barcode(f.target).intervals():
            k = i.intersect(j)
            if k is None:
                continue
            for t in k:
                yp, ym = y_plus(f, i, j, t), y_minus(f, i, j, t)
                b = persistence_basis(f.target).vectors[t - 1]
                alive = (bm.tgt_a <= t) & (bm.tgt_b >= t)
                own = Subspace.image(b[:, ((bm.tgt_a == j.a) & (bm.tgt_b == j.b))[alive]], f.p)
                count = sum_subspaces(ym, yp).dim - ym.dim
                assert lib_y_spaces(f, i, j, t) == (yp, gf.intersect(ym, own), count), (i, j, t)
                assert ref_y_minus(f, i, j, t) == ym, (i, j, t)
            # t is now the shared death, where the entry is counted.
            assert matching._reduce(bm, j, i.a, k.b)[0][i.b][0] == count, ("count", i, j)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 6),
    max_dim=st.integers(0, 4),
    p=st.sampled_from([2, 5]),
    seed=st.integers(0, 2**16),
    other=st.integers(0, 2**16),
    eps=st.integers(0, 4),
)
def test_y_spaces_match_pushed_subspace_referee(n, max_dim, p, seed, other, eps):
    # Subspace bases are canonical, so == is equality of subspaces.
    f = random_ladder(n, max_dim, p, seed)
    g = random_ladder(n, max_dim, p, other)
    for h in (f, shift_morphism(f, min(eps, n - 1)), direct_sum_morphism(f, g)):
        assert_y_spaces_match_referee(h)


# ---------------------------------------------------------------------------
# comparison modules


def test_x_module_diagonal_of_thick_ladder(thick_ladder):
    x = x_module(thick_ladder, iv(2, 3), iv(2, 3))
    assert x.support == iv(2, 3)
    assert x.module.dims == (0, 1, 1)
    assert np.array_equal(x.module.map(2), mat([[1]]))
    assert barcode(x.module) == Barcode.from_pairs([(2, 3, 1)])


def test_x_module_empty_overlap_is_zero(wide_ladder):
    x = x_module(wide_ladder, iv(1, 1), iv(3, 4))
    assert x.support is None
    assert x.module.is_zero()


def test_x_modules_of_wide_ladder(wide_ladder):
    x1 = x_module(wide_ladder, iv(1, 3), iv(1, 3))
    assert barcode(x1.module) == Barcode.from_pairs([(1, 3, 1)])
    x2 = x_module(wide_ladder, iv(2, 4), iv(1, 4))
    assert barcode(x2.module) == Barcode.from_pairs([(4, 4, 1)])


def test_x_modules_of_shifted_wide_ladder(wide_ladder):
    g = shift_morphism(wide_ladder, 1)
    x1 = x_module(g, iv(1, 2), iv(1, 2))
    assert barcode(x1.module) == Barcode.from_pairs([(1, 2, 1)])
    x2 = x_module(g, iv(2, 3), iv(1, 3))
    assert barcode(x2.module) == Barcode.from_pairs([(3, 3, 1)])


def test_x_module_of_a_bar_that_is_not_a_source_bar_is_zero():
    # [5,6] is a target bar of this ladder, twice, but no source bar: the
    # g table has no entry for ([5,6], [5,6]), as G_f has no generators
    # there, so the comparison module is zero on the overlap.
    f = random_ladder(6, 3, 2, 5)
    assert barcode(f.source).mult(iv(5, 6)) == 0 and barcode(f.target).mult(iv(5, 6)) == 2
    x = x_module(f, iv(5, 6), iv(5, 6))
    assert x.support == iv(5, 6)
    assert x.module.dims == (0,) * 6


def test_x_module_dims_nondecreasing_on_support():
    rng = random.Random(53)
    for seed in range(25):
        f = random_ladder(6, 4, rng.choice([2, 5]), 6000 + seed)
        for i in barcode(f.source).intervals():
            for j in barcode(f.target).intervals():
                x = x_module(f, i, j)
                if x.support is None:
                    continue
                dims = [x.module.dim(t) for t in x.support]
                assert dims == sorted(dims)


def test_witness_trips_on_an_m_off_its_support():
    # Source [1,1], [1,2], [2,2] and target [1,2], [2,2] over GF(2); M[0, 0]
    # sends [1,1] onto [1,2], which no natural map does.  Along K = [1,2]
    # of ([1,2], [1,2]) the walk would read column [1,1] at t = 1 only, and
    # its image does not die with it, so y_plus at 1 would not be carried
    # into y_plus at 2.  Such an M is refused where it is made, on that
    # column and row.
    with pytest.raises(InvariantError, match=r"^f at t=1 sends source generator \[1,1\]"
                                             r" onto target generator \[1,2\] with"
                                             r" coefficient 1,"):
        BasisMatrix(2, np.array([1, 1, 2]), np.array([1, 2, 2]), np.array([1, 2]),
                    np.array([2, 2]), mat([[1, 1, 1], [0, 0, 1]]))


def test_witness_trips_where_a_column_dies_below_the_shared_death():
    # Source [1,1], [1,3] and target [1,3] over GF(2); M[0, 0] sends [1,1]
    # onto [1,3], which no natural map does.  Along K = [1,3] of
    # ([1,3], [1,3]) P keeps its one column from t = 3 down to t = 2, and
    # [1,1] joins it at t = 1, below K.b - 1: its image does not die with
    # it, so y_plus at 1 would not be carried into y_plus at 2.  Such an M
    # is refused where it is made, on that column and row.
    with pytest.raises(InvariantError, match=r"^f at t=1 sends source generator \[1,1\]"
                                             r" onto target generator \[1,3\] with"
                                             r" coefficient 1,"):
        BasisMatrix(3, np.array([1, 1]), np.array([1, 3]), np.array([1]), np.array([3]),
                    mat([[1, 1]]))


# What the walk's containment (Claim T9) rests on, on the nonzero pairs of
# g_table, walked or not: every M that basis_matrix or a shift built
# walks, and the BasisMatrix constructor refuses, at t and naming the
# column and the row, that M with one entry moved off its support: a
# column of P dying at a t in [K.a, K.b) made nonzero on a row that
# outlives it.


def assert_support_check_trips_off_the_support(bm):
    """The above for every nonzero pair of g_table in every block of bm.
    Returns the number of entries moved."""
    moved = 0
    for block, i, j, entry, lower in matching._pairs(bm):
        if not entry:
            continue
        matching._comparison_dims(block, i, j, entry, lower)
        ka, kb = max(i.a, j.a), min(i.b, j.b)
        dying = (block.src_a <= i.a) & (block.src_b >= ka) & (block.src_b < kb)
        for c in dying.nonzero()[0].tolist():
            a, t = block.src_a[c], block.src_b[c]
            for r in (block.tgt_b > t).nonzero()[0].tolist():
                m = block.m.copy()
                m[r, c] = 1
                row = f"[{block.tgt_a[r]},{block.tgt_b[r]}]"
                message = (f"f at t={a} sends source generator [{a},{t}] onto target generator"
                           f" {row} with coefficient 1, but no nonzero map [{a},{t}] -> {row}"
                           " exists")
                with pytest.raises(InvariantError, match=f"^{re.escape(message)}$"):
                    dataclasses.replace(block, m=m)
                moved += 1
    return moved


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(3, 8),
    p=st.sampled_from([2, 3, 5, 7]),
    parts=st.lists(st.tuples(st.booleans(), st.integers(1, 5), st.integers(0, 2**16)),
                   min_size=1, max_size=2),
    eps=st.integers(1, 2),
)
def test_support_check_trips_exactly_off_the_support(n, p, parts, eps):
    # A part is a seeded ladder of dims up to size, or a bar-pair morphism
    # of 2 size bars a side, of up to 5 positions; M is that of the part or
    # of a 2-way sum, and its shift.
    bm = basis_matrix(direct_sum_morphism(*(
        bar_pair_morphism(n, 2 * size, min(n, 5), p, seed) if bars
        else random_ladder(n, size, p, seed)
        for bars, size, seed in parts)))
    for m in (bm, bm.shift(min(eps, n - 1))):
        assert_support_check_trips_off_the_support(m)


def test_support_check_property_moves_entries():
    # The property above moves entries off the support of bar-pair sums.
    bm = basis_matrix(bar_pair_morphism(6, 10, 4, 5, 3))
    assert assert_support_check_trips_off_the_support(bm) > 0


# Referee: the comparison module by the subspace walk in W(t), against its
# dims read off M.  For every pair that loses a column of P inside K, an M
# whose last such column, dying at t0, is made a unit vector on a row of
# J's own, alive at t0 + 1, is off its support there, so its construction
# must be refused on that column, dying at t0, and J's row.  A pair whose
# overlap loses no row alive outside tgt_plus(J) reads no pair reduction
# at all.


def loses_off_row(bm, i, j):
    """Whether a row alive outside tgt_plus(J) read at K.a is not read at
    K.b: a row of off of the walk of (I, J) dies inside its overlap K."""
    ka, kb = max(i.a, j.a), min(i.b, j.b)
    return bool((ref_off_plus(bm, j, ka) != ref_off_plus(bm, j, kb)).any())


def last_p_death(bm, i, j):
    """The latest death in [K.a, K.b) of a src_plus(I) column, or None."""
    ka, kb = max(i.a, j.a), min(i.b, j.b)
    ends = bm.src_b[(bm.src_a <= i.a) & (bm.src_b <= i.b) & (bm.src_b >= ka) & (bm.src_b < kb)]
    return int(ends.max()) if len(ends) else None


def _refused(*args):
    raise AssertionError("a walk that loses no row of off read a pair reduction")


def dying_column_on_own_row(bm, i, j, t0):
    """bm with its last src_plus(I) column to die at t0 made the unit
    vector of J's first own row, alive at t0 + 1 as J.b >= K.b > t0, which
    the BasisMatrix constructor refuses.  The column is not alive at K.b,
    so the reduction there would not read it."""
    c = np.flatnonzero((bm.src_a <= i.a) & (bm.src_b == t0))[-1]
    r = np.flatnonzero((bm.tgt_a == j.a) & (bm.tgt_b == j.b))[0]
    m = bm.m.copy()
    m[:, c] = 0
    m[r, c] = 1
    return dataclasses.replace(bm, m=m)


def assert_comparison_modules_match_referee(f):
    table = g_matching(f)
    bm = basis_matrix(f)
    for i in barcode(f.source).intervals():
        for j in barcode(f.target).intervals():
            k = i.intersect(j)
            if k is None:
                continue
            ref = quotients.ref_x_module(f, i, j)
            assert x_module(f, i, j).module.dims == ref.module.dims, ("dims", i, j)
            assert table.get(i, j) == barcode(ref.module), ("g", i, j)
            if not loses_off_row(bm, i, j):
                with mock.patch.object(matching, "_walk_reduce", _refused):
                    dims = lib_dims(bm, i, j)
                assert dims == [ref.module.dim(t) for t in range(k.b, k.a - 1, -1)], ("dims", i, j)
            t0 = last_p_death(bm, i, j)
            if t0 is not None:
                with pytest.raises(InvariantError, match=rf"source generator \[\d+,{t0}\] onto"
                                                         rf" target generator \[{j.a},{j.b}\] "):
                    dying_column_on_own_row(bm, i, j, t0)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(2, 6),
    max_dim=st.integers(1, 4),
    p=st.sampled_from([2, 3, 5]),
    seed=st.integers(0, 2**16),
    other=st.integers(0, 2**16),
    eps=st.integers(0, 4),
)
def test_comparison_modules_match_subspace_walk_referee(n, max_dim, p, seed, other, eps):
    f = random_ladder(n, max_dim, p, seed)
    g = random_ladder(n, max_dim, p, other)
    for h in (f, shift_morphism(f, min(eps, n - 1)), direct_sum_morphism(f, g)):
        assert_comparison_modules_match_referee(h)


# ---------------------------------------------------------------------------
# tables


def test_g_matching_thick_ladder(thick_ladder):
    table = g_matching(thick_ladder)
    assert table.as_dict() == {
        (iv(2, 3), iv(2, 3)): Barcode.from_pairs([(2, 3, 1)])
    }


def test_g_matching_of_identity_is_diagonal(chain_module):
    table = g_matching(Morphism.identity(chain_module))
    expect = {
        (interval, interval): Barcode.from_pairs([(interval.a, interval.b, mult)])
        for interval, mult in barcode(chain_module).items()
    }
    assert table.as_dict() == expect


def test_g_matching_zero_morphism_is_empty(chain_module):
    table = g_matching(Morphism.zero(chain_module, chain_module))
    assert len(table) == 0


def test_m_matching_reference(reference_ladder):
    assert m_matching(reference_ladder).as_dict() == {(iv(2, 2), iv(1, 2)): 1}


def test_m_matching_thick(thick_ladder):
    assert m_matching(thick_ladder).as_dict() == {(iv(2, 3), iv(2, 3)): 1}


def test_m_matching_zero_modules_give_empty_tables():
    z = zero_module(4, 2)
    m = random_module(4, 3, 2, random.Random(1))
    assert len(m_matching(Morphism.zero(m, z))) == 0
    assert len(m_matching(Morphism.zero(z, m))) == 0


def test_tables_add_over_direct_sums():
    for seed in range(15):
        f = random_ladder(5, 3, 2, 100 + seed)
        g = random_ladder(5, 3, 2, 200 + seed)
        total = direct_sum_morphism(f, g)
        want_m = m_matching(f).as_dict()
        for key, c in m_matching(g).items():
            want_m[key] = want_m.get(key, 0) + c
        assert m_matching(total).as_dict() == want_m
        want_g = g_matching(f).as_dict()
        for key, bars in g_matching(g).items():
            want_g[key] = want_g.get(key, Barcode()).union(bars)
        assert g_matching(total).as_dict() == want_g


def test_doubling_a_ladder_doubles_its_table():
    f = random_ladder(6, 4, 2, 424242)
    doubled = m_matching(direct_sum_morphism(f, f)).as_dict()
    assert doubled == {k: 2 * c for k, c in m_matching(f).items()}


def test_matched_pairs_are_admissible():
    # Entries vanish unless the target bar starts no later and ends no
    # later than the source bar, with overlap.
    for seed in range(40):
        f = random_ladder(6, 4, 2 if seed % 2 else 5, 3000 + seed)
        for (i, j), c in m_matching(f).items():
            assert c > 0
            assert j.a <= i.a <= j.b <= i.b


def full_scan_counts(f):
    """Every bar pair counted, with the two-space form of the entry."""
    counts = {}
    for i in barcode(f.source).intervals():
        for j in barcode(f.target).intervals():
            k = i.intersect(j)
            if k is None:
                continue
            yp = y_plus(f, i, j, k.b)
            ym = y_minus(f, i, j, k.b)
            c = yp.dim - gf.intersect(ym, yp).dim
            assert matching._reduce(basis_matrix(f), j, i.a, k.b)[0][i.b][0] == c
            if not hom_exists(i, j):
                assert c == 0, (i, j)
            if c:
                counts[(i, j)] = c
    return counts


def test_pruned_table_equals_full_scan():
    # m_matching visits only hom pairs; scanning every pair must agree.
    for seed in range(24):
        p = 2 if seed % 2 else 5
        f = random_ladder(6, 4, p, 5000 + seed)
        for g in (f, shift_morphism(f, 1)):
            assert m_matching(g).as_dict() == full_scan_counts(g)


def _bar_set(starts, ends):
    return set(zip(starts.tolist(), ends.tolist()))


def test_entry_counts_only_for_hom_pairs(monkeypatch):
    # Each block of M walks the hom pairs of its own bars, and only those.
    f = direct_sum_morphism(random_ladder(6, 4, 2, 11), random_ladder(6, 4, 2, 12))
    blocks = basis_matrix(f).blocks()
    hom_pairs = sum(
        hom_exists(i, j)
        for b in blocks
        for i in matching._bars(b.src_a, b.src_b)
        for j in matching._bars(b.tgt_a, b.tgt_b)
    )
    visited = {}  # id of a block -> the block and the pairs it counted
    real_pairs = matching._pairs

    def counting(bm):
        for pair in real_pairs(bm):
            block, i, j = pair[:3]
            visited.setdefault(id(block), (block, []))[1].append((i, j))
            yield pair

    monkeypatch.setattr(matching, "_pairs", counting)
    m_matching(f)
    assert len(visited) == len(blocks) > 1
    pairs = [(block, i, j) for block, seen in visited.values() for i, j in seen]
    assert 0 < len(pairs) == hom_pairs
    for block, i, j in pairs:
        assert hom_exists(i, j)
        assert (i.a, i.b) in _bar_set(block.src_a, block.src_b), (i, j)
        assert (j.a, j.b) in _bar_set(block.tgt_a, block.tgt_b), (i, j)
    for _, seen in visited.values():
        assert len(set(seen)) == len(seen)  # no pair twice in one block


def test_each_table_reads_only_the_positions_it_needs(monkeypatch):
    # Each table reduces one Q per (block, J, I.a) of its hom pairs, up to
    # the first start whose Q spans J's own rows, after which a start
    # counts 0 with no reduction (Claim T12).  A reduction counts the
    # pairs at K.b.  m stops there and makes no pair reduction
    # (_walk_reduce); g walks on along K, |K| - 1 steps more, only where
    # the count at K.b is nonzero and a row of the walk's off dies inside
    # K, and reads every step off the two reductions of one _walk_reduce
    # per such pair, not one per step.  A nonzero pair whose overlap
    # loses no row of off (kept) makes no pair reduction, whatever
    # columns of P it loses.
    f = direct_sum_morphism(random_ladder(6, 4, 2, 11), random_ladder(6, 4, 2, 12))
    calls = Counter()

    def counting(name):
        real = getattr(matching, name)

        def count(*args):
            calls[name] += 1
            return real(*args)
        return count

    for eps in (0, 1):
        bm = basis_matrix(f).shift(eps)
        hom_pairs = walked = more = kept = 0
        groups, reduced = set(), set()
        for k, block in enumerate(bm.blocks()):
            counts = matching.m_table(block)
            fills = filling_starts(block)
            for i in matching._bars(block.src_a, block.src_b):
                for j in matching._bars(block.tgt_a, block.tgt_b):
                    if hom_exists(i, j):
                        hom_pairs += 1
                        groups.add((k, j, i.a))
                        if i.a <= fills.get(j, i.a):
                            reduced.add((k, j, i.a))
                        if counts.get(i, j) and i.intersect(j).length:
                            if loses_off_row(block, i, j):
                                walked += 1
                                more += i.intersect(j).length
                            else:
                                kept += 1
        assert (walked, more, kept) == ((1, 3, 0), (0, 0, 1))[eps], eps
        assert (len(groups), len(reduced)) == ((6, 4), (3, 2))[eps], eps
        with monkeypatch.context() as patch:
            for name in ("_walk_reduce", "_reduce"):
                patch.setattr(matching, name, counting(name))
            calls.clear()
            matching.m_table(bm)
            assert calls == {"_reduce": len(reduced)}, eps
            calls.clear()
            matching.g_table(bm)
            assert calls == Counter(_reduce=len(reduced), _walk_reduce=walked), eps


# Referee: the comparison walk as it was before the tables read their
# counts off one reduction per (block, J, I.a).  It takes three rrefs per
# step, two null bases, two products and two hstacks: y_plus at t as
# P N with N the null space of P on the rows alive at t outside
# tgt_plus(J), y_minus at K.b as the src_minus columns and the early
# columns times their null space there, and each dim as the pivots of
# one rref of [lower | upper] that fall in upper, on the rows outside
# tgt_plus(J) and J's own rows.  The witness and shrink checks are kept.


def ref_off_plus(bm, j, t):
    """The rows alive at t outside tgt_plus(J); a row not dead by t stands
    in for one alive at t, as M is zero on it at every column alive at t."""
    return (bm.tgt_b >= t) & ((bm.tgt_a > j.a) | (bm.tgt_b > j.b))


def ref_plus(bm, i, j, t):
    """The mask of the src_plus(I) generators alive at t, their columns P,
    and columns N spanning the null space of P on ref_off_plus."""
    cols = (bm.src_a <= i.a) & (bm.src_b <= i.b) & (bm.src_b >= t)
    plus = bm.m[:, cols]
    return cols, plus, gf.null_basis(plus[ref_off_plus(bm, j, t)], bm.p)


def ref_lower(bm, i, j, t):
    """Columns of M spanning y_minus at t off the v_minus_tgt(J) rows, and
    the rows a count at t drops: all but ref_off_plus and J's own."""
    alive = bm.src_b >= t
    off = ref_off_plus(bm, j, t)
    early = bm.m[:, alive & (bm.src_a < i.a)]
    early = gf.matmul(early, gf.null_basis(early[off], bm.p), bm.p)
    src_minus = (alive & (bm.src_a <= i.a) & (bm.src_b <= i.b)
                 & ((bm.src_a < i.a) | (bm.src_b < i.b)))
    own = (bm.tgt_a == j.a) & (bm.tgt_b == j.b)
    return np.hstack([bm.m[:, src_minus], early]), ~(off | own)


def ref_count(upper, lower, rows, p):
    """dim (span lower + span upper) - dim span lower, modulo the coordinate
    vectors of rows: the pivots of one rref of [lower | upper] off rows
    that fall in upper."""
    _, pivots = gf.rref(np.hstack([lower, upper])[~rows], p)
    return sum(c >= lower.shape[1] for c in pivots)


def ref_comparison_dims(bm, i, j):
    """The dims of the comparison module of (I, J) from K.b leftward, each
    dims[t] = dim (upper_t + y_minus) - dim y_minus at K.b on the rows
    alive at K.b, with the containment and shrink checks between steps."""
    ka, kb = max(i.a, j.a), min(i.b, j.b)
    lower = None  # ref_lower at K.b, built on first need
    plus_l = d_l = None  # P_{t+1} and dims[t+1]
    for t in range(kb, ka - 1, -1):
        cols, plus, null = ref_plus(bm, i, j, t)
        upper = gf.matmul(plus, null, bm.p)
        d = 0
        if upper[bm.tgt_b >= t].any():
            if plus_l is not None:
                y = null[bm.src_b[cols] > t]  # the witness
                later = bm.tgt_b > t  # the rows alive at t+1
                if not np.array_equal(gf.matmul(plus_l[later], y, bm.p), upper[later]):
                    raise InvariantError(f"W_{t} carries y_plus of ({i},{j}) at"
                                         f" t={t} out of y_plus at t={t + 1}")
            if lower is None:
                lower = ref_lower(bm, i, j, kb)
            d = ref_count(upper, *lower, bm.p)
        if plus_l is not None and d > d_l:
            raise InvariantError(f"comparison module of ({i},{j}) shrinks from"
                                 f" {d} to {d_l} at t={t + 1}")
        yield d
        plus_l, d_l = plus, d


def assert_dims_match_walk_referee(bm):
    """The dims of matching._comparison_dims on each pair matching._pairs
    hands the tables, summed over the blocks, and those on the whole of
    bm, equal the referee walk's at every t of every hom pair.  The walk
    of each pair starts from its own unskipped _reduce per (block, J, I.a),
    whose entry and lower _pairs must hand on, and every pair that _pairs
    skips (lower None, Claim T12) must count 0 there."""
    by_blocks = {}
    block_of = None  # the block whose unskipped reductions are kept, by (J, I.a)
    for block, i, j, entry, lower in matching._pairs(bm):
        if block is not block_of:
            block_of, reductions = block, {}
        if (j, i.a) not in reductions:
            reductions[j, i.a] = matching._reduce(block, j, i.a, j.b)[0]
        count, own_lower = reductions[j, i.a][i.b]
        if lower is None:
            assert entry == count == 0, ("skipped", i, j)
        else:
            assert entry == count and np.array_equal(lower, own_lower), (i, j)
        dims = matching._comparison_dims(block, i, j, count, own_lower)
        have = by_blocks.setdefault((i, j), [0] * len(dims))
        by_blocks[i, j] = [a + b for a, b in zip(have, dims)]
    pairs = 0
    for i in matching._bars(bm.src_a, bm.src_b):
        for j in matching._bars(bm.tgt_a, bm.tgt_b):
            if hom_exists(i, j):
                pairs += 1
                ref = list(ref_comparison_dims(bm, i, j))
                assert lib_dims(bm, i, j) == ref, (i, j)
                assert by_blocks.pop((i, j), [0] * len(ref)) == ref, (i, j)
    assert by_blocks == {}
    return pairs


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(3, 8),
    p=st.sampled_from([2, 3, 5, 7]),
    parts=st.lists(st.tuples(st.booleans(), st.integers(1, 5), st.integers(0, 2**16)),
                   min_size=1, max_size=3),
    eps=st.integers(0, 2),
    order=st.randoms(use_true_random=False),
)
def test_comparison_dims_match_the_walk_referee(n, p, parts, eps, order):
    # A part is a seeded ladder of dims up to size, or a bar-pair morphism
    # of 2 size bars a side on short bars, which repeats bars on both sides.
    # The referee reads M by masks, so it holds for M's rows and columns in
    # any order, not only the birth order basis_matrix gives them.
    f = direct_sum_morphism(*(
        bar_pair_morphism(n, 2 * size, min(n, 3), p, seed) if bars
        else random_ladder(n, size, p, seed)
        for bars, size, seed in parts))
    bm = basis_matrix(f).shift(min(eps, n - 1))
    assert_dims_match_walk_referee(bm)
    rows, cols = list(range(bm.m.shape[0])), list(range(bm.m.shape[1]))
    order.shuffle(rows)
    order.shuffle(cols)
    assert_dims_match_walk_referee(bm.select(np.array(rows, dtype=np.int64),
                                             np.array(cols, dtype=np.int64)))


# Referee: Claim T12's fill, whether X_own ker X_off is all of J's own
# rows, by a null basis and a rank, against the flag of _reduce.


def ref_spans_own(block, j, a):
    """Whether the columns alive at J.b with g.a <= a, on the null space of
    their rows in ref_off_plus, span J's own rows."""
    x = block.m[:, (block.src_b >= j.b) & (block.src_a <= a)]
    own = (block.tgt_a == j.a) & (block.tgt_b == j.b)
    null = gf.null_basis(x[ref_off_plus(block, j, j.b)], block.p)
    return gf.rank(gf.matmul(x[own], null, block.p), block.p) == np.count_nonzero(own)


def filling_starts(block):
    """J -> the least start of the block's hom pairs with J whose Q spans
    J's own rows, for each J that has one: the start after which Claim T12
    counts 0.  Every start's _reduce must flag a span exactly where the
    referee finds one."""
    fills = {}
    for i in matching._bars(block.src_a, block.src_b):
        for j in matching._bars(block.tgt_a, block.tgt_b):
            if hom_exists(i, j):
                spans = ref_spans_own(block, j, i.a)
                assert matching._reduce(block, j, i.a, j.b)[1] == spans, (i, j)
                if spans and i.a < fills.get(j, i.a + 1):
                    fills[j] = i.a
    return fills


def assert_skips_follow_claim_t12(bm):
    """In every block of bm, each start after the least one whose Q spans
    J's own rows counts 0 against J in an unskipped _reduce.  _pairs skips
    a start exactly where it comes after a start of that block and J,
    reached earlier, whose Q spans, and hands on every other entry and
    lower unchanged.  Returns the pairs skipped."""
    block_of = None
    skipped = 0
    for block, i, j, entry, lower in matching._pairs(bm):
        if block is not block_of:
            block_of, reached = block, {}  # J -> the least spanning start reached
            fills = filling_starts(block)
            for later in matching._bars(block.src_a, block.src_b):
                for target, a0 in fills.items():
                    if hom_exists(later, target) and later.a > a0:
                        reduced = matching._reduce(block, target, later.a, target.b)[0]
                        assert reduced[later.b][0] == 0, (later, target, a0)
        count, own_lower = matching._reduce(block, j, i.a, j.b)[0][i.b]
        if i.a > reached.get(j, i.a):
            assert entry == 0 and lower is None, ("skipped", i, j)
            skipped += 1
        else:
            assert lower is not None and entry == count, (i, j)
            assert np.array_equal(lower, own_lower), (i, j)
            if ref_spans_own(block, j, i.a):
                reached[j] = i.a
    return skipped


def permuted_columns(bm, order):
    """bm with its columns shuffled by the random order."""
    cols = list(range(bm.m.shape[1]))
    order.shuffle(cols)
    return bm.select(np.arange(bm.m.shape[0]), np.array(cols, dtype=np.int64))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(3, 8),
    p=st.sampled_from([2, 3, 5, 7]),
    parts=st.lists(st.tuples(st.booleans(), st.integers(1, 5), st.integers(0, 2**16)),
                   min_size=1, max_size=3),
    eps=st.integers(0, 2),
    order=st.randoms(use_true_random=False),
)
def test_every_start_after_the_filling_start_counts_zero(n, p, parts, eps, order):
    # Claim T12, on sums of seeded ladders and bar-pair morphisms as in the
    # walk referee's property, with M's columns permuted so that the tables
    # reach a block's starts in any order.
    f = direct_sum_morphism(*(
        bar_pair_morphism(n, 2 * size, min(n, 3), p, seed) if bars
        else random_ladder(n, size, p, seed)
        for bars, size, seed in parts))
    assert_skips_follow_claim_t12(permuted_columns(basis_matrix(f).shift(min(eps, n - 1)),
                                                   order))


def test_claim_t12_skips_starts_in_birth_order_and_out_of_it():
    # On the bar-pair worst case at a reduced size, _pairs skips starts
    # both with M's columns in birth order and shuffled.
    bm = basis_matrix(bar_pair_morphism(8, 16, 4, 3, 2))
    assert assert_skips_follow_claim_t12(bm) > 0
    assert assert_skips_follow_claim_t12(permuted_columns(bm, random.Random(5))) > 0


def test_counts_read_columns_out_of_birth_order():
    # Column [2,3] is I's own and [1,3], of S, comes after it in M.  On the
    # own row [1,2] and the off row [1,3], P = both columns meets the off
    # row's kernel in (1, 1), whose own part is 1, so the entry is 1; I's
    # column alone, or with S after it, would count 0.
    bm = BasisMatrix(2, np.array([2, 1]), np.array([3, 3]), np.array([1, 1]),
                     np.array([2, 3]), mat([[1, 0], [1, 1]]))
    assert matching.m_table(bm).as_dict() == {(iv(2, 3), iv(1, 2)): 1,
                                              (iv(1, 3), iv(1, 3)): 1}
    assert_dims_match_walk_referee(bm)


def test_walk_referee_covers_repeated_bars_on_both_sides():
    # The bar-pair parts of the property above repeat bars on both sides,
    # and the reductions group several sources of one start.
    bm = basis_matrix(bar_pair_morphism(5, 8, 3, 2, 3))
    for starts, ends in ((bm.src_a, bm.src_b), (bm.tgt_a, bm.tgt_b)):
        assert len(matching._bars(starts, ends)) < len(starts)
    groups = {(j, i.a) for _, i, j, _, _ in matching._pairs(bm)}
    assert 0 < len(groups) < assert_dims_match_walk_referee(bm)


def test_walk_referee_covers_pairs_that_walk_and_pairs_that_lose_nothing(monkeypatch):
    # The property above compares with the referee walk both the pairs
    # whose overlap loses a row of off, which walk, and the pairs that
    # lose none, which read their m entry at every t of K with no pair
    # reduction, some of them nonzero and losing a column of P.  A pair
    # walks exactly where it loses a row of off on the whole of M.
    bm = basis_matrix(bar_pair_morphism(6, 10, 4, 2, 3))
    walked = set()
    real_walk_reduce = matching._walk_reduce

    def recorded(block, i, j, lower):
        walked.add((i, j))
        return real_walk_reduce(block, i, j, lower)

    monkeypatch.setattr(matching, "_walk_reduce", recorded)
    assert_dims_match_walk_referee(bm)
    overlaps = [(i, j) for i in matching._bars(bm.src_a, bm.src_b)
                for j in matching._bars(bm.tgt_a, bm.tgt_b)
                if hom_exists(i, j) and i.intersect(j).length]
    assert walked == {(i, j) for i, j in overlaps if loses_off_row(bm, i, j)}
    kept = [(i, j) for i, j in overlaps if (i, j) not in walked]
    assert walked and any(lib_dims(bm, i, j)[0] and last_p_death(bm, i, j) is not None
                          for i, j in kept)


# Referee: the walk with y_plus at t as P_t N_t by product (ref_upper), a
# step that counts 0 where y_plus is zero on the rows alive at t, and a
# witness at every other step that compares P_{t+1} y, with P_{K.b} read
# by its own mask and stable sort, with the whole of y_plus at t.


def ref_product_dims(bm, i, j):
    """The dims of matching._comparison_dims, y_plus at t by ref_upper."""
    ka, kb = max(i.a, j.a), min(i.b, j.b)
    d_l, lower = matching._reduce(bm, j, i.a, kb)[0][i.b]
    yield d_l
    if ka == kb:
        return
    walk = matching._walk_reduce(bm, i, j, lower)
    plus = ref_walk_plus(bm, i, j)
    plus_l = bm.m[:, ref_plus_cols(bm, i, kb)]  # P_{t+1}
    for t in range(kb - 1, ka - 1, -1):
        n, f = matching._prefixes(walk, t)
        null = ref_null(bm, i, j, walk, t)
        upper = gf.matmul(plus[:, :n], null, bm.p)
        d = 0
        if upper[bm.tgt_b >= t].any():
            y = null[: plus_l.shape[1]]  # the witness
            later = bm.tgt_b > t  # the rows alive at t+1
            if not np.array_equal(gf.matmul(plus_l[later], y, bm.p), upper[later]):
                raise InvariantError(f"W_{t} carries y_plus of ({i},{j}) at"
                                     f" t={t} out of y_plus at t={t + 1}")
            d = matching._dim_at(walk, n, f)
        if d > d_l:
            raise InvariantError(f"comparison module of ({i},{j}) shrinks from"
                                 f" {d} to {d_l} at t={t + 1}")
        yield d
        plus_l, d_l = plus[:, :n], d


def assert_upper_matches_product_referee(bm):
    """On every block of bm, every hom pair's dims equal ref_product_dims'.
    Returns the steps t < K.b of the walked pairs and how many of them
    lose a column of P."""
    steps = dying = 0
    for block in bm.blocks():
        for i in matching._bars(block.src_a, block.src_b):
            for j in matching._bars(block.tgt_a, block.tgt_b):
                if not hom_exists(i, j):
                    continue
                dims = lib_dims(block, i, j)
                assert dims == list(ref_product_dims(block, i, j)), (i, j)
                ka, kb = max(i.a, j.a), min(i.b, j.b)
                if not dims[0] or ka == kb:
                    continue
                ends = ref_plus_cols(block, i, ka)
                ends = set(block.src_b[ends][block.src_b[ends] < kb].tolist())
                steps, dying = steps + kb - ka, dying + len(ends)
    return steps, dying


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(3, 8),
    p=st.sampled_from([2, 3, 5, 7]),
    parts=st.lists(st.tuples(st.booleans(), st.integers(1, 5), st.integers(0, 2**16)),
                   min_size=1, max_size=3),
    eps=st.integers(0, 2),
)
def test_walk_matches_the_product_referee(n, p, parts, eps):
    # A part is a seeded ladder of dims up to size, or a bar-pair morphism
    # of 2 size bars a side, of up to 5 positions.
    f = direct_sum_morphism(*(
        bar_pair_morphism(n, 2 * size, min(n, 5), p, seed) if bars
        else random_ladder(n, size, p, seed)
        for bars, size, seed in parts))
    assert_upper_matches_product_referee(basis_matrix(f).shift(min(eps, n - 1)))


def test_product_referee_covers_steps_that_lose_a_column():
    # The referee reads steps that keep P and steps that lose a column of
    # it, where the referee's own witness compares a product.
    steps, dying = assert_upper_matches_product_referee(
        basis_matrix(bar_pair_morphism(6, 10, 4, 2, 3)))
    assert 0 < dying < steps


# The fact the walk reads P_t by (Claim T8): P_t, by its own mask and
# stable sort, is at every t of K the prefix of P of |P_t| columns, in the
# same order, with |P_t| and their deaths as the walk counts them.


def assert_walk_reads_prefixes(bm):
    """On every block of bm, for every hom pair with K.a < K.b: the fact
    above."""
    for block in bm.blocks():
        for i in matching._bars(block.src_a, block.src_b):
            for j in matching._bars(block.tgt_a, block.tgt_b):
                ka, kb = max(i.a, j.a), min(i.b, j.b)
                if not hom_exists(i, j) or ka == kb:
                    continue
                lower = matching._reduce(block, j, i.a, kb)[0][i.b][1]
                walk = matching._walk_reduce(block, i, j, lower)
                plus = ref_walk_plus(block, i, j)
                for t in range(ka, kb + 1):
                    cols = ref_plus_cols(block, i, t)
                    n = matching._prefixes(walk, t)[0]
                    assert n == len(cols), (i, j, t)
                    assert np.array_equal(plus[:, :n], block.m[:, cols]), (i, j, t)
                    assert np.array_equal(walk.dies[:n], block.src_b[cols]), (i, j, t)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(3, 8),
    p=st.sampled_from([2, 3, 5, 7]),
    parts=st.lists(st.tuples(st.booleans(), st.integers(1, 5), st.integers(0, 2**16)),
                   min_size=1, max_size=3),
    eps=st.integers(0, 2),
)
def test_p_at_every_step_is_a_prefix_of_the_walks_p(n, p, parts, eps):
    # Parts as in test_walk_matches_the_product_referee.
    f = direct_sum_morphism(*(
        bar_pair_morphism(n, 2 * size, min(n, 5), p, seed) if bars
        else random_ladder(n, size, p, seed)
        for bars, size, seed in parts))
    assert_walk_reads_prefixes(basis_matrix(f).shift(min(eps, n - 1)))


# Referee: both tables on the whole M, with no block split.


def unsplit_tables(f):
    bm = basis_matrix(f)
    m, g = {}, {}
    for i in barcode(f.source).intervals():
        for j in barcode(f.target).intervals():
            if not hom_exists(i, j):
                continue
            count = matching._reduce(bm, j, i.a, j.b)[0][i.b][0]
            if count:
                dims = lib_dims(bm, i, j)
                assert dims[0] == count, (i, j)
                m[(i, j)] = count
                g[(i, j)] = matching._overlap_bars(i.intersect(j), dims)
    return MMatchingTable(m), GMatchingTable(g)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(2, 6),
    max_dim=st.integers(0, 4),
    p=st.sampled_from([2, 3, 5]),
    seed=st.integers(0, 2**16),
    other=st.integers(0, 2**16),
    eps=st.integers(1, 4),
)
def test_block_sums_match_unsplit_referee(n, max_dim, p, seed, other, eps):
    f = random_ladder(n, max_dim, p, seed)
    g = random_ladder(n, max_dim, p, other)
    zero = Morphism.zero(g.source, f.target)
    for h in (f, shift_morphism(f, min(eps, n - 1)), direct_sum_morphism(f, zero, g),
              direct_sum_morphism(f, f, zero, g)):
        m_table, g_table = unsplit_tables(h)
        assert m_matching(h) == m_table
        assert g_matching(h) == g_table


def test_bar_pair_worst_case_matches_unsplit_referee():
    # The slowest input known at the work bound, at a reduced size: random
    # bars and a coefficient on every hom pair, so M is one block and the
    # walk visits every hom pair of it (README "File format" has the
    # full-size times).
    f = bar_pair_morphism(20, 50, 10, 2)
    assert len(basis_matrix(f).blocks()) == 1
    m_table, g_table = unsplit_tables(f)
    assert m_table.as_dict()
    assert m_matching(f) == m_table
    assert g_matching(f) == g_table


def test_bar_pair_worst_case_makes_one_reduction_per_group(monkeypatch):
    # m reduces one Q per (J, I.a) of the hom pairs of the one block, up
    # to the first start whose Q spans J's own rows (Claim T12): 72 of the
    # 200 groups.  It makes no rref; g makes those reductions, then two
    # more per nonzero pair whose overlap loses a row of off, off which it
    # reads every step t < K.b: no rref, no null basis and no product, not
    # even at the 173 steps that lose a column of P, which need no check
    # as M is on its support (Claim T9).  The 12 nonzero pairs that lose
    # no row of off along their overlaps make no reduction (Claim T10).
    bm = basis_matrix(bar_pair_morphism(20, 50, 10, 2))
    [block] = bm.blocks()
    pairs = [(i, j) for i in matching._bars(block.src_a, block.src_b)
             for j in matching._bars(block.tgt_a, block.tgt_b) if hom_exists(i, j)]
    groups = {(j, i.a) for i, j in pairs}
    fills = filling_starts(block)
    reduced = {(j, a) for j, a in groups if a <= fills.get(j, a)}
    assert (len(pairs), len(groups), len(reduced)) == (482, 200, 72)
    calls = Counter()
    for name in ("low_reduce", "rref", "null_basis", "matmul"):
        def count(*args, real=getattr(gf, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(gf, name, count)
    m_table = matching.m_table(bm)
    assert calls == {"low_reduce": 72}
    calls.clear()
    matching.g_table(bm)
    overlaps = [(i, j) for (i, j), _ in m_table.items() if i.intersect(j).length]
    steps = sum(i.intersect(j).length for i, j in overlaps)
    walked = sum(loses_off_row(block, i, j) for i, j in overlaps)
    plus = [block.src_b[(block.src_a <= i.a) & (block.src_b <= i.b)] for i, j in overlaps]
    dying = sum(len(set(ends[(ends >= k.a) & (ends < k.b)].tolist()))
                for ends, k in zip(plus, (i.intersect(j) for i, j in overlaps)))
    assert (len(overlaps), walked, steps) == (36, 24, 215)
    assert calls.keys() == {"low_reduce"}
    assert calls["low_reduce"] == 72 + 2 * walked == 120
    assert calls["matmul"] == 0 < dying == 173 < steps


def test_table_inequalities_small_suite():
    for seed in range(40):
        f = random_ladder(6, 4, 2 if seed % 2 else 5, 4000 + seed)
        table = m_matching(f)
        b_src, b_dst = barcode(f.source), barcode(f.target)
        for i in b_src.intervals():
            assert sum(c for (a, _), c in table.items() if a == i) <= b_src.mult(i)
        for j in b_dst.intervals():
            assert sum(c for (_, b), c in table.items() if b == j) <= b_dst.mult(j)


def test_g_entries_die_at_shared_death_and_count_like_m():
    for seed in range(25):
        f = random_ladder(6, 4, 2, 5000 + seed)
        g_table = g_matching(f)
        m_table = m_matching(f)
        for (i, j), bars in g_table.items():
            shared = i.intersect(j)
            assert all(b.b == shared.b for b, _ in bars.items())
            assert bars.total() == m_table.get(i, j)
        assert {k for k, _ in g_table.items()} == {k for k, _ in m_table.items()}


def test_colliding_source_bars_matched_to_earliest_birth():
    # Two source bars with different births and deaths hitting the same
    # target line: only the earlier-born one is matched.
    n, p = 6, 2
    v = direct_sum(
        interval_module(n, p, iv(2, 6)), interval_module(n, p, iv(5, 5))
    )
    u = interval_module(n, p, iv(2, 5))
    comps = []
    for t in range(1, n + 1):
        alive = [i for i in (iv(2, 6), iv(5, 5)) if i.contains(t)]
        c = gf.zeros(1 if iv(2, 5).contains(t) else 0, len(alive))
        if c.shape[0]:
            c[0, :] = 1
        comps.append(c)
    f = Morphism(v, u, comps).validate()
    assert m_matching(f).as_dict() == {(iv(2, 6), iv(2, 5)): 1}


def test_interval_hom_gives_overlap_module():
    # A nonzero map between interval modules matches them along the overlap.
    rng = random.Random(61)
    for _ in range(20):
        n, p = 5, rng.choice([2, 5])
        a = rng.randint(1, n)
        b = rng.randint(a, n)
        c = rng.randint(1, a)
        d = rng.randint(a, b)
        src, dst = iv(a, b), iv(c, d)
        f = interval_hom(n, p, src, dst)
        x = x_module(f, src, dst)
        overlap = src.intersect(dst)
        assert barcode(x.module) == Barcode.from_pairs(
            [(overlap.a, overlap.b, 1)]
        )
        assert m_matching(f).as_dict() == {(src, dst): 1}


def test_interval_source_matches_single_target_bar():
    # A morphism out of one interval module feeds exactly one target bar:
    # among the bars carrying the image with maximal death, the shortest.
    rng = random.Random(67)
    nonzero_cases = 0
    for _ in range(60):
        n, p = 5, rng.choice([2, 5])
        a = rng.randint(1, n)
        b = rng.randint(a, n)
        src = iv(a, b)
        v = interval_module(n, p, src)
        bars = []
        u = zero_module(n, p)
        for _ in range(rng.randint(1, 4)):
            c = rng.randint(1, n)
            d = rng.randint(c, n)
            bars.append(iv(c, d))
            u = direct_sum(u, interval_module(n, p, iv(c, d)))
        weights = {
            k: rng.randrange(p)
            for k, j in enumerate(bars)
            if j.a <= src.a <= j.b <= src.b
        }
        comps = []
        for t in range(1, n + 1):
            alive = [k for k, j in enumerate(bars) if j.contains(t)]
            c = gf.zeros(len(alive), 1 if src.contains(t) else 0)
            if c.shape[1]:
                for r, k in enumerate(alive):
                    c[r, 0] = weights.get(k, 0)
            comps.append(c)
        f = Morphism(v, u, comps).validate()
        carriers = [bars[k] for k, w in weights.items() if w]
        table = m_matching(f).as_dict()
        if not carriers:
            assert table == {}
            continue
        nonzero_cases += 1
        latest = max(j.b for j in carriers)
        winner = max(
            (j for j in carriers if j.b == latest), key=lambda j: j.a
        )
        assert set(table) == {(src, winner)}
        x = x_module(f, src, winner)
        entries = barcode(x.module).items()
        overlap = src.intersect(winner)
        assert len(entries) == 1
        bar, mult = entries[0]
        assert mult == 1 and bar.b == overlap.b and bar.a >= overlap.a
    assert nonzero_cases > 10


def test_pushforward_identity_for_lower_spaces():
    # The image of the source's lower space plus the target's lower space
    # is carried exactly onto its later version along the overlap.
    for seed in range(20):
        f = random_ladder(6, 3, 2 if seed % 2 else 5, 700 + seed)
        p = f.p
        for i in barcode(f.source).intervals():
            for j in barcode(f.target).intervals():
                k = i.intersect(j)
                if k is None:
                    continue
                for t in range(k.a, k.b):
                    now = sum_subspaces(pushed(f, v_minus, i, t), v_minus(f.target, j, t))
                    nxt = sum_subspaces(
                        pushed(f, v_minus, i, t + 1), v_minus(f.target, j, t + 1)
                    )
                    carried = Subspace.image(
                        gf.matmul(f.target.map(t), now.basis, p), p
                    )
                    assert carried == nxt


def test_stability_of_tables_under_shift(wide_ladder):
    base = m_matching(wide_ladder).as_dict()
    assert base == {(iv(1, 3), iv(1, 3)): 1, (iv(2, 4), iv(1, 4)): 1}
    shifted = m_matching(shift_morphism(wide_ladder, 1)).as_dict()
    assert shifted == {(iv(1, 2), iv(1, 2)): 1, (iv(2, 3), iv(1, 3)): 1}


def test_shift_of_comparison_morphism_is_clipped_diagonal():
    # Bars match their own shifted copies, with labels clipped at the grid.
    rng = random.Random(71)
    n = 6
    for case in range(20):
        p = rng.choice([2, 5])
        m = random_module(n, 4, p, rng)
        bc = barcode(m)
        for eps in (1, 2):
            table = m_matching(one_eps_morphism(m, eps)).as_dict()
            want = {}
            for interval, mult in bc.items():
                if interval.b - interval.a < eps:
                    continue
                src = iv(interval.a, min(interval.b, n - eps))
                dst = iv(max(interval.a - eps, 1), interval.b - eps)
                want[(src, dst)] = want.get((src, dst), 0) + mult
            assert table == want


# ---------------------------------------------------------------------------
# representations


def test_representation_of_reference_table(reference_ladder):
    table = m_matching(reference_ladder)
    rep = representation(
        table, barcode(reference_ladder.source), barcode(reference_ladder.target)
    )
    assert rep.items() == [((iv(2, 2), 1), (iv(1, 2), 1))]
    assert rep.get((iv(2, 3), 1)) is None


def test_representation_of_empty_table(chain_module):
    rep = representation(
        MMatchingTable({}), barcode(chain_module), barcode(chain_module)
    )
    assert len(rep) == 0


def test_representation_consumes_indices_in_order():
    b_src = Barcode.from_pairs([(1, 2, 2)])
    b_dst = Barcode.from_pairs([(1, 2, 2)])
    rep = representation(
        MMatchingTable({(iv(1, 2), iv(1, 2)): 2}), b_src, b_dst
    )
    assert rep.items() == [
        ((iv(1, 2), 1), (iv(1, 2), 1)),
        ((iv(1, 2), 2), (iv(1, 2), 2)),
    ]


def test_representation_rejects_overfull_table():
    b = Barcode.from_pairs([(1, 2, 1)])
    with pytest.raises(ValueError):
        representation(MMatchingTable({(iv(1, 2), iv(1, 2)): 2}), b, b)


def test_table_bounds_raise_under_python_O():
    # The bounds are explicit raises, not asserts that -O strips.
    script = (
        "from indumatch import Barcode, GridInterval\n"
        "from indumatch.matching import _check_table_bounds\n"
        "b = Barcode.from_pairs([(1, 2, 1)])\n"
        "bar = GridInterval(1, 2)\n"
        "try:\n"
        "    _check_table_bounds({(bar, bar): 2}, b, b)\n"
        "except ValueError:\n"
        "    print('raised')\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(indumatch.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.stdout == "raised\n", result.stderr


def test_package_has_no_assert_statement():
    # Every invariant in the package is an explicit raise, as -O strips asserts.
    package = Path(indumatch.__file__).parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_representation_realizes_counts_randomly():
    for seed in range(15):
        f = random_ladder(6, 4, 2, 8000 + seed)
        table = m_matching(f)
        rep = representation(table, barcode(f.source), barcode(f.target))
        assert rep.counts() == table.as_dict()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(2, 6),
    max_dim=st.integers(0, 4),
    p=st.sampled_from([2, 3, 5]),
    seed=st.integers(0, 2**16),
    other=st.integers(0, 2**16),
)
def test_shift_tables_match_image_factorization_referee(n, max_dim, p, seed, other):
    # The shift read off M is isomorphic to the morphism between the
    # canonical image bases, so their tables agree.
    f = random_ladder(n, max_dim, p, seed)
    for h in (f, direct_sum_morphism(f, random_ladder(n, max_dim, p, other))):
        for eps in range(1, n):
            got, want = shift_morphism(h, eps), ref_shift_morphism(h, eps)
            got.validate()
            assert m_matching(got) == m_matching(want), eps
            assert g_matching(got) == g_matching(want), eps
