"""Exact GF(p) linear algebra, refereed by independent oracles."""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indumatch import gf
from indumatch.gf import Subspace
from indumatch.oracle import sum_subspaces

import quotients
from conftest import mat


# ---------------------------------------------------------------------------
# Independent oracles.


def det_exact(rows):
    """Determinant by fraction-free Gaussian elimination over the integers."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            factor = a[r][c] / a[c][c]
            a[r] = [x - factor * y for x, y in zip(a[r], a[c])]
    num, den = det.numerator, det.denominator
    assert den in (1, -1) or num % den == 0
    return num // den if den != 0 else 0


def rank_via_minors(m, p):
    """GF(p) rank as the largest k with a k x k minor nonzero mod p."""
    rows, cols = m.shape
    for k in range(min(rows, cols), 0, -1):
        for ri in itertools.combinations(range(rows), k):
            for ci in itertools.combinations(range(cols), k):
                sub = [[int(m[r, c]) for c in ci] for r in ri]
                if det_exact(sub) % p != 0:
                    return k
    return 0


def span_set(basis, p):
    """All vectors of the span, as a frozenset of tuples (tiny ambients)."""
    ambient, dim = basis.shape
    vecs = set()
    for coeffs in itertools.product(range(p), repeat=dim):
        v = tuple(int(x) % p for x in basis @ np.array(coeffs, dtype=np.int64))
        vecs.add(v)
    if not vecs:
        vecs.add(tuple([0] * ambient))
    return frozenset(vecs)


def all_gf2_subspaces(ambient):
    """Every subspace of GF(2)^ambient as a set of vector tuples."""
    vectors = list(itertools.product(range(2), repeat=ambient))
    spans = set()
    for r in range(ambient + 1):
        for combo in itertools.combinations(vectors[1:], r):
            basis = np.array(combo, dtype=np.int64).T if combo else gf.zeros(ambient, 0)
            spans.add(span_set(basis, 2))
    return spans


# ---------------------------------------------------------------------------
# rank / rref.


def test_rank_identity():
    assert gf.rank(gf.identity(2), 2) == 2


def test_rank_tall_embedding():
    assert gf.rank(mat([[1, 0], [0, 1], [0, 0]]), 2) == 2


def test_rank_empty_matrices():
    assert gf.rank(gf.zeros(0, 3), 2) == 0
    assert gf.rank(gf.zeros(3, 0), 5) == 0
    assert gf.rank(gf.zeros(0, 0), 2) == 0


def test_rank_agrees_with_minor_oracle_gf5():
    rng = random.Random(20240517)
    for _ in range(25):
        m = mat([[rng.randrange(5) for _ in range(6)] for _ in range(6)])
        assert gf.rank(m, 5) == rank_via_minors(m, 5)


def test_rank_agrees_with_minor_oracle_gf2_rectangular():
    rng = random.Random(7)
    for _ in range(25):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = mat([[rng.randrange(2) for _ in range(cols)] for _ in range(rows)])
        assert gf.rank(m, 2) == rank_via_minors(m, 2)


def test_rref_pivots_are_clean():
    r, piv = gf.rref(mat([[2, 4, 1], [1, 2, 3], [3, 6, 4]]), 5)
    for row, c in enumerate(piv):
        assert r[row, c] == 1
        col = r[:, c].copy()
        col[row] = 0
        assert not col.any()


def test_solve_and_inverse():
    a = mat([[1, 2], [3, 4]])
    x = gf.solve(a, gf.identity(2), 5)
    assert np.array_equal(gf.matmul(a, x, 5), gf.identity(2))
    assert np.array_equal(gf.inverse(a, 5), x)
    assert gf.solve(mat([[1, 1], [1, 1]]), mat([[1], [0]]), 2) is None
    with pytest.raises(ValueError):
        gf.inverse(mat([[1, 1], [1, 1]]), 2)


# ---------------------------------------------------------------------------
# image / kernel.


def test_image_of_zero_matrix_is_zero_space():
    s = Subspace.image(gf.zeros(3, 2), 2)
    assert s.ambient == 3 and s.dim == 0


def test_image_of_tall_embedding():
    s = Subspace.image(mat([[1, 0], [0, 1], [0, 0]]), 2)
    assert s == Subspace.image(mat([[1, 0], [0, 1], [0, 0]]), 2)
    assert s.dim == 2
    assert s.contains_vector(mat([[1], [0], [0]]))
    assert not s.contains_vector(mat([[0], [0], [1]]))


def test_image_of_diagonal_vector():
    s = Subspace.image(mat([[1], [1]]), 2)
    assert s.dim == 1
    assert s.contains_vector(mat([[1], [1]]))


def test_kernel_of_identity_is_zero():
    assert Subspace.kernel(gf.identity(4), 2).dim == 0


def test_kernel_of_row_selector():
    s = Subspace.kernel(mat([[0, 1, 0]]), 2)
    assert s.dim == 2
    assert s.contains_vector(mat([[1], [0], [0]]))
    assert s.contains_vector(mat([[0], [0], [1]]))
    assert not s.contains_vector(mat([[0], [1], [0]]))


def test_kernel_of_empty_codomain_is_everything():
    s = Subspace.kernel(gf.zeros(0, 2), 3)
    assert s == Subspace.full(2, 3)


# ---------------------------------------------------------------------------
# sum / intersect / preimage / quotient.


def test_sum_with_zero_is_identity():
    a = Subspace.image(mat([[1], [1], [0]]), 2)
    assert sum_subspaces(a, Subspace.zero(3, 2)) == a


def test_sum_of_axes_is_full_plane():
    e1 = Subspace.image(mat([[1], [0]]), 2)
    e2 = Subspace.image(mat([[0], [1]]), 2)
    assert sum_subspaces(e1, e2) == Subspace.full(2, 2)


def test_sum_zero_plus_line():
    line = Subspace.image(mat([[1], [0]]), 2)
    assert sum_subspaces(Subspace.zero(2, 2), line) == line


def test_intersect_skew_lines_is_zero():
    a = Subspace.image(mat([[1], [1]]), 2)
    b = Subspace.image(mat([[1], [0]]), 2)
    assert gf.intersect(a, b).dim == 0


def test_intersect_with_full_space():
    a = Subspace.image(mat([[1], [1]]), 2)
    assert gf.intersect(a, Subspace.full(2, 2)) == a


def test_intersect_idempotent():
    rng = random.Random(3)
    for _ in range(10):
        m = mat([[rng.randrange(3) for _ in range(2)] for _ in range(4)])
        a = Subspace.image(m, 3)
        assert gf.intersect(a, a) == a


def test_preimage_of_full_space_is_full_domain():
    m = mat([[1, 2, 3]])
    assert quotients.preimage(m, Subspace.full(1, 5), 5) == Subspace.full(3, 5)


def test_preimage_of_zero_is_kernel():
    m = mat([[1, 0], [1, 0]])
    assert quotients.preimage(m, Subspace.zero(2, 2), 2) == Subspace.kernel(m, 2)


def test_preimage_projection_case_by_enumeration():
    # m = (1 0 / 0 0): m v = (v1, 0); span{(1,0)} catches every v.
    m = mat([[1, 0], [0, 0]])
    target = Subspace.image(mat([[1], [0]]), 2)
    expect = {
        v
        for v in itertools.product(range(2), repeat=2)
        if tuple((m @ np.array(v)) % 2) in span_set(target.basis, 2)
    }
    got = quotients.preimage(m, target, 2)
    assert span_set(got.basis, 2) == frozenset(expect)
    assert got == Subspace.full(2, 2)


def test_quotient_dim():
    full = Subspace.full(2, 2)
    zero = Subspace.zero(2, 2)
    a = Subspace.image(mat([[1], [1]]), 2)
    assert quotients.quotient_dim(a, a) == 0
    assert quotients.quotient_dim(full, zero) == 2
    assert quotients.quotient_dim(a, zero) == 1
    with pytest.raises(quotients.ContainmentError):
        quotients.quotient_dim(a, Subspace.image(mat([[1], [0]]), 2))


def test_ambient_mismatch_raises():
    with pytest.raises(gf.DimensionMismatch):
        sum_subspaces(Subspace.zero(2, 2), Subspace.zero(3, 2))
    with pytest.raises(gf.DimensionMismatch):
        gf.intersect(Subspace.full(2, 2), Subspace.full(2, 3))


# ---------------------------------------------------------------------------
# induced maps on quotients.


def test_induced_map_identity_on_equal_filtrations():
    big = Subspace.full(2, 2)
    small = Subspace.zero(2, 2)
    m = quotients.induced_map_on_quotients(gf.identity(2), big, small, big, small, 2)
    assert np.array_equal(m, gf.identity(2))


def test_induced_map_zero_source_quotient():
    big = Subspace.image(mat([[1], [1]]), 2)
    collapse = mat([[1, 1], [1, 1]])  # kills (1,1) over GF(2)
    m = quotients.induced_map_on_quotients(
        collapse, big, big, Subspace.full(2, 2), Subspace.zero(2, 2), 2
    )
    assert m.shape == (2, 0)


def test_induced_map_detects_ill_defined():
    src_big = Subspace.full(2, 2)
    src_small = Subspace.image(mat([[1], [0]]), 2)
    dst_big = Subspace.full(2, 2)
    dst_small = Subspace.zero(2, 2)
    swap = mat([[0, 1], [1, 0]])
    with pytest.raises(quotients.WellDefinednessError):
        quotients.induced_map_on_quotients(swap, src_big, src_small, dst_big, dst_small, 2)


def test_induced_map_single_line_case():
    # Quotient map span{(1,1)}/0 -> span{1}/0 under the row (0 1).
    src = Subspace.image(mat([[1], [1]]), 2)
    dst = Subspace.full(1, 2)
    m = quotients.induced_map_on_quotients(
        mat([[0, 1]]), src, Subspace.zero(2, 2), dst, Subspace.zero(1, 2), 2
    )
    assert np.array_equal(m, mat([[1]]))


# ---------------------------------------------------------------------------
# Canonical form and algebraic laws on random inputs.


def test_canonicalization_same_span_same_bytes():
    rng = random.Random(11)
    for p in (2, 5):
        for _ in range(40):
            ambient = rng.randint(1, 5)
            d = rng.randint(0, ambient)
            basis = mat(
                [[rng.randrange(p) for _ in range(d)] for _ in range(ambient)]
            )
            a = Subspace.image(basis, p)
            # Mix columns by a random invertible matrix: same span.
            while True:
                c = mat([[rng.randrange(p) for _ in range(a.dim)] for _ in range(a.dim)])
                if gf.rank(c, p) == a.dim:
                    break
            b = Subspace.image(gf.matmul(a.basis, c, p), p)
            assert a == b
            assert a.basis.tobytes() == b.basis.tobytes()


def random_subspace(ambient, p, rng, max_gens=4):
    d = rng.randint(0, max_gens)
    basis = mat([[rng.randrange(p) for _ in range(d)] for _ in range(ambient)])
    if d == 0:
        basis = gf.zeros(ambient, 0)
    return Subspace.image(basis, p)


def test_dimension_formula_random_pairs():
    rng = random.Random(23)
    for p in (2, 5):
        for _ in range(60):
            ambient = rng.randint(1, 5)
            a = random_subspace(ambient, p, rng)
            b = random_subspace(ambient, p, rng)
            s = sum_subspaces(a, b)
            i = gf.intersect(a, b)
            assert s.dim + i.dim == a.dim + b.dim
            assert s.contains(a) and s.contains(b)
            assert a.contains(i) and b.contains(i)


def test_preimage_image_adjunction_random():
    rng = random.Random(31)
    for p in (2, 5):
        for _ in range(40):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            m = mat([[rng.randrange(p) for _ in range(cols)] for _ in range(rows)])
            s = random_subspace(rows, p, rng, max_gens=3)
            pre = quotients.preimage(m, s, p)
            pushed = Subspace.image(gf.matmul(m, pre.basis, p), p)
            assert s.contains(pushed)


def test_gf2_ops_agree_with_exhaustive_enumeration():
    for ambient in (1, 2, 3):
        spaces = all_gf2_subspaces(ambient)
        reps = {}
        for vecs in spaces:
            nonzero = [v for v in vecs if any(v)]
            basis = (
                np.array(nonzero, dtype=np.int64).T
                if nonzero
                else gf.zeros(ambient, 0)
            )
            reps[vecs] = Subspace.image(basis, 2)
        for va, vb in itertools.product(spaces, repeat=2):
            a, b = reps[va], reps[vb]
            su = sum_subspaces(a, b)
            expect_sum = span_set(
                np.hstack([reps[va].basis, reps[vb].basis]), 2
            )
            assert span_set(su.basis, 2) == expect_sum
            inter = gf.intersect(a, b)
            assert span_set(inter.basis, 2) == va & vb
            assert a.contains(b) == (vb <= va)


# ---------------------------------------------------------------------------
# Field size: int64 products stay exact.


def test_field_error_bounds_p_by_dimension():
    p = 2**31 - 1
    assert gf.field_error(p, 2) is None
    a = np.full((2, 2), p - 1, dtype=np.int64)
    assert np.array_equal(gf.matmul(a, a, p), np.full((2, 2), 2))  # 2 * (-1)^2
    assert "too large" in gf.field_error(p, 3)


def test_field_error_caps_the_dimension_for_every_prime():
    assert gf.field_error(2, gf.MAX_DIM) is None
    for p in (2, 5):
        assert "above the cap" in gf.field_error(p, gf.MAX_DIM + 1)


def test_field_error_rejects_huge_prime_without_trial_division():
    start = time.perf_counter()
    assert "too large" in gf.field_error(10**18 + 3, 1)
    assert time.perf_counter() - start < 1
    assert "not prime" in gf.field_error(6, 3)


# ---------------------------------------------------------------------------
# Kernel-free shortcuts against the constructions they replaced.


def intersect_by_canonical_kernel(a, b):
    """a n b as the A-part of the canonical Subspace.kernel of [A | B]."""
    if a.dim == 0 or b.is_full():
        return a
    if b.dim == 0 or a.is_full():
        return b
    k = Subspace.kernel(np.hstack([a.basis, b.basis]), a.p)
    return Subspace.image(gf.matmul(a.basis, k.basis[: a.dim], a.p), a.p)


def preimage_by_canonical_kernel(m, s, p):
    m = gf.normalize(m, p)
    if s.dim == s.ambient:
        return Subspace.full(m.shape[1], p)
    k = Subspace.kernel(np.hstack([m, s.basis]), p)
    return Subspace.image(k.basis[: m.shape[1]], p)


def complement_by_greedy_scan(big, small):
    """Big's basis columns, left to right, that grow the span: one rank each."""
    chosen = []
    cur = small.basis
    for j in range(big.dim):
        cand = big.basis[:, j : j + 1]
        stacked = np.hstack([cur, cand])
        if gf.rank(stacked, big.p) > cur.shape[1]:
            chosen.append(cand)
            cur = stacked
    return np.hstack(chosen) if chosen else gf.zeros(big.ambient, 0)


def test_null_basis_spans_the_kernel():
    rng = random.Random(57)
    for p in (2, 5):
        for _ in range(60):
            rows, cols = rng.randint(0, 5), rng.randint(0, 6)
            m = mat([[rng.randrange(p) for _ in range(cols)] for _ in range(rows)])
            m = m.reshape(rows, cols)
            k = gf.null_basis(m, p)
            assert k.shape == (cols, cols - gf.rank(m, p))
            assert not gf.matmul(m, k, p).any()
            assert Subspace.image(k, p) == Subspace.kernel(m, p)


def null_basis_by_scalar_writes(m, p):
    """The null basis written one entry at a time, free column by free
    column: the loop gf.null_basis replaced with one indexed assignment."""
    cols = m.shape[1]
    r, pivots = gf.rref(m, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = gf.zeros(cols, len(free))
    for j, fc in enumerate(free):
        basis[fc, j] = 1
        for row, pc in enumerate(pivots):
            basis[pc, j] = (-r[row, fc]) % p
    return basis


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(p=st.sampled_from([2, 3, 5, 7]), rows=st.integers(0, 7),
       cols=st.integers(0, 8), data=st.data())
def test_null_basis_equals_scalar_write_referee(p, rows, cols, data):
    entries = data.draw(st.lists(st.integers(-3 * p, 3 * p), min_size=rows * cols,
                                 max_size=rows * cols))
    m = np.array(entries, dtype=np.int64).reshape(rows, cols)
    got = gf.null_basis(m, p)
    want = null_basis_by_scalar_writes(m, p)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_intersect_and_preimage_match_canonical_kernel_referees():
    rng = random.Random(61)
    for p in (2, 5):
        for _ in range(80):
            ambient = rng.randint(1, 6)
            a = random_subspace(ambient, p, rng, max_gens=5)
            b = random_subspace(ambient, p, rng, max_gens=5)
            assert gf.intersect(a, b) == intersect_by_canonical_kernel(a, b)
            cols = rng.randint(1, 5)
            m = mat([[rng.randrange(p) for _ in range(cols)] for _ in range(ambient)])
            assert quotients.preimage(m, a, p) == preimage_by_canonical_kernel(m, a, p)


def test_complement_columns_match_greedy_scan_referee():
    rng = random.Random(67)
    for p in (2, 5):
        for _ in range(80):
            ambient = rng.randint(1, 6)
            big = random_subspace(ambient, p, rng, max_gens=6)
            # small: the span of a few random combinations of big's basis
            gens = rng.randint(0, big.dim)
            coeffs = mat([[rng.randrange(p) for _ in range(gens)] for _ in range(big.dim)])
            coeffs = coeffs.reshape(big.dim, gens)
            small = Subspace.image(gf.matmul(big.basis, coeffs, p), p)
            got = quotients.complement_columns(big, small)
            want = complement_by_greedy_scan(big, small)
            assert np.array_equal(got, want)
            assert got.shape[1] == big.dim - small.dim
