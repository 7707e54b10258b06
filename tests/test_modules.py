"""Modules, subspace operators, barcodes, bases, images and shifts."""

from __future__ import annotations

import dataclasses
import random
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indumatch import (
    Barcode,
    GridInterval,
    Morphism,
    PersistenceModule,
    ValidationError,
    barcode,
    direct_sum,
    direct_sum_morphism,
    gf,
    im_minus,
    im_plus,
    image_barcode,
    image_factorization,
    image_module,
    interval_module,
    ker_minus,
    ker_plus,
    module_from_bars,
    morphism_from_bars,
    one_eps_morphism,
    persistence_basis,
    random_ladder,
    random_module,
    restrict,
    shift_module,
    shift_morphism,
    v_minus,
    v_plus,
    zero_module,
)
from indumatch import cli, modules, oracle
from indumatch.bauer_lesnick import chi, chi_table
from indumatch.gf import Subspace
from indumatch.matching import MMatchingTable, g_matching, g_table, m_matching, m_table
from indumatch.modules import (
    BasisMatrix,
    InvariantError,
    _check_support,
    basis_matrix,
    sweep,
)
from indumatch.oracle import (PersistenceBasis, is_injective, is_surjective, naive_barcode,
                              sum_subspaces)

from conftest import (
    iv,
    mat,
    ref_bars_basis,
    ref_basis_matrix,
    ref_frame,
    ref_image_barcode,
    ref_persistence_basis,
    ref_shift_morphism,
)


# ---------------------------------------------------------------------------
# validation


def test_reference_ladder_validates(reference_ladder):
    reference_ladder.validate()


def test_zero_module_validates():
    zero_module(3, 2).validate()


def test_broken_naturality_reports_position(thick_ladder):
    comps = list(thick_ladder.comps)
    comps[2] = mat([[0]])  # perturb the last vertical map
    bad = Morphism(thick_ladder.source, thick_ladder.target, comps)
    with pytest.raises(ValidationError, match="t=2") as info:
        bad.validate()
    # Both sides of the failing square: f_3 V_2 = 0 V_2, W_2 f_2 = [0 1][1 1]^T.
    assert "f_3 @ V_2 = [[0]]" in str(info.value)
    assert "W_2 @ f_2 = [[1]]" in str(info.value)


def test_shape_mismatch_detected():
    m = PersistenceModule(2, (1, 2), [mat([[1]])])
    with pytest.raises(ValidationError, match="shape"):
        m.validate()


def test_nonprime_field_rejected():
    with pytest.raises(ValidationError, match="prime"):
        PersistenceModule(4, (1,), []).validate()


# ---------------------------------------------------------------------------
# constructors and composites


def test_interval_module_dims():
    m = interval_module(3, 2, iv(2, 3))
    assert m.dims == (0, 1, 1)
    assert np.array_equal(m.map(2), gf.identity(1))


def test_interval_module_single_point():
    assert interval_module(1, 2, iv(1, 1)).dims == (1,)


def test_interval_module_full_grid():
    m = interval_module(4, 2, iv(1, 4))
    assert m.dims == (1, 1, 1, 1)
    assert all(np.array_equal(m.map(t), gf.identity(1)) for t in (1, 2, 3))


def test_direct_sum_with_zero_keeps_module(chain_module):
    s = direct_sum(chain_module, zero_module(3, 2))
    assert s == chain_module


def test_direct_sum_reproduces_reference_ladder(reference_ladder):
    lower_a = interval_module(3, 2, iv(2, 3))
    upper_a = zero_module(3, 2)
    f_a = Morphism.zero(lower_a, upper_a)
    lower_b = interval_module(3, 2, iv(2, 2))
    upper_b = interval_module(3, 2, iv(1, 2))
    f_b = Morphism(
        lower_b, upper_b, [gf.zeros(1, 0), mat([[1]]), gf.zeros(0, 0)]
    ).validate()
    assert direct_sum_morphism(f_a, f_b) == reference_ladder


def test_k_way_direct_sum_equals_pairwise_fold():
    rng = random.Random(71)
    for p in (2, 5):
        for _ in range(20):
            n = rng.randint(1, 6)
            fs = [random_ladder(n, rng.randint(0, 3), p, rng.randrange(10**6))
                  for _ in range(rng.randint(1, 5))]
            fold = fs[0]
            for f in fs[1:]:
                fold = direct_sum_morphism(fold, f)
            total = direct_sum_morphism(*fs)
            assert total == fold
            assert direct_sum(*(f.source for f in fs)) == fold.source
            total.validate()
    with pytest.raises(ValueError, match="at least one"):
        direct_sum()
    with pytest.raises(ValidationError, match="matching grid"):
        direct_sum(zero_module(3, 2), zero_module(3, 2), zero_module(3, 5))


def test_direct_sum_of_intervals_gives_chain_matrices(chain_module):
    k12 = interval_module(3, 2, iv(1, 2))
    k23 = interval_module(3, 2, iv(2, 3))
    assert direct_sum(direct_sum(k12, k12), k23) == chain_module


def test_composite_identity(chain_module):
    assert np.array_equal(chain_module.composite(2, 2), gf.identity(3))


def test_composite_through_wide_ladder(wide_ladder):
    v = wide_ladder.source
    assert np.array_equal(v.composite(1, 3), mat([[1], [0]]))


def test_composite_is_matrix_product():
    rng = random.Random(5)
    for _ in range(10):
        m = random_module(4, 3, 5, rng)
        two_steps = gf.matmul(m.map(2), m.map(1), 5)
        assert np.array_equal(m.composite(1, 3), two_steps)
        assert np.array_equal(m.composite(1, 4), gf.matmul(m.map(3), two_steps, 5))


# ---------------------------------------------------------------------------
# interval operators


def test_im_plus_on_interval_module():
    m = interval_module(3, 2, iv(2, 3))
    for t in (2, 3):
        assert im_plus(m, iv(2, 3), t) == Subspace.full(1, 2)


def test_im_plus_mid_interval(wide_ladder):
    v = wide_ladder.source
    assert im_plus(v, iv(1, 3), 2) == Subspace.image(mat([[1], [0]]), 2)


def test_im_minus_at_grid_start_is_zero(chain_module):
    assert im_minus(chain_module, iv(1, 2), 2).dim == 0


def test_ker_operators(reference_ladder):
    v = reference_ladder.source
    # kernel of the map out of the interval's end
    assert ker_minus(v, iv(2, 2), 2).dim == 0  # identity composite
    assert ker_plus(v, iv(2, 2), 2) == Subspace.image(mat([[0], [1]]), 2)
    assert ker_plus(v, iv(2, 3), 2) == Subspace.full(2, 2)  # end of grid


def test_operator_requires_membership(chain_module):
    with pytest.raises(ValueError):
        im_plus(chain_module, iv(1, 2), 3)


def test_v_spaces_on_reference_source(reference_ladder):
    v = reference_ladder.source
    assert v_plus(v, iv(2, 2), 2).dim == 1
    assert v_minus(v, iv(2, 2), 2).dim == 0
    assert v_plus(v, iv(2, 3), 2).dim == 2
    assert v_minus(v, iv(2, 3), 2).dim == 1


def test_v_spaces_on_interval_module():
    m = interval_module(4, 3, iv(2, 3))
    for t in (2, 3):
        assert v_plus(m, iv(2, 3), t) == Subspace.full(1, 3)
        assert v_minus(m, iv(2, 3), t).dim == 0


def test_v_spaces_zero_off_interval(chain_module):
    assert v_plus(chain_module, iv(1, 2), 3).dim == 0
    assert v_minus(chain_module, iv(1, 2), 3).dim == 0


def test_v_minus_mid_interval_in_wide_ladder(wide_ladder):
    v = wide_ladder.source
    assert v_minus(v, iv(2, 4), 2) == Subspace.image(mat([[1], [0]]), 2)


def test_v_pushforward_along_interval():
    # The structure maps carry both spaces onto their later versions.
    rng = random.Random(77)
    for _ in range(25):
        p = rng.choice([2, 5])
        m = random_module(5, 3, p, rng)
        bc = barcode(m)
        for interval in bc.intervals():
            for s in interval:
                for t in range(s, interval.b + 1):
                    rho = m.composite(s, t)
                    for space in (v_plus, v_minus):
                        pushed = Subspace.image(
                            gf.matmul(rho, space(m, interval, s).basis, p), p
                        )
                        assert pushed == space(m, interval, t)


# Referee: the six operators by their composite definitions, with the two
# grid-boundary conventions, independent of the persistence basis the
# library reads them off.


def _ref_im_plus(m, i, t):
    return Subspace.image(m.composite(i.a, t), m.p)


def _ref_im_minus(m, i, t):
    if i.a == 1:
        return Subspace.zero(m.dim(t), m.p)
    return Subspace.image(m.composite(i.a - 1, t), m.p)


def _ref_ker_plus(m, i, t):
    if i.b == m.n:
        return Subspace.full(m.dim(t), m.p)
    return Subspace.kernel(m.composite(t, i.b + 1), m.p)


def _ref_ker_minus(m, i, t):
    return Subspace.kernel(m.composite(t, i.b), m.p)


def _ref_v_plus(m, i, t):
    if not i.contains(t):
        return Subspace.zero(m.dim(t), m.p)
    return gf.intersect(_ref_im_plus(m, i, t), _ref_ker_plus(m, i, t))


def _ref_v_minus(m, i, t):
    if not i.contains(t):
        return Subspace.zero(m.dim(t), m.p)
    return sum_subspaces(
        gf.intersect(_ref_im_minus(m, i, t), _ref_ker_plus(m, i, t)),
        gf.intersect(_ref_im_plus(m, i, t), _ref_ker_minus(m, i, t)),
    )


ON_INTERVAL = (
    (im_plus, _ref_im_plus),
    (im_minus, _ref_im_minus),
    (ker_plus, _ref_ker_plus),
    (ker_minus, _ref_ker_minus),
)
EVERYWHERE = ((v_plus, _ref_v_plus), (v_minus, _ref_v_minus))


def assert_operators_match_referee(m):
    for a in range(1, m.n + 1):
        for b in range(a, m.n + 1):
            interval = iv(a, b)
            for t in range(1, m.n + 1):
                pairs = EVERYWHERE + (ON_INTERVAL if interval.contains(t) else ())
                for op, ref in pairs:
                    got, want = op(m, interval, t), ref(m, interval, t)
                    assert got == want, (op.__name__, interval, t)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 5),
    max_dim=st.integers(0, 4),
    p=st.sampled_from([2, 5]),
    seed=st.integers(0, 2**16),
    eps=st.integers(0, 4),
)
def test_interval_operators_match_composite_referee(n, max_dim, p, seed, eps):
    # Subspace bases are canonical, so == is equality of subspaces.
    f = random_ladder(n, max_dim, p, seed)
    eps = min(eps, n - 1)
    image, _ = image_module(f)
    for m in (f.source, f.target, image,
              shift_module(f.source, eps), shift_module(f.target, eps)):
        assert_operators_match_referee(m)


# ---------------------------------------------------------------------------
# barcode


def test_barcode_reference_source(reference_ladder):
    assert barcode(reference_ladder.source) == Barcode.from_pairs(
        [(2, 3, 1), (2, 2, 1)]
    )


def test_barcode_reference_target(reference_ladder):
    assert barcode(reference_ladder.target) == Barcode.from_pairs([(1, 2, 1)])


def test_barcode_chain_module(chain_module):
    assert barcode(chain_module) == Barcode.from_pairs([(1, 2, 2), (2, 3, 1)])


def test_barcode_of_interval_module():
    for interval in (iv(1, 1), iv(2, 4), iv(1, 4)):
        m = interval_module(4, 5, interval)
        assert barcode(m) == Barcode.from_pairs([(interval.a, interval.b, 1)])


def test_barcode_total_dimension():
    rng = random.Random(13)
    for _ in range(20):
        p = rng.choice([2, 5])
        m = random_module(6, 4, p, rng)
        bc = barcode(m)
        for t in range(1, 7):
            assert bc.dim_at(t) == m.dim(t)


def test_barcode_additive_over_direct_sum():
    rng = random.Random(17)
    for _ in range(15):
        a = random_module(5, 3, 2, rng)
        b = random_module(5, 3, 2, rng)
        assert barcode(direct_sum(a, b)) == barcode(a).union(barcode(b))


def test_quotient_dims_give_multiplicity_of_every_interval():
    # dim v_plus - dim v_minus at the start of [a, b] is its multiplicity,
    # zero for intervals outside the barcode; the matching relies on it.
    rng = random.Random(41)
    for _ in range(30):
        m = random_module(5, 4, rng.choice([2, 5]), rng)
        bc = barcode(m)
        for a in range(1, m.n + 1):
            for b in range(a, m.n + 1):
                interval = iv(a, b)
                got = v_plus(m, interval, a).dim - v_minus(m, interval, a).dim
                assert got == bc.mult(interval)


def test_multiplicity_constant_along_interval():
    rng = random.Random(19)
    for _ in range(15):
        m = random_module(5, 4, 5, rng)
        bc = barcode(m)
        for interval, mult in bc.items():
            for t in interval:
                got = v_plus(m, interval, t).dim - v_minus(m, interval, t).dim
                assert got == mult


# ---------------------------------------------------------------------------
# persistence bases


def test_basis_of_interval_module_is_all_ones():
    m = interval_module(4, 2, iv(2, 4))
    pb = persistence_basis(m).validate(m)
    assert pb.starts.tolist() == [2] and pb.ends.tolist() == [4]
    assert [b.tolist() for b in pb.vectors] == [[], [[1]], [[1]], [[1]]]


def test_basis_of_reference_source(reference_ladder):
    pb = persistence_basis(reference_ladder.source)
    pb.validate(reference_ladder.source)
    assert pb.interval_barcode() == Barcode.from_pairs([(2, 3, 1), (2, 2, 1)])


def test_basis_matches_barcode_on_random_modules():
    rng = random.Random(29)
    for _ in range(40):
        p = rng.choice([2, 5])
        m = random_module(5, 4, p, rng)
        pb = persistence_basis(m).validate(m)
        assert pb.interval_barcode() == naive_barcode(m)


def test_basis_counting_matches_operator_dims():
    # Generator counts reproduce the dimensions of the interval operators.
    rng = random.Random(37)
    for _ in range(12):
        m = random_module(5, 3, 2, rng)
        pb = persistence_basis(m).validate(m)
        n = m.n
        for t in range(1, n + 1):
            k = pb.alive(t)
            alive = list(map(iv, pb.starts[k].tolist(), pb.ends[k].tolist()))
            for c in range(1, t + 1):
                im_p = im_plus(m, iv(c, n), t).dim
                assert im_p == sum(1 for i in alive if i.a <= c)
                im_m = im_minus(m, iv(c, n), t).dim
                assert im_m == sum(1 for i in alive if i.a < c)
            for d in range(t, n + 1):
                ker_p = ker_plus(m, iv(1, d), t).dim
                assert ker_p == sum(1 for i in alive if i.b <= d)
                ker_m = ker_minus(m, iv(1, d), t).dim
                assert ker_m == sum(1 for i in alive if i.b < d)


# ---------------------------------------------------------------------------
# the sweep, against the earlier sweep and the rank oracle


def _module_with_maps(p, dims, kind, seed):
    rng = np.random.default_rng(seed)
    maps = []
    for t in range(1, len(dims)):
        shape = (dims[t], dims[t - 1])
        if kind == "zero":
            maps.append(gf.zeros(*shape))
        elif kind == "identity":
            maps.append(np.eye(*shape, dtype=np.int64))
        else:
            maps.append(rng.integers(0, p, shape))
    return PersistenceModule(p, dims, maps)


@st.composite
def sweep_cases(draw):
    """A morphism whose modules the sweep decomposes: a random ladder, a
    k-way direct sum of them, the morphism between the shifted images of a
    ladder's ends, or the identity on a module with random, zero or
    identity maps, or on one built from bars."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**16))
    kind = draw(st.sampled_from(["ladder", "sum", "shift", "random", "zero", "identity",
                                 "bars"]))
    if kind == "ladder":
        return random_ladder(n, draw(st.integers(0, 6)), p, seed)
    if kind == "sum":
        k = draw(st.integers(2, 4))
        return direct_sum_morphism(*(random_ladder(n, 3, p, seed + i) for i in range(k)))
    if kind == "shift":
        return ref_shift_morphism(random_ladder(n, 4, p, seed), draw(st.integers(0, n - 1)))
    if kind == "bars":
        bars = draw(st.lists(st.tuples(st.integers(1, n), st.integers(0, n)), max_size=8))
        m = module_from_bars(n, p, [iv(a, min(a + length, n)) for a, length in bars])
    else:
        dims = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
        m = _module_with_maps(p, dims, kind, seed)
    return Morphism.identity(m)


def _fresh(f):
    """A copy of f with nothing cached, keeping source is target."""
    source = PersistenceModule(f.p, f.source.dims, f.source.maps)
    target = (source if f.target is f.source
              else PersistenceModule(f.p, f.target.dims, f.target.maps))
    return Morphism(source, target, f.comps)


def _with_bases(f, basis):
    """A copy of f whose M is in the bases basis(module) builds for its
    two ends."""
    g = _fresh(f)
    g._matrix = ref_basis_matrix(g, basis)
    return g


def _builds_a_basis(m):
    raise AssertionError("a persistence basis was built")


def _cli_tables(f):
    """What the CLI reports on f, with and without the shift by one."""
    out = [barcode(f.source), barcode(f.target), image_barcode(f)]
    for eps in range(min(f.n, 2)):
        out += [cli._match_json(method, eps, *cli._match_report(f, method, eps))
                for method in ("m", "g", "chi")]
    return out


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(f=sweep_cases())
def test_sweep_matches_the_earlier_sweep_and_the_rank_oracle(f):
    for m in (f.source, f.target):
        bc = persistence_basis(m).validate(m).interval_barcode()
        assert bc == naive_barcode(m)
        assert bc == ref_persistence_basis(m).validate(m).interval_barcode()
    assert _cli_tables(_with_bases(f, persistence_basis)) == \
        _cli_tables(_with_bases(f, ref_persistence_basis))


def _assert_m_equals_the_solve_referee(f):
    # The referee solves in the bases persistence_basis replays; M, built
    # from the two sweeps' records with no basis, must be the same matrix.
    h, g = _fresh(f), _fresh(f)
    ref = ref_basis_matrix(h)
    with mock.patch.object(oracle, "persistence_basis", _builds_a_basis):
        bm = basis_matrix(g)
    for name in ("src_a", "src_b", "tgt_a", "tgt_b", "m"):
        a, b = getattr(bm, name), getattr(ref, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert bm.barcodes == (barcode(h.source), barcode(h.target))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(f=sweep_cases())
def test_basis_matrix_equals_the_solve_referee_byte_for_byte(f):
    _assert_m_equals_the_solve_referee(f)


@st.composite
def long_grid_cases(draw):
    """A 1- to 3-way sum of seeded random ladders on a long grid, or its
    shift: source generators that die late, after older ones, so that
    M's column operations build on one another."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(8, 24))
    seed = draw(st.integers(0, 2**16))
    f = direct_sum_morphism(*(random_ladder(n, draw(st.integers(1, 5)), p, seed + i)
                              for i in range(draw(st.integers(1, 3)))))
    eps = draw(st.integers(0, 3))
    return shift_morphism(f, eps) if eps else f


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(f=long_grid_cases())
def test_basis_matrix_on_long_grids_equals_the_solve_referee_byte_for_byte(f):
    _assert_m_equals_the_solve_referee(f)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 8), p=st.sampled_from([2, 3, 5, 7]),
       bars=st.lists(st.tuples(st.integers(1, 8), st.integers(0, 8)), max_size=10))
def test_sweep_rebuilds_the_basis_module_from_bars_seeds(n, p, bars):
    # The standard basis vectors in stable start order, seeded by hand.
    bars = [iv(min(a, n), min(a + length, n)) for a, length in bars]
    built, want = persistence_basis(module_from_bars(n, p, bars)), ref_bars_basis(n, bars)
    for name in ("starts", "ends"):
        a, b = getattr(built, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert len(built.vectors) == len(want.vectors) == n
    for a, b in zip(built.vectors, want.vectors):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_only_the_sweep_builds_bases_and_m(wide_ladder):
    with mock.patch.object(oracle, "persistence_basis", _builds_a_basis):
        m = module_from_bars(4, 3, [iv(1, 4), iv(2, 3), iv(2, 4)])
        g = shift_morphism(wide_ladder, 1)
        assert g._matrix is None
        m_matching(g)  # a report reads M, which sweeps g's ends and builds no basis
        assert g._matrix is not None
    assert not hasattr(m, "_basis")  # a module caches nothing
    # A basis persistence_basis built first stays the cached object when
    # M's sweep of the same module follows.
    pb = persistence_basis(m)
    assert basis_matrix(Morphism.identity(m)).m.tolist() == gf.identity(3).tolist()
    assert persistence_basis(m) is pb
    # oracle keeps it only while the module lives.
    key = id(m)
    assert oracle._BASES[key] is pb
    del m
    assert key not in oracle._BASES


def test_sweep_makes_one_image_product_per_step(monkeypatch):
    # The earlier sweep made one product per live generator per step.
    m = random_module(8, 4, 5, random.Random(7))
    assert max(m.dims) >= 3
    calls = {"matmul": 0, "rref": 0, "solve": 0}

    def counting(name):
        real = getattr(gf, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(gf, name, counting(name))
    sweep(m)
    assert calls["rref"] == calls["solve"] == 0
    assert 0 < calls["matmul"] <= m.n - 1
    # persistence_basis replays the record of that one sweep: it reduces
    # nothing a second time.
    reductions = []
    real_reduce = modules._reduce_images

    def counted_reduce(*args):
        reductions.append(args)
        return real_reduce(*args)

    monkeypatch.setattr(modules, "_reduce_images", counted_reduce)
    persistence_basis(m)
    assert calls["rref"] == calls["solve"] == 0
    assert len(reductions) == m.n - 1


def test_dense_module_at_the_work_bound_decomposes_quickly():
    # n + the sum of all dims at the work bound, with dense seeded GF(2)
    # structure maps: every step reduces a full 255 x 255 image block, and
    # the earlier sweep took about 15 s here.
    n, d = 16, 255
    assert n + n * d == gf.MAX_WORK
    rng = np.random.default_rng(0)
    m = PersistenceModule(2, [d] * n, [rng.integers(0, 2, (d, d)) for _ in range(n - 1)])
    m.validate()
    start = time.perf_counter()
    bc = barcode(m)
    assert time.perf_counter() - start < 7
    assert all(bc.dim_at(t) == d for t in range(1, n + 1))
    # The random maps are rank-deficient, so some generators close early.
    assert len(bc.intervals()) > 1


# ---------------------------------------------------------------------------
# image modules


def test_image_module_of_reference(reference_ladder):
    im, embed = image_module(reference_ladder)
    assert barcode(im) == Barcode.from_pairs([(2, 2, 1)])
    embed.validate()
    assert is_injective(embed)


def test_image_of_identity_is_isomorphic(chain_module):
    im, _ = image_module(Morphism.identity(chain_module))
    assert barcode(im) == barcode(chain_module)


def test_image_of_zero_morphism(chain_module):
    im, _ = image_module(Morphism.zero(chain_module, chain_module))
    assert im.is_zero()


def test_factorization_composes_back():
    rng = random.Random(41)
    from indumatch import random_ladder

    for seed in range(10):
        f = random_ladder(5, 3, 2, seed)
        im, project, embed = image_factorization(f)
        project.validate()
        embed.validate()
        assert is_surjective(project)
        assert is_injective(embed)
        for t in range(1, f.n + 1):
            back = gf.matmul(embed.comp(t), project.comp(t), f.p)
            assert np.array_equal(back, f.comp(t))


# ---------------------------------------------------------------------------
# restriction and shifts


def test_restrict_window(chain_module):
    r = restrict(chain_module, 2, 3)
    assert r.dims == (3, 1)
    assert np.array_equal(r.map(1), chain_module.map(2))


def test_shift_zero_is_identity(chain_module):
    assert shift_module(chain_module, 0) == chain_module


def test_shift_dims_on_wide_ladder(wide_ladder):
    shifted = shift_module(wide_ladder.target, 1)
    assert shifted.dims == (2, 3, 1)
    assert barcode(shifted) == Barcode.from_pairs([(1, 2, 1), (1, 3, 1), (2, 2, 1)])


def test_shift_barcode_oracle():
    # Shift each bar independently: [a, b] survives as [a, b - eps].
    rng = random.Random(43)
    for _ in range(20):
        p = rng.choice([2, 5])
        m = random_module(6, 4, p, rng)
        bc = barcode(m)
        for eps in (0, 1, 2):
            expect = {}
            for interval, mult in bc.items():
                if interval.b - eps >= interval.a:
                    key = GridInterval(interval.a, interval.b - eps)
                    expect[key] = expect.get(key, 0) + mult
            assert barcode(shift_module(m, eps)) == Barcode(expect)


def test_one_eps_morphism_validates(chain_module):
    for eps in (0, 1, 2):
        f = one_eps_morphism(chain_module, eps).validate()
        assert f.n == 3 - eps


def test_shift_morphism_validates_and_shifts_tables(wide_ladder):
    g = shift_morphism(wide_ladder, 1).validate()
    assert g.source.dims == (1, 2, 1)
    assert g.target.dims == (2, 3, 1)


@st.composite
def shift_cases(draw):
    """A random ladder or a k-way direct sum of them, over GF(2) to GF(7)."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(2, 8))
    max_dim = draw(st.integers(1, 4))
    seeds = draw(st.lists(st.integers(0, 2**16), min_size=1, max_size=3))
    return direct_sum_morphism(*(random_ladder(n, max_dim, p, s) for s in seeds))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(f=shift_cases())
def test_shifted_matrix_reports_equal_those_on_the_shifted_modules(f):
    # The CLI's --eps path: the m, g and chi reports read off the shifted
    # M and the bars of its rows and columns alone.  shift_morphism's own
    # M is built by the sweep of its modules, independently of the shift.
    for eps in range(f.n):
        bm = basis_matrix(f).shift(eps)
        _assert_same_matrix(basis_matrix(shift_morphism(f, eps)), bm, eps)
        b_src, b_dst = bm.barcodes
        assert b_src == barcode(shift_module(f.source, eps))
        assert b_dst == barcode(shift_module(f.target, eps))
        reports = (m_table(bm), g_table(bm), chi_table(bm))
        for g in (shift_morphism(f, eps), ref_shift_morphism(f, eps)):
            assert reports == (m_matching(g), g_matching(g), chi(g)), (eps, g)


def _assert_same_matrix(got: BasisMatrix, want: BasisMatrix, *context):
    """got equals want field for field, dtypes included."""
    assert got.p == want.p, context
    for field in dataclasses.fields(BasisMatrix)[1:]:
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert a.dtype == b.dtype and np.array_equal(a, b), (*context, field.name)


def _bars(starts, ends):
    return [iv(a, b) for a, b in zip(starts.tolist(), ends.tolist())]


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 9), max_dim=st.integers(0, 5), p=st.sampled_from([2, 3, 5, 7]),
       seed=st.integers(0, 2**16))
def test_morphism_from_bars_inverts_basis_matrix(n, max_dim, p, seed):
    # The contract of morphism_from_bars: on the bars of M's columns and
    # rows, in birth order, the sweep of its modules reads M back.
    f = random_ladder(n, max_dim, p, seed)
    for eps in range(min(3, n)):
        bm = basis_matrix(f).shift(eps)
        g = morphism_from_bars(n - eps, p, _bars(bm.src_a, bm.src_b),
                               _bars(bm.tgt_a, bm.tgt_b), bm.m).validate()
        _assert_same_matrix(basis_matrix(g), bm, eps)


def test_morphism_from_bars_rejects_a_matrix_of_the_wrong_shape():
    with pytest.raises(ValueError, match=r"shape \(1, 1\), not \(1, 2\)"):
        morphism_from_bars(3, 2, [iv(1, 2), iv(2, 3)], [iv(1, 3)], [[1]])
    with pytest.raises(ValueError, match="does not fit"):
        morphism_from_bars(3, 2, [iv(1, 4)], [], gf.zeros(0, 1))


def test_morphism_from_bars_rejects_an_entry_off_the_hom_support():
    # [1,3] outlives [1,2], so no nonzero map [1,2] -> [1,3] exists and the
    # morphism would not be natural: a caller's mistake, named as such.
    with pytest.raises(ValueError, match=r"source generator \[1,2\] onto target"
                                         r" generator \[1,3\] with coefficient 1"):
        morphism_from_bars(3, 2, [iv(1, 2)], [iv(1, 3)], [[1]])


def test_shift_out_of_range(chain_module):
    with pytest.raises(ValueError):
        shift_module(chain_module, 3)
    # M does not know n, but a negative shift would stretch its bars past it.
    with pytest.raises(ValueError, match="shift amount -1 "):
        basis_matrix(random_ladder(4, 2, 2, 3)).shift(-1)


# ---------------------------------------------------------------------------
# the basis matrix M and what is read off it


def test_basis_matrix_of_thick_ladder(thick_ladder):
    bm = basis_matrix(thick_ladder)
    assert bm.src_a.tolist() == [2] and bm.src_b.tolist() == [3]
    assert list(zip(bm.tgt_a.tolist(), bm.tgt_b.tolist())) == [(1, 2), (2, 3)]
    # f_2 sends the source generator to (1, 1), the sum of both target ones.
    assert bm.m.tolist() == [[1], [1]]
    assert basis_matrix(thick_ladder) is bm  # cached on the morphism


def test_support_check_names_t_and_the_generator_pair():
    # Target generator [2,5] outlives source generator [3,4]: no map exists.
    bm = BasisMatrix(2, np.array([3]), np.array([4]), np.array([2]), np.array([5]),
                     mat([[1]]))
    with pytest.raises(InvariantError, match=r"t=3 .*\[3,4\].*\[2,5\]"):
        _check_support(bm)
    assert _check_support(BasisMatrix(2, bm.src_a, bm.src_b, bm.tgt_a, bm.tgt_a + 1,
                                      bm.m)) is not None


def test_image_barcode_of_reference(reference_ladder):
    assert image_barcode(reference_ladder) == Barcode.from_pairs([(2, 2, 1)])


def test_module_from_bars_seeds_a_valid_basis():
    bars = [iv(2, 4), iv(1, 1), iv(2, 4), iv(3, 3), iv(1, 4)]
    m = module_from_bars(4, 3, bars).validate()
    assert m.dims == (2, 3, 4, 3)
    pb = persistence_basis(m).validate(m)
    assert list(map(iv, pb.starts.tolist(), pb.ends.tolist())) == \
        sorted(bars, key=lambda i: i.a)
    assert barcode(m) == naive_barcode(m)
    with pytest.raises(ValueError):
        module_from_bars(3, 2, [iv(2, 4)])


def test_image_barcode_reads_bars_given_out_of_start_order():
    # V(t) keeps the given order, [2,3] before [1,3], but the sweep's
    # basis is in start order, so F_t's columns sorted by start are a
    # prefix; a basis in the given order would read the image as
    # {[1,1], [2,3]}.
    source = module_from_bars(3, 2, [iv(2, 3), iv(1, 3)])
    target = module_from_bars(3, 2, [iv(1, 3)])
    f = Morphism(source, target, [mat([[1]]), mat([[1, 1]]), mat([[1, 1]])]).validate()
    assert image_barcode(f) == naive_barcode(image_module(f)[0]) == \
        Barcode.from_pairs([(1, 3, 1)])
    assert m_matching(f) == m_matching(_with_bases(f, ref_persistence_basis)) == \
        MMatchingTable({(iv(1, 3), iv(1, 3)): 1})


def test_image_barcode_reads_columns_given_out_of_birth_order():
    # A hand-built M whose source columns, [2,3] then [1,3], are not in
    # birth order (the M of test_counts_read_columns_out_of_birth_order),
    # and the same M with them swapped: the image has dims 1, 2, 1 either
    # way, so both give {[1,3], [2,2]}, and chi reads the same three
    # barcodes.
    given = BasisMatrix(2, np.array([2, 1]), np.array([3, 3]), np.array([1, 1]),
                        np.array([2, 3]), mat([[1, 0], [1, 1]]))
    swapped = given.select(np.arange(2), np.array([1, 0]))
    assert list(swapped.src_a) == [1, 2]
    want = Barcode.from_pairs([(1, 3, 1), (2, 2, 1)])
    assert given.image_barcode() == swapped.image_barcode() == want
    assert chi_table(given) == chi_table(swapped)


def test_basis_validate_rejects_each_corruption(chain_module):
    m = chain_module
    pb = persistence_basis(m).validate(m)
    assert pb.starts.tolist() == [1, 1, 2] and pb.ends.tolist() == [2, 2, 3]
    b1, b2, b3 = pb.vectors
    broken = b2.copy()
    broken[:, 0] = (b2[:, 0] + b2[:, 2]) % 2  # no longer V_1 of its vector at t=1

    def with_b2(cols):
        return dataclasses.replace(pb, vectors=(b1, cols, b3))

    cases = [
        ("B_2 has shape", with_b2(b2[:, :2])),
        ("dependent at t=2", with_b2(b2[:, [0, 1, 0]])),
        ("dependent at t=2", with_b2(np.hstack([b2[:, :2], gf.zeros(3, 1)]))),
        ("chain breaks at t=1", with_b2(broken)),
        ("not inside 1..3", dataclasses.replace(pb, ends=np.array([2, 2, 4]))),
        ("birth order", dataclasses.replace(
            pb, starts=np.array([1, 2, 1]), ends=np.array([2, 3, 2]),
            vectors=(b1, b2[:, [0, 2, 1]], b3))),
    ]
    for message, basis in cases:
        with pytest.raises(ValidationError, match=message):
            basis.validate(m)
    # Two bars [1,1], [2,2] on k -> k: counts and ranks hold, but the
    # vector of [1,1] maps to a nonzero vector at t=2.
    k = PersistenceModule(2, (1, 1), [mat([[1]])])
    survivor = PersistenceBasis(np.array([1, 2]), np.array([1, 2]), (mat([[1]]), mat([[1]])))
    with pytest.raises(ValidationError, match="ending at t=1 survives it"):
        survivor.validate(k)


def _basis_matrix_cases(n, max_dim, p, seed, other, eps):
    f = random_ladder(n, max_dim, p, seed)
    g = random_ladder(n, max_dim, p, other)
    eps = min(eps, n - 1)
    return (f, direct_sum_morphism(f, g), shift_morphism(f, eps),
            ref_shift_morphism(f, eps))


CASES = dict(
    n=st.integers(1, 6),
    max_dim=st.integers(0, 4),
    p=st.sampled_from([2, 3, 5]),
    seed=st.integers(0, 2**16),
    other=st.integers(0, 2**16),
    eps=st.integers(0, 4),
)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(**CASES)
def test_basis_matrix_slices_match_frame_referee(n, max_dim, p, seed, other, eps):
    for f in _basis_matrix_cases(n, max_dim, p, seed, other, eps):
        bm = basis_matrix(f)
        for t in range(1, f.n + 1):
            ft = bm.at(t)
            for pb, a, b in ((persistence_basis(f.source), ft.src_a, ft.src_b),
                             (persistence_basis(f.target), ft.tgt_a, ft.tgt_b)):
                assert a.tolist() == pb.starts[pb.alive(t)].tolist()
                assert b.tolist() == pb.ends[pb.alive(t)].tolist()
            assert np.array_equal(ft.m, ref_frame(f, t)), t


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(**CASES)
def test_image_barcode_matches_rank_referee(n, max_dim, p, seed, other, eps):
    for f in _basis_matrix_cases(n, max_dim, p, seed, other, eps):
        assert image_barcode(f) == naive_barcode(image_module(f)[0])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(f=sweep_cases())
def test_image_barcode_matches_the_per_t_rref_referee(f):
    assert image_barcode(f) == ref_image_barcode(f) == naive_barcode(image_module(f)[0])


def _indexed_blocks(bm):
    # blocks() reads only M, so endpoints replaced by indices label each
    # block's rows and columns with their places in M.
    nr, nc = bm.m.shape
    return dataclasses.replace(bm, src_a=np.arange(nc), tgt_a=np.arange(nr)).blocks()


def assert_blocks_partition_m(bm):
    blocks = _indexed_blocks(bm)
    rows = [b.tgt_a.tolist() for b in blocks]
    cols = [b.src_a.tolist() for b in blocks]
    assert sum(map(len, rows)) == len({h for r in rows for h in r})  # disjoint
    assert sum(map(len, cols)) == len({g for c in cols for g in c})
    for h, g in np.argwhere(bm.m != 0).tolist():
        assert sum(h in r and g in c for r, c in zip(rows, cols)) == 1, (h, g)
    for block, r, c in zip(blocks, rows, cols):
        assert np.array_equal(block.m, bm.m[np.ix_(r, c)])
        assert block.m.any(axis=0).all() and block.m.any(axis=1).all()
        assert len(block.blocks()) == 1  # connected
    # The zero rows and columns of M are in no block.
    assert sorted(h for r in rows for h in r) == np.flatnonzero(bm.m.any(axis=1)).tolist()
    assert sorted(g for c in cols for g in c) == np.flatnonzero(bm.m.any(axis=0)).tolist()


def test_blocks_of_a_path_and_a_lone_entry():
    # Nonzeros (0,0), (0,1), (1,1), (2,2) with row 3 and column 3 zero:
    # a path through rows 0, 1 and a separate entry.
    m = mat([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]])
    ends = np.array([1, 1, 1, 1])
    bm = BasisMatrix(2, ends, ends, ends, ends, m)
    assert [b.m.tolist() for b in _indexed_blocks(bm)] == [[[1, 1], [0, 1]], [[1]]]
    assert_blocks_partition_m(bm)
    assert BasisMatrix(2, ends, ends, ends, ends, gf.zeros(4, 4)).blocks() == []


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(**CASES)
def test_blocks_partition_the_nonzeros_of_m(n, max_dim, p, seed, other, eps):
    for f in _basis_matrix_cases(n, max_dim, p, seed, other, eps):
        assert_blocks_partition_m(basis_matrix(f))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 6), max_dim=st.integers(0, 4), p=st.sampled_from([2, 3, 5]),
       seed=st.integers(0, 2**16), k=st.integers(2, 4))
def test_k_copies_have_k_times_the_blocks(n, max_dim, p, seed, k):
    f = random_ladder(n, max_dim, p, seed)
    one = len(basis_matrix(f).blocks())
    assert len(basis_matrix(direct_sum_morphism(*[f] * k)).blocks()) == k * one
