"""Modules, subspace operators, barcodes, bases, images and shifts."""

from __future__ import annotations

import random

import numpy as np
import pytest

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
    image_factorization,
    image_module,
    interval_module,
    ker_minus,
    ker_plus,
    one_eps_morphism,
    persistence_basis,
    random_module,
    restrict,
    shift_module,
    shift_morphism,
    v_minus,
    v_plus,
    zero_module,
)
from indumatch.gf import Subspace
from indumatch.oracle import naive_barcode

from conftest import iv, mat


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
    with pytest.raises(ValidationError, match="t=2"):
        bad.validate()


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
    assert len(pb.generators) == 1
    gen = pb.generators[0]
    assert gen.interval == iv(2, 4)
    assert all(np.array_equal(vec, mat([[1]])) for vec in gen.vectors)


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
            for c in range(1, t + 1):
                alive = [g.interval for g in pb.alive_at(t)]
                im_p = im_plus(m, iv(c, n), t).dim
                assert im_p == sum(1 for i in alive if i.a <= c)
                im_m = im_minus(m, iv(c, n), t).dim
                assert im_m == sum(1 for i in alive if i.a < c)
            for d in range(t, n + 1):
                alive = [g.interval for g in pb.alive_at(t)]
                ker_p = ker_plus(m, iv(1, d), t).dim
                assert ker_p == sum(1 for i in alive if i.b <= d)
                ker_m = ker_minus(m, iv(1, d), t).dim
                assert ker_m == sum(1 for i in alive if i.b < d)


# ---------------------------------------------------------------------------
# image modules


def test_image_module_of_reference(reference_ladder):
    im, embed = image_module(reference_ladder)
    assert barcode(im) == Barcode.from_pairs([(2, 2, 1)])
    embed.validate()
    assert embed.is_injective()


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
        assert project.is_surjective()
        assert embed.is_injective()
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


def test_shift_out_of_range(chain_module):
    with pytest.raises(ValueError):
        shift_module(chain_module, 3)
