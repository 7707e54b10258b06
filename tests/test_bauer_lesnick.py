"""Greedy endpoint-bucket matchings and their relation to the counting one."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indumatch import (
    Barcode,
    Morphism,
    barcode,
    chi,
    direct_sum,
    direct_sum_morphism,
    gf,
    image_factorization,
    image_module,
    interval_module,
    iota,
    is_eps_matching,
    lambda_,
    m_matching,
    one_eps_morphism,
    random_ladder,
    random_module,
    realize_as_m,
    representation,
    shift_module,
    shift_morphism,
)
from indumatch.bauer_lesnick import bucket_matching
from indumatch.matching import RepMatching

from conftest import iv, mat, ref_shift_morphism


def embedding(n, p, small, big_summands):
    """Diagonal embedding of one interval module into a sum of intervals."""
    source = interval_module(n, p, small)
    target = interval_module(n, p, big_summands[0])
    for extra in big_summands[1:]:
        target = direct_sum(target, interval_module(n, p, extra))
    comps = []
    for t in range(1, n + 1):
        alive = [j for j in big_summands if j.contains(t)]
        c = gf.zeros(len(alive), 1 if small.contains(t) else 0)
        if c.shape[1]:
            for r, j in enumerate(alive):
                c[r, 0] = 1 if small.contains(t) else 0
        comps.append(c)
    return Morphism(source, target, comps).validate()


# ---------------------------------------------------------------------------
# iota


def test_iota_on_reference_embedding(reference_ladder):
    _, embed = image_module(reference_ladder)
    sigma = iota(embed)
    assert sigma.items() == [((iv(2, 2), 1), (iv(1, 2), 1))]


def test_iota_identity_is_identity(chain_module):
    sigma = iota(Morphism.identity(chain_module))
    assert all(s == d for s, d in sigma.items())
    assert len(sigma) == barcode(chain_module).total()


def test_iota_prefers_longer_bar_dying_together():
    # k_{[2,2]} embedded diagonally into k_{[1,2]} + k_{[2,2]}: both target
    # bars die at 2; the longer one is matched first.
    f = embedding(2, 2, iv(2, 2), [iv(1, 2), iv(2, 2)])
    sigma = iota(f)
    assert sigma.get((iv(2, 2), 1)) == (iv(1, 2), 1)


def test_iota_rejects_non_injective(reference_ladder):
    with pytest.raises(ValueError):
        iota(reference_ladder)


# ---------------------------------------------------------------------------
# lambda


def test_lambda_on_reference_projection(reference_ladder):
    _, project, _ = image_factorization(reference_ladder)
    sigma = lambda_(project)
    assert sigma.items() == [((iv(2, 3), 1), (iv(2, 2), 1))]


def test_lambda_identity(chain_module):
    sigma = lambda_(Morphism.identity(chain_module))
    assert all(s == d for s, d in sigma.items())


def test_lambda_prefers_longer_bar_born_together():
    # k_{[1,3]} + k_{[1,2]} projected onto k_{[1,2]}: the image bar hangs
    # off the longer source bar born at the same time.
    n, p = 3, 2
    source = direct_sum(
        interval_module(n, p, iv(1, 3)), interval_module(n, p, iv(1, 2))
    )
    target = interval_module(n, p, iv(1, 2))
    comps = [mat([[0, 1]]), mat([[0, 1]]), gf.zeros(0, 1)]
    h = Morphism(source, target, comps).validate()
    sigma = lambda_(h)
    assert sigma.get((iv(1, 3), 1)) == (iv(1, 2), 1)
    assert sigma.get((iv(1, 2), 1)) is None


def test_lambda_rejects_non_surjective(reference_ladder):
    with pytest.raises(ValueError):
        lambda_(reference_ladder)


@pytest.mark.parametrize("by", ["bogus", "Birth", "", None])
def test_bucket_matching_rejects_an_unknown_endpoint(by):
    b = barcode(random_ladder(5, 3, 2, 7).source)
    with pytest.raises(ValueError, match='"birth" or "death"'):
        bucket_matching(b, b, by)


# ---------------------------------------------------------------------------
# chi


def test_chi_reference_values(reference_ladder):
    sigma = chi(reference_ladder)
    assert sigma.get((iv(2, 3), 1)) == (iv(1, 2), 1)
    assert sigma.get((iv(2, 2), 1)) is None


def test_chi_of_identity(chain_module):
    sigma = chi(Morphism.identity(chain_module))
    assert all(s == d for s, d in sigma.items())
    assert len(sigma) == barcode(chain_module).total()


def test_chi_recovers_image_barcode():
    for seed in range(25):
        f = random_ladder(6, 4, 2 if seed % 2 else 5, 900 + seed)
        sigma = chi(f)
        overlaps = {}
        for (i, _), (j, _) in sigma.items():
            k = i.intersect(j)
            overlaps[k] = overlaps.get(k, 0) + 1
        im, _ = image_module(f)
        assert Barcode(
            {k: c for k, c in overlaps.items()}
        ) == barcode(im)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 6),
    max_dim=st.integers(0, 4),
    p=st.sampled_from([2, 3, 5]),
    seed=st.integers(0, 2**16),
    other=st.integers(0, 2**16),
    eps=st.integers(0, 4),
)
def test_chi_matches_image_factorization_referee(n, max_dim, p, seed, other, eps):
    # chi reads three barcodes; the referee composes the two legs of the
    # image factorization.
    f = random_ladder(n, max_dim, p, seed)
    eps = min(eps, n - 1)
    for h in (f, direct_sum_morphism(f, random_ladder(n, max_dim, p, other)),
              shift_morphism(f, eps), ref_shift_morphism(f, eps)):
        _, project, embed = image_factorization(h)
        assert chi(h) == lambda_(project).then(iota(embed))


def test_chi_matched_pairs_are_admissible():
    for seed in range(25):
        f = random_ladder(6, 4, 2, 950 + seed)
        for (i, _), (j, _) in chi(f).items():
            assert j.a <= i.a <= j.b <= i.b
            assert i.intersect(j) is not None


def test_chi_not_additive_regression(reference_ladder):
    # The counting matching pairs [2,2] with [1,2]; the greedy matching
    # leaves [2,2] unmatched and uses [2,3] instead.
    assert m_matching(reference_ladder).as_dict() == {(iv(2, 2), iv(1, 2)): 1}
    sigma = chi(reference_ladder)
    assert sigma.get((iv(2, 2), 1)) is None
    assert sigma.get((iv(2, 3), 1)) == (iv(1, 2), 1)


# ---------------------------------------------------------------------------
# epsilon-matching


def test_identity_matching_is_zero_matching(chain_module):
    bc = barcode(chain_module)
    sigma = RepMatching({bar: bar for bar in bc.rep()})
    ok, why = is_eps_matching(sigma, bc, bc, 0)
    assert ok and why is None


def test_empty_matching_fails_on_long_bar():
    bc = Barcode.from_pairs([(1, 4, 1)])
    ok, why = is_eps_matching(RepMatching({}), bc, Barcode(), 1)
    assert not ok
    assert why == ("unmatched_source", (iv(1, 4), 1))


def test_unmatched_target_clause():
    b_src = Barcode()
    b_dst = Barcode.from_pairs([(1, 4, 1)])
    ok, why = is_eps_matching(RepMatching({}), b_src, b_dst, 1)
    assert not ok and why[0] == "unmatched_target"


def test_containment_clause():
    b_src = Barcode.from_pairs([(1, 6, 1)])
    b_dst = Barcode.from_pairs([(5, 6, 1)])
    sigma = RepMatching({(iv(1, 6), 1): (iv(5, 6), 1)})
    ok, why = is_eps_matching(sigma, b_src, b_dst, 1)
    assert not ok and why[0] == "containment"


def test_chi_of_reference_is_one_matching(reference_ladder):
    sigma = chi(reference_ladder)
    b_src = barcode(reference_ladder.source)
    b_dst = barcode(reference_ladder.target)
    ok, why = is_eps_matching(sigma, b_src, b_dst, 1)
    assert ok, why


def test_rejects_foreign_bars(chain_module):
    bc = barcode(chain_module)
    sigma = RepMatching({(iv(1, 3), 1): (iv(1, 2), 1)})
    with pytest.raises(ValueError):
        is_eps_matching(sigma, bc, bc, 0)
    # A negative eps is refused, not read as a looser coverage threshold.
    f = random_ladder(5, 3, 2, 7)
    with pytest.raises(ValueError, match="eps >= 0, got -1"):
        is_eps_matching(chi(f), barcode(f.source), barcode(f.target), -1)


def test_chi_of_shift_comparison_is_2eps_matching():
    # Thickening a module by the shift gives a connecting morphism whose
    # greedy matching is a 2*eps-matching between the two barcodes.
    rng = random.Random(83)
    for case in range(15):
        m = random_module(6, 4, 2 if case % 2 else 5, rng)
        for eps in (1, 2):
            oe = one_eps_morphism(m, eps)
            _, project, _ = image_factorization(oe)
            sigma = chi(project)  # onto the thickened image module
            ok, why = is_eps_matching(
                sigma,
                barcode(oe.source),
                barcode(shift_module(m, eps)),
                2 * eps,
            )
            assert ok, (case, eps, why)


# ---------------------------------------------------------------------------
# realization


def test_realize_reference(reference_ladder):
    g, cert = realize_as_m(reference_ladder)
    assert cert.ok
    assert m_matching(g).as_dict() == {(iv(2, 3), iv(1, 2)): 1}


def test_realize_is_stable_on_interval_sums():
    # A morphism already made of interval-to-interval identities realizes
    # itself: same counting table.
    n, p = 4, 2
    src = direct_sum(
        interval_module(n, p, iv(1, 3)), interval_module(n, p, iv(2, 4))
    )
    dst = direct_sum(
        interval_module(n, p, iv(1, 2)), interval_module(n, p, iv(2, 3))
    )
    comps = []
    for t in range(1, n + 1):
        rows = [j for j in (iv(1, 2), iv(2, 3)) if j.contains(t)]
        cols = [i for i in (iv(1, 3), iv(2, 4)) if i.contains(t)]
        c = gf.zeros(len(rows), len(cols))
        for r, j in enumerate(rows):
            for k, i in enumerate(cols):
                if (i, j) in [(iv(1, 3), iv(1, 2)), (iv(2, 4), iv(2, 3))]:
                    c[r, k] = 1
        comps.append(c)
    f = Morphism(src, dst, comps).validate()
    g, cert = realize_as_m(f)
    assert cert.ok
    assert m_matching(g).as_dict() == m_matching(f).as_dict()


def test_realize_random_morphisms():
    for seed in range(25):
        f = random_ladder(5, 3, 2 if seed % 2 else 5, 2500 + seed)
        g, cert = realize_as_m(f)
        assert cert.ok, seed
        g.validate()
        assert chi(g) == chi(f), seed
        rep = representation(
            m_matching(g), barcode(f.source), barcode(f.target)
        )
        assert rep.counts() == chi(f).counts(), seed
