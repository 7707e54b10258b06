"""The 29-entry catalog and the seeded random generators."""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest

from indumatch import (
    CATALOG_CODES,
    Barcode,
    GridInterval,
    LadderCode,
    Morphism,
    PersistenceModule,
    THIN_CODES,
    ValidationError,
    direct_sum,
    direct_sum_morphism,
    enumerate_catalog,
    from_code,
    g_matching,
    gf,
    m_matching,
    module_from_bars,
    random_ladder,
    random_module,
)
from indumatch.ladders import ZERO_CODE
from indumatch.serial import dumps_canonical, morphism_to_dict

from conftest import iv, mat


# The 27 thin codes, pinned: single-row intervals plus the staircases
# upper [a,b] over lower [c,d] with a <= c <= b <= d.
GOLDEN_THIN = sorted(
    [
        ("000", "100"), ("000", "010"), ("000", "001"),
        ("000", "110"), ("000", "011"), ("000", "111"),
        ("100", "000"), ("010", "000"), ("001", "000"),
        ("110", "000"), ("011", "000"), ("111", "000"),
        ("100", "100"), ("100", "110"), ("100", "111"),
        ("110", "110"), ("110", "111"), ("111", "111"),
        ("110", "010"), ("110", "011"), ("111", "011"),
        ("111", "001"), ("010", "010"), ("010", "011"),
        ("011", "011"), ("011", "001"), ("001", "001"),
    ]
)


def code(upper, lower):
    return LadderCode(
        tuple(int(x) for x in upper), tuple(int(x) for x in lower)
    )


def test_thin_codes_match_golden_list():
    got = sorted(
        ("".join(map(str, c.upper)), "".join(map(str, c.lower)))
        for c in THIN_CODES
    )
    assert got == GOLDEN_THIN


def test_catalog_has_29_valid_entries():
    cat = enumerate_catalog(2)
    assert len(cat) == 29
    for f in cat:
        f.validate()


def test_catalog_valid_over_gf5():
    for f in enumerate_catalog(5):
        f.validate()


def test_spot_diagram_011_001():
    f = from_code(code("011", "001"), 2)
    assert f.target.dims == (0, 1, 1)
    assert f.source.dims == (0, 0, 1)
    assert np.array_equal(f.comp(3), mat([[1]]))
    assert np.array_equal(f.target.map(2), mat([[1]]))


def test_spot_diagram_thick_121_011():
    f = from_code(code("121", "011"), 2)
    assert f.target.dims == (1, 2, 1)
    assert np.array_equal(f.target.map(1), mat([[1], [0]]))
    assert np.array_equal(f.target.map(2), mat([[0, 1]]))
    assert np.array_equal(f.comp(2), mat([[1], [1]]))
    assert np.array_equal(f.comp(3), mat([[1]]))


def test_spot_diagram_thick_110_121():
    f = from_code(code("110", "121"), 2)
    assert f.source.dims == (1, 2, 1)
    assert f.target.dims == (1, 1, 0)
    assert np.array_equal(f.comp(1), mat([[1]]))
    assert np.array_equal(f.comp(2), mat([[1, 1]]))
    assert f.comp(3).shape == (0, 1)


def test_zero_code_is_zero_morphism():
    f = from_code(code("000", "000"), 2)
    assert f.source.is_zero() and f.target.is_zero()


def test_unknown_code_rejected():
    with pytest.raises(ValueError):
        from_code(code("101", "000"), 2)
    with pytest.raises(ValueError):
        from_code(code("111", "100"), 2)


def test_thick_ladder_matching_table():
    f = from_code(code("121", "011"), 2)
    assert m_matching(f).as_dict() == {(iv(2, 3), iv(2, 3)): 1}
    assert g_matching(f).as_dict() == {
        (iv(2, 3), iv(2, 3)): Barcode.from_pairs([(2, 3, 1)])
    }


def test_catalog_sum_reproduces_reference(reference_ladder):
    total = direct_sum_morphism(
        from_code(code("000", "011"), 2), from_code(code("110", "010"), 2)
    )
    assert total == reference_ladder


def test_random_ladder_deterministic():
    a = random_ladder(6, 4, 2, 12345)
    b = random_ladder(6, 4, 2, 12345)
    assert a == b
    c = random_ladder(6, 4, 2, 12346)
    assert a != c


def test_random_ladders_validate():
    for seed in range(60):
        random_ladder(6, 4, 2 if seed % 2 else 5, seed).validate()


def test_random_ladder_tables_double_under_self_sum():
    f = random_ladder(6, 4, 2, 777)
    doubled = m_matching(direct_sum_morphism(f, f)).as_dict()
    assert doubled == {k: 2 * c for k, c in m_matching(f).items()}


def _ref_interval_module(n, p, interval):
    dims = [1 if interval.contains(t) else 0 for t in range(1, n + 1)]
    maps = [gf.identity(1) if interval.contains(t) and interval.contains(t + 1)
            else gf.zeros(dims[t], dims[t - 1]) for t in range(1, n)]
    return PersistenceModule(p, dims, maps)


def test_module_from_bars_equals_direct_sum_of_interval_modules():
    # The bar draws of random_ladder, summed one interval module at a time.
    rng = random.Random(2024)
    for _ in range(500):
        n, max_dim, p = rng.randint(1, 7), rng.randint(0, 4), rng.choice([2, 3, 5, 7])
        dims, bars = [0] * n, []
        for _ in range(rng.randrange(0, 2 * n + 1)):
            a = rng.randint(1, n)
            b = rng.randint(a, n)
            if all(dims[t - 1] < max_dim for t in range(a, b + 1)):
                for t in range(a, b + 1):
                    dims[t - 1] += 1
                bars.append(GridInterval(a, b))
        acc = PersistenceModule(p, [0] * n, [gf.zeros(0, 0)] * (n - 1))
        for bar in bars:
            acc = direct_sum(acc, _ref_interval_module(n, p, bar))
        assert module_from_bars(n, p, bars) == acc


# The generators' output, pinned beyond the golden files (n 6-8, the
# catalog at GF(2)): the sha256 of the canonical JSON of every draw.
# After a deliberate change, recompute them from tests/ with
#   PYTHONPATH=../src python -c "import test_ladders as t; print(t.generator_digests())"
LADDER_DRAWS = ([(40, 4, p, s) for p in (2, 5) for s in range(3)]
                + [(1, 3, 7, s) for s in range(10)] + [(5, 0, 2, s) for s in range(5)]
                + [(6, 4, 3, s) for s in range(20)])
GENERATOR_DIGESTS = {
    "random_ladder": "338042afd1561fb487b09c25068431eac72e8af125f1ca07c71b4e3b9b7d8dc9",
    "random_module": "9a23ab57fdb110899eedd991857ffadc9fea067e9ffaea474e77ef07bb1068de",
    "catalog_gf5": "4e27a599007458f5a82f441df5d80c14a56b6e1a04ba77cd3966509f68a2e85a",
}


def _sha(morphisms) -> str:
    h = hashlib.sha256()
    for f in morphisms:
        h.update(dumps_canonical(morphism_to_dict(f)).encode("ascii") + b"\0")
    return h.hexdigest()


def generator_digests() -> dict[str, str]:
    rng = random.Random(31)
    modules = [random_module(n, d, p, rng) for n, d, p in
               [(rng.randint(1, 12), rng.randint(0, 4), rng.choice([2, 3, 5]))
                for _ in range(40)]]
    return {
        "random_ladder": _sha(random_ladder(*draw) for draw in LADDER_DRAWS),
        "random_module": _sha(Morphism.identity(m) for m in modules),
        "catalog_gf5": _sha(from_code(c, 5) for c in CATALOG_CODES + (ZERO_CODE,)),
    }


def test_generators_match_pinned_digests():
    assert generator_digests() == GENERATOR_DIGESTS


@pytest.mark.parametrize("max_dim", [0, 3])
def test_random_ladder_on_an_empty_grid_is_rejected(max_dim):
    with pytest.raises(ValidationError, match="at least one position"):
        random_ladder(0, max_dim, 2, 1)


def test_random_ladder_inverts_each_basis_change_once(monkeypatch):
    # One solve per drawn matrix decides invertibility and gives the
    # inverse: one basis change per position and side, 2n in all.
    inverted = []
    real_solve = gf.solve

    def solve(a, b, p):
        x = real_solve(a, b, p)
        if x is not None:
            inverted.append(a.shape)
        return x

    def refused(*args):
        raise AssertionError("a second inversion or rank test")

    monkeypatch.setattr(gf, "solve", solve)
    monkeypatch.setattr(gf, "inverse", refused)
    monkeypatch.setattr(gf, "rank", refused)
    for n, max_dim, p, seed in [(1, 3, 7, 0), (6, 4, 2, 5), (40, 4, 5, 1)]:
        inverted.clear()
        f = random_ladder(n, max_dim, p, seed)
        assert inverted == [(d, d) for d in f.source.dims + f.target.dims]
