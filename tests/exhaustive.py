"""Every morphism of a small scope, checked against independent referees.

    PYTHONPATH=src python tests/exhaustive.py --n 3 --bars 2 --p 2

For each grid length up to --n, each pair of bar multisets with at most
--bars bars a side, and each M over GF(p) on their hom pairs, the bar
form f = morphism_from_bars(n, p, src, tgt, M) is checked (every
morphism of two such modules is a bar form written in some basis,
modules.py Claim M9):
  - the g table against quotients.ref_x_module, at every t of the grid,
    for every source bar I and target bar J, and the m table against the
    referee's dimension at K.b, the right end of K = I n J;
  - the image barcode against conftest.ref_image_barcode;
  - chi_table of M against oracle.lambda_ of the projection, then
    oracle.iota of the embedding, of modules.image_factorization;
  - at eps = 1 and 2 below n, the m and g tables of the shifted M
    (BasisMatrix.shift) against those of conftest.ref_shift_morphism.
Each module is checked once: its barcode against oracle.naive_barcode,
in bar form and behind a seeded random basis change per position
(ladders._hide).  Each morphism then runs once more between its two
hidden modules, so that the sweep sees more than identity bases, and
its tables and image barcode must equal the bar form's, as none of them
depends on the basis.

Smaller scopes run first, so the first mismatch printed is a minimal
ladder: it names the scope, the bars, M and the seeds of the hidden
bases.  The exit code is 1 if any check fails.
"""

from __future__ import annotations

import argparse
import itertools
import random
import sys
import time

from indumatch import (GridInterval, Morphism, gf, hom_exists, image_factorization,
                       module_from_bars, morphism_from_bars)
from indumatch.bauer_lesnick import chi_table
from indumatch.ladders import _hide, _random_change
from indumatch.matching import g_table, m_table
from indumatch.modules import barcode, basis_matrix
from indumatch.oracle import iota, lambda_, naive_barcode

from conftest import ref_image_barcode, ref_shift_morphism
from quotients import ref_x_module


def multisets(n: int, bars: int) -> list[tuple[GridInterval, ...]]:
    """Every multiset of at most bars intervals of {1..n}, sorted by
    (a, b), so in birth order."""
    intervals = [GridInterval(a, b) for a in range(1, n + 1) for b in range(a, n + 1)]
    return [c for k in range(bars + 1)
            for c in itertools.combinations_with_replacement(intervals, k)]


def bar_forms(src, tgt, p: int):
    """Every m over GF(p) on the hom pairs of the bars src and tgt."""
    hom = [(h, g) for h, j in enumerate(tgt) for g, i in enumerate(src) if hom_exists(i, j)]
    for values in itertools.product(range(p), repeat=len(hom)):
        m = gf.zeros(len(tgt), len(src))
        for (h, g), v in zip(hom, values):
            m[h, g] = v
        yield m


def hidden(f: Morphism, src_changes, tgt_changes) -> Morphism:
    """f behind a basis change (and its inverse) per position of each of
    its modules, as ladders.random_ladder hides its draws."""
    comps = [gf.matmul(t[0], gf.matmul(f.comp(k), s[1], f.p), f.p)
             for k, (s, t) in enumerate(zip(src_changes, tgt_changes), start=1)]
    return Morphism(_hide(f.source, src_changes), _hide(f.target, tgt_changes),
                    comps).validate()


def table_mismatches(f: Morphism, m_tab, g_tab) -> list[str]:
    """The entries of the m and g tables of f that differ from the
    comparison modules ref_x_module builds, over every bar pair of f's
    two barcodes; a table entry outside those pairs is a mismatch too."""
    out = []
    src, tgt = (bars.intervals() for bars in basis_matrix(f).barcodes)
    pairs = [(i, j) for i in src for j in tgt]
    for i, j in pairs:
        ref = ref_x_module(f, i, j).module
        dims = [g_tab.get(i, j).dim_at(t) for t in range(1, f.n + 1)]
        if dims != list(ref.dims):
            out.append(f"g entry of ({i},{j}) has dims {dims}, referee {list(ref.dims)}")
        k = i.intersect(j)
        want = ref.dim(k.b) if k else 0
        if m_tab.get(i, j) != want:
            out.append(f"m entry of ({i},{j}) is {m_tab.get(i, j)}, referee {want}")
    for table in (m_tab, g_tab):
        out += [f"entry ({i},{j}) is no bar pair" for (i, j), _ in table.items()
                if (i, j) not in pairs]
    return out


def run(max_n: int, bars: int, p: int, report=print) -> tuple[int, int]:
    """Check the scope, smaller grids first, and report each mismatch.
    Returns (morphisms, mismatches), a mismatch being a module or a
    morphism that fails a check.  The k-th bar multiset at grid length n
    is hidden behind the basis change seeded "n,p,k" wherever it is an
    end."""
    cases = failed = 0
    for n in range(1, max_n + 1):
        ends = multisets(n, bars)
        changes = []
        for k, ivs in enumerate(ends):
            module = module_from_bars(n, p, ivs)
            rng = random.Random(f"{n},{p},{k}")
            changes.append([_random_change(d, p, rng) for d in module.dims])
            for where, m in (("bar form", module),
                             (f"seed {n},{p},{k}", _hide(module, changes[-1]))):
                if barcode(m) != naive_barcode(m):
                    failed += 1
                    report(f"MISMATCH at n={n}, p={p}: bars {list(ivs)}, {where}: barcode"
                           f" {barcode(m)}, naive_barcode {naive_barcode(m)}")
        for (s, src), (t, tgt) in itertools.product(enumerate(ends), repeat=2):
            for m in bar_forms(src, tgt, p):
                cases += 1
                f = morphism_from_bars(n, p, src, tgt, m).validate()
                bm = basis_matrix(f)
                m_tab, g_tab, image = m_table(bm), g_table(bm), bm.image_barcode()
                problems = table_mismatches(f, m_tab, g_tab)
                if image != ref_image_barcode(f):
                    problems.append(f"image barcode {image} != referee {ref_image_barcode(f)}")
                _, project, embed = image_factorization(f)
                chi, ref_chi = chi_table(bm), lambda_(project).then(iota(embed))
                if chi != ref_chi:
                    problems.append(f"chi {chi} != referee {ref_chi}")
                for eps in range(1, min(n, 3)):
                    shifted, ref = bm.shift(eps), basis_matrix(ref_shift_morphism(f, eps))
                    got, want = ((m_table(b), g_table(b)) for b in (shifted, ref))
                    if got != want:
                        problems.append(f"at eps {eps}: m and g {got} differ from {want},"
                                        f" those of ref_shift_morphism")
                hm = basis_matrix(hidden(f, changes[s], changes[t]))
                got = (m_table(hm), g_table(hm), hm.image_barcode())
                if got != (m_tab, g_tab, image):
                    problems.append(f"behind the seeds {n},{p},{s} and {n},{p},{t}:"
                                    f" m, g and image {got} differ from the bar form's")
                if problems:
                    failed += 1
                    report(f"MISMATCH at n={n}, p={p}: source bars {list(src)}, target bars"
                           f" {list(tgt)}, M = {m.tolist()}")
                    for problem in problems:
                        report(f"  {problem}")
    return cases, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--n", type=int, default=3, help="largest grid length")
    parser.add_argument("--bars", type=int, default=2, help="most bars a side")
    parser.add_argument("--p", type=int, default=2, help="the prime")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    cases, failed = run(args.n, args.bars, args.p)
    print(f"n <= {args.n}, at most {args.bars} bars a side, GF({args.p}): {cases} morphisms,"
          f" {failed} mismatches, {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
