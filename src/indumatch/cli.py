"""Command-line front end.

Subcommands: barcode, match, sum, catalog, random.  A report is built
once as objects (the barcodes, a table, chi's unmatched source bars) and
rendered from them, as JSON with sorted keys (byte-deterministic given
the same file and flags) or as ASCII bars; only the JSON writers know
the report schema.  Every report (the three barcodes, the tables
and chi) reads one matrix M between the persistence bases of the
morphism's ends, whose columns and rows carry the source and target
bars.  match --eps shifts M alone (BasisMatrix.shift), so it builds
no shifted module, morphism or basis.  Exit codes: 0 ok, 2 parse error
(including a member the file format does not define, at the top level
or in a module, a dimension above gf.MAX_DIM, a file past the work bound
gf.MAX_WORK, an input longer than serial.MAX_INPUT_BYTES, which is
refused once that many bytes are read, and one with more ","
separators than serial.MAX_INPUT_VALUES, refused before it is parsed),
3 validation error, 4 usage error (including a catalog --dump DIR that
cannot be written and random arguments whose output could pass either
bound), 5 incompatible inputs (including a sum whose dims, summed
position by position, pass the field bound, the dimension cap or the
work bound: sum loads its files one at a time and refuses at the first
file whose running sum does, so no later file is read and the sum is not
built), 6 internal invariant failure (a bug; the message names the
failing check).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from . import gf, modules, serial
from .bauer_lesnick import chi_table
from .ladders import CATALOG_CODES, from_code, random_ladder
from .matching import g_table, m_table
from .modules import (
    Barcode,
    InvariantError,
    Morphism,
    ValidationError,
    direct_sum_morphism,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATE = 3
EXIT_USAGE = 4
EXIT_INCOMPATIBLE = 5
EXIT_INTERNAL = 6


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="indumatch", description=__doc__)
    parser.add_argument("--prime", type=int, default=2,
                        help="field characteristic for generated data")
    parser.add_argument("--format", choices=["json", "ascii"], default="json",
                        help="report format")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bar = sub.add_parser("barcode", help="barcodes of source, target and image")
    p_bar.add_argument("file")

    p_match = sub.add_parser("match", help="matching induced by the morphism")
    p_match.add_argument("file")
    p_match.add_argument("--method", choices=["m", "g", "chi"], default="m",
                         help="m (counts), g (bar-valued) or chi (greedy)")
    p_match.add_argument("--eps", type=int, default=0,
                         help="match the morphism the shift functor induces"
                              " (shifts its basis matrix; grid length n - eps)")

    p_sum = sub.add_parser("sum", help="direct sum of ladder files")
    p_sum.add_argument("files", nargs="+")

    p_cat = sub.add_parser("catalog", help="the 29 indecomposable ladders on {1,2,3}")
    p_cat.add_argument("--dump", metavar="DIR",
                       help="write one file per catalog entry into DIR")

    p_rand = sub.add_parser("random", help="generate a random ladder file")
    p_rand.add_argument("--n", type=int, default=6)
    p_rand.add_argument("--max-dim", type=int, default=4)
    p_rand.add_argument("--seed", type=int, default=None,
                        help="defaults to INDUMATCH_SEED or 0")
    return parser


def _load(path: str) -> Morphism:
    f = serial.read_morphism(path)
    f.validate()
    return f


def _interval_json(iv) -> list[int]:
    return [iv.a, iv.b]


def _barcode_json(bc: Barcode) -> list[dict]:
    return [
        {"interval": _interval_json(iv), "multiplicity": m}
        for iv, m in bc.items()
    ]


def _indexed_bar_json(iv, index: int) -> dict:
    return {"interval": _interval_json(iv), "index": index}


def _emit(payload: dict) -> int:
    sys.stdout.write(serial.dumps_canonical(payload))
    return EXIT_OK


# ---------------------------------------------------------------------------
# ASCII rendering: one character column per grid position, a full block
# over the support of each indexed bar.  It reads the report objects, as
# the JSON writers do; GridInterval prints as [a,b].


def _bar_row(iv, n: int) -> str:
    return "".join("█" if iv.contains(t) else "·" for t in range(1, n + 1))


def _render_barcode_panel(title: str, bc: Barcode, n: int) -> list[str]:
    lines = [f"  {f'{iv}_{idx}':<10} {_bar_row(iv, n)}" for iv, idx in bc.rep()]
    return [f"{title}:"] + (lines or ["  (empty)"])


def cmd_barcode(f: Morphism, fmt: str) -> int:
    bm = modules.basis_matrix(f)
    b_src, b_dst = bm.barcodes
    b_img = bm.image_barcode()
    if fmt == "ascii":
        lines = (
            _render_barcode_panel("source", b_src, f.n)
            + _render_barcode_panel("target", b_dst, f.n)
            + _render_barcode_panel("image", b_img, f.n)
        )
        sys.stdout.write("\n".join(lines) + "\n")
        return EXIT_OK
    return _emit(
        {
            "barcode_source": _barcode_json(b_src),
            "barcode_target": _barcode_json(b_dst),
            "barcode_image": _barcode_json(b_img),
        }
    )


def _match_report(f: Morphism, method: str, eps: int):
    """The table of match --method method --eps eps on f, and for chi the
    indexed source bars it leaves unmatched (for m and g, none).

    Every report takes one M, f's or with eps > 0 its shift, so the
    shifted modules are never built.
    """
    bm = modules.basis_matrix(f)
    if eps:
        bm = bm.shift(eps)
    table = {"m": m_table, "g": g_table, "chi": chi_table}[method](bm)
    if method != "chi":
        return table, []
    matched = table.domain()
    return table, [bar for bar in bm.barcodes[0].rep() if bar not in matched]


def _match_json(method: str, eps: int, table, unmatched) -> dict:
    """The JSON payload of a match report: the one place its schema lives."""
    if method == "chi":
        return {"method": "chi", "eps": eps,
                "pairs": [{"source": _indexed_bar_json(*s), "target": _indexed_bar_json(*t)}
                          for s, t in table.items()],
                "unmatched_source": [_indexed_bar_json(*s) for s in unmatched]}
    entries = [
        {"I": _interval_json(i), "J": _interval_json(j),
         **({"count": v} if method == "m" else {"bars": _barcode_json(v)})}
        for (i, j), v in table.items()
    ]
    return {"method": method, "eps": eps, "entries": entries}


def _match_ascii(method: str, n: int, table, unmatched) -> str:
    """A match report drawn on the grid 1..n: one line per table entry,
    or per chi pair and unmatched source bar."""
    if method == "chi":
        lines = [f"{i}_{l} {_bar_row(i, n)} → {_bar_row(j, n)} {j}_{m}"
                 for (i, l), (j, m) in table.items()]
        lines += [f"{i}_{l} {_bar_row(i, n)} → ×" for i, l in unmatched]
    else:
        lines = []
        for (i, j), v in table.items():
            detail = f"x{v}" if method == "m" else " ".join(f"{iv}x{k}" for iv, k in v.items())
            lines.append(f"{i} {_bar_row(i, n)} → {_bar_row(j, n)} {j}  {detail}")
        lines = lines or ["(empty matching)"]
    return "\n".join(lines) + "\n"


def cmd_match(f: Morphism, method: str, eps: int, fmt: str) -> int:
    if not 0 <= eps <= f.n - 1:
        raise UsageError(f"--eps must be in 0..{f.n - 1}")
    report = _match_report(f, method, eps)
    if fmt == "ascii":
        # The shifted grid is 1..n - eps.
        sys.stdout.write(_match_ascii(method, f.n - eps, *report))
        return EXIT_OK
    return _emit(_match_json(method, eps, *report))


def cmd_sum(paths: list[str]) -> int:
    morphisms: list[Morphism] = []
    dims: list[int] = []  # the position-wise sum of the files' dims so far
    for path in paths:
        f = _load(path)
        first = morphisms[0] if morphisms else f
        if f.n != first.n or f.p != first.p:
            sys.stderr.write(
                f"error: incompatible inputs (n={f.n}, p={f.p}) vs "
                f"(n={first.n}, p={first.p})\n"
            )
            return EXIT_INCOMPATIBLE
        ends = f.source.dims + f.target.dims
        dims = [a + b for a, b in zip(dims, ends)] if dims else list(ends)
        morphisms.append(f)
        problem = gf.size_error(f.p, f.n, dims)
        if problem:  # no later file is read
            sys.stderr.write(f"error: incompatible inputs: {problem}\n")
            return EXIT_INCOMPATIBLE
    total = direct_sum_morphism(*morphisms)
    sys.stdout.write(serial.dumps_canonical(serial.morphism_to_dict(total)))
    return EXIT_OK


def _code_slug(code) -> str:
    return "".join(str(x) for x in code.upper) + "_" + "".join(
        str(x) for x in code.lower
    )


def _check_prime(p: int, top: int):
    """Refuse a --prime that is not exact at the largest dimension top a
    command makes, or a top past the cap."""
    problem = gf.field_error(p, top)
    if problem:
        raise UsageError(problem)


def cmd_catalog(dump: str | None, p: int) -> int:
    _check_prime(p, max(max(c.upper + c.lower) for c in CATALOG_CODES))
    if dump is None:
        return _emit(
            {"codes": [{"upper": list(c.upper), "lower": list(c.lower)}
                       for c in CATALOG_CODES]}
        )
    out = Path(dump)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for code in CATALOG_CODES:
            serial.write_morphism(from_code(code, p), out / f"{_code_slug(code)}.json")
    except OSError as exc:  # DIR is a file, lies under one, or is not writable
        raise UsageError(f"--dump {dump}: cannot write there: {exc}") from exc
    sys.stderr.write(f"wrote {len(CATALOG_CODES)} files to {out}\n")
    return EXIT_OK


def cmd_random(n: int, max_dim: int, seed: int | None, p: int) -> int:
    _check_prime(p, max_dim)
    # Refuse a grid or dimension random_ladder cannot draw, and any pair
    # whose output could pass the work bound: each module has at most
    # max_dim dimensions at each of its n positions.
    if n < 1:
        raise UsageError(f"--n must be at least 1, got {n}")
    if max_dim < 0:
        raise UsageError(f"--max-dim must be at least 0, got {max_dim}")
    problem = gf.work_error(n, 2 * n * max_dim)
    if problem:
        raise UsageError(f"--n {n} --max-dim {max_dim} could pass the work bound:"
                         f" {problem}")
    if seed is None:
        env = os.environ.get("INDUMATCH_SEED", "0")
        try:
            seed = int(env)
        except ValueError:
            raise UsageError(f"INDUMATCH_SEED must be an integer, got {env!r}") from None
    f = random_ladder(n, max_dim, p, seed)
    sys.stdout.write(serial.dumps_canonical(serial.morphism_to_dict(f)))
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built once per process: one build costs about twenty parses.
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.command == "barcode":
            return cmd_barcode(_load(args.file), args.format)
        if args.command == "match":
            return cmd_match(_load(args.file), args.method, args.eps, args.format)
        if args.command == "sum":
            return cmd_sum(args.files)
        if args.command == "catalog":
            return cmd_catalog(args.dump, args.prime)
        return cmd_random(args.n, args.max_dim, args.seed, args.prime)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except serial.ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except ValidationError as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return EXIT_VALIDATE
    except InvariantError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
