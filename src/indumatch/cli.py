"""Command-line front end.

Subcommands: barcode, match, sum, catalog, random.  Reports are JSON
with sorted keys (byte-deterministic given the same file and flags) or
an ASCII bar rendering.  Every report (the three barcodes, the tables
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
bound), 5 incompatible inputs (including a sum past the field bound,
the dimension cap or the work bound), 6 internal invariant failure (a
bug; the message names the failing check).
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
    GridInterval,
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


def _emit(payload: dict) -> int:
    sys.stdout.write(serial.dumps_canonical(payload))
    return EXIT_OK


# ---------------------------------------------------------------------------
# ASCII rendering: one character column per grid position, a full block
# over the support of each indexed bar.


def _bar_row(iv, n: int) -> str:
    return "".join("█" if iv.contains(t) else "·" for t in range(1, n + 1))


def _bar_label(iv, idx: int) -> str:
    return f"[{iv.a},{iv.b}]_{idx}"


def _render_barcode_panel(title: str, bc: Barcode, n: int) -> list[str]:
    lines = [f"{title}:"]
    for iv, idx in bc.rep():
        lines.append(f"  {_bar_label(iv, idx):<10} {_bar_row(iv, n)}")
    if not bc.rep():
        lines.append("  (empty)")
    return lines


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


def _match_payload(f: Morphism, method: str, eps: int) -> dict:
    """The JSON payload of match --method method --eps eps on f.

    Every report takes one M, f's or with eps > 0 its shift, so the
    shifted modules are never built.
    """
    bm = modules.basis_matrix(f)
    if eps:
        bm = bm.shift(eps)
    report = {"m": m_table, "g": g_table, "chi": chi_table}[method](bm)
    if method == "m":
        entries = [
            {"I": _interval_json(i), "J": _interval_json(j), "count": c}
            for (i, j), c in report.items()
        ]
        return {"method": "m", "eps": eps, "entries": entries}
    if method == "g":
        entries = [
            {"I": _interval_json(i), "J": _interval_json(j),
             "bars": _barcode_json(bc)}
            for (i, j), bc in report.items()
        ]
        return {"method": "g", "eps": eps, "entries": entries}
    pairs = [
        {"source": {"interval": _interval_json(i), "index": l},
         "target": {"interval": _interval_json(j), "index": m}}
        for (i, l), (j, m) in report.items()
    ]
    matched = report.domain()
    unmatched = [
        {"interval": _interval_json(iv), "index": l}
        for iv, l in bm.barcodes[0].rep()
        if (iv, l) not in matched
    ]
    return {"method": "chi", "eps": eps, "pairs": pairs,
            "unmatched_source": unmatched}


def _render_match_ascii(n: int, payload: dict) -> str:
    lines = []
    if payload["method"] in ("m", "g"):
        for e in payload["entries"]:
            ia, ib = e["I"]
            ja, jb = e["J"]
            left = _bar_row(GridInterval(ia, ib), n)
            right = _bar_row(GridInterval(ja, jb), n)
            detail = (
                f"x{e['count']}" if payload["method"] == "m"
                else " ".join(
                    f"[{s},{r}]x{bar['multiplicity']}"
                    for bar in e["bars"]
                    for s, r in [bar["interval"]]
                )
            )
            lines.append(
                f"[{ia},{ib}] {left} → {right} [{ja},{jb}]  {detail}"
            )
        if not payload["entries"]:
            lines.append("(empty matching)")
    else:
        for pair in payload["pairs"]:
            (ia, ib), l = pair["source"]["interval"], pair["source"]["index"]
            (ja, jb), m = pair["target"]["interval"], pair["target"]["index"]
            lines.append(
                f"[{ia},{ib}]_{l} {_bar_row(GridInterval(ia, ib), n)} → "
                f"{_bar_row(GridInterval(ja, jb), n)} [{ja},{jb}]_{m}"
            )
        for bar in payload["unmatched_source"]:
            (ia, ib), l = bar["interval"], bar["index"]
            lines.append(
                f"[{ia},{ib}]_{l} {_bar_row(GridInterval(ia, ib), n)} → ×"
            )
    return "\n".join(lines) + "\n"


def cmd_match(f: Morphism, method: str, eps: int, fmt: str) -> int:
    if not 0 <= eps <= f.n - 1:
        raise UsageError(f"--eps must be in 0..{f.n - 1}")
    payload = _match_payload(f, method, eps)
    if fmt == "ascii":
        # The shifted grid is 1..n - eps.
        sys.stdout.write(_render_match_ascii(f.n - eps, payload))
        return EXIT_OK
    return _emit(payload)


def cmd_sum(paths: list[str]) -> int:
    morphisms = [_load(p) for p in paths]
    first = morphisms[0]
    for f in morphisms[1:]:
        if f.n != first.n or f.p != first.p:
            sys.stderr.write(
                f"error: incompatible inputs (n={f.n}, p={f.p}) vs "
                f"(n={first.n}, p={first.p})\n"
            )
            return EXIT_INCOMPATIBLE
    total = direct_sum_morphism(*morphisms)
    # Every input passed the field and work bounds at its own dims; the
    # sum's are larger.
    dims = total.source.dims + total.target.dims
    problem = gf.field_error(total.p, max(dims)) or gf.work_error(total.n, sum(dims))
    if problem:
        sys.stderr.write(f"error: incompatible inputs: {problem}\n")
        return EXIT_INCOMPATIBLE
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
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        if args.command == "barcode":
            return cmd_barcode(_load(args.file), args.format)
        if args.command == "match":
            return cmd_match(_load(args.file), args.method, args.eps, args.format)
        if args.command == "sum":
            return cmd_sum(args.files)
        if args.command == "catalog":
            return cmd_catalog(args.dump, args.prime)
        return cmd_random(args.n, args.max_dim, args.seed, args.prime)
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
