"""Command-line interface: reports, exit codes, determinism."""

from __future__ import annotations

import copy
import inspect
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import indumatch
from indumatch import (
    LadderCode,
    bauer_lesnick,
    cli,
    from_code,
    gf,
    ladders,
    matching,
    modules,
    oracle,
    random_ladder,
    serial,
)
from indumatch.cli import main
from indumatch.serial import (
    dumps_canonical,
    morphism_to_dict,
    read_morphism,
    write_morphism,
)

from conftest import bar_pair_morphism


@pytest.fixture
def ref_file(reference_ladder, tmp_path):
    path = tmp_path / "reference.json"
    write_morphism(reference_ladder, path)
    return str(path)


@pytest.fixture
def thick_file(thick_ladder, tmp_path):
    path = tmp_path / "thick.json"
    write_morphism(thick_ladder, path)
    return str(path)


@pytest.fixture
def wide_file(wide_ladder, tmp_path):
    path = tmp_path / "wide.json"
    write_morphism(wide_ladder, path)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# barcode


def test_barcode_reference(ref_file, capsys):
    code, out, _ = run_cli(capsys, "barcode", ref_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["barcode_source"] == [
        {"interval": [2, 3], "multiplicity": 1},
        {"interval": [2, 2], "multiplicity": 1},
    ]
    assert payload["barcode_target"] == [{"interval": [1, 2], "multiplicity": 1}]
    assert payload["barcode_image"] == [{"interval": [2, 2], "multiplicity": 1}]


def test_barcode_zero_module(tmp_path, capsys):
    from indumatch import Morphism, zero_module

    z = Morphism.zero(zero_module(3, 2), zero_module(3, 2))
    path = tmp_path / "zero.json"
    write_morphism(z, path)
    code, out, _ = run_cli(capsys, "barcode", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "barcode_source": [],
        "barcode_target": [],
        "barcode_image": [],
    }


def test_barcode_ascii(ref_file, tmp_path, capsys):
    code, out, _ = run_cli(capsys, "--format", "ascii", "barcode", ref_file)
    assert code == 0
    assert out == (
        "source:\n  [2,3]_1    ·██\n  [2,2]_1    ·█·\n"
        "target:\n  [1,2]_1    ██·\n"
        "image:\n  [2,2]_1    ·█·\n"
    )
    # A side with no bar, and so no image, gets an (empty) panel.
    path = tmp_path / "no_source.json"
    write_morphism(from_code(LadderCode((1, 1, 0), (0, 0, 0))), path)
    code, out, _ = run_cli(capsys, "--format", "ascii", "barcode", str(path))
    assert code == 0
    assert out == (
        "source:\n  (empty)\n"
        "target:\n  [1,2]_1    ██·\n"
        "image:\n  (empty)\n"
    )


def test_malformed_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, "barcode", str(path))
    assert code == 2
    assert "line 1" in err


DEEP_JSON = "[" * 200_000
LONG_INT_LADDER = json.dumps({
    "format": "indumatch-ladder", "version": 1, "p": 2, "n": 1,
    "source": {"dims": [1], "maps": []}, "target": {"dims": [1], "maps": []},
    "morphism": [[1]],
}).replace("[[1]]", "[[" + "1" * 5000 + "]]")


@pytest.mark.parametrize("text", [DEEP_JSON, LONG_INT_LADDER], ids=["deep", "long-int"])
@pytest.mark.parametrize("command", ["barcode", "sum"])
def test_undecodable_json_exits_2(tmp_path, capsys, text, command):
    # json.loads raises RecursionError on deep nesting and a plain
    # ValueError past the int digit limit, not JSONDecodeError.
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    argv = [command, str(path)] + ([str(path)] if command == "sum" else [])
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("parse error:") and str(path) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["barcode", "sum"])
def test_over_long_integer_names_the_digit_limit(tmp_path, capsys, command):
    path = tmp_path / "long.json"
    path.write_text(LONG_INT_LADDER, encoding="utf-8")
    argv = [command, str(path)] + ([str(path)] if command == "sum" else [])
    assert run_cli(capsys, *argv) == (
        2, "", f"parse error: cannot decode {path}: an integer has more than 4300 digits\n")


def test_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "barcode", str(tmp_path / "absent.json"))
    assert code == 2


def test_non_utf8_file_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"format": "indumatch-ladder \xe9"}')
    code, out, err = run_cli(capsys, "barcode", str(path))
    assert code == 2 and out == ""
    assert err.startswith("parse error:") and str(path) in err


@pytest.mark.parametrize("argv", [["barcode", "{d}"], ["sum", "{d}", "{d}"]])
def test_directory_input_exits_2(tmp_path, capsys, argv):
    code, out, err = run_cli(capsys, *[arg.format(d=tmp_path) for arg in argv])
    assert code == 2 and out == ""
    assert err.startswith("parse error:") and str(tmp_path) in err


def test_input_past_the_byte_cap_exits_2(ref_file, tmp_path, capsys, monkeypatch):
    # A file of exactly serial.MAX_INPUT_BYTES is read; one byte more, even
    # of valid JSON, is refused by every command that reads a file.
    want = run_cli(capsys, "barcode", ref_file)
    size = Path(ref_file).stat().st_size
    monkeypatch.setattr(serial, "MAX_INPUT_BYTES", size)
    assert run_cli(capsys, "barcode", ref_file) == want
    longer = tmp_path / "longer.json"
    longer.write_bytes(Path(ref_file).read_bytes() + b" ")
    for argv in (["barcode", longer], ["match", longer], ["sum", ref_file, longer]):
        code, out, err = run_cli(capsys, *map(str, argv))
        assert code == 2 and out == ""
        assert err == (f"parse error: cannot read {longer}: longer than the input cap"
                       f" of {size} bytes\n")


def test_input_past_the_value_cap_exits_2(ref_file, tmp_path, capsys, monkeypatch):
    # A file of exactly serial.MAX_INPUT_VALUES "," separators is read; one
    # value more, even in valid JSON, is refused by every command that
    # reads a file.
    want = run_cli(capsys, "barcode", ref_file)
    text = Path(ref_file).read_bytes()
    cap = text.count(b",")
    monkeypatch.setattr(serial, "MAX_INPUT_VALUES", cap)
    assert run_cli(capsys, "barcode", ref_file) == want
    more = tmp_path / "more.json"
    more.write_bytes(b'{"unread": 0,' + text[1:])
    for argv in (["barcode", more], ["match", more], ["sum", ref_file, more]):
        code, out, err = run_cli(capsys, *map(str, argv))
        assert code == 2 and out == ""
        assert err == (f"parse error: cannot read {more}: more values than the value cap"
                       f" of {cap}\n")


@pytest.mark.parametrize("where, edit, want", [
    ("at the top level", lambda obj: obj.update(notes=list(range(10))), "'notes'"),
    ("in source", lambda obj: obj["source"].update(comment="hi"), "'comment'"),
], ids=["top", "module"])
def test_unknown_member_exits_2(ref_file, tmp_path, capsys, where, edit, want):
    # A member the format does not define is refused, not ignored, by
    # every command that reads a file, and the message names it and where.
    obj = json.loads(Path(ref_file).read_text(encoding="utf-8"))
    edit(obj)
    extra = tmp_path / "extra.json"
    extra.write_text(json.dumps(obj), encoding="utf-8")
    for argv in (["barcode", extra], ["match", extra], ["sum", ref_file, extra]):
        code, out, err = run_cli(capsys, *map(str, argv))
        assert (code, out) == (2, "")
        assert err == f"parse error: unknown member {want} {where}\n"


def test_endless_input_exits_2(capsys):
    # /dev/zero never ends: it is refused after MAX_INPUT_BYTES + 1 bytes,
    # not read until memory runs out.
    if not os.path.exists("/dev/zero"):
        pytest.skip("no /dev/zero on this platform")
    code, out, err = run_cli(capsys, "barcode", "/dev/zero")
    assert code == 2 and out == ""
    assert err == ("parse error: cannot read /dev/zero: longer than the input cap"
                   f" of {serial.MAX_INPUT_BYTES} bytes\n")


ONE_POSITION_LADDER = {
    "format": "indumatch-ladder", "version": 1, "p": 2, "n": 1,
    "source": {"dims": [1], "maps": []}, "target": {"dims": [1], "maps": []},
    "morphism": [[1]],
}


@pytest.mark.parametrize(
    "field,value", [("n", True), ("version", True), ("version", 1.0)]
)
def test_header_bool_or_float_exits_2(tmp_path, capsys, field, value):
    # On a one-position ladder, true and 1.0 compare equal to the valid 1.
    path = tmp_path / "header.json"
    path.write_text(json.dumps(ONE_POSITION_LADDER), encoding="utf-8")
    assert run_cli(capsys, "barcode", str(path))[0] == 0
    path.write_text(json.dumps({**ONE_POSITION_LADDER, field: value}), encoding="utf-8")
    code, out, err = run_cli(capsys, "barcode", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"parse error: {field} must be")


def test_invalid_morphism_exits_3(thick_ladder, tmp_path, capsys):
    obj = morphism_to_dict(thick_ladder)
    obj["morphism"][2] = [0]  # breaks the commuting square at t=2
    path = tmp_path / "invalid.json"
    path.write_text(dumps_canonical(obj), encoding="utf-8")
    code, _, err = run_cli(capsys, "barcode", str(path))
    assert code == 3
    assert "naturality" in err


# ---------------------------------------------------------------------------
# match


def test_match_counts_reference(ref_file, capsys):
    code, out, _ = run_cli(capsys, "match", ref_file, "--method", "m")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "m"
    assert payload["entries"] == [{"I": [2, 2], "J": [1, 2], "count": 1}]


def test_match_chi_reference(ref_file, capsys):
    code, out, _ = run_cli(capsys, "match", ref_file, "--method", "chi")
    assert code == 0
    payload = json.loads(out)
    assert payload["pairs"] == [
        {
            "source": {"interval": [2, 3], "index": 1},
            "target": {"interval": [1, 2], "index": 1},
        }
    ]
    assert payload["unmatched_source"] == [{"interval": [2, 2], "index": 1}]


def test_match_bars_thick(thick_file, capsys):
    code, out, _ = run_cli(capsys, "match", thick_file, "--method", "g")
    assert code == 0
    payload = json.loads(out)
    assert payload["entries"] == [
        {
            "I": [2, 3],
            "J": [2, 3],
            "bars": [{"interval": [2, 3], "multiplicity": 1}],
        }
    ]


def test_match_with_shift(wide_file, capsys):
    code, out, _ = run_cli(capsys, "match", wide_file, "--method", "m", "--eps", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["entries"] == [
        {"I": [1, 2], "J": [1, 2], "count": 1},
        {"I": [2, 3], "J": [1, 3], "count": 1},
    ]


def test_match_ascii(ref_file, tmp_path, capsys):
    code, out, _ = run_cli(capsys, "--format", "ascii", "match", ref_file,
                           "--method", "chi")
    assert code == 0
    assert "→" in out and "×" in out
    assert out == "[2,3]_1 ·██ → ██· [1,2]_1\n[2,2]_1 ·█· → ×\n"
    # A g entry with two bars lists them space-separated.
    path = tmp_path / "two_bar_entry.json"
    write_morphism(bar_pair_morphism(3, 7, 3, 2, seed=4), path)
    code, out, _ = run_cli(capsys, "--format", "ascii", "match", str(path), "--method", "g")
    assert code == 0
    assert out == (
        "[1,1] █·· → █·· [1,1]  [1,1]x1\n"
        "[2,3] ·██ → ███ [1,3]  [2,3]x1 [3,3]x1\n"
        "[2,2] ·█· → ·█· [2,2]  [2,2]x1\n"
    )


def test_unknown_method_exits_4(ref_file, capsys):
    # The parser rejects the method before the file is read.
    for path in (ref_file, "MISSING.json"):
        code, _, err = run_cli(capsys, "match", path, "--method", "bogus")
        assert code == 4
        assert "method" in err


def test_usage_error_exits_4(capsys):
    code, _, err = run_cli(capsys, "match")  # missing file
    assert code == 4


@pytest.mark.parametrize("argv", [["--help"], ["match", "--help"]], ids=["top", "match"])
def test_help_exits_0(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert out.startswith("usage: indumatch ")


def test_parser_reused_after_usage_error(ref_file, capsys):
    # The parser is built once per process; a parse that fails halfway,
    # after --format was read, must not leak into the next command.
    code, out, err = run_cli(capsys, "--format", "ascii", "match", ref_file, "--eps")
    assert code == 4 and out == "" and "usage error" in err
    code, out, _ = run_cli(capsys, "match", ref_file)
    assert code == 0
    payload = json.loads(out)
    assert (payload["method"], payload["eps"]) == ("m", 0)
    assert cli._parser() is cli._parser()


# ---------------------------------------------------------------------------
# sum


def test_sum_of_catalog_files_reproduces_reference(
    reference_ladder, tmp_path, capsys
):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    write_morphism(from_code(LadderCode((0, 0, 0), (0, 1, 1)), 2), a)
    write_morphism(from_code(LadderCode((1, 1, 0), (0, 1, 0)), 2), b)
    code, out, _ = run_cli(capsys, "sum", str(a), str(b))
    assert code == 0
    assert out == dumps_canonical(morphism_to_dict(reference_ladder))


def test_sum_single_input_passthrough(ref_file, capsys):
    code, out, _ = run_cli(capsys, "sum", ref_file)
    assert code == 0
    with open(ref_file, encoding="utf-8") as fh:
        assert out == fh.read()


def test_sum_ignores_the_format_flag(ref_file, capsys):
    # Only barcode and match read --format; sum always writes JSON.
    want = run_cli(capsys, "sum", ref_file)
    assert want[0] == 0
    assert run_cli(capsys, "--format", "ascii", "sum", ref_file) == want


def test_sum_of_many_files_equals_pairwise_fold(tmp_path, capsys):
    fs = [random_ladder(5, d, 3, 40 + d) for d in (0, 3, 1, 4, 2)]
    paths = []
    for k, f in enumerate(fs):
        paths.append(str(tmp_path / f"s{k}.json"))
        write_morphism(f, paths[-1])
    fold = fs[0]
    for f in fs[1:]:
        fold = modules.direct_sum_morphism(fold, f)
    code, out, _ = run_cli(capsys, "sum", *paths)
    assert code == 0
    assert out == dumps_canonical(morphism_to_dict(fold))


def test_sum_mismatched_primes_exits_5(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    write_morphism(from_code(LadderCode((0, 0, 0), (0, 1, 1)), 2), a)
    write_morphism(from_code(LadderCode((0, 0, 0), (0, 1, 1)), 5), b)
    code, _, err = run_cli(capsys, "sum", str(a), str(b))
    assert code == 5
    assert "incompatible" in err


def _random_files(capsys, tmp_path, prime, copies):
    code, out, _ = run_cli(capsys, "--prime", str(prime), "random", "--n", "4",
                           "--max-dim", "2", "--seed", "3")
    assert code == 0
    path = tmp_path / f"r{prime}.json"
    path.write_text(out, encoding="utf-8")
    return [str(path)] * copies


def test_sum_past_the_field_bound_exits_5(tmp_path, capsys):
    # Each file is exact at dimension 2; the running sum reaches dimension
    # 4 at the second of three, where p = 2^31-1 products overflow int64.
    files = _random_files(capsys, tmp_path, 2**31 - 1, 3)
    code, out, err = run_cli(capsys, "sum", *files)
    assert code == 5
    assert out == ""
    assert "incompatible" in err and "too large" in err and "dimension 4" in err


def test_sum_within_the_field_bound_exits_0(tmp_path, capsys):
    # 6 * (10^9 + 6)^2 < 2^63: the same sum over a smaller prime is exact.
    files = _random_files(capsys, tmp_path, 10**9 + 7, 3)
    code, out, _ = run_cli(capsys, "sum", *files)
    assert code == 0
    path = tmp_path / "sum.json"
    path.write_text(out, encoding="utf-8")
    code, _, _ = run_cli(capsys, "barcode", str(path))
    assert code == 0


def _one_position_file(tmp_path, name, target_dim):
    # n = 1 with an empty source: no matrix has an entry, so the file is
    # tiny whatever the dimension it names.
    obj = {"format": "indumatch-ladder", "version": 1, "p": 2, "n": 1,
           "source": {"dims": [0], "maps": []},
           "target": {"dims": [target_dim], "maps": []}, "morphism": [[]]}
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def test_dimension_cap_loads_and_cap_plus_one_exits_2_quickly(tmp_path, capsys):
    at_cap = _one_position_file(tmp_path, "cap.json", gf.MAX_DIM)
    f = read_morphism(at_cap).validate()
    assert f.target.dims == (gf.MAX_DIM,)
    code, out, _ = run_cli(capsys, "barcode", at_cap)
    assert code == 0
    assert json.loads(out)["barcode_target"] == [
        {"interval": [1, 1], "multiplicity": gf.MAX_DIM}
    ]
    past = _one_position_file(tmp_path, "past.json", gf.MAX_DIM + 1)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "barcode", past)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert f"dimension {gf.MAX_DIM + 1}" in err


def test_sum_past_the_dimension_cap_exits_5(tmp_path, capsys):
    half = _one_position_file(tmp_path, "half.json", gf.MAX_DIM // 2 + 1)
    code, out, err = run_cli(capsys, "sum", half, half)
    assert code == 5
    assert out == ""
    assert "incompatible" in err and f"dimension {gf.MAX_DIM + 2}" in err


def _alternating_file(tmp_path, name, n, dim, last=None):
    # Target dims alternate dim and 0 (the last position may differ) over
    # an empty source, so no matrix has an entry and the file stays small.
    dims = [dim if t % 2 == 0 else 0 for t in range(n)]
    if last is not None:
        dims[-1] = last
    obj = {"format": "indumatch-ladder", "version": 1, "p": 2, "n": n,
           "source": {"dims": [0] * n, "maps": [[]] * (n - 1)},
           "target": {"dims": dims, "maps": [[]] * (n - 1)},
           "morphism": [[]] * n}
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def test_work_bound_loads_at_the_bound_and_exits_2_past_it_quickly(tmp_path, capsys):
    # n = 32 with 16 target dims of 254: 32 + 16 * 254 = 4096.
    assert 32 + 16 * 254 == gf.MAX_WORK
    at_bound = _alternating_file(tmp_path, "at.json", 32, 254)
    code, out, _ = run_cli(capsys, "barcode", at_bound)
    assert code == 0
    assert json.loads(out)["barcode_target"][0]["multiplicity"] == 254
    past = _alternating_file(tmp_path, "past.json", 32, 254, last=1)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "barcode", past)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert f"{gf.MAX_WORK + 1}, above the work bound of {gf.MAX_WORK}" in err


def test_barcode_of_a_dense_morphism_at_the_work_bound_is_fast(tmp_path, capsys):
    # n = 8 with dims 255 on both sides: the same dense GF(2) map A at
    # every step of both modules and f_t = A + A^2, which commutes with it.
    n, d = 8, 255
    assert n + 2 * n * d <= gf.MAX_WORK
    a = np.random.default_rng(0).integers(0, 2, (d, d))
    comp = (a + gf.matmul(a, a, 2)) % 2
    m = modules.PersistenceModule(2, [d] * n, [a] * (n - 1))
    path = str(tmp_path / "dense.json")
    write_morphism(modules.Morphism(m, m, [comp] * n), path)
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "barcode", path)
    assert time.perf_counter() - start < 7
    assert code == 0
    report = json.loads(out)
    bars = [modules.GridInterval(*bar["interval"]) for bar in report["barcode_target"]
            for _ in range(bar["multiplicity"])]
    assert all(sum(iv.contains(t) for iv in bars) == d for t in range(1, n + 1))
    assert report["barcode_image"]


def _points_file(tmp_path, n):
    # Dims 1 on both sides, zero structure maps and identity components:
    # n one-point bars per side, each matched to its twin.
    obj = {"format": "indumatch-ladder", "version": 1, "p": 2, "n": n,
           "source": {"dims": [1] * n, "maps": [[0]] * (n - 1)},
           "target": {"dims": [1] * n, "maps": [[0]] * (n - 1)},
           "morphism": [[1]] * n}
    path = tmp_path / "points.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


def test_match_g_at_the_work_bound_is_linear_in_its_entries(tmp_path, capsys):
    n = 1365
    assert n + 2 * n <= gf.MAX_WORK
    path = _points_file(tmp_path, n)
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "match", str(path), "--method", "g")
    assert time.perf_counter() - start < 4
    assert code == 0
    entries = json.loads(out)["entries"]
    assert len(entries) == n
    for t, entry in enumerate(entries, start=1):
        assert entry == {"I": [t, t], "J": [t, t],
                         "bars": [{"interval": [t, t], "multiplicity": 1}]}


def test_match_m_at_the_work_bound_tests_linearly_many_pairs(tmp_path, capsys,
                                                            monkeypatch):
    # M splits into n one-by-one blocks, and each block pairs only its own
    # bars: n hom_exists tests, not one per pair of the n x n bars.
    n = 1365
    path = _points_file(tmp_path, n)
    calls = []

    def counting(i, j):
        calls.append((i, j))
        return modules.hom_exists(i, j)

    monkeypatch.setattr(matching, "hom_exists", counting)
    code, out, _ = run_cli(capsys, "match", str(path), "--method", "m")
    assert code == 0
    assert len(json.loads(out)["entries"]) == n
    assert 0 < len(calls) <= 2 * n


def test_sum_past_the_work_bound_exits_5(tmp_path, capsys):
    # Each file is 64 + 32 * 64 = 2112; the sum, 64 + 32 * 128 = 4160, is
    # past the work bound but within the dimension cap.
    half = _alternating_file(tmp_path, "half.json", 64, 64)
    code, out, err = run_cli(capsys, "sum", half, half)
    assert code == 5
    assert out == ""
    assert "incompatible" in err and "4160, above the work bound" in err


def _refuse_to_build(monkeypatch):
    def refused(*morphisms):
        raise AssertionError("the sum was built before its dims were checked")

    monkeypatch.setattr(cli, "direct_sum_morphism", refused)


def test_sum_past_the_dimension_cap_exits_5_before_it_is_built(tmp_path, capsys,
                                                                monkeypatch):
    _refuse_to_build(monkeypatch)
    half = _one_position_file(tmp_path, "half.json", gf.MAX_DIM // 2 + 1)
    code, out, err = run_cli(capsys, "sum", half, half)
    assert code == 5
    assert out == ""
    assert err == (f"error: incompatible inputs: dimension {gf.MAX_DIM + 2}"
                   f" is above the cap of {gf.MAX_DIM}\n")


def test_sum_past_the_work_bound_exits_5_before_it_is_built(tmp_path, capsys,
                                                             monkeypatch):
    # 64 + 32 * 128 = 4160, within the dimension cap at every position.
    _refuse_to_build(monkeypatch)
    half = _alternating_file(tmp_path, "half.json", 64, 64)
    code, out, err = run_cli(capsys, "sum", half, half)
    assert code == 5
    assert out == ""
    assert err == ("error: incompatible inputs: n + the sum of all dims is 4160,"
                   f" above the work bound of {gf.MAX_WORK}\n")


def test_sum_stops_loading_at_the_first_file_past_the_size_rule(tmp_path, capsys,
                                                                monkeypatch):
    # Each copy is in bound at dimension 200; the running sum passes the
    # cap at the second of 30, and no later file is read.
    one = _alternating_file(tmp_path, "one.json", 2, 200)
    loads = []
    real_load = cli._load

    def counted(path):
        loads.append(path)
        return real_load(path)

    monkeypatch.setattr(cli, "_load", counted)
    code, out, err = run_cli(capsys, "sum", *[one] * 30)
    assert code == 5
    assert out == ""
    assert err == (f"error: incompatible inputs: dimension 400 is above the cap"
                   f" of {gf.MAX_DIM}\n")
    assert loads == [one, one]


def test_sum_refuses_before_it_reaches_a_missing_file(tmp_path, capsys):
    # A missing path is a file error (exit 2), but the sum is refused at
    # the second file, before the third is opened.
    one = _alternating_file(tmp_path, "one.json", 2, 200)
    code, out, err = run_cli(capsys, "sum", one, one, str(tmp_path / "missing.json"))
    assert code == 5
    assert out == ""
    assert "dimension 400 is above the cap" in err


def test_sum_checks_its_dims_position_by_position(tmp_path, capsys):
    # Dims [200, 0] and [0, 200] sum to [200, 200], within the cap; the sum
    # of the files' largest dims, 400, is not.
    a = _alternating_file(tmp_path, "a.json", 2, 200)
    b = _alternating_file(tmp_path, "b.json", 2, 0, last=200)
    code, out, _ = run_cli(capsys, "sum", a, b)
    assert code == 0
    assert json.loads(out)["target"]["dims"] == [200, 200]


# ---------------------------------------------------------------------------
# catalog and random


def test_catalog_dump_writes_29_loadable_files(tmp_path, capsys):
    out_dir = tmp_path / "catalog"
    code, _, err = run_cli(capsys, "catalog", "--dump", str(out_dir))
    assert code == 0
    files = sorted(out_dir.glob("*.json"))
    assert len(files) == 29
    from indumatch.serial import read_morphism

    for path in files:
        read_morphism(path).validate()


def test_catalog_dump_deterministic(tmp_path, capsys):
    d1, d2 = tmp_path / "one", tmp_path / "two"
    run_cli(capsys, "catalog", "--dump", str(d1))
    run_cli(capsys, "catalog", "--dump", str(d2))
    for a in sorted(d1.glob("*.json")):
        b = d2 / a.name
        assert a.read_bytes() == b.read_bytes()


def test_catalog_dump_onto_a_file_exits_4(tmp_path, capsys):
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory", encoding="utf-8")
    for target in (blocker, blocker / "sub"):
        code, out, err = run_cli(capsys, "catalog", "--dump", str(target))
        assert code == 4
        assert out == ""
        assert "usage error" in err and str(target) in err
    assert blocker.read_text(encoding="utf-8") == "not a directory"


def test_catalog_listing(capsys):
    code, out, _ = run_cli(capsys, "catalog")
    assert code == 0
    assert len(json.loads(out)["codes"]) == 29


def test_catalog_dump_over_gf5(tmp_path, capsys):
    out_dir = tmp_path / "catalog5"
    code, _, _ = run_cli(capsys, "--prime", "5", "catalog", "--dump", str(out_dir))
    assert code == 0
    from indumatch.serial import read_morphism

    f = read_morphism(out_dir / "121_011.json")
    assert f.p == 5


def test_nonprime_field_flag_exits_4(capsys):
    code, _, err = run_cli(capsys, "--prime", "6", "catalog")
    assert code == 4
    assert "prime" in err


def test_negative_prime_flag_is_not_prime_and_exits_4(capsys):
    # A p below 2 is refused as not prime before the int64 bound, which a
    # large negative p also passes.
    code, _, err = run_cli(capsys, "--prime", "-9999999999", "random")
    assert code == 4
    assert "p=-9999999999 is not prime" in err and "too large" not in err


def test_prime_flag_bounded_by_generated_dims(capsys):
    p = str(2**31 - 1)
    code, _, _ = run_cli(capsys, "--prime", p, "random", "--max-dim", "2")
    assert code == 0
    code, _, err = run_cli(capsys, "--prime", p, "random", "--max-dim", "3")
    assert code == 4
    assert "too large" in err


def test_prime_too_large_for_int64_exits_2_quickly(reference_ladder, tmp_path, capsys):
    obj = morphism_to_dict(reference_ladder)
    obj["p"] = 10**18 + 3  # prime, but products of entries overflow int64
    path = tmp_path / "big_p.json"
    path.write_text(dumps_canonical(obj), encoding="utf-8")
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "barcode", str(path))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert "too large" in err


def test_negative_prime_in_a_file_is_not_prime_and_exits_2(reference_ladder, tmp_path, capsys):
    obj = morphism_to_dict(reference_ladder)
    obj["p"] = -9999999999
    path = tmp_path / "negative_p.json"
    path.write_text(dumps_canonical(obj), encoding="utf-8")
    code, _, err = run_cli(capsys, "barcode", str(path))
    assert code == 2
    assert "p=-9999999999 is not prime" in err and "too large" not in err


@pytest.mark.parametrize("argv, fragment", [
    (["random", "--n", "-3"], "--n must be at least 1"),
    (["random", "--n", "0"], "--n must be at least 1"),
    (["random", "--max-dim", "-1"], "--max-dim must be at least 0"),
    (["random", "--max-dim", str(gf.MAX_DIM + 1)], "above the cap"),
    (["random", "--n", "1600"], "work bound"),
    (["random", "--n", str(10**6), "--max-dim", "0"], "work bound"),
])
def test_bad_random_arguments_exit_4(capsys, argv, fragment):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 4
    assert out == ""
    assert fragment in err


def test_random_output_is_always_loadable(tmp_path, capsys):
    # The largest n the work bound admits at --max-dim 1: n + 2n <= MAX_WORK.
    n = gf.MAX_WORK // 3
    code, out, _ = run_cli(capsys, "random", "--n", str(n), "--max-dim", "1")
    assert code == 0
    path = tmp_path / "big.json"
    path.write_text(out, encoding="utf-8")
    assert read_morphism(path).n == n
    code, _, err = run_cli(capsys, "random", "--n", str(n + 1), "--max-dim", "1")
    assert code == 4 and "work bound" in err


def test_match_counts_ascii_table(thick_file, tmp_path, capsys):
    code, out, _ = run_cli(capsys, "--format", "ascii", "match", thick_file,
                           "--method", "m")
    assert code == 0
    assert "→" in out and "x1" in out
    # A morphism whose m table is empty: the source has no bar.
    path = tmp_path / "no_source.json"
    write_morphism(from_code(LadderCode((1, 1, 0), (0, 0, 0))), path)
    assert run_cli(capsys, "--format", "ascii", "match", str(path), "--method", "m") \
        == (0, "(empty matching)\n", "")


def test_random_respects_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("INDUMATCH_SEED", "41")
    code, out1, _ = run_cli(capsys, "random", "--n", "4", "--max-dim", "3")
    assert code == 0
    code, out2, _ = run_cli(capsys, "random", "--n", "4", "--max-dim", "3")
    assert out1 == out2
    monkeypatch.setenv("INDUMATCH_SEED", "42")
    _, out3, _ = run_cli(capsys, "random", "--n", "4", "--max-dim", "3")
    assert out3 != out1
    payload = json.loads(out1)
    assert payload["n"] == 4


@pytest.mark.parametrize("value", ["abc", "", "1.5"])
def test_random_non_integer_env_seed_exits_4(capsys, monkeypatch, value):
    monkeypatch.setenv("INDUMATCH_SEED", value)
    code, out, err = run_cli(capsys, "random", "--n", "2", "--max-dim", "1")
    assert code == 4
    assert out == ""
    assert err == f"usage error: INDUMATCH_SEED must be an integer, got {value!r}\n"


def test_random_seed_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("INDUMATCH_SEED", "41")
    _, out_flag, _ = run_cli(capsys, "random", "--n", "4", "--seed", "7")
    monkeypatch.delenv("INDUMATCH_SEED")
    _, out_default, _ = run_cli(capsys, "random", "--n", "4", "--seed", "7")
    assert out_flag == out_default


# ---------------------------------------------------------------------------
# parser fuzz: mutated ladder files give a documented exit code, never a
# traceback.

# The wide ladder of conftest.py: every dimension is positive, so a dimension
# moved to the cap leaves a neighbouring matrix with the wrong entry count.
WIDE = {
    "format": "indumatch-ladder", "version": 1, "p": 2, "n": 4,
    "source": {"dims": [1, 2, 2, 1], "maps": [[1, 0], [1, 0, 0, 1], [0, 1]]},
    "target": {"dims": [2, 3, 3, 1],
               "maps": [[1, 0, 0, 1, 0, 0], [1, 0, 0, 0, 1, 0, 0, 0, 1], [0, 1, 0]]},
    "morphism": [[1, 0], [1, 0, 0, 1, 0, 1], [1, 0, 0, 1, 0, 1], [1]],
}

ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _paths(node, prefix=()):
    """Every (container, key) position in a JSON tree."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _mutate(obj, data):
    path = data.draw(st.sampled_from(list(_paths(obj))))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    key, value = path[-1], parent[path[-1]]
    kinds = ["drop", "replace", "grow", "negate", "cap", "retype"]
    kind = data.draw(st.sampled_from(kinds))
    if kind == "drop":
        del parent[key]  # a missing key, or a list one entry short
    elif kind == "replace":
        parent[key] = data.draw(ANY_JSON)
    elif kind == "grow" and isinstance(value, list):
        value.append(data.draw(ANY_JSON))
    elif kind == "negate" and type(value) is int:
        parent[key] = -1 - value
    elif kind == "cap":
        big = [gf.MAX_DIM, gf.MAX_DIM + 1, 10**12]  # at and past the cap
        parent[key] = data.draw(st.sampled_from(big))
    elif kind == "retype" and type(value) is int:
        retyped = [bool(value), float(value), str(value)]
        parent[key] = data.draw(st.sampled_from(retyped))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(mutations=st.integers(0, 2), data=st.data())
def test_mutated_ladder_files_exit_with_a_documented_code(mutations, data):
    obj = copy.deepcopy(WIDE)
    for _ in range(mutations):
        if isinstance(obj, (dict, list)) and obj:
            _mutate(obj, data)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutant.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        for argv in (["barcode", path], ["match", path]):
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (0, 2, 3, 5), (argv[0], obj)
    if mutations == 0:
        assert code == 0


# ---------------------------------------------------------------------------
# argument fuzz: any argv of random, catalog, sum and the match flags gives
# a documented exit code, never a traceback.


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    files = []
    for name, f in (("wide", random_ladder(6, 3, 2, 5)), ("gf5", random_ladder(6, 3, 5, 6)),
                    ("short", from_code(LadderCode((1, 2, 1), (0, 1, 1)), 2))):
        write_morphism(f, root / f"{name}.json")
        files.append(str(root / f"{name}.json"))
    files.append(str(root / "missing.json"))
    return root, files


INTS = st.integers(-3, 9) | st.sampled_from([10**6, gf.MAX_DIM + 1, gf.MAX_WORK + 1])
FLAG = INTS.map(str) | st.sampled_from(["", "x", "1.5", "-"])


def _argv(data, root, files):
    head = data.draw(st.lists(st.sampled_from(
        [["--prime", "2"], ["--prime", "5"], ["--prime", data.draw(FLAG)],
         ["--format", "ascii"]]), max_size=2))
    command = data.draw(st.sampled_from(["random", "catalog", "sum", "match"]))
    rest = []
    if command == "random":
        for flag in ("--n", "--max-dim", "--seed"):
            if data.draw(st.booleans()):
                rest += [flag, data.draw(FLAG)]
    elif command == "catalog" and data.draw(st.booleans()):
        rest = ["--dump", data.draw(st.sampled_from([str(root / "dump"), files[0]]))]
    elif command == "sum":
        rest = data.draw(st.lists(st.sampled_from(files), min_size=1, max_size=3))
    elif command == "match":
        rest = [data.draw(st.sampled_from(files))]
        if data.draw(st.booleans()):
            rest += ["--method", data.draw(st.sampled_from(["m", "g", "chi", "x", ""]))]
        if data.draw(st.booleans()):
            rest += ["--eps", data.draw(FLAG)]
    return [x for pair in head for x in pair] + [command] + rest


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_command_arguments_exit_with_a_documented_code(argv_files, data):
    root, files = argv_files
    argv = _argv(data, root, files)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert code in (0, 2, 3, 4, 5), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


# ---------------------------------------------------------------------------
# one production path, and internal invariant failures


def test_cli_reads_nothing_through_the_image_factorization(
        ref_file, wide_file, thick_file, tmp_path, capsys, monkeypatch):
    rand = tmp_path / "rand.json"
    write_morphism(random_ladder(6, 4, 3, 11), rand)
    argvs = [argv for path in (ref_file, wide_file, thick_file, str(rand))
             for argv in (["barcode", path], ["match", path, "--method", "chi"],
                          ["match", path, "--method", "m"], ["match", path, "--method", "g"],
                          ["match", path, "--method", "m", "--eps", "1"],
                          ["match", path, "--method", "g", "--eps", "1"],
                          ["match", path, "--method", "chi", "--eps", "1"])]
    want = [run_cli(capsys, *argv) for argv in argvs]

    def referee_only(*args, **kwargs):
        raise RuntimeError("a referee ran on the production path")

    monkeypatch.setattr(modules, "image_factorization", referee_only)
    monkeypatch.setattr(modules.PersistenceModule, "composite", referee_only)
    # Every function oracle defines, in oracle and in the package namespace.
    for name, obj in list(vars(oracle).items()):
        if inspect.isfunction(obj) and obj.__module__ == oracle.__name__:
            for owner in (oracle, indumatch):
                monkeypatch.setattr(owner, name, referee_only, raising=False)
    assert [run_cli(capsys, *argv) for argv in argvs] == want

    # --eps shifts M alone: no shifted module or morphism is built.
    def builds_a_module(*args, **kwargs):
        raise RuntimeError("the --eps path built a shifted module")

    for owner in (indumatch, cli, modules, matching, ladders, oracle):
        for name in ("module_from_bars", "morphism_from_bars", "shift_morphism"):
            monkeypatch.setattr(owner, name, builds_a_module, raising=False)
    assert [run_cli(capsys, *argv) for argv in argvs] == want

    # One report path: every report reads M and the bars of its rows and
    # columns, whatever eps, and never the f-taking wrappers.
    def reads_f(*args, **kwargs):
        raise RuntimeError("a report read f, not its M")

    for owner in (indumatch, cli, modules, matching, bauer_lesnick):
        for name in ("barcode", "image_barcode", "m_matching", "g_matching", "chi"):
            monkeypatch.setattr(owner, name, reads_f, raising=False)
    assert [run_cli(capsys, *argv) for argv in argvs] == want

    # The tables walk M itself, in its one generator index: no report
    # slices a per-position F_t out of it.
    def slices_f_t(*args, **kwargs):
        raise RuntimeError("a report sliced F_t out of M")

    monkeypatch.setattr(modules.BasisMatrix, "at", slices_f_t)
    assert [run_cli(capsys, *argv) for argv in argvs] == want

    # Each command builds f's M once and hands it, shifted when eps > 0,
    # to the one public entry of its report that takes M.
    took = []

    def watch(owner, name):
        real = getattr(owner, name)

        def watched(*args):
            took.append(name)
            return real(*args)
        monkeypatch.setattr(owner, name, watched)

    for owner, name in ((modules, "basis_matrix"), (modules.BasisMatrix, "shift"),
                        (modules.BasisMatrix, "image_barcode"), (cli, "m_table"),
                        (cli, "g_table"), (cli, "chi_table")):
        watch(owner, name)
    for argv, out in zip(argvs, want):
        took.clear()
        assert run_cli(capsys, *argv) == out
        if argv[0] == "barcode":
            assert took == ["basis_matrix", "image_barcode"]
            continue
        method = argv[argv.index("--method") + 1]
        assert took == (["basis_matrix"] + ["shift"] * ("--eps" in argv)
                        + [f"{method}_table"] + ["image_barcode"] * (method == "chi")), argv


def test_no_command_builds_or_caches_a_persistence_basis(wide_file, tmp_path, capsys,
                                                         monkeypatch):
    # M is built from the records of the two sweeps: no command replays a
    # basis or builds a comparison module, and no module caches a basis.
    # Both are referees, defined in oracle alone.
    for owner, names in ((modules, ("PersistenceBasis", "persistence_basis")),
                         (matching, ("XModule", "x_module"))):
        assert [name for name in names if hasattr(owner, name)] == [], owner.__name__
    assert indumatch.persistence_basis is oracle.persistence_basis
    assert indumatch.x_module is oracle.x_module
    rand = tmp_path / "rand.json"
    write_morphism(modules.direct_sum_morphism(random_ladder(12, 4, 5, 3),
                                               random_ladder(12, 3, 5, 4)), rand)
    f = read_morphism(rand)
    argvs = [[*fmt, "barcode", path] for fmt in ([], ["--format", "ascii"])
             for path in (wide_file, str(rand))]
    argvs += [[*fmt, "match", path, "--method", method, "--eps", eps]
              for fmt in ([], ["--format", "ascii"]) for path in (wide_file, str(rand))
              for method in ("m", "g", "chi") for eps in ("0", "1")]
    want = [run_cli(capsys, *argv) for argv in argvs]

    def refused(*args, **kwargs):
        raise RuntimeError("a command built a persistence basis or a comparison module")

    for owner in (indumatch, oracle):
        for name in ("persistence_basis", "x_module"):
            monkeypatch.setattr(owner, name, refused)
    modules.basis_matrix(f)
    assert not hasattr(f.source, "_basis") and not hasattr(f.target, "_basis")
    assert [run_cli(capsys, *argv) for argv in argvs] == want


def test_no_report_takes_an_rref_or_a_null_basis(tmp_path, capsys, monkeypatch):
    # Every report reads its ranks off lowest-pivot reductions
    # (gf.low_reduce): the sweeps, M, the m counts, every step of a g walk
    # and the image barcode.  The bar-pair file walks nonzero pairs along
    # overlaps longer than one position.
    paths = []
    for name, f in (("sum", modules.direct_sum_morphism(random_ladder(12, 4, 5, 3),
                                                         random_ladder(12, 3, 5, 4))),
                    ("pairs", bar_pair_morphism(8, 12, 4, 3))):
        paths.append(str(tmp_path / f"{name}.json"))
        write_morphism(f, paths[-1])
    argvs = [[*fmt, "barcode", path] for fmt in ([], ["--format", "ascii"])
             for path in paths]
    argvs += [[*fmt, "match", path, "--method", method, "--eps", eps]
              for fmt in ([], ["--format", "ascii"]) for path in paths
              for method in ("m", "g", "chi") for eps in ("0", "1")]
    want = [run_cli(capsys, *argv) for argv in argvs]
    assert all(code == 0 for code, _, _ in want)

    def refused(*args, **kwargs):
        raise RuntimeError("a report took an rref or a null basis")

    for name in ("rref", "null_basis"):
        monkeypatch.setattr(gf, name, refused)
    walks = []
    real_walk_reduce = matching._walk_reduce

    def counted_walk_reduce(*args):
        walks.append(args)
        return real_walk_reduce(*args)

    monkeypatch.setattr(matching, "_walk_reduce", counted_walk_reduce)
    assert [run_cli(capsys, *argv) for argv in argvs] == want
    assert walks


def test_m_is_built_without_solve_or_rref_and_one_sweep_per_module(tmp_path, capsys, monkeypatch):
    # The shape of the wide-sum benchmark input: 16 GF(2) ladders summed.
    # Every command sweeps each module once, to build M.  Every report
    # builds its two barcodes once, off the rows and columns of its M.
    path = str(tmp_path / "wide-sum.json")
    write_morphism(modules.direct_sum_morphism(
        *(random_ladder(10, 4, 2, s) for s in range(16))), path)
    calls = {"solve": 0, "rref": 0}
    in_m = {"solve": 0, "rref": 0}
    builds, sweeps, barcodes = [], [], []
    real_sweep = modules.sweep
    real_interval_barcode = modules.interval_barcode

    def counted_interval_barcode(starts, ends):
        barcodes.append(len(starts))
        return real_interval_barcode(starts, ends)

    monkeypatch.setattr(modules, "interval_barcode", counted_interval_barcode)

    def report(*argv):
        before = len(barcodes)
        assert run_cli(capsys, *argv)[0] == 0
        assert len(barcodes) - before == 2, argv

    def counted_sweep(m, images=None):
        sweeps.append(m)
        return real_sweep(m, images)

    monkeypatch.setattr(modules, "sweep", counted_sweep)

    def counting(name):
        real = getattr(gf, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(gf, name, counting(name))
    real_basis_matrix = modules.basis_matrix

    def watched(f):
        before = dict(calls)
        bm = real_basis_matrix(f)
        builds.append(f)
        for name in calls:
            in_m[name] += calls[name] - before[name]
        return bm

    monkeypatch.setattr(modules, "basis_matrix", watched)
    monkeypatch.setattr(matching, "basis_matrix", watched)
    for argv in (["barcode", path], ["match", path, "--method", "chi"]):
        report(*argv)
    assert calls == {"solve": 0, "rref": 0}
    assert len(sweeps) == 4
    for method in ("m", "g"):
        for eps in ("0", "1"):
            report("match", path, "--method", method, "--eps", eps)
    assert builds and in_m == {"solve": 0, "rref": 0}
    assert len(sweeps) == 12


@pytest.mark.parametrize("command", [
    ["barcode", "{a}"],
    ["match", "{a}", "--method", "g", "--eps", "1"],
    ["sum", "{a}", "{b}"],
])
def test_a_command_tests_its_prime_once(tmp_path, capsys, command):
    # Trial division takes about 7 ms at p = 2^31 - 1, and the parser,
    # each module's validate and the sum each ask about the same p.
    paths = {}
    for name, seed in (("a", 1), ("b", 2)):
        paths[name] = tmp_path / f"{name}.json"
        write_morphism(random_ladder(6, 3, 7, seed), paths[name])
    gf.is_prime.cache_clear()
    assert run_cli(capsys, *(arg.format(**paths) for arg in command))[0] == 0
    assert gf.is_prime.cache_info().misses == 1


@pytest.fixture
def pair_file(tmp_path):
    """k[2,3]^2 -> k[1,3] + k[2,3] over GF(2), with the source generators
    sent to the sum of both target ones and to the [1,3] one: the pairs
    ([2,3], [1,3]) and ([2,3], [2,3]) each count 1, along K = [2,3]."""
    source = modules.PersistenceModule(2, (0, 2, 2), [gf.zeros(2, 0), gf.identity(2)])
    target = modules.PersistenceModule(2, (1, 2, 2), [[[1], [0]], gf.identity(2)])
    f_t = [[1, 1], [1, 0]]
    f = modules.Morphism(source, target, [gf.zeros(1, 0), f_t, f_t]).validate()
    path = tmp_path / "pair.json"
    write_morphism(f, path)
    return str(path)


def test_a_walk_that_loses_no_generator_reads_no_pair_reduction(pair_file, dying_pair_file,
                                                                 capsys, monkeypatch):
    # Along K = [2,3] of both of the pair file's walked pairs no source
    # generator of src_plus(I) and no target generator off tgt_plus(J)
    # dies, so each comparison module is its m entry at t = 2 and 3, read
    # with no pair reduction.  So is that of the dying pair file's one
    # nonzero pair, which loses a column of src_plus(I), zero on every row
    # that outlives it, but no target generator off tgt_plus(J)
    # (Claim T10).
    argvs = [["match", pair_file, "--method", "g", "--eps", eps] for eps in ("0", "1")]
    argvs.append(["match", dying_pair_file, "--method", "g"])
    want = [run_cli(capsys, *argv) for argv in argvs]
    assert all(code == 0 for code, _, _ in want)

    def refused(*args):
        raise RuntimeError("a walk that loses no row off tgt_plus(J) read a pair reduction")

    monkeypatch.setattr(matching, "_walk_reduce", refused)
    assert [run_cli(capsys, *argv) for argv in argvs] == want


@pytest.fixture
def dying_pair_file(tmp_path):
    """k[1,2] + k[2,3] -> k[1,3] + k[1,2] over GF(2), with [1,2] sent to
    [1,2] and [2,3] to the sum of both target generators: the pair
    ([2,3], [1,3]) counts 1, and along K = [2,3] the src_plus column
    [1,2] dies at t = 2, but no target generator off tgt_plus([1,3])."""
    source = modules.PersistenceModule(2, (1, 2, 1), [[[1], [0]], [[0, 1]]])
    target = modules.PersistenceModule(2, (2, 2, 1), [gf.identity(2), [[1, 0]]])
    f = modules.Morphism(source, target, [[[0], [1]], [[0, 1], [1, 1]], [[1]]]).validate()
    path = tmp_path / "dying-pair.json"
    write_morphism(f, path)
    return str(path)


@pytest.fixture
def off_row_pair_file(tmp_path):
    """The bar form of k[2,3] -> k[1,3] + k[2,2] over GF(2) sending [2,3]
    to the sum of both target bars: the pair ([2,3], [1,3]) counts 1, and
    along K = [2,3] the target bar [2,2], off tgt_plus([1,3]), dies at
    t = 2, so its walk reads a pair reduction; its g entry is [3,3]."""
    iv = modules.GridInterval
    f = modules.morphism_from_bars(3, 2, [iv(2, 3)], [iv(1, 3), iv(2, 2)], [[1], [1]])
    path = tmp_path / "off-row-pair.json"
    write_morphism(f, path)
    return str(path)


def _dim_at_grows_leftward():
    """A matching._dim_at that counts 2 at every step t < K.b: the walk of
    ([2,3], [1,3]), the off-row pair file's one walked pair, counts 1 at
    t = 3 off its group's reduction, and then 2 at t = 2."""
    return lambda *args: 2


def _pairs_count_5():
    """A matching._pairs that hands the tables an m entry of 5 for every
    hom pair."""
    pairs = matching._pairs
    return lambda bm: ((block, i, j, 5, lower) for block, i, j, _, lower in pairs(bm))


@pytest.mark.parametrize("file, owner, attr, make_fake, argv, message", [
    pytest.param("off_row_pair_file", matching, "_dim_at", _dim_at_grows_leftward,
                 ["match", "--method", "g"],
                 "comparison module of ([2,3],[1,3]) shrinks from 2 to 1 at t=3",
                 id="_dim_at-grows-leftward"),
    pytest.param("ref_file", matching, "_pairs", _pairs_count_5,
                 ["match", "--method", "m"], "row sum 5 exceeds multiplicity of [2,2]",
                 id="_pairs-yields-5"),
    pytest.param("ref_file", modules.BasisMatrix, "barcodes",
                 lambda: property(lambda bm: (modules.Barcode(),) * 2),
                 ["match", "--method", "g"],
                 "row sum 1 exceeds multiplicity of [2,2]", id="BasisMatrix.barcodes-empty"),
])
def test_internal_invariant_failure_exits_6(request, capsys, monkeypatch,
                                            file, owner, attr, make_fake, argv, message):
    path = request.getfixturevalue(file)
    monkeypatch.setattr(owner, attr, make_fake())
    code, out, err = run_cli(capsys, argv[0], path, *argv[1:])
    assert code == 6
    assert out == ""
    assert err == f"internal error: {message}\n"


def test_basis_count_failure_exits_6(tmp_path, capsys, monkeypatch):
    # Two survivors claiming one leading row leave a row both unled and
    # led, so one generator too many is born at t=3.
    m = modules.PersistenceModule(3, (1, 2, 2, 3), [[[1], [0]], gf.identity(2),
                                                    [[1, 0], [0, 1], [0, 0]]])
    path = tmp_path / "count.json"
    write_morphism(modules.Morphism.zero(m, m), path)
    real = modules._reduce_images

    def one_lead(x, y, eye, p):
        lead, comb, rest = real(x, y, eye, p)
        first = next((r for r in lead if r >= 0), -1)
        return [first if r >= 0 else r for r in lead], comb, rest

    monkeypatch.setattr(modules, "_reduce_images", one_lead)
    code, out, err = run_cli(capsys, "barcode", str(path))
    assert code == 6
    assert out == ""
    assert err == ("internal error: persistence basis: 3 generators alive at t=3,"
                   " but dim V(3) = 2\n")


# ---------------------------------------------------------------------------
# process-level entry point


def test_module_entry_point(ref_file):
    # The package is imported from the source tree, not installed.
    env = {**os.environ, "PYTHONPATH": str(Path(indumatch.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-m", "indumatch", "barcode", ref_file],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["barcode_image"] == [{"interval": [2, 2], "multiplicity": 1}]


def test_cli_never_imports_numpy_ma(tmp_path):
    # numpy.ma costs 10-15 ms and over 1 MB to import (np.unique loads it).
    # pytest may have loaded it already, so a fresh interpreter runs every
    # command and then looks.
    path = tmp_path / "ladder.json"
    write_morphism(random_ladder(6, 4, 5, 3), path)
    code = f"""
import sys
from indumatch.cli import main
path = {str(path)!r}
for argv in (["barcode", path], ["match", path, "--method", "m"],
             ["match", path, "--method", "g"], ["match", path, "--method", "chi"],
             ["match", path, "--method", "m", "--eps", "1"],
             ["sum", path, path]):
    assert main(argv) == 0, argv
print("numpy.ma" in sys.modules)
"""
    env = {**os.environ, "PYTHONPATH": str(Path(indumatch.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "False"
