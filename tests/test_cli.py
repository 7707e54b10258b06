"""Command-line interface: reports, exit codes, determinism."""

from __future__ import annotations

import json
import subprocess
import sys
import time

import pytest

from indumatch import LadderCode, from_code
from indumatch.cli import main
from indumatch.serial import dumps_canonical, morphism_to_dict, write_morphism


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


def test_barcode_ascii(ref_file, capsys):
    code, out, _ = run_cli(capsys, "--format", "ascii", "barcode", ref_file)
    assert code == 0
    assert "[2,3]_1" in out and "█" in out


def test_malformed_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, "barcode", str(path))
    assert code == 2
    assert "line 1" in err


def test_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "barcode", str(tmp_path / "absent.json"))
    assert code == 2


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


def test_match_ascii(ref_file, capsys):
    code, out, _ = run_cli(capsys, "--format", "ascii", "match", ref_file,
                           "--method", "chi")
    assert code == 0
    assert "→" in out and "×" in out


def test_unknown_method_exits_4(ref_file, capsys):
    code, _, err = run_cli(capsys, "match", ref_file, "--method", "bogus")
    assert code == 4
    assert "method" in err


def test_usage_error_exits_4(capsys):
    code, _, err = run_cli(capsys, "match")  # missing file
    assert code == 4


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


def test_sum_mismatched_primes_exits_5(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    write_morphism(from_code(LadderCode((0, 0, 0), (0, 1, 1)), 2), a)
    write_morphism(from_code(LadderCode((0, 0, 0), (0, 1, 1)), 5), b)
    code, _, err = run_cli(capsys, "sum", str(a), str(b))
    assert code == 5
    assert "incompatible" in err


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


def test_match_counts_ascii_table(thick_file, capsys):
    code, out, _ = run_cli(capsys, "--format", "ascii", "match", thick_file,
                           "--method", "m")
    assert code == 0
    assert "→" in out and "x1" in out


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


def test_random_seed_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("INDUMATCH_SEED", "41")
    _, out_flag, _ = run_cli(capsys, "random", "--n", "4", "--seed", "7")
    monkeypatch.delenv("INDUMATCH_SEED")
    _, out_default, _ = run_cli(capsys, "random", "--n", "4", "--seed", "7")
    assert out_flag == out_default


# ---------------------------------------------------------------------------
# process-level entry point


def test_module_entry_point(ref_file):
    result = subprocess.run(
        [sys.executable, "-m", "indumatch", "barcode", ref_file],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["barcode_image"] == [{"interval": [2, 2], "multiplicity": 1}]
