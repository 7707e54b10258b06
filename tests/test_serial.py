"""Wire format: canonical dumps and strict loads."""

from __future__ import annotations

import json

import pytest

from indumatch import enumerate_catalog, random_ladder
from indumatch.serial import (
    ParseError,
    dumps_canonical,
    morphism_from_dict,
    morphism_to_dict,
    read_morphism,
    write_morphism,
)


def test_round_trip_reference(reference_ladder, tmp_path):
    path = tmp_path / "ladder.json"
    write_morphism(reference_ladder, path)
    assert read_morphism(path) == reference_ladder


def test_round_trip_catalog(tmp_path):
    for k, f in enumerate(enumerate_catalog(2)):
        path = tmp_path / f"c{k}.json"
        write_morphism(f, path)
        assert read_morphism(path) == f


def test_round_trip_random_gf5(tmp_path):
    f = random_ladder(6, 4, 5, 99)
    path = tmp_path / "r.json"
    write_morphism(f, path)
    assert read_morphism(path) == f


def test_dump_is_byte_deterministic(reference_ladder):
    a = dumps_canonical(morphism_to_dict(reference_ladder))
    b = dumps_canonical(morphism_to_dict(reference_ladder))
    assert a == b
    assert a.endswith("\n")
    assert json.loads(a)["p"] == 2


def test_entries_reduced_mod_p(reference_ladder):
    obj = morphism_to_dict(reference_ladder)
    obj["morphism"][1] = [2, 3]  # == [0, 1] mod 2
    f = morphism_from_dict(obj)
    assert f == reference_ladder


def test_huge_entries_reduced_before_int64(reference_ladder):
    obj = morphism_to_dict(reference_ladder)
    obj["morphism"][1] = [10**20, 10**20 + 1]  # == [0, 1] mod 2, past int64
    f = morphism_from_dict(obj)
    assert f == reference_ladder


def test_malformed_json_raises_with_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "indumatch-ladder",', encoding="utf-8")
    with pytest.raises(ParseError, match="line"):
        read_morphism(path)


def test_wrong_format_tag(reference_ladder):
    obj = morphism_to_dict(reference_ladder)
    obj["format"] = "something-else"
    with pytest.raises(ParseError, match="format"):
        morphism_from_dict(obj)


def test_flat_array_length_checked(reference_ladder):
    obj = morphism_to_dict(reference_ladder)
    obj["source"]["maps"][1] = [1]  # should be 1x2
    with pytest.raises(ParseError, match="entries"):
        morphism_from_dict(obj)


def test_non_integer_entries_rejected(reference_ladder):
    obj = morphism_to_dict(reference_ladder)
    obj["morphism"][1] = [0.5, 1]
    with pytest.raises(ParseError):
        morphism_from_dict(obj)


def test_nonprime_p_rejected(reference_ladder):
    obj = morphism_to_dict(reference_ladder)
    obj["p"] = 6
    with pytest.raises(ParseError, match="prime"):
        morphism_from_dict(obj)
