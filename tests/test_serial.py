"""Wire format: canonical dumps and strict loads."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from indumatch import enumerate_catalog, random_ladder
from indumatch.cli import main
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


# ---------------------------------------------------------------------------
# dumps_canonical against the standard library's indent encoder.

_INTS = st.one_of(
    st.integers(-(2**63), 2**63 - 1),
    st.integers(2**64, 2**200),
    st.integers(-(2**200), -(2**64)),
)
_SCALARS = st.one_of(st.none(), st.booleans(), _INTS, st.floats(), st.text())
_JSON = st.recursive(
    st.one_of(_SCALARS, st.lists(_INTS)),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(), children, max_size=5),
    ),
    max_leaves=20,
)


def stdlib_canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(payload=st.dictionaries(st.text(), _JSON, max_size=6))
@example(payload={})
@example(payload={"é\"\\\n\t\u2028😀": {"": [], "b": {}}, "a": [1, True, None, "x", 1.5]})
@example(payload={"m": [-(2**70) - 1, 2**64, 0, -1], "nested": [[1, 2], [], [[3]]]})
@example(payload={"t": (1, 2), "u": ({"k": (False,)},), "f": [float("nan"), -0.0, 1e300]})
def test_dumps_canonical_equals_stdlib_indent_encoder(payload):
    assert dumps_canonical(payload) == stdlib_canonical(payload)


def test_dumps_canonical_equals_stdlib_on_files_and_reports(capsys):
    f = random_ladder(8, 4, 5, 7)
    assert dumps_canonical(morphism_to_dict(f)) == stdlib_canonical(morphism_to_dict(f))
    for argv in (["catalog"], ["--prime", "3", "random", "--seed", "5"]):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == stdlib_canonical(json.loads(out))


# ---------------------------------------------------------------------------
# The loader: exact reduction past int64, strict entry types.


@pytest.mark.parametrize("big", [2**70 + 1, -(2**70 + 1), 2**63, -(2**63) - 1])
def test_entry_past_int64_is_reduced_exactly(big):
    f = random_ladder(6, 4, 7, 3)
    obj = morphism_to_dict(f)
    k = next(t for t, flat in enumerate(obj["morphism"]) if flat)
    obj["morphism"][k][0] = big
    g = morphism_from_dict(obj)
    assert g.comps[k].flat[0] == big % 7
    want = f.comps[k].copy()
    want.flat[0] = big % 7
    assert np.array_equal(g.comps[k], want)
    assert g.source == f.source and g.target == f.target
    assert all(np.array_equal(a, b) for t, (a, b) in enumerate(zip(g.comps, f.comps))
               if t != k)


@pytest.mark.parametrize("bad", [True, 1.5])
@pytest.mark.parametrize("where", ["morphism", "source.maps", "target.maps"])
def test_non_integer_matrix_entry_exits_2(reference_ladder, tmp_path, capsys, bad, where):
    obj = morphism_to_dict(reference_ladder)
    if where == "morphism":
        arrays, label = obj["morphism"], "morphism"
    else:
        side = where.split(".")[0]
        arrays, label = obj[side]["maps"], f"{side}.maps"
    k = next(t for t, flat in enumerate(arrays) if flat)
    arrays[k][-1] = bad
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["barcode", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"parse error: {label}[{k}] must be an integer array\n"


# The reference ladder's matrix lists: their required length, and the
# message for one more entry in the first nonempty matrix of each.
LIST_ERRORS = {
    "morphism": ("morphism must be an array of length n=3",
                 1, "morphism[1]: expected 1x2 = 2 entries, got 3"),
    "source.maps": ("source.maps must be an array of length n-1=2",
                    1, "source.maps[1]: expected 1x2 = 2 entries, got 3"),
    "target.maps": ("target.maps must be an array of length n-1=2",
                    0, "target.maps[0]: expected 1x1 = 1 entries, got 2"),
}


@pytest.mark.parametrize("fault", ["missing", "short", "long", "not-a-list", "entry-count"])
@pytest.mark.parametrize("where", sorted(LIST_ERRORS))
def test_malformed_matrix_list_exits_2(reference_ladder, tmp_path, capsys, where, fault):
    obj = morphism_to_dict(reference_ladder)
    holder, key = (obj, "morphism") if where == "morphism" else \
        (obj[where.split(".")[0]], "maps")
    length_msg, k, count_msg = LIST_ERRORS[where]
    if fault == "missing":
        del holder[key]
    elif fault == "short":
        holder[key].pop()
    elif fault == "long":
        holder[key].append([])
    elif fault == "not-a-list":
        holder[key] = {}
    else:
        holder[key][k].append(0)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["barcode", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    msg = count_msg if fault == "entry-count" else length_msg
    assert captured.err == f"parse error: {msg}\n"
