"""JSON wire format for ladder modules (a morphism plus its two modules).

All matrices are flat row-major integer arrays; shapes are implied by
the dimension sequences, and entries are reduced mod p on load.  A
prime too large for exact int64 arithmetic at the file's dimensions is
rejected (see gf.field_error).  The canonical dump (sorted keys,
two-space indent, trailing newline) makes equal data byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import gf
from .modules import Morphism, PersistenceModule

FORMAT_NAME = "indumatch-ladder"
FORMAT_VERSION = 1


class ParseError(ValueError):
    """The file is not a well-formed ladder description."""


def _flat(m: np.ndarray) -> list[int]:
    return [int(x) for x in m.reshape(-1)]


def _module_to_dict(m: PersistenceModule) -> dict:
    return {"dims": list(m.dims), "maps": [_flat(x) for x in m.maps]}


def morphism_to_dict(f: Morphism) -> dict:
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "p": f.p,
        "n": f.n,
        "source": _module_to_dict(f.source),
        "target": _module_to_dict(f.target),
        "morphism": [_flat(c) for c in f.comps],
    }


def _expect(cond: bool, msg: str):
    if not cond:
        raise ParseError(msg)


def _int_list(value, msg: str) -> list[int]:
    _expect(isinstance(value, list), msg)
    out = []
    for x in value:
        _expect(isinstance(x, int) and not isinstance(x, bool), msg)
        out.append(x)
    return out


def _reshape(flat: list[int], rows: int, cols: int, p: int, what: str) -> np.ndarray:
    _expect(
        len(flat) == rows * cols,
        f"{what}: expected {rows}x{cols} = {rows * cols} entries, got {len(flat)}",
    )
    # Reduced while still Python ints, so any integer fits int64.
    return np.array([x % p for x in flat], dtype=np.int64).reshape(rows, cols)


def _dims(obj, n: int, what: str) -> list[int]:
    _expect(isinstance(obj, dict), f"{what} is not an object")
    dims = _int_list(obj.get("dims"), f"{what}.dims must be an integer array")
    _expect(len(dims) == n, f"{what}.dims must have length n={n}")
    _expect(all(d >= 0 for d in dims), f"{what}.dims must be nonnegative")
    return dims


def _module_from_dict(obj, dims: list[int], p: int, what: str) -> PersistenceModule:
    n = len(dims)
    maps = obj.get("maps")
    _expect(isinstance(maps, list) and len(maps) == n - 1,
            f"{what}.maps must be an array of length n-1={n - 1}")
    mats = []
    for t, flat in enumerate(maps, start=1):
        entries = _int_list(flat, f"{what}.maps[{t - 1}] must be an integer array")
        mats.append(_reshape(entries, dims[t], dims[t - 1], p, f"{what}.maps[{t - 1}]"))
    return PersistenceModule(p, dims, mats)


def morphism_from_dict(obj) -> Morphism:
    _expect(isinstance(obj, dict), "top level is not an object")
    _expect(obj.get("format") == FORMAT_NAME, f"format must be {FORMAT_NAME!r}")
    _expect(obj.get("version") == FORMAT_VERSION, f"version must be {FORMAT_VERSION}")
    p = obj.get("p")
    _expect(isinstance(p, int) and not isinstance(p, bool), "p must be a prime integer")
    n = obj.get("n")
    _expect(isinstance(n, int) and n >= 1, "n must be a positive integer")
    src_dims = _dims(obj.get("source"), n, "source")
    dst_dims = _dims(obj.get("target"), n, "target")
    problem = gf.field_error(p, max(src_dims + dst_dims))
    _expect(problem is None, problem)
    source = _module_from_dict(obj["source"], src_dims, p, "source")
    target = _module_from_dict(obj["target"], dst_dims, p, "target")
    comps = obj.get("morphism")
    _expect(isinstance(comps, list) and len(comps) == n,
            f"morphism must be an array of length n={n}")
    mats = []
    for t, flat in enumerate(comps, start=1):
        entries = _int_list(flat, f"morphism[{t - 1}] must be an integer array")
        mats.append(
            _reshape(entries, target.dims[t - 1], source.dims[t - 1], p,
                     f"morphism[{t - 1}]")
        )
    return Morphism(source, target, mats)


def dumps_canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_morphism(f: Morphism, path) -> None:
    Path(path).write_text(dumps_canonical(morphism_to_dict(f)), encoding="utf-8")


def read_morphism(path) -> Morphism:
    text = Path(path).read_text(encoding="utf-8")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno} column {exc.colno}: "
                         f"{exc.msg}") from exc
    return morphism_from_dict(obj)
