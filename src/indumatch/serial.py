"""JSON wire format for ladder modules (a morphism plus its two modules).

All matrices are flat row-major integer arrays; shapes are implied by
the dimension sequences, and entries are reduced mod p on load.  A
member outside TOP_MEMBERS at the top level, or outside MODULE_MEMBERS
in a module, is refused.  So is, before any matrix is read, a file
that gf.size_error refuses: past gf.MAX_DIM, past the work bound
gf.MAX_WORK, or with a prime too large for exact int64 arithmetic.  A
file longer than MAX_INPUT_BYTES is refused before it is read whole,
and one holding more values than MAX_INPUT_VALUES before it is parsed.

Every JSON document the CLI writes, ladder files and reports alike, goes
through dumps_canonical: sorted keys, two-space indent, one array element
per line, non-ASCII escaped, and a trailing newline, so equal data is
byte-identical.  Its bytes are those of the standard library's
``json.dumps(payload, sort_keys=True, indent=2) + "\\n"``, which the tests
keep as its referee; with an indent set that call runs the pure-Python
encoder, so dumps_canonical walks the containers itself and hands each
integer array to the C encoder whole.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import gf
from .modules import Morphism, PersistenceModule

FORMAT_NAME = "indumatch-ladder"
FORMAT_VERSION = 1

# The most bytes read_morphism reads of a file; a longer one is refused
# before the rest is read, so no input, /dev/zero included, is read
# whole.  The largest canonical file inside gf.MAX_DIM and gf.MAX_WORK has
# n = 8 and every dim 255 (8 + 16 * 255 = 4088): 22 matrices of 255 x 255,
# 1,430,550 entries, one per line after 6 or 8 spaces of indent, each at
# most 9 digits (the field bound keeps p below 1.92e8 at dim 255) and
# ",\n": 26,140,761 bytes.  64 MiB leaves room for other whitespace.
MAX_INPUT_BYTES = 64 * 2**20

# The most "," separators read_morphism parses; a file with more is
# refused before json.loads builds a Python object for each value, which
# takes several times the file's size.  A ladder file's separators lie
# between the members of its objects (6 at the top, 1 in each module:
# morphism_from_dict refuses any other member) and between the elements
# of its arrays: at most 2 n in the dims, 2 n in the lists of maps, n in
# the morphism list, and fewer than its matrix entries in the matrices.
# With v_t = dim V(t) and w_t = dim W(t), each at most MAX_DIM, V's map
# at t has v_{t+1} v_t <= MAX_DIM v_t entries,
# W's w_{t+1} w_t <= MAX_DIM w_t, and f_t has v_t w_t <= MAX_DIM
# (v_t + w_t) / 2, so the entries number at most 3/2 MAX_DIM (the sum of
# all dims) <= 3/2 MAX_DIM (MAX_WORK - n) = 384 (4096 - n), and the
# separators at most 384 (4096 - n) + 5 n + 8 <= 3/2 MAX_DIM MAX_WORK
# = 1,572,864.  An input of at most that many bytes holds no more
# separators, so only a longer one is counted.
MAX_INPUT_VALUES = 3 * gf.MAX_DIM * gf.MAX_WORK // 2

# The members of a ladder file, at the top and in each module.
TOP_MEMBERS = frozenset({"format", "version", "p", "n", "source", "target", "morphism"})
MODULE_MEMBERS = frozenset({"dims", "maps"})


class ParseError(ValueError):
    """The file is not a well-formed ladder description."""


def _flat(m: np.ndarray) -> list[int]:
    return m.reshape(-1).tolist()


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
    # Exact ints only: not bool, which JSON true/false give.
    _expect(isinstance(value, list) and set(map(type, value)) <= {int}, msg)
    return value


def _reshape(flat: list[int], rows: int, cols: int, p: int, what: str) -> np.ndarray:
    _expect(
        len(flat) == rows * cols,
        f"{what}: expected {rows}x{cols} = {rows * cols} entries, got {len(flat)}",
    )
    try:
        m = np.array(flat, dtype=np.int64)
    except OverflowError:  # an entry outside int64: reduce it as a Python int
        m = np.array([x % p for x in flat], dtype=np.int64)
    return m.reshape(rows, cols)  # the module and morphism reduce it mod p


def _known_members(obj: dict, members: frozenset, where: str):
    extra = obj.keys() - members
    if extra:
        raise ParseError(f"unknown member {min(extra)!r} {where}")


def _dims(obj, n: int, what: str) -> list[int]:
    _expect(isinstance(obj, dict), f"{what} is not an object")
    _known_members(obj, MODULE_MEMBERS, f"in {what}")
    dims = _int_list(obj.get("dims"), f"{what}.dims must be an integer array")
    _expect(len(dims) == n, f"{what}.dims must have length n={n}")
    _expect(all(d >= 0 for d in dims), f"{what}.dims must be nonnegative")
    return dims


def _matrices(value, shapes: list[tuple[int, int]], length: str, p: int,
              what: str) -> list[np.ndarray]:
    """The list of matrices at what, a module's maps or the morphism: one
    per shape, with length naming their number in the message."""
    _expect(isinstance(value, list) and len(value) == len(shapes),
            f"{what} must be an array of length {length}={len(shapes)}")
    return [_reshape(_int_list(flat, f"{what}[{k}] must be an integer array"),
                     rows, cols, p, f"{what}[{k}]")
            for k, (flat, (rows, cols)) in enumerate(zip(value, shapes))]


def _module_from_dict(obj: dict, dims: list[int], p: int, what: str) -> PersistenceModule:
    shapes = list(zip(dims[1:], dims))
    return PersistenceModule(p, dims, _matrices(obj.get("maps"), shapes, "n-1", p, f"{what}.maps"))


def morphism_from_dict(obj) -> Morphism:
    _expect(isinstance(obj, dict), "top level is not an object")
    _known_members(obj, TOP_MEMBERS, "at the top level")
    _expect(obj.get("format") == FORMAT_NAME, f"format must be {FORMAT_NAME!r}")
    version = obj.get("version")
    _expect(type(version) is int and version == FORMAT_VERSION,
            f"version must be the integer {FORMAT_VERSION}")
    p = obj.get("p")
    _expect(type(p) is int, "p must be a prime integer")
    n = obj.get("n")
    _expect(type(n) is int and n >= 1, "n must be a positive integer")
    src_dims = _dims(obj.get("source"), n, "source")
    dst_dims = _dims(obj.get("target"), n, "target")
    problem = gf.size_error(p, n, src_dims + dst_dims)
    _expect(problem is None, problem)
    source = _module_from_dict(obj["source"], src_dims, p, "source")
    target = _module_from_dict(obj["target"], dst_dims, p, "target")
    comps = _matrices(obj.get("morphism"), list(zip(dst_dims, src_dims)), "n", p, "morphism")
    return Morphism(source, target, comps)


@functools.cache
def _int_array_encoder(separator: str):
    # The C encoder, with the line break and indent as its item separator.
    return json.JSONEncoder(separators=(separator, ": ")).encode


def _render(value, pad: str) -> str:
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        body = (",\n" + inner).join(
            json.encoder.encode_basestring_ascii(k) + ": " + _render(value[k], inner)
            for k in sorted(value)
        )
        return "{\n" + inner + body + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        separator = ",\n" + inner
        if set(map(type, value)) <= {int}:
            body = _int_array_encoder(separator)(value)[1:-1]
        else:
            body = separator.join(_render(x, inner) for x in value)
        return "[\n" + inner + body + "\n" + pad + "]"
    if type(value) is int:  # the commonest scalar, written as json writes it
        return repr(value)
    return json.dumps(value)  # a scalar renders the same at any indent


def dumps_canonical(payload: dict) -> str:
    """payload as canonical JSON text: keys sorted, two-space indent, one
    array element per line, ASCII only, newline-terminated.

    Byte-identical to ``json.dumps(payload, sort_keys=True, indent=2) +
    "\\n"`` on JSON-shaped payloads (dicts with string keys, lists, tuples,
    str, int, float, bool, None); that call is the tests' referee.  It
    walks dicts and lists itself and renders each all-int array, a
    matrix or an interval, in one call to the C encoder.
    """
    return _render(payload, "") + "\n"


def write_morphism(f: Morphism, path) -> None:
    Path(path).write_text(dumps_canonical(morphism_to_dict(f)), encoding="utf-8")


def read_morphism(path) -> Morphism:
    try:
        with open(path, "rb") as fh:
            # A read allocates all it asks for, so a regular file asks for
            # its size; a pipe or /dev/zero, whose size reads 0, reads on.
            ask = min(os.fstat(fh.fileno()).st_size, MAX_INPUT_BYTES) + 1
            data = fh.read(ask)
            if len(data) == ask:
                data += fh.read(MAX_INPUT_BYTES + 1 - ask)
    except OSError as exc:  # missing, a directory
        raise ParseError(f"cannot read {path}: {exc}") from exc
    _expect(len(data) <= MAX_INPUT_BYTES,
            f"cannot read {path}: longer than the input cap of {MAX_INPUT_BYTES} bytes")
    _expect(len(data) <= MAX_INPUT_VALUES or data.count(b",") <= MAX_INPUT_VALUES,
            f"cannot read {path}: more values than the value cap of {MAX_INPUT_VALUES}")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno} column {exc.colno}: "
                         f"{exc.msg}") from exc
    except RecursionError as exc:  # nested too deep
        raise ParseError(f"cannot decode {path}: {exc}") from exc
    except ValueError as exc:  # past the interpreter's limit on integer digits
        raise ParseError(f"cannot decode {path}: an integer has more than"
                         f" {sys.get_int_max_str_digits()} digits") from exc
    return morphism_from_dict(obj)
