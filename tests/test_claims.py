"""The claim registry: every fact the library relies on is proved once.

A claim is defined by a line of src/indumatch/*.py that starts, after
its indent and an optional "#", with "Claim " and its id, a capital
letter and a number (Claim T5): the statement, its proof following.
Every other occurrence of "Claim <id>", in those files or in README.md,
is a citation, so a citation never starts a line.  The word Claim is
always followed by an id on the same line.  The letter names the home
module: G gf.py, M modules.py, T matching.py, B bauer_lesnick.py and
O oracle.py.
"""

from __future__ import annotations

import re
from collections import defaultdict
from pathlib import Path

import indumatch

PACKAGE = Path(indumatch.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"
HOMES = {"G": "gf.py", "M": "modules.py", "T": "matching.py", "B": "bauer_lesnick.py",
         "O": "oracle.py"}
DEFINITION = re.compile(r"^\s*(?:#\s*)?(?=Claim )")
CLAIM = re.compile(r"\bClaim ([A-Z]\d+)\b")
BARE = re.compile(r"\bClaim(?! [A-Z]\d+\b)")


def scan(files: dict[str, str]):
    """(definitions, citations, bare) over files, name -> text: the places
    (file, line) of each claim's definitions and of its citations, and
    those of each "Claim" with no id after it."""
    definitions, citations, bare = defaultdict(list), defaultdict(list), []
    for name, text in files.items():
        for number, line in enumerate(text.splitlines(), start=1):
            defined = DEFINITION.match(line) if name != "README.md" else None
            for match in CLAIM.finditer(line):
                at_start = defined is not None and match.start() == defined.end()
                (definitions if at_start else citations)[match.group(1)].append((name, number))
            bare += [(name, number) for _ in BARE.finditer(line)]
    return definitions, citations, bare


def test_every_claim_is_defined_once_in_its_home_and_cited():
    files = {path.name: path.read_text(encoding="utf-8")
             for path in sorted(PACKAGE.glob("*.py"))}
    files["README.md"] = README.read_text(encoding="utf-8")
    definitions, citations, bare = scan(files)
    assert bare == []
    assert {c: places for c, places in definitions.items() if len(places) != 1} == {}
    assert sorted(set(citations) - set(definitions)) == []
    assert sorted(set(definitions) - set(citations)) == []
    assert {c: places[0][0] for c, places in definitions.items()
            if places[0][0] != HOMES.get(c[0])} == {}
    assert {c[0] for c in definitions} == set(HOMES)  # every home holds a claim


def test_scan_tells_definitions_from_citations():
    files = {"a.py": '    Claim T1 (x).  By Claim G1, and\n# Claim M2.\nsee Claim T1\n',
             "README.md": "Claim T9 heads a README line\nClaims and Claim\n"}
    definitions, citations, bare = scan(files)
    assert definitions == {"T1": [("a.py", 1)], "M2": [("a.py", 2)]}
    assert citations == {"G1": [("a.py", 1)], "T1": [("a.py", 3)],
                         "T9": [("README.md", 1)]}
    assert bare == [("README.md", 2), ("README.md", 2)]
