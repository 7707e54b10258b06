"""Golden writer output: sha256 digests of the ladder files the CLI writes.

`tests/test_golden.py` pins the reports of commands run on ladder files;
this file pins the bytes of the ladder files themselves, as written by
`sum` and `random` to stdout and by `catalog --dump` into a directory,
and the stdout of `catalog`.  A change to the file format or to its
rendering changes a digest here.

To print the digests of the current tree:

    PYTHONPATH=src python tests/test_golden_files.py
"""

from __future__ import annotations

import hashlib
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from indumatch import random_ladder
from indumatch.cli import main
from indumatch.serial import write_morphism
from test_golden import RANDOM_DRAWS, SUM_DRAWS

DIGESTS = {
    "sum": "44e81508555e7356e2dc37cf23421ce8c6edc1f9622286f4fa8f0d58d0b8df39",
    "random": "9b8638e08519d8624745ff47ef3864533fd7245145e34c85800cbdc60accf373",
    "catalog": "75cb965da076ac5782ee8372a1eca4d30c7ace1c5ddf8323a2dd21c2de2deae4",
    "catalog_dump": "46e7ff37db836b1b7fcd46977787293221ec7285159c07f73f1fa048d1533fa3",
}


def _run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def _digest(runs) -> str:
    h = hashlib.sha256()
    for code, text in runs:
        h.update(f"{code}\n{text}\0".encode("utf-8"))
    return h.hexdigest()


def _digests(root: Path) -> dict[str, str]:
    sums = []
    for p, s1, s2 in SUM_DRAWS:
        parts = []
        for s in (s1, s2):
            path = root / f"part_{p}_{s}.json"
            write_morphism(random_ladder(6, 4, p, s), path)
            parts.append(str(path))
        sums.append(_run(["sum", *parts]))
    randoms = [
        _run(["--prime", str(p), "random", "--n", str(n), "--max-dim", str(d),
              "--seed", str(s)])
        for p in (2, 3, 5, 7)
        for n, d, s in RANDOM_DRAWS
    ]
    dump = root / "catalog"
    code, _ = _run(["catalog", "--dump", str(dump)])
    files = sorted(dump.iterdir())
    dumped = [(code, f"{len(files)}")] + [
        (0, f"{path.name}\n{path.read_text(encoding='utf-8')}") for path in files
    ]
    return {
        "sum": _digest(sums),
        "random": _digest(randoms),
        "catalog": _digest([_run(["catalog"])]),
        "catalog_dump": _digest(dumped),
    }


@pytest.fixture(scope="module")
def current(tmp_path_factory):
    return _digests(tmp_path_factory.mktemp("golden_files"))


@pytest.mark.parametrize("writer", list(DIGESTS))
def test_written_files_match_golden_digests(current, writer):
    assert current[writer] == DIGESTS[writer]


if __name__ == "__main__":
    import json
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        json.dump(_digests(Path(tmp)), sys.stdout, indent=4, sort_keys=False)
    sys.stdout.write("\n")
