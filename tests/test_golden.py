"""Golden CLI output: sha256 digests of stdout on a fixed input set.

The inputs are the 29 catalog ladders over GF(3), seeded random ladders
over GF(2), GF(3), GF(5) and GF(7), and direct sums of random ladders
made with the `sum` command.  Each (input group, command) pair hashes
the stdout of that command on every input of the group, in order, so a
refactor that keeps the reports byte-identical keeps every digest.

To print the digests of the current tree (after a deliberate change of
the output format, say):

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from indumatch import CATALOG_CODES, from_code, random_ladder
from indumatch.cli import main
from indumatch.serial import write_morphism

COMMANDS = {
    "barcode": ["barcode", "{}"],
    "m": ["match", "{}", "--method", "m"],
    "g": ["match", "{}", "--method", "g"],
    "chi": ["match", "{}", "--method", "chi"],
    "m_eps1": ["match", "{}", "--method", "m", "--eps", "1"],
    "g_eps2": ["match", "{}", "--method", "g", "--eps", "2"],
    "ascii_g": ["--format", "ascii", "match", "{}", "--method", "g"],
    "ascii_chi": ["--format", "ascii", "match", "{}", "--method", "chi"],
    "chi_eps1": ["match", "{}", "--method", "chi", "--eps", "1"],
    "ascii_m_eps1": ["--format", "ascii", "match", "{}", "--method", "m", "--eps", "1"],
}

# (n, max_dim, seed) of the random ladders drawn over every field.
RANDOM_DRAWS = [(6 + k % 3, 3 + k % 2, 100 + k) for k in range(10)]
# Pairs of (p, seed) ladders summed together, all on n = 6.
SUM_DRAWS = [(2, 11, 12), (3, 13, 14), (5, 15, 16), (7, 17, 18), (2, 19, 20)]

DIGESTS = {
    "catalog_gf3": {
        "barcode": "dfa6a4719c8bc5e693831b1a25bb0ff7d8c8fc5181e532b69537f412c163ae76",
        "m": "0af06f1f29fe69976fbb1e3de64d6e223ed09f1b7ae628735941a8995652e598",
        "g": "8775e36928b1ea8c583fe6f8d591ed4658d1294eeb3f783399e5d2865027f6c8",
        "chi": "0551944b6fd660e1c14f78004f112fa8696afbeb926da789e73bf3cdf10a5f2f",
        "m_eps1": "dcf48dd8ffeb1e8f151a2daeb057f8e4dcd2129c8a8605b920a6bd6ef286be2b",
        "g_eps2": "d8606c5cd0b1fcbac089514a226494d3eaf08b0ac62fba534ed31368e90da6d3",
        "ascii_g": "010148b5a704e71a3a97f50779acb65f04a3e86f0ad69ff5fd086e84da444357",
        "ascii_chi": "3de8ec9b2a3d7937562363dfa0f472b3d1f4593c6b43da6e3e34052153c97247",
        "chi_eps1": "5834902f559bd9f0e81b204cdff68bcac0bbb0ff1db739ecfb8b8d6f621c0212",
        "ascii_m_eps1": "93feb7cf3c31d52d247f3017b9761df9de7c1fe4242559fe6cae068426b1c2c2",
    },
    "random_gf2": {
        "barcode": "ac1877cf03e5b8f23f2f454d1f5251f6e3e49247c6befb681c6387262dedfa31",
        "m": "876ba7dae7fbe7a00c06fdcb240352057a420992418585c25b04bfe604bcb2d0",
        "g": "830fca3b5e2c964cff50b5be2cce660593fd9d236728e56db989dc1df9a1b400",
        "chi": "77753c9592f72aa8150d1564259debdeaaa42eeba26713273730d888737f2d46",
        "m_eps1": "9e860a04154c04312537a239e70b1b6faebde32f7f6758f658a29dd2ba394b36",
        "g_eps2": "646367ce510c6922dff0f06e9adf62f1e44731975065becc9cdd7b651ae894da",
        "ascii_g": "3bbacefea7b354bda622df5b74b373cd27f0d98baa3b4adb9576e43f54cfd6ce",
        "ascii_chi": "e771c25daa6dfa7e63829f24a4fcb2f9fe425f3bc7c800f41b93f455a349d74f",
        "chi_eps1": "0de76c443091e265197d9cf844a26eb6be8243cd38a045b3386c59272d8785cc",
        "ascii_m_eps1": "64d742432483aa11d716561ed612c7954fff0b6d528794017bf9d3d071404399",
    },
    "random_gf3": {
        "barcode": "5edf0174674060b3906a3192f64967804c831641deb0b19dfa249a3806d2e5aa",
        "m": "efbe27b961481699505bc5eacdb577475c63c2269a908194367d2f03546a7471",
        "g": "37fb21a081b48ad34f2a83525b19ea01b59ad62934d6015cb291e18d7dec4f36",
        "chi": "75c7d8c4da85272336f814db2423b5366fc16fd57735df1c10ff337fac3aeb36",
        "m_eps1": "93d46c5a4363eb8c6aca4747be5a4edd0a3828acfeef66d5c08c23b83318125a",
        "g_eps2": "f03aedea97df8724de9b78d059a05b873fd0b1cd296db4f25e9ea498cbe666fe",
        "ascii_g": "34e647835c6e5742f3af1927754e0979a92757f46276b2da0a774f3d04582127",
        "ascii_chi": "aab5f32c388aa6d133041c3842eb17f5d29d43999fefaefd2b80f834727f10a9",
        "chi_eps1": "d4e3109dc9af823b28f5568d34663e4b3446b247788cb3b39c0db89816c3be75",
        "ascii_m_eps1": "2a594ab7946e999b052333ae432f3ea1f8b2727ad7afb25c4925f6e2ca0e8709",
    },
    "random_gf5": {
        "barcode": "360d83ba263c371885f617520a88011e4d575a1a100f044d68609de505535808",
        "m": "53bfefe4e321a7aec4f17c7af4fc79526aa31fafea953ac8f1ee37401fb0290e",
        "g": "a31b4bcf678e89fa249efaad7b565eff87685065776813191f35def8d3f35d2a",
        "chi": "2a8ac5f0ff1228cada4aec439fc385c46e21499fecf1e994b343a404f46cab34",
        "m_eps1": "f000d9f83c2492a03a6d42b1c5510907689980a0f6f8ac934f258111187ada9a",
        "g_eps2": "b3cb51664414466090d7842fe5248625256ae010644f07d1ef5ed1169719dd69",
        "ascii_g": "29383077322d8e7ad7c105ceec17ff008980d8c92a33c7477f22b42e66a2559c",
        "ascii_chi": "16ac4d519d5f5e820c67b4788c1fbe66b4df21669bea9618891d793dfcc6c927",
        "chi_eps1": "4d6b975237c86338b72baf0aa39c240df64c571a6a31bbc0198a9051114b0f52",
        "ascii_m_eps1": "07206442035912dd33caf35b1a258c1c71a8d4d4f495646a7ee8bb57fd9eb387",
    },
    "random_gf7": {
        "barcode": "b67a191b9c479788033c57505ae13592e4ecc27dd1c60b59a1a3ad3ace7ffed1",
        "m": "ddb54402b7425e18789ad7fd6e2c268785e4f7cd9cebcc521637d32262b1cd8f",
        "g": "cfbd3a608c7945c3b8ce8ff1a5575b5edff23e9fbd1deae8b50a5b226b83332f",
        "chi": "13e67d3d9b49de6adc0ed12a7a3f055c62538dc1d2880fcd6900baa45083adcd",
        "m_eps1": "978e95d2e6819e9099866d2d7e27221f6151cdef9a9f50b9b2dd8d26415c67ed",
        "g_eps2": "2ee138c0402e96e7b86835883878e7d1e4d483ba8f549046df5401c089b8ed9b",
        "ascii_g": "aa9f3a5765d01a38244399326d0142509e7b0a9b3bd1a2eb5d2900e78091478a",
        "ascii_chi": "446762e504f57da815850dd77fffe20aa9e450b01b4fd9e356d26076cee7e63a",
        "chi_eps1": "e8b083735058430fc4c2951079c58543372842cb8eaca5309a89b5b03b8b3987",
        "ascii_m_eps1": "4395653a225b73a20af8e84d09417bff404b33fde272014a67d54d072ae0a533",
    },
    "sums": {
        "barcode": "f0a561ae4cb4c7a22c8825931c13c5bc10c4287ba546b5e519f4a2ee4827429e",
        "m": "d5f49667cc219687bec71b62e579819f893cbfed526bb4dca9e14a3664c38653",
        "g": "fd771a5f39f95db9d1f8a41d556276a3282854933d5dbc70da59c18a751ded3e",
        "chi": "114389b9e243c84864b5fa955416dda9c84858ef35eef836254a272575416347",
        "m_eps1": "d4a7c1753d389c6e0e761377ffbb1761ea2679cee86e044b799e5fcb0caafffc",
        "g_eps2": "15ec0bedb9ba2e63c33b296c14551919d5b381b848d8e8b8bd5189a8435c1182",
        "ascii_g": "fdc1eac75e2681b5b10f3ab1d06e9b3ec7043191da3340c7de550bfba9f58293",
        "ascii_chi": "7fed8d78d4e26cf06e9ded67d3b162bcf1cfc12239f052f4e23fef9952ac26d0",
        "chi_eps1": "8b81d0bf34d35308eabb4c4a19a36fa08274556f38031ea6c7b7a5b7808801c6",
        "ascii_m_eps1": "cdcb89ca7a8e9a1c389fc895b7bd7929e66b5543e841a8938d7c4adbc21432e8",
    },
}


def _run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def _inputs(root: Path) -> dict[str, list[str]]:
    """Write every input file under root; the paths of each group."""
    groups: dict[str, list[str]] = {}

    def write(group, name, f):
        path = root / f"{group}_{name}.json"
        write_morphism(f, path)
        groups.setdefault(group, []).append(str(path))
        return str(path)

    for k, code in enumerate(CATALOG_CODES):
        write("catalog_gf3", str(k), from_code(code, 3))
    for p in (2, 3, 5, 7):
        for n, max_dim, seed in RANDOM_DRAWS:
            write(f"random_gf{p}", str(seed), random_ladder(n, max_dim, p, seed))
    for p, s1, s2 in SUM_DRAWS:
        parts = [write("parts", f"{p}_{s}", random_ladder(6, 4, p, s)) for s in (s1, s2)]
        code, text = _run(["sum", *parts])
        assert code == 0
        path = root / f"sums_{p}_{s1}_{s2}.json"
        path.write_text(text, encoding="utf-8")
        groups.setdefault("sums", []).append(str(path))
    return groups


def _digests(groups: dict[str, list[str]]) -> dict[str, dict[str, str]]:
    out: dict[str, dict[str, str]] = {}
    for group in DIGESTS:
        for name, argv in COMMANDS.items():
            h = hashlib.sha256()
            for path in groups[group]:
                code, text = _run([a.format(path) for a in argv])
                h.update(f"{code}\n{text}\0".encode("utf-8"))
            out.setdefault(group, {})[name] = h.hexdigest()
    return out


@pytest.fixture(scope="module")
def current(tmp_path_factory):
    return _digests(_inputs(tmp_path_factory.mktemp("golden")))


@pytest.mark.parametrize("group", list(DIGESTS))
def test_cli_stdout_matches_golden_digests(current, group):
    assert current[group] == DIGESTS[group]


if __name__ == "__main__":
    import json
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        json.dump(_digests(_inputs(Path(tmp))), sys.stdout, indent=4, sort_keys=False)
    sys.stdout.write("\n")
