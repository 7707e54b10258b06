"""Seeded ladder files for the three benchmark workloads.

``random_ladder(n, ...)`` draws at most 2n intervals per side, so the
large workloads get their size from direct sums of several ladders.

Every workload is built from fixed ladders (``random_ladder`` seeds
0, 1, ...), and the workload seed draws a random change of basis at
every grid position of both modules of every ladder.  The numbers in
the files, and so every matrix the library reduces, change with the
seed; the barcodes and tables, and so the amount of work, do not.
Drawing the interval structure from the seed instead moved the cost
of a run by 10-20 % from seed to seed (see README.md), more than a
regression bound can absorb.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

# Metric name of each command kind, in the order a pass runs them.
MATCH_KINDS = {
    "barcode": ["barcode"],
    "match_m": ["match", "--method", "m"],
    "match_g": ["match", "--method", "g"],
    "match_chi": ["match", "--method", "chi"],
    "match_m_eps1": ["match", "--method", "m", "--eps", "1"],
}
KINDS = list(MATCH_KINDS) + ["sum"]


@dataclass(frozen=True)
class Command:
    kind: str
    argv: tuple[str, ...]
    target: int  # index into Workload.inputs, or into Workload.sums for "sum"


@dataclass
class Input:
    path: Path
    morphism: object  # the in-memory Morphism the file was written from
    components: list = field(default_factory=list)  # summands, for linearity


@dataclass
class Workload:
    name: str
    inputs: list[Input]
    sums: list[tuple[list[Path], str]]  # argument files and the expected stdout
    # The sum command is far cheaper than a match on the summed workloads;
    # repeating it in every pass gives its median enough samples.
    sum_repeats: int = 1
    warmup: Path | None = None  # small file every command kind runs on once

    def commands(self) -> list[Command]:
        cmds = []
        for k, inp in enumerate(self.inputs):
            for kind, head in MATCH_KINDS.items():
                argv = [head[0], str(inp.path), *head[1:]]
                cmds.append(Command(kind, tuple(argv), k))
        for k, (paths, _) in enumerate(self.sums):
            cmds += [Command("sum", ("sum", *map(str, paths)), k)] * self.sum_repeats
        return cmds


def _random_invertible(d: int, p: int, rng: random.Random, gf):
    while True:
        m = gf.zeros(d, d)
        for i in range(d):
            for j in range(d):
                m[i, j] = rng.randrange(p)
        if gf.rank(m, p) == d:
            return m


def _rebased(lib, f, rng: random.Random):
    """f with a random change of basis at every position of both modules."""
    gf, p = lib.gf, f.p
    src = [_random_invertible(d, p, rng, gf) for d in f.source.dims]
    dst = [_random_invertible(d, p, rng, gf) for d in f.target.dims]

    def conj(after, m, before):
        return gf.matmul(after, gf.matmul(m, gf.inverse(before, p), p), p)

    def module(m, change):
        maps = [conj(change[t], m.map(t), change[t - 1]) for t in range(1, m.n)]
        return lib.modules.PersistenceModule(p, m.dims, maps)

    comps = [conj(dst[t], f.comps[t], src[t]) for t in range(f.n)]
    return lib.modules.Morphism(module(f.source, src), module(f.target, dst), comps).validate()


def _write(lib, f, path: Path) -> Path:
    lib.serial.write_morphism(f, path)
    return path


def _summed(lib, name: str, comps: list, workdir: Path, sum_repeats: int) -> Workload:
    paths = [_write(lib, c, workdir / f"{name}-c{i:02d}.json") for i, c in enumerate(comps)]
    total = comps[0]
    for c in comps[1:]:
        total = lib.modules.direct_sum_morphism(total, c)
    main = _write(lib, total, workdir / f"{name}.json")
    text = main.read_text(encoding="utf-8")
    return Workload(name, [Input(main, total, comps)], [(paths, text)], sum_repeats)


def _ladders(lib, n: int, primes: list[int], seed: int) -> list:
    """``random_ladder(n, 4, primes[s], s)`` for each s, each in a random
    basis drawn from the workload seed."""
    rng = random.Random(seed)
    return [_rebased(lib, lib.ladders.random_ladder(n, 4, p, s), rng)
            for s, p in enumerate(primes)]


def _small_many(lib, seed: int, workdir: Path) -> Workload:
    # The traffic of acceptance criteria 06-09: n = 6, dims <= 4, p alternating.
    fs = _ladders(lib, 6, [2, 5] * 30, seed)
    paths = [_write(lib, f, workdir / f"sm-{s:02d}.json") for s, f in enumerate(fs)]
    sums = []
    for s in range(len(fs)):
        partner = (s + 2) % len(fs)  # same parity, so the same prime
        total = lib.modules.direct_sum_morphism(fs[s], fs[partner])
        sums.append(([paths[s], paths[partner]],
                     lib.serial.dumps_canonical(lib.serial.morphism_to_dict(total))))
    return Workload("small-many", [Input(pa, f) for pa, f in zip(paths, fs)], sums)


def _wide_sum(lib, seed: int, workdir: Path) -> Workload:
    # 16 GF(2) ladders on {1..10}: dims up to 44, ~115 bars per side.
    return _summed(lib, "wide-sum", _ladders(lib, 10, [2] * 16, seed), workdir, sum_repeats=10)


def _long_grid(lib, seed: int, workdir: Path) -> Workload:
    # 2 GF(5) ladders on {1..40}: dims <= 8.
    return _summed(lib, "long-grid", _ladders(lib, 40, [5] * 2, seed), workdir, sum_repeats=20)


BUILDERS = {"small-many": _small_many, "wide-sum": _wide_sum, "long-grid": _long_grid}


def build(lib, name: str, seed: int, workdir: Path) -> Workload:
    """Generate and write the workload's files into workdir."""
    w = BUILDERS[name](lib, seed, workdir)
    p = w.inputs[0].morphism.p
    w.warmup = _write(lib, _rebased(lib, lib.ladders.random_ladder(6, 4, p, 999),
                                    random.Random(seed)), workdir / "warmup.json")
    return w
