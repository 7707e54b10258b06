"""indumatch benchmark: in-process CLI latency on seeded ladder files.

Usage (from the repository root):

    python3 bench/run.py --workload small-many --seed 1 --seconds 30 --trace 0

One client drives ``indumatch.cli.main(argv)`` in this process as a closed
loop: each command starts when the previous one returned, with stdout
captured.  A pass runs every command of the workload once; passes repeat
until ``--seconds`` have elapsed.  Outputs are checked after the timed
region.  The shared host's speed drifts by tens of percent over seconds,
so every end-to-end time is reported at a nominal host speed measured
by a fixed probe loop (see ``pace.py``).  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes
and prints the per-layer metrics.
The last stdout line is one JSON object; the lines before it repeat the
numbers for a reader, with sample counts.  The default seed is 1, whose
stdout digests are pinned; 7919 is the held-out seed for re-checking a
claim on inputs it was not tuned on.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import gate
import pace
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

DEFAULT_SEED = 1
SETUP_REPEATS = 5
MIN_TRACED_PASSES = 2

END_TO_END = [  # (name, unit); failed_ratio travels as "failed" / "attempted"
    ("setup_s", "s"), ("barcode_s", "s"), ("match_m_s", "s"), ("match_g_s", "s"),
    ("match_chi_s", "s"), ("match_m_eps1_s", "s"), ("sum_s", "s"),
    ("cmds_per_s", "1/s"), ("peak_rss_mb", "MB"),
]


def import_library() -> SimpleNamespace:
    """Import the library afresh from ./src, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "indumatch" or m.startswith("indumatch.")]:
        del sys.modules[name]
    names = spans.LAYERS + ("ladders", "oracle")
    lib = SimpleNamespace(**{n: importlib.import_module(f"indumatch.{n}") for n in names})
    if not Path(lib.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"indumatch imported from {lib.cli.__file__}, not from {SRC}")
    return lib


def run_cli(cli, argv, pacer=None) -> tuple[int, str, float]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            with pacer.ticking() if pacer else nullcontext():
                rc = cli.main(list(argv))
        except Exception:  # a traceback is a failed command, not a failed benchmark
            rc = -1
            err.write(traceback.format_exc())
        elapsed = perf_counter() - start
    return rc, out.getvalue() if rc == 0 else err.getvalue(), elapsed


def set_up(name: str, seed: int, workdir: Path, pacer: pace.Pacer):
    """Import, generate, write and warm up, SETUP_REPEATS times; keep the last.
    Returns each set-up's (own time, time at nominal speed)."""
    times = []
    for _ in range(SETUP_REPEATS):
        inputs = workdir / "inputs"
        shutil.rmtree(inputs, ignore_errors=True)
        inputs.mkdir()
        start = perf_counter()
        with pacer.ticking():
            lib, w = _set_up_once(name, seed, inputs)
        times.append(pacer.settle(perf_counter() - start))
    return lib, w, times


def _set_up_once(name: str, seed: int, inputs: Path):
    lib = import_library()
    w = workloads.build(lib, name, seed, inputs)
    warm = [[*head[:1], str(w.warmup), *head[1:]] for head in workloads.MATCH_KINDS.values()]
    for argv in warm + [["sum", str(w.warmup), str(w.warmup)]]:
        rc, text, _ = run_cli(lib.cli, argv)
        if rc != 0:  # the timed passes will count the failures
            print(f"warm-up command {argv[:2]} failed: {text.strip().splitlines()[-1:]}", file=sys.stderr)
    return lib, w


def run_pass(cli, commands, samples, seen, after=None, pacer=None) -> float:
    """Run every command once.  Samples are (own time, time at nominal
    speed); the second is only measured with a ``pacer``."""
    start = perf_counter()
    for idx, cmd in enumerate(commands):
        rc, text, elapsed = run_cli(cli, cmd.argv, pacer)
        samples[cmd.kind].append(pacer.settle(elapsed) if pacer else (elapsed, elapsed))
        key = (idx, rc, text)
        seen[key] = seen.get(key, 0) + 1
        if after is not None:
            after()
    return perf_counter() - start


def digest_mismatches(name: str, commands, seen) -> tuple[dict, set]:
    """sha256 per kind of the first output of every command, and the kinds
    whose digest differs from the one pinned for the default seed."""
    first = {}
    for idx, _, text in seen:
        first.setdefault(idx, text)
    hashes = {kind: hashlib.sha256() for kind in workloads.KINDS}
    for idx, cmd in enumerate(commands):
        hashes[cmd.kind].update(first[idx].encode("utf-8") + b"\0")
    digests = {kind: h.hexdigest() for kind, h in hashes.items()}
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8")).get(name, {}) if DIGESTS.exists() else {}
    return digests, {k for k, v in pinned.items() if digests.get(k) != v}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def describe(values: list[float]) -> str:
    text = f"median of {len(values)} samples"
    if len(values) >= 100:  # at least ten samples beyond the 90th percentile
        text += f", p90 {statistics.quantiles(values, n=10)[-1]:.6f} s"
    return text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="corrupt outputs on purpose and show the gate counts them")
    parser.add_argument("--write-digests", action="store_true",
                        help="pin this run's stdout digests (default seed only)")
    args = parser.parse_args(argv)
    if not (SRC / "indumatch" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC / 'indumatch'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        return bench(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:  # another run still uses it
            pass


def bench(args, workdir: Path) -> int:
    pacer = pace.Pacer()
    lib, w, setup_times = set_up(args.workload, args.seed, workdir, pacer)
    commands = w.commands()
    samples = {kind: [] for kind in workloads.KINDS}
    seen: dict = {}
    if args.self_test:
        run_pass(lib.cli, commands, samples, seen)
        return gate.self_test(gate.Gate(lib, w), commands, seen)

    deadline = perf_counter() + args.seconds
    untraced, tracers = [], []
    start = perf_counter()
    while not untraced or perf_counter() < deadline or (
            args.trace and len(tracers) < MIN_TRACED_PASSES):
        untraced.append(run_pass(lib.cli, commands, samples, seen,
                                 pacer=None if args.trace else pacer))
        if args.trace:
            tracer = spans.Tracer(lib)
            tracer.install()
            try:
                wall = run_pass(lib.cli, commands, {k: [] for k in samples}, seen,
                                after=tracer.end_command)
            finally:
                tracer.uninstall()
            tracers.append((wall, tracer))
    timed_wall = perf_counter() - start
    rss = peak_rss_mb()

    checker = gate.Gate(lib, w)
    bad_kinds = set()
    if args.seed == DEFAULT_SEED:
        digests, bad_kinds = digest_mismatches(w.name, commands, seen)
        if args.write_digests:
            pinned = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
            pinned[w.name] = digests
            DIGESTS.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n",
                               encoding="utf-8")
            bad_kinds = set()
    failed, problems = gate.tally(checker, commands, seen, bad_kinds)
    attempted = sum(seen.values())
    for line in problems[:20]:
        print(f"FAILED {line}", file=sys.stderr)

    shape = checker.shape()
    print(f"workload {w.name} seed {args.seed}: {len(untraced)} untraced passes of "
          f"{len(commands)} commands, {len(tracers)} traced; input {json.dumps(shape)}")
    correct = failed == 0
    if args.trace:
        metrics, counts_equal = layer_metrics(untraced, tracers)
        correct = correct and counts_equal
    else:
        n_untraced = len(untraced) * len(commands)
        nominal = {k: [t for _, t in v] for k, v in samples.items()}
        wall = {k: [t for t, _ in v] for k, v in samples.items()}
        busy = sum(map(sum, nominal.values()))
        values = {
            "setup_s": statistics.median(t for _, t in setup_times),
            **{f"{k}_s": statistics.median(v) for k, v in nominal.items()},
            "cmds_per_s": n_untraced / busy,
            "peak_rss_mb": rss,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        print("  times at nominal host speed (wall-clock figures in brackets)")
        print(f"  setup_s        {values['setup_s']:.6f} s  median of {len(setup_times)} set-ups "
              f"[{statistics.median(t for t, _ in setup_times):.6f} s]")
        for kind in samples:
            print(f"  {kind + '_s':<14} {statistics.median(nominal[kind]):.6f} s  "
                  f"{describe(nominal[kind])} [{statistics.median(wall[kind]):.6f} s]")
        print(f"  cmds_per_s     {values['cmds_per_s']:.3f} 1/s  {n_untraced} commands in "
              f"{busy:.3f} s [{timed_wall:.3f} s wall, probes included]")
        print(f"  peak_rss_mb    {rss:.1f} MB")
        print(f"  failed_ratio   {failed / attempted:.6f}  ({failed} of {attempted} commands)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def layer_metrics(untraced: list[float], tracers: list) -> tuple[dict, bool]:
    """Per-layer metrics: times are medians over traced passes, counts come
    from the first traced pass and must repeat exactly in every other one."""
    per_pass = [t.metrics() for _, t in tracers]
    first = tracers[0][1].exact_counts()
    counts_equal = True
    for _, t in tracers[1:]:
        other = t.exact_counts()
        for key in sorted(set(first) | set(other)):
            if first.get(key) != other.get(key):
                counts_equal = False
                print(f"FLAG count {key} differs between traced passes: "
                      f"{first.get(key)} vs {other.get(key)}", file=sys.stderr)
    metrics = {}
    for name, (value, unit) in per_pass[0].items():
        if unit in ("s", "us"):
            value = statistics.median(m[name][0] for m in per_pass)
        metrics[name] = {"value": value, "unit": unit}
    overhead = statistics.median(w for w, _ in tracers) / statistics.median(untraced)
    metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    print(f"  ({len(tracers)} traced passes; times are medians, counts repeat exactly: "
          f"{counts_equal})")
    return metrics, counts_equal


if __name__ == "__main__":
    sys.exit(main())
