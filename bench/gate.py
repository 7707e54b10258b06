"""Output gate: every CLI output of a run is checked outside the timed region.

Referees, per command kind:

- barcode: the three barcodes equal ``oracle.naive_barcode`` (ranks of
  composite maps, no subspace arithmetic) of the source, the target and
  the image module.
- match m: row and column sums stay within the oracle multiplicities.
- match g: its keys and totals equal the m table of the same file, and
  every bar dies at the right end of I n J (and starts inside it).
- match chi: every pair satisfies J.a <= I.a <= J.b <= I.b, the map is
  injective, and matched plus unmatched source bars are the source
  barcode, each indexed bar once.
- match m --eps 1: entries equal the m entries at the blown-up pairs
  (acceptance criterion 08).
- sum: byte-identical to ``dumps_canonical`` of ``direct_sum_morphism``
  over the in-memory components.
- On summed inputs, the m and g tables also equal the sums of the
  components' tables (linearity, acceptance criterion 07).

``self_test`` corrupts one output of each kind and shows that the tally
counts it as failed, so the gate is known to be live.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path


def _iv(pair) -> tuple[int, int]:
    a, b = pair
    if not (isinstance(a, int) and isinstance(b, int) and 1 <= a <= b):
        raise ValueError(f"bad interval {pair!r}")
    return a, b


def _barcode_json(bc) -> list[dict]:
    return [{"interval": [iv.a, iv.b], "multiplicity": m} for iv, m in bc.items()]


def _mults(bc) -> dict[tuple[int, int], int]:
    return {(iv.a, iv.b): m for iv, m in bc.items()}


def _header(payload: dict, method: str, eps: int) -> list[str]:
    if payload.get("method") != method or payload.get("eps") != eps:
        return [f"header is method={payload.get('method')!r} eps={payload.get('eps')!r}"]
    return []


class Gate:
    """Referee data for one workload, and the checks that use it."""

    def __init__(self, lib, workload):
        self.workload = workload
        naive = lib.oracle.naive_barcode
        self.expected = []  # per input: barcode payload the CLI must print
        self.src_mult, self.dst_mult = [], []
        self.linear = []  # per input: (m table, g table) summed over components, or None
        self.referee_errors: dict[int, str] = {}  # a library this broken fails every check
        for k, inp in enumerate(workload.inputs):
            f = inp.morphism
            src, dst = naive(f.source), naive(f.target)
            self.src_mult.append(_mults(src))
            self.dst_mult.append(_mults(dst))
            try:
                img = naive(lib.modules.image_module(f)[0])
                linear = self._component_tables(lib, inp.components)
            except Exception as exc:  # the referee runs library code too
                self.referee_errors[k] = f"referee data failed: {exc!r}"
                img, linear = src, None
            self.expected.append({"barcode_source": _barcode_json(src),
                                  "barcode_target": _barcode_json(dst),
                                  "barcode_image": _barcode_json(img)})
            self.linear.append(linear)
        self.m_tables: dict[int, dict] = {}  # the m output seen last, per input

    @staticmethod
    def _component_tables(lib, comps):
        if not comps:
            return None
        m_sum: Counter = Counter()
        g_sum: dict = {}
        for c in comps:
            for (i, j), count in lib.matching.m_matching(c).items():
                m_sum[((i.a, i.b), (j.a, j.b))] += count
            for (i, j), bc in lib.matching.g_matching(c).items():
                bars = g_sum.setdefault(((i.a, i.b), (j.a, j.b)), Counter())
                for iv, mult in bc.items():
                    bars[(iv.a, iv.b)] += mult
        return dict(m_sum), {k: dict(v) for k, v in g_sum.items()}

    def check(self, cmd, text: str) -> list[str]:
        """Problems found in one output; an empty list means it passed."""
        if cmd.kind == "sum":
            if text != self.workload.sums[cmd.target][1]:
                return ["sum output differs from the canonical direct sum"]
            return []
        if cmd.target in self.referee_errors:
            return [self.referee_errors[cmd.target]]
        try:
            payload = json.loads(text)
            return getattr(self, "_check_" + cmd.kind)(cmd.target, payload)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            return [f"malformed output: {exc!r}"]

    def _check_barcode(self, k: int, payload: dict) -> list[str]:
        if payload != self.expected[k]:
            return ["barcodes differ from the rank oracle"]
        return []

    def _m_table(self, payload: dict, eps: int) -> tuple[dict, list[str]]:
        problems = _header(payload, "m", eps)
        table = {}
        for e in payload["entries"]:
            key = (_iv(e["I"]), _iv(e["J"]))
            if key in table or not (isinstance(e["count"], int) and e["count"] > 0):
                problems.append(f"entry {key} repeated or not a positive count")
            table[key] = e["count"]
        return table, problems

    def _check_match_m(self, k: int, payload: dict) -> list[str]:
        table, problems = self._m_table(payload, 0)
        self.m_tables[k] = table
        rows, cols = Counter(), Counter()
        for (i, j), count in table.items():
            rows[i] += count
            cols[j] += count
        problems += [f"row {i} sums to {n} > {self.src_mult[k].get(i, 0)}"
                     for i, n in rows.items() if n > self.src_mult[k].get(i, 0)]
        problems += [f"column {j} sums to {n} > {self.dst_mult[k].get(j, 0)}"
                     for j, n in cols.items() if n > self.dst_mult[k].get(j, 0)]
        if self.linear[k] is not None and table != self.linear[k][0]:
            problems.append("m table is not the sum of the component tables")
        return problems

    def _check_match_g(self, k: int, payload: dict) -> list[str]:
        problems = _header(payload, "g", 0)
        table = {}
        for e in payload["entries"]:
            i, j = _iv(e["I"]), _iv(e["J"])
            lo, hi = max(i[0], j[0]), min(i[1], j[1])
            bars = {}
            for bar in e["bars"]:
                s, r = _iv(bar["interval"])
                if r != hi or s < lo:
                    problems.append(f"bar [{s},{r}] of ({i},{j}) does not die at {hi}")
                bars[(s, r)] = bar["multiplicity"]
            table[(i, j)] = bars
        totals = {key: sum(bars.values()) for key, bars in table.items()}
        if totals != self.m_tables.get(k):
            problems.append("g totals differ from the m table")
        if self.linear[k] is not None and table != self.linear[k][1]:
            problems.append("g table is not the sum of the component tables")
        return problems

    def _check_match_chi(self, k: int, payload: dict) -> list[str]:
        problems = _header(payload, "chi", 0)
        sources, targets = [], []
        for pair in payload["pairs"]:
            i, j = _iv(pair["source"]["interval"]), _iv(pair["target"]["interval"])
            if not j[0] <= i[0] <= j[1] <= i[1]:
                problems.append(f"pair {i} -> {j} admits no nonzero map")
            sources.append((i, pair["source"]["index"]))
            targets.append((j, pair["target"]["index"]))
        unmatched = [(_iv(b["interval"]), b["index"]) for b in payload["unmatched_source"]]
        if len(set(targets)) != len(targets):
            problems.append("matching is not injective")
        all_src = {(iv, l) for iv, m in self.src_mult[k].items() for l in range(1, m + 1)}
        all_dst = {(iv, l) for iv, m in self.dst_mult[k].items() for l in range(1, m + 1)}
        seen = sources + unmatched
        if len(set(seen)) != len(seen) or set(seen) != all_src:
            problems.append("matched and unmatched bars are not the source barcode")
        if not set(targets) <= all_dst:
            problems.append("a matched target bar is not in the target barcode")
        return problems

    def _check_match_m_eps1(self, k: int, payload: dict) -> list[str]:
        shifted, problems = self._m_table(payload, 1)
        base = self.m_tables.get(k, {})
        top = self.workload.inputs[k].morphism.n - 1
        for ((a, b), (c, d)), count in shifted.items():
            if max(b, d) > top or base.get(((a, b + 1), (c, d + 1)), 0) != count:
                problems.append(f"shifted entry ([{a},{b}],[{c},{d}]) != blown-up base entry")
        for ((a, b), (c, d)), count in base.items():
            i, j = (a, b - 1), (c, d - 1)
            if i[0] <= i[1] and j[0] <= j[1] and max(a, c) <= min(i[1], j[1]):
                if shifted.get((i, j), 0) != count:
                    problems.append(f"base entry ([{a},{b}],[{c},{d}]) missing after the shift")
        return problems

    def shape(self) -> dict[str, object]:
        """Input properties the matching cost depends on, summed over the inputs."""
        fs = [inp.morphism for inp in self.workload.inputs]
        overlap = hom = 0
        for src, dst in zip(self.src_mult, self.dst_mult):
            for i in src:
                for j in dst:
                    if max(i[0], j[0]) <= min(i[1], j[1]):
                        overlap += 1
                        hom += j[0] <= i[0] <= j[1] <= i[1]
        return {
            "files": len(fs),
            "n": max(f.n for f in fs),
            "p": sorted({f.p for f in fs}),
            "max_dim": max(max(f.source.dims + f.target.dims) for f in fs),
            "bars_source": sum(sum(m.values()) for m in self.src_mult),
            "bars_target": sum(sum(m.values()) for m in self.dst_mult),
            "overlap_pairs": overlap,
            "hom_pairs": hom,
            "hom_pair_share": round(hom / overlap, 4) if overlap else 0.0,
        }


def tally(checker: Gate, commands, seen: dict, bad_kinds=frozenset()) -> tuple[int, list[str]]:
    """Failed commands among ``seen`` and the first few problems.

    ``seen`` maps (command index, exit code, stdout) to how often that
    result occurred, in the order the results first occurred, so the m
    output of an input is checked before the g and eps outputs that are
    compared with it.  Identical outputs share one verdict.
    """
    failed, problems = 0, []
    for (idx, rc, text), count in seen.items():
        cmd = commands[idx]
        found = [f"exit code {rc}"] if rc != 0 else checker.check(cmd, text)
        if cmd.kind in bad_kinds:
            found.append("stdout digest differs from the pinned digest")
        if found:
            failed += count
            problems.extend(f"{cmd.kind} {Path(cmd.argv[1]).name}: {p}" for p in found[:3])
    return failed, problems


def self_test(checker: Gate, commands, seen: dict) -> int:
    """Corrupt one output of each kind and show that the gate counts it."""
    clean, _ = tally(checker, commands, seen)
    print(f"clean pass: {clean} failed of {sum(seen.values())}")
    ok = clean == 0
    for kind, corrupt in CORRUPTIONS.items():
        for (idx, rc, text), _ in seen.items():
            if commands[idx].kind != kind:
                continue
            bad = corrupt(text)
            if bad is None:
                continue
            altered = {(i, r, bad if (i, r, t) == (idx, rc, text) else t): c
                       for (i, r, t), c in seen.items()}
            failed, found = tally(checker, commands, altered)
            hit = any(line.startswith(kind + " ") for line in found)
            print(f"corrupted {kind}: {failed} failed; "
                  f"{'counted' if hit else 'NOT COUNTED'}: {found[:1]}")
            ok = ok and hit and failed > 0
            break
        else:
            print(f"corrupted {kind}: no output to corrupt")
            ok = False
    print("self-test " + ("PASSED" if ok else "FAILED"))
    return 0 if ok else 1


def _edit_json(edit):
    def corrupt(text: str) -> str | None:
        payload = json.loads(text)
        return json.dumps(payload) if edit(payload) else None
    return corrupt


def _bump_first(key: str, field: str):
    def edit(payload) -> bool:
        if not payload[key]:
            return False
        payload[key][0][field] += 100
        return True
    return edit


def _g_bar_end(payload) -> bool:
    if not payload["entries"]:
        return False
    payload["entries"][0]["bars"][0]["interval"][1] -= 1
    return True


def _chi_duplicate(payload) -> bool:
    if not payload["pairs"]:
        return False
    payload["pairs"].append(payload["pairs"][0])
    return True


CORRUPTIONS = {
    "barcode": _edit_json(_bump_first("barcode_source", "multiplicity")),
    "match_m": _edit_json(_bump_first("entries", "count")),
    "match_g": _edit_json(_g_bar_end),
    "match_chi": _edit_json(_chi_duplicate),
    "match_m_eps1": _edit_json(_bump_first("entries", "count")),
    "sum": lambda text: text.replace("1", "0", 1),
}
