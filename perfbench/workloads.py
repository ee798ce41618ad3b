"""The four workloads: their inputs, their ops and the checks on each op.

A workload is a fixed round of ops.  The harness runs whole rounds, so
every run does the same mix whatever its length, and checks the outputs
of the first round against ``oracle``; each later round must reproduce
the first round's outputs exactly.

Ops call ntdice through module attributes (``E.enumerate_words``) at call
time, so the traced run's wrappers see them.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracle as O

# Two irreducible balanced non-transitive 4-sided words of the paper
# (counts 9, 9, 9); all 18 such words form one similarity class.
SEED4 = "CBBAACACBACB"
DENSE4 = "CBABAACCBCBA"


@dataclass
class Op:
    """One timed call batch; check(output) returns a list of problems."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    argv: list[str] | None = None


@dataclass
class Workload:
    ops: list[Op]

    def after_op(self, op: Op, output: object, tracer) -> list[str]:
        """Untimed extra work of the traced run after each op."""
        return []

    def layer_metrics(self, tracer, rounds: int, latencies: dict[str, list[float]]) -> dict:
        return {}


def _problems(pairs) -> list[str]:
    return [msg for ok, msg in pairs if not ok]


def _bnt3_orbits() -> list[list[str]]:
    """The two similarity orbits of balanced non-transitive 3-sided words."""
    words = O.brute_census(3)[(5, 5, 5)]
    orbits: list[list[str]] = []
    for word in words:
        if not any(word in orbit for orbit in orbits):
            orbits.append(sorted(O.closure([word])))
    return orbits


def _fair_reference(n: int) -> tuple[int, int, int]:
    """Fair words at even n <= 4, and how many of them are reachable from
    products of the blocks xyzzyx with one permutation (same) or any
    (mixed), by brute force and the bench's own closure."""
    fair = set(O.brute_census(n).get((n * n // 2,) * 3, []))
    blocks = [x + y + z + z + y + x for x, y, z in ("ABC", "ACB", "BAC", "BCA", "CAB", "CBA")]
    products = [""]
    for _ in range(n // 2):
        products = [b + rest for rest in products for b in blocks]
    same = len(fair & O.closure([b * (n // 2) for b in blocks]))
    return len(fair), same, len(fair & O.closure(products))


def _random_word(rng: random.Random, n: int) -> str:
    letters = list("A" * n + "B" * n + "C" * n)
    rng.shuffle(letters)
    return "".join(letters)


# ---------------------------------------------------------------------------
# census: the statistics engine and the stats file
# ---------------------------------------------------------------------------


def check_stats(stats, n: int, ref: dict) -> list[str]:
    """An EnumStats against the reference census at n."""
    sq = n * n
    problems = _problems([
        (stats.n == n, f"n={stats.n}"),
        (stats.total_words == ref["total_words"], f"total {stats.total_words}"),
        (stats.histogram == ref["histogram"], "histogram differs from the reference"),
        (stats.count_balanced == ref["count_balanced"], "count_balanced"),
        (stats.count_balanced_nontransitive == ref["count_balanced_nontransitive"],
         "count_balanced_nontransitive"),
        (stats.count_fair == ref["count_fair"], "count_fair"),
        (stats.max_prob == ref["max_prob"], f"max_prob {stats.max_prob}"),
    ])
    if ref["max_prob"] is not None:
        best = ref["max_prob"] * sq
        want = min(10, ref["histogram"][ref["max_prob"]])
        wits = list(stats.max_witnesses)
        problems += _problems([
            (len(wits) == want, f"{len(wits)} witnesses, expected {want}"),
            (wits == sorted(set(wits)), "witnesses not strictly sorted"),
        ])
        for word in wits:
            if len(word) != 3 * n or O.wins_all_pairs(word) != (best, best, best):
                problems.append(f"witness {word} does not count {best} three times")
    return problems


class CensusWorkload(Workload):
    def layer_metrics(self, tracer, rounds, latencies) -> dict:
        """The n = 6 scan once more with one worker and with two, untimed
        by the loop and with both CPUs allowed: the pool's speed-up."""
        import ntdice.enumeration as E

        pinned = os.sched_getaffinity(0)
        os.sched_setaffinity(0, set(range(os.cpu_count() or 1)))
        try:
            times, results = [], []
            for workers in (1, 2):
                start = time.perf_counter()
                results.append(E.enumerate_words(6, workers=workers))
                times.append(time.perf_counter() - start)
        finally:
            os.sched_setaffinity(0, pinned)
        if results[0] != results[1]:
            raise RuntimeError("n = 6 statistics differ between one and two workers")
        return {"enumeration.parallel_speedup": (times[0] / times[1], "ratio")}


def census(seed: int, ctx) -> Workload:
    """Exhaustive statistics at n = 5 and 6; the seed does not enter."""
    import ntdice.enumeration as E

    refs: dict[int, dict] = {}

    def ref(n: int) -> dict:
        if n not in refs:
            refs[n] = O.census_summary(n, O.balanced_histogram_dp(n))
        return refs[n]

    def make(n: int, name: str) -> Op:
        path = os.path.join(ctx.out_dir, f"census-{name}.json")

        def run():
            stats = E.enumerate_words(n)
            E.cache_stats(stats, path)
            return stats, E.load_stats(path)

        def check(out) -> list[str]:
            stats, loaded = out
            problems = check_stats(stats, n, ref(n))
            if loaded != stats:
                problems.append("stats file does not round-trip")
            return problems

        return Op(name, run, check)

    # Two n = 5 ops per n = 6 op, so the median op is always an n = 5 scan
    # while the n = 6 scan carries most of the busy time.
    return CensusWorkload([make(5, "n5-a"), make(5, "n5-b"), make(6, "n6")])


# ---------------------------------------------------------------------------
# families: constructions, irreducibility, the optimizer, classify
# ---------------------------------------------------------------------------

IRREDUCIBLE_NS = range(3, 401)
OPTIMIZE_NS = tuple(range(6, 62, 2)) + (72, 74, 76, 120, 122, 124, 168, 170, 172, 216, 240)
ROUNDS_NS = range(6, 60006, 2)
NEAR_HALF_MS = range(1, 201)
CLASSIFY_WORDS, CLASSIFY_SIDES = 2000, 50
FAMILY_BATCHES = 8


def _balanced_batches(parts: int) -> list[list[tuple[str, int]]]:
    """Spread the construct+is_irreducible and optimize calls over batches
    of about equal cost, largest first into the lightest batch.  Costs are
    modelled as 1.4e-4 ms * n^2 and 4.6e-5 ms * n^3 (fitted on this code),
    so the split never depends on a measurement."""
    items = [(1.4e-4 * n * n, "irreducible", n) for n in IRREDUCIBLE_NS]
    items += [(4.6e-5 * n ** 3, "optimize", n) for n in OPTIMIZE_NS]
    load = [0.0] * parts
    batches: list[list[tuple[str, int]]] = [[] for _ in range(parts)]
    for cost, kind, n in sorted(items, reverse=True):
        j = load.index(min(load))
        load[j] += cost
        batches[j].append((kind, n))
    return [sorted(batch) for batch in batches]


def check_optimizer(report_json: dict) -> list[str]:
    """An optimizer report (JSON form) against the block family's laws."""
    n = report_json["n"]
    p, h = n // 6, n // 2
    rounds = report_json["rounds"]
    path = report_json["moves"]
    start_want = n * n // 2 + p * h
    try:
        end, shifts = O.replay_path(path)
    except ValueError as exc:
        return [f"optimize n={n}: {exc}"]
    achieved = tuple(report_json["achieved_counts"])
    target = Fraction((p + rounds) * h, n * n)
    gap = target - (Fraction(achieved[0], n * n) - Fraction(1, 2))
    return _problems([
        (O.wins_sorted(path["start"]) == (start_want,) * 3,
         f"optimize n={n}: start word does not count {start_want}"),
        (O.wins_sorted(end) == achieved, f"optimize n={n}: end word counts differ"),
        (achieved == (start_want + shifts,) * 3,
         f"optimize n={n}: counts do not rise by one per shift"),
        (O.rounds_ok(n, rounds), f"optimize n={n}: rounds {rounds} not maximal"),
        (Fraction(report_json["target_excess"]) == target, f"optimize n={n}: target"),
        (Fraction(report_json["gap"]) == gap and gap >= 0, f"optimize n={n}: gap"),
    ])


def _check_family_batch(out: dict) -> list[str]:
    problems = []
    for word, v in out["classify"]:
        counts = O.wins_sorted(word)
        if (v.counts.as_tuple() != counts or (v.balanced, v.nontransitive, v.fair)
                != O.flags(counts, CLASSIFY_SIDES) or v.p_ab != Fraction(counts[0], CLASSIFY_SIDES ** 2)):
            problems.append(f"classify {word}: verdict differs")
    for m, word, v in out["near_half"]:
        want, n = 2 * m * m + 2 * m + 1, 2 * m + 1
        if (len(word) != 3 * n or O.wins_sorted(word) != (want,) * 3
                or v.counts.as_tuple() != (want,) * 3 or not (v.balanced and v.nontransitive)
                or v.p_ab - Fraction(1, 2) != Fraction(1, 2 * n * n)):
            problems.append(f"near-half m={m}: counts differ from {want}")
    for n, m in out["rounds"]:
        if not O.rounds_ok(n, m):
            problems.append(f"max_shift_rounds({n}) = {m} is not the largest admissible m")
    for n, word, report in out["irreducible"]:
        want = (n * n + 2) // 2
        split = O.irreducible_split(word)
        if len(word) != 3 * n or O.wins_sorted(word) != (want,) * 3:
            problems.append(f"construct n={n}: counts differ from {want}")
        if split is not None:
            problems.append(f"construct n={n}: word splits at {split}")
        if report.irreducible != (split is None) or report.witness_split != split:
            problems.append(f"is_irreducible n={n}: verdict differs")
    for report in out["optimize"]:
        problems += check_optimizer(report.to_json())
    return problems


def families(seed: int, ctx) -> Workload:
    """The paper's constructions over a fixed sweep of n, in batches of
    about equal cost that each hold a share of every kind of call; the
    seed draws the random words given to classify."""
    import ntdice
    import ntdice.algebra as A
    import ntdice.constructions as C

    rng = random.Random(seed)
    words = [_random_word(rng, CLASSIFY_SIDES) for _ in range(CLASSIFY_WORDS)]
    ops: list[Op] = []
    for j, batch in enumerate(_balanced_batches(FAMILY_BATCHES)):
        def run(j=j, batch=batch):
            out = {
                "classify": [(w, ntdice.classify(w)) for w in words[j::FAMILY_BATCHES]],
                "near_half": [],
                "rounds": [(n, C.max_shift_rounds(n)) for n in ROUNDS_NS[j::FAMILY_BATCHES]],
                "irreducible": [],
                "optimize": [],
            }
            for m in NEAR_HALF_MS[j::FAMILY_BATCHES]:
                word = C.construct_near_half(m)
                out["near_half"].append((m, word, ntdice.classify(word)))
            for kind, n in batch:
                if kind == "irreducible":
                    word = C.construct_irreducible(n)
                    out["irreducible"].append((n, word, A.is_irreducible(word)))
                else:
                    out["optimize"].append(C.optimize_max_prob(n))
            return out

        ops.append(Op(f"batch-{j}", run, _check_family_batch))
    return Workload(ops)


# ---------------------------------------------------------------------------
# explore: the stream engine, the fair census and similarity search
# ---------------------------------------------------------------------------


def explore(seed: int, ctx) -> Workload:
    """Streaming scans with filters, the n = 4 fair census and similarity
    searches; the seed draws the n = 4 count filter and the not-similar
    pairs, whose searches each exhaust a class of fixed size."""
    import ntdice
    import ntdice.enumeration as E

    rng = random.Random(seed)
    orbits = _bnt3_orbits()
    found = [(x, y) for orbit in orbits for x in orbit for y in orbit if x != y]
    found += [(SEED4, DENSE4), (DENSE4, SEED4)]
    rng.shuffle(found)
    cross = [(x, y) for x in orbits[0] for y in orbits[1]]
    cross += [(y, x) for x, y in cross]
    pairs = found + rng.sample(cross, 6)
    for _ in range(6):
        word = SEED4
        for _ in range(8):
            word = rng.choice(sorted(O.neighbors(word)))
        other = _random_word(rng, 4)
        while O.wins_sorted(other) == (9, 9, 9):
            other = _random_word(rng, 4)
        pairs.append((word, other))
    counts_target = O.wins_sorted(_random_word(rng, 4))

    def similar_run():
        return [ntdice.similar(x, y) for x, y in pairs]

    def similar_check(results) -> list[str]:
        problems = []
        for (x, y), res in zip(pairs, results):
            dist = O.distance(x, y)
            if dist is None:
                if res.outcome != "not-similar" or res.explored != len(O.closure([x])):
                    problems.append(f"similar {x} {y}: expected not-similar")
                continue
            if res.outcome != "found" or res.path is None:
                problems.append(f"similar {x} {y}: expected a path")
                continue
            path = res.path.to_json()
            try:
                end, _ = O.replay_path(path)
            except ValueError as exc:
                problems.append(f"similar {x} {y}: {exc}")
                continue
            if path["start"] != x or end != y or len(path["moves"]) != dist:
                problems.append(f"similar {x} {y}: path is not a shortest path")
        return problems

    census4: dict = {}

    def groups4() -> dict:
        if not census4:
            census4.update(O.brute_census(4))
        return census4

    def stream(n: int, filt, label: str, expected: Callable[[], int | list[str]]) -> Op:
        """A filtered streaming scan; expected() gives the matching words
        (brute force, n <= 4) or only their number (n = 5)."""
        def run():
            words: list[str] = []
            stats = E.enumerate_words(n, filt=filt, consumer=lambda w, v: words.append(w))
            return stats, words

        def check(out) -> list[str]:
            stats, words = out
            want = expected()
            count = want if isinstance(want, int) else len(want)
            ref = O.census_summary(n, O.balanced_histogram_dp(n))
            problems = [f"{label}: {msg}" for msg in check_stats(stats, n, ref)]
            problems += _problems([
                (all(a < b for a, b in zip(words, words[1:])), f"{label}: not strictly increasing"),
                (len(words) == count, f"{label}: {len(words)} matches, expected {count}"),
                (isinstance(want, int) or words == want, f"{label}: matches differ from brute force"),
            ])
            for word in words:
                counts = O.wins_all_pairs(word)
                b, nt, f = O.flags(counts, n)
                if ((filt.balanced and not b) or (filt.nontransitive and not nt) or (filt.fair and not f)
                        or (filt.counts is not None and counts != filt.counts)):
                    problems.append(f"{label}: {word} does not pass the filter")
                    break
            return problems

        return Op(label, run, check)

    def brute(pred) -> Callable[[], list[str]]:
        return lambda: sorted(w for counts, ws in groups4().items() if pred(counts) for w in ws)

    def bnt5() -> int:
        return O.census_summary(5, O.balanced_histogram_dp(5))["count_balanced_nontransitive"]

    def fair_run():
        return E.verify_fair_conjecture(4)

    def fair_check(report) -> list[str]:
        fair, same, mixed = _fair_reference(4)
        return _problems([
            (report.fair_words_found == fair, f"fair census {report.fair_words_found}"),
            (report.reachable_same_perm == same, "reachable_same_perm"),
            (report.reachable_mixed_perm == mixed, "reachable_mixed_perm"),
            (report.not_reachable_same_perm == fair - same, "not_reachable_same_perm"),
            (report.not_reachable_mixed_perm == fair - mixed, "not_reachable_mixed_perm"),
            (report.unresolved_same_perm == report.unresolved_mixed_perm == 0, "unresolved"),
        ])

    ops = [
        Op("similar", similar_run, similar_check),
        stream(4, E.EnumFilter(fair=True), "stream-n4-fair", brute(lambda c: c == (8, 8, 8))),
        stream(4, E.EnumFilter(balanced=True), "stream-n4-balanced",
               brute(lambda c: c[0] == c[1] == c[2])),
        stream(4, E.EnumFilter(counts=counts_target), "stream-n4-counts",
               brute(lambda c: c == counts_target)),
        Op("verify-fair-n4", fair_run, fair_check),
        stream(5, E.EnumFilter(balanced=True, nontransitive=True), "stream-n5-bnt", bnt5),
    ]
    return Workload(ops)


# ---------------------------------------------------------------------------
# cli: whole processes
# ---------------------------------------------------------------------------

CLI_SUBCOMMANDS = (
    "analyze", "dice2word", "word2dice", "concat", "irreducible", "construct",
    "near-half", "optimize", "bounds", "enumerate", "scan-max", "verify-fair",
    "similar", "normalize2",
)
NORMALIZE_WORD = "AABBBBAA" * 3


def cli_metric_units() -> dict[str, str]:
    """The cli layer's per-layer metrics; other workloads report them as 0."""
    units = {"cli.interpreter_ms": "ms", "cli.import_ms": "ms", "cli.main_ms": "ms",
             "cli.stdout_bytes": "bytes"}
    units.update({f"cli.{sub}_ms": "ms" for sub in CLI_SUBCOMMANDS})
    return units


class CliWorkload(Workload):
    """Each op is one ``python -m ntdice.cli ... --json`` process."""

    def __init__(self, ops, env, root):
        super().__init__(ops)
        self.env, self.root = env, root
        self.stdout_bytes = 0
        self.main_s: list[float] = []

    def after_op(self, op, output, tracer) -> list[str]:
        """Run the same argv in-process, stdout captured, and compare bytes."""
        import ntdice.cli

        buf = io.StringIO()
        idx = tracer.begin("cli.main")
        with redirect_stdout(buf):
            code = ntdice.cli.main(op.argv)
        tracer.end(idx)
        span = tracer.spans[idx]
        self.main_s.append(span[2] - span[1])
        self.stdout_bytes += len(output[1])
        if (code, buf.getvalue().encode()) != output:
            return [f"cli {op.name}: in-process output differs from the process"]
        return []

    def layer_metrics(self, tracer, rounds, latencies) -> dict:
        def child_ms(code: str) -> float:
            times = []
            for _ in range(5):
                t0 = time.perf_counter()
                subprocess.run([sys.executable, "-c", code], env=self.env, cwd=self.root,
                               check=True, timeout=60)
                times.append(time.perf_counter() - t0)
            return sorted(times)[2] * 1e3

        interp = child_ms("pass")
        out = {
            "cli.interpreter_ms": (interp, "ms"),
            "cli.import_ms": (child_ms("import ntdice.cli") - interp, "ms"),
            "cli.main_ms": (sum(self.main_s) / len(self.main_s) * 1e3, "ms"),
            "cli.stdout_bytes": (self.stdout_bytes / rounds, "bytes"),
        }
        for sub in CLI_SUBCOMMANDS:
            times = [t for name, ts in latencies.items() if name.split(":")[0] == sub for t in ts]
            out[f"cli.{sub}_ms"] = (sum(times) / len(times) * 1e3, "ms")
        return out


def cli(seed: int, ctx) -> Workload:
    """All 14 subcommands as processes, plus smaller scan-max, enumerate,
    verify-fair and similar calls.  The seed draws the words; every drawn
    input has an output of fixed length, so stdout bytes do not depend on it."""
    rng = random.Random(seed)
    orbits = _bnt3_orbits()
    bnt3 = orbits[0] + orbits[1]
    w3 = _random_word(rng, 3)
    dice_json = json.dumps({"n": 3, **O.labels(w3)}, separators=(",", ":"))
    left, right = rng.choice(bnt3), rng.choice(bnt3)
    out5 = os.path.join(ctx.out_dir, "cli-n5.json")
    out4 = os.path.join(ctx.out_dir, "cli-n4.json")
    argvs = [
        ["analyze", rng.choice(bnt3)],
        ["dice2word", dice_json],
        ["word2dice", w3],
        ["concat", left, right],
        ["irreducible", left + right],
        ["construct", "--n", "150"],
        ["near-half", "--m", "60"],
        ["optimize", "--n", "48"],
        ["bounds"],
        ["enumerate", "--n", "5", "--out", out5],
        ["scan-max", "--n", "5"],
        ["verify-fair", "--n", "4"],
        ["similar", rng.choice(orbits[0]), rng.choice(orbits[1])],
        ["normalize2", NORMALIZE_WORD],
        ["scan-max", "--n", "4"],
        ["enumerate", "--n", "4", "--out", out4],
        ["verify-fair", "--n", "2"],
        ["similar", SEED4, DENSE4],
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [ctx.src, env.get("PYTHONPATH")]))
    env.pop("NTDICE_CACHE_DIR", None)
    ops: list[Op] = []
    seen: dict[str, int] = {}
    for argv in argvs:
        argv = argv + ["--json"]
        sub = argv[0]
        seen[sub] = seen.get(sub, 0) + 1
        name = sub if seen[sub] == 1 else f"{sub}:{seen[sub]}"

        def run(argv=argv):
            proc = subprocess.run([sys.executable, "-m", "ntdice.cli", *argv], env=env,
                                  cwd=ctx.root, capture_output=True, timeout=120)
            return proc.returncode, proc.stdout

        ops.append(Op(name, run, _cli_check(argv), argv))
    return CliWorkload(ops, env, ctx.root)


def _cli_check(argv: list[str]) -> Callable[[object], list[str]]:
    sub = argv[0]

    def check(output) -> list[str]:
        code, stdout = output
        if code != 0:
            return [f"cli {sub}: exit code {code}"]
        try:
            obj = json.loads(stdout)
        except ValueError:
            return [f"cli {sub}: stdout is not JSON"]
        return [f"cli {' '.join(argv[:3])}: {msg}" for msg in _cli_expect(argv, obj)]

    return check


def _verdict_json(word: str) -> dict:
    """What ``analyze --json`` must print for a word."""
    n = len(word) // 3
    counts = O.wins_all_pairs(word)
    b, nt, f = O.flags(counts, n)
    return {"n": n, "counts": list(counts), "p": str(Fraction(counts[0], n * n)) if b else None,
            "balanced": b, "nontransitive": nt, "fair": f}


def _cli_expect(argv: list[str], obj: dict) -> list[str]:
    """Problems with one subcommand's JSON, judged by the oracle."""
    sub, args = argv[0], argv[1:-1]
    if sub == "analyze":
        return [] if obj == _verdict_json(args[0]) else ["verdict differs"]
    if sub == "dice2word":
        dice = json.loads(args[0])
        owner = {pos: k for k in "ABC" for pos in dice[k]}
        word = "".join(owner[i] for i in range(1, 3 * dice["n"] + 1))
        return [] if obj == {"word": word, "n": dice["n"]} else ["word differs"]
    if sub == "word2dice":
        return [] if obj == {"n": len(args[0]) // 3, **O.labels(args[0])} else ["labels differ"]
    if sub == "concat":
        word = args[0] + args[1]
        counts = list(O.wins_all_pairs(word))
        n = len(word) // 3
        want = {"word": word, "n": n, "counts": counts, "predicted_counts": counts,
                "p_ab": str(Fraction(counts[0], n * n))}
        return [] if obj == want else ["counts differ"]
    if sub == "irreducible":
        split = O.irreducible_split(args[0])
        return [] if obj == {"irreducible": split is None, "witness_split": split} else ["verdict differs"]
    if sub == "construct":
        n = int(args[1])
        want = (n * n + 2) // 2
        return _problems([
            (O.wins_sorted(obj["word"]) == (want,) * 3 and obj["counts"] == [want] * 3, "counts"),
            (obj["irreducible"] is True and O.irreducible_split(obj["word"]) is None, "irreducible"),
        ])
    if sub == "near-half":
        m = int(args[1])
        n, want = 2 * m + 1, 2 * m * m + 2 * m + 1
        return _problems([
            (O.wins_sorted(obj["word"]) == (want,) * 3 and obj["counts"] == [want] * 3, "counts"),
            (Fraction(obj["excess"]) == Fraction(1, 2 * n * n), "excess"),
        ])
    if sub == "optimize":
        return check_optimizer(obj)
    if sub == "bounds":
        problems = []
        for key, (a, b, c, d) in (("limit_excess", (15, -1, 24, 153)),
                                  ("limit_excess_variant_154", (15, -1, 24, 154)),
                                  ("limit_excess_shortened", (13, -1, 24, 153))):
            lo, hi = (Fraction(x) for x in obj[key]["enclosure"])
            if not O.surd_in(lo, hi, a, b, c, d):
                problems.append(f"{key} enclosure misses its value")
        return problems
    if sub == "enumerate":
        n = int(args[1])
        hist = O.balanced_histogram_brute(n) if n <= 4 else O.balanced_histogram_dp(n)
        ref = O.census_summary(n, hist)
        with open(args[3], encoding="utf-8") as fh:
            on_disk = json.load(fh)
        return _problems([
            (obj["total_words"] == ref["total_words"], "total"),
            ({Fraction(k): v for k, v in obj["histogram"].items()} == ref["histogram"], "histogram"),
            (obj["count_balanced_nontransitive"] == ref["count_balanced_nontransitive"], "bnt count"),
            (obj["count_fair"] == ref["count_fair"], "fair count"),
            (on_disk == obj, "stats file differs from stdout"),
        ])
    if sub == "scan-max":
        n = int(args[1])
        hist = O.balanced_histogram_brute(n) if n <= 4 else O.balanced_histogram_dp(n)
        ref = O.census_summary(n, hist)
        best = ref["max_prob"] * n * n
        wits = obj["witnesses"]
        return _problems([
            (Fraction(obj["max_prob"]) == ref["max_prob"], "max_prob"),
            (len(wits) == min(10, hist[best]) and wits == sorted(set(wits)), "witness list"),
            (all(O.wins_all_pairs(w) == (best,) * 3 for w in wits), "witness counts"),
        ])
    if sub == "verify-fair":
        fair, same, mixed = _fair_reference(int(args[1]))
        return _problems([
            (obj["fair_words_found"] == fair, "fair census"),
            (obj["reachable_same_perm"] == same and obj["reachable_mixed_perm"] == mixed, "reachability"),
            (obj["unresolved_same_perm"] == obj["unresolved_mixed_perm"] == 0, "unresolved"),
        ])
    if sub == "similar":
        x, y = args
        dist = O.distance(x, y)
        if dist is None:
            ok = obj["outcome"] == "not-similar" and obj["explored"] == len(O.closure([x]))
            return [] if ok else ["expected not-similar"]
        try:
            end, _ = O.replay_path(obj["path"])
        except (ValueError, TypeError, KeyError) as exc:
            return [f"path: {exc}"]
        ok = obj["outcome"] == "found" and end == y and len(obj["path"]["moves"]) == dist
        return [] if ok else ["path is not a shortest path"]
    if sub == "normalize2":
        word = args[0]
        w = word
        try:
            for move in obj["moves"]:
                w = O.replay_move(w, move)
        except ValueError as exc:
            return [str(exc)]
        target = ("ABBA" if word[0] == "A" else "BAAB") * (len(word) // 4)
        return [] if obj["start"] == word and w == obj["end"] == target else ["normal form"]
    return [f"no check for {sub}"]


WORKLOADS = {"census": census, "families": families, "explore": explore, "cli": cli}
