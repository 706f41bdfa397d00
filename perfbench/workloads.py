"""The four benchmark workloads: seeded inputs, one timed pass, output checks.

Each workload builds its inputs from the seed alone, in the constructor (the
set-up the benchmark times as ``setup_s``).  ``run_pass`` does the timed
work once, closed-loop with one caller, and returns a :class:`Pass`;
``check`` then compares the pass's outputs with values the benchmark derives
itself, outside the timed region.  A pass repeats the same inputs, so the
median over passes measures one fixed job.

Input generators here (Lyndon words, Lorenz permutations, trip parameters,
2x2 products) are written from the definitions rather than imported, so the
program under test only ever sees the generated inputs and the checks do not
reuse the code they check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from lorenzlinks import braid, cli, jones, modular, tlink, words

clock = time.perf_counter


@dataclass
class Pass:
    """One timed pass: its wall time, per-unit latencies and raw outputs."""

    wall_s: float
    latencies: array  # seconds per unit, compact so memory does not grow with passes
    attempted: int
    unit_s: float  # time the throughput is taken over (the write path for census)
    outputs: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    failed: int = 0
    speed: float = 1.0  # host speed around the pass, from calibration_s() in run.py


# ---------------------------------------------------------------------------
# definitions the inputs and checks are derived from


def least_rotation(letters: str) -> str:
    return min(letters[i:] + letters[:i] for i in range(len(letters)))


def is_aperiodic(letters: str) -> bool:
    return (letters + letters).find(letters, 1) == len(letters)


def lyndon_words(max_len: int) -> list[str]:
    """Canonical (least-rotation, aperiodic) words of length <= max_len, by
    the Fredricksen-Kessler-Maiorana generator."""
    out, buf = [], [-1]
    while buf:
        buf[-1] += 1
        out.append("".join("LR"[i] for i in buf))
        period = len(buf)
        while len(buf) < max_len:
            buf.append(buf[-period])
        while buf and buf[-1] == 1:
            buf.pop()
    return out


def lorenz_targets(word: str) -> list[int]:
    """1-based targets of the Lorenz braid of one canonical word.

    Distinct rotations of an aperiodic word differ within their first
    len(word) letters, so sorting the rotations themselves sorts their
    periodic extensions; the strand at the rank of rotation k ends at the
    rank of rotation k + 1.
    """
    n = len(word)
    order = sorted(range(n), key=lambda k: word[k:] + word[:k])
    rank = {k: pos for pos, k in enumerate(order, start=1)}
    return [rank[(k + 1) % n] for k in order]


def inversions(targets: list[int]) -> int:
    n = len(targets)
    return sum(1 for i in range(n) for j in range(i + 1, n) if targets[i] > targets[j])


def trip(targets: list[int]) -> list[list[int]]:
    """(displacement, multiplicity) over the rightward strands."""
    moves = Counter(t - s for s, t in enumerate(targets, start=1) if t > s)
    return [[p, q] for p, q in sorted(moves.items())]


def word_matrix(word: str) -> list[list[int]]:
    """Product of L = [[1,1],[0,1]] and R = [[1,0],[1,1]] in word order."""
    a, b, c, d = 1, 0, 0, 1
    for letter in word:
        if letter == "L":
            b, d = a + b, c + d
        else:
            a, c = a + b, c + d
    return [[a, b], [c, d]]


BITS_TO_LETTERS = str.maketrans("01", "LR")


def random_word(rng: random.Random, length: int) -> str:
    """A canonical aperiodic word of the given length (>= 2, so both letters occur)."""
    while True:
        letters = format(rng.getrandbits(length), f"0{length}b").translate(BITS_TO_LETTERS)
        if is_aperiodic(letters):
            return least_rotation(letters)


def histogram(values) -> dict[str, int]:
    return {str(k): v for k, v in sorted(Counter(values).items())}


ORDERING = {
    "<=": lambda a, b: a <= b, ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b, ">": lambda a, b: a > b,
}


def matches(record: dict, clauses) -> bool:
    """The documented filter semantics: = and != compare values, and an
    ordering against null is false."""
    for name, op, value in clauses:
        actual = record[name]
        if op == "=":
            ok = actual == value
        elif op == "!=":
            ok = actual != value
        else:
            ok = actual is not None and value is not None and ORDERING[op](actual, value)
        if not ok:
            return False
    return True


def random_filter(rng: random.Random, ranges: dict) -> list[tuple[str, str, object]]:
    clauses = []
    for name in rng.sample(sorted(ranges), rng.choice((1, 2))):
        if name == "torus":
            clauses.append((name, rng.choice(("=", "!=")), None))
        else:
            low, high = ranges[name]
            clauses.append((name, rng.choice(("=", "!=", "<=", ">=", "<", ">")), rng.randint(low, high)))
    return clauses


def filter_args(clauses) -> list[str]:
    return [f"{name}{op}{'null' if value is None else value}" for name, op, value in clauses]


CALIBRATION_WORDS = [random_word(random.Random(f"calibration:{i}"), 14) for i in range(400)]


def calibration_s() -> float:
    """Time of a fixed job of the benchmark's own code (string sorting, small
    and big integers, fractions, json), which no change to the program
    touches: its time tracks the speed the shared host gives this process."""
    start = clock()
    for word in CALIBRATION_WORDS:
        targets = lorenz_targets(word)
        record = {"word": word, "c": inversions(targets), "trip": trip(targets), "m": word_matrix(word * 3)}
        json.loads(json.dumps(record))
        sum((Fraction(i, len(word)) for i in range(1, 12)), Fraction(0))
    return clock() - start


# ---------------------------------------------------------------------------
# census: atlas write path, then read-back with seeded filters


class Census:
    """``cli.build_atlas`` over every canonical word up to ATLAS_LEN, then
    QUERIES whole-atlas reads through ``cli.query_atlas``."""

    name, unit = "census", "record"
    # length 15 keeps a pass near one second, so the host-speed calibration
    # around it (see run.py) brackets it closely
    ATLAS_LEN = 15
    # sha256 of the atlas bytes (one record per line) at the baseline commit
    ATLAS_SHA256 = "52f29c9d64e789fd97d9b9a84422a3e50ff977c2e8c961ff0bb7920c34964c71"
    QUERIES = 5
    RANGES = {
        "genus": (0, 21), "c": (0, 56), "n": (1, 15), "braid_index": (1, 7),
        "c_min": (0, 48), "LR": (0, 7), "RR": (0, 13), "torus": None,
    }

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(f"census:{seed}")
        self.queries = [random_filter(rng, self.RANGES) for _ in range(self.QUERIES)]
        self.expected_counts = {n: words.aperiodic_count(n) for n in range(1, self.ATLAS_LEN + 1)}
        self.expected_matches: list[list[str]] | None = None

    def stats(self) -> dict:
        return {
            "atlas_len": self.ATLAS_LEN,
            "word_length_histogram": {str(n): c for n, c in self.expected_counts.items()},
            "queries": [filter_args(q) for q in self.queries],
        }

    def run_pass(self) -> Pass:
        latencies, lines, error = array("d"), [], None
        start = prev = clock()
        try:
            for line in cli.build_atlas(self.ATLAS_LEN):
                now = clock()
                latencies.append(now - prev)
                prev = now
                lines.append(line)
        except Exception as exc:  # reported by check()
            error = exc
        built = clock()
        results = []
        for clauses in self.queries:
            try:
                filters = [cli.parse_filter(arg) for arg in filter_args(clauses)]
                results.append([record["word"] for record in cli.query_atlas(lines, filters)])
            except Exception as exc:  # reported by check()
                results.append(exc)
        end = clock()
        return Pass(
            wall_s=end - start, latencies=latencies, unit_s=built - start,
            attempted=len(lines) + len(self.queries), outputs=[error, lines, results],
            extra={"query_s": end - built, "query_records": len(lines) * len(self.queries)},
        )

    def check(self, done: Pass) -> list[str]:
        error, lines, results = done.outputs
        wrong = []
        if error is not None:
            wrong.append(f"census: build_atlas raised {error!r} after {len(lines)} records")
        lengths = Counter(line.index('"', 9) - 9 for line in lines)  # {"word":"<word>",...
        for n, count in self.expected_counts.items():
            if lengths.get(n, 0) != count:
                wrong.append(f"census: length {n} has {lengths.get(n, 0)} records, aperiodic_count {count}")
        digest = hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()
        done.extra["atlas_sha256"] = digest
        if digest != self.ATLAS_SHA256:
            wrong.append(f"census: atlas sha256 {digest} differs from {self.ATLAS_SHA256}")
        if wrong:
            done.failed += len(lines)
        elif self.expected_matches is None:
            records = [json.loads(line) for line in lines]
            self.expected_matches = [
                [r["word"] for r in records if matches(r, clauses)] for clauses in self.queries
            ]
        for i, (clauses, got) in enumerate(zip(self.queries, results)):
            if isinstance(got, Exception):
                wrong.append(f"census: query {filter_args(clauses)} raised {got!r}")
                done.failed += 1
            elif self.expected_matches is None:
                wrong.append(f"census: query {filter_args(clauses)} unchecked, the atlas is wrong")
                done.failed += 1
            elif got != self.expected_matches[i]:
                wrong.append(
                    f"census: query {filter_args(clauses)} returned {len(got)} records, "
                    f"expected {len(self.expected_matches[i])}"
                )
                done.failed += 1
        return wrong


# ---------------------------------------------------------------------------
# jones: the bracket state sum on both presentations of small knots


class Jones:
    """SAMPLE words of the criterion-06 pool (knot words of length <= 12 with
    <= 16 crossings), spread over its (crossings, length) cells in
    proportion to their sizes by largest remainder.  Crossings and length
    set the state-sum cost, so the seed picks words within the cells and
    every seed draws the same cost profile.  Each word's Jones polynomial
    comes from its Lorenz braid and from its T-braid.

    The unit is the word, not the single ``jones_of_braid`` call: the T-braid
    call costs about 1% of the Lorenz-braid call, so the median call would
    fall in the gap between the two cost ranges and swing with the sample.
    """

    name, unit = "jones", "knot word (two jones_of_braid calls)"
    POOL_MAX_LEN, POOL_MAX_CROSSINGS, POOL_SIZE, SAMPLE = 12, 16, 310, 31

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(f"jones:{seed}")
        cells: dict[tuple[int, int], list] = {}
        for word in lyndon_words(self.POOL_MAX_LEN):
            targets = lorenz_targets(word)
            c = inversions(targets)
            if c <= self.POOL_MAX_CROSSINGS:
                cells.setdefault((c, len(word)), []).append((c, len(word), word, trip(targets)))
        pool_size = sum(len(cell) for cell in cells.values())
        if pool_size != self.POOL_SIZE:
            raise RuntimeError(f"jones pool has {pool_size} words, expected {self.POOL_SIZE}")
        share = {key: len(cell) * self.SAMPLE / pool_size for key, cell in cells.items()}
        quota = {key: int(x) for key, x in share.items()}
        by_remainder = sorted(cells, key=lambda key: (quota[key] - share[key], key))
        for key in by_remainder[: self.SAMPLE - sum(quota.values())]:
            quota[key] += 1
        self.sample = [word for key in sorted(cells) for word in rng.sample(cells[key], quota[key])]
        rng.shuffle(self.sample)

    def stats(self) -> dict:
        return {
            "words": len(self.sample),
            "word_length_histogram": histogram(n for _, n, _, _ in self.sample),
            "crossing_histogram": histogram(c for c, _, _, _ in self.sample),
        }

    def run_pass(self) -> Pass:
        latencies, outputs = array("d"), []
        start = clock()
        for _, _, word, _ in self.sample:
            t = clock()
            try:
                lorenz = braid.braid_of_words(words.validate_link([word]))
                gens = braid.braid_generators(lorenz)
                via_lorenz = jones.jones_of_braid(gens, lorenz.n)
                params = tlink.from_lorenz(lorenz)
                via_t = jones.jones_of_braid(tlink.t_braid_word(params), params.strands)
                outputs.append((len(gens), params.pairs, via_lorenz, via_t))
            except Exception as exc:  # reported by check()
                outputs.append(exc)
            latencies.append(clock() - t)
        end = clock()
        return Pass(end - start, latencies, len(self.sample), end - start, outputs)

    def check(self, done: Pass) -> list[str]:
        wrong = []
        for (c, _, word, pairs), out in zip(self.sample, done.outputs):
            if isinstance(out, Exception):
                wrong.append(f"jones: {word} raised {out!r}")
                done.failed += 1
                continue
            n_gens, t_pairs, via_lorenz, via_t = out
            problems = []
            if n_gens != c:
                problems.append(f"{n_gens} generators for {c} crossings")
            if [list(pq) for pq in t_pairs] != pairs:
                problems.append(f"T-parameters {t_pairs} differ from the trip {pairs}")
            if via_lorenz != via_t:
                problems.append("Lorenz-braid and T-braid polynomials differ")
            if len(pairs) == 1 and min(pairs[0]) >= 2 and via_lorenz != jones.jones_torus(*pairs[0]):
                problems.append(f"polynomial differs from jones_torus{tuple(pairs[0])}")
            if problems:
                wrong.append(f"jones: {word}: " + "; ".join(problems))
                done.failed += 1
        return wrong


# ---------------------------------------------------------------------------
# modular: matrix -> word roundtrip and the Dedekind-sum invariant


class Modular:
    """Mixed words of length 16-24 whose lower-left matrix entry c, the
    length of the O(c) Dedekind sum that sets the cost, lies within 5% above
    each of WORDS targets spaced geometrically from C_LOW to C_HIGH.  The
    seed picks the words; every seed gets the same cost profile."""

    name, unit = "modular", "word"
    LENGTHS = range(16, 25)
    WORDS, C_LOW, C_HIGH, C_BAND = 50, 64, 8192, 1.05
    MAX_DRAWS = 1_000_000

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(f"modular:{seed}")
        ratio = (self.C_HIGH / self.C_LOW) ** (1 / (self.WORDS - 1))
        self.sample = []
        for j in range(self.WORDS):
            low = round(self.C_LOW * ratio**j)
            for _ in range(self.MAX_DRAWS):
                word = random_word(rng, rng.choice(self.LENGTHS))
                if low <= word_matrix(word)[1][0] <= low * self.C_BAND:
                    self.sample.append(word)
                    break
            else:
                raise RuntimeError(f"modular: no word of length 16-24 with c near {low}")
        rng.shuffle(self.sample)

    def stats(self) -> dict:
        return {
            "words": len(self.sample),
            "word_length_histogram": histogram(len(w) for w in self.sample),
            "log2_c_histogram": histogram(int(math.log2(word_matrix(w)[1][0])) for w in self.sample),
        }

    def run_pass(self) -> Pass:
        latencies, outputs = array("d"), []
        start = clock()
        for word in self.sample:
            try:
                t = clock()
                matrix = modular.matrix_of_word(word)
                back = modular.word_of_matrix(matrix)
                psi = modular.rademacher_psi(matrix)
                latencies.append(clock() - t)
                outputs.append((matrix.to_rows(), str(back), psi))
            except Exception as exc:  # reported by check()
                outputs.append(exc)
        end = clock()
        return Pass(end - start, latencies, len(self.sample), end - start, outputs)

    def check(self, done: Pass) -> list[str]:
        wrong = []
        for word, out in zip(self.sample, done.outputs):
            if isinstance(out, Exception):
                wrong.append(f"modular: {word} raised {out!r}")
                done.failed += 1
                continue
            rows, back, psi = out
            imbalance = word.count("L") - word.count("R")
            problems = []
            if rows != word_matrix(word):
                problems.append(f"matrix {rows}")
            if back != word:
                problems.append(f"decodes to {back}")
            if not psi == modular.rademacher(word) == imbalance:
                problems.append(f"rademacher_psi {psi} but #L - #R = {imbalance}")
            if problems:
                wrong.append(f"modular: {word}: " + "; ".join(problems))
                done.failed += 1
        return wrong


# ---------------------------------------------------------------------------
# cli_mix: one interactive user issuing lorenzlinks commands


@dataclass
class Request:
    kind: str
    argv: list[str]
    expect: int  # the exit code a correct program returns
    check: Callable[[str], str | None] | None = None  # on exit 0: stdout -> problem, or None


class CliMix:
    """A fixed mix of 100 ``cli.main`` requests per pass, with seeded
    arguments and order.  The eleven malformed ones must exit 2 or 3; they
    include the robustness defects listed in the ROADMAP as they stand."""

    name, unit = "cli_mix", "request"
    ATLAS_LEN, ATLAS_JONES = 12, 8
    RANGES = {
        "genus": (0, 12), "c": (0, 35), "n": (1, 12), "braid_index": (1, 5),
        "c_min": (0, 28), "LR": (0, 5), "RR": (0, 8), "torus": None,
    }
    TORUS = ((2, 3), (2, 5), (2, 7), (2, 9), (2, 11), (3, 4), (3, 5))
    SELECTIVITY = (0.2, 0.3)

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(f"cli_mix:{seed}")
        workdir.mkdir(parents=True, exist_ok=True)
        self.atlas = workdir / "atlas.jsonl"
        code, out, err = call(["atlas", "build", "--max-len", str(self.ATLAS_LEN),
                               "--jones-max-crossings", str(self.ATLAS_JONES), "--out", str(self.atlas)])
        if code != 0:
            raise RuntimeError(f"cli_mix set-up: atlas build exited {code}: {err.strip()}")
        lines = self.atlas.read_text().splitlines()
        self.records = [json.loads(line) for line in lines]
        corrupt = self._corrupt_atlases(lines, workdir)
        self.itinerary: str | None = None
        self._torus_jones: dict = {}

        # Argument sizes are fixed per slot and query selectivity is held in
        # a band, so the seed changes the words but not the work per pass.
        requests = []
        for i, fmt in enumerate(["json"] * 14 + ["table"] * 4 + ["csv"] * 4):
            word = random_word(rng, 8 + i % 7)
            requests.append(Request("word info", ["word", "info", word, "--format", fmt], 0,
                                    self._check_word_info(word, fmt)))
        for length in range(9, 15):
            word = random_word(rng, length)
            targets = lorenz_targets(word)
            requests.append(Request("convert braid", ["convert", word, "--to", "braid"], 0,
                                    expect_json(lambda p, t=targets: p["n"] == len(t) and p["targets"] == t)))
            word = random_word(rng, length)
            pairs = trip(lorenz_targets(word))
            requests.append(Request("convert tlink", ["convert", word, "--to", "tlink"], 0,
                                    expect_json(lambda p, x=pairs: p["pairs"] == x)))
            word = random_word(rng, length)
            requests.append(Request("convert word", ["convert", json.dumps(trip(lorenz_targets(word))), "--to", "word"], 0,
                                    expect_json(lambda p, w=word: p["words"] == [w])))
        for _ in range(6):
            p, q = rng.choice(self.TORUS)
            expected = self._t_jones([[p, q]])
            requests.append(Request("jones torus", ["jones", f"{p},{q}"], 0,
                                    expect_json(lambda d, e=expected: d["pairs"] == e)))
        by_crossings: dict[int, list[str]] = {}
        for word in lyndon_words(10):
            by_crossings.setdefault(inversions(lorenz_targets(word)), []).append(word)
        for c in (10, 9, 8, 7) * 2:
            word = rng.choice(by_crossings[c])
            expected = self._t_jones(trip(lorenz_targets(word)))
            requests.append(Request("jones word", ["jones", word], 0,
                                    expect_json(lambda d, e=expected: d["pairs"] == e)))
        for length in range(4, 10):
            word = random_word(rng, length)
            rows = word_matrix(word)
            imbalance = word.count("L") - word.count("R")
            requests.append(Request("modular encode", ["modular", "encode", word], 0,
                                    expect_json(lambda d, r=rows: d["matrix"] == r and d["trace"] == r[0][0] + r[1][1])))
            requests.append(Request("modular decode", ["modular", "decode", json.dumps(rows)], 0,
                                    expect_json(lambda d, w=word: d["word"] == w)))
            requests.append(Request("modular rademacher", ["modular", "rademacher", word], 0,
                                    expect_json(lambda d, v=imbalance: d["rademacher"] == v == d["psi"])))
        for _ in range(3):
            requests.append(Request("flow itinerary", ["flow", "itinerary"], 0, self._check_itinerary))
        for fmt in ["json"] * 10 + ["table"] * 2 + ["csv"] * 2:
            clauses, expected = self._banded_filter(rng)
            argv = ["atlas", "query", str(self.atlas), "--format", fmt]
            for arg in filter_args(clauses):
                argv += ["--where", arg]
            requests.append(Request("atlas query", argv, 0, expect_words(expected, fmt)))

        crossing_heavy = random_word(rng, 16)
        while inversions(lorenz_targets(crossing_heavy)) <= jones.DEFAULT_MAX_CROSSINGS:
            crossing_heavy = random_word(rng, 16)
        malformed = [
            ("atlas query, truncated line", ["atlas", "query", str(corrupt["truncated"])], 2),
            ("atlas query, line without chi", ["atlas", "query", str(corrupt["missing_key"])], 2),
            ("atlas query, line with wrong chi", ["atlas", "query", str(corrupt["bad_chi"])], 2),
            ("atlas query --where genus", ["atlas", "query", str(self.atlas), "--where", "genus"], 2),
            ("flow itinerary --seed-state a,b,c", ["flow", "itinerary", "--seed-state", "a,b,c"], 2),
            ("modular decode [[1,2],[3]]", ["modular", "decode", "[[1,2],[3]]"], 2),
            ("word info LRXL", ["word", "info", "LRXL"], 2),
            ("word info LRLR", ["word", "info", "LRLR"], 2),
            ("convert --to knot", ["convert", "LLR", "--to", "knot"], 2),
            ("jones over the crossing cap", ["jones", crossing_heavy], 3),
            ("atlas build --max-len 30", ["atlas", "build", "--max-len", "30",
                                          "--out", str(workdir / "capped.jsonl")], 3),
        ]
        requests += [Request(f"malformed: {label}", argv, code) for label, argv, code in malformed]
        rng.shuffle(requests)
        self.requests = requests

    @staticmethod
    def _corrupt_atlases(lines: list[str], workdir: Path) -> dict[str, Path]:
        """Copies of the atlas with one bad line each, in the middle: a query
        reads every line before the bad one, so the position sets the cost."""
        at = len(lines) // 2
        record = json.loads(lines[at])
        missing = {k: v for k, v in record.items() if k != "chi"}
        variants = {
            "truncated": lines[at][: len(lines[at]) // 2],
            "missing_key": json.dumps(missing, separators=(",", ":")),
            "bad_chi": json.dumps({**record, "chi": record["chi"] + 1}, separators=(",", ":")),
        }
        paths = {}
        for name, bad in variants.items():
            paths[name] = workdir / f"corrupt-{name}.jsonl"
            paths[name].write_text("".join(line + "\n" for line in lines[:at] + [bad] + lines[at + 1:]))
        return paths

    def _banded_filter(self, rng: random.Random):
        """A seeded filter matching SELECTIVITY of the atlas, and its matches."""
        low, high = (round(f * len(self.records)) for f in self.SELECTIVITY)
        for _ in range(100_000):
            clauses = random_filter(rng, self.RANGES)
            expected = [r["word"] for r in self.records if matches(r, clauses)]
            if low <= len(expected) <= high:
                return clauses, expected
        raise RuntimeError("cli_mix: no filter within the selectivity band")

    def _t_jones(self, pairs: list[list[int]]) -> list[list[int]]:
        """Jones pairs of the closure of the T-braid with these parameters."""
        key = json.dumps(pairs)
        if key not in self._torus_jones:
            params = tlink.TLinkParams.from_pairs(pairs)
            poly = jones.jones_of_braid(tlink.t_braid_word(params), params.strands)
            self._torus_jones[key] = [list(pair) for pair in poly.pairs()]
        return self._torus_jones[key]

    @staticmethod
    def _check_word_info(word: str, fmt: str):
        targets = lorenz_targets(word)
        n, c = len(word), inversions(targets)

        def check(out: str) -> str | None:
            if fmt == "json":
                d = json.loads(out)
                ok = (d["word"] == word and d["n"] == n and d["c"] == c and d["trip"] == trip(targets)
                      and d["chi"] == n - c and d["LL"] + d["LR"] + d["RL"] + d["RR"] == n
                      and d["targets"] == targets)
            elif fmt == "table":
                table = dict(line.split(None, 1) for line in out.splitlines())
                ok = table["word"] == word and table["c"] == str(c)
            else:
                header, row = out.splitlines()
                ok = header.split(",")[0] == "word" and row.split(",")[0] == word
            return None if ok else f"word info {word} --format {fmt}: wrong fields"
        return check

    def _check_itinerary(self, out: str) -> str | None:
        symbols = out.strip()
        if not symbols or set(symbols) - set("LR"):
            return f"flow itinerary printed {symbols[:40]!r}"
        if self.itinerary is None:
            self.itinerary = symbols
        return None if symbols == self.itinerary else "flow itinerary changed between requests"

    def stats(self) -> dict:
        return {
            "requests": len(self.requests),
            "kinds": histogram(r.kind for r in self.requests),
            "atlas_records": len(self.records),
        }

    def run_pass(self) -> Pass:
        latencies, outputs = array("d"), []
        start = clock()
        for request in self.requests:
            result = call(request.argv, latencies)
            outputs.append(result)
        end = clock()
        return Pass(end - start, latencies, len(self.requests), end - start, outputs)

    def check(self, done: Pass) -> list[str]:
        wrong = []
        for request, (code, out, err) in zip(self.requests, done.outputs):
            problem = None
            if code != request.expect:
                problem = f"exit {code}, expected {request.expect}"
                if code == 0:
                    wrong.append(f"cli_mix: {' '.join(request.argv)}: accepted, expected exit {request.expect}")
            elif code == 0:
                try:
                    problem = request.check(out)
                except (ValueError, KeyError, TypeError, IndexError) as exc:
                    problem = f"stdout does not parse: {exc!r}"
                if problem:
                    wrong.append(f"cli_mix: {' '.join(request.argv)}: {problem}")
            if problem:
                done.failed += 1
                done.extra.setdefault("failures", Counter())[f"{request.kind}: {problem}"] += 1
        return wrong


def call(argv: list[str], latencies: array | None = None) -> tuple[int | str, str, str]:
    """Run ``cli.main(argv)`` in-process; returns (exit code, stdout, stderr).

    An exception that escapes ``main`` is a traceback for the user and is
    reported as the code "uncaught".
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t = clock()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            code = "uncaught"
        if latencies is not None:
            latencies.append(clock() - t)
    return code, out.getvalue(), err.getvalue()


def expect_json(predicate):
    def check(out: str) -> str | None:
        return None if predicate(json.loads(out)) else f"unexpected output {out.strip()[:120]}"
    return check


def expect_words(expected: list[str], fmt: str):
    def check(out: str) -> str | None:
        if fmt == "json":
            got = [json.loads(line)["word"] for line in out.splitlines()]
        elif fmt == "csv":
            rows = out.splitlines()
            got = [row.split(",", 1)[0] for row in rows[1:]] if rows else []
            if rows and rows[0].split(",", 1)[0] != "word":
                return "csv header does not start with word"
        else:
            got = [block.split(None, 2)[1] for block in out.split("\n\n") if block.strip()]
        return None if got == expected else f"{len(got)} records, expected {len(expected)}"
    return check


WORKLOADS = {w.name: w for w in (Census, Jones, Modular, CliMix)}
