"""Command-line interface: subcommands, formats, atlas persistence, exit codes."""

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import stat
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from matrix_oracle import L_MATRIX, R_MATRIX, conjugate, inverse, product
from rotation_oracle import least_rotation_oracle

from lorenzlinks import braid as braid_mod
from lorenzlinks import cli
from lorenzlinks import invariants as inv_mod
from lorenzlinks import jones as jones_mod
from lorenzlinks import modular as mod_mod
from lorenzlinks import words as words_mod
from lorenzlinks.braid import braid_of_words
from lorenzlinks.errors import InternalInconsistencyError, ResourceCapError, ValidationError
from lorenzlinks.words import MAX_LETTERS, aperiodic_count, lyndon_words, validate_link


# Python 3.11 (and the security releases of older lines) refuses to convert
# integers of more than 4,300 digits to or from text with a plain ValueError.
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
BEYOND_DIGIT_LIMIT = "9" * 5000
needs_digit_limit = pytest.mark.skipif(
    not 0 < DIGIT_LIMIT < len(BEYOND_DIGIT_LIMIT),
    reason="this interpreter converts integers of any length",
)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def word_record(word: str, braid: braid_mod.LorenzBraid, jones_max_crossings: int) -> dict:
    """The reference atlas record of a word and its braid: word and length,
    the invariants as compute_record keys them, then Jones under the cap."""
    record = inv_mod.compute_record(braid)
    jones = None
    if jones_max_crossings and record["c"] <= jones_max_crossings:
        jones = jones_mod.jones_of_lorenz_braid(braid, jones_max_crossings).pairs()
    return {"word": word, "length": len(word), **record, "jones": jones}


def fixed_word(length: int) -> str:
    """A fixed string of L's and R's, seeded by its length."""
    return "".join(random.Random(length).choices("LR", k=length))


class TestWordInfo:
    def test_ten_strand_word(self, capsys):
        payload = run_json(capsys, "word", "info", "LRLRRRLRRR")
        assert payload["new_positions"] == [1, 6, 3, 10, 8, 5, 2, 9, 7, 4]
        assert payload["over_strands"] == 3
        assert payload["under_strands"] == 7
        assert payload["trip"] == [[5, 1], [7, 2]]
        assert payload["genus"] == 5
        assert payload["braid_index"] == 3

    def test_table_format(self, capsys):
        code, out, _ = run(capsys, "word", "info", "LR", "--format", "table")
        assert code == 0
        assert "braid_index" in out

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "word", "info", "LR", "--format", "csv")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.startswith("word,length,")
        assert row.startswith("LR,2,")

    def test_agrees_with_the_atlas_record_on_every_shared_key(self, capsys):
        for line in cli.build_atlas(10):
            atlas_record = json.loads(line)
            payload = run_json(capsys, "word", "info", atlas_record["word"])
            shared = payload.keys() & atlas_record.keys()
            assert shared == atlas_record.keys() - {"jones"}
            assert {k: payload[k] for k in shared} == {k: atlas_record[k] for k in shared}

    def test_validation_exit_code(self, capsys):
        code, _, err = run(capsys, "word", "info", "LRLR")
        assert code == 2
        assert "error" in err


class TestConvert:
    def test_word_to_braid(self, capsys):
        payload = run_json(capsys, "convert", "LRLRL", "--to", "braid")
        assert payload["targets"] == [3, 4, 5, 1, 2]

    def test_word_to_tlink(self, capsys):
        payload = run_json(capsys, "convert", "LRLRL", "--to", "tlink")
        assert payload["pairs"] == [[2, 3]]
        payload = run_json(capsys, "convert", "LLLRLLRR", "--to", "tlink")
        assert payload["pairs"] == [[1, 1], [2, 2], [3, 2]]

    def test_params_to_word(self, capsys):
        payload = run_json(capsys, "convert", "[[2,3]]", "--to", "word")
        assert payload["words"] == ["LLRLR"]
        payload = run_json(capsys, "convert", "[[1,1],[2,2],[3,2]]", "--to", "word")
        assert payload["words"] == ["LLLRLLRR"]

    def test_params_to_parallel_words(self, capsys):
        payload = run_json(capsys, "convert", "[[2,4]]", "--to", "word")
        assert payload["words"] == ["LLR", "LLR"]
        # three components, numbered by least strand: component k, walked
        # along the targets from its least strand, spells word k
        assert run(capsys, "convert", "[[2,2],[3,3]]", "--to", "word") == (
            0, '{"words":["LLR","LLR","LR"]}\n', ""
        )
        assert run(capsys, "convert", "[[2,2],[3,3]]", "--to", "braid") == (
            0,
            '{"n":8,"targets":[3,4,6,7,8,1,2,5],"components":[0,1,0,1,2,0,1,2],'
            '"types":["LL","LL","LR","LR","LR","RL","RL","RL"],"trip":[[2,2],[3,3]]}\n',
            "",
        )

    def test_bad_params_exit_code(self, capsys):
        code, _, _ = run(capsys, "convert", "[[3,1],[2,2]]", "--to", "word")
        assert code == 2

    @needs_digit_limit
    def test_integer_beyond_the_digit_limit(self, capsys):
        code, out, err = run(
            capsys, "convert", f"[[2,{BEYOND_DIGIT_LIMIT}]]", "--to", "word"
        )
        assert code == 2
        assert out == ""
        assert "parameter list" in err

    @pytest.mark.parametrize(
        "value, shown",
        [
            ('[["a",1]]', "['a', 1]"),
            ("[[null,1]]", "[None, 1]"),
            ("[[2,1e400]]", "[2, inf]"),
            ("[[true,3]]", "[True, 3]"),
            ("[[2.9,3]]", "[2.9, 3]"),
        ],
    )
    def test_params_must_be_integers(self, capsys, value, shown):
        code, out, err = run(capsys, "convert", value, "--to", "word")
        assert code == 2
        assert out == ""
        assert f"block {shown} must be a pair of integers" in err

    def test_strand_cap_exit_code(self, capsys):
        code, out, err = run(capsys, "convert", "[[2,100000000]]", "--to", "word")
        assert code == 3
        assert out == ""
        assert "need 100000002 strands, over the cap of 100000" in err

    def test_strand_count_beyond_the_digit_limit_is_named_by_size(self, capsys):
        # two q of 4,300 digits each parse, but their sum has 4,301 digits
        q = "9" * 4300
        code, out, err = run(capsys, "convert", f"[[2,{q}],[3,{q}]]", "--to", "word")
        assert code == 3
        assert out == ""
        assert "need at least 2^14285 strands" in err


class TestLongWord:
    # 20,000 letters: 8 * 10^8 letters of full-length rotation keys, which a
    # key sort would hold at once; ranking by prefix doubling holds N * SEED
    WORD = "L" + "".join(random.Random(20_000).choices("LR", k=19_998)) + "R"

    @pytest.mark.parametrize(
        "argv",
        [("word", "info", WORD), ("convert", WORD, "--to", "braid")],
        ids=["word-info", "convert-braid"],
    )
    def test_long_word_succeeds(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["n"] == 20_000
        assert sorted(payload["targets"]) == list(range(1, 20_001))

    def test_jones_refuses_before_any_crossing_is_built(self, capsys, monkeypatch):
        crossings = braid_of_words(validate_link([self.WORD])).crossings

        def refuse(braid):
            raise AssertionError("crossings were built")

        monkeypatch.setattr(braid_mod, "braid_generators", refuse)
        code, out, err = run(capsys, "jones", self.WORD)
        assert (code, out) == (3, "")
        assert err == f"error: {crossings} crossings exceeds the limit of 20\n"

    def test_jones_of_lorenz_braid_refuses_before_any_crossing_is_built(self, monkeypatch):
        braid = braid_of_words(validate_link([self.WORD]))

        def refuse(braid):
            raise AssertionError("crossings were built")

        monkeypatch.setattr(braid_mod, "braid_generators", refuse)
        with pytest.raises(ResourceCapError) as caught:
            jones_mod.jones_of_lorenz_braid(braid)
        assert str(caught.value) == f"{braid.crossings} crossings exceeds the limit of 20"

    def test_word_info_at_the_letter_cap_has_bounded_memory(self, capsys):
        # one R among L's: its rotations share the longest prefixes, so the
        # ranks take the most doubling rounds
        word = "L" * (MAX_LETTERS - 1) + "R"
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "word", "info", word)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, err) == (0, "")
        assert json.loads(out)["n"] == MAX_LETTERS
        assert peak < 64 * 2**20


class TestCanonicalizeOnce:
    """A plain string carries no proof that it is canonical, so a command
    rotates a typed word once, and only where its output is read off the
    canonical spelling.  `word info` and `convert` build the braid from the
    typed rotation, and a word read off a braid, from its cycle's least
    strand, is canonical already, as are the census words; none of them is
    rotated.  `modular decode` spells its run period once and takes one
    least rotation of it."""

    @pytest.mark.parametrize(
        "argv, calls",
        [
            (["word", "info", "RLL"], 0),
            (["convert", "LRL", "--to", "braid"], 0),
            (["convert", "LRL", "--to", "word"], 0),
            (["convert", "RLL", "--to", "word"], 0),
            (["convert", "[[2,3]]", "--to", "word"], 0),
            (["jones", "LRLRL"], 1),
            (["jones", "LR,LLR"], 2),
            (["modular", "encode", "RLL"], 1),
            (["modular", "decode", "[[2,1],[1,1]]"], 1),
            (["modular", "rademacher", "RLL"], 1),
            (["atlas", "build", "--max-len", "6", "--out", os.devnull], 0),
        ],
        ids=lambda value: " ".join(value) if isinstance(value, list) else str(value),
    )
    def test_least_rotation_calls(self, capsys, monkeypatch, argv, calls):
        counted = []
        least_rotation = words_mod.least_rotation

        def counting(letters):
            counted.append(letters)
            return least_rotation(letters)

        monkeypatch.setattr(words_mod, "least_rotation", counting)
        monkeypatch.setattr(mod_mod, "least_rotation", counting)
        code, _, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert len(counted) == calls, counted

    def test_convert_prints_the_canonical_spelling_of_a_typed_rotation(self, capsys):
        assert run_json(capsys, "convert", "RLL", "--to", "word") == {"words": ["LLR"]}
        assert run_json(capsys, "convert", "LRL", "--to", "word") == {"words": ["LLR"]}
        assert run_json(capsys, "word", "info", "RLL")["word"] == "LLR"
        # a word of SEED letters takes the one sort of its rotations
        typed = fixed_word(braid_mod.SEED)
        least = least_rotation_oracle(typed)
        assert typed != least
        assert run_json(capsys, "convert", typed, "--to", "word") == {"words": [least]}
        assert run_json(capsys, "word", "info", typed)["word"] == least


def test_convert_builds_the_braid_of_the_typed_spelling():
    """`convert <word>` hands the typed text straight to braid_of_words: on
    every string of at most 7 characters over {L, R, X, space} it gives the
    braid, or the exception type and message, of the canonicalized word."""

    def outcome(build):
        try:
            return build()
        except (ValidationError, ResourceCapError) as exc:
            return type(exc), str(exc)

    for length in range(8):
        for letters in itertools.product("LRX ", repeat=length):
            text = "".join(letters)
            typed = outcome(lambda: braid_of_words([text]))
            assert typed == outcome(lambda: braid_of_words(validate_link([text]))), text


class TestReciprocityOnce:
    """modular rademacher prints Phi and Psi from one walk of the Dedekind
    reciprocity, not one walk each."""

    @pytest.mark.parametrize("word", ["LLR", "LRLRRLR"])
    def test_dedekind_twelfths_calls(self, capsys, monkeypatch, word):
        counted = []
        core = mod_mod._dedekind_twelfths

        def counting(h, k):
            counted.append((h, k))
            return core(h, k)

        monkeypatch.setattr(mod_mod, "_dedekind_twelfths", counting)
        payload = run_json(capsys, "modular", "rademacher", word)
        assert payload["psi"] == payload["rademacher"] == word.count("L") - word.count("R")
        assert len(counted) == 1, counted


class TestJones:
    def test_torus_pair(self, capsys):
        payload = run_json(capsys, "jones", "2,3")
        assert payload["pairs"] == [[4, 1], [12, 1], [16, -1]]
        assert payload["jones"] == "t + t^3 - t^4"

    def test_word(self, capsys):
        payload = run_json(capsys, "jones", "LRLRL")
        assert payload["pairs"] == [[4, 1], [12, 1], [16, -1]]
        # the kernel closes the braid from the rotation it scores cheapest;
        # a rotation of a word and its involute are the same knot
        spellings = ("LRLRRLRRR", "RRLRRRLRL", "LLLRLRLLR")
        pairs = [run_json(capsys, "jones", spelling)["pairs"] for spelling in spellings]
        assert pairs[0] == pairs[1] == pairs[2]

    def test_link_words(self, capsys):
        payload = run_json(capsys, "jones", "L,LR")
        assert payload["source"] == "L,LR"
        # L and R are strands no crossing touches: the mu-component unlink
        # has V = (-t^(-1/2) - t^(1/2))^(mu - 1)
        for target in ("L,R", "L,LR", "R,LR"):
            assert run_json(capsys, "jones", target)["pairs"] == [[-2, -1], [2, -1]], target
        assert run_json(capsys, "jones", "L,R,LR")["pairs"] == [[-4, 1], [0, 2], [4, 1]]

    def test_crossing_cap_exit_code(self, capsys):
        code, _, _ = run(capsys, "jones", "LRLRRRLRRR", "--jones-max-crossings", "10")
        assert code == 3

    @pytest.mark.parametrize("target", ["LR", "LRLRL", "2,3"])
    @pytest.mark.parametrize("cap", [-1, -5])
    def test_negative_crossing_cap_is_refused(self, capsys, target, cap):
        code, out, err = run(capsys, "jones", target, "--jones-max-crossings", str(cap))
        assert (code, out) == (2, "")
        assert err == f"error: --jones-max-crossings must be >= 0, got {cap}\n"

    def test_zero_crossing_cap_is_a_cap(self, capsys):
        code, out, err = run(capsys, "jones", "LR", "--jones-max-crossings", "0")
        assert (code, out, err) == (3, "", "error: 1 crossings exceeds the limit of 0\n")
        assert run_json(capsys, "jones", "2,3", "--jones-max-crossings", "0")["pairs"] == [
            [4, 1], [12, 1], [16, -1]
        ]

    def test_torus_pair_over_the_strand_cap(self, capsys):
        code, out, err = run(capsys, "jones", f"{10**30},{10**30 + 1}")
        assert code == 3
        assert out == ""
        assert err == (
            f"error: torus knot ({10**30}, {10**30 + 1}) needs p + q strands,"
            " over the cap of 100000\n"
        )

    @needs_digit_limit
    def test_torus_integer_beyond_the_digit_limit(self, capsys):
        code, out, err = run(capsys, "jones", f"2,{BEYOND_DIGIT_LIMIT}")
        assert code == 2
        assert out == ""
        assert "torus pair" in err


HUGE = 10**30


class TestModular:
    def test_encode(self, capsys):
        payload = run_json(capsys, "modular", "encode", "LR")
        assert payload["matrix"] == [[2, 1], [1, 1]]

    def test_decode(self, capsys):
        payload = run_json(capsys, "modular", "decode", "[[3,2],[1,1]]")
        assert payload["word"] == "LLR"
        # trace-positive with c = -8: the first surd floor divides by a
        # negative Q; a conjugate of LLRLR's matrix
        assert run_json(capsys, "modular", "decode", "[[13,5],[-8,-3]]") == {"word": "LLRLR"}
        # encode then decode gives the least rotation: (LR)^999 RR has 999
        # tied longest L runs, and the 2,000-letter word's entries run to
        # hundreds of digits
        for typed in ("LR" * 999 + "RR", fixed_word(2000)):
            matrix = run_json(capsys, "modular", "encode", typed)["matrix"]
            decoded = run_json(capsys, "modular", "decode", json.dumps(matrix))["word"]
            assert decoded == least_rotation_oracle(typed)

    def test_rademacher(self, capsys):
        payload = run_json(capsys, "modular", "rademacher", "LLR")
        assert payload["rademacher"] == payload["psi"] == 1
        typed = fixed_word(2000)
        payload = run_json(capsys, "modular", "rademacher", typed)
        assert payload["rademacher"] == payload["psi"] == typed.count("L") - typed.count("R")

    def test_rademacher_record_is_the_printed_row(self, capsys):
        words = [word for word in lyndon_words(12) if len(word) >= 2]
        rotated = random.Random(12).sample(words, 20)
        spellings = words + [word[k:] + word[:k] for word in rotated for k in range(1, len(word))]
        for spelling in spellings:
            row = json.dumps(mod_mod.rademacher_record(spelling), separators=(",", ":"))
            assert run(capsys, "modular", "rademacher", spelling) == (0, row + "\n", ""), spelling

    def test_rademacher_checks_the_word_once(self, capsys, monkeypatch):
        counted = []
        smallest_period = words_mod.smallest_period

        def counting(letters):
            counted.append(letters)
            return smallest_period(letters)

        monkeypatch.setattr(words_mod, "smallest_period", counting)
        assert run_json(capsys, "modular", "rademacher", "RLLRLRR")["word"] == "LLRLRRR"
        assert counted == ["RLLRLRR"]

    @pytest.mark.parametrize("spelling", ["L", "R", "LL", "LRLR", "RLRLRL"])
    def test_rademacher_record_refuses_as_the_cli_does(self, capsys, spelling):
        with pytest.raises(ValidationError) as caught:
            mod_mod.rademacher_record(spelling)
        assert type(caught.value) is ValidationError
        assert run(capsys, "modular", "rademacher", spelling) == (2, "", f"error: {caught.value}\n")

    def test_decode_not_hyperbolic(self, capsys):
        code, _, _ = run(capsys, "modular", "decode", "[[1,1],[0,1]]")
        assert code == 2

    @pytest.mark.parametrize("rows", ["[[1,5],[0,1]]", "[[-1,3],[0,-1]]"])
    def test_decode_lower_left_zero_is_refused_by_its_trace(self, capsys, rows):
        # det 1 with c = 0 forces a = d = +-1, so |trace| = 2
        assert run(capsys, "modular", "decode", rows) == (
            2, "", "error: trace 2 <= 2 carries no closed geodesic\n"
        )

    @pytest.mark.parametrize(
        "value, shown",
        [
            ("[[2.9,1],[1,1]]", "[[2.9, 1], [1, 1]]"),
            ('[["2",1],[1,1]]', "[['2', 1], [1, 1]]"),
            ("[[true,1],[1,1]]", "[[True, 1], [1, 1]]"),
            ("[[1,2],[3]]", "[[1, 2], [3]]"),
            ("[[2,1],[1,1],[0,0]]", "[[2, 1], [1, 1], [0, 0]]"),
            ("5", "5"),
        ],
    )
    def test_decode_rejects_anything_but_2x2_integers(self, capsys, value, shown):
        code, out, err = run(capsys, "modular", "decode", value)
        assert code == 2
        assert out == ""
        assert shown in err

    def test_decode_huge_run_exits_3_before_any_run(self, capsys, monkeypatch):
        def refuse(period):
            raise AssertionError("runs were built")

        monkeypatch.setattr(mod_mod, "_spell_runs", refuse)
        # the class of L^N R
        code, out, err = run(capsys, "modular", "decode", f"[[{HUGE + 1},{HUGE}],[1,1]]")
        assert code == 3
        assert out == ""
        assert err == (
            "error: the decoded word has at least 2^99 letters, over the cap of 100000\n"
        )

    def test_word_over_the_letter_cap_exits_3(self, capsys):
        code, out, err = run(capsys, "modular", "encode", "L" * MAX_LETTERS + "R")
        assert code == 3
        assert out == ""
        assert err == (
            f"error: a word of {MAX_LETTERS + 1} letters is over the cap of {MAX_LETTERS}\n"
        )

    def test_decode_integer_beyond_the_json_digit_limit(self, capsys):
        # Python 3.11 refuses to parse ints of more than 4,300 digits with a
        # plain ValueError; older interpreters parse it and fail the
        # determinant check instead.
        code, out, _ = run(capsys, "modular", "decode", "[[" + "9" * 5000 + ",1],[1,1]]")
        assert code == 2
        assert out == ""


class TestFlow:
    def test_itinerary_smoke(self, capsys, tmp_path):
        csv_path = tmp_path / "traj.csv"
        code, out, err = run(
            capsys,
            "flow", "itinerary",
            "--seed-state", "10,10,27",
            "--steps", "4000",
            "--skip-transient", "0",
            "--csv", str(csv_path),
        )
        assert code == 0, err
        assert set(out.strip()) <= {"L", "R"}
        assert csv_path.read_text().startswith("t,x,y,z")

    def test_default_itinerary_bytes(self, capsys):
        # sha256 of the output from before the integrator kept plain-float
        # columns; --dt defaults to flow.DT = 0.001, so naming it changes nothing
        for dt in ([], ["--dt", "0.001"]):
            code, out, _ = run(capsys, "flow", "itinerary", *dt)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == (
                "56f71a9dce46c90970cfc549eae0c4c8f3a7abf680905d9dd7fcaca7a3648824"
            ), dt

    def test_negative_x_start_in_the_equals_form(self, capsys):
        # argparse reads "-1,-1,20" after a space as an option, so a start
        # with x < 0 is typed as one argument
        argv = ["flow", "itinerary", "--seed-state=-1,-1,20", "--steps", "20000"]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.endswith("\n") and set(out.strip()) == {"L", "R"}

    def test_csv_bytes(self, capsys, tmp_path):
        csv_path = tmp_path / "traj.csv"
        code, out, _ = run(
            capsys, "flow", "itinerary", "--steps", "5000", "--skip-transient", "0",
            "--csv", str(csv_path),
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "e9564c24c59ff3b0370f7d9432edf500b8da5b6c0d90aa2fa1a829be2a8bb86d"
        )
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == (
            "8aaa9c95e8541245bbac9a3cfde319c369e396c31c2935fcd7e4c426213e2cc8"
        )

    def test_csv_run_prints_the_same_symbols(self, capsys, tmp_path):
        # the plain run reads section events off the RK4 loop, the --csv run
        # reads the written samples with the generic reader
        rng = random.Random(44)
        cases = [[]]
        for _ in range(6):
            start = ",".join(f"{rng.uniform(-20.0, 20.0):.4f}" for _ in range(3))
            dt = rng.choice(["0.001", "0.002", "0.005", "0.01"])
            cases.append([
                f"--seed-state={start}", "--dt", dt, "--steps", str(round(15 / float(dt))),
                "--skip-transient", rng.choice(["0", "2.5", "10"]),
            ])
        for i, argv in enumerate(cases):
            plain = run(capsys, "flow", "itinerary", *argv)
            assert plain[0] == 0, argv
            csv_path = tmp_path / f"traj{i}.csv"
            assert run(capsys, "flow", "itinerary", *argv, "--csv", str(csv_path)) == plain, argv
            assert csv_path.exists()

    def test_step_cap_exit_code(self, capsys, tmp_path):
        csv_path = tmp_path / "traj.csv"
        code, out, err = run(
            capsys, "flow", "itinerary", "--steps", "1000000000000", "--csv", str(csv_path)
        )
        assert code == 3
        assert out == ""
        assert err == "error: 1000000000000 steps exceed the cap of 2000000\n"
        assert list(tmp_path.iterdir()) == []

    def test_failed_csv_write_keeps_an_existing_file(self, capsys, tmp_path, monkeypatch):
        def write_then_fail(samples, handle):
            handle.write("t,x,y,z\r\n")
            raise OSError("disk full")

        monkeypatch.setattr(cli, "_csv_rows", write_then_fail)
        csv_path = tmp_path / "traj.csv"
        csv_path.write_bytes(b"previous contents\n")
        code, out, err = run(
            capsys, "flow", "itinerary", "--steps", "1000", "--skip-transient", "0",
            "--csv", str(csv_path),
        )
        assert (code, out, err) == (4, "", "error: disk full\n")
        assert list(tmp_path.iterdir()) == [csv_path]
        assert csv_path.read_bytes() == b"previous contents\n"

    @pytest.mark.parametrize("previous", [None, b"previous contents\n"])
    def test_divergence_during_the_csv_write_leaves_the_csv_as_it_was(
        self, capsys, tmp_path, previous
    ):
        # rows 0 and 1 are written to the temporary file before step 2 diverges
        csv_path = tmp_path / "traj.csv"
        if previous is not None:
            csv_path.write_bytes(previous)
        code, out, err = run(
            capsys, "flow", "itinerary", "--dt", "0.01", "--seed-state", "1000,1000,1000",
            "--csv", str(csv_path),
        )
        assert (code, out, err) == (2, "", "error: trajectory diverged at step 2\n")
        assert [path.read_bytes() for path in tmp_path.iterdir()] == (
            [] if previous is None else [previous]
        )

    @pytest.mark.parametrize("csv", [False, True])
    def test_itinerary_has_bounded_memory(self, capsys, tmp_path, csv):
        # samples are read as they are computed, so nothing grows with --steps;
        # buffering these 20,000 samples, with or without --csv, peaks at
        # about 3.4 MB under tracemalloc
        argv = ["flow", "itinerary", "--steps", "20000"]
        if csv:
            argv += ["--csv", str(tmp_path / "traj.csv")]
        tracemalloc.start()
        try:
            code, out, err = run(capsys, *argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, err) == (0, "")
        assert set(out.strip()) <= {"L", "R"}
        assert peak < 2**20

    @pytest.mark.parametrize("previous", [None, b"previous contents\n"])
    def test_no_section_events_leaves_the_csv_as_it_was(self, capsys, tmp_path, previous):
        csv_path = tmp_path / "traj.csv"
        if previous is not None:
            csv_path.write_bytes(previous)
        code, out, err = run(
            capsys, "flow", "itinerary", "--steps", "3", "--skip-transient", "0",
            "--csv", str(csv_path),
        )
        assert (code, out, err) == (2, "", "error: no section events after the transient\n")
        assert [path.read_bytes() for path in tmp_path.iterdir()] == (
            [] if previous is None else [previous]
        )

    def test_io_error_exit_code(self, capsys, tmp_path):
        # the message names the path given, not the hidden temporary file
        path = str(tmp_path / "missing" / "t.csv")
        code, out, err = run(capsys, "flow", "itinerary", "--steps", "100", "--csv", path)
        assert (code, out) == (4, "")
        assert err == f"error: [Errno 2] No such file or directory: {path!r}\n"
        assert list(tmp_path.iterdir()) == []

    def test_csv_ending_in_a_separator_names_no_file(self, capsys, tmp_path):
        path = str(tmp_path / "x") + os.sep
        code, out, err = run(capsys, "flow", "itinerary", "--steps", "100", "--csv", path)
        assert (code, out) == (4, "")
        assert err == f"error: [Errno 21] Is a directory: {path!r}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("seed_state", ["a,b,c", "1,2", "1,2,3,4"])
    def test_bad_seed_state_exit_code(self, capsys, seed_state):
        code, out, err = run(capsys, "flow", "itinerary", "--seed-state", seed_state)
        assert code == 2
        assert out == ""
        assert f"seed state must be x,y,z: {seed_state!r}" in err


def query_with_a_bad_line(capsys, tmp_path, number, edit) -> str:
    """Query the atlas of the words up to length 4 after ``edit`` rewrites
    its line ``number``, check that the query exits 2 with the rows before
    that line on stdout and on stderr what json.loads and then verify_record
    raise on the line, and return that message."""
    lines = list(cli.build_atlas(4))
    lines[number - 1] = bad = edit(lines[number - 1])
    path = tmp_path / "atlas.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    try:
        cli.verify_record(json.loads(bad))
    except (ValueError, TypeError) as exc:
        message = str(exc)
    else:
        pytest.fail(f"line {number} loads: {bad!r}")
    before = "".join(line + "\n" for line in lines[: number - 1])
    assert run(capsys, "atlas", "query", str(path)) == (
        2, before, f"error: atlas line {number}: {message}\n"
    )
    return message


class TestAtlas:
    def test_build_counts(self, capsys, tmp_path):
        out_path = tmp_path / "atlas.jsonl"
        code, _, _ = run(capsys, "atlas", "build", "--max-len", "5", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 14
        by_length = {}
        for line in lines:
            record = json.loads(line)
            by_length[record["length"]] = by_length.get(record["length"], 0) + 1
        assert by_length == {1: 2, 2: 1, 3: 2, 4: 3, 5: 6}

    def test_max_len_one(self, capsys, tmp_path):
        out_path = tmp_path / "tiny.jsonl"
        run(capsys, "atlas", "build", "--max-len", "1", "--out", str(out_path))
        records = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert [r["word"] for r in records] == ["L", "R"]
        assert all(r["genus"] == 0 and r["c_min"] == 0 for r in records)

    def test_rebuild_is_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run(capsys, "atlas", "build", "--max-len", "7", "--jones-max-crossings", "8",
            "--out", str(a))
        run(capsys, "atlas", "build", "--max-len", "7", "--jones-max-crossings", "8",
            "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_cap_exit_code(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "atlas", "build", "--max-len", "19", "--out", str(tmp_path / "x")
        )
        assert (code, out, err) == (3, "", "error: max_len 19 exceeds the cap of 18\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("cap", [-1, -20])
    @pytest.mark.parametrize("previous", [None, b"previous contents\n"])
    def test_negative_jones_cap_leaves_the_atlas_as_it_was(self, capsys, tmp_path, cap, previous):
        out_path = tmp_path / "atlas.jsonl"
        if previous is not None:
            out_path.write_bytes(previous)
        code, out, err = run(
            capsys, "atlas", "build", "--max-len", "3", "--jones-max-crossings", str(cap),
            "--out", str(out_path),
        )
        assert (code, out) == (2, "")
        assert err == f"error: --jones-max-crossings must be >= 0, got {cap}\n"
        assert [path.read_bytes() for path in tmp_path.iterdir()] == (
            [] if previous is None else [previous]
        )

    def test_io_error_exit_code(self, capsys, tmp_path):
        # the message names the path given, not the hidden temporary file
        path = str(tmp_path / "missing" / "x.jsonl")
        code, out, err = run(capsys, "atlas", "build", "--max-len", "3", "--out", path)
        assert (code, out) == (4, "")
        assert err == f"error: [Errno 2] No such file or directory: {path!r}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("existing", [None, "dir", "file"])
    def test_out_ending_in_a_separator_names_no_file(self, capsys, tmp_path, existing):
        # realpath drops the separator: the atlas must not become a file "sub"
        sub = tmp_path / "sub"
        if existing == "dir":
            sub.mkdir()
        elif existing == "file":
            sub.write_bytes(b"previous contents\n")
        before = {path: path.is_dir() or path.read_bytes() for path in tmp_path.iterdir()}
        path = str(sub) + os.sep
        code, out, err = run(capsys, "atlas", "build", "--max-len", "3", "--out", path)
        assert (code, out) == (4, "")
        assert err == f"error: [Errno 21] Is a directory: {path!r}\n"
        after = {path: path.is_dir() or path.read_bytes() for path in tmp_path.iterdir()}
        assert after == before and (existing != "dir" or list(sub.iterdir()) == [])

    @pytest.mark.parametrize("option", [["atlas", "build", "--max-len", "3", "--out"],
                                        ["flow", "itinerary", "--steps", "100", "--csv"]])
    def test_empty_path_is_refused_in_place(self, capsys, tmp_path, monkeypatch, option):
        # an empty path resolves to the working directory: its temporary
        # file would go to the parent, which a refusal must leave untouched
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        code, out, err = run(capsys, *option, "")
        assert (code, out) == (4, "")
        assert err == "error: [Errno 2] No such file or directory: ''\n"
        assert list(tmp_path.iterdir()) == [work] and list(work.iterdir()) == []

    def test_query_filters(self, capsys, tmp_path):
        out_path = tmp_path / "atlas.jsonl"
        run(capsys, "atlas", "build", "--max-len", "10", "--out", str(out_path))
        code, out, _ = run(
            capsys, "atlas", "query", str(out_path),
            "--where", "torus=null", "--where", "length<=10",
        )
        assert code == 0
        words = [json.loads(line)["word"] for line in out.strip().splitlines()]
        assert "LRLRRRLRRR" in words

    def test_min_crossing_filter_finds_unknots_and_trefoils_only(self, capsys, tmp_path):
        # among words of length <= 8 the only closures with c_min <= 3 are the
        # unknot spellings and one knot class of crossing number 3
        out_path = tmp_path / "atlas.jsonl"
        run(capsys, "atlas", "build", "--max-len", "8", "--out", str(out_path))
        code, out, _ = run(
            capsys, "atlas", "query", str(out_path), "--where", "c_min<=3"
        )
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert records
        signatures = {(r["c_min"], r["genus"], r["braid_index"]) for r in records}
        assert signatures == {(0, 0, 1), (3, 1, 2)}
        from lorenzlinks.braid import braid_generators, braid_of_words
        from lorenzlinks.jones import jones_of_braid, jones_torus
        from lorenzlinks.words import validate_link

        trefoil = jones_torus(2, 3)
        for record in records:
            if record["c_min"] != 3:
                continue
            braid = braid_of_words(validate_link([record["word"]]))
            assert jones_of_braid(braid_generators(braid), braid.n) == trefoil

    def test_query_torus_value(self, capsys, tmp_path):
        out_path = tmp_path / "atlas.jsonl"
        run(capsys, "atlas", "build", "--max-len", "5", "--out", str(out_path))
        code, out, _ = run(
            capsys, "atlas", "query", str(out_path), "--where", "torus=2,3"
        )
        words = {json.loads(line)["word"] for line in out.strip().splitlines()}
        assert words == {"LLRLR"}

    def test_empty_filter_streams_everything(self, capsys, tmp_path):
        out_path = tmp_path / "atlas.jsonl"
        run(capsys, "atlas", "build", "--max-len", "5", "--out", str(out_path))
        code, out, _ = run(capsys, "atlas", "query", str(out_path))
        assert len(out.strip().splitlines()) == 14

    def test_strict_orderings_and_null(self, capsys, tmp_path):
        out_path = tmp_path / "atlas.jsonl"
        run(capsys, "atlas", "build", "--max-len", "6", "--out", str(out_path))
        records = [json.loads(line) for line in out_path.read_text().splitlines()]

        def query(*where):
            argv = ["atlas", "query", str(out_path)]
            for expression in where:
                argv += ["--where", expression]
            code, out, err = run(capsys, *argv)
            assert code == 0 and err == ""
            return [json.loads(line)["word"] for line in out.splitlines()]

        assert query("c<3") == [r["word"] for r in records if r["c"] < 3]
        assert query("c>3", "length<6") == [
            r["word"] for r in records if r["c"] > 3 and r["length"] < 6
        ]
        # a knot not found to be torus has torus null: ordering it matches nothing
        tori = [r["word"] for r in records if r["torus"] is not None]
        assert 0 < len(tori) < len(records)
        assert query("torus>=1,1") == tori
        assert query("torus<null") == []
        assert query("torus>2,3") == [
            r["word"] for r in records if r["torus"] is not None and r["torus"] > [2, 3]
        ]

    def test_unorderable_filter_exit_code(self, capsys, tmp_path):
        out_path = tmp_path / "atlas.jsonl"
        run(capsys, "atlas", "build", "--max-len", "3", "--out", str(out_path))
        code, out, err = run(capsys, "atlas", "query", str(out_path), "--where", "word<3")
        assert code == 2
        assert out == ""
        assert err == "error: cannot order 'word' against 3\n"

    def test_bad_filter_exit_code(self, capsys, tmp_path):
        out_path = tmp_path / "atlas.jsonl"
        run(capsys, "atlas", "build", "--max-len", "3", "--out", str(out_path))
        code, _, _ = run(capsys, "atlas", "query", str(out_path), "--where", "nonsense")
        assert code == 2
        code, _, _ = run(
            capsys, "atlas", "query", str(out_path), "--where", "no_field=3"
        )
        assert code == 2

    @pytest.mark.parametrize("where", ["genus==1", "genus=>1", "c_min=<3", "genus=!1"])
    def test_doubled_operator_is_refused(self, capsys, tmp_path, where):
        # split at the first "=", each would compare against a string such
        # as "=1" and match no record
        out_path = tmp_path / "atlas.jsonl"
        run(capsys, "atlas", "build", "--max-len", "6", "--out", str(out_path))
        code, out, err = run(capsys, "atlas", "query", str(out_path), "--where", where)
        assert (code, out, err) == (2, "", f"error: cannot parse filter {where!r}\n")

    def test_torus_field_audit_at_length_twelve(self, capsys, tmp_path):
        out_path = tmp_path / "atlas.jsonl"
        run(capsys, "atlas", "build", "--max-len", "12", "--out", str(out_path))
        code, out, _ = run(
            capsys, "atlas", "query", str(out_path), "--where", "torus!=null"
        )
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert records
        for record in records:  # query already re-verified every record on load
            p, q = record["torus"]
            assert record["genus"] == (p - 1) * (q - 1) // 2

    def test_corrupt_record_rejected_on_load(self, capsys, tmp_path):
        out_path = tmp_path / "atlas.jsonl"
        run(capsys, "atlas", "build", "--max-len", "3", "--out", str(out_path))
        lines = out_path.read_text().splitlines()
        record = json.loads(lines[0])
        record["genus"] = 7
        lines[0] = json.dumps(record, separators=(",", ":"))
        out_path.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, "atlas", "query", str(out_path))
        assert code == 2
        assert "corrupt" in err

    def test_record_edited_into_a_link_rejected_on_load(self, capsys, tmp_path):
        # an atlas record names one word, so a component count other than 1
        # is corrupt, and no knot relation is skipped for it
        out_path = tmp_path / "atlas.jsonl"
        run(capsys, "atlas", "build", "--max-len", "5", "--out", str(out_path))
        lines = out_path.read_text().splitlines()
        record = json.loads(lines[10])
        assert record["word"] == "LLRLR"
        record.update({"components": 2, "genus": 99, "c_min": -5, "torus": [7, 7]})
        lines[10] = json.dumps(record, separators=(",", ":"))
        out_path.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "atlas", "query", str(out_path))
        assert code == 2
        assert err == "error: atlas line 11: corrupt atlas record LLRLR: components != 1\n"

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"length": 77}, "length, |word| and n differ"),
            ({"trip": [[9, 9]]}, "sum p * q over trip != c"),
            # LLRLR has chi -1, ears (LL, LR, RL, RR) = (1, 2, 2, 0), c_min 3
            # and torus [2, 3]: each edit below breaks one relation only
            ({"chi": 0}, "chi != n - c"),
            ({"LL": 2}, "ear counts != n"),
            ({"LR": 3, "RL": 1}, "|LR| != |RL|"),
            ({"c_min": 4}, "c_min relation"),
            ({"torus": [2, 5]}, "torus genus"),
        ],
    )
    def test_length_and_trip_rechecked_on_load(self, capsys, tmp_path, edit, message):
        out_path = tmp_path / "atlas.jsonl"
        run(capsys, "atlas", "build", "--max-len", "5", "--out", str(out_path))
        lines = out_path.read_text().splitlines()
        record = json.loads(lines[10])
        assert (record["word"], record["length"], record["trip"]) == ("LLRLR", 5, [[2, 3]])
        record.update(edit)
        lines[10] = json.dumps(record, separators=(",", ":"))
        out_path.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "atlas", "query", str(out_path))
        assert code == 2
        assert err == f"error: atlas line 11: corrupt atlas record LLRLR: {message}\n"

    def test_truncated_line_names_its_number(self, capsys, tmp_path):
        message = query_with_a_bad_line(capsys, tmp_path, 3, lambda line: line[: len(line) // 2])
        assert message.startswith("Unterminated string starting at: line 1 column ")

    @pytest.mark.parametrize(
        "number, edit, start",
        [
            pytest.param(
                4, lambda line: line + line, "Extra data: line 1 column ", id="two-records"
            ),
            pytest.param(
                1, lambda line: "\ufeff" + line, "Unexpected UTF-8 BOM (decode using utf-8-sig)",
                id="bom",
            ),
            pytest.param(
                6, lambda line: "[1,2]", "list indices must be integers or slices, not str",
                id="list",
            ),
            pytest.param(
                6, lambda line: "null", "'NoneType' object is not subscriptable", id="null"
            ),
            pytest.param(2, lambda line: "3", "'int' object is not subscriptable", id="number"),
        ],
    )
    def test_a_line_that_is_not_one_record_is_refused(
        self, capsys, tmp_path, number, edit, start
    ):
        # the refusal names what json.loads, then verify_record, says of the line
        assert query_with_a_bad_line(capsys, tmp_path, number, edit).startswith(start)

    def test_line_missing_a_field_names_its_number(self, capsys, tmp_path):
        out_path = tmp_path / "atlas.jsonl"
        run(capsys, "atlas", "build", "--max-len", "3", "--out", str(out_path))
        lines = out_path.read_text().splitlines()
        record = json.loads(lines[1])
        del record["chi"]
        lines[1] = json.dumps(record, separators=(",", ":"))
        out_path.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, "atlas", "query", str(out_path))
        assert code == 2
        assert "atlas line 2: no field 'chi'" in err

    @needs_digit_limit
    def test_filter_integer_beyond_the_digit_limit(self, capsys, tmp_path):
        out_path = tmp_path / "atlas.jsonl"
        run(capsys, "atlas", "build", "--max-len", "3", "--out", str(out_path))
        code, out, err = run(
            capsys, "atlas", "query", str(out_path), "--where", f"genus={BEYOND_DIGIT_LIMIT}"
        )
        assert code == 2
        assert out == ""
        assert "filter 'genus=" in err

    def test_jones_span_wider_than_c_rejected_on_load(self, capsys, tmp_path):
        out_path = tmp_path / "atlas.jsonl"
        run(
            capsys, "atlas", "build", "--max-len", "5", "--jones-max-crossings", "8",
            "--out", str(out_path),
        )
        lines = out_path.read_text().splitlines()
        record = json.loads(lines[4])
        assert record["jones"] is not None
        low = record["jones"][0][0]
        record["jones"].append([low + 4 * record["c"] + 4, 1])  # span V = c + 1
        lines[4] = json.dumps(record, separators=(",", ":"))
        out_path.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "atlas", "query", str(out_path))
        assert code == 2
        assert "atlas line 5:" in err and "Jones span" in err

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"jones": [[4, 3], [12, 1], [16, -1]]}, "Jones V(1) != 1"),
            ({"components": 10**12}, "components != 1"),
            ({"jones": [[4, 1], [12, 1], [14, -1]]}, "Jones V(-1) is not odd"),
            ({"jones": [[4, 1], [12, 1], [16, -1], [20, 1], [24, -1]]}, "Jones span > c_min"),
            # the mirror image, V(1/t), passes every relation above
            ({"jones": [[-16, -1], [-12, 1], [-4, 1]]}, "Jones != Jones of T(2, 3)"),
            # (2 - 1)(4 - 1) // 2 is the trefoil's genus, but T(2, 4) is a link
            ({"torus": [2, 4]}, "Jones != Jones of T(2, 4)"),
        ],
    )
    def test_jones_relations_rechecked_on_load(self, capsys, tmp_path, edit, message):
        out_path = tmp_path / "atlas.jsonl"
        run(
            capsys, "atlas", "build", "--max-len", "5", "--jones-max-crossings", "8",
            "--out", str(out_path),
        )
        lines = out_path.read_text().splitlines()
        record = json.loads(lines[10])
        # the trefoil, V = t + t^3 - t^4: each edit breaks one relation and
        # keeps the others, span V <= c = 6 among them
        assert (record["word"], record["c"], record["c_min"]) == ("LLRLR", 6, 3)
        assert record["jones"] == [[4, 1], [12, 1], [16, -1]]
        record.update(edit)
        lines[10] = json.dumps(record, separators=(",", ":"))
        out_path.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, "atlas", "query", str(out_path))
        assert code == 2
        assert err == f"error: atlas line 11: corrupt atlas record LLRLR: {message}\n"

    @pytest.mark.parametrize("fmt", ["json", "table", "csv"])
    def test_query_of_a_file_that_is_not_utf8_exits_2(self, capsys, tmp_path, fmt):
        path = tmp_path / "utf16.jsonl"
        path.write_bytes(b"\xff\xfe" + '{"word":"L"}\n'.encode("utf-16-le"))
        code, out, err = run(capsys, "atlas", "query", str(path), "--format", fmt)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {str(path)!r} is not ")
        assert err.count("\n") == 1

    def test_query_csv_format(self, capsys, tmp_path):
        out_path = tmp_path / "atlas.jsonl"
        run(capsys, "atlas", "build", "--max-len", "3", "--out", str(out_path))
        code, out, _ = run(
            capsys, "atlas", "query", str(out_path), "--format", "csv",
            "--where", "length=3",
        )
        lines = out.strip().splitlines()
        assert lines[0].startswith("word,length,")
        assert len(lines) == 3  # header + LLR + LRR

    @pytest.mark.parametrize("fmt", ["json", "table", "csv"])
    def test_query_skips_blank_lines(self, capsys, tmp_path, fmt):
        clean, spaced = tmp_path / "clean.jsonl", tmp_path / "spaced.jsonl"
        lines = list(cli.build_atlas(5))
        clean.write_text("".join(line + "\n" for line in lines))
        gaps = ["\n", "  \n", "\t \n", "\n\n"]
        spaced.write_text(
            "\n" + "".join(line + "\n" + gaps[k % 4] for k, line in enumerate(lines)) + " "
        )
        expected = run(capsys, "atlas", "query", str(clean), "--format", fmt)
        assert expected[0] == 0 and expected[1].count("\n") >= len(lines)
        assert run(capsys, "atlas", "query", str(spaced), "--format", fmt) == expected


# One row per kind of refusal; the message is what tells them apart, and
# the exception's class alone decides the exit code.  "{atlas}" stands for a
# valid atlas of the words up to length 3, "{empty}" for an empty atlas and
# "{missing}" for a path with no file.  A dead-band section event and an
# inexact torus division cannot be reached from the command line.
REFUSALS = [
    pytest.param(["word", "info", ""], 2, "a cyclic word needs at least one letter", id="empty-word"),
    pytest.param(["word", "info", "LLLL"], 2, "'LLLL' is a proper power", id="periodic-word"),
    pytest.param(["jones", "LR,RL"], 2, "components 0 and 1 share the word 'LR'", id="duplicate"),
    pytest.param(
        ["convert", "[[3,1],[2,2]]", "--to", "word"], 2,
        "block widths p_i must strictly increase", id="params-order",
    ),
    pytest.param(
        ["convert", "[[0,1]]", "--to", "word"], 2, "block (0, 1) must be positive",
        id="params-positive",
    ),
    pytest.param(
        ["convert", '[["a",1]]', "--to", "word"], 2, "block ['a', 1] must be a pair of integers",
        id="params-integers",
    ),
    pytest.param(["jones", "2,4"], 2, "(2, 4) is a torus link, not a knot", id="not-coprime"),
    pytest.param(["modular", "encode", "L"], 2, "'L' uses one letter only", id="parabolic-encode"),
    pytest.param(
        ["modular", "rademacher", "R"], 2, "'R' uses one letter only", id="parabolic-rademacher"
    ),
    pytest.param(
        ["modular", "decode", "[[1,1],[0,1]]"], 2, "trace 2 <= 2 carries no closed geodesic",
        id="not-hyperbolic",
    ),
    pytest.param(
        ["modular", "decode", "[[5,3],[3,2]]"], 2,
        "trace 7 is a proper power of the class of 'LR'", id="not-primitive",
    ),
    pytest.param(
        ["flow", "itinerary", "--steps", "10"], 2, "no section events after the transient",
        id="no-events",
    ),
    pytest.param(
        ["flow", "itinerary", "--dt", "0.01", "--steps", "100", "--seed-state", "1e5,1e5,1e5"],
        2, "trajectory diverged at step 1", id="diverged",
    ),
    pytest.param(
        ["flow", "itinerary", "--seed-state", "1e7,0,0"], 2, "start state out of range",
        id="start-out-of-range",
    ),
    pytest.param(
        ["atlas", "query", "{atlas}", "--where", "nonsense"], 2,
        "no comparison operator in 'nonsense'", id="filter-operator",
    ),
    pytest.param(
        ["atlas", "query", "{atlas}", "--where", "=3"], 2, "cannot parse filter '=3'",
        id="filter-parse",
    ),
    pytest.param(
        ["atlas", "query", "{atlas}", "--where", "no_field=3"], 2, "unknown field 'no_field'",
        id="filter-field",
    ),
    # refused before the atlas is read, so the atlas cannot change the outcome
    pytest.param(
        ["atlas", "query", "{empty}", "--where", "no_field=3"], 2, "unknown field 'no_field'",
        id="filter-field-empty-atlas",
    ),
    pytest.param(
        ["atlas", "query", "{missing}", "--where", "no_field=3"], 2, "unknown field 'no_field'",
        id="filter-field-missing-atlas",
    ),
    pytest.param(
        ["atlas", "query", "{atlas}", "--where", "word<3"], 2, "cannot order 'word' against 3",
        id="filter-order",
    ),
    # True == 1 in Python, so genus=true would match every genus-1 record
    pytest.param(
        ["atlas", "query", "{atlas}", "--where", "genus=true"], 2,
        "cannot read the value of filter 'genus=true': no atlas field holds true or false",
        id="filter-boolean",
    ),
    pytest.param(
        ["atlas", "query", "{atlas}", "--where", "trip=[[false,2]]"], 2,
        "cannot read the value of filter 'trip=[[false,2]]': no atlas field holds true or false",
        id="filter-nested-boolean",
    ),
    # NaN equals nothing, so genus=NaN would match no record and genus!=NaN every one
    pytest.param(
        ["atlas", "query", "{atlas}", "--where", "genus=NaN"], 2,
        "cannot read the value of filter 'genus=NaN': no atlas field holds NaN or an infinity",
        id="filter-nan",
    ),
    pytest.param(
        ["atlas", "query", "{atlas}", "--where", "genus!=NaN"], 2,
        "cannot read the value of filter 'genus!=NaN': no atlas field holds NaN or an infinity",
        id="filter-not-nan",
    ),
    pytest.param(
        ["atlas", "query", "{atlas}", "--where", "c_min<1e999"], 2,
        "cannot read the value of filter 'c_min<1e999': no atlas field holds NaN or an infinity",
        id="filter-overflow-infinity",
    ),
    pytest.param(
        ["atlas", "query", "{atlas}", "--where", "trip=[[2,-Infinity]]"], 2,
        "cannot read the value of filter 'trip=[[2,-Infinity]]': "
        "no atlas field holds NaN or an infinity",
        id="filter-nested-infinity",
    ),
    # a target of integers only is a torus knot, and names exactly two
    pytest.param(
        ["jones", "2,3,4"], 2, "a torus knot target is two integers p,q: '2,3,4' gives 3",
        id="jones-three-integers",
    ),
    pytest.param(
        ["jones", "7"], 2, "a torus knot target is two integers p,q: '7' gives 1",
        id="jones-one-integer",
    ),
    pytest.param(
        ["flow", "itinerary", "--skip-transient", "nan"], 2, "skip_transient is NaN",
        id="nan-transient",
    ),
    pytest.param(
        ["atlas", "build", "--max-len", "19", "--out", "{atlas}"], 3,
        "max_len 19 exceeds the cap of 18", id="atlas-cap",
    ),
    pytest.param(
        ["flow", "itinerary", "--steps", "1000000000000"], 3,
        "1000000000000 steps exceed the cap of 2000000", id="step-cap",
    ),
    pytest.param(
        ["convert", "[[2,100000000]]", "--to", "word"], 3,
        "T-link parameters need 100000002 strands, over the cap of 100000", id="strand-cap",
    ),
    # a strand count of 64 bits is printed, one of 65 bits is named by its size
    pytest.param(
        ["convert", f"[[2,{2**64 - 3}]]", "--to", "word"], 3,
        "T-link parameters need 18446744073709551615 strands, over the cap of 100000",
        id="strand-cap-64-bits",
    ),
    pytest.param(
        ["convert", f"[[2,{2**64 - 2}]]", "--to", "word"], 3,
        "T-link parameters need at least 2^64 strands, over the cap of 100000",
        id="strand-cap-65-bits",
    ),
    pytest.param(
        ["jones", "99999,99998"], 3,
        "torus knot (99999, 99998) needs p + q strands, over the cap of 100000",
        id="torus-strand-cap",
    ),
    pytest.param(
        ["modular", "decode", f"[[{10**30 + 1},{10**30}],[1,1]]"], 3,
        "the decoded word has at least 2^99 letters, over the cap of 100000",
        id="decode-letter-cap",
    ),
    pytest.param(
        ["jones", "LR", "--jones-max-crossings", "0"], 3, "1 crossings exceeds the limit of 0",
        id="crossing-cap",
    ),
]


@pytest.mark.parametrize("argv, code, message", REFUSALS)
def test_refusal_exit_code_and_message(capsys, tmp_path, argv, code, message):
    atlas, empty = tmp_path / "atlas.jsonl", tmp_path / "empty.jsonl"
    atlas.write_text("".join(line + "\n" for line in cli.build_atlas(3)))
    empty.write_text("")
    paths = {"{atlas}": atlas, "{empty}": empty, "{missing}": tmp_path / "missing.jsonl"}
    argv = [str(paths.get(arg, arg)) for arg in argv]
    assert run(capsys, *argv) == (code, "", f"error: {message}\n")


def test_main_lets_an_internal_inconsistency_propagate(capsys, monkeypatch):
    """A failed structural check is a bug, not a refusal: no exit code hides it."""

    def broken(braid):
        raise InternalInconsistencyError("broken")

    monkeypatch.setattr(inv_mod, "compute_record", broken)
    with pytest.raises(InternalInconsistencyError, match="^broken$"):
        cli.main(["word", "info", "LR"])
    assert capsys.readouterr() == ("", "")


class TestAtomicBuild:
    @pytest.mark.parametrize("max_len, code", [("30", 3), ("0", 2)])
    def test_failure_creates_no_file(self, capsys, tmp_path, max_len, code):
        out_path = tmp_path / "atlas.jsonl"
        got, _, _ = run(capsys, "atlas", "build", "--max-len", max_len, "--out", str(out_path))
        assert got == code
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("max_len, code", [("30", 3), ("0", 2)])
    def test_failure_keeps_an_existing_file(self, capsys, tmp_path, max_len, code):
        out_path = tmp_path / "atlas.jsonl"
        out_path.write_bytes(b"previous contents\n")
        got, _, _ = run(capsys, "atlas", "build", "--max-len", max_len, "--out", str(out_path))
        assert got == code
        assert list(tmp_path.iterdir()) == [out_path]
        assert out_path.read_bytes() == b"previous contents\n"

    def test_success_replaces_the_file(self, capsys, tmp_path):
        out_path = tmp_path / "atlas.jsonl"
        out_path.write_bytes(b"previous contents\n")
        code, out, _ = run(capsys, "atlas", "build", "--max-len", "4", "--out", str(out_path))
        assert code == 0
        assert out.strip() == f"wrote 8 records to {out_path}"
        assert list(tmp_path.iterdir()) == [out_path]
        assert out_path.read_text() == "".join(line + "\n" for line in cli.build_atlas(4))
        umask = os.umask(0)
        os.umask(umask)
        assert out_path.stat().st_mode & 0o777 == 0o666 & ~umask


    def test_success_through_a_link_replaces_the_linked_file(self, capsys, tmp_path):
        target = tmp_path / "atlas.jsonl"
        target.write_bytes(b"previous contents\n")
        link = tmp_path / "latest.jsonl"
        link.symlink_to(target)
        code, _, _ = run(capsys, "atlas", "build", "--max-len", "3", "--out", str(link))
        assert code == 0
        assert link.is_symlink()
        assert sorted(tmp_path.iterdir()) == [target, link]
        assert target.read_text() == "".join(line + "\n" for line in cli.build_atlas(3))


    def test_a_stale_temporary_file_is_named_and_kept(self, capsys, tmp_path):
        stale = tmp_path / f".atlas.jsonl.{os.getpid()}.tmp"
        stale.write_bytes(b"stale\n")
        code, out, err = run(
            capsys, "atlas", "build", "--max-len", "3", "--out", str(tmp_path / "atlas.jsonl")
        )
        assert (code, out) == (4, "")
        assert err == f"error: [Errno 17] File exists: {str(stale)!r}\n"
        assert list(tmp_path.iterdir()) == [stale]
        assert stale.read_bytes() == b"stale\n"

    def test_a_pipe_is_written_not_replaced(self, capsys, tmp_path):
        fifo = tmp_path / "atlas.fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # lets the writer open it
        try:
            code, _, _ = run(capsys, "atlas", "build", "--max-len", "3", "--out", str(fifo))
            written = os.read(reader, 1 << 16).decode()
        finally:
            os.close(reader)
        assert code == 0
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert list(tmp_path.iterdir()) == [fifo]
        assert written == "".join(line + "\n" for line in cli.build_atlas(3))


class TestAtlasBytes:
    """sha256 of atlases built before the braid kept its derived fields, and
    json's encoder as the oracle of every line the atlas template writes."""

    @pytest.mark.parametrize(
        "max_len, jones_max_crossings, digest",
        [
            (14, 0, "65d1ae1ddcf2c4a6396de3a4f854eda90f5cb19a2ff16bc0cac0f70de8b245bf"),
            (12, 16, "db89ec2c5a4c9d3a1f0b32ed03c68869744fd27b43f1663bdeb37520afdbc133"),
            (16, 20, "92c124926b4cadf7079269f4dbed3f088b56896374cffa10f7abe764d3e9ade0"),
        ],
    )
    def test_pinned_digest(self, max_len, jones_max_crossings, digest):
        lines = list(cli.build_atlas(max_len, jones_max_crossings=jones_max_crossings))
        atlas = "".join(line + "\n" for line in lines).encode()
        assert hashlib.sha256(atlas).hexdigest() == digest
        assert len(list(cli.query_atlas(lines, []))) == len(lines)  # every record verifies

    def test_every_line_is_the_json_encoding_of_its_record(self):
        # the line template against json's encoder, on an atlas no digest
        # pins, whose Jones pairs are wider than atlas-16's
        assert list(cli.build_atlas(13, jones_max_crossings=26)) == [
            json.dumps(word_record(w, braid_of_words([w]), 26), separators=(",", ":"))
            for w in lyndon_words(13)
        ]

    def test_lines_of_the_widest_trips_are_the_json_encoding_of_their_records(self, monkeypatch):
        # atlas-13 has 0-6 trip blocks; these are the first words with 7, 8
        # and 9, so every line template meets the encoder, Jones included
        widest = ["LLLLRRRLRLLRLRR", "LLLLRLRRLRLLLRRRR", "LLLLRRLRLRRRRLLRLR"]
        monkeypatch.setattr(cli.words_mod, "lyndon_words", lambda max_len: iter(widest))
        assert [len(braid_of_words([w]).trip) for w in widest] == [7, 8, 9]
        assert list(cli.build_atlas(18, jones_max_crossings=45)) == [
            json.dumps(word_record(w, braid_of_words([w]), 45), separators=(",", ":"))
            for w in widest
        ]

    def test_unfiltered_json_query_reproduces_the_atlas(self, capsys, tmp_path):
        # the atlas-12 pin above: every row is decoded, re-checked and re-encoded
        path = tmp_path / "atlas.jsonl"
        lines = cli.build_atlas(12, jones_max_crossings=16)
        path.write_text("".join(line + "\n" for line in lines))
        code, out, err = run(capsys, "atlas", "query", str(path))
        assert (code, err) == (0, "")
        assert out == path.read_text()
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "db89ec2c5a4c9d3a1f0b32ed03c68869744fd27b43f1663bdeb37520afdbc133"
        )

    def test_query_re_encodes_rather_than_echoes(self, capsys, tmp_path):
        # a hand-written atlas with spaces after its separators and around
        # its lines comes out in the compact encoding atlas build writes
        compact = list(cli.build_atlas(5, jones_max_crossings=8))
        path = tmp_path / "atlas.jsonl"
        path.write_text("".join(f"  {json.dumps(json.loads(line))} \n" for line in compact))
        assert ", " in path.read_text() and ": " in path.read_text()
        assert run(capsys, "atlas", "query", str(path)) == (
            0, "".join(line + "\n" for line in compact), ""
        )


def transcript_digest(capsys, argvs) -> str:
    """sha256 over the argv, exit code, stdout and stderr of each call in turn."""
    digest = hashlib.sha256()
    for argv in argvs:
        code, out, err = run(capsys, *argv)
        digest.update(json.dumps([argv, code, out, err]).encode() + b"\n")
    return digest.hexdigest()


CONVERT_SOURCES = list(lyndon_words(8)) + [
    "[]", "[[1,1]]", "[[2,3]]", "[[2,4]]", "[[1,2],[3,4]]", "[[2,1],[3,5]]", "[[2,2],[4,6],[5,3]]",
]
JONES_TARGETS = list(lyndon_words(8)) + [
    "L,R", "L,LR", "LR,LLR", "LLR,LRR", "LR,LLRR", "LLR,LRLRR", "L,LLR,LRR",
    "2,3", "3,2", "2,5", "3,4", "3,5", "2,7", "4,5", "5,7", "2,4",
]
ATLAS_FILTERS = {
    "all": [],
    "several": ["--where", "genus>=2", "--where", "torus=null", "--where", "length<=9"],
    "none": ["--where", "genus=99"],
}


class TestOutputBytes:
    """sha256 of CLI transcripts taken before every output format was written
    by one function and every record built from one braid."""

    @pytest.mark.parametrize(
        "fmt, digest",
        [
            ("json", "1d335f028fc29613d1ec970bf2a411bb90f02c9f627bec9b054382064447837a"),
            ("table", "ca9135bc274ef109e4399207f7f03e0fa18bf0a5726787de1f79a4fdb0a3bfd5"),
            ("csv", "68c9ee25b200a09bc897b116562556aab7d22888de84ba80099b83ae51f540a6"),
        ],
    )
    def test_word_info_up_to_length_ten(self, capsys, fmt, digest):
        argvs = [["word", "info", w, "--format", fmt] for w in lyndon_words(10)]
        assert transcript_digest(capsys, argvs) == digest

    @pytest.mark.parametrize(
        "fmt, digest",
        [
            ("json", "29b707460f1248a2d54c43298be24bcfd389e63bce9004e6cadd23e5f8221eeb"),
            ("table", "05ca4c60530ec0aed038d25ebdcb1d0055810b7089eb3b092d6075d5bee2bbd4"),
            ("csv", "066f252ea06fe3cfce03315076993b667e81c9d520f59739fabf9b6414aed87e"),
        ],
    )
    def test_convert_to_braid(self, capsys, fmt, digest):
        argvs = [["convert", s, "--to", "braid", "--format", fmt] for s in CONVERT_SOURCES]
        assert transcript_digest(capsys, argvs) == digest

    @pytest.mark.parametrize(
        "fmt, digest",
        [
            ("json", "c0cda0974d3c782b38f3f602fc41152c460ba201997c7f34cefa4e88a545ff3a"),
            ("table", "697ac60487e7943dc7b216c2d482c59e03de6a452869247022892ef398894a5c"),
            ("csv", "a79350ec88cfbd60375daae399e5fd61351d8160e430231fa4cbc37ceee11dc2"),
        ],
    )
    def test_jones(self, capsys, fmt, digest):
        # digests taken before Jones was read straight off the packed bracket:
        # knots, links with half-integer exponents, torus pairs and a refusal
        # over the crossing cap (exit 3)
        argvs = [["jones", t, "--format", fmt] for t in JONES_TARGETS]
        argvs.append(["jones", "LRLRRRLRRR", "--jones-max-crossings", "10", "--format", fmt])
        assert transcript_digest(capsys, argvs) == digest

    def test_every_short_string_through_every_word_command(self, capsys):
        # digest taken before a braid was stored as its lobe string: every
        # string of 1-6 letters over {L, R, X}, so every rotation, proper
        # power and foreign letter, through each command that reads a word
        commands = [
            ("word info", ""),
            ("convert", "--to word"),
            ("convert", "--to braid"),
            ("convert", "--to tlink"),
            ("jones", ""),
            ("modular encode", ""),
            ("modular rademacher", ""),
        ]
        texts = ["".join(t) for n in range(1, 7) for t in itertools.product("LRX", repeat=n)]
        argvs = [
            [*head.split(), text, *tail.split()] for text in texts for head, tail in commands
        ]
        assert len(argvs) == 7_644
        assert transcript_digest(capsys, argvs) == (
            "75623de1d3982114eca5896bff26bda0aa6d75270e097834c10d96ac8024561b"
        )

    def test_modular_decode(self, capsys):
        # digest taken before decode handed its spelled period to
        # least_rotation: the product of every mixed string of 2-10 letters
        # (every rotation and proper power), two seeded conjugates of each,
        # some with c < 0 once normalized so the pre-period floor divides by
        # a negative Q, and the trace <= 2 refusals
        letter_matrix = {"L": L_MATRIX, "R": R_MATRIX}
        steps = [L_MATRIX, R_MATRIX, inverse(L_MATRIX), inverse(R_MATRIX)]
        rng = random.Random(2007)
        matrices = []
        for n in range(2, 11):
            for letters in itertools.product("LR", repeat=n):
                if len(set(letters)) < 2:
                    continue
                word = product(*(letter_matrix[letter] for letter in letters))
                matrices.append(word)
                for _ in range(2):
                    p = product(*(rng.choice(steps) for _ in range(rng.randrange(1, 9))))
                    matrices.append(conjugate(p, word))
        assert len(matrices) == 3 * 2_026
        assert sum(m.normalized().c < 0 for m in matrices) == 1_731
        rows = [json.dumps(m.to_rows(), separators=(",", ":")) for m in matrices] + [
            "[[1,0],[0,1]]", "[[-1,0],[0,-1]]", "[[1,1],[0,1]]", "[[0,-1],[1,0]]",
            "[[1,-1],[1,0]]", "[[2,-1],[1,0]]", "[[-2,1],[-1,0]]", "[[3,-1],[7,-2]]",
        ]
        argvs = [["modular", "decode", text] for text in rows]
        assert transcript_digest(capsys, argvs) == (
            "33c6fca25e35ea5e045f17cc7fe140a08ec7b6673f147244e840e1237b35ac7f"
        )

    @pytest.fixture(scope="class")
    def atlas_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("atlas") / "atlas.jsonl"
        path.write_text("".join(line + "\n" for line in cli.build_atlas(10, jones_max_crossings=12)))
        return path

    @pytest.mark.parametrize(
        "selection, fmt, digest",
        [
            ("all", "json", "996a29c5a2d3e42cf459d0d08a37d5a3c4b9815e729402dede6e77cb59721d12"),
            ("all", "table", "e5d8948c1a28ee605a9396f632d19ad812eff89b9ed2987ce61e30f50e4fea26"),
            ("all", "csv", "4fb9c6a6e61439462c1cba353fd22c9cb598adc4364e15bd8e9454c6450f399a"),
            ("several", "json", "2f3326d092e053c919942d8b96d18e2472c86b6d11699100b2f458e8f3879902"),
            ("several", "table", "836d37aecf159f70c71f679d403d6f3c853170a6bfe2ba9ca389f6a9d9ef8fcf"),
            ("several", "csv", "a4593028932c88c53aafc4cf9ce147b8cc5e9e487948f340ca58d06d3214f86c"),
            ("none", "json", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            ("none", "table", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            ("none", "csv", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ],
    )
    def test_atlas_query(self, capsys, atlas_path, selection, fmt, digest):
        argv = ["atlas", "query", str(atlas_path), "--format", fmt, *ATLAS_FILTERS[selection]]
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        if selection == "none":
            assert out == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestHelpers:
    def test_parse_filter_operators(self):
        assert cli.parse_filter("genus=5") == ("genus", "=", 5)
        assert cli.parse_filter("c_min<=3") == ("c_min", "<=", 3)
        assert cli.parse_filter("torus=null") == ("torus", "=", None)
        assert cli.parse_filter("word=LR") == ("word", "=", "LR")
        assert cli.parse_filter("torus=[2,3]") == ("torus", "=", [2, 3])
        with pytest.raises(ValidationError, match="^no comparison operator in 'gibberish'$"):
            cli.parse_filter("gibberish")

    def test_build_atlas_cap(self):
        with pytest.raises(ResourceCapError, match="^max_len 25 exceeds the cap of 18$"):
            cli.build_atlas(25)

    def test_necklace_counts_drive_build(self):
        lines = list(cli.build_atlas(6))
        assert len(lines) == sum(aperiodic_count(n) for n in range(1, 7))

    def test_build_streams_words_as_it_writes(self, monkeypatch):
        drawn = []
        generate = cli.words_mod.lyndon_words

        def counted(max_len):
            for text in generate(max_len):
                drawn.append(text)
                yield text

        monkeypatch.setattr(cli.words_mod, "lyndon_words", counted)
        lines = cli.build_atlas(18)
        assert json.loads(next(lines))["word"] == "L"
        assert json.loads(next(lines))["word"] == "R"
        assert drawn == ["L", "R"]  # the first records wait for no other word

    @pytest.mark.parametrize("cap", [-1, -20])
    def test_library_refuses_a_negative_jones_cap(self, monkeypatch, cap):
        with monkeypatch.context() as patch:  # build_atlas refuses before any word
            patch.setattr(cli.words_mod, "lyndon_words", None)
            with pytest.raises(ValidationError, match=f"must be >= 0, got {cap}$"):
                cli.build_atlas(3, jones_max_crossings=cap)
        link = validate_link(["LRR"])
        with pytest.raises(ValidationError, match=f"must be >= 0, got {cap}$"):
            jones_mod.jones_of_lorenz_braid(braid_of_words(link), cap)


class TestParserReuse:
    """`main` builds its parser once per process and reuses it."""

    @pytest.fixture
    def fresh(self, monkeypatch):
        """Forget the shared parser; returns a list that grows by one per build."""
        builds = []
        build = cli.build_parser

        def counted():
            builds.append(1)
            return build()

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", counted)
        return builds

    def test_built_once_across_many_calls(self, capsys, fresh):
        for argv in (
            ["word", "info", "LRLRL"],
            ["convert", "LLR", "--to", "knot"],  # argparse refuses it: exit 2
            ["jones", "2,3"],
            ["modular", "encode", "LRLLR"],
            ["jones", "LR", "--jones-max-crossings", "-1"],
        ) * 20:
            try:
                cli.main(argv)
            except SystemExit as exc:
                assert exc.code == 2
        capsys.readouterr()
        assert len(fresh) == 1

    def test_no_where_clause_after_two(self, capsys, tmp_path, fresh):
        out_path = tmp_path / "atlas.jsonl"
        run(capsys, "atlas", "build", "--max-len", "6", "--out", str(out_path))
        query = ["atlas", "query", str(out_path)]
        some = run(capsys, *query, "--where", "genus>=1", "--where", "torus=null")[1]
        code, out, _ = run(capsys, *query)
        assert code == 0
        every = sum(aperiodic_count(n) for n in range(1, 7))
        assert 0 < len(some.splitlines()) < len(out.splitlines()) == every
        assert len(fresh) == 1

    def test_argparse_error_leaves_the_parser_as_new(self, capsys, fresh):
        argv = ["word", "info", "LLRLR", "--format", "table"]
        first = run(capsys, *argv)
        with pytest.raises(SystemExit) as exc:
            cli.main(["convert", "LLR", "--to", "knot"])
        assert exc.value.code == 2
        assert "invalid choice: 'knot'" in capsys.readouterr().err
        assert run(capsys, *argv) == first
        assert len(fresh) == 1

    @pytest.mark.parametrize("argv", [["--help"], ["atlas", "query", "--help"]])
    def test_help_is_unchanged(self, capsys, fresh, argv):
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(argv)
        assert texts == [capsys.readouterr().out] * 2
        assert len(fresh) == 2  # the shared parser and the one built here


class TestSeparateProcess:
    """`python -m lorenzlinks.cli` runs `run()`, which hands `main`'s return
    value to `sys.exit`, in a process whose parser is built afresh.  Each
    command line gives the same exit code, stdout and stderr there as
    through `main`, called twice in this process on the one shared parser:
    successes, an argparse refusal and one refusal for each of exit 2, 3
    and 4."""

    def test_a_child_process_and_main_agree(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage line to the terminal
        atlas = str(tmp_path / "atlas6.jsonl")
        commands = [
            ["atlas", "build", "--max-len", "6", "--jones-max-crossings", "8", "--out", atlas],
            ["word", "info", "LRLRRLR", "--format", "table"],
            ["convert", "[[2,3]]", "--to", "word"],
            ["jones", "LRLRL"],
            ["modular", "rademacher", "LLRLR"],
            ["atlas", "query", atlas, "--where", "genus>=1", "--where", "torus=null"],
            ["atlas", "query", atlas],
            ["convert", "LLR", "--to", "knot"],
            ["word", "info", "LLLL"],
            ["jones", "LLLRLRLRLRRLRRLR"],
            ["atlas", "build", "--max-len", "3", "--out", str(tmp_path / "missing") + os.sep],
        ]
        package_root = os.path.dirname(os.path.dirname(cli.__file__))
        children = [
            subprocess.run(
                [sys.executable, "-m", "lorenzlinks.cli", *argv],
                capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=package_root),
            )
            for argv in commands
        ]
        seen = [(child.returncode, child.stdout, child.stderr) for child in children]
        assert [code for code, _, _ in seen] == [0] * 7 + [2, 2, 3, 4]
        for _ in range(2):
            for argv, child in zip(commands, seen):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse refused the command line
                    code = exc.code
                assert (code, *capsys.readouterr()) == child, argv
        assert sorted(os.listdir(tmp_path)) == ["atlas6.jsonl"]


# ---------------------------------------------------------------------------
# fuzzed command lines: "{tmp}" in an argument stands for a directory holding
# a small valid atlas, a UTF-16 file, a corrupt atlas and nothing else

_TEXT = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=8
)
_WORD = st.text("LR", max_size=12)
_WORDISH = st.one_of(
    _WORD,
    _TEXT,
    st.lists(_WORD, min_size=1, max_size=3).map(",".join),
    st.sampled_from(["", "LRX", "lr", "LRLR", "L" * (MAX_LETTERS + 1), BEYOND_DIGIT_LIMIT]),
)
_SMALL_INT = st.integers(-3, 40)
_INTISH = st.one_of(
    _SMALL_INT.map(str), st.sampled_from([str(HUGE), BEYOND_DIGIT_LIMIT]), _TEXT
)
_PAIRS = st.one_of(
    st.lists(st.lists(_SMALL_INT, min_size=2, max_size=2), max_size=3).map(json.dumps),
    st.sampled_from(["[[2,3]", "[[2,1e400]]", '[["a",1]]', "[[null,1]]", f"[[2,{HUGE}]]"]),
)
_MATRIX = st.one_of(
    st.lists(_SMALL_INT, min_size=4, max_size=4).map(lambda v: json.dumps([v[:2], v[2:]])),
    st.integers(1, 200).map(lambda n: f"[[{n + 1},{n}],[1,1]]"),  # the class of L^n R
    st.sampled_from([f"[[{HUGE + 1},{HUGE}],[1,1]]", "[[2.5,1],[1,1]]", "[[1,2],[3]]", "{"]),
)
_FORMAT = st.sampled_from([[], ["--format", "table"], ["--format", "csv"], ["--format", "xml"]])
_OUT = st.sampled_from(["{tmp}/out.jsonl", "{tmp}/no/such/dir.jsonl", "{tmp}"])
_FILTER = st.one_of(
    st.sampled_from(["genus=1", "c_min<=3", "torus=null", "word<3", "torus=[2,3]", "x=1"]),
    _TEXT,
)


@st.composite
def _argv(draw):
    """One command line of any subcommand, with valid, malformed or oversized
    values; "{tmp}" stands for the directory the fuzz_dir fixture fills."""

    def pick(*choices):
        return draw(st.sampled_from(choices))

    command = pick("word", "convert", "jones", "modular", "flow", "build", "query", "any")
    if command == "word":
        return ["word", "info", draw(_WORDISH), *draw(_FORMAT)]
    if command == "convert":
        return ["convert", draw(_WORDISH | _PAIRS), "--to", pick("braid", "tlink", "word", "x")]
    if command == "jones":
        target = draw(_WORDISH | st.builds("{},{}".format, _INTISH, _INTISH))
        return ["jones", target, "--jones-max-crossings", pick("0", "8", "20", "-1", "x")]
    if command == "modular":
        action = pick("encode", "decode", "rademacher", "invert")
        return ["modular", action, draw(_WORDISH | _MATRIX), *draw(_FORMAT)]
    if command == "flow":
        return [
            "flow", "itinerary",
            "--seed-state", pick("1,1,1", "0,0,0", "1,1", "a,b,c", "nan,1,1", "1e300,1,1"),
            "--steps", draw(st.integers(-2, 5000).map(str) | st.just(str(HUGE))),
            "--skip-transient", pick("0", "1", "10", "-1", "nan", "inf"),
            *pick([], ["--dt", "0.01"], ["--dt", "0"], ["--dt", "nan"], ["--dt", "0.5"]),
            *draw(st.just([]) | _OUT.map(lambda out: ["--csv", out])),
        ]
    if command == "build":
        max_len = draw(st.integers(-1, 8).map(str) | st.sampled_from(["19", str(HUGE), "x"]))
        return [
            "atlas", "build", "--max-len", max_len,
            "--jones-max-crossings", pick("0", "6", "-1"), "--out", draw(_OUT),
        ]
    if command == "query":
        atlas = pick("atlas.jsonl", "utf16.jsonl", "corrupt.jsonl", "missing", "")
        filters = draw(st.lists(_FILTER, max_size=2))
        return [
            "atlas", "query", f"{{tmp}}/{atlas}",
            *(arg for expression in filters for arg in ("--where", expression)),
            *draw(_FORMAT),
        ]
    return draw(st.lists(_TEXT, max_size=4) | st.sampled_from([["--help"], ["atlas"]]))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "atlas.jsonl").write_text("".join(line + "\n" for line in cli.build_atlas(6, 8)))
    (path / "utf16.jsonl").write_bytes(b"\xff\xfe" + '{"word":"L"}\n'.encode("utf-16-le"))
    (path / "corrupt.jsonl").write_text('{"word":"L","n":1}\n')
    return path


class TestFuzzedCli:
    @settings(max_examples=150, deadline=None)
    @given(argv=_argv())
    @example(argv=["modular", "decode", f"[[{HUGE + 1},{HUGE}],[1,1]]"])
    @example(argv=["jones", f"{HUGE},{HUGE + 1}"])
    @example(argv=["atlas", "query", "{tmp}/utf16.jsonl"])
    def test_every_command_line_exits_0_2_3_or_4(self, fuzz_dir, argv):
        argv = [arg.replace("{tmp}", str(fuzz_dir)) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse: --help, or a malformed command line
                code = exc.code
        assert code in (0, 2, 3, 4), (argv, err.getvalue())
