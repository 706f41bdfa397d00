"""Genus, braid index, minimum crossings, torus detection."""

import json
import math

from lorenzlinks import cli
from lorenzlinks.braid import braid_of_words
from lorenzlinks.invariants import compute_record
from lorenzlinks.tlink import TLinkParams, to_lorenz
from lorenzlinks.words import involute, lyndon_words, validate_link


def braid_of(word: str):
    return braid_of_words(validate_link([word]))


def record_of(word: str) -> dict:
    return compute_record(braid_of(word))


def coprime_pairs(lo, hi):
    return [
        (p, q)
        for p in range(lo, hi + 1)
        for q in range(p + 1, hi + 1)
        if math.gcd(p, q) == 1
    ]


class TestGenus:
    def test_trefoil(self):
        assert record_of("LRLRL")["genus"] == 1

    def test_ten_letter_knot(self):
        assert record_of("LRLRRRLRRR")["genus"] == 5

    def test_unknots(self):
        assert record_of("L")["genus"] == 0
        assert record_of("LR")["genus"] == 0

    def test_chi_for_links(self):
        braid = to_lorenz(TLinkParams(((2, 4),)))
        assert compute_record(braid)["chi"] == braid.n - braid.crossings == -2

    def test_rejects_links(self):
        braid = to_lorenz(TLinkParams(((2, 4),)))
        assert compute_record(braid)["genus"] is None

    def test_parity_holds_up_to_length_14(self):
        for word in lyndon_words(14):
            braid = braid_of_words([word])
            assert (braid.crossings - braid.n + 1) % 2 == 0


class TestBraidIndex:
    def test_examples(self):
        assert record_of("LRLRRRLRRR")["braid_index"] == 3
        assert record_of("LRLRL")["braid_index"] == 2
        assert record_of("L")["braid_index"] == 1

    def test_min_crossings_examples(self):
        assert record_of("LRLRL")["c_min"] == 3
        assert compute_record(to_lorenz(TLinkParams(((3, 5),))))["c_min"] == 10
        assert record_of("L")["c_min"] == 0

    def test_min_crossings_rejects_links(self):
        assert compute_record(to_lorenz(TLinkParams(((2, 4),))))["c_min"] is None


class TestTorusDetection:
    def test_examples(self):
        assert record_of("LRLRL")["torus"] == (2, 3)
        assert record_of("LRLRRRLRRR")["torus"] is None
        # the seven-letter alternating word carries four strands of displacement 3
        assert record_of("LRLRLRL")["torus"] == (3, 4)

    def test_torus_records_have_torus_genus(self):
        for word in lyndon_words(10):
            record = compute_record(braid_of_words([word]))
            if record["torus"] is not None:
                p, q = record["torus"]
                assert record["genus"] == (p - 1) * (q - 1) // 2


class TestTorusSweep:
    def test_closed_forms_for_all_coprime_pairs(self):
        for p, q in coprime_pairs(2, 8):
            record = compute_record(to_lorenz(TLinkParams(((p, q),))))
            assert record["genus"] == (p - 1) * (q - 1) // 2
            assert record["braid_index"] == p
            assert record["c_min"] == q * (p - 1)
            assert record["torus"] == (p, q)


class TestSymmetry:
    def test_invariants_stable_under_involution(self):
        for word in lyndon_words(12):
            braid = braid_of_words([word])
            mirror = braid_of_words([involute(word)])
            record, mirrored = compute_record(braid), compute_record(mirror)
            for key in ("genus", "braid_index", "c_min"):
                assert record[key] == mirrored[key]
            ll, lr, rl, rr = braid.ear_counts
            assert mirror.ear_counts == (rr, rl, lr, ll)


class TestFormulaAudit:
    def test_trip_formula_agrees_with_crossing_count(self):
        # sum q_i (p_i - 1) - |R| + 1 == c - n + 1 whenever both lobes are used
        for word in lyndon_words(12):
            if len(set(word)) < 2:
                continue
            braid = braid_of_words([word])
            lhs = sum(q * (p - 1) for p, q in braid.trip) - word.count("R") + 1
            assert lhs == braid.crossings - braid.n + 1

    def test_record_relations(self):
        for word in lyndon_words(9):
            braid = braid_of_words([word])
            record = compute_record(braid)
            assert record["chi"] == record["n"] - record["c"]
            assert 2 * record["genus"] == record["c"] - record["n"] + 1
            assert record["c_min"] == 2 * record["genus"] + record["braid_index"] - 1


class TestRecordSchema:
    def test_keys_are_the_atlas_keys_in_atlas_order(self):
        for line in cli.build_atlas(6):
            atlas_record = json.loads(line)
            keys = list(atlas_record)
            assert keys[:2] == ["word", "length"] and keys[-1] == "jones"
            assert list(compute_record(braid_of(atlas_record["word"]))) == keys[2:-1]
