"""Genus, braid index, minimum crossings, torus detection."""

import json
import math

import pytest

from lorenzlinks import cli
from lorenzlinks.braid import braid_of_words
from lorenzlinks.errors import NotAKnotError
from lorenzlinks.invariants import (
    braid_index,
    compute_record,
    euler_characteristic,
    genus,
    is_torus,
    min_crossings,
)
from lorenzlinks.tlink import TLinkParams, to_lorenz
from lorenzlinks.words import LinkWords, enumerate_words, involute, validate_link


def braid_of(word: str):
    return braid_of_words(validate_link([word]))


def coprime_pairs(lo, hi):
    return [
        (p, q)
        for p in range(lo, hi + 1)
        for q in range(p + 1, hi + 1)
        if math.gcd(p, q) == 1
    ]


class TestGenus:
    def test_trefoil(self):
        assert genus(braid_of("LRLRL")) == 1

    def test_ten_letter_knot(self):
        assert genus(braid_of("LRLRRRLRRR")) == 5

    def test_unknots(self):
        assert genus(braid_of("L")) == 0
        assert genus(braid_of("LR")) == 0

    def test_chi_for_links(self):
        braid = to_lorenz(TLinkParams(((2, 4),)))
        assert euler_characteristic(braid) == braid.n - braid.crossings == -2

    def test_rejects_links(self):
        braid = to_lorenz(TLinkParams(((2, 4),)))
        with pytest.raises(NotAKnotError):
            genus(braid)

    def test_parity_holds_up_to_length_14(self):
        for word in enumerate_words(14):
            braid = braid_of_words(LinkWords((word,)))
            assert (braid.crossings - braid.n + 1) % 2 == 0


class TestBraidIndex:
    def test_examples(self):
        assert braid_index(braid_of("LRLRRRLRRR")) == 3
        assert braid_index(braid_of("LRLRL")) == 2
        assert braid_index(braid_of("L")) == 1

    def test_min_crossings_examples(self):
        assert min_crossings(braid_of("LRLRL")) == 3
        assert min_crossings(to_lorenz(TLinkParams(((3, 5),)))) == 10
        assert min_crossings(braid_of("L")) == 0

    def test_min_crossings_rejects_links(self):
        with pytest.raises(NotAKnotError):
            min_crossings(to_lorenz(TLinkParams(((2, 4),))))


class TestTorusDetection:
    def test_examples(self):
        assert is_torus(braid_of("LRLRL")) == (2, 3)
        assert is_torus(braid_of("LRLRRRLRRR")) is None
        # the seven-letter alternating word carries four strands of displacement 3
        assert is_torus(braid_of("LRLRLRL")) == (3, 4)

    def test_torus_records_have_torus_genus(self):
        for word in enumerate_words(10):
            record = compute_record(braid_of_words(LinkWords((word,))))
            if record["torus"] is not None:
                p, q = record["torus"]
                assert record["genus"] == (p - 1) * (q - 1) // 2


class TestTorusSweep:
    def test_closed_forms_for_all_coprime_pairs(self):
        for p, q in coprime_pairs(2, 8):
            braid = to_lorenz(TLinkParams(((p, q),)))
            assert genus(braid) == (p - 1) * (q - 1) // 2
            assert braid_index(braid) == p
            assert min_crossings(braid) == q * (p - 1)
            assert is_torus(braid) == (p, q)


class TestSymmetry:
    def test_invariants_stable_under_involution(self):
        for word in enumerate_words(12):
            braid = braid_of_words(LinkWords((word,)))
            mirror = braid_of_words(LinkWords((involute(word),)))
            assert genus(braid) == genus(mirror)
            assert braid_index(braid) == braid_index(mirror)
            assert min_crossings(braid) == min_crossings(mirror)
            ll, lr, rl, rr = braid.ear_counts
            assert mirror.ear_counts == (rr, rl, lr, ll)


class TestFormulaAudit:
    def test_trip_formula_agrees_with_crossing_count(self):
        # sum q_i (p_i - 1) - |R| + 1 == c - n + 1 whenever both lobes are used
        for word in enumerate_words(12):
            if len(set(word.letters)) < 2:
                continue
            braid = braid_of_words(LinkWords((word,)))
            lhs = sum(q * (p - 1) for p, q in braid.trip) - (braid.n - braid.l_count) + 1
            assert lhs == braid.crossings - braid.n + 1

    def test_record_relations(self):
        for word in enumerate_words(9):
            braid = braid_of_words(LinkWords((word,)))
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
