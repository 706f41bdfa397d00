"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  All comparisons are exact integer or polynomial equalities unless a
criterion states a numeric tolerance; stated time budgets are asserted with
wall-clock measurements.
"""

import json
import math
import random
import time

import pytest

from lorenzlinks import cli
from lorenzlinks.braid import braid_generators, braid_of_words
from lorenzlinks.errors import DivisionRemainderError
from lorenzlinks.flow import equilibria, integrate, itinerary, vector_field
from lorenzlinks.invariants import braid_index, genus, min_crossings
from lorenzlinks.jones import LaurentPoly, divide_exact, jones_of_braid, jones_torus
from lorenzlinks.modular import (
    L_MATRIX,
    R_MATRIX,
    Mat2Z,
    matrix_of_word,
    rademacher,
    rademacher_psi,
    word_of_matrix,
)
from lorenzlinks.tlink import TLinkParams, from_lorenz, t_braid_word, to_lorenz
from lorenzlinks.words import LinkWords, aperiodic_count, enumerate_words, involute


def report(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:02d}: {status} - {detail}")
    assert passed, f"criterion {number}: {detail}"


def word_braid(word):
    return braid_of_words(LinkWords((word,)))


def final_state(trajectory):
    return (trajectory.x[-1], trajectory.y[-1], trajectory.z[-1])


def test_criterion_01_ten_strand_word_via_cli(capsys):
    start = time.perf_counter()
    code = cli.main(["word", "info", "LRLRRRLRRR"])
    elapsed = time.perf_counter() - start
    payload = json.loads(capsys.readouterr().out)
    ok = (
        code == 0
        and payload["new_positions"] == [1, 6, 3, 10, 8, 5, 2, 9, 7, 4]
        and payload["over_strands"] == 3
        and payload["under_strands"] == 7
        and payload["trip"] == [[5, 1], [7, 2]]
        and payload["genus"] == 5
        and payload["braid_index"] == 3
        and elapsed < 0.1
    )
    with capsys.disabled():
        report(1, ok, f"word info LRLRRRLRRR exact in {elapsed * 1000:.1f} ms")


def test_criterion_02_t_braid_emission():
    word = t_braid_word(TLinkParams(((2, 3), (4, 4), (5, 3))))
    expected = [1] * 3 + [1, 2, 3] * 4 + [1, 2, 3, 4] * 3
    ok = word == expected and TLinkParams(((2, 3), (4, 4), (5, 3))).strands == 5
    report(2, ok, "t-braid ((2,3),(4,4),(5,3)) emits s1^3 (s1s2s3)^4 (s1s2s3s4)^3 on 5 strands")


def test_criterion_03_strand_type_profile():
    braid = to_lorenz(TLinkParams(((2, 4), (3, 2), (6, 1), (8, 2))))
    ok = braid.ear_counts == (6, 3, 3, 5) and braid.n == 17
    report(3, ok, f"to_lorenz profile ears={braid.ear_counts}, strands={braid.n}")


def test_criterion_04_torus_oracle_sweep():
    start = time.perf_counter()
    checked = 0
    ok = True
    for p in range(2, 9):
        for q in range(p + 1, 9):
            if math.gcd(p, q) != 1:
                continue
            braid = to_lorenz(TLinkParams(((p, q),)))
            ok = ok and genus(braid) == (p - 1) * (q - 1) // 2
            ok = ok and braid_index(braid) == p
            ok = ok and min_crossings(braid) == q * (p - 1)
            checked += 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    report(4, ok, f"{checked} coprime pairs (2 <= p < q <= 8) in {elapsed:.3f} s")


def test_criterion_05_jones_cross_validation():
    start = time.perf_counter()
    ok = True
    for p, q in [(2, 3), (2, 5), (2, 7), (3, 4), (3, 5)]:
        params = TLinkParams(((p, q),))
        ok = ok and jones_of_braid(t_braid_word(params), params.strands) == jones_torus(p, q)
    bad_numerator = (
        LaurentPoly.one()
        - LaurentPoly.var_power(1)  # t^(p-1) at (2,3)
        - LaurentPoly.var_power(2)  # t^(q-1)
        - LaurentPoly.var_power(5)  # t^(p+q)
    )
    denominator = LaurentPoly.one() - LaurentPoly.var_power(2)
    guard_fired = False
    try:
        divide_exact(bad_numerator, denominator)
    except DivisionRemainderError:
        guard_fired = True
    elapsed = time.perf_counter() - start
    ok = ok and guard_fired and elapsed < 30.0
    report(5, ok, f"5 torus pairs match the closed form, bad numerator rejected, {elapsed:.2f} s")


def test_criterion_06_parametrization_equivalence():
    start = time.perf_counter()
    checked = 0
    ok = True
    for word in enumerate_words(12):
        braid = word_braid(word)
        if braid.crossings > 16:
            continue
        params = from_lorenz(braid)
        lorenz_side = jones_of_braid(braid_generators(braid), braid.n)
        tlink_side = jones_of_braid(t_braid_word(params), params.strands)
        if lorenz_side != tlink_side:
            ok = False
            print(f"  mismatch at {word}")
        checked += 1
    elapsed = time.perf_counter() - start
    report(6, ok, f"Jones equal across parametrizations for {checked} words in {elapsed:.1f} s")


def test_criterion_07_involution_symmetry():
    ok = True
    checked = 0
    for word in enumerate_words(12):
        braid = word_braid(word)
        mirror = word_braid(involute(word))
        ok = ok and genus(braid) == genus(mirror)
        ok = ok and braid_index(braid) == braid_index(mirror)
        ok = ok and min_crossings(braid) == min_crossings(mirror)
        ll, lr, rl, rr = braid.ear_counts
        ok = ok and mirror.ear_counts == (rr, rl, lr, ll)
        checked += 1
    report(7, ok, f"genus, braid index, c_min stable and ear counts swap for {checked} words")


def test_criterion_08_modular_roundtrip_and_rademacher():
    ok = True
    checked = 0
    for word in enumerate_words(10):
        if len(set(word.letters)) < 2:
            continue
        matrix = matrix_of_word(word)
        ok = ok and word_of_matrix(matrix) == word
        ok = ok and rademacher(word) == rademacher_psi(matrix)
        checked += 1
    rng = random.Random(2011)
    gens = [L_MATRIX, R_MATRIX, L_MATRIX.inverse(), R_MATRIX.inverse()]
    spot_checks = 0
    for word in enumerate_words(6):
        if len(set(word.letters)) < 2:
            continue
        matrix = matrix_of_word(word)
        for _ in range(3):
            conjugator = Mat2Z.identity()
            for _ in range(rng.randrange(1, 9)):
                conjugator = conjugator * rng.choice(gens)
            if max(abs(v) for v in (conjugator.a, conjugator.b, conjugator.c, conjugator.d)) > 50:
                continue
            conjugate = conjugator * matrix * conjugator.inverse()
            ok = ok and rademacher_psi(conjugate) == rademacher_psi(matrix)
            spot_checks += 1
    ok = ok and spot_checks > 50
    report(8, ok, f"{checked} roundtrips with Dedekind-oracle agreement, {spot_checks} conjugation checks")


def test_criterion_09_census_counts(tmp_path):
    by_length: dict[int, int] = {}
    lines = list(cli.build_atlas(18))
    for line in lines:
        record = json.loads(line)
        by_length[record["length"]] = by_length.get(record["length"], 0) + 1
    ok = all(by_length[n] == aperiodic_count(n) for n in range(1, 19))

    # brute force cross-check for n <= 12
    for n in range(1, 13):
        count = 0
        for bits in range(2**n):
            s = "".join("LR"[(bits >> i) & 1] for i in range(n))
            if all(s[i:] + s[:i] != s for i in range(1, n)):
                count += 1
        ok = ok and by_length[n] == count // n

    ok = ok and lines == list(cli.build_atlas(18))  # full-depth rebuild, same bytes

    first = tmp_path / "first.jsonl"
    second = tmp_path / "second.jsonl"
    for path in (first, second):
        cli.main(["atlas", "build", "--max-len", "10", "--jones-max-crossings", "10",
                  "--out", str(path)])
    ok = ok and first.read_bytes() == second.read_bytes()
    report(9, ok, f"{len(lines)} records match necklace counts through length 18; rebuild identical")


def test_criterion_10_flow_properties():
    start = time.perf_counter()
    residuals = [max(abs(v) for v in vector_field(point)) for point in equilibria()]
    ok = max(residuals) < 1e-12
    root = math.sqrt(72.0)
    ok = ok and max(abs(v) for v in vector_field((root, root, 27.0))) < 1e-12

    reference = integrate((1.0, 0.0, 0.0), dt=1e-4, steps=4000)
    coarse = integrate((1.0, 0.0, 0.0), dt=1e-2, steps=40)
    halved = integrate((1.0, 0.0, 0.0), dt=5e-3, steps=80)
    e_coarse = math.dist(final_state(coarse), final_state(reference))
    e_halved = math.dist(final_state(halved), final_state(reference))
    ratio = e_coarse / e_halved
    ok = ok and 12.0 <= ratio <= 40.0

    symbols = itinerary(integrate((1.0, 1.0, 1.0), dt=1e-3, steps=30000), 10.0)
    refined = itinerary(integrate((1.0, 1.0, 1.0), dt=5e-4, steps=60000), 10.0)
    ok = ok and len(symbols) >= 10 and symbols[:10] == refined[:10]
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    report(10, ok, f"equilibria exact, RK4 ratio {ratio:.1f}, 10 symbols stable, {elapsed:.1f} s")


def test_criterion_11_external_census_declared_out_of_scope():
    detail = (
        "DECLARED out of reach at desk scale: counting these links inside published "
        "knot and 3-manifold censuses needs external tables and hyperbolic geometry; "
        "criteria 5, 6 and 8 stand in as correctness evidence"
    )
    print(f"ACCEPTANCE 11: {detail}")
    assert True
