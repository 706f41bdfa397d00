"""Vector field, RK4 integration, and itinerary extraction."""

import io
import math
import random
import subprocess
import sys
from collections import deque
from itertools import islice
from pathlib import Path

import pytest

import lorenzlinks
from lorenzlinks import cli, flow
from lorenzlinks.errors import ResourceCapError, ValidationError
from lorenzlinks.flow import BETA, MAX_STEPS, RHO, SIGMA, integrate, itinerary


def vector_field(state):
    """Oracle: the time derivative (dx, dy, dz) of the Lorenz system at ``state``."""
    x, y, z = state
    return (SIGMA * (y - x), RHO * x - y - x * z, x * y - BETA * z)


def equilibria():
    """Oracle: the three rest points, the origin and the two lobe centers."""
    r = math.sqrt(BETA * (RHO - 1.0))
    return ((0.0, 0.0, 0.0), (r, r, RHO - 1.0), (-r, -r, RHO - 1.0))


def residual(state):
    return max(abs(v) for v in vector_field(state))


def max_abs(traj, start=0):
    return max(max(map(abs, sample[1:])) for sample in islice(traj, start, None))


def final(traj):
    return deque(traj, maxlen=1)[0][1:]


def samples(times, z):
    """Hand-built (t, x, y, z) samples with x = y = 0."""
    return [(t, 0.0, 0.0, zi) for t, zi in zip(times, z)]


class TestVectorField:
    def test_origin_is_an_equilibrium(self):
        assert vector_field((0.0, 0.0, 0.0)) == (0.0, 0.0, 0.0)

    def test_lobe_centers(self):
        r = math.sqrt(72.0)
        assert residual((r, r, 27.0)) < 1e-12
        assert residual((-r, -r, 27.0)) < 1e-12

    def test_direct_substitution(self):
        assert vector_field((1.0, 0.0, 0.0)) == (-10.0, 28.0, 0.0)

    def test_equilibria_helper(self):
        points = equilibria()
        assert len(points) == 3
        for point in points:
            assert residual(point) < 1e-12
        assert points[1][2] == 27.0


class TestIntegrate:
    @pytest.mark.parametrize("start", [(1.0, 1.0, 1.0), (-3.5, 2.0, 30.0), (12.0, -7.0, 5.0)])
    def test_one_step_is_classical_rk4_of_the_field(self, start):
        # the integrator inlines the field; one step must be the textbook
        # RK4 step of the oracle field
        dt = 1e-2

        def shifted(state, slope, h):
            return tuple(v + h * k for v, k in zip(state, slope))

        k1 = vector_field(start)
        k2 = vector_field(shifted(start, k1, dt / 2))
        k3 = vector_field(shifted(start, k2, dt / 2))
        k4 = vector_field(shifted(start, k3, dt))
        expected = tuple(
            v + dt / 6 * (a + 2 * b + 2 * c + d) for v, a, b, c, d in zip(start, k1, k2, k3, k4)
        )
        _, *stepped = list(integrate(start, dt=dt, steps=1))[1]
        assert stepped == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_equilibrium_stays_put(self):
        point = equilibria()[1]
        traj = integrate(point, dt=1e-3, steps=1000)
        drift = max(abs(v - p) for sample in traj for v, p in zip(sample[1:], point))
        assert drift < 1e-9

    def test_step_halving_error_ratio(self):
        # global error over a fixed interval scales like dt^4 for classical RK4
        start = (1.0, 0.0, 0.0)
        reference = integrate(start, dt=1e-4, steps=4000)
        coarse = integrate(start, dt=1e-2, steps=40)
        halved = integrate(start, dt=5e-3, steps=80)
        e1 = math.dist(final(coarse), final(reference))
        e2 = math.dist(final(halved), final(reference))
        assert 12.0 <= e1 / e2 <= 40.0

    def test_long_run_stays_bounded(self):
        traj = integrate((1.0, 1.0, 1.0), dt=1e-3, steps=1_000_000)
        assert max_abs(traj) < 100.0

    def test_random_starts_enter_bounded_region(self):
        rng = random.Random(63)
        for _ in range(100):
            start = tuple(rng.uniform(-20.0, 20.0) for _ in range(3))
            traj = integrate(start, dt=5e-3, steps=4000)
            assert max_abs(traj, len(traj) // 2) < 100.0

    def test_determinism(self):
        a = integrate((1.0, 1.0, 1.0), dt=1e-3, steps=5000)
        b = integrate((1.0, 1.0, 1.0), dt=1e-3, steps=5000)
        assert list(a) == list(b)

    def test_samples(self):
        traj = integrate((1, 2, 3), dt=1e-3, steps=10)
        rows = list(traj)
        assert len(traj) == len(rows) == 11
        assert all(type(v) is float for row in rows for v in row)
        assert [row[0] for row in rows] == [i * 1e-3 for i in range(11)]
        assert rows[0] == (0.0, 1.0, 2.0, 3.0)
        assert list(traj) == rows  # each pass integrates afresh

    def test_dt_guard(self):
        with pytest.raises(ValidationError):
            integrate((1.0, 1.0, 1.0), dt=0.02, steps=10)
        with pytest.raises(ValidationError):
            integrate((1.0, 1.0, 1.0), dt=1e-3, steps=0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"steps": 2.5}, "steps must be an int: 2.5"),
            ({"steps": "3"}, "steps must be an int: '3'"),
            ({"steps": True}, "steps must be an int: True"),
            ({"steps": None}, "steps must be an int: None"),
            ({"dt": "0.001"}, "dt must be a real number: '0.001'"),
            ({"dt": None}, "dt must be a real number: None"),
            ({"dt": 1j}, "dt must be a real number: 1j"),
        ],
    )
    def test_argument_types(self, kwargs, message):
        with pytest.raises(ValidationError) as caught:
            integrate((1.0, 1.0, 1.0), **{"dt": 1e-3, "steps": 10, **kwargs})
        assert str(caught.value) == message

    @pytest.mark.parametrize("samples", [[], integrate((1.0, 1.0, 1.0), dt=1e-3, steps=10)])
    @pytest.mark.parametrize("transient", ["1", None, 1j])
    def test_transient_type(self, samples, transient):
        with pytest.raises(ValidationError) as caught:
            itinerary(samples, skip_transient=transient)
        assert str(caught.value) == f"skip_transient must be a real number: {transient!r}"

    @pytest.mark.parametrize("steps", [MAX_STEPS + 1, 10**12])
    def test_step_cap_fires_before_any_allocation(self, monkeypatch, steps):
        def no_samples(self):
            raise AssertionError("a sample was produced before the step cap")

        monkeypatch.setattr(flow.Trajectory, "__iter__", no_samples)
        with pytest.raises(ResourceCapError) as caught:
            integrate((1.0, 1.0, 1.0), dt=1e-3, steps=steps)
        assert str(caught.value) == f"{steps} steps exceed the cap of {MAX_STEPS}"

    @pytest.mark.parametrize("steps", [MAX_STEPS + 1, 10**12])
    def test_step_cap_fires_before_any_section_event(self, monkeypatch, steps):
        def no_events(self):
            raise AssertionError("a section event was produced before the step cap")

        monkeypatch.setattr(flow.Trajectory, "_section_events", no_events)
        with pytest.raises(ResourceCapError) as caught:
            itinerary(integrate((1.0, 1.0, 1.0), dt=1e-3, steps=steps))
        assert str(caught.value) == f"{steps} steps exceed the cap of {MAX_STEPS}"

    def test_divergence_detected(self):
        traj = integrate((9.0e5, 9.0e5, 9.0e5), dt=0.01, steps=50)  # nothing runs yet
        with pytest.raises(ValidationError, match=r"^trajectory diverged at step \d+$"):
            deque(traj, maxlen=0)

    def test_csv_export(self):
        traj = integrate((1.0, 1.0, 1.0), dt=1e-3, steps=5)
        buffer = io.StringIO()
        assert list(cli._csv_rows(traj, buffer)) == list(traj)
        lines = buffer.getvalue().split("\r\n")
        assert lines[0] == "t,x,y,z" and lines[-1] == ""
        assert lines[1:-1] == [",".join(map(repr, row)) for row in traj]


class TestTrajectory:
    """Any iterable of (t, x, y, z) samples is a trajectory to `itinerary`,
    which checks the times as it reads them."""

    def test_needs_a_sample(self):
        with pytest.raises(
            ValidationError, match="^trajectory too short to contain a section event$"
        ):
            itinerary([])
        with pytest.raises(ValidationError):
            integrate((1.0, 1.0, 1.0), steps=0)

    @pytest.mark.parametrize("times", [[0.0, 1.0, 1.0], [0.0, 2.0, 1.0], [0.0, math.nan, 1.0]])
    def test_times_must_strictly_increase(self, times):
        with pytest.raises(ValidationError):
            itinerary(samples(times, [0.0, 1.0, 0.5]))


def test_import_leaves_numpy_out():
    src = Path(lorenzlinks.__file__).resolve().parent.parent
    code = "import sys, lorenzlinks.cli; print('numpy' in sys.modules)"
    child = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True
    )
    assert child.stdout == "False\n"


class TestItinerary:
    def test_right_lobe_spiral_emits_r_run(self):
        traj = integrate((10.0, 10.0, 27.0), dt=1e-3, steps=4000)
        symbols = itinerary(traj)
        assert symbols and set(symbols[:5]) == {"R"}

    def test_symbols_stable_under_step_halving(self):
        coarse = itinerary(integrate((1.0, 1.0, 1.0), dt=1e-3, steps=30000), 10.0)
        fine = itinerary(integrate((1.0, 1.0, 1.0), dt=5e-4, steps=60000), 10.0)
        assert coarse[:10] == fine[:10]

    def test_no_events_on_short_trajectory(self):
        with pytest.raises(ValidationError, match="^no section events after the transient$"):
            itinerary(integrate((1.0, 1.0, 1.0), dt=1e-3, steps=1))

    def test_no_events_after_transient(self):
        traj = integrate((1.0, 1.0, 1.0), dt=1e-3, steps=500)
        with pytest.raises(ValidationError, match="^no section events after the transient$"):
            itinerary(traj, skip_transient=10.0)

    def test_nan_transient_is_refused_before_a_sample_is_read(self):
        def unread():  # a trajectory that fails the test if a sample is read
            raise AssertionError("a sample was read")
            yield

        with pytest.raises(ValidationError, match="^skip_transient is NaN$"):
            itinerary(unread(), skip_transient=math.nan)

    def test_time_translation_invariance(self):
        traj = integrate((1.0, 1.0, 1.0), dt=1e-3, steps=30000)
        offset = 5000
        full = itinerary(traj, skip_transient=offset * 1e-3)
        assert itinerary(islice(traj, offset, None)) == full

    def test_ambiguous_event_raises(self):
        with pytest.raises(ValidationError, match=r"^\|x\| = 0 at t = 1$"):
            itinerary(samples([0.0, 1.0, 2.0], [0.0, 1.0, 0.0]))


def read(samples, skip_transient):
    """The itinerary of ``samples``, or the message it was refused with."""
    try:
        return itinerary(samples, skip_transient)
    except ValidationError as exc:
        return f"error: {exc}"


class TestTwoReads:
    """`itinerary` takes a Trajectory's section events straight off the RK4
    loop; ``iter(trajectory)`` goes through the generic reader of samples,
    the reference the section walker is held to."""

    def test_trajectory_is_not_iterated(self, monkeypatch):
        def no_samples(self):
            raise AssertionError("itinerary iterated the trajectory's samples")

        traj = integrate((1.0, 1.0, 1.0), dt=1e-3, steps=5000)
        expected = itinerary(list(traj))
        monkeypatch.setattr(flow.Trajectory, "__iter__", no_samples)
        assert itinerary(traj) == expected

    def test_section_walker_matches_the_generic_reader(self):
        rng = random.Random(44)
        kinds = {}
        for case in range(400):
            dt = rng.choice((1e-3, 2e-3, 5e-3, 1e-2))
            steps = rng.randint(1, 2000)
            if case % 8 == 1:
                # a hair off a lobe center, z moves by a few ulps and repeats
                # values, so a plateau must not be read as a maximum
                x, y, z = rng.choice(equilibria()[1:])
                start = (x + rng.choice((1e-12, 1e-11, 1e-10)) * rng.uniform(-1.0, 1.0), y, z)
            else:
                scale = 2000.0 if case % 8 == 0 else 20.0  # some of these starts diverge
                start = tuple(rng.uniform(-scale, scale) for _ in range(3))
            span = steps * dt
            skip = rng.choice(
                (-rng.uniform(0.0, span), 0.0, rng.uniform(0.0, span),
                 rng.randint(0, steps) * dt, span + rng.uniform(0.0, 1.0))
            )
            traj = integrate(start, dt=dt, steps=steps)
            outcome = read(traj, skip)
            assert outcome == read(iter(traj), skip), (start, dt, steps, skip)
            kind = outcome.split(" at step")[0] if outcome.startswith("error") else "symbols"
            kinds[kind] = kinds.get(kind, 0) + 1
        assert set(kinds) == {
            "symbols",
            "error: trajectory diverged",
            "error: no section events after the transient",
        }, kinds

    def test_dead_band_refusal_is_the_same_on_both_reads(self, monkeypatch):
        monkeypatch.setattr(flow, "_AMBIGUITY_TOL", 1e3)
        traj = integrate((1.0, 1.0, 1.0), dt=1e-3, steps=5000)
        messages = []
        for samples in (traj, iter(traj)):
            with pytest.raises(ValidationError, match=r"^\|x\| = \S+ at t = \S+$") as caught:
                itinerary(samples, skip_transient=1.0)
            messages.append(str(caught.value))
        assert messages[0] == messages[1]
