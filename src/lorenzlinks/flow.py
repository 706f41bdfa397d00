"""Numerical integration of the Lorenz system and symbolic LR itineraries.

The vector field is

    dx/dt = sigma (y - x),  dy/dt = rho x - y - x z,  dz/dt = x y - beta z

with the classical parameters, the module constants SIGMA = 10, RHO = 28
and BETA = 8/3, the one system the template models.  Besides the origin it
has two rest points at (+-sqrt(beta (rho - 1)), same, rho - 1), the centers
of the attractor's lobes.  Integration is classical fixed-step fourth-order
Runge-Kutta with step DT unless a caller passes another, fully deterministic
for fixed inputs, in plain Python floats.  At most MAX_STEPS steps are taken,
in one RK4 loop that is read two ways as it runs: iterating a trajectory
yields every (t, x, y, z) sample, while `itinerary` takes only the section
events, (t, x) at each local maximum of z, and builds nothing on the other
steps.

The itinerary is read off the standard one-dimensional return section in
one pass: at each section event, emit L when x < 0 and R when x > 0.  Any
other iterable of (t, x, y, z) samples is read by a generic reader that
finds the same events and checks that the times strictly increase.  Events
with |x| inside a dead band of half-width 1e-6 are refused rather than
guessed.  Trajectories are chaotic, so itineraries are best-effort symbol
prefixes, not certified orbit names.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isnan
from numbers import Real
from typing import Iterable, Iterator, Sequence

from .errors import ResourceCapError, ValidationError

SIGMA = 10.0
RHO = 28.0
BETA = 8.0 / 3.0
DT = 1.0e-3
MAX_STABLE_DT = 0.01
# 2e6 steps of `flow itinerary` take about 1.7 s (2-vCPU Xeon VM, Python
# 3.11.7) and keep no samples, so memory is flat in the step count; no test
# runs more than 1e6
MAX_STEPS = 2_000_000
_DIVERGENCE_BOUND = 1.0e6
_AMBIGUITY_TOL = 1.0e-6


@dataclass(frozen=True)
class Trajectory:
    """RK4 samples (t, x, y, z) at t = i * dt for i = 0..steps, the first (0.0, *start);
    `integrate` checks the parameters.  Each pass runs the one RK4 loop afresh and
    keeps nothing: iteration yields every sample, and `itinerary` reads only the
    section events off the same loop."""

    start: tuple[float, float, float]
    dt: float
    steps: int

    def __len__(self) -> int:
        return self.steps + 1

    def __iter__(self) -> Iterator[tuple[float, float, float, float]]:
        return self._rk4(every_sample=True)

    def _section_events(self) -> Iterator[tuple[float, float]]:
        """(t, x) of each sample where z has a local maximum."""
        return self._rk4(every_sample=False)

    def _rk4(self, every_sample: bool) -> Iterator[tuple[float, ...]]:
        sigma, rho, beta = SIGMA, RHO, BETA  # locals: the loop reads them every step
        dt, half, sixth, bound = self.dt, self.dt / 2.0, self.dt / 6.0, _DIVERGENCE_BOUND
        x, y, z = self.start
        if every_sample:
            yield (0.0, x, y, z)
        z_before, x_mid, z_mid = inf, x, z  # the first sample is never a maximum
        for i in range(1, self.steps + 1):
            k1x = sigma * (y - x)
            k1y = rho * x - y - x * z
            k1z = x * y - beta * z
            ax, ay, az = x + half * k1x, y + half * k1y, z + half * k1z
            k2x = sigma * (ay - ax)
            k2y = rho * ax - ay - ax * az
            k2z = ax * ay - beta * az
            bx, by, bz = x + half * k2x, y + half * k2y, z + half * k2z
            k3x = sigma * (by - bx)
            k3y = rho * bx - by - bx * bz
            k3z = bx * by - beta * bz
            cx, cy, cz = x + dt * k3x, y + dt * k3y, z + dt * k3z
            k4x = sigma * (cy - cx)
            k4y = rho * cx - cy - cx * cz
            k4z = cx * cy - beta * cz
            x += sixth * (k1x + 2.0 * (k2x + k3x) + k4x)
            y += sixth * (k1y + 2.0 * (k2y + k3y) + k4y)
            z += sixth * (k1z + 2.0 * (k2z + k3z) + k4z)
            if not (-bound < x < bound and -bound < y < bound and -bound < z < bound):
                raise ValidationError(f"trajectory diverged at step {i}")
            if every_sample:
                yield (i * dt, x, y, z)
            else:
                if z_before < z_mid > z:
                    yield ((i - 1) * dt, x_mid)
                z_before, x_mid, z_mid = z_mid, x, z


def integrate(start: Sequence[float], dt: float = DT, steps: int = 1) -> Trajectory:
    """Classical fixed-step RK4 from ``start`` for ``steps`` steps of ``dt``.

    ``dt`` must be a real number and ``steps`` a plain int.  ``dt`` is capped
    at MAX_STABLE_DT as a stability guard.  More than MAX_STEPS steps raise
    ResourceCapError before any work.  Divergence (any coordinate beyond 1e6)
    raises when its step is read, instead of a NaN.
    """
    if not isinstance(dt, Real):
        raise ValidationError(f"dt must be a real number: {dt!r}")
    if not 0 < dt <= MAX_STABLE_DT:
        raise ValidationError(f"dt must satisfy 0 < dt <= {MAX_STABLE_DT}")
    if type(steps) is not int:  # bools too, as TLinkParams.from_pairs refuses them
        raise ValidationError(f"steps must be an int: {steps!r}")
    if steps < 1:
        raise ValidationError("steps must be >= 1")
    if steps > MAX_STEPS:
        raise ResourceCapError(f"{steps} steps exceed the cap of {MAX_STEPS}")
    x, y, z = (float(v) for v in start)
    if not all(abs(v) < _DIVERGENCE_BOUND for v in (x, y, z)):
        raise ValidationError("start state out of range")
    return Trajectory((x, y, z), dt, steps)


def itinerary(samples: Iterable[Sequence[float]], skip_transient: float = 0.0) -> str:
    """LR symbols of a trajectory, one per local maximum of z, read in one pass.

    A `Trajectory` hands over its section events straight from the RK4 loop.
    Any other iterable is read as (t, x, y, z) samples whose times must
    strictly increase.  ``skip_transient`` is measured in time units from the
    first sample, so the result is invariant under dropping whole leading
    steps (with the transient reduced to match).  A section event with
    |x| < 1e-6 raises ValidationError rather than guessing the lobe, as does a
    NaN transient.
    """
    if not isinstance(skip_transient, Real):
        raise ValidationError(f"skip_transient must be a real number: {skip_transient!r}")
    if isnan(skip_transient):  # before a sample is read: none is past a NaN cutoff
        raise ValidationError("skip_transient is NaN")
    if isinstance(samples, Trajectory):
        t_first, events = 0.0, samples._section_events()
    else:
        rows = iter(samples)
        first = next(rows, None)
        if first is None:
            raise ValidationError("trajectory too short to contain a section event")
        t_first, events = first[0], _read_section_events(first, rows)
    cutoff = t_first + skip_transient
    symbols = []
    for t, x in events:
        if t >= cutoff:
            if abs(x) < _AMBIGUITY_TOL:
                raise ValidationError(f"|x| = {abs(x):.3g} at t = {t:.6g}")
            symbols.append("L" if x < 0 else "R")
    if not symbols:
        raise ValidationError("no section events after the transient")
    return "".join(symbols)


def _read_section_events(
    first: Sequence[float], rows: Iterator[Sequence[float]]
) -> Iterator[tuple[float, float]]:
    """(t, x) of each (t, x, y, z) sample where z has a local maximum, the
    generic reader of any stream: each time must exceed the one before it."""
    t_mid, x_mid, _, z_mid = first
    z_before = inf  # the first sample is never a maximum
    for t, x, _, z in rows:
        if not t > t_mid:
            raise ValidationError("sample times must strictly increase")
        if z_before < z_mid > z:
            yield t_mid, x_mid
        z_before, t_mid, x_mid, z_mid = z_mid, t, x, z
