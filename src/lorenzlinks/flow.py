"""Numerical integration of the Lorenz system and symbolic LR itineraries.

The vector field is

    dx/dt = sigma (y - x),  dy/dt = rho x - y - x z,  dz/dt = x y - beta z

with the classical parameters sigma = 10, rho = 28, beta = 8/3.  Besides the
origin it has two rest points at (+-sqrt(beta (rho - 1)), same, rho - 1), the
centers of the attractor's lobes.  Integration is classical fixed-step
fourth-order Runge-Kutta, fully deterministic for fixed inputs, in plain
Python floats: a trajectory is four ``array('d')`` columns (times, x, y, z)
that grow by one sample per step, and at most MAX_STEPS steps are taken.

The itinerary of a trajectory is read off the standard one-dimensional
return section: at each local maximum of z, emit L when x < 0 and R when
x > 0.  Events with |x| inside a small dead band are refused rather than
guessed.  Trajectories are chaotic, so itineraries are best-effort symbol
prefixes, not certified orbit names.
"""

from __future__ import annotations

import csv
from array import array
from dataclasses import dataclass
from math import sqrt
from operator import lt
from typing import IO, Sequence

from .errors import (
    AmbiguousSymbolError,
    CapExceededError,
    NoEventsError,
    NonFiniteError,
    ValidationError,
)

MAX_STABLE_DT = 0.01
# 2e6 steps take about 4 s and hold 64 MB of samples (2-vCPU 2.1 GHz Xeon
# VM, Python 3.11); the longest run in the tests is 1e6 steps
MAX_STEPS = 2_000_000
_DIVERGENCE_BOUND = 1.0e6


@dataclass(frozen=True)
class FlowParams:
    """System coefficients plus the default integration step."""

    sigma: float = 10.0
    rho: float = 28.0
    beta: float = 8.0 / 3.0
    dt: float = 1.0e-3

    def __post_init__(self) -> None:
        if min(self.sigma, self.rho, self.beta) <= 0:
            raise ValidationError("sigma, rho, beta must be positive")
        if self.dt <= 0:
            raise ValidationError("dt must be positive")


DEFAULT_PARAMS = FlowParams()


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Uniformly sampled states as four equal-length ``array('d')`` columns:
    the sample times and the x, y and z coordinates."""

    times: array
    x: array
    y: array
    z: array

    def __post_init__(self) -> None:
        n = len(self.times)
        for column in (self.times, self.x, self.y, self.z):
            if not (isinstance(column, array) and column.typecode == "d" and len(column) == n):
                raise ValidationError("times, x, y, z must be array('d') columns of one length")
        if n < 1:
            raise ValidationError("a trajectory needs at least one sample")
        if not all(map(lt, self.times, memoryview(self.times)[1:])):
            raise ValidationError("sample times must strictly increase")

    def __len__(self) -> int:
        return len(self.times)

    def write_csv(self, stream: IO[str]) -> None:
        """Rows of (t, x, y, z) with a header line."""
        writer = csv.writer(stream)
        writer.writerow(["t", "x", "y", "z"])
        writer.writerows(zip(self.times, self.x, self.y, self.z))


def equilibria(params: FlowParams = DEFAULT_PARAMS) -> tuple[tuple[float, float, float], ...]:
    """The three rest points: the origin and the two lobe centers."""
    r = sqrt(params.beta * (params.rho - 1.0))
    height = params.rho - 1.0
    return ((0.0, 0.0, 0.0), (r, r, height), (-r, -r, height))


def vector_field(
    state: Sequence[float], params: FlowParams = DEFAULT_PARAMS
) -> tuple[float, float, float]:
    """Time derivative (dx, dy, dz) at ``state``."""
    x, y, z = (float(v) for v in state)
    return (
        params.sigma * (y - x),
        params.rho * x - y - x * z,
        x * y - params.beta * z,
    )


def integrate(
    start: Sequence[float],
    dt: float | None = None,
    steps: int = 1,
    params: FlowParams = DEFAULT_PARAMS,
) -> Trajectory:
    """Classical fixed-step RK4 from ``start`` for ``steps`` steps of ``dt``.

    ``dt`` defaults to ``params.dt`` and is capped at 0.01 as a stability
    guard.  More than MAX_STEPS steps raise CapExceededError before any
    work.  Divergence (any coordinate beyond 1e6) raises instead of
    returning NaNs.
    """
    if dt is None:
        dt = params.dt
    if not 0 < dt <= MAX_STABLE_DT:
        raise ValidationError(f"dt must satisfy 0 < dt <= {MAX_STABLE_DT}")
    if steps < 1:
        raise ValidationError("steps must be >= 1")
    if steps > MAX_STEPS:
        raise CapExceededError(f"{steps} steps exceed the cap of {MAX_STEPS}")
    sigma, rho, beta = params.sigma, params.rho, params.beta
    x, y, z = (float(v) for v in start)
    if not all(abs(v) < _DIVERGENCE_BOUND for v in (x, y, z)):
        raise NonFiniteError("start state out of range")

    times, xs, ys, zs = array("d", [0.0]), array("d", [x]), array("d", [y]), array("d", [z])
    add_t, add_x, add_y, add_z = times.append, xs.append, ys.append, zs.append
    half = dt / 2.0
    sixth = dt / 6.0
    bound = _DIVERGENCE_BOUND
    for i in range(1, steps + 1):
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
            raise NonFiniteError(f"trajectory diverged at step {i}")
        add_t(i * dt)
        add_x(x)
        add_y(y)
        add_z(z)
    return Trajectory(times, xs, ys, zs)


def itinerary(
    trajectory: Trajectory,
    skip_transient: float = 0.0,
    ambiguity_tol: float = 1.0e-6,
) -> str:
    """LR symbols of a trajectory, one per local maximum of z.

    ``skip_transient`` is measured in time units from the first sample, so
    the result is invariant under dropping whole leading steps (with the
    transient reduced to match).  A section event with |x| < ambiguity_tol
    raises AmbiguousSymbolError rather than guessing the lobe.
    """
    if len(trajectory) < 3:
        raise NoEventsError("trajectory too short to contain a section event")
    times, x, z = (memoryview(c) for c in (trajectory.times, trajectory.x, trajectory.z))
    cutoff = times[0] + skip_transient
    symbols = []
    for t, xi, before, zi, after in zip(times[1:], x[1:], z, z[1:], z[2:]):
        if before < zi > after and t >= cutoff:
            if abs(xi) < ambiguity_tol:
                raise AmbiguousSymbolError(f"|x| = {abs(xi):.3g} at t = {t:.6g}")
            symbols.append("L" if xi < 0 else "R")
    if not symbols:
        raise NoEventsError("no section events after the transient")
    return "".join(symbols)
