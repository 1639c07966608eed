"""Replicator-dynamics analysis of strategy-type populations.

The payoff matrix A holds the mean payoff of the row type against the column
type, so the fitness of type i at population x is (Ax)_i and the dynamics
are the standard replicator equation

    dx_i/dt = x_i * ((Ax)_i - x^T A x)

(types above the population-mean payoff grow).  Trajectories are integrated
with fixed-step RK4 and projected back onto the simplex each step by
clipping tiny negatives and renormalizing.  Fixed points are found by
support enumeration: vertices always, each edge/interior support by solving
the equal-fitness linear system; a singular system is reported as a fixed
continuum rather than a point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .arena import MatchConfig, RoundRobinTable, round_robin
from .program import StrategyProgram

#: Match length used when estimating payoff matrices for evolution runs.
EVOLUTION_ROUNDS = 50


@dataclass(frozen=True)
class PayoffMatrix:
    tags: tuple[str, ...]
    a: np.ndarray  # (n, n), a[i, j] = mean payoff of type i against type j
    samples: dict[tuple[int, int], tuple[tuple[int, int], ...]] = field(
        default_factory=dict, compare=False
    )

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("payoff matrix must be square")
        if a.shape[0] != len(self.tags):
            raise ValueError("one tag per type is required")
        if not np.all(np.isfinite(a)):
            raise ValueError("payoff matrix entries must be finite")
        object.__setattr__(self, "a", a)

    @property
    def size(self) -> int:
        return len(self.tags)

    def to_json_dict(self) -> dict:
        return {
            "schema": "osgames.payoff_matrix/1",
            "tags": list(self.tags),
            "matrix": [[float(v) for v in row] for row in self.a],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "PayoffMatrix":
        """The matrix of to_json_dict's object; anything else raises ValueError."""
        if not isinstance(obj, dict):
            raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
        tags, rows = obj.get("tags"), obj.get("matrix")
        if not isinstance(tags, list) or not all(isinstance(t, str) for t in tags):
            raise ValueError(f"tags must be a list of strings, got {tags!r}")
        if not isinstance(rows, list):
            raise ValueError(f"matrix must be a list of rows, got {rows!r}")
        try:
            a = np.asarray(rows, dtype=float)
        except TypeError as exc:
            raise ValueError(f"matrix entries must be numbers: {exc}") from None
        return cls(tuple(tags), a)

    @classmethod
    def from_table(cls, table: RoundRobinTable) -> "PayoffMatrix":
        return cls(table.tags, np.asarray(table.means, dtype=float), dict(table.samples))


def estimate_payoff_matrix(
    types: list[tuple[str, StrategyProgram]],
    cfg: MatchConfig = MatchConfig(rounds=EVOLUTION_ROUNDS),
    repetitions: int = 1,
    jobs: int = 1,
) -> PayoffMatrix:
    """Mean payoff of every ordered pairing, via the arena's round robin."""
    return PayoffMatrix.from_table(round_robin(types, cfg, repetitions, jobs=jobs))


def _as_simplex(x, size: int, tol: float = 1e-9) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (size,):
        raise ValueError(f"population must have {size} entries")
    if not np.all(np.isfinite(x)) or np.any(x < -tol) or abs(x.sum() - 1.0) > tol:
        raise ValueError("population must lie on the probability simplex")
    return x


def replicator_derivative(matrix: PayoffMatrix | np.ndarray, x) -> np.ndarray:
    a = matrix.a if isinstance(matrix, PayoffMatrix) else np.asarray(matrix, dtype=float)
    x = np.asarray(x, dtype=float)
    if x.shape != (a.shape[0],):
        raise ValueError("population vector does not match the matrix size")
    fitness = a @ x
    mean = x @ fitness
    return x * (fitness - mean)


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray  # (steps + 1,)
    states: np.ndarray  # (steps + 1, n)

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def check_steps(dt: float, steps: int) -> None:
    """Raise the ValueError integrate gives for this step size and count."""
    if not 0 < dt < np.inf:  # also false for nan
        raise ValueError("dt must be positive and finite")
    if steps < 0:
        raise ValueError("steps must be non-negative")


def integrate(
    matrix: PayoffMatrix | np.ndarray,
    x0,
    dt: float = 0.01,
    steps: int = 20_000,
) -> Trajectory:
    """Fixed-step classical Runge-Kutta (RK4) integration on the simplex.

    Every stored state is clipped (tiny negatives to zero) and renormalized,
    so the simplex invariants hold along the whole trajectory.
    """
    a = matrix.a if isinstance(matrix, PayoffMatrix) else np.asarray(matrix, dtype=float)
    check_steps(dt, steps)
    x = _as_simplex(x0, a.shape[0])
    states = np.empty((steps + 1, a.shape[0]))
    states[0] = x

    def f(y):
        fitness = a @ y
        return y * (fitness - y @ fitness)

    for k in range(1, steps + 1):
        k1 = f(x)
        k2 = f(x + 0.5 * dt * k1)
        k3 = f(x + 0.5 * dt * k2)
        k4 = f(x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        x = np.clip(x, 0.0, None)
        x = x / x.sum()
        states[k] = x
    times = np.arange(steps + 1) * dt
    return Trajectory(times, states)


@dataclass(frozen=True)
class FlowSample:
    x: np.ndarray
    xdot: np.ndarray
    strength: float


def check_flow(size: int, resolution: int) -> None:
    """Raise the ValueError flow_field gives for this many types and this
    grid resolution."""
    if size != 3:
        raise ValueError("flow fields are only defined for exactly 3 types")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")


def flow_field(matrix: PayoffMatrix | np.ndarray, resolution: int) -> list[FlowSample]:
    """Replicator derivative on a barycentric grid of the 2-simplex.

    Only defined for exactly three types; spacing is 1/resolution, which
    yields (resolution+1)(resolution+2)/2 samples.
    """
    a = matrix.a if isinstance(matrix, PayoffMatrix) else np.asarray(matrix, dtype=float)
    check_flow(a.shape[0], resolution)
    samples: list[FlowSample] = []
    for i in range(resolution + 1):
        for j in range(resolution + 1 - i):
            k = resolution - i - j
            x = np.array([i, j, k], dtype=float) / resolution
            xdot = replicator_derivative(a, x)
            samples.append(FlowSample(x, xdot, float(np.linalg.norm(xdot))))
    return samples


@dataclass(frozen=True)
class FixedPoint:
    x: np.ndarray
    residual: float
    classification: str  # vertex | edge | interior
    stability: str  # stable | unstable | neutral


@dataclass(frozen=True)
class FixedContinuum:
    support: tuple[int, ...]
    classification: str  # edge | interior


@dataclass(frozen=True)
class FixedPointReport:
    points: tuple[FixedPoint, ...]
    continua: tuple[FixedContinuum, ...]

    def to_json_dict(self) -> dict:
        return {
            "schema": "osgames.fixed_points/1",
            "points": [
                {
                    "x": [float(v) for v in p.x],
                    "residual": p.residual,
                    "classification": p.classification,
                    "stability": p.stability,
                }
                for p in self.points
            ],
            "continua": [
                {"support": list(c.support), "classification": c.classification}
                for c in self.continua
            ],
        }


def _jacobian(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    fitness = a @ x
    mean = x @ fitness
    n = a.shape[0]
    jac = np.empty((n, n))
    grad_mean = fitness + a.T @ x  # d(x^T A x)/dx_j
    for i in range(n):
        for j in range(n):
            jac[i, j] = x[i] * (a[i, j] - grad_mean[j])
            if i == j:
                jac[i, j] += fitness[i] - mean
    return jac


def _stability(a: np.ndarray, x: np.ndarray, tol: float) -> str:
    """Eigenvalues of the flow restricted to the simplex tangent space.

    Restriction is exact: the last coordinate is eliminated through
    x_n = 1 - sum of the others, giving an (n-1)x(n-1) Jacobian.
    """
    n = a.shape[0]
    if n == 1:
        return "neutral"
    jac = _jacobian(a, x)
    reduced = jac[: n - 1, : n - 1] - jac[: n - 1, n - 1 : n]
    eigenvalues = np.linalg.eigvals(reduced)
    real = eigenvalues.real
    if np.any(np.abs(real) < tol):
        return "neutral"
    return "stable" if np.all(real < 0) else "unstable"


def _support_solution(a: np.ndarray, support: tuple[int, ...]) -> np.ndarray | str | None:
    """Equal-fitness point with the given support.

    Returns the full-dimension point, "continuum" for a singular system, or
    None when the solution falls outside the (relative interior of the)
    simplex face.
    """
    sub = a[np.ix_(support, support)]
    m = len(support)
    system = np.zeros((m, m))
    rhs = np.zeros(m)
    for row in range(m - 1):
        system[row] = sub[row] - sub[row + 1]
    system[m - 1] = 1.0
    rhs[m - 1] = 1.0
    if abs(np.linalg.det(system)) < 1e-12:
        # No unique equal-fitness point: either every point of the face is
        # fixed (fitness rows identical) or none is.
        probe = np.full(m, 1.0 / m)
        diffs = (sub - sub[0]) @ probe
        return "continuum" if np.allclose(diffs, 0.0, atol=1e-12) else None
    y = np.linalg.solve(system, rhs)
    if np.any(y <= 1e-12):
        return None
    x = np.zeros(a.shape[0])
    x[list(support)] = y
    return x


def fixed_points(
    matrix: PayoffMatrix | np.ndarray, tol: float = 1e-9
) -> FixedPointReport:
    """Support enumeration for up to three types."""
    a = matrix.a if isinstance(matrix, PayoffMatrix) else np.asarray(matrix, dtype=float)
    n = a.shape[0]
    if n > 3:
        raise ValueError("fixed-point enumeration is implemented for up to 3 types")
    classification = {1: "vertex", 2: "edge", 3: "interior"}
    points: list[FixedPoint] = []
    continua: list[FixedContinuum] = []

    def add_point(x: np.ndarray, kind: str):
        residual = float(np.linalg.norm(replicator_derivative(a, x)))
        points.append(FixedPoint(x, residual, kind, _stability(a, x, tol)))

    for i in range(n):
        x = np.zeros(n)
        x[i] = 1.0
        add_point(x, "vertex")

    from itertools import combinations

    for size in (2, 3):
        if size > n:
            break
        for support in combinations(range(n), size):
            solution = _support_solution(a, support)
            if solution is None:
                continue
            if isinstance(solution, str):
                continua.append(FixedContinuum(support, classification[size]))
            else:
                add_point(solution, classification[size])
    return FixedPointReport(tuple(points), tuple(continua))


# --------------------------------------------------------------------------
# exports


def trajectory_rows(trajectory: Trajectory) -> list[list[float]]:
    return [
        [float(t)] + [float(v) for v in state]
        for t, state in zip(trajectory.times, trajectory.states)
    ]


def flow_rows(samples: list[FlowSample]) -> list[list[float]]:
    return [
        [float(v) for v in s.x] + [float(v) for v in s.xdot] + [s.strength]
        for s in samples
    ]
