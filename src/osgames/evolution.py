"""Replicator-dynamics analysis of strategy-type populations.

The payoff matrix A holds the mean payoff of the row type against the column
type, so the fitness of type i at population x is (Ax)_i and the dynamics
are the standard replicator equation

    dx_i/dt = x_i * ((Ax)_i - x^T A x)

(types above the population-mean payoff grow).  The field is computed in one
fixed order with no BLAS call: each fitness (Ax)_i is summed left to right
over j, and the mean fitness with math.fsum, which rounds correctly.  So the
trajectories and flow fields are the same bytes whatever BLAS kernel or SIMD
extensions numpy runs with.  Trajectories are integrated with fixed-step RK4;
after each step every share below the normal range of floats (2^-1022,
negatives included) is set to zero and the state is renormalized onto the
simplex.  Fixed points are found by enumerating supports of size 1 to 3
and solving each one's equal-fitness linear system (a vertex is a support
of size 1); a singular system is reported as a fixed continuum rather than
a point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .arena import MatchConfig, RoundRobinTable, round_robin
from .program import StrategyProgram

#: Match length used when estimating payoff matrices for evolution runs.
EVOLUTION_ROUNDS = 50

#: The smallest normal float; integrate sets shares below it to zero.
_TINY = 2.0**-1022


@dataclass(frozen=True)
class PayoffMatrix:
    tags: tuple[str, ...]
    a: np.ndarray  # (n, n), a[i, j] = mean payoff of type i against type j

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
        return cls(table.tags, np.asarray(table.means, dtype=float))


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


def _payoffs(matrix: PayoffMatrix | np.ndarray) -> np.ndarray:
    return matrix.a if isinstance(matrix, PayoffMatrix) else np.asarray(matrix, dtype=float)


def _fsum(values: list[float]) -> float:
    """math.fsum's correctly rounded sum, or nan where it has none (inf - inf
    or an overflow)."""
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):
        return math.nan


def _field(a_t, z, z_col, out, m, fitness) -> np.ndarray:
    """Write the replicator field z * (Az - z^T A z) into out and return out.

    The one place the field is computed.  a_t is A^T made C-contiguous and
    z_col is z viewed as an (n, 1) column; m (n, n) and fitness (n,) are
    scratch.  Adding the rows of A^T * z one after another sums each (Az)_i
    left to right over j, one lane per i, so neither BLAS nor the SIMD width
    changes the bytes; z^T A z is math.fsum's correctly rounded sum.
    """
    np.multiply(a_t, z_col, m)
    np.add.reduce(m, axis=0, out=fitness)
    mean = _fsum(np.multiply(z, fitness, out).tolist())
    np.subtract(fitness, mean, fitness)
    return np.multiply(z, fitness, out)


def _field_at(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The replicator field at x, in new arrays."""
    n = a.shape[0]
    a_t = np.ascontiguousarray(a.T)
    return _field(a_t, x, x.reshape(n, 1), np.empty(n), np.empty((n, n)), np.empty(n))


def _norm(v: np.ndarray) -> float:
    """The Euclidean norm of v, in one fixed order."""
    return math.sqrt(_fsum([c * c for c in v.tolist()]))


def replicator_derivative(matrix: PayoffMatrix | np.ndarray, x) -> np.ndarray:
    a = _payoffs(matrix)
    x = np.asarray(x, dtype=float)
    if x.shape != (a.shape[0],):
        raise ValueError("population vector does not match the matrix size")
    return _field_at(a, x)


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

    A step is x + (dt/6) * (((k1 + 2 k2) + 2 k3) + k4), in that order.  Each
    share of it below 2^-1022 (negatives included) is set to +0.0, and the
    state divided by its math.fsum total is stored, so the simplex
    invariants hold along the whole trajectory; states[0] is x0 as given.
    Every buffer is allocated before the loop.
    """
    a = _payoffs(matrix)
    check_steps(dt, steps)
    n = a.shape[0]
    states = np.empty((steps + 1, n))
    states[0] = _as_simplex(x0, n)
    x = states[0]
    a_t = np.ascontiguousarray(a.T)
    z = np.empty(n)
    z_col = z.reshape(n, 1)
    m, fitness = np.empty((n, n)), np.empty(n)
    k, slope = np.empty(n), np.empty(n)
    low = np.empty(n, dtype=bool)
    half, sixth = 0.5 * dt, dt / 6.0
    for row in states[1:]:
        # slope sums ((k1 + 2 k2) + 2 k3) + k4; z holds each stage's input
        _field(a_t, x, x[:, None], slope, m, fitness)  # k1
        np.add(x, np.multiply(slope, half, z), z)
        _field(a_t, z, z_col, k, m, fitness)  # k2
        np.add(x, np.multiply(k, half, z), z)
        np.add(slope, np.multiply(k, 2.0, k), slope)
        _field(a_t, z, z_col, k, m, fitness)  # k3
        np.add(x, np.multiply(k, dt, z), z)
        np.add(slope, np.multiply(k, 2.0, k), slope)
        _field(a_t, z, z_col, k, m, fitness)  # k4
        np.add(slope, k, slope)
        np.add(x, np.multiply(slope, sixth, slope), slope)
        np.copyto(slope, 0.0, where=np.less(slope, _TINY, low))
        x = np.divide(slope, _fsum(slope.tolist()), row)
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
    a = _payoffs(matrix)
    check_flow(a.shape[0], resolution)
    samples: list[FlowSample] = []
    for i in range(resolution + 1):
        for j in range(resolution + 1 - i):
            k = resolution - i - j
            x = np.array([i, j, k], dtype=float) / resolution
            xdot = _field_at(a, x)
            samples.append(FlowSample(x, xdot, _norm(xdot)))
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
    jac = x[:, None] * (a - (fitness + a.T @ x))  # fitness + A^T x = d(x^T A x)/dx
    jac[np.diag_indices_from(jac)] += fitness - x @ fitness
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


def check_tol(tol: float) -> None:
    """Raise the ValueError fixed_points gives for this stability tolerance."""
    if not 0 <= tol < np.inf:  # also false for nan
        raise ValueError("tol must be non-negative and finite")


def fixed_points(
    matrix: PayoffMatrix | np.ndarray, tol: float = 1e-9
) -> FixedPointReport:
    """Support enumeration for up to three types, vertices first."""
    check_tol(tol)
    a = _payoffs(matrix)
    n = a.shape[0]
    if n > 3:
        raise ValueError("fixed-point enumeration is implemented for up to 3 types")
    points: list[FixedPoint] = []
    continua: list[FixedContinuum] = []
    for size, kind in zip(range(1, n + 1), ("vertex", "edge", "interior")):
        for support in combinations(range(n), size):
            x = _support_solution(a, support)
            if isinstance(x, str):
                continua.append(FixedContinuum(support, kind))
            elif x is not None:
                residual = _norm(_field_at(a, x))
                points.append(FixedPoint(x, residual, kind, _stability(a, x, tol)))
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
