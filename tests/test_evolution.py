from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import osgames
from osgames.arena import MatchConfig, round_robin
from osgames.evolution import (
    EVOLUTION_ROUNDS,
    PayoffMatrix,
    estimate_payoff_matrix,
    fixed_points,
    flow_field,
    integrate,
    replicator_derivative,
)
from osgames.evolution import _jacobian  # analytic Jacobian, oracle-checked here
from osgames.program import load_program

# Hand-derived deterministic tournament matrix for {AllC, AllD, TFT} at r=10.
CLASSIC = PayoffMatrix(("AllC", "AllD", "TFT"), [[30, 0, 30], [50, 10, 14], [30, 9, 30]])


def euler_oracle(a, x0, t_end, dt=1e-3):
    """Independent fine-step Euler integrator used to cross-check RK4."""
    a = np.asarray(a, float)
    x = np.asarray(x0, float).copy()
    steps = int(round(t_end / dt))
    for _ in range(steps):
        fitness = a @ x
        x = x + dt * x * (fitness - x @ fitness)
        x = np.clip(x, 0.0, None)
        x = x / x.sum()
    return x


def test_vertices_are_exactly_fixed():
    for i in range(3):
        x = np.zeros(3)
        x[i] = 1.0
        d = replicator_derivative(CLASSIC, x)
        assert np.all(d == 0.0)


def test_uniform_point_signs_and_fitnesses():
    x = np.full(3, 1 / 3)
    fitness = CLASSIC.a @ x
    assert np.allclose(fitness, [20.0, 74 / 3, 23.0])
    assert np.isclose(x @ fitness, 203 / 9)
    d = replicator_derivative(CLASSIC, x)
    assert d[0] < 0 and d[1] > 0 and d[2] > 0
    assert abs(d.sum()) < 1e-12


def test_components_sum_to_zero_and_extinct_types_stay_zero():
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = rng.dirichlet(np.ones(3))
        d = replicator_derivative(CLASSIC, x)
        assert abs(d.sum()) < 1e-9
        x0 = np.array([0.0, 0.4, 0.6])
        assert replicator_derivative(CLASSIC, x0)[0] == 0.0


def test_column_translation_invariance():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.dirichlet(np.ones(3))
        c = rng.uniform(-10, 10, size=3)
        shifted = CLASSIC.a + np.outer(np.ones(3), c)
        d1 = replicator_derivative(CLASSIC.a, x)
        d2 = replicator_derivative(shifted, x)
        assert np.all(np.abs(d1 - d2) <= 1e-12)


def test_time_rescaling():
    rng = np.random.default_rng(4)
    for lam in (2.0, 0.5, 10.0):
        x = rng.dirichlet(np.ones(3))
        d1 = replicator_derivative(CLASSIC.a * lam, x)
        d2 = lam * replicator_derivative(CLASSIC.a, x)
        assert np.allclose(d1, d2, rtol=0, atol=1e-10)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        replicator_derivative(CLASSIC, np.array([0.5, 0.5]))


# --------------------------------------------------------------------------
# integration


def test_vertex_start_is_constant():
    for vertex in np.eye(3):  # byte for byte, so no share turns into -0.0
        states = integrate(CLASSIC, vertex, dt=0.01, steps=500).states
        assert states.tobytes() == np.tile(vertex, (501, 1)).tobytes()


TINY = 2.0**-1022  # the smallest normal float


def reference_trajectory(a, x0, dt, steps):
    """integrate's trajectory in plain Python floats, as lists of rows.

    Each fitness is summed left to right, starting from its first product;
    the mean fitness and the renormalizing total are math.fsum's; a step is
    x + (dt/6) * (((k1 + 2 k2) + 2 k3) + k4), and its shares below 2^-1022
    are set to +0.0 before the state is divided by its total.
    """
    a = [[float(v) for v in row] for row in a]
    n = len(a)
    x = [float(v) for v in x0]

    def field(z):
        fitness = []
        for row in a:
            total = row[0] * z[0]
            for j in range(1, n):
                total += row[j] * z[j]
            fitness.append(total)
        mean = math.fsum([zi * fi for zi, fi in zip(z, fitness)])
        return [zi * (fi - mean) for zi, fi in zip(z, fitness)]

    half, sixth = 0.5 * dt, dt / 6.0
    rows = [x]
    for _ in range(steps):
        k1 = field(x)
        k2 = field([xi + half * ki for xi, ki in zip(x, k1)])
        k3 = field([xi + half * ki for xi, ki in zip(x, k2)])
        k4 = field([xi + dt * ki for xi, ki in zip(x, k3)])
        y = [
            xi + sixth * (((p + 2.0 * q) + 2.0 * r) + s)
            for xi, p, q, r, s in zip(x, k1, k2, k3, k4)
        ]
        y = [0.0 if v < TINY else v for v in y]
        total = math.fsum(y)
        x = [v / total for v in y]
        rows.append(x)
    return rows


def _flushed_shares(states) -> int:
    """How many times a share at or above 2^-1022 is 0 one step later."""
    return int(np.sum((states[:-1] >= TINY) & (states[1:] == 0.0)))


def test_integrate_equals_the_plain_python_reference():
    rng = np.random.default_rng(0)
    runs = [
        (CLASSIC.a, np.full(3, 1 / 3)),
        (rng.integers(0, 50, size=(6, 6)).astype(float), np.full(6, 1 / 6)),
        (rng.uniform(0, 50, size=(20, 20)), rng.dirichlet(np.ones(20))),
    ]
    flushed = 0
    for a, x0 in runs:
        states = integrate(a, x0, dt=0.01, steps=2000).states
        want = np.array(reference_trajectory(a, x0, 0.01, 2000))
        assert states.tobytes() == want.tobytes()
        flushed += _flushed_shares(states)
    assert flushed > 0  # some share crossed 2^-1022 and was set to zero


@pytest.mark.parametrize(
    "x0, index",
    [([0.5, 0.5, 5e-324], 2), ([-0.0, 0.5, 0.5], 0), ([-1e-12, 0.5 + 1e-12, 0.5], 0)],
    ids=["subnormal", "negative-zero", "negative"],
)
def test_start_share_below_normal_is_kept_then_positive_zero(x0, index):
    states = integrate(CLASSIC, x0, dt=0.01, steps=50).states
    assert states[0].tobytes() == np.array(x0).tobytes()  # states[0] is x0 as given
    assert states[1:, index].tobytes() == np.zeros(50).tobytes()  # +0.0 from step 1


def test_no_stored_share_has_its_sign_bit_set():
    rng = np.random.default_rng(5)
    for n in (3, 6, 20):
        a = rng.integers(0, 50, size=(n, n)).astype(float)
        states = integrate(a, rng.dirichlet(np.ones(n)), dt=0.01, steps=3000).states
        assert not np.signbit(states).any()
        assert np.all((states == 0.0) | (states >= TINY))


def test_dominance_forces_convergence():
    # row 2 strictly dominates row 1: x2 -> 1 monotonically
    a = PayoffMatrix(("weak", "strong"), [[1, 0], [2, 1]])
    traj = integrate(a, [0.7, 0.3], dt=0.01, steps=4000)
    x2 = traj.states[:, 1]
    assert np.all(np.diff(x2) >= -1e-12)
    assert traj.final[1] > 0.999


def test_simplex_preserved_over_ten_thousand_steps():
    traj = integrate(CLASSIC, np.full(3, 1 / 3), dt=0.01, steps=10_000)
    sums = traj.states.sum(axis=1)
    assert np.all(np.abs(sums - 1.0) <= 1e-9)
    assert np.all(traj.states >= -1e-12)


def test_uniform_start_converges_to_mixed_edge_state(uniform_start_tft_limit):
    # AllD is driven out by TFT; the run then freezes on the AllC-TFT line
    # (a fixed continuum), at the TFT share fixed by the first integral
    # H = (v + 2u - 16) u^(1/9).  The independent fine-step Euler oracle
    # lands on the same point.
    traj = integrate(CLASSIC, np.full(3, 1 / 3), dt=0.01, steps=20_000)
    final = traj.final
    assert final[1] < 1e-9  # AllD extinct
    oracle = euler_oracle(CLASSIC.a, np.full(3, 1 / 3), t_end=200.0)
    assert np.allclose(final, oracle, atol=1e-3)
    assert abs(final[2] - uniform_start_tft_limit) <= 1e-7


def test_overflowing_field_gives_nan_states_not_an_exception():
    # In the second stage z^T A z sums +inf and -inf, which math.fsum rejects.
    a = PayoffMatrix(("up", "down"), [[1.7e308, 0.0], [1.7e308, -1.7e308]])
    with np.errstate(over="ignore", invalid="ignore"):
        states = integrate(a, [0.5, 0.5], dt=0.01, steps=3).states
    assert np.isnan(states[1:]).all()


def test_integrate_input_validation():
    with pytest.raises(ValueError):
        integrate(CLASSIC, [0.5, 0.5, 0.5])  # not on the simplex
    with pytest.raises(ValueError):
        integrate(CLASSIC, np.full(3, 1 / 3), dt=-0.1)


@pytest.mark.parametrize(
    "x0, dt",
    [([np.nan, 0.5, 0.5], 0.01), ([1 / 3] * 3, np.nan), ([1 / 3] * 3, np.inf)],
)
def test_integrate_rejects_non_finite_inputs(x0, dt):
    with pytest.raises(ValueError):
        integrate(CLASSIC, x0, dt=dt, steps=10)


_CHILD = """
import hashlib
import numpy as np
from osgames.evolution import flow_field, integrate
a = np.array(%s)
digest = hashlib.sha256(integrate(a, np.full(20, 0.05), steps=300).states.tobytes())
for sample in flow_field(a[:3, :3], 12):
    digest.update(np.concatenate([sample.x, sample.xdot, [sample.strength]]).tobytes())
print(digest.hexdigest())
"""


def _found_cpu_features() -> list[str]:
    """The SIMD extensions numpy dispatches to on this CPU beyond its baseline."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    features = getattr(umath, "__cpu_features__", {})
    return [f for f in getattr(umath, "__cpu_dispatch__", []) if features.get(f)]


def test_trajectory_and_flow_bytes_do_not_depend_on_blas_or_simd():
    """integrate and flow_field give the same bytes in child processes under
    different OpenBLAS kernels and with numpy's SIMD dispatch switched off."""
    a = np.random.default_rng(2).uniform(0, 50, size=(20, 20))
    code = _CHILD % json.dumps(a.tolist())
    src = str(Path(osgames.__file__).resolve().parent.parent)
    settings = [{}, {"OPENBLAS_CORETYPE": "Prescott"}, {"OPENBLAS_CORETYPE": "Haswell"}]
    found = _found_cpu_features()
    if found:
        settings.append({"NPY_DISABLE_CPU_FEATURES": ",".join(found)})
    digests = []
    for setting in settings:
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
        env.update(setting, PYTHONPATH=os.pathsep.join([src, env.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, (setting, done.stderr)
        digests.append(done.stdout.strip())
    assert len(set(digests)) == 1, dict(zip(map(str, settings), digests))


# --------------------------------------------------------------------------
# flow field


def test_flow_field_grid_size():
    assert len(flow_field(CLASSIC, 10)) == 66  # triangular number
    assert len(flow_field(CLASSIC, 2)) == 6


def test_flow_field_strengths():
    samples = flow_field(CLASSIC, 10)
    for s in samples:
        assert s.strength >= 0.0
        assert abs(s.xdot.sum()) <= 1e-9
        assert np.isclose(s.strength, np.linalg.norm(s.xdot))
        if max(s.x) == 1.0:  # vertices are grid points and exactly fixed
            assert s.strength == 0.0


def test_flow_zero_on_allc_tft_edge():
    # Both types score identically against each other and themselves, so
    # the whole edge is a fixed line.
    samples = flow_field(CLASSIC, 10)
    for s in samples:
        if s.x[1] == 0.0:
            assert s.strength <= 1e-12


def test_flow_field_requires_three_types():
    two = PayoffMatrix(("a", "b"), [[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        flow_field(two, 10)
    with pytest.raises(ValueError):
        flow_field(CLASSIC, 1)


# --------------------------------------------------------------------------
# fixed points


def test_fixed_points_classic_matrix():
    report = fixed_points(CLASSIC, tol=1e-9)
    vertices = [p for p in report.points if p.classification == "vertex"]
    assert len(vertices) == 3
    edges = [p for p in report.points if p.classification == "edge"]
    assert len(edges) == 1
    point = edges[0]
    assert np.allclose(point.x, [0.0, 16 / 17, 1 / 17], atol=1e-9)
    assert point.residual <= 1e-9
    assert report.continua == tuple([report.continua[0]])
    assert report.continua[0].support == (0, 2)
    assert report.continua[0].classification == "edge"


def test_fixed_point_stability_labels():
    report = fixed_points(CLASSIC, tol=1e-9)
    by_class = {tuple(np.round(p.x, 6)): p for p in report.points}
    assert by_class[(0.0, 1.0, 0.0)].stability == "stable"  # AllD resists invasion
    assert by_class[(1.0, 0.0, 0.0)].stability == "neutral"  # TFT invades neutrally
    assert by_class[(0.0, 0.0, 1.0)].stability == "neutral"


def test_one_shot_pd_only_vertices():
    pd = PayoffMatrix(("AllC", "AllD"), [[3, 0], [5, 1]])
    report = fixed_points(pd, tol=1e-9)
    assert {p.classification for p in report.points} == {"vertex"}
    assert not report.continua
    stab = {tuple(p.x): p.stability for p in report.points}
    assert stab[(0.0, 1.0)] == "stable"
    assert stab[(1.0, 0.0)] == "unstable"


def test_identity_matrix_interior_barycenter():
    eye = PayoffMatrix(("a", "b", "c"), (5 * np.eye(3)).tolist())
    report = fixed_points(eye, tol=1e-9)
    interior = [p for p in report.points if p.classification == "interior"]
    assert len(interior) == 1
    assert np.allclose(interior[0].x, np.full(3, 1 / 3))


@pytest.mark.parametrize(
    "matrix, expected",
    [
        (PayoffMatrix(("a",), [[2]]), [([1.0], "vertex", "neutral")]),
        (
            PayoffMatrix(("a", "b"), [[2, 0], [0, 1]]),  # coordination: x_a = 1/3 splits
            [([1.0, 0.0], "vertex", "stable"), ([0.0, 1.0], "vertex", "stable"),
             ([1 / 3, 2 / 3], "edge", "unstable")],
        ),
        (
            CLASSIC,
            [([1.0, 0.0, 0.0], "vertex", "neutral"), ([0.0, 1.0, 0.0], "vertex", "stable"),
             ([0.0, 0.0, 1.0], "vertex", "neutral"),
             ([0.0, 16 / 17, 1 / 17], "edge", "unstable")],
        ),
    ],
    ids=["one-type", "two-types", "classic"],
)
def test_fixed_points_list_vertices_first_in_index_order(matrix, expected):
    report = fixed_points(matrix, tol=1e-9)
    assert [(p.classification, p.stability) for p in report.points] == [
        (kind, stability) for _, kind, stability in expected
    ]
    for point, (x, _, _) in zip(report.points, expected):
        assert np.allclose(point.x, x, atol=1e-12) and point.residual <= 1e-12


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(10):
        x = rng.dirichlet(np.ones(3))
        analytic = _jacobian(CLASSIC.a, x)
        eps = 1e-6
        numeric = np.zeros((3, 3))
        for j in range(3):
            left = x.copy()
            right = x.copy()
            left[j] -= eps
            right[j] += eps
            numeric[:, j] = (
                replicator_derivative(CLASSIC.a, right)
                - replicator_derivative(CLASSIC.a, left)
            ) / (2 * eps)
        assert np.allclose(analytic, numeric, atol=1e-5)


@pytest.mark.parametrize("tol", [-1.0, -1e-300, float("nan"), float("inf")], ids=repr)
def test_fixed_points_tol_must_be_non_negative_and_finite(tol):
    with pytest.raises(ValueError, match="tol must be non-negative and finite"):
        fixed_points(CLASSIC, tol=tol)


def test_fixed_points_tol_zero_is_legal():
    report = fixed_points(CLASSIC, tol=0.0)
    assert [p.classification for p in report.points] == ["vertex"] * 3 + ["edge"]


def test_fixed_points_limited_to_three_types():
    big = PayoffMatrix(tuple("abcd"), np.eye(4).tolist())
    with pytest.raises(ValueError):
        fixed_points(big)


# --------------------------------------------------------------------------
# estimation


def test_estimate_exact_matrix(allc, alld, tft):
    matrix = estimate_payoff_matrix(
        [("AllC", allc), ("AllD", alld), ("TFT", tft)],
        MatchConfig(rounds=10, seed=0),
    )
    assert np.array_equal(matrix.a, CLASSIC.a)


def test_estimate_repetitions_identical_for_deterministic(allc, alld, tft):
    types = [("AllC", allc), ("AllD", alld), ("TFT", tft)]
    m1 = estimate_payoff_matrix(types, MatchConfig(rounds=10, seed=0), repetitions=1)
    m10 = estimate_payoff_matrix(types, MatchConfig(rounds=10, seed=0), repetitions=10)
    assert np.array_equal(m1.a, m10.a)


def test_estimate_stochastic_mean_matches_samples(allc):
    flip = load_program('fn strategy() {\n    return choice(["C", "D"])\n}\n')
    types = [("AllC", allc), ("Flip", flip)]
    cfg = MatchConfig(rounds=10, seed=0)
    matrix = estimate_payoff_matrix(types, cfg, repetitions=7)
    cell = round_robin(types, cfg, 7).samples[(1, 0)]
    assert len(cell) == 7 and len({p for _, p in cell}) > 1  # the samples differ
    assert matrix.a[1, 0] == sum(p for _, p in cell) / len(cell)


def test_default_evolution_rounds_pinned():
    assert EVOLUTION_ROUNDS == 50


def test_matrix_validation():
    with pytest.raises(ValueError):
        PayoffMatrix(("a",), [[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        PayoffMatrix(("a", "b"), [[1, float("nan")], [0, 1]])
    with pytest.raises(ValueError):
        PayoffMatrix(("a", "b"), [[1, 2, 3], [4, 5, 6]])


def test_matrix_json_roundtrip():
    again = PayoffMatrix.from_json_dict(CLASSIC.to_json_dict())
    assert again.tags == CLASSIC.tags
    assert np.array_equal(again.a, CLASSIC.a)


@pytest.mark.parametrize(
    "obj",
    [
        [[1, 0], [0, 1]],
        {"tags": "ab", "matrix": [[1, 0], [0, 1]]},
        {"tags": ["a", 2], "matrix": [[1, 0], [0, 1]]},
        {"matrix": [[1, 0], [0, 1]]},
        {"tags": ["a", "b"], "matrix": "1001"},
        {"tags": ["a", "b"], "matrix": [[1, {}], [0, 1]]},
    ],
    ids=["list", "tags-string", "tag-number", "no-tags", "matrix-string", "entry-object"],
)
def test_matrix_from_malformed_json_is_a_value_error(obj):
    with pytest.raises(ValueError):
        PayoffMatrix.from_json_dict(obj)
