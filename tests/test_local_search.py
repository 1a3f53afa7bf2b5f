"""The local searches: Nelder-Mead's sorted simplex and the free-variable gradient steps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import quadratic
from latefuse.fusion import equal_weights, make_mse_objective
from latefuse.ingestion import apply_minmax, assemble, fit_minmax
from latefuse.optimizers import check, common, optimize
from latefuse.optimizers.common import (
    Search,
    free_set,
    line_search,
    projected_gradient_norm,
)
from latefuse.optimizers.nelder_mead import _initial_simplex
from latefuse.synth import SynthSpec
from oracles import build_tables


def _reference_nelder_mead(objective, settings):
    """Nelder-Mead as it was before the simplex was kept sorted: a stable argsort every iteration.

    Like the method, its search state starts from the equal weights, and it takes
    the standard coefficients: reflection 1, expansion 2, contraction and shrink 1/2.
    """
    p = check("nelder-mead", settings)
    alpha, gamma, beta, delta = 1.0, 2.0, 0.5, 0.5
    search = Search(objective, "nelder-mead", p)

    simplex = _initial_simplex(equal_weights(objective.dimension), 0.05)
    values = np.array([search.value(v) for v in simplex])
    b = int(np.argmin(values))
    search.consider(simplex[b], 0)

    converged = False
    iterations = 0
    for it in range(1, p["max_iterations"] + 1):
        iterations = it
        order = np.argsort(values, kind="stable")
        simplex = simplex[order]
        values = values[order]

        f_spread = float(np.max(np.abs(values[1:] - values[0])))
        x_spread = float(np.max(np.abs(simplex[1:] - simplex[0])))
        if f_spread <= p["tolerance"] and x_spread <= p["tolerance"]:
            converged = True
            iterations = it - 1
            break

        centroid = simplex[:-1].mean(axis=0)
        worst = simplex[-1]
        reflected = np.clip(centroid + alpha * (centroid - worst), 0.0, 1.0)
        f_reflected = search.value(reflected)

        if f_reflected < values[0]:
            expanded = np.clip(centroid + gamma * (centroid - worst), 0.0, 1.0)
            f_expanded = search.value(expanded)
            if f_expanded < f_reflected:
                simplex[-1], values[-1] = expanded, f_expanded
            else:
                simplex[-1], values[-1] = reflected, f_reflected
        elif f_reflected < values[-2]:
            simplex[-1], values[-1] = reflected, f_reflected
        else:
            if f_reflected < values[-1]:
                contracted = np.clip(centroid + beta * (centroid - worst), 0.0, 1.0)
            else:
                contracted = np.clip(centroid - beta * (centroid - worst), 0.0, 1.0)
            f_contracted = search.value(contracted)
            if f_contracted < min(f_reflected, values[-1]):
                simplex[-1], values[-1] = contracted, f_contracted
            else:
                for i in range(1, simplex.shape[0]):
                    simplex[i] = np.clip(simplex[0] + delta * (simplex[i] - simplex[0]), 0.0, 1.0)
                    values[i] = search.value(simplex[i])

        b = int(np.argmin(values))
        if values[b] < search.best_f:
            search.consider(simplex[b], it)

    return search.report(iterations, converged)


def _quantised_quadratic(center, scales, step):
    """A separable quadratic rounded to multiples of ``step``, so vertex values tie.

    The rounded form is both the search value and the exact score.
    """

    def value(x):
        d = np.asarray(x) - center
        return math.floor(float(scales @ (d * d)) / step + 0.5) * step

    objective = quadratic(np.diag(scales), scales * center, scales @ (center * center))
    objective.value = objective.exact = value
    return objective


@settings(max_examples=300, deadline=None)
@given(
    m=st.integers(1, 8),
    data=st.data(),
    step=st.sampled_from([1e-2, 1e-4]),
    max_iterations=st.integers(1, 400),
    tolerance=st.sampled_from([1e-12, 1e-8, 1e-4, 1e-2]),
)
def test_nelder_mead_matches_argsort_every_iteration(m, data, step, max_iterations, tolerance):
    center = np.array(data.draw(st.lists(st.floats(-0.5, 1.5), min_size=m, max_size=m), label="center"))
    scales = np.array(data.draw(st.lists(st.floats(0.1, 10.0), min_size=m, max_size=m), label="scales"))
    objective = _quantised_quadratic(center, scales, step)
    settings = {"max_iterations": max_iterations, "tolerance": tolerance}

    expected = _reference_nelder_mead(objective, settings)
    got = optimize("nelder-mead", objective, settings)
    assert got.best_weights.tobytes() == expected.best_weights.tobytes()
    assert got.best_objective == expected.best_objective
    assert got.trace == expected.trace
    assert got.function_evaluations == expected.function_evaluations
    assert got.iterations == expected.iterations
    assert got.converged == expected.converged


def test_free_set_at_the_bounds():
    x = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.5, 0.5, 0.5])
    g = np.array([1.0, -1.0, 0.0, -1.0, 1.0, 0.0, 1.0, -1.0, 0.0])
    # at the lower bound: fixed when the gradient pushes out (g > 0), free when it pulls in;
    # the mirror image at the upper bound; interior variables are always free
    expected = [False, True, False, False, True, False, True, True, True]
    assert free_set(x, g).tolist() == expected


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    m=st.integers(1, 8),
)
def test_no_free_variable_means_zero_projected_gradient(data, m):
    """With every variable held on a bound, the KKT residual is exactly 0, so no search step is tried."""
    coordinate = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    x = np.array(data.draw(st.lists(coordinate, min_size=m, max_size=m), label="x"))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    g = np.array(data.draw(st.lists(finite, min_size=m, max_size=m), label="g"))
    if not free_set(x, g).any():
        assert projected_gradient_norm(x, g) == 0.0


def _coupled_quadratic(m, seed):
    """(x - c)' A (x - c) = x'Ax - 2(Ac)'x + c'Ac with a dense SPD A and a centre partly outside [0, 1]^m."""
    rng = np.random.default_rng(seed)
    root = rng.normal(size=(m, m))
    a = root @ root.T + 0.1 * np.eye(m)
    c = rng.uniform(-1.0, 2.0, size=m)
    return quadratic(a, a @ c, c @ a @ c)


@pytest.mark.parametrize("method", ["lbfgsb", "trust-region"])
@pytest.mark.parametrize("m", [4, 12])
def test_step_leaves_fixed_variables_unchanged(method, m):
    """Each step keeps the variables that the gradient holds on a bound where they are."""
    pinned = 0
    for seed in range(10):
        objective = _coupled_quadratic(m, seed)
        states = [
            optimize(method, objective, {"max_iterations": k}).best_weights
            for k in range(1, 25)
        ]
        for before, after in zip(states, states[1:]):
            fixed = ~free_set(before, objective.gradient(before))
            assert np.array_equal(after[fixed], before[fixed]), seed
            pinned += int(fixed.sum())
    assert pinned > 0  # some variable sat on a bound with the gradient pushing out


def _paper_shaped_dev(seed):
    """1877 x 29 dev split as ``scripts/make_synth_data.py --noise 0.05`` draws it, min-max normalised."""
    w_star = np.random.default_rng(seed).uniform(0.05, 1.0, size=29)
    spec = SynthSpec(1877, 29, 30, seed, planted_weights=w_star.tolist(), noise_sigma=0.05, key_prefix="d")
    dev = assemble(*build_tables(spec))
    return apply_minmax(fit_minmax(dev), dev)


def _objective_and_optimum(seed):
    """The `_paper_shaped_dev` objective and its minimum over the box, from scipy's BVLS."""
    optimize_ = pytest.importorskip("scipy.optimize")
    dev = _paper_shaped_dev(seed)
    exact = optimize_.lsq_linear(dev.scores, dev.labels, bounds=(0.0, 1.0), method="bvls", tol=1e-15)
    objective = make_mse_objective(dev)
    return objective, objective.value(exact.x)


def _scipy_minimize(objective, method, **kwargs):
    """scipy's bounded `minimize` on our objective, from our start (the equal weights) in our box."""
    optimize_ = pytest.importorskip("scipy.optimize")
    bounds = optimize_.Bounds(0.0, 1.0)
    x0 = equal_weights(objective.dimension)
    return optimize_.minimize(objective.value, x0, bounds=bounds, method=method, **kwargs)


@pytest.mark.parametrize("seed", range(3))
def test_gradient_methods_terminate_at_the_optimum_full_dimension(seed):
    objective, optimum = _objective_and_optimum(seed)
    for method in ("lbfgsb", "trust-region", "tnc"):
        report = optimize(method, objective)
        assert report.converged, method
        assert report.function_evaluations <= 100, method
        assert abs(report.best_objective - optimum) <= 1e-12 * optimum, method


# the paper's local methods, as scipy's bounded `minimize` names them
SCIPY_COUNTERPARTS = {"lbfgsb": "L-BFGS-B", "tnc": "TNC", "trust-region": "trust-constr"}


@pytest.mark.parametrize("seed", range(3))
def test_gradient_methods_end_no_farther_from_the_optimum_than_scipy(seed):
    objective, optimum = _objective_and_optimum(seed)
    for method, counterpart in SCIPY_COUNTERPARTS.items():
        ours = optimize(method, objective).best_objective - optimum
        theirs = objective.value(_scipy_minimize(objective, counterpart, jac=objective.gradient).x) - optimum
        assert ours <= theirs + 1e-12, (method, ours, theirs)


@pytest.mark.parametrize("seed", range(3))
def test_nelder_mead_stops_at_its_budget_short_of_the_optimum_like_scipy(seed):
    """Both bounded Nelder-Meads run out of iterations with a nonzero gap; run with -s to see both gaps."""
    objective, optimum = _objective_and_optimum(seed)
    ours = optimize("nelder-mead", objective)
    max_iterations = ours.settings["max_iterations"]
    theirs = _scipy_minimize(objective, "Nelder-Mead", options={"maxiter": max_iterations})
    ours_gap, scipy_gap = ours.best_objective - optimum, objective.value(theirs.x) - optimum
    print(
        f"seed {seed}: nelder-mead gap {ours_gap:.3e} ({ours.function_evaluations} f-evals), "
        f"scipy Nelder-Mead gap {scipy_gap:.3e} ({theirs.nfev} f-evals, {theirs.message})"
    )
    assert not ours.converged and ours.iterations == max_iterations
    assert theirs.status == 2 and theirs.nit == max_iterations  # scipy: iteration limit reached
    assert ours_gap > 0 and scipy_gap > 0


# ---------------------------------------------------------------- unconverged stops

def _lying_objective(m):
    """|x - 0.3|^2 with its gradient's sign flipped: every descent direction climbs."""
    objective = quadratic(np.eye(m), np.full(m, 0.3), m * 0.09)
    objective.gradient = lambda x: -2.0 * (x - 0.3)
    return objective


@pytest.mark.parametrize(
    "method, max_iterations, expected",
    [
        ("lbfgsb", 10000, (1, False, 54, 1)),  # both line searches fail
        ("tnc", 10000, (1, False, 107, 2)),  # both line searches fail
        ("trust-region", 10000, (24, False, 25, 1)),  # the radius falls below 1e-14
        ("trust-region", 3, (3, False, 4, 1)),  # the budget runs out first
    ],
    ids=["lbfgsb", "tnc", "trust-region-radius", "trust-region-budget"],
)
def test_gradient_methods_stop_unconverged_without_a_step(method, max_iterations, expected):
    report = optimize(method, _lying_objective(4), {"max_iterations": max_iterations})
    got = (report.iterations, report.converged, report.function_evaluations, report.gradient_evaluations)
    assert got == expected
    assert report.best_weights.tolist() == equal_weights(4).tolist()


# ---------------------------------------------------------------- line search

def _line_search_state(g_sign=1.0):
    """A Search on |x - (0.2, 0.4)|^2 in [0, 1]^2 at x = (0.5, 0.5), with f and g_sign times the gradient."""
    c = np.array([0.2, 0.4])
    search = Search(quadratic(np.eye(2), c, c @ c), "lbfgsb", check("lbfgsb", {}))
    x = np.array([0.5, 0.5])
    return search, x, float(np.sum((x - c) ** 2)), g_sign * 2.0 * (x - c)


def test_line_search_falls_back_when_the_direction_climbs():
    search, x, f, g = _line_search_state()
    trial, f_trial, fell_back = line_search(search, x, f, g, g.copy(), -g)
    assert fell_back
    assert trial.tolist() == np.clip(x - g, 0.0, 1.0).tolist()  # the full steepest step
    assert f_trial < f
    assert search.function_evaluations == 1  # the climbing direction cost no evaluation


# At the cap of 60 trials the trial point would round back to x after 54 halvings, so the
# tests that count the cap lower it to 5.

def test_line_search_tries_steepest_once(monkeypatch):
    monkeypatch.setattr(common, "MAX_BACKTRACKS", 5)
    search, x, f, g = _line_search_state(g_sign=-1.0)  # every trial climbs
    steepest = -g
    assert line_search(search, x, f, g, steepest, steepest) is None
    assert search.function_evaluations == common.MAX_BACKTRACKS


def test_line_search_without_a_step_in_either_direction(monkeypatch):
    monkeypatch.setattr(common, "MAX_BACKTRACKS", 5)
    search, x, f, g = _line_search_state(g_sign=-1.0)
    steepest = -g
    assert line_search(search, x, f, g, steepest.copy(), steepest) is None
    assert search.function_evaluations == 2 * common.MAX_BACKTRACKS  # equal values, two directions
