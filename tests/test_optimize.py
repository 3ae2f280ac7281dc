import ast
import inspect

import numpy as np
import pytest

from qbcbound import optimize


def test_optimize_imports_no_qbcbound_module():
    # the optimizer knows nothing of squashing or rates: both import it
    tree = ast.parse(inspect.getsource(optimize))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import"
            imported.add(node.module)
    assert imported == {"math", "dataclasses", "numpy"}


def test_minimize_reaches_the_minimum_of_separable_rows():
    # one batch of independent rows: quadratics conditioned up to 1e4 with
    # known minimizers, and Rosenbrock functions, minimized at the ones
    rng = np.random.default_rng(0)
    n = 4
    targets = rng.uniform(-2, 2, (4, n))
    weights = [10.0 ** (c * np.arange(n) / (n - 1)) for c in range(4)]

    def fun(x, rows):
        values, grads = np.zeros(len(rows)), np.zeros((len(rows), n))
        for i, (xi, r) in enumerate(zip(x, rows.tolist())):
            if r < 4:
                dx = xi - targets[r]
                values[i], grads[i] = weights[r] @ dx**2, 2 * weights[r] * dx
            else:
                a, b = xi[:-1], xi[1:]
                values[i] = np.sum(100 * (b - a**2) ** 2 + (1 - a) ** 2)
                grads[i, :-1] = -400 * a * (b - a**2) - 2 * (1 - a)
                grads[i, 1:] += 200 * (b - a**2)
        return values, grads

    x0 = np.concatenate([np.zeros((4, n)), [[-1.2, 1.0, -1.2, 1.0], [2.0, -1.0, 0.5, 2.0]]])
    res = optimize.minimize(fun, x0, max_iters=1000, ftol=1e-15, gtol=1e-9)
    assert res.success and res.converged.all()
    assert np.max(np.abs(res.x[:4] - targets)) < 1e-8
    assert np.max(np.abs(res.x[4:] - 1.0)) < 1e-6
    assert np.max(res.fun) < 1e-12
    assert res.nfev >= res.nit > 0


def _random_descent_function(rng):
    """A smooth 1-D function with a negative slope at 0 and bounded below:
    a linear descent, a quadratic of either sign, a ripple and a quartic
    wall, each scaled over decades."""
    slope = -(10.0 ** rng.uniform(-3, 2))
    quad = rng.uniform(-1, 1) * 10.0 ** rng.uniform(-2, 2)
    amp, freq = 10.0 ** rng.uniform(-3, 1), 10.0 ** rng.uniform(-1, 1.5)
    wall = 10.0 ** rng.uniform(-3, 2)

    def phi(a):
        return slope * a + quad * a * a + amp * (1 - np.cos(freq * a)) + wall * a**4

    def derphi(a):
        return slope + 2 * quad * a + amp * freq * np.sin(freq * a) + 4 * wall * a**3

    return phi, derphi


def test_line_search_takes_the_trial_steps_of_scipys_dcsrch():
    # the Moré-Thuente search is MINPACK-2's dcsrch; scipy ships a port of
    # it, which must propose the same trial steps in the same order
    dcsrch = pytest.importorskip("scipy.optimize._dcsrch")
    rng = np.random.default_rng(0)
    cap = 100
    for _ in range(400):
        phi, derphi = _random_descent_function(rng)
        f0, g0 = float(phi(0.0)), float(derphi(0.0))
        for stp in (1.0, rng.uniform(1e-3, 1.0)):
            theirs = []

            def traced_phi(a):
                theirs.append(a)
                return float(phi(a))

            search = dcsrch.DCSRCH(
                traced_phi, lambda a: float(derphi(a)),
                optimize._C1, optimize._C2, optimize._XTOL, 0.0, optimize._STEP_MAX,
            )
            search(stp, phi0=f0, derphi0=g0, maxiter=cap)
            ours, ls, trial = [], optimize._LineSearch(f0, g0, stp), stp
            while trial is not None and len(ours) < cap:
                ours.append(trial)
                trial = ls.next(trial, float(phi(trial)), float(derphi(trial)))
            assert len(theirs) < cap
            assert ours == theirs


def test_uphill_direction_falls_back_to_steepest_descent(monkeypatch):
    # a two-loop direction that rounding has turned uphill is replaced by
    # steepest descent; here every one is uphill, and the row still converges
    monkeypatch.setattr(optimize, "_two_loop", lambda g, *args: g.copy())
    weights = np.array([1.0, 2.0, 4.0])
    target = np.array([1.0, -2.0, 0.5])

    def fun(x, rows):
        dx = x - target
        return (weights * dx**2).sum(axis=1), 2 * weights * dx

    res = optimize.minimize(fun, np.zeros((1, 3)), max_iters=1000, gtol=1e-9)
    assert res.success
    assert np.max(np.abs(res.x[0] - target)) < 1e-8
    assert res.fun[0] < 1e-16


def test_non_finite_trial_ends_only_its_own_row():
    # f(x) = |x|^2 - 4 x_0, minimized at (2, 0); row 1 is +inf wherever
    # |x|_inf > 0.5, so its first trial leaves the line search no defined
    # step, and the row stops at its start while row 0 runs as it would alone
    def fun(x, rows):
        values = (x**2).sum(axis=1) - 4 * x[:, 0]
        values[(rows == 1) & (np.abs(x).max(axis=1) > 0.5)] = np.inf
        return values, 2 * x - [4.0, 0.0]

    x0 = np.zeros((2, 2))
    both = optimize.minimize(fun, x0, max_iters=100, gtol=1e-9)
    alone = optimize.minimize(fun, x0[:1], max_iters=100, gtol=1e-9)
    assert both.converged.tolist() == [True, False] and not both.success
    assert np.array_equal(both.x[1], x0[1]) and both.fun[1] == 0.0
    assert np.max(np.abs(both.x[0] - [2.0, 0.0])) < 1e-8
    for field in ("x", "fun", "jac"):
        assert np.array_equal(getattr(both, field)[0], getattr(alone, field)[0]), field
