"""Reference for the lockstep solver in `fieldarm.lsq`: the one-start form.

This is the Levenberg-Marquardt loop that `fieldarm.lsq.least_squares`
runs for a stack of starts at once: one start at a time, its
forward-difference Jacobian one residual call per parameter. A stacked
solve must reproduce, start by start and bit for bit, what this gives.
The residual takes one parameter vector and returns its residuals.
"""

import math

import numpy as np

from fieldarm.lsq import LeastSquaresResult

_SQRT_EPS = math.sqrt(np.finfo(float).eps)
_TINY = np.finfo(float).tiny


def _residuals(fun, x):
    return np.asarray(fun(x), dtype=float).ravel()


def _jacobian(fun, x, f):
    # forward step h = sqrt(eps) sign(x) max(1, |x|), rounded so x + h - x is exact
    h = _SQRT_EPS * np.where(x >= 0, 1.0, -1.0) * np.maximum(1.0, np.abs(x))
    h = (x + h) - x
    J = np.empty((f.size, x.size))
    for j in range(x.size):
        xh = x.copy()
        xh[j] += h[j]
        J[:, j] = (_residuals(fun, xh) - f) / h[j]
    return J


def least_squares(fun, x0, xtol=1e-8, ftol=1e-8, gtol=1e-8):
    """Minimise 0.5 * ||fun(x)||^2 from x0; returns a LeastSquaresResult.

    Succeeds when the largest cosine between the residual vector and a
    Jacobian column is <= gtol, when an accepted step lowers the cost by
    less than ftol * cost (and by more than a quarter of the predicted
    reduction), or when a trial step is no longer than xtol * (xtol + ||x||).
    Fails after 100 * len(x0) evaluations or on a non-finite Jacobian.
    Raises ValueError if the residuals at x0 are not finite; a trial step
    with non-finite residuals is rejected.
    """
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    f = _residuals(fun, x)
    if not np.all(np.isfinite(f)):
        raise ValueError("residuals are not finite at the initial point")
    nfev, max_nfev = 1, 100 * x.size
    cost = 0.5 * float(f @ f)
    J = _jacobian(fun, x, f)
    scale = np.zeros(x.size)
    mu, nu, success = None, 2.0, False
    while True:
        norms = np.linalg.norm(J, axis=0)
        cosines = np.abs(J.T @ f) / np.maximum(norms * math.sqrt(2.0 * cost), _TINY)
        if cost == 0.0 or np.max(cosines) <= gtol:
            success = True
            break
        if nfev >= max_nfev or not np.all(np.isfinite(J)):
            break
        scale = np.maximum(scale, np.where(norms > 0, norms, 1.0))
        U, s, Vt = np.linalg.svd(J / scale, full_matrices=False)
        sf = s * (U.T @ f)
        if mu is None:
            mu = 1e-3 * s[0] ** 2
        while True:  # raise the damping until a step lowers the cost
            z = -sf / (s * s + mu)  # scaled step in the right singular basis
            h = (Vt.T @ z) / scale
            predicted = -float(z @ sf) - 0.5 * float((s * z) @ (s * z))
            f_new = _residuals(fun, x + h)
            nfev += 1
            cost_new = 0.5 * float(f_new @ f_new) if np.all(np.isfinite(f_new)) else math.inf
            actual = cost - cost_new
            rho = actual / predicted if predicted > 0 else 0.0
            success = (np.linalg.norm(h) <= xtol * (xtol + np.linalg.norm(x))
                       or (actual < ftol * cost and rho > 0.25))
            if actual > 0:
                mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
                nu = 2.0
                break
            mu *= nu
            nu *= 2.0
            if success or nfev >= max_nfev:
                break
        if actual > 0:
            x, f, cost = x + h, f_new, cost_new
            J = _jacobian(fun, x, f)
        if success:
            break
    return LeastSquaresResult(x, f, J, cost, nfev, success)
