"""Dense Levenberg-Marquardt least squares for the toolkit's small fits.

Minimises cost = 0.5 * ||fun(x)||^2 with a forward-difference Jacobian,
Marquardt's column scaling and Nielsen's damping update (Moré 1978;
Madsen, Nielsen & Tingleff 2004). Each trial step solves the damped
system through the SVD of the scaled Jacobian, so no normal matrix is
formed. The fits here have at most six parameters.

The residual is array-first: `fun` maps (..., n) parameters to (..., m)
residuals, each row from its own parameters alone. A stack of k starts is
solved in lockstep. Each round makes one residual call for the trial step
of every start still searching, and one more for the Jacobians of the
starts whose step was accepted; a Jacobian is one call on x + diag(h).
Every start takes the steps it would take alone.
"""

import math
from typing import NamedTuple

import numpy as np

_SQRT_EPS = math.sqrt(np.finfo(float).eps)
_TINY = np.finfo(float).tiny


class LeastSquaresResult(NamedTuple):
    x: np.ndarray
    fun: np.ndarray     # residuals at x
    jac: np.ndarray     # forward-difference Jacobian at x
    cost: float         # 0.5 * fun @ fun
    nfev: int           # residual evaluations, not counting the Jacobian's
    success: bool       # a tolerance was met within 100 * len(x) evaluations


def _jacobians(fun, x, f):
    """The (k, m, n) Jacobians at the k rows of x, whose residuals are f."""
    # forward step h = sqrt(eps) sign(x) max(1, |x|), rounded so x + h - x is exact
    h = _SQRT_EPS * np.where(x >= 0, 1.0, -1.0) * np.maximum(1.0, np.abs(x))
    h = (x + h) - x
    j = np.arange(x.shape[1])
    xh = np.repeat(x[:, None, :], x.shape[1], axis=1)  # row j steps parameter j
    xh[:, j, j] += h
    df = (np.asarray(fun(xh), dtype=float) - f[:, None, :]) / h[:, :, None]
    # C order: the SVD of a transposed view rounds differently
    return np.ascontiguousarray(df.transpose(0, 2, 1))


class _Start:
    """One start's iterate and damping between the stack's residual calls."""

    def __init__(self, x, f):
        self.x, self.f, self.cost = x, f, 0.5 * float(f @ f)
        self.nfev, self.scale = 1, np.zeros(x.size)
        self.mu, self.nu, self.success = None, 2.0, False

    def factor(self, tol, max_nfev):
        """Test convergence at a new Jacobian, else factor it and set a trial
        step; False when the start is finished."""
        J, f = self.jac, self.f
        norms = np.linalg.norm(J, axis=0)
        cosines = np.abs(J.T @ f) / np.maximum(norms * math.sqrt(2.0 * self.cost), _TINY)
        if self.cost == 0.0 or np.max(cosines) <= tol:
            self.success = True
            return False
        if self.nfev >= max_nfev or not np.all(np.isfinite(J)):
            return False
        self.scale = np.maximum(self.scale, np.where(norms > 0, norms, 1.0))
        U, self.s, self.Vt = np.linalg.svd(J / self.scale, full_matrices=False)
        self.sf = self.s * (U.T @ f)
        if self.mu is None:
            self.mu = 1e-3 * self.s[0] ** 2
        self.set_step()
        return True

    def set_step(self):
        z = -self.sf / (self.s * self.s + self.mu)  # scaled step in the right singular basis
        self.h = (self.Vt.T @ z) / self.scale
        self.predicted = -float(z @ self.sf) - 0.5 * float((self.s * z) @ (self.s * z))

    def judge(self, f_new, tol, max_nfev):
        """Take the trial step if it lowers the cost ("stepped"); else raise
        the damping and set the next trial step ("retry") or stop ("done")."""
        self.nfev += 1
        cost_new = 0.5 * float(f_new @ f_new) if np.all(np.isfinite(f_new)) else math.inf
        actual = self.cost - cost_new
        rho = actual / self.predicted if self.predicted > 0 else 0.0
        self.success = (np.linalg.norm(self.h) <= tol * (tol + np.linalg.norm(self.x))
                        or (actual < tol * self.cost and rho > 0.25))
        if actual > 0:
            self.mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            self.nu = 2.0
            self.x, self.f, self.cost = self.x + self.h, f_new, cost_new
            return "stepped"
        self.mu *= self.nu
        self.nu *= 2.0
        if self.success or self.nfev >= max_nfev:
            return "done"
        self.set_step()
        return "retry"


def least_squares(fun, x0, tol=1e-8):
    """Minimise 0.5 * ||fun(x)||^2 from x0; returns a LeastSquaresResult.

    A 1-D x0 is one start. An x0 of shape (k, n) is k starts, solved in
    lockstep, and returns a list of k results.
    A start succeeds when the largest cosine between the residual vector and a
    Jacobian column is <= tol, when an accepted step lowers the cost by
    less than tol * cost (and by more than a quarter of the predicted
    reduction), or when a trial step is no longer than tol * (tol + ||x||).
    (scipy's xtol, ftol and gtol, all set to tol.)
    It fails after 100 * n evaluations or on a non-finite Jacobian.
    Raises ValueError if the residuals at any start are not finite; a trial
    step with non-finite residuals is rejected.
    """
    x = np.array(x0, dtype=float, ndmin=2)
    f = np.asarray(fun(x), dtype=float)
    if not np.all(np.isfinite(f)):
        raise ValueError("residuals are not finite at the initial point")
    max_nfev = 100 * x.shape[1]
    starts = [_Start(xi, fi) for xi, fi in zip(x, f)]
    stepped, searching = starts, []  # at a new x; with a trial step set
    while True:
        if stepped:
            jacs = _jacobians(fun, np.array([s.x for s in stepped]),
                              np.array([s.f for s in stepped]))
            for start, J in zip(stepped, jacs):
                start.jac = J
        searching += [s for s in stepped if not s.success and s.factor(tol, max_nfev)]
        if not searching:
            break
        f_new = np.asarray(fun(np.array([s.x + s.h for s in searching])), dtype=float)
        verdicts = [s.judge(fs, tol, max_nfev) for s, fs in zip(searching, f_new)]
        stepped = [s for s, v in zip(searching, verdicts) if v == "stepped"]
        searching = [s for s, v in zip(searching, verdicts) if v == "retry"]
    results = [LeastSquaresResult(s.x, s.f, s.jac, s.cost, s.nfev, s.success) for s in starts]
    return results if np.ndim(x0) == 2 else results[0]


def parameter_errors(sol: LeastSquaresResult) -> np.ndarray:
    """1-sigma errors of a fit: the square roots of the diagonal of the
    covariance ||f||^2 / (m - n) (J^T J)^-1, for m residuals and n parameters.

    Raises numpy.linalg.LinAlgError when J^T J is singular.
    """
    m, n = sol.jac.shape
    cov = float(sol.fun @ sol.fun) / (m - n) * np.linalg.inv(sol.jac.T @ sol.jac)
    return np.sqrt(np.maximum(np.diag(cov), 0.0))
