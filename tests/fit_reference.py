"""The weight and GEV fits through scipy.optimize.minimize(method="L-BFGS-B"):
the oracles for mln.fit_stats and distributions._fit_gev, which drive the
same compiled routine through compiled.lbfgsb, the package's own loop, so
a bug in that loop or its finite-difference gradient cannot show on both
sides."""

import math

import numpy as np
from scipy import optimize

from logicood.distributions import _SHAPE_BOUND, _gev_nll, _gev_pwm_start, _spread
from logicood.errors import NumericalError


def reference_fit(stats, n_constraints, cfg):
    """(history, minimize's result) from cfg.init_weight, with the NLL
    recomputed at every accepted iterate and fit_stats's NumericalErrors."""
    w0 = np.full(n_constraints, cfg.init_weight)
    history = [stats.nll_grad(w0)[0]]
    if not np.isfinite(history[0]):
        raise NumericalError("non-finite NLL at initialization")

    def record(wk):
        value = stats.nll_grad(wk)[0]
        if not np.isfinite(value):
            raise NumericalError(f"non-finite NLL at iteration {len(history)}")
        history.append(value)

    result = optimize.minimize(
        stats.nll_grad,
        w0,
        jac=True,
        method="L-BFGS-B",
        callback=record,
        options={"maxiter": cfg.max_epochs, "ftol": cfg.convergence_tol, "gtol": 1e-12},
    )
    if not np.all(np.isfinite(result.x)):
        raise NumericalError(f"non-finite weights after {len(history) - 1} iterations")
    return tuple(history), result


def reference_gev_fit(x):
    """(location, scale, shape) of the GEV fit as it was before it drove
    L-BFGS-B itself: the same start, then minimize with its defaults and
    its forward-difference gradient."""
    mu0, sigma0, xi0 = _gev_pwm_start(_spread(x))
    if not (np.isfinite(mu0) and np.isfinite(sigma0) and sigma0 > 0):
        mu0, sigma0, xi0 = x.mean(), x.std(), 0.0
    xi0 = float(np.clip(xi0, -_SHAPE_BOUND + 1e-3, _SHAPE_BOUND - 1e-3))
    result = optimize.minimize(
        _gev_nll,
        np.array([mu0, math.log(sigma0), xi0]),
        args=(x,),
        method="L-BFGS-B",
        bounds=[(None, None), (None, None), (-_SHAPE_BOUND, _SHAPE_BOUND)],
    )
    if not np.all(np.isfinite(result.x)):
        raise NumericalError(f"GEV fit failed: {result.message}")
    mu, log_sigma, xi = result.x
    return mu, math.exp(log_sigma), xi
