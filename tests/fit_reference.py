"""The weight fit through scipy.optimize.minimize(method="L-BFGS-B"): the
oracle for mln.fit_stats, which drives the same compiled routine with its
own loop, so a bug in that loop cannot show on both sides."""

import numpy as np
from scipy import optimize

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
