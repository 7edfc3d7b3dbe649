"""scipy's compiled modules, each loaded on first use without the package
__init__ that imports much of scipy; and the one L-BFGS-B driver."""

import functools

import numpy as np


@functools.cache
def compiled(package: str, name: str):
    """scipy.<package>.<name>, loaded alone (a second copy if scipy loads it too)."""
    from importlib import import_module, machinery, util

    scipy_dir = util.find_spec("scipy").submodule_search_locations[0]
    spec = machinery.PathFinder.find_spec(name, [f"{scipy_dir}/{package}"])
    if spec is None:  # kept elsewhere by this scipy: through its package
        return import_module(f"scipy.{package}.{name}")
    module = util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Special:
    """scipy.special's functions, from its compiled ufunc module if it has them."""

    def __getattr__(self, name):
        if name.startswith("_"):  # no function's name: probes such as hasattr load nothing
            raise AttributeError(name)
        ufuncs = compiled("special", "_special_ufuncs")
        if not hasattr(ufuncs, name):  # ndtri: from the package
            from scipy import special as ufuncs
        return getattr(ufuncs, name)


special = _Special()


def lbfgsb(fun, x0, bounds=None, *, jac=True, maxiter=15000, ftol=2.2204460492503131e-09,
           gtol=1e-5, accept=lambda f: None):
    """(x, success) of minimize(fun, x0, jac=jac, bounds=bounds, method="L-BFGS-B",
    options=dict(maxiter=maxiter, ftol=ftol, gtol=gtol)), bit for bit: its routine
    (Byrd, Lu, Nocedal & Zhu, SISC 1995) with _minimize_lbfgsb's arguments, clip of
    x0 and stopping rules. fun(x) is (f, gradient), or f alone with jac=False; it
    runs once per distinct point. bounds is (lower, upper), +-inf where unbounded.
    accept(f) runs at x0 and at each accepted iterate."""
    setulb = compiled("optimize", "_lbfgsb").setulb
    n, m = np.size(x0), 10  # m: minimize's maxcor
    x = np.array(x0, dtype=np.float64)  # the routine moves x in place
    nbd, low_bnd, upper_bnd = np.zeros(n, np.int32), np.zeros(n), np.zeros(n)
    lower, upper = np.array(bounds if bounds is not None else (-np.inf, np.inf), dtype=np.float64)
    if bounds is not None:  # minimize's clip of x0 and bound codes
        x, has_lower, has_upper = np.clip(x, lower, upper), ~np.isinf(lower), ~np.isinf(upper)
        nbd[:] = np.where(has_upper, 3 - has_lower, has_lower)
        low_bnd[has_lower], upper_bnd[has_upper] = lower[has_lower], upper[has_upper]
    if not jac:
        fun = functools.partial(_forward_difference, fun, lower, upper)
    value, at, points, iterations = fun(x), x.copy(), 1, 0  # (f, g) at `at`
    accept(value[0])
    factr, f, g = ftol / np.finfo(float).eps, 0.0, np.zeros(n)  # f, g: read after the first FG
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)  # work arrays of minimize's sizes
    iwa, task, ln_task = np.zeros(3 * n, np.int32), np.zeros(2, np.int32), np.zeros(2, np.int32)
    lsave, isave, dsave = np.zeros(4, np.int32), np.zeros(44, np.int32), np.zeros(29)
    while True:
        setulb(m, x, low_bnd, upper_bnd, nbd, f, g, factr, gtol, wa, iwa, task, lsave, isave, dsave,
               20, ln_task)
        if (state := task[0]) == 3:  # FG: the objective and gradient at x
            if (x != at).any():
                value, at, points = fun(x), x.copy(), points + 1
            f, g = value
        elif state == 1:  # NEW_X: an iteration accepted x, at f
            iterations += 1
            accept(f)
            if iterations >= maxiter:
                task[:] = 5, 504  # STOP: iteration limit
            elif points * (1 if jac else n + 1) > 15000:  # minimize's count of evaluations
                task[:] = 5, 502  # STOP: evaluation limit, minimize's maxfun
        else:
            return x, bool(state == 4)  # CONVERGENCE: the routine's own test


def _forward_difference(fun, lower, upper, x):
    """fun(x) and minimize's default gradient: approx_derivative(fun, x, "2-point",
    abs_step=1e-8) step for step, inside bounds wider than the step."""
    f0, g = fun(x), np.empty(x.size)
    relative = np.finfo(float).eps**0.5 * ((x >= 0) * 2.0 - 1) * np.maximum(1.0, abs(x))
    h = np.where((x + 1e-8) - x == 0, relative, 1e-8)  # the relative step where 1e-8 is lost
    h = np.where((x + h < lower) | (x + h > upper), -h, h)  # turned back at a bound
    for i in range(x.size):
        step = x.copy()
        step[i] = x[i] + h[i]
        g[i] = (fun(step) - f0) / ((x[i] + h[i]) - x[i])
    return f0, g
