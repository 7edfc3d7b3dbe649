"""Parametric models of detector score distributions on ID data.

The survival function P(S >= s) of the fitted distribution turns raw
detector scores into [0, 1] "how extreme is this" values. The default
family is the generalized extreme value distribution; uniform, normal,
generalized normal, lognormal, and a pass-through `none` family are
available for ablations. Each family is one entry of `_FAMILIES`. Its
law has an sf, which normalizes scores, and a ppf, which synth draws
scores with; both take their functions from compiled.special. The GEV
fit runs compiled.lbfgsb; only the generalized-normal fit imports
scipy.stats.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .artifacts import read_json, write_json
from .compiled import lbfgsb, special
from .errors import NumericalError, ValidationError

MIN_PARAMETRIC_SAMPLES = 20
_GUMBEL_SHAPE_EPS = 1e-6  # |shape| below this uses the Gumbel limit
_SHAPE_BOUND = 0.5  # GEV shape clamp keeping the MLE regular


def _spread(x):
    """x, which a parametric family can fit only if it varies."""
    if x.min() == x.max():
        raise ValidationError("zero variance in scores")
    return x


def _fit_uniform(x):
    return _spread(x).min(), x.max()


def _fit_lognormal(x):
    if np.any(_spread(x) <= 0):
        raise ValidationError("requires strictly positive scores")
    logs = np.log(x)
    return logs.mean(), logs.std()


# ---------------------------------------------------------------------------
# GEV fitting: probability-weighted-moment start, bounded NLL refinement.


def _gev_nll(params, x):
    mu, log_sigma, xi = params
    sigma = math.exp(log_sigma)
    t = (x - mu) / sigma
    if abs(xi) < _GUMBEL_SHAPE_EPS:
        return x.size * log_sigma + np.sum(t) + np.sum(np.exp(-t))
    arg = 1.0 + xi * t
    if np.any(arg <= 0):
        # Finite penalty keeps finite-difference line searches well-defined.
        return 1e10 * (1.0 + float(np.sum(np.minimum(arg, 0.0) ** 2)))
    return (
        x.size * log_sigma
        + (1.0 + 1.0 / xi) * np.sum(np.log(arg))
        + np.sum(arg ** (-1.0 / xi))
    )


def _gev_pwm_start(x):
    """Hosking's probability-weighted-moment estimators."""
    xs = np.sort(x)
    n = xs.size
    j = np.arange(n)
    b0 = xs.mean()
    b1 = np.sum(j / (n - 1.0) * xs) / n
    b2 = np.sum(j * (j - 1.0) / ((n - 1.0) * (n - 2.0)) * xs) / n
    c = (2 * b1 - b0) / (3 * b2 - b0) - math.log(2) / math.log(3)
    k = 7.8590 * c + 2.9554 * c * c  # Hosking's k = -shape
    if abs(k) < _GUMBEL_SHAPE_EPS:
        sigma = (2 * b1 - b0) / math.log(2)
        mu = b0 - 0.5772156649015329 * sigma
        return mu, sigma, 0.0
    gk = special.gamma(1 + k)
    sigma = (2 * b1 - b0) * k / (gk * (1 - 2.0 ** (-k)))
    mu = b0 + sigma * (gk - 1) / k
    return mu, sigma, -k


def _fit_gev(x):
    mu0, sigma0, xi0 = _gev_pwm_start(_spread(x))
    if not (np.isfinite(mu0) and np.isfinite(sigma0) and sigma0 > 0):
        mu0, sigma0, xi0 = x.mean(), x.std(), 0.0
    xi0 = float(np.clip(xi0, -_SHAPE_BOUND + 1e-3, _SHAPE_BOUND - 1e-3))
    bounds = ([-np.inf, -np.inf, -_SHAPE_BOUND], [np.inf, np.inf, _SHAPE_BOUND])
    params, _ = lbfgsb(lambda p: _gev_nll(p, x), [mu0, math.log(sigma0), xi0], bounds, jac=False)
    if not np.all(np.isfinite(params)):
        raise NumericalError("GEV fit failed: non-finite parameters")
    return params[0], math.exp(params[1]), params[2]  # location, scale, shape


# ---------------------------------------------------------------------------
# Generalized normal: profile likelihood over the shape, then refinement.


def _gennorm_profile_nll(beta, x):
    from scipy.stats import gennorm

    loc, scale = gennorm.fit(x, f0=beta)[1:]
    if scale <= 0:
        return np.inf
    return -np.sum(gennorm.logpdf(x, beta, loc=loc, scale=scale))


def _fit_gennorm(x):
    from scipy import optimize
    from scipy.stats import gennorm

    _spread(x)
    grid = np.logspace(math.log10(0.3), math.log10(8.0), 13)
    nlls = [_gennorm_profile_nll(b, x) for b in grid]
    best = int(np.argmin(nlls))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, grid.size - 1)]
    refined = optimize.minimize_scalar(
        _gennorm_profile_nll, args=(x,), bounds=(lo, hi), method="bounded"
    )
    beta = float(refined.x)
    loc, scale = gennorm.fit(x, f0=beta)[1:]
    return loc, scale, beta


# ---------------------------------------------------------------------------
# The family table: everything the package knows about each family.


class _Law(NamedTuple):
    """A standard law on support (a, b), moved and scaled as scipy.stats's
    rv_continuous does it, step for step, so that sf and ppf equal
    scipy.stats's bit for bit with no import of scipy.stats."""

    loc: float
    scale: float
    support: tuple[float, float]
    std: tuple  # standard sf inside (a, b), ppf on (0, 1)
    valid: bool = True  # scipy.stats's check of the shape parameters

    def sf(self, x):
        """sf at the standardized x inside the support, 1 below it, 0 above it; NaN at NaN."""
        a, b = self.support
        with np.errstate(all="ignore"):  # infinities and NaN are values of the law here
            z = (np.asarray(x, dtype=np.float64) - self.loc) / self.scale
            inside = (a < z) & (z < b)
            out = np.where(np.isnan(z), np.nan, np.where(z <= a, 1.0, 0.0))
            out[inside] = self.std[0](z[inside])
        return out

    def ppf(self, q):
        q = np.asarray(q, dtype=np.float64)
        (a, b), scale, loc = self.support, self.scale, self.loc
        with np.errstate(all="ignore"):
            out = np.where(q == 0, a * scale + loc, np.where(q == 1, b * scale + loc, np.nan))
            inside = (0 < q) & (q < 1)
            out[inside] = self.std[1](q[inside]) * scale + loc
        return out


def _gev_law(sc, location, scale, shape):
    c = 0.0 if abs(shape) < _GUMBEL_SHAPE_EPS else -shape  # genextreme's c, or gumbel_r's 0

    def sf(z):
        loglogcdf = sc.log1p(-c * z) / c if c else -z  # log(-log(cdf))
        return -sc.expm1(-np.exp(loglogcdf))

    def ppf(q):
        x = -np.log(-np.log(q))
        return -sc.expm1(-c * x) / c if c else x

    support = (1.0 / c if c < 0 else -np.inf, 1.0 / c if c > 0 else np.inf)
    return _Law(location, scale, support, (sf, ppf))


def _lognormal_law(sc, log_mean, s):
    # math.exp, the scale scipy.stats.lognorm is given (numpy's can differ in the last ulp)
    scale = math.exp(log_mean) if log_mean <= math.log(sys.float_info.max) else math.inf
    std = (lambda z: sc.ndtr(-(np.log(z) / s)), lambda q: np.exp(s * sc.ndtri(q)))
    return _Law(0.0, scale, (0.0, np.inf), std, s > 0)


def _gennorm_law(sc, location, scale, shape):
    # A one-element array, as scipy holds it: with a scalar exponent, np.power
    # takes another loop for a single point and can differ in the last ulp.
    beta = np.array([shape])

    def cdf(z):
        c = 0.5 * np.sign(z)
        return (0.5 + c) - c * sc.gammaincc(1.0 / beta, abs(z)**beta)

    def ppf(q):
        c = np.sign(q - 0.5)
        return c * sc.gammainccinv(1.0 / beta, (1.0 + c) - 2.0 * c * q)**(1.0 / beta)

    return _Law(location, scale, (-np.inf, np.inf), (lambda z: cdf(-z), ppf), shape > 0)


class _Family(NamedTuple):
    params: tuple[str, ...]  # in the order dist.json writes them
    fit: Callable | None = None  # finite sample -> param values; None passes scores through
    law: Callable | None = None  # (compiled.special, *param values) -> _Law
    flag: str | None = None  # the CLI's --family spelling, when not the name


_FAMILIES = {
    "gev": _Family(("location", "scale", "shape"), _fit_gev, _gev_law),
    "uniform": _Family(
        ("a", "b"), _fit_uniform,
        lambda sc, a, b: _Law(a, b - a, (0.0, 1.0), (lambda z: 1.0 - z, lambda q: q)),
    ),
    "normal": _Family(
        ("mean", "std"), lambda x: (_spread(x).mean(), x.std()),
        lambda sc, mean, std: _Law(
            mean, std, (-np.inf, np.inf), (lambda z: sc.ndtr(-z), lambda q: sc.ndtri(q))
        ),
    ),
    "generalized_normal": _Family(
        ("location", "scale", "shape"), _fit_gennorm, _gennorm_law, flag="gennorm"
    ),
    "lognormal": _Family(("log_mean", "log_std"), _fit_lognormal, _lognormal_law),
    "none": _Family(()),
}
FAMILIES = tuple(_FAMILIES)
FAMILY_BY_FLAG = {f.flag or name: name for name, f in _FAMILIES.items()}


def _family(name: str) -> _Family:
    if name not in _FAMILIES:
        raise ValidationError(f"unknown family {name!r}")
    return _FAMILIES[name]


def _finite(x) -> bool:
    """Whether x is a real number, not a bool, that is a finite float."""
    try:
        return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:  # an int past the float range
        return False


@dataclass(frozen=True)
class ScoreDistribution:
    """A family's finite params, whose law has a scale in (0, inf) and a valid shape."""

    family: str
    params: dict

    def __post_init__(self):
        fam, p = _family(self.family), self.params
        if set(p) != set(fam.params):
            raise ValidationError(f"{self.family}: params must be {list(fam.params)}, got {list(p)}")
        for key, value in p.items():
            if not _finite(value):
                raise ValidationError(f"{self.family}: {key} is not a finite number: {value!r}")
        law = _law(self)
        if law is not None and not (law.valid and law.scale > 0 and _finite(law.scale)):
            given = ", ".join(f"{key} {p[key]!r}" for key in fam.params)
            raise ValidationError(f"{self.family}: {given} make no law")


def fit_distribution(scores, family: str) -> ScoreDistribution:
    """Deterministic maximum-likelihood fit of the requested family."""
    fam = _family(family)
    if fam.fit is None:
        return ScoreDistribution(family, {})

    x = np.asarray(scores, dtype=np.float64)
    if x.ndim != 1:
        raise ValidationError("scores must be a flat list")
    if not np.all(np.isfinite(x)):
        raise ValidationError("scores must be finite")
    if x.size < MIN_PARAMETRIC_SAMPLES:
        raise ValidationError(
            f"family {family!r} needs >= {MIN_PARAMETRIC_SAMPLES} samples, got {x.size}"
        )
    try:
        values = fam.fit(x)
    except ValidationError as exc:
        raise ValidationError(f"{family} fit: {exc}") from None
    return ScoreDistribution(family, {k: float(v) for k, v in zip(fam.params, values)})


# ---------------------------------------------------------------------------
# Survival and quantiles


def _law(d: ScoreDistribution) -> _Law | None:
    """The law of d, or None for the pass-through family."""
    fam = _FAMILIES[d.family]
    return None if fam.law is None else fam.law(special, *(d.params[k] for k in fam.params))


def survival(d: ScoreDistribution, s) -> np.ndarray | float:
    """P(S >= s), clamped to [0, 1]; the `none` family returns 1."""
    scalar = np.isscalar(s)
    s = np.atleast_1d(np.asarray(s, dtype=np.float64))
    law = _law(d)
    out = np.ones_like(s) if law is None else np.clip(law.sf(s), 0.0, 1.0)
    return float(out[0]) if scalar else out


def quantile(d: ScoreDistribution, u) -> np.ndarray:
    """Inverse CDF at probabilities u."""
    law = _law(d)
    if law is None:
        raise ValidationError(f"the `{d.family}` family has no quantile function")
    return law.ppf(u)


# ---------------------------------------------------------------------------
# JSON I/O


def save_distribution(d: ScoreDistribution, path) -> None:
    write_json(path, {"family": d.family, "params": d.params})


def load_distribution(path) -> ScoreDistribution:
    raw = read_json(path)
    try:
        return ScoreDistribution(raw["family"], dict(raw["params"]))
    except (KeyError, TypeError, ValueError, ValidationError) as exc:
        raise ValidationError(f"{path}: malformed distribution file: {exc}") from exc
