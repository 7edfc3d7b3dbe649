"""Parametric models of detector score distributions on ID data.

The survival function P(S >= s) of the fitted distribution turns raw
detector scores into [0, 1] "how extreme is this" values. The default
family is the generalized extreme value distribution; uniform, normal,
generalized normal, lognormal, and a pass-through `none` family are
available for ablations. Each family is one entry of `_FAMILIES`. The
laws take their functions from compiled.special and the GEV fit runs
compiled.lbfgsb; only the generalized-normal fit imports scipy.stats.
"""

from __future__ import annotations

import math
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
    mu, log_sigma, xi = params
    return mu, math.exp(log_sigma), xi


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
    rv_continuous does it, step for step, so that sf, cdf, ppf and logpdf
    equal scipy.stats's bit for bit with no import of scipy.stats."""

    loc: float
    scale: float
    support: tuple[float, float]
    std: tuple  # standard sf and cdf inside (a, b), ppf on (0, 1), logpdf on [a, b]
    valid: bool = True  # scipy.stats's check of the shape parameters

    def _loc(self):  # NaN, which makes every value NaN, for parameters scipy.stats rejects
        return self.loc if self.valid and self.scale > 0 else np.nan

    def _at(self, x, f, closed, below, above):
        """f at the standardized x inside the support, else `below` or `above` it; NaN at NaN."""
        a, b = self.support
        with np.errstate(all="ignore"):  # infinities and NaN are values of the law here
            z = (np.asarray(x, dtype=np.float64) - self._loc()) / self.scale
            inside = (a <= z) & (z <= b) if closed else (a < z) & (z < b)
            out = np.where(np.isnan(z), np.nan, np.where(z <= a, below, above))
            out[inside] = f(z[inside])
        return out

    def sf(self, x):
        return self._at(x, self.std[0], False, 1.0, 0.0)

    def cdf(self, x):
        return self._at(x, self.std[1], False, 0.0, 1.0)

    def ppf(self, q):
        q = np.asarray(q, dtype=np.float64)
        (a, b), scale, loc = self.support, self.scale, self._loc()
        out = np.where(q == 0, a * scale + loc, np.where(q == 1, b * scale + loc, np.nan))
        inside = (0 < q) & (q < 1)
        out[inside] = self.std[2](q[inside]) * scale + loc
        return out

    def logpdf(self, x):
        return self._at(x, lambda z: self.std[3](z) - np.log(self.scale), True, -np.inf, -np.inf)


def _gev_law(sc, location, scale, shape):
    c = 0.0 if abs(shape) < _GUMBEL_SHAPE_EPS else -shape  # genextreme's c, or gumbel_r's 0

    def loglogcdf(z):  # log(-log(cdf))
        return sc.log1p(-c * z) / c if c else -z

    def ppf(q):
        x = -np.log(-np.log(q))
        return -sc.expm1(-c * x) / c if c else x

    def logpdf(z):
        cx, lpex2 = c * z if c else 0.0, loglogcdf(z)
        out = np.where((cx == 1) | (cx == -np.inf), -np.inf, -np.exp(lpex2) + lpex2 - sc.log1p(-cx))
        out[(c == 1) & (z == 1)] = 0.0
        return out

    return _Law(location, scale, (1.0 / c if c < 0 else -np.inf, 1.0 / c if c > 0 else np.inf), (
        lambda z: -sc.expm1(-np.exp(loglogcdf(z))), lambda z: np.exp(-np.exp(loglogcdf(z))),
        ppf, logpdf,
    ), np.isfinite(c))


def _lognormal_law(sc, log_mean, s):
    def logpdf(z):  # s * s: scipy's s**2 is numpy's exact square of an array
        logpdf = -np.log(z)**2 / (2 * (s * s)) - np.log(s * z * np.sqrt(2 * np.pi))
        return np.where(z != 0, logpdf, -np.inf)

    return _Law(0.0, math.exp(log_mean), (0.0, np.inf), (
        lambda z: sc.ndtr(-(np.log(z) / s)), lambda z: sc.ndtr(np.log(z) / s),
        lambda q: np.exp(s * sc.ndtri(q)), logpdf,
    ), s > 0)


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

    return _Law(location, scale, (-np.inf, np.inf), (
        lambda z: cdf(-z), cdf, ppf,
        lambda z: np.log(0.5 * beta) - sc.gammaln(1.0 / beta) - abs(z)**beta,
    ), shape > 0)


class _Family(NamedTuple):
    params: tuple[str, ...]  # in the order dist.json writes them
    positive: tuple[str, ...] = ()  # params that must be > 0
    fit: Callable | None = None  # finite sample -> param values; None passes scores through
    law: Callable | None = None  # (compiled.special, *param values) -> _Law
    ordered: tuple[str, ...] = ()  # params that must strictly increase
    flag: str | None = None  # the CLI's --family spelling, when not the name


_FAMILIES = {
    "gev": _Family(("location", "scale", "shape"), ("scale",), _fit_gev, _gev_law),
    "uniform": _Family(
        ("a", "b"), (), _fit_uniform,
        lambda sc, a, b: _Law(
            a, b - a, (0.0, 1.0), (lambda z: 1.0 - z, lambda z: z, lambda q: q, np.zeros_like)
        ),
        ordered=("a", "b"),
    ),
    "normal": _Family(
        ("mean", "std"), ("std",), lambda x: (_spread(x).mean(), x.std()),
        lambda sc, mean, std: _Law(mean, std, (-np.inf, np.inf), (
            lambda z: sc.ndtr(-z), sc.ndtr, lambda q: sc.ndtri(q),
            lambda z: -z**2 / 2.0 - np.log(np.sqrt(2 * np.pi)),
        )),
    ),
    "generalized_normal": _Family(
        ("location", "scale", "shape"), ("scale", "shape"), _fit_gennorm, _gennorm_law,
        flag="gennorm",
    ),
    "lognormal": _Family(("log_mean", "log_std"), ("log_std",), _fit_lognormal, _lognormal_law),
    "none": _Family(()),
}
FAMILIES = tuple(_FAMILIES)
FAMILY_BY_FLAG = {f.flag or name: name for name, f in _FAMILIES.items()}


def _family(name: str) -> _Family:
    if name not in _FAMILIES:
        raise ValidationError(f"unknown family {name!r}")
    return _FAMILIES[name]


@dataclass(frozen=True)
class ScoreDistribution:
    """A fitted family exposing survival(s) = P(S >= s)."""

    family: str
    params: dict

    def __post_init__(self):
        fam, p = _family(self.family), self.params
        if set(p) != set(fam.params):
            raise ValidationError(
                f"{self.family}: params must be {list(fam.params)}, got {list(p)}"
            )
        for key in fam.positive:
            if p[key] <= 0:
                raise ValidationError(f"{self.family}: {key} must be positive")
        if not all(p[a] < p[b] for a, b in zip(fam.ordered, fam.ordered[1:])):
            raise ValidationError(f"{self.family}: requires {' < '.join(fam.ordered)}")


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
# Survival / CDF


def _law(d: ScoreDistribution) -> _Law | None:
    """The law of d, or None for the pass-through family."""
    fam = _FAMILIES[d.family]
    if fam.law is None:
        return None
    return fam.law(special, *(d.params[k] for k in fam.params))


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
# Diagnostics


@dataclass(frozen=True)
class FitDiagnostics:
    family: str
    log_likelihood: float | None
    ks_statistic: float | None
    n_samples: int
    note: str = ""


def fit_diagnostics(d: ScoreDistribution, scores) -> FitDiagnostics:
    """Log-likelihood and KS statistic vs the empirical CDF."""
    x = np.asarray(scores, dtype=np.float64)
    if x.size == 0:
        raise ValidationError("diagnostics need a non-empty score list")
    law = _law(d)
    if law is None:
        return FitDiagnostics(
            d.family, None, None, x.size, note="normalization disabled; no distribution fitted"
        )
    ll = float(np.sum(law.logpdf(x)))
    xs = np.sort(x)
    model_cdf = law.cdf(xs)
    n = xs.size
    upper = np.arange(1, n + 1) / n - model_cdf
    lower = model_cdf - np.arange(0, n) / n
    ks = float(max(upper.max(), lower.max()))
    return FitDiagnostics(d.family, ll, ks, n)


# ---------------------------------------------------------------------------
# JSON I/O


def save_distribution(d: ScoreDistribution, path) -> None:
    write_json(path, {"family": d.family, "params": d.params})


def load_distribution(path) -> ScoreDistribution:
    raw = read_json(path)
    try:
        return ScoreDistribution(raw["family"], dict(raw["params"]))
    except (KeyError, TypeError, ValidationError) as exc:
        raise ValidationError(f"{path}: malformed distribution file: {exc}") from exc
