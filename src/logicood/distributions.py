"""Parametric models of detector score distributions on ID data.

The survival function P(S >= s) of the fitted distribution turns raw
detector scores into [0, 1] "how extreme is this" values. The default
family is the generalized extreme value distribution; uniform, normal,
generalized normal, lognormal, and a pass-through `none` family are
available for ablations.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy import optimize, stats as sps
from scipy.special import gamma as gamma_fn

from .artifacts import read_json, write_json
from .errors import NumericalError, ValidationError

# Each family's parameter names; a ScoreDistribution holds exactly these.
PARAMS = {
    "gev": ("location", "scale", "shape"),
    "uniform": ("a", "b"),
    "normal": ("mean", "std"),
    "generalized_normal": ("location", "scale", "shape"),
    "lognormal": ("log_mean", "log_std"),
    "none": (),
}
FAMILIES = tuple(PARAMS)

MIN_PARAMETRIC_SAMPLES = 20
_GUMBEL_SHAPE_EPS = 1e-6  # |shape| below this uses the Gumbel limit
_SHAPE_BOUND = 0.5  # GEV shape clamp keeping the MLE regular


@dataclass(frozen=True)
class ScoreDistribution:
    """A fitted family exposing survival(s) = P(S >= s)."""

    family: str
    params: dict

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(f"unknown family {self.family!r}")
        names = PARAMS[self.family]
        if set(self.params) != set(names):
            raise ValidationError(
                f"{self.family}: params must be {list(names)}, got {list(self.params)}"
            )
        for key in ("scale", "std", "log_std"):
            if key in self.params and self.params[key] <= 0:
                raise ValidationError(f"{self.family}: {key} must be positive")
        if self.family == "uniform" and not self.params["a"] < self.params["b"]:
            raise ValidationError("uniform: requires a < b")
        if self.family == "generalized_normal" and self.params["shape"] <= 0:
            raise ValidationError("generalized_normal: shape must be positive")


def fit_distribution(scores, family: str) -> ScoreDistribution:
    """Deterministic maximum-likelihood fit of the requested family."""
    if family not in FAMILIES:
        raise ValidationError(f"unknown family {family!r}")
    if family == "none":
        return ScoreDistribution("none", {})

    x = np.asarray(scores, dtype=np.float64)
    if x.ndim != 1:
        raise ValidationError("scores must be a flat list")
    if not np.all(np.isfinite(x)):
        raise ValidationError("scores must be finite")
    if x.size < MIN_PARAMETRIC_SAMPLES:
        raise ValidationError(
            f"family {family!r} needs >= {MIN_PARAMETRIC_SAMPLES} samples, got {x.size}"
        )
    if family == "uniform":
        a, b = float(x.min()), float(x.max())
        if a == b:
            raise ValidationError("uniform fit: all scores identical")
        return ScoreDistribution("uniform", {"a": a, "b": b})
    if np.std(x) == 0:
        raise ValidationError(f"{family} fit: zero variance in scores")

    if family == "normal":
        return ScoreDistribution(
            "normal", {"mean": float(x.mean()), "std": float(x.std())}
        )
    if family == "lognormal":
        if np.any(x <= 0):
            raise ValidationError("lognormal fit: requires strictly positive scores")
        logs = np.log(x)
        return ScoreDistribution(
            "lognormal", {"log_mean": float(logs.mean()), "log_std": float(logs.std())}
        )
    if family == "gev":
        loc, scale, shape = _fit_gev(x)
        return ScoreDistribution(
            "gev", {"location": loc, "scale": scale, "shape": shape}
        )
    # generalized_normal
    loc, scale, shape = _fit_gennorm(x)
    return ScoreDistribution(
        "generalized_normal", {"location": loc, "scale": scale, "shape": shape}
    )


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
    gk = gamma_fn(1 + k)
    sigma = (2 * b1 - b0) * k / (gk * (1 - 2.0 ** (-k)))
    mu = b0 + sigma * (gk - 1) / k
    return mu, sigma, -k


def _fit_gev(x):
    mu0, sigma0, xi0 = _gev_pwm_start(x)
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
    return float(mu), float(math.exp(log_sigma)), float(xi)


# ---------------------------------------------------------------------------
# Generalized normal: profile likelihood over the shape, then refinement.


def _gennorm_profile_nll(beta, x):
    loc, scale = sps.gennorm.fit(x, f0=beta)[1:]
    if scale <= 0:
        return np.inf
    return -np.sum(sps.gennorm.logpdf(x, beta, loc=loc, scale=scale))


def _fit_gennorm(x):
    grid = np.logspace(math.log10(0.3), math.log10(8.0), 13)
    nlls = [_gennorm_profile_nll(b, x) for b in grid]
    best = int(np.argmin(nlls))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, grid.size - 1)]
    refined = optimize.minimize_scalar(
        _gennorm_profile_nll, args=(x,), bounds=(lo, hi), method="bounded"
    )
    beta = float(refined.x)
    loc, scale = sps.gennorm.fit(x, f0=beta)[1:]
    return float(loc), float(scale), beta


# ---------------------------------------------------------------------------
# Survival / CDF


def _frozen(d: ScoreDistribution):
    p = d.params
    if d.family == "gev":
        if abs(p["shape"]) < _GUMBEL_SHAPE_EPS:
            return sps.gumbel_r(loc=p["location"], scale=p["scale"])
        # scipy's shape convention is the negative of ours
        return sps.genextreme(-p["shape"], loc=p["location"], scale=p["scale"])
    if d.family == "uniform":
        return sps.uniform(loc=p["a"], scale=p["b"] - p["a"])
    if d.family == "normal":
        return sps.norm(loc=p["mean"], scale=p["std"])
    if d.family == "generalized_normal":
        return sps.gennorm(p["shape"], loc=p["location"], scale=p["scale"])
    if d.family == "lognormal":
        return sps.lognorm(p["log_std"], scale=math.exp(p["log_mean"]))
    return None


def survival(d: ScoreDistribution, s) -> np.ndarray | float:
    """P(S >= s), clamped to [0, 1]; the `none` family returns 1."""
    scalar = np.isscalar(s)
    s = np.atleast_1d(np.asarray(s, dtype=np.float64))
    if d.family == "none":
        out = np.ones_like(s)
    else:
        out = np.clip(_frozen(d).sf(s), 0.0, 1.0)
    return float(out[0]) if scalar else out


def quantile(d: ScoreDistribution, u) -> np.ndarray:
    """Inverse CDF at probabilities u."""
    if d.family == "none":
        raise ValidationError("the `none` family has no quantile function")
    return np.asarray(_frozen(d).ppf(u), dtype=np.float64)


# ---------------------------------------------------------------------------
# Diagnostics


@dataclass(frozen=True)
class FitDiagnostics:
    family: str
    log_likelihood: float | None
    ks_statistic: float | None
    n_samples: int
    note: str = ""

    def to_json_dict(self):
        return asdict(self)


def fit_diagnostics(d: ScoreDistribution, scores) -> FitDiagnostics:
    """Log-likelihood and KS statistic vs the empirical CDF."""
    x = np.asarray(scores, dtype=np.float64)
    if x.size == 0:
        raise ValidationError("diagnostics need a non-empty score list")
    if d.family == "none":
        return FitDiagnostics(
            "none", None, None, x.size, note="normalization disabled; no distribution fitted"
        )
    frozen = _frozen(d)
    ll = float(np.sum(frozen.logpdf(x)))
    xs = np.sort(x)
    model_cdf = frozen.cdf(xs)
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
