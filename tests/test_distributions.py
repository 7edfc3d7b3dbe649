import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import logicood
from distributions_reference import frozen_law
from fit_reference import reference_gev_fit
from logicood.distributions import (
    ScoreDistribution,
    _law,
    fit_distribution,
    load_distribution,
    quantile,
    save_distribution,
    survival,
)
from logicood.errors import NumericalError, ValidationError

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6)


def gev(location=0.0, scale=1.0, shape=0.0):
    return ScoreDistribution("gev", {"location": location, "scale": scale, "shape": shape})


# ---------------------------------------------------------------------------
# Fitting


def test_gev_recovery(rng):
    true = gev(0.0, 1.0, 0.1)
    x = quantile(true, rng.random(100_000))
    fit = fit_distribution(x, "gev")
    assert fit.params["location"] == pytest.approx(0.0, abs=0.05)
    assert fit.params["scale"] == pytest.approx(1.0, abs=0.05)
    assert fit.params["shape"] == pytest.approx(0.1, abs=0.05)


def gev_sample(n, shape, seed, ties, low):
    """n GEV(0, 1, shape) draws, rounded to multiples of `ties` when it is
    set, and one more point `low` below the least."""
    x = quantile(gev(0.0, 1.0, shape), np.random.default_rng(seed).random(n))
    if ties:
        x = np.round(x / ties) * ties
    return np.append(x, x.min() - low)


def with_gumbel_start(x):
    """x sorted, its greatest point moved to where Hosking's c is 0, so that
    the fit starts at shape 0.0 and the NLL takes its Gumbel branch; None
    when that point would not stay the greatest."""
    xs = np.sort(x)
    n, j = xs.size, np.arange(xs.size)
    rest = np.append(xs[:-1], 0.0)  # each b_r weighs the greatest point 1/n
    b0 = rest.sum() / n
    b1 = np.sum(j / (n - 1.0) * rest) / n
    b2 = np.sum(j * (j - 1.0) / ((n - 1.0) * (n - 2.0)) * rest) / n
    ratio = math.log(2) / math.log(3)  # c = (2 b1 - b0) / (3 b2 - b0) - ratio
    xs[-1] = n * (ratio * (3 * b2 - b0) - (2 * b1 - b0)) / (1 - 2 * ratio)
    return xs if xs[-1] >= xs[-2] else None


@given(
    n=st.integers(20, 300) | st.integers(300, 5000),
    # Past +-0.5 the fit ends on the shape bound.
    shape=st.floats(-1e-6, 1e-6) | st.floats(-1.5, 1.5) | st.sampled_from([0.0, 0.6, -0.6]),
    location=st.floats(-100, 100),
    scale=st.floats(1e-3, 100),
    seed=st.integers(0, 2**32 - 1),
    ties=st.sampled_from([None, 0.1, 0.5]),
    # A point below the rest moves the start's support end towards the
    # sample, where the NLL's arg <= 0 penalty begins.
    low=st.sampled_from([0.0, 0.0, 0.5, 2.0]) | st.floats(0, 10),
    gumbel=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_gev_fit_equals_minimize_bit_for_bit(n, shape, location, scale, seed, ties, low, gumbel):
    x = gev_sample(n, -abs(shape) if gumbel else shape, seed, ties, low)
    if gumbel:
        x = with_gumbel_start(x)
        assume(x is not None)
    x = location + scale * x
    assume(np.all(np.isfinite(x)) and x.min() < x.max())
    try:
        expected = reference_gev_fit(x)
    except NumericalError:
        with pytest.raises(NumericalError):
            fit_distribution(x, "gev")
        return
    fitted = fit_distribution(x, "gev").params
    assert list(fitted.values()) == [float(v) for v in expected]


def test_uniform_fit_min_max():
    d = fit_distribution(list(range(1, 5)) * 10, "uniform")
    assert d.params == {"a": 1.0, "b": 4.0}


def test_normal_fit(rng):
    x = rng.normal(3.0, 2.0, 50_000)
    d = fit_distribution(x, "normal")
    assert d.params["mean"] == pytest.approx(3.0, abs=0.05)
    assert d.params["std"] == pytest.approx(2.0, abs=0.05)


def test_lognormal_fit(rng):
    x = rng.lognormal(1.0, 0.5, 50_000)
    d = fit_distribution(x, "lognormal")
    assert d.params["log_mean"] == pytest.approx(1.0, abs=0.02)
    assert d.params["log_std"] == pytest.approx(0.5, abs=0.02)


def test_gennorm_fit_recovers_laplace_like(rng):
    x = rng.laplace(0.0, 1.0, 20_000)
    d = fit_distribution(x, "generalized_normal")
    assert d.params["shape"] == pytest.approx(1.0, abs=0.15)


def test_fit_guards():
    with pytest.raises(ValidationError, match="zero variance"):
        fit_distribution([1.0] * 30, "normal")
    with pytest.raises(ValidationError, match=">= 20 samples"):
        fit_distribution([1.0, 2.0], "gev")
    with pytest.raises(ValidationError, match="positive"):
        fit_distribution([-1.0, 1.0] * 15, "lognormal")
    with pytest.raises(ValidationError, match="finite"):
        fit_distribution([np.inf] * 30, "normal")
    with pytest.raises(ValidationError, match="unknown family"):
        fit_distribution([1.0] * 30, "cauchy")


@pytest.mark.parametrize("family", ["gev", "uniform", "normal", "generalized_normal", "lognormal"])
@pytest.mark.parametrize("value", [0.1, 1.0])
def test_constant_scores_have_zero_variance(family, value):
    # np.std([0.1] * 30) is 2.8e-17, not 0: the mean of 0.1s is not exact.
    with pytest.raises(ValidationError, match=f"^{family} fit: zero variance in scores$"):
        fit_distribution([value] * 30, family)


def test_none_family_trivial():
    d = fit_distribution([], "none")
    assert survival(d, 123.0) == 1.0
    assert survival(d, -123.0) == 1.0


# ---------------------------------------------------------------------------
# Survival


def test_gumbel_closed_form():
    assert survival(gev(), 0.0) == pytest.approx(1 - math.exp(-1))


def test_uniform_midpoint():
    d = ScoreDistribution("uniform", {"a": 0.0, "b": 2.0})
    assert survival(d, 1.0) == pytest.approx(0.5)
    assert survival(d, -1.0) == 1.0
    assert survival(d, 3.0) == 0.0


def test_normal_median():
    d = ScoreDistribution("normal", {"mean": 2.0, "std": 3.0})
    assert survival(d, 2.0) == pytest.approx(0.5)


def test_gev_out_of_support_sides():
    heavy = gev(0.0, 1.0, 0.3)  # lower endpoint at -1/0.3
    assert survival(heavy, -10.0) == 1.0
    bounded = gev(0.0, 1.0, -0.3)  # upper endpoint at 1/0.3
    assert survival(bounded, 10.0) == 0.0


def test_gumbel_limit_continuity():
    grid = np.linspace(-5.0, 10.0, 400)
    near_zero = ScoreDistribution("gev", {"location": 0.0, "scale": 1.0, "shape": 1e-9})
    exact = gev(0.0, 1.0, 0.0)
    assert np.max(np.abs(survival(near_zero, grid) - survival(exact, grid))) < 1e-6


@given(
    family=st.sampled_from(["gev", "uniform", "normal", "generalized_normal", "lognormal"]),
    seed=st.integers(0, 10_000),
    s1=finite,
    s2=finite,
)
@settings(max_examples=120, deadline=None)
def test_survival_monotone_non_increasing(family, seed, s1, s2):
    r = np.random.default_rng(seed)
    if family == "gev":
        d = gev(r.normal(), r.uniform(0.1, 5), r.uniform(-0.5, 0.5))
    elif family == "uniform":
        a = r.normal()
        d = ScoreDistribution("uniform", {"a": a, "b": a + r.uniform(0.1, 5)})
    elif family == "normal":
        d = ScoreDistribution("normal", {"mean": r.normal(), "std": r.uniform(0.1, 5)})
    elif family == "generalized_normal":
        d = ScoreDistribution(
            "generalized_normal",
            {"location": r.normal(), "scale": r.uniform(0.1, 5), "shape": r.uniform(0.3, 6)},
        )
    else:
        d = ScoreDistribution(
            "lognormal", {"log_mean": r.normal(), "log_std": r.uniform(0.1, 2)}
        )
    lo, hi = min(s1, s2), max(s1, s2)
    sl, sh = survival(d, lo), survival(d, hi)
    assert 0.0 <= sh <= sl <= 1.0


def test_survival_extremes_on_fitted(rng):
    x = quantile(gev(2.0, 1.5, 0.05), rng.random(20_000))
    span = x.max() - x.min()
    for family in ("gev", "normal", "uniform"):
        d = fit_distribution(x, family)
        assert survival(d, x.min() - 10 * span) >= 0.99
        assert survival(d, x.max() + 10 * span) <= 0.01


# ---------------------------------------------------------------------------
# The laws against scipy.stats, bit for bit


def _params(family, draw):
    real, positive = st.floats(-1e3, 1e3), st.floats(1e-3, 1e3)
    if family == "gev":
        shape = st.sampled_from([0.0, 5e-7, -5e-7, 1e-6, -1e-6, 0.5, -0.5, 1.0, -1.0])
        shape = shape | st.floats(-2e-6, 2e-6) | st.floats(-0.6, 0.6) | st.floats(-3, 3)
        return {"location": draw(real), "scale": draw(positive), "shape": draw(shape)}
    if family == "uniform":
        a = draw(real)
        return {"a": a, "b": a + draw(positive)}
    if family == "normal":
        return {"mean": draw(real), "std": draw(positive)}
    if family == "generalized_normal":
        shape = st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.1, 10)
        return {"location": draw(real), "scale": draw(positive), "shape": draw(shape)}
    return {"log_mean": draw(st.floats(-5, 5)), "log_std": draw(st.floats(0.05, 5))}


def _same(mine, theirs):
    mine, theirs = np.asarray(mine), np.asarray(theirs)
    assert mine.shape == theirs.shape
    assert np.all((mine == theirs) | (np.isnan(mine) & np.isnan(theirs))), (mine, theirs)


SPECIAL_X = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0, 1e-300, 1e300, -1e300]
SPECIAL_Q = [0.0, 1.0, np.nan, -0.5, 1.5, -np.inf, np.inf, 5e-324, 1e-300, 1 - 1e-16, 0.5]


def _check_against_scipy(d, drawn, u):
    """sf at the support ends and their neighbours, the special points,
    `drawn` and the law's own quantiles at u; ppf at the special
    probabilities, u and its tails; each as an array and as scalars."""
    law, ref = _law(d), frozen_law(d)
    lo, hi = ref.support()
    ends = [lo, hi, *np.nextafter([lo, lo, hi, hi], [-np.inf, np.inf] * 2)]
    with np.errstate(all="ignore"):
        x = np.array([*SPECIAL_X, *ends, *drawn, *ref.ppf(u), *ref.ppf(u**40)])
        q = np.array([*SPECIAL_Q, *u, *u**40, *(1 - u**40), *drawn])
        for name, points in (("sf", x), ("ppf", q)):
            _same(getattr(law, name)(points), getattr(ref, name)(points))
            for point in points[: len(SPECIAL_X) + len(ends)]:  # a scalar's path through numpy
                _same(getattr(law, name)(point), getattr(ref, name)(point))
        _same(survival(d, x), np.clip(ref.sf(x), 0.0, 1.0))
        _same(quantile(d, q), ref.ppf(q))


@given(
    family=st.sampled_from(["gev", "uniform", "normal", "generalized_normal", "lognormal"]),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_every_law_equals_scipy_stats_bit_for_bit(family, data):
    d = ScoreDistribution(family, _params(family, data.draw))
    drawn = data.draw(st.lists(st.floats(), max_size=20))
    u = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).random(64)
    _check_against_scipy(d, drawn, u)


# At +-0.41 the support end z = 1/c gives c * z < 1, so the open mask decides sf there.
@pytest.mark.parametrize(
    "shape", [0.0, 5e-7, -5e-7, 1e-6, -1e-6, 0.3, -0.3, 0.41, -0.41, 0.5, -0.5, 1.0, -1.0]
)
def test_gev_shapes_at_the_gumbel_switch_and_the_bounds_equal_scipy_stats(shape):
    u = np.random.default_rng(7).random(2000)
    for location, scale in ((0.0, 1.0), (1.4, 0.55), (-3.0, 7.0)):
        _check_against_scipy(gev(location, scale, shape), [], u)


# Runs in a fresh interpreter that loads scipy.special's compiled ufunc
# module alone first; ndtri is not in it, so the quantiles take it from
# the scipy.special package, which the probe checks is loaded only then.
FALLBACK_PROBE = """
import json, sys
from logicood import compiled, distributions
compiled.compiled("special", "_special_ufuncs")
d = distributions.ScoreDistribution(sys.argv[1], json.loads(sys.argv[2]))
assert not hasattr(compiled.special, "__wrapped__")  # a probe loads nothing
assert "scipy.special" not in sys.modules
values = distributions.quantile(d, json.loads(sys.argv[3]))
assert "scipy.special" in sys.modules
print(json.dumps([v.hex() for v in values.tolist()]))
"""


@pytest.mark.parametrize(
    "family, params",
    [("normal", {"mean": 1.5, "std": 0.7}), ("lognormal", {"log_mean": -0.3, "log_std": 1.2})],
)
def test_quantiles_through_the_package_fallback_equal_scipy_stats(family, params):
    q = [*SPECIAL_Q, *np.random.default_rng(3).random(50).tolist()]
    out = subprocess.run(
        [sys.executable, "-c", FALLBACK_PROBE, family, json.dumps(params), json.dumps(q)],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(logicood.__file__).parent.parent)},
    )
    mine = np.array([float.fromhex(v) for v in json.loads(out.stdout)])
    with np.errstate(all="ignore"):
        _same(mine, frozen_law(ScoreDistribution(family, params)).ppf(q))


@pytest.mark.parametrize(
    "family, params",
    [
        ("gev", {"location": 0.0, "scale": 1.0, "shape": np.nan}),
        ("gev", {"location": 0.0, "scale": np.nan, "shape": 0.2}),
        ("normal", {"mean": 0.0, "std": np.nan}),
        ("generalized_normal", {"location": 0.0, "scale": 1.0, "shape": np.nan}),
        ("lognormal", {"log_mean": 0.0, "log_std": np.nan}),
        ("lognormal", {"log_mean": -800.0, "log_std": 1.0}),  # its scale underflows to 0
    ],
)
def test_parameters_scipy_stats_rejects_give_nan_as_it_does(family, params):
    _check_against_scipy(ScoreDistribution(family, params), [], np.linspace(0.1, 0.9, 9))


# ---------------------------------------------------------------------------
# I/O


def test_distribution_roundtrip(tmp_path):
    d = gev(1.0, 2.0, -0.1)
    path = tmp_path / "dist.json"
    save_distribution(d, path)
    assert load_distribution(path) == d


def test_invalid_params_rejected():
    with pytest.raises(ValidationError):
        ScoreDistribution("gev", {"location": 0.0, "scale": -1.0, "shape": 0.0})
    with pytest.raises(ValidationError):
        ScoreDistribution("uniform", {"a": 2.0, "b": 1.0})


@pytest.mark.parametrize(
    "family, params",
    [
        ("gev", {"location": 0.0, "scale": 1.0}),
        ("gev", {"location": 0.0, "scale": 1.0, "shape": 0.0, "extra": 1.0}),
        ("normal", {"location": 0.0, "std": 1.0}),
        ("none", {"a": 0.0}),
    ],
    ids=["missing", "extra", "misnamed", "none-with-params"],
)
def test_params_must_be_the_family_names(tmp_path, family, params):
    with pytest.raises(ValidationError, match=f"{family}: params must be"):
        ScoreDistribution(family, params)
    path = tmp_path / "dist.json"
    path.write_text(json.dumps({"family": family, "params": params}), encoding="utf-8")
    with pytest.raises(ValidationError, match="params must be") as err:
        load_distribution(path)
    assert str(path) in str(err.value)


# ---------------------------------------------------------------------------
# Pinned values: fitted params, survival and quantiles on one seeded sample,
# recorded with numpy 2.4.6 and scipy 1.17.1 before the family table.

PIN_POINTS = [0.0, 1.0, 1.7, 2.5, 4.0, 9.0]
PIN_PROBS = [0.01, 0.3, 0.5, 0.9, 0.999]
PINNED_FITS = {  # family: (params, survival at PIN_POINTS, quantile at PIN_PROBS)
    "gev": (
        [1.435712772814793, 0.5465002820632797, 0.03224303555839109],
        [0.9999998262876347, 0.8938343766413427, 0.4614447365391279,
         0.14037494668353928, 0.012578686363078812, 1.0710253329659563e-05],
        [0.6213238464092274, 1.3345706750002901, 1.637200381246049,
         2.7112554236165813, 5.663899018171586],
    ),
    "uniform": (
        [0.5125573198445342, 5.746767559419665],
        [1.0, 0.9068736909973582, 0.7731381381708022, 0.6202975063690239, 0.3337213217406898, 0.0],
        [0.5648994222402856, 2.082820391717074, 3.1296624396321,
         5.223346535462152, 5.741533349180091],
    ),
    "normal": (
        [1.7680175729247452, 0.7406681472505074],
        [0.9915080863022112, 0.8501146741256144, 0.5365845277118301,
         0.16150945098692304, 0.0012913860670545362, 8.023921954991929e-23],
        [0.04496580319875876, 1.3796108167600643, 1.7680175729247452,
         2.7172219965826514, 4.056854209707722],
    ),
    "generalized_normal": (
        [1.6670528283281083, 0.6310887264171878, 1.1407889911863374],
        [0.9812189437144838, 0.8534012305725751, 0.47307217419709824,
         0.10568296130918774, 0.00438875441752743, 2.4080079692009007e-08],
        [-0.2918563697770722, 1.3773294551780106, 1.6670528283281083,
         2.5277043391370784, 4.654902111740161],
    ),
    "lognormal": (
        [0.49034117976326075, 0.39928366891504874],
        [1.0, 0.890286309550862, 0.45981556859064665,
         0.14303462324414634, 0.01241937321734355, 9.562698507849254e-06],
        [0.6449828610489814, 1.3243961491501044, 1.6328732282314427,
         2.7238431088478676, 5.608147621537038],
    ),
    "none": ([], [1.0] * 6, None),
}
GUMBEL_SF = [0.7523186963342055, 0.5115564199934841, 0.3619438334179814,
             0.23171701074749737, 0.09241855277712104, 0.0034534005846197234]
GUMBEL_Q = [-1.7907694387118518, 0.22155986170645137, 1.0497693808724966,
            3.875550990968668, 10.860882605785573]
PINNED_GEV_LAWS = {  # shape: (survival at PIN_POINTS, quantile at PIN_PROBS)
    0.0: (GUMBEL_SF, GUMBEL_Q),
    5e-7: (GUMBEL_SF, GUMBEL_Q),  # inside the Gumbel limit
    -0.2: (
        [0.7486328910793414, 0.5074925032743229, 0.34177729166030146,
         0.19110294636511593, 0.04223350770832158, 0.0],
        [-2.1791238917412, 0.2163267076204045, 1.0301030740129604,
         3.218140177284716, 6.115896696914126],
    ),
}


@pytest.mark.parametrize("family", sorted(PINNED_FITS))
def test_fit_survival_and_quantile_match_pinned_values(family):
    params, sf, q = PINNED_FITS[family]
    x = np.random.default_rng(2024).lognormal(0.5, 0.4, 400)
    d = fit_distribution(x, family)
    assert list(d.params.values()) == params
    assert survival(d, np.array(PIN_POINTS)).tolist() == sf
    if q is None:
        with pytest.raises(ValidationError, match="no quantile"):
            quantile(d, PIN_PROBS)
    else:
        assert quantile(d, PIN_PROBS).tolist() == q


@pytest.mark.parametrize("shape", sorted(PINNED_GEV_LAWS))
def test_gev_law_matches_pinned_values(shape):
    sf, q = PINNED_GEV_LAWS[shape]
    d = gev(0.5, 1.5, shape)
    assert survival(d, np.array(PIN_POINTS)).tolist() == sf
    assert quantile(d, PIN_PROBS).tolist() == q
