"""The score families' laws as they were computed before they were rebuilt
from numpy and scipy.special: scipy.stats's frozen laws, one per family.
Kept as the reference the package's laws are checked against bit for bit.
That equality holds for the scipy they were written against (1.17.1): a
scipy release that changes its arithmetic moves the reference too."""

from __future__ import annotations

import math

from scipy import stats

from logicood.distributions import _GUMBEL_SHAPE_EPS


def _gev(location, scale, shape):
    if abs(shape) < _GUMBEL_SHAPE_EPS:
        return stats.gumbel_r(loc=location, scale=scale)
    return stats.genextreme(-shape, loc=location, scale=scale)  # scipy's shape is -ours


LAWS = {
    "gev": _gev,
    "uniform": lambda a, b: stats.uniform(loc=a, scale=b - a),
    "normal": lambda mean, std: stats.norm(loc=mean, scale=std),
    "generalized_normal": lambda location, scale, shape: stats.gennorm(
        shape, loc=location, scale=scale
    ),
    "lognormal": lambda log_mean, log_std: stats.lognorm(log_std, scale=math.exp(log_mean)),
}


def frozen_law(d):
    """The scipy.stats law of a ScoreDistribution d."""
    return LAWS[d.family](**d.params)
