"""Unit-mean service-time distributions.

Every family exposes the survival function (ccdf), its log, the density,
the hazard, the inverse survival function, exact sampling (plain and
size-biased), and the ccdf of the stationary age (the integrated survival
function).  Closed-form scales make the mean exactly 1, which
`test_unit_mean_by_quadrature` checks; scipy is imported inside the
methods that use it, so elementary laws run on numpy alone.
"""

from __future__ import annotations

import abc
import math

import numpy as np

__all__ = [
    "ServiceDistribution",
    "Exponential",
    "ParetoService",
    "LogNormalService",
    "GammaService",
    "HyperExponential",
    "WeibullService",
    "SurvivalUnderflow",
    "distribution_from_config",
]


class SurvivalUnderflow(ArithmeticError):
    """The survival probability underflowed to zero where a ratio is needed."""


def _as_nonnegative(x, name):
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError(f"{name} must be nonnegative")
    return arr


def _maybe_scalar(arr, like):
    if np.isscalar(like) or np.ndim(like) == 0:
        return float(arr)
    return arr


class ServiceDistribution(abc.ABC):
    """A service-time law with unit mean."""

    family = "abstract"

    @abc.abstractmethod
    def ccdf(self, x):
        """P(V > x) for x >= 0."""

    @abc.abstractmethod
    def log_ccdf(self, x):
        """log P(V > x), exact for large x where ccdf underflows."""

    @abc.abstractmethod
    def pdf(self, x):
        """Density at x >= 0."""

    @abc.abstractmethod
    def inverse_ccdf(self, u):
        """x such that ccdf(x) = u, for u in (0, 1]."""

    @abc.abstractmethod
    def stationary_age_ccdf(self, r):
        """Integral of ccdf over (r, inf); the stationary-age survival."""

    @abc.abstractmethod
    def sample(self, rng, size=None):
        """Draw service times with the given numpy Generator."""

    @abc.abstractmethod
    def sample_size_biased(self, rng, size=None):
        """Draw from the size-biased law, density x * pdf(x).

        With U uniform on (0, 1) and V^ size-biased, (U V^, V^) is the
        (age, total) pair of the job in service at a stationary instant:
        the age has density ccdf(a) and the total is V conditioned on
        V > age.
        """

    @abc.abstractmethod
    def config(self) -> dict:
        """Config-file representation ({'family': ..., shape fields})."""

    def hazard(self, x):
        s = self.ccdf(x)
        if np.any(np.asarray(s) <= 0.0):
            raise SurvivalUnderflow(
                f"{self.family}: survival underflowed at x={x!r}"
            )
        return self.pdf(x) / s

    def survival_ratio(self, age, extra):
        """P(V > age + extra | V > age), computed in log space.

        Exact 1.0 at extra == 0.  Raises SurvivalUnderflow if the
        conditioning event itself has underflowed probability.
        """
        la = self.log_ccdf(age)
        if np.any(np.isneginf(np.asarray(la))):
            raise SurvivalUnderflow(
                f"{self.family}: survival underflowed at age={age!r}"
            )
        return np.exp(self.log_ccdf(np.asarray(age) + np.asarray(extra)) - la)

    def sample_stationary_age(self, rng, size=None):
        """Draw from the density ccdf(x) (the stationary age law).

        A uniform fraction of a size-biased service time has exactly
        this law (the renewal identity used by `sample_size_biased`).
        """
        return rng.random(size) * self.sample_size_biased(rng, size)

    def __repr__(self):
        fields = ", ".join(
            f"{k}={v!r}" for k, v in self.config().items() if k != "family"
        )
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other):
        return type(other) is type(self) and other.config() == self.config()

    def __hash__(self):
        return hash(tuple(sorted(self.config().items())))


class Exponential(ServiceDistribution):
    """Exponential with rate 1."""

    family = "exponential"

    def ccdf(self, x):
        x = _as_nonnegative(x, "x")
        return _maybe_scalar(np.exp(-x), x)

    def log_ccdf(self, x):
        x = _as_nonnegative(x, "x")
        return _maybe_scalar(-x, x)

    def pdf(self, x):
        x = _as_nonnegative(x, "x")
        return _maybe_scalar(np.exp(-x), x)

    def inverse_ccdf(self, u):
        return _maybe_scalar(-np.log(u), u)

    def stationary_age_ccdf(self, r):
        r = _as_nonnegative(r, "r")
        return _maybe_scalar(np.exp(-r), r)

    def sample(self, rng, size=None):
        return rng.exponential(1.0, size)

    def sample_size_biased(self, rng, size=None):
        return rng.gamma(2.0, 1.0, size)

    def config(self):
        return {"family": "exponential"}


class ParetoService(ServiceDistribution):
    """Lomax (Pareto shifted to start at 0): ccdf (1 + x/sigma)^-beta.

    Unit mean requires beta > 1 and sigma = beta - 1.  The hazard
    beta / (sigma + x) decreases in x.
    """

    family = "pareto"

    def __init__(self, beta):
        beta = float(beta)
        if beta <= 1.0:
            raise ValueError("pareto: beta must exceed 1 for a finite mean")
        self.beta = beta
        self.sigma = beta - 1.0

    def ccdf(self, x):
        x = _as_nonnegative(x, "x")
        return _maybe_scalar(np.exp(-self.beta * np.log1p(x / self.sigma)), x)

    def log_ccdf(self, x):
        x = _as_nonnegative(x, "x")
        return _maybe_scalar(-self.beta * np.log1p(x / self.sigma), x)

    def pdf(self, x):
        x = _as_nonnegative(x, "x")
        val = (self.beta / self.sigma) * np.exp(
            -(self.beta + 1.0) * np.log1p(x / self.sigma)
        )
        return _maybe_scalar(val, x)

    def inverse_ccdf(self, u):
        u = np.asarray(u, dtype=float)
        return _maybe_scalar(self.sigma * np.expm1(-np.log(u) / self.beta), u)

    def stationary_age_ccdf(self, r):
        r = _as_nonnegative(r, "r")
        # integral of (1+x/sigma)^-beta over (r, inf) = sigma/(beta-1) * (1+r/sigma)^(1-beta)
        val = np.exp((1.0 - self.beta) * np.log1p(r / self.sigma))
        return _maybe_scalar(val, r)

    def sample(self, rng, size=None):
        u = rng.random(size)
        return self.sigma * np.expm1(-np.log(u) / self.beta)

    def sample_size_biased(self, rng, size=None):
        # x pdf(x) is a beta-prime(2, beta - 1) law scaled by sigma
        return self.sigma * rng.gamma(2.0, 1.0, size) \
            / rng.gamma(self.beta - 1.0, 1.0, size)

    def config(self):
        return {"family": "pareto", "beta": self.beta}


class LogNormalService(ServiceDistribution):
    """LogNormal with log-scale std sigma; log-mean -sigma^2/2 gives mean 1."""

    family = "lognormal"

    def __init__(self, sigma):
        sigma = float(sigma)
        if sigma <= 0.0:
            raise ValueError("lognormal: sigma must be positive")
        self.sigma = sigma
        self.mu = -0.5 * sigma * sigma

    def _z(self, x):
        with np.errstate(divide="ignore"):
            return (np.log(x) - self.mu) / self.sigma

    def ccdf(self, x):
        from scipy import special
        x = _as_nonnegative(x, "x")
        val = np.where(x > 0.0, special.ndtr(-self._z(np.maximum(x, 1e-300))), 1.0)
        return _maybe_scalar(val, x)

    def log_ccdf(self, x):
        from scipy import special
        x = _as_nonnegative(x, "x")
        val = np.where(
            x > 0.0,
            special.log_ndtr(-self._z(np.maximum(x, 1e-300))),
            0.0,
        )
        return _maybe_scalar(val, x)

    def pdf(self, x):
        x = _as_nonnegative(x, "x")
        xs = np.maximum(x, 1e-300)
        z = self._z(xs)
        val = np.where(
            x > 0.0,
            np.exp(-0.5 * z * z) / (xs * self.sigma * math.sqrt(2.0 * math.pi)),
            0.0,
        )
        return _maybe_scalar(val, x)

    def inverse_ccdf(self, u):
        from scipy import special
        u = np.asarray(u, dtype=float)
        return _maybe_scalar(np.exp(self.mu - self.sigma * special.ndtri(u)), u)

    def stationary_age_ccdf(self, r):
        from scipy import special
        r = _as_nonnegative(r, "r")
        rs = np.maximum(r, 1e-300)
        # E[V 1{V>r}] - r P(V>r), with E[V 1{V>r}] = ndtr((mu + sigma^2 - ln r)/sigma)
        partial = special.ndtr((self.mu + self.sigma**2 - np.log(rs)) / self.sigma)
        val = np.where(r > 0.0, partial - r * special.ndtr(-self._z(rs)), 1.0)
        return _maybe_scalar(val, r)

    def sample(self, rng, size=None):
        return rng.lognormal(self.mu, self.sigma, size)

    def sample_size_biased(self, rng, size=None):
        return rng.lognormal(self.mu + self.sigma**2, self.sigma, size)

    def config(self):
        return {"family": "lognormal", "sigma": self.sigma}


class GammaService(ServiceDistribution):
    """Gamma with shape k and rate k (mean 1)."""

    family = "gamma"

    def __init__(self, shape):
        shape = float(shape)
        if shape <= 0.0:
            raise ValueError("gamma: shape must be positive")
        self.shape = shape

    def ccdf(self, x):
        from scipy import special
        x = _as_nonnegative(x, "x")
        return _maybe_scalar(special.gammaincc(self.shape, self.shape * x), x)

    def log_ccdf(self, x):
        from scipy import special
        x = _as_nonnegative(x, "x")
        with np.errstate(divide="ignore"):
            val = np.log(special.gammaincc(self.shape, self.shape * x))
        return _maybe_scalar(val, x)

    def pdf(self, x):
        from scipy import special
        x = _as_nonnegative(x, "x")
        k = self.shape
        xs = np.maximum(x, 1e-300)
        logpdf = k * math.log(k) + (k - 1.0) * np.log(xs) - k * xs - special.gammaln(k)
        val = np.where((x > 0.0) | (k <= 1.0), np.exp(logpdf), 0.0)
        return _maybe_scalar(val, x)

    def inverse_ccdf(self, u):
        from scipy import special
        u = np.asarray(u, dtype=float)
        return _maybe_scalar(special.gammainccinv(self.shape, u) / self.shape, u)

    def stationary_age_ccdf(self, r):
        from scipy import special
        r = _as_nonnegative(r, "r")
        k = self.shape
        val = special.gammaincc(k + 1.0, k * r) - r * special.gammaincc(k, k * r)
        return _maybe_scalar(val, r)

    def sample(self, rng, size=None):
        return rng.gamma(self.shape, 1.0 / self.shape, size)

    def sample_size_biased(self, rng, size=None):
        return rng.gamma(self.shape + 1.0, 1.0 / self.shape, size)

    def config(self):
        return {"family": "gamma", "shape": self.shape}


class HyperExponential(ServiceDistribution):
    """Two-phase mixture of exponentials; the weight is set by the unit mean."""

    family = "hyperexp"

    def __init__(self, rate1, rate2):
        rate1 = float(rate1)
        rate2 = float(rate2)
        if rate1 <= 0.0 or rate2 <= 0.0:
            raise ValueError("hyperexp: rates must be positive")
        if math.isclose(rate1, rate2):
            raise ValueError("hyperexp: rates must differ (use exponential)")
        # solve p/rate1 + (1-p)/rate2 = 1
        p = (1.0 - 1.0 / rate2) / (1.0 / rate1 - 1.0 / rate2)
        if not 0.0 <= p <= 1.0:
            raise ValueError(
                "hyperexp: no valid mixture weight; rates must straddle 1"
            )
        self.rate1 = rate1
        self.rate2 = rate2
        self.weight = p

    def ccdf(self, x):
        x = _as_nonnegative(x, "x")
        p = self.weight
        val = p * np.exp(-self.rate1 * x) + (1.0 - p) * np.exp(-self.rate2 * x)
        return _maybe_scalar(val, x)

    def log_ccdf(self, x):
        x = _as_nonnegative(x, "x")
        p = self.weight
        val = np.logaddexp(
            math.log(p) - self.rate1 * x,
            math.log1p(-p) - self.rate2 * x,
        )
        return _maybe_scalar(val, x)

    def pdf(self, x):
        x = _as_nonnegative(x, "x")
        p = self.weight
        val = p * self.rate1 * np.exp(-self.rate1 * x) \
            + (1.0 - p) * self.rate2 * np.exp(-self.rate2 * x)
        return _maybe_scalar(val, x)

    def inverse_ccdf(self, u):
        if np.ndim(u) > 0:
            return np.array([self.inverse_ccdf(ui) for ui in np.asarray(u)])
        u = float(u)
        if u >= 1.0:
            return 0.0
        from scipy import optimize
        lo_rate = min(self.rate1, self.rate2)
        hi = -math.log(u) / lo_rate + 1.0
        return float(optimize.brentq(
            lambda x: self.log_ccdf(x) - math.log(u),
            0.0, hi, xtol=1e-13, rtol=8.9e-16,
        ))

    def stationary_age_ccdf(self, r):
        r = _as_nonnegative(r, "r")
        p = self.weight
        val = (p / self.rate1) * np.exp(-self.rate1 * r) \
            + ((1.0 - p) / self.rate2) * np.exp(-self.rate2 * r)
        return _maybe_scalar(val, r)

    def sample(self, rng, size=None):
        if size is None:
            rate = self.rate1 if rng.random() < self.weight else self.rate2
            return rng.exponential(1.0 / rate)
        fast = rng.random(size) < self.weight
        draws = rng.exponential(1.0, size)
        return np.where(fast, draws / self.rate1, draws / self.rate2)

    def sample_size_biased(self, rng, size=None):
        # each phase is size-biased to Gamma(2) and reweighted by its mean
        fast = rng.random(size) < self.weight / self.rate1
        rate = np.where(fast, self.rate1, self.rate2)
        return rng.gamma(2.0, 1.0, size) / rate

    def config(self):
        return {"family": "hyperexp", "rate1": self.rate1, "rate2": self.rate2}


class WeibullService(ServiceDistribution):
    """Weibull with shape k; scale 1/Gamma(1+1/k) gives mean 1."""

    family = "weibull"

    def __init__(self, shape):
        from scipy import special
        shape = float(shape)
        if shape <= 0.0:
            raise ValueError("weibull: shape must be positive")
        gamma = special.gamma(1.0 + 1.0 / shape)
        if not np.isfinite(gamma):  # below a shape of about 0.0059
            raise ValueError(f"weibull: shape {shape!r} leaves no positive "
                             "unit-mean scale 1/gamma(1 + 1/shape)")
        self.shape = shape
        self.scale = 1.0 / gamma

    def ccdf(self, x):
        x = _as_nonnegative(x, "x")
        return _maybe_scalar(np.exp(-((x / self.scale) ** self.shape)), x)

    def log_ccdf(self, x):
        x = _as_nonnegative(x, "x")
        return _maybe_scalar(-((x / self.scale) ** self.shape), x)

    def pdf(self, x):
        x = _as_nonnegative(x, "x")
        k, c = self.shape, self.scale
        xs = np.maximum(x, 1e-300)
        val = (k / c) * (xs / c) ** (k - 1.0) * np.exp(-((xs / c) ** k))
        val = np.where((x > 0.0) | (k <= 1.0), val, 0.0)
        return _maybe_scalar(val, x)

    def inverse_ccdf(self, u):
        u = np.asarray(u, dtype=float)
        return _maybe_scalar(self.scale * (-np.log(u)) ** (1.0 / self.shape), u)

    def stationary_age_ccdf(self, r):
        from scipy import special
        r = _as_nonnegative(r, "r")
        k, c = self.shape, self.scale
        # substitute y = (x/c)^k: integral = (c/k) * GammaUpper(1/k, (r/c)^k)
        val = (c / k) * special.gamma(1.0 / k) \
            * special.gammaincc(1.0 / k, (r / c) ** k)
        return _maybe_scalar(val, r)

    def sample(self, rng, size=None):
        return self.scale * rng.weibull(self.shape, size)

    def sample_size_biased(self, rng, size=None):
        # y = (x/scale)^k is Gamma(1 + 1/k) under the size-biased law
        return self.scale * rng.gamma(1.0 + 1.0 / self.shape, 1.0, size) \
            ** (1.0 / self.shape)

    def config(self):
        return {"family": "weibull", "shape": self.shape}


_FAMILIES = {
    "exponential": (Exponential, ()),
    "pareto": (ParetoService, ("beta",)),
    "lognormal": (LogNormalService, ("sigma",)),
    "gamma": (GammaService, ("shape",)),
    "hyperexp": (HyperExponential, ("rate1", "rate2")),
    "weibull": (WeibullService, ("shape",)),
}


def distribution_from_config(cfg: dict) -> ServiceDistribution:
    """Build a distribution from {'family': ..., <shape fields>}."""
    if "family" not in cfg:
        raise ValueError("service config needs a 'family' field")
    family = cfg["family"]
    if family not in _FAMILIES:
        raise ValueError(
            f"unknown service family {family!r}; "
            f"expected one of {sorted(_FAMILIES)}"
        )
    cls, fields = _FAMILIES[family]
    extra = set(cfg) - {"family"} - set(fields)
    if extra:
        raise ValueError(f"service family {family!r}: unknown fields {sorted(extra)}")
    missing = set(fields) - set(cfg)
    if missing:
        raise ValueError(f"service family {family!r}: missing fields {sorted(missing)}")
    return cls(**{f: cfg[f] for f in fields})
