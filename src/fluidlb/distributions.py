"""Unit-mean service-time distributions.

Every family exposes the survival function (ccdf), its log, the survival
ratio, the inverse survival function, exact sampling (plain and
size-biased), and the ccdf of the stationary age (the integrated survival
function).  The fluid state tracks residual service times, so it needs
the survival function and its ratio, never the density.  Closed-form
scales make the mean exactly 1, which `test_unit_mean_by_quadrature`
checks; scipy is imported inside the methods that use it, so elementary
laws run on numpy alone.

`ServiceDistribution` handles arguments for every family: `ccdf`,
`log_ccdf`, `inverse_ccdf` and `stationary_age_ccdf` refuse a
negative argument, pass it as a float array to the family's hook of the
same name with a leading underscore (`_log_ccdf`, ...), and return a float
for a scalar argument.  The default `_ccdf` is `exp(_log_ccdf)`.  A
family's class attribute `fields` names its config keys, each also the
attribute that holds its value; `config()`, `__repr__`, `__eq__`,
`__hash__` and `distribution_from_config` all read it.  Each constructor
checks its values with `config.number`, and every ValueError it raises
starts with the name of the bad field.
"""

from __future__ import annotations

import abc
import math

import numpy as np

from .config import from_config, number

__all__ = [
    "ServiceDistribution",
    "Exponential",
    "ParetoService",
    "LogNormalService",
    "GammaService",
    "HyperExponential",
    "WeibullService",
    "SurvivalUnderflow",
    "FAMILIES",
    "distribution_from_config",
]


class SurvivalUnderflow(ArithmeticError):
    """The survival probability underflowed to zero where a ratio is needed."""


class ServiceDistribution(abc.ABC):
    """A service-time law with unit mean."""

    family = "abstract"
    fields: tuple[str, ...] = ()

    @staticmethod
    def _evaluate(hook, x, name):
        """`hook` on x as a float array, refused if any value is
        negative; a float for a scalar x."""
        arr = np.asarray(x, dtype=float)
        if np.any(arr < 0.0):
            raise ValueError(f"{name} must be nonnegative")
        val = hook(arr)
        return float(val) if arr.ndim == 0 else val

    def ccdf(self, x):
        """P(V > x) for x >= 0."""
        return self._evaluate(self._ccdf, x, "x")

    def log_ccdf(self, x):
        """log P(V > x), exact for large x where ccdf underflows."""
        return self._evaluate(self._log_ccdf, x, "x")

    def inverse_ccdf(self, u):
        """x such that ccdf(x) = u, for u in (0, 1]."""
        return self._evaluate(self._inverse_ccdf, u, "u")

    def stationary_age_ccdf(self, r):
        """Integral of ccdf over (r, inf); the stationary-age survival."""
        return self._evaluate(self._stationary_age_ccdf, r, "r")

    def _ccdf(self, x):
        return np.exp(self._log_ccdf(x))

    @abc.abstractmethod
    def _log_ccdf(self, x):
        """`log_ccdf` on a float array of nonnegative values."""

    @abc.abstractmethod
    def _inverse_ccdf(self, u):
        """`inverse_ccdf` on a float array of nonnegative values."""

    @abc.abstractmethod
    def _stationary_age_ccdf(self, r):
        """`stationary_age_ccdf` on a float array of nonnegative values."""

    @abc.abstractmethod
    def sample(self, rng, size=None):
        """Draw service times with the given numpy Generator."""

    @abc.abstractmethod
    def sample_size_biased(self, rng, size=None):
        """Draw from the size-biased law: density x times the service
        density.

        With U uniform on (0, 1) and V^ size-biased, (U V^, V^) is the
        (age, total) pair of the job in service at a stationary instant:
        the age has density ccdf(a) and the total is V conditioned on
        V > age.
        """

    def config(self) -> dict:
        """Config-file representation ({'family': ..., shape fields})."""
        return {"family": self.family,
                **{name: getattr(self, name) for name in self.fields}}

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

    def _log_ccdf(self, x):
        return -x

    def _inverse_ccdf(self, u):
        return -np.log(u)

    def _stationary_age_ccdf(self, r):
        return np.exp(-r)

    def sample(self, rng, size=None):
        return rng.exponential(1.0, size)

    def sample_size_biased(self, rng, size=None):
        return rng.gamma(2.0, 1.0, size)


class ParetoService(ServiceDistribution):
    """Lomax (Pareto shifted to start at 0): ccdf (1 + x/sigma)^-beta.

    Unit mean requires beta > 1 and sigma = beta - 1.  The failure rate
    beta / (sigma + x) decreases in x.
    """

    family = "pareto"
    fields = ("beta",)

    def __init__(self, beta):
        self.beta = float(number(beta, "beta", above=1))
        self.sigma = self.beta - 1.0

    def _log_ccdf(self, x):
        return -self.beta * np.log1p(x / self.sigma)

    def _inverse_ccdf(self, u):
        return self.sigma * np.expm1(-np.log(u) / self.beta)

    def _stationary_age_ccdf(self, r):
        # integral of (1+x/sigma)^-beta over (r, inf) = sigma/(beta-1) * (1+r/sigma)^(1-beta)
        return np.exp((1.0 - self.beta) * np.log1p(r / self.sigma))

    def sample(self, rng, size=None):
        u = rng.random(size)
        return self.sigma * np.expm1(-np.log(u) / self.beta)

    def sample_size_biased(self, rng, size=None):
        # the size-biased law is a beta-prime(2, beta - 1) law scaled by sigma
        return self.sigma * rng.gamma(2.0, 1.0, size) \
            / rng.gamma(self.beta - 1.0, 1.0, size)


class LogNormalService(ServiceDistribution):
    """LogNormal with log-scale std sigma; log-mean -sigma^2/2 gives mean 1."""

    family = "lognormal"
    fields = ("sigma",)

    def __init__(self, sigma):
        self.sigma = float(number(sigma, "sigma", above=0))
        self.mu = -0.5 * self.sigma * self.sigma

    def _z(self, x):
        with np.errstate(divide="ignore"):
            return (np.log(x) - self.mu) / self.sigma

    def _ccdf(self, x):
        from scipy import special
        return np.where(x > 0.0, special.ndtr(-self._z(np.maximum(x, 1e-300))),
                        1.0)

    def _log_ccdf(self, x):
        from scipy import special
        return np.where(
            x > 0.0,
            special.log_ndtr(-self._z(np.maximum(x, 1e-300))),
            0.0,
        )

    def _inverse_ccdf(self, u):
        from scipy import special
        return np.exp(self.mu - self.sigma * special.ndtri(u))

    def _stationary_age_ccdf(self, r):
        from scipy import special
        rs = np.maximum(r, 1e-300)
        # E[V 1{V>r}] - r P(V>r), with E[V 1{V>r}] = ndtr((mu + sigma^2 - ln r)/sigma)
        partial = special.ndtr((self.mu + self.sigma**2 - np.log(rs)) / self.sigma)
        return np.where(r > 0.0, partial - r * special.ndtr(-self._z(rs)), 1.0)

    def sample(self, rng, size=None):
        return rng.lognormal(self.mu, self.sigma, size)

    def sample_size_biased(self, rng, size=None):
        return rng.lognormal(self.mu + self.sigma**2, self.sigma, size)


class GammaService(ServiceDistribution):
    """Gamma with shape k and rate k (mean 1)."""

    family = "gamma"
    fields = ("shape",)

    def __init__(self, shape):
        self.shape = float(number(shape, "shape", above=0))

    def _ccdf(self, x):
        from scipy import special
        return special.gammaincc(self.shape, self.shape * x)

    def _log_ccdf(self, x):
        from scipy import special
        with np.errstate(divide="ignore"):
            return np.log(special.gammaincc(self.shape, self.shape * x))

    def _inverse_ccdf(self, u):
        from scipy import special
        return special.gammainccinv(self.shape, u) / self.shape

    def _stationary_age_ccdf(self, r):
        from scipy import special
        k = self.shape
        return special.gammaincc(k + 1.0, k * r) - r * special.gammaincc(k, k * r)

    def sample(self, rng, size=None):
        return rng.gamma(self.shape, 1.0 / self.shape, size)

    def sample_size_biased(self, rng, size=None):
        return rng.gamma(self.shape + 1.0, 1.0 / self.shape, size)


class HyperExponential(ServiceDistribution):
    """Two-phase mixture of exponentials; the weight is set by the unit mean."""

    family = "hyperexp"
    fields = ("rate1", "rate2")

    def __init__(self, rate1, rate2):
        self.rate1 = float(number(rate1, "rate1", above=0))
        self.rate2 = float(number(rate2, "rate2", above=0))
        # p/rate1 + (1-p)/rate2 = 1 has a weight p strictly inside (0, 1),
        # as log_ccdf needs, only for rates strictly on either side of 1;
        # a rate of 1, or two equal rates, is the exponential law
        if not min(self.rate1, self.rate2) < 1.0 < max(self.rate1, self.rate2):
            raise ValueError(f"rate2: rates {self.rate1!r}, {self.rate2!r} "
                             "must lie strictly on either side of 1")
        self.weight = (1.0 - 1.0 / self.rate2) \
            / (1.0 / self.rate1 - 1.0 / self.rate2)

    def _ccdf(self, x):
        p = self.weight
        return p * np.exp(-self.rate1 * x) + (1.0 - p) * np.exp(-self.rate2 * x)

    def _log_ccdf(self, x):
        p = self.weight
        return np.logaddexp(
            math.log(p) - self.rate1 * x,
            math.log1p(-p) - self.rate2 * x,
        )

    def _inverse_ccdf(self, u):
        from scipy import optimize
        lo_rate = min(self.rate1, self.rate2)

        def solve(ui):
            if ui >= 1.0:
                return 0.0
            hi = -math.log(ui) / lo_rate + 1.0
            return optimize.brentq(
                lambda x: self.log_ccdf(x) - math.log(ui),
                0.0, hi, xtol=1e-13, rtol=8.9e-16,
            )

        return np.array([solve(ui) for ui in u.ravel().tolist()]) \
            .reshape(u.shape)

    def _stationary_age_ccdf(self, r):
        p = self.weight
        return (p / self.rate1) * np.exp(-self.rate1 * r) \
            + ((1.0 - p) / self.rate2) * np.exp(-self.rate2 * r)

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


class WeibullService(ServiceDistribution):
    """Weibull with shape k; scale 1/Gamma(1+1/k) gives mean 1."""

    family = "weibull"
    fields = ("shape",)

    def __init__(self, shape):
        from scipy import special
        self.shape = float(number(shape, "shape", above=0))
        gamma = special.gamma(1.0 + 1.0 / self.shape)
        if not np.isfinite(gamma):  # below a shape of about 0.0059
            raise ValueError(f"shape: {self.shape!r} leaves no "
                             "positive unit-mean scale 1/gamma(1 + 1/shape)")
        self.scale = 1.0 / gamma

    def _log_ccdf(self, x):
        return -((x / self.scale) ** self.shape)

    def _inverse_ccdf(self, u):
        return self.scale * (-np.log(u)) ** (1.0 / self.shape)

    def _stationary_age_ccdf(self, r):
        from scipy import special
        k, c = self.shape, self.scale
        # substitute y = (x/c)^k: integral = (c/k) * GammaUpper(1/k, (r/c)^k)
        return (c / k) * special.gamma(1.0 / k) \
            * special.gammaincc(1.0 / k, (r / c) ** k)

    def sample(self, rng, size=None):
        return self.scale * rng.weibull(self.shape, size)

    def sample_size_biased(self, rng, size=None):
        # y = (x/scale)^k is Gamma(1 + 1/k) under the size-biased law
        return self.scale * rng.gamma(1.0 + 1.0 / self.shape, 1.0, size) \
            ** (1.0 / self.shape)


FAMILIES = {cls.family: cls for cls in (
    Exponential, ParetoService, LogNormalService, GammaService,
    HyperExponential, WeibullService,
)}


def distribution_from_config(cfg: dict,
                             path: str = "service") -> ServiceDistribution:
    """Build a distribution from {'family': ..., <shape fields>}; a
    ConfigError whose message starts with the key path of the bad value,
    below `path`."""
    return from_config(cfg, path, "family", FAMILIES)
