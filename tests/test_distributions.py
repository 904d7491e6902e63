import math

import numpy as np
import pytest
from scipy import integrate, stats

from fluidlb import (
    Exponential,
    GammaService,
    HyperExponential,
    LogNormalService,
    ParetoService,
    SurvivalUnderflow,
    WeibullService,
    distribution_from_config,
)
from fluidlb.distributions import FAMILIES

ALL_DISTS = [
    Exponential(),
    ParetoService(beta=2.25),
    ParetoService(beta=3.0),
    LogNormalService(sigma=0.33),
    GammaService(shape=2.0),
    HyperExponential(0.5, 2.0),
    WeibullService(shape=0.8),
]


def ids(dists):
    return [repr(d) for d in dists]


def test_exponential_point_values():
    d = Exponential()
    assert math.isclose(d.ccdf(1.0), math.exp(-1.0), rel_tol=1e-12)
    assert math.isclose(d.inverse_ccdf(0.5), math.log(2.0), rel_tol=1e-12)
    # the stationary age of a unit exponential is again unit exponential
    assert math.isclose(d.stationary_age_ccdf(1.0), math.exp(-1.0),
                        rel_tol=1e-12)
    # memoryless: one more unit of time survives with e^-1 at any age
    assert math.isclose(d.survival_ratio(3.7, 1.0), math.exp(-1.0),
                        rel_tol=1e-12)


def test_pareto_point_values():
    # unit-mean Lomax: scale sigma = beta - 1, ccdf = (1 + x/sigma)^-beta
    d = ParetoService(beta=2.25)
    assert math.isclose(d.ccdf(1.25), 2.0 ** -2.25, rel_tol=1e-12)
    # P(V > 2.5 | V > 1.25) = ((1 + 2.5/1.25) / (1 + 1.25/1.25))^-2.25
    assert math.isclose(d.survival_ratio(1.25, 1.25), 1.5 ** -2.25,
                        rel_tol=1e-12)
    d3 = ParetoService(beta=3.0)
    # ccdf(x) = 0.5 at x = sigma (2^(1/beta) - 1)
    assert math.isclose(d3.inverse_ccdf(0.5), 2.0 * (2.0 ** (1 / 3) - 1.0),
                        rel_tol=1e-10)
    # stationary age survival is (1 + r/sigma)^(1-beta)
    assert math.isclose(d3.stationary_age_ccdf(2.0), 0.25, rel_tol=1e-12)


def test_gamma_point_values():
    # unit-mean gamma with shape 2 has rate 2: ccdf = e^(-2x) (1 + 2x)
    d = GammaService(shape=2.0)
    assert math.isclose(d.ccdf(0.5), 2.0 * math.exp(-1.0), rel_tol=1e-12)
    # P(V > 1 | V > 0.5) = 3 e^-2 / (2 e^-1)
    assert math.isclose(d.survival_ratio(0.5, 0.5), 1.5 * math.exp(-1.0),
                        rel_tol=1e-12)


def test_hyperexp_point_values():
    # mixing weight solves p/r1 + (1-p)/r2 = 1: p = 1/3 for rates (0.5, 2)
    d = HyperExponential(0.5, 2.0)
    p = 1.0 / 3.0

    def ccdf(x):
        return p * math.exp(-0.5 * x) + (1 - p) * math.exp(-2.0 * x)

    assert math.isclose(d.ccdf(0.8), ccdf(0.8), rel_tol=1e-12)
    assert math.isclose(d.survival_ratio(0.8, 1.0), ccdf(1.8) / ccdf(0.8),
                        rel_tol=1e-12)


# every shape the README, the studies and the acceptance tests use, and
# edge values near where each family's constructor stops accepting
MEAN_DISTS = ALL_DISTS + [
    ParetoService(beta=1.01),
    ParetoService(beta=1.25),
    ParetoService(beta=1.5),
    ParetoService(beta=1.75),
    ParetoService(beta=2.5),
    LogNormalService(sigma=0.5),
    LogNormalService(sigma=1.0),
    LogNormalService(sigma=1.5),
    LogNormalService(sigma=4.0),
    GammaService(shape=0.05),
    GammaService(shape=0.5),
    HyperExponential(0.001, 10.0),
    HyperExponential(0.01, 100.0),
    WeibullService(shape=0.1),
    WeibullService(shape=0.6),
    WeibullService(shape=1.2),
    WeibullService(shape=3.0),
]


@pytest.mark.parametrize("dist", MEAN_DISTS, ids=ids(MEAN_DISTS))
def test_unit_mean_by_quadrature(dist):
    # constructors set the scale in closed form and check nothing at run
    # time; this is where the unit mean is verified
    mean, _ = integrate.quad(lambda x: float(dist.ccdf(x)), 0.0, np.inf,
                             epsabs=1e-12, epsrel=1e-12, limit=400)
    assert abs(mean - 1.0) <= 1e-9


@pytest.mark.parametrize("dist", ALL_DISTS, ids=ids(ALL_DISTS))
def test_inverse_ccdf_roundtrip(dist):
    for u in (0.9, 0.5, 0.1, 1e-3):
        assert math.isclose(float(dist.ccdf(dist.inverse_ccdf(u))), u,
                            rel_tol=1e-9)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=ids(ALL_DISTS))
def test_stationary_age_ccdf_is_integrated_survival(dist):
    # with unit mean: stationary_age_ccdf(X) = 1 - int_0^X ccdf(u) du
    for x in (0.5, 2.0, 6.0):
        head, _ = integrate.quad(lambda u: float(dist.ccdf(u)), 0.0, x,
                                 limit=400)
        assert math.isclose(head + float(dist.stationary_age_ccdf(x)), 1.0,
                            abs_tol=1e-6)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=ids(ALL_DISTS))
def test_log_ccdf_consistent(dist):
    x = np.array([0.1, 1.0, 4.0])
    np.testing.assert_allclose(np.exp(dist.log_ccdf(x)), dist.ccdf(x),
                               rtol=1e-10)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=ids(ALL_DISTS))
def test_survival_ratio_matches_integrated_hazard(dist):
    # P(V > a+s | V > a) = exp(-int_a^(a+s) hazard) = ccdf(a+s) / ccdf(a),
    # here from the plain ccdf, not the log space the ratio works in
    for age, extra in ((0.0, 1.0), (0.7, 0.5), (2.0, 2.0)):
        want = float(dist.ccdf(age + extra)) / float(dist.ccdf(age))
        assert math.isclose(float(dist.survival_ratio(age, extra)), want,
                            rel_tol=1e-10)
    assert float(dist.survival_ratio(1.3, 0.0)) == 1.0


@pytest.mark.parametrize("dist", ALL_DISTS, ids=ids(ALL_DISTS))
def test_sampling_matches_ccdf(dist):
    rng = np.random.default_rng(1234)
    draws = dist.sample(rng, size=100_000)
    assert draws.min() >= 0.0
    d_stat = stats.kstest(draws, lambda x: 1.0 - dist.ccdf(x)).statistic
    assert d_stat < 0.01
    # sample mean within 5 standard errors of the unit mean
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - 1.0) < 5.0 * se


STATIONARY_DISTS = ALL_DISTS + [ParetoService(beta=1.25)]


@pytest.mark.parametrize("dist", STATIONARY_DISTS, ids=ids(STATIONARY_DISTS))
def test_stationary_age_sampling(dist):
    # (U * total, total) with a size-biased total: the age and the
    # residual both follow the stationary age law, and the total has cdf
    # int_0^x v pdf(v) dv = 1 - x ccdf(x) - stationary_age_ccdf(x)
    rng = np.random.default_rng(7)
    total = dist.sample_size_biased(rng, size=20_000)
    age = rng.random(total.size) * total
    assert np.all(np.isfinite(total)) and np.all(age >= 0.0)
    assert np.all(total > age)

    def age_cdf(x):
        return 1.0 - dist.stationary_age_ccdf(x)

    def total_cdf(x):
        return 1.0 - x * dist.ccdf(x) - dist.stationary_age_ccdf(x)

    assert stats.kstest(age, age_cdf).statistic < 0.015
    assert stats.kstest(total - age, age_cdf).statistic < 0.015
    assert stats.kstest(total, total_cdf).statistic < 0.015
    ages = dist.sample_stationary_age(rng, size=20_000)
    assert stats.kstest(ages, age_cdf).statistic < 0.015


def test_survival_underflow_raised():
    # the gamma log-survival underflows far out in the tail
    with pytest.raises(SurvivalUnderflow):
        GammaService(2.0).survival_ratio(1e6, 1.0)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=ids(ALL_DISTS))
def test_config_roundtrip(dist):
    clone = distribution_from_config(dist.config())
    assert clone == dist
    assert hash(clone) == hash(dist)
    x = np.linspace(0.0, 5.0, 11)
    np.testing.assert_array_equal(clone.ccdf(x), dist.ccdf(x))


def test_config_rejects_unknown_and_missing():
    with pytest.raises(ValueError):
        distribution_from_config({"family": "pareto"})
    with pytest.raises(ValueError):
        distribution_from_config({"family": "pareto", "beta": 2.0,
                                  "extra": 1})
    with pytest.raises(ValueError):
        distribution_from_config({"family": "triangular"})


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        ParetoService(beta=1.0)   # infinite mean
    with pytest.raises(ValueError):
        GammaService(shape=0.0)
    with pytest.raises(ValueError):
        HyperExponential(1.0, 1.0)  # cannot mix to unit mean
    # a rate of 1 leaves a mixture weight of 0 or 1, whose log is -inf:
    # the law is exponential
    for rates in ((0.5, 1.0), (1.0, 3.0)):
        with pytest.raises(ValueError, match=r"^rate2: rates .* must lie "
                           "strictly on either side of 1"):
            HyperExponential(*rates)
    # a JSON true or "2" is not a shape
    for bad in (True, "2", None):
        with pytest.raises(ValueError, match="^shape: expected a number"):
            GammaService(shape=bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cfg", [
    {"family": "pareto", "beta": None},
    {"family": "lognormal", "sigma": None},
    {"family": "gamma", "shape": None},
    {"family": "weibull", "shape": None},
    {"family": "hyperexp", "rate1": None, "rate2": 2.0},
    {"family": "hyperexp", "rate1": 0.5, "rate2": None},
], ids=["pareto", "lognormal", "gamma", "weibull", "hyperexp1", "hyperexp2"])
def test_non_finite_parameters_rejected(cfg, bad):
    (key,) = [k for k, v in cfg.items() if v is None]
    cfg = dict(cfg, **{key: bad})
    with pytest.raises(ValueError,
                       match=f"^service.{key}: expected a finite number"):
        distribution_from_config(cfg)


def test_weibull_shape_without_a_scale_rejected():
    # gamma(1 + 1/k) overflows below k of about 0.0059, so 1/gamma would
    # make the scale 0: a NaN survival at 0 and every sample 0
    with pytest.raises(ValueError, match="^shape: 0.005 leaves no positive"):
        WeibullService(shape=0.005)
    with pytest.raises(ValueError,
                       match="^shape: expected a finite number, got nan"):
        WeibullService(shape=float("nan"))
    assert WeibullService(shape=0.006).scale > 0.0


@pytest.mark.parametrize("dist", ALL_DISTS, ids=ids(ALL_DISTS))
def test_ccdf_monotone_and_bounded(dist):
    x = np.sort(np.random.default_rng(5).uniform(0.0, 30.0, size=200))
    s = np.asarray(dist.ccdf(x))
    assert np.all(s <= 1.0 + 1e-15) and np.all(s >= 0.0)
    assert np.all(np.diff(s) <= 1e-15)
    assert float(dist.ccdf(0.0)) == 1.0


def _example(cls):
    # the first field 2 and a second 0.5 suit every family: above the
    # Pareto bound of 1, and hyperexp rates on either side of 1
    return cls(*(2.0, 0.5)[:len(cls.fields)])


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_registered_family_keeps_the_contract(family):
    dist = _example(FAMILIES[family])
    cfg = dist.config()
    assert list(cfg) == ["family", *dist.fields] and cfg["family"] == family
    clone = distribution_from_config(cfg)
    assert clone == dist and hash(clone) == hash(dist)
    x = np.array([0.0, 0.3, 1.0, 4.0])
    for method in (dist.ccdf, dist.log_ccdf, dist.stationary_age_ccdf):
        assert type(method(1.0)) is float
        assert method(x).shape == x.shape
        for bad in (-1.0, np.array([1.0, -0.5])):
            with pytest.raises(ValueError, match="must be nonnegative"):
                method(bad)
    assert type(dist.inverse_ccdf(0.5)) is float
    assert dist.inverse_ccdf(np.array([0.9, 0.5])).shape == (2,)
    np.testing.assert_allclose(dist.ccdf(x), np.exp(dist.log_ccdf(x)),
                               rtol=1e-12, atol=0.0)
