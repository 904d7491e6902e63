import copy
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluidlb import (
    ConstantRate,
    PeriodicRate,
    PiecewiseRate,
    Segment,
    profile_from_config,
)
from fluidlb.arrivals import _KINDS

SURGE = PiecewiseRate([(10.0, 0.6), (2.0, 5.0)], repeat=False)


def test_constant_rate():
    p = ConstantRate(0.5)
    assert p.rate(3.0) == 0.5
    assert p.cumulative(4.0) == 2.0
    assert p.integrated_rate(1.0, 3.0) == 1.0


def test_periodic_square_wave():
    p = PeriodicRate(0.7, 0.3, 2.0)
    assert p.rate(0.5) == 1.0
    assert p.rate(1.5) == pytest.approx(0.4)
    # right-continuous at the half-period jump
    assert p.rate(1.0) == pytest.approx(0.4)
    assert p.rate(2.0) == 1.0
    assert p.cumulative(2.0) == pytest.approx(1.4)
    assert p.cumulative(21.0) == pytest.approx(0.7 * 21.0 + 0.3)


def test_periodic_validation():
    with pytest.raises(ValueError):
        PeriodicRate(0.5, 0.6, 2.0)
    with pytest.raises(ValueError):
        PeriodicRate(0.5, 0.1, 0.0)


def test_piecewise_one_shot():
    assert SURGE.rate(11.0) == 5.0
    assert SURGE.rate(9.999) == 0.6
    assert SURGE.rate(12.5) == 0.0
    assert SURGE.cumulative(12.0) == pytest.approx(16.0)
    assert SURGE.cumulative(100.0) == pytest.approx(16.0)
    assert SURGE.cycle_length == 12.0


def test_piecewise_repeating():
    p = PiecewiseRate([(10.0, 0.6), (2.0, 5.0)], repeat=True)
    assert p.rate(12.5) == 0.6
    assert p.rate(23.0) == 5.0
    assert p.cumulative(24.0) == pytest.approx(32.0)


def test_segment_validation():
    with pytest.raises(ValueError):
        Segment(0.0, 1.0)
    with pytest.raises(ValueError):
        Segment(1.0, -0.1)
    with pytest.raises(ValueError):
        PiecewiseRate([])


def test_integrated_rate_rejects_reversed_interval():
    with pytest.raises(ValueError):
        ConstantRate(1.0).integrated_rate(2.0, 1.0)


@given(st.lists(st.tuples(st.floats(0.1, 5.0), st.floats(0.0, 3.0)),
                min_size=1, max_size=5),
       st.booleans(),
       st.lists(st.floats(0.0, 40.0), min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_cumulative_additivity(segs, repeat, points):
    p = PiecewiseRate(segs, repeat=repeat)
    a, b, c = sorted(points)
    split = p.integrated_rate(a, b) + p.integrated_rate(b, c)
    assert math.isclose(split, p.integrated_rate(a, c), abs_tol=1e-12)


def test_next_arrival_counts_match_poisson():
    # exact sampling: the count over a window is Poisson with the
    # integrated rate as its mean
    rng = np.random.default_rng(42)
    p = PeriodicRate(0.7, 0.3, 2.0)
    horizon, scale, reps = 6.0, 3.0, 2000
    want = scale * p.integrated_rate(0.0, horizon)
    counts = np.empty(reps)
    for i in range(reps):
        t, k = 0.0, 0
        while True:
            t = p.next_arrival(t, rng.standard_exponential(), scale=scale)
            if t > horizon:
                break
            k += 1
        counts[i] = k
    se = counts.std(ddof=1) / math.sqrt(reps)
    assert abs(counts.mean() - want) < 4.0 * se
    assert abs(counts.var(ddof=1) - want) < 6.0 * math.sqrt(want)


def test_no_arrivals_in_zero_rate_stretch():
    # amplitude equal to the mean silences the second half of each period
    rng = np.random.default_rng(3)
    p = PeriodicRate(0.7, 0.7, 2.0)
    t = 0.0
    for _ in range(500):
        t = p.next_arrival(t, rng.standard_exponential())
        assert math.fmod(t, 2.0) <= 1.0


def test_one_shot_exhaustion_returns_inf():
    assert SURGE.next_arrival(12.0, 0.1) == math.inf
    assert SURGE.next_arrival(50.0, 0.1) == math.inf
    assert ConstantRate(0.0).next_arrival(1.0, 0.1) == math.inf
    # the mass left after t = 9.5, 0.6 * 0.5 + 5 * 2 = 10.3, falls short of e
    assert SURGE.next_arrival(9.5, 11.5) == math.inf


def test_next_arrival_hand_values():
    # the arrival lands where the integrated rate from t reaches e
    assert ConstantRate(0.5).next_arrival(2.0, 1.5, scale=3.0) == 3.0
    # rate 2 on [0, 1), 0 on [1, 3), 4 on [3, 4): from 0.5, e = 3 spends
    # 1 in the first segment, crosses the silent one, and needs 2 / 4 more
    p = PiecewiseRate([(1.0, 2.0), (2.0, 0.0), (1.0, 4.0)], repeat=True)
    assert p.next_arrival(0.5, 3.0) == 3.5
    assert p.next_arrival(0.5, 0.5) == 0.75
    # e = 6.5 leaves 1.5 after the first cycle, at rate 2 from t = 4
    assert p.next_arrival(0.5, 6.5) == 4.75
    # scale 2 doubles every rate: 2 is spent by t = 1, the last 1 at rate 8
    assert p.next_arrival(0.5, 3.0, scale=2.0) == 3.125
    one_shot = PiecewiseRate([(1.0, 2.0), (2.0, 0.0), (1.0, 4.0)])
    assert one_shot.next_arrival(0.5, 3.0) == 3.5
    assert one_shot.next_arrival(0.5, 6.5) == math.inf


def test_arrivals_are_strictly_ordered():
    rng = np.random.default_rng(11)
    t = 0.0
    for _ in range(200):
        t2 = SURGE.next_arrival(t, rng.standard_exponential())
        if t2 == math.inf:
            break
        assert t2 > t
        t = t2


@pytest.mark.parametrize("profile", [
    ConstantRate(0.5),
    PeriodicRate(0.7, 0.3, 2.0),
    SURGE,
    PiecewiseRate([(1.0, 2.0)], repeat=True),
], ids=["constant", "periodic", "surge", "repeat1"])
def test_config_roundtrip(profile):
    clone = profile_from_config(profile.config())
    assert clone.config() == profile.config()
    for t in (0.0, 0.9, 3.7, 11.2):
        assert clone.rate(t) == profile.rate(t)
        assert clone.cumulative(t) == profile.cumulative(t)


def test_config_rejects_bad_documents():
    with pytest.raises(ValueError):
        profile_from_config({"rate": 1.0})
    with pytest.raises(ValueError):
        profile_from_config({"kind": "constant", "rate": 1.0, "x": 2})
    with pytest.raises(ValueError):
        profile_from_config({"kind": "sawtooth"})
    with pytest.raises((TypeError, ValueError)):
        profile_from_config({"kind": "piecewise",
                             "segments": [{"duration": 1.0, "rate": 1.0,
                                           "color": "red"}],
                             "repeat": False})


# one document per registered kind, its numbers written as JSON integers
EXAMPLES = {
    "constant": {"kind": "constant", "rate": 1},
    "periodic": {"kind": "periodic", "mean_rate": 1, "delta": 0,
                 "period": 2},
    "piecewise": {"kind": "piecewise", "repeat": True,
                  "segments": [{"duration": 1, "rate": 2},
                               {"duration": 3, "rate": 0}]},
}


def _numeric_fields(node, path):
    """(key path, container, key) of every number in a config document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        where = f"{path}.{key}" if isinstance(node, dict) else f"{path}[{key}]"
        if isinstance(value, (dict, list)):
            yield from _numeric_fields(value, where)
        elif type(value) in (int, float):
            yield where, node, key


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_every_registered_kind_keeps_the_contract(kind):
    doc = EXAMPLES[kind]
    profile = profile_from_config(doc)
    assert type(profile) is _KINDS[kind] and profile.kind == kind
    cfg = profile.config()
    assert list(cfg) == ["kind", *profile.fields]
    leaves = list(_numeric_fields(cfg, "arrival"))
    assert leaves and all(type(node[key]) is float
                          for _, node, key in leaves)
    assert cfg == doc
    clone = profile_from_config(cfg)
    assert type(clone) is type(profile) and clone.config() == cfg
    assert repr(clone) == repr(profile)
    broken = copy.deepcopy(cfg)
    for path, node, key in list(_numeric_fields(broken, "arrival")):
        good = node[key]
        for bad in (True, "1"):
            node[key] = bad
            with pytest.raises(ValueError, match="^" + re.escape(path) + ":"):
                profile_from_config(broken)
        node[key] = good


def test_periodic_is_the_repeating_half_period_schedule():
    periodic = PeriodicRate(0.7, 0.35, 2.0)
    wave = PiecewiseRate([(1.0, 0.7 + 0.35), (1.0, 0.7 - 0.35)],
                         repeat=True)
    assert wave.segments == periodic.segments
    for t in (0.0, 0.3, 1.0, 1.7, 2.0, 9.99, 41.0):
        assert periodic.rate(t) == wave.rate(t)
        assert periodic.cumulative(t) == wave.cumulative(t)
        for e in (0.01, 0.5, 3.0):
            assert periodic.next_arrival(t, e, 1.5) == \
                wave.next_arrival(t, e, 1.5)
