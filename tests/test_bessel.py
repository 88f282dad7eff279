import numpy as np
import pytest
from scipy import special

from eetsim.bessel import (
    _bessel_j_miller_orders,
    _bessel_j_series,
    _recurrence_steps,
    bessel_j,
    chain_bessel_populations,
)


def bisect_series_zero(lo, hi, tol=1e-13):
    # root of J_0 located with the series implementation alone
    flo = _bessel_j_series(0, lo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fmid = _bessel_j_series(0, mid)
        if flo * fmid <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def test_order_zero_at_origin():
    assert bessel_j(0, 0.0) == 1.0


@pytest.mark.parametrize("order", [1, 2, 5, 14])
def test_higher_orders_vanish_at_origin(order):
    assert bessel_j(order, 0.0) == 0.0


def test_first_zero_of_j0():
    root = bisect_series_zero(2.0, 3.0)
    assert abs(root - 2.404825557695773) < 1e-9
    # populations computed at the root: 2 v t = root
    assert chain_bessel_populations(1.0, 0, root / 2.0) < 1e-20


def test_series_miller_consistency():
    # both routes stay consistent around the switch point x = 3 and beyond;
    # the series slowly loses digits to cancellation as x grows
    for x in (2.5, 3.0, 3.5, 10.0, 12.5, 14.0):
        for n in range(0, 20):
            assert abs(_bessel_j_series(n, x) - _bessel_j_miller_orders(n, x)[n]) < 5e-12


def test_against_scipy_grid():
    xs = np.concatenate([np.linspace(0.1, 11.9, 24), np.linspace(12.1, 30.0, 24)])
    for n in range(0, 26):
        for x in xs:
            assert abs(bessel_j(n, float(x)) - special.jv(n, x)) < 1e-12


def test_negative_order_reflection():
    for x in (0.7, 5.0, 20.0):
        assert np.isclose(bessel_j(-3, x), -bessel_j(3, x), atol=1e-15)
        assert np.isclose(bessel_j(-4, x), bessel_j(4, x), atol=1e-15)


def test_negative_argument_reflection():
    assert np.isclose(bessel_j(3, -2.0), -bessel_j(3, 2.0))
    assert np.isclose(bessel_j(2, -2.0), bessel_j(2, 2.0))


def test_population_bounds():
    rng = np.random.default_rng(4)
    for _ in range(200):
        v = rng.uniform(0.1, 3.0)
        offset = rng.integers(-20, 21)
        t = rng.uniform(0.0, 15.0)
        p = chain_bessel_populations(v, int(offset), t)
        assert 0.0 <= p <= 1.0


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        chain_bessel_populations(1.0, 0, -0.1)


@pytest.mark.parametrize("t", [0.0, 0.7, 1.5, 1.6, 4.0, 6.0, 13.9, 250.0, 5000.0])
def test_populations_of_all_sites_at_once(t):
    # the 29-site chain's offsets -14..14 in one call: one recurrence for
    # every order, against one bessel_j per site and against scipy
    v = 1.0
    offsets = np.arange(29) - 14
    populations = chain_bessel_populations(v, offsets, t)
    assert populations.shape == offsets.shape
    one_by_one = np.array([bessel_j(int(k), 2.0 * v * t) ** 2 for k in offsets])
    assert np.abs(populations - one_by_one).max() <= 1e-15
    assert np.abs(np.sqrt(populations) - np.abs(special.jv(offsets, 2.0 * v * t))).max() <= 1e-12
    single = chain_bessel_populations(v, 3, t)
    assert isinstance(single, float) and abs(single - populations[17]) <= 1e-15


@pytest.mark.parametrize("order,x", [(200, 4.0), (100, 3.01)])
def test_high_order_rescaled_recurrence(order, x):
    # J_order is tiny here, so the downward recurrence grows past _RESCALE on its way to J_0
    assert abs(bessel_j(order, x) - special.jv(order, x)) <= 1e-16


@pytest.mark.parametrize("t", [1.0, 2.0])
def test_populations_far_beyond_the_argument(t):
    # offsets up to 300 at 2vt = 2 (series) and 4 (one rescaled recurrence)
    offsets = np.arange(-300, 301)
    populations = chain_bessel_populations(1.0, offsets, t)
    assert np.abs(populations - special.jv(offsets, 2.0 * t) ** 2).max() <= 1e-16


def test_recurrence_steps_is_the_even_start_order():
    # max(order, x) + 30 + 10 x^(1/3), rounded up to even; infinite for an infinite argument
    assert _recurrence_steps(14, 0.0) == 44.0
    assert _recurrence_steps(14, 12.0) == 66.0
    assert _recurrence_steps(14, 1e4) == 10246.0
    assert _recurrence_steps(300, 4.0) == 346.0
    assert _recurrence_steps(0, float("inf")) == float("inf")
