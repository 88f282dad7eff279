"""Integer-order Bessel functions of the first kind, built from scratch.

These serve as the analytic reference for transport on an infinite
homogeneous chain without dephasing, so they are deliberately independent of
every ODE-integration code path in this package.  Small arguments use the
ascending power series; large arguments use Miller's downward recurrence
normalized through the even-order sum rule J_0 + 2*sum_k J_{2k} = 1, which
yields every order up to the one it starts from, so the chain's populations
at one time take one recurrence for all sites.
"""

from __future__ import annotations

import math

import numpy as np

#: Up to this argument the series is used: it loses digits to cancellation
#: as x grows (6e-13 against scipy.special.jv near x = 12, 4e-16 up to 3),
#: while Miller's recurrence stays within 4e-16 from x = 0.01 on.
_SERIES_LIMIT = 3.0
_RESCALE = 1e250


def _bessel_j_series(order: int, x: float) -> float:
    # J_n(x) = sum_k (-1)^k (x/2)^(n+2k) / (k! (n+k)!)
    half = 0.5 * x
    try:
        term = half**order / math.factorial(order)
    except OverflowError:
        return 0.0
    total = term
    k = 0
    while k < 300:
        k += 1
        term *= -(half * half) / (k * (order + k))
        total += term
        if abs(term) <= 1e-18 * (abs(total) + 1e-300):
            break
    return total


def _recurrence_steps(order: int, x: float) -> float:
    """Steps of the downward recurrence that yields J_0, ..., J_order at x >= 0: its even start order.

    The tail beyond m = x is about x^(1/3) orders wide: starting 30 + 3 x^(1/3)
    orders past x left errors of 1e-10 at x = 500 and 2e-7 at x = 1e4;
    30 + 10 x^(1/3) leaves 2e-16 up to x = 2e4.  Infinite for an infinite x.
    """
    start = max(order, np.floor(x)) + 30 + np.floor(10.0 * x ** (1.0 / 3.0))
    return float(2.0 * np.ceil(0.5 * start))


def _bessel_j_miller_orders(order: int, x: float) -> list[float]:
    # Downward recurrence J_{m-1} = (2m/x) J_m - J_{m+1}, started deep enough
    # in the exponentially decaying tail that the seed error is negligible,
    # then normalized with 1 = J_0 + 2 * sum_{k>=1} J_{2k}; keeps J_order,
    # ..., J_0 on the way down and returns them as J_0, ..., J_order.
    start = int(_recurrence_steps(order, x))
    jp = 0.0  # J_{m+1}
    jc = 1e-30  # J_m, unnormalized
    kept = []  # start exceeds order
    even_acc = jc  # start is even and >= 2
    for m in range(start, 0, -1):
        jp, jc = jc, (2.0 * m / x) * jc - jp  # jc becomes J_{m-1}
        if m - 1 <= order:
            kept.append(jc)
        if (m - 1) >= 2 and (m - 1) % 2 == 0:
            even_acc += jc
        if abs(jc) > _RESCALE:
            jp /= _RESCALE
            jc /= _RESCALE
            kept = [k / _RESCALE for k in kept]
            even_acc /= _RESCALE
    norm = jc + 2.0 * even_acc  # jc now holds J_0
    return [k / norm for k in reversed(kept)]


def bessel_j(order: int, x: float) -> float:
    """J_n(x) for integer n (negative orders via the reflection rule)."""
    n = int(order)
    x = float(x)
    if n < 0:
        sign = -1.0 if n % 2 else 1.0
        return sign * bessel_j(-n, x)
    if x < 0.0:
        sign = -1.0 if n % 2 else 1.0
        return sign * bessel_j(n, -x)
    if x == 0.0:
        return 1.0 if n == 0 else 0.0
    if x <= _SERIES_LIMIT:
        return _bessel_j_series(n, x)
    return _bessel_j_miller_orders(n, x)[n]


def chain_bessel_populations(v: float, site_offset, t: float):
    """Excitation probability on an infinite homogeneous chain without noise.

    For nearest-neighbour coupling ``v`` and an excitation starting at a
    single site, the site at distance ``site_offset`` carries probability
    J_offset(2 v t)^2 (hbar = 1).  Valid until the finite-chain boundary is
    reached.  ``site_offset`` may be an integer, giving a float, or an array
    of integers, giving an array of the same shape from one recurrence for
    all orders.
    """
    if t < 0.0:
        raise ValueError("time must be non-negative")
    orders = np.abs(np.asarray(site_offset).astype(int))
    x = abs(2.0 * v * t)  # J_n(-x)^2 = J_n(x)^2
    if x > _SERIES_LIMIT:
        values = np.array(_bessel_j_miller_orders(int(orders.max()), x))[orders]
    else:
        values = np.array([bessel_j(n, x) for n in orders.flat]).reshape(orders.shape)
    populations = values * values
    return float(populations) if populations.ndim == 0 else populations
