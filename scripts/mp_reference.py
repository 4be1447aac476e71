"""The mpmath reference that the accuracy tests and ``mpmath_roots.py``
share, and the seeded rows they draw.  Every value is computed at the
caller's mpmath precision; the module sets none of its own."""

import math

import mpmath
import numpy as np


def ibeta(a, b, x):
    """I_x(a, b) for a, b > 0 on one route, DLMF 8.17.8: x^a (1-x)^b /
    (a B(a, b)) 2F1(a+b, 1; a+1; x) up to x = (a+1)/(a+b+2), where the
    series' terms fall from the first, and 1 - I_{1-x}(b, a) above.  Where
    b is a large integer and x > 0.8, hyp2f1 is slow: 16 s at (1e5, 9703)."""
    a, b, x = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(x)
    if x > (a + 1) / (a + b + 2):
        return 1 - ibeta(b, a, 1 - x)
    return x**a * (1 - x) ** b / (a * mpmath.beta(a, b)) * mpmath.hyp2f1(a + b, 1, a + 1, x, maxterms=10**6)


def density(a, b, x):
    """The Beta(a, b) density x^(a-1) (1-x)^(b-1) / B(a, b) at 0 < x < 1."""
    a, b, x = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(x)
    return x ** (a - 1) * (1 - x) ** (b - 1) / mpmath.beta(a, b)


def equipoint(a, b):
    """The equipoint e*_{a,b}, the root of the rising two-beta residual
    I_x(a, 1+b) - I_{1-x}(b, 1+a).  The band's end (a+1)/(a+b+2), a proven
    bound, and the far end of [0, 1] bracket it; Newton starts at the band's
    end and bisects where a step would leave the bracket.  A sign change of
    the residual across the root, at eps^(3/4) relative, certifies it."""
    a, b = mpmath.mpf(a), mpmath.mpf(b)

    def residual(x):
        return ibeta(a, b + 1, x) - ibeta(b, a + 1, 1 - x)

    x = (a + 1) / (a + b + 2)
    lo, hi = (x, mpmath.mpf(1)) if b <= a else (mpmath.mpf(0), x)
    while (value := residual(x)) != 0:
        lo, hi = (x, hi) if value < 0 else (lo, x)
        step = value / (density(a, b + 1, x) + density(b, a + 1, 1 - x))
        if abs(step) <= abs(x) * mpmath.sqrt(mpmath.eps):
            x -= step
            break
        x = x - step if lo < x - step < hi else (lo + hi) / 2
    delta = abs(x) * mpmath.eps ** 0.75
    if not residual(x - delta) < 0 < residual(x + delta):
        raise ArithmeticError(f"no sign change across the equipoint of ({a}, {b})")
    return x


def theta_star(d: int):
    """theta* = 1/f_{s,t}(sigma*) at the proven split s = (d+1)//2,
    t = d//2, where sigma* = e*_{s/2,t/2}."""
    s, t = (d + 1) // 2, d // 2
    a, b = mpmath.mpf(s) / 2, mpmath.mpf(t) / 2
    p = equipoint(a, b)
    f = (2 * (1 - p) * s * ibeta(b, a + 1, 1 - p) + 2 * p * t * ibeta(a, b + 1, p)) / ((1 - p) * s + p * t) - 1
    return 1 / f


def kernel_lanes(n: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A seeded (a, b, p) row of n lanes from the Philox key ``seed``: shapes
    log-uniform on [0.5, 200], p drawn from Beta(a, b), so near the mean."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    a, b = np.exp(rng.uniform(math.log(0.5), math.log(200.0), (2, n)))
    return a, b, rng.beta(a, b)


def equipoint_lanes(n: int, seed: int) -> np.ndarray:
    """A seeded (s, t) row of n lanes from the Philox key ``seed``: shapes
    uniform on [0.5, 200]."""
    return np.random.Generator(np.random.Philox(key=seed)).uniform(0.5, 200.0, (2, n))
