"""Special functions underlying the fading-model evaluators.

The modified Bessel function of the first kind (plain, exponentially
scaled, and a finite polynomial surrogate), the regularized incomplete
gamma pair, the Poisson mixture of incomplete gammas ``poisson_gamma_cdf``
and its upper side, the generalized Marcum Q function, and Kummer's
confluent hypergeometric 1F1.  One helper sums either side of the mixture
from weights that start at the mode, in Loader's saddle-point form, so it
holds where e^-lam underflows.  Each function is a map on floats;
``bessel_i_scaled`` also takes a 1-D array of arguments, which the mixture
oracle uses to evaluate its quadrature nodes at once.  All functions are
stateless and safe to call concurrently.

Accuracy targets (enforced by the test suite):

* ``ln_gamma``         relative error <= 1e-13
* ``bessel_i``         relative error <= 1e-12 for x in [0, 709.5]
* ``reg_upper_gamma``  relative error <= 1e-12 for a <= 2e4 and 2e-12 at a = 1e5,
                       P and Q alike; far from x = a the log prefactor keeps
                       an error of about |a - x| * 1e-16
* ``marcum_q``         truncation below 1e-15, relative for Q < 1e-5 (geometric bound)
* ``poisson_gamma_cdf`` relative error <= 1e-10, absolute 1e-12 below 1e-3;
                        absolute 2e-15 far above the mean (1 - F of 1e-3 to 1e-9)
* ``kummer_1f1``       relative error <= 1e-10 in the supported regime
"""

from __future__ import annotations

import functools
import itertools
import math
import sys

import numpy as np

from .errors import DomainError, NonConvergenceError

__all__ = [
    "ln_gamma",
    "bessel_i",
    "bessel_i_scaled",
    "bessel_i_gross",
    "reg_upper_gamma",
    "reg_lower_gamma",
    "marcum_q",
    "poisson_gamma_cdf",
    "kummer_1f1",
]

_LN_MAX = 709.782712893384  # log of the largest finite double
_TINY = 1e-300
_NORMAL = sys.float_info.min  # the smallest normal double


def ln_gamma(x: float) -> float:
    """Natural log of the gamma function for finite x > 0."""
    if not (x > 0.0 and math.isfinite(x)):
        raise DomainError(f"ln_gamma requires finite x > 0, got {x!r}")
    return math.lgamma(x)


def _check_bessel_args(nu: float, x: float) -> None:
    if not (math.isfinite(nu) and nu > -1.0):
        raise DomainError(f"Bessel order must be finite and > -1, got {nu!r}")
    if not (math.isfinite(x) and x >= 0.0):
        raise DomainError(f"Bessel argument must be finite and >= 0, got {x!r}")


def _bessel_series_unscaled(nu: float, x: float) -> float:
    # Ascending series; every term is positive so there is no cancellation.
    half = 0.5 * x
    # The least subnormal x halves to 0, and for nu < 0 a tiny x can
    # overflow the first term.
    ln_term = nu * (math.log(half) if half > 0.0 else math.log(x) - math.log(2.0))
    ln_term -= math.lgamma(nu + 1.0)
    if ln_term > _LN_MAX:
        return math.inf
    term = math.exp(ln_term)
    total = term
    half2 = half * half
    l = 0
    while True:
        ratio = half2 / ((l + 1.0) * (nu + l + 1.0))
        term *= ratio
        total += term
        l += 1
        if ratio < 1.0 and term <= total * 1e-17:
            return total
        if l > 200_000:  # unreachable for x <= nu + 20
            raise NonConvergenceError("Bessel series failed to terminate")


def _bessel_asym_scaled(nu: float, x: float) -> tuple[float, bool]:
    # Large-argument expansion of exp(-x) I_nu(x).  Truncated at the smallest
    # term; the flag reports whether that term is negligible.
    four_nu2 = 4.0 * nu * nu
    total = 1.0
    term = 1.0
    smallest = 1.0
    for k in range(1, 120):
        term *= ((2.0 * k - 1.0) ** 2 - four_nu2) / (8.0 * k * x)
        mag = abs(term)
        if mag >= smallest:
            break
        total += term
        smallest = mag
        if mag <= abs(total) * 1e-17:
            break
    value = total / math.sqrt(2.0 * math.pi * x)
    return value, smallest <= abs(total) * 1e-13


def _ln_bessel_scaled_peak(nu: float, x: float) -> float:
    # Peak-normalized positive series for ln(exp(-x) I_nu(x)).  Valid for
    # any (nu, x) but slower than the asymptotic branch; used as a fallback
    # when the order is comparable to the argument or the value underflows.
    half = 0.5 * x
    half2 = half * half
    lpk = int(max(0.0, 0.5 * (math.hypot(nu, x) - nu)))
    ln_peak = (
        (nu + 2.0 * lpk) * math.log(half)
        - math.lgamma(lpk + 1.0)
        - math.lgamma(nu + lpk + 1.0)
    )
    total = 1.0
    term = 1.0
    l = lpk
    while True:
        ratio = half2 / ((l + 1.0) * (nu + l + 1.0))
        term *= ratio
        total += term
        l += 1
        if ratio < 1.0 and term <= total * 1e-18:
            break
    term = 1.0
    l = lpk
    while l > 0:
        term *= l * (nu + l) / half2
        total += term
        l -= 1
        if term <= total * 1e-18:
            break
    return ln_peak - x + math.log(total)


_BELOW_700 = math.nextafter(700.0, 0.0)
_ROWS = 4096  # arguments per term matrix


@functools.lru_cache(maxsize=256)
def _bessel_columns(nu: float, width: int) -> tuple:
    # Per term column k = 1 .. width, as the float loops form them: the
    # series ratio's denominator k*(nu+k), and the expansion ratio's
    # denominator 8k (times x) and numerator (2k-1)^2 - 4nu^2.
    l = np.arange(float(width))
    k = l + 1.0
    columns = (k * (nu + l + 1.0), 8.0 * k, (2.0 * k - 1.0) ** 2 - 4.0 * nu * nu)
    for column in columns:
        column.flags.writeable = False
    return columns


def _bessel_rows(nu: float, xs: np.ndarray, xa: np.ndarray) -> np.ndarray:
    # The ascending series (times e^-x) at each of xs > 0 and the asymptotic
    # expansion at each of xa, one row per argument and one column per term:
    # the row holds its first term and then the term ratios.  cumprod and
    # cumsum accumulate in order, so every row repeats the float loop's
    # roundings.  NaN where the loop does not stop within the columns (the
    # series stops within x + 16 terms and a converged expansion within 31,
    # for nu <= 60) or the expansion does not converge.
    ns = xs.size
    width = max(math.ceil(xs.max()) + 17 if ns else 0, 32 if xa.size else 0)
    series_den, asym_den, asym_num = _bessel_columns(nu, width)
    half = 0.5 * xs
    # libm's log, as on the float path: an ulp of log(half) would grow nu-fold.
    ln_half = np.fromiter(map(math.log, half.tolist()), float, ns)
    terms = np.empty((ns + xa.size, width + 1))
    terms[:ns, 0] = np.exp(nu * ln_half - math.lgamma(nu + 1.0))
    ratio = np.divide((half * half)[:, None], series_den, out=terms[:ns, 1:])
    below = ratio < 1.0
    terms[ns:, 0] = 1.0
    np.multiply(asym_den, xa[:, None], out=terms[ns:, 1:])
    np.divide(asym_num, terms[ns:, 1:], out=terms[ns:, 1:])
    np.cumprod(terms, axis=1, out=terms)
    totals = np.cumsum(terms, axis=1)
    mags = np.abs(terms)
    stop = mags[:, 1:] <= np.abs(totals[:, 1:]) * 1e-17
    stop[:ns] &= below
    grew = mags[ns:, 1:] >= mags[ns:, :-1]
    stop[ns:] |= grew
    rows, col = np.arange(terms.shape[0]), stop.argmax(axis=1)
    end = col + 1
    end[ns:] -= grew[rows[ns:] - ns, col[ns:]]  # a term that grows is not added
    value = totals[rows, end]
    done = stop[rows, col]
    done[ns:] &= mags[rows[ns:], end[ns:]] <= np.abs(value[ns:]) * 1e-13
    value[:ns] *= np.exp(-xs)
    value[ns:] /= np.sqrt(2.0 * math.pi * xa)
    value[~done] = math.nan
    return value


def _bessel_scaled_array(nu: float, x: np.ndarray) -> np.ndarray:
    # ``_bessel_rows`` on the elements that take the series or the
    # expansion; the float path on those it leaves NaN, on the peak series'
    # elements and below 1e-300, where (x/2)^nu may underflow or overflow.
    ok = x.min(initial=math.inf) >= 0.0 and x.max(initial=0.0) < math.inf  # NaN fails too
    _check_bessel_args(nu, 0.0 if ok else float(x[~(np.isfinite(x) & (x >= 0.0))][0]))
    if x.size > _ROWS:  # bounds the term matrix's memory
        parts = (x[i : i + _ROWS] for i in range(0, x.size, _ROWS))
        return np.concatenate([_bessel_scaled_array(nu, part) for part in parts])
    is_series = (x >= _TINY) & (x <= min(nu + 20.0, _BELOW_700))
    is_asym = x > nu + 20.0
    xs, xa = x[is_series], x[is_asym]
    out = np.full_like(x, math.nan)
    if xs.size or xa.size:
        value = _bessel_rows(nu, xs, xa)
        out[is_series] = value[: xs.size]
        out[is_asym] = value[xs.size :]
    for i in np.flatnonzero(np.isnan(out)):
        out[i] = _bessel_scaled_float(nu, float(x[i]))
    return out


def bessel_i_scaled(nu: float, x):
    """Exponentially scaled modified Bessel function exp(-x) * I_nu(x).

    Overflow-safe for arbitrarily large x; this is the form the density
    evaluators use internally.  ``x`` is a float, giving a float, or a 1-D
    array, giving an array: the same branches run element by element, and
    each element agrees with its float call to 1e-14 relative.
    """
    if isinstance(x, np.ndarray) and x.ndim:
        if x.ndim > 1:
            raise DomainError(f"Bessel argument must be a float or 1-D array, got shape {x.shape}")
        return _bessel_scaled_array(nu, x.astype(float, copy=False))
    return _bessel_scaled_float(nu, x)


def _bessel_scaled_float(nu: float, x: float) -> float:
    _check_bessel_args(nu, x)
    if x == 0.0:
        if nu == 0.0:
            return 1.0
        return 0.0 if nu > 0.0 else math.inf
    if x <= nu + 20.0:
        if x < 700.0:
            return _bessel_series_unscaled(nu, x) * math.exp(-x)
        return math.exp(_ln_bessel_scaled_peak(nu, x))
    value, converged = _bessel_asym_scaled(nu, x)
    if converged:
        return value
    return math.exp(_ln_bessel_scaled_peak(nu, x))


def _ln_bessel_i_scaled(nu: float, x):
    # ln of ``bessel_i_scaled`` (float or 1-D array); below the normal range,
    # where x >= _TINY, the peak series' logarithm instead.
    value = bessel_i_scaled(nu, x)
    if isinstance(value, float):
        if value >= _NORMAL or x < _TINY:
            return math.log(value) if value else -math.inf
        return _ln_bessel_scaled_peak(nu, x)
    if value.min(initial=_NORMAL) >= _NORMAL:
        return np.log(value)
    with np.errstate(divide="ignore"):
        ln_value = np.log(value)
    for i in np.flatnonzero((value < _NORMAL) & (x >= _TINY)):
        ln_value[i] = _ln_bessel_scaled_peak(nu, float(x[i]))
    return ln_value


def bessel_i(nu: float, x: float) -> float:
    """Modified Bessel function of the first kind, real order nu > -1.

    Power series for x <= nu + 20, exponentially scaled asymptotic expansion
    beyond; the two branches agree to ~1e-11 at the seam.  Raises
    ``OverflowError`` when the true value exceeds the double range.
    """
    scaled = bessel_i_scaled(nu, x)
    if x == 0.0 or scaled == 0.0 or math.isinf(scaled):
        return scaled
    ln_value = x + math.log(scaled)
    if ln_value > _LN_MAX:
        raise OverflowError(f"bessel_i overflows for nu={nu}, x={x}")
    if x <= 700.0:
        return scaled * math.exp(x)
    return math.exp(ln_value)


def bessel_i_gross(nu: float, x: float, n: int) -> float:
    """Degree-n polynomial surrogate for I_nu(x).

    Finite sum whose term weights approach the ascending-series weights as
    n grows (each weight is Gamma(n+l) n^(1-2l) / Gamma(n-l+1), which tends
    to 1), so the surrogate converges to ``bessel_i`` for n -> infinity.
    Convergence is O(1/n^2) at fixed x.
    """
    _check_bessel_args(nu, x)
    if not (isinstance(n, int) and n >= 1):
        raise DomainError(f"polynomial degree must be an integer >= 1, got {n!r}")
    if x == 0.0:
        if nu == 0.0:
            return 1.0
        return 0.0 if nu > 0.0 else math.inf
    half = 0.5 * x  # rounds to 0 at the least subnormal x
    ln_half = math.log(half) if half > 0.0 else math.log(x) - math.log(2.0)
    total = 0.0
    for l in range(n + 1):
        ln_term = _gross_ln_weight(n, l) - math.lgamma(l + 1.0) - math.lgamma(nu + l + 1.0)
        total += math.exp(ln_term + (nu + 2.0 * l) * ln_half)
    return total


def _gross_ln_weight(n: int, l: int) -> float:
    # ln of the degree-n surrogate's weight Gamma(n+l) n^(1-2l) / Gamma(n-l+1)
    # of ascending-series term l; tends to 0 as n grows.
    return math.lgamma(n + l) - math.lgamma(n - l + 1.0) + (1.0 - 2.0 * l) * math.log(n)


def _lower_gamma_series(a: float, x: float, ln_fac: float) -> float:
    # P(a, x) for x < a + 1 (DLMF 8.11.4 rearranged); positive terms.
    ap = a
    delta = 1.0 / a
    total = delta
    for _ in range(10_000):
        ap += 1.0
        delta *= x / ap
        total += delta
        if delta < total * 1e-17:
            return total * math.exp(ln_fac)
    raise NonConvergenceError("lower incomplete gamma series stalled")


def _upper_gamma_cf(a: float, x: float, ln_fac: float) -> float:
    # Q(a, x) for x >= a + 1 via the modified Lentz continued fraction.
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, 10_000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h * math.exp(ln_fac)
    raise NonConvergenceError("upper incomplete gamma continued fraction stalled")


def _reg_gamma(a: float, x) -> tuple:
    # (P(a, x), Q(a, x)); the side that converges is summed, the other is 1
    # minus it.  x is a float, or a 1-D array giving a pair of arrays, element
    # by element on the float path: on a quadrature step's few dozen nodes
    # that runs as fast as masked array loops, which wait for the slowest.
    if isinstance(x, np.ndarray):
        return np.array([_reg_gamma(a, v) for v in x.tolist()]).reshape(-1, 2).T
    if not (a > 0.0 and math.isfinite(a)):
        raise DomainError(f"gamma shape must be finite and > 0, got {a!r}")
    if not (x >= 0.0 and math.isfinite(x)):
        raise DomainError(f"gamma argument must be finite and >= 0, got {x!r}")
    # ln(x^a e^-x / Gamma(a)); past a = 15 in Loader's form, which does not cancel near x = a.
    if a > 15.0 and x:
        ln_fac = _ln_poisson_term(a, x) + math.log(a)
    else:
        ln_fac = a * math.log(x) - x - math.lgamma(a) if x else -math.inf
    if ln_fac < -745.0:
        # x = 0, or the prefactor underflows: the pair is indistinguishable
        # from its limit on the side of a where x lies.
        return (1.0, 0.0) if x > a else (0.0, 1.0)
    if x < a + 1.0:
        lower = _lower_gamma_series(a, x, ln_fac)
        return lower, 1.0 - lower
    tail = _upper_gamma_cf(a, x, ln_fac)
    return 1.0 - tail, tail


def reg_upper_gamma(a: float, x: float) -> float:
    """Regularized upper incomplete gamma function Q(a, x) in [0, 1]."""
    return _reg_gamma(a, x)[1]


def reg_lower_gamma(a: float, x: float) -> float:
    """Regularized lower incomplete gamma function P(a, x) = 1 - Q(a, x)."""
    return _reg_gamma(a, x)[0]


def _poisson_term(n: float, x: float) -> float:
    # x^n e^-x / Gamma(n + 1) for n > -1 and x > 0.
    if n <= 15.0 and x < 700.0:
        return x**n * math.exp(-x) / math.gamma(n + 1.0)
    return math.exp(_ln_poisson_term(n, x))


def _ln_poisson_term(n: float, x: float) -> float:
    # ln(x^n e^-x / Gamma(n + 1)) for n > -1 and x > 0.  Past n = 15 in
    # Loader's saddle-point form (2000): Stirling's remainder and the deviance
    # n ln(n/x) - (n - x) are formed apart, so no digits cancel between
    # n ln x and ln Gamma(n + 1) at large n and x.
    if n <= 15.0:
        return n * math.log(x) - x - math.lgamma(n + 1.0)
    nn = n * n
    stirling = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * nn)) / nn) / nn) / nn) / n
    d = n - x
    ln_ratio = math.log1p(d / x) if abs(d) < 0.5 * x else math.log(n / x)
    return -stirling - (n * ln_ratio - d) - 0.5 * math.log(2.0 * math.pi * n)


@functools.lru_cache(maxsize=8)
def _poisson_weights(lam: float, tail_tol: float) -> tuple[int, tuple]:
    # (lo, w): the Poisson(lam) weights w[i - lo], from the mode in logs
    # (e^-lam may underflow) and outward by the ratios lam / i and i / lam:
    # up to a geometric bound on the rest within tail_tol and down to i = 0,
    # each short of a subnormal weight.  Cached for a cdf quadrature's nodes.
    if lam > 1e6:  # 45,153 weights at tail_tol 1e-15, 74,863 at 0
        raise NonConvergenceError(f"Poisson mean {lam!r} needs too many weights")
    i = mode = int(lam)
    w = _poisson_term(float(mode), lam)
    upper = [w]
    while not (i + 2.0 > lam and w * lam / (i + 1.0) / (1.0 - lam / (i + 2.0)) <= tail_tol):
        i += 1
        w *= lam / i
        if w < _NORMAL:
            break
        upper.append(w)
    i, w, lower = mode, upper[0], []
    while i > 0 and w * (i / lam) >= _NORMAL:
        w *= i / lam
        i -= 1
        lower.append(w)
    return i, tuple(itertools.chain(reversed(lower), upper))


def _gamma_terms(a: float, x: float, count: int) -> list:
    # x^(a+i) e^-x / Gamma(a+i+1) for i < count >= 1: the largest in logs,
    # the others outward from it by the ratios x / (a+i+1), so none is
    # formed from an underflowed or subnormal neighbour.
    terms = [0.0] * count
    k = min(max(int(x - a), 0), count - 1)
    terms[k] = t = _poisson_term(a + k, x)
    for i in range(k + 1, count):
        t *= x / (a + i)
        terms[i] = t
    t = terms[k]
    for i in range(k, 0, -1):
        t *= (a + i) / x
        terms[i - 1] = t
    return terms


def _poisson_gamma_side(lam: float, shape: float, x: float, tail_tol: float, upper: bool) -> float:
    # sum_n Pois_n(lam) Q(shape + n, x) if ``upper``, else with P(shape + n, x),
    # on the weights of ``_poisson_weights``: one incomplete gamma call at the
    # lowest n for Q or the top n for P, then steps of d_c = x^c e^-x /
    # Gamma(c + 1), Q(c + 1, x) = Q(c, x) + d_c upward or P(c, x) = P(c + 1,
    # x) + d_c downward.  A zero shape is a point mass: P(0, x) = 1, Q(0, x) = 0.
    if x == 0.0:
        atom = 0.0 if shape else math.exp(-lam)
        return 1.0 - atom if upper else atom
    lo, weights = _poisson_weights(lam, tail_tol)
    terms = _gamma_terms(shape + lo, x, len(weights))
    if upper:
        side = reg_upper_gamma(shape + lo, x) if shape + lo > 0.0 else 0.0
    else:
        top = shape + lo + len(weights) - 1
        side = reg_lower_gamma(top, x) if top > 0.0 else 1.0
        weights, terms = weights[::-1], terms[-2::-1]
    total = weights[0] * side
    for w, t in zip(weights[1:], terms):
        side += t
        total += w * side
    return min(total, 1.0)


def marcum_q(mu: float, a: float, b: float) -> float:
    """Generalized Marcum Q function Q_mu(a, b) for mu > 0, a, b >= 0.

    Computed as the Poisson-weighted sum of regularized upper incomplete
    gamma values, sum_i exp(-a^2/2) (a^2/2)^i / i! * Q(i + mu, b^2/2): one
    incomplete gamma call at the lowest i, then Q(c + 1, y) = Q(c, y) +
    y^c e^-y / Gamma(c + 1).  The weights start at their mode and stop where
    a geometric bound on the rest falls below 1e-15; as Q <= 1, so does the
    truncation error.  A sum q below 1e-5 is summed again, on weights cut at
    1e-15 * q, so that a small Q keeps its relative digits.
    """
    if not (mu > 0.0 and math.isfinite(mu)):
        raise DomainError(f"Marcum order must be finite and > 0, got {mu!r}")
    if not (a >= 0.0 and math.isfinite(a)):
        raise DomainError(f"Marcum argument a must be finite and >= 0, got {a!r}")
    if not (b >= 0.0 and math.isfinite(b)):
        raise DomainError(f"Marcum argument b must be finite and >= 0, got {b!r}")
    lam, y = 0.5 * a * a, 0.5 * b * b
    q = _poisson_gamma_side(lam, mu, y, 1e-15, upper=True)
    return _poisson_gamma_side(lam, mu, y, 1e-15 * q, upper=True) if q < 1e-5 else q


def poisson_gamma_cdf(lam: float, shape: float, x: float, tail_tol: float) -> float:
    """Distribution function sum_n e^-lam lam^n / n! * P(shape + n, x) of a
    Gamma(shape + N, 1) variable, N ~ Poisson(lam), for lam, shape, x >= 0.

    P(0, x) = 1 is the point mass at zero of a zero shape.  With shape > 0
    this is 1 - Q_shape(sqrt(2 lam), sqrt(2 x)).  One side is summed
    directly, with the weights of ``marcum_q`` cut at ``tail_tol``: P at or
    below the mean shape + lam, and Q above it, returned as 1 - Q, so a tail
    of either side keeps its digits.  With lam = 0 this is ``reg_lower_gamma``.
    """
    if not (min(lam, shape, x) >= 0.0 and math.isfinite(lam + shape + x)):
        raise DomainError(f"lam, shape and x must be finite and >= 0, got {lam, shape, x!r}")
    if lam == 0.0 and shape > 0.0:
        return reg_lower_gamma(shape, x)
    if x <= shape + lam:
        return _poisson_gamma_side(lam, shape, x, tail_tol, upper=False)
    return 1.0 - _poisson_gamma_side(lam, shape, x, tail_tol, upper=True)


def kummer_1f1(a: float, b: float, x: float) -> float:
    """Kummer's confluent hypergeometric 1F1(a; b; x) for a >= 0, b > 0, x >= 0.

    Adaptive ascending series; all terms are positive in this regime so the
    summation is cancellation-free.
    """
    if not (a >= 0.0 and math.isfinite(a)):
        raise DomainError(f"kummer_1f1 requires a >= 0, got {a!r}")
    if not (b > 0.0 and math.isfinite(b)):
        raise DomainError(f"kummer_1f1 requires b > 0, got {b!r}")
    if not (x >= 0.0 and math.isfinite(x)):
        raise DomainError(f"kummer_1f1 requires x >= 0, got {x!r}")
    total = 1.0
    term = 1.0
    k = 0
    while True:
        ratio = (a + k) * x / ((b + k) * (k + 1.0))
        term *= ratio
        total += term
        k += 1
        if ratio < 1.0 and term <= total * 1e-17:
            return total
        if k > 100_000:
            raise NonConvergenceError("1F1 series stalled")
