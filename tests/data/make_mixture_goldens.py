"""High-precision goldens for the Poisson-gamma mixture cdfs.

    python3 tests/data/make_mixture_goldens.py

writes ``tests/data/mixture_goldens.json``: reference values of
``marcum_q``, ``akm_cdf`` / ``akm_cdf_series`` and ``extreme_cdf`` with a
mean number of dominant clusters lam from 1 to 2,500, and of ``extreme_cdf``
far above its mean (``extreme_cdf_upper``: 1 - F from 1e-3 to 1e-9 with m
up to 500), computed with mpmath at ``DPS`` decimal digits, independently
of compfade.  All three are the mixture

    F = sum_n Pois_n(lam) P(shape + n, x),   S = 1 - F = sum_n Pois_n(lam) Q(shape + n, x)

of regularized incomplete gamma functions: Q_mu(a, b) is S with shape mu,
lam = a^2/2 and x = b^2/2; the akm cdf is F with (lam, shape, x) = (mu
kappa, mu, mu (1 + kappa) rho^alpha); the extreme cdf is F with (2m, 0,
2m rho^alpha), where P(0, x) = 1 is the deep-fade atom.  Both sides are
summed directly, so a tail of either is exact to every digit: the weights
from e^-lam (no underflow in mpmath) by the ratio lam / (n + 1), P down
from one ``gammainc`` call at the top n by P(c, x) = P(c + 1, x) +
x^c e^-x / Gamma(c + 1), and Q up from one call at n = 0 by the same
terms.  The sum runs to lam + 60 sqrt(lam) + 200, past which the weights
are below e^-1800.

Each value is computed at ``DPS`` and at ``DPS + 15`` digits (each with ten
guard digits); the two must agree to ``AGREE`` relative and F + S to 1.
The arguments are doubles (rho, a, b, kappa, mu, m), taken exactly.

The composite cdf of each family over a gamma shadow Y ~ Gamma(b, omega),

    F(x) = int_0^inf F_mp(x / y) y^(b-1) e^(-y/omega) / (Gamma(b) omega^b) dy,

is an mpmath quadrature over u = y^b, in which y^(b-1) dy = du / b has no
singularity at the origin whatever b is, with breakpoints at x^b and
(b omega)^b, of the same Poisson-gamma F at rate rho^alpha, rho = x / y
(``mixture_cdf``, which is cheaper per node than ``mixture``).  It is computed at ``QUAD_DPS`` and
``QUAD_DPS + 10`` digits, which must agree to ``AGREE_QUAD`` relative.
The composite survival function (``composite_sf``) is the same quadrature
of the mixture's S, summed directly above the mixture's mean, at
``COMPOSITE_SF_X``, where it falls from about 0.8 to 8e-23.
The composite density (``composite_pdf``) of the same models at the same
points is the same quadrature of the plain density below,

    f(x) = int_0^inf f_mp(x / y) / y  y^(b-1) e^(-y/omega) / (Gamma(b) omega^b) dy,

the continuous part only (the extreme family's deep-fade atom is left out).

The plain multipath densities (``pdf``) are the Poisson mixture of gamma
densities of u = rho^alpha, times alpha rho^(alpha-1), summed in closed
form by the Bessel series I_nu(z) = sum_n (z/2)^(2n+nu) / (n! Gamma(n+nu+1)):

    f(rho) = alpha rho^(alpha (1+shape)/2 - 1) rate^((1+shape)/2)
             lam^((1-shape)/2) e^(-lam - rate u) I_{shape-1}(2 sqrt(lam rate u)),

and the gamma density alpha rate^shape rho^(alpha shape - 1) e^(-rate u) /
Gamma(shape) when lam = 0, at ``DPS`` and ``DPS + 15`` digits, which must
agree to ``AGREE``.  They run from rho = 1e-6 into the far tail, with kappa
from 1e-12 to 50 and m up to 500; a value below ``PDF_FLOOR``, out of the
normal double range, is left out.

The moments E[P^r] of the akm envelope (``moment``), r = 0 to 4, are the
closed form

    E[P^r] = rate^(-r/alpha) Gamma(mu + r/alpha) e^-lam 1F1(mu + r/alpha; mu; lam) / Gamma(mu)

with (lam, mu, rate) the clustering form and mpmath's ``hyp1f1``, at
``MOMENT_DPS`` and ``MOMENT_DPS + 15`` digits, which must agree to
``AGREE``.  They run over alpha from 1 to 4 and lam from 0 to 2,000, past
lam = 745 where e^lam overflows in doubles, with mu up to 800 and kappa up
to 2,000.

``tests/test_mixture_goldens.py`` reads the JSON; it needs no mpmath.
"""

from __future__ import annotations

import json
from pathlib import Path

import mpmath as mp

HERE = Path(__file__).resolve().parent
OUT = HERE / "mixture_goldens.json"
DPS = 30
AGREE = mp.mpf("1e-25")
QUAD_DPS = 20  # the composite cdf's quadratures, checked at QUAD_DPS + 10
AGREE_QUAD = mp.mpf("1e-15")
LAMBDAS = (1.0, 10.0, 100.0, 800.0, 2500.0)
# Standard scores of x about the mixture's mean shape + lam: both tails.
SCORES = (-8.0, -3.0, 0.0, 3.0, 8.0)


def mixture(lam, shape, x, dps):
    """(F, S) of the Poisson-gamma mixture at ``dps`` digits."""
    with mp.workdps(dps + 10):
        lam, shape, x = mp.mpf(lam), mp.mpf(shape), mp.mpf(x)
        count = int(lam + 60 * mp.sqrt(lam) + 200)
        weights = [mp.exp(-lam)]
        for n in range(1, count):
            weights.append(weights[-1] * lam / n)
        terms = [x ** (shape + n) * mp.exp(-x) / mp.gamma(shape + n + 1) for n in range(count)]
        p = mp.gammainc(shape + count, 0, x, regularized=True)
        f = mp.mpf(0)
        for n in range(count - 1, -1, -1):
            p += terms[n]
            f += weights[n] * p
        q = mp.gammainc(shape, x, mp.inf, regularized=True) if shape > 0 else mp.mpf(0)
        s = weights[0] * q
        for n in range(1, count):
            q += terms[n - 1]
            s += weights[n] * q
        assert abs(f + s - 1) < mp.mpf(10) ** (-dps)
        return +f, +s


def checked(lam, shape, x):
    """(F, S) at DPS, each agreeing with its value at DPS + 15 digits."""
    low, high = mixture(lam, shape, x, DPS), mixture(lam, shape, x, DPS + 15)
    for a, b in zip(low, high):
        assert abs(a - b) <= AGREE * abs(b), (lam, shape, x)
    return tuple(mp.nstr(v, DPS) for v in low)


def grid_x(lam, shape):
    # x at the standard scores, about the mean shape + lam, with
    # variance shape + 2 lam; a score below zero is replaced by mean / 20.
    mean, sd = shape + lam, (shape + 2.0 * lam) ** 0.5
    return [mean + z * sd if mean + z * sd > 0.0 else mean / 20.0 for z in SCORES]


def _round(value):
    return float(f"{value:.6g}")


def marcum_cases():
    mu = 2.5
    for lam in LAMBDAS:
        a = (2.0 * lam) ** 0.5
        for x in grid_x(lam, mu):
            b = _round((2.0 * x) ** 0.5)
            with mp.workdps(DPS + 25):
                y = mp.mpf(b) ** 2 / 2
                _, s = checked(mp.mpf(a) ** 2 / 2, mu, y)
            yield {"mu": mu, "a": a, "b": b, "value": s}


def akm_cases():
    for i, lam in enumerate(LAMBDAS):
        for mu in (1.0, 20.0):
            alpha = (2.0, 1.5)[i % 2]
            kappa = lam / mu
            for x in grid_x(lam, mu):
                rho = _round((x / (mu * (1.0 + kappa))) ** (1.0 / alpha))
                with mp.workdps(DPS + 25):
                    mu_, kappa_ = mp.mpf(mu), mp.mpf(kappa)
                    xx = mu_ * (1 + kappa_) * mp.mpf(rho) ** mp.mpf(alpha)
                    cdf, sf = checked(mu_ * kappa_, mu_, xx)
                yield {"alpha": alpha, "kappa": kappa, "mu": mu, "rho": rho, "cdf": cdf, "sf": sf}


def extreme_cases():
    for i, lam in enumerate(LAMBDAS):
        alpha, m = (2.0, 1.0)[i % 2], lam / 2.0
        rhos = [0.0] if lam <= 10.0 else []  # the atom, while it is not negligible
        rhos += [_round((x / lam) ** (1.0 / alpha)) for x in grid_x(lam, 0.0)]
        for rho in rhos:
            with mp.workdps(DPS + 25):
                lam_ = 2 * mp.mpf(m)
                cdf, _ = checked(lam_, 0, lam_ * mp.mpf(rho) ** mp.mpf(alpha))
            yield {"alpha": alpha, "m": m, "rho": rho, "cdf": cdf}


# Severities and the standard normal scores of the tails 1e-3, 1e-6 and
# 1e-9 for ``extreme_upper_cases``.
UPPER_M = (70.0, 200.0, 500.0)
UPPER_SCORES = (3.0902, 4.7534, 5.9978)


def extreme_upper_cases():
    # alpha = 2 and x = 2m rho^2 at a score z of Gamma(N, 1), N ~ Poisson(lam
    # = 2m), with mean lam, variance 2 lam and skewness 3 / sqrt(2 lam), by
    # the Cornish-Fisher expansion: 1 - F comes within a few percent of the
    # normal tail of z.  There a sum of P loses the digits of 1 - F.
    for m in UPPER_M:
        lam = 2.0 * m
        skew = 3.0 / (2.0 * lam) ** 0.5
        for z in UPPER_SCORES:
            x = lam + (z + (z * z - 1.0) * skew / 6.0) * (2.0 * lam) ** 0.5
            rho = _round((x / lam) ** 0.5)
            with mp.workdps(DPS + 25):
                lam_ = 2 * mp.mpf(m)
                cdf, sf = checked(lam_, 0, lam_ * mp.mpf(rho) ** 2)
            yield {"alpha": 2.0, "m": m, "rho": rho, "cdf": cdf, "sf": sf}


def mixture_cdf(lam, shape, x, upper=False):
    """F (S = 1 - F with ``upper``) of the Poisson-gamma mixture at the
    working precision, from one ``gammainc`` call.  With d_n = x^(shape+n) e^-x / Gamma(shape + n + 1),
    P(shape + n, x) = P(shape + n + 1, x) + d_n and Q(shape + n + 1, x) =
    Q(shape + n, x) + d_n.  At or below the mean shape + lam, F = sum_n
    Pois_n(lam) P(shape + n, x) with P summed down from the top n; above it,
    F = 1 - sum_n Pois_n(lam) Q(shape + n, x) with Q summed up from n = 0.
    Past n = 2 lam + 1 the weights fall at least twofold, and past shape + n
    = 2x, P(shape + n, x) <= 2 d_n: the first sum stops once its remainder
    is below the working epsilon of F >= Pois_0 d_0, the second once the
    remaining weight is below the working epsilon."""
    lower = x <= shape + lam
    weights, gaps = [mp.exp(-lam)], [x**shape * mp.exp(-x) / mp.gamma(shape + 1)]
    floor = mp.eps * weights[0] * gaps[0] / 4 if lower else mp.eps / 2
    while (len(weights) <= 2 * lam + 1 or (lower and shape + len(weights) <= 2 * x)
           or weights[-1] * (gaps[-1] if lower else 1) > floor):
        n = len(weights)
        weights.append(weights[-1] * lam / n)
        gaps.append(gaps[-1] * x / (shape + n))
    total = mp.mpf(0)
    if lower:
        p = mp.gammainc(shape + len(weights), 0, x, regularized=True)
        for weight, gap in zip(reversed(weights), reversed(gaps)):
            p += gap
            total += weight * p
        return 1 - total if upper else total
    q = mp.gammainc(shape, x, mp.inf, regularized=True) if shape else mp.mpf(0)
    for weight, gap in zip(weights, gaps):
        total += weight * q
        q += gap
    return total if upper else 1 - total


def composite_cdf(alpha, lam, shape, rate, b, omega, x, dps, upper=False):
    """The composite cdf (survival function with ``upper``) at x of
    multipath (alpha, lam, shape, rate) over a Gamma(b, omega) shadow, at
    ``dps`` digits."""
    with mp.workdps(dps + 10):
        alpha, lam, shape, rate = (mp.mpf(v) for v in (alpha, lam, shape, rate))
        b, omega, x = mp.mpf(b), mp.mpf(omega), mp.mpf(x)
        norm = mp.gamma(b + 1) * omega**b  # b Gamma(b) omega^b

        def integrand(u):
            y = u ** (1 / b)
            side = mixture_cdf(lam, shape, rate * (x / y) ** alpha, upper)
            return side * mp.exp(-y / omega) / norm

        return +mp.quad(integrand, [0] + sorted({x**b, (b * omega) ** b}) + [mp.inf])


# The multipath families by their Poisson-gamma form (alpha, lam, shape,
# rate); each is swept over x with one shadow of b < 1 and one of b > 1,
# and with b = 0.1, where the shadow density's power y^(b-1) is steepest.
COMPOSITES = (
    ("am", {"alpha": 2.0, "mu": 0.5}, (2.0, 0.0, 0.5, 0.5)),
    ("am", {"alpha": 1.2, "mu": 2.5}, (1.2, 0.0, 2.5, 2.5)),
    ("akm", {"alpha": 1.5, "kappa": 2.0, "mu": 1.3}, (1.5, 2.6, 1.3, 3.9)),
    ("akm", {"alpha": 2.0, "kappa": 1.0, "mu": 0.5}, (2.0, 0.5, 0.5, 1.0)),
    ("extreme", {"alpha": 2.0, "m": 1.5}, (2.0, 3.0, 0.0, 3.0)),
)
SHADOWS = ({"b": 0.6, "omega": 1.5}, {"b": 2.0, "omega": 0.8}, {"b": 0.1, "omega": 0.9})
COMPOSITE_X = (1e-8, 1e-5, 1e-2, 0.5, 2.0, 6.0)
# The survival function from its body to below 1e-12 (to 8e-23).
COMPOSITE_SF_X = (0.5, 6.0, 20.0, 60.0, 100.0)


def composite_cdf_cases():
    for family, multipath, form in COMPOSITES:
        for shadow in SHADOWS:
            for x in COMPOSITE_X:
                low, high = (composite_cdf(*form, shadow["b"], shadow["omega"], x, dps)
                             for dps in (QUAD_DPS, QUAD_DPS + 10))
                assert abs(low - high) <= AGREE_QUAD * abs(high), (family, multipath, shadow, x)
                yield {"family": family, "multipath": multipath, "shadow": shadow,
                       "x": x, "cdf": mp.nstr(low, QUAD_DPS)}


def composite_sf_cases():
    for family, multipath, form in COMPOSITES:
        for shadow in SHADOWS:
            for x in COMPOSITE_SF_X:
                low, high = (composite_cdf(*form, shadow["b"], shadow["omega"], x, dps, upper=True)
                             for dps in (QUAD_DPS, QUAD_DPS + 10))
                assert abs(low - high) <= AGREE_QUAD * abs(high), (family, multipath, shadow, x)
                yield {"family": family, "multipath": multipath, "shadow": shadow,
                       "x": x, "sf": mp.nstr(low, QUAD_DPS)}


def composite_pdf(alpha, lam, shape, rate, b, omega, x, dps):
    """The composite density at x of multipath (alpha, lam, shape, rate) over
    a Gamma(b, omega) shadow, at ``dps`` digits."""
    with mp.workdps(dps + 10):
        b, omega, x = mp.mpf(b), mp.mpf(omega), mp.mpf(x)
        norm = mp.gamma(b) * omega**b

        def integrand(y):
            pdf = plain_pdf(alpha, lam, shape, rate, x / y, dps) / y
            return pdf * y ** (b - 1) * mp.exp(-y / omega) / norm

        return +mp.quad(integrand, [0] + sorted({x, b * omega}) + [mp.inf])


def composite_pdf_cases():
    for family, multipath, form in COMPOSITES:
        for shadow in SHADOWS:
            for x in COMPOSITE_X:
                low, high = (composite_pdf(*form, shadow["b"], shadow["omega"], x, dps)
                             for dps in (QUAD_DPS, QUAD_DPS + 10))
                assert abs(low - high) <= AGREE_QUAD * abs(high), (family, multipath, shadow, x)
                yield {"family": family, "multipath": multipath, "shadow": shadow,
                       "x": x, "pdf": mp.nstr(low, QUAD_DPS)}


# Plain densities: (family, parameters), each at every PDF_RHO whose value
# is at least PDF_FLOOR.
PDF_FLOOR = mp.mpf("1e-300")
PDF_RHO = (1e-6, 0.01, 0.5, 1.0, 1.3, 2.0, 4.0, 10.0)
PDF_MODELS = (
    *(("akm", {"alpha": alpha, "kappa": kappa, "mu": mu})
      for kappa in (1e-12, 9e-9, 1e-3, 1.0, 50.0)
      for alpha, mu in ((2.0, 20.0), (0.7, 2.5), (3.3, 0.6))),
    ("akm", {"alpha": 2.0, "kappa": 1e-4, "mu": 300.0}),
    ("am", {"alpha": 2.0, "mu": 1.0}),
    ("am", {"alpha": 0.5, "mu": 0.6}),
    ("am", {"alpha": 4.0, "mu": 20.0}),
    ("extreme", {"alpha": 2.0, "m": 0.5}),
    ("extreme", {"alpha": 1.0, "m": 3.0}),
    ("extreme", {"alpha": 3.5, "m": 70.0}),
    ("extreme", {"alpha": 2.0, "m": 500.0}),
)


def clustering_form(family, params):
    """(lam, shape, rate) of a multipath family, in the parameter class's
    double arithmetic."""
    if family == "akm":
        mu, kappa = params["mu"], params["kappa"]
        return mu * kappa, mu, mu * (1.0 + kappa)
    if family == "am":
        return 0.0, params["mu"], params["mu"]
    return 2.0 * params["m"], 0.0, 2.0 * params["m"]


def plain_pdf(alpha, lam, shape, rate, rho, dps):
    """The multipath density at rho at ``dps`` digits."""
    with mp.workdps(dps + 10):
        alpha, lam, shape, rate, rho = (mp.mpf(v) for v in (alpha, lam, shape, rate, rho))
        u = rho**alpha
        if lam == 0:
            return +(alpha * rate**shape * rho ** (alpha * shape - 1) * mp.exp(-rate * u)
                     / mp.gamma(shape))
        return +(alpha * rho ** (alpha * (1 + shape) / 2 - 1) * rate ** ((1 + shape) / 2)
                 * lam ** ((1 - shape) / 2) * mp.exp(-lam - rate * u)
                 * mp.besseli(shape - 1, 2 * mp.sqrt(lam * rate * u)))


def pdf_cases():
    for family, params in PDF_MODELS:
        form = clustering_form(family, params)  # in doubles, then taken exactly
        for rho in PDF_RHO:
            low, high = (plain_pdf(params["alpha"], *form, rho, dps) for dps in (DPS, DPS + 15))
            assert abs(low - high) <= AGREE * abs(high), (family, params, rho)
            if low >= PDF_FLOOR:
                yield {"family": family, "params": params, "rho": rho, "pdf": mp.nstr(low, DPS)}


# Moments: (alpha, kappa, mu), each at every order in MOMENT_ORDERS.
MOMENT_DPS = 40
MOMENT_ORDERS = (0.0, 1.0, 2.0, 3.0, 4.0)
MOMENT_MODELS = (
    (1.0, 1.0, 2.0),
    (1.5, 0.0, 0.6),
    (2.0, 4.5, 1.3),
    (3.3, 1e-3, 0.3),
    (2.0, 36.0, 20.0),
    (2.0, 50.0, 20.0),
    (4.0, 50.0, 20.0),
    (1.5, 0.5, 800.0),
    (1.0, 2.5, 800.0),
    (3.3, 2000.0, 1.0),
)


def moment(alpha, lam, shape, rate, order, dps):
    """E[P^order] of the multipath envelope at ``dps`` digits."""
    with mp.workdps(dps + 10):
        lam, shape, rate = mp.mpf(lam), mp.mpf(shape), mp.mpf(rate)
        s = mp.mpf(order) / mp.mpf(alpha)
        return +(rate**-s * mp.gamma(shape + s) / mp.gamma(shape) * mp.exp(-lam)
                 * mp.hyp1f1(shape + s, shape, lam))


def moment_cases():
    for alpha, kappa, mu in MOMENT_MODELS:
        params = {"alpha": alpha, "kappa": kappa, "mu": mu}
        form = clustering_form("akm", params)  # in doubles, then taken exactly
        for order in MOMENT_ORDERS:
            low, high = (moment(alpha, *form, order, dps) for dps in (MOMENT_DPS, MOMENT_DPS + 15))
            assert abs(low - high) <= AGREE * abs(high), (params, order)
            yield {"params": params, "order": order, "moment": mp.nstr(low, DPS)}


def main() -> None:
    data = {
        "dps": DPS,
        "marcum_q": list(marcum_cases()),
        "akm_cdf": list(akm_cases()),
        "extreme_cdf": list(extreme_cases()),
        "extreme_cdf_upper": list(extreme_upper_cases()),
        "composite_cdf": list(composite_cdf_cases()),
        "composite_sf": list(composite_sf_cases()),
        "composite_pdf": list(composite_pdf_cases()),
        "pdf": list(pdf_cases()),
        "moment": list(moment_cases()),
    }
    OUT.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {OUT} ({sum(len(v) for v in data.values() if isinstance(v, list))} values)")


if __name__ == "__main__":
    main()
