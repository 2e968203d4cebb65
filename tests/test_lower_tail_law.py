"""The composite lower tail against its leading origin law, down to 1e-307.

X = P Y with Y ~ Gamma(b, omega), and the unit-scale multipath density
behaving as c rho^e at 0 (``models._origin``).  The Mellin transform E[X^s]
= E[P^s] E[Y^s] has its rightmost pole at s = -b or s = -e - 1, so as x ->
0

    f(x) -> E[P^-b] x^(b - 1) / (Gamma(b) omega^b)                if e > b - 1,
    f(x) -> c Gamma(b - e - 1) x^e / (Gamma(b) omega^(e + 1))   if e < b - 1,

and F(x) - atom is its integral.  The next pole lies at least min(1, alpha,
|e - b + 1|) to the left, so on every row here the law is off by less
than 1e-12 (x^0.65 at 1e-20 on the small-z-akm rows is the most).  It is
formed from the moment sum and ``math.gamma``, which no route below
integrates.
"""

import math

import numpy as np
import pytest

from compfade import (
    AkmParams,
    AmParams,
    CompositeModel,
    ExtremeParams,
    GammaShadowParams,
    ScaledEnvelope,
    akm_cdf_series,
    akm_pdf_normalized,
    am_cdf,
    composite_cdf,
    composite_sf,
    mixture_cdf,
    mixture_pdf,
)
from compfade import composite, models

README_AKM = AkmParams(1.5, 1.0, 2.1)
# Inside PARAM_BOX: its Bessel argument underflows at rho ~ 1e-170.
SMALL_Z_AKM = AkmParams(3.702972037990522, 0.5783018685987817, 0.6188063950988378)
HALF_AM = AmParams(2.0, 0.5)  # rate rho^alpha leaves the normal range at rho ~ 2e-154

MODELS = {
    "akm-b0.6": CompositeModel(README_AKM, GammaShadowParams(0.6, 0.9)),
    "akm-b1.1": CompositeModel(README_AKM, GammaShadowParams(1.1, 0.9)),
    "akm-b1.9": CompositeModel(README_AKM, GammaShadowParams(1.9, 0.9)),
    "am": CompositeModel(AmParams(2.0, 1.2), GammaShadowParams(1.5, 0.9)),
    "extreme": CompositeModel(ExtremeParams(1.7, 1.1), GammaShadowParams(1.3, 0.9)),
    "small-z-akm": CompositeModel(
        SMALL_Z_AKM, GammaShadowParams(2.9390595272370503, 2.90116052886853)
    ),
    "half-am": CompositeModel(HALF_AM, GammaShadowParams(3.0, 0.9)),
    # 0 < e < b - 1: the mass lies at rho ~ x / omega, where rho f, ~ rho^(e+1), underflows
    # before f does.
    "am-b3": CompositeModel(AmParams(2.0, 1.2), GammaShadowParams(3.0, 0.9)),
    "root-am-b3": CompositeModel(AmParams(1.5, 1.0), GammaShadowParams(3.0, 0.9)),  # e = 0.5
    # e = -0.82, s = rho^0.09: the far nodes rho = s^k reach past x / 5e-324.
    "steep-am": CompositeModel(AmParams(0.6, 0.3), GammaShadowParams(0.3, 2.5)),
}


def composite_law(m: CompositeModel, x: float, cdf: bool) -> float:
    b, omega = m.shadow.b, m.shadow.omega
    e, ln_c = models._origin(m.multipath)
    if e > b - 1.0:
        power, coeff = b - 1.0, models._moment(m.multipath, -b) / (math.gamma(b) * omega**b)
    else:
        power = e
        coeff = math.exp(ln_c) * math.gamma(b - e - 1.0) / (math.gamma(b) * omega ** (e + 1.0))
    if cdf:
        return models._atom_mass(m.multipath) + coeff * x ** (power + 1.0) / (power + 1.0)
    return coeff * x**power


DEEP = (1e-150, 1e-200, 1e-250, 1e-300, 1e-307)
ROWS = (
    [("mixture_pdf", name, x) for name in ("akm-b0.6", "akm-b1.1", "akm-b1.9", "am", "extreme")
     for x in DEEP]
    + [(route, "small-z-akm", x) for route in ("composite_cdf", "mixture_cdf")
       for x in (1e-20, 1e-30, 1e-50)]
    + [(route, "half-am", x) for route in ("composite_cdf", "mixture_cdf")
       for x in (1e-160, 1e-200, 1e-300)]
    + [("mixture_pdf", "steep-am", x) for x in (1e-200, 1e-300, 1e-307)]
    + [("mixture_pdf", "am-b3", x) for x in (1e-150, 1e-200)]
    + [("mixture_pdf", "root-am-b3", x) for x in (1e-250, 1e-300, 1e-307)]
)
ROUTES = {"mixture_pdf": mixture_pdf, "composite_cdf": composite_cdf, "mixture_cdf": mixture_cdf}


@pytest.mark.parametrize("route, name, x", ROWS)
def test_composite_follows_the_origin_law(route, name, x):
    m = MODELS[name]
    want = composite_law(m, x, cdf=route != "mixture_pdf")
    assert ROUTES[route](m, x) == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("rho", [1e-170, 1e-175, 1e-200, 1e-300])
def test_density_where_the_bessel_argument_underflows(rho):
    # z = 2 sqrt(lam rate) rho^(alpha / 2) is subnormal at 1e-170 and 0 below.
    e, ln_c = models._origin(SMALL_Z_AKM)
    want = math.exp(ln_c + e * math.log(rho))
    assert akm_pdf_normalized(SMALL_Z_AKM, rho) == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("rho", [1e-150, 1e-160, 1e-200, 1e-300])
def test_cdf_where_rate_rho_alpha_leaves_the_normal_range(rho):
    # F = P(mu, rate rho^alpha) -> rate^mu rho^(alpha mu) / Gamma(mu + 1).
    want = math.sqrt(0.5) * rho / math.gamma(1.5)
    assert am_cdf(HALF_AM, ScaledEnvelope(1.0), rho) == pytest.approx(want, rel=1e-12, abs=0.0)
    akm = AkmParams(2.0, 0.0, 0.5)  # the same law as an akm model, on both akm cdfs
    assert akm_cdf_series(akm, rho) == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("omega", [2.5, 0.5])
@pytest.mark.parametrize("x", [1e300, 1e308])
def test_far_tail_where_x_over_rho_overflows(omega, x):
    # k = 2 / (e + 1) = 11.1: the first nodes rho = s^k lie near 1e-38, so
    # x / rho passes the largest double; the density is 0 there.
    m = CompositeModel(MODELS["steep-am"].multipath, GammaShadowParams(0.3, omega))
    assert mixture_pdf(m, x) == 0.0
    got = mixture_pdf(m, np.array([1.0, x]))
    assert got[0] == mixture_pdf(m, 1.0)
    assert got[1] == 0.0


# At a subnormal x the nodes' w = x / (omega rho) and mixture_cdf's x / y
# are read from logs: x / omega rounds to 0 at 5e-324 over omega 2.5.
SUBNORMAL_MODELS = {
    "am-0.2": CompositeModel(AmParams(0.2, 3.0), GammaShadowParams(1.1, 2.5)),
    "steep-am": CompositeModel(AmParams(0.6, 0.3), GammaShadowParams(0.6, 2.5)),
    "akm-b0.6-omega2.5": CompositeModel(README_AKM, GammaShadowParams(0.6, 2.5)),
}
REL_TOL = {"mixture_pdf": 1e-9, "mixture_cdf": 1e-9, "composite_cdf": 1e-10}


@pytest.mark.parametrize("route", [mixture_pdf, composite_cdf, composite_sf])
def test_where_x_over_omega_underflows(route):
    # 5e-324 / 2.5 rounds to 0; ln x - ln omega keeps the digits of every w.
    m = SUBNORMAL_MODELS["akm-b0.6-omega2.5"]
    f, F = composite_law(m, 5e-324, cdf=False), composite_law(m, 5e-324, cdf=True)
    want = {mixture_pdf: f, composite_cdf: F, composite_sf: 1.0 - F}[route]
    assert route(m, 5e-324) == pytest.approx(want, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("x", [1e-316, 1e-320, 1e-323, 5e-324])
@pytest.mark.parametrize("name", list(SUBNORMAL_MODELS))
@pytest.mark.parametrize("route", list(REL_TOL))
def test_subnormal_x_holds_rel_tol(route, name, x):
    m = SUBNORMAL_MODELS[name]
    want = composite_law(m, x, cdf=route != "mixture_pdf")
    assert ROUTES[route](m, x) == pytest.approx(want, rel=REL_TOL[route], abs=0.0)
