"""The point contract of every public distribution function.

Each one takes a float, giving a float, or a 1-D array, giving an array of
the float calls' values; a zero takes the origin rule; a point far in the
tail takes the tail limit; a negative, NaN or infinite point, or a 2-D
input, raises ``DomainError``.  The table below
lists every public evaluator, and a guard keeps a new one from skipping it.
"""

import inspect
import math

import numpy as np
import pytest

import compfade
from compfade import (
    AkmParams,
    AmParams,
    CompositeModel,
    DomainError,
    ExtremeParams,
    NonConvergenceError,
    GammaShadowParams,
    ScaledEnvelope,
    akm_cdf,
    akm_cdf_series,
    akm_gamma_pdf_series,
    akm_pdf_envelope,
    akm_pdf_normalized,
    akm_power_pdf,
    am_cdf,
    am_gamma_pdf,
    am_pdf,
    composite_cdf,
    composite_density,
    composite_pdf,
    composite_sf,
    extreme_cdf,
    extreme_density,
    extreme_gamma_density,
    extreme_gamma_pdf,
    extreme_pdf,
    gamma_shadow_cdf,
    gamma_shadow_pdf,
    mixture_cdf,
    mixture_density,
    mixture_pdf,
)
from compfade.composite import plain_density

AKM, AM, EXT = AkmParams(1.5, 1.0, 2.1), AmParams(2.4, 1.3), ExtremeParams(2.0, 1.1)
SHADOW, ENV = GammaShadowParams(1.1, 0.9), ScaledEnvelope(1.3)
M_AKM, M_AM, M_EXT = (CompositeModel(p, SHADOW) for p in (AKM, AM, EXT))
ATOM = EXT.atom_mass
XS = np.array([1.7, 0.3, 4.0])

# How close an array call comes to the float calls.  A per-point evaluator
# runs the float path at each point: bit for bit.  A closed-form density
# runs numpy's array log and exp, which may round apart from the float path
# in the last bits; a series route shares kernel passes among its points.
EXACT, FORMULA, SERIES = 0.0, 1e-12, 1e-9

# (id, the public function it calls or None, evaluator, value at 0, rel)
CASES = [
    ("akm_pdf_normalized", "akm_pdf_normalized", lambda x: akm_pdf_normalized(AKM, x), 0.0, FORMULA),
    ("akm_pdf_envelope", "akm_pdf_envelope", lambda x: akm_pdf_envelope(AKM, ENV, x), 0.0, FORMULA),
    ("akm_power_pdf", "akm_power_pdf", lambda x: akm_power_pdf(AKM, x), 0.0, FORMULA),
    ("akm_cdf", "akm_cdf", lambda x: akm_cdf(AKM, x), 0.0, EXACT),
    ("akm_cdf_series", "akm_cdf_series", lambda x: akm_cdf_series(AKM, x), 0.0, EXACT),
    ("extreme_pdf", "extreme_pdf", lambda x: extreme_pdf(EXT, x), 0.0, FORMULA),
    ("extreme_cdf", "extreme_cdf", lambda x: extreme_cdf(EXT, x), ATOM, EXACT),
    ("am_pdf", "am_pdf", lambda x: am_pdf(AM, ENV, x), 0.0, FORMULA),
    ("am_cdf", "am_cdf", lambda x: am_cdf(AM, ENV, x), 0.0, EXACT),
    ("gamma_shadow_pdf", "gamma_shadow_pdf", lambda x: gamma_shadow_pdf(SHADOW, x), 0.0, FORMULA),
    ("gamma_shadow_cdf", "gamma_shadow_cdf", lambda x: gamma_shadow_cdf(SHADOW, x), 0.0, EXACT),
    ("mixture_pdf", "mixture_pdf", lambda x: mixture_pdf(M_AKM, x), 0.0, EXACT),
    ("mixture_cdf", "mixture_cdf", lambda x: mixture_cdf(M_EXT, x), ATOM, EXACT),
    ("composite_cdf", "composite_cdf", lambda x: composite_cdf(M_EXT, x), ATOM, EXACT),
    ("composite_cdf-oracle", "composite_cdf",
     lambda x: composite_cdf(M_AM, x, oracle=True), 0.0, EXACT),
    ("composite_sf", "composite_sf", lambda x: composite_sf(M_EXT, x), 1.0 - ATOM, EXACT),
    ("akm_gamma_pdf_series", "akm_gamma_pdf_series",
     lambda x: akm_gamma_pdf_series(M_AKM, x), 0.0, SERIES),
    ("am_gamma_pdf", "am_gamma_pdf", lambda x: am_gamma_pdf(M_AM, x), 0.0, SERIES),
    ("extreme_gamma_pdf", "extreme_gamma_pdf", lambda x: extreme_gamma_pdf(M_EXT, x), 0.0, SERIES),
    ("composite_pdf", "composite_pdf", lambda x: composite_pdf(M_AKM, x), 0.0, SERIES),
    ("composite_pdf-oracle", "composite_pdf",
     lambda x: composite_pdf(M_EXT, x, oracle=True), 0.0, EXACT),
]

# Every library ``Density``: its continuous part and its continuous cdf,
# with the public cdf (atoms included) that the continuous cdf reads.
DENSITIES = [
    ("plain-akm", lambda: plain_density(AKM, 1.3), lambda x: akm_cdf(AKM, x / 1.3), FORMULA),
    ("plain-am", lambda: plain_density(AM), lambda x: am_cdf(AM, ScaledEnvelope(1.0), x), FORMULA),
    ("plain-extreme", lambda: plain_density(EXT, 0.8),
     lambda x: extreme_cdf(EXT, x / 0.8), FORMULA),
    ("plain-shadow", lambda: plain_density(SHADOW, 1.2),
     lambda x: gamma_shadow_cdf(SHADOW, x / 1.2), FORMULA),
    ("extreme", lambda: extreme_density(EXT), lambda x: extreme_cdf(EXT, x), FORMULA),
    ("series-akm", lambda: composite_density(M_AKM), lambda x: composite_cdf(M_AKM, x), SERIES),
    ("series-extreme", lambda: extreme_gamma_density(M_EXT),
     lambda x: composite_cdf(M_EXT, x), SERIES),
    ("oracle-akm", lambda: composite_density(M_AKM, oracle=True),
     lambda x: mixture_cdf(M_AKM, x), EXACT),
    ("oracle-extreme", lambda: mixture_density(M_EXT), lambda x: mixture_cdf(M_EXT, x), EXACT),
]
for label, make, _, rel in DENSITIES:
    CASES.append((f"{label}.continuous", None, lambda x, make=make: make().continuous(x), 0.0, rel))
    CASES.append((f"{label}.continuous_cdf", None,
                  lambda x, make=make: make().continuous_cdf(x), 0.0, EXACT))

# The series rows cannot reach the far tail yet: the kernel raises
# NonConvergenceError at 1e100, and ``_series_sum`` raises it where
# rate * x**alpha overflows, at 1e300.
SERIES_FAR = pytest.mark.xfail(
    raises=NonConvergenceError, strict=True,
    reason="the series route raises far in the tail",
)


def tail_limit(case_id: str) -> float:
    # 0 for a density or a survival function, 1 for a cdf, and 1 - atom for
    # the continuous cdf of a model with the deep-fade atom.
    if "cdf" not in case_id:
        return 0.0
    return 1.0 - ATOM if "extreme.continuous_cdf" in case_id else 1.0


POINT_PARAMETERS = {"x", "rho", "r", "w", "y"}


def public_point_evaluators() -> set:
    # compfade has no __all__: its public top-level functions from models
    # and composite that take a point.
    names = set()
    for name, obj in vars(compfade).items():
        if name.startswith("_") or not inspect.isfunction(obj):
            continue
        if obj.__module__ in ("compfade.models", "compfade.composite"):
            if POINT_PARAMETERS & set(inspect.signature(obj).parameters):
                names.add(name)
    return names


def test_every_public_point_evaluator_is_in_the_table():
    found = public_point_evaluators()
    assert len(found) == 19
    assert found <= {name for _, name, *_ in CASES}


def test_every_library_density_is_vectorized():
    for _, make, _, _ in DENSITIES:
        assert make().vectorized


@pytest.mark.parametrize("row", DENSITIES, ids=[row[0] for row in DENSITIES])
def test_continuous_cdf_is_the_public_cdf_less_the_atoms(row):
    # Bit for bit, so no Density restates the cdf it stands for.
    _, make, cdf, _ = row
    density = make()
    assert type(density.atom_mass) is float
    for x in [*XS.tolist(), 0.0, 1e300]:
        got = density.continuous_cdf(x)
        assert type(got) is float and got == cdf(x) - density.atom_mass
    points = np.array([*XS.tolist(), 0.0, 1e300])
    assert density.continuous_cdf(points).tolist() == (cdf(points) - density.atom_mass).tolist()


@pytest.mark.parametrize("rhat", [0.7, 1.3, 1.7])
def test_am_pdf_is_the_plain_density_at_its_scale(rhat):
    # One scale rule, bit for bit: the unit-scale density at x / rhat, over rhat.
    pdf, plain = lambda x: am_pdf(AM, ScaledEnvelope(rhat), x), plain_density(AM, rhat).continuous
    points = [*np.linspace(0.05, 4.0, 50).tolist(), 0.0, 1e300]
    assert [pdf(x) for x in points] == [plain(x) for x in points]
    assert pdf(np.array(points)).tolist() == plain(np.array(points)).tolist()


@pytest.mark.parametrize("p, pdf", [(AKM, akm_pdf_envelope), (AM, am_pdf)], ids=["akm", "am"])
def test_scaled_pdf_checks_r_before_dividing(p, pdf):
    # r itself is checked and cut at the far tail of its scale: 1e308 over rhat 0.5 is
    # past it, where r / rhat would overflow, and -5e-324 is no point, where r / rhat
    # rounds to -0.
    assert pdf(p, ScaledEnvelope(0.5), 1e308) == 0.0
    assert pdf(p, ScaledEnvelope(0.5), np.array([0.3, 1e308]))[1] == 0.0
    for bad in (-5e-324, np.array([0.3, -5e-324])):
        with pytest.raises(DomainError, match="r must be finite"):
            pdf(p, ScaledEnvelope(2.5), bad)


def test_extreme_density_is_the_plain_density():
    # Both come from the one builder in ``models``, bit for bit.
    ext, plain = extreme_density(EXT), plain_density(EXT)
    assert ext.atoms == plain.atoms
    points = [*XS.tolist(), 0.0, 1e300]
    for name in ("continuous", "continuous_cdf"):
        f, g = getattr(ext, name), getattr(plain, name)
        assert [f(x) for x in points] == [g(x) for x in points]
        assert f(np.array(points)).tolist() == g(np.array(points)).tolist()


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
class TestPointContract:
    def test_array_gives_the_float_calls(self, case):
        _, _, f, _, rel = case
        floats = [f(x) for x in XS.tolist()]
        assert all(type(v) is float for v in floats)
        got = f(XS)
        assert isinstance(got, np.ndarray) and got.shape == XS.shape and got.dtype == float
        assert got.tolist() == pytest.approx(floats, rel=rel, abs=0.0)  # EXACT: equal
        assert f(np.array([])).shape == (0,)

    def test_zero_takes_the_origin_rule(self, case):
        _, _, f, origin, rel = case
        assert f(0.0) == origin
        got = f(np.array([0.0, 0.3, 0.0]))
        assert got[[0, 2]].tolist() == [origin, origin]
        assert got[1] == pytest.approx(f(0.3), rel=rel, abs=0.0)

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_bad_point_raises_domain_error(self, case, bad):
        f = case[2]
        with pytest.raises(DomainError):
            f(bad)
        with pytest.raises(DomainError):
            f(np.array([0.3, bad, 1.7]))

    def test_far_point_takes_the_tail_limit(self, case, request):
        case_id, _, f, _, rel = case
        if rel == SERIES:
            request.applymarker(SERIES_FAR)
        limit = tail_limit(case_id)
        assert f(1e300) == limit
        got = f(np.array([0.3, 1e300]))
        assert got[0] == pytest.approx(f(0.3), rel=rel, abs=0.0)
        assert got[1] == limit

    def test_2d_input_raises_domain_error(self, case):
        with pytest.raises(DomainError):
            case[2](XS[None, :])


def test_oracle_density_cdf_keeps_its_tolerance():
    # mixture_density(m, rel_tol, budget) runs its cdf at the same settings.
    m = CompositeModel(ExtremeParams(1.5, 1.1), GammaShadowParams(0.9, 0.8))
    density = mixture_density(m, rel_tol=1e-12, budget=400_000)
    want = mixture_cdf(m, 1e-3, rel_tol=1e-12, budget=400_000) - m.multipath.atom_mass
    assert density.continuous_cdf(1e-3) == want
