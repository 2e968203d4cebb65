"""Composite multipath/shadowing fading distributions.

Evaluators for the non-linear LOS, zero-LOS, and severe-fading multipath
models and their gamma-shadowed composites, with exact samplers, a
cross-validation suite, and a CLI (``compfade``).
"""

from .composite import (
    CompositeModel,
    KernelArgs,
    SeriesConfig,
    akm_gamma_pdf_series,
    am_gamma_pdf,
    composite_cdf,
    composite_density,
    composite_pdf,
    composite_sf,
    extreme_gamma_density,
    extreme_gamma_pdf,
    mixture_cdf,
    mixture_density,
    mixture_pdf,
    shadow_kernel_integral,
    shadow_kernel_integral_ln,
)
from .errors import (
    DivergentIntegralError,
    DomainError,
    EvaluationError,
    NonConvergenceError,
)
from .mc import (
    GofReport,
    SampleBatch,
    gof_compare,
    ks_critical_value,
    sample_akm,
    sample_am,
    sample_composite,
    sample_extreme,
    sample_gamma_shadow,
)
from .models import (
    AkmParams,
    AmParams,
    Density,
    ExtremeParams,
    GammaShadowParams,
    ScaledEnvelope,
    SpecialCase,
    akm_cdf,
    akm_cdf_series,
    akm_moment,
    akm_moment_quadrature,
    akm_pdf_envelope,
    akm_pdf_normalized,
    akm_power_pdf,
    am_cdf,
    am_pdf,
    density_total_mass,
    extreme_cdf,
    extreme_density,
    extreme_pdf,
    gamma_shadow_cdf,
    gamma_shadow_pdf,
    nakagami_m_equiv,
    specialize,
)
from .numerics import (
    QuadratureResult,
    SeriesResult,
    integrate_semi_infinite,
    sum_adaptive,
)
from .specfun import (
    bessel_i,
    bessel_i_gross,
    bessel_i_scaled,
    kummer_1f1,
    ln_gamma,
    marcum_q,
    reg_lower_gamma,
    reg_upper_gamma,
)

__version__ = "0.1.0"
