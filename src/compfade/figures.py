"""Parameter sweeps for the four standard demonstration figures.

The captions behind these figures fix the shadow and clustering parameters
but leave the swept values open ("different values of alpha/mu"), so the
sweeps below are frozen artifact defaults and are recorded in the emitted
metadata.  Figure 1 also needs a LOS power ratio, frozen at kappa = 1.
"""

from __future__ import annotations

import numpy as np

from .composite import CompositeModel
from .models import AkmParams, AmParams, ExtremeParams, GammaShadowParams

__all__ = ["FIGURE_IDS", "ALPHA_SWEEP", "MU_SWEEP", "figure_curves", "default_grid"]

ALPHA_SWEEP = (1.0, 1.5, 2.0, 3.0, 4.0)
MU_SWEEP = (0.5, 1.0, 2.0, 4.0)

_FIG1_KAPPA = 1.0


def default_grid(points: int = 200) -> np.ndarray:
    return np.linspace(0.01, 4.0, points)


# Per figure: the multipath class, the fixed parameters in the order the
# figure metadata lists them (the shadow's b and omega first) and the swept
# parameter with its values.
_FIGURES = {
    1: (AkmParams, {"b": 1.1, "omega": 0.9, "mu": 2.1, "kappa": _FIG1_KAPPA}, "alpha", ALPHA_SWEEP),
    2: (AkmParams, {"b": 1.8, "omega": 0.7, "kappa": 4.0, "alpha": 2.0}, "mu", MU_SWEEP),
    3: (AmParams, {"b": 1.1, "omega": 0.9, "mu": 2.1}, "alpha", ALPHA_SWEEP),
    4: (ExtremeParams, {"b": 1.2, "omega": 0.8, "m": 1.1}, "alpha", ALPHA_SWEEP),
}
FIGURE_IDS = tuple(_FIGURES)


def figure_curves(figure_id: int) -> list:
    """Curve definitions for one figure: (label, model, fixed, swept)."""
    if figure_id not in FIGURE_IDS:
        raise ValueError(f"figure_id must be one of {FIGURE_IDS}, got {figure_id!r}")
    params, fixed, name, sweep = _FIGURES[figure_id]
    fixed = dict(fixed)
    shadow = GammaShadowParams(fixed["b"], fixed["omega"])
    multipath = {k: v for k, v in fixed.items() if k not in ("b", "omega")}
    return [
        {
            "label": f"{name}={value:g}",
            "model": CompositeModel(params(**multipath, **{name: value}), shadow),
            "fixed": fixed,
            "swept": {name: value},
        }
        for value in sweep
    ]
