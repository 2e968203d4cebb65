"""Generate ``refs.json``: the input pools and reference values of every
workload, computed without any of compfade's code paths.

Densities are written down from their textbook forms and evaluated with
``scipy.special`` (``ive``, ``gammaln``, ``gammainc``) and ``scipy.stats``
(``ncx2``); shadow averages are ``scipy.integrate.quad`` over t = ln y on
the interval where the log-integrand is within 745 of its peak.  A sample
of the values is re-derived with ``mpmath`` at 40 digits as a check on the
scipy route.

    python3 perfbench/gen_refs.py            # rewrites perfbench/refs.json

Takes a few minutes on two cores.  The pools are drawn from
``workloads.PARAM_BOX`` with a fixed generator seed, so rerunning the
script reproduces the file up to the last digits of the quadratures.
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

import mpmath
import numpy as np
import scipy
from scipy import integrate, special, stats

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads as W  # noqa: E402

OUT = Path(__file__).resolve().parent / "refs.json"
POOL_SEED = 20150515
BOX_POOL = 300  # composite draws per family
PLAIN_POOL = 300  # plain multipath draws per family
LN_TINY = -745.0


# ----------------------------------------------------------------------
# Log-densities of the unit-rms multipath envelopes (vectorized in rho).
# ----------------------------------------------------------------------

def _ln_ive(nu, z):
    z = np.asarray(z, dtype=float)
    with np.errstate(divide="ignore"):
        out = np.log(special.ive(nu, z))
    small = z < 1e-6
    if np.any(small):
        zs = z[small]
        out[small] = nu * np.log(0.5 * zs) - special.gammaln(nu + 1.0) - zs
    return out


def ln_pdf_mp(family, mp, rho):
    rho = np.asarray(rho, dtype=float)
    lr = np.log(rho)
    a = mp["alpha"]
    if family == "akm":
        k, mu = mp["kappa"], mp["mu"]
        s = np.exp(0.5 * a * lr)
        z = 2.0 * mu * math.sqrt(k * (1.0 + k)) * s
        return (
            math.log(a * mu)
            + 0.5 * (mu + 1.0) * math.log1p(k)
            - 0.5 * (mu - 1.0) * math.log(k)
            + (0.5 * a * (mu + 1.0) - 1.0) * lr
            - mu * (math.sqrt(1.0 + k) * s - math.sqrt(k)) ** 2
            + _ln_ive(mu - 1.0, z)
        )
    if family == "am":
        mu = mp["mu"]
        return (
            math.log(a) + mu * math.log(mu) + (a * mu - 1.0) * lr
            - mu * np.exp(a * lr) - special.gammaln(mu)
        )
    m = mp["m"]
    s = np.exp(0.5 * a * lr)
    return (
        math.log(2.0 * a * m) + (0.5 * a - 1.0) * lr
        - 2.0 * m * (1.0 - s) ** 2 + _ln_ive(1.0, 4.0 * m * s)
    )


def cdf_mp(family, mp, rho):
    """Distribution function of the unit-rms envelope (atom included)."""
    rho = np.asarray(rho, dtype=float)
    a = mp["alpha"]
    if family == "akm":
        k, mu = mp["kappa"], mp["mu"]
        return stats.ncx2.cdf(2.0 * mu * (1.0 + k) * rho**a, 2.0 * mu, 2.0 * mu * k)
    if family == "am":
        mu = mp["mu"]
        return special.gammainc(mu, mu * rho**a)
    # Poisson(2m) mixture of Gamma(n, 1) laws for 2m rho^alpha; n = 0 is the atom.
    lam = 2.0 * mp["m"]
    x = lam * rho**a
    n = np.arange(1, int(lam + 80))
    w = stats.poisson.pmf(n, lam)
    terms = w[:, None] * special.gammainc(n[:, None], np.atleast_1d(x)[None, :])
    return math.exp(-lam) + np.sum(terms, axis=0).reshape(rho.shape)


def ln_gamma_pdf(b, omega, y_ln):
    return (b - 1.0) * y_ln - np.exp(y_ln) / omega - special.gammaln(b) - b * math.log(omega)


# ----------------------------------------------------------------------
# Shadow averages over t = ln y.
# ----------------------------------------------------------------------

_T = np.linspace(-60.0, 40.0, 4001)


def _shadow_average(log_integrand, rel=1e-12):
    """int exp(L(t)) dt for a unimodal-ish log-integrand L, in log space."""
    with np.errstate(all="ignore"):
        lv = log_integrand(_T)
    lv = np.where(np.isfinite(lv), lv, -np.inf)
    peak = int(np.argmax(lv))
    lmax = float(lv[peak])
    if not math.isfinite(lmax):
        return 0.0
    alive = np.nonzero(lv > lmax + LN_TINY)[0]
    lo = _T[max(alive[0] - 1, 0)]
    hi = _T[min(alive[-1] + 1, len(_T) - 1)]

    def f(t):
        with np.errstate(all="ignore"):
            v = float(log_integrand(np.array([t]))[0])
        return math.exp(v - lmax) if math.isfinite(v) else 0.0

    val, _err = integrate.quad(
        f, lo, hi, points=[float(_T[peak])], epsabs=0.0, epsrel=rel, limit=2000
    )
    return math.exp(lmax) * val


def composite_pdf_ref(family, mp, shadow, x):
    b, omega = shadow
    lx = math.log(x)
    # f(x) = int f_mp(x/y)/y g(y) dy = int f_mp(x e^-t) g(e^t) dt.
    return _shadow_average(lambda t: ln_pdf_mp(family, mp, np.exp(lx - t)) + ln_gamma_pdf(b, omega, t))


def composite_cdf_ref(family, mp, shadow, x):
    b, omega = shadow
    lx = math.log(x)
    # F(x) = int F_mp(x/y) g(y) dy = int F_mp(x e^-t) g(e^t) e^t dt.
    def ln_f(t):
        with np.errstate(divide="ignore"):
            return np.log(cdf_mp(family, mp, np.exp(lx - t))) + ln_gamma_pdf(b, omega, t) + t
    return _shadow_average(ln_f, rel=1e-11)


# ----------------------------------------------------------------------
# mpmath spot checks of the scipy route.
# ----------------------------------------------------------------------

mpmath.mp.dps = 40


def _mp_pdf_mp(family, mp, rho):
    rho = mpmath.mpf(rho)
    a = mpmath.mpf(mp["alpha"])
    if family == "akm":
        k, mu = mpmath.mpf(mp["kappa"]), mpmath.mpf(mp["mu"])
        return (
            a * mu * (1 + k) ** ((mu + 1) / 2) / (k ** ((mu - 1) / 2) * mpmath.exp(mu * k))
            * rho ** (a * (mu + 1) / 2 - 1) * mpmath.exp(-mu * (1 + k) * rho**a)
            * mpmath.besseli(mu - 1, 2 * mu * mpmath.sqrt(k * (1 + k)) * rho ** (a / 2))
        )
    if family == "am":
        mu = mpmath.mpf(mp["mu"])
        return a * mu**mu * rho ** (a * mu - 1) * mpmath.exp(-mu * rho**a) / mpmath.gamma(mu)
    m = mpmath.mpf(mp["m"])
    return (
        2 * a * m * rho ** (a / 2 - 1) * mpmath.exp(-2 * m * (1 + rho**a))
        * mpmath.besseli(1, 4 * m * rho ** (a / 2))
    )


def mp_composite_pdf(family, mp, shadow, x):
    b, omega = (mpmath.mpf(v) for v in shadow)
    x = mpmath.mpf(x)

    def g(y):
        return y ** (b - 1) * mpmath.exp(-y / omega) / (mpmath.gamma(b) * omega**b)

    def f(y):
        return _mp_pdf_mp(family, mp, x / y) / y * g(y)

    mode = max(float(b * omega), 1e-3)
    return mpmath.quad(f, [0, mode / 8, mode / 2, mode, 2 * mode, 8 * mode, mpmath.inf])


def mp_akm_cdf(mp, rho):
    k, mu, a = (mpmath.mpf(mp[key]) for key in ("kappa", "mu", "alpha"))
    lam = mu * k
    x = mu * (1 + k) * mpmath.mpf(rho) ** a
    total = mpmath.mpf(0)
    n = 0
    while True:
        w = mpmath.exp(-lam) * lam**n / mpmath.factorial(n)
        total += w * mpmath.gammainc(mu + n, 0, x, regularized=True)
        n += 1
        if n > lam + 10 and w < mpmath.mpf(10) ** -45:
            return total


# ----------------------------------------------------------------------
# Pools
# ----------------------------------------------------------------------

def _draw(rng, key):
    lo, hi = W.PARAM_BOX[key]
    return rng.uniform(lo, hi)


def _draw_mp(rng, family):
    if family == "akm":
        return {"alpha": _draw(rng, "alpha"), "kappa": _draw(rng, "kappa"), "mu": _draw(rng, "mu")}
    if family == "am":
        return {"alpha": _draw(rng, "alpha"), "mu": _draw(rng, "mu")}
    return {"alpha": _draw(rng, "alpha"), "m": _draw(rng, "m")}


def _progress(label, i, n):
    if i % 50 == 0 or i == n - 1:
        print(f"{label}: {i + 1}/{n}", file=sys.stderr, flush=True)


def main() -> None:
    rng = random.Random(POOL_SEED)
    refs = {
        "about": {
            "generator": "perfbench/gen_refs.py",
            "pool_seed": POOL_SEED,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "mpmath": mpmath.__version__,
        }
    }

    lo, hi, n = W.FIGURE_GRID
    grid = np.linspace(lo, hi, n)
    refs["figure"] = []
    for c, (fig, family, mp, shadow) in enumerate(W.FIGURE_CURVES):
        _progress("figure curves", c, len(W.FIGURE_CURVES))
        refs["figure"].append(
            {"pdf": [composite_pdf_ref(family, mp, shadow, float(x)) for x in grid]}
        )

    refs["box"] = {}
    for family in W.FAMILIES:
        pool = []
        for d in range(BOX_POOL):
            _progress(f"box {family}", d, BOX_POOL)
            mp = _draw_mp(rng, family)
            shadow = (_draw(rng, "b"), _draw(rng, "omega"))
            xs = [u * shadow[0] * shadow[1] for u in W.BOX_UNITS]
            pool.append(
                {
                    "mp": mp,
                    "shadow": list(shadow),
                    "pdf": [composite_pdf_ref(family, mp, shadow, x) for x in xs],
                }
            )
        refs["box"][family] = pool

    rho = np.array(W.PLAIN_RHO)
    refs["plain"] = {}
    for family in W.FAMILIES:
        pool = []
        for _ in range(PLAIN_POOL):
            mp = _draw_mp(rng, family)
            entry = {"mp": mp, "cdf": [float(v) for v in cdf_mp(family, mp, rho)]}
            if family == "akm":
                entry["pdf"] = [float(v) for v in np.exp(ln_pdf_mp(family, mp, rho))]
            pool.append(entry)
        refs["plain"][family] = pool
    mp = dict(W.ROADMAP_AKM)
    refs["plain"]["akm_roadmap"] = [{"mp": mp, "cdf": [float(mp_akm_cdf(mp, r)) for r in rho]}]

    refs["gof"] = {}
    for name, params in W.GOF_MODELS.items():
        print(f"gof {name}", file=sys.stderr, flush=True)
        family = name.split("-")[0]
        mp = {k: v for k, v in params.items() if k not in ("b", "omega")}
        shadow = (params["b"], params["omega"])
        lo, hi, n = W.CDF_GRID
        cdf_x = np.linspace(lo, hi, n)
        # Reference continuous-part cdf on a dense grid for the KS check.
        scale = shadow[0] * shadow[1]
        x_max = 40.0 * scale
        tx = np.unique(
            np.concatenate(
                [
                    np.geomspace(1e-4 * scale, 0.2 * scale, 100),
                    np.linspace(0.2 * scale, 8.0 * scale, 400),
                    np.geomspace(8.0 * scale, x_max, 40),
                ]
            )
        )
        atom = math.exp(-2.0 * mp["m"]) if family == "extreme" else 0.0
        cont = [(composite_cdf_ref(family, mp, shadow, float(x)) - atom) / (1.0 - atom) for x in tx]
        refs["gof"][name] = {
            "cdf": [composite_cdf_ref(family, mp, shadow, float(x)) for x in cdf_x],
            "table_x": [float(x) for x in tx],
            "table_cont": cont,
        }

    check_with_mpmath(refs)
    OUT.write_text(json.dumps(refs, separators=(",", ":")) + "\n")
    print(f"wrote {OUT}", file=sys.stderr)


def check_with_mpmath(refs) -> None:
    """Re-derive a sample of the scipy values at 40 digits; stop on a gap."""
    worst = 0.0
    samples = [("figure", c, i) for c in (0, 6, 12, 17) for i in (3, 60, 150)]
    for _, c, i in samples:
        fig, family, mp, shadow = W.FIGURE_CURVES[c]
        lo, hi, n = W.FIGURE_GRID
        x = lo + i * (hi - lo) / (n - 1)
        ref = refs["figure"][c]["pdf"][i]
        worst = max(worst, abs(ref / float(mp_composite_pdf(family, mp, shadow, x)) - 1.0))
    for family in W.FAMILIES:
        for d in (0, 1, 2):
            e = refs["box"][family][d]
            for i in (0, 12, 24):
                x = W.BOX_UNITS[i] * e["shadow"][0] * e["shadow"][1]
                exact = float(mp_composite_pdf(family, e["mp"], e["shadow"], x))
                if exact > 1e-250:
                    worst = max(worst, abs(e["pdf"][i] / exact - 1.0))
    for d in range(5):
        e = refs["plain"]["akm"][d]
        for i, r in enumerate(W.PLAIN_RHO):
            exact = float(mp_akm_cdf(e["mp"], r))
            if exact > 1e-300:
                worst = max(worst, abs(e["cdf"][i] / exact - 1.0))
            exact = float(_mp_pdf_mp("akm", e["mp"], r))
            if exact > 1e-300:
                worst = max(worst, abs(e["pdf"][i] / exact - 1.0))
    print(f"mpmath spot check: worst relative gap {worst:.2e}", file=sys.stderr)
    if worst > 1e-9:
        raise SystemExit(f"scipy references disagree with mpmath by {worst:.2e}")


if __name__ == "__main__":
    main()
