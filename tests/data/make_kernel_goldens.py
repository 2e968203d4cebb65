"""High-precision goldens for the shadow-kernel integral.

    python3 tests/data/make_kernel_goldens.py

writes ``tests/data/kernel_goldens.json``: for every case in ``CASES`` the
natural log of

    K(p, a) = int_0^inf u^(p-1) exp(-a/u) exp(-u^(1/alpha)/omega) du

computed with mpmath at ``DPS`` decimal digits, independently of compfade.
After v = u^(1/alpha) and t = ln v the integral is
alpha * int exp(phi(t)) dt with phi(t) = alpha*p*t - a*e^(-alpha*t) -
e^t/omega.  phi is concave; mpmath's tanh-sinh rule integrates
exp(phi - phi(t*)) on equal panels (the peak width, at most 1/alpha) from
the peak t* out to where the integrand falls below 1e-(digits + 5).  For
a = 0 the integral alpha * int v^(alpha*p-1) e^(-v/omega) dv is taken in
s = v^(alpha*p) up to v = omega and in v beyond.

Each value is computed at ``DPS`` and at ``DPS + 15`` digits (each with ten
guard digits), and the two must agree to ``AGREE`` relative.  a = 0 cases
must also agree with ln(alpha) + alpha*p*ln(omega) + lgamma(alpha*p), and
alpha = 1 cases with ln(2 (a*omega)^(p/2) K_p(2 sqrt(a/omega))).

The ``rows`` section holds, for each ``(p0, a, alpha, omega)`` in ``ROWS``,
ln K at the powers p0 - l, l = 0 .. ``ROW_COUNT`` - 1 (p0 - l taken in
double precision, as the series route forms it): the terms of one series
point share a, alpha and omega, and the kernel evaluates them as one block.

The ``batch`` section holds, for each ``(p0, alpha, omega)`` in ``BATCH``,
ln K at the powers p0 - l, l = 0 .. ``BATCH_ROWS`` - 1, at every inner
scale of ``BATCH_SCALES``: one (scales x rows) block, which the kernel
evaluates as one array call whose points share grids.  The scales run
from 1e-9 to 1e4, so the shared grids span wide windows of offsets.

``tests/test_kernel_goldens.py`` reads the JSON; it needs no mpmath.
"""

from __future__ import annotations

import json
from pathlib import Path

import mpmath as mp

HERE = Path(__file__).resolve().parent
OUT = HERE / "kernel_goldens.json"
DPS = 35
AGREE = mp.mpf("1e-28")

# (p, a, alpha, omega).  p runs from the deep terms of figure 2
# (alpha = 2, omega = 0.7, p = 0.9 - mu - l) up to 3; a from 0 (with
# alpha*p below, at and above 1) through 1e-8 to 1e4; alpha from 0.5 to 6;
# omega from 0.1 to 10.
CASES = [
    # a = 0: the gamma-function closed form.
    (1.3, 0.0, 1.5, 0.8),
    (0.5, 0.0, 1.4, 1.2),
    (0.5, 0.0, 2.0, 1.0),
    (0.02, 0.0, 0.5, 0.1),
    (2.5, 0.0, 0.5, 3.0),
    (3.0, 0.0, 6.0, 10.0),
    # Figure 2 (akm-gamma, alpha 2, kappa 4, b 1.8, omega 0.7): inner scale
    # 20 x^2 over the figure grid, deep terms included.
    (-3.1, 0.002, 2.0, 0.7),
    (-12.1, 0.8, 2.0, 0.7),
    (-20.1, 20.0, 2.0, 0.7),
    (-43.1, 80.0, 2.0, 0.7),
    (-59.1, 320.0, 2.0, 0.7),
    (-60.0, 0.05, 2.0, 0.7),
    (-0.1, 1e-8, 2.0, 0.7),
    # Deep powers against tiny and huge inner scales.
    (-60.0, 1e-8, 0.5, 0.1),
    (-60.0, 1e4, 6.0, 10.0),
    (-45.5, 3e-3, 1.5, 0.9),
    (-30.0, 1e4, 0.5, 2.0),
    (-25.0, 1e-5, 4.0, 0.3),
    # Moderate powers.
    (-7.3, 13.0, 3.0, 0.9),
    (-3.1, 1.7, 2.0, 0.9),
    (-2.1, 1.7, 2.0, 0.9),
    (-1.0, 0.7, 1.5, 0.8),
    (-0.7, 2.0, 1.0, 1.5),
    (-0.4, 1e-3, 1.0, 0.3),
    (-0.4, 1e4, 1.0, 10.0),
    # p = 0 and small positive powers: a plateau in t between the two
    # double-exponential walls when a is small.
    (0.0, 1e-8, 1.0, 0.9),
    (0.0, 5.0, 2.4, 0.1),
    (0.02, 1e-8, 0.5, 10.0),
    (0.3, 1e-8, 0.5, 0.1),
    (0.3, 0.05, 6.0, 2.0),
    # Positive powers.
    (0.6, 320.0, 2.4, 0.8),
    (1.0, 1e-5, 3.0, 0.3),
    (1.0, 2.0, 1.0, 0.7),
    (1.2, 1e4, 4.0, 0.1),
    (2.2, 0.7, 0.5, 10.0),
    (2.2, 1e-8, 6.0, 2.0),
    (3.0, 1e-3, 1.5, 0.9),
    (3.0, 40.0, 2.0, 0.1),
    (3.0, 1e4, 0.5, 0.3),
    (3.0, 1e-8, 6.0, 10.0),
]

# Series points: (p0, a, alpha, omega), read as the powers p0 - l.  The
# values are formed from the model parameters as the series route does.
ROW_COUNT = 48
ROWS = [
    # Figure 2 at kappa 4, mu 4 (p0 = 1.8/2 - 4, a = 20 x^2): x = 2.86 needs
    # 50 terms at the figure's settings, x = 0.5 needs 48.
    (1.8 / 2.0 - 4.0, 4.0 * (1 + 4.0) * 2.86**2.0, 2.0, 0.7),
    (1.8 / 2.0 - 4.0, 4.0 * (1 + 4.0) * 0.5**2.0, 2.0, 0.7),
    # Figure 4, extreme-gamma (b 1.2, omega 0.8, m 1.1): alpha 4 at r = 3.8,
    # deep terms against a large inner scale; alpha 1 at r = 1.25, where
    # p0 - l crosses zero and the Bessel-K closed form applies.
    (1.2 / 4.0 - 1.0, 2.0 * 1.1 * 3.8**4.0, 4.0, 0.8),
    (1.2 / 1.0 - 1.0, 2.0 * 1.1 * 1.25**1.0, 1.0, 0.8),
    # The akm-gamma CLI curve (alpha 1.5, kappa 1, mu 2.1, b 1.1, omega 0.9)
    # at x = 1.
    (1.1 / 1.5 - 2.1, 2.1 * (1 + 1.0) * 1.0**1.5, 1.5, 0.9),
    # A tiny inner scale: flat-topped kernels around p = 0.
    (3.0, 1e-6, 0.5, 10.0),
]

# Batch blocks: (p0, alpha, omega), the README ``sample`` model's b 1.6,
# mu 1.7 and omega 0.8 at four alphas.
BATCH_ROWS = 24
BATCH = [(1.6 / alpha - 1.7, alpha, 0.8) for alpha in (1.0, 2.0, 2.2, 4.0)]
BATCH_SCALES = [10.0 ** (-9.0 + 13.0 * k / 7.0) for k in range(8)]


def _peak(p, a, alpha, omega):
    """Root of phi'(t) = alpha*p + alpha*a*e^(-alpha*t) - e^t/omega by
    bisection; phi' decreases strictly."""

    def dphi(t):
        return alpha * p + alpha * a * mp.exp(-alpha * t) - mp.exp(t) / omega

    # Bracket: phi' changes sign between the balance point of its two
    # exponentials and the point where the power term is absorbed.
    mid = mp.log(alpha * a * omega) / (alpha + 1)
    if p > 0:
        lo, hi = mid, mp.log(alpha * p * omega + mp.exp(mid))
    elif p < 0:
        lo, hi = -mp.log((-p + mp.exp(mid) / (alpha * omega)) / a) / alpha, mid
    else:
        return mid
    for _ in range(mp.mp.prec + 20):
        t = (lo + hi) / 2
        if dphi(t) > 0:
            lo = t
        else:
            hi = t
    return (lo + hi) / 2


def _cut(phi, start, step, floor):
    """First point start + k*step (k >= 1) where phi drops below floor."""
    t = start + step
    while phi(t) > floor:
        t += step
    return t


def ln_kernel(p, a, alpha, omega, dps):
    with mp.workdps(dps + 10):
        p, a, alpha, omega = (mp.mpf(v) for v in (p, a, alpha, omega))
        if a == 0:
            # alpha * int v^(alpha*p-1) e^(-v/omega) dv, taken in
            # s = v^(alpha*p) on (0, omega), where the integrand is bounded.
            ap = alpha * p
            head = mp.quad(lambda s: mp.exp(-s ** (1 / ap) / omega), [0, omega**ap]) / ap
            tail = mp.quad(lambda v: v ** (ap - 1) * mp.exp(-v / omega),
                           [omega, 2 * omega + ap * omega, mp.inf])
            return mp.log(alpha) + mp.log(head + tail)
        peak = _peak(p, a, alpha, omega)

        def phi(t):
            return alpha * p * t - a * mp.exp(-alpha * t) - mp.exp(t) / omega

        sigma = 1 / mp.sqrt(alpha**2 * a * mp.exp(-alpha * peak) + mp.exp(peak) / omega)
        width = min(sigma, 1 / alpha)
        top = phi(peak)
        # Below floor the integrand is under 1e-(dps+5) of its peak and
        # falls at least exponentially (phi is concave).
        floor = top - (dps + 5) * mp.log(10)
        lo = _cut(phi, peak, -width, floor)
        hi = _cut(phi, peak, width, floor)
        points = mp.linspace(lo, hi, int(mp.nint((hi - lo) / width)) + 1)
        total = mp.quad(lambda t: mp.exp(phi(t) - top), points)
        return mp.log(alpha) + top + mp.log(total)


def closed_form(p, a, alpha, omega, dps):
    """Closed form of ln K where one exists (a = 0, or alpha = 1), else None."""
    with mp.workdps(dps):
        p, a, alpha, omega = (mp.mpf(v) for v in (p, a, alpha, omega))
        if a == 0:
            return mp.log(alpha) + alpha * p * mp.log(omega) + mp.loggamma(alpha * p)
        if alpha == 1:
            z = 2 * mp.sqrt(a / omega)
            return mp.log(2) + p / 2 * mp.log(a * omega) + mp.log(mp.besselk(p, z))
    return None


def checked(p, a, alpha, omega):
    """ln K at DPS digits, checked against DPS + 15 digits and any closed form."""
    value = ln_kernel(p, a, alpha, omega, DPS)
    check = ln_kernel(p, a, alpha, omega, DPS + 15)
    gap = abs(value - check) / max(1, abs(check))
    if gap > AGREE:
        raise SystemExit(f"case {(p, a, alpha, omega)}: precisions disagree by {gap}")
    exact = closed_form(p, a, alpha, omega, DPS + 15)
    if exact is not None and abs(value - exact) / max(1, abs(exact)) > AGREE:
        raise SystemExit(f"case {(p, a, alpha, omega)}: closed form disagrees")
    print(f"p={p} a={a} alpha={alpha} omega={omega}: {mp.nstr(value, 20)}")
    return mp.nstr(value, 30)


def main() -> None:
    cases = [{"p": p, "a": a, "alpha": alpha, "omega": omega,
              "ln_value": checked(p, a, alpha, omega)}
             for p, a, alpha, omega in CASES]
    rows = [{"p0": p0, "a": a, "alpha": alpha, "omega": omega,
             "ln_values": [checked(p0 - l, a, alpha, omega) for l in range(ROW_COUNT)]}
            for p0, a, alpha, omega in ROWS]
    batch = [{"p0": p0, "alpha": alpha, "omega": omega, "scales": BATCH_SCALES,
              "ln_values": [[checked(p0 - l, a, alpha, omega) for l in range(BATCH_ROWS)]
                            for a in BATCH_SCALES]}
             for p0, alpha, omega in BATCH]
    OUT.write_text(json.dumps({"dps": DPS, "cases": cases, "rows": rows, "batch": batch},
                              indent=1) + "\n")


if __name__ == "__main__":
    main()
