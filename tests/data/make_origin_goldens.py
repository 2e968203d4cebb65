"""High-precision goldens for the composite lower tail, down to x = 1e-300.

    python3 tests/data/make_origin_goldens.py

writes ``tests/data/origin_goldens.json``: the cdf F, the survival function
S = 1 - F and the density f of the composite X = P Y with P ~ Exp(1) (the
alpha-mu envelope at alpha 1, mu 1) and Y ~ Gamma(b, omega), computed with
mpmath, independently of compfade.  With z = x / omega,

    S(x) = E[exp(-x / Y)] = 2 z^(b/2) K_b(2 sqrt z) / Gamma(b),
    F(x) = 1 - S(x),
    f(x) = 2 z^((b-1)/2) K_(b-1)(2 sqrt z) / (omega Gamma(b)),

with K the modified Bessel function of the second kind.  The law is closed
at every b, the integer b included, where the residue series of the lower
tail has double poles (an x^b ln x term).  Near the origin F falls like x or
x^b, and S rounds to 1: the 1 - S form loses about -log10 F digits, so each
point runs at ``DPS`` digits plus -log10 x (350 digits at 1e-300).  Each
value is computed there and at 15 more digits; the two must agree to
``AGREE`` relative.  The arguments are doubles, taken exactly.

``tests/test_origin_goldens.py`` reads the JSON; it needs no mpmath.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import mpmath as mp

OUT = Path(__file__).resolve().parent / "origin_goldens.json"
DPS = 50  # 40 digits kept, ten guard digits
AGREE = mp.mpf("1e-38")
OMEGA = 0.9
B = (0.6, 1.0, 1.5, 2.0, 3.0)
X = (1e-300, 1e-200, 1e-100, 1e-50, 1e-30, 1e-20, 1e-16, 1e-12, 1e-8, 1e-5, 1e-3, 0.1, 1.0)


def _values(b: float, x: float, dps: int) -> tuple:
    with mp.workdps(dps):
        bb, z = mp.mpf(b), mp.mpf(x) / mp.mpf(OMEGA)
        root = 2 * mp.sqrt(z)
        s = 2 * z ** (bb / 2) * mp.besselk(bb, root) / mp.gamma(bb)
        f = 2 * z ** ((bb - 1) / 2) * mp.besselk(bb - 1, root) / (mp.mpf(OMEGA) * mp.gamma(bb))
        return 1 - s, s, f


def golden(b: float, x: float) -> dict:
    dps = DPS + max(0, math.ceil(-math.log10(x)))
    low, high = _values(b, x, dps), _values(b, x, dps + 15)
    for a, c in zip(low, high):
        if abs(a - c) > AGREE * abs(c):
            raise SystemExit(f"b {b}, x {x!r}: {a} and {c} disagree")
    return {"b": b, "x": x, **{key: mp.nstr(v, 20) for key, v in zip(("F", "S", "f"), high)}}


def main() -> None:
    rows = [golden(b, x) for b in B for x in X]
    doc = {"omega": OMEGA, "multipath": {"family": "am", "alpha": 1.0, "mu": 1.0}, "rows": rows}
    OUT.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {len(rows)} rows to {OUT}")


if __name__ == "__main__":
    main()
