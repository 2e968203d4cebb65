"""Command-line surface: evaluate curves, reproduce the figure parameter
sets, draw samples, and run the validation suite.

Exit status discipline: 0 on success, 1 when a validation or strict-mode
check fails, 2 on usage or parameter errors.  argparse is the one parser:
the entries of a ``--config`` file are read as flags placed before the
command line's own, so a bad config value exits 2 as a bad flag does, and
an explicit flag wins.  Output is machine readable
(CSV with ``x,value`` rows plus ``#atom,`` trailer rows, or JSON carrying
the full curve table with metadata); no color codes are emitted, so
``NO_COLOR`` is honored trivially.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import __version__, composite, figures, mc, models, validation
from .composite import FAMILIES, MULTIPATH_FAMILIES, SHADOW, CompositeModel, SeriesConfig
from .errors import DomainError, NonConvergenceError
from .numerics import integrate_semi_infinite  # noqa: F401  (perfbench/tracing.py wraps it here)
from .models import AkmParams, ScaledEnvelope

# A multipath family over the gamma shadow is "<family>-gamma"; the aliases
# fix alpha = 2 on a composite.
_COMPOSITE_SUFFIX = "-gamma"
_ALPHA_TWO_ALIASES = {"kmu-gamma": "akm-gamma", "kmu-extreme-gamma": "extreme-gamma"}
MODEL_CHOICES = (
    *(f.name for f in MULTIPATH_FAMILIES),
    *(f.name + _COMPOSITE_SUFFIX for f in MULTIPATH_FAMILIES),
    SHADOW.name,
    *_ALPHA_TWO_ALIASES,
)

_PARAM_FLAGS = tuple(dict.fromkeys(f for family in FAMILIES.values() for f in family.fields))


class UsageError(Exception):
    """Parameter or configuration problem; maps to exit status 2."""


class ValidationFailure(Exception):
    """A requested check failed; maps to exit status 1."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compfade",
        description="Composite multipath/shadowing fading distributions: "
        "curve evaluation, sampling, and cross-validation.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"compfade {__version__}")
    # Flags and config keys are spelled in full: "--form" is not "--format".
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=partial(argparse.ArgumentParser, allow_abbrev=False))

    dflt = " (default %(default)s)"  # each flag states its own default

    def add_model_flags(p):
        p.add_argument("--model", choices=MODEL_CHOICES, help="distribution family")
        for flag in _PARAM_FLAGS:
            p.add_argument(f"--{flag}", type=float, help=f"model parameter {flag}")
        p.add_argument("--rhat", type=float, default=1.0,
                       help="rms scale of a plain model" + dflt)
        p.add_argument("--config", help="JSON file whose keys mirror the flags; flags win")

    def add_output_flags(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="output format" + dflt)
        p.add_argument("--out", help="output path (default stdout)")

    def add_series_flags(p, note="", degree="--use-gross degree n"):
        p.add_argument("--series-n", type=int, default=SeriesConfig.max_terms,
                       help=degree + dflt + note)
        p.add_argument("--series-rel-tol", type=float, default=SeriesConfig.rel_tol,
                       help="series stopping tolerance" + dflt + note)

    def add_eval_flags(p):
        p.add_argument("--grid", default="0.01:4:200", help="grid as min:max:points" + dflt)
        add_output_flags(p)
        pdf_only = "; sets the pdf route and leaves a composite cdf unchanged"
        add_series_flags(p, pdf_only)
        p.add_argument("--use-gross", action="store_true",
                       help="use the degree-n polynomial Bessel weights" + pdf_only)
        p.add_argument("--oracle", action="store_true",
                       help="force the mixture-quadrature routes for composites: "
                       "mixture_pdf, and mixture_cdf for a composite cdf")

    p_pdf = sub.add_parser("pdf", help="evaluate a density on a grid")
    add_model_flags(p_pdf)
    add_eval_flags(p_pdf)

    p_cdf = sub.add_parser("cdf", help="evaluate a distribution function on a grid")
    add_model_flags(p_cdf)
    add_eval_flags(p_cdf)

    p_mom = sub.add_parser("moments", help="closed-form vs quadrature moments")
    add_model_flags(p_mom)
    p_mom.add_argument("--orders", default="0,1,2,3,4",
                       help="comma-separated moment orders" + dflt)
    add_output_flags(p_mom)
    p_mom.add_argument("--strict", action="store_true",
                       help="exit 1 when any relative difference exceeds "
                       f"{validation.MOMENT_REL_TOL:g}")

    p_fig = sub.add_parser("figure", help="emit a standard figure's curve family")
    p_fig.add_argument("figure_id", type=int, choices=figures.FIGURE_IDS)
    p_fig.add_argument("--out-dir", default=".", help="directory for the curve files" + dflt)
    p_fig.add_argument("--format", choices=("csv", "json"), default="json",
                       help="output format" + dflt)
    p_fig.add_argument("--grid", default="0.01:4:200", help="grid as min:max:points" + dflt)
    p_fig.add_argument("--series-n", type=int, default=160,
                       help="use_gross degree, metadata only" + dflt)

    p_samp = sub.add_parser("sample", help="draw reproducible samples and run gof")
    add_model_flags(p_samp)
    p_samp.add_argument("--count", type=int, default=100_000, help="number of samples" + dflt)
    p_samp.add_argument("--seed", type=int, default=1, help="random seed" + dflt)
    add_series_flags(p_samp, degree="accepted and unused, as sample has no --use-gross")
    p_samp.add_argument("--out", default="samples.txt",
                        help="sample file, one value per line" + dflt)
    p_samp.add_argument("--report", help="gof report path (default stdout)")
    p_samp.add_argument("--strict", action="store_true", help="exit 1 when the gof check fails")

    p_val = sub.add_parser("validate", help="run the validation suite")
    p_val.add_argument("--level", choices=("quick", "full"), default="quick",
                       help="suite size" + dflt)
    p_val.add_argument("--report", help="JSON report path (default stdout)")

    return parser


def _config_tokens(path: str) -> list:
    """The entries of a --config file as flag tokens: ``--key=value``, a
    bare switch for ``true``, nothing for ``null`` or ``false``."""
    try:
        with open(path) as fh:
            loaded = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}")
    if not isinstance(loaded, dict):
        raise UsageError("config file must contain a JSON object")
    tokens = []
    for key, value in loaded.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            tokens.append(flag)
        elif value is not None and value is not False:  # not `in`: 0 == False, and 0 is a value
            tokens.append(f"{flag}={value}")
    return tokens


def _params(family, settings: dict):
    values = []
    for name in family.fields:
        value = settings[name]
        if value is None:
            raise UsageError(f"missing required parameter --{name}")
        values.append(value)
    return family.params(*values)


def _build_model(args: argparse.Namespace):
    """The model that --model and the parameter flags name, and whether it
    is a composite."""
    name, settings = args.model, vars(args)
    if name is None:
        raise UsageError("missing required flag --model")
    if name in _ALPHA_TWO_ALIASES:
        if args.alpha not in (None, 2.0):
            raise UsageError(f"{name} fixes alpha = 2; drop --alpha or pass 2")
        settings = dict(settings, alpha=2.0)
        name = _ALPHA_TWO_ALIASES[name]
    family = FAMILIES[name.removesuffix(_COMPOSITE_SUFFIX)]
    try:
        if family.name == name:
            return _params(family, settings), False
        shadow = _params(SHADOW, settings)
        return CompositeModel(_params(family, settings), shadow), True
    except DomainError as exc:
        raise UsageError(str(exc))


def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo_s, hi_s, n_s = spec.split(":")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError:
        raise UsageError(f"grid must be min:max:points, got {spec!r}")
    if not (lo < hi and n >= 2):
        raise UsageError("grid requires min < max and points >= 2")
    return np.linspace(lo, hi, n)


def _rhat(args: argparse.Namespace) -> float:
    return ScaledEnvelope(args.rhat).rhat


def _density_for(model, is_composite: bool, args, series_cfg: SeriesConfig, oracle: bool):
    if is_composite:
        return composite.composite_density(model, series_cfg, oracle=oracle)
    return composite.plain_density(model, _rhat(args))


_SPEC = ".17g"


def _fmt(value: float) -> str:
    return format(value, _SPEC)


@cache
def _exponent_table() -> tuple:
    # Per decimal exponent e in -252..252, exactly from Python ints: the least
    # double >= 10**e and 10**(16 - e) as its double's Dekker halves (2**27 + 1
    # splits: numpy has no fma) plus the rest; then e's line in a 32-byte slot:
    # prefix ("0.00" or the dot), digits kept before the dot, suffix ("e+XX\n"
    # or "\n") as words, the digits' shift in bytes and the dot's place.
    scale, layout = [], []
    for e in range(-252, 253):
        num, den = 10 ** max(16 - e, 0), 10 ** max(e - 16, 0)
        hi, (a, b) = num / den, (num / den).as_integer_ratio()
        big = hi * 134217729.0 - (hi * 134217729.0 - hi)
        edge, (c, d) = float(f"1e{e}"), float(f"1e{e}").as_integer_ratio()  # the nearest
        edge += math.ulp(edge) * (c * 10 ** -min(e, 0) < d * 10 ** max(e, 0))  # or the next
        scale.append((edge, big, hi - big, (num * b - a * den) / (den * b)))
        dot = 0 if -4 <= e < 0 else e + 1 if 0 <= e <= 16 else 1
        prefix = b"0." + b"0" * (-e - 1) if dot == 0 else b"\0" * dot + b"."
        suffix = b"\n" if -4 <= e <= 16 else b"e%+03d\n" % e
        text = prefix.ljust(24, b"\0") + (b"\xff" * dot).ljust(24, b"\0") + suffix.ljust(8, b"\0")
        layout.append((*np.frombuffer(text, np.uint64), 1 - e if dot == 0 else 1, dot))
    return np.array(scale).T.copy(), np.array(layout, np.uint64).T.copy()


def _line_bytes(x: np.ndarray) -> bytes:
    # The lines of x in 32-byte slots, NUL where blank. Numpy passes write x in [1e-250, 1e250]
    # unless its remainder is within 1e-6 of a half; the rest take _fmt's format, space-padded.
    fast = (x >= 1e-250) & (x <= 1e250)
    xs = np.where(fast, x, 1.0)
    e = np.floor(np.log10(xs)).astype(np.int64)
    scale, layout = _exponent_table()
    e = e - (xs < scale[0, e + 252]) + (xs >= scale[0, e + 253])  # log10 may be one off
    big, small, rest = scale[1:].take(e + 252, axis=1)
    xb = xs * 134217729.0 - (xs * 134217729.0 - xs)  # x's Dekker halves: xb, xs - xb
    p = xs * (big + small)  # p + t = x 10**(16 - e) by Dekker's exact product
    t = (((xb * big - p) + xb * small) + (xs - xb) * big) + (xs - xb) * small + xs * rest
    floor = np.floor(t)
    t -= floor
    n = p.astype(np.int64) + floor.astype(np.int64) + (t > 0.5)
    e += n == 10**17  # a carry: the double just below 10**-14 is written 1e-14
    n = np.where(n == 10**17, 10**16, n).astype(np.uint64)
    mid, low = n // 10**8 % 10**8, n % 10**8
    for v in (mid, low):  # 8 digits a word in place, the first in the low byte
        top = (v * 3518437209) >> 45
        v[:] = top | (v - top * 10000) << 32
        top = ((v * 10486) >> 20) & 0x0000007F0000007F
        v[:] = top | (v - 100 * top) << 16
        top = ((v * 103) >> 10) & 0x000F000F000F000F
        v[:] = top | (v - 10 * top) << 8
    # Digits to the last nonzero one; bytes <= 9 keep frexp's bit length of a word exact.
    used = np.where(low != 0, 10, 2) + (np.frexp(np.where(low != 0, low, mid))[1] - 1) // 8
    digits = (n // 10**16 | mid << 8, mid >> 56 | low << 8, low >> 56)
    layout = layout.take(e + 252, axis=1)
    shift, dot = layout[7:].astype(np.int64)
    width = np.where(used > dot, used + shift, dot)  # the bytes before the suffix
    slots = np.empty((x.size, 4), np.uint64)
    slots[:, 3], spill, shift = layout[6], 0, (8 * shift).astype(np.uint64)
    for w, g in enumerate(d | 0x3030303030303030 for d in digits):
        moved = g & ~layout[3 + w]  # the digits after the dot
        inside = ~(~np.uint64(0) << (8 * np.clip(width - 8 * w, 0, 8)).astype(np.uint64))
        slots[:, w] = (g & layout[3 + w] | moved << shift | spill | layout[w]) & inside
        spill = moved >> (64 - shift)
    slow = ~fast | (abs(t - 0.5) < 1e-6)
    if slow.any():
        text = (f"%-31{_SPEC}\n" * slow.sum()) % tuple(x[slow].tolist())
        slots[slow] = np.frombuffer(text.encode(), np.uint64).reshape(-1, 4)
    return slots.tobytes().translate(None, b"\0 ")


def _sample_text(values: np.ndarray) -> str:
    # One value a line as _fmt writes it, in exact numpy passes over 2**14.
    blocks = (values[i : i + 2**14] for i in range(0, values.size, 2**14))
    return b"".join(map(_line_bytes, blocks)).decode()


def _unwritable(path, exc: OSError) -> UsageError:
    return UsageError(f"cannot write {str(path)!r}: {exc.strerror or exc}")


def _write_text(path, text: str) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise _unwritable(path, exc) from exc


def _curve_payload(model_desc, xs, values, atoms, metadata) -> dict:
    return {
        "model": json.loads(model_desc),
        "abscissae": [float(x) for x in xs],
        "values": [float(v) for v in values],
        "atoms": [[float(a), float(m)] for a, m in atoms],
        "metadata": metadata,
    }


def _emit_curve(payload: dict, fmt: str, out) -> None:
    if fmt == "json":
        _write_text(out, json.dumps(payload, indent=2) + "\n")
        return
    lines = ["x,value"]
    for x, v in zip(payload["abscissae"], payload["values"]):
        lines.append(f"{_fmt(x)},{_fmt(v)}")
    for loc, mass in payload["atoms"]:
        lines.append(f"#atom,{_fmt(loc)},{_fmt(mass)}")
    for key, value in sorted(payload["metadata"].items()):
        if isinstance(value, (int, float, str)):
            lines.append(f"#meta,{key},{value}")
    _write_text(out, "\n".join(lines) + "\n")


def _base_metadata(series_cfg: SeriesConfig, oracle: bool) -> dict:
    return {
        "tool_version": __version__,
        "series_max_terms": series_cfg.max_terms,
        "series_rel_tol": series_cfg.rel_tol,
        "use_gross": series_cfg.use_gross,
        "route": "mixture-oracle" if oracle else "series-or-exact",
    }


def cmd_curve(args: argparse.Namespace, cdf: bool) -> int:
    # The body of ``pdf`` and ``cdf``: they differ in the value at each point
    # and in the atom trailer, which a cdf value already holds.
    model, is_composite = _build_model(args)
    xs = _parse_grid(args.grid)
    series_cfg = SeriesConfig(args.series_n, args.series_rel_tol, args.use_gross)
    metadata = _base_metadata(series_cfg, args.oracle and is_composite)
    if not cdf:
        density = _density_for(model, is_composite, args, series_cfg, args.oracle)
        values, atoms = density.values(xs), density.atoms
    elif is_composite:  # the series flags set the pdf route only
        values, atoms = composite.composite_cdf(model, xs, oracle=args.oracle), ()
        metadata["route"] = "mixture-cdf" if args.oracle else "multipath-average"
    else:
        values, atoms = composite.family_of(model).cdf(model, xs, _rhat(args)), ()
    payload = _curve_payload(mc.model_descriptor(model), xs, values, atoms, metadata)
    _emit_curve(payload, args.format, args.out)
    return 0


def cmd_moments(args: argparse.Namespace) -> int:
    model, _ = _build_model(args)
    if not isinstance(model, AkmParams):
        raise UsageError("moments requires the plain akm model")
    try:
        orders = [float(tok) for tok in args.orders.split(",")]
    except ValueError:
        raise UsageError(f"cannot parse --orders {args.orders!r}")
    rows = validation._moment_rows(model, orders)
    if args.format == "json":
        payload = {
            "model": json.loads(mc.model_descriptor(model)),
            "rows": [
                {"order": o, "closed_form": c, "quadrature": q, "rel_diff": r}
                for o, c, q, r in rows
            ],
        }
        _write_text(args.out, json.dumps(payload, indent=2) + "\n")
    else:
        lines = ["l,closed_form,quadrature,rel_diff"]
        for o, c, q, r in rows:
            lines.append(f"{_fmt(o)},{_fmt(c)},{_fmt(q)},{_fmt(r)}")
        _write_text(args.out, "\n".join(lines) + "\n")
    tol = validation.MOMENT_REL_TOL
    bad = [r for *_, r in rows if not r <= tol]  # a NaN is bad too
    if args.strict and bad:
        raise ValidationFailure(f"moment rel_diff {bad[0]:.3e} is not within {tol:g}")
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    figure_id, fmt = args.figure_id, args.format
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _unwritable(out_dir, exc) from exc
    xs = _parse_grid(args.grid)
    series_cfg = SeriesConfig(max_terms=args.series_n, rel_tol=1e-9)
    paths = []
    for curve in figures.figure_curves(figure_id):
        model = curve["model"]
        density = composite.composite_density(model, series_cfg)
        values = density.values(xs)
        mass = models._certified_mass(density, model.shadow)
        metadata = _base_metadata(series_cfg, oracle=False)
        metadata.update(
            {
                "figure": figure_id,
                "fixed_parameters": curve["fixed"],
                "swept_parameter": curve["swept"],
                "sweep_defaults": {
                    "alpha": list(figures.ALPHA_SWEEP),
                    "mu": list(figures.MU_SWEEP),
                },
                "total_mass": mass,
            }
        )
        payload = _curve_payload(mc.model_descriptor(model), xs, values, density.atoms, metadata)
        key, value = next(iter(curve["swept"].items()))
        path = out_dir / f"figure{figure_id}_{key}_{value:g}.{fmt}"
        _emit_curve(payload, fmt, str(path))
        paths.append(str(path))
    sys.stdout.write("\n".join(paths) + "\n")
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    model, is_composite = _build_model(args)
    count, seed, out = args.count, args.seed, args.out
    series_cfg = SeriesConfig(args.series_n, args.series_rel_tol)

    sample = mc.sample_composite if is_composite else mc.sample_plain
    batch = sample(model, count, seed)

    _write_text(out, _sample_text(batch.values))

    density = _density_for(model, is_composite, args, series_cfg, oracle=False)
    grid_points = 1200 if is_composite else 2000
    report = mc.gof_compare(batch, density, grid_points=grid_points)
    critical = report.ks_critical
    gof_ok = math.isnan(report.ks_statistic) or report.ks_statistic <= critical
    payload = {
        "model": json.loads(batch.model_descriptor),
        "seed": seed,
        "count": count,
        "sample_file": out,
        "ks_statistic": report.ks_statistic,
        "ks_critical_0_001": critical,
        "atom_frequency_observed": report.atom_frequency_observed,
        "atom_mass_expected": report.atom_mass_expected,
        "passed": bool(gof_ok),
    }
    _write_text(args.report, json.dumps(payload, indent=2) + "\n")
    if args.strict and not gof_ok:
        raise ValidationFailure(f"gof failed: ks={report.ks_statistic:.4g} > {critical:.4g}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    report = validation.run_validation(args.level)
    _write_text(args.report, json.dumps(report, indent=2) + "\n")
    if not report["passed"]:
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        raise ValidationFailure("failed checks: " + ", ".join(failed))
    return 0


_COMMANDS = {
    "pdf": lambda args: cmd_curve(args, cdf=False),
    "cdf": lambda args: cmd_curve(args, cdf=True),
    "moments": cmd_moments,
    "figure": cmd_figure,
    "sample": cmd_sample,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            # The file's flags go right after the command name, so the
            # user's own flags, parsed later, win.
            args = parser.parse_args(argv[:1] + _config_tokens(args.config) + argv[1:])
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except NonConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 1
    except ValidationFailure as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
