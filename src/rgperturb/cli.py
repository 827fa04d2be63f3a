"""Command-line front end: expand | rg | verify | simulate.

Exit codes: 0 success; 1 at least one check failed; 2 bad spec or usage;
3 polar pairing violation; 4 numeric overflow.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import random
import sys
from math import gcd

from .gaussrat import GaussianRational
from .poly import MultiPoly, HarmonicSeries, PolyContext, PolyError
from .systems import SpecError, check_order, parse_spec
from .engine import expand_table, make_context
from .renorm import (
    inversion_series,
    renormalized_amplitudes,
    polar_transform,
    solve_rg,
    PolarPairingError,
)
from .checks import run_all_checks, random_spec, corrupt_table
from .numeric import (
    NumericOverflowError,
    simulate_conjugate_pair,
    emit_csv,
    emit_svg,
)
from . import demos
from . import difference as diffmod


# --------------------------------------------------------------------------
# Machine-format serialization (round-trips exactly)
# --------------------------------------------------------------------------

_encode_str = json.encoder.encode_basestring_ascii


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x in (math.inf, -math.inf):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


def _json_into(v, nl: str, out: list) -> None:
    """Append the text of v to `out`; nl is a newline and v's indentation."""
    if isinstance(v, str):
        out.append(_encode_str(v))
    elif v is None or v is True or v is False:
        out.append("null" if v is None else "true" if v else "false")
    elif isinstance(v, int):
        out.append(int.__repr__(v))
    elif isinstance(v, float):
        out.append(_float_text(v))
    elif isinstance(v, (list, tuple)):
        if not v:
            out.append("[]")
            return
        inner = nl + "  "
        if all(type(x) is int for x in v):
            out.append(f"[{inner}{(',' + inner).join(map(int.__repr__, v))}{nl}]")
            return
        if all(type(x) is str for x in v):
            out.append(f"[{inner}{(',' + inner).join(map(_encode_str, v))}{nl}]")
            return
        sep = "[" + inner
        for x in v:
            out.append(sep)
            _json_into(x, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(v, dict):
        if not v:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k, x in v.items():
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            out.append(f"{sep}{_encode_str(k)}: ")
            _json_into(x, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(v, MultiPoly):
        _poly_into(v, nl, out)
    else:
        raise TypeError(f"{type(v).__name__} is not JSON serializable")


def _poly_into(p: MultiPoly, nl: str, out: list) -> None:
    """Append the text of p as a list of terms, each one %-format.

    A term is [[e_1, ..., e_n], [re, im]] in `sorted_terms` order, with
    n = ctx.nvars exponents and the real and imaginary parts as the strings
    of their fractions (digits, '-' and '/', which JSON writes as they
    are); at one indentation its layout is fixed.
    """
    terms = p.sorted_terms()
    if not terms:
        out.append("[]")
        return
    t = nl + "  "           # a term's line
    a, b = t + "  ", t + "    "  # its two lists, and their items
    fmt = f"[{a}[{b}{(',' + b).join(['%d'] * p.ctx.nvars)}{a}],{a}[{b}\"%s\",{b}\"%s\"{a}]{t}]"
    out.append("[" + t + ("," + t).join([fmt % (*e, _ratio_text(c.a, c.d), _ratio_text(c.b, c.d))
                                         for e, c in terms]) + nl + "]")


def machine_json(doc) -> str:
    """json.dumps(doc, indent=2), byte for byte, written directly.

    The standard encoder runs its pure-Python generators whenever an
    indent is set; this writer appends each value's text to one list, and
    a list of ints or of strings (an exponent vector, a coefficient pair)
    as one join.  A MultiPoly is written as its list of terms, each term
    as one %-format (`_poly_into`).  Dict keys must be strings.
    """
    out = []
    _json_into(doc, "\n", out)
    return "".join(out)


def _ratio_text(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0, with one gcd."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def poly_from_data(ctx: PolyContext, data) -> MultiPoly:
    from fractions import Fraction

    terms = {}
    for exps, (re, im) in data:
        terms[tuple(exps)] = GaussianRational(Fraction(re), Fraction(im))
    return ctx.from_terms(terms)


def table_to_machine(table) -> dict:
    """The machine document of a table; its entries are written by `machine_json`."""
    return {
        "kind": "secular_table",
        "spec": table.spec.to_document(),
        "order": table.ctx.order,
        "resonant": [[j + 1, m] for j, m in table.resonant],
        "components": [
            [[m, p] for m, p in sorted(comp.entries.items())]
            for comp in table.components
        ],
    }


def table_from_machine(text: str):
    doc = json.loads(text)
    if doc.get("kind") != "secular_table":
        raise SpecError("not a machine-format secular table")
    spec = parse_spec(json.dumps(doc["spec"]))
    ctx = make_context(spec)
    comps = [
        HarmonicSeries(ctx, {m: poly_from_data(ctx, data) for m, data in entries})
        for entries in doc["components"]
    ]
    return spec, ctx, comps


def rg_to_machine(spec, rg) -> dict:
    """The machine document of an RG system; its fields are written by `machine_json`."""
    return {
        "kind": "rg_system",
        "spec": spec.to_document(),
        "order": rg.ctx.order,
        "amplitudes": "renormalized",
        "fields": [[name, f] for name, f in zip(rg.ctx.amplitudes, rg.fields)],
    }


def rg_from_machine(text: str):
    from .renorm import RGSystem

    doc = json.loads(text)
    if doc.get("kind") != "rg_system":
        raise SpecError("not a machine-format RG system")
    spec = parse_spec(json.dumps(doc["spec"]))
    ctx = make_context(spec)
    fields = []
    for name, data in doc["fields"]:
        if name not in ctx.amplitudes:
            raise SpecError(f"unknown amplitude {name!r} in machine input")
        fields.append(poly_from_data(ctx, data))
    factors = spec.factors if spec.klass == "scalar" else ()
    return spec, RGSystem(ctx, fields, factors)


# --------------------------------------------------------------------------
# Input resolution
# --------------------------------------------------------------------------

def load_spec(args) -> tuple:
    """Returns (spec, label); enforces exactly one input source.

    `--order` replaces the truncation order of a spec file after one parse:
    nothing else in a spec depends on the order.
    """
    builtin = getattr(args, "builtin", None)
    path = getattr(args, "spec", None)
    if builtin and path:
        raise SpecError("give either --builtin or --spec, not both")
    if builtin:
        return demos.load_builtin(builtin, args.order), builtin
    if path:
        with open(path) as fh:
            spec = parse_spec(fh.read())
        if args.order is not None:
            spec = dataclasses.replace(spec, order=check_order(args.order))
        return spec, os.path.basename(path)
    raise SpecError("an input is required: --builtin NAME or --spec PATH")


def _notes_for(label):
    return demos.NOTES.get(label, ())


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def cmd_expand(args) -> int:
    spec, label = load_spec(args)
    if spec.klass == "difference":
        u2 = diffmod.LaurentPoly(spec.alpha)
        K, W = spec.order, spec.window
        band = diffmod.window_band(u2, K, W)
        ctx = diffmod.make_context(K, W)
        gk = diffmod.gk_poly(K)
        entries = [
            (m, diffmod.secular_windowed(u2, m, K, W, ctx, gk))
            for m in range(-band, band + 1)
        ]
        if args.format == "machine":
            payload = {
                "kind": "difference_table",
                "spec": spec.to_document(),
                "order": K,
                "band": band,
                "entries": entries,
            }
            print(machine_json(payload))
            return 0
        print(f"# difference equation, order {K}, window {W} (t measured in units of pi)")
        for m, p in entries:
            print(f"P[{m}] = {p.render()}")
        return 0

    table = expand_table(spec, label=label)
    if args.format == "machine":
        print(machine_json(table_to_machine(table)))
        return 0
    print(f"# {label}: class {spec.klass}, order {spec.order}")
    for note in _notes_for(label):
        print(f"# {note}")
    print(table.render())
    return 0


def _parse_pairs(src: str):
    pairs = []
    for chunk in src.split(","):
        a, _, b = chunk.partition(":")
        try:
            pairs.append((int(a) - 1, int(b) - 1))
        except ValueError:
            raise SpecError(
                f"--polar expects P:Q[,P:Q] with integer indices, got {chunk!r}"
            ) from None
    return pairs


def cmd_rg(args) -> int:
    if args.format == "machine" and (args.polar is not None or args.expansion or args.inversion):
        raise SpecError("--polar/--expansion/--inversion are text-format only")
    spec, label = load_spec(args)
    if spec.klass == "difference":
        u2 = diffmod.LaurentPoly(spec.alpha)
        ctx = diffmod.make_context(spec.order, spec.window)
        theta = diffmod.theta_series(u2, spec.order, ctx)
        print(f"# {label}: amplitude flow  dA(zeta,t)/dt = (Theta(eps,zeta)/pi) * A(-zeta,t)")
        for l in theta.series.support():
            print(f"Theta[z^{l}] = {theta.series.entries[l].render()}")
        return 0
    rg, ren = solve_rg(spec)
    if args.format == "machine":
        print(machine_json(rg_to_machine(spec, rg)))
        return 0
    # a bad --polar must fail before any of the RG equation is printed
    polar = polar_transform(rg, _parse_pairs(args.polar)) if args.polar else None
    print(f"# {label}: RG equation (amplitudes are renormalized)")
    for note in _notes_for(label):
        print(f"# {note}")
    print(rg.render())
    if spec.klass == "scalar":
        for name, n, rhs in rg.scalar_forms():
            print(f"d^{n}{name}/dt^{n} = {rhs.render()}")
    if polar is not None:
        print("# polar form")
        print(polar.render())
    if args.expansion:
        print(ren.render())
    if args.inversion:
        print("# inversion: bare amplitudes in terms of renormalized ones")
        for name, p in inversion_series(rg).items():
            print(f"{name}_bare = {p.render()}")
    return 0


def _numeric_smoke(table, rng) -> tuple:
    """Redundant numeric spot-check of the functional relation.

    The identity holds mod eps^(K+1), so the numeric composition of the
    truncated polynomials leaves exactly the truncation tail: halving eps
    must shrink the residual by about 2^(K+1).  A genuine defect enters at
    some order <= K and scales more slowly.  Large tail coefficients can hold
    the ratio at (0.2, 0.1) under the bar, so the spec also passes when the
    ratio at (0.1, 0.05) clears the same bar; a defect stays under it at
    every small eps.  Returns the verdict and the text of what it measured:
    the residual at eps=0.2 when it is under the floor, else each ratio it
    computed and the bar.
    """
    ctx = table.ctx
    point = {name: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
             for name in ctx.amplitudes}
    for name in ctx.params:
        point[name] = complex(rng.uniform(-1, 1), 0.0)
    t0, s0 = 0.7, 0.3
    amps = renormalized_amplitudes(table)

    def residual(eps0):
        renpoint = {
            name: amps[name].eval_complex({**point, "eps": eps0, "t": s0})
            for name in ctx.amplitudes
        }
        for name in ctx.params:
            renpoint[name] = point[name]
        worst = 0.0
        for comp in table.observed_components():
            for m, p in comp.entries.items():
                lhs = p.eval_complex({**point, "eps": eps0, "t": t0})
                rhs = p.eval_complex({**renpoint, "eps": eps0, "t": t0 - s0})
                worst = max(worst, abs(lhs - rhs))
        return worst

    floor = 1e-9
    d1, d2 = residual(0.2), residual(0.1)
    if d1 < floor:
        return True, f"d(0.2)={d1:.4g} floor={floor:g}"
    bar = 0.6 * 2 ** (ctx.order + 1)
    r1 = d1 / max(d2, 1e-300)
    shown = f"d(0.2)/d(0.1)={r1:.4g}"
    if r1 > bar:
        return True, f"{shown} bar={bar:g}"
    r2 = d2 / max(residual(0.05), 1e-300)
    return r2 > bar, f"{shown} d(0.1)/d(0.05)={r2:.4g} bar={bar:g}"


def cmd_verify(args) -> int:
    if not math.isfinite(args.eps):
        raise SpecError(f"--eps must be finite, got {args.eps}")
    if args.random and (args.builtin or args.spec):
        raise SpecError("give either --random or an input (--builtin/--spec), not both")
    if args.random:
        seed = args.seed if args.seed is not None else 0
        spec = random_spec(args.random, seed, args.order)
        label = f"random-{args.random}-{seed}"
    else:
        spec, label = load_spec(args)

    if spec.klass == "difference":
        u2 = diffmod.LaurentPoly(spec.alpha)
        reports = diffmod.check_difference_identities(u2, spec.order, spec.window, label)
        flag = diffmod.stability_flag(u2, args.eps)
        for r in reports:
            print(r.line())
        print(
            f"INFO stability eps={flag['eps']}: Theta purely imaginary: "
            f"{flag['theta_purely_imaginary']}; |eps U| <= 1: {flag['eps_u_bounded_by_one']}"
        )
        return 0 if all(r.ok for r in reports) else 1

    table = expand_table(spec, label=label)
    if args.corrupt:
        table = corrupt_table(table)
    seed = args.seed if args.seed is not None else 0
    reports = run_all_checks(table, seed=seed)
    exact_ok = all(r.ok for r in reports)
    for r in reports:
        print(r.line())
        if r.applicable and not r.passed:
            detail = {"check": r.name, "spec": r.spec_id, "order": r.order,
                      "seed": r.seed, "detail": r.detail}
            print(json.dumps(detail))
    smoke = f"numeric_smoke [{table.label} K={table.order}]"
    if not exact_ok:
        # the exact checks already decide the exit code; a spot check of an
        # identity known to fail has no verdict to add
        print(f"SKIP {smoke} :: exact checks failed")
        return 1
    try:
        smoke_ok, smoke_detail = _numeric_smoke(table, random.Random(seed))
    except OverflowError:
        # the exact checks passed and decide the exit code
        print(f"SKIP {smoke} :: a coefficient is outside the floating-point range")
        return 0
    print(f"{'PASS' if smoke_ok else 'FAIL'} {smoke} {smoke_detail}")
    return 0 if smoke_ok else 1


def _check_simulate_numbers(args) -> None:
    """Reject simulate settings that cannot describe an integration run."""
    for name in ("dt", "t_end"):
        v = getattr(args, name)
        if not (math.isfinite(v) and v > 0):
            raise SpecError(f"--{name.replace('_', '-')} must be positive and finite, got {v}")
    for name in ("eps", "r0", "theta0"):
        v = getattr(args, name)
        if not math.isfinite(v):
            raise SpecError(f"--{name} must be finite, got {v}")
    for name in ("rg_order", "ren_order"):
        v = getattr(args, name)
        if v < 0:
            raise SpecError(f"--{name.replace('_', '-')} must be >= 0, got {v}")


def cmd_simulate(args) -> int:
    _check_simulate_numbers(args)
    if not args.builtin and not args.spec:
        args.builtin = "ex_cd"
    spec, label = load_spec(args)
    result = simulate_conjugate_pair(
        spec, args.eps, args.r0, args.theta0,
        t_end=args.t_end, dt=args.dt,
        rg_order=args.rg_order, ren_order=args.ren_order,
    )
    # only now: a spec the pipeline rejects leaves no empty directory behind
    outdir = args.out_dir
    if outdir is None:
        outdir = os.environ.get("RGPERTURB_OUT", ".")
    os.makedirs(outdir, exist_ok=True)
    direct = result["direct"]
    polar = result["polar"]
    recon = result["reconstruction"]
    emit_csv(direct, os.path.join(outdir, f"{label}_direct.csv"))
    emit_csv(polar, os.path.join(outdir, f"{label}_rg_polar.csv"))
    emit_csv(recon, os.path.join(outdir, f"{label}_reconstruction.csv"))
    ts = direct.times
    re_y1 = [z.real for z in direct.component(0)]
    emit_svg(
        [("Re y1", ts, re_y1),
         ("Im y1", ts, [z.imag for z in direct.component(0)])],
        os.path.join(outdir, f"{label}_direct.svg"),
        title=f"direct integration, eps={args.eps}",
    )
    emit_svg(
        [("R", ts, [z.real for z in polar.component(0)]),
         ("theta", ts, [z.real for z in polar.component(1)])],
        os.path.join(outdir, f"{label}_rg.svg"),
        title=f"RG flow (order eps^{args.rg_order})",
    )
    emit_svg(
        [("Re y1 (direct)", ts, re_y1),
         ("Re Y1 (reconstruction)", ts, [z.real for z in recon.component(0)])],
        os.path.join(outdir, f"{label}_overlay.svg"),
        title=f"reconstruction overlay, eps={args.eps}",
    )
    print(f"initial y1 = {result['initial_state'][0]:.6f}")
    print(f"conjugate deviation sup|y2 - conj(y1)| = {result['conjugate_deviation']:.3e}")
    print(f"reconstruction deviation sup|Re y1 - Re Y1| = {result['reconstruction_deviation']:.3e}")
    print(f"artifacts written to {outdir}")
    return 0


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rgperturb",
        description="Renormalization-group perturbation engine for ODEs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, fmt=True):
        sp.add_argument("--builtin", choices=demos.builtin_names(),
                        help="built-in demonstration system")
        sp.add_argument("--spec", metavar="PATH", help="spec document (JSON)")
        sp.add_argument("--order", type=int, help="override the truncation order")
        if fmt:
            sp.add_argument("--format", choices=("text", "machine"), default="text")

    sp = sub.add_parser("expand", help="print the secular-coefficient table")
    common(sp)
    sp.set_defaults(func=cmd_expand)

    sp = sub.add_parser("rg", help="derive the RG equation and related objects")
    common(sp)
    sp.add_argument("--polar", metavar="P:Q[,P:Q]",
                    help="conjugate pairing, 1-based amplitude indices")
    sp.add_argument("--expansion", action="store_true",
                    help="also print the renormalized expansion")
    sp.add_argument("--inversion", action="store_true",
                    help="also print the bare-amplitude inversion")
    sp.set_defaults(func=cmd_rg)

    sp = sub.add_parser("verify", help="run the identity checks")
    common(sp, fmt=False)
    sp.add_argument("--random", choices=("semisimple", "nilpotent", "scalar"),
                    help="check a seeded random spec instead of an input")
    sp.add_argument("--seed", type=int, help="seed for randomized checks")
    sp.add_argument("--corrupt", action="store_true",
                    help="negative control: perturb one coefficient first")
    sp.add_argument("--eps", type=float, default=0.25,
                    help="eps for the difference-class stability report")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("simulate", help="direct vs RG-reconstructed integration")
    common(sp, fmt=False)
    sp.add_argument("--eps", type=float, default=0.25)
    sp.add_argument("--r0", type=float, default=1.3)
    sp.add_argument("--theta0", type=float, default=2.1)
    sp.add_argument("--t-end", type=float, default=40.0)
    sp.add_argument("--dt", type=float, default=0.01)
    sp.add_argument("--rg-order", type=int, default=4)
    sp.add_argument("--ren-order", type=int, default=2)
    # default: $RGPERTURB_OUT, read when the command runs, else "."
    sp.add_argument("--out-dir")
    sp.set_defaults(func=cmd_simulate)
    return parser


# built once per process: main() runs once per job of a batch
_parser = functools.cache(build_parser)


# exact results are printed in full: lift the cap on int -> str digits
# (Python 3.10.7 and later) while a command runs
_get_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)
_set_digits = getattr(sys, "set_int_max_str_digits", lambda n: None)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    digits = _get_digits()
    _set_digits(0)
    try:
        return args.func(args)
    # PolyError: an exponent past poly.MAX_EXP, which its message names
    except (SpecError, PolyError, OSError, json.JSONDecodeError, diffmod.WindowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PolarPairingError as exc:
        print(f"error: polar pairing: {exc}", file=sys.stderr)
        return 3
    except NumericOverflowError as exc:
        print(f"error: numeric overflow: {exc}", file=sys.stderr)
        return 4
    finally:
        _set_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
