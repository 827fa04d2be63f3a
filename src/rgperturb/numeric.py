"""Fixed-step numerics: direct integration, RG integration, reconstruction.

Classical RK4 with a fixed step everywhere -- determinism and bit-reproducible
CSVs matter more than efficiency at this scale.  The state is a list of
Python complex, every field takes and returns a list, and a trajectory is a
list of times and a list of rows.  The RK4 loop is generated for the state's
dimension on every call, each component a local; each stage is computed
element by element in one fixed order (``y + (dt/2)*a``, ``y + (dt/6)*(a +
2*b + 2*c + d)``), and the time grid is ``t0 + dt*k``; the golden trajectory
digests pin both.  The field is still called four times per step with a list.

Python's ``complex ** int`` and ``float ** int`` raise OverflowError instead
of giving inf.  The RK4 step, the initial state of the conjugate-pair
pipeline and ``reconstruct`` turn it into ``NumericOverflowError`` naming
the time whose state it would have spoiled, the same message a non-finite
state gets; an initial state that is already non-finite is reported at t0.

Every numeric field -- the direct equation (linear part and forcing), the
complex and polar RG fields and the reconstruction, which at t = 0 also gives
the initial state -- is compiled once, before its integration, into one
generated straight-line Python function (`_StraightLine`).  Every sum over
the engine's output runs in one fixed order that no table insertion order
can move: a polynomial's terms in ``MultiPoly.sorted_terms()`` order, a
polar series' terms in the order of their keys, and a reconstruction's
harmonics by |m|, m and -m added together first.  The forcing V is summed in the spec's own order
(harmonic by harmonic, then each polynomial's terms as written), which
comes from the parser, not from the engine.  The generated code does the
same floating-point operations, in the same order and on the same operand
types, as the term-by-term loops it replaced (kept in tests/test_numeric.py
as references), so its output is bit-identical to theirs by construction.

CSV columns are ``t, re_1, im_1, ...`` with 17 significant digits and LF line
endings; SVG output is a dependency-free, self-contained line plot for human
inspection.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .poly import MultiPoly
from .systems import ODESystemSpec, SpecError
from .renorm import COS, RGSystem, RenExpansion, PolarRG, TrigSeries


class NumericOverflowError(RuntimeError):
    pass


@dataclass
class Trajectory:
    times: list    # float
    states: list   # one row (a list of complex) per time

    @property
    def dim(self) -> int:
        return len(self.states[0])

    def component(self, j: int) -> list:
        return [row[j] for row in self.states]


def _non_finite(t: float) -> NumericOverflowError:
    return NumericOverflowError(f"state became non-finite at t={t:.6g}")


def _rk4_loop(n: int):
    """Generated RK4 loop for an n-component state, every stage unrolled.

    Component j is the local yj, with the slopes aj, bj, cj, dj of the four
    calls of f, each made with a list.  The stages ``yj + h2 * aj``,
    ``yj + h2 * bj``, ``yj + dt * cj`` and ``yj + h6 * (aj + 2 * bj + 2 * cj
    + dj)`` are the operations of the list-comprehension loop kept in the
    tests as the reference.
    """
    def each(fmt, sep=", "):
        return sep.join(fmt.format(j) for j in range(n))

    lines = [
        "def rk4_loop(f, row, grid, steps, h2, h6, dt, states):",
        f"    {each('y{}')}, = row",
        "    for i in range(steps):",
        "        t = grid[i]",
        "        th = t + h2",
        "        try:",
        f"            {each('a{}')}, = f(t, row)",
        f"            {each('b{}')}, = f(th, [{each('y{0} + h2 * a{0}')}])",
        f"            {each('c{}')}, = f(th, [{each('y{0} + h2 * b{0}')}])",
        f"            {each('d{}')}, = f(t + dt, [{each('y{0} + dt * c{0}')}])",
        *[f"            y{j} = y{j} + h6 * (a{j} + 2 * b{j} + 2 * c{j} + d{j})"
          for j in range(n)],
        "        except OverflowError:",
        "            # Python's ** raises where it would overflow to inf",
        "            raise _non_finite(grid[i + 1]) from None",
        f"        if not ({each('isfinite(y{})', ' and ')}):",
        "            raise _non_finite(grid[i + 1])",
        f"        row = [{each('y{}')}]",
        "        states.append(row)",
    ]
    source = "\n".join(lines) + "\n"
    env = {"isfinite": cmath.isfinite, "_non_finite": _non_finite}
    exec(compile(source, "<rgperturb.numeric rk4>", "exec"), env)
    return env["rk4_loop"]


def rk4_integrate(f, y0, t0: float, t_end: float, dt: float) -> Trajectory:
    """Classical RK4 on a state held as a list of Python complex.

    f(t, y) takes a list and returns a sequence of complex (or float) values,
    one per component; the loop is generated for the state's dimension.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    n = max(1, int(round((t_end - t0) / dt)))
    y = [complex(v) for v in y0]
    if not y:
        raise ValueError("the state needs at least one component")
    if not all(map(cmath.isfinite, y)):
        raise _non_finite(t0)
    grid = [t0 + dt * k for k in range(n + 1)]
    states = [y]
    _rk4_loop(len(y))(f, y, grid, n, dt / 2, dt / 6, dt, states)
    return Trajectory(grid, states)


# --------------------------------------------------------------------------
# Compiled right-hand sides
# --------------------------------------------------------------------------

# Terms per generated statement.  CPython refuses to compile an expression
# nested about 3000 deep (a sum of that many terms), so longer sums are split.
_CHUNK = 200


class _StraightLine:
    """Builder of one generated function: straight-line sums of products.

    A sum  start + f1*f2*... + g1*g2*... + ...  is emitted as Python source,
    so CPython evaluates it left to right: the floating-point operations, their
    order and their operand types are those of the loop
    ``total = start; for term: v = c; v *= f; ...; total += v``.  Constants
    are bound as globals of the generated code, so every value keeps its exact
    type and bits.  A repeated subexpression (y[j] ** e, e^{imt}, a phase) is
    computed once per call; it is the same operation on the same operands, so
    sharing it changes no bit.
    """

    def __init__(self):
        self.consts = []
        self.names = {}
        self.lines = []

    def const(self, value) -> str:
        self.consts.append(value)
        return f"c{len(self.consts) - 1}"

    def local(self, expr: str) -> str:
        """Name of a local holding expr; a local's own name stands for itself."""
        name = self.names.get(expr)
        if name is None:
            name = f"v{len(self.lines)}"
            self.names[expr] = self.names[name] = name
            self.lines.append(f"{name} = {expr}")
        return name

    def sum(self, start: str, products) -> str:
        """Name of a new local holding start + the products, in order."""
        name = f"s{len(self.lines)}"
        terms = ["*".join(p) for p in products]
        acc = start
        for i in range(0, max(len(terms), 1), _CHUNK):
            self.lines.append(" + ".join([f"{name} = {acc}"] + terms[i:i + _CHUNK]))
            acc = name
        return name

    def harmonic(self, m: int) -> str:
        return self.local(f"complex(math.cos({m} * t), math.sin({m} * t))")

    def power(self, base: str, e: int) -> str:
        return self.local(f"{self.local(base)} ** {e}")

    def function(self, args: str, result: str):
        body = "".join(f"    {ln}\n" for ln in self.lines)
        source = f"def field({args}):\n{body}    return {result}\n"
        env = {f"c{i}": c for i, c in enumerate(self.consts)}
        env["math"] = math
        exec(compile(source, "<rgperturb.numeric field>", "exec"), env)
        return env["field"]


def _vpoly_sums(g: _StraightLine, v_polys, eps: float, param_values: dict) -> list:
    """Emit the forcing series at (t, y); names of their sums.

    Each series is summed harmonic by harmonic, each in insertion order;
    coeff * params * eps**k is folded at build time.
    """
    sums = []
    for vp in v_polys:
        ctx = vp.ctx
        products = []
        for l, p in vp.entries.items():
            for e, c in p.terms.items():
                k_eps, _, _, se, pe = ctx.split(e)
                coeff = complex(c)
                for name, k in zip(ctx.params, pe):
                    coeff *= complex(param_values[name]) ** k
                if k_eps:
                    coeff *= eps ** k_eps
                factors = [g.const(coeff)]
                if l:
                    factors.append(g.harmonic(l))
                factors += [g.power(f"y[{j}]", k) for j, k in enumerate(se) if k]
                products.append(factors)
        sums.append(g.sum("0j", products))
    return sums


def _check_params(spec, params):
    params = dict(params or {})
    missing = [p for p in spec.params if p not in params]
    if missing:
        raise SpecError(f"missing numeric values for parameters {missing}")
    return params


def ode_field(spec: ODESystemSpec, eps: float, params=None) -> callable:
    """Generated RHS (t, y) of the original equation as a first-order complex system.

    Component j is L_j(y) + eps * V_j(t, y), with the linear part L of the
    spec's class written out in front of the forcing sum.
    """
    params = _check_params(spec, params)
    if spec.klass not in ("semisimple", "nilpotent", "scalar"):
        raise SpecError(f"class {spec.klass!r} is not numerically integrable here")
    g = _StraightLine()
    vs = _vpoly_sums(g, spec.v_polys, eps, params)
    ys = [g.local(f"y[{j}]") for j in range(spec.n_states)]
    c_eps = g.const(eps)
    if spec.klass == "semisimple":
        out = [f"{g.const(1j * float(m))} * {y} + {c_eps} * {v}"
               for m, y, v in zip(spec.modes, ys, vs)]
    elif spec.klass == "nilpotent":
        c_im = g.const(1j * spec.block_mode)
        lin = [f"{c_im} * {a} + {b}" for a, b in zip(ys, ys[1:])]
        lin.append(f"{c_im} * {ys[-1]}")
        out = [f"{o} + {c_eps} * {v}" for o, v in zip(lin, vs)]
    else:
        N = spec.n_states
        # expand prod_r (x - i m_r)^{n_r} = x^N + lower-order terms
        poly = [1.0 + 0j]
        for m_r, n_r in spec.factors:
            root = -1j * m_r
            for _ in range(n_r):
                # times (x + root): the convolution with [1, root]
                poly = [a + root * b for a, b in zip(poly + [0j], [0j] + poly)]
        # poly[0] x^N + ... + poly[N]; the coefficient of x^l is poly[N-l],
        # and it multiplies y[l]
        lower = [(N - 1 - i, c) for i, c in enumerate(poly[1:]) if c]
        acc = " - ".join([f"{c_eps} * {vs[0]}"]
                         + [f"{g.const(c)} * {ys[l]}" for l, c in lower])
        out = ys[1:] + [acc]
    return g.function("t, y", f"[{', '.join(out)}]")


def integrate_ode(spec, initial, eps: float, t_end: float, dt: float,
                  params=None, t0: float = 0.0) -> Trajectory:
    return rk4_integrate(ode_field(spec, eps, params), initial, t0, t_end, dt)


def _poly_sum(g: _StraightLine, p: MultiPoly, eps: float, param_values: dict,
              amps: list) -> str:
    """Emit an autonomous RG-side poly; name of its sum.

    amps[j] is the expression of amplitude j.  The terms are summed in
    `sorted_terms()` order; coeff * params * eps**k is folded at build time.
    """
    products = []
    for e, c in p.sorted_terms():
        k_eps, t, s, ae, pe = p.ctx.split(e)
        if t or s:
            raise ValueError("polynomial must be autonomous (no t or s)")
        coeff = complex(c)
        for name, k in zip(p.ctx.params, pe):
            if k:
                coeff *= complex(param_values[name]) ** k
        if k_eps:
            coeff *= eps ** k_eps
        products.append([g.const(coeff)] + [
            g.power(amps[j], a) for j, a in enumerate(ae) if a
        ])
    return g.sum("0j", products)


def rg_field(rg: RGSystem, eps: float, eps_order: int, params=None) -> callable:
    """Generated RHS (t, y) of the complex RG system truncated at eps_order."""
    params = dict(params or {})
    g = _StraightLine()
    ys = [f"y[{j}]" for j in range(len(rg.ctx.amplitudes))]
    sums = [_poly_sum(g, f.trunc(eps_order), eps, params, ys) for f in rg.fields]
    return g.function("t, y", f"[{', '.join(sums)}]")


def integrate_rg(rg: RGSystem, initial, eps: float, t_end: float, dt: float,
                 eps_order: int | None = None, params=None, t0: float = 0.0) -> Trajectory:
    """Integrate the complex RG system with the field truncated at eps_order."""
    cut = rg.ctx.order if eps_order is None else eps_order
    return rk4_integrate(rg_field(rg, eps, cut, params), initial, t0, t_end, dt)


def _trig_sum(g: _StraightLine, ts: TrigSeries, eps: float, pvals, p: int) -> str:
    """Emit a polar series at radii y[:p].real, phases y[p:].real and t = 0.0.

    float(q) * eps**k and every param**e are folded at build time; the
    phase m*t + w.theta keeps its zero weights and is summed from int 0, as
    builtins.sum does.  The terms are summed in the order of their keys.
    """
    thetas = [g.local(f"y[{p + a}].real") for a in range(p)]
    products = []
    for (k, rexps, pexps, m, w, kind), q in sorted(ts.terms.items()):
        factors = [g.const(float(q) * eps ** k)]
        factors += [g.power(f"y[{a}].real", e) for a, e in enumerate(rexps) if e]
        factors += [g.const(pval ** e) for pval, e in zip(pvals, pexps) if e]
        wsum = " + ".join(["0"] + [f"{x} * {th}" for x, th in zip(w, thetas)])
        phase = g.local(f"{m} * 0.0 + ({wsum})")
        factors.append(g.local(f"math.{'cos' if kind == COS else 'sin'}({phase})"))
        products.append(factors)
    return g.sum("0.0", products)


def polar_field(polar: PolarRG, eps: float, eps_order: int, params=None) -> callable:
    """Generated RHS (t, y) of the polar RG system, y = (R_1..R_p, theta_1..theta_p)."""
    params = dict(params or {})
    pvals = [params[name] for name in polar.param_names]
    g = _StraightLine()
    sums = [_trig_sum(g, ts.trunc(eps_order), eps, pvals, polar.npairs)
            for ts in polar.d_radius + polar.d_theta]
    return g.function("t, y", f"[{', '.join(sums)}]")


def integrate_polar(polar: PolarRG, radii0, thetas0, eps: float, t_end: float,
                    dt: float, eps_order: int, params=None, t0: float = 0.0) -> Trajectory:
    """Integrate the polar RG system; state is (R_1..R_p, theta_1..theta_p)."""
    f = polar_field(polar, eps, eps_order, params)
    return rk4_integrate(f, list(radii0) + list(thetas0), t0, t_end, dt)


def reconstruction_field(ren: RenExpansion, eps: float, eps_order: int,
                         params=None, pairs: int | None = None) -> callable:
    """Generated (t, amps) -> list of Y_j = sum_m P_{j,m}(eps, 0, amps) e^{imt}.

    With `pairs`, the second argument is a polar state (R_1..R_p,
    theta_1..theta_p) and the amplitudes are R e^{i theta}, R e^{-i theta},
    pair by pair, the conjugate taken of the first.  Each Y_j adds its
    harmonics m and -m together first and then these pair sums by |m|
    ascending: the order is fixed by m alone and is its own mirror under
    m -> -m, so two components whose entries mirror each other (P[j', -m]
    the conjugate of P[j, m] with the pairs swapped) sum to exact
    conjugates wherever their polynomial sums do.

    Entries that are zero after the cut are left out.  Each would add
    0j * e^{imt}, whose parts are +-0.0, to a total that starts at 0j; a sum
    that starts at +0.0 is never -0.0 (round-to-nearest gives -0.0 only for
    -0.0 + -0.0), and x + +-0.0 == x for every other x, so no bit changes.
    """
    params = dict(params or {})
    g = _StraightLine()
    if pairs is None:
        amps = [f"amps[{j}]" for j in range(len(ren.ctx.amplitudes))]
    else:
        amps = []
        for a in range(pairs):
            r = g.local(f"amps[{a}].real")
            th = g.local(f"amps[{pairs + a}].real")
            z = g.local(f"{r} * complex(math.cos({th}), math.sin({th}))")
            amps += (z, g.local(f"{z}.conjugate()"))
    sums = []
    for comp in ren.components:
        products = []
        for a in sorted({abs(m) for m in comp.entries}):
            pair = []
            for m in (a, -a) if a else (0,):
                p = comp.get(m).trunc(eps_order)
                if not p.is_zero():
                    s = _poly_sum(g, p, eps, params, amps)
                    pair.append(f"{s} * {g.harmonic(m)}" if m else s)
            if pair:
                products.append([g.local(" + ".join(pair))])
        sums.append(g.sum("0j", products))
    return g.function("t, amps", f"[{', '.join(sums)}]")


def reconstruct(ren: RenExpansion, rg_traj: Trajectory, eps: float,
                pairs: int | None = None, params=None,
                eps_order: int | None = None) -> Trajectory:
    """Evaluate Y_j(t) = sum_m P_{j,m}(eps,0,A_ren(t)) e^{imt} on the grid.

    `pairs`: number of conjugate pairs if rg_traj is a polar trajectory,
    None if it already carries complex amplitudes.
    """
    cut = ren.ctx.order if eps_order is None else eps_order
    namp = 2 * pairs if pairs is not None else rg_traj.dim
    if namp != len(ren.ctx.amplitudes):
        raise SpecError("amplitude dimension mismatch in reconstruction")
    values = reconstruction_field(ren, eps, cut, params, pairs)
    states = []
    try:
        for t, row in zip(rg_traj.times, rg_traj.states):
            states.append(values(t, row))
    except OverflowError:
        raise _non_finite(t) from None
    return Trajectory(list(rg_traj.times), states)


def sup_deviation(a, b) -> float:
    """max |a_i - b_i| over two equally long sequences of numbers."""
    return max(abs(x - y) for x, y in zip(a, b))


# --------------------------------------------------------------------------
# Artifact emission
# --------------------------------------------------------------------------

def emit_csv(traj: Trajectory, path) -> None:
    cols, parts = ["t"], []
    for j in range(traj.dim):
        zs = traj.component(j)
        cols += [f"re_{j + 1}", f"im_{j + 1}"]
        parts += ([z.real for z in zs], [z.imag for z in zs])
    row = ",".join(["%.17g"] * len(cols)) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for values in zip(traj.times, *parts):
            fh.write(row % values)


_PALETTE = ("#cc0000", "#0033cc", "#000000", "#008833", "#aa6600", "#7700aa")


def emit_svg(series, path, title: str = "", width: int = 720, height: int = 440) -> None:
    """Self-contained SVG line plot; series = [(label, xs, ys), ...]."""
    if not series:
        raise ValueError("no series to plot")
    ml, mr, mt, mb = 56, 16, 28, 40
    pw, ph = width - ml - mr, height - mt - mb
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if not xs_all:
        raise ValueError("empty series")
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    if x1 == x0:
        x1 = x0 + 1
    if y1 == y0:
        y1 = y0 + 1
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad
    dx, dy = x1 - x0, y1 - y0

    def px(x):
        return ml + pw * (x - x0) / dx

    def py(y):
        return mt + ph * (1 - (y - y0) / dy)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="#444444" stroke-width="1"/>',
    ]
    if title:
        out.append(
            f'<text x="{width / 2:.1f}" y="18" font-size="13" text-anchor="middle" '
            f'font-family="sans-serif">{title}</text>'
        )
    nticks = 5
    for k in range(nticks + 1):
        xv = x0 + (x1 - x0) * k / nticks
        xp = px(xv)
        out.append(
            f'<line x1="{xp:.2f}" y1="{mt + ph}" x2="{xp:.2f}" y2="{mt + ph + 5}" '
            f'stroke="#444444"/>'
        )
        out.append(
            f'<text x="{xp:.2f}" y="{mt + ph + 18}" font-size="11" text-anchor="middle" '
            f'font-family="sans-serif">{xv:.4g}</text>'
        )
        yv = y0 + (y1 - y0) * k / nticks
        yp = py(yv)
        out.append(
            f'<line x1="{ml - 5}" y1="{yp:.2f}" x2="{ml}" y2="{yp:.2f}" stroke="#444444"/>'
        )
        out.append(
            f'<text x="{ml - 8}" y="{yp + 4:.2f}" font-size="11" text-anchor="end" '
            f'font-family="sans-serif">{yv:.4g}</text>'
        )
    for idx, (label, xs, ys) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        # px and py, inlined
        pxs = [ml + pw * (x - x0) / dx for x in xs]
        pys = [mt + ph * (1 - (y - y0) / dy) for y in ys]
        pts = " ".join(map("%.2f,%.2f".__mod__, zip(pxs, pys)))
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.2"/>'
        )
        out.append(
            f'<text x="{ml + 8 + 130 * idx}" y="{mt + 14}" font-size="11" '
            f'fill="{color}" font-family="sans-serif">{label}</text>'
        )
    out.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")


# --------------------------------------------------------------------------
# The conjugate-pair demonstration pipeline
# --------------------------------------------------------------------------

def simulate_conjugate_pair(spec: ODESystemSpec, eps: float, r0: float, theta0: float,
                            t_end: float = 40.0, dt: float = 0.01,
                            rg_order: int = 4, ren_order: int = 2,
                            params=None) -> dict:
    """Direct integration vs RG-reconstructed solution for a conjugate pair.

    The spec must be a two-dimensional semisimple system whose RG field is
    conjugate-symmetric under the pairing (A1, A2); the initial state is set
    from the renormalized expansion at t=0 with A1 = r0 e^{i theta0}.
    """
    from .renorm import solve_rg, polar_transform

    if spec.klass != "semisimple" or len(spec.modes) != 2:
        raise SpecError("the pipeline needs a 2-dimensional semisimple spec")
    params = _check_params(spec, params)
    work = spec
    if spec.order < rg_order:
        raise SpecError("spec order too small for the requested RG order")
    rg, ren = solve_rg(work)
    polar = polar_transform(rg, [(0, 1)])

    # Y_j(0) = sum_m P_{j,m}(eps, 0, A(0)): at t = 0 every harmonic is
    # complex(1.0, +-0.0), which changes no nonzero part of a term, and each
    # sum starts at +0.0, so the sign of a zero part is washed out
    try:
        y0 = reconstruction_field(ren, eps, ren_order, params, pairs=1)(0.0, [r0, theta0])
    except OverflowError:
        raise _non_finite(0.0) from None

    direct = integrate_ode(work, y0, eps, t_end, dt, params)
    polar_traj = integrate_polar(polar, [r0], [theta0], eps, t_end, dt, rg_order, params)
    recon = reconstruct(ren, polar_traj, eps, pairs=1, params=params,
                        eps_order=ren_order)

    y1 = direct.component(0)
    conj_dev = sup_deviation(direct.component(1), [z.conjugate() for z in y1])
    recon_dev = sup_deviation([z.real for z in y1], [z.real for z in recon.component(0)])
    return {
        "direct": direct,
        "polar": polar_traj,
        "reconstruction": recon,
        "initial_state": y0,
        "conjugate_deviation": conj_dev,
        "reconstruction_deviation": recon_dev,
    }
