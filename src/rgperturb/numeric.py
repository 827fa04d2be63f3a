"""Fixed-step numerics: direct integration, RG integration, reconstruction.

Classical RK4 with a fixed step everywhere -- determinism and bit-reproducible
CSVs matter more than efficiency at this scale.  CSV columns are
``t, re_1, im_1, ...`` with 17 significant digits and LF line endings; SVG
output is a dependency-free, self-contained line plot for human inspection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .poly import MultiPoly, EPS
from .systems import ODESystemSpec, SpecError
from .renorm import RGSystem, RenExpansion, PolarRG


class NumericOverflowError(RuntimeError):
    pass


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # shape (len(times), dim), complex
    meta: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def component(self, j: int) -> np.ndarray:
        return self.states[:, j]


def rk4_integrate(f, y0, t0: float, t_end: float, dt: float, meta=None) -> Trajectory:
    if dt <= 0:
        raise ValueError("dt must be positive")
    n = max(1, int(round((t_end - t0) / dt)))
    y = np.asarray(y0, dtype=complex)
    times = t0 + dt * np.arange(n + 1)
    states = np.empty((n + 1, y.size), dtype=complex)
    states[0] = y
    with np.errstate(invalid="ignore", over="ignore"):
        for i in range(n):
            t = times[i]
            k1 = f(t, y)
            k2 = f(t + dt / 2, y + (dt / 2) * k1)
            k3 = f(t + dt / 2, y + (dt / 2) * k2)
            k4 = f(t + dt, y + dt * k3)
            y = y + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            if not np.all(np.isfinite(y.view(float))):
                raise NumericOverflowError(
                    f"state became non-finite at t={times[i + 1]:.6g}"
                )
            states[i + 1] = y
    return Trajectory(times, states, dict(meta or {}))


# --------------------------------------------------------------------------
# Compiled right-hand sides
# --------------------------------------------------------------------------

def compile_vpoly(vp, param_values: dict) -> callable:
    """Numeric closure (t, y, eps) -> complex for one forcing series.

    Terms are summed harmonic by harmonic, each in insertion order.
    """
    ctx = vp.ctx
    n = len(ctx.amplitudes)
    terms = []
    for l, p in vp.entries.items():
        for e, c in p.terms.items():
            coeff = complex(c)
            for name, k in zip(ctx.params, e[3 + n:]):
                coeff *= complex(param_values[name]) ** k
            terms.append((coeff, e[EPS], l, e[3:3 + n]))

    def value(t, y, eps):
        total = 0j
        for coeff, k, l, se in terms:
            v = coeff
            if k:
                v *= eps ** k
            if l:
                v *= complex(math.cos(l * t), math.sin(l * t))
            for j, e in enumerate(se):
                if e:
                    v *= y[j] ** e
            total += v
        return total

    return value


def _check_params(spec, params):
    params = dict(params or {})
    missing = [p for p in spec.params if p not in params]
    if missing:
        raise SpecError(f"missing numeric values for parameters {missing}")
    return params


def ode_field(spec: ODESystemSpec, eps: float, params=None) -> callable:
    """Numeric RHS of the original equation as a first-order complex system."""
    params = _check_params(spec, params)
    vs = [compile_vpoly(vp, params) for vp in spec.v_polys]
    if spec.klass == "semisimple":
        modes = np.array(spec.modes, dtype=float)

        def f(t, y):
            out = 1j * modes * y
            for j, v in enumerate(vs):
                out[j] += eps * v(t, y, eps)
            return out

        return f
    if spec.klass == "nilpotent":
        n = spec.block_size
        im = 1j * spec.block_mode

        def f(t, y):
            out = im * y
            out[:-1] += y[1:]
            for j, v in enumerate(vs):
                out[j] += eps * v(t, y, eps)
            return out

        return f
    if spec.klass == "scalar":
        N = spec.n_states
        # expand prod_r (x - i m_r)^{n_r} = x^N + lower-order terms
        poly = np.array([1.0 + 0j])
        for m_r, n_r in spec.factors:
            for _ in range(n_r):
                poly = np.convolve(poly, np.array([1.0 + 0j, -1j * m_r]))
        # poly[0] x^N + ... + poly[N]; coefficients of x^l is poly[N-l]
        lower = poly[1:]  # x^{N-1} .. x^0
        v = vs[0]

        def f(t, y):
            out = np.empty_like(y)
            out[:-1] = y[1:]
            acc = eps * v(t, y, eps)
            for i, c in enumerate(lower):
                if c:
                    acc -= c * y[N - 1 - i]
            out[-1] = acc
            return out

        return f
    raise SpecError(f"class {spec.klass!r} is not numerically integrable here")


def integrate_ode(spec, initial, eps: float, t_end: float, dt: float,
                  params=None, t0: float = 0.0) -> Trajectory:
    f = ode_field(spec, eps, params)
    meta = {"system": spec.klass, "eps": eps, "params": dict(params or {})}
    return rk4_integrate(f, initial, t0, t_end, dt, meta)


def compile_poly(p: MultiPoly, param_values: dict) -> callable:
    """Numeric closure (eps, amp_values list) -> complex for an RG-side poly."""
    ctx = p.ctx
    namp = len(ctx.amplitudes)
    terms = []
    for e, c in p.terms.items():
        if e[1] or e[2]:
            raise ValueError("polynomial must be autonomous (no t or s)")
        coeff = complex(c)
        for i, name in enumerate(ctx.params):
            k = e[3 + namp + i]
            if k:
                coeff *= complex(param_values[name]) ** k
        terms.append((coeff, e[0], e[3:3 + namp]))

    def value(eps, amps):
        total = 0j
        for coeff, k, aexps in terms:
            v = coeff
            if k:
                v *= eps ** k
            for j, a in enumerate(aexps):
                if a:
                    v *= amps[j] ** a
            total += v
        return total

    return value


def integrate_rg(rg: RGSystem, initial, eps: float, t_end: float, dt: float,
                 eps_order: int | None = None, params=None, t0: float = 0.0) -> Trajectory:
    """Integrate the complex RG system with the field truncated at eps_order."""
    params = dict(params or {})
    cut = rg.ctx.order if eps_order is None else eps_order
    fns = [compile_poly(f.trunc(cut), params) for f in rg.fields]

    def f(t, y):
        return np.array([fn(eps, y) for fn in fns], dtype=complex)

    meta = {"system": "rg", "eps": eps, "eps_order": cut, "params": params}
    return rk4_integrate(f, initial, t0, t_end, dt, meta)


def integrate_polar(polar: PolarRG, radii0, thetas0, eps: float, t_end: float,
                    dt: float, eps_order: int, params=None, t0: float = 0.0) -> Trajectory:
    """Integrate the polar RG system; state is (R_1..R_p, theta_1..theta_p)."""
    params = dict(params or {})
    pvals = [params[name] for name in polar.param_names]
    p = polar.npairs
    drs = [ts.trunc(eps_order) for ts in polar.d_radius]
    dths = [ts.trunc(eps_order) for ts in polar.d_theta]

    def f(t, y):
        radii = y[:p].real
        thetas = y[p:].real
        out = np.empty(2 * p, dtype=complex)
        for a in range(p):
            out[a] = drs[a].eval(eps, radii, thetas, pvals)
            out[p + a] = dths[a].eval(eps, radii, thetas, pvals)
        return out

    meta = {"system": "rg-polar", "eps": eps, "eps_order": eps_order, "params": params}
    return rk4_integrate(f, np.array(list(radii0) + list(thetas0), dtype=complex),
                         t0, t_end, dt, meta)


def amplitudes_from_polar(state, npairs):
    """Complex amplitudes (R e^{i theta}, R e^{-i theta}, ...) from a polar state."""
    out = np.empty(2 * npairs, dtype=complex)
    for a in range(npairs):
        r = state[a].real
        th = state[npairs + a].real
        out[2 * a] = r * complex(math.cos(th), math.sin(th))
        out[2 * a + 1] = out[2 * a].conjugate()
    return out


def reconstruct(ren: RenExpansion, rg_traj: Trajectory, eps: float,
                pairs: int | None = None, params=None,
                eps_order: int | None = None) -> Trajectory:
    """Evaluate Y_j(t) = sum_m P_{j,m}(eps,0,A_ren(t)) e^{imt} on the grid.

    `pairs`: number of conjugate pairs if rg_traj is a polar trajectory,
    None if it already carries complex amplitudes.
    """
    params = dict(params or {})
    cut = ren.ctx.order if eps_order is None else eps_order
    namp = len(ren.ctx.amplitudes)
    compiled = []
    for comp in ren.components:
        compiled.append(
            [(m, compile_poly(p.trunc(cut), params)) for m, p in comp.entries.items()]
        )
    n = len(rg_traj.times)
    states = np.empty((n, len(compiled)), dtype=complex)
    for i in range(n):
        t = rg_traj.times[i]
        if pairs is None:
            amps = rg_traj.states[i]
        else:
            amps = amplitudes_from_polar(rg_traj.states[i], pairs)
        if len(amps) != namp:
            raise SpecError("amplitude dimension mismatch in reconstruction")
        for j, entries in enumerate(compiled):
            total = 0j
            for m, fn in entries:
                v = fn(eps, amps)
                if m:
                    v *= complex(math.cos(m * t), math.sin(m * t))
                total += v
            states[i, j] = total
    meta = dict(rg_traj.meta)
    meta["system"] = "reconstruction"
    return Trajectory(rg_traj.times.copy(), states, meta)


def sup_deviation(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)))


# --------------------------------------------------------------------------
# Artifact emission
# --------------------------------------------------------------------------

def emit_csv(traj: Trajectory, path) -> None:
    cols = ["t"]
    for j in range(traj.dim):
        cols += [f"re_{j + 1}", f"im_{j + 1}"]
    lines = [",".join(cols)]
    for i, t in enumerate(traj.times):
        row = [f"{t:.17g}"]
        for j in range(traj.dim):
            z = traj.states[i, j]
            row += [f"{z.real:.17g}", f"{z.imag:.17g}"]
        lines.append(",".join(row))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


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

    def px(x):
        return ml + pw * (x - x0) / (x1 - x0)

    def py(y):
        return mt + ph * (1 - (y - y0) / (y1 - y0))

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
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
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
    from .engine import expand_semisimple
    from .renorm import derive_rg, renormalized_expansion, polar_transform

    if spec.klass != "semisimple" or len(spec.modes) != 2:
        raise SpecError("the pipeline needs a 2-dimensional semisimple spec")
    work = spec
    if spec.order < rg_order:
        raise SpecError("spec order too small for the requested RG order")
    table = expand_semisimple(work)
    rg = derive_rg(table)
    polar = polar_transform(rg, [(0, 1)])
    ren = renormalized_expansion(table)

    params = dict(params or {})
    amps0 = amplitudes_from_polar(np.array([r0, theta0], dtype=complex), 1)
    compiled0 = [
        [(m, compile_poly(p.trunc(ren_order), params)) for m, p in comp.entries.items()]
        for comp in ren.components
    ]
    y0 = np.array(
        [sum(fn(eps, amps0) for m, fn in entries) for entries in compiled0],
        dtype=complex,
    )

    direct = integrate_ode(work, y0, eps, t_end, dt, params)
    polar_traj = integrate_polar(polar, [r0], [theta0], eps, t_end, dt, rg_order, params)
    recon = reconstruct(ren, polar_traj, eps, pairs=1, params=params,
                        eps_order=ren_order)

    conj_dev = sup_deviation(direct.component(1), np.conj(direct.component(0)))
    recon_dev = sup_deviation(direct.component(0).real, recon.component(0).real)
    return {
        "direct": direct,
        "polar": polar_traj,
        "reconstruction": recon,
        "initial_state": y0,
        "conjugate_deviation": conj_dev,
        "reconstruction_deviation": recon_dev,
    }
