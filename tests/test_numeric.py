import cmath
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rgperturb import numeric
from rgperturb.checks import random_spec
from rgperturb.demos import load_builtin
from rgperturb.systems import parse_spec, oscillator_to_firstorder
from rgperturb.engine import expand_semisimple, expand_table
from rgperturb.poly import EPS
from rgperturb.renorm import (
    COS,
    PolarPairingError,
    derive_rg,
    polar_transform,
    renormalized_expansion,
)
from rgperturb.numeric import (
    Trajectory,
    ode_field,
    rk4_integrate,
    integrate_ode,
    integrate_polar,
    integrate_rg,
    polar_field,
    reconstruct,
    reconstruction_field,
    rg_field,
    simulate_conjugate_pair,
    sup_deviation,
    emit_csv,
    emit_svg,
    NumericOverflowError,
)


def make_spec(**doc):
    return parse_spec(json.dumps(doc))


CD_DOC = {
    "class": "semisimple",
    "linear_part": [1, -1],
    "V": ["y1*y2 + E^-1*y2", "y1*y2 + E*y1"],
    "order": 4,
}


class TestRK4:
    def test_exact_rotation_error_small(self):
        spec = make_spec(**{"class": "semisimple", "linear_part": [2, -1],
                            "V": ["0", "0"], "order": 1})
        y0 = np.array([1.0 + 0.5j, 0.25 - 1.0j])
        traj = integrate_ode(spec, y0, 0.1, 10.0, 0.01)
        exact = np.exp(1j * np.outer(traj.times, [2, -1])) * y0
        assert sup_deviation(np.ravel(traj.states), exact.ravel()) < 1e-7

    def test_fourth_order_convergence(self):
        spec = make_spec(**{"class": "semisimple", "linear_part": [1], "V": ["0"], "order": 1})
        y0 = np.array([1.0 + 0j])

        def error(dt):
            traj = integrate_ode(spec, y0, 0.0, 2.0, dt)
            exact = np.exp(1j * np.asarray(traj.times))
            return sup_deviation(traj.component(0), exact)

        ratio = error(0.02) / error(0.01)
        assert 14 <= ratio <= 18

    def test_empty_state_is_refused(self):
        with pytest.raises(ValueError, match="at least one component"):
            rk4_integrate(lambda t, y: [], [], 0.0, 1.0, 0.5)

    def test_overflow_aborts(self):
        spec = make_spec(**{"class": "semisimple", "linear_part": [0], "V": ["y1^2"], "order": 1})
        with pytest.raises(NumericOverflowError):
            integrate_ode(spec, np.array([10.0 + 0j]), 1.0, 2.0, 0.01)

    def test_scalar_companion_form(self):
        # dy/dt = eps (y^2 - 1) with the quadrature solution as oracle
        spec = make_spec(**{"class": "scalar", "linear_part": [[0, 1]], "V": ["y^2 - 1"], "order": 1})
        eps, a = 0.2, 0.5
        traj = integrate_ode(spec, np.array([a + 0j]), eps, 5.0, 0.005)
        ch = np.cosh(eps * np.asarray(traj.times))
        sh = np.sinh(eps * np.asarray(traj.times))
        exact = (a * ch - sh) / (ch - a * sh)
        assert sup_deviation(traj.component(0), exact) < 1e-10

    def test_third_order_scalar_linear_part(self):
        # (d/dt - i)^1 (d/dt + i)^1 y = 0 is the harmonic oscillator
        spec = make_spec(**{"class": "scalar", "linear_part": [[1, 1], [-1, 1]],
                            "V": ["0"], "order": 1})
        traj = integrate_ode(spec, np.array([1.0 + 0j, 0.0j]), 0.0, 6.0, 0.01)
        exact = np.cos(traj.times)
        assert sup_deviation(traj.component(0), exact) < 1e-9


class TestConjugatePair:
    def test_conjugate_symmetry_preserved(self):
        spec = make_spec(**CD_DOC)
        y1 = -0.462366 + 1.55692j
        traj = integrate_ode(spec, np.array([y1, np.conj(y1)]), 0.25, 40.0, 0.01)
        dev = sup_deviation(traj.component(1), np.conj(traj.component(0)))
        assert dev < 1e-8


class TestRGIntegration:
    def test_zero_field_is_constant(self):
        spec = make_spec(**{"class": "semisimple", "linear_part": [1, -1],
                            "V": ["0", "0"], "order": 2})
        rg = derive_rg(expand_semisimple(spec))
        traj = integrate_rg(rg, np.array([1.0 + 1j, 2.0 - 1j]), 0.3, 5.0, 0.01)
        assert all(row == traj.states[0] for row in traj.states)

    def test_autonomous_reduction_matches_direct(self):
        # M=0 autonomous: the RG equation is the original system (exactly)
        spec = make_spec(**{"class": "semisimple", "linear_part": [0],
                            "V": ["y1^2 - 1"], "order": 3})
        rg = derive_rg(expand_semisimple(spec))
        y0 = np.array([0.3 + 0.1j])
        direct = integrate_ode(spec, y0, 0.2, 4.0, 0.01)
        flowed = integrate_rg(rg, y0, 0.2, 4.0, 0.01)
        assert sup_deviation(np.ravel(direct.states), np.ravel(flowed.states)) < 1e-12

    def test_reconstruct_at_zero_coupling(self):
        spec = make_spec(**CD_DOC)
        table = expand_semisimple(spec)
        ren = renormalized_expansion(table)
        rg = derive_rg(table)
        a0 = np.array([0.5 + 0.25j, 0.5 - 0.25j])
        traj = integrate_rg(rg, a0, 0.0, 3.0, 0.01)
        recon = reconstruct(ren, traj, 0.0)
        expect = np.exp(1j * np.outer(traj.times, [1, -1])) * a0
        assert sup_deviation(np.ravel(recon.states), expect.ravel()) < 1e-12


class TestOscillatorTransform:
    def test_solution_preservation(self):
        # Duffing: q'' + q = -eps q^3, integrated both as (q,p) and as the
        # first-order complex system, then mapped back
        eps = 0.1
        spec = oscillator_to_firstorder([1], ["-q1^3"], (), 2)

        def qp_field(t, y):
            q, p = y
            return np.array([p, -q - eps * q ** 3])

        q0, p0 = 1.0, 0.0
        ref = rk4_integrate(qp_field, np.array([q0 + 0j, p0 + 0j]), 0.0, 20.0, 0.005)
        y0 = np.array([p0 + 1j * q0, p0 - 1j * q0])
        traj = integrate_ode(spec, y0, eps, 20.0, 0.005)
        states = np.asarray(traj.states)
        q_back = (states[:, 0] - states[:, 1]) / 2j
        assert sup_deviation(q_back, ref.component(0)) < 1e-9

    def test_solution_preservation_random_forcing(self):
        # same comparison on a randomly drawn two-oscillator polynomial V
        import random
        from rgperturb.expressions import parse_expression, ast_to_vpoly

        rng = random.Random(91)
        eps = 0.05
        masses = [1, 2]
        qp_states = ("q1", "q2", "p1", "p2")
        srcs = []
        for _ in range(2):
            terms = []
            for _ in range(rng.randint(1, 3)):
                deg = rng.randint(1, 2)
                mono = "*".join(rng.choice(qp_states) for _ in range(deg))
                coeff = rng.choice(["1", "2", "1/2", "3"])
                terms.append(f"{coeff}*{mono}")
            srcs.append(" + ".join(terms))
        spec = oscillator_to_firstorder(masses, srcs, (), 2)
        fns = [
            reference_compile_vpoly(ast_to_vpoly(parse_expression(s), qp_states, ()), {})
            for s in srcs
        ]

        def qp_field(t, y):
            q1, q2, p1, p2 = y
            state = np.array([q1, q2, p1, p2])
            return np.array([
                p1,
                p2,
                -1 * q1 + eps * fns[0](t, state, eps),
                -4 * q2 + eps * fns[1](t, state, eps),
            ])

        q0 = np.array([0.4, -0.3])
        p0 = np.array([0.1, 0.2])
        ref = rk4_integrate(
            qp_field, np.concatenate([q0, p0]).astype(complex), 0.0, 10.0, 0.005
        )
        y0 = np.array([
            p0[0] + 1j * masses[0] * q0[0], p0[0] - 1j * masses[0] * q0[0],
            p0[1] + 1j * masses[1] * q0[1], p0[1] - 1j * masses[1] * q0[1],
        ])
        traj = integrate_ode(spec, y0, eps, 10.0, 0.005)
        states = np.asarray(traj.states)
        q1_back = (states[:, 0] - states[:, 1]) / (2j * masses[0])
        q2_back = (states[:, 2] - states[:, 3]) / (2j * masses[1])
        assert sup_deviation(q1_back, ref.component(0)) < 1e-8
        assert sup_deviation(q2_back, ref.component(1)) < 1e-8


@pytest.fixture(scope="module")
def runs():
    spec = make_spec(**CD_DOC)
    out = {}
    for eps in (0.25, 0.125):
        out[eps] = simulate_conjugate_pair(spec, eps, 1.3, 2.1, t_end=40.0, dt=0.01)
    return out


class TestPipeline:
    def test_initial_state_matches_reference_value(self, runs):
        y0 = runs[0.25]["initial_state"]
        assert abs(y0[0] - (-0.462366 + 1.55692j)) < 5e-6
        assert abs(y0[1] - np.conj(y0[0])) < 1e-14

    def test_conjugate_deviation_small(self, runs):
        assert runs[0.25]["conjugate_deviation"] < 1e-8

    def test_reconstruction_error_scales(self, runs):
        big = runs[0.25]["reconstruction_deviation"]
        small = runs[0.125]["reconstruction_deviation"]
        assert big / small >= 6

    def test_polar_trajectory_shape(self, runs):
        polar = runs[0.25]["polar"]
        assert polar.dim == 2
        assert polar.states[0][0].real == pytest.approx(1.3)
        assert polar.states[0][1].real == pytest.approx(2.1)


class TestEmission:
    def test_csv_layout(self, tmp_path):
        traj = Trajectory(
            np.array([0.0, 0.5, 1.0]),
            np.array([[1 + 2j], [3 + 4j], [5 + 6j]]),
        )
        path = tmp_path / "out.csv"
        emit_csv(traj, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        assert lines[0] == "t,re_1,im_1"
        assert lines[1].split(",") == ["0", "1", "2"]

    def test_csv_precision(self, tmp_path):
        traj = Trajectory(np.array([1 / 3]), np.array([[math.pi + 0j]]))
        path = tmp_path / "out.csv"
        emit_csv(traj, path)
        row = path.read_text().splitlines()[1].split(",")
        assert float(row[0]) == 1 / 3
        assert float(row[1]) == math.pi

    def test_svg_smoke(self, tmp_path):
        xs = [0.0, 1.0, 2.0]
        path = tmp_path / "plot.svg"
        emit_svg([("a", xs, [0.0, 1.0, 0.5]), ("b", xs, [1.0, 0.0, 0.25])], path,
                 title="test")
        text = path.read_text()
        assert text.startswith("<svg")
        assert text.count("<polyline") == 2
        assert "test" in text

    def test_svg_empty_errors(self, tmp_path):
        with pytest.raises(ValueError):
            emit_svg([], tmp_path / "plot.svg")


# --------------------------------------------------------------------------
# The interpreted stepper and fields, kept as the references of the generated ones
# --------------------------------------------------------------------------

def reference_rk4_integrate(f, y0, t0, t_end, dt):
    """The generic RK4 loop the generated one replaced: each stage a list."""
    n = max(1, int(round((t_end - t0) / dt)))
    isfinite = cmath.isfinite
    y = [complex(v) for v in y0]
    if not all(map(isfinite, y)):
        raise numeric._non_finite(t0)
    grid = [t0 + dt * k for k in range(n + 1)]
    states = [y]
    h2, h6 = dt / 2, dt / 6
    for i in range(n):
        t = grid[i]
        try:
            k1 = f(t, y)
            k2 = f(t + h2, [a + h2 * b for a, b in zip(y, k1)])
            k3 = f(t + h2, [a + h2 * b for a, b in zip(y, k2)])
            k4 = f(t + dt, [a + dt * b for a, b in zip(y, k3)])
            y = [a + h6 * (b1 + 2 * b2 + 2 * b3 + b4)
                 for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
        except OverflowError:
            raise numeric._non_finite(grid[i + 1]) from None
        if not all(map(isfinite, y)):
            raise numeric._non_finite(grid[i + 1])
        states.append(y)
    return Trajectory(grid, states)


def reference_amplitudes_from_polar(state, npairs):
    """Complex amplitudes [R e^{i theta}, R e^{-i theta}, ...] from a polar state."""
    out = []
    for a in range(npairs):
        r = state[a].real
        th = state[npairs + a].real
        z = r * complex(math.cos(th), math.sin(th))
        out += (z, z.conjugate())
    return out


def reference_compile_vpoly(vp, param_values):
    """Numeric closure (t, y, eps) -> complex for one forcing series.

    The original interpreted form of the forcing: terms are summed
    harmonic by harmonic, each in insertion order.
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


def reference_compile_poly(p, param_values):
    """Numeric closure (eps, amp_values list) -> complex for an RG-side poly.

    The terms are summed in `sorted_terms()` order.
    """
    ctx = p.ctx
    namp = len(ctx.amplitudes)
    terms = []
    for e, c in p.sorted_terms():
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


def reference_trig_eval(ts, eps, radii, thetas, params=(), t=0.0):
    """The original `TrigSeries.eval`: a polar series at one point, its terms
    summed in the order of their keys."""
    total = 0.0
    for (k, rexps, pexps, m, w, kind), q in sorted(ts.terms.items()):
        v = float(q) * eps ** k
        for r, e in zip(radii, rexps):
            if e:
                v *= r ** e
        for pval, e in zip(params, pexps):
            if e:
                v *= pval ** e
        phase = m * t + sum(x * th for x, th in zip(w, thetas))
        v *= math.cos(phase) if kind == COS else math.sin(phase)
        total += v
    return total


def reference_vpoly_field(v_polys, eps, params):
    """(t, y) -> list of the forcing series' values, over the reference closures."""
    fns = [reference_compile_vpoly(vp, params) for vp in v_polys]
    return lambda t, y: [fn(t, y, eps) for fn in fns]


def reference_ode_field(spec, eps, params):
    """The closures `ode_field` built around the forcing, one per class."""
    vs = reference_vpoly_field(spec.v_polys, eps, params)
    if spec.klass == "semisimple":
        rates = [1j * float(m) for m in spec.modes]

        def f(t, y):
            return [r * a + eps * v for r, a, v in zip(rates, y, vs(t, y))]

        return f
    if spec.klass == "nilpotent":
        im = 1j * spec.block_mode

        def f(t, y):
            out = [im * a + b for a, b in zip(y, y[1:])]
            out.append(im * y[-1])
            return [o + eps * v for o, v in zip(out, vs(t, y))]

        return f
    assert spec.klass == "scalar"
    N = spec.n_states
    poly = [1.0 + 0j]
    for m_r, n_r in spec.factors:
        root = -1j * m_r
        for _ in range(n_r):
            poly = [a + root * b for a, b in zip(poly + [0j], [0j] + poly)]
    lower = [(N - 1 - i, c) for i, c in enumerate(poly[1:]) if c]

    def f(t, y):
        acc = eps * vs(t, y)[0]
        for l, c in lower:
            acc -= c * y[l]
        return y[1:] + [acc]

    return f


def reference_rg_field(rg, eps, cut, params):
    fns = [reference_compile_poly(f.trunc(cut), params) for f in rg.fields]
    return lambda t, y: np.array([fn(eps, y) for fn in fns], dtype=complex)


def reference_polar_field(polar, eps, cut, params):
    pvals = [params[name] for name in polar.param_names]
    p = polar.npairs
    drs = [ts.trunc(cut) for ts in polar.d_radius]
    dths = [ts.trunc(cut) for ts in polar.d_theta]

    def f(t, y):
        y = np.asarray(y)
        radii = y[:p].real
        thetas = y[p:].real
        out = np.empty(2 * p, dtype=complex)
        for a in range(p):
            out[a] = reference_trig_eval(drs[a], eps, radii, thetas, pvals)
            out[p + a] = reference_trig_eval(dths[a], eps, radii, thetas, pvals)
        return out

    return f


def reference_harmonic_pairs(comp, cut, params):
    """[(m, compiled entry), ...] per |m| ascending, m before -m; entries
    that are zero after the cut are left out, as `reconstruction_field` does."""
    groups = []
    for a in sorted({abs(m) for m in comp.entries}):
        group = [(m, reference_compile_poly(comp.get(m).trunc(cut), params))
                 for m in ((a, -a) if a else (0,)) if not comp.get(m).trunc(cut).is_zero()]
        if group:
            groups.append(group)
    return groups


def reference_reconstruction(ren, eps, cut, params):
    """Y_j(t): each harmonic m and -m added together first, the pairs by |m|."""
    compiled = [reference_harmonic_pairs(comp, cut, params) for comp in ren.components]

    def values(t, amps):
        row = []
        for groups in compiled:
            total = 0j
            for group in groups:
                vs = []
                for m, fn in group:
                    v = fn(eps, amps)
                    if m:
                        v *= complex(math.cos(m * t), math.sin(m * t))
                    vs.append(v)
                total += vs[0] if len(vs) == 1 else vs[0] + vs[1]
            row.append(total)
        return row

    return values


def reference_initial_state(ren, eps, cut, r0, theta0):
    amps0 = reference_amplitudes_from_polar(np.array([r0, theta0], dtype=complex), 1)
    compiled0 = [reference_harmonic_pairs(comp, cut, {}) for comp in ren.components]
    return np.array(
        [sum(sum(fn(eps, amps0) for m, fn in group) for group in groups)
         for groups in compiled0],
        dtype=complex,
    )


def assert_bit_equal(got, want):
    """Equal value by value, signed zeros included."""
    got = np.asarray(got, dtype=complex).ravel()
    want = np.asarray(want, dtype=complex).ravel()
    assert got.shape == want.shape
    for i, (a, b) in enumerate(zip(got, want)):
        for x, y in ((a.real, b.real), (a.imag, b.imag)):
            assert x == y and math.copysign(1.0, x) == math.copysign(1.0, y), (i, a, b)


PARAM_DOC = {
    "class": "semisimple", "linear_part": [1, -1], "params": ["a"],
    "V": ["a*y1*y2 + E^-1*y2", "a*y1*y2 + E*y1"], "order": 4,
}
PARAM_VALUES = {"alpha": 0.7, "beta": -1.3, "mu": 0.45, "a": -0.6}

FIELD_CASES = (
    ["ex_cd", "ex_bt", "ex_third", "ex_scalar1", "ex_oscillators", "params"]
    + [f"random-{k}-{s}" for k in ("semisimple", "nilpotent", "scalar") for s in range(10)]
)
# the cases whose RG system has a polar form
POLAR_CASES = ["ex_cd", "ex_oscillators", "params", "random-semisimple-2"]
EPS_VALUES = (0.25, 0.1)


def field_case_spec(case):
    if case == "params":
        return make_spec(**PARAM_DOC)
    if case.startswith("random-"):
        _, klass, seed = case.split("-")
        return random_spec(klass, int(seed))
    return load_builtin(case)


def polar_of(spec, rg):
    """The polar system pairing (A1,A2), (A3,A4), ..., or None."""
    if spec.klass != "semisimple" or len(spec.modes) % 2:
        return None
    try:
        return polar_transform(rg, [(a, a + 1) for a in range(0, len(spec.modes), 2)])
    except PolarPairingError:
        return None


def sample_points(rng, dim, real=False):
    """Random states plus one made of signed zeros."""
    pts = []
    for _ in range(3):
        z = rng.normal(size=dim) + (0 if real else 1j) * rng.normal(size=dim)
        pts.append(np.asarray(z, dtype=complex))
    pts.append(np.array([complex(-0.0, 0.0) if j % 2 else complex(0.0, -0.0)
                         for j in range(dim)]))
    return pts


TIMES = [np.float64(x) for x in (0.0, 0.37, -2.5, 13.125)]


class TestGeneratedFieldsMatchReference:
    """Every generated field is bit-equal to the interpreted closure it replaced."""

    @pytest.fixture(scope="class")
    def built(self):
        out = {}
        for case in FIELD_CASES:
            spec = field_case_spec(case)
            table = expand_table(spec)
            rg = derive_rg(table)
            out[case] = (spec, rg, renormalized_expansion(table), polar_of(spec, rg))
        return out

    def test_polar_cases(self, built):
        assert [c for c in FIELD_CASES if built[c][3] is not None] == POLAR_CASES
        assert built["ex_oscillators"][3].npairs == 2
        assert built["params"][3].param_names == ("a",)

    @pytest.mark.parametrize("case", FIELD_CASES)
    def test_direct_field(self, built, case):
        spec = built[case][0]
        rng = np.random.default_rng(len(case))
        for eps in EPS_VALUES:
            got = ode_field(spec, eps, PARAM_VALUES)
            want = reference_ode_field(spec, eps, PARAM_VALUES)
            for y in sample_points(rng, spec.n_states):
                y = list(y)
                for t in TIMES:
                    assert_bit_equal(got(t, y), want(t, y))

    @pytest.mark.parametrize("case", FIELD_CASES)
    def test_rg_field(self, built, case):
        rg = built[case][1]
        rng = np.random.default_rng(len(case))
        for eps, cut in itertools.product(EPS_VALUES, range(rg.ctx.order + 1)):
            got = rg_field(rg, eps, cut, PARAM_VALUES)
            want = reference_rg_field(rg, eps, cut, PARAM_VALUES)
            for y in sample_points(rng, len(rg.ctx.amplitudes)):
                assert_bit_equal(got(TIMES[1], y), want(TIMES[1], y))

    @pytest.mark.parametrize("case", POLAR_CASES)
    def test_polar_field(self, built, case):
        polar = built[case][3]
        rng = np.random.default_rng(len(case))
        for eps, cut in itertools.product(EPS_VALUES, range(built[case][1].ctx.order + 1)):
            got = polar_field(polar, eps, cut, PARAM_VALUES)
            want = reference_polar_field(polar, eps, cut, PARAM_VALUES)
            for y in sample_points(rng, 2 * polar.npairs, real=True):
                assert_bit_equal(got(TIMES[0], y), want(TIMES[0], y))

    @pytest.mark.parametrize("case", FIELD_CASES)
    def test_reconstruction_field(self, built, case):
        ren = built[case][2]
        rng = np.random.default_rng(len(case))
        for eps, cut in itertools.product(EPS_VALUES, range(ren.ctx.order + 1)):
            got = reconstruction_field(ren, eps, cut, PARAM_VALUES)
            want = reference_reconstruction(ren, eps, cut, PARAM_VALUES)
            for amps in sample_points(rng, len(ren.ctx.amplitudes)):
                for t in TIMES:
                    assert_bit_equal(got(t, amps), want(t, amps))

    @pytest.mark.parametrize("case", POLAR_CASES)
    def test_reconstruction_field_from_polar(self, built, case):
        ren, pairs = built[case][2], built[case][3].npairs
        rng = np.random.default_rng(len(case))
        for eps, cut in itertools.product(EPS_VALUES, range(ren.ctx.order + 1)):
            got = reconstruction_field(ren, eps, cut, PARAM_VALUES, pairs=pairs)
            want = reference_reconstruction(ren, eps, cut, PARAM_VALUES)
            for y in sample_points(rng, 2 * pairs, real=True):
                for t in TIMES:
                    assert_bit_equal(got(t, y),
                                     want(t, reference_amplitudes_from_polar(y, pairs)))


    def test_long_sum_compiles_in_order(self):
        # far more terms than CPython compiles as one nested expression
        g = numeric._StraightLine()
        rng = np.random.default_rng(5)
        coeffs = [complex(z) for z in rng.normal(size=5000) + 1j * rng.normal(size=5000)]
        y0 = g.local("y[0]")
        total = g.sum("0j", [[g.const(c), y0] for c in coeffs])
        y = np.array([0.3 - 1.1j])
        want = 0j
        for c in coeffs:
            want += c * y[0]
        assert_bit_equal(g.function("t, y", total)(0.0, y), want)


class TestGeneratedTrajectoriesMatchReference:
    """Short runs through the public integrators, against the reference fields."""

    @pytest.mark.parametrize("name,y0", [
        ("ex_cd", [0.3 + 0.2j, 0.3 - 0.2j]),
        ("ex_bt", [0.4 - 0.1j, -0.2 + 0.3j]),
        ("ex_third", [0.5 + 0j, 0.1j, -0.2 + 0j]),
    ])
    def test_integrate_ode(self, name, y0):
        spec = load_builtin(name)
        params = {p: PARAM_VALUES[p] for p in spec.params}
        got = integrate_ode(spec, y0, 0.25, 1.0, 0.01, params)
        ref = reference_ode_field(spec, 0.25, params)
        # the generated field in the reference loop, the reference field in
        # the generated loop, and the two references together
        for want in (reference_rk4_integrate(ode_field(spec, 0.25, params), y0, 0.0, 1.0, 0.01),
                     rk4_integrate(ref, y0, 0.0, 1.0, 0.01),
                     reference_rk4_integrate(ref, y0, 0.0, 1.0, 0.01)):
            assert got.times == want.times
            assert_bit_equal(got.states, want.states)

    @pytest.mark.parametrize("name", ["ex_cd", "ex_bt", "ex_oscillators"])
    def test_integrate_rg(self, name):
        spec = load_builtin(name)
        params = {p: PARAM_VALUES[p] for p in spec.params}
        rg = derive_rg(expand_table(spec))
        a0 = np.linspace(0.2, 0.5, len(rg.ctx.amplitudes)) * (1 + 0.5j)
        got = integrate_rg(rg, a0, 0.25, 1.0, 0.01, 2, params)
        want = rk4_integrate(reference_rg_field(rg, 0.25, 2, params), a0, 0.0, 1.0, 0.01)
        assert_bit_equal(got.states, want.states)

    @pytest.mark.parametrize("name,pairs", [("ex_cd", 1), ("ex_oscillators", 2)])
    def test_integrate_polar_and_reconstruct(self, name, pairs):
        spec = load_builtin(name)
        table = expand_table(spec)
        polar = polar_transform(derive_rg(table), [(2 * a, 2 * a + 1) for a in range(pairs)])
        ren = renormalized_expansion(table)
        start = [1.3, 0.8][:pairs] + [2.1, -0.4][:pairs]
        got = integrate_polar(polar, start[:pairs], start[pairs:], 0.25, 1.0, 0.01, 4)
        want = rk4_integrate(reference_polar_field(polar, 0.25, 4, {}),
                             np.array(start, dtype=complex), 0.0, 1.0, 0.01)
        assert_bit_equal(got.states, want.states)
        recon = reconstruct(ren, got, 0.25, pairs=pairs, eps_order=2)
        values = reference_reconstruction(ren, 0.25, 2, {})
        expect = [values(t, reference_amplitudes_from_polar(y, pairs))
                  for t, y in zip(got.times, got.states)]
        assert_bit_equal(recon.states, expect)

    @pytest.mark.parametrize("eps,r0,theta0,ren_order", [
        (0.25, 1.3, 2.1, 2), (0.1, 0.7, -1.3, 4),
        # harmonics at t = 0 are complex(1.0, +-0.0); these put exact zeros
        # into the amplitudes and the terms, where a signed zero could show
        (0.25, 1.3, 0.0, 2), (0.25, 1.3, math.pi, 2), (0.1, 0.7, -math.pi, 3),
        (0.25, 1.3, 2.1, 0), (0.25, 1.3, 0.0, 0), (0.1, 0.7, -1.3, 5),
        (0.0, 1.3, 2.1, 3), (0.25, 0.0, 0.0, 2), (-0.3, -0.9, math.pi / 2, 1),
    ])
    def test_initial_state(self, eps, r0, theta0, ren_order):
        spec = load_builtin("ex_cd")
        out = simulate_conjugate_pair(spec, eps, r0, theta0, t_end=0.05, ren_order=ren_order)
        ren = renormalized_expansion(expand_semisimple(spec))
        assert_bit_equal(out["initial_state"],
                         reference_initial_state(ren, eps, ren_order, r0, theta0))


# --------------------------------------------------------------------------
# The generated stepper against the reference loop
# --------------------------------------------------------------------------

def linear_field(matrix, offset):
    """f(t, y) = matrix y + offset, summed row by row in a fixed order."""
    def f(t, y):
        out = []
        for row, b in zip(matrix, offset):
            acc = b
            for m, v in zip(row, y):
                acc += m * v
            out.append(acc)
        return out

    return f


def squaring_field(scale):
    """f(t, y) = scale * y**2: complex ** raises OverflowError past the range."""
    return lambda t, y: [scale * v ** 2 for v in y]


FINITE = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
COMPLEX = st.builds(complex, FINITE, FINITE)


def run_or_message(integrate, f, y0, dt):
    try:
        return integrate(f, y0, 0.0, 0.5, dt).states
    except NumericOverflowError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 6), dt=st.sampled_from([0.01, 0.05, 0.125]),
       kind=st.sampled_from(["linear", "overflow", "non-finite"]))
def test_stepper_matches_reference(data, n, dt, kind):
    y0 = data.draw(st.lists(COMPLEX, min_size=n, max_size=n))
    if kind == "linear":
        matrix = data.draw(st.lists(st.lists(COMPLEX, min_size=n, max_size=n),
                                    min_size=n, max_size=n))
        f = linear_field(matrix, data.draw(st.lists(COMPLEX, min_size=n, max_size=n)))
    elif kind == "overflow":
        # blows up in finite time; ** raises OverflowError on the way
        y0 = [v + 1e100 for v in y0]
        f = squaring_field(data.draw(st.sampled_from([1.0, 1e50, 1e150])))
    else:
        # a linear growth that reaches inf without raising
        f = linear_field([[1e300 if i == j else 0j for j in range(n)] for i in range(n)],
                         [1 + 0j] * n)
    got = run_or_message(rk4_integrate, f, y0, dt)
    want = run_or_message(reference_rk4_integrate, f, y0, dt)
    if kind != "linear":
        assert isinstance(want, str)
    if isinstance(want, str):
        assert got == want
    else:
        assert_bit_equal(got, want)


def test_stepper_calls_the_field_four_times_per_step(monkeypatch):
    """The RHS passed to rk4_integrate is called 4 times per step, as a tracer counts."""
    calls = []
    inner = numeric.rk4_integrate

    def counting(f, *args, **kwargs):
        def field(t, y):
            calls.append(t)
            return f(t, y)

        return inner(field, *args, **kwargs)

    monkeypatch.setattr(numeric, "rk4_integrate", counting)
    simulate_conjugate_pair(load_builtin("ex_cd"), 0.25, 1.3, 2.1, t_end=1.0, dt=0.01)
    assert len(calls) == 2 * 4 * 100
