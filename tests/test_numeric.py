import json
import math

import numpy as np
import pytest

from rgperturb.systems import parse_spec, oscillator_to_firstorder
from rgperturb.engine import expand_semisimple
from rgperturb.renorm import derive_rg, renormalized_expansion
from rgperturb.numeric import (
    Trajectory,
    rk4_integrate,
    integrate_ode,
    integrate_rg,
    reconstruct,
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
        assert sup_deviation(traj.states, exact) < 1e-7

    def test_fourth_order_convergence(self):
        spec = make_spec(**{"class": "semisimple", "linear_part": [1], "V": ["0"], "order": 1})
        y0 = np.array([1.0 + 0j])

        def error(dt):
            traj = integrate_ode(spec, y0, 0.0, 2.0, dt)
            exact = np.exp(1j * traj.times)
            return sup_deviation(traj.states[:, 0], exact)

        ratio = error(0.02) / error(0.01)
        assert 14 <= ratio <= 18

    def test_overflow_aborts(self):
        spec = make_spec(**{"class": "semisimple", "linear_part": [0], "V": ["y1^2"], "order": 1})
        with pytest.raises(NumericOverflowError):
            integrate_ode(spec, np.array([10.0 + 0j]), 1.0, 2.0, 0.01)

    def test_scalar_companion_form(self):
        # dy/dt = eps (y^2 - 1) with the quadrature solution as oracle
        spec = make_spec(**{"class": "scalar", "linear_part": [[0, 1]], "V": ["y^2 - 1"], "order": 1})
        eps, a = 0.2, 0.5
        traj = integrate_ode(spec, np.array([a + 0j]), eps, 5.0, 0.005)
        ch = np.cosh(eps * traj.times)
        sh = np.sinh(eps * traj.times)
        exact = (a * ch - sh) / (ch - a * sh)
        assert sup_deviation(traj.states[:, 0], exact) < 1e-10

    def test_third_order_scalar_linear_part(self):
        # (d/dt - i)^1 (d/dt + i)^1 y = 0 is the harmonic oscillator
        spec = make_spec(**{"class": "scalar", "linear_part": [[1, 1], [-1, 1]],
                            "V": ["0"], "order": 1})
        traj = integrate_ode(spec, np.array([1.0 + 0j, 0.0j]), 0.0, 6.0, 0.01)
        exact = np.cos(traj.times)
        assert sup_deviation(traj.states[:, 0], exact) < 1e-9


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
        assert sup_deviation(traj.states, traj.states[0]) == 0.0

    def test_autonomous_reduction_matches_direct(self):
        # M=0 autonomous: the RG equation is the original system (exactly)
        spec = make_spec(**{"class": "semisimple", "linear_part": [0],
                            "V": ["y1^2 - 1"], "order": 3})
        rg = derive_rg(expand_semisimple(spec))
        y0 = np.array([0.3 + 0.1j])
        direct = integrate_ode(spec, y0, 0.2, 4.0, 0.01)
        flowed = integrate_rg(rg, y0, 0.2, 4.0, 0.01)
        assert sup_deviation(direct.states, flowed.states) < 1e-12

    def test_reconstruct_at_zero_coupling(self):
        spec = make_spec(**CD_DOC)
        table = expand_semisimple(spec)
        ren = renormalized_expansion(table)
        rg = derive_rg(table)
        a0 = np.array([0.5 + 0.25j, 0.5 - 0.25j])
        traj = integrate_rg(rg, a0, 0.0, 3.0, 0.01)
        recon = reconstruct(ren, traj, 0.0)
        expect = np.exp(1j * np.outer(traj.times, [1, -1])) * a0
        assert sup_deviation(recon.states, expect) < 1e-12


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
        q_back = (traj.component(0) - traj.component(1)) / 2j
        assert sup_deviation(q_back, ref.component(0)) < 1e-9

    def test_solution_preservation_random_forcing(self):
        # same comparison on a randomly drawn two-oscillator polynomial V
        import random
        from rgperturb.expressions import parse_expression, ast_to_vpoly
        from rgperturb.numeric import compile_vpoly

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
            compile_vpoly(ast_to_vpoly(parse_expression(s), qp_states, ()), {})
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
        q1_back = (traj.component(0) - traj.component(1)) / (2j * masses[0])
        q2_back = (traj.component(2) - traj.component(3)) / (2j * masses[1])
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
        assert polar.states[0, 0].real == pytest.approx(1.3)
        assert polar.states[0, 1].real == pytest.approx(2.1)


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
