import json

import pytest

from rgperturb.expressions import ast_to_vpoly, parse_expression
from rgperturb.systems import (
    SpecError,
    parse_spec,
    oscillator_to_firstorder,
)


EX_CD = json.dumps(
    {
        "class": "semisimple",
        "linear_part": [1, -1],
        "V": ["y1*y2 + E^-1*y2", "y1*y2 + E*y1"],
        "params": [],
        "order": 5,
    }
)

EX_BT = json.dumps(
    {
        "class": "nilpotent",
        "linear_part": {"mode": 0, "size": 2},
        "V": ["2*alpha*y1*cos(t)", "beta*y2*(mu + y1^2 + 2*cos(t))"],
        "params": ["alpha", "beta", "mu"],
        "order": 3,
    }
)

EX_THIRD = json.dumps(
    {
        "class": "scalar",
        "linear_part": [[0, 3]],
        "V": ["2*y*y''*cos(t)"],
        "params": [],
        "order": 4,
    }
)


class TestParseSpec:
    def test_semisimple_document(self):
        spec = parse_spec(EX_CD)
        assert spec.klass == "semisimple"
        assert spec.modes == (1, -1)
        assert spec.n_states == 2
        assert spec.amplitude_names == ("A1", "A2")
        assert not spec.is_autonomous()

    def test_nilpotent_document(self):
        spec = parse_spec(EX_BT)
        assert spec.params == ("alpha", "beta", "mu")
        assert spec.block_size == 2
        assert spec.block_mode == 0

    def test_scalar_document(self):
        spec = parse_spec(EX_THIRD)
        assert spec.n_states == 3
        assert spec.factors == ((0, 3),)
        assert spec.state_names == ("y", "y'", "y''")
        assert spec.amplitude_names == ("A1", "A2", "A3")

    def test_difference_document(self):
        spec = parse_spec(
            json.dumps(
                {"class": "difference", "alpha": [[2, "1"], [-2, "1"]], "order": 4, "window": 10}
            )
        )
        assert spec.klass == "difference"
        assert sorted(spec.alpha) == [-2, 2]
        assert spec.window == 10

    def test_duplicate_scalar_modes(self):
        doc = json.dumps(
            {"class": "scalar", "linear_part": [[0, 1], [0, 2]], "V": ["y"], "order": 2}
        )
        with pytest.raises(SpecError):
            parse_spec(doc)

    def test_negative_order(self):
        with pytest.raises(SpecError):
            parse_spec(json.dumps({"class": "semisimple", "linear_part": [0], "V": ["y1"], "order": -1}))

    def test_bad_expression_reported(self):
        doc = json.dumps(
            {"class": "semisimple", "linear_part": [0], "V": ["y2/(y1)"], "order": 1}
        )
        with pytest.raises(SpecError):
            parse_spec(doc)

    def test_machine_roundtrip(self):
        for doc in (EX_CD, EX_BT, EX_THIRD):
            spec = parse_spec(doc)
            again = parse_spec(json.dumps(spec.to_document(), indent=2))
            assert again.klass == spec.klass
            assert again.v_polys == spec.v_polys
            assert again.amplitude_names == spec.amplitude_names
            assert again.order == spec.order


class TestOscillator:
    def test_free_oscillator(self):
        spec = oscillator_to_firstorder([1], ["0"], (), 2)
        assert spec.klass == "semisimple"
        assert spec.modes == (1, -1)
        assert all(vp.is_zero() for vp in spec.v_polys)

    def test_coupled_oscillator_system(self):
        # q1'' + q1 + 4 eps q2 q1' = 0,  q2'' + q2 + 4 eps q1 q2' = 0
        spec = oscillator_to_firstorder([1, 1], ["-4*q2*p1", "-4*q1*p2"], (), 4)
        assert spec.modes == (1, -1, 1, -1)
        states = spec.state_names
        expect1 = ast_to_vpoly(parse_expression("i*(y1+y2)*(y3-y4)"), states, ())
        expect3 = ast_to_vpoly(parse_expression("i*(y1-y2)*(y3+y4)"), states, ())
        assert spec.v_polys[0] == expect1
        assert spec.v_polys[1] == expect1
        assert spec.v_polys[2] == expect3
        assert spec.v_polys[3] == expect3

    def test_rendered_sources_reparse(self):
        spec = oscillator_to_firstorder([1, 2], ["-q1^3 + q2", "q1*p2"], (), 3)
        for src, vp in zip(spec.v_srcs, spec.v_polys):
            assert ast_to_vpoly(parse_expression(src), spec.state_names, ()) == vp

    def test_non_integer_mass_rejected(self):
        with pytest.raises(SpecError):
            oscillator_to_firstorder([0], ["0"], (), 1)

    @pytest.mark.parametrize("mass", [True, 1.0])
    def test_boolean_or_float_mass_rejected(self, mass):
        with pytest.raises(SpecError, match="masses must be positive integers"):
            oscillator_to_firstorder([mass], ["0"], (), 1)

    def test_oscillator_document(self):
        doc = json.dumps(
            {"class": "oscillator", "masses": [1, 1], "V": ["-4*q2*p1", "-4*q1*p2"], "order": 4}
        )
        spec = parse_spec(doc)
        assert spec.klass == "semisimple"
        assert spec.n_states == 4
