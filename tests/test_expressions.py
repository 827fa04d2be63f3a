import cmath
import random
from fractions import Fraction

import pytest

from rgperturb.expressions import (
    parse_expression,
    render_expression,
    ast_to_vpoly,
    ExprSyntaxError,
    ExprSemanticError,
    Rat,
    ImagUnit,
    EpsSym,
    Carrier,
    Name,
    Add,
    Sub,
    Mul,
    Div,
    Pow,
    Neg,
)


def vp(src, states=("y1", "y2", "y3", "y4"), params=()):
    return ast_to_vpoly(parse_expression(src), states, params)


class TestParse:
    def test_coupled_oscillator_forcing(self):
        ast = parse_expression("i*(y1+y2)*(y3-y4)")
        assert ast == Mul(
            Mul(ImagUnit(), Add(Name("y1"), Name("y2"))),
            Sub(Name("y3"), Name("y4")),
        )

    def test_scalar_forcing(self):
        ast = parse_expression("y^2 - 1")
        assert ast == Sub(Pow(Name("y"), 2), Rat(Fraction(1)))

    def test_division_by_state_rejected(self):
        with pytest.raises(ExprSemanticError):
            vp("y2/(y1)")

    def test_division_by_eps_rejected(self):
        with pytest.raises(ExprSemanticError):
            vp("y1/eps")

    def test_syntax_error_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expression("y1 + * y2")
        assert err.value.pos == 5

    def test_negative_carrier_power(self):
        p = vp("E^-2")
        assert list(p.entries) == [-2]
        assert list(p.entries[-2].terms) == [(0,) * 7]  # eps, t, s, y1..y4

    def test_negative_state_power_rejected(self):
        with pytest.raises(ExprSemanticError):
            vp("y1^-1")

    def test_unknown_symbol(self):
        with pytest.raises(ExprSemanticError):
            vp("z9 + y1")

    def test_primes_and_params(self):
        p = ast_to_vpoly(
            parse_expression("2*beta*y''*(mu + y^2)"),
            ("y", "y'", "y''"),
            ("beta", "mu"),
        )
        assert list(p.entries) == [0] and len(p.entries[0].terms) == 2


class TestTrigSugar:
    def test_cos_desugars(self):
        assert vp("cos(t)") == vp("(E + E^-1)/2")
        assert vp("cos(3*t)") == vp("(E^3 + E^-3)/2")
        assert vp("cos(2t)") == vp("(E^2 + E^-2)/2")

    def test_sin_desugars(self):
        assert vp("sin(t)") == vp("(E - E^-1)/(2*i)")
        assert vp("2*cos(t)") == vp("E + E^-1")

    def test_trig_requires_t(self):
        with pytest.raises(ExprSyntaxError):
            parse_expression("cos(y1)")


def random_ast(rng, depth=0):
    atoms = [
        lambda: Rat(Fraction(rng.randint(0, 5))),
        lambda: ImagUnit(),
        lambda: EpsSym(),
        lambda: Carrier(),
        lambda: Name(rng.choice(["y1", "y2", "alpha"])),
    ]
    if depth > 3:
        return rng.choice(atoms)()
    roll = rng.random()
    if roll < 0.4:
        return rng.choice(atoms)()
    if roll < 0.55:
        return Add(random_ast(rng, depth + 1), random_ast(rng, depth + 1))
    if roll < 0.7:
        return Sub(random_ast(rng, depth + 1), random_ast(rng, depth + 1))
    if roll < 0.85:
        return Mul(random_ast(rng, depth + 1), random_ast(rng, depth + 1))
    if roll < 0.95:
        base = random_ast(rng, depth + 1)
        n = rng.choice([-2, -1, 0, 2, 3])
        return Pow(base, n)
    return Div(random_ast(rng, depth + 1), Rat(Fraction(rng.randint(1, 7))))


class TestRoundTrip:
    def test_parse_render_identity_randomized(self):
        rng = random.Random(101)
        count = 0
        while count < 120:
            ast = random_ast(rng)
            count += 1
            assert parse_expression(render_expression(ast)) == ast

    def test_negation_head(self):
        ast = parse_expression("-y1*y2 + eps")
        assert parse_expression(render_expression(ast)) == ast


class TestEvalConsistency:
    def eval_ast(self, node, env):
        if isinstance(node, Rat):
            return complex(node.value)
        if isinstance(node, ImagUnit):
            return 1j
        if isinstance(node, EpsSym):
            return env["eps"]
        if isinstance(node, Carrier):
            return env["E"]
        if isinstance(node, Name):
            return env[node.name]
        if isinstance(node, Neg):
            return -self.eval_ast(node.operand, env)
        if isinstance(node, Add):
            return self.eval_ast(node.lhs, env) + self.eval_ast(node.rhs, env)
        if isinstance(node, Sub):
            return self.eval_ast(node.lhs, env) - self.eval_ast(node.rhs, env)
        if isinstance(node, Mul):
            return self.eval_ast(node.lhs, env) * self.eval_ast(node.rhs, env)
        if isinstance(node, Div):
            return self.eval_ast(node.lhs, env) / self.eval_ast(node.rhs, env)
        if isinstance(node, Pow):
            return self.eval_ast(node.base, env) ** node.exponent
        raise TypeError(node)

    def eval_vpoly(self, p, env, states, params):
        total = 0j
        for l, poly in p.entries.items():
            for e, c in poly.terms.items():
                v = complex(c) * env["E"] ** l
                for name, k in zip(poly.ctx.symbols, e):
                    if k:
                        v *= env[name] ** k
                total += v
        return total

    def test_expansion_matches_direct_evaluation(self):
        rng = random.Random(202)
        states, params = ("y1", "y2"), ("alpha",)
        srcs = [
            "i*(y1+y2)^2 - eps*E^-1*y2 + alpha",
            "(y1 - 2*y2)*(y1 + 2*y2)*cos(2*t)",
            "sin(t)*y1^3 + eps^2*(1/3 + 2*i)*y2",
            "-y1*y2 + 3/4*E^2",
        ]
        for src in srcs:
            ast = parse_expression(src)
            p = ast_to_vpoly(ast, states, params)
            for _ in range(5):
                t = rng.uniform(0, 6.28)
                env = {
                    "eps": rng.uniform(0, 1),
                    "E": cmath.exp(1j * t),
                    "t": t,
                    "y1": complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                    "y2": complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                    "alpha": rng.uniform(-2, 2),
                }
                direct = self.eval_ast(ast, env)
                expanded = self.eval_vpoly(p, env, states, params)
                assert abs(direct - expanded) < 1e-12
