import io
import json
import os
import random
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rgperturb.gaussrat import gq, ONE
from rgperturb.poly import (
    PolyContext,
    MultiPoly,
    HarmonicSeries,
    PolyError,
    Substitution,
    resolve_shift,
    from_expression,
    hs_pow,
)


@pytest.fixture
def ctx():
    return PolyContext(("A1", "A2"), order=6)


def P(ctx, src):
    return from_expression(ctx, src)


def random_poly(ctx, rng, nterms=4, maxdeg=2):
    p = ctx.zero()
    for _ in range(rng.randint(1, nterms)):
        exps = [0] * ctx.nvars
        exps[0] = rng.randint(0, min(2, ctx.order))
        for i in range(1, ctx.nvars):
            exps[i] = rng.randint(0, maxdeg)
        c = gq(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
               Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        p = p + ctx.monomial(c, exps) if not c.is_zero() else p
    return p


class TestMul:
    def test_product(self, ctx):
        assert P(ctx, "A1 + eps*t") * P(ctx, "A2") == P(ctx, "A1*A2 + eps*t*A2")

    def test_truncation(self, ctx):
        assert (ctx.var("eps", ctx.order) * ctx.var("t")) * ctx.var("eps") == ctx.zero()

    def test_difference_of_squares(self, ctx):
        assert P(ctx, "(A1 - 1)*(A1 + 1)") == P(ctx, "A1^2 - 1")

    def test_context_mismatch(self, ctx):
        other = PolyContext(("B",), order=6)
        with pytest.raises(PolyError):
            ctx.one() * other.one()

    def test_ring_axioms_randomized(self, ctx):
        rng = random.Random(7)
        for _ in range(40):
            a, b, c = (random_poly(ctx, rng) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a


class TestCalculus:
    def test_diff(self, ctx):
        assert P(ctx, "t^3/6").diff_t() == P(ctx, "t^2/2")
        assert ctx.var("A1").diff_t() == ctx.zero()
        assert P(ctx, "eps*t^2*A2").diff_t() == P(ctx, "2*eps*t*A2")

    def test_antidiff(self, ctx):
        assert P(ctx, "t^2").antidiff_t() == P(ctx, "t^3/3")
        assert P(ctx, "A1*A2").antidiff_t() == P(ctx, "A1*A2*t")
        assert ctx.zero().antidiff_t() == ctx.zero()

    def test_diff_antidiff_inverse_randomized(self, ctx):
        rng = random.Random(11)
        for _ in range(40):
            p = random_poly(ctx, rng)
            assert p.antidiff_t().diff_t() == p

    def test_triple_antidiff(self, ctx):
        p = ctx.const(gq(1))
        for _ in range(3):
            p = p.antidiff_t()
        assert p == P(ctx, "t^3/6")


class TestResolveShift:
    def test_reference_values(self, ctx):
        # dP/dt - 3i P = A2  ->  P = i A2 / 3
        assert resolve_shift(gq(0, -3), ctx.var("A2")) == P(ctx, "i*A2/3")
        # dP/dt - i P = A1 A2  ->  P = i A1 A2
        assert resolve_shift(gq(0, -1), P(ctx, "A1*A2")) == P(ctx, "i*A1*A2")

    def test_real_shift(self, ctx):
        assert resolve_shift(ONE, ctx.var("t")) == P(ctx, "t - 1")

    def test_zero_shift_rejected(self, ctx):
        with pytest.raises(PolyError):
            resolve_shift(gq(0), ctx.one())

    def test_defining_equation_randomized(self, ctx):
        rng = random.Random(13)
        for _ in range(40):
            r = random_poly(ctx, rng)
            c = gq(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                   Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
            if c.is_zero():
                continue
            p = resolve_shift(c, r)
            assert p.diff_t() + p.scale(c) == r


class TestSubstitute:
    def test_identity_binding(self, ctx):
        p = P(ctx, "A1 + eps*t*A1^2")
        assert p.substitute({"A1": ctx.var("A1")}) == p

    def test_shift_and_renormalize(self):
        # one step of the functional-relation mechanism at order eps
        ctx = PolyContext(("A",), order=1)
        p = P(ctx, "A + eps*t*A^2")
        shifted = p.substitute(
            {"t": P(ctx, "t - s"), "A": P(ctx, "A + eps*s*A^2")}
        )
        assert shifted == p

    def test_binomial_shift(self, ctx):
        p = ctx.var("t", 2)
        assert p.substitute({"t": P(ctx, "t - s")}) == P(ctx, "t^2 - 2*t*s + s^2")

    def test_unknown_symbol(self, ctx):
        with pytest.raises(PolyError):
            ctx.one().substitute({"Q9": ctx.one()})

    def test_homomorphism_randomized(self, ctx):
        rng = random.Random(17)
        for _ in range(25):
            a, b = random_poly(ctx, rng), random_poly(ctx, rng)
            img = {"A1": random_poly(ctx, rng), "t": random_poly(ctx, rng)}
            assert (a + b).substitute(img) == a.substitute(img) + b.substitute(img)
            assert (a * b).substitute(img) == a.substitute(img) * b.substitute(img)


def reference_substitute(p, bindings):
    """Term-by-term substitution, each power of an image built at the full order.

    The original form of `MultiPoly.substitute`, kept as the reference that
    the grouped, eps-aware `Substitution` must reproduce exactly.
    """
    ctx = p.ctx
    idx_bound = {ctx.index(name): img for name, img in bindings.items()}
    pow_cache = {}

    def img_pow(i, k):
        if (i, k) not in pow_cache:
            pow_cache[i, k] = idx_bound[i].pow(k)
        return pow_cache[i, k]

    out = ctx.zero()
    for e, c in p.terms.items():
        base = list(e)
        factors = []
        for i in idx_bound:
            if e[i]:
                base[i] = 0
                factors.append(img_pow(i, e[i]))
        term = MultiPoly(ctx, {tuple(base): c})
        for f in factors:
            term = term * f
        out = out + term
    return out


class TestSubstitutionMatchesReference:
    """The grouped substitution equals the term-by-term reference."""

    SYMBOLS = ("t", "s", "A1", "A2", "p")

    @staticmethod
    @st.composite
    def cases(draw):
        K = draw(st.integers(0, 4))
        ctx = PolyContext(("A1", "A2"), ("p",), order=K)
        coeff = st.builds(
            lambda a, b, c, d: gq(Fraction(a, b), Fraction(c, d)),
            st.integers(-3, 3), st.integers(1, 3), st.integers(-3, 3), st.integers(1, 3),
        )

        def poly(maxdeg, nterms):
            p = ctx.zero()
            for _ in range(draw(st.integers(0, nterms))):
                exps = [draw(st.integers(0, K))]
                exps += [draw(st.integers(0, maxdeg)) for _ in range(ctx.nvars - 1)]
                p = p + ctx.monomial(draw(coeff), exps)
            return p

        bindings = {}
        for name in TestSubstitutionMatchesReference.SYMBOLS:
            kinds = ["free", "image", "const"] + (["shift"] if name == "t" else [])
            kind = draw(st.sampled_from(kinds))
            if kind == "image":  # may carry eps, t, s and any symbol
                bindings[name] = poly(maxdeg=1, nterms=3)
            elif kind == "const":
                bindings[name] = ctx.const(draw(coeff))
            elif kind == "shift":
                bindings[name] = ctx.var("t") - ctx.var("s")
        polys = [poly(maxdeg=3, nterms=6) for _ in range(draw(st.integers(1, 4)))]
        return ctx, bindings, polys

    @settings(max_examples=150, deadline=None)
    @given(cases())
    def test_random_polys(self, case):
        ctx, bindings, polys = case
        sub = Substitution(ctx, bindings)  # reused across the polys
        for p in polys:
            expect = reference_substitute(p, bindings)
            assert sub(p) == expect
            assert p.substitute(bindings) == expect

    def test_eps_carrying_image_at_the_cut(self):
        # eps^(K-1) * A1^2 may use the image of A1^2 only up to eps^1
        ctx = PolyContext(("A1", "A2"), order=4)
        bindings = {"A1": P(ctx, "A1 + eps*t*A1^2 + eps^2*A2 + eps^4")}
        p = P(ctx, "eps^3*A1^2 + eps^4*A1 + A1^3 + t")
        sub = Substitution(ctx, bindings)
        assert sub(p) == reference_substitute(p, bindings)
        assert sub(p) == sub(p)

    def test_no_bindings_and_bad_bindings(self, ctx):
        p = P(ctx, "A1 + eps*t")
        assert Substitution(ctx, {})(p) == p
        with pytest.raises(PolyError):
            Substitution(ctx, {"eps": ctx.one()})
        with pytest.raises(PolyError):
            Substitution(ctx, {"A1": PolyContext(("B",), order=6).one()})
        with pytest.raises(PolyError):
            Substitution(ctx, {"A1": ctx.one()})(PolyContext(("B",), order=6).one())

    @pytest.mark.parametrize("name", ["ex_bt", "ex_cd", "ex_oscillators", "ex_scalar1", "ex_third"])
    def test_builtin_tables(self, name):
        from rgperturb.demos import load_builtin
        from rgperturb.engine import expand_table
        from rgperturb.renorm import invert_amplitudes, renormalized_amplitudes

        table = expand_table(load_builtin(name), label=name)
        ctx = table.ctx
        t, s = ctx.var("t"), ctx.var("s")
        amps = renormalized_amplitudes(table)
        amps_s = {a: reference_substitute(p, {"t": s}) for a, p in amps.items()}
        inv = invert_amplitudes(table)
        entries = [p for comp in table.components for p in comp.entries.values()]
        for bindings, polys in (
            (dict(amps_s, t=t - s), entries),  # functional relation
            ({"t": s}, amps.values()),  # group property
            ({"t": t + s}, amps.values()),
            (amps, amps_s.values()),
            (amps, inv.values()),  # inversion
            (inv, amps.values()),
        ):
            sub = Substitution(ctx, bindings)
            for p in polys:
                assert sub(p) == reference_substitute(p, bindings)


# exact zeros, small values and 64-bit-tall parts of both signs
rationals = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
    st.builds(Fraction, st.integers(-2 ** 64, 2 ** 64), st.integers(1, 2 ** 64)),
)
gaussians = st.builds(gq, rationals, rationals)


class TestRingLaws:
    """Q(i), and MultiPoly at a common eps-cut, obey the commutative ring laws."""

    @settings(max_examples=200, deadline=None)
    @given(gaussians, gaussians, gaussians)
    def test_gaussian_rationals(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x + y == y + x and x * y == y * x
        assert x * (y + z) == x * y + x * z
        assert (x + -x).is_zero() and (x - y) + y == x
        if not x.is_zero():
            assert (x * (ONE / x)).is_one() and (y / x) * x == y

    @staticmethod
    @st.composite
    def poly_triples(draw):
        K = draw(st.integers(0, 4))
        ctx = PolyContext(("A1",), ("p",), order=K)

        def poly():
            p = ctx.zero()
            for _ in range(draw(st.integers(0, 5))):
                exps = [draw(st.integers(0, K))]
                exps += [draw(st.integers(0, 2)) for _ in range(ctx.nvars - 1)]
                p = p + ctx.monomial(draw(gaussians), exps)
            return p

        return draw(st.integers(0, K)), poly(), poly(), poly()

    @settings(max_examples=150, deadline=None)
    @given(poly_triples())
    def test_multipoly(self, case):
        cut, p, q, r = case
        assert p.mul(q, cut).mul(r, cut) == p.mul(q.mul(r, cut), cut)
        assert p.mul(q + r, cut) == p.mul(q, cut) + p.mul(r, cut)
        assert p.mul(q, cut) == q.mul(p, cut)


class TestMachineRoundtrip:
    """`expand --format machine` parses back and re-renders byte-identically."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["semisimple", "nilpotent", "scalar"]), st.integers(0, 10 ** 6),
           st.builds(Fraction, st.integers(-2 ** 64, 2 ** 64).filter(bool),
                     st.integers(1, 2 ** 64)))
    def test_random_specs(self, klass, seed, factor):
        from rgperturb.checks import random_spec
        from rgperturb.cli import main, table_from_machine, table_to_machine
        from rgperturb.engine import SecularTable

        doc = random_spec(klass, seed).to_document()
        doc["V"] = [f"({factor})*({v})" for v in doc["V"]]  # tall coefficients
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "spec.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            buf = io.StringIO()
            with redirect_stdout(buf):
                assert main(["expand", "--spec", path, "--format", "machine"]) == 0
        out = buf.getvalue()
        spec, ctx, comps = table_from_machine(out)
        resonant = [(j - 1, m) for j, m in json.loads(out)["resonant"]]
        table = SecularTable(spec, ctx, comps, resonant)
        assert json.dumps(table_to_machine(table), indent=2) + "\n" == out


class TestEval:
    def test_eval_values(self, ctx):
        p = P(ctx, "i*A1*A2*eps")
        v = p.eval_complex({"A1": 1, "A2": 1, "eps": 0.25})
        assert abs(v - 0.25j) < 1e-15
        assert ctx.var("t", 2).eval_complex({"t": 3}) == 9
        assert P(ctx, "A1^2 - 1").eval_complex({"A1": 1}) == 0

    def test_unbound(self, ctx):
        with pytest.raises(PolyError):
            ctx.var("A1").eval_complex({"A2": 1})


class TestRendering:
    def test_canonical_strings(self, ctx):
        assert P(ctx, "A1*A2 - t").render() == "-t + A1*A2"
        assert ctx.zero().render() == "0"
        assert P(ctx, "i*A2*eps/3").render() == "1/3*i*eps*A2"

    def test_equality_is_structural(self, ctx):
        assert P(ctx, "A1 + A2") == P(ctx, "A2 + A1")


class TestHarmonicSeries:
    def test_convolution(self, ctx):
        x = HarmonicSeries.single(1, ctx.var("A1"))
        y = HarmonicSeries.single(-1, ctx.var("A2"))
        assert x * y == HarmonicSeries.single(0, P(ctx, "A1*A2"))

    def test_carrier_shift(self, ctx):
        one = HarmonicSeries.single(-1, ctx.one())
        y2 = HarmonicSeries.single(-1, ctx.var("A2"))
        assert one * y2 == HarmonicSeries.single(-2, ctx.var("A2"))

    def test_absorbing_zero(self, ctx):
        x = HarmonicSeries.single(2, ctx.var("A1"))
        assert (x * HarmonicSeries.zero(ctx)).is_zero()

    def test_time_derivative(self, ctx):
        x = HarmonicSeries.single(2, P(ctx, "t*A1"))
        d = x.time_derivative()
        assert d == HarmonicSeries.single(2, P(ctx, "A1 + 2*i*t*A1"))

    def test_finite_support_under_growth(self, ctx):
        # inputs whose minimal eps-order grows with |m| keep that property
        x = HarmonicSeries(ctx, {m: ctx.var("eps", abs(m)) for m in range(-2, 3)})
        y = x * x
        for m, p in y.entries.items():
            assert p.min_eps_order() >= max(abs(m) - 2, 0)
        assert hs_pow(x, 3).get(12).is_zero()
