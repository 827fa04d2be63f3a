import io
import json
import os
import random
import struct
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from rgperturb.gaussrat import gq, ONE
from rgperturb.poly import (
    FIELD,
    MAX_EXP,
    Evaluator,
    PolyContext,
    MultiPoly,
    HarmonicSeries,
    PolyError,
    Substitution,
    resolve_shift,
    from_expression,
    hs_pow,
    sum_of_products,
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

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_closed_form_matches_reference(self, data):
        # t-degrees up to 6 put several terms of rhs on each output key
        ctx = data.draw(TestPackedKeys.contexts())
        rhs = TestPackedKeys.polys(data.draw, ctx, nterms=8, maxdeg=6)
        c = data.draw(st.sampled_from(TestPackedKeys.UNITS + (gq(0, 3), gq(Fraction(-7, 2)))))
        assert resolve_shift(c, rhs) == reference_resolve_shift(c, rhs)


def reference_resolve_shift(c, rhs):
    """The route `resolve_shift` replaced: P = sum_k (-1)^k c^(-k-1) d^k rhs/dt^k,
    one diff, scale and add per k."""
    inv = ONE / c
    out = rhs.ctx.zero()
    factor = inv
    cur = rhs
    while not cur.is_zero():
        out = out + cur.scale(factor)
        cur = cur.diff_t()
        factor = -(factor * inv)
    return out


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
        term = ctx.monomial(c, base)
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
        assert json.dumps(table_to_machine(table), indent=2, default=poly_data) + "\n" == out


def poly_data(p):
    """A polynomial's machine-format value: [[exponents], [re, im]] per term."""
    return [[list(e), [str(c.re), str(c.im)]] for e, c in p.sorted_terms()]


def reference_eval_complex(p: MultiPoly, values: dict) -> complex:
    """The per-term evaluation `Evaluator` replaced: terms in packed-key order,
    each coefficient times its bound powers in symbol order, summed from 0j."""
    ctx = p.ctx
    bound = [None] * ctx.nvars
    for name, v in values.items():
        bound[ctx.index(name)] = complex(v)
    total = 0j
    for e, c in sorted(p.terms.items()):
        v = complex(c)
        for i, k in enumerate(e):
            if k:
                if bound[i] is None:
                    raise PolyError(f"unbound symbol {ctx.symbols[i]!r}")
                v *= bound[i] ** k
        total += v
    return total


def bits(z: complex) -> bytes:
    """The IEEE bits of both parts, so -0.0 differs from 0.0 and NaN equals itself."""
    return struct.pack("<dd", z.real, z.imag)


class TestEval:
    def test_eval_values(self, ctx):
        for evaluate in (lambda p, v: Evaluator(ctx, [p])(v)[0], reference_eval_complex):
            p = P(ctx, "i*A1*A2*eps")
            v = evaluate(p, {"A1": 1, "A2": 1, "eps": 0.25})
            assert abs(v - 0.25j) < 1e-15
            assert evaluate(ctx.var("t", 2), {"t": 3}) == 9
            assert evaluate(P(ctx, "A1^2 - 1"), {"A1": 1}) == 0

    def test_unbound(self, ctx):
        for evaluate in (lambda p, v: Evaluator(ctx, [p])(v), reference_eval_complex):
            with pytest.raises(PolyError, match="unbound symbol 'A1'"):
                evaluate(ctx.var("A1"), {"A2": 1})

    def test_one_list_many_points(self, ctx):
        polys = [P(ctx, "A1^2*t - 2*eps*A2"), ctx.zero(), P(ctx, "(1/3 + i)*A1^2 + A2^3*s")]
        values = Evaluator(ctx, polys)
        for point in ({"A1": 0.5j, "A2": -1, "t": 2, "s": 0.25, "eps": 0.1},
                      {"A1": -0.0, "A2": 3 - 1j, "t": -0.0, "s": 1, "eps": 0.2}):
            assert list(map(bits, values(point))) == [
                bits(reference_eval_complex(p, point)) for p in polys]

    def test_out_of_range_coefficient(self, ctx):
        huge = ctx.const(gq(Fraction(10 ** 400, 3)))
        with pytest.raises(OverflowError):
            Evaluator(ctx, [huge])({})
        with pytest.raises(OverflowError):
            reference_eval_complex(huge, {})

    # big numerators and denominators; parts of +-0.0 and of mixed sign and size
    BIG = st.integers(-(1 << 900), 1 << 900)
    PART = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                     st.floats(-3, 3, allow_nan=False, allow_infinity=False))

    @staticmethod
    @st.composite
    def lists_and_points(draw):
        ctx = draw(TestPackedKeys.contexts())
        coeff = st.builds(lambda a, b, d: gq(Fraction(a, d), Fraction(b, d)),
                          TestEval.BIG, TestEval.BIG, st.integers(1, 1 << 900))
        polys = []
        for _ in range(draw(st.integers(1, 3))):
            terms = {}
            for _ in range(draw(st.integers(0, 6))):
                e = tuple(draw(st.integers(0, ctx.order if i == 0 else 4))
                          for i in range(ctx.nvars))
                terms[e] = draw(coeff)
            polys.append(ctx.from_terms(terms))
        point = st.builds(complex, TestEval.PART, TestEval.PART)
        unbound = draw(st.sets(st.sampled_from(ctx.symbols), max_size=1))
        points = [{name: draw(point) for name in ctx.symbols if name not in unbound}
                  for _ in range(2)]
        return ctx, polys, points

    @settings(max_examples=300, deadline=None)
    @given(lists_and_points())
    def test_bit_identical_to_the_per_term_reference(self, case):
        ctx, polys, points = case
        values = Evaluator(ctx, polys)
        for point in points:
            try:
                want = [bits(reference_eval_complex(p, point)) for p in polys]
            except PolyError as exc:
                with pytest.raises(PolyError) as got:
                    values(point)
                assert str(got.value) == str(exc)
                continue
            assert [bits(v) for v in values(point)] == want


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
            assert min(e[0] for e in p.terms) >= max(abs(m) - 2, 0)
        assert hs_pow(x, 3).get(12).is_zero()


# -- packed keys against the tuple-keyed originals ------------------------------
#
# The reference_* functions below are the tuple-keyed forms of the MultiPoly
# operations, on {exponent tuple: coefficient} maps.  The packed operations
# must give the same term maps, with the same Q(i) products and sums; the
# ones that keep a term loop (everything but the product and the
# substitution, which go through the sum-of-products kernel) also keep its
# insertion order.


def reference_mul(a: dict, b: dict, cut: int) -> dict:
    """The original product loop: every pair visited, the cut tested per pair."""
    out = {}
    for e1, c1 in a.items():
        k1 = e1[0]
        for e2, c2 in b.items():
            if k1 + e2[0] > cut:
                continue
            key = tuple(map(int.__add__, e1, e2))
            c = c1 * c2
            acc = out.get(key)
            if acc is None:
                out[key] = c
            else:
                acc = acc + c
                if acc.is_zero():
                    del out[key]
                else:
                    out[key] = acc
    return out


def reference_add_into(out: dict, terms: dict) -> None:
    for e, c in terms.items():
        acc = out.get(e)
        if acc is None:
            out[e] = c
        else:
            acc = acc + c
            if acc.is_zero():
                del out[e]
            else:
                out[e] = acc


def reference_diff(terms: dict, i: int) -> dict:
    out = {}
    for e, c in terms.items():
        k = e[i]
        if not k:
            continue
        key = e[:i] + (k - 1,) + e[i + 1:]
        c2 = c.scale(k)
        acc = out.get(key)
        out[key] = c2 if acc is None else acc + c2
    return {e: c for e, c in out.items() if not c.is_zero()}


def reference_antidiff_t(terms: dict) -> dict:
    return {e[:1] + (e[1] + 1,) + e[2:]: c.scale(Fraction(1, e[1] + 1))
            for e, c in terms.items()}


def reference_coeff_power(terms: dict, i: int, k: int) -> dict:
    return {e[:i] + (0,) + e[i + 1:]: c for e, c in terms.items() if e[i] == k}


def reference_trunc(terms: dict, k: int) -> dict:
    return {e: c for e, c in terms.items() if e[0] <= k}


def reference_set_zero(terms: dict, i: int) -> dict:
    return {e: c for e, c in terms.items() if not e[i]}


def reference_negate_symbol(terms: dict, i: int) -> dict:
    return {e: (c if e[i] % 2 == 0 else -c) for e, c in terms.items()}


def reference_rename(terms: dict, idx: dict) -> dict:
    out = {}
    for e, c in terms.items():
        le = list(e)
        for i in idx:
            le[i] = 0
        for i, j in idx.items():
            le[j] += e[i]
        key = tuple(le)
        acc = out.get(key)
        out[key] = c if acc is None else acc + c
    return {e: c for e, c in out.items() if not c.is_zero()}


def reference_grouped_substitute(ctx, bindings: dict, terms: dict) -> dict:
    """The original grouped Substitution on tuple keys, images cached per (key, cut)."""
    bound = sorted((ctx.index(name), img.terms) for name, img in bindings.items())
    index = tuple(i for i, _ in bound)
    images = tuple(img for _, img in bound)
    cache = {}

    def image(key, cut):
        p = cache.get((key, cut))
        if p is not None:
            return p
        chain = []
        while p is None:
            j = min(k for k, n in enumerate(key) if n)
            chain.append((key, j))
            key = key[:j] + (key[j] - 1,) + key[j + 1:]
            if not any(key):
                break
            p = cache.get((key, cut))
        for key, j in reversed(chain):
            img = images[j]
            p = reference_trunc(img, cut) if p is None else reference_mul(p, img, cut)
            cache[key, cut] = p
        return p

    if not index:
        return dict(terms)
    out, groups = {}, {}
    for e, c in terms.items():
        key = tuple(e[i] for i in index)
        if not any(key):
            out[e] = c
            continue
        rest = list(e)
        for i in index:
            rest[i] = 0
        groups.setdefault(key, {})[tuple(rest)] = c
    for key, rest in groups.items():
        cut = ctx.order - min(r[0] for r in rest)
        reference_add_into(out, reference_mul(rest, image(key, cut), ctx.order))
    return out


def items(p: MultiPoly) -> list:
    return list(p.terms.items())


def cancel_and_reappear():
    """A product whose key A1^2 cancels on the fifth pair and returns on the ninth.

    The summands of A1^2 have denominators 2 and 6 (unnormalised), so the
    cancellation is found across unequal denominators.
    """
    ctx = PolyContext(("A1",), order=2)
    a1, a1sq, one = (0, 0, 0, 1), (0, 0, 0, 2), (0, 0, 0, 0)
    p = ctx.from_terms({a1: gq(Fraction(1, 2)), a1sq: gq(Fraction(-1, 3)), one: gq(1)})
    q = ctx.from_terms({a1: gq(1), one: gq(Fraction(3, 2)), a1sq: gq(Fraction(1, 6))})
    return ctx, p, q, None


def cancelling_sum():
    """Two polynomials whose A1 terms cancel and whose constants have denominators 1 and 3."""
    ctx = PolyContext(("A1",), order=2)
    a1, a1sq, one = (0, 0, 0, 1), (0, 0, 0, 2), (0, 0, 0, 0)
    p = ctx.from_terms({a1: gq(Fraction(1, 2)), one: gq(1)})
    q = ctx.from_terms({one: gq(Fraction(1, 3)), a1: gq(Fraction(-1, 2)), a1sq: gq(0, 1)})
    return ctx, p, q, None


class TestPackedKeys:
    # +-1 and +-i make cancelling sums likely; the others keep the products
    # tall, and their denominators 2, 3, 5 and 6 meet unequal on one key
    UNITS = (gq(1), gq(-1), gq(0, 1), gq(0, -1), gq(Fraction(2, 3), Fraction(-1, 5)),
             gq(Fraction(1, 2)), gq(0, Fraction(-1, 3)), gq(Fraction(5, 6), Fraction(1, 6)),
             gq(Fraction(-1, 2), Fraction(1, 2)))

    @staticmethod
    @st.composite
    def contexts(draw):
        namps = draw(st.integers(0, 3))
        nparams = draw(st.integers(0, 2))
        return PolyContext([f"A{k + 1}" for k in range(namps)],
                           [f"p{k + 1}" for k in range(nparams)],
                           order=draw(st.integers(0, 4)))

    @staticmethod
    def polys(draw, ctx, nterms=6, maxdeg=3):
        """A polynomial built with from_terms, so its term order is the drawn order."""
        terms = {}
        for _ in range(draw(st.integers(0, nterms))):
            e = (draw(st.integers(0, ctx.order)),)
            e += tuple(draw(st.integers(0, maxdeg)) for _ in range(ctx.nvars - 1))
            terms[e] = draw(st.sampled_from(TestPackedKeys.UNITS))
        p = ctx.from_terms(terms)
        assert items(p) == list(terms.items())
        return p

    @staticmethod
    @st.composite
    def pairs(draw):
        ctx = draw(TestPackedKeys.contexts())
        p, q = TestPackedKeys.polys(draw, ctx), TestPackedKeys.polys(draw, ctx)
        return ctx, p, q, draw(st.one_of(st.none(), st.integers(-1, ctx.order + 1)))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_pack_roundtrip_and_lex_order(self, data):
        ctx = data.draw(self.contexts())
        exps = st.tuples(*[st.integers(0, MAX_EXP)] * ctx.nvars)
        e, f = data.draw(exps), data.draw(exps)
        assert ctx.unpack(ctx.pack(e)) == e
        assert (ctx.pack(e) < ctx.pack(f)) == (e < f)
        assert ctx.pack(e) >> ctx.eps_shift == e[0]

    # fields up to MAX_EXP, at it, and past it (the guard bit set)
    FIELDS = st.one_of(st.integers(0, MAX_EXP), st.just(MAX_EXP),
                       st.integers(MAX_EXP + 1, (1 << FIELD) - 1))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(3, 10), st.data())
    def test_unpack_matches_shift_and_mask(self, nvars, data):
        ctx = PolyContext([f"A{k + 1}" for k in range(nvars - 3)], order=2)
        keys = [sum(k << sh for k, sh in zip(data.draw(st.tuples(*[self.FIELDS] * nvars)),
                                              ctx.shifts))
                for _ in range(data.draw(st.integers(1, 4)))]
        want = [tuple(key >> sh & ((1 << FIELD) - 1) for sh in ctx.shifts) for key in keys]
        assert [ctx.unpack(key) for key in keys] == want
        assert list(MultiPoly(ctx, dict.fromkeys(keys, ONE)).terms) == list(dict.fromkeys(want))
        over = [key for key in keys if key & ctx.guard]
        if over:
            top = max(max(e) for e, key in zip(want, keys) if key & ctx.guard)
            with pytest.raises(PolyError) as exc:
                ctx._check_keys(keys)
            assert str(exc.value) == f"exponent {top} exceeds the limit {MAX_EXP}"
        else:
            ctx._check_keys(keys)

    @settings(max_examples=200, deadline=None)
    @given(pairs())
    @example(cancel_and_reappear())
    def test_mul_matches_reference(self, case):
        ctx, p, q, trunc = case
        cut = ctx.order if trunc is None else min(trunc, ctx.order)
        assert p.mul(q, trunc).terms == reference_mul(p.terms, q.terms, cut)
        assert (p * q).terms == reference_mul(p.terms, q.terms, ctx.order)

    @settings(max_examples=200, deadline=None)
    @given(pairs())
    @example(cancelling_sum())
    def test_add_matches_reference(self, case):
        ctx, p, q, _ = case
        want = dict(p.terms)
        reference_add_into(want, q.terms)
        assert items(p + q) == list(want.items())

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_unary_operations_match_reference(self, data):
        ctx = data.draw(self.contexts())
        p = self.polys(data.draw, ctx)
        terms = p.terms
        name = data.draw(st.sampled_from(ctx.symbols))
        i = ctx.index(name)
        k = data.draw(st.integers(-1, 4))
        assert items(p.diff(name)) == list(reference_diff(terms, i).items())
        assert items(p.antidiff_t()) == list(reference_antidiff_t(terms).items())
        assert items(p.coeff_power(name, k)) == list(reference_coeff_power(terms, i, k).items())
        assert items(p.trunc(k)) == list(reference_trunc(terms, k).items())
        assert items(p.set_zero(name)) == list(reference_set_zero(terms, i).items())
        assert items(p.negate_symbol(name)) == list(reference_negate_symbol(terms, i).items())
        other = PolyContext([f"B{n}" for n in range(ctx.nvars - 3)], order=max(k, 0))
        assert items(p.rehome(other)) == list(reference_trunc(terms, other.order).items())
        sources = data.draw(st.lists(st.sampled_from(ctx.symbols[1:]), unique=True))
        targets = data.draw(st.permutations(sources))
        idx = {ctx.index(a): ctx.index(b) for a, b in zip(sources, targets)}
        assert items(p.rename(dict(zip(sources, targets)))) == list(
            reference_rename(terms, idx).items())

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_substitution_matches_reference(self, data):
        ctx = data.draw(self.contexts())
        names = data.draw(st.lists(st.sampled_from(ctx.symbols[1:]), unique=True))
        bindings = {name: self.polys(data.draw, ctx, nterms=3, maxdeg=1) for name in names}
        sub = Substitution(ctx, bindings)
        for _ in range(data.draw(st.integers(1, 3))):
            p = self.polys(data.draw, ctx)
            want = reference_grouped_substitute(ctx, bindings, p.terms)
            assert sub(p).terms == want

    def test_terms_view_is_read_only(self, ctx):
        p = P(ctx, "A1 + eps*t")
        assert p.terms is p.terms
        with pytest.raises(TypeError):
            p.terms[(0,) * ctx.nvars] = ONE


def reference_sum_of_products(pairs, trunc):
    """Each entry product normalised on its own (`reference_mul`), then added
    term by term (`reference_add_into`), per output harmonic."""
    out = {}
    for x, y in pairs:
        ctx = x.ctx
        cut = ctx.order if trunc is None else min(trunc, ctx.order)
        for m1, p1 in x.entries.items():
            for m2, p2 in y.entries.items():
                reference_add_into(out.setdefault(m1 + m2, {}),
                                   reference_mul(p1.terms, p2.terms, cut))
    return {m: terms for m, terms in out.items() if terms}


def as_maps(hs):
    return {m: dict(p.terms) for m, p in hs.entries.items()}


class TestSumOfProducts:
    """The fused kernel against separately normalised products, added after."""

    @staticmethod
    @st.composite
    def sums(draw):
        ctx = draw(TestPackedKeys.contexts())

        def series():
            return HarmonicSeries(ctx, {m: TestPackedKeys.polys(draw, ctx, nterms=4)
                                        for m in draw(st.sets(st.integers(-2, 2), max_size=3))})

        pairs = [(series(), series()) for _ in range(draw(st.integers(0, 4)))]
        if pairs and draw(st.booleans()):
            x, y = pairs[0]
            pairs.append((-x, y))  # cancels the first product exactly
        trunc = draw(st.one_of(st.none(), st.integers(-1, ctx.order + 1)))
        return ctx, pairs, trunc

    @settings(max_examples=200, deadline=None)
    @given(sums())
    def test_matches_separate_products(self, case):
        ctx, pairs, trunc = case
        got = sum_of_products(ctx, pairs, trunc)
        assert as_maps(got) == reference_sum_of_products(pairs, trunc)
        assert all(p.packed for p in got.entries.values())

    def test_cancelling_pairs_and_unequal_denominators(self):
        ctx = PolyContext(("A1",), order=2)
        half, third = gq(Fraction(1, 2)), gq(Fraction(1, 3))
        x = HarmonicSeries(ctx, {1: ctx.var("A1").scale(half), 0: ctx.const(third)})
        y = HarmonicSeries(ctx, {-1: ctx.var("A1").scale(third), 0: ctx.var("eps")})
        # A1^2 at harmonic 0: 1/6 from the first pair, then 1/4 (5/12 over
        # the lcm 12 of 6 and 4), then -5/12, which cancels it
        z = HarmonicSeries.single(-1, ctx.var("A1").scale(gq(Fraction(1, 4))))
        w = HarmonicSeries.single(1, ctx.var("A1").scale(gq(Fraction(-5, 4))))
        v = HarmonicSeries.single(1, ctx.var("A1"))
        got = sum_of_products(ctx, [(x, y), (z, v), (y, w)])
        assert as_maps(got) == reference_sum_of_products([(x, y), (z, v), (y, w)], None)
        assert (0, 0, 0, 2) not in got.get(0).terms
        assert sum_of_products(ctx, [(x, y), (-x, y)]).is_zero()
        assert sum_of_products(ctx, [(x, y)], trunc=0) == x.mul(y, 0)
        assert sum_of_products(ctx, []).is_zero()


class TestExponentLimit:
    """An exponent past MAX_EXP raises PolyError; it never carries into a neighbour."""

    @staticmethod
    def ctx():
        return PolyContext(("A1", "A2"), ("p",), order=3)

    # the other fields stay below half the limit, so only field i can overflow
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5), st.integers(0, MAX_EXP), st.integers(0, MAX_EXP),
           st.tuples(*[st.integers(0, MAX_EXP // 2)] * 5),
           st.tuples(*[st.integers(0, MAX_EXP // 2)] * 5))
    @example(3, MAX_EXP, 1, (0,) * 5, (0,) * 5)
    @example(3, MAX_EXP - 1, 1, (MAX_EXP // 2,) * 5, (MAX_EXP // 2,) * 5)
    def test_product_at_the_guard_bit(self, i, a, b, e, f):
        ctx = self.ctx()
        e = (0,) + e[:i - 1] + (a,) + e[i:]
        f = (0,) + f[:i - 1] + (b,) + f[i:]
        p, q = ctx.monomial(ONE, e), ctx.monomial(ONE, f)
        total = tuple(x + y for x, y in zip(e, f))
        if max(total) > MAX_EXP:
            with pytest.raises(PolyError, match=f"exceeds the limit {MAX_EXP}"):
                p * q
        else:
            assert items(p * q) == [(total, ONE)]

    @pytest.mark.parametrize("c", [ONE, gq(Fraction(2, 3), -1)])
    def test_one_term_operand_at_the_guard_bit(self, c):
        # a one-term operand takes its own path through mul; the guard holds there
        ctx = self.ctx()
        top = ctx.monomial(c, [0, 0, 0, 0, MAX_EXP, 0])
        for q in (ctx.var("A2") + ctx.var("p"), ctx.var("p") + ctx.var("A2")):
            with pytest.raises(PolyError, match=f"exponent {MAX_EXP + 1} exceeds"):
                top * q
            with pytest.raises(PolyError, match=f"exponent {MAX_EXP + 1} exceeds"):
                q * top
        q = ctx.var("A1") + ctx.var("p", 2)
        want = [((0, 0, 0, 1, MAX_EXP, 0), c), ((0, 0, 0, 0, MAX_EXP, 2), c)]
        assert items(top * q) == want
        assert items(q * top) == want

    def test_constructors_reject(self):
        ctx = self.ctx()
        big = [0, 0, 0, 0, MAX_EXP + 1, 0]
        for build in (lambda: ctx.var("A2", MAX_EXP + 1), lambda: ctx.monomial(ONE, big),
                      lambda: ctx.pack(big), lambda: ctx.pack([0, 0, 0, 0, -1, 0]),
                      lambda: PolyContext(("A1",), order=MAX_EXP + 1)):
            with pytest.raises(PolyError):
                build()
        top = ctx.var("A2", MAX_EXP)
        assert top.terms == {(0, 0, 0, 0, MAX_EXP, 0): ONE}
        with pytest.raises(PolyError):
            top * ctx.var("A2")
        assert top * ctx.var("A1") == ctx.monomial(ONE, [0, 0, 0, 1, MAX_EXP, 0])

    def test_antidiff_and_rename_reject(self):
        ctx = self.ctx()
        t = ctx.var("t", MAX_EXP)
        assert t.diff_t().degree("t") == MAX_EXP - 1
        with pytest.raises(PolyError):
            t.antidiff_t()
        p = ctx.var("A1", MAX_EXP) * ctx.var("A2", 1)
        with pytest.raises(PolyError):
            p.rename({"A1": "A2"})
        assert p.rename({"A1": "A2", "A2": "A1"}) == ctx.monomial(ONE, [0, 0, 0, 1, MAX_EXP, 0])


def reference_render(p: MultiPoly) -> str:
    """MultiPoly.render as written before the term writers moved into poly's helpers."""
    terms = p.terms
    if not terms:
        return "0"
    names = p.ctx.symbols
    parts = []
    for e in sorted(terms, key=lambda e: (e[0], sum(e[1:]), e)):
        c = terms[e]
        mono = "*".join(
            (names[i] if k == 1 else f"{names[i]}^{k}") for i, k in enumerate(e) if k
        )
        if mono:
            if c.is_one():
                txt = mono
            elif c == gq(-1):
                txt = f"-{mono}"
            else:
                txt = f"{c}*{mono}"
        else:
            txt = str(c)
        parts.append(txt)
    out = parts[0]
    for part in parts[1:]:
        out += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
    return out


def reference_first_mismatch(lhs: MultiPoly, rhs: MultiPoly):
    """The checks' mismatch text, from a loop over the union of both sides' monomials."""
    keys = set(lhs.terms) | set(rhs.terms)
    zero = gq(0)
    for e in sorted(keys, key=lambda e: (e[0], sum(e[1:]), e)):
        a = lhs.terms.get(e, zero)
        b = rhs.terms.get(e, zero)
        if a != b:
            names = lhs.ctx.symbols
            mono = "*".join(
                (names[i] if k == 1 else f"{names[i]}^{k}") for i, k in enumerate(e) if k
            ) or "1"
            return f"monomial {mono}: lhs={a}, rhs={b}"
    return None


class TestTermFormatMatchesReference:
    """split, sorted_terms and the term writers agree with the slot-by-slot code."""

    @staticmethod
    def tied(draw, ctx, nterms=4):
        """A polynomial whose terms share an eps-order and a total degree.

        The exponents past eps are permutations of one drawn tuple, so the
        canonical order is decided by the exponent tuples alone.
        """
        e = (draw(st.integers(0, ctx.order)),)
        e += tuple(draw(st.integers(0, 3)) for _ in range(ctx.nvars - 1))
        coeffs = st.one_of(st.sampled_from(TestPackedKeys.UNITS), gaussians)
        terms = {}
        for _ in range(draw(st.integers(1, nterms))):
            c = draw(coeffs)
            if not c.is_zero():
                terms[e[:1] + tuple(draw(st.permutations(e[1:])))] = c
        return ctx.from_terms(terms)

    @classmethod
    def poly(cls, draw, ctx):
        return TestPackedKeys.polys(draw, ctx) + cls.tied(draw, ctx)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_render_matches_reference(self, data):
        ctx = data.draw(TestPackedKeys.contexts())
        p = self.poly(data.draw, ctx)
        assert p.render() == reference_render(p)
        assert [e for e, _ in p.sorted_terms()] == sorted(
            p.terms, key=lambda e: (e[0], sum(e[1:]), e))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_first_mismatch_matches_reference(self, data):
        from rgperturb.checks import _first_mismatch

        ctx = data.draw(TestPackedKeys.contexts())
        p = self.poly(data.draw, ctx)
        kind = data.draw(st.sampled_from(["other", "one coefficient", "one term more"]))
        if kind == "other":
            q = self.poly(data.draw, ctx)
        else:
            # differ from p in a single coefficient, possibly one p lacks
            terms = dict(p.terms)
            if kind == "one term more" or not terms:
                e = (data.draw(st.integers(0, ctx.order)),)
                e += tuple(data.draw(st.integers(0, 3)) for _ in range(ctx.nvars - 1))
            else:
                e = data.draw(st.sampled_from(sorted(terms)))
            c = terms.get(e, gq(0)) + data.draw(st.sampled_from(TestPackedKeys.UNITS))
            if c.is_zero():
                del terms[e]
            else:
                terms[e] = c
            q = ctx.from_terms(terms)
        if p != q:
            assert _first_mismatch(p, q) == reference_first_mismatch(p, q)
            assert _first_mismatch(q, p) == reference_first_mismatch(q, p)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_split_concatenates_back(self, data):
        ctx = data.draw(TestPackedKeys.contexts())
        e = data.draw(st.tuples(*[st.integers(0, MAX_EXP)] * ctx.nvars))
        eps, t, s, amps, params = ctx.split(e)
        assert (eps, t, s) + amps + params == e
        assert len(amps) == len(ctx.amplitudes) and len(params) == len(ctx.params)
