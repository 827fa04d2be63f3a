import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from rgperturb.checks import functional_relation
from rgperturb.gaussrat import gq, ONE
from rgperturb.poly import HarmonicSeries, Substitution
from rgperturb.difference import (
    LaurentPoly,
    gk_poly,
    gk_closed,
    norm_constants,
    ckj_coeffs,
    make_context,
    amp_name,
    secular_pm,
    theta_series,
    closed_form_amplitude,
    check_difference_identities,
    stability_flag,
    _advance_difference,
    _closed_family,
    _compare_series,
    _eps_u,
    _exp_series,
    _flip_odd,
    window_band,
    WindowError,
)


def u2_cosine():
    # 2U(z) = z^2 + z^-2, i.e. U(e^{it}) = cos(2t)
    return LaurentPoly({2: ONE, -2: ONE})


def u2_generic():
    return LaurentPoly({1: gq(2), -1: gq("1/2"), 0: gq(0, 1), 3: gq(-1)})


def eval_dense(coeffs, u: Fraction) -> Fraction:
    """A dense coefficient list (as gk_poly returns) evaluated at u."""
    return sum(c * u ** i for i, c in enumerate(coeffs))


def bmk_direct(u2: LaurentPoly, m: int, k: int) -> dict:
    """B_{m,k} by the direct amplitude recursion; returns {n: coeff of A_n}.

    B_{m,0} = A_m and B_{m,k} = sum_l alpha_l (-1)^{(k-1) l} B_{m-l,k-1};
    independent of the h_k generating-function route of ckj_coeffs.
    """
    if k == 0:
        return {m: ONE}
    out = {}
    for l, alpha in u2.terms.items():
        c = alpha if ((k - 1) * l) % 2 == 0 else -alpha
        for n, v in bmk_direct(u2, m - l, k - 1).items():
            out[n] = out[n] + c * v if n in out else c * v
    return {n: v for n, v in out.items() if not v.is_zero()}


def resummed_solution(ctx, theta, W: int) -> HarmonicSeries:
    """Y = exp(Theta tau) mu_even + exp(-Theta tau) mu_odd, as identity (ii) builds it."""
    y = HarmonicSeries.zero(ctx)
    for odd in (False, True):
        mu = HarmonicSeries(
            ctx, {m: ctx.var(amp_name(m)) for m in range(-W, W + 1) if (m % 2 != 0) == odd}
        )
        y = y + theta.kernel(odd).mul(mu)
    return y


def substitution_shift(hs: HarmonicSeries, delta: int) -> HarmonicSeries:
    """t -> t + delta*pi by substitution: tau -> tau + delta, and e^{imt} gains (-1)^m."""
    ctx = hs.ctx
    advance = Substitution(ctx, {"t": ctx.var("t") + ctx.const(delta)})
    return _flip_odd(hs.map_entries(advance))


def reference_reports(u2: LaurentPoly, K: int, W: int, label="difference") -> list:
    """The three identities with no fast path: (i) always by substitution and
    the +-pi shift of (ii) as a `Substitution` t -> t +- 1."""
    band = window_band(u2, K, W)
    ctx = make_context(K, W)
    theta = theta_series(u2, K, ctx)
    closed = _closed_family(u2, K, W, ctx, theta)
    amplitudes = {amp_name(n): closed[n] for n in range(-W, W + 1)}
    entries = ((f"harmonic {m}", closed[m]) for m in range(-band, band + 1))
    y = resummed_solution(ctx, theta, W)
    gen = HarmonicSeries(ctx, closed)
    return [
        functional_relation(ctx, amplitudes, entries, label),
        _compare_series(
            substitution_shift(y, 1) - substitution_shift(y, -1), _eps_u(ctx, u2).mul(y + y),
            "harmonic", "check_difference_equation", label, K,
        ),
        _compare_series(
            gen.map_entries(lambda p: p.diff_t()), theta.series.mul(_flip_odd(gen)),
            "zeta-power", "check_rg_flow", label, K,
        ),
    ]


def lines(reports) -> list:
    return [r.line() for r in reports]


# 2U with Q(i) coefficients on the even powers 0, +-2, +-4
gaussian = st.builds(
    gq,
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
even_u2 = st.dictionaries(
    st.sampled_from([-4, -2, 0, 2, 4]), gaussian, min_size=1
).map(LaurentPoly)


def sinh_residual(theta, u2: LaurentPoly) -> HarmonicSeries:
    """sinh(Theta) - eps U(zeta); identically zero mod eps^(K+1)."""
    ctx = theta.ctx
    acc = HarmonicSeries.zero(ctx)
    power = theta.series
    for n in range(1, ctx.order + 1, 2):
        acc = acc + power.map_entries(lambda p: p.scale(Fraction(1, math.factorial(n))))
        power = power.mul(theta.series).mul(theta.series)
    return acc - _eps_u(ctx, u2)


class TestGk:
    def test_reference_values(self):
        table = gk_poly(8)
        assert table[2] == [Fraction(0), Fraction(0), Fraction(1, 8)]
        # g_5(u) = u (u^2-1)(u^2-9) / 3840
        g5 = [Fraction(0), Fraction(9, 3840), Fraction(0), Fraction(-10, 3840),
              Fraction(0), Fraction(1, 3840)]
        assert table[5] == g5

    def test_recursion_matches_closed_form(self):
        table = gk_poly(8)
        for k in range(9):
            assert table[k] == gk_closed(k)
            assert len(table[k]) == k + 1

    def test_defining_recursion(self):
        table = gk_poly(6)
        for k in range(1, 7):
            for u in range(-4, 5):
                lhs = eval_dense(table[k], Fraction(u + 1)) - eval_dense(table[k], Fraction(u - 1))
                assert lhs == eval_dense(table[k - 1], Fraction(u))

    def test_generating_identity_binomial_oracle(self):
        # sum_k g_k(u) (2 zeta)^k = (sqrt(1+zeta^2) + zeta)^u mod zeta^9
        K = 8
        table = gk_poly(K)
        half = Fraction(1, 2)
        sqrt_series = [Fraction(0)] * (K + 1)
        for n in range(0, K // 2 + 1):
            c = Fraction(1)
            for i in range(n):
                c *= (half - i) / (i + 1)
            sqrt_series[2 * n] = c
        base = list(sqrt_series)
        base[1] += 1  # sqrt(1+z^2) + z

        def mul_trunc(a, b):
            out = [Fraction(0)] * (K + 1)
            for i, x in enumerate(a):
                if not x:
                    continue
                for j, y in enumerate(b):
                    if i + j <= K and y:
                        out[i + j] += x * y
            return out

        for u in range(1, 5):
            power = [Fraction(1)] + [Fraction(0)] * K
            for _ in range(u):
                power = mul_trunc(power, base)
            lhs = [eval_dense(table[k], Fraction(u)) * 2 ** k for k in range(K + 1)]
            assert lhs == power, f"u={u}"

    def test_derivative_at_zero(self):
        table = gk_poly(9)
        norms = norm_constants(5)
        for k in range(0, 5):
            if 2 * k <= 9:
                g = table[2 * k]
                assert (g[1] if len(g) > 1 else Fraction(0)) == 0
            if 2 * k + 1 <= 9:
                g = table[2 * k + 1]
                expect = norms[k] / 2 ** (2 * k + 1)
                if k % 2 == 1:
                    expect = -expect
                assert g[1] == expect

    def test_norm_constants(self):
        assert norm_constants(5) == [
            Fraction(1), Fraction(1, 6), Fraction(3, 40),
            Fraction(5, 112), Fraction(35, 1152),
        ]


class TestCkj:
    def test_h0_is_delta(self):
        h = ckj_coeffs(u2_generic(), 0)
        assert h.terms == {0: ONE}

    def test_cosine_square(self):
        h2 = ckj_coeffs(u2_cosine(), 2)
        assert h2.coeff(0) == gq(2)
        assert h2.coeff(4) == ONE
        assert h2.coeff(-4) == ONE
        assert h2.coeff(2).is_zero()

    def test_first_order_reads_alpha(self):
        u2 = u2_generic()
        h1 = ckj_coeffs(u2, 1)
        for j in range(-4, 5):
            assert h1.coeff(j) == u2.coeff(-j)

    def test_even_u_collapse(self):
        u2 = u2_cosine()
        inv = u2.invert_z()
        for k in range(5):
            expect = LaurentPoly({0: ONE})
            for _ in range(k):
                expect = expect * inv
            assert ckj_coeffs(u2, k) == expect

    def test_direct_recursion_agrees(self):
        for u2 in (u2_cosine(), u2_generic()):
            for m in (-2, 0, 3):
                for k in range(4):
                    via_h = ckj_coeffs(u2, k)
                    direct = bmk_direct(u2, m, k)
                    built = {m + j: c for j, c in via_h.terms.items()}
                    assert built == direct, (m, k)


class TestSecular:
    def test_zero_forcing(self):
        p = secular_pm(LaurentPoly({}), 3, 4, 5)
        ctx = make_context(4, 5)
        assert p == ctx.var(amp_name(3))

    def test_first_two_orders_match_formula(self):
        u2 = u2_generic()
        K, W = 3, 12
        ctx = make_context(K, W)
        for m in (-1, 0, 2):
            p = secular_pm(u2, m, K, W, ctx)
            # eps^1: sum_j A_{m+j} (-1)^m (tau/2) alpha_{-j}
            lhs1 = p.eps_coeff(1)
            expect1 = ctx.zero()
            for j in range(-3, 4):
                a = u2.coeff(-j)
                if a.is_zero():
                    continue
                sign = a if m % 2 == 0 else -a
                term = (ctx.var(amp_name(m + j)) * ctx.var("t")).scale(Fraction(1, 2))
                expect1 = expect1 + term * ctx.const(sign)
            assert lhs1 == expect1, f"m={m}"
            # eps^2: sum_j A_{m+j} (tau^2/8) sum_l (-1)^l alpha_l alpha_{-j-l}
            lhs2 = p.eps_coeff(2)
            expect2 = ctx.zero()
            for j in range(-6, 7):
                acc = gq(0)
                for l, al in u2.terms.items():
                    c = al * u2.coeff(-j - l)
                    acc = acc + (c if l % 2 == 0 else -c)
                if acc.is_zero():
                    continue
                expect2 = expect2 + (ctx.var(amp_name(m + j)) * ctx.var("t", 2)).scale(
                    Fraction(1, 8)
                ) * ctx.const(acc)
            assert lhs2 == expect2, f"m={m}"

    def test_defining_difference_recursion(self):
        # (-1)^m (f_{m,k}(tau+1) - f_{m,k}(tau-1)) = sum_l alpha_l f_{m-l,k-1}
        u2 = u2_generic()
        K, W = 3, 14
        ctx = make_context(K, W)
        polys = {m: secular_pm(u2, m, K, W, ctx) for m in range(-5, 6)}
        plus = {"t": ctx.var("t") + ctx.one()}
        minus = {"t": ctx.var("t") - ctx.one()}
        for m in range(-2, 3):
            for k in range(1, K + 1):
                f = polys[m].eps_coeff(k)
                lhs = f.substitute(plus) - f.substitute(minus)
                if m % 2 != 0:
                    lhs = -lhs
                rhs = ctx.zero()
                for l, al in u2.terms.items():
                    rhs = rhs + polys[m - l].eps_coeff(k - 1) * ctx.const(al)
                assert lhs == rhs, (m, k)

    def test_window_refusal(self):
        with pytest.raises(WindowError):
            secular_pm(u2_generic(), 5, 3, 8)


class TestTheta:
    def test_sinh_defining_identity(self):
        for K in (3, 4, 6):
            theta = theta_series(u2_cosine(), K)
            assert sinh_residual(theta, u2_cosine()).is_zero()

    def test_parity_for_even_u(self):
        theta = theta_series(u2_cosine(), 5)
        assert _flip_odd(theta.series) == theta.series

    def test_leading_terms(self):
        # Theta = eps U - (eps U)^3/6 + ...
        K = 3
        ctx = make_context(K, 0)
        theta = theta_series(u2_cosine(), K, ctx)
        eps = ctx.var("eps")
        u = HarmonicSeries(ctx, {2: eps.scale(Fraction(1, 2)), -2: eps.scale(Fraction(1, 2))})
        cube = u.mul(u).mul(u)
        expect = u + cube.map_entries(lambda p: p.scale(Fraction(-1, 6)))
        assert theta.series == expect


class TestClosedForm:
    def test_eps0_is_bare(self):
        p = closed_form_amplitude(u2_cosine(), 1, 0, 3)
        ctx = make_context(0, 3)
        assert p == ctx.var(amp_name(1))

    def test_agrees_with_secular_route(self):
        K, W = 4, 10
        ctx = make_context(K, W)
        for m in range(-2, 3):
            a = secular_pm(u2_cosine(), m, K, W, ctx)
            b = closed_form_amplitude(u2_cosine(), m, K, W, ctx)
            assert a == b, f"m={m}"

    def test_odd_u_rejected(self):
        with pytest.raises(ValueError):
            closed_form_amplitude(LaurentPoly({1: ONE, -1: ONE}), 0, 2, 6)

    def test_generating_series_form(self):
        # A(zeta,t) = e^{Theta t/pi} mu_even + e^{-Theta t/pi} mu_odd
        K, W = 3, 6
        ctx = make_context(K, W)
        u2 = u2_cosine()
        theta = theta_series(u2, K, ctx)
        gen = HarmonicSeries(ctx, _closed_family(u2, K, W, ctx, theta))
        tau = ctx.var("t")
        arg = theta.series.map_entries(lambda p: p * tau)
        mu_even = HarmonicSeries(
            ctx, {m: ctx.var(amp_name(m)) for m in range(-W, W + 1) if m % 2 == 0}
        )
        mu_odd = HarmonicSeries(
            ctx, {m: ctx.var(amp_name(m)) for m in range(-W, W + 1) if m % 2 != 0}
        )
        expect = _exp_series(arg).mul(mu_even) + _exp_series(-arg).mul(mu_odd)
        assert gen == expect

    def test_one_kernel_per_parity(self, monkeypatch):
        from rgperturb import difference

        calls = []

        def counted(x):
            calls.append(x)
            return _exp_series(x)

        monkeypatch.setattr(difference, "_exp_series", counted)
        reports = check_difference_identities(u2_cosine(), 4, 10)
        assert all(r.passed for r in reports)
        assert len(calls) == 2


class TestIdentities:
    def test_all_three_pass(self):
        reports = check_difference_identities(u2_cosine(), 3, 8)
        assert [r.name for r in reports] == [
            "check_functional_relation",
            "check_difference_equation",
            "check_rg_flow",
        ]
        for r in reports:
            assert r.passed, r.line()

    def test_bumped_harmonic_fails_functional_relation(self, monkeypatch):
        # negative control: eps*t added to one in-band closed-form amplitude
        from rgperturb import difference

        closed = difference._closed_windowed

        def bumped(u2, m, K, W, ctx, theta):
            p = closed(u2, m, K, W, ctx, theta)
            return p + ctx.var("eps") * ctx.var("t") if m == 2 else p

        monkeypatch.setattr(difference, "_closed_windowed", bumped)
        reports = check_difference_identities(u2_cosine(), 3, 8)
        relation = {r.name: r for r in reports}["check_functional_relation"]
        assert not relation.passed
        assert relation.line().startswith("FAIL check_functional_relation")
        # the shared comparison names the first differing monomial, both sides
        assert relation.detail == "harmonic -2; monomial eps^3*s^3: lhs=0, rhs=1/8"
        assert lines(reports) == lines(reference_reports(u2_cosine(), 3, 8))

    def test_bumped_harmonic_fails_rg_flow(self, monkeypatch):
        # negative control of identity (iii): the bumped amplitude no longer
        # follows the Theta flow
        from rgperturb import difference

        closed = difference._closed_windowed

        def bumped(u2, m, K, W, ctx, theta):
            p = closed(u2, m, K, W, ctx, theta)
            return p + ctx.var("eps") * ctx.var("t") if m == 2 else p

        monkeypatch.setattr(difference, "_closed_windowed", bumped)
        reports = check_difference_identities(u2_cosine(), 3, 8)
        flow = reports[2]
        assert flow.line().startswith("FAIL check_rg_flow")
        assert flow.detail == "zeta-power 0; monomial eps^2*t: lhs=0, rhs=1/2"
        assert lines(reports) == lines(reference_reports(u2_cosine(), 3, 8))

    def test_bumped_kernel_fails_difference_equation(self, monkeypatch):
        # negative control of identity (ii): eps*t added to the even kernel
        from rgperturb import difference

        kernel = difference.ThetaSeries.kernel

        def bumped(self, odd):
            k = kernel(self, odd)
            if odd:
                return k
            return k + HarmonicSeries.single(0, self.ctx.var("eps") * self.ctx.var("t"))

        monkeypatch.setattr(difference.ThetaSeries, "kernel", bumped)
        reports = check_difference_identities(u2_cosine(), 3, 8)
        equation = reports[1]
        assert equation.line().startswith("FAIL check_difference_equation")
        assert equation.detail == "harmonic -10; monomial eps^2*t*A[-8]: lhs=0, rhs=1"
        assert lines(reports) == lines(reference_reports(u2_cosine(), 3, 8))

    def test_scaled_family_fails_functional_relation(self, monkeypatch):
        # control of (IC): twice the family still follows the Theta flow, so
        # (iii) passes, but it starts at 2*A; the substitution must run
        from rgperturb import difference

        closed = difference._closed_windowed

        def doubled(u2, m, K, W, ctx, theta):
            return closed(u2, m, K, W, ctx, theta).scale(2)

        monkeypatch.setattr(difference, "_closed_windowed", doubled)
        reports = check_difference_identities(u2_cosine(), 3, 8)
        assert lines(reports) == [
            "FAIL check_functional_relation [difference K=3] :: "
            "harmonic -2; monomial A[-2]: lhs=2, rhs=4",
            "PASS check_difference_equation [difference K=3]",
            "PASS check_rg_flow [difference K=3]",
        ]
        assert lines(reports) == lines(reference_reports(u2_cosine(), 3, 8))

    def test_family_off_the_window_at_zero_takes_the_reference(self, monkeypatch):
        # control of (IC) beyond the window: eps^K*A[0] added past |m| = W
        # leaves (iii) intact (its flow is O(eps^(K+1))), so only (IC) sees it;
        # the substitution runs and, as that harmonic is never bound, passes
        from rgperturb import difference

        closed = difference._closed_windowed
        calls = []

        def off_window(u2, m, K, W, ctx, theta):
            p = closed(u2, m, K, W, ctx, theta)
            return p + ctx.var("eps", K) * ctx.var(amp_name(0)) if m == W + 1 else p

        def counted(*args):
            calls.append(args)
            return functional_relation(*args)

        monkeypatch.setattr(difference, "_closed_windowed", off_window)
        monkeypatch.setattr(difference, "functional_relation", counted)
        reports = check_difference_identities(u2_cosine(), 3, 8)
        assert all(r.passed for r in reports)
        assert len(calls) == 1

    def test_a_passing_verify_takes_the_fast_path(self, capsys, monkeypatch):
        # a silent fallback to the substitution would keep every line and
        # lose the gain
        from rgperturb import difference, poly
        from rgperturb.cli import main

        relations, built = [], []
        substitution_init = poly.Substitution.__init__

        def counting_relation(*args):
            relations.append(args)
            return functional_relation(*args)

        def counting_init(self, *args):
            built.append(args)
            substitution_init(self, *args)

        monkeypatch.setattr(difference, "functional_relation", counting_relation)
        monkeypatch.setattr(poly.Substitution, "__init__", counting_init)
        assert main(["verify", "--builtin", "ex_difference"]) == 0
        assert "PASS check_functional_relation" in capsys.readouterr().out
        assert relations == [] and built == []

    @settings(max_examples=30, deadline=None)
    @example(u2=u2_cosine(), K=3, extra=0)
    @example(u2=LaurentPoly({0: gq(0, 1), 4: gq("1/2"), -2: gq(-1, 2)}), K=2, extra=1)
    @given(u2=even_u2, K=st.integers(1, 5), extra=st.integers(0, 2))
    def test_lines_agree_with_the_reference(self, u2, K, extra):
        W = K * u2.support_bound() + extra
        got = check_difference_identities(u2, K, W)
        assert lines(got) == lines(reference_reports(u2, K, W))

    def test_deep_case_agrees_with_the_reference(self):
        got = check_difference_identities(u2_cosine(), 8, 20)
        assert all(r.passed for r in got)
        assert lines(got) == lines(reference_reports(u2_cosine(), 8, 20))

    @settings(max_examples=20, deadline=None)
    @given(u2=even_u2, K=st.integers(1, 5))
    def test_two_sinh_d_is_the_substitution_shift(self, u2, K):
        # 2 sinh(d/dtau) p = p(tau+1) - p(tau-1) on the resummed solution of
        # (ii) and on the family's generating series
        W = K * u2.support_bound()
        ctx = make_context(K, W)
        theta = theta_series(u2, K, ctx)
        for hs in (resummed_solution(ctx, theta, W),
                   HarmonicSeries(ctx, _closed_family(u2, K, W, ctx, theta))):
            expect = substitution_shift(hs, 1) - substitution_shift(hs, -1)
            assert _flip_odd(hs.map_entries(_advance_difference)) == expect

    def test_window_too_small(self):
        with pytest.raises(WindowError):
            check_difference_identities(u2_cosine(), 4, 5)

    def test_stability_flag(self):
        # real forcing: Theta is real somewhere on the circle
        flag = stability_flag(u2_cosine(), 0.3)
        assert not flag["theta_purely_imaginary"]
        # imaginary forcing with |eps U| <= 1: Theta stays on the imaginary axis
        u2_imag = LaurentPoly({2: gq(0, 1), -2: gq(0, 1)})
        flag = stability_flag(u2_imag, 0.5)
        assert flag["theta_purely_imaginary"]
        assert flag["eps_u_bounded_by_one"]
        # pushing |eps U| past 1 breaks both
        flag = stability_flag(u2_imag, 2.5)
        assert not flag["theta_purely_imaginary"]
        assert not flag["eps_u_bounded_by_one"]
