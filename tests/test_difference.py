from fractions import Fraction

import pytest

from rgperturb.gaussrat import gq, ONE
from rgperturb.poly import HarmonicSeries
from rgperturb.difference import (
    LaurentPoly,
    gk_poly,
    gk_closed,
    norm_constants,
    ckj_coeffs,
    bmk_direct,
    make_context,
    amp_name,
    secular_pm,
    theta_series,
    closed_form_amplitude,
    generating_series,
    check_difference_identities,
    stability_flag,
    _exp_series,
    WindowError,
)


def u2_cosine():
    # 2U(z) = z^2 + z^-2, i.e. U(e^{it}) = cos(2t)
    return LaurentPoly({2: ONE, -2: ONE})


def u2_generic():
    return LaurentPoly({1: gq(2), -1: gq("1/2"), 0: gq(0, 1), 3: gq(-1)})


class TestGk:
    def test_reference_values(self):
        table = gk_poly(8)
        assert table.polys[2] == [Fraction(0), Fraction(0), Fraction(1, 8)]
        # g_5(u) = u (u^2-1)(u^2-9) / 3840
        g5 = [Fraction(0), Fraction(9, 3840), Fraction(0), Fraction(-10, 3840),
              Fraction(0), Fraction(1, 3840)]
        assert table.polys[5] == g5

    def test_recursion_matches_closed_form(self):
        table = gk_poly(8)
        for k in range(9):
            assert table.polys[k] == gk_closed(k)
            assert len(table.polys[k]) == k + 1

    def test_defining_recursion(self):
        table = gk_poly(6)
        for k in range(1, 7):
            for u in range(-4, 5):
                lhs = table.eval_at(k, Fraction(u + 1)) - table.eval_at(k, Fraction(u - 1))
                assert lhs == table.eval_at(k - 1, Fraction(u))

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
            lhs = [table.eval_at(k, Fraction(u)) * 2 ** k for k in range(K + 1)]
            assert lhs == power, f"u={u}"

    def test_derivative_at_zero(self):
        table = gk_poly(9)
        norms = norm_constants(5)
        for k in range(0, 5):
            if 2 * k <= 9:
                g = table.polys[2 * k]
                assert (g[1] if len(g) > 1 else Fraction(0)) == 0
            if 2 * k + 1 <= 9:
                g = table.polys[2 * k + 1]
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
            assert theta.sinh_residual().is_zero()

    def test_parity_for_even_u(self):
        theta = theta_series(u2_cosine(), 5)
        assert theta.zeta_negated() == theta.series

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
        gen = generating_series(u2, K, W, ctx)
        theta = theta_series(u2, K, ctx)
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
        gen = generating_series(u2_cosine(), 4, 10, make_context(4, 10))
        assert len(gen.entries) > 2
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
        assert relation.detail.startswith("harmonic ")
        assert "; monomial " in relation.detail
        assert "lhs=" in relation.detail and "rhs=" in relation.detail

    def test_bumped_harmonic_fails_rg_flow(self, monkeypatch):
        # negative control of identity (iii): the bumped amplitude no longer
        # follows the Theta flow
        from rgperturb import difference

        closed = difference._closed_windowed

        def bumped(u2, m, K, W, ctx, theta):
            p = closed(u2, m, K, W, ctx, theta)
            return p + ctx.var("eps") * ctx.var("t") if m == 2 else p

        monkeypatch.setattr(difference, "_closed_windowed", bumped)
        flow = check_difference_identities(u2_cosine(), 3, 8)[2]
        assert flow.line().startswith("FAIL check_rg_flow")
        assert flow.detail == "zeta-power 0; monomial eps^2*t: lhs=0, rhs=1/2"

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
        equation = check_difference_identities(u2_cosine(), 3, 8)[1]
        assert equation.line().startswith("FAIL check_difference_equation")
        assert equation.detail == "harmonic -10; monomial eps^2*t*A[-8]: lhs=0, rhs=1"

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
