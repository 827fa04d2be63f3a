"""Machine checks of the functional identities satisfied by secular tables.

Every check is an exact polynomial comparison after canonicalization --
numeric sampling never decides a check (the CLI keeps a numeric smoke layer,
but it is redundant by construction).  Failures report the first offending
(component, harmonic, monomial) with both sides' coefficients, "first" in a
fixed order that no table insertion order can move: components in index
order, harmonics in `support()` order, monomials in `sorted_terms()` order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .gaussrat import ZERO
from .poly import (
    MultiPoly,
    HarmonicSeries,
    PolyContext,
    Substitution,
    lie_derivative,
    lie_derivative_series,
    monomial_text,
)
from .systems import ODESystemSpec, SpecError, parse_spec
from .engine import (
    SecularTable,
    table_residuals,
    governing_residual,
)
from .renorm import (
    renormalized_amplitudes,
    derive_rg,
    renormalized_expansion,
    invert_amplitudes,
    RGSystem,
    RenExpansion,
)


@dataclass
class CheckReport:
    name: str
    spec_id: str
    order: int
    passed: bool
    applicable: bool = True
    detail: str = ""
    seed: int | None = None

    @property
    def ok(self) -> bool:
        return self.passed or not self.applicable

    def line(self) -> str:
        if not self.applicable:
            status = "SKIP"
        else:
            status = "PASS" if self.passed else "FAIL"
        tail = f" :: {self.detail}" if self.detail and status == "FAIL" else ""
        if not self.applicable and self.detail:
            tail = f" :: {self.detail}"
        seed = f" seed={self.seed}" if self.seed is not None else ""
        return f"{status} {self.name} [{self.spec_id} K={self.order}{seed}]{tail}"


def _first_mismatch(lhs: MultiPoly, rhs: MultiPoly) -> str:
    """The first monomial, in the canonical order, where two unequal sides differ.

    The terms of lhs - rhs are exactly the monomials where the sides differ.
    """
    e, _ = (lhs - rhs).sorted_terms()[0]
    mono = monomial_text(lhs.ctx.symbols, e) or "1"
    return f"monomial {mono}: lhs={lhs.terms.get(e, ZERO)}, rhs={rhs.terms.get(e, ZERO)}"


def _compare_tables(pairs, name, spec_id, order) -> CheckReport:
    """pairs: iterable of (label, lhs poly, rhs poly)."""
    for label, lhs, rhs in pairs:
        if lhs != rhs:
            detail = f"{label}; {_first_mismatch(lhs, rhs)}"
            return CheckReport(name, spec_id, order, False, detail=detail)
    return CheckReport(name, spec_id, order, True)


def _at_s(ctx: PolyContext, amps: dict) -> dict:
    """Amplitude polynomials with t renamed s: A_ren(eps,s,A)."""
    t_to_s = Substitution(ctx, {"t": ctx.var("s")})
    return {name: t_to_s(p) for name, p in amps.items()}


def functional_relation(ctx: PolyContext, amplitudes: dict, entries, label) -> CheckReport:
    """P(eps,t,A) = P(eps,t-s, A_ren(eps,s,A)) as a (t,s,A)-identity.

    amplitudes: symbol name -> A_ren(eps,t,A); entries: iterable of
    (label, P).  One substitution serves every entry, so each bound image is
    built once.
    """
    bindings = _at_s(ctx, amplitudes)
    bindings["t"] = ctx.var("t") - ctx.var("s")
    shift = Substitution(ctx, bindings)
    return _compare_tables(
        ((where, p, shift(p)) for where, p in entries),
        "check_functional_relation", label, ctx.order,
    )


def check_functional_relation(table: SecularTable) -> CheckReport:
    """P_{j,m}(eps,t,A) = P_{j,m}(eps,t-s, A_ren(eps,s,A)) for the secular table."""
    entries = (
        (f"component {j + 1}, harmonic {m}", comp.entries[m])
        for j, comp in enumerate(table.observed_components())
        for m in comp.support()
    )
    return functional_relation(
        table.ctx, renormalized_amplitudes(table), entries, table.label
    )


def check_group_property(table: SecularTable) -> CheckReport:
    """A_ren(eps,t+s,A) = A_ren(eps,s,A_ren(eps,t,A))."""
    ctx = table.ctx
    amps = renormalized_amplitudes(table)
    amps_s = _at_s(ctx, amps)
    advance = Substitution(ctx, {"t": ctx.var("t") + ctx.var("s")})
    compose = Substitution(ctx, amps)

    def gen():
        for name in ctx.amplitudes:
            yield f"amplitude {name}", advance(amps[name]), compose(amps_s[name])

    return _compare_tables(gen(), "check_group_property", table.label, ctx.order)


def check_no_secular(ren: RenExpansion, label="") -> CheckReport:
    """Every renormalized-expansion entry is free of bare t (and s)."""
    for j, comp in enumerate(ren.components):
        for m in comp.support():
            p = comp.entries[m]
            if p.degree("t") > 0 or p.degree("s") > 0:
                detail = f"component {j + 1}, harmonic {m}: t-degree {p.degree('t')}"
                return CheckReport("check_no_secular", label, ren.ctx.order, False, detail=detail)
    return CheckReport("check_no_secular", label, ren.ctx.order, True)


def t_derivatives(table: SecularTable) -> list:
    """Per component, the map m -> dP_m/dt of its entries."""
    return [{m: p.diff_t() for m, p in comp.entries.items()} for comp in table.components]


def follows_rg_flow(table: SecularTable, rg: RGSystem, diff_t=None) -> bool:
    """Whether the table is the Lie series exp(tL) of its t = 0 slice.

    Two conditions, with L = sum_k F_k d/dA_k and F = rg.fields:
    (IC) every renormalized amplitude at t = 0 is its own symbol;
    (F)  dP/dt = L P for every entry of every component, the scalar class's
         derivative slots included.
    (G), dA_ren/dt = L A_ren, is (F) on the entries the amplitudes are read
    from and on their t-derivatives, since L has no t and commutes with d/dt.
    (G) and (IC) make A_ren the flow Phi_t of F, which gives the group law and
    both inversion round trips; with (F), P(t, A) = P(0, Phi_t(A)), which is
    the functional relation (Groebner's Lie series).  `diff_t`, when given,
    is `t_derivatives(table)`, already taken.
    """
    ctx = table.ctx
    if any(a.set_zero("t") != ctx.var(name)
           for name, a in renormalized_amplitudes(table).items()):
        return False
    if diff_t is None:
        diff_t = t_derivatives(table)
    return all(d[m] == lie_derivative(p, rg.fields)
               for comp, d in zip(table.components, diff_t) for m, p in comp.entries.items())


def renormalized_residuals(table: SecularTable, rg: RGSystem,
                           ren: RenExpansion | None = None) -> list:
    """Residual of the renormalized expansion driven by the RG equation.

    `ren`, when given, is the table's renormalized expansion, so it is not
    built again.
    """

    def ddt(hs):  # d/dt along the RG flow of sum_m X_m(eps, A_ren(t)) e^{imt}
        return hs.time_derivative() + lie_derivative_series(hs, rg.fields)

    comps = (ren or renormalized_expansion(table)).components
    return governing_residual(table.spec, comps, ddt)


def check_residual(table: SecularTable) -> CheckReport:
    """Both residuals: the naive table and the RG-driven renormalized form."""
    for kind, residuals in (
        ("naive", table_residuals(table)),
        ("renormalized", renormalized_residuals(table, derive_rg(table))),
    ):
        for j, res in enumerate(residuals):
            if not res.is_zero():
                m = res.support()[0]
                detail = (
                    f"{kind} residual, component {j + 1}, harmonic {m}: "
                    f"{res.entries[m].render()}"
                )
                return CheckReport(
                    "check_residual", table.label, table.ctx.order, False, detail=detail
                )
    return CheckReport("check_residual", table.label, table.ctx.order, True)


def check_inversion(table: SecularTable) -> CheckReport:
    """Both A(eps,t,A_ren(eps,t,A)) = A and A_ren(eps,t,A(eps,t,A_ren)) = A_ren."""
    ctx = table.ctx
    amps = renormalized_amplitudes(table)
    inv = invert_amplitudes(table)
    to_ren, to_bare = Substitution(ctx, amps), Substitution(ctx, inv)

    def gen():
        for name in ctx.amplitudes:
            yield f"bare {name}", to_ren(inv[name]), ctx.var(name)
            yield f"renormalized {name}", to_bare(amps[name]), ctx.var(name)

    return _compare_tables(gen(), "check_inversion", table.label, ctx.order)


def check_homogeneity(table: SecularTable, rg: RGSystem | None = None) -> CheckReport:
    """Autonomous semisimple weight rule: every monomial has sum r_k m_k = m.

    `rg`, when given, is the table's RG system, so it is not derived again.
    """
    spec = table.spec
    if spec.klass != "semisimple" or not spec.is_autonomous():
        return CheckReport(
            "check_homogeneity", table.label, table.ctx.order, True,
            applicable=False, detail="not applicable (needs autonomous semisimple)",
        )
    ctx = table.ctx
    modes = spec.modes

    def weight(e):
        return sum(k * mode for k, mode in zip(ctx.split(e)[3], modes))

    def first_off(p, want):
        """The first monomial of p in the canonical order whose weight is not want."""
        if all(weight(e) == want for e in p.terms):
            return None
        return next(e for e, _ in p.sorted_terms() if weight(e) != want)

    for j, comp in enumerate(table.components):
        for m in comp.support():
            if (e := first_off(comp.entries[m], m)) is not None:
                return CheckReport(
                    "check_homogeneity", table.label, ctx.order, False,
                    detail=(
                        f"component {j + 1}, harmonic {m}, monomial "
                        f"{monomial_text(ctx.symbols, e)}: weight {weight(e)} != {m}"
                    ),
                )
    rg = rg or derive_rg(table)
    for j, f in enumerate(rg.fields):
        if (e := first_off(f, modes[j])) is not None:
            return CheckReport(
                "check_homogeneity", table.label, ctx.order, False,
                detail=f"RG field {ctx.amplitudes[j]}: weight {weight(e)} != {modes[j]}",
            )
    return CheckReport("check_homogeneity", table.label, ctx.order, True)


def check_autonomous_reduction(table: SecularTable, rg: RGSystem | None = None) -> CheckReport:
    """For autonomous V with zero linear modes the RG equation is the system itself.

    Semisimple M=0: field_j = eps*V_j(eps, A_ren) exactly; nilpotent (mode 0):
    field_j = A_{j+1} + eps*V_j(eps, A_ren).  Only harmonic 0 is populated.
    `rg`, when given, is the table's RG system, so it is not derived again.
    """
    spec = table.spec
    applicable = spec.is_autonomous() and (
        (spec.klass == "semisimple" and all(m == 0 for m in spec.modes))
        or (spec.klass == "nilpotent" and spec.block_mode == 0)
    )
    if not applicable:
        return CheckReport(
            "check_autonomous_reduction", table.label, table.ctx.order, True,
            applicable=False, detail="not applicable (needs autonomous, zero modes)",
        )
    ctx = table.ctx
    for j, comp in enumerate(table.components):
        extra = [m for m in comp.support() if m != 0]
        if extra:
            return CheckReport(
                "check_autonomous_reduction", table.label, ctx.order, False,
                detail=f"component {j + 1} has harmonics {extra}",
            )
    rg = rg or derive_rg(table)
    eps = ctx.var("eps")

    def gen():
        n = len(ctx.amplitudes)
        for j, vp in enumerate(spec.v_polys):
            # V is harmonic 0 alone, its states in the slots of the amplitudes
            expect = vp.get(0).rehome(ctx) * eps
            if spec.klass == "nilpotent" and j + 1 < n:
                expect = expect + ctx.var(ctx.amplitudes[j + 1])
            yield f"field {ctx.amplitudes[j]}", rg.fields[j], expect

    return _compare_tables(gen(), "check_autonomous_reduction", table.label, ctx.order)


def corrupt_table(table: SecularTable) -> SecularTable:
    """Perturb one secular coefficient by eps*t (negative-control fixture)."""
    ctx = table.ctx
    comps = list(table.components)
    j, m = table.resonant[0]
    bump = ctx.var("eps") * ctx.var("t")
    comps[j] = comps[j] + HarmonicSeries.single(m, bump)
    return SecularTable(table.spec, ctx, comps, table.resonant, label=table.label + "#corrupted")


def run_all_checks(table: SecularTable, seed=None) -> list:
    """Every identity check of the table, each report stamped with `seed`.

    When the table follows the RG flow (`follows_rg_flow`), the functional
    relation, the group law and the inversion PASS without a substitution,
    and the residual check PASSes when the renormalized residual and the
    scalar slot relations vanish: the naive residual is then the
    renormalized one along the flow.  Otherwise the reference check runs
    and gives the verdict and the FAIL detail; a PASS line has no detail,
    so the report lines are the reference checks' either way.
    """
    rg = derive_rg(table)
    ren = renormalized_expansion(table)
    diff_t = t_derivatives(table)
    flow = follows_rg_flow(table, rg, diff_t)
    residual_ok = flow and all(
        r.is_zero() for r in renormalized_residuals(table, rg, ren) + table.slot_residuals(diff_t))

    def passed(name):
        return CheckReport(name, table.label, table.ctx.order, True)

    reports = [
        passed("check_functional_relation") if flow else check_functional_relation(table),
        passed("check_group_property") if flow else check_group_property(table),
        check_no_secular(ren, table.label),
        passed("check_residual") if residual_ok else check_residual(table),
        passed("check_inversion") if flow else check_inversion(table),
        check_homogeneity(table, rg),
        check_autonomous_reduction(table, rg),
    ]
    for r in reports:
        r.seed = seed
    return reports


# --------------------------------------------------------------------------
# Randomized specs (seeded) for the identity suite
# --------------------------------------------------------------------------

def _coeff_src(rng) -> str:
    re = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    im = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    if rng.random() < 0.4:
        im = Fraction(0)
    if re == 0 and im == 0:
        re = Fraction(1)
    if im == 0:
        src = str(re)
    elif re == 0:
        src = f"{im}*i"
    elif im > 0:
        src = f"({re} + {im}*i)"
    else:
        src = f"({re} - {-im}*i)"
    # keep every generated factor grammatical inside a product
    return f"({src})" if src.startswith("-") else src


def _term_src(rng, states) -> str:
    factors = [_coeff_src(rng)]
    if rng.random() < 0.4:
        factors.append("eps")
    l = rng.choice([-1, 0, 0, 1])
    if l:
        factors.append("E" if l == 1 else "E^-1")
    degree = rng.choice([0, 1, 1, 2, 2])
    for _ in range(degree):
        factors.append(rng.choice(states))
    return "*".join(factors)


def _v_src(rng, states) -> str:
    terms = [_term_src(rng, states) for _ in range(rng.randint(1, 3))]
    return " + ".join(terms)


_CLASS_SALT = {"semisimple": 1, "nilpotent": 2, "scalar": 3}


def random_spec(klass: str, seed: int, order: int | None = None) -> ODESystemSpec:
    """Deterministic small random spec: n <= 2, V degree <= 2, K <= 3.

    `order`, when given, replaces the drawn truncation order; the draw still
    happens, so the rest of the spec is the same at every order.
    """
    import json

    if klass not in _CLASS_SALT:
        raise SpecError(f"no random generator for class {klass!r}")
    rng = random.Random(_CLASS_SALT[klass] * 100003 + seed)
    drawn = rng.randint(1, 3)
    if order is None:
        order = drawn
    if klass == "semisimple":
        n = rng.randint(1, 2)
        states = [f"y{j + 1}" for j in range(n)]
        doc = {
            "class": "semisimple",
            "linear_part": [rng.randint(-2, 2) for _ in range(n)],
            "V": [_v_src(rng, states) for _ in range(n)],
            "order": order,
        }
    elif klass == "nilpotent":
        n = rng.randint(1, 2)
        states = [f"y{j + 1}" for j in range(n)]
        doc = {
            "class": "nilpotent",
            "linear_part": {"mode": rng.choice([0, 0, 0, 1, -1]), "size": n},
            "V": [_v_src(rng, states) for _ in range(n)],
            "order": order,
        }
    elif klass == "scalar":
        if rng.random() < 0.5:
            factors = [[rng.randint(-1, 1), rng.randint(1, 2)]]
        else:
            ms = rng.sample([-1, 0, 1], 2)
            factors = [[ms[0], 1], [ms[1], 1]]
        N = sum(n for _, n in factors)
        states = ["y" + "'" * l for l in range(N)]
        doc = {
            "class": "scalar",
            "linear_part": factors,
            "V": [_v_src(rng, states)],
            "order": order,
        }
    else:
        raise SpecError(f"no random generator for class {klass!r}")
    return parse_spec(json.dumps(doc))
