"""Machine checks of the functional identities satisfied by secular tables.

Every check is an exact polynomial comparison after canonicalization --
numeric sampling never decides a check (the CLI keeps a numeric smoke layer,
but it is redundant by construction).  Failures report the first offending
(component, harmonic, monomial) with both sides' coefficients.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .gaussrat import GaussianRational
from .poly import MultiPoly, HarmonicSeries, PolyContext, Substitution
from .systems import ODESystemSpec, SpecError, parse_spec
from .engine import (
    SecularTable,
    expand_table,
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


def _first_mismatch(lhs: MultiPoly, rhs: MultiPoly):
    keys = set(lhs.terms) | set(rhs.terms)
    if not keys:
        return None
    zero = GaussianRational(0)
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


def _compare_tables(pairs, name, spec_id, order, seed=None) -> CheckReport:
    """pairs: iterable of (label, lhs poly, rhs poly)."""
    for label, lhs, rhs in pairs:
        if lhs != rhs:
            detail = f"{label}; {_first_mismatch(lhs, rhs)}"
            return CheckReport(name, spec_id, order, False, detail=detail, seed=seed)
    return CheckReport(name, spec_id, order, True, seed=seed)


def _at_s(ctx: PolyContext, amps: dict) -> dict:
    """Amplitude polynomials with t renamed s: A_ren(eps,s,A)."""
    t_to_s = Substitution(ctx, {"t": ctx.var("s")})
    return {name: t_to_s(p) for name, p in amps.items()}


def functional_relation(ctx: PolyContext, amplitudes: dict, entries, label,
                        seed=None) -> CheckReport:
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
        "check_functional_relation", label, ctx.order, seed,
    )


def check_functional_relation(table: SecularTable, seed=None) -> CheckReport:
    """P_{j,m}(eps,t,A) = P_{j,m}(eps,t-s, A_ren(eps,s,A)) for the secular table."""
    entries = (
        (f"component {j + 1}, harmonic {m}", p)
        for j, comp in enumerate(table.observed_components())
        for m, p in comp.entries.items()
    )
    return functional_relation(
        table.ctx, renormalized_amplitudes(table), entries, table.label, seed
    )


def check_group_property(table: SecularTable, seed=None) -> CheckReport:
    """A_ren(eps,t+s,A) = A_ren(eps,s,A_ren(eps,t,A))."""
    ctx = table.ctx
    amps = renormalized_amplitudes(table)
    amps_s = _at_s(ctx, amps)
    advance = Substitution(ctx, {"t": ctx.var("t") + ctx.var("s")})
    compose = Substitution(ctx, amps)

    def gen():
        for name in ctx.amplitudes:
            yield f"amplitude {name}", advance(amps[name]), compose(amps_s[name])

    return _compare_tables(gen(), "check_group_property", table.label, ctx.order, seed)


def check_no_secular(ren: RenExpansion, label="", seed=None) -> CheckReport:
    """Every renormalized-expansion entry is free of bare t (and s)."""
    for j, comp in enumerate(ren.components):
        for m, p in comp.entries.items():
            if p.degree("t") > 0 or p.degree("s") > 0:
                detail = f"component {j + 1}, harmonic {m}: t-degree {p.degree('t')}"
                return CheckReport(
                    "check_no_secular", label, ren.ctx.order, False, detail=detail, seed=seed
                )
    return CheckReport("check_no_secular", label, ren.ctx.order, True, seed=seed)


def chain_derivative(hs: HarmonicSeries, rg: RGSystem) -> HarmonicSeries:
    """d/dt along the RG flow of sum_m X_m(eps, A_ren(t)) e^{imt}."""
    out = hs.time_derivative()
    for name, f in zip(hs.ctx.amplitudes, rg.fields):
        d = hs.map_entries(lambda p: p.diff(name))  # zero entries drop out here
        out = out + d.map_entries(lambda p: p * f)
    return out


def renormalized_residuals(table: SecularTable) -> list:
    """Residual of the renormalized expansion driven by the RG equation."""
    rg = derive_rg(table)
    comps = renormalized_expansion(table).components
    return governing_residual(table.spec, comps, lambda hs: chain_derivative(hs, rg))


def check_residual(table: SecularTable, seed=None) -> CheckReport:
    """Both residuals: the naive table and the RG-driven renormalized form."""
    for kind, residuals in (
        ("naive", table_residuals(table)),
        ("renormalized", renormalized_residuals(table)),
    ):
        for j, res in enumerate(residuals):
            if not res.is_zero():
                m = res.support()[0]
                detail = (
                    f"{kind} residual, component {j + 1}, harmonic {m}: "
                    f"{res.entries[m].render()}"
                )
                return CheckReport(
                    "check_residual", table.label, table.ctx.order, False,
                    detail=detail, seed=seed,
                )
    return CheckReport("check_residual", table.label, table.ctx.order, True, seed=seed)


def check_inversion(table: SecularTable, seed=None) -> CheckReport:
    """Both A(eps,t,A_ren(eps,t,A)) = A and A_ren(eps,t,A(eps,t,A_ren)) = A_ren."""
    ctx = table.ctx
    amps = renormalized_amplitudes(table)
    inv = invert_amplitudes(table)
    to_ren, to_bare = Substitution(ctx, amps), Substitution(ctx, inv)

    def gen():
        for name in ctx.amplitudes:
            yield f"bare {name}", to_ren(inv[name]), ctx.var(name)
            yield f"renormalized {name}", to_bare(amps[name]), ctx.var(name)

    return _compare_tables(gen(), "check_inversion", table.label, ctx.order, seed)


def check_homogeneity(table: SecularTable, seed=None) -> CheckReport:
    """Autonomous semisimple weight rule: every monomial has sum r_k m_k = m."""
    spec = table.spec
    if spec.klass != "semisimple" or not spec.is_autonomous():
        return CheckReport(
            "check_homogeneity", table.label, table.ctx.order, True,
            applicable=False, detail="not applicable (needs autonomous semisimple)",
            seed=seed,
        )
    ctx = table.ctx
    namp = len(ctx.amplitudes)
    modes = spec.modes
    names = ctx.symbols
    for j, comp in enumerate(table.components):
        for m, p in comp.entries.items():
            for e in p.terms:
                weight = sum(e[3 + i] * modes[i] for i in range(namp))
                if weight != m:
                    mono = "*".join(
                        (names[i] if k == 1 else f"{names[i]}^{k}")
                        for i, k in enumerate(e) if k
                    )
                    return CheckReport(
                        "check_homogeneity", table.label, ctx.order, False,
                        detail=(
                            f"component {j + 1}, harmonic {m}, monomial {mono}: "
                            f"weight {weight} != {m}"
                        ),
                        seed=seed,
                    )
    rg = derive_rg(table)
    for j, f in enumerate(rg.fields):
        for e in f.terms:
            weight = sum(e[3 + i] * modes[i] for i in range(namp))
            if weight != modes[j]:
                return CheckReport(
                    "check_homogeneity", table.label, ctx.order, False,
                    detail=f"RG field {ctx.amplitudes[j]}: weight {weight} != {modes[j]}",
                    seed=seed,
                )
    return CheckReport("check_homogeneity", table.label, ctx.order, True, seed=seed)


def check_autonomous_reduction(table: SecularTable, seed=None) -> CheckReport:
    """For autonomous V with zero linear modes the RG equation is the system itself.

    Semisimple M=0: field_j = eps*V_j(eps, A_ren) exactly; nilpotent (mode 0):
    field_j = A_{j+1} + eps*V_j(eps, A_ren).  Only harmonic 0 is populated.
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
            seed=seed,
        )
    ctx = table.ctx
    for j, comp in enumerate(table.components):
        extra = [m for m in comp.entries if m != 0]
        if extra:
            return CheckReport(
                "check_autonomous_reduction", table.label, ctx.order, False,
                detail=f"component {j + 1} has harmonics {extra}", seed=seed,
            )
    rg = derive_rg(table)
    eps = ctx.var("eps")

    def gen():
        n = len(ctx.amplitudes)
        for j, vp in enumerate(spec.v_polys):
            # V is harmonic 0 alone, its states in the slots of the amplitudes
            expect = vp.get(0).rehome(ctx) * eps
            if spec.klass == "nilpotent" and j + 1 < n:
                expect = expect + ctx.var(ctx.amplitudes[j + 1])
            yield f"field {ctx.amplitudes[j]}", rg.fields[j], expect

    return _compare_tables(
        gen(), "check_autonomous_reduction", table.label, ctx.order, seed
    )


def corrupt_table(table: SecularTable) -> SecularTable:
    """Perturb one secular coefficient by eps*t (negative-control fixture)."""
    ctx = table.ctx
    comps = list(table.components)
    j, m = table.resonant[0]
    bump = ctx.var("eps") * ctx.var("t")
    comps[j] = comps[j] + HarmonicSeries.single(m, bump)
    return SecularTable(
        table.spec, ctx, comps, table.resonant,
        label=table.label + "#corrupted", gauge_mode=table.gauge_mode,
    )


def run_all_checks(table: SecularTable, seed=None) -> list:
    ren = renormalized_expansion(table)
    return [
        check_functional_relation(table, seed),
        check_group_property(table, seed),
        check_no_secular(ren, table.label, seed),
        check_residual(table, seed),
        check_inversion(table, seed),
        check_homogeneity(table, seed),
        check_autonomous_reduction(table, seed),
    ]


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


def run_random_suite(klass: str, seeds, label_prefix="random") -> list:
    reports = []
    for seed in seeds:
        spec = random_spec(klass, seed)
        table = expand_table(spec, label=f"{label_prefix}-{klass}-{seed}")
        reports.extend(run_all_checks(table, seed=seed))
    return reports
