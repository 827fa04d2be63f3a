"""An independent oracle: the original ODE, checked in sympy.

Each component y_j = E^g * sum_m P_{j,m} E^m is rebuilt in sympy from the
table's exact coefficients, with E = e^{it} a symbol (d/dt E = i E) and g the
nilpotent gauge mode (0 otherwise).  The forcing V is parsed from the spec's
source strings by sympy, not by rgperturb's expression layer, and the
class's original equation

    semisimple: y_j' = i m_j y_j + eps V_j(y)
    nilpotent:  y_j' = i m y_j + y_{j+1} + eps V_j(y)
    scalar:     prod_r (d/dt - i m_r)^{n_r} y = eps V(y, y', y'', ...)

must hold mod eps^(K+1).  For the scalar class only slot 0 (y) enters the
equation, its derivatives are taken in sympy, and each slot l+1 of the table
must be the t-derivative of slot l.  No engine arithmetic is shared beyond
reading the table's coefficients.  Small specs only: n <= 3 states and K <= 3.
"""

import json
import re

import pytest

sympy = pytest.importorskip("sympy")
from sympy.parsing.sympy_parser import parse_expr  # noqa: E402

from rgperturb.checks import corrupt_table, random_spec  # noqa: E402
from rgperturb.demos import load_builtin  # noqa: E402
from rgperturb.engine import expand_table  # noqa: E402
from rgperturb.systems import parse_spec  # noqa: E402

E = sympy.Symbol("E")
T = sympy.Symbol("t")
I = sympy.I


def _rational(q):
    return sympy.Rational(q.numerator, q.denominator)


def _layers(table, syms, j):
    """The eps-layers of y_j as sympy expressions in t, the amplitudes, params and E."""
    names = table.ctx.symbols[1:]
    spec = table.spec
    # the block eigenvalue the nilpotent engine reduced away
    gauge = spec.block_mode if spec.klass == "nilpotent" else 0
    out = [sympy.Integer(0)] * (table.order + 1)
    for m, p in table.components[j].entries.items():
        for e, c in p.terms.items():
            mono = (_rational(c.re) + I * _rational(c.im)) * E ** (m + gauge)
            for name, k in zip(names, e[1:]):
                mono *= syms[name] ** k
            out[e[0]] += mono
    return out


def _mul(a, b):
    """Product of two layer lists, truncated at the shorter one's length."""
    n = min(len(a), len(b))
    return [sympy.expand(sum((a[i] * b[k - i] for i in range(k + 1)), sympy.Integer(0)))
            for k in range(n)]


def _cos(arg):
    k = sympy.simplify(arg / T)
    return (E ** k + E ** -k) / 2


def _sin(arg):
    k = sympy.simplify(arg / T)
    return (E ** k - E ** -k) / (2 * I)


def _ddt(x):
    """d/dt of an expression in t and E = e^{it}."""
    return sympy.diff(x, T) + I * E * sympy.diff(x, E)


def _numbered(src):
    """A scalar V with y, y', y'', ... written as y1, y2, y3, ..."""
    return re.sub(r"(?<![\w'])y('*)(?![\w'])", lambda m: f"y{len(m.group(1)) + 1}", src)


def _forcing(src, ys, syms, n):
    """The first n eps-layers of V(y), V parsed by sympy from its source."""
    states = sympy.symbols(f"y1:{len(ys) + 1}")
    local = {"E": E, "i": I, "t": T, "cos": _cos, "sin": _sin}
    local.update({name: sym for name, sym in syms.items() if name != "t"})
    local.update({str(y): y for y in states})
    eps = syms["eps"]
    v = sympy.Poly(parse_expr(src.replace("^", "**"), local_dict=local), eps, *states)
    powers = {}
    out = [sympy.Integer(0)] * n
    for (a, *se), c in v.terms():
        if a >= n:
            continue
        key = tuple(se)
        if key not in powers:
            prod = [sympy.Integer(1)] + [sympy.Integer(0)] * (n - 1)
            for y, k in zip(ys, key):
                for _ in range(k):
                    prod = _mul(prod, y[:n])
            powers[key] = prod
        for k in range(a, n):
            out[k] += c * powers[key][k - a]
    return out


def ode_residual(table):
    """The (component, eps-order) pairs at which the original ODE fails."""
    spec = table.spec
    K = table.order
    syms = {name: sympy.Symbol(name) for name in table.ctx.symbols}
    syms["t"] = T
    n = spec.n_states
    ys = [_layers(table, syms, j) for j in range(n)]
    zero = [sympy.Integer(0)] * (K + 1)
    if spec.klass == "scalar":
        return _scalar_residual(spec, ys, syms, K)
    if spec.klass == "semisimple":
        linear = [[I * m * x for x in y] for m, y in zip(spec.modes, ys)]
    elif spec.klass == "nilpotent":
        above = ys[1:] + [zero]
        linear = [[I * spec.block_mode * x + z for x, z in zip(ys[j], above[j])]
                  for j in range(n)]
    else:
        raise AssertionError(f"no oracle for class {spec.klass!r}")
    bad = []
    for j, y in enumerate(ys):
        forcing = [sympy.Integer(0)] + _forcing(spec.v_srcs[j], ys, syms, K)
        for k in range(K + 1):
            if sympy.expand(_ddt(y[k]) - linear[j][k] - forcing[k]) != 0:
                bad.append((j, k))
    return bad


def _scalar_residual(spec, slots, syms, K):
    """(0, k) where the scalar equation fails at eps^k; (l, k) where slot l is
    not the t-derivative of slot l-1 at eps^k."""
    derivs = [slots[0]]
    for _ in range(spec.n_states - 1):
        derivs.append([_ddt(x) for x in derivs[-1]])
    lhs = slots[0]
    for m_r, n_r in spec.factors:
        for _ in range(n_r):
            lhs = [_ddt(x) - I * m_r * x for x in lhs]
    forcing = [sympy.Integer(0)] + _forcing(_numbered(spec.v_srcs[0]), derivs, syms, K)
    bad = [(0, k) for k in range(K + 1) if sympy.expand(lhs[k] - forcing[k]) != 0]
    for l in range(1, spec.n_states):
        bad += [(l, k) for k in range(K + 1)
                if sympy.expand(slots[l][k] - _ddt(slots[l - 1][k])) != 0]
    return bad


def small_specs():
    # ex_cd and ex_bt are the built-ins with n <= 2; ex_bt's sympy products
    # at K=3 cost about 10 s, so it runs at K=2
    for name, order in (("ex_cd", 3), ("ex_bt", 2)):
        yield name, load_builtin(name, order)
    for klass in ("semisimple", "nilpotent"):
        for seed in range(12):
            yield f"random-{klass}-{seed}", random_spec(klass, seed)


def scalar_specs():
    # ex_third's sympy products at K=3 cost about 11 s, so it runs at K=2
    for name, order in (("ex_third", 2), ("ex_scalar1", 3)):
        yield name, load_builtin(name, order)
    for seed in range(20):
        yield f"random-scalar-{seed}", random_spec("scalar", seed)


SPECS = dict(small_specs())
SCALAR_SPECS = dict(scalar_specs())


@pytest.mark.parametrize("label", sorted(SPECS))
def test_table_solves_the_original_ode(label):
    spec = SPECS[label]
    assert spec.n_states <= 2 and spec.order <= 3
    table = expand_table(spec)
    assert ode_residual(table) == []
    assert ode_residual(corrupt_table(table)) != []


@pytest.mark.parametrize("label", sorted(SCALAR_SPECS))
def test_scalar_table_solves_the_original_ode(label):
    spec = SCALAR_SPECS[label]
    assert spec.n_states <= 3 and spec.order <= 3
    table = expand_table(spec)
    assert ode_residual(table) == []
    assert ode_residual(corrupt_table(table)) != []


def test_scalar_oracle_reads_derivative_slots():
    # V in y and y'' of the third-order equation; a slot that is not the
    # derivative of the one before it fails even when slot 0 is right
    assert _numbered("2*y*y''*cos(t) + y'") == "2*y1*y3*cos(t) + y2"
    table = expand_table(load_builtin("ex_third", 2))
    comps = list(table.components)
    comps[2] = comps[1]
    bent = type(table)(table.spec, table.ctx, comps, table.resonant)
    assert ode_residual(bent) == [(2, k) for k in range(3)]


def test_gauge_mode_is_exercised():
    # the nilpotent E^g factor is only tested if some spec has g != 0
    assert any(s.klass == "nilpotent" and s.block_mode for s in SPECS.values())


def test_oracle_parses_cos_and_params():
    spec = parse_spec(json.dumps({
        "class": "nilpotent", "linear_part": {"mode": 1, "size": 2},
        "V": ["2*alpha*y1*cos(2*t)", "beta*y2*(1 + y1^2 - sin(t))"],
        "params": ["alpha", "beta"], "order": 2,
    }))
    table = expand_table(spec)
    assert ode_residual(table) == []
    assert ode_residual(corrupt_table(table)) != []
