"""Equation specifications: the document format and structural transforms.

A spec document is a single JSON object.  Fields common to all classes:
``class``, ``V`` (list of expression strings), ``params``, ``order`` and the
optional ``amplitude_names``.  The linear part depends on the class:

* ``semisimple``  -- ``linear_part``: list of integers (the diagonal modes)
* ``nilpotent``   -- ``linear_part``: {"mode": m, "size": n} (single Jordan block)
* ``scalar``      -- ``linear_part``: list of [m_r, n_r] factor pairs
* ``difference``  -- no V; instead ``alpha``: [[l, coeff], ...], plus ``window``
* ``oscillator``  -- ``masses``: list of positive integers; V written in
  q1..qn, p1..pn; parsed documents are converted to a first-order
  semisimple system of twice the size.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .gaussrat import GaussianRational
from .poly import PolyContext, HarmonicSeries, Substitution
from .expressions import (
    ast_to_poly,
    ast_to_vpoly,
    constant_value,
    parse_expression,
    render_forcing,
    ExprSemanticError,
    ExprSyntaxError,
)


class SpecError(ValueError):
    pass


def state_names_for(klass: str, size: int):
    if klass == "scalar":
        return tuple("y" + "'" * l for l in range(size))
    return tuple(f"y{j + 1}" for j in range(size))


def default_amplitude_names(klass: str, spec) -> tuple:
    if klass == "semisimple":
        return tuple(f"A{j + 1}" for j in range(len(spec["modes"])))
    if klass == "nilpotent":
        return tuple(f"A{j + 1}" for j in range(spec["size"]))
    if klass == "scalar":
        factors = spec["factors"]
        if len(factors) == 1:
            return tuple(f"A{j + 1}" for j in range(factors[0][1]))
        return tuple(
            f"A{r + 1}_{j + 1}" for r, (_, n) in enumerate(factors) for j in range(n)
        )
    raise SpecError(f"no amplitude naming for class {klass!r}")


@dataclass
class ODESystemSpec:
    klass: str
    order: int
    params: tuple = ()
    v_srcs: tuple = ()
    v_polys: list = field(default_factory=list)  # HarmonicSeries over each V's own context
    amplitude_names: tuple = ()
    modes: tuple = ()          # semisimple: diagonal integer modes
    block_mode: int = 0        # nilpotent: eigenvalue i*m
    block_size: int = 0        # nilpotent: Jordan block size
    factors: tuple = ()        # scalar: ((m_r, n_r), ...)
    alpha: dict = field(default_factory=dict)  # difference: l -> coefficient of z^l in 2U
    window: int = 0            # difference: amplitude window bound

    @property
    def n_states(self) -> int:
        if self.klass == "semisimple":
            return len(self.modes)
        if self.klass == "nilpotent":
            return self.block_size
        if self.klass == "scalar":
            return sum(n for _, n in self.factors)
        raise SpecError(f"class {self.klass!r} has no state vector")

    @property
    def state_names(self) -> tuple:
        return state_names_for(self.klass, self.n_states)

    def is_autonomous(self) -> bool:
        return not any(l for vp in self.v_polys for l in vp.entries)

    def to_document(self) -> dict:
        doc = {"class": self.klass, "order": self.order}
        if self.klass == "semisimple":
            doc["linear_part"] = list(self.modes)
        elif self.klass == "nilpotent":
            doc["linear_part"] = {"mode": self.block_mode, "size": self.block_size}
        elif self.klass == "scalar":
            doc["linear_part"] = [[m, n] for m, n in self.factors]
        elif self.klass == "difference":
            doc["alpha"] = [[l, str(c)] for l, c in sorted(self.alpha.items())]
            doc["window"] = self.window
        if self.klass != "difference":
            doc["V"] = list(self.v_srcs)
            doc["params"] = list(self.params)
        doc["amplitude_names"] = list(self.amplitude_names)
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_document(), indent=2)


def _parse_constant(src) -> GaussianRational:
    if isinstance(src, int):
        return GaussianRational(src)
    try:
        c = constant_value(ast_to_vpoly(parse_expression(str(src)), (), ()))
    except (ExprSyntaxError, ExprSemanticError) as exc:
        raise SpecError(f"bad coefficient {src!r}: {exc}") from exc
    if c is None:
        raise SpecError(f"coefficient {src!r} is not a constant")
    return c


_RESERVED = ("eps", "t", "s", "E", "i")


def _check_names(*groups) -> None:
    """State, parameter and amplitude names must be distinct and unreserved."""
    seen = set()
    for name in (name for group in groups for name in group):
        if name in _RESERVED:
            raise SpecError(f"name {name!r} is reserved")
        if name in seen:
            raise SpecError(
                f"name {name!r} is used twice among states, parameters and amplitudes"
            )
        seen.add(name)


def _expand_v(srcs, state_names, params):
    polys = []
    for src in srcs:
        try:
            polys.append(ast_to_vpoly(parse_expression(src), state_names, params))
        except (ExprSyntaxError, ExprSemanticError) as exc:
            raise SpecError(f"bad V expression {src!r}: {exc}") from exc
    return polys


def parse_spec(text: str) -> ODESystemSpec:
    """Parse and validate a spec document (JSON text)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecError("document must be a JSON object")
    klass = doc.get("class")
    if klass not in ("semisimple", "nilpotent", "scalar", "difference", "oscillator"):
        raise SpecError(f"unknown class {klass!r}")
    order = doc.get("order")
    if not isinstance(order, int) or order < 0:
        raise SpecError("order must be an integer >= 0")
    params = tuple(doc.get("params", ()))

    if klass == "oscillator":
        masses = doc.get("masses")
        if not masses or any(not isinstance(m, int) or m < 1 for m in masses):
            raise SpecError("oscillator masses must be positive integers")
        vsrcs = doc.get("V", ())
        if len(vsrcs) != len(masses):
            raise SpecError("need one V per oscillator")
        return oscillator_to_firstorder(masses, vsrcs, params, order)

    if klass == "difference":
        if "V" in doc:
            raise SpecError("the difference class only supports the linear form; no V field")
        alpha_raw = doc.get("alpha", [])
        alpha = {}
        for entry in alpha_raw:
            if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
                raise SpecError("alpha entries must be [l, coeff] pairs")
            l, c = entry
            if not isinstance(l, int):
                raise SpecError("alpha powers must be integers")
            cv = _parse_constant(c)
            if not cv.is_zero():
                alpha[l] = cv
        window = doc.get("window", 0)
        if not isinstance(window, int) or window < 0:
            raise SpecError("window must be an integer >= 0")
        return ODESystemSpec(
            klass="difference", order=order, alpha=alpha, window=window,
            amplitude_names=(),
        )

    vsrcs = tuple(doc.get("V", ()))
    lp = doc.get("linear_part")
    if klass == "semisimple":
        if not isinstance(lp, list) or not lp or any(not isinstance(m, int) for m in lp):
            raise SpecError("semisimple linear_part must be a nonempty list of integers")
        modes = tuple(lp)
        n = len(modes)
        if len(vsrcs) != n:
            raise SpecError(f"need {n} V components, got {len(vsrcs)}")
        lmeta = {"modes": modes}
        spec = ODESystemSpec(klass=klass, order=order, params=params, modes=modes)
    elif klass == "nilpotent":
        if not isinstance(lp, dict) or "size" not in lp:
            raise SpecError('nilpotent linear_part must be {"mode": m, "size": n}')
        size = lp["size"]
        mode = lp.get("mode", 0)
        if not isinstance(size, int) or size < 1 or not isinstance(mode, int):
            raise SpecError("nilpotent size must be >= 1 and mode an integer")
        if len(vsrcs) != size:
            raise SpecError(f"need {size} V components, got {len(vsrcs)}")
        lmeta = {"size": size}
        spec = ODESystemSpec(
            klass=klass, order=order, params=params, block_mode=mode, block_size=size
        )
    else:  # scalar
        if not isinstance(lp, list) or not lp:
            raise SpecError("scalar linear_part must be a list of [m_r, n_r] pairs")
        factors = []
        for entry in lp:
            if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
                raise SpecError("scalar factors must be [m_r, n_r] pairs")
            m, n = entry
            if not isinstance(m, int) or not isinstance(n, int) or n < 1:
                raise SpecError("scalar factor multiplicities must be >= 1")
            factors.append((m, n))
        ms = [m for m, _ in factors]
        if len(set(ms)) != len(ms):
            raise SpecError("scalar modes m_r must be pairwise distinct")
        if len(vsrcs) != 1:
            raise SpecError("scalar class takes exactly one V")
        lmeta = {"factors": factors}
        spec = ODESystemSpec(
            klass=klass, order=order, params=params, factors=tuple(factors)
        )

    names = doc.get("amplitude_names")
    if names is None:
        spec.amplitude_names = default_amplitude_names(klass, lmeta)
    else:
        if len(names) != len(default_amplitude_names(klass, lmeta)):
            raise SpecError("wrong number of amplitude names")
        spec.amplitude_names = tuple(names)
    _check_names(spec.state_names, params, spec.amplitude_names)
    spec.v_srcs = vsrcs
    spec.v_polys = _expand_v(vsrcs, spec.state_names, params)
    return spec


def oscillator_to_firstorder(masses, v_srcs, params=(), order=0) -> ODESystemSpec:
    """Convert coupled oscillators q_j'' = -m_j^2 q_j + eps V_j to first order.

    V_j may involve the positions q1..qn and velocities p1..pn.  The change of
    variables y_{2j-1} = p_j + i m_j q_j, y_{2j} = p_j - i m_j q_j produces a
    semisimple system of size 2n with modes (m_1, -m_1, ..., m_n, -m_n).
    """
    n = len(masses)
    for m in masses:
        if not isinstance(m, int) or m < 1:
            raise SpecError("oscillator masses must be positive integers")
    qp_names = tuple(f"q{j + 1}" for j in range(n)) + tuple(f"p{j + 1}" for j in range(n))
    y_names = tuple(f"y{j + 1}" for j in range(2 * n))
    amplitude_names = tuple(f"A{j + 1}" for j in range(2 * n))
    _check_names(qp_names, y_names, params, amplitude_names)

    # V's slot k holds the k-th of q1..qn, p1..pn; read in the y context the
    # slot is renamed y_{k+1}, and the simultaneous substitution of every slot
    # by its image in the y_j is the change of variables
    images = [f"(y{2 * j + 1} - y{2 * j + 2})/(2*i*{m})" for j, m in enumerate(masses)]
    images += [f"(y{2 * j + 1} + y{2 * j + 2})/2" for j in range(n)]
    new_polys = []
    for vp in _expand_v(v_srcs, qp_names, params):
        ctx = PolyContext(y_names, params, vp.ctx.order)
        sub = Substitution(ctx, {
            y: ast_to_poly(parse_expression(src), ctx) for y, src in zip(y_names, images)
        })
        new_polys.append(
            HarmonicSeries(ctx, {l: sub(p.rehome(ctx)) for l, p in vp.entries.items()})
        )
    modes = tuple(x for m in masses for x in (m, -m))
    spec = ODESystemSpec(klass="semisimple", order=order, params=params, modes=modes)
    spec.v_polys = [new_polys[j // 2] for j in range(2 * n)]
    spec.v_srcs = tuple(render_forcing(vp) for vp in spec.v_polys)
    spec.amplitude_names = amplitude_names
    return spec
