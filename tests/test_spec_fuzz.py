"""Spec fuzz: a bad spec exits 2 with one `error:` line, never a traceback.

In the first fuzz, each example is a spec document of one class whose fields
(and the entries inside its lists and objects) may be replaced by a value of
the wrong type: a bool, a float, null, a string, a nested list or an object.
The forcing strings are drawn from a small token alphabet, so many do not
parse; the order is at most 3, so every document that is accepted expands
quickly.

The second fuzzes the expression grammar of V alone: nested parentheses,
long flat sums and products, unary minus, cos/sin, and exponents at and past
the packed limit on monomials.
"""

import contextlib
import io
import itertools
import json

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from rgperturb.cli import main
from rgperturb.poly import MAX_EXP

TOKENS = ["y1", "y2", "y", "y'", "q1", "p1", "a", "E", "i", "t", "2", "0",
          "*", "+", "-", "/", "^", "(", ")", "cos(t)", " "]

V_SRC = st.lists(st.sampled_from(TOKENS), max_size=6).map("".join)
SMALL = st.integers(-2, 2)

WRONG = st.one_of(
    st.booleans(),
    st.floats(),
    st.none(),
    st.text(alphabet="ab1 ", max_size=3),
    st.lists(st.lists(SMALL, max_size=2), min_size=1, max_size=2),
    st.dictionaries(st.sampled_from(["mode", "size", "x"]), SMALL, max_size=2),
)


@st.composite
def base_documents(draw):
    """A well-typed document of a drawn class; its values may still be invalid."""
    klass = draw(st.sampled_from(["semisimple", "nilpotent", "scalar", "difference",
                                  "oscillator"]))
    n = draw(st.integers(1, 2))
    doc = {"class": klass, "order": draw(st.integers(0, 3))}
    if klass == "semisimple":
        doc["linear_part"] = draw(st.lists(SMALL, min_size=n, max_size=n))
    elif klass == "nilpotent":
        doc["linear_part"] = {"mode": draw(SMALL), "size": n}
    elif klass == "scalar":
        doc["linear_part"] = [[draw(SMALL), draw(st.integers(1, 2))]]
        n = 1
    elif klass == "difference":
        doc["alpha"] = [[draw(SMALL), draw(st.sampled_from(["1", "1/2", "i"]))]
                        for _ in range(n)]
        doc["window"] = draw(st.integers(0, 12))
    else:
        doc["masses"] = draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
    if klass != "difference":
        doc["V"] = draw(st.lists(V_SRC, min_size=n, max_size=n))
        if draw(st.booleans()):
            doc["params"] = ["a"]
    return doc


def paths(value, prefix=()):
    """The path of every value inside a document, the document's fields included."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, item in items:
        yield prefix + (key,)
        if isinstance(item, (dict, list)):
            yield from paths(item, prefix + (key,))


@st.composite
def documents(draw):
    doc = draw(base_documents())
    where = sorted(paths(doc), key=repr)
    for path in draw(st.lists(st.sampled_from(where), min_size=1, max_size=2, unique=True)):
        target = doc
        try:
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = draw(WRONG)
        except (KeyError, IndexError, TypeError):
            pass  # an earlier replacement removed this path
    return doc


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=documents())
@example(doc={"class": "oscillator", "masses": [True], "V": ["q1^2"], "order": 2})
@example(doc={"class": "difference", "alpha": 3, "order": 2, "window": 10})
@example(doc={"class": "oscillator", "masses": 2.0, "V": ["q1"], "order": 1})
def test_wrong_typed_field_exits_0_or_2(tmp_path, doc):
    assert_exits_0_or_2(tmp_path, doc)


def expand(tmp_path, doc, *options):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["expand", "--spec", str(path), *options])
    return code, out.getvalue(), err.getvalue()


def assert_exits_0_or_2(tmp_path, doc):
    code, _, err = expand(tmp_path, doc)
    assert code in (0, 2)
    if code == 2:
        lines = err.splitlines(keepends=True)
        assert len(lines) == 1 and lines[0].startswith("error:") and lines[0].endswith("\n")


# --------------------------------------------------------------------------
# The expression grammar
# --------------------------------------------------------------------------

MONOMIALS = st.sampled_from(["y1", "y2", "a", "E", "eps", "i", "2", "t", "q1"])
ATOMS = st.one_of(MONOMIALS, st.sampled_from(["cos(t)", "sin(2*t)"]))
NEAR_LIMIT = st.sampled_from([MAX_EXP - 1, MAX_EXP, MAX_EXP + 1, 2 * MAX_EXP])
# Exponents near the limit go on the carrier, eps, the parameter, i and the
# states; the engine builds a state power by repeated squaring, so a state
# raised near the limit costs about 2*31 powers.  A number or a multi-term
# base raised that high is slow, not wrong; neither is drawn, and the long
# products multiply monomials only (a thousand factors of cos(t) are such a
# power too).
BIG_POWERS = st.one_of(
    st.builds("{}^{}".format, st.sampled_from(["E", "eps", "a", "i", "y1", "y2"]),
              NEAR_LIMIT),
    st.builds("E^-{}".format, NEAR_LIMIT),
)
LEAVES = st.one_of(ATOMS, BIG_POWERS)


def combine(children):
    return st.one_of(
        children.map("({})".format),
        children.map("(-{})".format),
        st.lists(children, min_size=2, max_size=4).map(" + ".join),
        st.lists(children, min_size=2, max_size=3).map("*".join),
        st.builds("{} - {}".format, children, children),
        st.builds("({})/{}".format, children, children),
        st.builds("({})^{}".format, children, st.integers(0, 2)),
    )


def repeated(sep, pattern, n):
    return sep.join(itertools.islice(itertools.cycle(pattern), n))


SHAPES = st.one_of(
    st.recursive(LEAVES, combine, max_leaves=8),
    st.builds(repeated, st.sampled_from([" + ", " - ", "+"]),
              st.lists(LEAVES, min_size=1, max_size=3), st.integers(900, 3000)),
    st.builds(repeated, st.sampled_from(["*", "/"]),
              st.lists(st.one_of(MONOMIALS, BIG_POWERS), min_size=1, max_size=3),
              st.integers(900, 1500)),
    # parentheses around an atom, or around an operator at each level
    st.builds(lambda k, x: "(" * k + x + ")" * k, st.integers(100, 400), ATOMS),
    st.builds(lambda k, x, op: f"({x}{op}" * k + x + ")" * k,
              st.integers(100, 400), MONOMIALS, st.sampled_from(["+", "*", " - "])),
)
V_EXPR = st.one_of(SHAPES, SHAPES.map("-{}".format))


def v_document(src):
    return {"class": "semisimple", "linear_part": [1, -1], "params": ["a"],
            "V": [src, "y1*y2"], "order": 1}


FLAT_SUM = "+".join(["y1"] * 1001)
FLAT_PRODUCT = "*".join(["y1"] * 1001)
NESTED = "(" * 250 + "y1" + ")" * 250


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(src=V_EXPR)
@example(src=FLAT_SUM)
@example(src=FLAT_PRODUCT)
@example(src=NESTED)
def test_expression_exits_0_or_2(tmp_path, src):
    assert_exits_0_or_2(tmp_path, v_document(src))


def test_deep_nesting_is_one_error_line(tmp_path):
    code, _, err = expand(tmp_path, v_document("(" * 2000 + "y1" + ")" * 2000))
    assert code == 2
    assert err.startswith("error: bad V expression '((") and err.count("\n") == 1
    assert "nested too deeply" in err


@pytest.mark.parametrize("long,short", [
    (" + ".join(["y1"] * 5000), "5000*y1"),
    ("*".join(["y1"] * 1001), "y1^1001"),
], ids=["sum", "product"])
def test_long_chain_expands_like_its_short_form(tmp_path, long, short):
    # only the table is compared: the spec echo repeats the V source
    tables = []
    for src in (long, short):
        code, out, _ = expand(tmp_path, v_document(src), "--format", "machine")
        assert code == 0
        tables.append(json.loads(out)["components"])
    assert tables[0] == tables[1]
