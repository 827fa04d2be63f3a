"""Spec fuzz: a wrong-typed field exits 2 with one `error:` line, never a traceback.

Each example is a spec document of one class whose fields (and the entries
inside its lists and objects) may be replaced by a value of the wrong type:
a bool, a float, null, a string, a nested list or an object.  The forcing
strings are drawn from a small token alphabet, so many do not parse; the
order is at most 3, so every document that is accepted expands quickly.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, example, given, settings, strategies as st

from rgperturb.cli import main

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
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["expand", "--spec", str(path)])
    assert code in (0, 2)
    if code == 2:
        lines = err.getvalue().splitlines(keepends=True)
        assert len(lines) == 1 and lines[0].startswith("error:") and lines[0].endswith("\n")
