"""Property test over the CLI's argv surface: every verb but `tables`, small
k and q, and optional flags that may be well formed, malformed, of the wrong
length, unsupported or in conflict.  The exit code is always 0, 2 or 3, no
exception escapes `main`, two modes of one verb given together are a usage
error, and a success prints a report."""

import contextlib
import io

from hypothesis import HealthCheck, given, settings, strategies as st

from edgewise.cli import main
from edgewise.subdivision import decode_facet

CAPPED = ("build", "hvector", "shell", "export")
# The pairs of flags that select different modes of one verb.
MODES = {
    "link": ("--vertex", "--face"),
    "classify-links": ("--table", "--partition"),
    "star-cluster": ("--base", "--face"),
}
VERBS = CAPPED + tuple(MODES)
MALFORMED = ("", "x", "1,,2", "1;2", "a,b", "1.5", "-1")


def _joined(values) -> str:
    return ",".join(map(str, values))


@st.composite
def _tuple_text(draw, code, q):
    """A --vertex, --face, --base or --partition value: often a vertex of the
    facet with this code, or the code itself, sometimes any k-1 numbers, a
    wrong length or no tuple at all."""
    kind = draw(st.sampled_from(("vertex", "vertex", "code", "any", "length", "malformed")))
    if kind == "vertex":
        return _joined(draw(st.sampled_from(decode_facet(code, q))))
    if kind == "code":
        return _joined(code)
    n = len(code)
    if kind == "any":
        return _joined(draw(st.lists(st.integers(-1, q + 1), min_size=n, max_size=n)))
    if kind == "length":
        wrong = st.lists(st.integers(0, q), max_size=5).filter(lambda v: len(v) != n)
        return _joined(draw(wrong))
    return draw(st.sampled_from(MALFORMED))


@st.composite
def argv(draw):
    """(argv, whether it names two modes of its verb)."""
    verb = draw(st.sampled_from(VERBS))
    k, q = draw(st.integers(2, 4)), draw(st.integers(1, 4))
    # Tuples drawn from one facet make repeated --face flags span a face.
    code = draw(st.tuples(*[st.integers(0, q - 1)] * (k - 1)))
    groups = []
    if draw(st.booleans()):
        fmt = draw(st.sampled_from(("text", "json", "csv", "off", "xml")))
        groups.append(["--format", fmt])
    if draw(st.integers(0, 3)) == 0 or (verb in CAPPED and draw(st.booleans())):
        groups.append(["--max-facets", str(draw(st.integers(0, 100)))])
    if verb == "export" and draw(st.integers(0, 4)) > 0:
        groups.append(["--off"])
    chosen = set()
    for flag in MODES.get(verb, ()):
        if not draw(st.booleans()):
            continue
        chosen.add(flag)
        if flag == "--table":
            groups.append([flag])
        else:
            repeats = draw(st.integers(1, 3)) if flag == "--face" else 1
            for _ in range(repeats):
                groups.append([flag, draw(_tuple_text(code, q))])
    groups = draw(st.permutations(groups))
    args = [verb, "-k", str(k), "-q", str(q)] + [word for group in groups for word in group]
    return args, len(chosen) == 2


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv())
def test_argv_exit_class(case):
    args, conflicting = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(args)
    assert rc in (0, 2, 3), (args, rc, err.getvalue())
    if conflicting:
        assert rc == 2, args
    if rc == 0:
        assert out.getvalue(), args
