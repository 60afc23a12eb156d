"""Parser fuzzing through the CLI: generated `.arr` text through `faces` and
`.vmx` text through `detfile`. Every input must end in exit 0, 1 or 2, and
never in a traceback; on exit 2 the message is `error: line N: ...`, since
every way these commands can reject a readable file is a parse error.

Generated files stay within dim 3 and six hyperplanes, or a 3 x 3 matrix
over four hyperplanes, so each example runs in milliseconds."""

import contextlib
import io
import re

import pytest
from hypothesis import given, settings, strategies as st

from varchenko.cli import main

JUNK = st.text(alphabet="0123456789/-+.eE_#xh^* \t\u00a0\u0661\u00b2", max_size=6)
COMMENT = st.sampled_from(["", "  # a comment", "#", " #x"])


def _text(header, row, max_rows):
    """File text from a header strategy and a row strategy, with comments
    and blank lines mixed in."""
    line = st.tuples(st.sampled_from(["", "\n", "# c\n"]), row, COMMENT).map("".join)
    return st.tuples(header, COMMENT, st.lists(line, max_size=max_rows)).map(
        lambda parts: "\n".join([parts[0] + parts[1], *parts[2]]) + "\n"
    )


VALUE = st.one_of(
    st.integers(-3, 3).map(str),
    st.builds("{}/{}".format, st.integers(-9, 9), st.integers(1, 9)),
)
RATIONAL = st.one_of(
    VALUE,
    st.builds("{}/{}".format, st.integers(-9, 9), st.integers(-1, 0)),
    st.sampled_from(
        ["0.5", "-1.25", "1e3", "1E-2", "nan", "inf", "1/", "/2", "--1", "+2",
         "1_0", "0x1", "dim", "9" * 5000]
    ),
    JUNK,
)
ARR_HEADER = st.one_of(
    st.integers(0, 3).map("dim {}".format),
    st.sampled_from(
        ["", "dim", "dim x", "dim -1", "dim 2 2", "DIM 2", "dim 0003", "dim 1.0",
         "dim " + "9" * 5000, "2", "vmatrix 1 1"]
    ),
)
ARR_ROW = st.lists(RATIONAL, max_size=5).map(" ".join)


def _well_formed_arrangement(n):
    """Text of dim n with n + 1 tokens on each row, most of them small
    rationals: often an arrangement, otherwise one with a bad token, a
    zero normal or a repeated hyperplane."""
    token = st.one_of(VALUE, VALUE, RATIONAL)
    row = st.lists(token, min_size=n + 1, max_size=n + 1).map(" ".join)
    return _text(st.just(f"dim {n}"), row, 6)


ARR_TEXT = st.one_of(
    _text(ARR_HEADER, ARR_ROW, 6), st.integers(1, 3).flatmap(_well_formed_arrangement)
)

VARIABLE = st.builds(
    "h{}^{}{}".format,
    st.integers(0, 5),
    st.sampled_from("+-"),
    st.sampled_from(["", "^2", "^0", "^x"]),
)
MONOMIAL = st.one_of(
    st.lists(VARIABLE, min_size=1, max_size=3).map(" ".join),
    st.sampled_from(["1", "0", "-1", "2", "1 - h1^+", "h1^+ + h2^-", "2 * h1^+",
                     "1 * h1^+", "x * h1^+", "h1^+ *", "-", "", "1 + 1 - 1"]),
    JUNK,
)
VMX_HEADER = st.one_of(
    st.builds("vmatrix {} {}".format, st.integers(0, 3), st.integers(0, 4)),
    st.sampled_from(
        ["", "vmatrix", "vmatrix 2", "vmatrix x 1", "vmatrix -1 1", "VMATRIX 1 1",
         "vmatrix 1 1 1", "vmatrix 1 " + "9" * 5000, "dim 2"]
    ),
)


@st.composite
def _distance_matrix(draw):
    """A matrix file of the distances of up to three chambers of up to four
    hyperplanes (each chamber a bitmask of its - sides), with one entry
    sometimes replaced by a generated monomial."""
    k = draw(st.integers(1, 4))
    chambers = draw(
        st.lists(st.integers(0, 2**k - 1), min_size=1, max_size=3, unique=True)
    )

    def entry(c, d):
        across = [h for h in range(k) if (c ^ d) >> h & 1]
        return " ".join(f"h{h + 1}^{'-+'[not d >> h & 1]}" for h in across) or "1"

    entries = [entry(c, d) for c in chambers for d in chambers]
    if draw(st.booleans()):
        entries[draw(st.integers(0, len(entries) - 1))] = draw(MONOMIAL)
    return "\n".join([f"vmatrix {len(chambers)} {k}", *entries]) + "\n"


VMX_TEXT = st.one_of(_text(VMX_HEADER, MONOMIAL, 10), _distance_matrix())


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _check(command, path, text):
    path.write_text(text)
    code, err = _run([command, str(path)])
    assert code in (0, 1, 2), (code, text)
    assert "Traceback" not in err
    if code == 2:
        assert re.match(r"error: line \d+: ", err), (err, text)


@settings(max_examples=200, deadline=None)
@given(ARR_TEXT)
def test_faces_on_generated_arrangement_text(workdir, text):
    _check("faces", workdir / "fuzz.arr", text)


@settings(max_examples=200, deadline=None)
@given(VMX_TEXT)
def test_detfile_on_generated_matrix_text(workdir, text):
    _check("detfile", workdir / "fuzz.vmx", text)
