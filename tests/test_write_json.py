"""`report.write_json` writes exactly the bytes of
`print(json.dumps(obj, indent=2, sort_keys=True))`, in chunks, and refuses
what json.dumps would render some other way."""

import contextlib
import hashlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from varchenko import cli
from varchenko.report import write_json

TRICKY_TEXT = ('"', "\\", "\x00", "\x1f", "\t\n\r", "é", " ", "\U0001f600", "\ud800", "</")

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.text()
    | st.sampled_from(TRICKY_TEXT)
)
documents = st.recursive(
    scalars,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(st.text() | st.sampled_from(TRICKY_TEXT), children, max_size=5)
        | st.dictionaries(st.integers(), children, max_size=5)
    ),
    max_leaves=40,
)


def written(obj) -> str:
    out = io.StringIO()
    write_json(obj, out)
    return out.getvalue()


@settings(max_examples=300, deadline=None)
@given(documents)
def test_write_json_matches_json_dumps(obj):
    assert written(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_int_keys_sort_as_numbers():
    obj = {10: [], 2: {}, -1: ()}
    assert written(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"
    assert written(obj).index('"2"') < written(obj).index('"10"')


@pytest.mark.parametrize(
    "obj",
    [1.5, [0, 1.0], {1, 2}, {"a": {3}}, {True: 1}, {1.5: 0}, {None: 0}, b"x"],
    ids=["float", "nested float", "set", "nested set", "bool key", "float key",
         "None key", "bytes"],
)
def test_values_json_would_render_otherwise_raise_type_error(obj):
    with pytest.raises(TypeError):
        write_json(obj, io.StringIO())


def test_large_documents_are_written_in_chunks():
    obj = {"rows": [{"id": i, "name": f"row {i}"} for i in range(5000)]}
    chunks = []

    class Sink:
        write = chunks.append

    write_json(obj, Sink())
    assert len(chunks) > 2
    assert "".join(chunks) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


# sha256 of the sweep's stdout as json.dumps(indent=2, sort_keys=True)
# rendered it before the writer; the golden digests stop at m=6
CYCLIC7_SWEEP = "88b10939c2348e813cc84c992208583b72483d576a2454bc2277bbc4638a66db"


def test_cyclic7_sweep_is_the_json_dumps_rendering(tmp_path, monkeypatch):
    path = tmp_path / "cyclic7.arr"
    path.write_text("dim 2\n" + "".join(f"{t} 1 {t * t}\n" for t in range(1, 8)))
    rendered = []

    def beside_json_dumps(obj, out):
        rendered.append(json.dumps(obj, indent=2, sort_keys=True) + "\n")
        write_json(obj, out)

    monkeypatch.setattr(cli, "write_json", beside_json_dumps)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", str(path), "--checks", "beta,factorization",
                         "--all-apartments", "--json", "--seed", "4"])
    assert code == 0
    assert [out.getvalue()] == rendered
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == CYCLIC7_SWEEP
