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


class Streamed(list):
    """A list that `streamed` hands to write_json as a generator."""


def streamed(obj):
    """`obj` with each Streamed list, at any depth, turned into a generator."""
    if isinstance(obj, dict):
        return {key: streamed(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        items = [streamed(item) for item in obj]
        return (item for item in items) if isinstance(obj, Streamed) else type(obj)(items)
    return obj


documents = st.recursive(
    scalars,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(Streamed)
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
    # json.dumps renders a Streamed list as the list it is
    assert written(streamed(obj)) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_generators_are_written_as_lists():
    assert written(x for x in ()) == "[]\n"
    assert written({"a": (x for x in ()), "b": (x for x in [1, [2]])}) == (
        json.dumps({"a": [], "b": [1, [2]]}, indent=2, sort_keys=True) + "\n"
    )


def test_int_keys_sort_as_numbers():
    obj = {10: [], 2: {}, -1: ()}
    assert written(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"
    assert written(obj).index('"2"') < written(obj).index('"10"')


@pytest.mark.parametrize(
    "obj",
    [1.5, [0, 1.0], {1, 2}, {"a": {3}}, {True: 1}, {1.5: 0}, {None: 0}, b"x",
     map(int, "12"), {"a": 1}.keys(), {"a": 1}.values(), {"a": 1}.items()],
    ids=["float", "nested float", "set", "nested set", "bool key", "float key",
         "None key", "bytes", "map", "dict keys", "dict values", "dict items"],
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
        obj = {**obj, "checks": list(obj["checks"])}  # streamed, so it can be read once
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
