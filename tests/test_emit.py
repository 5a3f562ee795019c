"""The CLI's JSON writer against json.dumps(obj, indent=2)."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multitails.cli import _json_text, main

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

texts = st.one_of(st.sampled_from(["%", "%s", '"q"', "a\nb", "é∑", "%%d", ""]), st.text(max_size=6))
floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 5e-324, 2.2e-308, math.nan, math.inf, -math.inf]),
    st.floats().map(np.float64),
)
scalars = st.one_of(
    floats, st.booleans(), st.integers(), st.integers(-(10**40), 10**40), st.none(), texts
)


@st.composite
def records(draw):
    keys = draw(st.lists(texts, min_size=1, max_size=4, unique=True))
    columns = {k: draw(st.sampled_from(["float", "any"])) for k in keys}
    rows = draw(st.integers(1, 5))
    return [
        {k: draw(floats if columns[k] == "float" else scalars) for k in keys}
        for _ in range(rows)
    ]


values = st.recursive(
    st.one_of(scalars, records()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(texts, inner, max_size=4),
    ),
    max_leaves=20,
)


@PROPERTY
@given(values)
def test_writer_equals_json_dumps(obj):
    assert _json_text(obj, 0) == json.dumps(obj, indent=2)


def test_numpy_floats_print_as_floats():
    assert _json_text([{"v": np.float64(1.0)}], 0) == json.dumps([{"v": 1.0}], indent=2)


def _rng_stream(tmp_path, name, words):
    stream = tmp_path / f"{name}.bin"
    stream.write_bytes(np.asarray(words, dtype=">u8").tobytes())
    return str(stream)


@pytest.mark.parametrize(
    "argv",
    [
        ["moments", "--model", "uniform", "--n", "1024", "--cells", "512", "--kernel", "pds:1"],
        ["tail", "--model", "uniform", "--n", "200", "--cells", "100", "--kernel", "pds:-0.5",
         "--x", "0.5,1.5,3", "--side", "both", "--order", "2"],
        ["enumerate", "--model", "uniform", "--n", "8", "--cells", "5", "--kernel", "pds:0",
         "--atoms", "--x", "0,1"],
        ["simulate", "--model", "uniform", "--n", "16", "--cells", "8", "--kernel", "pds:1",
         "--x=-1,0.5,1.5", "--trials", "1000", "--seed", "11"],
        ["rngtest", "--cells", "4", "--draws", "6", "--input", "{small}"],
        ["rngtest", "--cells", "64", "--draws", "1000", "--input", "{large}"],
    ],
    ids=["moments", "tail", "enumerate", "simulate", "rngtest-exact", "rngtest-asymptotic"],
)
def test_cli_json_equals_json_dumps(capsys, tmp_path, argv):
    words = np.random.default_rng(5).integers(0, 1 << 63, size=1000, dtype=np.int64)
    paths = {
        "small": _rng_stream(tmp_path, "small", words[:6]),
        "large": _rng_stream(tmp_path, "large", words),
    }
    code = main([a.format(**paths) for a in argv])
    out = capsys.readouterr().out
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
