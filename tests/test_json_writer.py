"""``serialize.dumps`` against ``json.dumps`` of the plain payload, and the
array read path of ``module_from_json`` against ``code_of`` per entry.

Payloads mix nested dicts, lists and tuples, strings with escapes and
non-ASCII characters, negative and large ints, floats, bools and None with
code arrays over GF(2), GF(11), GF(101) and GF(94906249) and (N, e) digit
arrays over GF(9), GF(121) and GF(8).  Codes are drawn near powers of ten
as well as uniformly, so that every digit width and its boundaries occur.
"""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cjt import serialize
from cjt.exactalg import make_field
from cjt.modrep import Convention, ModuleRep

FIELDS = [make_field(p, e) for p, e in ((2, 1), (11, 1), (101, 1), (94906249, 1), (3, 2), (11, 2), (2, 3))]


def plain(obj):
    """The payload as ``json.dumps`` takes it: arrays as nested lists."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    return obj


def reference(payload) -> str:
    return json.dumps(plain(payload), sort_keys=True, separators=(",", ":"))


def codes_below(q):
    """Codes in [0, q), often at or next to a power of ten."""
    near = sorted({c for k in range(19) for c in (10**k - 1, 10**k, 10**k + 1) if 0 <= c < q} | {q - 1})
    return st.one_of(st.integers(0, q - 1), st.sampled_from(near))


@st.composite
def code_arrays(draw, field=None):
    """``Field.code_digits`` of a drawn code vector, possibly empty."""
    f = field if field is not None else draw(st.sampled_from(FIELDS))
    codes = draw(st.lists(codes_below(f.q), max_size=40))
    return f.code_digits(np.array(codes, dtype=np.int64))


@st.composite
def int_arrays(draw):
    """int64 arrays of any sign and width, 1-D or with rows, possibly empty."""
    cols = draw(st.integers(0, 4))
    values = st.integers(-(2**63), 2**63 - 1) | st.sampled_from([0, 9, 10, 99, 100, 2**63 - 1])
    rows = draw(st.lists(st.lists(values, min_size=cols, max_size=cols), max_size=8))
    a = np.array(rows, dtype=np.int64).reshape(len(rows), cols)
    return a.ravel() if draw(st.booleans()) else a


strings = st.one_of(st.text(), st.sampled_from(['"\\\n\t\x00', "Ω ü 𝔽", serialize._MARK]))
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**30), 10**30),
    st.floats(allow_nan=False),
    strings,
    code_arrays(),
    int_arrays(),
)
payloads = st.recursive(
    leaves,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(strings, kids, max_size=4),
    ),
    max_leaves=20,
)


@st.composite
def modules(draw):
    f = draw(st.sampled_from(FIELDS))
    dim, r = draw(st.integers(0, 5)), draw(st.integers(1, 3))
    gens = [
        np.array(draw(st.lists(codes_below(f.q), min_size=dim * dim, max_size=dim * dim)),
                 dtype=np.int64).reshape(dim, dim)
        for _ in range(r)
    ]
    return ModuleRep(f, gens, draw(st.sampled_from(list(Convention))))


@settings(max_examples=300)
@given(payloads)
def test_dumps_matches_json_dumps(payload):
    assert serialize.dumps(payload) == reference(payload)


def test_an_unserializable_object_raises_like_json_dumps():
    payload = {"codes": np.arange(3), "points": {1, 2}}
    with pytest.raises(TypeError) as expected:
        reference(payload)
    with pytest.raises(TypeError, match=r"^Object of type set is not JSON serializable$") as got:
        serialize.dumps(payload)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("f", FIELDS, ids=lambda f: f"GF({f.q})")
def test_every_width_and_boundary(f):
    near = [c for k in range(19) for c in (10**k - 1, 10**k, 10**k + 1) if 0 <= c < f.q]
    a = f.code_digits(np.array(near + [f.q - 1], dtype=np.int64))
    assert serialize.dumps([a, a[:0]]) == reference([a, a[:0]])


@settings(max_examples=100)
@given(modules())
def test_module_round_trip(m):
    payload = serialize.module_payload(m)
    text = serialize.dumps(payload)
    assert text == json.dumps(serialize.module_to_json(m), sort_keys=True, separators=(",", ":"))
    back = serialize.module_from_json(json.loads(text))
    assert back.field == m.field and back.convention == m.convention
    assert all(np.array_equal(a, b) for a, b in zip(back.gens, m.gens, strict=True))


def test_zero_dimensional_module():
    for f in (make_field(3, 1), make_field(3, 2)):
        m = ModuleRep(f, [np.zeros((0, 0), dtype=np.int64)] * 2)
        text = serialize.dumps(serialize.module_payload(m))
        assert text == reference(serialize.module_to_json(m))
        assert serialize.module_from_json(json.loads(text)).dim == 0


@st.composite
def generator_entries(draw):
    """A field and the JSON entries of one square generator: over GF(p) any
    ints; over GF(p^e) codes, rows of one length <= e, or a mix of both."""
    f = draw(st.sampled_from(FIELDS))
    if f.e == 1:
        entry = st.integers(-(10**12), 10**12)
    else:
        k = draw(st.integers(1, f.e))
        rows = st.lists(st.integers(-50, 50), min_size=k, max_size=k)
        entry = draw(st.sampled_from([codes_below(f.q), rows, st.one_of(codes_below(f.q), rows)]))
    n = draw(st.integers(1, 3))
    return f, draw(st.lists(entry, min_size=n * n, max_size=n * n))


@settings(max_examples=150)
@given(generator_entries())
def test_read_codes_matches_code_of(case):
    f, flat = case
    n = math.isqrt(len(flat))
    data = {"p": f.p, "e": f.e, "r": 1, "dim": n, "generators": [flat]}
    want = np.array([f.code_of(v) for v in flat], dtype=np.int64)
    assert np.array_equal(serialize.module_from_json(data).gens[0].ravel(), want)


# generators of dim 2 with one bad entry; code_of's messages stand
BAD_ENTRIES = [
    (make_field(3, 2), [0, 1, 2, 9], r"must lie in \[0, 9\), got 9"),
    (make_field(3, 2), [0, -1, 2, 3], r"must lie in \[0, 9\), got -1"),
    (make_field(3, 2), [[0, 1], [1, 2, 0], [0], [1]], r"too many coefficients"),
    (make_field(3, 2), [[0, 1, 2]] * 4, r"too many coefficients"),
    (make_field(3, 1), [0, [1, 1], 0, 0], r"too many coefficients"),
    (make_field(3, 1), [[1, 1]] * 4, r"too many coefficients"),
]


@pytest.mark.parametrize("f, flat, message", BAD_ENTRIES)
def test_bad_entries_keep_their_errors(f, flat, message):
    data = {"p": f.p, "e": f.e, "r": 1, "dim": 2, "generators": [flat]}
    with pytest.raises(ValueError, match=message):
        serialize.module_from_json(data)


@pytest.mark.parametrize("entry", [1.0, "1", "12", None, True, 2**70, -(2**63) - 1])
def test_other_entries_read_as_code_of_reads_them(entry):
    """Entries outside the integer-array read give code_of's code or error."""
    f = make_field(3, 1)
    data = {"p": 3, "r": 1, "dim": 1, "generators": [[entry]]}
    try:
        want = f.code_of(entry)
    except Exception as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            serialize.module_from_json(data)
    else:
        assert serialize.module_from_json(data).gens[0].tolist() == [[want]]
