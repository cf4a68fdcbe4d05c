"""Differential suite: the type-dispatched encoder against the recursive
reference it replaced (``tests/crypto/_oracle.py``).

For every value the reference encodes, :func:`repro.crypto.canonical.encode`
must write the same bytes; for every value it refuses, the production
encoder must raise :class:`~repro.errors.EncodingError` with the same
message.  Values are Hypothesis-generated nestings of every supported
scalar, subclasses that take the fallback path (``IntEnum`` and ``str``
enum members, ``bytearray``, ``memoryview``), and protocol objects that
splice memoised bytes or expand ``to_cbe``.  Tier-1 runs a small budget;
``pytest --full-sweeps`` (the differential CI job) a deep one.
"""

import enum
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bb.sla import SLS
from repro.crypto import canonical
from repro.crypto.dn import DN
from repro.crypto.keys import PublicKey
from repro.errors import EncodingError

from tests.crypto._oracle import reference_encode


class Colour(enum.IntEnum):
    RED = 1
    BLUE = 40


class Mode(str, enum.Enum):
    FAST = "fast"
    SLOW = "langsam-ü"


def _outcome(encoder, value):
    """``("ok", bytes)`` or ``("err", message)``; any other exception
    propagates and fails the test."""
    try:
        return ("ok", encoder(value))
    except EncodingError as exc:
        return ("err", str(exc))


def _budget(request, tier1: int, full: int) -> settings:
    return settings(
        max_examples=full if request.config.getoption("--full-sweeps") else tier1,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )


_PROTOCOL_OBJECTS = (
    DN.parse("/O=Grid/OU=DomainA/CN=BB-A"),
    PublicKey("simulated", ("seed-ü", 2**200, -7)),
    SLS(max_delay_ms=20.0),
)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**1200), max_value=10**1200),
    st.floats(allow_nan=False, allow_infinity=False),
    st.just(-0.0),
    st.text(),
    st.binary(),
    st.binary().map(bytearray),
    st.binary().map(memoryview),
    st.sampled_from(list(Colour)),
    st.sampled_from(list(Mode)),
    st.sampled_from(_PROTOCOL_OBJECTS),
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.dictionaries(st.text(max_size=8), children, max_size=6),
    )


values = st.recursive(scalars, _containers, max_leaves=40)

#: Leaves the encoder must refuse, and what each must say.
_BAD_LEAVES = (
    math.nan,
    math.inf,
    -math.inf,
    {1: "a"},
    {1: "a", "b": 2},
    {None: 0},
    object(),
    {1, 2},
    1j,
)


def _wrapped_bad(children):
    """Nest a refused leaf inside valid containers, beside valid siblings."""
    return st.one_of(
        st.tuples(st.lists(values, max_size=3), children,
                  st.lists(values, max_size=3)).map(
            lambda t: [*t[0], t[1], *t[2]]
        ),
        st.tuples(st.dictionaries(st.text(max_size=4), values, max_size=3),
                  st.text(max_size=4), children).map(
            lambda t: {**t[0], t[1]: t[2]}
        ),
    )


bad_values = st.recursive(st.sampled_from(_BAD_LEAVES), _wrapped_bad, max_leaves=8)


def test_encoder_matches_reference_bytes(request):
    @_budget(request, tier1=100, full=2000)
    @given(values)
    def check(value):
        expected = reference_encode(value)
        assert canonical.encode(value) == expected

    check()


def test_encoder_matches_reference_errors(request):
    @_budget(request, tier1=60, full=1000)
    @given(bad_values)
    def check(value):
        outcome = _outcome(canonical.encode, value)
        assert outcome[0] == "err"
        assert outcome == _outcome(reference_encode, value)

    check()


def _nested(depth: int, leaf, wrap):
    value = leaf
    for _ in range(depth):
        value = wrap(value)
    return value


class _Plain:
    """An object with ``to_cbe`` only: the encoder expands it one level down."""

    def __init__(self, inner):
        self.inner = inner

    def to_cbe(self):
        return self.inner


@pytest.mark.parametrize("depth", [199, 200, 201, 202])
@pytest.mark.parametrize("leaf", [0, [], {}, "s", (1, 2)], ids=repr)
@pytest.mark.parametrize("wrap", [
    lambda v: [v],
    lambda v: (v,),
    lambda v: {"k": v},
    _Plain,
], ids=["list", "tuple", "dict", "to_cbe"])
def test_depth_limit_matches_reference(depth, leaf, wrap):
    value = _nested(depth, leaf, wrap)
    assert _outcome(canonical.encode, value) == _outcome(reference_encode, value)
