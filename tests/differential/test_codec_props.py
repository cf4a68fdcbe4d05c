"""Property suite: the zero-copy codec is the eager codec.

Three properties over Hypothesis-generated values (scalars, containers,
and real protocol objects — requests, envelopes in both chain shapes,
certificates):

* round-trip: ``from_wire(to_wire(x))`` is a fix point and the
  zero-copy :class:`~repro.core.codec.WireView` materializes the exact
  same value;
* byte stability: re-encoding either decoder's result reproduces the
  original wire bytes;
* bit-flip parity: flipping any bit anywhere in a valid wire leaves
  both decoders in agreement — both accept (with equal values) or both
  reject, and the zero-copy rejection is always a
  :class:`~repro.errors.ReproError`, which the ingress path converts to
  a typed denial.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.codec import WireView, from_wire, to_wire
from repro.core.messages import make_bb_rar, make_user_rar
from repro.core.testbed import build_linear_testbed
from repro.errors import ReproError
from repro.net.packet import DSCP

SETTINGS = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Exactly what HopByHopProtocol._decode_received converts into a
#: MalformedMessageError — a production-decoder error outside it would
#: escape process_ingress as a crash.
INGRESS_CATCHABLE = ReproError

#: The eager reference decoder leaks builtin errors on crafted input.
REFERENCE_CATCHABLE = (
    ReproError, KeyError, ValueError, TypeError, AttributeError,
    OverflowError,
)


def _protocol_pool():
    """Real protocol objects, both envelope chain shapes included."""
    testbed = build_linear_testbed(["A", "B", "C"])
    alice = testbed.add_user("A", "Alice")
    request = testbed.make_request(
        source="A", destination="C", bandwidth_mbps=25.0,
    )
    rar_u = make_user_rar(
        request=request,
        source_bb=testbed.brokers["A"].dn,
        user=alice.dn,
        user_key=alice.keypair.private,
        deadline=30.0,
        traceparent="00-abc-def-01",
    )
    bb_a = testbed.brokers["A"]
    wrapped = {
        mode: make_bb_rar(
            inner=rar_u,
            introduced_cert=alice.certificate,
            downstream=testbed.brokers["B"].dn,
            bb=bb_a.dn,
            bb_key=bb_a.keypair.private,
            append=(mode == "append"),
        )
        for mode in ("append", "nested")
    }
    return (
        request,
        rar_u,
        wrapped["append"],
        wrapped["nested"],
        alice.certificate,
        alice.dn,
        alice.keypair.public,
    )


POOL = _protocol_pool()

scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2 ** 80), max_value=2 ** 80)
    | st.floats(allow_nan=False)
    | st.text(max_size=24)
    | st.binary(max_size=24)
    | st.sampled_from(tuple(DSCP))
    | st.sampled_from(POOL)
)

values = st.recursive(
    scalars,
    lambda children: (
        st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=8), children, max_size=4)
    ),
    max_leaves=12,
)


@SETTINGS
@given(value=values)
def test_roundtrip_and_byte_stability(value):
    wire = to_wire(value)
    eager = from_wire(wire)
    view = WireView.parse(wire)
    materialized = view.materialize()

    assert materialized == eager
    assert to_wire(eager) == wire
    assert to_wire(materialized) == wire
    assert view.wire_size() == len(wire)
    # One round trip reaches the codec's fix point (lists become the
    # tuples the eager decoder always produced).
    assert from_wire(to_wire(eager)) == eager


def _classify(decode, wire):
    try:
        return ("ok", to_wire(decode(wire)))
    except Exception as exc:  # noqa: BLE001 - the property inspects it
        return ("err", exc)


@SETTINGS
@given(value=values, data=st.data())
def test_bit_flip_parity(value, data):
    wire = bytearray(to_wire(value))
    position = data.draw(
        st.integers(min_value=0, max_value=len(wire) - 1), label="byte"
    )
    bit = data.draw(st.integers(min_value=0, max_value=7), label="bit")
    wire[position] ^= 1 << bit
    mutated = bytes(wire)

    old = _classify(from_wire, mutated)
    new = _classify(lambda b: WireView.parse(b).materialize(), mutated)

    assert old[0] == new[0], (
        f"decoders disagree on acceptance: eager={old}, zero-copy={new}"
    )
    if old[0] == "ok":
        assert old[1] == new[1]
    else:
        assert isinstance(new[1], INGRESS_CATCHABLE), (
            f"zero-copy error {type(new[1]).__name__} would escape "
            f"process_ingress"
        )
        assert isinstance(old[1], REFERENCE_CATCHABLE)


@SETTINGS
@given(value=values)
def test_kind_and_peek_never_raise(value):
    """kind()/peek() are total on any prefix-truncated wire: they answer
    or return the default, never raise — materialize() is the sole
    rejection authority."""
    wire = to_wire(value)
    for cut in (1, len(wire) // 2, len(wire) - 1, len(wire)):
        try:
            view = WireView.parse(wire[:cut])
        except Exception:
            continue  # parse may reject the outer frame; that is fine
        view.kind()
        view.peek("type")
        view.peek("deadline", default=-1.0)
