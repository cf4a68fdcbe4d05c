"""Differential suites: the production path against its references.

Two comparisons live here.  The codec suites (``test_codec_props``,
``test_fuzz_codec``, ``test_golden_vectors``) hold the production
decoder, :class:`~repro.core.codec.WireView`, to the encoder — it
accepts exactly what ``to_wire`` writes — and inside the eager
reference ``from_wire``: what it accepts the reference accepts with an
equal value, what only the reference accepts does not re-encode to
itself.  The envelope suite (``test_append_props``) holds the
append-only chain every broker emits to the paper's nested §6.4 shape,
which only the test oracle builds and reads (``tests.core._oracle``):
the production reader refuses it.  Wire *bytes* legitimately differ
between the two envelope shapes (an append layer additionally carries
the signed link digest), so those comparisons are over semantics,
never over raw envelope bytes.

``test_scenarios`` runs each paper scenario once on the production path
and asserts its decisions directly.
"""
