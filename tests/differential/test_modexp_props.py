"""Differential suite: the prepared libcrypto modulus against Python's
``pow``.

``repro.crypto.keys._Modulus`` is the one path every RSA sign, verify and
Miller–Rabin witness takes: ``secret`` (constant-time, the CRT halves and
the witness) and ``public`` (variable-time, ``e`` modulo ``n``).  For
every odd modulus from 3 up to 1 100 bits (past the 1 024-bit default
key) both must return the integer ``pow(b, e, m)`` returns, including a
zero base, a base at or above the modulus and a zero exponent.  Tier-1
runs a small budget; ``pytest --full-sweeps`` (the differential CI job)
a deep one.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.crypto.keys import _Modulus
from repro.errors import CryptoError


def _budget(request, tier1: int, full: int) -> settings:
    return settings(
        max_examples=full if request.config.getoption("--full-sweeps") else tier1,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )


@st.composite
def operands(draw):
    """``(base, exponent, modulus)``: an odd modulus of 2..1 100 bits, a
    base anywhere from 0 to past the modulus, an exponent of any width
    up to the modulus' (0 included)."""
    bits = draw(st.integers(2, 1100))
    modulus = draw(st.integers(2 ** (bits - 1), 2 ** bits - 1)) | 1
    base = draw(st.one_of(
        st.just(0),
        st.integers(0, modulus - 1),
        st.integers(modulus, 4 * modulus),
    ))
    exponent = draw(st.one_of(st.just(0), st.integers(0, 2 ** bits)))
    return base, exponent, modulus


#: The two ways a modulus is prepared: constant-time for a secret
#: exponent, variable-time for the public one.
PREPARE = (_Modulus.secret, _Modulus.public)


def test_modexp_equals_pow(request):
    @_budget(request, tier1=60, full=3000)
    @given(operands())
    @example((0, 0, 3))
    @example((0, 5, 3))
    @example((7, 0, 3))
    @example((3, 2, 3))
    @example((2 ** 1100 + 5, 65537, 2 ** 1099 + 1))
    def check(args):
        base, exponent, modulus = args
        for prepare in PREPARE:
            assert prepare(modulus, exponent).pow(base) == pow(base, exponent, modulus)

    check()


@pytest.mark.parametrize("modulus", [2, 4, 2 ** 512])
def test_even_modulus_is_refused_without_operands(modulus):
    secret = 0xC0FFEE
    for prepare in PREPARE:
        with pytest.raises(CryptoError) as caught:
            prepare(modulus, secret)
        message = str(caught.value)
        assert str(secret) not in message and hex(secret) not in message
        assert str(modulus) not in message
