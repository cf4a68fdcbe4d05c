"""Tests for key pairs and signature schemes (RSA + simulated)."""

import copy
import dataclasses
import functools
import gc
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import keys
from repro.crypto.keys import (
    RSA_MAX_MODULUS_BITS,
    RSA_PUBLIC_EXPONENT,
    PrivateKey,
    PublicKey,
    RSAScheme,
    SimulatedScheme,
    _is_probable_prime,
    get_scheme,
    register_scheme,
)
from repro.errors import CryptoError

from tests.crypto._oracle import textbook_sign, wide_exponent_key


class TestMillerRabin:
    def test_small_primes(self, rng):
        for p in [2, 3, 5, 7, 11, 101, 7919]:
            assert _is_probable_prime(p, rng)

    def test_small_composites(self, rng):
        for c in [0, 1, 4, 9, 100, 7917, 561, 1105]:  # incl. Carmichael numbers
            assert not _is_probable_prime(c, rng)

    def test_large_known_prime(self, rng):
        # 2^89 - 1 is a Mersenne prime.
        assert _is_probable_prime(2**89 - 1, rng)

    def test_large_known_composite(self, rng):
        assert not _is_probable_prime((2**89 - 1) * (2**61 - 1), rng)


class TestRSA:
    def test_sign_verify_roundtrip(self, rsa512, keypool):
        kp = keypool[0]
        sig = rsa512.sign(kp.private, b"hello world")
        assert rsa512.verify(kp.public, b"hello world", sig)

    def test_tampered_message_rejected(self, rsa512, keypool):
        kp = keypool[0]
        sig = rsa512.sign(kp.private, b"hello world")
        assert not rsa512.verify(kp.public, b"hello worlD", sig)

    def test_wrong_key_rejected(self, rsa512, keypool):
        sig = rsa512.sign(keypool[0].private, b"msg")
        assert not rsa512.verify(keypool[1].public, b"msg", sig)

    def test_tampered_signature_rejected(self, rsa512, keypool):
        kp = keypool[0]
        sig = bytearray(rsa512.sign(kp.private, b"msg"))
        sig[0] ^= 0xFF
        assert not rsa512.verify(kp.public, b"msg", bytes(sig))

    def test_empty_signature_rejected(self, rsa512, keypool):
        assert not rsa512.verify(keypool[0].public, b"msg", b"")

    def test_signature_out_of_range_rejected(self, rsa512, keypool):
        n = keypool[0].public.material[0]
        too_big = n.to_bytes((n.bit_length() + 7) // 8 + 1, "big")
        assert not rsa512.verify(keypool[0].public, b"msg", too_big)

    def test_keygen_deterministic_from_seed(self, rsa512):
        a = rsa512.generate(random.Random(7))
        b = rsa512.generate(random.Random(7))
        assert a.public == b.public
        assert a.private == b.private

    def test_distinct_seeds_distinct_keys(self, rsa512):
        a = rsa512.generate(random.Random(7))
        b = rsa512.generate(random.Random(8))
        assert a.public != b.public

    def test_modulus_bit_length(self, rsa512, keypool):
        n = keypool[0].public.material[0]
        assert n.bit_length() in (511, 512)

    def test_minimum_bits_enforced(self):
        with pytest.raises(CryptoError):
            RSAScheme(bits=128)

    def test_scheme_mismatch_on_sign(self, rsa512):
        fake = PrivateKey("simulated", ("seed",))
        with pytest.raises(CryptoError):
            rsa512.sign(fake, b"msg")

    def test_scheme_mismatch_on_verify(self, rsa512, simulated, rng):
        kp = simulated.generate(rng)
        assert not rsa512.verify(kp.public, b"msg", b"sig")

    @settings(max_examples=25, deadline=None)
    @given(st.binary(max_size=200))
    def test_roundtrip_property(self, message):
        scheme = RSAScheme(bits=512)
        kp = scheme.generate(random.Random(42))
        sig = scheme.sign(kp.private, message)
        assert scheme.verify(kp.public, message, sig)
        assert not scheme.verify(kp.public, message + b"x", sig)


@functools.lru_cache(maxsize=None)
def _rsa_keypair(bits, seed):
    return RSAScheme(bits=bits).generate(random.Random(seed))


class TestRSACRT:
    """``sign`` works modulo each prime; it must equal ``pow(h, d, n)``."""

    @settings(max_examples=40, deadline=None)
    @given(
        bits=st.sampled_from([512, 1024]),
        seed=st.integers(0, 63),
        message=st.binary(max_size=300),
    )
    def test_crt_sign_equals_textbook_oracle(self, bits, seed, message):
        scheme = RSAScheme(bits=bits)
        kp = _rsa_keypair(bits, seed)
        sig = scheme.sign(kp.private, message)
        assert sig == textbook_sign(kp.private, message)
        assert scheme.verify(kp.public, message, sig)

    # Pinned from the last commit that signed with ``pow(h, d, n)``: key
    # generation must draw from the RNG exactly as it did then, or every
    # key id, certificate and golden vector moves with it.
    @pytest.mark.parametrize("bits, seed, key_id, n_hex", [
        (512, 7, "49eb27423adba7ab",
         "bbe8b0f07364dc27c4f2a74926288c596f449a323de12537ba547554a9d55529"
         "e06d2a0c3d6044d31f33aef282c4a05dd980e829c893e3b2b48419ecf7d63e4d"),
        (1024, 5, "e6f7106fb48149b9",
         "89c5cf6eb63333d36f5516785e772264cd3484f45ce12f066345c06c32e1e76d"
         "6ddeb87e24b24c35e69a47539146cbf95860d6950a41badd0f5ea8cd0d23326d"
         "61c3b77f59fb5be9f7fcb3b5b148173943f60d7f2c3c1acc42244403407303012d"
         "51eb72e7d43bf65120eac22cd0b831b1e8c6921aa3be61120f8cd910fbc163"),
    ], ids=["rsa512-seed7", "rsa1024-seed5"])
    def test_keygen_pinned(self, bits, seed, key_id, n_hex):
        kp = _rsa_keypair(bits, seed)
        assert kp.public.key_id == key_id
        assert kp.public.material == (int(n_hex, 16), 65537)
        assert kp.private.material.n == int(n_hex, 16)

    @pytest.mark.parametrize("component", ["dp", "dq", "qinv"])
    def test_faulty_crt_component_refused(self, rsa512, keypool, component):
        material = keypool[0].private.material
        bad = material._replace(**{component: getattr(material, component) + 1})
        with pytest.raises(CryptoError, match="faulty key"):
            rsa512.sign(PrivateKey("rsa", bad), b"msg")

    def test_old_two_element_key_refused(self, rsa512, keypool):
        material = keypool[0].private.material
        d = pow(material.e, -1, (material.p - 1) * (material.q - 1))
        with pytest.raises(CryptoError, match="must be"):
            rsa512.sign(PrivateKey("rsa", (material.n, d)), b"msg")


class TestMalformedPublicKey:
    """Key material comes from peers: a key that is not well-formed for
    its scheme verifies nothing, and ``verify`` answers False instead of
    raising — including for what the exponentiation kernel refuses (an
    even modulus, or one of at most 1), for a modulus wider than
    ``RSA_MAX_MODULUS_BITS`` and for any exponent but 65 537."""

    @pytest.mark.parametrize("material", [
        pytest.param(lambda n, e: (n,), id="one-element"),
        pytest.param(lambda n, e: (), id="empty"),
        pytest.param(lambda n, e: (n, e, 3), id="three-elements"),
        pytest.param(lambda n, e: (n, str(e)), id="string-exponent"),
        pytest.param(lambda n, e: (str(n), e), id="string-modulus"),
        pytest.param(lambda n, e: (n, True), id="bool-exponent"),
        pytest.param(lambda n, e: (n + 1, e), id="even-modulus"),
        pytest.param(lambda n, e: (1, e), id="modulus-one"),
        pytest.param(lambda n, e: (-n, e), id="negative-modulus"),
        pytest.param(lambda n, e: (n, 1), id="exponent-one"),
        pytest.param(lambda n, e: (n, 0), id="exponent-zero"),
        pytest.param(lambda n, e: (n, -e), id="negative-exponent"),
        pytest.param(lambda n, e: (n, n), id="exponent-equals-modulus"),
        pytest.param(lambda n, e: (n, n + 2), id="exponent-above-modulus"),
    ])
    def test_rsa_verify_answers_false(self, rsa512, keypool, material):
        kp = keypool[0]
        sig = rsa512.sign(kp.private, b"msg")
        hostile = PublicKey("rsa", material(*kp.public.material))
        assert rsa512.verify(hostile, b"msg", sig) is False
        assert keys._PREPARED not in hostile.__dict__

    def test_wide_exponent_answers_false(self, rsa512, keypool):
        """A correct signature under a valid key whose exponent is not
        65 537: its verify would cost a full-width exponentiation."""
        wide = wide_exponent_key(keypool[0].private)
        assert wide.public.material[1].bit_length() > 500
        sig = textbook_sign(wide.private, b"msg")
        assert rsa512.verify(wide.public, b"msg", sig) is False
        assert keys._PREPARED not in wide.public.__dict__

    @pytest.mark.parametrize("bits, kernel_calls", [
        pytest.param(RSA_MAX_MODULUS_BITS, 1, id="widest-modulus"),
        pytest.param(4201, 0, id="oversize-modulus"),
    ])
    def test_modulus_width_is_screened_before_the_kernel(
        self, rsa512, monkeypatch, bits, kernel_calls
    ):
        calls = []
        kernel = keys._Modulus.pow

        def counting(modulus, base):
            calls.append(base)
            return kernel(modulus, base)

        monkeypatch.setattr(keys._Modulus, "pow", counting)
        hostile = PublicKey("rsa", ((1 << (bits - 1)) | 1, RSA_PUBLIC_EXPONENT))
        assert rsa512.verify(hostile, b"msg", b"\x01") is False
        assert len(calls) == kernel_calls
        assert (keys._PREPARED in hostile.__dict__) == bool(kernel_calls)

    @pytest.mark.parametrize("material", [
        (), (5,), (b"seed",), ("seed-ü",), ("a", "b"),
    ], ids=["empty", "int", "bytes", "non-ascii", "two-elements"])
    def test_simulated_verify_answers_false(self, simulated, material):
        assert simulated.verify(
            PublicKey("simulated", material), b"msg", bytes(32)
        ) is False


class TestPreparedKey:
    """A key is put into OpenSSL's form the first time it signs or
    verifies.  The form lives in the key's own ``__dict__``, its C memory
    belongs to one Python object per modulus, and a finalizer frees it
    when that object dies."""

    @staticmethod
    def _fresh(rsa512):
        """A key pair no fixture holds, so ``del`` can drop it."""
        return rsa512.generate(random.Random(4321))

    @pytest.fixture
    def freed(self, monkeypatch):
        """Every pointer the library's BN_clear_free and BN_MONT_CTX_free
        are given from here on (an address freed earlier may be reused,
        so a test clears the list once its keys are prepared)."""
        lib = keys._libcrypto()
        pointers = []
        for name in ("BN_clear_free", "BN_MONT_CTX_free"):
            real = getattr(lib, name)

            def recording(ptr, real=real):
                pointers.append(ptr)
                return real(ptr)

            monkeypatch.setattr(lib, name, recording)
        return pointers

    @staticmethod
    def _moduli(key):
        state = key.__dict__[keys._PREPARED]
        return [state] if isinstance(state, keys._Modulus) else list(state[1:])

    @staticmethod
    def _pointers(moduli):
        return {ptr for m in moduli for ptr in (m._mod, m._exponent, m._mont)}

    def test_state_is_freed_with_the_key(self, rsa512, freed):
        fresh = self._fresh(rsa512)
        sig = rsa512.sign(fresh.private, b"msg")
        assert rsa512.verify(fresh.public, b"msg", sig)
        moduli = self._moduli(fresh.private) + self._moduli(fresh.public)
        finalizers = [m.finalizer for m in moduli]
        # Four moduli, each with its modulus and exponent BIGNUMs.
        pointers = self._pointers(moduli)
        assert len(finalizers) == 4 and len(pointers) == 12
        assert all(f.alive for f in finalizers)
        freed.clear()
        del fresh, moduli
        gc.collect()
        assert not any(f.alive for f in finalizers)
        assert pointers <= set(freed)
        assert all(freed.count(ptr) == 1 for ptr in pointers)

    @pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy])
    def test_copy_shares_the_state(self, rsa512, freed, copier):
        fresh = self._fresh(rsa512)
        sig = rsa512.sign(fresh.private, b"msg")
        assert rsa512.verify(fresh.public, b"msg", sig)
        public, private = copier(fresh.public), copier(fresh.private)
        moduli = self._moduli(fresh.public) + self._moduli(fresh.private)
        assert self._moduli(public) + self._moduli(private) == moduli
        pointers = self._pointers(moduli)
        freed.clear()
        del fresh
        gc.collect()
        assert all(m.finalizer.alive for m in moduli)
        assert not pointers & set(freed)
        assert rsa512.sign(private, b"msg") == sig
        assert rsa512.verify(public, b"msg", sig)
        del public, private, moduli
        gc.collect()
        assert all(freed.count(ptr) == 1 for ptr in pointers)

    def test_prepared_state_is_not_pickled(self, rsa512):
        fresh = self._fresh(rsa512)
        rsa512.sign(fresh.private, b"msg")
        with pytest.raises(TypeError):
            pickle.dumps(fresh.private)

    def test_replace_rebuilds_the_state(self, rsa512):
        fresh = self._fresh(rsa512)
        sig = rsa512.sign(fresh.private, b"msg")
        assert rsa512.verify(fresh.public, b"msg", sig)
        public = dataclasses.replace(fresh.public)
        private = dataclasses.replace(fresh.private)
        assert keys._PREPARED not in public.__dict__
        assert keys._PREPARED not in private.__dict__
        assert rsa512.sign(private, b"msg") == sig
        assert rsa512.verify(public, b"msg", sig)
        for new, old in ((public, fresh.public), (private, fresh.private)):
            assert not set(map(id, self._moduli(new))) & set(map(id, self._moduli(old)))

    def test_secret_exponents_run_constant_time(self, rsa512, monkeypatch):
        """The CRT halves and the Miller–Rabin witness run
        ``BN_mod_exp_mont_consttime``; ``verify`` and the self-check
        of ``sign`` run ``BN_mod_exp_mont``."""
        lib = keys._libcrypto()
        calls = []
        for name in ("BN_mod_exp_mont", "BN_mod_exp_mont_consttime"):
            real = getattr(lib, name)

            def counting(*args, name=name, real=real):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(lib, name, counting)
        fresh = self._fresh(rsa512)
        calls.clear()  # key generation's witnesses
        sig = rsa512.sign(fresh.private, b"msg")
        assert sorted(calls) == [
            "BN_mod_exp_mont", "BN_mod_exp_mont_consttime",
            "BN_mod_exp_mont_consttime",
        ]
        calls.clear()
        assert rsa512.verify(fresh.public, b"msg", sig)
        assert calls == ["BN_mod_exp_mont"]
        calls.clear()
        assert _is_probable_prime(2 ** 127 - 1, random.Random(1), rounds=5)
        assert calls == ["BN_mod_exp_mont_consttime"] * 5


class TestLibraryOpenedOnFirstUse:
    def test_simulated_reservation_loads_no_ctypes(self):
        """Simulated keys never reach libcrypto, so a fresh interpreter
        that builds a simulated testbed and reserves once has not
        imported ``ctypes``."""
        script = (
            "import sys\n"
            "from repro.core.testbed import build_linear_testbed\n"
            "tb = build_linear_testbed(['A', 'B', 'C'], scheme='simulated')\n"
            "alice = tb.add_user('A', 'Alice')\n"
            "out = tb.reserve(alice, source='A', destination='C', bandwidth_mbps=1.0)\n"
            "assert out.granted\n"
            "print('ctypes' in sys.modules)\n"
        )
        src = str(Path(keys.__file__).resolve().parents[2])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=120, check=True,
        )
        assert done.stdout.strip() == "False"


class TestSimulated:
    def test_roundtrip(self, simulated, rng):
        kp = simulated.generate(rng)
        sig = simulated.sign(kp.private, b"payload")
        assert simulated.verify(kp.public, b"payload", sig)

    def test_tamper_detected(self, simulated, rng):
        kp = simulated.generate(rng)
        sig = simulated.sign(kp.private, b"payload")
        assert not simulated.verify(kp.public, b"payloae", sig)

    def test_wrong_key_detected(self, simulated, rng):
        a = simulated.generate(rng)
        b = simulated.generate(rng)
        sig = simulated.sign(a.private, b"payload")
        assert not simulated.verify(b.public, b"payload", sig)

    def test_marked_insecure(self, simulated):
        assert simulated.secure is False

    def test_rsa_marked_secure(self, rsa512):
        assert rsa512.secure is True


class TestRegistry:
    def test_builtin_schemes_present(self):
        assert get_scheme("rsa").name == "rsa"
        assert get_scheme("simulated").name == "simulated"

    def test_unknown_scheme(self):
        with pytest.raises(CryptoError):
            get_scheme("dsa")

    def test_register_custom(self):
        class Null:
            name = "null-test"
            secure = False

            def generate(self, rng):  # pragma: no cover
                raise NotImplementedError

            def sign(self, private, message):  # pragma: no cover
                return b""

            def verify(self, public, message, signature):  # pragma: no cover
                return True

        register_scheme(Null())
        assert get_scheme("null-test").name == "null-test"


class TestKeyIdentity:
    def test_key_id_stable(self, keypool):
        pub = keypool[0].public
        assert pub.key_id == keypool[0].public.key_id
        assert len(pub.key_id) == 16

    def test_key_id_distinct(self, keypool):
        assert keypool[0].public.key_id != keypool[1].public.key_id

    def test_private_repr_hides_material(self, keypool):
        private = keypool[0].private
        text = repr(private)
        assert "secret" in text
        m = private.material
        d = pow(m.e, -1, (m.p - 1) * (m.q - 1))
        for secret in (d, m.p, m.q, m.dp, m.dq, m.qinv):
            assert str(secret) not in text
            assert hex(secret)[2:] not in text
