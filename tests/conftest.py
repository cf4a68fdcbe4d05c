"""Shared fixtures for the test suite.

RSA key generation is the costliest single operation in the library
(≈2 ms for a 512-bit pair and ≈9 ms for 1 024 bits on a 2-core x86-64
host, against ≈0.12 ms for an RSA-1024 sign), so session-scoped fixtures
pre-generate a small pool of key pairs and most tests default to 512-bit
keys (plenty for tamper-evidence tests, fast to mint).  All randomness
is seeded for reproducibility.
"""

import logging
import random
import zlib

import pytest

from repro.crypto.keys import RSAScheme, SimulatedScheme
from repro.obs import context as obs_context


@pytest.fixture(autouse=True)
def _isolate_repro_logging():
    """Undo any ``repro.obs.configure_logging`` a test (usually via the
    CLI entry point) performed: a leaked INFO level puts log formatting
    on the signalling hot path of every later test, which the shuffled
    runs surface as timing-sensitive failures."""
    logger = logging.getLogger("repro")
    saved = (logger.level, list(logger.handlers), logger.propagate)
    yield
    logger.setLevel(saved[0])
    logger.handlers[:] = saved[1]
    logger.propagate = saved[2]


@pytest.fixture(autouse=True)
def _isolate_obs_context():
    """Fail the test that leaks runtime context: a different current
    context left installed, an observer store left on, or a correlation
    scope left open.  Every later test would otherwise record into it or
    number its ids after it.  The leak is undone first, so it fails only
    the test that caused it."""
    outer = obs_context.current()
    yield
    leaked = obs_context.current()
    found = [] if leaked is outer else ["a different current context"]
    found += [
        f"the {slot}" for slot in ("registry", "tracer", "event_log", "ledger")
        if getattr(leaked, slot) is not None
    ]
    if leaked.correlation_id is not None:
        found.append(f"correlation scope {leaked.correlation_id!r}")
    if found:
        obs_context._current = outer
        for slot in ("registry", "tracer", "event_log", "ledger",
                     "correlation_id"):
            setattr(outer, slot, None)
        pytest.fail("test leaked " + ", ".join(found), pytrace=False)


def pytest_addoption(parser):
    parser.addoption(
        "--shuffle-seed",
        type=int,
        default=None,
        help="shuffle test collection order with this seed (flushes "
             "hidden inter-test order dependence; same seed = same order)",
    )
    parser.addoption(
        "--full-sweeps",
        action="store_true",
        default=False,
        help="flip all eight bits of every byte in the single-bit "
             "injectivity sweeps over the 4.6 kB 3-hop chains "
             "(tests/differential; tier-1 samples one seeded bit per "
             "byte of those two, ~35 s less)",
    )


def pytest_collection_modifyitems(config, items):
    seed = config.getoption("--shuffle-seed")
    if seed is None:
        return
    # Keyed by nodeid through crc32 so the order is stable across runs
    # and machines for a given seed (hash() is salted per process).
    rng = random.Random(seed)
    salt = rng.getrandbits(32)
    items.sort(
        key=lambda item: zlib.crc32(f"{salt}:{item.nodeid}".encode())
    )


@pytest.fixture(scope="session")
def rsa512():
    return RSAScheme(bits=512)


@pytest.fixture(scope="session")
def simulated():
    return SimulatedScheme()


@pytest.fixture()
def rng():
    return random.Random(1234)


@pytest.fixture(scope="session")
def keypool(rsa512):
    """Twelve pre-generated 512-bit RSA key pairs for reuse across tests."""
    gen = random.Random(99)
    return [rsa512.generate(gen) for _ in range(12)]
