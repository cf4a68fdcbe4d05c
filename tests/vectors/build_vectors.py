"""Deterministic builder for the golden wire-vector corpus.

Run ``python tests/vectors/build_vectors.py`` (with ``src`` on
``PYTHONPATH``) to regenerate every ``tests/vectors/*.bin``
bit-for-bit.  Everything is seeded and uses the simulated signature
scheme (deterministic keygen and signatures), so the corpus never
depends on the machine that built it.

The regression tests do not merely read the files — they rebuild the
objects through this module and assert the fresh encoding still equals
the committed bytes, so an encoder change cannot slip through by
regenerating the corpus without noticing.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

if __package__ in (None, ""):
    # Run as a script: make the ``tests`` package importable.
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from repro.bb.reservations import ReservationRequest
from repro.core.codec import to_wire
from repro.core.messages import (
    make_approval,
    make_bb_rar,
    make_denial,
    make_user_rar,
)
from repro.crypto.dn import DN
from repro.crypto.x509 import CertificateAuthority
from repro.net.packet import DSCP
from tests.core._oracle import nested_bb_rar

VECTOR_DIR = Path(__file__).resolve().parent

SEED = 2001
HOPS = 3


def _yard():
    """One CA, one user, HOPS+1 BB identities — fully seeded."""
    ca = CertificateAuthority(
        DN.make("Grid", "V", "CA-V"),
        rng=random.Random(SEED),
        scheme="simulated",
    )
    user_keys, user_cert = ca.issue_keypair(DN.make("Grid", "V", "Vera"))
    bbs = [
        ca.issue_keypair(DN.make("Grid", f"D{i}", f"BB-{i}"))
        for i in range(HOPS + 1)
    ]
    return user_keys, user_cert, bbs


def _request() -> ReservationRequest:
    return ReservationRequest(
        source_host="h0.D0",
        destination_host=f"h0.D{HOPS}",
        source_domain="D0",
        destination_domain=f"D{HOPS}",
        rate_mbps=25.0,
        start=0.0,
        end=3600.0,
    )


def _chain(wrap=make_bb_rar):
    """The HOPS-hop chain, each BB layer built by *wrap*: the append
    chain brokers emit, or the oracle's §6.4 nested shape."""
    user_keys, user_cert, bbs = _yard()
    rar = make_user_rar(
        request=_request(),
        source_bb=bbs[0][1].subject,
        user=user_cert.subject,
        user_key=user_keys.private,
        deadline=30.0,
        traceparent="00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
    )
    previous = user_cert
    for hop in range(HOPS):
        keys, cert = bbs[hop]
        rar = wrap(
            inner=rar,
            introduced_cert=previous,
            downstream=bbs[hop + 1][1].subject,
            bb=cert.subject,
            bb_key=keys.private,
        )
        previous = cert
    return rar


def _approvals():
    _, _, bbs = _yard()
    approval = None
    for index, (keys, cert) in enumerate(reversed(bbs)):
        approval = make_approval(
            handle=f"RES-D{HOPS - index}-000001",
            domain=f"D{HOPS - index}",
            inner=approval,
            bb=cert.subject,
            bb_key=keys.private,
        )
    return approval


def _denial():
    _, _, bbs = _yard()
    keys, cert = bbs[1]
    return make_denial(
        domain="D1",
        reason="policy denied: Return DENY",
        bb=cert.subject,
        bb_key=keys.private,
    )


def _scalars():
    return [
        None,
        True,
        False,
        0,
        -1,
        2 ** 80,
        -(2 ** 80),
        0.0,
        -1.5,
        float("inf"),
        float("-inf"),
        "",
        "policy",
        "Grüße-网络-QoS",
        b"",
        b"\x00\xff" * 8,
        DSCP.EF,
        DSCP.AF41,
        {"nested": [1, [2, [3, {"deep": b"bytes"}]]]},
    ]


#: name -> zero-argument object builder.  The wire bytes of each object
#: are the committed ``<name>.bin``.
VECTORS = {
    "scalars": _scalars,
    "request": _request,
    "rar_user": lambda: _chain().get("inner_rar"),
    "rar_nested_3hop": lambda: _chain(nested_bb_rar),
    "rar_append_3hop": _chain,
    "approval_chain": _approvals,
    "denial": _denial,
}


def build_all() -> dict[str, bytes]:
    """Fresh wire bytes for every vector, by name."""
    out = {}
    for name, builder in VECTORS.items():
        value = builder()
        # rar_user digs the innermost user layer out of the append chain
        # (walking one link) so the corpus covers a chain *member* too.
        while name == "rar_user" and value.get("inner_rar") is not None:
            value = value.get("inner_rar")
        out[name] = to_wire(value)
    return out


def main(argv: list[str] | None = None) -> int:
    """Regenerate the corpus, or with ``--check`` verify the committed
    files match a fresh deterministic rebuild (exit 1 on any drift,
    missing vector, or stray ``.bin``)."""
    args = sys.argv[1:] if argv is None else argv
    fresh = build_all()
    if "--check" in args:
        committed = {p.stem: p.read_bytes() for p in VECTOR_DIR.glob("*.bin")}
        drift = sorted(
            set(fresh) ^ set(committed)
        ) + sorted(
            name for name in set(fresh) & set(committed)
            if fresh[name] != committed[name]
        )
        for name in drift:
            print(f"vector out of sync: {name}")
        if drift:
            print("regenerate with: PYTHONPATH=src python "
                  "tests/vectors/build_vectors.py")
            return 1
        print(f"{len(fresh)} vectors in sync")
        return 0
    for name, wire in fresh.items():
        path = VECTOR_DIR / f"{name}.bin"
        path.write_bytes(wire)
        print(f"wrote {path.name}: {len(wire)} bytes")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
