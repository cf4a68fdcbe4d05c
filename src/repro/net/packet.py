"""Packets, DSCP code points, and per-hop-behaviour classes.

The Differentiated-Services model (RFC 2474/2475) marks each packet with
a six-bit DSCP in the IP header; interior routers select a per-hop
behaviour (PHB) from the mark alone — this is the aggregation that fixes
RSVP's per-flow-state scaling problem (paper §2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

from repro.obs import context

__all__ = ["DSCP", "PHB", "phb_for_dscp", "Packet"]


class DSCP(IntEnum):
    """The code points used in the reproduction.

    ``EF`` (expedited forwarding, RFC 3246) carries the premium
    reserved-bandwidth service the paper's bandwidth brokers sell;
    ``AF41``..``AF43`` an assured-forwarding class with three drop
    precedences; ``BE`` best effort.
    """

    BE = 0
    AF43 = 38
    AF42 = 36
    AF41 = 34
    EF = 46


class PHB(IntEnum):
    """Per-hop behaviour: scheduling class inside the routers.  Lower
    value = served first by the strict-priority scheduler."""

    EXPEDITED = 0
    ASSURED = 1
    DEFAULT = 2


_PHB_MAP = {
    DSCP.EF: PHB.EXPEDITED,
    DSCP.AF41: PHB.ASSURED,
    DSCP.AF42: PHB.ASSURED,
    DSCP.AF43: PHB.ASSURED,
    DSCP.BE: PHB.DEFAULT,
}


def phb_for_dscp(dscp: DSCP) -> PHB:
    """Map a code point to its per-hop behaviour (unknown marks → BE)."""
    return _PHB_MAP.get(dscp, PHB.DEFAULT)


@dataclass
class Packet:
    """One simulated packet.

    ``size_bits`` governs transmission time, ``dscp`` the treatment.
    ``flow_id`` ties the packet to a :class:`~repro.net.flows.FlowStats`
    record; the edge router may rewrite ``dscp`` (marking/downgrading).
    """

    flow_id: str
    src: str
    dst: str
    size_bits: int
    dscp: DSCP = DSCP.BE
    created: float = 0.0
    uid: int = field(default_factory=lambda: next(context.current().packets))
    #: Number of router hops traversed so far (loop guard + diagnostics).
    hops: int = 0
    #: True once a policer has downgraded the packet out of its original class.
    downgraded: bool = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Packet(#{self.uid} {self.flow_id} {self.src}->{self.dst} "
            f"{self.size_bits}b {self.dscp.name})"
        )
