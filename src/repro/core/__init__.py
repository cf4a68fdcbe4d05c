"""The paper's contribution: signed RAR envelopes, mutually authenticated
channels, hop-by-hop inter-BB signalling with transitive trust, capability
delegation, tunnels, the source-domain baselines, and the testbed facade.
"""

from repro.core.agent import UserAgent
from repro.core.channel import ChannelRegistry, SecureChannel
from repro.core.envelope import SignedEnvelope, seal
from repro.core.hopbyhop import HopByHopProtocol, SignallingOutcome
from repro.core.messages import (
    make_approval,
    make_bb_rar,
    make_denial,
    make_user_rar,
    unwrap_rar_layers,
)
from repro.core.sourcedomain import EndToEndAgent, SourceDomainOutcome
from repro.core.stars import ReservationCoordinator
from repro.core.testbed import Testbed, build_linear_testbed
from repro.core.tracing import PathTrace, trace_approval_chain, trace_request_path
from repro.core.trust import VerifiedRAR, verify_rar
from repro.core.tunnels import FlowAllocation, Tunnel, TunnelService

__all__ = [
    "SignedEnvelope",
    "seal",
    "make_user_rar",
    "make_bb_rar",
    "make_approval",
    "make_denial",
    "unwrap_rar_layers",
    "verify_rar",
    "VerifiedRAR",
    "SecureChannel",
    "ChannelRegistry",
    "UserAgent",
    "HopByHopProtocol",
    "SignallingOutcome",
    "EndToEndAgent",
    "SourceDomainOutcome",
    "ReservationCoordinator",
    "Tunnel",
    "TunnelService",
    "FlowAllocation",
    "PathTrace",
    "trace_request_path",
    "trace_approval_chain",
    "Testbed",
    "build_linear_testbed",
]
