"""A from-scratch Tor overlay running on the netsim substrate.

This package implements the pieces of Tor that Ting's measurement path
exercises: fixed-size cells with layered (onion) encryption and running
digests, relay descriptors and a directory/consensus, relays with
per-cell forwarding delays, an onion-proxy client that builds circuits
hop by hop and attaches streams, bandwidth-weighted path selection with
Tor's safety constraints, and a Stem-like controller speaking a
line-oriented control protocol.

Nothing here is cryptographically secure — the onion layers are real
AES-CTR, but the handshake that keys them is a keyed-hash stand-in for
ntor — but the *protocol mechanics*
(cell formats, key schedules per hop, digest checking, circuit IDs,
stream multiplexing, exit policies) follow Tor's design, so the latency
behaviour Ting measures is structurally faithful.
"""

from repro.tor.cells import Cell, CellCommand, RelayCommand, RelayCellBody
from repro.tor.crypto import LayerCipher, KeyMaterial, ClientHandshake, ServerHandshake
from repro.tor.directory import (
    RelayDescriptor,
    RelayFlag,
    ExitPolicy,
    ExitRule,
    DirectoryAuthority,
    DirectoryQuorum,
    Consensus,
)
from repro.tor.relay import (
    Relay,
    ForwardingDelayModel,
    DiurnalForwardingDelayModel,
    ServiceQueue,
)
from repro.tor.client import OnionProxy, Circuit, TorStream
from repro.tor.pathsel import PathSelector, PathConstraints
from repro.tor.control import Controller

__all__ = [
    "Cell",
    "CellCommand",
    "RelayCommand",
    "RelayCellBody",
    "LayerCipher",
    "KeyMaterial",
    "ClientHandshake",
    "ServerHandshake",
    "RelayDescriptor",
    "RelayFlag",
    "ExitPolicy",
    "ExitRule",
    "DirectoryAuthority",
    "DirectoryQuorum",
    "Consensus",
    "Relay",
    "ForwardingDelayModel",
    "DiurnalForwardingDelayModel",
    "ServiceQueue",
    "OnionProxy",
    "Circuit",
    "TorStream",
    "PathSelector",
    "PathConstraints",
    "Controller",
]
