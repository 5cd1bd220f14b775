"""Relay descriptors, exit policies, and the directory/consensus system.

Relays publish :class:`RelayDescriptor` documents to a
:class:`DirectoryAuthority`; the authority assigns flags (Guard, Exit,
Fast, Stable) and emits a :class:`Consensus` that clients use for path
selection. Bandwidth weights in the consensus drive Tor's weighted relay
selection (Section 5.1.1's "Weighted Node Selection").

The paper's experimental setup — local relays that *don't* publish their
descriptors but are hard-coded into the client's view ("PublishDescriptors
0") — is supported via :meth:`Consensus.with_private_relays`.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field, replace

from repro.util.errors import DirectoryError


class RelayFlag(enum.Flag):
    """Consensus flags a relay can carry."""

    NONE = 0
    GUARD = enum.auto()
    EXIT = enum.auto()
    FAST = enum.auto()
    STABLE = enum.auto()
    RUNNING = enum.auto()
    VALID = enum.auto()


@dataclass(frozen=True)
class ExitRule:
    """One accept/reject rule: matches an address pattern and port range."""

    accept: bool
    address_pattern: str = "*"  # "*", exact IP, or "a.b.c.*" /24 pattern
    port_low: int = 1
    port_high: int = 65535

    def __post_init__(self) -> None:
        if not 1 <= self.port_low <= self.port_high <= 65535:
            raise DirectoryError(
                f"invalid port range {self.port_low}-{self.port_high}"
            )

    def matches(self, address: str, port: int) -> bool:
        """Whether this rule applies to ``address:port``."""
        if not self.port_low <= port <= self.port_high:
            return False
        if self.address_pattern == "*":
            return True
        if self.address_pattern.endswith(".*"):
            return address.startswith(self.address_pattern[:-1])
        return address == self.address_pattern


@dataclass(frozen=True)
class ExitPolicy:
    """An ordered rule list; first match wins, default reject."""

    rules: tuple[ExitRule, ...] = ()

    def allows(self, address: str, port: int) -> bool:
        """Whether this relay will open an exit connection to address:port."""
        for rule in self.rules:
            if rule.matches(address, port):
                return rule.accept
        return False

    @property
    def is_exit(self) -> bool:
        """True if the policy accepts anything at all."""
        return any(rule.accept for rule in self.rules)

    @classmethod
    def accept_all(cls) -> "ExitPolicy":
        """A policy accepting every destination."""
        return cls(rules=(ExitRule(accept=True),))

    @classmethod
    def reject_all(cls) -> "ExitPolicy":
        """A policy rejecting every destination (non-exit)."""
        return cls(rules=())

    @classmethod
    def accept_only(cls, *addresses: str) -> "ExitPolicy":
        """The paper's restrictive PlanetLab policy: exit only to our hosts."""
        return cls(
            rules=tuple(ExitRule(accept=True, address_pattern=a) for a in addresses)
        )


@dataclass(frozen=True)
class RelayDescriptor:
    """A relay's self-published descriptor."""

    nickname: str
    fingerprint: str
    address: str
    or_port: int
    identity_public: bytes
    bandwidth_kbps: int = 1024
    exit_policy: ExitPolicy = field(default_factory=ExitPolicy.reject_all)
    family: frozenset[str] = frozenset()
    flags: RelayFlag = RelayFlag.RUNNING | RelayFlag.VALID
    published_at_ms: float = 0.0

    def __post_init__(self) -> None:
        if not self.nickname:
            raise DirectoryError("nickname must be non-empty")
        if self.bandwidth_kbps <= 0:
            raise DirectoryError("bandwidth must be positive")

    @staticmethod
    def make_fingerprint(nickname: str, address: str, or_port: int) -> str:
        """Deterministic 40-hex-char fingerprint, like a SHA-1 key hash."""
        digest = hashlib.sha256(f"{nickname}|{address}|{or_port}".encode()).hexdigest()
        return digest[:40].upper()

    def has_flag(self, flag: RelayFlag) -> bool:
        """Whether the descriptor carries ``flag``."""
        return bool(self.flags & flag)


class Consensus:
    """A snapshot of the network: descriptors keyed by fingerprint."""

    def __init__(
        self, routers: dict[str, RelayDescriptor], valid_at_ms: float = 0.0
    ) -> None:
        self.routers = dict(routers)
        self.valid_at_ms = valid_at_ms

    def __len__(self) -> int:
        return len(self.routers)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self.routers

    def get(self, fingerprint: str) -> RelayDescriptor:
        """Descriptor by fingerprint; raises DirectoryError if unknown."""
        try:
            return self.routers[fingerprint]
        except KeyError:
            raise DirectoryError(f"unknown relay {fingerprint!r}") from None

    def by_nickname(self, nickname: str) -> RelayDescriptor:
        """Descriptor by nickname; raises DirectoryError if unknown."""
        for descriptor in self.routers.values():
            if descriptor.nickname == nickname:
                return descriptor
        raise DirectoryError(f"no relay named {nickname!r}")

    def total_bandwidth_kbps(self) -> int:
        """Sum of all relays' consensus bandwidths."""
        return sum(d.bandwidth_kbps for d in self.routers.values())

    def bandwidth_weight(self, fingerprint: str) -> float:
        """This relay's selection probability under bandwidth weighting."""
        total = self.total_bandwidth_kbps()
        if total == 0:
            raise DirectoryError("consensus has zero total bandwidth")
        return self.get(fingerprint).bandwidth_kbps / total

    def with_private_relays(self, *descriptors: RelayDescriptor) -> "Consensus":
        """A copy that also knows about unpublished (local) relays.

        This reproduces the paper's note that the measurement host can
        hard-code its own relays' descriptors instead of publishing them.
        """
        merged = dict(self.routers)
        for descriptor in descriptors:
            merged[descriptor.fingerprint] = descriptor
        return Consensus(routers=merged, valid_at_ms=self.valid_at_ms)


class DirectoryQuorum:
    """Several authorities voting a consensus, as the real Tor does.

    Each authority holds its own (possibly divergent) view of the relay
    population — authorities learn about relays at different times and
    may miss descriptors. The quorum's consensus contains every relay a
    **majority** of authorities list, with flags assigned by majority
    vote and bandwidth taken as the median of the listing authorities'
    values (Tor's bandwidth-authority aggregation).
    """

    def __init__(self, authorities: list["DirectoryAuthority"]) -> None:
        if len(authorities) < 1:
            raise DirectoryError("quorum needs at least one authority")
        self.authorities = list(authorities)

    @property
    def majority(self) -> int:
        """Votes needed for a majority of the quorum."""
        return len(self.authorities) // 2 + 1

    def publish(self, descriptor: RelayDescriptor, now_ms: float = 0.0) -> None:
        """Publish to every authority (relays upload to all of them)."""
        for authority in self.authorities:
            authority.publish(descriptor, now_ms=now_ms)

    def withdraw(self, fingerprint: str) -> None:
        """Remove a relay from every authority's view."""
        for authority in self.authorities:
            authority.withdraw(fingerprint)

    def make_consensus(self, now_ms: float = 0.0) -> Consensus:
        """Vote: majority listing, majority flags, median bandwidth."""
        votes = [a.make_consensus(now_ms=now_ms) for a in self.authorities]
        listed: dict[str, list[RelayDescriptor]] = {}
        for vote in votes:
            for fingerprint, descriptor in vote.routers.items():
                listed.setdefault(fingerprint, []).append(descriptor)

        routers: dict[str, RelayDescriptor] = {}
        for fingerprint, descriptors in listed.items():
            if len(descriptors) < self.majority:
                continue
            flags = RelayFlag.NONE
            for flag in RelayFlag:
                if flag is RelayFlag.NONE:
                    continue
                supporters = sum(1 for d in descriptors if d.has_flag(flag))
                if supporters >= self.majority:
                    flags |= flag
            bandwidths = sorted(d.bandwidth_kbps for d in descriptors)
            median_bw = bandwidths[len(bandwidths) // 2]
            routers[fingerprint] = replace(
                descriptors[0], flags=flags, bandwidth_kbps=median_bw
            )
        return Consensus(routers=routers, valid_at_ms=now_ms)


class DirectoryAuthority:
    """Collects descriptors, votes flags, and produces consensuses."""

    #: Bandwidth (kbps) at or above which a relay earns the Fast flag.
    FAST_THRESHOLD_KBPS = 100

    #: Bandwidth share above which relays earn Guard (simplified rule).
    GUARD_BANDWIDTH_KBPS = 500

    #: Uptime (ms) required for the Stable flag.
    STABLE_UPTIME_MS = 24 * 3600 * 1000.0

    def __init__(self) -> None:
        self._descriptors: dict[str, RelayDescriptor] = {}
        self._first_seen_ms: dict[str, float] = {}

    def publish(self, descriptor: RelayDescriptor, now_ms: float = 0.0) -> None:
        """Accept (or refresh) a relay's descriptor.

        A descriptor already stamped ``now_ms`` is adopted as it is
        (descriptors are frozen); any other is copied with the new stamp.
        """
        self._first_seen_ms.setdefault(descriptor.fingerprint, now_ms)
        if descriptor.published_at_ms != now_ms:
            descriptor = replace(descriptor, published_at_ms=now_ms)
        self._descriptors[descriptor.fingerprint] = descriptor

    def withdraw(self, fingerprint: str) -> None:
        """Drop a relay (it went offline)."""
        self._descriptors.pop(fingerprint, None)

    @property
    def num_published(self) -> int:
        """Number of relays this authority currently lists."""
        return len(self._descriptors)

    def make_consensus(self, now_ms: float = 0.0) -> Consensus:
        """Vote flags and emit the network snapshot."""
        # Flag bits are OR-ed as ints (one ``RelayFlag`` per relay) and the
        # flagged copy is constructed directly, so ``__post_init__`` still
        # validates it without ``replace``'s field introspection.
        running = (RelayFlag.RUNNING | RelayFlag.VALID).value
        fast, guard = RelayFlag.FAST.value, RelayFlag.GUARD.value
        stable, exit_ = RelayFlag.STABLE.value, RelayFlag.EXIT.value
        routers: dict[str, RelayDescriptor] = {}
        for fingerprint, d in self._descriptors.items():
            bits = running
            if d.bandwidth_kbps >= self.FAST_THRESHOLD_KBPS:
                bits |= fast
            if d.bandwidth_kbps >= self.GUARD_BANDWIDTH_KBPS:
                bits |= guard
            if now_ms - self._first_seen_ms[fingerprint] >= self.STABLE_UPTIME_MS:
                bits |= stable
            if d.exit_policy.is_exit:
                bits |= exit_
            routers[fingerprint] = RelayDescriptor(
                nickname=d.nickname,
                fingerprint=d.fingerprint,
                address=d.address,
                or_port=d.or_port,
                identity_public=d.identity_public,
                bandwidth_kbps=d.bandwidth_kbps,
                exit_policy=d.exit_policy,
                family=d.family,
                flags=RelayFlag(bits),
                published_at_ms=d.published_at_ms,
            )
        return Consensus(routers=routers, valid_at_ms=now_ms)
