"""Unit tests for descriptors, exit policies, and the directory."""

from dataclasses import fields, replace

import pytest

from repro.tor.directory import (
    Consensus,
    DirectoryAuthority,
    ExitPolicy,
    ExitRule,
    RelayDescriptor,
    RelayFlag,
)
from repro.util.errors import DirectoryError


def _descriptor(nickname="r1", address="100.1.2.3", bandwidth=1024, policy=None):
    return RelayDescriptor(
        nickname=nickname,
        fingerprint=RelayDescriptor.make_fingerprint(nickname, address, 9001),
        address=address,
        or_port=9001,
        identity_public=b"pub" * 11,
        bandwidth_kbps=bandwidth,
        exit_policy=policy or ExitPolicy.reject_all(),
    )


class TestExitPolicy:
    def test_reject_all(self):
        assert not ExitPolicy.reject_all().allows("1.2.3.4", 80)
        assert not ExitPolicy.reject_all().is_exit

    def test_accept_all(self):
        assert ExitPolicy.accept_all().allows("1.2.3.4", 80)
        assert ExitPolicy.accept_all().is_exit

    def test_accept_only_specific_addresses(self):
        policy = ExitPolicy.accept_only("10.9.8.7", "10.9.8.8")
        assert policy.allows("10.9.8.7", 7)
        assert policy.allows("10.9.8.8", 65535)
        assert not policy.allows("10.9.8.9", 7)

    def test_first_match_wins(self):
        policy = ExitPolicy(
            rules=(
                ExitRule(accept=False, port_low=25, port_high=25),
                ExitRule(accept=True),
            )
        )
        assert not policy.allows("1.2.3.4", 25)
        assert policy.allows("1.2.3.4", 26)

    def test_prefix_pattern(self):
        policy = ExitPolicy(rules=(ExitRule(accept=True, address_pattern="100.1.2.*"),))
        assert policy.allows("100.1.2.200", 80)
        assert not policy.allows("100.1.3.200", 80)

    def test_port_range_matching(self):
        rule = ExitRule(accept=True, port_low=80, port_high=443)
        assert rule.matches("1.1.1.1", 80)
        assert rule.matches("1.1.1.1", 443)
        assert not rule.matches("1.1.1.1", 444)

    def test_invalid_port_range_rejected(self):
        with pytest.raises(DirectoryError):
            ExitRule(accept=True, port_low=0, port_high=10)
        with pytest.raises(DirectoryError):
            ExitRule(accept=True, port_low=100, port_high=10)


class TestRelayDescriptor:
    def test_fingerprint_format(self):
        fp = RelayDescriptor.make_fingerprint("nick", "1.2.3.4", 9001)
        assert len(fp) == 40
        assert fp == fp.upper()
        int(fp, 16)  # parses as hex

    def test_fingerprint_deterministic_and_distinct(self):
        a = RelayDescriptor.make_fingerprint("nick", "1.2.3.4", 9001)
        b = RelayDescriptor.make_fingerprint("nick", "1.2.3.4", 9001)
        c = RelayDescriptor.make_fingerprint("nick", "1.2.3.5", 9001)
        assert a == b != c

    def test_validation(self):
        with pytest.raises(DirectoryError):
            _descriptor(nickname="")
        with pytest.raises(DirectoryError):
            _descriptor(bandwidth=0)

    def test_has_flag(self):
        descriptor = _descriptor()
        assert descriptor.has_flag(RelayFlag.RUNNING)
        assert not descriptor.has_flag(RelayFlag.GUARD)


class TestConsensus:
    def test_lookup_by_fingerprint_and_nickname(self):
        d = _descriptor()
        consensus = Consensus({d.fingerprint: d})
        assert consensus.get(d.fingerprint) is d
        assert consensus.by_nickname("r1") is d

    def test_unknown_lookups_raise(self):
        consensus = Consensus({})
        with pytest.raises(DirectoryError):
            consensus.get("F" * 40)
        with pytest.raises(DirectoryError):
            consensus.by_nickname("ghost")

    def test_bandwidth_weight(self):
        a = _descriptor("a", "100.1.2.3", bandwidth=300)
        b = _descriptor("b", "100.1.2.4", bandwidth=100)
        consensus = Consensus({a.fingerprint: a, b.fingerprint: b})
        assert consensus.bandwidth_weight(a.fingerprint) == pytest.approx(0.75)

    def test_with_private_relays_does_not_mutate(self):
        a = _descriptor("a", "100.1.2.3")
        consensus = Consensus({a.fingerprint: a})
        private = _descriptor("w", "100.1.2.9")
        merged = consensus.with_private_relays(private)
        assert private.fingerprint in merged
        assert private.fingerprint not in consensus

    def test_contains_and_len(self):
        a = _descriptor("a", "100.1.2.3")
        consensus = Consensus({a.fingerprint: a})
        assert a.fingerprint in consensus
        assert len(consensus) == 1


class TestDirectoryAuthority:
    def test_publish_and_consensus(self):
        authority = DirectoryAuthority()
        authority.publish(_descriptor("a", "100.1.2.3"))
        authority.publish(_descriptor("b", "100.1.2.4"))
        assert len(authority.make_consensus()) == 2

    def test_republish_updates_not_duplicates(self):
        authority = DirectoryAuthority()
        d = _descriptor()
        authority.publish(d)
        authority.publish(d)
        assert authority.num_published == 1

    def test_withdraw(self):
        authority = DirectoryAuthority()
        d = _descriptor()
        authority.publish(d)
        authority.withdraw(d.fingerprint)
        assert len(authority.make_consensus()) == 0

    def test_fast_flag_threshold(self):
        authority = DirectoryAuthority()
        slow = _descriptor("slow", "100.1.2.3", bandwidth=50)
        fast = _descriptor("fast", "100.1.2.4", bandwidth=5000)
        authority.publish(slow)
        authority.publish(fast)
        consensus = authority.make_consensus()
        assert not consensus.get(slow.fingerprint).has_flag(RelayFlag.FAST)
        assert consensus.get(fast.fingerprint).has_flag(RelayFlag.FAST)

    def test_guard_flag_from_bandwidth(self):
        authority = DirectoryAuthority()
        big = _descriptor("big", "100.1.2.3", bandwidth=9000)
        authority.publish(big)
        assert authority.make_consensus().get(big.fingerprint).has_flag(
            RelayFlag.GUARD
        )

    def test_stable_flag_needs_uptime(self):
        authority = DirectoryAuthority()
        d = _descriptor()
        authority.publish(d, now_ms=0.0)
        young = authority.make_consensus(now_ms=1000.0)
        assert not young.get(d.fingerprint).has_flag(RelayFlag.STABLE)
        old = authority.make_consensus(now_ms=25 * 3600 * 1000.0)
        assert old.get(d.fingerprint).has_flag(RelayFlag.STABLE)

    def test_exit_flag_from_policy(self):
        authority = DirectoryAuthority()
        exit_relay = _descriptor("exit", "100.1.2.3", policy=ExitPolicy.accept_all())
        authority.publish(exit_relay)
        assert authority.make_consensus().get(exit_relay.fingerprint).has_flag(
            RelayFlag.EXIT
        )


class TestAdoption:
    """``publish`` adopts a pre-stamped descriptor; ``make_consensus``
    builds the flagged copy directly — neither aliases a caller's object
    into a changed state nor skips ``__post_init__``."""

    def test_pre_stamped_descriptor_is_stored_without_copying(self):
        authority = DirectoryAuthority()
        d = replace(_descriptor(), published_at_ms=-5.0)
        authority.publish(d, now_ms=-5.0)
        assert authority._descriptors[d.fingerprint] is d

    def test_differently_stamped_descriptor_is_copied(self):
        authority = DirectoryAuthority()
        d = _descriptor()
        authority.publish(d, now_ms=7.0)
        stored = authority._descriptors[d.fingerprint]
        assert stored is not d
        assert stored == replace(d, published_at_ms=7.0)
        assert d.published_at_ms == 0.0

    def test_republishing_refreshes_the_stamp_but_not_first_seen(self):
        authority = DirectoryAuthority()
        d = _descriptor()
        authority.publish(d, now_ms=0.0)
        authority.publish(d, now_ms=25 * 3600 * 1000.0)
        assert authority.num_published == 1
        consensus = authority.make_consensus(now_ms=25 * 3600 * 1000.0)
        entry = consensus.get(d.fingerprint)
        assert entry.published_at_ms == 25 * 3600 * 1000.0
        assert entry.has_flag(RelayFlag.STABLE)
        assert d.published_at_ms == 0.0

    @pytest.mark.parametrize("bandwidth", [50, 100, 499, 500])
    @pytest.mark.parametrize("uptime_ms", [0.0, DirectoryAuthority.STABLE_UPTIME_MS])
    @pytest.mark.parametrize("is_exit", [False, True])
    def test_flags_equal_the_or_built_flags(self, bandwidth, uptime_ms, is_exit):
        policy = ExitPolicy.accept_all() if is_exit else ExitPolicy.reject_all()
        d = replace(
            _descriptor(bandwidth=bandwidth, policy=policy),
            family=frozenset({"kin"}),
            published_at_ms=3.0,
        )
        authority = DirectoryAuthority()
        authority.publish(d, now_ms=3.0)
        expected = RelayFlag.RUNNING | RelayFlag.VALID
        if bandwidth >= DirectoryAuthority.FAST_THRESHOLD_KBPS:
            expected |= RelayFlag.FAST
        if bandwidth >= DirectoryAuthority.GUARD_BANDWIDTH_KBPS:
            expected |= RelayFlag.GUARD
        if uptime_ms >= DirectoryAuthority.STABLE_UPTIME_MS:
            expected |= RelayFlag.STABLE
        if is_exit:
            expected |= RelayFlag.EXIT
        entry = authority.make_consensus(now_ms=3.0 + uptime_ms).get(d.fingerprint)
        assert entry.flags == expected
        # Every field but the flags is carried over (a field added to
        # ``RelayDescriptor`` must be added to ``make_consensus`` too).
        assert entry == replace(d, flags=expected)
        assert entry is not d
        assert [f.name for f in fields(RelayDescriptor)] == [
            "nickname", "fingerprint", "address", "or_port", "identity_public",
            "bandwidth_kbps", "exit_policy", "family", "flags", "published_at_ms",
        ]

    @pytest.mark.parametrize(
        ("field", "value"), [("bandwidth_kbps", 0), ("nickname", "")]
    )
    def test_direct_construction_still_validates(self, field, value):
        authority = DirectoryAuthority()
        d = _descriptor()
        authority.publish(d)
        object.__setattr__(d, field, value)  # corrupt the stored (adopted) one
        with pytest.raises(DirectoryError):
            authority.make_consensus()


class TestDirectoryQuorum:
    def _quorum(self, n=3):
        from repro.tor.directory import DirectoryQuorum

        return DirectoryQuorum([DirectoryAuthority() for _ in range(n)])

    def test_majority_listing_required(self):
        quorum = self._quorum(3)
        d = _descriptor()
        # Only one of three authorities knows the relay: not listed.
        quorum.authorities[0].publish(d)
        assert d.fingerprint not in quorum.make_consensus()
        # Two of three: listed.
        quorum.authorities[1].publish(d)
        assert d.fingerprint in quorum.make_consensus()

    def test_publish_reaches_all_authorities(self):
        quorum = self._quorum(3)
        quorum.publish(_descriptor())
        assert all(a.num_published == 1 for a in quorum.authorities)

    def test_withdraw_removes_everywhere(self):
        quorum = self._quorum(3)
        d = _descriptor()
        quorum.publish(d)
        quorum.withdraw(d.fingerprint)
        assert d.fingerprint not in quorum.make_consensus()

    def test_median_bandwidth(self):
        from dataclasses import replace
        from repro.tor.directory import DirectoryQuorum

        authorities = [DirectoryAuthority() for _ in range(3)]
        base = _descriptor(bandwidth=100)
        # Each authority measured a different bandwidth for the relay.
        for authority, bandwidth in zip(authorities, (100, 400, 900)):
            authority.publish(replace(base, bandwidth_kbps=bandwidth))
        consensus = DirectoryQuorum(authorities).make_consensus()
        assert consensus.get(base.fingerprint).bandwidth_kbps == 400

    def test_majority_flags(self):
        quorum = self._quorum(3)
        fast = _descriptor("fast", "100.1.2.3", bandwidth=5000)
        quorum.publish(fast)
        consensus = quorum.make_consensus()
        assert consensus.get(fast.fingerprint).has_flag(RelayFlag.FAST)

    def test_single_authority_quorum_matches_plain(self):
        from repro.tor.directory import DirectoryQuorum

        authority = DirectoryAuthority()
        d = _descriptor()
        authority.publish(d)
        quorum = DirectoryQuorum([authority])
        assert set(quorum.make_consensus().routers) == set(
            authority.make_consensus().routers
        )

    def test_empty_quorum_rejected(self):
        from repro.tor.directory import DirectoryQuorum

        with pytest.raises(DirectoryError):
            DirectoryQuorum([])
