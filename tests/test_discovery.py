"""Peer registry lifecycle: register, deregister, echo sweeps."""

from dianasched.discovery import PeerRegistry


def all_respond(_site):
    return True


def none_respond(_site):
    return False


class TestRegistration:
    def test_register_then_list(self):
        reg = PeerRegistry()
        reg.register("s1")
        assert reg.list_peers() == ["s1"]
        assert reg.is_alive("s1")

    def test_register_twice_single_entry(self):
        reg = PeerRegistry(retries=2)
        reg.register("s1")
        reg.echo_sweep(none_respond)
        reg.register("s1")
        assert reg.list_peers() == ["s1"]
        # Re-registering cleared the earlier miss.
        assert reg.echo_sweep(none_respond) == []

    def test_register_after_removal_revives(self):
        reg = PeerRegistry()
        reg.register("s1")
        reg.echo_sweep(none_respond)
        assert not reg.is_alive("s1")
        reg.register("s1")
        assert reg.is_alive("s1")


class TestDeregistration:
    def test_deregister_removes(self):
        reg = PeerRegistry()
        reg.register("s1")
        reg.deregister("s1")
        assert reg.list_peers() == []

    def test_deregister_unknown_is_noop(self):
        reg = PeerRegistry()
        reg.register("s1")
        reg.deregister("ghost")
        assert reg.list_peers() == ["s1"]

    def test_deregistered_peer_not_echoed(self):
        reg = PeerRegistry()
        reg.register("s1")
        reg.register("s2")
        reg.deregister("s1")
        echoed = []
        reg.echo_sweep(lambda s: echoed.append(s) or True)
        assert echoed == ["s2"]


class TestEchoSweep:
    def test_all_responsive_removes_nobody(self):
        reg = PeerRegistry()
        for s in ("s1", "s2", "s3"):
            reg.register(s)
        assert reg.echo_sweep(all_respond) == []
        assert reg.list_peers() == ["s1", "s2", "s3"]

    def test_silent_peer_removed_after_retries(self):
        reg = PeerRegistry(retries=2)
        reg.register("s1")
        assert reg.echo_sweep(none_respond) == []
        assert reg.is_alive("s1")
        assert reg.echo_sweep(none_respond) == ["s1"]
        assert not reg.is_alive("s1")

    def test_single_miss_removes_with_default_retries(self):
        reg = PeerRegistry()
        reg.register("s1")
        assert reg.echo_sweep(none_respond) == ["s1"]

    def test_response_resets_miss_count(self):
        reg = PeerRegistry(retries=2)
        reg.register("s1")
        reg.echo_sweep(none_respond)
        reg.echo_sweep(all_respond)
        reg.echo_sweep(none_respond)
        assert reg.is_alive("s1")

    def test_crash_then_reregister_alive(self):
        reg = PeerRegistry()
        reg.register("s1")
        reg.echo_sweep(none_respond)
        reg.register("s1")
        assert reg.is_alive("s1")
        assert reg.echo_sweep(all_respond) == []


class TestListPeers:
    def test_only_requester_registered(self):
        reg = PeerRegistry()
        reg.register("s1")
        assert reg.list_peers(requester="s1") == []

    def test_requester_excluded_from_alive_set(self):
        reg = PeerRegistry()
        for s in ("s1", "s2", "s3", "s4", "s5"):
            reg.register(s)
        reg.echo_sweep(lambda s: s != "s3")
        assert reg.list_peers(requester="s1") == ["s2", "s4", "s5"]

    def test_unregistered_requester_sees_everyone(self):
        reg = PeerRegistry()
        reg.register("s1")
        reg.register("s2")
        assert reg.list_peers(requester="outsider") == ["s1", "s2"]

