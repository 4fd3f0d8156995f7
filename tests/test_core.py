"""Domain types and the network primitives."""

import pytest

from dianasched.core import (NetworkLink, Topology, UnreachableSiteError,
                             UserProfile)
from conftest import mk_job


class TestJobSpec:
    """A Job holds the spec fields it is given; `BurstDef` checks them
    (test_scenario), and that a run never changes them is test_golden's
    test_run_writes_only_run_state."""

    def test_valid_job(self):
        job = mk_job(demand=3.0, procs=2, data=1e9)
        assert job.compute_demand == 3.0
        assert job.processors_required == 2


class TestNetworkLink:
    def test_available_bandwidth_idle_link(self):
        link = NetworkLink("a", "b", 1000.0)
        assert link.available == 1000.0

    def test_available_bandwidth_under_heavy_load(self):
        link = NetworkLink("a", "b", 1000.0, background_load=0.99)
        assert link.available == pytest.approx(10.0)

    def test_available_bandwidth_half_loaded(self):
        link = NetworkLink("a", "b", 10.0, background_load=0.5)
        assert link.available == pytest.approx(5.0)

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError, match="bandwidth"):
            NetworkLink("a", "b", 0.0)

    def test_rejects_full_background_load(self):
        with pytest.raises(ValueError, match="background_load"):
            NetworkLink("a", "b", 100.0, background_load=1.0)

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError, match="latency"):
            NetworkLink("a", "b", 100.0, latency=-1.0)

    @pytest.mark.parametrize("field", ["bandwidth", "latency",
                                       "background_load"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_rejects_non_finite_values(self, field, value):
        values = {"bandwidth": 100.0, field: float(value)}
        with pytest.raises(ValueError, match=field):
            NetworkLink("a", "b", **values)


class TestUserProfile:
    @pytest.mark.parametrize("quota", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_quota(self, quota):
        with pytest.raises(ValueError, match="quota must be finite and > 0"):
            UserProfile("u", quota)


class TestTopology:
    def _topo(self, default=None):
        return Topology([NetworkLink("s1", "s2", 100.0)], default)

    def test_same_site_has_no_link(self):
        assert self._topo().link_between("s1", "s1") is None

    def test_explicit_link_is_symmetric(self):
        topo = self._topo()
        assert topo.link_between("s1", "s2").bandwidth == 100.0
        assert topo.link_between("s2", "s1").bandwidth == 100.0

    def test_default_link_fills_absent_pairs(self):
        topo = self._topo(default=NetworkLink("*", "*", 1000.0, latency=0.1))
        link = topo.link_between("s1", "s3")
        assert link.bandwidth == 1000.0
        assert link.latency == 0.1

    def test_default_link_is_shared_not_copied(self):
        default = NetworkLink("*", "*", 1000.0)
        topo = self._topo(default=default)
        assert topo.link_between("s1", "s3") is default
        assert topo.link_between("s3", "s2") is default

    def test_unreachable_without_default(self):
        with pytest.raises(UnreachableSiteError):
            self._topo().link_between("s1", "s3")
