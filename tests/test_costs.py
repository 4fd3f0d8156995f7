"""Cost model: computation, transfer and network components."""

import pytest

from dianasched.core import JobKind, NetworkLink
from dianasched.costs import (CostWeights, PRESET_WEIGHTS, total_cost,
                              transfer_cost)
from conftest import compute_cost, mk_job, mk_site, network_cost

GB = 10**9


def compute_term(job, site):
    """total_cost's compute term alone: co-located, compute weight only."""
    return total_cost(job, site, site.backlog, None, CostWeights(1, 0, 0))


def network_term(link, b_ref=1000.0):
    """total_cost's network term alone: an empty job, network weight only."""
    return total_cost(mk_job(demand=0.0, data_site="a"), mk_site("b"), 0,
                      link, CostWeights(0, 0, 1), b_ref)


class TestComputeCost:
    def test_zero_demand_empty_site_is_free(self):
        assert compute_term(mk_job(demand=0.0), mk_site()) == 0.0

    def test_service_time_uses_min_of_need_and_nodes(self):
        # 100 MFLOP on 2 of 5 nodes at 10 MFLOPS each.
        job = mk_job(demand=100.0, procs=2)
        assert compute_term(job, mk_site(nodes=5, power=10.0)) == pytest.approx(5.0)

    def test_oversized_job_capped_at_node_count(self):
        job = mk_job(demand=100.0, procs=8)
        assert compute_term(job, mk_site(nodes=4, power=10.0)) == pytest.approx(2.5)

    def test_backlog_adds_service_rate_delay(self):
        site = mk_site(backlog=4, service=2.0)
        job = mk_job(demand=10.0, procs=1)
        assert compute_term(job, site) == pytest.approx(10.0 + 4 / 2.0)


class TestTransferCost:
    def test_10gb_at_gigabit(self):
        link = NetworkLink("s1", "s2", 1000.0)
        job = mk_job(data=10 * GB)
        assert transfer_cost(job, link) == pytest.approx(80.0)

    def test_10gb_at_10mbps(self):
        link = NetworkLink("s1", "s2", 10.0)
        job = mk_job(data=10 * GB)
        assert transfer_cost(job, link) == pytest.approx(8000.0)

    def test_latency_added_once(self):
        link = NetworkLink("s1", "s2", 1000.0, latency=2.5)
        job = mk_job(data=10 * GB)
        assert transfer_cost(job, link) == pytest.approx(82.5)

    def test_background_load_shrinks_bandwidth(self):
        link = NetworkLink("s1", "s2", 1000.0, background_load=0.5)
        job = mk_job(data=10 * GB)
        assert transfer_cost(job, link) == pytest.approx(160.0)


class TestNetworkCost:
    def test_reference_bandwidth_normalizes_to_one(self):
        assert network_term(NetworkLink("a", "b", 1000.0)) == pytest.approx(1.0)

    def test_slow_link_scales_up(self):
        assert network_term(NetworkLink("a", "b", 10.0)) == pytest.approx(100.0)

    def test_intra_site_is_zero(self):
        assert network_term(None) == 0.0

    def test_custom_reference(self):
        assert network_term(NetworkLink("a", "b", 50.0), b_ref=100.0) == pytest.approx(2.0)


class TestTotalCost:
    def test_compute_plus_transfer(self):
        # compute 3 s, transfer 80 s, network weight zero.
        job = mk_job(demand=3.0, data=10 * GB, data_site="s1")
        site = mk_site("s2", nodes=1, power=1.0)
        link = NetworkLink("s1", "s2", 1000.0)
        assert compute_term(job, site) == pytest.approx(3.0)
        assert transfer_cost(job, link) == pytest.approx(80.0)
        assert total_cost(job, site, 0, link, CostWeights(1, 1, 0)) == \
            pytest.approx(83.0)

    def test_compute_only_projection(self):
        job = mk_job(demand=7.0, data=10 * GB, data_site="s1")
        site = mk_site("s2", nodes=1, power=1.0)
        link = NetworkLink("s1", "s2", 1000.0)
        assert total_cost(job, site, 0, link, CostWeights(1, 0, 0)) == \
            pytest.approx(compute_cost(job, site))

    def test_zero_job_colocated_idle_site_is_free(self):
        job = mk_job(demand=0.0, data=0.0, data_site="s1")
        assert total_cost(job, mk_site("s1"), 0, None,
                          CostWeights(1, 1, 1)) == 0.0

    def test_total_is_the_weighted_sum_in_declared_order(self):
        # Bit-for-bit against the reference terms in conftest: placements
        # compare these floats exactly.
        job = mk_job(demand=7.0, data=3 * GB, data_site="s1")
        site = mk_site("s2", nodes=3, power=1.3, backlog=4, service=0.7)
        link = NetworkLink("s1", "s2", 333.0, latency=0.1, background_load=0.3)
        w = CostWeights(0.3, 0.7, 0.11)
        c = compute_cost(job, site)
        d = transfer_cost(job, link)
        n = network_cost(link)
        assert total_cost(job, site, 4, link, w) == \
            w.w_c * c + w.w_d * d + w.w_n * n


class TestWeights:
    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            CostWeights(1, -0.1, 0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_weight(self, bad):
        with pytest.raises(ValueError, match="finite"):
            CostWeights(1, bad, 0)

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            CostWeights(0, 0, 0)

    def test_presets_cover_every_kind(self):
        assert set(PRESET_WEIGHTS) == set(JobKind)
        assert PRESET_WEIGHTS[JobKind.COMPUTE_INTENSIVE] == CostWeights(1.0, 0.25, 0.25)
        assert PRESET_WEIGHTS[JobKind.DATA_INTENSIVE] == CostWeights(0.25, 1.0, 1.0)
        assert PRESET_WEIGHTS[JobKind.MIXED] == CostWeights(1.0, 1.0, 1.0)
