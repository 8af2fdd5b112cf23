"""Unit tests for the max-min fair flow network."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import FlowNetwork, Link, Topology
from repro.sim import Environment


def test_single_flow_runs_at_link_rate():
    env = Environment()
    net = FlowNetwork(env)
    link = Link("l", 100.0)
    done = net.transfer([link], 1000.0)
    env.run(until=done)
    assert env.now == pytest.approx(10.0)


def test_two_flows_share_fairly():
    env = Environment()
    net = FlowNetwork(env)
    link = Link("l", 100.0)
    d1 = net.transfer([link], 500.0)
    d2 = net.transfer([link], 500.0)
    env.run()
    assert d1.processed and d2.processed
    assert env.now == pytest.approx(10.0)  # each at 50 B/s


def test_completion_releases_capacity():
    env = Environment()
    net = FlowNetwork(env)
    link = Link("l", 100.0)
    short = net.transfer([link], 100.0)
    long = net.transfer([link], 300.0)
    env.run(until=short)
    assert env.now == pytest.approx(2.0)  # both at 50 → short done at 2
    env.run(until=long)
    # long: 200 left at t=2, now at full 100 B/s → done at t=4.
    assert env.now == pytest.approx(4.0)


def test_max_min_with_bottleneck_and_free_link():
    env = Environment()
    net = FlowNetwork(env)
    narrow = Link("narrow", 10.0)
    wide = Link("wide", 100.0)
    # f1 crosses both links; f2 only the wide one.
    f1 = net.transfer([narrow, wide], 100.0)
    f2 = net.transfer([wide], 900.0)
    env.run(until=f1)
    # f1 bottlenecked at 10; f2 gets the residual 90.
    assert env.now == pytest.approx(10.0)
    env.run(until=f2)
    assert env.now == pytest.approx(10.0)  # 900/90 = 10 as well


def test_zero_byte_transfer_completes_immediately():
    env = Environment()
    net = FlowNetwork(env)
    done = net.transfer([Link("l", 10.0)], 0.0)
    assert done.triggered
    env.run()
    assert env.now == 0.0


def test_invalid_transfer_args():
    env = Environment()
    net = FlowNetwork(env)
    with pytest.raises(ValueError):
        net.transfer([], 10.0)
    with pytest.raises(ValueError):
        net.transfer([Link("l", 10.0)], -1.0)
    with pytest.raises(ValueError):
        Link("bad", 0.0)


def test_nan_and_infinite_sizes_rejected():
    net = FlowNetwork(Environment())
    for nbytes in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="nbytes"):
            net.transfer([Link("l", 10.0)], nbytes)


def test_nan_link_capacity_rejected():
    with pytest.raises(ValueError, match="capacity"):
        Link("l", float("nan"))


def test_nan_topology_bandwidths_rejected():
    env = Environment()
    with pytest.raises(ValueError, match="nic_bandwidth"):
        Topology(env, nic_bandwidth=float("nan"))
    with pytest.raises(ValueError, match="loopback_bandwidth"):
        Topology(env, loopback_bandwidth=float("nan"))


def test_late_arrival_slows_existing_flow():
    env = Environment()
    net = FlowNetwork(env)
    link = Link("l", 100.0)

    def late(env, net, link):
        yield env.timeout(1.0)
        done = net.transfer([link], 100.0)
        yield done
        return env.now

    first = net.transfer([link], 200.0)
    later = env.process(late(env, net, link))
    env.run()
    # first alone [0,1): 100 done.  Shared [1,3): 50 each → both end at 3.
    assert later.value == pytest.approx(3.0)


def test_stats_accumulate():
    env = Environment()
    net = FlowNetwork(env)
    link = Link("l", 100.0)
    net.transfer([link], 100.0)
    net.transfer([link], 200.0)
    env.run()
    assert net.completed_flows == 2
    assert net.bytes_transferred == pytest.approx(300.0)
    assert net.active_flows == 0


def test_many_flows_conserve_work():
    env = Environment()
    net = FlowNetwork(env)
    link = Link("l", 1000.0)
    total = 0.0
    for i in range(20):
        size = 100.0 * (i + 1)
        total += size
        net.transfer([link], size)
    env.run()
    # One shared bottleneck, always busy → makespan == total/capacity.
    assert env.now == pytest.approx(total / 1000.0)


# -- topology ------------------------------------------------------------------


def test_topology_cross_host_uses_both_nics():
    env = Environment()
    topo = Topology(env, nic_bandwidth=100.0)
    topo.add_host("a")
    topo.add_host("b")
    topo.add_host("c")
    # Two flows out of host a to different hosts share a's egress.
    d1 = topo.transfer("a", "b", 500.0)
    d2 = topo.transfer("a", "c", 500.0)
    env.run()
    assert env.now == pytest.approx(10.0)


def test_topology_incast_shares_ingress():
    env = Environment()
    topo = Topology(env, nic_bandwidth=100.0)
    for h in "abc":
        topo.add_host(h)
    d1 = topo.transfer("a", "c", 500.0)
    d2 = topo.transfer("b", "c", 500.0)
    env.run()
    assert env.now == pytest.approx(10.0)  # c.rx is the bottleneck


def test_topology_same_host_uses_loopback():
    env = Environment()
    topo = Topology(env, nic_bandwidth=100.0, loopback_bandwidth=1000.0)
    topo.add_host("a")
    done = topo.transfer("a", "a", 1000.0)
    env.run(until=done)
    assert env.now == pytest.approx(1.0)  # 10x faster than the NIC


def test_topology_unknown_host_raises():
    env = Environment()
    topo = Topology(env)
    with pytest.raises(KeyError):
        topo.transfer("x", "y", 10.0)


def test_add_host_idempotent():
    env = Environment()
    topo = Topology(env)
    n1 = topo.add_host("a")
    n2 = topo.add_host("a")
    assert n1 is n2


# -- one solve per instant, held to the eager re-solve --------------------------


class EagerFlowNetwork(FlowNetwork):
    """Reference: re-solve at every flow start and finish, at once."""

    def _invalidate(self):
        if self._flows:
            self._wakeup_key = self.env.reserve_order()
        self._reallocate_and_schedule()


class CountingFlowNetwork(FlowNetwork):
    solves = 0

    def _reallocate_and_schedule(self):
        self.solves += 1
        super()._reallocate_and_schedule()


def test_transfers_in_one_instant_share_one_solve():
    env = Environment()
    net = CountingFlowNetwork(env)
    link = Link("l", 100.0)
    for _ in range(10):
        net.transfer([link], 100.0)
    env.run()
    assert net.solves == 1
    assert env.now == pytest.approx(10.0)


def test_a_wakeup_keeps_its_place_among_same_time_events():
    # A's wakeup was due at t=1.0 before B's timeout was created, so A
    # finishes first and B's transfer starts on an idle link.  Were the
    # wakeup created at the deferred solve, B's timeout would run first
    # and re-solve while A had 0 bytes left: A would end at 1.000000001.
    env = Environment()
    net = FlowNetwork(env)
    link = Link("l", 100.0)
    ends = {}

    def a():
        yield net.transfer([link], 100.0)
        ends["A"] = env.now

    def b():
        yield env.timeout(1.0)
        yield net.transfer([link], 100.0)
        ends["B"] = env.now

    env.process(a())
    env.process(b())
    env.run()
    assert ends == {"A": 1.0, "B": 2.0}


SIZES = (0.0, 50.0, 100.0, 200.0)
SLEEPS = (0.0, 0.5, 1.0)
STEPS = st.one_of(
    st.tuples(st.just("sleep"), st.sampled_from(SLEEPS)),
    st.tuples(st.just("send"), st.integers(0, 2), st.integers(0, 2),
              st.sampled_from(SIZES)),
)


def run_scripts(network_cls, scripts):
    """Run each script as a process; log ``(process, step, now, elapsed)``."""
    env = Environment()
    net = network_cls(env)
    nics = [(Link(f"h{h}.tx", 100.0), Link(f"h{h}.rx", 100.0),
             Link(f"h{h}.lo", 400.0)) for h in range(3)]
    log = []

    def proc(pid, script):
        for step, (kind, *args) in enumerate(script):
            if kind == "sleep":
                elapsed = yield env.timeout(args[0], value=args[0])
            else:
                src, dst, nbytes = args
                links = ([nics[src][2]] if src == dst
                         else [nics[src][0], nics[dst][1]])
                elapsed = yield net.transfer(links, nbytes)
            log.append((pid, step, env.now, elapsed))

    for pid, script in enumerate(scripts):
        env.process(proc(pid, script))
    env.run()
    return log


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(STEPS, min_size=1, max_size=6), min_size=1,
                max_size=6))
def test_batched_solve_matches_the_eager_solve(scripts):
    # Small size and sleep sets make exact time ties common.
    assert run_scripts(FlowNetwork, scripts) == \
        run_scripts(EagerFlowNetwork, scripts)
