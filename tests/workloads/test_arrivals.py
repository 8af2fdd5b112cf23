"""Arrival-stream generator: determinism, mixes, traces, validation."""

import pytest

from repro.sim.rng import RngStreams
from repro.workloads import (
    DEFAULT_SIZE_MIX,
    ArrivalConfig,
    SizeClass,
    TraceArrival,
    generate_arrivals,
)


def stream(seed=0, name="workload.arrivals"):
    return RngStreams(seed).stream(name)


def test_poisson_stream_is_deterministic_per_seed():
    cfg = ArrivalConfig(n_jobs=8, rate=0.1)
    a = generate_arrivals(cfg, stream(seed=7))
    b = generate_arrivals(cfg, stream(seed=7))
    assert a == b
    c = generate_arrivals(cfg, stream(seed=8))
    assert a != c


def test_poisson_stream_shape():
    cfg = ArrivalConfig(n_jobs=10, rate=0.5, tenants=("t0", "t1", "t2"))
    arrivals = generate_arrivals(cfg, stream())
    assert len(arrivals) == 10
    assert [a.job_id for a in arrivals] == list(range(10))
    times = [a.time for a in arrivals]
    assert times == sorted(times)
    assert all(t >= 0 for t in times)
    assert {a.tenant for a in arrivals} <= {"t0", "t1", "t2"}
    names = {s.name for s in DEFAULT_SIZE_MIX}
    assert {a.size_class.name for a in arrivals} <= names


def test_tenant_weights_bias_the_draw():
    cfg = ArrivalConfig(
        n_jobs=200, rate=1.0, tenants=("heavy", "light"),
        tenant_weights=(0.95, 0.05),
    )
    arrivals = generate_arrivals(cfg, stream())
    heavy = sum(1 for a in arrivals if a.tenant == "heavy")
    assert heavy > 150


def test_size_mix_respects_weights():
    only_large = (SizeClass("large", 1.0, 2.0),)
    cfg = ArrivalConfig(n_jobs=20, rate=1.0, size_classes=only_large)
    arrivals = generate_arrivals(cfg, stream())
    assert all(a.size_class.name == "large" for a in arrivals)


def test_trace_kind_replays_entries_verbatim():
    trace = (
        TraceArrival(time=0.0, tenant="a", size_class="small"),
        TraceArrival(time=2.5, tenant="b", size_class="large"),
        TraceArrival(time=2.5, tenant="a", size_class="medium"),
    )
    cfg = ArrivalConfig(kind="trace", trace=trace)
    arrivals = generate_arrivals(cfg, stream())
    assert [(a.time, a.tenant, a.size_class.name) for a in arrivals] == [
        (0.0, "a", "small"), (2.5, "b", "large"), (2.5, "a", "medium"),
    ]
    assert [a.job_id for a in arrivals] == [0, 1, 2]


@pytest.mark.parametrize("bad", [
    dict(kind="bursty"),
    dict(n_jobs=0),
    dict(rate=0.0),
    dict(rate=-1.0),
    dict(tenants=()),
    dict(tenant_weights=(1.0,)),  # length mismatch with 2 tenants
    dict(size_classes=()),
    dict(size_classes=(SizeClass("dup", 0.5, 1.0), SizeClass("dup", 0.5, 2.0))),
    dict(kind="trace", trace=()),
    dict(kind="trace", trace=(
        TraceArrival(time=3.0, tenant="a"),
        TraceArrival(time=1.0, tenant="a"),
    )),
    dict(kind="trace", trace=(TraceArrival(time=0.0, tenant="a",
                                           size_class="gigantic"),)),
    # NaN gaps used to admit every job at t=0; inf put them all at 0 too.
    dict(rate=float("nan")),
    dict(rate=float("inf")),
    # A NaN weight sent every job to the last tenant.
    dict(tenant_weights=(1.0, float("nan"))),
    dict(tenant_weights=(-1.0, 3.0)),
])
def test_config_validation_rejects(bad):
    with pytest.raises(ValueError):
        ArrivalConfig(**bad)


@pytest.mark.parametrize("time", [-1.0, float("nan"), float("inf")])
def test_trace_arrival_time_must_be_finite_and_non_negative(time):
    with pytest.raises(ValueError, match="trace arrival time"):
        TraceArrival(time=time, tenant="a")


def test_size_class_validation():
    with pytest.raises(ValueError):
        SizeClass("bad", -0.1, 1.0)
    with pytest.raises(ValueError):
        SizeClass("bad", 0.5, 0.0)
    for weight, factor in ((float("nan"), 1.0), (0.5, float("nan")),
                           (0.5, float("inf"))):
        with pytest.raises(ValueError, match="size-class"):
            SizeClass("bad", weight, factor)
