"""Arrival-stream generator: determinism, mixes, validation."""

import pytest

from repro.sim.rng import RngStreams
from repro.workloads import (
    DEFAULT_SIZE_MIX,
    ArrivalConfig,
    SizeClass,
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


def test_size_mix_respects_weights():
    only_large = (SizeClass("large", 1.0, 2.0),)
    cfg = ArrivalConfig(n_jobs=20, rate=1.0, size_classes=only_large)
    arrivals = generate_arrivals(cfg, stream())
    assert all(a.size_class.name == "large" for a in arrivals)


#: A float count failed in the generator's range(), a string or None in
#: the bound check with a TypeError, and a bool ran 0 or 1 jobs; all-zero
#: size weights failed in the run's first draw.
ZERO_WEIGHTS = (SizeClass("idle", 0.0, 1.0), SizeClass("off", 0.0, 2.0))


@pytest.mark.parametrize("bad", [
    dict(n_jobs=1.5),
    dict(n_jobs=0),
    dict(rate=0.0),
    dict(rate=-1.0),
    dict(tenants=()),
    dict(n_jobs=True),
    dict(size_classes=()),
    dict(size_classes=(SizeClass("dup", 0.5, 1.0), SizeClass("dup", 0.5, 2.0))),
    dict(size_classes=ZERO_WEIGHTS[:1]),
    dict(n_jobs=3.0),
    dict(size_classes=ZERO_WEIGHTS),
    # NaN gaps used to admit every job at t=0; inf put them all at 0 too.
    dict(rate=float("nan")),
    dict(rate=float("inf")),
    dict(n_jobs="3"),
    dict(n_jobs=None),
])
def test_config_validation_rejects(bad):
    with pytest.raises(ValueError):
        ArrivalConfig(**bad)


def test_size_class_validation():
    with pytest.raises(ValueError):
        SizeClass("bad", -0.1, 1.0)
    with pytest.raises(ValueError):
        SizeClass("bad", 0.5, 0.0)
    for weight, factor in ((float("nan"), 1.0), (0.5, float("nan")),
                           (0.5, float("inf"))):
        with pytest.raises(ValueError, match="size-class"):
            SizeClass("bad", weight, factor)
