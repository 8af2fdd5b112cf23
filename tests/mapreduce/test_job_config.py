"""Unit tests for job specs, configs, and phase accounting."""

import pytest

from repro.mapreduce import MB, JobConfig, JobSpec, PhaseTimes
from repro.workloads import SORT, WORDCOUNT, WORDCOUNT_NO_COMBINER, benchmark


def test_jobspec_ratio_validation():
    with pytest.raises(ValueError):
        JobSpec("x", emit_ratio=1.0, map_output_ratio=2.0, reduce_output_ratio=0.0)
    with pytest.raises(ValueError):
        JobSpec("x", emit_ratio=-1, map_output_ratio=0, reduce_output_ratio=0)
    with pytest.raises(ValueError):
        JobSpec("x", 1.0, 1.0, 1.0, map_cpu_s_per_mb=-0.1)


def test_benchmark_profiles_match_paper_classification():
    # wordcount: light — combiner shrinks map output drastically.
    assert WORDCOUNT.combiner
    assert WORDCOUNT.map_output_ratio < 0.2
    # w/o combiner: moderate — map output ~1.7x input (paper's figure).
    assert WORDCOUNT_NO_COMBINER.map_output_ratio == pytest.approx(1.7)
    assert WORDCOUNT_NO_COMBINER.reduce_output_ratio < 0.1
    # sort: heavy — both ends equal the input.
    assert SORT.map_output_ratio == pytest.approx(1.0)
    assert SORT.reduce_output_ratio == pytest.approx(1.0)


def test_benchmark_lookup():
    assert benchmark("sort") is SORT
    with pytest.raises(KeyError):
        benchmark("terasort")


def test_jobconfig_waves_formula():
    cfg = JobConfig(spec=SORT, bytes_per_vm=512 * MB, block_size=64 * MB,
                    map_slots=2)
    assert cfg.blocks_per_vm() == 8
    assert cfg.waves() == pytest.approx(4.0)  # paper's 8-maps example


def test_jobconfig_validation():
    with pytest.raises(ValueError):
        JobConfig(spec=SORT, bytes_per_vm=0)
    with pytest.raises(ValueError):
        JobConfig(spec=SORT, slowstart=2.0)
    with pytest.raises(ValueError):
        JobConfig(spec=SORT, map_slots=0)


def test_jobconfig_with_helper():
    cfg = JobConfig(spec=SORT)
    cfg2 = cfg.with_(bytes_per_vm=128 * MB)
    assert cfg2.bytes_per_vm == 128 * MB
    assert cfg2.spec is SORT


def test_phase_times_accounting():
    p = PhaseTimes(start=10.0, maps_done=40.0, shuffle_done=45.0, end=70.0)
    assert p.duration == pytest.approx(60.0)
    assert p.ph1 == pytest.approx(30.0)
    assert p.ph2 == pytest.approx(5.0)
    assert p.ph3 == pytest.approx(25.0)
    assert p.non_concurrent_shuffle_pct == pytest.approx(100 * 5 / 60)
    assert sum(p.breakdown().values()) == pytest.approx(p.duration)


def test_phase_times_incomplete_raises():
    p = PhaseTimes(start=0.0)
    with pytest.raises(ValueError):
        _ = p.duration
    with pytest.raises(ValueError):
        _ = p.ph1


def test_phase_shuffle_done_before_maps_clamped():
    # Shuffle can't finish before maps; ph2 clamps at 0 for boundary ties.
    p = PhaseTimes(start=0.0, maps_done=10.0, shuffle_done=10.0, end=20.0)
    assert p.ph2 == 0.0
    assert p.ph3 == pytest.approx(10.0)


JOBCONFIG_INT_FIELDS = ("bytes_per_vm", "block_size", "map_slots",
                        "reducers_per_vm", "sort_buffer_bytes",
                        "shuffle_buffer_bytes")


@pytest.mark.parametrize("bad", [1.5, 2.0, True, 0])
@pytest.mark.parametrize("field", JOBCONFIG_INT_FIELDS)
def test_jobconfig_counts_and_sizes_are_positive_ints(field, bad):
    # A float slot count failed deep in the run (range() in the slot
    # workers, list repetition in prepare); True ran one slot per VM.
    with pytest.raises(ValueError, match=f"JobConfig.{field} "):
        JobConfig(spec=SORT, **{field: bad})


def test_jobconfig_int_fields_accept_ints():
    cfg = JobConfig(spec=SORT, bytes_per_vm=1, block_size=1, map_slots=1,
                    reducers_per_vm=1, sort_buffer_bytes=1,
                    shuffle_buffer_bytes=1)
    assert cfg.blocks_per_vm() == 1
