"""The host-speed calibration."""

import pytest

from perfbench import speed


def test_calibrate_times_a_fixed_loop():
    times = [speed.calibrate(chunks=3, steps=500) for _ in range(3)]
    assert all(t > 0 for t in times)
    # A tenth of the steps takes well under the full calibration.
    assert speed.calibrate(chunks=3, steps=50) < max(times)


def test_speed_scale_maps_the_reference_speed_to_one():
    ref = speed.CAL_REF_S
    assert speed.speed_scale(ref, ref) == pytest.approx(1.0)
    # A core at half speed: host seconds count half.
    assert speed.speed_scale(2 * ref, 2 * ref) == pytest.approx(0.5)
    assert speed.speed_scale(ref, 3 * ref) == pytest.approx(0.5)
