"""Storage backends by name: make_device, names, error surface."""

import numpy as np
import pytest

from repro.disk import (
    STORAGE_NAMES,
    DiskDevice,
    SsdDevice,
    UnknownStorageError,
    make_device,
    resolve_storage,
)
from repro.iosched import NoopScheduler
from repro.sim import Environment


def build(storage, host_index=0):
    env = Environment()
    return make_device(
        storage, env, host_index,
        rng=np.random.default_rng(0),
        scheduler=NoopScheduler(), name="t.sda",
    )


def test_builtin_names_registered():
    assert STORAGE_NAMES == ("hdd", "hybrid", "ssd")
    for name in STORAGE_NAMES:
        assert resolve_storage(name) == name


def test_factories_build_the_right_device():
    for host_index in (0, 1, 2, 3):
        assert type(build("hdd", host_index)) is DiskDevice
        assert type(build("ssd", host_index)) is SsdDevice
    assert build("hdd").kind == "hdd"
    assert build("ssd").kind == "ssd"


def test_hybrid_alternates_by_host_parity():
    for host_index in (0, 2, 4):
        assert type(build("hybrid", host_index)) is DiskDevice
    for host_index in (1, 3, 5):
        assert type(build("hybrid", host_index)) is SsdDevice


def test_unknown_name_lists_registered_backends():
    with pytest.raises(UnknownStorageError) as exc:
        resolve_storage("floppy")
    message = str(exc.value)
    assert "floppy" in message
    for name in STORAGE_NAMES:
        assert name in message
    # Catchable under both idioms callers might already use.
    assert isinstance(exc.value, KeyError)
    assert isinstance(exc.value, ValueError)
    # make_device rejects the name before building anything.
    with pytest.raises(UnknownStorageError, match="hdd, hybrid, ssd"):
        build("floppy")
