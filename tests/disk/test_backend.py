"""The storage-backend registry: names, factories, error surface."""

import numpy as np
import pytest

from repro.disk import (
    DiskDevice,
    SsdDevice,
    StorageParams,
    UnknownStorageError,
    make_device,
    resolve_storage,
    storage_names,
)
from repro.iosched import NoopScheduler
from repro.sim import Environment


def build(storage, host_index=0):
    env = Environment()
    return make_device(
        storage, env, StorageParams(host_index=host_index),
        rng=np.random.default_rng(0),
        scheduler=NoopScheduler(), name="t.sda",
    )


def test_builtin_names_registered():
    assert storage_names() == ("hdd", "hybrid", "ssd")
    for name in storage_names():
        assert resolve_storage(name) == name


def test_factories_build_the_right_device():
    assert isinstance(build("hdd"), DiskDevice)
    assert isinstance(build("ssd"), SsdDevice)
    assert build("hdd").kind == "hdd"
    assert build("ssd").kind == "ssd"


def test_hybrid_alternates_by_host_parity():
    assert isinstance(build("hybrid", host_index=0), DiskDevice)
    assert isinstance(build("hybrid", host_index=1), SsdDevice)


def test_unknown_name_lists_registered_backends():
    with pytest.raises(UnknownStorageError) as exc:
        resolve_storage("floppy")
    message = str(exc.value)
    assert "floppy" in message
    for name in storage_names():
        assert name in message
    # Catchable under both idioms callers might already use.
    assert isinstance(exc.value, KeyError)
    assert isinstance(exc.value, ValueError)
