"""A completed I/O is freed by reference counting, not by the collector.

Every request binds a completion event whose value is a request.  If the
request kept the event after it fired, each I/O would leave a reference
cycle for the cyclic collector; the device unbinds it instead.
"""

import gc

import numpy as np

from repro.disk import BlockRequest, DiskDevice, IoOp, ServiceTimeModel
from repro.iosched import NoopScheduler
from repro.sim import Environment
from repro.sim.events import Event
from repro.virt.vdisk import VirtualBlockDevice


def _req(lba):
    return BlockRequest(lba, 256, IoOp.READ, "p")


def _complete_four_kinds(env, disk, vdisk):
    """A plain request, a back-merged and a front-merged pair on the
    disk, and one request the vdisk forwards to it; all complete."""
    done = [
        disk.submit(_req(0)),
        disk.submit(_req(2_000_000)),
        disk.submit(_req(2_000_256)),  # back-merges into 2_000_000
        disk.submit(_req(3_000_256)),
        disk.submit(_req(3_000_000)),  # front-merges into 3_000_256
        vdisk.submit(_req(5_000_000)),
    ]
    env.run()
    assert all(event.processed for event in done)
    assert disk.stats.merged_count == 2
    assert disk.stats.total_requests == 4  # plain, two pairs, forwarded
    assert vdisk.stats.total_requests == 1


def test_completed_requests_and_their_events_leave_no_cyclic_garbage():
    env = Environment()
    model = ServiceTimeModel(rng=np.random.default_rng(1))
    disk = DiskDevice(env, NoopScheduler(), model)
    vdisk = VirtualBlockDevice(env, NoopScheduler(), disk, vm_id="vm0",
                               lba_offset=0, capacity_sectors=10**8)
    flags = gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        _complete_four_kinds(env, disk, vdisk)
        gc.collect()
        requests = [o for o in gc.garbage if isinstance(o, BlockRequest)]
        completions = [o for o in gc.garbage if isinstance(o, Event)
                       and isinstance(o._value, BlockRequest)]
        assert requests == []
        assert completions == []
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        gc.enable()
