"""The layer rollup, the exact counts and the spans."""

import cProfile
import os
import pstats
import types

import pytest

import repro
from perfbench import layers

PKG = os.path.dirname(repro.__file__)


def _in_pkg(rel):
    return os.path.join(PKG, *rel.split("/"))


@pytest.mark.parametrize("rel, layer", [
    ("sim/core.py", "sim"),
    ("sim/tracing.py", "obs"),
    ("iosched/cfq.py", "iosched"),
    ("disk/ssd.py", "disk"),
    ("core/experiment.py", "ctrl"),
    ("workloads/profiles.py", "mapreduce"),
    ("metrics/slo.py", "obs"),
    ("api.py", "runner"),
    ("runner/kinds.py", "runner"),
    ("faults/injector.py", "faults"),
])
def test_layer_of_repro_modules(rel, layer):
    assert layers.layer_of(_in_pkg(rel), PKG) == layer


def test_files_outside_repro_have_no_layer():
    assert layers.layer_of(os.__file__, PKG) is None
    assert layers.layer_of("~", PKG) is None


def test_every_repro_module_has_a_layer():
    for dirpath, _dirs, files in os.walk(PKG):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                assert layers.layer_of(path, PKG) in layers.LAYERS


def _fn(filename, name):
    return (filename, 1, name)


def _layer(filename):
    return {"a.py": "sim", "b.py": "disk"}.get(filename)


def _stats():
    """A hand-built pstats table.

    sim_fn and disk_fn (repro) both call the builtin ``len``; ``len``
    took 3 s under sim_fn and 1 s under disk_fn.  disk_fn also calls
    stdlib ``helper``, which recurses and calls ``len`` too.  ``orphan``
    has no caller at all.
    """
    sim_fn = _fn("a.py", "sim_fn")
    disk_fn = _fn("b.py", "disk_fn")
    builtin = _fn("~", "len")
    helper = _fn("lib.py", "helper")
    orphan = _fn("lib.py", "orphan")
    return {
        sim_fn: (1, 1, 2.0, 5.0, {}),
        disk_fn: (1, 1, 1.0, 4.5, {}),
        builtin: (4, 4, 4.5, 4.5, {
            sim_fn: (2, 2, 3.0, 3.0),
            disk_fn: (1, 1, 1.0, 1.0),
            helper: (1, 1, 0.5, 0.5),
        }),
        helper: (1, 3, 2.0, 2.5, {
            disk_fn: (1, 1, 1.5, 2.5),
            helper: (2, 0, 0.5, 1.0),
        }),
        orphan: (1, 1, 0.25, 0.25, {}),
    }


def test_rollup_charges_non_repro_time_to_the_nearest_repro_caller():
    totals = layers.rollup(_stats(), _layer)
    # sim: own 2 + len under sim 3; disk: own 1 + len 1 + len-via-helper
    # 0.5 + helper's own 2 (its recursion resolves at disk_fn's edge).
    assert totals["sim"] == pytest.approx(5.0)
    assert totals["disk"] == pytest.approx(4.5)
    assert totals["ext"] == pytest.approx(0.25)
    assert set(totals) == set(layers.LAYERS)


def test_rollup_conserves_every_profiled_second():
    table = _stats()
    totals = layers.rollup(table, _layer)
    assert sum(totals.values()) == pytest.approx(sum(v[2] for v in table.values()))


def _profile_tiny_run():
    from repro.api import scaled_cluster
    from repro.runner.kinds import execute_spec
    from repro.runner.spec import RunSpec

    spec = RunSpec(
        kind="sysbench", seed=0,
        config=(scaled_cluster(0.05, hosts=1, vms_per_host=2, seed=0),
                8 * 1024 * 1024, 4, 2),
    )
    profiler = cProfile.Profile()
    profiler.enable()
    execute_spec(spec)
    profiler.disable()
    return pstats.Stats(profiler).stats


def test_rollup_of_a_real_profile_sums_to_one():
    table = _profile_tiny_run()
    totals = layers.rollup(table, lambda f: layers.layer_of(f, PKG))
    total = sum(totals.values())
    assert total == pytest.approx(sum(v[2] for v in table.values()), rel=1e-9)
    shares = {name: s / total for name, s in totals.items()}
    assert sum(shares.values()) == pytest.approx(1.0, abs=0.01)
    assert all(s >= 0 for s in shares.values())
    assert shares["sim"] > 0 and shares["disk"] > 0


def test_call_counts_are_exact_ncalls():
    table = _profile_tiny_run()
    counts = layers.call_counts(table, PKG)
    assert set(counts) == set(layers.COUNTED_CALLS)
    assert counts["disk.submits"] == counts["iosched.add_request"] > 0
    assert counts["disk.ssd_programs"] == 0
    assert counts["obs.publishes"] == 0


def test_payload_counts():
    payloads = [
        {"phases": {"start": 0.0, "end": 2.0},
         "faults": {"map_retries": 2, "reduce_retries": 1},
         "storage": {"h0": {"nand_programs": 30, "host_pages": 20}}},
        {"makespan": 3.0, "ctrl": {"n_switches": 1}},
    ]
    counts = layers.payload_counts(payloads)
    assert counts == {"mapreduce.retries": 3, "ctrl.switches": 1,
                      "disk.write_amp": 1.5, "model.job_s": 5.0}


def test_spans_nest_and_wrappers_are_removed():
    mod = types.ModuleType("fake")

    def inner():
        return 7

    def outer():
        return mod.inner() + 1

    mod.inner, mod.outer = inner, outer
    recorder = layers.SpanRecorder()
    with recorder.install([(mod, "outer", "outer"), (mod, "inner", "inner")]):
        assert mod.outer() == 8
    assert mod.inner is inner and mod.outer is outer
    spans = {s["name"]: s for s in recorder.spans}
    assert spans["outer"]["parent"] is None
    assert spans["inner"]["parent"] == spans["outer"]["id"]
    assert spans["outer"]["start"] <= spans["inner"]["start"]
    assert spans["inner"]["end"] <= spans["outer"]["end"]


def test_span_times_split_simulation_from_assembly():
    spans = [
        {"name": "execute_spec", "id": 0, "parent": None, "start": 0.0, "end": 1.0},
        {"name": "Environment.run", "id": 1, "parent": 0, "start": 0.25, "end": 0.75},
    ]
    assert layers.span_times(spans) == {"run.simulate_s": 0.5,
                                        "run.assemble_s": 0.5}


def test_per_layer_metrics_cover_the_registry():
    self_s = dict.fromkeys(layers.LAYERS, 1.0)
    counts = {name: 0 for name, unit in layers.METRIC_UNITS.items()
              if not name.endswith((".self_s", ".self_share"))
              and name != "trace.overhead"}
    out = layers.per_layer_metrics(self_s, counts, 3.0, 1.5)
    assert list(out) == list(layers.METRIC_UNITS)
    assert out["trace.overhead"] == 2.0
    assert sum(out[f"{n}.self_share"] for n in layers.LAYERS) == pytest.approx(1.0)
    with pytest.raises(KeyError):
        layers.per_layer_metrics(self_s, {}, 3.0, 1.5)


def test_every_metric_has_a_prediction():
    for name in layers.METRIC_UNITS:
        assert layers.predicted_effect(name) != "-", name
