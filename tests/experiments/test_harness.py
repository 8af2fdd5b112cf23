"""Tests for the experiment harness plumbing (small scales only —
the calibrated shape checks run in benchmarks/)."""

import pytest

from repro.experiments import EXPERIMENTS, ExperimentResult, ShapeCheck
from repro.experiments.base import ExperimentResult as BaseResult
from repro.metrics import format_matrix, format_series, format_table
from repro.runner import KINDS, SweepRunner
from repro.runner.spec import spec_key


def test_registry_covers_every_paper_artifact():
    expected = {
        "fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
        "fig7a", "fig7b", "fig7c", "fig7d", "fig8",
        "table1", "table2",
    }
    assert expected <= set(EXPERIMENTS)
    # Extensions are registered too.
    assert {
        "ablation-mechanisms", "ablation-online", "ablation-chain",
        "fig9-faults", "fig-multijob", "fig-ctrl",
    } <= set(EXPERIMENTS)


def test_shape_check_str():
    assert str(ShapeCheck("x", True, "d")) == "[PASS] x: d"
    assert str(ShapeCheck("x", False)) == "[FAIL] x"


def test_experiment_result_render_combines_parts():
    result = BaseResult(
        experiment_id="t",
        title="Title",
        data={"v": 1},
        renderer=lambda r: f"v={r.data['v']}",
        checker=lambda r: [ShapeCheck("ok", True)],
    )
    text = result.render()
    assert "### t: Title" in text
    assert "v=1" in text
    assert "[PASS] ok" in text
    assert result.all_checks_pass


def test_experiment_result_fail_detection():
    result = BaseResult(
        experiment_id="t",
        title="Title",
        checker=lambda r: [ShapeCheck("a", True), ShapeCheck("b", False)],
    )
    assert not result.all_checks_pass


# -- table renderers ---------------------------------------------------------------


def test_format_table_alignment_and_floats():
    text = format_table(["name", "val"], [["a", 1.234], ["bbbb", 10.0]])
    lines = text.splitlines()
    assert "name" in lines[0] and "val" in lines[0]
    assert "1.2" in text and "10.0" in text
    # Separator present.
    assert set(lines[1]) <= {"-", "+"}


def test_format_table_with_title():
    text = format_table(["c"], [[1]], title="hello")
    assert text.startswith("hello\n")


def test_format_series():
    text = format_series("s", [(1, 2.5), (3, 4.0)])
    assert text.startswith("series: s")
    assert "2.50" in text


def test_format_matrix_keys():
    text = format_matrix(
        ["r1", "r2"], ["c1", "c2"],
        {("r1", "c1"): 1.0, ("r2", "c2"): 2.0},
    )
    assert "r1" in text and "c2" in text
    assert "1.0" in text and "2.0" in text


# -- scaled config helpers ------------------------------------------------------------


def test_scaled_testbed_preserves_wave_structure():
    from repro.experiments import scaled_testbed
    from repro.workloads import SORT

    for scale in (0.05, 0.25, 1.0):
        config = scaled_testbed(SORT, scale=scale)
        assert config.job.blocks_per_vm() == 8
        assert config.job.waves() == pytest.approx(4.0)


def test_scaled_testbed_scales_sizes_linearly():
    from repro.experiments import scaled_testbed
    from repro.workloads import SORT

    small = scaled_testbed(SORT, scale=0.1)
    big = scaled_testbed(SORT, scale=0.2)
    assert big.job.bytes_per_vm == pytest.approx(2 * small.job.bytes_per_vm, rel=0.01)
    assert big.cluster.pagecache.capacity_bytes == pytest.approx(
        2 * small.cluster.pagecache.capacity_bytes, rel=0.01
    )


def test_env_scale_validation(monkeypatch):
    import importlib

    import repro.api as api

    monkeypatch.setenv("REPRO_SCALE", "2.0")
    with pytest.raises(ValueError):
        importlib.reload(api)
    monkeypatch.setenv("REPRO_SCALE", "abc")
    with pytest.raises(ValueError):
        importlib.reload(api)
    monkeypatch.setenv("REPRO_SCALE", "0.5")
    importlib.reload(api)
    assert api.DEFAULT_SCALE == 0.5
    monkeypatch.delenv("REPRO_SCALE")
    importlib.reload(api)


# -- every experiment lowers to runnable specs -------------------------------------


class _FirstBatch(Exception):
    """Raised by :class:`_BatchRecorder` once the first batch is seen."""


class _BatchRecorder(SweepRunner):
    """Records the first batch of specs and simulates nothing."""

    def __init__(self):
        super().__init__(jobs=1, use_cache=False)
        self.batch = None

    def run_specs(self, specs):
        self.batch = list(specs)
        raise _FirstBatch


@pytest.mark.parametrize("exp_id", sorted(EXPERIMENTS))
def test_every_experiment_builds_its_first_batch(exp_id):
    # Config fields an experiment sets (ablation-mechanisms sets
    # ClusterConfig.ring_slots) are reached only when it builds its
    # specs; this builds them without running a simulation.
    recorder = _BatchRecorder()
    with pytest.raises(_FirstBatch):
        EXPERIMENTS[exp_id](scale=0.05, seeds=(0,), sweep=recorder)
    assert recorder.batch
    for spec in recorder.batch:
        assert spec.kind in KINDS
        assert len(spec_key(spec)) == 64
