"""Per-run capture: env plumbing, artifacts, and the bit-identity guards.

The expensive tests here run the golden-digest spec (a small sort job)
once per concern; everything is ``jobs=1`` so capture state stays in
this process.
"""

import json

import pytest

from repro.obs import capture
from repro.obs.export import load_jsonl
from repro.runner import RunSpec
from repro.runner.kinds import execute_spec
from tests.integration.test_golden_digest import (
    GOLDEN_DIGEST,
    PINNED_DIGESTS,
    digest,
    golden_config,
    pinned_spec,
)


@pytest.fixture
def clean_capture_env(monkeypatch):
    monkeypatch.delenv(capture.ENV_TRACE_OUT, raising=False)
    monkeypatch.delenv(capture.ENV_TRACE_TOPICS, raising=False)


def golden_spec():
    testbed, solution = golden_config()
    return RunSpec(kind="job", seed=0, config=(testbed, solution))


def test_config_from_env_roundtrip(clean_capture_env, tmp_path):
    assert capture.config_from_env() is None
    capture.enable(tmp_path, ("disk.*", "job.*"))
    try:
        cfg = capture.config_from_env()
        assert cfg.out_dir == str(tmp_path)
        assert cfg.topics == ("disk.*", "job.*")
    finally:
        capture.disable()
    assert capture.config_from_env() is None


def test_run_capture_scopes_current_bus(tmp_path):
    cfg = capture.CaptureConfig(out_dir=str(tmp_path))
    assert capture.current_bus() is None
    with capture.RunCapture(cfg) as cap:
        assert capture.current_bus() is cap.bus
    assert capture.current_bus() is None


def test_capture_writes_artifacts_and_keeps_payload_identical(
    clean_capture_env, tmp_path
):
    spec = golden_spec()
    plain = execute_spec(spec)

    capture.enable(tmp_path / "run1")
    try:
        traced = execute_spec(spec)
    finally:
        capture.disable()

    # Bit-identity: capture is a pure side channel, so the payload (and
    # therefore the golden digest and every cache key) is unchanged.
    assert digest(json.loads(json.dumps(traced, sort_keys=True))) == \
        digest(json.loads(json.dumps(plain, sort_keys=True)))
    assert digest(traced) == GOLDEN_DIGEST

    traces = sorted((tmp_path / "run1").glob("*.trace.jsonl"))
    metrics = sorted((tmp_path / "run1").glob("*.metrics.json"))
    assert len(traces) == 1 and len(metrics) == 1
    # Deterministic artifact naming: kind, seed, spec-key prefix.
    assert traces[0].name.startswith("job-seed0-")

    records = load_jsonl(traces[0])
    assert records, "captured trace must not be empty"
    topics = {r.topic for r in records}
    assert {"job.start", "job.done", "disk.submit", "disk.complete"} <= topics

    snapshot = json.loads(metrics[0].read_text())
    assert any(k.startswith("disk.submitted{") for k in snapshot["counters"])


def test_same_seed_runs_capture_byte_identical_traces(
    clean_capture_env, tmp_path
):
    paths = []
    for name in ("a", "b"):
        capture.enable(tmp_path / name)
        try:
            execute_spec(golden_spec())
        finally:
            capture.disable()
        [trace] = sorted((tmp_path / name).glob("*.trace.jsonl"))
        paths.append(trace)
    # The determinism guard: two same-seed runs export byte-identical
    # JSONL (same records, same canonical encoding, same file name).
    assert paths[0].name == paths[1].name
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_topic_filter_limits_captured_records(clean_capture_env, tmp_path):
    capture.enable(tmp_path, ("job.*",))
    try:
        execute_spec(golden_spec())
    finally:
        capture.disable()
    [trace] = sorted(tmp_path.glob("*.trace.jsonl"))
    topics = {r.topic for r in load_jsonl(trace)}
    assert topics
    assert all(t.startswith("job.") for t in topics)


def test_captured_switching_job_carries_ctrl_records(clean_capture_env,
                                                     tmp_path):
    # A switching plan runs under the greedy controller, so its capture
    # holds the controller's records, timed like the payload.
    capture.enable(tmp_path, ("ctrl.*",))
    try:
        payload = execute_spec(pinned_spec("job_cc_ad"))
    finally:
        capture.disable()
    assert digest(payload) == PINNED_DIGESTS["job_cc_ad"]
    [trace] = sorted(tmp_path.glob("*.trace.jsonl"))
    records = load_jsonl(trace)
    [switch] = [r for r in records if r.topic == "ctrl.switch"]
    assert switch.payload["pair"] == "ad"
    assert switch.payload["stall"] == payload["switch_stall"] > 0
    [phase] = [r for r in records if r.topic == "ctrl.phase"]
    assert phase.payload["boundary"] == "maps_done"
    assert phase.time == payload["phases"]["maps_done"]


def test_late_boundary_is_recorded_at_its_firing_time(clean_capture_env,
                                                      tmp_path):
    # This pin's shuffle boundary fires while the first switch is still
    # draining: the controller sees it late, but its detection and its
    # ctrl.phase record keep the instant it fired.
    capture.enable(tmp_path, ("ctrl.*",))
    try:
        payload = execute_spec(pinned_spec("controlled_job_greedy_3phase"))
    finally:
        capture.disable()
    assert digest(payload) == PINNED_DIGESTS["controlled_job_greedy_3phase"]
    ctrl = payload["ctrl"]
    first, second = ctrl["switches"]
    shuffle = ctrl["detections"][1]
    assert shuffle["boundary"] == "shuffle_done"
    assert shuffle["time"] == payload["phases"]["shuffle_done"]
    assert shuffle["time"] < first["time"] + first["stall"]
    assert shuffle["time"] < second["time"]
    [trace] = sorted(tmp_path.glob("*.trace.jsonl"))
    phases = [r for r in load_jsonl(trace) if r.topic == "ctrl.phase"]
    assert [r.time for r in phases] == [d["time"] for d in ctrl["detections"]]
