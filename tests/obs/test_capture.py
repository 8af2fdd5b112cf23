"""Per-run capture: env plumbing, artifacts, and the bit-identity guards.

The expensive tests here run the golden-digest spec (a small sort job)
once per concern; everything is ``jobs=1`` so capture state stays in
this process.
"""

import hashlib
import json

import pytest

from repro.api import ControlledScenario, MultiJobScenario, scaled_testbed
from repro.cli import main
from repro.core.solution import Solution
from repro.obs import capture, spill
from repro.obs.export import load_jsonl
from repro.obs.metrics import TraceMetrics
from repro.runner import RunSpec
from repro.runner.kinds import execute_spec
from repro.virt.pair import DEFAULT_PAIR
from repro.workloads.arrivals import SizeClass
from repro.workloads.profiles import SORT
from tests.integration.test_golden_digest import (
    GOLDEN_DIGEST,
    PINNED_DIGESTS,
    digest,
    golden_config,
    pinned_spec,
)


@pytest.fixture
def clean_capture_env(monkeypatch):
    for name in (capture.ENV_TRACE_OUT, capture.ENV_TRACE_TOPICS):
        monkeypatch.delenv(name, raising=False)


def golden_spec():
    testbed, solution = golden_config()
    return RunSpec(kind="job", seed=0, config=(testbed, solution))


# -- artifact pins ------------------------------------------------------------------

#: sha256 of the ``.trace.jsonl`` a full-topic capture writes for each
#: run below, and of the metrics snapshot ``repro report`` replays from
#: it (``json.dumps(snapshot, sort_keys=True, indent=1)``).  The payload
#: digests pin what a run computes; these pin the bytes capture writes
#: about it and the metrics a report derives, so a change to the
#: encoder, the spiller or the metrics fold that alters one byte fails
#: here.
ARTIFACT_PINS = {
    "job": (
        "c222381cb713e41311217f3172b96206ec8ea00f77937a3a9a3689399a354cd8",
        "61747c0fbc2d9fc18d9801affcec7711a46c82196882e7cb3cf52760487564c1",
    ),
    "faulty_job_light": (
        "cb9f8f139906ad7613292ef9b6760394eba45db83ca66e8a1587fd9b9146b837",
        "6c5f70557b88171435c7ca3a5ef2edfbe837acd81152e2e3fb475bcb7a322a7f",
    ),
    "controlled_job_greedy": (
        "99fba80c96b7526cc6054b17fc4c48e9cff30bcd6f18530bb07f611c4e113cad",
        "93dd2ff27ce87e9b1e3574c25e7d7a52b7ac1c924a7efceef70068a84d124606",
    ),
    "multi_job": (
        "9e0a689ce94e6b5e41c750da6b5e1d5cd34dfc49acc461285a5e977587ce6e64",
        "b837cf6d32a61f7706b6a9452308a7267f92d5decd68fde01df551ba2b0e936c",
    ),
    "ssd_job": (
        "ba39f9db5e74a4b7a292af7f533ebc06a369e1ad86fa9487fb7cc35fa3fc221c",
        "eb752e99cb2ae6cca66c311bda3dc7a3a1ed75e12a8cf294c3a2b79a90be20e8",
    ),
}


def artifact_spec(name):
    if name == "job":
        return golden_spec()
    if name == "faulty_job_light":
        return pinned_spec("faulty_job_cc_ad_light")
    if name == "controlled_job_greedy":
        return ControlledScenario(
            workload="sort", scale=0.05, hosts=2, vms_per_host=2,
            controller="greedy", initial="cc", phase_pairs=("cc", "ad"),
        ).to_spec(seed=0)
    if name == "multi_job":
        # sched.* and tenant.* topics: two overlapping jobs, two tenants.
        return MultiJobScenario(
            workload="sort", scale=0.05, hosts=2, vms_per_host=2,
            scheduler="fair", n_jobs=2, arrival_rate=1.0,
            size_mix=(SizeClass("medium", weight=1.0, bytes_factor=1.0),),
        ).to_spec(seed=0)
    assert name == "ssd_job"
    testbed = scaled_testbed(SORT, scale=0.02, hosts=1, vms_per_host=2,
                             seeds=(0,), storage="ssd")
    return RunSpec(kind="job", seed=0,
                   config=(testbed, Solution.uniform(DEFAULT_PAIR, 2)))


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def only_trace(out_dir):
    """The one file a traced run leaves: its ``.trace.jsonl``."""
    [trace] = out_dir.iterdir()
    assert trace.name.endswith(".trace.jsonl"), trace.name
    return trace


def replayed_snapshot(trace):
    return TraceMetrics().replay(load_jsonl(trace)).registry.snapshot()


@pytest.mark.parametrize("name", sorted(ARTIFACT_PINS))
def test_capture_artifacts_match_pins(clean_capture_env, tmp_path, name):
    capture.enable(tmp_path)
    try:
        execute_spec(artifact_spec(name))
    finally:
        capture.disable()
    trace = only_trace(tmp_path)
    metrics = json.dumps(replayed_snapshot(trace), sort_keys=True, indent=1)
    assert (sha256(trace.read_bytes()), sha256(metrics.encode())) == \
        ARTIFACT_PINS[name], name


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


#: Topic selections that would trace every run to an empty file.
RECORD_NOTHING = [(), ("disk",), ("nope.*",), ("*", "dsk.*")]


def topics_id(topics):
    return ",".join(topics) or "empty"


@pytest.mark.parametrize("topics", RECORD_NOTHING, ids=topics_id)
def test_enable_rejects_topics_that_record_nothing(clean_capture_env,
                                                   tmp_path, topics):
    with pytest.raises(ValueError, match="no trace topics|matches no"):
        capture.enable(tmp_path, topics)
    # Nothing half-enabled: the runs that follow are untraced.
    assert capture.config_from_env() is None


@pytest.mark.parametrize("topics", RECORD_NOTHING, ids=topics_id)
def test_capture_config_rejects_topics_that_record_nothing(topics):
    with pytest.raises(ValueError, match="no trace topics|matches no"):
        capture.CaptureConfig(out_dir="out", topics=topics)


@pytest.mark.parametrize("topics", [("*",), ("disk.*",), ("ctrl.*",),
                                    ("sched.task_assigned",),
                                    ("disk.*", "job.*")], ids=topics_id)
def test_topics_matching_a_registered_topic_pass(clean_capture_env,
                                                 tmp_path, topics):
    assert capture.CaptureConfig(out_dir="out", topics=topics).topics == topics
    capture.enable(tmp_path, topics)
    try:
        assert capture.config_from_env().topics == topics
    finally:
        capture.disable()


def test_cli_rejects_a_topic_pattern_before_any_run(clean_capture_env,
                                                    tmp_path, capsys):
    trace_dir = tmp_path / "traces"
    with pytest.raises(SystemExit) as exit_info:
        main(["fig8", "--seeds", "0", "--no-cache", "--trace-out",
              str(trace_dir), "--trace-topics", "dsk.*,job.*"])
    assert exit_info.value.code == 2
    assert "'dsk.*'" in capsys.readouterr().err
    assert not trace_dir.exists()
    assert capture.config_from_env() is None


def test_an_exported_trace_out_traces_every_run_past_a_warm_cache(
    clean_capture_env, monkeypatch, tmp_path, capsys
):
    # $REPRO_TRACE_OUT is the default of --trace-out, so an exported one
    # also bypasses the cache: a warm second run still simulates (and
    # traces) all three fig8 runs instead of replaying cached payloads.
    # $REPRO_TRACE_TOPICS is likewise the default of --trace-topics.
    for name in ("first", "second"):
        monkeypatch.setenv(capture.ENV_TRACE_OUT, str(tmp_path / name))
        monkeypatch.setenv(capture.ENV_TRACE_TOPICS, "job.*")
        code = main(["fig8", "--scale", "0.05", "--seeds", "0", "--jobs",
                     "1", "--cache-dir", str(tmp_path / "cache")])
        assert code == 0
        out, err = capsys.readouterr()
        assert "simulations executed 3, cache hits 0" in out
        assert "--trace-out bypasses the result cache" in err
        traces = sorted((tmp_path / name).iterdir())
        assert len(traces) == 3
        assert all(t.name.endswith(".trace.jsonl") for t in traces), traces
        for trace in traces:
            topics = {r.topic for r in load_jsonl(trace)}
            assert topics and all(t.startswith("job.") for t in topics)
        assert capture.config_from_env() is None


def test_run_capture_scopes_current_bus(tmp_path):
    cfg = capture.CaptureConfig(out_dir=str(tmp_path))
    assert capture.current_bus() is None
    with capture.RunCapture(cfg, golden_spec()) as cap:
        assert capture.current_bus() is cap.bus
    assert capture.current_bus() is None
    # A run that returned leaves its trace, here an empty one.
    assert only_trace(tmp_path) == cap.trace_path
    assert cap.trace_path.read_bytes() == b""


def test_run_capture_aborts_the_trace_of_a_failed_run(tmp_path, monkeypatch):
    monkeypatch.setattr(spill, "WINDOW", 1)
    cfg = capture.CaptureConfig(out_dir=str(tmp_path))
    with pytest.raises(RuntimeError, match="boom"):
        with capture.RunCapture(cfg, golden_spec()) as cap:
            cap.bus.publish(0.0, "job.start", name="sort")
            # The window of one has spilled the record to the partial file.
            assert [p.suffix for p in tmp_path.iterdir()] == [".partial"]
            raise RuntimeError("boom")
    assert list(tmp_path.iterdir()) == []
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

    # One run, one artifact: the trace, and no metrics file beside it.
    trace = only_trace(tmp_path / "run1")
    # Deterministic artifact naming: kind, seed, spec-key prefix.
    assert trace.name.startswith("job-seed0-")

    records = load_jsonl(trace)
    assert records, "captured trace must not be empty"
    topics = {r.topic for r in records}
    assert {"job.start", "job.done", "disk.submit", "disk.complete"} <= topics

    snapshot = replayed_snapshot(trace)
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
        paths.append(only_trace(tmp_path / name))
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
    trace = only_trace(tmp_path)
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
    trace = only_trace(tmp_path)
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
    trace = only_trace(tmp_path)
    phases = [r for r in load_jsonl(trace) if r.topic == "ctrl.phase"]
    assert [r.time for r in phases] == [d["time"] for d in ctrl["detections"]]
