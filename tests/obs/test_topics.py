"""The trace-topic registry is the single source of truth."""

from repro.obs import topics
from repro.sim.tracing import known_topics


def test_registry_is_deduplicated_and_nonempty():
    assert len(topics.TOPIC_NAMES) == len(topics.REGISTERED_TOPICS) >= 20
    assert all(spec.name and spec.doc for spec in topics.TOPICS)


def test_sim_layer_sees_the_same_registry_lazily():
    assert known_topics() == topics.REGISTERED_TOPICS


def test_is_registered():
    assert topics.is_registered("disk.complete")
    assert not topics.is_registered("disk.nope")


def test_matching_mirrors_trace_bus_glob_semantics():
    assert topics.matching("*") == topics.TOPIC_NAMES
    disk = topics.matching("disk.*")
    assert set(disk) == {"disk.submit", "disk.complete", "disk.service",
                         "disk.switched"}
    assert topics.matching("job.done") == ("job.done",)
    assert topics.matching("job.nope") == ()
    assert topics.matching("nope.*") == ()


def test_every_family_prefix_is_consistent():
    # Registry names are all "family.event" shaped — what record_topic
    # globs and the metrics bridge assume.
    for name in topics.TOPIC_NAMES:
        family, _, event = name.partition(".")
        assert family and event, name
