"""The communication log's row writer and the bus's lazy events.

The environment appends each delivered exchange to its
:class:`CommunicationLog` as a plain row and the log builds
:class:`Exchange` records on first read.  These tests pin the contract:
every reader sees the same records, field by field and in order, as if
each exchange had been recorded directly; reads return cached objects;
a warm exchange retains no GC-tracked object; and an
:class:`EventBus` publish nobody subscribes to builds no
:class:`Event`.
"""

from __future__ import annotations

import gc
import tracemalloc
from dataclasses import asdict

import pytest

from repro.activity.model import Activity
from repro.analysis.communication import (
    activity_breakdown,
    cross_organisation_flows,
    reciprocity,
    summarize,
    top_talkers,
)
from repro.communication.model import CommunicationContext, CommunicationLog, Exchange
from repro.environment.environment import ExchangeRequest
from repro.obs.instrument import COUNT_BUCKETS
from repro.obs.metrics import MetricsRegistry
from repro.sim.world import World
from repro.util import events as events_module
from repro.util.events import Event, EventBus, EventRecorder

from tests.test_federation import DOC, make_federation

OTHER = {"fmt0-title": "budget", "fmt0-body": "draft two"}


def mixed_history() -> tuple[CommunicationLog, list[Exchange]]:
    """Drive every writer into one domain's log; return the log and the
    expected records, in order.

    Writers: per-request ``exchange``, ``exchange_many`` over repeated
    and distinct documents, a relayed ``federated_exchange`` and direct
    ``record`` calls, in sync and async modes, with and without an
    activity, and with reads interleaved.
    """
    world = World(seed=42)
    federation, _ = make_federation(world)
    federation.add_person("carl", "gmd", name="Carl Weber")
    env = federation.domain("gmd").env
    env.activities.create(Activity("act-1", "budget review"))
    for person in ("carl", "bob"):
        env.activities.get("act-1").join(person)
    log = env.communication_log
    expected: list[Exchange] = []

    def expect(sender, receiver, outcome, time, activity="", from_org="gmd", to_org="gmd"):
        assert outcome.delivered, outcome
        expected.append(
            Exchange(
                sender, receiver, outcome.mode, "document", outcome.size_bytes, time,
                CommunicationContext(activity=activity, from_org=from_org, to_org=to_org),
            )
        )

    outcome = env.exchange(ExchangeRequest("carl", "bob", "app0", "app1", DOC))
    expect("carl", "bob", outcome, world.now)
    assert log.all() == expected  # read between writes

    batch = [
        ExchangeRequest("carl", "bob", "app0", "app1", DOC),
        ExchangeRequest("carl", "bob", "app0", "app1", DOC),
        ExchangeRequest("carl", "bob", "app0", "app1", OTHER),
        ExchangeRequest("bob", "carl", "app1", "app1", {"fmt1-title": "re"}),
        ExchangeRequest("carl", "bob", "app0", "app1", OTHER, activity_id="act-1"),
    ]
    for request, outcome in zip(batch, env.exchange_many(batch)):
        expect(request.sender, request.receiver, outcome, world.now, request.activity_id)

    relayed = federation.federated_exchange("ana", "bob", "app0", "app1", DOC)
    [deliver] = [hop for hop in relayed.hops if hop.role == "deliver"]
    expect("ana", "bob", relayed.outcome, deliver.time, from_org="upc")
    assert len(log.by_mode("synchronous")) == len(expected)  # read between writes

    direct = Exchange("bob", "carl", "synchronous", "text", 7, world.now,
                      CommunicationContext(activity="act-1", purpose="chat"))
    log.record(direct)
    expected.append(direct)

    env.communicators.set_presence("bob", False)
    outcome = env.exchange(
        ExchangeRequest("carl", "bob", "app0", "app1", OTHER, activity_id="act-1")
    )
    expect("carl", "bob", outcome, world.now, "act-1")
    for request, outcome in zip(batch[:3], env.exchange_many(batch[:3])):
        expect(request.sender, request.receiver, outcome, world.now)
    assert {e.mode for e in expected} == {"synchronous", "asynchronous"}

    log.record(direct)
    expected.append(direct)
    return log, expected


def reference_log(expected: list[Exchange]) -> CommunicationLog:
    """The same history, every exchange recorded directly."""
    reference = CommunicationLog()
    for exchange in expected:
        reference.record(exchange)
    return reference


class TestLogParity:
    def test_every_writer_reads_back_field_by_field_in_order(self):
        log, expected = mixed_history()
        records = log.all()
        assert [asdict(e) for e in records] == [asdict(e) for e in expected]
        assert len(records) == 13

    def test_structural_queries_match(self):
        log, expected = mixed_history()
        reference = reference_log(expected)
        assert log.between("bob", "carl") == reference.between("bob", "carl")
        assert log.by_mode("asynchronous") == reference.by_mode("asynchronous")
        assert log.in_activity("act-1") == reference.in_activity("act-1")
        assert log.traffic_matrix() == reference.traffic_matrix()
        assert list(log.traffic_matrix()) == list(reference.traffic_matrix())
        assert log.volume_bytes() == reference.volume_bytes()

    def test_analysis_summaries_match(self):
        log, expected = mixed_history()
        reference = reference_log(expected)
        assert summarize(log) == summarize(reference)
        assert top_talkers(log) == top_talkers(reference)
        assert cross_organisation_flows(log) == cross_organisation_flows(reference)
        assert activity_breakdown(log) == activity_breakdown(reference)
        assert reciprocity(log) == reciprocity(reference)

    def test_reads_return_the_cached_records(self):
        log, _ = mixed_history()
        first, second = log.all(), log.all()
        assert first is not second
        assert all(a is b for a, b in zip(first, second, strict=True))
        assert log.between("carl", "bob")[0] is first[0]
        # rows with one setting share one frozen context
        intra = [e for e in first if e.context == CommunicationContext("", "", "gmd", "gmd")]
        assert len(intra) > 1
        assert len({id(e.context) for e in intra}) == 1

    def test_append_defaults_to_an_empty_context(self):
        log = CommunicationLog()
        log.append("a", "b", "synchronous", "text", 10, 1.0)
        [exchange] = log.all()
        assert exchange == Exchange("a", "b", "synchronous", "text", 10, 1.0)


class TestRetention:
    """A warm intra exchange must not leave per-exchange objects behind."""

    EXCHANGES = 1_800

    def test_warm_exchange_retains_no_tracked_object(self):
        world = World(seed=42)
        federation, inboxes = make_federation(world)
        federation.add_person("carl", "upc", name="Carl Weber")
        request = ExchangeRequest("ana", "carl", "app0", "app1", DOC)
        for _ in range(200):  # warm every cache
            assert federation.federated_exchange(request).delivered
        inboxes["app1"].clear()
        gc.collect()
        tracked_before = len(gc.get_objects())
        tracemalloc.start()
        try:
            gc.collect()
            bytes_before = tracemalloc.get_traced_memory()[0]
            for _ in range(self.EXCHANGES):
                federation.federated_exchange(request)
            inboxes["app1"].clear()  # the receiving app consumed its deliveries
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - bytes_before
        finally:
            tracemalloc.stop()
        gc.collect()
        tracked_growth = len(gc.get_objects()) - tracked_before
        assert tracked_growth / self.EXCHANGES < 0.01, tracked_growth
        assert retained / self.EXCHANGES <= 160, retained / self.EXCHANGES
        # the history is still all there once somebody reads it
        log = federation.domain("upc").env.communication_log
        assert len(log.all()) == 200 + self.EXCHANGES


class TestBusBuildsEventsOnlyForSubscribers:
    @pytest.fixture
    def no_event_construction(self, monkeypatch):
        def refuse(**fields):
            raise AssertionError(f"Event built for an unheard publish: {fields}")

        monkeypatch.setattr(events_module, "Event", refuse)

    def test_unheard_publish_still_counts(self, no_event_construction):
        registry = MetricsRegistry()
        bus = EventBus()
        bus.attach_metrics(registry)
        bus.subscribe("chat", EventRecorder())  # a subscription that never matches
        assert bus.publish("exchange", {"n": 1}) == 0
        bare = EventBus()
        bare.attach_metrics(registry)
        assert bare.publish("exchange", {"n": 2}) == 0
        assert bus.published_count == bare.published_count == 1
        assert bus.delivered_count == bare.delivered_count == 0
        assert registry.count("events.published") == 2
        assert registry.count("events.delivered") == 0
        fanout = registry.histogram("events.fanout", buckets=COUNT_BUCKETS)
        assert (fanout.count, fanout.total) == (2, 0.0)

    def test_subscriber_receives_the_same_event(self):
        registry = MetricsRegistry()
        bus = EventBus()
        bus.attach_metrics(registry)
        bus.bind_clock(lambda: 4.5)
        first, second = EventRecorder(), EventRecorder()
        bus.subscribe("activity", first)
        bus.subscribe("activity/act-1", second)
        assert bus.publish("activity/act-1/exchange", {"n": 1}, source="app0") == 2
        assert bus.publish("activity/act-2", "x", time=9.0) == 1
        assert first.events == [
            Event("activity/act-1/exchange", {"n": 1}, "app0", 4.5),
            Event("activity/act-2", "x", "", 9.0),
        ]
        assert second.events[0] is first.events[0]  # one event per publish
        assert registry.count("events.delivered") == 3
        fanout = registry.histogram("events.fanout", buckets=COUNT_BUCKETS)
        assert (fanout.count, fanout.total) == (2, 3.0)
