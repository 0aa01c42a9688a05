"""Tests for the exchange fast path: resolution caches, ``exchange_many``
and the unknown-receiver fail path.

Covers the cache-correctness risk directly: a revoked policy, a person
moving organisation or a new application registering mid-run must all be
visible to the very next exchange (no stale-cache deliveries), and the
cached path must produce field-identical outcomes to the uncached one.
``exchange`` and ``exchange_many`` share one pipeline: they report the
same failure for the same request, and their cost is pinned as a count
of Python calls per warm operation.
"""

from __future__ import annotations

import cProfile
import pstats
from dataclasses import fields

import pytest

from repro.apps.conferencing import ConferencingSystem
from repro.apps.message_system import MessageSystem
from repro.communication.model import Communicator
from repro.environment.environment import (
    REASON_DELIVERED,
    REASON_FIDELITY,
    REASON_MEMBERSHIP,
    REASON_POLICY,
    REASON_UNKNOWN_RECEIVER,
    CSCWEnvironment,
    ExchangeOutcome,
    ExchangeRequest,
)
from repro.environment.registry import AppDescriptor, Q_DIFFERENT_TIME_DIFFERENT_PLACE
from repro.information.interchange import FormatConverter, make_common
from repro.obs import MetricsRegistry, Tracer
from repro.org.model import Organisation, Person
from repro.org.policy import INTERACTION_MESSAGE
from repro.sim.world import World

DOC = {"topic": "ODP", "entry": "will it help?", "author": "ana"}


def make_env(world, *, metrics=None, tracer=None, cache=True):
    builder = CSCWEnvironment.builder().with_world(world).with_resolution_cache(cache)
    if metrics is not None:
        builder = builder.with_metrics(metrics)
    if tracer is not None:
        builder = builder.with_tracer(tracer)
    env = builder.build()
    upc = Organisation("upc", "UPC")
    upc.add_person(Person("ana", "Ana Lopez", "upc"))
    gmd = Organisation("gmd", "GMD")
    gmd.add_person(Person("wolf", "Wolf Prinz", "gmd"))
    env.knowledge_base.add_organisation(upc)
    env.knowledge_base.add_organisation(gmd)
    env.knowledge_base.policies.declare(
        "upc", "gmd", {INTERACTION_MESSAGE, "service-import"}, symmetric=True
    )
    world.add_site("bcn", ["ws-ana"])
    world.add_site("bonn", ["ws-wolf"])
    env.register_person(Communicator("ana", "ws-ana"))
    env.register_person(Communicator("wolf", "ws-wolf"))
    ConferencingSystem().attach(env, exporter_org="upc")
    MessageSystem().attach(env, exporter_org="gmd")
    return env


@pytest.fixture
def env(world):
    return make_env(world)


def outcome_fields(outcome: ExchangeOutcome) -> dict:
    """All outcome fields except the (per-span) trace id."""
    return {
        f.name: getattr(outcome, f.name)
        for f in fields(outcome)
        if f.name != "trace_id"
    }


class TestUnknownReceiver:
    def test_exchange_fails_instead_of_blackholing(self, env):
        outcome = env.exchange("ana", "nobody", "conferencing", "message-system", DOC)
        assert not outcome.delivered
        assert outcome.reason_code == REASON_UNKNOWN_RECEIVER
        assert "no registered communicator" in outcome.reason
        # the silent-blackhole regression: nothing may be queued forever
        assert env.pending_for("nobody") == 0
        assert env.exchanges_failed == 1

    def test_exchange_many_uses_the_same_fail_path(self, env):
        outcomes = env.exchange_many(
            [
                ExchangeRequest("ana", "wolf", "conferencing", "message-system", DOC),
                ExchangeRequest("ana", "nobody", "conferencing", "message-system", DOC),
            ]
        )
        assert outcomes[0].delivered
        assert outcomes[1].reason_code == REASON_UNKNOWN_RECEIVER
        assert env.pending_for("nobody") == 0

    def test_absent_but_registered_receiver_still_queues(self, env):
        env.person_leaves("wolf")
        outcome = env.exchange("ana", "wolf", "conferencing", "message-system", DOC)
        assert outcome.delivered
        assert outcome.mode == "asynchronous"
        assert env.pending_for("wolf") == 1


class TestExchangeMany:
    def test_batch_matches_per_call_loop_field_for_field(self, world):
        loop_env = make_env(world)
        batch_env = make_env(World(seed=0))
        requests = [
            ExchangeRequest("ana", "wolf", "conferencing", "message-system", DOC),
            ExchangeRequest("wolf", "ana", "message-system", "conferencing",
                            {"to": "ana", "subject": "re", "text": "yes"}),
            ExchangeRequest("ana", "ghost", "conferencing", "message-system", DOC),
        ]
        loop_outcomes = [
            loop_env.exchange(r.sender, r.receiver, r.sender_app, r.receiver_app,
                              r.document, r.activity_id, r.profile, r.interaction)
            for r in requests
        ]
        batch_outcomes = batch_env.exchange_many(requests)
        assert [outcome_fields(o) for o in batch_outcomes] == [
            outcome_fields(o) for o in loop_outcomes
        ]

    def test_batch_shares_one_trace_span(self, world):
        tracer = Tracer()
        env = make_env(world, tracer=tracer)
        requests = [
            ExchangeRequest("ana", "wolf", "conferencing", "message-system", DOC)
            for _ in range(4)
        ]
        outcomes = env.exchange_many(requests)
        spans = tracer.finished()
        assert len(spans) == 1
        assert spans[0].name == "env.exchange_many"
        assert spans[0].tags["batch"] == 4
        assert spans[0].tags["delivered"] == 4
        assert {o.trace_id for o in outcomes} == {spans[0].trace_id}

    def test_batch_metrics_equal_per_call_metrics(self, world):
        loop_metrics = MetricsRegistry()
        batch_metrics = MetricsRegistry()
        loop_env = make_env(world, metrics=loop_metrics)
        batch_env = make_env(World(seed=0), metrics=batch_metrics)
        requests = [
            ExchangeRequest("ana", "wolf", "conferencing", "message-system", DOC),
            ExchangeRequest("ana", "nobody", "conferencing", "message-system", DOC),
            ExchangeRequest("wolf", "ana", "message-system", "conferencing",
                            {"to": "ana", "subject": "s", "text": "t"}),
        ]
        for r in requests:
            loop_env.exchange(r.sender, r.receiver, r.sender_app, r.receiver_app,
                              r.document, r.activity_id, r.profile, r.interaction)
        batch_env.exchange_many(requests)
        loop_snapshot = loop_metrics.snapshot()
        batch_snapshot = batch_metrics.snapshot()
        exchange_counters = {
            name: value
            for name, value in loop_snapshot["counters"].items()
            if name.startswith("env.exchange.")
        }
        assert exchange_counters == {
            name: value
            for name, value in batch_snapshot["counters"].items()
            if name.startswith("env.exchange.")
        }
        assert (
            loop_snapshot["histograms"]["env.exchange.document_bytes"]
            == batch_snapshot["histograms"]["env.exchange.document_bytes"]
        )

    def test_empty_batch(self, env):
        assert env.exchange_many([]) == []


class TestResolutionCache:
    def test_repeat_exchanges_hit_the_cache(self, env):
        for _ in range(3):
            env.exchange("ana", "wolf", "conferencing", "message-system", DOC)
        stats = env.resolution.stats()
        assert stats["route_misses"] == 1
        assert stats["route_hits"] == 2
        assert stats["format_misses"] == 1
        assert stats["format_hits"] == 2
        # the underlying policy registry was only consulted once
        assert env.knowledge_base.policies.checks == 1

    def test_cache_counters_exported_when_instrumented(self, world):
        metrics = MetricsRegistry()
        env = make_env(world, metrics=metrics)
        env.exchange("ana", "wolf", "conferencing", "message-system", DOC)
        env.exchange("ana", "wolf", "conferencing", "message-system", DOC)
        counters = metrics.snapshot()["counters"]
        assert counters["env.cache.route.miss"] == 1
        assert counters["env.cache.route.hit"] == 1
        assert counters["env.cache.formats.hit"] == 1
        assert counters["interchange.plan.hit"] == 1

    def test_cached_and_uncached_outcomes_identical(self, world):
        warm = make_env(world)
        cold = make_env(World(seed=0), cache=False)
        for _ in range(2):
            warm_outcome = warm.exchange("ana", "wolf", "conferencing",
                                         "message-system", DOC)
            cold_outcome = cold.exchange("ana", "wolf", "conferencing",
                                         "message-system", DOC)
            assert outcome_fields(warm_outcome) == outcome_fields(cold_outcome)
        assert cold.resolution.stats()["routes_cached"] == 0

    def test_describe_reports_cache_stats(self, env):
        env.exchange("ana", "wolf", "conferencing", "message-system", DOC)
        stats = env.describe()["resolution_cache"]
        assert stats["route_misses"] == 1


class TestCacheInvalidation:
    def test_policy_revoked_mid_run_blocks_next_exchange(self, env):
        assert env.exchange("ana", "wolf", "conferencing", "message-system",
                            DOC).delivered
        env.knowledge_base.policies.revoke("upc", "gmd", symmetric=True)
        outcome = env.exchange("ana", "wolf", "conferencing", "message-system", DOC)
        assert not outcome.delivered
        assert outcome.reason_code == REASON_POLICY
        # exchange_many sees the revocation too
        [batched] = env.exchange_many(
            [ExchangeRequest("ana", "wolf", "conferencing", "message-system", DOC)]
        )
        assert batched.reason_code == REASON_POLICY

    def test_policy_redeclared_mid_run_unblocks(self, env):
        env.knowledge_base.policies.revoke("upc", "gmd", symmetric=True)
        assert not env.exchange("ana", "wolf", "conferencing", "message-system",
                                DOC).delivered
        env.knowledge_base.policies.declare("upc", "gmd", {"*"}, symmetric=True)
        assert env.exchange("ana", "wolf", "conferencing", "message-system",
                            DOC).delivered

    def test_person_moving_organisation_reresolves(self, env):
        # ana and wolf are cross-org: the warm route crosses upc -> gmd.
        assert env.exchange("ana", "wolf", "conferencing", "message-system",
                            DOC).delivered
        assert env.resolution.stats()["routes_cached"] == 1
        # wolf joins upc: the same route is now intra-organisational, so
        # it must keep working even after the upc<->gmd policy vanishes.
        env.knowledge_base.move_person("wolf", "upc")
        env.knowledge_base.policies.revoke("upc", "gmd", symmetric=True)
        outcome = env.exchange("ana", "wolf", "conferencing", "message-system", DOC)
        assert outcome.delivered
        assert "organisation" not in outcome.handled
        assert env.knowledge_base.organisation_of("wolf") == "upc"

    def test_mid_run_person_join_is_visible(self, env):
        outcome = env.exchange("heinz", "wolf", "conferencing", "message-system", DOC)
        # heinz unknown: both orgs resolve to "" (legacy same-org route)
        assert outcome.delivered
        env.knowledge_base.add_person(Person("heinz", "Heinz Berg", "gmd"))
        env.register_person(Communicator("heinz", "ws-wolf"))
        outcome = env.exchange("heinz", "ana", "conferencing", "message-system", DOC)
        assert outcome.delivered
        assert "organisation" in outcome.handled

    def test_app_registration_invalidates_format_pairs(self, env):
        from repro.environment.registry import (
            AppDescriptor,
            Q_DIFFERENT_TIME_DIFFERENT_PLACE,
        )

        env.exchange("ana", "wolf", "conferencing", "message-system", DOC)
        before = env.resolution.stats()["formats_cached"]
        assert before == 1
        env.applications.register(
            AppDescriptor(name="late-app",
                          quadrants=[Q_DIFFERENT_TIME_DIFFERENT_PLACE]),
            lambda person, document, info: None,
        )
        stats = env.resolution.stats()
        assert stats["formats_cached"] == 0
        assert stats["invalidations"] >= 1
        # and the pair re-resolves correctly afterwards
        assert env.exchange("ana", "wolf", "conferencing", "message-system",
                            DOC).delivered


class TestInterchangePlanCache:
    def test_repeated_pair_uses_plan(self, env):
        env.exchange("ana", "wolf", "conferencing", "message-system", DOC)
        env.exchange("ana", "wolf", "conferencing", "message-system", DOC)
        assert env.interchange.plan_misses == 1
        assert env.interchange.plan_hits == 1

    def test_register_unrelated_preserves_plans(self, env):
        # Keyed invalidation: a registration that no cached plan uses
        # must not evict anything (PR 7's tag-eviction discipline).
        from repro.information.interchange import FormatConverter, make_common

        env.exchange("ana", "wolf", "conferencing", "message-system", DOC)
        env.interchange.register(
            FormatConverter(
                "fresh",
                lambda d: make_common("note", d.get("t", ""), d.get("b", "")),
                lambda c: {"t": c["title"], "b": c["body"]},
            )
        )
        env.exchange("ana", "wolf", "conferencing", "message-system", DOC)
        assert env.interchange.plan_misses == 1
        assert env.interchange.plan_hits == 1
        assert env.interchange.plan_evictions == 0

    def test_replace_invalidates_affected_plans(self, env):
        from repro.information.interchange import FormatConverter, make_common

        env.exchange("ana", "wolf", "conferencing", "message-system", DOC)
        env.interchange.register(
            FormatConverter(
                "conference",
                lambda d: make_common(
                    "conference", d.get("topic", ""), d.get("entry", "")
                ),
                lambda c: {"topic": c["title"], "entry": c["body"]},
            ),
            replace=True,
        )
        env.exchange("ana", "wolf", "conferencing", "message-system", DOC)
        assert env.interchange.plan_misses == 2
        assert env.interchange.plan_evictions >= 1

    def test_translation_results_unchanged_by_plan_cache(self, env):
        first = env.interchange.translate("conference", "memo",
                                          {"topic": "t", "entry": "e", "author": "a"})
        second = env.interchange.translate("conference", "memo",
                                           {"topic": "t", "entry": "e", "author": "a"})
        assert first == second


def register_app(env, name, on_deliver=None, fidelity=1.0):
    """An app speaking its own format *name* (mapped into the common form
    with the given *fidelity*)."""
    converter = FormatConverter(
        name,
        lambda document: make_common("note", document.get("title", ""), ""),
        lambda common: {"title": common["title"]},
        fidelity=fidelity,
    )
    env.register_application(
        AppDescriptor(
            name=name, quadrants=[Q_DIFFERENT_TIME_DIFFERENT_PLACE], converter=converter
        ),
        on_deliver or (lambda person, document, info: None),
    )


class TestOnePipeline:
    """``exchange`` and ``exchange_many`` report the same outcome, in the
    same check order, for the same request."""

    def test_translation_is_checked_before_the_receiver_endpoint(self, env):
        # wolf stays known to the KB but loses his communicator; the
        # lossy plan (fidelity 0.8) misses a 0.9 floor.  The translation
        # stage runs before the receiver lookup, in both entry points.
        register_app(env, "scanner", fidelity=0.8)
        env.deregister_person("wolf")
        request = ExchangeRequest(
            "ana", "wolf", "scanner", "message-system", {"title": "scan"},
            min_fidelity=0.9,
        )
        single = env.exchange(request)
        [batched] = env.exchange_many([request])
        assert single.reason_code == REASON_FIDELITY
        assert batched.reason_code == REASON_FIDELITY
        assert outcome_fields(batched) == outcome_fields(single)

    def test_receiver_endpoint_is_read_per_item(self, env):
        # a bus subscriber removes wolf's endpoint while the first
        # exchange is delivered; the knowledge base does not change
        env.bus.subscribe("exchange", lambda event: env.deregister_person("wolf"))
        request = ExchangeRequest("ana", "wolf", "conferencing", "message-system", DOC)
        expected = [REASON_DELIVERED, REASON_UNKNOWN_RECEIVER, REASON_UNKNOWN_RECEIVER]
        assert [env.exchange(request).reason_code for _ in range(3)] == expected
        env.register_person(Communicator("wolf", "ws-wolf"))
        assert [o.reason_code for o in env.exchange_many([request] * 3)] == expected

    def test_membership_is_rechecked_after_each_delivery(self, env):
        activity = env.create_activity("review", "review", {"ana": "chair", "wolf": "member"})

        def leave_on_delivery(person, document, info):
            if activity.is_member(person):
                activity.leave(person)

        register_app(env, "minutes", on_deliver=leave_on_delivery)
        request = ExchangeRequest(
            "ana", "wolf", "minutes", "minutes", {"title": "t"}, activity_id="review"
        )
        expected = [REASON_DELIVERED, REASON_MEMBERSHIP, REASON_MEMBERSHIP]
        assert [env.exchange(request).reason_code for _ in range(3)] == expected
        activity.join("wolf")
        assert [o.reason_code for o in env.exchange_many([request] * 3)] == expected
        assert env.exchanges_attempted == 6
        assert env.exchanges_failed == 4


def total_calls(operation, warm_up: int, repeats: int) -> int:
    """Python and builtin calls over *repeats* runs of *operation*, after
    *warm_up* unprofiled runs, as counted by cProfile.

    The raw per-function entries are summed: ``pstats`` keys functions
    by (file, line, name), so the generated ``__init__`` of different
    dataclasses (all ``<string>:2``) collide there and all but one drop
    out of ``Stats.total_calls`` — which one depends on memory layout.
    """
    for _ in range(warm_up):
        operation()
    profile = cProfile.Profile()
    profile.enable()
    for _ in range(repeats):
        operation()
    profile.disable()
    # less the one call of ``disable`` itself
    return sum(entry.callcount for entry in profile.getstats()) - 1


class TestCallCounts:
    """The pipeline's cost as a count of calls per warm operation.

    Counts are deterministic (the tracer's sampling is seeded), so these
    are exact ceilings, not timings.  They are the counts of the two
    separate code paths the pipeline replaced, rounded up: a run of one
    must cost no more than the old per-request path, and a 32-item run
    no more per item than the old batched path.  Each operation includes
    the one call of the lambda that drives it.
    """

    CEILINGS = {
        # (observed, operation): calls per exchange
        (True, "exchange"): 105.4,
        (True, "same-document run"): 42.7,
        (True, "distinct-document run"): 65.0,
        (False, "exchange"): 71.0,
        (False, "same-document run"): 32.6,
        (False, "distinct-document run"): 53.9,
    }

    @pytest.mark.parametrize("observed, operation", sorted(CEILINGS))
    def test_calls_per_exchange(self, observed, operation):
        if observed:
            env = make_env(
                World(seed=0),
                metrics=MetricsRegistry(),
                tracer=Tracer().configure_sampling(0.1, seed=0),
            )
        else:
            env = make_env(World(seed=0))
        request = ExchangeRequest("ana", "wolf", "conferencing", "message-system", DOC)
        if operation == "exchange":
            calls = total_calls(lambda: env.exchange(request), 200, 2000) / 2000
        else:
            if operation == "same-document run":
                run = [request] * 32
            else:
                run = [
                    ExchangeRequest("ana", "wolf", "conferencing", "message-system", dict(DOC))
                    for _ in range(32)
                ]
            calls = total_calls(lambda: env.exchange_many(run), 200, 200) / (200 * 32)
        assert calls <= self.CEILINGS[observed, operation], calls
