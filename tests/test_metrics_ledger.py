"""The metrics ledger on the exchange path: pre-bound, single-write.

Every hot-path instrument is resolved once, when metrics are attached,
so a warm exchange records through direct ``counter.inc()`` calls and
never looks a metric up by name (``MetricsRegistry.inc`` / ``observe`` /
``set_gauge``).  Outcomes are booked once, into the labelled
``env.exchange.outcomes`` / ``reasons`` families; the flat
``env.exchange.outcome.*`` / ``reason.*`` totals are derived from them
when the registry is read.
"""

from __future__ import annotations

import pytest

from repro.communication.model import Communicator
from repro.environment.environment import CSCWEnvironment, ExchangeRequest
from repro.environment.registry import AppDescriptor, Q_DIFFERENT_TIME_DIFFERENT_PLACE
from repro.federation import Federation
from repro.information.interchange import FormatConverter, make_common
from repro.obs.instrument import BYTES_BUCKETS, COUNT_BUCKETS, instrument_environment
from repro.obs.metrics import NULL_METRICS, Counter, MetricsRegistry
from repro.org.model import Organisation, Person
from repro.sim.world import World

QUAD = [Q_DIFFERENT_TIME_DIFFERENT_PLACE]


def converter(index: int) -> FormatConverter:
    key = f"fmt{index}"
    return FormatConverter(
        key,
        lambda doc: make_common("note", doc.get(f"{key}-title", ""), doc.get(f"{key}-body", "")),
        lambda common: {f"{key}-title": common["title"], f"{key}-body": common["body"]},
    )


def doc(index: int = 0) -> dict:
    return {f"fmt{index}-title": "minutes", f"fmt{index}-body": "agenda"}


@pytest.fixture
def lookups(monkeypatch):
    """Count every name-keyed registry call while the test runs."""
    seen: list[str] = []
    for method in ("inc", "observe", "set_gauge"):
        original = getattr(MetricsRegistry, method)

        def counting(self, name, *args, _original=original, **kwargs):
            seen.append(name)
            return _original(self, name, *args, **kwargs)

        monkeypatch.setattr(MetricsRegistry, method, counting)
    return seen


@pytest.fixture
def increments(monkeypatch):
    """The name of every counter incremented while the test runs."""
    seen: list[str] = []
    original = Counter.inc

    def counting(self, amount=1):
        seen.append(self.name)
        return original(self, amount)

    monkeypatch.setattr(Counter, "inc", counting)
    return seen


def make_federation(metrics: MetricsRegistry) -> Federation:
    """ana and cid at upc, bob at gmd; two apps with distinct formats."""
    federation = Federation(World(seed=7), metrics=metrics)
    federation.add_domain("upc")
    federation.add_domain("gmd")
    federation.open_policies()
    federation.add_person("ana", "upc")
    federation.add_person("cid", "upc")
    federation.add_person("bob", "gmd")
    for index in (0, 1):
        federation.register_application(
            AppDescriptor(name=f"app{index}", quadrants=QUAD, converter=converter(index)),
            lambda person, document, info: None,
        )
    return federation


def make_env(metrics: MetricsRegistry) -> CSCWEnvironment:
    world = World(seed=3)
    env = CSCWEnvironment.builder().with_world(world).with_metrics(metrics).build()
    for org_id, person_id in (("upc", "ana"), ("gmd", "bob")):
        organisation = Organisation(org_id, org_id.upper())
        organisation.add_person(Person(person_id, person_id.title(), org_id))
        env.knowledge_base.add_organisation(organisation)
        world.network.add_node(f"ws-{person_id}", site=org_id)
        env.register_person(Communicator(person_id, f"ws-{person_id}"))
    env.knowledge_base.policies.declare("upc", "gmd", {"*"}, symmetric=True)
    for index in (0, 1):
        env.register_application(
            AppDescriptor(name=f"app{index}", quadrants=QUAD, converter=converter(index)),
            lambda person, document, info: None,
        )
    return env


def mixed_requests() -> list[ExchangeRequest]:
    """Three deliveries and an unknown receiver."""
    return [
        ExchangeRequest("ana", "bob", "app0", "app1", doc(0)),
        ExchangeRequest("ana", "ghost", "app0", "app1", doc(0)),
        ExchangeRequest("bob", "ana", "app1", "app0", doc(1)),
        ExchangeRequest("ana", "bob", "app0", "app1", doc(0)),
    ]


class TestNoLookupsOnTheWarmPath:
    def test_warm_intra_federated_exchange_looks_nothing_up(self, lookups):
        federation = make_federation(MetricsRegistry())
        request = ExchangeRequest("ana", "cid", "app0", "app1", doc(0))
        assert federation.federated_exchange(request).delivered  # warm-up
        lookups.clear()
        for _ in range(3):
            outcome = federation.federated_exchange(request)
            assert outcome.delivered and not outcome.cross_domain
        assert lookups == []

    def test_warm_cross_domain_relay_looks_up_at_most_four(self, lookups):
        federation = make_federation(MetricsRegistry())
        request = ExchangeRequest("ana", "bob", "app0", "app1", doc(0))
        assert federation.federated_exchange(request).delivered  # warm-up
        lookups.clear()
        outcome = federation.federated_exchange(request)
        assert outcome.delivered and outcome.cross_domain
        assert len(lookups) <= 4, lookups


class TestOneOutcomeWrite:
    @pytest.mark.parametrize("receiver", ["cid", "bob", "ghost"])
    def test_one_family_increment_per_exchange(self, receiver, increments):
        federation = make_federation(MetricsRegistry())
        request = ExchangeRequest("ana", receiver, "app0", "app1", doc(0))
        federation.federated_exchange(request)  # warm-up
        increments.clear()
        federation.federated_exchange(request)
        outcome_writes = [n for n in increments if n.startswith("env.exchange.outcome")]
        reason_writes = [n for n in increments if n.startswith("env.exchange.reason")]
        assert len(outcome_writes) == 1, outcome_writes
        assert outcome_writes[0].startswith("env.exchange.outcomes{")
        assert len(reason_writes) == 1, reason_writes
        assert reason_writes[0].startswith("env.exchange.reasons{")


def family_sums(registry: MetricsRegistry, family: str, by: str) -> dict[str, int]:
    """Children of *family* summed per value of label *by*."""
    instruments = registry.family(family)
    position = instruments.label_names.index(by)
    sums: dict[str, int] = {}
    for key, child in instruments.children().items():
        sums[key[position]] = sums.get(key[position], 0) + child.value
    return sums


class TestDerivedFlatTotals:
    @pytest.mark.parametrize("batched", [False, True])
    def test_flat_totals_equal_family_sums(self, batched):
        registry = MetricsRegistry()
        env = make_env(registry)
        requests = mixed_requests()
        if batched:
            env.exchange_many(requests)
        else:
            for request in requests:
                env.exchange(request)
        counters = registry.snapshot()["counters"]
        outcomes = family_sums(registry, "env.exchange.outcomes", "outcome")
        reasons = family_sums(registry, "env.exchange.reasons", "reason")
        assert outcomes == {"delivered": 3, "failed": 1}
        assert reasons == {"delivered": 3, "unknown-receiver": 1}
        for value, total in outcomes.items():
            assert counters[f"env.exchange.outcome.{value}"] == total
            assert registry.count(f"env.exchange.outcome.{value}") == total
        for value, total in reasons.items():
            assert counters[f"env.exchange.reason.{value}"] == total
        text = registry.render_text().splitlines()
        assert "counter env.exchange.outcome.delivered 3" in text
        assert "counter env.exchange.reason.unknown-receiver 1" in text

    def test_totals_sum_over_domains_sharing_a_registry(self):
        registry = MetricsRegistry()
        federation = make_federation(registry)
        federation.federated_exchange(ExchangeRequest("ana", "cid", "app0", "app1", doc(0)))
        federation.federated_exchange(ExchangeRequest("bob", "ana", "app1", "app0", doc(1)))
        counters = registry.snapshot()["counters"]
        assert counters["env.exchange.outcomes{domain=upc,outcome=delivered}"] == 2
        assert counters["env.exchange.outcome.delivered"] == 2
        assert counters["env.exchange.reason.delivered"] == 2

    def test_flat_names_are_never_written(self, increments):
        env = make_env(MetricsRegistry())
        for request in mixed_requests():
            env.exchange(request)
        env.exchange_many(mixed_requests())
        flat = [
            name for name in increments
            if name.startswith(("env.exchange.outcome.", "env.exchange.reason."))
        ]
        assert flat == []


class TestBindingKeepsBuckets:
    def bounds(self, registry: MetricsRegistry) -> tuple:
        histograms = registry._histograms
        return (
            histograms["env.exchange.document_bytes"].bounds,
            histograms["events.fanout"].bounds,
        )

    def test_builder_wiring(self):
        registry = MetricsRegistry()
        make_env(registry)
        assert self.bounds(registry) == (BYTES_BUCKETS, COUNT_BUCKETS)

    def test_reattach_via_instrument_environment(self):
        registry = MetricsRegistry()
        env = make_env(registry)
        instrument_environment(env, metrics=registry)
        fresh = MetricsRegistry()
        instrument_environment(env, metrics=fresh)
        env.exchange(mixed_requests()[0])
        assert self.bounds(registry) == (BYTES_BUCKETS, COUNT_BUCKETS)
        assert self.bounds(fresh) == (BYTES_BUCKETS, COUNT_BUCKETS)
        assert fresh.snapshot()["histograms"]["env.exchange.document_bytes"]["count"] == 1

    def test_detach_binds_null_children(self):
        registry = MetricsRegistry()
        env = make_env(registry)
        env.exchange(mixed_requests()[0])
        before = registry.snapshot()
        instrument_environment(env, metrics=NULL_METRICS)
        for layer in (env.world.engine, env.bus, env.trader, env.resolution, env.interchange):
            layer.attach_metrics(None)
        assert env._m_delivered is NULL_METRICS.counter("any")
        assert env.bus._m_fanout is NULL_METRICS.histogram("any")
        assert env.resolution._m_route_hit is NULL_METRICS.counter("any")
        for request in mixed_requests():
            env.exchange(request)
        env.exchange_many(mixed_requests())
        assert registry.snapshot() == before
