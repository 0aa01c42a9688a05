"""The federation coordinator: N domains, one engine, explicit boundaries.

This module composes the library's single-node primitives —
``NamingDomain.federate``, trader links, directory
:class:`~repro.directory.replication.ShadowingAgreement`, MTAs — into a
running multi-domain CSCW system: the "open distributed system" shape
the paper says open CSCW must take (organisation transparency across
administrative boundaries, not just inside one environment).

A :class:`Federation` owns a set of :class:`~repro.federation.domain.Domain`
objects on one shared :class:`~repro.sim.world.World` and keeps them
wired pairwise:

* **naming** — every domain's :class:`~repro.odp.naming.NamingDomain`
  federates with every peer, so ``people/ana`` resolves from anywhere as
  ``<home>:/people/ana``; the federation's home-domain lookups go through
  this federated naming and are memoised (invalidated on moves),
* **trading** — every env trader links to every peer trader, so an
  import that finds no local offer falls back over the links while each
  side's organisational import policy still applies,
* **directory** — each domain's DSA holds a shadowing agreement against
  every peer DSA (created unstarted; :meth:`start_shadowing` arms them),
* **messaging** — MTAs peer and route each other's X.400 domains,
* **gateways** — a directed :class:`~repro.federation.gateway.Gateway`
  per ordered pair relays exchange payloads over a configurable
  inter-domain link.

The headline operation is :meth:`federated_exchange`: resolve the
receiver's home domain via federated naming, run the origin-side checks
against the local environment, relay through the gateway, and reuse the
unmodified local exchange pipeline at the target — so a federated
outcome carries exactly the reason codes a single-domain
``CSCWEnvironment.exchange`` would produce, plus hop metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any

from repro.communication.model import Communicator
from repro.environment.environment import (
    REASON_DEADLINE_EXCEEDED,
    REASON_UNKNOWN_RECEIVER,
    CSCWEnvironment,
    ExchangeOutcome,
    ExchangeRequest,
)
from repro.environment.registry import AppDescriptor, DeliveryCallback
from repro.directory.replication import ShadowingAgreement
from repro.federation.domain import Domain
from repro.federation.gateway import (
    REASON_RELAY_DEADLINE,
    DeadLetter,
    Gateway,
)
from repro.obs.context import TRACE_KEY, TraceContext
from repro.obs.events import NULL_EVENTS, EventLog
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.tracing import NULL_TRACER, Span, Tracer
from repro.odp.binding import BindingFactory
from repro.odp.objects import InterfaceRef
from repro.org.model import Organisation, Person
from repro.org.policy import INTERACTION_MESSAGE
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.health import HealthMonitor
from repro.sim.network import LinkSpec, WAN_LINK
from repro.sim.transport import DeferredReply
from repro.sim.world import World
from repro.util.errors import (
    ConfigurationError,
    InteropError,
    NameError_,
    NotRegisteredError,
    UnknownObjectError,
)

if TYPE_CHECKING:  # imported lazily at runtime to keep layering acyclic
    from repro.control.plane import ControlPlane, ControlPolicy
    from repro.obs.slo import SLOEngine

#: a federated exchange whose relay exhausted its gateway attempts
REASON_GATEWAY_DEAD_LETTER = "gateway-dead-letter"

#: outcome fields shipped over the gateway — trace_id included, so the
#: origin's reconstructed outcome stays correlated with the trace the
#: target pipeline actually ran under
_OUTCOME_FIELDS = (
    "delivered", "mode", "reason", "translated",
    "fidelity", "handled", "reason_code", "size_bytes", "trace_id",
)


@dataclass(frozen=True, slots=True)
class Hop:
    """One step in a federated exchange's path, stamped in simulated time."""

    domain: str
    role: str  # "local" | "origin" | "deliver" | "reply"
    time: float


@dataclass(frozen=True, slots=True)
class FederatedOutcome:
    """A cross-domain exchange outcome with its hop metadata.

    ``outcome`` is a plain :class:`ExchangeOutcome` with field parity to
    the single-domain exchange path (same reason codes on the same
    failure classes); the federation adds where the exchange ran
    (``origin``/``target``), the hops it took, how many gateway attempts
    the relay needed and the end-to-end simulated latency.
    """

    outcome: ExchangeOutcome
    origin: str
    target: str
    hops: tuple[Hop, ...] = ()
    attempts: int = 1
    latency_s: float = 0.0

    @property
    def delivered(self) -> bool:
        """Whether the document reached the receiving application."""
        return self.outcome.delivered

    @property
    def mode(self) -> str:
        """Delivery mode of the underlying exchange."""
        return self.outcome.mode

    @property
    def reason_code(self) -> str:
        """Structured reason code of the underlying exchange."""
        return self.outcome.reason_code

    @property
    def cross_domain(self) -> bool:
        """True when the exchange crossed a domain boundary."""
        return self.origin != self.target


def _same_wire_shape(a: ExchangeRequest, b: ExchangeRequest) -> bool:
    """True when two requests serialize identically except their payload
    document — the batch relay then reuses one envelope wire form."""
    return (
        a.sender == b.sender
        and a.receiver == b.receiver
        and a.sender_app == b.sender_app
        and a.receiver_app == b.receiver_app
        and a.activity_id == b.activity_id
        and a.profile == b.profile
        and a.interaction == b.interaction
        and a.deadline == b.deadline
        and a.priority == b.priority
        and a.shed_class == b.shed_class
        and a.min_fidelity == b.min_fidelity
    )


def _outcome_document(outcome: ExchangeOutcome) -> dict[str, Any]:
    """The gateway wire form of an outcome."""
    document = {name: getattr(outcome, name) for name in _OUTCOME_FIELDS}
    document["handled"] = list(outcome.handled)
    return document


def _outcome_from_document(
    document: dict[str, Any], trace_id: str = ""
) -> ExchangeOutcome:
    """Rebuild an outcome at the origin.

    The wire document carries the trace id the target pipeline ran
    under; with trace propagation that *is* the origin's trace.
    *trace_id* is only a fallback for documents from older/untraced
    remotes.
    """
    fields = dict(document)
    fields["handled"] = tuple(fields.get("handled", ()))
    if not fields.get("trace_id"):
        fields["trace_id"] = trace_id
    return ExchangeOutcome(**fields)


class Federation:
    """N administrative domains on one sim engine, fully cross-wired."""

    def __init__(
        self,
        world: World,
        name: str = "federation",
        *,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        events: EventLog | None = None,
        link: LinkSpec = WAN_LINK,
        gateway_retry_s: float = 0.5,
        gateway_attempts: int = 4,
        gateway_backoff: float = 2.0,
        shadow_period_s: float = 30.0,
        resilience: bool = True,
        breaker_threshold: int = 4,
        breaker_cooldown_s: float = 30.0,
        shed_limit: int | None = None,
        default_deadline_s: float | None = None,
        shards: int | None = None,
        mediation: bool = False,
    ) -> None:
        self.world = world
        self.name = name
        self._metrics = metrics if metrics is not None else NULL_METRICS
        self._env_metrics = metrics
        self._bind_metrics()
        self._tracer = tracer
        #: the federation's own span handle (never None; NULL_TRACER no-ops)
        self._trace: Tracer = tracer if tracer is not None else NULL_TRACER
        self._events: EventLog = events if events is not None else NULL_EVENTS
        self._link = link
        self._gateway_retry_s = gateway_retry_s
        self._gateway_attempts = gateway_attempts
        self._gateway_backoff = gateway_backoff
        self._shadow_period_s = shadow_period_s
        #: resilience=False reverts to bare retry gateways: no breakers,
        #: no failover routing (the bench's "retry-only" baseline)
        self._resilience = resilience
        self._breaker_threshold = breaker_threshold
        self._breaker_cooldown_s = breaker_cooldown_s
        self._shed_limit = shed_limit
        self._default_deadline_s = default_deadline_s
        self._shards = shards
        #: mediation=True builds every domain with_mediation(): relayed
        #: exchanges then carry the origin's synthesized plan metadata
        self._mediation = mediation
        self._health: HealthMonitor | None = None
        self._health_timeout_s = 1.0
        self._domains: dict[str, Domain] = {}
        #: memoised person -> home-domain name (resolved via federated
        #: naming on miss; invalidated by add/move)
        self._home_cache: dict[str, str] = {}
        #: freshness token for home resolution, bumped by add/move —
        #: ``federated_exchange_many`` watches it so a delivery callback
        #: that re-homes someone mid-batch forces the already-resolved
        #: routes of the remaining items to be re-derived (the federated
        #: mirror of the resolution cache's ``generation``)
        self._home_generation = 0
        self._binding_factory = BindingFactory(world.network)
        #: (consumer, master) -> shadowing agreement (created unstarted)
        self.shadowing: dict[tuple[str, str], ShadowingAgreement] = {}
        self._shadowing_started = False
        #: adaptive control plane (attached via :meth:`attach_control`)
        self.control: "ControlPlane | None" = None

    def _bind_metrics(self) -> None:
        """Resolve the federation's instruments once, so the exchange
        path records with a direct ``inc()`` instead of a lookup by
        metric name (null instruments when metrics are off)."""
        obs = self._metrics
        self._m_home_hit = obs.counter("env.federation.home.hit")
        self._m_home_miss = obs.counter("env.federation.home.miss")
        self._m_moves = obs.counter("env.federation.moves")
        self._m_exchanges = obs.counter("env.federation.exchanges")
        self._m_remote = obs.counter("env.federation.remote")
        self._m_local = obs.counter("env.federation.local")
        self._m_expired = obs.counter("env.federation.expired")
        self._m_unknown_receiver = obs.counter("env.federation.unknown_receiver")
        self._m_failover = obs.counter("env.federation.failover")
        self._m_dead_letters = obs.counter("env.federation.dead_letters")
        self._m_delivered = obs.counter("env.federation.delivered")
        self._m_forwarded = obs.counter("env.federation.forwarded")
        self._m_inbound = obs.counter("gateway.inbound")
        self._m_deduplicated = obs.counter("gateway.deduplicated")
        self._m_plan_relayed = obs.counter("mediation.plan.relayed")
        self._m_relay_latency = obs.histogram("env.federation.relay_latency_s")
        self._m_domains = obs.gauge("env.federation.domains")

    @classmethod
    def partition(
        cls,
        world: World,
        assignment: dict[str, list[str]],
        name: str = "federation",
        **options: Any,
    ) -> "Federation":
        """Partition a world's population across domains in one call.

        *assignment* maps domain name -> the person ids homed there;
        extra keyword options go to the constructor.  Policies between
        all domain pairs are opened for messages and service imports
        (tighten afterwards with :meth:`declare_policy`).
        """
        federation = cls(world, name=name, **options)
        for domain_name in assignment:
            federation.add_domain(domain_name)
        federation.open_policies()
        for domain_name, people in assignment.items():
            for person_id in people:
                federation.add_person(person_id, domain_name)
        return federation

    # -- topology ----------------------------------------------------------
    def add_domain(self, name: str) -> Domain:
        """Create a domain and wire it to every existing domain."""
        if name in self._domains:
            raise ConfigurationError(f"domain {name!r} already exists in {self.name!r}")
        domain = Domain(
            self.world,
            name,
            metrics=self._env_metrics,
            tracer=self._tracer,
            events=self._events if self._events.enabled else None,
            shed_limit=self._shed_limit,
            default_deadline_s=self._default_deadline_s,
            shards=self._shards,
            mediation=self._mediation,
        )
        domain.gateway_rpc.serve(
            "relay", lambda payload, d=domain: self._handle_relay(d, payload)
        )
        domain.gateway_rpc.serve(
            "ping", lambda body, d=domain: {"domain": d.name, "at": self.world.now}
        )
        self._binding_factory.register_capsule(domain.capsule)
        # Every KB knows every organisation, so org/policy verdicts agree
        # at both ends of a relay (the KB-level shadowing contract).
        domain.env.knowledge_base.add_organisation(Organisation(name, name.upper()))
        for peer in self._domains.values():
            domain.env.knowledge_base.add_organisation(
                Organisation(peer.name, peer.name.upper())
            )
            peer.env.knowledge_base.add_organisation(Organisation(name, name.upper()))
            for person_id in peer.people:
                person = peer.env.knowledge_base.find_person(person_id)
                domain.env.knowledge_base.add_person(
                    Person(person_id, person.name, peer.name)
                )
            self._wire_pair(domain, peer)
        self._domains[name] = domain
        if self._metrics.enabled:
            self._m_domains.set(len(self._domains))
        return domain

    def _wire_pair(self, a: Domain, b: Domain) -> None:
        """Symmetric wiring between two domains (naming, trade, mail,
        directory shadowing, gateway link + relays)."""
        a.naming.federate(b.naming)
        b.naming.federate(a.naming)
        a.trader.link(b.trader, link_name=b.name)
        b.trader.link(a.trader, link_name=a.name)
        a.mta.add_peer(b.mta.name, b.node)
        b.mta.add_peer(a.mta.name, a.node)
        a.mta.routing.add_route("*", "*", b.name, b.mta.name)
        b.mta.routing.add_route("*", "*", a.name, a.mta.name)
        self.world.network.set_link(a.node, b.node, self._link)
        for source, target in ((a, b), (b, a)):
            source.gateways[target.name] = Gateway(
                source.gateway_rpc,
                source.name,
                target.name,
                target.node,
                retry_s=self._gateway_retry_s,
                max_attempts=self._gateway_attempts,
                backoff=self._gateway_backoff,
                metrics=self._env_metrics,
                breaker=self._make_breaker(f"gw:{source.name}->{target.name}"),
                tracer=self._tracer,
                events=self._events if self._events.enabled else None,
            )
            self.shadowing[(source.name, target.name)] = ShadowingAgreement(
                self.world,
                self._binding_factory,
                source.dsa,
                source.node,
                target.directory_ref,
                period_s=self._shadow_period_s,
                metrics=self._env_metrics,
                breaker=self._make_breaker(
                    f"shadow:{source.name}<-{target.name}"
                ),
                events=self._events if self._events.enabled else None,
            )
            if self._health is not None:
                self._watch_pair(source, target)

    def _make_breaker(self, name: str) -> CircuitBreaker | None:
        """A circuit breaker for one directed dependency (None when the
        federation runs in retry-only mode)."""
        if not self._resilience:
            return None
        return CircuitBreaker(
            self.world.engine,
            name=name,
            failure_threshold=self._breaker_threshold,
            cooldown_s=self._breaker_cooldown_s,
            metrics=self._env_metrics,
            events=self._events if self._events.enabled else None,
        )

    def domain(self, name: str) -> Domain:
        """Look up a domain by name."""
        try:
            return self._domains[name]
        except KeyError:
            raise UnknownObjectError(f"unknown domain {name!r}") from None

    def domains(self) -> list[Domain]:
        """All domains, in creation order."""
        return list(self._domains.values())

    def set_pair_link(self, a: str, b: str, link: LinkSpec) -> None:
        """Override the (symmetric) inter-domain link for one pair."""
        self.world.network.set_link(self.domain(a).node, self.domain(b).node, link)

    # -- directory shadowing ------------------------------------------------
    def publish_directories(self) -> int:
        """Publish each domain's KB into its own DSA; return entries created."""
        return sum(
            d.env.knowledge_base.publish_to_directory(d.dsa.dit)
            for d in self._domains.values()
        )

    def start_shadowing(self) -> None:
        """Arm every DSA shadowing agreement (periodic pulls begin).

        Started agreements keep the engine's queue non-empty; prefer
        ``world.run_for`` over ``world.run`` while they are live.
        """
        if self._shadowing_started:
            return
        for agreement in self.shadowing.values():
            agreement.start()
        self._shadowing_started = True

    def stop_shadowing(self) -> None:
        """Stop every shadowing agreement's periodic pulls."""
        for agreement in self.shadowing.values():
            agreement.stop()
        self._shadowing_started = False

    # -- gateway health checks ----------------------------------------------
    def start_health_checks(
        self, period_s: float = 5.0, timeout_s: float = 1.0
    ) -> HealthMonitor:
        """Probe every directed gateway link periodically (opt-in).

        Each probe is a tiny ``ping`` RPC from the source domain's
        gateway node to the target's; outcomes feed the pair's circuit
        breaker, so a dead link is discovered (breaker tripped, failover
        engaged) and its recovery noticed (breaker reclosed) without a
        real relay having to burn its retry budget first.  Like
        shadowing, running probes keep the engine queue non-empty —
        prefer ``world.run_for`` over ``world.run`` while they are live.
        """
        if self._health is not None:
            return self._health
        self._health = HealthMonitor(
            self.world.engine,
            period_s=period_s,
            metrics=self._env_metrics,
            events=self._events if self._events.enabled else None,
        )
        self._health_timeout_s = timeout_s
        domains = list(self._domains.values())
        for source in domains:
            for target in domains:
                if source is not target:
                    self._watch_pair(source, target)
        return self._health

    def stop_health_checks(self) -> None:
        """Stop all gateway health probes."""
        if self._health is not None:
            self._health.stop()
            self._health = None

    def _watch_pair(self, source: Domain, target: Domain) -> None:
        """Register the directed health probe source -> target."""
        assert self._health is not None

        def probe(
            report: Any, source: Domain = source, target: Domain = target
        ) -> None:
            source.gateway_rpc.request(
                target.node,
                "ping",
                {},
                on_reply=lambda reply: report(
                    not (isinstance(reply, dict) and "error" in reply)
                ),
                timeout_s=self._health_timeout_s,
                on_timeout=lambda: report(False),
                size_bytes=32,
            )

        self._health.watch(
            f"{source.name}->{target.name}",
            probe,
            breaker=source.gateways[target.name].breaker,
        )

    # -- policies and applications -----------------------------------------
    def declare_policy(
        self, org_a: str, org_b: str, interactions: set[str], symmetric: bool = True
    ) -> None:
        """Declare an inter-org policy in every domain's knowledge base."""
        for domain in self._domains.values():
            domain.env.knowledge_base.policies.declare(
                org_a, org_b, set(interactions), symmetric=symmetric
            )

    def open_policies(self) -> None:
        """Open every domain pair for every interaction (demo/bench default)."""
        names = list(self._domains)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                self.declare_policy(a, b, {"*"})

    def register_application(
        self,
        descriptor: AppDescriptor,
        on_deliver: DeliveryCallback,
        exporter_org: str = "",
    ) -> None:
        """Register one application in every domain environment.

        Federation keeps the paper's O(N) integration cost: one
        descriptor + converter serves all domains (the delivery callback
        receives deliveries from whichever domain the receiver lives in).
        """
        for domain in self._domains.values():
            domain.env.register_application(descriptor, on_deliver, exporter_org)

    def create_shared_activity(
        self, activity_id: str, name: str, members: dict[str, str] | None = None
    ) -> None:
        """Create one activity, visible (with its members) in every domain."""
        for domain in self._domains.values():
            domain.env.create_activity(activity_id, name, dict(members or {}))

    # -- people ------------------------------------------------------------
    def add_person(self, person_id: str, domain_name: str, name: str = "") -> Person:
        """Home a person in *domain_name*; known to every domain's KB.

        The person gets a workstation node and communicator in the home
        domain, a mailbox at the home MTA, and a federated-naming binding
        ``people/<id>`` in the home naming domain.
        """
        home = self.domain(domain_name)
        display = name or person_id
        person = Person(person_id, display, domain_name)
        for domain in self._domains.values():
            domain.env.knowledge_base.add_person(Person(person_id, display, domain_name))
        workstation = home.workstation(person_id)
        if not self.world.network.has_node(workstation):
            self.world.network.add_node(workstation, site=domain_name)
        home.env.register_person(Communicator(person_id, workstation))
        home.mta.register_mailbox(home.or_name(person_id))
        home.naming.bind(
            f"people/{person_id}",
            InterfaceRef(workstation, person_id, "communicator"),
        )
        home.people.add(person_id)
        self._home_cache[person_id] = domain_name
        self._home_generation += 1
        return person

    def home_of(self, person_id: str) -> str:
        """The name of a person's home domain, via federated naming.

        The lookup is memoised; :meth:`add_person` and :meth:`move_person`
        invalidate the memo so a moved person's very next exchange routes
        to their new home.
        """
        cached = self._home_cache.get(person_id)
        if cached is not None:
            if self._metrics.enabled:
                self._m_home_hit.inc()
            return cached
        if self._metrics.enabled:
            self._m_home_miss.inc()
        domains = list(self._domains.values())
        if not domains:
            raise UnknownObjectError(f"federation {self.name!r} has no domains")
        viewpoint = domains[0].naming
        path = f"people/{person_id}"
        try:
            viewpoint.resolve(path)
            self._home_cache[person_id] = domains[0].name
            return domains[0].name
        except NameError_:
            pass
        for other in viewpoint.federated_domains():
            try:
                viewpoint.resolve(f"{other}:/{path}")
            except NameError_:
                continue
            self._home_cache[person_id] = other
            return other
        raise UnknownObjectError(
            f"person {person_id!r} is not homed in any domain of {self.name!r}"
        )

    def move_person(self, person_id: str, to_domain: str) -> Person:
        """Move a person's home to another domain mid-run.

        Every domain's knowledge base performs the move (firing its KB
        listeners, so each environment's resolution cache drops its
        memoised verdicts), the communicator and naming binding migrate,
        and the federation's home memo is invalidated — the next
        federated exchange resolves against the new home.  Deliveries
        queued at the old home for the person's return are discarded.
        """
        old_name = self.home_of(person_id)
        if old_name == to_domain:
            return self._domains[old_name].env.knowledge_base.find_person(person_id)
        old = self.domain(old_name)
        new = self.domain(to_domain)
        moved: Person | None = None
        for domain in self._domains.values():
            moved = domain.env.knowledge_base.move_person(person_id, to_domain)
        old.env.deregister_person(person_id)
        old.naming.unbind(f"people/{person_id}")
        old.people.discard(person_id)
        workstation = new.workstation(person_id)
        if not self.world.network.has_node(workstation):
            self.world.network.add_node(workstation, site=to_domain)
        new.env.register_person(Communicator(person_id, workstation))
        new.mta.register_mailbox(new.or_name(person_id))
        new.naming.bind(
            f"people/{person_id}", InterfaceRef(workstation, person_id, "communicator")
        )
        new.people.add(person_id)
        self._home_cache.pop(person_id, None)
        self._home_cache[person_id] = to_domain
        self._home_generation += 1
        if self._metrics.enabled:
            self._m_moves.inc()
        assert moved is not None
        return moved

    # -- the federated exchange path ---------------------------------------
    def federated_exchange(
        self, request: ExchangeRequest | None = None, /, *args: Any, **kwargs: Any
    ) -> FederatedOutcome:
        """Deliver one :class:`ExchangeRequest` across the federation.

        The request object is the single call currency shared with
        :meth:`CSCWEnvironment.exchange`; the legacy keyword form
        (``federated_exchange(sender, receiver, sender_app, ...)``)
        remains available as a thin shim over
        :meth:`ExchangeRequest.from_kwargs`.

        Intra-domain exchanges run the home environment's pipeline
        unchanged.  Cross-domain exchanges run the origin environment's
        admit stage (activity membership, organisation/policy — the very
        stage :meth:`CSCWEnvironment.exchange` runs), relay the payload
        through the origin's gateway, and re-enter the *target*
        environment's local exchange pipeline, so view/time/activity
        handling and all remaining failure modes are decided exactly as
        at home.  A relay that exhausts its gateway attempts returns a
        :data:`REASON_GATEWAY_DEAD_LETTER` outcome and parks the payload
        in the gateway's dead-letter queue.

        When the direct gateway's circuit breaker is open, the relay
        fails over through a healthy intermediate domain (when one
        exists): the intermediate's inbound handler forwards the payload
        onward and the outcome comes back field-identical, with the
        extra ``relay`` hops recorded in :attr:`FederatedOutcome.hops`.

        *deadline* (absolute simulated time) rides along the whole
        path — gateway hops, forwarding, the target pipeline — and an
        exchange that cannot settle before it fails with
        :data:`~repro.environment.environment.REASON_DEADLINE_EXCEEDED`.

        The call is synchronous on simulated time: for cross-domain
        exchanges the engine is stepped until the relay resolves, so the
        returned outcome's latency is the simulated round trip.

        With a tracer attached the whole operation runs under one
        ``federation.exchange`` root span whose context rides the relay
        payloads: gateway hops, failover intermediates and the target
        pipeline all continue the *same* trace, and the returned
        outcome's ``trace_id`` is that root's trace id.
        """
        if not isinstance(request, ExchangeRequest):
            positional = () if request is None else (request,)
            request = ExchangeRequest.from_kwargs(*positional, *args, **kwargs)
        with self._trace.span(
            "federation.exchange", sender=request.sender, receiver=request.receiver
        ) as span:
            result = self._federated_exchange(request)
            span.tag(
                delivered=result.delivered,
                target=result.target,
                reason_code=result.reason_code,
            )
            return result

    def federated_exchange_many(
        self, requests: list[ExchangeRequest]
    ) -> list[FederatedOutcome]:
        """Deliver a batch of requests; outcomes in request order.

        The federated mirror of :meth:`CSCWEnvironment.exchange_many`:
        consecutive requests that resolve to the same (origin, target)
        domain pair form a *run*.  Intra-domain runs go through the
        home environment's batched fast path (one ``exchange_many``
        call per run, with the federation's own deadline accounting and
        hop metadata preserved); cross-domain runs ship as **one**
        gateway relay carrying the whole run (one payload, one round
        trip, one dedup id), and the target unpacks it into its own
        ``exchange_many``.  Mixed batches degrade gracefully — a
        cross-domain run of one is exactly ``federated_exchange``.

        Each request resolves its route **once** (two home lookups —
        the per-request path re-resolving inside ``_federated_exchange``
        would double that), and the hoisted routes never serve stale
        homes: the batch watches the federation's home ``generation``
        token, so a delivery callback that re-homes a person mid-batch
        re-routes the remaining items — an item that failed
        ``unknown-receiver`` under a route its own dispatch invalidated
        is re-dispatched against the fresh home (re-dispatched items
        count ``env.federation.exchanges`` once per attempt).
        """
        if not requests:
            return []
        outcomes: list[FederatedOutcome | None] = [None] * len(requests)
        with self._trace.span(
            "federation.exchange_many", batch=len(requests)
        ):
            indices = list(range(len(requests)))
            # One re-route round per home change is enough for a single
            # move; the depth bound keeps a pathological callback that
            # re-homes someone on every delivery from looping forever.
            depth = 4
            while indices and depth:
                depth -= 1
                indices = self._exchange_batch(requests, indices, outcomes)
        return outcomes  # type: ignore[return-value]

    def _exchange_batch(
        self,
        requests: list[ExchangeRequest],
        indices: list[int],
        outcomes: "list[FederatedOutcome | None]",
    ) -> list[int]:
        """Dispatch *indices* grouped into same-route runs; fill
        *outcomes* in place and return the indices that must be
        re-dispatched because their dispatch re-homed their route."""
        rerouted: list[int] = []
        run: list[int] = []
        run_route: tuple[str, str] | None = None
        for index in indices:
            route = self._route_of(requests[index])
            if run and route != run_route:
                generation = self._home_generation
                self._dispatch_run(requests, run_route, run, outcomes, rerouted)
                run = []
                if self._home_generation != generation:
                    # The dispatch's delivery callbacks moved someone;
                    # this request's route (resolved before the
                    # dispatch) may be stale — re-derive it.
                    route = self._route_of(requests[index])
            run_route = route
            run.append(index)
        if run:
            self._dispatch_run(requests, run_route, run, outcomes, rerouted)
        return rerouted

    def _dispatch_run(
        self,
        requests: list[ExchangeRequest],
        route: tuple[str, str] | None,
        indices: list[int],
        outcomes: "list[FederatedOutcome | None]",
        rerouted: list[int],
    ) -> None:
        """Deliver one same-route run and detect mid-run re-homing.

        When the run's own delivery callbacks bumped the home
        generation, items that failed ``unknown-receiver`` under the
        dispatched route and now resolve to a *different* route were
        victims of the stale hoisting (a move deregisters the person
        from the old home, so the stale attempt fails without side
        effects) — their indices go to *rerouted* for a fresh dispatch,
        exactly as per-item calls resolving at their own turn would
        behave.
        """
        generation = self._home_generation
        results = self._exchange_run(route, [requests[i] for i in indices])
        for index, result in zip(indices, results):
            outcomes[index] = result
        if route is None or self._home_generation == generation:
            return
        for index, result in zip(indices, results):
            if (
                result.delivered
                or result.outcome.reason_code != REASON_UNKNOWN_RECEIVER
            ):
                continue
            fresh = self._route_of(requests[index])
            if fresh is not None and fresh != route:
                rerouted.append(index)

    def _route_of(self, request: ExchangeRequest) -> tuple[str, str] | None:
        """(origin, target) for a request, or None when unresolvable
        (the per-request path then reports the precise failure)."""
        try:
            return (self.home_of(request.sender), self.home_of(request.receiver))
        except UnknownObjectError:
            return None

    def _exchange_run(
        self, route: tuple[str, str] | None, run: list[ExchangeRequest]
    ) -> list[FederatedOutcome]:
        """Deliver one same-route run (batched where the route allows)."""
        if route is None:
            # Unresolvable routes reuse the single-request path, which
            # reports the precise unknown-sender/receiver failure.
            return [self._federated_exchange(request) for request in run]
        if route[0] == route[1]:
            return self._local_exchange_run(self.domain(route[0]), run)
        origin = self.domain(route[0])
        target = self.domain(route[1])
        if len(run) == 1:
            return [self._federated_exchange(run[0], route=route)]
        if self._metrics.enabled:
            self._m_exchanges.inc(len(run))
            self._m_remote.inc(len(run))
        return self._relay_exchange_group(origin, target, run)

    def _local_exchange_run(
        self, origin: Domain, run: list[ExchangeRequest]
    ) -> list[FederatedOutcome]:
        """Run an intra-domain run through the home env's batched path.

        One ``exchange_many`` call per run — the batched pipeline the
        :meth:`federated_exchange_many` docstring promises — while the
        federation still does its own accounting first: already-expired
        requests fail with the *federated* deadline reason string and
        counter, and every outcome carries the same ``local`` hop
        metadata the per-request path stamps.
        """
        obs = self._metrics
        started = self.world.now
        if obs.enabled:
            self._m_exchanges.inc(len(run))
        results: list[FederatedOutcome | None] = [None] * len(run)
        shipped_indices: list[int] = []
        shipped: list[ExchangeRequest] = []
        for index, request in enumerate(run):
            expires_at, expired = self._deadline(origin, request)
            if expired is not None:
                results[index] = FederatedOutcome(
                    outcome=expired,
                    origin=origin.name,
                    target="",
                    hops=(Hop(origin.name, "local", started),),
                )
                continue
            shipped_indices.append(index)
            shipped.append(
                request
                if request.deadline == expires_at
                else replace(request, deadline=expires_at)
            )
        if shipped:
            if obs.enabled:
                self._m_local.inc(len(shipped))
            exchange_outcomes = origin.env.exchange_many(shipped)
            now = self.world.now
            hops = (Hop(origin.name, "local", now),)
            latency = now - started
            for index, outcome in zip(shipped_indices, exchange_outcomes):
                results[index] = FederatedOutcome(
                    outcome=outcome,
                    origin=origin.name,
                    target=origin.name,
                    hops=hops,
                    latency_s=latency,
                )
        return results  # type: ignore[return-value]

    def _federated_exchange(
        self,
        request: ExchangeRequest,
        route: tuple[str, str] | None = None,
    ) -> FederatedOutcome:
        obs = self._metrics
        if obs.enabled:
            self._m_exchanges.inc()
        # A batch caller passes the route it already resolved — home
        # resolution then runs once per request, not twice.
        origin = self.domain(
            route[0] if route is not None else self.home_of(request.sender)
        )
        receiver = request.receiver
        expires_at, expired = self._deadline(origin, request)
        if expired is not None:
            return FederatedOutcome(
                outcome=expired,
                origin=origin.name,
                target="",
                hops=(Hop(origin.name, "local", self.world.now),),
            )
        try:
            target_name = route[1] if route is not None else self.home_of(receiver)
        except UnknownObjectError:
            if obs.enabled:
                self._m_unknown_receiver.inc()
            outcome = origin.env._fail(
                REASON_UNKNOWN_RECEIVER,
                f"receiver {receiver!r} has no home domain in {self.name!r}",
            )
            return FederatedOutcome(
                outcome=outcome,
                origin=origin.name,
                target="",
                hops=(Hop(origin.name, "local", self.world.now),),
            )
        if target_name == origin.name:
            if obs.enabled:
                self._m_local.inc()
            started = self.world.now
            # Pass the caller's request through unless the federation's
            # default deadline must be stamped on it (as the batched run
            # does): copying it per exchange is pure overhead.
            outcome = origin.env.exchange(
                request
                if request.deadline == expires_at
                else replace(request, deadline=expires_at)
            )
            now = self.world.now
            return FederatedOutcome(
                outcome=outcome,
                origin=origin.name,
                target=origin.name,
                hops=(Hop(origin.name, "local", now),),
                latency_s=now - started,
            )
        if obs.enabled:
            self._m_remote.inc()
        target = self.domain(target_name)
        return self._relay_exchange(origin, target, request, expires_at)

    def _deadline(
        self, origin: Domain, request: ExchangeRequest
    ) -> tuple[float | None, ExchangeOutcome | None]:
        """The request's effective deadline at *origin*, and the failed
        outcome (counted as expired) when it has already passed."""
        expires_at = origin.env.effective_deadline(request.deadline)
        if expires_at is None:
            return None, None
        now = self.world.now
        if now < expires_at:
            return expires_at, None
        if self._metrics.enabled:
            self._m_expired.inc()
        return expires_at, origin.env._fail(
            REASON_DEADLINE_EXCEEDED,
            f"federated exchange deadline {expires_at:.3f} already passed at {now:.3f}",
        )

    def _mediation_metadata(
        self, origin: Domain, request: ExchangeRequest
    ) -> "dict[str, Any] | None":
        """The origin mediator's plan for a relayed exchange, as envelope
        metadata.

        When the origin domain runs mediated (``mediation=True``), the
        plan the target's pipeline will effectively execute is
        synthesized here first and stamped on the relay envelope — the
        receiving side counts it (``mediation.plan.relayed``) and tags
        its relay span, so operators see mediated routes and expected
        fidelity on the wire without re-deriving them.  Returns ``None``
        for unmediated domains, same-format pairs, unknown apps and
        unplannable routes (the target pipeline remains authoritative
        and will fail those its own way).
        """
        mediator = origin.env.mediator
        if mediator is None:
            return None
        try:
            source, target = origin.env.resolution.formats(
                request.sender_app, request.receiver_app
            )
        except NotRegisteredError:
            return None
        if source == target:
            return None
        try:
            plan = mediator.negotiate(source, target, request.min_fidelity)
        except InteropError:
            return None
        return plan.to_document()

    def _stamp_payload(
        self, payload: dict[str, Any], origin: Domain
    ) -> TraceContext | None:
        """Stamp a relay payload with its origin and the open trace.

        The origin's span identity rides the payload; every hop
        (gateway, forwarder, target pipeline) continues this trace.
        Returns the captured context for outcome correlation.
        """
        payload["origin"] = origin.name
        context = self._trace.current_context()
        if context is not None:
            payload[TRACE_KEY] = context.to_document()
        return context

    def _choose_gateway(
        self, origin: Domain, target: Domain, payload: dict[str, Any]
    ) -> Gateway:
        """The direct gateway, or a failover intermediate's when the
        direct one is not ready (breaker open or control-plane drain)."""
        gateway = origin.gateway_to(target.name)
        if self._resilience and not gateway.ready():
            # Route via a healthy intermediate, whose inbound relay
            # handler forwards the payload onward to the final target.
            via = self._pick_intermediate(origin, target)
            if via is not None:
                if self._metrics.enabled:
                    self._m_failover.inc()
                gateway = origin.gateway_to(via.name)
                payload["final_target"] = target.name
        return gateway

    def _await_relay(
        self, origin: Domain, target: Domain, holder: dict[str, Any]
    ) -> None:
        """Step the engine until the relay settles (reply or dead letter)."""
        engine = self.world.engine
        while "reply" not in holder and "dead_letter" not in holder:
            if not engine.step():  # pragma: no cover - timeouts guarantee progress
                raise ConfigurationError(
                    f"relay {origin.name}->{target.name} neither replied nor timed out"
                )

    def _relay_exchange(
        self,
        origin: Domain,
        target: Domain,
        request: ExchangeRequest,
        deadline: float | None = None,
    ) -> FederatedOutcome:
        obs = self._metrics
        started = self.world.now
        origin_hop = Hop(origin.name, "origin", started)

        def fail(code: str, reason: str) -> FederatedOutcome:
            return FederatedOutcome(
                outcome=origin.env._fail(code, reason),
                origin=origin.name,
                target=target.name,
                hops=(origin_hop,),
            )

        code, reason, _ = origin.env._admit(request)
        if code:
            return fail(code, reason)

        payload = request.to_document()
        payload["document"] = dict(request.document)
        payload["deadline"] = deadline
        mediation = self._mediation_metadata(origin, request)
        if mediation is not None:
            payload["mediation"] = mediation
        context = self._stamp_payload(payload, origin)
        holder: dict[str, Any] = {}

        def on_reply(reply: dict[str, Any], attempts: int) -> None:
            holder["reply"] = reply
            holder["attempts"] = attempts

        def on_dead_letter(letter: DeadLetter) -> None:
            holder["dead_letter"] = letter

        gateway = self._choose_gateway(origin, target, payload)
        gateway.relay(payload, on_reply, on_dead_letter, deadline=deadline)
        self._await_relay(origin, target, holder)
        now = self.world.now
        if "dead_letter" in holder:
            letter: DeadLetter = holder["dead_letter"]
            if letter.reason == REASON_RELAY_DEADLINE:
                if obs.enabled:
                    self._m_expired.inc()
                outcome = origin.env._fail(
                    REASON_DEADLINE_EXCEEDED,
                    f"relay {origin.name}->{target.name} missed its deadline "
                    f"after {letter.attempts} attempts",
                )
            else:
                if obs.enabled:
                    self._m_dead_letters.inc()
                outcome = origin.env._fail(
                    REASON_GATEWAY_DEAD_LETTER,
                    f"gateway {origin.name}->{target.name} unreachable after "
                    f"{letter.attempts} attempts; payload parked in dead-letter queue",
                )
            return FederatedOutcome(
                outcome=outcome,
                origin=origin.name,
                target=target.name,
                hops=(origin_hop,),
                attempts=letter.attempts,
                latency_s=now - started,
            )
        reply = holder["reply"]
        relay_path = reply.get("relay_path", ()) if isinstance(reply, dict) else ()
        relay_hops = tuple(
            Hop(h["domain"], "relay", h["at"]) for h in relay_path
        )
        attempts = holder["attempts"] + sum(h.get("attempts", 0) for h in relay_path)
        if isinstance(reply, dict) and "error" in reply:
            if obs.enabled:
                self._m_dead_letters.inc()
            outcome = origin.env._fail(
                REASON_GATEWAY_DEAD_LETTER,
                f"relay {origin.name}->{target.name} failed remotely: "
                f"{reply['error']}",
            )
            return FederatedOutcome(
                outcome=outcome,
                origin=origin.name,
                target=target.name,
                hops=(origin_hop, *relay_hops),
                attempts=attempts,
                latency_s=now - started,
            )
        if isinstance(reply, dict) and "failed" in reply:
            # A forwarded leg died downstream; the intermediate reported
            # the structured failure back instead of an outcome.
            code = reply["failed"]
            if obs.enabled:
                (
                    self._m_expired
                    if code == REASON_DEADLINE_EXCEEDED
                    else self._m_dead_letters
                ).inc()
            outcome = origin.env._fail(
                code, reply.get("detail", "forwarded relay failed")
            )
            return FederatedOutcome(
                outcome=outcome,
                origin=origin.name,
                target=target.name,
                hops=(origin_hop, *relay_hops),
                attempts=attempts,
                latency_s=now - started,
            )
        outcome = _outcome_from_document(
            reply["outcome"],
            trace_id=context.trace_id if context is not None else "",
        )
        if obs.enabled:
            self._m_relay_latency.observe(now - started)
            if outcome.delivered:
                self._m_delivered.inc()
        return FederatedOutcome(
            outcome=outcome,
            origin=origin.name,
            target=target.name,
            hops=(
                origin_hop,
                *relay_hops,
                Hop(target.name, "deliver", reply["handled_at"]),
                Hop(origin.name, "reply", now),
            ),
            attempts=attempts,
            latency_s=now - started,
        )

    def _relay_exchange_group(
        self, origin: Domain, target: Domain, run: list[ExchangeRequest]
    ) -> list[FederatedOutcome]:
        """Relay one same-route run as a single gateway round trip.

        Origin-side checks and already-expired deadlines are decided
        per request before shipping; the survivors travel as one
        ``requests`` payload that the target's relay handler feeds into
        its environment's ``exchange_many``.  One relay id covers the
        run, so retries deduplicate the whole batch at once.
        """
        obs = self._metrics
        started = self.world.now
        origin_hop = Hop(origin.name, "origin", started)
        results: list[FederatedOutcome | None] = [None] * len(run)

        shipped: list[tuple[int, ExchangeRequest, float | None]] = []
        for index, request in enumerate(run):
            expires_at, failed = self._deadline(origin, request)
            if failed is None:
                code, reason, _ = origin.env._admit(request)
                if not code:
                    shipped.append((index, request, expires_at))
                    continue
                failed = origin.env._fail(code, reason)
            results[index] = FederatedOutcome(
                outcome=failed,
                origin=origin.name,
                target=target.name,
                hops=(origin_hop,),
            )
        if not shipped:
            return [result for result in results if result is not None]

        # One serialized envelope per run shape: consecutive same-route
        # requests usually differ only in their payload, so the first
        # request's wire form seeds the rest (a shallow copy plus the
        # per-request payload and deadline) instead of re-deriving
        # ``to_document`` per relay entry, and the origin mediator's
        # plan is synthesized once per (apps, fidelity floor).
        documents: list[dict[str, Any]] = []
        base_request: ExchangeRequest | None = None
        base_document: dict[str, Any] = {}
        plans: "dict[tuple[str, str, float], dict[str, Any] | None]" = {}
        # Consecutive requests carrying the same document object ship one
        # copy of it, so the target's exchange_many translates and sizes
        # it once, as it does for the same run submitted locally.
        source: dict[str, Any] | None = None
        payload_copy: dict[str, Any] = {}
        for _, request, expires_at in shipped:
            if base_request is not None and _same_wire_shape(request, base_request):
                document = dict(base_document)
            else:
                document = request.to_document()
                base_request = request
                base_document = dict(document)
            if request.document is not source:
                source = request.document
                payload_copy = dict(source)
            document["document"] = payload_copy
            document["deadline"] = expires_at
            plan_key = (request.sender_app, request.receiver_app, request.min_fidelity)
            try:
                mediation = plans[plan_key]
            except KeyError:
                mediation = plans[plan_key] = self._mediation_metadata(origin, request)
            if mediation is not None:
                document["mediation"] = mediation
            documents.append(document)
        # The gateway-level deadline only applies when every shipped
        # request carries one (the loosest wins; per-request deadlines
        # are still enforced by the target pipeline).
        expiries = [expires for _, _, expires in shipped]
        group_deadline = max(expiries) if all(e is not None for e in expiries) else None
        payload: dict[str, Any] = {"requests": documents}
        context = self._stamp_payload(payload, origin)
        holder: dict[str, Any] = {}

        def on_reply(reply: dict[str, Any], attempts: int) -> None:
            holder["reply"] = reply
            holder["attempts"] = attempts

        def on_dead_letter(letter: DeadLetter) -> None:
            holder["dead_letter"] = letter

        gateway = self._choose_gateway(origin, target, payload)
        gateway.relay(payload, on_reply, on_dead_letter, deadline=group_deadline)
        self._await_relay(origin, target, holder)
        now = self.world.now

        def ship_fail(code: str, reason: str, attempts: int, hops: tuple) -> None:
            for index, _, _ in shipped:
                if obs.enabled:
                    (
                        self._m_expired
                        if code == REASON_DEADLINE_EXCEEDED
                        else self._m_dead_letters
                    ).inc()
                results[index] = FederatedOutcome(
                    outcome=origin.env._fail(code, reason),
                    origin=origin.name,
                    target=target.name,
                    hops=hops,
                    attempts=attempts,
                    latency_s=now - started,
                )

        if "dead_letter" in holder:
            letter: DeadLetter = holder["dead_letter"]
            code = (
                REASON_DEADLINE_EXCEEDED
                if letter.reason == REASON_RELAY_DEADLINE
                else REASON_GATEWAY_DEAD_LETTER
            )
            ship_fail(
                code,
                f"gateway {origin.name}->{target.name} batch relay failed "
                f"({letter.reason}) after {letter.attempts} attempts",
                letter.attempts,
                (origin_hop,),
            )
            return [result for result in results if result is not None]
        reply = holder["reply"]
        relay_path = reply.get("relay_path", ()) if isinstance(reply, dict) else ()
        relay_hops = tuple(Hop(h["domain"], "relay", h["at"]) for h in relay_path)
        attempts = holder["attempts"] + sum(h.get("attempts", 0) for h in relay_path)
        if isinstance(reply, dict) and "error" in reply:
            ship_fail(
                REASON_GATEWAY_DEAD_LETTER,
                f"batch relay {origin.name}->{target.name} failed remotely: "
                f"{reply['error']}",
                attempts,
                (origin_hop, *relay_hops),
            )
            return [result for result in results if result is not None]
        if isinstance(reply, dict) and "failed" in reply:
            ship_fail(
                reply["failed"],
                reply.get("detail", "forwarded batch relay failed"),
                attempts,
                (origin_hop, *relay_hops),
            )
            return [result for result in results if result is not None]
        hops = (
            origin_hop,
            *relay_hops,
            Hop(target.name, "deliver", reply["handled_at"]),
            Hop(origin.name, "reply", now),
        )
        for (index, _, _), outcome_document in zip(shipped, reply["outcomes"]):
            outcome = _outcome_from_document(
                outcome_document,
                trace_id=context.trace_id if context is not None else "",
            )
            if obs.enabled and outcome.delivered:
                self._m_delivered.inc()
            results[index] = FederatedOutcome(
                outcome=outcome,
                origin=origin.name,
                target=target.name,
                hops=hops,
                attempts=attempts,
                latency_s=now - started,
            )
        if obs.enabled:
            self._m_relay_latency.observe(now - started)
        return [result for result in results if result is not None]

    def _pick_intermediate(self, origin: Domain, target: Domain) -> Domain | None:
        """The first domain (creation order) with both legs healthy.

        A viable intermediate has ready breakers on origin -> via and
        via -> target; ``None`` when no such domain exists (the relay
        then falls through to the direct gateway and fast-fails).
        """
        for via in self._domains.values():
            if via is origin or via is target:
                continue
            first = origin.gateways.get(via.name)
            second = via.gateways.get(target.name)
            if (
                first is not None
                and second is not None
                and first.ready()
                and second.ready()
            ):
                return via
        return None

    def _handle_relay(self, domain: Domain, payload: dict[str, Any]) -> Any:
        """Inbound gateway handler: dedup, forward on, or run the pipeline.

        Gateways are at-least-once on the wire; the ``relay_id`` dedup
        cache makes the processing at-most-once — a retried relay whose
        earlier attempt already got through returns the cached reply
        instead of re-delivering.  A payload whose ``final_target`` is
        another domain arrived here as a failover intermediate and is
        forwarded through this domain's own gateway (the transport holds
        the inbound request open via a deferred reply meanwhile).
        """
        relay_id = payload.get("relay_id")
        if relay_id is not None and relay_id in domain.relay_seen:
            if self._metrics.enabled:
                self._m_deduplicated.inc()
            return domain.relay_seen[relay_id]
        final = payload.get("final_target")
        if final is not None and final != domain.name:
            return self._forward_relay(domain, payload, final)
        if "requests" in payload:
            # A batched run from federated_exchange_many: unpack into
            # this environment's own batched fast path, one reply for
            # the whole run.
            requests = [
                ExchangeRequest.from_document(document)
                for document in payload["requests"]
            ]
            if self._metrics.enabled:
                self._m_inbound.inc(len(requests))
                mediated = sum(
                    1 for document in payload["requests"] if "mediation" in document
                )
                if mediated:
                    self._m_plan_relayed.inc(mediated)
            with self._trace.span_from_context(
                "federation.relay",
                TraceContext.from_document(payload.get(TRACE_KEY)),
                domain=domain.name,
                batch=len(requests),
            ):
                outcomes = domain.env.exchange_many(requests)
            reply = {
                "outcomes": [_outcome_document(outcome) for outcome in outcomes],
                "handled_at": self.world.now,
                "domain": domain.name,
                "relay_path": [],
            }
            if relay_id is not None:
                domain.remember_relay(relay_id, reply)
            return reply
        request = ExchangeRequest.from_document(payload)
        mediation = payload.get("mediation")
        if self._metrics.enabled:
            self._m_inbound.inc()
            if mediation is not None:
                self._m_plan_relayed.inc()
        # Continue the trace the payload carries: the target pipeline's
        # env.exchange span nests under this one, so the outcome's
        # trace_id is the origin's — the receiving half of propagation.
        with self._trace.span_from_context(
            "federation.relay",
            TraceContext.from_document(payload.get(TRACE_KEY)),
            domain=domain.name,
        ) as span:
            if mediation is not None and span is not None:
                span.tag(
                    mediated_fidelity=mediation.get("fidelity"),
                    mediated_hops=mediation.get("hops"),
                )
            outcome = domain.env.exchange(request)
        reply = {
            "outcome": _outcome_document(outcome),
            "handled_at": self.world.now,
            "domain": domain.name,
            "relay_path": [],
        }
        if relay_id is not None:
            domain.remember_relay(relay_id, reply)
        return reply

    def _forward_relay(
        self, domain: Domain, payload: dict[str, Any], final: str
    ) -> DeferredReply:
        """Forward a failover relay from intermediate *domain* to *final*."""
        obs = self._metrics
        if obs.enabled:
            self._m_forwarded.inc()
        deferred = DeferredReply()
        relay_id = payload.get("relay_id")
        forwarded_at = self.world.now
        if relay_id is not None:
            # Cache the in-flight deferred so a duplicate of the inbound
            # leg latches onto the same forwarding, not a second one.
            domain.remember_relay(relay_id, deferred)
        span: Span | None = None
        if self._trace.enabled:
            # A detached span for the forwarding leg: it stays open
            # across the async relay, and the re-stamped payload parents
            # the next hop under it — breaker-triggered failover paths
            # stay inside the origin's trace.
            span = self._trace.start_span(
                "federation.forward",
                context=TraceContext.from_document(payload.get(TRACE_KEY)),
                via=domain.name,
                final=final,
            )
            payload = dict(payload)
            payload[TRACE_KEY] = TraceContext(
                span.trace_id, span.span_id, span.sampled
            ).to_document()

        def close_span(outcome: str) -> None:
            if span is not None:
                span.tag(outcome=outcome)
                self._trace.finish(span)

        def on_reply(reply: Any, attempts: int) -> None:
            close_span("delivered")
            if isinstance(reply, dict) and "relay_path" in reply:
                reply = dict(reply)
                reply["relay_path"] = [
                    {"domain": domain.name, "at": forwarded_at, "attempts": attempts}
                ] + list(reply["relay_path"])
            if relay_id is not None:
                domain.remember_relay(relay_id, reply)
            deferred.resolve(reply)

        def on_dead_letter(letter: DeadLetter) -> None:
            close_span(letter.reason)
            code = (
                REASON_DEADLINE_EXCEEDED
                if letter.reason == REASON_RELAY_DEADLINE
                else REASON_GATEWAY_DEAD_LETTER
            )
            failure = {
                "failed": code,
                "detail": (
                    f"forwarded relay {domain.name}->{final} failed "
                    f"({letter.reason}) after {letter.attempts} attempts"
                ),
                "relay_path": [
                    {
                        "domain": domain.name,
                        "at": forwarded_at,
                        "attempts": letter.attempts,
                    }
                ],
            }
            if relay_id is not None:
                domain.remember_relay(relay_id, failure)
            deferred.resolve(failure)

        try:
            gateway = domain.gateway_to(final)
        except KeyError:
            close_span("no-gateway")
            deferred.fail(f"no gateway from {domain.name} to {final}")
            return deferred
        gateway.relay(
            dict(payload), on_reply, on_dead_letter, deadline=payload.get("deadline")
        )
        return deferred

    # -- adaptive control ----------------------------------------------------
    def attach_control(
        self,
        policy: "ControlPolicy | None" = None,
        slo: "SLOEngine | None" = None,
    ) -> "ControlPlane":
        """Wire an adaptive :class:`~repro.control.plane.ControlPlane`
        over the whole federation (call after the topology is built).

        Every directed gateway is managed (pre-emptive drain on health
        trend / retry surge, attempt-budget boost under SLO burn), every
        shadowing agreement gets burn-time re-balancing, and every
        domain environment gets burn-time shed tightening.  *slo* (when
        given) feeds its burn alerts into the plane; health trends come
        from :meth:`start_health_checks` when probes are running.  The
        plane is exposed as :attr:`control` and returned unstarted —
        call ``.start()`` to arm the loop.
        """
        from repro.control.plane import ControlPlane

        plane = ControlPlane(
            self.world.engine,
            policy=policy,
            metrics=self._env_metrics,
            events=self._events if self._events.enabled else None,
            tracer=self._tracer,
        )
        if slo is not None:
            plane.watch_slo(slo)
        for source in self._domains.values():
            for peer, gateway in sorted(source.gateways.items()):
                plane.manage_gateway(
                    f"{source.name}->{peer}", gateway, health=self._health
                )
        for (consumer, master), agreement in sorted(self.shadowing.items()):
            plane.manage_shadowing(f"shadow:{consumer}<-{master}", agreement)
        for domain in self._domains.values():
            plane.manage_environment(domain.name, domain.env)
        self.control = plane
        return plane

    # -- trading across domains --------------------------------------------
    def import_service(
        self,
        domain_name: str,
        service_type: str,
        constraints: list | None = None,
        preference: str = "first",
        context: Any = None,
    ) -> Any:
        """Import one offer as *domain_name*: local trader first, links after.

        Cross-domain offer lookup rides the trader links wired between
        every pair; each linked trader applies its own organisational
        import policy, so a peer's policy can hide its offers from this
        importer even when the link is up.
        """
        return self.domain(domain_name).trader.import_one(
            service_type, constraints, preference, context
        )

    # -- introspection -----------------------------------------------------
    def describe(self) -> dict[str, Any]:
        """A federation-wide inventory snapshot."""
        inventory: dict[str, Any] = {
            "name": self.name,
            "domains": {name: d.describe() for name, d in self._domains.items()},
            "people": {
                person: home for person, home in sorted(self._home_cache.items())
            },
            "shadowing": {
                f"{consumer}<-{master}": {
                    "pulls": agreement.pulls,
                    "syncs": agreement.syncs,
                    "failed_pulls": agreement.failed_pulls,
                }
                for (consumer, master), agreement in sorted(self.shadowing.items())
            },
        }
        if self._resilience:
            inventory["resilience"] = {
                "breakers": {
                    f"{source}->{peer}": domain.gateways[peer].breaker.stats()
                    for source, domain in sorted(self._domains.items())
                    for peer in sorted(domain.gateways)
                    if domain.gateways[peer].breaker is not None
                },
                "health": None if self._health is None else self._health.stats(),
            }
        if self._metrics.enabled:
            inventory["metrics"] = self._metrics.snapshot()
        return inventory
