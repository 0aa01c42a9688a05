"""The CSCW environment facade — the paper's central artifact (Figure 3).

*"A central aim of such environment is to provide interoperability
between a variety of applications ensuring that CSCW applications can
work in harmony rather than in isolation of each other."* (section 3)

One :class:`CSCWEnvironment` aggregates the common services:

* the **organisational knowledge base** (people, orgs, policies, rules),
* the **activity services** (registry, dependencies, scheduler,
  negotiation, resource coordination),
* the **information services** (information base, interchange),
* the **communication services** (communicators, log),
* the **expertise registry**,
* the **ODP trader** (with the org KB's trading policy installed —
  section 6.1) and an **event bus**,
* the **tailoring service** and the **view registry**.

Applications integrate once (:meth:`register_application`) and then
exchange documents through :meth:`exchange`, which applies the four CSCW
transparencies per the caller's :class:`TransparencyProfile`.

Every exchange runs through one pipeline, ``_run``, over a *run* of
requests that share everything but their document; its stages follow an
RM-ODP engineering channel: admit (deadline, activity membership,
organisation and policy) -> formats/view -> translate -> time/shed ->
deliver/log -> account.  :meth:`exchange` is a run of one under its own
``env.exchange`` span; :meth:`exchange_many` splits a batch into runs
under one ``env.exchange_many`` span, so a run is admitted, routed and
accounted once.  Org membership, policy verdicts and app format pairs
are memoised in a :class:`~repro.environment.resolution.ResolutionCache`
(invalidated by knowledge-base and registry mutations).  The federation
runs the same admit stage at a cross-domain exchange's origin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.activity.model import Activity
from repro.communication.model import Communicator
from repro.environment.registry import AppDescriptor, DeliveryCallback
from repro.environment.transparency import CSCW_DIMENSIONS, TransparencyProfile
from repro.obs.events import KIND_DEADLINE, KIND_SHED
from repro.obs.instrument import BYTES_BUCKETS
from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.tracing import Tracer
from repro.org.policy import INTERACTION_MESSAGE
from repro.sim.world import World
from repro.util.errors import (
    ConfigurationError,
    FidelityError,
    InteropError,
    UnknownObjectError,
)
from repro.util.serialization import document_size

if TYPE_CHECKING:
    from repro.environment.builder import EnvironmentBuilder
    from repro.environment.resolution import RouteVerdict

#: structured reason codes an ExchangeOutcome can carry
REASON_DELIVERED = "delivered"
REASON_MEMBERSHIP = "membership"
REASON_ORGANISATION_OPAQUE = "organisation-opaque"
REASON_POLICY = "policy"
REASON_VIEW_OPAQUE = "view-opaque"
REASON_TRANSLATION = "translation"
REASON_FIDELITY = "fidelity"
REASON_TIME_OPAQUE = "time-opaque"
REASON_UNKNOWN_RECEIVER = "unknown-receiver"
REASON_DEADLINE_EXCEEDED = "deadline-exceeded"
REASON_OVERLOAD = "overload"

#: shared default profile — exchange() is hot, avoid rebuilding it per call
_ALL_ON = TransparencyProfile.all_on()


@dataclass(frozen=True, slots=True)
class ExchangeOutcome:
    """What happened to one cross-application exchange.

    ``reason`` (human text) and ``reason_code`` (one of the ``REASON_*``
    constants) are populated uniformly for delivered and failed
    exchanges; ``trace_id`` carries the trace the exchange ran under
    when the environment has a tracer attached ('' otherwise).
    """

    delivered: bool
    mode: str  # "synchronous" | "asynchronous" | "failed"
    reason: str = ""
    translated: bool = False
    fidelity: float = 1.0
    #: dimensions the environment handled on the caller's behalf
    handled: tuple[str, ...] = ()
    #: structured outcome classification (REASON_* constant)
    reason_code: str = ""
    #: trace id of the exchange span ('' when tracing is off)
    trace_id: str = ""
    #: canonical JSON size of the delivered payload (0 on failure)
    size_bytes: int = 0


@dataclass(frozen=True, slots=True)
class ExchangeRequest:
    """The single currency of the exchange call surface.

    Every exchange entry point — :meth:`CSCWEnvironment.exchange`,
    :meth:`CSCWEnvironment.exchange_many`, the remote
    :class:`~repro.environment.server.EnvironmentClient` and
    :meth:`~repro.federation.federation.Federation.federated_exchange` —
    accepts one of these (the legacy keyword form is a thin shim over
    :meth:`from_kwargs`, so the two call styles cannot drift apart).

    Beyond the routing fields, a request carries the annotations the
    adaptive control plane acts on: ``priority`` (positive priorities
    bypass queue-depth load shedding), ``shed_class`` (a free-form label
    recorded with shed events so operators can see *what* was dropped)
    and the absolute simulated-time ``deadline``.
    """

    sender: str
    receiver: str
    sender_app: str
    receiver_app: str
    document: dict[str, Any]
    activity_id: str = ""
    profile: TransparencyProfile | None = None
    interaction: str = INTERACTION_MESSAGE
    #: absolute simulated-time delivery deadline (None = no deadline)
    deadline: float | None = None
    #: requests with priority > 0 are exempt from load shedding
    priority: int = 0
    #: free-form shed classification, recorded with shed events
    shed_class: str = ""
    #: minimum acceptable translation fidelity in [0, 1]; a lossier plan
    #: is rejected with ``REASON_FIDELITY`` instead of delivered (0.0,
    #: the default, accepts any plan — the pre-mediation behaviour)
    min_fidelity: float = 0.0

    @classmethod
    def from_kwargs(
        cls,
        sender: str,
        receiver: str,
        sender_app: str,
        receiver_app: str,
        document: dict[str, Any],
        activity_id: str = "",
        profile: TransparencyProfile | None = None,
        interaction: str = INTERACTION_MESSAGE,
        deadline: float | None = None,
        priority: int = 0,
        shed_class: str = "",
        min_fidelity: float = 0.0,
    ) -> "ExchangeRequest":
        """Build a request from the legacy positional/keyword arguments.

        This is the one place the keyword call shape is defined; the
        ``exchange`` shims of the environment, the environment server
        client and the federation all route through it.
        """
        return cls(
            sender=sender,
            receiver=receiver,
            sender_app=sender_app,
            receiver_app=receiver_app,
            document=document,
            activity_id=activity_id,
            profile=profile,
            interaction=interaction,
            deadline=deadline,
            priority=priority,
            shed_class=shed_class,
            min_fidelity=min_fidelity,
        )

    def to_document(self) -> dict[str, Any]:
        """The wire form of the request (profile flattened to a dict).

        Used by the environment server channel and the federation's
        gateway relays; :meth:`from_document` is the inverse.
        """
        return {
            "sender": self.sender,
            "receiver": self.receiver,
            "sender_app": self.sender_app,
            "receiver_app": self.receiver_app,
            "document": self.document,
            "activity_id": self.activity_id,
            "profile": None if self.profile is None else {
                dim: getattr(self.profile, dim) for dim in CSCW_DIMENSIONS
            },
            "interaction": self.interaction,
            "deadline": self.deadline,
            "priority": self.priority,
            "shed_class": self.shed_class,
            "min_fidelity": self.min_fidelity,
        }

    @classmethod
    def from_document(cls, document: dict[str, Any]) -> "ExchangeRequest":
        """Rebuild a request from its wire form (tolerant of old senders
        that omit the newer annotation fields)."""
        profile_fields = document.get("profile")
        return cls(
            sender=document["sender"],
            receiver=document["receiver"],
            sender_app=document["sender_app"],
            receiver_app=document["receiver_app"],
            document=document["document"],
            activity_id=document.get("activity_id", ""),
            profile=None if profile_fields is None else TransparencyProfile(
                **{dim: bool(profile_fields.get(dim, True)) for dim in CSCW_DIMENSIONS}
            ),
            interaction=document.get("interaction", INTERACTION_MESSAGE),
            deadline=document.get("deadline"),
            priority=document.get("priority", 0),
            shed_class=document.get("shed_class", ""),
            min_fidelity=document.get("min_fidelity", 0.0),
        )


class CSCWEnvironment:
    """The shared environment mediating all open CSCW applications.

    The recommended construction path is :meth:`builder`, which can
    inject observability (``with_metrics``/``with_tracer``) and extra
    trading policy at construction time; the plain constructor remains
    supported and routes through the same builder wiring.
    """

    def __init__(
        self,
        world: World,
        name: str = "mocca",
        *,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        """Build an environment on *world*; keyword-only *metrics* and
        *tracer* opt into observability (equivalent to the builder's
        ``with_metrics``/``with_tracer``)."""
        from repro.environment.builder import EnvironmentBuilder

        spec = EnvironmentBuilder(type(self)).with_world(world).with_name(name)
        if metrics is not None:
            spec = spec.with_metrics(metrics)
        if tracer is not None:
            spec = spec.with_tracer(tracer)
        spec._wire(self)

    @classmethod
    def builder(cls) -> "EnvironmentBuilder":
        """A fluent :class:`~repro.environment.builder.EnvironmentBuilder`
        producing instances of this class."""
        from repro.environment.builder import EnvironmentBuilder

        return EnvironmentBuilder(cls)

    def _bind_metrics(self) -> None:
        """Resolve every instrument the exchange path records into, once.

        Each outcome is booked once, into the labelled
        ``env.exchange.outcomes{domain,outcome}`` and
        ``env.exchange.reasons{domain,reason}`` families; the registry
        derives the flat ``env.exchange.outcome.<outcome>`` and
        ``env.exchange.reason.<code>`` totals from them (summed over
        ``domain``) when it is read.  The ``domain`` label lets
        federated runs sharing one registry tell their environments
        apart.  Binding against :data:`~repro.obs.metrics.NULL_METRICS`
        yields null children, so the hot-path ``inc`` calls stay no-ops
        when metrics are off.
        """
        obs = self.metrics
        outcomes = obs.counter("env.exchange.outcomes", labels=("domain", "outcome"))
        obs.derive_totals("env.exchange.outcomes", "outcome", "env.exchange.outcome.")
        self._m_delivered = outcomes.labels(domain=self.name, outcome="delivered")
        self._m_failed = outcomes.labels(domain=self.name, outcome="failed")
        self._m_reasons = obs.counter("env.exchange.reasons", labels=("domain", "reason"))
        obs.derive_totals("env.exchange.reasons", "reason", "env.exchange.reason.")
        self._m_reason_delivered = self._m_reasons.labels(
            domain=self.name, reason=REASON_DELIVERED
        )
        #: reason code -> its child, resolved on the code's first failure
        self._m_reason: dict[str, Counter] = {REASON_DELIVERED: self._m_reason_delivered}
        self._m_attempted = obs.counter("env.exchange.attempted")
        self._m_transparency = {
            dimension: obs.counter(f"env.exchange.transparency.{dimension}")
            for dimension in CSCW_DIMENSIONS
        }
        self._m_document_bytes = obs.histogram(
            "env.exchange.document_bytes", buckets=BYTES_BUCKETS
        )
        self._m_shed_expired = obs.counter("env.shed.expired")
        self._m_shed_overload = obs.counter("env.shed.overload")

    def _reason_counter(self, code: str) -> Counter:
        """This environment's ``env.exchange.reasons`` child for *code*."""
        child = self._m_reason.get(code)
        if child is None:
            child = self._m_reason[code] = self._m_reasons.labels(
                domain=self.name, reason=code
            )
        return child

    # -- people ----------------------------------------------------------------
    def register_person(self, communicator: Communicator) -> None:
        """Register a person's communication endpoint with the environment."""
        self.communicators.register(communicator)

    def person_leaves(self, person_id: str) -> None:
        """Mark a person absent; asynchronous exchanges to them queue."""
        self.communicators.set_presence(person_id, False)

    def person_arrives(self, person_id: str) -> int:
        """Mark a person present and flush their queued deliveries.

        Returns the number of deliveries flushed — the store-and-forward
        half of time transparency: work done while you were away is
        waiting when you return.  Deliveries whose deadline passed while
        the person was absent are dropped instead of flushed (counted as
        ``env.shed.expired``): a deadline-carrying exchange promised its
        sender delivery-by, not delivery-eventually.
        """
        self.communicators.set_presence(person_id, True)
        pending = self._pending_deliveries.pop(person_id, [])
        now = self.world.now
        flushed = 0
        expired = 0
        for app_name, document, info, expires_at in pending:
            if expires_at is not None and now >= expires_at:
                expired += 1
                continue
            self.applications.deliver(app_name, person_id, document, info)
            flushed += 1
        if expired:
            if self.metrics.enabled:
                self._m_shed_expired.inc(expired)
            if self.events.enabled:
                self.events.record(
                    now,
                    KIND_DEADLINE,
                    env=self.name,
                    receiver=person_id,
                    dropped=expired,
                    at="flush",
                )
        return flushed

    def pending_for(self, person_id: str) -> int:
        """Number of deliveries queued for an absent person."""
        return len(self._pending_deliveries.get(person_id, []))

    def deregister_person(self, person_id: str) -> int:
        """Remove a person's endpoint from this environment.

        Queued store-and-forward deliveries for them are discarded (a
        federation moving someone to another domain re-registers them
        there; anything still parked here would never flush).  Returns
        the number of discarded deliveries.
        """
        self.communicators.remove(person_id)
        return len(self._pending_deliveries.pop(person_id, []))

    # -- applications ------------------------------------------------------------
    def register_application(
        self,
        descriptor: AppDescriptor,
        on_deliver: DeliveryCallback,
        exporter_org: str = "",
    ) -> None:
        """One-step integration of an application (cost O(1) per app)."""
        self.applications.register(descriptor, on_deliver, exporter_org=exporter_org)
        self.bus.publish(
            f"environment/applications/{descriptor.name}",
            {"event": "registered", "quadrants": descriptor.quadrants},
            source=self.name,
            time=self.world.now,
        )

    # -- activities --------------------------------------------------------------
    def create_activity(
        self,
        activity_id: str,
        name: str,
        members: dict[str, str] | None = None,
        **kwargs: Any,
    ) -> Activity:
        """Create and register an activity, joining the given members."""
        activity = self.activities.create(Activity(activity_id, name, **kwargs))
        for person_id, role in (members or {}).items():
            activity.join(person_id, role)
        return activity

    # -- the exchange pipeline ------------------------------------------------------
    def exchange(self, request=None, /, *args: Any, **kwargs: Any) -> ExchangeOutcome:
        """Deliver one :class:`ExchangeRequest` (or legacy keyword form).

        The canonical call passes a single request object::

            env.exchange(ExchangeRequest(sender, receiver, ..., document))

        The legacy positional/keyword form (``exchange(sender, receiver,
        sender_app, receiver_app, document, ...)``) remains supported as
        a thin shim over :meth:`ExchangeRequest.from_kwargs` and produces
        identical outcomes.

        The request runs through the environment's one exchange pipeline
        (see :meth:`_run`) as a run of one.  The environment applies each
        enabled transparency; a disabled transparency whose dimension the
        exchange actually crosses makes the exchange fail — quantifying
        exactly what each transparency buys (experiment E4).

        ``request.deadline`` is an absolute simulated time: an exchange
        arriving past it fails with :data:`REASON_DEADLINE_EXCEEDED`, and
        a store-and-forward delivery still queued at the deadline is
        dropped instead of flushed (the builder's ``with_default_deadline``
        supplies a relative default).  When a shed limit is set
        (``with_shed_limit`` or the runtime :meth:`set_shed_limit`),
        asynchronous deliveries beyond that per-receiver queue depth are
        shed with :data:`REASON_OVERLOAD` — unless the request carries a
        positive ``priority``, which bypasses shedding.

        When a tracer is attached, the whole exchange runs inside an
        ``env.exchange`` span whose trace id the returned outcome
        carries; when a metrics registry is attached, outcomes are
        counted by reason code and transparency dimension.
        """
        if not isinstance(request, ExchangeRequest):
            positional = () if request is None else (request,)
            request = ExchangeRequest.from_kwargs(*positional, *args, **kwargs)
        with self.tracer.span("env.exchange") as span:
            outcomes: list[ExchangeOutcome] = []
            self._run([request], span.trace_id, outcomes)
            outcome = outcomes[0]
            span.tag(
                delivered=outcome.delivered,
                mode=outcome.mode,
                reason_code=outcome.reason_code,
            )
            # Identity enrichment only for spans somebody will read:
            # head-sampled ones, and failures (which tail retention
            # promotes).  A sampled-out healthy span is dropped at
            # settlement, so tagging it would be pure overhead — this
            # is most of sampling's win on the hot path.
            if span.sampled or (self.tracer.enabled and not outcome.delivered):
                span.tag(
                    domain=self.name,
                    sender=request.sender,
                    receiver=request.receiver,
                    sender_app=request.sender_app,
                    receiver_app=request.receiver_app,
                )
                if self._shard_of is not None:
                    try:
                        shard = self._shard_of(request.receiver)
                    except UnknownObjectError:
                        shard = ""
                    if shard:
                        span.tag(shard=shard)
            return outcome

    def _translate_payload(
        self,
        source_format: str,
        target_format: str,
        payload: "dict[str, Any]",
        min_fidelity: float,
    ):
        """Translate via the static hub, falling back to the mediator.

        The :class:`InterchangeService` serves the classic
        both-formats-registered case; the mediator (when wired via
        ``with_mediation()``) takes over when the hub cannot — a format
        it has never seen, or a hub plan too lossy for the caller's
        ``min_fidelity`` floor (the mediator may know a direct or
        partial route with better fidelity).  Raises
        :class:`~repro.util.errors.InteropError` when no route exists
        and :class:`~repro.util.errors.FidelityError` when routes exist
        but none meets the floor.
        """
        interchange = self.interchange
        mediator = self.mediator
        if mediator is None:
            result = interchange.translate(source_format, target_format, payload)
            if result.fidelity < min_fidelity:
                raise FidelityError(
                    f"hub plan {source_format!r} -> {target_format!r} keeps "
                    f"fidelity {result.fidelity:.3f}, below the requested "
                    f"floor {min_fidelity:.3f}",
                    best_fidelity=result.fidelity,
                    min_fidelity=min_fidelity,
                )
            return result
        if interchange.is_registered(source_format) and interchange.is_registered(
            target_format
        ):
            result = interchange.translate(source_format, target_format, payload)
            if result.fidelity >= min_fidelity:
                return result
            try:
                return mediator.translate(
                    source_format, target_format, payload, min_fidelity=min_fidelity
                )
            except FidelityError:
                raise
            except InteropError:
                # no mediated route either — report the hub's best offer
                raise FidelityError(
                    f"hub plan {source_format!r} -> {target_format!r} keeps "
                    f"fidelity {result.fidelity:.3f}, below the requested "
                    f"floor {min_fidelity:.3f}, and no mediated plan improves "
                    "on it",
                    best_fidelity=result.fidelity,
                    min_fidelity=min_fidelity,
                ) from None
        return mediator.translate(
            source_format, target_format, payload, min_fidelity=min_fidelity
        )

    def exchange_many(self, requests: "list[ExchangeRequest]") -> list[ExchangeOutcome]:
        """Deliver a batch of exchanges; outcomes in request order.

        The batch runs through the same pipeline as :meth:`exchange`, so
        every outcome field except ``trace_id`` is what per-request calls
        would return, failures included.  Consecutive requests that agree
        on everything but their document form a *run*, which is
        admitted, routed and accounted once; consecutive items carrying
        the same document object share one translation, one size
        computation and one outcome (converters are shape-deterministic,
        see :class:`~repro.information.interchange`).  The batch shares
        one ``env.exchange_many`` trace span.

        Sharing never serves stale state: activity membership, the
        receiver's endpoint, presence and queue depth are read per item,
        and a delivery callback that mutates the knowledge base (a
        revoked policy, a moved person) ends the run — the remaining
        items start a fresh run and are re-admitted and re-routed,
        failing or delivering exactly as per-request calls would.
        """
        with self.tracer.span(
            "env.exchange_many", domain=self.name, batch=len(requests)
        ) as span:
            trace_id = span.trace_id
            outcomes: list[ExchangeOutcome] = []
            delivered = 0
            count = len(requests)
            start = 0
            while start < count:
                head = requests[start]
                stop = start + 1
                while stop < count:
                    nxt = requests[stop]
                    if (
                        nxt.sender != head.sender
                        or nxt.receiver != head.receiver
                        or nxt.sender_app != head.sender_app
                        or nxt.receiver_app != head.receiver_app
                        or nxt.activity_id != head.activity_id
                        or nxt.interaction != head.interaction
                        or nxt.profile != head.profile
                        or nxt.deadline != head.deadline
                        or nxt.priority != head.priority
                        or nxt.shed_class != head.shed_class
                        or nxt.min_fidelity != head.min_fidelity
                    ):
                        break
                    stop += 1
                while start < stop:
                    served, ok = self._run(requests[start:stop], trace_id, outcomes)
                    start += served
                    delivered += ok
            span.tag(delivered=delivered, failed=count - delivered)
            return outcomes

    def _admit(self, request: ExchangeRequest) -> "tuple[str, str, RouteVerdict | None]":
        """Admit one request past activity membership and the
        organisation dimension (cross-organisation transparency and the
        org-pair policy verdict, memoised by the resolution cache).

        Returns ``(reason_code, reason, verdict)``; the code is ``""``
        when the request is admitted.  :meth:`_run` admits each run's
        head here, after the deadline; the federation runs the same
        stage at a cross-domain exchange's origin before relaying it.
        """
        activity_id = request.activity_id
        if activity_id:
            activity = self.activities.get(activity_id)
            for person in (request.sender, request.receiver):
                if not activity.is_member(person):
                    reason = f"{person} is not a member of {activity_id}"
                    return REASON_MEMBERSHIP, reason, None
        verdict = self.resolution.route(
            request.sender, request.receiver, request.interaction
        )
        # verdict.cross_org without the property call (hot path)
        if verdict.sender_org != verdict.receiver_org:
            active = request.profile if request.profile is not None else _ALL_ON
            if not active.organisation:
                return (
                    REASON_ORGANISATION_OPAQUE,
                    f"cross-organisation exchange ({verdict.sender_org} -> "
                    f"{verdict.receiver_org}) with organisation transparency off",
                    verdict,
                )
            if not verdict.policy_ok:
                return (
                    REASON_POLICY,
                    f"no compatible policy between {verdict.sender_org} and "
                    f"{verdict.receiver_org} for {request.interaction}",
                    verdict,
                )
        return "", "", verdict

    def _run(
        self,
        run: "list[ExchangeRequest]",
        trace_id: str,
        outcomes: list[ExchangeOutcome],
    ) -> tuple[int, int]:
        """Serve a run of same-route requests: the one exchange pipeline.

        Appends an outcome per served request to *outcomes* and returns
        ``(served, delivered)``.  The stages, in per-request order:

        1. admit — the run's deadline, then :meth:`_admit` (membership,
           organisation/policy);
        2. formats/view — the app pair's native formats;
        3. translate — once per document object;
        4. time/shed — receiver endpoint, presence and queue depth;
        5. deliver/log — bus event, rendering, delivery or
           store-and-forward queueing, communication log row;
        6. account — exchange counters, outcome and transparency
           metrics, the shed event (a failure's reason is counted where
           the item fails, an expired deadline where it is found).

        A run failing stage 1 or 2 fails as a whole: nothing was
        delivered, so no callback can have changed the answer.  Later
        stages run per item, and membership is re-checked per item
        because a callback may make someone leave the activity.
        A callback that mutates the knowledge base moves the resolution
        cache's ``generation``; the run then stops before its next item
        and the caller starts a fresh run for the rest.
        """
        head = run[0]
        sender = head.sender
        receiver = head.receiver
        sender_app = head.sender_app
        receiver_app = head.receiver_app
        activity_id = head.activity_id
        active = head.profile if head.profile is not None else _ALL_ON
        resolution = self.resolution
        now = self.world.now
        metered = self.metrics.enabled
        synchronous = asynchronous = failed = shed = 0

        # 1. admit.  The deadline comes first: an exchange arriving
        # expired (e.g. after gateway hops) must not consume pipeline work.
        expires_at = self.effective_deadline(head.deadline)
        if expires_at is not None and now >= expires_at:
            code = REASON_DEADLINE_EXCEEDED
            reason = f"exchange deadline {expires_at:.3f} passed at {now:.3f}"
            if metered:
                self._m_shed_expired.inc(len(run))
            if self.events.enabled:
                self.events.record(
                    now,
                    KIND_DEADLINE,
                    trace_id=trace_id,
                    env=self.name,
                    receiver=receiver,
                    deadline=expires_at,
                    batch=len(run),
                )
        else:
            code, reason, verdict = self._admit(head)
        # 2. formats/view (memoised per app pair)
        if not code:
            source_format, target_format = resolution.formats(sender_app, receiver_app)
            translated = source_format != target_format
            handled: tuple[str, ...] = (
                ("organisation",) if verdict.sender_org != verdict.receiver_org else ()
            )
            if translated:
                if not active.view:
                    code = REASON_VIEW_OPAQUE
                    reason = (
                        f"format mismatch ({source_format} -> {target_format}) "
                        "with view transparency off"
                    )
                handled += ("view",)
        if code:
            failed = len(run)
            failure = ExchangeOutcome(
                delivered=False,
                mode="failed",
                reason=reason,
                reason_code=code,
                trace_id=trace_id,
            )
            outcomes.extend([failure] * failed)
            if metered:
                self._reason_counter(code).inc(failed)
        else:
            # Activity dimension: scoped vs global event publication; the
            # time dimension slots in before it.
            if active.activity and activity_id:
                topic = f"activity/{activity_id}/exchange"
                handled_async = handled + ("time", "activity")
                handled += ("activity",)
            else:
                topic = "exchange"
                handled_async = handled + ("time",)
            is_member = self.activities.get(activity_id).is_member if activity_id else None
            #: the document that payload, size_bytes and made belong to
            prepared = None
            generation = resolution.generation
            for request in run:
                if resolution.generation != generation:
                    break  # a callback mutated the KB: re-route the rest
                if is_member is not None and not (is_member(sender) and is_member(receiver)):
                    code, reason, _ = self._admit(request)
                elif request.document is not prepared:
                    # 3. translate
                    prepared = None
                    payload = dict(request.document)
                    fidelity = 1.0
                    if translated:
                        try:
                            result = self._translate_payload(
                                source_format, target_format, payload, head.min_fidelity
                            )
                        except FidelityError as exc:
                            code, reason = REASON_FIDELITY, str(exc)
                        except InteropError as exc:
                            code, reason = REASON_TRANSLATION, str(exc)
                        else:
                            payload = result.document
                            fidelity = result.fidelity
                    if not code:
                        prepared = request.document
                        size_bytes = document_size(payload)
                        #: the (frozen, shareable) delivered outcome
                        made = None
                if not code:
                    # 4. time/shed.  The endpoint, its presence and the
                    # queue depth are read per item: a callback may remove
                    # the endpoint or flip presence, and each queued
                    # delivery counts against the next shed check.  A
                    # receiver who was *never* registered is a hard
                    # failure, not an absence: queueing for them would
                    # blackhole the document in _pending_deliveries.
                    try:
                        present = self.communicators.get(receiver).present
                    except UnknownObjectError:
                        present = None
                    if present is None:
                        code = REASON_UNKNOWN_RECEIVER
                        reason = f"receiver {receiver!r} has no registered communicator"
                    elif present:
                        mode = "synchronous"
                    elif not active.time:
                        code = REASON_TIME_OPAQUE
                        reason = f"receiver {receiver} absent with time transparency off"
                    elif (
                        head.priority <= 0
                        and self._shed_limit is not None
                        and len(self._pending_deliveries.get(receiver, ()))
                        >= self._shed_limit
                    ):
                        shed += 1
                        code = REASON_OVERLOAD
                        reason = (
                            f"receiver {receiver} has {self._shed_limit} deliveries "
                            "queued; shedding to protect the environment"
                        )
                    else:
                        mode = "asynchronous"
                if code:  # the item fails; the run goes on
                    failed += 1
                    if metered:
                        self._reason_counter(code).inc()
                    outcomes.append(
                        ExchangeOutcome(
                            delivered=False,
                            mode="failed",
                            reason=reason,
                            reason_code=code,
                            trace_id=trace_id,
                        )
                    )
                    code = ""
                    continue
                # 5. deliver/log — immediately when the receiver is
                # present, queued for their return otherwise
                info = {
                    "sender": sender,
                    "sender_app": sender_app,
                    "mode": mode,
                    "fidelity": fidelity,
                    "activity": activity_id,
                }
                self.bus.publish(topic, info, source=sender_app, time=now)
                rendered = self.views.render(receiver, payload)
                if mode == "synchronous":
                    self.applications.deliver(receiver_app, receiver, rendered, info)
                    synchronous += 1
                else:
                    self._pending_deliveries.setdefault(receiver, []).append(
                        (receiver_app, rendered, info, expires_at)
                    )
                    asynchronous += 1
                self.communication_log.append(
                    sender, receiver, mode, "document", size_bytes, now,
                    activity_id, verdict.sender_org, verdict.receiver_org,
                )
                if metered:
                    self._m_document_bytes.observe(size_bytes)
                if made is None or made.mode != mode:
                    made = ExchangeOutcome(
                        delivered=True,
                        mode=mode,
                        reason=f"delivered ({mode})",
                        translated=translated,
                        fidelity=fidelity,
                        handled=handled if mode == "synchronous" else handled_async,
                        reason_code=REASON_DELIVERED,
                        trace_id=trace_id,
                        size_bytes=size_bytes,
                    )
                outcomes.append(made)

        # 6. account (each failure's reason was counted where it failed)
        delivered = synchronous + asynchronous
        served = delivered + failed
        self.exchanges_attempted += served
        if metered:
            self._m_attempted.inc(served)
            if delivered:
                self._m_delivered.inc(delivered)
                self._m_reason_delivered.inc(delivered)
                transparency = self._m_transparency
                if synchronous:
                    for dimension in handled:
                        transparency[dimension].inc(synchronous)
                if asynchronous:
                    for dimension in handled_async:
                        transparency[dimension].inc(asynchronous)
        if failed:
            self.exchanges_failed += failed
            if metered:
                self._m_failed.inc(failed)
        if shed:
            if metered:
                self._m_shed_overload.inc(shed)
            if self.events.enabled:
                self.events.record(
                    now,
                    KIND_SHED,
                    trace_id=trace_id,
                    env=self.name,
                    receiver=receiver,
                    dropped=shed,
                    batch=served,
                    shed_class=head.shed_class,
                )
        return served, delivered

    # -- runtime overload knobs (driven by the control plane) -------------------
    @property
    def shed_limit(self) -> int | None:
        """Current per-receiver queue-depth shed limit (None = never shed)."""
        return self._shed_limit

    def set_shed_limit(self, limit: int | None) -> None:
        """Change the shed limit at runtime (same contract as the builder's
        ``with_shed_limit``).

        The adaptive control plane tightens this under SLO burn and
        relaxes it back after recovery; already-queued deliveries are
        untouched — only admission of *new* asynchronous deliveries is
        affected.
        """
        if limit is not None and limit < 1:
            raise ConfigurationError("shed limit must be >= 1 (or None)")
        self._shed_limit = limit

    @property
    def default_deadline_s(self) -> float | None:
        """Current relative default deadline in simulated seconds."""
        return self._default_deadline_s

    def set_default_deadline(self, seconds: float | None) -> None:
        """Change the default deadline at runtime (same contract as the
        builder's ``with_default_deadline``); applies to exchanges
        started after the call."""
        if seconds is not None and seconds <= 0:
            raise ConfigurationError("default deadline must be > 0 (or None)")
        self._default_deadline_s = seconds

    def effective_deadline(self, deadline: float | None) -> float | None:
        """Resolve a caller deadline against the configured default.

        An explicit *deadline* (absolute simulated time) wins; otherwise
        the builder's ``with_default_deadline`` (relative seconds) is
        applied from now; otherwise exchanges never expire.
        """
        if deadline is not None:
            return deadline
        if self._default_deadline_s is not None:
            return self.world.now + self._default_deadline_s
        return None

    def _fail(self, code: str, reason: str, trace_id: str = "") -> ExchangeOutcome:
        self.exchanges_failed += 1
        if self.metrics.enabled:
            self._m_failed.inc()
            self._reason_counter(code).inc()
        return ExchangeOutcome(
            delivered=False,
            mode="failed",
            reason=reason,
            reason_code=code,
            trace_id=trace_id,
        )

    def describe(self) -> dict[str, Any]:
        """An inventory snapshot of the running environment.

        Covers the registered applications (with their quadrants), people
        and presence, activities by status, traded service types and
        exchange counters — the administrator's view of Figure 3.  When
        an enabled metrics registry is attached, a ``metrics`` section
        with its full snapshot is included.
        """
        inventory: dict[str, Any] = {
            "name": self.name,
            "applications": self.applications.coverage_matrix(),
            "people": {
                c.person_id: {"node": c.node, "present": c.present}
                for c in self.communicators.all()
            },
            "activities": {
                a.activity_id: a.status.value for a in self.activities.all()
            },
            "service_offers": sorted(
                {offer.service_type for offer in self.trader.offers()}
            ),
            "organisations": sorted(o.org_id for o in self.knowledge_base.organisations()),
            "exchanges": {
                "attempted": self.exchanges_attempted,
                "failed": self.exchanges_failed,
            },
            "resolution_cache": self.resolution.stats(),
            "integration_cost": self.integration_cost(),
            "interop_coverage": self.interop_coverage(),
        }
        if self.metrics.enabled:
            inventory["metrics"] = self.metrics.snapshot()
        return inventory

    # -- reporting ---------------------------------------------------------------
    def interop_coverage(self) -> float:
        """Fraction of ordered app pairs that can exchange documents.

        In the environment world this is 1.0 as soon as every application
        registers a converter — the quantified claim of Figure 3.
        """
        names = self.applications.names()
        if len(names) < 2:
            return 1.0
        total = 0
        reachable = 0
        for a in names:
            for b in names:
                if a == b:
                    continue
                total += 1
                fa = self.applications.descriptor(a).format_name
                fb = self.applications.descriptor(b).format_name
                if fa == fb or (
                    self.interchange.is_registered(fa) and self.interchange.is_registered(fb)
                ):
                    reachable += 1
        return reachable / total if total else 1.0

    def integration_cost(self) -> int:
        """Number of integration artifacts built: one converter per app."""
        return self.interchange.converter_count()
