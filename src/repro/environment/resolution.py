"""Memoised resolution for the exchange hot path.

Every ``CSCWEnvironment.exchange()`` must answer the same three questions
before any document moves: which organisations the two people belong to,
whether those organisations' policies permit the interaction, and which
native formats the two applications speak.  Re-deriving those answers per
document is exactly the mediation overhead that worries service-based
mediation systems — the environment is *one* shared mediator, so the
answers are shared too.

The :class:`ResolutionCache` memoises each answer at the grain of the
fact it is derived from:

* per person — their organisation id (a ``person -> org`` memo);
* per ``(sender_org, receiver_org, interaction)`` — the
  :class:`RouteVerdict`, one object shared by every pair of people in
  those two organisations;
* per ``(sender_app, receiver_app)`` — the native format pair.

A warm route is two person gets and one verdict get, so traffic between
people who have never exchanged before still hits once each has been
seen.  The memo holds O(people + org pairs) entries, not O(pairs seen).

Correctness under mutation is preserved by *keyed invalidation*: the
environment builder subscribes the cache to
:meth:`repro.org.knowledge_base.OrganisationalKnowledgeBase.add_listener`
(fired on organisation, person and policy changes, carrying the mutated
entity) and to
:meth:`repro.environment.registry.ApplicationRegistry.add_listener`
(fired on application registration).  A person event forgets that one
person's organisation; a policy event drops the verdicts between the two
organisations of the mutated pair; an organisation event, or a mutation
without entity scope, flushes the person and verdict memos.  Unresolvable
lookups (unknown people, unknown applications) are never cached, so a
person registered directly on an :class:`~repro.org.model.Organisation`
(which fires no event) resolves on their first exchange.

Hit/miss/invalidation totals are kept as plain attributes and, when a
metrics registry is attached, exported as ``env.cache.route.<hit|miss>``,
``env.cache.formats.<hit|miss>``, ``env.cache.invalidations`` and
``env.cache.evicted`` counters.  A route hit is a route resolved without
consulting the knowledge base or the policy registry.  ``invalidations``
counts *logical invalidation events that evicted at least one entry* — a
mutation storm against an empty or untouched cache costs nothing and
counts nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.util.errors import UnknownObjectError


@dataclass(frozen=True)
class RouteVerdict:
    """The organisational answer for one (sender, receiver, interaction).

    ``policy_ok`` is only meaningful when the organisations differ;
    intra-organisation routes are always compatible.
    """

    sender_org: str
    receiver_org: str
    policy_ok: bool

    @property
    def cross_org(self) -> bool:
        """True when the route crosses an organisational boundary."""
        return self.sender_org != self.receiver_org


#: the verdict for a route with a participant the KB does not know
_UNRESOLVED = RouteVerdict("", "", True)


class ResolutionCache:
    """Memoises person orgs, org-pair verdicts and app format pairs.

    ``enabled`` can be flipped off (builder knob
    ``with_resolution_cache(False)``) to force fresh resolution on every
    call — the cold baseline the throughput benchmark compares against.
    Disabling never loses correctness, only speed.

    ``generation`` is a monotonic freshness token: it advances on every
    mutation event (keyed or flush, even when nothing was cached), so
    batch callers that hoist a verdict once per run can detect mid-batch
    mutations with a single integer compare and re-resolve instead of
    serving stale state.
    """

    def __init__(self, knowledge_base: Any, applications: Any) -> None:
        self._kb = knowledge_base
        self._apps = applications
        self._orgs: dict[str, str] = {}
        self._verdicts: dict[tuple[str, str, str], RouteVerdict] = {}
        self._formats: dict[tuple[str, str], tuple[str, str]] = {}
        self.attach_metrics(None)
        self.enabled = True
        self.route_hits = 0
        self.route_misses = 0
        self.format_hits = 0
        self.format_misses = 0
        self.invalidations = 0
        self.evictions = 0
        self.generation = 0

    def attach_metrics(self, metrics: MetricsRegistry | None) -> None:
        """Report cache activity to *metrics* (``None`` detaches); the
        counters are resolved here, once."""
        self._obs = obs = metrics if metrics is not None else NULL_METRICS
        self._m_route_hit = obs.counter("env.cache.route.hit")
        self._m_route_miss = obs.counter("env.cache.route.miss")
        self._m_formats_hit = obs.counter("env.cache.formats.hit")
        self._m_formats_miss = obs.counter("env.cache.formats.miss")
        self._m_invalidations = obs.counter("env.cache.invalidations")
        self._m_evicted = obs.counter("env.cache.evicted")

    # -- lookups -----------------------------------------------------------
    def route(self, sender: str, receiver: str, interaction: str) -> RouteVerdict:
        """The org/policy verdict for one directed person pair."""
        if not self.enabled:
            return self._resolve_route(sender, receiver, interaction)
        orgs = self._orgs
        # a person not yet memoised keys as None, which no verdict has
        verdict = self._verdicts.get((orgs.get(sender), orgs.get(receiver), interaction))
        if verdict is not None:
            self.route_hits += 1
            if self._obs.enabled:
                self._m_route_hit.inc()
            return verdict
        self.route_misses += 1
        if self._obs.enabled:
            self._m_route_miss.inc()
        try:
            key = (self._org_of(sender), self._org_of(receiver), interaction)
        except UnknownObjectError:
            return _UNRESOLVED
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = self._verdicts[key] = self._verdict(*key)
        return verdict

    def formats(self, sender_app: str, receiver_app: str) -> tuple[str, str]:
        """The (sender, receiver) native format pair for one app pair.

        Unknown applications raise
        :class:`~repro.util.errors.NotRegisteredError` exactly as the
        direct descriptor lookup would; failures are not cached.
        """
        if not self.enabled:
            return self._resolve_formats(sender_app, receiver_app)
        key = (sender_app, receiver_app)
        pair = self._formats.get(key)
        if pair is None:
            self.format_misses += 1
            if self._obs.enabled:
                self._m_formats_miss.inc()
            pair = self._formats[key] = self._resolve_formats(sender_app, receiver_app)
        else:
            self.format_hits += 1
            if self._obs.enabled:
                self._m_formats_hit.inc()
        return pair

    def _org_of(self, person: str) -> str:
        org = self._orgs.get(person)
        if org is None:
            org = self._orgs[person] = self._kb.organisation_of(person)
        return org

    def _resolve_route(self, sender: str, receiver: str, interaction: str) -> RouteVerdict:
        kb = self._kb
        try:
            sender_org = kb.organisation_of(sender)
            receiver_org = kb.organisation_of(receiver)
        except UnknownObjectError:
            return _UNRESOLVED
        return self._verdict(sender_org, receiver_org, interaction)

    def _verdict(self, sender_org: str, receiver_org: str, interaction: str) -> RouteVerdict:
        policy_ok = sender_org == receiver_org or self._kb.policies.compatible(
            sender_org, receiver_org, interaction
        )
        return RouteVerdict(sender_org, receiver_org, policy_ok)

    def _resolve_formats(self, sender_app: str, receiver_app: str) -> tuple[str, str]:
        apps = self._apps
        return (
            apps.descriptor(sender_app).format_name,
            apps.descriptor(receiver_app).format_name,
        )

    # -- invalidation ------------------------------------------------------
    def _clear_routes(self) -> int:
        removed = len(self._orgs) + len(self._verdicts)
        self._orgs.clear()
        self._verdicts.clear()
        return removed

    def _clear_formats(self) -> int:
        removed = len(self._formats)
        self._formats.clear()
        return removed

    def _note_event(self, removed: int) -> None:
        """Account one mutation event that evicted *removed* entries."""
        self.generation += 1
        if removed:
            self.evictions += removed
            self.invalidations += 1
            if self._obs.enabled:
                self._m_invalidations.inc()
                self._m_evicted.inc(removed)

    def invalidate_formats(self) -> None:
        """Forget every memoised format pair (one logical event)."""
        self._note_event(self._clear_formats())

    def invalidate_all(self) -> None:
        """Forget everything (people, verdicts and formats).

        One logical invalidation, counted once — not once per sub-cache.
        """
        self._note_event(self._clear_routes() + self._clear_formats())

    def on_kb_change(self, kind: str = "", entity_id: str = "", org: str = "") -> None:
        """Knowledge-base mutation hook (kind: organisation/person/policy).

        Eviction is scoped to the mutated entity:

        * ``person`` — only *entity_id*'s memoised organisation;
        * ``policy`` — the verdicts between the two organisations of the
          mutated pair, in either direction (a policy can only flip
          verdicts between them);
        * ``organisation`` — every memoised person and verdict.

        Called without entity scope (legacy/no-arg form) it flushes the
        same way as an organisation event.
        """
        if kind == "person" and entity_id:
            removed = int(self._orgs.pop(entity_id, None) is not None)
        elif kind == "policy" and entity_id and org:
            pair = ((entity_id, org), (org, entity_id))
            stale = [key for key in self._verdicts if key[:2] in pair]
            for key in stale:
                del self._verdicts[key]
            removed = len(stale)
        else:
            removed = self._clear_routes()
        self._note_event(removed)

    def on_app_registered(self, name: str) -> None:
        """Application-registry mutation hook.

        Format pairs are few (one per app pair, not per person), so a
        registration keeps the conservative whole-flush: re-resolution is
        one miss per live pair.
        """
        self.invalidate_formats()

    # -- introspection -----------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Counters and sizes, for ``describe()`` and the benchmarks.

        ``people_cached`` counts memoised person -> org entries and
        ``routes_cached`` the memoised org-pair verdicts.
        """
        return {
            "route_hits": self.route_hits,
            "route_misses": self.route_misses,
            "format_hits": self.format_hits,
            "format_misses": self.format_misses,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
            "generation": self.generation,
            "people_cached": len(self._orgs),
            "routes_cached": len(self._verdicts),
            "formats_cached": len(self._formats),
        }
