"""The ODP trader: service export, import and trading policy.

A trader mediates between exporters (who advertise *service offers*:
a service type, an interface reference and a property list) and importers
(who ask for a service type subject to property constraints and a
preference).  This module implements:

* a service-type hierarchy with subtype conformance,
* a small constraint language for import criteria,
* preference orderings (min/max over a property, first, random),
* trader federation (links searched when the local trader has no match),
* a **policy hook** — the extension the paper proposes in section 6.1:
  "the organisational knowledge base considered in the Mocca environment
  will be associated to the trader, containing or dictating among other
  the trading policy."  Experiment E5 plugs the organisational model in
  here and measures the effect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.odp.objects import InterfaceRef
from repro.sim.rng import SeededRng
from repro.util.errors import ConfigurationError, NoOfferError, TradingError
from repro.util.ids import IdFactory


@dataclass(frozen=True)
class Constraint:
    """One property constraint in an import request.

    Supported operators: ``==``, ``!=``, ``<``, ``<=``, ``>``, ``>=``,
    ``in`` (property value is a member of the given collection) and
    ``contains`` (property value, a collection, contains the given item).
    """

    prop: str
    op: str
    value: Any

    _OPS = ("==", "!=", "<", "<=", ">", ">=", "in", "contains")

    def __post_init__(self) -> None:
        if self.op not in self._OPS:
            raise ConfigurationError(f"unknown constraint operator {self.op!r}")

    def satisfied_by(self, properties: dict[str, Any]) -> bool:
        """Evaluate against an offer's property list (missing prop fails)."""
        if self.prop not in properties:
            return False
        actual = properties[self.prop]
        if self.op == "==":
            return actual == self.value
        if self.op == "!=":
            return actual != self.value
        if self.op == "<":
            return actual < self.value
        if self.op == "<=":
            return actual <= self.value
        if self.op == ">":
            return actual > self.value
        if self.op == ">=":
            return actual >= self.value
        if self.op == "in":
            return actual in self.value
        return self.value in actual  # contains


def constraints_from(criteria: dict[str, Any]) -> list[Constraint]:
    """Build equality constraints from a plain dict.

    >>> [c.op for c in constraints_from({"media": "text"})]
    ['==']
    """
    return [Constraint(prop, "==", value) for prop, value in criteria.items()]


@dataclass(frozen=True)
class ServiceOffer:
    """An advertised service.

    Property values may be callables ("dynamic properties" in ODP trading
    terms): they are evaluated afresh at every import, so an offer can
    advertise live load or queue length.
    """

    offer_id: str
    service_type: str
    ref: InterfaceRef
    properties: dict[str, Any] = field(default_factory=dict, hash=False)
    exporter: str = ""

    def evaluated_properties(self) -> dict[str, Any]:
        """Properties with dynamic (callable) values evaluated now."""
        return {
            name: (value() if callable(value) else value)
            for name, value in self.properties.items()
        }


@dataclass(frozen=True)
class ImportContext:
    """Who is importing, on behalf of which organisation/activity.

    The policy hook receives this context; the organisational model uses it
    to decide inter-organisational compatibility (paper section 4,
    "Transparency of organisation").
    """

    importer: str = ""
    organisation: str = ""
    activity: str = ""
    role: str = ""


PolicyHook = Callable[[ServiceOffer, ImportContext], bool]


class Trader:
    """A trading function with federation and pluggable trading policy."""

    def __init__(self, name: str, rng: SeededRng | None = None) -> None:
        self.name = name
        self._offers: dict[str, ServiceOffer] = {}
        self._type_parents: dict[str, str] = {}
        self._links: dict[str, "Trader"] = {}
        self._policy_hooks: list[PolicyHook] = []
        self._ids = IdFactory()
        self._rng = rng if rng is not None else SeededRng(0)
        self.exports = 0
        self.imports = 0
        self.policy_rejections = 0
        self.attach_metrics(None)

    def attach_metrics(self, metrics: MetricsRegistry | None) -> None:
        """Report trading activity to *metrics* (``None`` detaches).

        Counters ``trader.exports``/``imports``/``offer_scans``/
        ``link_hops``/``no_offer``/``policy_rejections``; the counts are
        per-trader, so federated traders each need their own attach.
        The counters are resolved here, once.
        """
        self._obs = obs = metrics if metrics is not None else NULL_METRICS
        self._m_exports = obs.counter("trader.exports")
        self._m_imports = obs.counter("trader.imports")
        self._m_offer_scans = obs.counter("trader.offer_scans")
        self._m_link_hops = obs.counter("trader.link_hops")
        self._m_no_offer = obs.counter("trader.no_offer")
        self._m_policy_rejections = obs.counter("trader.policy_rejections")

    # -- service types ------------------------------------------------------
    def register_service_type(self, service_type: str, parent: str | None = None) -> None:
        """Declare a service type, optionally as a subtype of *parent*."""
        if service_type in self._type_parents:
            raise ConfigurationError(f"service type {service_type!r} already registered")
        if parent is not None and parent not in self._type_parents:
            raise ConfigurationError(f"unknown parent service type {parent!r}")
        self._type_parents[service_type] = parent or ""

    def conforms_to(self, service_type: str, requested: str) -> bool:
        """True when *service_type* is *requested* or a (transitive) subtype."""
        current: str | None = service_type
        while current:
            if current == requested:
                return True
            current = self._type_parents.get(current) or None
        return False

    # -- policy ---------------------------------------------------------------
    def add_policy_hook(self, hook: PolicyHook) -> None:
        """Install a trading-policy predicate; offers failing it are hidden."""
        self._policy_hooks.append(hook)

    def _passes_policy(self, offer: ServiceOffer, context: ImportContext) -> bool:
        for hook in self._policy_hooks:
            if not hook(offer, context):
                self.policy_rejections += 1
                if self._obs.enabled:
                    self._m_policy_rejections.inc()
                return False
        return True

    # -- export ---------------------------------------------------------------
    def export(
        self,
        service_type: str,
        ref: InterfaceRef,
        properties: dict[str, Any] | None = None,
        exporter: str = "",
    ) -> ServiceOffer:
        """Advertise a service; unregistered types are registered as roots."""
        if service_type not in self._type_parents:
            self.register_service_type(service_type)
        offer = ServiceOffer(
            offer_id=self._ids.next("offer"),
            service_type=service_type,
            ref=ref,
            properties=dict(properties or {}),
            exporter=exporter,
        )
        self._offers[offer.offer_id] = offer
        self.exports += 1
        if self._obs.enabled:
            self._m_exports.inc()
        return offer

    def withdraw(self, offer_id: str) -> None:
        """Remove an offer."""
        if offer_id not in self._offers:
            raise TradingError(f"unknown offer {offer_id!r}")
        del self._offers[offer_id]

    def modify_offer(self, offer_id: str, properties: dict[str, Any]) -> ServiceOffer:
        """Replace an offer's property list (ODP 'modify' operation).

        The offer keeps its id, type, reference and exporter; only the
        advertised properties change.
        """
        old = self._offers.get(offer_id)
        if old is None:
            raise TradingError(f"unknown offer {offer_id!r}")
        updated = ServiceOffer(
            offer_id=old.offer_id,
            service_type=old.service_type,
            ref=old.ref,
            properties=dict(properties),
            exporter=old.exporter,
        )
        self._offers[offer_id] = updated
        return updated

    def offers(self) -> list[ServiceOffer]:
        """All live offers, in export order."""
        return list(self._offers.values())

    # -- federation -------------------------------------------------------------
    def link(self, other: "Trader", link_name: str | None = None) -> None:
        """Federate with another trader; searched when local import fails."""
        name = link_name if link_name is not None else other.name
        if name in self._links:
            raise ConfigurationError(f"link {name!r} already exists")
        if other is self:
            raise ConfigurationError("a trader cannot link to itself")
        self._links[name] = other

    def unlink(self, link_name: str) -> None:
        """Revoke a federation link; its offers stop resolving here.

        Imports in flight are unaffected (matching is synchronous); the
        next import simply no longer searches the revoked trader.
        """
        if link_name not in self._links:
            raise ConfigurationError(f"no link {link_name!r} to revoke")
        del self._links[link_name]

    def links(self) -> list[str]:
        """Names of federated traders, sorted."""
        return sorted(self._links)

    # -- import -------------------------------------------------------------------
    def import_(
        self,
        service_type: str,
        constraints: list[Constraint] | None = None,
        preference: str = "first",
        context: ImportContext | None = None,
        max_offers: int = 1,
        search_links: bool = True,
    ) -> list[ServiceOffer]:
        """Find offers matching the request.

        *preference* is ``"first"``, ``"random"``, ``"min:<prop>"`` or
        ``"max:<prop>"``.  Raises :class:`NoOfferError` when nothing
        matches anywhere (including federated traders when
        *search_links*).
        """
        if max_offers < 1:
            raise TradingError("max_offers must be >= 1")
        self.imports += 1
        if self._obs.enabled:
            self._m_imports.inc()
        ctx = context if context is not None else ImportContext()
        matched = self._match_local(service_type, constraints or [], ctx)
        if not matched and search_links:
            matched = self._match_linked(service_type, constraints or [], ctx)
        if not matched:
            if self._obs.enabled:
                self._m_no_offer.inc()
            raise NoOfferError(
                f"trader {self.name!r}: no offer for {service_type!r} satisfies the request"
            )
        ordered = self._order(matched, preference)
        return ordered[:max_offers]

    def import_one(
        self,
        service_type: str,
        constraints: list[Constraint] | None = None,
        preference: str = "first",
        context: ImportContext | None = None,
    ) -> ServiceOffer:
        """Convenience: import exactly one best offer."""
        return self.import_(service_type, constraints, preference, context, max_offers=1)[0]

    def _match_local(
        self, service_type: str, constraints: list[Constraint], context: ImportContext
    ) -> list[ServiceOffer]:
        result = []
        if self._obs.enabled:
            self._m_offer_scans.inc(len(self._offers))
        for offer in self._offers.values():
            if not self.conforms_to(offer.service_type, service_type):
                continue
            evaluated = offer.evaluated_properties()
            if not all(c.satisfied_by(evaluated) for c in constraints):
                continue
            if not self._passes_policy(offer, context):
                continue
            result.append(offer)
        return result

    def _match_linked(
        self, service_type: str, constraints: list[Constraint], context: ImportContext
    ) -> list[ServiceOffer]:
        for name in sorted(self._links):
            other = self._links[name]
            if self._obs.enabled:
                self._m_link_hops.inc()
            try:
                return other.import_(
                    service_type,
                    constraints,
                    preference="first",
                    context=context,
                    max_offers=1_000_000,
                    search_links=False,
                )
            except NoOfferError:
                continue
        return []

    def _order(self, offers: list[ServiceOffer], preference: str) -> list[ServiceOffer]:
        if preference == "first":
            return offers
        if preference == "random":
            return self._rng.shuffle(offers)
        direction, _, prop = preference.partition(":")
        if direction not in ("min", "max") or not prop:
            raise TradingError(f"unknown preference {preference!r}")
        evaluated = {o.offer_id: o.evaluated_properties() for o in offers}
        keyed = [o for o in offers if prop in evaluated[o.offer_id]]
        unkeyed = [o for o in offers if prop not in evaluated[o.offer_id]]
        keyed.sort(
            key=lambda o: evaluated[o.offer_id][prop], reverse=(direction == "max")
        )
        return keyed + unkeyed
