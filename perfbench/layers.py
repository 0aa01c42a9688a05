"""The traced run: spans at each layer's public functions, per-layer figures.

:class:`LayerTracer` wraps the public functions of each layer (the
``LAYERS`` table, named after the ``repro`` packages) from outside the
program.  Each wrapped call records one span — layer, function, start,
end, parent — kept in memory while the run lasts and written out at the
end.  A span's self time is its duration minus the part its child spans
cover; calls nest on one thread, so that part is the sum of the
children's durations.  Counts are taken at the same boundaries (calls,
return values, arguments), plus the program's own counters where a
boundary cannot see the event (cache hits, retries, breaker trips).
"""

from __future__ import annotations

import functools
import os
import statistics
from array import array
from time import perf_counter_ns
from typing import Any, Callable

from repro.environment.environment import CSCWEnvironment
from repro.environment.resolution import ResolutionCache
from repro.federation.federation import Federation
from repro.federation.gateway import Gateway
from repro.information.interchange import InterchangeService
from repro.mediation.mediator import Mediator
from repro.obs.events import EventLog
from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.obs.tracing import Tracer
from repro.org.knowledge_base import OrganisationalKnowledgeBase
from repro.org.policy import PolicyRegistry
from repro.resilience.breaker import CircuitBreaker
from repro.sim.engine import Engine, EventHandle
from repro.sim.network import Network
from repro.sim.transport import RequestReply

#: layer -> the public functions whose calls are timed
LAYERS: dict[str, list[tuple[type, str]]] = {
    "federation": [
        (Federation, "federated_exchange"),
        (Federation, "federated_exchange_many"),
        (Federation, "home_of"),
        (Federation, "move_person"),
        (Gateway, "relay"),
    ],
    "environment": [
        (CSCWEnvironment, "exchange"),
        (CSCWEnvironment, "exchange_many"),
        (ResolutionCache, "route"),
        (ResolutionCache, "formats"),
    ],
    "org": [
        (PolicyRegistry, "compatible"),
        (OrganisationalKnowledgeBase, "find_person"),
        (OrganisationalKnowledgeBase, "move_person"),
    ],
    "information": [(InterchangeService, "translate")],
    "mediation": [
        (Mediator, "translate"),
        (Mediator, "plan"),
        (Mediator, "publish"),
        (Mediator, "withdraw"),
    ],
    "resilience": [
        (CircuitBreaker, "allow"),
        (CircuitBreaker, "record_success"),
        (CircuitBreaker, "record_failure"),
    ],
    "sim.engine": [
        (Engine, "step"),
        (Engine, "schedule"),
        (Engine, "schedule_at"),
        (EventHandle, "cancel"),
    ],
    "sim.transport": [(RequestReply, "request"), (Network, "send")],
    "obs.metrics": [
        (MetricsRegistry, "inc"),
        (MetricsRegistry, "observe"),
        (MetricsRegistry, "set_gauge"),
        (Counter, "inc"),
        (Histogram, "observe"),
    ],
    "obs.tracing": [
        (Tracer, "span"),
        (Tracer, "start_span"),
        (Tracer, "finish"),
        (Tracer, "drain"),
        (EventLog, "record"),
    ],
}

#: (class, function) pairs whose boundary value the counts need
_SEND = (Network, "send")
_ALLOW = (CircuitBreaker, "allow")
_STEP = (Engine, "step")
_DRAIN = (Tracer, "drain")

#: the name-keyed registry calls (a dict lookup by metric name each)
_LOOKUPS = {"MetricsRegistry.inc", "MetricsRegistry.observe", "MetricsRegistry.set_gauge"}

class LayerTracer:
    """Wraps every function in ``LAYERS`` while installed (a context
    manager); records spans only while :attr:`active`.

    Spans live in flat integer arrays, which the garbage collector does
    not track: a list object per span would make every collection in
    the traced run walk all the spans recorded so far.
    """

    def __init__(self) -> None:
        #: function index -> (layer, "Class.function")
        self.functions: list[tuple[str, str]] = []
        #: per span: function index, start and end (ns), parent span
        self.function = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        #: span -> the boundary value the counts need (see _value_of)
        self.values: dict[int, Any] = {}
        self.active = False
        self._stack: list[int] = []
        self._originals: list[tuple[type, str, Any]] = []
        #: wrapper cost inside a span, and added to its parent, in ns
        self.inner_ns = 0.0
        self.outer_ns = 0.0

    def __enter__(self) -> "LayerTracer":
        for layer, targets in LAYERS.items():
            for cls, name in targets:
                original = cls.__dict__[name]
                index = len(self.functions)
                self.functions.append((layer, f"{cls.__name__}.{name}"))
                self._originals.append((cls, name, original))
                setattr(cls, name, self._wrap(original, index, _value_of((cls, name))))
        self.calibrate()
        return self

    def __exit__(self, *exc: Any) -> None:
        for cls, name, original in reversed(self._originals):
            setattr(cls, name, original)
        self._originals.clear()
        self.active = False

    def __len__(self) -> int:
        return len(self.function)

    def _wrap(
        self, original: Callable[..., Any], index: int,
        value_of: Callable[[tuple, dict, Any], Any] | None,
    ) -> Callable[..., Any]:
        function, start, end, parent = self.function, self.start, self.end, self.parent
        values, stack = self.values, self._stack

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                return original(*args, **kwargs)
            span = len(function)
            function.append(index)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(span)
            start.append(perf_counter_ns())
            try:
                result = original(*args, **kwargs)
            finally:
                end[span] = perf_counter_ns()
                stack.pop()
            if value_of is not None:
                values[span] = value_of(args, kwargs, result)
            return result

        return wrapper

    def clear(self) -> None:
        """Forget every recorded span."""
        for column in (self.function, self.start, self.end, self.parent):
            del column[:]
        self.values.clear()

    def calibrate(self, calls: int = 5000, rounds: int = 5) -> None:
        """Measure what one wrapped call adds to its own span (*inner*)
        and to its parent's self time (*outer*), so :meth:`self_ns` can
        take both out; medians over *rounds* of *calls* no-op calls."""

        def noop() -> None:
            return None

        child = self._wrap(noop, -1, None)

        def loop() -> None:
            for _ in range(calls):
                child()

        parent = self._wrap(loop, -1, None)
        inner, outer = [], []
        for _ in range(rounds):
            began = perf_counter_ns()
            for _ in range(calls):
                noop()
            bare = perf_counter_ns() - began
            self.active = True
            parent()
            self.active = False
            covered = sum(self.end[1:]) - sum(self.start[1:])
            inner.append(covered / calls)
            outer.append((self.end[0] - self.start[0] - covered - bare) / calls)
            self.clear()
        self.inner_ns = statistics.median(inner)
        self.outer_ns = max(0.0, statistics.median(outer))

    # -- reading the spans ---------------------------------------------------
    def self_ns(self) -> list[float]:
        """Each span's self time: its duration minus its children's,
        less the wrapper cost :meth:`calibrate` measured."""
        start, end, parent = self.start, self.end, self.parent
        inner, outer = self.inner_ns, self.outer_ns
        own = [end[span] - start[span] - inner for span in range(len(self))]
        for span in range(len(self)):
            up = parent[span]
            if up >= 0:
                own[up] -= end[span] - start[span] + outer
        return own

    def write(self, path: str) -> None:
        """Write the spans as tab-separated lines (ns since the first)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        origin = self.start[0] if len(self) else 0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span\tparent\tlayer\tfunction\tstart_ns\tend_ns\n")
            for span in range(len(self)):
                layer, name = self.functions[self.function[span]]
                handle.write(
                    f"{span}\t{self.parent[span]}\t{layer}\t{name}\t"
                    f"{self.start[span] - origin}\t{self.end[span] - origin}\n"
                )


def _value_of(target: tuple[type, str]) -> Callable[[tuple, dict, Any], Any] | None:
    """What a span keeps from its call, for the counts that need it."""
    if target == _SEND:
        # Network.send(self, source, destination, port, payload, size_bytes=128)
        return lambda args, kwargs, result: kwargs.get(
            "size_bytes", args[5] if len(args) > 5 else 128
        )
    if target in (_ALLOW, _STEP):
        return lambda args, kwargs, result: result
    if target == _DRAIN:
        return lambda args, kwargs, result: len(result)
    return None


def program_counters(federation: Federation, metrics: MetricsRegistry) -> dict[str, int]:
    """The program's own counters the boundaries cannot see (*metrics*
    is the registry the federation reports to)."""
    domains = federation.domains()
    gateways = [gateway for domain in domains for gateway in domain.gateways.values()]
    counters = {
        "route_hits": sum(d.env.resolution.route_hits for d in domains),
        "route_misses": sum(d.env.resolution.route_misses for d in domains),
        "evictions": sum(d.env.resolution.evictions for d in domains),
        "retries": sum(gateway.retries for gateway in gateways),
        "breaker_opens": sum(
            gateway.breaker.opened for gateway in gateways if gateway.breaker is not None
        ),
        "failovers": metrics.snapshot()["counters"].get("env.federation.failover", 0),
        "plan_hits": 0,
        "plans_synthesized": 0,
    }
    for domain in domains:
        mediator = domain.env.mediator
        if mediator is not None:
            counters["plan_hits"] += mediator.plan_hits
            counters["plans_synthesized"] += mediator.plans_synthesized
    return counters


def per_layer(
    tracer: LayerTracer,
    ops: int,
    writes: int,
    dead_letters: int,
    before: dict[str, int],
    after: dict[str, int],
    scale: float,
) -> dict[str, float]:
    """Every per-layer figure of one traced run of *ops* operations.

    *scale* turns the spans' host time into reference time (see
    ``fedbench.SpeedProbe``).
    """
    delta = {key: after[key] - before[key] for key in after}
    own = tracer.self_ns()
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    by_function: dict[str, int] = {}
    relays = allows = refused = steps = scheduled = cancels = 0
    packets = packet_bytes = retained = 0
    for span, own_ns in enumerate(own):
        layer, name = tracer.functions[tracer.function[span]]
        calls[layer] = calls.get(layer, 0) + 1
        self_ns[layer] = self_ns.get(layer, 0) + own_ns
        by_function[name] = by_function.get(name, 0) + 1
        value = tracer.values.get(span)
        if name == "Gateway.relay":
            relays += 1
        elif name == "CircuitBreaker.allow":
            allows += 1
            refused += value is False
        elif name == "Engine.step":
            steps += value is True
        elif name == "Engine.schedule":
            scheduled += 1
        elif name == "EventHandle.cancel":
            cancels += 1
        elif name == "Network.send":
            packets += 1
            packet_bytes += value
        elif name == "Tracer.drain":
            retained += value

    def per_op(count: float) -> float:
        return count / ops

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    def self_us(layer: str) -> float:
        return per_op(self_ns.get(layer, 0) * scale / 1000.0)

    hits, misses = delta["route_hits"], delta["route_misses"]
    plan_hits, synthesized = delta["plan_hits"], delta["plans_synthesized"]
    figures = {
        "federation.calls_per_op": per_op(calls.get("federation", 0)),
        "federation.self_us_per_op": self_us("federation"),
        "federation.relays_per_op": per_op(relays),
        "federation.retries_per_relay": ratio(delta["retries"], relays),
        "federation.failovers_per_op": per_op(delta["failovers"]),
        "federation.dead_letters_per_op": per_op(dead_letters),
        "environment.calls_per_op": per_op(calls.get("environment", 0)),
        "environment.self_us_per_op": self_us("environment"),
        "environment.route_hit_ratio": ratio(hits, hits + misses),
        "environment.evictions_per_write": ratio(delta["evictions"], writes),
        "org.calls_per_op": per_op(calls.get("org", 0)),
        "org.self_us_per_op": self_us("org"),
        "information.calls_per_op": per_op(calls.get("information", 0)),
        "information.self_us_per_op": self_us("information"),
        "mediation.self_us_per_op": self_us("mediation"),
        "mediation.plan_hit_ratio": ratio(plan_hits, plan_hits + synthesized),
        "resilience.calls_per_op": per_op(calls.get("resilience", 0)),
        "resilience.fast_fail_ratio": ratio(refused, allows),
        "resilience.breaker_opens": float(delta["breaker_opens"]),
        "sim.engine.events_per_op": per_op(steps),
        "sim.engine.cancel_ratio": ratio(cancels, scheduled),
        "sim.engine.self_us_per_op": self_us("sim.engine"),
        "sim.transport.packets_per_op": per_op(packets),
        "sim.transport.bytes_per_op": per_op(packet_bytes),
        "sim.transport.self_us_per_op": self_us("sim.transport"),
        "obs.metrics.calls_per_op": per_op(calls.get("obs.metrics", 0)),
        "obs.metrics.lookups_per_op": per_op(
            sum(by_function.get(name, 0) for name in _LOOKUPS)
        ),
        "obs.metrics.self_us_per_op": self_us("obs.metrics"),
        "obs.tracing.spans_per_op": per_op(
            by_function.get("Tracer.span", 0) + by_function.get("Tracer.start_span", 0)
        ),
        "obs.tracing.retained_per_op": per_op(retained),
        "obs.tracing.self_us_per_op": self_us("obs.tracing"),
    }
    return figures


#: the layers a workload is meant to spend most of its self time in
PURPOSE = {
    "intra_steady": ("environment", "obs.metrics", "obs.tracing"),
    "cross_churn": ("federation", "sim.engine", "sim.transport"),
}


def split_report(workload: str, figures: dict[str, float]) -> str:
    """Each layer's share of the timed self time, and whether the
    layers ``PURPOSE`` names for *workload* take more than half."""
    layers = {
        name[: -len(".self_us_per_op")]: value
        for name, value in figures.items()
        if name.endswith(".self_us_per_op")
    }
    total = sum(layers.values()) or 1.0
    shares = ", ".join(f"{layer} {value / total:.0%}" for layer, value in layers.items())
    report = f"self-time split on {workload}: {shares}"
    stated = PURPOSE.get(workload)
    if stated is None:
        return report
    share = sum(layers[layer] for layer in stated) / total
    verdict = "matches" if share > 0.5 else "does NOT match"
    return f"{report}; {' + '.join(stated)} = {share:.0%}, {verdict} its stated purpose"
