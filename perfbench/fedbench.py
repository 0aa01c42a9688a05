"""The repository's end-to-end benchmark: a 4-domain federation under load.

Every run builds one ``World(seed)`` and a 4-domain
:class:`repro.federation.Federation` with 256 people per domain (1,024 in
total) and four applications, each with its own synthetic format
(``fmt0``..``fmt3``, bridged through the interchange hub).  Telemetry is
on as deployed: a ``MetricsRegistry``, a ``Tracer`` head-sampled at
p=0.1 under the workload seed, and an ``EventLog``.  Inside the timed
phase the tracer is drained every 1,000 operations, as an exporter
would.  GC stays on, because users pay for it.

The load is a closed loop: one client, one thread, one process; each
public call waits for its outcome (the API is synchronous on simulated
time).  The benchmark drives the federation through its public API only
and the program sees only the generated requests.

Workloads (the seed is an argument; inputs are generated from it)
------------------------------------------------------------------

``intra_steady``
    Per-request ``federated_exchange`` calls between a sender and one of
    the sender's 4 fixed same-domain collaborators, so the route cache
    is warm (warm-up sends every collaborator pair once).  3 in 4
    exchanges need hub translation.  *Why:* the environment pipeline,
    resolution hits, interchange and per-exchange telemetry do the work
    here; the engine, transport and gateway barely run, so a change to
    them should move nothing on this workload.

``cross_batch``
    ``federated_exchange_many`` in batches of 32.  Requests come in
    same-route runs with geometric lengths (mean 8); half of the runs
    cross domains.  Each sender writes to its 4 fixed collaborators in
    the run's target domain.  *Why:* this is the batched path —
    ``exchange_many``, one gateway relay per cross-domain run, transport
    and engine — where per-exchange tracing almost disappears but the
    metrics flush stays.  It is the other side of merging the
    per-request and batched pipelines.

``cross_churn``
    Per-request calls over uniform random pairs of all 1,024 people, 75%
    of them cross-domain, every request with a 1.0 s simulated deadline.
    Every 8th operation is a write, rotating through
    ``Federation.move_person`` (moves take turns over the 12 ordered
    domain pairs, so domain sizes stay balanced), revoking /
    re-declaring the d0<->d1 policy and withdrawing / re-publishing the
    ``scan -> fmt3`` mediator capability.  One exchange in 8 is sent from a mediator-only fax
    format (fax -> scan -> fmt3 -> common chain, fidelity 0.855); half
    of those carry a ``min_fidelity`` floor of 0.9 the plan cannot meet.
    The d2<->d3 link loses 30% of packets.  *Why:* writes sit beside
    reads, so invalidation, policy checks, KB lookups, mediator planning
    and engine timers all run, and so does every failure path: retry,
    breaker, failover, dead letter, deadline, policy and fidelity.  A
    read-path speed-up that makes writes or failures dearer shows here.

End-to-end metrics (``--trace 0``)
----------------------------------

``throughput_ops`` (ops/s)
    Exchanges plus writes completed per second of the timed phase.
``call_us_p50`` / ``call_us_p99`` (us)
    Time per public call (one exchange, one batch of 32 or one write);
    every run makes well over 1,000 calls.
``delivered_ratio``
    Delivered over attempted exchanges in the count window (a call that
    raises counts as not delivered).
``setup_s`` (s)
    Median over ``SETUP_REPEATS`` set-ups of building the federation,
    population and apps, plus warm-up.
``peak_rss_mb`` (MB)
    Peak resident memory of the process at the end of the count window.

The timed figures are in *reference time*: host time rescaled by a
speed probe timed every 20 ms next to the workload (see
:class:`SpeedProbe`).  On a shared 2-vCPU VM the host's speed drifted
by a third within a minute; rescaled, ten runs on ten seeds spread by
a few percent instead of a fifth.  ``bench.host_scale`` (per layer)
gives the factor, so host time can be recovered.  Host time is read
from the thread's CPU clock: the loop is one thread that never waits,
and the CPU clock leaves out the moments a virtual machine's host
takes the processor away, which otherwise land on single calls.

Count figures are taken over a fixed *count window* — the first
``COUNT_WINDOW[workload]`` operations of the timed phase — so they
repeat exactly between same-seed runs whatever the host speed.  The
timed phase runs for ``--seconds`` and at least until the window ends.
``attempted`` counts the operations of every phase a run makes;
``failed`` counts the calls among them that raised.  Exchanges the
system refuses by design (policy, fidelity, deadline, dead letter) are
outcomes the checks verify and ``delivered_ratio`` counts, not failures.

A metric that reads 0 by construction on some workload cannot be an
end-to-end metric (the benchmark's bounds are shares of the parent's
median), so three figures are reported per layer under ``bench.``:
``write_us_p50`` (only ``cross_churn`` writes) and
``sim_latency_ms_p50`` / ``sim_latency_ms_p99`` (simulated delivery
latency; intra-domain exchanges take no simulated time).

Per-layer metrics (``--trace 1``)
---------------------------------

A separate traced run on a fresh same-seed federation wraps the public
functions below from the benchmark's own files (see ``layers.py``) and
runs the first ``TRACE_WINDOW[workload]`` operations.  It keeps spans
(layer, function, start, end, parent) in memory and writes them to
``perfbench/out/`` at the end.  Self time is a span's duration minus
the part its child spans cover, less the wrapper's own cost (measured
at start-up on no-op calls); a wrapped function's self time includes
any unwrapped code it calls, so e.g. the target side of a gateway relay
counts towards ``sim.engine`` up to the wrapped environment call.  The
same operations are run untraced on another fresh federation for
``bench.trace_overhead_ratio``.  The traced run never feeds the
end-to-end numbers.  The layer -> metric -> workload mapping (which
end-to-end metric a change to the layer should move, on which
workload):

=============  ===========================================  ===============================================
layer          functions timed                              should move
=============  ===========================================  ===============================================
federation     Federation.federated_exchange,               throughput_ops on cross_batch; call_us_p50,
               federated_exchange_many, home_of,            delivered_ratio, sim latency p99 on
               move_person; Gateway.relay                   cross_churn
environment    CSCWEnvironment.exchange, exchange_many;     call_us_p50 on intra_steady; throughput_ops on
               ResolutionCache.route, formats               cross_batch; write_us_p50 on cross_churn
org            PolicyRegistry.compatible;                   call_us_p50, write_us_p50 on cross_churn
               OrganisationalKnowledgeBase.find_person,     (~0 on intra_steady)
               move_person
information    InterchangeService.translate                 call_us_p50 on intra_steady
mediation      Mediator.translate, plan, publish, withdraw  call_us_p50 on cross_churn (0 elsewhere)
resilience     CircuitBreaker.allow, record_success,        delivered_ratio, sim latency p99 on
               record_failure                               cross_churn
sim.engine     Engine.step, schedule, schedule_at;          call_us_p50/p99 on cross_churn; throughput_ops
               EventHandle.cancel                           on cross_batch (~0 on intra_steady)
sim.transport  RequestReply.request; Network.send           as sim.engine, plus sim latency p50
obs.metrics    MetricsRegistry.inc, observe, set_gauge;     call_us_p50 on intra_steady most, then on
               Counter.inc; Histogram.observe               cross_churn
obs.tracing    Tracer.span, start_span, finish, drain;      call_us_p50 on intra_steady; peak_rss_mb on
               EventLog.record                              all three; ~0 on cross_batch
bench          (none): trace_overhead_ratio = traced wall   (none)
               over untraced wall on the same operations
=============  ===========================================  ===============================================

The traced run also prints each layer's share of the timed self time.
On ``intra_steady`` environment plus obs take about 70%, as intended.
On ``cross_churn`` federation plus sim take only about half (48-53%
on the seeds tried), environment (route misses and the target
pipeline) being the next largest at about 21%: the workload's stated
purpose holds only marginally.

Output checks (any violation makes ``correct`` false)
-----------------------------------------------------

* Every request gets exactly one outcome; each exchange delivers to the
  application at most once, and a delivered outcome has exactly one
  delivery callback.  An undelivered exchange has none — except after a
  reply lost on the d2<->d3 link (deadline or dead letter at the
  origin), where the target may already have delivered; those are
  allowed, not hidden: the request half of the relay arrived.
* ``intra_steady``: every 64th delivered payload equals the hub
  translation the benchmark recomputes from the converters.
* ``cross_batch``: the first 256 requests, replayed per-request on a
  fresh same-seed federation, give field-identical outcomes (all
  ``ExchangeOutcome`` fields except ``trace_id``, plus origin and
  target).
* ``cross_churn``: against the benchmark's own oracle of homes, policy
  and capability state, no delivery reaches a stale home after a move,
  none crosses d0<->d1 while that policy is revoked, no fax document is
  delivered while its capability is withdrawn, and no exchange is
  delivered below its ``min_fidelity``.

``tests/`` runs each workload at a small size and plants the faults
these checks exist for (a dropped delivery callback, a move the
federation never applies, a mediator that ignores the fidelity floor).
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, fields
from typing import Any, Callable, Iterator

from repro.environment.environment import ExchangeRequest
from repro.environment.registry import AppDescriptor, Q_DIFFERENT_TIME_DIFFERENT_PLACE
from repro.federation import Federation
from repro.information.interchange import FormatConverter, make_common
from repro.mediation import KIND_PARTIAL, direct_capability
from repro.obs import MetricsRegistry
from repro.obs.events import EventLog
from repro.obs.tracing import Tracer
from repro.sim.network import WAN_LINK, LinkSpec
from repro.sim.world import World

WORKLOADS = ("intra_steady", "cross_batch", "cross_churn")

DOMAINS = tuple(f"d{index}" for index in range(4))
PEOPLE_PER_DOMAIN = 256
APPS = tuple(f"app{index}" for index in range(4))
COLLABORATORS = 4
TRACE_SAMPLING_P = 0.1
DRAIN_EVERY = 1000
BATCH_SIZE = 32
MEAN_RUN_LENGTH = 8
WRITE_EVERY = 8
DEADLINE_S = 1.0
LOSSY_PAIR = ("d2", "d3")
LOSSY_LINK = LinkSpec(
    latency_s=WAN_LINK.latency_s,
    bandwidth_bps=WAN_LINK.bandwidth_bps,
    jitter_s=WAN_LINK.jitter_s,
    loss=0.3,
)
POLICY_PAIR = frozenset(("d0", "d1"))
#: the (from, to) domains of successive moves, in turn
MOVE_ROUTES = tuple((a, b) for a in DOMAINS for b in DOMAINS if a != b)
FAX_APP = "faxline"
SCAN_APP = "scanstore"
#: the capability the churn workload withdraws and re-publishes
CHURN_CAPABILITY = "partial:scan->fmt3"
#: min_fidelity floors on fax documents: the 0.855 plan meets the first
FAX_FLOORS = (0.8, 0.9)
BODIES = ("brief note", "minutes of the design review " * 4, "x" * 256)

#: operations whose counts and simulated figures repeat exactly per seed
COUNT_WINDOW = {"intra_steady": 8000, "cross_batch": 8192, "cross_churn": 8000}
#: operations in the traced run (per-layer numbers)
TRACE_WINDOW = {"intra_steady": 6000, "cross_batch": 6144, "cross_churn": 4000}
#: set-ups per run; setup_s is their median
SETUP_REPEATS = 7
#: intra_steady compares every N-th delivered payload with the hub
PAYLOAD_SAMPLE_EVERY = 64
#: cross_batch replays this many leading requests per-request
REPLAY_REQUESTS = 256
#: host time between two speed probes in a timed phase
PROBE_EVERY_S = 0.02
#: the speed probe's duration on the reference host (the 2-vCPU VM the
#: baseline in baseline.json was recorded on), in seconds
PROBE_REFERENCE_S = 350e-6
#: reasons after which the target may have delivered although the
#: origin gave up (the reply, not the request, was lost)
REPLY_LOSS_REASONS = frozenset(
    ("deadline-exceeded", "gateway-dead-letter", "relay-deadline")
)


# -- inputs -------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class Exchange:
    """One generated exchange request (deadline is relative, if any)."""

    op_id: int
    sender: str
    receiver: str
    sender_app: str
    receiver_app: str
    body: str
    min_fidelity: float = 0.0
    deadline_s: float | None = None


@dataclass(frozen=True, slots=True)
class Write:
    """One generated write: ``move``, ``policy`` or ``capability``."""

    op_id: int
    kind: str
    person: str = ""
    to_domain: str = ""


def app_format(app: str) -> str:
    """The native format name of a generated application."""
    return "fax" if app == FAX_APP else f"fmt{app[3:]}"


def document_for(exchange: Exchange) -> dict[str, str]:
    """The document an exchange carries; its title is the operation id."""
    key = app_format(exchange.sender_app)
    return {f"{key}-title": f"op{exchange.op_id}", f"{key}-body": exchange.body}


def synthetic_converter(index: int) -> FormatConverter:
    """The hub bridge of application ``app<index>``."""
    key = f"fmt{index}"

    def to_common(document: dict[str, Any]) -> dict[str, Any]:
        return make_common(
            "note", document.get(f"{key}-title", ""), document.get(f"{key}-body", "")
        )

    def from_common(common: dict[str, Any]) -> dict[str, Any]:
        return {f"{key}-title": common["title"], f"{key}-body": common["body"]}

    return FormatConverter(key, to_common, from_common)


class Population:
    """People, homes and fixed collaborators, all drawn from the seed."""

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed * 7919 + 1)
        self.members = {
            domain: [f"{domain}-p{index}" for index in range(PEOPLE_PER_DOMAIN)]
            for domain in DOMAINS
        }
        self.people = [person for domain in DOMAINS for person in self.members[domain]]
        self.home = {
            person: domain for domain in DOMAINS for person in self.members[domain]
        }
        #: person -> domain -> that person's fixed collaborators there
        self.collaborators = {
            person: {
                domain: rng.sample(
                    [p for p in self.members[domain] if p != person], COLLABORATORS
                )
                for domain in DOMAINS
            }
            for person in self.people
        }


def _apps_for(rng: random.Random) -> tuple[str, str]:
    """A sender/receiver app pair; 3 in 4 pairs need hub translation."""
    sender_app = rng.choice(APPS)
    if rng.random() < 0.25:
        return sender_app, sender_app
    return sender_app, rng.choice([app for app in APPS if app != sender_app])


def intra_steady_calls(
    population: Population, rng: random.Random, ids: Iterator[int]
) -> Iterator[Exchange]:
    """Same-domain exchanges to fixed collaborators (one per call)."""
    people = population.people
    while True:
        sender = rng.choice(people)
        receiver = rng.choice(population.collaborators[sender][population.home[sender]])
        sender_app, receiver_app = _apps_for(rng)
        yield Exchange(
            next(ids), sender, receiver, sender_app, receiver_app, rng.choice(BODIES)
        )


def cross_batch_calls(
    population: Population, rng: random.Random, ids: Iterator[int]
) -> Iterator[list[Exchange]]:
    """Batches of 32 in same-route runs (geometric, mean 8; half cross)."""
    remaining = 0
    origin = target = DOMAINS[0]
    while True:
        batch = []
        while len(batch) < BATCH_SIZE:
            if remaining == 0:
                remaining = 1
                while rng.random() >= 1.0 / MEAN_RUN_LENGTH:
                    remaining += 1
                origin = rng.choice(DOMAINS)
                target = (
                    rng.choice([d for d in DOMAINS if d != origin])
                    if rng.random() < 0.5
                    else origin
                )
            sender = rng.choice(population.members[origin])
            receiver = rng.choice(population.collaborators[sender][target])
            sender_app, receiver_app = _apps_for(rng)
            batch.append(
                Exchange(
                    next(ids), sender, receiver, sender_app, receiver_app,
                    rng.choice(BODIES),
                )
            )
            remaining -= 1
        yield batch


def cross_churn_calls(
    population: Population,
    rng: random.Random,
    ids: Iterator[int],
    writes: bool = True,
) -> Iterator[Exchange | Write]:
    """Uniform random pairs (75% cross-domain) with a write every 8th op.

    The generator keeps its own copy of the homes, so the pairs it draws
    follow the people who moved.  Moves take turns over every ordered
    pair of domains, so domain sizes stay within a few people of 256: a
    random walk would shift the share of traffic on the lossy link with
    the seed and with the number of operations a run gets through.
    """
    home = dict(population.home)
    members = {domain: list(people) for domain, people in population.members.items()}
    people = population.people
    kinds = ("move", "policy", "capability")
    count = moves = 0
    while True:
        count += 1
        if writes and count % WRITE_EVERY == 0:
            kind = kinds[(count // WRITE_EVERY - 1) % len(kinds)]
            if kind != "move":
                yield Write(next(ids), kind)
                continue
            from_domain, to_domain = MOVE_ROUTES[moves % len(MOVE_ROUTES)]
            moves += 1
            person = rng.choice(members[from_domain])
            members[from_domain].remove(person)
            members[to_domain].append(person)
            home[person] = to_domain
            yield Write(next(ids), "move", person, to_domain)
            continue
        sender = rng.choice(people)
        own = home[sender]
        if rng.random() < 0.75:
            target = rng.choice([d for d in DOMAINS if d != own and members[d]])
            receiver = rng.choice(members[target])
        else:
            receiver = rng.choice(members[own])
            while receiver == sender:
                receiver = rng.choice(members[own])
        if rng.random() < 0.125:
            yield Exchange(
                next(ids), sender, receiver, FAX_APP, rng.choice(APPS),
                rng.choice(BODIES), rng.choice(FAX_FLOORS), DEADLINE_S,
            )
            continue
        sender_app, receiver_app = _apps_for(rng)
        yield Exchange(
            next(ids), sender, receiver, sender_app, receiver_app,
            rng.choice(BODIES), 0.0, DEADLINE_S,
        )


def calls_for(workload: str, population: Population, seed: int) -> Iterator[Any]:
    """The timed phase's call stream (operation ids count from 0)."""
    rng = random.Random(seed * 7919 + 2)
    ids = iter(range(sys.maxsize))
    if workload == "intra_steady":
        return intra_steady_calls(population, rng, ids)
    if workload == "cross_batch":
        return cross_batch_calls(population, rng, ids)
    return cross_churn_calls(population, rng, ids)


def warmup_calls(workload: str, population: Population, seed: int) -> list[Any]:
    """Warm-up calls (negative operation ids, never written to).

    ``intra_steady`` sends every collaborator pair once, so its route
    cache is warm; the others run a short read-only prefix of their own
    kind of traffic.
    """
    rng = random.Random(seed * 7919 + 3)
    ids = iter(range(-1, -sys.maxsize, -1))
    if workload == "intra_steady":
        calls = []
        for sender in population.people:
            for receiver in population.collaborators[sender][population.home[sender]]:
                sender_app, receiver_app = _apps_for(rng)
                calls.append(
                    Exchange(next(ids), sender, receiver, sender_app, receiver_app,
                             BODIES[0])
                )
        return calls
    if workload == "cross_batch":
        stream = cross_batch_calls(population, rng, ids)
        return [next(stream) for _ in range(64)]
    stream = cross_churn_calls(population, rng, ids, writes=False)
    return [next(stream) for _ in range(1024)]


# -- the system under test ----------------------------------------------------
class Oracle:
    """The benchmark's own model of the state writes change."""

    def __init__(self, population: Population) -> None:
        self.home = dict(population.home)
        self.policy_open = True
        self.capability_published = True


class Deployment:
    """One federation built for a workload, plus what the checks observe."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.population = Population(seed)
        self.oracle = Oracle(self.population)
        self.world = World(seed=seed)
        self.metrics = MetricsRegistry()
        self.tracer = Tracer().configure_sampling(TRACE_SAMPLING_P, seed)
        mediated = workload == "cross_churn"
        self.federation = Federation.partition(
            self.world,
            self.population.members,
            metrics=self.metrics,
            tracer=self.tracer,
            events=EventLog(),
            mediation=mediated,
        )
        #: op id -> delivery callbacks seen
        self.deliveries: dict[int, int] = {}
        #: delivered payloads sampled for the hub check: (op id, document)
        self.samples: list[tuple[int, dict[str, Any]]] = []
        #: op id -> min_fidelity, for the exchanges that set a floor
        self.floors: dict[int, float] = {}
        self.violations: list[str] = []
        self._delivered_total = 0
        descriptors = [
            AppDescriptor(
                name=app,
                quadrants=[Q_DIFFERENT_TIME_DIFFERENT_PLACE],
                converter=synthetic_converter(index),
            )
            for index, app in enumerate(APPS)
        ]
        if mediated:
            descriptors += mediated_descriptors()
        for domain in self.federation.domains():
            for descriptor in descriptors:
                domain.env.register_application(
                    descriptor, self._delivery_callback(domain.name, descriptor.name)
                )
        if mediated:
            self.federation.set_pair_link(*LOSSY_PAIR, LOSSY_LINK)
            self.churn_capability = (
                self.federation.domains()[0].env.mediator.capability(CHURN_CAPABILITY)
            )

    def _delivery_callback(self, domain: str, app: str) -> Callable[..., None]:
        title_key = f"{app_format(app)}-title"
        oracle = self.oracle
        deliveries = self.deliveries

        def on_deliver(person: str, document: dict[str, Any], info: dict[str, Any]) -> None:
            op_id = int(document[title_key][2:])
            deliveries[op_id] = deliveries.get(op_id, 0) + 1
            if op_id < 0:
                return
            self._delivered_total += 1
            if self._delivered_total % PAYLOAD_SAMPLE_EVERY == 0:
                self.samples.append((op_id, document))
            if oracle.home[person] != domain:
                self.violations.append(
                    f"op {op_id}: delivered to {person} at {domain}, "
                    f"but their home is {oracle.home[person]}"
                )
            if (
                not oracle.policy_open
                and frozenset((domain, oracle.home[info["sender"]])) == POLICY_PAIR
            ):
                self.violations.append(
                    f"op {op_id}: delivered across d0<->d1 while the policy is revoked"
                )
            if info["sender_app"] == FAX_APP and not oracle.capability_published:
                self.violations.append(
                    f"op {op_id}: fax delivered while {CHURN_CAPABILITY} is withdrawn"
                )
            if info["fidelity"] < self.floors.get(op_id, 0.0):
                self.violations.append(
                    f"op {op_id}: delivered at fidelity {info['fidelity']:.3f} "
                    f"below its floor {self.floors[op_id]:.3f}"
                )

        return on_deliver

    # -- driving it ----------------------------------------------------------
    def request(self, exchange: Exchange) -> ExchangeRequest:
        """The public request for a generated exchange, built at call time."""
        if exchange.min_fidelity > 0.0:
            self.floors[exchange.op_id] = exchange.min_fidelity
        return ExchangeRequest(
            exchange.sender,
            exchange.receiver,
            exchange.sender_app,
            exchange.receiver_app,
            document_for(exchange),
            deadline=(
                None
                if exchange.deadline_s is None
                else self.world.now + exchange.deadline_s
            ),
            min_fidelity=exchange.min_fidelity,
        )

    def write(self, write: Write) -> None:
        """Apply one write through the public API, then update the oracle."""
        federation, oracle = self.federation, self.oracle
        if write.kind == "move":
            federation.move_person(write.person, write.to_domain)
            oracle.home[write.person] = write.to_domain
        elif write.kind == "policy":
            a, b = sorted(POLICY_PAIR)
            if oracle.policy_open:
                for domain in federation.domains():
                    domain.env.knowledge_base.policies.revoke(a, b, symmetric=True)
            else:
                federation.declare_policy(a, b, {"*"})
            oracle.policy_open = not oracle.policy_open
        else:
            for domain in federation.domains():
                if oracle.capability_published:
                    domain.env.mediator.withdraw(CHURN_CAPABILITY)
                else:
                    domain.env.mediator.publish(self.churn_capability)
            oracle.capability_published = not oracle.capability_published

    def warm_up(self, between: Callable[[], None] = lambda: None) -> None:
        """Run the warm-up calls (*between* after each), then forget
        what they delivered."""
        for call in warmup_calls(self.workload, self.population, self.seed):
            if isinstance(call, list):
                self.federation.federated_exchange_many([self.request(e) for e in call])
            else:
                self.federation.federated_exchange(self.request(call))
            between()
        self.tracer.drain()
        self.deliveries.clear()
        self.samples.clear()
        self.floors.clear()


def mediated_descriptors() -> list[AppDescriptor]:
    """The fax chain: fax -> scan (0.95) -> fmt3 (0.9), mediator-only."""
    fax = AppDescriptor(
        name=FAX_APP,
        quadrants=[Q_DIFFERENT_TIME_DIFFERENT_PLACE],
        native_format="fax",
        capabilities=[
            direct_capability(
                "fax", "scan",
                lambda d: {"scan-title": d.get("fax-title", ""),
                           "scan-body": d.get("fax-body", "")},
                fidelity=0.95, kind=KIND_PARTIAL, exporter=FAX_APP,
            )
        ],
    )
    scan = AppDescriptor(
        name=SCAN_APP,
        quadrants=[Q_DIFFERENT_TIME_DIFFERENT_PLACE],
        native_format="scan",
        capabilities=[
            direct_capability(
                "scan", "fmt3",
                lambda d: {"fmt3-title": d.get("scan-title", ""),
                           "fmt3-body": d.get("scan-body", "")},
                fidelity=0.9, kind=KIND_PARTIAL, exporter=SCAN_APP,
            )
        ],
    )
    return [fax, scan]


def set_up(workload: str, seed: int, repeats: int) -> tuple[Deployment, list[float]]:
    """Build and warm *repeats* deployments; keep the last, time each
    (in reference seconds, see :class:`SpeedProbe`)."""
    deployment = None
    timings = []
    for _ in range(repeats):
        deployment = None
        gc.collect()
        speed = SpeedProbe()
        deployment = Deployment(workload, seed)
        speed.sample()
        deployment.warm_up(speed.due)
        speed.sample()
        timings.append(speed.reference_s())
    assert deployment is not None
    return deployment, timings


class SpeedProbe:
    """Host speed, sampled by timing a fixed piece of work.

    On a shared machine the host's speed drifts: on a 2-vCPU VM,
    back-to-back runs of the same code timed this probe anywhere from
    300 to 500 us, and call times moved with it.  Timed figures are
    therefore reported in *reference* time: each stretch of host time
    between two probes is scaled by ``PROBE_REFERENCE_S`` over the
    median duration of the five probes around it — the time the stretch
    would have taken on the reference host.  A slower program still reads slower;
    a slower host does not.

    The probe does the kind of interpreter work the program does most:
    dict updates, attribute reads, small objects, calls and f-strings.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.sample()

    @staticmethod
    def probe() -> int:
        """The fixed work one sample times."""

        class Box:
            __slots__ = ("number", "key")

            def __init__(self, number: int, key: str) -> None:
                self.number = number
                self.key = key

        def weigh(box: Box, extra: int) -> int:
            return box.number + extra

        counts: dict[str, int] = {}
        total = 0
        for number in range(300):
            key = f"k{number % 50}"
            counts[key] = counts.get(key, 0) + 1
            box = Box(number, key)
            total += weigh(box, number) + len([box, key, number])
        return total

    def sample(self) -> None:
        """Time one probe, with the collector held off so that a
        collection the program's garbage is due does not land in it."""
        gc.disable()
        began = time.thread_time()
        self.probe()
        self.starts.append(began)
        self.durations.append(time.thread_time() - began)
        gc.enable()

    def due(self) -> None:
        """Probe if ``PROBE_EVERY_S`` passed since the last probe ended."""
        if time.thread_time() - self.starts[-1] - self.durations[-1] >= PROBE_EVERY_S:
            self.sample()

    def factors(self) -> list[float]:
        """Reference over host time for each stretch between probes, from
        the median of the five probes around it (one probe alone is
        noisy)."""
        durations = self.durations
        return [
            PROBE_REFERENCE_S / statistics.median(durations[max(0, k - 2):k + 3])
            for k in range(len(durations) - 1)
        ]

    def reference_s(self) -> float:
        """Reference seconds between the first and the last probe,
        the probes themselves excluded."""
        starts, durations = self.starts, self.durations
        return sum(
            (starts[k + 1] - starts[k] - durations[k]) * factor
            for k, factor in enumerate(self.factors())
        )

    def host_s(self) -> float:
        """Host seconds between the first and the last probe, the
        probes themselves excluded."""
        return self.starts[-1] - self.starts[0] - sum(self.durations[:-1])


# -- the timed phase ----------------------------------------------------------
@dataclass(slots=True)
class Record:
    """What the checks need from one exchange's outcome."""

    exchange: Exchange
    delivered: bool
    reason_code: str
    fidelity: float
    latency_s: float
    target: str
    #: the oracle's home of the receiver when the call was made
    expected_home: str


@dataclass
class RunResult:
    """Everything one timed (or traced) pass over the call stream saw."""

    deployment: Deployment
    records: list[Record]
    #: reference seconds per public call, and per write
    call_s: list[float]
    write_s: list[float]
    ops: int
    #: reference seconds the phase took (probes excluded)
    wall_s: float
    #: reference over host seconds, averaged over the phase
    scale: float
    failed: int
    #: violations found while running (outcome-count mismatches)
    violations: list[str]
    #: full outcomes of the first REPLAY_REQUESTS batched requests
    replay_prefix: list[tuple[Exchange, Any]]
    #: counts at the end of the window: ops, exchanges, delivered,
    #: delivered simulated latencies, peak RSS
    window: dict[str, Any]


def run_calls(
    deployment: Deployment,
    calls: Iterator[Any],
    seconds: float,
    window_ops: int,
) -> RunResult:
    """Drive *calls* for *seconds* and at least *window_ops* operations.

    The loop does only what a closed-loop client must — build the
    request, make the call, keep the outcome — plus draining the tracer
    every ``DRAIN_EVERY`` operations and a speed probe every
    ``PROBE_EVERY_S``.  Checks run after the loop.
    """
    federation = deployment.federation
    tracer = deployment.tracer
    oracle_home = deployment.oracle.home
    records: list[Record] = []
    #: host seconds per call, and the probe stretch it ran in
    host_s: list[float] = []
    stretch: list[int] = []
    writes: list[int] = []
    violations: list[str] = []
    replay_prefix: list[tuple[Exchange, Any]] = []
    window: dict[str, Any] = {}
    ops = failed = 0
    next_drain = DRAIN_EVERY
    clock = time.thread_time
    speed = SpeedProbe()
    stop_at = time.perf_counter() + seconds
    for call in calls:
        if isinstance(call, Write):
            began = clock()
            try:
                deployment.write(call)
            except Exception:
                failed += 1
                _report_failure(call)
            host_s.append(clock() - began)
            writes.append(len(host_s) - 1)
            ops += 1
        elif isinstance(call, list):
            requests = [deployment.request(exchange) for exchange in call]
            began = clock()
            try:
                outcomes = federation.federated_exchange_many(requests)
            except Exception:
                outcomes = None
                failed += 1
                _report_failure(call)
            host_s.append(clock() - began)
            ops += len(call)
            if outcomes is None or len(outcomes) != len(call):
                violations.append(
                    f"batch of {len(call)} got "
                    f"{'no' if outcomes is None else len(outcomes)} outcomes"
                )
                outcomes = [None] * len(call)
            for exchange, outcome in zip(call, outcomes):
                records.append(_record(exchange, outcome, oracle_home))
                if len(replay_prefix) < REPLAY_REQUESTS:
                    replay_prefix.append((exchange, outcome))
        else:
            request = deployment.request(call)
            began = clock()
            try:
                outcome = federation.federated_exchange(request)
            except Exception:
                outcome = None
                failed += 1
                _report_failure(call)
            host_s.append(clock() - began)
            ops += 1
            records.append(_record(call, outcome, oracle_home))
        stretch.append(len(speed.durations) - 1)
        if ops >= next_drain:
            next_drain += DRAIN_EVERY
            tracer.drain()
        if not window and ops >= window_ops:
            window = _window_snapshot(records, ops)
        if window and time.perf_counter() >= stop_at:
            break
        speed.due()
    speed.sample()
    factors = speed.factors()
    call_s = [host * factors[k] for host, k in zip(host_s, stretch)]
    wall_s = speed.reference_s()
    return RunResult(
        deployment, records, call_s, [call_s[index] for index in writes], ops,
        wall_s, wall_s / speed.host_s(), failed, violations, replay_prefix, window,
    )


def _record(exchange: Exchange, outcome: Any, oracle_home: dict[str, str]) -> Record:
    expected = oracle_home[exchange.receiver]
    if outcome is None:
        return Record(exchange, False, "raised", 0.0, 0.0, "", expected)
    return Record(
        exchange,
        outcome.delivered,
        outcome.reason_code,
        outcome.outcome.fidelity,
        outcome.latency_s,
        outcome.target,
        expected,
    )


def _report_failure(call: Any) -> None:
    print(f"call raised: {call!r}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _window_snapshot(records: list[Record], ops: int) -> dict[str, Any]:
    delivered = [record for record in records if record.delivered]
    return {
        "ops": ops,
        "exchanges": len(records),
        "delivered": len(delivered),
        "latencies_ms": sorted(record.latency_s * 1000.0 for record in delivered),
        "peak_rss_mb": peak_rss_mb(),
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- output checks ------------------------------------------------------------
def verify(result: RunResult) -> list[str]:
    """Every output check for one run; returns the violations found."""
    deployment = result.deployment
    violations = list(result.violations) + list(deployment.violations)
    deliveries = deployment.deliveries
    seen: set[int] = set()
    ghosts = 0
    for record in result.records:
        exchange = record.exchange
        seen.add(exchange.op_id)
        callbacks = deliveries.get(exchange.op_id, 0)
        if record.delivered:
            if callbacks != 1:
                violations.append(
                    f"op {exchange.op_id}: delivered outcome with {callbacks} "
                    "delivery callbacks"
                )
            if record.fidelity < exchange.min_fidelity:
                violations.append(
                    f"op {exchange.op_id}: delivered at fidelity "
                    f"{record.fidelity:.3f} below its floor {exchange.min_fidelity}"
                )
            if record.target != record.expected_home:
                violations.append(
                    f"op {exchange.op_id}: delivered at {record.target}, but "
                    f"{exchange.receiver} lives in {record.expected_home}"
                )
        elif callbacks:
            if callbacks > 1 or record.reason_code not in REPLY_LOSS_REASONS:
                violations.append(
                    f"op {exchange.op_id}: failed ({record.reason_code}) but "
                    f"delivered {callbacks} time(s)"
                )
            else:
                ghosts += 1
    if ghosts:
        print(
            f"{ghosts} exchanges delivered although their reply was lost",
            file=sys.stderr,
        )
    for op_id in deliveries:
        if op_id >= 0 and op_id not in seen:
            violations.append(f"op {op_id}: delivered but never requested")
    if deployment.workload == "intra_steady":
        violations += check_payloads(result)
    if deployment.workload == "cross_batch":
        violations += check_replay(result)
    return violations


def expected_payload(exchange: Exchange) -> dict[str, Any]:
    """The hub translation of an exchange's document, recomputed."""
    document = document_for(exchange)
    if exchange.sender_app == exchange.receiver_app:
        return document
    source = synthetic_converter(int(exchange.sender_app[3:]))
    target = synthetic_converter(int(exchange.receiver_app[3:]))
    return target.from_common(source.to_common(document))


def check_payloads(result: RunResult) -> list[str]:
    """intra_steady: sampled deliveries equal the recomputed translation."""
    by_id = {record.exchange.op_id: record.exchange for record in result.records}
    violations = []
    if not result.deployment.samples:
        violations.append("no delivered payload was sampled")
    for op_id, document in result.deployment.samples:
        if document != expected_payload(by_id[op_id]):
            violations.append(f"op {op_id}: payload {document!r} is not the hub translation")
    return violations


def outcome_fields(outcome: Any) -> dict[str, Any]:
    """A federated outcome's comparable fields: ``trace_id`` excluded."""
    inner = outcome.outcome
    compared = {
        f.name: getattr(inner, f.name) for f in fields(inner) if f.name != "trace_id"
    }
    compared["origin"] = outcome.origin
    compared["target"] = outcome.target
    return compared


def check_replay(result: RunResult) -> list[str]:
    """cross_batch: a per-request replay of the prefix on a fresh
    same-seed federation decides every exchange identically."""
    deployment = result.deployment
    fresh = Deployment(deployment.workload, deployment.seed)
    fresh.warm_up()
    violations = []
    for exchange, batched in result.replay_prefix:
        replayed = fresh.federation.federated_exchange(fresh.request(exchange))
        if batched is None or outcome_fields(batched) != outcome_fields(replayed):
            violations.append(
                f"op {exchange.op_id}: batched outcome "
                f"{None if batched is None else outcome_fields(batched)} != "
                f"per-request {outcome_fields(replayed)}"
            )
    return violations


# -- figures ------------------------------------------------------------------
def percentile(sorted_values: list[float], q: float) -> float:
    """The nearest-rank *q*-quantile of an already sorted list (0 if empty)."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1, max(0, int(round(q * len(sorted_values) + 0.5)) - 1))
    return sorted_values[rank]


def end_to_end(result: RunResult, setup_s: list[float]) -> dict[str, float]:
    """The end-to-end metrics of one timed run."""
    calls = sorted(result.call_s)
    window = result.window
    return {
        "throughput_ops": result.ops / result.wall_s,
        "call_us_p50": percentile(calls, 0.50) * 1e6,
        "call_us_p99": percentile(calls, 0.99) * 1e6,
        "delivered_ratio": window["delivered"] / window["exchanges"],
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": window["peak_rss_mb"],
    }


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    count_window: int | None = None,
    trace_window: int | None = None,
    setup_repeats: int = SETUP_REPEATS,
    spans_path: str | None = None,
) -> dict[str, Any]:
    """One benchmark run: the result object the command line prints.

    With *trace* off: set up ``setup_repeats`` times, run the timed
    phase, report the end-to-end metrics.  With *trace* on: run the
    timed phase once more for the ``bench.`` figures, then the same
    leading operations untraced and traced on fresh deployments, and
    report the per-layer metrics (spans go to *spans_path*).
    """
    count_window = count_window or COUNT_WINDOW[workload]
    trace_window = trace_window or TRACE_WINDOW[workload]
    deployment, setup_s = set_up(workload, seed, 1 if trace else setup_repeats)
    timed = run_calls(
        deployment, calls_for(workload, deployment.population, seed), seconds,
        count_window,
    )
    passes = [timed]
    if not trace:
        metrics = end_to_end(timed, setup_s)
    else:
        from layers import LayerTracer, per_layer, program_counters, split_report

        passes.append(_prefix_pass(set_up(workload, seed, 1)[0], trace_window))
        with LayerTracer() as spans:
            traced = set_up(workload, seed, 1)[0]
            before = program_counters(traced.federation, traced.metrics)
            spans.active = True
            passes.append(_prefix_pass(traced, trace_window))
            traced.tracer.drain()
            spans.active = False
        after = program_counters(traced.federation, traced.metrics)
        result = passes[-1]
        dead_letters = sum(
            record.reason_code == "gateway-dead-letter" for record in result.records
        )
        metrics = per_layer(
            spans, result.ops, len(result.write_s), dead_letters, before, after,
            result.scale,
        )
        print(split_report(workload, metrics), file=sys.stderr)
        metrics.update(bench_figures(timed, passes[1], result))
        if spans_path is not None:
            spans.write(spans_path)
    violations = [v for run in passes for v in verify(run)]
    for violation in violations[:20]:
        print(f"check failed: {violation}", file=sys.stderr)
    return {
        "correct": not violations,
        "attempted": sum(run.ops for run in passes),
        "failed": sum(run.failed for run in passes),
        "metrics": metrics,
        "violations": violations,
    }


def _prefix_pass(deployment: Deployment, ops: int) -> RunResult:
    """Run exactly the first *ops* operations of the call stream."""
    return run_calls(
        deployment,
        calls_for(deployment.workload, deployment.population, deployment.seed),
        0.0,
        ops,
    )


def bench_figures(timed: RunResult, untraced: RunResult, traced: RunResult) -> dict[str, float]:
    """The ``bench.`` figures: host speed, tracing overhead, write time,
    simulated latency."""
    latencies = timed.window["latencies_ms"]
    return {
        "bench.host_scale": timed.scale,
        "bench.trace_overhead_ratio": traced.wall_s / untraced.wall_s,
        "bench.write_us_p50": percentile(sorted(timed.write_s), 0.50) * 1e6,
        "bench.sim_latency_ms_p50": percentile(latencies, 0.50),
        "bench.sim_latency_ms_p99": percentile(latencies, 0.99),
    }
