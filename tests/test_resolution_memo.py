"""The resolution cache's per-person memo: cost counters and warm/cold parity.

``ResolutionCache.route`` memoises person -> organisation and
(sender_org, receiver_org, interaction) -> verdict, so traffic between
people who have never exchanged before is served from the memo once each
person has been seen.  Two properties pin that design:

* a deterministic cost-counter test — after every person is touched once,
  random cross-org traffic never consults the knowledge base or the
  policy registry again;
* a Hypothesis state machine — under any interleaving of hires (through
  the KB or directly on an Organisation), moves, removals, policy churn,
  endpoint removal and re-registration, activity joins and leaves,
  presence flips and exchanges (unknown ids included), a warm
  environment's outcomes equal those of a ``with_resolution_cache(False)``
  twin fed the same history, and per-request ``exchange`` calls equal
  one ``exchange_many`` over the same requests.
"""

from __future__ import annotations

import random
from dataclasses import fields

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.communication.model import Communicator
from repro.environment.environment import ExchangeRequest
from repro.org.model import Person
from repro.org.policy import INTERACTION_MESSAGE, INTERACTION_REALTIME
from repro.sim.world import World
from tests.test_sharding import DOC, make_env

ORGS = ("upc", "gmd", "acme", "zeta")


def hire(env, person_id: str, org_id: str) -> None:
    """Register *person_id* in *org_id*, with a communicator."""
    env.knowledge_base.add_person(Person(person_id, f"Person {person_id}", org_id))
    register_endpoint(env, person_id, org_id)


def register_endpoint(env, person_id: str, site: str) -> None:
    node = f"ws-{person_id}"
    env.world.network.add_node(node, site=site)
    env.register_person(Communicator(person_id, node))


def request(sender: str, receiver: str, interaction: str = INTERACTION_MESSAGE,
            activity_id: str = ""):
    return ExchangeRequest(sender, receiver, "producer", "consumer", DOC,
                           interaction=interaction, activity_id=activity_id)


def outcome_fields(outcome) -> dict:
    return {f.name: getattr(outcome, f.name) for f in fields(outcome)
            if f.name != "trace_id"}


class TestCostCounters:
    PER_ORG = 16

    def test_random_cross_org_traffic_after_one_touch_never_misses(self, world):
        env = make_env(world, orgs=ORGS)
        kb = env.knowledge_base
        people = {org: [f"p-{org}"] for org in ORGS}
        for org in ORGS:
            for index in range(1, self.PER_ORG):
                hire(env, f"{org}-{index}", org)
                people[org].append(f"{org}-{index}")
        lookups = []
        resolve = kb.organisation_of

        def counting_organisation_of(person_id):
            lookups.append(person_id)
            return resolve(person_id)

        kb.organisation_of = counting_organisation_of

        # touch every person once; receivers rotate over the other three
        # orgs so all 12 ordered org pairs get their verdict
        for position, org in enumerate(ORGS):
            for index, sender in enumerate(people[org]):
                other = ORGS[(position + 1 + index % 3) % len(ORGS)]
                assert env.exchange(request(sender, people[other][index])).delivered
        touched = env.resolution.stats()
        assert len(lookups) == len(ORGS) * self.PER_ORG
        checks = kb.policies.checks

        rng = random.Random(13)
        for _ in range(500):
            sender_org, receiver_org = rng.sample(ORGS, 2)
            outcome = env.exchange(request(rng.choice(people[sender_org]),
                                           rng.choice(people[receiver_org])))
            assert outcome.delivered
        stats = env.resolution.stats()
        assert stats["route_misses"] == touched["route_misses"]
        assert stats["route_hits"] == touched["route_hits"] + 500
        assert len(lookups) == len(ORGS) * self.PER_ORG
        assert kb.policies.checks == checks
        # one check per distinct (org pair, interaction): 12 pairs, 1 kind
        assert checks <= len(ORGS) * (len(ORGS) - 1)
        assert stats["people_cached"] == len(ORGS) * self.PER_ORG
        assert stats["routes_cached"] <= len(ORGS) ** 2  # org pairs x 1 interaction


#: ids the machine may hire; every one is also sent to before it exists
NAMES = ("n0", "n1")
#: never hired: exchanges with these are always unresolvable
GHOSTS = ("ghost",)
INITIAL = tuple(f"p-{org}" for org in ORGS)
EVERYONE = INITIAL + NAMES + GHOSTS
#: people with an endpoint at the start
ENDPOINTS = INITIAL + NAMES
#: the one activity; its first members are the first two initial people
ACTIVITY = "review"
#: one request per (sender, receiver, activity scope), twice over, so
#: exchange_many groups each pair into a run of two
ENTRY_POINT_BATCH = [
    request(sender, receiver, activity_id=activity_id)
    for sender in (INITIAL[0], NAMES[0])
    for receiver in EVERYONE
    for activity_id in ("", ACTIVITY)
    for _ in range(2)
]


class WarmColdParity(RuleBasedStateMachine):
    """A warm and a cold environment fed one history must agree."""

    def __init__(self) -> None:
        super().__init__()
        self.warm = make_env(World(seed=42), orgs=ORGS)
        self.cold = make_env(World(seed=42), orgs=ORGS, cache=False)
        for env in self.envs():
            # every org starts with one partner it may not interact with
            env.knowledge_base.policies.revoke("upc", "gmd", symmetric=True)
            env.knowledge_base.policies.revoke("acme", "zeta", symmetric=True)
            # endpoints exist before the KB knows the people behind them
            for name in NAMES:
                register_endpoint(env, name, "upc")
            env.create_activity(ACTIVITY, "parity review",
                                {person: "member" for person in INITIAL[:2]})
        self.members = set(INITIAL)
        #: person -> node of an endpoint removed from both environments
        self.unplugged: dict[str, str] = {}

    def envs(self):
        return (self.warm, self.cold)

    @precondition(lambda self: not self.members.issuperset(NAMES))
    @rule(data=st.data(), org=st.sampled_from(ORGS), direct=st.booleans())
    def add_person(self, data, org, direct):
        name = data.draw(st.sampled_from(sorted(set(NAMES) - self.members)))
        for env in self.envs():
            person = Person(name, f"Person {name}", org)
            if direct:
                # bypasses the KB mutator: no change event fires
                env.knowledge_base.organisation(org).add_person(person)
            else:
                env.knowledge_base.add_person(person)
        self.members.add(name)

    @precondition(lambda self: self.members)
    @rule(data=st.data(), org=st.sampled_from(ORGS))
    def move_person(self, data, org):
        person = data.draw(st.sampled_from(sorted(self.members)))
        for env in self.envs():
            env.knowledge_base.move_person(person, org)

    @precondition(lambda self: self.members)
    @rule(data=st.data())
    def remove_person(self, data):
        person = data.draw(st.sampled_from(sorted(self.members)))
        for env in self.envs():
            env.knowledge_base.remove_person(person)
        self.members.discard(person)

    @rule(
        pair=st.sampled_from([(a, b) for a in ORGS for b in ORGS if a < b]),
        allowed=st.sampled_from([{"*"}, {INTERACTION_MESSAGE}, {INTERACTION_REALTIME}]),
        symmetric=st.booleans(),
    )
    def declare_policy(self, pair, allowed, symmetric):
        for env in self.envs():
            env.knowledge_base.policies.declare(*pair, allowed, symmetric=symmetric)

    @rule(pair=st.sampled_from([(a, b) for a in ORGS for b in ORGS if a != b]),
          symmetric=st.booleans())
    def revoke_policy(self, pair, symmetric):
        for env in self.envs():
            env.knowledge_base.policies.revoke(*pair, symmetric=symmetric)

    @precondition(lambda self: len(self.unplugged) < len(ENDPOINTS))
    @rule(data=st.data())
    def deregister_endpoint(self, data):
        person = data.draw(st.sampled_from(sorted(set(ENDPOINTS) - set(self.unplugged))))
        for env in self.envs():
            node = env.communicators.get(person).node
            env.deregister_person(person)
        self.unplugged[person] = node

    @precondition(lambda self: self.unplugged)
    @rule(data=st.data())
    def reregister_endpoint(self, data):
        person = data.draw(st.sampled_from(sorted(self.unplugged)))
        node = self.unplugged.pop(person)
        for env in self.envs():
            env.register_person(Communicator(person, node))

    @rule(person=st.sampled_from(EVERYONE), join=st.booleans())
    def join_or_leave_activity(self, person, join):
        for env in self.envs():
            activity = env.activities.get(ACTIVITY)
            if join:
                activity.join(person)
            elif activity.is_member(person):
                activity.leave(person)

    @precondition(lambda self: len(self.unplugged) < len(ENDPOINTS))
    @rule(data=st.data())
    def flip_presence(self, data):
        person = data.draw(st.sampled_from(sorted(set(ENDPOINTS) - set(self.unplugged))))
        for env in self.envs():
            if env.communicators.get(person).present:
                env.person_leaves(person)
            else:
                env.person_arrives(person)

    @invariant()
    def entry_points_agree(self):
        # per-request exchange on one twin, one exchange_many on the
        # other: both twins deliver the same items, so they stay in step
        singles = [self.warm.exchange(ask) for ask in ENTRY_POINT_BATCH]
        batched = self.cold.exchange_many(ENTRY_POINT_BATCH)
        assert [outcome_fields(o) for o in singles] == [outcome_fields(o) for o in batched]

    @invariant()
    def every_pair_agrees(self):
        # every ordered pair, hired or not: a stale memo entry for any
        # pair shows up at the first exchange after the mutation
        for interaction in (INTERACTION_MESSAGE, INTERACTION_REALTIME):
            for sender in EVERYONE:
                for receiver in EVERYONE:
                    ask = request(sender, receiver, interaction)
                    warm, cold = self.warm.exchange(ask), self.cold.exchange(ask)
                    assert outcome_fields(warm) == outcome_fields(cold), ask

    @rule(
        sender=st.sampled_from(INITIAL + NAMES),
        receiver=st.sampled_from(INITIAL + NAMES),
        runs=st.integers(min_value=1, max_value=3),
    )
    def exchange_many(self, sender, receiver, runs):
        batch = [request(sender, receiver) for _ in range(runs)]
        warm = self.warm.exchange_many(batch)
        cold = self.cold.exchange_many(batch)
        assert [outcome_fields(o) for o in warm] == [outcome_fields(o) for o in cold]


WarmColdParity.TestCase.settings = settings(
    derandomize=True,
    max_examples=12,
    stateful_step_count=10,
    deadline=None,
    database=None,
)
TestWarmColdParity = WarmColdParity.TestCase
