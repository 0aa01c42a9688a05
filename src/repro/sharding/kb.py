"""A sharded, indexed organisational knowledge base.

Drop-in subclass of
:class:`~repro.org.knowledge_base.OrganisationalKnowledgeBase` built for
populations the base class cannot serve:

* **O(1) person resolution.**  The base ``find_person`` scans every
  organisation on every call — fine for a workgroup, ruinous for 10^5+
  users, and it sits directly on the exchange hot path (the resolution
  cache's cold miss calls ``organisation_of`` twice).  This subclass
  maintains a person -> org index kept in step by the KB-level mutators,
  with a lazy fallback scan for people registered directly on an
  :class:`~repro.org.model.Organisation`.

* **Sharded white pages.**  Every organisation subtree
  (``o=<org_id>,c=<country>``) lives on exactly one
  :class:`~repro.directory.dsa.DirectoryServiceAgent` of a
  :class:`~repro.sharding.directory.ShardedDirectory`; ``add_person`` /
  ``move_person`` / ``remove_person`` create, migrate and delete the
  person's entry on the owning shard(s), so a directory lookup touches
  one DSA no matter how large the federation grows.

Directory entries are keyed by id (``cn=<person_id>,o=<org_id>,c=..``),
not display name — ids are unique across the KB, names are not.

Keyed change notifications (kind, entity id, org) are inherited from the
base class: the environment's resolution cache memoises person -> org
itself, and a person event makes it forget only that person, which is
what keeps mutation storms from wrecking the warm path at scale.  The
index here serves the cache's misses and every direct KB lookup.
"""

from __future__ import annotations

from repro.directory.dit import Entry
from repro.directory.schema import Schema
from repro.org.knowledge_base import OrganisationalKnowledgeBase
from repro.org.model import Organisation, Person
from repro.sharding.directory import ShardedDirectory
from repro.util.errors import UnknownObjectError


class ShardedKnowledgeBase(OrganisationalKnowledgeBase):
    """Org/people knowledge partitioned across N directory shards."""

    def __init__(
        self,
        n_shards: int = 4,
        country: str = "ES",
        schema: Schema | None = None,
        replicas: int = 64,
    ) -> None:
        super().__init__()
        self.country = country
        self.directory = ShardedDirectory(
            n_shards=n_shards, name="kb-dsa", schema=schema, replicas=replicas
        )
        self._person_org: dict[str, str] = {}

    # -- naming ------------------------------------------------------------
    def org_dn(self, org_id: str) -> str:
        """The DIT subtree boundary (and hash key) of one organisation."""
        return f"o={org_id},c={self.country}"

    def person_dn(self, person_id: str, org_id: str) -> str:
        """The white-pages DN of one person under their organisation."""
        return f"cn={person_id},{self.org_dn(org_id)}"

    def shard_of_org(self, org_id: str) -> str:
        """The dsa_id owning an organisation's subtree."""
        return self.directory.shard_id_for(self.org_dn(org_id))

    def shard_of_person(self, person_id: str) -> str:
        """The dsa_id owning a person's entry (their org's shard)."""
        return self.shard_of_org(self.organisation_of(person_id))

    # -- indexed resolution ------------------------------------------------
    def find_person(self, person_id: str) -> Person:
        """O(1) person lookup via the index (scan fallback, then cached)."""
        org_id = self._person_org.get(person_id)
        if org_id is not None:
            try:
                return self.organisation(org_id).person(person_id)
            except UnknownObjectError:
                # stale index entry (direct Organisation mutation); re-scan
                self._person_org.pop(person_id, None)
        person = super().find_person(person_id)
        self._person_org[person.person_id] = person.organisation
        return person

    def resolve_person_entry(self, person_id: str) -> Entry:
        """The person's white-pages entry, read from the owning shard only."""
        person = self.find_person(person_id)
        return self.directory.read(self.person_dn(person_id, person.organisation))

    # -- mutators (keep index + shards in step, then notify via super) -----
    def add_organisation(self, organisation: Organisation) -> Organisation:
        result = super().add_organisation(organisation)
        if not self.directory.exists(self.org_dn(organisation.org_id)):
            self.directory.add(
                self.org_dn(organisation.org_id),
                {"objectclass": ["organization"], "description": [organisation.name]},
            )
        for person in organisation.persons():
            self._person_org[person.person_id] = organisation.org_id
            self._publish_person(person)
        return result

    def add_person(self, person: Person) -> Person:
        result = super().add_person(person)
        self._person_org[person.person_id] = person.organisation
        self._publish_person(person)
        return result

    def move_person(self, person_id: str, to_org: str) -> Person:
        previous = self.find_person(person_id)
        moved = super().move_person(person_id, to_org)
        self._person_org[person_id] = to_org
        old_dn = self.person_dn(person_id, previous.organisation)
        if self.directory.exists(old_dn):
            self.directory.delete(old_dn)
        self._publish_person(moved)
        return moved

    def remove_person(self, person_id: str) -> Person:
        person = super().remove_person(person_id)
        self._person_org.pop(person_id, None)
        entry_dn = self.person_dn(person_id, person.organisation)
        if self.directory.exists(entry_dn):
            self.directory.delete(entry_dn)
        return person

    def _publish_person(self, person: Person) -> None:
        entry_dn = self.person_dn(person.person_id, person.organisation)
        if self.directory.exists(entry_dn):
            return
        attributes = {
            "objectclass": ["person"],
            "sn": [person.name.split()[-1] if person.name else person.person_id],
            "role": self.relations.roles_of(person.person_id),
        }
        if person.or_name is not None:
            attributes["mail"] = [str(person.or_name)]
        self.directory.add(entry_dn, attributes)

    # -- introspection -----------------------------------------------------
    def stats(self) -> dict[str, object]:
        """Index size plus the sharded directory's per-shard counters."""
        return {
            "indexed_persons": len(self._person_org),
            "organisations": len(self.organisations()),
            "directory": self.directory.stats(),
        }
