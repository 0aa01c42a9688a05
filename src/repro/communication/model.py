"""The communication model: communicators, exchanges, contexts.

Paper section 5: *"The communication model aims to represents
communication in terms of the communicators, the information objects they
exchange, and the context within which communication takes place."*

A :class:`Communicator` is a person's communication endpoint (their node,
the media they can receive, and their presence).  Every concrete exchange
— synchronous or asynchronous — is recorded in the
:class:`CommunicationLog`, which supports the who-talks-to-whom analyses
message-based systems build on.  The environment's hot path appends each
exchange as a plain row; readers see :class:`Exchange` records, built
from the rows on first read.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from repro.messaging.body_parts import MEDIA_TEXT
from repro.messaging.names import OrName
from repro.util.errors import ConfigurationError, UnknownObjectError


@dataclass
class Communicator:
    """One person's communication endpoint."""

    person_id: str
    node: str
    or_name: OrName | None = None
    #: media this communicator can receive directly
    accepts_media: set[str] = field(default_factory=lambda: {MEDIA_TEXT})
    #: presence: True while the user is at their workstation
    present: bool = True

    def __post_init__(self) -> None:
        if not self.person_id or not self.node:
            raise ConfigurationError("communicator needs a person id and a node")
        if not self.accepts_media:
            raise ConfigurationError("communicator must accept at least one medium")

    def can_receive(self, media: str) -> bool:
        """True when the medium needs no conversion for this communicator."""
        return media in self.accepts_media


@dataclass(frozen=True)
class CommunicationContext:
    """The setting of an exchange: activity, purpose, organisation pair."""

    activity: str = ""
    purpose: str = ""
    from_org: str = ""
    to_org: str = ""


@dataclass(frozen=True)
class Exchange:
    """One recorded communication act."""

    sender: str
    receiver: str
    mode: str  # "synchronous" | "asynchronous"
    media: str
    size_bytes: int
    time: float
    context: CommunicationContext = CommunicationContext()
    info_objects: tuple[str, ...] = ()


class CommunicatorRegistry:
    """All communicators known to one environment."""

    def __init__(self) -> None:
        self._communicators: dict[str, Communicator] = {}

    def register(self, communicator: Communicator) -> Communicator:
        """Register an endpoint (one per person)."""
        if communicator.person_id in self._communicators:
            raise ConfigurationError(
                f"communicator for {communicator.person_id!r} already registered"
            )
        self._communicators[communicator.person_id] = communicator
        return communicator

    def get(self, person_id: str) -> Communicator:
        """Look up a communicator."""
        try:
            return self._communicators[person_id]
        except KeyError:
            raise UnknownObjectError(f"no communicator for {person_id!r}") from None

    def all(self) -> list[Communicator]:
        """All registered communicators."""
        return list(self._communicators.values())

    def remove(self, person_id: str) -> Communicator:
        """Remove and return a person's endpoint (e.g. on domain move)."""
        try:
            return self._communicators.pop(person_id)
        except KeyError:
            raise UnknownObjectError(f"no communicator for {person_id!r}") from None

    def set_presence(self, person_id: str, present: bool) -> None:
        """Flip a person's presence (arrive at / leave the workstation)."""
        self.get(person_id).present = present

    def present_ids(self) -> list[str]:
        """Everyone currently present, sorted."""
        return sorted(c.person_id for c in self._communicators.values() if c.present)


class CommunicationLog:
    """Records exchanges and answers structural queries.

    :meth:`append`, the hot-path writer, stores a plain row of atomic
    values: no record object, nothing for the cyclic collector to track.
    The first read turns pending rows into cached :class:`Exchange`
    records; rows with one setting share one :class:`CommunicationContext`.
    """

    def __init__(self) -> None:
        self._exchanges: list[Exchange] = []
        self._rows: list[tuple] = []
        self._contexts: dict[tuple[str, str, str], CommunicationContext] = {}

    def append(
        self, sender: str, receiver: str, mode: str, media: str, size_bytes: int,
        time: float, activity: str = "", from_org: str = "", to_org: str = "",
    ) -> None:
        """Append one exchange as a plain row."""
        self._rows.append(
            (sender, receiver, mode, media, size_bytes, time, activity, from_org, to_org)
        )

    def record(self, exchange: Exchange) -> None:
        """Append one exchange record (after any pending rows)."""
        self._materialised().append(exchange)

    def _materialised(self) -> list[Exchange]:
        """Every exchange in order, pending rows converted and cached."""
        if self._rows:
            contexts = self._contexts
            for *head, activity, from_org, to_org in self._rows:
                key = (activity, from_org, to_org)
                if key not in contexts:
                    contexts[key] = CommunicationContext(
                        activity=activity, from_org=from_org, to_org=to_org
                    )
                self._exchanges.append(Exchange(*head, contexts[key]))
            self._rows.clear()
        return self._exchanges

    def all(self) -> list[Exchange]:
        """All exchanges in order."""
        return list(self._materialised())

    def between(self, a: str, b: str) -> list[Exchange]:
        """Exchanges in either direction between two people."""
        pair = {a, b}
        return [e for e in self._materialised() if {e.sender, e.receiver} == pair]

    def by_mode(self, mode: str) -> list[Exchange]:
        """Exchanges of one mode."""
        return [e for e in self._materialised() if e.mode == mode]

    def in_activity(self, activity: str) -> list[Exchange]:
        """Exchanges that happened within one activity context."""
        return [e for e in self._materialised() if e.context.activity == activity]

    def traffic_matrix(self) -> dict[tuple[str, str], int]:
        """(sender, receiver) -> count of exchanges."""
        return dict(Counter((e.sender, e.receiver) for e in self._materialised()))

    def volume_bytes(self) -> int:
        """Total bytes exchanged."""
        return sum(e.size_bytes for e in self._materialised())
