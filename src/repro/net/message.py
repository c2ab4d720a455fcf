"""Network messages.

A message carries a ``kind`` string used for handler dispatch and an
arbitrary ``payload``.  The network guarantees that no mutable state is
shared between nodes through a message, the same discipline a
serializing network imposes: each delivery hands the receiver its own
copy of the payload, made by :func:`repro.net.wire.clone` (equal to
``copy.deepcopy``).  The copy is taken at delivery, so a sender that
mutates a payload after sending it and before it arrives changes what
arrives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.util.ids import fresh_id

#: Destination address meaning "every node currently in radio range".
BROADCAST = "*"


@dataclass(frozen=True)
class Message:
    """One network datagram."""

    source: str
    destination: str
    kind: str
    payload: Any = None
    message_id: str = field(default_factory=lambda: fresh_id("msg"))
    #: Telemetry trace context (wire form of
    #: :class:`repro.telemetry.spans.SpanContext`), stamped by the sending
    #: node when an operation span is active there.  None on ordinary
    #: traffic; handlers on the receiving node run under this context, so
    #: cross-node protocol chains share one trace id.
    trace: dict | None = None

    @property
    def is_broadcast(self) -> bool:
        """True if this message was addressed to every node in range."""
        return self.destination == BROADCAST

    def __repr__(self) -> str:
        return (
            f"<Message {self.kind} {self.source}->{self.destination} "
            f"id={self.message_id}>"
        )
