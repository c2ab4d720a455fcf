"""The application the ledger's mobile nodes run.

Every node of ``hall_lifecycle`` and ``policy_churn`` loads its own copy
of these classes, because :class:`~repro.aop.vm.ProseVM` instruments a
class in place: two VMs loading one class object would share (and
double) its hooks.  Calls made here are the ``app`` layer of a traced
run; each returns a value the caller checks, so advice that corrupted a
result would fail the run.
"""

from __future__ import annotations


def app_classes() -> tuple[type, type]:
    """A fresh ``(Motor, Ticket)`` pair, never loaded into any VM."""

    class Motor:
        """A device the hall's monitoring extension watches."""

        def __init__(self, device_id: str):
            self.device_id = device_id
            self.position = 0

        def forward(self, steps: int) -> int:
            self.position += steps
            return self.position

    class Ticket:
        """A service the hall bills for."""

        def fare(self, zones: int) -> int:
            return 2 * zones + 1

    return Motor, Ticket


class App:
    """One node's application instance: a motor and a ticket machine."""

    def __init__(self, node_id: str, classes: tuple[type, type]):
        motor_cls, ticket_cls = classes
        self.motor = motor_cls(f"{node_id}.motor")
        self.ticket = ticket_cls()
        self.calls = 0
        self.wrong = 0

    def tick(self, steps: int) -> None:
        """Two advised calls; counts any result that is not the expected one."""
        before = self.motor.position
        if self.motor.forward(steps) != before + steps:
            self.wrong += 1
        if self.ticket.fare(steps) != 2 * steps + 1:
            self.wrong += 1
        self.calls += 2
