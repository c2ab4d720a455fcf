"""Exception hierarchy for the proactive middleware platform.

All exceptions raised by the library derive from :class:`ReproError`, so
callers can catch the whole family with a single ``except`` clause.  Each
layer of the system (simulation kernel, network, AOP engine, discovery,
MIDAS, robot substrate) has its own subtree.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


# ---------------------------------------------------------------------------
# Simulation kernel
# ---------------------------------------------------------------------------

class SimulationError(ReproError):
    """Base class for discrete-event simulation kernel errors."""


class ClockError(SimulationError):
    """An operation attempted to move a clock backwards in time."""


class ProcessError(SimulationError):
    """A simulated process was used after termination or misconfigured."""


# ---------------------------------------------------------------------------
# Network
# ---------------------------------------------------------------------------

class NetworkError(ReproError):
    """Base class for simulated-network errors."""


class UnknownNodeError(NetworkError):
    """A message was addressed to a node id not attached to the network."""


class TransportError(NetworkError):
    """A request/reply exchange failed (timeout, dropped reply, ...)."""


class RequestTimeout(TransportError):
    """A request did not receive a reply within its deadline."""


class CircuitOpenError(TransportError):
    """A request was rejected locally because the peer's circuit is open."""

    def __init__(self, peer: str, operation: str = ""):
        self.peer = peer
        self.operation = operation
        super().__init__(f"circuit to {peer!r} is open ({operation or 'any'})")


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------

class FaultPlanError(ReproError):
    """A fault plan is malformed (unknown action, bad window, ...)."""


# ---------------------------------------------------------------------------
# AOP engine (PROSE)
# ---------------------------------------------------------------------------

class AopError(ReproError):
    """Base class for PROSE (dynamic AOP) errors."""


class PatternSyntaxError(AopError):
    """A crosscut signature pattern could not be parsed."""


class WeaveError(AopError):
    """An aspect could not be inserted into (woven through) the runtime."""


class NotWovenError(AopError):
    """An attempt was made to withdraw an aspect that is not inserted."""


class ClassNotLoadedError(AopError):
    """An operation required a class that was never loaded into the VM."""


class AdviceError(AopError):
    """Advice code raised an error that the engine chose to surface."""


class AdviceBudgetExceeded(AdviceError):
    """Advice exhausted its supervision step budget and was aborted."""

    def __init__(self, advice_label: str, budget: int):
        self.advice_label = advice_label
        self.budget = budget
        super().__init__(f"advice {advice_label!r} exceeded its step budget ({budget})")


class SandboxViolation(AopError):
    """Extension code attempted a resource access its sandbox policy denies."""

    def __init__(self, capability: str, aspect_name: str | None = None):
        self.capability = capability
        self.aspect_name = aspect_name
        who = aspect_name or "extension"
        super().__init__(f"{who} denied capability {capability!r}")


# ---------------------------------------------------------------------------
# Discovery (Jini workalike)
# ---------------------------------------------------------------------------

class DiscoveryError(ReproError):
    """Base class for spontaneous-networking (discovery) errors."""


class RegistrationError(DiscoveryError):
    """A service registration was rejected or has expired."""


# ---------------------------------------------------------------------------
# Leasing
# ---------------------------------------------------------------------------

class LeaseError(ReproError):
    """Base class for lease protocol errors."""


class LeaseExpiredError(LeaseError):
    """An operation was attempted on a lease that has already expired."""


class LeaseDeniedError(LeaseError):
    """The grantor refused to grant or renew a lease."""


# ---------------------------------------------------------------------------
# MIDAS extension management
# ---------------------------------------------------------------------------

class MidasError(ReproError):
    """Base class for MIDAS extension-management errors."""


class VerificationError(MidasError):
    """An extension's signature failed verification."""


class UntrustedSignerError(MidasError):
    """An extension is signed by a party the receiver does not trust."""


class UnknownExtensionError(MidasError):
    """An extension id is not present in the relevant catalog/registry."""


class DependencyError(MidasError):
    """An implicit (required) extension could not be resolved."""


class VettingError(MidasError):
    """Static vetting found install-blocking defects in an extension."""

    def __init__(self, message: str, report: object = None):
        #: The offending :class:`~repro.vetting.report.VetReport`, when
        #: the rejection came from an actual vet run (None for e.g. a
        #: tampered report hash).
        self.report = report
        super().__init__(message)


class DistributionError(MidasError):
    """An extension base failed to deliver an extension to a receiver."""


class PipelineOverloadError(MidasError):
    """A base-station pipeline shed work because its accept queue is full."""


# ---------------------------------------------------------------------------
# Robot substrate
# ---------------------------------------------------------------------------

class RobotError(ReproError):
    """Base class for robot-substrate errors."""


class HardwareError(RobotError):
    """A device-level fault (unknown port, invalid power, ...)."""


class HardwareFrozenError(RobotError):
    """A hardware macro was issued while the hardware is frozen by an event."""


class TaskError(RobotError):
    """Task-layer misuse (aborting a task that never ran, ...)."""


class MovementDeniedError(RobotError):
    """A movement was blocked by a control extension's policy."""


class AccessDeniedError(ReproError):
    """A call was rejected by the access-control extension."""


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------

class StoreError(ReproError):
    """Base class for movement-store errors."""


class QueryError(StoreError):
    """A malformed query was issued against the movement store."""
