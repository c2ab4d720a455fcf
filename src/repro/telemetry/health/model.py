"""The health model: conditions → subsystem statuses → one overall verdict.

Burn alerts say *an objective is failing*; resilience and supervision
state say *why it might be* (a breaker is open, an extension is
quarantined, the pipeline is shedding).  The model folds both into
per-subsystem :class:`Condition`\\ s, each carrying an explicit
:class:`Cause` chain, and reduces them to statuses::

    healthy < degraded < critical

A subsystem's status is its worst condition; the platform's overall
status is the worst subsystem.  Probes are plain callables returning
conditions, registered with :meth:`HealthModel.add_probe` — the plane
ships standard probes (breakers, quarantines, pipeline shedding) and
harnesses add their own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

#: Status order, best first.  Comparisons use index in this tuple.
STATUSES = ("healthy", "degraded", "critical")


def worst_status(statuses: Iterable[str]) -> str:
    """The worst of ``statuses`` ("healthy" when empty)."""
    worst = 0
    for status in statuses:
        rank = STATUSES.index(status)
        if rank > worst:
            worst = rank
    return STATUSES[worst]


@dataclass(frozen=True)
class Cause:
    """One link in a cause chain (optionally with nested sub-causes)."""

    kind: str
    subject: str
    detail: str = ""
    causes: tuple["Cause", ...] = ()

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"kind": self.kind, "subject": self.subject}
        if self.detail:
            out["detail"] = self.detail
        if self.causes:
            out["causes"] = [c.to_dict() for c in self.causes]
        return out


@dataclass(frozen=True)
class Condition:
    """One judged fact about one subsystem."""

    subsystem: str
    status: str
    summary: str
    cause: Cause | None = None

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ValueError(f"unknown status {self.status!r}")

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "subsystem": self.subsystem,
            "status": self.status,
            "summary": self.summary,
        }
        if self.cause is not None:
            out["cause"] = self.cause.to_dict()
        return out


@dataclass
class HealthReport:
    """The model's full output at one instant."""

    time: float
    overall: str
    #: subsystem -> status (worst of its conditions).
    subsystems: dict[str, str]
    conditions: list[Condition]
    #: SLO snapshots (from the engine) for the tower's burn table.
    slos: list[dict[str, Any]] = field(default_factory=list)
    #: Recent burn/recovery alerts, oldest first.
    alerts: list[dict[str, Any]] = field(default_factory=list)

    @property
    def healthy(self) -> bool:
        return self.overall == "healthy"

    def to_dict(self) -> dict[str, Any]:
        return {
            "time": self.time,
            "overall": self.overall,
            "subsystems": dict(sorted(self.subsystems.items())),
            "conditions": [c.to_dict() for c in self.conditions],
            "slos": self.slos,
            "alerts": self.alerts,
        }


#: A probe yields zero or more conditions when polled.
Probe = Callable[[], Iterable[Condition]]


class HealthModel:
    """Aggregates probe conditions and SLO burns into statuses."""

    #: Burn severity → condition status.
    SEVERITY_STATUS = {"page": "critical", "ticket": "degraded"}

    def __init__(self) -> None:
        self._probes: list[tuple[str, Probe]] = []
        #: Subsystems that should appear even when nothing is wrong.
        self._known: set[str] = set()

    def add_probe(self, name: str, probe: Probe) -> None:
        self._probes.append((name, probe))

    def declare_subsystem(self, *names: str) -> None:
        """Make subsystems show up as healthy before any condition exists."""
        self._known.update(names)

    def conditions_from_burns(self, engine: Any, now: float) -> list[Condition]:
        """SLO burn state → conditions with burn → sample cause chains."""
        conditions: list[Condition] = []
        active = set(engine.active())
        for slo in engine.slos:
            self._known.add(slo.subsystem)
            for pair in slo.pairs:
                if (slo.name, pair.name) not in active:
                    continue
                burn_long = slo.burn_rate(pair.long_window, now)
                burn_short = slo.burn_rate(pair.short_window, now)
                sub_causes: tuple[Cause, ...] = ()
                if slo.last_bad or slo.last_bad_at is not None:
                    subject = (
                        slo.last_bad.get("node")
                        or slo.last_bad.get("station")
                        or slo.last_bad.get("peer")
                        or next(iter(slo.last_bad.values()), "unknown")
                    )
                    at = (
                        f" at t={slo.last_bad_at:.1f}s"
                        if slo.last_bad_at is not None
                        else ""
                    )
                    sub_causes = (
                        Cause(
                            "sample",
                            subject,
                            f"most recent bad sample{at} "
                            f"({', '.join(f'{k}={v}' for k, v in sorted(slo.last_bad.items())) or 'no labels'})",
                        ),
                    )
                cause = Cause(
                    "slo.burn",
                    slo.name,
                    f"{pair.severity} burn on {pair.name} pair: "
                    f"long={burn_long:.1f}x short={burn_short:.1f}x "
                    f"(threshold {pair.threshold:g}x, target {slo.target:g})",
                    causes=sub_causes,
                )
                conditions.append(
                    Condition(
                        subsystem=slo.subsystem,
                        status=self.SEVERITY_STATUS[pair.severity],
                        summary=(
                            f"SLO {slo.name} burning error budget "
                            f"{burn_long:.1f}x over target {slo.target:g} "
                            f"[{slo.description}]"
                        ),
                        cause=cause,
                    )
                )
        return conditions

    def evaluate(self, now: float, engine: Any | None = None) -> HealthReport:
        """Poll every probe (plus the SLO engine) and reduce to a report."""
        conditions: list[Condition] = []
        if engine is not None:
            conditions.extend(self.conditions_from_burns(engine, now))
        for _, probe in self._probes:
            conditions.extend(probe())
        subsystems: dict[str, list[str]] = {name: [] for name in self._known}
        for condition in conditions:
            subsystems.setdefault(condition.subsystem, []).append(condition.status)
        statuses = {
            name: worst_status(found) for name, found in subsystems.items()
        }
        return HealthReport(
            time=now,
            overall=worst_status(statuses.values()),
            subsystems=statuses,
            conditions=conditions,
            slos=engine.snapshot(now) if engine is not None else [],
            alerts=[a.to_dict() for a in engine.alerts] if engine is not None else [],
        )
