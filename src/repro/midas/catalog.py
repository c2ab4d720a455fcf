"""The extension catalog of a base station.

"Extension base nodes contain a list of extensions" (§3.2).  A catalog
entry holds a *factory* — extensions are instantiated and configured per
distribution (the signature covers the configured instance, per the
paper's security model) — plus the version counter that drives extension
replacement when the local policy evolves.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from repro.aop.aspect import Aspect
from repro.errors import UnknownExtensionError, VettingError
from repro.midas.envelope import ExtensionEnvelope
from repro.midas.trust import Signer
from repro.telemetry.runtime import get_recorder

ExtensionFactory = Callable[[], Aspect]


class _Entry:
    __slots__ = (
        "name",
        "factory",
        "version",
        "unhealthy",
        "vet_report",
        "advice_summary",
        "vet_report_dict",
        "vet_signature",
        "pending_aspect",
    )

    def __init__(self, name: str, factory: ExtensionFactory):
        self.name = name
        self.factory = factory
        self.version = 1
        #: node_class -> version that was reported unhealthy there.  The
        #: extension stays suppressed for that class until a newer
        #: version is published (``add`` bumps past the mark).
        self.unhealthy: dict[str, int] = {}
        #: VetReport from :meth:`ExtensionCatalog.publish`, or None for
        #: entries added through the legacy unvetted :meth:`add` path.
        self.vet_report = None
        #: ExtensionSummary cached so vetting the next publication
        #: against this entry never re-instantiates the factory.
        self.advice_summary = None
        #: Canonical report dict + signature, computed once at publish
        #: so :meth:`ExtensionCatalog.seal` never re-digests or re-signs.
        self.vet_report_dict = None
        self.vet_signature = None
        #: The instance :meth:`ExtensionCatalog.publish` vetted, shipped
        #: by the next :meth:`ExtensionCatalog.seal` — the verdict then
        #: covers exactly the instance that travels.
        self.pending_aspect = None


class ExtensionCatalog:
    """Named extension factories with versioning."""

    def __init__(self, signer: Signer):
        self.signer = signer
        self._entries: dict[str, _Entry] = {}

    def add(self, name: str, factory: ExtensionFactory) -> None:
        """Add (or re-add) an extension under ``name``.

        Re-adding bumps the version — used by
        :meth:`~repro.midas.base.ExtensionBase.replace_extension` when a
        hall's policy changes.
        """
        existing = self._entries.get(name)
        if existing is None:
            self._entries[name] = _Entry(name, factory)
        else:
            existing.factory = factory
            existing.version += 1
            existing.vet_report = None
            existing.advice_summary = None
            existing.vet_report_dict = None
            existing.vet_signature = None
            existing.pending_aspect = None

    def publish(
        self,
        name: str,
        factory: ExtensionFactory,
        strict: bool = False,
        allowlist: Iterable[frozenset[str]] | None = None,
    ):
        """Vet, then add: the gated path into the catalog.

        Instantiates the factory once, runs the static vetter over the
        configured instance — including interference against every other
        vetted entry — and refuses with :class:`VettingError` when the
        report carries install-blocking findings.  On success the entry
        is added (or version-bumped) and the report travels in every
        envelope :meth:`seal` produces for it.

        Returns the :class:`~repro.vetting.report.VetReport` so callers
        can surface warnings even for accepted extensions.
        """
        from repro.vetting.interference import summarize
        from repro.vetting.vetter import Vetter

        aspect = factory()
        if not isinstance(aspect, Aspect):
            raise UnknownExtensionError(
                f"factory for {name!r} returned {type(aspect).__name__}, not an Aspect"
            )
        vetter = Vetter(strict=strict, allowlist=allowlist)
        against = [
            entry.advice_summary
            for entry in self._entries.values()
            if entry.advice_summary is not None and entry.name != name
        ]
        summary = summarize(name, aspect)
        report = vetter.vet_instance(
            aspect, extension=name, against=against, summary=summary
        )
        recorder = get_recorder()
        if report.has_errors:
            recorder.count("midas.vet_rejections")
            recorder.event(
                "midas.vet_rejected",
                extension=name,
                stage="publish",
                rules=sorted({f.rule for f in report.errors()}),
            )
            raise VettingError(
                f"extension {name!r} failed vetting: "
                + "; ".join(f.message for f in report.errors()),
                report=report,
            )
        prior = self._entries.get(name)
        reuse = prior is not None and prior.vet_report is report
        prior_dict = prior.vet_report_dict if reuse else None
        prior_signature = prior.vet_signature if reuse else None
        self.add(name, factory)
        entry = self._entries[name]
        entry.vet_report = report
        entry.advice_summary = summary
        entry.pending_aspect = aspect
        # Sealing reuses the canonical dict and signature; the report is
        # immutable once accepted, so sign it once rather than per
        # envelope.  Re-publication of an unchanged configuration hits
        # the vetter's memo (same report object) and keeps both as-is.
        if reuse:
            entry.vet_report_dict = prior_dict
            entry.vet_signature = prior_signature
        else:
            entry.vet_report_dict = report.as_dict()
            entry.vet_signature = self.signer.sign(report.digest())
        return report

    def vet_report_of(self, name: str):
        """The publish-time report for ``name`` (None if added unvetted)."""
        return self._require(name).vet_report

    def remove(self, name: str) -> None:
        """Remove ``name`` from the catalog."""
        if name not in self._entries:
            raise UnknownExtensionError(f"no extension {name!r} in catalog")
        del self._entries[name]

    def names(self) -> list[str]:
        """All catalog entry names, in insertion order."""
        return list(self._entries)

    # -- health -----------------------------------------------------------------

    def mark_unhealthy(
        self, name: str, node_class: str, version: int | None = None
    ) -> None:
        """Record that ``version`` misbehaved on nodes of ``node_class``.

        Defaults to the current version.  Marks never regress: a stale
        report about an older version cannot re-poison a newer one.
        """
        entry = self._require(name)
        marked = entry.version if version is None else version
        if marked > entry.unhealthy.get(node_class, 0):
            entry.unhealthy[node_class] = marked

    def is_healthy(self, name: str, node_class: str) -> bool:
        """False while the current version is marked bad for ``node_class``.

        Unknown names are vacuously healthy (nothing to suppress).
        Publishing a fixed extension via :meth:`add` bumps the version
        past the mark and heals the pair automatically.
        """
        entry = self._entries.get(name)
        if entry is None:
            return True
        return entry.unhealthy.get(node_class, 0) < entry.version

    def version_of(self, name: str) -> int:
        """Current version of ``name``."""
        return self._require(name).version

    def seal(self, name: str) -> ExtensionEnvelope:
        """Instantiate, configure, serialize and sign extension ``name``.

        The first seal after :meth:`publish` ships the very instance the
        vetter analyzed; later seals instantiate the factory afresh.
        """
        entry = self._require(name)
        if entry.pending_aspect is not None:
            aspect, entry.pending_aspect = entry.pending_aspect, None
        else:
            aspect = entry.factory()
            if not isinstance(aspect, Aspect):
                raise UnknownExtensionError(
                    f"factory for {name!r} returned {type(aspect).__name__}, not an Aspect"
                )
        return ExtensionEnvelope.seal(
            name,
            aspect,
            self.signer,
            version=entry.version,
            vet_report=entry.vet_report_dict,
            vet_signature=entry.vet_signature,
        )

    def seal_all(self) -> Iterator[ExtensionEnvelope]:
        """Fresh envelopes for every catalog entry."""
        for name in self._entries:
            yield self.seal(name)

    def _require(self, name: str) -> _Entry:
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownExtensionError(f"no extension {name!r} in catalog") from None

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __repr__(self) -> str:
        return f"<ExtensionCatalog {self.names()}>"
