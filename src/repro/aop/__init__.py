"""PROSE — a dynamic aspect-oriented programming engine for Python.

This package reproduces the first layer of the paper's platform: PROSE
(PROgrammable extensions of sErvices).  In the original system a modified
JIT compiler plants *minimal hooks* (stubs) at every potential join point
of every loaded class; inserting a first-class aspect object activates
advice at the join points matched by its crosscut, withdrawing it
deactivates them, all at run time and without restarting the application.

Our Python analogue keeps the same architecture:

- :class:`~repro.aop.vm.ProseVM` "loads" classes by rewriting them in
  place — every method is replaced by a copy that runs its own code until
  advice swaps in a dispatcher, and ``__setattr__`` is stubbed while
  field-write advice is active.  Nothing stands in front of a join point
  that no advice needs.
- :class:`~repro.aop.aspect.Aspect` is the first-class extension unit;
  advice methods are declared with :func:`before` / :func:`after` /
  :func:`around` / :func:`after_throwing` decorators over crosscuts.
- Crosscuts use the paper's wildcard signature language
  (``"* *.send*(bytes, ..)"``) via :func:`~repro.aop.signature.parse_signature`.
- :class:`~repro.aop.sandbox.AspectSandbox` isolates extension code from
  system resources with a capability policy (the "aspect sandbox").
"""

from repro.aop.advice import Advice, AdviceKind
from repro.aop.aspect import (
    Aspect,
    after,
    after_throwing,
    around,
    before,
)
from repro.aop.context import ExecutionContext, FieldWriteContext
from repro.aop.hooks import AdviceContainment
from repro.aop.crosscut import (
    REST,
    Crosscut,
    ExceptionCut,
    FieldWriteCut,
    MethodCut,
)
from repro.aop.joinpoint import JoinPoint, JoinPointKind
from repro.aop.sandbox import (
    AspectSandbox,
    Capability,
    SandboxPolicy,
    SystemGateway,
    UnknownCapabilityWarning,
    current_sandbox,
)
from repro.aop.signature import MethodSignature, parse_signature
from repro.aop.vm import ProseVM

__all__ = [
    "Advice",
    "AdviceContainment",
    "AdviceKind",
    "Aspect",
    "AspectSandbox",
    "Capability",
    "Crosscut",
    "ExceptionCut",
    "ExecutionContext",
    "FieldWriteContext",
    "FieldWriteCut",
    "JoinPoint",
    "JoinPointKind",
    "MethodCut",
    "MethodSignature",
    "ProseVM",
    "REST",
    "SandboxPolicy",
    "SystemGateway",
    "UnknownCapabilityWarning",
    "after",
    "after_throwing",
    "around",
    "before",
    "current_sandbox",
    "parse_signature",
]
