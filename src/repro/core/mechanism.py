"""Mechanism plugin layer: the lifecycle protocol and registry.

Section II-B's observation -- every commercial isolation level is an
assembly of four mechanisms (CR, ME, FUW, SC) -- used to be hardwired into
the :class:`~repro.core.verifier.Verifier` as four attributes.  This module
turns each mechanism into a plugin:

* :class:`MechanismVerifier` is the lifecycle contract the orchestrator
  drives (``on_read`` / ``on_write`` / ``on_terminal`` / ``on_gc``, plus
  ``on_dependency`` for bus subscribers);
* :func:`register_mechanism` adds an implementation to the global registry
  with a dispatch ``order`` and an ``applies(spec)`` predicate;
* :func:`build_mechanisms` assembles the ordered mechanism list for one
  :class:`~repro.core.spec.IsolationSpec`, honouring per-name overrides
  (the parallel path swaps the certifier for a graph-only recorder this
  way, and future predicate/SSI variants drop in without touching the
  orchestrator).

Dispatch order is semantically load-bearing: ME and FUW deduce the ww
edges that confirm version adjacency before the Fig. 9 rw derivation and
the CR checks consume them, and the certifier observes every dependency
through the bus rather than through trace hooks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .bus import DependencyBus
    from .spec import IsolationSpec
    from .state import TxnState, VerifierState
    from .trace import Trace
    from .versions import Version


class MechanismVerifier:
    """Lifecycle contract for one pluggable mechanism verifier.

    Subclasses override the hooks they care about; the defaults are no-ops
    so a mechanism only pays for the events it consumes.  The orchestrator
    guarantees the calling discipline of Algorithm 2: data-operation hooks
    fire for successful operations in dispatch order, ``on_terminal`` fires
    exactly once per transaction after the orchestrator has mutated the
    shared mirrored state (versions installed or discarded), and ``on_gc``
    fires when the garbage collector prunes a transaction node.
    """

    #: short mechanism tag; keys ``stats.mechanism_seconds`` buckets.
    name: str = "?"
    #: whether the mechanism consumes the dependency stream from the bus.
    subscribes: bool = False
    #: bus delivery priority (lower delivers first) for subscribers.
    subscribe_priority: int = 0
    #: whether ``on_terminal`` wall time is accumulated per mechanism.
    timed: bool = True

    def on_read(self, trace: "Trace", txn: "TxnState") -> None:
        """A successful read trace was dispatched for ``txn``."""

    def on_write(self, trace: "Trace", txn: "TxnState") -> None:
        """A successful write trace was dispatched for ``txn``."""

    def on_terminal(
        self, txn: "TxnState", trace: "Trace", installed: List["Version"]
    ) -> None:
        """``txn`` finished.  ``txn.status`` is final, and ``installed``
        holds the versions its commit installed (empty on abort)."""

    def on_dependency(self, dep) -> None:
        """A dependency was published on the bus (subscribers only)."""

    def on_gc(self, txn_id: str) -> None:
        """Transaction ``txn_id`` was pruned as garbage (Definition 4)."""


@dataclass
class MechanismContext:
    """Everything a mechanism factory may wire itself to."""

    state: "VerifierState"
    spec: "IsolationSpec"
    bus: "DependencyBus"
    #: orchestrator options (``minimize_candidates``,
    #: ``check_aborted_reads``, ...) forwarded verbatim.
    options: Dict[str, Any] = field(default_factory=dict)
    #: cross-mechanism wiring surface: factories built earlier in the
    #: dispatch order stash collaborators here for later ones (e.g. the
    #: Fig. 9 deriver exposes ``on_read_matches`` for CR).
    shared: Dict[str, Any] = field(default_factory=dict)
    #: observability registry (``docs/observability.md``).  Defaults to the
    #: shared disabled registry, so mechanisms may resolve instrument
    #: handles unconditionally at build time and pay a no-op per event.
    metrics: Any = None

    def __post_init__(self) -> None:
        if self.metrics is None:
            from .metrics import NULL_REGISTRY

            self.metrics = NULL_REGISTRY


MechanismFactory = Callable[[MechanismContext], MechanismVerifier]


@dataclass(frozen=True)
class _RegistryEntry:
    name: str
    factory: MechanismFactory
    order: int
    applies: Callable[["IsolationSpec"], bool]


_REGISTRY: Dict[str, _RegistryEntry] = {}


def register_mechanism(
    name: str,
    order: int,
    applies: Optional[Callable[["IsolationSpec"], bool]] = None,
) -> Callable[[Any], Any]:
    """Class/function decorator registering a mechanism factory.

    ``order`` fixes the position in the dispatch sequence (ME=10, FUW=20,
    RW-DERIVE=30, CR=40, SC=50 for the built-ins).  ``applies`` decides,
    per isolation spec, whether the mechanism joins the assembly; the four
    paper mechanisms always apply -- even when a spec does not *claim* a
    mechanism, its deductions feed the others (Fig. 3) -- but spec-gated
    plugins (e.g. an engine-specific predicate-lock checker) can opt out.

    Decorating a class uses its ``build`` classmethod when present, else
    ``cls(ctx)``; decorating a function uses the function itself.
    """

    def decorate(target):
        if isinstance(target, type):
            factory = getattr(target, "build", None)
            if factory is None:
                factory = lambda ctx: target(ctx)  # noqa: E731
        else:
            factory = target
        _REGISTRY[name] = _RegistryEntry(
            name=name,
            factory=factory,
            order=order,
            applies=applies or (lambda spec: True),
        )
        return target

    return decorate


def registered_mechanisms() -> List[str]:
    """Registered mechanism names in dispatch order."""
    return [e.name for e in sorted(_REGISTRY.values(), key=lambda e: e.order)]


def unregister_mechanism(name: str) -> None:
    """Remove a registered mechanism (test/plugin teardown)."""
    _REGISTRY.pop(name, None)


def build_mechanisms(
    ctx: MechanismContext,
    overrides: Optional[Mapping[str, MechanismFactory]] = None,
    only: Optional[Sequence[str]] = None,
) -> List[MechanismVerifier]:
    """Assemble the ordered mechanism list for ``ctx.spec``.

    ``overrides`` substitutes the factory for a registry name without
    re-registering globally (the parallel path swaps "SC" for a graph-only
    recorder per shard).  ``only`` restricts the assembly to a subset of
    names.  Mechanisms with ``subscribes=True`` are attached to the bus in
    ``subscribe_priority`` order, independently of dispatch order.
    """
    overrides = dict(overrides or {})
    entries = sorted(_REGISTRY.values(), key=lambda e: e.order)
    built: List[MechanismVerifier] = []
    for entry in entries:
        if only is not None and entry.name not in only:
            continue
        if not entry.applies(ctx.spec):
            continue
        factory = overrides.pop(entry.name, entry.factory)
        mechanism = factory(ctx)
        built.append(mechanism)
        if mechanism.subscribes:
            ctx.bus.subscribe(
                mechanism.name,
                mechanism.on_dependency,
                priority=mechanism.subscribe_priority,
                timed=mechanism.timed,
            )
    if overrides:
        unknown = ", ".join(sorted(overrides))
        raise KeyError(f"mechanism overrides for unregistered names: {unknown}")
    return built
