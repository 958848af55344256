"""The mechanism lifecycle contract.

Section II-B's observation -- every commercial isolation level is an
assembly of the same four mechanisms (CR, ME, FUW, SC) -- is written down
once, in :class:`~repro.core.verifier.Verifier`: it constructs ME, FUW, the
Fig. 9 rw deriver, CR and the certifier, in that order, and what varies per
level is the :class:`~repro.core.spec.IsolationSpec` each of them reads.
:class:`MechanismVerifier` is what the five have in common: the hooks the
verifier drives.

The order is load-bearing: ME and FUW deduce the ww edges that confirm
version adjacency before the Fig. 9 rw derivation and the CR checks consume
them, and the certifier observes every dependency through the bus rather
than through trace hooks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .state import TxnState
    from .trace import Trace
    from .versions import Version


class MechanismVerifier:
    """Lifecycle contract of one mechanism verifier.

    Subclasses override the hooks they care about; the defaults are no-ops.
    The verifier guarantees the calling discipline of Algorithm 2:
    data-operation hooks fire for successful operations, ``on_terminal``
    fires exactly once per transaction after the verifier has mutated the
    shared mirrored state (versions installed or discarded), in assembly
    order, and ``on_gc`` fires when the garbage collector prunes a
    transaction node.
    """

    #: short mechanism tag; labels the ``mechanism.seconds`` histograms.
    name: str = "?"

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
        """A new typed edge survived the bus guard (the certifier alone is
        on the delivery line, and sees each edge once)."""

    def on_gc(self, txn_id: str) -> None:
        """Transaction ``txn_id`` was pruned as garbage (Definition 4)."""
