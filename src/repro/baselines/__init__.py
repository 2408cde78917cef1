"""Baseline contention-resolution protocols used for comparison experiments.

None of these are contributions of the paper; they are the classical
algorithms the paper positions itself against, implemented on the same
simulator so that experiment E9 can produce like-for-like comparisons:

* :mod:`repro.baselines.tdma` — time-division multiplexing (round-robin
  anchored at the global clock), the "simplest schedule" the paper mentions;
* :mod:`repro.baselines.aloha` — slotted ALOHA with a fixed or ``1/k``-tuned
  transmission probability;
* :mod:`repro.baselines.backoff` — binary exponential backoff (requires
  collision detection, unlike the paper's algorithms);
* :mod:`repro.baselines.tree_splitting` — Capetanakis/Tsybakov–Mikhailov tree
  splitting (also requires collision detection);
* :mod:`repro.baselines.komlos_greenberg` — the synchronized-start
  selective-family schedule of Komlós & Greenberg, i.e. "wait_and_go without
  the waiting", which is only correct when all contenders wake together.
"""

from repro import _export_lazily

#: Public name -> the module defining it (imported on first access).
_EXPORTS = {
    "TDMA": "repro.baselines.tdma",
    "SlottedAloha": "repro.baselines.aloha",
    "tuned_aloha": "repro.baselines.aloha",
    "BinaryExponentialBackoff": "repro.baselines.backoff",
    "TreeSplitting": "repro.baselines.tree_splitting",
    "KomlosGreenberg": "repro.baselines.komlos_greenberg",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _export_lazily(__name__, _EXPORTS)
