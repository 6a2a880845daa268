"""Adversarial-example attacks on video retrieval systems.

The package implements the paper's DUO pipeline and the three baselines
it compares against, decomposed into pluggable strategy components
(see :mod:`repro.attacks.strategy` and :mod:`repro.attacks.registry`):

* :class:`~repro.attacks.duo.DUOAttack` — SparseTransfer (Eq. 1 /
  Algorithm 1) + SparseQuery (Eq. 2–4 / Algorithm 2), looped ``iter_numH``
  times.
* ``"vanilla"`` — random pixel selection + SimBA-style queries [53].
* ``"timi"`` — momentum + translation-invariant dense transfer
  attack [25] (:func:`~repro.attacks.timi.timi_transfer`).
* ``"heu-nes"`` / ``"heu-sim"`` — heuristic frame/pixel selection with
  NES or SimBA optimization [16].

Every attack is a registered {sampler × basis × feedback} composition:

>>> from repro.attacks import AttackConfig, build_attack
>>> attack = build_attack(AttackConfig(strategy="vanilla", k=48),
...                       service=service)
>>> report = attack.run(original, target)
"""

from repro.attacks.base import Attack, AttackResult, project_linf, project_l2
from repro.attacks.config import AttackConfig
from repro.attacks.objective import RetrievalObjective, UntargetedRetrievalObjective
from repro.attacks.report import AttackReport
from repro.attacks.timi import timi_transfer
from repro.attacks.heu import motion_saliency
from repro.attacks.duo import DUOAttack, SparseTransfer, SparseQuery, TransferPriors

# Registry/strategy exports resolve lazily so `python -m
# repro.attacks.registry` does not re-import the module it is executing.
_LAZY_EXPORTS = {
    "ATTACK_STRATEGIES": "repro.attacks.registry",
    "build_attack": "repro.attacks.registry",
    "resolve_strategy": "repro.attacks.registry",
    "ComposedAttack": "repro.attacks.strategy",
}


def __getattr__(name: str):
    if name in _LAZY_EXPORTS:
        import importlib

        return getattr(importlib.import_module(_LAZY_EXPORTS[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ATTACK_STRATEGIES",
    "Attack",
    "AttackConfig",
    "AttackReport",
    "AttackResult",
    "ComposedAttack",
    "build_attack",
    "project_linf",
    "project_l2",
    "resolve_strategy",
    "RetrievalObjective",
    "UntargetedRetrievalObjective",
    "timi_transfer",
    "motion_saliency",
    "DUOAttack",
    "SparseTransfer",
    "SparseQuery",
    "TransferPriors",
]
