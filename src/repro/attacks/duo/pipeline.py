"""The full DUO attack: SparseTransfer ∘ SparseQuery, looped iter_numH times.

Per the paper's summary: "we loop SparseTransfer and SparseQuery together
by using {I, F, θ, v_adv} to initialize {I, F, θ, v} for the next
iteration until the process converges or the number of iterations exceeds
a preset threshold, i.e., iter_numH" (a small number, ≤ 4).
"""

from __future__ import annotations

import numpy as np

from repro.attacks.base import Attack, AttackResult
from repro.attacks.duo.priors import TransferPriors
from repro.attacks.duo.sparse_query import SparseQuery
from repro.attacks.duo.sparse_transfer import SparseTransfer
from repro.attacks.objective import RetrievalObjective
from repro.models.feature_extractor import FeatureExtractor
from repro.obs import counter, gauge, span
from repro.retrieval.service import RetrievalService
from repro.utils.logging import get_logger
from repro.utils.seeding import seeded_rng
from repro.video.types import Video

logger = get_logger("attacks.duo")


class DUOAttack(Attack):
    """Stealthy targeted black-box attack via dual frame-pixel search.

    Parameters mirror the paper's system parameters:

    * ``k`` / ``n`` — pixel and frame sparsity budgets (Eq. 1).
    * ``tau`` — ℓ∞ budget in 8-bit units (default 30).
    * ``iter_num_q`` — SparseQuery iteration cap (paper: 1,000).
    * ``iter_num_h`` — outer transfer/query loops (paper: ≤ 4, default 2).
    * ``constraint`` — ``"linf"`` (Eq. 1) or ``"l2"`` (Table IX).
    * ``eta`` — margin constant of the objective ``T`` (Eq. 2).
    """

    name = "duo"

    def __init__(self, surrogate: FeatureExtractor, service: RetrievalService,
                 k: int, n: int = 4, tau: float = 30.0,
                 lam: float = np.exp(-5.0), iter_num_q: int = 1000,
                 iter_num_h: int = 2, constraint: str = "linf",
                 eta: float = 1.0, transfer_outer_iters: int = 3,
                 theta_steps: int = 25, rng=None,
                 batched: bool | None = None) -> None:
        self.surrogate = surrogate
        self.service = service
        self.eta = float(eta)
        self.iter_num_h = int(iter_num_h)
        self.rng = seeded_rng(rng)
        self.transfer = SparseTransfer(
            surrogate, k=k, n=n, tau=tau, lam=lam, constraint=constraint,
            outer_iters=transfer_outer_iters, theta_steps=theta_steps,
        )
        self.query = SparseQuery(iter_num_q=iter_num_q, tau=tau, rng=self.rng,
                                 batched=batched)

    def run(self, original: Video, target: Video) -> AttackResult:
        """Synthesize ``v_adv`` for the pair ``(v, v_t)``."""
        objective = RetrievalObjective(self.service, original, target,
                                       eta=self.eta)
        current = original
        priors: TransferPriors | None = None
        trace: list[float] = []
        adversarial = original

        for loop in range(self.iter_num_h):
            with span("attack.duo.loop", loop=loop + 1):
                priors = self.transfer.run(current, target, init=None)
                adversarial, loop_trace = self.query.run(current, priors,
                                                         objective)
            trace.extend(loop_trace)
            counter("attack.duo.loops").inc()
            gauge("attack.duo.objective").set(
                trace[-1] if trace else float("nan"))
            logger.info("duo loop %d/%d T=%.4f", loop + 1, self.iter_num_h,
                        trace[-1] if trace else float("nan"))
            # {I, F, θ, v_adv} → {I, F, θ, v} for the next loop: the
            # rectified video becomes the new starting point, and the next
            # transfer sweep re-derives masks and magnitudes around it
            # (a fresh target-difference initialization relative to the
            # already-rectified video).
            current = adversarial

        perturbation = adversarial.pixels - original.pixels
        return AttackResult(
            adversarial=adversarial,
            perturbation=perturbation,
            queries=objective.queries,
            trace=trace,
            metadata={
                "iter_num_h": self.iter_num_h,
                "k": self.transfer.k,
                "n": self.transfer.n,
                "tau": self.transfer.tau * 255.0,
                "constraint": self.transfer.constraint,
            },
        )

    # ---------------------------------------------------------------- #
    def run_untargeted(self, original: Video) -> AttackResult:
        """Untargeted DUO (paper §I: "easily extended").

        Minimizes ``T_unt = H(R^m(v_adv), R^m(v)) + η`` so the retrieval
        list no longer contains the correct videos; the transfer stage
        *maximizes* the surrogate feature distance from the original.
        """
        from repro.attacks.objective import UntargetedRetrievalObjective

        objective = UntargetedRetrievalObjective(self.service, original,
                                                 eta=self.eta)
        untargeted_transfer = SparseTransfer(
            self.surrogate, k=self.transfer.k, n=self.transfer.n,
            tau=self.transfer.tau * 255.0, lam=self.transfer.lam,
            constraint=self.transfer.constraint,
            outer_iters=self.transfer.outer_iters,
            theta_steps=self.transfer.theta_steps,
            targeted=False, rng=self.rng,
        )
        current = original
        trace: list[float] = []
        adversarial = original
        for loop in range(self.iter_num_h):
            with span("attack.duo.loop", loop=loop + 1, mode="untargeted"):
                priors = untargeted_transfer.run(current, None)
                adversarial, loop_trace = self.query.run(current, priors,
                                                         objective)
            trace.extend(loop_trace)
            counter("attack.duo.loops").inc()
            current = adversarial
        perturbation = adversarial.pixels - original.pixels
        return AttackResult(
            adversarial=adversarial,
            perturbation=perturbation,
            queries=objective.queries,
            trace=trace,
            metadata={"mode": "untargeted",
                      "escape_rate": objective.escape_rate(adversarial)},
        )

    def transfer_only(self, original: Video, target: Video) -> AttackResult:
        """Run only SparseTransfer (Table IX transferability evaluation)."""
        priors = self.transfer.run(original, target)
        adversarial = original.perturbed(priors.perturbation())
        return AttackResult(
            adversarial=adversarial,
            perturbation=adversarial.pixels - original.pixels,
            queries=0,
            metadata={"stage": "transfer-only",
                      "constraint": self.transfer.constraint},
        )
