"""Black-box search primitives shared by the baseline attacks.

* :func:`simba_search` — SimBA [53]: Cartesian-basis ±ε coordinate
  descent on the retrieval objective, restricted to a support mask.
* :func:`nes_search` — NES-style gradient estimation with antithetic
  Gaussian probes restricted to a support mask, followed by signed
  descent steps (the optimizer inside HEU-Nes [16]).

Both return an :class:`~repro.attacks.report.AttackReport`.

``metric_prefix`` / ``checkpoint_algo`` let a caller rebrand the obs
counters, spans, and checkpoint tag — :class:`~repro.attacks.duo.
sparse_query.SparseQuery` delegates here with its historical
``attack.duo.query`` names and ``sparse_query`` checkpoint tag, so its
observable behaviour is bit-identical to the pre-shim implementation.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.base import clip_video_range, project_linf
from repro.attacks.objective import RetrievalObjective
from repro.attacks.report import AttackReport
from repro.errors import RetrievalUnavailable
from repro.obs import counter, gauge, span
from repro.resilience.checkpoint import CheckpointSession
from repro.utils.seeding import seeded_rng
from repro.video.types import Video


def default_block_size(support_size: int) -> int:
    """Heuristic direction width: ``√|support|`` coordinates per step.

    A ±ε step over ``b`` coordinates displaces the input by ``ε·√b`` in
    ℓ2; with ``b = √|support|`` the probes are strong enough to cross
    rank boundaries of the retrieval list while staying refinable.
    """
    return max(1, int(round(np.sqrt(max(support_size, 1)))))


def simba_search(original: Video, objective: RetrievalObjective,
                 support: np.ndarray, tau: float, iterations: int,
                 epsilon: float | None = None, rng=None,
                 initial: np.ndarray | None = None, tie_rule: str = "move",
                 block_size: int | None = None, batched: bool | None = None,
                 checkpoint_path=None, *,
                 metric_prefix: str = "attack.search.simba",
                 checkpoint_algo: str = "simba",
                 project_initial: bool = True) -> AttackReport:
    """Greedy ±ε direction descent on ``T`` over the ``support``.

    Directions are signed indicator blocks: each iteration consumes
    ``block_size`` fresh coordinates from a without-replacement stream
    over the support (reshuffled when exhausted) and proposes a random-
    sign ±ε move on them, keeping it if the objective does not worsen.
    ``block_size=1`` recovers the classic single-pixel SimBA [53].

    Parameters
    ----------
    support:
        Boolean array shaped like the video pixels; only these
        coordinates may be perturbed.
    tau:
        ℓ∞ budget on the *final* perturbation, in [0, 1] units.
    epsilon:
        Step magnitude (defaults to ``tau``).
    tie_rule:
        ``"move"`` accepts non-worsening steps (Eq. 3 behaviour, keeps
        exploring on plateaus of the list objective); ``"stay"`` accepts
        only strict decreases.
    block_size:
        Coordinates per direction; ``None`` selects
        :func:`default_block_size` *once per run* — the chosen width is
        checkpointed, so a resume keeps the original width even if the
        support passed on resume differs.
    batched:
        Speculatively evaluate each ±ε pair in one forward batch and
        commit only consumed results (``None`` auto-enables when the
        objective supports speculation and the service is stateless).
        Query counts, the trace, and accepted steps are identical to the
        sequential loop.
    checkpoint_path:
        With a path set, a :class:`~repro.errors.RetrievalUnavailable`
        raised mid-run persists loop state before propagating; calling
        again with the same arguments and path resumes bit-identically.
    metric_prefix / checkpoint_algo:
        Names used for obs counters/spans and the checkpoint tag, so a
        delegating caller keeps its historical observable surface.
    project_initial:
        Project the ``initial`` perturbation onto the ℓ∞ ball before
        searching.  DUO's query stage passes ``False``: under the ℓ2
        transfer constraint (Table IX) the priors may legitimately
        exceed ``τ`` per coordinate, and only *steps* are projected.

    Returns an :class:`AttackReport`.
    """
    rng = seeded_rng(rng)
    base = original.pixels
    epsilon = tau if epsilon is None else float(epsilon)
    perturbation = np.zeros_like(base) if initial is None else initial.copy()
    if project_initial:
        perturbation = project_linf(perturbation, tau)
    perturbation = clip_video_range(base, perturbation)

    coords = np.flatnonzero(np.asarray(support).reshape(-1))
    if coords.size == 0:
        current = original.perturbed(perturbation)
        trace = [objective.value(current)]
        return AttackReport(adversarial=current, perturbation=perturbation,
                            queries=len(trace), trace=trace)
    block = default_block_size(coords.size) if block_size is None else \
        max(1, int(block_size))

    if batched is None:
        batched = bool(getattr(objective, "speculate", None)) and \
            getattr(objective, "speculation_safe", False)

    session = CheckpointSession(checkpoint_path, checkpoint_algo, objective,
                                rng)
    resumed = session.resume()
    if resumed is None:
        current = original.perturbed(perturbation)
        best = objective.value(current)
        trace = [best]
        order = rng.permutation(coords)
        cursor = 0
        start_iteration = 0
    else:
        perturbation = resumed["perturbation"]
        best = resumed["best"]
        trace = resumed["trace"]
        order = resumed["order"]
        cursor = resumed["cursor"]
        # The direction width is derived from the support *once per
        # run* and checkpointed: resuming with a grown/shrunk support
        # must not silently change the block width mid-search.
        block = int(resumed.get("block", block))
        start_iteration = resumed["iteration"]
        current = original.perturbed(perturbation)

    with span(metric_prefix, support=int(coords.size), block=block):
        for iteration in range(start_iteration, int(iterations)):
            session.mark(iteration, perturbation=perturbation, best=best,
                         trace=trace, order=order, cursor=cursor, block=block)
            try:
                with span(f"{metric_prefix}.iter"):
                    if cursor + block > order.size:
                        order = rng.permutation(coords)
                        cursor = 0
                    chosen = order[cursor : cursor + block]
                    cursor += block
                    signs = rng.choice((-1.0, 1.0), size=chosen.size)
                    # Build both ±ε candidates up front (no rng consumed),
                    # speculate the pair in one batch, commit sequentially.
                    pair = []
                    for flip in (+1.0, -1.0):
                        candidate = perturbation.copy()
                        candidate.reshape(-1)[chosen] += flip * signs * epsilon
                        candidate = clip_video_range(
                            base, project_linf(candidate, tau))
                        if np.array_equal(candidate, perturbation):
                            pair.append(None)  # projection undid the step
                        else:
                            pair.append(
                                (candidate, original.perturbed(candidate)))
                    live = [entry for entry in pair if entry is not None]
                    speculated = objective.speculate(
                        [adversarial for _, adversarial in live]
                    ) if batched and len(live) > 1 else None
                    spec_index = 0
                    for entry in pair:
                        if entry is None:
                            continue  # skipped candidates cost no query
                        candidate, adversarial = entry
                        if speculated is None:
                            value = objective.value(adversarial)
                        else:
                            value = objective.commit(speculated[spec_index])
                        spec_index += 1
                        trace.append(value)
                        counter(f"{metric_prefix}.evaluations").inc()
                        if value < best or \
                                (tie_rule == "move" and value <= best):
                            counter(f"{metric_prefix}.accepted").inc()
                            best = value
                            perturbation = candidate
                            current = adversarial
                            break
            except RetrievalUnavailable:
                session.persist()
                raise
        gauge(f"{metric_prefix}.objective").set(best)
    session.complete()
    return AttackReport(adversarial=current, perturbation=perturbation,
                        queries=len(trace), trace=trace)


def nes_search(original: Video, objective: RetrievalObjective,
               support: np.ndarray, tau: float, iterations: int,
               samples: int = 4, sigma: float = 0.05, lr: float | None = None,
               rng=None, initial: np.ndarray | None = None,
               batched: bool | None = None, checkpoint_path=None, *,
               metric_prefix: str = "attack.search.nes",
               checkpoint_algo: str = "nes") -> AttackReport:
    """NES gradient-estimation descent on ``T`` over ``support``.

    Each iteration draws ``samples`` antithetic Gaussian probes (costing
    ``2·samples`` queries), estimates the gradient of ``T``, and takes a
    signed step of size ``lr`` (default ``tau / 10``).

    With ``batched`` (auto-enabled when the objective exposes ``values``)
    all ``2·samples`` probe evaluations of an iteration share one forward
    batch.  NES consumes every evaluation unconditionally and probe
    construction consumes rng before any evaluation, so the rng stream,
    query count, and trace are identical to the sequential loop.

    With ``checkpoint_path`` set, a
    :class:`~repro.errors.RetrievalUnavailable` raised mid-run persists
    loop state before propagating; calling again with the same arguments
    and path resumes bit-identically.

    Returns an :class:`AttackReport`.
    """
    rng = seeded_rng(rng)
    base = original.pixels
    mask = np.asarray(support, dtype=np.float64)
    lr = tau / 5.0 if lr is None else float(lr)
    perturbation = np.zeros_like(base) if initial is None else initial.copy()
    perturbation = clip_video_range(base, project_linf(perturbation, tau))

    if batched is None:
        batched = getattr(objective, "values", None) is not None

    session = CheckpointSession(checkpoint_path, checkpoint_algo, objective,
                                rng)
    resumed = session.resume()
    if resumed is None:
        current = original.perturbed(perturbation)
        best = objective.value(current)
        best_perturbation = perturbation.copy()
        trace = [best]
        start_iteration = 0
    else:
        perturbation = resumed["perturbation"]
        best = resumed["best"]
        best_perturbation = resumed["best_perturbation"]
        trace = resumed["trace"]
        start_iteration = resumed["iteration"]
        current = original.perturbed(perturbation)

    with span(metric_prefix, samples=int(samples)):
        for iteration in range(start_iteration, int(iterations)):
            session.mark(iteration, perturbation=perturbation, best=best,
                         best_perturbation=best_perturbation, trace=trace)
            try:
                with span(f"{metric_prefix}.iter"):
                    gradient = np.zeros_like(perturbation)
                    # Draw every probe before evaluating anything:
                    # evaluation consumes no rng, so the stream matches
                    # the sequential draw-evaluate interleaving exactly.
                    probes = [rng.normal(size=perturbation.shape) * mask
                              for _ in range(int(samples))]
                    antithetic = []
                    for probe in probes:
                        antithetic.append(original.perturbed(clip_video_range(
                            base,
                            project_linf(perturbation + sigma * probe, tau))))
                        antithetic.append(original.perturbed(clip_video_range(
                            base,
                            project_linf(perturbation - sigma * probe, tau))))
                    if batched:
                        # NES consumes all evaluations unconditionally, so
                        # a plain counted batch preserves trace and query
                        # count.
                        values = objective.values(antithetic)
                    else:
                        values = [objective.value(v) for v in antithetic]
                    trace.extend(values)
                    counter(f"{metric_prefix}.evaluations").inc(
                        2 * int(samples))
                    for index, probe in enumerate(probes):
                        value_plus = values[2 * index]
                        value_minus = values[2 * index + 1]
                        gradient += (value_plus - value_minus) * probe
                    gradient /= 2.0 * sigma * samples

                    perturbation = perturbation - lr * np.sign(gradient) * mask
                    perturbation = clip_video_range(
                        base, project_linf(perturbation, tau))
                    current = original.perturbed(perturbation)
                    value = objective.value(current)
                    trace.append(value)
                    counter(f"{metric_prefix}.evaluations").inc()
                    if value < best:
                        counter(f"{metric_prefix}.improved").inc()
                        best = value
                        best_perturbation = perturbation.copy()
            except RetrievalUnavailable:
                session.persist()
                raise
        gauge(f"{metric_prefix}.objective").set(best)
    session.complete()

    return AttackReport(adversarial=original.perturbed(best_perturbation),
                        perturbation=best_perturbation,
                        queries=len(trace), trace=trace)
