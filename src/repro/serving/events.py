"""Gallery mutation events for mutating serving timelines.

A mutating timeline interleaves tenant :class:`~repro.serving.frontend.Request`s
with owner-side gallery operations — :class:`AddVideo`,
:class:`DeleteVideo`, :class:`ReembedVideo` — each stamped with a
virtual arrival time.  The front end applies events on its event-loop
thread in arrival order and bumps the gallery version, so queries
admitted before an event keep their pinned snapshot while later ones
see the mutated gallery.

:func:`merge_timeline` defines the *canonical* interleaving (events
before queries at equal timestamps); both the front end and the
sequential reference replay (:func:`replay_sequential_mutating`) use
it, so the ``serving.mutating_timeline`` oracle compares identical
orderings.  :func:`generate_churn` builds a seeded random event stream
against a known set of live gallery ids, tracking liveness while
generating so every delete/re-embed targets a live video.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import QueryBudgetExceeded, RetrievalUnavailable
from repro.hashindex.compaction import CompactionPolicy
from repro.obs import counter
from repro.serving.admission import AdmissionController
from repro.serving.config import ServingConfig
from repro.video.types import Video


@dataclass(frozen=True)
class GalleryEvent:
    """Base class: one owner-side gallery mutation at a virtual time."""

    arrival_s: float

    def __post_init__(self) -> None:
        if self.arrival_s < 0:
            raise ValueError("arrival_s must be non-negative")

    def apply(self, engine) -> None:
        raise NotImplementedError


@dataclass(frozen=True)
class AddVideo(GalleryEvent):
    """Embed and insert a new video under traffic."""

    video: Video = None

    def apply(self, engine) -> None:
        engine.add_video(self.video)


@dataclass(frozen=True)
class DeleteVideo(GalleryEvent):
    """Tombstone a live gallery video."""

    video_id: str = ""

    def apply(self, engine) -> None:
        engine.remove_video(self.video_id)


@dataclass(frozen=True)
class ReembedVideo(GalleryEvent):
    """Re-embed a live gallery video (content changed upstream)."""

    video: Video = None

    def apply(self, engine) -> None:
        engine.reembed_video(self.video)


def apply_gallery_event(engine, event: GalleryEvent,
                        policy: CompactionPolicy | None = None) -> None:
    """Apply one event (plus the shared background-compaction check).

    The compaction check runs at exactly this point in *both* the
    front end and the sequential reference, so compaction
    boundaries — which affect tie-breaking row order inside rebuilt
    indexes — are identical across replays.
    """
    event.apply(engine)
    counter("serving.gallery_events", kind=type(event).__name__).inc()
    if policy is not None:
        dropped = engine.gallery.maybe_compact(policy)
        if dropped:
            counter("serving.compactions").inc()
            counter("serving.compacted_rows").inc(dropped)


def merge_timeline(items: list) -> list:
    """Canonical ordering of a mixed request/event timeline.

    Stable sort by arrival time with events ordered before requests at
    equal timestamps (owner mutations win ties — the same convention a
    primary-replica store applies to a write racing a read).
    """
    events = [item for item in items if isinstance(item, GalleryEvent)]
    requests = [item for item in items if not isinstance(item, GalleryEvent)]
    keyed = [(event.arrival_s, 0, order, event)
             for order, event in enumerate(events)]
    keyed += [(request.arrival_s, 1, order, request)
              for order, request in enumerate(requests)]
    keyed.sort(key=lambda entry: entry[:3])
    return [item for _, _, _, item in keyed]


def generate_churn(seed: int, gallery_ids: list[str], *,
                   adds: int = 0, deletes: int = 0, reembeds: int = 0,
                   horizon_s: float = 1.0, start_s: float = 0.0,
                   frames: int = 8, height: int = 16, width: int = 16,
                   channels: int = 3,
                   label_base: int = 50) -> list[GalleryEvent]:
    """A seeded random mutation stream against known live ids.

    Deletes and re-embeds always target a video that is still live at
    their point in the stream (the generator tracks liveness), so the
    sequential replay never raises ``KeyError``.  Event times are
    uniform over ``[start_s, start_s + horizon_s)`` and the interleaving
    of event kinds is a seeded shuffle.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xC4]))
    kinds = ["add"] * int(adds) + ["delete"] * int(deletes) + \
        ["reembed"] * int(reembeds)
    rng.shuffle(kinds)
    times = np.sort(rng.uniform(start_s, start_s + horizon_s,
                                size=len(kinds)))
    live = list(gallery_ids)
    events: list[GalleryEvent] = []
    fresh = 0
    for kind, when in zip(kinds, times):
        when = float(when)
        if kind == "add":
            fresh += 1
            video_id = f"churn-{seed}-{fresh}"
            pixels = rng.random((frames, height, width, channels))
            events.append(AddVideo(when, Video(
                pixels=pixels, label=label_base + fresh,
                video_id=video_id)))
            live.append(video_id)
        elif kind == "delete" and live:
            victim = live.pop(int(rng.integers(len(live))))
            events.append(DeleteVideo(when, victim))
        elif kind == "reembed" and live:
            victim = live[int(rng.integers(len(live)))]
            pixels = rng.random((frames, height, width, channels))
            events.append(ReembedVideo(when, Video(
                pixels=pixels, label=label_base, video_id=victim)))
        # A delete/reembed drawn against an exhausted live set is
        # silently skipped; callers control counts.
    return events


# ------------------------------------------------------------------ #
# The sequential mutating reference
# ------------------------------------------------------------------ #
def replay_sequential_mutating(items: list, service,
                               config: ServingConfig | None = None):
    """Replay a mixed request/event timeline one item at a time.

    The oracle reference for mutating timelines: events apply in the
    canonical order of :func:`merge_timeline`, each query runs against
    the gallery state current at its arrival, and accounting matches
    :func:`~repro.serving.frontend.replay_sequential` exactly.
    """
    # Imported here: frontend imports this module for event handling.
    from repro.serving.frontend import Request, Response, ServingReport

    config = config if config is not None else ServingConfig()
    policy = CompactionPolicy(config.compact_dead_fraction,
                              config.compact_min_dead)
    engine = service.engine
    engine.enable_churn()
    ordered = merge_timeline(items)
    requests = [item for item in ordered if isinstance(item, Request)]
    request_order = {id(request): position
                     for position, request in enumerate(
                         item for item in items
                         if isinstance(item, Request))}
    admission = AdmissionController(config)
    responses: dict[int, Response] = {}
    events_applied = 0
    last_s = 0.0
    for item in ordered:
        last_s = max(last_s, item.arrival_s)
        if isinstance(item, GalleryEvent):
            apply_gallery_event(engine, item, policy)
            events_applied += 1
            continue
        request = item
        index = request_order[id(request)]
        now = request.arrival_s
        counter("serving.requests", tenant=request.tenant).inc()
        rejection = admission.admit(request.tenant, now)
        if rejection is not None:
            responses[index] = Response(
                request, "rejected", reason=rejection.reason,
                retry_after_s=rejection.retry_after_s, completed_s=now)
            continue
        try:
            result = service.query(request.video)
        except QueryBudgetExceeded as exc:
            admission.refund(request.tenant)
            responses[index] = Response(request, "budget",
                                        reason="global_budget", error=exc,
                                        completed_s=now)
            continue
        except RetrievalUnavailable as exc:
            admission.refund(request.tenant)
            responses[index] = Response(request, "unavailable",
                                        reason="retrieval_unavailable",
                                        error=exc, completed_s=now)
            continue
        admission.mark_served(request.tenant)
        responses[index] = Response(request, "ok", result=result,
                                    completed_s=now, latency_s=0.0,
                                    batch_size=1)
    served = sum(1 for response in responses.values() if response.ok)
    return ServingReport(
        responses=[responses[index] for index in range(len(requests))],
        served_by_tenant=admission.served_by_tenant(),
        makespan_s=last_s,
        batches=served,
        dispatched=served,
        workers=1,
        gallery_events=events_applied,
    )


__all__ = ["GalleryEvent", "AddVideo", "DeleteVideo", "ReembedVideo",
           "apply_gallery_event", "merge_timeline", "generate_churn",
           "replay_sequential_mutating"]
