"""What the benchmark measures: metric declarations and layer wrappers.

``END_TO_END`` and ``PER_LAYER`` are the source of truth that
``BENCHMARK.json`` mirrors (a self-test keeps them equal).  Every
per-layer metric names the layer it reads and the end-to-end metrics it
is predicted to move, on which workloads; ``README.md`` renders the same
table.

:func:`install` wraps the public entry points of each layer for one
traced unit; :func:`layer_values` turns the recorded spans and counts
into the per-layer metrics.
"""

from __future__ import annotations

import os

import numpy as np

from spans import END, LAYER, NAME, START, Patcher, SpanRecorder, counted, \
    self_times, spanned, subtree

WORKLOADS = ("attack-duo", "serve-read", "serve-churn", "paper-quick")

#: (name, unit, better, bound).  Every workload reports every one; what
#: an "op" and a "call" are per workload is stated in README.md.  Times
#: are at reference speed (see ``run.HostSpeed``).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("norm_ms_per_op", "ms", "lower", 0.2),
    ("call_norm_ms_p50", "ms", "lower", 0.25),
    ("call_norm_ms_p95", "ms", "lower", 0.25),
)

_ATTACK = ("attack-duo",)
_READ = ("serve-read",)
_CHURN = ("serve-churn",)
_SERVE = ("serve-read", "serve-churn")
_TABLES = ("paper-quick",)
_OP = "norm_ms_per_op"
_CALLS = ("call_norm_ms_p50", "call_norm_ms_p95")

#: (name, unit, better, layer, ((end-to-end metrics, workloads), ...)).
PER_LAYER = (
    ("forward.calls", "count", "lower", "models.forward",
     (((_OP,), _ATTACK + _CHURN + _TABLES),)),
    ("forward.rows", "count", "lower", "models.forward",
     (((_OP,), _ATTACK + _CHURN + _TABLES),)),
    ("forward.busy_s", "s", "lower", "models.forward",
     (((_OP,), _ATTACK + _CHURN + _TABLES), (_CALLS, _ATTACK))),
    ("backward.calls", "count", "lower", "nn.backward",
     (((_OP,), _ATTACK + _TABLES),)),
    ("backward.busy_s", "s", "lower", "nn.backward",
     (((_OP,), _ATTACK + _TABLES),)),
    ("conv.calls", "count", "lower", "perf.conv",
     (((_OP,), _ATTACK + _CHURN + _TABLES),)),
    ("conv.busy_s", "s", "lower", "perf.conv",
     (((_OP,), _ATTACK + _CHURN + _TABLES), (_CALLS, _ATTACK))),
    ("conv.flops", "flop", "lower", "perf.conv",
     (((_OP,), _ATTACK + _CHURN + _TABLES),)),
    ("conv.bytes", "B", "lower", "perf.conv",
     (((_OP,), _ATTACK + _CHURN + _TABLES),)),
    ("cache.lookups", "count", "lower", "perf.cache",
     (((_OP,) + _CALLS, _ATTACK + _READ),)),
    ("cache.hit_ratio", "ratio", "higher", "perf.cache",
     (((_OP,) + _CALLS, _READ),)),
    ("cache.busy_s", "s", "lower", "perf.cache",
     (((_OP,) + _CALLS, _ATTACK + _READ),)),
    ("cache.key_busy_s", "s", "lower", "perf.cache",
     (((_OP,) + _CALLS, _ATTACK + _READ),)),
    ("service.queries_charged", "count", "lower", "retrieval.service",
     (((_OP,), _ATTACK),)),
    ("service.speculated", "count", "lower", "retrieval.service",
     (((_OP,), _ATTACK),)),
    ("service.speculation_useful_ratio", "ratio", "higher",
     "retrieval.service", (((_OP,), _ATTACK),)),
    ("service.refunds", "count", "lower", "retrieval.service",
     (((_OP,), _ATTACK),)),
    ("service.busy_s", "s", "lower", "retrieval.service",
     (((_OP,) + _CALLS, _ATTACK + _SERVE),)),
    ("gallery.search.calls", "count", "lower", "retrieval.gallery",
     (((_OP,) + _CALLS, _SERVE),)),
    ("gallery.rows_scanned", "count", "lower", "retrieval.index",
     (((_OP,) + _CALLS, _SERVE),)),
    ("gallery.search.busy_s", "s", "lower", "retrieval.gallery",
     (((_OP,) + _CALLS, _SERVE),)),
    ("index.scan.busy_s", "s", "lower", "retrieval.index",
     (((_OP,) + _CALLS, _SERVE),)),
    ("gallery.write.calls", "count", "lower", "retrieval.write",
     (((_OP,), _CHURN),)),
    ("gallery.write.busy_s", "s", "lower", "retrieval.write",
     (((_OP,), _CHURN),)),
    ("gallery.compactions", "count", "lower", "retrieval.write",
     (((_OP,), _CHURN),)),
    ("serve.event_self_s", "s", "lower", "serving.event",
     (((_OP,), _CHURN),)),
    ("serve.event_ms_p50", "ms", "lower", "serving.event",
     (((_OP,), _CHURN),)),
    ("serve.event_ms_p95", "ms", "lower", "serving.event",
     (((_OP,), _CHURN),)),
    ("objective.calls", "count", "lower", "attacks.objective",
     (((_OP,), _ATTACK),)),
    ("objective.busy_s", "s", "lower", "attacks.objective",
     (((_OP,), _ATTACK),)),
    ("ndcg.busy_s", "s", "lower", "metrics.ndcg",
     (((_OP,), _ATTACK),)),
    ("attack.loop_busy_s", "s", "lower", "attacks.run",
     (((_OP,), _ATTACK),)),
    ("transfer.busy_s", "s", "lower", "attacks.transfer",
     (((_OP,), _ATTACK),)),
    ("serving.batches", "count", "lower", "serving",
     (((_OP,) + _CALLS, _SERVE),)),
    ("serving.mean_batch", "count", "higher", "serving",
     (((_OP,) + _CALLS, _SERVE),)),
    ("serving.queue_wait_virtual_ms_p50", "ms", "lower", "serving",
     (((_OP,), _SERVE),)),
    ("serving.queue_wait_virtual_ms_p95", "ms", "lower", "serving",
     (((_OP,), _SERVE),)),
    ("serving.scheduler_self_s", "s", "lower", "serving",
     (((_OP,), _SERVE),)),
    ("serving.pool_fallbacks", "count", "lower", "serving",
     (((_OP,), _CHURN),)),
    ("training.steps", "count", "lower", "training",
     (((_OP,), _TABLES),)),
    ("training.busy_s", "s", "lower", "training",
     (((_OP,), _TABLES),)),
    ("surrogate.busy_s", "s", "lower", "surrogate",
     (((_OP,), _TABLES),)),
    ("experiments.self_s", "s", "lower", "experiments",
     (((_OP,), _TABLES),)),
    ("experiments.fig3.wall_s", "s", "lower", "experiments",
     (((_OP,), _TABLES),)),
    ("experiments.fig4.wall_s", "s", "lower", "experiments",
     (((_OP,), _TABLES),)),
    ("experiments.table2.wall_s", "s", "lower", "experiments",
     (((_OP,), _TABLES),)),
    ("obs.spans", "count", "lower", "framework",
     (((_OP,), WORKLOADS),)),
    ("env.reads", "count", "lower", "framework",
     (((_OP,), WORKLOADS),)),
    ("router.decides", "count", "lower", "framework",
     (((_OP,), WORKLOADS),)),
    ("obs.trace_overhead_pct", "%", "lower", "framework",
     (((_OP,) + _CALLS, WORKLOADS),)),
    ("bench.trace_overhead_pct", "%", "lower", "bench",
     (((_OP,) + _CALLS, WORKLOADS),)),
    ("bench.other_s", "s", "lower", "bench",
     (((_OP,), WORKLOADS),)),
    ("trace.wall_s", "s", "lower", "bench", (((_OP,), WORKLOADS),)),
    ("failed_frac", "ratio", "lower", "bench", (((_OP,), WORKLOADS),)),
)

#: Layers whose self time the traced run reports (README's layer table).
SELF_TIME = {
    "models.forward": "forward.busy_s",
    "nn.backward": "backward.busy_s",
    "perf.conv": "conv.busy_s",
    "perf.cache": "cache.busy_s",
    "perf.cache.key": "cache.key_busy_s",
    "retrieval.service": "service.busy_s",
    "retrieval.gallery": "gallery.search.busy_s",
    "retrieval.index": "index.scan.busy_s",
    "retrieval.write": "gallery.write.busy_s",
    "attacks.objective": "objective.busy_s",
    "metrics.ndcg": "ndcg.busy_s",
    "attacks.run": "attack.loop_busy_s",
    "attacks.transfer": "transfer.busy_s",
    "serving": "serving.scheduler_self_s",
    "serving.event": "serve.event_self_s",
    "training": "training.busy_s",
    "surrogate": "surrogate.busy_s",
    "experiments": "experiments.self_s",
    "bench": "bench.other_s",
}


def percentile_ms(samples_s: list[float], q: float) -> float:
    """The ``q``-th percentile of second-valued samples, in ms."""
    return float(np.percentile(samples_s, q)) * 1e3 if samples_s else 0.0


def _rows(args, kwargs) -> int:
    """Rows a ``FeatureIndex.search*_limited(self, query, k, rows)`` scans."""
    rows = args[3] if len(args) > 3 else kwargs["rows"]
    return min(int(rows), len(args[0]))


def _conv_counts(recorder: SpanRecorder):
    def after(args, kwargs, result):
        x, weight = args[0], args[1]
        out = result[0]
        counts = recorder.counts
        counts["conv.calls"] += 1
        # One multiply-add per output element per weight element of its
        # output channel; bytes are input + weights + output, as stored.
        counts["conv.flops"] += 2 * out.size * (weight.size // weight.shape[0])
        counts["conv.bytes"] += x.nbytes + weight.nbytes + out.nbytes
    return after


def install(recorder: SpanRecorder) -> Patcher:
    """Wrap every layer's public entry points; returns the undo handle."""
    from repro.attacks.duo.sparse_transfer import SparseTransfer
    from repro.attacks.objective import RetrievalObjective
    from repro.attacks.strategy.composed import ComposedAttack
    from repro.metrics.similarity import ndcg_similarity, \
        ndcg_similarity_many
    from repro.models.feature_extractor import FeatureExtractor
    from repro.nn import optim
    from repro.nn.tensor import Tensor
    from repro.obs.tracing import Tracer
    from repro.perf import gemm_conv
    from repro.perf.cache import EmbeddingCache, content_key
    from repro.retrieval.engine import RetrievalEngine
    from repro.retrieval.index import FeatureIndex
    from repro.retrieval.nodes import ShardedGallery
    from repro.retrieval.service import RetrievalService
    from repro.router.core import Router
    from repro.serving.events import apply_gallery_event
    from repro.serving.frontend import ServingFrontend
    from repro.surrogate.stealing import steal_training_set
    from repro.surrogate.trainer import SurrogateTrainer
    from repro.training.trainer import MetricTrainer

    counts = recorder.counts
    patch = Patcher()

    def add(key, amount):
        counts[key] += amount

    def methods(cls, names, layer, after=None):
        for name in names:
            patch.method(cls, name, spanned(
                recorder, f"{cls.__name__}.{name}", layer, after))

    methods(FeatureExtractor, ("embed_videos",), "models.forward")
    patch.method(FeatureExtractor, "forward", spanned(
        recorder, "FeatureExtractor.forward", "models.forward",
        lambda a, k, r: (add("forward.calls", 1),
                         add("forward.rows", int(a[1].shape[0])))))
    patch.method(Tensor, "backward", spanned(
        recorder, "Tensor.backward", "nn.backward",
        lambda a, k, r: add("backward.calls", 1)))
    for name in ("conv2d_forward", "conv3d_forward"):
        patch.set(gemm_conv, name, spanned(
            recorder, f"gemm_conv.{name}", "perf.conv",
            _conv_counts(recorder))(gemm_conv.__dict__[name]))
    patch.method(EmbeddingCache, "get", spanned(
        recorder, "EmbeddingCache.get", "perf.cache",
        lambda a, k, r: (add("cache.lookups", 1),
                         add("cache.hits", int(r is not None)))))
    methods(EmbeddingCache, ("put",), "perf.cache")
    patch.function(content_key, spanned(recorder, "content_key",
                                        "perf.cache.key"))

    methods(RetrievalService, ("query_batch", "compute_batch"),
            "retrieval.service")
    patch.method(RetrievalService, "query", spanned(
        recorder, "RetrievalService.query", "retrieval.service",
        lambda a, k, r: add("service.issued", 1)))
    patch.method(RetrievalService, "begin_batch", spanned(
        recorder, "RetrievalService.begin_batch", "retrieval.service",
        lambda a, k, r: add("service.issued", len(a[1]))))
    patch.method(RetrievalService, "speculate", spanned(
        recorder, "RetrievalService.speculate", "retrieval.service",
        lambda a, k, r: add("service.speculated", len(a[1]))))
    patch.method(RetrievalService, "commit_speculated", spanned(
        recorder, "RetrievalService.commit_speculated", "retrieval.service",
        lambda a, k, r: add("service.committed",
                            int(a[1] if len(a) > 1 else k.get("count", 1)))))
    # The ledger's roll-backs are private helpers; counting their calls
    # is the only outside view of refunded and never-issued queries.
    patch.method(RetrievalService, "_refund", counted(
        recorder, "service.refunds", lambda a, k: int(a[1])))
    patch.method(RetrievalService, "_unissue", counted(
        recorder, "service.unissued", lambda a, k: int(a[1])))

    methods(ShardedGallery, ("search", "search_batch"), "retrieval.gallery",
            lambda a, k, r: add("gallery.search.calls", 1))
    patch.method(FeatureIndex, "search_limited", spanned(
        recorder, "FeatureIndex.search_limited", "retrieval.index",
        lambda a, k, r: add("gallery.rows_scanned", _rows(a, k))))
    patch.method(FeatureIndex, "search_batch_limited", spanned(
        recorder, "FeatureIndex.search_batch_limited", "retrieval.index",
        lambda a, k, r: add("gallery.rows_scanned", _rows(a, k) * len(r))))
    methods(RetrievalEngine, ("add_video", "remove_video", "reembed_video"),
            "retrieval.write", lambda a, k, r: add("gallery.write.calls", 1))
    methods(ShardedGallery, ("compact",), "retrieval.write",
            lambda a, k, r: add("gallery.compactions", int(r > 0)))

    methods(RetrievalObjective, ("value", "values", "speculate", "commit"),
            "attacks.objective", lambda a, k, r: add("objective.calls", 1))
    for func in (ndcg_similarity, ndcg_similarity_many):
        patch.function(func, spanned(recorder, func.__name__,
                                     "metrics.ndcg"))
    methods(ComposedAttack, ("run",), "attacks.run")
    methods(SparseTransfer, ("run",), "attacks.transfer")

    methods(ServingFrontend, ("run",), "serving")
    patch.function(apply_gallery_event, spanned(
        recorder, "apply_gallery_event", "serving.event",
        lambda a, k, r: None))

    methods(MetricTrainer, ("train",), "training")
    methods(SurrogateTrainer, ("train",), "surrogate")
    patch.function(steal_training_set, spanned(
        recorder, "steal_training_set", "surrogate"))
    for cls in (optim.SGD, optim.Adam):
        patch.method(cls, "step", counted(recorder, "training.steps"))

    patch.method(Router, "decide", counted(recorder, "router.decides"))
    patch.method(Tracer, "reset", counted(
        recorder, "obs.spans",
        lambda a, k: getattr(a[0], "num_records", 0)
        + getattr(a[0], "dropped_records", 0)))
    patch.method(type(os.environ), "__getitem__",
                 counted(recorder, "env.reads"))
    return patch


def layer_values(recorder: SpanRecorder, roots: list[int]) -> dict:
    """Per-layer metrics over the unit trees rooted at ``roots``."""
    spans, counts = recorder.spans, recorder.counts
    members = [index for root in roots for index in subtree(spans, root)]
    own = self_times(spans, members)
    busy = {metric: 0.0 for metric in SELF_TIME.values()}
    events, runners = [], {}
    for index in members:
        record = spans[index]
        metric = SELF_TIME.get(record[LAYER])
        if metric is not None:
            busy[metric] += own[index]
        if record[LAYER] == "serving.event":
            events.append(record[END] - record[START])
        elif record[LAYER] == "experiments":
            runners[record[NAME]] = runners.get(record[NAME], 0.0) + \
                record[END] - record[START]

    lookups = counts["cache.lookups"]
    speculated = counts["service.speculated"]
    values = dict(busy)
    values.update({
        "forward.calls": counts["forward.calls"],
        "forward.rows": counts["forward.rows"],
        "backward.calls": counts["backward.calls"],
        "conv.calls": counts["conv.calls"],
        "conv.flops": counts["conv.flops"],
        "conv.bytes": counts["conv.bytes"],
        "cache.lookups": lookups,
        "cache.hit_ratio": counts["cache.hits"] / lookups if lookups else 0.0,
        "service.queries_charged": counts["service.issued"]
        + counts["service.committed"] - counts["service.refunds"]
        - counts["service.unissued"],
        "service.speculated": speculated,
        "service.speculation_useful_ratio":
            counts["service.committed"] / speculated if speculated else 0.0,
        "service.refunds": counts["service.refunds"],
        "gallery.search.calls": counts["gallery.search.calls"],
        "gallery.rows_scanned": counts["gallery.rows_scanned"],
        "gallery.write.calls": counts["gallery.write.calls"],
        "gallery.compactions": counts["gallery.compactions"],
        "serve.event_ms_p50": percentile_ms(events, 50),
        "serve.event_ms_p95": percentile_ms(events, 95),
        "objective.calls": counts["objective.calls"],
        "training.steps": counts["training.steps"],
        "obs.spans": counts["obs.spans"],
        "env.reads": counts["env.reads"],
        "router.decides": counts["router.decides"],
        "trace.wall_s": sum(spans[root][END] - spans[root][START]
                            for root in roots),
    })
    for runner in ("fig3", "fig4", "table2"):
        values[f"experiments.{runner}.wall_s"] = runners.get(runner, 0.0)
    return values
