"""Built-in differential-oracle pair declarations.

Importing this module populates the registry in :mod:`repro.qa.oracle`
with every reference/fast equivalence contract the library claims:

* ``conv2d`` / ``conv3d``: strided-einsum vs im2col GEMM (forward and
  both gradients) — the contract behind ``REPRO_CONV_IMPL``;
* the bincount ``col2im`` vs the offset loop it replaced, byte for byte,
  for conv input gradients and the ``max_pool3d`` backward;
* ``search`` vs ``search_batch`` on :class:`FeatureIndex`,
  :class:`IVFIndex`, and :class:`ShardedGallery`;
* snapshot-pinned gallery reads vs the build-everything-then-filter read
  they replaced, byte for byte;
* cached vs uncached query embeddings (``REPRO_EMBED_CACHE``);
* replicated (r = 2, 3) vs single-shard retrieval;
* sequential vs speculative/batched SparseQuery steps;
* scalar vs vectorized NDCG list similarity;
* micro-batched serving front end vs sequential replay against the bare
  service (``repro.serving``).

Each pair builds its own inputs deterministically from scalar case
parameters, so the shrinker can minimize counterexamples by shrinking
integers without ever producing inconsistent array shapes.
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro.attacks.duo.priors import TransferPriors
from repro.attacks.duo.sparse_query import SparseQuery
from repro.attacks.objective import RetrievalObjective
from repro.metrics.similarity import ndcg_similarity, ndcg_similarity_many
from repro.nn import Tensor
from repro.nn import functional as F
from repro.perf import gemm_conv
from repro.qa.comparators import (
    array_digest,
    assert_close,
    assert_retrieval_lists_equal,
)
from repro.qa.generators import (
    Strategy,
    draw_clustered_gallery,
    draw_gallery,
    shrink_int,
)
from repro.qa.oracle import OraclePair, register
from repro.qa.reference import (
    filter_all_snapshot_reads,
    max_pool3d_grad_loop,
    offset_loop_col2im,
)
from repro.qa.world import build_world, tiny_extractor
from repro.resilience.config import ResilienceConfig
from repro.retrieval.ann import IVFIndex
from repro.retrieval.index import FeatureIndex
from repro.retrieval.nodes import ShardedGallery
from repro.serving import (
    ServingConfig,
    ServingFrontend,
    TenantPolicy,
    TenantSpec,
    generate_timeline,
    replay_sequential,
)

# ---------------------------------------------------------------------- #
# conv einsum vs GEMM
# ---------------------------------------------------------------------- #


def _conv_case(seed: int, batch: int, in_ch: int, out_ch: int,
               spatial: tuple[int, ...], kernel: tuple[int, ...],
               stride: tuple[int, ...], padding: tuple[int, ...]):
    """Deterministic (x, w) for a conv problem, sanitized to be valid."""
    spatial = tuple(max(size, k) for size, k in zip(spatial, kernel))
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(batch, in_ch, *spatial))
    w = rng.normal(size=(out_ch, in_ch, *kernel))
    return x, w, stride, padding


def _conv_run(impl: str, conv, seed, batch, in_ch, out_ch, spatial, kernel,
              stride, padding):
    """Forward + backward of one conv under a forced implementation."""
    x, w, stride, padding = _conv_case(seed, batch, in_ch, out_ch, spatial,
                                       kernel, stride, padding)
    previous = gemm_conv._forced_impl
    gemm_conv.set_conv_impl(impl)
    try:
        xt = Tensor(x, requires_grad=True)
        wt = Tensor(w, requires_grad=True)
        out = conv(xt, wt, stride=stride, padding=padding)
        out.sum().backward()
        return {"out": out.data, "grad_x": xt.grad, "grad_w": wt.grad}
    finally:
        gemm_conv.set_conv_impl(previous)


def _conv2d_strategy(rng: np.random.Generator) -> dict:
    kernel = (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
    return {
        "seed": int(rng.integers(0, 2**31)),
        "batch": int(rng.integers(1, 4)),
        "in_ch": int(rng.integers(1, 4)),
        "out_ch": int(rng.integers(1, 4)),
        "spatial": (int(rng.integers(3, 10)), int(rng.integers(3, 10))),
        "kernel": kernel,
        "stride": (int(rng.integers(1, 3)), int(rng.integers(1, 3))),
        "padding": (int(rng.integers(0, 3)), int(rng.integers(0, 3))),
    }


def _conv3d_strategy(rng: np.random.Generator) -> dict:
    return {
        "seed": int(rng.integers(0, 2**31)),
        "batch": int(rng.integers(1, 3)),
        "in_ch": int(rng.integers(1, 3)),
        "out_ch": int(rng.integers(1, 3)),
        "spatial": (int(rng.integers(2, 6)), int(rng.integers(3, 8)),
                    int(rng.integers(3, 8))),
        "kernel": (int(rng.integers(1, 3)), int(rng.integers(1, 4)),
                   int(rng.integers(1, 4))),
        "stride": (int(rng.integers(1, 3)), int(rng.integers(1, 3)),
                   int(rng.integers(1, 3))),
        "padding": (int(rng.integers(0, 2)), int(rng.integers(0, 2)),
                    int(rng.integers(0, 2))),
    }


_CONV_SHRINKERS = {
    "batch": shrink_int(1),
    "in_ch": shrink_int(1),
    "out_ch": shrink_int(1),
}


def _conv_compare(reference, fast):
    assert_close(reference, fast, rtol=1e-8, atol=1e-10)


register(OraclePair(
    name="conv2d.einsum_vs_gemm",
    reference=lambda **case: _conv_run("einsum", F.conv2d, **case),
    fast=lambda **case: _conv_run("gemm", F.conv2d, **case),
    strategy=Strategy("conv2d", _conv2d_strategy, _CONV_SHRINKERS),
    compare=_conv_compare,
    cases=6,
    description="conv2d forward/backward: strided einsum vs im2col GEMM",
    guards=("REPRO_CONV_IMPL",),
))

register(OraclePair(
    name="conv3d.einsum_vs_gemm",
    reference=lambda **case: _conv_run("einsum", F.conv3d, **case),
    fast=lambda **case: _conv_run("gemm", F.conv3d, **case),
    strategy=Strategy("conv3d", _conv3d_strategy, _CONV_SHRINKERS),
    compare=_conv_compare,
    cases=4,
    description="conv3d forward/backward: strided einsum vs im2col GEMM",
    guards=("REPRO_CONV_IMPL",),
))


# ---------------------------------------------------------------------- #
# col2im: one bincount vs the offset loop, byte for byte
# ---------------------------------------------------------------------- #
def _signed_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Normal draws with about 15% ``+0.0`` and 15% ``-0.0`` entries."""
    values = rng.normal(size=shape)
    pick = rng.random(shape)
    values[pick < 0.15] = 0.0
    values[(pick >= 0.15) & (pick < 0.3)] = -0.0
    return values


def _col2im_conv_run(loop: bool, seed, rank, batch, in_ch, out_ch, spatial,
                     kernel, stride, padding, frozen):
    """Digests of a GEMM conv's gradients, col2im shipped or looped."""
    rng = np.random.default_rng(seed)
    kernel, stride, padding = kernel[:rank], stride[:rank], padding[:rank]
    spatial = tuple(max(size, k) for size, k in zip(spatial, kernel))
    x = Tensor(_signed_normal(rng, (batch, in_ch, *spatial)),
               requires_grad=True)
    w = Tensor(_signed_normal(rng, (out_ch, in_ch, *kernel)),
               requires_grad=not frozen)
    conv = F.conv2d if rank == 2 else F.conv3d
    previous = gemm_conv._forced_impl
    gemm_conv.set_conv_impl("gemm")
    try:
        with offset_loop_col2im() if loop else contextlib.nullcontext():
            out = conv(x, w, stride=stride, padding=padding)
            out.backward(_signed_normal(rng, out.shape))
    finally:
        gemm_conv.set_conv_impl(previous)
    return {"grad_x": array_digest(x.grad),
            "grad_w": None if frozen else array_digest(w.grad)}


def _col2im_conv_strategy(rng: np.random.Generator) -> dict:
    return {
        "seed": int(rng.integers(0, 2**31)),
        "rank": int(rng.integers(2, 4)),
        "batch": int(rng.integers(1, 4)),
        "in_ch": int(rng.integers(1, 4)),
        "out_ch": int(rng.integers(1, 4)),
        "spatial": tuple(int(v) for v in rng.integers(3, 8, size=3)),
        "kernel": tuple(int(v) for v in rng.integers(1, 4, size=3)),
        "stride": tuple(int(v) for v in rng.integers(1, 3, size=3)),
        "padding": tuple(int(v) for v in rng.integers(0, 2, size=3)),
        "frozen": bool(rng.integers(0, 2)),
    }


register(OraclePair(
    name="conv.col2im_vs_offset_loop",
    reference=lambda **case: _col2im_conv_run(True, **case),
    fast=lambda **case: _col2im_conv_run(False, **case),
    strategy=Strategy("col2im_conv", _col2im_conv_strategy,
                      _CONV_SHRINKERS),
    cases=8,
    description="conv input gradient: bincount col2im vs the offset loop, "
                "byte for byte (signed zeros, stride 2, padding 0, "
                "batch > 1)",
))


def _pool_case(seed, batch, channels, spatial, kernel, stride):
    """Small-integer input (so windows tie) and a signed-zero gradient."""
    rng = np.random.default_rng(seed)
    spatial = tuple(max(size, k) for size, k in zip(spatial, kernel))
    x = rng.integers(-2, 3, size=(batch, channels, *spatial)).astype(float)
    out_shape = (batch, channels) + tuple(
        (size - k) // step + 1 for size, k, step in zip(spatial, kernel,
                                                        stride))
    return x, _signed_normal(rng, out_shape)


def _pool_grad_shipped(seed, batch, channels, spatial, kernel, stride):
    x_data, grad = _pool_case(seed, batch, channels, spatial, kernel, stride)
    x = Tensor(x_data, requires_grad=True)
    F.max_pool3d(x, kernel, stride).backward(grad)
    return array_digest(x.grad)


def _pool_grad_loop(seed, batch, channels, spatial, kernel, stride):
    x_data, grad = _pool_case(seed, batch, channels, spatial, kernel, stride)
    out = F.max_pool3d(Tensor(x_data), kernel, stride).data
    return array_digest(max_pool3d_grad_loop(x_data, out, grad, kernel,
                                             stride))


def _pool_strategy(rng: np.random.Generator) -> dict:
    return {
        "seed": int(rng.integers(0, 2**31)),
        "batch": int(rng.integers(1, 4)),
        "channels": int(rng.integers(1, 3)),
        "spatial": tuple(int(v) for v in rng.integers(2, 8, size=3)),
        "kernel": tuple(int(v) for v in rng.integers(1, 4, size=3)),
        "stride": tuple(int(v) for v in rng.integers(1, 4, size=3)),
    }


register(OraclePair(
    name="max_pool3d.col2im_vs_offset_loop",
    reference=_pool_grad_loop,
    fast=_pool_grad_shipped,
    strategy=Strategy("max_pool3d", _pool_strategy,
                      {"batch": shrink_int(1), "channels": shrink_int(1)}),
    cases=8,
    description="max_pool3d backward: col2im scatter vs the offset loop, "
                "byte for byte (ties, overlapping windows, signed zeros)",
))


# ---------------------------------------------------------------------- #
# search vs search_batch (FeatureIndex / IVFIndex / ShardedGallery)
# ---------------------------------------------------------------------- #
def _index_strategy(rng: np.random.Generator) -> dict:
    return {
        "seed": int(rng.integers(0, 2**31)),
        "rows": int(rng.integers(1, 40)),
        "dim": int(rng.integers(1, 12)),
        "batch": int(rng.integers(1, 8)),
        "k": int(rng.integers(1, 10)),
    }


_INDEX_SHRINKERS = {
    "rows": shrink_int(1),
    "dim": shrink_int(1),
    "batch": shrink_int(1),
    "k": shrink_int(1),
}


def _queries_for(seed: int, batch: int, dim: int) -> np.ndarray:
    return np.random.default_rng(seed + 1).normal(size=(batch, dim))


def _feature_index(seed, rows, dim):
    index = FeatureIndex()
    index.add_batch(*draw_gallery(np.random.default_rng(seed), rows, dim))
    return index


def _search_sequential(build):
    def run(seed, rows, dim, batch, k):
        index = build(seed, rows, dim)
        queries = _queries_for(seed, batch, dim)
        return [index.search(query, k) for query in queries]
    return run


def _search_batched(build):
    def run(seed, rows, dim, batch, k):
        index = build(seed, rows, dim)
        queries = _queries_for(seed, batch, dim)
        return index.search_batch(queries, k)
    return run


register(OraclePair(
    name="feature_index.search_vs_batch",
    reference=_search_sequential(_feature_index),
    fast=_search_batched(_feature_index),
    strategy=Strategy("feature_index", _index_strategy, _INDEX_SHRINKERS),
    compare=assert_retrieval_lists_equal,
    cases=8,
    description="FeatureIndex.search_batch vs per-query search (bit-exact)",
))


def _ivf_index(seed, rows, dim):
    rng = np.random.default_rng(seed)
    index = IVFIndex(num_cells=4, nprobe=2, rng=np.random.default_rng(seed + 2))
    index.add_batch(*draw_gallery(rng, rows, dim))
    index.build()
    return index


register(OraclePair(
    name="ivf_index.search_vs_batch",
    reference=_search_sequential(_ivf_index),
    fast=_search_batched(_ivf_index),
    strategy=Strategy("ivf_index", _index_strategy, _INDEX_SHRINKERS),
    compare=assert_retrieval_lists_equal,
    cases=6,
    description="IVFIndex.search_batch vs per-query search (same cells)",
))


def _gallery_strategy(rng: np.random.Generator) -> dict:
    case = _index_strategy(rng)
    case["num_nodes"] = int(rng.integers(1, 5))
    return case


def _sharded_gallery(seed, rows, dim, num_nodes, replication=1):
    gallery = ShardedGallery(
        num_nodes=num_nodes,
        resilience=None if replication == 1 else
        ResilienceConfig(replication=replication))
    gallery.add_batch(*draw_gallery(np.random.default_rng(seed), rows, dim))
    return gallery


register(OraclePair(
    name="sharded_gallery.search_vs_batch",
    reference=lambda seed, rows, dim, batch, k, num_nodes: [
        _sharded_gallery(seed, rows, dim, num_nodes).search(query, k)
        for query in _queries_for(seed, batch, dim)
    ],
    fast=lambda seed, rows, dim, batch, k, num_nodes:
        _sharded_gallery(seed, rows, dim, num_nodes).search_batch(
            _queries_for(seed, batch, dim), k),
    strategy=Strategy("sharded_gallery", _gallery_strategy,
                      dict(_INDEX_SHRINKERS, num_nodes=shrink_int(1))),
    compare=assert_retrieval_lists_equal,
    cases=6,
    description="ShardedGallery scatter/gather batch vs sequential search",
))


# ---------------------------------------------------------------------- #
# snapshot reads: lazy filtering vs build-everything-then-filter
# ---------------------------------------------------------------------- #
def _snapshot_reads(filter_all: bool, seed, rows, dim, num_nodes, dead,
                    reembeds, appended, ties, batch, k, tier):
    """``search`` and ``search_batch`` pinned to one churned snapshot.

    The gallery carries ``dead`` tombstones (``reembeds`` of them
    re-embedded onto a neighbour's feature, so aliased rows tie with
    live ones), ``ties`` duplicated feature rows, and ``appended`` rows
    added after the snapshot, past its watermarks, plus one delete the
    snapshot must not see.
    """
    dead = min(dead, rows // 4)
    reembeds = min(reembeds, dead)
    ties = min(ties, rows // 4)
    rng = np.random.default_rng(seed)
    ids, labels, features = draw_gallery(rng, rows, dim)
    features[rows - ties:] = features[:ties]
    gallery = ShardedGallery(num_nodes=num_nodes)
    gallery.set_index_tier(tier)
    gallery.add_batch(ids, labels, features)
    gallery.enable_churn()
    victims = rng.permutation(rows)[:dead]
    for row in victims[:dead - reembeds]:
        gallery.delete(ids[row])
    for row in victims[dead - reembeds:]:
        gallery.reembed(ids[row], labels[row], features[(row + 1) % rows])
    snap = gallery.snapshot()
    for row in range(appended):
        gallery.add(f"late{row}", 0, features[row % rows])
    gallery.delete(gallery.live_ids()[0])
    queries = features[rng.integers(0, rows, size=batch)]
    queries[1::2] += 0.1 * rng.normal(size=queries[1::2].shape)
    reads = filter_all_snapshot_reads() if filter_all \
        else contextlib.nullcontext()
    with reads:
        return {
            "search": [gallery.search(query, k, snapshot=snap)
                       for query in queries],
            "search_batch": gallery.search_batch(queries, k, snapshot=snap),
        }


def _snapshot_strategy(rng: np.random.Generator) -> dict:
    rows = int(rng.integers(8, 160))
    dead = int(rng.integers(0, rows // 4 + 1))
    return {
        "seed": int(rng.integers(0, 2**31)),
        "rows": rows,
        "dim": int(rng.integers(1, 10)),
        "num_nodes": int(rng.integers(1, 5)),
        "dead": dead,
        "reembeds": int(rng.integers(0, dead + 1)),
        "appended": int(rng.integers(0, 12)),
        "ties": int(rng.integers(0, rows // 4 + 1)),
        "batch": int(rng.integers(1, 8)),
        "k": int(rng.integers(1, 12)),
        "tier": str(rng.choice(("exact", "exact", "exact", "hamming"))),
    }


def _snapshot_compare(reference, fast):
    for key in ("search", "search_batch"):
        assert_retrieval_lists_equal(reference[key], fast[key], key)


register(OraclePair(
    name="gallery.snapshot_read_vs_filter_all",
    reference=lambda **case: _snapshot_reads(True, **case),
    fast=lambda **case: _snapshot_reads(False, **case),
    strategy=Strategy(
        "snapshot_reads", _snapshot_strategy,
        {"rows": shrink_int(8), "dim": shrink_int(1),
         "num_nodes": shrink_int(1), "dead": shrink_int(0),
         "reembeds": shrink_int(0), "appended": shrink_int(0),
         "ties": shrink_int(0), "batch": shrink_int(1),
         "k": shrink_int(1)}),
    compare=_snapshot_compare,
    cases=8,
    description="snapshot reads that build entries only for kept rows "
                "match building every over-fetched row, then filtering "
                "(bit-exact, search and search_batch)",
))


# ---------------------------------------------------------------------- #
# compressed index tier (+ exact rerank) vs exact FeatureIndex
# ---------------------------------------------------------------------- #
#: Mean recall@k the compressed tiers must reach against the exact
#: index on clustered (embedding-shaped) galleries.
COMPRESSED_RECALL_FLOOR = 0.95


def _compressed_case(seed: int, rows: int, dim: int, batch: int, k: int):
    """Clustered gallery + near-gallery queries (shared by both sides)."""
    rng = np.random.default_rng(seed)
    ids, labels, features = draw_clustered_gallery(rng, rows, dim)
    anchors = rng.choice(rows, size=min(batch, rows), replace=False)
    queries = features[anchors] + 0.1 * rng.normal(
        size=(len(anchors), dim))
    if len(anchors) < batch:  # more queries than rows: recycle anchors
        extra = rng.integers(0, rows, size=batch - len(anchors))
        queries = np.concatenate([
            queries,
            features[extra] + 0.1 * rng.normal(size=(len(extra), dim)),
        ])
    return ids, labels, features, queries


def _exact_id_lists(tier, seed, rows, dim, batch, k):
    ids, labels, features, queries = _compressed_case(seed, rows, dim,
                                                      batch, k)
    index = FeatureIndex()
    index.add_batch(ids, labels, features)
    return [[entry.video_id for entry in result]
            for result in index.search_batch(queries, k)]


def _compressed_id_lists(tier, seed, rows, dim, batch, k):
    from repro.hashindex import BinaryHashIndex, IVFPQIndex

    ids, labels, features, queries = _compressed_case(seed, rows, dim,
                                                      batch, k)
    rerank = max(32, 4 * k)
    if tier == "hamming":
        index = BinaryHashIndex(nbits=128, coder="itq", rerank=rerank,
                                rng=seed + 1)
    else:
        index = IVFPQIndex(num_cells=8, nprobe=4,
                           num_subvectors=min(8, dim), rerank=rerank,
                           rng=seed + 1)
    index.add_batch(ids, labels, features)
    return [[entry.video_id for entry in result]
            for result in index.search_batch(queries, k)]


def _recall_floor_compare(reference, fast):
    """Mean per-query overlap with the exact top-k must clear the floor."""
    recalls = [
        len(set(exact) & set(approx)) / max(len(exact), 1)
        for exact, approx in zip(reference, fast)
    ]
    mean_recall = sum(recalls) / max(len(recalls), 1)
    assert mean_recall >= COMPRESSED_RECALL_FLOOR, (
        f"compressed recall@k {mean_recall:.3f} below floor "
        f"{COMPRESSED_RECALL_FLOOR} (per-query: "
        f"{[round(r, 2) for r in recalls]})")


def _compressed_strategy(rng: np.random.Generator) -> dict:
    return {
        "tier": str(rng.choice(("hamming", "ivfpq"))),
        "seed": int(rng.integers(0, 2**31)),
        "rows": int(rng.integers(48, 200)),
        "dim": int(rng.integers(8, 28)),
        "batch": int(rng.integers(1, 8)),
        "k": int(rng.integers(1, 11)),
    }


register(OraclePair(
    name="hashindex.compressed_vs_exact",
    reference=_exact_id_lists,
    fast=_compressed_id_lists,
    strategy=Strategy("hashindex", _compressed_strategy,
                      dict(_INDEX_SHRINKERS)),
    compare=_recall_floor_compare,
    cases=6,
    description="compressed tiers (+ exact rerank) hold recall@k ≥ "
                f"{COMPRESSED_RECALL_FLOOR} vs the exact FeatureIndex",
    guards=("REPRO_INDEX_TIER",),
))


# ---------------------------------------------------------------------- #
# replicated vs single-shard retrieval
# ---------------------------------------------------------------------- #
def _replication_strategy(rng: np.random.Generator) -> dict:
    case = _index_strategy(rng)
    case["num_nodes"] = int(rng.integers(3, 6))
    case["replication"] = int(rng.choice((2, 3)))
    return case


register(OraclePair(
    name="gallery.replicated_vs_single",
    reference=lambda seed, rows, dim, batch, k, num_nodes, replication: [
        _sharded_gallery(seed, rows, dim, num_nodes).search(query, k)
        for query in _queries_for(seed, batch, dim)
    ],
    fast=lambda seed, rows, dim, batch, k, num_nodes, replication: [
        _sharded_gallery(seed, rows, dim, num_nodes,
                         replication=replication).search(query, k)
        for query in _queries_for(seed, batch, dim)
    ],
    strategy=Strategy("replication", _replication_strategy,
                      dict(_INDEX_SHRINKERS, replication=shrink_int(2))),
    compare=assert_retrieval_lists_equal,
    cases=5,
    description="replication r=2,3 keeps retrieval exact vs r=1",
))


# ---------------------------------------------------------------------- #
# cached vs uncached query embeddings
# ---------------------------------------------------------------------- #
def _embed_run(cache_size: int, seed: int, num_videos: int):
    world = build_world(seed, num_videos=5, cache_size=cache_size)
    from repro.qa.world import tiny_videos

    queries = tiny_videos(seed + 17, num_videos)
    first = world.engine.embed_queries(queries)
    second = world.engine.embed_queries(queries)  # cache hits when enabled
    return {"first": first, "second": second}


def _embed_compare(reference, fast):
    np.testing.assert_array_equal(reference["first"], fast["first"])
    np.testing.assert_array_equal(reference["second"], fast["second"])
    np.testing.assert_array_equal(fast["first"], fast["second"])


register(OraclePair(
    name="engine.cached_vs_uncached",
    reference=lambda seed, num_videos: _embed_run(0, seed, num_videos),
    fast=lambda seed, num_videos: _embed_run(32, seed, num_videos),
    strategy=Strategy(
        "embed_cache",
        lambda rng: {"seed": int(rng.integers(0, 2**31)),
                     "num_videos": int(rng.integers(1, 5))},
        {"num_videos": shrink_int(1)},
    ),
    compare=_embed_compare,
    cases=2,
    description="EmbeddingCache hits are bit-identical to fresh forwards",
    guards=("REPRO_EMBED_CACHE",),
))


# ---------------------------------------------------------------------- #
# sequential vs speculative SparseQuery
# ---------------------------------------------------------------------- #
def _qa_priors(shape: tuple[int, ...], seed: int, k: int = 48) -> TransferPriors:
    rng = np.random.default_rng(seed)
    per_frame = int(np.prod(shape[1:]))
    flat = np.zeros(int(np.prod(shape)), dtype=bool)
    flat[rng.choice(2 * per_frame, size=min(k, 2 * per_frame),
                    replace=False)] = True
    theta = np.zeros(shape)
    theta.reshape(-1)[flat] = rng.uniform(-0.1, 0.1, size=flat.sum())
    frame_mask = np.zeros(shape[0])
    frame_mask[:2] = 1.0
    return TransferPriors(pixel_mask=flat.reshape(shape).astype(float),
                          frame_mask=frame_mask, theta=theta)


def _sparse_query_run(batched: bool, seed: int, iters: int):
    world = build_world(seed, cache_size=0)
    objective = RetrievalObjective(world.service, world.original,
                                   world.target)
    attack = SparseQuery(iter_num_q=iters, tau=30, rng=seed + 5,
                         batched=batched)
    priors = _qa_priors(world.original.pixels.shape, seed + 9)
    adversarial, trace = attack.run(world.original, priors, objective)
    return {
        "perturbation_digest": array_digest(adversarial.pixels),
        "trace": list(trace),
        "objective_trace": list(objective.trace),
        "objective_queries": objective.queries,
        "service_queries": world.service.query_count,
    }


def _exact_compare(reference, fast):
    assert reference == fast, (
        f"sequential/speculative state diverged:\n  seq: {reference}\n"
        f"  spec: {fast}")


register(OraclePair(
    name="sparse_query.sequential_vs_speculative",
    reference=lambda seed, iters: _sparse_query_run(False, seed, iters),
    fast=lambda seed, iters: _sparse_query_run(True, seed, iters),
    strategy=Strategy(
        "sparse_query",
        lambda rng: {"seed": int(rng.integers(0, 1000)),
                     "iters": int(rng.integers(2, 6))},
        {"iters": shrink_int(1)},
    ),
    compare=_exact_compare,
    cases=2,
    description="speculative ±ε SparseQuery steps match the sequential loop",
))


# ---------------------------------------------------------------------- #
# scalar vs vectorized NDCG similarity
# ---------------------------------------------------------------------- #
def _ndcg_lists(seed: int, num_lists: int, length: int, universe: int):
    from repro.qa.generators import draw_id_list

    rng = np.random.default_rng(seed)
    lists_a = [draw_id_list(rng, universe, length) for _ in range(num_lists)]
    list_b = draw_id_list(rng, universe, length)
    return lists_a, list_b


# ---------------------------------------------------------------------- #
# micro-batched serving front end vs sequential replay
# ---------------------------------------------------------------------- #
def _serving_run(batched: bool, seed: int, tenants: int, per_tenant: int,
                 batch: int, limited: int):
    """One tenant timeline through the front end (or the bare service).

    The contract under test: with every request admitted into an
    uncontended queue (capacity exceeds the offered load, all
    interactive, no global budget), micro-batching is purely a
    performance transform — statuses, retrieval lists, per-tenant served
    counts, and the service ledger match the sequential replay exactly.
    Rate limiting stays in scope because admission decisions depend only
    on arrival times, never on batch state.
    """
    from repro.qa.world import tiny_videos

    world = build_world(seed % 997, num_videos=6)
    videos = tiny_videos(seed + 3, 3, label_base=5)
    specs = [TenantSpec(f"tenant-{i}", 150.0 + 50.0 * i, per_tenant)
             for i in range(tenants)]
    timeline = generate_timeline(seed + 11, specs, videos)
    config = ServingConfig(
        max_batch_size=batch, max_wait_s=0.003, queue_capacity=512,
        default_tenant=TenantPolicy(rate_per_s=120.0 if limited else None,
                                    burst=2))
    if batched:
        report = ServingFrontend(world.service, config).run(timeline)
    else:
        report = replay_sequential(timeline, world.service, config)
    return {
        "statuses": [response.status for response in report.responses],
        "lists": [response.result for response in report.responses
                  if response.ok],
        "served_by_tenant": report.served_by_tenant,
        "ledger": (world.service.query_count,
                   world.service.queries_issued,
                   world.service.queries_refunded),
    }


def _serving_compare(reference, fast):
    assert reference["statuses"] == fast["statuses"], (
        f"statuses diverged:\n  seq: {reference['statuses']}\n"
        f"  batched: {fast['statuses']}")
    assert reference["served_by_tenant"] == fast["served_by_tenant"], (
        f"per-tenant counts diverged: {reference['served_by_tenant']} vs "
        f"{fast['served_by_tenant']}")
    assert reference["ledger"] == fast["ledger"], (
        f"service ledger diverged: {reference['ledger']} vs "
        f"{fast['ledger']}")
    # Rankings must match exactly; scores only to float tolerance — the
    # embedding forward is batched (one model batch of B vs B batches of
    # one), and BLAS picks different kernels per batch shape, so the
    # last bit can differ (same contract as
    # ``test_query_batch_matches_sequential``).
    for i, (seq_list, batched_list) in enumerate(
            zip(reference["lists"], fast["lists"])):
        assert seq_list.ids == batched_list.ids, (
            f"list[{i}] ranking diverged: {seq_list.ids} vs "
            f"{batched_list.ids}")
        np.testing.assert_allclose(
            [entry.score for entry in seq_list],
            [entry.score for entry in batched_list], rtol=1e-9, atol=1e-12)


register(OraclePair(
    name="serving.batched_vs_sequential",
    reference=lambda **case: _serving_run(False, **case),
    fast=lambda **case: _serving_run(True, **case),
    strategy=Strategy(
        "serving",
        lambda rng: {"seed": int(rng.integers(0, 2**31)),
                     "tenants": int(rng.integers(1, 4)),
                     "per_tenant": int(rng.integers(1, 6)),
                     "batch": int(rng.integers(2, 7)),
                     "limited": int(rng.integers(0, 2))},
        {"tenants": shrink_int(1), "per_tenant": shrink_int(1),
         "batch": shrink_int(1)},
    ),
    compare=_serving_compare,
    cases=3,
    description="micro-batched serving front end matches sequential replay",
    guards=("REPRO_SERVING_BATCH",),
))


# ---------------------------------------------------------------------- #
# trace-and-fuse replay vs eager forward/backward
# ---------------------------------------------------------------------- #
def _fused_run(fused: bool, seed: int, batch: int, frames: int, grad: int):
    from repro.nn import jit
    from repro.nn.tensor import no_grad
    from repro.qa.world import tiny_extractor

    model = tiny_extractor(seed % 9973)
    if grad:
        for param in model.parameters():
            param.requires_grad = True
    run = jit.compile(model) if fused else model
    rng = np.random.default_rng(seed + 1)
    results = {}
    # Two distinct inputs per case: trial 0 is the recording pass on the
    # fused side (eager by construction), so only trial 1 exercises the
    # replay schedule — stale captured buffers cannot hide behind the
    # trace-time result.
    for trial in range(2):
        x = rng.standard_normal((batch, 3, frames, 8, 8))
        if grad:
            for param in model.parameters():
                param.grad = None
            xt = Tensor(x, requires_grad=True)
            out = run(xt)
            out.backward(np.ones_like(out.data))
            results[f"out.{trial}"] = out.data
            results[f"grad_x.{trial}"] = xt.grad
            for name, param in model.named_parameters():
                results[f"grad.{name}.{trial}"] = param.grad
        else:
            with no_grad():
                results[f"out.{trial}"] = run(Tensor(x)).data
    return results


def _fused_compare(reference, fast):
    assert reference.keys() == fast.keys()
    for key, value in reference.items():
        if value is None:
            assert fast[key] is None, f"{key}: eager None vs fused array"
            continue
        np.testing.assert_array_equal(value, fast[key], err_msg=key)


register(OraclePair(
    name="nn.fused_vs_eager",
    reference=lambda **case: _fused_run(False, **case),
    fast=lambda **case: _fused_run(True, **case),
    strategy=Strategy(
        "fused",
        lambda rng: {"seed": int(rng.integers(0, 2**31)),
                     "batch": int(rng.integers(1, 3)),
                     "frames": int(rng.integers(1, 4)),
                     "grad": int(rng.integers(0, 2))},
        {"batch": shrink_int(1), "frames": shrink_int(1)},
    ),
    compare=_fused_compare,
    cases=3,
    description="trace-and-fuse replay is bit-identical to eager "
                "(outputs and gradients, replay pass included)",
    guards=("REPRO_NN_FUSE",),
))


register(OraclePair(
    name="ndcg.scalar_vs_many",
    reference=lambda seed, num_lists, length, universe: [
        ndcg_similarity(a, _ndcg_lists(seed, num_lists, length, universe)[1])
        for a in _ndcg_lists(seed, num_lists, length, universe)[0]
    ],
    fast=lambda seed, num_lists, length, universe:
        ndcg_similarity_many(*_ndcg_lists(seed, num_lists, length, universe)),
    strategy=Strategy(
        "ndcg",
        lambda rng: {"seed": int(rng.integers(0, 2**31)),
                     "num_lists": int(rng.integers(1, 6)),
                     "length": int(rng.integers(1, 10)),
                     "universe": int(rng.integers(10, 30))},
        {"num_lists": shrink_int(1), "length": shrink_int(1)},
    ),
    compare=_exact_compare,
    cases=8,
    description="ndcg_similarity_many is bit-identical to scalar calls",
))


# ---------------------------------------------------------------------- #
# composed strategies vs legacy attack implementations
# ---------------------------------------------------------------------- #
#: Legacy attacks re-expressed as registry compositions; the reference
#: side runs the pre-redesign *code path* (the monolithic recipe — raw
#: support function + search primitive, or the untouched DUOAttack
#: pipeline), not the shim classes, so the contract is non-vacuous.
_LEGACY_STRATEGIES = ("vanilla", "heu-sim", "heu-nes", "duo", "timi")


def _attack_digests(service, adversarial, trace, queries) -> dict:
    return {
        "perturbation_digest": array_digest(adversarial.pixels),
        "trace": [float(value) for value in trace],
        "queries": int(queries),
        "service_queries": int(service.query_count),
    }


def _legacy_attack_run(name: str, seed: int, iters: int) -> dict:
    """The monolithic pre-redesign recipe for each legacy attack."""
    world = build_world(seed, cache_size=0)
    rng = np.random.default_rng(seed + 17)
    if name == "duo":
        from repro.attacks.duo import DUOAttack

        attack = DUOAttack(tiny_extractor(seed + 23), world.service, k=48,
                           n=2, tau=30.0, iter_num_q=iters, iter_num_h=2,
                           transfer_outer_iters=1, theta_steps=3, rng=rng)
        result = attack.run(world.original, world.target)
        return _attack_digests(world.service, result.adversarial,
                               result.trace, result.queries)
    if name == "timi":
        from repro.attacks.timi import timi_transfer

        report = timi_transfer(tiny_extractor(seed + 23), world.original,
                               world.target, tau=30 / 255.0,
                               iterations=iters)
        return _attack_digests(world.service, report.adversarial,
                               report.trace, report.queries)

    from repro.attacks.search import nes_search, simba_search

    objective = RetrievalObjective(world.service, world.original,
                                   world.target)
    if name == "vanilla":
        from repro.attacks.vanilla import random_support

        support = random_support(world.original.pixels.shape, 48, 2, rng=rng)
        report = simba_search(world.original, objective, support,
                              tau=30 / 255.0, iterations=iters, rng=rng)
    elif name == "heu-sim":
        from repro.attacks.heu import saliency_support

        support = saliency_support(world.original, 48, 2, random_pixels=True,
                                   rng=rng)
        report = simba_search(world.original, objective, support,
                              tau=30 / 255.0, iterations=iters, rng=rng)
    else:  # heu-nes
        from repro.attacks.heu import saliency_support

        support = saliency_support(world.original, 48, 2, rng=rng)
        report = nes_search(world.original, objective, support,
                            tau=30 / 255.0, iterations=iters, samples=2,
                            rng=rng)
    return _attack_digests(world.service, report.adversarial, report.trace,
                           objective.queries)


def _composed_attack_run(name: str, seed: int, iters: int) -> dict:
    """The same attack through the registry and the ComposedAttack driver."""
    from repro.attacks.config import AttackConfig
    from repro.attacks.registry import build_attack

    world = build_world(seed, cache_size=0)
    rng = np.random.default_rng(seed + 17)
    surrogate = tiny_extractor(seed + 23) if name in ("duo", "timi") \
        else None
    if name == "duo":
        config = AttackConfig(strategy="duo", k=48, n=2, tau=30.0,
                              iterations=iters, rounds=2,
                              sampler={"outer_iters": 1, "theta_steps": 3})
    elif name == "timi":
        config = AttackConfig(strategy="timi", tau=30.0, iterations=iters)
    elif name == "heu-nes":
        config = AttackConfig(strategy="heu-nes", k=48, n=2, tau=30.0,
                              iterations=iters, feedback={"samples": 2})
    else:
        config = AttackConfig(strategy=name, k=48, n=2, tau=30.0,
                              iterations=iters)
    attack = build_attack(config,
                          service=None if name == "timi" else world.service,
                          surrogate=surrogate, rng=rng)
    report = attack.run(world.original, world.target)
    return _attack_digests(world.service, report.adversarial, report.trace,
                           report.queries)


register(OraclePair(
    name="attacks.composed_vs_legacy",
    reference=_legacy_attack_run,
    fast=_composed_attack_run,
    strategy=Strategy(
        "composed_attack",
        lambda rng: {
            "name": str(rng.choice(_LEGACY_STRATEGIES)),
            "seed": int(rng.integers(0, 500)),
            "iters": int(rng.integers(2, 6)),
        },
        {"iters": shrink_int(2)},
    ),
    compare=_exact_compare,
    cases=5,
    description="every legacy attack re-expressed as a registry "
                "composition is bit-identical (trace, queries, pixels)",
))


# ---------------------------------------------------------------------- #
# scale-out serving: worker pool + live gallery churn
# ---------------------------------------------------------------------- #
def _pooled_world(seed: int):
    """A deterministic multi-shard, replication-1 world for churn runs.

    Replication is pinned at 1 because :meth:`ShardedGallery.enable_churn`
    requires single-replica placement on a populated gallery; the
    replicated read path has its own oracle
    (``retrieval.replicated_vs_single``).
    """
    return build_world(seed % 997, num_videos=12, num_nodes=3,
                       replication=1)


def _pooled_config(batch: int, workers: int) -> ServingConfig:
    # Uncontended queue, no budgets: shedding under load has its own
    # tests; the pooled contract is about clean-path equivalence.
    return ServingConfig(max_batch_size=batch, max_wait_s=0.003,
                         queue_capacity=512, workers=workers)


def _pooled_run(workers: int, seed: int, tenants: int, per_tenant: int,
                batch: int):
    """A pure-query timeline through the front end at a worker count.

    The contract: worker count is semantics-invisible.  Admission,
    accounting, and snapshotting happen on the event-loop thread at
    arrival/dispatch virtual times, so W workers change virtual
    latencies and throughput but never statuses, rankings, or ledgers.
    """
    world = _pooled_world(seed)
    specs = [TenantSpec(f"tenant-{i}", 150.0 + 50.0 * i, per_tenant)
             for i in range(tenants)]
    timeline = generate_timeline(seed + 11, specs, world.gallery_videos)
    report = ServingFrontend(world.service,
                             _pooled_config(batch, workers)).run(timeline)
    return {
        "statuses": [response.status for response in report.responses],
        "lists": [response.result for response in report.responses
                  if response.ok],
        "served_by_tenant": report.served_by_tenant,
        "ledger": (world.service.query_count,
                   world.service.queries_issued,
                   world.service.queries_refunded),
    }


register(OraclePair(
    name="serving.pooled_vs_single",
    reference=lambda **case: _pooled_run(1, **case),
    fast=lambda **case: _pooled_run(3, **case),
    strategy=Strategy(
        "serving_pool",
        lambda rng: {"seed": int(rng.integers(0, 2**31)),
                     "tenants": int(rng.integers(1, 4)),
                     "per_tenant": int(rng.integers(1, 6)),
                     "batch": int(rng.integers(2, 7))},
        {"tenants": shrink_int(1), "per_tenant": shrink_int(1),
         "batch": shrink_int(1)},
    ),
    compare=_serving_compare,
    cases=3,
    description="worker-pool execution is semantics-invisible: statuses, "
                "rankings, and ledgers match the single-worker scheduler",
    guards=("REPRO_SERVING_WORKERS",),
))


def _mutating_timeline(seed: int, tenants: int, per_tenant: int,
                       adds: int, deletes: int, reembeds: int):
    """One (requests ⊎ events) timeline and its world, deterministically."""
    from repro.serving import generate_churn

    world = _pooled_world(seed)
    specs = [TenantSpec(f"tenant-{i}", 150.0 + 50.0 * i, per_tenant)
             for i in range(tenants)]
    requests = generate_timeline(seed + 11, specs, world.gallery_videos)
    horizon = max((request.arrival_s for request in requests), default=0.1)
    events = generate_churn(seed, [v.video_id for v in world.gallery_videos],
                            adds=adds, deletes=deletes, reembeds=reembeds,
                            horizon_s=horizon)
    return world, list(requests) + list(events)


def _mutating_run(pooled: bool, seed: int, tenants: int, per_tenant: int,
                  adds: int, deletes: int, reembeds: int, batch: int):
    """Replay a mutating timeline pooled (W=3) or sequentially.

    The contract: a query admitted at time t sees exactly the gallery
    version current at t (events before queries on ties), no matter how
    long its batch waits on a worker — snapshot pinning at admission
    makes add/delete/re-embed under traffic linearizable at arrival
    order, with bit-identical ledgers.
    """
    from repro.serving import replay_sequential_mutating

    world, timeline = _mutating_timeline(seed, tenants, per_tenant,
                                         adds, deletes, reembeds)
    config = _pooled_config(batch, 3)
    if pooled:
        report = ServingFrontend(world.service, config).run(timeline)
    else:
        report = replay_sequential_mutating(timeline, world.service, config)
    return {
        "statuses": [response.status for response in report.responses],
        "lists": [response.result for response in report.responses
                  if response.ok],
        "served_by_tenant": report.served_by_tenant,
        "events": report.gallery_events,
        "ledger": (world.service.query_count,
                   world.service.queries_issued,
                   world.service.queries_refunded),
    }


def _mutating_compare(reference, fast):
    assert reference["events"] == fast["events"], (
        f"applied-event counts diverged: {reference['events']} vs "
        f"{fast['events']}")
    _serving_compare(reference, fast)


register(OraclePair(
    name="serving.mutating_timeline",
    reference=lambda **case: _mutating_run(False, **case),
    fast=lambda **case: _mutating_run(True, **case),
    strategy=Strategy(
        "serving_churn",
        lambda rng: {"seed": int(rng.integers(0, 2**31)),
                     "tenants": int(rng.integers(1, 4)),
                     "per_tenant": int(rng.integers(2, 7)),
                     "adds": int(rng.integers(0, 4)),
                     "deletes": int(rng.integers(0, 5)),
                     "reembeds": int(rng.integers(0, 4)),
                     "batch": int(rng.integers(2, 7))},
        {"tenants": shrink_int(1), "per_tenant": shrink_int(1),
         "adds": shrink_int(0), "deletes": shrink_int(0),
         "reembeds": shrink_int(0), "batch": shrink_int(1)},
    ),
    compare=_mutating_compare,
    cases=3,
    description="interleaved query/add/delete/re-embed replayed "
                "sequentially matches the pooled front end: statuses, "
                "rankings, ledgers, and applied-event counts",
    guards=("REPRO_SERVING_WORKERS", "REPRO_GALLERY_CHURN"),
))
