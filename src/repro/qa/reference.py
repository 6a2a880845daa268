"""Reference implementations the shipped fast paths are checked against.

Each function here is the plain loop a production path replaced.  They
stay only as the reference side of a differential pair
(:mod:`repro.qa.pairs`) and as the "before" leg of
``benchmarks/bench_perf_hotpath.py`` and ``benchmarks/bench_serving.py``;
nothing in the library calls them.

* :func:`col2im_offset_loop` — one strided ``+=`` per kernel offset, the
  scatter :func:`repro.perf.gemm_conv.col2im` does with one
  ``np.bincount``.
* :func:`max_pool3d_grad_loop` — the whole ``max_pool3d`` input
  gradient, with its own offset-loop scatter over the
  ``(…, positions, offsets)`` window layout.
* :func:`offset_loop_col2im` — swaps :func:`col2im_offset_loop` in for
  the shipped ``col2im`` while active, so a whole forward/backward (conv
  input gradients and the ``max_pool3d`` scatter) runs on the loop.
* :func:`filter_all_snapshot_search` / :func:`filter_all_snapshot_search_batch`
  — the snapshot-pinned shard read that builds a result entry for every
  over-fetched row and then drops the ones the snapshot cannot see; the
  shipped read walks the ranking and builds entries only for rows it
  keeps.  :func:`filter_all_snapshot_reads` swaps them in for the
  shipped read on every :class:`ShardedGallery` while active.
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro.perf import gemm_conv
from repro.retrieval.lists import RetrievalEntry
from repro.retrieval.nodes import ShardedGallery


def _slab(offset, out_spatial, stride) -> tuple[slice, ...]:
    """Strided slices picking one kernel offset's input slab."""
    return (slice(None), slice(None)) + tuple(
        slice(off, off + size * step, step)
        for off, size, step in zip(offset, out_spatial, stride))


def col2im_offset_loop(cols: np.ndarray, plan) -> np.ndarray:
    """Reference col2im: ``cols`` is ``(B, C, *K, *P)``, ``plan`` a ConvPlan."""
    rank = len(plan.stride)
    kernel = cols.shape[2:2 + rank]
    padded = np.zeros(plan.padded_shape)
    for offset in np.ndindex(*kernel):
        padded[_slab(offset, plan.out_spatial, plan.stride)] += \
            cols[(slice(None), slice(None), *offset)]
    return padded


def max_pool3d_grad_loop(x: np.ndarray, out: np.ndarray, grad: np.ndarray,
                         kernel: tuple[int, int, int],
                         stride: tuple[int, int, int]) -> np.ndarray:
    """Reference ``max_pool3d`` input gradient (ties share equally)."""
    windows = np.lib.stride_tricks.sliding_window_view(
        x, kernel, axis=(2, 3, 4))[:, :, ::stride[0], ::stride[1],
                                   ::stride[2]]
    mask = windows == out[..., None, None, None]
    weights = mask / mask.sum(axis=(5, 6, 7), keepdims=True)
    contrib = weights * grad[..., None, None, None]
    grad_x = np.zeros_like(x)
    for offset in np.ndindex(*kernel):
        grad_x[_slab(offset, out.shape[2:], stride)] += \
            contrib[(Ellipsis, *offset)]
    return grad_x


@contextlib.contextmanager
def offset_loop_col2im():
    """Run every ``col2im`` through :func:`col2im_offset_loop` while active."""
    shipped = gemm_conv.col2im
    gemm_conv.col2im = col2im_offset_loop
    try:
        yield
    finally:
        gemm_conv.col2im = shipped


def _filter_all(entries, snap, k: int) -> list[RetrievalEntry]:
    """Every entry visible at ``snap`` under its public id, then the head."""
    kept = [RetrievalEntry(snap.public_id(entry.video_id), entry.label,
                           entry.score)
            for entry in entries if snap.visible(entry.video_id)]
    return kept[:k]


def _over_fetch(snap, position: int, k: int) -> tuple:
    """``(index, rows to fetch, watermark)`` for one shard of ``snap``."""
    index = snap.indexes[position]
    watermark = snap.watermarks[position]
    fetch = int(k) + snap.node_dead[position]
    if not hasattr(index, "search_limited"):
        fetch += max(0, len(index) - watermark)
    return index, fetch, watermark


def filter_all_snapshot_search(gallery, snap, position: int, query, k: int
                               ) -> list[RetrievalEntry]:
    """Reference ``ShardedGallery._snapshot_search_one``."""
    if position >= len(snap.indexes):
        return []
    index, fetch, watermark = _over_fetch(snap, position, k)
    entries = index.search_limited(query, fetch, watermark) \
        if hasattr(index, "search_limited") else index.search(query, fetch)
    return _filter_all(entries, snap, int(k))


def filter_all_snapshot_search_batch(gallery, snap, position: int, queries,
                                     k: int) -> list[list[RetrievalEntry]]:
    """Reference ``ShardedGallery._snapshot_search_batch``."""
    if position >= len(snap.indexes):
        return [[] for _ in range(len(queries))]
    index, fetch, watermark = _over_fetch(snap, position, k)
    lists = index.search_batch_limited(queries, fetch, watermark) \
        if hasattr(index, "search_batch_limited") \
        else index.search_batch(queries, fetch)
    return [_filter_all(entries, snap, int(k)) for entries in lists]


@contextlib.contextmanager
def filter_all_snapshot_reads():
    """Run every snapshot-pinned shard read through the filter-all reference."""
    shipped = (ShardedGallery._snapshot_search_one,
               ShardedGallery._snapshot_search_batch)
    ShardedGallery._snapshot_search_one = filter_all_snapshot_search
    ShardedGallery._snapshot_search_batch = filter_all_snapshot_search_batch
    try:
        yield
    finally:
        (ShardedGallery._snapshot_search_one,
         ShardedGallery._snapshot_search_batch) = shipped


__all__ = ["col2im_offset_loop", "filter_all_snapshot_reads",
           "filter_all_snapshot_search", "filter_all_snapshot_search_batch",
           "max_pool3d_grad_loop", "offset_loop_col2im"]
