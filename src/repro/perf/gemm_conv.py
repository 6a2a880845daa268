"""im2col + GEMM convolution kernels with a per-shape plan cache.

The seed implementation of ``conv2d``/``conv3d`` contracts a strided
``sliding_window_view`` with ``einsum``.  That avoids materialising the
im2col matrix but leaves BLAS unable to see a single large GEMM, and the
einsum path re-plans its contraction on every call.

These kernels materialise im2col in the layout ``(B, C, *K, *P)`` —
channels × kernel offsets × output positions — filled by one strided
*slab copy per kernel offset* (no element gathers: every copy's inner
run is a contiguous output row), then reduce forward and both gradients
to plain BLAS calls:

* forward:   ``out[b] = W₂ @ cols[b]``            (``W₂`` is ``(F, C·K)``)
* grad_w:    ``gW = Σ_b grad[b] @ cols[b].T``     (one ``tensordot``)
* grad_x:    ``gcols[b] = W₂.T @ grad[b]`` then :func:`col2im`, one
  ``np.bincount`` of ``gcols`` over the plan's cached per-sample index

Because the output positions are the trailing axis, the forward result
reshapes straight into ``(B, F, *out_spatial)`` with no transpose.

A :class:`ConvPlan` per ``(shape, stride, padding)`` caches the derived
geometry, the col2im index and a per-thread scratch buffer for ``cols``.
The scratch is handed out whenever no weight gradient will be computed
— inference, and grad-mode calls with a frozen weight — because only
``grad_w`` reads ``cols`` after the forward returns.  A forward that
will need ``grad_w`` gets a private ``cols`` for its backward closure.

All kernels operate on plain ``numpy`` arrays — autograd wiring stays in
``repro.nn.functional``.  Outputs and gradients match the einsum path
within ``allclose`` (same dtype, different summation order).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from repro.obs import counter
from repro.utils.envflags import env_choice, env_int

_IMPL_CHOICES = ("auto", "gemm", "einsum")

#: ``auto`` switches to GEMM once the im2col matrix has at least this many
#: elements (``B · C · kernel_elems · out_positions``).  Measured speedups
#: are 2–3× at the model shapes used here and taper to parity around 10⁶
#: elements; only degenerate micro-convs stay on einsum.  Calibrated with
#: ``benchmarks/bench_perf_hotpath.py``.
GEMM_AUTO_THRESHOLD = 1 << 10

_forced_impl: str | None = None


def set_conv_impl(impl: str | None) -> None:
    """Force the conv implementation (``None`` returns to env/auto)."""
    if impl is not None and impl not in _IMPL_CHOICES:
        raise ValueError(
            f"unknown conv impl {impl!r}; choose from {_IMPL_CHOICES}")
    global _forced_impl
    _forced_impl = impl


def conv_impl() -> str:
    """Active implementation policy: forced > ``REPRO_CONV_IMPL`` > auto."""
    if _forced_impl is not None:
        return _forced_impl
    return env_choice("REPRO_CONV_IMPL", _IMPL_CHOICES, "auto")


def should_use_gemm(gemm_elems: int) -> bool:
    """Decide the fast path for an im2col matrix of ``gemm_elems`` elements.

    A forced/env impl always wins; under ``auto`` convs with at least
    :data:`GEMM_AUTO_THRESHOLD` im2col elements take GEMM and smaller
    ones stay on einsum.  Both paths are equivalence-pinned by the
    ``conv*.einsum_vs_gemm`` oracles, so this is a pure latency choice.
    """
    impl = conv_impl()
    if impl == "gemm":
        return True
    if impl == "einsum":
        return False
    return gemm_elems >= GEMM_AUTO_THRESHOLD


# ---------------------------------------------------------------------- #
# Plan cache
# ---------------------------------------------------------------------- #
class ConvPlan:
    """Cached geometry, col2im index and scratch for one conv problem shape."""

    __slots__ = ("x_shape", "w_shape", "stride", "padding", "out_spatial",
                 "cols_shape", "gemm_elems", "positions", "kernel_elems",
                 "padded_shape", "view_strides", "core_slices", "hits",
                 "_tls", "scratch_bytes", "_col2im_index")

    def __init__(self, x_shape, w_shape, stride, padding) -> None:
        self.x_shape = x_shape
        self.w_shape = w_shape
        self.stride = stride
        self.padding = padding
        spatial = x_shape[2:]
        kernel = w_shape[2:]
        self.out_spatial = tuple(
            (size + 2 * pad - k) // step + 1
            for size, pad, k, step in zip(spatial, padding, kernel, stride)
        )
        batch, in_ch = x_shape[0], x_shape[1]
        # cols layout: (B, C, *kernel, *out_spatial) → (B, C·K, P) for GEMM.
        self.cols_shape = (batch, in_ch, *kernel, *self.out_spatial)
        self.gemm_elems = int(np.prod(self.cols_shape))
        self.positions = int(np.prod(self.out_spatial))
        self.kernel_elems = int(np.prod(kernel))
        self.padded_shape = (batch, in_ch,
                             *(s + 2 * p for s, p in zip(spatial, padding)))
        # Element strides of the im2col window view over the (C-contiguous)
        # padded input, kernel axes ahead of position axes — so the fill is
        # a single as_strided + copyto with no per-call view construction.
        elem_strides = [1]
        for size in reversed(self.padded_shape[1:]):
            elem_strides.append(elem_strides[-1] * size)
        elem_strides.reverse()
        spatial_strides = elem_strides[2:]
        self.view_strides = tuple(elem_strides[:2]) + tuple(spatial_strides) \
            + tuple(s * step for s, step in zip(spatial_strides, stride))
        self.core_slices = (slice(None), slice(None)) + tuple(
            slice(p, p + s) for p, s in zip(padding, spatial))
        self.hits = 0
        # Scratch is per *thread*: the serving worker pool (and the
        # churn stress harness) run inference convs of the same shape
        # concurrently, and a plan-wide buffer would let one thread's
        # im2col fill tear another's mid-GEMM.
        self._tls = threading.local()
        self.scratch_bytes = 0
        self._col2im_index = None

    def window_view(self, padded: np.ndarray) -> np.ndarray:
        """The ``(B, C, *K, *P)`` im2col view of a C-contiguous padded input.

        Kernel-offset axes come ahead of the output-position axes, and
        positions step by ``stride``; nothing is copied.
        """
        return np.lib.stride_tricks.as_strided(
            padded, shape=self.cols_shape,
            strides=tuple(s * padded.itemsize for s in self.view_strides))

    def col2im_index(self) -> np.ndarray:
        """Flat padded-input position of each entry of one sample's ``cols``.

        Built on first use from the forward's own window view, applied to
        an ``arange`` over one padded sample, so entry ``i`` of a
        flattened ``(C, *K, *P)`` im2col block came from input element
        ``index[i]``.  Concurrent first calls build equal arrays; either
        may win.
        """
        index = self._col2im_index
        if index is None:
            sample = np.arange(int(np.prod(self.padded_shape[1:])))
            index = np.lib.stride_tricks.as_strided(
                sample, shape=self.cols_shape[1:],
                strides=tuple(s * sample.itemsize
                              for s in self.view_strides[1:])).ravel()
            self._col2im_index = index
        return index

    def cols_buffer(self, reuse: bool) -> np.ndarray:
        """A ``cols`` buffer: the per-thread scratch when ``reuse`` is set."""
        if not reuse:
            return np.empty(self.cols_shape)
        scratch = getattr(self._tls, "cols", None)
        if scratch is None:
            scratch = np.empty(self.cols_shape)
            self._tls.cols = scratch
            self.scratch_bytes += scratch.nbytes
        return scratch

    def padded_buffer(self) -> np.ndarray:
        """Reusable zero-padded input buffer (inference calls only).

        The border is zeroed once at allocation; every call overwrites the
        full core, so the zeros never need refreshing.
        """
        scratch = getattr(self._tls, "padded", None)
        if scratch is None:
            scratch = np.zeros(self.padded_shape)
            self._tls.padded = scratch
            self.scratch_bytes += scratch.nbytes
        return scratch


#: Default LRU bound shared by this plan cache and the jit trace cache;
#: override with ``REPRO_PLAN_CACHE_CAP`` for shape-diverse workloads.
_MAX_PLANS = 64
_plans: OrderedDict[tuple, ConvPlan] = OrderedDict()
_plan_misses = 0
#: Guards ``_plans``: a lookup's ``move_to_end`` must not race another
#: thread's eviction of the same key.
_plans_lock = threading.Lock()


def plan_cache_cap() -> int:
    """The LRU bound for per-shape caches (plans and jit traces)."""
    return env_int("REPRO_PLAN_CACHE_CAP", _MAX_PLANS, minimum=1)


def get_plan(x_shape, w_shape, stride, padding) -> ConvPlan:
    """Fetch (or build) the plan for one problem shape, LRU-bounded."""
    global _plan_misses
    key = (x_shape, w_shape, stride, padding)
    with _plans_lock:
        plan = _plans.get(key)
        if plan is not None:
            plan.hits += 1
            _plans.move_to_end(key)
            return plan
        plan = ConvPlan(x_shape, w_shape, stride, padding)
        _plans[key] = plan
        _plan_misses += 1
        cap = plan_cache_cap()
        while len(_plans) > cap:
            _plans.popitem(last=False)
            counter("perf.plan_cache.evictions").inc()
    return plan


def plan_cache_info() -> dict:
    """Plan-cache statistics (size, cap, hits, misses, scratch bytes)."""
    with _plans_lock:
        plans = list(_plans.values())
        misses = _plan_misses
    return {
        "size": len(plans),
        "cap": plan_cache_cap(),
        "hits": sum(plan.hits for plan in plans),
        "misses": misses,
        "scratch_bytes": sum(plan.scratch_bytes for plan in plans),
    }


def clear_plan_cache() -> None:
    """Drop all cached plans and scratch buffers."""
    global _plan_misses
    with _plans_lock:
        _plans.clear()
        _plan_misses = 0


# ---------------------------------------------------------------------- #
# Shared N-D kernels (2-D and 3-D differ only in rank)
# ---------------------------------------------------------------------- #
def _zero_pad(x: np.ndarray, padding) -> np.ndarray:
    """Symmetric spatial zero padding (``np.pad`` minus its call overhead)."""
    if not any(padding):
        return x
    padded = np.zeros(
        x.shape[:2] + tuple(s + 2 * p for s, p in zip(x.shape[2:], padding)),
        dtype=x.dtype,
    )
    core = tuple(slice(p, p + s) for p, s in zip(padding, x.shape[2:]))
    padded[(slice(None), slice(None), *core)] = x
    return padded


def _conv_forward(x: np.ndarray, weight: np.ndarray, stride, padding,
                  reuse_scratch: bool):
    plan = get_plan(x.shape, weight.shape, stride, padding)
    batch, in_ch = x.shape[0], x.shape[1]
    out_ch = weight.shape[0]

    if reuse_scratch and any(padding):
        padded = plan.padded_buffer()
        padded[plan.core_slices] = x
    else:
        padded = _zero_pad(x, padding)
        if not padded.flags.c_contiguous:  # padding (0, ...) returns x as-is
            padded = np.ascontiguousarray(padded)

    # im2col in one C-level copy: the plan pre-computes the strides of the
    # window view over the padded input (kernel axes ahead of position
    # axes, positions stepped by ``stride``), so the windowed-transposed
    # view is one ``as_strided`` and the fill is one ``copyto`` whose
    # inner runs are whole output rows (stride-1 contiguous).
    cols = plan.cols_buffer(reuse_scratch)
    np.copyto(cols, plan.window_view(padded))

    mat = cols.reshape(batch, in_ch * plan.kernel_elems, plan.positions)
    out = np.matmul(weight.reshape(out_ch, -1), mat)
    return out.reshape(batch, out_ch, *plan.out_spatial), mat, plan


def col2im(cols: np.ndarray, plan: ConvPlan) -> np.ndarray:
    """Sum ``(B, C, *K, *P)`` im2col entries back onto the padded input.

    One ``np.bincount`` over the plan's per-sample index, offset by
    sample.  ``cols`` is read in its ``(C, K, P)`` order, so every input
    element accumulates from ``0.0`` in kernel-offset order — the same
    additions, in the same order, as one strided ``+=`` per offset
    (:func:`repro.qa.reference.col2im_offset_loop`), signed zeros
    included.
    """
    index = plan.col2im_index()
    batch = plan.padded_shape[0]
    sample = int(np.prod(plan.padded_shape[1:]))
    if batch > 1:
        index = (index + np.arange(0, batch * sample, sample)[:, None]).ravel()
    return np.bincount(index, weights=cols.ravel(),
                       minlength=batch * sample).reshape(plan.padded_shape)


def _conv_backward(grad: np.ndarray, cols: np.ndarray | None,
                   weight: np.ndarray, plan: ConvPlan,
                   need_grad_x: bool, need_grad_w: bool):
    batch = plan.x_shape[0]
    out_ch = weight.shape[0]
    grad_mat = grad.reshape(batch, out_ch, plan.positions)
    grad_w = None
    if need_grad_w:
        if cols is None:
            # The forward ran with a frozen weight and lent its im2col to
            # the plan's scratch, which later convs may have overwritten.
            raise RuntimeError(
                "conv weight gradient requested, but the forward kept no "
                "im2col: the weight did not require grad when it ran")
        grad_w = np.tensordot(grad_mat, cols,
                              axes=([0, 2], [0, 2])).reshape(weight.shape)
    grad_x = None
    if need_grad_x:
        gcols = np.matmul(weight.reshape(out_ch, -1).T, grad_mat)
        grad_x = col2im(gcols.reshape(plan.cols_shape), plan)[
            plan.core_slices]
    return grad_x, grad_w


# ---------------------------------------------------------------------- #
# Rank-specific entry points (what ``repro.nn.functional`` dispatches to)
# ---------------------------------------------------------------------- #
def conv2d_forward(x: np.ndarray, weight: np.ndarray, stride, padding,
                   reuse_scratch: bool = False):
    """GEMM forward; returns ``(out, cols, plan)``.

    ``cols`` is the ``(B, C·K, P)`` im2col matrix the backward pass needs
    for ``grad_w``; when ``reuse_scratch`` is set it is the plan's
    per-thread scratch, which the next same-shape conv overwrites, so the
    caller must not keep it past the op.
    """
    return _conv_forward(x, weight, stride, padding, reuse_scratch)


def conv2d_backward(grad, cols, weight, plan, need_grad_x: bool,
                    need_grad_w: bool):
    """GEMM backward; returns ``(grad_x, grad_w)`` (``None`` when unneeded).

    ``cols`` may be ``None`` when no weight gradient is needed; asking
    for ``grad_w`` without it raises.
    """
    return _conv_backward(grad, cols, weight, plan, need_grad_x, need_grad_w)


def conv3d_forward(x: np.ndarray, weight: np.ndarray, stride, padding,
                   reuse_scratch: bool = False):
    """GEMM forward over ``(T, H, W)``; returns ``(out, cols, plan)``."""
    return _conv_forward(x, weight, stride, padding, reuse_scratch)


def conv3d_backward(grad, cols, weight, plan, need_grad_x: bool,
                    need_grad_w: bool):
    """GEMM backward for conv3d; returns ``(grad_x, grad_w)``."""
    return _conv_backward(grad, cols, weight, plan, need_grad_x, need_grad_w)


# ---------------------------------------------------------------------- #
# Trace replay (repro.nn.jit)
# ---------------------------------------------------------------------- #
def bind_replay(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None,
                cols_mat: np.ndarray, out_nd: np.ndarray,
                stride, padding):
    """Pre-bind one traced GEMM conv into a replay thunk.

    Everything shape-dependent — the plan, the padded staging buffer, the
    ``as_strided`` window view, the reshaped GEMM operands — is resolved
    here, once; the returned zero-arg thunk recomputes ``out_nd`` (and
    ``cols_mat``, which a trainable weight's backward closure captured)
    in place from the *current* contents of ``x``.  Rank-agnostic: the
    same code serves conv2d and conv3d.
    """
    plan = get_plan(x.shape, weight.shape, stride, padding)
    w2 = weight.reshape(weight.shape[0], -1)
    if any(padding):
        base = np.zeros(plan.padded_shape, dtype=x.dtype)
        core = plan.core_slices
    elif x.flags.c_contiguous:
        base, core = x, None
    else:
        # Mirrors the eager path's ascontiguousarray staging copy.
        base = np.empty(x.shape, dtype=x.dtype)
        core = (slice(None),) * x.ndim
    windows = plan.window_view(base)
    cols_nd = cols_mat.reshape(plan.cols_shape)
    out_mat = out_nd.reshape(out_nd.shape[0], out_nd.shape[1], plan.positions)
    bias_r = None if bias is None else \
        bias.reshape((1, -1) + (1,) * (out_nd.ndim - 2))

    def run():
        if core is not None:
            base[core] = x
        np.copyto(cols_nd, windows)
        np.matmul(w2, cols_mat, out=out_mat)
        if bias_r is not None:
            np.add(out_nd, bias_r, out=out_nd)

    return run
