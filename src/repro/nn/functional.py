"""Differentiable array operations: convolutions, pooling, losses.

Convolutions use ``numpy.lib.stride_tricks.sliding_window_view`` for the
forward pass (an im2col view without copying) and explicit scatter-adds for
the input gradient.  Shapes follow the PyTorch convention:

* 2-D: activations ``(B, C, H, W)``, weights ``(F, C, kH, kW)``.
* 3-D: activations ``(B, C, T, H, W)``, weights ``(F, C, kT, kH, kW)``.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn.tensor import (
    Tensor,
    get_op_impl,
    get_tracer,
    is_grad_enabled,
    make_op,
)


def _gemm_kernels():
    """The GEMM conv kernel module, or ``None`` when unavailable.

    ``repro.perf`` registers its kernels on import; importing it here (once)
    keeps ``import repro.nn`` working even if the perf package is removed.
    """
    impl = get_op_impl("conv2d.gemm")
    if impl is None:
        try:
            import repro.perf  # noqa: F401 — registers the kernels
        except ImportError:
            return None
        impl = get_op_impl("conv2d.gemm")
    return impl


def _pair(value) -> tuple[int, int]:
    if isinstance(value, (tuple, list)):
        if len(value) != 2:
            raise ValueError(f"expected 2 values, got {value!r}")
        return int(value[0]), int(value[1])
    return int(value), int(value)


def _triple(value) -> tuple[int, int, int]:
    if isinstance(value, (tuple, list)):
        if len(value) != 3:
            raise ValueError(f"expected 3 values, got {value!r}")
        return int(value[0]), int(value[1]), int(value[2])
    return int(value), int(value), int(value)


# ---------------------------------------------------------------------- #
# Convolutions
# ---------------------------------------------------------------------- #
def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride=1, padding=0) -> Tensor:
    """2-D cross-correlation (the deep-learning "convolution").

    Dispatches between two numerically-equivalent implementations: the
    strided-``einsum`` path below and the im2col GEMM fast path from
    ``repro.perf`` (selected by problem size; force with
    ``REPRO_CONV_IMPL=gemm|einsum``).
    """
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    batch, in_ch, height, width = x.shape
    out_ch, w_in_ch, kh, kw = weight.shape
    if w_in_ch != in_ch:
        raise ValueError(f"channel mismatch: input has {in_ch}, weight expects {w_in_ch}")

    kernels = _gemm_kernels()
    if kernels is not None:
        out_h = (height + 2 * ph - kh) // sh + 1
        out_w = (width + 2 * pw - kw) // sw + 1
        if kernels.should_use_gemm(batch * out_h * out_w * in_ch * kh * kw):
            return _conv2d_gemm(kernels, x, weight, bias, (sh, sw), (ph, pw))

    padded = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    windows = sliding_window_view(padded, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw]
    raw = np.einsum("bchwij,fcij->bfhw", windows, weight.data, optimize=True)
    out = raw if bias is None else raw + bias.data.reshape(1, -1, 1, 1)
    out_h, out_w = out.shape[2], out.shape[3]

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad, out=None):
        grad_w = None
        if weight.requires_grad:
            grad_w = np.einsum("bchwij,bfhw->fcij", windows, grad, optimize=True)
        grad_x = None
        if x.requires_grad:
            grad_padded = np.zeros_like(padded)
            for ih in range(kh):
                for iw in range(kw):
                    contrib = np.einsum(
                        "bfhw,fc->bchw", grad, weight.data[:, :, ih, iw],
                        optimize=True,
                    )
                    grad_padded[
                        :, :, ih : ih + out_h * sh : sh, iw : iw + out_w * sw : sw
                    ] += contrib
            grad_x = grad_padded[:, :, ph : ph + height, pw : pw + width]
        if bias is None:
            return grad_x, grad_w
        grad_b = grad.sum(axis=(0, 2, 3)) if bias.requires_grad else None
        return grad_x, grad_w, grad_b

    result = make_op(out, parents, backward, "conv2d")
    tracer = get_tracer()
    if tracer is not None:
        src, w_arr, buf = x.data, weight.data, result.data
        bias_r = None if bias is None else bias.data.reshape(1, -1, 1, 1)
        core = (slice(None), slice(None), slice(ph, ph + height),
                slice(pw, pw + width))

        def run():
            # Refresh ``padded`` (and through it the ``windows`` view the
            # backward closure captured), then recompute in place.
            padded[core] = src
            np.einsum("bchwij,fcij->bfhw", windows, w_arr, out=raw,
                      optimize=True)
            if bias_r is not None:
                np.add(raw, bias_r, out=buf)

        tracer.record(result, parents, run, op="conv2d")
    return result


def _needs_grad_w(weight: Tensor) -> bool:
    """Whether a GEMM conv must keep a private im2col for ``grad_w``.

    Decided at forward time.  Otherwise the forward borrows the plan's
    per-thread scratch, which the next same-shape conv overwrites, and
    the backward closure gets no ``cols`` at all — so a weight unfrozen
    between forward and backward makes ``grad_w`` raise rather than read
    a clobbered buffer.
    """
    return is_grad_enabled() and weight.requires_grad


def _conv2d_gemm(kernels, x: Tensor, weight: Tensor, bias: Tensor | None,
                 stride: tuple[int, int], padding: tuple[int, int]) -> Tensor:
    """conv2d via the im2col GEMM kernels (same contract as :func:`conv2d`)."""
    keep_cols = _needs_grad_w(weight)
    out, cols, plan = kernels.conv2d_forward(
        x.data, weight.data, stride, padding, reuse_scratch=not keep_cols)
    saved_cols = cols if keep_cols else None
    if bias is not None:
        out += bias.data.reshape(1, -1, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad, fwd=None):
        grad_x, grad_w = kernels.conv2d_backward(
            grad, saved_cols, weight.data, plan,
            x.requires_grad, weight.requires_grad)
        if bias is None:
            return grad_x, grad_w
        grad_b = grad.sum(axis=(0, 2, 3)) if bias.requires_grad else None
        return grad_x, grad_w, grad_b

    result = make_op(out, parents, backward, "conv2d.gemm")
    tracer = get_tracer()
    if tracer is not None:
        tracer.record(
            result, parents,
            kernels.bind_replay(x.data, weight.data,
                                None if bias is None else bias.data,
                                cols, result.data, stride, padding),
            op="conv2d.gemm")
    return result


def conv3d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride=1, padding=0) -> Tensor:
    """3-D cross-correlation over ``(T, H, W)`` volumes.

    Dispatches like :func:`conv2d`: strided ``einsum`` below, im2col GEMM
    from ``repro.perf`` for large problems (``REPRO_CONV_IMPL`` overrides).
    """
    st, sh, sw = _triple(stride)
    pt, ph, pw = _triple(padding)
    batch, in_ch, frames, height, width = x.shape
    out_ch, w_in_ch, kt, kh, kw = weight.shape
    if w_in_ch != in_ch:
        raise ValueError(f"channel mismatch: input has {in_ch}, weight expects {w_in_ch}")

    kernels = _gemm_kernels()
    if kernels is not None:
        out_t = (frames + 2 * pt - kt) // st + 1
        out_h = (height + 2 * ph - kh) // sh + 1
        out_w = (width + 2 * pw - kw) // sw + 1
        if kernels.should_use_gemm(
                batch * out_t * out_h * out_w * in_ch * kt * kh * kw):
            return _conv3d_gemm(kernels, x, weight, bias,
                                (st, sh, sw), (pt, ph, pw))

    padded = np.pad(x.data, ((0, 0), (0, 0), (pt, pt), (ph, ph), (pw, pw)))
    windows = sliding_window_view(padded, (kt, kh, kw), axis=(2, 3, 4))[
        :, :, ::st, ::sh, ::sw
    ]
    raw = np.einsum("bcthwijk,fcijk->bfthw", windows, weight.data, optimize=True)
    out = raw if bias is None else raw + bias.data.reshape(1, -1, 1, 1, 1)
    out_t, out_h, out_w = out.shape[2], out.shape[3], out.shape[4]

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad, out=None):
        grad_w = None
        if weight.requires_grad:
            grad_w = np.einsum("bcthwijk,bfthw->fcijk", windows, grad, optimize=True)
        grad_x = None
        if x.requires_grad:
            grad_padded = np.zeros_like(padded)
            for it in range(kt):
                for ih in range(kh):
                    for iw in range(kw):
                        contrib = np.einsum(
                            "bfthw,fc->bcthw", grad, weight.data[:, :, it, ih, iw],
                            optimize=True,
                        )
                        grad_padded[
                            :,
                            :,
                            it : it + out_t * st : st,
                            ih : ih + out_h * sh : sh,
                            iw : iw + out_w * sw : sw,
                        ] += contrib
            grad_x = grad_padded[
                :, :, pt : pt + frames, ph : ph + height, pw : pw + width
            ]
        if bias is None:
            return grad_x, grad_w
        grad_b = grad.sum(axis=(0, 2, 3, 4)) if bias.requires_grad else None
        return grad_x, grad_w, grad_b

    result = make_op(out, parents, backward, "conv3d")
    tracer = get_tracer()
    if tracer is not None:
        src, w_arr, buf = x.data, weight.data, result.data
        bias_r = None if bias is None else bias.data.reshape(1, -1, 1, 1, 1)
        core = (slice(None), slice(None), slice(pt, pt + frames),
                slice(ph, ph + height), slice(pw, pw + width))

        def run():
            padded[core] = src
            np.einsum("bcthwijk,fcijk->bfthw", windows, w_arr, out=raw,
                      optimize=True)
            if bias_r is not None:
                np.add(raw, bias_r, out=buf)

        tracer.record(result, parents, run, op="conv3d")
    return result


def _conv3d_gemm(kernels, x: Tensor, weight: Tensor, bias: Tensor | None,
                 stride: tuple[int, int, int],
                 padding: tuple[int, int, int]) -> Tensor:
    """conv3d via the im2col GEMM kernels (same contract as :func:`conv3d`)."""
    keep_cols = _needs_grad_w(weight)
    out, cols, plan = kernels.conv3d_forward(
        x.data, weight.data, stride, padding, reuse_scratch=not keep_cols)
    saved_cols = cols if keep_cols else None
    if bias is not None:
        out += bias.data.reshape(1, -1, 1, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad, fwd=None):
        grad_x, grad_w = kernels.conv3d_backward(
            grad, saved_cols, weight.data, plan,
            x.requires_grad, weight.requires_grad)
        if bias is None:
            return grad_x, grad_w
        grad_b = grad.sum(axis=(0, 2, 3, 4)) if bias.requires_grad else None
        return grad_x, grad_w, grad_b

    result = make_op(out, parents, backward, "conv3d.gemm")
    tracer = get_tracer()
    if tracer is not None:
        tracer.record(
            result, parents,
            kernels.bind_replay(x.data, weight.data,
                                None if bias is None else bias.data,
                                cols, result.data, stride, padding),
            op="conv3d.gemm")
    return result


# ---------------------------------------------------------------------- #
# Pooling
# ---------------------------------------------------------------------- #
def _pool3d_windows(data: np.ndarray, kernel: tuple[int, int, int],
                    stride: tuple[int, int, int]) -> np.ndarray:
    return sliding_window_view(data, kernel, axis=(2, 3, 4))[
        :, :, :: stride[0], :: stride[1], :: stride[2]
    ]


def max_pool3d(x: Tensor, kernel_size, stride=None) -> Tensor:
    """Max pooling over ``(T, H, W)``; ``stride`` defaults to the kernel."""
    kernel = _triple(kernel_size)
    stride = kernel if stride is None else _triple(stride)
    out_t = (x.shape[2] - kernel[0]) // stride[0] + 1
    out_h = (x.shape[3] - kernel[1]) // stride[1] + 1
    out_w = (x.shape[4] - kernel[2]) // stride[2] + 1
    # Forward as a running elementwise max over kernel-offset slabs: max is
    # order-independent, so this matches the window reduction exactly while
    # never materializing the (B, C, T', H', W', kt, kh, kw) window tensor.
    out = None
    for it in range(kernel[0]):
        for ih in range(kernel[1]):
            for iw in range(kernel[2]):
                slab = x.data[
                    :,
                    :,
                    it : it + out_t * stride[0] : stride[0],
                    ih : ih + out_h * stride[1] : stride[1],
                    iw : iw + out_w * stride[2] : stride[2],
                ]
                if out is None:
                    out = slab.copy()
                else:
                    np.maximum(out, slab, out=out)

    def backward(grad, fwd=None):
        # A pool window is an im2col with no padding, so the gradient is
        # built on the conv plan's window view — built lazily here, so
        # inference never pays for it — and scattered by col2im.  The view
        # is offset-major, as col2im needs: overlapping windows then sum
        # in kernel-offset order.
        kernels = _gemm_kernels()
        plan = kernels.get_plan(x.shape, (1, x.shape[1], *kernel), stride,
                                (0, 0, 0))
        windows = plan.window_view(np.ascontiguousarray(x.data))
        # Distribute each output's gradient to the argmax inside its window.
        mask = np.equal(windows, out[:, :, None, None, None], order="C")
        # Normalize ties so the gradient total is preserved.
        weights = mask / mask.sum(axis=(2, 3, 4), keepdims=True)
        contrib = weights * grad[:, :, None, None, None]
        return (kernels.col2im(contrib, plan).astype(x.data.dtype,
                                                     copy=False),)

    result = make_op(out, (x,), backward, "max_pool3d")
    tracer = get_tracer()
    if tracer is not None:
        src, buf = x.data, result.data
        slabs = [
            (slice(None), slice(None),
             slice(it, it + out_t * stride[0], stride[0]),
             slice(ih, ih + out_h * stride[1], stride[1]),
             slice(iw, iw + out_w * stride[2], stride[2]))
            for it in range(kernel[0])
            for ih in range(kernel[1])
            for iw in range(kernel[2])
        ]

        def run():
            np.copyto(buf, src[slabs[0]])
            for slab in slabs[1:]:
                np.maximum(buf, src[slab], out=buf)

        tracer.record(result, (x,), run, op="max_pool3d")
    return result


def avg_pool3d(x: Tensor, kernel_size, stride=None) -> Tensor:
    """Average pooling over ``(T, H, W)``; ``stride`` defaults to the kernel."""
    kernel = _triple(kernel_size)
    stride = kernel if stride is None else _triple(stride)
    windows = _pool3d_windows(x.data, kernel, stride)
    out = windows.mean(axis=(5, 6, 7))
    out_t, out_h, out_w = out.shape[2:]
    denom = float(np.prod(kernel))

    def backward(grad, fwd=None):
        grad_x = np.zeros_like(x.data)
        share = grad / denom
        for it in range(kernel[0]):
            for ih in range(kernel[1]):
                for iw in range(kernel[2]):
                    grad_x[
                        :,
                        :,
                        it : it + out_t * stride[0] : stride[0],
                        ih : ih + out_h * stride[1] : stride[1],
                        iw : iw + out_w * stride[2] : stride[2],
                    ] += share
        return (grad_x,)

    result = make_op(out, (x,), backward, "avg_pool3d")
    tracer = get_tracer()
    if tracer is not None:
        buf = result.data
        tracer.record(result, (x,),
                      lambda: np.mean(windows, axis=(5, 6, 7), out=buf),
                      op="avg_pool3d")
    return result


def global_avg_pool3d(x: Tensor) -> Tensor:
    """Adaptive average pooling to a single ``(1, 1, 1)`` cell per channel."""
    return x.mean(axis=(2, 3, 4), keepdims=True)


# ---------------------------------------------------------------------- #
# Losses / misc
# ---------------------------------------------------------------------- #
def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error between two tensors of equal shape."""
    diff = prediction - target
    return (diff * diff).mean()


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Softmax cross-entropy with integer labels of shape ``(B,)``."""
    labels = np.asarray(labels)
    log_probs = logits.log_softmax(axis=-1)
    batch = logits.shape[0]
    picked = log_probs[np.arange(batch), labels]
    return -picked.mean()


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit (function form)."""
    return x.relu()


def l2_normalize(x: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Project rows of ``x`` onto the unit sphere along ``axis``."""
    norm = ((x * x).sum(axis=axis, keepdims=True) + eps).sqrt()
    return x / norm


def pairwise_squared_distances(a: Tensor, b: Tensor) -> Tensor:
    """All-pairs squared euclidean distances between rows of ``a`` and ``b``.

    ``a`` is ``(n, d)``, ``b`` is ``(m, d)``; the result is ``(n, m)``.
    Distances are clamped at zero to absorb floating-point noise.
    """
    a_sq = (a * a).sum(axis=1, keepdims=True)
    b_sq = (b * b).sum(axis=1, keepdims=True)
    cross = a @ b.transpose(1, 0)
    return (a_sq + b_sq.transpose(1, 0) - cross * 2.0).clip(0.0, None)
