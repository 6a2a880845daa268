"""Equivalence and dispatch tests for the im2col GEMM conv fast path."""

import numpy as np
import pytest

import repro.perf  # noqa: F401 — registers the GEMM kernels
from repro.nn import Tensor
from repro.nn import functional as F
from repro.perf import (
    clear_plan_cache,
    conv_impl,
    plan_cache_info,
    set_conv_impl,
    should_use_gemm,
)
from repro.perf.gemm_conv import GEMM_AUTO_THRESHOLD


@pytest.fixture(autouse=True)
def reset_impl():
    """Restore the auto policy and an empty plan cache around each test."""
    set_conv_impl(None)
    clear_plan_cache()
    yield
    set_conv_impl(None)
    clear_plan_cache()


def _run_conv(conv, x_data, w_data, b_data, stride, padding):
    """One forward + backward; returns (out, grad_x, grad_w, grad_b)."""
    x = Tensor(x_data.copy(), requires_grad=True)
    w = Tensor(w_data.copy(), requires_grad=True)
    b = Tensor(b_data.copy(), requires_grad=True)
    out = conv(x, w, b, stride=stride, padding=padding)
    out.backward(np.cos(np.arange(out.data.size)).reshape(out.shape))
    return out.data, x.grad, w.grad, b.grad


CONV2D_CASES = [
    # (B, C, H, W), (F, C, kh, kw), stride, padding
    ((1, 3, 12, 12), (4, 3, 3, 3), 1, 0),
    ((2, 3, 12, 12), (4, 3, 3, 3), 2, 1),
    ((3, 2, 9, 7), (5, 2, 3, 2), (2, 1), (1, 2)),
    ((1, 1, 5, 5), (1, 1, 1, 1), 1, 0),
]

CONV3D_CASES = [
    # (B, C, T, H, W), (F, C, kt, kh, kw), stride, padding
    ((1, 3, 6, 12, 12), (2, 3, 3, 3, 3), 1, 1),
    ((2, 2, 6, 6, 6), (4, 2, 3, 3, 3), 2, 1),
    ((1, 2, 5, 7, 6), (3, 2, 2, 3, 2), (1, 2, 1), (0, 1, 1)),
]


class TestConv2dEquivalence:
    @pytest.mark.parametrize("x_shape,w_shape,stride,padding", CONV2D_CASES)
    def test_forward_and_grads_match_einsum(self, rng, x_shape, w_shape,
                                            stride, padding):
        x = rng.normal(size=x_shape)
        w = rng.normal(size=w_shape)
        b = rng.normal(size=w_shape[0])
        set_conv_impl("einsum")
        reference = _run_conv(F.conv2d, x, w, b, stride, padding)
        set_conv_impl("gemm")
        fast = _run_conv(F.conv2d, x, w, b, stride, padding)
        for ref, got in zip(reference, fast):
            np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-10)

    def test_op_name_marks_dispatch(self, rng):
        # ``op`` is only recorded on grad-tracked outputs.
        x = Tensor(rng.normal(size=(1, 3, 12, 12)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        set_conv_impl("gemm")
        assert F.conv2d(x, w).op == "conv2d.gemm"
        set_conv_impl("einsum")
        assert F.conv2d(x, w).op == "conv2d"


class TestConv3dEquivalence:
    @pytest.mark.parametrize("x_shape,w_shape,stride,padding", CONV3D_CASES)
    def test_forward_and_grads_match_einsum(self, rng, x_shape, w_shape,
                                            stride, padding):
        x = rng.normal(size=x_shape)
        w = rng.normal(size=w_shape)
        b = rng.normal(size=w_shape[0])
        set_conv_impl("einsum")
        reference = _run_conv(F.conv3d, x, w, b, stride, padding)
        set_conv_impl("gemm")
        fast = _run_conv(F.conv3d, x, w, b, stride, padding)
        for ref, got in zip(reference, fast):
            np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-10)

    def test_no_bias_no_grad_inference(self, rng):
        from repro.nn import no_grad

        x = Tensor(rng.normal(size=(1, 2, 6, 6, 6)))
        w = Tensor(rng.normal(size=(4, 2, 3, 3, 3)))
        set_conv_impl("einsum")
        with no_grad():
            reference = F.conv3d(x, w, stride=2, padding=1).data
        set_conv_impl("gemm")
        with no_grad():
            fast = F.conv3d(x, w, stride=2, padding=1).data
        np.testing.assert_allclose(fast, reference, rtol=1e-10, atol=1e-10)


class TestDispatchPolicy:
    def test_auto_threshold(self):
        assert should_use_gemm(GEMM_AUTO_THRESHOLD)
        assert not should_use_gemm(GEMM_AUTO_THRESHOLD - 1)

    def test_forced_override_wins(self):
        set_conv_impl("einsum")
        assert not should_use_gemm(10 * GEMM_AUTO_THRESHOLD)
        set_conv_impl("gemm")
        assert should_use_gemm(1)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_CONV_IMPL", "einsum")
        assert conv_impl() == "einsum"
        assert not should_use_gemm(10 * GEMM_AUTO_THRESHOLD)
        monkeypatch.setenv("REPRO_CONV_IMPL", "gemm")
        assert should_use_gemm(1)

    def test_invalid_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_CONV_IMPL", "fastest")
        with pytest.raises(ValueError):
            conv_impl()

    def test_invalid_forced_rejected(self):
        with pytest.raises(ValueError):
            set_conv_impl("blas")


class TestPlanCache:
    def test_repeat_shapes_hit(self, rng):
        set_conv_impl("gemm")
        x = Tensor(rng.normal(size=(1, 3, 12, 12)))
        w = Tensor(rng.normal(size=(4, 3, 3, 3)))
        F.conv2d(x, w)
        F.conv2d(x, w)
        info = plan_cache_info()
        assert info["size"] == 1
        assert info["misses"] == 1
        assert info["hits"] >= 1

    def test_inference_reuses_scratch(self, rng):
        from repro.nn import no_grad

        set_conv_impl("gemm")
        x = Tensor(rng.normal(size=(1, 3, 12, 12)))
        w = Tensor(rng.normal(size=(4, 3, 3, 3)))
        with no_grad():
            first = F.conv2d(x, w).data.copy()
            second = F.conv2d(x, w).data
        np.testing.assert_array_equal(first, second)
        assert plan_cache_info()["scratch_bytes"] > 0

    def test_scratch_is_thread_local(self, rng):
        """Concurrent same-shape inference convs must not tear scratch.

        The serving worker pool runs embedding forwards of one shape on
        several threads at once; a plan-wide cols/padded buffer let one
        thread's im2col fill corrupt another's mid-GEMM (caught by the
        serving.pooled_vs_single oracle flaking).
        """
        import threading

        from repro.nn import no_grad

        set_conv_impl("gemm")
        x_data = rng.normal(size=(2, 3, 12, 12))
        w = Tensor(rng.normal(size=(4, 3, 3, 3)))
        inputs = [Tensor(x_data + offset) for offset in range(4)]
        with no_grad():
            expected = [F.conv2d(v, w, padding=(1, 1)).data.copy()
                        for v in inputs]

        rounds, errors = 25, []

        def worker(position):
            try:
                with no_grad():
                    for _ in range(rounds):
                        got = F.conv2d(inputs[position], w,
                                       padding=(1, 1)).data
                        np.testing.assert_array_equal(
                            got, expected[position])
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(position,))
                   for position in range(len(inputs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors[0]

    def test_clear(self, rng):
        set_conv_impl("gemm")
        x = Tensor(rng.normal(size=(1, 3, 12, 12)))
        w = Tensor(rng.normal(size=(4, 3, 3, 3)))
        F.conv2d(x, w)
        clear_plan_cache()
        info = plan_cache_info()
        assert info == {"size": 0, "hits": 0, "misses": 0,
                        "scratch_bytes": 0, "cap": 64}

    def test_lru_cap_evicts_oldest_plans(self, rng, monkeypatch):
        from repro.obs import counter
        from repro.perf import plan_cache_cap

        monkeypatch.setenv("REPRO_PLAN_CACHE_CAP", "2")
        assert plan_cache_cap() == 2
        set_conv_impl("gemm")
        evictions = counter("perf.plan_cache.evictions")
        before = evictions.value
        w = Tensor(rng.normal(size=(4, 3, 3, 3)))
        for size in (8, 10, 12, 14):
            F.conv2d(Tensor(rng.normal(size=(1, 3, size, size))), w)
        info = plan_cache_info()
        assert info["size"] <= 2
        assert info["cap"] == 2
        assert evictions.value - before == 2

    def test_lru_survives_concurrent_eviction(self, monkeypatch):
        """``get_plan`` must not race another thread's eviction.

        At cap 1 every lookup of a different shape evicts the one cached
        plan; an unlocked lookup's ``move_to_end`` then finds its key
        gone and raises ``KeyError``.
        """
        import sys

        from repro.perf.gemm_conv import get_plan
        from repro.qa.concurrency import BarrierHarness

        monkeypatch.setenv("REPRO_PLAN_CACHE_CAP", "1")
        w_shape = (2, 1, 3, 3)

        def worker(thread_id, step, _rng):
            for _ in range(50):
                plan = get_plan((1, 1, 5 + thread_id, 5), w_shape, (1, 1),
                                (0, 0))
                assert plan.x_shape[2] == 5 + thread_id
                plan_cache_info()

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            BarrierHarness(threads=4, steps=20, seed=5).run_free(worker)
        finally:
            sys.setswitchinterval(old_interval)
        assert plan_cache_info()["size"] == 1

    def test_cap_must_be_positive(self, monkeypatch):
        from repro.perf import plan_cache_cap

        monkeypatch.setenv("REPRO_PLAN_CACHE_CAP", "0")
        with pytest.raises(ValueError):
            plan_cache_cap()


class TestScratchRule:
    """Only a forward whose weight gradient will be taken keeps its im2col."""

    def test_frozen_weight_grad_mode_reuses_scratch(self, rng):
        set_conv_impl("gemm")
        w = Tensor(rng.normal(size=(2, 3, 3, 3, 3)))
        sizes = []
        for step in range(3):
            x = Tensor(rng.normal(size=(1, 3, 4, 6, 6)), requires_grad=True)
            F.conv3d(x, w, padding=1).sum().backward()
            assert x.grad is not None
            sizes.append(plan_cache_info()["scratch_bytes"])
        assert sizes[0] > 0
        assert sizes == [sizes[0]] * 3

    def test_trainable_weight_two_forwards_one_backward(self, rng):
        set_conv_impl("gemm")
        x_data = rng.normal(size=(2, 3, 4, 6, 6))
        w_data = rng.normal(size=(2, 3, 3, 3, 3))
        w = Tensor(w_data, requires_grad=True)
        first = F.conv3d(Tensor(x_data), w, padding=1)
        F.conv3d(Tensor(rng.normal(size=x_data.shape)), w, padding=1)
        first.sum().backward()

        set_conv_impl("einsum")
        w_ref = Tensor(w_data, requires_grad=True)
        F.conv3d(Tensor(x_data), w_ref, padding=1).sum().backward()
        np.testing.assert_allclose(w.grad, w_ref.grad, rtol=1e-10,
                                   atol=1e-10)

    def test_unfreezing_between_forward_and_backward_fails_closed(self, rng):
        set_conv_impl("gemm")
        x = Tensor(rng.normal(size=(1, 3, 4, 6, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 3, 3, 3, 3)))
        out = F.conv3d(x, w, padding=1)
        w.requires_grad = True
        with pytest.raises(RuntimeError, match="kept no im2col"):
            out.sum().backward()
