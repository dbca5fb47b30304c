"""Cached convolution index plans (the im2col/col2im raw-speed tier).

Every convolution in the supernet lowers to im2col + GEMM; the backward pass
folds the column gradient back with col2im.  Search-space shapes are
*static*: the same ``(input_shape, kernel, stride, padding)`` tuples recur on
every training step, so the index arithmetic is done once and cached, and
``repro.autograd.conv`` lowers every convolution through the cached plan.

A :class:`ConvPlan` precomputes

* ``gather_index`` — for every ``(kernel position, output position)`` pair,
  the flat spatial index into the padded input.  im2col becomes one
  ``take`` instead of a strided 6-D transpose copy.
* ``scatter_index`` — the same map expanded over the channel axis, offset
  per channel.  col2im becomes one ``np.bincount`` scatter-add per sample
  instead of a ``kh x kw`` Python loop of strided adds.

Two refinements close the backward hot path (ROADMAP "next rungs"):

* **Trivial plans** — a 1x1/stride-1/pad-0 convolution (every MBConv
  expand/project pointwise) has an *identity* gather: its columns are the
  input reshaped.  :attr:`ConvPlan.trivial` short-circuits im2col to a
  zero-copy reshape and col2im to the inverse reshape (each padded pixel
  receives exactly one contribution, so the bincount degenerates to the
  value itself) — bit-identical by construction, and it removes the largest
  allocations of the pointwise forward and backward.
* **Plan-tier weight gradients** — :meth:`ConvPlan.grad_weight` owns the
  ``(n, g, o, l) x (n, g, k, l) -> (g, o, k)`` contraction over the same
  cached columns the input gradient reuses.  At float64 it is the legacy
  einsum verbatim (same accumulation order, bit-identical); at float32 it
  switches to the per-sample batched-``matmul`` fast form (~3x on the
  depthwise bench geometry, tolerance-equal — float32 is itself a
  tolerance regime).

Bit-identity: im2col is a pure reordering (no arithmetic), and the bincount
scatter adds each output pixel's contributions in exactly the (i, j)
ascending order of a strided-add loop (``np.bincount`` accumulates its
weights sequentially, and within one kernel offset each pixel receives at
most one contribution), so the plans are bit-for-bit identical to the
stride-trick/loop reference lowering at any dtype — asserted by
``tests/test_conv_plans.py`` against ``tests/conv_reference.py`` and fenced
by the golden-run suites.  The per-*sample* bincount partition is equally
exact because every output bin only ever receives contributions from a
single (sample, channel) pair.

Plans are kept in a bounded LRU keyed on the shape tuple.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Tuple

import numpy as np

from repro.autograd.precision import is_fast_dtype

#: Upper bound on cached plans.  A search space reuses a few dozen shapes;
#: the bound only matters for pathological callers (e.g. a sweep over many
#: resolutions in one process) where old plans are evicted LRU-first.
MAX_PLANS = 128

_lock = threading.Lock()
_cache: "OrderedDict[Tuple, ConvPlan]" = OrderedDict()
_stats = {"hits": 0, "misses": 0}


class ConvPlan:
    """Precomputed index maps for one convolution geometry.

    Parameters mirror the lowering: ``input_shape`` is the full NCHW shape
    (the batch size participates only in the im2col/col2im reshapes, not in
    the index maps, which depend on channels and spatial geometry).
    """

    __slots__ = (
        "input_shape",
        "kernel",
        "stride",
        "padding",
        "out_hw",
        "padded_hw",
        "gather_index",
        "scatter_index",
        "scatter_bins",
        "trivial",
    )

    def __init__(
        self,
        input_shape: Tuple[int, int, int, int],
        kernel: Tuple[int, int],
        stride: Tuple[int, int],
        padding: Tuple[int, int],
    ) -> None:
        n, c, h, w = input_shape
        kh, kw = kernel
        sh, sw = stride
        ph, pw = padding
        out_h = (h + 2 * ph - kh) // sh + 1
        out_w = (w + 2 * pw - kw) // sw + 1
        if out_h <= 0 or out_w <= 0:
            raise ValueError(
                f"convolution output would be empty for input {input_shape}, "
                f"kernel {kernel}, stride {stride}, padding {padding}"
            )
        pad_h, pad_w = h + 2 * ph, w + 2 * pw
        self.input_shape = input_shape
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        self.out_hw = (out_h, out_w)
        self.padded_hw = (pad_h, pad_w)
        # 1x1/stride-1/pad-0: the gather is the identity permutation, so
        # im2col/col2im are pure reshapes (see im2col/col2im below).
        self.trivial = kernel == (1, 1) and stride == (1, 1) and padding == (0, 0)
        # (kh, kw, out_h, out_w) -> flat padded spatial index, flattened in
        # exactly the (c, kh, kw, l) column order of the stride-trick path.
        rows = np.arange(kh)[:, None, None, None] + sh * np.arange(out_h)[None, None, :, None]
        cols = np.arange(kw)[None, :, None, None] + sw * np.arange(out_w)[None, None, None, :]
        self.gather_index = (rows * pad_w + cols).reshape(-1).astype(np.intp)
        # Channel-expanded scatter map: bin (channel, padded pixel).  The
        # batch axis is handled by a per-sample bincount, which keeps the
        # index memory O(C * kh * kw * L) instead of O(N * C * kh * kw * L).
        spatial = pad_h * pad_w
        self.scatter_bins = c * spatial
        self.scatter_index = (
            np.arange(c, dtype=np.intp)[:, None] * spatial + self.gather_index[None, :]
        ).reshape(-1)

    # ------------------------------------------------------------------
    def im2col(self, x: np.ndarray) -> np.ndarray:
        """Unfold ``x`` (N, C, H, W) into (N, C*kh*kw, out_h*out_w) columns.

        Trivial plans skip the gather: the columns of a 1x1/s1/p0 convolution
        *are* the input, so the result is a zero-copy reshape (made
        contiguous first, so downstream einsums see the exact memory layout
        the gather would have produced — einsum dispatch, and therefore its
        float accumulation order, is layout-sensitive).
        """
        n, c, h, w = x.shape
        kh, kw = self.kernel
        ph, pw = self.padding
        if self.trivial:
            return np.ascontiguousarray(x).reshape(n, c, h * w)
        if ph or pw:
            x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
        out_h, out_w = self.out_hw
        flat = x.reshape(n * c, self.padded_hw[0] * self.padded_hw[1])
        cols = flat.take(self.gather_index, axis=1)
        return cols.reshape(n, c * kh * kw, out_h * out_w)

    def col2im(self, cols: np.ndarray) -> np.ndarray:
        """Fold (N, C*kh*kw, L) columns back to (N, C, H, W), accumulating.

        One ``np.bincount`` scatter-add per sample replaces the historical
        ``kh x kw`` Python loop; the result is bit-identical (see module
        docstring) and the output keeps the columns' dtype.
        """
        n, c, h, w = self.input_shape
        n = cols.shape[0]  # threaded batch chunks fold fewer samples
        if self.trivial:
            # Each pixel receives exactly one contribution; the float64
            # bincount round-trip of a single value is exact at any dtype,
            # so the fold degenerates to the inverse reshape.
            return np.ascontiguousarray(cols).reshape(n, c, h, w)
        ph, pw = self.padding
        pad_h, pad_w = self.padded_hw
        flat_cols = np.ascontiguousarray(cols).reshape(n, -1)
        folded = np.empty((n, self.scatter_bins), dtype=np.float64)
        for sample in range(n):
            folded[sample] = np.bincount(
                self.scatter_index, weights=flat_cols[sample], minlength=self.scatter_bins
            )
        padded = folded.reshape(n, c, pad_h, pad_w)
        if padded.dtype != cols.dtype:
            padded = padded.astype(cols.dtype)
        if ph == 0 and pw == 0:
            return padded
        return padded[:, :, ph : ph + h, pw : pw + w]

    def col2im_outer(self, weight: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """Fused fold of an outer-product column gradient (depthwise backward).

        For a depthwise convolution the column gradient is the outer product
        ``weight[c, kh*kw] * grad[n, c, l]`` — materialising it as a full
        ``(N, C*kh*kw, L)`` array just to fold it again is the single
        biggest allocation of the backward pass.  This loops over the
        ``kh*kw`` kernel taps instead, computing each tap's product into one
        reused cache-sized buffer and adding it in a channels-*last* layout,
        so every add runs over contiguous channel runs instead of the short
        strided rows of the NCHW loop.

        Bit-identity with materialising the product and folding it with
        :meth:`col2im`: each product is a single rounding, and each output
        pixel accumulates its taps in the same ascending ``(i, j)`` order.
        """
        n = grad.shape[0]
        c, h, w = self.input_shape[1:]
        kh, kw = self.kernel
        sh, sw = self.stride
        ph, pw = self.padding
        out_h, out_w = self.out_hw
        pad_h, pad_w = self.padded_hw
        dtype = np.result_type(weight, grad)
        # (n, out_h, out_w, c): channel axis contiguous for the tap adds.
        grad_t = np.ascontiguousarray(
            grad.reshape(n, c, out_h, out_w).transpose(0, 2, 3, 1), dtype=dtype
        )
        weight_t = np.ascontiguousarray(weight.T, dtype=dtype)  # (kh*kw, c)
        padded = np.zeros((n, pad_h, pad_w, c), dtype=dtype)
        product = np.empty_like(grad_t)
        for tap in range(kh * kw):
            i, j = divmod(tap, kw)
            np.multiply(weight_t[tap], grad_t, out=product)
            padded[:, i : i + sh * out_h : sh, j : j + sw * out_w : sw, :] += product
        folded = padded.transpose(0, 3, 1, 2)
        if ph or pw:
            folded = folded[:, :, ph : ph + h, pw : pw + w]
        return np.ascontiguousarray(folded)

    def grad_weight(self, grad_grouped: np.ndarray, cols_grouped: np.ndarray) -> np.ndarray:
        """Weight-gradient contraction ``(n,g,o,l) x (n,g,k,l) -> (g,o,k)``.

        The plan tier owns the contraction so the weight gradient reuses the
        cached gather columns (for trivial plans, a *view* of the forward
        input — no column tensor is ever re-materialised).

        * **float64** — the legacy einsum verbatim.  Its accumulation order
          is the bit-identity contract fenced by the golden suites; probing
          every layout/transpose alternative found nothing faster that keeps
          the same rounding, so the exact expression stays.
        * **float32** — per-sample batched ``matmul`` + sum over the batch
          axis, ~3x faster than the einsum on the depthwise bench geometry
          (``conv_bwd_weight`` bench key); tolerance-equal, which is the
          float32 regime's contract.
        """
        if is_fast_dtype(grad_grouped, cols_grouped):
            return np.matmul(grad_grouped, np.swapaxes(cols_grouped, -1, -2)).sum(axis=0)
        return np.einsum("ngol,ngkl->gok", grad_grouped, cols_grouped, optimize=True)


def get_plan(
    input_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> ConvPlan:
    """The cached :class:`ConvPlan` for a geometry (built on first use).

    The batch size is excluded from the cache key — plans are shared by all
    batch sizes of one (channels, spatial, kernel) geometry, so a final
    odd-sized batch or a threaded batch chunk reuses its full-batch plan.
    """
    key = (tuple(input_shape[1:]), tuple(kernel), tuple(stride), tuple(padding))
    with _lock:
        plan = _cache.get(key)
        if plan is not None:
            _cache.move_to_end(key)
            _stats["hits"] += 1
            return plan
        _stats["misses"] += 1
    plan = ConvPlan(tuple(input_shape), tuple(kernel), tuple(stride), tuple(padding))
    with _lock:
        _cache[key] = plan
        _cache.move_to_end(key)
        while len(_cache) > MAX_PLANS:
            _cache.popitem(last=False)
    return plan


def clear_plan_cache() -> None:
    """Drop all cached plans and reset the hit/miss counters (tests)."""
    with _lock:
        _cache.clear()
        _stats["hits"] = 0
        _stats["misses"] = 0


def plan_cache_info() -> Dict[str, int]:
    """Cache statistics: ``{"size": ..., "hits": ..., "misses": ...}``."""
    with _lock:
        return {"size": len(_cache), "hits": _stats["hits"], "misses": _stats["misses"]}
