"""Reference convolution lowering: the parity oracle for the plan tier.

``repro.autograd.conv`` lowers every convolution through one route, the
cached :class:`~repro.autograd.plans.ConvPlan`.  This module keeps the
historical lowering it replaced — stride-trick im2col, a ``kh x kw`` loop of
strided adds for col2im, the einsum weight-gradient contraction and a
materialised depthwise outer product — so tests can assert the plan route
is bit-identical to it at float64 and ``benchmarks/run_bench.py`` can time
it as the "before" side of the conv bench keys.

Two seams swap the reference in without any code in ``src/``:

* :func:`reference_lowering` replaces ``repro.autograd.conv.get_plan`` with
  :class:`ReferencePlan`, which has the ``ConvPlan`` methods;
* :func:`per_candidate_loop` replaces ``MixedOp._forward_fused`` with
  :func:`loop_forward`, the per-candidate soft-gate loop the fused group
  lowering replaced.

Import it as ``from conv_reference import ...``: pytest puts ``tests/`` on
``sys.path`` for the test modules, and ``run_bench.py`` adds it itself.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.autograd import conv
from repro.autograd.precision import is_fast_dtype
from repro.autograd.tensor import Tensor
from repro.nas.supernet import MixedOp


def im2col(
    x: np.ndarray, kernel: Tuple[int, int], stride: Tuple[int, int], padding: Tuple[int, int]
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Unfold ``x`` (N, C, H, W) into columns of shape (N, C*kh*kw, out_h*out_w).

    Stride-trick reference implementation: the plan cache's gather produces
    bit-identical columns (asserted by tests/test_conv_plans.py).
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    out_h = (h + 2 * ph - kh) // sh + 1
    out_w = (w + 2 * pw - kw) // sw + 1
    padded = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    # (n, c, H', W', kh, kw) view over every kernel window, then keep one
    # window per stride step; no data is copied until the final reshape.
    windows = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::sh, ::sw, :, :]
    cols = windows.transpose(0, 1, 4, 5, 2, 3)
    return cols.reshape(n, c * kh * kw, out_h * out_w), (out_h, out_w)


def col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    out_hw: Tuple[int, int],
) -> np.ndarray:
    """Fold columns back into an image, accumulating overlapping contributions.

    Loop-based reference implementation (one strided add per kernel offset);
    the plan cache's bincount scatter adds each pixel's contributions in the
    same (i, j) order, so the two are bit-identical.
    """
    n, c, h, w = input_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    out_h, out_w = out_hw
    cols = cols.reshape(n, c, kh, kw, out_h, out_w)
    padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    for i in range(kh):
        i_end = i + sh * out_h
        for j in range(kw):
            j_end = j + sw * out_w
            padded[:, :, i:i_end:sh, j:j_end:sw] += cols[:, :, i, j, :, :]
    if ph == 0 and pw == 0:
        return padded
    return padded[:, :, ph : ph + h, pw : pw + w]


class ReferencePlan:
    """A ``ConvPlan`` stand-in that lowers through the reference functions.

    Built fresh on every call (no cache), exactly like the historical
    lowering, so timing it includes no plan reuse.
    """

    def __init__(
        self,
        input_shape: Tuple[int, int, int, int],
        kernel: Tuple[int, int],
        stride: Tuple[int, int],
        padding: Tuple[int, int],
    ) -> None:
        h, w = input_shape[2], input_shape[3]
        out_h = (h + 2 * padding[0] - kernel[0]) // stride[0] + 1
        out_w = (w + 2 * padding[1] - kernel[1]) // stride[1] + 1
        if out_h <= 0 or out_w <= 0:
            raise ValueError(
                f"convolution output would be empty for input {tuple(input_shape)}, "
                f"kernel {kernel}, stride {stride}, padding {padding}"
            )
        self.input_shape = tuple(input_shape)
        self.kernel = tuple(kernel)
        self.stride = tuple(stride)
        self.padding = tuple(padding)
        self.out_hw = (out_h, out_w)

    def _shape(self, n: int) -> Tuple[int, int, int, int]:
        return (n,) + self.input_shape[1:]

    def im2col(self, x: np.ndarray) -> np.ndarray:
        """Stride-trick columns, copied to the C-contiguous layout of the plan's gather.

        The final reshape of :func:`im2col` is sometimes a strided view
        (e.g. a single-row kernel over one channel).  The einsum contractions
        that consume the columns pick their BLAS call by memory layout, so a
        strided view can round the weight gradient differently in the last
        bit although every column value is equal.  Copying makes parity
        compare the lowering, not numpy's layout-dependent dispatch.
        """
        return np.ascontiguousarray(im2col(x, self.kernel, self.stride, self.padding)[0])

    def col2im(self, cols: np.ndarray) -> np.ndarray:  # noqa: D102
        return col2im(
            cols, self._shape(cols.shape[0]), self.kernel, self.stride, self.padding, self.out_hw
        )

    def col2im_outer(self, weight: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """Materialise the depthwise outer-product column gradient, then fold it."""
        n, c, length = grad.shape
        grad_cols = weight[None, :, :, None] * grad[:, :, None, :]
        return self.col2im(grad_cols.reshape(n, c * weight.shape[1], length))

    def grad_weight(self, grad_grouped: np.ndarray, cols_grouped: np.ndarray) -> np.ndarray:
        """(n, g, o, l) x (n, g, k, l) -> (g, o, k)."""
        if is_fast_dtype(grad_grouped, cols_grouped):
            return np.matmul(grad_grouped, np.swapaxes(cols_grouped, -1, -2)).sum(axis=0)
        return np.einsum("ngol,ngkl->gok", grad_grouped, cols_grouped, optimize=True)


@contextmanager
def reference_lowering() -> Iterator[None]:
    """Lower every ``repro.autograd.conv`` op through :class:`ReferencePlan`."""
    previous = conv.get_plan
    conv.get_plan = ReferencePlan
    try:
        yield
    finally:
        conv.get_plan = previous


def loop_forward(
    mixed: MixedOp, x: Tensor, gates: Tensor, indices: List[int]
) -> Optional[Tensor]:
    """Soft-gate mixed-op forward as a per-candidate loop (no fusion)."""
    output: Optional[Tensor] = None
    for index in indices:
        gated = mixed.candidates[index](x) * gates[index]
        output = gated if output is None else output + gated
    return output


@contextmanager
def per_candidate_loop() -> Iterator[None]:
    """Run every ``MixedOp`` soft-gate forward through :func:`loop_forward`."""
    previous = MixedOp.__dict__["_forward_fused"]
    MixedOp._forward_fused = loop_forward
    try:
        yield
    finally:
        MixedOp._forward_fused = previous
