//! 2-D convolution as a GEMM over the im2col matrix, with the full
//! backward pass needed for training (ResNet-18 substrate).
//!
//! All image tensors are NCHW (batch, channels, height, width); weights are
//! `(out_channels, in_channels, kh, kw)`.
//!
//! Each image's output is `W_mat · cols`, the `(oc, c·kh·kw)` weight matrix
//! times the image's im2col matrix. The packed forward never builds that
//! matrix: [`ImagePanels`] packs each image's receptive fields straight
//! into the `KC × NR` panels the GEMM micro-kernel reads, writing padding
//! positions as `0.0`, and the weights are packed once per call for the
//! whole batch. The micro-kernel therefore sees the same panels and sums
//! in the same order as it would over a materialised im2col matrix, so the
//! output bits do not change. The scalar kernel variant never packs: it
//! runs over a materialised im2col matrix and is the reference the packed
//! forward is pinned against. The backward pass materialises im2col and
//! folds gradients back with col2im.
//!
//! The forward and backward loops are allocation-free on the steady state
//! apart from their output tensors: im2col matrices, packed panels and
//! matmul temporaries live in [`crate::scratch`] buffers that are recycled
//! across images and across calls, and the GEMM writes straight into the
//! output (or accumulates straight into the gradient) instead of
//! materialising per-image product tensors.

use crate::kernels::gemm_f32::{self, Micro, PackedA, PanelSource};
use crate::kernels::{self, Selection, NR};
use crate::ops::gemm::gemm_strided;
use crate::scratch;
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Geometry of a 2-D convolution: kernel size, stride and zero padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Conv2dSpec {
    /// Kernel height and width.
    pub kernel: (usize, usize),
    /// Vertical and horizontal stride.
    pub stride: (usize, usize),
    /// Vertical and horizontal zero padding (applied on both sides).
    pub padding: (usize, usize),
}

impl Conv2dSpec {
    /// Creates a spec with a square kernel, unit stride and no padding.
    pub fn new(kernel: usize) -> Self {
        Conv2dSpec {
            kernel: (kernel, kernel),
            stride: (1, 1),
            padding: (0, 0),
        }
    }

    /// Sets a uniform stride, returning the modified spec.
    pub fn with_stride(mut self, stride: usize) -> Self {
        self.stride = (stride, stride);
        self
    }

    /// Sets a uniform padding, returning the modified spec.
    pub fn with_padding(mut self, padding: usize) -> Self {
        self.padding = (padding, padding);
        self
    }

    /// Output spatial size for an input of size `(h, w)`.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit in the padded input.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let (kh, kw) = self.kernel;
        let (sh, sw) = self.stride;
        let (ph, pw) = self.padding;
        assert!(
            h + 2 * ph >= kh && w + 2 * pw >= kw,
            "kernel {kh}x{kw} does not fit input {h}x{w} with padding {ph}x{pw}"
        );
        ((h + 2 * ph - kh) / sh + 1, (w + 2 * pw - kw) / sw + 1)
    }
}

/// Unfolds one CHW image into the im2col matrix of shape
/// `(c * kh * kw, oh * ow)`: column `q` holds the receptive field of output
/// position `q`, so convolution becomes `W_mat · cols`.
///
/// Out-of-bounds (padding) positions contribute zeros.
///
/// # Panics
///
/// Panics if `image` is not rank 3 or the kernel does not fit.
pub fn im2col(image: &Tensor, spec: Conv2dSpec) -> Tensor {
    assert_eq!(image.rank(), 3, "im2col expects a CHW image");
    let (c, h, w) = (image.dim(0), image.dim(1), image.dim(2));
    let (kh, kw) = spec.kernel;
    let (oh, ow) = spec.output_hw(h, w);
    let mut out = vec![0.0f32; c * kh * kw * oh * ow];
    im2col_into(image.data(), c, h, w, spec, &mut out);
    Tensor::from_vec(out, [c * kh * kw, oh * ow])
}

/// Allocation-free core of [`im2col`]: unfolds one CHW image (given as a
/// raw slice) into `dst`, which must hold `c·kh·kw · oh·ow` elements.
/// `dst` is fully overwritten (padding positions are zeroed first).
fn im2col_into(src: &[f32], c: usize, h: usize, w: usize, spec: Conv2dSpec, dst: &mut [f32]) {
    let (kh, kw) = spec.kernel;
    let (sh, sw) = spec.stride;
    let (ph, pw) = spec.padding;
    let (oh, ow) = spec.output_hw(h, w);
    let cols_n = oh * ow;
    debug_assert_eq!(src.len(), c * h * w);
    debug_assert_eq!(dst.len(), c * kh * kw * cols_n);
    dst.fill(0.0);

    for ch in 0..c {
        for ki in 0..kh {
            for kj in 0..kw {
                let row = (ch * kh + ki) * kw + kj;
                let dst_row = &mut dst[row * cols_n..(row + 1) * cols_n];
                for oi in 0..oh {
                    let si = (oi * sh + ki) as isize - ph as isize;
                    if si < 0 || si >= h as isize {
                        continue;
                    }
                    let src_base = (ch * h + si as usize) * w;
                    for oj in 0..ow {
                        let sj = (oj * sw + kj) as isize - pw as isize;
                        if sj < 0 || sj >= w as isize {
                            continue;
                        }
                        dst_row[oi * ow + oj] = src[src_base + sj as usize];
                    }
                }
            }
        }
    }
}

/// Folds an im2col matrix back into a CHW image, *accumulating* overlapping
/// contributions — the adjoint of [`im2col`], used for input gradients.
///
/// # Panics
///
/// Panics if `cols` does not have the shape implied by `(c, h, w)` and
/// `spec`.
pub fn col2im(cols: &Tensor, c: usize, h: usize, w: usize, spec: Conv2dSpec) -> Tensor {
    let (kh, kw) = spec.kernel;
    let (oh, ow) = spec.output_hw(h, w);
    assert_eq!(
        cols.dims(),
        &[c * kh * kw, oh * ow],
        "col2im: cols shape does not match geometry"
    );
    let mut out = vec![0.0f32; c * h * w];
    col2im_into(cols.data(), c, h, w, spec, &mut out);
    Tensor::from_vec(out, [c, h, w])
}

/// Allocation-free core of [`col2im`]: folds an im2col matrix (raw slice)
/// back into a `c·h·w` destination slice, **accumulating** overlapping
/// contributions. `dst` is not zeroed — callers either pass fresh zeroed
/// storage or rely on the accumulation.
fn col2im_into(src: &[f32], c: usize, h: usize, w: usize, spec: Conv2dSpec, dst: &mut [f32]) {
    let (kh, kw) = spec.kernel;
    let (sh, sw) = spec.stride;
    let (ph, pw) = spec.padding;
    let (oh, ow) = spec.output_hw(h, w);
    let cols_n = oh * ow;
    debug_assert_eq!(src.len(), c * kh * kw * cols_n);
    debug_assert_eq!(dst.len(), c * h * w);

    for ch in 0..c {
        for ki in 0..kh {
            for kj in 0..kw {
                let row = (ch * kh + ki) * kw + kj;
                let src_row = &src[row * cols_n..(row + 1) * cols_n];
                for oi in 0..oh {
                    let si = (oi * sh + ki) as isize - ph as isize;
                    if si < 0 || si >= h as isize {
                        continue;
                    }
                    let dst_base = (ch * h + si as usize) * w;
                    for oj in 0..ow {
                        let sj = (oj * sw + kj) as isize - pw as isize;
                        if sj < 0 || sj >= w as isize {
                            continue;
                        }
                        dst[dst_base + sj as usize] += src_row[oi * ow + oj];
                    }
                }
            }
        }
    }
}

/// One CHW image read as its im2col matrix `B'`, packed straight into the
/// GEMM's micro-panels. `B'(l, q)` is the pixel under kernel tap
/// `l = (ch, ki, kj)` at output position `q = (oi, oj)`, or `0.0` where
/// the tap falls in the padding. Padding is multiplied, not skipped: a
/// faulted weight can be ±inf or NaN, and `0.0 · inf = NaN` is part of the
/// output bits.
struct ImagePanels<'a> {
    src: &'a [f32],
    h: usize,
    w: usize,
    ow: usize,
    spec: Conv2dSpec,
}

impl ImagePanels<'_> {
    /// Writes `B'(l, q)` for tap `(ch, ki, kj)` and the positions
    /// `q = (oi, oj), (oi, oj + 1), …` into `out`, one output-row run at a
    /// time.
    fn fill(
        &self,
        mut out: &mut [f32],
        (ch, ki, kj): (usize, usize, usize),
        (oi, oj): (usize, usize),
    ) {
        let (sh, sw) = self.spec.stride;
        let (ph, pw) = self.spec.padding;
        let (mut oi, mut oj) = (oi, oj);
        while !out.is_empty() {
            let len = out.len().min(self.ow - oj);
            let (run, rest) = std::mem::take(&mut out).split_at_mut(len);
            out = rest;
            // Tap position in padded coordinates; the image starts at
            // (ph, pw).
            let (si, sj) = (oi * sh + ki, oj * sw + kj);
            oi += 1;
            oj = 0;
            if si < ph || si - ph >= self.h {
                run.fill(0.0);
                continue;
            }
            let row = &self.src[(ch * self.h + si - ph) * self.w..][..self.w];
            if sw == 1 {
                // Output positions lo..hi of the run read image columns
                // sj + lo - pw ..; the rest fall in the padding. A run that
                // lies wholly in the padding has lo == hi.
                let lo = pw.saturating_sub(sj).min(run.len());
                let hi = (pw + self.w).saturating_sub(sj).min(run.len());
                run[..lo].fill(0.0);
                if lo < hi {
                    run[lo..hi].copy_from_slice(&row[sj + lo - pw..sj + hi - pw]);
                }
                run[hi..].fill(0.0);
            } else {
                for (t, x) in run.iter_mut().enumerate() {
                    let col = sj + t * sw;
                    *x = if col >= pw && col - pw < self.w {
                        row[col - pw]
                    } else {
                        0.0
                    };
                }
            }
        }
    }
}

impl PanelSource for ImagePanels<'_> {
    fn pack(&self, dst: &mut [f32], row0: usize, kc: usize, col0: usize, nc: usize) {
        let (kh, kw) = self.spec.kernel;
        for (p, panel) in dst.chunks_mut(kc * NR).take(nc.div_ceil(NR)).enumerate() {
            let (j0, cols) = (col0 + p * NR, NR.min(nc - p * NR));
            let (oi, oj) = (j0 / self.ow, j0 % self.ow);
            let (mut ch, mut ki, mut kj) = (row0 / (kh * kw), (row0 / kw) % kh, row0 % kw);
            for row in panel.chunks_exact_mut(NR) {
                let (data, pad) = row.split_at_mut(cols);
                self.fill(data, (ch, ki, kj), (oi, oj));
                pad.fill(0.0);
                kj += 1;
                if kj == kw {
                    kj = 0;
                    ki += 1;
                    if ki == kh {
                        ki = 0;
                        ch += 1;
                    }
                }
            }
        }
    }
}

/// Batched 2-D convolution forward pass.
///
/// `input` is `(n, c, h, w)`, `weight` is `(oc, c, kh, kw)`, optional `bias`
/// is `(oc,)`; the result is `(n, oc, oh, ow)`.
///
/// # Panics
///
/// Panics on rank or dimension mismatches.
pub fn conv2d(input: &Tensor, weight: &Tensor, bias: Option<&Tensor>, spec: Conv2dSpec) -> Tensor {
    conv2d_with(kernels::select_f32_conv, input, weight, bias, spec)
}

/// [`conv2d`] with the kernel chosen by `select(m, n, k)` for the per-image
/// `(oc, oh·ow, c·kh·kw)` GEMM shape.
fn conv2d_with(
    select: impl FnOnce(usize, usize, usize) -> Selection,
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: Conv2dSpec,
) -> Tensor {
    assert_eq!(input.rank(), 4, "conv2d expects NCHW input");
    assert_eq!(weight.rank(), 4, "conv2d expects OIHW weights");
    let (n, c, h, w) = (input.dim(0), input.dim(1), input.dim(2), input.dim(3));
    let (oc, ic, kh, kw) = (weight.dim(0), weight.dim(1), weight.dim(2), weight.dim(3));
    assert_eq!(c, ic, "conv2d: input channels {c} != weight channels {ic}");
    assert_eq!(
        (kh, kw),
        spec.kernel,
        "conv2d: weight kernel does not match spec"
    );
    if let Some(b) = bias {
        assert_eq!(
            b.dims(),
            &[oc],
            "conv2d: bias must have one entry per output channel"
        );
    }
    let (oh, ow) = spec.output_hw(h, w);
    let plane = oh * ow;
    let kdim = c * kh * kw;
    let chw = c * h * w;
    let wm = weight.data(); // (oc, kdim) viewed row-major
    let mut out = vec![0.0f32; n * oc * plane];
    let image = |img: usize| &input.data()[img * chw..(img + 1) * chw];
    let add_bias = |dst: &mut [f32]| {
        if let Some(b) = bias {
            for (chan, &bv) in dst.chunks_exact_mut(plane).zip(b.data()) {
                chan.iter_mut().for_each(|x| *x += bv);
            }
        }
    };
    // (oc, plane) = (oc, kdim) · (kdim, plane) per image, written in place.
    let sel = select(oc, plane, kdim);
    match Micro::of(sel.variant) {
        // The reference: a materialised im2col matrix, never packed.
        None => {
            let mut cols = scratch::take(kdim * plane);
            for img in 0..n {
                let dst = &mut out[img * oc * plane..(img + 1) * oc * plane];
                im2col_into(image(img), c, h, w, spec, &mut cols);
                gemm_f32::run(sel, oc, plane, kdim, wm, (kdim, 1), &cols, (plane, 1), dst);
                add_bias(dst);
            }
        }
        // The weights are packed once for the whole batch, each image
        // straight into the B panels.
        Some(micro) => {
            let weights = PackedA::new(oc, kdim, wm, (kdim, 1));
            for img in 0..n {
                let dst = &mut out[img * oc * plane..(img + 1) * oc * plane];
                let src = image(img);
                let panels = ImagePanels {
                    src,
                    h,
                    w,
                    ow,
                    spec,
                };
                gemm_f32::blocked(micro, sel.tile, plane, &weights, &panels, dst);
                add_bias(dst);
            }
        }
    }
    Tensor::from_vec(out, [n, oc, oh, ow])
}

/// Gradients of a batched 2-D convolution.
///
/// Given the forward inputs and `grad_out = ∂L/∂output` of shape
/// `(n, oc, oh, ow)`, returns `(∂L/∂input, ∂L/∂weight, ∂L/∂bias)`.
///
/// # Panics
///
/// Panics on rank or dimension mismatches.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    spec: Conv2dSpec,
) -> (Tensor, Tensor, Tensor) {
    assert_eq!(input.rank(), 4, "conv2d_backward expects NCHW input");
    assert_eq!(grad_out.rank(), 4, "conv2d_backward expects NCHW grad_out");
    let (n, c, h, w) = (input.dim(0), input.dim(1), input.dim(2), input.dim(3));
    let (oc, _, kh, kw) = (weight.dim(0), weight.dim(1), weight.dim(2), weight.dim(3));
    let (oh, ow) = spec.output_hw(h, w);
    assert_eq!(
        grad_out.dims(),
        &[n, oc, oh, ow],
        "conv2d_backward: grad_out shape mismatch"
    );

    let plane = oh * ow;
    let kdim = c * kh * kw;
    let chw = c * h * w;
    let wm = weight.data(); // (oc, kdim) viewed row-major
    let mut grad_input = vec![0.0f32; n * chw];
    let mut grad_weight = vec![0.0f32; oc * kdim];
    let mut grad_bias = vec![0.0f32; oc];
    let mut cols = scratch::take(kdim * plane);
    let mut dcols = scratch::take(kdim * plane);

    for img in 0..n {
        im2col_into(
            &input.data()[img * chw..(img + 1) * chw],
            c,
            h,
            w,
            spec,
            &mut cols,
        );
        let go = &grad_out.data()[img * oc * plane..(img + 1) * oc * plane]; // (oc, plane)
                                                                             // dW += dY · colsᵀ — the GEMM's accumulate semantics sum over the
                                                                             // batch directly, no per-image product tensor.
        gemm_strided(
            oc,
            kdim,
            plane,
            go,
            (plane, 1),
            &cols,
            (1, plane),
            &mut grad_weight,
        );
        // db += row sums of dY
        for och in 0..oc {
            grad_bias[och] += go[och * plane..(och + 1) * plane].iter().sum::<f32>();
        }
        // dcols = Wᵀ · dY, then fold back into this image's input gradient.
        dcols.fill(0.0);
        gemm_strided(kdim, plane, oc, wm, (1, kdim), go, (plane, 1), &mut dcols);
        col2im_into(
            &dcols,
            c,
            h,
            w,
            spec,
            &mut grad_input[img * chw..(img + 1) * chw],
        );
    }

    (
        Tensor::from_vec(grad_input, [n, c, h, w]),
        Tensor::from_vec(grad_weight, [oc, c, kh, kw]),
        Tensor::from_vec(grad_bias, [oc]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::Variant;

    #[test]
    fn output_geometry() {
        let s = Conv2dSpec::new(3).with_padding(1);
        assert_eq!(s.output_hw(32, 32), (32, 32));
        let s = Conv2dSpec::new(3).with_stride(2).with_padding(1);
        assert_eq!(s.output_hw(32, 32), (16, 16));
        let s = Conv2dSpec::new(1);
        assert_eq!(s.output_hw(7, 5), (7, 5));
    }

    #[test]
    fn im2col_identity_kernel() {
        // A 1x1 kernel with unit stride flattens each channel plane.
        let img = Tensor::from_fn([2, 2, 2], |i| (i[0] * 4 + i[1] * 2 + i[2]) as f32);
        let cols = im2col(&img, Conv2dSpec::new(1));
        assert_eq!(cols.dims(), &[2, 4]);
        assert_eq!(cols.data(), img.data());
    }

    #[test]
    fn conv2d_known_values() {
        // Single 1x3x3 image, single 1x1x2x2 averaging-ish kernel.
        let input = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
            [1, 1, 3, 3],
        );
        let weight = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], [1, 1, 2, 2]);
        let out = conv2d(&input, &weight, None, Conv2dSpec::new(2));
        // Each output = top-left + bottom-right of the 2x2 window.
        assert_eq!(out.dims(), &[1, 1, 2, 2]);
        assert_eq!(out.data(), &[1.0 + 5.0, 2.0 + 6.0, 4.0 + 8.0, 5.0 + 9.0]);
    }

    #[test]
    fn conv2d_bias_adds_per_channel() {
        let input = Tensor::ones([1, 1, 2, 2]);
        let weight = Tensor::ones([2, 1, 1, 1]);
        let bias = Tensor::from_vec(vec![10.0, -10.0], [2]);
        let out = conv2d(&input, &weight, Some(&bias), Conv2dSpec::new(1));
        assert_eq!(out.dims(), &[1, 2, 2, 2]);
        assert_eq!(&out.data()[..4], &[11.0; 4]);
        assert_eq!(&out.data()[4..], &[-9.0; 4]);
    }

    #[test]
    fn padding_behaves_like_zero_border() {
        let input = Tensor::ones([1, 1, 2, 2]);
        let weight = Tensor::ones([1, 1, 3, 3]);
        let out = conv2d(&input, &weight, None, Conv2dSpec::new(3).with_padding(1));
        // Centre of each output = count of in-bounds ones in the 3x3 window.
        assert_eq!(out.dims(), &[1, 1, 2, 2]);
        assert_eq!(out.data(), &[4.0, 4.0, 4.0, 4.0]);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random-ish x, y.
        let spec = Conv2dSpec::new(2).with_stride(1).with_padding(1);
        let x = Tensor::from_fn([2, 3, 3], |i| {
            ((i[0] + 1) * (i[1] + 2) * (i[2] + 3)) as f32 * 0.1
        });
        let cols = im2col(&x, spec);
        let y = Tensor::from_fn(cols.dims(), |i| ((i[0] * 7 + i[1] * 3) % 5) as f32 - 2.0);
        let lhs = cols.dot(&y);
        let folded = col2im(&y, 2, 3, 3, spec);
        let rhs = x.dot(&folded);
        assert!((lhs - rhs).abs() < 1e-3, "adjoint mismatch: {lhs} vs {rhs}");
    }

    #[test]
    fn conv_backward_matches_finite_differences() {
        let spec = Conv2dSpec::new(3).with_stride(2).with_padding(1);
        let input = Tensor::from_fn([2, 2, 5, 5], |i| {
            ((i[0] * 31 + i[1] * 17 + i[2] * 7 + i[3] * 3) % 11) as f32 * 0.1 - 0.5
        });
        let weight = Tensor::from_fn([3, 2, 3, 3], |i| {
            ((i[0] * 13 + i[1] * 5 + i[2] * 3 + i[3]) % 7) as f32 * 0.1 - 0.3
        });
        let bias = Tensor::from_vec(vec![0.1, -0.2, 0.3], [3]);

        // Loss = sum(conv output); then dL/dout = ones.
        let out = conv2d(&input, &weight, Some(&bias), spec);
        let grad_out = Tensor::ones(out.dims());
        let (gi, gw, gb) = conv2d_backward(&input, &weight, &grad_out, spec);

        let eps = 1e-2f32;
        let loss = |inp: &Tensor, wt: &Tensor, b: &Tensor| conv2d(inp, wt, Some(b), spec).sum();

        // Check a scattering of coordinates in each gradient.
        for &idx in &[0usize, 7, 23, 49] {
            let mut ip = input.clone();
            ip.data_mut()[idx] += eps;
            let mut im = input.clone();
            im.data_mut()[idx] -= eps;
            let fd = (loss(&ip, &weight, &bias) - loss(&im, &weight, &bias)) / (2.0 * eps);
            assert!(
                (fd - gi.data()[idx]).abs() < 2e-2,
                "grad_input[{idx}]: fd={fd}, analytic={}",
                gi.data()[idx]
            );
        }
        for &idx in &[0usize, 5, 17, 53] {
            let mut wp = weight.clone();
            wp.data_mut()[idx] += eps;
            let mut wm = weight.clone();
            wm.data_mut()[idx] -= eps;
            let fd = (loss(&input, &wp, &bias) - loss(&input, &wm, &bias)) / (2.0 * eps);
            assert!(
                (fd - gw.data()[idx]).abs() < 2e-1,
                "grad_weight[{idx}]: fd={fd}, analytic={}",
                gw.data()[idx]
            );
        }
        for idx in 0..3 {
            let mut bp = bias.clone();
            bp.data_mut()[idx] += eps;
            let mut bm = bias.clone();
            bm.data_mut()[idx] -= eps;
            let fd = (loss(&input, &weight, &bp) - loss(&input, &weight, &bm)) / (2.0 * eps);
            assert!(
                (fd - gb.data()[idx]).abs() < 2e-1,
                "grad_bias[{idx}]: fd={fd}, analytic={}",
                gb.data()[idx]
            );
        }
    }

    /// Deterministic values in [-1, 1].
    fn fill(len: usize, salt: u32) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let x = (i as u32).wrapping_mul(2654435761).wrapping_add(salt);
                (x % 2001) as f32 / 1000.0 - 1.0
            })
            .collect()
    }

    /// The forward as it ran before panels were packed from the image:
    /// each image's materialised im2col matrix through `sel`'s GEMM, then
    /// the bias.
    fn im2col_forward(
        sel: Selection,
        input: &Tensor,
        weight: &Tensor,
        bias: &Tensor,
        spec: Conv2dSpec,
    ) -> Tensor {
        let (n, c, h, w) = (input.dim(0), input.dim(1), input.dim(2), input.dim(3));
        let oc = weight.dim(0);
        let kdim = weight.len() / oc;
        let (oh, ow) = spec.output_hw(h, w);
        let plane = oh * ow;
        let mut out = vec![0.0f32; n * oc * plane];
        for (image, dst) in input
            .data()
            .chunks_exact(c * h * w)
            .zip(out.chunks_exact_mut(oc * plane))
        {
            let cols = im2col(&Tensor::from_vec(image.to_vec(), [c, h, w]), spec);
            let wm = weight.data();
            gemm_f32::run(
                sel,
                oc,
                plane,
                kdim,
                wm,
                (kdim, 1),
                cols.data(),
                (plane, 1),
                dst,
            );
            for (chan, &bv) in dst.chunks_exact_mut(plane).zip(bias.data()) {
                chan.iter_mut().for_each(|x| *x += bv);
            }
        }
        Tensor::from_vec(out, [n, oc, oh, ow])
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|x| x.to_bits()).collect()
    }

    /// [`bits`] with every NaN mapped to one pattern.
    fn bits_nan_as_one(t: &Tensor) -> Vec<u32> {
        let nan = f32::NAN.to_bits();
        let one = |x: &f32| if x.is_nan() { nan } else { x.to_bits() };
        t.data().iter().map(one).collect()
    }

    #[test]
    fn packed_forward_is_bitwise_im2col_plus_gemm() {
        // (n, c, h, w, oc, kernel, stride, padding). Every kernel / stride /
        // padding combination on output rows both narrower than NR and
        // wider but not a multiple of it (panels span output rows), a 1x1
        // case whose rows are all narrower than NR, and one shape with two
        // NC blocks (plane 529 > 512), two KC blocks (c·kh·kw = 261 > 256)
        // and two MC blocks (oc = 67 > 64, not a multiple of MR). Padding 2
        // also makes runs that lie wholly in the right padding (the 5x5
        // image's last, one-column panel) and one-column runs at the start
        // of a row that lie wholly in the left padding (13x13, ow = 15).
        let mut cases = vec![
            (3, 3, 5, 7, 5, 1, 1, 0),
            (3, 29, 23, 23, 67, 3, 1, 1),
            (1, 8, 5, 5, 8, 3, 1, 2),
            (3, 2, 13, 13, 5, 3, 1, 2),
            (3, 3, 11, 11, 6, 5, 1, 2),
            (3, 3, 11, 11, 6, 5, 2, 2),
        ];
        for kernel in [1, 3] {
            for stride in [1, 2] {
                for padding in [0, 1, 2] {
                    cases.push((3, 3, 9, 19, 6, kernel, stride, padding));
                }
            }
        }
        for (n, c, h, w, oc, kernel, stride, padding) in cases {
            let spec = Conv2dSpec::new(kernel)
                .with_stride(stride)
                .with_padding(padding);
            let (oh, ow) = spec.output_hw(h, w);
            let tile = kernels::select_f32(oc, oh * ow, c * kernel * kernel).tile;
            let finite_in = fill(n * c * h * w, 1);
            let finite_w = fill(oc * c * kernel * kernel, 2);
            // Non-finite weights spread over taps, channels and outputs.
            let mut bad_w = finite_w.clone();
            for (i, v) in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN]
                .into_iter()
                .cycle()
                .take(6)
                .enumerate()
            {
                let at = (i * 7919 + 3) % bad_w.len();
                bad_w[at] = v;
            }
            // Non-finite pixels on every image's border.
            let mut bad_in = finite_in.clone();
            for img in 0..n {
                let base = (img * c + img % c) * h * w;
                bad_in[base] = f32::INFINITY;
                bad_in[base + w - 1] = f32::NAN;
                bad_in[base + (h - 1) * w] = f32::NEG_INFINITY;
                bad_in[base + h * w - 1 - w / 2] = f32::NAN;
            }
            let bias = Tensor::from_vec(fill(oc, 3), [oc]);
            for (label, x, wt) in [
                ("finite", &finite_in, &finite_w),
                ("non-finite weights", &finite_in, &bad_w),
                ("non-finite border pixels", &bad_in, &finite_w),
            ] {
                let input = Tensor::from_vec(x.clone(), [n, c, h, w]);
                let weight = Tensor::from_vec(wt.clone(), [oc, c, kernel, kernel]);
                let scalar = Selection {
                    variant: Variant::Scalar,
                    tile,
                };
                let reference = im2col_forward(scalar, &input, &weight, &bias, spec);
                for variant in [Variant::Scalar, Variant::Autovec, Variant::Avx2] {
                    let variant = if variant == Variant::Avx2 && !kernels::avx2_available() {
                        Variant::Autovec
                    } else {
                        variant
                    };
                    let sel = Selection { variant, tile };
                    let got = conv2d_with(|_, _, _| sel, &input, &weight, Some(&bias), spec);
                    let at = format!(
                        "{variant:?}, {label}: n{n} c{c} {h}x{w} oc{oc} k{kernel} s{stride} p{padding}"
                    );
                    // Every bit, NaN payloads included, equals the same
                    // kernel run over a materialised im2col matrix.
                    let same_kernel = im2col_forward(sel, &input, &weight, &bias, spec);
                    assert_eq!(bits(&got), bits(&same_kernel), "{at}");
                    // And every bit equals the scalar reference, except that
                    // the kernels may disagree on which NaN a sum of two
                    // different NaNs (say 0·inf and a NaN weight) keeps.
                    assert_eq!(bits_nan_as_one(&got), bits_nan_as_one(&reference), "{at}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn kernel_too_large_panics() {
        Conv2dSpec::new(5).output_hw(3, 3);
    }
}
