//! Quantized operators: integer dense and convolution kernels, the
//! quantized residual block, and the [`QOp`] sum type the
//! [`crate::QuantModel`] pipelines.
//!
//! Every operator keeps the QDQ (quantize–dequantize) contract: tensors at
//! op boundaries are `f32`, integer arithmetic lives strictly inside an op.
//! The inner product runs on the selector-dispatched `i8 × i8 → i32` GEMM
//! ([`bdlfi_tensor::qgemm`]); zero-point corrections and bias addition
//! happen in `i64`, and per-output-channel fixed-point [`Requant`]
//! multipliers map accumulators onto the output grid through the batched
//! helpers in [`crate::qparams`].
//!
//! Weights carry **per-channel symmetric scales** (one f32 per output
//! column of a dense layer, one per output channel of a convolution): each
//! channel uses its own max-abs grid, so one outlier channel no longer
//! dilates every other channel's step size. A fault flipping `w_scale[c]`
//! consequently perturbs only output channel `c` — the requantizer is the
//! only consumer of the scale — which is also what lets the sparse-delta
//! path handle weight-scale faults column-sparsely.
//!
//! Zero-point column/row sums and the per-channel requantizers are
//! recomputed on **every** forward pass rather than cached at calibration
//! time: a fault flipping a weight byte or scale must change the
//! correction exactly as real hardware reading the faulted value would.

use crate::qparams::{requant_channel_into, requant_rows, QParams, Requant, WMAX};
use bdlfi_faults::Repr;
use bdlfi_nn::layers::{BatchNorm2d, Conv2d, Dense};
use bdlfi_nn::Layer;
use bdlfi_tensor::scratch::{self, ScratchBuf};
use bdlfi_tensor::{qgemm, Conv2dSpec, I32Tensor, I8Tensor, Tensor};
use std::borrow::Cow;

/// One mutable integer/float storage region of a quantized op, handed to
/// fault-application visitors.
pub enum QSlice<'a> {
    /// int8 weight storage.
    I8(&'a mut [i8]),
    /// i32 bias / accumulator-domain storage.
    I32(&'a mut [i32]),
    /// f32 quantization-parameter storage.
    F32(&'a mut [f32]),
}

/// The stored representation behind a [`QSlice`] variant.
impl QSlice<'_> {
    /// The fault-model representation of this storage region.
    pub fn repr(&self) -> Repr {
        match self {
            QSlice::I8(_) => Repr::I8,
            QSlice::I32(_) => Repr::I32Accum,
            QSlice::F32(_) => Repr::F32,
        }
    }

    /// Number of stored elements.
    pub fn len(&self) -> usize {
        match self {
            QSlice::I8(s) => s.len(),
            QSlice::I32(s) => s.len(),
            QSlice::F32(s) => s.len(),
        }
    }

    /// Whether the region is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn join<'a>(path: &str, name: &'a str) -> Cow<'a, str> {
    if path.is_empty() {
        Cow::Borrowed(name)
    } else {
        Cow::Owned(format!("{path}.{name}"))
    }
}

/// Symmetric int8 weight quantization: returns the quantized values and the
/// per-tensor scale.
pub fn quantize_weights(data: &[f32]) -> (Vec<i8>, f32) {
    let max_abs = data
        .iter()
        .filter(|v| v.is_finite())
        .fold(0.0f32, |m, &v| m.max(v.abs()));
    let qp = QParams::symmetric(max_abs);
    let q = data
        .iter()
        .map(|&w| {
            ((w as f64 / qp.scale as f64).round() as i64).clamp(-(WMAX as i64), WMAX as i64) as i8
        })
        .collect();
    (q, qp.scale)
}

/// Per-channel symmetric int8 weight quantization: element `i` belongs to
/// channel `channel_of(i)` and is quantized on that channel's own max-abs
/// grid. Returns the quantized values and one scale per channel.
///
/// The index map covers both storage layouts in use: a dense `(in, out)`
/// matrix passes `|i| i % out` (channels are columns), a conv
/// `(out_c, in_c·kh·kw)` tensor passes `|i| i / per_ch` (channels are
/// contiguous rows).
pub fn quantize_weights_grouped(
    data: &[f32],
    channels: usize,
    channel_of: impl Fn(usize) -> usize,
) -> (Vec<i8>, Vec<f32>) {
    let mut max_abs = vec![0.0f32; channels];
    for (i, &v) in data.iter().enumerate() {
        if v.is_finite() {
            let m = &mut max_abs[channel_of(i)];
            *m = m.max(v.abs());
        }
    }
    let scales: Vec<f32> = max_abs
        .iter()
        .map(|&m| QParams::symmetric(m).scale)
        .collect();
    let q = data
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            let s = scales[channel_of(i)];
            ((w as f64 / s as f64).round() as i64).clamp(-(WMAX as i64), WMAX as i64) as i8
        })
        .collect();
    (q, scales)
}

fn quantize_bias(data: &[f32], in_scale: f32, w_scales: &[f32]) -> Vec<i32> {
    data.iter()
        .zip(w_scales)
        .map(|(&b, &ws)| {
            let s = in_scale as f64 * ws as f64;
            (b as f64 / s).round() as i32
        })
        .collect()
}

/// A quantized fully connected layer: int8 weight `(in, out)`, i32 bias
/// `(out,)`, per-output-column weight scales, input/output activation
/// grids.
#[derive(Debug, Clone)]
pub struct QDense {
    weight: I8Tensor,
    bias: I32Tensor,
    w_scales: Vec<f32>,
    in_qp: QParams,
    out_qp: QParams,
}

impl QDense {
    /// Quantizes a trained [`Dense`] layer given calibrated input/output
    /// activation parameters. Weights are quantized per output column.
    pub fn from_dense(layer: &Dense, in_qp: QParams, out_qp: QParams) -> Self {
        let out = layer.out_dim();
        let (qw, w_scales) = quantize_weights_grouped(layer.weight().data(), out, |i| i % out);
        let qb = quantize_bias(layer.bias().data(), in_qp.scale, &w_scales);
        QDense {
            weight: I8Tensor::from_vec(qw, [layer.in_dim(), out]),
            bias: I32Tensor::from_vec(qb, [out]),
            w_scales,
            in_qp,
            out_qp,
        }
    }

    /// The requantizers of output columns `cols`, rebuilt from the
    /// (possibly faulted) scales on every pass so a scale fault is visible
    /// exactly like hardware reading the faulted value would see it, into
    /// a scratch buffer rather than a fresh allocation.
    fn requants(&self, cols: impl ExactSizeIterator<Item = usize>) -> ScratchBuf<Requant> {
        let mut rqs = scratch::take::<Requant>(cols.len());
        for (rq, c) in rqs.iter_mut().zip(cols) {
            *rq = Requant::from_scales(self.in_qp.scale, self.w_scales[c], self.out_qp.scale);
        }
        rqs
    }

    /// Integer forward pass over a `(n, in)` f32 batch.
    pub fn forward(&self, input: &Tensor) -> Tensor {
        let n = input.dim(0);
        let k = self.weight.dim(0);
        let out = self.weight.dim(1);
        assert_eq!(input.dim(1), k, "qdense input width mismatch");

        // Campaigns run this pass thousands of times per second; the
        // quantized input and the accumulator come from the thread-local
        // scratch pools instead of fresh allocations.
        let mut qx = scratch::take::<i8>(n * k);
        self.in_qp.quantize_slice_to(input.data(), &mut qx);
        let mut acc = scratch::take::<i32>(n * out);
        qgemm(n, out, k, &qx, self.weight.data(), &mut acc);

        // Zero-point correction: Σₖ (qx−zp)·w = acc − zp·Σₖ w, recomputed
        // from the (possibly faulted) weights each pass. Accumulated in
        // i32 — exact for any i8 weights, faulted or not, since
        // |Σₖ w| ≤ k·128 ≪ 2³¹ — so the widening sums autovectorize.
        let mut colsum = scratch::take::<i32>(out);
        for row in self.weight.data().chunks_exact(out) {
            for (cs, &w) in colsum.iter_mut().zip(row) {
                *cs += w as i32;
            }
        }
        let rqs = self.requants(0..out);
        let zp_in = self.in_qp.zero_point as i64;
        let mut corrs = scratch::take::<i64>(out);
        for ((corr, &b), &cs) in corrs.iter_mut().zip(self.bias.data()).zip(colsum.iter()) {
            *corr = b as i64 - zp_in * cs as i64;
        }
        let mut y = vec![0.0; n * out];
        requant_rows(
            &acc,
            out,
            &rqs,
            &corrs,
            self.out_qp.zero_point,
            self.out_qp.scale,
            &mut y,
        );
        Tensor::from_vec(y, [n, out])
    }

    /// Output width (weight columns).
    pub fn out_dim(&self) -> usize {
        self.weight.dim(1)
    }

    /// Recomputes only the output columns `cols` of the integer forward
    /// pass into `out`, a row-major `(n, out_dim)` buffer: entry `(i, c)`
    /// for every `c` in `cols` becomes bit-identical to the same entry of
    /// [`QDense::forward`] on the same input, and every other entry is left
    /// as it was — the int8 twin of `Dense::forward_cols`.
    ///
    /// Exactness is structural here: integer accumulation is associative,
    /// the zero-point column sum, bias, weight scale and requantizer are
    /// all per-column, and the requantize/dequantize chain is per-element,
    /// so a weight byte, bias word **or weight-scale** fault perturbs
    /// exactly its own output column. (Faults on `out_zp` still reach
    /// every column through the shared output grid — callers must fall
    /// back to the full pass for those.)
    ///
    /// # Panics
    ///
    /// Panics if the input width mismatches, a column index is out of
    /// range, or `out` does not hold `n · out_dim` values.
    pub fn forward_cols(&self, input: &Tensor, cols: &[usize], out: &mut [f32]) {
        let n = input.dim(0);
        let k = self.weight.dim(0);
        let width = self.weight.dim(1);
        assert_eq!(input.dim(1), k, "qdense input width mismatch");
        assert!(cols.iter().all(|&c| c < width), "column index out of range");
        assert_eq!(out.len(), n * width, "qdense output buffer size mismatch");
        let m = cols.len();
        if m == 0 {
            return;
        }

        let mut qx = scratch::take::<i8>(n * k);
        self.in_qp.quantize_slice_to(input.data(), &mut qx);
        let mut wsub = scratch::take::<i8>(k * m);
        let mut colsum = scratch::take::<i32>(m);
        for (dst, row) in wsub
            .chunks_exact_mut(m)
            .zip(self.weight.data().chunks_exact(width))
        {
            for ((d, cs), &c) in dst.iter_mut().zip(colsum.iter_mut()).zip(cols) {
                *d = row[c];
                *cs += row[c] as i32;
            }
        }
        let mut acc = scratch::take::<i32>(n * m);
        qgemm(n, m, k, &qx, &wsub, &mut acc);

        // Gather the per-column requantizers/corrections for exactly the
        // requested columns: same constructors, same order of operations
        // as the full pass (the i32 column sum is exact either way),
        // hence bit-identical columns.
        let zp_in = self.in_qp.zero_point as i64;
        let rqs = self.requants(cols.iter().copied());
        let mut corrs = scratch::take::<i64>(m);
        for ((corr, &c), &cs) in corrs.iter_mut().zip(cols).zip(colsum.iter()) {
            *corr = self.bias.data()[c] as i64 - zp_in * cs as i64;
        }
        let mut sub = scratch::take::<f32>(n * m);
        requant_rows(
            &acc,
            m,
            &rqs,
            &corrs,
            self.out_qp.zero_point,
            self.out_qp.scale,
            &mut sub,
        );
        for (dst, row) in out.chunks_exact_mut(width).zip(sub.chunks_exact(m)) {
            for (&y, &c) in row.iter().zip(cols) {
                dst[c] = y;
            }
        }
    }

    fn visit_sites(&self, path: &str, f: &mut dyn FnMut(&str, Repr, usize)) {
        f(&join(path, "weight"), Repr::I8, self.weight.len());
        f(&join(path, "bias"), Repr::I32Accum, self.bias.len());
        f(&join(path, "w_scale"), Repr::F32, self.w_scales.len());
        f(&join(path, "out_zp"), Repr::I32Accum, 1);
    }

    fn visit_slices(&mut self, path: &str, f: &mut dyn FnMut(&str, QSlice)) {
        f(&join(path, "weight"), QSlice::I8(self.weight.data_mut()));
        f(&join(path, "bias"), QSlice::I32(self.bias.data_mut()));
        f(&join(path, "w_scale"), QSlice::F32(&mut self.w_scales));
        f(
            &join(path, "out_zp"),
            QSlice::I32(std::slice::from_mut(&mut self.out_qp.zero_point)),
        );
    }
}

/// A quantized 2-D convolution (batch-norm folded in where applicable):
/// int8 weight `(out_c, in_c, kh, kw)`, i32 bias `(out_c,)`,
/// per-output-channel weight scales.
#[derive(Debug, Clone)]
pub struct QConv {
    weight: I8Tensor,
    bias: I32Tensor,
    w_scales: Vec<f32>,
    in_qp: QParams,
    out_qp: QParams,
    spec: Conv2dSpec,
}

impl QConv {
    /// Quantizes a trained [`Conv2d`], optionally folding a following
    /// eval-mode [`BatchNorm2d`] into the weights and bias first.
    pub fn from_conv(
        layer: &Conv2d,
        bn: Option<&BatchNorm2d>,
        in_qp: QParams,
        out_qp: QParams,
    ) -> Self {
        let w = layer.weight();
        let out_c = w.dim(0);
        let per_ch = w.len() / out_c;
        let mut wf = w.data().to_vec();
        let mut bf = match layer.bias_value() {
            Some(b) => b.data().to_vec(),
            None => vec![0.0; out_c],
        };
        if let Some(bn) = bn {
            assert_eq!(bn.channels(), out_c, "bn folding channel mismatch");
            for (oc, (scale, shift)) in bn.fold_params().into_iter().enumerate() {
                for v in &mut wf[oc * per_ch..(oc + 1) * per_ch] {
                    *v *= scale;
                }
                bf[oc] = bf[oc] * scale + shift;
            }
        }
        // Channels are contiguous `per_ch`-long rows of the folded weight
        // tensor; BN folding above is exactly why per-channel scales pay
        // off — the fold multiplies each channel by its own factor.
        let (qw, w_scales) = quantize_weights_grouped(&wf, out_c, |i| i / per_ch);
        let qb = quantize_bias(&bf, in_qp.scale, &w_scales);
        QConv {
            weight: I8Tensor::from_vec(qw, w.dims().to_vec()),
            bias: I32Tensor::from_vec(qb, [out_c]),
            w_scales,
            in_qp,
            out_qp,
            spec: layer.spec(),
        }
    }

    /// Integer forward pass over an NCHW f32 batch.
    pub fn forward(&self, input: &Tensor) -> Tensor {
        let (n, c, h, w) = (input.dim(0), input.dim(1), input.dim(2), input.dim(3));
        let out_c = self.weight.dim(0);
        assert_eq!(c, self.weight.dim(1), "qconv channel mismatch");
        let (kh, kw) = self.spec.kernel;
        let (oh, ow) = self.spec.output_hw(h, w);
        let k = c * kh * kw;
        let npix = oh * ow;

        let mut qx = scratch::take::<i8>(input.len());
        self.in_qp.quantize_slice_to(input.data(), &mut qx);
        // Padding is filled with the quantized representation of real zero.
        let pad_val = self.in_qp.quantize(0.0);

        // Per-output-channel weight sums for the zero-point correction,
        // and per-channel requantizers from the (possibly faulted) scales.
        let mut rowsum = vec![0i64; out_c];
        for (oc, row) in self.weight.data().chunks_exact(k).enumerate() {
            rowsum[oc] = row.iter().map(|&v| v as i64).sum();
        }
        let rqs: Vec<Requant> = self
            .w_scales
            .iter()
            .map(|&ws| Requant::from_scales(self.in_qp.scale, ws, self.out_qp.scale))
            .collect();
        let zp_in = self.in_qp.zero_point as i64;
        let zp_out = self.out_qp.zero_point;

        let img_len = c * h * w;
        let mut col = scratch::take::<i8>(k * npix);
        let mut acc = scratch::take::<i32>(out_c * npix);
        let mut y = Vec::with_capacity(n * out_c * npix);
        for img in 0..n {
            im2col_i8(
                &qx[img * img_len..(img + 1) * img_len],
                c,
                h,
                w,
                self.spec,
                pad_val,
                &mut col,
            );
            acc.iter_mut().for_each(|v| *v = 0);
            qgemm(out_c, npix, k, self.weight.data(), &col, &mut acc);
            for oc in 0..out_c {
                let corr = self.bias.data()[oc] as i64 - zp_in * rowsum[oc];
                requant_channel_into(
                    &acc[oc * npix..(oc + 1) * npix],
                    &rqs[oc],
                    corr,
                    zp_out,
                    self.out_qp.scale,
                    &mut y,
                );
            }
        }
        Tensor::from_vec(y, [n, out_c, oh, ow])
    }

    fn visit_sites(&self, path: &str, f: &mut dyn FnMut(&str, Repr, usize)) {
        f(&join(path, "weight"), Repr::I8, self.weight.len());
        f(&join(path, "bias"), Repr::I32Accum, self.bias.len());
        f(&join(path, "w_scale"), Repr::F32, self.w_scales.len());
        f(&join(path, "out_zp"), Repr::I32Accum, 1);
    }

    fn visit_slices(&mut self, path: &str, f: &mut dyn FnMut(&str, QSlice)) {
        f(&join(path, "weight"), QSlice::I8(self.weight.data_mut()));
        f(&join(path, "bias"), QSlice::I32(self.bias.data_mut()));
        f(&join(path, "w_scale"), QSlice::F32(&mut self.w_scales));
        f(
            &join(path, "out_zp"),
            QSlice::I32(std::slice::from_mut(&mut self.out_qp.zero_point)),
        );
    }
}

/// int8 im2col over one CHW image into a `(c·kh·kw, oh·ow)` row-major
/// matrix, mirroring the f32 layout in `bdlfi_tensor::ops::conv`. Padded
/// positions are filled with `pad_val` (the quantized zero).
fn im2col_i8(
    img: &[i8],
    c: usize,
    h: usize,
    w: usize,
    spec: Conv2dSpec,
    pad_val: i8,
    out: &mut [i8],
) {
    let (kh, kw) = spec.kernel;
    let (sh, sw) = spec.stride;
    let (ph, pw) = spec.padding;
    let (oh, ow) = spec.output_hw(h, w);
    let npix = oh * ow;
    debug_assert_eq!(out.len(), c * kh * kw * npix);
    for ci in 0..c {
        for ki in 0..kh {
            for kj in 0..kw {
                let row = (ci * kh + ki) * kw + kj;
                let dst = &mut out[row * npix..(row + 1) * npix];
                let mut idx = 0usize;
                for oy in 0..oh {
                    let iy = (oy * sh + ki) as isize - ph as isize;
                    if iy < 0 || iy >= h as isize {
                        dst[idx..idx + ow].fill(pad_val);
                        idx += ow;
                        continue;
                    }
                    let base = (ci * h + iy as usize) * w;
                    for ox in 0..ow {
                        let ix = (ox * sw + kj) as isize - pw as isize;
                        dst[idx] = if ix < 0 || ix >= w as isize {
                            pad_val
                        } else {
                            img[base + ix as usize]
                        };
                        idx += 1;
                    }
                }
            }
        }
    }
}

fn relu_inplace(t: &mut Tensor) {
    for v in t.data_mut() {
        *v = v.max(0.0);
    }
}

/// A quantized ResNet basic block: both 3×3 convolutions carry their batch
/// norms folded in; the element-wise add and ReLUs run in f32 at op
/// boundaries (QDQ contract).
#[derive(Debug, Clone)]
pub struct QBlock {
    /// First folded convolution (`conv1`+`bn1`).
    pub conv1: QConv,
    /// Second folded convolution (`conv2`+`bn2`).
    pub conv2: QConv,
    /// Folded projection shortcut (`down_conv`+`down_bn`), if the block
    /// projects.
    pub down: Option<QConv>,
}

impl QBlock {
    /// Forward pass mirroring
    /// `relu(bn2(conv2(relu(bn1(conv1(x))))) + shortcut(x))` with the batch
    /// norms folded into the integer convolutions.
    pub fn forward(&self, input: &Tensor) -> Tensor {
        let mut h = self.conv1.forward(input);
        relu_inplace(&mut h);
        let z = self.conv2.forward(&h);
        let shortcut = match &self.down {
            Some(d) => d.forward(input),
            None => input.clone(),
        };
        let mut out = z.add_t(&shortcut);
        relu_inplace(&mut out);
        out
    }

    fn visit_sites(&self, path: &str, f: &mut dyn FnMut(&str, Repr, usize)) {
        self.conv1.visit_sites(&join(path, "conv1"), f);
        self.conv2.visit_sites(&join(path, "conv2"), f);
        if let Some(d) = &self.down {
            d.visit_sites(&join(path, "down_conv"), f);
        }
    }

    fn visit_slices(&mut self, path: &str, f: &mut dyn FnMut(&str, QSlice)) {
        self.conv1.visit_slices(&join(path, "conv1"), f);
        self.conv2.visit_slices(&join(path, "conv2"), f);
        if let Some(d) = &mut self.down {
            d.visit_slices(&join(path, "down_conv"), f);
        }
    }
}

/// One pipeline stage of a [`crate::QuantModel`], mirroring the source
/// [`bdlfi_nn::Sequential`]'s top-level layers one-to-one so prefix-cache
/// cut indices line up between the f32 and int8 graphs.
pub enum QOp {
    /// Quantized dense layer.
    Dense(QDense),
    /// Quantized convolution (possibly with a folded batch norm).
    Conv(QConv),
    /// Quantized residual block.
    Block(Box<QBlock>),
    /// A batch norm that was folded into the preceding convolution: the
    /// stage passes its input through unchanged.
    Identity,
    /// A layer with no integer kernel (ReLU, pooling, flatten, softmax, …)
    /// running in f32 exactly as in the source model.
    Float(Box<dyn Layer>),
}

impl Clone for QOp {
    fn clone(&self) -> Self {
        match self {
            QOp::Dense(d) => QOp::Dense(d.clone()),
            QOp::Conv(c) => QOp::Conv(c.clone()),
            QOp::Block(b) => QOp::Block(b.clone()),
            QOp::Identity => QOp::Identity,
            QOp::Float(l) => QOp::Float(l.clone_box()),
        }
    }
}

impl std::fmt::Debug for QOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QOp::Dense(_) => write!(f, "QOp::Dense"),
            QOp::Conv(_) => write!(f, "QOp::Conv"),
            QOp::Block(b) => write!(f, "QOp::Block(projection={})", b.down.is_some()),
            QOp::Identity => write!(f, "QOp::Identity"),
            QOp::Float(l) => write!(f, "QOp::Float({})", l.kind()),
        }
    }
}

impl QOp {
    /// Short machine-readable stage kind.
    pub fn kind(&self) -> &'static str {
        match self {
            QOp::Dense(_) => "qdense",
            QOp::Conv(_) => "qconv",
            QOp::Block(_) => "qblock",
            QOp::Identity => "identity",
            QOp::Float(_) => "float",
        }
    }

    /// The stage as a quantized dense layer, when it is one — the only
    /// stage kind the sparse-delta evaluator handles natively (every other
    /// kind fans a single-site fault out across channels, so callers fall
    /// back to the exact full pass).
    pub fn as_dense(&self) -> Option<&QDense> {
        match self {
            QOp::Dense(d) => Some(d),
            _ => None,
        }
    }

    /// Runs the stage on an f32 boundary tensor.
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        match self {
            QOp::Dense(d) => d.forward(input),
            QOp::Conv(c) => c.forward(input),
            QOp::Block(b) => b.forward(input),
            QOp::Identity => input.clone(),
            QOp::Float(l) => l.forward(input, &mut bdlfi_nn::ForwardCtx::new(bdlfi_nn::Mode::Eval)),
        }
    }

    /// Enumerates the stage's fault sites as `(path, repr, len)`.
    pub fn visit_sites(&self, path: &str, f: &mut dyn FnMut(&str, Repr, usize)) {
        match self {
            QOp::Dense(d) => d.visit_sites(path, f),
            QOp::Conv(c) => c.visit_sites(path, f),
            QOp::Block(b) => b.visit_sites(path, f),
            QOp::Identity | QOp::Float(_) => {}
        }
    }

    /// Visits the stage's mutable storage regions for fault application.
    pub fn visit_slices(&mut self, path: &str, f: &mut dyn FnMut(&str, QSlice)) {
        match self {
            QOp::Dense(d) => d.visit_slices(path, f),
            QOp::Conv(c) => c.visit_slices(path, f),
            QOp::Block(b) => b.visit_slices(path, f),
            QOp::Identity | QOp::Float(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdlfi_nn::layers::Relu;
    use bdlfi_nn::{ForwardCtx, Mode};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn approx_qparams(t: &Tensor) -> QParams {
        let min = t.data().iter().cloned().fold(f32::INFINITY, f32::min);
        let max = t.data().iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        QParams::from_range(min, max)
    }

    #[test]
    fn qdense_tracks_float_dense_within_quant_error() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut d = Dense::new(6, 4, &mut rng);
        let x = Tensor::rand_normal([8, 6], 0.0, 1.0, &mut rng);
        let want = d.forward(&x, &mut ForwardCtx::new(Mode::Eval));
        let qd = QDense::from_dense(&d, approx_qparams(&x), approx_qparams(&want));
        let got = qd.forward(&x);
        assert_eq!(got.dims(), want.dims());
        let span = {
            let min = want.data().iter().cloned().fold(f32::INFINITY, f32::min);
            let max = want
                .data()
                .iter()
                .cloned()
                .fold(f32::NEG_INFINITY, f32::max);
            max - min
        };
        for (g, w) in got.data().iter().zip(want.data()) {
            // Worst-case error of an 8-bit grid plus accumulation slack.
            assert!((g - w).abs() <= span * 0.05 + 0.05, "{g} vs {w}");
        }
    }

    #[test]
    fn qconv_tracks_float_conv_within_quant_error() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut c = Conv2d::new(3, 5, Conv2dSpec::new(3).with_padding(1), &mut rng);
        let x = Tensor::rand_normal([2, 3, 6, 6], 0.0, 1.0, &mut rng);
        let want = c.forward(&x, &mut ForwardCtx::new(Mode::Eval));
        let qc = QConv::from_conv(&c, None, approx_qparams(&x), approx_qparams(&want));
        let got = qc.forward(&x);
        assert_eq!(got.dims(), want.dims());
        let span = {
            let min = want.data().iter().cloned().fold(f32::INFINITY, f32::min);
            let max = want
                .data()
                .iter()
                .cloned()
                .fold(f32::NEG_INFINITY, f32::max);
            max - min
        };
        for (g, w) in got.data().iter().zip(want.data()) {
            assert!((g - w).abs() <= span * 0.05 + 0.05, "{g} vs {w}");
        }
    }

    #[test]
    fn bn_folding_matches_conv_then_bn() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut c = Conv2d::without_bias(2, 4, Conv2dSpec::new(3).with_padding(1), &mut rng);
        let mut bn = BatchNorm2d::new(4);
        // Give the batch norm non-trivial running statistics.
        let warm = Tensor::rand_normal([4, 4, 5, 5], 0.3, 1.5, &mut rng);
        bn.forward(&warm, &mut ForwardCtx::new(Mode::Train));
        let x = Tensor::rand_normal([2, 2, 5, 5], 0.0, 1.0, &mut rng);
        let mid = c.forward(&x, &mut ForwardCtx::new(Mode::Eval));
        let want = bn.forward(&mid, &mut ForwardCtx::new(Mode::Eval));
        let qc = QConv::from_conv(&c, Some(&bn), approx_qparams(&x), approx_qparams(&want));
        let got = qc.forward(&x);
        let span = {
            let min = want.data().iter().cloned().fold(f32::INFINITY, f32::min);
            let max = want
                .data()
                .iter()
                .cloned()
                .fold(f32::NEG_INFINITY, f32::max);
            max - min
        };
        for (g, w) in got.data().iter().zip(want.data()) {
            assert!((g - w).abs() <= span * 0.05 + 0.05, "{g} vs {w}");
        }
    }

    #[test]
    fn im2col_i8_matches_naive_gather() {
        let spec = Conv2dSpec::new(3).with_padding(1).with_stride(2);
        let (c, h, w) = (2usize, 5usize, 5usize);
        let img: Vec<i8> = (0..(c * h * w) as i32)
            .map(|v| (v % 120) as i8 - 50)
            .collect();
        let (oh, ow) = spec.output_hw(h, w);
        let k = c * 9;
        let mut col = vec![0i8; k * oh * ow];
        im2col_i8(&img, c, h, w, spec, -7, &mut col);
        for ci in 0..c {
            for ki in 0..3 {
                for kj in 0..3 {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let iy = (oy * 2 + ki) as isize - 1;
                            let ix = (ox * 2 + kj) as isize - 1;
                            let want = if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                                -7
                            } else {
                                img[(ci * h + iy as usize) * w + ix as usize]
                            };
                            let row = (ci * 3 + ki) * 3 + kj;
                            let got = col[row * (oh * ow) + oy * ow + ox];
                            assert_eq!(got, want);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn qop_sites_enumerate_all_representations() {
        let mut rng = StdRng::seed_from_u64(3);
        let d = Dense::new(3, 2, &mut rng);
        let op = QOp::Dense(QDense::from_dense(&d, QParams::unit(), QParams::unit()));
        let mut sites = Vec::new();
        op.visit_sites("fc1", &mut |p, r, l| sites.push((p.to_string(), r, l)));
        assert_eq!(
            sites,
            vec![
                ("fc1.weight".into(), Repr::I8, 6),
                ("fc1.bias".into(), Repr::I32Accum, 2),
                // One weight scale per output column now.
                ("fc1.w_scale".into(), Repr::F32, 2),
                ("fc1.out_zp".into(), Repr::I32Accum, 1),
            ]
        );
    }

    #[test]
    fn per_channel_scales_follow_each_channels_magnitude() {
        // One huge column must not dilate the grid of the small column.
        let data = [10.0f32, 0.01, -20.0, 0.02, 5.0, -0.015];
        let (q, scales) = quantize_weights_grouped(&data, 2, |i| i % 2);
        assert_eq!(scales.len(), 2);
        assert!((scales[0] - 20.0 / 127.0).abs() < 1e-6);
        assert!((scales[1] - 0.02 / 127.0).abs() < 1e-7);
        // The small channel keeps full resolution on its own grid
        // (step ≈ 0.000157); per-tensor it would share the 20.0-channel's
        // grid (step ≈ 0.157) and collapse to 0.
        assert_eq!(q[1], 63); // 0.01 / (0.02/127) ≈ 63.5 (just under, in f32)
        assert_eq!(q[3], 127);
        assert_eq!(q[5], -95);
    }

    #[test]
    fn w_scale_fault_is_confined_to_its_column() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut d = Dense::new(6, 4, &mut rng);
        let x = Tensor::rand_normal([5, 6], 0.0, 1.0, &mut rng);
        let want = d.forward(&x, &mut ForwardCtx::new(Mode::Eval));
        let mut qd = QDense::from_dense(&d, approx_qparams(&x), approx_qparams(&want));
        let golden = qd.forward(&x);
        // Corrupt the scale of column 2 only.
        qd.visit_slices("fc", &mut |p, s| {
            if p == "fc.w_scale" {
                if let QSlice::F32(ws) = s {
                    ws[2] *= 64.0;
                }
            }
        });
        let faulted = qd.forward(&x);
        let mut changed = [false; 4];
        for (g, f) in golden.data().chunks(4).zip(faulted.data().chunks(4)) {
            for j in 0..4 {
                if g[j].to_bits() != f[j].to_bits() {
                    changed[j] = true;
                }
            }
        }
        assert!(changed[2], "the faulted column must actually change");
        assert_eq!(&changed[..2], &[false, false], "fault leaked to column");
        assert!(!changed[3], "fault leaked to column 3");
        // And forward_cols stays bit-identical per column under the fault,
        // writing only the requested columns of the golden copy.
        let mut patched = golden.clone();
        qd.forward_cols(&x, &[1, 2], patched.data_mut());
        for i in 0..5 {
            for j in 0..4 {
                let want = if j == 1 || j == 2 { &faulted } else { &golden };
                assert_eq!(
                    patched.data()[i * 4 + j].to_bits(),
                    want.data()[i * 4 + j].to_bits(),
                    "row {i} col {j}"
                );
            }
        }
    }

    #[test]
    fn float_op_wraps_unquantized_layers() {
        let mut op = QOp::Float(Box::new(Relu::new()));
        let x = Tensor::from_vec(vec![-1.0, 2.0], [1, 2]);
        assert_eq!(op.forward(&x).data(), &[0.0, 2.0]);
        let mut count = 0;
        op.visit_sites("r", &mut |_, _, _| count += 1);
        assert_eq!(count, 0);
    }
}
