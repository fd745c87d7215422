//! The calibrated [`QuantModel`]: post-training quantization of a trained
//! [`Sequential`], quantized inference, fault-site enumeration and the
//! quantized prefix cache.

use crate::observer::{Observer, ObserverKind};
use crate::qops::{QBlock, QConv, QDense, QOp, QSlice};
use bdlfi_faults::{FaultConfig, ParamSite, ResolvedSites, SiteSpec};
use bdlfi_nn::layers::{BasicBlock, BatchNorm2d, Conv2d, Dense};
use bdlfi_nn::{predict_batched, Sequential};
use bdlfi_tensor::Tensor;
use std::collections::HashMap;

/// How calibration runs: the batch size of the observation sweep and the
/// range statistic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibConfig {
    /// Batch size of the calibration forward passes.
    pub batch_size: usize,
    /// Range estimator fed by the activation taps.
    pub observer: ObserverKind,
}

impl Default for CalibConfig {
    fn default() -> Self {
        CalibConfig {
            batch_size: 32,
            observer: ObserverKind::MinMax,
        }
    }
}

/// A post-training-quantized network: one [`QOp`] per top-level layer of
/// the source [`Sequential`], same names, same order.
///
/// Keeping the stage list aligned one-to-one with the f32 model means a
/// fault site's *op index* (first dotted path component) is directly a
/// prefix-cache cut point, exactly as in the f32 campaign path.
#[derive(Debug, Clone)]
pub struct QuantModel {
    ops: Vec<(String, QOp)>,
}

/// Calibrates and quantizes a trained model.
///
/// Runs the f32 model over `calib_inputs` once, observing every activation
/// tap (and the network input, tapped at the empty path), then walks the
/// top-level layers:
///
/// * [`Dense`] → [`QDense`] (symmetric int8 weights, i32 bias);
/// * [`Conv2d`] directly followed by a [`BatchNorm2d`] → folded [`QConv`],
///   with the batch norm's stage becoming [`QOp::Identity`];
/// * [`BasicBlock`] → [`QBlock`] with both (and the projection's) batch
///   norms folded;
/// * anything else → [`QOp::Float`], running the original f32 layer.
///
/// # Panics
///
/// Panics if `calib_inputs` is empty or the batch size is zero.
pub fn quantize_model(model: &Sequential, calib_inputs: &Tensor, cfg: &CalibConfig) -> QuantModel {
    // Observation sweep over the calibration split.
    let mut observers: HashMap<String, Observer> = HashMap::new();
    let kind = cfg.observer;
    let mut m = model.clone();
    predict_batched(&mut m, calib_inputs, cfg.batch_size, &mut |path, t| {
        observers
            .entry(path.to_string())
            .or_insert_with(|| Observer::new(kind))
            .observe(t);
    });
    let qp = |key: &str| {
        observers
            .get(key)
            .map(Observer::qparams)
            .unwrap_or_else(crate::qparams::QParams::unit)
    };

    let mut ops: Vec<(String, QOp)> = Vec::with_capacity(model.len());
    let mut fold_next_bn = false;
    for i in 0..model.len() {
        let (name, layer) = model.layer_at(i);
        // The boundary tensor feeding this stage is the previous top-level
        // layer's tapped output ("" is the network input).
        let in_key = if i == 0 {
            String::new()
        } else {
            model.layer_at(i - 1).0.to_string()
        };

        if fold_next_bn {
            fold_next_bn = false;
            ops.push((name.to_string(), QOp::Identity));
            continue;
        }

        let any = layer.as_any();
        let op = if let Some(d) = any.and_then(|a| a.downcast_ref::<Dense>()) {
            QOp::Dense(QDense::from_dense(d, qp(&in_key), qp(name)))
        } else if let Some(c) = any.and_then(|a| a.downcast_ref::<Conv2d>()) {
            // Fold a directly following batch norm into the convolution.
            let bn = (i + 1 < model.len())
                .then(|| model.layer_at(i + 1))
                .and_then(|(bn_name, bn_layer)| {
                    bn_layer
                        .as_any()
                        .and_then(|a| a.downcast_ref::<BatchNorm2d>())
                        .map(|bn| (bn_name, bn))
                });
            match bn {
                Some((bn_name, bn)) => {
                    fold_next_bn = true;
                    QOp::Conv(QConv::from_conv(c, Some(bn), qp(&in_key), qp(bn_name)))
                }
                None => QOp::Conv(QConv::from_conv(c, None, qp(&in_key), qp(name))),
            }
        } else if let Some(b) = any.and_then(|a| a.downcast_ref::<BasicBlock>()) {
            let tap = |child: &str| format!("{name}.{child}");
            let conv1 = QConv::from_conv(b.conv1(), Some(b.bn1()), qp(&in_key), qp(&tap("bn1")));
            let conv2 =
                QConv::from_conv(b.conv2(), Some(b.bn2()), qp(&tap("relu1")), qp(&tap("bn2")));
            let down = b
                .downsample()
                .map(|(dc, dbn)| QConv::from_conv(dc, Some(dbn), qp(&in_key), qp(&tap("down_bn"))));
            QOp::Block(Box::new(QBlock { conv1, conv2, down }))
        } else {
            QOp::Float(layer.clone_box())
        };
        ops.push((name.to_string(), op));
    }
    QuantModel { ops }
}

impl QuantModel {
    /// Number of pipeline stages (equals the source model's top-level layer
    /// count).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the model has no stages.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Stage names, in order (identical to the source model's layer names).
    pub fn op_names(&self) -> Vec<String> {
        self.ops.iter().map(|(n, _)| n.clone()).collect()
    }

    /// Stage kinds, in order (e.g. `"qconv"`, `"identity"`, `"float"`).
    pub fn op_kinds(&self) -> Vec<&'static str> {
        self.ops.iter().map(|(_, op)| op.kind()).collect()
    }

    /// Eval forward pass over one f32 batch.
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        self.forward_from(0, input)
    }

    /// Forward pass resumed at stage `start` on a cached boundary tensor —
    /// the quantized twin of [`Sequential::forward_from`]. Integer kernels
    /// accumulate exactly and every stage computes each example
    /// independently of its batch, so resumed runs are bit-identical to
    /// cold runs.
    ///
    /// # Panics
    ///
    /// Panics if `start > len()`.
    pub fn forward_from(&mut self, start: usize, input: &Tensor) -> Tensor {
        assert!(
            start <= self.ops.len(),
            "forward_from: start {start} beyond {} stages",
            self.ops.len()
        );
        let mut x: Option<Tensor> = None;
        for (_, op) in &mut self.ops[start..] {
            x = Some(op.forward(x.as_ref().unwrap_or(input)));
        }
        x.unwrap_or_else(|| input.clone())
    }

    /// The stage at index `i` as `(name, op)` — read access for structural
    /// walkers (e.g. the sparse-delta planner).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn op_at(&self, i: usize) -> (&str, &QOp) {
        let (name, op) = &self.ops[i];
        (name.as_str(), op)
    }

    /// Runs exactly one stage on `input` — the per-stage building block the
    /// sparse-delta evaluator steps with. Bit-identical to that stage's
    /// step inside [`QuantModel::forward_from`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn forward_one(&mut self, i: usize, input: &Tensor) -> Tensor {
        let (_, op) = &mut self.ops[i];
        op.forward(input)
    }

    /// Batched inference over `inputs` in chunks of `batch_size`,
    /// concatenating the logits — the quantized twin of
    /// [`bdlfi_nn::predict_all`].
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty or `batch_size == 0`.
    pub fn predict_all(&mut self, inputs: &Tensor, batch_size: usize) -> Tensor {
        let n = inputs.dim(0);
        assert!(n > 0, "predict_all needs at least one example");
        assert!(batch_size > 0, "batch size must be positive");
        let example_len = inputs.len() / n;
        let mut out: Vec<f32> = Vec::new();
        let mut classes = 0;
        let mut i = 0usize;
        while i < n {
            let end = (i + batch_size).min(n);
            let mut dims = inputs.dims().to_vec();
            dims[0] = end - i;
            let bx = Tensor::from_vec(
                inputs.data()[i * example_len..end * example_len].to_vec(),
                dims,
            );
            let logits = self.forward(&bx);
            classes = logits.dim(1);
            out.extend_from_slice(logits.data());
            i = end;
        }
        Tensor::from_vec(out, [n, classes])
    }

    /// Enumerates every fault site of the quantized network with its stored
    /// representation: int8 weight bytes, i32 bias words, f32 weight
    /// scales, i32 output zero-points.
    pub fn sites(&self) -> ResolvedSites {
        let mut params = Vec::new();
        for (name, op) in &self.ops {
            op.visit_sites(name, &mut |path, repr, len| {
                params.push(ParamSite::with_repr(path, len, repr));
            });
        }
        ResolvedSites {
            params,
            activations: Vec::new(),
            input: false,
        }
    }

    /// Resolves a [`SiteSpec`] against the quantized network's fault sites
    /// — the quantized twin of [`bdlfi_faults::resolve_sites`]. Layer
    /// prefixes match whole dotted path components, so `"fc1"` scopes to
    /// `fc1.weight`, `fc1.bias`, `fc1.w_scale` and `fc1.out_zp`.
    ///
    /// # Panics
    ///
    /// Panics if the spec selects activation or input sites (quantized
    /// storage holds parameters only), or if it matches no site.
    pub fn sites_matching(&self, spec: &SiteSpec) -> ResolvedSites {
        let all = self.sites().params;
        let params = match spec {
            SiteSpec::AllParams => all,
            SiteSpec::LayerParams { prefix } => {
                let matched: Vec<ParamSite> = all
                    .into_iter()
                    .filter(|s| s.path == *prefix || s.path.starts_with(&format!("{prefix}.")))
                    .collect();
                assert!(
                    !matched.is_empty(),
                    "no parameters under layer prefix {prefix:?}"
                );
                matched
            }
            SiteSpec::Params(paths) => paths
                .iter()
                .map(|want| {
                    all.iter()
                        .find(|s| s.path == *want)
                        .cloned()
                        // bdlfi-lint: allow(BD010) -- spec-resolution boundary: reports the offending path before any campaign state exists
                        .unwrap_or_else(|| panic!("unknown parameter path {want:?}"))
                })
                .collect(),
            SiteSpec::Activations(_) | SiteSpec::Input => {
                // bdlfi-lint: allow(BD010) -- spec-resolution boundary: quant campaigns reject non-parameter sites before any state exists
                panic!("quantized models expose parameter fault sites only")
            }
        };
        ResolvedSites {
            params,
            activations: Vec::new(),
            input: false,
        }
    }

    /// Visits every mutable storage region for fault application.
    pub fn visit_slices(&mut self, f: &mut dyn FnMut(&str, QSlice)) {
        for (name, op) in &mut self.ops {
            op.visit_slices(name, f);
        }
    }

    /// XORs a fault configuration into the quantized storage, dispatching
    /// each mask by the representation of the site it lands on. Applying it
    /// a second time restores the model exactly (XOR involution in every
    /// representation).
    ///
    /// # Panics
    ///
    /// Panics if a mask indexes beyond its storage region.
    pub fn apply(&mut self, cfg: &FaultConfig) {
        // Each mask visits only its own stage, by the site's path relative
        // to the stage: runs twice per evaluation, so it builds no paths.
        for (path, mask) in cfg.masks() {
            let Some(i) = self.op_index_of_site(path) else {
                continue;
            };
            let (name, op) = &mut self.ops[i];
            let Some(field) = path
                .strip_prefix(name.as_str())
                .and_then(|r| r.strip_prefix('.'))
            else {
                continue;
            };
            op.visit_slices("", &mut |p, slice| {
                if p != field {
                    return;
                }
                match slice {
                    QSlice::I8(s) => mask.apply_slice_i8(s),
                    QSlice::I32(s) => mask.apply_slice_i32(s),
                    QSlice::F32(s) => mask.apply_slice(s),
                }
            });
        }
    }

    /// Index of the shallowest stage a configuration corrupts, or `None`
    /// for a clean configuration. Masks at unknown paths conservatively map
    /// to stage 0 (full re-run).
    pub fn first_dirty_op(&self, cfg: &FaultConfig) -> Option<usize> {
        cfg.affected_paths()
            .iter()
            .map(|path| self.op_index_of_site(path).unwrap_or(0))
            .min()
    }

    /// Index of the stage owning the site at `path` (first dotted component
    /// matched against stage names).
    pub fn op_index_of_site(&self, path: &str) -> Option<usize> {
        let head = path.split('.').next().unwrap_or(path);
        self.ops.iter().position(|(n, _)| n == head)
    }

    /// A human-readable table of the pipeline: stage names, kinds and site
    /// sizes.
    pub fn describe(&self) -> String {
        let mut out = String::from("stage            kind       fault sites\n");
        for (name, op) in &self.ops {
            let mut bits = 0u64;
            op.visit_sites(name, &mut |_, repr, len| {
                bits += len as u64 * u64::from(repr.width());
            });
            out.push_str(&format!("{name:<16} {:<10} {bits} bits\n", op.kind()));
        }
        out
    }
}

/// Golden boundary activations of a *quantized* model over a fixed
/// evaluation set — the int8 twin of [`bdlfi_nn::PrefixCache`].
///
/// Stages before the first fault-dirtied one compute on clean quantized
/// storage, so their f32 boundary outputs are bit-identical to the golden
/// run; evaluating a fault configuration costs only the suffix from its
/// first dirty stage.
pub struct QPrefixCache {
    /// `batches[b][l]` = golden boundary tensor feeding stage `l` of batch
    /// `b` (`[0]` is the batch input, the last entry the golden logits).
    batches: Vec<Vec<Tensor>>,
    stages: usize,
    examples: usize,
    classes: usize,
}

impl std::fmt::Debug for QPrefixCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QPrefixCache")
            .field("batches", &self.batches.len())
            .field("stages", &self.stages)
            .field("examples", &self.examples)
            .field("classes", &self.classes)
            .finish()
    }
}

impl QPrefixCache {
    /// Runs the (clean) quantized model over `inputs` in chunks of
    /// `batch_size`, recording every stage boundary.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty or `batch_size == 0`.
    pub fn build(model: &mut QuantModel, inputs: &Tensor, batch_size: usize) -> Self {
        let n = inputs.dim(0);
        assert!(n > 0, "QPrefixCache needs at least one example");
        assert!(batch_size > 0, "batch size must be positive");
        let stages = model.len();
        let example_len = inputs.len() / n;
        let mut batches = Vec::new();
        let mut classes = 0;
        let mut i = 0usize;
        while i < n {
            let end = (i + batch_size).min(n);
            let mut dims = inputs.dims().to_vec();
            dims[0] = end - i;
            let bx = Tensor::from_vec(
                inputs.data()[i * example_len..end * example_len].to_vec(),
                dims,
            );
            let mut boundary = Vec::with_capacity(stages + 1);
            boundary.push(bx);
            for s in 0..stages {
                let next = {
                    let x = &boundary[s];
                    let (_, op) = &mut model.ops[s];
                    op.forward(x)
                };
                boundary.push(next);
            }
            classes = boundary[stages].dim(1);
            batches.push(boundary);
            i = end;
        }
        QPrefixCache {
            batches,
            stages,
            examples: n,
            classes,
        }
    }

    /// Number of cached evaluation examples.
    pub fn examples(&self) -> usize {
        self.examples
    }

    /// Number of logit columns of the cached model.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Number of cached batches.
    pub fn num_batches(&self) -> usize {
        self.batches.len()
    }

    /// The golden boundary tensor feeding stage `l` of batch `b` (`l == 0`
    /// is the batch input; `l == stages` the golden logits) — read access
    /// for the sparse-delta evaluator.
    ///
    /// # Panics
    ///
    /// Panics if `b` or `l` is out of range.
    pub fn boundary(&self, b: usize, l: usize) -> &Tensor {
        &self.batches[b][l]
    }

    /// The golden logits over the whole evaluation set.
    pub fn golden_logits(&self) -> Tensor {
        let mut out = Vec::with_capacity(self.examples * self.classes);
        for boundary in &self.batches {
            out.extend_from_slice(boundary[self.stages].data());
        }
        Tensor::from_vec(out, [self.examples, self.classes])
    }

    /// Evaluates `model` (typically with faults applied) over the cached
    /// set, re-running only stages `start..`. `start == len` returns the
    /// golden logits outright.
    ///
    /// # Panics
    ///
    /// Panics if `model` has a different stage count than the cached one or
    /// `start` exceeds it.
    pub fn predict_from(&self, model: &mut QuantModel, start: usize) -> Tensor {
        assert_eq!(
            model.len(),
            self.stages,
            "model shape differs from cached model"
        );
        if start == self.stages {
            return self.golden_logits();
        }
        let mut out = Vec::with_capacity(self.examples * self.classes);
        for boundary in &self.batches {
            let logits = model.forward_from(start, &boundary[start]);
            out.extend_from_slice(logits.data());
        }
        Tensor::from_vec(out, [self.examples, self.classes])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdlfi_faults::{BernoulliBitFlip, BitRange, FaultMask, Repr};
    use bdlfi_nn::{mlp, predict_all, resnet18, ResNetConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    fn calibrated_mlp(seed: u64) -> (Sequential, QuantModel, Tensor) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = mlp(4, &[8, 6], 3, &mut rng);
        let calib = Tensor::rand_normal([32, 4], 0.0, 1.0, &mut rng);
        let qm = quantize_model(&m, &calib, &CalibConfig::default());
        let eval = Tensor::rand_normal([10, 4], 0.0, 1.0, &mut rng);
        (m, qm, eval)
    }

    #[test]
    fn quantized_mlp_mirrors_source_structure() {
        let (m, qm, _) = calibrated_mlp(0);
        assert_eq!(qm.len(), m.len());
        assert_eq!(qm.op_names(), m.layer_names());
        assert_eq!(
            qm.op_kinds(),
            vec!["qdense", "float", "qdense", "float", "qdense"]
        );
    }

    #[test]
    fn quantized_mlp_agrees_with_f32_top1() {
        let (mut m, mut qm, eval) = calibrated_mlp(1);
        let f_logits = predict_all(&mut m, &eval, 4);
        let q_logits = qm.predict_all(&eval, 4);
        assert_eq!(f_logits.dims(), q_logits.dims());
        let agree = (0..eval.dim(0))
            .filter(|&i| {
                let row = |t: &Tensor| {
                    let c = t.dim(1);
                    (0..c)
                        .max_by(|&a, &b| {
                            t.data()[i * c + a]
                                .partial_cmp(&t.data()[i * c + b])
                                .unwrap()
                        })
                        .unwrap()
                };
                row(&f_logits) == row(&q_logits)
            })
            .count();
        // int8 PTQ on a small MLP should agree on most examples.
        assert!(agree >= 8, "only {agree}/10 top-1 agreement");
    }

    #[test]
    fn sites_enumerate_quantized_storage() {
        let (_, qm, _) = calibrated_mlp(2);
        let sites = qm.sites();
        let paths: Vec<&str> = sites.params.iter().map(|p| p.path.as_str()).collect();
        assert!(paths.contains(&"fc1.weight"));
        assert!(paths.contains(&"fc2.bias"));
        assert!(paths.contains(&"fc3.w_scale"));
        assert!(paths.contains(&"fc1.out_zp"));
        let w = sites
            .params
            .iter()
            .find(|p| p.path == "fc1.weight")
            .unwrap();
        assert_eq!(w.repr, Repr::I8);
        assert_eq!(w.len, 4 * 8);
        let b = sites.params.iter().find(|p| p.path == "fc1.bias").unwrap();
        assert_eq!(b.repr, Repr::I32Accum);
    }

    #[test]
    fn sites_matching_scopes_like_resolve_sites() {
        let (_, qm, _) = calibrated_mlp(9);
        let all = qm.sites_matching(&SiteSpec::AllParams);
        assert_eq!(all, qm.sites());

        let scoped = qm.sites_matching(&SiteSpec::LayerParams {
            prefix: "fc2".into(),
        });
        assert!(!scoped.params.is_empty());
        assert!(scoped.params.iter().all(|s| s.path.starts_with("fc2.")));

        let picked = qm.sites_matching(&SiteSpec::Params(vec!["fc1.weight".into()]));
        assert_eq!(picked.params.len(), 1);
        assert_eq!(picked.params[0].repr, Repr::I8);

        let missing = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            qm.sites_matching(&SiteSpec::LayerParams {
                prefix: "nope".into(),
            })
        }));
        assert!(missing.is_err());
    }

    #[test]
    fn apply_twice_restores_quantized_model() {
        let (_, mut qm, eval) = calibrated_mlp(3);
        let sites = qm.sites();
        let mut rng = StdRng::seed_from_u64(7);
        let fm = BernoulliBitFlip::with_bits(0.02, BitRange::all_for(Repr::I8));
        let cfg = FaultConfig::sample(&sites.params, &fm, &mut rng);
        assert!(!cfg.is_clean());
        let golden = qm.predict_all(&eval, 4);
        qm.apply(&cfg);
        let faulty = qm.predict_all(&eval, 4);
        qm.apply(&cfg);
        let restored = qm.predict_all(&eval, 4);
        assert_eq!(bits(&golden), bits(&restored));
        // With ~2% of weight bits flipped the outputs almost surely moved.
        assert_ne!(bits(&golden), bits(&faulty));
    }

    #[test]
    fn prefix_cache_resume_is_bitwise_identical() {
        let (_, mut qm, eval) = calibrated_mlp(4);
        let cache = QPrefixCache::build(&mut qm, &eval, 4);
        assert_eq!(
            bits(&cache.golden_logits()),
            bits(&qm.predict_all(&eval, 4))
        );

        for path in ["fc1.weight", "fc2.bias", "fc3.weight", "fc2.w_scale"] {
            let mut cfg = FaultConfig::clean();
            let mut mask = FaultMask::empty();
            mask.push_bit(0, 2);
            cfg.set_mask(path, mask);
            let start = qm.first_dirty_op(&cfg).unwrap();
            assert_eq!(start, qm.op_index_of_site(path).unwrap());
            qm.apply(&cfg);
            let cold = qm.predict_all(&eval, 4);
            let warm = cache.predict_from(&mut qm, start);
            assert_eq!(bits(&cold), bits(&warm), "cut at {path} (stage {start})");
            qm.apply(&cfg);
        }
        // Clean fast path.
        let len = qm.len();
        assert_eq!(
            bits(&cache.predict_from(&mut qm, len)),
            bits(&cache.golden_logits())
        );
    }

    #[test]
    fn quantized_resnet_folds_batchnorms() {
        let mut rng = StdRng::seed_from_u64(5);
        let m = resnet18(
            ResNetConfig {
                in_channels: 3,
                base_width: 2,
                classes: 4,
            },
            &mut rng,
        );
        let calib = Tensor::rand_normal([8, 3, 8, 8], 0.0, 1.0, &mut rng);
        let mut qm = quantize_model(&m, &calib, &CalibConfig::default());
        assert_eq!(qm.len(), m.len());
        let kinds = qm.op_kinds();
        // conv1 folds bn1: stage 0 is qconv, stage 1 identity.
        assert_eq!(kinds[0], "qconv");
        assert_eq!(kinds[1], "identity");
        assert!(kinds.contains(&"qblock"));
        // Block sites include folded shortcut convolutions.
        let sites = qm.sites();
        assert!(sites
            .params
            .iter()
            .any(|p| p.path.contains(".down_conv.weight") && p.repr == Repr::I8));

        // And inference runs end to end with matching logits shape.
        let eval = Tensor::rand_normal([3, 3, 8, 8], 0.0, 1.0, &mut rng);
        let q_logits = qm.predict_all(&eval, 2);
        assert_eq!(q_logits.dims(), &[3, 4]);

        // Prefix-cache resume across a block-internal fault.
        let cache = QPrefixCache::build(&mut qm, &eval, 2);
        let mut cfg = FaultConfig::clean();
        let mut mask = FaultMask::empty();
        mask.push_bit(1, 5);
        let site = sites
            .params
            .iter()
            .find(|p| p.path.contains(".conv2.weight"))
            .unwrap();
        cfg.set_mask(&site.path, mask);
        let start = qm.first_dirty_op(&cfg).unwrap();
        assert!(start > 0, "block fault must not force a full re-run");
        qm.apply(&cfg);
        let cold = qm.predict_all(&eval, 2);
        let warm = cache.predict_from(&mut qm, start);
        assert_eq!(bits(&cold), bits(&warm));
    }

    #[test]
    fn moving_average_calibration_also_quantizes() {
        let mut rng = StdRng::seed_from_u64(6);
        let m = mlp(4, &[6], 3, &mut rng);
        let calib = Tensor::rand_normal([40, 4], 0.0, 1.0, &mut rng);
        let qm = quantize_model(
            &m,
            &calib,
            &CalibConfig {
                batch_size: 8,
                observer: ObserverKind::MovingAverage { momentum: 0.1 },
            },
        );
        assert_eq!(qm.op_kinds()[0], "qdense");
    }

    #[test]
    fn describe_tabulates_stages() {
        let (_, qm, _) = calibrated_mlp(8);
        let d = qm.describe();
        assert!(d.contains("fc1"));
        assert!(d.contains("qdense"));
    }
}
