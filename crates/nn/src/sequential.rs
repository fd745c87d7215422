//! The [`Sequential`] container: an ordered pipeline of named layers, which
//! doubles as the model type for both evaluated networks.

use crate::layer::{ForwardCtx, Layer, Mode};
use crate::params::{join_path, Param};
use bdlfi_tensor::Tensor;

/// An ordered pipeline of named layers.
///
/// `Sequential` is itself a [`Layer`], so pipelines nest. Layer names become
/// path components for parameter addressing and activation taps:
/// a dense layer registered as `"fc1"` exposes `"fc1.weight"` and
/// `"fc1.bias"`.
///
/// # Examples
///
/// ```
/// use bdlfi_nn::{Sequential, layers::{Dense, Relu}};
/// use bdlfi_tensor::Tensor;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut model = Sequential::new()
///     .with("fc1", Dense::new(2, 32, &mut rng))
///     .with("relu1", Relu::new())
///     .with("fc2", Dense::new(32, 3, &mut rng));
/// let logits = model.predict(&Tensor::zeros([4, 2]));
/// assert_eq!(logits.dims(), &[4, 3]);
/// ```
#[derive(Clone, Default)]
pub struct Sequential {
    layers: Vec<(String, Box<dyn Layer>)>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<String> = self
            .layers
            .iter()
            .map(|(n, l)| format!("{n}:{}", l.kind()))
            .collect();
        f.debug_struct("Sequential")
            .field("layers", &names)
            .finish()
    }
}

impl Sequential {
    /// Creates an empty pipeline.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a named layer, returning the pipeline (builder style).
    ///
    /// # Panics
    ///
    /// Panics if a layer with the same name is already registered or the
    /// name contains `'.'` (reserved as the path separator).
    pub fn with(mut self, name: impl Into<String>, layer: impl Layer + 'static) -> Self {
        self.push(name, layer);
        self
    }

    /// Appends a named layer in place.
    ///
    /// # Panics
    ///
    /// Panics if a layer with the same name is already registered or the
    /// name contains `'.'` (reserved as the path separator).
    pub fn push(&mut self, name: impl Into<String>, layer: impl Layer + 'static) {
        let name = name.into();
        assert!(
            !name.contains('.'),
            "layer name {name:?} must not contain '.'"
        );
        assert!(
            self.layers.iter().all(|(n, _)| *n != name),
            "duplicate layer name {name:?}"
        );
        self.layers.push((name, Box::new(layer)));
    }

    /// Number of registered layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the pipeline has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Names of the registered layers, in order.
    pub fn layer_names(&self) -> Vec<String> {
        self.layers.iter().map(|(n, _)| n.clone()).collect()
    }

    /// Kinds of the registered layers, in order (e.g. `"conv2d"`).
    pub fn layer_kinds(&self) -> Vec<&'static str> {
        self.layers.iter().map(|(_, l)| l.kind()).collect()
    }

    /// The layer at top-level index `i` as `(name, layer)` — read access for
    /// consumers that walk the pipeline structurally (e.g. the quantizer).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn layer_at(&self, i: usize) -> (&str, &dyn Layer) {
        let (name, layer) = &self.layers[i];
        (name.as_str(), layer.as_ref())
    }

    /// Convenience inference: eval-mode forward with no tap.
    pub fn predict(&mut self, input: &Tensor) -> Tensor {
        self.forward(input, &mut ForwardCtx::new(Mode::Eval))
    }

    /// Index of the top-level layer owning the parameter at `path` (the
    /// first dotted component is matched against layer names), or `None`
    /// if no layer matches.
    ///
    /// This is the map from a fault site to the shallowest layer whose
    /// output it can change: a composite layer (e.g. a residual block)
    /// counts as one unit, so faults anywhere inside it dirty exactly that
    /// top-level index — the correct re-execution cut point, since a
    /// block's skip connection consumes the *block* input, never an
    /// activation internal to an earlier sibling.
    pub fn layer_index_of_param(&self, path: &str) -> Option<usize> {
        let head = path.split('.').next().unwrap_or(path);
        self.layers.iter().position(|(n, _)| n == head)
    }

    /// Forward pass resumed at top-level layer `start`: runs layers
    /// `start..` on `input`, which must be the activation a full forward
    /// pass would feed layer `start` (i.e. the output of layer
    /// `start - 1`, or the network input for `start == 0`).
    ///
    /// With `start == len()` this is the identity on `input` — the fully
    /// cached case. Layer computations are deterministic, so resuming from
    /// a cached prefix activation reproduces the cold run's outputs
    /// bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if `start > len()`.
    pub fn forward_from(&mut self, start: usize, input: &Tensor, ctx: &mut ForwardCtx) -> Tensor {
        assert!(
            start <= self.layers.len(),
            "forward_from: start {start} beyond {} layers",
            self.layers.len()
        );
        let mut x: Option<Tensor> = None;
        for (name, layer) in &mut self.layers[start..] {
            ctx.push(name);
            let mut y = layer.forward(x.as_ref().unwrap_or(input), ctx);
            ctx.fire(&mut y);
            ctx.pop();
            x = Some(y);
        }
        x.unwrap_or_else(|| input.clone())
    }

    /// Runs exactly one top-level layer on `input` — the per-layer building
    /// block the sparse-delta evaluator steps with. Shares the loop body of
    /// [`Sequential::forward_from`] (same push/fire discipline), so a chain
    /// of `forward_one` calls is bit-identical to the fused pass.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn forward_one(&mut self, i: usize, input: &Tensor, ctx: &mut ForwardCtx) -> Tensor {
        let (name, layer) = &mut self.layers[i];
        ctx.push(name);
        let mut y = layer.forward(input, ctx);
        ctx.fire(&mut y);
        ctx.pop();
        y
    }

    /// Eval-mode forward pass that fires `tap` after every layer (including
    /// nested children) — the activation fault-injection hook.
    pub fn predict_with_tap(
        &mut self,
        input: &Tensor,
        tap: &mut dyn FnMut(&str, &mut Tensor),
    ) -> Tensor {
        self.forward(input, &mut ForwardCtx::with_tap(Mode::Eval, tap))
    }

    /// A human-readable table of the pipeline: layer names, kinds and
    /// parameter counts — handy in examples and experiment logs.
    pub fn describe(&self) -> String {
        let mut out = String::from("layer            kind             params\n");
        for (name, layer) in &self.layers {
            let mut count = 0usize;
            layer.visit_params("", &mut |_, p| count += p.len());
            out.push_str(&format!("{name:<16} {:<16} {count}\n", layer.kind()));
        }
        out.push_str(&format!("total parameters: {}\n", self.param_count()));
        out
    }

    /// All parameter paths, in visitation order.
    pub fn param_paths(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.visit_params("", &mut |p, _| out.push(p.to_string()));
        out
    }

    /// Total number of scalar parameters (trainable and frozen).
    pub fn param_count(&self) -> usize {
        let mut n = 0;
        self.visit_params("", &mut |_, p| n += p.len());
        n
    }

    /// Zeroes every gradient accumulator.
    pub fn zero_grads(&mut self) {
        self.visit_params_mut("", &mut |_, p| p.zero_grad());
    }

    /// Runs `f` on the parameter at `path`, if present; returns whether the
    /// path matched. The first path component picks the top-level layer and
    /// that layer resolves the rest ([`Layer::with_param_mut`]), so no
    /// other parameter is visited.
    pub fn with_param_mut(&mut self, path: &str, f: &mut dyn FnMut(&mut Param)) -> bool {
        let Some((head, rest)) = path.split_once('.') else {
            return false;
        };
        self.layers
            .iter_mut()
            .find(|(name, _)| name == head)
            .is_some_and(|(_, layer)| layer.with_param_mut(rest, f))
    }

    /// Clones the value tensor of the parameter at `path`, if present.
    pub fn param_value(&self, path: &str) -> Option<Tensor> {
        let mut out = None;
        self.visit_params("", &mut |p, param| {
            if p == path {
                out = Some(param.value.clone());
            }
        });
        out
    }
}

impl Layer for Sequential {
    fn kind(&self) -> &'static str {
        "sequential"
    }

    fn forward(&mut self, input: &Tensor, ctx: &mut ForwardCtx) -> Tensor {
        // Delegating to forward_from(0, ..) keeps the cold and resumed
        // paths on one code path, so they cannot drift apart numerically.
        self.forward_from(0, input, ctx)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut g = grad_out.clone();
        for (_, layer) in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    fn visit_params(&self, path: &str, f: &mut dyn FnMut(&str, &Param)) {
        for (name, layer) in &self.layers {
            layer.visit_params(&join_path(path, name), f);
        }
    }

    fn visit_params_mut(&mut self, path: &str, f: &mut dyn FnMut(&str, &mut Param)) {
        for (name, layer) in &mut self.layers {
            // A top-level walk (fault injection, twice per evaluation)
            // passes each layer its own name rather than a joined copy.
            if path.is_empty() {
                layer.visit_params_mut(name, f);
            } else {
                layer.visit_params_mut(&join_path(path, name), f);
            }
        }
    }

    fn with_param_mut(&mut self, path: &str, f: &mut dyn FnMut(&mut Param)) -> bool {
        Sequential::with_param_mut(self, path, f)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_mlp(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        Sequential::new()
            .with("fc1", Dense::new(2, 4, &mut rng))
            .with("relu1", Relu::new())
            .with("fc2", Dense::new(4, 3, &mut rng))
    }

    #[test]
    fn forward_chains_layers() {
        let mut m = tiny_mlp(1);
        let y = m.predict(&Tensor::zeros([5, 2]));
        assert_eq!(y.dims(), &[5, 3]);
    }

    #[test]
    #[should_panic(expected = "duplicate layer name")]
    fn duplicate_names_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = Sequential::new()
            .with("fc", Dense::new(2, 2, &mut rng))
            .with("fc", Relu::new());
    }

    #[test]
    #[should_panic(expected = "must not contain")]
    fn dotted_names_rejected() {
        let _ = Sequential::new().with("a.b", Relu::new());
    }

    #[test]
    fn param_paths_are_prefixed() {
        let m = tiny_mlp(2);
        assert_eq!(
            m.param_paths(),
            vec!["fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"]
        );
        assert_eq!(m.param_count(), 2 * 4 + 4 + 4 * 3 + 3);
    }

    #[test]
    fn with_param_mut_targets_one_param() {
        let mut m = tiny_mlp(3);
        assert!(m.with_param_mut("fc1.bias", &mut |p| p.value.fill(9.0)));
        assert!(!m.with_param_mut("nope.bias", &mut |_| ()));
        assert_eq!(m.param_value("fc1.bias").unwrap().data(), &[9.0; 4]);
    }

    #[test]
    fn tap_fires_for_each_layer_in_order() {
        let mut m = tiny_mlp(4);
        let mut paths = Vec::new();
        m.predict_with_tap(&Tensor::zeros([1, 2]), &mut |p, _| {
            paths.push(p.to_string())
        });
        assert_eq!(paths, vec!["fc1", "relu1", "fc2"]);
    }

    #[test]
    fn tap_can_corrupt_activations() {
        let mut m = tiny_mlp(5);
        let x = Tensor::ones([1, 2]);
        let clean = m.predict(&x);
        let corrupted = m.predict_with_tap(&x, &mut |p, t| {
            if p == "fc1" {
                t.fill(0.0);
            }
        });
        // Zeroing fc1's output changes the logits (fc2 bias only).
        assert!(!clean.approx_eq(&corrupted, 1e-9) || clean.max_abs_diff(&corrupted) == 0.0);
        let bias = m.param_value("fc2.bias").unwrap();
        assert!(corrupted.reshape([3]).approx_eq(&bias, 1e-6));
    }

    #[test]
    fn zero_grads_clears_all() {
        let mut m = tiny_mlp(6);
        let x = Tensor::ones([2, 2]);
        let mut ctx = ForwardCtx::new(Mode::Train);
        let y = m.forward(&x, &mut ctx);
        m.backward(&Tensor::ones(y.dims()));
        let mut total = 0.0;
        m.visit_params("", &mut |_, p| total += p.grad.map(f32::abs).sum());
        assert!(total > 0.0);
        m.zero_grads();
        let mut total = 0.0;
        m.visit_params("", &mut |_, p| total += p.grad.map(f32::abs).sum());
        assert_eq!(total, 0.0);
    }

    #[test]
    fn clone_is_independent() {
        let mut m = tiny_mlp(7);
        let mut m2 = m.clone();
        m2.with_param_mut("fc1.weight", &mut |p| p.value.fill(0.0));
        let a = m.param_value("fc1.weight").unwrap();
        let b = m2.param_value("fc1.weight").unwrap();
        assert!(a.map(f32::abs).sum() > 0.0);
        assert_eq!(b.map(f32::abs).sum(), 0.0);
        // Original still predicts with its own weights.
        let _ = m.predict(&Tensor::zeros([1, 2]));
    }

    #[test]
    fn layer_index_of_param_maps_to_top_level() {
        let m = tiny_mlp(10);
        assert_eq!(m.layer_index_of_param("fc1.weight"), Some(0));
        assert_eq!(m.layer_index_of_param("fc1.bias"), Some(0));
        assert_eq!(m.layer_index_of_param("fc2.weight"), Some(2));
        assert_eq!(m.layer_index_of_param("nope.weight"), None);
    }

    #[test]
    fn forward_from_resumes_bitwise_identically() {
        let mut m = tiny_mlp(11);
        let x = Tensor::from_fn([3, 2], |i| (i[0] * 2 + i[1]) as f32 * 0.3 - 0.5);

        // Record every boundary activation during a cold run.
        let mut boundaries = vec![x.clone()];
        let cold = m.predict_with_tap(&x, &mut |path, t| {
            if !path.contains('.') {
                boundaries.push(t.clone());
            }
        });
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();

        assert_eq!(boundaries.len(), m.len() + 1);
        for (start, boundary) in boundaries.clone().iter().enumerate() {
            let resumed = m.forward_from(start, boundary, &mut ForwardCtx::new(Mode::Eval));
            assert_eq!(bits(&cold), bits(&resumed), "resume at layer {start}");
        }
    }

    #[test]
    #[should_panic(expected = "beyond")]
    fn forward_from_past_end_panics() {
        let mut m = tiny_mlp(12);
        m.forward_from(4, &Tensor::zeros([1, 3]), &mut ForwardCtx::new(Mode::Eval));
    }

    #[test]
    fn describe_tabulates_layers() {
        let m = tiny_mlp(9);
        let d = m.describe();
        assert!(d.contains("fc1"));
        assert!(d.contains("dense"));
        assert!(d.contains(&format!("total parameters: {}", m.param_count())));
    }

    #[test]
    fn debug_lists_layer_kinds() {
        let m = tiny_mlp(8);
        let s = format!("{m:?}");
        assert!(s.contains("fc1:dense"));
        assert!(s.contains("relu1:relu"));
    }
}
