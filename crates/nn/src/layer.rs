//! The [`Layer`] trait, forward-pass context and activation taps.
//!
//! BDLFI injects faults not only into stored weights but also into
//! intermediate activations (paper Section II: "transient faults in the
//! memory units for storing NN parameters, inputs, intermediate activations
//! and outputs"). Activations never rest in a parameter store, so the
//! forward pass exposes them through a *tap*: a callback invoked with every
//! layer's output tensor and its structural path, free to mutate it in
//! place. The fault crates use this hook; training ignores it.

use crate::params::Param;
use bdlfi_tensor::Tensor;

/// Whether a forward pass is a training step (batch statistics, caches for
/// backward) or pure inference (running statistics, still caching nothing
/// extra).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Training: normalisation layers use batch statistics and update
    /// running averages; caches for the backward pass are recorded.
    Train,
    /// Inference: normalisation layers use running statistics.
    Eval,
}

/// Mutable callback applied to each layer output during a forward pass.
///
/// Arguments are the layer's structural path (e.g. `"layer1.block0.conv1"`)
/// and its freshly computed output, which may be mutated in place.
pub type ActivationTap<'a> = &'a mut dyn FnMut(&str, &mut Tensor);

/// Per-call state threaded through a forward pass: the [`Mode`], the current
/// structural path and an optional [`ActivationTap`].
///
/// The path's components are recorded only when a tap is attached, since
/// the tap is what reads them: a plain inference pass, which campaigns run
/// thousands of times a second, allocates nothing for it.
pub struct ForwardCtx<'a> {
    mode: Mode,
    tap: Option<ActivationTap<'a>>,
    path: Vec<String>,
    depth: usize,
}

impl<'a> ForwardCtx<'a> {
    /// Context for a plain forward pass in the given mode, without a tap.
    pub fn new(mode: Mode) -> Self {
        ForwardCtx {
            mode,
            tap: None,
            path: Vec::new(),
            depth: 0,
        }
    }

    /// Context that additionally fires `tap` after every layer.
    pub fn with_tap(mode: Mode, tap: ActivationTap<'a>) -> Self {
        ForwardCtx {
            mode,
            tap: Some(tap),
            path: Vec::new(),
            depth: 0,
        }
    }

    /// The pass mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Enters a child scope (composite layers call this around children).
    pub fn push(&mut self, name: &str) {
        self.depth += 1;
        if self.tap.is_some() {
            self.path.push(name.to_string());
        }
    }

    /// Leaves the current child scope.
    ///
    /// # Panics
    ///
    /// Panics if the scope stack is empty (unbalanced `push`/`pop`).
    pub fn pop(&mut self) {
        self.depth = self
            .depth
            .checked_sub(1)
            // bdlfi-lint: allow(BD010) -- documented `# Panics` contract: unbalanced push/pop is a Layer-impl bug, not campaign input
            .expect("ForwardCtx::pop without matching push");
        self.path.pop();
    }

    /// The current structural path, components joined with `.`; empty in
    /// a context without a tap, which records no path.
    pub fn current_path(&self) -> String {
        self.path.join(".")
    }

    /// Fires the activation tap (if any) on `output` at the current path.
    pub fn fire(&mut self, output: &mut Tensor) {
        if let Some(tap) = self.tap.as_mut() {
            let path = self.path.join(".");
            tap(&path, output);
        }
    }
}

/// A differentiable network component.
///
/// Layers own their parameters and the caches needed to run a backward pass
/// for the most recent train-mode forward pass; `backward` consumes those
/// caches, so a trained network carries only its parameters. Composite
/// layers (e.g. [`crate::Sequential`], [`crate::layers::BasicBlock`])
/// contain children and forward the parameter visitors with extended
/// paths.
pub trait Layer: Send + Sync {
    /// Short machine-readable layer kind, e.g. `"dense"`.
    fn kind(&self) -> &'static str;

    /// Computes the layer output, caching whatever the backward pass needs.
    fn forward(&mut self, input: &Tensor, ctx: &mut ForwardCtx) -> Tensor;

    /// Propagates `grad_out = ∂L/∂output` to `∂L/∂input`, accumulating
    /// parameter gradients, and releases the cache of the train-mode
    /// forward it differentiates.
    ///
    /// # Panics
    ///
    /// Implementations may panic unless a [`Layer::forward`] in
    /// [`Mode::Train`] ran since the last `backward`.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Visits every parameter with its full dotted path under `path`.
    fn visit_params(&self, path: &str, f: &mut dyn FnMut(&str, &Param)) {
        let _ = (path, f);
    }

    /// Visits every parameter mutably with its full dotted path under
    /// `path`.
    fn visit_params_mut(&mut self, path: &str, f: &mut dyn FnMut(&str, &mut Param)) {
        let _ = (path, f);
    }

    /// Runs `f` on the parameter at the dotted `path` relative to this
    /// layer (`"weight"`, `"conv1.bias"`, …); returns whether the path
    /// named one.
    ///
    /// The default walks [`Layer::visit_params_mut`]; layers on the fault
    /// injection hot path override it with a direct lookup that builds no
    /// path strings.
    fn with_param_mut(&mut self, path: &str, f: &mut dyn FnMut(&mut Param)) -> bool {
        let mut found = false;
        self.visit_params_mut("", &mut |p, param| {
            if p == path {
                found = true;
                f(param);
            }
        });
        found
    }

    /// Clones the layer into a boxed trait object.
    fn clone_box(&self) -> Box<dyn Layer>;

    /// Downcasting hook for consumers that need concrete-layer access
    /// (the post-training quantizer walks a trained [`crate::Sequential`]
    /// and extracts Dense/Conv2d/BatchNorm2d/BasicBlock internals).
    ///
    /// Returns `None` by default; layers with quantizable structure
    /// override it to return `Some(self)`.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_tracks_paths() {
        let mut tap = |_: &str, _: &mut Tensor| {};
        let mut ctx = ForwardCtx::with_tap(Mode::Eval, &mut tap);
        assert_eq!(ctx.current_path(), "");
        ctx.push("layer1");
        ctx.push("block0");
        assert_eq!(ctx.current_path(), "layer1.block0");
        ctx.pop();
        assert_eq!(ctx.current_path(), "layer1");
    }

    #[test]
    fn ctx_without_tap_records_no_path_but_checks_balance() {
        let mut ctx = ForwardCtx::new(Mode::Eval);
        ctx.push("layer1");
        assert_eq!(ctx.current_path(), "");
        ctx.pop();
        let unbalanced = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ctx.pop()));
        assert!(unbalanced.is_err());
    }

    #[test]
    #[should_panic(expected = "without matching push")]
    fn unbalanced_pop_panics() {
        ForwardCtx::new(Mode::Eval).pop();
    }

    #[test]
    fn tap_fires_with_path_and_can_mutate() {
        let mut seen = Vec::new();
        let mut tap = |path: &str, t: &mut Tensor| {
            seen.push(path.to_string());
            t.scale_inplace(2.0);
        };
        let mut ctx = ForwardCtx::with_tap(Mode::Eval, &mut tap);
        ctx.push("fc");
        let mut out = Tensor::ones([2]);
        ctx.fire(&mut out);
        ctx.pop();
        drop(ctx);
        assert_eq!(seen, vec!["fc".to_string()]);
        assert_eq!(out.data(), &[2.0, 2.0]);
    }

    #[test]
    fn ctx_without_tap_fires_nothing() {
        let mut ctx = ForwardCtx::new(Mode::Train);
        let mut out = Tensor::ones([2]);
        ctx.fire(&mut out);
        assert_eq!(out.data(), &[1.0, 1.0]);
        assert_eq!(ctx.mode(), Mode::Train);
    }
}
