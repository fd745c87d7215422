//! Applying fault configurations to networks.
//!
//! A [`FaultConfig`] is one concrete joint fault outcome — a mask per
//! parameter site (the MCMC state of BDLFI). Applying it XORs the masks
//! into the weights; applying it again undoes the injection exactly, so a
//! campaign never copies the golden weights.

use crate::mask::FaultMask;
use crate::model::FaultModel;
use crate::site::{ParamSite, ResolvedSites};
use bdlfi_nn::Sequential;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One concrete joint fault configuration over a set of parameter sites.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultConfig {
    // Keyed by parameter path. Empty masks are omitted. Ordered so the
    // serialized form (checkpoint journals) and `affected_paths` are
    // independent of hash state across runs.
    masks: BTreeMap<String, FaultMask>,
}

impl FaultConfig {
    /// The fault-free configuration.
    pub fn clean() -> Self {
        FaultConfig {
            masks: BTreeMap::new(),
        }
    }

    /// Samples a configuration: one independent mask per parameter site,
    /// drawn over each site's own word width
    /// ([`FaultModel::sample_mask_for`]), so int8 sites flip within their
    /// 8 stored bits and f32 sites behave exactly as before.
    pub fn sample(sites: &[ParamSite], model: &dyn FaultModel, rng: &mut dyn Rng) -> Self {
        let mut masks = BTreeMap::new();
        for site in sites {
            let mask = model.sample_mask_for(site.len, site.repr, rng);
            if !mask.is_empty() {
                masks.insert(site.path.clone(), mask);
            }
        }
        FaultConfig { masks }
    }

    /// The mask for a parameter path (empty if none).
    pub fn mask(&self, path: &str) -> FaultMask {
        self.masks.get(path).cloned().unwrap_or_default()
    }

    /// Replaces the mask at `path` (removing it if empty).
    pub fn set_mask(&mut self, path: &str, mask: FaultMask) {
        if mask.is_empty() {
            self.masks.remove(path);
        } else {
            self.masks.insert(path.to_string(), mask);
        }
    }

    /// Total number of flipped bits across all sites.
    pub fn total_flips(&self) -> u32 {
        self.masks.values().map(FaultMask::bit_count).sum()
    }

    /// Whether no faults are present.
    pub fn is_clean(&self) -> bool {
        self.masks.is_empty()
    }

    /// Paths with a non-empty mask, in sorted (path) order.
    pub fn affected_paths(&self) -> Vec<&str> {
        self.masks().map(|(path, _)| path).collect()
    }

    /// Every non-empty mask with its parameter path, in sorted (path)
    /// order, borrowed rather than cloned as [`FaultConfig::mask`] does.
    pub fn masks(&self) -> impl Iterator<Item = (&str, &FaultMask)> {
        self.masks.iter().map(|(path, mask)| (path.as_str(), mask))
    }

    /// Index of the shallowest top-level layer of `model` whose parameters
    /// this configuration corrupts, or `None` for a clean configuration.
    ///
    /// Every layer before this index computes on golden weights, so its
    /// activations are bit-identical to the golden run — the invariant the
    /// incremental-inference cache ([`bdlfi_nn::PrefixCache`]) exploits. A
    /// mask whose path matches no layer maps conservatively to `Some(0)`
    /// (full re-run).
    pub fn first_dirty_layer(&self, model: &Sequential) -> Option<usize> {
        self.masks
            .keys()
            .map(|path| model.layer_index_of_param(path).unwrap_or(0))
            .min()
    }

    /// Joint log-probability of this configuration under a per-site fault
    /// model, given the site list (sites without masks contribute their
    /// no-fault probability).
    ///
    /// Returns `None` if the model defines no density.
    pub fn log_prob(&self, sites: &[ParamSite], model: &dyn FaultModel) -> Option<f64> {
        // MCMC kernels evaluate this several times per step: borrow each
        // site's mask rather than cloning it as `mask` does.
        let clean = FaultMask::empty();
        let mut total = 0.0f64;
        for site in sites {
            let mask = self.masks.get(&site.path).unwrap_or(&clean);
            total += model.log_prob_for(mask, site.len, site.repr)?;
        }
        Some(total)
    }

    /// XORs the configuration into the model's parameters. Calling it a
    /// second time undoes the injection exactly. Masks at paths that name
    /// no parameter are ignored.
    ///
    /// Each mask reaches its parameter by its own path
    /// ([`Sequential::with_param_mut`]), so an evaluation, which applies
    /// its configuration twice, walks no other parameter and builds no
    /// paths.
    ///
    /// # Panics
    ///
    /// Panics if a mask indexes beyond its parameter.
    pub fn apply(&self, model: &mut Sequential) {
        for (path, mask) in &self.masks {
            model.with_param_mut(path, &mut |p| mask.apply(&mut p.value));
        }
    }

    /// Runs `f` with the faults applied, guaranteeing the model is restored
    /// afterwards (XOR involution), even though `f` may inspect the faulty
    /// model freely.
    pub fn with_applied<T>(
        &self,
        model: &mut Sequential,
        f: impl FnOnce(&mut Sequential) -> T,
    ) -> T {
        self.apply(model);
        let out = f(model);
        self.apply(model);
        out
    }
}

/// Convenience: the total number of distinct `(element, bit)` positions a
/// resolved site set exposes — the size of the paper's "enormous space of
/// fault locations". Counts each site at its own word width, so a
/// quantized site set is 4× smaller per element than its f32 twin.
pub fn injection_space_bits(sites: &ResolvedSites) -> u64 {
    sites.params.iter().map(ParamSite::injectable_bits).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{BernoulliBitFlip, SingleBitFlip};
    use crate::site::{resolve_sites, SiteSpec};
    use bdlfi_nn::mlp;
    use bdlfi_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> Sequential {
        let mut rng = StdRng::seed_from_u64(0);
        mlp(2, &[4], 3, &mut rng)
    }

    #[test]
    fn apply_twice_restores_weights() {
        // The MLP's dense layers and a ResNet's nested block parameters
        // (`layer1_0.conv1.weight`, batch-norm running statistics, …).
        let mut rng = StdRng::seed_from_u64(1);
        let resnet = bdlfi_nn::resnet18(
            bdlfi_nn::ResNetConfig {
                in_channels: 1,
                base_width: 2,
                classes: 3,
            },
            &mut rng,
        );
        for mut m in [model(), resnet] {
            let sites = resolve_sites(&m, &SiteSpec::AllParams);
            let cfg = FaultConfig::sample(&sites.params, &BernoulliBitFlip::new(0.05), &mut rng);
            assert!(!cfg.is_clean());

            let golden = bdlfi_nn::serialize::export_weights(&m);
            cfg.apply(&mut m);
            let faulty = bdlfi_nn::serialize::export_weights(&m);
            // Exactly the masked parameters changed: each mask reached its
            // own parameter and no other.
            for (path, value) in &golden.params {
                let masked = cfg.masks().any(|(p, _)| p == path);
                let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(value) != bits(&faulty.params[path]), masked, "{path}");
            }
            cfg.apply(&mut m);
            let restored = bdlfi_nn::serialize::export_weights(&m);
            assert_eq!(golden.params, restored.params);
        }
    }

    #[test]
    fn with_applied_restores_even_after_prediction() {
        let mut m = model();
        let sites = resolve_sites(&m, &SiteSpec::AllParams);
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = FaultConfig::sample(&sites.params, &BernoulliBitFlip::new(0.1), &mut rng);
        let x = Tensor::rand_normal([4, 2], 0.0, 1.0, &mut rng);

        let clean = m.predict(&x);
        let faulty = cfg.with_applied(&mut m, |m| m.predict(&x));
        let clean_again = m.predict(&x);
        let cb: Vec<u32> = clean.data().iter().map(|v| v.to_bits()).collect();
        let ca: Vec<u32> = clean_again.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(cb, ca, "model not restored");
        // With p = 0.1 over every parameter, outputs almost surely differ.
        let fb: Vec<u32> = faulty.data().iter().map(|v| v.to_bits()).collect();
        assert_ne!(cb, fb);
    }

    #[test]
    fn sample_respects_sites() {
        let m = model();
        let sites = resolve_sites(
            &m,
            &SiteSpec::LayerParams {
                prefix: "fc1".into(),
            },
        );
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = FaultConfig::sample(&sites.params, &BernoulliBitFlip::new(0.5), &mut rng);
        for path in cfg.affected_paths() {
            assert!(path.starts_with("fc1."), "unexpected path {path}");
        }
    }

    #[test]
    fn log_prob_sums_over_sites() {
        let m = model();
        let sites = resolve_sites(&m, &SiteSpec::AllParams);
        let fm = BernoulliBitFlip::new(0.01);
        let clean = FaultConfig::clean();
        let lp_clean = clean.log_prob(&sites.params, &fm).unwrap();
        // ln((1-p)^(total bits))
        let total_bits = sites.total_param_elements() as f64 * 32.0;
        assert!((lp_clean - total_bits * (0.99f64).ln()).abs() < 1e-6);

        let mut one = FaultConfig::clean();
        let mut mask = FaultMask::empty();
        mask.push_bit(0, 4);
        one.set_mask("fc1.weight", mask);
        let lp_one = one.log_prob(&sites.params, &fm).unwrap();
        assert!((lp_one - lp_clean - (0.01f64.ln() - 0.99f64.ln())).abs() < 1e-9);
    }

    #[test]
    fn set_mask_with_empty_removes() {
        let mut cfg = FaultConfig::clean();
        let mut mask = FaultMask::empty();
        mask.push_bit(2, 7);
        cfg.set_mask("fc1.weight", mask.clone());
        assert_eq!(cfg.total_flips(), 1);
        cfg.set_mask("fc1.weight", FaultMask::empty());
        assert!(cfg.is_clean());
        assert_eq!(cfg.mask("fc1.weight"), FaultMask::empty());
    }

    #[test]
    fn first_dirty_layer_tracks_shallowest_mask() {
        let m = model(); // fc1(0), relu1(1), fc2(2)
        let mut cfg = FaultConfig::clean();
        assert_eq!(cfg.first_dirty_layer(&m), None);

        let mut mask = FaultMask::empty();
        mask.push_bit(0, 3);
        cfg.set_mask("fc2.weight", mask.clone());
        assert_eq!(cfg.first_dirty_layer(&m), Some(2));

        cfg.set_mask("fc1.bias", mask.clone());
        assert_eq!(cfg.first_dirty_layer(&m), Some(0));

        // Removing the shallow mask moves the dirty frontier back down.
        cfg.set_mask("fc1.bias", FaultMask::empty());
        assert_eq!(cfg.first_dirty_layer(&m), Some(2));

        // Unknown paths are conservative: everything re-runs.
        cfg.set_mask("ghost.weight", mask);
        assert_eq!(cfg.first_dirty_layer(&m), Some(0));
    }

    #[test]
    fn injection_space_is_32_bits_per_element() {
        let m = model();
        let sites = resolve_sites(&m, &SiteSpec::AllParams);
        assert_eq!(
            injection_space_bits(&sites),
            (sites.total_param_elements() * 32) as u64
        );
    }

    #[test]
    fn injection_space_counts_each_site_at_its_width() {
        use crate::bits::Repr;
        use crate::site::ParamSite;
        let sites = ResolvedSites {
            params: vec![
                ParamSite::with_repr("q.weight", 10, Repr::I8),
                ParamSite::with_repr("q.bias", 3, Repr::I32Accum),
                ParamSite::with_repr("q.scale", 1, Repr::F32),
            ],
            activations: Vec::new(),
            input: false,
        };
        assert_eq!(injection_space_bits(&sites), 10 * 8 + 3 * 32 + 32);
    }

    #[test]
    fn sampling_respects_site_width() {
        use crate::bits::Repr;
        use crate::site::ParamSite;
        let sites = vec![ParamSite::with_repr("q.weight", 40, Repr::I8)];
        let mut rng = StdRng::seed_from_u64(11);
        let cfg = FaultConfig::sample(&sites, &BernoulliBitFlip::new(0.3), &mut rng);
        assert!(!cfg.is_clean());
        for &(_, pattern) in cfg.mask("q.weight").entries() {
            assert_eq!(pattern & !0xFF, 0, "i8 site flipped a bit above 7");
        }
        // The density normalizes over the 8-bit space.
        let lp_clean = FaultConfig::clean()
            .log_prob(&sites, &BernoulliBitFlip::new(0.01))
            .unwrap();
        assert!((lp_clean - 40.0 * 8.0 * (0.99f64).ln()).abs() < 1e-9);
    }

    #[test]
    fn single_bit_model_produces_single_flip_configs() {
        let m = model();
        // One site only, as the classical injectors do.
        let sites = resolve_sites(&m, &SiteSpec::Params(vec!["fc1.weight".into()]));
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = FaultConfig::sample(&sites.params, &SingleBitFlip::new(), &mut rng);
        assert_eq!(cfg.total_flips(), 1);
    }
}
