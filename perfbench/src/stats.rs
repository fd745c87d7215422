//! Order statistics over measured samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `xs`, interpolating linearly between
/// the two nearest order statistics; `None` for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    let a = v.get(lo).copied()?;
    let b = v.get(hi).copied()?;
    Some(a + (b - a) * frac)
}

/// The median of `xs`; `None` for an empty sample.
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// The arithmetic mean of `xs`; `None` for an empty sample.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}
