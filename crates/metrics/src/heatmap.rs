//! Terminal heatmaps of relative-error surfaces — a plot-free way to eyeball
//! the Fig. 1 sawtooth structure directly in the experiment drivers.

use crate::exhaustive::ProfilePoint;

/// Density ramp from "no error" to "max error".
const RAMP: &[char] = &[' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];

/// Renders a relative-error surface as an ASCII heatmap of
/// `width × height` character cells. Cell intensity is the mean |error|
/// of the profile points that fall into it, normalized by `scale`
/// (e.g. `0.12` maps the log family's worst case to full intensity).
///
/// ```
/// use realm_baselines::Calm;
/// use realm_metrics::{heatmap::render_heatmap, Engine, ProfileWorkload};
///
/// let profile = Engine::default()
///     .run(&ProfileWorkload::new(&Calm::new(16), 32..=255, 32..=255))
///     .unwrap_or_default();
/// let map = render_heatmap(&profile, 32, 16, 0.12);
/// assert_eq!(map.lines().count(), 16);
/// ```
///
/// # Panics
///
/// Panics if the profile is empty, a dimension is zero, or `scale` is not
/// positive.
pub fn render_heatmap(profile: &[ProfilePoint], width: usize, height: usize, scale: f64) -> String {
    assert!(!profile.is_empty(), "empty profile");
    assert!(
        width > 0 && height > 0,
        "heatmap dimensions must be positive"
    );
    assert!(scale > 0.0, "scale must be positive");
    let (a_min, a_max) = min_max(profile.iter().map(|p| p.a));
    let (b_min, b_max) = min_max(profile.iter().map(|p| p.b));
    let a_span = (a_max - a_min + 1) as f64;
    let b_span = (b_max - b_min + 1) as f64;

    let mut sums = vec![0.0f64; width * height];
    let mut counts = vec![0u32; width * height];
    for p in profile {
        let col = (((p.a - a_min) as f64 / a_span) * width as f64) as usize;
        let row = (((p.b - b_min) as f64 / b_span) * height as f64) as usize;
        let idx = row.min(height - 1) * width + col.min(width - 1);
        sums[idx] += p.error.abs();
        counts[idx] += 1;
    }

    let mut out = String::with_capacity(height * (width + 1));
    for row in (0..height).rev() {
        for col in 0..width {
            let idx = row * width + col;
            let ch = if counts[idx] == 0 {
                ' '
            } else {
                let mean = sums[idx] / counts[idx] as f64;
                let level = ((mean / scale) * (RAMP.len() - 1) as f64).round() as usize;
                RAMP[level.min(RAMP.len() - 1)]
            };
            out.push(ch);
        }
        out.push('\n');
    }
    out
}

fn min_max(values: impl Iterator<Item = u64>) -> (u64, u64) {
    values.fold((u64::MAX, 0), |(lo, hi), v| (lo.min(v), hi.max(v)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use realm_baselines::Calm;
    use realm_core::{Realm, RealmConfig};

    fn profile_of(design: &dyn realm_core::Multiplier) -> Vec<ProfilePoint> {
        crate::Engine::default()
            .run(&crate::ProfileWorkload::new(design, 32..=255, 32..=255))
            .unwrap_or_default()
    }

    #[test]
    fn dimensions_match_request() {
        let map = render_heatmap(&profile_of(&Calm::new(16)), 40, 20, 0.12);
        assert_eq!(map.lines().count(), 20);
        assert!(map.lines().all(|l| l.chars().count() == 40));
    }

    #[test]
    fn realm_map_is_visibly_quieter_than_calm() {
        let ink = |map: &str| {
            map.chars()
                .filter(|c| !c.is_whitespace())
                .map(|c| RAMP.iter().position(|&r| r == c).unwrap_or(0))
                .sum::<usize>()
        };
        let calm = render_heatmap(&profile_of(&Calm::new(16)), 40, 20, 0.12);
        let realm = render_heatmap(
            &profile_of(&Realm::new(RealmConfig::n16(16, 0)).expect("paper design point")),
            40,
            20,
            0.12,
        );
        assert!(
            ink(&realm) * 4 < ink(&calm),
            "REALM ink {} vs cALM ink {}",
            ink(&realm),
            ink(&calm)
        );
    }

    #[test]
    #[should_panic(expected = "empty profile")]
    fn empty_profile_panics() {
        let _ = render_heatmap(&[], 10, 10, 0.1);
    }
}
