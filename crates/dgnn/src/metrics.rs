//! Ranking metrics: ROC-AUC and Average Precision (the paper's evaluation
//! metrics for dynamic link prediction and node classification, §V-C).
//!
//! Both metrics tolerate non-finite scores: sorting uses
//! [`f32::total_cmp`], which gives NaN/±∞ a definite rank (NaN sorts past
//! ±∞) instead of panicking mid-evaluation. Non-finite inputs almost
//! always mean the model diverged, so they are counted on the
//! `metrics.nonfinite_scores` counter and reported through a structured
//! warning — the evaluation completes and the run's diagnostics say why
//! the number is suspect.

/// Counts non-finite entries in `scores`; if any, bumps the
/// `metrics.nonfinite_scores` counter and warns with the callsite name.
fn note_nonfinite(scores: &[f32], metric: &'static str) {
    let nonfinite = scores.iter().filter(|s| !s.is_finite()).count();
    if nonfinite > 0 {
        cpdg_obs::counter!("metrics.nonfinite_scores").add(nonfinite as u64);
        cpdg_obs::warn!(
            "dgnn.metrics",
            "non-finite scores in metric input (model likely diverged)";
            metric = metric,
            nonfinite = nonfinite,
            total = scores.len(),
        );
    }
}

/// Whether two sorted scores share a tie block: equal values (so `-0.0`
/// ties `+0.0`), or both NaN, so a run of NaNs forms one block instead of
/// stalling the tie scan (`NaN == NaN` is false).
fn ties(a: f32, b: f32) -> bool {
    a == b || (a.is_nan() && b.is_nan())
}

/// Area under the ROC curve for `(score, label)` pairs.
///
/// Computed via the Mann–Whitney U statistic with proper tie handling
/// (ties contribute ½). Returns 0.5 when either class is empty. Non-finite
/// scores are ranked by [`f32::total_cmp`] (and reported, see module
/// docs); the result is always in `[0, 1]`.
pub fn roc_auc(scores: &[f32], labels: &[bool]) -> f64 {
    assert_eq!(scores.len(), labels.len(), "roc_auc: length mismatch");
    note_nonfinite(scores, "roc_auc");
    let mut pairs: Vec<(f32, bool)> = scores.iter().copied().zip(labels.iter().copied()).collect();
    let n_pos = labels.iter().filter(|&&l| l).count();
    let n_neg = labels.len() - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return 0.5;
    }
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));

    // Assign average ranks to tied groups.
    let mut rank_sum_pos = 0.0f64;
    let mut i = 0;
    while i < pairs.len() {
        let mut j = i;
        while j + 1 < pairs.len() && ties(pairs[j + 1].0, pairs[i].0) {
            j += 1;
        }
        // Ranks are 1-based; tied block [i, j] shares the average rank.
        let avg_rank = (i + j + 2) as f64 / 2.0;
        for p in &pairs[i..=j] {
            if p.1 {
                rank_sum_pos += avg_rank;
            }
        }
        i = j + 1;
    }
    let u = rank_sum_pos - n_pos as f64 * (n_pos as f64 + 1.0) / 2.0;
    u / (n_pos as f64 * n_neg as f64)
}

/// Average Precision: area under the precision–recall curve with the
/// step-wise interpolation scikit-learn uses,
/// `AP = Σ_k (R_k − R_{k−1}) · P_k` over *distinct score thresholds* — so
/// tied scores form one block and the result is independent of input
/// order. Returns 0.0 when there are no positives. Non-finite scores are
/// ranked by [`f32::total_cmp`] (and reported, see module docs).
pub fn average_precision(scores: &[f32], labels: &[bool]) -> f64 {
    assert_eq!(
        scores.len(),
        labels.len(),
        "average_precision: length mismatch"
    );
    note_nonfinite(scores, "average_precision");
    let n_pos = labels.iter().filter(|&&l| l).count();
    if n_pos == 0 {
        return 0.0;
    }
    let mut pairs: Vec<(f32, bool)> = scores.iter().copied().zip(labels.iter().copied()).collect();
    pairs.sort_by(|a, b| b.0.total_cmp(&a.0));
    let mut tp = 0usize;
    let mut seen = 0usize;
    let mut ap = 0.0f64;
    let mut i = 0;
    while i < pairs.len() {
        let mut j = i;
        let mut block_tp = 0usize;
        while j < pairs.len() && ties(pairs[j].0, pairs[i].0) {
            if pairs[j].1 {
                block_tp += 1;
            }
            j += 1;
        }
        tp += block_tp;
        seen = j;
        let precision = tp as f64 / seen as f64;
        ap += (block_tp as f64 / n_pos as f64) * precision;
        i = j;
    }
    let _ = seen;
    ap
}

/// Convenience for link prediction: positives scored `pos`, sampled
/// negatives scored `neg`; returns `(auc, ap)`.
pub fn link_prediction_metrics(pos: &[f32], neg: &[f32]) -> (f64, f64) {
    let scores: Vec<f32> = pos.iter().chain(neg.iter()).copied().collect();
    let labels: Vec<bool> = std::iter::repeat_n(true, pos.len())
        .chain(std::iter::repeat_n(false, neg.len()))
        .collect();
    (
        roc_auc(&scores, &labels),
        average_precision(&scores, &labels),
    )
}

/// Seeded property cases, shared with `cpdg-core`'s tests.
#[cfg(test)]
#[path = "../../core/tests/common/mod.rs"]
mod cases;

#[cfg(test)]
mod tests {
    use super::cases::{for_each_case, Lcg};
    use super::*;

    /// `lo..hi` scores, each uniform in `[min, max)`.
    fn scores(rng: &mut Lcg, lo: usize, hi: usize, min: f64, max: f64) -> Vec<f32> {
        (0..rng.index(lo, hi))
            .map(|_| rng.float(min, max) as f32)
            .collect()
    }

    #[test]
    fn perfect_ranking_gives_one() {
        let scores = [0.9, 0.8, 0.2, 0.1];
        let labels = [true, true, false, false];
        assert_eq!(roc_auc(&scores, &labels), 1.0);
        assert_eq!(average_precision(&scores, &labels), 1.0);
    }

    #[test]
    fn inverted_ranking_gives_zero_auc() {
        let scores = [0.1, 0.2, 0.8, 0.9];
        let labels = [true, true, false, false];
        assert_eq!(roc_auc(&scores, &labels), 0.0);
    }

    #[test]
    fn all_tied_scores_give_half_auc() {
        let scores = [0.5; 6];
        let labels = [true, false, true, false, true, false];
        assert!((roc_auc(&scores, &labels) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn single_class_degenerates_gracefully() {
        assert_eq!(roc_auc(&[0.1, 0.2], &[true, true]), 0.5);
        assert_eq!(average_precision(&[0.1, 0.2], &[false, false]), 0.0);
    }

    #[test]
    fn ap_hand_computed() {
        // Ranking: + - + → AP = (1/1 + 2/3) / 2 = 5/6.
        let scores = [0.9, 0.8, 0.7];
        let labels = [true, false, true];
        assert!((average_precision(&scores, &labels) - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn auc_hand_computed_with_tie() {
        // pos scores {0.8, 0.5}, neg {0.5, 0.2}: pairs (0.8 vs both: 2 wins),
        // (0.5 vs 0.5: tie = 0.5; 0.5 vs 0.2: win) → U = 3.5 / 4 = 0.875.
        let scores = [0.8, 0.5, 0.5, 0.2];
        let labels = [true, true, false, false];
        assert!((roc_auc(&scores, &labels) - 0.875).abs() < 1e-12);
    }

    #[test]
    fn ap_is_order_independent_under_ties() {
        // All scores tied: AP must equal the positive prevalence regardless
        // of how pos/neg are ordered in the input.
        let s1 = [0.5f32; 4];
        let l1 = [true, true, false, false];
        let l2 = [false, false, true, true];
        let a = average_precision(&s1, &l1);
        let b = average_precision(&s1, &l2);
        assert!((a - b).abs() < 1e-12);
        assert!(
            (a - 0.5).abs() < 1e-12,
            "tied AP should be prevalence, got {a}"
        );
    }

    #[test]
    fn nan_scores_do_not_panic_and_stay_in_unit_interval() {
        let scores = [0.9, f32::NAN, 0.2, f32::NAN];
        let labels = [true, true, false, false];
        let auc = roc_auc(&scores, &labels);
        assert!((0.0..=1.0).contains(&auc), "auc={auc}");
        let ap = average_precision(&scores, &labels);
        assert!((0.0..=1.0).contains(&ap), "ap={ap}");
        assert!(auc.is_finite() && ap.is_finite());
    }

    #[test]
    fn infinite_scores_rank_at_the_extremes() {
        // +inf positive outranks everything; -inf negative ranks last:
        // perfect separation despite non-finite values.
        let scores = [f32::INFINITY, 0.5, 0.4, f32::NEG_INFINITY];
        let labels = [true, true, false, false];
        assert_eq!(roc_auc(&scores, &labels), 1.0);
        assert_eq!(average_precision(&scores, &labels), 1.0);
    }

    #[test]
    fn all_nan_scores_degrade_gracefully() {
        let scores = [f32::NAN; 4];
        let labels = [true, false, true, false];
        let auc = roc_auc(&scores, &labels);
        assert!((0.0..=1.0).contains(&auc), "auc={auc}");
        let ap = average_precision(&scores, &labels);
        assert!((0.0..=1.0).contains(&ap), "ap={ap}");
    }

    #[test]
    fn nan_scores_form_one_tie_block() {
        // Like any tie: AUC ½ and AP equal to the prevalence, whatever
        // the input order.
        let scores = [f32::NAN; 4];
        let labels = [true, false, true, false];
        assert_eq!(roc_auc(&scores, &labels), 0.5);
        assert_eq!(average_precision(&scores, &labels), 0.5);
    }

    /// Captured `dgnn.metrics` records carrying a specific `metric` field
    /// value — lets assertions ignore warnings from concurrently running
    /// tests (the capture sink is process-global).
    fn records_with_metric(cap: &cpdg_obs::Capture, name: &str) -> Vec<cpdg_obs::Record> {
        cap.records_for("dgnn.metrics")
            .into_iter()
            .filter(|r| r.field("metric") == Some(&cpdg_obs::Json::Str(name.into())))
            .collect()
    }

    #[test]
    fn nonfinite_scores_are_counted_and_warned() {
        let cap = cpdg_obs::capture();
        let before = cpdg_obs::metrics::counter("metrics.nonfinite_scores").get();
        note_nonfinite(&[0.3, f32::NAN, f32::INFINITY], "probe_nonfinite");
        let after = cpdg_obs::metrics::counter("metrics.nonfinite_scores").get();
        assert!(
            after - before >= 2,
            "counter advanced by {}",
            after - before
        );
        let warns = records_with_metric(&cap, "probe_nonfinite");
        assert_eq!(warns.len(), 1, "{warns:?}");
        assert_eq!(warns[0].level, cpdg_obs::Level::Warn);
        assert_eq!(warns[0].field("nonfinite"), Some(&cpdg_obs::Json::U64(2)));
        assert_eq!(warns[0].field("total"), Some(&cpdg_obs::Json::U64(3)));
    }

    #[test]
    fn public_metrics_route_through_nonfinite_warning() {
        let cap = cpdg_obs::capture();
        roc_auc(&[0.3, f32::NAN], &[true, false]);
        average_precision(&[f32::INFINITY, 0.1], &[true, false]);
        assert!(!records_with_metric(&cap, "roc_auc").is_empty());
        assert!(!records_with_metric(&cap, "average_precision").is_empty());
    }

    #[test]
    fn finite_scores_do_not_warn() {
        let cap = cpdg_obs::capture();
        note_nonfinite(&[0.3, 0.7, -1.5], "probe_finite");
        assert!(records_with_metric(&cap, "probe_finite").is_empty());
    }

    #[test]
    fn link_prediction_wrapper() {
        let (auc, ap) = link_prediction_metrics(&[0.9, 0.8], &[0.1, 0.2]);
        assert_eq!(auc, 1.0);
        assert_eq!(ap, 1.0);
    }

    #[test]
    fn auc_in_unit_interval() {
        for_each_case(256, |rng| {
            let scores = scores(rng, 2, 50, -10.0, 10.0);
            let seed = rng.index(0, 1000) as u64;
            let labels: Vec<bool> = scores
                .iter()
                .enumerate()
                .map(|(i, _)| (i as u64).wrapping_mul(seed + 7).is_multiple_of(3))
                .collect();
            let auc = roc_auc(&scores, &labels);
            assert!((-1e-9..=1.0 + 1e-9).contains(&auc));
            let ap = average_precision(&scores, &labels);
            // Summation over tied blocks can overshoot 1 by float eps.
            assert!((-1e-9..=1.0 + 1e-6).contains(&ap));
        });
    }

    #[test]
    fn auc_invariant_to_monotone_transform() {
        for_each_case(256, |rng| {
            let scores = scores(rng, 4, 40, -5.0, 5.0);
            let labels: Vec<bool> = scores.iter().enumerate().map(|(i, _)| i % 2 == 0).collect();
            let a1 = roc_auc(&scores, &labels);
            let transformed: Vec<f32> = scores
                .iter()
                .map(|&s| (s * 0.3).tanh() * 2.0 + 1.0)
                .collect();
            let a2 = roc_auc(&transformed, &labels);
            assert!((a1 - a2).abs() < 1e-9);
        });
    }

    #[test]
    fn metrics_total_on_scores_with_nonfinite_holes() {
        for_each_case(256, |rng| {
            // Weighted 4:1:1:1 — a finite score, NaN, +inf, -inf.
            let scores: Vec<f32> = (0..rng.index(2, 60))
                .map(|_| match rng.index(0, 7) {
                    0..=3 => rng.float(-10.0, 10.0) as f32,
                    4 => f32::NAN,
                    5 => f32::INFINITY,
                    _ => f32::NEG_INFINITY,
                })
                .collect();
            let seed = rng.index(0, 1000) as u64;
            let labels: Vec<bool> = scores
                .iter()
                .enumerate()
                .map(|(i, _)| (i as u64).wrapping_mul(seed + 3).is_multiple_of(2))
                .collect();
            // Must return (not panic) and stay in range for ANY score mix.
            let auc = roc_auc(&scores, &labels);
            assert!((-1e-9..=1.0 + 1e-9).contains(&auc), "auc={auc}");
            let ap = average_precision(&scores, &labels);
            assert!((-1e-9..=1.0 + 1e-6).contains(&ap), "ap={ap}");
        });
    }

    #[test]
    fn auc_permutation_invariant() {
        for_each_case(256, |rng| {
            let scores = scores(rng, 6, 30, 0.0, 1.0);
            let labels: Vec<bool> = scores.iter().enumerate().map(|(i, _)| i % 3 == 0).collect();
            let a1 = roc_auc(&scores, &labels);
            // Reverse both in lockstep.
            let rs: Vec<f32> = scores.iter().rev().copied().collect();
            let rl: Vec<bool> = labels.iter().rev().copied().collect();
            assert!((a1 - roc_auc(&rs, &rl)).abs() < 1e-9);
        });
    }
}
