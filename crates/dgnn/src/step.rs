//! The one optimisation step of every training loop: backward, clip,
//! optionally the guard's verdict, then Adam. It stops at the verdict, so
//! a caller can act between the verdict and the first parameter write.

use crate::guard::{DivergenceReport, StepVerdict, TrainGuard};
use cpdg_tensor::optim::{clip_global_norm, Adam};
use cpdg_tensor::{Matrix, ParamId, ParamStore, Tape, Var};

/// The clipped gradients of a step that may be applied.
#[must_use = "an update writes nothing until it is applied"]
pub struct Update {
    grads: Vec<(ParamId, Matrix)>,
    lr_scale: f32,
}

impl Update {
    /// One Adam step at `opt.lr` times the guard's learning-rate scale
    /// (1 for an unguarded step); `opt.lr` is unchanged afterwards.
    pub fn apply(self, opt: &mut Adam, store: &mut ParamStore) {
        let base_lr = opt.lr;
        opt.lr = base_lr * self.lr_scale;
        opt.step(store, &self.grads);
        opt.lr = base_lr;
    }
}

/// Backward of `loss`, its parameter gradients clipped to `max_norm`
/// (`f32::INFINITY` clips nothing), and with `Some((guard, step))` the
/// guard's verdict on the loss and pre-clip norm: `Ok(None)` skips the
/// step, `Err` is the guard's divergence report. Unguarded steps always
/// yield `Ok(Some(update))`. Once the parameter gradients are copied out,
/// the pass's buffers go back to `tape` for its next step.
pub fn train_step(
    tape: &mut Tape,
    loss: Var,
    max_norm: f32,
    guard: Option<(&mut TrainGuard, usize)>,
) -> Result<Option<Update>, DivergenceReport> {
    let pass = tape.backward(loss);
    let mut grads = tape.param_grads(&pass);
    tape.recycle(pass);
    let pre_norm = clip_global_norm(&mut grads, max_norm);
    let lr_scale = match guard {
        None => 1.0,
        Some((guard, step)) => match guard.inspect(step, tape.value(loss).get(0, 0), pre_norm)? {
            StepVerdict::Proceed => guard.lr_scale(),
            StepVerdict::Skip => return Ok(None),
        },
    };
    Ok(Some(Update { grads, lr_scale }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::GuardConfig;
    use cpdg_tensor::Forward;

    /// A store of two parameters and a loss over them: the squared error
    /// of `x·W + b` against a fixed target, scaled by `gain`.
    struct Problem {
        store: ParamStore,
        w: ParamId,
        b: ParamId,
    }

    impl Problem {
        fn new() -> Self {
            let mut store = ParamStore::new();
            let w = store.register("w", Matrix::from_vec(2, 2, vec![0.5, -0.25, 1.5, 0.75]));
            let b = store.register("b", Matrix::from_vec(1, 2, vec![0.1, -0.2]));
            Self { store, w, b }
        }

        fn record(&self, tape: &mut Tape, gain: f32) -> Var {
            let x = tape.constant(Matrix::from_vec(3, 2, vec![1.0, 2.0, -1.0, 0.5, 3.0, -2.0]));
            let w = tape.param(&self.store, self.w);
            let b = tape.param(&self.store, self.b);
            let y = tape.affine(x, w, b);
            let target = tape.constant(Matrix::from_vec(3, 2, vec![0.0, 1.0, 2.0, -1.0, 0.5, 0.5]));
            let diff = tape.sub(y, target);
            let sq = tape.mul(diff, diff);
            let sum = tape.sum_all(sq);
            tape.scale(sum, gain)
        }
    }

    /// The reference sequence [`train_step`] and [`Update::apply`] must
    /// reproduce: backward, gradients, clip, then Adam at
    /// `opt.lr * lr_scale`.
    fn by_hand(problem: &mut Problem, opt: &mut Adam, gain: f32, max_norm: f32, lr_scale: f32) {
        let mut tape = Tape::new();
        let loss = problem.record(&mut tape, gain);
        let grads = tape.backward(loss);
        let mut pg = tape.param_grads(&grads);
        clip_global_norm(&mut pg, max_norm);
        let base_lr = opt.lr;
        opt.lr = base_lr * lr_scale;
        opt.step(&mut problem.store, &pg);
        opt.lr = base_lr;
    }

    fn stepped(
        problem: &mut Problem,
        opt: &mut Adam,
        gain: f32,
        max_norm: f32,
        guard: Option<(&mut TrainGuard, usize)>,
    ) -> Result<bool, DivergenceReport> {
        let mut tape = Tape::new();
        let loss = problem.record(&mut tape, gain);
        let update = train_step(&mut tape, loss, max_norm, guard)?;
        let proceeded = update.is_some();
        if let Some(update) = update {
            update.apply(opt, &mut problem.store);
        }
        Ok(proceeded)
    }

    /// The loss and pre-clip gradient norm a step at `gain` shows its guard.
    fn observed(problem: &Problem, gain: f32) -> (f32, f32) {
        let mut tape = Tape::new();
        let loss = problem.record(&mut tape, gain);
        let grads = tape.backward(loss);
        let mut pg = tape.param_grads(&grads);
        (
            tape.value(loss).get(0, 0),
            clip_global_norm(&mut pg, f32::INFINITY),
        )
    }

    fn assert_same(a: (&Problem, &Adam), b: (&Problem, &Adam)) {
        assert_eq!(a.0.store.value(a.0.w), b.0.store.value(b.0.w));
        assert_eq!(a.0.store.value(a.0.b), b.0.store.value(b.0.b));
        let (ma, mb) = (a.1.moments(), b.1.moments());
        assert_eq!(ma.len(), mb.len());
        for (x, y) in ma.iter().zip(&mb) {
            assert_eq!((x.0, x.3), (y.0, y.3));
            assert_eq!((&x.1, &x.2), (&y.1, &y.2));
        }
        assert_eq!(a.1.lr.to_bits(), b.1.lr.to_bits());
    }

    #[test]
    fn an_unguarded_step_matches_the_hand_written_sequence() {
        let (mut p, mut q) = (Problem::new(), Problem::new());
        let (mut opt_p, mut opt_q) = (Adam::new(0.05), Adam::new(0.05));
        // Clip at 1 so the clip scales the gradients on every step.
        for _ in 0..4 {
            by_hand(&mut p, &mut opt_p, 1.0, 1.0, 1.0);
            assert!(stepped(&mut q, &mut opt_q, 1.0, 1.0, None).unwrap());
        }
        assert_same((&p, &opt_p), (&q, &opt_q));
        assert_ne!(p.store.value(p.w), Problem::new().store.value(p.w));
    }

    #[test]
    fn a_guarded_proceed_runs_at_the_scaled_rate_and_restores_it() {
        let mut guard = TrainGuard::new(GuardConfig::default());
        // Two poisoned steps back the scale off; the next healthy one
        // recovers it only part of the way.
        guard.inspect(0, f32::NAN, 1.0).unwrap();
        guard.inspect(1, f32::NAN, 1.0).unwrap();
        let mut witness = guard.clone();
        witness.inspect(2, 1.0, 1.0).unwrap();
        let scale = witness.lr_scale();
        assert!(scale < 1.0, "scale {scale}");

        let (mut p, mut q) = (Problem::new(), Problem::new());
        let (mut opt_p, mut opt_q) = (Adam::new(0.05), Adam::new(0.05));
        by_hand(&mut p, &mut opt_p, 1.0, 10.0, scale);
        assert!(stepped(&mut q, &mut opt_q, 1.0, 10.0, Some((&mut guard, 2))).unwrap());
        assert_same((&p, &opt_p), (&q, &opt_q));
        assert_eq!(opt_q.lr, 0.05);
        assert_eq!(guard.lr_scale(), scale);

        // The full-rate step differs, so the scale really reached Adam.
        let (mut r, mut opt_r) = (Problem::new(), Adam::new(0.05));
        by_hand(&mut r, &mut opt_r, 1.0, 10.0, 1.0);
        assert_ne!(r.store.value(r.w), q.store.value(q.w));
    }

    #[test]
    fn a_skipped_step_writes_nothing() {
        let mut guard = TrainGuard::new(GuardConfig::default());
        let (mut p, mut opt_p) = (Problem::new(), Adam::new(0.05));
        by_hand(&mut p, &mut opt_p, 1.0, 1.0, 1.0);
        let (mut q, mut opt_q) = (Problem::new(), Adam::new(0.05));
        by_hand(&mut q, &mut opt_q, 1.0, 1.0, 1.0);
        // A NaN loss: the guard skips, and neither the store nor the
        // moments move.
        assert!(!stepped(&mut q, &mut opt_q, f32::NAN, 1.0, Some((&mut guard, 1))).unwrap());
        assert_same((&p, &opt_p), (&q, &opt_q));
        assert_eq!(guard.skipped(), 1);
    }

    #[test]
    fn a_diverging_run_returns_the_guards_report() {
        let cfg = GuardConfig {
            max_retries: 2,
            ..GuardConfig::default()
        };
        let (mut guard, mut witness) = (TrainGuard::new(cfg.clone()), TrainGuard::new(cfg));
        let (mut p, mut opt) = (Problem::new(), Adam::new(0.05));
        // One healthy step, then infinite losses until the budget of two
        // poisoned steps in a row is spent. The witness guard sees the
        // same loss and pre-clip norm as the step function's guard.
        let gains = [1.0, f32::INFINITY, f32::INFINITY, f32::INFINITY];
        for (step, &gain) in gains.iter().enumerate().take(3) {
            let (loss, norm) = observed(&p, gain);
            let verdict = witness.inspect(step, loss, norm).unwrap();
            let proceeded = stepped(&mut p, &mut opt, gain, 1.0, Some((&mut guard, step))).unwrap();
            assert_eq!(proceeded, verdict == StepVerdict::Proceed);
        }
        let before = p.store.clone();
        let (loss, norm) = observed(&p, gains[3]);
        let expected = witness.inspect(3, loss, norm).unwrap_err();
        let report = stepped(&mut p, &mut opt, gains[3], 1.0, Some((&mut guard, 3))).unwrap_err();
        assert_eq!((report.step, report.consecutive_bad), (3, 3));
        assert_eq!(
            (report.step, report.consecutive_bad),
            (expected.step, expected.consecutive_bad)
        );
        assert_eq!(report.last_loss.to_bits(), expected.last_loss.to_bits());
        assert_eq!(
            report.last_grad_norm.to_bits(),
            expected.last_grad_norm.to_bits()
        );
        assert_eq!(report.loss_history, expected.loss_history);
        assert_eq!(report.loss_history.len(), 1);
        assert_eq!(p.store.value(p.w), before.value(p.w));
    }

    #[test]
    fn clipping_at_infinity_clips_nothing() {
        let (mut p, mut q) = (Problem::new(), Problem::new());
        let (mut opt_p, mut opt_q) = (Adam::new(0.05), Adam::new(0.05));
        for _ in 0..3 {
            // Large gradients: any finite clip would scale them.
            let mut tape = Tape::new();
            let loss = p.record(&mut tape, 1e6);
            let grads = tape.backward(loss);
            let pg = tape.param_grads(&grads);
            opt_p.step(&mut p.store, &pg);
            assert!(stepped(&mut q, &mut opt_q, 1e6, f32::INFINITY, None).unwrap());
        }
        assert_same((&p, &opt_p), (&q, &opt_q));
    }
}
