//! The Adam optimiser over a [`ParamStore`] and global-norm gradient
//! clipping.

use crate::matrix::Matrix;
use crate::param::{ParamId, ParamStore};
use std::collections::HashMap;

/// Clips gradients by global L2 norm, returning the pre-clip norm.
pub fn clip_global_norm(grads: &mut [(ParamId, Matrix)], max_norm: f32) -> f32 {
    let total: f32 = grads
        .iter()
        .map(|(_, g)| g.data().iter().map(|&x| x * x).sum::<f32>())
        .sum::<f32>()
        .sqrt();
    if total > max_norm && total > 0.0 {
        let s = max_norm / total;
        for (_, g) in grads.iter_mut() {
            g.scale_inplace(s);
        }
    }
    total
}

/// Adam (Kingma & Ba) with bias correction and optional decoupled weight
/// decay. Per-parameter moment state is allocated lazily on first touch, so
/// one optimiser can serve a store that grows (e.g. when a downstream head
/// is added at fine-tuning time).
///
/// [`Adam::moments`] lists the moment state sorted by parameter index, the
/// order a training checkpoint writes, so checkpoints are byte-stable and
/// restore exactly through [`Adam::set_moments`].
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical stabiliser.
    pub eps: f32,
    /// Decoupled (AdamW-style) weight decay; 0 disables.
    pub weight_decay: f32,
    state: HashMap<ParamId, AdamState>,
}

#[derive(Debug, Clone)]
struct AdamState {
    m: Matrix,
    v: Matrix,
    t: u64,
}

/// One parameter's moment state: `(parameter index, m, v, step count)`.
pub type AdamMoments = (usize, Matrix, Matrix, u64);

impl Adam {
    /// Adam with the standard (0.9, 0.999, 1e-8) moments and no decay.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            state: HashMap::new(),
        }
    }

    /// The moment state, sorted by parameter index.
    pub fn moments(&self) -> Vec<AdamMoments> {
        let mut moments: Vec<AdamMoments> = self
            .state
            .iter()
            .map(|(id, s)| (id.index(), s.m.clone(), s.v.clone(), s.t))
            .collect();
        moments.sort_by_key(|(index, ..)| *index);
        moments
    }

    /// Replaces the moment state with `moments`, as [`Adam::moments`]
    /// lists it.
    pub fn set_moments(&mut self, moments: Vec<AdamMoments>) {
        self.state = moments
            .into_iter()
            .map(|(index, m, v, t)| (ParamId(index), AdamState { m, v, t }))
            .collect();
    }

    /// Builder-style weight decay.
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    /// Applies one Adam step.
    pub fn step(&mut self, store: &mut ParamStore, grads: &[(ParamId, Matrix)]) {
        for (id, g) in grads {
            let shape = g.shape();
            let st = self.state.entry(*id).or_insert_with(|| AdamState {
                m: Matrix::zeros(shape.0, shape.1),
                v: Matrix::zeros(shape.0, shape.1),
                t: 0,
            });
            st.t += 1;
            let bc1 = 1.0 - self.beta1.powi(st.t as i32);
            let bc2 = 1.0 - self.beta2.powi(st.t as i32);
            let p = store.value_mut(*id);
            for i in 0..g.len() {
                let gv = g.data()[i];
                let m = &mut st.m.data_mut()[i];
                *m = self.beta1 * *m + (1.0 - self.beta1) * gv;
                let v = &mut st.v.data_mut()[i];
                *v = self.beta2 * *v + (1.0 - self.beta2) * gv * gv;
                let m_hat = *m / bc1;
                let v_hat = *v / bc2;
                let w = &mut p.data_mut()[i];
                *w -= self.lr * (m_hat / (v_hat.sqrt() + self.eps) + self.weight_decay * *w);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;
    use crate::Forward;

    /// Minimises f(w) = (w − 3)² with the given step closure; returns w.
    fn minimise(
        mut step: impl FnMut(&mut ParamStore, Vec<(ParamId, Matrix)>),
        iters: usize,
    ) -> f32 {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::from_vec(1, 1, vec![0.0]));
        for _ in 0..iters {
            let mut tape = Tape::new();
            let wv = tape.param(&store, w);
            let target = tape.constant(Matrix::from_vec(1, 1, vec![3.0]));
            let diff = tape.sub(wv, target);
            let sq = tape.mul(diff, diff);
            let loss = tape.sum_all(sq);
            let grads = tape.backward(loss);
            let pg = tape.param_grads(&grads);
            step(&mut store, pg);
        }
        store.value(w).get(0, 0)
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.1);
        let w = minimise(|s, g| opt.step(s, &g), 300);
        assert!((w - 3.0).abs() < 1e-2, "adam converged to {w}");
    }

    #[test]
    fn adam_weight_decay_shrinks_unused_weights() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::from_vec(1, 1, vec![1.0]));
        let mut opt = Adam::new(0.01).with_weight_decay(0.5);
        // Zero gradient: only decay acts.
        for _ in 0..10 {
            opt.step(&mut store, &[(w, Matrix::zeros(1, 1))]);
        }
        assert!(store.value(w).get(0, 0) < 1.0);
    }

    #[test]
    fn adam_state_round_trips_through_its_moments() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::from_vec(1, 1, vec![0.0]));
        let mut opt = Adam::new(0.1).with_weight_decay(0.01);
        for _ in 0..5 {
            opt.step(&mut store, &[(w, Matrix::ones(1, 1))]);
        }
        let mut back = Adam::new(opt.lr).with_weight_decay(opt.weight_decay);
        back.set_moments(opt.moments());
        assert_eq!(back.lr, opt.lr);
        assert_eq!(back.weight_decay, opt.weight_decay);
        // One more identical step from both copies lands on identical weights:
        // the moment state survived the round trip bit-for-bit.
        let mut store2 = store.clone();
        opt.step(&mut store, &[(w, Matrix::ones(1, 1))]);
        back.step(&mut store2, &[(w, Matrix::ones(1, 1))]);
        assert_eq!(store.value(w), store2.value(w));
    }

    #[test]
    fn clip_global_norm_scales_down() {
        let id = ParamId(0);
        let mut grads = vec![(id, Matrix::from_vec(1, 2, vec![3.0, 4.0]))];
        let pre = clip_global_norm(&mut grads, 1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        let post: f32 = grads[0].1.data().iter().map(|&x| x * x).sum::<f32>().sqrt();
        assert!((post - 1.0).abs() < 1e-5);
    }

    #[test]
    fn clip_global_norm_no_op_under_threshold() {
        let id = ParamId(0);
        let mut grads = vec![(id, Matrix::from_vec(1, 2, vec![0.3, 0.4]))];
        clip_global_norm(&mut grads, 1.0);
        assert_eq!(grads[0].1, Matrix::from_vec(1, 2, vec![0.3, 0.4]));
    }
}
