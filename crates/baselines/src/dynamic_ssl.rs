//! Self-supervised *dynamic* baselines: DDGCL and SelfRGNN (§V-B).
//!
//! Both pre-train a memory-based DGNN encoder with their own objective and
//! are then fully fine-tuned like every other method.
//!
//! **DDGCL** contrasts two nearby temporal views of the same node identity
//! with a time-dependent similarity critic and a GAN-type (logistic) loss.
//! Here the "earlier view" of node `i` at event time `t` is its memory
//! state `s_i^{t−}` (its representation as of its previous interaction) and
//! the "current view" is the fresh temporal embedding `z_i^t`; the critic
//! is bilinear with a learnable time-decay gate `ψ(Δt) = σ(−λΔt̂)`.
//!
//! **SelfRGNN** (Riemannian self-contrastive learning with time-varying
//! curvature) is simplified to its active ingredient: a *negative-free*
//! curvature-reweighted self-consistency loss
//! `L = mean_i σ(−κΔt̂_i)·‖z_i^t − s_i^{t−}‖²` with learnable κ. Being
//! negative-free, the objective can collapse (κ → ∞ zeroes the loss
//! without shaping representations) — which honestly reproduces the
//! method's weak and occasionally unstable behaviour in the paper's
//! Tables V and VII (including the NaN entry).

use cpdg_dgnn::{train_step, DgnnEncoder};
use cpdg_graph::{DynamicGraph, NodeId, Timestamp};
use cpdg_tensor::nn::init::xavier_uniform;
use cpdg_tensor::optim::Adam;
use cpdg_tensor::{Forward, Matrix, ParamId, ParamStore, Tape};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::static_train::rows_dot;

/// Hyper-parameters of the dynamic self-supervised pre-trainers.
#[derive(Debug, Clone)]
pub struct DynSslConfig {
    /// Events per batch.
    pub batch_size: usize,
    /// Passes over the stream.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// Gradient clip.
    pub grad_clip: f32,
    /// Seed.
    pub seed: u64,
}

impl Default for DynSslConfig {
    fn default() -> Self {
        Self {
            batch_size: 200,
            epochs: 1,
            lr: 2e-2,
            grad_clip: 5.0,
            seed: 0,
        }
    }
}

/// DDGCL's learnable pieces: bilinear critic + time-decay rate.
pub struct DdgclCritic {
    w: ParamId,
    lambda: ParamId,
}

impl DdgclCritic {
    /// Registers the critic for `dim`-wide states.
    pub fn new(store: &mut ParamStore, rng: &mut StdRng, name: &str, dim: usize) -> Self {
        Self {
            w: store.register(format!("{name}.w"), xavier_uniform(rng, dim, dim)),
            lambda: store.register(format!("{name}.lambda"), Matrix::from_vec(1, 1, vec![0.1])),
        }
    }
}

/// DDGCL pre-training over `graph`. Returns per-epoch mean losses.
pub fn pretrain_ddgcl(
    encoder: &mut DgnnEncoder,
    critic: &DdgclCritic,
    store: &mut ParamStore,
    opt: &mut Adam,
    graph: &DynamicGraph,
    cfg: &DynSslConfig,
) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let time_scale = encoder.config().time_scale;
    let active: Vec<NodeId> = graph.active_nodes();
    let mut out = Vec::with_capacity(cfg.epochs);
    let mut tape = Tape::new();
    for _ in 0..cfg.epochs {
        encoder.reset_state();
        let mut total = 0.0f64;
        let mut batches = 0usize;
        for chunk in graph.events().chunks(cfg.batch_size.max(1)) {
            tape.reset();
            let ctx = encoder.apply_pending(&mut tape, store, graph);
            let srcs: Vec<NodeId> = chunk.iter().map(|e| e.src).collect();
            let times: Vec<Timestamp> = chunk.iter().map(|e| e.t).collect();
            let z = encoder.embed_many(&mut tape, store, &ctx, graph, &srcs, &times);

            // Earlier view: the node's own memory state; negative view:
            // a random other node's state.
            let earlier = tape.constant(encoder.node_repr_values(store, &srcs));
            let others: Vec<NodeId> = srcs
                .iter()
                .map(|_| active[rng.random_range(0..active.len())])
                .collect();
            let other_view = tape.constant(encoder.node_repr_values(store, &others));

            // Time-dependent gate ψ(Δt) = σ(−λ·Δt̂).
            let dts: Vec<f32> = srcs
                .iter()
                .zip(&times)
                .map(|(&n, &t)| ((t - encoder.memory.last_update(n)) / time_scale) as f32)
                .collect();
            let dt = tape.constant(Matrix::col_vec(dts));
            let lambda = tape.param(store, critic.lambda);
            let scaled = tape.matmul(dt, lambda);
            let neg_scaled = tape.scale(scaled, -1.0);
            let gate = tape.sigmoid(neg_scaled);

            // Bilinear critic, gated.
            let w = tape.param(store, critic.w);
            let zw = tape.matmul(z, w);
            let pos_raw = rows_dot(&mut tape, zw, earlier);
            let neg_raw = rows_dot(&mut tape, zw, other_view);
            let pos = tape.mul(pos_raw, gate);
            let neg = tape.mul(neg_raw, gate);

            let loss = cpdg_tensor::loss::link_prediction_loss(&mut tape, pos, neg);
            total += f64::from(tape.value(loss).get(0, 0));
            batches += 1;
            if let Ok(Some(update)) = train_step(&mut tape, loss, cfg.grad_clip, None) {
                update.apply(opt, store);
            }
            encoder.commit(&tape, ctx, chunk);
        }
        out.push((total / batches.max(1) as f64) as f32);
    }
    out
}

/// SelfRGNN's learnable curvature.
pub struct SelfRgnnCurvature {
    kappa: ParamId,
}

impl SelfRgnnCurvature {
    /// Registers the curvature scalar.
    pub fn new(store: &mut ParamStore, name: &str) -> Self {
        Self {
            kappa: store.register(format!("{name}.kappa"), Matrix::from_vec(1, 1, vec![0.1])),
        }
    }
}

/// SelfRGNN pre-training over `graph`. Returns per-epoch mean losses.
pub fn pretrain_selfrgnn(
    encoder: &mut DgnnEncoder,
    curv: &SelfRgnnCurvature,
    store: &mut ParamStore,
    opt: &mut Adam,
    graph: &DynamicGraph,
    cfg: &DynSslConfig,
) -> Vec<f32> {
    let time_scale = encoder.config().time_scale;
    let mut out = Vec::with_capacity(cfg.epochs);
    let mut tape = Tape::new();
    for _ in 0..cfg.epochs {
        encoder.reset_state();
        let mut total = 0.0f64;
        let mut batches = 0usize;
        for chunk in graph.events().chunks(cfg.batch_size.max(1)) {
            tape.reset();
            let ctx = encoder.apply_pending(&mut tape, store, graph);
            let srcs: Vec<NodeId> = chunk.iter().map(|e| e.src).collect();
            let times: Vec<Timestamp> = chunk.iter().map(|e| e.t).collect();
            let z = encoder.embed_many(&mut tape, store, &ctx, graph, &srcs, &times);
            let earlier = tape.constant(encoder.node_repr_values(store, &srcs));

            let dts: Vec<f32> = srcs
                .iter()
                .zip(&times)
                .map(|(&n, &t)| ((t - encoder.memory.last_update(n)) / time_scale) as f32)
                .collect();
            let dt = tape.constant(Matrix::col_vec(dts));
            let kappa = tape.param(store, curv.kappa);
            let scaled = tape.matmul(dt, kappa);
            let neg_scaled = tape.scale(scaled, -1.0);
            let weight = tape.sigmoid(neg_scaled);

            let sq = tape.sq_dist_rows(z, earlier);
            let weighted = tape.mul(weight, sq);
            let loss = tape.mean_all(weighted);
            total += f64::from(tape.value(loss).get(0, 0));
            batches += 1;
            if let Ok(Some(update)) = train_step(&mut tape, loss, cfg.grad_clip, None) {
                update.apply(opt, store);
            }
            encoder.commit(&tape, ctx, chunk);
        }
        out.push((total / batches.max(1) as f64) as f32);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpdg_dgnn::{DgnnConfig, EncoderKind};
    use cpdg_graph::{generate, SyntheticConfig};

    fn setup(seed: u64) -> (ParamStore, DgnnEncoder, DynamicGraph) {
        let ds = generate(
            &SyntheticConfig {
                n_events: 600,
                ..SyntheticConfig::amazon_like(seed)
            }
            .scaled(0.1),
        );
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let dcfg = DgnnConfig::preset(EncoderKind::Tgn, 8, 10_000.0);
        let enc = DgnnEncoder::new(&mut store, &mut rng, "enc", ds.graph.num_nodes(), dcfg);
        (store, enc, ds.graph)
    }

    #[test]
    fn ddgcl_pretraining_descends() {
        let (mut store, mut enc, graph) = setup(0);
        let mut rng = StdRng::seed_from_u64(0);
        let critic = DdgclCritic::new(&mut store, &mut rng, "critic", 8);
        let mut opt = Adam::new(2e-2);
        let cfg = DynSslConfig {
            epochs: 3,
            batch_size: 100,
            ..Default::default()
        };
        let losses = pretrain_ddgcl(&mut enc, &critic, &mut store, &mut opt, &graph, &cfg);
        assert_eq!(losses.len(), 3);
        assert!(losses.iter().all(|l| l.is_finite()));
        assert!(
            losses.last().unwrap() <= losses.first().unwrap(),
            "{losses:?}"
        );
    }

    #[test]
    fn selfrgnn_pretraining_runs_finite() {
        let (mut store, mut enc, graph) = setup(1);
        let curv = SelfRgnnCurvature::new(&mut store, "curv");
        let mut opt = Adam::new(2e-2);
        let cfg = DynSslConfig {
            epochs: 2,
            batch_size: 100,
            ..Default::default()
        };
        let losses = pretrain_selfrgnn(&mut enc, &curv, &mut store, &mut opt, &graph, &cfg);
        assert!(losses.iter().all(|l| l.is_finite()), "{losses:?}");
    }

    #[test]
    fn ddgcl_updates_encoder_memory() {
        let (mut store, mut enc, graph) = setup(2);
        let mut rng = StdRng::seed_from_u64(2);
        let critic = DdgclCritic::new(&mut store, &mut rng, "critic", 8);
        let mut opt = Adam::new(1e-2);
        let cfg = DynSslConfig {
            epochs: 1,
            batch_size: 100,
            ..Default::default()
        };
        pretrain_ddgcl(&mut enc, &critic, &mut store, &mut opt, &graph, &cfg);
        assert!(enc.memory.rms() > 0.0);
    }
}
