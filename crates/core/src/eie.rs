//! Evolution Information Enhanced (EIE) fine-tuning — paper §IV-C.
//!
//! During pre-training, `l` uniformly spaced memory checkpoints
//! `[S^1, …, S^l]` are recorded. At fine-tuning time they are fused per
//! node into evolution information `EI = f_EI([S^1, …, S^l])` (Eq. 18) —
//! with `f_EI` one of mean pooling, attention, or a GRU — transformed by a
//! two-layer MLP, and concatenated onto the downstream temporal embeddings
//! (Eq. 19): `Z_EIE = [Z_down ‖ MLP(EI)]`.
//!
//! Checkpoints are constants (pre-training artifacts); the fusion
//! parameters (attention/GRU) and the adapter MLP train with the
//! downstream task.

use cpdg_dgnn::MemorySnapshot;
use cpdg_graph::NodeId;
use cpdg_tensor::nn::{Activation, GruCell, Mlp, NeighborAttention};
use cpdg_tensor::{Forward, Matrix, ParamStore, Var};
use rand::Rng;

/// The checkpoint-sequence fusion `f_EI(·)` (Eq. 18).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EieFusion {
    /// Mean pooling over checkpoints (EIE-mean).
    Mean,
    /// Attention over checkpoints, queried by the latest one (EIE-attn).
    Attn,
    /// GRU scan over the checkpoint sequence (EIE-GRU — the paper's best).
    Gru,
}

impl EieFusion {
    /// Display name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            EieFusion::Mean => "EIE-mean",
            EieFusion::Attn => "EIE-attn",
            EieFusion::Gru => "EIE-GRU",
        }
    }

    /// All variants, in the paper's Table X order.
    pub fn all() -> [EieFusion; 3] {
        [EieFusion::Mean, EieFusion::Attn, EieFusion::Gru]
    }
}

/// The EIE module: fusion + adapter MLP.
#[derive(Debug, Clone)]
pub struct EieModule {
    fusion: EieFusion,
    mlp: Mlp,
    attn: Option<NeighborAttention>,
    gru: Option<GruCell>,
    dim: usize,
}

impl EieModule {
    /// Registers a new module under `name` for `dim`-wide memory states.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut (impl Rng + ?Sized),
        name: &str,
        dim: usize,
        fusion: EieFusion,
    ) -> Self {
        let mlp = Mlp::new(
            store,
            rng,
            &format!("{name}.adapter"),
            &[dim, dim, dim],
            Activation::Relu,
        );
        let attn = matches!(fusion, EieFusion::Attn).then(|| {
            NeighborAttention::new(store, rng, &format!("{name}.attn"), dim, dim, dim, dim)
        });
        let gru = matches!(fusion, EieFusion::Gru)
            .then(|| GruCell::new(store, rng, &format!("{name}.gru"), dim, dim));
        Self {
            fusion,
            mlp,
            attn,
            gru,
            dim,
        }
    }

    /// Which fusion this module applies.
    pub fn fusion(&self) -> EieFusion {
        self.fusion
    }

    /// Width of the enhanced embedding `[z ‖ MLP(EI)]`.
    pub fn enhanced_dim(&self) -> usize {
        2 * self.dim
    }

    /// Fuses the checkpoint sequence for `nodes` (Eq. 18), producing an
    /// `m × dim` variable.
    pub fn fuse<'s>(
        &self,
        ev: &mut impl Forward<'s>,
        store: &'s ParamStore,
        checkpoints: &[MemorySnapshot],
        nodes: &[NodeId],
    ) -> Var {
        assert!(!checkpoints.is_empty(), "EIE: need at least one checkpoint");
        assert!(!nodes.is_empty(), "EIE: empty node set");
        let idx: Vec<usize> = nodes.iter().map(|&n| n as usize).collect();
        match self.fusion {
            EieFusion::Mean => {
                let mut acc = Matrix::zeros(nodes.len(), self.dim);
                for cp in checkpoints {
                    acc.add_assign(&cp.states.gather_rows(&idx));
                }
                acc.scale_inplace(1.0 / checkpoints.len() as f32);
                ev.constant(acc)
            }
            EieFusion::Gru => {
                let gru = self.gru.as_ref().expect("gru fusion");
                let mut h = ev.constant(Matrix::zeros(nodes.len(), self.dim));
                for cp in checkpoints {
                    let x = ev.constant(cp.states.gather_rows(&idx));
                    h = gru.forward(ev, store, x, h);
                }
                h
            }
            EieFusion::Attn => {
                // Node j's checkpoint sequence is rows j·l..(j+1)·l of one
                // stack, queried by its latest checkpoint.
                let attn = self.attn.as_ref().expect("attn fusion");
                let l = checkpoints.len();
                let mut seq = Vec::with_capacity(nodes.len() * l * self.dim);
                for &i in &idx {
                    for cp in checkpoints {
                        seq.extend_from_slice(cp.states.row(i));
                    }
                }
                let kv = ev.constant(Matrix::from_vec(nodes.len() * l, self.dim, seq));
                let last = checkpoints.last().expect("non-empty");
                let q = ev.constant(last.states.gather_rows(&idx));
                let segments: Vec<_> = (0..nodes.len()).map(|j| j * l..(j + 1) * l).collect();
                attn.forward_rows(ev, store, q, kv, &segments)
            }
        }
    }

    /// Eq. 19: `Z_EIE = [z_down ‖ MLP(EI)]`, producing `m × 2·dim`.
    pub fn enhance<'s>(
        &self,
        ev: &mut impl Forward<'s>,
        store: &'s ParamStore,
        z_down: Var,
        ei: Var,
    ) -> Var {
        assert_eq!(
            ev.value(z_down).cols(),
            self.dim,
            "enhance: embedding width mismatch"
        );
        assert_eq!(ev.value(ei).cols(), self.dim, "enhance: EI width mismatch");
        let adapted = self.mlp.forward(ev, store, ei);
        ev.concat_cols(z_down, adapted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpdg_tensor::Tape;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn checkpoints(l: usize, n: usize, d: usize) -> Vec<MemorySnapshot> {
        (0..l)
            .map(|i| MemorySnapshot {
                states: Matrix::full(n, d, i as f32 + 1.0),
                progress: (i + 1) as f64 / l as f64,
            })
            .collect()
    }

    fn module(fusion: EieFusion, d: usize) -> (ParamStore, EieModule) {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let m = EieModule::new(&mut store, &mut rng, "eie", d, fusion);
        (store, m)
    }

    #[test]
    fn mean_fusion_is_exact_average() {
        let (store, m) = module(EieFusion::Mean, 4);
        let cps = checkpoints(3, 5, 4); // values 1, 2, 3 → mean 2
        let mut tape = Tape::new();
        let ei = m.fuse(&mut tape, &store, &cps, &[0, 4]);
        assert_eq!(tape.value(ei), &Matrix::full(2, 4, 2.0));
    }

    #[test]
    fn gru_fusion_shape_and_trainability() {
        let (store, m) = module(EieFusion::Gru, 4);
        let cps = checkpoints(5, 6, 4);
        let mut tape = Tape::new();
        let ei = m.fuse(&mut tape, &store, &cps, &[1, 2, 3]);
        assert_eq!(tape.value(ei).shape(), (3, 4));
        let loss = tape.mean_all(ei);
        let grads = tape.backward(loss);
        assert!(
            !tape.param_grads(&grads).is_empty(),
            "GRU fusion must be trainable"
        );
    }

    #[test]
    fn gru_fusion_depends_on_order() {
        let (store, m) = module(EieFusion::Gru, 4);
        let cps = checkpoints(3, 2, 4);
        let mut rev = cps.clone();
        rev.reverse();
        let mut tape = Tape::new();
        let a = m.fuse(&mut tape, &store, &cps, &[0]);
        let b = m.fuse(&mut tape, &store, &rev, &[0]);
        assert!(
            tape.value(a).max_abs_diff(tape.value(b)) > 1e-6,
            "GRU must be order-sensitive"
        );
    }

    #[test]
    fn attn_fusion_matches_per_node_attention_bitwise() {
        let (store, m) = module(EieFusion::Attn, 4);
        // Distinct values per node, checkpoint and column; node 2 repeats.
        let cps: Vec<MemorySnapshot> = (0..4)
            .map(|i| MemorySnapshot {
                states: Matrix::from_vec(
                    3,
                    4,
                    (0..12)
                        .map(|j| ((i * 12 + j) % 11) as f32 * 0.3 - 1.4)
                        .collect(),
                ),
                progress: (i + 1) as f64 / 4.0,
            })
            .collect();
        let nodes = [0, 2, 1, 2];
        let mut tape = Tape::new();
        let ei = m.fuse(&mut tape, &store, &cps, &nodes);
        assert_eq!(tape.value(ei).shape(), (4, 4));
        assert!(tape.value(ei).all_finite());
        let attn = m.attn.as_ref().expect("attn fusion");
        let bits = |r: &[f32]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (j, &n) in nodes.iter().enumerate() {
            let mut ref_tape = Tape::new();
            let rows: Vec<&[f32]> = cps.iter().map(|cp| cp.states.row(n as usize)).collect();
            let kv = ref_tape.constant(Matrix::from_rows(&rows));
            let q = ref_tape.constant(cps[3].states.row_matrix(n as usize));
            let whole = 0..cps.len();
            let row = attn.forward_rows(&mut ref_tape, &store, q, kv, &[whole]);
            assert_eq!(
                bits(ref_tape.value(row).row(0)),
                bits(tape.value(ei).row(j)),
                "node {n}"
            );
        }
    }

    #[test]
    fn enhance_concatenates() {
        let (store, m) = module(EieFusion::Mean, 4);
        assert_eq!(m.enhanced_dim(), 8);
        let cps = checkpoints(2, 3, 4);
        let mut tape = Tape::new();
        let ei = m.fuse(&mut tape, &store, &cps, &[0, 1, 2]);
        let z = tape.constant(Matrix::full(3, 4, 7.0));
        let zx = m.enhance(&mut tape, &store, z, ei);
        assert_eq!(tape.value(zx).shape(), (3, 8));
        // First half is the untouched downstream embedding.
        for r in 0..3 {
            assert_eq!(&tape.value(zx).row(r)[..4], &[7.0; 4]);
        }
    }

    #[test]
    #[should_panic(expected = "at least one checkpoint")]
    fn rejects_empty_checkpoints() {
        let (store, m) = module(EieFusion::Mean, 4);
        let mut tape = Tape::new();
        m.fuse(&mut tape, &store, &[], &[0]);
    }

    #[test]
    fn names_and_all() {
        assert_eq!(EieFusion::Gru.name(), "EIE-GRU");
        assert_eq!(EieFusion::all().len(), 3);
    }
}
