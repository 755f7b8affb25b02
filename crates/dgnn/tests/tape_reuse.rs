//! One tape reset across training steps against a fresh tape per step.
//!
//! A reset tape writes each value into the buffer its slot held in the
//! previous step and takes its gradients from its free list; the
//! arithmetic is the fresh tape's. These tests train each encoder family
//! over steps whose row counts differ (one smaller than the step before
//! it) with a guard-skipped step among them, and check that the losses,
//! the parameter gradients and the parameters match bit for bit.

use cpdg_dgnn::{
    train_step, DgnnConfig, DgnnEncoder, EncoderKind, GuardConfig, LinkPredictor, NegativeSampler,
    TrainGuard,
};
use cpdg_graph::{graph_from_triples, DynamicGraph, NodeId, Timestamp};
use cpdg_tensor::loss::link_prediction_loss;
use cpdg_tensor::optim::Adam;
use cpdg_tensor::{Forward, ParamStore, Tape};
use rand::rngs::StdRng;
use rand::SeedableRng;

const NODES: usize = 60;

/// Event counts of the steps: each differs from the last, the third is
/// smaller than the second.
const STEPS: [usize; 5] = [30, 70, 20, 45, 35];

/// The step whose loss is poisoned, so the guard skips it.
const POISONED: usize = 3;

/// A seeded stream of `STEPS`' total length.
fn stream() -> DynamicGraph {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = |n: usize| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) % n as u64) as NodeId
    };
    let triples: Vec<(NodeId, NodeId, Timestamp)> = (0..STEPS.iter().sum::<usize>())
        .map(|i| {
            let src = next(NODES);
            let dst = (src + 1 + next(NODES - 1)) % NODES as NodeId;
            (src, dst, 1.0 + i as f64)
        })
        .collect();
    graph_from_triples(NODES, &triples).unwrap()
}

/// Bits of every loss, every step's parameter gradients, and the final
/// parameters of a guarded link-prediction run, with one tape reset per
/// step when `reuse` is set and a fresh tape per step otherwise.
fn train(kind: EncoderKind, reuse: bool) -> (Vec<u32>, Vec<Vec<u32>>, Vec<Vec<u32>>) {
    let graph = stream();
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(11);
    let cfg = DgnnConfig::preset(kind, 16, 20.0);
    let mut enc = DgnnEncoder::new(&mut store, &mut rng, "enc", NODES, cfg);
    let head = LinkPredictor::new(&mut store, &mut rng, "head", 16);
    let mut opt = Adam::new(1e-2);
    let mut guard = TrainGuard::new(GuardConfig::default());
    let sampler = NegativeSampler::from_graph(&graph);
    let (mut losses, mut grads) = (Vec::new(), Vec::new());
    let mut tape = Tape::new();
    let mut start = 0;
    for (step, &len) in STEPS.iter().enumerate() {
        let chunk = &graph.events()[start..start + len];
        start += len;
        if reuse {
            tape.reset();
        } else {
            tape = Tape::new();
        }
        let ctx = enc.apply_pending(&mut tape, &store, &graph);
        let srcs: Vec<NodeId> = chunk.iter().map(|e| e.src).collect();
        let dsts: Vec<NodeId> = chunk.iter().map(|e| e.dst).collect();
        let times: Vec<Timestamp> = chunk.iter().map(|e| e.t).collect();
        let negs: Vec<NodeId> = chunk.iter().map(|_| sampler.sample(&mut rng)).collect();
        let z_src = enc.embed_many(&mut tape, &store, &ctx, &graph, &srcs, &times);
        let z_dst = enc.embed_many(&mut tape, &store, &ctx, &graph, &dsts, &times);
        let z_neg = enc.embed_many(&mut tape, &store, &ctx, &graph, &negs, &times);
        let pos = head.score(&mut tape, &store, z_src, z_dst);
        let neg = head.score(&mut tape, &store, z_src, z_neg);
        let mut loss = link_prediction_loss(&mut tape, pos, neg);
        if step == POISONED {
            loss = tape.scale(loss, f32::NAN);
        }
        losses.push(tape.value(loss).get(0, 0).to_bits());
        // A first reverse pass for the gradients, handed back; the step's
        // own pass then runs on the buffers it left.
        let pass = tape.backward(loss);
        let pg = tape.param_grads(&pass);
        tape.recycle(pass);
        grads.push(
            pg.iter()
                .flat_map(|(id, g)| {
                    std::iter::once(id.index() as u32).chain(g.data().iter().map(|x| x.to_bits()))
                })
                .collect(),
        );
        match train_step(&mut tape, loss, 1.0, Some((&mut guard, step))).unwrap() {
            Some(update) => {
                update.apply(&mut opt, &mut store);
                enc.commit(&tape, ctx, chunk);
            }
            None => enc.skip_commit(chunk),
        }
    }
    assert_eq!(guard.skipped(), 1, "the poisoned step is skipped");
    let params = store
        .ids()
        .map(|id| store.value(id).data().iter().map(|x| x.to_bits()).collect())
        .collect();
    (losses, grads, params)
}

fn assert_reuse_is_bit_identical(kind: EncoderKind) {
    let (fresh, reused) = (train(kind, false), train(kind, true));
    assert_eq!(fresh.0, reused.0, "{kind:?}: losses");
    assert_eq!(fresh.1, reused.1, "{kind:?}: parameter gradients");
    assert_eq!(fresh.2, reused.2, "{kind:?}: parameters");
}

#[test]
fn a_reset_tgn_tape_trains_bit_identically_to_fresh_tapes() {
    assert_reuse_is_bit_identical(EncoderKind::Tgn);
}

#[test]
fn a_reset_jodie_tape_trains_bit_identically_to_fresh_tapes() {
    assert_reuse_is_bit_identical(EncoderKind::Jodie);
}

#[test]
fn a_reset_dyrep_tape_trains_bit_identically_to_fresh_tapes() {
    assert_reuse_is_bit_identical(EncoderKind::DyRep);
}
