//! Incremental serving — the "no frequent retraining" story of the paper's
//! introduction, §I: in production, billions of interactions arrive in a
//! short interval, so retraining per task is impractical. Instead, a
//! pre-trained CPDG encoder *serves while it streams*: each arriving batch
//! updates node memory (no gradient work), and link scores are produced
//! on demand from the live memory.
//!
//! This example pre-trains on history, then replays the "live" tail of the
//! stream hour by hour, reporting rolling AUC and the memory drift — the
//! kind of loop an online recommender would run.
//!
//! ```text
//! cargo run --release --example incremental_serving
//! ```

// Examples narrate their results on stdout by design.
#![allow(clippy::disallowed_macros)]

use cpdg::core::pipeline::auto_time_scale;
use cpdg::core::pretrain::{pretrain, PretrainConfig};
use cpdg::core::tlp::forward_batch;
use cpdg::dgnn::metrics::link_prediction_metrics;
use cpdg::dgnn::{DgnnConfig, DgnnEncoder, EncoderKind, LinkPredictor, NegativeSampler};
use cpdg::graph::split::time_transfer;
use cpdg::graph::{generate, SyntheticConfig};
use cpdg::tensor::{optim::Adam, Eval, Forward, ParamStore};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let ds = generate(&SyntheticConfig::meituan_like(5).scaled(0.4));
    let split = time_transfer(&ds.graph, 0.6).expect("split");
    println!(
        "history: {} events | live stream: {} events",
        split.pretrain.num_events(),
        split.downstream.num_events()
    );

    // Offline: CPDG pre-training on history.
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(5);
    let dcfg = DgnnConfig::preset(EncoderKind::Tgn, 16, auto_time_scale(&split.pretrain));
    let mut encoder = DgnnEncoder::new(&mut store, &mut rng, "enc", ds.graph.num_nodes(), dcfg);
    let head = LinkPredictor::new(&mut store, &mut rng, "head", 16);
    let mut opt = Adam::new(2e-2);
    pretrain(
        &mut encoder,
        &head,
        &mut store,
        &mut opt,
        &split.pretrain,
        &PretrainConfig {
            epochs: 3,
            ..Default::default()
        },
    );
    println!("pre-training done; switching to serve-while-streaming mode\n");

    // Online: stream the live tail in windows; score each window's events
    // *before* applying them (true next-interaction prediction), then fold
    // them into memory. No parameter updates — frozen weights, live state.
    let live = &split.downstream;
    let sampler = NegativeSampler::from_graph(live);
    let mut srng = StdRng::seed_from_u64(77);
    let n_windows = 6;
    let per_window = live.num_events().div_ceil(n_windows);

    encoder.reset_state();
    println!(
        "{:<8} {:>8} {:>9} {:>12}",
        "window", "events", "AUC", "memory rms"
    );
    for (w, chunk) in live.events().chunks(per_window).enumerate() {
        let mut ev = Eval::new();
        let ctx = encoder.apply_pending(&mut ev, &store, live);
        let b = forward_batch(
            &mut ev, &encoder, &head, &store, &ctx, live, chunk, &sampler, &mut srng, None,
        );
        let (auc, _) = link_prediction_metrics(ev.value(b.pos).data(), ev.value(b.neg).data());

        encoder.commit(&ev, ctx, chunk);
        println!(
            "{:<8} {:>8} {:>9.4} {:>12.4}",
            format!("#{}", w + 1),
            chunk.len(),
            auc,
            encoder.memory.rms()
        );
    }
    println!("\nMemory keeps absorbing the live stream with zero retraining —");
    println!("re-run pre-training only when the rolling AUC drifts down.");
}
