//! Allocation counts of the serving forward, and of the training tape's
//! large buffers, pinned exactly.
//!
//! A counting global allocator tallies every `alloc`, `alloc_zeroed` and
//! `realloc` per thread, and separately those of at least 64 KiB, so tests
//! running in parallel do not leak into each other's counts. The tests
//! count and never time: a changed count means the buffers changed, which
//! these pins make a visible, deliberate decision.

use cpdg_dgnn::{DgnnConfig, DgnnEncoder, EncoderKind};
use cpdg_graph::{graph_from_triples, DynamicGraph, Interaction, NodeId, Timestamp};
use cpdg_tensor::{Forward, ParamStore, Tape};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LARGE: Cell<u64> = const { Cell::new(0) };
}

/// Size from which an allocation counts as large.
const LARGE_BYTES: usize = 64 << 10;

/// Counts one allocation call that asks for `grown` new bytes.
fn bump(grown: usize) {
    // `try_with`: the slot is gone while a thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    if grown >= LARGE_BYTES {
        let _ = LARGE.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call forwards to `System` unchanged; the count is a
// thread-local `Cell`, which neither allocates nor blocks.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A shrink asks for no memory, so it is never a large allocation.
        bump(if new_size > layout.size() {
            new_size
        } else {
            0
        });
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations `f` makes on this thread, its result dropped included.
fn allocations<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    drop(f());
    ALLOCATIONS.with(Cell::get) - before
}

/// Allocations of at least [`LARGE_BYTES`] that `f` makes on this thread.
fn large_allocations(f: impl FnOnce()) -> u64 {
    let before = LARGE.with(Cell::get);
    f();
    LARGE.with(Cell::get) - before
}

const NODES: usize = 200;

/// A TGN encoder at the serving width (32) over a seeded 600-event stream,
/// replayed one event per batch as serving ingests it, with the last event
/// pending: one event, so two dirty rows.
fn serving_encoder() -> (ParamStore, DgnnEncoder, DynamicGraph) {
    let mut state = 0x243f_6a88_85a3_08d3u64;
    let mut next = |n: usize| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) % n as u64) as NodeId
    };
    let triples: Vec<(NodeId, NodeId, Timestamp)> = (0..600)
        .map(|i| {
            let src = next(NODES);
            let dst = (src + 1 + next(NODES - 1)) % NODES as NodeId;
            (src, dst, 1.0 + i as f64)
        })
        .collect();
    let graph = graph_from_triples(NODES, &triples).unwrap();
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(7);
    let cfg = DgnnConfig::preset(EncoderKind::Tgn, 32, 50.0);
    let mut enc = DgnnEncoder::new(&mut store, &mut rng, "enc", NODES, cfg);
    let events: Vec<Interaction> = graph.events().to_vec();
    let (last, stream) = events.split_last().unwrap();
    for event in stream {
        let states = enc.pending_states(&store, &graph);
        enc.commit_states(states, std::slice::from_ref(event));
    }
    let states = enc.pending_states(&store, &graph);
    enc.commit_states(states, std::slice::from_ref(last));
    assert_eq!(enc.pending_len(), 1);
    (store, enc, graph)
}

#[test]
fn single_event_tgn_pending_states_allocations_are_pinned() {
    let (store, enc, graph) = serving_encoder();
    // The first call registers the process-wide counters it bumps.
    drop(enc.pending_states(&store, &graph));
    let counts: Vec<u64> = (0..3)
        .map(|_| allocations(|| enc.pending_states(&store, &graph)))
        .collect();
    assert_eq!(counts, [25; 3], "single-event TGN pending_states");
}

#[test]
fn eight_query_infer_rows_allocations_are_pinned() {
    let (store, enc, graph) = serving_encoder();
    let pending = enc.pending_states(&store, &graph);
    // The pending batch is the last event alone.
    let last = graph.events().last().unwrap();
    let endpoints = [last.src.min(last.dst), last.src.max(last.dst)];
    // Both dirty nodes, then six clean ones, each attending over itself and
    // its recent neighbours.
    let mut nodes: Vec<NodeId> = endpoints.to_vec();
    nodes.extend(
        (0..NODES as NodeId)
            .filter(|n| !endpoints.contains(n))
            .take(6),
    );
    let times = [700.0; 8];
    let infer = || enc.infer_rows(&store, &pending, &graph, &nodes, &times);
    drop(infer());
    let counts: Vec<u64> = (0..3).map(|_| allocations(infer)).collect();
    assert_eq!(counts, [23; 3], "8-query infer_rows");
}

#[test]
fn a_reset_tape_records_a_same_shaped_step_without_large_allocations() {
    let (store, enc, graph) = serving_encoder();
    let events = &graph.events()[400..600];
    let srcs: Vec<NodeId> = events.iter().map(|e| e.src).collect();
    let times: Vec<Timestamp> = events.iter().map(|e| e.t).collect();
    let record = |tape: &mut Tape| {
        tape.reset();
        let ctx = enc.apply_pending(tape, &store, &graph);
        let z = enc.embed_many(tape, &store, &ctx, &graph, &srcs, &times);
        tape.mean_all(z)
    };
    let differentiate = |tape: &mut Tape, loss| {
        let grads = tape.backward(loss);
        tape.recycle(grads);
    };
    let mut tape = Tape::new();
    // The first recording and its reverse pass allocate the step's large
    // value and gradient buffers. A second recording of the same shape
    // writes every value into the buffer its slot held; its one large
    // allocation is the attention's transposed keys, a scratch buffer the
    // free list no longer holds at that size. The second reverse pass
    // finds most of its buffers on the free list, and allocates where the
    // list gave back what it held to keep its bytes within the pass's
    // live peak.
    let first = large_allocations(|| {
        let loss = record(&mut tape);
        differentiate(&mut tape, loss);
    });
    let mut loss = None;
    let second = large_allocations(|| loss = Some(record(&mut tape)));
    let second_pass = large_allocations(|| differentiate(&mut tape, loss.expect("recorded")));
    assert_eq!(
        (first, second, second_pass),
        (20, 1, 8),
        "large allocations: first step, second recording, second reverse pass"
    );
}
