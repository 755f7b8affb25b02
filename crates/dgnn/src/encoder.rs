//! The DGNN encoder (paper §III-B, Eqs. 1–4).
//!
//! One [`DgnnEncoder`] assembles the four exchangeable modules of the
//! paper's framework — embedding `f(·)`, message `Msg(·)`, aggregator
//! `Agg(·)`, memory updater `Mem(·)` — around a persistent [`Memory`].
//!
//! ## Batch protocol (TGN-style deferred messages)
//!
//! To avoid information leakage inside a batch, messages generated by batch
//! `k` update memory at the *start* of batch `k+1`:
//!
//! ```text
//! for each chronological batch B:
//!     ctx = encoder.apply_pending(tape, store, graph)  // on-tape memory update
//!     z   = encoder.embed_many(tape, store, ctx, graph, nodes, times)
//!     …losses, backward, optimiser step…
//!     encoder.commit(tape, ctx, B)                      // persist states, queue B
//! ```
//!
//! Gradients flow through the message/aggregator/updater parameters of the
//! *current* application and through the embedding modules; states read
//! from memory are constants (cross-batch detachment), exactly as in TGN.
//!
//! Both steps are stacked: `apply_pending` runs each module once over all
//! pending messages, and `embed_many` embeds the whole call in one pass —
//! every queried node and neighbour row is one row of a stack, each query
//! attends over its own segment of it, and each product runs once per call
//! (never once per node or neighbour). A row's value depends only on its
//! own inputs, so it is bit-identical to embedding that node alone.
//!
//! Every forward here is written once, generic over the evaluator
//! ([`Forward`]): training runs it on a [`Tape`](cpdg_tensor::Tape), and
//! serving, memory replay and evaluation run the same code on a
//! forward-only [`Eval`], one event per batch when serving:
//!
//! ```text
//! pending = encoder.pending_states(store, graph)  // apply_pending on an Eval
//! z       = encoder.infer_rows(store, &pending, graph, nodes, times)
//! …more queries against the same `pending`…
//! encoder.commit_states(pending, &[event])        // persist, queue the event
//! ```
//!
//! `infer_rows` is `embed_many`'s forward on an `Eval`, so both evaluators
//! give the same bits.

use crate::config::{AggKind, DgnnConfig, EmbedKind, MemKind, MsgKind};
use crate::memory::Memory;
use cpdg_graph::{DynamicGraph, Interaction, NodeId, Timestamp};
use cpdg_tensor::nn::{GruCell, Linear, LstmCell, Mlp, NeighborAttention, RnnCell, TimeEncoder};
use cpdg_tensor::{Eval, Forward, Matrix, ParamId, ParamStore, Var};
use rand::Rng;
use std::ops::Range;

/// A pending raw message: `receiver` hears about an interaction with
/// `other` at time `t`.
#[derive(Debug, Clone, Copy)]
struct RawMessage {
    receiver: NodeId,
    other: NodeId,
    t: Timestamp,
}

/// The nodes a pending application updates, in row order.
#[derive(Debug, Default)]
struct DirtyRows {
    /// `(dirty node, row of its updated state)`, sorted by node.
    row_of: Vec<(NodeId, usize)>,
    /// Dirty nodes in row order.
    nodes: Vec<NodeId>,
    /// Last message time per dirty node (row order).
    times: Vec<Timestamp>,
}

impl DirtyRows {
    /// The row of `node`'s updated state, if it is dirty.
    fn row(&self, node: NodeId) -> Option<usize> {
        let i = self.row_of.binary_search_by_key(&node, |&(n, _)| n).ok()?;
        Some(self.row_of[i].1)
    }
}

/// Per-batch artifacts produced by [`DgnnEncoder::apply_pending`].
#[derive(Debug, Default)]
pub struct BatchContext {
    dirty: DirtyRows,
    /// Updated states, `n_dirty × dim` (None when nothing pending).
    new_states: Option<Var>,
    /// Updated LSTM cell states (only under `MemKind::Lstm`).
    new_cells: Option<Var>,
}

impl BatchContext {
    /// Nodes whose memory this batch updates.
    pub fn dirty_nodes(&self) -> &[NodeId] {
        &self.dirty.nodes
    }

    /// The updated states as plain values, each handed back by `value`.
    fn into_states(self, mut value: impl FnMut(Var) -> Matrix) -> PendingStates {
        PendingStates {
            states: self.new_states.map(&mut value),
            cells: self.new_cells.map(value),
            dirty: self.dirty,
        }
    }
}

/// The pending messages applied, as plain values: what
/// [`DgnnEncoder::apply_pending`] computes, outliving its evaluator. Built
/// by [`DgnnEncoder::pending_states`], read by [`DgnnEncoder::infer_rows`],
/// persisted by [`DgnnEncoder::commit_states`].
#[derive(Debug, Default)]
pub struct PendingStates {
    dirty: DirtyRows,
    /// Updated states, `n_dirty × dim` (None when nothing pending).
    states: Option<Matrix>,
    /// Updated LSTM cell states (only under `MemKind::Lstm`).
    cells: Option<Matrix>,
}

/// The rows one embedding call reads, in stack order, built by
/// [`DgnnEncoder::plan_rows`].
#[derive(Debug)]
struct RowPlan {
    /// Node of each row.
    rows: Vec<NodeId>,
    /// Scaled Δt of each row (empty under `EmbedKind::Identity`).
    dts: Vec<f32>,
    /// Under `EmbedKind::Attention`, each query's rows (its own first).
    segments: Vec<Range<usize>>,
}

/// The mutable, stream-position-dependent part of a [`DgnnEncoder`]:
/// everything beyond the trainable parameters that a training checkpoint
/// must capture to resume mid-stream.
#[derive(Debug, Clone)]
pub struct EncoderState {
    /// Node memory `M` (states + last-update times).
    pub memory: Memory,
    /// Auxiliary LSTM cell state, when the memory updater is an LSTM.
    pub cell_state: Option<Matrix>,
    /// Queued deferred messages `(src, dst, t)` from the last batch.
    pub pending: Vec<(NodeId, NodeId, Timestamp)>,
}

/// A memory-based dynamic graph encoder.
#[derive(Debug)]
pub struct DgnnEncoder {
    cfg: DgnnConfig,
    /// The node memory `M`. Public so pre-training can snapshot it (EIE)
    /// and contrastive readouts can pool states from it.
    pub memory: Memory,
    time_enc: TimeEncoder,
    msg_mlp: Option<Mlp>,
    msg_attn: Option<NeighborAttention>,
    msg_attn_proj: Option<Linear>,
    mem_gru: Option<GruCell>,
    mem_rnn: Option<RnnCell>,
    mem_lstm: Option<LstmCell>,
    /// Auxiliary per-node LSTM cell state (plain values, detached across
    /// batches like the memory itself).
    cell_state: Option<Matrix>,
    embed_attn: Option<NeighborAttention>,
    jodie_w: Option<ParamId>,
    /// Learnable static per-node identity embeddings (the JODIE paper's
    /// static embedding). Added to memory states at *read* time, they break
    /// the symmetry of the all-zero initial memory; the memory itself keeps
    /// only dynamics.
    node_embed: ParamId,
    pending: Vec<(NodeId, NodeId, Timestamp)>,
}

impl DgnnEncoder {
    /// Registers a new encoder's parameters under `name` and allocates its
    /// memory for `num_nodes` nodes.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut (impl Rng + ?Sized),
        name: &str,
        num_nodes: usize,
        cfg: DgnnConfig,
    ) -> Self {
        let d = cfg.dim;
        let td = cfg.time_dim;
        let raw_dim = 2 * d + td;
        let time_enc = TimeEncoder::new(store, &format!("{name}.time"), td);

        let (msg_mlp, msg_attn, msg_attn_proj, msg_dim) = match cfg.msg {
            MsgKind::Identity => (None, None, None, raw_dim),
            MsgKind::Mlp => (
                Some(Mlp::new(
                    store,
                    rng,
                    &format!("{name}.msg_mlp"),
                    &[raw_dim, d, d],
                    cpdg_tensor::nn::Activation::Relu,
                )),
                None,
                None,
                d,
            ),
            MsgKind::Attention => (
                None,
                Some(NeighborAttention::new(
                    store,
                    rng,
                    &format!("{name}.msg_attn"),
                    d,
                    d,
                    d,
                    d,
                )),
                Some(Linear::new(
                    store,
                    rng,
                    &format!("{name}.msg_proj"),
                    raw_dim + d,
                    d,
                    true,
                )),
                d,
            ),
        };

        let (mem_gru, mem_rnn, mem_lstm) = match cfg.mem {
            MemKind::Gru => (
                Some(GruCell::new(store, rng, &format!("{name}.mem"), msg_dim, d)),
                None,
                None,
            ),
            MemKind::Rnn => (
                None,
                Some(RnnCell::new(store, rng, &format!("{name}.mem"), msg_dim, d)),
                None,
            ),
            MemKind::Lstm => (
                None,
                None,
                Some(LstmCell::new(
                    store,
                    rng,
                    &format!("{name}.mem"),
                    msg_dim,
                    d,
                )),
            ),
        };
        let cell_state = matches!(cfg.mem, MemKind::Lstm).then(|| Matrix::zeros(num_nodes, d));

        let embed_attn = match cfg.embed {
            EmbedKind::Attention => Some(NeighborAttention::new(
                store,
                rng,
                &format!("{name}.embed_attn"),
                d + td,
                d + td,
                d,
                d,
            )),
            _ => None,
        };
        let jodie_w = match cfg.embed {
            EmbedKind::TimeProjection => {
                Some(store.register(format!("{name}.jodie_w"), Matrix::zeros(1, d)))
            }
            _ => None,
        };
        let node_embed = store.register(
            format!("{name}.node_embed"),
            cpdg_tensor::nn::init::uniform(rng, num_nodes, d, 0.1),
        );

        Self {
            memory: Memory::new(num_nodes, d),
            cfg,
            time_enc,
            msg_mlp,
            msg_attn,
            msg_attn_proj,
            mem_gru,
            mem_rnn,
            mem_lstm,
            cell_state,
            embed_attn,
            jodie_w,
            node_embed,
            pending: Vec::new(),
        }
    }

    /// Hyper-parameters.
    pub fn config(&self) -> &DgnnConfig {
        &self.cfg
    }

    /// Embedding width.
    pub fn dim(&self) -> usize {
        self.cfg.dim
    }

    /// Resets memory (and the LSTM cell state) and drops pending messages
    /// (fresh stream pass).
    pub fn reset_state(&mut self) {
        self.memory.reset();
        if let Some(c) = &mut self.cell_state {
            *c = Matrix::zeros(c.rows(), c.cols());
        }
        self.pending.clear();
    }

    /// Number of queued (not yet applied) events.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Copies out the stream-position-dependent state (memory, LSTM cells,
    /// pending messages) for a training checkpoint.
    pub fn export_state(&self) -> EncoderState {
        EncoderState {
            memory: self.memory.clone(),
            cell_state: self.cell_state.clone(),
            pending: self.pending.clone(),
        }
    }

    /// Restores state captured by [`DgnnEncoder::export_state`], validating
    /// that it matches this encoder's wiring and node universe.
    pub fn restore_state(&mut self, state: EncoderState) -> Result<(), String> {
        if state.memory.num_nodes() != self.memory.num_nodes() || state.memory.dim() != self.cfg.dim
        {
            return Err(format!(
                "encoder state shape mismatch: checkpoint is {}×{}, encoder is {}×{}",
                state.memory.num_nodes(),
                state.memory.dim(),
                self.memory.num_nodes(),
                self.cfg.dim
            ));
        }
        if state.cell_state.is_some() != self.cell_state.is_some() {
            return Err(
                "encoder state mismatch: LSTM cell state present on one side only".to_string(),
            );
        }
        if let (Some(cells), Some(own)) = (&state.cell_state, &self.cell_state) {
            if cells.shape() != own.shape() {
                return Err(format!(
                    "LSTM cell state shape mismatch: checkpoint {:?}, encoder {:?}",
                    cells.shape(),
                    own.shape()
                ));
            }
        }
        self.memory = state.memory;
        self.cell_state = state.cell_state;
        self.pending = state.pending;
        Ok(())
    }

    fn scaled_dt(&self, dt: f64) -> f32 {
        (dt / self.cfg.time_scale) as f32
    }

    /// Applies all pending messages on `ev`, producing updated states for
    /// the affected nodes (paper Eqs. 2–4). `graph` supplies the temporal
    /// neighbourhoods consumed by attention-style message functions.
    pub fn apply_pending<'s>(
        &self,
        ev: &mut impl Forward<'s>,
        store: &'s ParamStore,
        graph: &DynamicGraph,
    ) -> BatchContext {
        if self.pending.is_empty() {
            return BatchContext::default();
        }

        // Each interaction (u, v, t) generates messages to both endpoints.
        let mut msgs: Vec<RawMessage> = Vec::with_capacity(self.pending.len() * 2);
        for &(u, v, t) in &self.pending {
            msgs.push(RawMessage {
                receiver: u,
                other: v,
                t,
            });
            msgs.push(RawMessage {
                receiver: v,
                other: u,
                t,
            });
        }

        // Dirty nodes in first-seen order, and the last (most recent:
        // messages are chronological) message of each.
        let mut dirty = DirtyRows {
            row_of: Vec::with_capacity(msgs.len()),
            nodes: Vec::with_capacity(msgs.len()),
            times: Vec::new(),
        };
        let mut last: Vec<usize> = Vec::with_capacity(msgs.len());
        for (mi, m) in msgs.iter().enumerate() {
            match dirty.row_of.binary_search_by_key(&m.receiver, |&(n, _)| n) {
                Ok(i) => last[dirty.row_of[i].1] = mi,
                Err(i) => {
                    dirty.row_of.insert(i, (m.receiver, dirty.nodes.len()));
                    dirty.nodes.push(m.receiver);
                    last.push(mi);
                }
            }
        }
        dirty.times = last.iter().map(|&mi| msgs[mi].t).collect();

        // Raw message features: [h_recv ‖ h_other ‖ φ(Δt_recv)] where
        // h_i = s_i + e_i (memory state plus static identity embedding).
        let table = ev.param(store, self.node_embed);
        let recv_idx: Vec<usize> = msgs.iter().map(|m| m.receiver as usize).collect();
        let other_idx: Vec<usize> = msgs.iter().map(|m| m.other as usize).collect();
        let recv_mem = ev.constant(self.memory.states().gather_rows(&recv_idx));
        let other_mem = ev.constant(self.memory.states().gather_rows(&other_idx));
        let recv_emb = ev.gather_rows(table, &recv_idx);
        let other_emb = ev.gather_rows(table, &other_idx);
        // DyRep's message attention queries with `recv_mem` below.
        let recv_states = match self.cfg.msg {
            MsgKind::Attention => ev.add(recv_mem, recv_emb),
            _ => ev.add_in_place(recv_mem, recv_emb),
        };
        let other_states = ev.add_in_place(other_mem, other_emb);
        let dts: Vec<f32> = msgs
            .iter()
            .map(|m| self.scaled_dt(m.t - self.memory.last_update(m.receiver)))
            .collect();
        let phi = self.time_enc.encode(ev, store, dts);
        let pair = ev.concat_cols(recv_states, other_states);
        let raw = ev.concat_cols(pair, phi);

        // Msg(·).
        let msg = match self.cfg.msg {
            MsgKind::Identity => raw,
            MsgKind::Mlp => self
                .msg_mlp
                .as_ref()
                .expect("mlp msg")
                .forward(ev, store, raw),
            MsgKind::Attention => {
                // DyRep-style: pool the partner's recent neighbourhood with
                // the receiver's memory state as query, then project.
                let pooled = self.pool_partner_neighbourhoods(ev, store, graph, &msgs, recv_mem);
                let augmented = ev.concat_cols(raw, pooled);
                self.msg_attn_proj
                    .as_ref()
                    .expect("attn proj")
                    .forward(ev, store, augmented)
            }
        };

        // Agg(·): one aggregated message row per dirty node.
        let agg = match self.cfg.agg {
            AggKind::LastTime => ev.gather_rows(msg, &last),
            AggKind::Mean => {
                let rows: Vec<usize> = msgs
                    .iter()
                    .map(|m| dirty.row(m.receiver).expect("every receiver is dirty"))
                    .collect();
                let mut counts = vec![0usize; dirty.nodes.len()];
                for &row in &rows {
                    counts[row] += 1;
                }
                let mut avg = Matrix::zeros(dirty.nodes.len(), msgs.len());
                for (mi, &row) in rows.iter().enumerate() {
                    avg.set(row, mi, 1.0 / counts[row] as f32);
                }
                let avg = ev.constant(avg);
                ev.matmul(avg, msg)
            }
        };

        // Mem(·): update from previous states.
        let prev = ev.constant_with(|buf| self.memory.gather_into(&dirty.nodes, buf));
        let (new_states, new_cells) = match self.cfg.mem {
            MemKind::Gru => (
                self.mem_gru
                    .as_ref()
                    .expect("gru")
                    .forward(ev, store, agg, prev),
                None,
            ),
            MemKind::Rnn => (
                self.mem_rnn
                    .as_ref()
                    .expect("rnn")
                    .forward(ev, store, agg, prev),
                None,
            ),
            MemKind::Lstm => {
                let cells = self.cell_state.as_ref().expect("lstm cell store");
                let idx: Vec<usize> = dirty.nodes.iter().map(|&n| n as usize).collect();
                let c_prev = ev.constant(cells.gather_rows(&idx));
                let (h, c) = self
                    .mem_lstm
                    .as_ref()
                    .expect("lstm")
                    .forward(ev, store, agg, prev, c_prev);
                (h, Some(c))
            }
        };

        BatchContext {
            dirty,
            new_states: Some(new_states),
            new_cells,
        }
    }

    /// The DyRep message attention: message `i` attends with row `i` of
    /// `queries` over its partner and the partner's recent neighbours
    /// before the message time (representations `h = s + e`, constants),
    /// one segment per message in one [`NeighborAttention::forward_rows`].
    fn pool_partner_neighbourhoods<'s>(
        &self,
        ev: &mut impl Forward<'s>,
        store: &'s ParamStore,
        graph: &DynamicGraph,
        msgs: &[RawMessage],
        queries: Var,
    ) -> Var {
        let mut kv_nodes: Vec<NodeId> = Vec::new();
        let mut segments = Vec::with_capacity(msgs.len());
        for m in msgs {
            let start = kv_nodes.len();
            kv_nodes.push(m.other);
            kv_nodes.extend(
                graph
                    .recent_neighbors(m.other, m.t, self.cfg.n_neighbors)
                    .map(|nb| nb.neighbor),
            );
            segments.push(start..kv_nodes.len());
        }
        let kv = ev.constant(self.node_repr_values(store, &kv_nodes));
        let attn = self.msg_attn.as_ref().expect("attn msg");
        attn.forward_rows(ev, store, queries, kv, &segments)
    }

    /// [`DgnnEncoder::apply_pending`] on an [`Eval`], the states moved out
    /// of it.
    pub fn pending_states(&self, store: &ParamStore, graph: &DynamicGraph) -> PendingStates {
        let mut ev = Eval::new();
        let ctx = self.apply_pending(&mut ev, store, graph);
        ctx.into_states(|v| ev.take(v))
    }

    /// Plain-value representation `h_i = s_i + e_i` for a set of nodes —
    /// the constant used by contrastive readouts over subgraph memory
    /// states (paper Eqs. 9–13).
    pub fn node_repr_values(&self, store: &ParamStore, nodes: &[NodeId]) -> Matrix {
        let mut out = self.memory.gather(nodes);
        let table = store.value(self.node_embed);
        for (r, &n) in nodes.iter().enumerate() {
            let e = table.row(n as usize);
            let row = out.row_mut(r);
            for (x, &v) in row.iter_mut().zip(e.iter()) {
                *x += v;
            }
        }
        out
    }

    /// Temporal embeddings `z_i^t` (paper Eq. 1) of many `(node, t)` pairs,
    /// producing `m × dim`, in one stacked pass. Every row the embedding
    /// reads (under attention: each queried node at Δt = 0, then its recent
    /// neighbours, one segment per query) takes its state `h = s + e` from
    /// one gather over the batch-updated states and the memory rows of the
    /// listed clean nodes, and its time encoding from one product over all
    /// Δt. The attention projections then run once over the stack
    /// ([`NeighborAttention::forward_rows`]). Row `i` of the result is
    /// bit-identical to embedding pair `i` alone.
    pub fn embed_many<'s>(
        &self,
        ev: &mut impl Forward<'s>,
        store: &'s ParamStore,
        ctx: &BatchContext,
        graph: &DynamicGraph,
        nodes: &[NodeId],
        times: &[Timestamp],
    ) -> Var {
        let plan = self.plan_rows(graph, nodes, times);
        self.embed_plan(ev, store, &ctx.dirty, ctx.new_states, plan)
    }

    /// [`DgnnEncoder::embed_many`] on an [`Eval`] over the applied
    /// `pending` states, mounted by reference: the serving forward,
    /// `m × dim`, moved out of the evaluator.
    pub fn infer_rows(
        &self,
        store: &ParamStore,
        pending: &PendingStates,
        graph: &DynamicGraph,
        nodes: &[NodeId],
        times: &[Timestamp],
    ) -> Matrix {
        let plan = self.plan_rows(graph, nodes, times);
        let mut ev = Eval::new();
        // Rows that read no dirty node read the same memory rows either way.
        let reads_pending = plan.rows.iter().any(|&n| pending.dirty.row(n).is_some());
        let states = pending.states.as_ref().filter(|_| reads_pending);
        let states = states.map(|s| ev.mount(s));
        let z = self.embed_plan(&mut ev, store, &pending.dirty, states, plan);
        ev.take(z)
    }

    /// The embedding forward over the rows `plan` lists, reading the
    /// batch-updated `states` of the `dirty` nodes.
    fn embed_plan<'s>(
        &self,
        ev: &mut impl Forward<'s>,
        store: &'s ParamStore,
        dirty: &DirtyRows,
        states: Option<Var>,
        plan: RowPlan,
    ) -> Var {
        let h = self.state_rows(ev, store, dirty, states, &plan.rows);
        match self.cfg.embed {
            EmbedKind::Identity => h,
            EmbedKind::TimeProjection => {
                let dtv = ev.constant(Matrix::col_vec(plan.dts));
                let w = ev.param(store, self.jodie_w.expect("jodie w"));
                let proj = ev.matmul(dtv, w);
                let gate = ev.add_scalar(proj, 1.0);
                ev.mul_in_place(h, gate)
            }
            EmbedKind::Attention => {
                let phi = self.time_enc.encode(ev, store, plan.dts);
                let kv = ev.concat_cols(h, phi);
                let starts: Vec<usize> = plan.segments.iter().map(|seg| seg.start).collect();
                let q = ev.gather_rows(kv, &starts);
                let attn = self.embed_attn.as_ref().expect("embed attn");
                attn.forward_rows(ev, store, q, kv, &plan.segments)
            }
        }
    }

    /// The readable representations `h = s + e` of `nodes`, one row each:
    /// `s` is the batch-updated state when the node is dirty and its memory
    /// row (a constant) otherwise, gathered in one op from `[states; memory
    /// rows of the clean nodes]`; `e` is the trainable static identity
    /// embedding.
    fn state_rows<'s>(
        &self,
        ev: &mut impl Forward<'s>,
        store: &'s ParamStore,
        dirty: &DirtyRows,
        states: Option<Var>,
        nodes: &[NodeId],
    ) -> Var {
        let s = match states {
            None => ev.constant_with(|buf| self.memory.gather_into(nodes, buf)),
            Some(states) => {
                let n_fresh = ev.value(states).rows();
                let mut clean: Vec<NodeId> = Vec::with_capacity(nodes.len());
                let idx: Vec<usize> = nodes
                    .iter()
                    .map(|&node| match dirty.row(node) {
                        Some(row) => row,
                        None => {
                            clean.push(node);
                            n_fresh + clean.len() - 1
                        }
                    })
                    .collect();
                let source = if clean.is_empty() {
                    states
                } else {
                    let stored = ev.constant_with(|buf| self.memory.gather_into(&clean, buf));
                    ev.stack_rows(&[states, stored])
                };
                ev.gather_rows(source, &idx)
            }
        };
        let table = ev.param(store, self.node_embed);
        let ids: Vec<usize> = nodes.iter().map(|&n| n as usize).collect();
        let e = ev.gather_rows(table, &ids);
        ev.add_in_place(s, e)
    }

    /// Lists the rows an embedding call reads, in stack order: each queried
    /// node, and under attention its recent neighbours after it (one
    /// segment per query, the node itself at Δt = 0).
    fn plan_rows(&self, graph: &DynamicGraph, nodes: &[NodeId], times: &[Timestamp]) -> RowPlan {
        assert_eq!(nodes.len(), times.len(), "embedding: length mismatch");
        assert!(!nodes.is_empty(), "embedding: empty batch");
        // Room for every row, Δt and segment a query can list.
        let (per_query, dts, segments) = match self.cfg.embed {
            EmbedKind::Identity => (1, 0, 0),
            EmbedKind::TimeProjection => (1, 1, 0),
            EmbedKind::Attention => (1 + self.cfg.n_neighbors, 1 + self.cfg.n_neighbors, 1),
        };
        let mut plan = RowPlan {
            rows: Vec::with_capacity(nodes.len() * per_query),
            dts: Vec::with_capacity(nodes.len() * dts),
            segments: Vec::with_capacity(nodes.len() * segments),
        };
        for (&n, &t) in nodes.iter().zip(times) {
            let start = plan.rows.len();
            plan.rows.push(n);
            match self.cfg.embed {
                EmbedKind::Identity => {}
                EmbedKind::TimeProjection => {
                    plan.dts
                        .push(self.scaled_dt(t - self.memory.last_update(n)));
                }
                EmbedKind::Attention => {
                    plan.dts.push(0.0);
                    for nb in graph.recent_neighbors(n, t, self.cfg.n_neighbors) {
                        plan.rows.push(nb.neighbor);
                        plan.dts.push(self.scaled_dt(t - nb.t));
                    }
                    plan.segments.push(start..plan.rows.len());
                }
            }
        }
        plan
    }

    /// Persists the batch's updated states, read off `ev`, into memory
    /// (detached) and queues `batch` as the next pending messages.
    pub fn commit<'s>(&mut self, ev: &impl Forward<'s>, ctx: BatchContext, batch: &[Interaction]) {
        self.commit_states(ctx.into_states(|v| ev.value(v).clone()), batch);
    }

    /// Persists applied pending states into memory and queues `batch` as
    /// the next pending messages: the write-back of training's
    /// [`DgnnEncoder::commit`] and of serving.
    pub fn commit_states(&mut self, states: PendingStates, batch: &[Interaction]) {
        let PendingStates {
            dirty,
            states,
            cells,
        } = states;
        if let Some(values) = states {
            for (row, (&node, &t)) in dirty.nodes.iter().zip(&dirty.times).enumerate() {
                self.memory.write_row(node, values.row(row), t);
            }
        }
        if let (Some(values), Some(cells)) = (cells, self.cell_state.as_mut()) {
            for (row, &node) in dirty.nodes.iter().enumerate() {
                cells.set_row(node as usize, values.row(row));
            }
        }
        self.pending = batch.iter().map(|e| (e.src, e.dst, e.t)).collect();
    }

    /// Queues `batch` as the next pending messages *without* persisting the
    /// batch's updated states — the commit path for a poisoned training step
    /// whose forward pass may contain NaN/Inf. The stream position advances
    /// (so chronology is preserved) but the possibly-corrupt state update is
    /// dropped on the floor.
    pub fn skip_commit(&mut self, batch: &[Interaction]) {
        self.pending = batch.iter().map(|e| (e.src, e.dst, e.t)).collect();
    }

    /// Runs a whole event stream through the encoder *without training*,
    /// updating memory along the way. Used to warm memory before
    /// fine-tuning/evaluation on downstream data.
    pub fn replay(&mut self, store: &ParamStore, graph: &DynamicGraph, batch_size: usize) {
        for chunk in graph.events().chunks(batch_size.max(1)) {
            let states = self.pending_states(store, graph);
            self.commit_states(states, chunk);
        }
        // Flush the final chunk's messages.
        let states = self.pending_states(store, graph);
        self.commit_states(states, &[]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EncoderKind;
    use cpdg_graph::graph_from_triples;
    use cpdg_tensor::Tape;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(kind: EncoderKind) -> (ParamStore, DgnnEncoder, DynamicGraph) {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = DgnnConfig::preset(kind, 8, 1.0);
        let graph = graph_from_triples(
            5,
            &[
                (0, 1, 1.0),
                (1, 2, 2.0),
                (0, 3, 3.0),
                (2, 3, 4.0),
                (0, 4, 5.0),
            ],
        )
        .unwrap();
        let enc = DgnnEncoder::new(&mut store, &mut rng, "enc", 5, cfg);
        (store, enc, graph)
    }

    #[test]
    fn fresh_encoder_embeds_from_zero_memory() {
        for kind in EncoderKind::all() {
            let (store, enc, graph) = setup(kind);
            let mut tape = Tape::new();
            let ctx = enc.apply_pending(&mut tape, &store, &graph);
            let z = enc.embed_many(&mut tape, &store, &ctx, &graph, &[0], &[10.0]);
            assert_eq!(tape.value(z).shape(), (1, 8), "{kind:?}");
            assert!(tape.value(z).all_finite());
        }
    }

    #[test]
    fn pending_messages_change_memory_on_commit() {
        for kind in EncoderKind::all() {
            let (store, mut enc, graph) = setup(kind);
            // Queue batch 1, then apply it in batch 2.
            let batch: Vec<Interaction> = graph.events()[..2].to_vec();
            let mut tape = Tape::new();
            let ctx = enc.apply_pending(&mut tape, &store, &graph);
            assert!(ctx.dirty_nodes().is_empty(), "nothing pending yet");
            enc.commit(&tape, ctx, &batch);

            let mut tape = Tape::new();
            let ctx = enc.apply_pending(&mut tape, &store, &graph);
            assert_eq!(ctx.dirty_nodes().len(), 3, "{kind:?}: nodes 0,1,2 touched");
            enc.commit(&tape, ctx, &[]);
            assert!(enc.memory.rms() > 0.0, "{kind:?}: memory updated");
            assert_eq!(enc.memory.last_update(0), 1.0);
            assert_eq!(enc.memory.last_update(1), 2.0, "node 1 has a later message");
        }
    }

    /// The training forward's values: `apply_pending → embed_many` on a
    /// fresh tape.
    fn tape_embed(
        enc: &DgnnEncoder,
        store: &ParamStore,
        graph: &DynamicGraph,
        nodes: &[NodeId],
        times: &[Timestamp],
    ) -> Matrix {
        let mut tape = Tape::new();
        let ctx = enc.apply_pending(&mut tape, store, graph);
        let z = enc.embed_many(&mut tape, store, &ctx, graph, nodes, times);
        tape.value(z).clone()
    }

    #[test]
    fn infer_rows_matches_the_tape_forward() {
        for (name, cfg) in wirings() {
            let (store, enc, graph) = with_pending(cfg);
            let nodes = [0, 1, 2];
            let times = [6.0, 6.0, 6.0];
            let pending = enc.pending_states(&store, &graph);
            assert_eq!(enc.pending_len(), 3, "{name}: nodes 0 and 2 are dirty");
            assert_eq!(
                tape_embed(&enc, &store, &graph, &nodes, &times),
                enc.infer_rows(&store, &pending, &graph, &nodes, &times),
                "{name}: the forward-only path must not perturb the forward"
            );
        }
    }

    #[test]
    fn shared_pending_calls_match_fresh_tape_calls_bit_identically() {
        for (name, cfg) in wirings() {
            let (store, enc, graph) = with_pending(cfg);
            // Call sequence of one coalesced serving run: an EMB, a SCORE
            // pair, then a repeat of the first EMB.
            let calls: [(&[NodeId], Timestamp); 3] = [(&[0], 6.0), (&[3, 1], 6.5), (&[0], 6.0)];

            // One pending application shared by every call.
            let shared = enc.pending_states(&store, &graph);
            for (i, (nodes, t)) in calls.iter().enumerate() {
                let times = vec![*t; nodes.len()];
                let got = enc.infer_rows(&store, &shared, &graph, nodes, &times);
                // Reference: the same call on its own fresh tape.
                assert_eq!(
                    tape_embed(&enc, &store, &graph, nodes, &times).data(),
                    got.data(),
                    "{name}: shared-pending call {i} must be bit-identical to a fresh tape"
                );
            }
        }
    }

    /// The wirings the stacked forward must reproduce: the three presets,
    /// LSTM memory and mean aggregation.
    fn wirings() -> [(&'static str, DgnnConfig); 5] {
        let preset = |kind| DgnnConfig::preset(kind, 8, 1.0);
        let mut lstm = preset(EncoderKind::Tgn);
        lstm.mem = MemKind::Lstm;
        let mut mean = preset(EncoderKind::Tgn);
        mean.agg = AggKind::Mean;
        [
            ("TGN", preset(EncoderKind::Tgn)),
            ("JODIE", preset(EncoderKind::Jodie)),
            ("DyRep", preset(EncoderKind::DyRep)),
            ("LSTM memory", lstm),
            ("mean aggregation", mean),
        ]
    }

    /// [`setup`]'s stream under `cfg`, replayed, with its last three events
    /// queued again: nodes 0 and 3 hear two messages each, 2 and 4 one,
    /// and node 1 stays clean.
    fn with_pending(cfg: DgnnConfig) -> (ParamStore, DgnnEncoder, DynamicGraph) {
        let (_, _, graph) = setup(EncoderKind::Tgn);
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let mut enc = DgnnEncoder::new(&mut store, &mut rng, "enc", 5, cfg);
        enc.replay(&store, &graph, 2);
        enc.skip_commit(&graph.events()[2..]);
        (store, enc, graph)
    }

    /// One row of the per-row training forward that `embed_many` replaced:
    /// the row's own state reads, time encodings and attention on `tape`.
    fn per_row_embed(
        enc: &DgnnEncoder,
        tape: &mut Tape,
        store: &ParamStore,
        ctx: &BatchContext,
        graph: &DynamicGraph,
        node: NodeId,
        t: Timestamp,
    ) -> Var {
        let state = |tape: &mut Tape, n: NodeId| {
            let s = match (ctx.dirty.row(n), ctx.new_states) {
                (Some(row), Some(states)) => tape.gather_rows(states, &[row]),
                _ => tape.constant(Matrix::from_vec(
                    1,
                    enc.cfg.dim,
                    enc.memory.state_row(n).to_vec(),
                )),
            };
            let table = tape.param(store, enc.node_embed);
            let e = tape.gather_rows(table, &[n as usize]);
            tape.add(s, e)
        };
        let h = state(tape, node);
        match enc.cfg.embed {
            EmbedKind::Identity => h,
            EmbedKind::TimeProjection => {
                let dt = enc.scaled_dt(t - enc.memory.last_update(node));
                let dtv = tape.constant(Matrix::from_vec(1, 1, vec![dt]));
                let w = tape.param(store, enc.jodie_w.expect("jodie w"));
                let proj = tape.matmul(dtv, w);
                let gate = tape.add_scalar(proj, 1.0);
                tape.mul(h, gate)
            }
            EmbedKind::Attention => {
                let phi0 = enc.time_enc.encode(tape, store, vec![0.0]);
                let q = tape.concat_cols(h, phi0);
                let mut kv = q;
                for nb in graph.recent_neighbors(node, t, enc.cfg.n_neighbors) {
                    let su = state(tape, nb.neighbor);
                    let phi = enc
                        .time_enc
                        .encode(tape, store, vec![enc.scaled_dt(t - nb.t)]);
                    let row = tape.concat_cols(su, phi);
                    kv = tape.stack_rows(&[kv, row]);
                }
                let attn = enc.embed_attn.as_ref().expect("embed attn");
                let whole = 0..tape.value(kv).rows();
                attn.forward_rows(tape, store, q, kv, &[whole])
            }
        }
    }

    /// `Σ_ij w_ij · z_ij` with fixed, distinct weights, so every entry of
    /// every row carries its own gradient.
    fn weighted_sum(tape: &mut Tape, z: Var, row: usize) -> Var {
        let cols = tape.value(z).cols();
        let w: Vec<f32> = (0..tape.value(z).len())
            .map(|i| ((row * cols + i) % 7) as f32 * 0.25 - 0.6)
            .collect();
        let w = tape.constant(Matrix::from_vec(tape.value(z).rows(), cols, w));
        let weighted = tape.mul(z, w);
        tape.sum_all(weighted)
    }

    fn bits(row: &[f32]) -> Vec<u32> {
        row.iter().map(|x| x.to_bits()).collect()
    }

    /// Parameter gradients agree within 1e-5 of each tensor's largest entry.
    fn assert_grads_close(name: &str, got: &[(ParamId, Matrix)], want: &[(ParamId, Matrix)]) {
        let ids = |g: &[(ParamId, Matrix)]| g.iter().map(|(id, _)| *id).collect::<Vec<_>>();
        assert_eq!(
            ids(got),
            ids(want),
            "{name}: the same parameters get gradients"
        );
        for ((id, g), (_, w)) in got.iter().zip(want) {
            let scale = w.data().iter().fold(0.0f32, |m, x| m.max(x.abs()));
            assert!(
                g.max_abs_diff(w) <= 1e-5 * scale,
                "{name}: gradient of {id:?} differs by {} (largest entry {scale})",
                g.max_abs_diff(w)
            );
        }
    }

    #[test]
    fn stacked_embed_many_matches_the_per_row_forward() {
        // Dirty (0, 2, 3, 4) and clean (1) nodes, repeats of 0 and 1, and
        // node 4 at t = 1, before any of its events: no neighbours.
        let nodes = [0, 1, 2, 1, 4, 0, 3];
        let times = [6.0, 6.0, 6.5, 3.5, 1.0, 2.5, 6.0];
        for (name, cfg) in wirings() {
            let (store, enc, graph) = with_pending(cfg);
            assert!(graph.recent_neighbors(4, 1.0, 10).next().is_none());

            let mut tape = Tape::new();
            let ctx = enc.apply_pending(&mut tape, &store, &graph);
            let z = enc.embed_many(&mut tape, &store, &ctx, &graph, &nodes, &times);
            let loss = weighted_sum(&mut tape, z, 0);
            let grads = tape.backward(loss);
            let stacked = tape.param_grads(&grads);

            let mut ref_tape = Tape::new();
            let ref_ctx = enc.apply_pending(&mut ref_tape, &store, &graph);
            let mut ref_loss: Option<Var> = None;
            for (i, (&n, &t)) in nodes.iter().zip(&times).enumerate() {
                let row = per_row_embed(&enc, &mut ref_tape, &store, &ref_ctx, &graph, n, t);
                assert_eq!(
                    bits(ref_tape.value(row).row(0)),
                    bits(tape.value(z).row(i)),
                    "{name}: row {i} (node {n} at {t})"
                );
                let li = weighted_sum(&mut ref_tape, row, i);
                ref_loss = Some(match ref_loss {
                    Some(acc) => ref_tape.add(acc, li),
                    None => li,
                });
            }
            let grads = ref_tape.backward(ref_loss.expect("rows"));
            let reference = ref_tape.param_grads(&grads);
            assert_grads_close(name, &stacked, &reference);
        }
    }

    #[test]
    fn stacked_dyrep_messages_match_per_message_attention() {
        let (store, enc, graph) = with_pending(DgnnConfig::preset(EncoderKind::DyRep, 8, 1.0));
        // Partner 4 at t = 1 has no earlier neighbour; 0 and 3 repeat.
        let msgs: Vec<RawMessage> = [
            (0, 3, 4.5),
            (3, 0, 4.5),
            (2, 4, 1.0),
            (0, 3, 6.0),
            (4, 0, 6.0),
        ]
        .iter()
        .map(|&(receiver, other, t)| RawMessage { receiver, other, t })
        .collect();
        let receivers: Vec<NodeId> = msgs.iter().map(|m| m.receiver).collect();

        let mut tape = Tape::new();
        let queries = tape.constant(enc.memory.gather(&receivers));
        let pooled = enc.pool_partner_neighbourhoods(&mut tape, &store, &graph, &msgs, queries);
        let loss = weighted_sum(&mut tape, pooled, 0);
        let grads = tape.backward(loss);
        let stacked = tape.param_grads(&grads);

        let attn = enc.msg_attn.as_ref().expect("attn msg");
        let mut ref_tape = Tape::new();
        let mut ref_loss: Option<Var> = None;
        for (i, m) in msgs.iter().enumerate() {
            let q = ref_tape.constant(enc.memory.gather(&[m.receiver]));
            let mut partners = vec![m.other];
            partners.extend(
                graph
                    .recent_neighbors(m.other, m.t, 10)
                    .map(|nb| nb.neighbor),
            );
            let kv = ref_tape.constant(enc.node_repr_values(&store, &partners));
            let whole = 0..partners.len();
            let row = attn.forward_rows(&mut ref_tape, &store, q, kv, &[whole]);
            assert_eq!(
                bits(ref_tape.value(row).row(0)),
                bits(tape.value(pooled).row(i)),
                "message {i}"
            );
            let li = weighted_sum(&mut ref_tape, row, i);
            ref_loss = Some(match ref_loss {
                Some(acc) => ref_tape.add(acc, li),
                None => li,
            });
        }
        let grads = ref_tape.backward(ref_loss.expect("messages"));
        let reference = ref_tape.param_grads(&grads);
        assert_grads_close("DyRep messages", &stacked, &reference);
    }

    #[test]
    fn pending_states_commit_like_the_tape_context() {
        for (name, cfg) in wirings() {
            let (store, mut via_tape, graph) = with_pending(cfg.clone());
            let (_, mut via_values, _) = with_pending(cfg);
            let mut tape = Tape::new();
            let ctx = via_tape.apply_pending(&mut tape, &store, &graph);
            via_tape.commit(&tape, ctx, &graph.events()[..1]);
            let states = via_values.pending_states(&store, &graph);
            via_values.commit_states(states, &graph.events()[..1]);
            let (by_tape, by_values) = (via_tape.export_state(), via_values.export_state());
            assert_eq!(by_tape.memory.states(), by_values.memory.states(), "{name}");
            for n in 0..5 {
                assert_eq!(
                    by_tape.memory.last_update(n),
                    by_values.memory.last_update(n)
                );
            }
            assert_eq!(
                by_tape.cell_state, by_values.cell_state,
                "{name}: LSTM cells"
            );
            assert_eq!(by_tape.pending, by_values.pending, "{name}");
        }
    }

    #[test]
    fn gradients_reach_memory_updater_through_embedding() {
        for kind in EncoderKind::all() {
            let (store, mut enc, graph) = setup(kind);
            let batch: Vec<Interaction> = graph.events()[..3].to_vec();
            let mut tape = Tape::new();
            let ctx = enc.apply_pending(&mut tape, &store, &graph);
            enc.commit(&tape, ctx, &batch);

            let mut tape = Tape::new();
            let ctx = enc.apply_pending(&mut tape, &store, &graph);
            let z = enc.embed_many(&mut tape, &store, &ctx, &graph, &[0, 1], &[4.0, 4.0]);
            let loss = tape.mean_all(z);
            let grads = tape.backward(loss);
            let pg = tape.param_grads(&grads);
            let has_mem_grad = pg
                .iter()
                .any(|(id, g)| store.name(*id).contains(".mem") && g.frobenius_norm() > 0.0);
            assert!(
                has_mem_grad,
                "{kind:?}: memory updater must receive gradient"
            );
        }
    }

    #[test]
    fn jodie_projection_depends_on_query_time() {
        let (mut store, mut enc, graph) = setup(EncoderKind::Jodie);
        // Give jodie_w a non-zero value so the projection is active.
        let w = store.lookup("enc.jodie_w").unwrap();
        *store.value_mut(w) = Matrix::full(1, 8, 0.5);
        // Put something in memory for node 0.
        let batch: Vec<Interaction> = graph.events()[..1].to_vec();
        let mut tape = Tape::new();
        let ctx = enc.apply_pending(&mut tape, &store, &graph);
        enc.commit(&tape, ctx, &batch);
        let mut tape = Tape::new();
        let ctx = enc.apply_pending(&mut tape, &store, &graph);
        enc.commit(&tape, ctx, &[]);

        let mut tape = Tape::new();
        let ctx = enc.apply_pending(&mut tape, &store, &graph);
        let z1 = enc.embed_many(&mut tape, &store, &ctx, &graph, &[0], &[2.0]);
        let z2 = enc.embed_many(&mut tape, &store, &ctx, &graph, &[0], &[50.0]);
        assert!(
            tape.value(z1).max_abs_diff(tape.value(z2)) > 1e-6,
            "JODIE embedding must drift with elapsed time"
        );
    }

    #[test]
    fn attention_embedding_uses_neighbors() {
        let (store, mut enc, graph) = setup(EncoderKind::Tgn);
        // Process the whole stream so neighbours have distinct states.
        enc.replay(&store, &graph, 2);
        assert!(enc.memory.rms() > 0.0);
        let mut tape = Tape::new();
        let ctx = enc.apply_pending(&mut tape, &store, &graph);
        // Node 0 at t=10 sees neighbours {1,3,4}; node 2 sees {1,3}.
        let z0 = enc.embed_many(&mut tape, &store, &ctx, &graph, &[0], &[10.0]);
        let z2 = enc.embed_many(&mut tape, &store, &ctx, &graph, &[2], &[10.0]);
        assert!(tape.value(z0).max_abs_diff(tape.value(z2)) > 1e-6);
    }

    #[test]
    fn replay_is_deterministic() {
        let (store, mut enc, graph) = setup(EncoderKind::Tgn);
        enc.replay(&store, &graph, 2);
        let m1 = enc.memory.states().clone();
        enc.reset_state();
        enc.replay(&store, &graph, 2);
        assert_eq!(enc.memory.states(), &m1);
    }

    #[test]
    fn reset_clears_pending_and_memory() {
        let (store, mut enc, graph) = setup(EncoderKind::Tgn);
        enc.replay(&store, &graph, 2);
        enc.commit_states(PendingStates::default(), graph.events());
        assert!(enc.pending_len() > 0);
        enc.reset_state();
        assert_eq!(enc.pending_len(), 0);
        assert_eq!(enc.memory.rms(), 0.0);
    }

    #[test]
    fn lstm_memory_updater_end_to_end() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(5);
        let mut cfg = DgnnConfig::preset(EncoderKind::Tgn, 8, 1.0);
        cfg.mem = crate::config::MemKind::Lstm;
        let graph =
            graph_from_triples(4, &[(0, 1, 1.0), (1, 2, 2.0), (0, 3, 3.0), (2, 3, 4.0)]).unwrap();
        let mut enc = DgnnEncoder::new(&mut store, &mut rng, "enc", 4, cfg);
        enc.replay(&store, &graph, 2);
        assert!(enc.memory.rms() > 0.0, "hidden states evolved");
        let cells = enc.cell_state.as_ref().unwrap();
        assert!(cells.frobenius_norm() > 0.0, "cell states evolved");
        // Gradients flow through the LSTM updater.
        let mut tape = Tape::new();
        let ctx = enc.apply_pending(&mut tape, &store, &graph);
        enc.commit(&tape, ctx, &graph.events()[..2]);
        let mut tape = Tape::new();
        let ctx = enc.apply_pending(&mut tape, &store, &graph);
        let z = enc.embed_many(&mut tape, &store, &ctx, &graph, &[0], &[5.0]);
        let loss = tape.mean_all(z);
        let grads = tape.backward(loss);
        let has_mem = tape
            .param_grads(&grads)
            .iter()
            .any(|(id, g)| store.name(*id).contains(".mem") && g.frobenius_norm() > 0.0);
        assert!(has_mem, "LSTM updater must receive gradient");
        // reset clears the cell store too.
        enc.reset_state();
        assert_eq!(enc.cell_state.as_ref().unwrap().frobenius_norm(), 0.0);
    }

    #[test]
    fn mean_aggregator_differs_from_last_time() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let mut cfg = DgnnConfig::preset(EncoderKind::Tgn, 8, 1.0);
        cfg.agg = AggKind::Mean;
        let graph = graph_from_triples(3, &[(0, 1, 1.0), (0, 2, 2.0)]).unwrap();
        let mut enc_mean = DgnnEncoder::new(&mut store, &mut rng, "m", 3, cfg.clone());
        let mut store2 = ParamStore::new();
        let mut rng2 = StdRng::seed_from_u64(1);
        let cfg_last = DgnnConfig::preset(EncoderKind::Tgn, 8, 1.0);
        let mut enc_last = DgnnEncoder::new(&mut store2, &mut rng2, "m", 3, cfg_last);

        enc_mean.replay(&store, &graph, 10);
        enc_last.replay(&store2, &graph, 10);
        // Node 0 received two messages in one batch; mean vs last differ.
        let diff = Matrix::from_vec(1, 8, enc_mean.memory.state_row(0).to_vec()).max_abs_diff(
            &Matrix::from_vec(1, 8, enc_last.memory.state_row(0).to_vec()),
        );
        assert!(diff > 1e-7, "aggregators should produce different states");
    }
}
