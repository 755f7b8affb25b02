//! The on-disk layout of every sealed artifact: the model file, training
//! checkpoints and the WAL drain checkpoint. No other code knows how these
//! bytes are laid out.
//!
//! ## Layout
//!
//! A payload (the bytes [`integrity::seal`](crate::integrity::seal)
//! footers) is a header followed by the artifact's fields in declaration
//! order:
//!
//! ```text
//! [magic: 8 bytes][version: u32 LE][fields …]
//! ```
//!
//! * Scalars are little-endian; `usize` is written as `u64`, floats as
//!   their IEEE bits (so NaN payloads and `-0.0` survive), `bool` as one
//!   byte `0`/`1`, and enum variants as one tag byte.
//! * A sequence (string, list) is a `u64` length prefix, then its items.
//!   The prefix is checked against the bytes remaining before anything is
//!   allocated, so a corrupt or hostile length cannot allocate beyond the
//!   payload.
//! * A matrix is `rows: u64`, `cols: u64`, then `rows × cols` `f32`s row
//!   by row.
//! * A dynamic graph is its node count, its events in the WAL's 18-byte
//!   [`encode_event`] layout, and its labels. Edge ids and adjacency are
//!   rebuilt on decode through [`DynamicGraph::push_event`], which
//!   re-validates every event.
//!
//! Encoding is canonical: the same value always gives the same bytes
//! (parameters in registration order, optimiser moments by parameter
//! index), which is what lets model files and drain checkpoints be
//! compared byte for byte.
//!
//! ## Refusals
//!
//! Decoding refuses, as [`CpdgError::Corrupt`] naming the file (exit 4), a
//! payload without its artifact's magic, a truncated payload, a length
//! prefix larger than the bytes remaining, an unknown enum tag, and
//! trailing bytes after the last field. Every version starts at 2: the
//! JSON encoding of earlier releases (implicitly version 1) carried no
//! header, so such a file fails the magic check rather than being
//! misread. A known magic with another version is a
//! [`CpdgError::VersionMismatch`].

use crate::checkpoint::{TrainCheckpoint, CHECKPOINT_VERSION};
use crate::error::{CpdgError, CpdgResult};
use crate::model_io::{self, ModelFile};
use crate::pretrain::LossBreakdown;
use crate::wal::{decode_event, encode_event, WalCheckpoint, EVENT_PAYLOAD_LEN};
use cpdg_dgnn::{
    AggKind, DgnnConfig, EmbedKind, EncoderState, GuardConfig, MemKind, Memory, MemorySnapshot,
    MsgKind, TrainGuard,
};
use cpdg_graph::{DynamicGraph, NodeId, Timestamp};
use cpdg_tensor::optim::Adam;
use cpdg_tensor::{Matrix, ParamStore};
use std::path::Path;

/// Layout version of the WAL checkpoint.
pub const FORMAT_VERSION: u32 = 2;

/// A value with a byte layout.
pub trait Encode {
    /// Appends the value's bytes to `out`.
    fn encode(&self, out: &mut Vec<u8>);
}

/// A value that can be read back from its [`Encode`] layout.
pub trait Decode: Sized {
    /// The fewest bytes one encoded value occupies; a length prefix of
    /// `n` items is refused unless `n × MIN_BYTES` bytes remain.
    const MIN_BYTES: usize;

    /// Reads one value, or says what is wrong with the bytes.
    fn decode(r: &mut Reader<'_>) -> Result<Self, String>;
}

/// A top-level sealed artifact: a header, then its [`Encode`] layout.
pub trait Artifact: Encode + Decode {
    /// Magic opening the payload.
    const MAGIC: [u8; 8];
    /// What refusals call this artifact.
    const WHAT: &'static str;
    /// The one version this build reads.
    const VERSION: u32;

    /// Version written into the header (a struct's own `version` field
    /// where it has one).
    fn version(&self) -> u32 {
        Self::VERSION
    }
}

/// The payload of `value`: header, then fields.
pub fn encode_artifact<A: Artifact>(value: &A) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&A::MAGIC);
    value.version().encode(&mut out);
    value.encode(&mut out);
    out
}

/// Decodes a payload written by [`encode_artifact`], refusing anything
/// else with an error naming `path`.
pub fn decode_artifact<A: Artifact>(payload: &[u8], path: &Path) -> CpdgResult<A> {
    if !payload.starts_with(&A::MAGIC) {
        return Err(CpdgError::corrupt(
            path,
            format!(
                "not a {} (no {:?} header); JSON-encoded files from earlier versions are \
                 not read by this version",
                A::WHAT,
                String::from_utf8_lossy(&A::MAGIC)
            ),
        ));
    }
    let mut r = Reader::new(&payload[A::MAGIC.len()..]);
    let corrupt = |reason: String| CpdgError::corrupt(path, format!("bad {}: {reason}", A::WHAT));
    let version = u32::decode(&mut r).map_err(corrupt)?;
    if version != A::VERSION {
        return Err(CpdgError::VersionMismatch {
            found: version,
            expected: A::VERSION,
        });
    }
    let value = A::decode(&mut r).map_err(corrupt)?;
    if r.remaining() > 0 {
        return Err(corrupt(format!(
            "{} trailing bytes after the last field",
            r.remaining()
        )));
    }
    Ok(value)
}

/// The whole encoding of one value (no header) — what tests compare.
pub fn to_bytes<T: Encode + ?Sized>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

/// A cursor over a payload; every read is bounds-checked.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if n > self.remaining() {
            return Err(format!(
                "truncated at byte {}: {n} bytes needed, {} remain",
                self.pos,
                self.remaining()
            ));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], String> {
        Ok(self.take(N)?.try_into().expect("N bytes"))
    }

    /// A `u64` length prefix of items at least `item_bytes` long each,
    /// refused when the bytes remaining cannot hold that many.
    pub fn len(&mut self, item_bytes: usize) -> Result<usize, String> {
        let at = self.pos;
        let n = u64::decode(self)?;
        let remaining = self.remaining();
        usize::try_from(n)
            .ok()
            .filter(|n| n.checked_mul(item_bytes).is_some_and(|b| b <= remaining))
            .ok_or_else(|| {
                format!("length prefix {n} at byte {at} exceeds the {remaining} bytes remaining")
            })
    }
}

macro_rules! scalar {
    ($($t:ty),*) => {$(
        impl Encode for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
        }
        impl Decode for $t {
            const MIN_BYTES: usize = std::mem::size_of::<$t>();
            fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
                r.array().map(<$t>::from_le_bytes)
            }
        }
    )*};
}
scalar!(u8, u32, u64, f32, f64);

impl Encode for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
}

impl Decode for usize {
    const MIN_BYTES: usize = 8;
    fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
        let v = u64::decode(r)?;
        usize::try_from(v).map_err(|_| format!("{v} does not fit this platform's usize"))
    }
}

impl Encode for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        u8::from(*self).encode(out);
    }
}

impl Decode for bool {
    const MIN_BYTES: usize = 1;
    fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(format!("bad bool byte {b}")),
        }
    }
}

impl Encode for str {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        out.extend_from_slice(self.as_bytes());
    }
}

impl Decode for String {
    const MIN_BYTES: usize = 8;
    fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
        let n = r.len(1)?;
        let bytes = r.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "string is not UTF-8".to_string())
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for item in self {
            item.encode(out);
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    const MIN_BYTES: usize = 8;
    fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
        let n = r.len(T::MIN_BYTES)?;
        // Whatever the in-memory size of `T`, reserve no more than the
        // bytes left could describe.
        let reserve = n.min(r.remaining() / std::mem::size_of::<T>().max(1));
        let mut items = Vec::with_capacity(reserve);
        for _ in 0..n {
            items.push(T::decode(r)?);
        }
        Ok(items)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.is_some().encode(out);
        if let Some(v) = self {
            v.encode(out);
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    const MIN_BYTES: usize = 1;
    fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
        Ok(if bool::decode(r)? {
            Some(T::decode(r)?)
        } else {
            None
        })
    }
}

macro_rules! tuple {
    ($($name:ident),*) => {
        impl<$($name: Encode),*> Encode for ($($name,)*) {
            #[allow(non_snake_case)]
            fn encode(&self, out: &mut Vec<u8>) {
                let ($($name,)*) = self;
                $($name.encode(out);)*
            }
        }
        impl<$($name: Decode),*> Decode for ($($name,)*) {
            const MIN_BYTES: usize = 0 $(+ $name::MIN_BYTES)*;
            fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
                Ok(($($name::decode(r)?,)*))
            }
        }
    };
}
tuple!(A, B, C);
tuple!(A, B, C, D);

impl Encode for Matrix {
    fn encode(&self, out: &mut Vec<u8>) {
        self.rows().encode(out);
        self.cols().encode(out);
        out.reserve(4 * self.len());
        for v in self.data() {
            v.encode(out);
        }
    }
}

impl Decode for Matrix {
    const MIN_BYTES: usize = 16;
    fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
        let rows = usize::decode(r)?;
        let cols = usize::decode(r)?;
        let n = rows
            .checked_mul(cols)
            .filter(|n| n.checked_mul(4).is_some_and(|b| b <= r.remaining()))
            .ok_or_else(|| {
                format!(
                    "{rows}×{cols} matrix exceeds the {} bytes remaining",
                    r.remaining()
                )
            })?;
        let data = r
            .take(4 * n)?
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes(b.try_into().expect("4 bytes")))
            .collect();
        Ok(Matrix::from_vec(rows, cols, data))
    }
}

/// Encodes each variant of a field-less enum as one tag byte.
macro_rules! tagged {
    ($ty:ident { $($variant:ident = $tag:literal),* $(,)? }) => {
        impl Encode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                let tag: u8 = match self { $($ty::$variant => $tag,)* };
                tag.encode(out);
            }
        }
        impl Decode for $ty {
            const MIN_BYTES: usize = 1;
            fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
                match u8::decode(r)? {
                    $($tag => Ok($ty::$variant),)*
                    tag => Err(format!("unknown {} tag {tag}", stringify!($ty))),
                }
            }
        }
    };
}
tagged!(EmbedKind { Identity = 0, TimeProjection = 1, Attention = 2 });
tagged!(MsgKind { Identity = 0, Mlp = 1, Attention = 2 });
tagged!(AggKind { LastTime = 0, Mean = 1 });
tagged!(MemKind { Gru = 0, Rnn = 1, Lstm = 2 });

/// Encodes a struct as its listed public fields, in order. Fields given
/// after `;` are not written and decode to the given value.
macro_rules! fields {
    ($ty:ident { $($field:ident: $ft:ty),* $(,)? } $(; $fixed:ident = $value:expr)?) => {
        impl Encode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                $(self.$field.encode(out);)*
            }
        }
        impl Decode for $ty {
            const MIN_BYTES: usize = 0 $(+ <$ft>::MIN_BYTES)*;
            fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
                Ok($ty {
                    $($field: <$ft>::decode(r)?,)*
                    $($fixed: $value,)?
                })
            }
        }
    };
}
fields!(DgnnConfig {
    dim: usize,
    time_dim: usize,
    n_neighbors: usize,
    time_scale: f64,
    embed: EmbedKind,
    msg: MsgKind,
    agg: AggKind,
    mem: MemKind,
});
fields!(GuardConfig {
    max_grad_norm: f32,
    max_retries: usize,
    backoff: f32,
    recovery: f32,
    min_lr_scale: f32,
});
fields!(MemorySnapshot {
    states: Matrix,
    progress: f64
});
fields!(EncoderState {
    memory: Memory,
    cell_state: Option<Matrix>,
    pending: Vec<(NodeId, NodeId, Timestamp)>,
});
fields!(LossBreakdown {
    tlp: f32,
    tc: f32,
    sc: f32,
    total: f32
});
fields!(ModelFile {
    encoder_config: DgnnConfig,
    num_nodes: usize,
    params: ParamStore,
    checkpoints: Vec<MemorySnapshot>,
}; version = model_io::VERSION);
fields!(TrainCheckpoint {
    step: usize,
    epoch: usize,
    next_cp: usize,
    params: ParamStore,
    opt: Adam,
    encoder: EncoderState,
    guard: TrainGuard,
    eie_checkpoints: Vec<MemorySnapshot>,
    epoch_losses: Vec<LossBreakdown>,
    partial_sums: LossBreakdown,
    partial_batches: usize,
}; version = CHECKPOINT_VERSION);

impl Encode for ParamStore {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for id in self.ids() {
            self.name(id).encode(out);
            self.value(id).encode(out);
        }
    }
}

impl Decode for ParamStore {
    const MIN_BYTES: usize = 8;
    fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
        let n = r.len(String::MIN_BYTES + Matrix::MIN_BYTES)?;
        let mut store = ParamStore::new();
        for _ in 0..n {
            let name = String::decode(r)?;
            if store.lookup(&name).is_some() {
                return Err(format!("parameter {name:?} listed twice"));
            }
            store.register(name, Matrix::decode(r)?);
        }
        Ok(store)
    }
}

impl Encode for Adam {
    fn encode(&self, out: &mut Vec<u8>) {
        self.lr.encode(out);
        self.beta1.encode(out);
        self.beta2.encode(out);
        self.eps.encode(out);
        self.weight_decay.encode(out);
        self.moments().encode(out);
    }
}

impl Decode for Adam {
    const MIN_BYTES: usize = 28;
    fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
        let mut adam = Adam::new(f32::decode(r)?);
        adam.beta1 = f32::decode(r)?;
        adam.beta2 = f32::decode(r)?;
        adam.eps = f32::decode(r)?;
        adam.weight_decay = f32::decode(r)?;
        let moments: Vec<cpdg_tensor::optim::AdamMoments> = Decode::decode(r)?;
        if moments.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err("optimiser moments are not in ascending parameter order".to_string());
        }
        adam.set_moments(moments);
        Ok(adam)
    }
}

impl Encode for Memory {
    fn encode(&self, out: &mut Vec<u8>) {
        self.states().encode(out);
        self.last_updates().encode(out);
    }
}

impl Decode for Memory {
    const MIN_BYTES: usize = 24;
    fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
        let states = Matrix::decode(r)?;
        Memory::from_parts(states, Decode::decode(r)?)
    }
}

impl Encode for TrainGuard {
    fn encode(&self, out: &mut Vec<u8>) {
        self.config().encode(out);
        self.lr_scale().encode(out);
        self.consecutive_bad().encode(out);
        self.skipped().encode(out);
        self.recent_losses().encode(out);
    }
}

impl Decode for TrainGuard {
    const MIN_BYTES: usize = GuardConfig::MIN_BYTES + 28;
    fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
        Ok(TrainGuard::from_parts(
            Decode::decode(r)?,
            Decode::decode(r)?,
            Decode::decode(r)?,
            Decode::decode(r)?,
            Decode::decode(r)?,
        ))
    }
}

/// Bytes of one encoded label: node, time, state.
const LABEL_LEN: usize = 13;

impl Encode for DynamicGraph {
    fn encode(&self, out: &mut Vec<u8>) {
        self.num_nodes().encode(out);
        self.num_events().encode(out);
        for e in self.events() {
            out.extend_from_slice(&encode_event(e.src, e.dst, e.t, e.field));
        }
        self.labels().len().encode(out);
        for l in self.labels() {
            l.node.encode(out);
            l.t.encode(out);
            l.label.encode(out);
        }
    }
}

/// Decodes a graph whose node universe must be `num_nodes` (checked
/// before the adjacency lists are allocated).
fn decode_graph(r: &mut Reader<'_>, num_nodes: usize) -> Result<DynamicGraph, String> {
    let declared = usize::decode(r)?;
    if declared != num_nodes {
        return Err(format!(
            "graph of {declared} nodes beside a memory of {num_nodes}"
        ));
    }
    let mut graph = DynamicGraph::empty(num_nodes);
    for i in 0..r.len(EVENT_PAYLOAD_LEN)? {
        let (src, dst, t, field) = decode_event(r.take(EVENT_PAYLOAD_LEN)?)?;
        graph
            .push_event(src, dst, t, field)
            .map_err(|e| format!("graph event {i}: {e}"))?;
    }
    for i in 0..r.len(LABEL_LEN)? {
        let (node, t, label) = Decode::decode(r)?;
        graph
            .push_label(node, t, label)
            .map_err(|e| format!("graph label {i}: {e}"))?;
    }
    Ok(graph)
}

impl Artifact for ModelFile {
    const MAGIC: [u8; 8] = *b"CPDGMODL";
    const WHAT: &'static str = "model file";
    const VERSION: u32 = model_io::VERSION;
    fn version(&self) -> u32 {
        self.version
    }
}

impl Artifact for TrainCheckpoint {
    const MAGIC: [u8; 8] = *b"CPDGCKPT";
    const WHAT: &'static str = "training checkpoint";
    const VERSION: u32 = CHECKPOINT_VERSION;
    fn version(&self) -> u32 {
        self.version
    }
}

/// The encoder state goes first, so the graph's node count can be
/// checked against the memory's before the graph allocates anything.
impl Encode for WalCheckpoint {
    fn encode(&self, out: &mut Vec<u8>) {
        self.applied.encode(out);
        self.encoder.encode(out);
        self.graph.encode(out);
    }
}

impl Decode for WalCheckpoint {
    const MIN_BYTES: usize = 1;
    fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
        let applied = u64::decode(r)?;
        let encoder = EncoderState::decode(r)?;
        let graph = decode_graph(r, encoder.memory.num_nodes())?;
        Ok(WalCheckpoint {
            applied,
            graph,
            encoder,
        })
    }
}

impl Artifact for WalCheckpoint {
    const MAGIC: [u8; 8] = *b"CPDGWALC";
    const WHAT: &'static str = "WAL checkpoint";
    const VERSION: u32 = FORMAT_VERSION;
}

/// Payloads every artifact must refuse, built from a valid `payload`
/// whose `u64` length prefix sits at byte `prefix_at`: cut short, that
/// prefix raised beyond the bytes remaining, one trailing byte, and a
/// JSON-era payload. Each is re-sealed by the caller, so only the codec
/// can catch it.
#[cfg(test)]
pub(crate) fn refused_payloads(payload: &[u8], prefix_at: usize) -> [(&'static str, Vec<u8>); 4] {
    let mut oversized = payload.to_vec();
    oversized[prefix_at..prefix_at + 8].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    let mut trailing = payload.to_vec();
    trailing.push(0);
    [
        ("truncated payload", payload[..payload.len() / 2].to_vec()),
        ("length prefix beyond the payload", oversized),
        ("trailing bytes", trailing),
        (
            "JSON-era payload",
            br#"{"version":1,"num_nodes":3,"params":{"entries":[]}}"#.to_vec(),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::tests::dummy_checkpoint;
    use cpdg_dgnn::EncoderKind;

    fn path() -> &'static Path {
        Path::new("/artifacts/thing.cpdg")
    }

    fn model() -> ModelFile {
        let mut params = ParamStore::new();
        params.register(
            "enc.w",
            Matrix::from_rows(&[&[1.5, -0.0], &[f32::NAN, 3.0]]),
        );
        params.register(
            "head.b",
            Matrix::from_vec(1, 3, vec![f32::INFINITY, 1e-45, -2.5]),
        );
        let snapshot = MemorySnapshot {
            states: Matrix::full(3, 2, 0.25),
            progress: 0.5,
        };
        let cfg = DgnnConfig::preset(EncoderKind::Jodie, 2, 100.0);
        ModelFile::new(cfg, 3, params, vec![snapshot])
    }

    /// A training checkpoint with optimiser moments for several
    /// parameters (a `HashMap` inside `Adam`), LSTM cell state, a guard
    /// that has backed off and recorded losses, and loss history.
    fn busy_checkpoint() -> TrainCheckpoint {
        let mut ckpt = dummy_checkpoint(40);
        for i in 0..6 {
            ckpt.params
                .register(format!("p{i}"), Matrix::full(2, 2, i as f32));
        }
        let grads: Vec<_> = ckpt
            .params
            .ids()
            .map(|id| {
                (
                    id,
                    Matrix::full(
                        ckpt.params.value(id).rows(),
                        ckpt.params.value(id).cols(),
                        0.5,
                    ),
                )
            })
            .collect();
        ckpt.opt.step(&mut ckpt.params, &grads);
        ckpt.guard.inspect(0, 1.0, 1.0).unwrap();
        ckpt.guard.inspect(1, f32::NAN, 1.0).unwrap();
        ckpt.encoder.cell_state = Some(Matrix::full(3, 2, -1.0));
        ckpt.eie_checkpoints.push(MemorySnapshot {
            states: Matrix::full(3, 2, 2.0),
            progress: 1.0,
        });
        ckpt.epoch_losses.push(LossBreakdown {
            tlp: 0.75,
            tc: 0.5,
            sc: 0.25,
            total: 1.5,
        });
        ckpt
    }

    fn wal_checkpoint() -> WalCheckpoint {
        let mut graph = DynamicGraph::empty(3);
        graph.push_event(0, 1, 1.0, 2).unwrap();
        graph.push_event(2, 1, 1.0, 0).unwrap();
        graph.push_event(1, 0, 4.5, 1).unwrap();
        graph.push_label(2, 0.5, true).unwrap();
        graph.push_label(0, 3.0, false).unwrap();
        WalCheckpoint {
            applied: 3,
            graph,
            encoder: busy_checkpoint().encoder,
        }
    }

    /// Encoding twice, encoding a clone and re-encoding the decoded value
    /// all give the same bytes.
    fn assert_canonical<A: Artifact>(value: &A, clone: &A) {
        let bytes = encode_artifact(value);
        assert_eq!(encode_artifact(value), bytes, "{}: encoded twice", A::WHAT);
        assert_eq!(
            encode_artifact(clone),
            bytes,
            "{}: encoded from a clone",
            A::WHAT
        );
        let back: A = decode_artifact(&bytes, path()).unwrap();
        assert_eq!(
            encode_artifact(&back),
            bytes,
            "{}: decoded and re-encoded",
            A::WHAT
        );
    }

    #[test]
    fn every_artifact_encodes_canonically() {
        let m = model();
        let copy = ModelFile::new(
            m.encoder_config.clone(),
            m.num_nodes,
            m.params.clone(),
            m.checkpoints.clone(),
        );
        assert_canonical(&m, &copy);
        let ckpt = busy_checkpoint();
        assert_canonical(&ckpt, &ckpt.clone());
        let wal = wal_checkpoint();
        assert_canonical(&wal, &wal.clone());
    }

    #[test]
    fn decoding_restores_every_field() {
        let back: ModelFile = decode_artifact(&encode_artifact(&model()), path()).unwrap();
        assert_eq!(back.version, model_io::VERSION);
        assert_eq!(back.num_nodes, 3);
        assert_eq!(back.encoder_config.embed, EmbedKind::TimeProjection);
        assert_eq!(back.encoder_config.time_scale, 100.0);
        let w = back.params.value(back.params.lookup("enc.w").unwrap());
        let bits: Vec<u32> = w.data().iter().map(|v| v.to_bits()).collect();
        let want: Vec<u32> = model()
            .params
            .value(model().params.lookup("enc.w").unwrap())
            .data()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(bits, want, "NaN, -0.0 and subnormal bits survive");
        assert_eq!(back.checkpoints[0].progress, 0.5);

        let ckpt = busy_checkpoint();
        let back: TrainCheckpoint = decode_artifact(&encode_artifact(&ckpt), path()).unwrap();
        assert_eq!(back.step, 40);
        assert_eq!(back.guard.skipped(), 1);
        assert_eq!(back.guard.lr_scale(), ckpt.guard.lr_scale());
        assert_eq!(back.guard.recent_losses(), &[1.0]);
        assert_eq!(back.opt.moments().len(), ckpt.params.len());
        assert_eq!(back.encoder.pending, vec![(0, 1, 1.0)]);
        assert_eq!(back.epoch_losses[0].total, 1.5);

        let wal = wal_checkpoint();
        let back: WalCheckpoint = decode_artifact(&encode_artifact(&wal), path()).unwrap();
        assert_eq!(back.applied, 3);
        assert_eq!(back.graph.events(), wal.graph.events());
        assert_eq!(back.graph.labels(), wal.graph.labels());
        for node in 0..3 {
            assert_eq!(
                back.graph.neighbors_all(node),
                wal.graph.neighbors_all(node)
            );
        }
        assert_eq!(back.encoder.cell_state, wal.encoder.cell_state);
    }

    #[test]
    fn a_foreign_header_is_refused_by_name() {
        let json_era = br#"{"version":1,"encoder_config":{}}"#;
        let err = decode_artifact::<ModelFile>(json_era, path()).unwrap_err();
        assert!(matches!(err, CpdgError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("thing.cpdg"), "{err}");
        assert!(err.to_string().contains("JSON"), "{err}");
        // Each artifact answers only to its own magic.
        let model = encode_artifact(&model());
        assert!(decode_artifact::<TrainCheckpoint>(&model, path()).is_err());
        assert!(decode_artifact::<ModelFile>(&[], path()).is_err());

        let mut future = encode_artifact(&wal_checkpoint());
        future[8..12].copy_from_slice(&3u32.to_le_bytes());
        let err = decode_artifact::<WalCheckpoint>(&future, path()).unwrap_err();
        assert!(
            matches!(
                err,
                CpdgError::VersionMismatch {
                    found: 3,
                    expected: FORMAT_VERSION
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn invalid_contents_are_refused() {
        let refused = |payload: &[u8], needle: &str| {
            let err = decode_artifact::<WalCheckpoint>(payload, path()).unwrap_err();
            assert!(matches!(err, CpdgError::Corrupt { .. }), "{err}");
            assert!(err.to_string().contains(needle), "{needle}: {err}");
        };
        let wal = wal_checkpoint();
        let good = encode_artifact(&wal);
        let graph_at = good.len() - to_bytes(&wal.graph).len();
        let events_at = graph_at + 8;
        let event = |i: usize| events_at + 8 + i * EVENT_PAYLOAD_LEN;

        // An event before its predecessor fails `push_event`'s checks.
        let mut backwards = good.clone();
        backwards[event(2) + 8..event(2) + 16].copy_from_slice(&0.5f64.to_bits().to_le_bytes());
        refused(&backwards, "graph event 2");
        // So does a node outside the universe.
        let mut outside = good.clone();
        outside[event(0)..event(0) + 4].copy_from_slice(&7u32.to_le_bytes());
        refused(&outside, "graph event 0");
        // A graph over another universe than the memory beside it.
        let mut universe = good.clone();
        universe[graph_at..graph_at + 8].copy_from_slice(&4u64.to_le_bytes());
        refused(&universe, "graph of 4 nodes");
        // An unknown bool byte in the labels.
        let mut label = good.clone();
        let last = label.len() - 1;
        label[last] = 2;
        refused(&label, "bad bool byte");
        // An unknown enum tag.
        let mut tag = encode_artifact(&model());
        tag[12 + 32] = 9;
        let err = decode_artifact::<ModelFile>(&tag, path()).unwrap_err();
        assert!(err.to_string().contains("unknown EmbedKind tag 9"), "{err}");
    }

    #[test]
    fn duplicate_parameters_and_unordered_moments_are_refused() {
        let mut bytes = to_bytes(&model().params);
        let second = bytes.len() - to_bytes(&Matrix::from_vec(1, 3, vec![0.0; 3])).len() - 8 - 6;
        bytes[second..second + 8].copy_from_slice(&5u64.to_le_bytes());
        bytes[second + 8..second + 13].copy_from_slice(b"enc.w");
        bytes.remove(second + 13);
        let err = ParamStore::decode(&mut Reader::new(&bytes)).unwrap_err();
        assert!(err.contains("listed twice"), "{err}");

        let ckpt = busy_checkpoint();
        let mut moments = ckpt.opt.moments();
        moments.swap(0, 1);
        let mut bytes = Vec::new();
        for v in [
            ckpt.opt.lr,
            ckpt.opt.beta1,
            ckpt.opt.beta2,
            ckpt.opt.eps,
            ckpt.opt.weight_decay,
        ] {
            v.encode(&mut bytes);
        }
        moments.encode(&mut bytes);
        let err = Adam::decode(&mut Reader::new(&bytes)).unwrap_err();
        assert!(err.contains("ascending"), "{err}");
    }

    #[test]
    fn an_impossible_length_allocates_nothing() {
        // 2^61 items of 8 bytes overflow the multiplication; 2^40 f32s
        // fit it but not the payload. Both are refused before any
        // allocation is attempted.
        for n in [1u64 << 61, 1 << 40] {
            let mut bytes = n.to_le_bytes().to_vec();
            bytes.extend_from_slice(&[0; 16]);
            let err = Vec::<f64>::decode(&mut Reader::new(&bytes)).unwrap_err();
            assert!(err.contains("exceeds the 16 bytes remaining"), "{err}");
        }
        let mut huge = (1u64 << 32).to_le_bytes().to_vec();
        huge.extend_from_slice(&(1u64 << 32).to_le_bytes());
        let err = Matrix::decode(&mut Reader::new(&huge)).unwrap_err();
        assert!(err.contains("exceeds the 0 bytes remaining"), "{err}");
    }
}
