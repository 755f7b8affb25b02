//! Line protocol: one request per line, one reply line per request.
//!
//! The grammar is deliberately minimal — whitespace-separated ASCII tokens,
//! no quoting, no escaping — because the protocol exists to exercise the
//! robustness machinery, not to be a product API. What *is* load-bearing:
//!
//! * parsing is total: any byte sequence maps to either a [`Command`]
//!   (`EVENT`, `EMB`, `SCORE`, `RELOAD`, `STATS`, `STATUS`, `PING`) or a
//!   typed parse error, never a panic (property-tested in the serve suite);
//! * replies are self-describing: `OK v<version> …` / `DEGRADED v<version> …`
//!   carry the model version that answered, so clients observe hot reloads;
//!   `ERR <kind> …` carries a machine-readable kind token.
//!
//! Floats are rendered as Rust's shortest round-trip `Display` text, so
//! equal bits always render to equal text — the serve chaos oracle compares
//! reply transcripts byte-for-byte across runs. The text is written by an
//! in-tree writer, not `core::fmt`; `tests::writer_matches_display_on_every_bit_pattern`
//! proves it byte-identical to `format!("{v}")` on all 2³² bit patterns.

use crate::decimal::push_f32;
use cpdg_graph::{FieldId, NodeId, Timestamp};

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `EVENT <src> <dst> <t> [field]` — ingest one interaction.
    Event {
        /// Source node id.
        src: NodeId,
        /// Destination node id.
        dst: NodeId,
        /// Event time (finite).
        t: Timestamp,
        /// Edge field tag (default 0).
        field: FieldId,
    },
    /// `EMB <node> [t]` — node embedding at `t` (default: latest event time).
    Emb {
        /// Query node id.
        node: NodeId,
        /// Query time; `None` means "now" (latest ingested event time).
        t: Option<Timestamp>,
    },
    /// `SCORE <src> <dst> [t]` — link logit for `(src, dst)` at `t`.
    Score {
        /// Candidate source node.
        src: NodeId,
        /// Candidate destination node.
        dst: NodeId,
        /// Query time; `None` means "now".
        t: Option<Timestamp>,
    },
    /// `RELOAD <path>` — hot-swap the model from a file on disk.
    Reload {
        /// Path to the new model artifact.
        path: String,
    },
    /// `STATS` — one-line counters snapshot.
    Stats,
    /// `STATUS` — key=value health snapshot: epoch, queue depth, breaker
    /// state, WAL occupancy, last-recovery stats.
    Status,
    /// `PING` — liveness check, never touches the engine.
    Ping,
}

/// Machine-readable error kind token in `ERR <kind> …` replies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrKind {
    /// Admission queue full; request was shed unprocessed.
    Overloaded,
    /// Request line did not parse.
    Parse,
    /// Hot reload failed; previous model remains live.
    Reload,
    /// Request was valid but execution failed (e.g. bad node id).
    Exec,
}

impl ErrKind {
    /// The wire token.
    pub fn token(self) -> &'static str {
        match self {
            ErrKind::Overloaded => "overloaded",
            ErrKind::Parse => "parse",
            ErrKind::Reload => "reload",
            ErrKind::Exec => "exec",
        }
    }
}

/// A reply line, prior to rendering.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Full-fidelity answer from model version `version`.
    Ok {
        /// Model version that served the request.
        version: u64,
        /// Payload tokens (already rendered).
        body: String,
    },
    /// Fallback answer (static embeddings) from model version `version`.
    Degraded {
        /// Model version that served the request.
        version: u64,
        /// Payload tokens (already rendered).
        body: String,
    },
    /// Typed failure.
    Err {
        /// Machine-readable kind.
        kind: ErrKind,
        /// Human-readable detail (single line).
        detail: String,
    },
}

impl Reply {
    /// Renders the reply as a single protocol line (no trailing newline).
    pub fn render(&self) -> String {
        match self {
            Reply::Ok { version, body } if body.is_empty() => format!("OK v{version}"),
            Reply::Ok { version, body } => format!("OK v{version} {body}"),
            Reply::Degraded { version, body } if body.is_empty() => format!("DEGRADED v{version}"),
            Reply::Degraded { version, body } => format!("DEGRADED v{version} {body}"),
            Reply::Err { kind, detail } if detail.is_empty() => format!("ERR {}", kind.token()),
            Reply::Err { kind, detail } => {
                // Keep the reply a single line whatever the detail contains.
                let flat = detail.replace(['\n', '\r'], " ");
                format!("ERR {} {flat}", kind.token())
            }
        }
    }

    /// True for `ERR` replies.
    pub fn is_err(&self) -> bool {
        matches!(self, Reply::Err { .. })
    }
}

/// Renders a float slice as space-separated shortest-round-trip decimals:
/// each value is exactly std's `format!("{v}")` (so equal bits render
/// identically, as the byte-transcript oracle requires), written in-tree
/// without `core::fmt`. `tests::writer_matches_display_on_every_bit_pattern`
/// proves the equality on every `f32`.
pub fn render_floats(values: &[f32]) -> String {
    let mut out = Vec::with_capacity(values.len() * 12);
    for (i, &v) in values.iter().enumerate() {
        if i > 0 {
            out.push(b' ');
        }
        push_f32(&mut out, v);
    }
    String::from_utf8(out).expect("float text is ASCII")
}

fn parse_node(tok: &str, what: &str) -> Result<NodeId, String> {
    tok.parse::<NodeId>()
        .map_err(|_| format!("bad {what} node id {tok:?}"))
}

fn parse_time(tok: &str) -> Result<Timestamp, String> {
    let t = tok
        .parse::<Timestamp>()
        .map_err(|_| format!("bad time {tok:?}"))?;
    if !t.is_finite() {
        return Err(format!("non-finite time {tok:?}"));
    }
    Ok(t)
}

fn parse_field(tok: &str) -> Result<FieldId, String> {
    tok.parse::<FieldId>()
        .map_err(|_| format!("bad field {tok:?}"))
}

fn arity(cmd: &str, got: usize, want: &str) -> String {
    format!("{cmd} expects {want} argument(s), got {got}")
}

/// Parses one request line. Leading/trailing whitespace is ignored; the verb
/// is case-sensitive (upper-case, like the replies). Every failure is a
/// `String` suitable for an `ERR parse` detail — parsing never panics.
pub fn parse_line(line: &str) -> Result<Command, String> {
    let mut tokens = line.split_whitespace();
    let verb = tokens.next().ok_or_else(|| "empty line".to_string())?;
    let args: Vec<&str> = tokens.collect();
    match verb {
        "EVENT" => {
            if args.len() < 3 || args.len() > 4 {
                return Err(arity("EVENT", args.len(), "3 or 4"));
            }
            let src = parse_node(args[0], "src")?;
            let dst = parse_node(args[1], "dst")?;
            let t = parse_time(args[2])?;
            let field = if args.len() == 4 {
                parse_field(args[3])?
            } else {
                0
            };
            Ok(Command::Event { src, dst, t, field })
        }
        "EMB" => {
            if args.is_empty() || args.len() > 2 {
                return Err(arity("EMB", args.len(), "1 or 2"));
            }
            let node = parse_node(args[0], "query")?;
            let t = if args.len() == 2 {
                Some(parse_time(args[1])?)
            } else {
                None
            };
            Ok(Command::Emb { node, t })
        }
        "SCORE" => {
            if args.len() < 2 || args.len() > 3 {
                return Err(arity("SCORE", args.len(), "2 or 3"));
            }
            let src = parse_node(args[0], "src")?;
            let dst = parse_node(args[1], "dst")?;
            let t = if args.len() == 3 {
                Some(parse_time(args[2])?)
            } else {
                None
            };
            Ok(Command::Score { src, dst, t })
        }
        "RELOAD" => {
            if args.len() != 1 {
                return Err(arity("RELOAD", args.len(), "1"));
            }
            Ok(Command::Reload {
                path: args[0].to_string(),
            })
        }
        "STATS" => {
            if !args.is_empty() {
                return Err(arity("STATS", args.len(), "0"));
            }
            Ok(Command::Stats)
        }
        "STATUS" => {
            if !args.is_empty() {
                return Err(arity("STATUS", args.len(), "0"));
            }
            Ok(Command::Status)
        }
        "PING" => {
            if !args.is_empty() {
                return Err(arity("PING", args.len(), "0"));
            }
            Ok(Command::Ping)
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_verb() {
        assert_eq!(
            parse_line("EVENT 3 7 12.5 2"),
            Ok(Command::Event {
                src: 3,
                dst: 7,
                t: 12.5,
                field: 2
            })
        );
        assert_eq!(
            parse_line("EVENT 3 7 12.5"),
            Ok(Command::Event {
                src: 3,
                dst: 7,
                t: 12.5,
                field: 0
            }),
            "field defaults to 0"
        );
        assert_eq!(parse_line("EMB 4"), Ok(Command::Emb { node: 4, t: None }));
        assert_eq!(
            parse_line("EMB 4 9.0"),
            Ok(Command::Emb {
                node: 4,
                t: Some(9.0)
            })
        );
        assert_eq!(
            parse_line("SCORE 1 2"),
            Ok(Command::Score {
                src: 1,
                dst: 2,
                t: None
            })
        );
        assert_eq!(
            parse_line("SCORE 1 2 5.5"),
            Ok(Command::Score {
                src: 1,
                dst: 2,
                t: Some(5.5)
            })
        );
        assert_eq!(
            parse_line("RELOAD /tmp/model.json"),
            Ok(Command::Reload {
                path: "/tmp/model.json".to_string()
            })
        );
        assert_eq!(parse_line("STATS"), Ok(Command::Stats));
        assert_eq!(parse_line("STATUS"), Ok(Command::Status));
        assert_eq!(parse_line("PING"), Ok(Command::Ping));
    }

    #[test]
    fn whitespace_is_forgiven() {
        assert_eq!(
            parse_line("  EMB   4  "),
            Ok(Command::Emb { node: 4, t: None })
        );
        assert_eq!(parse_line("\tPING\t"), Ok(Command::Ping));
    }

    #[test]
    fn rejects_malformed_lines_with_reasons() {
        assert!(parse_line("").unwrap_err().contains("empty"));
        assert!(parse_line("   ").unwrap_err().contains("empty"));
        assert!(parse_line("FROB 1 2")
            .unwrap_err()
            .contains("unknown command"));
        assert!(
            parse_line("emb 4").unwrap_err().contains("unknown command"),
            "case-sensitive"
        );
        assert!(parse_line("EMB").unwrap_err().contains("expects"));
        assert!(parse_line("EMB x")
            .unwrap_err()
            .contains("bad query node id"));
        assert!(parse_line("EMB 4 nanx").unwrap_err().contains("bad time"));
        assert!(parse_line("EMB 4 NaN").unwrap_err().contains("non-finite"));
        assert!(parse_line("EMB 4 inf").unwrap_err().contains("non-finite"));
        assert!(parse_line("EVENT 1 2").unwrap_err().contains("expects"));
        assert!(parse_line("EVENT 1 2 3.0 4 5")
            .unwrap_err()
            .contains("expects"));
        assert!(parse_line("EVENT -1 2 3.0")
            .unwrap_err()
            .contains("bad src node id"));
        assert!(parse_line("EVENT 1 2 3.0 70000")
            .unwrap_err()
            .contains("bad field"));
        assert!(parse_line("SCORE 1").unwrap_err().contains("expects"));
        assert!(parse_line("RELOAD").unwrap_err().contains("expects"));
        assert!(parse_line("RELOAD a b").unwrap_err().contains("expects"));
        assert!(parse_line("STATS now").unwrap_err().contains("expects"));
        assert!(parse_line("STATUS now").unwrap_err().contains("expects"));
        assert!(parse_line("PING 1").unwrap_err().contains("expects"));
    }

    #[test]
    fn replies_render_single_lines() {
        assert_eq!(
            Reply::Ok {
                version: 3,
                body: "pong".into()
            }
            .render(),
            "OK v3 pong"
        );
        assert_eq!(
            Reply::Ok {
                version: 1,
                body: String::new()
            }
            .render(),
            "OK v1"
        );
        assert_eq!(
            Reply::Degraded {
                version: 2,
                body: "0.5".into()
            }
            .render(),
            "DEGRADED v2 0.5"
        );
        assert_eq!(
            Reply::Err {
                kind: ErrKind::Overloaded,
                detail: "queue at 8".into()
            }
            .render(),
            "ERR overloaded queue at 8"
        );
        assert_eq!(
            Reply::Err {
                kind: ErrKind::Parse,
                detail: "a\nb\rc".into()
            }
            .render(),
            "ERR parse a b c",
            "newlines in details are flattened"
        );
    }

    #[test]
    fn float_rendering_round_trips() {
        let vals = [0.0f32, -1.5, 0.1, 3.4e38, 1.0e-9];
        let text = render_floats(&vals);
        let back: Vec<f32> = text.split(' ').map(|s| s.parse().unwrap()).collect();
        for (a, b) in vals.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} survived the wire");
        }
        assert_eq!(render_floats(&[]), "");
    }

    #[test]
    fn floats_render_as_std_display_does() {
        let cases: [(f32, &str); 14] = [
            (0.0, "0"),
            (-0.0, "-0"),
            (1.0, "1"),
            (0.1, "0.1"),
            (f32::NAN, "NaN"),
            (-f32::NAN, "NaN"),
            (f32::INFINITY, "inf"),
            (f32::NEG_INFINITY, "-inf"),
            (f32::MAX, "340282350000000000000000000000000000000"),
            (
                f32::MIN_POSITIVE,
                "0.000000000000000000000000000000000000011754944",
            ),
            (
                f32::from_bits(1),
                "0.000000000000000000000000000000000000000000001",
            ),
            (16_777_216.0, "16777216"),
            (1e7, "10000000"),
            // Nine significant digits, the most an f32 needs.
            (f32::from_bits(0xbc23_db09), "-0.0100009525"),
        ];
        for (v, text) in cases {
            assert_eq!(render_floats(&[v]), text, "bits {:#010x}", v.to_bits());
        }
        // A tie between the two closest shortest candidates rounds up:
        // 2^21 + 0.25, one ulp above 2^21.
        assert_eq!(
            render_floats(&[f32::from_bits(0x4a00_0001), -0.5, 3.0]),
            "2097152.3 -0.5 3"
        );
    }

    /// Panics at the first bit pattern whose in-tree text differs from
    /// `format!("{v}")`.
    fn assert_writer_matches_display(bits: impl Iterator<Item = u32>) {
        use std::io::Write;
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for b in bits {
            let v = f32::from_bits(b);
            got.clear();
            want.clear();
            push_f32(&mut got, v);
            write!(want, "{v}").expect("writing to a Vec cannot fail");
            assert!(
                got == want,
                "bits {b:#010x}: {:?} vs {v}",
                String::from_utf8_lossy(&got)
            );
        }
    }

    #[test]
    fn writer_matches_display_on_seeded_patterns() {
        // Both ends of every exponent's fraction range: the integers,
        // the powers of two, subnormals, infinities and NaN payloads.
        let ends = (0u32..256).flat_map(|exp| {
            let low = 0..4096;
            let high = (1 << 23) - 4096..1 << 23;
            low.chain(high).map(move |frac| exp << 23 | frac)
        });
        assert_writer_matches_display(ends);
        // A million patterns from a fixed splitmix64 stream, both signs.
        let mut state = 0x5eed_u64;
        let random = std::iter::repeat_with(|| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) >> 32) as u32
        });
        assert_writer_matches_display(random.take(1 << 20));
    }

    /// Every `f32`, split over at most two threads. Run it in release:
    /// `cargo test --release -p cpdg-serve --lib -- --ignored every_bit_pattern`.
    #[test]
    #[ignore = "all 2^32 bit patterns: minutes in release"]
    fn writer_matches_display_on_every_bit_pattern() {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(2)) as u64;
        let share = (1u64 << 32) / workers;
        std::thread::scope(|scope| {
            for w in 0..workers {
                let range = w * share..(w + 1) * share;
                scope.spawn(move || assert_writer_matches_display(range.map(|b| b as u32)));
            }
        });
    }
}
