//! Protocol metrics and event tracing for the RITAS stack.
//!
//! The paper's whole evaluation (§4) is built on per-layer measurement —
//! latency and throughput per protocol, rounds per consensus instance,
//! messages per broadcast. This crate is the reproduction's counterpart:
//! a zero-dependency, thread-safe registry of counters, gauges and
//! fixed-bucket histograms, plus bounded per-instance spans and a flight
//! recorder.
//!
//! Design rules:
//!
//! * **Cheap by default.** Counters and gauges are single relaxed
//!   atomics; an unobserved `Metrics` handle costs one `Arc` clone per
//!   protocol instance and a few atomic adds per message.
//! * **Static registry.** Every metric is a named field, not a
//!   string-keyed map — no hashing on the hot path, and the snapshot
//!   schema is stable by construction.
//! * **Driver-injected time.** Protocol state machines are sans-io and
//!   have no clock; drivers (the threaded node, the discrete-event
//!   simulator) stamp the registry clock via [`Metrics::set_time`], so
//!   span timestamps are wall nanoseconds in production and virtual
//!   nanoseconds in simulation.
//!
//! A [`MetricsSnapshot`] freezes everything into plain data with stable
//! text and JSON renderings, so tests and fault-injection harnesses can
//! assert on protocol-level invariants (e.g. "the crashed victim added
//! zero consensus rounds for the correct majority") instead of timings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, LockResult, Mutex, PoisonError};

pub mod cluster;
pub mod flight;

pub use flight::{FlightEvent, FlightKind, FlightRecorder};

/// The workspace's one lock policy: a guard poisoned by a thread that
/// panicked while holding it is recovered, not propagated, so one failed
/// worker cannot cascade panics through every thread sharing its state.
/// Wraps any `std::sync` acquisition — `lock()`, `read()`, `write()`,
/// `Condvar::wait` and `Condvar::wait_timeout` — in every crate.
pub fn unpoison<G>(acquired: LockResult<G>) -> G {
    acquired.unwrap_or_else(PoisonError::into_inner)
}

/// A monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value instrument (queue depths, live instance counts).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the current value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the value to `v` if it is above the current one.
    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket `i` counts values whose
/// power-of-two magnitude is `i` (bucket upper bound `2^i − 1`…), with
/// the last bucket absorbing everything larger.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// A fixed-bucket histogram with power-of-two bucket bounds.
///
/// Bucket `i` counts values `v` with `2^(i−1) ≤ v < 2^i` (bucket 0
/// counts `v == 0`), which spans `[0, 2^39)` — enough for nanosecond
/// latencies up to ~9 minutes and any size/count this stack produces.
/// Recording is two relaxed atomic adds plus an atomic max.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Index of the bucket that counts `v`.
    pub fn bucket_index(v: u64) -> usize {
        ((64 - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Inclusive upper bound of bucket `i` (`None` for the overflow
    /// bucket).
    pub fn bucket_bound(i: usize) -> Option<u64> {
        if i + 1 >= HISTOGRAM_BUCKETS {
            None
        } else {
            Some((1u64 << i) - 1)
        }
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Freezes the histogram into plain data.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
        }
    }
}

/// Frozen histogram data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`Histogram::bucket_bound`]).
    pub buckets: Vec<u64>,
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Largest observation.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Mean observation, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `p`-th percentile (`0.0 < p <= 100.0`) as the inclusive upper
    /// bound of the bucket containing that rank — the resolution is one
    /// power-of-two bucket, which is what the fixed-bucket design can
    /// honestly report. Returns `max` for ranks landing in the overflow
    /// bucket, 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Never report a bucket bound above the recorded max.
                return Histogram::bucket_bound(i).unwrap_or(self.max).min(self.max);
            }
        }
        self.max
    }
}

/// The stack layer an event or metric belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// Reliable channels (§2.1): frames, bytes, MAC verdicts.
    Transport,
    /// Reliable broadcast (§2.3, Bracha).
    Rb,
    /// Echo broadcast (§2.3, Reiter / Toueg).
    Eb,
    /// Binary consensus (§2.4, Bracha).
    Bc,
    /// Multi-valued consensus (§2.5).
    Mvc,
    /// Vector consensus (§2.6).
    Vc,
    /// Atomic broadcast (§2.7).
    Ab,
    /// The stack frame router and out-of-context buffers (§3.4).
    Stack,
    /// The threaded node runtime (§3).
    Node,
    /// The client-facing service tier (session front-end, reply voting).
    Service,
}

impl Layer {
    /// Stable lowercase name used in dumps.
    pub fn as_str(self) -> &'static str {
        match self {
            Layer::Transport => "transport",
            Layer::Rb => "rb",
            Layer::Eb => "eb",
            Layer::Bc => "bc",
            Layer::Mvc => "mvc",
            Layer::Vc => "vc",
            Layer::Ab => "ab",
            Layer::Stack => "stack",
            Layer::Node => "node",
            Layer::Service => "service",
        }
    }

    /// Inverse of [`Layer::as_str`] (span-dump parsing).
    pub fn parse(s: &str) -> Option<Layer> {
        Some(match s {
            "transport" => Layer::Transport,
            "rb" => Layer::Rb,
            "eb" => Layer::Eb,
            "bc" => Layer::Bc,
            "mvc" => Layer::Mvc,
            "vc" => Layer::Vc,
            "ab" => Layer::Ab,
            "stack" => Layer::Stack,
            "node" => Layer::Node,
            "service" => Layer::Service,
            _ => return None,
        })
    }
}

// ---------------------------------------------------------------------------
// Spans: per-instance open/close intervals along the control-block chain
// ---------------------------------------------------------------------------

/// Maximum number of spans the registry retains (closed spans are evicted
/// oldest-first past this bound; opens past it are dropped and counted).
pub const SPAN_CAPACITY: usize = 4096;

/// Maximum depth of a span path (`/`-separated segments); deeper opens
/// are dropped and counted.
pub const SPAN_MAX_DEPTH: usize = 8;

/// Maximum annotations retained per span (excess is dropped silently —
/// a runaway BC already shows up in `bc_rounds`).
pub const SPAN_MAX_ANNOTATIONS: usize = 64;

/// A typed span annotation: a protocol-phase event inside an instance's
/// lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanAnnotation {
    /// A binary consensus instance entered round `value`.
    RoundEntered,
    /// A coin was flipped; `value` is the coin's bit.
    CoinFlipped,
    /// A consensus VECT quorum was collected; `value` counts entries.
    VectCollected,
    /// A generic phase transition; `value` is a layer-specific code.
    Phase,
    /// A point-to-point link lost its connection; `value` is the link's
    /// session epoch at the time of the outage. The owning span closes
    /// when the session-resume handshake completes.
    LinkOutage,
    /// A broadcast quorum completed; `value` is the peer whose message
    /// closed the quorum — the last arrival, i.e. the process that
    /// delayed this step of the critical path.
    QuorumMet,
    /// A binary consensus round's concluding quorum completed; `value`
    /// packs `(round << 8) | origin`, where `origin` is the peer whose
    /// message closed the round (see [`pack_round_quorum`]).
    RoundQuorum,
}

/// Packs a BC round number and the quorum-closing origin into one
/// [`SpanAnnotation::RoundQuorum`] value.
pub fn pack_round_quorum(round: u32, origin: u32) -> u64 {
    (u64::from(round) << 8) | u64::from(origin & 0xFF)
}

/// Inverse of [`pack_round_quorum`]: `(round, origin)`.
pub fn unpack_round_quorum(value: u64) -> (u32, u32) {
    ((value >> 8) as u32, (value & 0xFF) as u32)
}

impl SpanAnnotation {
    /// Stable kebab-case name used in dumps.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanAnnotation::RoundEntered => "round-entered",
            SpanAnnotation::CoinFlipped => "coin-flipped",
            SpanAnnotation::VectCollected => "vect-collected",
            SpanAnnotation::Phase => "phase",
            SpanAnnotation::LinkOutage => "link-outage",
            SpanAnnotation::QuorumMet => "quorum-met",
            SpanAnnotation::RoundQuorum => "round-quorum",
        }
    }

    /// Inverse of [`SpanAnnotation::as_str`].
    pub fn parse(s: &str) -> Option<SpanAnnotation> {
        Some(match s {
            "round-entered" => SpanAnnotation::RoundEntered,
            "coin-flipped" => SpanAnnotation::CoinFlipped,
            "vect-collected" => SpanAnnotation::VectCollected,
            "phase" => SpanAnnotation::Phase,
            "link-outage" => SpanAnnotation::LinkOutage,
            "quorum-met" => SpanAnnotation::QuorumMet,
            "round-quorum" => SpanAnnotation::RoundQuorum,
            _ => return None,
        })
    }
}

/// One timestamped annotation on a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanNote {
    /// Driver timestamp (clamped to ≥ the span's open time).
    pub t: u64,
    /// What happened.
    pub kind: SpanAnnotation,
    /// Annotation-specific value (round number, coin bit, count…).
    pub value: u64,
}

/// One protocol-instance span. Parent linkage is implicit in the path:
/// `ab:0/r:3/mvc/bc` is a child of `ab:0/r:3/mvc`, mirroring the §3
/// control-block chain (AB → MVC → BC → RB/EB).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// `/`-separated instance path, e.g. `ab:0/m:1:0/rb`.
    pub path: String,
    /// The layer that owns the instance.
    pub layer: Layer,
    /// Driver time at open (wall ns on the node runtime, virtual ns in
    /// the simulator).
    pub open: u64,
    /// Driver time at close; `None` while the instance is still live.
    /// Clamped to ≥ `open`, so durations are never negative even when
    /// the injected clock misbehaves.
    pub close: Option<u64>,
    /// Phase annotations, in arrival order.
    pub annotations: Vec<SpanNote>,
}

impl SpanRecord {
    /// The parent path, `None` for roots.
    pub fn parent(&self) -> Option<&str> {
        self.path.rsplit_once('/').map(|(p, _)| p)
    }

    /// The final path segment (the instance's local name).
    pub fn leaf(&self) -> &str {
        self.path.rsplit('/').next().unwrap_or(&self.path)
    }

    /// Path depth in segments.
    pub fn depth(&self) -> usize {
        self.path.split('/').count()
    }

    /// Close − open, `None` while open.
    pub fn duration(&self) -> Option<u64> {
        self.close.map(|c| c - self.open)
    }

    /// Renders the span as one JSON object (one JSONL line, no trailing
    /// newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.path.len());
        let _ = write!(
            out,
            "{{\"path\":\"{}\",\"layer\":\"{}\",\"open\":{},\"close\":",
            escape_json(&self.path),
            self.layer.as_str(),
            self.open
        );
        match self.close {
            Some(c) => {
                let _ = write!(out, "{c}");
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"notes\":[");
        for (i, n) in self.annotations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{},\"{}\",{}]", n.t, n.kind.as_str(), n.value);
        }
        out.push_str("]}");
        out
    }

    /// Parses one JSONL line produced by [`SpanRecord::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on malformed JSON or on a
    /// well-formed object that is not a span.
    pub fn from_json(line: &str) -> Result<SpanRecord, String> {
        let v = json::parse(line)?;
        let obj = v.as_obj().ok_or("span line is not a JSON object")?;
        let field = |name: &str| -> Result<&json::Value, String> {
            obj.iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing field {name:?}"))
        };
        let path = field("path")?
            .as_str()
            .ok_or("path is not a string")?
            .to_string();
        let layer = field("layer")?.as_str().ok_or("layer is not a string")?;
        let layer = Layer::parse(layer).ok_or_else(|| format!("unknown layer {layer:?}"))?;
        let open = field("open")?.as_u64().ok_or("open is not a number")?;
        let close = match field("close")? {
            json::Value::Null => None,
            v => Some(v.as_u64().ok_or("close is not a number")?),
        };
        let mut annotations = Vec::new();
        for note in field("notes")?.as_arr().ok_or("notes is not an array")? {
            let triple = note.as_arr().ok_or("note is not an array")?;
            if triple.len() != 3 {
                return Err("note is not a [t, kind, value] triple".into());
            }
            let kind = triple[1].as_str().ok_or("note kind is not a string")?;
            annotations.push(SpanNote {
                t: triple[0].as_u64().ok_or("note time is not a number")?,
                kind: SpanAnnotation::parse(kind)
                    .ok_or_else(|| format!("unknown annotation {kind:?}"))?,
                value: triple[2].as_u64().ok_or("note value is not a number")?,
            });
        }
        Ok(SpanRecord {
            path,
            layer,
            open,
            close,
            annotations,
        })
    }
}

/// Renders spans as JSONL (one span object per line).
pub fn spans_to_jsonl(spans: &[SpanRecord]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(&s.to_json());
        out.push('\n');
    }
    out
}

/// Parses a JSONL span dump; blank lines are skipped.
///
/// # Errors
///
/// Returns `(line number, message)` for the first malformed line.
pub fn spans_from_jsonl(text: &str) -> Result<Vec<SpanRecord>, (usize, String)> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(SpanRecord::from_json(line).map_err(|e| (i + 1, e))?);
    }
    Ok(out)
}

/// A minimal JSON reader for the span-dump format — the crate is
/// zero-dependency, so the trace tooling parses its own dumps with this
/// instead of serde.
mod json {
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Num(u64),
        Str(String),
        Arr(Vec<Value>),
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Value::Num(n) => Some(*n),
                _ => None,
            }
        }

        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        pub fn as_arr(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(a) => Some(a),
                _ => None,
            }
        }

        pub fn as_obj(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Obj(o) => Some(o),
                _ => None,
            }
        }
    }

    pub fn parse(s: &str) -> Result<Value, String> {
        let b = s.as_bytes();
        let mut pos = 0;
        let v = value(b, &mut pos)?;
        skip_ws(b, &mut pos);
        if pos != b.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
        if b[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(())
        } else {
            Err(format!("expected {lit:?} at byte {}", *pos))
        }
    }

    fn value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            None => Err("unexpected end of input".into()),
            Some(b'n') => expect(b, pos, "null").map(|()| Value::Null),
            Some(b't') => expect(b, pos, "true").map(|()| Value::Bool(true)),
            Some(b'f') => expect(b, pos, "false").map(|()| Value::Bool(false)),
            Some(b'"') => string(b, pos).map(Value::Str),
            Some(b'[') => {
                *pos += 1;
                let mut items = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(value(b, pos)?);
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                    }
                }
            }
            Some(b'{') => {
                *pos += 1;
                let mut fields = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Value::Obj(fields));
                }
                loop {
                    skip_ws(b, pos);
                    let key = string(b, pos)?;
                    skip_ws(b, pos);
                    expect(b, pos, ":")?;
                    fields.push((key, value(b, pos)?));
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Value::Obj(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                    }
                }
            }
            Some(c) if c.is_ascii_digit() => {
                let start = *pos;
                while *pos < b.len() && b[*pos].is_ascii_digit() {
                    *pos += 1;
                }
                std::str::from_utf8(&b[start..*pos])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Value::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
            Some(c) => Err(format!("unexpected byte {c:#04x} at {}", *pos)),
        }
    }

    fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected string at byte {}", *pos));
        }
        *pos += 1;
        let mut out = String::new();
        loop {
            match b.get(*pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = b
                                .get(*pos + 1..*pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            *pos += 4;
                        }
                        _ => return Err("bad escape".into()),
                    }
                    *pos += 1;
                }
                Some(_) => {
                    // Copy one UTF-8 scalar (input is a &str, so this is
                    // always at a char boundary).
                    let s = std::str::from_utf8(&b[*pos..]).map_err(|_| "invalid utf-8")?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    *pos += c.len_utf8();
                }
            }
        }
    }
}

#[derive(Debug, Default)]
struct SpanRegistryInner {
    /// Live spans by path.
    open: BTreeMap<String, SpanRecord>,
    /// Finished spans, oldest first, bounded by [`SPAN_CAPACITY`].
    closed: std::collections::VecDeque<SpanRecord>,
}

/// Bounded per-instance span storage. One mutex guards both maps — span
/// transitions are rare (per protocol instance, not per message), so
/// contention is negligible.
#[derive(Debug)]
struct SpanRegistry {
    inner: Mutex<SpanRegistryInner>,
    capacity: usize,
}

impl SpanRegistry {
    fn new(capacity: usize) -> Self {
        SpanRegistry {
            inner: Mutex::new(SpanRegistryInner::default()),
            capacity,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SpanRegistryInner> {
        unpoison(self.inner.lock())
    }
}

// ---------------------------------------------------------------------------
// Critical-path roll-up
// ---------------------------------------------------------------------------

/// The per-layer latency breakdown of one a-delivered message. Segments
/// are clamped onto the monotone milestone chain, so they always sum to
/// exactly `total_ns`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalPath {
    /// The message span path (`ab:{session}/m:{sender}:{rbid}`).
    pub path: String,
    /// a-broadcast → a-deliver, driver nanoseconds.
    pub total_ns: u64,
    /// `(segment label, duration ns)`, in chain order.
    pub segments: Vec<(&'static str, u64)>,
}

impl CriticalPath {
    /// The dominant segment (largest share of the total).
    pub fn dominant(&self) -> (&'static str, u64) {
        self.segments
            .iter()
            .copied()
            .max_by_key(|(_, ns)| *ns)
            .unwrap_or(("total", self.total_ns))
    }

    /// A segment's share of the total in percent (0.0 when total is 0).
    pub fn share(&self, label: &str) -> f64 {
        if self.total_ns == 0 {
            return 0.0;
        }
        self.segments
            .iter()
            .find(|(l, _)| *l == label)
            .map_or(0.0, |(_, ns)| 100.0 * *ns as f64 / self.total_ns as f64)
    }
}

/// Segment labels of the a-deliver critical path, in chain order:
/// broadcast-side batch queueing (`queue`), payload dissemination
/// (`rb`), waiting for the deciding agreement round to open (`wait`),
/// VECT collection (`vect`), MVC proposal gathering (`mvc`), binary
/// consensus (`bc`), MVC decision propagation (`mvc-decide`), round
/// conclusion (`conclude`) and final ordering (`deliver`).
pub const CRITICAL_PATH_SEGMENTS: [&str; 9] = [
    "queue",
    "rb",
    "wait",
    "vect",
    "mvc",
    "bc",
    "mvc-decide",
    "conclude",
    "deliver",
];

/// Attributes every closed AB message span in `spans` to its per-layer
/// critical path, using the child spans along its control-block chain.
/// The milestone chain is clamped monotone, so each breakdown sums to
/// exactly the message's a-deliver latency.
pub fn critical_paths(spans: &[SpanRecord]) -> Vec<CriticalPath> {
    use std::collections::HashMap;
    let by_path: HashMap<&str, &SpanRecord> = spans.iter().map(|s| (s.path.as_str(), s)).collect();
    let closed = |path: &str| -> Option<(u64, u64)> {
        by_path.get(path).and_then(|s| s.close.map(|c| (s.open, c)))
    };
    let mut out = Vec::new();
    for s in spans {
        let Some(t_deliver) = s.close else { continue };
        let Some((root, leaf)) = s.path.rsplit_once('/') else {
            continue;
        };
        if !leaf.starts_with("m:") || root.contains('/') {
            continue;
        }
        let t0 = s.open;
        // Milestone 1: the command left the broadcast-side batch queue
        // (absent for remote messages and unbatched configurations —
        // the segment then collapses to zero).
        let queue_done = closed(&format!("{}/queue", s.path)).map(|(_, c)| c);
        // Milestone 2: the payload RB child delivered.
        let rb_done = closed(&format!("{}/rb", s.path)).map(|(_, c)| c);
        // The deciding round: the round span (`{root}/r:{n}`) whose close
        // is the latest not after the delivery; deliveries happen in the
        // same driver step as the round's conclusion.
        let round = spans
            .iter()
            .filter(|r| {
                r.parent() == Some(root)
                    && r.leaf().starts_with("r:")
                    && r.close.is_some_and(|c| c <= t_deliver)
            })
            .max_by_key(|r| (r.close, r.open));
        let mut milestones: Vec<u64> = Vec::with_capacity(10);
        milestones.push(t0);
        milestones.push(queue_done.unwrap_or(t0));
        milestones.push(rb_done.unwrap_or(t0));
        match round {
            Some(r) => {
                let (r0, r1) = (r.open, r.close.unwrap_or(r.open));
                let mvc = closed(&format!("{}/mvc", r.path));
                let bc = closed(&format!("{}/mvc/bc", r.path));
                milestones.push(r0);
                milestones.push(mvc.map_or(r0, |(o, _)| o));
                milestones.push(bc.map_or(r0, |(o, _)| o));
                milestones.push(bc.map_or(r1, |(_, c)| c));
                milestones.push(mvc.map_or(r1, |(_, c)| c));
                milestones.push(r1);
            }
            None => {
                // Round spans evicted or absent: charge everything after
                // the RB to the agreement machinery wholesale.
                let after_rb = rb_done.unwrap_or(t0);
                milestones.extend([
                    after_rb, after_rb, after_rb, t_deliver, t_deliver, t_deliver,
                ]);
            }
        }
        milestones.push(t_deliver);
        // Clamp onto a monotone chain inside [t0, t_deliver]: segments
        // then sum to exactly t_deliver − t0.
        let mut floor = t0;
        for m in &mut milestones {
            *m = (*m).clamp(floor, t_deliver);
            floor = *m;
        }
        let segments = CRITICAL_PATH_SEGMENTS
            .iter()
            .enumerate()
            .map(|(i, label)| (*label, milestones[i + 1] - milestones[i]))
            .collect();
        out.push(CriticalPath {
            path: s.path.clone(),
            total_ns: t_deliver - t0,
            segments,
        });
    }
    out.sort_by(|a, b| a.path.cmp(&b.path));
    out
}

// ---------------------------------------------------------------------------
// Byzantine suspicion telemetry: per-peer conformance counters
// ---------------------------------------------------------------------------

/// What a peer was caught doing. Mirrors the protocol fault taxonomy
/// (`FaultKind` in the core crate) plus the transport's MAC/anti-replay
/// rejections — every evidence path that attributes misbehavior to a
/// specific peer feeds one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuspicionKind {
    /// A transport frame from the peer failed MAC verification or the
    /// anti-replay window (forged or replayed traffic).
    BadMac,
    /// A syntactically malformed protocol message.
    Malformed,
    /// Two conflicting messages where the protocol allows one
    /// (equivocation evidence).
    Equivocation,
    /// A message the peer was not entitled to send in that role.
    NotEntitled,
    /// A vector/matrix authenticator (per-entry MAC) that failed
    /// verification (EB row screening and friends).
    BadAuthenticator,
    /// A value that fails the protocol's justification rule (Bracha
    /// validation, biased coins, unjustified proposals).
    Unjustified,
    /// A state-transfer chunk whose Merkle proof did not verify against
    /// the agreed snapshot root (corrupt snapshot served during
    /// recovery).
    BadChunk,
}

/// Number of [`SuspicionKind`] variants (the per-peer counter row width).
pub const SUSPICION_KINDS: usize = 7;

impl SuspicionKind {
    /// All kinds, in counter-row order.
    pub const ALL: [SuspicionKind; SUSPICION_KINDS] = [
        SuspicionKind::BadMac,
        SuspicionKind::Malformed,
        SuspicionKind::Equivocation,
        SuspicionKind::NotEntitled,
        SuspicionKind::BadAuthenticator,
        SuspicionKind::Unjustified,
        SuspicionKind::BadChunk,
    ];

    /// This kind's slot in a per-peer counter row.
    pub fn index(self) -> usize {
        match self {
            SuspicionKind::BadMac => 0,
            SuspicionKind::Malformed => 1,
            SuspicionKind::Equivocation => 2,
            SuspicionKind::NotEntitled => 3,
            SuspicionKind::BadAuthenticator => 4,
            SuspicionKind::Unjustified => 5,
            SuspicionKind::BadChunk => 6,
        }
    }

    /// Stable kebab-case name used in dumps and Prometheus labels.
    pub fn as_str(self) -> &'static str {
        match self {
            SuspicionKind::BadMac => "bad-mac",
            SuspicionKind::Malformed => "malformed",
            SuspicionKind::Equivocation => "equivocation",
            SuspicionKind::NotEntitled => "not-entitled",
            SuspicionKind::BadAuthenticator => "bad-authenticator",
            SuspicionKind::Unjustified => "unjustified",
            SuspicionKind::BadChunk => "bad-chunk",
        }
    }
}

/// One peer's frozen suspicion-counter row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuspicionSnapshot {
    /// The suspected peer.
    pub peer: u32,
    /// Evidence counts, indexed by [`SuspicionKind::index`].
    pub counts: [u64; SUSPICION_KINDS],
}

impl SuspicionSnapshot {
    /// Evidence count for one kind.
    pub fn count(&self, kind: SuspicionKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Total evidence against this peer across all kinds.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// Declares the metric registry from one list of `name: Kind` lines
/// (doc comment included): the `MetricsInner` fields, their `Default`,
/// the name → kind table behind `MetricsSnapshot::to_prometheus`'s gauge
/// typing, and the per-kind freeze into a `MetricsSnapshot`.
/// Adding a metric is adding one line to the invocation below.
macro_rules! instruments {
    ($($(#[$doc:meta])* $name:ident: $kind:ident,)*) => {
        /// The metric registry: every instrument the stack exposes, as public
        /// named fields grouped by layer.
        #[derive(Debug)]
        pub struct MetricsInner {
            $($(#[$doc])* pub $name: $kind,)*
            suspicions: Mutex<BTreeMap<u32, [u64; SUSPICION_KINDS]>>,
            flight: flight::FlightRecorder,
            spans: SpanRegistry,
            clock: AtomicU64,
            tracing_enabled: AtomicBool,
        }

        impl Default for MetricsInner {
            fn default() -> Self {
                MetricsInner {
                    $($name: $kind::default(),)*
                    suspicions: Mutex::new(BTreeMap::new()),
                    flight: flight::FlightRecorder::new(flight::FLIGHT_CAPACITY),
                    spans: SpanRegistry::new(SPAN_CAPACITY),
                    clock: AtomicU64::new(0),
                    tracing_enabled: AtomicBool::new(true),
                }
            }
        }

        /// Every declared instrument, in declaration order.
        const INSTRUMENTS: &[(&str, InstrumentKind)] =
            &[$((stringify!($name), InstrumentKind::$kind),)*];

        impl MetricsInner {
            /// Freezes every instrument under its field name: counters and
            /// gauges (point-in-time values) share one map, histograms get
            /// the other.
            fn freeze(&self) -> (BTreeMap<&'static str, u64>, BTreeMap<&'static str, HistogramSnapshot>) {
                let (mut counters, mut histograms) = (BTreeMap::new(), BTreeMap::new());
                $(freeze!($kind, self.$name, stringify!($name), counters, histograms);)*
                (counters, histograms)
            }
        }
    };
}

macro_rules! freeze {
    (Histogram, $inst:expr, $name:expr, $counters:ident, $histograms:ident) => {
        $histograms.insert($name, $inst.snapshot());
    };
    // Counter or Gauge.
    ($kind:ident, $inst:expr, $name:expr, $counters:ident, $histograms:ident) => {
        $counters.insert($name, $inst.get());
    };
}

/// What an instrument is, as declared in the `instruments!` list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InstrumentKind {
    Counter,
    Gauge,
    Histogram,
}

instruments! {
    // ---- transport (§2.1) ----
    /// Frames handed to the network. Under the AH layer one frame
    /// carries every message a pass sent that peer; without it, one.
    transport_frames_sent: Counter,
    /// Frames received from the network (before authentication).
    transport_frames_recv: Counter,
    /// Messages handed to the transport, one per message per peer.
    transport_msgs_sent: Counter,
    /// Payload bytes handed to the network.
    transport_bytes_sent: Counter,
    /// Payload bytes received from the network.
    transport_bytes_recv: Counter,
    /// Inbound frames dropped by MAC/ICV or anti-replay checks.
    transport_mac_rejected: Counter,
    /// Session-resume handshakes completed after a link outage (epoch
    /// advances past the initial establishment).
    transport_reconnects_total: Counter,
    /// Link transitions from `Up` into `Reconnecting`/`Down`.
    transport_link_down_total: Counter,
    /// Sends that hit the bounded retransmission buffer and gave up with
    /// `LinkDown` after the bounded wait (backpressure surfaced).
    transport_send_backpressure_total: Counter,
    /// Inbound frames rejected for carrying a stale key epoch (older than
    /// the grace window after a proactive key refresh).
    transport_epoch_rejected: Counter,
    /// Key-epoch fast-forwards adopted from authenticated peer traffic
    /// (a rejoining replica learning the cluster's current epoch).
    transport_epoch_adopted: Counter,
    /// Point-to-point links currently in the `Up` state.
    transport_links_up: Gauge,

    // ---- reliable broadcast (§2.3) ----
    /// INIT messages received.
    rb_init_recv: Counter,
    /// ECHO messages received.
    rb_echo_recv: Counter,
    /// READY messages received.
    rb_ready_recv: Counter,
    /// Payloads delivered by reliable broadcast instances.
    rb_delivered: Counter,

    // ---- echo broadcast (§2.3) ----
    /// INITIAL messages received.
    eb_init_recv: Counter,
    /// Echo-vector messages received.
    eb_vect_recv: Counter,
    /// Payloads delivered by echo broadcast instances.
    eb_delivered: Counter,

    // ---- binary consensus (§2.4) ----
    /// Instances that proposed.
    bc_started: Counter,
    /// Instances that decided.
    bc_decided: Counter,
    /// Local/shared coin flips performed.
    bc_coin_flips: Counter,
    /// Rounds needed per decided instance.
    bc_rounds: Histogram,
    /// Decided instances woken from their quiet post-decision state: some
    /// other member named a later round, so the extra round was run.
    bc_courtesy_rounds: Counter,

    // ---- multi-valued consensus (§2.5) ----
    /// Instances that proposed.
    mvc_started: Counter,
    /// Instances that decided a proposed value.
    mvc_decided_value: Counter,
    /// Instances that decided ⊥.
    mvc_decided_bottom: Counter,

    // ---- vector consensus (§2.6) ----
    /// Instances that proposed.
    vc_started: Counter,
    /// Instances that decided.
    vc_decided: Counter,
    /// Agreement rounds needed per decided instance.
    vc_rounds: Histogram,

    // ---- atomic broadcast (§2.7) ----
    /// Messages a-broadcast locally.
    ab_broadcast: Counter,
    /// Messages a-delivered locally.
    ab_delivered: Counter,
    /// Agreement instances run (MVC decisions consumed).
    ab_agreements: Counter,
    /// Batches ordered per non-⊥ agreement (the paper's batching lever).
    ab_batch: Histogram,
    /// Commands packed per flushed dissemination batch.
    ab_batch_commands: Histogram,
    /// Commands waiting in the broadcast-side batch queue.
    ab_queue_depth: Gauge,
    /// Batches flushed because the queue reached the size bound.
    ab_flush_size: Counter,
    /// Batches flushed because the oldest queued command aged out.
    ab_flush_age: Counter,
    /// Batches flushed immediately because no own batch was in flight.
    ab_flush_idle: Counter,
    /// `AB_VECT`/`AB_AGREE` frames ignored because their round's state
    /// has been freed (further behind than any process can still be).
    ab_stale_round_dropped: Counter,
    /// a-broadcast → a-deliver latency in driver nanoseconds (own
    /// messages only).
    ab_latency_ns: Histogram,

    // ---- service tier (client front-end) ----
    /// Requests looked up at the replica: one per `submit` or
    /// `await_reply` call.
    service_requests_total: Counter,
    /// Replies sent back to clients.
    service_replies_total: Counter,
    /// Requests answered from the session table or an in-flight merge
    /// without a fresh a-broadcast (retry dedup at the serving replica).
    service_dedup_hits: Counter,
    /// Ordered duplicates skipped at apply time (another replica already
    /// got the same `(client, seq)` command ordered first).
    service_dup_apply_skipped: Counter,
    /// Client commands actually applied to the replicated state.
    service_commands_applied: Counter,
    /// Reads that went through the ordered (atomic-broadcast) path.
    service_reads_ordered: Counter,
    /// Inbound client frames dropped for failing MAC authentication.
    service_auth_rejected: Counter,
    /// Requests refused because the session table was full of live
    /// in-flight sessions (admission control).
    service_busy_rejected: Counter,
    /// Client sessions currently tracked by the session table.
    service_sessions_live: Gauge,
    /// Client requests currently in flight (submitted, not yet applied).
    service_inflight: Gauge,
    /// Client-side: requests issued.
    service_client_requests: Counter,
    /// Client-side: retransmissions after timeout/failover.
    service_client_retries: Counter,
    /// Client-side: reply sets that never reached `f+1` matching votes
    /// within a round (Byzantine or divergent replies observed).
    service_client_vote_failures: Counter,
    /// Client-side: end-to-end request latency in nanoseconds (send of
    /// first copy → `f+1`-th matching reply).
    service_e2e_latency_ns: Histogram,

    // ---- spans ----
    /// Spans opened.
    span_opened: Counter,
    /// Spans closed.
    span_closed: Counter,
    /// Span opens dropped by the capacity or depth caps.
    span_dropped: Counter,
    /// Closes with no matching open span (counted, then ignored).
    span_orphan_closed: Counter,
    /// Currently live (open) spans.
    span_open_live: Gauge,

    // ---- stack / node (§3) ----
    /// Local a-broadcasts still awaiting their a-deliver (the node
    /// runtime's latency-correlation map; bounded).
    ab_sent_pending: Gauge,
    /// Frames dispatched through the stack router.
    stack_frames_in: Counter,
    /// Faults attributed to peers (equivocation, bad MACs, garbage…).
    faults_detected: Counter,
    /// Live protocol instances in the stack.
    stack_instances: Gauge,
    /// Messages currently parked out-of-context.
    stack_ooc_buffered: Gauge,

    // ---- health / forensics ----
    /// Watchdog stall detections: outstanding work made no protocol
    /// progress within the configured budget.
    node_stalls_total: Counter,
    /// Deliveries applied by the replicated state machine (all senders,
    /// markers included).
    rsm_applied_total: Counter,
    /// RSM apply watermark: own sequential rbids applied contiguously.
    rsm_applied_watermark: Gauge,
    /// Byzantine-suspicion events across all peers (the per-peer,
    /// per-kind breakdown is [`Metrics::suspicions`]).
    suspicions_total: Counter,

    // ---- recovery (snapshots, state transfer, rejoin) ----
    /// Snapshots taken at apply-watermark boundaries.
    recovery_snapshots_total: Counter,
    /// Snapshot chunk requests served to rejoining peers.
    recovery_chunks_served: Counter,
    /// Snapshot chunks fetched (and proof-verified) during a rejoin.
    recovery_chunks_fetched: Counter,
    /// Chunks reused from a stale local snapshot by Merkle anti-entropy
    /// (not downloaded).
    recovery_chunks_reused: Counter,
    /// Fetched chunks whose Merkle proof failed verification (corrupt
    /// chunk server; also feeds the suspicion table).
    recovery_chunk_proof_rejected: Counter,
    /// Rejoins that reached the `Live` phase.
    recovery_completed_total: Counter,
    /// Current recovery phase (0 live, 1 syncing, 2 catching up).
    recovery_phase: Gauge,

    // ---- proactive rotation (scheduler) ----
    /// Rotation slots scheduled through atomic broadcast (`ScheduleWipe`
    /// commands applied from the replicated log).
    rotation_scheduled_total: Counter,
    /// Wipe-and-rejoin rounds completed (`WipeComplete` applied).
    rotation_rounds_total: Counter,
    /// Rotation slots deferred because the group was already degraded
    /// (a stalled node, suspicion pressure, or a stuck slot aborted).
    rotation_deferrals_total: Counter,
    /// Current key epoch agreed through the replicated log.
    rotation_epoch: Gauge,
    /// Victim of the in-flight rotation slot, stored as `id + 1`
    /// (0 = no slot active).
    rotation_active_victim: Gauge,
    /// Replica scheduled to recover on the next rotation slot.
    rotation_next_victim: Gauge,
}

/// A cheaply cloneable handle to one process's metric registry.
///
/// Every protocol instance in a stack shares the stack's handle; a
/// free-standing instance created without one gets its own private
/// registry, so instrumentation code never needs a null check.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    inner: Arc<MetricsInner>,
}

impl Metrics {
    /// Creates a fresh registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Enables or disables span recording on this registry.
    ///
    /// Counters, gauges and histograms are always live — only the
    /// allocating observability paths (`span_open`, `span_close`,
    /// `span_annotate`) become no-ops when disabled. Throughput
    /// benchmarks turn tracing off so the measurement isn't dominated by
    /// its own instrumentation (20–25 % of a saturated single core as
    /// perfbench's `metrics.tracing_cost_pct` reads it since PR 18,
    /// ≈ 60 µs per a-delivered command); everything else keeps the
    /// default (enabled).
    pub fn set_tracing(&self, enabled: bool) {
        self.inner.tracing_enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether span recording is currently enabled.
    pub fn tracing_enabled(&self) -> bool {
        self.inner.tracing_enabled.load(Ordering::Relaxed)
    }

    /// Injects the driver's current time (wall ns or virtual ns) used to
    /// stamp subsequent spans and flight events.
    pub fn set_time(&self, now: u64) {
        self.inner.clock.store(now, Ordering::Relaxed);
    }

    /// The last injected driver time.
    pub fn time(&self) -> u64 {
        self.inner.clock.load(Ordering::Relaxed)
    }

    /// Opens the span at `path`, stamped with the current driver time.
    /// Idempotent: re-opening a live span keeps the original open time.
    /// Opens past [`SPAN_CAPACITY`] live spans or [`SPAN_MAX_DEPTH`]
    /// path segments are dropped (and counted in `span_dropped`).
    pub fn span_open(&self, path: impl Into<String>, layer: Layer) {
        if !self.tracing_enabled() {
            return;
        }
        let path = path.into();
        if path.split('/').count() > SPAN_MAX_DEPTH {
            self.inner.span_dropped.inc();
            return;
        }
        let now = self.time();
        let mut g = self.inner.spans.lock();
        if g.open.contains_key(&path) {
            return;
        }
        if g.open.len() >= self.inner.spans.capacity {
            self.inner.span_dropped.inc();
            return;
        }
        g.open.insert(
            path.clone(),
            SpanRecord {
                path,
                layer,
                open: now,
                close: None,
                annotations: Vec::new(),
            },
        );
        self.inner.span_opened.inc();
        self.inner.span_open_live.set(g.open.len() as u64);
    }

    /// Attaches a typed annotation to the live span at `path`; ignored
    /// (not an error) when the span is not open.
    pub fn span_annotate(&self, path: &str, kind: SpanAnnotation, value: u64) {
        if !self.tracing_enabled() {
            return;
        }
        let now = self.time();
        let mut g = self.inner.spans.lock();
        if let Some(s) = g.open.get_mut(path) {
            if s.annotations.len() < SPAN_MAX_ANNOTATIONS {
                let t = now.max(s.open);
                s.annotations.push(SpanNote { t, kind, value });
            }
        }
    }

    /// Closes the span at `path` at the current driver time (clamped to
    /// ≥ its open time, keeping virtual-time durations monotone). An
    /// orphan close — no matching open — is counted and ignored.
    pub fn span_close(&self, path: &str) {
        if !self.tracing_enabled() {
            return;
        }
        let now = self.time();
        let mut g = self.inner.spans.lock();
        match g.open.remove(path) {
            Some(mut s) => {
                s.close = Some(now.max(s.open));
                if g.closed.len() >= self.inner.spans.capacity {
                    g.closed.pop_front();
                }
                g.closed.push_back(s);
                self.inner.span_closed.inc();
                self.inner.span_open_live.set(g.open.len() as u64);
            }
            None => self.inner.span_orphan_closed.inc(),
        }
    }

    /// Records evidence of misbehavior attributed to `peer`. Feeds the
    /// per-peer suspicion table, the aggregate `suspicions_total`
    /// counter, and the flight recorder. Unlike spans, suspicion
    /// accounting is never gated by [`Metrics::set_tracing`] — it is
    /// intrusion *detection* state, not tracing.
    pub fn suspect(&self, peer: u32, kind: SuspicionKind) {
        self.inner.suspicions_total.inc();
        {
            let mut g = unpoison(self.inner.suspicions.lock());
            g.entry(peer).or_insert([0; SUSPICION_KINDS])[kind.index()] += 1;
        }
        self.flight_record(FlightKind::Suspicion, peer, kind.index() as u64, 0);
    }

    /// Drops every suspicion row accumulated against `peer`.
    ///
    /// Called when `peer` completes a proactive wipe-and-rejoin: a
    /// rejuvenated replica starts from a clean image and a fresh key
    /// epoch, so pre-wipe Byzantine evidence no longer describes the
    /// process now running under that id. The aggregate
    /// `suspicions_total` counter is monotone history and is *not*
    /// rewound; only the live per-peer table is reset. The clear itself
    /// is flight-recorded so forensics can see when evidence was aged
    /// out.
    pub fn clear_suspicions_of(&self, peer: u32) {
        let cleared = {
            let mut g = unpoison(self.inner.suspicions.lock());
            match g.remove(&peer) {
                Some(counts) => counts.iter().sum::<u64>(),
                None => return,
            }
        };
        self.flight_record(FlightKind::Recovery, peer, u64::MAX, cleared);
    }

    /// The per-peer suspicion table, peers in ascending order. Empty in
    /// failure-free runs — every row is evidence.
    pub fn suspicions(&self) -> Vec<SuspicionSnapshot> {
        unpoison(self.inner.suspicions.lock())
            .iter()
            .map(|(&peer, &counts)| SuspicionSnapshot { peer, counts })
            .collect()
    }

    /// Records one flight-recorder event stamped with the driver clock.
    pub fn flight_record(&self, kind: FlightKind, peer: u32, a: u64, b: u64) {
        self.inner.flight.record(FlightEvent {
            t: self.time(),
            kind,
            peer,
            a,
            b,
        });
    }

    /// The bounded flight recorder (protocol-event ring for post-mortem
    /// dumps).
    pub fn flight(&self) -> &FlightRecorder {
        &self.inner.flight
    }

    /// All retained spans: closed spans oldest-first, then the still-open
    /// ones (with `close == None`) in path order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        let g = self.inner.spans.lock();
        g.closed
            .iter()
            .cloned()
            .chain(g.open.values().cloned())
            .collect()
    }

    /// Freezes every instrument into a [`MetricsSnapshot`].
    pub fn snapshot(&self) -> MetricsSnapshot {
        let m = &*self.inner;
        let (counters, histograms) = m.freeze();
        MetricsSnapshot {
            counters,
            histograms,
            spans: self.spans(),
            suspicions: self.suspicions(),
        }
    }

    /// Direct access to the instruments (for instrumentation sites).
    pub fn raw(&self) -> &MetricsInner {
        &self.inner
    }
}

impl std::ops::Deref for Metrics {
    type Target = MetricsInner;

    #[inline]
    fn deref(&self) -> &MetricsInner {
        &self.inner
    }
}

/// A frozen, serializable view of one process's metrics.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// All counters and gauges by stable name.
    pub counters: BTreeMap<&'static str, u64>,
    /// All histograms by stable name.
    pub histograms: BTreeMap<&'static str, HistogramSnapshot>,
    /// Retained instance spans: closed oldest-first, then open ones.
    pub spans: Vec<SpanRecord>,
    /// Per-peer Byzantine suspicion rows, peers ascending (empty in
    /// failure-free runs).
    pub suspicions: Vec<SuspicionSnapshot>,
}

impl MetricsSnapshot {
    /// Value of a counter/gauge, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A histogram by name, when present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Whether every layer of the stack reported at least one event —
    /// the "the run actually exercised the whole stack" check used by
    /// integration tests.
    pub fn all_layers_active(&self) -> bool {
        self.counter("transport_frames_recv") > 0
            && self.counter("rb_echo_recv") + self.counter("rb_init_recv") > 0
            && self.counter("eb_init_recv") + self.counter("eb_vect_recv") > 0
            && self.counter("bc_decided") > 0
            && self.counter("mvc_started") > 0
            && self.counter("vc_started") + self.counter("ab_delivered") > 0
            && self.counter("ab_delivered") > 0
    }

    /// The per-message critical-path breakdowns derivable from the
    /// retained spans (see [`critical_paths`]).
    pub fn critical_paths(&self) -> Vec<CriticalPath> {
        critical_paths(&self.spans)
    }

    /// Renders a stable `name value` text dump (one line per counter,
    /// histograms as `name{count,sum,max,mean,p50,p99}`, then span
    /// totals and up to 20 per-message critical-path breakdowns).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "{name}{{count={} sum={} max={} mean={:.1} p50={} p99={}}}",
                h.count,
                h.sum,
                h.max,
                h.mean(),
                h.percentile(50.0),
                h.percentile(99.0)
            );
        }
        for s in &self.suspicions {
            let _ = write!(out, "suspicion{{peer={}", s.peer);
            for kind in SuspicionKind::ALL {
                let _ = write!(out, " {}={}", kind.as_str(), s.count(kind));
            }
            let _ = writeln!(out, "}}");
        }
        let _ = writeln!(out, "spans {}", self.spans.len());
        let paths = self.critical_paths();
        let _ = writeln!(out, "critical_paths {}", paths.len());
        for cp in paths.iter().take(20) {
            let _ = write!(out, "critical_path{{path={} total={}", cp.path, cp.total_ns);
            for (label, ns) in &cp.segments {
                let _ = write!(out, " {label}={ns}");
            }
            let _ = writeln!(out, "}}");
        }
        out
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (metric prefix `ritas_`, histograms with cumulative `le` buckets).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let kind = if INSTRUMENTS.contains(&(*name, InstrumentKind::Gauge)) {
                "gauge"
            } else {
                "counter"
            };
            let _ = writeln!(out, "# TYPE ritas_{name} {kind}");
            let _ = writeln!(out, "ritas_{name} {value}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(out, "# TYPE ritas_{name} histogram");
            let mut cumulative = 0u64;
            for (i, &c) in h.buckets.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                cumulative += c;
                // The overflow bucket is folded into +Inf below.
                if let Some(bound) = Histogram::bucket_bound(i) {
                    let _ = writeln!(out, "ritas_{name}_bucket{{le=\"{bound}\"}} {cumulative}");
                }
            }
            let _ = writeln!(out, "ritas_{name}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "ritas_{name}_sum {}", h.sum);
            let _ = writeln!(out, "ritas_{name}_count {}", h.count);
        }
        if !self.suspicions.is_empty() {
            let _ = writeln!(out, "# TYPE ritas_suspicions counter");
            for s in &self.suspicions {
                for kind in SuspicionKind::ALL {
                    let _ = writeln!(
                        out,
                        "ritas_suspicions{{peer=\"{}\",kind=\"{}\"}} {}",
                        s.peer,
                        kind.as_str(),
                        s.count(kind)
                    );
                }
            }
        }
        out
    }

    /// Renders the snapshot as a stable JSON object: `{"counters": {...},
    /// "histograms": {...}, "suspicions": [...], "spans": [...],
    /// "critical_paths": [...]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        let mut first = true;
        for (name, value) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\"{name}\":{value}");
        }
        out.push_str("},\"histograms\":{");
        first = true;
        for (name, h) in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\"{name}\":{{\"count\":{},\"sum\":{},\"max\":{},\"buckets\":[",
                h.count, h.sum, h.max
            );
            // Sparse rendering: [index, count] pairs for nonzero buckets.
            let mut first_bucket = true;
            for (i, &c) in h.buckets.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                if !first_bucket {
                    out.push(',');
                }
                first_bucket = false;
                let _ = write!(out, "[{i},{c}]");
            }
            out.push_str("]}");
        }
        out.push_str("},\"suspicions\":[");
        first = true;
        for s in &self.suspicions {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "{{\"peer\":{}", s.peer);
            for kind in SuspicionKind::ALL {
                let _ = write!(out, ",\"{}\":{}", kind.as_str(), s.count(kind));
            }
            out.push('}');
        }
        out.push_str("],\"spans\":[");
        first = true;
        for s in &self.spans {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&s.to_json());
        }
        out.push_str("],\"critical_paths\":[");
        first = true;
        for cp in self.critical_paths() {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"path\":\"{}\",\"total_ns\":{},\"segments\":{{",
                escape_json(&cp.path),
                cp.total_ns
            );
            let mut first_seg = true;
            for (label, ns) in &cp.segments {
                if !first_seg {
                    out.push(',');
                }
                first_seg = false;
                let _ = write!(out, "\"{label}\":{ns}");
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unpoison_leaves_a_panicked_holders_lock_usable() {
        let m = Arc::new(Mutex::new(1));
        let held = Arc::clone(&m);
        let died = std::thread::spawn(move || {
            let mut g = unpoison(held.lock());
            *g = 2;
            panic!("poison the lock");
        })
        .join();
        assert!(died.is_err() && m.is_poisoned());
        let mut g = unpoison(m.lock());
        assert_eq!(*g, 2, "the dead holder's last write survives");
        *g = 3;
        drop(g);
        assert_eq!(*unpoison(m.lock()), 3);
    }

    #[test]
    fn counter_and_gauge_basics() {
        let m = Metrics::new();
        m.rb_echo_recv.inc();
        m.rb_echo_recv.add(2);
        assert_eq!(m.rb_echo_recv.get(), 3);
        m.stack_instances.set(7);
        m.stack_instances.set_max(3);
        assert_eq!(m.stack_instances.get(), 7);
        m.stack_instances.set_max(11);
        assert_eq!(m.stack_instances.get(), 11);
    }

    #[test]
    fn histogram_bucket_bounds_are_powers_of_two() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(Histogram::bucket_bound(0), Some(0));
        assert_eq!(Histogram::bucket_bound(3), Some(7));
        assert_eq!(Histogram::bucket_bound(HISTOGRAM_BUCKETS - 1), None);
    }

    #[test]
    fn histogram_records_count_sum_max() {
        let h = Histogram::default();
        for v in [1u64, 2, 3, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 1006);
        assert_eq!(s.max, 1000);
        assert!((s.mean() - 251.5).abs() < 1e-9);
        // Values 2 and 3 share the [2, 3] bucket.
        assert_eq!(s.buckets[Histogram::bucket_index(2)], 2);
    }

    #[test]
    fn concurrent_counter_updates_do_not_lose_increments() {
        let m = Metrics::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let m = m.clone();
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        m.transport_frames_sent.inc();
                        m.ab_latency_ns.record(42);
                    }
                });
            }
        });
        assert_eq!(m.transport_frames_sent.get(), 80_000);
        assert_eq!(m.ab_latency_ns.count(), 80_000);
        assert_eq!(m.ab_latency_ns.sum(), 80_000 * 42);
    }

    #[test]
    fn clone_shares_the_registry() {
        let a = Metrics::new();
        let b = a.clone();
        b.bc_coin_flips.inc();
        assert_eq!(a.bc_coin_flips.get(), 1);
    }

    #[test]
    fn snapshot_text_and_json_are_stable() {
        let m = Metrics::new();
        m.rb_delivered.add(4);
        m.bc_rounds.record(1);
        m.span_open("rb:0:1", Layer::Rb);
        let snap = m.snapshot();
        let text = snap.to_text();
        assert!(text.contains("rb_delivered 4"));
        assert!(text.contains("bc_rounds{count=1 sum=1 max=1 mean=1.0 p50=1 p99=1}"));
        let json = snap.to_json();
        assert!(json.starts_with("{\"counters\":{"));
        assert!(json.contains("\"rb_delivered\":4"));
        assert!(json.contains("\"bc_rounds\":{\"count\":1"));
        assert!(json.contains("\"path\":\"rb:0:1\""));
        assert!(json.contains("\"spans\":["));
        assert!(json.contains("\"critical_paths\":["));
        // Deterministic: same snapshot renders identically.
        assert_eq!(json, snap.to_json());
    }

    #[test]
    fn json_escapes_hostile_span_paths() {
        let m = Metrics::new();
        m.span_open("he said \"hi\"\\\n", Layer::Stack);
        let json = m.snapshot().to_json();
        assert!(json.contains("he said \\\"hi\\\"\\\\\\u000a"));
    }

    #[test]
    fn counter_lookup_defaults_to_zero() {
        let snap = Metrics::new().snapshot();
        assert_eq!(snap.counter("does_not_exist"), 0);
        assert!(snap.histogram("nope").is_none());
        assert!(!snap.all_layers_active());
    }

    #[test]
    fn percentiles_walk_the_cumulative_buckets() {
        let h = Histogram::default();
        for v in 0..100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        // 100 observations over [0, 99]; p50 lands in the [32, 63]
        // bucket, p99 and p100 in the [64, 127] bucket (clamped to max).
        assert_eq!(s.percentile(50.0), 63);
        assert_eq!(s.percentile(99.0), 99);
        assert_eq!(s.percentile(100.0), 99);
        // p ≈ 0 clamps to the first occupied bucket.
        assert_eq!(s.percentile(0.1), 0);
        assert_eq!(Histogram::default().snapshot().percentile(50.0), 0);
    }

    #[test]
    fn span_open_close_roundtrip_with_annotations() {
        let m = Metrics::new();
        m.set_time(100);
        m.span_open("ab:0/m:1:0", Layer::Ab);
        m.set_time(150);
        m.span_annotate("ab:0/m:1:0", SpanAnnotation::RoundEntered, 2);
        m.set_time(300);
        m.span_close("ab:0/m:1:0");
        let spans = m.spans();
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert_eq!(s.path, "ab:0/m:1:0");
        assert_eq!((s.open, s.close), (100, Some(300)));
        assert_eq!(s.parent(), Some("ab:0"));
        assert_eq!(s.leaf(), "m:1:0");
        assert_eq!(s.duration(), Some(200));
        assert_eq!(
            s.annotations,
            vec![SpanNote {
                t: 150,
                kind: SpanAnnotation::RoundEntered,
                value: 2
            }]
        );
        assert_eq!(m.span_opened.get(), 1);
        assert_eq!(m.span_closed.get(), 1);
        assert_eq!(m.span_open_live.get(), 0);
    }

    #[test]
    fn span_open_is_idempotent_and_orphan_close_is_counted() {
        let m = Metrics::new();
        m.set_time(10);
        m.span_open("rb:0:1", Layer::Rb);
        m.set_time(50);
        m.span_open("rb:0:1", Layer::Rb); // keeps the original open time
        m.span_close("never-opened");
        assert_eq!(m.span_orphan_closed.get(), 1);
        m.span_close("rb:0:1");
        let spans = m.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].open, 10);
        // Closing twice: the second is an orphan.
        m.span_close("rb:0:1");
        assert_eq!(m.span_orphan_closed.get(), 2);
    }

    #[test]
    fn span_depth_cap_drops_and_counts() {
        let m = Metrics::new();
        let deep = (0..=SPAN_MAX_DEPTH)
            .map(|i| format!("s{i}"))
            .collect::<Vec<_>>()
            .join("/");
        m.span_open(deep.clone(), Layer::Stack);
        assert_eq!(m.span_dropped.get(), 1);
        m.span_close(&deep);
        assert_eq!(m.span_orphan_closed.get(), 1);
        assert!(m.spans().is_empty());
    }

    #[test]
    fn span_close_clamps_backwards_time() {
        // Virtual-time monotonicity: a close stamped before the open
        // (misbehaving driver clock) clamps to a zero-length span.
        let m = Metrics::new();
        m.set_time(500);
        m.span_open("bc:7", Layer::Bc);
        m.set_time(200);
        m.span_annotate("bc:7", SpanAnnotation::CoinFlipped, 1);
        m.span_close("bc:7");
        let s = &m.spans()[0];
        assert_eq!(s.close, Some(500));
        assert_eq!(s.duration(), Some(0));
        assert_eq!(s.annotations[0].t, 500);
    }

    #[test]
    fn span_registry_stays_bounded() {
        let m = Metrics::new();
        for i in 0..(SPAN_CAPACITY + 50) {
            let path = format!("rb:0:{i}");
            m.span_open(path.clone(), Layer::Rb);
            m.span_close(&path);
        }
        let spans = m.spans();
        assert_eq!(spans.len(), SPAN_CAPACITY);
        // Oldest-first eviction: the first retained span is number 50.
        assert_eq!(spans[0].path, "rb:0:50");
        // The open side is bounded too: excess opens are dropped.
        for i in 0..(SPAN_CAPACITY + 10) {
            m.span_open(format!("eb:0:{i}"), Layer::Eb);
        }
        assert!(m.span_open_live.get() <= SPAN_CAPACITY as u64);
        assert!(m.span_dropped.get() >= 10);
    }

    #[test]
    fn span_jsonl_roundtrip() {
        let m = Metrics::new();
        m.set_time(5);
        m.span_open("ab:0/m:0:0", Layer::Ab);
        m.span_open("ab:0/m:0:0/rb", Layer::Rb);
        m.set_time(9);
        m.span_annotate("ab:0/m:0:0", SpanAnnotation::VectCollected, 3);
        m.span_close("ab:0/m:0:0/rb");
        let spans = m.spans();
        let jsonl = spans_to_jsonl(&spans);
        let parsed = spans_from_jsonl(&jsonl).expect("roundtrip parse");
        assert_eq!(parsed, spans);
        // Open spans survive the roundtrip with close = null.
        assert!(parsed.iter().any(|s| s.close.is_none()));
        assert!(jsonl.contains("\"close\":null"));
    }

    #[test]
    fn span_jsonl_rejects_garbage() {
        assert!(spans_from_jsonl("not json\n").is_err());
        assert!(spans_from_jsonl("{\"path\":\"x\"}\n").is_err());
        assert!(spans_from_jsonl(
            "{\"path\":\"x\",\"layer\":\"nope\",\"open\":1,\"close\":null,\"notes\":[]}"
        )
        .is_err());
        let (line, _) = spans_from_jsonl(
            "{\"path\":\"x\",\"layer\":\"rb\",\"open\":1,\"close\":2,\"notes\":[]}\nbroken",
        )
        .unwrap_err();
        assert_eq!(line, 2);
    }

    /// Builds the span tree of one delivered AB message with known
    /// milestone times.
    fn message_tree(m: &Metrics) {
        m.set_time(0);
        m.span_open("ab:0/m:0:0", Layer::Ab);
        m.span_open("ab:0/m:0:0/queue", Layer::Ab);
        m.set_time(20);
        m.span_close("ab:0/m:0:0/queue");
        m.span_open("ab:0/m:0:0/rb", Layer::Rb);
        m.set_time(100);
        m.span_close("ab:0/m:0:0/rb");
        m.set_time(120);
        m.span_open("ab:0/r:1", Layer::Ab);
        m.set_time(200);
        m.span_open("ab:0/r:1/mvc", Layer::Mvc);
        m.set_time(260);
        m.span_open("ab:0/r:1/mvc/bc", Layer::Bc);
        m.set_time(700);
        m.span_close("ab:0/r:1/mvc/bc");
        m.set_time(780);
        m.span_close("ab:0/r:1/mvc");
        m.set_time(800);
        m.span_close("ab:0/r:1");
        m.span_close("ab:0/m:0:0");
    }

    #[test]
    fn critical_path_components_sum_to_the_total() {
        let m = Metrics::new();
        message_tree(&m);
        let paths = critical_paths(&m.spans());
        assert_eq!(paths.len(), 1);
        let cp = &paths[0];
        assert_eq!(cp.path, "ab:0/m:0:0");
        assert_eq!(cp.total_ns, 800);
        let sum: u64 = cp.segments.iter().map(|(_, ns)| ns).sum();
        assert_eq!(sum, cp.total_ns, "segments must sum exactly");
        let seg = |l: &str| cp.segments.iter().find(|(s, _)| *s == l).unwrap().1;
        assert_eq!(seg("queue"), 20);
        assert_eq!(seg("rb"), 80);
        assert_eq!(seg("wait"), 20);
        assert_eq!(seg("vect"), 80);
        assert_eq!(seg("mvc"), 60);
        assert_eq!(seg("bc"), 440);
        assert_eq!(seg("mvc-decide"), 80);
        assert_eq!(seg("conclude"), 20);
        assert_eq!(seg("deliver"), 0);
        assert_eq!(cp.dominant().0, "bc");
        assert!((cp.share("bc") - 55.0).abs() < 0.1);
        // The snapshot renders it in both formats.
        let snap = m.snapshot();
        assert!(snap
            .to_text()
            .contains("critical_path{path=ab:0/m:0:0 total=800"));
        assert!(snap
            .to_json()
            .contains("\"critical_paths\":[{\"path\":\"ab:0/m:0:0\""));
    }

    #[test]
    fn critical_path_without_round_spans_still_sums() {
        let m = Metrics::new();
        m.set_time(0);
        m.span_open("ab:0/m:2:5", Layer::Ab);
        m.span_open("ab:0/m:2:5/rb", Layer::Rb);
        m.set_time(40);
        m.span_close("ab:0/m:2:5/rb");
        m.set_time(90);
        m.span_close("ab:0/m:2:5");
        let paths = critical_paths(&m.spans());
        assert_eq!(paths.len(), 1);
        let sum: u64 = paths[0].segments.iter().map(|(_, ns)| ns).sum();
        assert_eq!(sum, 90);
    }

    #[test]
    fn prometheus_exposition_has_cumulative_buckets() {
        let m = Metrics::new();
        m.rb_delivered.add(3);
        m.stack_instances.set(2);
        m.ab_latency_ns.record(5);
        m.ab_latency_ns.record(1000);
        let text = m.snapshot().to_prometheus();
        assert!(text.contains("# TYPE ritas_rb_delivered counter\nritas_rb_delivered 3"));
        assert!(text.contains("# TYPE ritas_stack_instances gauge"));
        assert!(text.contains("# TYPE ritas_ab_latency_ns histogram"));
        assert!(text.contains("ritas_ab_latency_ns_bucket{le=\"7\"} 1"));
        assert!(text.contains("ritas_ab_latency_ns_bucket{le=\"1023\"} 2"));
        assert!(text.contains("ritas_ab_latency_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("ritas_ab_latency_ns_sum 1005"));
        assert!(text.contains("ritas_ab_latency_ns_count 2"));
    }

    #[test]
    fn set_tracing_false_gates_spans_but_not_counters() {
        let m = Metrics::new();
        m.set_tracing(false);
        assert!(!m.tracing_enabled());
        m.span_open("rb:0:gated", Layer::Rb);
        m.span_close("rb:0:gated");
        m.ab_delivered.inc();
        let snap = m.snapshot();
        assert!(snap.spans.is_empty(), "span recorded while disabled");
        assert_eq!(snap.counters["ab_delivered"], 1, "counters must stay live");
        // Orphan-close bookkeeping is also suppressed while disabled.
        assert_eq!(snap.counters["span_orphan_closed"], 0);
        // Re-enabling restores the full pipeline.
        m.set_tracing(true);
        m.span_open("rb:0:live", Layer::Rb);
        m.span_close("rb:0:live");
        let snap = m.snapshot();
        assert_eq!(snap.spans.len(), 1);
    }

    #[test]
    fn span_registry_stays_bounded_under_concurrent_snapshots() {
        // 8 writer threads flood the span registry while 4 reader
        // threads snapshot; the registry must never exceed its capacity
        // and every snapshot must render.
        let m = Metrics::new();
        std::thread::scope(|scope| {
            for w in 0..8 {
                let m = m.clone();
                scope.spawn(move || {
                    for i in 0..2_000u32 {
                        let path = format!("rb:{w}:{i}");
                        m.span_open(path.clone(), Layer::Rb);
                        m.span_close(&path);
                    }
                });
            }
            for _ in 0..4 {
                let m = m.clone();
                scope.spawn(move || {
                    for _ in 0..50 {
                        let snap = m.snapshot();
                        assert!(snap.spans.len() <= 2 * SPAN_CAPACITY);
                        // Renderings never panic mid-flight.
                        let _ = snap.to_text();
                        let _ = snap.to_prometheus();
                    }
                });
            }
        });
        let snap = m.snapshot();
        assert_eq!(snap.spans.len(), SPAN_CAPACITY);
        assert_eq!(m.span_opened.get(), 8 * 2_000);
        assert_eq!(m.span_closed.get(), 8 * 2_000);
    }

    #[test]
    fn prometheus_exports_every_batching_metric() {
        // Scrape-presence audit for the PR-6 batching instruments: all
        // five must appear in the exposition even before any traffic
        // (gauges and counters render at 0; histograms always emit
        // their _sum/_count series).
        let m = Metrics::new();
        let text = m.snapshot().to_prometheus();
        assert!(text.contains("# TYPE ritas_ab_queue_depth gauge\nritas_ab_queue_depth 0"));
        assert!(text.contains("# TYPE ritas_ab_flush_size counter\nritas_ab_flush_size 0"));
        assert!(text.contains("# TYPE ritas_ab_flush_age counter\nritas_ab_flush_age 0"));
        assert!(text.contains("# TYPE ritas_ab_flush_idle counter\nritas_ab_flush_idle 0"));
        assert!(text.contains("# TYPE ritas_ab_batch_commands histogram"));
        assert!(text.contains("ritas_ab_batch_commands_count 0"));
        // And the values flow through once the instruments move.
        m.ab_queue_depth.set(3);
        m.ab_flush_size.inc();
        m.ab_batch_commands.record(8);
        let text = m.snapshot().to_prometheus();
        assert!(text.contains("ritas_ab_queue_depth 3"));
        assert!(text.contains("ritas_ab_flush_size 1"));
        assert!(text.contains("ritas_ab_batch_commands_count 1"));
        // New health instruments ride the same audit.
        assert!(text.contains("# TYPE ritas_node_stalls_total counter"));
        assert!(text.contains("# TYPE ritas_rsm_applied_watermark gauge"));
    }

    #[test]
    fn every_declared_instrument_is_exported_under_its_field_name() {
        assert_eq!(INSTRUMENTS.len(), 82);
        let snap = Metrics::new().snapshot();
        let prom = snap.to_prometheus();
        for &(name, kind) in INSTRUMENTS {
            let typed = match kind {
                InstrumentKind::Counter => "counter",
                InstrumentKind::Gauge => "gauge",
                InstrumentKind::Histogram => "histogram",
            };
            let in_snapshot = match kind {
                InstrumentKind::Histogram => snap.histograms.contains_key(name),
                _ => snap.counters.contains_key(name),
            };
            assert!(in_snapshot, "{name} missing from snapshot()");
            assert!(
                prom.contains(&format!("# TYPE ritas_{name} {typed}\n")),
                "{name} not typed {typed} in to_prometheus()"
            );
        }
        // Nothing reaches the snapshot except through the declared list.
        assert_eq!(
            snap.counters.len() + snap.histograms.len(),
            INSTRUMENTS.len()
        );
    }

    #[test]
    fn set_tracing_toggled_mid_run_keeps_critical_paths_exact() {
        let m = Metrics::new();
        // Tree 1 records normally.
        message_tree(&m);
        m.ab_delivered.inc();
        let before = critical_paths(&m.spans()).len();
        assert_eq!(before, 1);
        // Tracing off mid-run: a whole message tree goes unrecorded,
        // counters keep incrementing.
        m.set_tracing(false);
        m.set_time(1_000);
        m.span_open("ab:0/m:1:0", Layer::Ab);
        m.span_open("ab:0/m:1:0/rb", Layer::Rb);
        m.set_time(1_100);
        m.span_close("ab:0/m:1:0/rb");
        m.span_close("ab:0/m:1:0");
        m.ab_delivered.inc();
        assert_eq!(critical_paths(&m.spans()).len(), 1, "no span while off");
        assert_eq!(m.ab_delivered.get(), 2, "counters live while off");
        // Resume: a post-toggle tree records cleanly and its critical
        // path still sums exactly to the a-deliver latency.
        m.set_tracing(true);
        m.set_time(2_000);
        m.span_open("ab:0/m:2:5", Layer::Ab);
        m.span_open("ab:0/m:2:5/rb", Layer::Rb);
        m.set_time(2_040);
        m.span_close("ab:0/m:2:5/rb");
        m.set_time(2_090);
        m.span_close("ab:0/m:2:5");
        m.ab_delivered.inc();
        let paths = critical_paths(&m.spans());
        assert_eq!(paths.len(), 2);
        for cp in &paths {
            let sum: u64 = cp.segments.iter().map(|(_, ns)| ns).sum();
            assert_eq!(sum, cp.total_ns, "post-toggle segments must sum exactly");
        }
        assert_eq!(m.ab_delivered.get(), 3);
        // No half-open leftovers from the disabled window.
        assert_eq!(m.span_open_live.get(), 0);
    }

    #[test]
    fn suspicions_accumulate_per_peer_and_render_everywhere() {
        let m = Metrics::new();
        assert!(m.suspicions().is_empty(), "no false accusations by default");
        m.suspect(2, SuspicionKind::Equivocation);
        m.suspect(2, SuspicionKind::Equivocation);
        m.suspect(2, SuspicionKind::BadMac);
        m.suspect(5, SuspicionKind::Malformed);
        let rows = m.suspicions();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].peer, 2);
        assert_eq!(rows[0].count(SuspicionKind::Equivocation), 2);
        assert_eq!(rows[0].count(SuspicionKind::BadMac), 1);
        assert_eq!(rows[0].total(), 3);
        assert_eq!(rows[1].peer, 5);
        assert_eq!(rows[1].count(SuspicionKind::Malformed), 1);
        assert_eq!(m.suspicions_total.get(), 4);
        let snap = m.snapshot();
        assert!(snap.to_text().contains("suspicion{peer=2"));
        assert!(snap
            .to_prometheus()
            .contains("ritas_suspicions{peer=\"2\",kind=\"equivocation\"} 2"));
        assert!(snap
            .to_json()
            .contains("\"suspicions\":[{\"peer\":2,\"bad-mac\":1"));
        // Suspicion accounting ignores the tracing gate — it is
        // detection state, not a span.
        m.set_tracing(false);
        m.suspect(2, SuspicionKind::Unjustified);
        assert_eq!(m.suspicions()[0].count(SuspicionKind::Unjustified), 1);
        // Every suspect() call also lands in the flight recorder.
        let flights = m.flight().events();
        assert_eq!(
            flights
                .iter()
                .filter(|e| e.kind == FlightKind::Suspicion)
                .count(),
            5
        );
    }

    #[test]
    fn rejoin_clears_suspicions_of_the_wiped_peer_only() {
        let m = Metrics::new();
        m.suspect(1, SuspicionKind::BadMac);
        m.suspect(1, SuspicionKind::BadChunk);
        m.suspect(3, SuspicionKind::Equivocation);
        assert_eq!(m.suspicions().len(), 2);

        // Peer 1 completes a wipe-and-rejoin: its pre-wipe evidence is
        // dropped, other peers' rows are untouched, and the monotone
        // aggregate counter keeps the history.
        m.clear_suspicions_of(1);
        let rows = m.suspicions();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].peer, 3);
        assert_eq!(rows[0].count(SuspicionKind::Equivocation), 1);
        assert_eq!(m.suspicions_total.get(), 3);

        // The clear itself is flight-recorded (kind=Recovery, a=MAX
        // sentinel, b=evidence dropped) so forensics can see it.
        let cleared: Vec<_> = m
            .flight()
            .events()
            .into_iter()
            .filter(|e| e.kind == FlightKind::Recovery && e.a == u64::MAX)
            .collect();
        assert_eq!(cleared.len(), 1);
        assert_eq!(cleared[0].peer, 1);
        assert_eq!(cleared[0].b, 2);

        // Clearing an unknown peer is a no-op, not a new flight event.
        m.clear_suspicions_of(9);
        assert_eq!(
            m.flight()
                .events()
                .iter()
                .filter(|e| e.kind == FlightKind::Recovery && e.a == u64::MAX)
                .count(),
            1
        );
        // Fresh evidence after the wipe accumulates from zero.
        m.suspect(1, SuspicionKind::Malformed);
        let rows = m.suspicions();
        assert_eq!(rows[0].peer, 1);
        assert_eq!(rows[0].total(), 1);
    }

    #[test]
    fn quorum_annotations_roundtrip_through_jsonl() {
        let m = Metrics::new();
        m.set_time(10);
        m.span_open("ab:0/m:0:0/rb", Layer::Rb);
        m.set_time(25);
        m.span_annotate("ab:0/m:0:0/rb", SpanAnnotation::QuorumMet, 3);
        m.span_open("ab:0/r:0/mvc/bc", Layer::Bc);
        m.set_time(40);
        m.span_annotate(
            "ab:0/r:0/mvc/bc",
            SpanAnnotation::RoundQuorum,
            pack_round_quorum(2, 1),
        );
        m.span_close("ab:0/r:0/mvc/bc");
        m.span_close("ab:0/m:0:0/rb");
        let dump = spans_to_jsonl(&m.spans());
        assert!(dump.contains("quorum-met"));
        assert!(dump.contains("round-quorum"));
        let parsed = spans_from_jsonl(&dump).unwrap();
        assert_eq!(parsed, m.spans());
        let note = parsed
            .iter()
            .find(|s| s.path == "ab:0/r:0/mvc/bc")
            .unwrap()
            .annotations[0];
        assert_eq!(unpack_round_quorum(note.value), (2, 1));
    }
}
