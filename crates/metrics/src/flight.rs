//! Flight recorder: a bounded binary ring of protocol events kept per
//! replica and dumped to disk on panic, fatal error, or explicit
//! trigger, so a failed chaos or adversary run leaves a post-mortem
//! artifact instead of nothing.
//!
//! The format is deliberately dumb: a fixed-size little-endian record
//! per event behind a small header, so a dump written by a dying
//! process needs no allocation-heavy serialization and a truncated file
//! still parses up to the cut.
//!
//! ```text
//! header:  magic "RFR1" | u16 version | u16 record size | u32 count
//! record:  u64 t | u8 kind | u32 peer | u64 a | u64 b   (29 bytes)
//! ```
//!
//! In a frame record `a` is [`digest`] of the frame — FNV-1a over its
//! first [`DIGEST_PREFIX`] bytes xor its length, not over every byte —
//! and `b` its length.

use std::collections::VecDeque;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::unpoison;

/// Default number of events the ring retains (oldest evicted first).
pub const FLIGHT_CAPACITY: usize = 16384;

/// Dump file magic.
pub const FLIGHT_MAGIC: [u8; 4] = *b"RFR1";

/// Dump format version.
pub const FLIGHT_VERSION: u16 = 1;

/// Size of one encoded record in bytes.
pub const FLIGHT_RECORD_BYTES: usize = 29;

/// What happened. The payload words `a`/`b` are kind-specific.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// A wire frame left for `peer` (`u32::MAX` = all); `a` = [`digest`]
    /// of the frame, `b` = length.
    FrameOut,
    /// A wire frame arrived from `peer`; `a` = digest, `b` = length.
    FrameIn,
    /// An atomic-broadcast delivery; `peer` = sender, `a` = rbid.
    Deliver,
    /// A batch left the broadcast-side queue; `a` = commands in the
    /// batch, `b` = flush-reason code (0 size, 1 age, 2 idle).
    Flush,
    /// A point-to-point link came up; `a` = session epoch.
    LinkUp,
    /// A point-to-point link went down; `a` = session epoch.
    LinkDown,
    /// The node went stalled; `a` = ns without progress, `b` = budget
    /// in ns.
    Stall,
    /// Byzantine evidence was attributed to `peer`; `a` = the
    /// [`crate::SuspicionKind`] index.
    Suspicion,
    /// Driver-specific marker (tests, shutdown notes…).
    Marker,
    /// A recovery-pipeline milestone (snapshot taken, rejoin phase
    /// change, transfer abort, rotation slot, atomic broadcast rewound);
    /// `a` = milestone code (`ritas::recovery::milestones`: 0 snapshot,
    /// 1 syncing, 2 catching-up, 3 live, 4 aborted, 5–7 rotation slot
    /// scheduled / completed / deferred, 8 AB resumed, 9 batch injected,
    /// 10 fast-forward), `b` = the applied sequence number, round or rbid
    /// involved; `peer` = the recording process (for 9, the batch's sender).
    Recovery,
}

impl FlightKind {
    /// Wire code of this kind.
    pub fn code(self) -> u8 {
        match self {
            FlightKind::FrameOut => 1,
            FlightKind::FrameIn => 2,
            FlightKind::Deliver => 3,
            FlightKind::Flush => 4,
            FlightKind::LinkUp => 5,
            FlightKind::LinkDown => 6,
            FlightKind::Stall => 7,
            FlightKind::Suspicion => 8,
            FlightKind::Marker => 9,
            FlightKind::Recovery => 10,
        }
    }

    /// Inverse of [`FlightKind::code`].
    pub fn from_code(code: u8) -> Option<FlightKind> {
        Some(match code {
            1 => FlightKind::FrameOut,
            2 => FlightKind::FrameIn,
            3 => FlightKind::Deliver,
            4 => FlightKind::Flush,
            5 => FlightKind::LinkUp,
            6 => FlightKind::LinkDown,
            7 => FlightKind::Stall,
            8 => FlightKind::Suspicion,
            9 => FlightKind::Marker,
            10 => FlightKind::Recovery,
            _ => return None,
        })
    }

    /// Stable name used in text renderings.
    pub fn as_str(self) -> &'static str {
        match self {
            FlightKind::FrameOut => "frame-out",
            FlightKind::FrameIn => "frame-in",
            FlightKind::Deliver => "deliver",
            FlightKind::Flush => "flush",
            FlightKind::LinkUp => "link-up",
            FlightKind::LinkDown => "link-down",
            FlightKind::Stall => "stall",
            FlightKind::Suspicion => "suspicion",
            FlightKind::Marker => "marker",
            FlightKind::Recovery => "recovery",
        }
    }
}

/// One recorded protocol event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Driver timestamp (wall ns on the node runtime, virtual ns in the
    /// simulator).
    pub t: u64,
    /// What happened.
    pub kind: FlightKind,
    /// The peer involved (`u32::MAX` when not peer-specific).
    pub peer: u32,
    /// Kind-specific payload word.
    pub a: u64,
    /// Kind-specific payload word.
    pub b: u64,
}

/// The bounded in-memory ring. Recording is one short mutex hold; the
/// ring keeps the most recent [`FLIGHT_CAPACITY`] events.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: Mutex<VecDeque<FlightEvent>>,
    capacity: usize,
    enabled: AtomicBool,
    recorded: AtomicU64,
}

impl FlightRecorder {
    /// A recorder retaining at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            ring: Mutex::new(VecDeque::with_capacity(capacity.min(64))),
            capacity,
            enabled: AtomicBool::new(true),
            recorded: AtomicU64::new(0),
        }
    }

    /// Enables or disables recording (dumping still works while
    /// disabled — the ring just stops moving).
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether recording is on.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Appends one event, evicting the oldest past capacity.
    pub fn record(&self, event: FlightEvent) {
        if !self.enabled() {
            return;
        }
        self.recorded.fetch_add(1, Ordering::Relaxed);
        let mut ring = unpoison(self.ring.lock());
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(event);
    }

    /// Total events ever recorded (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<FlightEvent> {
        unpoison(self.ring.lock()).iter().copied().collect()
    }

    /// Encodes the retained ring into the binary dump format.
    pub fn encode(&self) -> Vec<u8> {
        encode(&self.events())
    }
}

/// Encodes events into the binary dump format.
pub fn encode(events: &[FlightEvent]) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + events.len() * FLIGHT_RECORD_BYTES);
    out.extend_from_slice(&FLIGHT_MAGIC);
    out.extend_from_slice(&FLIGHT_VERSION.to_le_bytes());
    out.extend_from_slice(&(FLIGHT_RECORD_BYTES as u16).to_le_bytes());
    out.extend_from_slice(&(events.len() as u32).to_le_bytes());
    for e in events {
        out.extend_from_slice(&e.t.to_le_bytes());
        out.push(e.kind.code());
        out.extend_from_slice(&e.peer.to_le_bytes());
        out.extend_from_slice(&e.a.to_le_bytes());
        out.extend_from_slice(&e.b.to_le_bytes());
    }
    out
}

/// Parses a binary dump. A file truncated mid-record (the process died
/// while writing) yields the events before the cut rather than an
/// error; a wrong magic, version, or record size is an error.
///
/// # Errors
///
/// A human-readable message on a malformed header or an unknown event
/// kind.
pub fn parse(bytes: &[u8]) -> Result<Vec<FlightEvent>, String> {
    if bytes.len() < 12 {
        return Err("dump shorter than the 12-byte header".into());
    }
    if bytes[0..4] != FLIGHT_MAGIC {
        return Err("bad magic (not a flight-recorder dump)".into());
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != FLIGHT_VERSION {
        return Err(format!("unsupported version {version}"));
    }
    let record = u16::from_le_bytes([bytes[6], bytes[7]]) as usize;
    if record != FLIGHT_RECORD_BYTES {
        return Err(format!("unexpected record size {record}"));
    }
    let count = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]) as usize;
    let mut out = Vec::new();
    let body = &bytes[12..];
    for i in 0..count {
        let Some(rec) = body.get(i * record..(i + 1) * record) else {
            break; // truncated tail: keep what we have
        };
        let word = |off: usize| u64::from_le_bytes(rec[off..off + 8].try_into().expect("8 bytes"));
        let kind = FlightKind::from_code(rec[8])
            .ok_or_else(|| format!("unknown event kind {}", rec[8]))?;
        out.push(FlightEvent {
            t: word(0),
            kind,
            peer: u32::from_le_bytes(rec[9..13].try_into().expect("4 bytes")),
            a: word(13),
            b: word(21),
        });
    }
    Ok(out)
}

/// Renders parsed events as one line each (`t kind peer a b`).
pub fn to_text(events: &[FlightEvent]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for e in events {
        let peer = if e.peer == u32::MAX {
            "*".to_string()
        } else {
            e.peer.to_string()
        };
        let _ = writeln!(
            out,
            "{} {} peer={} a={:#x} b={}",
            e.t,
            e.kind.as_str(),
            peer,
            e.a,
            e.b
        );
    }
    out
}

/// How many leading bytes of a frame [`digest`] reads.
pub const DIGEST_PREFIX: usize = 64;

/// The cheap frame digest recorded with [`FlightKind::FrameIn`] and
/// [`FlightKind::FrameOut`] events: FNV-1a over the first
/// [`DIGEST_PREFIX`] bytes, xor the frame's length. The prefix holds
/// the instance key and the protocol header, which is what tells two
/// frames apart, and a bounded walk keeps the recorder's cost per frame
/// independent of payload size. Good enough to match a frame across two
/// replicas' dumps.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in &bytes[..bytes.len().min(DIGEST_PREFIX)] {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^ bytes.len() as u64
}

// ---------------------------------------------------------------------------
// Panic-dump registration
// ---------------------------------------------------------------------------

struct Registered {
    dir: PathBuf,
    tag: String,
    metrics: crate::Metrics,
}

fn registry() -> &'static Mutex<Vec<Registered>> {
    static REGISTRY: OnceLock<Mutex<Vec<Registered>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Registers `metrics` for post-mortem dumping: on any panic in the
/// process (the hook chains to the previous one) — or an explicit
/// [`dump_registered`] call — its flight ring is written to
/// `{dir}/flight-{tag}.bin`. Registered handles are kept alive for the
/// process lifetime; re-registering a tag replaces the previous entry.
pub fn register_dump(dir: impl Into<PathBuf>, tag: impl Into<String>, metrics: crate::Metrics) {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let _ = dump_registered_inner();
            prev(info);
        }));
    });
    let (dir, tag) = (dir.into(), tag.into());
    let mut reg = unpoison(registry().lock());
    reg.retain(|r| r.tag != tag);
    reg.push(Registered { dir, tag, metrics });
}

/// Writes every registered registry's flight ring to its dump file now
/// (fatal-error and end-of-failed-run paths). Returns the paths
/// written; write failures skip that file.
pub fn dump_registered() -> Vec<PathBuf> {
    dump_registered_inner()
}

fn dump_registered_inner() -> Vec<PathBuf> {
    let reg = unpoison(registry().lock());
    let mut written = Vec::new();
    for r in reg.iter() {
        let path = r.dir.join(format!("flight-{}.bin", r.tag));
        if write_dump(&path, &r.metrics.flight().encode()).is_ok() {
            written.push(path);
        }
    }
    written
}

fn write_dump(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    let mut f = std::fs::File::create(path)?;
    f.write_all(bytes)?;
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, kind: FlightKind, peer: u32, a: u64, b: u64) -> FlightEvent {
        FlightEvent {
            t,
            kind,
            peer,
            a,
            b,
        }
    }

    #[test]
    fn encode_parse_roundtrip() {
        let events = vec![
            ev(1, FlightKind::FrameIn, 2, 0xdead_beef, 128),
            ev(2, FlightKind::FrameOut, u32::MAX, 0xcafe, 64),
            ev(3, FlightKind::Stall, 0, 5, 1_000_000),
            ev(4, FlightKind::Suspicion, 3, 2, 0),
        ];
        let parsed = parse(&encode(&events)).unwrap();
        assert_eq!(parsed, events);
    }

    #[test]
    fn truncated_dump_parses_prefix() {
        let events = vec![
            ev(1, FlightKind::Deliver, 0, 7, 0),
            ev(2, FlightKind::Deliver, 1, 8, 0),
        ];
        let mut bytes = encode(&events);
        bytes.truncate(12 + FLIGHT_RECORD_BYTES + 3); // cut inside record 2
        assert_eq!(parse(&bytes).unwrap(), events[..1]);
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let bytes = encode(&[]);
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(parse(&bad).unwrap_err().contains("magic"));
        let mut bad = bytes.clone();
        bad[4] = 99;
        assert!(parse(&bad).unwrap_err().contains("version"));
        assert!(parse(&bytes[..8]).unwrap_err().contains("header"));
    }

    #[test]
    fn ring_is_bounded_and_disable_stops_recording() {
        let rec = FlightRecorder::new(4);
        for i in 0..10 {
            rec.record(ev(i, FlightKind::Marker, 0, i, 0));
        }
        let events = rec.events();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].t, 6);
        assert_eq!(rec.recorded(), 10);
        rec.set_enabled(false);
        rec.record(ev(99, FlightKind::Marker, 0, 0, 0));
        assert_eq!(rec.events().len(), 4);
        assert_eq!(rec.recorded(), 10);
    }

    #[test]
    fn text_rendering_names_kinds() {
        let text = to_text(&[ev(5, FlightKind::LinkDown, 1, 2, 0)]);
        assert!(text.contains("link-down"));
        assert!(text.contains("peer=1"));
    }

    #[test]
    fn digest_differs_on_content() {
        assert_ne!(digest(b"frame-a"), digest(b"frame-b"));
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn digest_reads_a_bounded_prefix_and_the_length() {
        let mut frame = vec![7u8; 4096];
        let whole = digest(&frame);
        // Bytes past the prefix are not read…
        frame[DIGEST_PREFIX] ^= 0xff;
        assert_eq!(digest(&frame), whole);
        // …bytes inside it and the length are.
        frame[DIGEST_PREFIX - 1] ^= 0xff;
        assert_ne!(digest(&frame), whole);
        assert_ne!(digest(&[7u8; 4095]), whole);
    }

    #[test]
    fn panic_dump_writes_parseable_file() {
        let dir = std::env::temp_dir().join(format!("ritas-flight-test-{}", std::process::id()));
        let m = crate::Metrics::new();
        m.set_time(42);
        m.flight_record(FlightKind::Marker, 7, 1, 2);
        register_dump(&dir, "unit", m);
        let result = std::panic::catch_unwind(|| panic!("induced"));
        assert!(result.is_err());
        let path = dir.join("flight-unit.bin");
        let bytes = std::fs::read(&path).expect("panic hook wrote the dump");
        let events = parse(&bytes).unwrap();
        assert!(events
            .iter()
            .any(|e| e.kind == FlightKind::Marker && e.peer == 7 && e.t == 42));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
