//! The benchmark's own span buffer: one span around each call into a
//! layer's public function, kept in memory and written out at exit.
//!
//! Spans inside the program are a later change; these time the calls the
//! benchmark itself makes. Every span is added to a per-name aggregate
//! (count, total time, time covered by its children); the first
//! [`RETAINED`] spans of a buffer are also kept whole for the trace file.

use std::io::Write;
use std::time::Instant;

/// Whole spans kept per buffer. A traced `stack-burst` pass makes
/// millions of `stack.handle_frame` calls; the aggregate covers all of
/// them, the file the first ones.
const RETAINED: usize = 65_536;

/// The calls the benchmark wraps. One name per public entry point.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum Name {
    /// One burst, submit to quiescence (`stack-burst` root).
    Burst,
    StackAbBroadcast,
    StackHandleFrame,
    /// `Stack::set_now` + `Stack::tick`.
    StackTick,
    StackPollAll,
    /// One command, submit to delivery at all four nodes (`node-*` root).
    NodeOp,
    NodeAtomicBroadcast,
    NodeAtomicRecv,
    ClientInvoke,
    ClientRead,
}

const NAMES: [&str; 10] = [
    "burst",
    "stack.ab_broadcast",
    "stack.handle_frame",
    "stack.tick",
    "stack.poll_all",
    "node.op",
    "node.atomic_broadcast",
    "node.atomic_recv",
    "client.invoke",
    "client.read",
];

impl Name {
    pub fn as_str(self) -> &'static str {
        NAMES[self as usize]
    }
}

/// An open span, held by the caller until [`Spans::close`].
#[derive(Clone, Copy)]
pub struct Open {
    name: Name,
    op: u64,
    start_ns: u64,
    parent: Option<(Name, u32)>,
    /// Index of the retained record, `u32::MAX` when not retained.
    rec: u32,
    /// Opened while the buffer was on; a span opened while it was off is
    /// never recorded, whatever the buffer's state when it closes.
    live: bool,
}

struct Record {
    name: Name,
    op: u64,
    start_ns: u64,
    end_ns: u64,
    /// Index of the parent's record in the same file, if retained.
    parent: u32,
}

/// Per-name totals over every span of that name.
#[derive(Clone, Copy, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    /// Time covered by child spans.
    pub child_ns: u64,
}

impl Agg {
    /// Mean self time per span: duration minus the part children cover.
    pub fn self_ns_mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns.saturating_sub(self.child_ns) as f64 / self.count as f64
        }
    }

    pub fn total_ns_mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// A span buffer owned by one thread. While off (the untraced run) every
/// call returns without reading the clock.
pub struct Spans {
    on: bool,
    epoch: Instant,
    records: Vec<Record>,
    agg: [Agg; NAMES.len()],
    dropped: u64,
}

impl Spans {
    pub fn new(on: bool, epoch: Instant) -> Self {
        Spans {
            on,
            epoch,
            records: Vec::new(),
            agg: [Agg::default(); NAMES.len()],
            dropped: 0,
        }
    }

    pub fn off() -> Self {
        Spans::new(false, Instant::now())
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span for operation `op`, caused by `parent`.
    pub fn open(&mut self, name: Name, op: u64, parent: Option<&Open>) -> Open {
        if !self.on {
            return Open {
                name,
                op,
                start_ns: 0,
                parent: None,
                rec: u32::MAX,
                live: false,
            };
        }
        let start_ns = self.now_ns();
        let rec = if self.records.len() < RETAINED {
            self.records.push(Record {
                name,
                op,
                start_ns,
                end_ns: 0,
                parent: parent.filter(|p| p.live).map_or(u32::MAX, |p| p.rec),
            });
            (self.records.len() - 1) as u32
        } else {
            self.dropped += 1;
            u32::MAX
        };
        Open {
            name,
            op,
            start_ns,
            parent: parent.filter(|p| p.live).map(|p| (p.name, p.rec)),
            rec,
            live: true,
        }
    }

    /// Makes `span` a child of `parent` working for operation `op`, for a
    /// wait whose cause is only known once it returns.
    pub fn adopt(&mut self, span: &mut Open, parent: &Open, op: u64) {
        if !(span.live && parent.live) {
            return;
        }
        span.parent = Some((parent.name, parent.rec));
        span.op = op;
        if let Some(r) = self.records.get_mut(span.rec as usize) {
            r.parent = parent.rec;
            r.op = op;
        }
    }

    pub fn close(&mut self, span: Open) {
        if !span.live {
            return;
        }
        let end_ns = self.now_ns();
        let dur = end_ns - span.start_ns;
        let a = &mut self.agg[span.name as usize];
        a.count += 1;
        a.total_ns += dur;
        if let Some((parent, _)) = span.parent {
            self.agg[parent as usize].child_ns += dur;
        }
        if let Some(r) = self.records.get_mut(span.rec as usize) {
            r.end_ns = end_ns;
        }
    }

    pub fn agg(&self, name: Name) -> Agg {
        self.agg[name as usize]
    }

    /// Folds another thread's buffer into this one.
    pub fn merge(&mut self, other: Spans) {
        let offset = self.records.len() as u32;
        self.records.extend(other.records.into_iter().map(|mut r| {
            if r.parent != u32::MAX {
                r.parent += offset;
            }
            r
        }));
        for (a, b) in self.agg.iter_mut().zip(other.agg) {
            a.count += b.count;
            a.total_ns += b.total_ns;
            a.child_ns += b.child_ns;
        }
        self.dropped += other.dropped;
    }

    /// Writes the retained spans as JSON lines (`parent` is a line index,
    /// zero-based, or null) and returns `(written, not retained)`.
    pub fn write_jsonl(&self, mut w: impl Write) -> std::io::Result<(usize, u64)> {
        for r in &self.records {
            let parent = if r.parent == u32::MAX {
                "null".to_string()
            } else {
                r.parent.to_string()
            };
            writeln!(
                w,
                "{{\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                r.name.as_str(),
                r.op,
                r.start_ns,
                r.end_ns,
                parent
            )?;
        }
        w.flush()?;
        Ok((self.records.len(), self.dropped))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::new(true, Instant::now());
        let root = s.open(Name::Burst, 7, None);
        let child = s.open(Name::StackHandleFrame, 7, Some(&root));
        std::thread::sleep(std::time::Duration::from_millis(2));
        s.close(child);
        s.close(root);
        let burst = s.agg(Name::Burst);
        let frame = s.agg(Name::StackHandleFrame);
        assert_eq!((burst.count, frame.count), (1, 1));
        assert_eq!(burst.child_ns, frame.total_ns);
        assert!(frame.total_ns >= 2_000_000);
        assert!(burst.self_ns_mean() < burst.total_ns_mean());
    }

    #[test]
    fn off_buffer_records_nothing() {
        let mut s = Spans::off();
        let o = s.open(Name::NodeOp, 1, None);
        s.close(o);
        assert_eq!(s.agg(Name::NodeOp).count, 0);
        assert!(s.records.is_empty());
    }

    #[test]
    fn a_span_is_recorded_iff_the_buffer_was_on_when_it_opened() {
        let mut s = Spans::new(true, Instant::now());
        let before = s.open(Name::NodeOp, 1, None);
        s.set_on(false);
        let during = s.open(Name::NodeOp, 2, None);
        let mut wait = s.open(Name::NodeAtomicRecv, 0, None);
        s.adopt(&mut wait, &before, 1);
        s.close(wait);
        s.close(before);
        s.set_on(true);
        s.close(during);
        let child = s.open(Name::NodeAtomicRecv, 2, Some(&during));
        s.close(child);
        assert_eq!(s.agg(Name::NodeOp).count, 1);
        assert_eq!(s.agg(Name::NodeOp).child_ns, 0);
        assert_eq!(s.agg(Name::NodeAtomicRecv).count, 1);
        assert_eq!(s.records.len(), 2);
        assert_eq!(s.records[1].parent, u32::MAX);
    }

    #[test]
    fn merge_rebases_parent_indices_and_file_round_trips() {
        let epoch = Instant::now();
        let mut a = Spans::new(true, epoch);
        let o = a.open(Name::ClientInvoke, 1, None);
        a.close(o);
        let mut b = Spans::new(true, epoch);
        let root = b.open(Name::NodeOp, 2, None);
        let kid = b.open(Name::NodeAtomicRecv, 2, Some(&root));
        b.close(kid);
        b.close(root);
        a.merge(b);
        assert_eq!(a.records.len(), 3);
        assert_eq!(a.records[2].parent, 1);
        let mut file = Vec::new();
        assert_eq!(a.write_jsonl(&mut file).unwrap(), (3, 0));
        let text = String::from_utf8(file).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().nth(2).unwrap().contains("\"parent\":1"));
        assert!(text
            .lines()
            .next()
            .unwrap()
            .contains("\"name\":\"client.invoke\""));
    }
}
