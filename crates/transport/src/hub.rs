//! In-memory full-mesh of reliable FIFO links.
//!
//! Substitutes the paper's TCP mesh: every pair of processes is connected
//! by a channel that delivers every sent message exactly once, in order —
//! the reliability property of §2.1. The hub additionally supports the
//! fault injections used by the evaluation and the tests:
//!
//! * **crash** ([`Hub::crash`]) — the fail-stop faultload of §4.2: the
//!   process stops sending and its inbound queue is closed;
//! * **partition** ([`Hub::set_link`]) — link cuts for liveness tests
//!   (never applied between correct processes in conformance tests, since
//!   the model assumes reliable channels).

use crate::{ProcessId, Transport, TransportError};
use bytes::Bytes;
use ritas_metrics::unpoison;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

/// One process's inbound queue: a locked deque and a condition variable
/// rather than a `std::sync::mpsc` channel, because this is the one hop
/// every frame crosses towards a receiver that is often blocked. A std
/// sender wakes a blocked receiver while holding the channel's waiter
/// lock; with the group on one CPU the woken receiver preempts it and
/// runs straight into that lock — twice the context switches per frame,
/// 17 % fewer a-deliveries per second on `node-small` (DESIGN.md §2).
/// Here the wake-up happens after the unlock. The lock also covers the
/// [`Transport::wake`] flag.
#[derive(Debug, Default)]
struct Inbox {
    queue: Mutex<Queued>,
    ready: Condvar,
    /// Set when the owning endpoint is dropped: nobody will ever read.
    abandoned: AtomicBool,
}

#[derive(Debug, Default)]
struct Queued {
    frames: VecDeque<(ProcessId, Bytes)>,
    /// A [`Transport::wake`] no timed wait has consumed yet. Under the
    /// queue's lock, so it cannot slip between a waiter's check and its
    /// going to sleep.
    woken: bool,
}

impl Inbox {
    fn push(&self, frame: (ProcessId, Bytes)) {
        if self.abandoned.load(Ordering::Relaxed) {
            return;
        }
        unpoison(self.queue.lock()).frames.push_back(frame);
        self.ready.notify_one();
    }

    fn wake(&self) {
        unpoison(self.queue.lock()).woken = true;
        // All: a thread parked in an untimed `pop` would swallow a
        // single notification and go back to sleep.
        self.ready.notify_all();
    }

    /// Pops the next frame, waiting until `deadline` (forever if `None`).
    /// Only a timed wait is ended by a wake, and gives `None` for it.
    fn pop(&self, deadline: Option<Instant>) -> Option<(ProcessId, Bytes)> {
        let mut queue = unpoison(self.queue.lock());
        loop {
            if deadline.is_some() && std::mem::take(&mut queue.woken) {
                return None;
            }
            if let Some(frame) = queue.frames.pop_front() {
                return Some(frame);
            }
            match deadline {
                None => queue = unpoison(self.ready.wait(queue)),
                Some(d) => {
                    let left = d.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return None;
                    }
                    queue = unpoison(self.ready.wait_timeout(queue, left)).0;
                }
            }
        }
    }
}

/// Shared hub state: link matrix, crash flags and the inbound queue of
/// every process (shared so a reattached endpoint's fresh queue is
/// visible to all peers).
#[derive(Debug)]
struct HubState {
    /// `links[i][j]` is `true` when the `i → j` link is up.
    links: Vec<Vec<bool>>,
    /// `crashed[i]` marks a fail-stopped process.
    crashed: Vec<bool>,
    /// `inboxes[j]` is process `j`'s inbound queue.
    inboxes: Vec<Arc<Inbox>>,
}

/// An in-memory network connecting `n` processes with reliable FIFO links.
///
/// # Example
///
/// ```
/// use ritas_transport::{Hub, Transport};
/// use bytes::Bytes;
///
/// let mut hub = Hub::new(3);
/// let endpoints = hub.take_endpoints();
/// endpoints[0].send(1, Bytes::from_static(b"ping")).unwrap();
/// let (from, payload) = endpoints[1].recv().unwrap();
/// assert_eq!((from, payload.as_ref()), (0, &b"ping"[..]));
/// ```
#[derive(Debug)]
pub struct Hub {
    n: usize,
    state: Arc<RwLock<HubState>>,
    endpoints: Vec<MemoryEndpoint>,
}

impl Hub {
    /// Creates a hub for `n` processes with all links up.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "hub needs at least one process");
        let inboxes: Vec<Arc<Inbox>> = (0..n).map(|_| Arc::default()).collect();
        let state = Arc::new(RwLock::new(HubState {
            links: vec![vec![true; n]; n],
            crashed: vec![false; n],
            inboxes: inboxes.clone(),
        }));

        let endpoints = inboxes
            .into_iter()
            .enumerate()
            .map(|(me, inbox)| MemoryEndpoint {
                me,
                n,
                state: Arc::clone(&state),
                inbox,
                closed: Arc::new(AtomicBool::new(false)),
            })
            .collect();

        Hub {
            n,
            state,
            endpoints,
        }
    }

    /// Number of processes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the hub connects zero processes (never true).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Removes and returns all endpoints (one per process), to be moved
    /// into per-process threads.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn take_endpoints(&mut self) -> Vec<MemoryEndpoint> {
        assert!(
            !self.endpoints.is_empty(),
            "endpoints already taken from this hub"
        );
        std::mem::take(&mut self.endpoints)
    }

    /// Fail-stops process `p`: all its links go down and its inbound
    /// endpoint stops yielding messages.
    pub fn crash(&self, p: ProcessId) {
        let mut s = unpoison(self.state.write());
        if p < self.n {
            s.crashed[p] = true;
            for j in 0..self.n {
                s.links[p][j] = false;
                s.links[j][p] = false;
            }
        }
    }

    /// Raises or cuts the directed link `from → to`.
    pub fn set_link(&self, from: ProcessId, to: ProcessId, up: bool) {
        let mut s = unpoison(self.state.write());
        if from < self.n && to < self.n {
            s.links[from][to] = up;
        }
    }

    /// Whether process `p` has been crashed.
    pub fn is_crashed(&self, p: ProcessId) -> bool {
        unpoison(self.state.read())
            .crashed
            .get(p)
            .copied()
            .unwrap_or(false)
    }

    /// Re-admits process `p` with a **fresh** inbound queue: clears its
    /// crash flag, restores all of its links, and installs a new queue
    /// that all peers route to from now on — the network face of a
    /// wipe-and-rejoin. Frames queued on (or sent to) the old endpoint
    /// are lost, exactly like a process that lost its disk and memory.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn reattach(&self, p: ProcessId) -> MemoryEndpoint {
        assert!(p < self.n, "reattach of unknown process {p}");
        let inbox = Arc::<Inbox>::default();
        let mut s = unpoison(self.state.write());
        s.crashed[p] = false;
        for j in 0..self.n {
            s.links[p][j] = true;
            s.links[j][p] = true;
        }
        s.inboxes[p] = Arc::clone(&inbox);
        MemoryEndpoint {
            me: p,
            n: self.n,
            state: Arc::clone(&self.state),
            inbox,
            closed: Arc::new(AtomicBool::new(false)),
        }
    }
}

/// One process's endpoint on a [`Hub`].
#[derive(Debug)]
pub struct MemoryEndpoint {
    me: ProcessId,
    n: usize,
    state: Arc<RwLock<HubState>>,
    inbox: Arc<Inbox>,
    closed: Arc<AtomicBool>,
}

impl MemoryEndpoint {
    /// Closes this endpoint locally; subsequent operations fail with
    /// [`TransportError::Disconnected`].
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
    }

    fn check_open(&self) -> Result<(), TransportError> {
        if self.closed.load(Ordering::SeqCst) {
            Err(TransportError::Disconnected)
        } else {
            Ok(())
        }
    }

    /// Drains any immediately-available message without blocking.
    pub fn try_recv(&self) -> Option<(ProcessId, Bytes)> {
        if self.closed.load(Ordering::SeqCst) {
            return None;
        }
        unpoison(self.inbox.queue.lock()).frames.pop_front()
    }
}

impl Drop for MemoryEndpoint {
    fn drop(&mut self) {
        self.inbox.abandoned.store(true, Ordering::Relaxed);
        unpoison(self.inbox.queue.lock()).frames.clear();
    }
}

impl Transport for MemoryEndpoint {
    fn local_id(&self) -> ProcessId {
        self.me
    }

    fn group_size(&self) -> usize {
        self.n
    }

    fn send(&self, to: ProcessId, payload: Bytes) -> Result<(), TransportError> {
        self.check_open()?;
        if to >= self.n {
            return Err(TransportError::UnknownPeer(to));
        }
        let s = unpoison(self.state.read());
        // A crashed or partitioned link silently drops: from the
        // receiver's perspective this is indistinguishable from an
        // arbitrarily slow asynchronous link, which is the model.
        if s.crashed[self.me] || !s.links[self.me][to] {
            return Ok(());
        }
        // A peer whose endpoint has been dropped (its process exited) is
        // indistinguishable from a crashed one: the frame vanishes
        // silently, exactly like the crash/partition cases above.
        s.inboxes[to].push((self.me, payload));
        Ok(())
    }

    fn recv(&self) -> Result<(ProcessId, Bytes), TransportError> {
        self.check_open()?;
        self.inbox.pop(None).ok_or(TransportError::Disconnected)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<(ProcessId, Bytes), TransportError> {
        self.check_open()?;
        self.inbox
            .pop(Some(Instant::now() + timeout))
            .ok_or(TransportError::Timeout)
    }

    fn wake(&self) {
        self.inbox.wake();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn delivers_point_to_point() {
        let mut hub = Hub::new(2);
        let eps = hub.take_endpoints();
        eps[0].send(1, bytes("hi")).unwrap();
        assert_eq!(eps[1].recv().unwrap(), (0, bytes("hi")));
    }

    #[test]
    fn per_link_fifo_order() {
        let mut hub = Hub::new(2);
        let eps = hub.take_endpoints();
        for i in 0..100u32 {
            eps[0]
                .send(1, Bytes::copy_from_slice(&i.to_be_bytes()))
                .unwrap();
        }
        for i in 0..100u32 {
            let (_, p) = eps[1].recv().unwrap();
            assert_eq!(p.as_ref(), i.to_be_bytes());
        }
    }

    #[test]
    fn loopback_send_to_self() {
        let mut hub = Hub::new(1);
        let eps = hub.take_endpoints();
        eps[0].send(0, bytes("self")).unwrap();
        assert_eq!(eps[0].recv().unwrap(), (0, bytes("self")));
    }

    #[test]
    fn unknown_peer_rejected() {
        let mut hub = Hub::new(2);
        let eps = hub.take_endpoints();
        assert_eq!(
            eps[0].send(5, bytes("x")).unwrap_err(),
            TransportError::UnknownPeer(5)
        );
    }

    #[test]
    fn crash_silences_process() {
        let mut hub = Hub::new(3);
        let eps = hub.take_endpoints();
        hub.crash(0);
        assert!(hub.is_crashed(0));
        eps[0].send(1, bytes("from crashed")).unwrap(); // silently dropped
        eps[2].send(1, bytes("alive")).unwrap();
        assert_eq!(eps[1].recv().unwrap(), (2, bytes("alive")));
        assert!(eps[1].try_recv().is_none());
    }

    #[test]
    fn crash_cuts_inbound_links_too() {
        let mut hub = Hub::new(3);
        let eps = hub.take_endpoints();
        hub.crash(1);
        eps[0].send(1, bytes("into the void")).unwrap();
        assert!(eps[1].try_recv().is_none());
    }

    #[test]
    fn partition_drops_directed_link_only() {
        let mut hub = Hub::new(2);
        let eps = hub.take_endpoints();
        hub.set_link(0, 1, false);
        eps[0].send(1, bytes("dropped")).unwrap();
        eps[1].send(0, bytes("still up")).unwrap();
        assert_eq!(eps[0].recv().unwrap(), (1, bytes("still up")));
        assert!(eps[1].try_recv().is_none());
        hub.set_link(0, 1, true);
        eps[0].send(1, bytes("back")).unwrap();
        assert_eq!(eps[1].recv().unwrap(), (0, bytes("back")));
    }

    #[test]
    fn recv_timeout_times_out() {
        let mut hub = Hub::new(1);
        let eps = hub.take_endpoints();
        assert_eq!(
            eps[0].recv_timeout(Duration::from_millis(10)).unwrap_err(),
            TransportError::Timeout
        );
    }

    #[test]
    fn wake_before_a_timed_wait_ends_it_at_once() {
        let mut hub = Hub::new(2);
        let eps = hub.take_endpoints();
        eps[0].wake();
        eps[0].wake(); // several before a wait count as one
        let t0 = Instant::now();
        assert_eq!(
            eps[0].recv_timeout(Duration::from_secs(30)).unwrap_err(),
            TransportError::Timeout
        );
        assert!(t0.elapsed() < Duration::from_secs(10));
        // Consumed: the next wait is an ordinary one and sees the frame.
        eps[1].send(0, bytes("after")).unwrap();
        assert_eq!(
            eps[0].recv_timeout(Duration::from_secs(30)).unwrap(),
            (1, bytes("after"))
        );
    }

    #[test]
    fn wake_during_a_timed_wait_ends_it() {
        let mut hub = Hub::new(1);
        let eps = hub.take_endpoints();
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                let t0 = Instant::now();
                let r = eps[0].recv_timeout(Duration::from_secs(30));
                (r, t0.elapsed())
            });
            // Whether this lands before the waiter parks or after, the
            // wake must reach it.
            eps[0].wake();
            let (r, waited) = waiter.join().unwrap();
            assert_eq!(r.unwrap_err(), TransportError::Timeout);
            assert!(waited < Duration::from_secs(10));
        });
    }

    #[test]
    fn wake_is_never_returned_by_recv() {
        let mut hub = Hub::new(2);
        let eps = hub.take_endpoints();
        eps[0].wake();
        eps[1].send(0, bytes("frame")).unwrap();
        // The untimed receive hands over the frame and leaves the wake…
        assert_eq!(eps[0].recv().unwrap(), (1, bytes("frame")));
        // …for the next timed one.
        assert_eq!(
            eps[0].recv_timeout(Duration::from_secs(30)).unwrap_err(),
            TransportError::Timeout
        );
        assert!(eps[0].try_recv().is_none());
    }

    #[test]
    fn closed_endpoint_disconnects() {
        let mut hub = Hub::new(2);
        let eps = hub.take_endpoints();
        eps[0].close();
        assert_eq!(eps[0].recv().unwrap_err(), TransportError::Disconnected);
        assert_eq!(
            eps[0].send(1, bytes("x")).unwrap_err(),
            TransportError::Disconnected
        );
    }

    #[test]
    fn reattach_revives_a_crashed_process_with_a_fresh_queue() {
        let mut hub = Hub::new(3);
        let eps = hub.take_endpoints();
        // Frames queued before the wipe must not survive it.
        eps[1].send(0, bytes("pre-crash")).unwrap();
        hub.crash(0);
        eps[1].send(0, bytes("while down")).unwrap(); // dropped
        let revived = hub.reattach(0);
        assert!(!hub.is_crashed(0));
        assert!(revived.try_recv().is_none(), "old queue must be wiped");
        // Fresh traffic flows in both directions through the new channel.
        eps[1].send(0, bytes("welcome back")).unwrap();
        assert_eq!(revived.recv().unwrap(), (1, bytes("welcome back")));
        revived.send(2, bytes("rejoined")).unwrap();
        assert_eq!(eps[2].recv().unwrap(), (0, bytes("rejoined")));
    }

    #[test]
    fn concurrent_senders_all_delivered() {
        let mut hub = Hub::new(4);
        let mut eps = hub.take_endpoints();
        let receiver = eps.remove(3);
        let handles: Vec<_> = eps
            .into_iter()
            .map(|ep| {
                std::thread::spawn(move || {
                    for i in 0..50u32 {
                        ep.send(3, Bytes::copy_from_slice(&i.to_be_bytes()))
                            .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut per_sender = [0u32; 3];
        for _ in 0..150 {
            let (from, p) = receiver.recv().unwrap();
            let v = u32::from_be_bytes(p.as_ref().try_into().unwrap());
            // FIFO per sender: values from one sender arrive in order.
            assert_eq!(v, per_sender[from]);
            per_sender[from] += 1;
        }
    }
}
