//! Snapshots, Merkle anti-entropy, and the state-transfer wire protocol
//! — the recovery machinery that lets a crashed-and-wiped replica rejoin
//! a running group (the intrusion-tolerance story of §1: a compromised
//! replica is recovered and re-admitted instead of being lost forever).
//!
//! The pieces, bottom-up:
//!
//! * [`Snapshot`] — the canonical encoding of a replica's replicated
//!   state at an apply-watermark boundary: the global applied sequence
//!   number, the per-sender FIFO watermark vector derived from the
//!   applied stream, and the application state bytes. Every correct
//!   replica snapshots at the *same* stream positions (every
//!   [`RecoveryConfig::snapshot_every`] applies), so the encodings — and
//!   therefore the digests — are byte-identical.
//! * [`MerkleTree`] — a binary hash tree over fixed-size chunks of the
//!   encoded snapshot. Its root is the snapshot *digest* a rejoiner
//!   accepts at `f+1` matching manifests; its inner nodes drive the
//!   anti-entropy descent ([`plan_fetch`]) that downloads only the
//!   chunks that differ from a stale local copy; its proofs
//!   ([`MerkleTree::proof`]) let every fetched chunk be verified against
//!   the agreed root, so a Byzantine chunk server is *detected* (and
//!   suspected), never believed.
//! * [`XferMessage`] — the pull-based transfer protocol: manifest query
//!   (with [`PeerHints`] describing the peer's atomic-broadcast
//!   position), Merkle-node query, chunk fetch, and the post-snapshot
//!   log fill that closes the gap between the snapshot and the live
//!   stream.
//! * [`select_cursor`] — Byzantine-bounded aggregation of `2f+1` peer
//!   hints into the [`AbCursor`](crate::ab::AbCursor) the rejoiner
//!   resumes its atomic-broadcast instance from.
//!
//! Everything here is pure (no I/O, no threads); the driver lives in
//! [`crate::rsm`].

pub mod scheduler;

use crate::ab::AbCursor;
use crate::bc::{Profile, MAX_ROUND_AHEAD};
use crate::codec::{Reader, WireError, WireMessage, Writer};
use bytes::Bytes;
use ritas_crypto::{Digest, Sha256};

/// A 32-byte SHA-256 node/root hash.
pub type Hash = [u8; 32];

/// Tuning for snapshotting and state transfer.
#[derive(Debug, Clone)]
pub struct RecoveryConfig {
    /// Take a snapshot every this many applied deliveries (a *stream
    /// position*, so every correct replica snapshots at the same
    /// boundaries and produces identical digests).
    pub snapshot_every: u64,
    /// Merkle chunk size in bytes over the encoded snapshot.
    pub chunk_size: usize,
    /// Maximum log entries per fill response.
    pub fill_batch: u32,
}

/// A [`RecoveryConfig`] field that cannot work (all three are divisors
/// or batch bounds — zero would loop or divide-by-zero deep inside the
/// transfer machinery, so it is rejected at construction instead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryConfigError {
    /// `snapshot_every == 0`: there would never be a snapshot boundary.
    ZeroSnapshotEvery,
    /// `chunk_size == 0`: the snapshot could not be chunked.
    ZeroChunkSize,
    /// `fill_batch == 0`: fill responses could never make progress.
    ZeroFillBatch,
}

impl core::fmt::Display for RecoveryConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RecoveryConfigError::ZeroSnapshotEvery => {
                write!(f, "recovery config: snapshot_every must be nonzero")
            }
            RecoveryConfigError::ZeroChunkSize => {
                write!(f, "recovery config: chunk_size must be nonzero")
            }
            RecoveryConfigError::ZeroFillBatch => {
                write!(f, "recovery config: fill_batch must be nonzero")
            }
        }
    }
}

impl std::error::Error for RecoveryConfigError {}

impl RecoveryConfig {
    /// Checks every field for values the transfer machinery cannot
    /// operate with. Called by the `Replica` recovery constructors, so a
    /// bad config is a clean `Err` at build time, not a panic mid-rejoin.
    pub fn validate(&self) -> Result<(), RecoveryConfigError> {
        if self.snapshot_every == 0 {
            return Err(RecoveryConfigError::ZeroSnapshotEvery);
        }
        if self.chunk_size == 0 {
            return Err(RecoveryConfigError::ZeroChunkSize);
        }
        if self.fill_batch == 0 {
            return Err(RecoveryConfigError::ZeroFillBatch);
        }
        Ok(())
    }
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            snapshot_every: 256,
            chunk_size: 1024,
            fill_batch: 256,
        }
    }
}

/// Flight-recorder milestone codes for `FlightKind::Recovery` events.
pub mod milestones {
    /// A snapshot was taken (`b` = its applied sequence number).
    pub const SNAPSHOT: u64 = 0;
    /// A rejoiner entered the `Syncing` phase.
    pub const SYNCING: u64 = 1;
    /// A rejoiner installed a snapshot and entered `CatchingUp`.
    pub const CATCHING_UP: u64 = 2;
    /// A rejoiner aligned with the live stream and went `Live`.
    pub const LIVE: u64 = 3;
    /// A transfer was aborted (shutdown mid-recovery).
    pub const ABORTED: u64 = 4;
    /// A rotation slot was scheduled through the replicated log
    /// (`b` = packed `victim << 32 | epoch` — see the scheduler).
    pub const WIPE_SCHEDULED: u64 = 5;
    /// A rotation slot completed: the victim is Live under the new epoch.
    pub const WIPE_COMPLETED: u64 = 6;
    /// A rotation slot was deferred (degraded group or stuck slot).
    pub const WIPE_DEFERRED: u64 = 7;
    /// Atomic broadcast was rewound to a restored cursor (`b` = the
    /// agreement round it resumes at).
    pub const AB_RESUMED: u64 = 8;
    /// A batch payload fetched from peers was injected into a resumed
    /// atomic broadcast (`peer` = the batch's sender, `b` = its rbid).
    pub const BATCH_INJECTED: u64 = 9;
    /// A recovering atomic broadcast jumped ahead to a round `f + 1`
    /// peers had already reached (`b` = that round).
    pub const FAST_FORWARD: u64 = 10;
}

// ---------------------------------------------------------------------------
// Merkle tree
// ---------------------------------------------------------------------------

/// Domain separators: leaves and inner nodes hash differently so a
/// crafted chunk can never masquerade as an inner node (second-preimage
/// hardening, RFC 6962 style).
const LEAF_TAG: u8 = 0x00;
const NODE_TAG: u8 = 0x01;

/// Hash of a data chunk as a tree leaf.
pub fn leaf_hash(chunk: &[u8]) -> Hash {
    Sha256::digest_concat(&[&[LEAF_TAG], chunk])
}

/// Hash of an inner node from its two children.
pub fn node_hash(left: &Hash, right: &Hash) -> Hash {
    Sha256::digest_concat(&[&[NODE_TAG], left, right])
}

/// The all-zero hash used to pad the leaf layer to a power of two.
/// (A SHA-256 output is never all zeros in practice, and padding nodes
/// are beyond the manifest's chunk count anyway.)
pub const PADDING_HASH: Hash = [0u8; 32];

/// A binary Merkle tree over fixed-size chunks of a byte string.
///
/// `levels[0]` is the (padded) leaf layer; the last level holds the
/// single root. A one-chunk tree is just its leaf: `root == leaf_hash`.
#[derive(Debug, Clone)]
pub struct MerkleTree {
    chunks: u32,
    levels: Vec<Vec<Hash>>,
}

impl MerkleTree {
    /// Builds the tree over `data` split into `chunk_size`-byte chunks
    /// (the final chunk may be short; empty data is one empty chunk).
    pub fn build(data: &[u8], chunk_size: usize) -> Self {
        let chunk_size = chunk_size.max(1);
        let mut leaves: Vec<Hash> = if data.is_empty() {
            vec![leaf_hash(&[])]
        } else {
            data.chunks(chunk_size).map(leaf_hash).collect()
        };
        let chunks = leaves.len() as u32;
        let width = leaves.len().next_power_of_two();
        leaves.resize(width, PADDING_HASH);
        let mut levels = vec![leaves];
        while levels.last().expect("nonempty").len() > 1 {
            let prev = levels.last().expect("nonempty");
            let next: Vec<Hash> = prev
                .chunks(2)
                .map(|pair| node_hash(&pair[0], &pair[1]))
                .collect();
            levels.push(next);
        }
        MerkleTree { chunks, levels }
    }

    /// Number of real (non-padding) chunks.
    pub fn chunks(&self) -> u32 {
        self.chunks
    }

    /// Number of levels below the root (= proof length).
    pub fn depth(&self) -> u8 {
        (self.levels.len() - 1) as u8
    }

    /// The root digest.
    pub fn root(&self) -> Hash {
        self.levels.last().expect("nonempty")[0]
    }

    /// Node hash at `(level, idx)`; `level` 0 is the leaf layer. Padding
    /// and out-of-range nodes answer [`PADDING_HASH`].
    pub fn node(&self, level: u8, idx: u32) -> Hash {
        self.levels
            .get(level as usize)
            .and_then(|l| l.get(idx as usize))
            .copied()
            .unwrap_or(PADDING_HASH)
    }

    /// Sibling path from leaf `idx` up to (excluding) the root.
    pub fn proof(&self, idx: u32) -> Vec<Hash> {
        let mut out = Vec::with_capacity(self.depth() as usize);
        let mut i = idx as usize;
        for level in &self.levels[..self.levels.len() - 1] {
            out.push(level.get(i ^ 1).copied().unwrap_or(PADDING_HASH));
            i >>= 1;
        }
        out
    }

    /// Verifies `chunk` as leaf `idx` of a tree with root `root` via a
    /// sibling `proof` (as produced by [`MerkleTree::proof`]).
    pub fn verify_chunk(root: &Hash, idx: u32, chunk: &[u8], proof: &[Hash]) -> bool {
        let mut h = leaf_hash(chunk);
        let mut i = idx;
        for sib in proof {
            h = if i & 1 == 0 {
                node_hash(&h, sib)
            } else {
                node_hash(sib, &h)
            };
            i >>= 1;
        }
        i == 0 && h == *root
    }
}

// ---------------------------------------------------------------------------
// Snapshot + manifest
// ---------------------------------------------------------------------------

/// Replicated state serialization hooks for recoverable state machines.
///
/// The encoding must be **canonical**: the same logical state must
/// always produce the same bytes at every replica (sorted iteration over
/// unordered containers, no clocks, no addresses), because snapshot
/// digests are vote-compared across replicas.
pub trait SnapshotState: Sized {
    /// Appends the canonical encoding of `self` to `w`.
    fn encode_snapshot(&self, w: &mut Writer);

    /// Decodes a state previously produced by
    /// [`SnapshotState::encode_snapshot`].
    ///
    /// # Errors
    ///
    /// A [`WireError`] on truncated or invalid input.
    fn decode_snapshot(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

/// A bare `u64` (e.g. a replicated counter) is trivially canonical.
impl SnapshotState for u64 {
    fn encode_snapshot(&self, w: &mut Writer) {
        w.u64(*self);
    }

    fn decode_snapshot(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.u64("snap.u64")
    }
}

/// A replica's replicated state frozen at an apply-watermark boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Global applied sequence number at the boundary (number of
    /// deliveries applied, markers included).
    pub seq: u64,
    /// Per-sender FIFO watermark of the applied stream: `next[s]` is the
    /// rbid the next applied delivery of sender `s` must carry. Derived
    /// from the applied prefix, so deterministic at a given `seq`.
    pub next: Vec<u64>,
    /// The application state's canonical encoding.
    pub state: Bytes,
}

impl WireMessage for Snapshot {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.seq).u32(self.next.len() as u32);
        for &v in &self.next {
            w.u64(v);
        }
        w.bytes(&self.state);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let seq = r.u64("snap.seq")?;
        let n = r.u32("snap.n")? as usize;
        if n > MAX_XFER_ITEMS {
            return Err(WireError::FieldTooLong {
                what: "snap.n",
                len: n,
            });
        }
        let mut next = Vec::with_capacity(n);
        for _ in 0..n {
            next.push(r.u64("snap.next")?);
        }
        Ok(Snapshot {
            seq,
            next,
            state: r.bytes("snap.state")?,
        })
    }
}

/// What a peer advertises about a snapshot it can serve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Manifest {
    /// The snapshot's applied sequence number.
    pub seq: u64,
    /// Encoded snapshot length in bytes.
    pub len: u64,
    /// Number of Merkle chunks.
    pub chunks: u32,
    /// Merkle tree depth (proof length).
    pub depth: u8,
    /// Merkle root — the snapshot digest compared across peers.
    pub root: Hash,
}

impl WireMessage for Manifest {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.seq)
            .u64(self.len)
            .u32(self.chunks)
            .u8(self.depth)
            .raw(&self.root);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Manifest {
            seq: r.u64("man.seq")?,
            len: r.u64("man.len")?,
            chunks: r.u32("man.chunks")?,
            depth: r.u8("man.depth")?,
            root: r.array::<32>("man.root")?,
        })
    }
}

/// An encoded snapshot a replica retains for serving: the bytes, their
/// manifest, and the Merkle tree over them.
#[derive(Debug, Clone)]
pub struct SnapshotBundle {
    /// The canonical snapshot encoding.
    pub bytes: Bytes,
    /// Its manifest (digest + geometry).
    pub manifest: Manifest,
    /// The Merkle tree over `bytes`.
    pub tree: MerkleTree,
}

impl SnapshotBundle {
    /// Encodes `snapshot` and builds its tree and manifest.
    pub fn build(snapshot: &Snapshot, chunk_size: usize) -> Self {
        let bytes = snapshot.to_bytes();
        let tree = MerkleTree::build(&bytes, chunk_size);
        let manifest = Manifest {
            seq: snapshot.seq,
            len: bytes.len() as u64,
            chunks: tree.chunks(),
            depth: tree.depth(),
            root: tree.root(),
        };
        SnapshotBundle {
            bytes,
            manifest,
            tree,
        }
    }

    /// The chunk at `idx` (empty when out of range).
    pub fn chunk(&self, idx: u32, chunk_size: usize) -> &[u8] {
        let start = (idx as usize).saturating_mul(chunk_size.max(1));
        let end = (start + chunk_size.max(1)).min(self.bytes.len());
        self.bytes.get(start..end).unwrap_or(&[])
    }
}

// ---------------------------------------------------------------------------
// Peer hints + cursor selection
// ---------------------------------------------------------------------------

/// A peer's view of the atomic-broadcast stream, piggybacked on its
/// manifest response so the rejoiner can pick a resume cursor.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PeerHints {
    /// The peer's current agreement round (`paper`) or oldest slot not
    /// concluded (`lean`).
    pub round: u32,
    /// Per-sender a-delivered *batch* watermark (batches below are
    /// delivered contiguously); under slot ordering, the heads at `round`.
    pub batch_w: Vec<u64>,
    /// Per-sender highest batch seq ever seen (delivered or sparse).
    pub max_batch: Vec<u64>,
    /// Per-sender highest command rbid ever seen.
    pub max_rbid: Vec<u64>,
    /// The decisions of the slots just below `round`, oldest first (at
    /// most [`MAX_ROUND_AHEAD`]); empty under `paper`.
    pub slot_log: Vec<bool>,
}

impl PeerHints {
    /// The heads this peer had at slot `slot`: its heads at `round` with
    /// the logged decisions from `slot` on undone; `None` if `slot` lies
    /// outside its log.
    fn heads_at(&self, slot: u32, n: usize) -> Option<Vec<u64>> {
        let back = self.round.checked_sub(slot)? as usize;
        let from = self.slot_log.len().checked_sub(back)?;
        let mut heads: Vec<u64> = (0..n)
            .map(|o| self.batch_w.get(o).copied().unwrap_or(0))
            .collect();
        for (s, ordered) in (slot..).zip(&self.slot_log[from..]) {
            if *ordered {
                let head = &mut heads[s as usize % n];
                *head = head.checked_sub(1)?;
            }
        }
        Some(heads)
    }
}

fn encode_vec(w: &mut Writer, v: &[u64]) {
    w.u32(v.len() as u32);
    for &x in v {
        w.u64(x);
    }
}

fn decode_vec(r: &mut Reader<'_>, what: &'static str) -> Result<Vec<u64>, WireError> {
    let n = r.u32(what)? as usize;
    if n > MAX_XFER_ITEMS {
        return Err(WireError::FieldTooLong { what, len: n });
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.u64(what)?);
    }
    Ok(out)
}

impl WireMessage for PeerHints {
    fn encode(&self, w: &mut Writer) {
        w.u32(self.round);
        encode_vec(w, &self.batch_w);
        encode_vec(w, &self.max_batch);
        encode_vec(w, &self.max_rbid);
        w.u32(self.slot_log.len() as u32);
        for ordered in &self.slot_log {
            w.u8(u8::from(*ordered));
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(PeerHints {
            round: r.u32("hints.round")?,
            batch_w: decode_vec(r, "hints.batch_w")?,
            max_batch: decode_vec(r, "hints.max_batch")?,
            max_rbid: decode_vec(r, "hints.max_rbid")?,
            slot_log: {
                let len = r.u32("hints.slot_log")? as usize;
                if len > MAX_ROUND_AHEAD as usize {
                    let what = "hints.slot_log";
                    return Err(WireError::FieldTooLong { what, len });
                }
                let mut log = Vec::with_capacity(len);
                for _ in 0..len {
                    log.push(r.u8("hints.slot_log")? != 0);
                }
                log
            },
        })
    }
}

/// Headroom added above the highest observed own batch/rbid when
/// resuming, so a pre-crash in-flight batch still being disseminated can
/// never collide with a fresh identifier. Overshoot is harmless (ids are
/// sparse); undershoot would fork the sender's id space.
pub const RESUME_ID_SLACK: u64 = 1024;

/// The `k`-th smallest value (1-indexed) of `values`; 0 when empty.
fn kth_smallest(mut values: Vec<u64>, k: usize) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let i = k.saturating_sub(1).min(values.len() - 1);
    values[i]
}

/// Aggregates `2f+1` peer hints into a resume cursor, Byzantine-bounded:
/// order statistics pick the `(f+1)`-th smallest round and per-sender
/// batch watermark (so at most `f` liars can neither drag the value
/// below every correct report nor push it above every correct report),
/// and own-id counters take the maximum observed plus
/// [`RESUME_ID_SLACK`]. The command watermark comes from the accepted
/// snapshot (`snapshot_next`) for **every** sender including the
/// rejoiner itself — claiming more would skip commands peers still
/// deliver. Residual staleness in either direction is absorbed by the
/// catch-up alignment rule in [`crate::rsm`].
///
/// Slot ordering (`lean`) tolerates no staleness in the ordering half:
/// see [`slot_cursor`].
pub fn select_cursor(
    me: usize,
    n: usize,
    f: usize,
    hints: &[PeerHints],
    snapshot_next: &[u64],
    profile: Profile,
) -> AbCursor {
    let k = f + 1;
    let round = kth_smallest(hints.iter().map(|h| u64::from(h.round)).collect(), k) as u32;
    let get = |v: &[u64], s: usize| v.get(s).copied().unwrap_or(0);
    let a_delivered: Vec<u64> = (0..n)
        .map(|s| kth_smallest(hints.iter().map(|h| get(&h.batch_w, s)).collect(), k))
        .collect();
    let max_batch = hints
        .iter()
        .map(|h| get(&h.max_batch, me))
        .max()
        .unwrap_or(0);
    let max_rbid = hints
        .iter()
        .map(|h| get(&h.max_rbid, me))
        .max()
        .unwrap_or(0);
    let cursor = AbCursor {
        round,
        replay_to: 0,
        a_delivered,
        cmd_delivered: (0..n).map(|s| get(snapshot_next, s)).collect(),
        next_batch: max_batch + RESUME_ID_SLACK,
        next_rbid: max_rbid + RESUME_ID_SLACK,
    };
    match profile {
        Profile::Paper => cursor,
        Profile::Lean => slot_cursor(me, n, f, hints, cursor),
    }
}

/// The slot ordering half of [`select_cursor`]. A slot's 1 orders its
/// leader's head, so the cursor is exactly a slot and the heads the group
/// had there: the highest slot at which `f+1` hints agree on every head,
/// read back through each hint's decision log (one of them is correct,
/// and correct peers agree on the heads of a slot). `replay_to` lies past
/// every slot a hint reports open, so the slots the group ran before the
/// rejoiner could hear them are replayed. The own batch sequence resumes
/// after the `(f+1)`-th largest seq reported, without slack: a gap would
/// be a head no slot ever orders.
fn slot_cursor(
    me: usize,
    n: usize,
    f: usize,
    hints: &[PeerHints],
    mut cursor: AbCursor,
) -> AbCursor {
    let mut slots: Vec<u32> = hints.iter().map(|h| h.round).collect();
    slots.sort_unstable_by(|a, b| b.cmp(a));
    let agreed = slots.iter().find_map(|&slot| {
        let views: Vec<Vec<u64>> = hints.iter().filter_map(|h| h.heads_at(slot, n)).collect();
        let agreed = views
            .iter()
            .find(|v| views.iter().filter(|w| w == v).count() > f);
        agreed.map(|heads| (slot, heads.clone()))
    });
    if let Some((slot, heads)) = agreed {
        let top = slots[0].min(slot.saturating_add(MAX_ROUND_AHEAD));
        cursor.round = slot;
        cursor.replay_to = top.saturating_add(n as u32);
        cursor.a_delivered = heads;
    }
    let mut seen: Vec<u64> = hints
        .iter()
        .map(|h| h.max_batch.get(me).copied().unwrap_or(0))
        .collect();
    seen.sort_unstable_by(|a, b| b.cmp(a));
    let seen = seen.get(f).or(seen.last()).copied().unwrap_or(0);
    cursor.next_batch = seen.max(cursor.a_delivered.get(me).copied().unwrap_or(0));
    cursor
}

// ---------------------------------------------------------------------------
// Transfer protocol messages
// ---------------------------------------------------------------------------

/// One post-snapshot log entry served through the fill protocol: the
/// delivery at global applied sequence `seq`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FillEntry {
    /// Global applied sequence number.
    pub seq: u64,
    /// Originating sender of the delivery.
    pub sender: u32,
    /// The sender-local rbid of the delivery.
    pub rbid: u64,
    /// The framed command payload.
    pub payload: Bytes,
}

impl WireMessage for FillEntry {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.seq)
            .u32(self.sender)
            .u64(self.rbid)
            .bytes(&self.payload);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(FillEntry {
            seq: r.u64("fill.seq")?,
            sender: r.u32("fill.sender")?,
            rbid: r.u64("fill.rbid")?,
            payload: r.bytes("fill.payload")?,
        })
    }
}

/// Bound on vector fields in transfer messages (anti-DoS).
const MAX_XFER_ITEMS: usize = 4096;

/// The pull-based state-transfer protocol. Carried as opaque payloads of
/// the stack's `Xfer` instance key; both requests and responses travel
/// the same channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XferMessage {
    /// "What snapshot can you serve, and where is your AB stream?"
    ManifestReq,
    /// The peer's latest manifest (none if it has no snapshot yet) plus
    /// its stream hints.
    ManifestResp {
        /// Latest snapshot manifest, when one exists.
        manifest: Option<Manifest>,
        /// The peer's atomic-broadcast position.
        hints: PeerHints,
    },
    /// Merkle node hashes of snapshot `seq` at `level` (0 = leaves).
    NodesReq {
        /// Snapshot being reconciled.
        seq: u64,
        /// Tree level, 0 = leaf layer.
        level: u8,
        /// Node indices wanted.
        indices: Vec<u32>,
    },
    /// The requested node hashes, index-aligned with the request.
    NodesResp {
        /// Snapshot being reconciled.
        seq: u64,
        /// Tree level.
        level: u8,
        /// Echoed indices.
        indices: Vec<u32>,
        /// Node hashes (empty when the snapshot is gone).
        hashes: Vec<Hash>,
    },
    /// One chunk of snapshot `seq`.
    ChunkReq {
        /// Snapshot being fetched.
        seq: u64,
        /// Chunk index.
        idx: u32,
    },
    /// The chunk plus its sibling proof to the root.
    ChunkResp {
        /// Snapshot being fetched.
        seq: u64,
        /// Chunk index.
        idx: u32,
        /// Chunk bytes (empty when the snapshot is gone).
        data: Bytes,
        /// Sibling path to the root.
        proof: Vec<Hash>,
    },
    /// Log entries from global sequence `from_seq` on.
    FillReq {
        /// First wanted sequence number.
        from_seq: u64,
        /// Entry budget for the response.
        max: u32,
    },
    /// Contiguous log entries starting at the requested sequence (empty
    /// when the peer's log starts later or has nothing new).
    FillResp {
        /// The served entries, sequence-ascending.
        entries: Vec<FillEntry>,
    },
    /// Encoded payloads of recently ordered batches (`(sender, seq)`
    /// pairs) — requested when a rejoiner's agreement decided batches
    /// whose dissemination completed before the wipe.
    BatchReq {
        /// The wanted `(sender, batch seq)` pairs.
        ids: Vec<(u32, u64)>,
    },
    /// The retained batch payloads, id-tagged; ids the peer no longer
    /// retains are omitted. The requester must only accept a payload
    /// served byte-identically by `f+1` peers.
    BatchResp {
        /// `(sender, batch seq, encoded payload)` triples.
        batches: Vec<(u32, u64, Bytes)>,
    },
}

impl WireMessage for XferMessage {
    fn encode(&self, w: &mut Writer) {
        match self {
            XferMessage::ManifestReq => {
                w.u8(1);
            }
            XferMessage::ManifestResp { manifest, hints } => {
                w.u8(2);
                match manifest {
                    Some(m) => {
                        w.u8(1);
                        m.encode(w);
                    }
                    None => {
                        w.u8(0);
                    }
                }
                hints.encode(w);
            }
            XferMessage::NodesReq {
                seq,
                level,
                indices,
            } => {
                w.u8(3).u64(*seq).u8(*level).u32(indices.len() as u32);
                for &i in indices {
                    w.u32(i);
                }
            }
            XferMessage::NodesResp {
                seq,
                level,
                indices,
                hashes,
            } => {
                w.u8(4).u64(*seq).u8(*level).u32(indices.len() as u32);
                for &i in indices {
                    w.u32(i);
                }
                w.u32(hashes.len() as u32);
                for h in hashes {
                    w.raw(h);
                }
            }
            XferMessage::ChunkReq { seq, idx } => {
                w.u8(5).u64(*seq).u32(*idx);
            }
            XferMessage::ChunkResp {
                seq,
                idx,
                data,
                proof,
            } => {
                w.u8(6).u64(*seq).u32(*idx).bytes(data);
                w.u32(proof.len() as u32);
                for h in proof {
                    w.raw(h);
                }
            }
            XferMessage::FillReq { from_seq, max } => {
                w.u8(7).u64(*from_seq).u32(*max);
            }
            XferMessage::FillResp { entries } => {
                w.u8(8).u32(entries.len() as u32);
                for e in entries {
                    e.encode(w);
                }
            }
            XferMessage::BatchReq { ids } => {
                w.u8(9).u32(ids.len() as u32);
                for (sender, seq) in ids {
                    w.u32(*sender).u64(*seq);
                }
            }
            XferMessage::BatchResp { batches } => {
                w.u8(10).u32(batches.len() as u32);
                for (sender, seq, payload) in batches {
                    w.u32(*sender).u64(*seq).bytes(payload);
                }
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        fn counted<T>(
            r: &mut Reader<'_>,
            what: &'static str,
            mut item: impl FnMut(&mut Reader<'_>) -> Result<T, WireError>,
        ) -> Result<Vec<T>, WireError> {
            let n = r.u32(what)? as usize;
            if n > MAX_XFER_ITEMS {
                return Err(WireError::FieldTooLong { what, len: n });
            }
            let mut out = Vec::with_capacity(n);
            for _ in 0..n {
                out.push(item(r)?);
            }
            Ok(out)
        }
        Ok(match r.u8("xfer.tag")? {
            1 => XferMessage::ManifestReq,
            2 => {
                let manifest = match r.u8("xfer.has_manifest")? {
                    0 => None,
                    1 => Some(Manifest::decode(r)?),
                    tag => {
                        return Err(WireError::InvalidTag {
                            what: "xfer.has_manifest",
                            tag,
                        })
                    }
                };
                XferMessage::ManifestResp {
                    manifest,
                    hints: PeerHints::decode(r)?,
                }
            }
            3 => XferMessage::NodesReq {
                seq: r.u64("xfer.seq")?,
                level: r.u8("xfer.level")?,
                indices: counted(r, "xfer.indices", |r| r.u32("xfer.idx"))?,
            },
            4 => XferMessage::NodesResp {
                seq: r.u64("xfer.seq")?,
                level: r.u8("xfer.level")?,
                indices: counted(r, "xfer.indices", |r| r.u32("xfer.idx"))?,
                hashes: counted(r, "xfer.hashes", |r| r.array::<32>("xfer.hash"))?,
            },
            5 => XferMessage::ChunkReq {
                seq: r.u64("xfer.seq")?,
                idx: r.u32("xfer.idx")?,
            },
            6 => XferMessage::ChunkResp {
                seq: r.u64("xfer.seq")?,
                idx: r.u32("xfer.idx")?,
                data: r.bytes("xfer.data")?,
                proof: counted(r, "xfer.proof", |r| r.array::<32>("xfer.hash"))?,
            },
            7 => XferMessage::FillReq {
                from_seq: r.u64("xfer.from_seq")?,
                max: r.u32("xfer.max")?,
            },
            8 => XferMessage::FillResp {
                entries: counted(r, "xfer.entries", FillEntry::decode)?,
            },
            9 => XferMessage::BatchReq {
                ids: counted(r, "xfer.ids", |r| {
                    Ok((r.u32("xfer.sender")?, r.u64("xfer.seq")?))
                })?,
            },
            10 => XferMessage::BatchResp {
                batches: counted(r, "xfer.batches", |r| {
                    Ok((
                        r.u32("xfer.sender")?,
                        r.u64("xfer.seq")?,
                        r.bytes("xfer.payload")?,
                    ))
                })?,
            },
            tag => {
                return Err(WireError::InvalidTag {
                    what: "xfer.tag",
                    tag,
                })
            }
        })
    }
}

// ---------------------------------------------------------------------------
// Anti-entropy descent
// ---------------------------------------------------------------------------

/// What the Merkle descent decided about each chunk of a manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchPlan {
    /// Chunk indices that must be downloaded (stale copy differs or is
    /// absent).
    pub need: Vec<u32>,
    /// Chunk indices whose bytes can be reused from the stale snapshot
    /// (subtree hashes matched).
    pub reuse: Vec<u32>,
}

/// Errors surfaced by the anti-entropy descent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AntiEntropyError {
    /// The peer's node hashes did not re-hash to their verified parent —
    /// a corrupt server.
    BadNodes,
    /// The fetch callback failed (peer gone, snapshot discarded).
    FetchFailed,
}

impl core::fmt::Display for AntiEntropyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AntiEntropyError::BadNodes => write!(f, "merkle nodes failed verification"),
            AntiEntropyError::FetchFailed => write!(f, "merkle node fetch failed"),
        }
    }
}

impl std::error::Error for AntiEntropyError {}

/// Top-down Merkle descent against an optional stale local tree:
/// descends only into subtrees whose (verified) remote hash differs from
/// the stale one, so unchanged chunk ranges are reused instead of
/// downloaded. `fetch_nodes(level, indices)` must return the peer's node
/// hashes index-aligned with the request; every returned level is
/// verified bottom-up against the already-verified parent layer
/// (anchored at the agreed manifest root), so a lying server yields
/// [`AntiEntropyError::BadNodes`], never a wrong plan.
///
/// # Errors
///
/// [`AntiEntropyError::BadNodes`] on hash-chain mismatch,
/// [`AntiEntropyError::FetchFailed`] when the callback errors.
pub fn plan_fetch(
    manifest: &Manifest,
    stale: Option<&MerkleTree>,
    mut fetch_nodes: impl FnMut(u8, &[u32]) -> Result<Vec<Hash>, AntiEntropyError>,
) -> Result<FetchPlan, AntiEntropyError> {
    let mut plan = FetchPlan {
        need: Vec::new(),
        reuse: Vec::new(),
    };
    // Differing verified nodes at the current level: (idx, remote hash).
    let mut frontier: Vec<(u32, Hash)> = vec![(0, manifest.root)];
    let mut level = manifest.depth;
    // Walk down; at each step resolve the frontier's children.
    while !frontier.is_empty() {
        if level == 0 {
            for (idx, _) in frontier {
                if idx < manifest.chunks {
                    plan.need.push(idx);
                }
            }
            break;
        }
        let child_level = level - 1;
        let child_indices: Vec<u32> = frontier
            .iter()
            .flat_map(|&(i, _)| [i * 2, i * 2 + 1])
            .collect();
        let hashes = fetch_nodes(child_level, &child_indices)?;
        if hashes.len() != child_indices.len() {
            return Err(AntiEntropyError::FetchFailed);
        }
        let mut next = Vec::new();
        for (k, &(idx, parent)) in frontier.iter().enumerate() {
            let (l, r) = (hashes[2 * k], hashes[2 * k + 1]);
            if node_hash(&l, &r) != parent {
                return Err(AntiEntropyError::BadNodes);
            }
            for (child, h) in [(idx * 2, l), (idx * 2 + 1, r)] {
                if let Some(mine) = stale {
                    if mine.node(child_level, child) == h {
                        // Whole subtree unchanged: reuse its chunks.
                        let width = 1u32 << child_level;
                        let first = child * width;
                        for c in first..(first + width).min(manifest.chunks) {
                            plan.reuse.push(c);
                        }
                        continue;
                    }
                }
                if h != PADDING_HASH || child_level > 0 {
                    // Padding subtrees contain no real chunks only when
                    // entirely beyond the chunk count; the leaf filter
                    // below handles the boundary.
                    let width = 1u32 << child_level;
                    if child * width < manifest.chunks {
                        next.push((child, h));
                    }
                }
            }
        }
        frontier = next;
        level = child_level;
    }
    plan.need.sort_unstable();
    plan.reuse.sort_unstable();
    plan.reuse.retain(|c| *c < manifest.chunks);
    Ok(plan)
}

/// Groups `2f+1`-ish manifest responses and returns the newest manifest
/// carried by at least `quorum` (= `f+1`) byte-identical copies, along
/// with the peers that hold it.
pub fn accept_manifest(
    responses: &[(usize, Manifest)],
    quorum: usize,
) -> Option<(Manifest, Vec<usize>)> {
    let mut best: Option<(Manifest, Vec<usize>)> = None;
    for (_, m) in responses {
        let holders: Vec<usize> = responses
            .iter()
            .filter(|(_, other)| other == m)
            .map(|(p, _)| *p)
            .collect();
        if holders.len() >= quorum && best.as_ref().map(|(b, _)| m.seq > b.seq).unwrap_or(true) {
            best = Some((*m, holders));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31) ^ seed)
            .collect()
    }

    #[test]
    fn config_validation_rejects_zero_fields() {
        assert_eq!(RecoveryConfig::default().validate(), Ok(()));
        let cfg = RecoveryConfig {
            snapshot_every: 0,
            ..RecoveryConfig::default()
        };
        assert_eq!(cfg.validate(), Err(RecoveryConfigError::ZeroSnapshotEvery));
        let cfg = RecoveryConfig {
            chunk_size: 0,
            ..RecoveryConfig::default()
        };
        assert_eq!(cfg.validate(), Err(RecoveryConfigError::ZeroChunkSize));
        let cfg = RecoveryConfig {
            fill_batch: 0,
            ..RecoveryConfig::default()
        };
        assert_eq!(cfg.validate(), Err(RecoveryConfigError::ZeroFillBatch));
        // Errors render as readable diagnostics.
        let msg = RecoveryConfigError::ZeroChunkSize.to_string();
        assert!(msg.contains("chunk_size"));
    }

    #[test]
    fn merkle_proofs_verify_and_reject_corruption() {
        for len in [0usize, 1, 64, 65, 300, 1000] {
            let bytes = data(len, 7);
            let tree = MerkleTree::build(&bytes, 64);
            let root = tree.root();
            for idx in 0..tree.chunks() {
                let start = idx as usize * 64;
                let chunk = &bytes[start..(start + 64).min(bytes.len())];
                let proof = tree.proof(idx);
                assert!(
                    MerkleTree::verify_chunk(&root, idx, chunk, &proof),
                    "len={len} idx={idx}"
                );
                // A flipped byte must be detected.
                let mut bad = chunk.to_vec();
                if bad.is_empty() {
                    bad.push(1);
                } else {
                    bad[0] ^= 1;
                }
                assert!(
                    !MerkleTree::verify_chunk(&root, idx, &bad, &proof),
                    "corruption undetected at len={len} idx={idx}"
                );
                // A proof for the wrong index must not verify.
                if tree.chunks() > 1 {
                    let other = (idx + 1) % tree.chunks();
                    assert!(!MerkleTree::verify_chunk(&root, other, chunk, &proof));
                }
            }
        }
    }

    #[test]
    fn merkle_root_is_position_sensitive() {
        let a = MerkleTree::build(&data(256, 1), 64);
        let mut swapped = data(256, 1);
        swapped.swap(0, 64); // move a byte across a chunk boundary
        let b = MerkleTree::build(&swapped, 64);
        assert_ne!(a.root(), b.root());
    }

    #[test]
    fn snapshot_codec_roundtrip_and_determinism() {
        let s = Snapshot {
            seq: 512,
            next: vec![3, 9, 0, 44],
            state: Bytes::from(data(100, 3)),
        };
        assert_eq!(Snapshot::from_bytes(&s.to_bytes()).unwrap(), s);
        // Canonical: same value, same bytes, same digest.
        let b1 = SnapshotBundle::build(&s, 64);
        let b2 = SnapshotBundle::build(&s.clone(), 64);
        assert_eq!(b1.manifest, b2.manifest);
        assert_eq!(b1.manifest.seq, 512);
        assert_eq!(b1.manifest.len, b1.bytes.len() as u64);
    }

    #[test]
    fn xfer_codec_roundtrip() {
        let msgs = vec![
            XferMessage::ManifestReq,
            XferMessage::ManifestResp {
                manifest: Some(Manifest {
                    seq: 7,
                    len: 100,
                    chunks: 2,
                    depth: 1,
                    root: [9; 32],
                }),
                hints: PeerHints {
                    round: 5,
                    batch_w: vec![1, 2, 3, 4],
                    max_batch: vec![2, 3, 4, 5],
                    max_rbid: vec![10, 0, 0, 7],
                    slot_log: vec![true, false, true],
                },
            },
            XferMessage::ManifestResp {
                manifest: None,
                hints: PeerHints::default(),
            },
            XferMessage::NodesReq {
                seq: 7,
                level: 2,
                indices: vec![0, 3],
            },
            XferMessage::NodesResp {
                seq: 7,
                level: 2,
                indices: vec![0, 3],
                hashes: vec![[1; 32], [2; 32]],
            },
            XferMessage::ChunkReq { seq: 7, idx: 1 },
            XferMessage::ChunkResp {
                seq: 7,
                idx: 1,
                data: Bytes::from_static(b"chunk"),
                proof: vec![[3; 32]],
            },
            XferMessage::FillReq {
                from_seq: 99,
                max: 16,
            },
            XferMessage::FillResp {
                entries: vec![FillEntry {
                    seq: 100,
                    sender: 2,
                    rbid: 41,
                    payload: Bytes::from_static(b"\x01incr"),
                }],
            },
            XferMessage::BatchReq {
                ids: vec![(0, 5), (3, 0)],
            },
            XferMessage::BatchResp {
                batches: vec![(0, 5, Bytes::from_static(b"batchbytes"))],
            },
        ];
        for m in msgs {
            assert_eq!(XferMessage::from_bytes(&m.to_bytes()).unwrap(), m);
        }
        // Truncation and trailing garbage are rejected.
        let enc = XferMessage::ChunkReq { seq: 7, idx: 1 }.to_bytes();
        assert!(XferMessage::from_bytes(&enc[..enc.len() - 1]).is_err());
        let mut trailing = enc.to_vec();
        trailing.push(0);
        assert!(XferMessage::from_bytes(&trailing).is_err());
        assert!(XferMessage::from_bytes(&[99]).is_err());
    }

    #[test]
    fn plan_fetch_downloads_only_differing_chunks() {
        // A stale snapshot differing from the fresh one in one chunk:
        // the descent must reuse every other chunk.
        let old = data(1024, 5);
        let mut new = old.clone();
        new[300] ^= 0xff; // chunk 4 with chunk_size 64
        let stale = MerkleTree::build(&old, 64);
        let fresh = MerkleTree::build(&new, 64);
        let manifest = Manifest {
            seq: 1,
            len: new.len() as u64,
            chunks: fresh.chunks(),
            depth: fresh.depth(),
            root: fresh.root(),
        };
        let plan = plan_fetch(&manifest, Some(&stale), |level, idxs| {
            Ok(idxs.iter().map(|&i| fresh.node(level, i)).collect())
        })
        .unwrap();
        assert_eq!(plan.need, vec![4], "only the changed chunk is fetched");
        let mut all: Vec<u32> = plan.need.iter().chain(plan.reuse.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..fresh.chunks()).collect::<Vec<_>>());
    }

    #[test]
    fn plan_fetch_without_stale_fetches_everything() {
        let bytes = data(500, 9);
        let tree = MerkleTree::build(&bytes, 64);
        let manifest = Manifest {
            seq: 1,
            len: bytes.len() as u64,
            chunks: tree.chunks(),
            depth: tree.depth(),
            root: tree.root(),
        };
        let plan = plan_fetch(&manifest, None, |level, idxs| {
            Ok(idxs.iter().map(|&i| tree.node(level, i)).collect())
        })
        .unwrap();
        assert_eq!(plan.need, (0..tree.chunks()).collect::<Vec<_>>());
        assert!(plan.reuse.is_empty());
    }

    #[test]
    fn plan_fetch_detects_lying_server() {
        let bytes = data(500, 9);
        let tree = MerkleTree::build(&bytes, 64);
        let manifest = Manifest {
            seq: 1,
            len: bytes.len() as u64,
            chunks: tree.chunks(),
            depth: tree.depth(),
            root: tree.root(),
        };
        let err = plan_fetch(&manifest, None, |level, idxs| {
            let mut h: Vec<Hash> = idxs.iter().map(|&i| tree.node(level, i)).collect();
            h[0][0] ^= 1; // corrupt one advertised node
            Ok(h)
        })
        .unwrap_err();
        assert_eq!(err, AntiEntropyError::BadNodes);
    }

    #[test]
    fn slot_cursor_takes_the_heads_f_plus_1_hints_agree_on() {
        // n = 4, f = 1. `ahead` concluded slot 8 (sender 0's head ordered)
        // and slot 9 (a 0) since it stood where `behind` stands.
        let ahead = PeerHints {
            round: 10,
            batch_w: vec![3, 2, 2, 2],
            max_batch: vec![3, 2, 2, 5],
            max_rbid: vec![0; 4],
            slot_log: vec![false, true, false],
        };
        let behind = PeerHints {
            round: 8,
            batch_w: vec![2, 2, 2, 2],
            max_batch: vec![3, 2, 2, 4],
            max_rbid: vec![0; 4],
            slot_log: vec![false],
        };
        let liar = PeerHints {
            round: 10,
            batch_w: vec![9; 4],
            max_batch: vec![0, 0, 0, 99],
            max_rbid: vec![0; 4],
            slot_log: vec![true; 64],
        };
        assert_eq!(ahead.heads_at(8, 4), Some(vec![2, 2, 2, 2]));
        assert_eq!(ahead.heads_at(6, 4), None, "beyond its log");
        let hints = [ahead, liar, behind];
        let cursor = select_cursor(3, 4, 1, &hints, &[0; 4], Profile::Lean);
        // No two hints agree at slot 10; `ahead` and `behind` do at 8.
        assert_eq!((cursor.round, cursor.a_delivered), (8, vec![2; 4]));
        // Every slot opened at the highest report, 10, is replayed.
        assert_eq!(cursor.replay_to, 10 + 4);
        // The own batch sequence: the (f+1)-th largest seq seen, a
        // correct report, without slack.
        assert_eq!(cursor.next_batch, 5);
        assert_eq!(cursor.next_rbid, RESUME_ID_SLACK);
    }

    #[test]
    fn cursor_selection_is_byzantine_bounded() {
        // n=4, f=1: three responders, one lying wildly in each direction.
        let correct_a = PeerHints {
            round: 10,
            batch_w: vec![5, 6, 7, 8],
            max_batch: vec![6, 7, 8, 9],
            max_rbid: vec![50, 60, 70, 80],
            slot_log: Vec::new(),
        };
        let correct_b = PeerHints {
            round: 11,
            batch_w: vec![5, 7, 7, 8],
            max_batch: vec![6, 7, 8, 9],
            max_rbid: vec![51, 60, 70, 80],
            slot_log: Vec::new(),
        };
        let liar = PeerHints {
            round: 1_000_000,
            batch_w: vec![u64::MAX; 4],
            max_batch: vec![0; 4],
            max_rbid: vec![0; 4],
            slot_log: Vec::new(),
        };
        let hints = [correct_a, liar, correct_b];
        let cursor = select_cursor(0, 4, 1, &hints, &[3, 4, 5, 6], Profile::Paper);
        // The (f+1)-th smallest is bounded by a correct report.
        assert_eq!(cursor.round, 11);
        assert_eq!(cursor.a_delivered, vec![5, 7, 7, 8]);
        assert_eq!(cursor.cmd_delivered, vec![3, 4, 5, 6]);
        // Own counters: max over reports + slack.
        assert_eq!(cursor.next_rbid, 51 + RESUME_ID_SLACK);
        assert_eq!(cursor.next_batch, 6 + RESUME_ID_SLACK);
    }

    #[test]
    fn accept_manifest_needs_quorum_and_prefers_newest() {
        let m = |seq, tag: u8| Manifest {
            seq,
            len: 10,
            chunks: 1,
            depth: 0,
            root: [tag; 32],
        };
        // Two peers agree on seq 20, one lone voice claims seq 30.
        let responses = vec![(0, m(20, 1)), (1, m(20, 1)), (2, m(30, 2))];
        let (accepted, holders) = accept_manifest(&responses, 2).unwrap();
        assert_eq!(accepted.seq, 20);
        assert_eq!(holders, vec![0, 1]);
        // Nothing reaches quorum → no acceptance.
        let responses = vec![(0, m(20, 1)), (1, m(21, 1)), (2, m(30, 2))];
        assert!(accept_manifest(&responses, 2).is_none());
        // Two quorums → the newest wins.
        let responses = vec![(0, m(20, 1)), (1, m(20, 1)), (2, m(40, 3)), (3, m(40, 3))];
        let (accepted, _) = accept_manifest(&responses, 2).unwrap();
        assert_eq!(accepted.seq, 40);
    }
}
