//! # ipet-store
//!
//! A crash-safe, disk-backed store of solved ILPs, keyed on the same
//! problem fingerprints the in-memory solve cache uses. It lets a
//! second `cinderella analyze` of the same program — or a long-running
//! `cinderella serve` daemon — replay certified solves across *process*
//! boundaries, not just across batches within one process.
//!
//! ## Trust model: the disk is hostile
//!
//! Nothing read back from disk is believed. Every record carries a length
//! and a CRC32 checksum; records that fail framing, checksum, version or
//! decode checks are **quarantined** (counted, skipped) rather than trusted
//! or repaired. A record that decodes cleanly is still only an *index
//! entry*: its bucket key is re-derived from its own problem
//! ([`ipet_lp::fingerprint`]), never read from the record, so a file
//! written under an older key scheme re-keys itself on open; and a replay
//! passes the same gate as the in-memory cache's
//! ([`ipet_audit::replay_gate`]: structural equality with the probe
//! problem, then exact-arithmetic re-certification of the cached witness).
//! A flipped bit anywhere can therefore cost a cold solve, never a wrong
//! bound.
//!
//! ## Crash safety: an append-only journal
//!
//! The file is the magic header followed by checksummed records, applied
//! in file order on open: a *solve* record inserts an entry (with
//! [`Store::insert`]'s dedup), and a *context* record — a tombstone,
//! written when [`Store::note_context`] actually drops entries — drops the
//! named program's entries under any other invalidation hash. Reopening
//! therefore yields exactly the entry set of the last good flush.
//!
//! A writing [`Store::flush`] appends only the records added since the
//! last good flush, sorted by payload bytes (tombstones first), in one
//! write followed by one `fdatasync`. A crash mid-append leaves a torn
//! tail that the next open's checksums catch and quarantine. Appends are
//! what keep a flush O(edit): on a disk mounted with `discard`, replacing
//! a file (rename-over or truncate-and-rewrite) costs ~50 ms where an
//! append plus `fdatasync` costs ~0.06 ms.
//!
//! **Compaction** rewrites the sorted live image to `<path>.tmp`, fsyncs
//! it, renames it over `<path>` and fsyncs the directory, so readers see
//! either the old complete file or the new one. It runs on the first
//! writing flush when the file is absent or its open scan quarantined
//! anything (nothing is ever appended after a torn or unframed tail),
//! after any failed, torn or corrupted write, and when dead bytes
//! (superseded, dropped or tombstone records) exceed
//! `max(live bytes, COMPACT_FLOOR_BYTES)` — which keeps the file within
//! twice the live bytes plus the floor. A compacted file's bytes are a
//! pure function of the entry set.
//!
//! A flush writes only when the store is *dirty*: records are waiting, or
//! a compaction is due. A failed or damaged write schedules a compaction,
//! so the next flush repairs the file. A clean flush still waits for any
//! flush in progress, so its `Ok` keeps meaning "everything inserted so
//! far is on disk".
//!
//! ## Degraded modes, never errors
//!
//! [`Store::open`] is infallible by design. Whatever goes wrong — another
//! process holds the advisory lock, the directory is missing, an injected
//! open fault fires — the store degrades to [`StoreMode::ReadOnly`] or
//! [`StoreMode::InMemory`] and keeps serving probes from whatever it could
//! load. Analysis results are identical in every mode; only persistence
//! and replay opportunities differ.
//!
//! ## Invalidation
//!
//! Each entry is tagged with the analyzer's *identity* hash (which program
//! is this?) and *invalidation* hash (source text, machine model, cache
//! configuration, annotations). [`Store::note_context`] drops entries whose
//! identity matches but whose invalidation hash does not — a changed input
//! silently retires its stale entries instead of relying on fingerprint
//! luck to miss them.

use ipet_audit::{replay_gate, Replay};
use ipet_lp::{
    fingerprint, same_structure, Fingerprint, IlpResolution, IlpStats, IoFault, Problem, Relation,
    Sense, SolverFaults,
};
use std::collections::HashMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Magic + version header; changing the record format — or what a
/// record's witness means — bumps the version and quarantines every older
/// file wholesale. Version 2: the witness of a tied optimum is the
/// canonical one (the lexicographic minimum over the optimal face); a
/// version-1 file may hold another optimal witness, which would certify
/// and replay, making an answer depend on store history.
pub const STORE_MAGIC: &[u8; 16] = b"ipet-store-v2\0\0\0";

/// Upper bound on a single record's payload length; anything larger is
/// treated as lost framing (the rest of the file is quarantined).
const MAX_RECORD_LEN: u32 = 1 << 28;

/// Record payload tags. A context record's tag sorts before a solve
/// record's, so an append's tombstones precede its inserts (see
/// [`Store::flush`]).
const TAG_CONTEXT: u8 = 0;
const TAG_SOLVE: u8 = 1;

/// Dead bytes a journal may carry before a flush compacts it, when that
/// is more than its live bytes. Sized for `cinderella serve`'s edit loop,
/// where every edit's records die at the next replay: an edit session
/// appends about 20 KB, so a compaction (~50 ms on a `discard` mount)
/// comes once per ~200 sessions, well under 1 % of writing flushes.
pub const COMPACT_FLOOR_BYTES: u64 = 4 << 20;

/// Bytes of a record's frame: `[u32 len][u32 crc]`.
const FRAME_BYTES: u64 = 8;

/// How the store is operating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreMode {
    /// Normal: loaded from disk (or fresh), holds the advisory lock,
    /// flushes persist.
    ReadWrite,
    /// Another live process holds the lock: replays are served from the
    /// loaded snapshot, inserts stay in memory, flushes are no-ops.
    ReadOnly,
    /// The file could not be opened (missing directory, injected open
    /// fault): behaves like a fresh in-process cache, nothing persists.
    InMemory,
}

impl StoreMode {
    /// Short lowercase label for telemetry and summary lines.
    pub fn label(&self) -> &'static str {
        match self {
            StoreMode::ReadWrite => "rw",
            StoreMode::ReadOnly => "ro",
            StoreMode::InMemory => "mem",
        }
    }
}

/// Cumulative store statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Records decoded and accepted at open.
    pub loaded: u64,
    /// Records (or whole files) refused at open: bad header, bad framing,
    /// checksum mismatch, or decode failure.
    pub quarantined: u64,
    /// Probes answered by a certified replay.
    pub hits: u64,
    /// Probes that found no usable entry.
    pub misses: u64,
    /// Probes that found the problem stored but its witness failed exact
    /// re-certification.
    pub rejected: u64,
    /// Entries dropped because their invalidation hash went stale.
    pub invalidated: u64,
    /// Successful flushes to disk (appends plus compactions).
    pub flushes: u64,
    /// Successful flushes that appended to the journal.
    pub appends: u64,
    /// Successful flushes that rewrote the whole file (compactions).
    pub compactions: u64,
    /// Flushes that failed (IO error or injected write fault).
    pub write_failed: u64,
    /// Opens that degraded to [`StoreMode::InMemory`].
    pub open_failed: u64,
    /// Opens that degraded to [`StoreMode::ReadOnly`] behind a live lock.
    pub lock_busy: u64,
    /// Stale locks (dead owner) that were broken and re-taken.
    pub lock_stale: u64,
}

struct StoreEntry {
    key: u128,
    identity: u128,
    invalidation: u128,
    problem: Problem,
    x: Vec<f64>,
    value: f64,
    stats: IlpStats,
    /// Insertion sequence number: names the entry in `Inner::pending`.
    seq: u64,
    /// Framed size of the entry's solve record.
    bytes: u64,
}

/// A record waiting for the next writing flush.
enum Pending {
    /// A solve record; appended only if entry `(key, seq)` is still live.
    Solve { key: u128, seq: u64, payload: Vec<u8> },
    /// A context tombstone.
    Context(Vec<u8>),
}

struct Inner {
    entries: HashMap<u128, Vec<StoreEntry>>,
    faults: SolverFaults,
    /// Records added since the last good flush, oldest first.
    pending: Vec<Pending>,
    /// The next writing flush must rewrite the whole file.
    compact: bool,
    next_seq: u64,
    /// Length of the file as the last good flush (or the open scan) left it.
    file_bytes: u64,
    /// Framed bytes of the live entries' solve records.
    live_bytes: u64,
}

impl Inner {
    fn live_count(&self) -> usize {
        self.entries.values().map(Vec::len).sum()
    }

    fn is_live(&self, key: u128, seq: u64) -> bool {
        self.entries.get(&key).is_some_and(|b| b.iter().any(|e| e.seq == seq))
    }

    /// Adds `entry` unless a duplicate is live. Returns whether it was added.
    fn add(&mut self, entry: StoreEntry) -> bool {
        let bucket = self.entries.entry(entry.key).or_default();
        let duplicate = bucket.iter().any(|e| {
            e.identity == entry.identity
                && e.invalidation == entry.invalidation
                && same_structure(&e.problem, &entry.problem)
        });
        if duplicate {
            return false;
        }
        self.live_bytes += entry.bytes;
        bucket.push(entry);
        true
    }

    /// Drops the entries of program `identity` under any invalidation hash
    /// but `invalidation`; returns how many went.
    fn drop_stale(&mut self, identity: u128, invalidation: u128) -> u64 {
        let mut dropped = 0u64;
        let mut freed = 0u64;
        for bucket in self.entries.values_mut() {
            bucket.retain(|e| {
                let stale = e.identity == identity && e.invalidation != invalidation;
                if stale {
                    dropped += 1;
                    freed += e.bytes;
                }
                !stale
            });
        }
        if dropped > 0 {
            self.entries.retain(|_, b| !b.is_empty());
            self.live_bytes -= freed;
        }
        dropped
    }

    /// Every live entry's solve record, sorted: the compacted image.
    fn live_image(&self) -> Vec<Vec<u8>> {
        let mut payloads: Vec<Vec<u8>> =
            self.entries.values().flat_map(|b| b.iter().map(encode_entry)).collect();
        payloads.sort_unstable();
        payloads
    }
}

/// A thread-safe persistent solve store. See the crate docs for the trust
/// and crash-safety model.
pub struct Store {
    path: Option<PathBuf>,
    lock_path: Option<PathBuf>,
    mode: StoreMode,
    inner: Mutex<Inner>,
    /// Serializes whole flushes (snapshot + append or rewrite) across
    /// threads. `inner` alone is not enough: two concurrent flushes could
    /// take different snapshots and write them in the *opposite* order —
    /// an older image renamed over a newer one, or appends whose tombstones
    /// and inserts land out of order — losing entries whose acknowledgment
    /// already implied durability.
    flush_lock: Mutex<()>,
    loaded: AtomicU64,
    quarantined: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    rejected: AtomicU64,
    invalidated: AtomicU64,
    flushes: AtomicU64,
    appends: AtomicU64,
    compactions: AtomicU64,
    write_failed: AtomicU64,
    open_failed: AtomicU64,
    lock_busy: AtomicU64,
    lock_stale: AtomicU64,
}

impl Store {
    /// Opens (or creates) the store at `path`. Infallible: failures
    /// degrade the mode instead of erroring (see crate docs).
    pub fn open(path: impl AsRef<Path>) -> Store {
        Store::open_with_faults(path, SolverFaults::default())
    }

    /// [`Store::open`] with deterministic IO-fault injection (testing).
    pub fn open_with_faults(path: impl AsRef<Path>, faults: SolverFaults) -> Store {
        let path = path.as_ref().to_path_buf();
        let mut store = Store::blank(faults);
        if store.inner.get_mut().expect("store lock").faults.open_fault() {
            store.open_failed.fetch_add(1, Ordering::Relaxed);
            ipet_trace::counter("store.open_failed", 1);
            store.mode = StoreMode::InMemory;
            return store;
        }
        let lock_path = lock_path_for(&path);
        match take_lock(&lock_path) {
            LockOutcome::Acquired { broke_stale } => {
                store.mode = StoreMode::ReadWrite;
                store.lock_path = Some(lock_path);
                if broke_stale {
                    store.lock_stale.fetch_add(1, Ordering::Relaxed);
                    ipet_trace::counter("store.lock_stale", 1);
                }
            }
            LockOutcome::Busy => {
                store.mode = StoreMode::ReadOnly;
                store.lock_busy.fetch_add(1, Ordering::Relaxed);
                ipet_trace::counter("store.lock_busy", 1);
            }
            LockOutcome::Unavailable => {
                store.open_failed.fetch_add(1, Ordering::Relaxed);
                ipet_trace::counter("store.open_failed", 1);
                store.mode = StoreMode::InMemory;
                return store;
            }
        }
        store.path = Some(path.clone());
        match fs::read(&path) {
            Ok(bytes) => store.load_scan(&bytes),
            // Absent: the first writing flush creates it by compaction.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(_) => {
                // Lock taken but the file itself is unreadable: keep the
                // mode (a later flush may still succeed) with no entries.
                store.quarantined.fetch_add(1, Ordering::Relaxed);
                ipet_trace::counter("store.quarantined", 1);
            }
        }
        store
    }

    /// A store that never touches disk ([`StoreMode::InMemory`]).
    pub fn in_memory() -> Store {
        Store::blank(SolverFaults::default())
    }

    fn blank(faults: SolverFaults) -> Store {
        Store {
            path: None,
            lock_path: None,
            mode: StoreMode::InMemory,
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                faults,
                pending: Vec::new(),
                compact: true,
                next_seq: 0,
                file_bytes: 0,
                live_bytes: 0,
            }),
            flush_lock: Mutex::new(()),
            loaded: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            invalidated: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            appends: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            write_failed: AtomicU64::new(0),
            open_failed: AtomicU64::new(0),
            lock_busy: AtomicU64::new(0),
            lock_stale: AtomicU64::new(0),
        }
    }

    /// The operating mode the open resolved to.
    pub fn mode(&self) -> StoreMode {
        self.mode
    }

    /// The backing file path, when one was opened.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Cumulative statistics over the store's lifetime.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            loaded: self.loaded.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            invalidated: self.invalidated.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            appends: self.appends.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            write_failed: self.write_failed.load(Ordering::Relaxed),
            open_failed: self.open_failed.load(Ordering::Relaxed),
            lock_busy: self.lock_busy.load(Ordering::Relaxed),
            lock_stale: self.lock_stale.load(Ordering::Relaxed),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("store lock").live_count()
    }

    /// True when the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(live, file)`: the framed bytes of the live entries' records, and
    /// the length of the file as the last good flush left it. Their gap
    /// (less the header) is the journal's dead weight.
    #[cfg(test)]
    fn journal_bytes(&self) -> (u64, u64) {
        let inner = self.inner.lock().expect("store lock");
        (inner.live_bytes, inner.file_bytes)
    }

    /// Declares the current analysis context: entries for the same program
    /// identity whose invalidation hash no longer matches are dropped (the
    /// input they were computed from has changed), and a tombstone is
    /// queued so the drop reaches disk.
    pub fn note_context(&self, identity: u128, invalidation: u128) {
        let mut inner = self.inner.lock().expect("store lock");
        let dropped = inner.drop_stale(identity, invalidation);
        if dropped > 0 {
            inner.pending.push(Pending::Context(encode_context(identity, invalidation)));
            self.invalidated.fetch_add(dropped, Ordering::Relaxed);
            ipet_trace::counter("store.invalidated", dropped);
        }
    }

    /// Looks up a certified replay for `problem` under the given context,
    /// through the in-memory cache's replay gate. Anything less is a miss.
    pub fn probe(
        &self,
        key: Fingerprint,
        identity: u128,
        invalidation: u128,
        problem: &Problem,
    ) -> Option<(IlpResolution, IlpStats)> {
        let inner = self.inner.lock().expect("store lock");
        let mut rejected = false;
        let bucket = inner.entries.get(&key.0).map_or(&[][..], Vec::as_slice);
        for entry in bucket {
            if entry.identity != identity || entry.invalidation != invalidation {
                continue;
            }
            match replay_gate(&entry.problem, problem, Some((&entry.x, entry.value))) {
                Replay::Foreign => {}
                Replay::Rejected => rejected = true,
                Replay::Certified => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    ipet_trace::counter("store.hits", 1);
                    let resolution =
                        IlpResolution::Exact { x: entry.x.clone(), value: entry.value };
                    return Some((resolution, entry.stats));
                }
            }
        }
        if rejected {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            ipet_trace::counter("store.rejected", 1);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        ipet_trace::counter("store.misses", 1);
        None
    }

    /// Records a fresh solve. Only [`IlpResolution::Exact`] results are
    /// kept — nothing else carries a witness that can be re-certified on
    /// replay, so nothing else is worth persisting.
    pub fn insert(
        &self,
        key: Fingerprint,
        identity: u128,
        invalidation: u128,
        problem: &Problem,
        resolution: &IlpResolution,
        stats: IlpStats,
    ) {
        let IlpResolution::Exact { x, value } = resolution else {
            return;
        };
        let mut inner = self.inner.lock().expect("store lock");
        let seq = inner.next_seq;
        let mut entry = StoreEntry {
            key: key.0,
            identity,
            invalidation,
            problem: problem.clone(),
            x: x.clone(),
            value: *value,
            stats,
            seq,
            bytes: 0,
        };
        let payload = encode_entry(&entry);
        entry.bytes = FRAME_BYTES + payload.len() as u64;
        if inner.add(entry) {
            inner.next_seq += 1;
            inner.pending.push(Pending::Solve { key: key.0, seq, payload });
        }
    }

    /// Makes everything inserted so far durable. No-op outside
    /// [`StoreMode::ReadWrite`], and writes nothing when the store is clean
    /// (see the crate docs). A writing flush appends the waiting records —
    /// solve records of entries still live, and tombstones — sorted by
    /// payload bytes in one write plus `fdatasync`, or compacts (atomic
    /// whole-file rewrite) when one is due. Injected IO faults fire here —
    /// the N-th *writing* flush — and are reported as errors (fail) or
    /// silently persisted damage (torn / corrupt) for recovery tests; each
    /// schedules a compaction.
    ///
    /// The sort puts an append's tombstones before its solve records. That
    /// is sound: tombstones commute with each other (two for one program
    /// under different hashes drop all of its entries, in either order),
    /// every appended solve record names an entry live *now*, so no
    /// tombstone in the batch was meant to drop it, and the entries from
    /// earlier flushes see the same tombstones in any order.
    ///
    /// Concurrent flushes are serialized end to end (`flush_lock`): each
    /// snapshot reaches disk in the order it was taken, so a flush that
    /// returned `Ok` can never be undone by an older snapshot. The clean
    /// check happens under the same lock, so a clean flush returns only
    /// after any in-flight write has finished. Inserts stay concurrent —
    /// only the snapshot step briefly holds the entry lock.
    pub fn flush(&self) -> Result<(), String> {
        if self.mode != StoreMode::ReadWrite {
            return Ok(());
        }
        let path = self.path.clone().expect("ReadWrite store has a path");
        let _serialize = self.flush_lock.lock().expect("flush lock");
        let mut inner = self.inner.lock().expect("store lock");
        if inner.pending.is_empty() && !inner.compact {
            return Ok(());
        }
        // Taken at snapshot time: an insert racing the write below queues
        // for the next flush, and any failure or damage schedules a
        // compaction, which rewrites everything live.
        let pending = std::mem::take(&mut inner.pending);
        let mut records: Vec<Vec<u8>> = pending
            .into_iter()
            .filter_map(|p| match p {
                Pending::Solve { key, seq, payload } => inner.is_live(key, seq).then_some(payload),
                Pending::Context(payload) => Some(payload),
            })
            .collect();
        records.sort_unstable();
        let appended: u64 = records.iter().map(|r| FRAME_BYTES + r.len() as u64).sum();
        let header = STORE_MAGIC.len() as u64;
        let dead = (inner.file_bytes + appended).saturating_sub(header + inner.live_bytes);
        let compact = inner.compact || dead > inner.live_bytes.max(COMPACT_FLOOR_BYTES);
        inner.compact = false;
        if compact {
            records = inner.live_image();
        }
        let fault = inner.faults.write_fault();
        if matches!(fault, Some(IoFault::FailWrite)) {
            inner.compact = true;
            self.write_failed.fetch_add(1, Ordering::Relaxed);
            ipet_trace::counter("store.write_failed", 1);
            return Err(format!("{}: injected write fault", path.display()));
        }
        let mut bytes = Vec::with_capacity(256);
        if compact {
            bytes.extend_from_slice(STORE_MAGIC);
        }
        let mut last_record_start = None;
        for mut payload in records {
            last_record_start = Some(bytes.len());
            if inner.faults.record_fault() {
                inner.compact = true;
                // Flip one payload bit *after* the checksum is computed so
                // the damage is latent until the next open.
                let crc = crc32(&payload);
                let mid = payload.len() / 2;
                payload[mid] ^= 0x40;
                push_record_with_crc(&mut bytes, &payload, crc);
            } else {
                push_record(&mut bytes, &payload);
            }
        }
        if matches!(fault, Some(IoFault::TornWrite)) {
            // Persist only a prefix: the final record is cut mid-payload,
            // exactly what a crash between write() calls can leave behind.
            inner.compact = true;
            if let Some(start) = last_record_start {
                let torn = start + (bytes.len() - start) / 2;
                bytes.truncate(torn.max(start + 1));
            }
        }
        let file_bytes = inner.file_bytes;
        drop(inner);
        let written = if compact {
            write_atomic(&path, &bytes).map(|()| bytes.len() as u64)
        } else {
            append_synced(&path, &bytes, file_bytes).map(|()| file_bytes + bytes.len() as u64)
        };
        match written {
            Ok(len) => {
                self.inner.lock().expect("store lock").file_bytes = len;
                self.flushes.fetch_add(1, Ordering::Relaxed);
                ipet_trace::counter("store.flushes", 1);
                let (count, name) = if compact {
                    (&self.compactions, "store.compactions")
                } else {
                    (&self.appends, "store.appends")
                };
                count.fetch_add(1, Ordering::Relaxed);
                ipet_trace::counter(name, 1);
                Ok(())
            }
            Err(e) => {
                self.inner.lock().expect("store lock").compact = true;
                self.write_failed.fetch_add(1, Ordering::Relaxed);
                ipet_trace::counter("store.write_failed", 1);
                Err(format!("{}: {e}", path.display()))
            }
        }
    }

    /// Scans `bytes` as a store file, applying good records in file order
    /// and quarantining bad ones. Never errors: worst case is an empty
    /// store. A scan that quarantined anything leaves a compaction due, so
    /// nothing is ever appended after damage.
    fn load_scan(&mut self, bytes: &[u8]) {
        let mut quarantined = 0u64;
        let inner = self.inner.get_mut().expect("store lock");
        if bytes.len() < STORE_MAGIC.len() || &bytes[..STORE_MAGIC.len()] != STORE_MAGIC {
            // Wrong magic or version: the whole file is one quarantined
            // unit — guessing at record boundaries of an unknown format
            // would be worse than starting cold.
            self.quarantined.fetch_add(1, Ordering::Relaxed);
            ipet_trace::counter("store.quarantined", 1);
            return;
        }
        let mut pos = STORE_MAGIC.len();
        while pos < bytes.len() {
            let Some(header) = bytes.get(pos..pos + 8) else {
                // Trailing fragment shorter than a record header: a torn
                // final write. Quarantine the fragment and stop.
                quarantined += 1;
                break;
            };
            let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
            let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
            if len == 0 || len as u64 > MAX_RECORD_LEN as u64 {
                // Implausible length: framing is lost, nothing after this
                // point can be attributed to record boundaries.
                quarantined += 1;
                break;
            }
            let Some(payload) = bytes.get(pos + 8..pos + 8 + len) else {
                quarantined += 1;
                break;
            };
            pos += 8 + len;
            if crc32(payload) != crc {
                quarantined += 1;
                continue;
            }
            match payload[0] {
                TAG_SOLVE => match decode_entry(payload) {
                    Some(mut entry) => {
                        entry.seq = inner.next_seq;
                        inner.next_seq += 1;
                        inner.add(entry);
                    }
                    None => quarantined += 1,
                },
                TAG_CONTEXT => match decode_context(payload) {
                    Some((identity, invalidation)) => {
                        inner.drop_stale(identity, invalidation);
                    }
                    None => quarantined += 1,
                },
                _ => quarantined += 1,
            }
        }
        inner.file_bytes = bytes.len() as u64;
        inner.compact = quarantined > 0;
        let loaded = inner.live_count() as u64;
        self.loaded.fetch_add(loaded, Ordering::Relaxed);
        if loaded > 0 {
            ipet_trace::counter("store.loaded", loaded);
        }
        self.quarantined.fetch_add(quarantined, Ordering::Relaxed);
        if quarantined > 0 {
            ipet_trace::counter("store.quarantined", quarantined);
        }
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        if let Some(lock) = &self.lock_path {
            let _ = fs::remove_file(lock);
        }
    }
}

// ---------------------------------------------------------------------------
// Advisory lock
// ---------------------------------------------------------------------------

enum LockOutcome {
    Acquired { broke_stale: bool },
    Busy,
    Unavailable,
}

fn lock_path_for(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".lock");
    path.with_file_name(name)
}

fn try_create_lock(lock: &Path) -> std::io::Result<()> {
    let mut f = fs::OpenOptions::new().write(true).create_new(true).open(lock)?;
    f.write_all(std::process::id().to_string().as_bytes())?;
    f.sync_all()?;
    Ok(())
}

/// True when the lock file names a process that verifiably no longer
/// exists. Conservative: unparseable contents or an unreadable `/proc`
/// mean the lock is treated as live.
fn lock_is_stale(lock: &Path) -> bool {
    if !Path::new("/proc").is_dir() {
        return false;
    }
    match fs::read_to_string(lock) {
        Ok(s) => match s.trim().parse::<u32>() {
            Ok(pid) => !Path::new(&format!("/proc/{pid}")).exists(),
            Err(_) => false,
        },
        Err(_) => false,
    }
}

/// Atomically claims the right to break a stale `lock` by renaming it to a
/// per-process tombstone. Of any number of racers, exactly one rename
/// succeeds — the losers see the source vanish and return `false`. The
/// winner then re-verifies *the tombstone's* content names a dead process:
/// a bare `remove_file` here would be a TOCTOU hole (between the staleness
/// check and the removal, a racer may have broken the stale lock and
/// created a fresh live one — deleting that hands ReadWrite to two
/// processes at once). If the captured lock turns out to be live it is
/// restored via `hard_link` (same inode; `AlreadyExists` means the owner
/// already recreated it, which is just as good) and the break is abandoned.
fn break_stale_lock(lock: &Path) -> bool {
    let mut tomb_name = lock.file_name().unwrap_or_default().to_os_string();
    tomb_name.push(format!(".tomb.{}", std::process::id()));
    let tomb = lock.with_file_name(tomb_name);
    if fs::rename(lock, &tomb).is_err() {
        // Another racer claimed the break (or the holder exited cleanly).
        return false;
    }
    let dead = lock_is_stale(&tomb);
    if !dead {
        let _ = fs::hard_link(&tomb, lock);
    }
    let _ = fs::remove_file(&tomb);
    dead
}

fn take_lock(lock: &Path) -> LockOutcome {
    match try_create_lock(lock) {
        Ok(()) => LockOutcome::Acquired { broke_stale: false },
        Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
            if lock_is_stale(lock) && break_stale_lock(lock) {
                // `create_new` stays the final arbiter: whatever happened
                // between the break and here, at most one process creates
                // the new lock file.
                match try_create_lock(lock) {
                    Ok(()) => LockOutcome::Acquired { broke_stale: true },
                    Err(_) => LockOutcome::Busy,
                }
            } else {
                LockOutcome::Busy
            }
        }
        Err(_) => LockOutcome::Unavailable,
    }
}

// ---------------------------------------------------------------------------
// File writes: atomic replacement (compaction) and synced appends
// ---------------------------------------------------------------------------

fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp_name = path.file_name().unwrap_or_default().to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    let mut f = fs::File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    fs::rename(&tmp, path)?;
    // Persist the rename itself: fsync the containing directory so the
    // new directory entry survives a power cut.
    if let Some(dir) = path.parent() {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Appends `bytes` to the journal at `path` and `fdatasync`s it. The file
/// must still be `expected_len` long: anything else means the append
/// position is unknown, which fails the flush (and so compacts next).
fn append_synced(path: &Path, bytes: &[u8], expected_len: u64) -> std::io::Result<()> {
    let mut f = fs::OpenOptions::new().append(true).open(path)?;
    let len = f.metadata()?.len();
    if len != expected_len {
        return Err(std::io::Error::other(format!(
            "journal is {len} bytes, expected {expected_len}"
        )));
    }
    f.write_all(bytes)?;
    f.sync_data()
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected) — hand-rolled, table-driven
// ---------------------------------------------------------------------------

fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// CRC32 checksum (IEEE polynomial) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(crc32_table);
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Record codec
// ---------------------------------------------------------------------------

fn push_record(out: &mut Vec<u8>, payload: &[u8]) {
    push_record_with_crc(out, payload, crc32(payload));
}

fn push_record_with_crc(out: &mut Vec<u8>, payload: &[u8], crc: u32) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(payload);
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u128(out: &mut Vec<u8>, v: u128) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn encode_entry(e: &StoreEntry) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    out.push(TAG_SOLVE);
    put_u128(&mut out, e.key);
    put_u128(&mut out, e.identity);
    put_u128(&mut out, e.invalidation);
    encode_problem(&mut out, &e.problem);
    put_u64(&mut out, e.x.len() as u64);
    for &v in &e.x {
        put_f64(&mut out, v);
    }
    put_f64(&mut out, e.value);
    put_u64(&mut out, e.stats.lp_calls as u64);
    put_u64(&mut out, e.stats.nodes as u64);
    out.push(e.stats.first_relaxation_integral as u8);
    out
}

fn encode_context(identity: u128, invalidation: u128) -> Vec<u8> {
    let mut out = Vec::with_capacity(33);
    out.push(TAG_CONTEXT);
    put_u128(&mut out, identity);
    put_u128(&mut out, invalidation);
    out
}

fn decode_context(payload: &[u8]) -> Option<(u128, u128)> {
    let mut c = Cursor { buf: payload, pos: 0 };
    if c.u8()? != TAG_CONTEXT {
        return None;
    }
    let context = (c.u128()?, c.u128()?);
    c.done().then_some(context)
}

fn encode_problem(out: &mut Vec<u8>, p: &Problem) {
    out.push(match p.sense {
        Sense::Maximize => 0,
        Sense::Minimize => 1,
    });
    put_u64(out, p.objective.len() as u64);
    for &c in &p.objective {
        put_f64(out, c);
    }
    for &i in &p.integer {
        out.push(i as u8);
    }
    for name in p.names.iter() {
        put_str(out, name);
    }
    put_u64(out, p.constraints.len() as u64);
    for con in &p.constraints {
        out.push(match con.relation {
            Relation::Le => 0,
            Relation::Ge => 1,
            Relation::Eq => 2,
        });
        put_f64(out, con.rhs);
        put_u64(out, con.terms.len() as u64);
        for &(v, c) in &con.terms {
            put_u64(out, v.0 as u64);
            put_f64(out, c);
        }
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let slice = self.buf.get(self.pos..self.pos.checked_add(n)?)?;
        self.pos += n;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn u128(&mut self) -> Option<u128> {
        Some(u128::from_le_bytes(self.take(16)?.try_into().ok()?))
    }

    fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }

    /// A length that must still fit in the remaining buffer (guards
    /// against decode-time allocation bombs from corrupt lengths).
    fn len(&mut self) -> Option<usize> {
        let n = usize::try_from(self.u64()?).ok()?;
        if n > self.buf.len().saturating_sub(self.pos) {
            return None;
        }
        Some(n)
    }

    fn str(&mut self) -> Option<String> {
        let n = self.len()?;
        String::from_utf8(self.take(n)?.to_vec()).ok()
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn decode_entry(payload: &[u8]) -> Option<StoreEntry> {
    let mut c = Cursor { buf: payload, pos: 0 };
    if c.u8()? != TAG_SOLVE {
        return None;
    }
    // The stored key is not trusted: the bucket key is re-derived from the
    // record's own problem below.
    let _stored_key = c.u128()?;
    let identity = c.u128()?;
    let invalidation = c.u128()?;
    let problem = decode_problem(&mut c)?;
    let xn = c.len()?;
    let mut x = Vec::with_capacity(xn);
    for _ in 0..xn {
        x.push(c.f64()?);
    }
    let value = c.f64()?;
    let lp_calls = usize::try_from(c.u64()?).ok()?;
    let nodes = usize::try_from(c.u64()?).ok()?;
    let first = match c.u8()? {
        0 => false,
        1 => true,
        _ => return None,
    };
    if !c.done() {
        return None;
    }
    if x.len() != problem.num_vars() {
        return None;
    }
    Some(StoreEntry {
        key: fingerprint(&problem).0,
        identity,
        invalidation,
        problem,
        x,
        value,
        stats: IlpStats { lp_calls, nodes, first_relaxation_integral: first },
        seq: 0,
        bytes: FRAME_BYTES + payload.len() as u64,
    })
}

fn decode_problem(c: &mut Cursor<'_>) -> Option<Problem> {
    let sense = match c.u8()? {
        0 => Sense::Maximize,
        1 => Sense::Minimize,
        _ => return None,
    };
    let nvars = c.len()?;
    let mut objective = Vec::with_capacity(nvars);
    for _ in 0..nvars {
        objective.push(c.f64()?);
    }
    let mut integer = Vec::with_capacity(nvars);
    for _ in 0..nvars {
        integer.push(match c.u8()? {
            0 => false,
            1 => true,
            _ => return None,
        });
    }
    let names = (0..nvars).map(|_| c.str()).collect::<Option<_>>()?;
    let ncons = c.len()?;
    let mut constraints = Vec::with_capacity(ncons);
    for _ in 0..ncons {
        let relation = match c.u8()? {
            0 => Relation::Le,
            1 => Relation::Ge,
            2 => Relation::Eq,
            _ => return None,
        };
        let rhs = c.f64()?;
        let nterms = c.len()?;
        let mut terms = Vec::with_capacity(nterms);
        for _ in 0..nterms {
            let v = usize::try_from(c.u64()?).ok()?;
            if v >= nvars {
                return None;
            }
            terms.push((ipet_lp::VarId(v), c.f64()?));
        }
        constraints.push(ipet_lp::Constraint { terms, relation, rhs });
    }
    Some(Problem { sense, objective, constraints, integer, names })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipet_lp::ProblemBuilder;
    use std::sync::atomic::AtomicUsize;

    /// A fresh scratch directory per test (no tempfile crate in-tree).
    fn scratch(tag: &str) -> PathBuf {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("ipet-store-test-{}-{tag}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir scratch");
        dir
    }

    fn toy() -> Problem {
        let mut b = ProblemBuilder::new(Sense::Maximize);
        let x = b.add_var("x", true);
        let y = b.add_var("y", true);
        b.objective(x, 3.0);
        b.objective(y, 2.0);
        b.constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
        b.constraint(vec![(x, 1.0)], Relation::Le, 2.0);
        b.build()
    }

    fn toy_exact() -> IlpResolution {
        IlpResolution::Exact { x: vec![2.0, 2.0], value: 10.0 }
    }

    fn key_of(p: &Problem) -> Fingerprint {
        ipet_lp::fingerprint(p)
    }

    /// The inode behind `path`: a rename-over replaces it.
    #[cfg(unix)]
    fn inode(path: &Path) -> u64 {
        use std::os::unix::fs::MetadataExt as _;
        fs::metadata(path).expect("stat").ino()
    }

    #[test]
    fn round_trip_replays_bit_identical() {
        let dir = scratch("roundtrip");
        let path = dir.join("s.store");
        let p = toy();
        let key = key_of(&p);
        {
            let store = Store::open(&path);
            assert_eq!(store.mode(), StoreMode::ReadWrite);
            store.insert(key, 1, 2, &p, &toy_exact(), IlpStats::default());
            store.flush().expect("flush");
        }
        let store = Store::open(&path);
        assert_eq!(store.stats().loaded, 1);
        assert_eq!(store.stats().quarantined, 0);
        let (res, _) = store.probe(key, 1, 2, &p).expect("replay");
        assert_eq!(res, toy_exact());
        assert_eq!(store.stats().hits, 1);
    }

    #[test]
    fn wrong_context_is_not_replayed() {
        let dir = scratch("ctx");
        let path = dir.join("s.store");
        let p = toy();
        let key = key_of(&p);
        let store = Store::open(&path);
        store.insert(key, 1, 2, &p, &toy_exact(), IlpStats::default());
        // Same identity, different invalidation hash: the source changed.
        assert!(store.probe(key, 1, 3, &p).is_none());
        // Different identity entirely: another program.
        assert!(store.probe(key, 9, 2, &p).is_none());
        assert_eq!(store.stats().hits, 0);
    }

    #[test]
    fn note_context_drops_stale_entries() {
        let dir = scratch("invalidate");
        let path = dir.join("s.store");
        let p = toy();
        let key = key_of(&p);
        let store = Store::open(&path);
        store.insert(key, 1, 2, &p, &toy_exact(), IlpStats::default());
        store.note_context(1, 2);
        assert_eq!(store.len(), 1, "matching context keeps the entry");
        store.note_context(1, 99);
        assert_eq!(store.len(), 0, "changed invalidation hash drops it");
        assert_eq!(store.stats().invalidated, 1);
    }

    #[test]
    fn corrupt_witness_on_disk_costs_a_solve_never_a_bound() {
        let dir = scratch("badwitness");
        let path = dir.join("s.store");
        let p = toy();
        let key = key_of(&p);
        let store = Store::open(&path);
        // Witness violates x <= 2; it decodes fine but must not certify.
        let bad = IlpResolution::Exact { x: vec![4.0, 0.0], value: 12.0 };
        store.insert(key, 1, 2, &p, &bad, IlpStats::default());
        assert!(store.probe(key, 1, 2, &p).is_none());
        assert_eq!(store.stats().rejected, 1);
    }

    #[test]
    fn a_record_under_a_foreign_key_re_keys_on_open() {
        // A file written under another key scheme: the record's key is not
        // its problem's fingerprint. Opening re-derives it, so the record
        // replays under the current key.
        let dir = scratch("rekey");
        let path = dir.join("s.store");
        let p = toy();
        {
            let store = Store::open(&path);
            store.insert(Fingerprint(7), 1, 2, &p, &toy_exact(), IlpStats::default());
            store.flush().expect("flush");
        }
        let store = Store::open(&path);
        assert_eq!((store.stats().loaded, store.stats().quarantined), (1, 0));
        let (res, _) = store.probe(key_of(&p), 1, 2, &p).expect("replay under the derived key");
        assert_eq!(res, toy_exact());
        assert!(store.probe(Fingerprint(7), 1, 2, &p).is_none());
    }

    #[test]
    fn non_exact_resolutions_are_not_persisted() {
        let dir = scratch("nonexact");
        let store = Store::open(dir.join("s.store"));
        let p = toy();
        store.insert(
            key_of(&p),
            1,
            2,
            &p,
            &IlpResolution::Relaxed { bound: 11.0, incumbent: None },
            IlpStats::default(),
        );
        assert!(store.is_empty());
    }

    #[test]
    fn bit_flip_quarantines_the_record() {
        let dir = scratch("bitflip");
        let path = dir.join("s.store");
        let p = toy();
        let key = key_of(&p);
        {
            let store = Store::open(&path);
            store.insert(key, 1, 2, &p, &toy_exact(), IlpStats::default());
            store.flush().expect("flush");
        }
        let mut bytes = fs::read(&path).expect("read back");
        let mid = STORE_MAGIC.len() + 8 + (bytes.len() - STORE_MAGIC.len() - 8) / 2;
        bytes[mid] ^= 0x01;
        fs::write(&path, &bytes).expect("rewrite");
        let store = Store::open(&path);
        assert_eq!(store.stats().loaded, 0);
        assert_eq!(store.stats().quarantined, 1);
        assert!(store.probe(key, 1, 2, &p).is_none());
    }

    #[test]
    fn truncated_file_quarantines_only_the_tail() {
        let dir = scratch("truncate");
        let path = dir.join("s.store");
        let p = toy();
        let q = {
            let mut b = ProblemBuilder::new(Sense::Minimize);
            let x = b.add_var("x", true);
            b.objective(x, 1.0);
            b.constraint(vec![(x, 1.0)], Relation::Ge, 3.0);
            b.build()
        };
        {
            let store = Store::open(&path);
            store.insert(key_of(&p), 1, 2, &p, &toy_exact(), IlpStats::default());
            store.insert(
                key_of(&q),
                1,
                2,
                &q,
                &IlpResolution::Exact { x: vec![3.0], value: 3.0 },
                IlpStats::default(),
            );
            store.flush().expect("flush");
        }
        let bytes = fs::read(&path).expect("read back");
        fs::write(&path, &bytes[..bytes.len() - 5]).expect("truncate");
        let store = Store::open(&path);
        assert_eq!(store.stats().loaded, 1, "first record survives");
        assert_eq!(store.stats().quarantined, 1, "torn tail is quarantined");
    }

    #[test]
    fn wrong_magic_quarantines_the_whole_file() {
        let dir = scratch("magic");
        let path = dir.join("s.store");
        fs::write(&path, b"ipet-store-v9\0\0\0junkjunkjunk").expect("write");
        let store = Store::open(&path);
        assert_eq!(store.stats().loaded, 0);
        assert_eq!(store.stats().quarantined, 1);
        assert_eq!(store.mode(), StoreMode::ReadWrite, "still usable fresh");
    }

    #[test]
    fn a_v1_file_is_quarantined_wholesale_so_a_stale_tie_never_replays() {
        // max x + y st x + y <= 5, x <= 4: the whole edge from (0, 5) to
        // (4, 1) is optimal, and (0, 5) is the canonical witness. A file
        // written before canonical optima may hold (4, 1), which certifies.
        let mut b = ProblemBuilder::new(Sense::Maximize);
        let x = b.add_var("x", true);
        let y = b.add_var("y", true);
        b.objective(x, 1.0);
        b.objective(y, 1.0);
        b.constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 5.0);
        b.constraint(vec![(x, 1.0)], Relation::Le, 4.0);
        let p = b.build();
        let key = key_of(&p);
        let stale = IlpResolution::Exact { x: vec![4.0, 1.0], value: 5.0 };
        let dir = scratch("v1");
        let path = dir.join("s.store");
        {
            let store = Store::open(&path);
            store.insert(key, 1, 2, &p, &stale, IlpStats::default());
            store.flush().expect("flush");
        }
        // Under the current header the stale witness would replay.
        let replayed = Store::open(&path).probe(key, 1, 2, &p).map(|(res, _)| res);
        assert_eq!(replayed, Some(stale));

        let mut bytes = fs::read(&path).expect("read");
        bytes[..STORE_MAGIC.len()].copy_from_slice(b"ipet-store-v1\0\0\0");
        fs::write(&path, &bytes).expect("write v1 header");
        let store = Store::open(&path);
        assert_eq!(store.stats().loaded, 0);
        assert_eq!(store.stats().quarantined, 1, "one quarantine for the whole file");
        assert!(store.probe(key, 1, 2, &p).is_none());
        let (solved, _) = ipet_lp::solve_ilp_budgeted(
            &p,
            &ipet_lp::SolveBudget::unlimited(),
            &ipet_lp::BudgetMeter::new(),
            &mut SolverFaults::none(),
        );
        assert_eq!(solved, IlpResolution::Exact { x: vec![0.0, 5.0], value: 5.0 });
    }

    #[test]
    fn live_lock_degrades_to_read_only() {
        let dir = scratch("lock");
        let path = dir.join("s.store");
        let first = Store::open(&path);
        assert_eq!(first.mode(), StoreMode::ReadWrite);
        let second = Store::open(&path);
        assert_eq!(second.mode(), StoreMode::ReadOnly);
        assert_eq!(second.stats().lock_busy, 1);
        // Read-only stores still cache in memory; flush is a no-op.
        let p = toy();
        second.insert(key_of(&p), 1, 2, &p, &toy_exact(), IlpStats::default());
        second.flush().expect("no-op flush");
        assert!(!path.exists(), "read-only store must not write the file");
        drop(first);
        let third = Store::open(&path);
        assert_eq!(third.mode(), StoreMode::ReadWrite, "lock released on drop");
    }

    #[test]
    fn stale_lock_is_broken() {
        let dir = scratch("stale");
        let path = dir.join("s.store");
        // A PID that cannot be running: pid_max on Linux is < 2^22 by
        // default and u32::MAX is far beyond any configured value.
        fs::write(lock_path_for(&path), format!("{}", u32::MAX)).expect("plant lock");
        let store = Store::open(&path);
        if Path::new("/proc").is_dir() {
            assert_eq!(store.mode(), StoreMode::ReadWrite);
            assert_eq!(store.stats().lock_stale, 1);
        } else {
            assert_eq!(store.mode(), StoreMode::ReadOnly);
        }
    }

    #[test]
    fn breaking_a_live_lock_restores_it_untouched() {
        // `break_stale_lock` is only reached after a staleness check, but
        // the check is racy by nature: the function must detect that the
        // lock it captured is in fact live, put it back, and refuse.
        if !Path::new("/proc").is_dir() {
            return;
        }
        let dir = scratch("liveclaim");
        let lock = lock_path_for(&dir.join("s.store"));
        let my_pid = std::process::id().to_string();
        fs::write(&lock, &my_pid).expect("plant live lock");
        assert!(!break_stale_lock(&lock), "a live lock must not be broken");
        assert_eq!(fs::read_to_string(&lock).expect("restored"), my_pid);
        assert!(
            !dir.read_dir()
                .unwrap()
                .any(|e| { e.unwrap().file_name().to_string_lossy().contains(".tomb.") }),
            "no tombstone may linger"
        );
    }

    #[test]
    fn breaking_a_dead_lock_claims_and_removes_it() {
        if !Path::new("/proc").is_dir() {
            return;
        }
        let dir = scratch("deadclaim");
        let lock = lock_path_for(&dir.join("s.store"));
        fs::write(&lock, format!("{}", u32::MAX)).expect("plant dead lock");
        assert!(break_stale_lock(&lock));
        assert!(!lock.exists(), "broken lock must be gone");
        // A second breaker finds nothing to claim.
        assert!(!break_stale_lock(&lock));
    }

    #[test]
    fn concurrent_flushes_and_inserts_lose_nothing_acknowledged() {
        // Hammer one store with interleaved inserts and flushes from many
        // threads; every entry inserted before the final flush must be on
        // disk afterwards. Distinct problems come from distinct rhs values.
        let dir = scratch("concflush");
        let path = dir.join("s.store");
        let store = Store::open(&path);
        assert_eq!(store.mode(), StoreMode::ReadWrite);
        let threads = 8usize;
        let per_thread = 12usize;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let store = &store;
                scope.spawn(move || {
                    for i in 0..per_thread {
                        let mut b = ProblemBuilder::new(Sense::Maximize);
                        let x = b.add_var("x", true);
                        b.objective(x, 1.0);
                        let rhs = (t * per_thread + i) as f64;
                        b.constraint(vec![(x, 1.0)], Relation::Le, rhs);
                        let p = b.build();
                        let res = IlpResolution::Exact { x: vec![rhs], value: rhs };
                        store.insert(key_of(&p), 7, 7, &p, &res, IlpStats::default());
                        store.flush().expect("flush");
                    }
                });
            }
        });
        store.flush().expect("final flush");
        assert_eq!(store.len(), threads * per_thread);
        drop(store);
        let reopened = Store::open(&path);
        assert_eq!(reopened.stats().quarantined, 0, "no torn or corrupt records");
        assert_eq!(
            reopened.stats().loaded,
            (threads * per_thread) as u64,
            "every acknowledged entry must survive concurrent flushing"
        );
    }

    #[test]
    fn missing_directory_degrades_to_in_memory() {
        let dir = scratch("nodir");
        let path = dir.join("no").join("such").join("dir").join("s.store");
        let store = Store::open(&path);
        assert_eq!(store.mode(), StoreMode::InMemory);
        assert_eq!(store.stats().open_failed, 1);
        let p = toy();
        store.insert(key_of(&p), 1, 2, &p, &toy_exact(), IlpStats::default());
        assert!(store.probe(key_of(&p), 1, 2, &p).is_some(), "still caches");
        store.flush().expect("no-op flush");
    }

    #[test]
    fn injected_open_fault_degrades_to_in_memory() {
        let dir = scratch("openfault");
        let store = Store::open_with_faults(dir.join("s.store"), SolverFaults::fail_open());
        assert_eq!(store.mode(), StoreMode::InMemory);
        assert_eq!(store.stats().open_failed, 1);
    }

    #[test]
    fn injected_write_fault_fails_the_flush_and_leaves_no_file() {
        let dir = scratch("writefault");
        let path = dir.join("s.store");
        let store = Store::open_with_faults(&path, SolverFaults::fail_write_at(0));
        let p = toy();
        store.insert(key_of(&p), 1, 2, &p, &toy_exact(), IlpStats::default());
        assert!(store.flush().is_err());
        assert_eq!(store.stats().write_failed, 1);
        assert!(!path.exists(), "failed flush must not leave bytes behind");
        // The fault fires once; the retry (next flush index) succeeds.
        store.flush().expect("second flush");
        assert!(path.exists());
    }

    #[test]
    #[cfg(unix)]
    fn clean_flush_writes_nothing() {
        let dir = scratch("clean");
        let path = dir.join("s.store");
        let store = Store::open(&path);
        let p = toy();
        store.insert(key_of(&p), 1, 2, &p, &toy_exact(), IlpStats::default());
        store.flush().expect("first flush");
        let bytes = fs::read(&path).expect("read");
        let ino = inode(&path);
        assert_eq!(store.stats().flushes, 1);

        // Nothing changed: no rewrite, not even of identical bytes.
        store.flush().expect("clean flush");
        store.note_context(1, 2);
        store.insert(key_of(&p), 1, 2, &p, &toy_exact(), IlpStats::default());
        store.flush().expect("still clean after a no-op context and a duplicate");
        assert_eq!(store.stats().flushes, 1);
        assert_eq!(inode(&path), ino, "a clean flush must not replace the file");
        assert_eq!(fs::read(&path).expect("read"), bytes);

        // An invalidating context change makes it dirty again.
        store.note_context(1, 3);
        store.flush().expect("dirty flush");
        assert_eq!(store.stats().flushes, 2);
        drop(store);
        assert_eq!(Store::open(&path).stats().loaded, 0, "the drop reached disk");
    }

    #[test]
    fn first_flush_rewrites_a_quarantined_file() {
        let dir = scratch("selfrepair");
        let path = dir.join("s.store");
        fs::write(&path, b"ipet-store-v9\0\0\0junk").expect("write");
        {
            let store = Store::open(&path);
            assert_eq!(store.stats().quarantined, 1);
            store.flush().expect("flush");
            assert_eq!(store.stats().flushes, 1, "a fresh store starts dirty");
        }
        let store = Store::open(&path);
        assert_eq!(store.stats().quarantined, 0, "the bad file was replaced");
    }

    #[test]
    fn failed_write_leaves_the_store_dirty() {
        let dir = scratch("failrepair");
        let path = dir.join("s.store");
        let p = toy();
        let q = {
            let mut b = ProblemBuilder::new(Sense::Minimize);
            let x = b.add_var("x", true);
            b.objective(x, 1.0);
            b.constraint(vec![(x, 1.0)], Relation::Ge, 3.0);
            b.build()
        };
        {
            let store = Store::open_with_faults(&path, SolverFaults::fail_write_at(1));
            store.insert(key_of(&p), 1, 2, &p, &toy_exact(), IlpStats::default());
            store.flush().expect("writing flush 0");
            let qres = IlpResolution::Exact { x: vec![3.0], value: 3.0 };
            store.insert(key_of(&q), 1, 2, &q, &qres, IlpStats::default());
            assert!(store.flush().is_err(), "writing flush 1 fails");
            // No new insert: the retry must still write.
            store.flush().expect("retry");
            assert_eq!(store.stats().flushes, 2);
        }
        let store = Store::open(&path);
        assert_eq!(store.stats().loaded, 2, "the retry wrote both entries");
    }

    #[test]
    fn torn_write_is_repaired_by_the_next_flush() {
        let dir = scratch("tornrepair");
        let path = dir.join("s.store");
        let p = toy();
        {
            let store = Store::open_with_faults(&path, SolverFaults::torn_write_at(0));
            store.insert(key_of(&p), 1, 2, &p, &toy_exact(), IlpStats::default());
            store.flush().expect("torn flush still renames");
            store.flush().expect("repairing flush");
            assert_eq!(store.stats().flushes, 2);
        }
        let store = Store::open(&path);
        assert_eq!(store.stats().loaded, 1);
        assert_eq!(store.stats().quarantined, 0);
    }

    #[test]
    fn torn_write_is_quarantined_on_reopen() {
        let dir = scratch("torn");
        let path = dir.join("s.store");
        let p = toy();
        {
            let store = Store::open_with_faults(&path, SolverFaults::torn_write_at(0));
            store.insert(key_of(&p), 1, 2, &p, &toy_exact(), IlpStats::default());
            store.flush().expect("torn flush still renames");
        }
        let store = Store::open(&path);
        assert_eq!(store.stats().loaded, 0);
        assert_eq!(store.stats().quarantined, 1);
        assert!(store.probe(key_of(&p), 1, 2, &p).is_none());
    }

    #[test]
    fn corrupt_record_fault_is_latent_until_reopen() {
        let dir = scratch("corruptrec");
        let path = dir.join("s.store");
        let p = toy();
        {
            let store = Store::open_with_faults(&path, SolverFaults::corrupt_record_at(0));
            store.insert(key_of(&p), 1, 2, &p, &toy_exact(), IlpStats::default());
            store.flush().expect("flush succeeds; damage is silent");
        }
        let store = Store::open(&path);
        assert_eq!(store.stats().loaded, 0);
        assert_eq!(store.stats().quarantined, 1, "CRC catches the flip");
    }

    #[test]
    fn flush_bytes_are_deterministic() {
        let dir = scratch("determinism");
        let p = toy();
        let q = {
            let mut b = ProblemBuilder::new(Sense::Minimize);
            let x = b.add_var("x", true);
            b.objective(x, 1.0);
            b.constraint(vec![(x, 1.0)], Relation::Ge, 3.0);
            b.build()
        };
        let qres = IlpResolution::Exact { x: vec![3.0], value: 3.0 };
        let path_a = dir.join("a.store");
        let path_b = dir.join("b.store");
        {
            let a = Store::open(&path_a);
            a.insert(key_of(&p), 1, 2, &p, &toy_exact(), IlpStats::default());
            a.insert(key_of(&q), 1, 2, &q, &qres, IlpStats::default());
            a.flush().expect("flush a");
        }
        {
            let b = Store::open(&path_b);
            // Opposite insertion order must yield identical bytes.
            b.insert(key_of(&q), 1, 2, &q, &qres, IlpStats::default());
            b.insert(key_of(&p), 1, 2, &p, &toy_exact(), IlpStats::default());
            b.flush().expect("flush b");
        }
        assert_eq!(
            fs::read(&path_a).expect("a"),
            fs::read(&path_b).expect("b"),
            "store bytes must be order-independent"
        );
    }

    #[test]
    fn duplicate_insert_is_coalesced() {
        let dir = scratch("dup");
        let store = Store::open(dir.join("s.store"));
        let p = toy();
        store.insert(key_of(&p), 1, 2, &p, &toy_exact(), IlpStats::default());
        store.insert(key_of(&p), 1, 2, &p, &toy_exact(), IlpStats::default());
        assert_eq!(store.len(), 1);
    }

    /// A problem of `n` variables whose solve record is several KB, so
    /// journal sizes reach the compaction floor in a test's run.
    fn wide(n: usize, rhs: f64) -> Problem {
        let mut b = ProblemBuilder::new(Sense::Maximize);
        let vars: Vec<_> = (0..n).map(|i| b.add_var(format!("x{i}"), true)).collect();
        for (i, &v) in vars.iter().enumerate() {
            b.objective(v, 1.0);
            b.constraint(vec![(v, 1.0), (vars[(i + 1) % n], 1.0)], Relation::Le, rhs);
        }
        b.build()
    }

    fn zeros(p: &Problem) -> IlpResolution {
        IlpResolution::Exact { x: vec![0.0; p.num_vars()], value: 0.0 }
    }

    #[test]
    #[cfg(unix)]
    fn writing_flushes_append_without_replacing_the_file() {
        let dir = scratch("append");
        let path = dir.join("s.store");
        let (p, q) = (toy(), wide(4, 3.0));
        let store = Store::open(&path);
        store.insert(key_of(&p), 1, 2, &p, &toy_exact(), IlpStats::default());
        store.flush().expect("first flush creates the file");
        let before = fs::read(&path).expect("read");
        let ino = inode(&path);
        store.insert(key_of(&q), 1, 2, &q, &zeros(&q), IlpStats::default());
        store.flush().expect("append");
        let after = fs::read(&path).expect("read");
        assert_eq!(inode(&path), ino, "an append must not replace the file");
        assert_eq!(&after[..before.len()], &before[..], "an append keeps every byte before it");
        let s = store.stats();
        assert_eq!((s.flushes, s.compactions, s.appends), (2, 1, 1));
        assert_eq!(store.journal_bytes().1, after.len() as u64);
        drop(store);
        assert_eq!(Store::open(&path).stats().loaded, 2);
    }

    #[test]
    #[cfg(unix)]
    fn a_v2_image_loads_unchanged_and_grows_by_appends() {
        // The version-2 whole-file image: the header, then sorted solve
        // records and nothing else.
        let dir = scratch("v2image");
        let path = dir.join("s.store");
        let (p, q, r) = (toy(), wide(3, 2.0), wide(5, 2.0));
        let mut payloads: Vec<Vec<u8>> = [(&p, toy_exact()), (&q, zeros(&q))]
            .into_iter()
            .map(|(prob, res)| {
                let IlpResolution::Exact { x, value } = res else { unreachable!() };
                let e = StoreEntry {
                    key: key_of(prob).0,
                    identity: 1,
                    invalidation: 2,
                    problem: prob.clone(),
                    x,
                    value,
                    stats: IlpStats::default(),
                    seq: 0,
                    bytes: 0,
                };
                encode_entry(&e)
            })
            .collect();
        payloads.sort();
        let mut image = STORE_MAGIC.to_vec();
        for payload in &payloads {
            push_record(&mut image, payload);
        }
        fs::write(&path, &image).expect("write v2 image");
        let ino = inode(&path);

        let store = Store::open(&path);
        assert_eq!((store.stats().loaded, store.stats().quarantined), (2, 0));
        assert!(store.probe(key_of(&p), 1, 2, &p).is_some(), "its entries replay");
        store.flush().expect("clean flush");
        assert_eq!(store.stats().flushes, 0, "a clean image is not rewritten");
        store.insert(key_of(&r), 1, 2, &r, &zeros(&r), IlpStats::default());
        store.flush().expect("append");
        assert_eq!((store.stats().appends, store.stats().compactions), (1, 0));
        assert_eq!(inode(&path), ino);
        let grown = fs::read(&path).expect("read");
        assert_eq!(&grown[..image.len()], &image[..], "the v2 image is left as it was");
        drop(store);
        assert_eq!(Store::open(&path).stats().loaded, 3);
    }

    #[test]
    fn tombstones_replay_in_file_order() {
        let dir = scratch("tombstones");
        let path = dir.join("s.store");
        let (p, q) = (toy(), wide(3, 2.0));
        {
            let store = Store::open(&path);
            store.insert(key_of(&p), 1, 2, &p, &toy_exact(), IlpStats::default());
            store.insert(key_of(&q), 5, 6, &q, &zeros(&q), IlpStats::default());
            store.flush().expect("flush");
            // Drop p, then re-insert it under the new hash in the same
            // append, and q under the old one (a request still running on
            // the previous input): the tombstone must take neither.
            store.note_context(1, 3);
            store.insert(key_of(&p), 1, 3, &p, &toy_exact(), IlpStats::default());
            store.insert(key_of(&q), 1, 2, &q, &zeros(&q), IlpStats::default());
            store.flush().expect("append");
            assert_eq!(store.stats().appends, 1);
        }
        let store = Store::open(&path);
        assert_eq!(store.stats().loaded, 3);
        assert!(store.probe(key_of(&q), 1, 2, &q).is_some(), "inserted after the tombstone");
        assert_eq!(store.stats().invalidated, 0, "a replayed tombstone is not a new invalidation");
        assert!(store.probe(key_of(&p), 1, 2, &p).is_none(), "the dropped entry stays dropped");
        assert!(store.probe(key_of(&p), 1, 3, &p).is_some());
        assert!(store.probe(key_of(&q), 5, 6, &q).is_some(), "other programs are untouched");
    }

    #[test]
    fn a_torn_append_is_quarantined_on_reopen_and_the_next_flush_compacts() {
        let dir = scratch("tornappend");
        let path = dir.join("s.store");
        let (p, q) = (toy(), wide(4, 3.0));
        {
            // Writing flush 0 creates the file; flush 1, an append, tears.
            let store = Store::open_with_faults(&path, SolverFaults::torn_write_at(1));
            store.insert(key_of(&p), 1, 2, &p, &toy_exact(), IlpStats::default());
            store.flush().expect("flush 0");
            store.insert(key_of(&q), 1, 2, &q, &zeros(&q), IlpStats::default());
            store.flush().expect("a torn append still reports success");
            assert_eq!(store.stats().appends, 1);
        }
        {
            let store = Store::open(&path);
            assert_eq!((store.stats().loaded, store.stats().quarantined), (1, 1));
            // Nothing new was inserted, yet the flush must write: it never
            // appends after a torn tail.
            store.flush().expect("repairing flush");
            assert_eq!((store.stats().compactions, store.stats().appends), (1, 0));
        }
        let store = Store::open(&path);
        assert_eq!((store.stats().loaded, store.stats().quarantined), (1, 0));
    }

    #[test]
    fn a_failed_append_compacts_on_the_next_flush() {
        let dir = scratch("failappend");
        let path = dir.join("s.store");
        let (p, q) = (toy(), wide(4, 3.0));
        let store = Store::open_with_faults(&path, SolverFaults::fail_write_at(1));
        store.insert(key_of(&p), 1, 2, &p, &toy_exact(), IlpStats::default());
        store.flush().expect("flush 0");
        store.insert(key_of(&q), 1, 2, &q, &zeros(&q), IlpStats::default());
        assert!(store.flush().is_err());
        store.flush().expect("retry");
        assert_eq!((store.stats().compactions, store.stats().appends), (2, 0));
        drop(store);
        assert_eq!(Store::open(&path).stats().loaded, 2);
    }

    #[test]
    fn the_journal_stays_within_twice_live_plus_the_floor_over_1000_edit_cycles() {
        // A serve daemon's edit loop: each cycle an edit retires the
        // program's entries and adds its own, then a replay of the
        // unedited program retires the edit's. A few programs stay live.
        let dir = scratch("bounded");
        let path = dir.join("s.store");
        let store = Store::open(&path);
        for id in 10..14u128 {
            let p = wide(8 + id as usize, 1.0);
            store.insert(key_of(&p), id, 0, &p, &zeros(&p), IlpStats::default());
        }
        let edit = wide(200, 9.0);
        let header = STORE_MAGIC.len() as u64;
        for cycle in 0..1000u128 {
            store.note_context(1, 1000 + cycle);
            let e = wide(200, cycle as f64);
            store.insert(key_of(&e), 1, 1000 + cycle, &e, &zeros(&e), IlpStats::default());
            store.insert(key_of(&edit), 1, 1000 + cycle, &edit, &zeros(&edit), IlpStats::default());
            store.flush().expect("edit flush");
            store.note_context(1, 0);
            store.flush().expect("replay flush");
            let (live, file) = store.journal_bytes();
            assert_eq!(fs::metadata(&path).expect("stat").len(), file);
            assert!(
                file <= header + 2 * live + COMPACT_FLOOR_BYTES,
                "cycle {cycle}: {file} file bytes for {live} live"
            );
        }
        let s = store.stats();
        assert!(s.compactions > 1, "the cycles outgrew the floor");
        assert!(
            s.compactions * 20 < s.flushes,
            "compactions are {} of {} writing flushes",
            s.compactions,
            s.flushes
        );
        let live = store.len();
        drop(store);
        assert_eq!(Store::open(&path).stats().loaded, live as u64);
    }

    #[test]
    fn crc32_known_vector() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
