//! # ipet-store
//!
//! The solve pool's replay tier: a bounded, content-addressed map from ILP
//! problems to their solves, optionally backed by a crash-safe journal on
//! disk. Every `SolvePool` owns one, in memory ([`Store::in_memory`]);
//! `cinderella analyze --store` and `cinderella serve --store` open one on
//! a file ([`Store::open`]) instead, so a second process — or a
//! long-running daemon — replays certified solves across *process*
//! boundaries, not just across batches within one process.
//!
//! ## Content addressing
//!
//! An entry is a problem, its resolution and the statistics of the solve
//! that produced it, filed under the problem's [`Fingerprint`]. The key is
//! only the index: a replay passes [`ipet_audit::replay_gate`] —
//! structural equality with the probe problem ([`ipet_lp::same_structure`]),
//! then exact-arithmetic re-certification of the stored witness. The
//! problem is all an answer depends on, so nothing else scopes an entry: a
//! changed loop bound changes the problem and misses, and going back to
//! the old bound replays the old entry. A witness that fails
//! re-certification (`audit.cache.rejected`) costs a fresh solve, which
//! then replaces the entry; a flipped bit anywhere can cost a cold solve,
//! never a wrong bound.
//!
//! Every resolution is kept except the budget-degraded ones (`Relaxed`,
//! `Exhausted`): they reflect the budget they ran under, which the key
//! does not cover. Only `Exact` resolutions reach the disk — nothing else
//! carries a witness that another process can re-certify.
//!
//! ## Bounded: LRU by last use
//!
//! A store holds at most [`SOLVE_CACHE_CAPACITY`] entries. An insert
//! beyond it evicts the entry whose last insert or hit is oldest
//! (`pool.cache.evicted`). Eviction can cost a re-solve, never an answer:
//! every replay is re-certified, and optima are canonical, so a re-solve
//! returns the evicted answer bit for bit. The pool probes and inserts
//! serially in its batch driver, so which entry goes is as deterministic
//! as the hit and miss counts. An evicted entry's record stays in the
//! journal as dead bytes until the next compaction.
//!
//! ## File format (version 4)
//!
//! The file is the 16-byte [`STORE_MAGIC`] header followed by records
//! `[u32 len][u32 crc32][payload]` (little-endian; the CRC covers the
//! payload). A payload is one solved problem, numbers only: its sense
//! (`u8`), variable count `n` (`u64`), `n` objective coefficients (`f64`),
//! `n` integrality flags (`u8`), row count (`u64`) and each row as
//! relation (`u8`), right-hand side (`f64`), term count (`u64`) and terms
//! (`u64` variable, `f64` coefficient); then the witness (`u64` length,
//! `f64` values), the objective value (`f64`) and the solve statistics
//! (`u64` LP calls, `u64` nodes, `u8` first-relaxation flag). No variable
//! is named, so a record's size follows the problem's shape, not the
//! length of the labels a report would give its variables. A record holds
//! no key: opening re-derives each record's key from its own problem
//! ([`ipet_lp::fingerprint`]), so nothing read from disk picks a bucket.
//!
//! File order is use order. An append adds records in insert order, and a
//! compaction writes the live entries least recently used first. Opening
//! inserts the records in file order through the same LRU, a record
//! replacing any earlier one of the same problem, so a reopened store
//! holds exactly the entry set of its last good flush (when that set fits
//! the capacity) in the recency order of its last compaction followed by
//! the inserts since. Replays are not journaled, so a reopened store ranks
//! an entry that only replayed since the last compaction by its place in
//! that compaction: once more than the capacity's worth of records were
//! appended after it, such entries yield to the newer ones on open.
//!
//! ## Trust model: the disk is hostile
//!
//! Nothing read back from disk is believed. Records that fail framing,
//! checksum, version or decode checks are **quarantined** (counted,
//! skipped) rather than trusted or repaired, and a record that decodes
//! cleanly still replays only through the gate above. A file under any
//! other header — an older version included — is one quarantined unit:
//! the store opens empty and its first writing flush replaces the file.
//!
//! ## Crash safety: an append-only journal
//!
//! A writing [`Store::flush`] appends the records inserted since the last
//! good flush (those still live) and `fdatasync`s once. A crash mid-append
//! leaves a torn tail that the next open's checksums catch and quarantine.
//! Appends are what keep a flush O(edit): on a disk mounted with
//! `discard`, replacing a file (rename-over or truncate-and-rewrite) costs
//! ~50 ms where an append plus `fdatasync` costs ~0.06 ms.
//!
//! **Compaction** writes the live records to `<path>.tmp`, fsyncs it,
//! renames it over `<path>` and fsyncs the directory, so readers see
//! either the old complete file or the new one. It encodes one record at a
//! time through one reused buffer, outside the entry lock, from a snapshot
//! of shared entries, so it never builds the image in memory. It runs on
//! the first writing flush when the file is absent or its open scan
//! quarantined anything (nothing is ever appended after a torn or unframed
//! tail), after any failed, torn or corrupted write, and when dead bytes
//! (records of evicted or replaced entries) exceed
//! `max(live bytes, COMPACT_FLOOR_BYTES)` — which keeps the file within
//! twice the live bytes plus the floor.
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
//! and replay opportunities differ. Only a [`StoreMode::ReadWrite`] store
//! encodes or queues anything for the disk.

use ipet_audit::{replay_gate, Replay};
use ipet_lp::{
    fingerprint, same_structure, Fingerprint, IlpResolution, IlpStats, IoFault, Problem, Relation,
    Sense, SolverFaults,
};
use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Magic + version header; changing the record format — or what a
/// record's witness means — bumps the version and quarantines every older
/// file wholesale. Version 4: a problem is numbers only, with no variable
/// names. Version 3 made a record the problem and its solve alone, with
/// no key and no program scope. Version 2 added the canonical witness
/// of a tied optimum (the lexicographic minimum over the optimal face); a
/// version-1 file may hold another optimal witness, which would certify
/// and replay, making an answer depend on store history.
pub const STORE_MAGIC: &[u8; 16] = b"ipet-store-v4\0\0\0";

/// Entries a [`Store`] keeps. Sized from measured entry sizes (about
/// 13 KB on average over serve-style suite edits): a `--infer` pass over
/// the 13 suite routines leaves 45 entries, the largest in-repo batch
/// run, and an edit adds 2.6 on average, so a serve daemon keeps its
/// replay working set plus roughly the last 180 edits, in about 7 MB.
pub const SOLVE_CACHE_CAPACITY: usize = 512;

/// Upper bound on a single record's payload length; anything larger is
/// treated as lost framing (the rest of the file is quarantined).
const MAX_RECORD_LEN: u32 = 1 << 28;

/// Dead bytes a journal may carry before a flush compacts it, when that
/// is more than its live bytes. Sized for `cinderella serve`'s edit loop:
/// an edit session appends about 20 KB, and once the store is full each
/// new record's entry evicts an old one, so a compaction (~50 ms on a
/// `discard` mount) comes once per ~200 sessions, well under 1 % of
/// writing flushes.
pub const COMPACT_FLOOR_BYTES: u64 = 4 << 20;

/// Bytes of a record's frame: `[u32 len][u32 crc]`.
const FRAME_BYTES: u64 = 8;

/// Buffer of the writer a flush streams its records through: an edit's
/// append fits in one write.
const WRITE_BUFFER_BYTES: usize = 64 << 10;

/// How the store is operating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreMode {
    /// Normal: loaded from disk (or fresh), holds the advisory lock,
    /// flushes persist.
    ReadWrite,
    /// Another live process holds the lock: replays are served from the
    /// loaded snapshot, inserts stay in memory, flushes are no-ops.
    ReadOnly,
    /// No file: a pool's own tier, or a file that could not be opened
    /// (missing directory, injected open fault). Nothing persists.
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
    /// Entries the open scan left live.
    pub loaded: u64,
    /// Records (or whole files) refused at open: bad header, bad framing,
    /// checksum mismatch, or decode failure.
    pub quarantined: u64,
    /// Probes answered by a certified replay.
    pub hits: u64,
    /// Probes that found no usable entry.
    pub misses: u64,
    /// Probes that found the problem stored but no witness of it that
    /// certifies.
    pub rejected: u64,
    /// Entries dropped to stay within capacity (least recently used first).
    pub evicted: u64,
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

/// One solved problem. Immutable once made, so a flush can encode a
/// snapshot of shared entries outside the entry lock.
struct Entry {
    key: u128,
    problem: Problem,
    resolution: IlpResolution,
    stats: IlpStats,
    /// Framed size of the entry's record; 0 for an entry never written.
    bytes: u64,
}

struct Slot {
    entry: Arc<Entry>,
    /// Recency stamp: the key of this slot in `Inner::recency`.
    stamp: u64,
}

struct Inner {
    buckets: HashMap<u128, Vec<Slot>>,
    /// Stamp → bucket key. Stamps are unique and increase with every
    /// insert and hit, so the first entry is the least recently used.
    recency: BTreeMap<u64, u128>,
    next_stamp: u64,
    /// Entries inserted since the last good flush, oldest first; appended
    /// only if still live.
    pending: Vec<Arc<Entry>>,
    /// The next writing flush must rewrite the whole file.
    compact: bool,
    /// Length of the file as the last good flush (or the open scan) left it.
    file_bytes: u64,
    /// Framed bytes of the live entries' records.
    live_bytes: u64,
}

/// Takes the next recency stamp and records that it belongs to `key`.
fn take_stamp(recency: &mut BTreeMap<u64, u128>, next_stamp: &mut u64, key: u128) -> u64 {
    let stamp = *next_stamp;
    *next_stamp += 1;
    recency.insert(stamp, key);
    stamp
}

impl Inner {
    fn is_live(&self, entry: &Arc<Entry>) -> bool {
        self.buckets.get(&entry.key).is_some_and(|b| b.iter().any(|s| Arc::ptr_eq(&s.entry, entry)))
    }

    /// Removes the slot stamped `stamp` from bucket `key`.
    fn remove(&mut self, key: u128, stamp: u64) {
        let bucket = self.buckets.get_mut(&key).expect("recency names a live bucket");
        let i = bucket.iter().position(|s| s.stamp == stamp).expect("stamp names a slot");
        let slot = bucket.swap_remove(i);
        if bucket.is_empty() {
            self.buckets.remove(&key);
        }
        self.recency.remove(&stamp);
        self.live_bytes -= slot.entry.bytes;
    }

    /// Adds `entry` as the most recently used, replacing a live entry of
    /// the same problem and evicting the least recently used one beyond
    /// `capacity`. Returns whether an entry was evicted.
    fn add(&mut self, entry: Arc<Entry>, capacity: usize) -> bool {
        let key = entry.key;
        let same = self.buckets.get(&key).and_then(|b| {
            b.iter().find(|s| same_structure(&s.entry.problem, &entry.problem)).map(|s| s.stamp)
        });
        if let Some(stamp) = same {
            self.remove(key, stamp);
        }
        let evicted = self.recency.len() >= capacity;
        if let Some((&stamp, &oldest)) = self.recency.first_key_value().filter(|_| evicted) {
            self.remove(oldest, stamp);
        }
        let stamp = take_stamp(&mut self.recency, &mut self.next_stamp, key);
        self.live_bytes += entry.bytes;
        self.buckets.entry(key).or_default().push(Slot { entry, stamp });
        evicted
    }

    /// The live entries that have a record, least recently used first:
    /// the compacted file's order.
    fn by_recency(&self) -> Vec<Arc<Entry>> {
        self.recency
            .iter()
            .map(|(stamp, key)| {
                &self.buckets[key].iter().find(|s| s.stamp == *stamp).expect("slot").entry
            })
            .filter(|e| e.bytes > 0)
            .cloned()
            .collect()
    }
}

/// A thread-safe, LRU-bounded solve store. See the crate docs for the
/// replay, trust and crash-safety model.
pub struct Store {
    path: Option<PathBuf>,
    lock_path: Option<PathBuf>,
    mode: StoreMode,
    /// Opened on a path, in whatever mode: its probes count under
    /// `store.*` in the trace. A pool's own in-memory tier reports through
    /// the pool's `pool.cache.*` counters alone.
    opened: bool,
    capacity: usize,
    inner: Mutex<Inner>,
    /// Serializes whole flushes (snapshot + append or rewrite) across
    /// threads, and holds the IO-fault template the flushes consume.
    /// `inner` alone is not enough: two concurrent flushes could take
    /// different snapshots and write them in the *opposite* order — an
    /// older image renamed over a newer one — losing entries whose
    /// acknowledgment already implied durability.
    flush_lock: Mutex<SolverFaults>,
    loaded: AtomicU64,
    quarantined: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    rejected: AtomicU64,
    evicted: AtomicU64,
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
        Store::open_capped(path.as_ref(), faults, SOLVE_CACHE_CAPACITY)
    }

    /// [`Store::open_with_faults`] with room for `capacity` entries.
    fn open_capped(path: &Path, faults: SolverFaults, capacity: usize) -> Store {
        let path = path.to_path_buf();
        let mut store = Store::blank(faults);
        store.opened = true;
        store.capacity = capacity;
        if store.flush_lock.get_mut().expect("flush lock").open_fault() {
            store.count(&store.open_failed, "store.open_failed", 1);
            return store;
        }
        let lock_path = lock_path_for(&path);
        match take_lock(&lock_path) {
            LockOutcome::Acquired { broke_stale } => {
                store.mode = StoreMode::ReadWrite;
                store.lock_path = Some(lock_path);
                if broke_stale {
                    store.count(&store.lock_stale, "store.lock_stale", 1);
                }
            }
            LockOutcome::Busy => {
                store.mode = StoreMode::ReadOnly;
                store.count(&store.lock_busy, "store.lock_busy", 1);
            }
            LockOutcome::Unavailable => {
                store.count(&store.open_failed, "store.open_failed", 1);
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
                store.count(&store.quarantined, "store.quarantined", 1);
            }
        }
        store
    }

    /// A store that never touches disk ([`StoreMode::InMemory`]): the tier
    /// a solve pool starts with.
    pub fn in_memory() -> Store {
        Store::blank(SolverFaults::default())
    }

    /// This store with room for only `capacity` entries.
    #[cfg(test)]
    fn capped(mut self, capacity: usize) -> Store {
        self.capacity = capacity;
        self
    }

    fn blank(faults: SolverFaults) -> Store {
        Store {
            path: None,
            lock_path: None,
            mode: StoreMode::InMemory,
            opened: false,
            capacity: SOLVE_CACHE_CAPACITY,
            inner: Mutex::new(Inner {
                buckets: HashMap::new(),
                recency: BTreeMap::new(),
                next_stamp: 0,
                pending: Vec::new(),
                compact: true,
                file_bytes: 0,
                live_bytes: 0,
            }),
            flush_lock: Mutex::new(faults),
            loaded: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            appends: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            write_failed: AtomicU64::new(0),
            open_failed: AtomicU64::new(0),
            lock_busy: AtomicU64::new(0),
            lock_stale: AtomicU64::new(0),
        }
    }

    /// Adds `n` to `stat` and to the trace counter `name` (the latter only
    /// for an opened store, see [`Store::in_memory`]).
    fn count(&self, stat: &AtomicU64, name: &str, n: u64) {
        stat.fetch_add(n, Ordering::Relaxed);
        if self.opened && n > 0 {
            ipet_trace::counter(name, n);
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
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        StoreStats {
            loaded: get(&self.loaded),
            quarantined: get(&self.quarantined),
            hits: get(&self.hits),
            misses: get(&self.misses),
            rejected: get(&self.rejected),
            evicted: get(&self.evicted),
            flushes: get(&self.flushes),
            appends: get(&self.appends),
            compactions: get(&self.compactions),
            write_failed: get(&self.write_failed),
            open_failed: get(&self.open_failed),
            lock_busy: get(&self.lock_busy),
            lock_stale: get(&self.lock_stale),
        }
    }

    /// Number of live entries, at most [`SOLVE_CACHE_CAPACITY`].
    pub fn len(&self) -> usize {
        self.inner.lock().expect("store lock").recency.len()
    }

    /// True when the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(live, file)`: the framed bytes of the live entries' records, and
    /// the length of the file as the last good flush left it. Their gap
    /// (less the header) is the journal's dead weight.
    pub fn journal_bytes(&self) -> (u64, u64) {
        let inner = self.inner.lock().expect("store lock");
        (inner.live_bytes, inner.file_bytes)
    }

    /// Looks up a certified replay for `problem` through the replay gate
    /// (see the crate docs). A hit makes the entry the most recently used;
    /// anything less is a miss.
    pub fn probe(&self, key: Fingerprint, problem: &Problem) -> Option<(IlpResolution, IlpStats)> {
        let mut rejected = false;
        let hit = {
            let mut guard = self.inner.lock().expect("store lock");
            let Inner { buckets, recency, next_stamp, .. } = &mut *guard;
            let slot = buckets.get_mut(&key.0).and_then(|bucket| {
                bucket.iter_mut().find(|slot| {
                    let witness = match &slot.entry.resolution {
                        IlpResolution::Exact { x, value } => Some((x.as_slice(), *value)),
                        _ => None,
                    };
                    match replay_gate(&slot.entry.problem, problem, witness) {
                        Replay::Foreign => false,
                        Replay::Rejected => {
                            ipet_trace::counter("audit.cache.rejected", 1);
                            rejected = true;
                            false
                        }
                        Replay::Certified => {
                            if witness.is_some() {
                                ipet_trace::counter("audit.cache.recertified", 1);
                            }
                            true
                        }
                    }
                })
            });
            slot.map(|slot| {
                recency.remove(&slot.stamp);
                slot.stamp = take_stamp(recency, next_stamp, key.0);
                Arc::clone(&slot.entry)
            })
        };
        match hit {
            Some(entry) => {
                self.count(&self.hits, "store.hits", 1);
                Some((entry.resolution.clone(), entry.stats))
            }
            None => {
                self.count(&self.rejected, "store.rejected", u64::from(rejected));
                self.count(&self.misses, "store.misses", 1);
                None
            }
        }
    }

    /// Keeps a fresh solve as the most recently used entry, replacing any
    /// entry of the same problem and evicting the least recently used one
    /// when the store is full. A budget-degraded result (`Relaxed`,
    /// `Exhausted`) is not kept: it reflects the budget it ran under,
    /// which the key does not cover, so replaying it could degrade an
    /// answer another budget would give exactly. A [`StoreMode::ReadWrite`]
    /// store queues an `Exact` entry for the next flush.
    pub fn insert(
        &self,
        key: Fingerprint,
        problem: &Problem,
        resolution: &IlpResolution,
        stats: IlpStats,
    ) {
        let bytes = match resolution {
            IlpResolution::Relaxed { .. } | IlpResolution::Exhausted => return,
            IlpResolution::Exact { x, .. } if self.mode == StoreMode::ReadWrite => {
                FRAME_BYTES + payload_len(problem, x)
            }
            _ => 0,
        };
        let entry = Arc::new(Entry {
            key: key.0,
            problem: problem.clone(),
            resolution: resolution.clone(),
            stats,
            bytes,
        });
        let mut inner = self.inner.lock().expect("store lock");
        if bytes > 0 {
            inner.pending.push(Arc::clone(&entry));
        }
        if inner.add(entry, self.capacity) {
            self.evicted.fetch_add(1, Ordering::Relaxed);
            ipet_trace::counter("pool.cache.evicted", 1);
        }
    }

    /// Makes everything inserted so far durable. No-op outside
    /// [`StoreMode::ReadWrite`], and writes nothing when the store is clean
    /// (see the crate docs). A writing flush appends the records of the
    /// entries inserted since the last good flush that are still live, in
    /// insert order, plus one `fdatasync`, or compacts (atomic whole-file
    /// rewrite, least recently used first) when one is due. Injected IO
    /// faults fire here — the N-th *writing* flush — and are reported as
    /// errors (fail) or silently persisted damage (torn / corrupt) for
    /// recovery tests; each schedules a compaction.
    ///
    /// Concurrent flushes are serialized end to end (`flush_lock`): each
    /// snapshot reaches disk in the order it was taken, so a flush that
    /// returned `Ok` can never be undone by an older snapshot. The clean
    /// check happens under the same lock, so a clean flush returns only
    /// after any in-flight write has finished. Probes and inserts stay
    /// concurrent — only the snapshot step briefly holds the entry lock.
    pub fn flush(&self) -> Result<(), String> {
        if self.mode != StoreMode::ReadWrite {
            return Ok(());
        }
        let path = self.path.as_deref().expect("ReadWrite store has a path");
        let mut faults = self.flush_lock.lock().expect("flush lock");
        let mut inner = self.inner.lock().expect("store lock");
        if inner.pending.is_empty() && !inner.compact {
            return Ok(());
        }
        // Taken at snapshot time: an insert racing the write below queues
        // for the next flush, and any failure or damage schedules a
        // compaction, which rewrites everything live.
        let pending = std::mem::take(&mut inner.pending);
        let mut records: Vec<Arc<Entry>> =
            pending.into_iter().filter(|e| inner.is_live(e)).collect();
        let appended: u64 = records.iter().map(|e| e.bytes).sum();
        let header = STORE_MAGIC.len() as u64;
        let dead = (inner.file_bytes + appended).saturating_sub(header + inner.live_bytes);
        let compact = inner.compact || dead > inner.live_bytes.max(COMPACT_FLOOR_BYTES);
        inner.compact = false;
        if compact {
            records = inner.by_recency();
        }
        let file_bytes = inner.file_bytes;
        drop(inner);
        let fault = faults.write_fault();
        let written = if fault == Some(IoFault::FailWrite) {
            Err(std::io::Error::other("injected write fault"))
        } else {
            let torn = fault == Some(IoFault::TornWrite);
            let mut damaged = torn;
            let mut fill = |out: &mut BufWriter<fs::File>| {
                let (n, corrupted) = write_records(out, &records, torn, &mut faults)?;
                damaged |= corrupted;
                Ok(n)
            };
            let written = if compact {
                write_atomic(path, |out| {
                    out.write_all(STORE_MAGIC)?;
                    fill(out).map(|n| header + n)
                })
            } else {
                append_synced(path, file_bytes, |out| fill(out).map(|n| file_bytes + n))
            };
            if damaged {
                self.inner.lock().expect("store lock").compact = true;
            }
            written
        };
        match written {
            Ok(len) => {
                self.inner.lock().expect("store lock").file_bytes = len;
                self.count(&self.flushes, "store.flushes", 1);
                if compact {
                    self.count(&self.compactions, "store.compactions", 1);
                } else {
                    self.count(&self.appends, "store.appends", 1);
                }
                Ok(())
            }
            Err(e) => {
                self.inner.lock().expect("store lock").compact = true;
                self.count(&self.write_failed, "store.write_failed", 1);
                Err(format!("{}: {e}", path.display()))
            }
        }
    }

    /// Scans `bytes` as a store file, inserting good records in file order
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
            self.count(&self.quarantined, "store.quarantined", 1);
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
            match decode_entry(payload).filter(|_| crc32(payload) == crc) {
                Some(entry) => {
                    inner.add(Arc::new(entry), self.capacity);
                }
                None => quarantined += 1,
            }
        }
        inner.file_bytes = bytes.len() as u64;
        inner.compact = quarantined > 0;
        let loaded = inner.recency.len() as u64;
        self.count(&self.loaded, "store.loaded", loaded);
        self.count(&self.quarantined, "store.quarantined", quarantined);
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

/// Writes `entries` as framed records through one reused buffer. Returns
/// the bytes written and whether an injected record fault corrupted one.
/// A torn write (`torn`) persists only half of the last record, exactly
/// what a crash between `write()` calls can leave behind.
fn write_records(
    out: &mut impl Write,
    entries: &[Arc<Entry>],
    torn: bool,
    faults: &mut SolverFaults,
) -> std::io::Result<(u64, bool)> {
    let mut buf = Vec::new();
    let (mut written, mut corrupted) = (0u64, false);
    for (i, entry) in entries.iter().enumerate() {
        buf.clear();
        buf.extend_from_slice(&[0; FRAME_BYTES as usize]);
        encode_entry(&mut buf, entry);
        let payload = &mut buf[FRAME_BYTES as usize..];
        let (len, crc) = (payload.len() as u32, crc32(payload));
        if faults.record_fault() {
            // Flip one payload bit *after* the checksum is computed so the
            // damage is latent until the next open.
            corrupted = true;
            payload[payload.len() / 2] ^= 0x40;
        }
        buf[..4].copy_from_slice(&len.to_le_bytes());
        buf[4..8].copy_from_slice(&crc.to_le_bytes());
        debug_assert_eq!(buf.len() as u64, entry.bytes, "payload_len matches the encoding");
        let end = if torn && i + 1 == entries.len() { (buf.len() / 2).max(1) } else { buf.len() };
        out.write_all(&buf[..end])?;
        written += end as u64;
    }
    Ok((written, corrupted))
}

/// Writes a new file through `fill` (which returns the file's length) to
/// `<path>.tmp`, fsyncs it and renames it over `path`.
fn write_atomic(
    path: &Path,
    fill: impl FnOnce(&mut BufWriter<fs::File>) -> std::io::Result<u64>,
) -> std::io::Result<u64> {
    let mut tmp_name = path.file_name().unwrap_or_default().to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    let mut out = BufWriter::with_capacity(WRITE_BUFFER_BYTES, fs::File::create(&tmp)?);
    let len = fill(&mut out)?;
    out.into_inner().map_err(|e| e.into_error())?.sync_all()?;
    fs::rename(&tmp, path)?;
    // Persist the rename itself: fsync the containing directory so the
    // new directory entry survives a power cut.
    if let Some(dir) = path.parent() {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(len)
}

/// Appends to the journal at `path` through `fill` (which returns the new
/// length) and `fdatasync`s it. The file must still be `expected_len`
/// long: anything else means the append position is unknown, which fails
/// the flush (and so compacts next).
fn append_synced(
    path: &Path,
    expected_len: u64,
    fill: impl FnOnce(&mut BufWriter<fs::File>) -> std::io::Result<u64>,
) -> std::io::Result<u64> {
    let f = fs::OpenOptions::new().append(true).open(path)?;
    let len = f.metadata()?.len();
    if len != expected_len {
        return Err(std::io::Error::other(format!(
            "journal is {len} bytes, expected {expected_len}"
        )));
    }
    let mut out = BufWriter::with_capacity(WRITE_BUFFER_BYTES, f);
    let len = fill(&mut out)?;
    out.into_inner().map_err(|e| e.into_error())?.sync_data()?;
    Ok(len)
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

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Appends the payload of `e`'s record to `out`. Only `Exact` entries
/// have a record.
fn encode_entry(out: &mut Vec<u8>, e: &Entry) {
    let IlpResolution::Exact { x, value } = &e.resolution else {
        unreachable!("only Exact entries are written");
    };
    encode_problem(out, &e.problem);
    put_u64(out, x.len() as u64);
    for &v in x {
        put_f64(out, v);
    }
    put_f64(out, *value);
    put_u64(out, e.stats.lp_calls as u64);
    put_u64(out, e.stats.nodes as u64);
    out.push(e.stats.first_relaxation_integral as u8);
}

/// Length of the payload [`encode_entry`] writes for `problem` and its
/// witness `x`, computed without encoding.
fn payload_len(problem: &Problem, x: &[f64]) -> u64 {
    let n = problem.objective.len() as u64;
    let rows: u64 = problem.constraints.iter().map(|c| 17 + 16 * c.terms.len() as u64).sum();
    let problem_len = 1 + 8 + 9 * n + 8 + rows;
    problem_len + 8 + 8 * x.len() as u64 + 8 + 17
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

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn decode_entry(payload: &[u8]) -> Option<Entry> {
    let mut c = Cursor { buf: payload, pos: 0 };
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
    if !c.done() || x.len() != problem.num_vars() {
        return None;
    }
    Some(Entry {
        key: fingerprint(&problem).0,
        problem,
        resolution: IlpResolution::Exact { x, value },
        stats: IlpStats { lp_calls, nodes, first_relaxation_integral: first },
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
    Some(Problem { sense, objective, constraints, integer })
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

    /// [`Store::open`] with room for only `capacity` entries.
    fn open_capped(path: &Path, capacity: usize) -> Store {
        Store::open_capped(path, SolverFaults::default(), capacity)
    }

    fn toy() -> Problem {
        let mut b = ProblemBuilder::new(Sense::Maximize);
        let x = b.add_var(true);
        let y = b.add_var(true);
        b.objective(x, 3.0);
        b.objective(y, 2.0);
        b.constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
        b.constraint(vec![(x, 1.0)], Relation::Le, 2.0);
        b.build()
    }

    fn toy_exact() -> IlpResolution {
        IlpResolution::Exact { x: vec![2.0, 2.0], value: 10.0 }
    }

    /// `max x st x <= rhs`, solved: `x = rhs`.
    fn line(rhs: f64) -> (Problem, IlpResolution) {
        let mut b = ProblemBuilder::new(Sense::Maximize);
        let x = b.add_var(true);
        b.objective(x, 1.0);
        b.constraint(vec![(x, 1.0)], Relation::Le, rhs);
        (b.build(), IlpResolution::Exact { x: vec![rhs], value: rhs })
    }

    fn key_of(p: &Problem) -> Fingerprint {
        ipet_lp::fingerprint(p)
    }

    /// Inserts `p` solved as `res` under its own key.
    fn put(store: &Store, p: &Problem, res: &IlpResolution) {
        store.insert(key_of(p), p, res, IlpStats::default());
    }

    fn hits(store: &Store, p: &Problem) -> bool {
        store.probe(key_of(p), p).is_some()
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
        {
            let store = Store::open(&path);
            assert_eq!(store.mode(), StoreMode::ReadWrite);
            put(&store, &p, &toy_exact());
            store.flush().expect("flush");
        }
        let store = Store::open(&path);
        assert_eq!(store.stats().loaded, 1);
        assert_eq!(store.stats().quarantined, 0);
        let (res, _) = store.probe(key_of(&p), &p).expect("replay");
        assert_eq!(res, toy_exact());
        assert_eq!(store.stats().hits, 1);
    }

    #[test]
    fn a_changed_problem_misses_and_the_old_one_still_replays() {
        let store = Store::in_memory();
        let (old, old_res) = line(9.0);
        let (edited, _) = line(7.0);
        put(&store, &old, &old_res);
        assert!(!hits(&store, &edited), "another problem is another key");
        assert!(store.probe(key_of(&old), &edited).is_none(), "and fails the gate under any key");
        assert!(hits(&store, &old), "going back replays");
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.rejected), (1, 2, 0));
    }

    #[test]
    fn a_full_store_evicts_the_least_recently_used_entry() {
        let store = Store::in_memory().capped(2);
        let (a, ra) = line(1.0);
        let (b, rb) = line(2.0);
        let (c, rc) = line(3.0);
        put(&store, &a, &ra);
        put(&store, &b, &rb);
        // A hit makes `a` the most recently used, so `c` evicts `b`.
        assert!(hits(&store, &a));
        put(&store, &c, &rc);
        assert_eq!((store.len(), store.stats().evicted), (2, 1));
        assert!(!hits(&store, &b));
        assert!(hits(&store, &a));
        assert!(hits(&store, &c));
    }

    #[test]
    fn permuted_entry_is_a_plain_miss() {
        // Same problem with variables swapped: a witness indexed by the
        // other variable order must not transfer, and nothing was rejected
        // — the permuted twin is simply another problem.
        let store = Store::in_memory();
        let p = toy();
        let mut b = ProblemBuilder::new(Sense::Maximize);
        let y = b.add_var(true);
        let x = b.add_var(true);
        b.objective(x, 3.0);
        b.objective(y, 2.0);
        b.constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
        b.constraint(vec![(x, 1.0)], Relation::Le, 2.0);
        let q = b.build();
        put(&store, &p, &toy_exact());
        assert!(!hits(&store, &q));
        // Even under the entry's own key (a forced collision) the gate
        // passes it over without a rejection.
        assert!(store.probe(key_of(&p), &q).is_none());
        assert_eq!(store.stats().rejected, 0);
    }

    #[test]
    fn a_corrupt_witness_costs_a_solve_never_a_bound() {
        let store = Store::in_memory();
        let p = toy();
        // Witness violates x <= 2; it must not certify.
        put(&store, &p, &IlpResolution::Exact { x: vec![4.0, 0.0], value: 12.0 });
        assert!(!hits(&store, &p));
        assert_eq!(store.stats().rejected, 1);
        // The fresh solve replaces the entry, which then replays.
        put(&store, &p, &toy_exact());
        assert_eq!(store.len(), 1);
        assert_eq!(store.probe(key_of(&p), &p).map(|(res, _)| res), Some(toy_exact()));
    }

    #[test]
    fn a_reopened_store_keys_each_record_by_its_own_problem() {
        // An entry filed under a key that is not its problem's fingerprint:
        // the file holds no key, so the reopened record replays under the
        // derived one.
        let dir = scratch("rekey");
        let path = dir.join("s.store");
        let p = toy();
        {
            let store = Store::open(&path);
            store.insert(Fingerprint(7), &p, &toy_exact(), IlpStats::default());
            assert!(store.probe(Fingerprint(7), &p).is_some());
            store.flush().expect("flush");
        }
        let store = Store::open(&path);
        assert_eq!((store.stats().loaded, store.stats().quarantined), (1, 0));
        assert!(hits(&store, &p), "replays under the derived key");
        assert!(store.probe(Fingerprint(7), &p).is_none());
    }

    #[test]
    fn degraded_results_are_not_kept_and_only_exact_ones_are_written() {
        let dir = scratch("nonexact");
        let path = dir.join("s.store");
        let p = toy();
        {
            let store = Store::open(&path);
            for degraded in
                [IlpResolution::Exhausted, IlpResolution::Relaxed { bound: 12.0, incumbent: None }]
            {
                put(&store, &p, &degraded);
                assert!(store.is_empty());
            }
            put(&store, &p, &IlpResolution::Infeasible);
            assert!(hits(&store, &p), "a verdict without a witness replays in memory");
            store.flush().expect("flush");
        }
        assert_eq!(Store::open(&path).stats().loaded, 0, "but is never written");
    }

    #[test]
    fn in_memory_and_read_only_stores_queue_nothing_for_the_disk() {
        let dir = scratch("noqueue");
        let path = dir.join("s.store");
        let holder = Store::open(&path);
        let read_only = Store::open(&path);
        assert_eq!(read_only.mode(), StoreMode::ReadOnly);
        for store in [&Store::in_memory(), &read_only] {
            for i in 0..1000 {
                let (p, res) = line(f64::from(i));
                put(store, &p, &res);
            }
            let inner = store.inner.lock().expect("store lock");
            assert!(inner.pending.is_empty(), "{:?} store queued records", store.mode());
            assert_eq!(inner.live_bytes, 0, "{:?} store sized records", store.mode());
            assert_eq!(inner.recency.len(), SOLVE_CACHE_CAPACITY);
        }
        drop(holder);
    }

    #[test]
    fn bit_flip_quarantines_the_record() {
        let dir = scratch("bitflip");
        let path = dir.join("s.store");
        let p = toy();
        {
            let store = Store::open(&path);
            put(&store, &p, &toy_exact());
            store.flush().expect("flush");
        }
        let mut bytes = fs::read(&path).expect("read back");
        let mid = STORE_MAGIC.len() + 8 + (bytes.len() - STORE_MAGIC.len() - 8) / 2;
        bytes[mid] ^= 0x01;
        fs::write(&path, &bytes).expect("rewrite");
        let store = Store::open(&path);
        assert_eq!(store.stats().loaded, 0);
        assert_eq!(store.stats().quarantined, 1);
        assert!(!hits(&store, &p));
    }

    #[test]
    fn truncated_file_quarantines_only_the_tail() {
        let dir = scratch("truncate");
        let path = dir.join("s.store");
        let (q, qres) = line(3.0);
        {
            let store = Store::open(&path);
            put(&store, &toy(), &toy_exact());
            put(&store, &q, &qres);
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
        let x = b.add_var(true);
        let y = b.add_var(true);
        b.objective(x, 1.0);
        b.objective(y, 1.0);
        b.constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 5.0);
        b.constraint(vec![(x, 1.0)], Relation::Le, 4.0);
        let p = b.build();
        let stale = IlpResolution::Exact { x: vec![4.0, 1.0], value: 5.0 };
        let dir = scratch("v1");
        let path = dir.join("s.store");
        {
            let store = Store::open(&path);
            put(&store, &p, &stale);
            store.flush().expect("flush");
        }
        // Under the current header the stale witness would replay.
        let replayed = Store::open(&path).probe(key_of(&p), &p).map(|(res, _)| res);
        assert_eq!(replayed, Some(stale));

        let mut bytes = fs::read(&path).expect("read");
        bytes[..STORE_MAGIC.len()].copy_from_slice(b"ipet-store-v1\0\0\0");
        fs::write(&path, &bytes).expect("write v1 header");
        let store = Store::open(&path);
        assert_eq!(store.stats().loaded, 0);
        assert_eq!(store.stats().quarantined, 1, "one quarantine for the whole file");
        assert!(!hits(&store, &p));
        let (solved, _) = ipet_lp::solve_ilp_budgeted(
            &p,
            &ipet_lp::SolveBudget::unlimited(),
            &ipet_lp::BudgetMeter::new(),
            &mut SolverFaults::none(),
        );
        assert_eq!(solved, IlpResolution::Exact { x: vec![0.0, 5.0], value: 5.0 });
    }

    #[test]
    #[cfg(unix)]
    fn older_files_open_empty_and_the_next_flush_replaces_them() {
        // A version-2 record carries a tag, a key and a program scope
        // before the problem. The version-3 image holds a record that
        // would decode under the current format: the header alone refuses
        // it. None may load.
        let p = toy();
        let entry = Entry {
            key: 0,
            problem: p.clone(),
            resolution: toy_exact(),
            stats: IlpStats::default(),
            bytes: 0,
        };
        let v2_prefix = [[1u8].as_slice(), &[0xAB; 48]].concat();
        for (version, prefix) in [("v2", v2_prefix), ("v3", Vec::new())] {
            let dir = scratch(version);
            let path = dir.join("s.store");
            let mut payload = prefix;
            encode_entry(&mut payload, &entry);
            let mut image = format!("ipet-store-{version}\0\0\0").into_bytes();
            image.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            image.extend_from_slice(&crc32(&payload).to_le_bytes());
            image.extend_from_slice(&payload);
            fs::write(&path, &image).expect("write an older image");
            let ino = inode(&path);
            {
                let store = Store::open(&path);
                assert_eq!((store.stats().loaded, store.stats().quarantined), (0, 1), "{version}");
                assert!(!hits(&store, &p));
                put(&store, &p, &toy_exact());
                store.flush().expect("repairing flush");
                assert_eq!((store.stats().compactions, store.stats().appends), (1, 0));
            }
            assert_ne!(inode(&path), ino, "the {version} file was replaced");
            assert_eq!(&fs::read(&path).expect("read")[..STORE_MAGIC.len()], STORE_MAGIC);
            let store = Store::open(&path);
            assert_eq!((store.stats().loaded, store.stats().quarantined), (1, 0), "{version}");
            assert!(hits(&store, &p));
        }
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
        put(&second, &p, &toy_exact());
        assert!(hits(&second, &p));
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
                        let (p, res) = line((t * per_thread + i) as f64);
                        put(store, &p, &res);
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
        put(&store, &p, &toy_exact());
        assert!(hits(&store, &p), "still caches");
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
        put(&store, &toy(), &toy_exact());
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
        put(&store, &p, &toy_exact());
        store.flush().expect("first flush");
        let bytes = fs::read(&path).expect("read");
        let ino = inode(&path);
        assert_eq!(store.stats().flushes, 1);

        // Nothing changed — a replay only moves the entry in the LRU: no
        // rewrite, not even of identical bytes.
        store.flush().expect("clean flush");
        assert!(hits(&store, &p));
        store.flush().expect("still clean after a replay");
        assert_eq!(store.stats().flushes, 1);
        assert_eq!(inode(&path), ino, "a clean flush must not replace the file");
        assert_eq!(fs::read(&path).expect("read"), bytes);

        // A new entry makes it dirty again.
        let (q, qres) = line(3.0);
        put(&store, &q, &qres);
        store.flush().expect("dirty flush");
        assert_eq!(store.stats().flushes, 2);
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
        let (q, qres) = line(3.0);
        {
            let store = Store::open_with_faults(&path, SolverFaults::fail_write_at(1));
            put(&store, &toy(), &toy_exact());
            store.flush().expect("writing flush 0");
            put(&store, &q, &qres);
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
        {
            let store = Store::open_with_faults(&path, SolverFaults::torn_write_at(0));
            put(&store, &toy(), &toy_exact());
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
            put(&store, &p, &toy_exact());
            store.flush().expect("torn flush still renames");
        }
        let store = Store::open(&path);
        assert_eq!(store.stats().loaded, 0);
        assert_eq!(store.stats().quarantined, 1);
        assert!(!hits(&store, &p));
    }

    #[test]
    fn corrupt_record_fault_is_latent_until_reopen() {
        let dir = scratch("corruptrec");
        let path = dir.join("s.store");
        {
            let store = Store::open_with_faults(&path, SolverFaults::corrupt_record_at(0));
            put(&store, &toy(), &toy_exact());
            store.flush().expect("flush succeeds; damage is silent");
        }
        let store = Store::open(&path);
        assert_eq!(store.stats().loaded, 0);
        assert_eq!(store.stats().quarantined, 1, "CRC catches the flip");
    }

    #[test]
    fn a_compaction_writes_least_recently_used_first_and_a_reopen_keeps_that_order() {
        let dir = scratch("recency");
        let path = dir.join("s.store");
        let [(a, ra), (b, rb), (c, rc), (d, rd)] = [1.0, 2.0, 3.0, 4.0].map(line);
        {
            let store = open_capped(&path, 3);
            put(&store, &a, &ra);
            put(&store, &b, &rb);
            put(&store, &c, &rc);
            assert!(hits(&store, &a), "a is now the most recently used");
            store.flush().expect("the first flush compacts");
            assert_eq!(store.stats().compactions, 1);
        }
        // The file lists b, c, a.
        let bytes = fs::read(&path).expect("read");
        let first = STORE_MAGIC.len() + FRAME_BYTES as usize;
        let len = u32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes")) as usize;
        let first = decode_entry(&bytes[first..first + len]).expect("record");
        assert!(same_structure(&first.problem, &b), "the least recently used entry comes first");
        let store = open_capped(&path, 3);
        assert_eq!(store.stats().loaded, 3);
        put(&store, &d, &rd);
        assert!(!hits(&store, &b), "b was still the least recently used");
        assert!(hits(&store, &c) && hits(&store, &a) && hits(&store, &d));
    }

    #[test]
    fn a_duplicate_insert_replaces_the_entry() {
        let dir = scratch("dup");
        let path = dir.join("s.store");
        let p = toy();
        {
            let store = Store::open(&path);
            put(&store, &p, &toy_exact());
            store.flush().expect("flush");
            put(&store, &p, &toy_exact());
            assert_eq!(store.len(), 1);
            store.flush().expect("append");
            let (live, file) = store.journal_bytes();
            assert_eq!(file, STORE_MAGIC.len() as u64 + 2 * live, "the old record is dead");
        }
        assert_eq!(Store::open(&path).stats().loaded, 1);
    }

    /// A problem of `n` variables whose record is several KB, so journal
    /// sizes reach the compaction floor in a test's run.
    fn wide(n: usize, rhs: f64) -> Problem {
        let mut b = ProblemBuilder::new(Sense::Maximize);
        let vars: Vec<_> = (0..n).map(|_| b.add_var(true)).collect();
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
        put(&store, &p, &toy_exact());
        store.flush().expect("first flush creates the file");
        let before = fs::read(&path).expect("read");
        let ino = inode(&path);
        put(&store, &q, &zeros(&q));
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
    fn a_torn_append_is_quarantined_on_reopen_and_the_next_flush_compacts() {
        let dir = scratch("tornappend");
        let path = dir.join("s.store");
        let (p, q) = (toy(), wide(4, 3.0));
        {
            // Writing flush 0 creates the file; flush 1, an append, tears.
            let store = Store::open_with_faults(&path, SolverFaults::torn_write_at(1));
            put(&store, &p, &toy_exact());
            store.flush().expect("flush 0");
            put(&store, &q, &zeros(&q));
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
        put(&store, &p, &toy_exact());
        store.flush().expect("flush 0");
        put(&store, &q, &zeros(&q));
        assert!(store.flush().is_err());
        store.flush().expect("retry");
        assert_eq!((store.stats().compactions, store.stats().appends), (2, 0));
        drop(store);
        assert_eq!(Store::open(&path).stats().loaded, 2);
    }

    #[test]
    fn evictions_keep_the_journal_within_twice_live_plus_the_floor_over_1000_edit_cycles() {
        // A serve daemon's edit loop on a full store: each cycle replays a
        // few routines, which keeps them recent, and an edit adds two
        // entries whose inserts evict the oldest edits' entries.
        let dir = scratch("bounded");
        let path = dir.join("s.store");
        let store = open_capped(&path, 16);
        let kept: Vec<Problem> = (10..14).map(|n| wide(n, 1.0)).collect();
        for p in &kept {
            put(&store, p, &zeros(p));
        }
        let edit = wide(200, 5000.0);
        let header = STORE_MAGIC.len() as u64;
        for cycle in 0..1000 {
            assert!(kept.iter().all(|p| hits(&store, p)), "cycle {cycle}: a replay missed");
            let e = wide(200, f64::from(cycle));
            put(&store, &e, &zeros(&e));
            put(&store, &edit, &zeros(&edit));
            store.flush().expect("edit flush");
            assert_eq!(store.len(), (6 + cycle as usize).min(16));
            let (live, file) = store.journal_bytes();
            assert_eq!(fs::metadata(&path).expect("stat").len(), file);
            assert!(
                file <= header + 2 * live + COMPACT_FLOOR_BYTES,
                "cycle {cycle}: {file} file bytes for {live} live"
            );
        }
        let s = store.stats();
        assert_eq!(s.evicted, 1000 - 11, "one eviction per cycle once full");
        assert!(s.compactions > 1, "the cycles outgrew the floor");
        assert!(
            s.compactions * 20 < s.flushes,
            "compactions are {} of {} writing flushes",
            s.compactions,
            s.flushes
        );
        drop(store);
        let reopened = open_capped(&path, 16);
        assert_eq!(reopened.stats().loaded, 16);
        // Replays are not journaled: the routines kept recent by replays
        // since the last compaction yield to the newer records.
        let newest = wide(200, 999.0);
        assert!(hits(&reopened, &newest) && hits(&reopened, &edit), "the newest records load");
    }

    #[test]
    fn crc32_known_vector() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
