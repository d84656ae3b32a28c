//! # ipet-store
//!
//! A crash-safe, disk-backed store of solved ILPs, keyed on the same
//! `(base, delta)` fingerprints the in-memory solve cache uses. It lets a
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
//! entry*: a replay is authorized exactly like the in-memory cache's —
//! [`same_structure`] against the probe problem plus exact-arithmetic
//! re-certification of the cached witness ([`ipet_audit::certify_witness`]).
//! A flipped bit anywhere can therefore cost a cold solve, never a wrong
//! bound.
//!
//! ## Crash safety: atomic whole-file flushes
//!
//! [`Store::flush`] serializes every live entry to `<path>.tmp`, fsyncs,
//! and atomically renames over `<path>`. Readers therefore observe either
//! the old complete file or the new complete file; a crash (even SIGKILL)
//! mid-flush leaves at worst a stale `.tmp` that the next flush overwrites.
//! Entry payloads are sorted before writing so the bytes are a pure
//! function of the entry set — two runs that solved the same problems
//! produce byte-identical store files.
//!
//! A flush writes only when the store is *dirty*: it starts dirty (so the
//! first flush rewrites the file and drops any quarantined records), and an
//! insert or an invalidating [`Store::note_context`] makes it dirty again.
//! A failed or damaged write leaves it dirty, so the next flush repairs
//! the file. A clean flush still waits for any flush in progress, so its
//! `Ok` keeps meaning "everything inserted so far is on disk".
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

use ipet_audit::{certify_witness, ClaimKind};
use ipet_lp::{
    round_claimed, same_structure, Fingerprint, IlpResolution, IlpStats, IoFault, Problem,
    Relation, Sense, SolverFaults,
};
use std::collections::HashMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Magic + version header; changing the record format bumps the version
/// and quarantines every older file wholesale.
pub const STORE_MAGIC: &[u8; 16] = b"ipet-store-v1\0\0\0";

/// Upper bound on a single record's payload length; anything larger is
/// treated as lost framing (the rest of the file is quarantined).
const MAX_RECORD_LEN: u32 = 1 << 28;

/// Record payload tags.
const TAG_SOLVE: u8 = 1;

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
    /// Fingerprint matches refused by the structural or witness gates.
    pub rejected: u64,
    /// Entries dropped because their invalidation hash went stale.
    pub invalidated: u64,
    /// Successful flushes to disk.
    pub flushes: u64,
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
}

struct Inner {
    entries: HashMap<u128, Vec<StoreEntry>>,
    faults: SolverFaults,
    /// True when the file on disk may not hold exactly `entries`.
    dirty: bool,
}

/// A thread-safe persistent solve store. See the crate docs for the trust
/// and crash-safety model.
pub struct Store {
    path: Option<PathBuf>,
    lock_path: Option<PathBuf>,
    mode: StoreMode,
    inner: Mutex<Inner>,
    /// Serializes whole flushes (snapshot + atomic rewrite) across threads.
    /// `inner` alone is not enough: two concurrent flushes could encode
    /// different snapshots and rename them in the *opposite* order, letting
    /// an older image overwrite a newer one — losing entries whose
    /// acknowledgment already implied durability.
    flush_lock: Mutex<()>,
    loaded: AtomicU64,
    quarantined: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    rejected: AtomicU64,
    invalidated: AtomicU64,
    flushes: AtomicU64,
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
            inner: Mutex::new(Inner { entries: HashMap::new(), faults, dirty: true }),
            flush_lock: Mutex::new(()),
            loaded: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            invalidated: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
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
            write_failed: self.write_failed.load(Ordering::Relaxed),
            open_failed: self.open_failed.load(Ordering::Relaxed),
            lock_busy: self.lock_busy.load(Ordering::Relaxed),
            lock_stale: self.lock_stale.load(Ordering::Relaxed),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        let inner = self.inner.lock().expect("store lock");
        inner.entries.values().map(Vec::len).sum()
    }

    /// True when the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Declares the current analysis context: entries for the same program
    /// identity whose invalidation hash no longer matches are dropped (the
    /// input they were computed from has changed).
    pub fn note_context(&self, identity: u128, invalidation: u128) {
        let mut inner = self.inner.lock().expect("store lock");
        let mut dropped = 0u64;
        for bucket in inner.entries.values_mut() {
            bucket.retain(|e| {
                let stale = e.identity == identity && e.invalidation != invalidation;
                if stale {
                    dropped += 1;
                }
                !stale
            });
        }
        inner.entries.retain(|_, b| !b.is_empty());
        if dropped > 0 {
            inner.dirty = true;
            self.invalidated.fetch_add(dropped, Ordering::Relaxed);
            ipet_trace::counter("store.invalidated", dropped);
        }
    }

    /// Looks up a certified replay for `problem` under the given context.
    /// Mirrors the in-memory cache's gates: same structure, then exact
    /// witness re-certification. Anything less is a miss.
    pub fn probe(
        &self,
        key: Fingerprint,
        identity: u128,
        invalidation: u128,
        problem: &Problem,
    ) -> Option<(IlpResolution, IlpStats)> {
        let inner = self.inner.lock().expect("store lock");
        let mut near_hit = false;
        if let Some(bucket) = inner.entries.get(&key.0) {
            for entry in bucket {
                if entry.identity != identity || entry.invalidation != invalidation {
                    continue;
                }
                if !same_structure(&entry.problem, problem) {
                    near_hit = true;
                    continue;
                }
                let certified = round_claimed(entry.value)
                    .ok()
                    .and_then(|claimed| {
                        certify_witness(problem, &entry.x, claimed, ClaimKind::Equal).ok()
                    })
                    .is_some();
                if !certified {
                    near_hit = true;
                    continue;
                }
                self.hits.fetch_add(1, Ordering::Relaxed);
                ipet_trace::counter("store.hits", 1);
                let resolution = IlpResolution::Exact { x: entry.x.clone(), value: entry.value };
                return Some((resolution, entry.stats));
            }
        }
        if near_hit {
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
        let bucket = inner.entries.entry(key.0).or_default();
        let duplicate = bucket.iter().any(|e| {
            e.identity == identity
                && e.invalidation == invalidation
                && same_structure(&e.problem, problem)
        });
        if duplicate {
            return;
        }
        bucket.push(StoreEntry {
            key: key.0,
            identity,
            invalidation,
            problem: problem.clone(),
            x: x.clone(),
            value: *value,
            stats,
        });
        inner.dirty = true;
    }

    /// Persists every live entry with a whole-file atomic rewrite: encode,
    /// write `<path>.tmp`, fsync, rename. No-op outside
    /// [`StoreMode::ReadWrite`], and writes nothing when the store is clean
    /// (see the crate docs). Injected IO faults fire here — the N-th
    /// *writing* flush — and are reported as errors (fail) or silently
    /// persisted damage (torn / corrupt) for recovery tests.
    ///
    /// Concurrent flushes are serialized end to end (`flush_lock`): each
    /// snapshot reaches disk in the order it was taken, so a flush that
    /// returned `Ok` can never be overwritten by an older image racing
    /// through the rename. The clean check happens under the same lock, so
    /// a clean flush returns only after any in-flight write has finished.
    /// Inserts stay concurrent — only the snapshot-encode step briefly
    /// holds the entry lock.
    pub fn flush(&self) -> Result<(), String> {
        if self.mode != StoreMode::ReadWrite {
            return Ok(());
        }
        let path = self.path.clone().expect("ReadWrite store has a path");
        let _serialize = self.flush_lock.lock().expect("flush lock");
        let mut inner = self.inner.lock().expect("store lock");
        if !inner.dirty {
            return Ok(());
        }
        // Cleared at snapshot time: an insert racing the write below makes
        // the store dirty again, and so does any failure or damage.
        inner.dirty = false;
        let mut payloads: Vec<Vec<u8>> =
            inner.entries.values().flat_map(|b| b.iter().map(encode_entry)).collect();
        // Deterministic bytes: the file is a pure function of the entry
        // set, independent of insertion or hash-map order.
        payloads.sort_unstable();
        let fault = inner.faults.write_fault();
        if matches!(fault, Some(IoFault::FailWrite)) {
            inner.dirty = true;
            self.write_failed.fetch_add(1, Ordering::Relaxed);
            ipet_trace::counter("store.write_failed", 1);
            return Err(format!("{}: injected write fault", path.display()));
        }
        let mut bytes = Vec::with_capacity(256);
        bytes.extend_from_slice(STORE_MAGIC);
        let mut last_record_start = None;
        for mut payload in payloads {
            if inner.faults.record_fault() {
                inner.dirty = true;
                // Flip one payload bit *after* the checksum is computed so
                // the damage is latent until the next open.
                let crc = crc32(&payload);
                let mid = payload.len() / 2;
                payload[mid] ^= 0x40;
                last_record_start = Some(bytes.len());
                push_record_with_crc(&mut bytes, &payload, crc);
            } else {
                last_record_start = Some(bytes.len());
                push_record(&mut bytes, &payload);
            }
        }
        if matches!(fault, Some(IoFault::TornWrite)) {
            // Persist only a prefix: the final record is cut mid-payload,
            // exactly what a crash between write() calls can leave behind.
            inner.dirty = true;
            if let Some(start) = last_record_start {
                let torn = start + (bytes.len() - start) / 2;
                bytes.truncate(torn.max(start + 1));
            }
        }
        drop(inner);
        match write_atomic(&path, &bytes) {
            Ok(()) => {
                self.flushes.fetch_add(1, Ordering::Relaxed);
                ipet_trace::counter("store.flushes", 1);
                Ok(())
            }
            Err(e) => {
                self.inner.lock().expect("store lock").dirty = true;
                self.write_failed.fetch_add(1, Ordering::Relaxed);
                ipet_trace::counter("store.write_failed", 1);
                Err(format!("{}: {e}", path.display()))
            }
        }
    }

    /// Scans `bytes` as a store file, accepting good records and
    /// quarantining bad ones. Never errors: worst case is an empty store.
    fn load_scan(&mut self, bytes: &[u8]) {
        let mut loaded = 0u64;
        let mut quarantined = 0u64;
        if bytes.len() < STORE_MAGIC.len() || &bytes[..STORE_MAGIC.len()] != STORE_MAGIC {
            // Wrong magic or version: the whole file is one quarantined
            // unit — guessing at record boundaries of an unknown format
            // would be worse than starting cold.
            quarantined += 1;
            self.quarantined.fetch_add(quarantined, Ordering::Relaxed);
            ipet_trace::counter("store.quarantined", quarantined);
            return;
        }
        let inner = self.inner.get_mut().expect("store lock");
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
            match decode_entry(payload) {
                Some(entry) => {
                    loaded += 1;
                    inner.entries.entry(entry.key).or_default().push(entry);
                }
                None => quarantined += 1,
            }
        }
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
// Atomic file replacement
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
    for name in &p.names {
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
    let key = c.u128()?;
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
        key,
        identity,
        invalidation,
        problem,
        x,
        value,
        stats: IlpStats { lp_calls, nodes, first_relaxation_integral: first },
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
    let mut names = Vec::with_capacity(nvars);
    for _ in 0..nvars {
        names.push(c.str()?);
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

    #[test]
    fn crc32_known_vector() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
