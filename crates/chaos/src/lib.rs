//! Deterministic fault injection for the persistence and serving layers.
//!
//! A scatter-gather serving system is only as trustworthy as its behavior
//! when a disk write tears, an fsync fails, or a rename errors. This crate
//! supplies the machinery to *prove* that behavior instead of hoping:
//!
//! - [`FaultPlan`]: a pure-integer, FNV-seeded schedule of exactly one
//!   injected fault — fail the Nth fsync, tear the Nth write at a
//!   seed-chosen byte fraction, or error the Nth rename. No clocks, no
//!   RNG (INVARIANTS §7): the same seed always produces the same plan,
//!   so every CI failure is replayable by seed number alone.
//! - [`FaultIo`]: a [`StoreIo`] implementation wrapping the real
//!   filesystem that executes the plan once and then passes everything
//!   through — modeling a transient fault plus the recovery that follows.
//! - [`torture_seed`]: the harness. It drives a [`LiveService`] through a
//!   seed-derived workload of inserts, deletes, seals, and compactions
//!   under the plan, tracking exactly which operations were
//!   *acknowledged*, then reopens the directory with the real filesystem
//!   and asserts the recovered collection is **identical** — same
//!   documents, same stable ids, byte-identical answers across every
//!   query mode — to a clean rebuild from the acknowledged operations.
//!   Any divergence, panic, or silent drop is a reported violation; a
//!   clean typed error is the only acceptable alternative to full
//!   recovery (the no-silent-corruption rule, INVARIANTS §9).
//!
//! The `chaos-torture` binary sweeps seeds and emits a JSON report; CI
//! runs it on every push.

#![forbid(unsafe_code)]

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ustr_live::{LiveConfig, LiveService};
use ustr_service::{lock_clean, QueryBackend, QueryRequest};
use ustr_store::{RealIo, StoreFile, StoreIo};
use ustr_uncertain::UncertainString;

/// FNV-1a 64 over the little-endian bytes of `seed` then `salt`: the one
/// integer-mixing primitive every plan decision derives from.
fn fnv_mix(seed: u64, salt: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in seed.to_le_bytes().into_iter().chain(salt.to_le_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// One injectable fault. `nth` counts operations of that kind from zero
/// across the whole [`FaultIo`] lifetime (all files together).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The `nth` fsync (file `sync_data` or directory `sync_all`) fails.
    FailFsync {
        /// Zero-based fsync index at which to fail.
        nth: u64,
    },
    /// The `nth` file write is torn: only the first
    /// `len * keep_permille / 1000` bytes reach the file, then the write
    /// reports an error.
    TearWrite {
        /// Zero-based write index at which to tear.
        nth: u64,
        /// How much of the torn write survives, in thousandths.
        keep_permille: u64,
    },
    /// The `nth` rename fails (the atomic-replace primitive).
    FailRename {
        /// Zero-based rename index at which to fail.
        nth: u64,
    },
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fault::FailFsync { nth } => write!(f, "fail-fsync nth={nth}"),
            Fault::TearWrite { nth, keep_permille } => {
                write!(f, "tear-write nth={nth} keep_permille={keep_permille}")
            }
            Fault::FailRename { nth } => write!(f, "fail-rename nth={nth}"),
        }
    }
}

/// A seed-derived schedule of exactly one fault. Pure integer FNV mixing:
/// no clocks, no RNG, fully replayable from the seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// The seed the plan was derived from.
    pub seed: u64,
    /// The single fault to inject.
    pub fault: Fault,
}

impl FaultPlan {
    /// Derives the plan for `seed`. The modulus bounds are sized so the
    /// fault usually lands inside a [`torture_seed`] run (which performs
    /// a few dozen fsyncs/writes and a handful of renames); plans whose
    /// index is never reached simply report the fault as unfired.
    pub fn from_seed(seed: u64) -> Self {
        let fault = match fnv_mix(seed, 0xFA01) % 3 {
            0 => Fault::FailFsync {
                nth: fnv_mix(seed, 0xFA02) % 48,
            },
            1 => Fault::TearWrite {
                nth: fnv_mix(seed, 0xFA03) % 64,
                keep_permille: fnv_mix(seed, 0xFA04) % 1000,
            },
            _ => Fault::FailRename {
                nth: fnv_mix(seed, 0xFA05) % 6,
            },
        };
        Self { seed, fault }
    }
}

/// State shared between a [`FaultIo`] and every file handle it opened.
#[derive(Debug)]
struct FaultShared {
    fault: Fault,
    fsyncs: AtomicU64,
    writes: AtomicU64,
    renames: AtomicU64,
    fired: AtomicBool,
    note: Mutex<Option<String>>,
}

impl FaultShared {
    /// Claims the fault exactly once. Returns `true` only for the single
    /// call that fires it.
    fn fire(&self, what: &str, n: u64) -> bool {
        // ordering: Relaxed — single-shot flag; the injected io::Error itself
        // synchronizes the outcome with the caller, no cross-variable
        // ordering is needed.
        if self.fired.swap(true, Ordering::Relaxed) {
            return false;
        }
        let mut note = lock_clean(&self.note);
        *note = Some(format!("{what} #{n}"));
        true
    }

    fn injected(&self, what: &str) -> io::Error {
        io::Error::other(format!("injected fault: {what}"))
    }

    fn on_fsync(&self) -> io::Result<()> {
        // ordering: Relaxed — a monotone tally; no other memory depends on it.
        let n = self.fsyncs.fetch_add(1, Ordering::Relaxed);
        if let Fault::FailFsync { nth } = self.fault {
            if n == nth && self.fire("failed fsync", n) {
                return Err(self.injected("fsync failed"));
            }
        }
        Ok(())
    }

    fn on_rename(&self) -> io::Result<()> {
        // ordering: Relaxed — a monotone tally; no other memory depends on it.
        let n = self.renames.fetch_add(1, Ordering::Relaxed);
        if let Fault::FailRename { nth } = self.fault {
            if n == nth && self.fire("failed rename", n) {
                return Err(self.injected("rename failed"));
            }
        }
        Ok(())
    }
}

/// A [`StoreIo`] that executes one [`FaultPlan`] against the real
/// filesystem, then passes everything through untouched. Share it between
/// the service under test and the assertion code via [`Arc`]; after the
/// run, [`FaultIo::injection`] reports what fired (if anything).
#[derive(Debug)]
pub struct FaultIo {
    inner: RealIo,
    shared: Arc<FaultShared>,
}

impl FaultIo {
    /// A faulting io executing `plan` over the real filesystem.
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            inner: RealIo,
            shared: Arc::new(FaultShared {
                fault: plan.fault,
                fsyncs: AtomicU64::new(0),
                writes: AtomicU64::new(0),
                renames: AtomicU64::new(0),
                fired: AtomicBool::new(false),
                note: Mutex::new(None),
            }),
        }
    }

    /// Description of the fault that fired, or `None` while (or if) the
    /// plan's operation index was never reached.
    pub fn injection(&self) -> Option<String> {
        lock_clean(&self.shared.note).clone()
    }
}

/// A file handle that tears writes and fails fsyncs per the shared plan.
#[derive(Debug)]
struct FaultFile {
    inner: Box<dyn StoreFile>,
    shared: Arc<FaultShared>,
}

impl io::Write for FaultFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        // ordering: Relaxed — a monotone tally; no other memory depends on it.
        let n = self.shared.writes.fetch_add(1, Ordering::Relaxed);
        if let Fault::TearWrite { nth, keep_permille } = self.shared.fault {
            if n == nth && self.shared.fire("torn write", n) {
                // Land a genuine partial write in the file, then error:
                // exactly what a crash mid-write leaves behind.
                let keep = (buf.len() as u64).saturating_mul(keep_permille) / 1000;
                let keep = keep as usize;
                if keep > 0 {
                    self.inner.write_all(&buf[..keep])?;
                }
                return Err(self.shared.injected("write torn"));
            }
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl StoreFile for FaultFile {
    fn sync_data(&mut self) -> io::Result<()> {
        self.shared.on_fsync()?;
        self.inner.sync_data()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }
}

impl StoreIo for FaultIo {
    fn create(&self, path: &Path) -> io::Result<Box<dyn StoreFile>> {
        let inner = self.inner.create(path)?;
        Ok(Box::new(FaultFile {
            inner,
            shared: Arc::clone(&self.shared),
        }))
    }

    fn open_append(&self, path: &Path) -> io::Result<(Box<dyn StoreFile>, u64)> {
        let (inner, len) = self.inner.open_append(path)?;
        Ok((
            Box::new(FaultFile {
                inner,
                shared: Arc::clone(&self.shared),
            }),
            len,
        ))
    }

    fn read(&self, path: &Path) -> io::Result<Option<Vec<u8>>> {
        self.inner.read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.shared.on_rename()?;
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.shared.on_fsync()?;
        self.inner.sync_dir(dir)
    }
}

// ---------------------------------------------------------------------------
// Torture harness
// ---------------------------------------------------------------------------

/// Document pool the workload draws from (small enough that seals are
/// fast, varied enough that every query mode has hits to disagree about).
const SPECS: &[&str] = &[
    "A:.9,B:.1 | B | C | A | B",
    "C | C | C",
    "A:.5,B:.5 | B | A:.7,C:.3 | B",
    "B | A:.2,B:.8 | B",
    "A | B | A:.6,C:.4 | C",
    "B:.7,C:.3 | A | B | A:.4,B:.6",
];

/// Operations per torture run.
const NUM_OPS: u64 = 28;

/// The query battery answers are compared over: every mode, mixed taus.
fn battery() -> Vec<QueryRequest> {
    vec![
        QueryRequest::Threshold {
            pattern: b"AB".to_vec(),
            tau: 0.3,
        },
        QueryRequest::Threshold {
            pattern: b"B".to_vec(),
            tau: 0.5,
        },
        QueryRequest::TopK {
            pattern: b"AB".to_vec(),
            k: 4,
        },
        QueryRequest::Listing {
            pattern: b"B".to_vec(),
            tau: 0.4,
        },
        QueryRequest::Approx {
            pattern: b"AB".to_vec(),
            tau: 0.3,
        },
    ]
}

fn torture_config() -> LiveConfig {
    LiveConfig {
        threads: 2,
        cache_capacity: 8,
        tau_min: 0.05,
        epsilon: None,
        seal_threshold: 3,
        compact_min_segments: 2,
    }
}

/// How one torture run ended (absent a violation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The plan's operation index was never reached; the run doubled as a
    /// fault-free equivalence check.
    FaultNeverFired,
    /// The fault fired and the recovered collection matched the clean
    /// rebuild exactly.
    RecoveredIdentical {
        /// Which fault fired, with its operation index.
        injected: String,
    },
    /// The fault fired and reopening the directory surfaced a clean typed
    /// error (acceptable: never silent corruption).
    CleanError {
        /// Which fault fired, with its operation index.
        injected: String,
        /// The typed error the reopen surfaced.
        error: String,
    },
}

/// The result of one torture run.
#[derive(Debug, Clone)]
pub struct SeedReport {
    /// Seed the run was derived from.
    pub seed: u64,
    /// The plan that was injected.
    pub fault: Fault,
    /// Acknowledged inserts.
    pub acked_inserts: u64,
    /// Acknowledged deletes.
    pub acked_deletes: u64,
    /// Operations that returned an error during the run (expected under
    /// injection; every one must NOT have been applied).
    pub rejected_ops: u64,
    /// How the run ended, or `Err(description)` on a violation.
    pub outcome: Result<Outcome, String>,
}

impl SeedReport {
    fn violation(seed: u64, fault: Fault, detail: String) -> Self {
        Self {
            seed,
            fault,
            acked_inserts: 0,
            acked_deletes: 0,
            rejected_ops: 0,
            outcome: Err(detail),
        }
    }
}

/// Replays the acknowledged operations against a fresh directory on the
/// real filesystem: the ground-truth collection the recovered one must
/// match. Ids must come out identical because the service only consumes
/// an id/seq on a successful (acknowledged) append.
fn clean_rebuild(
    dir: &Path,
    inserts: &[(u64, UncertainString)],
    deletes: &[u64],
) -> Result<LiveService, String> {
    let cfg = LiveConfig {
        seal_threshold: 0,
        compact_min_segments: 0,
        ..torture_config()
    };
    let live = LiveService::open(dir, cfg).map_err(|e| format!("rebuild open failed: {e}"))?;
    for (want_id, body) in inserts {
        let got = live
            .insert(body.clone())
            .map_err(|e| format!("rebuild insert failed: {e}"))?;
        if got != *want_id {
            return Err(format!(
                "rebuild assigned id {got} where the torture run acknowledged {want_id}"
            ));
        }
    }
    for id in deletes {
        live.delete(*id)
            .map_err(|e| format!("rebuild delete of {id} failed: {e}"))?;
    }
    Ok(live)
}

/// Compares the recovered service against the clean rebuild: identical
/// live documents (ids and bodies) and byte-identical answers over the
/// whole query battery.
fn assert_equivalent(recovered: &LiveService, rebuilt: &LiveService) -> Result<(), String> {
    let got_docs = recovered.live_docs();
    let want_docs = rebuilt.live_docs();
    if got_docs != want_docs {
        let got_ids: Vec<u64> = got_docs.iter().map(|(id, _)| *id).collect();
        let want_ids: Vec<u64> = want_docs.iter().map(|(id, _)| *id).collect();
        return Err(format!(
            "recovered documents diverge from clean rebuild: got ids {got_ids:?}, want {want_ids:?}"
        ));
    }
    let requests = battery();
    let got = recovered.query_requests(&requests);
    let want = rebuilt.query_requests(&requests);
    for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        match (g, w) {
            (Ok(g), Ok(w)) => {
                if g != w {
                    return Err(format!(
                        "request {i}: recovered answer diverges from rebuild"
                    ));
                }
            }
            (g, w) => {
                return Err(format!(
                    "request {i}: unexpected error (recovered: {:?}, rebuild: {:?})",
                    g.as_ref().err(),
                    w.as_ref().err()
                ))
            }
        }
    }
    Ok(())
}

/// Runs one torture iteration under `base_dir` (two scratch
/// subdirectories are created and removed; on a violation they are left
/// behind for inspection). Deterministic end to end: the workload, the
/// fault, and the assertions all derive from `seed`.
pub fn torture_seed(seed: u64, base_dir: &Path) -> SeedReport {
    let plan = FaultPlan::from_seed(seed);
    let dir = base_dir.join(format!("seed_{seed}"));
    let rebuild_dir = base_dir.join(format!("seed_{seed}_rebuild"));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&rebuild_dir);

    let io = Arc::new(FaultIo::new(plan));
    let mut inserts: Vec<(u64, UncertainString)> = Vec::new();
    let mut deletes: Vec<u64> = Vec::new();
    let mut rejected = 0u64;

    // Phase 1: drive the service under injection. The service may refuse
    // operations (that is the point); it must never lie about one.
    let opened =
        LiveService::open_with_io(&dir, torture_config(), Arc::clone(&io) as Arc<dyn StoreIo>);
    match opened {
        Err(e) => {
            // The fault fired before the directory finished opening. The
            // directory must still recover (empty) on the real filesystem.
            let injected = io.injection().unwrap_or_else(|| "none".into());
            return match LiveService::open(&dir, torture_config()) {
                Ok(recovered) => {
                    let outcome = if recovered.live_docs().is_empty() {
                        Ok(Outcome::CleanError {
                            injected,
                            error: format!("open failed: {e}"),
                        })
                    } else {
                        Err("an empty directory recovered documents from nowhere".into())
                    };
                    drop(recovered);
                    let _ = std::fs::remove_dir_all(&dir);
                    SeedReport {
                        seed,
                        fault: plan.fault,
                        acked_inserts: 0,
                        acked_deletes: 0,
                        rejected_ops: 1,
                        outcome,
                    }
                }
                Err(reopen) => SeedReport::violation(
                    seed,
                    plan.fault,
                    format!("fresh directory unreopenable after faulted open: {reopen}"),
                ),
            };
        }
        Ok(live) => {
            for i in 0..NUM_OPS {
                let r = fnv_mix(seed, 0xB000 + i);
                match r % 8 {
                    0..=4 => {
                        let spec = SPECS[(r >> 8) as usize % SPECS.len()];
                        let body = match UncertainString::parse(spec) {
                            Ok(b) => b,
                            Err(e) => {
                                return SeedReport::violation(
                                    seed,
                                    plan.fault,
                                    format!("workload spec failed to parse: {e}"),
                                )
                            }
                        };
                        let expect_id = inserts.last().map(|(id, _)| id + 1).unwrap_or_else(|| {
                            inserts.len() as u64 // empty: next id is 0
                        });
                        match live.insert(body.clone()) {
                            Ok(id) => {
                                if id != expect_id {
                                    return SeedReport::violation(
                                        seed,
                                        plan.fault,
                                        format!(
                                            "insert acknowledged id {id}, expected {expect_id} \
                                             (a failed insert must not consume an id)"
                                        ),
                                    );
                                }
                                inserts.push((id, body));
                            }
                            Err(_) => rejected += 1,
                        }
                    }
                    5 => {
                        let deleted: std::collections::BTreeSet<u64> =
                            deletes.iter().copied().collect();
                        let alive: Vec<u64> = inserts
                            .iter()
                            .map(|(id, _)| *id)
                            .filter(|id| !deleted.contains(id))
                            .collect();
                        if alive.is_empty() {
                            continue;
                        }
                        let victim = alive[(r >> 8) as usize % alive.len()];
                        match live.delete(victim) {
                            Ok(()) => deletes.push(victim),
                            Err(_) => rejected += 1,
                        }
                    }
                    6 => {
                        if live.seal().is_err() {
                            rejected += 1;
                        }
                    }
                    _ => {
                        if live.compact().is_err() {
                            rejected += 1;
                        }
                    }
                }
            }
            // Drain background work; a background failure is an expected
            // consequence of injection, not a violation.
            let _ = live.wait_idle();
            drop(live);
        }
    }

    // Phase 2: recover on the real filesystem and compare against a clean
    // rebuild of the acknowledged history.
    let injected = io.injection();
    let outcome = match LiveService::open(&dir, torture_config()) {
        Err(e) => match injected.clone() {
            Some(injected) => Ok(Outcome::CleanError {
                injected,
                error: e.to_string(),
            }),
            None => Err(format!("reopen failed without any injected fault: {e}")),
        },
        Ok(recovered) => {
            let result = clean_rebuild(&rebuild_dir, &inserts, &deletes)
                .and_then(|rebuilt| {
                    let r = assert_equivalent(&recovered, &rebuilt);
                    drop(rebuilt);
                    r
                })
                .map(|()| match injected.clone() {
                    Some(injected) => Outcome::RecoveredIdentical { injected },
                    None => Outcome::FaultNeverFired,
                });
            drop(recovered);
            result
        }
    };
    if outcome.is_ok() {
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&rebuild_dir);
    }
    SeedReport {
        seed,
        fault: plan.fault,
        acked_inserts: inserts.len() as u64,
        acked_deletes: deletes.len() as u64,
        rejected_ops: rejected,
        outcome,
    }
}

/// [`torture_seed`] with a panic guard: a panic anywhere in the run is
/// reported as a violation (the no-panic half of the no-silent-corruption
/// rule) instead of tearing down the sweep.
pub fn torture_seed_guarded(seed: u64, base_dir: &Path) -> SeedReport {
    let base: PathBuf = base_dir.to_path_buf();
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        torture_seed(seed, &base)
    })) {
        Ok(report) => report,
        Err(payload) => {
            let detail = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".into());
            SeedReport::violation(
                seed,
                FaultPlan::from_seed(seed).fault,
                format!("panicked: {detail}"),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_and_cover_every_fault_kind() {
        let mut fsyncs = 0;
        let mut tears = 0;
        let mut renames = 0;
        for seed in 0..64 {
            let a = FaultPlan::from_seed(seed);
            let b = FaultPlan::from_seed(seed);
            assert_eq!(a, b, "seed {seed}: plan must be a pure function");
            match a.fault {
                Fault::FailFsync { .. } => fsyncs += 1,
                Fault::TearWrite { .. } => tears += 1,
                Fault::FailRename { .. } => renames += 1,
            }
        }
        assert!(
            fsyncs > 0 && tears > 0 && renames > 0,
            "{fsyncs}/{tears}/{renames}"
        );
    }

    #[test]
    fn fault_io_fires_exactly_once() {
        let dir = std::env::temp_dir().join("ustr_chaos_once");
        std::fs::create_dir_all(&dir).unwrap();
        let io = FaultIo::new(FaultPlan {
            seed: 0,
            fault: Fault::FailFsync { nth: 1 },
        });
        let path = dir.join("f.bin");
        let mut f = io.create(&path).unwrap();
        use std::io::Write as _;
        f.write_all(b"x").unwrap();
        f.sync_data().unwrap(); // fsync #0: passes
        assert!(io.injection().is_none());
        assert!(f.sync_data().is_err(), "fsync #1 must fail");
        assert!(io.injection().unwrap().contains("fsync"));
        f.sync_data().unwrap(); // one-shot: later fsyncs pass
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_writes_leave_a_partial_prefix() {
        let dir = std::env::temp_dir().join("ustr_chaos_tear");
        std::fs::create_dir_all(&dir).unwrap();
        let io = FaultIo::new(FaultPlan {
            seed: 0,
            fault: Fault::TearWrite {
                nth: 0,
                keep_permille: 500,
            },
        });
        let path = dir.join("torn.bin");
        let mut f = io.create(&path).unwrap();
        use std::io::Write as _;
        assert!(f.write_all(b"0123456789").is_err());
        drop(f);
        assert_eq!(std::fs::read(&path).unwrap(), b"01234");
        let _ = std::fs::remove_file(&path);
    }
}
