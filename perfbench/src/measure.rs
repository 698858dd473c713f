//! Measurement helpers: latency samples, process memory, on-disk size,
//! and a counting filesystem seam for the store.

use std::cell::Cell;
use std::io::{self, Write};
use std::path::Path;

use ustr_store::{RealIo, StoreFile, StoreIo};

/// Latency samples in microseconds.
#[derive(Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, us: f64) {
        self.0.push(us);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn mean(&self) -> f64 {
        self.0.iter().sum::<f64>() / self.0.len().max(1) as f64
    }

    /// Nearest-rank percentile, `q` in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        match sorted.len() {
            0 => 0.0,
            n => sorted[((q * n as f64).ceil() as usize).clamp(1, n) - 1],
        }
    }
}

/// Latency samples cut into consecutive time slices, each with the share
/// of the machine's CPU time the hypervisor stole during it. Percentiles
/// and rates are the median over the quietest quarter of the slices (least
/// steal), so host noise that hits part of the run does not move them; the
/// tail beyond a slice's reach (p99, p99.9) is taken over all samples.
pub struct Sliced {
    pub all: Samples,
    slices: Vec<Slice>,
    current: Samples,
    /// `cpu_ticks()` when the current slice began.
    ticks: (u64, u64),
}

struct Slice {
    lat: Samples,
    secs: f64,
    steal_pct: f64,
}

impl Sliced {
    pub fn new() -> Self {
        Self {
            all: Samples::default(),
            slices: Vec::new(),
            current: Samples::default(),
            ticks: cpu_ticks(),
        }
    }

    pub fn push(&mut self, us: f64) {
        self.all.push(us);
        self.current.push(us);
    }

    /// Starts a new slice after a pause in the measurement.
    pub fn restart(&mut self) {
        self.current = Samples::default();
        self.ticks = cpu_ticks();
    }

    /// Ends the current slice, which lasted `secs`.
    pub fn close(&mut self, secs: f64) {
        let steal_pct = steal_pct_since(self.ticks);
        self.ticks = cpu_ticks();
        let lat = std::mem::take(&mut self.current);
        if lat.len() > 0 {
            self.slices.push(Slice {
                lat,
                secs,
                steal_pct,
            });
        }
    }

    /// The quarter of the slices (rounded up) with the least steal. Among
    /// equally quiet slices every fourth comes first, so on a quiet host
    /// the choice spreads over the whole run.
    fn quiet(&self) -> Vec<&Slice> {
        let mut by_steal: Vec<(usize, &Slice)> = self.slices.iter().enumerate().collect();
        by_steal.sort_by(|(i, a), (j, b)| {
            a.steal_pct
                .total_cmp(&b.steal_pct)
                .then((i % 4).cmp(&(j % 4)))
        });
        by_steal.truncate(self.slices.len().div_ceil(4));
        by_steal.into_iter().map(|(_, s)| s).collect()
    }

    pub fn quantile(&self, q: f64) -> f64 {
        median(
            &self
                .quiet()
                .iter()
                .map(|s| s.lat.quantile(q))
                .collect::<Vec<_>>(),
        )
    }

    /// Samples per second.
    pub fn rate(&self) -> f64 {
        median(
            &self
                .quiet()
                .iter()
                .map(|s| s.lat.len() as f64 / s.secs)
                .collect::<Vec<_>>(),
        )
    }

    /// Mean steal over the slices the statistics use, in percent.
    pub fn steal_pct(&self) -> f64 {
        let quiet = self.quiet();
        quiet.iter().map(|s| s.steal_pct).sum::<f64>() / quiet.len().max(1) as f64
    }
}

/// Median of a small set of measurements.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Resident set size of this process in MiB (`VmRSS`), read after free
/// heap pages are handed back, so memory released by earlier set-ups in
/// the run does not count.
pub fn rss_mb() -> f64 {
    release_free_heap();
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's malloc_trim takes no pointers and only returns free
    // heap memory to the system; it is safe to call from any thread.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_heap() {}

/// Cumulative `(steal, total)` CPU time of the machine in clock ticks,
/// from the `cpu` line of `/proc/stat`; zeros where it cannot be read.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Share of the machine's CPU time the hypervisor stole since `before`
/// (a [`cpu_ticks`] reading), in percent.
fn steal_pct_since(before: (u64, u64)) -> f64 {
    let (steal, total) = cpu_ticks();
    100.0 * (steal - before.0) as f64 / (total - before.1).max(1) as f64
}

/// Total size in bytes of the regular files under `path`.
pub fn disk_bytes(path: &Path) -> u64 {
    let Ok(meta) = std::fs::metadata(path) else {
        return 0;
    };
    if meta.is_file() {
        return meta.len();
    }
    std::fs::read_dir(path)
        .map(|entries| entries.flatten().map(|e| disk_bytes(&e.path())).sum())
        .unwrap_or(0)
}

thread_local! {
    static THREAD_SYNCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note_sync() {
    THREAD_SYNCS.with(|c| c.set(c.get() + 1));
}

fn note_bytes(n: usize) {
    THREAD_BYTES.with(|c| c.set(c.get() + n as u64));
}

/// `(fsyncs, bytes written)` through [`CountingIo`] on the calling thread.
pub fn thread_io() -> (u64, u64) {
    (THREAD_SYNCS.with(Cell::get), THREAD_BYTES.with(Cell::get))
}

/// The real filesystem, counting file and directory fsyncs and bytes
/// written by each thread.
#[derive(Debug, Default)]
pub struct CountingIo;

#[derive(Debug)]
struct CountingFile(Box<dyn StoreFile>);

impl Write for CountingFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.0.write(buf)?;
        note_bytes(n);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

impl StoreFile for CountingFile {
    fn sync_data(&mut self) -> io::Result<()> {
        note_sync();
        self.0.sync_data()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }
}

impl StoreIo for CountingIo {
    fn create(&self, path: &Path) -> io::Result<Box<dyn StoreFile>> {
        Ok(Box::new(CountingFile(RealIo.create(path)?)))
    }

    fn open_append(&self, path: &Path) -> io::Result<(Box<dyn StoreFile>, u64)> {
        let (file, len) = RealIo.open_append(path)?;
        Ok((Box::new(CountingFile(file)), len))
    }

    fn read(&self, path: &Path) -> io::Result<Option<Vec<u8>>> {
        RealIo.read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        RealIo.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        RealIo.remove_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        note_sync();
        RealIo.sync_dir(dir)
    }
}
