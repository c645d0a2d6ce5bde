//! In-memory spans and the forwarding seams that record them.
//!
//! Every span is recorded from the benchmark's own files, around calls into
//! the program's public surfaces; nothing inside the program is changed.
//! Spans stay in memory until the run ends. Untraced runs never install a
//! seam, so they measure the program as shipped.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use warper_ce::{CardinalityEstimator, LabeledExample, UpdateKind};
use warper_durable::{Vfs, VfsError};
use warper_serve::net::{ByteStream, Dialer, NetError};

/// Nanoseconds since the first call in this process: the one clock that
/// request records and spans share.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One recorded span. Times are [`now_ns`] readings.
#[derive(Debug, Clone)]
pub struct Span {
    pub sid: u64,
    /// The enclosing span on the same thread (0 = none).
    pub parent: u64,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Request or invocation id the span belongs to (0 = none).
    pub id: u64,
    /// Feature-bit keys of the requests a span served (GEMM spans only).
    pub keys: Vec<u64>,
    /// Bytes moved (I/O spans only).
    pub bytes: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

struct Recorder {
    on: AtomicBool,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static REC: Recorder = Recorder {
    on: AtomicBool::new(false),
    next: AtomicU64::new(1),
    spans: Mutex::new(Vec::new()),
};

thread_local! {
    /// (open span id, its request/invocation id) on this thread.
    static CUR: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Starts recording.
pub fn start() {
    REC.spans
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
    REC.on.store(true, Ordering::Release);
}

/// Stops recording and hands over every span recorded since [`start`].
pub fn stop() -> Vec<Span> {
    REC.on.store(false, Ordering::Release);
    std::mem::take(&mut *REC.spans.lock().unwrap_or_else(PoisonError::into_inner))
}

pub fn enabled() -> bool {
    REC.on.load(Ordering::Acquire)
}

/// Runs `f` inside a span named `name`. `id` 0 inherits the enclosing
/// span's id. Returns `f`'s result unchanged.
pub fn span<R>(name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
    span_with(name, id, Vec::new, f).0
}

/// [`span`] that also attaches feature keys and reports the byte count `f`
/// returns alongside its result.
pub fn span_with<R>(
    name: &'static str,
    id: u64,
    keys: impl FnOnce() -> Vec<u64>,
    f: impl FnOnce() -> R,
) -> (R, u64) {
    if !enabled() {
        return (f(), 0);
    }
    let sid = REC.next.fetch_add(1, Ordering::Relaxed);
    let (parent, parent_id) = CUR.with(Cell::get);
    let id = if id == 0 { parent_id } else { id };
    CUR.with(|c| c.set((sid, id)));
    let start = now_ns();
    let r = f();
    let end = now_ns();
    CUR.with(|c| c.set((parent, parent_id)));
    let keys = keys();
    REC.spans
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(Span {
            sid,
            parent,
            name,
            start,
            end,
            id,
            keys,
            bytes: 0,
        });
    (r, sid)
}

/// Adds `bytes` to the span `sid` (recorded after the fact by I/O seams).
fn note_bytes(sid: u64, bytes: u64) {
    if sid == 0 {
        return;
    }
    let mut spans = REC.spans.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(s) = spans.iter_mut().rev().find(|s| s.sid == sid) {
        s.bytes = bytes;
    }
}

/// The key linking a request to the GEMM that answered it: a hash of its
/// feature bits.
pub fn feature_key(features: &[f64]) -> u64 {
    // FNV-1a over the bit patterns.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in features {
        for b in f.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Self time of every span: its duration minus the union of its
/// same-thread children's intervals. Indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.sid) else {
                return s.dur();
            };
            kids.sort_unstable();
            let (mut covered, mut cur) = (0u64, None::<(u64, u64)>);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start), b.min(s.end));
                if b <= a {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.dur().saturating_sub(covered)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// net: a forwarding ByteStream handed out by the benchmark's own Dialer.
// ---------------------------------------------------------------------------

/// Dials `addr` through `net::tcp::dial` and wraps the socket so its reads
/// and writes record `net.read` / `net.write` spans.
pub struct TraceDialer {
    pub addr: String,
    pub connect_timeout: Duration,
}

impl Dialer for TraceDialer {
    fn endpoints(&self) -> usize {
        1
    }

    fn dial(&mut self, _endpoint: usize) -> Result<Box<dyn ByteStream>, NetError> {
        let inner = warper_serve::net::tcp::dial(&self.addr, self.connect_timeout)?;
        Ok(Box::new(TraceStream {
            inner: Box::new(inner),
        }))
    }
}

struct TraceStream {
    inner: Box<dyn ByteStream>,
}

impl ByteStream for TraceStream {
    fn write_all(&mut self, buf: &[u8]) -> Result<(), NetError> {
        let (r, sid) = span_with("net.write", 0, Vec::new, || self.inner.write_all(buf));
        note_bytes(sid, buf.len() as u64);
        r
    }

    fn read_some(&mut self, buf: &mut [u8]) -> Result<usize, NetError> {
        let (r, sid) = span_with("net.read", 0, Vec::new, || self.inner.read_some(buf));
        if let Ok(n) = r {
            note_bytes(sid, n as u64);
        }
        r
    }

    fn set_read_deadline(&mut self, d: Option<Duration>) -> Result<(), NetError> {
        self.inner.set_read_deadline(d)
    }

    fn set_write_deadline(&mut self, d: Option<Duration>) -> Result<(), NetError> {
        self.inner.set_write_deadline(d)
    }

    fn try_clone(&self) -> Result<Box<dyn ByteStream>, NetError> {
        Ok(Box::new(TraceStream {
            inner: self.inner.try_clone()?,
        }))
    }

    fn shutdown(&self) {
        self.inner.shutdown();
    }
}

// ---------------------------------------------------------------------------
// ce: a forwarding estimator around the already-quantized serving model.
// ---------------------------------------------------------------------------

/// Wraps the *serving* copy inside the shared base snapshot. It must never
/// wrap an adaptation-side model: quantization and checkpoint encoding
/// downcast to the concrete model type, and a wrapper there would silently
/// change what is served and persisted.
pub struct TraceCe {
    pub inner: Box<dyn CardinalityEstimator>,
}

impl CardinalityEstimator for TraceCe {
    fn feature_dim(&self) -> usize {
        self.inner.feature_dim()
    }

    fn estimate(&self, features: &[f64]) -> f64 {
        self.inner.estimate(features)
    }

    fn estimate_many(&self, queries: &[&[f64]]) -> Vec<f64> {
        span_with(
            "ce.estimate_many",
            0,
            || queries.iter().map(|q| feature_key(q)).collect(),
            || self.inner.estimate_many(queries),
        )
        .0
    }

    fn fit(&mut self, examples: &[LabeledExample]) {
        self.inner.fit(examples);
    }

    fn update(&mut self, examples: &[LabeledExample]) {
        self.inner.update(examples);
    }

    fn update_kind(&self) -> UpdateKind {
        self.inner.update_kind()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn snapshot(&self) -> Option<Box<dyn CardinalityEstimator>> {
        self.inner.snapshot()
    }

    fn restore(&mut self, snapshot: &dyn CardinalityEstimator) -> bool {
        self.inner.restore(snapshot)
    }
}

// ---------------------------------------------------------------------------
// durable: a forwarding Vfs around StdVfs with I/O counters.
// ---------------------------------------------------------------------------

/// Counts and busy time of the durable layer's I/O.
#[derive(Default)]
pub struct VfsCounters {
    pub appends: AtomicU64,
    pub fsyncs: AtomicU64,
    pub renames: AtomicU64,
    pub dir_syncs: AtomicU64,
    pub bytes: AtomicU64,
    pub busy_ns: AtomicU64,
}

pub struct TraceVfs {
    pub inner: Arc<dyn Vfs>,
    pub counters: Arc<VfsCounters>,
}

impl TraceVfs {
    fn timed<R>(&self, name: &'static str, count: &AtomicU64, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = span(name, 0, f);
        count.fetch_add(1, Ordering::Relaxed);
        self.counters
            .busy_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        r
    }
}

impl Vfs for TraceVfs {
    fn list(&self) -> Result<Vec<String>, VfsError> {
        self.inner.list()
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, VfsError> {
        self.inner.read(name)
    }

    fn create(&self, name: &str) -> Result<(), VfsError> {
        self.inner.create(name)
    }

    fn append(&self, name: &str, data: &[u8]) -> Result<(), VfsError> {
        self.counters
            .bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.timed("durable.append", &self.counters.appends, || {
            self.inner.append(name, data)
        })
    }

    fn truncate(&self, name: &str, len: u64) -> Result<(), VfsError> {
        self.inner.truncate(name, len)
    }

    fn fsync(&self, name: &str) -> Result<(), VfsError> {
        self.timed("durable.fsync", &self.counters.fsyncs, || self.inner.fsync(name))
    }

    fn rename(&self, from: &str, to: &str) -> Result<(), VfsError> {
        self.timed("durable.rename", &self.counters.renames, || {
            self.inner.rename(from, to)
        })
    }

    fn remove(&self, name: &str) -> Result<(), VfsError> {
        self.inner.remove(name)
    }

    fn sync_dir(&self) -> Result<(), VfsError> {
        self.timed("durable.sync_dir", &self.counters.dir_syncs, || {
            self.inner.sync_dir()
        })
    }

    fn size(&self, name: &str) -> Result<u64, VfsError> {
        self.inner.size(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(sid: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            sid,
            parent,
            name: "x",
            start,
            end,
            id: 0,
            keys: Vec::new(),
            bytes: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            sp(1, 0, 0, 100),
            sp(2, 1, 10, 30),
            sp(3, 1, 20, 40), // overlaps 2: union 10..40
            sp(4, 1, 90, 120), // clipped to 90..100
            sp(5, 0, 0, 7),
        ];
        assert_eq!(self_times(&spans), vec![100 - 30 - 10, 20, 20, 30, 7]);
    }

    #[test]
    fn feature_keys_follow_the_bits() {
        assert_eq!(feature_key(&[1.0, 2.0]), feature_key(&[1.0, 2.0]));
        assert_ne!(feature_key(&[1.0, 2.0]), feature_key(&[2.0, 1.0]));
        assert_ne!(feature_key(&[0.0]), feature_key(&[-0.0]));
    }
}
