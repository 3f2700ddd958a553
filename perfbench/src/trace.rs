//! Tracing from outside the program: spans around the public calls the
//! benchmark makes, an allocation counter, and the process's memory
//! high-water mark.
//!
//! Spans stay in memory while the run measures and are written out as
//! JSON lines when it ends. Nothing here is active in an untraced run:
//! the recorder is `None` and the allocation counter stays disarmed, so
//! the end-to-end figures are measured without tracing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// One timed interval. `id` ties a request's spans together; layer
/// spans use `(0, 0)`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer and call, e.g. `service.launch_opts`.
    pub name: &'static str,
    /// `(session, request)` for request spans.
    pub id: (u64, u64),
    /// Name of the enclosing phase span (`setup`, `load`, `teardown`),
    /// if any.
    pub parent: Option<&'static str>,
    /// Start, microseconds since the run's epoch.
    pub start_us: u64,
    /// End, microseconds since the run's epoch.
    pub end_us: u64,
}

/// In-memory span store for one run.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder whose clock starts at `epoch`.
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Microseconds from the epoch to `at`.
    pub fn us(&self, at: Instant) -> u64 {
        micros(at.saturating_duration_since(self.epoch))
    }

    /// Record a finished layer span.
    pub fn layer(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        from: Instant,
        to: Instant,
    ) {
        self.push(Span {
            name,
            id: (0, 0),
            parent,
            start_us: self.us(from),
            end_us: self.us(to),
        });
    }

    /// Record a span already expressed on the run's clock.
    pub fn push(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// Write every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":[{},{}],\"parent\":{},\"start_us\":{},\"end_us\":{}}}",
                s.name,
                s.id.0,
                s.id.1,
                s.parent
                    .map_or_else(|| "null".to_string(), |p| format!("\"{p}\"")),
                s.start_us,
                s.end_us
            );
        }
        std::fs::write(path, out)
    }
}

/// Run `f` and record it as a layer span when tracing.
pub fn timed<T>(
    rec: &mut Option<Recorder>,
    name: &'static str,
    parent: Option<&'static str>,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let from = Instant::now();
    let out = f();
    let to = Instant::now();
    if let Some(r) = rec.as_mut() {
        r.layer(name, parent, from, to);
    }
    (out, to.duration_since(from).as_secs_f64())
}

/// Whole microseconds in `d`, saturating.
pub fn micros(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Counts allocations (alloc, alloc_zeroed, realloc) while armed.
pub struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to the system allocator with the
// caller's arguments unchanged; the counter is a side statistic that
// touches no allocated memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is the system allocator's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` was allocated by this allocator, which is the
        // system allocator, with `layout`; the caller upholds the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by the system allocator with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn count() {
    if ARMED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Start counting allocations (traced runs only).
pub fn arm_alloc_counter() {
    ARMED.store(true, Ordering::Relaxed);
}

/// Allocations counted since the counter was armed.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// CPU time the whole process has used so far, user and system, over
/// all its threads (exited ones too), in microseconds, from
/// `/proc/self/stat`. The kernel reports it in clock ticks of 10 ms
/// (`USER_HZ` is 100 on Linux). Time the hypervisor steals from the
/// machine is not counted.
///
/// # Errors
///
/// Fails where that file is missing or unreadable.
pub fn process_cpu_us() -> io::Result<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat")?;
    let bad = || io::Error::new(io::ErrorKind::InvalidData, "unexpected /proc/self/stat");
    // The command name may hold spaces; the fields after it do not.
    let rest = stat.rsplit_once(')').ok_or_else(bad)?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the line: indexes 11 and
    // 12 after the name.
    let ticks = |i: usize| -> io::Result<u64> {
        fields.get(i).and_then(|f| f.parse().ok()).ok_or_else(bad)
    };
    Ok((ticks(11)? + ticks(12)?) * 10_000)
}

/// CPU time the calling thread has used so far, in nanoseconds, from
/// `/proc/thread-self/schedstat`.
///
/// # Errors
///
/// Fails where that file is missing or unreadable.
pub fn thread_cpu_ns() -> io::Result<u64> {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat")?;
    stat.split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unexpected schedstat"))
}

/// Time the hypervisor has stolen from all of the machine's CPUs so
/// far, in clock ticks of 10 ms, from `/proc/stat`.
///
/// # Errors
///
/// Fails where that file is missing or unreadable.
pub fn steal_ticks() -> io::Result<u64> {
    let stat = std::fs::read_to_string("/proc/stat")?;
    stat.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|f| f.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unexpected /proc/stat"))
}

/// The process's resident-set high-water mark in MiB, from
/// `/proc/self/status`.
///
/// # Errors
///
/// Fails where that file or its `VmHWM` line is missing.
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no VmHWM in /proc/self/status"))
}
