//! In-memory spans recorded from outside the program: around the
//! benchmark's calls into each crate, and inside the natives the
//! daemons call back. Spans are written out only when a sample ends.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    /// Daemon that ran a native span; `None` for spans on the main thread.
    pub daemon: Option<u16>,
    /// Workload-defined identity: block index, walker id, or B-block id.
    pub key: i64,
    /// Virtual-time step of a matmul span, else 0.
    pub step: i64,
}

/// A thread-safe span sink shared by the main thread and the natives.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    /// Parent given to native spans: the span around `ThreadCluster::run`.
    native_parent: AtomicUsize,
}

const NO_PARENT: usize = usize::MAX;

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            // Room for every span of the largest workload (walker: 8192
            // laps), so the vector never grows during a run.
            spans: Mutex::new(Vec::with_capacity(16_384)),
            native_parent: AtomicUsize::new(NO_PARENT),
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) -> usize {
        let mut spans = self.spans.lock().expect("span sink poisoned by a panicking native");
        spans.push(span);
        spans.len() - 1
    }

    /// Time `f` as a main-thread span under `parent`.
    pub fn time<T>(&self, name: &'static str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.push(Span { name, start, end, parent, daemon: None, key: 0, step: 0 });
        out
    }

    /// Open a main-thread span whose end is set by [`Spans::close`].
    pub fn open(&self, name: &'static str, parent: Option<usize>) -> usize {
        let start = self.now();
        self.push(Span { name, start, end: start, parent, daemon: None, key: 0, step: 0 })
    }

    pub fn close(&self, id: usize) {
        let end = self.now();
        self.spans.lock().expect("span sink poisoned by a panicking native")[id].end = end;
    }

    /// Make `id` the parent of every native span recorded from now on.
    /// Called before `ThreadCluster::run` spawns the daemon threads, and
    /// the spawn orders this store before their loads, so `Relaxed` holds.
    pub fn adopt_natives(&self, id: usize) {
        self.native_parent.store(id, Ordering::Relaxed);
    }

    /// Record one native call that ran on `daemon` from `start` to now.
    pub fn native(&self, name: &'static str, start: u64, daemon: u16, key: i64, step: i64) {
        let end = self.now();
        let parent = match self.native_parent.load(Ordering::Relaxed) {
            NO_PARENT => None,
            p => Some(p),
        };
        self.push(Span { name, start, end, parent, daemon: Some(daemon), key, step });
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span sink poisoned by a panicking native").clone()
    }
}

/// One JSON object per line: `run`, `id`, `name`, `start_ns`, `end_ns`,
/// `parent`, `daemon`, `key`, `step`.
pub fn to_jsonl(run: &str, spans: &[Span]) -> String {
    let mut out = String::new();
    let opt = |v: Option<usize>| v.map_or("null".to_string(), |p| p.to_string());
    for (id, s) in spans.iter().enumerate() {
        let _ = writeln!(
            out,
            "{{\"run\": \"{run}\", \"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
             \"parent\": {}, \"daemon\": {}, \"key\": {}, \"step\": {}}}",
            s.name,
            s.start,
            s.end,
            opt(s.parent),
            s.daemon.map_or("null".to_string(), |d| d.to_string()),
            s.key,
            s.step,
        );
    }
    out
}
