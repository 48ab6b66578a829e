//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! each layer's public functions; nothing inside the program is
//! instrumented. A span carries its name, start, end, parent and call
//! id. A layer's self time is its span's duration minus the time its
//! child spans cover. Spans named `probe.*` time calls the program does
//! not make; they are reported on their own and kept out of every sum.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's origin.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub call: u64,
}

/// Per-name totals over every span of that name.
#[derive(Default, Clone, Copy)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl LayerTime {
    /// Mean self time per span, in µs.
    pub fn mean_self_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e3
        }
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    call: u64,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            call: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Tag the spans opened from now on with `call`.
    pub fn set_call(&mut self, call: u64) {
        self.call = call;
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            call: self.call,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        let closed = self.open.pop();
        assert_eq!(closed, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Per-name count, total and self time. A `probe.*` child is not
    /// subtracted from its parent's self time: it is subtracted from the
    /// parent's duration instead, as if the probe had not run.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut probe_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let d = s.end_ns - s.start_ns;
                if s.name.starts_with("probe.") {
                    probe_ns[p] += d;
                } else {
                    child_ns[p] += d;
                }
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let total = s.end_ns - s.start_ns - probe_ns[i];
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += total;
            e.self_ns += total - child_ns[i];
        }
        out
    }

    /// Write every span as a tab-separated line:
    /// `call name start_ns end_ns parent` (`-` for a root).
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "call\tname\tstart_ns\tend_ns\tparent")?;
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{parent}",
                s.call, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}
