//! In-memory span recording and the hand-written JSON the binary emits.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// One recorded span: a call into a layer, timed from outside.
struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    run: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Records spans from any thread; nothing is written until
/// [`to_json`](Self::to_json). Times are nanoseconds since the Unix epoch
/// (an `Instant` offset from one wall-clock reading), so the Python side
/// can merge them with its own spans.
pub struct Tracer {
    epoch: Instant,
    epoch_unix_ns: u64,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        let epoch_unix_ns =
            SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_nanos() as u64).unwrap_or(0);
        Tracer {
            epoch: Instant::now(),
            epoch_unix_ns,
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch_unix_ns + self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` under a span named `name`; `f` receives the span's id to
    /// parent the spans it opens. `run` is the run id (0 for campaign-wide
    /// work).
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        run: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        // Relaxed: the id only has to be unique, it publishes nothing.
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans.lock().expect("a thread panicked while recording a span").push(Span {
            id,
            parent,
            name,
            run,
            start_ns,
            end_ns,
        });
        out
    }

    /// The spans as a JSON array of `[id, parent, name, run, start_ns, end_ns]`.
    pub fn to_json(&self) -> String {
        let spans = self.spans.lock().expect("a thread panicked while recording a span");
        let rows: Vec<String> = spans
            .iter()
            .map(|s| {
                format!(
                    "[{}, {}, \"{}\", {}, {}, {}]",
                    s.id, s.parent, s.name, s.run, s.start_ns, s.end_ns
                )
            })
            .collect();
        format!("[{}]", rows.join(", "))
    }
}

/// A JSON object built field by field.
pub struct Obj(Vec<String>);

impl Obj {
    pub fn new() -> Self {
        Obj(Vec::new())
    }

    pub fn raw(&mut self, key: &str, json: String) {
        self.0.push(format!("\"{}\": {json}", escape(key)));
    }

    pub fn num(&mut self, key: &str, v: f64) {
        self.raw(key, number(v));
    }

    pub fn int(&mut self, key: &str, v: u64) {
        self.raw(key, v.to_string());
    }

    pub fn str(&mut self, key: &str, v: &str) {
        self.raw(key, format!("\"{}\"", escape(v)));
    }

    pub fn list(&mut self, key: &str, values: impl Iterator<Item = f64>) {
        self.raw(key, format!("[{}]", values.map(number).collect::<Vec<_>>().join(", ")));
    }

    pub fn layers(&mut self, layers: Vec<(String, f64)>) {
        let mut obj = Obj::new();
        for (name, v) in layers {
            obj.num(&name, v);
        }
        self.raw("layers", obj.finish());
    }

    pub fn finish(self) -> String {
        format!("{{{}}}", self.0.join(", "))
    }
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
