//! In-memory spans around the library's public calls.
//!
//! A span records its name, start, end and parent. Spans are kept in a
//! vector while the benchmark runs and written out once it ends; a span's
//! self time is its duration minus the time its direct children cover
//! (calls are sequential, so children never overlap).

use bench::wallclock::Stopwatch;

pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Tracer {
    origin: Stopwatch,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Stopwatch::start(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, a child of the innermost open
    /// span. `f` gets the tracer back to open child spans.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Index of the most recently closed span named `name`.
    pub fn last(&self, name: &str) -> Option<usize> {
        self.spans.iter().rposition(|s| s.name == name)
    }

    /// Whether span `id` lies under span `root` (or is it).
    pub fn within(&self, mut id: usize, root: usize) -> bool {
        loop {
            if id == root {
                return true;
            }
            match self.spans[id].parent {
                Some(p) => id = p,
                None => return false,
            }
        }
    }

    /// Durations (ms) of every span named `name` under `root`.
    pub fn durations_under(&self, root: usize, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .enumerate()
            .filter(|(i, s)| s.name == name && self.within(*i, root))
            .map(|(_, s)| s.ms())
            .collect()
    }

    /// Total duration (ms) of the spans named `name` under `root`.
    pub fn total_under(&self, root: usize, name: &str) -> f64 {
        self.durations_under(root, name).iter().sum()
    }

    /// Self time (ms) of every span: its duration minus its children's.
    pub fn self_ms(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::ms).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.ms();
            }
        }
        own
    }

    /// One line per span name, in first-seen order: count, total and self
    /// time. The table a reader scans for the layer that dominates.
    pub fn table(&self) -> Vec<String> {
        let own = self.self_ms();
        let mut names: Vec<&'static str> = Vec::new();
        for s in &self.spans {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
        }
        names
            .into_iter()
            .map(|name| {
                let (mut n, mut total, mut own_total) = (0usize, 0.0, 0.0);
                for (s, o) in self.spans.iter().zip(&own) {
                    if s.name == name {
                        n += 1;
                        total += s.ms();
                        own_total += o;
                    }
                }
                format!("span {name:<34} n={n:<6} total_ms={total:<12.3} self_ms={own_total:.3}")
            })
            .collect()
    }

    /// Every span as one JSON object per line.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}\n",
                s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}
