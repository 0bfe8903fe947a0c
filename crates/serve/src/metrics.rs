//! A unified metrics registry with Prometheus text exposition.
//!
//! Every operational signal the serving stack produces — request totals,
//! latency histograms, cache hit/miss counters, queue-depth gauges —
//! funnels through one [`MetricsRegistry`]. Transports render it as the
//! `GET /metrics` Prometheus endpoint; the JSON `stats`/`routes` verbs
//! read the *same* handles, so there is exactly one source of truth for
//! every number (pinned by tests in `ccsa-gateway`).
//!
//! Hot-path cost is one atomic op per event: [`Counter`] and [`Gauge`]
//! are `Arc<AtomicU64>` handles (gauges store f64 bits), and a
//! [`Histogram`] observation is one bucket `fetch_add`, one count
//! `fetch_add`, and one CAS-loop sum update — no locks, no allocation.
//! The registry's `RwLock` is touched only at registration (once per
//! series) and at scrape time.
//!
//! Values that are cheap snapshots rather than event streams (per-shard
//! queue depths, cache length, model table) come from **collectors**:
//! closures registered once and invoked at scrape time, mirroring the
//! Prometheus client-library collector pattern. `ccsa_uptime_seconds`
//! and `ccsa_build_info` are built in — every registry exposes them.
//!
//! The text format follows the Prometheus exposition format version
//! 0.0.4: `# HELP`/`# TYPE` headers, escaped label values, cumulative
//! `le` buckets ending in `+Inf`, and `_sum`/`_count` series per
//! histogram.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::lockdep::DRwLock;
use std::time::Instant;

/// Build identity baked in at compile time: the crate version and the
/// `git describe` of the checkout that built it ("unknown" outside git).
pub fn build_info() -> (&'static str, &'static str) {
    (env!("CARGO_PKG_VERSION"), env!("CCSA_GIT_DESCRIBE"))
}

/// The tensor kernel backend this process computes with — `scalar`,
/// `avx2` or `avx512` — resolving `CCSA_KERNEL` if nothing has yet.
/// `scalar` and the FMA backends differ in last ulps, so the `stats`
/// verb reports it; the binaries call this before they bind a socket.
///
/// # Panics
///
/// Panics (see [`ccsa_tensor::kernels::active`]) if `CCSA_KERNEL` names
/// no backend, or one this host lacks.
pub fn kernel_backend() -> ccsa_tensor::KernelBackend {
    ccsa_tensor::kernels::active().backend
}

/// Latency histogram bounds in seconds: 250 µs to 10 s, roughly
/// geometric. Chosen for a predictor whose p50 sits in the low
/// milliseconds warm and tens of milliseconds cold.
pub const LATENCY_BUCKETS_S: [f64; 12] = [
    0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1.0, 10.0,
];

/// Whether `name` is a legal Prometheus metric (or label) name:
/// `[a-zA-Z_:][a-zA-Z0-9_:]*` (labels additionally may not use `:`, but
/// none of ours do).
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// What a family's samples mean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically non-decreasing count.
    Counter,
    /// A value that can go up and down.
    Gauge,
    /// Fixed-bucket cumulative histogram.
    Histogram,
}

impl MetricKind {
    fn type_name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// A monotonic counter handle. Cloning shares the underlying cell.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    // Relaxed throughout: metric cells are independent monotonic
    // counters; scrapes tolerate torn cross-metric views.

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed); // Relaxed: see above
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed); // Relaxed: see above
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed) // Relaxed: see above
    }
}

/// A gauge handle (f64 stored as bits). Cloning shares the cell.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Default for Gauge {
    fn default() -> Gauge {
        Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
    }
}

impl Gauge {
    // Relaxed throughout: a gauge is one independent cell read at
    // scrape time; no cross-cell ordering is needed.

    /// Sets the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed); // Relaxed: see above
    }

    /// Adds `delta` (CAS loop; gauges are low-frequency).
    pub fn add(&self, delta: f64) {
        // Relaxed on both the update and the failure reload: see above.
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + delta).to_bits())
            });
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed)) // Relaxed: see above
    }
}

/// Shared state behind a [`Histogram`] handle.
struct HistogramCore {
    /// Ascending upper bounds; the `+Inf` bucket is implicit.
    bounds: Vec<f64>,
    /// Per-bucket observation counts (len = bounds.len() + 1, last is
    /// the `+Inf` overflow bucket). *Not* cumulative — rendering
    /// accumulates.
    buckets: Vec<AtomicU64>,
    /// Sum of observations, f64 bits.
    sum_bits: AtomicU64,
    count: AtomicU64,
}

/// A fixed-bucket histogram handle. Cloning shares the cells.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramCore>);

/// A point-in-time histogram copy (cumulative buckets, Prometheus
/// shape).
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// `(upper bound, cumulative count ≤ bound)` pairs; the final
    /// implicit `+Inf` bucket equals [`HistogramSnapshot::count`].
    pub buckets: Vec<(f64, u64)>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let core = &self.0;
        let ix = core
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(core.bounds.len());
        // Relaxed throughout: histogram cells tolerate scrape-time skew
        // between buckets, count, and sum.
        core.buckets[ix].fetch_add(1, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
        let _ = core
            .sum_bits
            // Relaxed on both the update and the failure reload.
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + v).to_bits())
            });
    }

    /// A consistent-enough copy (relaxed loads; scrape-time tolerance).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let core = &self.0;
        let mut cumulative = 0u64;
        let buckets = core
            .bounds
            .iter()
            .enumerate()
            .map(|(i, &b)| {
                // Relaxed: scrape-time reads, per the doc above.
                cumulative += core.buckets[i].load(Ordering::Relaxed);
                (b, cumulative)
            })
            .collect();
        HistogramSnapshot {
            buckets,
            // Relaxed: scrape-time reads, per the doc above.
            count: core.count.load(Ordering::Relaxed),
            sum: f64::from_bits(core.sum_bits.load(Ordering::Relaxed)),
        }
    }
}

/// One series handle within a family.
enum Child {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// One registered metric family: a name, help text, kind, and its
/// labelled children in registration order.
struct Family {
    name: String,
    help: String,
    kind: MetricKind,
    children: Vec<(Vec<(String, String)>, Child)>,
}

/// One sample emitted by a collector.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Label pairs, in output order.
    pub labels: Vec<(String, String)>,
    /// The value.
    pub value: f64,
}

impl Sample {
    /// A labelled sample.
    pub fn new(labels: &[(&str, &str)], value: f64) -> Sample {
        Sample {
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            value,
        }
    }

    /// An unlabelled sample.
    pub fn value(value: f64) -> Sample {
        Sample {
            labels: Vec::new(),
            value,
        }
    }
}

/// A family of samples produced at scrape time by a collector.
#[derive(Debug, Clone)]
pub struct SampleFamily {
    /// Metric family name.
    pub name: String,
    /// `# HELP` text.
    pub help: String,
    /// Counter or gauge (collectors never emit histograms — event-stream
    /// data belongs in registered [`Histogram`] handles).
    pub kind: MetricKind,
    /// The samples.
    pub samples: Vec<Sample>,
}

impl SampleFamily {
    /// A collector-produced family.
    pub fn new(name: &str, help: &str, kind: MetricKind, samples: Vec<Sample>) -> SampleFamily {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        SampleFamily {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            samples,
        }
    }
}

type Collector = Box<dyn Fn() -> Vec<SampleFamily> + Send + Sync>;

/// The process-wide metric registry: registered families plus
/// scrape-time collectors, rendered as Prometheus exposition text.
pub struct MetricsRegistry {
    families: DRwLock<Vec<Family>>,
    collectors: DRwLock<Vec<Collector>>,
    started: Instant,
}

impl Default for MetricsRegistry {
    fn default() -> MetricsRegistry {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// An empty registry (plus the built-in `ccsa_uptime_seconds` and
    /// `ccsa_build_info` families).
    pub fn new() -> MetricsRegistry {
        let registry = MetricsRegistry {
            families: DRwLock::new("serve.metrics.families", Vec::new()),
            collectors: DRwLock::new("serve.metrics.collectors", Vec::new()),
            started: Instant::now(),
        };
        let started = registry.started;
        registry.register_collector(move || {
            let (version, revision) = build_info();
            vec![
                SampleFamily::new(
                    "ccsa_uptime_seconds",
                    "Seconds since this process's metrics registry was created.",
                    MetricKind::Gauge,
                    vec![Sample::value(started.elapsed().as_secs_f64())],
                ),
                SampleFamily::new(
                    "ccsa_build_info",
                    "Build identity; always 1, labelled with version and git revision.",
                    MetricKind::Gauge,
                    vec![Sample::new(
                        &[("version", version), ("revision", revision)],
                        1.0,
                    )],
                ),
            ]
        });
        registry
    }

    /// Seconds since the registry was created (what the built-in uptime
    /// gauge reports).
    pub fn uptime_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// A counter handle for `name{labels}`, created on first use. The
    /// same (name, labels) always returns the same underlying cell.
    ///
    /// # Panics
    ///
    /// Panics on an invalid metric/label name or a kind clash with an
    /// existing family of the same name — both programmer errors.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.child(name, help, MetricKind::Counter, labels, || {
            Child::Counter(Counter::default())
        }) {
            Child::Counter(c) => c,
            _ => unreachable!("kind checked by child()"),
        }
    }

    /// A gauge handle for `name{labels}` (see [`MetricsRegistry::counter`]).
    ///
    /// # Panics
    ///
    /// Panics on an invalid name or kind clash.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.child(name, help, MetricKind::Gauge, labels, || {
            Child::Gauge(Gauge::default())
        }) {
            Child::Gauge(g) => g,
            _ => unreachable!("kind checked by child()"),
        }
    }

    /// A histogram handle for `name{labels}` with the given ascending
    /// bucket bounds (`+Inf` is implicit — do not include it).
    ///
    /// # Panics
    ///
    /// Panics on an invalid name, kind clash, or non-ascending bounds.
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite and strictly ascending"
        );
        match self.child(name, help, MetricKind::Histogram, labels, || {
            Child::Histogram(Histogram(Arc::new(HistogramCore {
                bounds: bounds.to_vec(),
                buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                sum_bits: AtomicU64::new(0f64.to_bits()),
                count: AtomicU64::new(0),
            })))
        }) {
            Child::Histogram(h) => h,
            _ => unreachable!("kind checked by child()"),
        }
    }

    /// Registers a scrape-time collector; its families are rendered
    /// after the registered ones (samples for an already-registered
    /// family name are merged into that family's block).
    pub fn register_collector(&self, f: impl Fn() -> Vec<SampleFamily> + Send + Sync + 'static) {
        self.collectors
            .write()
            .expect("collector table poisoned")
            .push(Box::new(f));
    }

    fn child(
        &self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Child,
    ) -> Child {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        for (k, _) in labels {
            assert!(valid_metric_name(k), "invalid label name {k:?}");
        }
        // Compared borrowed, so finding an existing series allocates
        // nothing; the owned copy is only built to create one.
        let same_labels = |owned: &[(String, String)]| {
            owned.len() == labels.len()
                && owned
                    .iter()
                    .zip(labels)
                    .all(|((ok, ov), (k, v))| ok == k && ov == v)
        };
        // Fast path: the series already exists.
        {
            let families = self.families.read().expect("metric families poisoned");
            if let Some(family) = families.iter().find(|f| f.name == name) {
                assert!(
                    family.kind == kind,
                    "metric {name} registered as {:?}, requested as {kind:?}",
                    family.kind
                );
                if let Some((_, child)) = family.children.iter().find(|(l, _)| same_labels(l)) {
                    return clone_child(child);
                }
            }
        }
        let mut families = self.families.write().expect("metric families poisoned");
        let family = match families.iter_mut().find(|f| f.name == name) {
            Some(f) => {
                assert!(
                    f.kind == kind,
                    "metric {name} registered as {:?}, requested as {kind:?}",
                    f.kind
                );
                f
            }
            None => {
                families.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    kind,
                    children: Vec::new(),
                });
                families.last_mut().expect("just pushed")
            }
        };
        // Re-check under the write lock (another thread may have won).
        if let Some((_, child)) = family.children.iter().find(|(l, _)| same_labels(l)) {
            return clone_child(child);
        }
        let labels = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        family.children.push((labels, make()));
        clone_child(&family.children.last().expect("just pushed").1)
    }

    /// Renders the full registry in Prometheus text exposition format.
    pub fn render(&self) -> String {
        // Block per family name, in first-seen order: registered
        // families first, then collector families (merged by name so no
        // family name appears in two blocks).
        let mut out = String::with_capacity(4096);
        let mut blocks: Vec<(String, String, MetricKind, Vec<String>)> = Vec::new();
        {
            let families = self.families.read().expect("metric families poisoned");
            for family in families.iter() {
                let mut lines = Vec::new();
                for (labels, child) in &family.children {
                    render_child(&mut lines, &family.name, labels, child);
                }
                blocks.push((family.name.clone(), family.help.clone(), family.kind, lines));
            }
        }
        let collectors = self.collectors.read().expect("collector table poisoned");
        for collector in collectors.iter() {
            for family in collector() {
                let lines: Vec<String> = family
                    .samples
                    .iter()
                    .map(|s| sample_line(&family.name, &s.labels, s.value))
                    .collect();
                match blocks.iter_mut().find(|(name, ..)| *name == family.name) {
                    Some((.., existing)) => existing.extend(lines),
                    None => blocks.push((family.name, family.help, family.kind, lines)),
                }
            }
        }
        for (name, help, kind, lines) in blocks {
            out.push_str(&format!("# HELP {name} {}\n", escape_help(&help)));
            out.push_str(&format!("# TYPE {name} {}\n", kind.type_name()));
            for line in lines {
                out.push_str(&line);
                out.push('\n');
            }
        }
        out
    }
}

fn clone_child(child: &Child) -> Child {
    match child {
        Child::Counter(c) => Child::Counter(c.clone()),
        Child::Gauge(g) => Child::Gauge(g.clone()),
        Child::Histogram(h) => Child::Histogram(h.clone()),
    }
}

fn render_child(lines: &mut Vec<String>, name: &str, labels: &[(String, String)], child: &Child) {
    match child {
        Child::Counter(c) => lines.push(sample_line(name, labels, c.get() as f64)),
        Child::Gauge(g) => lines.push(sample_line(name, labels, g.get())),
        Child::Histogram(h) => {
            let snap = h.snapshot();
            for &(bound, cumulative) in &snap.buckets {
                let mut with_le = labels.to_vec();
                with_le.push(("le".to_string(), fmt_value(bound)));
                lines.push(sample_line(
                    &format!("{name}_bucket"),
                    &with_le,
                    cumulative as f64,
                ));
            }
            let mut inf = labels.to_vec();
            inf.push(("le".to_string(), "+Inf".to_string()));
            lines.push(sample_line(
                &format!("{name}_bucket"),
                &inf,
                snap.count as f64,
            ));
            lines.push(sample_line(&format!("{name}_sum"), labels, snap.sum));
            lines.push(sample_line(
                &format!("{name}_count"),
                labels,
                snap.count as f64,
            ));
        }
    }
}

fn sample_line(name: &str, labels: &[(String, String)], value: f64) -> String {
    let mut line = String::from(name);
    if !labels.is_empty() {
        line.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str(k);
            line.push_str("=\"");
            line.push_str(&escape_label_value(v));
            line.push('"');
        }
        line.push('}');
    }
    line.push(' ');
    line.push_str(&fmt_value(value));
    line
}

/// Formats a sample value: integral floats print without a fraction
/// (Rust's shortest-representation `Display`), non-finite values use
/// the Prometheus spellings.
fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline.
fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escapes HELP text: backslash and newline only (quotes are legal).
fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_gauge_histogram_roundtrip() {
        let r = MetricsRegistry::new();
        let c = r.counter("t_requests_total", "requests", &[("verb", "compare")]);
        c.inc();
        c.add(2);
        assert_eq!(c.get(), 3);
        // Same (name, labels) shares the cell; different labels do not.
        let c2 = r.counter("t_requests_total", "requests", &[("verb", "compare")]);
        assert_eq!(c2.get(), 3);
        let other = r.counter("t_requests_total", "requests", &[("verb", "rank")]);
        assert_eq!(other.get(), 0);

        let g = r.gauge("t_depth", "depth", &[]);
        g.set(4.5);
        g.add(-1.5);
        assert!((g.get() - 3.0).abs() < 1e-12);

        let h = r.histogram("t_latency_seconds", "latency", &[], &[0.1, 1.0]);
        h.observe(0.05);
        h.observe(0.5);
        h.observe(5.0);
        let snap = h.snapshot();
        assert_eq!(snap.buckets, vec![(0.1, 1), (1.0, 2)]);
        assert_eq!(snap.count, 3);
        assert!((snap.sum - 5.55).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_inf_equals_count() {
        let r = MetricsRegistry::new();
        let h = r.histogram("t_h_seconds", "h", &[], &[0.001, 0.01, 0.1]);
        for v in [0.0005, 0.005, 0.05, 0.5, 0.5] {
            h.observe(v);
        }
        let text = r.render();
        let bucket = |le: &str| -> u64 {
            text.lines()
                .find(|l| l.starts_with(&format!("t_h_seconds_bucket{{le=\"{le}\"}}")))
                .and_then(|l| l.rsplit(' ').next())
                .and_then(|v| v.parse::<f64>().ok())
                .map(|v| v as u64)
                .unwrap_or_else(|| panic!("no bucket le={le} in:\n{text}"))
        };
        let buckets = [bucket("0.001"), bucket("0.01"), bucket("0.1")];
        assert_eq!(buckets, [1, 2, 3], "le buckets must be cumulative");
        assert!(
            buckets.windows(2).all(|w| w[0] <= w[1]),
            "buckets must be monotonic"
        );
        // +Inf needs its own lookup (parse would fail on "+Inf"… no, the
        // value is the count, the label is +Inf — same parse applies).
        let inf = text
            .lines()
            .find(|l| l.contains("le=\"+Inf\""))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse::<f64>().ok())
            .expect("+Inf bucket present") as u64;
        assert_eq!(inf, 5, "+Inf bucket must equal the observation count");
        assert!(text.contains("t_h_seconds_count 5"));
    }

    #[test]
    fn label_values_are_escaped() {
        let r = MetricsRegistry::new();
        let c = r.counter("t_escapes_total", "escaping", &[("path", "a\\b\"c\nd")]);
        c.inc();
        let text = r.render();
        assert!(
            text.contains(r#"t_escapes_total{path="a\\b\"c\nd"} 1"#),
            "escaped label missing in:\n{text}"
        );
    }

    #[test]
    fn every_rendered_metric_name_is_legal() {
        let r = MetricsRegistry::new();
        r.counter("t_ok_total", "x", &[("l", "v")]).inc();
        r.histogram("t_lat_seconds", "x", &[], &LATENCY_BUCKETS_S)
            .observe(0.1);
        for line in r.render().lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let name_end = line.find(['{', ' ']).expect("sample line has a value");
            assert!(
                valid_metric_name(&line[..name_end]),
                "illegal metric name in line: {line}"
            );
        }
    }

    #[test]
    fn name_validation() {
        for good in ["a", "_x", "ns:sub", "ccsa_requests_total", "A9_"] {
            assert!(valid_metric_name(good), "{good} should be legal");
        }
        for bad in ["", "9x", "a-b", "a b", "é", "a.b"] {
            assert!(!valid_metric_name(bad), "{bad} should be illegal");
        }
    }

    #[test]
    fn builtin_uptime_and_build_info_render() {
        let r = MetricsRegistry::new();
        let text = r.render();
        assert!(text.contains("# TYPE ccsa_uptime_seconds gauge"));
        assert!(text.contains("ccsa_uptime_seconds "));
        let (version, revision) = build_info();
        assert!(text.contains(&format!(
            "ccsa_build_info{{version=\"{version}\",revision=\"{revision}\"}} 1"
        )));
    }

    #[test]
    fn collectors_merge_into_registered_families() {
        let r = MetricsRegistry::new();
        r.counter("t_merged_total", "merged", &[("src", "handle")])
            .inc();
        r.register_collector(|| {
            vec![SampleFamily::new(
                "t_merged_total",
                "merged",
                MetricKind::Counter,
                vec![Sample::new(&[("src", "collector")], 7.0)],
            )]
        });
        let text = r.render();
        // Exactly one HELP/TYPE block for the family, both samples in it.
        assert_eq!(
            text.matches("# TYPE t_merged_total counter").count(),
            1,
            "family must render as one block:\n{text}"
        );
        assert!(text.contains("t_merged_total{src=\"handle\"} 1"));
        assert!(text.contains("t_merged_total{src=\"collector\"} 7"));
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_panic_at_registration() {
        MetricsRegistry::new().counter("bad-name", "x", &[]);
    }
}
