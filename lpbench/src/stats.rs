//! Order statistics, hashing, the seeded generator and the result line.

/// The end-to-end metrics and their units, in output order.
pub const E2E: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("read_p50_ms", "ms"),
    ("read_tail_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("goodput_rps", "req/s"),
    ("max_rate_at_slo_rps", "req/s"),
    ("success_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `xs` (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Percentiles a tail may be reported at, highest first. The grid is
/// coarse on purpose: a run's sample count varies with host speed, and a
/// tail must not switch percentile between runs of one workload (each
/// workload's count stays well inside one band: 100–999 samples offline,
/// 1 200 on `serve-zipf`).
const TAIL_GRID: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// The highest percentile of [`TAIL_GRID`] with at least ten of `n`
/// samples beyond it.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_GRID
        .iter()
        .copied()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0)
}

/// `(percentile, value)` of the tail of `xs` (see [`tail_percentile`]).
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let pct = tail_percentile(xs.len());
    (pct, quantile(xs, pct / 100.0))
}

/// One reported metric.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Value as measured (normalised where the rule says so).
    pub value: f64,
}

/// A JSON number: finite values print in full (shortest round-trip form),
/// anything else as 0.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0".into()
    }
}

/// A JSON string literal (no escapes are ever needed for our keys, but
/// quotes and backslashes are escaped anyway).
pub fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line the benchmark prints last.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                jstr(m.name),
                num(m.value),
                jstr(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// FNV-1a 64 over bytes, continuing from `h`.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a 64 offset basis.
pub const FNV0: u64 = 0xcbf2_9ce4_8422_2325;

/// Bitwise hash of a slice of floats.
pub fn hash_f64s(xs: &[f64]) -> u64 {
    xs.iter()
        .fold(FNV0, |h, x| fnv(h, &x.to_bits().to_le_bytes()))
}

/// SplitMix64: the benchmark's own seeded generator, so the inputs a seed
/// produces depend on this file alone.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a `stream` label (inputs of different
    /// purposes draw from independent streams).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        r.next();
        r
    }

    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next() >> 11) as f64 / (1u64 << 53) as f64 * n as f64) as usize % n.max(1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Peak resident set (`VmHWM`) of a process in MiB, from `/proc`.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}
