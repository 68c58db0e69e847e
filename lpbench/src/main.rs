//! `lpbench` — the repository benchmark.
//!
//! ```text
//! lpbench --workload <serve-zipf|label-kron|paged-kron|sql-kron>
//!         --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Makes its inputs from the seed, measures for about `--seconds`, checks
//! every output, and prints as its last stdout line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`). The line
//! before it is a `{"detail": …}` object with the machine line, the raw
//! (unnormalised) end-to-end figures, tail percentiles and sample counts.
//! Exits non-zero when any output is wrong.
//!
//! Every timing is host-normalised: see `hostref.rs`. See `README.md` for
//! the workloads, the metrics and how they relate.

mod hostref;
mod offline;
mod serve;
mod stats;
mod trace;

use stats::{jstr, num, Metric};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["serve-zipf", "label-kron", "paged-kron", "sql-kron"];

/// The per-layer metrics and their units, in `BENCHMARK.json` order.
pub const LAYERS: [(&str, &str); 43] = [
    ("graph.generate_s", "s"),
    ("graph.csr_build_s", "s"),
    ("sparse.spmm_ms_k", "ms"),
    ("sparse.fused_step_ms", "ms"),
    ("sparse.effective_gbs", "GB/s"),
    ("core.iterations", "count"),
    ("core.rows_skipped_ratio", "ratio"),
    ("linalg.pool_speedup", "x"),
    ("core.linbp_ms", "ms"),
    ("core.rwr_ms", "ms"),
    ("core.sbp_ms", "ms"),
    ("core.update_ms", "ms"),
    ("sparse.paged.hits", "count"),
    ("sparse.paged.misses", "count"),
    ("sparse.paged.evictions", "count"),
    ("sparse.paged.prefetches", "count"),
    ("sparse.paged.miss_bytes", "bytes"),
    ("sparse.paged.over_resident", "ratio"),
    ("net.request_encode_us", "us"),
    ("net.response_decode_us", "us"),
    ("net.response_bytes", "bytes"),
    ("client.rtt_p50_ms", "ms"),
    ("client.rtt_tail_ms", "ms"),
    ("server.queue_depth_p99", "count"),
    ("server.reads_behind_delta_ratio", "ratio"),
    ("server.patched_per_delta", "count"),
    ("core.patch_ms_per_entry", "ms"),
    ("server.cache_hit_ratio", "ratio"),
    ("server.batch_mean", "count"),
    ("server.spmm_pass_ratio", "ratio"),
    ("core.batch_ms_at_mean_q", "ms"),
    ("sparse.spmm_ms_kq", "ms"),
    ("server.rejected_ratio", "ratio"),
    ("server.register_s", "s"),
    ("reldb.linbp_iter_ms", "ms"),
    ("reldb.text_iter_ms", "ms"),
    ("reldb.sbp_ms", "ms"),
    ("reldb.plan_bound_over_actual", "ratio"),
    ("reldb.sbp_delta_ms", "ms"),
    ("loadgen.lag_p99_ms", "ms"),
    ("host.ref_ms", "ms"),
    ("host.speed_factor", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// Command-line parameters of one run.
pub struct Params {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where paged stores are spilled (inside the working directory).
    pub scratch_dir: PathBuf,
}

/// What a workload hands back.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Host-normalised end-to-end metrics, by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// The same metrics from raw timings.
    pub e2e_raw: BTreeMap<&'static str, f64>,
    /// Per-layer metrics (traced runs only).
    pub layer: BTreeMap<&'static str, f64>,
    /// Extra `"key": <json>` pairs for the detail line.
    pub detail: Vec<(String, String)>,
    pub peak_rss_mb: f64,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64, failures: Vec<String>) -> Self {
        Self {
            attempted,
            failed,
            failures,
            e2e: BTreeMap::new(),
            e2e_raw: BTreeMap::new(),
            layer: BTreeMap::new(),
            detail: Vec::new(),
            peak_rss_mb: 0.0,
        }
    }

    /// `1 − failed / attempted`.
    pub fn success_ratio(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: lpbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args(args: &[String]) -> Option<Params> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = Some(value == "1"),
            _ => return None,
        }
    }
    let workload = workload.filter(|w| WORKLOADS.contains(&w.as_str()))?;
    Some(Params {
        workload,
        seed: seed?,
        seconds: seconds?,
        trace: trace.unwrap_or(false),
        scratch_dir: PathBuf::from(".lpbench").join("tmp"),
    })
}

/// The machine line: what must match for two runs to be comparable.
fn machine() -> Vec<(String, String)> {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let threads = std::env::var("LSBP_THREADS").unwrap_or_else(|_| "unset".into());
    vec![
        ("nproc".into(), nproc.to_string()),
        ("lsbp_threads".into(), jstr(&threads)),
        ("llc_bytes".into(), llc_bytes().to_string()),
        ("ref_nominal_s".into(), num(hostref::REF_NOMINAL_S)),
    ]
}

/// Size of the last-level cache of cpu0 in bytes (0 when unknown).
fn llc_bytes() -> u64 {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    let mut best = (0u32, 0u64);
    for i in 0..8 {
        let read = |f: &str| std::fs::read_to_string(format!("{base}/index{i}/{f}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let level: u32 = level.trim().parse().unwrap_or(0);
        let size = size.trim();
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<u64>().unwrap_or(0) * 1024,
            None => match size.strip_suffix('M') {
                Some(m) => m.parse::<u64>().unwrap_or(0) << 20,
                None => size.parse().unwrap_or(0),
            },
        };
        if level >= best.0 {
            best = (level, bytes);
        }
    }
    best.1
}

/// Adds the two end-to-end metrics that are never normalised — the success
/// ratio and peak memory — to both the normalised and the raw figures.
fn finish_e2e(out: &mut Outcome) {
    let success = out.success_ratio();
    for m in [&mut out.e2e, &mut out.e2e_raw] {
        m.insert("success_ratio", success);
        m.insert("peak_rss_mb", out.peak_rss_mb);
    }
}

fn obj(pairs: &[(String, String)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{}: {v}", jstr(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--serve-child") {
        return serve::child_main();
    }
    let Some(p) = parse_args(&args) else {
        return usage();
    };
    trace::set(p.trace);
    let mut host = hostref::Host::new();
    let outcome = match p.workload.as_str() {
        "serve-zipf" => serve::run(&p, &mut host),
        _ => offline::run(&p, &mut host),
    };
    let _ = std::fs::remove_dir_all(&p.scratch_dir);
    let mut out = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("lpbench: {} failed: {e}", p.workload);
            return ExitCode::FAILURE;
        }
    };
    for f in out.failures.iter().take(20) {
        eprintln!("lpbench: check failed: {f}");
    }

    finish_e2e(&mut out);
    out.layer.insert("host.ref_ms", host.median_ref_ms());
    out.layer.insert("host.speed_factor", host.median_factor());
    let metrics: Vec<Metric> = if p.trace {
        LAYERS
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                unit,
                value: out.layer.get(name).copied().unwrap_or(0.0),
            })
            .collect()
    } else {
        stats::E2E
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                unit,
                value: out.e2e.get(name).copied().unwrap_or(0.0),
            })
            .collect()
    };

    if p.trace {
        let path = PathBuf::from(".lpbench")
            .join("trace")
            .join(format!("{}-{}.jsonl", p.workload, p.seed));
        match trace::flush(&path) {
            Ok(selfs) => {
                eprintln!(
                    "lpbench: spans written to {}; self time per span:",
                    path.display()
                );
                for (name, s) in selfs {
                    eprintln!("  {name:<28} {:>10.3} ms", s * 1e3);
                }
            }
            Err(e) => eprintln!("lpbench: could not write spans: {e}"),
        }
    }

    let raw: Vec<(String, String)> = out
        .e2e_raw
        .iter()
        .map(|(k, v)| (k.to_string(), num(*v)))
        .collect();
    let mut detail = vec![
        ("workload".to_string(), jstr(&p.workload)),
        ("seed".to_string(), p.seed.to_string()),
        ("machine".to_string(), obj(&machine())),
        ("host_ref_ms".to_string(), num(host.median_ref_ms())),
        ("host_speed_factor".to_string(), num(host.median_factor())),
        ("probes".to_string(), host.probes().len().to_string()),
        ("raw".to_string(), obj(&raw)),
    ];
    detail.extend(out.detail.iter().cloned());
    println!("{{\"detail\": {}}}", obj(&detail));
    let correct = out.failed == 0;
    println!(
        "{}",
        stats::result_line(correct, out.attempted, out.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_loop_uses_no_repo_crate() {
        let src = include_str!("hostref.rs");
        assert!(
            !src.contains("lsbp"),
            "hostref.rs must not name a workspace crate"
        );
        assert!(
            !src.contains("crate::"),
            "hostref.rs must not depend on other modules"
        );
        for line in src.lines().map(str::trim).filter(|l| l.starts_with("use ")) {
            assert!(
                line.starts_with("use std::"),
                "non-std import in hostref.rs: {line}"
            );
        }
        let manifest = include_str!("../Cargo.toml");
        assert!(
            manifest.contains("[workspace]"),
            "the benchmark is its own package"
        );
    }

    #[test]
    fn counts_memory_and_success_are_not_normalised() {
        let mut out = Outcome::new(4, 1, Vec::new());
        out.peak_rss_mb = 12.5;
        finish_e2e(&mut out);
        for name in ["success_ratio", "peak_rss_mb"] {
            assert_eq!(out.e2e[name], out.e2e_raw[name], "{name}");
        }
        assert_eq!(out.e2e["success_ratio"], 0.75);
        assert_eq!(out.e2e["peak_rss_mb"], 12.5);
    }

    #[test]
    fn factor_uses_the_probes_around_the_interval() {
        let p = |at, x: f64| hostref::Probe {
            at,
            secs: x * hostref::REF_NOMINAL_S,
        };
        let probes = [p(0.0, 1.0), p(5.0, 2.0), p(9.0, 4.0)];
        assert!((hostref::factor_for(&probes, 6.0, 8.0) - 3.0).abs() < 1e-12);
        assert!((hostref::factor_for(&probes, 10.0, 11.0) - 4.0).abs() < 1e-12);
        assert_eq!(hostref::factor_for(&[], 1.0, 2.0), 1.0);
    }

    #[test]
    fn seeded_inputs_are_pinned() {
        // Same seed, same schedule and job list; another seed differs.
        assert_eq!(
            offline::inputs_hash("label-kron", 1),
            offline::inputs_hash("label-kron", 1)
        );
        assert_ne!(
            offline::inputs_hash("label-kron", 1),
            offline::inputs_hash("label-kron", 2)
        );
        let s1 = serve::Schedule::new(1, 20.0).hash();
        assert_eq!(s1, serve::Schedule::new(1, 20.0).hash());
        assert_ne!(s1, serve::Schedule::new(2, 20.0).hash());
        let pinned = [
            ("label-kron", offline::inputs_hash("label-kron", 1)),
            ("paged-kron", offline::inputs_hash("paged-kron", 1)),
            ("sql-kron", offline::inputs_hash("sql-kron", 1)),
            ("serve-zipf", s1),
        ];
        for ((name, got), (_, want)) in pinned.iter().zip(PINNED) {
            assert_eq!(
                *got, want,
                "{name}: input hash for seed 1 moved: {got:#018x}"
            );
        }
    }

    /// Input hashes for seed 1 (20-second runs).
    const PINNED: [(&str, u64); 4] = [
        ("label-kron", 0xbda60a19edd73c45),
        ("paged-kron", 0x78cc28f4c8e39a59),
        ("sql-kron", 0xe179ea63ff8b7882),
        ("serve-zipf", 0x520104524bf0355a),
    ];

    #[test]
    fn tail_takes_the_highest_percentile_with_ten_beyond() {
        let xs: Vec<f64> = (0..250).map(f64::from).collect();
        assert_eq!(stats::tail(&xs).0, 90.0);
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(stats::tail(&xs).0, 99.0);
        assert_eq!(stats::tail(&[1.0, 2.0]).0, 50.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let wall = Metric {
            name: "wall_s",
            unit: "s",
            value: 1.25,
        };
        let line = stats::result_line(true, 3, 0, &[wall]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let p = parse_args(&a("--workload sql-kron --seed 4 --seconds 15 --trace 1")).unwrap();
        assert_eq!((p.seed, p.seconds, p.trace), (4, 15.0, true));
        assert!(parse_args(&a("--workload nope --seed 4 --seconds 15 --trace 0")).is_none());
        assert!(parse_args(&a("--workload sql-kron --seconds 15")).is_none());
    }
}
