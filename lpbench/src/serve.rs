//! `serve-zipf`: the real server in a child process on loopback, driven by
//! this process over the wire protocol.
//!
//! 1. **Setup** (repeated, median reported): generate the graph, start the
//!    server child, register the graph through `lsbp-client`.
//! 2. **Open loop**: one pipelined connection. A writer thread sends
//!    zipf-popular LinBP reads at a fixed rate, whatever the replies do,
//!    plus one `EdgeDelta` per segment; a reader thread collects replies.
//!    Latency counts from each request's *due* time, so a stall shows in
//!    every request it delays. A delta patches every cached entry inline
//!    on the server's transport thread, so reads queue behind it.
//! 3. **Saturation**: two closed-loop `lsbp-client` connections send
//!    cache-missing LinBP and RWR reads in lockstep rounds, back to back,
//!    driving admission, coalescing and stacked batch solves.
//!
//! Both phases run in one-second segments; between segments every reply
//! is in, the server is idle, and the host is probed.
//!
//! Correctness: every answer is checked bitwise against an in-process
//! library solve at the graph version it was admitted at; `CachePatched`
//! answers against the `linbp_edge_delta_seed` + update chain from the
//! version the entry was first solved at.

use crate::hostref::Host;
use crate::stats::{self, hash_f64s, median, Rng};
use crate::trace;
use crate::{Outcome, Params};
use lsbp::edge_delta::linbp_edge_delta_seed;
use lsbp::prelude::*;
use lsbp_client::Client;
use lsbp_graph::generators::kronecker_graph;
use lsbp_linalg::Mat;
use lsbp_net::{
    read_frame, write_frame, ErrorCode, LinBpParams, Request, RequestEnvelope, Response,
    ResponseEnvelope, RwrParams, ServedVia, WireEdge, WireNorm, WireSeed,
};
use lsbp_sparse::CsrMatrix;
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Barrier};
use std::time::{Duration, Instant};

/// Kronecker exponent of the served graph (19 683 nodes).
const M: u32 = 9;
/// Classes.
const K: usize = 3;
/// Coupling scale εH.
const EPS: f64 = 0.0005;
/// LinBP rounds per solve and per patch: a fixed budget (tolerance 0, the
/// paper's timing mode), so a query's cost does not depend on its seeds.
const LIN_ITERS: u64 = 10;
/// Distinct read queries (seed sets) in the zipf population.
const KEYS: usize = 32;
/// Zipf exponent of key popularity.
const ZIPF_S: f64 = 1.1;
/// Labeled nodes per query.
const SEED_NODES: usize = 12;
/// Open-loop read rate, requests per second.
const READ_RATE: usize = 100;
/// Existing edges reweighted per `EdgeDelta` write.
const DELTA_EDGES: usize = 8;
/// Segment length in seconds.
const SEGMENT_S: f64 = 1.0;
/// Read latency limit (normalised): a slower or failed read misses it.
const READ_LIMIT_MS: f64 = 500.0;
/// Setup repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Closed-loop connections in the saturation phase (= threads).
const SAT_CLIENTS: usize = 2;
/// Health polls per second in a traced open loop.
const HEALTH_RATE: usize = 20;
/// Graph id used throughout.
const GRAPH: u64 = 1;

/// What the open loop sends at one due time.
#[derive(Clone, Debug, PartialEq)]
pub enum Send {
    Read(usize),
    Delta(usize),
    Health,
}

/// One scheduled request, `due` seconds after its segment starts.
#[derive(Clone, Debug)]
pub struct Event {
    pub seg: usize,
    pub due: f64,
    pub send: Send,
}

/// Everything the seed determines.
pub struct Schedule {
    /// Seed sets of the read population; key 0 is the most popular.
    pub keys: Vec<Vec<WireSeed>>,
    /// Delta batches, one per open-loop segment (sent mid-segment).
    pub deltas: Vec<Vec<WireEdge>>,
    /// The open-loop send schedule (without health polls).
    pub events: Vec<Event>,
    /// Open-loop and saturation segment counts.
    pub open_segments: usize,
    pub sat_segments: usize,
    /// Seed of the saturation phase's unique queries.
    pub sat_seed: u64,
}

fn seed_set(n: usize, rng: &mut Rng) -> Vec<WireSeed> {
    let mut nodes: Vec<u64> = Vec::with_capacity(SEED_NODES);
    while nodes.len() < SEED_NODES {
        let v = rng.below(n) as u64;
        if !nodes.contains(&v) {
            nodes.push(v);
        }
    }
    nodes
        .into_iter()
        .enumerate()
        .map(|(i, node)| {
            // Centred one-hot residual; classes round-robin so RWR finds
            // every class seeded.
            let mut residual = vec![-1.0; K];
            residual[i % K] = 2.0;
            WireSeed { node, residual }
        })
        .collect()
}

impl Schedule {
    /// The schedule for `seed` and a run of `seconds`.
    pub fn new(seed: u64, seconds: f64) -> Self {
        let n = 3usize.pow(M);
        let total = (seconds / SEGMENT_S).round().max(2.0) as usize;
        let open_segments = (total as f64 * 0.6).round().max(1.0) as usize;
        let sat_segments = (total - open_segments).max(1);
        let mut rng = Rng::new(seed, 2);
        let keys = (0..KEYS).map(|_| seed_set(n, &mut rng)).collect();
        let deltas = (0..open_segments)
            .map(|_| {
                (0..DELTA_EDGES)
                    .map(|_| {
                        // A uniformly random existing entry of P3^m: one
                        // of the four P3 entries per base-3 digit.
                        const P3: [(u64, u64); 4] = [(0, 1), (1, 0), (1, 2), (2, 1)];
                        let (mut src, mut dst) = (0, 0);
                        for _ in 0..M {
                            let (a, b) = P3[rng.below(4)];
                            src = src * 3 + a;
                            dst = dst * 3 + b;
                        }
                        WireEdge {
                            src,
                            dst,
                            weight: 0.25 * (1 + rng.below(4)) as f64,
                        }
                    })
                    .collect()
            })
            .collect();
        // Zipf key popularity by inverse CDF.
        let weights: Vec<f64> = (0..KEYS)
            .map(|i| 1.0 / ((i + 1) as f64).powf(ZIPF_S))
            .collect();
        let total_w: f64 = weights.iter().sum();
        let mut events = Vec::new();
        let reads = (READ_RATE as f64 * SEGMENT_S) as usize;
        for seg in 0..open_segments {
            for i in 0..reads {
                let due = (i as f64 + 0.5) * SEGMENT_S / reads as f64;
                let mut u = rng.unit() * total_w;
                let mut key = KEYS - 1;
                for (j, w) in weights.iter().enumerate() {
                    if u < *w {
                        key = j;
                        break;
                    }
                    u -= w;
                }
                events.push(Event {
                    seg,
                    due,
                    send: Send::Read(key),
                });
                if i == reads / 2 {
                    events.push(Event {
                        seg,
                        due,
                        send: Send::Delta(seg),
                    });
                }
            }
        }
        Self {
            keys,
            deltas,
            events,
            open_segments,
            sat_segments,
            sat_seed: rng.next(),
        }
    }

    /// Hash of the whole schedule (keys, deltas, send order and times).
    pub fn hash(&self) -> u64 {
        let mut h = stats::FNV0;
        for k in &self.keys {
            for s in k {
                h = stats::fnv(h, &s.node.to_le_bytes());
                h = stats::fnv(h, &hash_f64s(&s.residual).to_le_bytes());
            }
        }
        for d in self.deltas.iter().flatten() {
            h = stats::fnv(h, format!("{}-{}-{};", d.src, d.dst, d.weight).as_bytes());
        }
        for e in &self.events {
            h = stats::fnv(h, format!("{}:{}:{:?};", e.seg, e.due, e.send).as_bytes());
        }
        stats::fnv(h, &self.sat_seed.to_le_bytes())
    }
}

/// The unique (cache-missing) query of saturation client `c` in round `j`:
/// its method (every third round is RWR) and seed set.
fn sat_query(sched: &Schedule, c: usize, j: usize) -> (bool, Vec<WireSeed>) {
    let mut rng = Rng::new(sched.sat_seed ^ ((c as u64) << 40) ^ j as u64, 3);
    (j % 3 == 2, seed_set(3usize.pow(M), &mut rng))
}

fn h_residual() -> Mat {
    CouplingMatrix::fig6b_residual().scale(EPS)
}

fn lin_params() -> LinBpParams {
    LinBpParams {
        echo: true,
        k: K as u32,
        h_residual: h_residual().as_slice().to_vec(),
        max_iter: LIN_ITERS,
        tol: 0.0,
        norm: WireNorm::MaxAbs,
        damping: 0.0,
        divergence_guard: 1e12,
    }
}

fn rwr_params() -> RwrParams {
    RwrParams {
        k: K as u32,
        restart: 0.15,
        max_iter: 15,
        tol: 1e-12,
        norm: WireNorm::MaxAbs,
    }
}

/// The library options the server derives from [`lin_params`] /
/// [`rwr_params`].
fn lin_opts() -> LinBpOptions {
    LinBpOptions {
        max_iter: LIN_ITERS as usize,
        tol: 0.0,
        norm: ToleranceNorm::MaxAbs,
        damping: 0.0,
        divergence_guard: 1e12,
        parallelism: ParallelismConfig::from_env(),
    }
}

fn rwr_opts() -> RwrOptions {
    RwrOptions {
        restart: 0.15,
        max_iter: 15,
        tol: 1e-12,
        norm: ToleranceNorm::MaxAbs,
        parallelism: ParallelismConfig::from_env(),
    }
}

fn explicit(n: usize, seeds: &[WireSeed]) -> ExplicitBeliefs {
    let mut e = ExplicitBeliefs::new(n, K);
    for s in seeds {
        e.set_residual(s.node as usize, &s.residual)
            .expect("generated seeds are centred and in range");
    }
    e
}

/// The server child. Killed and reaped on drop if still running.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn start() -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg("--serve-child")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start server child: {e}"))?;
        let mut line = String::new();
        let out = child.stdout.take().ok_or("child has no stdout")?;
        BufReader::new(out)
            .read_line(&mut line)
            .map_err(|e| e.to_string())?;
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .map(str::to_string);
        // Owned by a `Server` before the banner is checked, so that a bad
        // banner still kills and reaps the child.
        let mut server = Server {
            child,
            addr: String::new(),
        };
        server.addr = addr.ok_or_else(|| format!("unexpected server banner {line:?}"))?;
        Ok(server)
    }

    fn peak_rss_mb(&self) -> f64 {
        stats::peak_rss_mb(&self.child.id().to_string())
    }

    /// Asks the server to exit and reaps it.
    fn stop(mut self) -> Result<(), String> {
        let mut c = Client::connect(&self.addr).map_err(|e| e.to_string())?;
        c.shutdown().map_err(|e| e.to_string())?;
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("server child did not exit after Shutdown".into())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The part of a reply the checks and metrics need.
#[derive(Clone, Debug)]
enum Reply {
    Beliefs {
        served: ServedVia,
        hash: u64,
        iterations: u64,
    },
    Delta {
        patched: u64,
    },
    Health {
        queue_depth: u64,
    },
    Rejected,
    Failed(String),
}

fn summarise_reply(r: Response) -> Reply {
    match r {
        Response::Beliefs(p) => Reply::Beliefs {
            served: p.served,
            hash: hash_f64s(&p.beliefs),
            iterations: p.iterations,
        },
        Response::DeltaApplied { patched, .. } => Reply::Delta { patched },
        Response::Health(h) => Reply::Health {
            queue_depth: h.queue_depth,
        },
        Response::Error {
            code: ErrorCode::Overloaded | ErrorCode::DeadlineExceeded,
            ..
        } => Reply::Rejected,
        other => Reply::Failed(format!("{other:?}")),
    }
}

/// One open-loop request as sent and answered.
struct OpenRec {
    seg: usize,
    due: f64,
    sent: f64,
    send: Send,
    /// Graph version the request was admitted at.
    version: u64,
    encode_s: f64,
    /// Filled in from the reader: arrival time on the run clock, decode
    /// seconds, frame bytes, and the reply.
    reply: Option<(f64, f64, usize, Reply)>,
}

/// One saturation request.
struct SatRec {
    seg: usize,
    client: usize,
    j: usize,
    rwr: bool,
    latency: f64,
    reply: Reply,
}

/// Runs `serve-zipf`.
pub fn run(p: &Params, host: &mut Host) -> Result<Outcome, String> {
    let sched = Schedule::new(p.seed, p.seconds);
    let n = 3usize.pow(M);

    // ---- Setup, repeated -------------------------------------------------
    let mut setup_norm = Vec::new();
    let mut setup_raw = Vec::new();
    let mut register_s = Vec::new();
    let mut server: Option<Server> = None;
    let mut adj = CsrMatrix::empty(1, 1);
    host.probe();
    for _ in 0..SETUP_REPS {
        if let Some(s) = server.take() {
            s.stop()?;
        }
        let t0 = host.now();
        let graph = trace::span("graph.generate", 0, || kronecker_graph(M));
        let a = trace::span("graph.csr_build", 0, || graph.adjacency());
        let edges: Vec<WireEdge> = (0..n)
            .flat_map(|r| {
                a.row_cols(r)
                    .iter()
                    .zip(a.row_values(r))
                    .map(move |(&c, &w)| WireEdge {
                        src: r as u64,
                        dst: u64::from(c),
                        weight: w,
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        let s = trace::span("server.start", 0, Server::start)?;
        let mut client = Client::connect(&s.addr).map_err(|e| e.to_string())?;
        let t1 = host.now();
        trace::span("server.register", 0, || {
            client.register_graph(GRAPH, n as u64, false, edges)
        })
        .map_err(|e| format!("register failed: {e}"))?;
        let t2 = host.now();
        drop(client);
        host.probe();
        let f = host.factor_for(t0, t2);
        setup_raw.push(t2 - t0);
        setup_norm.push((t2 - t0) / f);
        register_s.push((t2 - t1) / f);
        server = Some(s);
        adj = a;
    }
    let server = server.expect("SETUP_REPS >= 1");
    let stats_of = |addr: &str| -> Result<lsbp_net::ServerStats, String> {
        Client::connect(addr)
            .map_err(|e| e.to_string())?
            .stats()
            .map_err(|e| e.to_string())
    };

    // ---- Warm-up (untimed): every key solved once, so the cache holds the
    // whole read population, and each delta patches all of it, from the
    // first timed request on.
    let mut warm_client = Client::connect(&server.addr).map_err(|e| e.to_string())?;
    let warm: Vec<(usize, u64, Reply)> = (0..KEYS)
        .map(|key| {
            let reply = warm_client.request(&Request::SolveLinBp {
                graph_id: GRAPH,
                params: lin_params(),
                seeds: sched.keys[key].clone(),
            });
            let reply = reply.map_or_else(|e| Reply::Failed(e.to_string()), summarise_reply);
            (key, 1, reply)
        })
        .collect();
    drop(warm_client);

    // ---- Open loop -------------------------------------------------------
    let stats0 = stats_of(&server.addr)?;
    let (open, open_segs) = open_loop(p, host, &sched, &server.addr)?;
    let stats1 = stats_of(&server.addr)?;

    // ---- Saturation ------------------------------------------------------
    let (sat, sat_segs) = saturation(host, &sched, &server.addr)?;
    let stats2 = stats_of(&server.addr)?;
    let peak_rss = server.peak_rss_mb();
    server.stop()?;

    // ---- Correctness gate (untimed) ---------------------------------------
    let mut failures = Vec::new();
    let versions = graph_versions(&adj, &sched)?;
    let mut reads = warm.clone();
    reads.extend(open.iter().filter_map(|r| match (&r.send, &r.reply) {
        (Send::Read(key), Some((_, _, _, reply))) => Some((*key, r.version, reply.clone())),
        _ => None,
    }));
    let mismatches = trace::span("verify", 0, || verify(&sched, &versions, &reads, &sat))?;
    failures.extend(mismatches.iter().cloned());
    let mut attempted = 0u64;
    let mut failed = mismatches.len() as u64;
    for (_, _, reply) in &warm {
        attempted += 1;
        match reply {
            Reply::Failed(e) => {
                failed += 1;
                failures.push(e.clone());
            }
            Reply::Rejected => failed += 1,
            _ => {}
        }
    }
    for r in &open {
        attempted += 1;
        match &r.reply {
            None => {
                failed += 1;
                failures.push(format!("no reply to {:?}", r.send));
            }
            Some((_, _, _, Reply::Failed(e))) => {
                failed += 1;
                failures.push(e.clone());
            }
            Some((_, _, _, Reply::Rejected)) => failed += 1,
            _ => {}
        }
    }
    for r in &sat {
        attempted += 1;
        match &r.reply {
            Reply::Failed(e) => {
                failed += 1;
                failures.push(e.clone());
            }
            Reply::Rejected => failed += 1,
            _ => {}
        }
    }

    // ---- Metrics -----------------------------------------------------------
    let mut out = Outcome::new(attempted, failed, failures);
    for (norm, dst) in [(true, &mut out.e2e), (false, &mut out.e2e_raw)] {
        let f = |seg: &Segment| if norm { seg.factor } else { 1.0 };
        let setup = if norm { &setup_norm } else { &setup_raw };
        dst.insert("setup_s", median(setup));
        let lat = |r: &OpenRec| {
            r.reply
                .as_ref()
                .map(|(at, ..)| (at - (open_segs[r.seg].start + r.due)) / f(&open_segs[r.seg]))
        };
        let reads: Vec<f64> = open
            .iter()
            .filter(|r| matches!(r.send, Send::Read(_)))
            .filter_map(lat)
            .collect();
        let writes: Vec<f64> = open
            .iter()
            .filter(|r| matches!(r.send, Send::Delta(_)))
            .filter_map(lat)
            .collect();
        // From the first due send to the last reply of each segment: the
        // scheduled span as is, the time past the last due send normalised.
        let wall: f64 = open_segs
            .iter()
            .map(|s| (s.last_due - s.first_due) + (s.last_reply - s.start - s.last_due) / f(s))
            .sum();
        let good = open
            .iter()
            .filter(|r| matches!(r.send, Send::Read(_)))
            .filter(|r| matches!(r.reply, Some((_, _, _, Reply::Beliefs { .. }))))
            .filter_map(lat)
            .filter(|&l| l * 1e3 <= READ_LIMIT_MS)
            .count() as f64;
        dst.insert("wall_s", wall);
        dst.insert("read_p50_ms", median(&reads) * 1e3);
        dst.insert("read_tail_ms", stats::tail(&reads).1 * 1e3);
        dst.insert("write_p50_ms", median(&writes) * 1e3);
        dst.insert("goodput_rps", good / wall);
        let sat_ok = sat
            .iter()
            .filter(|r| matches!(r.reply, Reply::Beliefs { .. }))
            .filter(|r| r.latency / f(&sat_segs[r.seg]) * 1e3 <= READ_LIMIT_MS)
            .count() as f64;
        let sat_time: f64 = sat_segs
            .iter()
            .map(|s| (s.last_reply - s.start) / f(s))
            .sum();
        dst.insert("max_rate_at_slo_rps", sat_ok / sat_time);
    }
    out.peak_rss_mb = peak_rss;
    let answered = open
        .iter()
        .filter(|r| matches!(r.send, Send::Read(_)) && r.reply.is_some())
        .count();
    out.detail.push((
        "schedule_hash".into(),
        stats::jstr(&format!("{:016x}", sched.hash())),
    ));
    out.detail.push((
        "read_tail_percentile".into(),
        stats::num(stats::tail_percentile(answered)),
    ));
    out.detail
        .push(("read_samples".into(), answered.to_string()));
    out.detail
        .push(("saturation_requests".into(), sat.len().to_string()));
    let seg_rates: Vec<String> = sat_segs
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let n = sat.iter().filter(|r| r.seg == i).count() as f64;
            stats::num(n * s.factor / (s.last_reply - s.start))
        })
        .collect();
    out.detail.push((
        "saturation_segment_rps".into(),
        format!("[{}]", seg_rates.join(", ")),
    ));

    if p.trace {
        layer_metrics(
            &mut out.layer,
            host,
            &open,
            &open_segs,
            &sat,
            &sat_segs,
            &versions,
        )?;
        out.layer.insert("server.register_s", median(&register_s));
        let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
        out.layer.insert(
            "server.cache_hit_ratio",
            d(stats1.cache_hits, stats0.cache_hits)
                / d(stats1.queries_served, stats0.queries_served).max(1.0),
        );
        out.layer.insert(
            "server.spmm_pass_ratio",
            d(
                stats2.spmm_passes_sequential_equiv,
                stats1.spmm_passes_sequential_equiv,
            ) / d(stats2.spmm_passes, stats1.spmm_passes).max(1.0),
        );
        out.layer.insert(
            "server.rejected_ratio",
            (d(stats2.rejected_overloaded, stats0.rejected_overloaded)
                + d(stats2.rejected_deadline, stats0.rejected_deadline))
                / attempted.max(1) as f64,
        );
    }
    Ok(out)
}

/// One segment of either phase: when it started on the run clock, when
/// its last reply arrived, and the host factor around it.
struct Segment {
    start: f64,
    /// First and last due times, relative to `start`.
    first_due: f64,
    last_due: f64,
    last_reply: f64,
    factor: f64,
}

/// The open-loop phase. Returns every request with its reply, and the
/// segments.
fn open_loop(
    p: &Params,
    host: &mut Host,
    sched: &Schedule,
    addr: &str,
) -> Result<(Vec<OpenRec>, Vec<Segment>), String> {
    let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut reader = stream.try_clone().map_err(|e| e.to_string())?;
    let mut writer = stream;
    let epoch = host.epoch();
    let (tx, rx) = mpsc::channel::<(u64, f64, f64, usize, Reply)>();
    let reader_thread = std::thread::spawn(move || -> Result<(), String> {
        loop {
            let frame = match read_frame(&mut reader) {
                Ok(Some(f)) => f,
                Ok(None) => return Ok(()),
                Err(e) => return Err(format!("read failed: {e:?}")),
            };
            let at = epoch.elapsed().as_secs_f64();
            let t = Instant::now();
            let env = trace::span("net.response_decode", 0, || {
                ResponseEnvelope::decode(&frame)
            })
            .map_err(|e| format!("undecodable reply: {e:?}"))?;
            let decode_s = t.elapsed().as_secs_f64();
            let bytes = frame.len() + 4;
            if tx
                .send((
                    env.request_id,
                    at,
                    decode_s,
                    bytes,
                    summarise_reply(env.response),
                ))
                .is_err()
            {
                return Ok(());
            }
        }
    });

    let params = lin_params();
    let mut recs: Vec<OpenRec> = Vec::new();
    let mut segs = Vec::new();
    let mut version = 1u64;
    let mut next_id = 1u64;
    let mut result = Ok(());
    host.probe();
    'segments: for seg in 0..sched.open_segments {
        let mut events: Vec<Event> = sched
            .events
            .iter()
            .filter(|e| e.seg == seg)
            .cloned()
            .collect();
        if p.trace {
            let polls = (HEALTH_RATE as f64 * SEGMENT_S) as usize;
            events.extend((0..polls).map(|i| Event {
                seg,
                due: (i as f64 + 0.25) * SEGMENT_S / polls as f64,
                send: Send::Health,
            }));
            events.sort_by(|a, b| a.due.total_cmp(&b.due));
        }
        // Odd segments of a traced run go untraced, for the overhead.
        trace::set(p.trace && seg % 2 == 0);
        let start = host.now();
        let first_id = next_id;
        let first_due = events.first().map_or(0.0, |e| e.due);
        let last_due = events.last().map_or(0.0, |e| e.due);
        for e in events {
            let due_abs = start + e.due;
            let wait = due_abs - host.now();
            if wait > 0.0 {
                std::thread::sleep(Duration::from_secs_f64(wait));
            }
            let request = match &e.send {
                Send::Read(key) => Request::SolveLinBp {
                    graph_id: GRAPH,
                    params: params.clone(),
                    seeds: sched.keys[*key].clone(),
                },
                Send::Delta(d) => Request::EdgeDelta {
                    graph_id: GRAPH,
                    symmetric: true,
                    deltas: sched.deltas[*d].clone(),
                },
                Send::Health => Request::Health,
            };
            let id = next_id;
            next_id += 1;
            let t = Instant::now();
            let bytes = trace::span("net.request_encode", id, || {
                RequestEnvelope::new(id, request).encode()
            });
            let encode_s = t.elapsed().as_secs_f64();
            let sent = host.now();
            if let Err(e) = write_frame(&mut writer, &bytes) {
                result = Err(format!("send failed: {e}"));
                break 'segments;
            }
            recs.push(OpenRec {
                seg,
                due: e.due,
                sent: sent - start,
                version,
                send: e.send.clone(),
                encode_s,
                reply: None,
            });
            if matches!(e.send, Send::Delta(_)) {
                version += 1;
            }
        }
        // Wait for every reply of the segment; the server is then idle.
        let want = (next_id - first_id) as usize;
        let mut got = 0;
        let mut last = start;
        while got < want {
            match rx.recv_timeout(Duration::from_secs(60)) {
                Ok((id, at, decode_s, bytes, reply)) => {
                    let idx = (id - 1) as usize;
                    if let Some(r) = recs.get_mut(idx) {
                        if r.reply.is_none() && id >= first_id {
                            got += 1;
                        }
                        r.reply = Some((at, decode_s, bytes, reply));
                        last = last.max(at);
                    }
                }
                Err(_) => {
                    result = Err(format!("segment {seg}: {} replies missing", want - got));
                    break 'segments;
                }
            }
        }
        host.probe();
        segs.push(Segment {
            start,
            first_due,
            last_due,
            last_reply: last,
            factor: 0.0,
        });
    }
    trace::set(p.trace);
    let _ = writer.shutdown(std::net::Shutdown::Both);
    let joined = reader_thread
        .join()
        .map_err(|_| "reader thread panicked".to_string())?;
    result?;
    joined?;
    for s in &mut segs {
        s.factor = host.factor_for(s.start, s.last_reply);
    }
    Ok((recs, segs))
}

/// The saturation phase: `SAT_CLIENTS` closed loops, one per connection.
fn saturation(
    host: &mut Host,
    sched: &Schedule,
    addr: &str,
) -> Result<(Vec<SatRec>, Vec<Segment>), String> {
    let mut clients: Vec<Client> = (0..SAT_CLIENTS)
        .map(|_| Client::connect(addr).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    // Rounds: every client sends at the same moment (a barrier), and the
    // next round starts when all replies are in. Round `j` is RWR on every
    // client when `j % 3 == 2`, LinBP otherwise, so the admission layer
    // sees the same coalescing opportunity in every run.
    let barrier = Barrier::new(SAT_CLIENTS);
    let stop = AtomicBool::new(false);
    let mut round = 0usize;
    let mut recs = Vec::new();
    let mut segs = Vec::new();
    host.probe();
    for seg in 0..sched.sat_segments {
        let start = host.now();
        let epoch = host.epoch();
        let end = start + SEGMENT_S;
        let (barrier, stop) = (&barrier, &stop);
        let per_client: Result<Vec<Vec<SatRec>>, String> = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        let mut j = round;
                        loop {
                            if barrier.wait().is_leader() {
                                let done = epoch.elapsed().as_secs_f64() >= end;
                                stop.store(done, Ordering::SeqCst);
                            }
                            barrier.wait();
                            if stop.load(Ordering::SeqCst) {
                                return out;
                            }
                            let (rwr, seeds) = sat_query(sched, c, j);
                            let request = if rwr {
                                Request::SolveRwr {
                                    graph_id: GRAPH,
                                    params: rwr_params(),
                                    seeds,
                                }
                            } else {
                                Request::SolveLinBp {
                                    graph_id: GRAPH,
                                    params: lin_params(),
                                    seeds,
                                }
                            };
                            let t = Instant::now();
                            let reply = trace::span("client.request", j as u64, || {
                                client.request(&request)
                            });
                            let latency = t.elapsed().as_secs_f64();
                            out.push(SatRec {
                                seg,
                                client: c,
                                j,
                                rwr,
                                latency,
                                reply: match reply {
                                    Ok(r) => summarise_reply(r),
                                    Err(e) => Reply::Failed(e.to_string()),
                                },
                            });
                            j += 1;
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .map_err(|_| "saturation client panicked".to_string())
                })
                .collect()
        });
        let per_client = per_client?;
        round += per_client.first().map_or(0, Vec::len);
        let last = host.now();
        host.probe();
        recs.extend(per_client.into_iter().flatten());
        segs.push(Segment {
            start,
            first_due: 0.0,
            last_due: 0.0,
            last_reply: last,
            factor: 0.0,
        });
    }
    for s in &mut segs {
        s.factor = host.factor_for(s.start, s.last_reply);
    }
    Ok((recs, segs))
}

/// Version `v` (1-based) of the graph: the registered adjacency with the
/// first `v − 1` delta batches applied exactly as the server applies them.
struct Versions {
    csr: Vec<CsrMatrix>,
    /// The expanded delta list that took version `v` to `v + 1`.
    lists: Vec<Vec<(usize, usize, f64)>>,
}

fn graph_versions(adj: &CsrMatrix, sched: &Schedule) -> Result<Versions, String> {
    let mut csr = vec![adj.clone()];
    let mut lists = Vec::new();
    for batch in &sched.deltas {
        let mut list = Vec::with_capacity(batch.len() * 2);
        for d in batch {
            let (s, t) = (d.src as usize, d.dst as usize);
            list.push((s, t, d.weight));
            if s != t {
                list.push((t, s, d.weight));
            }
        }
        let next = csr
            .last()
            .expect("at least one version")
            .try_with_edge_deltas(&list)
            .map_err(|e| e.to_string())?;
        csr.push(next);
        lists.push(list);
    }
    Ok(Versions { csr, lists })
}

/// Checks every answer; returns one message per mismatch.
fn verify(
    sched: &Schedule,
    versions: &Versions,
    reads: &[(usize, u64, Reply)],
    sat: &[SatRec],
) -> Result<Vec<String>, String> {
    let n = 3usize.pow(M);
    let h = h_residual();
    let opts = lin_opts();
    let mut bad = Vec::new();
    let csr = |v: u64| &versions.csr[(v - 1) as usize];

    // Solved answers: a library solve at the admission version.
    let mut solved: HashMap<(usize, u64), (u64, u64, BeliefMatrix)> = HashMap::new();
    let mut solve = |key: usize, v: u64| -> Result<(u64, u64), String> {
        if let Some((hh, it, _)) = solved.get(&(key, v)) {
            return Ok((*hh, *it));
        }
        let r =
            linbp(csr(v), &explicit(n, &sched.keys[key]), &h, &opts).map_err(|e| e.to_string())?;
        let out = (
            hash_f64s(r.beliefs.residual().as_slice()),
            r.iterations as u64,
        );
        solved.insert((key, v), (out.0, out.1, r.beliefs));
        Ok(out)
    };
    let mut solved_at: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    for (key, version, reply) in reads {
        if let Reply::Beliefs {
            served,
            hash,
            iterations,
        } = reply
        {
            if !matches!(served, ServedVia::CachePatched) {
                let want = solve(*key, *version)?;
                if want != (*hash, *iterations) {
                    bad.push(format!(
                        "key {key} at v{version} ({served:?}) differs from library"
                    ));
                }
                if !matches!(served, ServedVia::Cache) {
                    solved_at.entry(*key).or_default().push(*version);
                }
            }
        }
    }

    // Patched answers: the delta-seed + update chain from a version the
    // entry was solved at.
    let mut chains: HashMap<(usize, u64, u64), (u64, BeliefMatrix)> = HashMap::new();
    for (key, v, reply) in reads {
        let (key, v, hash) = match reply {
            Reply::Beliefs {
                served: ServedVia::CachePatched,
                hash,
                ..
            } => (*key, *v, *hash),
            _ => continue,
        };
        let mut origins: Vec<u64> = solved_at
            .get(&key)
            .map(|vs| vs.iter().copied().filter(|&u| u < v).collect())
            .unwrap_or_default();
        origins.sort_unstable();
        origins.dedup();
        let mut ok = false;
        for &u in origins.iter().rev() {
            let mut cur = solved
                .get(&(key, u))
                .map(|(_, _, b)| b.clone())
                .ok_or("origin solve missing")?;
            for w in u..v {
                if let Some((_, b)) = chains.get(&(key, u, w + 1)) {
                    cur = b.clone();
                    continue;
                }
                let seed = linbp_edge_delta_seed(
                    csr(w),
                    &versions.lists[(w - 1) as usize],
                    &cur,
                    &h,
                    true,
                )
                .map_err(|e| e.to_string())?;
                let next = linbp_update_batch_on(csr(w + 1), &[&cur], &[seed], &h, &opts, true)
                    .map_err(|e| e.to_string())?
                    .pop()
                    .ok_or("empty update batch")?;
                cur = next.beliefs;
                chains.insert(
                    (key, u, w + 1),
                    (hash_f64s(cur.residual().as_slice()), cur.clone()),
                );
            }
            if hash_f64s(cur.residual().as_slice()) == hash {
                ok = true;
                break;
            }
        }
        if !ok {
            bad.push(format!("patched key {key} at v{v} matches no update chain"));
        }
    }

    // Saturation answers: batched library solves at the final version
    // (bitwise equal to solo solves), in chunks.
    let last = versions.csr.last().expect("at least one version");
    let checked: Vec<(&SatRec, u64, u64)> = sat
        .iter()
        .filter_map(|r| match r.reply {
            Reply::Beliefs {
                hash, iterations, ..
            } => Some((r, hash, iterations)),
            _ => None,
        })
        .collect();
    for rwr in [false, true] {
        let group: Vec<&(&SatRec, u64, u64)> = checked.iter().filter(|c| c.0.rwr == rwr).collect();
        for chunk in group.chunks(16) {
            let queries: Vec<ExplicitBeliefs> = chunk
                .iter()
                .map(|c| explicit(n, &sat_query(sched, c.0.client, c.0.j).1))
                .collect();
            let want: Vec<(u64, u64)> = if rwr {
                rwr_batch(last, &queries, &rwr_opts())
                    .map_err(|e| format!("{e:?}"))?
                    .into_iter()
                    .map(|r| {
                        (
                            hash_f64s(r.beliefs.residual().as_slice()),
                            r.iterations as u64,
                        )
                    })
                    .collect()
            } else {
                linbp_batch(last, &queries, &h, &opts)
                    .map_err(|e| e.to_string())?
                    .into_iter()
                    .map(|r| {
                        (
                            hash_f64s(r.beliefs.residual().as_slice()),
                            r.iterations as u64,
                        )
                    })
                    .collect()
            };
            for (c, w) in chunk.iter().zip(want) {
                if (c.1, c.2) != w {
                    bad.push(format!(
                        "saturation {} query {}/{} differs from library",
                        if rwr { "RWR" } else { "LinBP" },
                        c.0.client,
                        c.0.j
                    ));
                }
            }
        }
    }
    Ok(bad)
}

/// Per-layer metrics of a traced `serve-zipf` run.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    dst: &mut BTreeMap<&'static str, f64>,
    host: &mut Host,
    open: &[OpenRec],
    open_segs: &[Segment],
    sat: &[SatRec],
    sat_segs: &[Segment],
    versions: &Versions,
) -> Result<(), String> {
    let fo = |r: &OpenRec| open_segs[r.seg].factor;
    let reads: Vec<&OpenRec> = open
        .iter()
        .filter(|r| matches!(r.send, Send::Read(_)))
        .collect();
    let enc: Vec<f64> = reads.iter().map(|r| r.encode_s / fo(r) * 1e6).collect();
    let dec: Vec<f64> = reads
        .iter()
        .filter_map(|r| r.reply.as_ref().map(|(_, d, ..)| d / fo(r) * 1e6))
        .collect();
    let bytes: Vec<f64> = reads
        .iter()
        .filter_map(|r| r.reply.as_ref().map(|(_, _, b, _)| *b as f64))
        .collect();
    dst.insert("net.request_encode_us", median(&enc));
    dst.insert("net.response_decode_us", median(&dec));
    dst.insert("net.response_bytes", median(&bytes));
    let rtt: Vec<f64> = sat
        .iter()
        .map(|r| r.latency / sat_segs[r.seg].factor * 1e3)
        .collect();
    dst.insert("client.rtt_p50_ms", median(&rtt));
    dst.insert("client.rtt_tail_ms", stats::tail(&rtt).1);
    let depth: Vec<f64> = open
        .iter()
        .filter_map(|r| match r.reply {
            Some((_, _, _, Reply::Health { queue_depth })) => Some(queue_depth as f64),
            _ => None,
        })
        .collect();
    dst.insert("server.queue_depth_p99", stats::quantile(&depth, 0.99));
    let lag: Vec<f64> = open.iter().map(|r| (r.sent - r.due) * 1e3).collect();
    dst.insert("loadgen.lag_p99_ms", stats::quantile(&lag, 0.99));

    // Reads sent while a delta was outstanding (sent, not yet answered).
    let deltas: Vec<(f64, f64, u64, f64)> = open
        .iter()
        .filter(|r| matches!(r.send, Send::Delta(_)))
        .filter_map(|r| match &r.reply {
            Some((at, _, _, Reply::Delta { patched })) => {
                let seg = &open_segs[r.seg];
                Some((
                    seg.start + r.sent,
                    *at,
                    *patched,
                    (at - seg.start - r.sent) / seg.factor,
                ))
            }
            _ => None,
        })
        .collect();
    let behind = reads
        .iter()
        .filter(|r| {
            let t = open_segs[r.seg].start + r.sent;
            deltas.iter().any(|&(s, e, _, _)| t > s && t < e)
        })
        .count();
    dst.insert(
        "server.reads_behind_delta_ratio",
        behind as f64 / reads.len().max(1) as f64,
    );
    let patched: Vec<f64> = deltas.iter().map(|d| d.2 as f64).collect();
    dst.insert(
        "server.patched_per_delta",
        patched.iter().sum::<f64>() / patched.len().max(1) as f64,
    );
    let per_entry: Vec<f64> = deltas
        .iter()
        .filter(|d| d.2 > 0)
        .map(|d| d.3 * 1e3 / d.2 as f64)
        .collect();
    dst.insert("core.patch_ms_per_entry", median(&per_entry));

    // Mean batch size per stacked solve, from the served-via tags.
    let inv: f64 = sat
        .iter()
        .filter_map(|r| match r.reply {
            Reply::Beliefs { served, .. } => Some(match served {
                ServedVia::Coalesced { batch } => 1.0 / batch.max(1) as f64,
                _ => 1.0,
            }),
            _ => None,
        })
        .sum();
    let answered = sat
        .iter()
        .filter(|r| matches!(r.reply, Reply::Beliefs { .. }))
        .count();
    let batch_mean = answered as f64 / inv.max(1e-9);
    dst.insert("server.batch_mean", batch_mean);

    // The library batch at the mean batch size, and its SpMM width.
    let q = (batch_mean.round() as usize).max(1);
    let last = versions.csr.last().expect("at least one version");
    let n = last.n_rows();
    let queries: Vec<ExplicitBeliefs> = (0..q)
        .map(|j| {
            let mut rng = Rng::new(j as u64, 4);
            explicit(n, &seed_set(n, &mut rng))
        })
        .collect();
    let h = h_residual();
    let wide = Mat::from_vec(
        n,
        K * q,
        (0..n * K * q).map(|i| (i % 7) as f64 * 1e-3).collect(),
    );
    let mut batch_ms = Vec::new();
    let mut spmm_ms = Vec::new();
    host.probe();
    for _ in 0..5 {
        let s = host.now();
        trace::span("core.linbp_batch", 0, || {
            linbp_batch(last, &queries, &h, &lin_opts())
        })
        .map_err(|e| e.to_string())?;
        let e = host.now();
        host.probe();
        batch_ms.push((e - s) / host.factor_for(s, e) * 1e3);
        let s = host.now();
        std::hint::black_box(trace::span("sparse.spmm", 0, || last.spmm(&wide)));
        let e = host.now();
        host.probe();
        spmm_ms.push((e - s) / host.factor_for(s, e) * 1e3);
    }
    dst.insert("core.batch_ms_at_mean_q", median(&batch_ms));
    dst.insert("sparse.spmm_ms_kq", median(&spmm_ms));

    // Tracing overhead: traced (even) against untraced (odd) segments.
    let p50 = |even: bool| {
        let v: Vec<f64> = reads
            .iter()
            .filter(|r| (r.seg % 2 == 0) == even)
            .filter_map(|r| {
                let seg = &open_segs[r.seg];
                r.reply
                    .as_ref()
                    .map(|(at, ..)| (at - seg.start - r.due) / seg.factor)
            })
            .collect();
        median(&v)
    };
    let untraced = p50(false);
    if untraced > 0.0 {
        dst.insert(
            "trace.overhead_pct",
            (p50(true) - untraced) / untraced * 100.0,
        );
    }
    Ok(())
}

/// The server child: the same start-up as the `lsbp-server` binary at its
/// default flags, bound to an ephemeral loopback port.
pub fn child_main() -> std::process::ExitCode {
    use std::io::Write;
    let listener = match std::net::TcpListener::bind("127.0.0.1:0") {
        Ok(l) => l,
        Err(e) => {
            eprintln!("bind failed: {e}");
            return std::process::ExitCode::FAILURE;
        }
    };
    let local = listener
        .local_addr()
        .expect("bound listener has an address");
    println!("listening on {local}");
    let _ = std::io::stdout().flush();
    let core = lsbp_server::ServerCore::new(lsbp_server::ServerConfig::default());
    match lsbp_server::serve(listener, &core) {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve error: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}
