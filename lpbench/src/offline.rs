//! The three offline workloads: one caller runs a fixed job list of solves
//! and incremental writes back to back, with a host probe between calls.
//!
//! * `label-kron` — resident solves through the CSR front doors of `lsbp`.
//! * `paged-kron` — the same solves through `PagedCsr` with a pool budget
//!   below the shard store; every answer must be bitwise equal to the same
//!   call on the resident matrix.
//! * `sql-kron` — `SqlDb` hand-built plans, the SQL-text path, SBP and
//!   ΔSBP; answers must be within 1e-10 of native with equal geodesics.

use crate::hostref::Host;
use crate::stats::{self, hash_f64s, median, Rng};
use crate::trace;
use crate::{Outcome, Params};
use lsbp::prelude::*;
use lsbp::sbp::SbpResult;
use lsbp_graph::generators::kronecker_graph;
use lsbp_linalg::Mat;
use lsbp_reldb::{SqlDb, SqlSbpState};
use lsbp_sparse::CsrMatrix;
use std::collections::{BTreeMap, HashMap};

/// Classes per node.
const K: usize = 3;
/// Coupling scale εH (the paper's Fig. 7 setting).
const EPS: f64 = 0.0005;
/// Relational LinBP iterations per call.
const SQL_ITERS: usize = 2;
/// Setup repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Inputs of each kind cycle with this period (a multiple of every
/// input count).
const INPUT_CYCLE: usize = 6;
/// Shards of the paged store.
const PAGED_SHARDS: usize = 16;
/// A call slower than this (normalised) misses the read limit.
const READ_LIMIT_S: f64 = 5.0;

/// What one job does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    LinBp,
    LinBpStar,
    Sbp,
    Rwr,
    Update,
    SbpAddExplicit,
    SbpAddEdges,
    SqlLinBp,
    SqlText,
    SqlSbp,
    SqlSbpAdd,
}

impl Op {
    fn is_write(self) -> bool {
        matches!(
            self,
            Op::Update | Op::SbpAddExplicit | Op::SbpAddEdges | Op::SqlSbpAdd
        )
    }

    fn span(self) -> &'static str {
        match self {
            Op::LinBp => "core.linbp",
            Op::LinBpStar => "core.linbp_star",
            Op::Sbp => "core.sbp",
            Op::Rwr => "core.rwr",
            Op::Update => "core.linbp_update",
            Op::SbpAddExplicit => "core.sbp_add_explicit",
            Op::SbpAddEdges => "core.sbp_add_edges",
            Op::SqlLinBp => "reldb.linbp",
            Op::SqlText => "reldb.linbp_sql_text",
            Op::SqlSbp => "reldb.sbp",
            Op::SqlSbpAdd => "reldb.sbp_add_explicit",
        }
    }
}

/// One entry of the job list: an operation and the index of its input (a
/// belief set, label set, delta or edge batch, by operation, taken modulo
/// the number of inputs of that kind). Pass `p` runs entry `(op, input)`
/// on input `input + p`, so a run averages over every input a seed makes.
#[derive(Clone, Copy, Debug)]
pub struct Job {
    pub op: Op,
    pub input: usize,
}

/// The fixed job list of a workload. Read solves are arranged so that the
/// median call falls inside the LinBP group, not on a boundary between
/// groups of different cost.
pub fn job_list(workload: &str) -> Vec<Job> {
    use Op::*;
    let ops: &[(Op, usize)] = match workload {
        "label-kron" => &[
            (LinBp, 0),
            (Sbp, 0),
            (Update, 0),
            (LinBp, 1),
            (Rwr, 0),
            (SbpAddExplicit, 0),
            (LinBpStar, 2),
            (Sbp, 1),
            (LinBp, 2),
            (Update, 1),
            (SbpAddEdges, 0),
            (SbpAddExplicit, 1),
        ],
        "paged-kron" => &[
            (LinBp, 0),
            (Sbp, 0),
            (Update, 0),
            (LinBp, 1),
            (Rwr, 0),
            (LinBpStar, 2),
            (LinBp, 2),
            (Update, 1),
        ],
        "sql-kron" => &[
            (SqlLinBp, 0),
            (SqlSbp, 0),
            (SqlSbpAdd, 0),
            (SqlLinBp, 0),
            (SqlText, 0),
            (SqlSbp, 0),
            (SqlLinBp, 0),
            (SqlSbpAdd, 1),
        ],
        _ => &[],
    };
    ops.iter().map(|&(op, input)| Job { op, input }).collect()
}

/// Kronecker exponent of a workload's graph.
pub fn exponent(workload: &str) -> u32 {
    match workload {
        "label-kron" => 10,
        "paged-kron" => 8,
        _ => 7,
    }
}

/// Everything a seed determines for the offline workloads.
pub struct Inputs {
    /// Explicit belief sets (5% of nodes each).
    pub beliefs: Vec<ExplicitBeliefs>,
    /// One-hot label sets for RWR, every class present.
    pub labels: Vec<ExplicitBeliefs>,
    /// Small explicit-belief deltas (1‰ of nodes) for the writes.
    pub deltas: Vec<ExplicitBeliefs>,
    /// Undirected new-edge batches for `sbp_add_edges`.
    pub new_edges: Vec<Vec<(usize, usize, f64)>>,
}

/// Generates the inputs for `n` nodes from `seed`.
pub fn inputs(n: usize, seed: u64) -> Inputs {
    let mut rng = Rng::new(seed, 1);
    let beliefs = (0..3).map(|_| residuals(n, n / 20, &mut rng)).collect();
    let label_sets = (0..3).map(|_| labels(n, n / 20, &mut rng)).collect();
    let deltas = (0..6)
        .map(|_| labels(n, (n / 1000).max(K), &mut rng))
        .collect();
    let new_edges = (0..3)
        .map(|_| {
            (0..8)
                .map(|_| {
                    // s and t share their last base-3 digit, so they are
                    // never adjacent in P3^m: every edge is a new one.
                    let s = rng.below(n);
                    let t = (s + 3 * (1 + rng.below(n / 3 - 1))) % n;
                    (s.min(t), s.max(t), 1.0)
                })
                .collect()
        })
        .collect();
    Inputs {
        beliefs,
        labels: label_sets,
        deltas,
        new_edges,
    }
}

/// Hash of the job list together with the inputs a seed generates.
pub fn inputs_hash(workload: &str, seed: u64) -> u64 {
    let n = 3usize.pow(exponent(workload));
    let inp = inputs(n, seed);
    let mut h = stats::FNV0;
    for j in job_list(workload) {
        h = stats::fnv(h, format!("{:?}:{};", j.op, j.input).as_bytes());
    }
    for e in inp.beliefs.iter().chain(&inp.labels).chain(&inp.deltas) {
        h = stats::fnv(h, &hash_f64s(e.residual_matrix().as_slice()).to_le_bytes());
    }
    for batch in &inp.new_edges {
        for &(s, t, _) in batch {
            h = stats::fnv(h, format!("{s}-{t};").as_bytes());
        }
    }
    h
}

/// Residual rows in the style of the paper's synthetic experiments: two
/// random values from {−0.10, …, 0.10} plus an extra digit, the third the
/// negative sum.
fn residuals(n: usize, count: usize, rng: &mut Rng) -> ExplicitBeliefs {
    let mut e = ExplicitBeliefs::new(n, K);
    let mut placed = 0;
    while placed < count {
        let v = rng.below(n);
        if e.is_explicit(v) {
            continue;
        }
        let a = (rng.below(21) as f64 - 10.0) / 100.0 + (1 + rng.below(9)) as f64 / 10_000.0;
        let b = (rng.below(21) as f64 - 10.0) / 100.0 + (1 + rng.below(9)) as f64 / 10_000.0;
        e.set_residual(v, &[a, b, -(a + b)])
            .expect("generated residual rows are centred");
        placed += 1;
    }
    e
}

/// `count` one-hot labels, classes assigned round-robin so every class is
/// present.
fn labels(n: usize, count: usize, rng: &mut Rng) -> ExplicitBeliefs {
    let mut e = ExplicitBeliefs::new(n, K);
    let mut placed = 0;
    while placed < count {
        let v = rng.below(n);
        if e.is_explicit(v) {
            continue;
        }
        e.set_label(v, placed % K, 1.0)
            .expect("generated labels are in range");
        placed += 1;
    }
    e
}

/// Input `i` of a kind, cycling.
fn pick<T>(v: &[T], i: usize) -> &T {
    &v[i % v.len()]
}

fn linbp_opts() -> LinBpOptions {
    LinBpOptions {
        tol: 1e-10,
        max_iter: 100,
        ..LinBpOptions::default()
    }
}

fn rwr_opts() -> RwrOptions {
    RwrOptions {
        tol: 1e-12,
        max_iter: 15,
        ..RwrOptions::default()
    }
}

/// The output of one call, as kept for checking.
#[derive(Clone, Debug)]
pub struct Answer {
    beliefs: Vec<f64>,
    geodesics: Vec<u32>,
    iterations: usize,
    rows_active: u64,
    rows_skipped: u64,
}

impl Answer {
    fn hash(&self) -> u64 {
        let mut h = hash_f64s(&self.beliefs);
        for g in &self.geodesics {
            h = stats::fnv(h, &g.to_le_bytes());
        }
        stats::fnv(h, &(self.iterations as u64).to_le_bytes())
    }

    fn lin(r: LinBpResult) -> Self {
        Self {
            beliefs: r.beliefs.residual().as_slice().to_vec(),
            geodesics: Vec::new(),
            iterations: r.iterations,
            rows_active: r.rows_active,
            rows_skipped: r.rows_skipped,
        }
    }

    fn sbp(r: SbpResult) -> Self {
        Self {
            beliefs: r.beliefs.residual().as_slice().to_vec(),
            geodesics: r.geodesics.g.clone(),
            iterations: 0,
            rows_active: 0,
            rows_skipped: 0,
        }
    }

    fn rwr(r: RwrResult) -> Self {
        Self {
            beliefs: r.beliefs.residual().as_slice().to_vec(),
            geodesics: Vec::new(),
            iterations: r.iterations,
            rows_active: 0,
            rows_skipped: 0,
        }
    }

    fn sql_sbp(state: &SqlSbpState, n: usize) -> Self {
        Self {
            beliefs: lsbp_reldb::sql::belief_table_to_matrix(&state.b, n, K)
                .residual()
                .as_slice()
                .to_vec(),
            geodesics: lsbp_reldb::sql::geodesic_table_to_vec(&state.g, n),
            iterations: 0,
            rows_active: 0,
            rows_skipped: 0,
        }
    }

    fn beliefs_only(b: BeliefMatrix) -> Self {
        Self {
            beliefs: b.residual().as_slice().to_vec(),
            geodesics: Vec::new(),
            iterations: 0,
            rows_active: 0,
            rows_skipped: 0,
        }
    }
}

/// Graph, matrices and derived state a run works on.
struct World {
    adj: CsrMatrix,
    h: Mat,
    ho: Mat,
    inputs: Inputs,
    /// Base LinBP beliefs per belief set (what the updates patch).
    base_lin: Vec<BeliefMatrix>,
    /// Base SBP results per belief set (what the SBP writes extend).
    base_sbp: Vec<SbpResult>,
    /// Adjacency with each new-edge batch added.
    adj_new: Vec<CsrMatrix>,
    paged: Option<PagedCsr>,
    sql: Option<SqlWorld>,
}

struct SqlWorld {
    lin: SqlDb,
    sbp: SqlDb,
    base: SqlSbpState,
}

/// One timed call.
struct Call {
    op: Op,
    pass: usize,
    start: f64,
    end: f64,
    traced: bool,
    /// Host speed factor around the call (filled in after the loop).
    factor: f64,
    /// Solver iterations and frontier rows of the answer.
    iterations: usize,
    rows_active: u64,
    rows_skipped: u64,
}

/// Runs an offline workload.
pub fn run(p: &Params, host: &mut Host) -> Result<Outcome, String> {
    let m = exponent(&p.workload);
    let n = 3usize.pow(m);
    std::fs::create_dir_all(&p.scratch_dir).map_err(|e| e.to_string())?;
    let store = p
        .scratch_dir
        .join(format!("{}-{}.shards", p.workload, p.seed));

    // Setup, repeated; each repetition is bracketed by probes.
    let mut setup_norm = Vec::new();
    let mut setup_raw = Vec::new();
    let mut gen_s = Vec::new();
    let mut csr_s = Vec::new();
    let mut built = None;
    host.probe();
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let t0 = host.now();
        let graph = trace::span("graph.generate", 0, || kronecker_graph(m));
        let t1 = host.now();
        let adj = trace::span("graph.csr_build", 0, || graph.adjacency());
        let t2 = host.now();
        let paged = if p.workload == "paged-kron" {
            // A pool budget of a quarter of the store forces misses,
            // evictions and prefetches on every sweep.
            let cfg = ParallelismConfig::from_env()
                .with_shards(PAGED_SHARDS)
                .with_memory_budget(adj.nnz() * 12 / 4);
            Some(
                trace::span("sparse.paged.spill", 0, || spill_paged(&adj, &store, &cfg))
                    .map_err(|e| format!("spill failed: {e}"))?,
            )
        } else {
            None
        };
        let sql = if p.workload == "sql-kron" {
            let e0 = inputs(n, p.seed).beliefs.swap_remove(0);
            let ho = CouplingMatrix::fig6b_residual();
            let lin = trace::span("reldb.new", 0, || SqlDb::new(&graph, &e0, &ho.scale(EPS)));
            let sbp = trace::span("reldb.new", 0, || SqlDb::new(&graph, &e0, &ho));
            Some((lin, sbp))
        } else {
            None
        };
        let t3 = host.now();
        host.probe();
        let f = host.factor_for(t0, t3);
        setup_raw.push(t3 - t0);
        setup_norm.push((t3 - t0) / f);
        gen_s.push((t1 - t0) / f);
        csr_s.push((t2 - t1) / f);
        built = Some((graph, adj, paged, sql));
    }
    let (graph, adj, paged, sql) = built.expect("SETUP_REPS >= 1");

    // Untimed preparation: inputs, base states for the writes.
    let ho = CouplingMatrix::fig6b_residual();
    let h = ho.scale(EPS);
    let inputs = inputs(n, p.seed);
    let base_lin = inputs
        .beliefs
        .iter()
        .map(|e| linbp(&adj, e, &h, &linbp_opts()).map(|r| r.beliefs))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("base LinBP failed: {e}"))?;
    let base_sbp = inputs
        .beliefs
        .iter()
        .map(|e| sbp(&adj, e, &ho))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("base SBP failed: {e:?}"))?;
    let adj_new = inputs
        .new_edges
        .iter()
        .map(|batch| {
            let both: Vec<(usize, usize, f64)> = batch
                .iter()
                .flat_map(|&(s, t, w)| [(s, t, w), (t, s, w)])
                .collect();
            adj.try_with_edge_deltas(&both)
                .map_err(|e| format!("edge batch rejected: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let sql = sql.map(|(lin, sbp)| {
        let base = sbp.sbp();
        SqlWorld { lin, sbp, base }
    });
    drop(graph);
    let world = World {
        adj,
        h,
        ho,
        inputs,
        base_lin,
        base_sbp,
        adj_new,
        paged,
        sql,
    };
    let jobs = job_list(&p.workload);
    let pager_before = world.paged.as_ref().map(|pg| pg.stats());

    // The timed loop: whole passes over the job list until the time is up.
    let mut calls: Vec<Call> = Vec::new();
    let mut seen: HashMap<(usize, usize), u64> = HashMap::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut failures: Vec<String> = Vec::new();
    let t_end = host.now() + p.seconds;
    let mut pass = 0;
    host.probe();
    while pass == 0 || host.now() < t_end {
        // In a traced run, every other pass is untraced so the tracing
        // overhead can be measured as traced − untraced.
        let traced = p.trace && pass % 2 == 0;
        trace::set(traced);
        for (j, entry) in jobs.iter().enumerate() {
            let job = Job {
                op: entry.op,
                input: entry.input + pass,
            };
            let scratch = prepare(&world, &job);
            let start = host.now();
            let out = trace::span(job.op.span(), j as u64 + 1, || call(&world, &job, scratch));
            let end = host.now();
            host.probe();
            attempted += 1;
            let mut call_rec = Call {
                op: job.op,
                pass,
                start,
                end,
                traced,
                factor: 0.0,
                iterations: 0,
                rows_active: 0,
                rows_skipped: 0,
            };
            match out {
                Ok(ans) => {
                    call_rec.iterations = ans.iterations;
                    call_rec.rows_active = ans.rows_active;
                    call_rec.rows_skipped = ans.rows_skipped;
                    // The first answer to each (job, input) is checked
                    // against an independent computation (untimed); every
                    // repeat must match it bitwise.
                    let key = (j, job.input % INPUT_CYCLE);
                    let h = ans.hash();
                    match seen.get(&key) {
                        None => {
                            if let Err(e) = trace::span("check", 0, || check(&world, &job, &ans)) {
                                failed += 1;
                                failures.push(format!("job {j} ({:?}): {e}", job.op));
                            }
                            seen.insert(key, h);
                        }
                        Some(h0) if *h0 == h => {}
                        Some(_) => {
                            failed += 1;
                            failures.push(format!("job {j} ({:?}) not deterministic", job.op));
                        }
                    }
                }
                Err(e) => {
                    failed += 1;
                    failures.push(format!("job {j} ({:?}) failed: {e}", job.op));
                }
            }
            calls.push(call_rec);
        }
        pass += 1;
    }
    trace::set(p.trace);
    let passes = pass;

    for c in &mut calls {
        c.factor = host.factor_for(c.start, c.end);
    }
    let mut out = Outcome::new(attempted, failed, failures);
    for (norm, dst) in [(true, &mut out.e2e), (false, &mut out.e2e_raw)] {
        let f = |c: &Call| if norm { c.factor } else { 1.0 };
        let setup = if norm { &setup_norm } else { &setup_raw };
        summarise(dst, &calls, passes, setup, &f);
    }

    if p.trace {
        let f = |c: &Call| c.factor;
        layer_metrics(&mut out.layer, &world, host, &calls, &jobs, &f, passes)?;
        out.layer.insert("graph.generate_s", median(&gen_s));
        out.layer.insert("graph.csr_build_s", median(&csr_s));
        if let (Some(pg), Some(before)) = (&world.paged, pager_before) {
            let s = pg.stats();
            let per = |a: u64, b: u64| (a - b) as f64 / passes as f64;
            let store_bytes = std::fs::metadata(pg.path()).map(|m| m.len()).unwrap_or(0) as f64;
            let shard_bytes = store_bytes / pg.num_shards() as f64;
            let misses = per(s.misses, before.misses);
            let prefetches = per(s.prefetches, before.prefetches);
            out.layer
                .insert("sparse.paged.hits", per(s.hits, before.hits));
            out.layer.insert("sparse.paged.misses", misses);
            out.layer
                .insert("sparse.paged.evictions", per(s.evictions, before.evictions));
            out.layer.insert("sparse.paged.prefetches", prefetches);
            out.layer
                .insert("sparse.paged.miss_bytes", misses * shard_bytes);
            out.layer.insert(
                "sparse.paged.over_resident",
                (misses + prefetches) * shard_bytes / store_bytes.max(1.0),
            );
        }
    }
    out.detail.push(("passes".into(), passes.to_string()));
    out.detail
        .push(("calls_per_pass".into(), jobs.len().to_string()));
    out.detail.push((
        "input_hash".into(),
        stats::jstr(&format!("{:016x}", inputs_hash(&p.workload, p.seed))),
    ));
    let reads = calls.iter().filter(|c| !c.op.is_write()).count();
    out.detail.push((
        "read_tail_percentile".into(),
        stats::num(stats::tail_percentile(reads)),
    ));
    out.detail.push(("read_samples".into(), reads.to_string()));
    out.peak_rss_mb = stats::peak_rss_mb("self");
    drop(world);
    let _ = std::fs::remove_file(&store);
    Ok(out)
}

/// Untimed per-call preparation (a fresh copy of the relational state for
/// ΔSBP, which mutates its database).
enum Scratch {
    None,
    Sql(Box<(SqlDb, SqlSbpState)>),
}

fn prepare(w: &World, job: &Job) -> Scratch {
    match (job.op, &w.sql) {
        (Op::SqlSbpAdd, Some(s)) => Scratch::Sql(Box::new((s.sbp.clone(), s.base.clone()))),
        _ => Scratch::None,
    }
}

/// The timed call itself.
fn call(w: &World, job: &Job, scratch: Scratch) -> Result<Answer, String> {
    if let Some(pg) = &w.paged {
        return call_on(pg, w, job);
    }
    let inp = &w.inputs;
    let i = job.input;
    let err = |e: &dyn std::fmt::Debug| format!("{e:?}");
    match job.op {
        Op::LinBp => linbp(&w.adj, pick(&inp.beliefs, i), &w.h, &linbp_opts())
            .map(Answer::lin)
            .map_err(|e| err(&e)),
        Op::LinBpStar => linbp_star(&w.adj, pick(&inp.beliefs, i), &w.h, &linbp_opts())
            .map(Answer::lin)
            .map_err(|e| err(&e)),
        Op::Sbp => sbp(&w.adj, pick(&inp.beliefs, i), &w.ho)
            .map(Answer::sbp)
            .map_err(|e| err(&e)),
        Op::Rwr => rwr(&w.adj, pick(&inp.labels, i), &rwr_opts())
            .map(Answer::rwr)
            .map_err(|e| err(&e)),
        Op::Update => {
            let (base, delta) = (pick(&w.base_lin, i), pick(&inp.deltas, i));
            linbp_update(&w.adj, base, delta, &w.h, &linbp_opts(), true)
                .map(Answer::lin)
                .map_err(|e| err(&e))
        }
        Op::SbpAddExplicit => {
            sbp_add_explicit(&w.adj, &w.ho, pick(&w.base_sbp, i), pick(&inp.deltas, i))
                .map(Answer::sbp)
                .map_err(|e| err(&e))
        }
        Op::SbpAddEdges => {
            let (adj_new, edges) = (pick(&w.adj_new, i), pick(&inp.new_edges, i));
            sbp_add_edges(adj_new, edges, &w.ho, pick(&w.base_sbp, i))
                .map(Answer::sbp)
                .map_err(|e| err(&e))
        }
        Op::SqlLinBp | Op::SqlText | Op::SqlSbp | Op::SqlSbpAdd => {
            let s = w.sql.as_ref().ok_or("no relational state")?;
            let n = w.adj.n_rows();
            Ok(match (job.op, scratch) {
                (Op::SqlLinBp, _) => Answer::beliefs_only(s.lin.linbp(SQL_ITERS, true)),
                (Op::SqlText, _) => Answer::beliefs_only(s.lin.linbp_sql_text(SQL_ITERS)),
                (Op::SqlSbp, _) => Answer::sql_sbp(&s.sbp.sbp(), n),
                (_, Scratch::Sql(b)) => {
                    let (mut db, mut state) = *b;
                    db.sbp_add_explicit(&mut state, pick(&inp.deltas, i));
                    Answer::sql_sbp(&state, n)
                }
                (_, Scratch::None) => return Err("ΔSBP without prepared state".into()),
            })
        }
    }
}

/// A job through the generic `*_on` entry points, on any operator: the
/// paged path, and the resident reference it must equal bitwise. The
/// update is a batch of one, the form the operator API offers.
fn call_on<A: PropagationOperator + ?Sized>(
    op: &A,
    w: &World,
    job: &Job,
) -> Result<Answer, String> {
    let inp = &w.inputs;
    let i = job.input;
    let err = |e: &dyn std::fmt::Debug| format!("{e:?}");
    match job.op {
        Op::LinBp => linbp_on(op, pick(&inp.beliefs, i), &w.h, &linbp_opts())
            .map(Answer::lin)
            .map_err(|e| err(&e)),
        Op::LinBpStar => linbp_star_on(op, pick(&inp.beliefs, i), &w.h, &linbp_opts())
            .map(Answer::lin)
            .map_err(|e| err(&e)),
        Op::Sbp => sbp_on(
            op,
            pick(&inp.beliefs, i),
            &w.ho,
            &ParallelismConfig::from_env(),
        )
        .map(Answer::sbp)
        .map_err(|e| err(&e)),
        Op::Rwr => rwr_on(op, pick(&inp.labels, i), &rwr_opts())
            .map(Answer::rwr)
            .map_err(|e| err(&e)),
        Op::Update => linbp_update_batch_on(
            op,
            &[pick(&w.base_lin, i)],
            std::slice::from_ref(pick(&inp.deltas, i)),
            &w.h,
            &linbp_opts(),
            true,
        )
        .map_err(|e| err(&e))?
        .pop()
        .map(Answer::lin)
        .ok_or_else(|| "empty batch result".into()),
        other => Err(format!("{other:?} has no operator form")),
    }
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Checks one job's answer against an independent computation.
fn check(w: &World, job: &Job, ans: &Answer) -> Result<(), String> {
    let inp = &w.inputs;
    let i = job.input;
    let lin = linbp_opts();
    let close = |want: &[f64], tol: f64| {
        let d = max_abs_diff(&ans.beliefs, want);
        if d <= tol {
            Ok(())
        } else {
            Err(format!("max |Δ| = {d:e} > {tol:e}"))
        }
    };
    if ans.beliefs.iter().any(|x| !x.is_finite()) {
        return Err("non-finite belief".into());
    }
    if w.paged.is_some() {
        return if call_on(&w.adj, w, job)?.hash() == ans.hash() {
            Ok(())
        } else {
            Err("paged answer differs bitwise from resident".into())
        };
    }
    match job.op {
        Op::LinBp | Op::LinBpStar => {
            if ans.iterations >= lin.max_iter {
                return Err("did not converge".into());
            }
            Ok(())
        }
        Op::Update => {
            // Linearity: B(E) + B(ΔE) = B(E + ΔE) (Proposition 7).
            let mut sum = pick(&inp.beliefs, i).clone();
            add_explicit(&mut sum, pick(&inp.deltas, i));
            let want = linbp(&w.adj, &sum, &w.h, &lin).map_err(|e| e.to_string())?;
            close(want.beliefs.residual().as_slice(), 1e-8)
        }
        Op::Sbp | Op::Rwr => Ok(()),
        Op::SbpAddExplicit => {
            let mut sum = pick(&inp.beliefs, i).clone();
            overwrite_explicit(&mut sum, pick(&inp.deltas, i));
            let want = sbp(&w.adj, &sum, &w.ho).map_err(|e| format!("{e:?}"))?;
            same_sbp(ans, &want)
        }
        Op::SbpAddEdges => {
            let want = sbp(pick(&w.adj_new, i), pick(&inp.beliefs, i), &w.ho)
                .map_err(|e| format!("{e:?}"))?;
            same_sbp(ans, &want)
        }
        Op::SqlLinBp | Op::SqlText => {
            let exact = LinBpOptions {
                tol: 0.0,
                max_iter: SQL_ITERS,
                ..lin
            };
            let want = linbp(&w.adj, &inp.beliefs[0], &w.h, &exact).map_err(|e| e.to_string())?;
            close(want.beliefs.residual().as_slice(), 1e-10)
        }
        Op::SqlSbp => {
            let want = sbp(&w.adj, &inp.beliefs[0], &w.ho).map_err(|e| format!("{e:?}"))?;
            same_sbp(ans, &want)
        }
        Op::SqlSbpAdd => {
            let want = sbp_add_explicit(&w.adj, &w.ho, &w.base_sbp[0], pick(&inp.deltas, i))
                .map_err(|e| format!("{e:?}"))?;
            same_sbp(ans, &want)
        }
    }
}

fn same_sbp(ans: &Answer, want: &SbpResult) -> Result<(), String> {
    if ans.geodesics != want.geodesics.g {
        return Err("geodesic numbers differ".into());
    }
    let d = max_abs_diff(&ans.beliefs, want.beliefs.residual().as_slice());
    if d > 1e-10 {
        return Err(format!("SBP beliefs differ by {d:e}"));
    }
    Ok(())
}

fn add_explicit(dst: &mut ExplicitBeliefs, add: &ExplicitBeliefs) {
    for v in add.explicit_nodes() {
        let row: Vec<f64> = dst
            .row(v)
            .iter()
            .zip(add.row(v))
            .map(|(a, b)| a + b)
            .collect();
        dst.set_residual(v, &row)
            .expect("sum of centred rows is centred");
    }
}

fn overwrite_explicit(dst: &mut ExplicitBeliefs, add: &ExplicitBeliefs) {
    for v in add.explicit_nodes() {
        dst.set_residual(v, add.row(v)).expect("centred row");
    }
}

fn read_times(calls: &[Call], f: &dyn Fn(&Call) -> f64) -> Vec<f64> {
    calls
        .iter()
        .filter(|c| !c.op.is_write())
        .map(|c| (c.end - c.start) / f(c))
        .collect()
}

/// The nine end-to-end metrics from the calls, with `f` giving each call's
/// speed factor (1 for the raw figures).
fn summarise(
    dst: &mut BTreeMap<&'static str, f64>,
    calls: &[Call],
    passes: usize,
    setup: &[f64],
    f: &dyn Fn(&Call) -> f64,
) {
    let dur = |c: &Call| (c.end - c.start) / f(c);
    let walls: Vec<f64> = (0..passes)
        .map(|p| calls.iter().filter(|c| c.pass == p).map(dur).sum())
        .collect();
    let reads = read_times(calls, f);
    let writes: Vec<f64> = calls.iter().filter(|c| c.op.is_write()).map(dur).collect();
    let ok_reads = reads.iter().filter(|&&t| t <= READ_LIMIT_S).count() as f64;
    dst.insert("setup_s", median(setup));
    dst.insert("wall_s", median(&walls));
    dst.insert("read_p50_ms", median(&reads) * 1e3);
    dst.insert("read_tail_ms", stats::tail(&reads).1 * 1e3);
    dst.insert("write_p50_ms", median(&writes) * 1e3);
    dst.insert("goodput_rps", ok_reads / walls.iter().sum::<f64>());
    dst.insert("max_rate_at_slo_rps", ok_reads / reads.iter().sum::<f64>());
}

/// Per-layer metrics of a traced offline run.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    dst: &mut BTreeMap<&'static str, f64>,
    w: &World,
    host: &mut Host,
    calls: &[Call],
    jobs: &[Job],
    f: &dyn Fn(&Call) -> f64,
    passes: usize,
) -> Result<(), String> {
    let ms_of = |op: Op| {
        let v: Vec<f64> = calls
            .iter()
            .filter(|c| c.op == op)
            .map(|c| (c.end - c.start) / f(c) * 1e3)
            .collect();
        median(&v)
    };
    let walls = |traced: bool| {
        let v: Vec<f64> = (0..passes)
            .filter(|&p| calls.iter().any(|c| c.pass == p && c.traced == traced))
            .map(|p| {
                calls
                    .iter()
                    .filter(|c| c.pass == p)
                    .map(|c| (c.end - c.start) / f(c))
                    .sum()
            })
            .collect();
        median(&v)
    };
    let untraced = walls(false);
    if untraced > 0.0 {
        dst.insert(
            "trace.overhead_pct",
            (walls(true) - untraced) / untraced * 100.0,
        );
    }
    match jobs.first().map(|j| j.op) {
        Some(Op::SqlLinBp) => {
            dst.insert(
                "reldb.linbp_iter_ms",
                ms_of(Op::SqlLinBp) / SQL_ITERS as f64,
            );
            dst.insert("reldb.text_iter_ms", ms_of(Op::SqlText) / SQL_ITERS as f64);
            dst.insert("reldb.sbp_ms", ms_of(Op::SqlSbp));
            dst.insert("reldb.sbp_delta_ms", ms_of(Op::SqlSbpAdd));
            if let Some(s) = &w.sql {
                dst.insert("reldb.plan_bound_over_actual", plan_bound_over_actual(s)?);
            }
            return Ok(());
        }
        None => return Ok(()),
        _ => {}
    }
    dst.insert("core.linbp_ms", ms_of(Op::LinBp));
    dst.insert("core.rwr_ms", ms_of(Op::Rwr));
    dst.insert("core.sbp_ms", ms_of(Op::Sbp));
    dst.insert("core.update_ms", ms_of(Op::Update));
    let lin: Vec<&Call> = calls.iter().filter(|c| c.op == Op::LinBp).collect();
    let iters: Vec<f64> = lin.iter().map(|c| c.iterations as f64).collect();
    dst.insert("core.iterations", median(&iters));
    let active: u64 = lin.iter().map(|c| c.rows_active).sum();
    let skipped: u64 = lin.iter().map(|c| c.rows_skipped).sum();
    dst.insert(
        "core.rows_skipped_ratio",
        skipped as f64 / (active + skipped).max(1) as f64,
    );

    // Kernel probes on the resident matrix, each call between host probes.
    let n = w.adj.n_rows();
    let b = w.base_lin[0].residual().clone();
    let timed = |host: &mut Host, g: &mut dyn FnMut()| {
        let mut v = Vec::new();
        for _ in 0..7 {
            let s = host.now();
            g();
            let e = host.now();
            host.probe();
            v.push((e - s) / host.factor_for(s, e));
        }
        median(&v)
    };
    host.probe();
    let pooled = ParallelismConfig::from_env();
    let serial = ParallelismConfig::with_threads(1);
    let spmm = timed(host, &mut || {
        trace::span("sparse.spmm", 0, || {
            std::hint::black_box(w.adj.spmm_with(&b, &pooled))
        });
    });
    let spmm_serial = timed(host, &mut || {
        trace::span("sparse.spmm_serial", 0, || {
            std::hint::black_box(w.adj.spmm_with(&b, &serial))
        });
    });
    dst.insert("sparse.spmm_ms_k", spmm * 1e3);
    dst.insert("linalg.pool_speedup", spmm_serial / spmm);
    // Computed bytes of one SpMM: values + column indices + row offsets,
    // one gathered k-row of B per nonzero, and the n×k output.
    let nnz = w.adj.nnz() as f64;
    let bytes = nnz * 12.0 + (n as f64 + 1.0) * 8.0 + nnz * (K * 8) as f64 + (n * K * 8) as f64;
    dst.insert("sparse.effective_gbs", bytes / spmm / 1e9);

    // Per-iteration fused LinBP step times from the solver's observer.
    let mut steps = Vec::new();
    for _ in 0..3 {
        let mut stamps = vec![host.now()];
        let s = stamps[0];
        linbp_observed(
            &w.adj,
            &w.inputs.beliefs[0],
            &w.h,
            &linbp_opts(),
            true,
            |_| stamps.push(host.now()),
        )
        .map_err(|e| e.to_string())?;
        let e = host.now();
        host.probe();
        let fct = host.factor_for(s, e);
        steps.extend(stamps.windows(2).skip(1).map(|p| (p[1] - p[0]) / fct));
    }
    dst.insert("sparse.fused_step_ms", median(&steps) * 1e3);
    Ok(())
}

/// Bound over actual cardinality at the root of the planner's plan for
/// the first join of Algorithm 1 (`A ⋈ E`), from `EXPLAIN`.
fn plan_bound_over_actual(s: &SqlWorld) -> Result<f64, String> {
    let mut db = lsbp_reldb::Database::new();
    db.insert_table("A", s.lin.a().clone());
    db.insert_table("E", s.lin.e().clone());
    let text = trace::span("reldb.explain", 0, || {
        db.explain(
            "explain select A.t as v, E.c as c, sum(A.w * E.b) as b \
             from A, E where A.s = E.v group by A.t, E.c",
        )
    })
    .map_err(|e| e.to_string())?;
    let root = text.lines().next().unwrap_or("");
    let field = |key: &str| {
        root.split_whitespace()
            .find_map(|tok| tok.strip_prefix(key))
            .and_then(|v| {
                v.trim_end_matches(|c: char| !c.is_ascii_digit())
                    .parse::<f64>()
                    .ok()
            })
    };
    match (field("bound<="), field("actual=")) {
        (Some(b), Some(a)) if a > 0.0 => Ok(b / a),
        _ => Err(format!("unexpected EXPLAIN output: {root}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalisation_divides_times_and_multiplies_rates() {
        // Every call ran on a host twice as slow as nominal.
        let mk = |op, pass, start: f64| Call {
            op,
            pass,
            start,
            end: start + 0.2,
            traced: false,
            factor: 2.0,
            iterations: 0,
            rows_active: 0,
            rows_skipped: 0,
        };
        let calls = vec![
            mk(Op::LinBp, 0, 0.0),
            mk(Op::Update, 0, 1.0),
            mk(Op::LinBp, 1, 2.0),
            mk(Op::Update, 1, 3.0),
        ];
        let (mut norm, mut raw) = (BTreeMap::new(), BTreeMap::new());
        summarise(&mut norm, &calls, 2, &[1.0], &|c| c.factor);
        summarise(&mut raw, &calls, 2, &[2.0], &|_| 1.0);
        for name in [
            "setup_s",
            "wall_s",
            "read_p50_ms",
            "read_tail_ms",
            "write_p50_ms",
        ] {
            assert!(
                (norm[name] * 2.0 - raw[name]).abs() < 1e-12,
                "{name} is a time"
            );
        }
        for name in ["goodput_rps", "max_rate_at_slo_rps"] {
            assert!(
                (norm[name] - raw[name] * 2.0).abs() < 1e-9,
                "{name} is a rate"
            );
        }
    }
}
