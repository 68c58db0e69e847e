//! The host reference loop and the normalisation built on it.
//!
//! The machine this benchmark runs on drifts in speed by up to 2× over
//! spells of seconds to minutes, and memory-bound code drifts more than
//! arithmetic. A fixed piece of work that mixes the three access patterns
//! the workloads live on — streaming over an 8 MiB buffer, a chain of
//! integer operations, and a sparse-matrix × 3-column product that gathers
//! rows of a vector at random — is timed in *probes* throughout a run, only
//! while the program under test is idle. A probe's time over
//! [`REF_NOMINAL_S`] is the host's speed factor at that moment; every
//! timing is divided by the factor of the probes nearest to it and every
//! rate multiplied by it. The raw value is always the normalised value
//! times the factor, so nothing is lost.
//!
//! The gather matters: over five minutes of drift on the reference host,
//! a resident LinBP solve divided by the stream-and-arithmetic part alone
//! still varied with IQR/median 0.18 across 15-s windows; divided by the
//! whole probe, 0.05 (a relational LinBP iteration: 0.10 and 0.02).
//!
//! This file uses the standard library only. No workspace crate may appear
//! here: the reference must be byte-identical on the parent and on any
//! change, so that no change to the program can move it (a test in
//! `main.rs` checks this).

use std::hint::black_box;
use std::time::Instant;

/// Nominal duration of one probe on the reference host (2 vCPUs, the
/// machine the committed figures come from). Only the scale of normalised
/// values depends on it; a different value is a different benchmark, so the
/// comparison tool refuses to mix runs that disagree on it.
pub const REF_NOMINAL_S: f64 = 0.0100;

/// Words in the streaming buffer: 8 MiB of `u64`.
const STREAM_WORDS: usize = 1 << 20;
/// Dependent integer steps per probe.
const ARITH_STEPS: u64 = 1_500_000;
/// Rows and nonzeros per row of the gather matrix (about 1M nonzeros, the
/// size of the `label-kron` graph), and its column count.
const GATHER_ROWS: usize = 60_000;
const GATHER_PER_ROW: usize = 17;
const GATHER_K: usize = 3;

/// One timed probe: the work plus when it ran.
#[derive(Clone, Copy, Debug)]
pub struct Probe {
    /// Seconds since the [`Host`] was created, at the probe's midpoint.
    pub at: f64,
    /// Probe duration in seconds.
    pub secs: f64,
}

/// Owns the reference buffer and every probe of a run.
pub struct Host {
    work: Work,
    t0: Instant,
    probes: Vec<Probe>,
}

impl Host {
    /// Builds and warms the reference data (the warm-up probe is not
    /// recorded).
    pub fn new() -> Self {
        let mut host = Self {
            work: Work::new(),
            t0: Instant::now(),
            probes: Vec::new(),
        };
        black_box(host.work.run());
        host
    }

    /// Seconds since creation — the clock every timestamp of a run uses.
    pub fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// The instant the run clock counts from, for threads that stamp
    /// events on the same clock.
    pub fn epoch(&self) -> Instant {
        self.t0
    }

    /// Runs one probe and records it. Call only while the program under
    /// test is idle.
    pub fn probe(&mut self) -> f64 {
        let start = self.now();
        let t = Instant::now();
        black_box(self.work.run());
        let secs = t.elapsed().as_secs_f64();
        self.probes.push(Probe {
            at: start + secs / 2.0,
            secs,
        });
        secs
    }

    /// Every probe recorded so far, in time order.
    pub fn probes(&self) -> &[Probe] {
        &self.probes
    }

    /// The speed factor for an interval `[from, to]` of the run clock: the
    /// mean of the last probe that started before `from` and the first one
    /// that ended after `to` (or the nearest one when only one side exists),
    /// over [`REF_NOMINAL_S`]. `> 1` means the host ran slow.
    pub fn factor_for(&self, from: f64, to: f64) -> f64 {
        factor_for(&self.probes, from, to)
    }

    /// Median speed factor over every probe of the run.
    pub fn median_factor(&self) -> f64 {
        let mut f: Vec<f64> = self.probes.iter().map(|p| p.secs / REF_NOMINAL_S).collect();
        f.sort_by(f64::total_cmp);
        match f.len() {
            0 => 1.0,
            n if n % 2 == 1 => f[n / 2],
            n => 0.5 * (f[n / 2 - 1] + f[n / 2]),
        }
    }

    /// Median probe duration in milliseconds.
    pub fn median_ref_ms(&self) -> f64 {
        self.median_factor() * REF_NOMINAL_S * 1e3
    }
}

/// See [`Host::factor_for`].
pub fn factor_for(probes: &[Probe], from: f64, to: f64) -> f64 {
    let before = probes.iter().rev().find(|p| p.at <= from);
    let after = probes.iter().find(|p| p.at >= to);
    let secs = match (before, after) {
        (Some(b), Some(a)) => 0.5 * (b.secs + a.secs),
        (Some(p), None) | (None, Some(p)) => p.secs,
        (None, None) => REF_NOMINAL_S,
    };
    secs / REF_NOMINAL_S
}

/// The reference data: the streaming buffer and a fixed sparse matrix
/// (row `r` holds columns `cols[r * GATHER_PER_ROW..]`) with its input and
/// output blocks.
struct Work {
    buf: Vec<u64>,
    cols: Vec<u32>,
    vals: Vec<f64>,
    x: Vec<f64>,
    y: Vec<f64>,
}

impl Work {
    fn new() -> Self {
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let cols = (0..GATHER_ROWS * GATHER_PER_ROW)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s % GATHER_ROWS as u64) as u32
            })
            .collect();
        Self {
            buf: (0..STREAM_WORDS as u64).collect(),
            cols,
            vals: vec![0.5; GATHER_ROWS * GATHER_PER_ROW],
            x: vec![1.0; GATHER_ROWS * GATHER_K],
            y: vec![0.0; GATHER_ROWS * GATHER_K],
        }
    }

    /// One probe's work: a read-modify-write pass over the buffer, a
    /// dependent xorshift chain, and `y = A·x` over `k` columns. Returns a
    /// checksum so the optimiser cannot drop it.
    fn run(&mut self) -> u64 {
        let mut sum = 0u64;
        for x in self.buf.iter_mut() {
            *x = x.wrapping_add(1);
            sum = sum.wrapping_add(*x);
        }
        let mut s = black_box(sum) | 1;
        let mut acc = 0u64;
        for _ in 0..ARITH_STEPS {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            acc = acc.wrapping_add(s);
        }
        let rows = self
            .cols
            .chunks(GATHER_PER_ROW)
            .zip(self.vals.chunks(GATHER_PER_ROW));
        for ((cols, vals), out) in rows.zip(self.y.chunks_mut(GATHER_K)) {
            let mut a = [0.0; GATHER_K];
            for (&c, &w) in cols.iter().zip(vals) {
                let xr = &self.x[c as usize * GATHER_K..][..GATHER_K];
                for (ai, xi) in a.iter_mut().zip(xr) {
                    *ai += w * xi;
                }
            }
            out.copy_from_slice(&a);
        }
        black_box(&self.y);
        black_box(acc ^ sum)
    }
}
