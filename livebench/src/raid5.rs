//! The two RAID5 workloads: `small_rmw` (4 KiB units, every write a
//! parity-locked read-modify-write) and `stripe_stream` (1 MiB units of
//! four whole parity groups, no lock and no RMW). Both run a healthy
//! closed loop, then failure rounds: fail a server, read degraded,
//! rebuild, scrub.

use crate::content::{read_ok, verify_file, Pattern, UnitShadow, VERIFY_CHUNK};
use crate::live::{
    add_stats, begin_segment, end_segment, on_clients, rebuilds, spawn, timed, traced_round,
    Healthy, LiveCtx, LiveRun, OpGen, Tally, CLIENTS, FAILED, ROUNDS, STRIPE_UNIT,
    THROUGHPUT_WINDOW,
};
use crate::spans::BenchSpan;
use crate::stats::Latencies;
use csar_cluster::{Cluster, File, OpStats};
use csar_core::proto::Scheme;
use csar_core::CsarError;
use std::sync::Mutex;
use std::time::Instant;

/// The benchmark file's name.
pub const FILE: &str = "bench";

/// Shape of a RAID5 workload.
#[derive(Debug, Clone, Copy)]
pub struct Raid5Spec {
    /// Logical file size, prefilled before the run.
    pub file_bytes: u64,
    /// Bytes per op; ops are aligned to it.
    pub op_bytes: u64,
}

impl Raid5Spec {
    /// Units (op-sized, op-aligned ranges) in the file.
    pub fn units(&self) -> u64 {
        self.file_bytes / self.op_bytes
    }
}

/// Create the RAID5 file and fill it with every unit's version-0
/// content through `File::write_at`.
pub fn prefill(
    cluster: &Cluster,
    spec: &Raid5Spec,
    shadow: &UnitShadow,
) -> Result<File, CsarError> {
    let file = cluster.client().create(FILE, Scheme::Raid5, STRIPE_UNIT)?;
    let per_write = (VERIFY_CHUNK / spec.op_bytes).max(1);
    let mut first = 0;
    while first < spec.units() {
        let n = per_write.min(spec.units() - first);
        file.write_at(first * spec.op_bytes, &shadow.current_range(first, n))?;
        first += n;
    }
    Ok(file)
}

/// One stretch of closed-loop ops on every client.
struct Loop<'a> {
    cluster: &'a Cluster,
    spec: &'a Raid5Spec,
    shadow: &'a UnitShadow<'a>,
    ctx: &'a LiveCtx<'a>,
    /// Each client's op stream, continued from stretch to stretch.
    gens: &'a [Mutex<OpGen>],
    deadline: Instant,
    /// Every op is a read (the degraded phase).
    reads_only: bool,
    /// Record latencies and counts.
    measure: bool,
    /// Record benchmark spans and feed the scraper.
    traced: bool,
}

/// One client's share of a stretch.
#[derive(Default)]
struct ClientOut {
    writes: Latencies,
    reads: Latencies,
    /// When each measured op completed.
    ends: Vec<Instant>,
    writes_total: u64,
    stats: OpStats,
    spans: Vec<BenchSpan>,
}

impl Loop<'_> {
    /// Run the stretch on both clients; returns their outputs and the
    /// stretch's start.
    fn run(&self) -> (Vec<ClientOut>, Instant) {
        let start = Instant::now();
        (on_clients(|c| self.client(c)), start)
    }

    fn client(&self, client: u64) -> ClientOut {
        let mut out = ClientOut::default();
        let tally = self.ctx.tally;
        let file = match self.cluster.client().open(FILE) {
            Ok(f) => f,
            Err(e) => {
                tally.check(false, || format!("client {client}: open failed: {e}"));
                return out;
            }
        };
        let mut gen = self.gens[client as usize]
            .lock()
            .expect("op stream poisoned");
        while Instant::now() < self.deadline {
            let (mut write, idx) = gen.next_op();
            write &= !self.reads_only;
            let off = idx * self.spec.op_bytes;
            let t0 = Instant::now();
            let ok = if write {
                let (v, data) = self.shadow.next(idx);
                let res = file.write_at(off, data);
                if res.is_ok() {
                    self.shadow.commit(idx, v);
                }
                res.is_ok()
            } else {
                read_ok(&file.read_at(off, self.spec.op_bytes), off, self.shadow)
            };
            let dt = t0.elapsed();
            tally.check(ok, || {
                let what = if write { "write" } else { "read" };
                format!("client {client}: {what} of unit {idx} failed")
            });
            if let Some((bench, scraper)) = self.ctx.traced.filter(|_| self.traced) {
                let name = if write { "write_at" } else { "read_at" };
                out.spans.push(bench.span(name, client as u32, t0, dt));
                scraper.tick(self.cluster);
            }
            if self.measure {
                let lat = if write {
                    &mut out.writes
                } else {
                    &mut out.reads
                };
                lat.push(dt.as_nanos() as u64);
                out.writes_total += u64::from(write);
                out.ends.push(t0 + dt);
            }
        }
        out.stats = file.op_stats();
        out
    }
}

/// Fold a measured stretch into `h`: its ops, and its throughput
/// windows, each as many consecutive completions as the stretch averaged
/// per [`THROUGHPUT_WINDOW`], timed from the completion before the first
/// (from the stretch's start for the first window).
fn absorb(h: &mut Healthy, outs: Vec<ClientOut>, start: Instant, op_bytes: u64, ctx: &LiveCtx) {
    let mut ends = Vec::new();
    for o in outs {
        h.writes.extend(&o.writes);
        h.reads.extend(&o.reads);
        ends.extend(o.ends);
        h.writes_total += o.writes_total;
        h.bytes_written += o.writes_total * op_bytes;
        add_stats(&mut h.op_stats, &o.stats);
        if let Some((bench, _)) = ctx.traced {
            bench.extend(o.spans);
        }
    }
    ends.sort_unstable();
    let ops = ends.len() as u64;
    let secs = ends.last().map_or(0.0, |&e| (e - start).as_secs_f64());
    h.add_measured(ops, ops * op_bytes, secs);
    // A stretch shorter than a window is one window.
    let per = (ops as f64 * THROUGHPUT_WINDOW.as_secs_f64() / secs.max(1e-9))
        .clamp(1.0, ops.max(1) as f64) as usize;
    let mut from = start;
    for window in ends.chunks_exact(per) {
        let to = window[per - 1];
        let n = per as u64;
        h.windows.push((n, n * op_bytes, (to - from).as_secs_f64()));
        from = to;
    }
}

/// Run one RAID5 workload against a fresh cluster.
pub fn run(spec: &Raid5Spec, pattern: &Pattern, ctx: &LiveCtx) -> LiveRun {
    let mut run = LiveRun::default();
    let tally: &Tally = ctx.tally;
    let mut kept = None;
    for i in 0..ctx.setups.max(1) {
        let shadow = UnitShadow::new(pattern, spec.op_bytes, spec.units());
        let t0 = Instant::now();
        let cluster = spawn();
        let file = prefill(&cluster, spec, &shadow);
        run.setup_s.push(t0.elapsed().as_secs_f64());
        tally.check(file.is_ok(), || "prefill failed".into());
        if i + 1 == ctx.setups.max(1) {
            kept = Some((cluster, shadow));
        } else {
            cluster.shutdown();
        }
    }
    let Some((cluster, shadow)) = kept else {
        return run;
    };
    // Each client's healthy op stream continues from round to round;
    // each round's degraded reads draw a stream of their own.
    let streams = |stream: u64| -> Vec<Mutex<OpGen>> {
        (0..CLIENTS)
            .map(|c| Mutex::new(OpGen::new(ctx.seed, stream, c, spec.units())))
            .collect()
    };
    let healthy_gens = streams(0);
    let stretch = |gens: &[Mutex<OpGen>], deadline, reads_only, measure, traced| {
        Loop {
            cluster: &cluster,
            spec,
            shadow: &shadow,
            ctx,
            gens,
            deadline,
            reads_only,
            measure,
            traced,
        }
        .run()
    };
    stretch(
        &healthy_gens,
        Instant::now() + ctx.warmup(),
        false,
        false,
        false,
    );

    let file = cluster.client().open(FILE);
    let bench = ctx.traced.map(|(b, _)| b);
    for round in 0..ROUNDS {
        // Healthy stretch.
        let traced = traced_round(ctx, round);
        begin_segment(&cluster, ctx, traced);
        let deadline = Instant::now() + ctx.healthy();
        let (outs, start) = stretch(&healthy_gens, deadline, false, true, traced);
        let h = if traced {
            &mut run.traced
        } else {
            &mut run.healthy
        };
        absorb(h, outs, start, spec.op_bytes, ctx);
        end_segment(&cluster, ctx, traced, h);
        if round == 0 {
            match file.as_ref().map(|f| f.storage_report()) {
                Ok(Ok(report)) => {
                    run.rebuilt_bytes = report.per_server[FAILED as usize].total();
                    run.storage_ratio = report.total_bytes() as f64 / spec.file_bytes as f64;
                }
                _ => tally.check(false, || "storage report failed".into()),
            }
        }

        // Failure round.
        timed(bench, "fail_server", || cluster.fail_server(FAILED));
        let gens = streams(1 + u64::from(round));
        let deadline = Instant::now() + ctx.degraded();
        let (outs, _) = stretch(&gens, deadline, true, true, false);
        for o in outs {
            run.degraded.extend(&o.reads);
        }
        rebuilds(&cluster, bench, &mut run, tally, round);
        scrub_check(&cluster, tally, &format!("after rebuild round {round}"));
    }

    // Closing check: every unit reads back as last written.
    if let Ok(file) = file {
        let (attempted, failed) = verify_file(&file, spec.file_bytes, &shadow);
        tally.add(attempted, failed);
    }
    cluster.shutdown();
    run
}

/// Count a scrub as one check that passes only when it is clean.
pub fn scrub_check(cluster: &Cluster, tally: &Tally, when: &str) {
    match cluster.scrub() {
        Ok(r) => tally.check(r.is_clean(), || {
            format!("scrub {when}: bad groups {:?}", r.bad_groups)
        }),
        Err(e) => tally.check(false, || format!("scrub {when} failed: {e}")),
    }
}
