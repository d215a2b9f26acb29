//! `hybrid_checkpoint`: FLASH I/O checkpoints into three Hybrid files,
//! rewritten in place every cycle. A cycle writes the checkpoint (two
//! ranks, collective phases separated by a barrier), reads all three
//! files back in 1 MiB reads through the overflow overlay and checks
//! them, then runs one `clean_pass`.

use crate::content::{read_ok, CycleImage, Pattern, VERIFY_CHUNK};
use crate::live::{
    add_stats, begin_segment, end_segment, on_clients, rebuilds, spawn, timed, traced_round,
    Healthy, LiveCtx, LiveRun, Tally, CLIENTS, FAILED, ROUNDS, STRIPE_UNIT,
};
use crate::raid5::scrub_check;
use crate::spans::{BenchSpan, BenchSpans, Scraper};
use crate::stats::Latencies;
use csar_cluster::{Cluster, File, OpStats};
use csar_core::proto::Scheme;
use csar_sim::Op;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// The three FLASH I/O output files.
pub const FILES: [&str; 3] = ["checkpoint", "plot_center", "plot_corner"];

/// One write of the checkpoint: `(file, off, len)`.
pub type Write = (u64, u64, u64);

/// The seeded FLASH I/O checkpoint for two ranks.
pub struct Checkpoint {
    /// Collective phases: each rank's writes, in issue order.
    pub phases: Vec<[Vec<Write>; CLIENTS as usize]>,
    /// Per file: its writes as sorted `(off, len)`.
    pub layout: Vec<Vec<(u64, u64)>>,
    /// The restart read: `(file, off, len)` chunks of at most 1 MiB.
    pub chunks: Vec<Write>,
}

impl Checkpoint {
    /// The checkpoint FLASH I/O writes for `seed` with two ranks.
    ///
    /// # Panics
    /// Panics if two writes of one file overlap (the checks assume every
    /// byte has a single writer per cycle).
    pub fn new(seed: u64) -> Self {
        let w = csar_workloads::flash::workload(0, CLIENTS as usize, seed);
        let mut layout = vec![Vec::new(); FILES.len()];
        let phases = w
            .phases
            .iter()
            .map(|phase| {
                let mut ranks: [Vec<Write>; CLIENTS as usize] = Default::default();
                for (rank, ops) in phase {
                    for op in ops {
                        if let Op::Write { file, off, len } = *op {
                            ranks[*rank].push((file as u64, off, len));
                            layout[file].push((off, len));
                        }
                    }
                }
                ranks
            })
            .collect();
        for writes in &mut layout {
            writes.sort_unstable();
            for pair in writes.windows(2) {
                assert!(
                    pair[0].0 + pair[0].1 <= pair[1].0,
                    "overlapping checkpoint writes {pair:?}"
                );
            }
        }
        let mut chunks = Vec::new();
        for (file, writes) in layout.iter().enumerate() {
            let size = writes.last().map_or(0, |(o, l)| o + l);
            let mut off = 0;
            while off < size {
                let len = VERIFY_CHUNK.min(size - off);
                chunks.push((file as u64, off, len));
                off += len;
            }
        }
        Self {
            phases,
            layout,
            chunks,
        }
    }

    /// Writes per checkpoint.
    pub fn writes(&self) -> u64 {
        self.layout.iter().map(|w| w.len() as u64).sum()
    }

    /// User bytes per checkpoint.
    pub fn bytes(&self) -> u64 {
        self.layout.iter().flatten().map(|(_, l)| l).sum()
    }

    /// Logical size of each file.
    pub fn sizes(&self) -> Vec<u64> {
        self.layout
            .iter()
            .map(|w| w.last().map_or(0, |(o, l)| o + l))
            .collect()
    }

    /// The expected contents of every file after cycle `cycle`.
    pub fn images<'p>(&'p self, pattern: &'p Pattern, cycle: u64) -> Vec<CycleImage<'p>> {
        self.layout
            .iter()
            .enumerate()
            .map(|(f, w)| CycleImage::new(pattern, f as u64, w, cycle))
            .collect()
    }
}

/// One rank's share of a cycle step.
#[derive(Default)]
struct RankOut {
    writes: Latencies,
    reads: Latencies,
    stats: OpStats,
    spans: Vec<BenchSpan>,
}

/// What a rank does in one call.
#[derive(Clone, Copy, PartialEq)]
enum Step {
    /// Write the checkpoint, then read it back and check it.
    Cycle,
    /// Write the checkpoint only.
    Write,
    /// Read everything back and check it: once, or repeatedly until the
    /// deadline.
    Read(Option<Instant>),
}

/// Shared inputs of every rank call.
struct Ranks<'a> {
    cluster: &'a Cluster,
    ck: &'a Checkpoint,
    pattern: &'a Pattern,
    tally: &'a Tally,
    barrier: Barrier,
    /// Where a traced call records spans.
    spans: Option<(&'a BenchSpans, &'a Scraper)>,
}

impl Ranks<'_> {
    /// Run `step` of cycle `cycle` on both ranks; `measure` records
    /// latencies, `traced` records benchmark spans and feeds the scraper.
    fn run(&self, step: Step, cycle: u64, measure: bool, traced: bool) -> Vec<RankOut> {
        let spans = self.spans.filter(|_| traced);
        on_clients(|rank| self.rank(rank, step, cycle, measure, spans))
    }

    fn rank(
        &self,
        rank: u64,
        step: Step,
        cycle: u64,
        measure: bool,
        spans: Option<(&BenchSpans, &Scraper)>,
    ) -> RankOut {
        let mut out = RankOut::default();
        let note = |name, t0: Instant, dt: Duration, out: &mut RankOut| {
            if let Some((bench, scraper)) = spans {
                out.spans.push(bench.span(name, rank as u32, t0, dt));
                scraper.tick(self.cluster);
            }
        };
        let files: Vec<File> = match FILES
            .iter()
            .map(|n| self.cluster.client().open(n))
            .collect()
        {
            Ok(f) => f,
            Err(e) => {
                self.tally
                    .check(false, || format!("rank {rank}: open failed: {e}"));
                return out;
            }
        };
        if matches!(step, Step::Cycle | Step::Write) {
            for phase in &self.ck.phases {
                for &(f, off, len) in &phase[rank as usize] {
                    let data = CycleImage::content(self.pattern, f, off, len, cycle);
                    let t0 = Instant::now();
                    let ok = files[f as usize].write_at(off, data).is_ok();
                    let dt = t0.elapsed();
                    self.tally
                        .check(ok, || format!("rank {rank}: write {f}@{off}+{len} failed"));
                    note("write_at", t0, dt, &mut out);
                    if measure {
                        out.writes.push(dt.as_nanos() as u64);
                    }
                }
                self.barrier.wait();
            }
        }
        if step != Step::Write {
            let images = self.ck.images(self.pattern, cycle);
            let deadline = match step {
                Step::Read(d) => d,
                _ => None,
            };
            loop {
                for &(f, off, len) in self
                    .ck
                    .chunks
                    .iter()
                    .skip(rank as usize)
                    .step_by(CLIENTS as usize)
                {
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        break;
                    }
                    let t0 = Instant::now();
                    let res = files[f as usize].read_at(off, len);
                    let dt = t0.elapsed();
                    let ok = read_ok(&res, off, &images[f as usize]);
                    self.tally.check(ok, || {
                        format!("rank {rank}: read {f}@{off}+{len} cycle {cycle} wrong")
                    });
                    note("read_at", t0, dt, &mut out);
                    if measure {
                        out.reads.push(dt.as_nanos() as u64);
                    }
                }
                if deadline.is_none_or(|d| Instant::now() >= d) {
                    break;
                }
            }
        }
        for f in &files {
            add_stats(&mut out.stats, &f.op_stats());
        }
        out
    }
}

/// Create the three Hybrid files and write checkpoint cycle 0.
fn setup(cluster: &Cluster, ck: &Checkpoint, pattern: &Pattern, tally: &Tally) {
    for name in FILES {
        let made = cluster.client().create(name, Scheme::Hybrid, STRIPE_UNIT);
        tally.check(made.is_ok(), || format!("create {name} failed"));
    }
    let ranks = Ranks {
        cluster,
        ck,
        pattern,
        tally,
        barrier: Barrier::new(CLIENTS as usize),
        spans: None,
    };
    ranks.run(Step::Write, 0, false, false);
    tally.check(cluster.clean_pass().is_ok(), || {
        "set-up clean pass failed".into()
    });
}

/// Stored bytes per logical byte over the three files, and the bytes
/// server [`FAILED`] holds.
fn storage(cluster: &Cluster, ck: &Checkpoint, tally: &Tally) -> (f64, u64) {
    let client = cluster.client();
    let (mut stored, mut on_failed) = (0u64, 0u64);
    for name in FILES {
        match client.open(name).and_then(|f| f.storage_report()) {
            Ok(r) => {
                stored += r.total_bytes();
                on_failed += r.per_server[FAILED as usize].total();
            }
            Err(e) => tally.check(false, || format!("storage report of {name} failed: {e}")),
        }
    }
    let logical: u64 = ck.sizes().iter().sum();
    (stored as f64 / logical.max(1) as f64, on_failed)
}

/// Run the workload against a fresh cluster.
pub fn run(ck: &Checkpoint, pattern: &Pattern, ctx: &LiveCtx) -> LiveRun {
    let mut run = LiveRun::default();
    let tally = ctx.tally;
    let mut kept = None;
    for i in 0..ctx.setups.max(1) {
        let t0 = Instant::now();
        let cluster = spawn();
        setup(&cluster, ck, pattern, tally);
        run.setup_s.push(t0.elapsed().as_secs_f64());
        if i + 1 == ctx.setups.max(1) {
            kept = Some(cluster);
        } else {
            cluster.shutdown();
        }
    }
    let Some(cluster) = kept else { return run };
    let bench = ctx.traced.map(|(b, _)| b);
    let ranks = Ranks {
        cluster: &cluster,
        ck,
        pattern,
        tally,
        barrier: Barrier::new(CLIENTS as usize),
        spans: ctx.traced,
    };

    // Warm-up: whole cycles, checked but not measured.
    let mut cycle = 1;
    let warm = Instant::now() + ctx.warmup();
    loop {
        healthy_cycle(&ranks, ctx, cycle, false, None, &mut run.storage_ratio);
        cycle += 1;
        if Instant::now() >= warm {
            break;
        }
    }
    for round in 0..ROUNDS {
        // Healthy stretch: whole cycles, at least one.
        let traced = traced_round(ctx, round);
        begin_segment(&cluster, ctx, traced);
        let h = if traced {
            &mut run.traced
        } else {
            &mut run.healthy
        };
        let deadline = Instant::now() + ctx.healthy();
        loop {
            let ratio = &mut run.storage_ratio;
            healthy_cycle(&ranks, ctx, cycle, traced, Some(&mut *h), ratio);
            cycle += 1;
            if Instant::now() >= deadline {
                break;
            }
        }
        end_segment(&cluster, ctx, traced, h);

        // Failure round: a fresh checkpoint leaves live overflow behind,
        // so degraded reads and the rebuild cover the overflow logs too.
        ranks.run(Step::Write, cycle, false, false);
        let (_, on_failed) = storage(&cluster, ck, tally);
        run.rebuilt_bytes = on_failed;
        timed(bench, "fail_server", || cluster.fail_server(FAILED));
        let until = Instant::now() + ctx.degraded();
        for o in ranks.run(Step::Read(Some(until)), cycle, true, false) {
            run.degraded.extend(&o.reads);
        }
        rebuilds(&cluster, bench, &mut run, tally, round);
        ranks.run(Step::Read(None), cycle, false, false);
        tally.check(cluster.clean_pass().is_ok(), || {
            format!("clean pass of round {round} failed")
        });
        scrub_check(&cluster, tally, &format!("after rebuild round {round}"));
        cycle += 1;
    }
    // Closing check: the last checkpoint reads back after cleaning.
    ranks.run(Step::Read(None), cycle - 1, false, false);
    cluster.shutdown();
    run
}

/// One healthy cycle: write checkpoint `cycle`, read it back and check
/// it, then clean. Raises `storage_ratio` to the cycle's peak (taken
/// before the clean pass) and folds the cycle into `h` when it is
/// measured; the cycle, cleaner included, is one throughput window.
fn healthy_cycle(
    ranks: &Ranks,
    ctx: &LiveCtx,
    cycle: u64,
    traced: bool,
    h: Option<&mut Healthy>,
    storage_ratio: &mut f64,
) {
    let (cluster, ck, tally) = (ranks.cluster, ranks.ck, ranks.tally);
    let measure = h.is_some();
    let bench = ctx.traced.map(|(b, _)| b);
    let t0 = Instant::now();
    let outs = ranks.run(Step::Cycle, cycle, measure, traced);
    let rw = t0.elapsed();
    if traced {
        // The clean pass's own reads are traced ops too; scrape before it
        // so the ring has room for them.
        if let Some((_, scraper)) = ctx.traced {
            scraper.finish(cluster);
        }
    }
    let (ratio, _) = storage(cluster, ck, tally);
    *storage_ratio = storage_ratio.max(ratio);
    let tc = Instant::now();
    let cleaned = timed(bench.filter(|_| traced), "clean_pass", || {
        cluster.clean_pass()
    });
    let clean = tc.elapsed();
    tally.check(cleaned.is_ok(), || {
        format!("clean pass of cycle {cycle} failed")
    });
    let secs = (rw + clean).as_secs_f64();
    if let Some(h) = h {
        for o in outs {
            h.writes.extend(&o.writes);
            h.reads.extend(&o.reads);
            add_stats(&mut h.op_stats, &o.stats);
            if let Some(b) = bench {
                b.extend(o.spans);
            }
        }
        h.writes_total += ck.writes();
        h.bytes_written += ck.bytes();
        h.clean_ms.push(clean.as_secs_f64() * 1e3);
        h.reclaimed.push(cleaned.unwrap_or(0));
        let ops = ck.writes() + ck.chunks.len() as u64;
        h.add_measured(ops, ck.bytes(), secs);
        h.windows.push((ops, ck.bytes(), secs));
    }
}
