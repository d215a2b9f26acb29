//! # csar-livebench — the live-cluster benchmark
//!
//! Three closed-loop workloads against a live `csar_cluster::Cluster`
//! (5 I/O servers, 64 KiB stripe unit, 2 client threads), measured from
//! outside: by timing calls into each layer's public functions and by
//! reading the program's own counters, histograms and trace spans. See
//! `README.md` beside this crate for why each workload exists and what
//! each metric should move.
//!
//! * `trace = false`: the end-to-end metrics ([`END_TO_END`]), with
//!   tracing off.
//! * `trace = true`: the per-layer metrics ([`PER_LAYER`]) from the layer
//!   ladder and one live run whose healthy phase alternates untraced
//!   segments (per-layer counters) with traced ones (spans).

pub mod content;
pub mod hybrid;
pub mod ladder;
pub mod live;
pub mod raid5;
pub mod spans;
pub mod stats;

use content::Pattern;
use csar_store::Json;
use hybrid::Checkpoint;
use ladder::LadderRun;
use live::{LiveCtx, LiveRun, Tally};
use raid5::Raid5Spec;
use spans::{BenchSpans, Scraper};
use stats::{hist_median, median};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// End-to-end metrics `(name, unit)`, every one reported by every
/// workload with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("mb_per_s", "MB/s"),
    ("write_p50_us", "us"),
    ("read_p50_us", "us"),
    ("degraded_read_p50_us", "us"),
    ("rebuild_s", "s"),
    ("storage_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Windows a run's latency samples are cut into for the end-to-end
/// medians: each is the median over windows of the window's median (see
/// [`stats::Latencies::windowed_quantile_us`]).
pub const WINDOWS: usize = 32;

/// Latency tails printed with every end-to-end run (pooled 99th
/// percentiles, with their sample counts) but left out of
/// [`END_TO_END`]: with 8 busy threads on a 2-vCPU shared host they
/// follow the host's scheduler, and ten runs of the same code spread by
/// 0.3 to 0.8 of their median, past any bound a regression check could
/// use. See `README.md`.
pub const TAILS: &[(&str, &str)] = &[
    ("write_p99_us", "us"),
    ("read_p99_us", "us"),
    ("degraded_read_p99_us", "us"),
];

/// Per-layer metrics `(name, unit)`, every one reported by every
/// workload in the traced run (0 where the workload bypasses the layer).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cluster.residual_write_us", "us"),
    ("cluster.residual_read_us", "us"),
    ("cluster.req_rtt_p50_us", "us"),
    ("cluster.window_stall_share", "ratio"),
    ("cluster.requests_per_op", "count/op"),
    ("cluster.retries", "count"),
    ("cluster.timeouts", "count"),
    ("core.plan_us", "us"),
    ("core.driver_us", "us"),
    ("core.handle_us", "us"),
    ("core.direct_write_us", "us"),
    ("core.direct_read_us", "us"),
    ("core.direct_degraded_read_us", "us"),
    ("core.rmw_groups_per_op", "count/op"),
    ("core.whole_groups_per_op", "count/op"),
    ("core.overflow_partials_per_op", "count/op"),
    ("locks.lock_wait_p50_us", "us"),
    ("locks.contended_share", "ratio"),
    ("overflow.bytes_per_user_byte", "ratio"),
    ("overflow.hit_share", "ratio"),
    ("parity.xor_gbps", "GB/s"),
    ("parity.reconstruct_gbps", "GB/s"),
    ("recovery.rebuild_mb_per_s", "MB/s"),
    ("maintain.clean_pass_ms", "ms"),
    ("maintain.rewritten_share", "ratio"),
    ("maintain.bytes_reclaimed_per_pass", "bytes"),
    ("trace.plan_us", "us"),
    ("trace.submit_us", "us"),
    ("trace.wire_rtt_us", "us"),
    ("trace.srv_queue_us", "us"),
    ("trace.lock_wait_us", "us"),
    ("trace.service_us", "us"),
    ("trace.xor_us", "us"),
    ("trace.deliver_us", "us"),
    ("trace.wire_minus_service_us", "us"),
    ("obs.tracing_overhead_pct", "%"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 4 KiB random RMW on a RAID5 file.
    SmallRmw,
    /// 1 MiB whole-group ops on a RAID5 file, then failure and rebuild.
    StripeStream,
    /// FLASH I/O checkpoints into Hybrid files, cleaned every cycle.
    HybridCheckpoint,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::SmallRmw,
        Workload::StripeStream,
        Workload::HybridCheckpoint,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SmallRmw => "small_rmw",
            Workload::StripeStream => "stripe_stream",
            Workload::HybridCheckpoint => "hybrid_checkpoint",
        }
    }

    /// Workload by command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// File sizes and repetitions; tests shrink them.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// `small_rmw` file size.
    pub small_rmw_bytes: u64,
    /// `stripe_stream` file size.
    pub stripe_stream_bytes: u64,
    /// Set-ups per end-to-end run (`setup_s` is their median).
    pub setups: usize,
}

impl Scale {
    /// The benchmark's sizes.
    pub const FULL: Scale = Scale {
        small_rmw_bytes: 64 << 20,
        stripe_stream_bytes: 128 << 20,
        setups: 11,
    };
    /// A few-second smoke scale for tests.
    pub const TINY: Scale = Scale {
        small_rmw_bytes: 4 << 20,
        stripe_stream_bytes: 8 << 20,
        setups: 1,
    };
}

/// One benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Sizes.
    pub scale: Scale,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`] (or an informational one).
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind a percentile or median, when it has them.
    pub samples: Option<u64>,
}

/// What a run reports.
pub struct Outcome {
    /// No op failed or read back wrong, and every scrub was clean.
    pub correct: bool,
    /// Ops and checks attempted.
    pub attempted: u64,
    /// Ops and checks that failed.
    pub failed: u64,
    /// The catalog's metrics, in catalog order.
    pub metrics: Vec<Metric>,
    /// Printed beside the catalog, not part of it.
    pub info: Vec<Metric>,
    /// Why the first failures failed.
    pub notes: Vec<String>,
    /// The traced run's benchmark and program spans.
    pub trace: Option<Json>,
}

/// Collects metrics by name, then emits them in catalog order.
#[derive(Default)]
struct Sheet {
    values: BTreeMap<&'static str, (f64, Option<u64>)>,
}

impl Sheet {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, (value, None));
    }

    fn set_n(&mut self, name: &'static str, value: f64, samples: u64) {
        self.values.insert(name, (value, Some(samples)));
    }

    /// Remove and return the catalog's metrics in order.
    ///
    /// # Panics
    /// Panics if a catalog metric was never set (a benchmark bug).
    fn take(&mut self, catalog: &[(&'static str, &'static str)]) -> Vec<Metric> {
        catalog
            .iter()
            .map(|&(name, unit)| {
                let (value, samples) = self
                    .values
                    .remove(name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                Metric {
                    name,
                    value,
                    unit,
                    samples,
                }
            })
            .collect()
    }
}

fn spec_of(w: Workload, scale: &Scale) -> Option<Raid5Spec> {
    match w {
        Workload::SmallRmw => Some(Raid5Spec {
            file_bytes: scale.small_rmw_bytes,
            op_bytes: 4 << 10,
        }),
        Workload::StripeStream => Some(Raid5Spec {
            file_bytes: scale.stripe_stream_bytes,
            op_bytes: 1 << 20,
        }),
        Workload::HybridCheckpoint => None,
    }
}

fn live_run(opts: &Options, pattern: &Pattern, ck: Option<&Checkpoint>, ctx: &LiveCtx) -> LiveRun {
    match (spec_of(opts.workload, &opts.scale), ck) {
        (Some(spec), _) => raid5::run(&spec, pattern, ctx),
        (None, Some(ck)) => hybrid::run(ck, pattern, ctx),
        (None, None) => unreachable!("the Hybrid workload always has a checkpoint"),
    }
}

/// Run the benchmark once.
pub fn run(opts: &Options) -> Outcome {
    let pattern = Pattern::new(opts.seed);
    let ck = (opts.workload == Workload::HybridCheckpoint).then(|| Checkpoint::new(opts.seed));
    let tally = Tally::default();
    let mut sheet = Sheet::default();
    let mut info = Vec::new();
    let mut trace = None;
    if opts.trace {
        trace = Some(layers(
            opts,
            &pattern,
            ck.as_ref(),
            &tally,
            &mut sheet,
            &mut info,
        ));
    } else {
        end_to_end(opts, &pattern, ck.as_ref(), &tally, &mut sheet, &mut info);
    }
    let catalog = if opts.trace { PER_LAYER } else { END_TO_END };
    let metrics = sheet.take(catalog);
    let attempted = tally.attempted().max(1);
    let failed = tally.failed();
    info.push(Metric {
        name: "op_error_rate",
        value: failed as f64 / attempted as f64,
        unit: "ratio",
        samples: Some(attempted),
    });
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        info,
        notes: tally.notes(),
        trace,
    }
}

fn end_to_end(
    opts: &Options,
    pattern: &Pattern,
    ck: Option<&Checkpoint>,
    tally: &Tally,
    sheet: &mut Sheet,
    info: &mut Vec<Metric>,
) {
    let ctx = LiveCtx {
        seed: opts.seed,
        seconds: opts.seconds,
        setups: opts.scale.setups,
        tally,
        traced: None,
    };
    let mut run = live_run(opts, pattern, ck, &ctx);
    let setups = run.setup_s.len() as u64;
    sheet.set_n("setup_s", median(&mut run.setup_s), setups);
    let h = &run.healthy;
    sheet.set_n("ops_per_s", h.ops_per_s(), h.measured_ops);
    sheet.set_n("mb_per_s", h.mb_per_s(), h.measured_ops);
    let latencies = [
        ("write_p50_us", &h.writes),
        ("read_p50_us", &h.reads),
        ("degraded_read_p50_us", &run.degraded),
    ];
    for ((p50, lat), &(p99, unit)) in latencies.into_iter().zip(TAILS) {
        sheet.set_n(p50, lat.windowed_quantile_us(0.5, WINDOWS), lat.count());
        info.push(Metric {
            name: p99,
            value: lat.quantile_us(0.99),
            unit,
            samples: Some(lat.count()),
        });
    }
    let rebuilds = run.rebuild_s.len() as u64;
    sheet.set_n("rebuild_s", median(&mut run.rebuild_s), rebuilds);
    sheet.set("storage_ratio", run.storage_ratio);
    sheet.set("peak_rss_mb", peak_rss_mb());
}

fn layers(
    opts: &Options,
    pattern: &Pattern,
    ck: Option<&Checkpoint>,
    tally: &Tally,
    sheet: &mut Sheet,
    info: &mut Vec<Metric>,
) -> Json {
    // 1. The ladder: direct replay and the parity kernels alone.
    let budget = Duration::from_secs_f64((opts.seconds * 0.15).clamp(0.2, 3.0));
    let mut lad: LadderRun = match (spec_of(opts.workload, &opts.scale), ck) {
        (Some(spec), _) => ladder::raid5(&spec, opts.seed, pattern, tally, budget),
        (None, Some(ck)) => ladder::hybrid(ck, pattern, tally, budget),
        (None, None) => unreachable!("the Hybrid workload always has a checkpoint"),
    };
    (lad.xor_gbps, lad.reconstruct_gbps) = ladder::kernels(opts.seed, budget / 3);

    // 2. One live run whose healthy phase alternates untraced segments
    // (per-layer counters) and traced segments (spans).
    let bench = BenchSpans::new(Instant::now());
    let scraper = Scraper::default();
    let ctx = LiveCtx {
        seed: opts.seed,
        seconds: opts.seconds - budget.as_secs_f64(),
        setups: 1,
        tally,
        traced: Some((&bench, &scraper)),
    };
    let mut run = live_run(opts, pattern, ck, &ctx);
    let rebuilds = run.rebuild_s.len() as u64;
    let rebuild_s = median(&mut run.rebuild_s);
    let live = &mut run.healthy;

    // Cluster layer.
    let write_p50 = live.writes.quantile_us(0.5);
    let read_p50 = live.reads.quantile_us(0.5);
    let direct_write = LadderRun::median_us(&lad.writes, |o| o.total);
    let direct_read = LadderRun::median_us(&lad.reads, |o| o.total);
    info.push(Metric {
        name: "write_p50_us",
        value: write_p50,
        unit: "us",
        samples: Some(live.writes.count()),
    });
    info.push(Metric {
        name: "read_p50_us",
        value: read_p50,
        unit: "us",
        samples: Some(live.reads.count()),
    });
    sheet.set_n(
        "cluster.residual_write_us",
        write_p50 - direct_write,
        live.writes.count(),
    );
    sheet.set_n(
        "cluster.residual_read_us",
        read_p50 - direct_read,
        live.reads.count(),
    );
    let snap = live.snapshot.take().unwrap_or_default();
    let ctr = |n: &str| snap.counter(n) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let rtt = snap.hist("req_rtt_ns");
    sheet.set_n(
        "cluster.req_rtt_p50_us",
        hist_median(rtt) / 1e3,
        rtt.map_or(0, |h| h.count),
    );
    let st = live.op_stats;
    sheet.set(
        "cluster.window_stall_share",
        ratio(st.queue_stall_ns as f64, st.elapsed_ns as f64),
    );
    sheet.set_n(
        "cluster.requests_per_op",
        ratio(st.requests as f64, st.ops as f64),
        st.ops,
    );
    sheet.set("cluster.retries", st.retries as f64);
    sheet.set("cluster.timeouts", ctr("eng_timeouts"));

    // Core client and server layers (ladder) and planner counters (live).
    let healthy = lad.healthy();
    let n = healthy.len() as u64;
    sheet.set_n(
        "core.plan_us",
        LadderRun::median_us(&healthy, |o| o.plan),
        n,
    );
    sheet.set_n(
        "core.driver_us",
        LadderRun::median_us(&healthy, |o| o.total - o.handle),
        n,
    );
    sheet.set_n(
        "core.handle_us",
        LadderRun::median_us(&healthy, |o| o.handle),
        n,
    );
    sheet.set_n(
        "core.direct_write_us",
        direct_write,
        lad.writes.len() as u64,
    );
    sheet.set_n("core.direct_read_us", direct_read, lad.reads.len() as u64);
    sheet.set_n(
        "core.direct_degraded_read_us",
        LadderRun::median_us(&lad.degraded, |o| o.total),
        lad.degraded.len() as u64,
    );
    let writes = live.writes_total as f64;
    sheet.set(
        "core.rmw_groups_per_op",
        ratio(ctr("wr_rmw_groups"), writes),
    );
    sheet.set(
        "core.whole_groups_per_op",
        ratio(ctr("wr_whole_groups"), writes),
    );
    sheet.set(
        "core.overflow_partials_per_op",
        ratio(ctr("wr_overflow_partials"), writes),
    );

    // §5.1 locks and the Hybrid overflow.
    let lock = snap.hist("lock_wait_ns");
    sheet.set_n(
        "locks.lock_wait_p50_us",
        hist_median(lock) / 1e3,
        lock.map_or(0, |h| h.count),
    );
    sheet.set(
        "locks.contended_share",
        ratio(ctr("srv_lock_contended"), ctr("srv_lock_acquisitions")),
    );
    sheet.set(
        "overflow.bytes_per_user_byte",
        ratio(ctr("srv_overflow_bytes"), live.bytes_written as f64),
    );
    sheet.set(
        "overflow.hit_share",
        ratio(
            ctr("srv_overflow_hits"),
            ctr("srv_overflow_hits") + ctr("srv_overflow_misses"),
        ),
    );

    // Parity, recovery and the cleaner.
    sheet.set("parity.xor_gbps", lad.xor_gbps);
    sheet.set("parity.reconstruct_gbps", lad.reconstruct_gbps);
    sheet.set_n(
        "recovery.rebuild_mb_per_s",
        ratio(run.rebuilt_bytes as f64 / 1e6, rebuild_s),
        rebuilds,
    );
    let passes = live.clean_ms.len() as u64;
    sheet.set_n("maintain.clean_pass_ms", median(&mut live.clean_ms), passes);
    sheet.set(
        "maintain.rewritten_share",
        ratio(
            ctr("cleaner_groups_rewritten"),
            ctr("cleaner_groups_scanned"),
        ),
    );
    sheet.set(
        "maintain.bytes_reclaimed_per_pass",
        ratio(live.reclaimed.iter().sum::<u64>() as f64, passes as f64),
    );

    // The traced run: per-phase self times and the tracing overhead.
    let scraped = scraper.results();
    for (name, v, n) in scraped.phases {
        sheet.set_n(name, v, n);
    }
    for (name, n) in [
        ("trace.op_trees", scraped.trees),
        ("trace.dropped_trees", scraped.dropped),
    ] {
        info.push(Metric {
            name,
            value: n as f64,
            unit: "count",
            samples: None,
        });
    }
    let traced = &run.traced;
    let traced_secs = traced.measured_secs - scraper.scrape_time().as_secs_f64();
    let traced_rate = ratio(traced.measured_ops as f64, traced_secs);
    let overhead = ratio(live.pooled_ops_per_s(), traced_rate);
    sheet.set("obs.tracing_overhead_pct", (overhead - 1.0) * 100.0);
    Json::obj([
        ("bench_spans", bench.to_json()),
        ("program_spans", scraped.spans),
    ])
}

/// Peak resident memory of this process in megabytes (10^6 bytes), from
/// the kernel's own accounting of the process; 0 where unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}
