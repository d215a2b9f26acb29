//! What every live workload shares: the cluster shape, the op tally,
//! the per-run record, and the two-client closed loop.

use crate::content::mix;
use crate::spans::{BenchSpans, Scraper};
use crate::stats::{median, Latencies};
use csar_cluster::{Cluster, OpStats};
use csar_core::proto::ServerId;
use csar_core::server::ServerConfig;
use csar_obs::Snapshot;
use csar_store::SplitMix64;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// I/O servers in every cluster.
pub const SERVERS: u32 = 5;
/// Stripe unit: a parity group is `(SERVERS - 1) * STRIPE_UNIT` = 256 KiB.
pub const STRIPE_UNIT: u64 = 64 << 10;
/// Client threads (closed loop: each waits for its op before the next).
pub const CLIENTS: u64 = 2;
/// Thread number of the orchestrating thread in the benchmark's spans
/// (the client threads are `0..CLIENTS`).
pub const ORCHESTRATOR: u32 = CLIENTS as u32;
/// The server the failure phase fail-stops and rebuilds.
pub const FAILED: ServerId = 2;

/// Rounds per run. A round is a healthy stretch, then a failure round:
/// fail a server, read degraded, rebuild, scrub. Interleaving the phases
/// spreads every metric over the whole run, so that a few slow seconds
/// of the host fall on a few windows of each metric rather than on all
/// of one.
pub const ROUNDS: u32 = 8;
/// Share of a run's seconds spent healthy, warm-up included.
pub const HEALTHY_SHARE: f64 = 0.5;
/// Share of the healthy seconds spent warming up before the first
/// round, checked but not measured.
pub const WARMUP_SHARE: f64 = 0.1;
/// Timed `rebuild_server` calls per round: the first after the degraded
/// reads, each further one after failing the server again.
pub const REBUILDS_PER_ROUND: u32 = 3;
/// Share of a run's seconds spent on degraded reads, over all rounds.
pub const DEGRADED_SHARE: f64 = 0.4;
/// Average length of a RAID5 throughput window.
pub const THROUGHPUT_WINDOW: Duration = Duration::from_millis(100);

/// A fresh cluster in the benchmark's shape.
pub fn spawn() -> Cluster {
    Cluster::spawn(SERVERS, ServerConfig::default())
}

/// Ops attempted and ops that failed or read back wrong, across threads.
#[derive(Default)]
pub struct Tally {
    attempted: AtomicU64,
    failed: AtomicU64,
    notes: Mutex<Vec<String>>,
}

impl Tally {
    /// Count one op or check.
    pub fn record(&self, ok: bool) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Count one op or check, noting why it failed.
    pub fn check(&self, ok: bool, what: impl FnOnce() -> String) {
        self.record(ok);
        if !ok {
            let mut notes = self.notes.lock().expect("tally notes poisoned");
            if notes.len() < 16 {
                notes.push(what());
            }
        }
    }

    /// Add `attempted` ops of which `failed` failed.
    pub fn add(&self, attempted: u64, failed: u64) {
        self.attempted.fetch_add(attempted, Ordering::Relaxed);
        self.failed.fetch_add(failed, Ordering::Relaxed);
    }

    /// Ops attempted so far.
    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    /// Ops failed so far.
    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    /// Why the first failures failed.
    pub fn notes(&self) -> Vec<String> {
        self.notes.lock().expect("tally notes poisoned").clone()
    }
}

/// How one live run is driven.
pub struct LiveCtx<'a> {
    /// Workload seed.
    pub seed: u64,
    /// Seconds the measured phases of this run take together.
    pub seconds: f64,
    /// Set-ups performed (the last one is kept for the run).
    pub setups: usize,
    /// Op tally shared with the rest of the benchmark.
    pub tally: &'a Tally,
    /// A per-layer run: alternate untraced healthy segments, around which
    /// the registries are zeroed and snapshotted, with traced ones, which
    /// record the benchmark's spans and scrape the program's.
    pub traced: Option<(&'a BenchSpans, &'a Scraper)>,
}

impl LiveCtx<'_> {
    /// Warm-up length.
    pub fn warmup(&self) -> Duration {
        Duration::from_secs_f64(self.seconds * HEALTHY_SHARE * WARMUP_SHARE)
    }

    /// Healthy-stretch length of one round.
    pub fn healthy(&self) -> Duration {
        let secs = self.seconds * HEALTHY_SHARE * (1.0 - WARMUP_SHARE);
        Duration::from_secs_f64(secs / f64::from(ROUNDS))
    }

    /// Degraded-read length of one round.
    pub fn degraded(&self) -> Duration {
        Duration::from_secs_f64(self.seconds * DEGRADED_SHARE / f64::from(ROUNDS))
    }
}

/// Healthy-phase results of one tracing mode.
#[derive(Default)]
pub struct Healthy {
    /// Write latencies.
    pub writes: Latencies,
    /// Read latencies.
    pub reads: Latencies,
    /// Ops in the measured windows.
    pub measured_ops: u64,
    /// User bytes counted by `mb_per_s` in the measured windows.
    pub measured_bytes: u64,
    /// Total length of the measured windows.
    pub measured_secs: f64,
    /// Ops, user bytes and seconds of each throughput window: a
    /// [`THROUGHPUT_WINDOW`] of a RAID5 stretch, or one Hybrid cycle.
    pub windows: Vec<(u64, u64, f64)>,
    /// Writes in the measured windows (per-op counter base).
    pub writes_total: u64,
    /// User bytes written in the measured windows.
    pub bytes_written: u64,
    /// Milliseconds of each `clean_pass` (Hybrid).
    pub clean_ms: Vec<f64>,
    /// Bytes each `clean_pass` reclaimed (Hybrid).
    pub reclaimed: Vec<u64>,
    /// Transport statistics of the measured windows' files.
    pub op_stats: OpStats,
    /// Registries merged over the measured windows (per-layer runs).
    pub snapshot: Option<Snapshot>,
}

impl Healthy {
    /// Count measured ops, their user bytes and the seconds they took.
    pub fn add_measured(&mut self, ops: u64, bytes: u64, secs: f64) {
        self.measured_ops += ops;
        self.measured_bytes += bytes;
        self.measured_secs += secs;
    }

    /// Ops per second over all the measured windows together.
    pub fn pooled_ops_per_s(&self) -> f64 {
        per_sec(self.measured_ops as f64, self.measured_secs)
    }

    /// Ops per second: the median over the throughput windows.
    pub fn ops_per_s(&self) -> f64 {
        self.median_rate(|ops, _| ops as f64)
    }

    /// User megabytes per second: the median over the throughput windows.
    pub fn mb_per_s(&self) -> f64 {
        self.median_rate(|_, bytes| bytes as f64 / 1e6)
    }

    /// Like a latency median, the median over short windows follows a
    /// typical stretch of the run rather than the host's slowest seconds.
    fn median_rate(&self, amount: impl Fn(u64, u64) -> f64) -> f64 {
        let mut rates: Vec<f64> = self
            .windows
            .iter()
            .map(|&(ops, bytes, secs)| per_sec(amount(ops, bytes), secs))
            .collect();
        median(&mut rates)
    }
}

/// Everything one live run measured.
#[derive(Default)]
pub struct LiveRun {
    /// Seconds of each set-up (spawn plus prefill).
    pub setup_s: Vec<f64>,
    /// The untraced healthy segments.
    pub healthy: Healthy,
    /// The traced healthy segments (empty unless the run is traced).
    pub traced: Healthy,
    /// Degraded read latencies.
    pub degraded: Latencies,
    /// Seconds of each `rebuild_server`.
    pub rebuild_s: Vec<f64>,
    /// Bytes the failed server held before it failed.
    pub rebuilt_bytes: u64,
    /// Stored bytes per logical byte (peak, for Hybrid).
    pub storage_ratio: f64,
}

fn per_sec(n: f64, secs: f64) -> f64 {
    if secs > 0.0 {
        n / secs
    } else {
        0.0
    }
}

/// Whether round `round`'s healthy stretch is traced: never in an
/// end-to-end run; in a per-layer run, untraced and traced in ABBA order
/// so that drift in the host's speed falls on both alike.
pub fn traced_round(ctx: &LiveCtx, round: u32) -> bool {
    ctx.traced.is_some() && matches!(round % 4, 1 | 2)
}

/// Start a measured healthy segment of a per-layer run: turn tracing on
/// for a traced one, zero the registries for an untraced one.
pub fn begin_segment(cluster: &Cluster, ctx: &LiveCtx, traced: bool) {
    if traced {
        cluster.set_tracing(true);
    } else if ctx.traced.is_some() {
        reset_registries(cluster);
    }
}

/// End a measured healthy segment of a per-layer run: turn tracing off
/// and scrape what is left of a traced one, fold the registries of an
/// untraced one into `into`.
pub fn end_segment(cluster: &Cluster, ctx: &LiveCtx, traced: bool, into: &mut Healthy) {
    let Some((_, scraper)) = ctx.traced else {
        return;
    };
    if traced {
        cluster.set_tracing(false);
        scraper.finish(cluster);
    } else {
        match (cluster.metrics_snapshot(), into.snapshot.as_mut()) {
            (Ok(s), Some(acc)) => acc.merge(&s),
            (Ok(s), None) => into.snapshot = Some(s),
            (Err(e), _) => ctx
                .tally
                .check(false, || format!("metrics snapshot failed: {e}")),
        }
    }
}

/// Rebuild the failed server [`REBUILDS_PER_ROUND`] times, failing it
/// again before every rebuild but the first, and record each rebuild's
/// seconds.
pub fn rebuilds(
    cluster: &Cluster,
    bench: Option<&BenchSpans>,
    run: &mut LiveRun,
    tally: &Tally,
    round: u32,
) {
    for i in 0..REBUILDS_PER_ROUND {
        if i > 0 {
            timed(bench, "fail_server", || cluster.fail_server(FAILED));
        }
        let t0 = std::time::Instant::now();
        let rebuilt = timed(bench, "rebuild_server", || cluster.rebuild_server(FAILED));
        run.rebuild_s.push(t0.elapsed().as_secs_f64());
        tally.check(rebuilt.is_ok(), || {
            format!("rebuild {i} of round {round} failed")
        });
    }
}

/// Run `f`, recording it as a benchmark span on the orchestrating thread
/// when the run is traced.
pub fn timed<R>(bench: Option<&BenchSpans>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match bench {
        Some(b) => b.time(name, ORCHESTRATOR, f),
        None => f(),
    }
}

/// Add one file's transport statistics into a running total.
pub fn add_stats(total: &mut OpStats, one: &OpStats) {
    total.ops += one.ops;
    total.requests += one.requests;
    total.retries += one.retries;
    total.max_in_flight = total.max_in_flight.max(one.max_in_flight);
    total.ttfb_ns += one.ttfb_ns;
    total.queue_stall_ns += one.queue_stall_ns;
    total.elapsed_ns += one.elapsed_ns;
}

/// Run `f(client)` on each client thread concurrently and collect the
/// results in client order.
pub fn on_clients<R: Send>(f: impl Fn(u64) -> R + Sync) -> Vec<R> {
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = (0..CLIENTS).map(|c| s.spawn(move || f(c))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Zero every registry the cluster reports through
/// [`Cluster::metrics_snapshot`] (call only while no op is in flight).
pub fn reset_registries(cluster: &Cluster) {
    cluster.obs().reset();
    csar_obs::global().reset();
    for srv in 0..cluster.servers() {
        cluster.with_server(srv, |s| s.obs.reset());
    }
}

/// A client's seeded op stream over the units it owns: unit indices
/// `≡ client (mod CLIENTS)`, uniformly at random, half reads and half
/// writes. Owning disjoint units makes every read exactly checkable;
/// units of both clients still share parity groups.
pub struct OpGen {
    rng: SplitMix64,
    client: u64,
    owned: u64,
}

impl OpGen {
    /// Stream `stream` of `client` over a file of `units` units.
    pub fn new(seed: u64, stream: u64, client: u64, units: u64) -> Self {
        Self {
            rng: SplitMix64::new(mix(mix(seed, stream), client)),
            client,
            owned: units / CLIENTS,
        }
    }

    /// The next op: whether it writes, and which unit.
    pub fn next_op(&mut self) -> (bool, u64) {
        let idx = self.rng.gen_range(0..self.owned) * CLIENTS + self.client;
        (self.rng.next_u64() & 1 == 0, idx)
    }
}
