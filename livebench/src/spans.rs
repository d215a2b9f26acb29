//! The traced run's two span sources.
//!
//! * [`BenchSpans`]: the benchmark's own spans around each call into the
//!   cluster (`write_at`, `read_at`, `clean_pass`, `fail_server`,
//!   `rebuild_server`), kept in memory and written out at the end.
//! * [`Scraper`]: the program's own causal phase spans, scraped from the
//!   client registry's trace ring (which also holds every server span
//!   piggybacked on a reply) often enough that the ring never wraps
//!   between scrapes. Each completed op tree is reduced to per-phase
//!   self times: a span's duration minus the part of it its children
//!   cover.

use crate::stats::median;
use csar_cluster::Cluster;
use csar_obs::trace::{Phase, SpanId, TraceSpan};
use csar_obs::TRACE_RING;
use csar_store::Json;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Program spans kept for the written-out trace file; aggregation uses
/// every scraped span regardless.
const KEEP_PROGRAM_SPANS: usize = 20_000;

/// Fill level of the trace ring a scrape aims for.
const SCRAPE_FILL: f64 = 0.4;

/// One benchmark span: a call into a layer's public API.
#[derive(Debug, Clone, Copy)]
pub struct BenchSpan {
    /// What was called.
    pub name: &'static str,
    /// Benchmark thread (0 and 1 are the client threads).
    pub thread: u32,
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Benchmark spans of one run, shared by its threads.
pub struct BenchSpans {
    epoch: Instant,
    spans: Mutex<Vec<BenchSpan>>,
}

impl BenchSpans {
    /// An empty log with its epoch at `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Append a thread's spans.
    pub fn extend(&self, local: Vec<BenchSpan>) {
        self.spans
            .lock()
            .expect("bench span log poisoned")
            .extend(local);
    }

    /// A span for a call that ran from `start` for `dur`.
    pub fn span(
        &self,
        name: &'static str,
        thread: u32,
        start: Instant,
        dur: Duration,
    ) -> BenchSpan {
        BenchSpan {
            name,
            thread,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
        }
    }

    /// Time `f` and record it as one span.
    pub fn time<R>(&self, name: &'static str, thread: u32, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        let s = self.span(name, thread, t0, t0.elapsed());
        self.extend(vec![s]);
        r
    }

    /// Every span recorded, as JSON.
    pub fn to_json(&self) -> Json {
        let spans = self.spans.lock().expect("bench span log poisoned");
        Json::Arr(
            spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::from(s.name)),
                        ("thread", Json::from(s.thread)),
                        ("start_ns", Json::from(s.start_ns)),
                        ("dur_ns", Json::from(s.dur_ns)),
                    ])
                })
                .collect(),
        )
    }
}

/// Per-phase self-time samples over completed op trees (nanoseconds).
#[derive(Debug, Default)]
pub struct PhaseTimes {
    /// Per op: plan self time.
    pub plan: Vec<f64>,
    /// Per op with XOR work: summed xor self time.
    pub xor: Vec<f64>,
    /// Per op: summed deliver self time.
    pub deliver: Vec<f64>,
    /// Per request: submission-queue self time.
    pub submit: Vec<f64>,
    /// Per request: wire round trip minus the server spans inside it.
    pub wire_rtt: Vec<f64>,
    /// Per request: server inbound-queue wait.
    pub srv_queue: Vec<f64>,
    /// Per parked lock request: §5.1 lock wait.
    pub lock_wait: Vec<f64>,
    /// Per request: server service time.
    pub service: Vec<f64>,
    /// Per request: wire round trip minus its service span.
    pub wire_minus_service: Vec<f64>,
    /// Op trees reduced.
    pub ops: u64,
}

impl PhaseTimes {
    /// Median of each phase in microseconds with its sample count,
    /// keyed by metric name.
    pub fn medians_us(&mut self) -> Vec<(&'static str, f64, u64)> {
        [
            ("trace.plan_us", &mut self.plan),
            ("trace.submit_us", &mut self.submit),
            ("trace.wire_rtt_us", &mut self.wire_rtt),
            ("trace.srv_queue_us", &mut self.srv_queue),
            ("trace.lock_wait_us", &mut self.lock_wait),
            ("trace.service_us", &mut self.service),
            ("trace.xor_us", &mut self.xor),
            ("trace.deliver_us", &mut self.deliver),
            ("trace.wire_minus_service_us", &mut self.wire_minus_service),
        ]
        .into_iter()
        .map(|(name, v)| (name, median(v) / 1e3, v.len() as u64))
        .collect()
    }

    /// Reduce one complete op tree.
    fn add_tree(&mut self, spans: &[TraceSpan]) {
        let mut children: HashMap<u64, Vec<&TraceSpan>> = HashMap::new();
        for s in spans {
            children.entry(s.parent.0).or_default().push(s);
        }
        let kids = |s: &TraceSpan| children.get(&s.span.0).map_or(&[][..], |v| v.as_slice());
        let self_ns = |s: &TraceSpan| s.dur_ns.saturating_sub(covered(s, kids(s))) as f64;
        let (mut plan, mut xor, mut deliver) = (0.0, None, 0.0);
        for s in spans {
            match s.phase {
                Phase::Plan => plan += self_ns(s),
                Phase::Xor => *xor.get_or_insert(0.0) += self_ns(s),
                Phase::Deliver => deliver += self_ns(s),
                Phase::Submit => self.submit.push(self_ns(s)),
                Phase::SrvQueue => self.srv_queue.push(self_ns(s)),
                Phase::LockWait => self.lock_wait.push(self_ns(s)),
                Phase::Service => self.service.push(self_ns(s)),
                Phase::WireRtt => {
                    self.wire_rtt.push(self_ns(s));
                    let service: u64 = kids(s)
                        .iter()
                        .filter(|k| k.phase == Phase::Service)
                        .map(|k| k.dur_ns)
                        .sum();
                    self.wire_minus_service
                        .push(s.dur_ns.saturating_sub(service) as f64);
                }
                Phase::Op | Phase::WindowStall | Phase::Timeout => {}
            }
        }
        self.plan.push(plan);
        self.deliver.push(deliver);
        if let Some(x) = xor {
            self.xor.push(x);
        }
        self.ops += 1;
    }
}

/// Whether an op's spans form one whole tree: its root is there and
/// every other span's parent is too.
fn complete(spans: &[TraceSpan]) -> bool {
    let ids: HashSet<u64> = spans.iter().map(|s| s.span.0).collect();
    spans.iter().any(|s| s.phase == Phase::Op)
        && spans
            .iter()
            .all(|s| s.parent == SpanId::NONE || ids.contains(&s.parent.0))
}

/// Nanoseconds of `parent` covered by the union of `kids`.
fn covered(parent: &TraceSpan, kids: &[&TraceSpan]) -> u64 {
    let (lo, hi) = (parent.start_ns, parent.end_ns());
    let mut iv: Vec<(u64, u64)> = kids
        .iter()
        .map(|k| (k.start_ns.clamp(lo, hi), k.end_ns().clamp(lo, hi)))
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_unstable();
    let (mut total, mut cur) = (0, None::<(u64, u64)>);
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

struct ScrapeState {
    seen: HashSet<(u64, u64)>,
    pending: HashMap<u64, Vec<TraceSpan>>,
    times: PhaseTimes,
    kept: Vec<TraceSpan>,
    /// Ops between scrapes, adapted to the observed spans per op.
    every: u64,
    ops_at_last: u64,
    scrape_ns: u64,
    /// Op trees dropped because a span's parent was missing.
    dropped: u64,
}

/// What a [`Scraper`] produced.
pub struct ScrapeResults {
    /// Per-phase median self time in microseconds with its sample count.
    pub phases: Vec<(&'static str, f64, u64)>,
    /// Op trees reduced.
    pub trees: u64,
    /// Op trees dropped because a span's parent was missing (a slot read
    /// while another thread rewrote it).
    pub dropped: u64,
    /// The kept program spans.
    pub spans: Json,
}

/// Scrapes the program's trace ring between ops.
pub struct Scraper {
    ops: AtomicU64,
    state: Mutex<ScrapeState>,
}

impl Default for Scraper {
    fn default() -> Self {
        Self {
            ops: AtomicU64::new(0),
            state: Mutex::new(ScrapeState {
                seen: HashSet::new(),
                pending: HashMap::new(),
                times: PhaseTimes::default(),
                kept: Vec::new(),
                every: 8,
                ops_at_last: 0,
                scrape_ns: 0,
                dropped: 0,
            }),
        }
    }
}

impl Scraper {
    /// Count one finished op; scrape when enough ops have finished since
    /// the last scrape that the ring may be filling up.
    pub fn tick(&self, cluster: &Cluster) {
        let n = self.ops.fetch_add(1, Ordering::Relaxed) + 1;
        let Ok(mut st) = self.state.try_lock() else {
            return;
        };
        if n.saturating_sub(st.ops_at_last) >= st.every {
            Self::scrape_into(&mut st, cluster, n);
        }
    }

    /// Scrape whatever is left (call once the traced ops have finished).
    pub fn finish(&self, cluster: &Cluster) {
        let n = self.ops.load(Ordering::Relaxed);
        let mut st = self.state.lock().expect("scraper poisoned");
        Self::scrape_into(&mut st, cluster, n);
    }

    fn scrape_into(st: &mut ScrapeState, cluster: &Cluster, ops_now: u64) {
        let t0 = Instant::now();
        let ring = cluster.obs().trace_spans();
        // Anything still in the ring was either in the previous scrape's
        // ring or is new, so deduplicating against that scrape suffices.
        let mut in_ring = HashSet::with_capacity(ring.len());
        let mut fresh = 0u64;
        for s in ring {
            let key = (s.trace.0, s.span.0);
            in_ring.insert(key);
            if !st.seen.contains(&key) {
                fresh += 1;
                st.pending.entry(s.trace.0).or_default().push(s);
            }
        }
        st.seen = in_ring;
        // An op's root span is recorded after all its other spans.
        let done: Vec<u64> = st
            .pending
            .iter()
            .filter(|(_, v)| v.iter().any(|s| s.phase == Phase::Op))
            .map(|(t, _)| *t)
            .collect();
        for t in done {
            let Some(spans) = st.pending.remove(&t) else {
                continue;
            };
            if !complete(&spans) {
                st.dropped += 1;
                continue;
            }
            st.times.add_tree(&spans);
            let room = KEEP_PROGRAM_SPANS.saturating_sub(st.kept.len());
            st.kept.extend(spans.into_iter().take(room));
        }
        let ops = ops_now.saturating_sub(st.ops_at_last).max(1);
        let per_op = (fresh as f64 / ops as f64).max(1.0);
        st.every = ((TRACE_RING as f64 * SCRAPE_FILL) / per_op).max(1.0) as u64;
        st.ops_at_last = ops_now;
        st.scrape_ns += t0.elapsed().as_nanos() as u64;
    }

    /// Time spent scraping (excluded from the traced run's throughput).
    pub fn scrape_time(&self) -> Duration {
        Duration::from_nanos(self.state.lock().expect("scraper poisoned").scrape_ns)
    }

    /// What the scrape produced.
    pub fn results(&self) -> ScrapeResults {
        let mut st = self.state.lock().expect("scraper poisoned");
        ScrapeResults {
            phases: st.times.medians_us(),
            trees: st.times.ops,
            dropped: st.dropped,
            spans: Json::Arr(st.kept.iter().map(csar_store::ToJson::to_json).collect()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csar_obs::trace::TraceId;

    fn span(id: u64, parent: u64, phase: Phase, start: u64, dur: u64) -> TraceSpan {
        TraceSpan {
            trace: TraceId(1),
            span: SpanId(id),
            parent: SpanId(parent),
            phase,
            start_ns: start,
            dur_ns: dur,
            aux: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let tree = [
            span(1, 0, Phase::Op, 0, 100),
            span(2, 1, Phase::Plan, 0, 10),
            span(3, 1, Phase::WireRtt, 10, 50),
            span(4, 3, Phase::SrvQueue, 15, 5),
            span(5, 3, Phase::Service, 20, 30),
            span(6, 3, Phase::Service, 25, 10),
        ];
        let mut t = PhaseTimes::default();
        t.add_tree(&tree);
        assert_eq!(t.plan, vec![10.0]);
        // 50 ns round trip, children cover 15..50 → 15 ns of its own.
        assert_eq!(t.wire_rtt, vec![15.0]);
        assert_eq!(t.wire_minus_service, vec![10.0]);
        assert_eq!(t.ops, 1);
        assert!(t.xor.is_empty());
        assert!(complete(&tree));
        assert!(!complete(&tree[1..]), "no root");
        assert!(
            !complete(&[tree[0], tree[3]]),
            "server span without its wire span"
        );
    }
}
