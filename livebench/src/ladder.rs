//! The layer ladder: the live workloads' seeded ops replayed
//! synchronously, with no threads, through `csar_core::client::run_driver`
//! against in-process `IoServer::handle`, plus the parity kernels alone.
//! Each direct op is split into its planning poll, its server `handle`
//! calls, and the driver work in between; live latency minus direct
//! latency is the cluster layer's residual.

use crate::content::{mix, CycleImage, Expected, Pattern, UnitShadow, VERIFY_CHUNK};
use crate::hybrid::Checkpoint;
use crate::live::{OpGen, Tally, CLIENTS, FAILED, SERVERS, STRIPE_UNIT};
use crate::raid5::Raid5Spec;
use crate::stats::median;
use csar_core::client::{
    run_driver, Completion, Effect, OpDriver, OpOutput, ReadDriver, WriteDriver,
};
use csar_core::manager::FileMeta;
use csar_core::proto::{Request, Response, Scheme, ServerId};
use csar_core::server::{Effect as SrvEffect, IoServer, ServerConfig};
use csar_core::{CsarError, Layout};
use csar_store::{Payload, SplitMix64};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Ops the healthy replay stops at even with time left.
const MAX_OPS: usize = 20_000;

/// One direct op, split by layer (nanoseconds).
#[derive(Debug, Clone, Copy, Default)]
pub struct OpTiming {
    /// The whole op, payload copy and driver construction included.
    pub total: u64,
    /// The driver's `poll(Completion::Begin)`.
    pub plan: u64,
    /// Every `IoServer::handle` call the op made.
    pub handle: u64,
}

/// Direct replay results of one workload.
#[derive(Debug, Default)]
pub struct LadderRun {
    /// Healthy writes.
    pub writes: Vec<OpTiming>,
    /// Healthy reads.
    pub reads: Vec<OpTiming>,
    /// Reads with server [`FAILED`] down.
    pub degraded: Vec<OpTiming>,
    /// `xor_into` throughput at one stripe unit.
    pub xor_gbps: f64,
    /// `reconstruct` throughput at one stripe unit (bytes of survivors).
    pub reconstruct_gbps: f64,
}

impl LadderRun {
    /// Median of `f` over the given ops, in microseconds.
    pub fn median_us(ops: &[OpTiming], f: impl Fn(&OpTiming) -> u64) -> f64 {
        let mut v: Vec<f64> = ops.iter().map(|o| f(o) as f64).collect();
        median(&mut v) / 1e3
    }

    /// Every healthy op.
    pub fn healthy(&self) -> Vec<OpTiming> {
        self.writes.iter().chain(&self.reads).copied().collect()
    }
}

/// Times the first poll of the driver it wraps.
struct Timed<'d, D: OpDriver> {
    inner: &'d mut D,
    plan: u64,
}

impl<D: OpDriver> OpDriver for Timed<'_, D> {
    fn poll(&mut self, c: Completion) -> Vec<Effect> {
        if matches!(c, Completion::Begin) {
            let t0 = Instant::now();
            let e = self.inner.poll(c);
            self.plan = t0.elapsed().as_nanos() as u64;
            e
        } else {
            self.inner.poll(c)
        }
    }
}

/// In-process servers answering one request at a time.
pub struct Direct {
    servers: Vec<IoServer>,
    down: Option<ServerId>,
    next_req: u64,
    handle_ns: u64,
}

impl Default for Direct {
    fn default() -> Self {
        let cfg = ServerConfig::default();
        Self {
            servers: (0..SERVERS).map(|i| IoServer::new(i, cfg)).collect(),
            down: None,
            next_req: 0,
            handle_ns: 0,
        }
    }
}

impl Direct {
    fn exchange(&mut self, srv: ServerId, req: Request) -> Result<Response, CsarError> {
        if self.down == Some(srv) {
            return Ok(Response::Err(CsarError::ServerDown(srv)));
        }
        let req_id = self.next_req;
        self.next_req += 1;
        let t0 = Instant::now();
        let effects = self.servers[srv as usize].handle(1, req_id, req);
        self.handle_ns += t0.elapsed().as_nanos() as u64;
        effects
            .into_iter()
            .find_map(
                |SrvEffect::Reply {
                     req_id: rid, resp, ..
                 }| (rid == req_id).then_some(resp),
            )
            .ok_or_else(|| {
                CsarError::Protocol(format!("request {req_id} parked in a direct replay"))
            })
    }

    fn drive<D: OpDriver>(&mut self, driver: &mut D) -> Result<(OpOutput, u64, u64), CsarError> {
        self.handle_ns = 0;
        let mut timed = Timed {
            inner: driver,
            plan: 0,
        };
        let out = run_driver(&mut timed, |srv, req| self.exchange(srv, req))?;
        Ok((out, timed.plan, self.handle_ns))
    }

    /// Write `data` at `off` as `File::write_at` would: copy, plan, run.
    pub fn write(&mut self, meta: &FileMeta, off: u64, data: &[u8]) -> Result<OpTiming, CsarError> {
        let t0 = Instant::now();
        let mut d =
            WriteDriver::new_degraded(meta, off, Payload::from_vec(data.to_vec()), self.down);
        let (_, plan, handle) = self.drive(&mut d)?;
        Ok(OpTiming {
            total: t0.elapsed().as_nanos() as u64,
            plan,
            handle,
        })
    }

    /// Read as `File::read_at` would.
    pub fn read(
        &mut self,
        meta: &FileMeta,
        off: u64,
        len: u64,
    ) -> Result<(Vec<u8>, OpTiming), CsarError> {
        let t0 = Instant::now();
        let mut d = ReadDriver::new(meta, off, len, self.down);
        let (out, plan, handle) = self.drive(&mut d)?;
        let bytes = out
            .into_payload()
            .to_flat_vec()
            .ok_or_else(|| CsarError::Protocol("phantom data in a direct read".into()))?;
        Ok((
            bytes,
            OpTiming {
                total: t0.elapsed().as_nanos() as u64,
                plan,
                handle,
            },
        ))
    }
}

fn meta(fh: u64, scheme: Scheme, size: u64) -> FileMeta {
    FileMeta {
        fh,
        name: format!("f{fh}"),
        scheme,
        layout: Layout::new(SERVERS, STRIPE_UNIT),
        size,
    }
}

/// Replay a RAID5 workload: prefill, then both clients' op streams
/// interleaved, then degraded reads.
pub fn raid5(
    spec: &Raid5Spec,
    seed: u64,
    pattern: &Pattern,
    tally: &Tally,
    budget: Duration,
) -> LadderRun {
    let mut run = LadderRun::default();
    let m = meta(1, Scheme::Raid5, spec.file_bytes);
    let shadow = UnitShadow::new(pattern, spec.op_bytes, spec.units());
    let mut d = Direct::default();
    let per_write = (VERIFY_CHUNK / spec.op_bytes).max(1);
    let mut first = 0;
    while first < spec.units() {
        let n = per_write.min(spec.units() - first);
        tally.check(
            d.write(&m, first * spec.op_bytes, &shadow.current_range(first, n))
                .is_ok(),
            || "direct prefill failed".into(),
        );
        first += n;
    }
    let mut gens: Vec<OpGen> = (0..CLIENTS)
        .map(|c| OpGen::new(seed, 0, c, spec.units()))
        .collect();
    let deadline = Instant::now() + budget.mul_f64(0.75);
    for i in 0..MAX_OPS {
        if Instant::now() >= deadline {
            break;
        }
        let (write, idx) = gens[i % CLIENTS as usize].next_op();
        let off = idx * spec.op_bytes;
        if write {
            let (v, data) = shadow.next(idx);
            match d.write(&m, off, data) {
                Ok(t) => {
                    shadow.commit(idx, v);
                    run.writes.push(t);
                    tally.record(true);
                }
                Err(e) => tally.check(false, || format!("direct write failed: {e}")),
            }
        } else {
            let res = d.read(&m, off, spec.op_bytes);
            let ok = matches!(&res, Ok((got, _)) if shadow.matches(off, got));
            tally.check(ok, || format!("direct read of unit {idx} wrong"));
            if let Ok((_, t)) = res {
                run.reads.push(t);
            }
        }
    }
    d.down = Some(FAILED);
    let mut gen = OpGen::new(seed, 1, 0, spec.units());
    let deadline = Instant::now() + budget.mul_f64(0.25);
    while Instant::now() < deadline && run.degraded.len() < MAX_OPS {
        let (_, idx) = gen.next_op();
        let off = idx * spec.op_bytes;
        let res = d.read(&m, off, spec.op_bytes);
        let ok = matches!(&res, Ok((got, _)) if shadow.matches(off, got));
        tally.check(ok, || format!("direct degraded read of unit {idx} wrong"));
        if let Ok((_, t)) = res {
            run.degraded.push(t);
        }
    }
    run
}

/// Replay the Hybrid checkpoint: cycle 0 as prefill, then whole cycles
/// (rank 0's writes then rank 1's, phase by phase, then the restart
/// read), then degraded restart reads.
pub fn hybrid(ck: &Checkpoint, pattern: &Pattern, tally: &Tally, budget: Duration) -> LadderRun {
    let mut run = LadderRun::default();
    let sizes = ck.sizes();
    let metas: Vec<FileMeta> = sizes
        .iter()
        .enumerate()
        .map(|(f, &s)| meta(f as u64 + 1, Scheme::Hybrid, s))
        .collect();
    let mut d = Direct::default();
    let write_cycle = |d: &mut Direct, cycle: u64, out: Option<&mut Vec<OpTiming>>| {
        let mut out = out;
        for phase in &ck.phases {
            for rank in phase {
                for &(f, off, len) in rank {
                    let data = CycleImage::content(pattern, f, off, len, cycle);
                    match d.write(&metas[f as usize], off, data) {
                        Ok(t) => {
                            tally.record(true);
                            if let Some(o) = out.as_deref_mut() {
                                o.push(t);
                            }
                        }
                        Err(e) => tally.check(false, || format!("direct write failed: {e}")),
                    }
                }
            }
        }
    };
    let read_all = |d: &mut Direct, cycle: u64, out: &mut Vec<OpTiming>| {
        let images = ck.images(pattern, cycle);
        for &(f, off, len) in &ck.chunks {
            let res = d.read(&metas[f as usize], off, len);
            let ok = matches!(&res, Ok((got, _)) if images[f as usize].matches(off, got));
            tally.check(ok, || format!("direct read {f}@{off} cycle {cycle} wrong"));
            if let Ok((_, t)) = res {
                out.push(t);
            }
        }
    };
    write_cycle(&mut d, 0, None);
    let deadline = Instant::now() + budget.mul_f64(0.75);
    let mut cycle = 1;
    while cycle == 1 || (Instant::now() < deadline && run.writes.len() < MAX_OPS) {
        write_cycle(&mut d, cycle, Some(&mut run.writes));
        read_all(&mut d, cycle, &mut run.reads);
        cycle += 1;
    }
    d.down = Some(FAILED);
    let deadline = Instant::now() + budget.mul_f64(0.25);
    while run.degraded.is_empty() || Instant::now() < deadline {
        read_all(&mut d, cycle - 1, &mut run.degraded);
    }
    run
}

/// Throughput of `xor_into` and `reconstruct` at one stripe unit:
/// median of several timed batches, each at least `budget / 10`.
pub fn kernels(seed: u64, budget: Duration) -> (f64, f64) {
    let unit = STRIPE_UNIT as usize;
    let mut rng = SplitMix64::new(mix(seed, 0x6b65_726e));
    let blocks: Vec<Vec<u8>> = (0..SERVERS - 1)
        .map(|_| {
            let mut b = vec![0u8; unit];
            rng.fill_bytes(&mut b);
            b
        })
        .collect();
    let refs: Vec<&[u8]> = blocks.iter().map(|b| b.as_slice()).collect();
    let slice = budget / 10;
    let mut acc = vec![0u8; unit];
    let batch = |f: &mut dyn FnMut() -> u64| -> f64 {
        let t0 = Instant::now();
        let mut bytes = 0u64;
        while t0.elapsed() < slice {
            for _ in 0..16 {
                bytes += f();
            }
        }
        bytes as f64 / t0.elapsed().as_secs_f64() / 1e9
    };
    let mut xor: Vec<f64> = (0..5)
        .map(|_| {
            let mut i = 0;
            batch(&mut || {
                i += 1;
                csar_parity::xor_into(black_box(&mut acc), black_box(refs[i % refs.len()]));
                unit as u64
            })
        })
        .collect();
    let mut recon: Vec<f64> = (0..5)
        .map(|_| {
            batch(&mut || {
                black_box(csar_parity::reconstruct(black_box(&refs)));
                (unit * refs.len()) as u64
            })
        })
        .collect();
    (median(&mut xor), median(&mut recon))
}
