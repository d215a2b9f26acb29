//! The zero-allocation parity data path — the measurements behind
//! `BENCH_datapath.json`.
//!
//! Two measurements, one claim each:
//!
//! * **[`xor_rates`]** — bandwidth of the one XOR kernel,
//!   [`xor_into`], at the block sizes the live path folds, next to a
//!   plain byte loop: the §3 word-at-a-time effect measured on this
//!   host.
//! * **[`whole_group_alloc_audit`]** — heap allocations per whole-group
//!   parity computation when folding through a reused
//!   [`ParityAccumulator`] and a [`BufferPool`] scratch buffer, counted
//!   by the crate's [`crate::alloc_count`] global allocator. The
//!   acceptance target is **zero** steady-state allocations: after the
//!   first group warms the buffers up, computing another group touches
//!   the heap not at all.
//!
//! The module also owns the steady-state whole-group write shape
//! ([`WallRun`] and the geometry constants) that the observability and
//! tracing ablations time. Wall-clock numbers are host-dependent and
//! reported as median and quartiles; the allocation counts are exact
//! and hermetic.

use crate::alloc_count;
use csar_parity::{xor_into, ParityAccumulator};
use csar_sim::RunStats;
use csar_store::{BufferPool, SplitMix64};
use std::time::Instant;

fn filled(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

/// The baseline [`xor_into`] is measured against: one byte per step,
/// as Swift/RAID started out.
fn plain_loop(dst: &mut [u8], src: &[u8]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= *s;
    }
}

type XorFn = fn(&mut [u8], &[u8]);

/// [`xor_into`] and the plain byte loop timed on one block size.
#[derive(Debug, Clone)]
pub struct XorRate {
    /// Buffer length, bytes.
    pub block: usize,
    /// `xor_into` bandwidth of each round, GB/s, ascending.
    pub kernel_gbps: Vec<f64>,
    /// Plain byte loop bandwidth of each round, GB/s, ascending.
    pub plain_gbps: Vec<f64>,
}

/// Lower quartile, median and upper quartile of an ascending sample.
pub fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let at = |q: f64| {
        if sorted.is_empty() {
            return 0.0;
        }
        let pos = q * (sorted.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    };
    [at(0.25), at(0.5), at(0.75)]
}

/// Time [`xor_into`] against the plain byte loop on each block size.
///
/// Each of `rounds` rounds XORs `bytes_per_round` bytes per side, block
/// by block, with the two sides back to back in alternating order, so
/// host drift and CPU-quota throttling land on both sides of a round.
pub fn xor_rates(blocks: &[usize], rounds: usize, bytes_per_round: usize) -> Vec<XorRate> {
    let mut rng = SplitMix64::new(0xDA7A_0001);
    blocks
        .iter()
        .map(|&block| {
            let src = filled(&mut rng, block);
            let mut dst = filled(&mut rng, block);
            let passes = (bytes_per_round / block).max(1);
            let sides: [XorFn; 2] = [xor_into, plain_loop];
            for f in sides {
                f(&mut dst, &src); // warm caches
            }
            let mut gbps = [Vec::with_capacity(rounds), Vec::with_capacity(rounds)];
            for round in 0..rounds {
                for k in 0..2 {
                    let side = if round % 2 == 0 { k } else { 1 - k };
                    let f = std::hint::black_box(sides[side]);
                    let t0 = Instant::now();
                    for _ in 0..passes {
                        f(&mut dst, &src);
                    }
                    let secs = t0.elapsed().as_secs_f64().max(1e-9);
                    gbps[side].push((block * passes) as f64 / secs / 1e9);
                }
            }
            let [mut kernel_gbps, mut plain_gbps] = gbps;
            kernel_gbps.sort_by(f64::total_cmp);
            plain_gbps.sort_by(f64::total_cmp);
            XorRate { block, kernel_gbps, plain_gbps }
        })
        .collect()
}

/// Result of [`whole_group_alloc_audit`].
#[derive(Debug, Clone, Copy)]
pub struct AllocAudit {
    /// Data blocks per group.
    pub width: usize,
    /// Block length, bytes.
    pub unit: usize,
    /// Groups computed after warmup.
    pub groups: u64,
    /// Heap allocations during the first (warmup) group: the
    /// accumulator's buffer and the pool's scratch block.
    pub warmup_allocs: u64,
    /// Heap allocations over all post-warmup groups combined. The
    /// zero-allocation datapath claim is exactly `steady_allocs == 0`.
    pub steady_allocs: u64,
}

impl AllocAudit {
    /// Steady-state allocations per whole-group parity computation.
    pub fn steady_per_group(&self) -> f64 {
        self.steady_allocs as f64 / self.groups.max(1) as f64
    }
}

fn compute_group(acc: &mut ParityAccumulator, pool: &std::sync::Arc<BufferPool>, blocks: &[Vec<u8>]) -> u8 {
    acc.reset();
    for b in blocks {
        acc.fold(b);
    }
    let mut out = pool.get();
    out.copy_from_slice(acc.current());
    out[0] // observable result so the fold cannot be optimised away
}

/// Count heap allocations per whole-group parity computation on the
/// reuse path (accumulator + pooled scratch).
pub fn whole_group_alloc_audit(width: usize, unit: usize, groups: u64) -> AllocAudit {
    let mut rng = SplitMix64::new(0xDA7A_0002);
    let blocks: Vec<Vec<u8>> = (0..width).map(|_| filled(&mut rng, unit)).collect();
    let mut acc = ParityAccumulator::new(unit);
    let pool = BufferPool::new(unit, 2);
    let (_, warmup_allocs) = alloc_count::count(|| compute_group(&mut acc, &pool, &blocks));
    let (_, steady_allocs) = alloc_count::count(|| {
        let mut sink = 0u8;
        for _ in 0..groups {
            sink ^= compute_group(&mut acc, &pool, &blocks);
        }
        sink
    });
    AllocAudit { width, unit, groups, warmup_allocs, steady_allocs }
}

/// One simulator phase timed on the host clock.
#[derive(Debug, Clone)]
pub struct WallRun {
    /// Virtual-time stats of the measured phase (identical with metrics
    /// or tracing on or off; asserted by the tests).
    pub virt: RunStats,
    /// Host wall-clock of the measured phase, ns.
    pub wall_ns: u64,
}

impl WallRun {
    /// Host-side write throughput: bytes the phase wrote over the wall
    /// time it took to simulate them, MB/s.
    pub fn wall_write_mbps(&self) -> f64 {
        self.virt.bytes_written as f64 / (self.wall_ns.max(1) as f64 / 1e9) / 1e6
    }
}

/// Geometry of the timed whole-group write phase (exported so the
/// tier-1 smoke runs and the full benches agree on shape and differ
/// only in volume).
pub const SERVERS: u32 = 6;
pub const UNIT: u64 = 256 * 1024;
pub const GROUPS_PER_OP: u64 = 8;
/// Distinct file windows the measured ops cycle over, so the working
/// set (and the sim's shared pattern buffer) stays bounded no matter
/// how many ops the scale factor asks for.
pub const SLOTS: u64 = 4;

#[cfg(test)]
mod tests {
    use super::*;
    use csar_core::proto::Scheme;
    use csar_sim::{HwProfile, Op, SimCluster};

    /// The datapath's acceptance core: after warmup, a whole-group parity
    /// computation performs exactly zero heap allocations.
    #[test]
    fn steady_state_group_parity_is_allocation_free() {
        let audit = whole_group_alloc_audit(5, 16 * 1024, 64);
        assert!(audit.warmup_allocs > 0, "warmup must allocate the reusable buffers");
        assert_eq!(
            audit.steady_allocs, 0,
            "steady-state whole-group parity computation must not touch the heap"
        );
    }

    /// Real payloads only change host-side byte handling: the simulated
    /// protocol, virtual timings and byte accounting are identical
    /// whether payloads are phantom or carry bytes through the folds.
    #[test]
    fn data_payloads_never_change_virtual_time() {
        let run = |data: bool| {
            let mut sim = SimCluster::new(HwProfile::myrinet_pentium3(), 4, 1);
            sim.set_data_payloads(data);
            let file = sim.create_file("virt", Scheme::Raid5, 4 * 1024);
            let group = 3 * 4 * 1024u64;
            sim.run_phase(vec![(0, vec![Op::Write { file, off: 0, len: 4 * group }])]);
            sim.settle_disks();
            // Unaligned overwrite: partial head + full groups + tail,
            // so both the RMW splice and the whole-group fold run.
            sim.run_phase(vec![(0, vec![Op::Write { file, off: 2048, len: 3 * group }])])
        };
        let phantom = run(false);
        let data = run(true);
        assert_eq!(data.duration_ns, phantom.duration_ns, "virtual time diverged");
        assert_eq!(data.bytes_written, phantom.bytes_written, "byte accounting diverged");
        assert_eq!(data.requests, phantom.requests, "request count diverged");
    }

    /// Which side is faster is codegen- and host-dependent (release
    /// lifts even the byte loop to SIMD), so the bench reports the
    /// numbers and the test pins only their shape.
    #[test]
    fn xor_rates_report_every_round() {
        let rates = xor_rates(&[4096, 4096 + 13], 3, 64 * 1024);
        assert_eq!(rates.len(), 2);
        for r in &rates {
            assert_eq!((r.kernel_gbps.len(), r.plain_gbps.len()), (3, 3));
            assert!(r.kernel_gbps.iter().chain(&r.plain_gbps).all(|&g| g > 0.0));
            assert!(r.kernel_gbps.windows(2).all(|w| w[0] <= w[1]), "rounds sorted");
        }
    }

    #[test]
    fn quartiles_interpolate() {
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), [2.0, 3.0, 4.0]);
        assert_eq!(quartiles(&[1.0, 2.0]), [1.25, 1.5, 1.75]);
        assert_eq!(quartiles(&[]), [0.0, 0.0, 0.0]);
    }
}
