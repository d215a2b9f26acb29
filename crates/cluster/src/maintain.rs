//! Maintenance machinery: the §6.7 background overflow cleaner and an
//! offline parity/mirror scrubber.
//!
//! The paper proposes recovering overflow storage with "a simple process
//! that reads files in their entirety and writes them in a large chunk
//! … this process could be run in the background and activated when the
//! system is under a low load. With such a mechanism, the long-term
//! storage of the Hybrid scheme would be the same as the RAID5 scheme."
//! [`Cluster::start_cleaner`] is that process: a daemon thread that
//! periodically rewrites each Hybrid file's overflowed ranges as
//! full-group writes (migrating them back to parity form) and compacts
//! the overflow logs.
//!
//! [`Cluster::scrub`] is the matching verifier: it walks every file and
//! checks each parity group against the in-place data and every RAID1
//! mirror block against its primary — the invariant all recovery paths
//! rely on.

use crate::client::{File, Handle};
use crate::deploy::Cluster;
use csar_core::manager::FileMeta;
use csar_core::proto::{ReqHeader, Request, Response, Scheme, ServerId};
use csar_core::{CsarError, Span};
use csar_obs::{Ctr, MetricsRegistry, SpanKind};
use csar_parity::ParityAccumulator;
use csar_store::{Payload, StreamKind};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Handle to a running background cleaner. Stops (and joins) on drop or
/// via [`CleanerHandle::stop`].
pub struct CleanerHandle {
    stop: Arc<AtomicBool>,
    passes: Arc<AtomicU64>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl CleanerHandle {
    /// Completed cleaning passes.
    pub fn passes(&self) -> u64 {
        self.passes.load(Ordering::SeqCst)
    }

    /// Stop the daemon and wait for it to exit.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for CleanerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Result of one scrub pass.
#[derive(Debug, Clone, Default)]
pub struct ScrubReport {
    /// Files inspected.
    pub files: usize,
    /// Parity groups verified.
    pub groups_checked: u64,
    /// Mirror blocks verified (RAID1).
    pub mirrors_checked: u64,
    /// `(file name, group)` pairs whose parity does not match the data.
    pub bad_groups: Vec<(String, u64)>,
    /// `(file name, block)` pairs whose mirror does not match the data.
    pub bad_mirrors: Vec<(String, u64)>,
}

impl ScrubReport {
    /// True when no inconsistency was found.
    pub fn is_clean(&self) -> bool {
        self.bad_groups.is_empty() && self.bad_mirrors.is_empty()
    }
}

impl Cluster {
    /// Start the §6.7 background cleaner: every `interval`, rewrite each
    /// Hybrid file's overflowed ranges as full parity groups and compact
    /// the overflow logs. Returns a handle; the daemon stops when the
    /// handle is dropped.
    ///
    /// Like the paper's proposal the cleaner is meant for low-load
    /// periods, but it is safe against concurrent writers: each group is
    /// rewritten while holding that group's §5.1 parity lock (so it
    /// serializes with locking writers and other cleaners), and the
    /// overflow entries it migrated are dropped only by a
    /// generation-guarded conditional invalidation — a partial write
    /// that lands mid-rewrite keeps its (newer) overflow entry and the
    /// group's reclaim is simply deferred to the next pass.
    pub fn start_cleaner(&self, interval: Duration) -> CleanerHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let passes = Arc::new(AtomicU64::new(0));
        let inner_stop = Arc::clone(&stop);
        let inner_passes = Arc::clone(&passes);
        let client_cluster = self.clone_ref();
        let thread = std::thread::Builder::new()
            .name("csar-cleaner".into())
            .spawn(move || {
                while !inner_stop.load(Ordering::SeqCst) {
                    let _ = client_cluster.clean_pass();
                    inner_passes.fetch_add(1, Ordering::SeqCst);
                    // Sleep in small slices so stop() is responsive.
                    let mut waited = Duration::ZERO;
                    while waited < interval && !inner_stop.load(Ordering::SeqCst) {
                        let slice = Duration::from_millis(10).min(interval - waited);
                        std::thread::sleep(slice);
                        waited += slice;
                    }
                }
            })
            .expect("spawn cleaner");
        CleanerHandle { stop, passes, thread: Some(thread) }
    }

    /// One synchronous cleaning pass over every Hybrid file: rewrite
    /// each group that has live overflow data as an in-place full-group
    /// write with fresh parity, conditionally invalidate the migrated
    /// overflow entries, then compact the logs. Returns the overflow
    /// bytes reclaimed.
    ///
    /// Each file is cleaned in runs of up to four consecutive groups
    /// (`RUN_GROUPS`), and every step of a run is one wave of requests:
    ///
    /// 1. **Ranged liveness wave** — one `OverflowQuery` per block copy
    ///    (primary and mirror) of every group in the run, each clipped
    ///    to its block's byte range, so only groups that actually hold
    ///    live overflow ("dirty" groups) are rewritten. Each reply also
    ///    carries the owning table's generation, sampled here, before
    ///    any lock, as the reclaim guard.
    /// 2. **Locks** — take the dirty groups' §5.1 parity locks in
    ///    ascending group order, each issued only after the previous
    ///    grant, so locking writers and other cleaners serialize
    ///    against the run.
    /// 3. **Reads** — one read of the latest contents (`ReadLatest`
    ///    overlays live overflow) per contiguous dirty segment. Tail
    ///    groups are read clipped to EOF.
    /// 4. **Write-and-unlock wave** — every in-place `WriteData`
    ///    (without invalidation) first, then each group's
    ///    `ParityWriteUnlock` with fresh parity over the zero-extended
    ///    group (holes read as zeros). A batch is issued in FIFO order,
    ///    so every data write is queued at its server before an unlock
    ///    can hand a lock to a waiting writer.
    /// 5. **Conditional reclaim wave** — `InvalidateOverflowRange` per
    ///    guard with its sampled generation. If a partial write raced
    ///    the rewrite the generation has advanced and the server
    ///    declines: the writer's newer overflow entry keeps masking the
    ///    (now stale) in-place bytes and the group's reclaim is deferred
    ///    to the next pass.
    ///
    /// An error after a grant but before the write-and-unlock wave
    /// releases every held lock with the parity its grant returned —
    /// nothing has been written yet, so that parity is still correct —
    /// and the pass returns the error. Per file, the usage reports
    /// before and after and the compaction each go to all servers as
    /// one wave.
    ///
    /// Concurrent *whole-group* writers remain last-writer-wins against
    /// the cleaner's rewrite, exactly as two racing whole-group writes
    /// always were under Hybrid (neither takes the parity lock).
    pub fn clean_pass(&self) -> Result<u64, CsarError> {
        self.clean_pass_hooked(&mut |_| {})
    }

    /// Test seam: `clean_pass` with a callback invoked for each dirty
    /// group after its latest contents are read but before they are
    /// rewritten — the exact window a concurrent partial write must
    /// survive.
    #[doc(hidden)]
    pub fn clean_pass_hooked(&self, mid_rewrite: &mut dyn FnMut(u64)) -> Result<u64, CsarError> {
        let client = self.client();
        let obs = self.obs();
        let mut reclaimed = 0u64;
        for meta in client.list_files()? {
            if meta.scheme != Scheme::Hybrid || meta.size == 0 {
                continue;
            }
            let file = client.open(&meta.name)?;
            let before = file.storage_report()?.aggregate();
            if before.overflow + before.overflow_mirror == 0 {
                continue;
            }
            let mut runs = RunCleaner {
                h: client.handle(),
                obs,
                file: &file,
                meta: &meta,
                hdr: ReqHeader::new(meta.fh, meta.layout, meta.scheme),
                acc: ParityAccumulator::new(meta.layout.stripe_unit as usize),
            };
            let groups = meta.size.div_ceil(meta.layout.group_width_bytes());
            for first in (0..groups).step_by(RUN_GROUPS as usize) {
                runs.clean(first..groups.min(first + RUN_GROUPS), mid_rewrite)?;
            }
            file.compact_overflow()?;
            let after = file.storage_report()?.aggregate();
            reclaimed += (before.overflow + before.overflow_mirror)
                .saturating_sub(after.overflow + after.overflow_mirror);
        }
        obs.inc(Ctr::CleanerPasses);
        Ok(reclaimed)
    }

    /// Verify every parity group and mirror block of every file against
    /// the in-place data. Requires real (non-phantom) file contents and a
    /// quiescent cluster.
    pub fn scrub(&self) -> Result<ScrubReport, CsarError> {
        let client = self.client();
        let t0 = Instant::now();
        let mut report = ScrubReport::default();
        for meta in client.list_files()? {
            report.files += 1;
            if meta.size == 0 {
                continue;
            }
            let ly = meta.layout;
            let unit = ly.stripe_unit;
            match meta.scheme {
                Scheme::Raid1 => {
                    let last_block = ly.block_of(meta.size - 1);
                    for b in 0..=last_block {
                        let data = self.with_server(ly.home_server(b), |s| {
                            s.store().read(meta.fh, StreamKind::Data, ly.data_local_off(b, 0), unit)
                        });
                        let mirror = self.with_server(ly.mirror_server(b), |s| {
                            s.store().read(meta.fh, StreamKind::Mirror, ly.mirror_local_off(b, 0), unit)
                        });
                        report.mirrors_checked += 1;
                        if data != mirror {
                            report.bad_mirrors.push((meta.name.clone(), b));
                        }
                    }
                }
                s if s.uses_parity() => {
                    let groups = meta.size.div_ceil(ly.group_width_bytes());
                    // One reusable accumulator for the whole file: fold
                    // each block's chunks in place instead of copying
                    // every group member into a fresh Vec.
                    let mut acc = ParityAccumulator::new(unit as usize);
                    for g in 0..groups {
                        acc.reset_to(unit as usize);
                        let mut ok = true;
                        for b in ly.group_blocks(g) {
                            let p = self.with_server(ly.home_server(b), |srv| {
                                srv.store().read(meta.fh, StreamKind::Data, ly.data_local_off(b, 0), unit)
                            });
                            if !p.is_data() {
                                ok = false; // phantom data: cannot scrub
                                break;
                            }
                            let mut off = 0usize;
                            for c in p.chunks() {
                                acc.fold_at(off, c);
                                off += c.len();
                            }
                        }
                        if !ok {
                            continue;
                        }
                        let parity = self.with_server(ly.parity_server(g), |srv| {
                            srv.store().read(meta.fh, StreamKind::Parity, ly.parity_local_off(g, 0), unit)
                        });
                        if !parity.is_data() {
                            continue;
                        }
                        report.groups_checked += 1;
                        let mut off = 0usize;
                        let mut matches = parity.len() == unit;
                        for c in parity.chunks() {
                            if !matches {
                                break;
                            }
                            if acc.current()[off..off + c.len()] != c[..] {
                                matches = false;
                            }
                            off += c.len();
                        }
                        if !matches {
                            report.bad_groups.push((meta.name.clone(), g));
                        }
                    }
                }
                _ => {}
            }
        }
        let obs = self.obs();
        obs.add(Ctr::ScrubGroupsChecked, report.groups_checked);
        obs.add(Ctr::ScrubMirrorsChecked, report.mirrors_checked);
        obs.span(SpanKind::Scrub, t0, report.groups_checked + report.mirrors_checked);
        Ok(report)
    }
}

/// Consecutive groups per cleaner run (see [`Cluster::clean_pass`]).
/// Each step of a run is one wave, so round trips are paid per run
/// rather than per group; the price is holding up to this many §5.1
/// locks at once.
const RUN_GROUPS: u64 = 4;

/// A group of the current run with live overflow.
struct Dirty {
    group: u64,
    /// Block copies holding live overflow, each with its table's
    /// generation sampled before any lock: `(server, mirror, off, len,
    /// generation)`.
    guards: Vec<(ServerId, bool, u64, u64, u64)>,
    /// The parity the group's lock grant returned, while the cleaner
    /// holds the lock and has written nothing.
    granted: Option<Payload>,
}

/// One Hybrid file being cleaned, run by run.
struct RunCleaner<'a> {
    h: &'a Handle,
    obs: &'a MetricsRegistry,
    file: &'a File,
    meta: &'a FileMeta,
    hdr: ReqHeader,
    acc: ParityAccumulator,
}

impl RunCleaner<'_> {
    /// Clean the groups of `run` in the five steps of
    /// [`Cluster::clean_pass`].
    fn clean(&mut self, run: Range<u64>, mid_rewrite: &mut dyn FnMut(u64)) -> Result<(), CsarError> {
        let mut dirty = self.query(run)?;
        if dirty.is_empty() {
            return Ok(());
        }
        let t0 = Instant::now();
        let batch = match self.lock_and_read(&mut dirty, mid_rewrite) {
            Ok(batch) => batch,
            Err(e) => {
                self.release(&mut dirty);
                return Err(e);
            }
        };
        // 4. Write-and-unlock wave; the unlocks publish fresh parity and
        // release the run's locks.
        for resp in self.h.send_batch(batch)? {
            resp.into_done()?;
        }
        // 5. Conditional reclaim wave.
        let hdr = self.hdr;
        let reclaims = dirty
            .iter()
            .flat_map(|d| &d.guards)
            .map(|&(srv, mirror, off, len, gen)| {
                (srv, Request::InvalidateOverflowRange { hdr, off, len, mirror, if_generation: gen })
            })
            .collect();
        let freed = self
            .h
            .send_batch(reclaims)?
            .into_iter()
            .map(Response::into_done)
            .collect::<Result<Vec<u64>, _>>()?;
        let mut at = 0;
        for d in &dirty {
            let freed = &freed[at..at + d.guards.len()];
            at += d.guards.len();
            for (&(_, mirror, ..), &bytes) in d.guards.iter().zip(freed) {
                if !mirror {
                    self.obs.add(Ctr::CleanerBytesReclaimed, bytes);
                }
            }
            self.obs.inc(Ctr::CleanerGroupsRewritten);
            if freed.contains(&0) {
                self.obs.inc(Ctr::CleanerGroupsDeferred);
            }
            self.obs.span(SpanKind::CleanerGroup, t0, d.group);
        }
        Ok(())
    }

    /// Step 1: one wave of ranged liveness queries over every block
    /// copy of `run`. Returns the dirty groups in ascending order with
    /// their reclaim guards.
    fn query(&self, run: Range<u64>) -> Result<Vec<Dirty>, CsarError> {
        let ly = self.meta.layout;
        let (unit, size) = (ly.stripe_unit, self.meta.size);
        let mut copies: Vec<(u64, ServerId, bool, u64, u64)> = Vec::new();
        for g in run {
            self.obs.inc(Ctr::CleanerGroupsScanned);
            for b in ly.group_blocks(g) {
                let off = b * unit;
                if off >= size {
                    break;
                }
                let len = unit.min(size - off);
                for (mirror, srv) in [(false, ly.home_server(b)), (true, ly.mirror_server(b))] {
                    copies.push((g, srv, mirror, off, len));
                }
            }
        }
        let hdr = self.hdr;
        let batch = copies
            .iter()
            .map(|&(_, srv, mirror, off, len)| (srv, Request::OverflowQuery { hdr, off, len, mirror }))
            .collect();
        let mut dirty: Vec<Dirty> = Vec::new();
        for (&(group, srv, mirror, off, len), resp) in copies.iter().zip(self.h.send_batch(batch)?) {
            let generation = match resp {
                Response::OverflowStatus { live_bytes: 0, .. } => continue,
                Response::OverflowStatus { generation, .. } => generation,
                Response::Err(e) => return Err(e),
                other => {
                    return Err(CsarError::Protocol(format!(
                        "expected OverflowStatus, got {other:?}"
                    )))
                }
            };
            let guard = (srv, mirror, off, len, generation);
            match dirty.last_mut() {
                Some(d) if d.group == group => d.guards.push(guard),
                _ => dirty.push(Dirty { group, guards: vec![guard], granted: None }),
            }
        }
        Ok(dirty)
    }

    /// Steps 2–3: lock the dirty groups, read each contiguous dirty
    /// segment once, and build the write-and-unlock wave. Each grant is
    /// kept in `dirty` as it arrives, so on failure the caller can
    /// release exactly the locks held.
    fn lock_and_read(
        &mut self,
        dirty: &mut [Dirty],
        mid_rewrite: &mut dyn FnMut(u64),
    ) -> Result<Vec<(ServerId, Request)>, CsarError> {
        let ly = self.meta.layout;
        let (unit, size, hdr) = (ly.stripe_unit, self.meta.size, self.hdr);
        // §5.1: lowest group first, each lock issued only after the
        // previous grant — the protocol's only deadlock defence.
        debug_assert!(dirty.windows(2).all(|w| w[0].group < w[1].group));
        for d in dirty.iter_mut() {
            let lock = Request::ParityReadLock { hdr, group: d.group, intra: 0, len: unit };
            d.granted = Some(self.h.send_one(ly.parity_server(d.group), lock)?.into_payload()?);
        }
        let mut per_server: BTreeMap<ServerId, Vec<(Span, Payload)>> = BTreeMap::new();
        let mut unlocks = Vec::with_capacity(dirty.len());
        for seg in dirty.chunk_by(|a, b| a.group + 1 == b.group) {
            let seg_off = ly.group_byte_range(seg[0].group).0;
            let (last_off, width) = ly.group_byte_range(seg[seg.len() - 1].group);
            let latest = self.file.read_payload(seg_off, (last_off + width).min(size) - seg_off)?;
            for d in seg {
                mid_rewrite(d.group);
                let (go, glen) = ly.group_byte_range(d.group);
                let spans = ly.spans(go, glen.min(size - go));
                // Fresh parity over the zero-extended group (a tail
                // group's missing bytes read as zeros, so folding only
                // the live spans is exact).
                let parity = if latest.is_data() {
                    self.acc.reset_to(unit as usize);
                    for s in &spans {
                        let mut off = (s.logical_off % unit) as usize;
                        for c in latest.slice(s.logical_off - seg_off, s.len).chunks() {
                            self.acc.fold_at(off, c);
                            off += c.len();
                        }
                    }
                    Payload::from_vec(self.acc.current().to_vec())
                } else {
                    Payload::Phantom(unit)
                };
                for s in spans {
                    per_server
                        .entry(ly.home_server(ly.block_of(s.logical_off)))
                        .or_default()
                        .push((s, latest.slice(s.logical_off - seg_off, s.len)));
                }
                unlocks.push((
                    ly.parity_server(d.group),
                    Request::ParityWriteUnlock { hdr, group: d.group, intra: 0, payload: parity },
                ));
            }
        }
        Ok(per_server
            .into_iter()
            .map(|(srv, spans)| {
                (
                    srv,
                    Request::WriteData {
                        hdr,
                        spans,
                        // Invalidation is the separate,
                        // generation-guarded reclaim wave.
                        invalidate_primary: false,
                        invalidate_mirror_spans: vec![],
                    },
                )
            })
            .chain(unlocks)
            .collect())
    }

    /// Release every lock still held in `dirty` with the parity its
    /// grant returned. Nothing of the run has been written yet, so that
    /// parity still matches the in-place data. Best effort: the caller
    /// is already returning the error that brought it here.
    fn release(&self, dirty: &mut [Dirty]) {
        let (ly, hdr) = (self.meta.layout, self.hdr);
        let unlocks: Vec<(ServerId, Request)> = dirty
            .iter_mut()
            .filter_map(|d| {
                let payload = d.granted.take()?;
                Some((
                    ly.parity_server(d.group),
                    Request::ParityWriteUnlock { hdr, group: d.group, intra: 0, payload },
                ))
            })
            .collect();
        if !unlocks.is_empty() {
            let _ = self.h.send_batch(unlocks);
        }
    }
}
