//! Tests of the §6.7 cleaner daemon and the parity/mirror scrubber.

use csar_cluster::Cluster;
use csar_core::proto::Scheme;
use std::time::Duration;

#[test]
fn clean_pass_migrates_overflow_back_to_raid5_storage() {
    let cluster = Cluster::spawn(4, Default::default());
    let client = cluster.client();
    let unit = 1024u64;
    let group = 3 * unit;
    let f = client.create("dirty", Scheme::Hybrid, unit).unwrap();
    // Full coverage, then scattered partial writes that overflow.
    let body: Vec<u8> = (0..8 * group).map(|i| (i % 249) as u8).collect();
    f.write_at(0, &body).unwrap();
    let mut want = body.clone();
    for i in 0..10u64 {
        let off = (i * 2048 + 37) as usize;
        let patch = vec![i as u8 + 100; 200];
        f.write_at(off as u64, &patch).unwrap();
        want[off..off + 200].copy_from_slice(&patch);
    }
    let before = f.storage_report().unwrap().aggregate();
    assert!(before.overflow > 0, "partial writes must overflow");

    let reclaimed = cluster.clean_pass().unwrap();
    assert!(reclaimed > 0, "the cleaner must reclaim overflow space");
    let after = f.storage_report().unwrap().aggregate();
    assert_eq!(after.overflow + after.overflow_mirror, 0, "long-term storage == RAID5");
    // Contents intact, parity consistent.
    assert_eq!(f.read_at(0, want.len() as u64).unwrap(), want);
    let report = cluster.scrub().unwrap();
    assert!(report.is_clean(), "{report:?}");
    assert!(report.groups_checked > 0);
    cluster.shutdown();
}

#[test]
fn cleaner_daemon_runs_passes_and_stops() {
    let cluster = Cluster::spawn(3, Default::default());
    let client = cluster.client();
    let f = client.create("bg", Scheme::Hybrid, 512).unwrap();
    f.write_at(0, &vec![1u8; 4096]).unwrap();
    f.write_at(100, &[2u8; 50]).unwrap(); // overflow
    let handle = cluster.start_cleaner(Duration::from_millis(5));
    // Wait for at least two passes.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while handle.passes() < 2 {
        assert!(std::time::Instant::now() < deadline, "cleaner made no progress");
        std::thread::sleep(Duration::from_millis(5));
    }
    handle.stop();
    let agg = f.storage_report().unwrap().aggregate();
    assert_eq!(agg.overflow + agg.overflow_mirror, 0);
    // The cluster is still alive after the daemon handle is gone.
    assert_eq!(f.read_at(100, 50).unwrap(), vec![2u8; 50]);
    cluster.shutdown();
}

/// The cleaner must query overflow liveness *per group*, not per file:
/// a file with one overflowed group gets exactly that group rewritten,
/// proven by the `cleaner_groups_rewritten` counter.
#[test]
fn clean_pass_rewrites_only_the_overflowed_group() {
    use csar_obs::Ctr;
    let cluster = Cluster::spawn(4, Default::default());
    cluster.set_metrics_enabled(true);
    let client = cluster.client();
    let unit = 1024u64;
    let group = 3 * unit;
    let f = client.create("one-dirty", Scheme::Hybrid, unit).unwrap();
    let body: Vec<u8> = (0..8 * group).map(|i| (i % 251) as u8).collect();
    f.write_at(0, &body).unwrap();
    // One partial write, entirely inside group 2.
    let off = 2 * group + 100;
    let patch = [0xABu8; 300];
    f.write_at(off, &patch).unwrap();
    let mut want = body;
    want[off as usize..off as usize + 300].copy_from_slice(&patch);

    let reclaimed = cluster.clean_pass().unwrap();
    assert!(reclaimed > 0, "the overflowed group must be reclaimed");
    assert_eq!(
        cluster.obs().counter(Ctr::CleanerGroupsRewritten),
        1,
        "exactly one group overflowed, exactly one may be rewritten"
    );
    assert_eq!(cluster.obs().counter(Ctr::CleanerGroupsScanned), 8, "all groups scanned");
    let agg = f.storage_report().unwrap().aggregate();
    assert_eq!(agg.overflow + agg.overflow_mirror, 0);
    assert_eq!(f.read_at(0, want.len() as u64).unwrap(), want);
    assert!(cluster.scrub().unwrap().is_clean());
    cluster.shutdown();
}

/// Partial writes past the last whole group land in a tail group the
/// cleaner used to skip forever. Tail overflow must converge to zero
/// (the rewrite is clipped to EOF).
#[test]
fn tail_group_overflow_converges_to_zero() {
    let cluster = Cluster::spawn(4, Default::default());
    let client = cluster.client();
    let unit = 1024u64;
    let group = 3 * unit;
    let f = client.create("ragged-tail", Scheme::Hybrid, unit).unwrap();
    f.write_at(0, &vec![9u8; 2 * group as usize]).unwrap();
    // Repeated unaligned tail extensions: every one overflows, and the
    // growing tail group never reaches a group boundary.
    let mut want = vec![9u8; 2 * group as usize];
    for i in 0..5u64 {
        let off = 2 * group + i * 200;
        let patch = vec![(i + 1) as u8; 200];
        f.write_at(off, &patch).unwrap();
        want.extend_from_slice(&patch);
    }
    assert!(f.storage_report().unwrap().aggregate().overflow > 0, "tail writes must overflow");

    // A correct cleaner drains the tail in one pass (nothing is racing
    // it); allow a couple in case of spurious generation deferrals.
    let mut live = u64::MAX;
    for _ in 0..3 {
        cluster.clean_pass().unwrap();
        let agg = f.storage_report().unwrap().aggregate();
        live = agg.overflow + agg.overflow_mirror;
        if live == 0 {
            break;
        }
    }
    assert_eq!(live, 0, "tail-group overflow must be fully reclaimed");
    assert_eq!(f.read_at(0, want.len() as u64).unwrap(), want);
    assert!(cluster.scrub().unwrap().is_clean());
    cluster.shutdown();
}

/// The §6.7 lost-update race: a writer updates a group after the
/// cleaner has read it but before the rewrite lands. The writer's data
/// must survive (its overflow entry outlives the generation-guarded
/// invalidation), parity must stay consistent, and a later pass must
/// still reclaim the deferred entries.
#[test]
fn cleaner_never_loses_a_concurrent_write() {
    use csar_obs::Ctr;
    let cluster = Cluster::spawn(4, Default::default());
    cluster.set_metrics_enabled(true);
    let client = cluster.client();
    let unit = 1024u64;
    let group = 3 * unit;
    let f = client.create("raced", Scheme::Hybrid, unit).unwrap();
    let body: Vec<u8> = (0..4 * group).map(|i| (i % 241) as u8).collect();
    f.write_at(0, &body).unwrap();
    // Overflow group 1 so the cleaner will rewrite it.
    f.write_at(group + 50, &[0x11u8; 100]).unwrap();
    let mut want = body;
    want[group as usize + 50..group as usize + 150].fill(0x11);

    // Interleave: once the cleaner has read group 1's latest contents
    // (but before its rewrite lands), overwrite part of that group.
    let racer = cluster.client();
    let rf = racer.open("raced").unwrap();
    let raced = std::cell::Cell::new(false);
    cluster
        .clean_pass_hooked(&mut |g| {
            if g == 1 && !raced.get() {
                raced.set(true);
                rf.write_at(group + 200, &[0x22u8; 100]).unwrap();
            }
        })
        .unwrap();
    assert!(raced.get(), "the hook must have fired for group 1");
    want[group as usize + 200..group as usize + 300].fill(0x22);

    // The racing write must win over the cleaner's stale rewrite...
    assert_eq!(f.read_at(0, want.len() as u64).unwrap(), want);
    // ...because its overflow entry was spared by the generation guard.
    let agg = f.storage_report().unwrap().aggregate();
    assert!(agg.overflow > 0, "the racer's overflow entry must survive the pass");
    assert!(
        cluster.obs().counter(Ctr::CleanerGroupsDeferred) > 0,
        "the raced group's reclaim must be deferred"
    );
    assert!(cluster.scrub().unwrap().is_clean(), "parity must match the in-place data");

    // An undisturbed later pass drains what the race left behind.
    cluster.clean_pass().unwrap();
    let agg = f.storage_report().unwrap().aggregate();
    assert_eq!(agg.overflow + agg.overflow_mirror, 0);
    assert_eq!(f.read_at(0, want.len() as u64).unwrap(), want);
    assert!(cluster.scrub().unwrap().is_clean());
    cluster.shutdown();
}

/// The cleaner works in runs of consecutive groups. Dirty groups that
/// straddle a run boundary, sit alone after a clean gap, or form a
/// ragged tail clipped to EOF must each be rewritten exactly once.
#[test]
fn clean_pass_runs_cross_boundaries_gaps_and_a_clipped_tail() {
    use csar_obs::Ctr;
    let cluster = Cluster::spawn(4, Default::default());
    cluster.set_metrics_enabled(true);
    let client = cluster.client();
    let unit = 1024u64;
    let group = 3 * unit;
    let f = client.create("runs", Scheme::Hybrid, unit).unwrap();
    // Ten whole groups plus a ragged tail: groups 0..=10.
    let body: Vec<u8> = (0..10 * group + 1000).map(|i| (i % 239) as u8).collect();
    f.write_at(0, &body).unwrap();
    let mut want = body;
    // Dirty groups 2, 3 | 4 (one patch across the boundary between the
    // first two runs), 7 after a clean gap, and tail group 10, whose
    // patch also extends EOF.
    let patches =
        [(2 * group + 10, 100u64), (4 * group - 100, 200), (7 * group + 500, 50), (10 * group + 900, 300)];
    for (i, &(off, len)) in patches.iter().enumerate() {
        let patch = vec![0xC0 + i as u8; len as usize];
        f.write_at(off, &patch).unwrap();
        let end = (off + len) as usize;
        if want.len() < end {
            want.resize(end, 0);
        }
        want[off as usize..end].copy_from_slice(&patch);
    }
    assert!(f.storage_report().unwrap().aggregate().overflow > 0, "patches must overflow");

    let reclaimed = cluster.clean_pass().unwrap();
    assert!(reclaimed > 0);
    let obs = cluster.obs();
    assert_eq!(obs.counter(Ctr::CleanerGroupsScanned), 11, "every group scanned once");
    assert_eq!(obs.counter(Ctr::CleanerGroupsRewritten), 5, "groups 2, 3, 4, 7 and 10");
    assert_eq!(obs.counter(Ctr::CleanerGroupsDeferred), 0, "nothing raced the pass");
    let agg = f.storage_report().unwrap().aggregate();
    assert_eq!(agg.overflow + agg.overflow_mirror, 0);
    assert_eq!(f.read_at(0, want.len() as u64).unwrap(), want);
    assert!(cluster.scrub().unwrap().is_clean());
    cluster.shutdown();
}

/// The lost-update race inside a run: the racer hits the middle group
/// of three dirty neighbours after the run's read. Its write must
/// survive, the group's reclaim must be deferred, and the next pass must
/// drain everything.
#[test]
fn cleaner_never_loses_a_concurrent_write_mid_run() {
    use csar_obs::Ctr;
    let cluster = Cluster::spawn(4, Default::default());
    cluster.set_metrics_enabled(true);
    let client = cluster.client();
    let unit = 1024u64;
    let group = 3 * unit;
    let f = client.create("raced-run", Scheme::Hybrid, unit).unwrap();
    let body: Vec<u8> = (0..6 * group).map(|i| (i % 233) as u8).collect();
    f.write_at(0, &body).unwrap();
    let mut want = body;
    for g in 0..3u64 {
        let off = (g * group + 300) as usize;
        f.write_at(off as u64, &[0x30 + g as u8; 80]).unwrap();
        want[off..off + 80].fill(0x30 + g as u8);
    }

    let racer = cluster.client();
    let rf = racer.open("raced-run").unwrap();
    let raced = std::cell::Cell::new(false);
    cluster
        .clean_pass_hooked(&mut |g| {
            if g == 1 && !raced.get() {
                raced.set(true);
                rf.write_at(group + 1000, &[0x77u8; 120]).unwrap();
            }
        })
        .unwrap();
    assert!(raced.get(), "the hook must have fired for group 1");
    want[group as usize + 1000..group as usize + 1120].fill(0x77);

    assert_eq!(f.read_at(0, want.len() as u64).unwrap(), want);
    assert!(f.storage_report().unwrap().aggregate().overflow > 0, "the racer's entry survives");
    assert!(cluster.obs().counter(Ctr::CleanerGroupsDeferred) > 0, "the raced reclaim is deferred");
    assert!(cluster.scrub().unwrap().is_clean(), "parity must match the in-place data");

    cluster.clean_pass().unwrap();
    let agg = f.storage_report().unwrap().aggregate();
    assert_eq!(agg.overflow + agg.overflow_mirror, 0);
    assert_eq!(f.read_at(0, want.len() as u64).unwrap(), want);
    assert!(cluster.scrub().unwrap().is_clean());
    cluster.shutdown();
}

/// A pass that fails while holding §5.1 parity locks must release them:
/// a data server of group 1 fails mid-rewrite, comes back, and the next
/// pass (with a short reply deadline, so a leaked lock shows as a
/// timeout instead of a hang) must run to completion.
#[test]
fn failed_clean_pass_releases_its_parity_locks() {
    let cluster = Cluster::spawn(4, Default::default());
    let client = cluster.client();
    let unit = 1024u64;
    let group = 3 * unit;
    let f = client.create("leak", Scheme::Hybrid, unit).unwrap();
    let body: Vec<u8> = (0..4 * group).map(|i| (i % 229) as u8).collect();
    f.write_at(0, &body).unwrap();
    f.write_at(group + 50, &[0x5Au8; 100]).unwrap();
    let mut want = body;
    want[group as usize + 50..group as usize + 150].fill(0x5A);

    let ly = f.meta().layout;
    let victim = ly
        .group_blocks(1)
        .map(|b| ly.home_server(b))
        .find(|&s| s != ly.parity_server(1))
        .unwrap();
    let err = cluster
        .clean_pass_hooked(&mut |g| {
            if g == 1 {
                cluster.fail_server(victim);
            }
        })
        .unwrap_err();
    assert!(matches!(err, csar_core::CsarError::ServerDown(s) if s == victim), "{err:?}");

    cluster.restore_server(victim);
    cluster.set_reply_timeout(Duration::from_millis(500));
    cluster.clean_pass().unwrap();
    let agg = f.storage_report().unwrap().aggregate();
    assert_eq!(agg.overflow + agg.overflow_mirror, 0);
    assert_eq!(f.read_at(0, want.len() as u64).unwrap(), want);
    assert!(cluster.scrub().unwrap().is_clean());
    cluster.shutdown();
}

/// An error between the lock grants and the write wave — here a read
/// that loses two servers — must unlock every group the run holds, with
/// the parity the grants returned, so the next pass is not blocked.
#[test]
fn clean_pass_failing_before_its_writes_unlocks_every_held_group() {
    let cluster = Cluster::spawn(4, Default::default());
    let client = cluster.client();
    let unit = 1024u64;
    let group = 3 * unit;
    let f = client.create("unlock", Scheme::Hybrid, unit).unwrap();
    let body: Vec<u8> = (0..4 * group).map(|i| (i % 227) as u8).collect();
    f.write_at(0, &body).unwrap();
    // Groups 0 and 2 are dirty: one run, two segments, two locks.
    let mut want = body;
    for g in [0u64, 2] {
        let off = (g * group + 700) as usize;
        f.write_at(off as u64, &[0x90 + g as u8; 60]).unwrap();
        want[off..off + 60].fill(0x90 + g as u8);
    }
    // Once group 0 is read, fail two servers that hold neither lock, so
    // group 2's read fails while both locks are held.
    let ly = f.meta().layout;
    let lock_holders = [ly.parity_server(0), ly.parity_server(2)];
    let victims: Vec<u32> = (0..cluster.servers()).filter(|s| !lock_holders.contains(s)).take(2).collect();
    assert_eq!(victims.len(), 2);
    let err = cluster
        .clean_pass_hooked(&mut |g| {
            if g == 0 {
                victims.iter().for_each(|&s| cluster.fail_server(s));
            }
        })
        .unwrap_err();
    assert!(matches!(err, csar_core::CsarError::ServerDown(_)), "{err:?}");

    victims.iter().for_each(|&s| cluster.restore_server(s));
    cluster.set_reply_timeout(Duration::from_millis(500));
    cluster.clean_pass().unwrap();
    let agg = f.storage_report().unwrap().aggregate();
    assert_eq!(agg.overflow + agg.overflow_mirror, 0);
    assert_eq!(f.read_at(0, want.len() as u64).unwrap(), want);
    assert!(cluster.scrub().unwrap().is_clean());
    cluster.shutdown();
}

#[test]
fn scrub_detects_corruption() {
    let cluster = Cluster::spawn(4, Default::default());
    let client = cluster.client();
    // A RAID5 file and a RAID1 file, both healthy.
    let f5 = client.create("r5", Scheme::Raid5, 512).unwrap();
    f5.write_at(0, &vec![7u8; 6000]).unwrap();
    let f1 = client.create("r1", Scheme::Raid1, 512).unwrap();
    f1.write_at(0, &vec![8u8; 6000]).unwrap();
    let clean = cluster.scrub().unwrap();
    assert!(clean.is_clean());
    assert!(clean.groups_checked > 0 && clean.mirrors_checked > 0);

    // Corrupt one parity block and one mirror block behind the
    // cluster's back (bit rot).
    let meta5 = f5.meta();
    cluster.with_server(meta5.layout.parity_server(0), |_s| {});
    // `with_server` gives &IoServer; corruption needs a write path — use
    // the raw protocol via a client handle targeting the parity stream.
    // Easiest honest corruption: write different data through WriteParity.
    use csar_core::proto::{ParityPart, ReqHeader, Request};
    use csar_store::Payload;
    let hdr5 = ReqHeader::new(meta5.fh, meta5.layout, meta5.scheme);
    let rogue = cluster.client();
    rogue
        .send_raw(
            meta5.layout.parity_server(0),
            Request::WriteParity {
                hdr: hdr5,
                parts: vec![ParityPart { group: 0, intra: 0, payload: Payload::from_vec(vec![0xFF; 512]) }],
                invalidate_mirror_spans: vec![],
            },
        )
        .unwrap();
    let meta1 = f1.meta();
    let hdr1 = ReqHeader::new(meta1.fh, meta1.layout, meta1.scheme);
    rogue
        .send_raw(
            meta1.layout.mirror_server(3),
            Request::WriteMirror {
                hdr: hdr1,
                spans: vec![(
                    csar_core::Span { logical_off: 3 * 512, len: 512 },
                    Payload::from_vec(vec![0xEE; 512]),
                )],
            },
        )
        .unwrap();

    let dirty = cluster.scrub().unwrap();
    assert_eq!(dirty.bad_groups, vec![("r5".to_string(), 0)]);
    assert_eq!(dirty.bad_mirrors, vec![("r1".to_string(), 3)]);
    cluster.shutdown();
}
