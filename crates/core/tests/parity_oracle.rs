//! The in-place parity folds checked against a flat model of the file.
//!
//! Three writes — a whole-group body, an unaligned overwrite with RMW
//! splices on both ends, and a sub-unit write — run through the write
//! driver against real `IoServer`s, and a `Vec<u8>` model of the file
//! takes the same writes. Every plain read and every degraded read
//! around each server must equal the model (degraded reads fold parity
//! back through the survivors, so a wrong parity block shows), and
//! under RAID5 every group's parity block must be the XOR of the
//! model's data blocks.

use csar_core::client::{OpDriver, ReadDriver, WriteDriver};
use csar_core::manager::FileMeta;
use csar_core::proto::{ReqHeader, Request, Response, Scheme, ServerId};
use csar_core::recovery::parity_consistent;
use csar_core::server::{Effect as SrvEffect, IoServer, ServerConfig};
use csar_core::{CsarError, Layout};
use csar_store::{Payload, SplitMix64};

struct Cluster {
    servers: Vec<IoServer>,
    next_req: u64,
}

impl Cluster {
    fn new(n: u32) -> Self {
        Self {
            servers: (0..n).map(|i| IoServer::new(i, ServerConfig::default())).collect(),
            next_req: 0,
        }
    }

    fn exchange(&mut self, srv: ServerId, req: Request) -> Response {
        let id = self.next_req;
        self.next_req += 1;
        let mut effects = self.servers[srv as usize].handle(0, id, req);
        assert_eq!(effects.len(), 1, "single-client requests reply immediately");
        let SrvEffect::Reply { resp, .. } = effects.pop().unwrap();
        resp
    }

    fn run<D: OpDriver + ?Sized>(&mut self, d: &mut D) {
        csar_core::client::run_driver(d, |s, r| Ok(self.exchange(s, r))).unwrap();
    }

    fn write(&mut self, meta: &FileMeta, off: u64, data: &[u8]) {
        let mut d = WriteDriver::new(meta, off, Payload::from_vec(data.to_vec()));
        self.run(&mut d);
    }

    fn read(&mut self, meta: &FileMeta, off: u64, len: u64, failed: Option<ServerId>) -> Vec<u8> {
        let mut d = ReadDriver::new(meta, off, len, failed);
        let out = csar_core::client::run_driver(&mut d, |s, r| {
            if Some(s) == failed {
                return Ok::<_, CsarError>(Response::Err(CsarError::ServerDown(s)));
            }
            Ok(self.exchange(s, r))
        })
        .unwrap();
        out.into_payload().as_bytes().unwrap().to_vec()
    }

    fn parity_block(&mut self, meta: &FileMeta, group: u64) -> Vec<u8> {
        let hdr = ReqHeader::new(meta.fh, meta.layout, meta.scheme);
        let len = meta.layout.stripe_unit;
        let srv = meta.layout.parity_server(group);
        let resp = self.exchange(srv, Request::ParityRead { hdr, group, intra: 0, len });
        resp.into_payload().unwrap().as_bytes().unwrap().to_vec()
    }
}

fn meta(scheme: Scheme, servers: u32, unit: u64) -> FileMeta {
    FileMeta { fh: 1, name: "ab".into(), scheme, layout: Layout::new(servers, unit), size: 1 << 20 }
}

/// Run the write workload against real servers and a flat model, then
/// check plain reads, degraded reads around every server and (RAID5)
/// every group's parity block against the model.
fn assert_matches_model(scheme: Scheme) {
    let servers = 4u32;
    let unit = 4096u64;
    let m = meta(scheme, servers, unit);
    let group = (servers as u64 - 1) * unit;
    let mut rng = SplitMix64::new(0xAB_1DE_17);
    let total = 4 * group;
    let mut gen = |len: u64| {
        let mut v = vec![0u8; len as usize];
        rng.fill_bytes(&mut v);
        v
    };
    // (off, len): fresh whole-group body, then an unaligned overwrite
    // (RMW splice head/tail around full groups), then a sub-unit write.
    let writes: Vec<(u64, Vec<u8>)> = vec![
        (0, gen(total)),
        (unit / 2, gen(2 * group + unit)),
        (group + 17, gen(97)),
    ];

    let mut cluster = Cluster::new(servers);
    let mut model = vec![0u8; total as usize];
    for (off, data) in &writes {
        cluster.write(&m, *off, data);
        model[*off as usize..*off as usize + data.len()].copy_from_slice(data);
    }

    assert!(cluster.read(&m, 0, total, None) == model, "{scheme:?}: plain read differs from the model");
    for failed in 0..servers {
        assert!(
            cluster.read(&m, 0, total, Some(failed)) == model,
            "{scheme:?}: degraded read around server {failed} differs from the model"
        );
    }
    if scheme == Scheme::Raid5 {
        for g in 0..total / group {
            let blocks: Vec<&[u8]> =
                model[(g * group) as usize..((g + 1) * group) as usize].chunks(unit as usize).collect();
            assert!(
                parity_consistent(&blocks, &cluster.parity_block(&m, g)),
                "group {g}: parity block is not the XOR of the model's data blocks"
            );
        }
    }
}

#[test]
fn raid5_writes_match_flat_model() {
    assert_matches_model(Scheme::Raid5);
}

#[test]
fn hybrid_writes_match_flat_model() {
    assert_matches_model(Scheme::Hybrid);
}
