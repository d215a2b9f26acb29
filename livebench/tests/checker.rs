//! The benchmark's own checks: its correctness checker catches a
//! corrupted block, and every workload reports every metric that
//! `BENCHMARK.json` names, with the unit it names.
//!
//! Run with `cargo test --release --manifest-path livebench/Cargo.toml`.

use csar_core::proto::{ReqHeader, Request, Response};
use csar_core::Span;
use csar_livebench::content::{verify_file, Pattern, UnitShadow};
use csar_livebench::live::{spawn, STRIPE_UNIT};
use csar_livebench::raid5::{prefill, Raid5Spec};
use csar_livebench::{run, Options, Scale, Workload, END_TO_END, PER_LAYER, TAILS};
use csar_store::{Json, Payload};

#[test]
fn corrupted_block_fails_read_verify_and_scrub() {
    let pattern = Pattern::new(3);
    let spec = Raid5Spec {
        file_bytes: 1 << 20,
        op_bytes: 4 << 10,
    };
    let shadow = UnitShadow::new(&pattern, spec.op_bytes, spec.units());
    let cluster = spawn();
    let file = prefill(&cluster, &spec, &shadow).expect("prefill");
    assert_eq!(
        verify_file(&file, spec.file_bytes, &shadow),
        (1, 0),
        "clean file must verify"
    );
    assert!(
        cluster.scrub().expect("scrub").is_clean(),
        "clean file must scrub clean"
    );

    // Overwrite one 4 KiB unit in place on its home server, bypassing
    // the parity update a client write would make.
    let unit = 5;
    let off = unit * spec.op_bytes;
    let meta = file.meta();
    let garbage: Vec<u8> = shadow.current(unit).iter().map(|b| !b).collect();
    let req = Request::WriteData {
        hdr: ReqHeader::new(meta.fh, meta.layout, meta.scheme),
        spans: vec![(
            Span {
                logical_off: off,
                len: spec.op_bytes,
            },
            Payload::from_vec(garbage),
        )],
        invalidate_primary: false,
        invalidate_mirror_spans: vec![],
    };
    let home = meta.layout.home_server(off / STRIPE_UNIT);
    let resp = cluster.client().send_raw(home, req).expect("raw write");
    assert!(
        matches!(resp, Response::Done { .. }),
        "raw write refused: {resp:?}"
    );

    let (attempted, failed) = verify_file(&file, spec.file_bytes, &shadow);
    assert_eq!(
        (attempted, failed),
        (1, 1),
        "read-verify must flag the corrupted unit"
    );
    let report = cluster.scrub().expect("scrub");
    assert_eq!(
        report.bad_groups.len(),
        1,
        "scrub must flag exactly the corrupted group: {report:?}"
    );
    cluster.shutdown();
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let doc = Json::parse(&text).expect("parse BENCHMARK.json");
    doc.get(list)
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).as_str().expect("string field").to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

#[test]
fn catalogs_match_benchmark_json() {
    let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
        c.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), own(END_TO_END));
    assert_eq!(declared("per_layer"), own(PER_LAYER));
}

fn smoke(workload: Workload) {
    for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
        let out = run(&Options {
            workload,
            seed: 7,
            seconds: 1.0,
            trace,
            scale: Scale::TINY,
        });
        assert!(
            out.correct,
            "{} trace={trace} failed: {:?}",
            workload.name(),
            out.notes
        );
        assert!(out.attempted > 0 && out.failed == 0);
        let got: Vec<(String, String)> = out
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(got, declared(list), "{} trace={trace}", workload.name());
        assert!(out.metrics.iter().all(|m| m.value.is_finite()));
        if !trace {
            assert!(
                out.metrics.iter().all(|m| m.value > 0.0),
                "zero end-to-end metric: {:?}",
                out.metrics
            );
            for &(name, unit) in TAILS {
                assert!(
                    out.info.iter().any(|m| m.name == name
                        && m.unit == unit
                        && m.value > 0.0
                        && m.samples.is_some()),
                    "{} does not print {name}: {:?}",
                    workload.name(),
                    out.info
                );
            }
        }
    }
}

#[test]
fn small_rmw_reports_every_metric() {
    smoke(Workload::SmallRmw);
}

#[test]
fn stripe_stream_reports_every_metric() {
    smoke(Workload::StripeStream);
}

#[test]
fn hybrid_checkpoint_reports_every_metric() {
    smoke(Workload::HybridCheckpoint);
}
