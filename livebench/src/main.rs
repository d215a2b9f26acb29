//! Command line of the live-cluster benchmark.
//!
//! ```text
//! cargo run --release --manifest-path livebench/Cargo.toml -- \
//!     --workload small_rmw --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints the host fingerprint and every metric with its unit and sample
//! count, then, as the last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Writes the same result with the
//! host fingerprint under `livebench/out/` (and, for `--trace 1`, the
//! recorded spans of the latest traced run of the workload). Exits 1 when
//! any op failed, read back wrong, or a scrub was not clean.

use csar_livebench::{run, Metric, Options, Outcome, Scale, Workload};
use csar_store::Json;
use std::path::Path;
use std::process::ExitCode;

fn usage(msg: &str) -> ! {
    eprintln!("livebench: {msg}");
    eprintln!(
        "usage: livebench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Options {
    let mut opts = Options {
        workload: Workload::SmallRmw,
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::FULL,
    };
    let mut workload = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value}"))),
                )
            }
            "--seed" => {
                opts.seed = value
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("bad seed {value}")))
            }
            "--seconds" => {
                opts.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 120.0)
                    .unwrap_or_else(|| usage(&format!("bad seconds {value}")))
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(&format!("bad trace {value}")),
                }
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    opts.workload = workload.unwrap_or_else(|| usage("--workload is required"));
    opts
}

/// `nproc`, the compiler that built this binary, and the source
/// revision when the working directory is a git checkout.
fn host() -> Vec<(&'static str, Json)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("nproc", Json::from(nproc)),
        ("rustc", Json::from(env!("LIVEBENCH_RUSTC_VERSION"))),
        (
            "git_rev",
            Json::from(git_rev().unwrap_or_else(|| "unknown (not a git checkout)".into())),
        ),
    ]
}

fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(name)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(name).map(|r| r.trim().to_string()))
}

fn metric_json(list: &[Metric]) -> Json {
    Json::Obj(
        list.iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::obj([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]),
                )
            })
            .collect(),
    )
}

fn print_table(title: &str, list: &[Metric]) {
    println!("{title}");
    for m in list {
        let n = m.samples.map(|n| format!("  (n={n})")).unwrap_or_default();
        println!("  {:<36} {:>16.4} {:<8}{n}", m.name, m.value, m.unit);
    }
}

fn write_out(opts: &Options, host: &[(&'static str, Json)], out: &Outcome) {
    let dir = Path::new("livebench").join("out");
    let stem = format!(
        "{}-seed{}-trace{}",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace)
    );
    // One span file per workload, overwritten by each traced run.
    let spans = format!("{}-spans.json", opts.workload.name());
    let mut fields = vec![
        ("workload", Json::from(opts.workload.name())),
        ("seed", Json::from(opts.seed)),
        ("seconds", Json::from(opts.seconds)),
        ("correct", Json::from(out.correct)),
        ("attempted", Json::from(out.attempted)),
        ("failed", Json::from(out.failed)),
        ("metrics", metric_json(&out.metrics)),
        ("info", metric_json(&out.info)),
    ];
    fields.extend(host.iter().cloned());
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| {
            std::fs::write(
                dir.join(format!("{stem}.json")),
                Json::obj(fields).to_pretty(),
            )
        })
        .and_then(|()| match &out.trace {
            Some(t) => std::fs::write(dir.join(&spans), t.to_string()),
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!(
            "livebench: could not write results under {}: {e}",
            dir.display()
        );
    }
}

fn main() -> ExitCode {
    let opts = parse_args();
    let host = host();
    let out = run(&opts);
    println!(
        "livebench {} seed {} seconds {} trace {}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    println!("host {}", Json::obj(host.clone()).to_string());
    print_table("metrics", &out.metrics);
    print_table("also measured", &out.info);
    for note in &out.notes {
        println!("failure: {note}");
    }
    write_out(&opts, &host, &out);
    let result = Json::obj([
        ("correct", Json::from(out.correct)),
        ("attempted", Json::from(out.attempted)),
        ("failed", Json::from(out.failed)),
        ("metrics", metric_json(&out.metrics)),
    ]);
    println!("{}", result.to_string());
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
