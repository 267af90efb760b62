//! The repository benchmark: record and replay wall time of the ST, DC and
//! DE schemes against the uninstrumented run, on three workloads, with a
//! separate traced run for the per-layer breakdown. See `README.md` beside
//! this crate for every workload and metric; `run.py` builds and drives it.
//!
//! ```text
//! perfbench --workload <race_hot|amg_stream|hybrid_halo> --seed <n>
//!           --seconds <n> --trace <0|1> --tmp <dir> [provenance flags]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod amg_stream;
mod hybrid_halo;
mod race_hot;
mod stats;
mod workload;

use stats::{median, quantile, tail, Json, Series};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workload::{secs, Workload};

use reomp_core::Scheme;

/// Times the set-up (input generation, temp dir, warm-up) is repeated;
/// `setup_s` is the median.
const SETUPS: usize = 3;
/// Rounds measured even when `--seconds` runs out first.
const MIN_ROUNDS: usize = 3;
/// Native runs per round: they are short, so a round takes several to
/// match the sample count of the record → replay pairs' longer medians.
const NATIVE_PER_ROUND: usize = 3;
/// Largest share by which the traced blocking-path self times may miss
/// the traced end-to-end time before the accounting check fails.
const PATH_TOLERANCE: f64 = 0.01;

/// Per-layer metrics of the traced run, each reported once per scheme as
/// `<scheme>.<name>`: (name, unit).
const LAYERS: [(&str, &str); 30] = [
    ("gate.events", "count"),
    ("gate.record_ns_p50", "ns"),
    ("gate.record_ns_p99", "ns"),
    ("gate.lock_acquires_per_event", "ratio"),
    ("gate.max_domain_share", "ratio"),
    ("session.record_run_s", "s"),
    ("session.finish_s", "s"),
    ("epoch.shared_access_frac", "ratio"),
    ("epoch.deferred_per_event", "ratio"),
    ("store.commit_s", "s"),
    ("store.chunks", "count"),
    ("store.bytes", "B"),
    ("store.load_s", "s"),
    ("verify.s", "s"),
    ("verify.ns_per_record", "ns"),
    ("replay.setup_s", "s"),
    ("replay.run_s", "s"),
    ("replay.finish_s", "s"),
    ("replay.gate_ns_p50", "ns"),
    ("replay.gate_ns_p99", "ns"),
    ("replay.waits_per_event", "ratio"),
    ("replay.spins_per_wait", "ratio"),
    ("replay.edge_waits", "count"),
    ("rmpi.events", "count"),
    ("rmpi.cross_domain_edges", "count"),
    ("traced.record_s", "s"),
    ("traced.replay_s", "s"),
    ("trace.record_overhead_s", "s"),
    ("trace.replay_overhead_s", "s"),
    ("trace.path_gap_frac", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    tmp: PathBuf,
    provenance: Vec<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kv.insert(key.to_string(), value);
    }
    let mut take = |k: &str| kv.remove(k).ok_or_else(|| format!("missing --{k}"));
    let workload = take("workload")?;
    let seed = take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = take("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    let tmp = PathBuf::from(take("tmp")?);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    // Whatever is left is provenance passed down by run.py.
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        tmp,
        provenance: kv.into_iter().collect(),
    })
}

const WORKLOADS: [&str; 3] = ["race_hot", "amg_stream", "hybrid_halo"];

fn make(name: &str, seed: u64, tmp: PathBuf) -> Box<dyn Workload> {
    match name {
        "race_hot" => Box::new(race_hot::RaceHot::new(seed)),
        "amg_stream" => Box::new(amg_stream::AmgStream::new(seed, tmp)),
        "hybrid_halo" => Box::new(hybrid_halo::HybridHalo::new(seed, tmp)),
        _ => unreachable!("parse_args accepts only WORKLOADS"),
    }
}

/// Attempted and failed operations; every failure is printed to stderr.
#[derive(Default)]
struct Ops {
    attempted: u64,
    failed: u64,
}

impl Ops {
    /// Run one operation, counting a returned error or a panic as failed.
    fn attempt<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        let err = match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(v)) => return Some(v),
            Ok(Err(e)) => e,
            Err(p) => p
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(ToString::to_string))
                .map_or_else(|| "panicked".into(), |m| format!("panicked: {m}")),
        };
        self.failed += 1;
        eprintln!("perfbench: {what} failed: {err}");
        None
    }
}

fn scheme_key(s: Scheme) -> &'static str {
    match s {
        Scheme::St => "st",
        Scheme::Dc => "dc",
        Scheme::De => "de",
    }
}

/// One untraced pair's end-to-end samples.
fn push_pair(e2e: &mut Series, s: Scheme, p: &workload::Pair) {
    let k = scheme_key(s);
    e2e.push(format!("{k}_record_s"), p.record_s);
    e2e.push(format!("{k}_replay_s"), p.replay_s);
    e2e.push(
        format!("{k}_trace_bytes_per_event"),
        p.bytes as f64 / p.events.max(1) as f64,
    );
}

fn end_to_end_names() -> Vec<(String, &'static str)> {
    let mut names = vec![("native_s".to_string(), "s")];
    for s in Scheme::ALL {
        let k = scheme_key(s);
        names.push((format!("{k}_record_s"), "s"));
        names.push((format!("{k}_replay_s"), "s"));
    }
    for s in Scheme::ALL {
        names.push((
            format!("{}_trace_bytes_per_event", scheme_key(s)),
            "B/event",
        ));
    }
    names.push(("setup_s".to_string(), "s"));
    names
}

fn summary(v: &[f64]) -> Json {
    let mut sorted = v.to_vec();
    let mut pairs = vec![
        ("median", Json::Num(median(v))),
        ("q1", Json::Num(quantile(&mut sorted, 0.25))),
        ("q3", Json::Num(quantile(&mut sorted, 0.75))),
        ("min", Json::Num(quantile(&mut sorted, 0.0))),
        ("max", Json::Num(quantile(&mut sorted, 1.0))),
        ("samples", Json::Int(v.len() as u64)),
    ];
    if let Some((p, x)) = tail(v) {
        pairs.push(("tail_percentile", Json::Num(p)));
        pairs.push(("tail", Json::Num(x)));
    }
    Json::obj(pairs)
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut ops = Ops::default();
    let mut e2e = Series::default();

    // Set-up, repeated: inputs from the seed, a fresh temp dir, and one
    // warm-up of every mode.
    let mut wl = None;
    for k in 0..SETUPS {
        let t = Instant::now();
        let dir = args.tmp.join(format!("setup-{k}"));
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("perfbench: creating {}: {e}", dir.display());
            std::process::exit(1);
        }
        let mut w = make(&args.workload, args.seed, dir);
        ops.attempt("warm-up native", || w.native());
        for s in Scheme::ALL {
            ops.attempt(&format!("warm-up {} pair", s.name()), || w.pair(s, None));
        }
        e2e.push("setup_s", secs(t));
        wl = Some(w);
    }
    let mut w = wl.expect("SETUPS > 0");

    // Closed loop: each operation starts when the previous one finished.
    let mut layers: Vec<Series> = Scheme::ALL.iter().map(|_| Series::default()).collect();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || Instant::now() < deadline {
        for _ in 0..NATIVE_PER_ROUND {
            if let Some(x) = ops.attempt("native", || w.native()) {
                e2e.push("native_s", x);
            }
        }
        for (s, l) in Scheme::ALL.into_iter().zip(&mut layers) {
            let what = format!("{} pair", s.name());
            if let Some(p) = ops.attempt(&what, || w.pair(s, None)) {
                push_pair(&mut e2e, s, &p);
            }
            if args.trace {
                ops.attempt(&format!("traced {what}"), || w.pair(s, Some(l)));
            }
        }
        rounds += 1;
    }

    let mut correct = ops.failed == 0;
    let mut metrics = Vec::new();
    let mut report = Vec::new();
    if args.trace {
        for (s, l) in Scheme::ALL.into_iter().zip(&mut layers) {
            let k = scheme_key(s);
            for side in ["record", "replay"] {
                let untraced = median(e2e.get(&format!("{k}_{side}_s")));
                let traced = median(l.get(&format!("traced.{side}_s")));
                l.push(format!("trace.{side}_overhead_s"), traced - untraced);
            }
            let worst_gap = l
                .get("trace.path_gap_frac")
                .iter()
                .copied()
                .fold(0.0, f64::max);
            if worst_gap > PATH_TOLERANCE {
                eprintln!(
                    "perfbench: {k}: blocking-path self times miss the traced end-to-end time \
                     by {:.3}% (tolerance {:.1}%): a layer is missing",
                    worst_gap * 100.0,
                    PATH_TOLERANCE * 100.0
                );
                correct = false;
            }
            for (name, unit) in LAYERS {
                // A layer the workload cannot observe through the public
                // entry points reads 0 (see README.md).
                let v = l.get(name);
                metrics.push((format!("{k}.{name}"), metric(median(v), unit)));
                report.push((format!("{k}.{name}"), summary(v)));
            }
        }
    } else {
        for (name, unit) in end_to_end_names() {
            let v = e2e.get(&name);
            metrics.push((name.clone(), metric(median(v), unit)));
        }
    }
    for (name, v) in &e2e.0 {
        report.push((format!("untraced.{name}"), summary(v)));
    }
    // The paper's Table IX ratios: reported, never gated.
    let native = median(e2e.get("native_s"));
    let mut ratios = Vec::new();
    for s in Scheme::ALL {
        let k = scheme_key(s);
        for side in ["record", "replay"] {
            let x = median(e2e.get(&format!("{k}_{side}_s")));
            ratios.push((format!("{k}_{side}_over_native"), Json::Num(x / native)));
        }
    }

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let mut provenance = vec![
        ("nproc".to_string(), Json::Int(nproc)),
        ("workload".to_string(), Json::str(&args.workload)),
        ("seed".to_string(), Json::Int(args.seed)),
        ("seconds".to_string(), Json::Int(args.seconds)),
        ("trace".to_string(), Json::Bool(args.trace)),
        ("rounds".to_string(), Json::Int(rounds as u64)),
        (
            "debug_assertions".to_string(),
            Json::Bool(cfg!(debug_assertions)),
        ),
    ];
    provenance.extend(
        args.provenance
            .iter()
            .map(|(k, v)| (k.clone(), Json::str(v))),
    );
    let configs = Json::obj(w.configs().into_iter().map(|(k, v)| (k, Json::Str(v))));
    let full = Json::obj([
        ("schema", Json::str("perfbench-report-v1")),
        ("provenance", Json::Obj(provenance)),
        ("session_configs", configs),
        ("samples", Json::Obj(report)),
        ("table_ix_ratios", Json::Obj(ratios)),
    ]);
    println!("report {}", full.render());
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(ops.attempted)),
        ("failed", Json::Int(ops.failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", result.render());
}
