//! `amg_stream`: the `miniapps::amg` proxy on two threads over two gate
//! domains, recorded with `record_streaming_with` and RLE compression into
//! a `DirStore` under the run's temporary directory, then loaded, verified
//! and replayed from disk. A real application mix (many sites, barriers
//! that stamp cross-domain edges) plus the whole persistence pipeline.

use crate::stats::Series;
use crate::workload::{
    base_config, check_replay, path_gap, record_counters, replay_counters, secs, trace_counters,
    Pair, Workload,
};
use miniapps::amg;
use ompr::Runtime;
use reomp_core::{DirStore, Scheme, Session, SessionConfig, TraceStore, Verifier};
use std::path::PathBuf;
use std::time::Instant;

const THREADS: u32 = 2;
const DOMAINS: u32 = 2;
/// Fine-grid unknowns of one run.
const N: usize = 4096;
/// V-cycles of one run.
const CYCLES: u64 = 4;

pub struct AmgStream {
    cfg: amg::Config,
    tmp: PathBuf,
    ops: u64,
}

fn record_config() -> SessionConfig {
    SessionConfig {
        domains: DOMAINS,
        compress: true,
        ..base_config()
    }
}

impl AmgStream {
    /// Inputs from `seed` (the right-hand side); stores live under `tmp`.
    pub fn new(seed: u64, tmp: PathBuf) -> AmgStream {
        AmgStream {
            cfg: amg::Config {
                n: N,
                cycles: CYCLES,
                sweeps: 2,
                omega: 0.6,
                site_groups: 16,
                seed,
            },
            tmp,
            ops: 0,
        }
    }

    /// A fresh store directory for one operation.
    fn op_dir(&mut self) -> PathBuf {
        self.ops += 1;
        self.tmp.join(format!("amg-{}", self.ops))
    }
}

impl Workload for AmgStream {
    fn native(&mut self) -> Result<f64, String> {
        let t = Instant::now();
        let session = Session::passthrough(THREADS);
        let out = amg::run(&Runtime::new(session.clone()), &self.cfg);
        session.finish().map_err(|e| format!("{e:?}"))?;
        let native_s = secs(t);
        if !out.scalar.is_finite() {
            return Err(format!("native AMG residual is not finite: {out:?}"));
        }
        Ok(native_s)
    }

    fn pair(&mut self, scheme: Scheme, layers: Option<&mut Series>) -> Result<Pair, String> {
        let dir = self.op_dir();
        let result = self.pair_in(scheme, layers, DirStore::new(&dir));
        // Every operation removes its own store; a failed removal is a
        // failed operation, never silently ignored.
        std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
        result
    }

    fn configs(&self) -> Vec<(String, String)> {
        vec![
            ("native".into(), format!("Session::passthrough({THREADS})")),
            (
                "record".into(),
                format!(
                    "Session::record_streaming_with(<scheme>, {THREADS}, {:?}, DirStore)",
                    record_config()
                ),
            ),
            (
                "replay".into(),
                format!("Session::replay_with(<loaded bundle>, {:?})", base_config()),
            ),
            ("inputs".into(), format!("{:?}", self.cfg)),
        ]
    }
}

impl AmgStream {
    fn pair_in(
        &self,
        scheme: Scheme,
        layers: Option<&mut Series>,
        store: DirStore,
    ) -> Result<Pair, String> {
        let t = Instant::now();
        let session = Session::record_streaming_with(scheme, THREADS, record_config(), &store)
            .map_err(|e| format!("begin record: {e}"))?;
        let recorded = amg::run(&Runtime::new(session.clone()), &self.cfg);
        let run_s = secs(t);
        let t_fin = Instant::now();
        let report = session.finish().map_err(|e| format!("{e:?}"))?;
        let finish_s = secs(t_fin);
        let record_s = secs(t);
        if let Some(f) = &report.failure {
            return Err(format!("record failed: {f}"));
        }
        let io = report.io.ok_or("streaming record reported no I/O")?;

        let t = Instant::now();
        let (bundle, _) = store.load().map_err(|e| format!("load: {e}"))?;
        let load_s = secs(t);
        let t_verify = Instant::now();
        let verdict = Verifier::new().verify(&bundle);
        let verify_s = secs(t_verify);
        if !verdict.is_clean() {
            return Err(format!(
                "verifier rejected the trace: {:?}",
                verdict.diagnostics
            ));
        }
        let events = bundle.total_records();
        let t_setup = Instant::now();
        let replay = Session::replay_with(bundle, base_config()).map_err(|e| e.to_string())?;
        let setup_s = secs(t_setup);
        let t_run = Instant::now();
        let replayed = amg::run(&Runtime::new(replay.clone()), &self.cfg);
        let replay_run_s = secs(t_run);
        let t_fin = Instant::now();
        let rep = replay.finish().map_err(|e| format!("{e:?}"))?;
        let replay_finish_s = secs(t_fin);
        let replay_s = secs(t);
        check_replay(&rep)?;
        if replayed != recorded {
            return Err(format!(
                "replay diverged: recorded {recorded:?}, replayed {replayed:?}"
            ));
        }

        if let Some(l) = layers {
            record_counters(l, &report, events);
            // The replayed bundle is gone; read the trace counters from the
            // store again, off the timed path.
            let (bundle, _) = store.load().map_err(|e| format!("load: {e}"))?;
            trace_counters(l, &[&bundle]);
            l.push("session.record_run_s", run_s);
            l.push("session.finish_s", finish_s);
            // A streaming session commits its store inside `finish()`.
            l.push("store.commit_s", finish_s);
            l.push("store.bytes", io.bytes as f64);
            l.push("store.chunks", io.chunks as f64);
            l.push("store.load_s", load_s);
            l.push("verify.s", verify_s);
            l.push(
                "verify.ns_per_record",
                verify_s * 1e9 / events.max(1) as f64,
            );
            l.push("replay.setup_s", setup_s);
            l.push("replay.run_s", replay_run_s);
            l.push("replay.finish_s", replay_finish_s);
            replay_counters(l, &rep, events);
            path_gap(
                l,
                (record_s, &[run_s, finish_s]),
                (
                    replay_s,
                    &[load_s, verify_s, setup_s, replay_run_s, replay_finish_s],
                ),
            );
        }
        Ok(Pair {
            record_s,
            replay_s,
            bytes: io.bytes,
            events,
        })
    }
}
