//! `race_hot`: the paper's Fig. 8 `data_race` on two benchmark-owned
//! threads. Each iteration is a gated load then a gated store of one shared
//! cell through `ThreadCtx::gate`, with one gate domain and the trace kept
//! in memory. Contended admission, clock/epoch assignment, record append and
//! the replay turnstile do nearly all the work.

use crate::stats::Series;
use crate::workload::{
    base_config, check_replay, gate_quantiles, path_gap, record_counters, replay_counters, secs,
    trace_counters, Pair, Workload,
};
use miniapps::rng::Rng;
use reomp_core::{
    AccessKind, MemStore, ReplayError, Scheme, Session, SiteId, TraceStore, Verifier,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Threads, one per core of the reference host.
const THREADS: u32 = 2;
/// Load + store iterations per thread in one run.
const ITERS: usize = 50_000;
/// Seed-generated increments each thread cycles through.
const INCS: usize = 1024;
/// A traced run times one iteration's two gates in every this many.
const SAMPLE_EVERY: usize = 64;

/// What one run of the racy loop produced; replay must reproduce it.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    /// The cell's final value.
    cell: u64,
    /// Per thread, a digest of every value its loads observed.
    digests: Vec<u64>,
}

pub struct RaceHot {
    init: u64,
    incs: Vec<Vec<u64>>,
    site: SiteId,
}

impl RaceHot {
    /// Inputs from `seed`: the cell's initial value and each thread's
    /// increment sequence.
    pub fn new(seed: u64) -> RaceHot {
        let mut rng = Rng::new(seed ^ 0x7261_6365_5f68_6f74);
        let init = rng.next_u64();
        let incs = (0..THREADS)
            .map(|_| (0..INCS).map(|_| 1 + rng.next_u64() % 1000).collect())
            .collect();
        RaceHot {
            init,
            incs,
            site: SiteId::from_label("perfbench:race_hot:cell"),
        }
    }

    /// Run the racy loop under `session`. With `sample`, also return the
    /// wall time of every sampled gate, in nanoseconds.
    fn run(&self, session: &Arc<Session>, sample: bool) -> Result<(Outcome, Vec<f64>), String> {
        let cell = AtomicU64::new(self.init);
        let site = self.site;
        let joined: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|tid| {
                    let ctx = session.register_thread(tid);
                    let incs = &self.incs[tid as usize];
                    let cell = &cell;
                    s.spawn(move || -> Result<(u64, Vec<f64>), ReplayError> {
                        let mut digest = 0u64;
                        let mut ns = Vec::new();
                        for i in 0..ITERS {
                            let inc = incs[i % INCS];
                            let timed = sample && i % SAMPLE_EVERY == 0;
                            let t = Instant::now();
                            let v = ctx.try_gate(site, AccessKind::Load, || {
                                cell.load(Ordering::Relaxed)
                            })?;
                            if timed {
                                ns.push(t.elapsed().as_nanos() as f64);
                            }
                            let t = Instant::now();
                            ctx.try_gate(site, AccessKind::Store, || {
                                cell.store(v.wrapping_add(inc), Ordering::Relaxed)
                            })?;
                            if timed {
                                ns.push(t.elapsed().as_nanos() as f64);
                            }
                            digest = (digest ^ v).wrapping_mul(0x0100_0000_01b3);
                        }
                        Ok((digest, ns))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        let mut digests = Vec::new();
        let mut ns = Vec::new();
        for r in joined {
            let (d, n) = r
                .map_err(|_| "race_hot thread panicked".to_string())?
                .map_err(|e| format!("gate failed: {e}"))?;
            digests.push(d);
            ns.extend(n);
        }
        let outcome = Outcome {
            cell: cell.load(Ordering::Relaxed),
            digests,
        };
        Ok((outcome, ns))
    }
}

impl Workload for RaceHot {
    fn native(&mut self) -> Result<f64, String> {
        let t = Instant::now();
        let session = Session::passthrough(THREADS);
        self.run(&session, false)?;
        session.finish().map_err(|e| format!("{e:?}"))?;
        Ok(secs(t))
    }

    fn pair(&mut self, scheme: Scheme, mut layers: Option<&mut Series>) -> Result<Pair, String> {
        let traced = layers.is_some();

        let t = Instant::now();
        let session = Session::record_with(scheme, THREADS, base_config());
        let (recorded, ns) = self.run(&session, traced)?;
        let record_run_s = secs(t);
        let t_fin = Instant::now();
        let mut report = session.finish().map_err(|e| format!("{e:?}"))?;
        let record_finish_s = secs(t_fin);
        let record_s = secs(t);
        let bundle = report.bundle.take().ok_or("record produced no bundle")?;
        let events = bundle.total_records();

        // Encoded size through the in-memory store; off the replay path.
        let store = MemStore::new();
        let t_commit = Instant::now();
        let io = store.save(&bundle).map_err(|e| e.to_string())?;
        let commit_s = secs(t_commit);
        if let Some(l) = layers.as_deref_mut() {
            l.push("session.record_run_s", record_run_s);
            l.push("session.finish_s", record_finish_s);
            gate_quantiles(l, "gate.record_ns", ns);
            record_counters(l, &report, events);
            trace_counters(l, &[&bundle]);
            l.push("store.commit_s", commit_s);
            l.push("store.bytes", io.bytes as f64);
            l.push("store.chunks", io.chunks as f64);
            let t = Instant::now();
            store.load().map_err(|e| e.to_string())?;
            l.push("store.load_s", secs(t));
            let t = Instant::now();
            let verdict = Verifier::new().verify(&bundle);
            let verify_s = secs(t);
            if !verdict.is_clean() {
                return Err(format!(
                    "verifier rejected the trace: {:?}",
                    verdict.diagnostics
                ));
            }
            l.push("verify.s", verify_s);
            l.push(
                "verify.ns_per_record",
                verify_s * 1e9 / events.max(1) as f64,
            );
        }

        let t = Instant::now();
        let replay = Session::replay_with(bundle, base_config()).map_err(|e| e.to_string())?;
        let setup_s = secs(t);
        let t_run = Instant::now();
        let (replayed, ns) = self.run(&replay, traced)?;
        let run_s = secs(t_run);
        let t_fin = Instant::now();
        let rep = replay.finish().map_err(|e| format!("{e:?}"))?;
        let finish_s = secs(t_fin);
        let replay_s = secs(t);
        check_replay(&rep)?;
        if replayed != recorded {
            return Err(format!(
                "replay diverged: recorded {recorded:?}, replayed {replayed:?}"
            ));
        }
        if let Some(l) = layers {
            l.push("replay.setup_s", setup_s);
            l.push("replay.run_s", run_s);
            l.push("replay.finish_s", finish_s);
            gate_quantiles(l, "replay.gate_ns", ns);
            replay_counters(l, &rep, events);
            path_gap(
                l,
                (record_s, &[record_run_s, record_finish_s]),
                (replay_s, &[setup_s, run_s, finish_s]),
            );
        }
        Ok(Pair {
            record_s,
            replay_s,
            bytes: io.bytes,
            events,
        })
    }

    fn configs(&self) -> Vec<(String, String)> {
        vec![
            (
                "native".into(),
                format!("Session::passthrough({THREADS})"),
            ),
            (
                "record".into(),
                format!("Session::record_with(<scheme>, {THREADS}, {:?})", base_config()),
            ),
            (
                "replay".into(),
                format!("Session::replay_with(<bundle>, {:?})", base_config()),
            ),
            (
                "inputs".into(),
                format!("threads={THREADS} iters_per_thread={ITERS} incs_per_thread={INCS} sample_every={SAMPLE_EVERY}"),
            ),
        ]
    }
}
