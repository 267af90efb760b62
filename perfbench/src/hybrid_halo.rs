//! `hybrid_halo`: `miniapps::halo` with two ranks of one thread each and
//! 100 steps over 1024 cells, traces kept in memory. Every step pays rmpi
//! receive-order recording, rank barriers and an `ompr` region; each
//! rank's thread gate is uncontended.
//!
//! `miniapps::halo` builds and finishes its sessions itself, so this
//! workload sees one span per record and per replay; its per-layer
//! readings come from the traces it returns.

use crate::stats::Series;
use crate::workload::{max_share, path_gap, secs, trace_counters, Pair, Workload, REPLAY_TIMEOUT};
use miniapps::halo::{self, HybridConfig, HybridTraces};
use reomp_core::{MemStore, Scheme, TraceStore, Verifier};
use rmpi::{MpiTrace, MpiVerifier};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Receive-order domains per rank; the thread sessions run the matching
/// plan, so rank barriers stamp cross-domain edges.
const MPI_DOMAINS: u32 = 2;

/// Cells per rank and steps. Every step spawns a parallel region on each
/// rank and blocks on several receives and a barrier, and how long those
/// wake-ups take depends on the host's scheduler. With 64 cells × 400
/// steps they were most of an operation, and run medians on a shared
/// 2-vCPU host spread by up to a third between runs of the same code;
/// 1024 × 100 leaves them a tenth of record time or less and holds the
/// spread to that of the other workloads.
const CELLS: usize = 1024;
const STEPS: u64 = 100;

pub struct HybridHalo {
    cfg: HybridConfig,
    tmp: PathBuf,
    ops: u64,
}

impl HybridHalo {
    /// Inputs from `seed` (slab values and work-message payloads); the
    /// rmpi trace is sized on disk under `tmp`.
    pub fn new(seed: u64, tmp: PathBuf) -> HybridHalo {
        HybridHalo {
            cfg: HybridConfig {
                cells: CELLS,
                steps: STEPS,
                ranks: 2,
                threads: 1,
                scheme: Scheme::De,
                mpi_domains: MPI_DOMAINS,
                site_groups: 2,
                seed,
                replay_timeout: Some(REPLAY_TIMEOUT),
            },
            tmp,
            ops: 0,
        }
    }

    fn cfg(&self, scheme: Scheme) -> HybridConfig {
        HybridConfig {
            scheme,
            ..self.cfg.clone()
        }
    }
}

/// Encoded size of a hybrid trace: every rank's bundle through the
/// in-memory store plus the rmpi trace in its own directory layout. With
/// `layers`, also time the commit, the load back and the verifiers.
fn persist(traces: &HybridTraces, dir: &Path, layers: Option<&mut Series>) -> Result<u64, String> {
    let t = Instant::now();
    let stores: Vec<MemStore> = traces.omp.iter().map(|_| MemStore::new()).collect();
    let mut bytes = 0;
    let mut chunks = 0;
    for (store, bundle) in stores.iter().zip(&traces.omp) {
        let io = store.save(bundle).map_err(|e| e.to_string())?;
        bytes += io.bytes;
        chunks += io.chunks;
    }
    bytes += traces
        .mpi
        .save_dir(dir)
        .map_err(|e| format!("rmpi save: {e}"))?;
    let commit_s = secs(t);
    let Some(l) = layers else {
        return Ok(bytes);
    };
    l.push("store.commit_s", commit_s);
    l.push("store.bytes", bytes as f64);
    l.push("store.chunks", chunks as f64);

    let t = Instant::now();
    for store in &stores {
        store.load().map_err(|e| e.to_string())?;
    }
    MpiTrace::load_dir(dir).map_err(|e| format!("rmpi load: {e}"))?;
    l.push("store.load_s", secs(t));

    let t = Instant::now();
    let mut reports: Vec<_> = traces
        .omp
        .iter()
        .map(|b| Verifier::new().verify(b))
        .collect();
    reports.push(MpiVerifier::new().verify(&traces.mpi));
    let verify_s = secs(t);
    if let Some(bad) = reports.iter().find(|r| !r.is_clean()) {
        return Err(format!(
            "verifier rejected the trace: {:?}",
            bad.diagnostics
        ));
    }
    let records: u64 =
        traces.omp.iter().map(|b| b.total_records()).sum::<u64>() + traces.mpi.total_events();
    l.push("verify.s", verify_s);
    l.push(
        "verify.ns_per_record",
        verify_s * 1e9 / records.max(1) as f64,
    );
    Ok(bytes)
}

impl Workload for HybridHalo {
    fn native(&mut self) -> Result<f64, String> {
        let t = Instant::now();
        let out = halo::run_hybrid_passthrough(&self.cfg);
        let native_s = secs(t);
        if !out.scalar.is_finite() {
            return Err(format!("native halo energy is not finite: {out:?}"));
        }
        Ok(native_s)
    }

    fn pair(&mut self, scheme: Scheme, mut layers: Option<&mut Series>) -> Result<Pair, String> {
        let cfg = self.cfg(scheme);
        let t = Instant::now();
        let (recorded, traces) = halo::run_hybrid_record(&cfg);
        let record_s = secs(t);

        self.ops += 1;
        let dir = self.tmp.join(format!("halo-{}", self.ops));
        let persisted = persist(&traces, &dir, layers.as_deref_mut());
        std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
        let bytes = persisted?;
        let events: u64 = traces.omp.iter().map(|b| b.total_records()).sum();
        if let Some(l) = layers.as_deref_mut() {
            let bundles: Vec<_> = traces.omp.iter().collect();
            trace_counters(l, &bundles);
            let mut per_domain = Vec::new();
            for b in &traces.omp {
                per_domain.resize(per_domain.len().max(b.domains as usize), 0);
                for d in 0..b.domains {
                    per_domain[d as usize] += b.domain_records(d);
                }
            }
            l.push("gate.max_domain_share", max_share(&per_domain));
            l.push("rmpi.events", traces.mpi.total_events() as f64);
            let edges: usize = traces.omp.iter().map(|b| b.edges.len()).sum();
            l.push("rmpi.cross_domain_edges", edges as f64);
        }

        let t = Instant::now();
        let replayed = halo::run_hybrid_replay(&cfg, traces);
        let replay_s = secs(t);
        if replayed != recorded {
            return Err(format!(
                "replay diverged: recorded {recorded:?}, replayed {replayed:?}"
            ));
        }
        if let Some(l) = layers {
            l.push("session.record_run_s", record_s);
            l.push("replay.run_s", replay_s);
            path_gap(l, (record_s, &[record_s]), (replay_s, &[replay_s]));
        }
        Ok(Pair {
            record_s,
            replay_s,
            bytes,
            events,
        })
    }

    fn configs(&self) -> Vec<(String, String)> {
        vec![
            ("native".into(), "halo::run_hybrid_passthrough".into()),
            (
                "record".into(),
                "halo::run_hybrid_record: per rank Session::record_with(<scheme>, 1, \
                 SessionConfig { plan: Some(<MpiSession::matching_thread_plan>), ..Default }); \
                 MpiSession::record_with(2, MpiSessionConfig::with_domains(2))"
                    .into(),
            ),
            (
                "replay".into(),
                "halo::run_hybrid_replay: per rank Session::replay_with(<bundle>, \
                 SessionConfig { plan, spin.timeout: replay_timeout, ..Default }); \
                 MpiSession::replay(<trace>)"
                    .into(),
            ),
            ("inputs".into(), format!("{:?}", self.cfg)),
        ]
    }
}
