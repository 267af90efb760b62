//! What every workload provides, and the per-layer readings shared by
//! all of them.

use crate::stats::{quantile, Series};
use reomp_core::sync::SpinConfig;
use reomp_core::{EpochHistogram, Scheme, SessionConfig, SessionReport, TraceBundle};
use std::time::{Duration, Instant};

/// Replay watchdog of every session: a replay stuck this long fails its
/// operation instead of hanging the run.
pub const REPLAY_TIMEOUT: Duration = Duration::from_secs(20);

/// One record → replay pair, as the untraced run sees it.
pub struct Pair {
    /// Session creation to record `finish()` returning (store commit
    /// included where the workload streams to a store).
    pub record_s: f64,
    /// Trace at rest to replay `finish()` returning.
    pub replay_s: f64,
    /// Encoded trace bytes.
    pub bytes: u64,
    /// Gated events (trace records).
    pub events: u64,
}

/// A benchmark workload: fixed-size operations, each checked for
/// correctness.
pub trait Workload {
    /// One run under `Session::passthrough`, in seconds.
    fn native(&mut self) -> Result<f64, String>;

    /// One record → replay pair under `scheme`. With `layers`, also record
    /// the per-layer spans and counters (names without the scheme prefix).
    fn pair(&mut self, scheme: Scheme, layers: Option<&mut Series>) -> Result<Pair, String>;

    /// Provenance: every session configuration the workload builds.
    fn configs(&self) -> Vec<(String, String)>;
}

/// The explicit session configuration every workload starts from. It never
/// consults the environment, so a stray `REOMP_*` variable cannot move a
/// number.
pub fn base_config() -> SessionConfig {
    SessionConfig {
        spin: SpinConfig {
            timeout: Some(REPLAY_TIMEOUT),
            ..SpinConfig::default()
        },
        ..SessionConfig::default()
    }
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Ratio that reads 0 rather than NaN on an empty denominator.
pub fn per(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Fail unless a replay report shows a clean, complete replay.
pub fn check_replay(rep: &SessionReport) -> Result<(), String> {
    if let Some(f) = &rep.failure {
        return Err(format!("replay failed: {f}"));
    }
    if rep.fully_consumed != Some(true) {
        return Err(format!(
            "replay did not consume its trace (fully_consumed = {:?})",
            rep.fully_consumed
        ));
    }
    Ok(())
}

/// Largest share of `counts` held by one entry (1 for a single domain).
pub fn max_share(counts: &[u64]) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        1.0
    } else {
        counts.iter().copied().max().unwrap_or(0) as f64 / total as f64
    }
}

/// Per-layer readings of a finished record session.
pub fn record_counters(l: &mut Series, rep: &SessionReport, events: u64) {
    let s = &rep.stats;
    l.push("gate.lock_acquires_per_event", per(s.lock_acquires, events));
    l.push("gate.max_domain_share", max_share(&rep.domain_gates));
    l.push(
        "epoch.deferred_per_event",
        per(s.deferred_finalizations, events),
    );
}

/// Per-layer readings of a finished replay session.
pub fn replay_counters(l: &mut Series, rep: &SessionReport, events: u64) {
    let s = &rep.stats;
    l.push("replay.waits_per_event", per(s.waits, events));
    l.push("replay.spins_per_wait", per(s.spin_iters, s.waits));
    l.push("replay.edge_waits", s.edge_waits as f64);
}

/// Per-layer readings taken from a recorded trace.
pub fn trace_counters(l: &mut Series, bundles: &[&TraceBundle]) {
    let events: u64 = bundles.iter().map(|b| b.total_records()).sum();
    l.push("gate.events", events as f64);
    let (mut shared, mut total) = (0u64, 0u64);
    for b in bundles {
        let h = EpochHistogram::from_bundle(b);
        shared += h.accesses_in_gt1();
        total += h.total_accesses();
    }
    l.push("epoch.shared_access_frac", per(shared, total));
}

/// p50 and p99 of sampled gate spans (nanoseconds) under `prefix`.
pub fn gate_quantiles(l: &mut Series, prefix: &str, mut ns: Vec<f64>) {
    l.push(format!("{prefix}_p50"), quantile(&mut ns, 0.50));
    l.push(format!("{prefix}_p99"), quantile(&mut ns, 0.99));
}

/// Blocking-path accounting of one traced pair: the enclosing record and
/// replay spans, and how far the self times of the consecutive spans along
/// each path fall short of (or exceed) its enclosing span, as a share of it.
pub fn path_gap(l: &mut Series, record: (f64, &[f64]), replay: (f64, &[f64])) {
    let gap = |(total, parts): (f64, &[f64])| ((total - parts.iter().sum::<f64>()) / total).abs();
    l.push("traced.record_s", record.0);
    l.push("traced.replay_s", replay.0);
    l.push("trace.path_gap_frac", gap(record).max(gap(replay)));
}
