//! The versioned `BENCH_engine.json` envelope behind the `engine_perf`
//! binary. The assembly lives in the library (not the binary) so the
//! test suite can validate the envelope with
//! `scc_obs::validate_artifact_version` — and the envelope itself comes
//! from `scc_obs::artifact`, the same shared plumbing every other
//! sidecar artifact (`BENCH_faults.json`, `BENCH_soak.json`,
//! `BENCH_journeys.json`, `BENCH_audit.json`) is built on.

use scc_obs::artifact::{count, envelope};
use scc_obs::Json;
use scc_sim::handoff::PoolStats;
use scc_sim::SimStats;

/// One timed engine workload.
pub struct EngineSample {
    pub label: String,
    /// Mean wall-clock seconds per repetition.
    pub wall_s: f64,
    pub stats: SimStats,
}

impl EngineSample {
    pub fn events_per_sec(&self) -> f64 {
        self.stats.events as f64 / self.wall_s
    }
}

fn json_sample(s: &EngineSample) -> Json {
    Json::obj()
        .set("label", Json::Str(s.label.clone()))
        .set("wall_s", Json::Num(s.wall_s))
        .set("events", count(s.stats.events))
        .set("events_per_sec", Json::Num(s.events_per_sec().round()))
        .set("heap_pushes", count(s.stats.heap_pushes))
        .set("coalesced_steps", count(s.stats.coalesced_steps))
        .set("handoffs", count(s.stats.handoffs))
        .set("lines_moved", count(s.stats.lines_moved))
}

/// Schema version of `BENCH_engine.json`. Version 2 dropped the
/// thread-pool fields (`workers_retired`, `peak_pooled`, `pool_cap`)
/// when cores became fibers, and counts fiber stacks instead of worker
/// threads.
pub const ENGINE_ARTIFACT_VERSION: i64 = 2;

/// Render the `BENCH_engine.json` document: the shared envelope at
/// [`ENGINE_ARTIFACT_VERSION`], the run configuration, every sample,
/// and the fiber-stack totals.
pub fn engine_artifact(
    quick: bool,
    reps: u32,
    samples: &[EngineSample],
    pool: &PoolStats,
) -> String {
    let total_wall: f64 = samples.iter().map(|s| s.wall_s).sum();
    let total_events: u64 = samples.iter().map(|s| s.stats.events).sum();
    let totals = Json::obj()
        .set("wall_s", Json::Num(total_wall))
        .set("events", count(total_events))
        .set(
            "events_per_sec",
            Json::Num(if total_wall > 0.0 {
                (total_events as f64 / total_wall).round()
            } else {
                0.0
            }),
        )
        .set("stacks_spawned", count(pool.spawned))
        .set("stacks_reused", count(pool.reused));
    let mut doc = envelope("engine_perf")
        .set("version", Json::Int(ENGINE_ARTIFACT_VERSION))
        .set("quick", Json::Bool(quick))
        .set("reps", Json::Int(i64::from(reps)))
        .set("samples", Json::Arr(samples.iter().map(json_sample).collect()))
        .set("totals", totals)
        .render();
    doc.push('\n');
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_obs::validate_artifact_version;

    fn sample_doc() -> String {
        let samples = vec![EngineSample {
            label: "null_p48".into(),
            wall_s: 0.001,
            stats: SimStats { events: 96, ..SimStats::default() },
        }];
        let pool = PoolStats { spawned: 48, reused: 96 };
        engine_artifact(true, 1, &samples, &pool)
    }

    #[test]
    fn engine_artifact_parses_and_carries_the_version() {
        let doc = Json::parse(&sample_doc()).expect("valid JSON");
        assert_eq!(doc.get("version").and_then(Json::as_i64), Some(ENGINE_ARTIFACT_VERSION));
        assert_eq!(doc.get("bench").and_then(Json::as_str), Some("engine_perf"));
        let samples = doc.get("samples").and_then(Json::as_arr).expect("samples");
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].get("events").and_then(Json::as_i64), Some(96));
        let totals = doc.get("totals").expect("totals");
        assert_eq!(totals.get("stacks_spawned").and_then(Json::as_i64), Some(48));
        assert_eq!(totals.get("stacks_reused").and_then(Json::as_i64), Some(96));
        for gone in ["workers_spawned", "workers_retired", "peak_pooled", "pool_cap"] {
            assert!(totals.get(gone).is_none(), "version 2 has no '{gone}'");
        }
    }

    #[test]
    fn stale_or_missing_version_is_rejected() {
        let doc = Json::parse(&sample_doc()).unwrap();
        let stale = doc.clone().set("version", Json::Int(999));
        assert!(validate_artifact_version(&stale).unwrap_err().contains("999"));
        // A pre-version document (the old envelope) must fail loudly.
        let legacy = Json::obj().set("bench", Json::Str("engine_perf".into()));
        assert!(validate_artifact_version(&legacy).unwrap_err().contains("no integer"));
    }
}
