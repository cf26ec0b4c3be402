//! Per-stage probes of the batch staged `Pipeline`, run in every traced
//! run.
//!
//! The batch DAG is not an end-to-end workload: on a shared two-core
//! host its cold and warm run times swing between two speed modes ~40%
//! apart for tens of seconds at a time, so their run-to-run spread is
//! wider than any allowed bound. Its layers are still measured here: a
//! cold run over the small paper world fills a cache, a warm replay of
//! it must execute no stage and match the cold digest (both runs are
//! also timed whole), and each stage's `Stage::run` (on inputs decoded
//! from the cache) and `ArtifactStore::load` + `Stage::decode` replay
//! are timed.

use crate::request::Probe;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{metric, Opts};
use nd_core::stage::stages;
use nd_core::{ArtifactSet, Pipeline, PipelineConfig};
use nd_store::{ArtifactStore, ByteReader, ByteWriter};
use std::path::Path;

/// Times each stage body on inputs decoded from a cold run's cache, and
/// each stage's artifact replay (load + decode).
pub fn probes(opts: &Opts, work: &Path, tracer: &Tracer) -> Probe {
    let mut probe = Probe::default();
    let root = tracer.open("probe.batch", None);
    let rid = Some(root.id());
    let dir = work.join("cache");
    std::fs::remove_dir_all(&dir).ok();
    let config = PipelineConfig::small().with_cache_dir(&dir);
    let pipeline = Pipeline::new(config.clone());
    let (cold, cold_ns) = tracer.time("core.pipeline.cold", rid, || pipeline.run_with_report());
    let (warm, warm_ns) = tracer.time("core.pipeline.warm", rid, || pipeline.run_with_report());
    probe
        .metrics
        .push(metric("core.pipeline.cold_ms", cold_ns as f64 / 1e6, "ms"));
    probe
        .metrics
        .push(metric("core.pipeline.warm_ms", warm_ns as f64 / 1e6, "ms"));
    let report = match (cold, warm) {
        (Ok((cold, report)), Ok((warm, replay))) => {
            probe.tally.check(replay.executed() == 0, || {
                format!("warm batch replay executed {} stages", replay.executed())
            });
            probe
                .tally
                .check(warm.content_digest() == cold.content_digest(), || {
                    "warm batch replay differs from its cold run".into()
                });
            report
        }
        (Err(e), _) | (_, Err(e)) => {
            probe.tally.wrong(format!("pipeline run failed: {e}"));
            root.end();
            return probe;
        }
    };
    let store = ArtifactStore::open(&dir).expect("open the pipeline cache");
    let reps = if opts.quick { 1 } else { 5 };
    let mut inputs = ArtifactSet::new();
    let mut payloads = Vec::new();
    for stage in stages() {
        let fp = report.stage(stage.name()).map_or(0, |s| s.fingerprint);
        let mut times = Vec::new();
        let mut last = None;
        for _ in 0..reps {
            let (value, ns) =
                tracer.time(&format!("core.stage.{}.replay", stage.name()), rid, || {
                    let payload = store.load(stage.name(), fp)?;
                    let value = stage.decode(&mut ByteReader::new(&payload)).ok()?;
                    Some((value, payload))
                });
            times.push(ns as f64 / 1e6);
            last = value;
        }
        probe.metrics.push(metric(
            format!("core.stage.{}_replay_ms", stage.name()),
            median(&times),
            "ms",
        ));
        match last {
            Some((value, payload)) => {
                inputs.insert(stage.name(), value);
                payloads.push(payload);
            }
            None => {
                probe.tally.wrong(format!(
                    "stage {} did not replay from the cache",
                    stage.name()
                ));
                payloads.push(Vec::new());
            }
        }
    }
    for (stage, payload) in stages().iter().zip(&payloads) {
        let (value, ns) = tracer.time(&format!("core.stage.{}", stage.name()), rid, || {
            stage.run(&config, &inputs)
        });
        probe.metrics.push(metric(
            format!("core.stage.{}_ms", stage.name()),
            ns as f64 / 1e6,
            "ms",
        ));
        let same = value.ok().is_some_and(|v| {
            let mut w = ByteWriter::new();
            stage.encode(&v, &mut w).is_ok() && w.as_bytes() == payload.as_slice()
        });
        probe.tally.check(same, || {
            format!(
                "stage {} reran differently from its cached artifact",
                stage.name()
            )
        });
    }
    root.end();
    std::fs::remove_dir_all(&dir).ok();
    probe
}
