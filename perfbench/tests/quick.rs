//! Quick mode end to end: every workload, timed and traced, on tiny
//! inputs. Each run must pass its own correctness checks and emit
//! exactly the metrics `BENCHMARK.json` names, with their units.

use serde_json::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

fn repo_file(name: &str) -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(name);
    let text = std::fs::read_to_string(&path).expect("read a benchmark definition file");
    serde_json::from_str(&text).expect("definition file is JSON")
}

/// `name -> unit` for one metric list of `BENCHMARK.json`.
fn declared(bench: &Value, list: &str) -> BTreeMap<String, String> {
    bench[list]
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            let name = m["name"].as_str().expect("metric name").to_string();
            (name, m["unit"].as_str().expect("metric unit").to_string())
        })
        .collect()
}

fn run(workload: &str, trace: u8) -> (Value, String) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("quick");
    std::fs::create_dir_all(&dir).expect("create the test run directory");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
        ])
        .arg(trace.to_string())
        .arg("--quick")
        .current_dir(&dir)
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = serde_json::from_str(last).expect("the last line is JSON");
    (result, String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn quick_mode_emits_every_declared_metric_and_passes_its_checks() {
    let bench = repo_file("../BENCHMARK.json");
    let map = repo_file("metric_map.json");
    let e2e = declared(&bench, "end_to_end");
    let layers = declared(&bench, "per_layer");
    let workloads: Vec<&str> = bench["workloads"]
        .as_array()
        .expect("workloads")
        .iter()
        .filter_map(|w| w["name"].as_str())
        .collect();
    for name in layers.keys() {
        let moves = map["per_layer"][name.as_str()]["moves"].as_array();
        assert!(moves.is_some(), "{name} has no entry in metric_map.json");
        for m in moves.into_iter().flatten() {
            let metric = m["metric"].as_str().unwrap_or_default();
            let workload = m["workload"].as_str().unwrap_or_default();
            assert!(
                e2e.contains_key(metric) && workloads.contains(&workload),
                "{name} moves {m}"
            );
        }
    }
    for w in bench["workloads"].as_array().expect("workloads") {
        let workload = w["name"].as_str().expect("workload name");
        for (trace, want) in [(0u8, &e2e), (1, &layers)] {
            let (result, stderr) = run(workload, trace);
            let keys: Vec<&String> = result.as_object().expect("result object").keys().collect();
            assert_eq!(
                keys,
                ["attempted", "correct", "failed", "metrics"],
                "{workload}"
            );
            assert_eq!(
                result["correct"].as_bool(),
                Some(true),
                "{workload} trace {trace}: {stderr}"
            );
            assert!(result["attempted"].as_u64().is_some_and(|n| n >= 1));
            assert_eq!(
                result["failed"].as_u64(),
                Some(0),
                "{workload} trace {trace}"
            );
            let got: BTreeMap<String, String> = result["metrics"]
                .as_object()
                .expect("metrics object")
                .iter()
                .map(|(k, v)| {
                    assert!(
                        v["value"].as_f64().is_some(),
                        "{workload}: {k} has no number"
                    );
                    (
                        k.clone(),
                        v["unit"].as_str().unwrap_or_default().to_string(),
                    )
                })
                .collect();
            assert_eq!(&got, want, "{workload} trace {trace}");
        }
    }
}
