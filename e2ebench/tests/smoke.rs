//! Smoke test at a short length (`--seconds 1`, so each run does its two
//! minimum passes). It checks that:
//! - every metric `BENCHMARK.json` names is printed, with its unit, for
//!   every workload in both run modes;
//! - the passes of a run agree (counts repeat), and the run is correct;
//! - `sim_digest` is stable for one seed and differs for another.

use std::path::Path;
use std::process::Command;

const WORKLOADS: &[&str] = &["paper-alg1", "paper-pdhg-analog", "serve-mixed"];

/// `(name, unit)` of every metric listed under `section` in
/// `BENCHMARK.json` (one metric object per line there).
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let mut current = "";
    let mut out = Vec::new();
    for line in text.lines() {
        for s in ["\"workloads\"", "\"end_to_end\"", "\"per_layer\""] {
            if line.contains(s) {
                current = s;
            }
        }
        if current.trim_matches('"') != section || !line.contains("\"unit\"") {
            continue;
        }
        let field = |key: &str| {
            let rest = &line[line.find(&format!("\"{key}\"")).expect(key) + key.len() + 2..];
            let start = rest.find('"').expect("value") + 1;
            let len = rest[start..].find('"').expect("closing quote");
            rest[start..start + len].to_string()
        };
        out.push((field("name"), field("unit")));
    }
    assert!(!out.is_empty(), "no metrics under {section}");
    out
}

struct Run {
    json: String,
    digest: String,
    passes: usize,
}

fn run(workload: &str, seed: u64, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} seed {seed} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = stdout.lines().last().expect("a result line").to_string();
    let digest_line = stdout
        .lines()
        .find(|l| l.contains("sim_digest"))
        .expect("a sim_digest line");
    let mut words = digest_line.split_whitespace().skip(1);
    let digest = words.next().expect("digest").to_string();
    let passes: usize = words
        .next()
        .and_then(|w| w.trim_start_matches('(').parse().ok())
        .expect("pass count");
    assert!(
        digest_line.ends_with("passes agree)"),
        "passes disagree: {digest_line}"
    );
    Run {
        json,
        digest,
        passes,
    }
}

fn check_metrics(r: &Run, section: &str) {
    assert!(r.json.starts_with("{\"correct\": true, "), "{}", r.json);
    assert!(r.passes >= 2, "only {} passes", r.passes);
    for (name, unit) in declared(section) {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = r
            .json
            .find(&key)
            .unwrap_or_else(|| panic!("{name} missing: {}", r.json));
        let rest = &r.json[at + key.len()..];
        let (value, tail) = rest.split_once(',').expect("value");
        value
            .trim()
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("{name}: {value} is not a number"));
        assert!(
            tail.trim_start()
                .starts_with(&format!("\"unit\": \"{unit}\"}}")),
            "{name}: unit is not {unit}"
        );
    }
}

#[test]
fn end_to_end_metrics_are_printed_for_every_workload() {
    for w in WORKLOADS {
        check_metrics(&run(w, 1, false), "end_to_end");
    }
}

#[test]
fn per_layer_metrics_are_printed_for_every_workload() {
    for w in WORKLOADS {
        check_metrics(&run(w, 2, true), "per_layer");
    }
}

#[test]
fn sim_digest_is_stable_for_a_seed_and_differs_across_seeds() {
    for w in ["serve-mixed", "paper-alg1"] {
        let a = run(w, 3, false);
        let b = run(w, 3, false);
        let c = run(w, 4, false);
        assert_eq!(a.digest, b.digest, "{w}: same seed, different digest");
        assert_ne!(a.digest, c.digest, "{w}: different seeds, same digest");
    }
}
