//! Runs the benchmark's `--smoke --traced` mode (all four workloads and
//! the probe ladder at shrunken sizes) and checks that what it prints is
//! what `BENCHMARK.json` declares.

use std::collections::BTreeMap;
use std::process::Command;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The `"name"` of every object in the array `"section": [...]`, in file
/// order. `BENCHMARK.json` nests no array inside these three.
fn declared(section: &str) -> Vec<String> {
    let open = BENCHMARK_JSON
        .find(&format!("\"{section}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} array"));
    let body = &BENCHMARK_JSON[open..];
    let body = &body[..body.find(']').expect("the array closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("the name closes")].to_string())
        .collect()
}

#[test]
fn smoke_run_prints_exactly_what_benchmark_json_declares() {
    let out = Command::new(env!("CARGO_BIN_EXE_morphling-benchmark"))
        .args(["--seed", "1", "--smoke", "--traced"])
        .output()
        .expect("the benchmark binary starts");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "smoke run failed:\n{text}");

    // (workload, traced) → metric names in print order, with the values.
    let mut printed: BTreeMap<(String, bool), Vec<(String, f64)>> = BTreeMap::new();
    let mut order = Vec::new();
    let mut current = None;
    for line in text.lines() {
        let words: Vec<&str> = line.split(' ').collect();
        match words.as_slice() {
            ["workload", name, rest @ ..] => {
                let traced = rest.contains(&"trace=1");
                if !traced {
                    order.push(name.to_string());
                }
                current = Some((name.to_string(), traced));
                printed.insert((name.to_string(), traced), Vec::new());
            }
            ["metric", name, value, _unit] => {
                let key = current.clone().expect("a metric follows its workload line");
                let value = value.parse().expect("a metric value is a number");
                printed
                    .get_mut(&key)
                    .expect("inserted above")
                    .push((name.to_string(), value));
            }
            _ => {}
        }
    }

    assert_eq!(order, declared("workloads"));
    for workload in &order {
        for (traced, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let names: Vec<&str> = printed[&(workload.clone(), traced)]
                .iter()
                .map(|(name, _)| name.as_str())
                .collect();
            assert_eq!(names, declared(section), "{workload} traced={traced}");
        }
    }

    // The key store must neither thrash nor hold every key, or a change
    // to it has nothing to move.
    let hit_rate = printed[&("serve_closed_tenants_test".to_string(), true)]
        .iter()
        .find(|(name, _)| name == "keystore.hit_rate")
        .expect("declared above")
        .1;
    assert!(
        0.2 < hit_rate && hit_rate < 0.9,
        "keystore.hit_rate = {hit_rate}"
    );
}
