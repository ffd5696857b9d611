//! Fast self-check: every workload at tiny size prints every named
//! metric with a unit, `BENCHMARK.json` names exactly the catalogue,
//! and the correctness gate trips on a wrong reference.

use spoofwatch_perfbench::inputs::Inputs;
use spoofwatch_perfbench::study::{self, Hooks};
use spoofwatch_perfbench::{run, Request, Size, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;

/// A short relative scratch directory per test (shard sockets live
/// under it, and socket paths are length-limited).
fn work_dir(tag: &str) -> PathBuf {
    PathBuf::from(format!(".selfcheck-{tag}"))
}

fn request(workload: &str, trace: bool) -> Request {
    Request {
        workload: workload.to_string(),
        seed: 3,
        seconds: 0.0,
        trace,
        size: Size::Tiny,
        work_dir: work_dir(&format!("{workload}-{}", u8::from(trace))),
    }
}

fn check_every_metric(trace: bool) {
    let catalogue: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    for workload in WORKLOADS {
        let req = request(workload, trace);
        let outcome = run(&req).unwrap_or_else(|e| panic!("{workload}: {e}"));
        assert!(
            !req.work_dir.exists(),
            "{workload}: scratch directory left behind"
        );
        assert!(outcome.attempted >= 1);
        let names: Vec<&str> = outcome.metrics.iter().map(|(n, _, _)| *n).collect();
        let want: Vec<&str> = catalogue.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, want, "{workload}");
        let line = outcome.to_json();
        for (name, unit, value) in &outcome.metrics {
            assert!(!unit.is_empty(), "{workload}: {name} has no unit");
            assert!(value.is_finite(), "{workload}: {name} = {value}");
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": "))
                    && line.contains(&format!("\"unit\": \"{unit}\"")),
                "{workload}: {name} missing from {line}"
            );
            if !trace {
                assert!(*value > 0.0, "{workload}: end-to-end {name} = {value}");
            }
        }
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    check_every_metric(false);
}

#[test]
fn every_workload_prints_every_per_layer_metric() {
    check_every_metric(true);
}

#[test]
fn gate_trips_on_a_wrong_reference() {
    for workload in WORKLOADS {
        let dir = work_dir(&format!("gate-{workload}"));
        let _ = std::fs::remove_dir_all(&dir);
        let inputs = Inputs::generate(workload, 5, Size::Tiny);
        let mut setup = study::setup(workload, &inputs, &dir).expect("setup");
        let pass = study::pass(
            workload,
            &setup,
            &inputs,
            &dir.join("good"),
            &Hooks::default(),
        );
        assert!(
            pass.is_ok(),
            "{workload}: right reference rejected: {:?}",
            pass.err()
        );

        // One flow moved from one class to another for one member.
        let rows = setup
            .reference
            .breakdown
            .per_member
            .values_mut()
            .find(|rows| rows[0].flows > 0)
            .expect("a member with traffic");
        rows[0].flows -= 1;
        rows[1].flows += 1;
        let err = study::pass(
            workload,
            &setup,
            &inputs,
            &dir.join("bad"),
            &Hooks::default(),
        )
        .err()
        .unwrap_or_else(|| panic!("{workload}: wrong reference accepted"));
        assert!(err.contains("correctness gate"), "{workload}: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn benchmark_json_names_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let quoted_after = |key: &str| -> Vec<String> {
        text.match_indices(&format!("\"{key}\": \""))
            .map(|(i, m)| {
                let rest = &text[i + m.len()..];
                rest[..rest.find('"').expect("closing quote")].to_string()
            })
            .collect()
    };
    let want_names: Vec<String> = WORKLOADS
        .iter()
        .copied()
        .chain(END_TO_END.iter().map(|(n, _)| *n))
        .chain(PER_LAYER.iter().map(|(n, _)| *n))
        .map(String::from)
        .collect();
    assert_eq!(quoted_after("name"), want_names);
    let want_units: Vec<String> = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .map(|(_, u)| u.to_string())
        .collect();
    assert_eq!(quoted_after("unit"), want_units);
}
