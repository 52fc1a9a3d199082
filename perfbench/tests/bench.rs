//! The benchmark's own tests: every workload at tiny scale, through the
//! binary and through the library.

use std::process::Command;

use tvq_perfbench::{run, Outcome, RunArgs, Scale, Workload};

const WORKLOADS: [&str; 3] = ["crowd", "gateway", "fleet"];

/// Metric names and units `BENCHMARK.json` lists, in its order.
fn listed_metrics(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split('{')
        .skip(1)
        .map(|entry| {
            let value = |key: &str| {
                let at = entry.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
                let rest = &entry[at..];
                let open = rest.find('"').expect("string value") + 1;
                let close = rest[open..].find('"').expect("closed string") + open;
                rest[open..close].to_string()
            };
            (value("name"), value("unit"))
        })
        .collect()
}

fn run_binary(workload: &str, trace: u8, seed: u64) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "0",
            "--trace",
            &trace.to_string(),
            "--scale",
            "tiny",
        ])
        .output()
        .expect("the benchmark binary runs");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

#[test]
fn tiny_runs_print_every_listed_metric_with_unit_and_finite_value() {
    for (trace, section) in [(0u8, "end_to_end"), (1, "per_layer")] {
        let metrics = listed_metrics(section);
        assert!(!metrics.is_empty());
        for workload in WORKLOADS {
            let (ok, stdout) = run_binary(workload, trace, 11);
            assert!(ok, "{workload} trace={trace} failed:\n{stdout}");
            let last = stdout.lines().last().expect("a result line");
            assert!(last.starts_with("{\"correct\": true"), "{last}");
            for (name, unit) in &metrics {
                let line = stdout
                    .lines()
                    .find(|l| l.starts_with(&format!("{name} = ")))
                    .unwrap_or_else(|| panic!("{workload}: no {name} line:\n{stdout}"));
                let mut parts = line.split_whitespace().skip(2);
                let value: f64 = parts.next().unwrap().parse().unwrap();
                assert!(value.is_finite(), "{workload}: {line}");
                assert_eq!(parts.next(), Some(unit.as_str()), "{workload}: {line}");
                assert!(
                    last.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{workload}: {name} missing from {last}"
                );
            }
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nope", "--seed", "1"])
        .output()
        .expect("the benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}

fn tiny(workload: Workload, seed: u64, trace: bool, corrupt_reference: bool) -> Outcome {
    run(&RunArgs {
        workload,
        seed,
        seconds: 0.0,
        trace,
        scale: Scale::Tiny,
        corrupt_reference,
    })
    .expect("the run completes")
}

fn traced(workload: Workload, seed: u64) -> Outcome {
    let outcome = tiny(workload, seed, true, false);
    assert!(outcome.correct(), "{:?}", outcome.problems);
    outcome
}

/// The work counters later changes may cite repeat exactly for one seed.
#[test]
fn work_counters_repeat_exactly_for_a_seed() {
    const COUNTERS: [&str; 7] = [
        "mcos.states_visited_per_frame",
        "mcos.intersections_per_frame",
        "store.fsyncs_per_frame",
        "store.append_bytes_per_frame",
        "store.snapshot_bytes_per_frame",
        "subscribe.events_per_frame",
        "multi.feeds_migrated",
    ];
    for workload in [Workload::Crowd, Workload::Gateway, Workload::Fleet] {
        let (a, b) = (traced(workload, 5), traced(workload, 5));
        for name in COUNTERS {
            let (x, y) = (a.metric(name).unwrap(), b.metric(name).unwrap());
            assert_eq!(x.to_bits(), y.to_bits(), "{workload:?} {name}: {x} vs {y}");
        }
    }
}

#[test]
fn crowd_layers_add_up_and_idle_layers_read_zero() {
    let crowd = traced(Workload::Crowd, 3);
    let m = |name: &str| crowd.metric(name).unwrap();
    let parts = m("lifecycle.us_per_frame")
        + m("mcos.advance_us_per_frame")
        + m("mcos.compact_us_per_frame")
        + m("query.eval_us_per_frame")
        + m("engine.residual_us_per_frame");
    let observe = m("engine.observe_us_per_frame");
    assert!(
        (parts - observe).abs() <= 1e-9 * observe.max(1.0),
        "{parts} vs {observe}"
    );
    assert!(m("mcos.states_visited_per_frame") > 0.0);
    assert!(m("query.matches_per_frame") > 0.0);
    let fleet = traced(Workload::Fleet, 3);
    for outcome in [&crowd, &fleet] {
        for metric in outcome
            .metrics
            .iter()
            .filter(|m| m.name.starts_with("store."))
        {
            assert_eq!(metric.value, 0.0, "{} must read zero", metric.name);
        }
    }
    assert!(fleet.metric("multi.schedule_parallelism").unwrap() > 0.0);
    let gateway = traced(Workload::Gateway, 3);
    assert!(gateway.metric("store.fsyncs_per_frame").unwrap() >= 1.0);
    assert!(gateway.metric("store.recover_records_replayed").unwrap() > 0.0);
}

/// Negative control: with one match dropped from the reference a run
/// checks against, every check that uses it must fail, traced and not.
#[test]
fn a_corrupted_reference_fails_every_check() {
    let cases: [(Workload, &[&str], &[&str]); 3] = [
        (
            Workload::Gateway,
            &["server responses vs in-process replay"],
            &["traced pipeline vs in-process replay, per frame"],
        ),
        (
            Workload::Fleet,
            &["2-worker transcripts vs 1-worker run"],
            &["traced pipelines vs 1-worker run, per feed"],
        ),
        (
            Workload::Crowd,
            &["SSG_O engine vs MFS_O engine"],
            &["traced pipeline vs MFS_O engine"],
        ),
    ];
    for (workload, untraced_checks, traced_checks) in cases {
        for trace in [false, true] {
            let outcome = tiny(workload, 9, trace, true);
            let mut expected = untraced_checks.to_vec();
            if trace {
                expected.extend_from_slice(traced_checks);
            }
            for check in expected {
                assert!(
                    outcome.problems.iter().any(|p| p.starts_with(check)),
                    "{workload:?} trace={trace}: {check:?} did not fail: {:?}",
                    outcome.problems
                );
            }
            assert!(tiny(workload, 9, trace, false).correct());
        }
    }
}
