//! Self-tests for the benchmark's own arithmetic and bookkeeping:
//! percentile rule, median and quartiles, seeded arrival schedules, the
//! report reader and `compare`, and agreement between `BENCHMARK.json`
//! and the metric lists the program reports.

use perfbench::arrivals;
use perfbench::layers::{per_layer, END_TO_END};
use perfbench::report::{compare, Json};
use perfbench::stats;
use std::path::PathBuf;

#[test]
fn percentile_rule_needs_ten_samples_beyond() {
    let v = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
    assert_eq!(stats::highest_tail(&v(19)), None);
    assert_eq!(stats::highest_tail(&v(20)), Some((50.0, 10.0)));
    assert_eq!(stats::highest_tail(&v(99)).map(|t| t.0), Some(50.0));
    assert_eq!(stats::highest_tail(&v(100)), Some((90.0, 90.0)));
    assert_eq!(stats::highest_tail(&v(199)).map(|t| t.0), Some(90.0));
    assert_eq!(stats::highest_tail(&v(200)), Some((95.0, 190.0)));
    assert_eq!(stats::highest_tail(&v(1000)), Some((99.0, 990.0)));
    assert_eq!(stats::highest_tail(&v(10_000)).map(|t| t.0), Some(99.9));
    assert!(stats::supports(200, 95.0) && !stats::supports(199, 95.0));
    assert_eq!(stats::tail(&v(150), 95.0), None);
    assert_eq!(stats::tail(&v(150), 90.0), Some(135.0));
    assert_eq!(stats::beyond(200, 95.0), 10);
}

#[test]
fn median_and_quartiles_match_python_statistics() {
    assert_eq!(stats::median(&[]), None);
    assert_eq!(stats::median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(stats::median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
    assert_eq!(
        stats::quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]),
        Some([1.5, 3.0, 4.5])
    );
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(stats::quartiles(&ten), Some([2.75, 5.5, 8.25]));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(stats::quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
    assert_eq!(stats::quartiles(&[1.0]), None);
}

#[test]
fn arrival_schedule_is_a_function_of_the_seed() {
    let a = arrivals::poisson(7, 80.0, 10.0, 0.25, 32);
    let b = arrivals::poisson(7, 80.0, 10.0, 0.25, 32);
    let c = arrivals::poisson(8, 80.0, 10.0, 0.25, 32);
    assert_eq!(a, b, "equal seeds must give equal schedules");
    assert_ne!(a, c, "different seeds must give different schedules");
    assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
    assert!(a.iter().all(|x| x.at >= 0.0 && x.at < 10.0 && x.image < 32));
    // 800 expected arrivals; a Poisson count is within ±5σ (≈ ±141).
    assert!((a.len() as f64 - 800.0).abs() < 141.0, "{}", a.len());
    let share = a.iter().filter(|x| x.interactive).count() as f64 / a.len() as f64;
    assert!((share - 0.25).abs() < 0.08, "interactive share {share}");
    let f = arrivals::fixed_rate(3, 100.0, 2.0, 32);
    assert_eq!(f.len(), 200);
    assert_eq!(f, arrivals::fixed_rate(3, 100.0, 2.0, 32));
    assert_ne!(f, arrivals::fixed_rate(4, 100.0, 2.0, 32));
}

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn names(j: &Json, key: &str) -> Vec<(String, String)> {
    let Some(Json::Arr(items)) = j.get(key) else {
        panic!("{key} must be an array");
    };
    items
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(Json::as_str).unwrap().to_string(),
                m.get("unit").and_then(Json::as_str).unwrap().to_string(),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_lists_what_the_program_reports() {
    let j = benchmark_json();
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(names(&j, "end_to_end"), e2e);
    let layers: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(names(&j, "per_layer"), layers);
}

fn report(dir: &std::path::Path, name: &str, cpu: &str, rate: f64) -> String {
    let path = dir.join(name);
    let text = format!(
        "{{\"workload\": \"offline-int\", \"seed\": 1, \"trace\": false, \"fingerprint\": {{\"cpu\": \"{cpu}\", \"nproc\": \"2\", \"isas\": \"scalar,avx2\", \"dispatched_isa\": \"avx2\", \"rustc\": \"rustc 1.0\", \"commit\": \"abc\"}}, \"metrics\": {{\"rate_per_s\": {{\"value\": {rate}, \"unit\": \"1/s\", \"samples\": 5, \"note\": \"x\"}}}}}}\n"
    );
    std::fs::write(&path, text).unwrap();
    path.to_string_lossy().into_owned()
}

#[test]
fn compare_refuses_different_fingerprints() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-compare");
    std::fs::create_dir_all(&dir).unwrap();
    let a = report(&dir, "a.json", "Xeon", 40.0);
    let b = report(&dir, "b.json", "Xeon", 44.0);
    let c = report(&dir, "c.json", "EPYC", 44.0);
    let table = compare(&a, &b).expect("same host compares");
    assert!(
        table.contains("rate_per_s") && table.contains("+10.00%"),
        "{table}"
    );
    let err = compare(&a, &c).unwrap_err();
    assert!(err.contains("cpu") && err.contains("refusing"), "{err}");
}

#[test]
fn json_reader_round_trips_reports() {
    let j =
        Json::parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\"y", "d": true, "e": null}}"#).unwrap();
    assert_eq!(
        j.get("a"),
        Some(&Json::Arr(vec![
            Json::Num(1.0),
            Json::Num(2.5),
            Json::Num(-300.0)
        ]))
    );
    assert_eq!(
        j.get("b").and_then(|b| b.get("c")).and_then(Json::as_str),
        Some("x\"y")
    );
    assert!(Json::parse("{\"a\": }").is_err());
    assert!(Json::parse("[1, 2").is_err());
}
