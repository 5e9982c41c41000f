//! Run output: the human report, the full JSON report with the host
//! fingerprint, the trace file, the one-line result, and `compare`.

use crate::common::Outcome;
use crate::host::{escape, Fingerprint};
use crate::layers::{per_layer, END_TO_END};
use crate::stats;
use crate::trace::Recorder;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Directory (relative to the working directory) for reports, traces and
/// scratch artifacts.
pub const OUT_DIR: &str = ".bench_out";

fn out_dir() -> PathBuf {
    let dir = PathBuf::from(OUT_DIR);
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// Writes the recorder's spans as JSON lines, once, at the end of a run.
pub fn write_trace(rec: &Recorder, workload: &str, seed: u64) {
    let path = out_dir().join(format!("trace-{workload}-seed{seed}.jsonl"));
    match std::fs::write(&path, rec.to_jsonl()) {
        Ok(()) => println!(
            "trace: {} spans ({} dropped past the cap) → {}",
            rec.spans().len(),
            rec.dropped(),
            path.display()
        ),
        Err(e) => eprintln!("trace: could not write {}: {e}", path.display()),
    }
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Prints the human report, writes the JSON report and returns the
/// contract's one-line result plus whether the run was correct.
pub fn finish(workload: &str, seed: u64, trace: bool, out: &mut Outcome) -> (String, bool) {
    let fp = Fingerprint::current();
    println!("host: {}", fp.summary());
    if let Some(setup) = stats::median(&out.setups) {
        out.push(
            "setup_s",
            setup,
            "s",
            out.setups.len(),
            "median of set-up repetitions",
        );
    }
    let names: Vec<String> = if trace {
        per_layer().into_iter().map(|(n, _)| n).collect()
    } else {
        END_TO_END.iter().map(|(n, _)| n.to_string()).collect()
    };
    for n in &names {
        if out.get(n).is_none() {
            out.problem(format!("metric {n} was not measured"));
        }
    }
    for m in &out.metrics {
        if !m.value.is_finite() {
            out.problems
                .push(format!("metric {} is not finite", m.name));
        }
    }

    println!("== {workload} (seed {seed}, trace {}) ==", u8::from(trace));
    for m in &out.metrics {
        println!(
            "  {:<34} {:>14.6} {:<6} n={:<6} {}",
            m.name, m.value, m.unit, m.samples, m.note
        );
    }
    let (mut attempted, mut failed) = (0u64, 0u64);
    for t in &out.tallies {
        attempted += t.attempted;
        failed += t.failed;
        let share = |x: u64| 100.0 * x as f64 / t.attempted.max(1) as f64;
        println!(
            "  phase {:<24} failed {}/{} ({:.2}%)  refused {}/{} ({:.2}%)",
            t.phase,
            t.failed,
            t.attempted,
            share(t.failed),
            t.refused,
            t.attempted,
            share(t.refused)
        );
    }
    if failed > 0 {
        out.problem(format!("{failed} of {attempted} outputs failed"));
    }
    for p in &out.problems {
        println!("  PROBLEM: {p}");
    }
    let correct = out.problems.is_empty() && attempted > 0;

    let mut full = String::new();
    let _ = write!(
        full,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {trace}, \"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"fingerprint\": {}, \"metrics\": {{",
        fp.to_json()
    );
    for (i, m) in out.metrics.iter().enumerate() {
        let _ = write!(
            full,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"samples\": {}, \"note\": \"{}\"}}",
            if i > 0 { ", " } else { "" },
            m.name,
            num(m.value),
            m.unit,
            m.samples,
            escape(&m.note)
        );
    }
    full.push_str("}}\n");
    let path = out_dir().join(format!(
        "report-{workload}-seed{seed}-trace{}.json",
        u8::from(trace)
    ));
    if std::fs::write(&path, full).is_ok() {
        println!("report: {}", path.display());
    }

    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, n) in names.iter().enumerate() {
        let m = out.get(n);
        let _ = write!(
            line,
            "{}\"{n}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i > 0 { ", " } else { "" },
            num(m.map_or(0.0, |m| m.value)),
            m.map_or("", |m| m.unit)
        );
    }
    line.push_str("}}");
    (line, correct)
}

/// A parsed JSON value (just enough for reading reports back).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`, `true`/`false`.
    Null,
    /// Boolean.
    Bool(bool),
    /// Number.
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, keys sorted.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses one JSON document.
    ///
    /// # Errors
    ///
    /// Describes the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let b = text.as_bytes();
        let mut i = 0;
        let v = value(b, &mut i)?;
        ws(b, &mut i);
        if i != b.len() {
            return Err(format!("trailing data at byte {i}"));
        }
        Ok(v)
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

fn ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && b[*i].is_ascii_whitespace() {
        *i += 1;
    }
}

fn value(b: &[u8], i: &mut usize) -> Result<Json, String> {
    ws(b, i);
    match b.get(*i) {
        Some(b'{') => {
            *i += 1;
            let mut m = BTreeMap::new();
            ws(b, i);
            if b.get(*i) == Some(&b'}') {
                *i += 1;
                return Ok(Json::Obj(m));
            }
            loop {
                ws(b, i);
                let Json::Str(k) = value(b, i)? else {
                    return Err(format!("object key expected at byte {i}"));
                };
                ws(b, i);
                if b.get(*i) != Some(&b':') {
                    return Err(format!("':' expected at byte {i}"));
                }
                *i += 1;
                m.insert(k, value(b, i)?);
                ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b'}') => {
                        *i += 1;
                        return Ok(Json::Obj(m));
                    }
                    _ => return Err(format!("',' or '}}' expected at byte {i}")),
                }
            }
        }
        Some(b'[') => {
            *i += 1;
            let mut v = Vec::new();
            ws(b, i);
            if b.get(*i) == Some(&b']') {
                *i += 1;
                return Ok(Json::Arr(v));
            }
            loop {
                v.push(value(b, i)?);
                ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b']') => {
                        *i += 1;
                        return Ok(Json::Arr(v));
                    }
                    _ => return Err(format!("',' or ']' expected at byte {i}")),
                }
            }
        }
        Some(b'"') => {
            *i += 1;
            let mut s = String::new();
            while let Some(&c) = b.get(*i) {
                *i += 1;
                match c {
                    b'"' => return Ok(Json::Str(s)),
                    b'\\' => {
                        let e = *b.get(*i).ok_or("unterminated escape")?;
                        *i += 1;
                        s.push(match e {
                            b'n' => '\n',
                            b't' => '\t',
                            other => char::from(other),
                        });
                    }
                    _ => {
                        // Copy one UTF-8 sequence.
                        let start = *i - 1;
                        let len = match c {
                            0..=0x7f => 1,
                            0xc0..=0xdf => 2,
                            0xe0..=0xef => 3,
                            _ => 4,
                        };
                        let end = (start + len).min(b.len());
                        s.push_str(&String::from_utf8_lossy(&b[start..end]));
                        *i = end;
                    }
                }
            }
            Err("unterminated string".into())
        }
        Some(b't') if b[*i..].starts_with(b"true") => {
            *i += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*i..].starts_with(b"false") => {
            *i += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*i..].starts_with(b"null") => {
            *i += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *i;
            while *i < b.len() && matches!(b[*i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
                *i += 1;
            }
            std::str::from_utf8(&b[start..*i])
                .ok()
                .and_then(|t| t.parse().ok())
                .map(Json::Num)
                .ok_or_else(|| format!("value expected at byte {start}"))
        }
        None => Err("unexpected end of input".into()),
    }
}

/// Compares two JSON reports metric by metric. Refuses (returns `Err`)
/// when their host fingerprints differ or they are of different
/// workloads; otherwise returns the comparison table.
///
/// # Errors
///
/// Unreadable reports, or reports that may not be compared.
pub fn compare(base: &str, new: &str) -> Result<String, String> {
    let read = |p: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Json::parse(text.trim()).map_err(|e| format!("{p}: {e}"))
    };
    let (a, b) = (read(base)?, read(new)?);
    for key in ["cpu", "nproc", "isas", "dispatched_isa", "rustc"] {
        let fa = a.get("fingerprint").and_then(|f| f.get(key));
        let fb = b.get("fingerprint").and_then(|f| f.get(key));
        if fa.is_none() || fa != fb {
            return Err(format!(
                "host fingerprints differ in {key}: {:?} vs {:?}; refusing to compare",
                fa.and_then(Json::as_str),
                fb.and_then(Json::as_str)
            ));
        }
    }
    for key in ["workload", "trace"] {
        if a.get(key) != b.get(key) {
            return Err(format!("reports differ in {key}; refusing to compare"));
        }
    }
    let mut out = format!(
        "{:<34} {:>14} {:>14} {:>9}\n",
        "metric", "base", "new", "change"
    );
    if let (Some(Json::Obj(ma)), Some(mb)) = (a.get("metrics"), b.get("metrics")) {
        for (name, va) in ma {
            let x = va.get("value").and_then(Json::as_f64).unwrap_or(0.0);
            let Some(y) = mb
                .get(name)
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64)
            else {
                continue;
            };
            let change = if x != 0.0 {
                format!("{:+.2}%", (y - x) / x.abs() * 100.0)
            } else {
                "-".into()
            };
            let unit = va.get("unit").and_then(Json::as_str).unwrap_or("");
            let _ = writeln!(out, "{name:<34} {x:>14.6} {y:>14.6} {change:>9} {unit}");
        }
    }
    Ok(out)
}
