//! The benchmark's own contract: seeds fix the inputs, and the command
//! prints every metric `BENCHMARK.json` names, with its unit.

use std::collections::BTreeMap;
use std::process::Command;

use partstm_perfbench::workloads::{input_digest, NAMES};

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    for w in NAMES {
        let a = input_digest(w, 7, 2000).unwrap();
        assert_eq!(a, input_digest(w, 7, 2000).unwrap(), "{w}: seed 7 twice");
        assert_ne!(a, input_digest(w, 8, 2000).unwrap(), "{w}: seeds 7 and 8");
    }
    assert!(input_digest("nope", 7, 10).is_none());
}

/// A parsed JSON value (just what these tests need).
#[derive(Debug, Clone)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            _ => panic!("not an object: {self:?}"),
        }
    }
}

fn parse(s: &str) -> Json {
    let b = s.as_bytes();
    let mut i = 0;
    let v = value(b, &mut i);
    skip_ws(b, &mut i);
    assert_eq!(i, b.len(), "trailing data in {s}");
    v
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && b[*i].is_ascii_whitespace() {
        *i += 1;
    }
}

fn value(b: &[u8], i: &mut usize) -> Json {
    skip_ws(b, i);
    match b[*i] {
        b'{' => {
            *i += 1;
            let mut m = BTreeMap::new();
            loop {
                skip_ws(b, i);
                if b[*i] == b'}' {
                    *i += 1;
                    return Json::Obj(m);
                }
                let Json::Str(k) = value(b, i) else {
                    panic!("object key must be a string")
                };
                skip_ws(b, i);
                assert_eq!(b[*i], b':');
                *i += 1;
                let v = value(b, i);
                assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k}");
                skip_ws(b, i);
                if b[*i] == b',' {
                    *i += 1;
                }
            }
        }
        b'[' => {
            *i += 1;
            let mut a = Vec::new();
            loop {
                skip_ws(b, i);
                if b[*i] == b']' {
                    *i += 1;
                    return Json::Arr(a);
                }
                a.push(value(b, i));
                skip_ws(b, i);
                if b[*i] == b',' {
                    *i += 1;
                }
            }
        }
        b'"' => {
            *i += 1;
            let start = *i;
            while b[*i] != b'"' {
                assert_ne!(b[*i], b'\\', "escapes are not used");
                *i += 1;
            }
            *i += 1;
            Json::Str(String::from_utf8(b[start..*i - 1].to_vec()).unwrap())
        }
        b't' => {
            *i += 4;
            Json::Bool(true)
        }
        b'f' => {
            *i += 5;
            Json::Bool(false)
        }
        b'n' => {
            *i += 4;
            Json::Null
        }
        _ => {
            let start = *i;
            while *i < b.len() && matches!(b[*i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                *i += 1;
            }
            let t = std::str::from_utf8(&b[start..*i]).unwrap();
            Json::Num(t.parse().unwrap_or_else(|_| panic!("bad number {t}")))
        }
    }
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn section(bench: &Json, key: &str) -> Vec<(String, String)> {
    let Json::Arr(items) = bench.get(key) else {
        panic!("{key} is not a list")
    };
    items
        .iter()
        .map(|m| match (m.get("name"), m.get("unit")) {
            (Json::Str(n), Json::Str(u)) => (n.clone(), u.clone()),
            other => panic!("bad metric {other:?}"),
        })
        .collect()
}

#[test]
fn command_prints_every_listed_metric() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let bench = parse(&std::fs::read_to_string(format!("{root}/BENCHMARK.json")).unwrap());
    let Json::Arr(workloads) = bench.get("workloads") else {
        panic!("workloads is not a list")
    };
    let names: Vec<String> = workloads
        .iter()
        .map(|w| match w.get("name") {
            Json::Str(s) => s.clone(),
            other => panic!("bad workload {other:?}"),
        })
        .collect();
    assert_eq!(
        names, NAMES,
        "BENCHMARK.json lists the workloads the command runs"
    );
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = section(&bench, key);
        for w in NAMES {
            let args = format!("--workload {w} --seed 3 --seconds 1 --trace {trace}");
            let out = Command::new(env!("CARGO_BIN_EXE_partstm-perfbench"))
                .args(args.split(' '))
                .current_dir(root)
                .output()
                .unwrap();
            assert!(out.status.success(), "{w} --trace {trace} failed: {out:?}");
            let stdout = String::from_utf8(out.stdout).unwrap();
            let last = parse(stdout.lines().last().unwrap());
            assert!(
                matches!(last.get("correct"), Json::Bool(true)),
                "{w}: {stdout}"
            );
            assert!(matches!(last.get("failed"), Json::Num(f) if *f == 0.0));
            assert!(matches!(last.get("attempted"), Json::Num(a) if *a >= 1.0));
            let Json::Obj(metrics) = last.get("metrics") else {
                panic!("metrics is not an object")
            };
            let got: Vec<&String> = metrics.keys().collect();
            let mut listed: Vec<&String> = want.iter().map(|(n, _)| n).collect();
            listed.sort();
            assert_eq!(got, listed, "{w} --trace {trace}: printed metrics");
            for (name, unit) in &want {
                let m = &metrics[name];
                assert!(
                    matches!(m.get("unit"), Json::Str(u) if u == unit),
                    "{w}: {name} unit"
                );
                assert!(matches!(m.get("value"), Json::Num(_)), "{w}: {name} value");
            }
        }
    }
}

#[test]
fn rejects_bad_arguments() {
    for args in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload oltp --seed x --seconds 1 --trace 0",
        "--workload oltp --seed 1 --seconds 1",
        "--workload oltp --seed 1 --seconds 1 --trace 2",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_partstm-perfbench"))
            .args(args.split(' '))
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args}");
        assert!(out.stdout.is_empty(), "{args} printed a result");
    }
}
