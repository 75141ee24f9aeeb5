//! Parser robustness property tests for the two text inputs the flow
//! takes from outside.
//!
//! - `parse_verilog` over truncated and byte-mangled corruptions of the
//!   golden DES netlists must never panic: truncation always yields a
//!   typed [`NetlistError::Parse`], and arbitrary byte mangling yields
//!   either a typed error or a netlist that survives
//!   [`Netlist::validate`].
//! - `Value::parse` and `Request::parse` over truncated and garbled job
//!   requests and `BENCHMARK.json` must return a typed error or a
//!   value, never panic. Every parsed value must render to text that
//!   parses back to an equal value, and rendering must be idempotent.

use std::time::{Duration, Instant};

use secflow::netlist::{parse_verilog, NetlistError};
use secflow::obs::json::{escape, MAX_DEPTH};
use secflow::serve::{Request, Value};
use secflow_testkit::fault::{garble_verilog, truncate_verilog};
use secflow_testkit::{prop_check, CaseResult, Gen};

fn golden(name: &str) -> String {
    repo_file(&format!("tests/golden/{name}"))
}

fn repo_file(path: &str) -> String {
    std::fs::read_to_string(format!("{}/{path}", env!("CARGO_MANIFEST_DIR")))
        .unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn truncated_golden_netlists_always_give_typed_parse_errors() {
    let sources = [golden("des_regular.v"), golden("des_wddl.v")];
    prop_check(128, 0x7272_0001, |g: &mut Gen| {
        let src = g.choose(&sources);
        let e = parse_verilog(&truncate_verilog(src, g.random()), &["DFF", "WDDL_DFF"])
            .expect_err("a truncated netlist must not parse");
        assert!(matches!(e, NetlistError::Parse { .. }), "{e:?}");
        CaseResult::Pass
    });
}

#[test]
fn garbled_golden_netlists_never_panic_the_parser() {
    let sources = [golden("des_regular.v"), golden("des_wddl.v")];
    prop_check(128, 0x7272_0002, |g: &mut Gen| {
        let src = g.choose(&sources);
        let mutations = g.random_range(1..32usize);
        // Whatever the mutations produced, parsing must return: a
        // typed error, or a netlist every later stage can trust —
        // the parser re-validates before returning, so `Ok` already
        // implies structural soundness.
        let _ = parse_verilog(
            &garble_verilog(src, g.random(), mutations),
            &["DFF", "WDDL_DFF"],
        );
        CaseResult::Pass
    });
}

/// Requests the canonical form cannot represent: each must be refused
/// with a typed error, not parsed into a value that renders as
/// something else, nor overflow the stack.
fn hostile_requests() -> Vec<String> {
    let mut docs = vec![
        "[".repeat(100_000),
        format!(r#"{{"job":"flow","netlist":{}}}"#, "[".repeat(100_000)),
        format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1)),
        format!(
            r#"{{"job":"campaign","options":{}1{}}}"#,
            r#"{"a":"#.repeat(MAX_DEPTH),
            "}".repeat(MAX_DEPTH)
        ),
    ];
    docs.extend(
        [
            r#"{"job":"campaign","n":6,"sim":{"noise_sigma":1e999}}"#,
            r#"{"job":"campaign","options":{"fill_factor":2e308}}"#,
            r#"{"job":"campaign","sim":{"precharge_fraction":-1e999}}"#,
            r#"{"job":"campaign","seed":9007199254740993}"#,
            r#"{"job":"campaign","sim":{"noise_seed":18446744073709551615}}"#,
            r#"{"job":"flow","netlist":"\ud800A"}"#,
            r#"{"job":"flow","netlist":"\ud800\u0041"}"#,
            r#"{"job":"flow","netlist":"\u+041"}"#,
            r#"{"job":"flow","netlist":"\u004"}"#,
        ]
        .map(String::from),
    );
    docs
}

/// Every request shape the suite, CI and `serve_mix` send, one string
/// rich in escapes, the hostile requests, and `BENCHMARK.json`.
fn json_corpus() -> Vec<String> {
    let mut docs: Vec<String> = [
        r#"{"job":"campaign","attack":"dpa","n":6,"seed":3,
            "options":{"anneal_moves_per_gate":4,"verify":false},
            "sim":{"samples_per_cycle":40}}"#,
        r#"{"job":"campaign","attack":"cpa","trace_path":"streaming","n":20,"seed":5,
            "options":{"anneal_moves_per_gate":4,"verify":false},"sim":{"samples_per_cycle":40}}"#,
        r#"{"job":"attack","implementation":"regular","attack":"cpa","trace_path":"materialize",
            "n":500,"seed":271828,"options":{"seed":2}}"#,
        r#"{"job":"campaign","attack":"dpa","n":150,"seed":1,"key":46}"#,
        r#"{"job":"campaign","n":6,"options":{"route_layers":1,"verify":false}}"#,
        r#"{"job":"campaign","options":{"sim_backend":"bitslice","decompose_style":"shielded",
            "fill_factor":0.7,"aspect_ratio":1.25,"place_restarts":2,"route_max_iterations":40,
            "bdd_gate_limit":1500},"sim":{"period_ps":8000,"noise_sigma":0.5e-1,"noise_seed":7,
            "precharge_fraction":-0.0,"record_waveform":false}}"#,
        r#"{"job":"flow","implementation":"regular","netlist":"module m (a, y);\n  input a;\n  output y;\n  INV g0 (.A(a), .Y(y));\nendmodule\n"}"#,
        r#"{"job":"flow","netlist":"q\"\\\/\b\f\n\r\t\u00e9\ud83d\ude00 é😀"}"#,
        r#"{"job":"stats"}"#,
        r#"{"job":"shutdown"}"#,
    ]
    .map(String::from)
    .to_vec();
    docs.extend(hostile_requests());
    docs.push(repo_file("BENCHMARK.json"));
    docs
}

/// Bytes a mutation writes: JSON structure, number and escape
/// characters, control bytes, and bytes of multi-byte characters.
const JSON_NOISE: &[u8] = b"{}[]\":,\\/ -+.eE019tfnu\x00\x1f\x7f\xc3\xa9\xf0\x9f";

/// Overwrites, inserts or deletes `mutations` seed-chosen bytes.
fn garble_json(doc: &str, g: &mut Gen, mutations: usize) -> Vec<u8> {
    let mut bytes = doc.as_bytes().to_vec();
    for _ in 0..mutations {
        let at = g.random_range(0..bytes.len() + 1);
        let noise = *g.choose(JSON_NOISE);
        match g.random_range(0..3u8) {
            0 if at < bytes.len() => bytes[at] = noise,
            1 => bytes.insert(at, noise),
            _ if at < bytes.len() => drop(bytes.remove(at)),
            _ => bytes.push(noise),
        }
    }
    bytes
}

/// The codec's contract on one input: a typed result, never a panic,
/// and every value renders to text that reads back to it.
fn check_json(frame: &[u8]) {
    let _ = Request::parse(frame);
    let text = String::from_utf8_lossy(frame);
    if let Ok(v) = Value::parse(&text) {
        let once = v.render();
        let back = Value::parse(&once)
            .unwrap_or_else(|e| panic!("the rendering {once:?} of {text:?} does not parse: {e}"));
        assert_eq!(back, v, "{text:?} did not survive its rendering {once:?}");
        assert_eq!(back.render(), once, "rendering {text:?} is not idempotent");
    }
}

#[test]
fn truncated_json_requests_never_panic_and_round_trip() {
    let docs = json_corpus();
    prop_check(256, 0x7272_0003, |g: &mut Gen| {
        let doc = g.choose(&docs);
        check_json(&doc.as_bytes()[..g.random_range(0..doc.len() + 1)]);
        CaseResult::Pass
    });
}

#[test]
fn garbled_json_requests_never_panic_and_round_trip() {
    let docs = json_corpus();
    prop_check(512, 0x7272_0004, |g: &mut Gen| {
        let doc = g.choose(&docs);
        let mutations = g.random_range(1..8usize);
        check_json(&garble_json(doc, g, mutations));
        CaseResult::Pass
    });
}

#[test]
fn every_corpus_request_round_trips_and_hostile_ones_are_refused() {
    for doc in json_corpus() {
        check_json(doc.as_bytes());
    }
    for doc in hostile_requests() {
        let e = Request::parse(doc.as_bytes()).expect_err("a hostile request must be refused");
        assert!(
            e.0.contains("invalid JSON") || e.0.contains("`seed`") || e.0.contains("`noise_seed`"),
            "{e}"
        );
    }
    // The largest integer an `f64` holds exactly is still a seed.
    let Request::Campaign(c) =
        Request::parse(br#"{"job":"campaign","seed":9007199254740991}"#).expect("seed 2^53 - 1")
    else {
        panic!("not a campaign");
    };
    assert_eq!(c.seed, 9_007_199_254_740_991);
}

/// A `flow` job carries its netlist as one JSON string, so reading a
/// request must take time linear in its length. The bound is loose: a
/// scan that revisits the rest of the input per character took over
/// ten seconds for 640 KB in a release build.
#[test]
fn a_one_mebibyte_flow_request_round_trips_in_linear_time() {
    let des = golden("des_regular.v");
    let (mut netlist, mut body) = (String::new(), String::new());
    while body.len() < 1 << 20 {
        netlist.push_str(&des);
        body.push_str(&escape(&des));
        netlist.push_str("// \"q\" \\ é😀\t\u{1}/😀\n");
        body.push_str(r#"// \"q\" \\ é😀\t\u0001\/\ud83d\ude00\n"#);
    }
    let request = format!(r#"{{"job":"flow","netlist":"{body}"}}"#);
    let start = Instant::now();
    let Request::Flow(flow) = Request::parse(request.as_bytes()).expect("request parses") else {
        panic!("not a flow request");
    };
    let rendered = Value::parse(&request).expect("request is JSON").render();
    let elapsed = start.elapsed();
    assert!(flow.netlist == netlist, "the netlist changed on the way in");
    assert!(
        rendered == format!(r#"{{"job":"flow","netlist":"{}"}}"#, escape(&netlist)),
        "the canonical rendering changed the netlist"
    );
    assert!(
        elapsed < Duration::from_secs(10),
        "reading a {} byte request took {elapsed:?}",
        request.len()
    );
}
