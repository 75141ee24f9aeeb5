//! End-to-end tests of the persistent job server (`secflow-serve`).
//!
//! Two contracts matter more than anything else here:
//!
//! 1. a warm resubmission executes **zero** flow stages — proven with
//!    the observability counters (no placement moves, no routed nets,
//!    no simulated windows), not just elapsed time;
//! 2. the warm payload is byte-identical to the cold one, over a real
//!    Unix-domain socket round trip, envelope and payload framed
//!    separately so the deterministic payload can be `cmp`'d.

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use secflow::obs::{self, Counter};
use secflow::serve::{
    proto::canonical_json, serve, submit, Bind, Engine, Request, ServerOptions, Value,
};

/// Observability sessions are process-global; serialize the tests so
/// one test's campaign never leaks counters into another's capture.
static SERIAL: Mutex<()> = Mutex::new(());

/// A small but complete campaign request: real placement, routing,
/// extraction and simulation, shrunk to seconds.
const CAMPAIGN: &str = r#"{"job":"campaign","attack":"dpa","n":6,"seed":3,
    "options":{"anneal_moves_per_gate":4,"verify":false},
    "sim":{"samples_per_cycle":40}}"#;

fn canonical(req: &str) -> String {
    canonical_json(&Value::parse(req).expect("request is JSON"))
}

#[test]
fn warm_resubmission_executes_zero_stages() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let engine = Engine::new(256 << 20, None);
    let canon = canonical(CAMPAIGN);
    let parsed = Request::parse(CAMPAIGN.as_bytes()).expect("request parses");

    let (cold, cold_report) =
        obs::capture(|| engine.execute(&canon, &parsed).expect("cold job"));
    assert!(!cold.cached_response);
    // The cold run did real work...
    assert!(cold_report.counter(Counter::PlaceMoves) > 0, "cold run placed");
    assert!(cold_report.counter(Counter::RouteNets) > 0, "cold run routed");
    assert!(cold_report.counter(Counter::SimBitsliceLanes) > 0, "cold run simulated");
    assert!(cold_report.counter(Counter::ServeCacheMisses) > 0);

    let (warm, warm_report) =
        obs::capture(|| engine.execute(&canon, &parsed).expect("warm job"));
    // ...and the warm run did none: the counters, not the clock, are
    // the proof that no stage re-executed.
    assert!(warm.cached_response, "resubmission must hit the response cache");
    assert_eq!(warm_report.counter(Counter::PlaceMoves), 0, "warm run re-placed");
    assert_eq!(warm_report.counter(Counter::RouteNets), 0, "warm run re-routed");
    assert_eq!(warm_report.counter(Counter::SimBitsliceLanes), 0, "warm run re-simulated");
    assert!(warm_report.counter(Counter::ServeCacheHits) > 0);
    assert_eq!(warm_report.counter(Counter::ServeJobs), 1);
    assert_eq!(cold.payload, warm.payload, "cached payload must be byte-identical");
}

/// A campaign simulates once: a later job on the same traces, with
/// the other attack or the other `trace_path`, is served from the
/// campaign's cached statistics. It simulates no window, only its own
/// response key misses, and the statistics entry is its one hit: no
/// pipeline stage is looked up.
#[test]
fn one_campaign_simulates_once_whatever_the_attack_and_trace_path() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let engine = Engine::new(256 << 20, None);
    let request = |attack: &str, path: &str| {
        format!(
            r#"{{"job":"campaign","attack":"{attack}","trace_path":"{path}","n":20,"seed":5,
                "options":{{"anneal_moves_per_gate":4,"verify":false}},
                "sim":{{"samples_per_cycle":40}}}}"#
        )
    };
    let run = |req: &str| {
        let parsed = Request::parse(req.as_bytes()).expect("request parses");
        obs::capture(|| engine.execute(&canonical(req), &parsed).expect("job runs"))
    };

    let (first, first_report) = run(&request("dpa", "streaming"));
    assert!(
        first_report.counter(Counter::SimBitsliceLanes) > 0,
        "the first job simulated"
    );
    let mut later = Vec::new();
    for (attack, path) in [("cpa", "streaming"), ("dpa", "materialize")] {
        let (out, report) = run(&request(attack, path));
        assert!(!out.cached_response, "{attack}/{path} is a new request");
        assert_eq!(
            report.counter(Counter::SimBitsliceLanes),
            0,
            "{attack}/{path} re-simulated the campaign"
        );
        assert_eq!(
            report.counter(Counter::ServeCacheMisses),
            1,
            "{attack}/{path} missed more than its response key"
        );
        assert_eq!(
            report.counter(Counter::ServeCacheHits),
            1,
            "{attack}/{path} looked up more than the statistics entry"
        );
        later.push(out);
    }
    assert_eq!(
        later[1].payload, first.payload,
        "the materialize and streaming DPA payloads differ"
    );
}

/// A campaign on an implementation that an earlier job built runs
/// none of the backend: it places, routes and checks nothing, but
/// simulates its own traces. Its response and statistics keys miss;
/// the mapped netlist, the one backend entry and the compiled program
/// hit.
#[test]
fn a_new_campaign_on_a_built_implementation_runs_no_backend_stage() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let engine = Engine::new(256 << 20, None);
    let request = |n: usize, seed: u64| {
        format!(
            r#"{{"job":"campaign","n":{n},"seed":{seed},
                "options":{{"anneal_moves_per_gate":4}},
                "sim":{{"samples_per_cycle":40}}}}"#
        )
    };
    let run = |req: &str| {
        let parsed = Request::parse(req.as_bytes()).expect("request parses");
        obs::capture(|| engine.execute(&canonical(req), &parsed).expect("job runs"))
    };

    let (_, first) = run(&request(6, 3));
    assert!(first.counter(Counter::RouteNets) > 0, "the first job routed");
    let (out, second) = run(&request(8, 4));
    assert!(!out.cached_response, "a new `n` and `seed` is a new request");
    for (counter, what) in [
        (Counter::PlaceMoves, "placed"),
        (Counter::RouteNets, "routed"),
        (Counter::LecOutputs, "checked equivalence"),
    ] {
        assert_eq!(second.counter(counter), 0, "the second job {what}");
    }
    assert!(second.counter(Counter::SimBitsliceLanes) > 0, "the second job simulated");
    assert_eq!(
        second.counter(Counter::ServeCacheMisses),
        2,
        "misses other than the response and statistics keys"
    );
    assert_eq!(
        second.counter(Counter::ServeCacheHits),
        3,
        "hits other than the map, backend and program entries"
    );
}

/// A campaign builds its implementation with the flow's own backend,
/// so `verify` means what it means to a flow job: a cold secure
/// campaign runs the equivalence check when it is set, and only then.
#[test]
fn a_cold_campaign_verifies_its_implementation_when_verify_is_set() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for verify in [true, false] {
        let engine = Engine::new(256 << 20, None);
        let req = format!(
            r#"{{"job":"campaign","n":6,"seed":3,
                "options":{{"anneal_moves_per_gate":4,"verify":{verify}}},
                "sim":{{"samples_per_cycle":40}}}}"#
        );
        let parsed = Request::parse(req.as_bytes()).expect("request parses");
        let (_, report) =
            obs::capture(|| engine.execute(&canonical(&req), &parsed).expect("job runs"));
        assert_eq!(
            report.counter(Counter::LecOutputs) > 0,
            verify,
            "verify {verify}: lec.outputs {}",
            report.counter(Counter::LecOutputs)
        );
    }
}

/// A campaign whose implementation cannot meet the requested timing
/// (here a precharge phase that leaves the evaluation 5 % of the
/// cycle) fails with a typed `sim` error, exit 19, instead of a panic,
/// and the same engine then runs a valid job.
#[test]
fn a_campaign_that_fails_timing_is_a_typed_sim_error() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let engine = Engine::new(256 << 20, None);
    let bad = r#"{"job":"attack","n":6,"sim":{"precharge_fraction":0.95,"samples_per_cycle":40},"options":{"anneal_moves_per_gate":4,"verify":false}}"#;
    let parsed = Request::parse(bad.as_bytes()).expect("0.95 is a legal fraction");
    let e = engine
        .execute(&canonical(bad), &parsed)
        .expect_err("the simulated ciphertexts disagree with the model");
    assert_eq!((e.stage.as_str(), e.exit_code), ("sim", 19), "{e:?}");
    assert_eq!(e.kind, "CiphertextMismatch", "{e:?}");
    assert!(e.detail.contains("at encryption 0"), "{}", e.detail);

    let parsed = Request::parse(CAMPAIGN.as_bytes()).expect("request parses");
    let out = engine
        .execute(&canonical(CAMPAIGN), &parsed)
        .expect("a valid job after the failed one");
    assert!(!out.payload.is_empty());
}

#[test]
fn unix_socket_round_trip_serves_cached_second_response() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let sock = PathBuf::from(format!(
        "{}/secflow-serve-test-{}.sock",
        std::env::temp_dir().display(),
        std::process::id()
    ));
    let opts = ServerOptions {
        bind: Bind::Unix(sock.clone()),
        cache_bytes: 256 << 20,
        cache_dir: None,
        job_workers: 1,
    };
    let server = std::thread::spawn(move || serve(&opts));

    // The acceptor binds asynchronously; poll until it answers.
    let bind = Bind::Unix(sock.clone());
    let deadline = Instant::now() + Duration::from_secs(10);
    let first = loop {
        match submit(&bind, CAMPAIGN.as_bytes()) {
            Ok(r) => break r,
            Err(e) => {
                assert!(Instant::now() < deadline, "server never came up: {e}");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    };
    assert!(first.envelope.contains("\"ok\":true"), "{}", first.envelope);
    assert!(first.envelope.contains("\"cached\":false"), "{}", first.envelope);
    assert!(!first.payload.is_empty());

    let second = submit(&bind, CAMPAIGN.as_bytes()).expect("second submission");
    assert!(second.envelope.contains("\"cached\":true"), "{}", second.envelope);
    assert_eq!(first.payload, second.payload, "responses must be byte-identical");

    // A malformed job reports the structured request error and leaves
    // the server up.
    let bad = submit(&bind, b"{\"job\":\"campaign\",\"bogus\":1}").expect("bad job");
    assert!(bad.envelope.contains("\"ok\":false"), "{}", bad.envelope);
    assert!(bad.envelope.contains("\"stage\":\"request\""), "{}", bad.envelope);
    assert!(bad.payload.is_empty());

    let down = submit(&bind, b"{\"job\":\"shutdown\"}").expect("shutdown ack");
    assert!(down.envelope.contains("\"ok\":true"), "{}", down.envelope);
    server
        .join()
        .expect("server thread")
        .expect("server exited cleanly");
    assert!(!sock.exists(), "socket file must be unlinked on shutdown");
}

/// A job the router cannot run is refused at request parse, and the
/// single job worker stays up to answer the next request.
#[test]
fn invalid_route_layers_are_refused_and_the_server_keeps_answering() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let sock = PathBuf::from(format!(
        "{}/secflow-serve-layers-{}.sock",
        std::env::temp_dir().display(),
        std::process::id()
    ));
    let opts = ServerOptions {
        bind: Bind::Unix(sock.clone()),
        cache_bytes: 16 << 20,
        cache_dir: None,
        job_workers: 1,
    };
    let server = std::thread::spawn(move || serve(&opts));
    let bind = Bind::Unix(sock.clone());
    let deadline = Instant::now() + Duration::from_secs(10);
    let stats = br#"{"job":"stats"}"#;
    loop {
        match submit(&bind, stats) {
            Ok(_) => break,
            Err(e) => {
                assert!(Instant::now() < deadline, "server never came up: {e}");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }

    for layers in [0, 1] {
        let req = format!(
            r#"{{"job":"campaign","n":6,"options":{{"route_layers":{layers},"verify":false}}}}"#
        );
        let bad = submit(&bind, req.as_bytes()).expect("bad job gets a reply");
        assert!(bad.envelope.contains("\"ok\":false"), "{}", bad.envelope);
        assert!(
            bad.envelope.contains("\"kind\":\"BadRequest\""),
            "{}",
            bad.envelope
        );
        assert!(bad.envelope.contains("route_layers"), "{}", bad.envelope);
    }
    let after = submit(&bind, stats).expect("stats after the refused jobs");
    assert!(after.envelope.contains("\"ok\":true"), "{}", after.envelope);

    let down = submit(&bind, b"{\"job\":\"shutdown\"}").expect("shutdown ack");
    assert!(down.envelope.contains("\"ok\":true"), "{}", down.envelope);
    server
        .join()
        .expect("server thread")
        .expect("server exited cleanly");
}
