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
    assert!(cold_report.counter(Counter::SimWindows) > 0, "cold run simulated");
    assert!(cold_report.counter(Counter::ServeCacheMisses) > 0);

    let (warm, warm_report) =
        obs::capture(|| engine.execute(&canon, &parsed).expect("warm job"));
    // ...and the warm run did none: the counters, not the clock, are
    // the proof that no stage re-executed.
    assert!(warm.cached_response, "resubmission must hit the response cache");
    assert_eq!(warm_report.counter(Counter::PlaceMoves), 0, "warm run re-placed");
    assert_eq!(warm_report.counter(Counter::RouteNets), 0, "warm run re-routed");
    assert_eq!(warm_report.counter(Counter::SimWindows), 0, "warm run re-simulated");
    assert!(warm_report.counter(Counter::ServeCacheHits) > 0);
    assert_eq!(warm_report.counter(Counter::ServeJobs), 1);
    assert_eq!(cold.payload, warm.payload, "cached payload must be byte-identical");
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
