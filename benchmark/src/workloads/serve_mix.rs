//! `serve_mix`: a closed loop of two clients against an in-process job
//! server.
//!
//! The server listens on a Unix socket with two job workers and a
//! 256 MiB cache. Each client sends its next request when the previous
//! reply arrives. Requests are campaign and attack jobs on the DES
//! module, drawn with a skewed popularity from a catalog that varies
//! the implementation, DPA or CPA, the trace path, the trace count,
//! the plaintext seed and the placement seed (mostly 1). Repeated
//! requests hit the response cache, requests sharing an implementation
//! hit the stage caches, and new placement seeds build cold. It is the
//! only workload that runs the server: framing, queue, keys, LRU and
//! cache hits against recomputation.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use secflow_obs::json::Obj;
use secflow_rand::{split_seed, RngExt, SeedableRng, StdRng};
use secflow_serve::{serve, submit, Bind, ServerOptions, Value};

use super::Workload;
use crate::run::{guarded, Limit, OpRecord, Pass};
use crate::trace::{Tracer, OP};

const CLIENTS: usize = 2;
const JOB_WORKERS: usize = 2;
const CACHE_BYTES: usize = 256 << 20;

pub struct ServeMix {
    seed: u64,
    smoke: bool,
    /// Request texts; index 0 is the most popular.
    catalog: Vec<String>,
    /// Cumulative popularity weights over `catalog`.
    cumulative: Vec<f64>,
    bind: Bind,
}

struct Server {
    bind: Bind,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Server {
    /// Starts a server and waits until it answers a `stats` request.
    fn start(bind: &Bind) -> Result<Server, String> {
        let opts = ServerOptions {
            bind: bind.clone(),
            cache_bytes: CACHE_BYTES,
            cache_dir: None,
            job_workers: JOB_WORKERS,
        };
        let thread = std::thread::spawn(move || serve(&opts));
        let server = Server {
            bind: bind.clone(),
            thread,
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match submit(&server.bind, br#"{"job":"stats"}"#) {
                Ok(r) if envelope_ok(&r.envelope) => return Ok(server),
                Ok(r) => {
                    let _ = server.stop();
                    return Err(format!("stats request failed: {}", r.envelope));
                }
                Err(_) if Instant::now() < deadline && !server.thread.is_finished() => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => {
                    let _ = server.stop();
                    return Err(format!("server did not come up: {e}"));
                }
            }
        }
    }

    /// Asks the server to shut down and waits for its thread.
    fn stop(self) -> Result<(), String> {
        if !self.thread.is_finished() {
            submit(&self.bind, br#"{"job":"shutdown"}"#)
                .map_err(|e| format!("shutdown request failed: {e}"))?;
        }
        match self.thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server failed: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..i + 1));
    }
}

fn envelope_ok(envelope: &str) -> bool {
    Value::parse(envelope)
        .ok()
        .and_then(|v| v.get("ok").and_then(Value::as_bool))
        == Some(true)
}

impl ServeMix {
    pub fn new(seed: u64, smoke: bool) -> ServeMix {
        let mut rng = StdRng::seed_from_u64(split_seed(seed, 0));
        let counts: &[u64] = if smoke {
            &[50, 100, 200]
        } else {
            &[500, 1000, 2000]
        };
        // The catalog's shape is the same for every seed, so that runs
        // of different seeds build the same number of implementations
        // and cache trace sets of the same sizes; the seed picks which
        // requests get which placement, plaintexts and popularity.
        let mut catalog = Vec::new();
        for secure in [true, false] {
            let mut kinds = Vec::new();
            for job in ["campaign", "attack"] {
                for path in ["materialize", "streaming"] {
                    for &n in counts {
                        kinds.push((job, path, n));
                    }
                }
            }
            shuffle(&mut kinds, &mut rng);
            for (k, (job, path, n)) in kinds.into_iter().enumerate() {
                // Three kinds per implementation use placement seeds
                // 2, 3 and 4 and the rest the default 1: every run
                // builds the same eight implementations.
                let placement = if smoke || k >= 3 { 1 } else { 2 + k as u64 };
                let plaintexts = rng.random_range(0..1_000_000u64);
                // The DPA and the CPA request of a kind share its
                // plaintexts, so on the materialized path the second
                // one reuses the first one's cached trace set.
                for attack in ["dpa", "cpa"] {
                    let mut options = Obj::new();
                    options.u64("seed", placement);
                    let mut o = Obj::new();
                    o.str("job", job)
                        .str("implementation", if secure { "secure" } else { "regular" })
                        .str("attack", attack)
                        .str("trace_path", path)
                        .u64("n", n)
                        .u64("seed", plaintexts)
                        .raw("options", &options.build());
                    catalog.push(o.build());
                }
            }
        }
        // A seeded popularity order with weights 1/(rank + 1).
        shuffle(&mut catalog, &mut rng);
        let mut total = 0.0;
        let cumulative = (0..catalog.len())
            .map(|r| {
                total += 1.0 / (r + 1) as f64;
                total
            })
            .collect();
        let sock = format!(".secbench-{}.sock", std::process::id());
        ServeMix {
            seed,
            smoke,
            catalog,
            cumulative,
            bind: Bind::Unix(PathBuf::from(sock)),
        }
    }

    fn pick(&self, rng: &mut StdRng) -> usize {
        let total = *self.cumulative.last().expect("catalog is non-empty");
        let x = rng.random::<f64>() * total;
        self.cumulative
            .partition_point(|&c| c <= x)
            .min(self.catalog.len() - 1)
    }

    /// One client's closed loop. `first` holds the first payload seen
    /// for each catalog entry; every later reply must equal it.
    fn client(
        &self,
        lane: usize,
        limit: &Limit,
        start: Instant,
        tr: &Tracer,
        first: &Mutex<HashMap<usize, Vec<u8>>>,
    ) -> Vec<OpRecord> {
        let mut rng = StdRng::seed_from_u64(split_seed(self.seed, 1 + lane as u64));
        let mut records = Vec::new();
        while limit.more(lane, records.len(), self.round(), start) {
            let index = records.len();
            let entry = self.pick(&mut rng);
            let t = Instant::now();
            let reply = guarded(|| {
                tr.span(OP, (lane << 32 | index) as u64, || {
                    submit(&self.bind, self.catalog[entry].as_bytes()).map_err(|e| e.to_string())
                })
            });
            let secs = t.elapsed().as_secs_f64();
            let mut cached = None;
            let output = reply.and_then(|r| {
                let env = Value::parse(&r.envelope).map_err(|e| e.to_string())?;
                if env.get("ok").and_then(Value::as_bool) != Some(true) {
                    return Err(format!("job failed: {}", r.envelope));
                }
                cached = env.get("cached").and_then(Value::as_bool);
                let mut seen = first.lock().expect("payload map poisoned");
                let cold = seen.entry(entry).or_insert_with(|| r.payload.clone());
                if *cold != r.payload {
                    return Err(format!(
                        "catalog entry {entry}: payload differs from its first reply"
                    ));
                }
                Ok(r.payload)
            });
            records.push(OpRecord {
                lane,
                index,
                secs,
                work: 1.0,
                output,
                cached,
            });
        }
        records
    }
}

impl Workload for ServeMix {
    fn params(&self) -> String {
        let mut o = Obj::new();
        o.u64("clients", CLIENTS as u64)
            .u64("job_workers", JOB_WORKERS as u64)
            .u64("cache_mib", (CACHE_BYTES >> 20) as u64)
            .u64("catalog", self.catalog.len() as u64)
            .str("loop", "closed")
            .str("work_unit", "jobs");
        o.build()
    }

    fn setup(&mut self) -> Result<(), String> {
        Server::start(&self.bind)?.stop()
    }

    fn pass(&mut self, limit: &Limit, tr: &Tracer) -> Pass {
        // Every pass starts from a cold cache, so a replay repeats the
        // cold builds and the cache hits of the pass it replays.
        let server = match Server::start(&self.bind) {
            Ok(s) => s,
            Err(e) => {
                return Pass {
                    errors: vec![e],
                    ..Pass::default()
                }
            }
        };
        let first = Mutex::new(HashMap::new());
        let this = &*self;
        let start = Instant::now();
        let records: Vec<OpRecord> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|lane| {
                    let first = &first;
                    s.spawn(move || this.client(lane, limit, start, tr, first))
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client threads catch their panics"))
                .collect()
        });
        let wall_s = start.elapsed().as_secs_f64();
        Pass {
            records,
            wall_s,
            errors: server.stop().err().into_iter().collect(),
        }
    }

    fn round(&self) -> usize {
        if self.smoke {
            4
        } else {
            8
        }
    }

    fn overhead_s(&self) -> f64 {
        6.0
    }
}
