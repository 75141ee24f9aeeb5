//! `secbench`: end-to-end and per-layer benchmark of the secflow
//! workspace.
//!
//! ```text
//! secbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!          [--trace-out FILE] [--smoke]
//! ```
//!
//! Each workload runs in a child process of its own under a wall-clock
//! limit, with `SECFLOW_THREADS=2`. The child prints a metadata line,
//! one JSON line per metric (`name`, `unit`, `workload`, `value`), the
//! workload's `output_digest`, and as its last line the result object
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics of `BENCHMARK.json`; `--trace 1` replays the
//! measured operations under tracing and reports the per-layer ones.
//! Without `--workload` every workload runs in turn. See `README.md`.

mod gen;
mod run;
mod trace;
mod workloads;

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use secflow_obs::json::Obj;
use secflow_serve::ContentHash;

use run::{guarded, median, Limit, Pass};
use trace::Tracer;
use workloads::NAMES;

const USAGE: &str = "usage: secbench [--workload fig6_des|mtd_stream|flow_synth|serve_mix] \
[--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE] [--smoke]";

/// Set-up repetitions of an end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Worker threads of every workload process.
const THREADS: &str = "2";
/// A child's wall clock is capped here whatever its expected time, so
/// a run always ends within three minutes.
const CHILD_LIMIT_S: f64 = 170.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    smoke: bool,
    child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        trace_out: None,
        smoke: false,
        child: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !NAMES.contains(&w.as_str()) {
                    return Err(format!("unknown workload `{w}`"));
                }
                a.workload = Some(w);
            }
            "--seed" => a.seed = value("a number")?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                a.seconds = value("a number")?.parse().map_err(|_| "bad --seconds")?;
                if !(0.0..=120.0).contains(&a.seconds) {
                    return Err("--seconds must be within 0..=120".into());
                }
            }
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--trace-out" => a.trace_out = Some(PathBuf::from(value("a file")?)),
            "--smoke" => a.smoke = true,
            "--child" => a.child = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if a.child && a.workload.is_none() {
        return Err("--child needs --workload".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        return run_child(&args);
    }
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => NAMES.to_vec(),
    };
    let mut ok = true;
    for name in names {
        ok &= supervise(&args, name);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload in a child process, forwarding its standard
/// output, and kills it after four times its expected duration. A
/// child that hangs, aborts or crashes yields a failed result.
fn supervise(args: &Args, name: &str) -> bool {
    let overhead = workloads::make(name, args.seed, args.smoke, args.trace)
        .expect("names are validated")
        .overhead_s();
    let seconds = if args.smoke { 0.0 } else { args.seconds };
    let limit = Duration::from_secs_f64((4.0 * (seconds + overhead)).min(CHILD_LIMIT_S));
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => return child_failed(name, &format!("cannot locate own executable: {e}")),
    };
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .env("SECFLOW_THREADS", THREADS)
        .stdout(Stdio::piped());
    if let Some(p) = &args.trace_out {
        cmd.arg("--trace-out").arg(p);
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    let mut child = match cmd.spawn() {
        Ok(c) => c,
        Err(e) => return child_failed(name, &format!("cannot start: {e}")),
    };
    let stdout = child.stdout.take().expect("stdout is piped");
    let forward = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            println!("{line}");
        }
    });
    let start = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Some(status),
            Ok(None) if start.elapsed() < limit => std::thread::sleep(Duration::from_millis(20)),
            Ok(None) | Err(_) => {
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
        }
    };
    let _ = forward.join();
    match status {
        Some(s) if s.success() => true,
        Some(s) => child_failed(name, &format!("exited with {s}")),
        None => child_failed(name, &format!("killed after {:.0} s", limit.as_secs_f64())),
    }
}

fn child_failed(name: &str, why: &str) -> bool {
    eprintln!("secbench: {name}: {why}");
    println!("{{\"correct\":false,\"attempted\":1,\"failed\":1,\"metrics\":{{}}}}");
    false
}

/// Counts attempted and failed operations and checks.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    fn check(&mut self, what: &str, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failed += 1;
            eprintln!("secbench: {what}: {e}");
        }
    }

    fn pass(&mut self, what: &str, p: &Pass) {
        self.attempted += p.attempted();
        self.failed += p.failed();
        for e in &p.errors {
            eprintln!("secbench: {what}: {e}");
        }
        for r in &p.records {
            if let Err(e) = &r.output {
                eprintln!("secbench: {what}: operation {}/{}: {e}", r.lane, r.index);
            }
        }
    }
}

fn run_child(args: &Args) -> ExitCode {
    let name = args.workload.as_deref().expect("checked by parse_args");
    let mut w =
        workloads::make(name, args.seed, args.smoke, args.trace).expect("names are validated");
    println!("{}", meta_line(args, name, &w.params()));
    let mut tally = Tally::default();

    let reps = if args.smoke || args.trace {
        1
    } else {
        SETUP_REPS
    };
    let mut setup_s = Vec::new();
    for _ in 0..reps {
        let t = Instant::now();
        let r = guarded(|| w.setup());
        setup_s.push(t.elapsed().as_secs_f64());
        tally.check("set-up", r);
    }
    if tally.failed > 0 {
        return finish(name, &tally, &[], None);
    }
    tally.check("output check", guarded(|| w.precheck()));

    let seconds = if args.smoke { 0.0 } else { args.seconds };
    let (metrics, digest) = if args.trace {
        let untraced = w.pass(
            &Limit::Time(Duration::from_secs_f64(seconds / 2.0)),
            &Tracer::off(),
        );
        tally.pass("untraced pass", &untraced);
        let tracer = Tracer::on();
        let (traced, report) =
            secflow_obs::capture(|| w.pass(&Limit::Counts(untraced.counts()), &tracer));
        tally.pass("traced pass", &traced);
        tally.check("traced outputs", same_outputs(&untraced, &traced));
        let spans = tracer.spans();
        if let Some(path) = &args.trace_out {
            let r = trace::write_chrome_trace(path, &report, &spans).map_err(|e| e.to_string());
            tally.check("chrome trace", r);
        }
        let overhead = 100.0 * (traced.op_secs() / untraced.op_secs() - 1.0);
        let metrics = trace::layer_metrics(&report, &spans, &traced, overhead);
        (metrics, digest(&untraced, w.round()))
    } else {
        let pass = w.pass(
            &Limit::Time(Duration::from_secs_f64(seconds)),
            &Tracer::off(),
        );
        tally.pass("pass", &pass);
        let ok: Vec<_> = pass.records.iter().filter(|r| r.output.is_ok()).collect();
        let secs: Vec<f64> = ok.iter().map(|r| r.secs).collect();
        // One lane: the median operation's rate, so that one congested
        // routing run does not swing the result. Concurrent clients:
        // completed work over the pass's wall time.
        let work_per_s = if pass.counts().len() == 1 {
            median(&ok.iter().map(|r| r.work / r.secs).collect::<Vec<_>>())
        } else {
            ok.iter().map(|r| r.work).sum::<f64>() / pass.wall_s
        };
        let metrics = vec![
            ("setup_s".to_string(), "s", median(&setup_s)),
            ("e2e_p50_s".to_string(), "s", median(&secs)),
            ("work_per_s".to_string(), "1/s", work_per_s),
            ("peak_rss_mb".to_string(), "MB", peak_rss_kb() / 1024.0),
        ];
        (metrics, digest(&pass, w.round()))
    };
    finish(name, &tally, &metrics, Some(digest))
}

/// Prints the metric lines, the digest line and the result line.
fn finish(
    name: &str,
    tally: &Tally,
    metrics: &[(String, &str, f64)],
    digest: Option<ContentHash>,
) -> ExitCode {
    let mut all = Obj::new();
    for (metric, unit, value) in metrics {
        let mut line = Obj::new();
        line.str("name", metric)
            .str("unit", unit)
            .str("workload", name)
            .f64("value", *value);
        println!("{}", line.build());
        let mut m = Obj::new();
        m.f64("value", *value).str("unit", unit);
        all.raw(metric, &m.build());
    }
    if let Some(d) = digest {
        let mut line = Obj::new();
        line.str("workload", name).str("output_digest", &d.to_hex());
        println!("{}", line.build());
    }
    let correct = tally.failed == 0;
    let mut result = Obj::new();
    result
        .raw("correct", if correct { "true" } else { "false" })
        .u64("attempted", tally.attempted.max(1) as u64)
        .u64("failed", tally.failed as u64)
        .raw("metrics", &all.build());
    println!("{}", result.build());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A traced replay must reproduce every output of the pass it replays.
fn same_outputs(a: &Pass, b: &Pass) -> Result<(), String> {
    let (a, b) = (a.outputs(), b.outputs());
    if a.len() != b.len() {
        return Err(format!("{} operations replayed as {}", a.len(), b.len()));
    }
    for ((key, x), (_, y)) in a.iter().zip(&b) {
        if let (Ok(x), Ok(y)) = (x, y) {
            if x != y {
                return Err(format!(
                    "operation {}/{} changed under tracing",
                    key.0, key.1
                ));
            }
        }
    }
    Ok(())
}

/// Content hash of the first `n` outputs of lane 0, which every pass of
/// the same seed produces whatever its speed.
fn digest(pass: &Pass, n: usize) -> ContentHash {
    let mut bytes = Vec::new();
    for ((lane, index), out) in pass.outputs() {
        if lane == 0 && index < n {
            let out: &[u8] = out.as_deref().unwrap_or(b"failed");
            bytes.extend_from_slice(&(out.len() as u64).to_le_bytes());
            bytes.extend_from_slice(out);
        }
    }
    ContentHash::of(&bytes)
}

/// Peak resident set of this process (`VmHWM`), in KiB.
fn peak_rss_kb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0.0)
}

/// The run's metadata: what was measured, on what, from which code.
fn meta_line(args: &Args, name: &str, params: &str) -> String {
    let capture = |cmd: &mut Command| {
        cmd.stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    // Only a repository rooted at the working directory counts; git
    // must not walk up into whatever directory holds the checkout.
    let git = |git_args: &[&str]| {
        let mut cmd = Command::new("git");
        cmd.args(git_args);
        if let Some(parent) = std::env::current_dir()
            .ok()
            .and_then(|d| d.parent().map(PathBuf::from))
        {
            cmd.env("GIT_CEILING_DIRECTORIES", parent);
        }
        capture(&mut cmd)
    };
    let commit = git(&["rev-parse", "HEAD"]);
    let dirty = commit
        .as_ref()
        .and(git(&["status", "--porcelain", "--untracked-files=no"]))
        .map(|s| !s.is_empty());
    let rustc = capture(Command::new("rustc").arg("-V"));
    let cpu = std::fs::read_to_string("/proc/cpuinfo").ok().and_then(|s| {
        s.lines()
            .find_map(|l| l.strip_prefix("model name"))
            .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
    });
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut m = Obj::new();
    m.str("benchmark", "secbench")
        .str("version", env!("CARGO_PKG_VERSION"))
        .str("git_commit", commit.as_deref().unwrap_or("unknown"))
        .raw("git_dirty", &dirty.map_or("null".into(), |d| d.to_string()))
        .str("rustc", rustc.as_deref().unwrap_or("unknown"))
        .str("cpu", cpu.as_deref().unwrap_or("unknown"))
        .u64("nproc", nproc as u64)
        .u64("secflow_threads", secflow_exec::effective_threads() as u64)
        .str("workload", name)
        .u64("seed", args.seed)
        .f64("seconds", if args.smoke { 0.0 } else { args.seconds })
        .raw("trace", if args.trace { "true" } else { "false" })
        .raw("smoke", if args.smoke { "true" } else { "false" })
        .raw("params", params);
    let mut line = Obj::new();
    line.raw("meta", &m.build());
    line.build()
}
