//! The push-button secure design flow CLI — Fig. 1 as a command.
//!
//! Reads a mapped structural-Verilog netlist (the paper's `rtl.v`,
//! the output of logic synthesis), runs the chosen flow's backend and
//! writes all the flow artifacts to an output directory:
//!
//! ```text
//! secflow <rtl.v> --secure --out build/
//!   build/fat.v        the fat netlist (cell substitution output)
//!   build/diff.v       the differential WDDL netlist
//!   build/fat.def      the routed fat design
//!   build/diff.def     the decomposed differential design
//!   build/fat_lib.lef  fat cell abstracts
//!   build/diff_lib.lef differential library abstracts
//!   build/lib.lib      the base library (Liberty-like)
//!   build/report.txt   metrics, timings and verification results
//! ```
//!
//! `--regular` runs the reference flow instead (`layout.def` +
//! report). Options: `--fill <f>`, `--aspect <r>`, `--layers <n>`,
//! `--seed <n>`, `--spaced`, `--shielded`, `--threads <n>` (worker
//! threads for the parallel stages; default `SECFLOW_THREADS` or all
//! cores), `--restarts <n>` (independent placement-annealing
//! restarts, best HPWL wins), `--obs <path>` (write observability
//! metrics JSON there plus a chrome-trace next to it; `SECFLOW_OBS`
//! sets the same path from the environment).
//!
//! Two subcommands wrap the persistent job server (`secflow-serve`):
//!
//! ```text
//! secflow serve  [--socket PATH | --listen ADDR] [--cache-bytes N]
//!                [--cache-dir DIR] [--job-workers N] [--threads N]
//! secflow submit [--socket PATH | --connect ADDR]
//!                [--json TEXT | --file PATH | --shutdown | --stats]
//! ```
//!
//! `serve` runs the daemon with a content-addressed artifact cache;
//! `submit` sends one JSON job (from `--json`, a file, or stdin),
//! writes the deterministic result payload to **stdout** and the
//! envelope (status, per-job cache metrics, structured error) to
//! **stderr**, and exits with the job's stage exit code.

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use secflow::cells::Library;
use secflow::flow::FlowError;
use secflow::flow::{
    run_regular_backend, run_secure_backend, DecomposeStyle, FlowOptions, FlowReport,
};
use secflow::netlist::{parse_verilog, write_verilog};
use secflow::pnr::write_def;

/// Reports a flow failure as a single structured JSON line on stderr
/// (`{"error":{"stage":...,"kind":...,"detail":...}}`) and returns the
/// failing stage's distinct exit code (10–19).
fn fail(e: FlowError) -> ExitCode {
    eprintln!("{}", e.to_json());
    ExitCode::from(u8::try_from(e.exit_code()).unwrap_or(1))
}

struct Args {
    input: PathBuf,
    out: PathBuf,
    secure: bool,
    opts: FlowOptions,
    obs: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: secflow <rtl.v> [--secure|--regular] [--out DIR] [--fill F] [--aspect R]\n\
         \x20              [--layers N] [--seed N] [--spaced|--shielded] [--no-verify]\n\
         \x20              [--threads N] [--restarts N] [--obs PATH]\n\
         \x20      secflow serve  [--socket PATH | --listen ADDR] [--cache-bytes N]\n\
         \x20                     [--cache-dir DIR] [--job-workers N] [--threads N]\n\
         \x20      secflow submit [--socket PATH | --connect ADDR]\n\
         \x20                     [--json TEXT | --file PATH | --shutdown | --stats]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut input = None;
    let mut out = PathBuf::from("build");
    let mut secure = true;
    let mut obs = None;
    let mut opts = FlowOptions::default();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--secure" => secure = true,
            "--regular" => secure = false,
            "--out" => out = PathBuf::from(it.next().unwrap_or_else(|| usage())),
            "--fill" => {
                opts.fill_factor = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--aspect" => {
                opts.aspect_ratio = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--layers" => {
                opts.route.layers = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--seed" => {
                opts.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--threads" => {
                let n: usize = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                secflow::exec::set_threads(n);
            }
            "--restarts" => {
                opts.place_restarts = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n >= 1)
                    .unwrap_or_else(|| usage())
            }
            "--obs" => obs = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            "--spaced" => opts.decompose_style = DecomposeStyle::Spaced,
            "--shielded" => opts.decompose_style = DecomposeStyle::Shielded,
            "--no-verify" => opts.verify = false,
            "--help" | "-h" => usage(),
            _ if input.is_none() && !a.starts_with('-') => input = Some(PathBuf::from(a)),
            _ => usage(),
        }
    }
    // `SECFLOW_OBS` arms observability without touching the command
    // line (useful under wrappers that own the argument list).
    let obs = obs.or_else(|| {
        std::env::var("SECFLOW_OBS")
            .ok()
            .filter(|v| !v.is_empty())
            .map(PathBuf::from)
    });
    Args {
        input: input.unwrap_or_else(|| usage()),
        out,
        secure,
        opts,
        obs,
    }
}

/// Finishes the observability session on every exit path (success or
/// stage failure) and writes the metrics + chrome-trace files.
struct ObsGuard {
    path: Option<PathBuf>,
}

impl Drop for ObsGuard {
    fn drop(&mut self) {
        let Some(path) = self.path.take() else {
            return;
        };
        let Some(report) = secflow::obs::finish() else {
            return;
        };
        let threads = secflow::exec::effective_threads();
        match report.write_files("secflow", threads, &path) {
            Ok(trace) => eprintln!("wrote {} and {}", path.display(), trace.display()),
            Err(e) => eprintln!("error: failed to write {}: {e}", path.display()),
        }
    }
}

fn render_report(kind: &str, r: &FlowReport) -> String {
    let mut s = String::new();
    s.push_str(&format!("secflow {kind} flow report\n"));
    s.push_str(&format!("netlist: {}\n", r.stats));
    s.push_str(&format!("die area: {:.1} um^2\n", r.die_area_um2));
    s.push_str(&format!("cell area: {:.1} um^2\n", r.cell_area_um2));
    s.push_str(&format!(
        "wirelength: {} tracks, {} vias\n",
        r.wirelength_tracks, r.vias
    ));
    s.push_str(&format!("critical path: {:.0} ps\n", r.critical_path_ps));
    if let Some(c) = &r.clock {
        s.push_str(&format!(
            "clock tree: {} sinks, {} buffers, skew {:.1} ps, load {:.1} fF\n",
            c.sinks, c.buffers, c.skew_ps, c.total_cap_ff
        ));
    }
    if let Some(lec) = r.lec_equivalent {
        s.push_str(&format!("equivalence check: {lec}\n"));
    }
    if let Some(mm) = r.mean_pair_mismatch {
        s.push_str(&format!(
            "differential-pair mismatch: mean {:.2}%, max {:.2}%\n",
            mm * 100.0,
            r.max_pair_mismatch.unwrap_or(0.0) * 100.0
        ));
    }
    s.push_str(&format!(
        "stage times (ms): synth {:.0}, substitute {:.0}, place {:.0}, route {:.0}, \
         decompose {:.0}, extract {:.0}, verify {:.0}\n",
        r.synth_ms,
        r.substitute_ms,
        r.place_ms,
        r.route_ms,
        r.decompose_ms,
        r.extract_ms,
        r.verify_ms
    ));
    s
}

/// `secflow serve`: run the persistent job server until a `shutdown`
/// job arrives.
fn cmd_serve(args: &[String]) -> ExitCode {
    let mut opts = secflow::serve::ServerOptions::default();
    let mut it = args.iter();
    let usage = || -> ! {
        eprintln!(
            "usage: secflow serve [--socket PATH | --listen ADDR] [--cache-bytes N]\n\
             \x20                    [--cache-dir DIR] [--job-workers N] [--threads N]"
        );
        std::process::exit(2)
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => {
                opts.bind = secflow::serve::Bind::Unix(PathBuf::from(
                    it.next().unwrap_or_else(|| usage()),
                ))
            }
            "--listen" => {
                opts.bind =
                    secflow::serve::Bind::Tcp(it.next().unwrap_or_else(|| usage()).clone())
            }
            "--cache-bytes" => {
                opts.cache_bytes = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--cache-dir" => {
                opts.cache_dir = Some(PathBuf::from(it.next().unwrap_or_else(|| usage())))
            }
            "--job-workers" => {
                opts.job_workers = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n >= 1)
                    .unwrap_or_else(|| usage())
            }
            "--threads" => {
                let n: usize = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                secflow::exec::set_threads(n);
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    match secflow::serve::serve(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: secflow serve: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `secflow submit`: send one job, print payload to stdout and the
/// envelope to stderr, and exit with the job's stage exit code.
fn cmd_submit(args: &[String]) -> ExitCode {
    let mut bind = secflow::serve::Bind::Unix(PathBuf::from("secflow.sock"));
    let mut request: Option<Vec<u8>> = None;
    let mut it = args.iter();
    let usage = || -> ! {
        eprintln!(
            "usage: secflow submit [--socket PATH | --connect ADDR]\n\
             \x20                     [--json TEXT | --file PATH | --shutdown | --stats]\n\
             (reads the request JSON from stdin when no source flag is given)"
        );
        std::process::exit(2)
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => {
                bind = secflow::serve::Bind::Unix(PathBuf::from(
                    it.next().unwrap_or_else(|| usage()),
                ))
            }
            "--connect" => {
                bind = secflow::serve::Bind::Tcp(it.next().unwrap_or_else(|| usage()).clone())
            }
            "--json" => {
                request = Some(it.next().unwrap_or_else(|| usage()).clone().into_bytes())
            }
            "--file" => {
                let path = it.next().unwrap_or_else(|| usage());
                match fs::read(path) {
                    Ok(b) => request = Some(b),
                    Err(e) => {
                        eprintln!("error: cannot read {path}: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
            "--shutdown" => request = Some(b"{\"job\":\"shutdown\"}".to_vec()),
            "--stats" => request = Some(b"{\"job\":\"stats\"}".to_vec()),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    let request = request.unwrap_or_else(|| {
        use std::io::Read;
        let mut buf = Vec::new();
        if std::io::stdin().read_to_end(&mut buf).is_err() || buf.is_empty() {
            usage();
        }
        buf
    });
    let response = match secflow::serve::submit(&bind, &request) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: secflow submit: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("{}", response.envelope);
    use std::io::Write;
    let mut stdout = std::io::stdout().lock();
    if stdout
        .write_all(&response.payload)
        .and_then(|()| {
            if response.payload.is_empty() {
                Ok(())
            } else {
                stdout.write_all(b"\n")
            }
        })
        .is_err()
    {
        return ExitCode::FAILURE;
    }
    drop(stdout);
    // The envelope carries the job's stage exit code; mirror it so
    // `submit` scripts like CLI runs.
    match secflow::serve::Value::parse(&response.envelope) {
        Ok(v) if v.get("ok").and_then(secflow::serve::Value::as_bool) == Some(true) => {
            ExitCode::SUCCESS
        }
        Ok(v) => ExitCode::from(
            v.get("exit_code")
                .and_then(secflow::serve::Value::as_u64)
                .and_then(|c| u8::try_from(c).ok())
                .unwrap_or(1),
        ),
        Err(_) => ExitCode::FAILURE,
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("serve") => return cmd_serve(&argv[1..]),
        Some("submit") => return cmd_submit(&argv[1..]),
        _ => {}
    }
    let args = parse_args();
    let _obs_guard = if args.obs.is_some() {
        secflow::obs::start();
        ObsGuard {
            path: args.obs.clone(),
        }
    } else {
        ObsGuard { path: None }
    };
    let lib = Library::lib180();

    let text = match fs::read_to_string(&args.input) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", args.input.display());
            return ExitCode::FAILURE;
        }
    };
    let netlist = match parse_verilog(&text, &lib.seq_cell_names()) {
        Ok(nl) => nl,
        Err(e) => return fail(FlowError::Parse(e)),
    };
    if let Err(e) = netlist.validate() {
        return fail(FlowError::Parse(e));
    }
    if let Err(e) = fs::create_dir_all(&args.out) {
        eprintln!("error: cannot create {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    let write = |name: &str, data: &str| {
        let path = args.out.join(name);
        fs::write(&path, data).unwrap_or_else(|e| {
            eprintln!("error: cannot write {}: {e}", path.display());
            std::process::exit(1);
        });
        eprintln!("wrote {}", path.display());
    };
    write("lib.lib", &lib.to_liberty("lib180"));

    if args.secure {
        let result = {
            let _flow = secflow::obs::span("flow.secure");
            match run_secure_backend(netlist, &lib, &args.opts, 0.0) {
                Ok(r) => r,
                Err(e) => return fail(e),
            }
        };
        write("fat.v", &write_verilog(&result.substitution.fat));
        write("diff.v", &write_verilog(&result.substitution.differential));
        write(
            "fat.def",
            &write_def(&result.fat_routed, &result.substitution.fat),
        );
        write(
            "diff.def",
            &write_def(&result.decomposed, &result.substitution.differential),
        );
        write(
            "fat_lib.lef",
            &result.substitution.fat_lib.to_lef("fat_lib", 2),
        );
        write(
            "diff_lib.lef",
            &result.substitution.diff_lib.to_lef("diff_lib", 1),
        );
        let report = render_report("secure", &result.report);
        write("report.txt", &report);
        print!("{report}");
    } else {
        let result = {
            let _flow = secflow::obs::span("flow.regular");
            match run_regular_backend(netlist, &lib, &args.opts, 0.0) {
                Ok(r) => r,
                Err(e) => return fail(e),
            }
        };
        write("layout.def", &write_def(&result.routed, &result.netlist));
        let report = render_report("regular", &result.report);
        write("report.txt", &report);
        print!("{report}");
    }
    ExitCode::SUCCESS
}
