//! Shared experiment plumbing for the benchmark harness: builds the
//! paper's two DES-module implementations (regular flow vs secure
//! flow) and provides consistent reporting helpers.

pub mod seed_engine;

use secflow_cells::Library;
use secflow_core::{
    run_regular_flow, run_secure_flow, FlowError, FlowOptions, RegularFlowResult, SecureFlowResult,
};
use secflow_crypto::dpa_module::des_dpa_design;
use secflow_dpa::harness::DesTarget;
use secflow_sim::{CycleDriver, SimBackend, SimConfig};

/// Exit code for failures in post-flow analysis (stats, attacks) that
/// have no [`secflow_core::Stage`] of their own.
pub const ANALYSIS_EXIT_CODE: i32 = secflow_dpa::error::ANALYSIS_EXIT_CODE;

/// Reports a flow error as a structured single-line JSON object on
/// stderr — `{"error":{"stage":...,"kind":...,"detail":...}}` — and
/// exits with the originating stage's exit code (10–19).
pub fn exit_with_flow_error(e: &FlowError) -> ! {
    eprintln!("{}", e.to_json());
    std::process::exit(e.exit_code());
}

/// Unwraps a stage result or exits with the structured stderr report;
/// any stage error convertible to [`FlowError`] (placement, routing,
/// simulation, ...) gets its stage's exit code.
pub fn ok_or_exit<T, E: Into<FlowError>>(r: Result<T, E>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => exit_with_flow_error(&e.into()),
    }
}

/// Unwraps a post-flow analysis result (energy statistics, attack
/// bookkeeping) or exits with a structured stderr report under the
/// `analysis` pseudo-stage and [`ANALYSIS_EXIT_CODE`].
pub fn analysis_or_exit<T, E: std::fmt::Display>(r: Result<T, E>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => {
            let mut inner = secflow_obs::json::Obj::new();
            inner
                .str("stage", "analysis")
                .str("kind", "Analysis")
                .str("detail", &format!("{e}"));
            let mut outer = secflow_obs::json::Obj::new();
            outer.raw("error", &inner.build());
            eprintln!("{}", outer.build());
            std::process::exit(ANALYSIS_EXIT_CODE);
        }
    }
}

/// Both implementations of the Fig. 4 DES module, fully placed,
/// routed and extracted.
pub struct DesImplementations {
    /// The base standard cell library.
    pub lib: Library,
    /// Regular (reference) flow result.
    pub regular: RegularFlowResult,
    /// Secure flow result.
    pub secure: SecureFlowResult,
}

/// Runs both flows on the DES DPA module with the paper's settings
/// (aspect ratio 1, fill factor 80 %).
///
/// # Errors
///
/// Returns the first stage's [`FlowError`] if either flow fails.
pub fn try_build_des_implementations() -> Result<DesImplementations, FlowError> {
    let design = des_dpa_design();
    let lib = Library::lib180();
    let opts = FlowOptions::default();
    let regular = run_regular_flow(&design, &lib, &opts)?;
    let secure = run_secure_flow(&design, &lib, &opts)?;
    Ok(DesImplementations {
        lib,
        regular,
        secure,
    })
}

/// [`try_build_des_implementations`], reporting any flow failure as a
/// structured stderr line and exiting with the stage's code — the
/// entry point experiment binaries use.
pub fn build_des_implementations() -> DesImplementations {
    ok_or_exit(try_build_des_implementations())
}

impl DesImplementations {
    /// Simulation target for the regular implementation (with layout
    /// parasitics), on the 64-lane kernel.
    pub fn regular_target(&self) -> DesTarget<'_> {
        DesTarget {
            netlist: &self.regular.netlist,
            lib: &self.lib,
            parasitics: Some(&self.regular.parasitics),
            driver: CycleDriver::SingleEnded,
            backend: SimBackend::Bitslice,
        }
    }

    /// Simulation target for the secure implementation (with layout
    /// parasitics of the decomposed differential design), on the
    /// 64-lane kernel.
    pub fn secure_target(&self) -> DesTarget<'_> {
        DesTarget {
            netlist: &self.secure.substitution.differential,
            lib: &self.secure.substitution.diff_lib,
            parasitics: Some(&self.secure.parasitics),
            driver: CycleDriver::Wddl(&self.secure.substitution.input_pairs),
            backend: SimBackend::Bitslice,
        }
    }
}

/// The paper's measurement configuration: 125 MHz, 800 samples per
/// cycle, 1.8 V.
pub fn paper_sim_config() -> SimConfig {
    SimConfig::default()
}

/// Strips a `--threads N` flag from `args`, applies it via
/// [`secflow_exec::set_threads`], and returns the effective worker
/// count. Exits with status 2 on a malformed value; leaves every
/// other argument in place, so positional parsing can proceed on the
/// remainder.
pub fn parse_threads(args: &mut Vec<String>) -> usize {
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--threads" {
            let Some(n) = args.get(i + 1).and_then(|v| v.parse::<usize>().ok()) else {
                eprintln!("error: --threads requires a positive integer");
                std::process::exit(2);
            };
            secflow_exec::set_threads(n);
            args.drain(i..i + 2);
        } else {
            i += 1;
        }
    }
    secflow_exec::effective_threads()
}

/// Emits the experiment's run-info JSON line to **stderr** — stderr so
/// experiment stdout stays byte-identical across thread counts (the
/// determinism gate compares it). Called only after *all* option
/// parsing succeeded, so a usage error produces exactly one stderr
/// line (its own) and no run-info line.
pub fn emit_run_info(exp: &str, threads: usize) {
    let mut obj = secflow_obs::json::Obj::new();
    obj.str("exp", exp).u64("threads", threads as u64);
    eprintln!("{}", obj.build());
}

/// Strips a `--obs PATH` flag from `args` and returns the metrics
/// output path, falling back to a non-empty `SECFLOW_OBS` environment
/// variable. Exits with status 2 if the flag is given without a path.
/// Like [`parse_threads`], leaves every other argument in place.
pub fn parse_obs(args: &mut Vec<String>) -> Option<std::path::PathBuf> {
    let mut path = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--obs" {
            let Some(p) = args.get(i + 1).filter(|p| !p.is_empty()) else {
                eprintln!("error: --obs requires an output path");
                std::process::exit(2);
            };
            path = Some(std::path::PathBuf::from(p));
            args.drain(i..i + 2);
        } else {
            i += 1;
        }
    }
    path.or_else(|| {
        std::env::var("SECFLOW_OBS")
            .ok()
            .filter(|v| !v.is_empty())
            .map(std::path::PathBuf::from)
    })
}

/// The options every experiment binary shares — `--threads N` and
/// `--obs PATH` — parsed in one pass, plus the remaining (positional)
/// arguments. This is the single entry point the `exp_*` binaries
/// use, so a new shared flag is added here once rather than in each:
///
/// ```no_run
/// let mut opts = secflow_bench::CommonOpts::parse();
/// let smoke = opts.take_flag("--smoke");
/// let n: usize = opts.args.first().and_then(|a| a.parse().ok()).unwrap_or(2000);
/// let _run = opts.start_run("exp_example");
/// ```
pub struct CommonOpts {
    /// Effective worker-thread count (already applied to the pool).
    pub threads: usize,
    /// Metrics output path from `--obs` / `SECFLOW_OBS`, if any.
    /// Consumed by [`CommonOpts::start_run`].
    pub obs: Option<std::path::PathBuf>,
    /// Arguments left over after the shared flags were stripped, in
    /// their original order — positional parsing proceeds on these.
    pub args: Vec<String>,
}

impl CommonOpts {
    /// Parses the shared flags out of `std::env::args()`. Exits with
    /// status 2 on a malformed value, before any run-info line is
    /// emitted.
    pub fn parse() -> CommonOpts {
        let mut args: Vec<String> = std::env::args().skip(1).collect();
        let threads = parse_threads(&mut args);
        let obs = parse_obs(&mut args);
        CommonOpts { threads, obs, args }
    }

    /// Strips every occurrence of a boolean flag (e.g. `--smoke`) from
    /// the remaining arguments; returns whether it was present.
    pub fn take_flag(&mut self, name: &str) -> bool {
        let present = self.args.iter().any(|a| a == name);
        self.args.retain(|a| a != name);
        present
    }

    /// Emits the run-info line and arms observability — call once all
    /// experiment-specific parsing has succeeded. Equivalent to
    /// [`start_run`] with this struct's fields; the obs path is
    /// consumed.
    pub fn start_run(&mut self, exp: &'static str) -> RunInfo {
        start_run(exp, self.threads, self.obs.take())
    }
}

/// RAII guard for one experiment run: emits the run-info line and, if
/// an observability path was requested, starts the session. On drop it
/// finishes the session and writes the metrics JSON plus the chrome
/// trace next to it.
///
/// Construct with [`start_run`] *after* all option parsing, so usage
/// errors never produce a run-info line or a partial metrics file.
pub struct RunInfo {
    exp: &'static str,
    threads: usize,
    obs_path: Option<std::path::PathBuf>,
}

/// Emits the run-info stderr line and arms observability when
/// `obs_path` is set (from [`parse_obs`]). The returned guard must be
/// kept alive for the whole run: metrics are written when it drops.
pub fn start_run(
    exp: &'static str,
    threads: usize,
    obs_path: Option<std::path::PathBuf>,
) -> RunInfo {
    emit_run_info(exp, threads);
    if obs_path.is_some() && !secflow_obs::start() {
        eprintln!("error: observability session already active");
        std::process::exit(2);
    }
    RunInfo {
        exp,
        threads,
        obs_path,
    }
}

impl Drop for RunInfo {
    fn drop(&mut self) {
        let Some(path) = self.obs_path.take() else {
            return;
        };
        let Some(report) = secflow_obs::finish() else {
            return;
        };
        match report.write_files(self.exp, self.threads, &path) {
            Ok(trace) => eprintln!(
                "wrote {} and {}",
                path.display(),
                trace.display()
            ),
            Err(e) => eprintln!("error: failed to write {}: {e}", path.display()),
        }
    }
}

/// Prints a labelled table row (fixed-width columns, for experiment
/// output).
pub fn row(label: &str, reference: impl std::fmt::Display, secure: impl std::fmt::Display) {
    println!("{label:<38} {reference:>16} {secure:>16}");
}

/// Prints a table header with the default reference/secure columns.
pub fn header(title: &str) {
    header_cols(title, "reference", "secure");
}

/// Prints a table header with custom column labels.
pub fn header_cols(title: &str, col1: &str, col2: &str) {
    println!("\n=== {title} ===");
    println!("{:<38} {col1:>16} {col2:>16}", "metric");
}
