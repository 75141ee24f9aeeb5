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

/// The arguments of an experiment binary. [`CommonOpts::parse`] reads
/// the options every binary shares, `--threads N` and `--obs PATH`;
/// the binary then takes its own flags ([`Self::take_flag`],
/// [`Self::value`]) and, after every flag, its positionals
/// ([`Self::positional`]). [`Self::start_run`] refuses whatever is
/// left or malformed, so a mistyped flag, a bad number or an extra
/// argument exits 2 instead of running with defaults:
///
/// ```no_run
/// let mut opts = secflow_bench::CommonOpts::parse();
/// let smoke = opts.take_flag("--smoke");
/// let n: usize = opts.positional(if smoke { 150 } else { 2000 });
/// let _run = opts.start_run("exp_example");
/// ```
pub struct CommonOpts {
    /// Effective worker-thread count (already applied to the pool).
    pub threads: usize,
    /// Metrics output path from `--obs` / `SECFLOW_OBS`, if any.
    /// Consumed by [`CommonOpts::start_run`].
    pub obs: Option<std::path::PathBuf>,
    /// Arguments not read yet, in their original order.
    args: Vec<String>,
    /// The first value or positional that failed to parse.
    malformed: Option<String>,
}

impl CommonOpts {
    /// Reads `--threads` and `--obs` from `std::env::args()`, applies
    /// the thread count and falls back to a non-empty `SECFLOW_OBS`
    /// for the metrics path. Usage errors are reported by
    /// [`Self::start_run`].
    pub fn parse() -> CommonOpts {
        let mut opts = CommonOpts::new(std::env::args().skip(1).collect());
        if let Some(n) = opts.value("--threads") {
            secflow_exec::set_threads(n);
        }
        opts.threads = secflow_exec::effective_threads();
        opts.obs = opts.value("--obs").or_else(|| {
            std::env::var("SECFLOW_OBS")
                .ok()
                .filter(|v| !v.is_empty())
                .map(std::path::PathBuf::from)
        });
        opts
    }

    /// Options over `args` (without the program name), nothing read
    /// yet and no shared flag applied.
    fn new(args: Vec<String>) -> CommonOpts {
        CommonOpts {
            threads: 0,
            obs: None,
            args,
            malformed: None,
        }
    }

    /// Takes every occurrence of a boolean flag (e.g. `--smoke`);
    /// returns whether it was present.
    pub fn take_flag(&mut self, name: &str) -> bool {
        let present = self.args.iter().any(|a| a == name);
        self.args.retain(|a| a != name);
        present
    }

    /// Takes every `name VALUE` pair and returns the last value,
    /// parsed; `None` if the flag is absent. A missing, empty or
    /// malformed value is kept for [`Self::check`] to report.
    pub fn value<T: std::str::FromStr>(&mut self, name: &str) -> Option<T> {
        let mut last = None;
        while let Some(i) = self.args.iter().position(|a| a == name) {
            self.args.remove(i);
            let v = (i < self.args.len()).then(|| self.args.remove(i));
            last = match v.filter(|v| !v.is_empty()) {
                Some(v) => self.parsed(&v, format!("invalid value `{v}` for {name}")),
                None => {
                    self.malformed
                        .get_or_insert(format!("{name} requires a value"));
                    None
                }
            };
        }
        last
    }

    /// Takes the next positional argument (one not starting with
    /// `--`), parsed, or returns `default` if none is left. Take every
    /// flag first, so that no flag's value is read as a positional. A
    /// malformed argument is kept for [`Self::check`] to report.
    pub fn positional<T: std::str::FromStr>(&mut self, default: T) -> T {
        let Some(i) = self.args.iter().position(|a| !a.starts_with("--")) else {
            return default;
        };
        let a = self.args.remove(i);
        self.parsed(&a, format!("invalid argument `{a}`"))
            .unwrap_or(default)
    }

    /// `text` parsed, or `None` with `what` kept as the first malformed
    /// argument.
    fn parsed<T: std::str::FromStr>(&mut self, text: &str, what: String) -> Option<T> {
        let v = text.parse().ok();
        if v.is_none() {
            self.malformed.get_or_insert(what);
        }
        v
    }

    /// Checks that every argument was read and parsed; the error names
    /// the first unknown flag, else the first malformed value, else
    /// the first argument beyond the positionals the binary takes.
    fn check(&self) -> Result<(), String> {
        if let Some(flag) = self.args.iter().find(|a| a.starts_with("--")) {
            return Err(format!("unknown option `{flag}`"));
        }
        if let Some(msg) = &self.malformed {
            return Err(msg.clone());
        }
        match self.args.first() {
            Some(extra) => Err(format!("unexpected argument `{extra}`")),
            None => Ok(()),
        }
    }

    /// Emits the run-info line and arms observability — call once all
    /// experiment-specific parsing is done. A usage error
    /// ([`Self::check`]) exits with status 2 and one stderr line
    /// instead, before any run-info line. The returned guard must be
    /// kept alive for the whole run: metrics are written when it drops.
    pub fn start_run(&mut self, exp: &'static str) -> RunInfo {
        if let Err(e) = self.check() {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
        emit_run_info(exp, self.threads);
        let obs_path = self.obs.take();
        if obs_path.is_some() && !secflow_obs::start() {
            eprintln!("error: observability session already active");
            std::process::exit(2);
        }
        RunInfo {
            exp,
            threads: self.threads,
            obs_path,
        }
    }
}

/// RAII guard for one experiment run: if an observability path was
/// requested, the session runs until the guard drops, which finishes
/// it and writes the metrics JSON plus the chrome trace next to it.
/// Made by [`CommonOpts::start_run`] *after* all option parsing, so
/// usage errors never produce a run-info line or a partial metrics
/// file.
pub struct RunInfo {
    exp: &'static str,
    threads: usize,
    obs_path: Option<std::path::PathBuf>,
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

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> CommonOpts {
        CommonOpts::new(args.iter().map(|a| a.to_string()).collect())
    }

    /// Reads `args` as `exp_mtd_1m` does: `--smoke`, `--trace-store
    /// DIR` and two numeric positionals.
    fn read(args: &[&str]) -> (Result<(), String>, bool, Option<String>, usize, u64) {
        let mut o = opts(args);
        let smoke = o.take_flag("--smoke");
        let store = o.value("--trace-store");
        let n = o.positional(3000);
        let seed = o.positional(1);
        (o.check(), smoke, store, n, seed)
    }

    #[test]
    fn flags_values_and_positionals_are_read_in_any_order() {
        assert_eq!(read(&[]), (Ok(()), false, None, 3000, 1));
        assert_eq!(read(&["400"]), (Ok(()), false, None, 400, 1));
        let store = Some("d".to_string());
        for args in [
            ["--smoke", "--trace-store", "d", "5", "9"],
            ["5", "--trace-store", "d", "9", "--smoke"],
        ] {
            assert_eq!(read(&args), (Ok(()), true, store.clone(), 5, 9));
        }
    }

    #[test]
    fn unknown_flags_bad_numbers_and_extra_arguments_are_refused() {
        for (args, err) in [
            (
                &["--sim-backend", "bitslice"][..],
                "unknown option `--sim-backend`",
            ),
            (&["400", "--smoke=1"], "unknown option `--smoke=1`"),
            (&["abc"], "invalid argument `abc`"),
            (&["400", "-1"], "invalid argument `-1`"),
            (&["1", "2", "3"], "unexpected argument `3`"),
            (&["--trace-store"], "--trace-store requires a value"),
            (
                &["--trace-store", "", "5"],
                "--trace-store requires a value",
            ),
        ] {
            assert_eq!(read(args).0, Err(err.to_string()), "{args:?}");
        }
        // A binary that reads no argument refuses any.
        assert_eq!(opts(&["5"]).check(), Err("unexpected argument `5`".into()));
    }

    #[test]
    fn shared_values_take_the_last_occurrence_and_refuse_bad_ones() {
        let mut o = opts(&["--threads", "3", "--obs", "m.json", "--threads", "4"]);
        assert_eq!(o.value::<usize>("--threads"), Some(4));
        assert_eq!(o.value("--obs"), Some(std::path::PathBuf::from("m.json")));
        assert_eq!(o.check(), Ok(()));
        for (args, err) in [
            (["--threads", "x"], "invalid value `x` for --threads"),
            (["--threads", "-2"], "invalid value `-2` for --threads"),
            (["--obs", ""], "--obs requires a value"),
        ] {
            let mut o = opts(&args);
            assert_eq!(o.value::<usize>("--threads"), None);
            assert_eq!(o.value::<std::path::PathBuf>("--obs"), None);
            assert_eq!(o.check(), Err(err.to_string()), "{args:?}");
        }
    }
}
