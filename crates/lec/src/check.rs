//! Combinational equivalence checking between two mapped netlists.
//!
//! Both engines walk each netlist with the zero-delay evaluator of
//! `secflow_sim::functional`: the BDD engine over BDD nodes, the
//! random engine over 64-pattern words.

use std::collections::HashMap;
use std::fmt;

use secflow_rand::{RngExt, SeedableRng, StdRng};

use secflow_cells::Library;
use secflow_netlist::{NetId, Netlist};
use secflow_sim::functional::{registers, Logic, Program, Words};

use crate::bdd::{Bdd, BddRef};

/// Why an equivalence check could not even start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LecError {
    /// The two designs' interfaces do not correspond.
    PortMismatch {
        /// Description of the mismatch.
        reason: String,
    },
    /// A netlist is structurally unusable (cyclic, unknown cell, wrong
    /// pin count).
    BadNetlist {
        /// Description of the problem.
        reason: String,
    },
}

impl fmt::Display for LecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LecError::PortMismatch { reason } => write!(f, "port mismatch: {reason}"),
            LecError::BadNetlist { reason } => write!(f, "bad netlist: {reason}"),
        }
    }
}

impl std::error::Error for LecError {}

/// The outcome of an equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquivReport {
    /// True if no difference was found (for the BDD engine this is a
    /// proof; for random simulation it only means no counterexample
    /// was found).
    pub equivalent: bool,
    /// Index of the first differing primary output, with a
    /// counterexample assignment over the shared source variables.
    pub failing_output: Option<(usize, Vec<bool>)>,
    /// Index of the first differing register next-state function, with
    /// a counterexample.
    pub failing_register: Option<(usize, Vec<bool>)>,
}

/// Shared source variables and compare points: primary inputs matched
/// by name, registers by declaration order, outputs by position.
struct Sources {
    /// Per netlist: net of each variable (inputs, then register outputs).
    var_nets_a: Vec<NetId>,
    var_nets_b: Vec<NetId>,
    /// Compare points in report order, the primary outputs and then the
    /// register D inputs: the first design's net, the second's, and
    /// whether the second is compared complemented.
    points: Vec<(NetId, NetId, bool)>,
    /// Primary outputs at the head of `points`.
    n_outputs: usize,
}

impl Sources {
    /// The report for `failure`, the first failing compare point with
    /// its counterexample, or for no failure.
    fn report(&self, failure: Option<(usize, Vec<bool>)>) -> EquivReport {
        let mut r = EquivReport {
            equivalent: failure.is_none(),
            failing_output: None,
            failing_register: None,
        };
        match failure {
            Some((p, cex)) if p < self.n_outputs => r.failing_output = Some((p, cex)),
            Some((p, cex)) => r.failing_register = Some((p - self.n_outputs, cex)),
            None => {}
        }
        r
    }
}

fn build_sources(
    nl_a: &Netlist,
    nl_b: &Netlist,
    out_parity_b: Option<&[bool]>,
    reg_parity_b: Option<&[bool]>,
) -> Result<Sources, LecError> {
    let same_count = |what: &str, a: usize, b: usize| {
        (a == b)
            .then_some(())
            .ok_or_else(|| LecError::PortMismatch {
                reason: format!("{what} counts differ: {a} vs {b}"),
            })
    };
    same_count("input", nl_a.inputs().len(), nl_b.inputs().len())?;
    let names_a: HashMap<&str, NetId> = (nl_a.inputs().iter())
        .map(|&n| (nl_a.net(n).name.as_str(), n))
        .collect();
    let mut var_nets_a = Vec::new();
    for &nb in nl_b.inputs() {
        let name = nl_b.net(nb).name.as_str();
        var_nets_a.push(*names_a.get(name).ok_or_else(|| LecError::PortMismatch {
            reason: format!("input `{name}` missing in first design"),
        })?);
    }
    let (regs_a, regs_b) = (registers(nl_a), registers(nl_b));
    same_count("register", regs_a.len(), regs_b.len())?;
    same_count("output", nl_a.outputs().len(), nl_b.outputs().len())?;
    // A polarity table covers every output (register) of the second
    // design, no more and no fewer.
    for (what, parity, count) in [
        ("output", out_parity_b, nl_b.outputs().len()),
        ("register", reg_parity_b, regs_b.len()),
    ] {
        if let Some(p) = parity.filter(|p| p.len() != count) {
            return Err(LecError::PortMismatch {
                reason: format!(
                    "{what} polarity table has {} entries for {count} {what}s",
                    p.len()
                ),
            });
        }
    }
    var_nets_a.extend(regs_a.iter().map(|&(_, q)| q));
    let var_nets_b = (nl_b.inputs().iter().copied())
        .chain(regs_b.iter().map(|&(_, q)| q))
        .collect();
    let flip = |parity: Option<&[bool]>, i: usize| parity.is_some_and(|p| p[i]);
    let outputs = (nl_a.outputs().iter().zip(nl_b.outputs()).enumerate())
        .map(|(i, (&a, &b))| (a, b, flip(out_parity_b, i)));
    let regs = (regs_a.iter().zip(&regs_b).enumerate())
        .map(|(i, (&(a, _), &(b, _)))| (a, b, flip(reg_parity_b, i)));
    Ok(Sources {
        var_nets_a,
        var_nets_b,
        points: outputs.chain(regs).collect(),
        n_outputs: nl_a.outputs().len(),
    })
}

/// Compiles `nl` for the zero-delay walk.
fn compile(nl: &Netlist, lib: &Library) -> Result<Program, LecError> {
    let prog = Program::compile(nl, lib).map_err(|e| LecError::BadNetlist {
        reason: e.to_string(),
    })?;
    secflow_obs::add(secflow_obs::Counter::LecCellMemoHits, prog.memo_hits());
    Ok(prog)
}

/// The BDD of every net: each gate is the Shannon expansion of its
/// truth table over its input BDDs.
impl Logic for Bdd {
    type Value = BddRef;
    fn constant(&mut self, v: bool) -> BddRef {
        if v {
            BddRef::TRUE
        } else {
            BddRef::FALSE
        }
    }
    fn ite(&mut self, s: BddRef, hi: BddRef, lo: BddRef) -> BddRef {
        Bdd::ite(self, s, hi, lo)
    }
}

/// Builds BDDs for every net of the combinational portion of `nl`, with
/// variable `v` on net `var_nets[v]`.
fn netlist_bdds(
    bdd: &mut Bdd,
    nl: &Netlist,
    lib: &Library,
    var_nets: &[NetId],
) -> Result<Vec<BddRef>, LecError> {
    let prog = compile(nl, lib)?;
    let vars: Vec<(NetId, BddRef)> = (0..)
        .zip(var_nets)
        .map(|(v, &net)| (net, bdd.var(v)))
        .collect();
    Ok(prog.eval(bdd, BddRef::FALSE, vars))
}

/// Proves or refutes combinational equivalence of two netlists using
/// BDDs.
///
/// Primary inputs are matched by name, registers by declaration order,
/// primary outputs by position. `out_parity_b` optionally complements
/// selected outputs of the second design before comparison (the fat
/// netlist's output-polarity table), and `reg_parity_b[i]` declares
/// that register `i` of the second design is *inverting*
/// (`Q <= ¬D`), so its next-state function is compared complemented.
/// The WDDL fat netlist records absorbed inverter polarity this way
/// (the `W_DFFN` fat register).
///
/// # Errors
///
/// Returns [`LecError`] if the interfaces do not correspond or a
/// netlist is unusable.
pub fn check_equiv_with_parity(
    nl_a: &Netlist,
    lib_a: &Library,
    nl_b: &Netlist,
    lib_b: &Library,
    out_parity_b: Option<&[bool]>,
    reg_parity_b: Option<&[bool]>,
) -> Result<EquivReport, LecError> {
    let _span = secflow_obs::span("lec.bdd");
    let src = build_sources(nl_a, nl_b, out_parity_b, reg_parity_b)?;
    let mut bdd = Bdd::new();
    let refs_a = netlist_bdds(&mut bdd, nl_a, lib_a, &src.var_nets_a)?;
    let refs_b = netlist_bdds(&mut bdd, nl_b, lib_b, &src.var_nets_b)?;
    secflow_obs::add(
        secflow_obs::Counter::LecOutputs,
        nl_a.outputs().len() as u64,
    );
    let mut failure = None;
    for (i, &(a, b, flip)) in src.points.iter().enumerate() {
        let mut fb = refs_b[b.index()];
        if flip {
            fb = bdd.not(fb);
        }
        let miter = bdd.xor(refs_a[a.index()], fb);
        if let Some(cex) = bdd.any_sat(miter, src.var_nets_a.len()) {
            failure = Some((i, cex));
            break;
        }
    }
    secflow_obs::add(secflow_obs::Counter::LecIteCacheHits, bdd.ite_cache_hits());
    secflow_obs::gauge_max(secflow_obs::Gauge::LecBddPeakNodes, bdd.node_count() as u64);
    Ok(src.report(failure))
}

/// Random-simulation variant of [`check_equiv_with_parity`]:
/// `rounds × 64` random source patterns. Fast and scalable, but only
/// ever *refutes* equivalence.
///
/// Rounds run in parallel (`secflow-exec`); each round's 64 random
/// vectors come from an independent generator seeded by
/// `split_seed(seed, round)`, so a round's stimulus does not depend
/// on how many rounds precede it. When several rounds find a
/// counterexample, the one from the lowest round index is reported —
/// the result is byte-identical at any thread count.
///
/// # Errors
///
/// Returns [`LecError`] if the interfaces do not correspond or a
/// netlist is unusable.
#[allow(clippy::too_many_arguments)]
pub fn check_equiv_random_with_parity(
    nl_a: &Netlist,
    lib_a: &Library,
    nl_b: &Netlist,
    lib_b: &Library,
    out_parity_b: Option<&[bool]>,
    reg_parity_b: Option<&[bool]>,
    rounds: usize,
    seed: u64,
) -> Result<EquivReport, LecError> {
    let _span = secflow_obs::span("lec.random");
    secflow_obs::add(secflow_obs::Counter::LecRandomRounds, rounds as u64);
    secflow_obs::add(
        secflow_obs::Counter::LecOutputs,
        nl_a.outputs().len() as u64,
    );
    let src = build_sources(nl_a, nl_b, out_parity_b, reg_parity_b)?;
    // Both netlists are compiled once and shared read-only across rounds.
    let prog_a = compile(nl_a, lib_a)?;
    let prog_b = compile(nl_b, lib_b)?;
    let failures = secflow_exec::par_map_range(rounds, |round| {
        let mut rng = StdRng::seed_from_u64(secflow_rand::split_seed(seed, round as u64));
        let vars: Vec<u64> = (0..src.var_nets_a.len()).map(|_| rng.random()).collect();
        let words = vars.iter().copied();
        let va = prog_a.eval(
            &mut Words,
            0,
            src.var_nets_a.iter().copied().zip(words.clone()),
        );
        let vb = prog_b.eval(&mut Words, 0, src.var_nets_b.iter().copied().zip(words));
        src.points
            .iter()
            .enumerate()
            .find_map(|(i, &(a, b, flip))| {
                let diff = va[a.index()] ^ vb[b.index()] ^ Words.constant(flip);
                let bit = diff.trailing_zeros();
                (diff != 0).then(|| (i, vars.iter().map(|w| w >> bit & 1 == 1).collect()))
            })
    });
    // Results arrive in round order; the first failure is the lowest
    // round's, independent of execution interleaving.
    Ok(src.report(failures.into_iter().flatten().next()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use secflow_netlist::GateKind;
    use secflow_sim::functional::Bools;

    /// y = a AND b two ways: AND2 vs NAND2 + INV.
    fn equivalent_pair() -> (Netlist, Netlist) {
        let mut a = Netlist::new("a");
        let aa = a.add_input("x");
        let ab = a.add_input("y");
        let ay = a.add_net("out");
        a.add_gate("g", "AND2", GateKind::Comb, vec![aa, ab], vec![ay]);
        a.mark_output(ay);

        let mut b = Netlist::new("b");
        let ba = b.add_input("x");
        let bb = b.add_input("y");
        let bn = b.add_net("n");
        let by = b.add_net("out");
        b.add_gate("g0", "NAND2", GateKind::Comb, vec![ba, bb], vec![bn]);
        b.add_gate("g1", "INV", GateKind::Comb, vec![bn], vec![by]);
        b.mark_output(by);
        (a, b)
    }

    #[test]
    fn proves_equivalence() {
        let (a, b) = equivalent_pair();
        let lib = Library::lib180();
        let r = check_equiv_with_parity(&a, &lib, &b, &lib, None, None).unwrap();
        assert!(r.equivalent);
        let r = check_equiv_random_with_parity(&a, &lib, &b, &lib, None, None, 4, 1).unwrap();
        assert!(r.equivalent);
    }

    #[test]
    fn finds_counterexample() {
        let (a, mut b) = equivalent_pair();
        // Sabotage: replace INV by BUF (so b computes NAND).
        let bn = b.net_by_name("n").unwrap();
        let by = b.net_by_name("out").unwrap();
        b.retain_gates(|g| g.name != "g1");
        b.add_gate("g1", "BUF", GateKind::Comb, vec![bn], vec![by]);
        let lib = Library::lib180();
        let r = check_equiv_with_parity(&a, &lib, &b, &lib, None, None).unwrap();
        assert!(!r.equivalent);
        let (idx, cex) = r.failing_output.unwrap();
        assert_eq!(idx, 0);
        // Verify the counterexample actually differs.
        let run = |nl: &Netlist| {
            let sources = ["x", "y"]
                .map(|n| nl.net_by_name(n).unwrap())
                .into_iter()
                .zip(cex.clone());
            let values = Program::compile(nl, &lib)
                .unwrap()
                .eval(&mut Bools, false, sources);
            values[nl.net_by_name("out").unwrap().index()]
        };
        assert_ne!(run(&a), run(&b));
        let r = check_equiv_random_with_parity(&a, &lib, &b, &lib, None, None, 4, 1).unwrap();
        assert!(!r.equivalent);
    }

    #[test]
    fn output_parity_flips_comparison() {
        let (a, mut b) = equivalent_pair();
        // b computes NAND (BUF instead of INV) but declared parity
        // true makes it equivalent again.
        let bn = b.net_by_name("n").unwrap();
        let by = b.net_by_name("out").unwrap();
        b.retain_gates(|g| g.name != "g1");
        b.add_gate("g1", "BUF", GateKind::Comb, vec![bn], vec![by]);
        let lib = Library::lib180();
        let r = check_equiv_with_parity(&a, &lib, &b, &lib, Some(&[true]), None).unwrap();
        assert!(r.equivalent);
    }

    #[test]
    fn registers_matched_by_order() {
        let mk = |cell: &str| {
            let mut n = Netlist::new("s");
            let a = n.add_input("a");
            let w = n.add_net("w");
            let q = n.add_net("q");
            n.add_gate("g", cell, GateKind::Comb, vec![a], vec![w]);
            n.add_gate("r", "DFF", GateKind::Seq, vec![w], vec![q]);
            n.mark_output(q);
            n
        };
        let lib = Library::lib180();
        let r = check_equiv_with_parity(&mk("BUF"), &lib, &mk("BUF"), &lib, None, None).unwrap();
        assert!(r.equivalent);
        let r = check_equiv_with_parity(&mk("BUF"), &lib, &mk("INV"), &lib, None, None).unwrap();
        assert!(!r.equivalent);
        assert!(r.failing_register.is_some());
    }

    /// A polarity table shorter or longer than the outputs (registers)
    /// it covers is a port mismatch on both engines, naming the table
    /// and both counts; a table of the right length still proves
    /// equivalence.
    #[test]
    fn polarity_tables_of_the_wrong_length_are_port_mismatches() {
        // One output, one register.
        let mut nl = Netlist::new("s");
        let a = nl.add_input("a");
        let w = nl.add_net("w");
        let q = nl.add_net("q");
        nl.add_gate("g", "BUF", GateKind::Comb, vec![a], vec![w]);
        nl.add_gate("r", "DFF", GateKind::Seq, vec![w], vec![q]);
        nl.mark_output(q);
        let lib = Library::lib180();
        let engines = |out: Option<&[bool]>, reg: Option<&[bool]>| {
            [
                check_equiv_with_parity(&nl, &lib, &nl, &lib, out, reg),
                check_equiv_random_with_parity(&nl, &lib, &nl, &lib, out, reg, 2, 1),
            ]
        };
        let right: &[bool] = &[false];
        for wrong in [&[][..], &[false, false][..]] {
            let n = wrong.len();
            for (table, out, reg) in [
                ("output", Some(wrong), Some(right)),
                ("register", Some(right), Some(wrong)),
            ] {
                for r in engines(out, reg) {
                    let reason = format!("{table} polarity table has {n} entries for 1 {table}s");
                    assert_eq!(r, Err(LecError::PortMismatch { reason }));
                }
            }
        }
        for r in engines(Some(right), Some(right)) {
            assert!(r.expect("tables of the right length").equivalent);
        }
    }

    #[test]
    fn port_mismatch_is_reported() {
        let (a, _) = equivalent_pair();
        let mut c = Netlist::new("c");
        let x = c.add_input("x");
        let z = c.add_input("z");
        let y = c.add_net("out");
        c.add_gate("g", "AND2", GateKind::Comb, vec![x, z], vec![y]);
        c.mark_output(y);
        let lib = Library::lib180();
        assert!(matches!(
            check_equiv_with_parity(&a, &lib, &c, &lib, None, None),
            Err(LecError::PortMismatch { .. })
        ));
    }

    #[test]
    fn five_input_cells_convert_to_bdd() {
        // AOI32 in one design, its SOP expansion in the other.
        let mut a = Netlist::new("a");
        let ins: Vec<NetId> = (0..5).map(|i| a.add_input(format!("i{i}"))).collect();
        let y = a.add_net("out");
        a.add_gate("g", "AOI32", GateKind::Comb, ins.clone(), vec![y]);
        a.mark_output(y);

        let mut b = Netlist::new("b");
        let bins: Vec<NetId> = (0..5).map(|i| b.add_input(format!("i{i}"))).collect();
        let t1 = b.add_net("t1");
        let t2 = b.add_net("t2");
        let t3 = b.add_net("t3");
        let o = b.add_net("out");
        b.add_gate(
            "g1",
            "AND3",
            GateKind::Comb,
            vec![bins[0], bins[1], bins[2]],
            vec![t1],
        );
        b.add_gate(
            "g2",
            "AND2",
            GateKind::Comb,
            vec![bins[3], bins[4]],
            vec![t2],
        );
        b.add_gate("g3", "OR2", GateKind::Comb, vec![t1, t2], vec![t3]);
        b.add_gate("g4", "INV", GateKind::Comb, vec![t3], vec![o]);
        b.mark_output(o);

        let lib = Library::lib180();
        let r = check_equiv_with_parity(&a, &lib, &b, &lib, None, None).unwrap();
        assert!(r.equivalent, "AOI32 BDD conversion broken");
    }
}
