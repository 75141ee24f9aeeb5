//! Cut-based technology mapping from an AIG onto a standard cell
//! library.
//!
//! The mapper enumerates K-feasible cuts per AND node, computes each
//! cut's local truth table, matches it against the library (under input
//! permutation, with optional output inversion), and selects covers by
//! area flow in a single topological pass — the classic DAG-mapper
//! recipe. The paper's synthesis `script` constraints (restricting
//! which gates synthesis may use) are honoured through
//! [`MapOptions::allowed_cells`].

use std::collections::{HashMap, HashSet};
use std::fmt;

use secflow_cells::{Library, MatchedCell, TruthTable};
use secflow_netlist::{GateKind, NetId, Netlist};

use crate::aig::{Aig, Lit, NodeId};
use crate::design::Design;

/// Mapper configuration.
#[derive(Debug, Clone)]
pub struct MapOptions {
    /// Maximum cut size (number of leaves). At most 6.
    pub cut_size: u8,
    /// Maximum number of cuts kept per node.
    pub cuts_per_node: usize,
    /// If set, only these library cells may be instantiated (plus
    /// `DFF`, `TIELO`, `TIEHI` for registers and constants).
    pub allowed_cells: Option<HashSet<String>>,
}

impl Default for MapOptions {
    fn default() -> Self {
        MapOptions {
            cut_size: 5,
            cuts_per_node: 8,
            allowed_cells: None,
        }
    }
}

/// Errors from technology mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapError {
    /// No library cell (combination) realizes some required function —
    /// e.g. the allowlist excludes every 2-input cell.
    Unmappable {
        /// Human-readable description of the failing function.
        reason: String,
    },
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::Unmappable { reason } => write!(f, "unmappable function: {reason}"),
        }
    }
}

impl std::error::Error for MapError {}

/// A cut: a sorted set of leaf nodes.
type Cut = Vec<NodeId>;

/// The truth tables of one cut's cone, per node. An entry is valid
/// only if its stamp equals the current cut's epoch, so starting a cut
/// costs one increment instead of a fresh map.
struct TtMemo {
    stamp: Vec<u32>,
    tt: Vec<TruthTable>,
    epoch: u32,
}

impl TtMemo {
    /// Invalidates every entry.
    fn next_cut(&mut self) {
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    fn get(&self, node: NodeId) -> Option<TruthTable> {
        let i = node.0 as usize;
        (self.stamp[i] == self.epoch).then_some(self.tt[i])
    }

    fn set(&mut self, node: NodeId, tt: TruthTable) {
        let i = node.0 as usize;
        self.stamp[i] = self.epoch;
        self.tt[i] = tt;
    }
}

/// The function of `node` over the current cut of `memo`, whose leaves
/// are set.
fn tt_rec(aig: &Aig, node: NodeId, memo: &mut TtMemo) -> TruthTable {
    if let Some(t) = memo.get(node) {
        return t;
    }
    let (a, b) = aig.and_fanins(node);
    let mut fanin = |l: Lit| {
        let t = tt_rec(aig, l.node(), memo);
        if l.is_complement() {
            t.not()
        } else {
            t
        }
    };
    let ta = fanin(a);
    let t = ta.and(&fanin(b));
    memo.set(node, t);
    t
}

struct Mapper<'a> {
    aig: &'a Aig,
    lib: &'a Library,
    opts: &'a MapOptions,
    /// Kept cuts per node.
    cuts: Vec<Vec<Cut>>,
    /// Chosen (cut, match) per AND node.
    chosen: Vec<Option<(Cut, MatchedCell)>>,
    /// Area-flow value per node.
    aflow: Vec<f64>,
    refs: Vec<u32>,
    /// Scratch of [`Mapper::cut_tt`], reused across cuts.
    tt_memo: TtMemo,
}

impl<'a> Mapper<'a> {
    fn new(aig: &'a Aig, lib: &'a Library, opts: &'a MapOptions, roots: &[Lit]) -> Self {
        let n = aig.node_count();
        Mapper {
            aig,
            lib,
            opts,
            cuts: vec![Vec::new(); n],
            chosen: vec![None; n],
            aflow: vec![0.0; n],
            refs: aig.reference_counts(roots),
            tt_memo: TtMemo {
                stamp: vec![0; n],
                tt: vec![TruthTable::zero(0); n],
                epoch: 0,
            },
        }
    }

    /// Computes the function of `node` over the leaves of `cut`.
    fn cut_tt(&mut self, node: NodeId, cut: &Cut) -> TruthTable {
        let memo = &mut self.tt_memo;
        memo.next_cut();
        let n = cut.len() as u8;
        for (i, &leaf) in cut.iter().enumerate() {
            memo.set(leaf, TruthTable::var(n, i as u8));
        }
        tt_rec(self.aig, node, memo)
    }

    /// The best library match for `tt` under the allowlist.
    fn find_match(&self, tt: &TruthTable) -> Option<MatchedCell> {
        match self.opts.allowed_cells.as_ref() {
            Some(set) => {
                let f = |name: &str| set.contains(name);
                self.lib.find_match(tt, Some(&f))
            }
            None => self.lib.find_match(tt, None),
        }
    }

    /// Enumerates cuts and runs the area-flow DP for one AND node.
    fn process_and(&mut self, id: NodeId) -> Result<(), MapError> {
        let (fa, fb) = self.aig.and_fanins(id);
        let ca = self.cuts[fa.node().0 as usize].clone();
        let cb = self.cuts[fb.node().0 as usize].clone();
        let mut merged: Vec<Cut> = Vec::new();
        for a in &ca {
            for b in &cb {
                let mut u: Cut = a.iter().chain(b.iter()).copied().collect();
                u.sort_unstable();
                u.dedup();
                if u.len() <= self.opts.cut_size as usize && !merged.contains(&u) {
                    merged.push(u);
                }
            }
        }
        // Prefer smaller cuts when truncating.
        merged.sort_by_key(|c| c.len());
        merged.truncate(self.opts.cuts_per_node);

        // DP: choose the cut+match with the lowest area flow.
        let mut best: Option<(f64, Cut, MatchedCell)> = None;
        for cut in &merged {
            let raw_tt = self.cut_tt(id, cut);
            // Drop leaves the function does not depend on.
            let (tt, cut) = compress(&raw_tt, cut);
            if tt.vars() == 0 {
                continue; // constant — handled via folding, skip
            }
            let Some(m) = self.find_match(&tt) else {
                continue;
            };
            let leaf_flow: f64 = cut.iter().map(|l| self.aflow[l.0 as usize]).sum();
            let cost = m.area_um2 + leaf_flow;
            if best.as_ref().is_none_or(|(c, _, _)| cost < *c) {
                best = Some((cost, cut, m));
            }
        }
        let (cost, cut, m) = best.ok_or_else(|| MapError::Unmappable {
            reason: format!("no cell matches any cut of node {id:?}"),
        })?;
        self.aflow[id.0 as usize] = cost / f64::from(self.refs[id.0 as usize].max(1));
        self.chosen[id.0 as usize] = Some((cut, m));

        // Kept cuts for parents: merged cuts plus the trivial cut.
        let mut kept = merged;
        kept.insert(0, vec![id]);
        kept.truncate(self.opts.cuts_per_node);
        self.cuts[id.0 as usize] = kept;
        Ok(())
    }

    fn run(&mut self) -> Result<(), MapError> {
        for id in self.aig.topo_nodes() {
            if self.aig.leaf_index(id).is_some() {
                self.cuts[id.0 as usize] = vec![vec![id]];
            } else if self.aig.is_and(id) {
                self.process_and(id)?;
            } else {
                // Constant node: no cuts.
                self.cuts[id.0 as usize] = Vec::new();
            }
        }
        Ok(())
    }
}

/// Removes irrelevant variables from a cut function.
fn compress(tt: &TruthTable, cut: &Cut) -> (TruthTable, Cut) {
    let support = tt.support();
    if support.len() == tt.vars() as usize {
        return (*tt, cut.clone());
    }
    let new_cut: Cut = support.iter().map(|&v| cut[v as usize]).collect();
    let n = support.len() as u8;
    let compressed = TruthTable::from_fn(n, |a| {
        let mut full = 0u32;
        for (i, &v) in support.iter().enumerate() {
            if a >> i & 1 == 1 {
                full |= 1 << v;
            }
        }
        tt.eval(full)
    });
    (compressed, new_cut)
}

/// Maps `design` onto `lib`, returning a flat gate-level netlist.
///
/// Primary inputs keep their names; primary outputs and register
/// outputs drive nets carrying their declared names. Inverted literals
/// are realized with `INV` cells; constant outputs with `TIELO` /
/// `TIEHI`.
///
/// # Errors
///
/// Returns [`MapError::Unmappable`] if some required function has no
/// realization in the (possibly restricted) library.
pub fn map_design(design: &Design, lib: &Library, opts: &MapOptions) -> Result<Netlist, MapError> {
    let roots = design.roots();
    let mut mapper = Mapper::new(&design.aig, lib, opts, &roots);
    mapper.run()?;

    // Which nodes are actually needed by the cover?
    let mut needed: HashSet<NodeId> = HashSet::new();
    let mut stack: Vec<NodeId> = roots.iter().map(|l| l.node()).collect();
    while let Some(n) = stack.pop() {
        if design.aig.leaf_index(n).is_some() || n == NodeId(0) {
            continue;
        }
        if !needed.insert(n) {
            continue;
        }
        let (cut, _) = mapper.chosen[n.0 as usize]
            .as_ref()
            .expect("needed AND node has a chosen cover");
        stack.extend(cut.iter().copied());
    }

    let mut nl = Netlist::new(design.name.clone());

    // Nets for leaves: primary inputs and register outputs.
    let mut node_net: HashMap<NodeId, NetId> = HashMap::new();
    for (name, l) in &design.inputs {
        let id = nl.add_input(name.clone());
        node_net.insert(l.node(), id);
    }
    for r in &design.registers {
        let id = nl.add_net(r.name.clone());
        node_net.insert(r.q.node(), id);
    }

    // Nets for covered AND nodes, created in topo order.
    let mut ordered: Vec<NodeId> = needed.iter().copied().collect();
    ordered.sort();
    for &n in &ordered {
        let id = nl.fresh_net("w");
        node_net.insert(n, id);
    }

    // Gate instances. Inverted pin phases share one INV per node.
    let mut gate_n = 0usize;
    let mut inv_cache: HashMap<NodeId, NetId> = HashMap::new();
    for &n in &ordered {
        let (cut, m) = mapper.chosen[n.0 as usize].clone().expect("chosen");
        // The match permutation maps cell pin i -> cut variable
        // m.perm[i], inverted when m.input_neg[i] is set.
        let inputs: Vec<NetId> = m
            .perm
            .iter()
            .zip(&m.input_neg)
            .map(|(&v, &neg)| {
                let node = cut[v as usize];
                let net = node_net[&node];
                if !neg {
                    return net;
                }
                if let Some(&inv) = inv_cache.get(&node) {
                    return inv;
                }
                let inv = nl.fresh_net("ni");
                nl.add_gate(
                    format!("u{gate_n}"),
                    "INV",
                    GateKind::Comb,
                    vec![net],
                    vec![inv],
                );
                gate_n += 1;
                inv_cache.insert(node, inv);
                inv
            })
            .collect();
        let out_net = node_net[&n];
        if m.inverted {
            let mid = nl.fresh_net("inv_in");
            nl.add_gate(
                format!("u{gate_n}"),
                m.cell.clone(),
                GateKind::Comb,
                inputs,
                vec![mid],
            );
            gate_n += 1;
            nl.add_gate(
                format!("u{gate_n}"),
                "INV",
                GateKind::Comb,
                vec![mid],
                vec![out_net],
            );
        } else {
            nl.add_gate(
                format!("u{gate_n}"),
                m.cell.clone(),
                GateKind::Comb,
                inputs,
                vec![out_net],
            );
        }
        gate_n += 1;
    }

    // Literal resolution with INV/tie sharing.
    let mut lit_nets: HashMap<Lit, NetId> = HashMap::new();
    let mut resolve = |nl: &mut Netlist, l: Lit, gate_n: &mut usize| -> NetId {
        if let Some(&id) = lit_nets.get(&l) {
            return id;
        }
        let id = if l == Lit::FALSE || l == Lit::TRUE {
            let id = nl.fresh_net("tie");
            let cell = if l == Lit::TRUE { "TIEHI" } else { "TIELO" };
            nl.add_gate(format!("u{gate_n}"), cell, GateKind::Tie, vec![], vec![id]);
            *gate_n += 1;
            id
        } else if !l.is_complement() {
            node_net[&l.node()]
        } else {
            let src = node_net[&l.node()];
            let id = nl.fresh_net("nb");
            nl.add_gate(
                format!("u{gate_n}"),
                "INV",
                GateKind::Comb,
                vec![src],
                vec![id],
            );
            *gate_n += 1;
            id
        };
        lit_nets.insert(l, id);
        id
    };

    // Registers: DFF between resolved next-state net and Q net.
    for r in &design.registers {
        let d_net = resolve(&mut nl, r.next, &mut gate_n);
        let q_net = node_net[&r.q.node()];
        nl.add_gate(
            format!("r_{}", r.name),
            "DFF",
            GateKind::Seq,
            vec![d_net],
            vec![q_net],
        );
    }

    // Primary outputs.
    let mut claimed: HashSet<NetId> = HashSet::new();
    for (name, l) in &design.outputs {
        let src = resolve(&mut nl, *l, &mut gate_n);
        if claimed.insert(src) {
            nl.mark_output(src);
        } else {
            // The same literal drives several ports: buffer a copy.
            let id = nl.add_net(name.clone());
            nl.add_gate(
                format!("u{gate_n}"),
                "BUF",
                GateKind::Comb,
                vec![src],
                vec![id],
            );
            gate_n += 1;
            nl.mark_output(id);
        }
    }

    Ok(nl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::Design;
    use crate::eval::simulate_comb;
    use secflow_sim::functional::{Bools, Program};

    /// Evaluates a mapped combinational netlist on one input pattern.
    fn eval_netlist(nl: &Netlist, lib: &Library, inputs: &[(NetId, bool)]) -> Vec<bool> {
        let prog = Program::compile(nl, lib).expect("acyclic, known cells");
        let values = prog.eval(&mut Bools, false, inputs.iter().copied());
        nl.outputs().iter().map(|&o| values[o.index()]).collect()
    }

    fn check_equiv(d: &Design, nl: &Netlist, lib: &Library) {
        let n_in = d.inputs.len();
        assert!(n_in <= 12, "exhaustive check only for small designs");
        for pat in 0..(1u32 << n_in) {
            let inputs: Vec<(NetId, bool)> = d
                .inputs
                .iter()
                .enumerate()
                .map(|(i, (name, _))| (nl.net_by_name(name).expect("input net"), pat >> i & 1 == 1))
                .collect();
            let got = eval_netlist(nl, lib, &inputs);
            let in_words: Vec<u64> = (0..n_in)
                .map(|i| if pat >> i & 1 == 1 { !0u64 } else { 0 })
                .collect();
            let (outs, _) = simulate_comb(d, &in_words, &[]);
            for (g, w) in got.iter().zip(&outs) {
                assert_eq!(*g, *w & 1 == 1, "mismatch at pattern {pat:b}");
            }
        }
    }

    #[test]
    fn maps_simple_and() {
        let mut d = Design::new("t");
        let a = d.input("a");
        let b = d.input("b");
        let y = d.aig.and(a, b);
        d.output("y", y);
        let lib = Library::lib180();
        let nl = map_design(&d, &lib, &MapOptions::default()).unwrap();
        assert!(nl.validate().is_ok());
        check_equiv(&d, &nl, &lib);
    }

    #[test]
    fn maps_xor_mux_mix() {
        let mut d = Design::new("t");
        let a = d.input("a");
        let b = d.input("b");
        let c = d.input("c");
        let s = d.input("s");
        let x = d.aig.xor(a, b);
        let m = d.aig.mux(s, x, c);
        let z = d.aig.or(m, a.not());
        d.output("m", m);
        d.output("z", z);
        let lib = Library::lib180();
        let nl = map_design(&d, &lib, &MapOptions::default()).unwrap();
        assert!(nl.validate().is_ok());
        check_equiv(&d, &nl, &lib);
    }

    #[test]
    fn maps_constants_and_inversions() {
        let mut d = Design::new("t");
        let a = d.input("a");
        d.output("k0", Lit::FALSE);
        d.output("k1", Lit::TRUE);
        d.output("na", a.not());
        let lib = Library::lib180();
        let nl = map_design(&d, &lib, &MapOptions::default()).unwrap();
        assert!(nl.validate().is_ok());
        check_equiv(&d, &nl, &lib);
        let hist = nl.cell_histogram();
        assert!(hist.iter().any(|(c, _)| c == "TIELO"));
        assert!(hist.iter().any(|(c, _)| c == "TIEHI"));
        assert!(hist.iter().any(|(c, _)| c == "INV"));
    }

    #[test]
    fn maps_sequential_design() {
        let mut d = Design::new("cnt");
        let q = d.register_bus("q", 2);
        let n0 = q[0].not();
        let n1 = d.aig.xor(q[1], q[0]);
        d.set_next_bus(&q, &[n0, n1]);
        d.output_bus("count", &q);
        let lib = Library::lib180();
        let nl = map_design(&d, &lib, &MapOptions::default()).unwrap();
        assert!(nl.validate().is_ok());
        assert_eq!(nl.gates().iter().filter(|g| g.cell == "DFF").count(), 2);
    }

    #[test]
    fn allowlist_restricts_cells() {
        let mut d = Design::new("t");
        let a = d.input("a");
        let b = d.input("b");
        let y = d.aig.and(a, b);
        let z = d.aig.or(a, b);
        d.output("y", y);
        d.output("z", z);
        let lib = Library::lib180();
        let allowed: HashSet<String> = ["AND2", "OR2", "INV"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let opts = MapOptions {
            allowed_cells: Some(allowed.clone()),
            ..Default::default()
        };
        let nl = map_design(&d, &lib, &opts).unwrap();
        for g in nl.gates() {
            assert!(
                allowed.contains(&g.cell) || matches!(g.cell.as_str(), "DFF" | "TIELO" | "TIEHI"),
                "forbidden cell {}",
                g.cell
            );
        }
        check_equiv(&d, &nl, &lib);
    }

    #[test]
    fn empty_allowlist_fails() {
        let mut d = Design::new("t");
        let a = d.input("a");
        let b = d.input("b");
        let y = d.aig.and(a, b);
        d.output("y", y);
        let lib = Library::lib180();
        let opts = MapOptions {
            allowed_cells: Some(HashSet::new()),
            ..Default::default()
        };
        assert!(matches!(
            map_design(&d, &lib, &opts),
            Err(MapError::Unmappable { .. })
        ));
    }

    #[test]
    fn shared_output_literal_gets_buffer() {
        let mut d = Design::new("t");
        let a = d.input("a");
        let b = d.input("b");
        let y = d.aig.and(a, b);
        d.output("y1", y);
        d.output("y2", y);
        let lib = Library::lib180();
        let nl = map_design(&d, &lib, &MapOptions::default()).unwrap();
        assert!(nl.validate().is_ok());
        assert_eq!(nl.outputs().len(), 2);
        assert_ne!(nl.outputs()[0], nl.outputs()[1]);
        check_equiv(&d, &nl, &lib);
    }

    #[test]
    fn compress_drops_dead_vars() {
        // f over 3 vars depending only on var 2.
        let tt = TruthTable::from_fn(3, |x| x >> 2 & 1 == 1);
        let cut = vec![NodeId(5), NodeId(6), NodeId(7)];
        let (ctt, ccut) = compress(&tt, &cut);
        assert_eq!(ctt.vars(), 1);
        assert_eq!(ccut, vec![NodeId(7)]);
    }

    #[test]
    fn bigger_random_logic_maps_correctly() {
        // A deterministic pseudo-random expression tree over 8 inputs.
        let mut d = Design::new("rand");
        let ins: Vec<Lit> = (0..8).map(|i| d.input(format!("i{i}"))).collect();
        let mut pool = ins.clone();
        let mut state = 0x12345678u64;
        let mut next = |m: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % m
        };
        for k in 0..40 {
            let a = pool[next(pool.len())];
            let b = pool[next(pool.len())];
            let l = match k % 3 {
                0 => d.aig.and(a, b),
                1 => d.aig.or(a, b.not()),
                _ => d.aig.xor(a, b),
            };
            pool.push(l);
        }
        let last = *pool.last().unwrap();
        let mid = pool[pool.len() / 2];
        d.output("y0", last);
        d.output("y1", mid.not());
        let lib = Library::lib180();
        let nl = map_design(&d, &lib, &MapOptions::default()).unwrap();
        assert!(nl.validate().is_ok());
        check_equiv(&d, &nl, &lib);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::design::Design;
    use crate::eval::simulate_comb;
    use secflow_sim::functional::{Bools, Program};

    /// A random expression program: each step combines two earlier
    /// values with one of the AIG operators.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        And,
        Or,
        Xor,
        AndNot,
        Mux,
    }

    const OPS: [Op; 5] = [Op::And, Op::Or, Op::Xor, Op::AndNot, Op::Mux];

    /// Mapping any random expression DAG preserves its function
    /// (checked exhaustively over all input assignments).
    #[test]
    fn mapping_preserves_function() {
        secflow_testkit::prop_check!(cases: 24, seed: 0x3A90_0001, |g| {
            let n_inputs = g.random_range(2..7usize);
            let steps = g.vec_with(1..28, |g| {
                (
                    *g.choose(&OPS),
                    g.random::<u16>(),
                    g.random::<u16>(),
                    g.random::<u16>(),
                    g.random::<bool>(),
                )
            });
            let mut d = Design::new("rand");
            let mut pool: Vec<Lit> = (0..n_inputs)
                .map(|i| d.input(format!("i{i}")))
                .collect();
            for (op, a, b, c, neg) in &steps {
                let pa = pool[*a as usize % pool.len()];
                let pb = pool[*b as usize % pool.len()];
                let pc = pool[*c as usize % pool.len()];
                let mut l = match op {
                    Op::And => d.aig.and(pa, pb),
                    Op::Or => d.aig.or(pa, pb),
                    Op::Xor => d.aig.xor(pa, pb),
                    Op::AndNot => d.aig.and(pa, pb.not()),
                    Op::Mux => d.aig.mux(pc, pa, pb),
                };
                if *neg {
                    l = l.not();
                }
                pool.push(l);
            }
            let y = *pool.last().expect("non-empty pool");
            d.output("y", y);
            let lib = Library::lib180();
            let nl = map_design(&d, &lib, &MapOptions::default()).expect("mappable");
            assert!(nl.validate().is_ok());

            // Exhaustive equivalence via bit-parallel reference
            // evaluation and gate-level netlist evaluation.
            let prog = Program::compile(&nl, &lib).expect("acyclic, known cells");
            for pat in 0..(1u32 << n_inputs) {
                let words: Vec<u64> = (0..n_inputs)
                    .map(|i| if pat >> i & 1 == 1 { !0u64 } else { 0 })
                    .collect();
                let (outs, _) = simulate_comb(&d, &words, &[]);
                let want = outs[0] & 1 == 1;

                let inputs = (0..n_inputs).map(|i| {
                    let net = nl.net_by_name(&format!("i{i}")).expect("input net");
                    (net, pat >> i & 1 == 1)
                });
                let got = prog.eval(&mut Bools, false, inputs)[nl.outputs()[0].index()];
                assert_eq!(got, want, "pattern {pat:#b}");
            }
        });
    }
}
