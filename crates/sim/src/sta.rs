//! Static timing analysis: worst-case arrival times under the linear
//! delay model, used to confirm clock closure (and, for WDDL, that
//! both the precharge and the evaluation wave fit in their half
//! cycles).

use secflow_cells::{CellFunction, Library};
use secflow_extract::Parasitics;
use secflow_netlist::{GateKind, NetId, Netlist};

use crate::load::LoadModel;

/// The result of a static timing pass.
#[derive(Debug, Clone)]
pub struct TimingReport {
    /// Worst-case arrival time at any register input or primary
    /// output, in ps (combinational sources start at 0).
    pub critical_path_ps: f64,
    /// The net where the worst arrival occurs.
    pub critical_net: Option<NetId>,
    /// Arrival time per net in ps.
    pub arrivals_ps: Vec<f64>,
}

/// Computes worst-case arrival times for the combinational portion of
/// `nl`. Sources (primary inputs, register and tie outputs) start at
/// time 0; every gate adds its loaded delay.
///
/// # Errors
///
/// Returns [`crate::SimError`] if the netlist is cyclic or references
/// unknown cells.
pub fn analyze(
    nl: &Netlist,
    lib: &Library,
    parasitics: Option<&Parasitics>,
) -> Result<TimingReport, crate::SimError> {
    let load = LoadModel::try_build(nl, lib, parasitics)?;
    let order =
        secflow_netlist::topo_order(nl).ok_or_else(|| crate::SimError::CombinationalCycle {
            netlist: nl.name.clone(),
        })?;
    let mut arrivals = vec![0.0f64; nl.net_count()];
    for gid in order {
        let g = nl.gate(gid);
        if g.kind != GateKind::Comb {
            continue;
        }
        let cell = lib.by_name(&g.cell).ok_or_else(|| crate::SimError::UnknownCell {
            gate: g.name.clone(),
            cell: g.cell.clone(),
        })?;
        if !matches!(cell.function(), CellFunction::Comb(_)) {
            continue;
        }
        let in_max = g
            .inputs
            .iter()
            .map(|&n| arrivals[n.index()])
            .fold(0.0f64, f64::max);
        let out = g.outputs[0];
        let delay = load.delay_ps(cell.intrinsic_delay_ps(), cell.drive_kohm(), out);
        arrivals[out.index()] = in_max + delay;
    }

    // Endpoints: register D pins and primary outputs.
    let mut worst = 0.0f64;
    let mut critical = None;
    let mut consider = |net: NetId, arrivals: &[f64]| {
        let a = arrivals[net.index()];
        if a > worst {
            worst = a;
            critical = Some(net);
        }
    };
    for g in nl.gates() {
        if g.kind == GateKind::Seq {
            for &d in &g.inputs {
                consider(d, &arrivals);
            }
        }
    }
    for &o in nl.outputs() {
        consider(o, &arrivals);
    }

    Ok(TimingReport {
        critical_path_ps: worst,
        critical_net: critical,
        arrivals_ps: arrivals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use secflow_netlist::GateKind;

    #[test]
    fn chain_delay_accumulates() {
        let lib = Library::lib180();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let w = nl.add_net("w");
        let y = nl.add_net("y");
        nl.add_gate("g0", "INV", GateKind::Comb, vec![a], vec![w]);
        nl.add_gate("g1", "INV", GateKind::Comb, vec![w], vec![y]);
        nl.mark_output(y);
        let r = analyze(&nl, &lib, None).unwrap();
        assert!(r.critical_path_ps > 0.0);
        assert_eq!(r.critical_net, Some(y));
        // Two stages: strictly more than one stage's delay.
        assert!(r.arrivals_ps[y.index()] > r.arrivals_ps[w.index()]);
    }

    #[test]
    fn register_inputs_are_endpoints() {
        let lib = Library::lib180();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let w = nl.add_net("w");
        let q = nl.add_net("q");
        nl.add_gate("g0", "BUF", GateKind::Comb, vec![a], vec![w]);
        nl.add_gate("r0", "DFF", GateKind::Seq, vec![w], vec![q]);
        let r = analyze(&nl, &lib, None).unwrap();
        assert_eq!(r.critical_net, Some(w));
    }

    #[test]
    fn parasitics_increase_delay() {
        use secflow_extract::{NetParasitics, Parasitics};
        let lib = Library::lib180();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let y = nl.add_net("y");
        nl.add_gate("g0", "INV", GateKind::Comb, vec![a], vec![y]);
        nl.mark_output(y);
        let fast = analyze(&nl, &lib, None).unwrap();
        let mut nets = vec![NetParasitics::default(); nl.net_count()];
        nets[y.index()].c_ground_ff = 100.0;
        let slow = analyze(&nl, &lib, Some(&Parasitics { nets })).unwrap();
        assert!(slow.critical_path_ps > fast.critical_path_ps);
    }
}
