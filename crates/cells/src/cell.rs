//! The Liberty-like cell record.

use crate::lef::LefMacro;
use crate::tt::TruthTable;

/// The logic function a library cell implements.
#[derive(Debug, Clone, PartialEq)]
pub enum CellFunction {
    /// A combinational single-output function.
    Comb(TruthTable),
    /// A rising-edge D flip-flop (`Q <= D`).
    Dff,
    /// A WDDL dual-rail register: inputs `(Dt, Df)`, outputs
    /// `(Qt, Qf)`. Both outputs are held at 0 during the precharge
    /// phase and take the stored differential value during evaluation.
    WddlDff,
    /// A constant driver (`false` = tie-low, `true` = tie-high).
    Tie(bool),
}

/// One standard cell: logic function plus electrical and physical data.
///
/// Electrical units follow the convenient convention `kΩ · fF = ps`, so
/// the linear delay model is simply
/// `delay = intrinsic_delay_ps + drive_kohm * c_load_ff`.
#[derive(Debug, Clone, PartialEq)]
pub struct LibCell {
    name: String,
    function: CellFunction,
    /// Input pin capacitances in fF, one per pin.
    pin_caps_ff: Vec<f64>,
    /// Equivalent output drive resistance in kΩ.
    drive_kohm: f64,
    /// Intrinsic (unloaded) delay in ps.
    intrinsic_delay_ps: f64,
    physical: LefMacro,
}

impl LibCell {
    /// Creates a cell record.
    ///
    /// # Panics
    ///
    /// Panics if the pin-capacitance list length disagrees with the
    /// function's input count, or the macro's pin counts disagree.
    pub fn new(
        name: impl Into<String>,
        function: CellFunction,
        pin_caps_ff: Vec<f64>,
        drive_kohm: f64,
        intrinsic_delay_ps: f64,
        physical: LefMacro,
    ) -> Self {
        let (n_in, n_out) = match &function {
            CellFunction::Comb(tt) => (tt.vars() as usize, 1),
            CellFunction::Dff => (1, 1),
            CellFunction::WddlDff => (2, 2),
            CellFunction::Tie(_) => (0, 1),
        };
        assert_eq!(pin_caps_ff.len(), n_in, "cell needs one pin cap per input");
        assert_eq!(physical.input_pin_tracks.len(), n_in);
        assert_eq!(physical.output_pin_tracks.len(), n_out);
        LibCell {
            name: name.into(),
            function,
            pin_caps_ff,
            drive_kohm,
            intrinsic_delay_ps,
            physical,
        }
    }

    /// Cell name, e.g. `"AOI32"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The cell's logic function.
    pub fn function(&self) -> &CellFunction {
        &self.function
    }

    /// The combinational truth table, if this is a combinational cell.
    pub fn truth_table(&self) -> Option<&TruthTable> {
        match &self.function {
            CellFunction::Comb(tt) => Some(tt),
            _ => None,
        }
    }

    /// Number of input pins.
    pub fn input_count(&self) -> usize {
        self.pin_caps_ff.len()
    }

    /// Capacitance of input pin `i` in fF.
    pub fn pin_cap_ff(&self, i: usize) -> f64 {
        self.pin_caps_ff[i]
    }

    /// Equivalent output drive resistance in kΩ.
    pub fn drive_kohm(&self) -> f64 {
        self.drive_kohm
    }

    /// Intrinsic delay in ps.
    pub fn intrinsic_delay_ps(&self) -> f64 {
        self.intrinsic_delay_ps
    }

    /// Gate delay in ps under a load of `c_load_ff` fF.
    pub fn delay_ps(&self, c_load_ff: f64) -> f64 {
        self.intrinsic_delay_ps + self.drive_kohm * c_load_ff
    }

    /// Physical abstract.
    pub fn physical(&self) -> &LefMacro {
        &self.physical
    }

    /// Cell area in µm².
    pub fn area_um2(&self) -> f64 {
        self.physical.area_um2()
    }

    /// True for sequential (state-holding) cells.
    pub fn is_sequential(&self) -> bool {
        matches!(self.function, CellFunction::Dff | CellFunction::WddlDff)
    }

    /// Number of output pins.
    pub fn output_count(&self) -> usize {
        match self.function {
            CellFunction::WddlDff => 2,
            _ => 1,
        }
    }

    /// The first pin count of a gate with `inputs` inputs and `outputs`
    /// outputs that differs from this cell's, as `(pins, got, expected)`
    /// with `pins` either `"input"` or `"output"`.
    pub fn pin_mismatch(
        &self,
        inputs: usize,
        outputs: usize,
    ) -> Option<(&'static str, usize, usize)> {
        [
            ("input", inputs, self.input_count()),
            ("output", outputs, self.output_count()),
        ]
        .into_iter()
        .find(|&(_, got, expected)| got != expected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn and2() -> LibCell {
        LibCell::new(
            "AND2",
            CellFunction::Comb(TruthTable::and2()),
            vec![2.0, 2.0],
            4.0,
            40.0,
            LefMacro::evenly_spread(5, 2, 1),
        )
    }

    #[test]
    fn delay_model_is_linear() {
        let c = and2();
        assert!((c.delay_ps(0.0) - 40.0).abs() < 1e-9);
        assert!((c.delay_ps(10.0) - 80.0).abs() < 1e-9);
    }

    #[test]
    fn accessors() {
        let c = and2();
        assert_eq!(c.name(), "AND2");
        assert_eq!(c.input_count(), 2);
        assert!(!c.is_sequential());
        assert!(c.truth_table().is_some());
        assert!(c.area_um2() > 0.0);
    }

    #[test]
    #[should_panic(expected = "one pin cap per input")]
    fn mismatched_caps_panic() {
        let _ = LibCell::new(
            "AND2",
            CellFunction::Comb(TruthTable::and2()),
            vec![2.0],
            4.0,
            40.0,
            LefMacro::evenly_spread(5, 2, 1),
        );
    }
}
