//! Simulation configuration.

/// Timing, sampling and electrical parameters of a power simulation.
///
/// Defaults follow the paper's measurement setup: 125 MHz clock
/// (8000 ps period), 800 supply-current samples per clock cycle, and a
/// 1.8 V supply.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Clock period in ps.
    pub period_ps: u64,
    /// Supply-current samples per clock cycle.
    pub samples_per_cycle: usize,
    /// Supply voltage in V.
    pub vdd: f64,
    /// Clock-to-output delay of registers in ps.
    pub clk2q_ps: u64,
    /// Arrival time of primary-input changes after the clock edge, in
    /// ps.
    pub input_delay_ps: u64,
    /// Window within which two coupled transitions count as
    /// simultaneous for the crosstalk (Miller) adjustment, in ps.
    pub crosstalk_window_ps: u64,
    /// Standard deviation of additive Gaussian measurement noise on
    /// the current trace (0 disables noise), in the trace's charge
    /// units.
    pub noise_sigma: f64,
    /// RNG seed for the noise model.
    pub noise_seed: u64,
    /// Fraction of the period devoted to the WDDL precharge phase
    /// (0.5 in normal operation; the DFA glitch experiment shrinks the
    /// evaluation phase by raising it).
    pub precharge_fraction: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            period_ps: 8000,
            samples_per_cycle: 800,
            vdd: 1.8,
            clk2q_ps: 150,
            input_delay_ps: 100,
            crosstalk_window_ps: 60,
            noise_sigma: 0.0,
            noise_seed: 0,
            precharge_fraction: 0.5,
        }
    }
}

impl SimConfig {
    /// Trace sample width in ps.
    pub fn sample_ps(&self) -> f64 {
        self.period_ps as f64 / self.samples_per_cycle as f64
    }

    /// Time of the evaluation-phase start within a WDDL cycle, in ps.
    pub fn eval_start_ps(&self) -> u64 {
        (self.period_ps as f64 * self.precharge_fraction) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let c = SimConfig::default();
        assert_eq!(c.period_ps, 8000); // 125 MHz
        assert_eq!(c.samples_per_cycle, 800);
        assert!((c.sample_ps() - 10.0).abs() < 1e-9);
        assert_eq!(c.eval_start_ps(), 4000);
    }
}
