//! Seeded synthetic designs for the `flow_synth` workload.
//!
//! The logic mix is the one of `secflow_crypto::bench_gen::synthetic_design`
//! (random layered AND/OR/XOR/MUX over a sliding pool of recent
//! literals, folded into the registers), but generation always ends.
//! That generator loops until the AIG holds its AND target; with a
//! narrow pool, structural hashing and constant folding stop producing
//! new nodes and the loop never exits (`synthetic_design("g", 2600, 8,
//! 100)` does not return). Here a literal that creates no new node is
//! not put back into the pool, a run of such attempts re-seeds the pool
//! from older logic, and a fixed attempt budget turns a target the mix
//! cannot reach into an error.

use std::fmt;

use secflow_rand::{RngExt, SeedableRng, StdRng};
use secflow_synth::{Design, Lit};

/// The generator ran out of attempts before reaching its AND target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenError {
    /// AND nodes requested.
    pub target: usize,
    /// AND nodes built when the attempt budget ran out.
    pub reached: usize,
}

impl fmt::Display for GenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "synthetic design stalled at {} of {} AND nodes",
            self.reached, self.target
        )
    }
}

/// Builds a pseudo-random synchronous design with at least
/// `target_ands` AIG AND nodes, `width` primary inputs, `width`
/// registers and `width` primary outputs. The same arguments always
/// give the same design.
///
/// # Errors
///
/// [`GenError`] if `64 · target_ands + 4096` attempts do not reach the
/// target.
///
/// # Panics
///
/// Panics if `width == 0`.
pub fn synthetic_design(
    name: &str,
    target_ands: usize,
    width: usize,
    seed: u64,
) -> Result<Design, GenError> {
    generate(name, target_ands, width, seed, 64 * target_ands + 4096)
}

fn generate(
    name: &str,
    target_ands: usize,
    width: usize,
    seed: u64,
    mut attempts: usize,
) -> Result<Design, GenError> {
    assert!(width > 0, "a synthetic design needs at least one input");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut d = Design::new(name);
    let ins = d.input_bus("in", width);
    let regs = d.register_bus("r", width);
    // Every node created after the leaves is an AND node, so the count
    // is a difference of node counts (`Aig::and_count` walks the graph).
    let leaves = d.aig.node_count();
    let ands = |d: &Design| d.aig.node_count() - leaves;

    let mut history: Vec<Lit> = ins.iter().chain(regs.iter()).copied().collect();
    let mut pool = history.clone();
    let stall_limit = 4 * width;
    let mut stalled = 0usize;
    while ands(&d) < target_ands {
        if attempts == 0 {
            return Err(GenError {
                target: target_ands,
                reached: ands(&d),
            });
        }
        attempts -= 1;
        let before = d.aig.node_count();
        let a = pool[rng.random_range(0..pool.len())];
        let b = pool[rng.random_range(0..pool.len())];
        let l = match rng.random_range(0..6u32) {
            0 => d.aig.and(a, b),
            1 => d.aig.or(a, b),
            2 => d.aig.and(a, b.not()),
            3 => d.aig.xor(a, b),
            4 => {
                let s = pool[rng.random_range(0..pool.len())];
                d.aig.mux(s, a, b)
            }
            _ => d.aig.or(a.not(), b),
        };
        if d.aig.node_count() == before {
            // Folded to a constant or hashed onto an existing node.
            stalled += 1;
            if stalled >= stall_limit {
                pool.push(history[rng.random_range(0..history.len())]);
                stalled = 0;
            }
            continue;
        }
        stalled = 0;
        pool.push(l);
        history.push(l);
        // Keep the pool focused on recent logic so depth grows.
        if pool.len() > 4 * width {
            pool.remove(rng.random_range(0..width));
        }
    }

    // Feed registers and outputs from the tail of the pool.
    let tail = pool[pool.len().saturating_sub(2 * width)..].to_vec();
    for (i, &q) in regs.iter().enumerate() {
        let folded = d.aig.xor(tail[i % tail.len()], q);
        d.set_next(q, folded);
    }
    for (i, &q) in regs.iter().enumerate() {
        d.output(format!("out[{i}]"), q);
    }
    Ok(d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_0_to_64_reach_the_workload_size() {
        for seed in 0..64 {
            let d = synthetic_design("g", crate::workloads::SYNTH_ANDS, 8, seed)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(d.aig.and_count() >= crate::workloads::SYNTH_ANDS);
            assert_eq!(d.inputs.len(), 8);
            assert_eq!(d.registers.len(), 8);
            assert_eq!(d.outputs.len(), 8);
        }
    }

    #[test]
    fn the_case_that_hangs_the_crate_generator_terminates() {
        // Either outcome is fine; returning at all is the point.
        let _ = synthetic_design("g", 2600, 8, 100);
    }

    #[test]
    fn running_out_of_attempts_is_an_error() {
        let e = generate("g", 1000, 8, 3, 100).unwrap_err();
        assert_eq!(e.target, 1000);
        assert!(e.reached < e.target);
    }

    fn structure(d: &Design) -> Vec<(Lit, Lit)> {
        d.aig
            .topo_nodes()
            .filter(|&n| d.aig.is_and(n))
            .map(|n| d.aig.and_fanins(n))
            .collect()
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = synthetic_design("g", 500, 8, 42).unwrap();
        let b = synthetic_design("g", 500, 8, 42).unwrap();
        let c = synthetic_design("g", 500, 8, 43).unwrap();
        assert_eq!(structure(&a), structure(&b));
        assert_ne!(structure(&a), structure(&c));
    }
}
