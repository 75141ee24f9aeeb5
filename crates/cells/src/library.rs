//! The cell library container and the default 180 nm-flavoured library.

use std::collections::HashMap;
use std::sync::OnceLock;

use crate::cell::{CellFunction, LibCell};
use crate::lef::LefMacro;
use crate::tt::TruthTable;

/// A technology-mapping match: a library cell realizing a requested
/// truth table under an input permutation, possibly with an inverted
/// output.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchedCell {
    /// Name of the matching cell.
    pub cell: String,
    /// `perm[i]` = which requested variable feeds cell input pin `i`.
    pub perm: Vec<u8>,
    /// `input_neg[i]` = cell input pin `i` must be fed through an
    /// inverter.
    pub input_neg: Vec<bool>,
    /// True if the cell computes the complement of the requested
    /// function (an inverter must be appended).
    pub inverted: bool,
    /// Cell area (including all required inverters) in µm².
    pub area_um2: f64,
}

/// An immutable collection of [`LibCell`]s with name lookup and
/// matching queries.
#[derive(Debug, Clone)]
pub struct Library {
    cells: Vec<LibCell>,
    by_name: HashMap<String, usize>,
    /// [`MatchTable`] per variable count, built on first use.
    match_tables: [OnceLock<MatchTable>; TruthTable::MAX_VARS as usize + 1],
}

/// One way a library cell realizes a function: cell pin `i` is fed by
/// variable `perms[perm][i]`, through an inverter where bit `i` of
/// `mask` is set, and the output is inverted if `inverted` is set.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    /// Index into [`Library::cells`].
    cell: u32,
    /// Index into [`MatchTable::perms`].
    perm: u16,
    mask: u8,
    inverted: bool,
}

/// Every candidate of every `n`-input cell, grouped by the function it
/// realizes. Within a group the candidates are in enumeration order:
/// cells in library order, then [`permutations`], then phase masks in
/// ascending order. [`Library::find_match`] keeps the first candidate
/// of the smallest area, so this order decides its ties.
#[derive(Debug, Clone)]
struct MatchTable {
    /// `permutations(n)`.
    perms: Vec<Vec<u8>>,
    /// The realized truth tables' bits, ascending.
    keys: Vec<u64>,
    /// `cands[start[k]..start[k + 1]]` realize `keys[k]`.
    start: Vec<u32>,
    cands: Vec<Candidate>,
}

impl MatchTable {
    fn build(cells: &[LibCell], n: u8) -> Self {
        let perms = permutations(n);
        let assignments = 1u32 << n;
        let all = TruthTable::one(n).bits();
        let mut entries: Vec<(u64, Candidate)> = Vec::new();
        for (ci, cell) in cells.iter().enumerate() {
            let CellFunction::Comb(tt) = cell.function() else {
                continue;
            };
            if tt.vars() != n {
                continue;
            }
            for (pi, perm) in perms.iter().enumerate() {
                // Pin assignment `a` reads the target at `orig[a]`.
                let orig: Vec<u32> = (0..assignments)
                    .map(|a| {
                        perm.iter()
                            .enumerate()
                            .filter(|&(i, _)| a >> i & 1 == 1)
                            .fold(0, |o, (_, &p)| o | 1 << p)
                    })
                    .collect();
                for mask in 0..assignments {
                    // The cell under this phase matches the target iff
                    // target(orig[a ^ mask]) == cell(a) for every `a`;
                    // the inverted cell matches the complement.
                    let mut bits = 0u64;
                    for a in (0..assignments).filter(|&a| tt.eval(a)) {
                        bits |= 1 << orig[(a ^ mask) as usize];
                    }
                    for (bits, inverted) in [(bits, false), (!bits & all, true)] {
                        let cand = Candidate {
                            cell: ci as u32,
                            perm: pi as u16,
                            mask: mask as u8,
                            inverted,
                        };
                        entries.push((bits, cand));
                    }
                }
            }
        }
        // A stable sort keeps each group in enumeration order.
        entries.sort_by_key(|&(bits, _)| bits);
        let mut table = MatchTable {
            perms,
            keys: Vec::new(),
            start: Vec::new(),
            cands: Vec::with_capacity(entries.len()),
        };
        for (bits, cand) in entries {
            if table.keys.last() != Some(&bits) {
                table.keys.push(bits);
                table.start.push(table.cands.len() as u32);
            }
            table.cands.push(cand);
        }
        table.start.push(table.cands.len() as u32);
        table
    }

    /// The candidates realizing the function with truth table `bits`.
    fn candidates(&self, bits: u64) -> &[Candidate] {
        match self.keys.binary_search(&bits) {
            Ok(k) => &self.cands[self.start[k] as usize..self.start[k + 1] as usize],
            Err(_) => &[],
        }
    }
}

impl Library {
    /// Builds a library from a cell list.
    ///
    /// # Panics
    ///
    /// Panics on duplicate cell names.
    pub fn new(cells: Vec<LibCell>) -> Self {
        let mut by_name = HashMap::new();
        for (i, c) in cells.iter().enumerate() {
            assert!(
                by_name.insert(c.name().to_string(), i).is_none(),
                "duplicate cell `{}`",
                c.name()
            );
        }
        Library {
            cells,
            by_name,
            match_tables: Default::default(),
        }
    }

    /// Looks up a cell by name.
    pub fn by_name(&self, name: &str) -> Option<&LibCell> {
        self.by_name.get(name).map(|&i| &self.cells[i])
    }

    /// Looks up a cell's index by name. The index is stable for the
    /// lifetime of the library and resolves via [`Library::cell_at`]
    /// without hashing — compiled simulation kernels resolve each
    /// distinct cell name once and index thereafter.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// The cell at `index` (as returned by [`Library::index_of`]).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[inline]
    pub fn cell_at(&self, index: usize) -> &LibCell {
        &self.cells[index]
    }

    /// All cells.
    pub fn cells(&self) -> &[LibCell] {
        &self.cells
    }

    /// All combinational cells with their truth tables.
    pub fn comb_cells(&self) -> impl Iterator<Item = (&LibCell, &TruthTable)> {
        self.cells.iter().filter_map(|c| match c.function() {
            CellFunction::Comb(tt) => Some((c, tt)),
            _ => None,
        })
    }

    /// Names of the sequential cells (for the Verilog reader).
    pub fn seq_cell_names(&self) -> Vec<&str> {
        self.cells
            .iter()
            .filter(|c| c.is_sequential())
            .map(|c| c.name())
            .collect()
    }

    /// Finds the minimum-area realization of `target` (a function whose
    /// support uses variables `0..target.vars()`) as a library cell
    /// under an input permutation, an input phase assignment (inverters
    /// on selected pins) and an optional output inversion — NPN
    /// matching with inverter cost included.
    ///
    /// `allowed` restricts candidates to the named cells — this is the
    /// paper's synthesis `script` constraint mechanism (inverters for
    /// phase assignment require `INV` to be allowed too).
    ///
    /// The candidates come from a table of every cell's realizations,
    /// built once per variable count on first use. Among the usable
    /// ones the first of the smallest area wins, in the order of cells,
    /// then [`permutations`], then phase masks.
    pub fn find_match(
        &self,
        target: &TruthTable,
        allowed: Option<&dyn Fn(&str) -> bool>,
    ) -> Option<MatchedCell> {
        let n = target.vars();
        let table =
            self.match_tables[usize::from(n)].get_or_init(|| MatchTable::build(&self.cells, n));
        let inv_area = self.by_name("INV").map(|c| c.area_um2());
        let inv_usable = inv_area.is_some() && allowed.is_none_or(|f| f("INV"));
        let mut best: Option<(f64, Candidate)> = None;
        for &cand in table.candidates(target.bits()) {
            let cell = &self.cells[cand.cell as usize];
            let extra = cand.mask.count_ones() + u32::from(cand.inverted);
            if (extra > 0 && !inv_usable) || allowed.is_some_and(|f| !f(cell.name())) {
                continue;
            }
            let area = cell.area_um2() + f64::from(extra) * inv_area.unwrap_or(0.0);
            if best.is_none_or(|(b, _)| area < b) {
                best = Some((area, cand));
            }
        }
        best.map(|(area_um2, cand)| MatchedCell {
            cell: self.cells[cand.cell as usize].name().to_string(),
            perm: table.perms[usize::from(cand.perm)].clone(),
            input_neg: (0..n).map(|i| cand.mask >> i & 1 == 1).collect(),
            inverted: cand.inverted,
            area_um2,
        })
    }

    /// Builds the default 0.18 µm / 1.8 V flavoured library used by the
    /// reproduction: the usual static CMOS set (inverters, buffers,
    /// NAND/NOR/AND/OR up to 4 inputs, XOR/XNOR, AOI/OAI compounds
    /// including the paper's AOI32, a mux, a D flip-flop and tie
    /// cells).
    pub fn lib180() -> Self {
        let mut cells = Vec::new();
        let bit = |x: u32, i: u8| x >> i & 1 == 1;

        let mut comb = |name: &str,
                        n: u8,
                        f: &dyn Fn(u32) -> bool,
                        width: u32,
                        cap: f64,
                        drive: f64,
                        d0: f64| {
            let tt = TruthTable::from_fn(n, f);
            // The drive/delay scaling keeps the paper's 125 MHz clock
            // closed on the evaluation half-cycle of the WDDL designs.
            cells.push(LibCell::new(
                name,
                CellFunction::Comb(tt),
                vec![cap; n as usize],
                drive * 0.45,
                d0 * 0.55,
                LefMacro::evenly_spread(width, n as usize, 1),
            ));
        };

        comb("INV", 1, &|x| !bit(x, 0), 3, 2.2, 4.0, 25.0);
        comb("BUF", 1, &|x| bit(x, 0), 4, 2.0, 3.0, 45.0);

        comb(
            "NAND2",
            2,
            &|x| !(bit(x, 0) && bit(x, 1)),
            4,
            2.1,
            3.8,
            35.0,
        );
        comb(
            "NAND3",
            3,
            &|x| !(bit(x, 0) && bit(x, 1) && bit(x, 2)),
            5,
            2.2,
            4.2,
            42.0,
        );
        comb(
            "NAND4",
            4,
            &|x| !(0..4).all(|i| bit(x, i)),
            6,
            2.3,
            4.6,
            50.0,
        );
        comb("NOR2", 2, &|x| !(bit(x, 0) || bit(x, 1)), 4, 2.1, 4.2, 38.0);
        comb(
            "NOR3",
            3,
            &|x| !(bit(x, 0) || bit(x, 1) || bit(x, 2)),
            5,
            2.2,
            4.6,
            46.0,
        );
        comb(
            "NOR4",
            4,
            &|x| !(0..4).any(|i| bit(x, i)),
            6,
            2.3,
            5.0,
            55.0,
        );

        comb("AND2", 2, &|x| bit(x, 0) && bit(x, 1), 5, 2.0, 4.0, 55.0);
        comb("AND3", 3, &|x| (0..3).all(|i| bit(x, i)), 6, 2.1, 4.2, 62.0);
        comb("AND4", 4, &|x| (0..4).all(|i| bit(x, i)), 7, 2.2, 4.5, 70.0);
        comb("OR2", 2, &|x| bit(x, 0) || bit(x, 1), 5, 2.0, 4.2, 58.0);
        comb("OR3", 3, &|x| (0..3).any(|i| bit(x, i)), 6, 2.1, 4.5, 66.0);
        comb("OR4", 4, &|x| (0..4).any(|i| bit(x, i)), 7, 2.2, 4.8, 74.0);

        comb("XOR2", 2, &|x| bit(x, 0) ^ bit(x, 1), 7, 2.6, 4.5, 70.0);
        comb("XNOR2", 2, &|x| !(bit(x, 0) ^ bit(x, 1)), 7, 2.6, 4.5, 70.0);

        comb(
            "AOI21",
            3,
            &|x| !((bit(x, 0) && bit(x, 1)) || bit(x, 2)),
            5,
            2.2,
            4.4,
            45.0,
        );
        comb(
            "AOI22",
            4,
            &|x| !((bit(x, 0) && bit(x, 1)) || (bit(x, 2) && bit(x, 3))),
            6,
            2.3,
            4.6,
            50.0,
        );
        comb(
            "AOI32",
            5,
            &|x| !((bit(x, 0) && bit(x, 1) && bit(x, 2)) || (bit(x, 3) && bit(x, 4))),
            7,
            2.4,
            4.8,
            55.0,
        );
        comb(
            "AOI33",
            6,
            &|x| !((bit(x, 0) && bit(x, 1) && bit(x, 2)) || (bit(x, 3) && bit(x, 4) && bit(x, 5))),
            8,
            2.5,
            5.0,
            60.0,
        );
        comb(
            "OAI21",
            3,
            &|x| !((bit(x, 0) || bit(x, 1)) && bit(x, 2)),
            5,
            2.2,
            4.4,
            45.0,
        );
        comb(
            "OAI22",
            4,
            &|x| !((bit(x, 0) || bit(x, 1)) && (bit(x, 2) || bit(x, 3))),
            6,
            2.3,
            4.6,
            50.0,
        );
        comb(
            "OAI32",
            5,
            &|x| !((bit(x, 0) || bit(x, 1) || bit(x, 2)) && (bit(x, 3) || bit(x, 4))),
            7,
            2.4,
            4.8,
            55.0,
        );
        comb(
            "OAI33",
            6,
            &|x| !((bit(x, 0) || bit(x, 1) || bit(x, 2)) && (bit(x, 3) || bit(x, 4) || bit(x, 5))),
            8,
            2.5,
            5.0,
            60.0,
        );

        // MUX2(a, b, s) = s ? b : a
        comb(
            "MUX2",
            3,
            &|x| if bit(x, 2) { bit(x, 1) } else { bit(x, 0) },
            7,
            2.4,
            4.4,
            65.0,
        );

        cells.push(LibCell::new(
            "DFF",
            CellFunction::Dff,
            vec![2.8],
            1.8,
            70.0,
            LefMacro::evenly_spread(12, 1, 1),
        ));
        cells.push(LibCell::new(
            "TIELO",
            CellFunction::Tie(false),
            vec![],
            8.0,
            0.0,
            LefMacro::evenly_spread(3, 0, 1),
        ));
        cells.push(LibCell::new(
            "TIEHI",
            CellFunction::Tie(true),
            vec![],
            8.0,
            0.0,
            LefMacro::evenly_spread(3, 0, 1),
        ));

        Library::new(cells)
    }
}

/// All permutations of `0..n` (n ≤ 6), via Heap's algorithm.
pub(crate) fn permutations(n: u8) -> Vec<Vec<u8>> {
    let mut items: Vec<u8> = (0..n).collect();
    let mut out = Vec::new();
    fn heap(k: usize, items: &mut Vec<u8>, out: &mut Vec<Vec<u8>>) {
        if k <= 1 {
            out.push(items.clone());
            return;
        }
        for i in 0..k {
            heap(k - 1, items, out);
            if k.is_multiple_of(2) {
                items.swap(i, k - 1);
            } else {
                items.swap(0, k - 1);
            }
        }
    }
    heap(n as usize, &mut items, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lib180_has_core_cells() {
        let lib = Library::lib180();
        for name in [
            "INV", "BUF", "NAND2", "NOR2", "AND2", "OR2", "XOR2", "AOI32", "OAI32", "MUX2", "DFF",
            "TIELO", "TIEHI",
        ] {
            assert!(lib.by_name(name).is_some(), "{name} missing");
        }
        assert!(lib.cells().len() >= 24);
    }

    #[test]
    fn aoi32_matches_paper_function() {
        let lib = Library::lib180();
        let aoi32 = lib.by_name("AOI32").unwrap().truth_table().unwrap();
        // Fig. 2: Y = NOT(A0·A1·A2 + B0·B1)
        let expect = TruthTable::from_fn(5, |x| {
            let a = x & 1 == 1 && x >> 1 & 1 == 1 && x >> 2 & 1 == 1;
            let b = x >> 3 & 1 == 1 && x >> 4 & 1 == 1;
            !(a || b)
        });
        assert_eq!(aoi32, &expect);
    }

    #[test]
    fn index_resolution_matches_by_name() {
        let lib = Library::lib180();
        for cell in lib.cells() {
            let i = lib.index_of(cell.name()).expect("indexed");
            assert!(std::ptr::eq(
                lib.cell_at(i),
                lib.by_name(cell.name()).unwrap()
            ));
        }
        assert_eq!(lib.index_of("NO_SUCH_CELL"), None);
    }

    #[test]
    fn seq_cells_listed() {
        let lib = Library::lib180();
        assert_eq!(lib.seq_cell_names(), vec!["DFF"]);
    }

    #[test]
    fn find_match_exact() {
        let lib = Library::lib180();
        let m = lib.find_match(&TruthTable::and2(), None).unwrap();
        assert_eq!(m.cell, "AND2");
        assert!(!m.inverted);
    }

    #[test]
    fn find_match_inverted() {
        let lib = Library::lib180();
        // NAND3's complement = AND3; but AND3 exists, so the direct
        // match should win on equal/lower area only if cheaper. Request
        // a function whose direct cell we exclude.
        let and3 = lib.by_name("AND3").unwrap().truth_table().unwrap();
        let allowed = |n: &str| n != "AND3";
        let m = lib.find_match(and3, Some(&allowed)).unwrap();
        assert!(m.inverted);
        assert_eq!(m.cell, "NAND3");
    }

    #[test]
    fn find_match_uses_permutation() {
        let lib = Library::lib180();
        // f(a, b, c) = ¬(c·b + a): AOI21 with permuted pins.
        let f = TruthTable::from_fn(3, |x| {
            let (a, b, c) = (x & 1 == 1, x >> 1 & 1 == 1, x >> 2 & 1 == 1);
            !((c && b) || a)
        });
        let m = lib.find_match(&f, None).unwrap();
        assert_eq!(m.cell, "AOI21");
        // Verify the permutation actually reproduces f.
        let cell_tt = lib.by_name("AOI21").unwrap().truth_table().unwrap();
        assert_eq!(&f.permute(&m.perm), cell_tt);
    }

    #[test]
    fn find_match_respects_allowlist() {
        let lib = Library::lib180();
        let allowed = |n: &str| n == "NOR2";
        assert!(lib
            .find_match(&TruthTable::and2(), Some(&allowed))
            .is_none());
    }

    /// An allowlist as [`Library::find_match`] takes it.
    type Allowed<'a> = Option<&'a dyn Fn(&str) -> bool>;

    /// `find_match` as a search: every cell of the target's width,
    /// every permutation, every phase mask. The table must answer
    /// exactly what this answers.
    fn enumerate_match(lib: &Library, target: &TruthTable, allowed: Allowed) -> Option<MatchedCell> {
        let inv_allowed = allowed.is_none_or(|f| f("INV"));
        let inv_area = lib.by_name("INV").map(|c| c.area_um2());
        let mut best: Option<MatchedCell> = None;
        let n = target.vars();
        for (cell, tt) in lib.comb_cells() {
            if allowed.is_some_and(|f| !f(cell.name())) || tt.vars() != n {
                continue;
            }
            for perm in permutations(n) {
                let permuted = target.permute(&perm);
                for mask in 0..(1u32 << n) {
                    let negs = mask.count_ones();
                    if negs > 0 && (!inv_allowed || inv_area.is_none()) {
                        continue;
                    }
                    let shifted = permuted.phase(mask);
                    let inverted = if shifted == *tt {
                        false
                    } else if shifted == tt.not() {
                        true
                    } else {
                        continue;
                    };
                    if inverted && (!inv_allowed || inv_area.is_none()) {
                        continue;
                    }
                    let extra = negs + inverted as u32;
                    let area = cell.area_um2() + f64::from(extra) * inv_area.unwrap_or(0.0);
                    if best.as_ref().is_none_or(|b| area < b.area_um2) {
                        best = Some(MatchedCell {
                            cell: cell.name().to_string(),
                            perm: perm.clone(),
                            input_neg: (0..n).map(|i| mask >> i & 1 == 1).collect(),
                            inverted,
                            area_um2: area,
                        });
                    }
                }
            }
        }
        best
    }

    /// On every function of 0–3 variables, on random NPN images of
    /// every library function of 1–5 variables and on random 4- and
    /// 5-variable functions, under no allowlist, one without `INV` and
    /// one without the NAND and AOI cells, the table's match equals
    /// the enumeration's, area bits included.
    #[test]
    fn table_matches_equal_enumerated_matches() {
        let lib = Library::lib180();
        let mut g = secflow_testkit::Gen::new(0x7AB1_E021, 1.0);
        let mut targets: Vec<TruthTable> = (0..=3u8)
            .flat_map(|n| (0..1u64 << (1 << n)).map(move |bits| TruthTable::from_bits(n, bits)))
            .collect();
        for (_, tt) in lib
            .comb_cells()
            .filter(|(_, tt)| (1..=5).contains(&tt.vars()))
        {
            let n = tt.vars();
            for _ in 0..16 {
                let mut perm: Vec<u8> = (0..n).collect();
                for k in (1..perm.len()).rev() {
                    perm.swap(k, g.random_range(0..k + 1));
                }
                let image = tt.permute(&perm).phase(g.random_range(0..1u32 << n));
                let invert = g.random_bool(0.5);
                targets.push(if invert { image.not() } else { image });
            }
        }
        for n in [4, 5] {
            targets.extend((0..24).map(|_| TruthTable::from_bits(n, g.random())));
        }

        let no_inv = |c: &str| c != "INV";
        let no_nand_aoi = |c: &str| !c.starts_with("NAND") && !c.starts_with("AOI");
        let allowlists: [Allowed; 3] = [None, Some(&no_inv), Some(&no_nand_aoi)];
        let bits = |m: Option<MatchedCell>| {
            m.map(|m| (m.cell, m.perm, m.input_neg, m.inverted, m.area_um2.to_bits()))
        };
        let mut matched = 0;
        for target in &targets {
            for allowed in allowlists {
                let want = enumerate_match(&lib, target, allowed);
                matched += usize::from(want.is_some());
                let got = lib.find_match(target, allowed);
                assert_eq!(bits(got), bits(want), "{target:?}");
            }
        }
        assert!(matched > targets.len(), "too few matches: {matched}");
    }

    #[test]
    fn permutation_count() {
        assert_eq!(permutations(3).len(), 6);
        assert_eq!(permutations(1).len(), 1);
        assert_eq!(permutations(0).len(), 1);
    }

    #[test]
    fn all_comb_cells_have_full_support() {
        // Every library function must depend on all of its declared
        // inputs — otherwise pin caps and matching are inconsistent.
        let lib = Library::lib180();
        for (cell, tt) in lib.comb_cells() {
            assert_eq!(
                tt.support().len(),
                cell.input_count(),
                "{} has dead inputs",
                cell.name()
            );
        }
    }
}
