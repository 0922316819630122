//! `table_repro`: the reproduction's own user path, no service. An op is
//! one Table 1 cell on the GTX 470 —
//! `hybrid_bench::measure(compiler, stencil, device, dims, steps, 3)` —
//! which drives the sampled interpreter (`run_plan_sampled`) and the
//! baseline generators that no service workload touches.

use gpusim::DeviceConfig;
use hybrid_bench::{measure, scaled_workload, Compiler, Measurement};
use stencil::{gallery, StencilProgram};

use crate::rng::SplitMix64;

/// Thread blocks sampled per launch, as the table binaries use.
pub const SAMPLES: usize = 3;

/// A cell's workload: `scaled_workload`'s grid with a quarter of its time
/// steps (15 in 2-D, 4 in 3-D — still at least one full time tile of every
/// compiler). At the full step count one block of cells takes 17 s, and a
/// run has to hold several whole blocks.
pub fn cell_workload(program: &StencilProgram) -> (Vec<usize>, usize) {
    let (dims, steps) = scaled_workload(program);
    (dims, steps.div_ceil(4))
}

/// One Table 1 cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cell {
    pub compiler: Compiler,
    /// Index into [`gallery::table3_stencils`].
    pub stencil: usize,
}

/// The stencils and the block of cells every run repeats.
pub struct Table {
    stencils: Vec<StencilProgram>,
    cells: Vec<Cell>,
}

impl Table {
    /// The PPCG, Par4All and Overtile rows for all seven Table 3 stencils
    /// and the hybrid row for the four 2-D stencils plus laplacian3d
    /// (heat3d and gradient3d under hybrid tiling cost more than the other
    /// 26 cells together).
    pub fn new() -> Table {
        let stencils = gallery::table3_stencils();
        let mut cells = Vec::new();
        for compiler in [Compiler::Ppcg, Compiler::Par4all, Compiler::Overtile] {
            cells.extend((0..stencils.len()).map(|stencil| Cell { compiler, stencil }));
        }
        cells.extend(
            stencils
                .iter()
                .enumerate()
                .filter(|(_, p)| p.spatial_dims() == 2 || p.name() == "laplacian3d")
                .map(|(stencil, _)| Cell {
                    compiler: Compiler::Hybrid,
                    stencil,
                }),
        );
        Table { stencils, cells }
    }

    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    pub fn program(&self, cell: &Cell) -> &StencilProgram {
        &self.stencils[cell.stencil]
    }

    pub fn key(&self, cell: &Cell) -> String {
        format!("{}|{}", cell.compiler.name(), self.program(cell).name())
    }

    /// The cheap cells (everything but the hybrid row): the warm-up pass.
    pub fn warm_up_cells(&self) -> Vec<Cell> {
        self.cells
            .iter()
            .copied()
            .filter(|c| c.compiler != Compiler::Hybrid)
            .collect()
    }

    pub fn measure(&self, cell: &Cell, device: &DeviceConfig) -> Measurement {
        let program = self.program(cell);
        let (dims, steps) = cell_workload(program);
        measure(cell.compiler, program, device, &dims, steps, SAMPLES)
    }

    /// The seeded cell stream: each block is a fresh permutation of
    /// [`Table::cells`].
    pub fn order(&self, seed: u64) -> CellOrder {
        CellOrder {
            template: self.cells.clone(),
            current: Vec::new(),
            rng: SplitMix64::new(seed ^ 0x7461_626c_655f_7265),
            next_index: 0,
        }
    }
}

pub struct CellOrder {
    template: Vec<Cell>,
    current: Vec<Cell>,
    rng: SplitMix64,
    next_index: usize,
}

impl Iterator for CellOrder {
    /// `(index in the stream, cell)`.
    type Item = (usize, Cell);

    fn next(&mut self) -> Option<(usize, Cell)> {
        let len = self.template.len();
        let index = self.next_index;
        if index.is_multiple_of(len) {
            self.current = self.template.clone();
            self.rng.shuffle(&mut self.current);
        }
        self.next_index += 1;
        Some((index, self.current[index % len]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_six_cells_and_seeded_order() {
        let table = Table::new();
        assert_eq!(table.cells().len(), 26);
        assert_eq!(table.warm_up_cells().len(), 21);
        let order = |seed| -> Vec<Cell> { table.order(seed).take(52).map(|c| c.1).collect() };
        assert_eq!(order(4), order(4));
        assert_ne!(order(4), order(5));
        let mut first: Vec<String> = order(4)[..26].iter().map(|c| table.key(c)).collect();
        first.sort();
        first.dedup();
        assert_eq!(first.len(), 26);
    }
}
