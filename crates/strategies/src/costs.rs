//! Era-calibrated virtual-time cost model.
//!
//! The reproduction runs on a simulated cluster with virtual clocks (see
//! `genomedsm-dsm`). Computation advances a node's clock by
//! `cells × cell cost`; the per-cell costs here are calibrated to the
//! paper's own measurements on its Pentium II 350 MHz nodes:
//!
//! * **Heuristic cell** (the §4.1 kernel with candidate metadata):
//!   Table 1's serial run on the 50 kBP pair takes 3461 s for
//!   50 000 × 50 000 cells → **1.38 µs per cell** (the 15 kBP row gives
//!   1.32 µs — consistent). We use 1.4 µs.
//! * **Plain SW cell** (the §5 pre-process kernel, scores only): Fig. 19's
//!   sequential 80 kBP runs sit near 900 s for 6.4·10⁹ cells →
//!   **~140 ns per cell**, an order of magnitude cheaper than the
//!   metadata-heavy heuristic cell, matching the paper's motivation for
//!   the strategy.
//! * **Global-alignment cell** (phase 2's NW with traceback): not
//!   directly reported; we take 250 ns (between the two, as NW keeps the
//!   full matrix but no candidate metadata). Fig. 15 reports only
//!   speed-ups, which are insensitive to this constant.

use std::time::Duration;

/// Era cost of one heuristic (§4.1) cell update.
pub const HCELL_CELL: Duration = Duration::from_nanos(1400);

/// Era cost of one plain SW (§5) cell update.
pub const PLAIN_CELL: Duration = Duration::from_nanos(140);

/// Era cost of one global-alignment (phase 2) cell.
pub const NW_CELL: Duration = Duration::from_nanos(250);

/// Virtual duration of `cells` cell updates at `per_cell`.
#[inline]
pub fn cells(per_cell: Duration, cells: usize) -> Duration {
    Duration::from_nanos(per_cell.as_nanos() as u64 * cells as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_scales_linearly() {
        assert_eq!(
            cells(Duration::from_nanos(100), 1000),
            Duration::from_micros(100)
        );
        assert_eq!(cells(HCELL_CELL, 0), Duration::ZERO);
    }

    #[test]
    fn era_costs_are_ordered() {
        // The metadata-heavy kernel must cost more than the plain one.
        assert!(HCELL_CELL > NW_CELL);
        assert!(NW_CELL > PLAIN_CELL);
    }
}
