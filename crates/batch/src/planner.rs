//! The batch planner: binning queries into lane groups.
//!
//! A packed kernel invocation costs `max(len of packed queries) × |target|`
//! vector rows — every lane rides along for the longest member's rows, so
//! mixed-length groups burn lanes on padding. Minimizing total cost is a
//! bin-packing problem with a clean greedy optimum: sort queries by
//! descending length and cut the sorted list into consecutive chunks of
//! `lanes`. Any other assignment of the same queries into groups of ≤
//! `lanes` has a sum of per-group maxima at least as large (exchange
//! argument: the k-th largest group maximum is at least the k-th element
//! of the sorted sequence sampled every `lanes` positions).
//!
//! Queries outside the i16 envelope ([`fits_i16_query`]) cannot be packed
//! exactly and are spilled to the scalar list; the engine runs them through
//! the scalar oracle so results stay bit-exact. The engine cuts groups
//! `genomedsm_kernels::group_lanes` wide — a query per `i8` lane — and the
//! i16 admission is what makes a group's `i16` re-run of a saturated
//! record exact.

use genomedsm_kernels::{fits_i16_query, Scheme};

/// The planner's output: packed lane groups plus the scalar spill list.
///
/// Indices refer to the caller's query slice. Group membership and order
/// are deterministic functions of the query lengths alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LanePlan {
    /// Query-index groups, each at most `lanes` wide, internally sorted by
    /// descending length (ties by ascending index).
    pub groups: Vec<Vec<usize>>,
    /// Queries that must run on the scalar kernel.
    pub scalar: Vec<usize>,
    /// Cells of padding the grouping accepts: `Σ_groups (max_len −
    /// member_len)` summed over members, in query rows (multiply by target
    /// length for DP cells). Benchmarks report this as packing efficiency.
    pub padding_rows: usize,
}

/// Bins `queries` into lane groups of width `lanes`, admitting a query to
/// lane packing iff `fits(len)` holds (the i16-envelope predicate of the
/// scoring scheme in use: [`fits_i16_query`]).
///
/// `lanes <= 1` means the caller has no packed kernel (scalar choice or no
/// SIMD); everything spills to the scalar list.
pub fn plan_lane_groups_fitting(
    queries: &[&[u8]],
    lanes: usize,
    fits: impl Fn(usize) -> bool,
) -> LanePlan {
    if lanes <= 1 {
        return LanePlan {
            groups: Vec::new(),
            scalar: (0..queries.len()).collect(),
            padding_rows: 0,
        };
    }
    let (mut packable, scalar): (Vec<usize>, Vec<usize>) =
        (0..queries.len()).partition(|&i| fits(queries[i].len()));
    // Descending length; ascending index on ties keeps the plan stable.
    packable.sort_by_key(|&i| (std::cmp::Reverse(queries[i].len()), i));
    let mut groups = Vec::with_capacity(packable.len().div_ceil(lanes));
    let mut padding_rows = 0usize;
    for chunk in packable.chunks(lanes) {
        let max = queries[chunk[0]].len();
        padding_rows += chunk.iter().map(|&i| max - queries[i].len()).sum::<usize>();
        groups.push(chunk.to_vec());
    }
    LanePlan {
        groups,
        scalar,
        padding_rows,
    }
}

/// [`plan_lane_groups_fitting`] with `scheme`'s i16 envelope.
pub fn plan_lane_groups<S: Scheme>(queries: &[&[u8]], lanes: usize, scheme: &S) -> LanePlan {
    plan_lane_groups_fitting(queries, lanes, |len| fits_i16_query(len, scheme))
}

#[cfg(test)]
mod tests {
    use super::*;
    use genomedsm_core::scoring::Scoring;

    const SC: Scoring = Scoring::paper();

    #[test]
    fn groups_are_descending_length_chunks() {
        let qs: Vec<Vec<u8>> = [3usize, 9, 1, 7, 5, 2, 8]
            .iter()
            .map(|&n| vec![b'A'; n])
            .collect();
        let refs: Vec<&[u8]> = qs.iter().map(|q| q.as_slice()).collect();
        let plan = plan_lane_groups(&refs, 4, &SC);
        // Lengths sorted desc: 9(i1) 8(i6) 7(i3) 5(i4) | 3(i0) 2(i5) 1(i2)
        assert_eq!(plan.groups, vec![vec![1, 6, 3, 4], vec![0, 5, 2]]);
        assert!(plan.scalar.is_empty());
        // Padding: group 1: (9-9)+(9-8)+(9-7)+(9-5)=7; group 2: 0+1+2=3.
        assert_eq!(plan.padding_rows, 10);
    }

    #[test]
    fn oversized_queries_spill_to_scalar() {
        let long = vec![b'A'; 40_000];
        let short = vec![b'C'; 10];
        let refs: Vec<&[u8]> = vec![&long, &short];
        let plan = plan_lane_groups(&refs, 8, &SC);
        assert_eq!(plan.scalar, vec![0]);
        assert_eq!(plan.groups, vec![vec![1]]);
    }

    #[test]
    fn lane_width_one_means_all_scalar() {
        let refs: Vec<&[u8]> = vec![b"ACGT", b"GG"];
        let plan = plan_lane_groups(&refs, 1, &SC);
        assert!(plan.groups.is_empty());
        assert_eq!(plan.scalar, vec![0, 1]);
    }

    #[test]
    fn empty_query_set_plans_to_nothing() {
        let plan = plan_lane_groups(&[], 8, &SC);
        assert!(plan.groups.is_empty() && plan.scalar.is_empty());
    }

    #[test]
    fn plan_is_deterministic() {
        let qs: Vec<Vec<u8>> = (0..50).map(|i| vec![b'G'; (i * 7) % 23 + 1]).collect();
        let refs: Vec<&[u8]> = qs.iter().map(|q| q.as_slice()).collect();
        assert_eq!(
            plan_lane_groups(&refs, 16, &SC),
            plan_lane_groups(&refs, 16, &SC)
        );
    }
}
