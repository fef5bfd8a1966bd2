//! Driver-level property: on random grids, a toy additive kernel run by
//! `strategies::wavefront` over both borders — and, on the ledger
//! border, through a kill and a kill + rejoin — computes exactly the
//! serial fold.

use genomedsm_dsm::{DsmConfig, DsmSystem, FaultPlan, Node, SupervisionConfig};
use genomedsm_strategies::wavefront::{Grid, Stage, Wavefront};
use std::collections::BTreeMap;
use std::time::Duration;

/// Value of unit `(stage, k)` given the kernel-local carry and the
/// inbound chunk; also the rule for the chunk it hands down.
fn cell(stage: usize, k: usize, carry: i64, inbound: &[i64]) -> i64 {
    let weighted = inbound.iter().zip(1i64..).map(|(v, i)| v.wrapping_mul(i));
    weighted.fold(carry.wrapping_mul(3), i64::wrapping_add) + (stage * 31 + k * 7 + 1) as i64
}

fn chunk_of(value: i64, len: usize) -> impl Iterator<Item = i64> {
    (2i64..).take(len).map(move |i| value.wrapping_mul(i) ^ i)
}

/// The toy kernel: the carry is the `(b, k-1)` dependency, the trace of
/// `((stage, k), value)` the sink.
struct Toy<'a> {
    grid: &'a Grid,
    carry: i64,
    trace: Vec<((usize, usize), i64)>,
}

impl Stage for Toy<'_> {
    type Cell = i64;

    fn begin(&mut self, _: usize) {
        self.carry = 0;
    }

    fn unit(
        &mut self,
        _: &mut Node,
        stage: usize,
        k: usize,
        inbound: &[i64],
        out: &mut Vec<i64>,
    ) -> usize {
        assert_eq!(inbound.len(), self.grid.chunks[k], "inbound chunk length");
        if stage == 0 {
            assert!(
                inbound.iter().all(|&v| v == 0),
                "stage 0 sees the zero edge"
            );
        }
        self.carry = cell(stage, k, self.carry, inbound);
        self.trace.push(((stage, k), self.carry));
        out.extend(chunk_of(self.carry, self.grid.chunks[k]));
        1
    }
}

fn toy(grid: &Grid) -> Toy<'_> {
    Toy {
        grid,
        carry: 0,
        trace: Vec::new(),
    }
}

/// The oracle: the same recurrence in two plain nested loops.
fn serial_fold(grid: &Grid) -> BTreeMap<(usize, usize), i64> {
    let mut values = BTreeMap::new();
    let mut above: Vec<Vec<i64>> = grid.chunks.iter().map(|&len| vec![0; len]).collect();
    for stage in 0..grid.stages {
        let mut carry = 0;
        for (k, &len) in grid.chunks.iter().enumerate() {
            carry = cell(stage, k, carry, &above[k]);
            values.insert((stage, k), carry);
            above[k] = chunk_of(carry, len).collect();
        }
    }
    values
}

/// Folds per-worker traces into one map; a unit executed twice (takeover
/// replay) must have produced the same value both times.
fn merged(
    traces: impl IntoIterator<Item = Vec<((usize, usize), i64)>>,
) -> BTreeMap<(usize, usize), i64> {
    let mut values = BTreeMap::new();
    for (at, value) in traces.into_iter().flatten() {
        assert_eq!(
            *values.entry(at).or_insert(value),
            value,
            "unit {at:?} diverged on replay"
        );
    }
    values
}

/// Runs the toy on a simulated cluster; returns the merged trace and the
/// cluster's `(takeovers, rejoins)`.
fn on_dsm(grid: &Grid, config: DsmConfig) -> (BTreeMap<(usize, usize), i64>, [u64; 2]) {
    let wavefront = Wavefront {
        grid,
        cell_cost: Duration::from_micros(1),
        unit_cells: 1,
        rounds: 1,
        finish_barriers: 0,
    };
    let run = DsmSystem::run(config, |node| {
        let trace_of = |round: genomedsm_strategies::wavefront::Round<'_, Toy<'_>>| {
            let pieces = round.pieces.into_iter().flatten();
            pieces.flat_map(|toy| toy.trace).collect::<Vec<_>>()
        };
        let mut rounds = wavefront.run(node, |_| toy(grid), |_, round| trace_of(round));
        rounds.pop().unwrap_or_default()
    });
    let sum = |f: fn(&genomedsm_dsm::NodeStats) -> u64| run.stats.iter().map(f).sum();
    let stats = [sum(|s| s.takeovers), sum(|s| s.rejoins)];
    (merged(run.results), stats)
}

fn supervised(nprocs: usize) -> DsmConfig {
    DsmConfig::new(nprocs).supervise(SupervisionConfig {
        enabled: true,
        detect_after: Duration::from_millis(30),
    })
}

/// xorshift64*: the test's only source of randomness, so every grid
/// reproduces from its seed.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % n
    }
}

#[test]
fn every_border_and_recovery_policy_equals_the_serial_fold() {
    for seed in 1..=14u64 {
        let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let roles = 1 + rng.below(5);
        // Seeds 1–3 force more ranks than stages; chunk lengths are
        // ragged and include zero-width units.
        let stages = if seed <= 3 {
            1 + rng.below(roles)
        } else {
            1 + rng.below(12)
        };
        let chunks: Vec<usize> = (0..1 + rng.below(9)).map(|_| rng.below(5)).collect();
        // A lone role feeds itself: its window must hold a whole stage.
        let window = if roles == 1 {
            chunks.len()
        } else {
            1 + rng.below(chunks.len())
        };
        let grid = Grid {
            stages,
            roles,
            chunks,
            window,
        };
        let expect = serial_fold(&grid);
        let case = format!("seed {seed}: {grid:?}");

        let (ring, _) = on_dsm(&grid, DsmConfig::new(roles));
        assert_eq!(ring, expect, "ring, {case}");
        let (ledger, [takeovers, _]) = on_dsm(&grid, supervised(roles));
        assert_eq!(ledger, expect, "ledger, {case}");
        assert_eq!(takeovers, 0, "fault-free ledger run took over work, {case}");

        // A victim that owns at least one stage, killed at one of the unit
        // ordinals it reaches.
        let victim = rng.below(roles.min(stages));
        let owned = (stages - victim).div_ceil(roles) * grid.chunks.len();
        let at = 1 + rng.below(owned) as u64;
        if roles == 1 {
            continue; // nobody left to take over
        }
        let kill = FaultPlan::quiet(seed).with_crash(victim, at);
        let (ledger, [takeovers, _]) = on_dsm(&grid, supervised(roles).faults(kill.clone()));
        assert_eq!(ledger, expect, "kill {victim}:{at}, {case}");
        assert!(
            takeovers >= 1,
            "kill {victim}:{at} never taken over, {case}"
        );
        let rejoin = kill.with_rejoin(victim, 2);
        let (ledger, [_, rejoins]) = on_dsm(&grid, supervised(roles).faults(rejoin));
        assert_eq!(ledger, expect, "kill + rejoin {victim}:{at}, {case}");
        assert_eq!(rejoins, 1, "victim {victim} never rejoined, {case}");
    }
}
