//! Deterministic fault injection for the simulated DSM cluster.
//!
//! The paper's JIAJIA DSM ran over UDP on an 8-machine cluster, where
//! message loss, duplication, reordering, and machine failure are facts of
//! life. This crate supplies the *adversary* for the reliability layer in
//! `genomedsm-dsm`: a [`FaultPlan`] describes the links' fault rates and
//! the scheduled node crashes and rejoins, and [`SeededFaults`] turns it into a
//! [`FaultInjector`] whose every verdict is a pure hash of
//! `(seed, link, sequence number, attempt)` — so a chaos run is exactly
//! reproducible from its seed, regardless of host thread scheduling.
//!
//! ```
//! use genomedsm_chaos::{FaultPlan, SeededFaults};
//! use genomedsm_dsm::DsmConfig;
//! use std::sync::Arc;
//!
//! let plan = FaultPlan::paper_chaos(42); // 5% drop + dup + reorder + corrupt
//! let config = DsmConfig::new(4).faults(Arc::new(SeededFaults::new(plan)));
//! # let _ = config;
//! ```

#![warn(missing_docs)]

use genomedsm_dsm::{FaultInjector, LinkMsg, TransmitFate};
use std::time::Duration;

/// Fault rates of one directed link (all probabilities in `[0, 1]`).
///
/// The three delivery faults are resolved in order per transmission
/// attempt: first a loss draw (`drop`, then `corrupt`), and for surviving
/// copies independent draws for duplication and reordering delay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaults {
    /// Probability a copy is silently lost.
    pub drop: f64,
    /// Probability a copy arrives bit-corrupted (rejected by checksum,
    /// behaves like a loss but is counted separately).
    pub corrupt: f64,
    /// Probability a delivered copy is duplicated.
    pub duplicate: f64,
    /// Probability a delivered copy is held back in a queue, arriving up
    /// to [`LinkFaults::max_extra_delay`] late — which reorders it in
    /// virtual time against messages sent after it.
    pub reorder: f64,
    /// Maximum extra queueing delay applied to reordered copies.
    pub max_extra_delay: Duration,
}

impl LinkFaults {
    /// A perfectly healthy link.
    pub fn none() -> Self {
        Self {
            drop: 0.0,
            corrupt: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            max_extra_delay: Duration::ZERO,
        }
    }

    fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("drop", self.drop),
            ("corrupt", self.corrupt),
            ("duplicate", self.duplicate),
            ("reorder", self.reorder),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} rate {p} outside [0, 1]"));
            }
        }
        if self.drop + self.corrupt > 1.0 {
            return Err(format!(
                "drop ({}) + corrupt ({}) exceed 1",
                self.drop, self.corrupt
            ));
        }
        Ok(())
    }
}

/// A scheduled fail-stop crash of one worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashEvent {
    /// The machine that fails.
    pub node: usize,
    /// Strategy-defined work-unit ordinal after which it fails (for
    /// `pre_process`: the number of chunks completed).
    pub after_unit: u64,
}

/// A scheduled rejoin of a previously crashed worker (elastic
/// membership: the node announces itself after a spell of virtual
/// downtime and is readmitted at the next workload boundary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RejoinEvent {
    /// The crashed machine that comes back.
    pub node: usize,
    /// Work units of virtual downtime before it announces itself.
    pub after_unit: u64,
}

/// A complete, reproducible description of a chaos experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the deterministic fate stream.
    pub seed: u64,
    /// Fault rates applied to every inter-machine link.
    pub link: LinkFaults,
    /// Scheduled node crashes.
    pub crashes: Vec<CrashEvent>,
    /// Scheduled rejoins of crashed nodes.
    pub rejoins: Vec<RejoinEvent>,
}

impl FaultPlan {
    /// A plan with no faults at all (useful as a parse/CLI default).
    pub fn quiet(seed: u64) -> Self {
        Self {
            seed,
            link: LinkFaults::none(),
            crashes: Vec::new(),
            rejoins: Vec::new(),
        }
    }

    /// The reference chaos mix used by the test suite and the bench
    /// harness: 5% drop, 1% corruption, 5% duplication, 5% reordering
    /// with up to 2 ms of extra queueing delay — harsh for a LAN, yet
    /// every protocol run must still produce bit-identical results.
    pub fn paper_chaos(seed: u64) -> Self {
        Self {
            link: LinkFaults {
                drop: 0.05,
                corrupt: 0.01,
                duplicate: 0.05,
                reorder: 0.05,
                max_extra_delay: Duration::from_millis(2),
            },
            ..Self::quiet(seed)
        }
    }

    /// Adds a scheduled crash (builder-style).
    pub fn with_crash(mut self, node: usize, after_unit: u64) -> Self {
        self.crashes.push(CrashEvent { node, after_unit });
        self
    }

    /// Adds a scheduled rejoin of a crashed node (builder-style). Only
    /// meaningful for a node with a scheduled crash; the rejoin must name
    /// a workload boundary inside the run (see the elastic-membership
    /// notes in DESIGN.md §5.13).
    pub fn with_rejoin(mut self, node: usize, after_unit: u64) -> Self {
        self.rejoins.push(RejoinEvent { node, after_unit });
        self
    }

    /// Parses a plan specification.
    ///
    /// Accepts a named preset (`none`, `paper`) or a comma-separated list
    /// of `key=value` settings:
    ///
    /// ```text
    /// seed=42,drop=0.05,dup=0.02,reorder=0.05,corrupt=0.01,delay_us=2000,crash=3@40
    /// ```
    ///
    /// `crash=NODE@UNIT` and `rejoin=NODE@UNIT` may repeat (a rejoin
    /// needs a matching crash). Unknown keys and malformed values are
    /// errors, so a typo cannot silently run a different experiment.
    pub fn parse(spec: &str) -> Result<Self, String> {
        match spec.trim() {
            "none" => return Ok(Self::quiet(0)),
            "paper" => return Ok(Self::paper_chaos(42)),
            _ => {}
        }
        let mut plan = Self::quiet(42);
        for item in spec.split(',') {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            let (key, value) = item
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got '{item}'"))?;
            let fnum = || -> Result<f64, String> {
                value
                    .parse::<f64>()
                    .map_err(|_| format!("bad number for {key}: '{value}'"))
            };
            let event = || -> Result<(usize, u64), String> {
                let (node, unit) = value
                    .split_once('@')
                    .ok_or_else(|| format!("{key} wants NODE@UNIT, got '{value}'"))?;
                let node = node.parse();
                let unit = unit.parse();
                node.ok()
                    .zip(unit.ok())
                    .ok_or_else(|| format!("bad {key}: '{value}'"))
            };
            match key {
                "seed" => {
                    plan.seed = value.parse().map_err(|_| format!("bad seed: '{value}'"))?;
                }
                "drop" => plan.link.drop = fnum()?,
                "corrupt" => plan.link.corrupt = fnum()?,
                "dup" | "duplicate" => plan.link.duplicate = fnum()?,
                "reorder" => plan.link.reorder = fnum()?,
                "delay_us" => {
                    plan.link.max_extra_delay = Duration::from_micros(
                        value
                            .parse()
                            .map_err(|_| format!("bad delay_us: '{value}'"))?,
                    );
                }
                "crash" => {
                    let (node, after_unit) = event()?;
                    plan.crashes.push(CrashEvent { node, after_unit });
                }
                "rejoin" => {
                    let (node, after_unit) = event()?;
                    plan.rejoins.push(RejoinEvent { node, after_unit });
                }
                other => return Err(format!("unknown fault-plan key '{other}'")),
            }
        }
        if plan.link.reorder > 0.0 && plan.link.max_extra_delay == Duration::ZERO {
            plan.link.max_extra_delay = Duration::from_millis(2);
        }
        for r in &plan.rejoins {
            if !plan.crashes.iter().any(|c| c.node == r.node) {
                return Err(format!(
                    "rejoin={}@{} has no matching crash for node {}",
                    r.node, r.after_unit, r.node
                ));
            }
        }
        plan.link.validate()?;
        Ok(plan)
    }
}

// ---------------------------------------------------------------------
// Seeded injector
// ---------------------------------------------------------------------

/// SplitMix64 finalizer: a strong, cheap 64-bit mixer (public domain
/// constants from Steele et al., "Fast Splittable Pseudorandom Number
/// Generators").
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from a hash state (53 mantissa bits).
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// The deterministic [`FaultInjector`]: fates are pure hashes of the
/// plan seed and the transmission identity.
#[derive(Debug, Clone)]
pub struct SeededFaults {
    plan: FaultPlan,
}

impl SeededFaults {
    /// Wraps a plan; its link rates must be valid probabilities.
    pub fn new(plan: FaultPlan) -> Self {
        plan.link.validate().expect("invalid link faults");
        Self { plan }
    }

    /// One independent hash stream per (link message, purpose salt).
    fn draw(&self, link: &LinkMsg, salt: u64) -> u64 {
        let mut h = self.plan.seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F);
        for field in [
            link.from as u64,
            link.to as u64,
            link.chan as u64,
            link.seq,
            link.attempt as u64,
        ] {
            h = splitmix64(h ^ field);
        }
        h
    }
}

impl FaultInjector for SeededFaults {
    fn fate(&self, link: &LinkMsg) -> TransmitFate {
        let lf = self.plan.link;
        let loss = unit(self.draw(link, 1));
        if loss < lf.drop {
            return TransmitFate::Drop;
        }
        if loss < lf.drop + lf.corrupt {
            return TransmitFate::Corrupt;
        }
        let duplicates = u8::from(unit(self.draw(link, 2)) < lf.duplicate);
        let extra_delay = if unit(self.draw(link, 3)) < lf.reorder {
            lf.max_extra_delay.mul_f64(unit(self.draw(link, 4)))
        } else {
            Duration::ZERO
        };
        TransmitFate::Deliver {
            extra_delay,
            duplicates,
        }
    }

    fn crash_point(&self, node: usize) -> Option<u64> {
        self.plan
            .crashes
            .iter()
            .filter(|c| c.node == node)
            .map(|c| c.after_unit)
            .min()
    }

    fn rejoin_point(&self, node: usize) -> Option<u64> {
        self.plan
            .rejoins
            .iter()
            .filter(|r| r.node == node)
            .map(|r| r.after_unit)
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn links(n: u64) -> impl Iterator<Item = LinkMsg> {
        (0..n).map(|seq| LinkMsg {
            from: 0,
            to: 9, // daemon 1 in an 8-proc cluster
            chan: 0,
            seq,
            attempt: 0,
        })
    }

    #[test]
    fn fates_are_deterministic() {
        let a = SeededFaults::new(FaultPlan::paper_chaos(7));
        let b = SeededFaults::new(FaultPlan::paper_chaos(7));
        for l in links(500) {
            assert_eq!(a.fate(&l), b.fate(&l));
        }
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let a = SeededFaults::new(FaultPlan::paper_chaos(1));
        let b = SeededFaults::new(FaultPlan::paper_chaos(2));
        let diff = links(500).filter(|l| a.fate(l) != b.fate(l)).count();
        assert!(diff > 0, "seed must matter");
    }

    #[test]
    fn empirical_rates_track_configured_rates() {
        let inj = SeededFaults::new(FaultPlan::parse("seed=11,drop=0.2").unwrap());
        let n = 20_000u64;
        let drops = links(n)
            .filter(|l| matches!(inj.fate(l), TransmitFate::Drop))
            .count() as f64;
        let rate = drops / n as f64;
        assert!((rate - 0.2).abs() < 0.02, "observed drop rate {rate}");
    }

    #[test]
    fn quiet_plan_always_delivers_clean() {
        let inj = SeededFaults::new(FaultPlan::quiet(3));
        for l in links(200) {
            assert_eq!(
                inj.fate(&l),
                TransmitFate::Deliver {
                    extra_delay: Duration::ZERO,
                    duplicates: 0
                }
            );
        }
    }

    #[test]
    fn crash_point_reports_earliest_event() {
        let plan = FaultPlan::quiet(0).with_crash(2, 40).with_crash(2, 10);
        let inj = SeededFaults::new(plan);
        assert_eq!(inj.crash_point(2), Some(10));
        assert_eq!(inj.crash_point(3), None);
    }

    #[test]
    fn parse_round_trips_settings() {
        let plan = FaultPlan::parse(
            "seed=9,drop=0.1,dup=0.02,reorder=0.3,corrupt=0.01,delay_us=500,crash=3@40",
        )
        .unwrap();
        assert_eq!(plan.seed, 9);
        assert_eq!(plan.link.drop, 0.1);
        assert_eq!(plan.link.duplicate, 0.02);
        assert_eq!(plan.link.reorder, 0.3);
        assert_eq!(plan.link.corrupt, 0.01);
        assert_eq!(plan.link.max_extra_delay, Duration::from_micros(500));
        assert_eq!(
            plan.crashes,
            vec![CrashEvent {
                node: 3,
                after_unit: 40
            }]
        );
    }

    #[test]
    fn parse_rejects_typos_and_bad_rates() {
        assert!(FaultPlan::parse("dorp=0.1").is_err());
        assert!(FaultPlan::parse("drop=1.5").is_err());
        assert!(FaultPlan::parse("crash=3").is_err());
        assert!(FaultPlan::parse("drop=abc").is_err());
    }

    #[test]
    fn parse_rejoin_needs_a_matching_crash() {
        let plan = FaultPlan::parse("crash=2@10,rejoin=2@6").unwrap();
        assert_eq!(
            plan.rejoins,
            vec![RejoinEvent {
                node: 2,
                after_unit: 6
            }]
        );
        assert!(FaultPlan::parse("rejoin=2@6").is_err());
        assert!(FaultPlan::parse("crash=1@10,rejoin=2@6").is_err());
        assert!(FaultPlan::parse("crash=2@10,rejoin=2").is_err());
        assert!(FaultPlan::parse("crash=2@10,rejoin=x@6").is_err());
    }

    #[test]
    fn rejoin_point_reports_earliest_event_for_scheduled_nodes_only() {
        let plan = FaultPlan::quiet(0)
            .with_crash(2, 10)
            .with_rejoin(2, 8)
            .with_rejoin(2, 4);
        let inj = SeededFaults::new(plan);
        assert_eq!(inj.rejoin_point(2), Some(4));
        assert_eq!(inj.rejoin_point(3), None);
    }

    #[test]
    fn parse_presets() {
        assert_eq!(FaultPlan::parse("none").unwrap(), FaultPlan::quiet(0));
        assert_eq!(
            FaultPlan::parse("paper").unwrap(),
            FaultPlan::paper_chaos(42)
        );
    }
}
