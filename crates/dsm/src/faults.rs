//! Deterministic fault plans for the DSM's links and nodes.
//!
//! The paper's JIAJIA DSM ran over UDP on an 8-machine cluster, where
//! message loss, duplication, reordering, and machine failure are facts of
//! life. A [`FaultPlan`] is the adversary the DSM absorbs: the links' fault
//! rates and the scheduled node crashes and rejoins. Every link verdict
//! ([`FaultPlan::fate`]) is a pure hash of `(seed, link, sequence number,
//! attempt)`, so a chaos run is exactly reproducible from its seed,
//! regardless of host thread scheduling. In-process the fates are priced
//! into virtual time ([`crate::net::loss_price`]); over sockets the UDP
//! transport applies them to the real datagrams.
//!
//! ```
//! use genomedsm_dsm::{DsmConfig, FaultPlan};
//!
//! let plan = FaultPlan::paper_chaos(42); // 5% drop + dup + reorder + corrupt
//! let config = DsmConfig::new(4).faults(plan);
//! # let _ = config;
//! ```

use crate::net::{LinkMsg, TransmitFate};
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
    /// A plan with no faults at all (the [`crate::DsmConfig`] default).
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
    /// needs a matching crash). A `reorder` without `delay_us` delays by
    /// up to 2 ms. Unknown keys, malformed values, and a `reorder` whose
    /// `delay_us` is 0 are errors, so a typo cannot silently run a
    /// different experiment. Whether the plan fits a cluster is
    /// [`FaultPlan::check`]'s question.
    pub fn parse(spec: &str) -> Result<Self, String> {
        match spec.trim() {
            "none" => return Ok(Self::quiet(0)),
            "paper" => return Ok(Self::paper_chaos(42)),
            _ => {}
        }
        let mut plan = Self::quiet(42);
        let mut delay = None;
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
                    let us = value
                        .parse()
                        .map_err(|_| format!("bad delay_us: '{value}'"))?;
                    delay = Some(Duration::from_micros(us));
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
        let reorders = plan.link.reorder > 0.0;
        plan.link.max_extra_delay = match delay {
            None if reorders => Duration::from_millis(2),
            Some(d) if reorders && d.is_zero() => {
                return Err(format!(
                    "reorder={} with delay_us=0 delays nothing (drop delay_us for the 2 ms default)",
                    plan.link.reorder
                ));
            }
            d => d.unwrap_or(Duration::ZERO),
        };
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

    /// Checks that the plan fits a cluster of `nprocs` nodes: valid link
    /// rates, every crash and rejoin naming a node of the cluster, and at
    /// least one node left that never crashes — a scheduled crash is a
    /// fail-stop the survivors take over, and nobody would be left to
    /// hold the answer.
    pub fn check(&self, nprocs: usize) -> Result<(), String> {
        self.link.validate()?;
        let crashing = self.crashes.iter().map(|c| c.node);
        let rejoining = self.rejoins.iter().map(|r| r.node);
        if let Some(n) = crashing.chain(rejoining).find(|&n| n >= nprocs) {
            return Err(format!("node {n} is outside a {nprocs}-node cluster"));
        }
        if (0..nprocs).all(|n| self.crash_point(n).is_some()) {
            return Err(format!(
                "the fault plan crashes all {nprocs} ranks: no survivor to take over"
            ));
        }
        Ok(())
    }

    /// Verdict for one transmission attempt: a pure hash of the seed and
    /// the transmission identity.
    pub fn fate(&self, link: &LinkMsg) -> TransmitFate {
        let lf = self.link;
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

    /// [`FaultPlan::fate`] as a function, or `None` when every link rate
    /// is zero: every fate is then a clean delivery, so senders skip the
    /// draws.
    pub fn fates(&self) -> Option<impl Fn(&LinkMsg) -> TransmitFate + '_> {
        let l = &self.link;
        let lossy = [l.drop, l.corrupt, l.duplicate, l.reorder]
            .iter()
            .any(|&p| p > 0.0);
        lossy.then_some(move |link: &LinkMsg| self.fate(link))
    }

    /// If worker `node` is scheduled to fail-stop, the ordinal of the
    /// work unit (strategy-defined; chunk for `pre_process`) after which
    /// it crashes: its earliest crash. `None` means the node is immortal.
    pub fn crash_point(&self, node: usize) -> Option<u64> {
        self.crashes
            .iter()
            .filter(|c| c.node == node)
            .map(|c| c.after_unit)
            .min()
    }

    /// If a crashed worker `node` is scheduled to rejoin the run, the
    /// number of work units of virtual downtime before it announces
    /// itself (its earliest rejoin). `None` means the crash is permanent
    /// and the survivors carry the dead node's roles to the end of the
    /// run.
    pub fn rejoin_point(&self, node: usize) -> Option<u64> {
        self.rejoins
            .iter()
            .filter(|r| r.node == node)
            .map(|r| r.after_unit)
            .min()
    }

    /// One independent hash stream per (link message, purpose salt).
    fn draw(&self, link: &LinkMsg, salt: u64) -> u64 {
        let mut h = self.seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F);
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

    /// 64 transmissions covering every channel at attempts 0–3.
    fn golden_links() -> impl Iterator<Item = LinkMsg> {
        (0..64u64).map(|i| LinkMsg {
            from: (i * 5 % 11) as usize,
            to: ((i * 7 + 3) % 13) as usize,
            chan: (i % 3) as u8,
            seq: i * i * 2_654_435_761 % 1_000_003,
            attempt: (i / 3 % 4) as u32,
        })
    }

    /// `D` drop, `C` corrupt, `<extra delay ns>+<duplicates>` delivery.
    fn code(fate: TransmitFate) -> String {
        match fate {
            TransmitFate::Drop => "D".into(),
            TransmitFate::Corrupt => "C".into(),
            TransmitFate::Deliver {
                extra_delay,
                duplicates,
            } => format!("{}+{duplicates}", extra_delay.as_nanos()),
        }
    }

    #[test]
    fn fates_reproduce_the_recorded_golden_streams() {
        // Recorded from the seeded hash as the chaos experiments were
        // first run: the same seed must keep giving every experiment the
        // same fates.
        let golden = [
            (
                "paper",
                "D 0+0 0+0 0+0 0+0 0+0 D 0+0 C D 0+1 0+0 0+0 1352879+0 0+0 0+0 0+0 0+0 0+0 \
                 0+0 C 0+1 1448185+0 108426+0 0+0 0+0 0+0 0+0 0+0 0+0 0+0 0+0 C 0+0 0+0 D \
                 0+0 0+0 D 0+0 0+0 D 0+0 0+0 0+0 0+0 0+0 0+0 D 0+0 0+0 0+0 0+0 0+0 0+0 0+0 \
                 0+0 0+0 D 0+0 0+0 0+0 0+0 0+0",
            ),
            (
                "seed=7,drop=0.1,corrupt=0.05,dup=0.3,reorder=0.4,delay_us=900",
                "0+0 883146+1 0+0 0+0 0+1 655373+0 0+0 0+1 0+1 769870+1 C 784152+0 0+0 \
                 759792+0 0+1 142567+1 C 0+0 696218+1 0+0 0+0 85402+0 157229+0 122248+0 0+0 \
                 0+1 0+0 D D C 716017+0 0+0 0+0 659042+1 795654+0 35083+0 0+1 0+0 0+1 0+1 \
                 215028+0 54287+1 390282+0 0+1 C 0+1 214933+0 0+1 C 0+0 0+1 0+0 0+0 \
                 177206+0 639092+0 0+1 16201+1 0+0 457051+1 834346+0 C D 0+1 339522+1",
            ),
        ];
        for (spec, want) in golden {
            let plan = FaultPlan::parse(spec).unwrap();
            let got: Vec<String> = golden_links().map(|l| code(plan.fate(&l))).collect();
            assert_eq!(got.join(" "), want, "{spec}");
        }
    }

    #[test]
    fn fates_are_deterministic() {
        let (a, b) = (FaultPlan::paper_chaos(7), FaultPlan::paper_chaos(7));
        for l in links(500) {
            assert_eq!(a.fate(&l), b.fate(&l));
        }
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let (a, b) = (FaultPlan::paper_chaos(1), FaultPlan::paper_chaos(2));
        let diff = links(500).filter(|l| a.fate(l) != b.fate(l)).count();
        assert!(diff > 0, "seed must matter");
    }

    #[test]
    fn empirical_rates_track_configured_rates() {
        let plan = FaultPlan::parse("seed=11,drop=0.2").unwrap();
        let n = 20_000u64;
        let drops = links(n)
            .filter(|l| matches!(plan.fate(l), TransmitFate::Drop))
            .count() as f64;
        let rate = drops / n as f64;
        assert!((rate - 0.2).abs() < 0.02, "observed drop rate {rate}");
    }

    #[test]
    fn quiet_plan_always_delivers_clean_and_draws_nothing() {
        let plan = FaultPlan::quiet(3);
        for l in links(200) {
            assert_eq!(
                plan.fate(&l),
                TransmitFate::Deliver {
                    extra_delay: Duration::ZERO,
                    duplicates: 0
                }
            );
        }
        assert!(plan.fates().is_none());
        assert!(FaultPlan::quiet(3).with_crash(1, 2).fates().is_none());
        assert!(FaultPlan::parse("dup=0.1").unwrap().fates().is_some());
    }

    #[test]
    fn crash_point_reports_earliest_event() {
        let plan = FaultPlan::quiet(0).with_crash(2, 40).with_crash(2, 10);
        assert_eq!(plan.crash_point(2), Some(10));
        assert_eq!(plan.crash_point(3), None);
    }

    #[test]
    fn rejoin_point_reports_earliest_event_for_scheduled_nodes_only() {
        let plan = FaultPlan::quiet(0)
            .with_crash(2, 10)
            .with_rejoin(2, 8)
            .with_rejoin(2, 4);
        assert_eq!(plan.rejoin_point(2), Some(4));
        assert_eq!(plan.rejoin_point(3), None);
    }

    #[test]
    fn check_refuses_what_does_not_fit_the_cluster() {
        let fits = FaultPlan::paper_chaos(1).with_crash(3, 5).with_rejoin(3, 2);
        assert_eq!(fits.check(4), Ok(()));
        let table = [
            (FaultPlan::quiet(0).with_crash(9, 3), "node 9 is outside"),
            (
                FaultPlan::quiet(0).with_crash(1, 3).with_rejoin(4, 2),
                "node 4 is outside",
            ),
            (
                FaultPlan::quiet(0).with_crash(0, 3).with_crash(1, 9),
                "crashes all 2 ranks",
            ),
            (
                FaultPlan {
                    link: LinkFaults {
                        drop: 0.7,
                        corrupt: 0.5,
                        ..LinkFaults::none()
                    },
                    ..FaultPlan::quiet(0)
                },
                "exceed 1",
            ),
        ];
        for (plan, want) in table {
            let err = plan.check(2).unwrap_err();
            assert!(err.contains(want), "{err}");
        }
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
        let default = FaultPlan::parse("reorder=0.2")
            .unwrap()
            .link
            .max_extra_delay;
        assert_eq!(default, Duration::from_millis(2), "delay_us absent");
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
        let err = FaultPlan::parse("reorder=0.2,delay_us=0").unwrap_err();
        assert!(err.contains("reorder") && err.contains("delay_us"), "{err}");
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
    fn parse_presets() {
        assert_eq!(FaultPlan::parse("none").unwrap(), FaultPlan::quiet(0));
        assert_eq!(
            FaultPlan::parse("paper").unwrap(),
            FaultPlan::paper_chaos(42)
        );
    }
}
