//! Network cost model.
//!
//! The paper's cluster interconnect is a 100 Mbps switched Ethernet. Our
//! nodes are threads, so real message latency is sub-microsecond; to
//! preserve the *cost structure* of the protocol, every message is
//! charged `latency + bytes/bandwidth` against the sending node's
//! communication account. When [`NetworkModel::simulate`] is set, the
//! requesting worker also really sleeps for the modeled round-trip, so
//! wall-clock experiments feel cluster-like latencies (at the price of a
//! much slower harness — the default only accounts).

use std::time::Duration;

/// Latency/bandwidth cost model for inter-node messages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// Per-message one-way latency.
    pub latency: Duration,
    /// Link bandwidth in bytes per second.
    pub bandwidth: f64,
    /// When true, workers really sleep the modeled cost of their
    /// round-trips; when false the cost is only accounted in the stats.
    pub simulate: bool,
}

impl NetworkModel {
    /// The paper's interconnect: 100 Mbps switched Ethernet, ~70 µs
    /// one-way latency (typical for the era's UDP stacks), accounted only.
    pub fn fast_ethernet() -> Self {
        Self {
            latency: Duration::from_micros(70),
            bandwidth: 100.0e6 / 8.0,
            simulate: false,
        }
    }

    /// The paper's cluster, era-calibrated: a JIAJIA protocol message over
    /// 100 Mbps Ethernet plus the 1999-era UDP/SIGIO software path costs
    /// on the order of a millisecond end to end. 750 µs one-way matches
    /// the synchronization overheads the paper's Table 1 implies (see
    /// EXPERIMENTS.md for the derivation).
    pub fn paper_cluster() -> Self {
        Self {
            latency: Duration::from_micros(750),
            bandwidth: 100.0e6 / 8.0,
            simulate: false,
        }
    }

    /// A zero-cost network (pure shared-memory behaviour).
    pub fn zero() -> Self {
        Self {
            latency: Duration::ZERO,
            bandwidth: f64::INFINITY,
            simulate: false,
        }
    }

    /// Turns on real sleeping for modeled costs.
    pub fn simulated(mut self) -> Self {
        self.simulate = true;
        self
    }

    /// Modeled one-way cost of a message of `bytes` bytes. Messages to
    /// self (same node) are free.
    pub fn cost(&self, from: usize, to: usize, bytes: usize) -> Duration {
        if from == to {
            return Duration::ZERO;
        }
        let transfer = if self.bandwidth.is_finite() && self.bandwidth > 0.0 {
            Duration::from_secs_f64(bytes as f64 / self.bandwidth)
        } else {
            Duration::ZERO
        };
        self.latency + transfer
    }
}

impl Default for NetworkModel {
    fn default() -> Self {
        Self::fast_ethernet()
    }
}

// ---------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------

/// Link channel discriminator: worker → daemon requests.
pub const CHAN_REQ: u8 = 0;
/// Link channel discriminator: daemon → worker replies.
pub const CHAN_REPLY: u8 = 1;
/// Link channel discriminator: daemon → daemon control traffic.
pub const CHAN_DAEMON: u8 = 2;

/// Identity of one transmission attempt of one message copy on a link.
///
/// A fault plan's verdict ([`crate::FaultPlan::fate`]) is a pure function
/// of this value and the plan's seed, never of wall time or thread
/// schedule — that is what makes chaos runs reproducible: the same seed
/// yields the same loss pattern regardless of how the host schedules the
/// simulated nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkMsg {
    /// Transport source id (worker index, or `nprocs + d` for daemon `d`).
    pub from: usize,
    /// Transport destination id.
    pub to: usize,
    /// Which logical channel ([`CHAN_REQ`], [`CHAN_REPLY`], [`CHAN_DAEMON`]).
    pub chan: u8,
    /// Per-link sequence number of the message.
    pub seq: u64,
    /// Retransmission attempt (0 = original transmission).
    pub attempt: u32,
}

/// What happens to one transmission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransmitFate {
    /// The copy reaches the receiver.
    Deliver {
        /// Additional queueing delay beyond the modeled link cost. A
        /// non-zero delay on one copy while a later copy sails through is
        /// how a fault plan produces (virtual-time) reordering.
        extra_delay: Duration,
        /// Extra identical copies delivered right behind this one
        /// (duplication fault).
        duplicates: u8,
    },
    /// The copy is silently lost.
    Drop,
    /// The copy arrives bit-corrupted; the receiver's checksum rejects
    /// the frame, so it behaves like a loss but is counted separately.
    Corrupt,
}

/// Timeout/retransmission policy: the UDP transport's real timers and
/// the in-process [`loss_price`] read the same three numbers.
///
/// Mirrors a classic UDP request/ack scheme: an attempt that is not
/// acknowledged within the current RTO is retransmitted with the RTO
/// doubled, up to `max_attempts`, after which the transport escalates
/// (the price model delivers the final attempt unconditionally, so a
/// pathological plan cannot wedge a run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetransmitPolicy {
    /// First retransmission timeout; should comfortably exceed one RTT.
    pub initial_rto: Duration,
    /// Ceiling for the exponential backoff.
    pub max_rto: Duration,
    /// Total transmission attempts before forced delivery (≥ 1).
    pub max_attempts: u32,
}

impl RetransmitPolicy {
    /// Policy sized for [`NetworkModel::paper_cluster`] latencies:
    /// 3 ms initial RTO (≈ 2× the 1.5 ms round trip), doubling to 48 ms.
    pub fn paper_cluster() -> Self {
        Self {
            initial_rto: Duration::from_millis(3),
            max_rto: Duration::from_millis(48),
            max_attempts: 12,
        }
    }

    /// RTO in force for a given attempt number (exponential backoff).
    pub fn rto(&self, attempt: u32) -> Duration {
        let mut rto = self.initial_rto;
        for _ in 0..attempt {
            rto = (rto * 2).min(self.max_rto);
            if rto == self.max_rto {
                break;
            }
        }
        rto
    }
}

impl Default for RetransmitPolicy {
    fn default() -> Self {
        Self::paper_cluster()
    }
}

/// What a lossy link costs one in-process send, in virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LossPrice {
    /// Virtual arrival of the one copy the receiver gets: the first
    /// attempt whose data leg got through.
    pub arrive: Duration,
    /// RTOs a blocking sender sits out before an attempt's data and ack
    /// legs both get through (fire-and-forget senders ignore it: a
    /// background timer retransmits for them).
    pub stall: Duration,
    /// Copies that left the sender, lost and duplicated ones included.
    pub copies: u64,
    /// Retransmission timer fires.
    pub retransmits: u64,
    /// Delivered copies past the first (a real receiver window discards
    /// them).
    pub dups_dropped: u64,
    /// Data or ack copies the receiving checksum rejected.
    pub corrupt_dropped: u64,
}

/// Prices one send on an in-process link. The channel fabric loses
/// nothing, so what a fault plan costs there is only *time*: the whole
/// attempt schedule of a UDP-style request/ack exchange is resolved up
/// front from the deterministic `fate` of each leg and the sender pushes
/// a single envelope stamped with the result. `(from, to, chan, seq)`
/// names the data leg as in [`LinkMsg`] (the ack leg is the reverse
/// link), `cost` is the one-way [`NetworkModel::cost`], `depart` the
/// virtual time of the first transmission. Callers pass no fate for
/// loopback links, for runs whose transport takes real losses, and for
/// plans whose fates are all clean ([`crate::FaultPlan::fates`]).
pub fn loss_price(
    fate: Option<impl Fn(&LinkMsg) -> TransmitFate>,
    policy: &RetransmitPolicy,
    (from, to, chan, seq): (usize, usize, u8, u64),
    cost: Duration,
    depart: Duration,
) -> LossPrice {
    let mut price = LossPrice {
        arrive: depart + cost,
        stall: Duration::ZERO,
        copies: 0,
        retransmits: 0,
        dups_dropped: 0,
        corrupt_dropped: 0,
    };
    let Some(fate) = fate else {
        return LossPrice { copies: 1, ..price };
    };
    // Requests are acknowledged by their reply; daemon control traffic
    // by a dedicated ack on its own channel.
    let ack_chan = if chan == CHAN_REQ { CHAN_REPLY } else { chan };
    let mut delivered = 0u64;
    for attempt in 0.. {
        // The last attempt is delivered whatever its fate says.
        let forced = attempt + 1 >= policy.max_attempts;
        let mut through = |from, to, chan| {
            let leg = LinkMsg {
                from,
                to,
                chan,
                seq,
                attempt,
            };
            match fate(&leg) {
                TransmitFate::Deliver {
                    extra_delay,
                    duplicates,
                } => Some((extra_delay, u64::from(duplicates))),
                _ if forced => Some((Duration::ZERO, 0)),
                TransmitFate::Drop => None,
                TransmitFate::Corrupt => {
                    price.corrupt_dropped += 1;
                    None
                }
            }
        };
        price.copies += 1;
        if let Some((extra_delay, duplicates)) = through(from, to, chan) {
            price.copies += duplicates;
            if delivered == 0 {
                price.arrive = depart + price.stall + cost + extra_delay;
            }
            delivered += 1 + duplicates;
            if forced || through(to, from, ack_chan).is_some() {
                break;
            }
        }
        // Timer fires: back off and retransmit.
        price.stall += policy.rto(attempt);
        price.retransmits += 1;
    }
    price.dups_dropped = delivered - 1;
    price
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_messages_are_free() {
        let n = NetworkModel::fast_ethernet();
        assert_eq!(n.cost(2, 2, 1_000_000), Duration::ZERO);
    }

    #[test]
    fn cost_scales_with_size() {
        let n = NetworkModel::fast_ethernet();
        let small = n.cost(0, 1, 100);
        let big = n.cost(0, 1, 1_000_000);
        assert!(big > small);
        // 1 MB over 12.5 MB/s = 80 ms + latency.
        assert!(big > Duration::from_millis(79));
        assert!(big < Duration::from_millis(82));
    }

    #[test]
    fn zero_model_is_free() {
        let n = NetworkModel::zero();
        assert_eq!(n.cost(0, 1, 12345), Duration::ZERO);
    }

    #[test]
    fn simulated_flag_toggles() {
        assert!(!NetworkModel::fast_ethernet().simulate);
        assert!(NetworkModel::fast_ethernet().simulated().simulate);
    }

    #[test]
    fn rto_backs_off_exponentially_and_caps() {
        let p = RetransmitPolicy {
            initial_rto: Duration::from_millis(2),
            max_rto: Duration::from_millis(10),
            max_attempts: 8,
        };
        assert_eq!(p.rto(0), Duration::from_millis(2));
        assert_eq!(p.rto(1), Duration::from_millis(4));
        assert_eq!(p.rto(2), Duration::from_millis(8));
        assert_eq!(p.rto(3), Duration::from_millis(10));
        assert_eq!(p.rto(30), Duration::from_millis(10));
    }

    /// Scripted fates: `(chan, attempt)` of a leg picks its fate, every
    /// other leg gets `rest`.
    struct Script {
        rest: TransmitFate,
        legs: Vec<((u8, u32), TransmitFate)>,
    }

    impl Script {
        fn fate(&self, link: &LinkMsg) -> TransmitFate {
            let leg = (link.chan, link.attempt);
            self.legs
                .iter()
                .find(|(k, _)| *k == leg)
                .map_or(self.rest, |(_, fate)| *fate)
        }
    }

    const CLEAN: TransmitFate = TransmitFate::Deliver {
        extra_delay: Duration::ZERO,
        duplicates: 0,
    };

    /// The policy of `total_blackout_is_survived_by_forced_delivery`.
    const BLACKOUT_POLICY: RetransmitPolicy = RetransmitPolicy {
        initial_rto: Duration::from_millis(1),
        max_rto: Duration::from_millis(4),
        max_attempts: 4,
    };

    #[test]
    fn loss_price_resolves_the_attempt_schedule() {
        let us = Duration::from_micros;
        let (cost, t0) = (us(100), us(10_000));
        let late = TransmitFate::Deliver {
            extra_delay: us(30),
            duplicates: 2,
        };
        // (case, fate of unscripted legs, scripted legs) ->
        // (arrive - t0, stall, copies, retransmits, dups, corrupt).
        // The data leg rides CHAN_REQ, its ack leg CHAN_REPLY.
        use TransmitFate::{Corrupt, Drop};
        let table = [
            ("clean", CLEAN, vec![], (us(100), us(0), 1, 0, 0, 0)),
            (
                "data lost, then delivered",
                CLEAN,
                vec![((CHAN_REQ, 0), Drop)],
                (us(1_100), us(1_000), 2, 1, 0, 0),
            ),
            (
                "data delivered, ack lost: arrive stays at the first copy",
                CLEAN,
                vec![((CHAN_REPLY, 0), Drop), ((CHAN_REPLY, 1), Drop)],
                (us(100), us(3_000), 3, 2, 2, 0),
            ),
            (
                "corrupt data",
                CLEAN,
                vec![((CHAN_REQ, 0), Corrupt)],
                (us(1_100), us(1_000), 2, 1, 0, 1),
            ),
            (
                "corrupt ack",
                CLEAN,
                vec![((CHAN_REPLY, 0), Corrupt)],
                (us(100), us(1_000), 2, 1, 1, 1),
            ),
            (
                "late copy with two duplicates",
                CLEAN,
                vec![((CHAN_REQ, 0), late)],
                (us(130), us(0), 3, 0, 2, 0),
            ),
            (
                "blackout: the last attempt is forced, its ack unasked",
                Drop,
                vec![],
                (us(7_100), us(7_000), 4, 3, 0, 0),
            ),
        ];
        for (case, rest, legs, (arrive, stall, copies, retransmits, dups, corrupt)) in table {
            let script = Script { rest, legs };
            assert_eq!(
                loss_price(
                    Some(|l: &LinkMsg| script.fate(l)),
                    &BLACKOUT_POLICY,
                    (0, 3, CHAN_REQ, 7),
                    cost,
                    t0
                ),
                LossPrice {
                    arrive: t0 + arrive,
                    stall,
                    copies,
                    retransmits,
                    dups_dropped: dups,
                    corrupt_dropped: corrupt,
                },
                "{case}"
            );
        }
        // No fate — a perfect network, a loopback link, a fabric that
        // takes real losses: one copy, on time.
        let unpriced = None::<fn(&LinkMsg) -> TransmitFate>;
        let free = loss_price(unpriced, &BLACKOUT_POLICY, (0, 3, CHAN_REQ, 7), cost, t0);
        assert_eq!(
            (free.arrive, free.stall, free.copies),
            (t0 + cost, us(0), 1)
        );
        // Daemon control traffic is acknowledged on its own channel.
        let script = Script {
            rest: CLEAN,
            legs: vec![((CHAN_DAEMON, 0), Drop)],
        };
        let control = loss_price(
            Some(|l: &LinkMsg| script.fate(l)),
            &BLACKOUT_POLICY,
            (2, 3, CHAN_DAEMON, 0),
            cost,
            t0,
        );
        assert_eq!((control.copies, control.retransmits), (2, 1));
    }

    #[test]
    fn fire_and_forget_sends_leave_the_callers_clock_alone() {
        // A blocking sender sits the stall out; a release-type send is
        // retransmitted by a background timer, so only the copy's stamp
        // moves. cv 1 is managed by node 1: node 0's signal is remote.
        let blackout = crate::FaultPlan {
            link: crate::LinkFaults {
                drop: 1.0,
                ..crate::LinkFaults::none()
            },
            ..crate::FaultPlan::quiet(0)
        };
        let config = crate::DsmConfig::new(2)
            .faults(blackout)
            .retransmit(BLACKOUT_POLICY);
        let run = crate::DsmSystem::run(config, |node| {
            let before = node.now();
            if node.id() == 0 {
                node.setcv(1);
            }
            let elapsed = node.now() - before;
            if node.id() == 1 {
                node.waitcv(1);
            }
            (elapsed, node.now())
        });
        assert_eq!(run.results[0].0, Duration::ZERO);
        assert_eq!(run.stats[0].retransmits, 3);
        // The waiter is woken at the forced copy's arrival: three RTOs late.
        assert!(run.results[1].1 >= Duration::from_millis(7));
    }
}
