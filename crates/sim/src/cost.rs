//! Cost accounting for simulated executions.

use std::fmt;
use std::ops::{Add, AddAssign};

/// Accumulated costs of a (partial) execution: rounds, messages, bits and
/// randomness. Sequential composition of algorithms is `+` (rounds add,
/// message maxima combine by `max`).
///
/// # Example
/// ```
/// use locality_sim::cost::CostMeter;
/// let mut a = CostMeter::default();
/// a.rounds = 10;
/// a.max_message_bits = 32;
/// let mut b = CostMeter::default();
/// b.rounds = 5;
/// b.max_message_bits = 64;
/// let c = a + b;
/// assert_eq!(c.rounds, 15);
/// assert_eq!(c.max_message_bits, 64);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostMeter {
    /// Synchronous rounds elapsed.
    pub rounds: u64,
    /// Total messages delivered.
    pub messages: u64,
    /// Total bits delivered.
    pub bits_sent: u64,
    /// Largest single message, in bits.
    pub max_message_bits: u64,
    /// Messages exceeding the CONGEST budget (0 in valid CONGEST runs).
    pub congest_violations: u64,
    /// Random bits drawn across all nodes.
    pub random_bits: u64,
    /// Messages an injected fault plan discarded before delivery (explicit
    /// drops plus messages superseded by a reordered late arrival). Always 0
    /// on the fault-free path.
    pub dropped: u64,
    /// Extra message copies an injected fault plan delivered beyond the
    /// sender's single send. Always 0 on the fault-free path.
    pub duplicated: u64,
    /// Messages an injected fault plan postponed by at least one round
    /// before delivering. Always 0 on the fault-free path.
    pub delayed: u64,
}

impl CostMeter {
    /// A meter with only a round count (for orchestrated subroutines whose
    /// round cost is known analytically).
    pub fn rounds_only(rounds: u64) -> Self {
        Self {
            rounds,
            ..Self::default()
        }
    }

    /// Record a delivered message of the given size.
    pub fn record_message(&mut self, bits: u64, congest_budget: Option<u64>) {
        self.messages += 1;
        self.bits_sent += bits;
        self.max_message_bits = self.max_message_bits.max(bits);
        if let Some(budget) = congest_budget {
            if bits > budget {
                self.congest_violations += 1;
            }
        }
    }

    /// Record a broadcast as `fanout` directed messages of `bits` each.
    ///
    /// CONGEST is a per-edge budget: a broadcast from a degree-`d` node puts
    /// one message on each of its `d` ports, so an over-budget broadcast is
    /// `d` violations — counting it once would under-report congestion by a
    /// factor of the degree. The executor's arena layout already enforces this
    /// (each occupied edge slot is one directed message); this method is the
    /// same rule for orchestrated code that meters broadcasts in bulk.
    ///
    /// # Example
    /// ```
    /// use locality_sim::cost::CostMeter;
    /// let mut m = CostMeter::default();
    /// m.record_broadcast(20, 5, Some(16)); // over budget on every port
    /// assert_eq!(m.messages, 5);
    /// assert_eq!(m.congest_violations, 5);
    /// ```
    pub fn record_broadcast(&mut self, bits: u64, fanout: u64, congest_budget: Option<u64>) {
        if fanout == 0 {
            return;
        }
        self.messages += fanout;
        self.bits_sent += bits * fanout;
        self.max_message_bits = self.max_message_bits.max(bits);
        if let Some(budget) = congest_budget {
            if bits > budget {
                self.congest_violations += fanout;
            }
        }
    }

    /// Whether this execution was CONGEST-clean.
    pub fn congest_clean(&self) -> bool {
        self.congest_violations == 0
    }
}

impl Add for CostMeter {
    type Output = CostMeter;

    fn add(mut self, rhs: CostMeter) -> CostMeter {
        self += rhs;
        self
    }
}

impl AddAssign for CostMeter {
    fn add_assign(&mut self, rhs: CostMeter) {
        self.rounds += rhs.rounds;
        self.messages += rhs.messages;
        self.bits_sent += rhs.bits_sent;
        self.max_message_bits = self.max_message_bits.max(rhs.max_message_bits);
        self.congest_violations += rhs.congest_violations;
        self.random_bits += rhs.random_bits;
        self.dropped += rhs.dropped;
        self.duplicated += rhs.duplicated;
        self.delayed += rhs.delayed;
    }
}

impl fmt::Display for CostMeter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rounds={} msgs={} bits={} maxmsg={}b violations={} randbits={}",
            self.rounds,
            self.messages,
            self.bits_sent,
            self.max_message_bits,
            self.congest_violations,
            self.random_bits
        )?;
        // Fault counters appear only when a fault plan actually fired, so
        // fault-free tables and logs keep their historical shape.
        if self.dropped != 0 || self.duplicated != 0 || self.delayed != 0 {
            write!(
                f,
                " dropped={} duplicated={} delayed={}",
                self.dropped, self.duplicated, self.delayed
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_message_tracks_max_and_violations() {
        let mut m = CostMeter::default();
        m.record_message(10, Some(16));
        m.record_message(20, Some(16));
        m.record_message(5, None);
        assert_eq!(m.messages, 3);
        assert_eq!(m.bits_sent, 35);
        assert_eq!(m.max_message_bits, 20);
        assert_eq!(m.congest_violations, 1);
        assert!(!m.congest_clean());
    }

    #[test]
    fn record_broadcast_counts_per_port() {
        let mut m = CostMeter::default();
        m.record_broadcast(10, 4, Some(16)); // within budget: no violations
        assert_eq!(m.messages, 4);
        assert_eq!(m.bits_sent, 40);
        assert_eq!(m.congest_violations, 0);
        m.record_broadcast(20, 3, Some(16)); // over budget: one per port
        assert_eq!(m.messages, 7);
        assert_eq!(m.congest_violations, 3);
        assert_eq!(m.max_message_bits, 20);
        m.record_broadcast(99, 0, Some(16)); // isolated node: nothing sent
        assert_eq!(m.messages, 7);
        assert_eq!(m.max_message_bits, 20);
        // Per-port bulk accounting agrees with port-by-port accounting.
        let mut p = CostMeter::default();
        for _ in 0..4 {
            p.record_message(10, Some(16));
        }
        for _ in 0..3 {
            p.record_message(20, Some(16));
        }
        assert_eq!(m, p);
    }

    #[test]
    fn composition_adds_rounds_maxes_messages() {
        let mut a = CostMeter::rounds_only(3);
        a.max_message_bits = 100;
        a.random_bits = 7;
        let mut b = CostMeter::rounds_only(4);
        b.max_message_bits = 50;
        b.random_bits = 1;
        let c = a + b;
        assert_eq!(c.rounds, 7);
        assert_eq!(c.max_message_bits, 100);
        assert_eq!(c.random_bits, 8);
    }

    #[test]
    fn display_is_nonempty() {
        let s = CostMeter::default().to_string();
        assert!(s.contains("rounds=0"));
    }

    #[test]
    fn fault_counters_compose_and_display_only_when_nonzero() {
        assert!(!CostMeter::default().to_string().contains("dropped="));
        let a = CostMeter {
            dropped: 2,
            duplicated: 1,
            ..CostMeter::default()
        };
        let b = CostMeter {
            dropped: 3,
            delayed: 5,
            ..CostMeter::default()
        };
        let c = a + b;
        assert_eq!((c.dropped, c.duplicated, c.delayed), (5, 1, 5));
        let s = c.to_string();
        assert!(s.contains("dropped=5 duplicated=1 delayed=5"), "{s}");
    }
}
