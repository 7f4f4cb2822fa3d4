//! The randomized Elkin–Neiman decomposition [EN16], in the phase-based form
//! the paper uses (Lemma 3.3 and Theorem 4.2).
//!
//! Per phase, every still-unclustered node draws a radius `r_v` from a capped
//! geometric(1/2) distribution (sampled by explicit coin flips, footnote 8 of
//! the paper). Every node `u` then finds the top two values of the measure
//! `r_v − d(v, u)` over centers `v` that reach it (`r_v ≥ d(v, u)`, distances
//! within the still-alive subgraph). If the gap between the best and the
//! second best (floored at 0) exceeds 1, `u` joins the best center's cluster
//! and is colored with the phase index; otherwise it stays for the next
//! phase. Clusters carved in one phase are pairwise non-adjacent and induce
//! connected subgraphs of radius `≤ cap` ([EN16, Lemma 4]); each node is
//! clustered per phase with constant probability ([EN16, Claim 6]), so
//! `O(log n)` phases suffice w.h.p.
//!
//! Each phase executes as a genuine CONGEST message-passing protocol, a
//! [`BatchProtocol`] run sequentially on a standard-budget
//! [`Executor`]: nodes gossip their current top-two `(center, value)` pairs,
//! values decaying by one per hop; `O(cap)` rounds stabilize. Messages carry
//! two compact `(id, value)` pairs — `O(log n)` bits.

use crate::algorithm::{AlgorithmRun, RoundStats};
use crate::decomposition::types::Decomposition;
use locality_graph::cluster::Clustering;
use locality_graph::ids::IdAssignment;
use locality_graph::Graph;
use locality_rand::kwise::{flat_index, KWiseBits};
use locality_rand::source::BitSource;
use locality_rand::source::PrngSource;
use locality_sim::cost::CostMeter;
use locality_sim::executor::{BatchProtocol, Control, Executor, Inbox, Mode, Outlet};
use locality_sim::node::NodeContext;
use locality_sim::wire::WireSize;

/// Tuning parameters for the construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElkinNeimanConfig {
    /// Maximum number of phases (the paper's `10 log n`).
    pub phases: u32,
    /// Geometric truncation: max coin flips per radius draw (the paper's
    /// `10 log n`; capped at 60 so a radius fits one k-wise word).
    pub cap: u32,
}

impl ElkinNeimanConfig {
    /// The paper's parameters for an `n`-node graph: `10·⌈log2 n⌉` phases and
    /// cap `min(60, 10·⌈log2 n⌉)`.
    pub fn for_graph(g: &Graph) -> Self {
        Self::for_n(g.node_count())
    }

    /// As [`ElkinNeimanConfig::for_graph`] for a given `n`.
    pub fn for_n(n: usize) -> Self {
        let log = Graph::empty(n.max(2)).log2_n();
        Self {
            phases: 10 * log,
            cap: (10 * log).min(60),
        }
    }

    /// Rounds each phase needs to stabilize (values decay 1 per hop).
    pub fn rounds_per_phase(&self) -> u32 {
        self.cap + 2
    }
}

/// A `(center id, value)` ranking entry.
type Entry = (u64, i64);

/// The best two entries for *distinct* centers, ordered by (value desc, id
/// asc), held inline: a broadcast copies it into each port's slot without
/// touching the heap, so a phase allocates nothing per message.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct TopTwo {
    entries: [Entry; 2],
    len: u8,
}

impl TopTwo {
    fn as_slice(&self) -> &[Entry] {
        &self.entries[..usize::from(self.len)]
    }
}

/// Keep the best two entries for *distinct* centers, ordered by
/// (value desc, id asc). Returns whether anything changed — and also `true`
/// for a new non-negative center that ranks third and is dropped: that
/// return triggers a rebroadcast, so it is part of the message count.
fn merge_entry(top: &mut TopTwo, cand: Entry) -> bool {
    if cand.1 < 0 {
        return false;
    }
    let len = usize::from(top.len);
    let mut all = [top.entries[0], top.entries[1], cand];
    let count = match all[..len].iter_mut().find(|e| e.0 == cand.0) {
        Some(existing) if existing.1 >= cand.1 => return false,
        Some(existing) => {
            existing.1 = cand.1;
            len
        }
        None => {
            all[len] = cand;
            len + 1
        }
    };
    // Centers are distinct, so (value desc, id asc) is a total order and the
    // unstable sort is deterministic.
    all[..count].sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    top.entries = [all[0], all[1]];
    top.len = count.min(2) as u8;
    true
}

/// Gossip message: current top-two entries, with compact wire accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EnMessage {
    top: TopTwo,
    id_bits: u16,
    val_bits: u16,
}

impl WireSize for EnMessage {
    fn wire_bits(&self) -> u64 {
        2 + u64::from(self.top.len) * (self.id_bits as u64 + self.val_bits as u64)
    }
}

/// Per-node protocol for one EN phase.
#[derive(Debug, Clone)]
struct EnPhase {
    alive: bool,
    radius: u32,
    top: TopTwo,
    deadline: u32,
    changed: bool,
    id_bits: u16,
    val_bits: u16,
}

impl EnPhase {
    fn message(&self) -> EnMessage {
        EnMessage {
            top: self.top,
            id_bits: self.id_bits,
            val_bits: self.val_bits,
        }
    }

    fn decide(&self) -> Option<u64> {
        let top = self.top.as_slice();
        let m1 = top.first()?;
        let m2 = top.get(1).map_or(0, |e| e.1.max(0));
        if m1.1 - m2 > 1 {
            Some(m1.0)
        } else {
            None
        }
    }
}

impl BatchProtocol for EnPhase {
    type Message = EnMessage;
    type Output = Option<u64>;

    fn start(&mut self, ctx: &NodeContext, out: &mut Outlet<'_, EnMessage>) {
        if self.alive {
            merge_entry(&mut self.top, (ctx.id, self.radius as i64));
            out.broadcast(self.message());
        }
    }

    fn round(
        &mut self,
        _ctx: &NodeContext,
        round: u32,
        inbox: &Inbox<'_, EnMessage>,
        out: &mut Outlet<'_, EnMessage>,
    ) -> Control<Option<u64>> {
        if !self.alive {
            return Control::Halt(None);
        }
        self.changed = false;
        for (_, msg) in inbox.iter() {
            for &(center, value) in msg.top.as_slice() {
                // One hop of decay.
                if merge_entry(&mut self.top, (center, value - 1)) {
                    self.changed = true;
                }
            }
        }
        if round >= self.deadline {
            return Control::Halt(self.decide());
        }
        if self.changed {
            out.broadcast(self.message());
        }
        Control::Continue
    }
}

/// Outcome of a (possibly partial) Elkin–Neiman run.
#[derive(Debug, Clone)]
pub struct EnOutcome {
    /// The decomposition, if every node was clustered within the phase
    /// budget.
    pub decomposition: Option<Decomposition>,
    /// Per-node cluster label `(phase, center)` — partial if nodes survived.
    pub labels: Vec<Option<(u32, u64)>>,
    /// Nodes never clustered (the `V̄` of Theorem 4.2).
    pub survivors: Vec<usize>,
    /// Per phase: `(alive before, clustered in this phase)`.
    pub per_phase: Vec<(usize, usize)>,
    /// Cost accounting over all phases (rounds, messages, random bits).
    pub meter: CostMeter,
}

impl EnOutcome {
    /// Fraction of initially-alive nodes clustered in each phase — the
    /// empirical form of [EN16, Claim 6] (experiment F1).
    pub fn per_phase_fractions(&self) -> Vec<f64> {
        self.per_phase
            .iter()
            .map(|&(alive, clustered)| {
                if alive == 0 {
                    1.0
                } else {
                    clustered as f64 / alive as f64
                }
            })
            .collect()
    }
}

/// Run the construction with an arbitrary radius sampler (the hook through
/// which all three randomness regimes of §3 are plugged in).
///
/// `sample_radius(phase, node)` must return a value in `1..=cfg.cap` and
/// report the number of *fresh* random bits it consumed.
pub fn elkin_neiman_with_sampler(
    g: &Graph,
    ids: &IdAssignment,
    cfg: &ElkinNeimanConfig,
    mut sample_radius: impl FnMut(u32, usize) -> (u32, u64),
) -> EnOutcome {
    let n = g.node_count();
    let id_bits = ids.bit_len().max(1) as u16;
    let val_bits = (64 - u64::from(cfg.cap + 1).leading_zeros() + 1) as u16;
    let mut alive = vec![true; n];
    let mut labels: Vec<Option<(u32, u64)>> = vec![None; n];
    let mut per_phase = Vec::new();
    let mut meter = CostMeter::default();

    for phase in 0..cfg.phases {
        let alive_before = alive.iter().filter(|&&a| a).count();
        if alive_before == 0 {
            break;
        }
        let mut random_bits = 0u64;
        let protocols: Vec<EnPhase> = (0..n)
            .map(|v| {
                let radius = if alive[v] {
                    let (r, bits) = sample_radius(phase, v);
                    assert!(
                        r >= 1 && r <= cfg.cap,
                        "sampled radius {r} outside 1..={}",
                        cfg.cap
                    );
                    random_bits += bits;
                    r
                } else {
                    0
                };
                EnPhase {
                    alive: alive[v],
                    radius,
                    top: TopTwo::default(),
                    deadline: cfg.rounds_per_phase(),
                    changed: false,
                    id_bits,
                    val_bits,
                }
            })
            .collect();

        let run = Executor::congest(g, ids)
            .run(protocols, cfg.rounds_per_phase() + 1, 1)
            .expect("phase protocol halts by its deadline"); // audit: allow(panic) -- invariant established by construction; violation is a logic bug, not an input condition
        meter += run.meter;
        meter.random_bits += random_bits;

        let mut clustered = 0;
        for v in 0..n {
            if alive[v] {
                if let Some(center) = run.outputs[v] {
                    labels[v] = Some((phase, center));
                    alive[v] = false;
                    clustered += 1;
                }
            }
        }
        per_phase.push((alive_before, clustered));
    }

    let survivors: Vec<usize> = (0..n).filter(|&v| alive[v]).collect();
    let decomposition = if survivors.is_empty() {
        let clustering = Clustering::from_labels(
            labels
                .iter()
                .map(|l| l.map(|(p, c)| (p as usize) << 48 | c as usize))
                .collect(),
        );
        // Color = phase of the cluster (all members share it by construction).
        let colors: Vec<usize> = (0..clustering.cluster_count())
            .map(|c| {
                let v = clustering.members(c)[0];
                labels[v].expect("clustered").0 as usize // audit: allow(panic) -- invariant established by construction; violation is a logic bug, not an input condition
            })
            .collect();
        Some(Decomposition::new(clustering, colors).expect("arity matches")) // audit: allow(panic) -- arity/contiguity established by construction on the preceding lines
    } else {
        None
    };

    EnOutcome {
        decomposition,
        labels,
        survivors,
        per_phase,
        meter,
    }
}

/// The standard regime: unbounded private randomness, radii sampled by coin
/// flips from `src` (bits metered).
pub fn elkin_neiman(g: &Graph, cfg: &ElkinNeimanConfig, src: &mut impl BitSource) -> EnOutcome {
    let ids = IdAssignment::sequential(g.node_count());
    elkin_neiman_partial(g, &ids, cfg, src)
}

/// As [`elkin_neiman`] with explicit identifiers (Theorem 4.2 uses this with
/// a tightened phase budget to obtain survivors).
pub fn elkin_neiman_partial(
    g: &Graph,
    ids: &IdAssignment,
    cfg: &ElkinNeimanConfig,
    src: &mut impl BitSource,
) -> EnOutcome {
    elkin_neiman_with_sampler(g, ids, cfg, |_phase, _v| {
        let before = src.bits_drawn();
        let r = src.geometric(cfg.cap);
        (r, src.bits_drawn() - before)
    })
}

/// The limited-independence regime of Theorem 3.5: radii come from a k-wise
/// independent family indexed by `(phase, node)`; no fresh randomness is
/// consumed beyond the family's seed.
///
/// # Panics
/// Panics if `cfg.cap > 60` (a radius must fit in one k-wise word).
pub fn elkin_neiman_kwise(g: &Graph, cfg: &ElkinNeimanConfig, kw: &KWiseBits) -> EnOutcome {
    assert!(cfg.cap <= 60, "k-wise radii require cap <= 60");
    let ids = IdAssignment::sequential(g.node_count());
    let mut out = elkin_neiman_with_sampler(g, &ids, cfg, |phase, v| {
        (
            kw.geometric(flat_index(&[phase as u64, v as u64]), cfg.cap),
            0,
        )
    });
    out.meter.random_bits += kw.seed_bits();
    out
}

/// The Elkin–Neiman decomposition with the protocol ports' run shape. The
/// construction already executes phase by phase as a CONGEST protocol on
/// the executor; this wrapper gives it the standard graph-ids-seed
/// signature and uniform [`RoundStats`]. A node's label is its
/// `(phase, center id)` cluster, or `None` if it survived the phase budget
/// (the `V̄` of Theorem 4.2).
#[derive(Debug, Clone, Copy, Default)]
pub struct ElkinNeimanDecomposition {
    /// Phase/cap parameters (`None` = the paper's parameters for the graph,
    /// [`ElkinNeimanConfig::for_graph`]).
    pub cfg: Option<ElkinNeimanConfig>,
}

impl ElkinNeimanDecomposition {
    /// Run on `g` with identifiers `ids` and randomness derived (only) from
    /// `seed`; the stats are named `elkin-neiman`.
    pub fn run(
        &self,
        g: &Graph,
        ids: &IdAssignment,
        seed: u64,
    ) -> AlgorithmRun<Option<(u32, u64)>> {
        let cfg = self.cfg.unwrap_or_else(|| ElkinNeimanConfig::for_graph(g));
        let mut src = PrngSource::seeded(seed);
        let out = elkin_neiman_partial(g, ids, &cfg, &mut src);
        AlgorithmRun {
            labels: out.labels,
            stats: RoundStats {
                algorithm: "elkin-neiman",
                n: g.node_count(),
                // The phases run on `Executor::congest`, which uses exactly
                // this mode.
                mode: Mode::default_congest(g),
                meter: out.meter,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locality_graph::generators::Family;
    use locality_rand::prelude::*;

    #[test]
    fn merge_entry_keeps_best_two_distinct() {
        let mut top = TopTwo::default();
        assert!(merge_entry(&mut top, (5, 3)));
        assert!(merge_entry(&mut top, (7, 5)));
        assert!(!merge_entry(&mut top, (5, 2))); // worse value, same center
        assert!(merge_entry(&mut top, (9, 4)));
        assert_eq!(top.as_slice(), [(7, 5), (9, 4)]);
        assert!(!merge_entry(&mut top, (1, -1))); // negative values ignored
    }

    #[test]
    fn merge_entry_reports_a_dropped_candidate_as_a_change() {
        // A new center ranking third leaves the top two as they were, yet
        // the merge reports a change: that rebroadcast is part of the
        // protocol's message count, which the golden pins below fix.
        let mut top = TopTwo::default();
        assert!(merge_entry(&mut top, (7, 5)));
        assert!(merge_entry(&mut top, (9, 4)));
        let before = top;
        assert!(merge_entry(&mut top, (3, 1)));
        assert_eq!(top, before);
        // A value tie ranks by id, so a larger id is dropped as well ...
        assert!(merge_entry(&mut top, (11, 4)));
        assert_eq!(top, before);
        // ... and a smaller one displaces the old second.
        assert!(merge_entry(&mut top, (8, 4)));
        assert_eq!(top.as_slice(), [(7, 5), (8, 4)]);
        // A dropped center that returns with a better value re-enters.
        assert!(merge_entry(&mut top, (9, 6)));
        assert_eq!(top.as_slice(), [(9, 6), (7, 5)]);
    }

    #[test]
    fn decomposition_on_families_is_valid() {
        let mut seed = SplitMix64::new(42);
        for fam in Family::ALL {
            let g = fam.generate(80, &mut seed);
            let cfg = ElkinNeimanConfig::for_graph(&g);
            let mut src = PrngSource::seeded(7 + fam as u64);
            let out = elkin_neiman(&g, &cfg, &mut src);
            let d = out
                .decomposition
                .unwrap_or_else(|| panic!("{}: survivors {:?}", fam.name(), out.survivors));
            let q = d.validate(&g).unwrap();
            assert!(
                q.colors as u32 <= cfg.phases,
                "{}: {} colors",
                fam.name(),
                q.colors
            );
            assert!(out.meter.random_bits > 0);
            assert!(out.meter.rounds > 0);
        }
    }

    #[test]
    fn cluster_radius_bounded_by_cap() {
        // Strong diameter of every cluster is at most 2·cap ([EN16, Lemma 4]:
        // radius around the center is at most max r_v <= cap).
        let mut seed = SplitMix64::new(3);
        let g = Graph::gnp_connected(150, 0.02, &mut seed);
        let cfg = ElkinNeimanConfig::for_graph(&g);
        let mut src = PrngSource::seeded(11);
        let out = elkin_neiman(&g, &cfg, &mut src);
        let d = out.decomposition.expect("whp success");
        let q = d.validate(&g).unwrap();
        assert!(
            q.max_diameter <= 2 * cfg.cap,
            "diameter {} > 2*cap {}",
            q.max_diameter,
            2 * cfg.cap
        );
    }

    #[test]
    fn phase_fractions_are_substantial() {
        // EN16 Claim 6: constant per-phase clustering probability. Check the
        // first phase clusters at least 20% on a reasonable graph.
        let mut seed = SplitMix64::new(5);
        let g = Graph::gnp_connected(300, 0.01, &mut seed);
        let cfg = ElkinNeimanConfig::for_graph(&g);
        let mut src = PrngSource::seeded(13);
        let out = elkin_neiman(&g, &cfg, &mut src);
        let fractions = out.per_phase_fractions();
        assert!(
            fractions[0] > 0.2,
            "first phase clustered only {}",
            fractions[0]
        );
    }

    #[test]
    fn congest_clean() {
        let mut seed = SplitMix64::new(9);
        let g = Graph::gnp_connected(128, 0.03, &mut seed);
        let cfg = ElkinNeimanConfig::for_graph(&g);
        let mut src = PrngSource::seeded(1);
        let out = elkin_neiman(&g, &cfg, &mut src);
        assert!(
            out.meter.congest_clean(),
            "violations: {}",
            out.meter.congest_violations
        );
    }

    #[test]
    fn kwise_regime_produces_valid_decomposition() {
        let mut seed = SplitMix64::new(21);
        let g = Graph::gnp_connected(100, 0.03, &mut seed);
        let cfg = ElkinNeimanConfig::for_graph(&g);
        let mut seed_src = PrngSource::seeded(77);
        // Θ(log² n)-wise independence per Theorem 3.5.
        let k = (g.log2_n() * g.log2_n()) as usize;
        let kw = KWiseBits::from_source(k, &mut seed_src).unwrap();
        let out = elkin_neiman_kwise(&g, &cfg, &kw);
        let d = out.decomposition.expect("kwise run should succeed");
        d.validate(&g).unwrap();
        assert_eq!(out.meter.random_bits, kw.seed_bits());
    }

    #[test]
    fn singleton_and_tiny_graphs() {
        let cfg = ElkinNeimanConfig::for_n(1);
        let mut src = PrngSource::seeded(2);
        let g = Graph::empty(1);
        let out = elkin_neiman(&g, &cfg, &mut src);
        let d = out.decomposition.expect("single node clusters");
        assert_eq!(d.validate(&g).unwrap().clusters, 1);

        let g2 = Graph::empty(3); // three isolated nodes
        let cfg2 = ElkinNeimanConfig::for_n(3);
        let out2 = elkin_neiman(&g2, &cfg2, &mut PrngSource::seeded(3));
        let d2 = out2.decomposition.expect("isolated nodes cluster");
        assert_eq!(d2.validate(&g2).unwrap().max_diameter, 0);
    }

    #[test]
    fn zero_phase_budget_yields_all_survivors() {
        let g = Graph::path(5);
        let cfg = ElkinNeimanConfig { phases: 0, cap: 10 };
        let mut src = PrngSource::seeded(4);
        let out = elkin_neiman(&g, &cfg, &mut src);
        assert!(out.decomposition.is_none());
        assert_eq!(out.survivors.len(), 5);
    }

    #[test]
    fn local_algorithm_wrapper_matches_direct_call() {
        let mut seed = SplitMix64::new(31);
        let g = Graph::gnp_connected(70, 0.04, &mut seed);
        let ids = IdAssignment::sequential(g.node_count());
        let run = ElkinNeimanDecomposition::default().run(&g, &ids, 19);
        let cfg = ElkinNeimanConfig::for_graph(&g);
        let direct = elkin_neiman_partial(&g, &ids, &cfg, &mut PrngSource::seeded(19));
        assert_eq!(run.labels, direct.labels);
        assert_eq!(run.stats.meter, direct.meter);
        assert_eq!(run.stats.algorithm, "elkin-neiman");
    }

    /// FNV-1a over the labels, so a pin below fits on one line.
    fn label_hash(labels: &[Option<(u32, u64)>]) -> u64 {
        labels.iter().fold(0xcbf2_9ce4_8422_2325, |h, l| {
            let word = l.map_or(u64::MAX, |(p, c)| (p as u64) << 48 ^ c);
            (h ^ word).wrapping_mul(0x100_0000_01b3)
        })
    }

    #[test]
    fn deterministic_given_same_seed() {
        let mut seed = SplitMix64::new(8);
        let g = Graph::gnp_connected(60, 0.05, &mut seed);
        let cfg = ElkinNeimanConfig::for_graph(&g);
        let a = elkin_neiman(&g, &cfg, &mut PrngSource::seeded(5));
        let b = elkin_neiman(&g, &cfg, &mut PrngSource::seeded(5));
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.meter, b.meter);

        // Golden pins, recorded before the phases moved onto
        // `BatchProtocol`: labels, meter and per-phase counts must match
        // that runtime exactly. Each pin is (graph, label hash, [rounds,
        // messages, bits sent, max message bits, random bits], per-phase
        // (alive, clustered)).
        type Pin = (Graph, u64, [u64; 5], &'static [(usize, usize)]);
        let pins: [Pin; 4] = [
            (
                Graph::grid(12, 12),
                0xc2ee_0d3c_bd89_b09f,
                [558, 71_411, 2_261_197, 32, 875],
                &[
                    (144, 29),
                    (115, 54),
                    (61, 25),
                    (36, 4),
                    (32, 7),
                    (25, 12),
                    (13, 7),
                    (6, 4),
                    (2, 2),
                ],
            ),
            (
                Graph::gnp_connected(200, 4.0 / 200.0, &mut SplitMix64::new(8)),
                0xdb7f_9928_1684_35a9,
                [434, 93_935, 2_978_485, 32, 610],
                &[
                    (200, 144),
                    (56, 21),
                    (35, 24),
                    (11, 7),
                    (4, 2),
                    (2, 1),
                    (1, 1),
                ],
            ),
            (
                Graph::random_tree(150, &mut SplitMix64::new(8)),
                0x1c73_3976_6d1c_cafa,
                [558, 35_172, 1_111_389, 32, 922],
                &[
                    (150, 30),
                    (120, 45),
                    (75, 34),
                    (41, 11),
                    (30, 8),
                    (22, 9),
                    (13, 11),
                    (2, 1),
                    (1, 1),
                ],
            ),
            (
                g,
                0x1bc6_c2e9_6bb5_a1c0,
                [682, 53_078, 1_471_715, 28, 458],
                &[
                    (60, 5),
                    (55, 6),
                    (49, 5),
                    (44, 28),
                    (16, 13),
                    (3, 0),
                    (3, 0),
                    (3, 1),
                    (2, 1),
                    (1, 0),
                    (1, 1),
                ],
            ),
        ];
        for (
            i,
            (g, hash, [rounds, messages, bits_sent, max_message_bits, random_bits], per_phase),
        ) in pins.into_iter().enumerate()
        {
            let cfg = ElkinNeimanConfig::for_graph(&g);
            let out = elkin_neiman(&g, &cfg, &mut PrngSource::seeded(5));
            assert_eq!(label_hash(&out.labels), hash, "graph {i}");
            let meter = CostMeter {
                rounds,
                messages,
                bits_sent,
                max_message_bits,
                random_bits,
                ..CostMeter::default()
            };
            assert_eq!(out.meter, meter, "graph {i}");
            assert_eq!(out.per_phase, per_phase, "graph {i}");
        }
    }
}
