//! The three workloads and the seeded campaigns they generate.
//!
//! The workload seed picks target order and campaign RNG seeds; the
//! program under test only ever sees the generated campaigns. A workload
//! runs in *units* (a pass over its targets, or one batch of tenants),
//! and unit `k` of seed `s` is always the same list of campaigns.

/// Workload names, as passed to `--workload`.
pub const WORKLOADS: [&str; 3] = ["persistent", "service-rpc", "isolated-fork"];

/// The four crash-heavy targets (planted bugs, Table 7).
const CRASH_HEAVY: [&str; 4] = ["gpmf-parser", "libbpf", "c-blosc2", "md4c"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// ClosureX campaigns one after another, single driver, in process.
    Persistent,
    /// Batches of ClosureX tenants submitted over RPC to a `Service`.
    ServiceRpc,
    /// Forkserver campaigns with every lane in a worker process.
    IsolatedFork,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "persistent" => Workload::Persistent,
            "service-rpc" => Workload::ServiceRpc,
            "isolated-fork" => Workload::IsolatedFork,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Persistent => "persistent",
            Workload::ServiceRpc => "service-rpc",
            Workload::IsolatedFork => "isolated-fork",
        }
    }

    /// The execution mechanism every campaign of the workload uses.
    pub fn mechanism(self) -> bench::Mechanism {
        match self {
            Workload::IsolatedFork => bench::Mechanism::ForkServer,
            _ => bench::Mechanism::ClosureX,
        }
    }

    /// Simulated-cycle budget of one campaign.
    pub fn budget(self) -> u64 {
        match self {
            Workload::Persistent => 20_000_000,
            Workload::ServiceRpc => 20_000_000,
            Workload::IsolatedFork => 80_000_000,
        }
    }

    /// Units whose campaigns define the exact metrics; the window always
    /// completes them.
    pub fn exact_units(self) -> u32 {
        match self {
            Workload::Persistent => 2,
            Workload::ServiceRpc | Workload::IsolatedFork => 4,
        }
    }

    /// Threads (or worker processes) the workload keeps busy.
    pub fn busy_threads(self) -> usize {
        match self {
            Workload::Persistent => 1,
            Workload::ServiceRpc | Workload::IsolatedFork => 2,
        }
    }

    /// Every target the workload can draw, in registry order.
    pub fn targets(self) -> Vec<&'static str> {
        match self {
            Workload::Persistent => targets::all().iter().map(|t| t.name).collect(),
            Workload::ServiceRpc => CRASH_HEAVY.to_vec(),
            // An odd count, so the median campaign falls on one target's
            // latency rather than in the gap between two.
            Workload::IsolatedFork => [&CRASH_HEAVY[..], &["giftext"]].concat(),
        }
    }

    /// The campaigns of unit `unit` under workload seed `seed`.
    pub fn unit(self, seed: u64, unit: u32) -> Vec<CampaignPlan> {
        let order = {
            // One target order per seed, shared by every unit.
            let mut t = self.targets();
            shuffle(&mut t, &mut SplitMix::new(seed ^ 0x0DE5_0DE5));
            t
        };
        let names: Vec<&'static str> = match self {
            Workload::ServiceRpc => {
                // Each target twice, so tenants share decoded images; a
                // fresh seeded order per batch.
                let mut b: Vec<_> = order.iter().chain(&order).copied().collect();
                shuffle(
                    &mut b,
                    &mut SplitMix::new(mix(seed, u64::from(unit), 0xBA7C)),
                );
                b
            }
            _ => order,
        };
        // `persistent` repeats the seed's ten campaigns every pass, so its
        // reference-interpreter oracle runs once per distinct campaign.
        let rng_unit = match self {
            Workload::Persistent => 0,
            _ => u64::from(unit),
        };
        names
            .into_iter()
            .enumerate()
            .map(|(i, target)| CampaignPlan {
                id: unit * 100 + i as u32,
                target,
                rng_seed: mix(seed, rng_unit, i as u64),
                budget: self.budget(),
            })
            .collect()
    }
}

/// One generated campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignPlan {
    /// Unique within a run; names the campaign's trace spans.
    pub id: u32,
    pub target: &'static str,
    /// The campaign RNG seed (`CampaignConfig::seed`).
    pub rng_seed: u64,
    /// Simulated-cycle budget.
    pub budget: u64,
}

impl CampaignPlan {
    pub fn config(&self) -> aflrs::CampaignConfig {
        aflrs::CampaignConfig {
            budget_cycles: self.budget,
            seed: self.rng_seed,
            deterministic_stage: true,
            stop_after_crashes: 0,
            ..aflrs::CampaignConfig::default()
        }
    }

    pub fn spec(&self) -> &'static targets::TargetSpec {
        targets::by_name(self.target).expect("plans only name bundled targets")
    }

    /// The benign seed corpus (planted-bug witnesses are never given).
    pub fn seeds(&self) -> Vec<Vec<u8>> {
        (self.spec().seeds)()
    }
}

/// SplitMix64: a tiny, fully specified generator, so the generated
/// campaigns do not depend on any library's RNG stream.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut r = SplitMix::new(seed ^ a.rotate_left(32) ^ b.wrapping_mul(0xA24B_AED4_963E_E407));
    r.next_u64()
}

/// Fisher–Yates.
fn shuffle<T>(v: &mut [T], rng: &mut SplitMix) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i + 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_same_campaigns() {
        for name in WORKLOADS {
            let w = Workload::parse(name).unwrap();
            for unit in 0..3 {
                assert_eq!(w.unit(42, unit), w.unit(42, unit), "{name} unit {unit}");
            }
        }
    }

    #[test]
    fn other_seeds_and_units_give_other_campaigns() {
        for name in WORKLOADS {
            let w = Workload::parse(name).unwrap();
            assert_ne!(w.unit(1, 0), w.unit(2, 0), "{name}");
            assert_ne!(w.unit(1, 0), w.unit(1, 1), "{name}: ids differ per unit");
        }
    }

    #[test]
    fn persistent_runs_all_ten_targets_in_one_seeded_order() {
        let w = Workload::Persistent;
        let a: Vec<_> = w.unit(7, 0).iter().map(|p| p.target).collect();
        let b: Vec<_> = w.unit(7, 5).iter().map(|p| p.target).collect();
        assert_eq!(a, b, "target order is per seed, not per pass");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
    }

    #[test]
    fn only_persistent_repeats_its_campaigns() {
        let key = |p: &CampaignPlan| (p.target, p.rng_seed);
        let same = |w: Workload| {
            let a: Vec<_> = w.unit(4, 0).iter().map(key).collect();
            let b: Vec<_> = w.unit(4, 1).iter().map(key).collect();
            a == b
        };
        assert!(same(Workload::Persistent));
        assert!(!same(Workload::ServiceRpc));
        assert!(!same(Workload::IsolatedFork));
    }

    #[test]
    fn service_batches_hold_each_target_twice() {
        for unit in 0..4 {
            let b = Workload::ServiceRpc.unit(9, unit);
            assert_eq!(b.len(), 2 * CRASH_HEAVY.len());
            for t in CRASH_HEAVY {
                assert_eq!(b.iter().filter(|p| p.target == t).count(), 2);
            }
        }
    }

    #[test]
    fn campaign_ids_are_unique_across_units() {
        let mut ids: Vec<u32> = (0..5)
            .flat_map(|u| Workload::ServiceRpc.unit(3, u))
            .map(|p| p.id)
            .collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    #[test]
    fn every_target_resolves() {
        for name in WORKLOADS {
            for p in Workload::parse(name).unwrap().unit(0, 0) {
                assert!(!p.seeds().is_empty(), "{}", p.target);
            }
        }
    }
}
