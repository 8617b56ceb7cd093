//! Seeded input generation: the benchmark's only entropy is the
//! `--seed` argument, expanded by splitmix64 into spec streams, crash
//! times and Zipf draws. The same seed gives the same inputs.

use amrio_check::CheckMode;
use amrio_enzo::spec::{ExperimentSpec, FaultEntry, FaultSpec, PlatformId, StrategyId};

/// splitmix64 generator.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, tag)`.
    pub fn derive(seed: u64, tag: u64) -> Rng {
        let mut r = Rng(seed ^ tag.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`, `n > 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Zipf(s) sampler over ranks `0..k` (rank 0 most popular) by inverse
/// CDF on precomputed cumulative weights.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(k: usize, s: f64) -> Zipf {
        assert!(k > 0);
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=k)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Evolve cycles before the checkpoint, as in the figure binaries.
pub const CYCLES: u32 = 2;

/// The three I/O strategies the paper compares.
pub const PAPER_STRATEGIES: [StrategyId; 3] = [
    StrategyId::Hdf4Serial,
    StrategyId::MpiIoOptimized,
    StrategyId::Hdf5Parallel,
];

fn spec(
    platform: PlatformId,
    strategy: StrategyId,
    root_n: u64,
    nranks: usize,
    seed: u64,
) -> ExperimentSpec {
    let mut s = ExperimentSpec::new(platform, strategy, root_n, nranks);
    s.cycles = CYCLES;
    s.seed = seed;
    s
}

/// `paper_sweep`: the 27 distinct cells {origin2000, ibm-sp2,
/// chiba-pvfs} x {hdf4, mpiio, hdf5} x {4, 8, 16} ranks on a 32^3 root
/// grid, each with its own seeded initial conditions, in seeded order.
pub fn paper_sweep_specs(seed: u64) -> Vec<ExperimentSpec> {
    let mut rng = Rng::derive(seed, 1);
    let mut out = Vec::with_capacity(27);
    for platform in [
        PlatformId::Origin2000,
        PlatformId::IbmSp2,
        PlatformId::ChibaPvfs,
    ] {
        for strategy in PAPER_STRATEGIES {
            for nranks in [4, 8, 16] {
                out.push(spec(platform, strategy, 32, nranks, rng.next_u64()));
            }
        }
    }
    rng.shuffle(&mut out);
    out
}

/// The order in which a sweep visits its distinct specs: seeded
/// permutations of `0..n`, one after another, so every spec runs once
/// per pass.
pub struct PassOrder {
    rng: Rng,
    pass: Vec<usize>,
    at: usize,
}

impl PassOrder {
    pub fn new(seed: u64, n: usize) -> PassOrder {
        PassOrder {
            rng: Rng::derive(seed, 2),
            pass: (0..n).collect(),
            at: n,
        }
    }
}

impl Iterator for PassOrder {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.at == self.pass.len() {
            self.rng.shuffle(&mut self.pass);
            self.at = 0;
        }
        self.at += 1;
        Some(self.pass[self.at - 1])
    }
}

/// `rank_cliff`: ibm-sp2, optimized MPI-IO, 16^3 root grid, 256 ranks.
pub fn rank_cliff_spec(seed: u64) -> ExperimentSpec {
    spec(
        PlatformId::IbmSp2,
        StrategyId::MpiIoOptimized,
        16,
        256,
        Rng::derive(seed, 3).next_u64(),
    )
}

/// Initial conditions per paper strategy in `crash_recover`. One set of
/// initial conditions made the workload's virtual times move by up to
/// 12% between seeds; four average that down.
pub const CRASH_ICS: usize = 4;

/// `crash_recover`: the crash-sweep cell (ibm-sp2, 16^3, 4 ranks) as a
/// generational run committing every cycle under the strict checker,
/// for each paper strategy on [`CRASH_ICS`] seeded initial conditions.
pub fn crash_clean_specs(seed: u64) -> Vec<ExperimentSpec> {
    let mut rng = Rng::derive(seed, 4);
    let mut out = Vec::with_capacity(CRASH_ICS * PAPER_STRATEGIES.len());
    for _ in 0..CRASH_ICS {
        let ic = rng.next_u64();
        for s in PAPER_STRATEGIES {
            let mut x = spec(PlatformId::IbmSp2, s, 16, 4, ic);
            x.dump_every = Some(1);
            x.check = CheckMode::Strict;
            out.push(x);
        }
    }
    out
}

/// `clean` with a whole-machine crash armed at virtual `at_ns`.
pub fn with_crash(clean: &ExperimentSpec, at_ns: u64) -> ExperimentSpec {
    let mut s = clean.clone();
    s.faults = Some(FaultSpec {
        server_count: None,
        entries: vec![FaultEntry::Crash { at_ns }],
    });
    s
}

/// `serve_zipf`: `k` specs of the load generator's cell (origin2000,
/// optimized MPI-IO, 16^3, 4 ranks) with distinct seeded initial
/// conditions.
pub fn serve_specs(seed: u64, k: usize) -> Vec<ExperimentSpec> {
    let mut rng = Rng::derive(seed, 5);
    (0..k)
        .map(|_| {
            spec(
                PlatformId::Origin2000,
                StrategyId::MpiIoOptimized,
                16,
                4,
                rng.next_u64(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn splitmix_reference_values() {
        // First outputs of splitmix64 seeded with 0 (the published
        // reference sequence).
        let mut r = Rng(0);
        assert_eq!(r.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(r.next_u64(), 0x6e78_9e6a_a1b9_65f4);
    }

    #[test]
    fn spec_generators_are_seed_deterministic() {
        assert_eq!(paper_sweep_specs(7), paper_sweep_specs(7));
        assert_ne!(paper_sweep_specs(7), paper_sweep_specs(8));
        assert_eq!(rank_cliff_spec(7), rank_cliff_spec(7));
        assert_ne!(rank_cliff_spec(7), rank_cliff_spec(8));
        assert_eq!(crash_clean_specs(7), crash_clean_specs(7));
        assert_eq!(serve_specs(7, 16), serve_specs(7, 16));
        assert_ne!(serve_specs(7, 16), serve_specs(8, 16));
    }

    #[test]
    fn paper_sweep_covers_every_cell_once_and_validates() {
        let specs = paper_sweep_specs(42);
        assert_eq!(specs.len(), 27);
        let cells: BTreeSet<String> = specs
            .iter()
            .map(|s| format!("{}/{}/{}", s.platform, s.strategy, s.nranks))
            .collect();
        assert_eq!(cells.len(), 27);
        let digests: BTreeSet<u64> = specs.iter().map(|s| s.canonical_digest()).collect();
        assert_eq!(digests.len(), 27);
        for s in specs
            .iter()
            .chain(crash_clean_specs(42).iter())
            .chain(serve_specs(42, 16).iter())
            .chain([rank_cliff_spec(42)].iter())
        {
            s.validate().expect("generated specs validate");
        }
    }

    #[test]
    fn pass_order_visits_each_spec_once_per_pass() {
        let order: Vec<usize> = PassOrder::new(3, 5).take(15).collect();
        for pass in order.chunks(5) {
            let set: BTreeSet<usize> = pass.iter().copied().collect();
            assert_eq!(set.len(), 5);
        }
        let again: Vec<usize> = PassOrder::new(3, 5).take(15).collect();
        assert_eq!(order, again);
    }

    #[test]
    fn zipf_sampler_is_seeded_and_skewed() {
        let z = Zipf::new(16, 1.1);
        let draw = |seed| {
            let mut rng = Rng(seed);
            (0..4000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw(11);
        assert_eq!(a, draw(11));
        assert_ne!(a, draw(12));
        let mut counts = [0usize; 16];
        for &i in &a {
            counts[i] += 1;
        }
        // Rank 1 has weight 1 / H(16, 1.1) ~ 0.30; rank 16 ~ 0.014.
        assert!((1000..1400).contains(&counts[0]), "{counts:?}");
        assert!(counts[0] > counts[1] && counts[1] > counts[15]);
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn crash_spec_arms_one_crash() {
        let clean = &crash_clean_specs(1)[0];
        let s = with_crash(clean, 5_000);
        s.validate().unwrap();
        assert_ne!(s.canonical_digest(), clean.canonical_digest());
        assert_eq!(
            s.faults.unwrap().entries,
            vec![FaultEntry::Crash { at_ns: 5_000 }]
        );
    }
}
