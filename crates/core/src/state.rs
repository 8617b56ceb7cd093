//! Per-rank simulation state, stateless initial conditions, and the
//! content digest used to verify checkpoint/restart equivalence.

use crate::problem::SimConfig;
use amrio_amr::grid::GridMeta;
use amrio_amr::solver;
use amrio_amr::{BlockDecomp, CellBox, GridPatch, Hierarchy, ParticleSet};
use amrio_mpi::Comm;
use amrio_simt::digest::{fnv1a, FNV_OFFSET};

/// The distributed root grid always has id 0.
pub const TOP_GRID: u64 = 0;

/// One rank's view of the simulation.
#[derive(Clone, Debug)]
pub struct SimState {
    pub cfg: SimConfig,
    pub decomp: BlockDecomp,
    /// Replicated metadata tree (identical on every rank).
    pub hierarchy: Hierarchy,
    /// This rank's slab of the root grid.
    pub my_top: GridPatch,
    /// Refined grids wholly owned by this rank.
    pub my_subgrids: Vec<GridPatch>,
    pub time: f64,
    pub cycle: u64,
    pub next_grid_id: u64,
}

/// SplitMix64: the stateless generator behind the initial conditions
/// (every rank can evaluate particle `i` without communication).
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Deterministic clustered initial position of particle `i`.
pub fn ic_position(seed: u64, i: u64) -> [f64; 3] {
    let h0 = splitmix(seed ^ i.wrapping_mul(0x9E3779B97F4A7C15));
    let clustered = unit_f64(splitmix(h0 ^ 1)) < 0.55;
    if !clustered {
        [
            unit_f64(splitmix(h0 ^ 2)),
            unit_f64(splitmix(h0 ^ 3)),
            unit_f64(splitmix(h0 ^ 4)),
        ]
    } else {
        let a = &solver::ATTRACTORS[(h0 % 3) as usize];
        let mut pos = [0f64; 3];
        for d in 0..3 {
            // Box-Muller from two hashed uniforms.
            let u1 = unit_f64(splitmix(h0 ^ (10 + d as u64))).max(1e-12);
            let u2 = unit_f64(splitmix(h0 ^ (20 + d as u64)));
            let g = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            let mut x = a[d] + g * 0.06;
            x -= x.floor();
            pos[d] = x;
        }
        pos
    }
}

/// Deterministic small initial velocity.
pub fn ic_velocity(seed: u64, i: u64) -> [f32; 3] {
    let h = splitmix(seed ^ (i.wrapping_mul(0xD1B54A32D192ED03) | 1));
    [
        (unit_f64(splitmix(h ^ 1)) as f32 - 0.5) * 2e-3,
        (unit_f64(splitmix(h ^ 2)) as f32 - 0.5) * 2e-3,
        (unit_f64(splitmix(h ^ 3)) as f32 - 0.5) * 2e-3,
    ]
}

impl SimState {
    /// Build the initial state, the way ENZO's `inits` produces the
    /// initial grid once and distributes it: the particle positions are
    /// generated once per world ([`Comm::replicated`]) and bucketed by
    /// the `(Block, Block, Block)` slab that owns them; each rank then
    /// takes its bucket, adds velocities and derives its field data.
    /// There is no setup communication to distort the timed phases, and
    /// each rank is charged its `1/P` share of the generation.
    pub fn init(comm: &Comm, cfg: SimConfig) -> SimState {
        let n = cfg.root_n();
        let decomp = BlockDecomp::new(CellBox::cube(n), comm.size());
        let slab = decomp.slab(comm.rank());
        let mut my_top = GridPatch::new(TOP_GRID, 0, slab);

        let np = cfg.num_particles();
        // Mass normalization: mean deposited density == 1 per cell.
        let mass = (n * n * n) as f32 / np.max(1) as f32;
        let buckets = comm.replicated(|| {
            #[cfg(test)]
            IC_RUNS.set(IC_RUNS.get() + 1);
            let mut buckets = vec![Vec::new(); comm.size()];
            for i in 0..np {
                let pos = ic_position(cfg.seed, i);
                buckets[decomp.owner_of_pos(pos, [n, n, n])].push((i, pos));
            }
            buckets
        });
        let mine = &buckets[comm.rank()];
        let mut ps = ParticleSet::with_capacity(mine.len());
        for &(i, pos) in mine {
            ps.push(i as i64, pos, ic_velocity(cfg.seed, i), mass, [0.0, 0.0]);
        }
        my_top.particles = ps;
        solver::update_derived_fields(&mut my_top, [n, n, n]);

        let mut hierarchy = Hierarchy::new();
        hierarchy.add(GridMeta {
            id: TOP_GRID,
            level: 0,
            bbox: CellBox::cube(n),
            parent: None,
            owner: 0, // grid 0 is distributed; owner is unused for it
            nparticles: np,
        });

        // Charge the IC generation (hash + filter per particle).
        comm.compute(amrio_simt::SimDur::from_nanos(np * 12 / comm.size() as u64));

        SimState {
            cfg,
            decomp,
            hierarchy,
            my_top,
            my_subgrids: Vec::new(),
            time: 0.0,
            cycle: 0,
            next_grid_id: 1,
        }
    }

    /// Resolution (cells per dimension of the full domain) at `level`.
    pub fn level_n(&self, level: u8) -> u64 {
        self.cfg.root_n() << level
    }

    /// The owner rank of a particle position: the finest grid containing
    /// it decides (grid 0 falls back to the slab decomposition).
    pub fn dest_of_pos(&self, pos: [f64; 3]) -> (u64, usize) {
        let mut best: Option<&GridMeta> = None;
        for g in &self.hierarchy.grids {
            if g.id == TOP_GRID {
                continue;
            }
            let n = self.level_n(g.level) as f64;
            let inside = (0..3).all(|d| {
                let c = pos[d] * n;
                c >= g.bbox.lo[d] as f64 && c < g.bbox.hi[d] as f64
            });
            if inside && best.map(|b| g.level > b.level).unwrap_or(true) {
                best = Some(g);
            }
        }
        match best {
            Some(g) => (g.id, g.owner),
            None => {
                let n = self.cfg.root_n();
                (TOP_GRID, self.decomp.owner_of_pos(pos, [n, n, n]))
            }
        }
    }

    /// Grids (patches) owned by this rank, including the top slab.
    pub fn owned_patches(&self) -> impl Iterator<Item = &GridPatch> {
        std::iter::once(&self.my_top).chain(self.my_subgrids.iter())
    }

    pub fn owned_cells(&self) -> u64 {
        self.owned_patches().map(|p| p.bbox.cells()).sum()
    }

    pub fn owned_particles(&self) -> u64 {
        self.owned_patches().map(|p| p.particles.len() as u64).sum()
    }
}

fn patch_digest(p: &GridPatch) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, &p.id.to_le_bytes());
    h = fnv1a(h, &[p.level]);
    for v in p.bbox.lo.iter().chain(p.bbox.hi.iter()) {
        h = fnv1a(h, &v.to_le_bytes());
    }
    for f in &p.fields {
        h = fnv1a(h, &f.to_bytes());
    }
    // Particle order is not semantically meaningful; digest in id order.
    let mut ps = p.particles.clone();
    ps.sort_by_id();
    let mut rec = Vec::new();
    for i in 0..ps.len() {
        crate::wire::push_particle(&mut rec, &ps, i);
    }
    fnv1a(h, &rec)
}

/// A deterministic digest of the *global* simulation content that is
/// independent of which rank owns which grid — used to prove that a
/// checkpoint/restart cycle preserved the simulation exactly.
pub fn global_digest(comm: &Comm, st: &SimState) -> u64 {
    // (grid id, sub-key, digest) triples; the top grid is keyed by the
    // rank because its slab partition is fixed by the decomposition,
    // while subgrids are keyed by id alone so the digest is independent
    // of which rank happens to own them (restart reassigns owners
    // round-robin).
    let mut local = Vec::new();
    let push = |id: u64, key: u64, d: u64, out: &mut Vec<u8>| {
        out.extend_from_slice(&id.to_le_bytes());
        out.extend_from_slice(&key.to_le_bytes());
        out.extend_from_slice(&d.to_le_bytes());
    };
    push(
        TOP_GRID,
        comm.rank() as u64,
        patch_digest(&st.my_top),
        &mut local,
    );
    for p in &st.my_subgrids {
        push(p.id, 0, patch_digest(p), &mut local);
    }
    // The combined hash is the same on every rank: computed once.
    *comm.allgatherv_with(local, |all| {
        #[cfg(test)]
        DIGEST_RUNS.set(DIGEST_RUNS.get() + 1);
        let mut triples: Vec<(u64, u64, u64)> = all
            .iter()
            .flat_map(|part| {
                part.chunks_exact(24).map(|c| {
                    (
                        u64::from_le_bytes(c[..8].try_into().unwrap()),
                        u64::from_le_bytes(c[8..16].try_into().unwrap()),
                        u64::from_le_bytes(c[16..24].try_into().unwrap()),
                    )
                })
            })
            .collect();
        triples.sort_unstable();
        let mut h = FNV_OFFSET;
        for (id, key, d) in triples {
            h = fnv1a(h, &id.to_le_bytes());
            h = fnv1a(h, &key.to_le_bytes());
            h = fnv1a(h, &d.to_le_bytes());
        }
        h
    })
}

#[cfg(test)]
thread_local! {
    /// Global digests combined on this thread (see `CLUSTER_RUNS` in
    /// `evolve`).
    pub(crate) static DIGEST_RUNS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
thread_local! {
    /// Initial-condition generation passes run on this thread (see
    /// `CLUSTER_RUNS` in `evolve`).
    static IC_RUNS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::ProblemSize;
    use amrio_mpi::World;
    use amrio_net::NetConfig;

    /// Oracle: the top slab as `init` built it when every rank walked
    /// all `np` particles and kept those in its own slab.
    fn per_rank_top(cfg: &SimConfig, nranks: usize, rank: usize) -> GridPatch {
        let n = cfg.root_n();
        let decomp = BlockDecomp::new(CellBox::cube(n), nranks);
        let mut top = GridPatch::new(TOP_GRID, 0, decomp.slab(rank));
        let np = cfg.num_particles();
        let mass = (n * n * n) as f32 / np.max(1) as f32;
        for i in 0..np {
            let pos = ic_position(cfg.seed, i);
            if decomp.owner_of_pos(pos, [n, n, n]) == rank {
                let vel = ic_velocity(cfg.seed, i);
                top.particles.push(i as i64, pos, vel, mass, [0.0, 0.0]);
            }
        }
        solver::update_derived_fields(&mut top, [n, n, n]);
        top
    }

    /// Every particle record (id, position, velocity and mass bits, in
    /// order) followed by every field's bytes.
    fn top_bytes(top: &GridPatch) -> Vec<u8> {
        let mut out = Vec::new();
        for i in 0..top.particles.len() {
            crate::wire::push_particle(&mut out, &top.particles, i);
        }
        for f in &top.fields {
            out.extend_from_slice(&f.to_bytes());
        }
        out
    }

    #[test]
    fn init_matches_the_per_rank_oracle() {
        for fraction in [1.0, 0.5, 0.0] {
            for nranks in [1, 2, 3, 7, 16, 64] {
                let mut cfg = SimConfig::new(ProblemSize::Custom(16), nranks);
                cfg.particle_fraction = fraction;
                let w = World::new(nranks, NetConfig::smp_cluster(nranks, 8));
                let r = w.run(|c| top_bytes(&SimState::init(c, cfg.clone()).my_top));
                for (rank, got) in r.results.iter().enumerate() {
                    let want = top_bytes(&per_rank_top(&cfg, nranks, rank));
                    assert!(
                        *got == want,
                        "rank {rank} of {nranks}, particle_fraction {fraction}"
                    );
                }
            }
        }
    }

    #[test]
    fn ic_generation_runs_once_per_world() {
        let n = 16;
        let w = World::new(n, NetConfig::smp_cluster(n, 4));
        let r = w.run(|c| {
            SimState::init(c, small_cfg(n));
            IC_RUNS.get()
        });
        assert_eq!(r.results.iter().sum::<usize>(), 1);
    }

    fn small_cfg(nranks: usize) -> SimConfig {
        let mut c = SimConfig::new(ProblemSize::Custom(16), nranks);
        c.particle_fraction = 0.25;
        c
    }

    #[test]
    fn init_partitions_all_particles_exactly_once() {
        let w = World::new(4, NetConfig::ccnuma(4));
        let r = w.run(|c| {
            let st = SimState::init(c, small_cfg(4));
            st.my_top.particles.len() as u64
        });
        let total: u64 = r.results.iter().sum();
        assert_eq!(total, small_cfg(4).num_particles());
    }

    #[test]
    fn slabs_tile_domain() {
        let w = World::new(8, NetConfig::ccnuma(8));
        let r = w.run(|c| {
            let st = SimState::init(c, small_cfg(8));
            st.my_top.bbox.cells()
        });
        assert_eq!(r.results.iter().sum::<u64>(), 16 * 16 * 16);
    }

    #[test]
    fn particles_live_in_their_slab() {
        let w = World::new(8, NetConfig::ccnuma(8));
        let ok = w.run(|c| {
            let st = SimState::init(c, small_cfg(8));
            let n = st.cfg.root_n();
            (0..st.my_top.particles.len()).all(|i| {
                let pos = [
                    st.my_top.particles.pos[0][i],
                    st.my_top.particles.pos[1][i],
                    st.my_top.particles.pos[2][i],
                ];
                st.decomp.owner_of_pos(pos, [n, n, n]) == c.rank()
            })
        });
        assert!(ok.results.iter().all(|x| *x));
    }

    #[test]
    fn digest_is_rank_count_invariant_for_fixed_content() {
        // Same world size, two runs: digest identical.
        let go = || {
            let w = World::new(4, NetConfig::ccnuma(4));
            let r = w.run(|c| {
                let st = SimState::init(c, small_cfg(4));
                global_digest(c, &st)
            });
            r.results[0]
        };
        assert_eq!(go(), go());
    }

    #[test]
    fn digest_changes_with_seed() {
        let digest_for = |seed: u64| {
            let w = World::new(2, NetConfig::ccnuma(2));
            let r = w.run(move |c| {
                let mut cfg = small_cfg(2);
                cfg.seed = seed;
                let st = SimState::init(c, cfg);
                global_digest(c, &st)
            });
            r.results[0]
        };
        assert_ne!(digest_for(1), digest_for(2));
    }

    #[test]
    fn ic_positions_are_clustered() {
        // More than a uniform share of particles near the attractors.
        let near = (0..20_000)
            .map(|i| ic_position(7, i))
            .filter(|p| {
                solver::ATTRACTORS.iter().any(|a| {
                    (0..3).all(|d| {
                        let mut dx = (a[d] - p[d]).abs();
                        if dx > 0.5 {
                            dx = 1.0 - dx;
                        }
                        dx < 0.12
                    })
                })
            })
            .count();
        // Uniform would put ~3 x (0.24)^3 ~ 4% there; clustered IC ~ half.
        assert!(near > 5000, "only {near} near attractors");
    }

    #[test]
    fn dest_of_pos_prefers_finest_grid() {
        let w = World::new(2, NetConfig::ccnuma(2));
        w.run(|c| {
            let mut st = SimState::init(c, small_cfg(2));
            st.hierarchy.add(GridMeta {
                id: 1,
                level: 1,
                bbox: CellBox::new([0, 0, 0], [16, 16, 16]), // half domain at L1
                parent: Some(0),
                owner: 1,
                nparticles: 0,
            });
            st.hierarchy.add(GridMeta {
                id: 2,
                level: 2,
                bbox: CellBox::new([0, 0, 0], [16, 16, 16]), // quarter at L2
                parent: Some(1),
                owner: 0,
                nparticles: 0,
            });
            // Deep corner: contained in both -> level 2 wins.
            assert_eq!(st.dest_of_pos([0.1, 0.1, 0.1]), (2, 0));
            // Inside L1 only (past the L2 quarter, within the L1 half).
            assert_eq!(st.dest_of_pos([0.3, 0.3, 0.4]), (1, 1));
            // Outside both -> top grid by slab.
            let (g, _) = st.dest_of_pos([0.9, 0.9, 0.9]);
            assert_eq!(g, TOP_GRID);
        });
    }
}
