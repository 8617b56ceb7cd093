//! The distributed evolution loop: particle push and migration, derived
//! field updates, and the periodic rebuild of the refinement hierarchy
//! (flag → allgather → cluster → LPT assign → redistribute), reproducing
//! the AMR + dynamic load balancing behaviour the paper's §2 describes.

use crate::state::{SimState, TOP_GRID};
use crate::wire;
use amrio_amr::grid::GridMeta;
use amrio_amr::solver;
use amrio_amr::{cluster, lpt_assign, GridPatch, ParticleSet};
use amrio_mpi::coll::ReduceOp;
use amrio_mpi::Comm;
use amrio_simt::SimDur;

/// CPU cost constants (per cell / per particle, nanoseconds).
const NS_PER_CELL: u64 = 6;
const NS_PER_PARTICLE: u64 = 14;

/// Advance the simulation one step: push particles, migrate them to the
/// owner of the finest grid containing them, refresh derived fields.
pub fn evolve_step(comm: &Comm, st: &mut SimState, dt: f64) {
    // 1. Push particles everywhere.
    solver::push_particles(&mut st.my_top.particles, dt);
    for g in &mut st.my_subgrids {
        solver::push_particles(&mut g.particles, dt);
    }
    comm.compute(SimDur::from_nanos(st.owned_particles() * NS_PER_PARTICLE));

    // 2. Migrate: classify every owned particle by destination grid/rank.
    migrate_particles(comm, st);

    // 3. Refresh derived fields.
    let n0 = st.cfg.root_n();
    solver::update_derived_fields(&mut st.my_top, [n0, n0, n0]);
    for g in &mut st.my_subgrids {
        let n = st.cfg.root_n() << g.level;
        solver::update_derived_fields(g, [n, n, n]);
    }
    comm.compute(SimDur::from_nanos(st.owned_cells() * NS_PER_CELL));

    st.time += dt;
    st.cycle += 1;
}

/// Send every particle to the owner of the finest grid containing it.
pub fn migrate_particles(comm: &Comm, st: &mut SimState) {
    let p = comm.size();
    let mut outbound: Vec<Vec<u8>> = (0..p).map(|_| Vec::new()).collect();
    let mut keep_top = ParticleSet::new();
    let mut keep_sub: Vec<ParticleSet> =
        st.my_subgrids.iter().map(|_| ParticleSet::new()).collect();

    let classify = |st: &SimState, ps: &ParticleSet, i: usize| -> (u64, usize) {
        let pos = [ps.pos[0][i], ps.pos[1][i], ps.pos[2][i]];
        st.dest_of_pos(pos)
    };

    let top = std::mem::take(&mut st.my_top.particles);
    for i in 0..top.len() {
        let (gid, owner) = classify(st, &top, i);
        if gid == TOP_GRID && owner == comm.rank() {
            let (id, pos, vel, mass, attrs) = top.get(i);
            keep_top.push(id, pos, vel, mass, attrs);
        } else if owner == comm.rank() {
            if let Some(k) = st.my_subgrids.iter().position(|g| g.id == gid) {
                let (id, pos, vel, mass, attrs) = top.get(i);
                keep_sub[k].push(id, pos, vel, mass, attrs);
            }
        } else {
            wire::push_tagged_particle(&mut outbound[owner], gid, &top, i);
        }
    }
    for gi in 0..st.my_subgrids.len() {
        let ps = std::mem::take(&mut st.my_subgrids[gi].particles);
        for i in 0..ps.len() {
            let (gid, owner) = classify(st, &ps, i);
            if owner == comm.rank() {
                if gid == TOP_GRID {
                    let (id, pos, vel, mass, attrs) = ps.get(i);
                    keep_top.push(id, pos, vel, mass, attrs);
                } else if let Some(k) = st.my_subgrids.iter().position(|g| g.id == gid) {
                    let (id, pos, vel, mass, attrs) = ps.get(i);
                    keep_sub[k].push(id, pos, vel, mass, attrs);
                }
            } else {
                wire::push_tagged_particle(&mut outbound[owner], gid, &ps, i);
            }
        }
    }

    let inbound = comm.alltoallv(wire::non_empty(outbound));
    st.my_top.particles = keep_top;
    for (g, ps) in st.my_subgrids.iter_mut().zip(keep_sub) {
        g.particles = ps;
    }
    for (_, src) in inbound {
        wire::read_tagged_particles(&src, |gid, rec| {
            let target = if gid == TOP_GRID {
                &mut st.my_top.particles
            } else {
                let k = st
                    .my_subgrids
                    .iter()
                    .position(|g| g.id == gid)
                    .expect("inbound particle for grid we own");
                &mut st.my_subgrids[k].particles
            };
            wire::read_particles(rec, target);
        });
    }
    refresh_particle_counts(comm, st);
}

/// Allgather per-grid particle counts into the replicated hierarchy.
fn refresh_particle_counts(comm: &Comm, st: &mut SimState) {
    let mut local = Vec::new();
    for g in &st.my_subgrids {
        local.extend_from_slice(&g.id.to_le_bytes());
        local.extend_from_slice(&(g.particles.len() as u64).to_le_bytes());
    }
    let all = comm.allgatherv(local);
    for part in &all {
        for rec in part.chunks_exact(16) {
            let id = u64::from_le_bytes(rec[..8].try_into().unwrap());
            let n = u64::from_le_bytes(rec[8..].try_into().unwrap());
            if let Some(m) = st.hierarchy.grids.iter_mut().find(|m| m.id == id) {
                m.nparticles = n;
            }
        }
    }
    let top_local = st.my_top.particles.len() as u64;
    let top_total = comm.allreduce_u64(top_local, ReduceOp::Sum);
    if let Some(m) = st.hierarchy.grids.iter_mut().find(|m| m.id == TOP_GRID) {
        m.nparticles = top_total;
    }
}

#[cfg(test)]
thread_local! {
    /// Clusterings run on this thread. Rank threads are fresh per run, so
    /// a test sums this over ranks to count evaluations.
    static CLUSTER_RUNS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Tear down and rebuild the refinement hierarchy from the current
/// density field: flag cells, cluster them into boxes
/// (Berger–Rigoutsos), balance with LPT, and redistribute particles to
/// the new owners.
pub fn rebuild_refinement(comm: &Comm, st: &mut SimState) {
    // 1. Return all subgrid particles to the top grid, drop subgrids.
    st.hierarchy.grids.retain(|g| g.id == TOP_GRID);
    let old = std::mem::take(&mut st.my_subgrids);
    for g in old {
        st.my_top.particles.extend(&g.particles);
    }
    migrate_particles(comm, st);
    let n0 = st.cfg.root_n();
    solver::update_derived_fields(&mut st.my_top, [n0, n0, n0]);

    // 2. Level by level.
    for level in 0..st.cfg.max_level {
        // Flag my cells at this level.
        let mut flags = Vec::new();
        if level == 0 {
            flags.extend(solver::flag_cells(&st.my_top, st.cfg.refine_threshold));
        } else {
            for g in st.my_subgrids.iter().filter(|g| g.level == level) {
                flags.extend(solver::flag_cells(g, st.cfg.refine_threshold));
            }
        }
        comm.compute(SimDur::from_nanos(flags.len() as u64 * 4));

        // Share flags. The clustering of the global list is the same on
        // every rank, so it runs once and every rank gets the boxes; each
        // rank is still charged for clustering.
        let params = &st.cfg.cluster;
        let clustered = comm.allgatherv_with(wire::encode_flags(&flags), |all| {
            #[cfg(test)]
            CLUSTER_RUNS.set(CLUSTER_RUNS.get() + 1);
            let global_flags: Vec<[u64; 3]> =
                all.iter().flat_map(|p| wire::decode_flags(p)).collect();
            (global_flags.len(), cluster(&global_flags, params))
        });
        let (nflags, boxes) = (clustered.0, &clustered.1);
        if nflags == 0 {
            break;
        }
        comm.compute(SimDur::from_nanos(nflags as u64 * 60));
        if boxes.is_empty() {
            break;
        }

        // Deterministic owners via LPT on box volume.
        let work: Vec<u64> = boxes.iter().map(|b| b.cells()).collect();
        let owners = lpt_assign(&work, comm.size());

        // Register new grids (same order everywhere -> same ids).
        let new_level = level + 1;
        let mut new_ids = Vec::with_capacity(boxes.len());
        for (b, o) in boxes.iter().zip(&owners) {
            let id = st.next_grid_id;
            st.next_grid_id += 1;
            new_ids.push(id);
            let parent = if level == 0 {
                Some(TOP_GRID)
            } else {
                st.hierarchy
                    .grids
                    .iter()
                    .find(|g| {
                        g.level == level && g.bbox.intersect(b).map(|i| i == *b).unwrap_or(false)
                    })
                    .map(|g| g.id)
                    .or(Some(TOP_GRID))
            };
            st.hierarchy.add(GridMeta {
                id,
                level: new_level,
                bbox: b.refined(),
                parent,
                owner: *o,
                nparticles: 0,
            });
            if *o == comm.rank() {
                st.my_subgrids
                    .push(GridPatch::new(id, new_level, b.refined()));
            }
        }

        // Move particles into the new grids and derive their fields.
        migrate_particles(comm, st);
        for g in st.my_subgrids.iter_mut().filter(|g| g.level == new_level) {
            let n = st.cfg.root_n() << new_level;
            solver::update_derived_fields(g, [n, n, n]);
        }
        comm.compute(SimDur::from_nanos(
            st.my_subgrids
                .iter()
                .filter(|g| g.level == new_level)
                .map(|g| g.bbox.cells())
                .sum::<u64>()
                * NS_PER_CELL,
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{ProblemSize, SimConfig};
    use crate::state::{global_digest, DIGEST_RUNS};
    use amrio_mpi::World;
    use amrio_net::NetConfig;

    fn cfg(nranks: usize) -> SimConfig {
        let mut c = SimConfig::new(ProblemSize::Custom(16), nranks);
        c.particle_fraction = 0.5;
        c.refine_threshold = 3.0;
        c
    }

    #[test]
    fn replicated_work_runs_once_per_collective() {
        // Clustering and the digest combine are the same on every rank:
        // once per refinement level reached and once per digest, not
        // once per rank.
        let n = 16;
        let w = World::new(n, NetConfig::smp_cluster(n, 4));
        let r = w.run(|c| {
            let mut st = SimState::init(c, cfg(n));
            rebuild_refinement(c, &mut st);
            let digest = global_digest(c, &st);
            let counts = (CLUSTER_RUNS.get(), DIGEST_RUNS.get());
            (counts, st.hierarchy.max_level(), st.cfg.max_level, digest)
        });
        let (_, reached, max, digest) = r.results[0];
        assert!(reached >= 1, "no refinement happened");
        assert!(r.results.iter().all(|x| (x.1, x.3) == (reached, digest)));
        // The level loop stops after the last level it refined, or at
        // the configured maximum.
        let levels = usize::from((reached + 1).min(max));
        let clusterings: usize = r.results.iter().map(|x| x.0 .0).sum();
        let digests: usize = r.results.iter().map(|x| x.0 .1).sum();
        assert_eq!((clusterings, digests), (levels, 1));
    }

    #[test]
    fn evolution_conserves_particle_count() {
        let w = World::new(4, NetConfig::ccnuma(4));
        let r = w.run(|c| {
            let mut st = SimState::init(c, cfg(4));
            rebuild_refinement(c, &mut st);
            for _ in 0..3 {
                evolve_step(c, &mut st, 1.0);
            }
            st.owned_particles()
        });
        let total: u64 = r.results.iter().sum();
        assert_eq!(total, cfg(4).num_particles());
    }

    #[test]
    fn refinement_creates_subgrids_near_attractors() {
        let w = World::new(4, NetConfig::ccnuma(4));
        let r = w.run(|c| {
            let mut st = SimState::init(c, cfg(4));
            rebuild_refinement(c, &mut st);
            (
                st.hierarchy.grids.len(),
                st.hierarchy.max_level(),
                st.hierarchy
                    .at_level(1)
                    .map(|g| g.bbox.cells())
                    .sum::<u64>(),
            )
        });
        let (ngrids, maxlvl, l1cells) = r.results[0];
        assert!(ngrids > 1, "no refinement happened");
        assert!(maxlvl >= 1);
        // Refined region is a minority of the (refined) domain.
        assert!(l1cells < 8 * 16 * 16 * 16);
        // All ranks agree on the hierarchy.
        assert!(r.results.iter().all(|x| *x == r.results[0]));
    }

    #[test]
    fn hierarchy_is_replicated_consistently() {
        let w = World::new(8, NetConfig::smp_cluster(8, 4));
        let r = w.run(|c| {
            let mut st = SimState::init(c, cfg(8));
            rebuild_refinement(c, &mut st);
            evolve_step(c, &mut st, 1.0);
            // Serialize hierarchy for comparison.
            wire::encode_hierarchy(&st.hierarchy, st.time, st.cycle)
        });
        assert!(r.results.iter().all(|h| *h == r.results[0]));
    }

    #[test]
    fn subgrid_particles_live_inside_their_grid() {
        let w = World::new(4, NetConfig::ccnuma(4));
        let ok = w.run(|c| {
            let mut st = SimState::init(c, cfg(4));
            rebuild_refinement(c, &mut st);
            st.my_subgrids.iter().all(|g| {
                let n = st.level_n(g.level) as f64;
                (0..g.particles.len()).all(|i| {
                    (0..3).all(|d| {
                        let cell = g.particles.pos[d][i] * n;
                        cell >= g.bbox.lo[d] as f64 && cell < g.bbox.hi[d] as f64
                    })
                })
            })
        });
        assert!(ok.results.iter().all(|x| *x));
    }

    #[test]
    fn evolution_changes_the_digest() {
        let w = World::new(2, NetConfig::ccnuma(2));
        let r = w.run(|c| {
            let mut st = SimState::init(c, cfg(2));
            let d0 = global_digest(c, &st);
            evolve_step(c, &mut st, 1.0);
            let d1 = global_digest(c, &st);
            (d0, d1)
        });
        let (d0, d1) = r.results[0];
        assert_ne!(d0, d1);
    }

    #[test]
    fn evolution_is_deterministic() {
        let go = || {
            let w = World::new(4, NetConfig::ccnuma(4));
            let r = w.run(|c| {
                let mut st = SimState::init(c, cfg(4));
                rebuild_refinement(c, &mut st);
                for _ in 0..2 {
                    evolve_step(c, &mut st, 1.0);
                }
                global_digest(c, &st)
            });
            (r.results[0], r.makespan)
        };
        assert_eq!(go(), go());
    }

    #[test]
    fn particle_counts_in_hierarchy_sum_to_total() {
        let w = World::new(4, NetConfig::ccnuma(4));
        let r = w.run(|c| {
            let mut st = SimState::init(c, cfg(4));
            rebuild_refinement(c, &mut st);
            st.hierarchy.grids.iter().map(|g| g.nparticles).sum::<u64>()
        });
        assert_eq!(r.results[0], cfg(4).num_particles());
    }
}
