//! Parallel sample sort of particles by ID — the optimization §3.2 of the
//! paper applies before block-wise particle writes: "all processors
//! perform a parallel sort according to the particle ID and then all
//! processors independently perform block-wise MPI write".

use crate::wire;
use amrio_amr::ParticleSet;
use amrio_mpi::Comm;
use amrio_simt::{Bytes, SimDur};

const NS_PER_SORT_ITEM: u64 = 30;

/// Globally sort `ps` by particle ID. Returns this rank's locally sorted
/// chunk plus the per-rank chunk sizes (so every rank can compute global
/// offsets). Concatenating the chunks over ranks yields the particles in
/// ascending ID order.
pub fn parallel_sort_by_id(comm: &Comm, mut ps: ParticleSet) -> (ParticleSet, Vec<u64>) {
    let p = comm.size();
    let n = ps.len();
    ps.sort_by_id();
    comm.compute(SimDur::from_nanos(
        (n as u64).max(1).ilog2() as u64 * n as u64 * NS_PER_SORT_ITEM / 8,
    ));

    // Sample p ids per rank, evenly spaced through the sorted local data.
    let mut sample = Vec::with_capacity(p * 8);
    for k in 0..p {
        if n > 0 {
            let idx = k * n / p;
            sample.extend_from_slice(&ps.id[idx.min(n - 1)].to_le_bytes());
        }
    }
    // The splitters are the same on every rank, so they are computed once
    // from the gathered samples and shared.
    let splitters = comm.allgatherv_with(sample, |all| sample_splitters(all, p));

    // Partition local particles by splitter (dest r gets ids in
    // (splitters[r-1], splitters[r]]).
    let mut payloads: Vec<Vec<u8>> = (0..p).map(|_| Vec::new()).collect();
    for i in 0..n {
        let id = ps.id[i];
        let dst = splitters.partition_point(|s| *s < id);
        wire::push_particle(&mut payloads[dst], &ps, i);
    }
    let received = comm.alltoallv(wire::non_empty(payloads));
    let mut mine = ParticleSet::new();
    for (_, part) in &received {
        wire::read_particles(part, &mut mine);
    }
    mine.sort_by_id();
    comm.compute(SimDur::from_nanos(
        (mine.len() as u64).max(1).ilog2() as u64 * mine.len() as u64 * NS_PER_SORT_ITEM / 8,
    ));

    // Everyone learns the chunk sizes.
    let counts_bytes = comm.allgatherv((mine.len() as u64).to_le_bytes().to_vec());
    let counts: Vec<u64> = counts_bytes
        .iter()
        .map(|b| u64::from_le_bytes(b[..8].try_into().unwrap()))
        .collect();
    (mine, counts)
}

/// The p-1 splitters of a sample sort: every p-th of the gathered
/// little-endian `i64` samples in ascending order (none if nobody had
/// particles).
fn sample_splitters(all: &[Bytes], p: usize) -> Vec<i64> {
    let mut samples: Vec<i64> = all
        .iter()
        .flat_map(|b| {
            b.chunks_exact(8)
                .map(|c| i64::from_le_bytes(c.try_into().unwrap()))
        })
        .collect();
    samples.sort_unstable();
    if samples.is_empty() {
        return Vec::new();
    }
    (1..p)
        .map(|k| samples[(k * samples.len() / p).min(samples.len() - 1)])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use amrio_mpi::World;
    use amrio_net::NetConfig;

    fn scattered(rank: usize, n: usize) -> ParticleSet {
        let mut ps = ParticleSet::new();
        for k in 0..n {
            // Interleaved ids across ranks, in shuffled order.
            let id = (((k * 7919 + rank * 13) % n) * 4 + rank) as i64;
            ps.push(
                id,
                [id as f64 * 1e-6, 0.5, 0.5],
                [0.0; 3],
                1.0,
                [id as f32, 0.0],
            );
        }
        ps
    }

    #[test]
    fn global_order_and_conservation() {
        let w = World::new(4, NetConfig::ccnuma(4));
        let r = w.run(|c| {
            let ps = scattered(c.rank(), 500);
            let (sorted, counts) = parallel_sort_by_id(c, ps);
            // Locally sorted.
            assert!(sorted.id.windows(2).all(|w| w[0] <= w[1]));
            // Counts consistent.
            assert_eq!(counts.len(), 4);
            assert_eq!(counts[c.rank()], sorted.len() as u64);
            // Chunk boundaries: my first id exceeds everything before me
            // (checked globally below via min/max exchange).
            let lo = sorted.id.first().copied().unwrap_or(i64::MAX);
            let hi = sorted.id.last().copied().unwrap_or(i64::MIN);
            (lo, hi, counts.iter().sum::<u64>(), sorted)
        });
        let total: u64 = r.results[0].2;
        assert_eq!(total, 4 * 500);
        // Ranges are globally ordered.
        for k in 0..3 {
            assert!(r.results[k].1 <= r.results[k + 1].0);
        }
        // All payload survived (attr carries the id).
        for (_, _, _, ps) in &r.results {
            for i in 0..ps.len() {
                assert_eq!(ps.attrs[0][i], ps.id[i] as f32);
            }
        }
    }

    #[test]
    fn skewed_input_still_balances_roughly() {
        let w = World::new(4, NetConfig::ccnuma(4));
        let r = w.run(|c| {
            // All data on rank 0 initially.
            let ps = if c.rank() == 0 {
                scattered(0, 2000)
            } else {
                ParticleSet::new()
            };
            let (sorted, _) = parallel_sort_by_id(c, ps);
            sorted.len()
        });
        let lens: Vec<usize> = r.results.clone();
        assert_eq!(lens.iter().sum::<usize>(), 2000);
        // No rank holds everything.
        assert!(lens.iter().all(|l| *l < 1500), "{lens:?}");
    }

    #[test]
    fn empty_input_is_fine() {
        let w = World::new(3, NetConfig::ccnuma(3));
        let r = w.run(|c| {
            let (sorted, counts) = parallel_sort_by_id(c, ParticleSet::new());
            (sorted.len(), counts.iter().sum::<u64>())
        });
        assert!(r.results.iter().all(|&(l, t)| l == 0 && t == 0));
    }
}
