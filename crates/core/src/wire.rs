//! Byte-level encodings used for exchange and checkpoint metadata:
//! particle records, flag lists, and the serialized hierarchy.

use amrio_amr::{CellBox, GridMeta, Hierarchy, ParticleSet, NUM_ATTRS};

/// Encoded size of one particle record.
pub const PARTICLE_REC: usize = 8 + 24 + 12 + 4 + 4 * NUM_ATTRS;

/// Append one particle as a fixed-size record.
pub fn push_particle(out: &mut Vec<u8>, ps: &ParticleSet, i: usize) {
    let (id, pos, vel, mass, attrs) = ps.get(i);
    out.extend_from_slice(&id.to_le_bytes());
    for v in pos {
        out.extend_from_slice(&v.to_le_bytes());
    }
    for v in vel {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.extend_from_slice(&mass.to_le_bytes());
    for a in attrs {
        out.extend_from_slice(&a.to_le_bytes());
    }
}

/// Decode consecutive particle records into `ps`.
pub fn read_particles(data: &[u8], ps: &mut ParticleSet) {
    assert_eq!(data.len() % PARTICLE_REC, 0, "ragged particle payload");
    for rec in data.chunks_exact(PARTICLE_REC) {
        let id = i64::from_le_bytes(rec[..8].try_into().unwrap());
        let mut p = 8;
        let mut pos = [0f64; 3];
        for v in pos.iter_mut() {
            *v = f64::from_le_bytes(rec[p..p + 8].try_into().unwrap());
            p += 8;
        }
        let mut vel = [0f32; 3];
        for v in vel.iter_mut() {
            *v = f32::from_le_bytes(rec[p..p + 4].try_into().unwrap());
            p += 4;
        }
        let mass = f32::from_le_bytes(rec[p..p + 4].try_into().unwrap());
        p += 4;
        let mut attrs = [0f32; NUM_ATTRS];
        for a in attrs.iter_mut() {
            *a = f32::from_le_bytes(rec[p..p + 4].try_into().unwrap());
            p += 4;
        }
        ps.push(id, pos, vel, mass, attrs);
    }
}

/// Encode a (grid id, particle record) pair stream entry.
pub fn push_tagged_particle(out: &mut Vec<u8>, gid: u64, ps: &ParticleSet, i: usize) {
    out.extend_from_slice(&gid.to_le_bytes());
    push_particle(out, ps, i);
}

/// Decode tagged records, handing each to `f(gid, single-particle set)`.
pub fn read_tagged_particles(data: &[u8], mut f: impl FnMut(u64, &[u8])) {
    const REC: usize = 8 + PARTICLE_REC;
    assert_eq!(data.len() % REC, 0, "ragged tagged payload");
    for rec in data.chunks_exact(REC) {
        let gid = u64::from_le_bytes(rec[..8].try_into().unwrap());
        f(gid, &rec[8..]);
    }
}

/// The non-empty entries of a per-destination payload vector, as the
/// ascending `(dst, payload)` send list of `Comm::alltoallv`.
pub(crate) fn non_empty(payloads: Vec<Vec<u8>>) -> Vec<(usize, Vec<u8>)> {
    payloads
        .into_iter()
        .enumerate()
        .filter(|(_, p)| !p.is_empty())
        .collect()
}

/// Encode refinement flags (`[z,y,x]` cell triples).
pub fn encode_flags(flags: &[[u64; 3]]) -> Vec<u8> {
    let mut out = Vec::with_capacity(flags.len() * 24);
    for f in flags {
        for v in f {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    out
}

pub fn decode_flags(data: &[u8]) -> Vec<[u64; 3]> {
    assert_eq!(data.len() % 24, 0);
    data.chunks_exact(24)
        .map(|c| {
            [
                u64::from_le_bytes(c[..8].try_into().unwrap()),
                u64::from_le_bytes(c[8..16].try_into().unwrap()),
                u64::from_le_bytes(c[16..24].try_into().unwrap()),
            ]
        })
        .collect()
}

/// Serialize the hierarchy (for the checkpoint metadata block).
pub fn encode_hierarchy(h: &Hierarchy, time: f64, cycle: u64) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&time.to_le_bytes());
    out.extend_from_slice(&cycle.to_le_bytes());
    out.extend_from_slice(&(h.grids.len() as u64).to_le_bytes());
    for g in &h.grids {
        out.extend_from_slice(&g.id.to_le_bytes());
        out.push(g.level);
        for v in g.bbox.lo.iter().chain(g.bbox.hi.iter()) {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&g.parent.map(|p| p + 1).unwrap_or(0).to_le_bytes());
        out.extend_from_slice(&(g.owner as u64).to_le_bytes());
        out.extend_from_slice(&g.nparticles.to_le_bytes());
    }
    out
}

pub fn decode_hierarchy(data: &[u8]) -> (Hierarchy, f64, u64) {
    let mut p = 0usize;
    let mut rd = |n: usize| {
        let s = &data[p..p + n];
        p += n;
        s
    };
    let time = f64::from_le_bytes(rd(8).try_into().unwrap());
    let cycle = u64::from_le_bytes(rd(8).try_into().unwrap());
    let count = u64::from_le_bytes(rd(8).try_into().unwrap());
    let mut h = Hierarchy::new();
    for _ in 0..count {
        let id = u64::from_le_bytes(rd(8).try_into().unwrap());
        let level = rd(1)[0];
        let mut vals = [0u64; 6];
        for v in vals.iter_mut() {
            *v = u64::from_le_bytes(rd(8).try_into().unwrap());
        }
        let parent_raw = u64::from_le_bytes(rd(8).try_into().unwrap());
        let owner = u64::from_le_bytes(rd(8).try_into().unwrap()) as usize;
        let nparticles = u64::from_le_bytes(rd(8).try_into().unwrap());
        h.add(GridMeta {
            id,
            level,
            bbox: CellBox::new([vals[0], vals[1], vals[2]], [vals[3], vals[4], vals[5]]),
            parent: parent_raw.checked_sub(1),
            owner,
            nparticles,
        });
    }
    (h, time, cycle)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn particle_record_roundtrip() {
        let mut ps = ParticleSet::new();
        ps.push(42, [0.1, 0.2, 0.3], [1.0, -2.0, 3.0], 0.25, [9.0, -9.0]);
        ps.push(-7, [0.9, 0.8, 0.7], [0.0, 0.0, 0.5], 1.5, [0.0, 1.0]);
        let mut buf = Vec::new();
        push_particle(&mut buf, &ps, 0);
        push_particle(&mut buf, &ps, 1);
        assert_eq!(buf.len(), 2 * PARTICLE_REC);
        let mut out = ParticleSet::new();
        read_particles(&buf, &mut out);
        assert_eq!(out, ps);
    }

    #[test]
    fn tagged_records_carry_grid_ids() {
        let mut ps = ParticleSet::new();
        ps.push(1, [0.5; 3], [0.0; 3], 1.0, [0.0, 0.0]);
        let mut buf = Vec::new();
        push_tagged_particle(&mut buf, 77, &ps, 0);
        push_tagged_particle(&mut buf, 78, &ps, 0);
        let mut seen = Vec::new();
        read_tagged_particles(&buf, |gid, rec| {
            assert_eq!(rec.len(), PARTICLE_REC);
            seen.push(gid);
        });
        assert_eq!(seen, vec![77, 78]);
    }

    #[test]
    fn flags_roundtrip() {
        let flags = vec![[1, 2, 3], [9, 8, 7], [0, 0, 0]];
        assert_eq!(decode_flags(&encode_flags(&flags)), flags);
    }

    #[test]
    fn hierarchy_roundtrip() {
        let mut h = Hierarchy::new();
        h.add(GridMeta {
            id: 0,
            level: 0,
            bbox: CellBox::cube(64),
            parent: None,
            owner: 0,
            nparticles: 1000,
        });
        h.add(GridMeta {
            id: 5,
            level: 1,
            bbox: CellBox::new([2, 4, 6], [10, 12, 14]),
            parent: Some(0),
            owner: 3,
            nparticles: 17,
        });
        let bytes = encode_hierarchy(&h, 13.5, 42);
        let (h2, t, c) = decode_hierarchy(&bytes);
        assert_eq!(h2, h);
        assert_eq!(t, 13.5);
        assert_eq!(c, 42);
    }
}
