//! Grid patches and the replicated hierarchy metadata.

use crate::array::Array3;
use crate::particles::ParticleSet;

/// The baryon field datasets every grid carries, in their fixed file
/// order (paper §3.1).
pub const BARYON_FIELDS: [&str; 7] = [
    "density",
    "total_energy",
    "velocity_x",
    "velocity_y",
    "velocity_z",
    "temperature",
    "dark_matter",
];

pub const NUM_FIELDS: usize = BARYON_FIELDS.len();

/// An axis-aligned box of cell indices `[lo, hi)` at some level's
/// resolution, ordered (z, y, x).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CellBox {
    pub lo: [u64; 3],
    pub hi: [u64; 3],
}

impl CellBox {
    pub fn new(lo: [u64; 3], hi: [u64; 3]) -> CellBox {
        for d in 0..3 {
            assert!(lo[d] <= hi[d], "degenerate box {lo:?}..{hi:?}");
        }
        CellBox { lo, hi }
    }

    pub fn cube(n: u64) -> CellBox {
        CellBox::new([0; 3], [n; 3])
    }

    pub fn size(&self) -> [u64; 3] {
        [
            self.hi[0] - self.lo[0],
            self.hi[1] - self.lo[1],
            self.hi[2] - self.lo[2],
        ]
    }

    pub fn cells(&self) -> u64 {
        self.size().iter().product()
    }

    pub fn is_empty(&self) -> bool {
        self.cells() == 0
    }

    pub fn contains(&self, p: [u64; 3]) -> bool {
        (0..3).all(|d| p[d] >= self.lo[d] && p[d] < self.hi[d])
    }

    pub fn intersect(&self, o: &CellBox) -> Option<CellBox> {
        let lo = std::array::from_fn(|d| self.lo[d].max(o.lo[d]));
        let hi = std::array::from_fn(|d| self.hi[d].min(o.hi[d]));
        (0..3).all(|d| lo[d] < hi[d]).then_some(CellBox { lo, hi })
    }

    /// The same region at the next finer level (refinement factor 2).
    pub fn refined(&self) -> CellBox {
        CellBox {
            lo: self.lo.map(|v| v * 2),
            hi: self.hi.map(|v| v * 2),
        }
    }
}

/// One AMR grid patch: a box of cells at some refinement level plus its
/// field and particle data.
#[derive(Clone, Debug, PartialEq)]
pub struct GridPatch {
    pub id: u64,
    pub level: u8,
    /// Cell extents at this level's resolution.
    pub bbox: CellBox,
    /// One array per entry of [`BARYON_FIELDS`].
    pub fields: Vec<Array3>,
    pub particles: ParticleSet,
}

impl GridPatch {
    pub fn new(id: u64, level: u8, bbox: CellBox) -> GridPatch {
        let s = bbox.size();
        let dims = [s[0] as usize, s[1] as usize, s[2] as usize];
        GridPatch {
            id,
            level,
            bbox,
            fields: (0..NUM_FIELDS).map(|_| Array3::zeros(dims)).collect(),
            particles: ParticleSet::new(),
        }
    }

    pub fn dims(&self) -> [usize; 3] {
        let s = self.bbox.size();
        [s[0] as usize, s[1] as usize, s[2] as usize]
    }

    pub fn field(&self, i: usize) -> &Array3 {
        &self.fields[i]
    }

    pub fn field_by_name(&self, name: &str) -> &Array3 {
        let i = BARYON_FIELDS
            .iter()
            .position(|n| *n == name)
            .unwrap_or_else(|| panic!("unknown field {name:?}"));
        &self.fields[i]
    }

    /// Total bytes of field + particle payload (what a dump moves).
    pub fn payload_bytes(&self) -> u64 {
        let field_bytes = self.bbox.cells() * 4 * NUM_FIELDS as u64;
        field_bytes + self.particles.total_bytes()
    }
}

/// Replicated metadata for one grid in the hierarchy.
#[derive(Clone, Debug, PartialEq)]
pub struct GridMeta {
    pub id: u64,
    pub level: u8,
    pub bbox: CellBox,
    pub parent: Option<u64>,
    /// Which rank stores the grid's data (the hierarchy itself is
    /// replicated on all processors — paper Fig. 3).
    pub owner: usize,
    pub nparticles: u64,
}

/// The grid hierarchy: a tree of metadata replicated everywhere.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Hierarchy {
    pub grids: Vec<GridMeta>,
}

impl Hierarchy {
    pub fn new() -> Hierarchy {
        Hierarchy::default()
    }

    pub fn add(&mut self, meta: GridMeta) {
        debug_assert!(self.find(meta.id).is_none(), "duplicate grid id");
        self.grids.push(meta);
    }

    pub fn find(&self, id: u64) -> Option<&GridMeta> {
        self.grids.iter().find(|g| g.id == id)
    }

    pub fn at_level(&self, level: u8) -> impl Iterator<Item = &GridMeta> {
        self.grids.iter().filter(move |g| g.level == level)
    }

    pub fn children_of(&self, id: u64) -> impl Iterator<Item = &GridMeta> {
        self.grids.iter().filter(move |g| g.parent == Some(id))
    }

    pub fn max_level(&self) -> u8 {
        self.grids.iter().map(|g| g.level).max().unwrap_or(0)
    }

    pub fn owned_by(&self, rank: usize) -> impl Iterator<Item = &GridMeta> {
        self.grids.iter().filter(move |g| g.owner == rank)
    }

    pub fn total_cells(&self) -> u64 {
        self.grids.iter().map(|g| g.bbox.cells()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cellbox_geometry() {
        let b = CellBox::new([0, 2, 4], [4, 6, 8]);
        assert_eq!(b.size(), [4, 4, 4]);
        assert_eq!(b.cells(), 64);
        assert!(b.contains([0, 2, 4]));
        assert!(!b.contains([4, 2, 4]));
        let c = CellBox::new([2, 0, 0], [6, 4, 6]);
        let i = b.intersect(&c).unwrap();
        assert_eq!(i, CellBox::new([2, 2, 4], [4, 4, 6]));
        assert!(b
            .intersect(&CellBox::new([10, 10, 10], [11, 11, 11]))
            .is_none());
    }

    #[test]
    fn refined_doubles() {
        let b = CellBox::new([1, 2, 3], [2, 4, 6]);
        assert_eq!(b.refined(), CellBox::new([2, 4, 6], [4, 8, 12]));
    }

    #[test]
    fn patch_has_all_fields() {
        let p = GridPatch::new(0, 0, CellBox::cube(8));
        assert_eq!(p.fields.len(), 7);
        assert_eq!(p.dims(), [8, 8, 8]);
        assert_eq!(p.payload_bytes(), 8 * 8 * 8 * 4 * 7);
        assert_eq!(p.field_by_name("density").len(), 512);
    }

    #[test]
    fn hierarchy_queries() {
        let mut h = Hierarchy::new();
        h.add(GridMeta {
            id: 0,
            level: 0,
            bbox: CellBox::cube(8),
            parent: None,
            owner: 0,
            nparticles: 10,
        });
        h.add(GridMeta {
            id: 1,
            level: 1,
            bbox: CellBox::new([2, 2, 2], [6, 6, 6]),
            parent: Some(0),
            owner: 1,
            nparticles: 4,
        });
        assert_eq!(h.at_level(1).count(), 1);
        assert_eq!(h.children_of(0).next().unwrap().id, 1);
        assert_eq!(h.max_level(), 1);
        assert_eq!(h.owned_by(1).count(), 1);
        assert_eq!(h.total_cells(), 512 + 64);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn bad_box_panics() {
        CellBox::new([1, 0, 0], [0, 1, 1]);
    }
}
