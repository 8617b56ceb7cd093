//! MPI derived datatypes and their flattening to `(offset, length)` lists.
//!
//! The paper's regular access pattern — a `(Block, Block, Block)`
//! partition of a 3-D array — is expressed as a [`Datatype::Subarray`]
//! file view, exactly like `MPI_Type_create_subarray` + `MPI_File_set_view`
//! in the MPI-IO version of ENZO. Flattening a datatype yields the sorted,
//! coalesced list of contiguous file runs that the I/O layer (independent,
//! sieved or two-phase collective) operates on.

use std::ops::Range;

/// A (byte offset, byte length) contiguous run, relative to the datatype
/// origin.
pub type Region = (u64, u64);

/// MPI-like derived datatypes, in bytes (the elementary type is opaque —
/// callers track element width themselves, as `etype` does in MPI-IO).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Datatype {
    /// `len` contiguous bytes.
    Bytes(u64),
    /// `count` repetitions of `child`, each at the child's extent.
    Contiguous { count: u64, child: Box<Datatype> },
    /// `count` blocks of `blocklen` children, strided by `stride` children
    /// (like `MPI_Type_vector`).
    Vector {
        count: u64,
        blocklen: u64,
        stride: u64,
        child: Box<Datatype>,
    },
    /// An n-dimensional subarray of an n-dimensional array in row-major
    /// order (last dimension varies fastest), with `elem` bytes per
    /// element — `MPI_Type_create_subarray`.
    Subarray {
        dims: Vec<u64>,
        starts: Vec<u64>,
        subsizes: Vec<u64>,
        elem: u64,
    },
    /// Explicit byte blocks at absolute displacements
    /// (`MPI_Type_create_hindexed`).
    Hindexed { blocks: Vec<Region> },
}

impl Datatype {
    /// A 3-D subarray helper (the shape ENZO's baryon fields use).
    pub fn subarray3(dims: [u64; 3], starts: [u64; 3], subsizes: [u64; 3], elem: u64) -> Datatype {
        Datatype::Subarray {
            dims: dims.to_vec(),
            starts: starts.to_vec(),
            subsizes: subsizes.to_vec(),
            elem,
        }
    }

    /// Number of data bytes the type selects.
    pub fn size(&self) -> u64 {
        match self {
            Datatype::Bytes(n) => *n,
            Datatype::Contiguous { count, child } => count * child.size(),
            Datatype::Vector {
                count,
                blocklen,
                child,
                ..
            } => count * blocklen * child.size(),
            Datatype::Subarray { subsizes, elem, .. } => subsizes.iter().product::<u64>() * elem,
            Datatype::Hindexed { blocks } => blocks.iter().map(|(_, l)| l).sum(),
        }
    }

    /// Span from the first to one past the last selected byte.
    pub fn extent(&self) -> u64 {
        match self {
            Datatype::Bytes(n) => *n,
            Datatype::Contiguous { count, child } => count * child.extent(),
            Datatype::Vector {
                count,
                blocklen,
                stride,
                child,
            } => {
                if *count == 0 {
                    0
                } else {
                    ((count - 1) * stride + blocklen) * child.extent()
                }
            }
            Datatype::Subarray { dims, elem, .. } => dims.iter().product::<u64>() * elem,
            Datatype::Hindexed { blocks } => blocks.iter().map(|(o, l)| o + l).max().unwrap_or(0),
        }
    }

    /// Flatten to a sorted, coalesced list of contiguous runs.
    pub fn flatten(&self) -> Vec<Region> {
        let mut out: Vec<Region> = self.regions().collect();
        normalize(&mut out);
        out
    }

    /// Flatten in generation order without sorting or coalescing (one
    /// run per innermost row) — for callers that pair runs of two types
    /// positionally, e.g. chunk-local vs selection-local traversals.
    pub fn flatten_raw(&self) -> Vec<Region> {
        self.regions().collect()
    }

    /// Lazily enumerate the contiguous runs this type selects, in
    /// generation order (one run per innermost subarray row). This is
    /// the single footprint-enumeration primitive: the runtime file-view
    /// path collects it into `flatten`/`flatten_raw`, and the static
    /// planner walks it directly. The iterator is pure and
    /// allocation-light — a small frame stack plus one odometer per
    /// subarray level, nothing proportional to the run count.
    pub fn regions(&self) -> Regions<'_> {
        Regions {
            stack: vec![Frame::Node { ty: self, base: 0 }],
        }
    }
}

/// Iterator over the contiguous runs of a [`Datatype`], in generation
/// order. Produced by [`Datatype::regions`].
pub struct Regions<'a> {
    stack: Vec<Frame<'a>>,
}

enum Frame<'a> {
    /// An unexpanded type at an absolute byte base.
    Node { ty: &'a Datatype, base: u64 },
    /// Repetitions `i..count` of `child` at `base + i * ext`.
    Rep {
        child: &'a Datatype,
        base: u64,
        ext: u64,
        i: u64,
        count: u64,
    },
    /// Vector traversal state: block `i`, element-in-block `j`.
    Strided {
        child: &'a Datatype,
        base: u64,
        ext: u64,
        count: u64,
        blocklen: u64,
        stride: u64,
        i: u64,
        j: u64,
    },
    /// Subarray odometer over the outer dimensions.
    Sub(SubFrame<'a>),
    /// Hindexed blocks from index `i` on.
    Hind {
        blocks: &'a [Region],
        base: u64,
        i: usize,
    },
}

struct SubFrame<'a> {
    base: u64,
    elem: u64,
    /// Bytes per innermost row.
    run: u64,
    /// Element offset of the row start in the innermost dimension.
    row0: u64,
    /// Row strides in elements for dims `0..ndim-1`.
    strides: Vec<u64>,
    starts: &'a [u64],
    subsizes: &'a [u64],
    idx: Vec<u64>,
}

impl Iterator for Regions<'_> {
    type Item = Region;

    fn next(&mut self) -> Option<Region> {
        loop {
            match self.stack.pop()? {
                Frame::Node { ty, base } => match ty {
                    Datatype::Bytes(n) => {
                        if *n > 0 {
                            return Some((base, *n));
                        }
                    }
                    Datatype::Contiguous { count, child } => {
                        if *count > 0 {
                            self.stack.push(Frame::Rep {
                                child,
                                base,
                                ext: child.extent(),
                                i: 0,
                                count: *count,
                            });
                        }
                    }
                    Datatype::Vector {
                        count,
                        blocklen,
                        stride,
                        child,
                    } => {
                        if *count > 0 && *blocklen > 0 {
                            self.stack.push(Frame::Strided {
                                child,
                                base,
                                ext: child.extent(),
                                count: *count,
                                blocklen: *blocklen,
                                stride: *stride,
                                i: 0,
                                j: 0,
                            });
                        }
                    }
                    Datatype::Subarray {
                        dims,
                        starts,
                        subsizes,
                        elem,
                    } => {
                        assert_eq!(dims.len(), starts.len());
                        assert_eq!(dims.len(), subsizes.len());
                        for (d, (s, z)) in dims.iter().zip(starts.iter().zip(subsizes)) {
                            assert!(s + z <= *d, "subarray exceeds array bounds");
                        }
                        if !subsizes.contains(&0) {
                            let ndim = dims.len();
                            // Row strides in elements.
                            let mut strides = vec![1u64; ndim];
                            for i in (0..ndim - 1).rev() {
                                strides[i] = strides[i + 1] * dims[i + 1];
                            }
                            self.stack.push(Frame::Sub(SubFrame {
                                base,
                                elem: *elem,
                                run: subsizes[ndim - 1] * elem,
                                row0: starts[ndim - 1],
                                strides,
                                starts,
                                subsizes,
                                idx: vec![0u64; ndim - 1],
                            }));
                        }
                    }
                    Datatype::Hindexed { blocks } => {
                        self.stack.push(Frame::Hind { blocks, base, i: 0 });
                    }
                },
                Frame::Rep {
                    child,
                    base,
                    ext,
                    i,
                    count,
                } => {
                    if i + 1 < count {
                        self.stack.push(Frame::Rep {
                            child,
                            base,
                            ext,
                            i: i + 1,
                            count,
                        });
                    }
                    self.stack.push(Frame::Node {
                        ty: child,
                        base: base + i * ext,
                    });
                }
                Frame::Strided {
                    child,
                    base,
                    ext,
                    count,
                    blocklen,
                    stride,
                    i,
                    j,
                } => {
                    let (ni, nj) = if j + 1 < blocklen {
                        (i, j + 1)
                    } else {
                        (i + 1, 0)
                    };
                    if ni < count {
                        self.stack.push(Frame::Strided {
                            child,
                            base,
                            ext,
                            count,
                            blocklen,
                            stride,
                            i: ni,
                            j: nj,
                        });
                    }
                    self.stack.push(Frame::Node {
                        ty: child,
                        base: base + (i * stride + j) * ext,
                    });
                }
                Frame::Sub(mut f) => {
                    let mut off = f.row0;
                    for i in 0..f.idx.len() {
                        off += (f.starts[i] + f.idx[i]) * f.strides[i];
                    }
                    let item = (f.base + off * f.elem, f.run);
                    // Increment the odometer; drop the frame on wrap.
                    let mut i = f.idx.len().wrapping_sub(1);
                    loop {
                        if i == usize::MAX {
                            break;
                        }
                        f.idx[i] += 1;
                        if f.idx[i] < f.subsizes[i] {
                            self.stack.push(Frame::Sub(f));
                            break;
                        }
                        f.idx[i] = 0;
                        i = i.wrapping_sub(1);
                    }
                    return Some(item);
                }
                Frame::Hind { blocks, base, i } => {
                    for k in i..blocks.len() {
                        let (o, l) = blocks[k];
                        if l > 0 {
                            if k + 1 < blocks.len() {
                                self.stack.push(Frame::Hind {
                                    blocks,
                                    base,
                                    i: k + 1,
                                });
                            }
                            return Some((base + o, l));
                        }
                    }
                }
            }
        }
    }
}

/// Sort regions and merge adjacent/overlapping runs.
pub fn normalize(regions: &mut Vec<Region>) {
    regions.sort_unstable();
    let mut w = 0;
    for i in 0..regions.len() {
        if w > 0 && regions[w - 1].0 + regions[w - 1].1 >= regions[i].0 {
            let end = (regions[i].0 + regions[i].1).max(regions[w - 1].0 + regions[w - 1].1);
            regions[w - 1].1 = end - regions[w - 1].0;
        } else {
            regions[w] = regions[i];
            w += 1;
        }
    }
    regions.truncate(w);
}

/// Position of each region's first byte in a buffer that packs the
/// regions back to back.
pub(crate) fn buffer_positions(regions: &[Region]) -> Vec<u64> {
    let mut pos = Vec::with_capacity(regions.len());
    let mut acc = 0;
    for (_, l) in regions {
        pos.push(acc);
        acc += l;
    }
    pos
}

/// Intersect `regions` (with running buffer positions) against `[ds, de)`;
/// yields (file offset, buffer range) pairs.
pub(crate) fn intersect<'r>(
    regions: &'r [Region],
    buf_pos: &'r [u64],
    ds: u64,
    de: u64,
) -> impl Iterator<Item = (u64, Range<usize>)> + 'r {
    regions
        .iter()
        .zip(buf_pos)
        .filter_map(move |(&(off, len), &bp)| {
            let s = off.max(ds);
            let e = (off + len).min(de);
            (e > s).then(|| {
                let b0 = (bp + (s - off)) as usize;
                (s, b0..b0 + (e - s) as usize)
            })
        })
}

/// The collective-buffering walk: each covered span cut into requests
/// of at most `cb` bytes, as `(offset, len)`.
pub(crate) fn cb_windows(covered: &[Region], cb: u64) -> impl Iterator<Item = Region> + '_ {
    covered.iter().flat_map(move |&(off, len)| {
        let end = off + len;
        (off..end)
            .step_by(cb as usize)
            .map(move |o| (o, cb.min(end - o)))
    })
}

/// The data-sieving walk over ascending `regions`: windows of at most
/// `sieve` bytes from the first run to the end of the last. A window
/// that no run intersects is skipped by jumping to the next run. Yields
/// each window as `(offset, len)` with the index of the first run not
/// wholly before it.
pub(crate) fn sieve_windows(
    regions: &[Region],
    sieve: u64,
) -> impl Iterator<Item = (Region, usize)> + '_ {
    let span_end = regions.iter().map(|(o, l)| o + l).max().unwrap_or(0);
    let mut win = regions.first().map_or(0, |r| r.0);
    let mut ri = 0usize;
    std::iter::from_fn(move || {
        while win < span_end {
            let wlen = sieve.min(span_end - win);
            while ri < regions.len() && regions[ri].0 + regions[ri].1 <= win {
                ri += 1;
            }
            if ri >= regions.len() {
                return None;
            }
            if regions[ri].0 >= win + wlen {
                win = regions[ri].0;
                continue;
            }
            let w = (win, wlen);
            win += wlen;
            return Some((w, ri));
        }
        None
    })
}

/// The runs of ascending `regions` from index `ri` that intersect
/// window `(win, wlen)`: yields (offset in the window, buffer range).
pub(crate) fn window_runs<'r>(
    regions: &'r [Region],
    buf_pos: &'r [u64],
    (win, wlen): Region,
    ri: usize,
) -> impl Iterator<Item = (usize, Range<usize>)> + 'r {
    let end = win + wlen;
    let n = ri + regions[ri..].partition_point(|r| r.0 < end);
    intersect(&regions[ri..n], &buf_pos[ri..n], win, end).map(move |(s, b)| ((s - win) as usize, b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_flatten() {
        assert_eq!(Datatype::Bytes(10).flatten(), vec![(0, 10)]);
        assert_eq!(Datatype::Bytes(0).flatten(), vec![]);
    }

    #[test]
    fn contiguous_coalesces() {
        let t = Datatype::Contiguous {
            count: 3,
            child: Box::new(Datatype::Bytes(4)),
        };
        assert_eq!(t.size(), 12);
        assert_eq!(t.extent(), 12);
        assert_eq!(t.flatten(), vec![(0, 12)]);
    }

    #[test]
    fn vector_strides() {
        let t = Datatype::Vector {
            count: 3,
            blocklen: 2,
            stride: 4,
            child: Box::new(Datatype::Bytes(1)),
        };
        assert_eq!(t.size(), 6);
        assert_eq!(t.extent(), 10);
        assert_eq!(t.flatten(), vec![(0, 2), (4, 2), (8, 2)]);
    }

    #[test]
    fn subarray3_runs_match_row_major() {
        // 4x4x4 array, take the [1..3, 1..3, 1..3] cube of u32.
        let t = Datatype::subarray3([4, 4, 4], [1, 1, 1], [2, 2, 2], 4);
        assert_eq!(t.size(), 32);
        let f = t.flatten();
        assert_eq!(f.len(), 4); // 2 z-planes x 2 y-rows
        assert_eq!(f[0], (((16 + 4 + 1) * 4), 8));
        assert_eq!(f[1], (((16 + 2 * 4 + 1) * 4), 8));
        assert_eq!(f[2], (((2 * 16 + 4 + 1) * 4), 8));
    }

    #[test]
    fn full_rows_coalesce_into_planes() {
        // Taking entire y and x ranges collapses each z-plane to one run.
        let t = Datatype::subarray3([4, 4, 4], [1, 0, 0], [2, 4, 4], 8);
        let f = t.flatten();
        assert_eq!(f, vec![(16 * 8, 2 * 16 * 8)]);
    }

    #[test]
    fn hindexed_sorted_and_merged() {
        let t = Datatype::Hindexed {
            blocks: vec![(10, 5), (0, 4), (15, 5), (4, 2)],
        };
        assert_eq!(t.flatten(), vec![(0, 6), (10, 10)]);
        assert_eq!(t.size(), 16);
        assert_eq!(t.extent(), 20);
    }

    #[test]
    fn subarray_total_bytes_match_flatten_sum() {
        let t = Datatype::subarray3([8, 6, 10], [2, 1, 3], [3, 4, 5], 4);
        let sum: u64 = t.flatten().iter().map(|(_, l)| l).sum();
        assert_eq!(sum, t.size());
        assert_eq!(sum, 3 * 4 * 5 * 4);
    }

    #[test]
    fn degenerate_subarray_is_empty() {
        let t = Datatype::subarray3([4, 4, 4], [0, 0, 0], [0, 4, 4], 4);
        assert_eq!(t.flatten(), vec![]);
        assert_eq!(t.size(), 0);
    }

    #[test]
    fn one_dimensional_subarray() {
        let t = Datatype::Subarray {
            dims: vec![100],
            starts: vec![25],
            subsizes: vec![50],
            elem: 8,
        };
        assert_eq!(t.flatten(), vec![(200, 400)]);
    }

    #[test]
    fn normalize_merges_overlaps() {
        let mut r = vec![(0, 10), (5, 10), (20, 5)];
        normalize(&mut r);
        assert_eq!(r, vec![(0, 15), (20, 5)]);
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Random nested datatype with small counts; subarrays are kept
    /// in-bounds by construction.
    fn gen_type(rng: &mut u64, depth: u32) -> Datatype {
        let pick = if depth == 0 { 0 } else { splitmix(rng) % 5 };
        match pick {
            0 => Datatype::Bytes(splitmix(rng) % 9),
            1 => Datatype::Contiguous {
                count: splitmix(rng) % 4,
                child: Box::new(gen_type(rng, depth - 1)),
            },
            2 => {
                let blocklen = splitmix(rng) % 3;
                Datatype::Vector {
                    count: splitmix(rng) % 4,
                    blocklen,
                    stride: blocklen + splitmix(rng) % 3,
                    child: Box::new(gen_type(rng, depth - 1)),
                }
            }
            3 => {
                let ndim = 1 + (splitmix(rng) % 3) as usize;
                let mut dims = Vec::new();
                let mut starts = Vec::new();
                let mut subsizes = Vec::new();
                for _ in 0..ndim {
                    let d = 1 + splitmix(rng) % 6;
                    let z = splitmix(rng) % (d + 1);
                    let s = splitmix(rng) % (d - z + 1);
                    dims.push(d);
                    starts.push(s);
                    subsizes.push(z);
                }
                Datatype::Subarray {
                    dims,
                    starts,
                    subsizes,
                    elem: 1 + splitmix(rng) % 8,
                }
            }
            _ => {
                let n = splitmix(rng) % 4;
                let blocks = (0..n)
                    .map(|_| (splitmix(rng) % 64, splitmix(rng) % 9))
                    .collect();
                Datatype::Hindexed { blocks }
            }
        }
    }

    /// Direct recursive enumeration, mirroring the datatype spec — the
    /// oracle the shared iterator is checked against.
    fn reference_flatten(t: &Datatype, base: u64, out: &mut Vec<Region>) {
        match t {
            Datatype::Bytes(n) => {
                if *n > 0 {
                    out.push((base, *n));
                }
            }
            Datatype::Contiguous { count, child } => {
                for i in 0..*count {
                    reference_flatten(child, base + i * child.extent(), out);
                }
            }
            Datatype::Vector {
                count,
                blocklen,
                stride,
                child,
            } => {
                for i in 0..*count {
                    for j in 0..*blocklen {
                        reference_flatten(child, base + (i * stride + j) * child.extent(), out);
                    }
                }
            }
            Datatype::Subarray {
                dims,
                starts,
                subsizes,
                elem,
            } => {
                if subsizes.contains(&0) {
                    return;
                }
                let ndim = dims.len();
                let run = subsizes[ndim - 1] * elem;
                // Enumerate outer index tuples by counting in mixed radix.
                let outer: u64 = subsizes[..ndim - 1].iter().product();
                for mut k in 0..outer {
                    let mut off = starts[ndim - 1];
                    for i in (0..ndim - 1).rev() {
                        let idx = k % subsizes[i];
                        k /= subsizes[i];
                        let stride: u64 = dims[i + 1..].iter().product();
                        off += (starts[i] + idx) * stride;
                    }
                    out.push((base + off * elem, run));
                }
            }
            Datatype::Hindexed { blocks } => {
                for (o, l) in blocks {
                    if *l > 0 {
                        out.push((base + o, *l));
                    }
                }
            }
        }
    }

    #[test]
    fn prop_region_iterator_matches_reference_and_size() {
        let mut rng = 0x1af0_2002_0919_cafe;
        for round in 0..500 {
            let t = gen_type(&mut rng, 3);
            let mut want = Vec::new();
            reference_flatten(&t, 0, &mut want);
            let got: Vec<Region> = t.regions().collect();
            assert_eq!(got, want, "round {round}: {t:?}");
            assert_eq!(t.flatten_raw(), want, "round {round}: {t:?}");
            let sum: u64 = got.iter().map(|(_, l)| l).sum();
            assert_eq!(sum, t.size(), "round {round}: {t:?}");
            // The runtime view path (sorted, coalesced) must select the
            // same byte set the planner's raw enumeration does.
            let mut norm = want.clone();
            normalize(&mut norm);
            let flat = t.flatten();
            assert_eq!(flat, norm, "round {round}: {t:?}");
            flat.windows(2)
                .for_each(|w| assert!(w[0].0 + w[0].1 < w[1].0, "not coalesced: {flat:?}"));
        }
    }
}

/// Elementary numeric types stored in the scientific file formats.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NumType {
    F32,
    F64,
    I32,
    I64,
    U8,
}

impl NumType {
    pub fn size(self) -> u64 {
        match self {
            NumType::F32 | NumType::I32 => 4,
            NumType::F64 | NumType::I64 => 8,
            NumType::U8 => 1,
        }
    }

    pub fn code(self) -> u8 {
        match self {
            NumType::F32 => 0,
            NumType::F64 => 1,
            NumType::I32 => 2,
            NumType::I64 => 3,
            NumType::U8 => 4,
        }
    }

    pub fn from_code(c: u8) -> NumType {
        match c {
            0 => NumType::F32,
            1 => NumType::F64,
            2 => NumType::I32,
            3 => NumType::I64,
            4 => NumType::U8,
            _ => panic!("bad NumType code {c}"),
        }
    }
}
