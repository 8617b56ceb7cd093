//! `amrio-hdf5` — a parallel HDF5-style library over the MPI-IO layer,
//! modeling the 2002-era NCSA release the paper benchmarked (§4.5).
//!
//! The library provides files, datasets with dataspaces, hyperslab
//! selections, attributes, and collective/independent transfer modes over
//! an MPI-IO "virtual file driver". Four overheads the paper blames for
//! HDF5's poor write performance are implemented as switchable mechanisms
//! in [`OverheadModel`], so Fig. 10 can be reproduced *and* decomposed:
//!
//! 1. **Internal synchronization** in collective dataset create/close
//!    (every rank barriers around each metadata update).
//! 2. **Metadata interleaved with raw data in the same file**: object
//!    headers are allocated inline, so raw data lands misaligned with
//!    respect to file system stripes (disable to align data to stripes).
//! 3. **Recursive hyperslab packing**: selections are traversed
//!    run-by-run with a per-run CPU charge much larger than raw MPI-IO's
//!    flattening cost, plus a pack memcpy.
//! 4. **Attributes written only by processor 0**, serializing every
//!    metadata decoration.
//!
//! On-file layout: a superblock at offset 0 (magic, catalog address/len,
//! eof), object headers and raw data allocated from a bump pointer, and a
//! serialized catalog written at close. Because dataset creation is
//! collective and deterministic, each rank maintains an identical catalog
//! replica; only rank 0's metadata *writes* are priced.

#![forbid(unsafe_code)]

use amrio_mpi::Comm;
use amrio_mpiio::{Datatype, Hints, Mode, MpiFile, MpiIo, NumType};
use amrio_simt::SimDur;

const MAGIC: &[u8; 4] = b"AH5\x01";
const SUPERBLOCK: u64 = 64;

/// Switchable models of the 2002-era overheads (all on by default).
#[derive(Clone, Copy, Debug)]
pub struct OverheadModel {
    /// Barrier around every collective dataset create/close.
    pub create_sync: bool,
    /// Allocate raw data right after its object header (misaligned);
    /// `false` aligns raw data to the file system stripe.
    pub metadata_inline: bool,
    /// Per-run CPU cost of the recursive hyperslab traversal, ns.
    pub hyperslab_ns_per_run: u64,
    /// Attributes can only be created/written by rank 0.
    pub rank0_attributes: bool,
}

impl Default for OverheadModel {
    fn default() -> OverheadModel {
        OverheadModel {
            create_sync: true,
            metadata_inline: true,
            hyperslab_ns_per_run: 2_500,
            rank0_attributes: true,
        }
    }
}

impl OverheadModel {
    /// A "fixed library" counterfactual with none of the 2002 overheads,
    /// for ablation benches.
    pub fn modern() -> OverheadModel {
        OverheadModel {
            create_sync: false,
            metadata_inline: false,
            hyperslab_ns_per_run: 150,
            rank0_attributes: false,
        }
    }
}

/// Transfer mode of a read/write (like `H5FD_MPIO_COLLECTIVE` /
/// `INDEPENDENT` in the data-transfer property list).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Xfer {
    Collective,
    Independent,
}

/// An n-dimensional hyperslab selection (start/count per dimension, unit
/// stride and block — the shape ENZO uses).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hyperslab {
    pub start: Vec<u64>,
    pub count: Vec<u64>,
}

impl Hyperslab {
    pub fn new(start: &[u64], count: &[u64]) -> Hyperslab {
        assert_eq!(start.len(), count.len());
        Hyperslab {
            start: start.to_vec(),
            count: count.to_vec(),
        }
    }

    /// Select the entire dataspace.
    pub fn all(dims: &[u64]) -> Hyperslab {
        Hyperslab {
            start: vec![0; dims.len()],
            count: dims.to_vec(),
        }
    }

    pub fn elements(&self) -> u64 {
        self.count.iter().product()
    }

    /// Number of contiguous runs the recursive traversal visits.
    fn runs(&self) -> u64 {
        if self.count.contains(&0) {
            return 0;
        }
        self.count[..self.count.len().saturating_sub(1)]
            .iter()
            .product::<u64>()
            .max(1)
    }
}

#[derive(Clone, Debug, PartialEq)]
struct DatasetMeta {
    name: String,
    numtype: NumType,
    dims: Vec<u64>,
    data_addr: u64,
    data_len: u64,
    /// Chunked storage: chunk shape plus one file address per chunk
    /// (row-major chunk grid). Empty = contiguous layout.
    chunk_dims: Vec<u64>,
    chunk_addrs: Vec<u64>,
}

impl DatasetMeta {
    fn is_chunked(&self) -> bool {
        !self.chunk_dims.is_empty()
    }

    /// Chunk-grid extent per dimension.
    fn chunk_grid(&self) -> Vec<u64> {
        self.dims
            .iter()
            .zip(&self.chunk_dims)
            .map(|(d, c)| d.div_ceil(*c))
            .collect()
    }
}

#[derive(Clone, Debug, PartialEq)]
struct AttrMeta {
    name: String,
    addr: u64,
    len: u64,
}

/// Handle to an open dataset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Dataset(usize);

/// An HDF5-style file opened collectively by every rank of the world.
pub struct H5File<'c, 'w> {
    file: MpiFile<'c, 'w>,
    comm: &'c Comm<'w>,
    /// Overhead model, bump allocator and catalog replica: the same
    /// state the static planner replays without a file.
    layout: LayoutOracle,
}

fn encode_catalog(datasets: &[DatasetMeta], attrs: &[AttrMeta]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(datasets.len() as u32).to_le_bytes());
    for d in datasets {
        out.extend_from_slice(&(d.name.len() as u16).to_le_bytes());
        out.extend_from_slice(d.name.as_bytes());
        out.push(d.numtype.code());
        out.push(d.dims.len() as u8);
        for x in &d.dims {
            out.extend_from_slice(&x.to_le_bytes());
        }
        out.extend_from_slice(&d.data_addr.to_le_bytes());
        out.extend_from_slice(&d.data_len.to_le_bytes());
        out.push(u8::from(d.is_chunked()));
        if d.is_chunked() {
            for c in &d.chunk_dims {
                out.extend_from_slice(&c.to_le_bytes());
            }
            out.extend_from_slice(&(d.chunk_addrs.len() as u32).to_le_bytes());
            for a in &d.chunk_addrs {
                out.extend_from_slice(&a.to_le_bytes());
            }
        }
    }
    out.extend_from_slice(&(attrs.len() as u32).to_le_bytes());
    for a in attrs {
        out.extend_from_slice(&(a.name.len() as u16).to_le_bytes());
        out.extend_from_slice(a.name.as_bytes());
        out.extend_from_slice(&a.addr.to_le_bytes());
        out.extend_from_slice(&a.len.to_le_bytes());
    }
    out
}

fn decode_catalog(data: &[u8]) -> (Vec<DatasetMeta>, Vec<AttrMeta>) {
    let mut p = 0usize;
    let rd_u16 = |p: &mut usize| {
        let v = u16::from_le_bytes(data[*p..*p + 2].try_into().unwrap());
        *p += 2;
        v
    };
    let rd_u32 = |p: &mut usize| {
        let v = u32::from_le_bytes(data[*p..*p + 4].try_into().unwrap());
        *p += 4;
        v
    };
    let rd_u64 = |p: &mut usize| {
        let v = u64::from_le_bytes(data[*p..*p + 8].try_into().unwrap());
        *p += 8;
        v
    };
    let nd = rd_u32(&mut p) as usize;
    let mut datasets = Vec::with_capacity(nd);
    for _ in 0..nd {
        let nl = rd_u16(&mut p) as usize;
        let name = String::from_utf8(data[p..p + nl].to_vec()).unwrap();
        p += nl;
        let numtype = NumType::from_code(data[p]);
        p += 1;
        let rank = data[p] as usize;
        p += 1;
        let dims: Vec<u64> = (0..rank).map(|_| rd_u64(&mut p)).collect();
        let data_addr = rd_u64(&mut p);
        let data_len = rd_u64(&mut p);
        let chunked = data[p] != 0;
        p += 1;
        let (chunk_dims, chunk_addrs) = if chunked {
            let cd: Vec<u64> = (0..rank).map(|_| rd_u64(&mut p)).collect();
            let n = rd_u32(&mut p) as usize;
            let ca: Vec<u64> = (0..n).map(|_| rd_u64(&mut p)).collect();
            (cd, ca)
        } else {
            (Vec::new(), Vec::new())
        };
        datasets.push(DatasetMeta {
            name,
            numtype,
            dims,
            data_addr,
            data_len,
            chunk_dims,
            chunk_addrs,
        });
    }
    let na = rd_u32(&mut p) as usize;
    let mut attrs = Vec::with_capacity(na);
    for _ in 0..na {
        let nl = rd_u16(&mut p) as usize;
        let name = String::from_utf8(data[p..p + nl].to_vec()).unwrap();
        p += nl;
        let addr = rd_u64(&mut p);
        let len = rd_u64(&mut p);
        attrs.push(AttrMeta { name, addr, len });
    }
    (datasets, attrs)
}

/// Byte length of the fixed superblock at offset 0.
pub const SUPERBLOCK_LEN: u64 = SUPERBLOCK;

/// File extents one dataset creation reserves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DsExtent {
    pub header_addr: u64,
    pub header_len: u64,
    pub data_addr: u64,
    pub data_len: u64,
}

/// The [`H5File`] bump allocator and catalog replica. Dataset creation
/// is collective and deterministic, so at runtime every rank holds an
/// identical replica inside its [`H5File`]; the static planner holds the
/// same replica without a file, a communicator, or a clock. Replay
/// `create_dataset` / `write_attr` / `close` in the exact order the
/// application issues them and the returned addresses are the runtime's.
#[derive(Clone, Debug)]
pub struct LayoutOracle {
    model: OverheadModel,
    stripe: u64,
    eof: u64,
    datasets: Vec<DatasetMeta>,
    attrs: Vec<AttrMeta>,
}

impl LayoutOracle {
    /// `stripe` is the file system stripe the file would live on (used
    /// only when the model aligns raw data to stripes).
    pub fn new(model: OverheadModel, stripe: u64) -> LayoutOracle {
        LayoutOracle {
            model,
            stripe,
            eof: SUPERBLOCK,
            datasets: Vec::new(),
            attrs: Vec::new(),
        }
    }

    /// The replica of a file whose catalog was decoded at open: later
    /// allocations continue after the last dataset or attribute.
    fn from_catalog(model: OverheadModel, stripe: u64, catalog: &[u8]) -> LayoutOracle {
        let (datasets, attrs) = decode_catalog(catalog);
        let eof = datasets
            .iter()
            .map(|d| d.data_addr + d.data_len)
            .chain(attrs.iter().map(|a| a.addr + a.len))
            .max()
            .unwrap_or(SUPERBLOCK);
        LayoutOracle {
            model,
            stripe,
            eof,
            datasets,
            attrs,
        }
    }

    fn alloc(&mut self, len: u64, align_to_stripe: bool) -> u64 {
        let addr = if align_to_stripe {
            let s = self.stripe.max(1);
            self.eof.div_ceil(s) * s
        } else {
            self.eof
        };
        self.eof = addr + len;
        addr
    }

    /// Allocation of [`H5File::create_dataset`] (contiguous layout).
    pub fn create_dataset(&mut self, name: &str, numtype: NumType, dims: &[u64]) -> DsExtent {
        let header_len = 64 + name.len() as u64 + dims.len() as u64 * 8;
        let header_addr = self.alloc(header_len, false);
        let data_len = dims.iter().product::<u64>() * numtype.size();
        let data_addr = self.alloc(data_len, !self.model.metadata_inline);
        self.datasets.push(DatasetMeta {
            name: name.to_string(),
            numtype,
            dims: dims.to_vec(),
            data_addr,
            data_len,
            chunk_dims: Vec::new(),
            chunk_addrs: Vec::new(),
        });
        DsExtent {
            header_addr,
            header_len,
            data_addr,
            data_len,
        }
    }

    /// Allocation of [`H5File::write_attr`]: the attribute's file address.
    pub fn write_attr(&mut self, name: &str, len: u64) -> u64 {
        let addr = self.alloc(len, false);
        self.attrs.push(AttrMeta {
            name: name.to_string(),
            addr,
            len,
        });
        addr
    }

    /// Allocation of [`H5File::close`]: `(catalog_addr, catalog_len)`.
    pub fn close(&mut self) -> (u64, u64) {
        let (addr, catalog) = self.close_catalog();
        (addr, catalog.len() as u64)
    }

    /// Encode the catalog and allocate its space: `(address, bytes)`.
    fn close_catalog(&mut self) -> (u64, Vec<u8>) {
        let catalog = encode_catalog(&self.datasets, &self.attrs);
        let addr = self.alloc(catalog.len() as u64, false);
        (addr, catalog)
    }

    /// Current end-of-file of the simulated allocation stream.
    pub fn eof(&self) -> u64 {
        self.eof
    }
}

impl<'c, 'w> H5File<'c, 'w> {
    /// Collectively create a file (parallel access, MPI-IO driver).
    pub fn create(
        io: &MpiIo,
        comm: &'c Comm<'w>,
        path: &str,
        model: OverheadModel,
    ) -> H5File<'c, 'w> {
        let file = io.open(comm, path, Mode::Create);
        if comm.rank() == 0 {
            let mut sb = Vec::with_capacity(SUPERBLOCK as usize);
            sb.extend_from_slice(MAGIC);
            sb.resize(SUPERBLOCK as usize, 0);
            file.write_at(0, &sb);
        }
        comm.barrier();
        let layout = LayoutOracle::new(model, file.fs_stripe());
        H5File { file, comm, layout }
    }

    /// Collectively open an existing file: rank 0 reads the superblock and
    /// catalog, then broadcasts them.
    pub fn open(
        io: &MpiIo,
        comm: &'c Comm<'w>,
        path: &str,
        model: OverheadModel,
    ) -> H5File<'c, 'w> {
        let file = io.open(comm, path, Mode::Open);
        let catalog = if comm.rank() == 0 {
            let sb = file.read_at(0, SUPERBLOCK);
            assert_eq!(&sb[..4], MAGIC, "not an AH5 file: {path:?}");
            let cat_addr = u64::from_le_bytes(sb[4..12].try_into().unwrap());
            let cat_len = u64::from_le_bytes(sb[12..20].try_into().unwrap());
            assert!(cat_len > 0, "file was not closed: catalog missing");
            file.read_at(cat_addr, cat_len)
        } else {
            Vec::new()
        };
        let catalog = comm.bcast(0, catalog);
        let layout = LayoutOracle::from_catalog(model, file.fs_stripe(), &catalog);
        H5File { file, comm, layout }
    }

    pub fn set_hints(&mut self, hints: Hints) {
        self.file.set_hints(hints);
    }

    /// Collective dataset creation: allocates the object header and raw
    /// data space; rank 0 writes the header; everyone synchronizes per the
    /// overhead model.
    pub fn create_dataset(&mut self, name: &str, numtype: NumType, dims: &[u64]) -> Dataset {
        if self.layout.model.create_sync {
            self.comm.barrier();
        }
        let DsExtent {
            header_addr,
            header_len,
            ..
        } = self.layout.create_dataset(name, numtype, dims);
        if self.comm.rank() == 0 {
            // The object header write: small, lands immediately before the
            // raw data, breaking the stream's alignment/sequentiality.
            let mut h = Vec::with_capacity(header_len as usize);
            h.extend_from_slice(&(name.len() as u16).to_le_bytes());
            h.extend_from_slice(name.as_bytes());
            h.push(numtype.code());
            for d in dims {
                h.extend_from_slice(&d.to_le_bytes());
            }
            h.resize(header_len as usize, 0);
            self.file.write_at(header_addr, &h);
        }
        // Metadata propagation to all ranks.
        self.comm.bcast(0, vec![0u8; 64]);
        Dataset(self.layout.datasets.len() - 1)
    }

    /// Collectively create a dataset with **chunked** storage: the data
    /// space is allocated as separate fixed-size chunks indexed by a
    /// B-tree (each chunk is a full `chunk_dims` block; edge chunks are
    /// padded, as in HDF5). Accessing a chunked dataset pays a per-chunk
    /// index lookup on top of the raw transfers.
    pub fn create_dataset_chunked(
        &mut self,
        name: &str,
        numtype: NumType,
        dims: &[u64],
        chunk_dims: &[u64],
    ) -> Dataset {
        assert_eq!(dims.len(), chunk_dims.len(), "chunk rank mismatch");
        assert!(chunk_dims.iter().all(|c| *c > 0), "zero chunk dim");
        if self.layout.model.create_sync {
            self.comm.barrier();
        }
        let header_len = 64 + name.len() as u64 + dims.len() as u64 * 16;
        let header_addr = self.layout.alloc(header_len, false);
        if self.comm.rank() == 0 {
            self.file
                .write_at(header_addr, &vec![0u8; header_len as usize]);
        }
        let chunk_elems: u64 = chunk_dims.iter().product();
        let chunk_bytes = chunk_elems * numtype.size();
        let nchunks: u64 = dims
            .iter()
            .zip(chunk_dims)
            .map(|(d, c)| d.div_ceil(*c))
            .product();
        let aligned = !self.layout.model.metadata_inline;
        let chunk_addrs: Vec<u64> = (0..nchunks)
            .map(|_| self.layout.alloc(chunk_bytes, aligned))
            .collect();
        // The chunk B-tree index: one small node per 16 chunks (fan-out)
        // — more metadata interleaved with data. Every rank allocates the
        // nodes so the allocators stay in step; rank 0 writes them.
        for _ in 0..nchunks.div_ceil(16).max(1) {
            let a = self.layout.alloc(256, false);
            if self.comm.rank() == 0 {
                self.file.write_at(a, &[0u8; 256]);
            }
        }
        self.comm.bcast(0, vec![0u8; 64]);
        self.layout.datasets.push(DatasetMeta {
            name: name.to_string(),
            numtype,
            dims: dims.to_vec(),
            data_addr: chunk_addrs.first().copied().unwrap_or(self.layout.eof),
            data_len: nchunks * chunk_bytes,
            chunk_dims: chunk_dims.to_vec(),
            chunk_addrs,
        });
        Dataset(self.layout.datasets.len() - 1)
    }

    /// Collective dataset close: another synchronization plus a small
    /// rank-0 header update.
    pub fn close_dataset(&mut self, ds: Dataset) {
        if self.layout.model.create_sync {
            self.comm.barrier();
        }
        if self.comm.rank() == 0 {
            let m = &self.layout.datasets[ds.0];
            let addr = m.data_addr.saturating_sub(64);
            self.file.write_at(addr, &[0u8; 16]);
        }
        if self.layout.model.create_sync {
            self.comm.barrier();
        }
    }

    pub fn open_dataset(&self, name: &str) -> Dataset {
        Dataset(
            self.layout
                .datasets
                .iter()
                .position(|d| d.name == name)
                .unwrap_or_else(|| panic!("no dataset {name:?}")),
        )
    }

    pub fn dataset_dims(&self, ds: Dataset) -> &[u64] {
        &self.layout.datasets[ds.0].dims
    }

    pub fn dataset_type(&self, ds: Dataset) -> NumType {
        self.layout.datasets[ds.0].numtype
    }

    pub fn dataset_names(&self) -> Vec<&str> {
        self.layout
            .datasets
            .iter()
            .map(|d| d.name.as_str())
            .collect()
    }

    /// File extent `(data_addr, data_len)` of a dataset's raw data.
    pub fn dataset_extent(&self, ds: Dataset) -> (u64, u64) {
        let m = &self.layout.datasets[ds.0];
        (m.data_addr, m.data_len)
    }

    /// Charge the recursive hyperslab traversal + pack copy.
    fn charge_hyperslab(&self, slab: &Hyperslab, bytes: u64) {
        let runs = slab.runs();
        let cpu = SimDur(self.layout.model.hyperslab_ns_per_run * runs)
            + SimDur::transfer(bytes, self.comm.mem_bw());
        self.comm.ctx().advance(cpu);
    }

    /// Piece list for a chunked dataset: (absolute file offset, buffer
    /// offset, length) per contiguous run, plus the number of chunks
    /// touched (for the B-tree lookup charge).
    fn chunked_pieces(&self, ds: Dataset, slab: &Hyperslab) -> (Vec<(u64, usize, usize)>, u64) {
        let m = &self.layout.datasets[ds.0];
        let esz = m.numtype.size();
        let rank = m.dims.len();
        let grid = m.chunk_grid();
        // Chunk-grid ranges the selection touches.
        let c_lo: Vec<u64> = (0..rank).map(|d| slab.start[d] / m.chunk_dims[d]).collect();
        let c_hi: Vec<u64> = (0..rank)
            .map(|d| (slab.start[d] + slab.count[d] - 1) / m.chunk_dims[d])
            .collect();
        let mut pieces = Vec::new();
        let mut touched = 0u64;
        let mut cidx = c_lo.clone();
        'chunks: loop {
            touched += 1;
            // Chunk base and linear chunk number.
            let mut lin = 0u64;
            for d in 0..rank {
                lin = lin * grid[d] + cidx[d];
            }
            let addr = m.chunk_addrs[lin as usize];
            let base: Vec<u64> = (0..rank).map(|d| cidx[d] * m.chunk_dims[d]).collect();
            let lo: Vec<u64> = (0..rank).map(|d| slab.start[d].max(base[d])).collect();
            let hi: Vec<u64> = (0..rank)
                .map(|d| (slab.start[d] + slab.count[d]).min(base[d] + m.chunk_dims[d]))
                .collect();
            let size: Vec<u64> = (0..rank).map(|d| hi[d] - lo[d]).collect();
            // Positionally paired traversals: within the chunk and within
            // the packed selection buffer.
            let in_chunk = Datatype::Subarray {
                dims: m.chunk_dims.clone(),
                starts: (0..rank).map(|d| lo[d] - base[d]).collect(),
                subsizes: size.clone(),
                elem: esz,
            };
            let in_sel = Datatype::Subarray {
                dims: slab.count.clone(),
                starts: (0..rank).map(|d| lo[d] - slab.start[d]).collect(),
                subsizes: size,
                elem: esz,
            };
            let a = in_chunk.flatten_raw();
            let b = in_sel.flatten_raw();
            debug_assert_eq!(a.len(), b.len());
            for ((foff, flen), (boff, blen)) in a.into_iter().zip(b) {
                debug_assert_eq!(flen, blen);
                pieces.push((addr + foff, boff as usize, flen as usize));
            }
            // Odometer over chunk coords.
            let mut d = rank;
            loop {
                if d == 0 {
                    break 'chunks;
                }
                d -= 1;
                cidx[d] += 1;
                if cidx[d] <= c_hi[d] {
                    break;
                }
                cidx[d] = c_lo[d];
            }
        }
        pieces.sort_unstable();
        (pieces, touched)
    }

    /// Per-chunk B-tree index traversal cost.
    fn charge_chunk_index(&self, chunks: u64) {
        self.comm.ctx().advance(SimDur::from_nanos(chunks * 2_000));
    }

    fn slab_type(&self, ds: Dataset, slab: &Hyperslab) -> (Datatype, u64) {
        let m = &self.layout.datasets[ds.0];
        assert_eq!(slab.start.len(), m.dims.len(), "selection rank mismatch");
        let t = Datatype::Subarray {
            dims: m.dims.clone(),
            starts: slab.start.clone(),
            subsizes: slab.count.clone(),
            elem: m.numtype.size(),
        };
        (t, m.data_addr)
    }

    /// Write the selected hyperslab from `buf` (packed row-major order).
    pub fn write_hyperslab(&mut self, ds: Dataset, slab: &Hyperslab, xfer: Xfer, buf: &[u8]) {
        let m = &self.layout.datasets[ds.0];
        assert_eq!(
            buf.len() as u64,
            slab.elements() * m.numtype.size(),
            "buffer/selection mismatch"
        );
        self.charge_hyperslab(slab, buf.len() as u64);
        if self.layout.datasets[ds.0].is_chunked() {
            let (pieces, chunks) = self.chunked_pieces(ds, slab);
            self.charge_chunk_index(chunks);
            // Reorder the packed selection into ascending file order.
            let mut reordered = vec![0u8; buf.len()];
            let mut cursor = 0usize;
            let mut blocks = Vec::with_capacity(pieces.len());
            for (foff, boff, len) in &pieces {
                reordered[cursor..cursor + len].copy_from_slice(&buf[*boff..*boff + len]);
                cursor += len;
                blocks.push((*foff, *len as u64));
            }
            self.file.set_view(0, Datatype::Hindexed { blocks });
            match xfer {
                Xfer::Collective => self.file.write_all_view(&reordered),
                Xfer::Independent => self.file.write_view(&reordered),
            }
            return;
        }
        let (t, base) = self.slab_type(ds, slab);
        self.file.set_view(base, t);
        match xfer {
            Xfer::Collective => self.file.write_all_view(buf),
            Xfer::Independent => self.file.write_view(buf),
        }
    }

    /// Read the selected hyperslab into a packed buffer.
    pub fn read_hyperslab(&mut self, ds: Dataset, slab: &Hyperslab, xfer: Xfer) -> Vec<u8> {
        self.charge_hyperslab(
            slab,
            slab.elements() * self.layout.datasets[ds.0].numtype.size(),
        );
        if self.layout.datasets[ds.0].is_chunked() {
            let (pieces, chunks) = self.chunked_pieces(ds, slab);
            self.charge_chunk_index(chunks);
            let blocks: Vec<(u64, u64)> = pieces.iter().map(|(f, _, l)| (*f, *l as u64)).collect();
            self.file.set_view(0, Datatype::Hindexed { blocks });
            let data = match xfer {
                Xfer::Collective => self.file.read_all_view(),
                Xfer::Independent => self.file.read_view(),
            };
            // Scatter back into packed selection order.
            let total: usize = pieces.iter().map(|(_, _, l)| l).sum();
            let mut out = vec![0u8; total];
            let mut cursor = 0usize;
            for (_, boff, len) in &pieces {
                out[*boff..*boff + len].copy_from_slice(&data[cursor..cursor + len]);
                cursor += len;
            }
            return out;
        }
        let (t, base) = self.slab_type(ds, slab);
        self.file.set_view(base, t);
        match xfer {
            Xfer::Collective => self.file.read_all_view(),
            Xfer::Independent => self.file.read_view(),
        }
    }

    /// Collectively write an attribute. Under the 2002 model only rank 0
    /// may create/write attributes, so everyone else waits.
    pub fn write_attr(&mut self, name: &str, data: &[u8]) {
        let addr = self.layout.write_attr(name, data.len() as u64);
        if self.layout.model.rank0_attributes {
            if self.comm.rank() == 0 {
                self.file.write_at(addr, data);
            }
            self.comm.barrier();
        } else if self.comm.rank() == 0 {
            // Without the restriction the write still happens once, but
            // nobody waits for it.
            self.file.write_at(addr, data);
        }
    }

    pub fn read_attr(&self, name: &str) -> Vec<u8> {
        let a = self
            .layout
            .attrs
            .iter()
            .find(|a| a.name == name)
            .unwrap_or_else(|| panic!("no attribute {name:?}"));
        self.file.read_at(a.addr, a.len)
    }

    /// Collective close: rank 0 serializes the catalog and updates the
    /// superblock.
    pub fn close(mut self) {
        if self.layout.model.create_sync {
            self.comm.barrier();
        }
        let (cat_addr, catalog) = self.layout.close_catalog();
        if self.comm.rank() == 0 {
            self.file.write_at(cat_addr, &catalog);
            let mut sb = Vec::with_capacity(SUPERBLOCK as usize);
            sb.extend_from_slice(MAGIC);
            sb.extend_from_slice(&cat_addr.to_le_bytes());
            sb.extend_from_slice(&(catalog.len() as u64).to_le_bytes());
            sb.extend_from_slice(&self.layout.eof.to_le_bytes());
            sb.resize(SUPERBLOCK as usize, 0);
            self.file.write_at(0, &sb);
        }
        self.comm.barrier();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amrio_disk::{DiskParams, FsConfig, Placement};
    use amrio_mpi::World;
    use amrio_net::NetConfig;

    fn fs() -> FsConfig {
        FsConfig {
            label: "t".into(),
            stripe: 64 * 1024,
            nservers: 4,
            disk: DiskParams::new(100, 2, 100.0),
            server_endpoints: None,
            placement: Placement::Striped,
            lock_block: None,
            token_cost: SimDur::ZERO,
            client_queue_cost: None,
            single_stream_bw: None,
        }
    }

    fn slab_for(rank: usize, n: u64) -> Hyperslab {
        // 4 ranks: quarter the z dimension.
        Hyperslab::new(&[rank as u64 * (n / 4), 0, 0], &[n / 4, n, n])
    }

    #[test]
    fn parallel_write_read_roundtrip() {
        let w = World::new(4, NetConfig::ccnuma(4));
        let io = MpiIo::new(fs());
        let r = w.run(|c| {
            let n = 16u64;
            let mut f = H5File::create(&io, c, "d.h5", OverheadModel::default());
            let ds = f.create_dataset("density", NumType::F32, &[n, n, n]);
            let slab = slab_for(c.rank(), n);
            let buf: Vec<u8> = (0..slab.elements())
                .flat_map(|i| ((c.rank() as u32 + 1) * 1000 + i as u32).to_le_bytes())
                .collect();
            f.write_hyperslab(ds, &slab, Xfer::Collective, &buf);
            f.close_dataset(ds);
            f.write_attr("time", &1.5f64.to_le_bytes());
            f.close();

            // Reopen and read back my slab.
            let mut f = H5File::open(&io, c, "d.h5", OverheadModel::default());
            let ds = f.open_dataset("density");
            assert_eq!(f.dataset_dims(ds), &[n, n, n]);
            let got = f.read_hyperslab(ds, &slab, Xfer::Collective);
            assert_eq!(f.read_attr("time"), 1.5f64.to_le_bytes());
            got == buf
        });
        assert!(r.results.iter().all(|x| *x));
    }

    #[test]
    fn strict_checker_stays_clean_on_parallel_roundtrip() {
        use amrio_check::{CheckMode, Checker};
        use std::sync::Arc;
        let ck = Arc::new(Checker::new(CheckMode::Strict, 4));
        let w = World::new(4, NetConfig::ccnuma(4)).with_checker(Arc::clone(&ck));
        let io = MpiIo::new(fs());
        io.attach_checker(&ck);
        let r = w.run(|c| {
            let n = 8u64;
            let mut f = H5File::create(&io, c, "ck.h5", OverheadModel::default());
            let ds = f.create_dataset("density", NumType::F32, &[n, n, n]);
            let slab = slab_for(c.rank(), n);
            let buf = vec![c.rank() as u8 + 1; (slab.elements() * 4) as usize];
            f.write_hyperslab(ds, &slab, Xfer::Collective, &buf);
            f.close_dataset(ds);
            f.close();
            let mut f = H5File::open(&io, c, "ck.h5", OverheadModel::default());
            let ds = f.open_dataset("density");
            f.read_hyperslab(ds, &slab, Xfer::Collective) == buf
        });
        assert!(r.results.iter().all(|x| *x));
        let rep = ck.finalize();
        assert!(rep.is_clean(), "unexpected violations:\n{rep}");
    }

    #[test]
    fn independent_transfer_same_contents_as_collective() {
        let contents = |xfer: Xfer| {
            let w = World::new(4, NetConfig::ccnuma(4));
            let io = MpiIo::new(fs());
            let fsh = io.fs();
            w.run(move |c| {
                let mut f = H5File::create(&io, c, "x.h5", OverheadModel::default());
                let ds = f.create_dataset("v", NumType::F32, &[8, 8, 8]);
                let slab = slab_for(c.rank(), 8);
                let buf = vec![c.rank() as u8 + 1; (slab.elements() * 4) as usize];
                f.write_hyperslab(ds, &slab, xfer, &buf);
                f.close();
            });
            let g = fsh.lock();
            let size = g.file_size(0);
            g.peek(0, 0, size as usize)
        };
        assert_eq!(contents(Xfer::Collective), contents(Xfer::Independent));
    }

    #[test]
    fn overheads_cost_time() {
        let time = |model: OverheadModel| {
            let w = World::new(8, NetConfig::ccnuma(8));
            let io = MpiIo::new(fs());
            let r = w.run(move |c| {
                let n = 32u64;
                let mut f = H5File::create(&io, c, "t.h5", model);
                for i in 0..4 {
                    let ds = f.create_dataset(&format!("d{i}"), NumType::F32, &[n, n, n]);
                    let slab = Hyperslab::new(&[c.rank() as u64 * (n / 8), 0, 0], &[n / 8, n, n]);
                    let buf = vec![1u8; (slab.elements() * 4) as usize];
                    f.write_hyperslab(ds, &slab, Xfer::Collective, &buf);
                    f.close_dataset(ds);
                    f.write_attr(&format!("a{i}"), &[0u8; 64]);
                }
                f.close();
                c.now()
            });
            r.makespan
        };
        let old = time(OverheadModel::default());
        let modern = time(OverheadModel::modern());
        assert!(
            old.as_secs_f64() > modern.as_secs_f64() * 1.1,
            "2002 model {old:?} must be slower than modern {modern:?}"
        );
    }

    #[test]
    fn misalignment_model_changes_data_address() {
        let w = World::new(2, NetConfig::ccnuma(2));
        let addr_with = |inline: bool| {
            let io = MpiIo::new(fs());
            let model = OverheadModel {
                metadata_inline: inline,
                ..OverheadModel::default()
            };
            let r = w.run(move |c| {
                let mut f = H5File::create(&io, c, "a.h5", model);
                let ds = f.create_dataset("v", NumType::F32, &[8]);
                let addr = f.layout.datasets[ds.0].data_addr;
                f.close();
                addr
            });
            r.results[0]
        };
        assert_ne!(addr_with(true) % (64 * 1024), 0);
        assert_eq!(addr_with(false) % (64 * 1024), 0);
    }

    #[test]
    fn ranks_agree_on_addresses_after_a_chunked_dataset() {
        let w = World::new(2, NetConfig::ccnuma(2));
        let io = MpiIo::new(fs());
        let model = OverheadModel {
            metadata_inline: true,
            ..OverheadModel::default()
        };
        let r = w.run(|c| {
            let mut f = H5File::create(&io, c, "k.h5", model);
            f.create_dataset_chunked("c", NumType::F32, &[8, 8, 8], &[4, 4, 4]);
            let ds = f.create_dataset("v", NumType::F32, &[8]);
            let addr = f.layout.datasets[ds.0].data_addr;
            f.close();
            addr
        });
        assert_eq!(r.results[0], r.results[1], "ranks disagree on the address");
    }

    #[test]
    fn hyperslab_helpers() {
        let s = Hyperslab::all(&[4, 5, 6]);
        assert_eq!(s.elements(), 120);
        assert_eq!(s.runs(), 20);
        let z = Hyperslab::new(&[0, 0], &[0, 9]);
        assert_eq!(z.runs(), 0);
    }

    #[test]
    fn catalog_roundtrip() {
        let ds = vec![DatasetMeta {
            name: "abc".into(),
            numtype: NumType::F64,
            dims: vec![3, 4],
            data_addr: 1234,
            data_len: 96,
            chunk_dims: Vec::new(),
            chunk_addrs: Vec::new(),
        }];
        let at = vec![AttrMeta {
            name: "t".into(),
            addr: 99,
            len: 8,
        }];
        let enc = encode_catalog(&ds, &at);
        let (d2, a2) = decode_catalog(&enc);
        assert_eq!(ds, d2);
        assert_eq!(at, a2);
    }

    #[test]
    #[should_panic(expected = "no dataset")]
    fn open_missing_dataset_panics() {
        let w = World::new(1, NetConfig::ccnuma(1));
        let io = MpiIo::new(fs());
        w.run(|c| {
            let f = H5File::create(&io, c, "e.h5", OverheadModel::default());
            let _ = f.open_dataset("ghost");
        });
    }
}

#[cfg(test)]
mod format_tests {
    use super::*;
    use amrio_disk::{DiskParams, FsConfig, Placement};
    use amrio_mpi::World;
    use amrio_mpiio::MpiIo;
    use amrio_net::NetConfig;
    use amrio_simt::SimDur;

    fn fs() -> FsConfig {
        FsConfig {
            label: "t".into(),
            stripe: 64 * 1024,
            nservers: 2,
            disk: DiskParams::new(100, 2, 100.0),
            server_endpoints: None,
            placement: Placement::Striped,
            lock_block: None,
            token_cost: SimDur::ZERO,
            client_queue_cost: None,
            single_stream_bw: None,
        }
    }

    #[test]
    #[should_panic(expected = "catalog missing")]
    fn open_of_unclosed_file_fails() {
        let w = World::new(1, NetConfig::ccnuma(1));
        let io = MpiIo::new(fs());
        w.run(|c| {
            {
                let mut f = H5File::create(&io, c, "u.h5", OverheadModel::default());
                f.create_dataset("d", NumType::F32, &[4]);
                // NOT closed: superblock never gets the catalog address.
            }
            let _ = H5File::open(&io, c, "u.h5", OverheadModel::default());
        });
    }

    #[test]
    fn rank0_attributes_make_everyone_wait() {
        let time_of = |rank0_only: bool| {
            let w = World::new(4, NetConfig::ccnuma(4));
            let io = MpiIo::new(fs());
            let model = OverheadModel {
                rank0_attributes: rank0_only,
                ..OverheadModel::default()
            };
            let r = w.run(move |c| {
                let mut f = H5File::create(&io, c, "a.h5", model);
                for i in 0..20 {
                    f.write_attr(&format!("a{i}"), &[0u8; 256]);
                }
                f.close();
                c.now()
            });
            r.makespan
        };
        assert!(time_of(true) > time_of(false));
    }

    #[test]
    fn empty_dataset_roundtrips() {
        let w = World::new(2, NetConfig::ccnuma(2));
        let io = MpiIo::new(fs());
        w.run(|c| {
            let mut f = H5File::create(&io, c, "e.h5", OverheadModel::default());
            let ds = f.create_dataset("none", NumType::F64, &[0]);
            f.close_dataset(ds);
            f.close();
            let f = H5File::open(&io, c, "e.h5", OverheadModel::default());
            let ds = f.open_dataset("none");
            assert_eq!(f.dataset_dims(ds), &[0]);
            assert_eq!(f.dataset_type(ds), NumType::F64);
        });
    }

    #[test]
    fn dataset_names_listed_in_creation_order() {
        let w = World::new(1, NetConfig::ccnuma(1));
        let io = MpiIo::new(fs());
        w.run(|c| {
            let mut f = H5File::create(&io, c, "n.h5", OverheadModel::default());
            for n in ["b", "a", "c"] {
                f.create_dataset(n, NumType::U8, &[1]);
            }
            assert_eq!(f.dataset_names(), vec!["b", "a", "c"]);
        });
    }
}

#[cfg(test)]
mod chunked_tests {
    use super::*;
    use amrio_disk::{DiskParams, FsConfig, Placement};
    use amrio_mpi::World;
    use amrio_mpiio::MpiIo;
    use amrio_net::NetConfig;
    use amrio_simt::SimDur;

    fn fs() -> FsConfig {
        FsConfig {
            label: "t".into(),
            stripe: 64 * 1024,
            nservers: 4,
            disk: DiskParams::new(100, 2, 100.0),
            server_endpoints: None,
            placement: Placement::Striped,
            lock_block: None,
            token_cost: SimDur::ZERO,
            client_queue_cost: None,
            single_stream_bw: None,
        }
    }

    fn pattern(slab: &Hyperslab, rank_tag: u32) -> Vec<u8> {
        (0..slab.elements())
            .flat_map(|i| (rank_tag * 1_000_000 + i as u32).to_le_bytes())
            .collect()
    }

    #[test]
    fn chunked_roundtrip_collective() {
        let w = World::new(4, NetConfig::ccnuma(4));
        let io = MpiIo::new(fs());
        let ok = w.run(|c| {
            let n = 16u64;
            let mut f = H5File::create(&io, c, "c.h5", OverheadModel::default());
            let ds = f.create_dataset_chunked("v", NumType::F32, &[n, n, n], &[4, 8, 8]);
            let slab = Hyperslab::new(&[c.rank() as u64 * 4, 0, 0], &[4, n, n]);
            let buf = pattern(&slab, c.rank() as u32 + 1);
            f.write_hyperslab(ds, &slab, Xfer::Collective, &buf);
            f.close_dataset(ds);
            f.close();

            let mut f = H5File::open(&io, c, "c.h5", OverheadModel::default());
            let ds = f.open_dataset("v");
            let got = f.read_hyperslab(ds, &slab, Xfer::Collective);
            got == buf
        });
        assert!(ok.results.iter().all(|x| *x));
    }

    #[test]
    fn chunked_roundtrip_unaligned_selection_and_edge_chunks() {
        // 10x10x10 dataset with 4x4x4 chunks: edge chunks are partial.
        let w = World::new(1, NetConfig::ccnuma(1));
        let io = MpiIo::new(fs());
        let ok = w.run(|c| {
            let mut f = H5File::create(&io, c, "e.h5", OverheadModel::default());
            let ds = f.create_dataset_chunked("v", NumType::F32, &[10, 10, 10], &[4, 4, 4]);
            let full = Hyperslab::all(&[10, 10, 10]);
            let buf = pattern(&full, 7);
            f.write_hyperslab(ds, &full, Xfer::Independent, &buf);
            // Read a misaligned interior box and check element-exactness.
            let sel = Hyperslab::new(&[1, 2, 3], &[7, 5, 6]);
            let got = f.read_hyperslab(ds, &sel, Xfer::Independent);
            let vals: Vec<u32> = got
                .chunks_exact(4)
                .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
                .collect();
            let mut k = 0;
            for z in 1..8u32 {
                for y in 2..7u32 {
                    for x in 3..9u32 {
                        let want = 7 * 1_000_000 + (z * 100 + y * 10 + x);
                        if vals[k] != want {
                            return false;
                        }
                        k += 1;
                    }
                }
            }
            true
        });
        assert!(ok.results.iter().all(|x| *x));
    }

    #[test]
    fn chunked_catalog_roundtrips() {
        let ds = vec![DatasetMeta {
            name: "c".into(),
            numtype: NumType::F32,
            dims: vec![8, 8],
            data_addr: 100,
            data_len: 256,
            chunk_dims: vec![4, 4],
            chunk_addrs: vec![100, 164, 228, 292],
        }];
        let enc = encode_catalog(&ds, &[]);
        let (d2, _) = decode_catalog(&enc);
        assert_eq!(ds, d2);
        assert!(d2[0].is_chunked());
        assert_eq!(d2[0].chunk_grid(), vec![2, 2]);
    }

    #[test]
    fn chunk_index_lookup_costs_time() {
        let time_of = |chunked: bool| {
            let w = World::new(2, NetConfig::ccnuma(2));
            let io = MpiIo::new(fs());
            let r = w.run(move |c| {
                let n = 32u64;
                let mut f = H5File::create(&io, c, "t.h5", OverheadModel::default());
                let ds = if chunked {
                    f.create_dataset_chunked("v", NumType::F32, &[n, n, n], &[2, 2, 2])
                } else {
                    f.create_dataset("v", NumType::F32, &[n, n, n])
                };
                let slab = Hyperslab::new(&[c.rank() as u64 * (n / 2), 0, 0], &[n / 2, n, n]);
                let buf = vec![1u8; (slab.elements() * 4) as usize];
                f.write_hyperslab(ds, &slab, Xfer::Collective, &buf);
                f.close();
                c.now()
            });
            r.makespan
        };
        // Tiny 2^3 chunks mean thousands of index lookups and scattered
        // allocations: decisively slower than contiguous.
        assert!(time_of(true) > time_of(false));
    }

    #[test]
    fn chunked_and_contiguous_same_bytes_selected() {
        let w = World::new(1, NetConfig::ccnuma(1));
        let io = MpiIo::new(fs());
        w.run(|c| {
            let mut f = H5File::create(&io, c, "cmp.h5", OverheadModel::default());
            let dims = [8u64, 8, 8];
            let a = f.create_dataset("cont", NumType::F32, &dims);
            let b = f.create_dataset_chunked("chnk", NumType::F32, &dims, &[3, 3, 3]);
            let full = Hyperslab::all(&dims);
            let buf = pattern(&full, 3);
            f.write_hyperslab(a, &full, Xfer::Independent, &buf);
            f.write_hyperslab(b, &full, Xfer::Independent, &buf);
            let sel = Hyperslab::new(&[2, 3, 1], &[4, 2, 5]);
            let ra = f.read_hyperslab(a, &sel, Xfer::Independent);
            let rb = f.read_hyperslab(b, &sel, Xfer::Independent);
            assert_eq!(ra, rb);
        });
    }

    #[test]
    fn layout_oracle_matches_runtime_allocator() {
        for model in [OverheadModel::default(), OverheadModel::modern()] {
            let w = World::new(2, NetConfig::ccnuma(2));
            let io = MpiIo::new(fs());
            let r = w.run(move |c| {
                let mut f = H5File::create(&io, c, "oracle.h5", model);
                f.write_attr("units", &[7u8; 32]);
                let a = f.create_dataset("alpha", NumType::F32, &[8, 8, 8]);
                let b = f.create_dataset("beta", NumType::F64, &[100]);
                let out = (f.dataset_extent(a), f.dataset_extent(b), f.layout.eof);
                f.close();
                out
            });
            let mut o = LayoutOracle::new(model, 64 * 1024);
            o.write_attr("units", 32);
            let ea = o.create_dataset("alpha", NumType::F32, &[8, 8, 8]);
            let eb = o.create_dataset("beta", NumType::F64, &[100]);
            let pre_close_eof = o.eof();
            let (cat_addr, cat_len) = o.close();
            for got in &r.results {
                assert_eq!(
                    *got,
                    (
                        (ea.data_addr, ea.data_len),
                        (eb.data_addr, eb.data_len),
                        pre_close_eof
                    )
                );
            }
            assert_eq!(cat_addr, pre_close_eof);
            assert!(cat_len > 0);
        }
    }
}
