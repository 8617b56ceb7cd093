//! The paper's future-work direction realized (§5): checkpoint I/O
//! driven by a Meta-Data Management System.
//!
//! [`MdmsAdvised`] wraps the optimized MPI-IO strategy: each dump also
//! registers every dataset (location, shape, access pattern) in an
//! [`MdmsDb`] persisted next to the checkpoint; each restart first loads
//! the database and *asks it* how to read each dataset (collective vs
//! independent, aggregator count, sieving), instead of hard-coding the
//! decisions.
//!
//! [`MpiIoNaive`] is the counterfactual a reader without pattern
//! metadata is stuck with: it reads the (Block,Block,Block) fields with
//! independent per-run requests, because nothing tells it the access is
//! a coordinated global pattern worth a collective. The `mdms_demo`
//! bench measures what the metadata is worth.

use super::mpiio::{read_meta, read_subgrid_per_array, Layout};
use super::*;
use amrio_mdms::{AccessPattern, DatasetRecord, MdmsDb};
use amrio_mpiio::{Hints, Mode};

fn mdms_path(dump: u32) -> String {
    format!("DD{dump:04}.mdms")
}

/// MPI-IO checkpointing with an MDMS recording/advising layer.
#[derive(Default)]
pub struct MdmsAdvised;

/// A pattern-blind reader: same file layout, but field reads are
/// independent because no metadata says they are collective-friendly.
#[derive(Default)]
pub struct MpiIoNaive;

fn register_checkpoint(db: &mut MdmsDb, st: &SimState, dump: u32) {
    let layout = Layout::new(&st.hierarchy);
    let file = shared_path(dump, "cpio");
    let top = st.hierarchy.find(TOP_GRID).expect("top grid");
    for k in 0..GRID_ARRAYS {
        db.register(DatasetRecord {
            name: format!("top/{}", array_name(k)),
            numtype: array_numtype(k),
            dims: array_dims(top, k),
            file: file.clone(),
            offset: layout.array_off(TOP_GRID, k),
            pattern: if k < NUM_FIELDS {
                AccessPattern::RegularBlock
            } else {
                AccessPattern::IrregularByKey
            },
            observed_requests: 0,
            observed_bytes: 0,
        });
    }
    db.register(DatasetRecord {
        name: "hierarchy".into(),
        numtype: amrio_mpiio::NumType::U8,
        dims: vec![wire::encode_hierarchy(&st.hierarchy, st.time, st.cycle).len() as u64],
        file,
        offset: layout.meta_addr,
        pattern: AccessPattern::Sequential,
        observed_requests: 0,
        observed_bytes: 0,
    });
}

impl IoStrategy for MdmsAdvised {
    fn name(&self) -> &'static str {
        "MPI-IO+MDMS"
    }

    fn write_checkpoint(&self, comm: &Comm, io: &MpiIo, st: &SimState, dump: u32) {
        MpiIoOptimized.write_checkpoint(comm, io, st, dump);
        // Record what was written and how it will be accessed.
        let mut db = MdmsDb::new();
        register_checkpoint(&mut db, st, dump);
        db.flush(comm, io, &mdms_path(dump));
    }

    fn read_checkpoint(&self, comm: &Comm, io: &MpiIo, cfg: &SimConfig, dump: u32) -> SimState {
        let db = MdmsDb::load(comm, io, &mdms_path(dump));
        let nservers = io.fs().lock().config().nservers;
        let advise = |name: &str| db.advise(name, comm.size(), nservers).expect("registered");
        let mut f = io.open(comm, &shared_path(dump, "cpio"), Mode::Open);

        // Hierarchy: the database says it is tiny & sequential -> one
        // reader + broadcast.
        let hmeta = db.lookup("hierarchy").expect("hierarchy registered");
        let read = || f.read_at(hmeta.offset, hmeta.bytes());
        let meta = if advise("hierarchy").root_and_broadcast {
            from_root(comm, read)
        } else {
            read().into()
        };
        let r = Restart::new(comm, cfg, &meta);
        let layout = Layout::new(&r.hierarchy);

        // Fields: advised collective with a tuned aggregator count.
        let fields = r.top_fields(|i| {
            let advice = advise(&format!("top/{}", array_name(i)));
            let mut hints = Hints::default();
            advice.apply_to(&mut hints);
            f.set_hints(hints);
            f.set_view(layout.field_off(TOP_GRID, i), slab_view(r.n(), &r.slab()));
            if advice.collective {
                f.read_all_view()
            } else {
                f.read_view()
            }
        });

        // Particles: advised independent block-wise reads.
        let particles = r.top_particles_blockwise(|a, bs, be| {
            let advice = advise(&format!("top/{}", array_name(NUM_FIELDS + a)));
            assert!(!advice.collective, "1-D block access stays independent");
            read_block(&f, layout.particle_off(TOP_GRID, a), a, bs, be)
        });

        // Subgrids as in the pattern-blind reader.
        let subgrids = r.subgrids(|meta| read_subgrid_per_array(&f, &layout, meta));
        r.finish(fields, particles, subgrids)
    }
}

impl IoStrategy for MpiIoNaive {
    fn name(&self) -> &'static str {
        "MPI-IO-naive"
    }

    fn write_checkpoint(&self, comm: &Comm, io: &MpiIo, st: &SimState, dump: u32) {
        MpiIoOptimized.write_checkpoint(comm, io, st, dump);
    }

    fn read_checkpoint(&self, comm: &Comm, io: &MpiIo, cfg: &SimConfig, dump: u32) -> SimState {
        let mut f = io.open(comm, &shared_path(dump, "cpio"), Mode::Open);
        let r = Restart::new(comm, cfg, &from_root(comm, || read_meta(&f)));
        let layout = Layout::new(&r.hierarchy);

        // No pattern metadata: every rank reads its subarray with
        // independent per-run requests and no sieving.
        f.set_hints(Hints {
            ds_read: false,
            ..Hints::default()
        });
        let fields = r.top_fields(|i| {
            f.set_view(layout.field_off(TOP_GRID, i), slab_view(r.n(), &r.slab()));
            f.read_view()
        });
        let particles = r.top_particles_blockwise(|a, bs, be| {
            read_block(&f, layout.particle_off(TOP_GRID, a), a, bs, be)
        });
        let subgrids = r.subgrids(|meta| read_subgrid_per_array(&f, &layout, meta));
        r.finish(fields, particles, subgrids)
    }
}
