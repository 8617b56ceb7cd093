//! Pins every file-system request path of the MPI-IO layer.
//!
//! Each row drives one path on 4 ranks over a GPFS-like volume (lock
//! blocks, token and client-queue costs) with request tracing on, and
//! pins three numbers: an FNV digest of the trace events (client,
//! offset, length, direction, start, end), the makespan in virtual ns,
//! and the image digest of the volume. A refactor of the request path
//! must keep all three bit-identical.

use amrio_disk::{DiskParams, FsConfig, Placement};
use amrio_mpi::{Comm, World};
use amrio_mpiio::{Advisory, Datatype, Hints, Mode, MpiIo, Region};
use amrio_net::NetConfig;
use amrio_simt::digest::{fnv1a, FNV_OFFSET};
use amrio_simt::SimDur;

const RANKS: usize = 4;

fn gpfs_like() -> FsConfig {
    FsConfig {
        label: "gpfs-like".into(),
        stripe: 64 * 1024,
        nservers: 4,
        disk: DiskParams::new(700, 6, 14.0),
        server_endpoints: None,
        placement: Placement::Striped,
        lock_block: Some(64 * 1024),
        token_cost: SimDur::from_micros(600),
        client_queue_cost: Some(SimDur::from_micros(350)),
        single_stream_bw: None,
    }
}

/// `(trace digest, makespan ns, image digest)` of one traced run.
fn pin(advisory: Advisory, body: impl Fn(&Comm, &MpiIo) + Sync) -> (u64, u64, u64) {
    let w = World::new(RANKS, NetConfig::smp_cluster(RANKS, 2));
    let mut io = MpiIo::new(gpfs_like());
    io.set_advisory(advisory);
    let fs = io.fs();
    fs.lock().trace.enable();
    let r = w.run(|c| body(c, &io));
    let g = fs.lock();
    let mut h = FNV_OFFSET;
    for e in &g.trace.events {
        h = fnv1a(h, &(e.client as u64).to_le_bytes());
        h = fnv1a(h, &e.offset.to_le_bytes());
        h = fnv1a(h, &e.len.to_le_bytes());
        h = fnv1a(h, &[u8::from(e.write)]);
        h = fnv1a(h, &e.start.0.to_le_bytes());
        h = fnv1a(h, &e.end.0.to_le_bytes());
    }
    (h, r.makespan.0, g.image_digest())
}

fn bytes(seed: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((i * 31 + seed * 7) % 251) as u8)
        .collect()
}

/// Rank's (Block, Block) slab of a 32^3 array of 4-byte elements.
fn slab_view(rank: usize) -> Datatype {
    let start = [0, (rank as u64 / 2) * 16, (rank as u64 % 2) * 16];
    Datatype::subarray3([32, 32, 32], start, [32, 16, 16], 4)
}

fn hints(f: impl FnOnce(&mut Hints)) -> Hints {
    let mut h = Hints::default();
    f(&mut h);
    h
}

fn direct_write_at(c: &Comm, io: &MpiIo) {
    let f = io.open(c, "f", Mode::Create);
    let r = c.rank();
    for k in 0..3 {
        let off = r as u64 * 100_000 + k * 30_000;
        f.write_at(off, &bytes(r + k as usize, 20_000 + r * 1000));
    }
}

fn write_behind(c: &Comm, io: &MpiIo) {
    let f = io.open(c, "f", Mode::Create);
    let r = c.rank();
    let base = r as u64 * 200_000;
    f.enable_write_behind(16 * 1024);
    // Adjacent writes stage until the fifth overflows the buffer.
    for k in 0..8u64 {
        f.write_at(base + k * 3072, &bytes(r, 3072));
    }
    f.write_at(base + 100_000, &bytes(r + 1, 500)); // gap: flushes
    f.write_at(base + 120_000, &bytes(r + 2, 40_000)); // bypasses
    f.flush_write_behind();
    f.write_at(base + 170_000, &bytes(r + 3, 700)); // flushed on drop
}

fn gather_scatter(c: &Comm, io: &MpiIo) {
    let f = io.open(c, "f", Mode::Create);
    let r = c.rank();
    let (a, b, d) = (bytes(r, 5000), bytes(r + 1, 70_000), bytes(r + 2, 300));
    f.write_gather_at(r as u64 * 80_000, &[&a, &b, &[], &d]);
    c.barrier();
    let peer = (r + 1) % RANKS;
    let mut x = vec![0u8; 5000];
    let mut y = vec![0u8; 70_300];
    f.read_scatter_at(peer as u64 * 80_000, &mut [&mut x, &mut [], &mut y]);
    assert_eq!(x, bytes(peer, 5000));
}

fn read_at(c: &Comm, io: &MpiIo) {
    let f = io.open(c, "f", Mode::Create);
    if c.rank() == 0 {
        f.write_at(0, &bytes(9, 300_000));
    }
    c.barrier();
    let r = c.rank() as u64;
    for k in 0..3u64 {
        let off = r * 50_000 + k * 17_000;
        let got = f.read_at(off, 9000 + r * 100);
        assert_eq!(got[..], bytes(9, 300_000)[off as usize..][..got.len()]);
    }
}

fn view_per_run(c: &Comm, io: &MpiIo) {
    let mut f = io.open(c, "f", Mode::Create);
    f.set_hints(hints(|h| {
        h.ds_read = false;
        h.ds_write = false;
    }));
    f.set_view(0, slab_view(c.rank()));
    let buf = bytes(c.rank(), 32 * 16 * 16 * 4);
    f.write_view(&buf);
    c.barrier();
    assert_eq!(f.read_view(), buf);
}

/// Runs of 1 KiB: short holes inside a 4 KiB sieve window, and 16 KiB
/// holes wider than the sieve that the window walk jumps over.
fn sieve_view(rank: usize) -> Datatype {
    let base = rank as u64 * (1 << 20);
    let mut blocks: Vec<Region> = Vec::new();
    let mut off = base + 100;
    for i in 0..24u64 {
        blocks.push((off, 1024));
        off += 1024 + if i % 4 == 3 { 16 * 1024 } else { 512 };
    }
    Datatype::Hindexed { blocks }
}

fn sieved(c: &Comm, io: &MpiIo) {
    let mut f = io.open(c, "f", Mode::Create);
    f.set_hints(hints(|h| {
        h.ds_read = true;
        h.ds_write = true;
        h.sieve_buffer_size = 4096;
    }));
    f.set_view(0, sieve_view(c.rank()));
    let buf = bytes(c.rank(), 24 * 1024);
    f.write_view(&buf);
    c.barrier();
    assert_eq!(f.read_view(), buf);
}

fn two_phase_disjoint(c: &Comm, io: &MpiIo) {
    let mut f = io.open(c, "f", Mode::Create);
    f.set_hints(hints(|h| h.cb_buffer_size = 8 * 1024));
    f.set_view(0, slab_view(c.rank()));
    f.write_all_view(&bytes(c.rank(), 32 * 16 * 16 * 4));
}

fn two_phase_overlap(c: &Comm, io: &MpiIo) {
    let mut f = io.open(c, "f", Mode::Create);
    f.set_hints(hints(|h| h.cb_buffer_size = 8 * 1024));
    let r = c.rank() as u64;
    let blocks = vec![(r * 6000, 10_000), (50_000 + r * 3000, 5000)];
    f.set_view(0, Datatype::Hindexed { blocks });
    f.write_all_view(&bytes(c.rank(), 15_000));
}

fn two_phase_read(c: &Comm, io: &MpiIo) {
    let mut f = io.open(c, "f", Mode::Create);
    let image = bytes(5, 32 * 32 * 32 * 4);
    if c.rank() == 0 {
        f.write_at(0, &image);
    }
    c.barrier();
    f.set_hints(hints(|h| h.cb_buffer_size = 8 * 1024));
    f.set_view(0, slab_view(c.rank()));
    let got = f.read_all_view();
    assert_eq!(got.len(), 32 * 16 * 16 * 4);
}

fn advised_open(c: &Comm, io: &MpiIo) {
    let f = io.open(c, "f", Mode::Create);
    let base = c.rank() as u64 * 300_000;
    for k in 0..12u64 {
        f.write_at(base + k * 4096, &bytes(c.rank(), 4096));
    }
    drop(f);
    let f = io.open(c, "f", Mode::Open);
    assert_eq!(f.read_at(base, 4096), bytes(c.rank(), 4096));
}

fn app_striping(c: &Comm, io: &MpiIo) {
    let f = io.open(c, "f", Mode::Create);
    if c.rank() == 0 {
        f.set_app_striping(32 * 1024);
    }
    c.barrier();
    f.write_at(c.rank() as u64 * 100_000, &bytes(c.rank(), 100_000));
}

type Row = (&'static str, Advisory, fn(&Comm, &MpiIo), (u64, u64, u64));

#[test]
fn every_request_path_is_pinned() {
    let plain = Advisory::default();
    let advised = Advisory {
        hints: None,
        write_behind: Some(32 * 1024),
        app_stripe: Some(128 * 1024),
    };
    let rows: [Row; 11] = [
        (
            "direct write_at",
            plain,
            direct_write_at,
            (0xf258e1f54943f097, 16456205, 0x5dab7ce56ddf1993),
        ),
        (
            "write-behind",
            plain,
            write_behind,
            (0x76a63ef44a47f5bb, 15735215, 0x700877dc5a46e675),
        ),
        (
            "gather/scatter",
            plain,
            gather_scatter,
            (0x1ad7f4cbcad781fc, 33996487, 0xf9c696fceb74c026),
        ),
        (
            "read_at",
            plain,
            read_at,
            (0xf6247bb3a9f9bc84, 40445548, 0x7433940782fb83cd),
        ),
        (
            "per-run view",
            plain,
            view_per_run,
            (0x6504155fa508b3c3, 15862481125, 0xffb647f28c7d0b74),
        ),
        (
            "sieved view",
            plain,
            sieved,
            (0x36a10cf0ffd3b203, 446812184, 0x8f1076e0521ddad2),
        ),
        (
            "two-phase disjoint",
            plain,
            two_phase_disjoint,
            (0xbb11b9e3b3fa699d, 28762308, 0xffb647f28c7d0b74),
        ),
        (
            "two-phase overlap",
            plain,
            two_phase_overlap,
            (0x3761bded3924e44a, 12904796, 0x6cabbadf2f4bd2e6),
        ),
        (
            "two-phase read",
            plain,
            two_phase_read,
            (0xde8d932157fb82b7, 45292629, 0xbb92810d07ae7d81),
        ),
        (
            "advised open",
            advised,
            advised_open,
            (0x1f908cd279634949, 28018982, 0x14adab2ea74bae70),
        ),
        (
            "set_app_striping",
            plain,
            app_striping,
            (0x17959747b17a37a9, 13012201, 0xf0bc07bec3d1776),
        ),
    ];
    let mut bad = Vec::new();
    for (name, advisory, body, want) in rows {
        let got = pin(advisory, body);
        if got != want {
            bad.push(format!(
                "{name}: got ({:#x}, {}, {:#x})",
                got.0, got.1, got.2
            ));
        }
    }
    assert!(bad.is_empty(), "request pins moved:\n{}", bad.join("\n"));
}
