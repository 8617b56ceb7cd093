//! Two-phase collective I/O (ROMIO's `ADIOI_GEN_WriteStridedColl`
//! lineage, and Fig. 5 of the paper).
//!
//! Write: ranks exchange their flattened access lists, the covered file
//! range is split into per-aggregator *file domains* (optionally aligned
//! to the file system stripe), data is redistributed with a real
//! `alltoallv` (the communication phase), and each aggregator issues
//! large contiguous file system requests for its domain (the I/O phase).
//! Read runs the phases in the opposite order. Both phases are priced on
//! the shared network/disks, so the paper's platform effects — cheap
//! redistribution on ccNUMA, adapter-bound redistribution on Ethernet,
//! stripe/token interactions on GPFS — emerge mechanically.

use crate::datatype::{buffer_positions, cb_windows, intersect, normalize, Region};
use crate::file::MpiFile;
use amrio_simt::{Bytes, SimDur};

fn encode_regions(regions: &[Region]) -> Vec<u8> {
    let mut out = Vec::with_capacity(regions.len() * 16);
    for (o, l) in regions {
        out.extend_from_slice(&o.to_le_bytes());
        out.extend_from_slice(&l.to_le_bytes());
    }
    out
}

/// Malformed wire data in the two-phase exchange. Payloads come from
/// peer ranks, so a framing bug anywhere in the encode path surfaces
/// here — report what is wrong instead of slicing out of bounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum CodecError {
    /// Region stream length is not a multiple of the 16-byte record.
    Misaligned { len: usize },
    /// Stream ended inside a record header or payload.
    Truncated { need: usize, have: usize },
    /// A piece header declares a length that cannot fit in memory.
    Oversized { len: u64 },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Misaligned { len } => {
                write!(f, "region stream of {len} bytes is not a multiple of 16")
            }
            CodecError::Truncated { need, have } => {
                write!(
                    f,
                    "stream truncated: record needs {need} bytes, {have} remain"
                )
            }
            CodecError::Oversized { len } => {
                write!(f, "piece header declares unrepresentable length {len}")
            }
        }
    }
}

fn decode_regions(data: &[u8]) -> Result<Vec<Region>, CodecError> {
    if !data.len().is_multiple_of(16) {
        return Err(CodecError::Misaligned { len: data.len() });
    }
    Ok(data
        .chunks_exact(16)
        .map(|c| {
            (
                u64::from_le_bytes(c[..8].try_into().unwrap()),
                u64::from_le_bytes(c[8..].try_into().unwrap()),
            )
        })
        .collect())
}

/// Pieces exchanged between ranks: (file offset, data bytes).
fn encode_pieces(pieces: &[(u64, &[u8])]) -> Vec<u8> {
    let total: usize = pieces.iter().map(|(_, d)| 16 + d.len()).sum();
    amrio_simt::count_copy(pieces.iter().map(|(_, d)| d.len()).sum());
    let mut out = Vec::with_capacity(total);
    for (off, d) in pieces {
        out.extend_from_slice(&off.to_le_bytes());
        out.extend_from_slice(&(d.len() as u64).to_le_bytes());
        out.extend_from_slice(d);
    }
    out
}

/// Zero-copy decode: each returned payload is a window into `data`'s
/// shared buffer, so unpacking a piece stream costs nothing.
fn decode_pieces(data: &Bytes) -> Result<Vec<(u64, Bytes)>, CodecError> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos < data.len() {
        let rest = data.len() - pos;
        if rest < 16 {
            return Err(CodecError::Truncated {
                need: 16,
                have: rest,
            });
        }
        let off = u64::from_le_bytes(data[pos..pos + 8].try_into().unwrap());
        let len64 = u64::from_le_bytes(data[pos + 8..pos + 16].try_into().unwrap());
        let len = usize::try_from(len64).map_err(|_| CodecError::Oversized { len: len64 })?;
        let need = 16usize
            .checked_add(len)
            .ok_or(CodecError::Oversized { len: len64 })?;
        if rest < need {
            return Err(CodecError::Truncated { need, have: rest });
        }
        out.push((off, data.slice(pos + 16..pos + need)));
        pos += need;
    }
    Ok(out)
}

/// The per-aggregator file domains covering `[lo, hi)`. Public so the
/// static planner can reproduce two-phase aggregator assignment when
/// scoring layout balance.
pub fn file_domains(lo: u64, hi: u64, naggs: usize, align: u64) -> Vec<(u64, u64)> {
    assert!(naggs > 0);
    let span = hi - lo;
    let raw = span.div_ceil(naggs as u64);
    let chunk = if align > 1 {
        raw.div_ceil(align) * align
    } else {
        raw.max(1)
    };
    (0..naggs as u64)
        .map(|a| {
            let s = (lo + a * chunk).min(hi);
            let e = (lo + (a + 1) * chunk).min(hi);
            (s, e)
        })
        .collect()
}

impl<'c, 'w> MpiFile<'c, 'w> {
    /// Allreduce the global `[lo, hi)` span of everyone's access lists
    /// (two u64 values — the cheap part of ROMIO's offset exchange).
    fn exchange_bounds(&self, regions: &[Region]) -> (u64, u64) {
        let my_lo = regions.first().map(|(o, _)| *o).unwrap_or(u64::MAX);
        let my_hi = regions.iter().map(|(o, l)| o + l).max().unwrap_or(0);
        use amrio_mpi::coll::ReduceOp;
        let lo = self.comm.allreduce_f64(
            &[if my_lo == u64::MAX {
                f64::MAX
            } else {
                my_lo as f64
            }],
            ReduceOp::Min,
        )[0];
        let hi = self.comm.allreduce_f64(&[my_hi as f64], ReduceOp::Max)[0];
        if lo == f64::MAX || hi as u64 == 0 {
            return (0, 0);
        }
        (lo as u64, hi as u64)
    }

    fn naggs(&self) -> usize {
        self.hints
            .cb_nodes
            .unwrap_or(self.comm.size())
            .clamp(1, self.comm.size())
    }

    fn domain_align(&self) -> u64 {
        if self.hints.align_file_domains {
            self.fs.lock().config().stripe
        } else {
            1
        }
    }

    /// Collective write through each rank's view (two-phase). With the
    /// `cb_write` hint off (ROMIO's `romio_cb_write disable`) this
    /// degrades to independent per-rank writes — no collectives at all.
    pub fn write_all_view(&self, buf: &[u8]) {
        if !self.hints.cb_write {
            return self.write_view(buf);
        }
        let regions = self.view_regions();
        let total: u64 = regions.iter().map(|(_, l)| l).sum();
        assert_eq!(buf.len() as u64, total, "buffer must match view size");

        // Phase 0: agree on the covered file range (like ROMIO's
        // st_offset/end_offset exchange — the pieces themselves carry
        // their offsets, so full lists are not needed for a write).
        if let Some(ck) = self.comm.checker() {
            // The write view is a contract between ranks: report ranks
            // whose tiles overlap before the exchange scrambles them.
            ck.on_view_write(self.fid, self.comm.rank(), self.comm.size(), &regions);
        }

        let (lo, hi) = self.exchange_bounds(&regions);
        if hi == lo {
            return;
        }
        let naggs = self.naggs();
        let domains = file_domains(lo, hi, naggs, self.domain_align());

        // Phase 1 (communication): route my pieces to their aggregators.
        let buf_pos = buffer_positions(&regions);
        let payloads: Vec<(usize, Vec<u8>)> = domains
            .iter()
            .enumerate()
            .map(|(dst, &(ds, de))| {
                let pieces: Vec<(u64, &[u8])> = intersect(&regions, &buf_pos, ds, de)
                    .map(|(off, r)| (off, &buf[r]))
                    .collect();
                (dst, encode_pieces(&pieces))
            })
            .collect();
        let received = self.comm.alltoallv(payloads);

        // Phase 2 (I/O): aggregators write their domains with large
        // contiguous requests. The received pieces are kept as shared
        // windows into the exchange payloads — no domain buffer is
        // assembled. Each cb-sized window of a covered span goes to the
        // file system as one gather-list request.
        let me = self.comm.rank();
        if me < naggs {
            let (ds, de) = domains[me];
            if de > ds {
                let mut pieces: Vec<(u64, Bytes)> = Vec::new();
                for (src, per_src) in &received {
                    let ps = decode_pieces(per_src).unwrap_or_else(|e| {
                        panic!("two-phase write: corrupt piece stream from rank {src}: {e}")
                    });
                    pieces.extend(ps);
                }
                let mut covered: Vec<Region> =
                    pieces.iter().map(|(o, d)| (*o, d.len() as u64)).collect();
                normalize(&mut covered);
                let mut spans: Vec<Region> =
                    pieces.iter().map(|(o, d)| (*o, d.len() as u64)).collect();
                spans.sort_unstable();
                let overlap = spans.windows(2).any(|w| w[0].0 + w[0].1 > w[1].0);
                let cb = self.hints.cb_buffer_size.max(1);
                if !overlap {
                    // Disjoint pieces tile each covered span exactly, so
                    // holes inside the domain are never touched and the
                    // last memcpy before the disk disappears.
                    pieces.sort_by_key(|&(o, _)| o);
                    self.requests("two-phase write", |rq| {
                        let mut pi = 0usize;
                        for (o, n) in cb_windows(&covered, cb) {
                            pi +=
                                pieces[pi..].partition_point(|(po, pd)| po + pd.len() as u64 <= o);
                            let parts: Vec<&[u8]> = pieces[pi..]
                                .iter()
                                .take_while(|(po, _)| *po < o + n)
                                .map(|(po, pd)| {
                                    let s = o.max(*po);
                                    let e = (o + n).min(po + pd.len() as u64);
                                    &pd[(s - po) as usize..(e - po) as usize]
                                })
                                .collect();
                            debug_assert_eq!(
                                parts.iter().map(|p| p.len() as u64).sum::<u64>(),
                                n,
                                "gather parts must tile the window"
                            );
                            rq.write_gather(o, &parts);
                        }
                    });
                } else {
                    // Overlapping pieces (concurrent-writer views, which
                    // the checker reports separately): settle last-writer
                    // order in a domain buffer first, like classic ROMIO.
                    let mut dom = vec![0u8; (de - ds) as usize];
                    for (off, data) in &pieces {
                        let p = (off - ds) as usize;
                        amrio_simt::count_copy(data.len());
                        dom[p..p + data.len()].copy_from_slice(data);
                    }
                    let mem_bw = self.comm.mem_bw();
                    self.requests("two-phase write", |rq| {
                        rq.charge(SimDur::transfer(dom.len() as u64, mem_bw)); // assemble
                        for (o, n) in cb_windows(&covered, cb) {
                            let s = (o - ds) as usize;
                            rq.write(o, &dom[s..s + n as usize]);
                        }
                    });
                }
            }
        }
    }

    /// Collective read through each rank's view (two-phase, reversed).
    /// With the `cb_read` hint off this degrades to independent per-rank
    /// reads (sieved per `ds_read`).
    pub fn read_all_view(&self) -> Vec<u8> {
        if !self.hints.cb_read {
            return self.read_view();
        }
        let regions = self.view_regions();
        let total: u64 = regions.iter().map(|(_, l)| l).sum();

        let (lo, hi) = self.exchange_bounds(&regions);
        if hi == lo {
            return vec![0u8; total as usize];
        }
        let naggs = self.naggs();
        let domains = file_domains(lo, hi, naggs, self.domain_align());
        let me = self.comm.rank();

        // Phase 0b: every rank sends each aggregator the part of its
        // access list that falls in that aggregator's file domain
        // (ROMIO's ADIOI_Calc_others_req).
        let req_payloads: Vec<(usize, Vec<u8>)> = domains
            .iter()
            .enumerate()
            .map(|(dst, &(ds, de))| {
                let clipped: Vec<Region> = regions
                    .iter()
                    .filter_map(|&(o, l)| {
                        let s = o.max(ds);
                        let e = (o + l).min(de);
                        (e > s).then(|| (s, e - s))
                    })
                    .collect();
                (dst, encode_regions(&clipped))
            })
            .collect();
        // (src, src's clipped regions inside my domain), for every rank
        // that requested any.
        let others_req: Vec<(usize, Vec<Region>)> = self
            .comm
            .alltoallv(req_payloads)
            .into_iter()
            .map(|(src, d)| {
                let regs = decode_regions(&d).unwrap_or_else(|e| {
                    panic!("two-phase read: corrupt request list from rank {src}: {e}")
                });
                (src, regs)
            })
            .collect();

        // Phase 1 (I/O): aggregators read the covered parts of their
        // domains in large requests. The chunks stay as shared buffers;
        // no domain image is assembled from them.
        let mut chunks: Vec<(u64, Bytes)> = Vec::new();
        if me < naggs {
            let (ds, de) = domains[me];
            if de > ds {
                // Union of all requests clipped to the domain.
                let mut wanted: Vec<Region> = others_req
                    .iter()
                    .flat_map(|(_, regs)| regs.iter().copied())
                    .collect();
                normalize(&mut wanted);
                let cb = self.hints.cb_buffer_size.max(1);
                chunks = self.requests("two-phase read", |rq| {
                    cb_windows(&wanted, cb)
                        .map(|(o, n)| (o, Bytes::from_vec(rq.read(o, n))))
                        .collect()
                });
            }
        }

        // Phase 2 (communication): aggregators route pieces to owners
        // (the requests arrived pre-clipped in phase 0b). Responses are
        // sliced straight out of the read chunks; a request spanning a
        // chunk boundary is split, which only adds piece headers.
        let payloads: Vec<(usize, Vec<u8>)> = others_req
            .iter()
            .map(|(dst, regs)| {
                let mut pieces: Vec<(u64, &[u8])> = Vec::new();
                for &(s, l) in regs {
                    let mut o = s;
                    let end = s + l;
                    while o < end {
                        let ci = chunks.partition_point(|(co, cd)| co + cd.len() as u64 <= o);
                        let (co, cd) = &chunks[ci];
                        debug_assert!(*co <= o, "request byte outside every read chunk");
                        let e = end.min(co + cd.len() as u64);
                        pieces.push((o, &cd[(o - co) as usize..(e - co) as usize]));
                        o = e;
                    }
                }
                (*dst, encode_pieces(&pieces))
            })
            .collect();
        let received = self.comm.alltoallv(payloads);

        // Assemble my buffer from the pieces.
        let mut out = vec![0u8; total as usize];
        let buf_pos = buffer_positions(&regions);
        for (src, per_src) in &received {
            let pieces = decode_pieces(per_src).unwrap_or_else(|e| {
                panic!("two-phase read: corrupt piece stream from rank {src}: {e}")
            });
            for (off, data) in pieces {
                // Find the region containing this piece.
                let i = regions
                    .partition_point(|&(o, l)| o + l <= off)
                    .min(regions.len().saturating_sub(1));
                let (ro, _) = regions[i];
                debug_assert!(off >= ro);
                let p = (buf_pos[i] + (off - ro)) as usize;
                amrio_simt::count_copy(data.len());
                out[p..p + data.len()].copy_from_slice(&data);
            }
        }
        out
    }
}

#[cfg(test)]
mod unit_tests {
    use super::*;

    #[test]
    fn file_domains_cover_range_in_order() {
        let d = file_domains(100, 1000, 4, 1);
        assert_eq!(d.len(), 4);
        assert_eq!(d[0].0, 100);
        assert_eq!(d.last().unwrap().1, 1000);
        for w in d.windows(2) {
            assert_eq!(w[0].1, w[1].0, "domains must tile");
        }
    }

    #[test]
    fn file_domains_align_to_stripe() {
        let d = file_domains(0, 1_000_000, 3, 65536);
        // Interior boundaries land on stripe multiples.
        for (s, _) in d.iter().skip(1) {
            assert_eq!(s % 65536, 0, "boundary {s} unaligned");
        }
        assert_eq!(d.last().unwrap().1, 1_000_000);
    }

    #[test]
    fn file_domains_more_aggs_than_bytes() {
        let d = file_domains(10, 13, 8, 1);
        let total: u64 = d.iter().map(|(s, e)| e - s).sum();
        assert_eq!(total, 3);
        assert!(d.iter().all(|(s, e)| e >= s));
    }

    #[test]
    fn pieces_encode_decode_roundtrip() {
        let a = vec![1u8, 2, 3];
        let b = vec![9u8; 10];
        let enc = encode_pieces(&[(5, &a), (100, &b)]);
        let dec = decode_pieces(&Bytes::from_vec(enc)).unwrap();
        assert_eq!(dec.len(), 2);
        assert_eq!(dec[0].0, 5);
        assert_eq!(dec[0].1, a);
        assert_eq!(dec[1].0, 100);
        assert_eq!(dec[1].1, b);
    }

    #[test]
    fn regions_encode_decode_roundtrip() {
        let r = vec![(0u64, 5u64), (1 << 40, 123)];
        assert_eq!(decode_regions(&encode_regions(&r)).unwrap(), r);
    }

    #[test]
    fn decode_regions_rejects_misaligned_stream() {
        let mut enc = encode_regions(&[(7, 9)]);
        enc.pop();
        assert_eq!(
            decode_regions(&enc),
            Err(CodecError::Misaligned { len: 15 })
        );
        assert_eq!(
            decode_regions(&[0u8; 3]),
            Err(CodecError::Misaligned { len: 3 })
        );
    }

    #[test]
    fn decode_pieces_rejects_truncated_header() {
        // 10 bytes cannot hold the 16-byte (offset, len) header.
        let err = decode_pieces(&Bytes::from_vec(vec![0u8; 10])).unwrap_err();
        assert_eq!(err, CodecError::Truncated { need: 16, have: 10 });
    }

    #[test]
    fn decode_pieces_rejects_truncated_payload() {
        let body = vec![1u8, 2, 3, 4];
        let mut enc = encode_pieces(&[(42, &body)]);
        enc.truncate(enc.len() - 2); // header says 4 bytes, only 2 remain
        let err = decode_pieces(&Bytes::from_vec(enc)).unwrap_err();
        assert_eq!(err, CodecError::Truncated { need: 20, have: 18 });
    }

    #[test]
    fn decode_pieces_rejects_absurd_length() {
        let mut enc = Vec::new();
        enc.extend_from_slice(&0u64.to_le_bytes());
        enc.extend_from_slice(&u64::MAX.to_le_bytes()); // claimed payload len
        let err = decode_pieces(&Bytes::from_vec(enc)).unwrap_err();
        assert!(matches!(
            err,
            CodecError::Truncated { .. } | CodecError::Oversized { .. }
        ));
    }

    #[test]
    fn intersect_clips_and_offsets_buffers() {
        let regions = vec![(10u64, 10u64), (30, 10)];
        let pos = buffer_positions(&regions);
        assert_eq!(pos, vec![0, 10]);
        let hits: Vec<_> = intersect(&regions, &pos, 15, 35).collect();
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0], (15, 5..10));
        assert_eq!(hits[1], (30, 10..15));
    }
}
