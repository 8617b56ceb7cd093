//! The one request path from the MPI-IO library to the file system:
//! bounded retry, virtual-time backoff, and server failover around the
//! fallible [`Pfs`] request, behind one request context.
//!
//! Every file system request issued by this crate goes through a
//! [`Requests`] context, opened by `MpiFile::requests` as the handle's
//! single `Comm::io` section. The context carries the volume, the
//! network, the client rank, the file, the retry policy, the name of
//! the operation and the section's virtual clock; its `write`,
//! `write_gather`, `read` and `read_scatter` methods submit one request
//! at that clock and advance it to the completion, and `charge` adds
//! local CPU or memcpy time between requests.
//!
//! Each request is submitted by [`submit_retrying`]. A transient error
//! re-submits the same [`IoOp`] after an exponential virtual-time
//! backoff, bounded by [`RetryPolicy::max_retries`]. A permanent server
//! failure (when [`RetryPolicy::failover`] is set) drops the server from
//! the stripe map via [`Pfs::degrade_server`] and re-submits against the
//! survivors, so a dump in flight completes in degraded mode instead of
//! failing. All recovery actions land in the attached fault plan's
//! resilience stats; with no plan attached the loop succeeds on the
//! first iteration and is timing-neutral. When recovery is exhausted
//! the request panics with `"<operation>: unrecoverable I/O fault"`.

use amrio_disk::{FileId, IoCompletion, IoError, IoOp, IoResult, Pfs, RetryPolicy};
use amrio_net::{Endpoint, Net};
use amrio_simt::{SimDur, SimTime};

/// Submit `op` at virtual time `t`, applying `policy` until the request
/// completes or recovery is exhausted. Failed attempts charge time but
/// have no other side effects, so a retried op is priced exactly like a
/// fresh submission at its resume clock.
fn submit_retrying(
    fs: &mut Pfs,
    net: &mut Net,
    client: Endpoint,
    fid: FileId,
    op: &mut IoOp<'_, '_>,
    t: SimTime,
    policy: RetryPolicy,
) -> IoResult<IoCompletion> {
    let mut cur = t;
    let mut retries = 0u32;
    loop {
        match fs.submit(client, net, fid, op, cur) {
            Ok(c) => {
                if policy
                    .op_timeout
                    .is_some_and(|limit| c.done.saturating_since(t) > limit)
                {
                    if let Some(plan) = fs.faults() {
                        plan.note_timeout();
                    }
                }
                return Ok(c);
            }
            Err(IoError::ServerDown { server, at }) if policy.failover => {
                // Drop the dead server from the stripe map and re-price
                // the op against the survivors. `degrade_server` records
                // the failover; a `false` return means a concurrent op
                // already degraded it, and the remap alone suffices.
                fs.degrade_server(server, at);
                cur = at;
            }
            Err(e @ IoError::Transient { .. }) if retries < policy.max_retries => {
                if let Some(plan) = fs.faults() {
                    plan.note_retry();
                }
                // Saturating: `backoff_for` clamps to u64::MAX at high
                // attempt counts, which a plain `+` would overflow.
                cur = e.at().saturating_add(policy.backoff_for(retries));
                retries += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// One rank's sequence of file system requests on one file, issued back
/// to back inside a single ordered I/O section.
pub(crate) struct Requests<'a> {
    pub(crate) fs: &'a mut Pfs,
    pub(crate) net: &'a mut Net,
    pub(crate) client: Endpoint,
    pub(crate) fid: FileId,
    pub(crate) policy: RetryPolicy,
    /// Operation name carried by the unrecoverable-fault panic.
    pub(crate) what: &'static str,
    /// Virtual clock of the section: the issue time of the next request.
    pub(crate) clock: SimTime,
}

impl Requests<'_> {
    fn submit(&mut self, mut op: IoOp<'_, '_>) -> IoCompletion {
        let c = submit_retrying(
            self.fs,
            self.net,
            self.client,
            self.fid,
            &mut op,
            self.clock,
            self.policy,
        )
        .unwrap_or_else(|e| panic!("{}: unrecoverable I/O fault: {e}", self.what));
        self.clock = c.done;
        c
    }

    pub(crate) fn write(&mut self, off: u64, data: &[u8]) {
        self.submit(IoOp::Write { off, data });
    }

    pub(crate) fn write_gather(&mut self, off: u64, parts: &[&[u8]]) {
        self.submit(IoOp::WriteGather { off, parts });
    }

    pub(crate) fn read(&mut self, off: u64, len: u64) -> Vec<u8> {
        let c = self.submit(IoOp::Read { off, len });
        c.data.expect("read completion carries data")
    }

    pub(crate) fn read_scatter(&mut self, off: u64, parts: &mut [&mut [u8]]) {
        self.submit(IoOp::ReadScatter { off, parts });
    }

    /// Advance the section clock by local work between requests.
    pub(crate) fn charge(&mut self, d: SimDur) {
        self.clock += d;
    }
}
