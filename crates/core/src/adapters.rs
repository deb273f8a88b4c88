//! Bridges from installed grafts to the subsystem hook traits.
//!
//! Each adapter owns (a shared handle to) a [`GraftInstance`] and
//! implements one of the kernel's delegate traits by marshalling the
//! request into the graft's segment, invoking the graft through the
//! transactional wrapper, and unmarshalling the result. When the graft
//! aborts or is dead, every adapter falls back to the default kernel
//! behaviour — "the graft stub then calls the default function (i.e.,
//! the function that was replaced by the graft)" (§3.1).
//!
//! ## Shared-buffer layout (graft-segment byte offsets)
//!
//! | Offset | Contents |
//! |---|---|
//! | 0..16  | request header (per adapter, little-endian u32 fields) |
//! | 16..   | request payload (resident-page / runnable lists) |
//! | [`APP_BUF`].. | application-shared region (§4.1.2's pattern buffer, §4.2.2's pinned-page list) |

use std::cell::RefCell;
use std::rc::Rc;

use vino_fs::fs::{default_compute_ra, Extent, RaRequest, ReadAheadDelegate};
use vino_mem::{EvictionDelegate, PageId};
use vino_sched::{SchedSnapshot, ScheduleDelegate};
use vino_sim::ThreadId;

use crate::engine::{CommitMode, GraftInstance, InvokeOutcome};

/// Start of the application-shared region within a graft segment. The
/// application writes its hints here (predicted offsets, pinned pages);
/// the graft reads them under SFI.
pub const APP_BUF: usize = 1024;

/// A shared, inspectable handle to an installed graft.
pub type SharedGraft = Rc<RefCell<GraftInstance>>;

/// Wraps an instance for attachment to a subsystem hook.
pub fn share(instance: GraftInstance) -> SharedGraft {
    Rc::new(RefCell::new(instance))
}

// ---------------------------------------------------------------------------
// Read-ahead (§4.1).
// ---------------------------------------------------------------------------

/// Adapts a graft to the open-file `compute-ra` hook.
///
/// Request marshalling: header `{offset, len, sequential, file_size}`
/// as u32s at offsets 0/4/8/12 (plus high halves at 16/20 for large
/// files). The graft submits extents via the `ra_submit` kernel call.
pub struct RaGraftAdapter {
    /// The underlying instance (shared so callers can inspect it).
    pub instance: SharedGraft,
    /// Commit mode; `AbortAtEnd` is the benchmark "abort path" (the
    /// instance is revived after each aborted run so the measurement
    /// can repeat).
    pub mode: CommitMode,
}

impl RaGraftAdapter {
    /// A normally-committing adapter.
    pub fn new(instance: SharedGraft) -> RaGraftAdapter {
        RaGraftAdapter { instance, mode: CommitMode::Commit }
    }
}

impl ReadAheadDelegate for RaGraftAdapter {
    fn compute_ra(&mut self, req: &RaRequest) -> Vec<Extent> {
        let mut g = self.instance.borrow_mut();
        if g.is_dead() {
            return default_compute_ra(req);
        }
        {
            let mem = g.mem();
            mem.graft_write_u32(0, req.offset as u32);
            mem.graft_write_u32(4, req.len as u32);
            mem.graft_write_u32(8, req.sequential as u32);
            mem.graft_write_u32(12, req.file_size as u32);
            mem.graft_write_u32(16, (req.offset >> 32) as u32);
            mem.graft_write_u32(20, (req.file_size >> 32) as u32);
        }
        let out =
            g.invoke_mode([req.offset, req.len, req.sequential as u64, req.file_size], self.mode);
        if self.mode == CommitMode::AbortAtEnd {
            g.revive();
        }
        match out {
            InvokeOutcome::Ok { extents, .. } => {
                extents.into_iter().map(|(offset, len)| Extent { offset, len }).collect()
            }
            // Abort ⇒ forcibly unloaded ⇒ default policy (§3.6).
            InvokeOutcome::Aborted { .. } | InvokeOutcome::Dead => default_compute_ra(req),
        }
    }
}

// ---------------------------------------------------------------------------
// Page eviction (§4.2).
// ---------------------------------------------------------------------------

/// Adapts a graft to the per-VAS page-eviction hook.
///
/// Request marshalling: `victim` u32 at 0, `count` u32 at 4, resident
/// page ids u32 each from offset 8. Result: the halt value, interpreted
/// as a page id (the kernel re-verifies it regardless — §4.2.1).
pub struct EvictGraftAdapter {
    /// The underlying instance.
    pub instance: SharedGraft,
    /// Bound on the marshalled resident list (the kernel does not copy
    /// unbounded lists into a graft segment).
    pub max_pages: usize,
    /// Commit mode (see [`RaGraftAdapter::mode`]).
    pub mode: CommitMode,
}

impl EvictGraftAdapter {
    /// A normally-committing adapter.
    pub fn new(instance: SharedGraft) -> EvictGraftAdapter {
        EvictGraftAdapter { instance, max_pages: 1024, mode: CommitMode::Commit }
    }
}

impl EvictionDelegate for EvictGraftAdapter {
    fn choose(&mut self, victim: PageId, resident: &[PageId]) -> PageId {
        let mut g = self.instance.borrow_mut();
        if g.is_dead() {
            return victim;
        }
        let n = resident.len().min(self.max_pages);
        {
            let mem = g.mem();
            mem.graft_write_u32(0, victim.0 as u32);
            mem.graft_write_u32(4, n as u32);
            for (i, p) in resident.iter().take(n).enumerate() {
                mem.graft_write_u32(8 + 4 * i, p.0 as u32);
            }
        }
        let out = g.invoke_mode([victim.0, n as u64, 0, 0], self.mode);
        if self.mode == CommitMode::AbortAtEnd {
            g.revive();
        }
        match out {
            InvokeOutcome::Ok { result, .. } => PageId(result),
            InvokeOutcome::Aborted { .. } | InvokeOutcome::Dead => victim,
        }
    }
}

// ---------------------------------------------------------------------------
// Scheduling (§4.3).
// ---------------------------------------------------------------------------

/// Adapts a graft to the `schedule-delegate` hook.
///
/// Request marshalling: `chosen` u32 at 0, `count` u32 at 4, runnable
/// thread ids u32 each from offset 8. Result: the halt value as a
/// thread id (verified by the scheduler against the valid-thread hash
/// table).
pub struct SchedGraftAdapter {
    /// The underlying instance.
    pub instance: SharedGraft,
    /// Bound on the marshalled runnable list.
    pub max_threads: usize,
    /// Commit mode (see [`RaGraftAdapter::mode`]).
    pub mode: CommitMode,
}

impl SchedGraftAdapter {
    /// A normally-committing adapter.
    pub fn new(instance: SharedGraft) -> SchedGraftAdapter {
        SchedGraftAdapter { instance, max_threads: 256, mode: CommitMode::Commit }
    }
}

impl ScheduleDelegate for SchedGraftAdapter {
    fn delegate(&mut self, snapshot: &SchedSnapshot<'_>) -> ThreadId {
        let mut g = self.instance.borrow_mut();
        if g.is_dead() {
            return snapshot.chosen;
        }
        let n = snapshot.runnable.len().min(self.max_threads);
        {
            let mem = g.mem();
            mem.graft_write_u32(0, snapshot.chosen.0 as u32);
            mem.graft_write_u32(4, n as u32);
            for (i, t) in snapshot.runnable.iter().take(n).enumerate() {
                mem.graft_write_u32(8 + 4 * i, t.0 as u32);
            }
        }
        let out = g.invoke_mode([snapshot.chosen.0, n as u64, 0, 0], self.mode);
        if self.mode == CommitMode::AbortAtEnd {
            g.revive();
        }
        match out {
            InvokeOutcome::Ok { result, .. } => ThreadId(result),
            InvokeOutcome::Aborted { .. } | InvokeOutcome::Dead => snapshot.chosen,
        }
    }
}

// ---------------------------------------------------------------------------
// Stream grafts (§4.4).
// ---------------------------------------------------------------------------

/// Byte offset of the input buffer within a stream graft's segment.
pub const STREAM_IN: usize = 4096;
/// Byte offset of the output buffer.
pub const STREAM_OUT: usize = 4096 + 8192;
/// Maximum stream payload per invocation (the paper's 8 KB buffers).
pub const STREAM_MAX: usize = 8192;

/// Adapts a graft to a stream-transform position (encryption,
/// compression, logging, mirroring — §4.4). "The graft is passed an 8KB
/// input data buffer block and an 8KB output buffer."
pub struct StreamGraftAdapter {
    /// The underlying instance.
    pub instance: SharedGraft,
}

impl StreamGraftAdapter {
    /// Runs the transform. Returns the transformed bytes, or `None`
    /// when the graft aborted/died (callers fall back to the identity
    /// copy — the default kernel path).
    pub fn transform(&mut self, input: &[u8]) -> Option<Vec<u8>> {
        assert!(input.len() <= STREAM_MAX, "stream payload exceeds 8KB buffer");
        let mut g = self.instance.borrow_mut();
        if g.is_dead() {
            return None;
        }
        let (in_addr, out_addr) = {
            let mem = g.mem();
            mem.graft_bytes_mut(STREAM_IN, input.len())?.copy_from_slice(input);
            (mem.seg_base() + STREAM_IN as u64, mem.seg_base() + STREAM_OUT as u64)
        };
        match g.invoke([in_addr, out_addr, input.len() as u64, 0]) {
            InvokeOutcome::Ok { .. } => {
                Some(g.mem().graft_bytes(STREAM_OUT, input.len())?.to_vec())
            }
            InvokeOutcome::Aborted { .. } | InvokeOutcome::Dead => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vino_rm::PrincipalId;
    use vino_sim::VirtualClock;
    use vino_vm::asm::assemble;
    use vino_vm::mem::{AddressSpace, Protection};

    use crate::engine::GraftEngine;
    use crate::hostfn;

    fn make(src: &str, seg: usize) -> SharedGraft {
        let engine = GraftEngine::new(vino_sim::Observer::new(VirtualClock::new()));
        let prog = assemble("adapter-test", src, &hostfn::symbols()).unwrap();
        let principal: PrincipalId = engine.rm.borrow_mut().create_graft_principal();
        let mem = AddressSpace::new(seg, 1024, Protection::Sfi);
        share(GraftInstance::new(engine, prog, mem, ThreadId(1), principal).unwrap())
    }

    #[test]
    fn ra_adapter_returns_submitted_extents() {
        // Graft: prefetch the block after the one just read (like the
        // default policy, but implemented in graft code): offset+len.
        let g = make(
            "
            add r1, r1, r2   ; next offset = req.offset + req.len
            const r2, 4096
            call $ra_submit
            halt r0
            ",
            8192,
        );
        let mut a = RaGraftAdapter::new(Rc::clone(&g));
        let req = RaRequest { offset: 8192, len: 4096, sequential: false, file_size: 1 << 20 };
        let extents = a.compute_ra(&req);
        assert_eq!(extents, vec![Extent { offset: 12288, len: 4096 }]);
    }

    #[test]
    fn ra_adapter_falls_back_on_abort() {
        let g = make("const r1, 0\nconst r2, 0\ndiv r0, r1, r2\nhalt r0", 8192);
        let mut a = RaGraftAdapter::new(Rc::clone(&g));
        let req = RaRequest { offset: 0, len: 4096, sequential: true, file_size: 1 << 20 };
        let extents = a.compute_ra(&req);
        // Fallback is the default sequential policy.
        assert_eq!(extents, default_compute_ra(&req));
        assert!(g.borrow().is_dead());
        // Subsequent calls short-circuit to the default.
        let again = a.compute_ra(&req);
        assert_eq!(again, default_compute_ra(&req));
    }

    #[test]
    fn ra_request_visible_in_shared_header() {
        // The graft echoes header fields back through the trace log.
        let g = make(
            "
            call $shared_base
            mov r5, r0
            loadw r1, [r5+0]   ; offset
            call $log
            loadw r1, [r5+8]   ; sequential flag
            call $log
            halt r0
            ",
            8192,
        );
        let mut a = RaGraftAdapter::new(Rc::clone(&g));
        let req = RaRequest { offset: 12345, len: 1, sequential: true, file_size: 1 << 20 };
        a.compute_ra(&req);
        // No ra_submit calls: no extents; but the graft saw the header.
        // (Inspect via a second invocation's log? The adapter consumed
        // the outcome; instead verify via kv? Simplest: re-run manually.)
        let mut inst = g.borrow_mut();
        inst.mem().graft_write_u32(0, 777);
        match inst.invoke([0; 4]) {
            InvokeOutcome::Ok { log, .. } => assert_eq!(log[0], 777),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn evict_adapter_round_trip() {
        // Graft scans the resident list and returns the last entry.
        let g = make(
            "
            call $shared_base
            mov r5, r0
            loadw r2, [r5+4]    ; count
            subi r2, r2, 1
            muli r2, r2, 4
            add r5, r5, r2
            loadw r0, [r5+8]    ; resident[count-1]
            halt r0
            ",
            8192,
        );
        let mut a = EvictGraftAdapter::new(g);
        let resident = [PageId(10), PageId(11), PageId(12)];
        let choice = a.choose(PageId(10), &resident);
        assert_eq!(choice, PageId(12));
    }

    #[test]
    fn evict_adapter_falls_back_to_victim_on_abort() {
        let g = make("spin: jmp spin", 4096);
        g.borrow_mut().max_slices = 2;
        let mut a = EvictGraftAdapter::new(Rc::clone(&g));
        let choice = a.choose(PageId(5), &[PageId(5), PageId(6)]);
        assert_eq!(choice, PageId(5), "abort ⇒ accept the global victim");
        assert!(g.borrow().is_dead());
    }

    #[test]
    fn sched_adapter_round_trip() {
        // Graft always returns the second runnable thread.
        let g = make(
            "
            call $shared_base
            mov r5, r0
            loadw r0, [r5+12]   ; runnable[1]
            halt r0
            ",
            4096,
        );
        let mut a = SchedGraftAdapter::new(g);
        let runnable = [ThreadId(3), ThreadId(4)];
        let snap = SchedSnapshot { chosen: ThreadId(3), runnable: &runnable };
        assert_eq!(a.delegate(&snap), ThreadId(4));
    }

    #[test]
    fn stream_adapter_xor_transform() {
        // The §4.4 graft: xor-encrypt input into output, word by word.
        let g = make(
            "
            ; r1 = in addr, r2 = out addr, r3 = len (bytes)
            const r4, 0          ; i
            const r5, 0x5A5A5A5A ; key
            loop:
            bgeu r4, r3, done
            add r6, r1, r4
            loadw r7, [r6+0]
            xor r7, r7, r5
            add r6, r2, r4
            storew r7, [r6+0]
            addi r4, r4, 4
            jmp loop
            done:
            halt r0
            ",
            32 * 1024,
        );
        let mut a = StreamGraftAdapter { instance: g };
        let input: Vec<u8> = (0..256u32).flat_map(|i| i.to_le_bytes()).collect();
        let out = a.transform(&input).expect("graft must succeed");
        assert_eq!(out.len(), input.len());
        for (i, chunk) in out.chunks(4).enumerate() {
            let got = u32::from_le_bytes(chunk.try_into().unwrap());
            assert_eq!(got, (i as u32) ^ 0x5A5A5A5A);
        }
        // Decrypting (running the graft again over the output) restores
        // the plaintext — the "symmetrical decryption" of §4.4.
        let g2 = a.instance.clone();
        let mut a2 = StreamGraftAdapter { instance: g2 };
        assert_eq!(a2.transform(&out).unwrap(), input);
    }

    #[test]
    fn stream_adapter_none_on_dead() {
        let g = make("spin: jmp spin", 32 * 1024);
        g.borrow_mut().max_slices = 1;
        let mut a = StreamGraftAdapter { instance: Rc::clone(&g) };
        assert!(a.transform(&[0u8; 64]).is_none());
        assert!(a.transform(&[0u8; 64]).is_none(), "dead graft stays dead");
    }
}
