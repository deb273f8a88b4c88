//! The graft address space and SFI memory model.
//!
//! §2 of the paper: "Each graft receives its own heap and stack" and SFI
//! "is used instead of the traditional VM mechanisms to prevent illegal
//! data accesses". We model the machine's physical address space as two
//! regions:
//!
//! - the **graft segment**: a power-of-two sized, alignment-matched
//!   region holding the graft's heap, stack and any buffers the kernel
//!   shares with it (e.g. the read-ahead pattern buffer of §4.1.2);
//! - the **kernel region**: memory owned by the kernel. An *unprotected*
//!   graft that computes a wild address can read and write this region —
//!   exactly the disaster the paper is about. MiSFIT's `Clamp` pseudo-op
//!   makes that impossible by construction: after clamping, an address
//!   always falls inside the graft segment.
//!
//! Addresses that hit neither region model an unmapped page and raise a
//! fault regardless of protection.

use std::fmt;

/// Whether the executing graft was processed by MiSFIT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protection {
    /// Code went through the SFI pass; wild kernel-region accesses can
    /// still be *attempted* by a buggy rewriter, so they fault loudly.
    Sfi,
    /// Raw, un-instrumented code (the paper's "unsafe path"): kernel
    /// region accesses silently succeed, corrupting kernel state.
    Unprotected,
}

/// Memory access errors (surfaced as [`crate::interp::Trap`]s).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// Address not mapped by the graft segment or the kernel region.
    Unmapped { addr: u64 },
    /// An SFI-protected graft touched the kernel region (only possible
    /// if instrumentation was bypassed, which the loader prevents).
    KernelRegion { addr: u64 },
    /// Access crossed the end of a region.
    Straddle { addr: u64 },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::Unmapped { addr } => write!(f, "unmapped address {addr:#x}"),
            MemError::KernelRegion { addr } => {
                write!(f, "SFI violation: kernel region access at {addr:#x}")
            }
            MemError::Straddle { addr } => write!(f, "access straddles region end at {addr:#x}"),
        }
    }
}

/// The two-region physical address space a graft executes in.
#[derive(Debug, Clone)]
pub struct AddressSpace {
    seg_base: u64,
    seg_mask: u64,
    graft: Vec<u8>,
    kernel_base: u64,
    kernel: Vec<u8>,
    protection: Protection,
    /// Number of kernel-region writes an unprotected graft performed —
    /// the "corruption meter" integration tests assert on.
    kernel_writes: u64,
}

/// Guard-zone bytes appended to the graft segment. Wahbe et al.'s SFI
/// design places unmapped-in-spirit guard zones around each segment so a
/// clamped *base* address plus a small constant offset (here, the width
/// of the widest access) cannot escape into another region. Guard bytes
/// are graft-owned scratch: spilling into them is harmless.
pub const GUARD_BYTES: usize = 8;

/// Default base address of the graft segment.
pub const DEFAULT_SEG_BASE: u64 = 0x0010_0000;
/// Default base address of the kernel region.
pub const DEFAULT_KERNEL_BASE: u64 = 0xC000_0000;

impl AddressSpace {
    /// Creates an address space with a graft segment of `seg_size` bytes
    /// (rounded up to a power of two, minimum 256) based at
    /// [`DEFAULT_SEG_BASE`] and a kernel region of `kernel_size` bytes.
    pub fn new(seg_size: usize, kernel_size: usize, protection: Protection) -> AddressSpace {
        let size = seg_size.next_power_of_two().max(256);
        let base = DEFAULT_SEG_BASE.next_multiple_of(size as u64);
        AddressSpace {
            seg_base: base,
            seg_mask: size as u64 - 1,
            graft: vec![0; size + GUARD_BYTES],
            kernel_base: DEFAULT_KERNEL_BASE,
            kernel: vec![0; kernel_size],
            protection,
            kernel_writes: 0,
        }
    }

    /// Base address of the graft segment.
    pub fn seg_base(&self) -> u64 {
        self.seg_base
    }

    /// Size of the graft segment in bytes (a power of two), excluding
    /// the trailing [`GUARD_BYTES`] guard zone.
    pub fn seg_size(&self) -> u64 {
        self.seg_mask + 1
    }

    /// Base address of the simulated kernel region.
    pub fn kernel_base(&self) -> u64 {
        self.kernel_base
    }

    /// The protection mode this space enforces.
    pub fn protection(&self) -> Protection {
        self.protection
    }

    /// The MiSFIT sandbox operation: forces `addr` into the graft
    /// segment by masking (`(addr & mask) | base`). Matches the
    /// two-instruction and/or sequence MiSFIT emits on x86.
    pub fn clamp(&self, addr: u64) -> u64 {
        (addr & self.seg_mask) | self.seg_base
    }

    /// True if `addr` lies inside the graft segment.
    pub fn in_segment(&self, addr: u64) -> bool {
        addr >= self.seg_base && addr < self.seg_base + self.seg_size()
    }

    /// Number of kernel-region bytes writable by unprotected grafts.
    pub fn kernel_len(&self) -> usize {
        self.kernel.len()
    }

    /// How many kernel-region writes have occurred (corruption meter).
    pub fn kernel_write_count(&self) -> u64 {
        self.kernel_writes
    }

    /// Reads `len ∈ {1,4}` bytes at `addr` as a zero-extended value.
    #[inline]
    pub fn read(&mut self, addr: u64, len: u32) -> Result<u64, MemError> {
        let (bytes, _) = self.locate(addr, len as usize)?;
        let mut le = [0u8; 8];
        le[..bytes.len()].copy_from_slice(bytes);
        Ok(u64::from_le_bytes(le))
    }

    /// Writes the low `len ∈ {1,4}` bytes of `val` at `addr`.
    #[inline]
    pub fn write(&mut self, addr: u64, val: u64, len: u32) -> Result<(), MemError> {
        let (bytes, region) = self.locate(addr, len as usize)?;
        bytes.copy_from_slice(&val.to_le_bytes()[..bytes.len()]);
        if region == Region::Kernel {
            self.kernel_writes += 1;
        }
        Ok(())
    }

    /// Host-side access to graft-segment memory (no SFI semantics; used
    /// by kernel functions that exchange buffers with the graft, e.g.
    /// the shared read-ahead pattern buffer of §4.1.2).
    pub fn graft_bytes(&self, offset: usize, len: usize) -> Option<&[u8]> {
        self.graft.get(offset..offset + len)
    }

    /// Mutable host-side access to graft-segment memory.
    pub fn graft_bytes_mut(&mut self, offset: usize, len: usize) -> Option<&mut [u8]> {
        self.graft.get_mut(offset..offset + len)
    }

    /// Reads a little-endian u32 from the graft segment by offset.
    pub fn graft_read_u32(&self, offset: usize) -> Option<u32> {
        self.graft_bytes(offset, 4).map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Writes a little-endian u32 into the graft segment by offset.
    pub fn graft_write_u32(&mut self, offset: usize, v: u32) -> Option<()> {
        self.graft_bytes_mut(offset, 4).map(|b| b.copy_from_slice(&v.to_le_bytes()))
    }

    /// Host-side read of kernel-region memory (for corruption checks).
    pub fn kernel_bytes(&self, offset: usize, len: usize) -> Option<&[u8]> {
        self.kernel.get(offset..offset + len)
    }

    /// Host-side write of kernel-region memory (to set up sentinels).
    pub fn kernel_bytes_mut(&mut self, offset: usize, len: usize) -> Option<&mut [u8]> {
        self.kernel.get_mut(offset..offset + len)
    }

    /// The `len` bytes at `addr` and the region holding them: one
    /// region lookup, the graft segment first. The guard zone counts as
    /// graft memory for access purposes, but clamp never produces an
    /// address inside it.
    #[inline]
    fn locate(&mut self, addr: u64, len: usize) -> Result<(&mut [u8], Region), MemError> {
        let (bytes, base, region) = if addr.wrapping_sub(self.seg_base) < self.graft.len() as u64 {
            (&mut self.graft, self.seg_base, Region::Graft)
        } else if addr.wrapping_sub(self.kernel_base) < self.kernel.len() as u64 {
            if self.protection == Protection::Sfi {
                // Instrumented code cannot reach here (Clamp precedes
                // every access); if it does, the rewriter was bypassed
                // and we fault loudly instead of corrupting.
                return Err(MemError::KernelRegion { addr });
            }
            (&mut self.kernel, self.kernel_base, Region::Kernel)
        } else {
            return Err(MemError::Unmapped { addr });
        };
        let off = (addr - base) as usize;
        match bytes.get_mut(off..off + len) {
            Some(b) => Ok((b, region)),
            None => Err(MemError::Straddle { addr }),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Region {
    Graft,
    Kernel,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space(prot: Protection) -> AddressSpace {
        AddressSpace::new(4096, 4096, prot)
    }

    #[test]
    fn segment_is_power_of_two_and_aligned() {
        let m = AddressSpace::new(5000, 0, Protection::Sfi);
        assert_eq!(m.seg_size(), 8192);
        assert_eq!(m.seg_base() % m.seg_size(), 0);
    }

    #[test]
    fn clamp_always_lands_in_segment() {
        let m = space(Protection::Sfi);
        for addr in [0u64, 1, 0xdead_beef, u64::MAX, m.kernel_base() + 10] {
            let c = m.clamp(addr);
            assert!(m.in_segment(c), "clamp({addr:#x}) = {c:#x} escaped the segment");
        }
    }

    #[test]
    fn clamp_is_identity_inside_segment() {
        let m = space(Protection::Sfi);
        for off in [0u64, 4, 100, m.seg_size() - 1] {
            let addr = m.seg_base() + off;
            assert_eq!(m.clamp(addr), addr);
        }
    }

    #[test]
    fn read_write_word_round_trip() {
        let mut m = space(Protection::Sfi);
        let a = m.seg_base() + 16;
        m.write(a, 0xAABB_CCDD, 4).unwrap();
        assert_eq!(m.read(a, 4).unwrap(), 0xAABB_CCDD);
        // Little-endian byte view.
        assert_eq!(m.read(a, 1).unwrap(), 0xDD);
    }

    #[test]
    fn sfi_mode_faults_on_kernel_region() {
        let mut m = space(Protection::Sfi);
        let k = m.kernel_base();
        assert_eq!(m.write(k, 1, 4), Err(MemError::KernelRegion { addr: k }));
        assert_eq!(m.read(k, 4), Err(MemError::KernelRegion { addr: k }));
        assert_eq!(m.kernel_write_count(), 0);
    }

    #[test]
    fn unprotected_mode_corrupts_kernel_region() {
        let mut m = space(Protection::Unprotected);
        let k = m.kernel_base();
        m.write(k + 8, 0x41414141, 4).unwrap();
        assert_eq!(m.read(k + 8, 4).unwrap(), 0x41414141);
        assert_eq!(m.kernel_write_count(), 1);
        assert_eq!(m.kernel_bytes(8, 4).unwrap(), &0x41414141u32.to_le_bytes());
    }

    #[test]
    fn unmapped_addresses_fault() {
        let mut m = space(Protection::Unprotected);
        assert!(matches!(m.read(0, 4), Err(MemError::Unmapped { .. })));
        assert!(matches!(m.write(u64::MAX - 3, 0, 4), Err(MemError::Unmapped { .. })));
    }

    #[test]
    fn straddling_access_faults() {
        let mut m = space(Protection::Sfi);
        // A word access near the segment end spills into the guard zone:
        // allowed (this is the point of the guard zone).
        let near_end = m.seg_base() + m.seg_size() - 2;
        assert!(m.write(near_end, 0, 4).is_ok());
        // Past the guard zone the access straddles and faults.
        let past_guard = m.seg_base() + m.seg_size() + GUARD_BYTES as u64 - 2;
        assert!(matches!(m.write(past_guard, 0, 4), Err(MemError::Straddle { .. })));
        // A one-byte access at the same spot is fine.
        assert!(m.write(past_guard, 0, 1).is_ok());
    }

    #[test]
    fn host_side_graft_buffer_access() {
        let mut m = space(Protection::Sfi);
        m.graft_write_u32(64, 7).unwrap();
        assert_eq!(m.graft_read_u32(64), Some(7));
        // VM-side sees the same bytes.
        assert_eq!(m.read(m.seg_base() + 64, 4).unwrap(), 7);
        assert!(m.graft_read_u32(m.seg_size() as usize + GUARD_BYTES).is_none());
    }
}
