//! Wire frames for the replication plane.
//!
//! A committed [`JournalRecord`] travels as one *record frame*: the
//! entry table and payload blocks re-marshalled for the wire, with a
//! fresh FNV-1a seal over the entry table, computed at ship time and
//! xor-bound to the record's sequence. The table holds every payload's
//! checksum, so the seal covers the payloads through it: reassembly
//! checks the seal, then builds the record through
//! [`JournalRecord::verified`], which hashes each payload against its
//! entry. A frame replayed under the wrong sequence, or corrupted
//! anywhere in flight, is refused at reassembly rather than applied,
//! and each payload block passes through FNV-1a once per node — at
//! journal commit on the primary, at reassembly on the replica. The
//! journal's own on-disk seals never leave the primary; the wire
//! carries its own.
//!
//! A record frame is bigger than the packet plane allows (one payload
//! block alone is [`BLOCK_SIZE`] = 4096 bytes against a
//! [`PAYLOAD_CAP`] of 2048), so frames are split into fragments, each
//! carrying `(kind, seq, index, count)` ahead of its chunk. The
//! [`Reassembler`] tolerates fragments arriving in any order and
//! interleaved across sequences; a record surfaces only when its last
//! missing fragment lands and its seal and payloads verify.
//!
//! Acks are a single small frame: the cumulative applied sequence plus
//! a seal. There is no negative ack — loss in either direction is
//! repaired by the shipper's go-back-N retransmission.

use std::collections::BTreeMap;

use vino_fs::layout::checksum64;
use vino_fs::{JournalDescriptor, JournalRecord, BLOCK_SIZE};
use vino_net::PAYLOAD_CAP;
use vino_sim::trace::CauseCtx;

/// Frame kind tag: a fragment of a marshalled record.
pub const KIND_RECORD: u8 = 1;
/// Frame kind tag: a cumulative acknowledgement.
pub const KIND_ACK: u8 = 2;

/// Per-fragment header: kind (1) + record sequence (8) + fragment
/// index (2) + fragment count (2) + causal context (16 — the ship
/// span propagated in-band, [`CauseCtx::WIRE_BYTES`]).
pub const FRAG_HEADER: usize = 13 + CauseCtx::WIRE_BYTES;

/// Chunk bytes carried per fragment.
const CHUNK: usize = PAYLOAD_CAP - FRAG_HEADER;

/// Fragments in the largest record frame: one whose entry table fills
/// a journal descriptor. [`Reassembler::accept`] refuses a fragment
/// that claims more, so a forged count cannot make it allocate.
pub const MAX_FRAGS: usize = body_len(JournalDescriptor::MAX_ENTRIES).div_ceil(CHUNK);

/// Length of a marshalled record body with `n` entries.
const fn body_len(n: usize) -> usize {
    4 + n * (16 + BLOCK_SIZE) + 8
}

/// Marshals a record body: entry count, entry table, payload blocks,
/// and a trailing seal — FNV-1a over the count and entry table,
/// xor-bound to the record's sequence (the "re-seal on ship"). The
/// payloads are bound through their checksums in the table, so the
/// seal costs a few bytes per block, not a pass over each one.
pub fn marshal(rec: &JournalRecord) -> Vec<u8> {
    let n = rec.entries().len();
    let mut out = Vec::with_capacity(body_len(n));
    out.extend_from_slice(&(n as u32).to_le_bytes());
    for (home, sum) in rec.entries() {
        out.extend_from_slice(&home.to_le_bytes());
        out.extend_from_slice(&sum.to_le_bytes());
    }
    let seal = checksum64(&out) ^ rec.seq();
    for payload in rec.payloads() {
        out.extend_from_slice(payload);
    }
    out.extend_from_slice(&seal.to_le_bytes());
    out
}

/// Parses a marshalled record body back under sequence `seq`. `None`
/// if the shape is wrong, the seal does not verify for this entry
/// table and this sequence, or a payload does not match its entry's
/// checksum.
pub fn unmarshal(seq: u64, body: &[u8]) -> Option<JournalRecord> {
    let n = u32::from_le_bytes(body.get(..4)?.try_into().ok()?) as usize;
    if n == 0 || n > JournalDescriptor::MAX_ENTRIES || body.len() != body_len(n) {
        return None;
    }
    let (table, rest) = body.split_at(4 + n * 16);
    let (blocks, seal_bytes) = rest.split_at(n * BLOCK_SIZE);
    let seal = u64::from_le_bytes(seal_bytes.try_into().ok()?);
    if checksum64(table) ^ seq != seal {
        return None;
    }
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("eight bytes"));
    let entries = table[4..].chunks_exact(16).map(|e| (word(&e[..8]), word(&e[8..]))).collect();
    let payloads =
        blocks.chunks_exact(BLOCK_SIZE).map(|b| b.try_into().expect("one block")).collect();
    JournalRecord::verified(seq, entries, payloads)
}

/// Splits a record into packet-sized fragments, each under
/// [`PAYLOAD_CAP`].
/// Every fragment carries `ctx` — the ship span — so the receiver can
/// chain its enqueue/ingest spans to the sender's whichever fragment
/// completes the record.
pub fn fragment(rec: &JournalRecord, ctx: CauseCtx) -> Vec<Vec<u8>> {
    let body = marshal(rec);
    let total = body.chunks(CHUNK).count();
    assert!(total <= MAX_FRAGS, "record larger than a journal descriptor can describe");
    body.chunks(CHUNK)
        .enumerate()
        .map(|(i, chunk)| {
            let mut f = Vec::with_capacity(FRAG_HEADER + chunk.len());
            f.push(KIND_RECORD);
            f.extend_from_slice(&rec.seq().to_le_bytes());
            f.extend_from_slice(&(i as u16).to_le_bytes());
            f.extend_from_slice(&(total as u16).to_le_bytes());
            f.extend_from_slice(&ctx.to_bytes());
            f.extend_from_slice(chunk);
            f
        })
        .collect()
}

/// Ack frame length: kind (1) + acked (8) + causal context (16) +
/// seal (8).
pub const ACK_LEN: usize = 1 + 8 + CauseCtx::WIRE_BYTES + 8;

/// Encodes a cumulative ack: every sequence `<= acked` is applied.
/// `ctx` is the replica's ack span, propagated in-band so the primary
/// can chain its `repl.ack` event to the replica's apply story.
pub fn encode_ack(acked: u64, ctx: CauseCtx) -> Vec<u8> {
    let mut f = Vec::with_capacity(ACK_LEN);
    f.push(KIND_ACK);
    f.extend_from_slice(&acked.to_le_bytes());
    f.extend_from_slice(&ctx.to_bytes());
    let seal = checksum64(&f);
    f.extend_from_slice(&seal.to_le_bytes());
    f
}

/// Parses an ack frame; `None` for anything malformed or corrupted.
pub fn decode_ack(payload: &[u8]) -> Option<(u64, CauseCtx)> {
    if payload.len() != ACK_LEN || payload[0] != KIND_ACK {
        return None;
    }
    let (sealed, seal_bytes) = payload.split_at(ACK_LEN - 8);
    let seal = u64::from_le_bytes(seal_bytes.try_into().ok()?);
    if checksum64(sealed) != seal {
        return None;
    }
    let acked = u64::from_le_bytes(sealed[1..9].try_into().ok()?);
    let ctx = CauseCtx::from_bytes(sealed[9..9 + CauseCtx::WIRE_BYTES].try_into().ok()?);
    Some((acked, ctx))
}

/// Collects record fragments delivered by the packet plane and yields
/// each record once complete and verified. Fragments may arrive in any
/// order, interleaved across sequences; a fragment that disagrees with
/// its peers (wrong count, bad index) or claims more than
/// [`MAX_FRAGS`] fragments is dropped.
#[derive(Default)]
pub struct Reassembler {
    parts: BTreeMap<u64, Vec<Option<Vec<u8>>>>,
}

impl Reassembler {
    /// An empty reassembler.
    pub fn new() -> Reassembler {
        Reassembler::default()
    }

    /// Feeds one delivered packet payload. Returns the finished record
    /// and the ship context its fragments carried when this was its
    /// last missing fragment.
    pub fn accept(&mut self, payload: &[u8]) -> Option<(JournalRecord, CauseCtx)> {
        if payload.len() < FRAG_HEADER || payload[0] != KIND_RECORD {
            return None;
        }
        let seq = u64::from_le_bytes(payload[1..9].try_into().ok()?);
        let idx = u16::from_le_bytes(payload[9..11].try_into().ok()?) as usize;
        let total = u16::from_le_bytes(payload[11..13].try_into().ok()?) as usize;
        if total == 0 || total > MAX_FRAGS || idx >= total {
            return None;
        }
        let ctx = CauseCtx::from_bytes(payload[13..13 + CauseCtx::WIRE_BYTES].try_into().ok()?);
        let slots = self.parts.entry(seq).or_insert_with(|| vec![None; total]);
        if slots.len() != total {
            return None;
        }
        slots[idx] = Some(payload[FRAG_HEADER..].to_vec());
        let body = slots.iter().map(Option::as_deref).collect::<Option<Vec<&[u8]>>>()?.concat();
        self.parts.remove(&seq);
        unmarshal(seq, &body).map(|rec| (rec, ctx))
    }

    /// Drops all partial state — e.g. when the receiving node reboots
    /// and its in-flight fragments are lost with it.
    pub fn clear(&mut self) {
        self.parts.clear();
    }

    /// Sequences with fragments outstanding.
    pub fn pending(&self) -> usize {
        self.parts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(seq: u64, blocks: usize) -> JournalRecord {
        let mut entries = Vec::new();
        let mut payloads = Vec::new();
        for i in 0..blocks {
            let mut block = [0u8; BLOCK_SIZE];
            for (j, b) in block.iter_mut().enumerate() {
                *b = (seq as u8).wrapping_mul(7).wrapping_add(i as u8).wrapping_add(j as u8);
            }
            entries.push((100 + i as u64, checksum64(&block)));
            payloads.push(block);
        }
        JournalRecord::verified(seq, entries, payloads).expect("sums computed above")
    }

    /// Feeds every fragment to a fresh reassembler; the record it
    /// surfaces, if any, and the partial state it kept.
    fn deliver(frags: &[Vec<u8>]) -> (Option<JournalRecord>, usize) {
        let mut r = Reassembler::new();
        let mut done = None;
        for f in frags {
            if let Some((rec, _ctx)) = r.accept(f) {
                assert!(done.is_none(), "a record surfaces once");
                done = Some(rec);
            }
        }
        (done, r.pending())
    }

    /// `frags` with the byte at body offset `at` xored by `mask`.
    fn bend(frags: &[Vec<u8>], at: usize, mask: u8) -> Vec<Vec<u8>> {
        let mut bent = frags.to_vec();
        bent[at / CHUNK][FRAG_HEADER + at % CHUNK] ^= mask;
        bent
    }

    #[test]
    fn marshal_round_trips_and_binds_the_sequence() {
        let rec = record(7, 3);
        let body = marshal(&rec);
        assert_eq!(unmarshal(7, &body), Some(rec.clone()));
        // The seal is bound to the sequence: the same bytes under a
        // different sequence are refused, and so are the fragments
        // relabelled with that sequence.
        assert_eq!(unmarshal(8, &body), None);
        let mut frags = fragment(&rec, CauseCtx::NONE);
        for f in &mut frags {
            f[1..9].copy_from_slice(&8u64.to_le_bytes());
        }
        assert_eq!(deliver(&frags), (None, 0));
        // A flipped byte is refused, in the table or in the seal.
        for at in [10, body.len() - 1] {
            let mut bent = body.clone();
            bent[at] ^= 0x40;
            assert_eq!(unmarshal(7, &bent), None);
        }
        // So is a body cut short or run long.
        assert_eq!(unmarshal(7, &body[..body.len() - 1]), None);
        assert_eq!(unmarshal(7, &[body.as_slice(), &[0]].concat()), None);
        assert_eq!(unmarshal(7, &[]), None);
    }

    #[test]
    fn a_flipped_payload_byte_in_any_fragment_is_refused() {
        let rec = record(5, 2);
        let frags = fragment(&rec, CauseCtx::NONE);
        assert_eq!(deliver(&frags), (Some(rec.clone()), 0));
        let payloads = 4 + 2 * 16..4 + 2 * 16 + 2 * BLOCK_SIZE;
        // Every fragment's first and last payload byte, and a stride
        // through the rest. The seal does not cover these bytes; the
        // per-payload check at reassembly does.
        let mut offsets: Vec<usize> = payloads.clone().step_by(37).collect();
        for i in 0..frags.len() {
            let (lo, hi) = (i * CHUNK, (i + 1) * CHUNK - 1);
            offsets.extend([lo.max(payloads.start), hi.min(payloads.end - 1)]);
        }
        for at in offsets {
            assert_eq!(deliver(&bend(&frags, at, 0x01)), (None, 0), "payload byte {at} flipped");
        }
    }

    #[test]
    fn a_bent_entry_table_is_refused() {
        let rec = record(6, 2);
        let frags = fragment(&rec, CauseCtx::NONE);
        // Any byte of the count or of an entry — home or checksum.
        for at in 0..4 + 2 * 16 {
            assert_eq!(deliver(&bend(&frags, at, 0x80)), (None, 0), "table byte {at} flipped");
        }
        // A payload corrupted together with a checksum rewritten to
        // match it passes the per-payload check; only the seal over the
        // entry table refuses it.
        let mut payloads = rec.payloads().to_vec();
        payloads[1][9] ^= 0x20;
        let mut entries = rec.entries().to_vec();
        entries[1].1 = checksum64(&payloads[1]);
        let mut body = marshal(&rec);
        body[4 + 16 + 8..4 + 2 * 16].copy_from_slice(&entries[1].1.to_le_bytes());
        body[4 + 2 * 16 + BLOCK_SIZE + 9] ^= 0x20;
        assert!(JournalRecord::verified(6, entries, payloads).is_some());
        assert_eq!(unmarshal(6, &body), None);
    }

    #[test]
    fn a_forged_fragment_count_allocates_nothing() {
        let rec = record(4, 1);
        let frags = fragment(&rec, CauseCtx::NONE);
        let forge = |total: u16| {
            let mut f = frags[0].clone();
            f[11..13].copy_from_slice(&total.to_le_bytes());
            f
        };
        let mut r = Reassembler::new();
        assert_eq!(r.accept(&forge(u16::MAX)), None);
        assert_eq!(r.pending(), 0, "a forged count keeps no slots");
        assert_eq!(r.accept(&forge(MAX_FRAGS as u16 + 1)), None);
        assert_eq!(r.pending(), 0);
        // The largest count a real record can carry is still taken.
        assert_eq!(r.accept(&forge(MAX_FRAGS as u16)), None);
        assert_eq!(r.pending(), 1);
    }

    #[test]
    fn the_largest_record_fills_exactly_max_frags() {
        let rec = record(9, JournalDescriptor::MAX_ENTRIES);
        let frags = fragment(&rec, CauseCtx::NONE);
        assert_eq!(frags.len(), MAX_FRAGS);
        assert_eq!(deliver(&frags), (Some(rec), 0));
    }

    #[test]
    fn fragments_respect_the_payload_cap_and_reassemble_out_of_order() {
        use vino_sim::trace::{NodeId, SpanId};
        let rec = record(3, 2);
        let ctx = CauseCtx { span: SpanId::new(NodeId(0), 7), parent: SpanId::new(NodeId(0), 2) };
        let frags = fragment(&rec, ctx);
        assert!(frags.len() > 1, "a multi-block record cannot fit one packet");
        for f in &frags {
            assert!(f.len() <= PAYLOAD_CAP);
        }
        let mut r = Reassembler::new();
        // Deliver in reverse order; the record completes on the last
        // fragment and not before, carrying the in-band ship context.
        let mut done = None;
        for f in frags.iter().rev() {
            assert!(done.is_none());
            done = r.accept(f);
        }
        assert_eq!(done, Some((rec, ctx)));
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn reassembler_interleaves_sequences_and_drops_corrupt_frames() {
        let a = record(1, 1);
        let b = record(2, 2);
        let fa = fragment(&a, CauseCtx::NONE);
        let fb = fragment(&b, CauseCtx::NONE);
        let mut r = Reassembler::new();
        assert_eq!(r.accept(&fb[0]), None);
        // Feed all of record 1 but corrupt its final fragment: the
        // frame completes, the seal fails, nothing surfaces.
        for f in &fa[..fa.len() - 1] {
            assert_eq!(r.accept(f), None);
        }
        let mut corrupt = fa.last().expect("non-empty").clone();
        *corrupt.last_mut().expect("non-empty") ^= 0xff;
        assert_eq!(r.accept(&corrupt), None);
        // Record 2 still completes despite the interleaving.
        let mut done = None;
        for f in &fb[1..] {
            assert_eq!(done, None);
            done = r.accept(f);
        }
        assert_eq!(done, Some((b, CauseCtx::NONE)));
        // Record 1 retransmitted clean reassembles from scratch.
        let mut done = None;
        for f in &fa {
            done = r.accept(f);
        }
        assert_eq!(done, Some((a, CauseCtx::NONE)));
    }

    #[test]
    fn ack_frames_round_trip_and_refuse_corruption() {
        use vino_sim::trace::{NodeId, SpanId};
        let ctx = CauseCtx { span: SpanId::new(NodeId(1), 3), parent: SpanId::new(NodeId(1), 1) };
        let f = encode_ack(42, ctx);
        assert_eq!(f.len(), ACK_LEN);
        assert!(f.len() <= PAYLOAD_CAP);
        assert_eq!(decode_ack(&f), Some((42, ctx)));
        let mut bent = f.clone();
        bent[3] ^= 1;
        assert_eq!(decode_ack(&bent), None);
        assert_eq!(decode_ack(&[]), None);
    }
}
