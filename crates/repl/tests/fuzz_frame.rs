//! Seeded mutational fuzz of the replication wire decoders: record
//! fragments through [`Reassembler::accept`] and ack frames through
//! [`decode_ack`].
//!
//! The corpus is the wire image of real traffic: fragments of
//! marshalled multi-block records and encoded acks. Each case bends it
//! with byte flips, truncation, extension, forged header fields
//! (`kind`, `seq`, `index`, `total`), dropped, duplicated and reordered
//! fragments. The property: no panic, and whatever surfaces is exactly
//! what was sent — a record equal to the original, or an ack equal to
//! the original `(acked, ctx)`. A bent frame may be refused; it may
//! never be believed.
//!
//! Deterministic: the vendored `SplitMix64`, a fixed case budget, and a
//! pinned seed, overridable with `FRAME_FUZZ_SEED=… cargo test -p
//! vino-repl --test fuzz_frame`.

use vino_fs::layout::checksum64;
use vino_fs::{JournalRecord, BLOCK_SIZE};
use vino_repl::frame::{
    decode_ack, encode_ack, fragment, Reassembler, ACK_LEN, FRAG_HEADER, KIND_ACK, KIND_RECORD,
    MAX_FRAGS,
};
use vino_sim::trace::{CauseCtx, NodeId, SpanId};
use vino_sim::SplitMix64;

/// Cases per property.
const CASES: usize = 600;

const DEFAULT_SEED: u64 = 0xF4A3_E5EA1;

fn seed() -> u64 {
    std::env::var("FRAME_FUZZ_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(DEFAULT_SEED)
}

fn gen_ctx(rng: &mut SplitMix64) -> CauseCtx {
    let node = NodeId(rng.below(2) as u8);
    CauseCtx {
        span: SpanId::new(node, rng.range(1, 1 << 20)),
        parent: SpanId::new(node, rng.below(1 << 20)),
    }
}

/// A record of one to four blocks. Payloads are mostly zero with a
/// random prefix, as data and metadata blocks are.
fn gen_record(rng: &mut SplitMix64) -> JournalRecord {
    let n = rng.range(1, 4) as usize;
    let mut entries = Vec::with_capacity(n);
    let mut payloads = Vec::with_capacity(n);
    for _ in 0..n {
        let mut block = [0u8; BLOCK_SIZE];
        let live = rng.below(BLOCK_SIZE as u64 + 1) as usize;
        for b in &mut block[..live] {
            *b = rng.next_u64() as u8;
        }
        entries.push((rng.below(1 << 16), checksum64(&block)));
        payloads.push(block);
    }
    JournalRecord::verified(rng.range(1, 1 << 32), entries, payloads).expect("sums computed above")
}

/// A header field forged to a value near the truth, at an edge, or at
/// random.
fn forge(rng: &mut SplitMix64, truth: u64, max: u64) -> u64 {
    match rng.below(4) {
        0 => truth.wrapping_add(1) & max,
        1 => truth.wrapping_sub(1) & max,
        2 => [0, max, MAX_FRAGS as u64, MAX_FRAGS as u64 + 1][rng.below(4) as usize] & max,
        _ => rng.next_u64() & max,
    }
}

/// Bends one frame in place.
fn mutate(rng: &mut SplitMix64, f: &mut Vec<u8>) {
    match rng.below(7) {
        0 if !f.is_empty() => {
            // Half the flips land in the first 64 bytes: the header
            // and, in a first fragment, the count and entry table.
            let span = if rng.chance(1, 2) { f.len().min(64) } else { f.len() };
            let at = rng.below(span as u64) as usize;
            f[at] ^= rng.range(1, 255) as u8;
        }
        1 => f.truncate(rng.below(f.len() as u64 + 1) as usize),
        2 => {
            let more = rng.range(1, 64);
            f.extend((0..more).map(|_| rng.next_u64() as u8));
        }
        3 if !f.is_empty() => f[0] = forge(rng, f[0] as u64, 0xff) as u8,
        4 if f.len() >= 9 => {
            let seq = u64::from_le_bytes(f[1..9].try_into().expect("eight bytes"));
            f[1..9].copy_from_slice(&forge(rng, seq, u64::MAX).to_le_bytes());
        }
        5 | 6 if f.len() >= 13 => {
            let at = if rng.chance(1, 2) { 9 } else { 11 };
            let field = u16::from_le_bytes(f[at..at + 2].try_into().expect("two bytes"));
            f[at..at + 2].copy_from_slice(&(forge(rng, field as u64, 0xffff) as u16).to_le_bytes());
        }
        _ => f.push(rng.next_u64() as u8),
    }
}

/// Bent fragment streams surface the original record or nothing.
#[test]
fn reassembly_surfaces_the_original_record_or_nothing() {
    let mut rng = SplitMix64::new(seed());
    let (mut surfaced, mut refused) = (0, 0);
    for case in 0..CASES {
        let rec = gen_record(&mut rng);
        let ctx = gen_ctx(&mut rng);
        let clean = fragment(&rec, ctx);
        assert!(clean.len() > 1, "a record with a block spans fragments");
        let mut frags = clean.clone();
        for _ in 0..rng.range(1, 3) {
            let i = rng.below(frags.len() as u64) as usize;
            match rng.below(8) {
                0 => {
                    frags.remove(i);
                }
                1 => frags.push(frags[i].clone()),
                _ => mutate(&mut rng, &mut frags[i]),
            }
        }
        rng.shuffle(&mut frags);
        let mut r = Reassembler::new();
        let mut got = 0;
        for f in &frags {
            // Duplicates may complete the frame twice, as a
            // retransmission does; each time it must be the original.
            if let Some((back, _ctx)) = r.accept(f) {
                assert_eq!(back, rec, "case {case}: a bent frame surfaced a different record");
                got += 1;
            }
        }
        assert!(r.pending() <= frags.len(), "case {case}: more partial records than fragments");
        match got {
            0 => refused += 1,
            _ => surfaced += 1,
        }
        // The clean frame still reassembles, whatever came before it.
        let mut r = Reassembler::new();
        let done = clean.iter().filter_map(|f| r.accept(f)).next();
        assert_eq!(done, Some((rec, ctx)), "case {case}: the clean frame must reassemble");
    }
    // Both outcomes occur, so neither assertion above is vacuous.
    assert!(surfaced > 0 && refused > 0, "surfaced {surfaced}, refused {refused}");
}

/// Bent acks decode to the original or to nothing.
#[test]
fn ack_decode_yields_the_original_or_nothing() {
    let mut rng = SplitMix64::new(seed() ^ 0xACC);
    let mut refused = 0;
    for case in 0..CASES {
        let acked = rng.next_u64();
        let ctx = gen_ctx(&mut rng);
        let mut f = encode_ack(acked, ctx);
        assert_eq!(f.len(), ACK_LEN);
        for _ in 0..rng.range(1, 3) {
            mutate(&mut rng, &mut f);
        }
        match decode_ack(&f) {
            Some(back) => assert_eq!(back, (acked, ctx), "case {case}: a bent ack was believed"),
            None => refused += 1,
        }
    }
    assert!(refused > 0);
}

/// Random bytes behind a plausible header never panic, never surface a
/// record, and never keep more partial records than fragments fed.
#[test]
fn garbage_is_refused_without_panic() {
    let mut rng = SplitMix64::new(seed() ^ 0x6A4B);
    let mut r = Reassembler::new();
    for case in 0..CASES {
        let n = rng.below(2 * FRAG_HEADER as u64 + 64) as usize;
        let mut f: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
        if !f.is_empty() && rng.chance(3, 4) {
            f[0] = if rng.chance(1, 2) { KIND_RECORD } else { KIND_ACK };
        }
        if f.len() >= 13 && rng.chance(1, 2) {
            // A small count makes the fragment look like a real one.
            let total = rng.range(1, 4) as u16;
            f[9..11].copy_from_slice(&(rng.below(total as u64) as u16).to_le_bytes());
            f[11..13].copy_from_slice(&total.to_le_bytes());
        }
        assert_eq!(r.accept(&f), None, "case {case}: garbage surfaced a record");
        assert!(r.pending() <= case + 1);
        let _ = decode_ack(&f);
    }
}
