//! Randomised tests for resource accounting invariants (§3.2), driven
//! by a seeded deterministic generator (formerly proptest).
//!
//! - Transfers conserve the total limit across all principals.
//! - Usage never exceeds the (effective) limit, under any interleaving
//!   of charges, releases, transfers and billing changes.
//! - Failed operations have no partial effect.

use vino_rm::{Limits, PrincipalId, ResourceAccountant, ResourceKind};
use vino_sim::SplitMix64;

const KIND: ResourceKind = ResourceKind::Memory;

#[derive(Debug, Clone)]
enum Op {
    Transfer { from: usize, to: usize, amount: u32 },
    Charge { who: usize, amount: u32 },
    Release { who: usize, amount: u32 },
    BillTo { graft: usize, installer: usize },
}

fn gen_op(rng: &mut SplitMix64) -> Op {
    match rng.below(4) {
        0 => Op::Transfer {
            from: rng.below(6) as usize,
            to: rng.below(6) as usize,
            amount: rng.below(2000) as u32,
        },
        1 => Op::Charge { who: rng.below(6) as usize, amount: rng.below(2000) as u32 },
        2 => Op::Release { who: rng.below(6) as usize, amount: rng.below(2000) as u32 },
        _ => Op::BillTo { graft: rng.below(6) as usize, installer: rng.below(6) as usize },
    }
}

fn setup() -> (ResourceAccountant, Vec<PrincipalId>) {
    let mut ra = ResourceAccountant::new(vino_sim::Observer::new(vino_sim::VirtualClock::new()));
    let principals: Vec<PrincipalId> = (0..6)
        .map(|i| {
            if i < 3 {
                ra.create_principal(Limits::of(&[(KIND, 1000 * (i as u64 + 1))]))
            } else {
                ra.create_graft_principal()
            }
        })
        .collect();
    (ra, principals)
}

#[test]
fn invariants_hold_under_arbitrary_ops() {
    let mut rng = SplitMix64::new(0xC0_5E17);
    for _case in 0..256 {
        let (mut ra, ps) = setup();
        let total0 = ra.total_limit(KIND);
        let n_ops = rng.range(1, 59) as usize;
        for _ in 0..n_ops {
            match gen_op(&mut rng) {
                Op::Transfer { from, to, amount } => {
                    let _ = ra.transfer(ps[from], ps[to], KIND, amount as u64);
                }
                Op::Charge { who, amount } => {
                    let _ = ra.charge(ps[who], KIND, amount as u64);
                }
                Op::Release { who, amount } => {
                    ra.release(ps[who], KIND, amount as u64);
                }
                Op::BillTo { graft, installer } => {
                    let _ = ra.bill_to(ps[graft], ps[installer]);
                }
            }
            // Invariant 1: transfers never mint or destroy limit.
            assert_eq!(ra.total_limit(KIND), total0);
            // Invariant 2: every payer's usage stays within its limit.
            for p in &ps {
                let payer_used = ra.used(*p, KIND);
                let payer_limit = ra.limit(*p, KIND);
                assert!(payer_used <= payer_limit, "{p}: used {payer_used} > limit {payer_limit}");
            }
        }
    }
}

#[test]
fn denied_charges_are_exactly_over_limit() {
    let mut rng = SplitMix64::new(0xDE_4411);
    for _case in 0..256 {
        let extra = rng.range(1, 9_999);
        let mut ra =
            ResourceAccountant::new(vino_sim::Observer::new(vino_sim::VirtualClock::new()));
        let p = ra.create_principal(Limits::of(&[(KIND, 5000)]));
        ra.charge(p, KIND, 5000).unwrap();
        assert!(ra.charge(p, KIND, extra).is_err());
        assert_eq!(ra.used(p, KIND), 5000);
        ra.release(p, KIND, extra.min(5000));
        assert!(ra.charge(p, KIND, extra.min(5000)).is_ok());
    }
}
