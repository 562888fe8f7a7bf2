//! Property tests of the individual RRS hardware structures: FIFO laws for
//! the free list, alias laws for the refcounted RAT path, and
//! checkpoint/recovery round trips — all against reference models.
//!
//! Cases are generated with a seeded deterministic PRNG (one fixed seed per
//! case index), so every run exercises the same corpus and failures
//! reproduce exactly; the failing case index is in the panic message.

use idld_rrs::freelist::FreeList;
use idld_rrs::rob::{Rob, RobMeta};
use idld_rrs::{NoFaults, NullSink, PhysReg, RecordingSink, RrsEvent};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

#[derive(Clone, Copy, Debug)]
enum FifoOp {
    Pop,
    Push(u16),
}

fn fifo_ops(rng: &mut SmallRng, max_len: usize) -> Vec<FifoOp> {
    let len = rng.gen_range(0..max_len);
    (0..len)
        .map(|_| {
            if rng.gen_bool(0.5) {
                FifoOp::Pop
            } else {
                FifoOp::Push(rng.gen_range(0u16..128))
            }
        })
        .collect()
}

/// The free list behaves exactly like a reference VecDeque under any legal
/// op sequence, and its event stream mirrors the operations.
#[test]
fn freelist_is_a_fifo() {
    for case in 0..128u64 {
        let mut rng = SmallRng::seed_from_u64(0xf1f0 ^ case);
        let ops = fifo_ops(&mut rng, 200);
        let init: Vec<PhysReg> = (0..8).map(PhysReg).collect();
        let mut fl = FreeList::new(16, init.clone());
        let mut model: VecDeque<PhysReg> = init.into_iter().collect();
        let mut sink = RecordingSink::new();
        let mut reads = 0usize;
        let mut writes = 0usize;
        for &op in &ops {
            match op {
                FifoOp::Pop => {
                    let got = fl.pop(&mut NoFaults, &mut sink);
                    assert_eq!(got, model.pop_front(), "case {case}: {ops:?}");
                    if got.is_some() {
                        reads += 1;
                    }
                }
                FifoOp::Push(v) => {
                    if model.len() < 16 {
                        fl.push(PhysReg(v), &mut NoFaults, &mut sink).unwrap();
                        model.push_back(PhysReg(v));
                        writes += 1;
                    }
                }
            }
            assert_eq!(fl.len(), model.len(), "case {case}");
        }
        let live: Vec<PhysReg> = fl.iter().collect();
        let expect: Vec<PhysReg> = model.iter().copied().collect();
        assert_eq!(live, expect, "case {case}");
        assert_eq!(
            sink.count(|e| matches!(e, RrsEvent::FlRead(_))),
            reads,
            "case {case}"
        );
        assert_eq!(
            sink.count(|e| matches!(e, RrsEvent::FlWrite(_))),
            writes,
            "case {case}"
        );
    }
}

/// The free list's content XOR equals the fold over its reference model,
/// for any traffic.
#[test]
fn freelist_content_xor_matches_model() {
    for case in 0..128u64 {
        let mut rng = SmallRng::seed_from_u64(0x0f0f ^ case);
        let ops = fifo_ops(&mut rng, 100);
        let init: Vec<PhysReg> = (0..6).map(PhysReg).collect();
        let mut fl = FreeList::new(8, init.clone());
        let mut model: VecDeque<PhysReg> = init.into_iter().collect();
        for &op in &ops {
            match op {
                FifoOp::Pop => {
                    fl.pop(&mut NoFaults, &mut NullSink);
                    model.pop_front();
                }
                FifoOp::Push(v) => {
                    if model.len() < 8 {
                        fl.push(PhysReg(v), &mut NoFaults, &mut NullSink).unwrap();
                        model.push_back(PhysReg(v));
                    }
                }
            }
        }
        let manual = model.iter().fold(0u32, |a, p| a ^ p.extended(7));
        assert_eq!(fl.content_xor(7), manual, "case {case}: {ops:?}");
    }
}

/// The ROB's pdst slice retires entries in allocation order with their
/// exact evicted ids, regardless of the has-dest pattern.
#[test]
fn rob_retires_in_order() {
    for case in 0..128u64 {
        let mut rng = SmallRng::seed_from_u64(0x20b ^ case);
        let n = rng.gen_range(1usize..60);
        let entries: Vec<Option<u16>> = (0..n)
            .map(|_| rng.gen_bool(0.5).then(|| rng.gen_range(0u16..64)))
            .collect();
        let mut rob = Rob::new(96);
        let mut sink = RecordingSink::new();
        for (i, e) in entries.iter().enumerate() {
            let meta = match e {
                Some(_) => RobMeta {
                    has_dest: true,
                    arch: (i % 4) as u8,
                    new_pdst: PhysReg(99),
                },
                None => RobMeta::NO_DEST,
            };
            rob.alloc(meta, e.map(PhysReg), &mut NoFaults, &mut sink)
                .unwrap();
        }
        for e in &entries {
            let c = rob.commit_head(&mut NoFaults, &mut sink).unwrap();
            assert_eq!(c.reclaimed, e.map(PhysReg), "case {case}: {entries:?}");
        }
        assert!(rob.is_empty(), "case {case}");
    }
}

/// Squashing the ROB tail to any point preserves exactly the older live
/// entries.
#[test]
fn rob_tail_restore_is_prefix() {
    for case in 0..128u64 {
        let mut rng = SmallRng::seed_from_u64(0x7a11 ^ case);
        let n = rng.gen_range(1usize..40);
        let keep_frac = rng.gen_range(0u64..100);
        let mut rob = Rob::new(64);
        for i in 0..n {
            rob.alloc(
                RobMeta {
                    has_dest: true,
                    arch: 0,
                    new_pdst: PhysReg(1),
                },
                Some(PhysReg(i as u16)),
                &mut NoFaults,
                &mut NullSink,
            )
            .unwrap();
        }
        let keep = n as u64 * keep_frac / 100;
        rob.restore_tail(keep, &mut NoFaults).unwrap();
        let live: Vec<PhysReg> = rob.iter_live().collect();
        let expect: Vec<PhysReg> = (0..keep as u16).map(PhysReg).collect();
        assert_eq!(live, expect, "case {case}: n={n} keep={keep}");
    }
}
