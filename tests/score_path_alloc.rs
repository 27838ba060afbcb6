//! NASSC's SWAP score allocates nothing.
//!
//! `evaluate_swap_reduction` prices every candidate SWAP of every
//! routing step (the `C_2q`, `C_commute1` and `C_commute2` terms of Eq. 2),
//! so it must not touch the allocator. This binary installs a global
//! allocator that counts the bytes each thread requests and checks that,
//! once warmed up, scoring every pair of a routed-looking output circuit
//! under every flag combination requests none.

// Implementing `GlobalAlloc` is inherently unsafe; the workspace denies
// `unsafe_code` everywhere else.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use nassc::circuit::{Gate, Instruction};
use nassc::sabre::RoutingState;
use nassc::{evaluate_swap_reduction, OptimizationFlags};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Counts the bytes requested by the current thread, so the test harness's
/// own threads do not disturb the measurement.
struct ThreadCounting;

thread_local! {
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every method delegates to `System`; the counter never touches the
// returned memory, and `try_with` keeps it usable during thread teardown.
unsafe impl GlobalAlloc for ThreadCounting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = REQUESTED.try_with(|n| n.set(n.get() + layout.size()));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOC: ThreadCounting = ThreadCounting;

const WIDTH: usize = 5;

/// A seeded output circuit with the gate mix routing emits: single-qubit
/// unitaries, CNOTs, SWAPs and the odd measurement.
fn routed_state(seed: u64, gates: usize) -> RoutingState {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut state = RoutingState::new(WIDTH);
    while state.num_gates() < gates {
        let a = rng.gen_range(0..WIDTH);
        let b = (a + rng.gen_range(1..WIDTH)) % WIDTH;
        let inst = match rng.gen_range(0..10) {
            0 => Instruction::new(Gate::Rz(rng.gen_range(-3.0..3.0)), [a]),
            1 => Instruction::new(Gate::Sx, [a]),
            2 => Instruction::new(Gate::U(rng.gen_range(0.0..3.0), 0.4, -1.1), [a]),
            3 => Instruction::new(Gate::H, [a]),
            4 => Instruction::new(Gate::Measure, [a]),
            5 => Instruction::new(Gate::Swap, [a, b]),
            _ => Instruction::new(Gate::Cx, [a, b]),
        };
        state.push(inst);
    }
    state
}

#[test]
fn windowed_swap_reduction_allocates_nothing_after_warm_up() {
    let flag_sets = OptimizationFlags::all_combinations();
    let states: Vec<RoutingState> = (0..8).map(|seed| routed_state(seed, 60)).collect();
    let score_all = || {
        let (mut c_2q, mut c_commute) = (0.0, 0.0);
        for state in &states {
            for p1 in 0..WIDTH {
                for p2 in (0..WIDTH).filter(|&p2| p2 != p1) {
                    for flags in &flag_sets {
                        let r = evaluate_swap_reduction(state, p1, p2, flags);
                        c_2q += r.c_2q;
                        c_commute += r.c_commute1 + r.c_commute2;
                    }
                }
            }
        }
        (c_2q, c_commute)
    };

    let warm = score_all();
    let before = REQUESTED.with(Cell::get);
    let measured = score_all();
    let requested = REQUESTED.with(Cell::get) - before;

    assert_eq!(measured, warm, "scoring is deterministic");
    // The sweep exercises every term, including the Weyl-backed C_2q.
    assert!(measured.0 > 0.0 && measured.1 > 0.0, "terms {measured:?}");
    assert_eq!(requested, 0, "the score path requested {requested} bytes");
}
