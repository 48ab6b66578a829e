//! The IR's layout: every function's code in one flat array of 16-byte
//! instructions and one `u32` side table (source lines, block starts,
//! each block's loop and the loops' body blocks).
//!
//! - **Printed form pinned**: FNV-1a hashes of `print_module` over every
//!   module of suite seeds 3 and 7 and stress seed 1, at all six
//!   optimisation levels. They were recorded on the per-block layout the
//!   flat one replaced, so the builder, the transforms and the printer
//!   must reproduce its modules character for character.
//! - **Round trip**: print → parse → print is the identity over the same
//!   modules and over `samples/kernels.mv` lowered by the frontend.
//! - **Footprint**: an instruction takes 16 bytes, an array declaration
//!   16 and a function at most 72, and the modules of
//!   `generate_suite(None, 3)` at six levels stay within a heap budget
//!   per instruction, counted by this binary's allocator.

use mvgnn::dataset::{generate_suite, Suite};
use mvgnn::ir::text::{parse_module, print_module};
use mvgnn::ir::transform::{optimize, OptLevel};
use mvgnn::ir::verify::verify_module;
use mvgnn::ir::{ArrayDecl, Function, Inst, Module};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Live heap bytes and allocations made by the current thread (tests
/// run on parallel threads; each counts only its own).
struct Counting;

thread_local! {
    static LIVE: Cell<(isize, isize)> = const { Cell::new((0, 0)) };
}

fn count(bytes: isize, allocs: isize) {
    // Ignored while the thread's locals are being torn down.
    let _ = LIVE.try_with(|c| {
        let (b, n) = c.get();
        c.set((b + bytes, n + allocs));
    });
}

// SAFETY: every call forwards to the system allocator with the caller's
// arguments unchanged; the counters only observe.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            count(layout.size() as isize, 1);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize), -1);
        // SAFETY: `ptr` came from `alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn live() -> (isize, isize) {
    LIVE.with(Cell::get)
}

/// FNV-1a (64-bit) over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn text(&mut self, s: &str) {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The pinned suites, in `GOLDEN_PRINT` order.
const SUITES: [(Option<Suite>, u64); 3] = [(None, 3), (None, 7), (Some(Suite::Stress), 1)];

/// Every module of one suite seed at one level.
fn modules(suite: Option<Suite>, seed: u64, level: OptLevel) -> Vec<Module> {
    generate_suite(suite, seed).iter().map(|app| optimize(&app.module, level)).collect()
}

#[test]
fn printed_modules_match_the_recorded_hashes() {
    for ((suite, seed), (n, golden)) in SUITES.into_iter().zip(GOLDEN_PRINT) {
        let mut got = [0u64; 6];
        let mut count = 0;
        for (h, level) in got.iter_mut().zip(OptLevel::ALL) {
            let mut fnv = Fnv::new();
            for m in modules(suite, seed, level) {
                fnv.text(&print_module(&m));
                count += 1;
            }
            *h = fnv.0;
        }
        let show: Vec<String> = got.iter().map(|h| format!("{h:#018x}")).collect();
        assert_eq!((count, got), (n, golden), "{suite:?} seed {seed}: got [{}]", show.join(", "));
    }
}

/// Print, parse and print again: the two listings agree and the parsed
/// module verifies.
fn assert_round_trip(m: &Module) {
    let text = print_module(m);
    let parsed = parse_module(&text).unwrap_or_else(|e| panic!("{}: {e}", m.name));
    verify_module(&parsed).unwrap_or_else(|e| panic!("{}: {e}", m.name));
    assert_eq!(print_module(&parsed), text, "{}: the listing does not round-trip", m.name);
}

#[test]
fn print_parse_print_is_the_identity() {
    for (suite, seed) in SUITES {
        for level in OptLevel::ALL {
            for m in modules(suite, seed, level) {
                assert_round_trip(&m);
            }
        }
    }
    let src = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/samples/kernels.mv"))
        .expect("samples/kernels.mv is readable");
    assert_round_trip(&mvgnn::lang::compile(&src).expect("samples/kernels.mv compiles"));
}

/// Heap bytes per instruction of the suite-seed-3 modules at six levels:
/// 75.2 with one pair of vectors per block and 40-byte instructions,
/// 50.9 with flat code and 24-byte instructions, 37.5 with 16-byte
/// instructions and one side table per function, 32.4 with one name
/// table per module and call arguments in the side table, 29.1 with the
/// side table in `u16`s.
const BYTES_PER_INST_BUDGET: f64 = 29.5;

/// Live allocations of the same modules: 80,946 per block, 43,812 flat,
/// 30,336 with the side table, 12,840 with the name table and unboxed
/// calls (three per function: code, side table, loops).
const ALLOCATIONS_BUDGET: isize = 13_000;

#[test]
fn instructions_and_modules_stay_within_their_footprint() {
    assert_eq!(std::mem::size_of::<Inst>(), 16);
    assert_eq!(std::mem::size_of::<ArrayDecl>(), 16);
    assert!(std::mem::size_of::<Function>() <= 72);
    let mut kept = Vec::new();
    let (mut bytes, mut allocs, mut insts) = (0, 0, 0);
    for level in OptLevel::ALL {
        for app in generate_suite(None, 3) {
            let before = live();
            let m = optimize(&app.module, level);
            let after = live();
            bytes += after.0 - before.0;
            allocs += after.1 - before.1;
            insts += m.inst_count();
            kept.push(m);
        }
    }
    let per_inst = bytes as f64 / insts as f64;
    let census = format!(
        "{} modules, {insts} instructions: {bytes} bytes ({per_inst:.1} per instruction, \
         budget {BYTES_PER_INST_BUDGET}) in {allocs} allocations (budget {ALLOCATIONS_BUDGET})",
        kept.len()
    );
    println!("{census}");
    assert!(per_inst <= BYTES_PER_INST_BUDGET && allocs <= ALLOCATIONS_BUDGET, "{census}");
}

/// `(modules, FNV-1a of each level's listings in app order)` for suite
/// seeds 3 and 7, then stress seed 1; levels in `OptLevel::ALL` order.
const GOLDEN_PRINT: [(usize, [u64; 6]); 3] = [
    (
        84,
        [
            0xb6cb_a3eb_3de3_8389,
            0x457f_1d82_67ad_00da,
            0x1d64_9181_f37f_a0e7,
            0x1d64_9181_f37f_a0e7,
            0xbca3_4684_6c40_9ca6,
            0x5fdc_09e0_97c6_0fb2,
        ],
    ),
    (
        84,
        [
            0xc47e_b474_dee4_e0e1,
            0xb69c_02a4_c037_68c2,
            0xd88a_388a_461c_7077,
            0xd88a_388a_461c_7077,
            0x95df_7164_cb22_8400,
            0x9fa1_b0c5_b5ea_87af,
        ],
    ),
    (
        24,
        [
            0x0de4_5242_9b7e_bd71,
            0xd0ff_7259_1774_c374,
            0x5000_ea6a_435a_9703,
            0x5000_ea6a_435a_9703,
            0x5593_6cae_e05e_0b8a,
            0x7741_1f7e_a88b_33d3,
        ],
    ),
];
