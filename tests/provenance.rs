//! Cycle-attribution invariants: every emitted instruction carries a
//! `Provenance` tag, the emulator buckets modeled cycles by that tag, and
//! the buckets sum *exactly* to the total — the DESIGN.md §14 contract.

use sfi_core::harness::execute_export;
use sfi_core::{compile, CompilerConfig, Strategy};
use sfi_x86::cost::CostModel;
use sfi_x86::{Inst, Provenance};

const STRATEGIES: [Strategy; 7] = [
    Strategy::Native,
    Strategy::GuardRegion,
    Strategy::Segue,
    Strategy::SegueLoads,
    Strategy::BoundsCheck,
    Strategy::BoundsCheckSegue,
    Strategy::Masking,
];

fn workload() -> sfi_wasm::Module {
    sfi_workloads::dhrystone().module()
}

#[test]
fn bucket_sums_equal_total_cycles_exactly() {
    let module = workload();
    for strategy in STRATEGIES {
        let base = CompilerConfig::for_strategy(strategy);
        for config in [base.clone(), base.clone().optimized()] {
            let cm = compile(&module, &config).expect("compile");
            let out = execute_export(&cm, "run", &[]).expect("run");
            let s = out.stats;
            assert!(s.cycles > 0.0, "{strategy}: no cycles modeled");
            // Bit-for-bit, not approximate: the emulator finalizes the
            // total from the buckets.
            assert_eq!(
                s.attributed_cycles(),
                s.cycles,
                "{strategy} ({}): bucket sum diverges from total",
                config.opt_level.name()
            );
        }
    }
}

#[test]
fn native_executes_no_sfi_overhead_buckets() {
    let module = workload();
    let cm = compile(&module, &CompilerConfig::for_strategy(Strategy::Native)).expect("compile");
    let out = execute_export(&cm, "run", &[]).expect("run");
    for prov in [Provenance::BoundsGuard, Provenance::SegueAddressing, Provenance::Truncation] {
        assert_eq!(
            out.stats.prov_cycles[prov.index()],
            0.0,
            "Native executed {} cycles",
            prov.name()
        );
    }
}

#[test]
fn guard_strategies_pay_their_own_buckets() {
    let module = workload();

    let bc = compile(&module, &CompilerConfig::for_strategy(Strategy::BoundsCheck))
        .expect("compile");
    let bc_out = execute_export(&bc, "run", &[]).expect("run");
    assert!(
        bc_out.stats.prov_cycles[Provenance::BoundsGuard.index()] > 0.0,
        "BoundsCheck executed no guard cycles"
    );

    // GuardRegion must materialize complex address shapes with a `lea`
    // that Segue folds into the gs-relative access: on an indexing-heavy
    // kernel its addressing bucket is nonzero and dominates Segue's.
    // Dhrystone's shapes are all trivial, so scan polybench for a kernel
    // that actually exercises the materialization path.
    let mut found = false;
    for w in sfi_workloads::polybench() {
        let module = w.module();
        let pages = module.mem_min_pages;
        let gr = compile(&module, &CompilerConfig::for_module(Strategy::GuardRegion, pages))
            .expect("compile");
        let gr_out = execute_export(&gr, "run", &[]).expect("run");
        let gr_addr = gr_out.stats.prov_cycles[Provenance::SegueAddressing.index()];
        if gr_addr == 0.0 {
            continue;
        }
        let sg = compile(&module, &CompilerConfig::for_module(Strategy::Segue, pages))
            .expect("compile");
        let sg_out = execute_export(&sg, "run", &[]).expect("run");
        let sg_addr = sg_out.stats.prov_cycles[Provenance::SegueAddressing.index()];
        assert!(
            gr_addr >= sg_addr,
            "{}: Segue addressing bucket ({sg_addr}) exceeds GuardRegion's ({gr_addr})",
            w.name
        );
        found = true;
        break;
    }
    assert!(found, "no polybench kernel executed GuardRegion addressing cycles");
}

/// Speculation hardening pays into its own bucket under every protected
/// strategy, the exact-sum pin survives it, and unhardened builds never
/// charge the `SpecMitigation` bucket.
#[test]
fn spec_mitigation_buckets_pin_exact_sums() {
    use sfi_core::MitigationLevel;
    let module = workload();
    for strategy in STRATEGIES {
        if strategy == Strategy::Native {
            continue; // no sandbox: mitigation levels are not part of its matrix
        }
        for level in MitigationLevel::ALL {
            let config = CompilerConfig::for_strategy(strategy).mitigated(level);
            let cm = compile(&module, &config).expect("compile");
            let out = execute_export(&cm, "run", &[]).expect("run");
            let s = out.stats;
            assert_eq!(
                s.attributed_cycles(),
                s.cycles,
                "{strategy}/{level}: bucket sum diverges from total"
            );
            let spec = s.prov_cycles[Provenance::SpecMitigation.index()];
            match level {
                MitigationLevel::None => {
                    assert_eq!(spec, 0.0, "{strategy}: unmitigated build charged SpecMitigation");
                }
                // Lfence and IndexMask insert on every compiled function;
                // SLH only where trap-bound checks exist, so it may be
                // legitimately zero for strategies without bounds checks.
                MitigationLevel::Lfence | MitigationLevel::IndexMask => {
                    assert!(spec > 0.0, "{strategy}/{level}: hardened build paid no mitigation cycles");
                }
                MitigationLevel::Slh => {
                    if strategy.bounds_checks() {
                        assert!(spec > 0.0, "{strategy}/slh: bounds checks left unhardened");
                    }
                }
            }
        }
    }
}

#[test]
fn opt_tier_nop_slots_are_retagged() {
    let module = workload();
    let config = CompilerConfig::for_strategy(Strategy::Segue).optimized();
    let cm = compile(&module, &config).expect("compile");
    let prog = cm.image.program();
    let mut nops = 0usize;
    for (i, inst) in prog.insts().iter().enumerate() {
        if matches!(inst, Inst::Nop) {
            nops += 1;
            assert_eq!(
                prog.prov_at(i),
                Provenance::OptInserted,
                "nop slot {i} kept its pre-rewrite tag"
            );
        }
    }
    assert!(nops > 0, "optimizing tier left no nop slots on this workload");
}

/// The emulator's predecoded table holds, bit for bit, what the cost model
/// and the encoding compute for each instruction, on every corpus kernel
/// under every strategy at both tiers.
#[test]
fn predecoded_table_matches_the_cost_model() {
    let cost = CostModel::default();
    for w in sfi_workloads::all() {
        let module = w.module();
        for strategy in STRATEGIES {
            let base = CompilerConfig::for_module(strategy, module.mem_min_pages);
            for config in [base.clone(), base.optimized()] {
                let cm = compile(&module, &config).expect("compile");
                let (prog, enc, table) = (cm.image.program(), cm.image.encoded(), cm.image.decoded());
                assert_eq!(table.len(), prog.len(), "{}: one entry per instruction", w.name);
                for (pc, (inst, d)) in prog.insts().iter().zip(table).enumerate() {
                    let len = enc.inst_len(pc);
                    let want = (
                        cost.throughput_cycles(inst, len).to_bits(),
                        cost.serial_cycles(inst).to_bits(),
                        enc.offsets[pc],
                        len,
                        prog.prov_at(pc).index(),
                        cost.uops(inst).ceil().max(1.0) as u8,
                    );
                    let got = (
                        d.throughput.to_bits(),
                        d.serial.to_bits(),
                        d.fetch,
                        usize::from(d.len),
                        usize::from(d.prov),
                        d.spec_uops,
                    );
                    assert_eq!(got, want, "{} {strategy} {}: {pc} {inst:?}", w.name, config.opt_level.name());
                }
            }
        }
    }
}
