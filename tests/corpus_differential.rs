//! Cross-crate integration: every benchmark-corpus workload, compiled under
//! every protection strategy, must agree with the reference interpreter.
//!
//! (The full corpus at full iteration counts is benchmark-sized; these tests
//! run a representative fast subset in debug time. The figure binaries
//! exercise the rest under `--release`.)

use segue_colorguard::core::harness::execute_export;
use segue_colorguard::core::{compile, CompilerConfig, MitigationLevel, Strategy};
use segue_colorguard::runtime::Engine;
use segue_colorguard::wasm::interp::Interpreter;

/// The five protection strategies of the cross-strategy sweep.
const PROTECTED: [Strategy; 5] = [
    Strategy::GuardRegion,
    Strategy::Segue,
    Strategy::SegueLoads,
    Strategy::BoundsCheck,
    Strategy::BoundsCheckSegue,
];

/// Workloads small enough to interpret in a debug test run.
fn fast_subset() -> Vec<segue_colorguard::workloads::Workload> {
    let sg = segue_colorguard::workloads::sightglass();
    let names = ["fib2", "nestedloop", "matrix", "strchr", "memmove"];
    sg.into_iter().filter(|w| names.contains(&w.name)).collect()
}

#[test]
fn corpus_compiled_matches_interpreter() {
    for w in fast_subset() {
        let module = w.module();
        let mut interp = Interpreter::new(&module).expect("instantiates");
        let expected = interp
            .invoke_export("run", &[])
            .expect("interprets")
            .expect("corpus returns a checksum");

        for strategy in [
            Strategy::GuardRegion,
            Strategy::Segue,
            Strategy::SegueLoads,
            Strategy::BoundsCheck,
            Strategy::BoundsCheckSegue,
        ] {
            let cfg = CompilerConfig::for_module(strategy, module.mem_min_pages);
            let cm = compile(&module, &cfg).expect("compiles");
            let out = execute_export(&cm, "run", &[]).expect("runs");
            assert_eq!(
                out.result.map(|r| r & 0xFFFF_FFFF),
                Some(expected),
                "{} diverged under {strategy}",
                w.name
            );
            // Heap contents must match too.
            assert_eq!(
                interp.memory[..1024],
                out.heap[..1024],
                "{} heap prefix diverged under {strategy}",
                w.name
            );
        }
    }
}

#[test]
fn vectorizer_never_changes_results() {
    for w in fast_subset() {
        let module = w.module();
        for strategy in [Strategy::GuardRegion, Strategy::Segue, Strategy::SegueLoads] {
            let plain = {
                let cfg = CompilerConfig::for_module(strategy, module.mem_min_pages);
                let cm = compile(&module, &cfg).expect("compiles");
                execute_export(&cm, "run", &[]).expect("runs").result
            };
            let vectorized = {
                let mut cfg = CompilerConfig::for_module(strategy, module.mem_min_pages);
                cfg.vectorize = true;
                let cm = compile(&module, &cfg).expect("compiles");
                execute_export(&cm, "run", &[]).expect("runs").result
            };
            assert_eq!(plain, vectorized, "{} under {strategy}", w.name);
        }
    }
}

/// The exhaustive sweep: every workload in the corpus, under all five
/// protection strategies × vectorizer on/off, bit-identical (return value
/// *and* memory) to the reference interpreter — including when the compiled
/// code comes out of the engine's cache instead of a fresh compile.
///
/// Benchmark-sized, so debug runs skip it; `scripts/ci.sh` runs it in
/// release with `--include-ignored`.
#[test]
#[cfg_attr(debug_assertions, ignore = "full corpus is benchmark-sized; ci.sh runs it in release")]
fn full_corpus_all_strategies_and_vectorizer_match_interpreter() {
    let mut engine = Engine::new(1024);
    let mut checked = 0u32;
    for w in segue_colorguard::workloads::all() {
        let module = w.module();
        let mut interp = Interpreter::new(&module).expect("instantiates");
        let expected = interp
            .invoke_export("run", &[])
            .expect("interprets")
            .expect("corpus returns a checksum");

        for strategy in PROTECTED {
            for vectorize in [false, true] {
                for optimized in [false, true] {
                    let mut cfg = CompilerConfig::for_module(strategy, module.mem_min_pages);
                    cfg.vectorize = vectorize;
                    if optimized {
                        cfg = cfg.optimized();
                    }
                    // Through the cache: the first load compiles and caches,
                    // and must be observationally identical to a fresh
                    // compile.
                    let cached = engine.load(&module, &cfg, 0).expect("compiles");
                    let out = execute_export(&cached, "run", &[]).expect("runs");
                    assert_eq!(
                        out.result.map(|r| r & 0xFFFF_FFFF),
                        Some(expected),
                        "{} diverged under {strategy} (vectorize={vectorize}, optimized={optimized})",
                        w.name
                    );
                    let n = interp.memory.len().min(out.heap.len());
                    assert_eq!(
                        interp.memory[..n],
                        out.heap[..n],
                        "{} memory diverged under {strategy} (vectorize={vectorize}, optimized={optimized})",
                        w.name
                    );
                    checked += 1;
                }
            }
        }
    }
    assert!(checked >= 500, "expected the full corpus sweep, got {checked} combinations");
    assert_eq!(engine.cache().stats().misses, u64::from(checked), "every combination is distinct");
}

/// A cache hit must be observationally identical to a fresh compile: same
/// machine code object (shared `Arc`), same result, same memory.
#[test]
fn cache_hit_is_observationally_identical_to_fresh_compile() {
    let mut engine = Engine::new(64);
    for w in fast_subset() {
        let module = w.module();
        for strategy in [Strategy::Segue, Strategy::BoundsCheck] {
            let cfg = CompilerConfig::for_module(strategy, module.mem_min_pages);

            let first = engine.load(&module, &cfg, 7).expect("compiles");
            let hit = engine.load(&module, &cfg, 7).expect("cache hit");
            assert!(
                std::sync::Arc::ptr_eq(&first, &hit),
                "{} under {strategy}: second load must be a cache hit",
                w.name
            );

            let fresh = compile(&module, &cfg).expect("compiles");
            let from_cache = execute_export(&hit, "run", &[]).expect("runs");
            let from_fresh = execute_export(&fresh, "run", &[]).expect("runs");
            assert_eq!(from_cache.result, from_fresh.result, "{} under {strategy}", w.name);
            assert_eq!(from_cache.heap, from_fresh.heap, "{} heap under {strategy}", w.name);
        }
    }
    let s = engine.cache().stats();
    assert_eq!(s.hits, 10, "5 workloads x 2 strategies, one hit each");
}

/// The optimizing tier must be interpreter-equal wherever the baseline is:
/// a fast corpus subset swept through every strategy at both tiers (the
/// full corpus runs in `figX_tiers --check` under release).
#[test]
fn optimized_tier_matches_interpreter_on_corpus_subset() {
    for w in fast_subset() {
        let module = w.module();
        let mut interp = Interpreter::new(&module).expect("instantiates");
        let expected = interp
            .invoke_export("run", &[])
            .expect("interprets")
            .expect("corpus returns a checksum");

        for strategy in PROTECTED {
            let cfg = CompilerConfig::for_module(strategy, module.mem_min_pages).optimized();
            let cm = compile(&module, &cfg).expect("compiles");
            let out = execute_export(&cm, "run", &[]).expect("runs");
            assert_eq!(
                out.result.map(|r| r & 0xFFFF_FFFF),
                Some(expected),
                "{} diverged under {strategy} (optimized tier)",
                w.name
            );
            let n = interp.memory.len().min(out.heap.len());
            assert_eq!(
                interp.memory[..n],
                out.heap[..n],
                "{} heap diverged under {strategy} (optimized tier)",
                w.name
            );
        }
    }
}

/// Seeded random programs, interpreter vs baseline vs optimized across the
/// full strategy sweep. On divergence the failing program is shrunk to a
/// locally minimal counterexample before the panic, so the CI log carries
/// a reproducible seed *and* a program small enough to read.
#[test]
fn generated_programs_are_differentially_equal_across_tiers() {
    use segue_colorguard::workloads::genprog;

    let diverges = |p: &genprog::RandomProgram| {
        let m = p.module();
        std::panic::catch_unwind(|| {
            segue_colorguard::core::harness::differential_check(&m, "run", &[]);
        })
        .is_err()
    };

    for seed in 0..48u64 {
        let program = genprog::generate(seed);
        if diverges(&program) {
            // Silence the panic-per-candidate noise while shrinking.
            let hook = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {}));
            let minimal = program.shrink(diverges);
            std::panic::set_hook(hook);
            let module = minimal.module();
            panic!(
                "seed {seed} diverges between interpreter and compiled tiers; \
                 minimal counterexample ({} stmts): {:?}",
                minimal.size(),
                module.defined_func(0).map(|f| &f.body),
            );
        }
    }
}

#[test]
fn lfi_rewriting_preserves_results() {
    use segue_colorguard::lfi::{execute_rewritten, LfiConfig};
    for w in fast_subset() {
        let module = w.native_module();
        let mut cfg = CompilerConfig::for_module(Strategy::Native, module.mem_min_pages);
        cfg.lfi_reserved_regs = true;
        let cm = compile(&module, &cfg).expect("compiles");
        let native = execute_export(&cm, "run", &[]).expect("runs").result;
        let (base, _) =
            execute_rewritten(&cm, &LfiConfig { sandbox_base: 0, ..LfiConfig::default() }, "run", &[]);
        let (segue, _) =
            execute_rewritten(&cm, &LfiConfig { sandbox_base: 0, ..LfiConfig::with_segue() }, "run", &[]);
        assert_eq!(Some(base), native.map(|r| r & 0xFFFF_FFFF), "{}", w.name);
        assert_eq!(base, segue, "{}", w.name);
    }
}

#[test]
fn undersized_layouts_are_rejected_and_sized_layouts_match() {
    let w = segue_colorguard::workloads::spec2006()
        .into_iter()
        .find(|w| w.name == "401_bzip2")
        .expect("401_bzip2 is in the corpus");
    let module = w.module();
    assert!(module.mem_min_pages > 1, "401_bzip2 needs more than the 64 KiB test layout");
    assert!(matches!(
        compile(&module, &CompilerConfig::for_strategy(Strategy::Masking)),
        Err(segue_colorguard::core::CompileError::LayoutTooSmall { .. })
    ));
    let expected = Interpreter::new(&module).unwrap().invoke_export("run", &[]).unwrap();
    let masking = CompilerConfig::for_module(Strategy::Masking, module.mem_min_pages);
    let index_mask = CompilerConfig::for_module(Strategy::Segue, module.mem_min_pages)
        .mitigated(MitigationLevel::IndexMask);
    for cfg in [masking, index_mask] {
        let cm = compile(&module, &cfg).expect("compiles");
        let got = execute_export(&cm, "run", &[]).expect("runs").result;
        assert_eq!(got.map(|r| r & 0xFFFF_FFFF), expected, "{:?}", cfg.strategy);
    }
}
