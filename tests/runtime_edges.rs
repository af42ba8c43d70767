//! Runtime edge cases and failure injection across crate boundaries.

use std::sync::Arc;

use segue_colorguard::core::{compile, CompilerConfig, Strategy};
use segue_colorguard::runtime::{HostApi, Runtime, RuntimeConfig, RuntimeError};

fn counter_module() -> Arc<segue_colorguard::core::CompiledModule> {
    let m = segue_colorguard::wasm::wat::parse(
        r#"(module (memory 1)
             (func (export "one") (result i32) i32.const 1))"#,
    )
    .expect("parses");
    Arc::new(compile(&m, &CompilerConfig::for_strategy(Strategy::Segue)).expect("compiles"))
}

#[test]
fn invoking_a_terminated_instance_fails_cleanly() {
    let mut rt = Runtime::new(RuntimeConfig::small_test(true)).expect("boots");
    let id = rt.instantiate(counter_module()).expect("slot");
    rt.terminate(id).expect("terminates");
    assert!(matches!(rt.invoke(id, "one", &[]), Err(RuntimeError::BadInstance)));
    assert!(matches!(rt.terminate(id), Err(RuntimeError::BadInstance)));
    assert!(matches!(rt.read_heap(id, 0, &mut [0u8; 1]), Err(RuntimeError::BadInstance)));
}

#[test]
fn unknown_export_is_reported() {
    let mut rt = Runtime::new(RuntimeConfig::small_test(false)).expect("boots");
    let id = rt.instantiate(counter_module()).expect("slot");
    assert!(matches!(
        rt.invoke(id, "missing", &[]),
        Err(RuntimeError::NoSuchExport(n)) if n == "missing"
    ));
}

#[test]
fn host_errors_propagate_and_leave_the_runtime_usable() {
    let m = segue_colorguard::wasm::wat::parse("(module)").expect("parses");
    let mut module = segue_colorguard::wasm::Module::new(1);
    let imp = module.push_import(segue_colorguard::wasm::HostImport {
        name: "env.fail".into(),
        params: vec![],
        result: Some(segue_colorguard::wasm::ValType::I32),
    });
    let f = module.push_func(
        segue_colorguard::wasm::FuncBuilder::new("f")
            .result(segue_colorguard::wasm::ValType::I32)
            .body(vec![segue_colorguard::wasm::Op::Call(imp), segue_colorguard::wasm::Op::End])
            .build(),
    );
    module.export("f", f);
    let _ = m;
    let cm = Arc::new(
        compile(&module, &CompilerConfig::for_strategy(Strategy::Segue)).expect("compiles"),
    );

    struct Failing;
    impl HostApi for Failing {
        fn call(&mut self, _: &str, _: &[u64], _: &mut [u8]) -> Result<Option<u64>, String> {
            Err("backend unreachable".into())
        }
    }
    let mut rt = Runtime::new(RuntimeConfig::small_test(true)).expect("boots");
    let id = rt.instantiate(Arc::clone(&cm)).expect("slot");
    let err = rt.invoke_with_host(id, "f", &[], &mut Failing);
    assert!(matches!(err, Err(RuntimeError::Host(m)) if m.contains("backend unreachable")));

    // The runtime keeps working after a failed invocation.
    struct Ok42;
    impl HostApi for Ok42 {
        fn call(&mut self, _: &str, _: &[u64], _: &mut [u8]) -> Result<Option<u64>, String> {
            Ok(Some(42))
        }
    }
    assert_eq!(
        rt.invoke_with_host(id, "f", &[], &mut Ok42).expect("recovers").result,
        Some(42)
    );
}

#[test]
fn mixed_modules_share_one_node() {
    // Two different modules, different strategies, in the same pool.
    let a = counter_module();
    let m = segue_colorguard::wasm::wat::parse(
        r#"(module (memory 1)
             (func (export "two") (result i32) i32.const 2))"#,
    )
    .expect("parses");
    let b = Arc::new(
        compile(&m, &CompilerConfig::for_strategy(Strategy::GuardRegion)).expect("compiles"),
    );
    let mut rt = Runtime::new(RuntimeConfig::small_test(true)).expect("boots");
    let ia = rt.instantiate(a).expect("slot");
    let ib = rt.instantiate(b).expect("slot");
    assert_eq!(rt.invoke(ia, "one", &[]).expect("runs").result, Some(1));
    assert_eq!(rt.invoke(ib, "two", &[]).expect("runs").result, Some(2));
}

#[test]
fn oversized_module_is_rejected_at_instantiation() {
    // 8 pages > the 1-page slots of the small test pool. The compiler's
    // layout holds the module; the pool's slots do not.
    let m = segue_colorguard::wasm::wat::parse(
        r#"(module (memory 8)
             (func (export "one") (result i32) i32.const 1))"#,
    )
    .expect("parses");
    let cfg = CompilerConfig::for_module(Strategy::Segue, m.mem_min_pages);
    let cm = Arc::new(compile(&m, &cfg).expect("compiles"));
    let mut rt = Runtime::new(RuntimeConfig::small_test(true)).expect("boots");
    assert!(matches!(
        rt.instantiate(cm),
        Err(RuntimeError::IncompatibleModule(_))
    ));
}

#[test]
fn memory_grow_inside_the_pool_slot() {
    let m = segue_colorguard::wasm::wat::parse(
        r#"(module (memory 1 4)
             (func (export "grow") (result i32)
               i32.const 1 memory.grow))"#,
    )
    .expect("parses");
    let cm = Arc::new(
        compile(&m, &CompilerConfig::for_strategy(Strategy::Segue)).expect("compiles"),
    );
    let mut rt = Runtime::new(RuntimeConfig::small_test(true)).expect("boots");
    let id = rt.instantiate(cm).expect("slot");
    // The slot holds exactly one page, so growth must fail (-1): the pool's
    // max_memory_bytes caps the instance even below the module's own max.
    assert_eq!(
        rt.invoke(id, "grow", &[]).expect("runs").result,
        Some(u64::from(u32::MAX) & 0xFFFF_FFFF)
    );
}
