//! # sfi-workloads: the benchmark corpus
//!
//! Mini-Wasm stand-ins for every benchmark suite the paper evaluates
//! (§6): SPEC CPU 2006 (Figure 3, Table 2), SPEC CPU 2017 (Figure 5,
//! LFI), Sightglass (Figure 4, WAMR), PolybenchC and Dhrystone (§6.2),
//! and the Firefox library-sandboxing workloads — font shaping and
//! XML parsing (§6.1).
//!
//! We cannot run the actual SPEC sources; what the figures need is
//! per-benchmark *relative* behaviour. Each stand-in is a mini-Wasm kernel
//! (see [`kernels`]) whose memory-access density, address-pattern
//! complexity and working-set size are calibrated to the corresponding
//! benchmark family — including the outliers: `429_mcf` carries a
//! 64-bit-pointer native variant (pointer compression makes the Wasm build
//! *faster* than native), and `473_astar` is fetch-bandwidth-bound so that
//! Segue's longer encodings cost slightly more than they save.
//!
//! ```
//! let spec = sfi_workloads::spec2006();
//! assert_eq!(spec.len(), 10);
//! let module = spec[0].module();          // parsed, validated mini-Wasm
//! assert!(module.export_index("run").is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gadgets;
pub mod genprog;
pub mod kernels;

use sfi_wasm::Module;

/// One benchmark: a named mini-Wasm program exporting `run : [] -> i32`.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The benchmark's display name (matches the paper's figures).
    pub name: &'static str,
    /// WAT source of the Wasm build.
    pub wat: String,
    /// WAT source of the native build, when its data layout differs (the
    /// 64-bit-pointer variant); `None` means the Wasm source is used.
    pub native_wat: Option<String>,
}

impl Workload {
    fn new(name: &'static str, wat: String) -> Workload {
        Workload { name, wat, native_wat: None }
    }

    /// Parses and validates the Wasm build.
    ///
    /// # Panics
    ///
    /// Panics if the kernel fails to parse or validate — corpus bugs, not
    /// runtime conditions.
    pub fn module(&self) -> Module {
        let m = sfi_wasm::wat::parse(&self.wat)
            .unwrap_or_else(|e| panic!("{}: WAT parse: {e}", self.name));
        sfi_wasm::validate(&m).unwrap_or_else(|e| panic!("{}: validation: {e}", self.name));
        m
    }

    /// Parses and validates the native build (64-bit-pointer data layout
    /// where it differs; otherwise identical to [`Workload::module`]).
    pub fn native_module(&self) -> Module {
        match &self.native_wat {
            Some(src) => {
                let m = sfi_wasm::wat::parse(src)
                    .unwrap_or_else(|e| panic!("{}: native WAT parse: {e}", self.name));
                sfi_wasm::validate(&m)
                    .unwrap_or_else(|e| panic!("{}: native validation: {e}", self.name));
                m
            }
            None => self.module(),
        }
    }
}

/// The Wasm-compatible SPEC CPU 2006 subset of Figure 3 / Table 2
/// (ten benchmarks, following Narayan et al.'s selection).
pub fn spec2006() -> Vec<Workload> {
    vec![
        Workload::new("401_bzip2", kernels::compress(120_000, 8)),
        Workload {
            name: "429_mcf",
            // 8-byte nodes for Wasm (32-bit "pointers")…
            wat: kernels::pointer_chase(4_096, 8, 220_000, 16),
            // …16-byte nodes for native (64-bit pointers): double the
            // working set, double the dTLB/dcache pressure.
            native_wat: Some(kernels::pointer_chase(4_096, 16, 220_000, 16)),
        },
        Workload::new("433_milc", kernels::matmul(48, 4)),
        Workload::new("444_namd", kernels::nbody(320, 3, 4)),
        Workload::new("445_gobmk", kernels::branchy(160_000, 4)),
        Workload::new("458_sjeng", kernels::switch_dispatch(130_000, 12, 4)),
        Workload::new("462_libquantum", kernels::bitops(350_000, 4)),
        Workload::new("464_h264ref", kernels::blockcopy_struct(2_500, 2048, 4)),
        Workload::new("470_lbm", kernels::stencil(12_000, 22, 4)),
        // astar: tight unrolled random-access loop — fetch-bound, so the
        // gs/addr32 prefixes cost Segue slightly more than they save.
        Workload::new("473_astar", kernels::random_access(220_000, 32768, 4, 4)),
    ]
}

/// The 14-benchmark SPEC CPU 2017 SPECrate subset used by the LFI
/// evaluation (Figure 5).
pub fn spec2017() -> Vec<Workload> {
    vec![
        Workload::new("502_gcc_r", kernels::compress(100_000, 8)),
        Workload {
            name: "505_mcf_r",
            wat: kernels::pointer_chase(4_096, 8, 200_000, 16),
            native_wat: Some(kernels::pointer_chase(4_096, 16, 200_000, 16)),
        },
        Workload::new("508_namd_r", kernels::nbody(300, 3, 4)),
        Workload::new("510_parest_r", kernels::matmul(44, 4)),
        Workload::new("511_povray_r", kernels::nbody(260, 3, 4)),
        Workload::new("519_lbm_r", kernels::stencil(11_000, 20, 4)),
        Workload::new("520_omnetpp_r", kernels::pointer_chase(8_192, 12, 180_000, 8)),
        Workload::new("523_xalancbmk_r", kernels::xml_parse(200_000, 8)),
        Workload::new("525_x264_r", kernels::blockcopy_struct(2_200, 2048, 4)),
        Workload::new("531_deepsjeng_r", kernels::switch_dispatch(120_000, 16, 4)),
        Workload::new("538_imagick_r", kernels::stencil(9_000, 22, 4)),
        Workload::new("541_leela_r", kernels::branchy(150_000, 4)),
        Workload::new("544_nab_r", kernels::nbody(280, 3, 4)),
        Workload::new("557_xz_r", kernels::compress(110_000, 8)),
    ]
}

/// The Sightglass micro-suite of Figure 4 (WAMR).
pub fn sightglass() -> Vec<Workload> {
    vec![
        Workload::new("base64", kernels::base64(90_000, 4)),
        Workload::new("fib2", kernels::fib(23, 1)),
        Workload::new("gimli", kernels::bitops(280_000, 1)),
        Workload::new("heapsort", kernels::heapsort(24_000, 4)),
        Workload::new("matrix", kernels::matmul(40, 2)),
        Workload::new("memmove", kernels::blockcopy(1_600, 4096, 4)),
        Workload::new("nestedloop", kernels::nestedloop(120, 90, 40, 1)),
        Workload::new("nestedloop2", kernels::nestedloop(60, 60, 120, 1)),
        Workload::new("nestedloop3", kernels::nestedloop(350, 35, 35, 1)),
        Workload::new("random", kernels::random_access(240_000, 65536, 1, 2)),
        Workload::new("seqhash", kernels::bitops(300_000, 1)),
        Workload::new("sieve", kernels::sieve(4_096, 60, 4)),
        Workload::new("strchr", kernels::strchr(30_000, 12, 1)),
        Workload::new("switch2", kernels::switch_dispatch(140_000, 20, 1)),
    ]
}

/// A PolybenchC-like selection (§6.2).
pub fn polybench() -> Vec<Workload> {
    vec![
        Workload::new("2mm", kernels::matmul(36, 2)),
        Workload::new("3mm", kernels::matmul(42, 2)),
        Workload::new("atax", kernels::stream(260_000, 6, 8)),
        Workload::new("bicg", kernels::stream(200_000, 7, 8)),
        Workload {
            name: "mvt",
            wat: kernels::pointer_chase(8_192, 8, 160_000, 8),
            native_wat: Some(kernels::pointer_chase(8_192, 16, 160_000, 8)),
        },
        Workload {
            name: "durbin",
            wat: kernels::pointer_chase(8_192, 8, 150_000, 8),
            native_wat: Some(kernels::pointer_chase(8_192, 16, 150_000, 8)),
        },
        Workload {
            name: "trmm",
            wat: kernels::pointer_chase(6_144, 8, 140_000, 8),
            native_wat: Some(kernels::pointer_chase(6_144, 16, 140_000, 8)),
        },
        Workload::new("jacobi-1d", kernels::stencil(10_000, 24, 2)),
        Workload::new("seidel-2d", kernels::stencil(14_000, 16, 2)),
        Workload::new("gemm", kernels::matmul(46, 2)),
    ]
}

/// The Dhrystone workload (§6.2).
pub fn dhrystone() -> Workload {
    Workload {
        name: "dhrystone",
        wat: kernels::dhrystone(70_000, 32, 1),
        native_wat: Some(kernels::dhrystone(70_000, 64, 1)),
    }
}

/// Firefox's font-rendering workload: libgraphite-shaped glyph shaping
/// (§6.1). Each call shapes one run of text; Firefox invokes the sandboxed
/// library once per glyph run, so the §6.1 benchmark charges a transition
/// (with segment-base set) per invocation.
pub fn firefox_font() -> Workload {
    Workload::new("firefox_font", kernels::font_shaping(96, 120_000, 4))
}

/// Firefox's XML parsing workload: libexpat-shaped SVG scanning (§6.1).
pub fn firefox_xml() -> Workload {
    Workload::new("firefox_xml", kernels::xml_parse(260_000, 8))
}

/// FaaS-shaped hot modules (figX_tiers): request hashing, request
/// filtering and response templating. Short per-invocation work over
/// loops with 6–8 live locals — the population the tiered compiler's
/// promotion policy is sized for (hot enough to recompile, small enough
/// that baseline compile latency matters on cold spawn).
pub fn faas() -> Vec<Workload> {
    vec![
        Workload::new("faas_hash_lb", kernels::hash_lb(60_000, 4096, 2)),
        Workload::new("faas_regex_filter", kernels::regex_filter(500_000, 10)),
        Workload::new("faas_html_template", kernels::html_template(400_000, 8)),
    ]
}

/// Every workload in the corpus (for sweep tests).
pub fn all() -> Vec<Workload> {
    let mut v = spec2006();
    v.extend(spec2017());
    v.extend(sightglass());
    v.extend(polybench());
    v.push(dhrystone());
    v.push(firefox_font());
    v.push(firefox_xml());
    v.extend(faas());
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_parses_and_validates() {
        for w in all() {
            let m = w.module();
            assert!(m.export_index("run").is_some(), "{} must export run", w.name);
            let nm = w.native_module();
            assert!(nm.export_index("run").is_some());
        }
    }

    #[test]
    fn suites_have_the_papers_sizes() {
        assert_eq!(spec2006().len(), 10, "Figure 3 has ten benchmarks");
        assert_eq!(spec2017().len(), 14, "Figure 5 has fourteen benchmarks");
        assert_eq!(sightglass().len(), 14, "Figure 4 has fourteen benchmarks");
    }

    #[test]
    fn workloads_terminate_and_are_deterministic_in_the_interpreter() {
        // Spot-check a fast subset end-to-end in the interpreter.
        for w in [
            &sightglass()[1],  // fib2
            &sightglass()[6],  // nestedloop
            &spec2006()[2],    // milc (matmul 48)
        ] {
            let m = w.module();
            let mut i1 = sfi_wasm::interp::Interpreter::new(&m).unwrap();
            let mut i2 = sfi_wasm::interp::Interpreter::new(&m).unwrap();
            let r1 = i1.invoke_export("run", &[]).unwrap();
            let r2 = i2.invoke_export("run", &[]).unwrap();
            assert_eq!(r1, r2, "{} must be deterministic", w.name);
            assert!(r1.is_some());
        }
    }

    #[test]
    fn corpus_survives_print_parse_round_trips() {
        // The pretty-printer (sfi_wasm::print) must reproduce every corpus
        // module exactly (bodies, tables, globals, data).
        for w in all() {
            let m1 = w.module();
            let printed = sfi_wasm::print::print(&m1);
            let m2 = sfi_wasm::wat::parse(&printed)
                .unwrap_or_else(|e| panic!("{}: reparse: {e}", w.name));
            sfi_wasm::validate(&m2).unwrap_or_else(|e| panic!("{}: revalidate: {e}", w.name));
            assert_eq!(m1.funcs.len(), m2.funcs.len(), "{}", w.name);
            assert_eq!(m1.table, m2.table, "{}", w.name);
            assert_eq!(m1.globals, m2.globals, "{}", w.name);
            for (f1, f2) in m1.funcs.iter().zip(&m2.funcs) {
                assert_eq!(f1.body, f2.body, "{}: bodies must round-trip", w.name);
                assert_eq!(f1.params, f2.params, "{}", w.name);
                assert_eq!(f1.locals, f2.locals, "{}", w.name);
            }
        }
    }

    #[test]
    fn generated_programs_survive_print_parse_round_trips() {
        // Generated data segments hold bytes >= 0x80, which the printer
        // writes as `\hh` escapes.
        for seed in 0..200 {
            let m1 = genprog::generate(seed).module();
            let m2 = sfi_wasm::wat::parse(&sfi_wasm::print::print(&m1))
                .unwrap_or_else(|e| panic!("seed {seed}: reparse: {e}"));
            assert_eq!(m1.data, m2.data, "seed {seed}: data must round-trip");
            let run = |m| sfi_wasm::interp::Interpreter::new(m).unwrap().invoke_export("run", &[]);
            assert_eq!(run(&m1), run(&m2), "seed {seed}: result must round-trip");
        }
    }

    #[test]
    fn mcf_variants_differ_only_in_layout() {
        let mcf = &spec2006()[1];
        assert_eq!(mcf.name, "429_mcf");
        assert!(mcf.native_wat.is_some());
        assert_ne!(mcf.wat, *mcf.native_wat.as_ref().unwrap());
    }
}
