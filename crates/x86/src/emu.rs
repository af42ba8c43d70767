//! The deterministic x86-64 emulator.
//!
//! [`Machine`] executes a [`Program`] against a pluggable [`MemBus`]
//! (a flat test memory here; `sfi-vm` provides a paged, MPK/MTE-checking
//! bus). It retires instructions one at a time, models an L1I/L1D cache and
//! a 2-bit branch predictor, and charges cycles through
//! [`crate::cost::CostModel`].
//!
//! ## One step, two contexts
//!
//! The instruction semantics live once, in `step`, generic over an
//! execution context (DESIGN.md §16). The **committed** context holds the
//! architectural registers, the bus, the caches, [`RunStats`] and the cycle
//! charge, and tracks no taint; [`Machine::run_image_from`] is the fuel and
//! attribution loop around it. The **transient** context is one wrong-path
//! window: shadow registers, a byte-granular store buffer, GPR/XMM/flags
//! taint and a µop budget. Each deliberate difference is a context hook:
//!
//! - memory faults trap when committed; a transient load forwards zero,
//!   synthesizes secret-region bytes and overlays the store buffer;
//! - `jcc` evaluates the flags, trains the predictor and may open a window
//!   when committed; a window follows the predictor read-only;
//! - `jmp`/`call` through a register range-check and train the BTB when
//!   committed; a window follows the BTB, and a tainted target leaks;
//! - a `ret` on an empty stack finishes a run and ends a window, as `div`,
//!   host calls, `wr*base`, `wrpkru`, `ud2` and `lfence` end a window;
//! - committed fetches and accesses charge cycles; a window only leaves its
//!   cache footprint and counts `spec_uops`;
//! - `movdqu` loads use [`MemBus::load128`] when committed and two 8-byte
//!   loads through the store buffer in a window;
//! - any transient access through a tainted address, `%rsp` included, leaks.
//!
//! ## Predecode
//!
//! [`Image::load`] builds a [`Decoded`] entry per instruction: its
//! throughput and serial charges, fetch address, length, provenance and
//! transient µop count. The charges depend on the cost model, so the table
//! records the model it was built against ([`CostModel::default`]); a run
//! on a [`Machine`] whose `cost` differs rebuilds it, with the same
//! function, for that run. The loop thus adds the same f64 values in the
//! same order as charging the model per instruction. A fetch that stays in
//! the last fetched line hits without a tag scan (see [`crate::cache`]).
//!
//! ## Code-address model
//!
//! Code addresses during *execution* are instruction indices (a `Ret` with an
//! empty shadow call stack ends the run); the byte-accurate layout from
//! [`crate::encode`] is used for fetch/i-cache accounting. This split keeps
//! the emulator simple while preserving the size-dependent effects that the
//! Segue evaluation needs.

use std::collections::HashMap;
use std::fmt;

use crate::cache::Cache;
use crate::cost::{CostModel, RunStats};
use crate::encode::{encode_program, EncodeError, Encoded};
use crate::inst::{AluOp, ShiftAmount, ShiftOp};
use crate::{Cond, Gpr, Inst, Label, Mem, MemFault, Program, Seg, Trap, Width, Xmm};

/// Per-access context handed to the bus (the MPK rights register).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessCtx {
    /// The current PKRU value: 2 bits per key, `(AD, WD)` pairs; key *k*'s
    /// access-disable bit is `pkru >> (2k) & 1`, write-disable is
    /// `pkru >> (2k+1) & 1`.
    pub pkru: u32,
}

impl AccessCtx {
    /// A context with all keys enabled (PKRU = 0).
    pub const ALL_ENABLED: AccessCtx = AccessCtx { pkru: 0 };

    /// Whether reads are permitted for `key` under this PKRU.
    #[inline]
    pub fn may_read(&self, key: u8) -> bool {
        self.pkru >> (2 * key) & 1 == 0
    }

    /// Whether writes are permitted for `key` under this PKRU.
    #[inline]
    pub fn may_write(&self, key: u8) -> bool {
        self.may_read(key) && (self.pkru >> (2 * key + 1)) & 1 == 0
    }
}

/// Configuration for the bounded speculation window (DESIGN.md §16).
///
/// When installed on a [`Machine`], every mispredicted conditional branch
/// and every stale-BTB indirect branch opens a transient window: up to
/// `window` µops of the wrong path execute against *shadow* register state
/// and a store-forwarding buffer, then roll back. Cache state is
/// deliberately **not** rolled back — that residue is the Spectre side
/// channel this model exists to measure.
///
/// The window also carries a taint tracker: a transient load from the
/// configured secret region taints its destination register; when a
/// secret-derived value later forms the address of any transient memory
/// access (the "transmit"), the access is recorded in
/// [`RunStats::spec_leaks`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecConfig {
    window: u32,
    secret_lo: u64,
    secret_hi: u64,
}

impl SpecConfig {
    /// Default window: 32 µops, a small ROB's worth of wrong-path work.
    /// Real reorder buffers run 200+ entries; 32 keeps windows cheap to
    /// simulate while still being deep enough for every gadget shape the
    /// corpus exercises (load → derive → transmit is ≤ 10 µops).
    pub const DEFAULT_WINDOW: u32 = 32;

    /// Upper clamp on the window. Deeper windows only re-walk the same
    /// wrong path; 128 bounds worst-case simulation cost per mispredict.
    pub const MAX_WINDOW: u32 = 128;

    /// Creates a speculation config.
    ///
    /// `window` is the µop budget per transient window (clamped to
    /// [`SpecConfig::MAX_WINDOW`]); `[secret_lo, secret_hi)` is the region
    /// whose contents taint transient loads.
    ///
    /// # Errors
    ///
    /// [`SpecError::ZeroWindow`] if `window == 0` (a zero-length window can
    /// never leak and would report false safety), and
    /// [`SpecError::EmptySecretRegion`] if `secret_lo >= secret_hi`.
    pub fn new(window: u32, secret_lo: u64, secret_hi: u64) -> Result<SpecConfig, SpecError> {
        if window == 0 {
            return Err(SpecError::ZeroWindow);
        }
        if secret_lo >= secret_hi {
            return Err(SpecError::EmptySecretRegion);
        }
        Ok(SpecConfig { window: window.min(Self::MAX_WINDOW), secret_lo, secret_hi })
    }

    /// The (possibly clamped) µop budget per window.
    pub fn window(&self) -> u32 {
        self.window
    }

    #[inline]
    fn in_secret(&self, addr: u64) -> bool {
        addr >= self.secret_lo && addr < self.secret_hi
    }
}

/// A rejected [`SpecConfig`] (degenerate window or secret region).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecError {
    /// The requested window was zero µops wide.
    ZeroWindow,
    /// The secret region was empty (`lo >= hi`).
    EmptySecretRegion,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::ZeroWindow => {
                f.write_str("speculation window must be at least 1 µop (W=0 disables the detector)")
            }
            SpecError::EmptySecretRegion => f.write_str("secret region is empty (lo >= hi)"),
        }
    }
}

impl std::error::Error for SpecError {}

/// A data-memory backend for the emulator.
pub trait MemBus {
    /// Loads `width` bytes at `addr`, zero-extended.
    fn load(&mut self, addr: u64, width: Width, ctx: AccessCtx) -> Result<u64, MemFault>;
    /// Stores the low `width` bytes of `val` at `addr`.
    fn store(&mut self, addr: u64, width: Width, val: u64, ctx: AccessCtx)
        -> Result<(), MemFault>;

    /// Loads 16 bytes (for `movdqu`). The default issues two 8-byte loads.
    fn load128(&mut self, addr: u64, ctx: AccessCtx) -> Result<u128, MemFault> {
        let lo = self.load(addr, Width::Q, ctx)?;
        let hi = self.load(addr + 8, Width::Q, ctx)?;
        Ok((lo as u128) | ((hi as u128) << 64))
    }

    /// Stores 16 bytes (for `movdqu`). The default issues two 8-byte stores.
    fn store128(&mut self, addr: u64, val: u128, ctx: AccessCtx) -> Result<(), MemFault> {
        self.store(addr, Width::Q, val as u64, ctx)?;
        self.store(addr + 8, Width::Q, (val >> 64) as u64, ctx)
    }
}

/// A flat, fully mapped memory for tests and self-contained benchmarks.
#[derive(Debug, Clone)]
pub struct FlatMemory {
    bytes: Vec<u8>,
}

impl FlatMemory {
    /// Creates a zeroed flat memory of `size` bytes.
    pub fn new(size: usize) -> FlatMemory {
        FlatMemory { bytes: vec![0; size] }
    }

    /// Size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the memory is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Direct view of the backing bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Direct mutable view of the backing bytes.
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.bytes
    }

    fn check(&self, addr: u64, len: u64) -> Result<usize, MemFault> {
        let end = addr.checked_add(len).ok_or(MemFault::OutOfRange { addr })?;
        if end as usize > self.bytes.len() {
            return Err(MemFault::OutOfRange { addr });
        }
        Ok(addr as usize)
    }
}

/// The `N` bytes at the start of `b`.
#[inline(always)]
fn bytes_at<const N: usize>(b: &[u8]) -> [u8; N] {
    let mut a = [0; N];
    a.copy_from_slice(&b[..N]);
    a
}

impl MemBus for FlatMemory {
    fn load(&mut self, addr: u64, width: Width, _ctx: AccessCtx) -> Result<u64, MemFault> {
        let b = &self.bytes[self.check(addr, width.bytes())?..];
        Ok(match width {
            Width::B => u64::from(b[0]),
            Width::W => u64::from(u16::from_le_bytes(bytes_at(b))),
            Width::D => u64::from(u32::from_le_bytes(bytes_at(b))),
            Width::Q => u64::from_le_bytes(bytes_at(b)),
        })
    }

    fn store(
        &mut self,
        addr: u64,
        width: Width,
        val: u64,
        _ctx: AccessCtx,
    ) -> Result<(), MemFault> {
        let i = self.check(addr, width.bytes())?;
        let b = &mut self.bytes[i..];
        match width {
            Width::B => b[0] = val as u8,
            Width::W => b[..2].copy_from_slice(&(val as u16).to_le_bytes()),
            Width::D => b[..4].copy_from_slice(&(val as u32).to_le_bytes()),
            Width::Q => b[..8].copy_from_slice(&val.to_le_bytes()),
        }
        Ok(())
    }
}

/// Architectural flags (the subset compilers branch on).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Flags {
    /// Zero flag.
    pub zf: bool,
    /// Sign flag.
    pub sf: bool,
    /// Carry flag.
    pub cf: bool,
    /// Overflow flag.
    pub of: bool,
}

impl Flags {
    /// Evaluates a condition code against these flags.
    pub fn cond(&self, c: Cond) -> bool {
        match c {
            Cond::E => self.zf,
            Cond::Ne => !self.zf,
            Cond::L => self.sf != self.of,
            Cond::Le => self.zf || self.sf != self.of,
            Cond::G => !self.zf && self.sf == self.of,
            Cond::Ge => self.sf == self.of,
            Cond::B => self.cf,
            Cond::Be => self.cf || self.zf,
            Cond::A => !self.cf && !self.zf,
            Cond::Ae => !self.cf,
            Cond::S => self.sf,
            Cond::Ns => !self.sf,
        }
    }
}

/// The architectural register state.
#[derive(Debug, Clone, Default)]
pub struct RegFile {
    gpr: [u64; 16],
    xmm: [u128; 16],
    /// `%gs` segment base (Segue's sandbox heap base).
    pub gs_base: u64,
    /// `%fs` segment base (conventionally TLS).
    pub fs_base: u64,
    /// MPK rights register.
    pub pkru: u32,
    /// Current flags.
    pub flags: Flags,
}

impl RegFile {
    /// Reads a general-purpose register (full 64 bits).
    #[inline]
    pub fn gpr(&self, r: Gpr) -> u64 {
        self.gpr[r.index()]
    }

    /// Writes a general-purpose register (full 64 bits).
    #[inline]
    pub fn set_gpr(&mut self, r: Gpr, v: u64) {
        self.gpr[r.index()] = v;
    }

    /// Writes a register at `width` with x86 merge semantics: 32-bit writes
    /// zero the upper half; 8/16-bit writes merge into the low bits.
    #[inline]
    pub fn write_width(&mut self, r: Gpr, w: Width, v: u64) {
        let slot = &mut self.gpr[r.index()];
        *slot = match w {
            Width::Q => v,
            Width::D => v & 0xFFFF_FFFF,
            Width::W => (*slot & !0xFFFF) | (v & 0xFFFF),
            Width::B => (*slot & !0xFF) | (v & 0xFF),
        };
    }

    /// Reads an XMM register.
    #[inline]
    pub fn xmm(&self, x: crate::Xmm) -> u128 {
        self.xmm[x.index()]
    }

    /// Writes an XMM register.
    #[inline]
    pub fn set_xmm(&mut self, x: crate::Xmm, v: u128) {
        self.xmm[x.index()] = v;
    }

    #[inline]
    fn ea(&self, mem: &Mem) -> u64 {
        let seg_base = |s| match s {
            Seg::Fs => self.fs_base,
            Seg::Gs => self.gs_base,
        };
        mem.effective_addr(|r| self.gpr(r), seg_base)
    }

    /// `div`/`idiv` of `rdx:rax` by `src` at `width`: a zero divisor or a
    /// quotient that does not fit `width` raises #DE.
    fn div(&mut self, src: Gpr, width: Width, signed: bool) -> Result<(), Trap> {
        let bits = width.bytes() as u32 * 8;
        let d = width.mask(self.gpr(src));
        if d == 0 {
            return Err(Trap::DivideError);
        }
        let hi = u128::from(width.mask(self.gpr(Gpr::Rdx)));
        let dividend = (hi << bits) | u128::from(width.mask(self.gpr(Gpr::Rax)));
        let (q, r) = if signed {
            let shift = 128 - 2 * bits;
            let (n, d) = (((dividend << shift) as i128) >> shift, i128::from(width.sext(d) as i64));
            let half = 1i128 << (bits - 1);
            match n.checked_div(d) {
                Some(q) if (-half..half).contains(&q) => (q as u64, (n % d) as u64),
                _ => return Err(Trap::DivideError),
            }
        } else {
            let (q, r) = (dividend / u128::from(d), dividend % u128::from(d));
            if q >> bits != 0 {
                return Err(Trap::DivideError);
            }
            (q as u64, r as u64)
        };
        self.write_width(Gpr::Rax, width, q);
        self.write_width(Gpr::Rdx, width, r);
        Ok(())
    }
}

/// A program paired with its encoded byte layout and its predecoded table.
#[derive(Debug, Clone)]
pub struct Image {
    program: Program,
    encoded: Encoded,
    /// The cost model `decoded` was built against.
    cost: CostModel,
    decoded: Vec<Decoded>,
}

/// The static facts the emulator charges for one instruction under one
/// cost model (see "Predecode" in the module doc).
#[derive(Debug, Clone, Copy)]
pub struct Decoded {
    /// [`CostModel::throughput_cycles`] at the encoded length.
    pub throughput: f64,
    /// [`CostModel::serial_cycles`].
    pub serial: f64,
    /// Byte offset in the encoding: the I-cache fetch address.
    pub fetch: u32,
    /// Encoded length in bytes (x86 caps it at 15).
    pub len: u8,
    /// [`crate::Provenance::index`] of the instruction's class.
    pub prov: u8,
    /// µops it costs a transient window: [`CostModel::uops`], rounded up.
    pub spec_uops: u8,
}

/// The [`Decoded`] table of `program`, laid out as `encoded`, under `cost`.
fn predecode(program: &Program, encoded: &Encoded, cost: &CostModel) -> Vec<Decoded> {
    let decode = |(pc, inst)| {
        let len = encoded.inst_len(pc);
        Decoded {
            throughput: cost.throughput_cycles(inst, len),
            serial: cost.serial_cycles(inst),
            fetch: encoded.offsets[pc],
            len: len as u8,
            prov: program.prov_at(pc).index() as u8,
            spec_uops: cost.uops(inst).ceil().max(1.0) as u8,
        }
    };
    program.insts().iter().enumerate().map(decode).collect()
}

impl Image {
    /// Encodes `program` (with branch relaxation), pairs it for execution
    /// and predecodes it against [`CostModel::default`].
    pub fn load(program: Program) -> Result<Image, EncodeError> {
        let encoded = encode_program(&program)?;
        let cost = CostModel::default();
        let decoded = predecode(&program, &encoded, &cost);
        Ok(Image { program, encoded, cost, decoded })
    }

    /// The program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The encoded bytes/offsets.
    pub fn encoded(&self) -> &Encoded {
        &self.encoded
    }

    /// Total code size in bytes.
    pub fn code_size(&self) -> usize {
        self.encoded.len()
    }

    /// The predecoded table under [`CostModel::default`], one entry per instruction.
    pub fn decoded(&self) -> &[Decoded] {
        &self.decoded
    }
}

/// Host-call handler: receives the host function id, registers and bus.
///
/// Returns the extra cycles the host work should be charged (e.g. a bulk
/// `memory.copy` costs time proportional to its length).
pub type HostHandler<'a, M> = dyn FnMut(u32, &mut RegFile, &mut M) -> Result<f64, Trap> + 'a;

/// The emulator.
///
/// A `Machine` owns register state, caches, and a cost model. Caches stay
/// warm across [`Machine::run_image`] calls; call [`Machine::reset_caches`]
/// between unrelated measurements.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Architectural registers.
    pub regs: RegFile,
    /// The cycle cost model.
    pub cost: CostModel,
    icache: Cache,
    dcache: Cache,
    fuel: u64,
    allow_system: bool,
    spec: Option<SpecConfig>,
}

impl Default for Machine {
    fn default() -> Self {
        Machine::new()
    }
}

impl Machine {
    /// A machine with default cost model and caches.
    pub fn new() -> Machine {
        Machine {
            regs: RegFile::default(),
            cost: CostModel::default(),
            icache: Cache::l1i_default(),
            dcache: Cache::l1d_default(),
            fuel: 2_000_000_000,
            allow_system: true,
            spec: None,
        }
    }

    /// Sets the instruction budget for subsequent runs.
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }

    /// Forbids `wrpkru`/`wr*base` (models sandbox code, which must never
    /// contain them — §3.2's "Wasm compilers control which instructions are
    /// emitted").
    pub fn forbid_system_instructions(&mut self) {
        self.allow_system = false;
    }

    /// Turns on the bounded speculation window for subsequent runs.
    ///
    /// Off by default — with no config installed, runs are bit-identical to
    /// the pre-speculation emulator. With it, mispredicted branches execute
    /// transient wrong-path µops per [`SpecConfig`], populating the
    /// `spec_flushes` / `spec_uops` / `spec_leaks` buckets of
    /// [`RunStats`] (pure counters: no cycles are charged, so the exact-sum
    /// invariant `attributed_cycles() == cycles` is untouched).
    pub fn enable_speculation(&mut self, cfg: SpecConfig) {
        self.spec = Some(cfg);
    }

    /// Reads a general-purpose register.
    pub fn gpr(&self, r: Gpr) -> u64 {
        self.regs.gpr(r)
    }

    /// Writes a general-purpose register.
    pub fn set_gpr(&mut self, r: Gpr, v: u64) {
        self.regs.set_gpr(r, v);
    }

    /// Invalidates both L1 caches (keeps their counters).
    pub fn reset_caches(&mut self) {
        self.icache.flush();
        self.dcache.flush();
    }

    /// Shared reference to the data cache (for miss accounting).
    pub fn dcache(&self) -> &Cache {
        &self.dcache
    }

    /// Shared reference to the instruction cache.
    pub fn icache(&self) -> &Cache {
        &self.icache
    }

    /// Encodes and runs `program` from its first instruction with no host.
    ///
    /// Convenience wrapper over [`Image::load`] + [`Machine::run_image`].
    ///
    /// # Panics
    ///
    /// Panics if the program fails to encode (unbound label, illegal
    /// addressing mode) — these are compiler bugs, not runtime conditions.
    pub fn run(&mut self, program: &Program, bus: &mut impl MemBus) -> Result<RunStats, Trap> {
        let image = Image::load(program.clone()).expect("program must encode");
        self.run_image(&image, bus)
    }

    /// Runs a pre-encoded image from instruction 0 with no host handler.
    pub fn run_image(&mut self, image: &Image, bus: &mut impl MemBus) -> Result<RunStats, Trap> {
        self.run_image_from(image, 0, bus, &mut |f, _, _| {
            Err(Trap::BadControlFlow { target: u64::from(f) })
        })
    }

    /// Runs a pre-encoded image starting at instruction index `entry`.
    pub fn run_image_from<M: MemBus>(
        &mut self,
        image: &Image,
        entry: usize,
        bus: &mut M,
        host: &mut HostHandler<'_, M>,
    ) -> Result<RunStats, Trap> {
        let prog = &image.program;
        let rebuilt;
        let table = if image.cost == self.cost {
            &image.decoded
        } else {
            rebuilt = predecode(prog, &image.encoded, &self.cost);
            &rebuilt
        };
        let mut fuel = self.fuel;
        // The owned state lives outside the context, which thus needs no
        // drop glue and can stay in registers.
        let mut pred = Predictors { counters: vec![1; prog.insts().len()], btb: HashMap::new() };
        let mut stack = Vec::with_capacity(64);
        let mut c = Committed {
            m: self,
            bus,
            host,
            image,
            table,
            stats: RunStats::default(),
            cycles: 0.0,
            pred: &mut pred,
            stack: &mut stack,
        };
        let mut pc = entry;
        while pc < table.len() {
            if fuel == 0 {
                return Err(Trap::FuelExhausted);
            }
            fuel -= 1;

            let d = &table[pc];
            c.stats.insts += 1;
            c.stats.code_bytes_fetched += u64::from(d.len);
            // Miss counters before this instruction: the deltas after the
            // step below reconstruct exactly the penalty cycles it was
            // charged (each miss adds one fixed `*_miss_cycles` constant).
            let miss0 = (c.stats.icache_misses, c.stats.dcache_misses, c.stats.branch_misses);
            c.cycles = d.throughput;
            if !c.m.icache.access(u64::from(d.fetch)) {
                c.stats.icache_misses += 1;
                c.cycles += c.m.cost.icache_miss_cycles;
            }
            // `None`: the top-level `ret` retired. It still flows through
            // the attribution tail below before the loop exits.
            let next = step(&mut c, prog, pc)?;
            let (cost, stats) = (&c.m.cost, &mut c.stats);
            c.cycles += d.serial;
            // Attribution: split this instruction's charge into its
            // microarchitectural penalties (reconstructed from the miss
            // deltas) and the remainder, which lands in the bucket of the
            // provenance class the compiler tagged the instruction with.
            let pen_i = (stats.icache_misses - miss0.0) as f64 * cost.icache_miss_cycles;
            let pen_d = (stats.dcache_misses - miss0.1) as f64 * cost.dcache_miss_cycles;
            let pen_b = (stats.branch_misses - miss0.2) as f64 * cost.branch_miss_cycles;
            stats.icache_penalty_cycles += pen_i;
            stats.dcache_penalty_cycles += pen_d;
            stats.branch_penalty_cycles += pen_b;
            stats.prov_cycles[usize::from(d.prov)] += c.cycles - (pen_i + pen_d + pen_b);
            match next {
                Some(n) => pc = n,
                None => break,
            }
        }
        // Finalize total cycles *from* the buckets so the sum invariant
        // (`attributed_cycles() == cycles`) holds bit-for-bit on every
        // successful return; see DESIGN.md §14.
        c.stats.cycles = c.stats.attributed_cycles();
        Ok(c.stats)
    }
}

/// The hooks by which the two execution contexts of [`step`] differ.
/// `Halt` cuts a step short: a [`Trap`] when committed; when transient, the
/// end of the window, which every trap also is.
trait Exec {
    type Halt: From<Trap>;

    /// The register file the step reads and writes.
    fn regs(&mut self) -> &mut RegFile;
    /// The return-address stack `call`/`ret` push and pop.
    fn stack(&mut self) -> &mut Vec<usize>;
    /// Loads `w` bytes through `mem`: the value and its taint.
    fn load(&mut self, mem: &Mem, w: Width) -> Result<(u64, bool), Self::Halt>;
    /// Stores the low `w` bytes of `v`, carrying taint `t`, through `mem`.
    fn store(&mut self, mem: &Mem, w: Width, v: u64, t: bool) -> Result<(), Self::Halt>;
    /// The 16-byte `movdqu` load.
    fn load128(&mut self, mem: &Mem) -> Result<(u128, bool), Self::Halt>;
    /// The 16-byte `movdqu` store.
    fn store128(&mut self, mem: &Mem, v: u128, t: bool) -> Result<(), Self::Halt>;
    /// Whether the `jcc cond, target` at `pc` is followed.
    fn branch(&mut self, pc: usize, cond: Cond, target: Label) -> bool;
    /// The target of the indirect `jmp`/`call` through `reg` at `pc`.
    fn indirect(&mut self, pc: usize, reg: Gpr) -> Result<usize, Self::Halt>;
    /// Charges a taken branch.
    fn taken(&mut self);
    /// Calls host function `func`.
    fn host(&mut self, func: u32) -> Result<(), Self::Halt>;
    /// A serializing instruction; `privileged` ones write system state.
    fn serialize(&mut self, privileged: bool) -> Result<(), Self::Halt>;

    // Taint: the transient context keeps one bit per GPR, per XMM register
    // and for the flags. Committed execution tracks none, and these no-op
    // defaults compile away.

    /// Whether GPR `r` holds secret-derived data.
    fn tainted(&self, _r: Gpr) -> bool {
        false
    }
    /// Records the taint of a `w`-wide write to `r`.
    fn set_taint(&mut self, _r: Gpr, _w: Width, _t: bool) {}
    /// Whether XMM register `x` holds secret-derived data.
    fn xmm_tainted(&self, _x: Xmm) -> bool {
        false
    }
    /// Records the taint of a write to `x`.
    fn set_xmm_taint(&mut self, _x: Xmm, _t: bool) {}
    /// Whether the flags were computed from secret-derived data.
    fn flags_tainted(&self) -> bool {
        false
    }
    /// Records the taint of a flags write.
    fn set_flags_taint(&mut self, _t: bool) {}

    /// Whether the address `mem` forms is secret-derived.
    fn addr_tainted(&self, mem: &Mem) -> bool {
        mem.base.is_some_and(|b| self.tainted(b)) || mem.index.is_some_and(|(i, _)| self.tainted(i))
    }

    /// Writes `v` to `dst` at width `w`, with taint `t`.
    fn write(&mut self, dst: Gpr, w: Width, v: u64, t: bool) {
        self.regs().write_width(dst, w, v);
        self.set_taint(dst, w, t);
    }
}

/// Executes the instruction at `pc` in context `c`: the one copy of the
/// instruction semantics. Returns the next pc, or `None` when a `ret` finds
/// the return-address stack empty.
#[inline(always)]
fn step<C: Exec>(c: &mut C, prog: &Program, pc: usize) -> Result<Option<usize>, C::Halt> {
    let mut next = pc + 1;
    match prog.insts()[pc] {
        Inst::MovRR { dst, src, width } => {
            let v = width.mask(c.regs().gpr(src));
            let t = c.tainted(src);
            c.write(dst, width, v, t);
        }
        Inst::MovRI { dst, imm, width } => c.write(dst, width, imm as u64, false),
        Inst::Load { dst, mem, width } => {
            // A 32-bit load zero-extends; 8/16-bit merge.
            let (v, t) = c.load(&mem, width)?;
            c.write(dst, width, v, t);
        }
        Inst::LoadSx { dst, mem, width } => {
            let (v, t) = c.load(&mem, width)?;
            c.write(dst, Width::Q, width.sext(v), t);
        }
        Inst::LoadZx { dst, mem, width } => {
            let (v, t) = c.load(&mem, width)?;
            c.write(dst, Width::Q, width.mask(v), t);
        }
        Inst::Store { src, mem, width } => {
            let v = width.mask(c.regs().gpr(src));
            let t = c.tainted(src);
            c.store(&mem, width, v, t)?;
        }
        Inst::StoreImm { imm, mem, width } => {
            c.store(&mem, width, width.mask(imm as i64 as u64), false)?;
        }
        Inst::Lea { dst, mem, width } => {
            // lea ignores the segment base; addr32 still truncates.
            let regs = c.regs();
            let ea = mem.effective_addr(|r| regs.gpr(r), |_| 0);
            let t = c.addr_tainted(&mem);
            c.write(dst, width, ea, t);
        }
        Inst::Movzx { dst, src, from } => {
            let v = from.mask(c.regs().gpr(src));
            let t = c.tainted(src);
            c.write(dst, Width::Q, v, t);
        }
        Inst::Movsx { dst, src, from } => {
            let v = from.sext(c.regs().gpr(src));
            let t = c.tainted(src);
            c.write(dst, Width::Q, v, t);
        }
        Inst::AluRR { op, dst, src, width } => {
            let regs = c.regs();
            let (a, b) = (width.mask(regs.gpr(dst)), width.mask(regs.gpr(src)));
            let t = c.tainted(dst) | c.tainted(src);
            alu(c, op, dst, a, b, width, t);
        }
        Inst::AluRI { op, dst, imm, width } => {
            let a = width.mask(c.regs().gpr(dst));
            let t = c.tainted(dst);
            alu(c, op, dst, a, width.mask(imm as i64 as u64), width, t);
        }
        Inst::AluRM { op, dst, mem, width } => {
            let (b, bt) = c.load(&mem, width)?;
            let a = width.mask(c.regs().gpr(dst));
            let t = c.tainted(dst) | bt;
            alu(c, op, dst, a, width.mask(b), width, t);
        }
        Inst::TestRR { a, b, width } => {
            let regs = c.regs();
            let x = width.mask(regs.gpr(a)) & width.mask(regs.gpr(b));
            regs.flags = Flags { zf: x == 0, sf: x >> width.sign_bit() & 1 == 1, ..Flags::default() };
            let t = c.tainted(a) | c.tainted(b);
            c.set_flags_taint(t);
        }
        Inst::Imul { dst, src, width } => {
            let regs = c.regs();
            let v = width.mask(regs.gpr(dst)).wrapping_mul(width.mask(regs.gpr(src)));
            let t = c.tainted(dst) | c.tainted(src);
            c.write(dst, width, width.mask(v), t);
        }
        Inst::ImulRRI { dst, src, imm, width } => {
            let v = width.mask(c.regs().gpr(src)).wrapping_mul(width.mask(imm as i64 as u64));
            let t = c.tainted(src);
            c.write(dst, width, width.mask(v), t);
        }
        Inst::Div { src, width, signed } => {
            // Divides end a window: their latency outlives any real one.
            c.serialize(false)?;
            c.regs().div(src, width, signed)?;
        }
        Inst::Cdq { width } => {
            let a = width.mask(c.regs().gpr(Gpr::Rax));
            let v = if a >> width.sign_bit() & 1 == 1 { width.mask(u64::MAX) } else { 0 };
            let t = c.tainted(Gpr::Rax);
            c.write(Gpr::Rdx, width, v, t);
        }
        Inst::Shift { op, dst, amount, width } => {
            let (n, amount_t) = match amount {
                ShiftAmount::Imm(i) => (u32::from(i), false),
                ShiftAmount::Cl => ((c.regs().gpr(Gpr::Rcx) & 0xFF) as u32, c.tainted(Gpr::Rcx)),
            };
            let n = n & (width.bytes() as u32 * 8 - 1);
            let r = shift_compute(op, width.mask(c.regs().gpr(dst)), n, width);
            let t = c.tainted(dst) | amount_t;
            c.write(dst, width, r, t);
            if n != 0 {
                let flags = &mut c.regs().flags;
                flags.zf = r == 0;
                flags.sf = r >> width.sign_bit() & 1 == 1;
                c.set_flags_taint(t);
            }
        }
        Inst::Neg { dst, width } => {
            let a = width.mask(c.regs().gpr(dst));
            let t = c.tainted(dst);
            alu(c, AluOp::Sub, dst, 0, a, width, t);
        }
        Inst::Not { dst, width } => {
            let regs = c.regs();
            regs.write_width(dst, width, width.mask(!regs.gpr(dst)));
        }
        Inst::Cmov { cond, dst, src, width } => {
            if c.regs().flags.cond(cond) {
                let v = width.mask(c.regs().gpr(src));
                let t = c.tainted(src) | c.flags_tainted();
                c.write(dst, width, v, t);
            } else if width == Width::D {
                // cmov always writes in 32-bit form (zeroes upper).
                let regs = c.regs();
                regs.set_gpr(dst, width.mask(regs.gpr(dst)));
            }
        }
        Inst::Setcc { cond, dst } => {
            let v = u64::from(c.regs().flags.cond(cond));
            let t = c.flags_tainted();
            c.write(dst, Width::Q, v, t);
        }
        Inst::Jmp { target } => {
            next = resolve(prog, target)?;
            c.taken();
        }
        Inst::Jcc { cond, target } => {
            if c.branch(pc, cond, target) {
                next = resolve(prog, target)?;
                c.taken();
            }
        }
        Inst::JmpReg { reg } => {
            next = c.indirect(pc, reg)?;
            c.taken();
        }
        Inst::Call { target } => {
            c.stack().push(pc + 1);
            next = resolve(prog, target)?;
            c.taken();
        }
        Inst::CallReg { reg } => {
            next = c.indirect(pc, reg)?;
            c.stack().push(pc + 1);
            c.taken();
        }
        Inst::CallHost { func } => c.host(func)?,
        Inst::Ret => match c.stack().pop() {
            Some(ra) => {
                next = ra;
                c.taken();
            }
            None => return Ok(None),
        },
        Inst::Push { reg } => {
            let regs = c.regs();
            let sp = regs.gpr(Gpr::Rsp).wrapping_sub(8);
            regs.set_gpr(Gpr::Rsp, sp);
            let v = regs.gpr(reg);
            let t = c.tainted(reg);
            c.store(&Mem::base(Gpr::Rsp), Width::Q, v, t)?;
        }
        Inst::Pop { reg } => {
            let (v, t) = c.load(&Mem::base(Gpr::Rsp), Width::Q)?;
            let regs = c.regs();
            let sp = regs.gpr(Gpr::Rsp);
            regs.set_gpr(reg, v);
            regs.set_gpr(Gpr::Rsp, sp.wrapping_add(8));
            c.set_taint(reg, Width::Q, t);
        }
        Inst::MovdquLoad { dst, mem } => {
            let (v, t) = c.load128(&mem)?;
            c.regs().set_xmm(dst, v);
            c.set_xmm_taint(dst, t);
        }
        Inst::MovdquStore { src, mem } => {
            let v = c.regs().xmm(src);
            let t = c.xmm_tainted(src);
            c.store128(&mem, v, t)?;
        }
        Inst::MovdqaRR { dst, src } => {
            let v = c.regs().xmm(src);
            let t = c.xmm_tainted(src);
            c.regs().set_xmm(dst, v);
            c.set_xmm_taint(dst, t);
        }
        Inst::WrGsBase { src } => {
            c.serialize(true)?;
            let regs = c.regs();
            regs.gs_base = regs.gpr(src);
        }
        Inst::RdGsBase { dst } => {
            let v = c.regs().gs_base;
            c.write(dst, Width::Q, v, false);
        }
        Inst::WrFsBase { src } => {
            c.serialize(true)?;
            let regs = c.regs();
            regs.fs_base = regs.gpr(src);
        }
        Inst::WrPkru => {
            c.serialize(true)?;
            let regs = c.regs();
            regs.pkru = regs.gpr(Gpr::Rax) as u32;
        }
        Inst::RdPkru => {
            let v = u64::from(c.regs().pkru);
            c.write(Gpr::Rax, Width::Q, v, false);
        }
        Inst::Ud2 => return Err(Trap::Undefined.into()),
        // Architecturally a no-op: its effects are that no transient
        // window crosses it and the cost model's serial-dispatch charge.
        Inst::Lfence => c.serialize(false)?,
        Inst::Nop => {}
    }
    Ok(Some(next))
}

/// `dst = a op b` (unless `op` only compares), setting the flags.
#[inline(always)]
fn alu<C: Exec>(c: &mut C, op: AluOp, dst: Gpr, a: u64, b: u64, width: Width, t: bool) {
    let (r, flags) = alu_compute(op, a, b, width);
    c.regs().flags = flags;
    c.set_flags_taint(t);
    if op.writes_dst() {
        c.write(dst, width, r, t);
    }
}

fn resolve(prog: &Program, target: Label) -> Result<usize, Trap> {
    prog.resolve(target).ok_or(Trap::BadControlFlow { target: u64::from(target.0) })
}

/// The committed context: the architectural registers, the bus, the
/// caches, the predictor state that committed branches train, the run's
/// [`RunStats`] and the cycle charge of the instruction being retired.
struct Committed<'a, M: MemBus> {
    m: &'a mut Machine,
    bus: &'a mut M,
    host: &'a mut HostHandler<'a, M>,
    image: &'a Image,
    table: &'a [Decoded],
    stats: RunStats,
    cycles: f64,
    pred: &'a mut Predictors,
    stack: &'a mut Vec<usize>,
}

/// The predictor state committed branches train and a window follows.
struct Predictors {
    /// 2-bit counters per instruction site (weakly taken initial state).
    counters: Vec<u8>,
    btb: HashMap<usize, usize>,
}

impl<M: MemBus> Committed<'_, M> {
    /// Address and bus context of a data access: counts it and charges the
    /// exposed load latency (loads only), then the D-cache misses. Counting
    /// before the bus access is safe: a faulting run returns no stats.
    fn access(&mut self, mem: &Mem, len: u64, load: bool) -> (u64, AccessCtx) {
        if load {
            self.stats.loads += 1;
            self.cycles += self.m.cost.load_cycles;
        } else {
            self.stats.stores += 1;
        }
        let ea = self.m.regs.ea(mem);
        let misses = self.m.dcache.access_range(ea, len);
        self.stats.dcache_misses += u64::from(misses);
        self.cycles += f64::from(misses) * self.m.cost.dcache_miss_cycles;
        (ea, AccessCtx { pkru: self.m.regs.pkru })
    }
}

impl<M: MemBus> Exec for Committed<'_, M> {
    type Halt = Trap;

    fn regs(&mut self) -> &mut RegFile {
        &mut self.m.regs
    }

    fn stack(&mut self) -> &mut Vec<usize> {
        self.stack
    }

    fn load(&mut self, mem: &Mem, w: Width) -> Result<(u64, bool), Trap> {
        let (ea, ctx) = self.access(mem, w.bytes(), true);
        Ok((self.bus.load(ea, w, ctx)?, false))
    }

    fn store(&mut self, mem: &Mem, w: Width, v: u64, _t: bool) -> Result<(), Trap> {
        let (ea, ctx) = self.access(mem, w.bytes(), false);
        Ok(self.bus.store(ea, w, v, ctx)?)
    }

    fn load128(&mut self, mem: &Mem) -> Result<(u128, bool), Trap> {
        let (ea, ctx) = self.access(mem, 16, true);
        Ok((self.bus.load128(ea, ctx)?, false))
    }

    fn store128(&mut self, mem: &Mem, v: u128, _t: bool) -> Result<(), Trap> {
        let (ea, ctx) = self.access(mem, 16, false);
        Ok(self.bus.store128(ea, v, ctx)?)
    }

    fn branch(&mut self, pc: usize, cond: Cond, target: Label) -> bool {
        self.stats.branches += 1;
        let taken = self.m.regs.flags.cond(cond);
        let ctr = &mut self.pred.counters[pc];
        let predicted_taken = *ctr >= 2;
        *ctr = if taken { (*ctr + 1).min(3) } else { ctr.saturating_sub(1) };
        if predicted_taken != taken {
            self.stats.branch_misses += 1;
            self.cycles += self.m.cost.branch_miss_cycles;
            // Wrong-path fetch: the front end ran down the *predicted*
            // direction until the mispredict resolved.
            let wrong = if predicted_taken { self.image.program.resolve(target) } else { Some(pc + 1) };
            if let Some(start) = wrong {
                open_window(self.m, self.bus, &mut self.stats, self.pred, self.image, self.table, start);
            }
        }
        taken
    }

    fn indirect(&mut self, pc: usize, reg: Gpr) -> Result<usize, Trap> {
        self.stats.branches += 1;
        let t = self.m.regs.gpr(reg) as usize;
        if t >= self.image.program.insts().len() {
            return Err(Trap::BadControlFlow { target: t as u64 });
        }
        let prev = self.pred.btb.insert(pc, t);
        if prev != Some(t) {
            self.stats.branch_misses += 1;
            self.cycles += self.m.cost.branch_miss_cycles;
            // Stale BTB entry: the front end speculated into the *previous*
            // target with the *current* register state — the transient
            // type-confusion channel.
            if let Some(old) = prev {
                open_window(self.m, self.bus, &mut self.stats, self.pred, self.image, self.table, old);
            }
        }
        Ok(t)
    }

    fn taken(&mut self) {
        self.cycles += self.m.cost.taken_branch_cycles;
    }

    fn host(&mut self, func: u32) -> Result<(), Trap> {
        self.stats.host_calls += 1;
        self.cycles += (self.host)(func, &mut self.m.regs, self.bus)?;
        Ok(())
    }

    fn serialize(&mut self, privileged: bool) -> Result<(), Trap> {
        if privileged && !self.m.allow_system { Err(Trap::PrivilegedInstruction) } else { Ok(()) }
    }
}

/// Opens a transient window at `start` if speculation is enabled. It runs
/// out of line, with the window's state local to it, and the committed
/// context lends it fields, never itself, so that context stays in
/// registers.
#[inline(never)]
fn open_window<M: MemBus>(
    m: &mut Machine,
    bus: &mut M,
    stats: &mut RunStats,
    pred: &Predictors,
    image: &Image,
    table: &[Decoded],
    start: usize,
) {
    if let Some(spec) = m.spec {
        Transient::new(m, bus, stats, pred, image, table, spec).run(start);
    }
}

/// The end of a transient window.
struct WindowEnd;

impl From<Trap> for WindowEnd {
    fn from(_: Trap) -> WindowEnd {
        WindowEnd
    }
}

/// The transient context: one wrong-path window (DESIGN.md §16).
///
/// Registers and flags are a discarded clone, stores land in a forwarding
/// buffer that never reaches the bus, and nothing is charged to `cycles`
/// (the spec buckets are pure counters, so the exact-sum invariant is
/// untouched). Two effects persist past the rollback: the cache footprint,
/// which **is** the side channel, and the leak counter.
struct Transient<'a, M: MemBus> {
    /// Caches only: the committed `m.regs` stay untouched.
    m: &'a mut Machine,
    bus: &'a mut M,
    stats: &'a mut RunStats,
    /// Followed read-only: the wrong path must not train it.
    pred: &'a Predictors,
    image: &'a Image,
    table: &'a [Decoded],
    spec: SpecConfig,
    regs: RegFile,
    /// Taint bits per GPR, per XMM register and of the flags: a load from
    /// the secret region taints its destination, and taint flows through
    /// ALU ops, moves, shifts and store-to-load forwarding.
    taint: u16,
    xtaint: u16,
    flags_taint: bool,
    /// Byte-granular store-forwarding buffer, each byte carrying taint.
    store_buf: HashMap<u64, (u8, bool)>,
    stack: Vec<usize>,
}

impl<'a, M: MemBus> Transient<'a, M> {
    /// A window starting from `m`'s committed registers, untainted.
    fn new(
        m: &'a mut Machine,
        bus: &'a mut M,
        stats: &'a mut RunStats,
        pred: &'a Predictors,
        image: &'a Image,
        table: &'a [Decoded],
        spec: SpecConfig,
    ) -> Self {
        let (regs, store_buf, stack) = (m.regs.clone(), HashMap::new(), Vec::new());
        let (taint, xtaint, flags_taint) = (0, 0, false);
        Transient { m, bus, stats, pred, image, table, spec, regs, taint, xtaint, flags_taint, store_buf, stack }
    }

    /// Executes wrong-path µops from `start` until the budget runs out or
    /// an instruction ends the window.
    #[inline(always)]
    fn run(&mut self, start: usize) {
        self.stats.spec_flushes += 1;
        let (image, table) = (self.image, self.table);
        let mut pc = start;
        let mut budget = i64::from(self.spec.window);
        while budget > 0 && pc < table.len() {
            let d = &table[pc];
            budget -= i64::from(d.spec_uops);
            self.stats.spec_uops += u64::from(d.spec_uops);
            // Wrong-path fetch touches the I-cache; the footprint persists.
            self.m.icache.access(u64::from(d.fetch));
            match step(self, &image.program, pc) {
                Ok(Some(next)) => pc = next,
                Ok(None) | Err(WindowEnd) => break,
            }
        }
    }

    /// Address of a transient access: touches the D-cache (the persistent
    /// footprint) and records a leak when the address is secret-derived —
    /// that touch is the transmit.
    fn access(&mut self, mem: &Mem, len: u64) -> u64 {
        if self.addr_tainted(mem) {
            self.stats.spec_leaks += 1;
        }
        let ea = self.regs.ea(mem);
        self.m.dcache.access_range(ea, len);
        ea
    }

    /// Transient load value + taint: secret-region bytes are synthesized
    /// (the region lies outside the mapped sandbox, where the bus would
    /// fault) and tainted; other loads read the bus, a fault forwarding
    /// zero; the store buffer overlays both.
    fn read(&mut self, ea: u64, w: Width) -> (u64, bool) {
        let mut t = self.spec.in_secret(ea);
        let mut v = if t {
            (0..w.bytes()).fold(0, |x, i| x | u64::from(ea.wrapping_add(i) as u8 ^ 0xA5) << (8 * i))
        } else {
            self.bus.load(ea, w, AccessCtx { pkru: self.regs.pkru }).unwrap_or(0)
        };
        for i in 0..w.bytes() {
            if let Some(&(b, bt)) = self.store_buf.get(&ea.wrapping_add(i)) {
                v = (v & !(0xFFu64 << (8 * i))) | (u64::from(b) << (8 * i));
                t |= bt;
            }
        }
        (v, t)
    }

    fn buffer(&mut self, ea: u64, len: u64, v: u128, t: bool) {
        for i in 0..len {
            self.store_buf.insert(ea.wrapping_add(i), ((v >> (8 * i)) as u8, t));
        }
    }
}

impl<M: MemBus> Exec for Transient<'_, M> {
    type Halt = WindowEnd;

    fn regs(&mut self) -> &mut RegFile {
        &mut self.regs
    }

    fn stack(&mut self) -> &mut Vec<usize> {
        &mut self.stack
    }

    fn load(&mut self, mem: &Mem, w: Width) -> Result<(u64, bool), WindowEnd> {
        let ea = self.access(mem, w.bytes());
        Ok(self.read(ea, w))
    }

    fn store(&mut self, mem: &Mem, w: Width, v: u64, t: bool) -> Result<(), WindowEnd> {
        let ea = self.access(mem, w.bytes());
        self.buffer(ea, w.bytes(), u128::from(v), t);
        Ok(())
    }

    fn load128(&mut self, mem: &Mem) -> Result<(u128, bool), WindowEnd> {
        let ea = self.access(mem, 16);
        let (lo, t0) = self.read(ea, Width::Q);
        let (hi, t1) = self.read(ea.wrapping_add(8), Width::Q);
        Ok((u128::from(lo) | (u128::from(hi) << 64), t0 | t1))
    }

    fn store128(&mut self, mem: &Mem, v: u128, t: bool) -> Result<(), WindowEnd> {
        let ea = self.access(mem, 16);
        self.buffer(ea, 16, v, t);
        Ok(())
    }

    fn branch(&mut self, pc: usize, _cond: Cond, _target: Label) -> bool {
        self.pred.counters[pc] >= 2
    }

    fn indirect(&mut self, pc: usize, reg: Gpr) -> Result<usize, WindowEnd> {
        if self.tainted(reg) {
            // Secret-steered fetch: the target itself transmits.
            self.stats.spec_leaks += 1;
            return Err(WindowEnd);
        }
        // The transient front end follows the BTB, not the (not yet
        // executed) register value. Committed execution range-checks every
        // target before inserting it.
        self.pred.btb.get(&pc).copied().ok_or(WindowEnd)
    }

    fn taken(&mut self) {}

    /// Host transitions end the window.
    fn host(&mut self, _func: u32) -> Result<(), WindowEnd> {
        Err(WindowEnd)
    }

    /// So do serializing instructions, `lfence` being exactly the
    /// mitigation contract.
    fn serialize(&mut self, _privileged: bool) -> Result<(), WindowEnd> {
        Err(WindowEnd)
    }

    fn tainted(&self, r: Gpr) -> bool {
        self.taint >> r.index() & 1 == 1
    }

    /// 32/64-bit destinations are fully overwritten (taint replaced);
    /// 8/16-bit writes merge (taint ORs).
    fn set_taint(&mut self, r: Gpr, w: Width, t: bool) {
        if t || matches!(w, Width::Q | Width::D) {
            self.taint = (self.taint & !(1 << r.index())) | (u16::from(t) << r.index());
        }
    }

    fn xmm_tainted(&self, x: Xmm) -> bool {
        self.xtaint >> x.index() & 1 == 1
    }

    fn set_xmm_taint(&mut self, x: Xmm, t: bool) {
        self.xtaint = (self.xtaint & !(1 << x.index())) | (u16::from(t) << x.index());
    }

    fn flags_tainted(&self) -> bool {
        self.flags_taint
    }

    fn set_flags_taint(&mut self, t: bool) {
        self.flags_taint = t;
    }
}

/// Pure shift: `a` shifted/rotated by the pre-masked amount `n`.
fn shift_compute(op: ShiftOp, a: u64, n: u32, width: Width) -> u64 {
    let bits = width.bytes() as u32 * 8;
    let r = match op {
        ShiftOp::Shl => a.wrapping_shl(n),
        ShiftOp::Shr => a.wrapping_shr(n),
        ShiftOp::Sar => (width.sext(a) as i64).wrapping_shr(n) as u64,
        ShiftOp::Rol | ShiftOp::Ror if n == 0 => a,
        ShiftOp::Rol => a << n | a >> (bits - n),
        ShiftOp::Ror => a >> n | a << (bits - n),
    };
    width.mask(r)
}

/// Pure ALU: result and flags.
#[inline(always)]
fn alu_compute(op: AluOp, a: u64, b: u64, width: Width) -> (u64, Flags) {
    let sign = width.sign_bit();
    let (r, cf, of) = match op {
        AluOp::Add => {
            let r = width.mask(a.wrapping_add(b));
            let cf = r < a;
            let of = ((a ^ r) & (b ^ r)) >> sign & 1 == 1;
            (r, cf, of)
        }
        AluOp::Sub | AluOp::Cmp => {
            let r = width.mask(a.wrapping_sub(b));
            let cf = a < b;
            let of = ((a ^ b) & (a ^ r)) >> sign & 1 == 1;
            (r, cf, of)
        }
        AluOp::And => (a & b, false, false),
        AluOp::Or => (a | b, false, false),
        AluOp::Xor => (a ^ b, false, false),
    };
    (r, Flags { zf: r == 0, sf: r >> sign & 1 == 1, cf, of })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn run_prog(p: &Program, mem_size: usize) -> (Machine, FlatMemory, RunStats) {
        let mut mem = FlatMemory::new(mem_size);
        let mut m = Machine::new();
        let image = Image::load(p.clone()).unwrap();
        let stats = m.run_image(&image, &mut mem).unwrap();
        (m, mem, stats)
    }

    #[test]
    fn mov_and_alu() {
        let mut p = Program::new();
        p.push(Inst::MovRI { dst: Gpr::Rax, imm: 40, width: Width::Q });
        p.push(Inst::MovRI { dst: Gpr::Rbx, imm: 2, width: Width::Q });
        p.push(Inst::AluRR { op: AluOp::Add, dst: Gpr::Rax, src: Gpr::Rbx, width: Width::Q });
        p.push(Inst::Ret);
        let (m, _, stats) = run_prog(&p, 64);
        assert_eq!(m.gpr(Gpr::Rax), 42);
        assert_eq!(stats.insts, 4);
        assert!(stats.cycles > 0.0);
    }

    #[test]
    fn thirty_two_bit_writes_zero_extend() {
        let mut p = Program::new();
        p.push(Inst::MovRI { dst: Gpr::Rax, imm: -1, width: Width::Q });
        p.push(Inst::AluRI { op: AluOp::Add, dst: Gpr::Rax, imm: 1, width: Width::D });
        p.push(Inst::Ret);
        let (m, _, _) = run_prog(&p, 64);
        assert_eq!(m.gpr(Gpr::Rax), 0, "32-bit add must zero the upper half");
    }

    #[test]
    fn loop_counts_and_branch_prediction_warms_up() {
        // for (rcx = 100; rcx != 0; rcx--) {}
        let mut p = Program::new();
        p.push(Inst::MovRI { dst: Gpr::Rcx, imm: 100, width: Width::Q });
        let top = p.here();
        p.push(Inst::AluRI { op: AluOp::Sub, dst: Gpr::Rcx, imm: 1, width: Width::Q });
        p.push(Inst::Jcc { cond: Cond::Ne, target: top });
        p.push(Inst::Ret);
        let (_, _, stats) = run_prog(&p, 64);
        assert_eq!(stats.insts, 1 + 200 + 1);
        assert_eq!(stats.branches, 100);
        assert!(stats.branch_misses <= 3, "predictor should saturate: {}", stats.branch_misses);
    }

    #[test]
    fn segment_relative_load_uses_gs_base() {
        let mut p = Program::new();
        // gs:[ebx] with gs_base = 0x100, rbx = 8 → address 0x108.
        p.push(Inst::Load {
            dst: Gpr::Rax,
            mem: Mem::base(Gpr::Rbx).with_seg(Seg::Gs).with_addr32(),
            width: Width::Q,
        });
        p.push(Inst::Ret);
        let mut mem = FlatMemory::new(0x200);
        mem.bytes_mut()[0x108..0x110].copy_from_slice(&0xDEADu64.to_le_bytes());
        let mut m = Machine::new();
        m.regs.gs_base = 0x100;
        m.set_gpr(Gpr::Rbx, 8);
        let image = Image::load(p).unwrap();
        m.run_image(&image, &mut mem).unwrap();
        assert_eq!(m.gpr(Gpr::Rax), 0xDEAD);
    }

    #[test]
    fn addr32_wraps_index_before_gs() {
        let mut p = Program::new();
        p.push(Inst::Load {
            dst: Gpr::Rax,
            mem: Mem::base_disp(Gpr::Rbx, 0x10).with_seg(Seg::Gs).with_addr32(),
            width: Width::B,
        });
        p.push(Inst::Ret);
        let mut mem = FlatMemory::new(0x200);
        mem.bytes_mut()[0x100 + 0x0F] = 0x77;
        let mut m = Machine::new();
        m.regs.gs_base = 0x100;
        // rbx = 2^32 - 1; (rbx + 0x10) mod 2^32 = 0xF.
        m.set_gpr(Gpr::Rbx, 0xFFFF_FFFF);
        let image = Image::load(p).unwrap();
        m.run_image(&image, &mut mem).unwrap();
        assert_eq!(m.gpr(Gpr::Rax) & 0xFF, 0x77);
    }

    #[test]
    fn division_signed_and_unsigned() {
        let mut p = Program::new();
        p.push(Inst::MovRI { dst: Gpr::Rax, imm: -7, width: Width::Q });
        p.push(Inst::MovRI { dst: Gpr::Rbx, imm: 2, width: Width::Q });
        p.push(Inst::Cdq { width: Width::Q });
        p.push(Inst::Div { src: Gpr::Rbx, width: Width::Q, signed: true });
        p.push(Inst::Ret);
        let (m, _, _) = run_prog(&p, 64);
        assert_eq!(m.gpr(Gpr::Rax) as i64, -3);
        assert_eq!(m.gpr(Gpr::Rdx) as i64, -1);
    }

    #[test]
    fn division_by_zero_traps() {
        let mut p = Program::new();
        p.push(Inst::MovRI { dst: Gpr::Rax, imm: 1, width: Width::D });
        p.push(Inst::MovRI { dst: Gpr::Rdx, imm: 0, width: Width::D });
        p.push(Inst::MovRI { dst: Gpr::Rbx, imm: 0, width: Width::D });
        p.push(Inst::Div { src: Gpr::Rbx, width: Width::D, signed: false });
        p.push(Inst::Ret);
        let mut mem = FlatMemory::new(64);
        let mut m = Machine::new();
        let image = Image::load(p).unwrap();
        assert_eq!(m.run_image(&image, &mut mem), Err(Trap::DivideError));
    }

    #[test]
    fn idiv_quotient_overflow_traps() {
        // rdx:rax = -2^127 over -1: the quotient fits no register (#DE).
        let mut p = Program::new();
        p.push(Inst::MovRI { dst: Gpr::Rdx, imm: i64::MIN, width: Width::Q });
        p.push(Inst::MovRI { dst: Gpr::Rax, imm: 0, width: Width::Q });
        p.push(Inst::MovRI { dst: Gpr::Rbx, imm: -1, width: Width::Q });
        p.push(Inst::Div { src: Gpr::Rbx, width: Width::Q, signed: true });
        p.push(Inst::Ret);
        let mut mem = FlatMemory::new(64);
        let image = Image::load(p).unwrap();
        assert_eq!(Machine::new().run_image(&image, &mut mem), Err(Trap::DivideError));
    }

    #[test]
    fn div32_uses_edx_eax() {
        let mut p = Program::new();
        p.push(Inst::MovRI { dst: Gpr::Rax, imm: 100, width: Width::D });
        p.push(Inst::MovRI { dst: Gpr::Rdx, imm: 0, width: Width::D });
        p.push(Inst::MovRI { dst: Gpr::Rbx, imm: 7, width: Width::D });
        p.push(Inst::Div { src: Gpr::Rbx, width: Width::D, signed: false });
        p.push(Inst::Ret);
        let (m, _, _) = run_prog(&p, 64);
        assert_eq!(m.gpr(Gpr::Rax), 14);
        assert_eq!(m.gpr(Gpr::Rdx), 2);
    }

    #[test]
    fn ud2_traps() {
        let mut p = Program::new();
        p.push(Inst::Ud2);
        let mut mem = FlatMemory::new(64);
        let mut m = Machine::new();
        let image = Image::load(p).unwrap();
        assert_eq!(m.run_image(&image, &mut mem), Err(Trap::Undefined));
    }

    #[test]
    fn call_and_ret() {
        let mut p = Program::new();
        let f = p.fresh_label();
        p.push(Inst::Call { target: f });
        p.push(Inst::AluRI { op: AluOp::Add, dst: Gpr::Rax, imm: 1, width: Width::Q });
        p.push(Inst::Ret); // outer return
        p.bind(f);
        p.push(Inst::MovRI { dst: Gpr::Rax, imm: 10, width: Width::Q });
        p.push(Inst::Ret);
        let (m, _, _) = run_prog(&p, 64);
        assert_eq!(m.gpr(Gpr::Rax), 11);
    }

    #[test]
    fn push_pop_roundtrip() {
        let mut p = Program::new();
        p.push(Inst::MovRI { dst: Gpr::Rsp, imm: 64, width: Width::Q });
        p.push(Inst::MovRI { dst: Gpr::Rax, imm: 0x1234, width: Width::Q });
        p.push(Inst::Push { reg: Gpr::Rax });
        p.push(Inst::MovRI { dst: Gpr::Rax, imm: 0, width: Width::Q });
        p.push(Inst::Pop { reg: Gpr::Rbx });
        p.push(Inst::Ret);
        let (m, _, _) = run_prog(&p, 128);
        assert_eq!(m.gpr(Gpr::Rbx), 0x1234);
        assert_eq!(m.gpr(Gpr::Rsp), 64);
    }

    #[test]
    fn host_calls_are_dispatched() {
        let mut p = Program::new();
        p.push(Inst::CallHost { func: 7 });
        p.push(Inst::Ret);
        let mut mem = FlatMemory::new(64);
        let mut m = Machine::new();
        let image = Image::load(p).unwrap();
        let mut seen = Vec::new();
        let stats = m
            .run_image_from(&image, 0, &mut mem, &mut |f, regs, _| {
                seen.push(f);
                regs.set_gpr(Gpr::Rax, 99);
                Ok(0.0)
            })
            .unwrap();
        assert_eq!(seen, vec![7]);
        assert_eq!(m.gpr(Gpr::Rax), 99);
        assert_eq!(stats.host_calls, 1);
    }

    #[test]
    fn forbidden_system_instructions_trap() {
        let mut p = Program::new();
        p.push(Inst::WrPkru);
        p.push(Inst::Ret);
        let mut mem = FlatMemory::new(64);
        let mut m = Machine::new();
        m.forbid_system_instructions();
        let image = Image::load(p).unwrap();
        assert_eq!(m.run_image(&image, &mut mem), Err(Trap::PrivilegedInstruction));
    }

    #[test]
    fn wrpkru_updates_pkru_and_costs_cycles() {
        let mut p = Program::new();
        p.push(Inst::MovRI { dst: Gpr::Rax, imm: 0b1100, width: Width::D });
        p.push(Inst::Ret);
        let mut pk = Program::new();
        pk.push(Inst::MovRI { dst: Gpr::Rax, imm: 0b1100, width: Width::D });
        pk.push(Inst::WrPkru);
        pk.push(Inst::Ret);
        let (_, _, s_plain) = run_prog(&p, 64);
        let (m, _, s_pkru) = run_prog(&pk, 64);
        assert_eq!(m.regs.pkru, 0b1100);
        let delta = s_pkru.cycles - s_plain.cycles;
        assert!(delta >= CostModel::default().wrpkru_cycles, "wrpkru must be expensive: {delta}");
    }

    #[test]
    fn fuel_exhaustion() {
        let mut p = Program::new();
        let top = p.here();
        p.push(Inst::Jmp { target: top });
        let mut mem = FlatMemory::new(64);
        let mut m = Machine::new();
        m.set_fuel(1000);
        let image = Image::load(p).unwrap();
        assert_eq!(m.run_image(&image, &mut mem), Err(Trap::FuelExhausted));
    }

    #[test]
    fn indirect_jump_via_register() {
        let mut p = Program::new();
        p.push(Inst::MovRI { dst: Gpr::Rax, imm: 3, width: Width::Q }); // 0
        p.push(Inst::JmpReg { reg: Gpr::Rax }); // 1
        p.push(Inst::Ud2); // 2 — skipped
        p.push(Inst::MovRI { dst: Gpr::Rbx, imm: 5, width: Width::Q }); // 3
        p.push(Inst::Ret); // 4
        let (m, _, _) = run_prog(&p, 64);
        assert_eq!(m.gpr(Gpr::Rbx), 5);
    }

    #[test]
    fn indirect_jump_out_of_range_traps() {
        let mut p = Program::new();
        p.push(Inst::MovRI { dst: Gpr::Rax, imm: 1000, width: Width::Q });
        p.push(Inst::JmpReg { reg: Gpr::Rax });
        let mut mem = FlatMemory::new(64);
        let mut m = Machine::new();
        let image = Image::load(p).unwrap();
        assert!(matches!(
            m.run_image(&image, &mut mem),
            Err(Trap::BadControlFlow { target: 1000 })
        ));
    }

    #[test]
    fn simd_roundtrip() {
        let mut p = Program::new();
        p.push(Inst::MovdquLoad { dst: crate::Xmm(0), mem: Mem::abs(0x10) });
        p.push(Inst::MovdqaRR { dst: crate::Xmm(1), src: crate::Xmm(0) });
        p.push(Inst::MovdquStore { src: crate::Xmm(1), mem: Mem::abs(0x30) });
        p.push(Inst::Ret);
        let mut mem = FlatMemory::new(0x100);
        for i in 0..16 {
            mem.bytes_mut()[0x10 + i] = i as u8;
        }
        let mut m = Machine::new();
        let image = Image::load(p).unwrap();
        m.run_image(&image, &mut mem).unwrap();
        assert_eq!(&mem.bytes()[0x30..0x40], &(0..16).map(|i| i as u8).collect::<Vec<_>>()[..]);
    }

    #[test]
    fn dcache_misses_counted() {
        // Stride through 256 KiB — guaranteed misses with a 48 KiB L1D.
        let mut p = Program::new();
        p.push(Inst::MovRI { dst: Gpr::Rcx, imm: 4096, width: Width::Q });
        p.push(Inst::MovRI { dst: Gpr::Rbx, imm: 0, width: Width::Q });
        let top = p.here();
        p.push(Inst::Load {
            dst: Gpr::Rax,
            mem: Mem::base(Gpr::Rbx),
            width: Width::Q,
        });
        p.push(Inst::AluRI { op: AluOp::Add, dst: Gpr::Rbx, imm: 64, width: Width::Q });
        p.push(Inst::AluRI { op: AluOp::Sub, dst: Gpr::Rcx, imm: 1, width: Width::Q });
        p.push(Inst::Jcc { cond: Cond::Ne, target: top });
        p.push(Inst::Ret);
        let (_, _, stats) = run_prog(&p, 4096 * 64);
        assert_eq!(stats.loads, 4096);
        assert!(stats.dcache_misses >= 4000, "cold strides must miss: {}", stats.dcache_misses);
    }

    #[test]
    fn cmov_and_setcc() {
        let mut p = Program::new();
        p.push(Inst::MovRI { dst: Gpr::Rax, imm: 5, width: Width::Q });
        p.push(Inst::MovRI { dst: Gpr::Rbx, imm: 9, width: Width::Q });
        p.push(Inst::AluRR { op: AluOp::Cmp, dst: Gpr::Rax, src: Gpr::Rbx, width: Width::Q });
        p.push(Inst::Cmov { cond: Cond::L, dst: Gpr::Rax, src: Gpr::Rbx, width: Width::Q });
        p.push(Inst::Setcc { cond: Cond::L, dst: Gpr::Rcx });
        p.push(Inst::Ret);
        let (m, _, _) = run_prog(&p, 64);
        assert_eq!(m.gpr(Gpr::Rax), 9);
        assert_eq!(m.gpr(Gpr::Rcx), 1);
    }

    /// A classic Spectre-v1 shape: a bounds check (`cmp; ja`) trained
    /// in-bounds for 15 trips, then fed a secret-region offset on the last
    /// trip. Architecturally the body is skipped; transiently the load at
    /// the secret offset and the dependent probe both execute.
    fn spectre_gadget(with_fence: bool) -> Program {
        let mut p = Program::new();
        let top = p.fresh_label();
        let oob = p.fresh_label();
        p.push(Inst::MovRI { dst: Gpr::Rdx, imm: 0x1000, width: Width::Q });
        p.push(Inst::MovRI { dst: Gpr::Rcx, imm: 16, width: Width::Q });
        p.bind(top);
        p.push(Inst::MovRI { dst: Gpr::Rbx, imm: 8, width: Width::Q });
        p.push(Inst::AluRI { op: AluOp::Cmp, dst: Gpr::Rcx, imm: 1, width: Width::Q });
        p.push(Inst::Cmov { cond: Cond::E, dst: Gpr::Rbx, src: Gpr::Rdx, width: Width::Q });
        p.push(Inst::AluRI { op: AluOp::Cmp, dst: Gpr::Rbx, imm: 16, width: Width::Q });
        p.push(Inst::Jcc { cond: Cond::A, target: oob });
        if with_fence {
            p.push(Inst::Lfence);
        }
        p.push(Inst::Load { dst: Gpr::Rax, mem: Mem::base(Gpr::Rbx), width: Width::B });
        p.push(Inst::Shift {
            op: ShiftOp::Shl,
            dst: Gpr::Rax,
            amount: ShiftAmount::Imm(6),
            width: Width::Q,
        });
        p.push(Inst::Load { dst: Gpr::R8, mem: Mem::base_disp(Gpr::Rax, 0x200), width: Width::Q });
        p.bind(oob);
        p.push(Inst::AluRI { op: AluOp::Sub, dst: Gpr::Rcx, imm: 1, width: Width::Q });
        p.push(Inst::Jcc { cond: Cond::Ne, target: top });
        p.push(Inst::Ret);
        p
    }

    fn spec_cfg() -> SpecConfig {
        SpecConfig::new(SpecConfig::DEFAULT_WINDOW, 0x1000, 0x1040).unwrap()
    }

    #[test]
    fn spec_config_rejects_degenerate() {
        assert_eq!(SpecConfig::new(0, 0, 0x100), Err(SpecError::ZeroWindow));
        assert_eq!(SpecConfig::new(32, 0x100, 0x100), Err(SpecError::EmptySecretRegion));
        assert_eq!(SpecConfig::new(32, 0x200, 0x100), Err(SpecError::EmptySecretRegion));
    }

    #[test]
    fn spec_config_clamps_window() {
        assert_eq!(SpecConfig::DEFAULT_WINDOW, 32);
        let cfg = SpecConfig::new(1000, 0, 0x100).unwrap();
        assert_eq!(cfg.window(), SpecConfig::MAX_WINDOW);
        assert_eq!(SpecConfig::new(1, 0, 0x100).unwrap().window(), 1);
    }

    #[test]
    fn bounds_check_bypass_leaks_transiently() {
        let p = spectre_gadget(false);
        let mut mem = FlatMemory::new(0x20000);
        let mut m = Machine::new();
        m.enable_speculation(spec_cfg());
        let image = Image::load(p).unwrap();
        let stats = m.run_image(&image, &mut mem).unwrap();
        assert!(stats.spec_flushes > 0, "mispredict must open a window");
        assert!(stats.spec_uops > 0);
        assert!(stats.spec_leaks > 0, "secret-derived probe address must be flagged");
        // Spec buckets are pure counters: the exact-sum invariant holds.
        assert_eq!(stats.attributed_cycles(), stats.cycles);
    }

    #[test]
    fn lfence_closes_the_window() {
        let p = spectre_gadget(true);
        let mut mem = FlatMemory::new(0x20000);
        let mut m = Machine::new();
        m.enable_speculation(spec_cfg());
        let image = Image::load(p).unwrap();
        let stats = m.run_image(&image, &mut mem).unwrap();
        assert!(stats.spec_flushes > 0, "the mispredict still happens");
        assert_eq!(stats.spec_leaks, 0, "the fence must stop the transient load");
    }

    #[test]
    fn speculation_rolls_back_architectural_state() {
        let p = spectre_gadget(false);
        let image = Image::load(p).unwrap();
        let run = |spec: Option<SpecConfig>| {
            let mut mem = FlatMemory::new(0x20000);
            let mut m = Machine::new();
            if let Some(cfg) = spec {
                m.enable_speculation(cfg);
            }
            m.run_image(&image, &mut mem).unwrap();
            (m, mem)
        };
        let (m_off, mem_off) = run(None);
        let (m_on, mem_on) = run(Some(spec_cfg()));
        for r in Gpr::ALL {
            assert_eq!(m_off.gpr(r), m_on.gpr(r), "gpr {r:?} must roll back");
        }
        assert_eq!(m_off.regs.flags, m_on.regs.flags);
        assert_eq!(mem_off.bytes(), mem_on.bytes(), "spec stores must never hit memory");
    }

    #[test]
    fn speculation_disabled_is_bit_identical() {
        let p = spectre_gadget(false);
        let image = Image::load(p).unwrap();
        let mut mem = FlatMemory::new(0x20000);
        let mut m = Machine::new();
        let base = m.run_image(&image, &mut mem).unwrap();
        assert_eq!(base.spec_flushes, 0);
        assert_eq!(base.spec_uops, 0);
        assert_eq!(base.spec_leaks, 0);
    }

    #[test]
    fn flags_unsigned_compare() {
        let mut p = Program::new();
        p.push(Inst::MovRI { dst: Gpr::Rax, imm: 1, width: Width::Q });
        p.push(Inst::MovRI { dst: Gpr::Rbx, imm: -1, width: Width::Q }); // u64::MAX
        p.push(Inst::AluRR { op: AluOp::Cmp, dst: Gpr::Rax, src: Gpr::Rbx, width: Width::Q });
        p.push(Inst::Setcc { cond: Cond::B, dst: Gpr::Rcx }); // 1 < MAX unsigned
        p.push(Inst::Setcc { cond: Cond::G, dst: Gpr::Rdx }); // 1 > -1 signed
        p.push(Inst::Ret);
        let (m, _, _) = run_prog(&p, 64);
        assert_eq!(m.gpr(Gpr::Rcx), 1);
        assert_eq!(m.gpr(Gpr::Rdx), 1);
    }

    #[test]
    fn accesses_past_the_top_of_memory_trap() {
        // `mov rbx, -4; <access> [rbx]`: the cache range must not overflow
        // before the bus rejects the address.
        let at_top = Mem::base(Gpr::Rbx);
        for access in [
            Inst::Load { dst: Gpr::Rax, mem: at_top, width: Width::Q },
            Inst::Store { src: Gpr::Rax, mem: at_top, width: Width::D },
            Inst::MovdquLoad { dst: Xmm(0), mem: at_top },
            Inst::MovdquStore { src: Xmm(0), mem: at_top },
        ] {
            let mut p = Program::new();
            p.push(Inst::MovRI { dst: Gpr::Rbx, imm: -4, width: Width::Q });
            p.push(access);
            p.push(Inst::Ret);
            let r = Machine::new().run_image(&Image::load(p).unwrap(), &mut FlatMemory::new(64));
            assert!(matches!(r, Err(Trap::Mem(_))), "{access:?}: {r:?}");
        }
    }

    #[test]
    fn transient_accesses_past_the_top_of_memory_end_cleanly() {
        // The `je` is taken but starts predicted not-taken, so a window runs
        // the skipped accesses at -4 until the `ret` on an empty stack.
        let mut p = Program::new();
        let skip = p.fresh_label();
        p.push(Inst::MovRI { dst: Gpr::Rbx, imm: -4, width: Width::Q });
        p.push(Inst::AluRR { op: AluOp::Cmp, dst: Gpr::Rbx, src: Gpr::Rbx, width: Width::Q });
        p.push(Inst::Jcc { cond: Cond::E, target: skip });
        p.push(Inst::Load { dst: Gpr::Rax, mem: Mem::base(Gpr::Rbx), width: Width::Q });
        p.push(Inst::Store { src: Gpr::Rax, mem: Mem::base(Gpr::Rbx), width: Width::Q });
        p.push(Inst::MovdquLoad { dst: Xmm(0), mem: Mem::base(Gpr::Rbx) });
        p.push(Inst::MovdquStore { src: Xmm(0), mem: Mem::base(Gpr::Rbx) });
        p.bind(skip);
        p.push(Inst::Ret);
        let mut m = Machine::new();
        m.enable_speculation(spec_cfg());
        let stats = m.run_image(&Image::load(p).unwrap(), &mut FlatMemory::new(64)).unwrap();
        assert_eq!((stats.spec_flushes, stats.spec_uops, stats.spec_leaks), (1, 6, 0));
    }

    #[test]
    fn a_tuned_cost_model_is_charged() {
        let image = Image::load(spectre_gadget(true)).unwrap();
        let mut tuned = CostModel::default();
        tuned.issue_width *= 2.0;
        tuned.lfence_cycles += 1.0;
        let run = |image: &Image, cost: &CostModel| {
            let mut m = Machine::new();
            m.cost = cost.clone();
            m.enable_speculation(spec_cfg());
            m.run_image(image, &mut FlatMemory::new(0x20000)).unwrap()
        };
        // The same image with its table built against the tuned model.
        let decoded = predecode(&image.program, &image.encoded, &tuned);
        let direct = Image { cost: tuned.clone(), decoded, ..image.clone() };
        let stats = run(&image, &tuned);
        assert_eq!(stats, run(&direct, &tuned));
        assert_ne!(stats.cycles, run(&image, &CostModel::default()).cycles);
        assert_eq!(stats.attributed_cycles(), stats.cycles);
    }

    /// Memory for the twin test: every operand `twin_mem` builds lands in
    /// `[0x100, 0x200)`.
    const TWIN_MEM: usize = 0x400;

    fn twin_gpr(rng: &mut StdRng) -> Gpr {
        // r14/r15 are the fixed index/base of every memory operand.
        Gpr::ALL[rng.gen_range(0..14)]
    }

    fn twin_width(rng: &mut StdRng) -> Width {
        [Width::B, Width::W, Width::D, Width::Q][rng.gen_range(0..4)]
    }

    /// `[r15 + r14*s + disp]`, optionally `gs:`-relative and/or addr32.
    fn twin_mem(rng: &mut StdRng) -> Mem {
        let scale = [Scale::S1, Scale::S2, Scale::S4, Scale::S8][rng.gen_range(0..4)];
        let mut m = Mem::bisd(Gpr::R15, Gpr::R14, scale, rng.gen_range(0..0x80));
        if rng.gen_bool(0.3) {
            m = m.with_seg(Seg::Gs);
        }
        if rng.gen_bool(0.3) {
            m = m.with_addr32();
        }
        m
    }

    /// A seeded straight-line sequence: no branches, nothing that ends a
    /// transient window, every access in bounds.
    fn twin_program(rng: &mut StdRng) -> Program {
        const ALU: [AluOp; 6] = [AluOp::Add, AluOp::Sub, AluOp::And, AluOp::Or, AluOp::Xor, AluOp::Cmp];
        const SHIFT: [ShiftOp; 5] = [ShiftOp::Shl, ShiftOp::Shr, ShiftOp::Sar, ShiftOp::Rol, ShiftOp::Ror];
        const COND: [Cond; 4] = [Cond::E, Cond::L, Cond::B, Cond::A];
        let mut p = Program::new();
        for _ in 0..rng.gen_range(8..32) {
            let (dst, src, width) = (twin_gpr(rng), twin_gpr(rng), twin_width(rng));
            let (op, cond) = (ALU[rng.gen_range(0..6)], COND[rng.gen_range(0..4)]);
            let x = Xmm(rng.gen_range(0..16));
            p.push(match rng.gen_range(0..23) {
                0 => Inst::MovRR { dst, src, width },
                1 => Inst::MovRI { dst, imm: rng.gen(), width },
                2 => {
                    let index = if src == Gpr::Rsp { Gpr::Rbp } else { src };
                    let mem = Mem::bisd(dst, index, Scale::S4, rng.gen());
                    Inst::Lea { dst: twin_gpr(rng), mem, width }
                }
                3 => Inst::AluRR { op, dst, src, width },
                4 => Inst::AluRI { op, dst, imm: rng.gen(), width },
                5 => Inst::AluRM { op, dst, mem: twin_mem(rng), width },
                6 => Inst::TestRR { a: dst, b: src, width },
                7 => {
                    let amount = if rng.gen_bool(0.5) {
                        ShiftAmount::Cl
                    } else {
                        ShiftAmount::Imm(rng.gen_range(0..64))
                    };
                    Inst::Shift { op: SHIFT[rng.gen_range(0..5)], dst, amount, width }
                }
                8 => Inst::Imul { dst, src, width },
                9 => Inst::ImulRRI { dst, src, imm: rng.gen(), width },
                10 => Inst::Neg { dst, width },
                11 => Inst::Not { dst, width },
                12 => Inst::Cdq { width },
                13 => Inst::Movzx { dst, src, from: width },
                14 => Inst::Movsx { dst, src, from: width },
                15 => Inst::Cmov { cond, dst, src, width },
                16 => Inst::Setcc { cond, dst },
                17 => Inst::Load { dst, mem: twin_mem(rng), width },
                18 => Inst::LoadSx { dst, mem: twin_mem(rng), width },
                19 => Inst::Store { src, mem: twin_mem(rng), width },
                20 => Inst::StoreImm { imm: rng.gen(), mem: twin_mem(rng), width },
                21 => Inst::MovdquLoad { dst: x, mem: twin_mem(rng) },
                _ if rng.gen_bool(0.5) => Inst::MovdquStore { src: x, mem: twin_mem(rng) },
                _ => Inst::MovdqaRR { dst: x, src: Xmm(rng.gen_range(0..16)) },
            });
        }
        p
    }

    /// The committed-vs-transient twin check: a straight-line sequence run
    /// committed and run as a transient window (longer than the sequence,
    /// with the secret region outside memory) from the same start state
    /// ends with the same registers and flags, and the window's store
    /// buffer is exactly the committed memory delta.
    #[test]
    fn transient_step_matches_committed() {
        let spec = SpecConfig::new(SpecConfig::MAX_WINDOW, 1 << 40, (1 << 40) + 0x1000).unwrap();
        for seed in 0..256 {
            let mut rng = StdRng::seed_from_u64(seed);
            let image = Image::load(twin_program(&mut rng)).unwrap();
            let mut start = Machine::new();
            for r in Gpr::ALL {
                start.set_gpr(r, rng.gen());
            }
            for x in 0..16 {
                start.regs.set_xmm(Xmm(x), rng.gen());
            }
            start.set_gpr(Gpr::R14, rng.gen_range(0..8));
            start.set_gpr(Gpr::R15, 0x100);
            start.regs.gs_base = 0x40;
            start.regs.flags = Flags { zf: rng.gen(), sf: rng.gen(), cf: rng.gen(), of: rng.gen() };
            let mut mem = FlatMemory::new(TWIN_MEM);
            rng.fill(mem.bytes_mut());

            let mut committed = start.clone();
            let mut committed_mem = mem.clone();
            committed.run_image(&image, &mut committed_mem).unwrap();

            let mut replay = mem.bytes().to_vec();
            let mut stats = RunStats::default();
            let pred = Predictors { counters: Vec::new(), btb: HashMap::new() };
            let mut t = Transient::new(&mut start, &mut mem, &mut stats, &pred, &image, image.decoded(), spec);
            t.run(0);
            for r in Gpr::ALL {
                assert_eq!(t.regs.gpr(r), committed.gpr(r), "seed {seed}: {r:?}");
            }
            for x in (0..16).map(Xmm) {
                assert_eq!(t.regs.xmm(x), committed.regs.xmm(x), "seed {seed}: {x:?}");
            }
            assert_eq!(t.regs.flags, committed.regs.flags, "seed {seed}: flags");
            let taint = (t.taint, t.xtaint, t.flags_taint);
            assert_eq!(taint, (0, 0, false), "seed {seed}: taint");
            for (&addr, &(byte, taint)) in &t.store_buf {
                assert!(!taint, "seed {seed}: tainted store at {addr:#x}");
                replay[addr as usize] = byte;
            }
            assert_eq!(replay, committed_mem.bytes(), "seed {seed}: store buffer vs memory delta");
            let uops: u64 = image
                .program()
                .insts()
                .iter()
                .map(|i| CostModel::default().uops(i).ceil().max(1.0) as u64)
                .sum();
            assert!(uops < u64::from(spec.window()), "seed {seed}: the window must outlast the sequence");
            assert_eq!((stats.spec_uops, stats.spec_leaks), (uops, 0), "seed {seed}: window cut short");
        }
    }
}
