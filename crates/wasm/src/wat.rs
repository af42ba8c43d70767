//! A parser for a WebAssembly-text (WAT) subset.
//!
//! Supports the flat (non-folded) instruction form, named or numeric
//! locals/functions/labels, memory/global/table/data sections, and inline
//! exports — enough to write readable test programs and examples:
//!
//! ```
//! let m = sfi_wasm::wat::parse(r#"
//!   (module
//!     (memory 1)
//!     (func $store_and_load (export "run") (param $p i32) (result i32)
//!       local.get $p
//!       i32.const 7
//!       i32.store offset=4
//!       local.get $p
//!       i32.load offset=4))
//! "#).unwrap();
//! sfi_wasm::validate(&m).unwrap();
//! let mut i = sfi_wasm::interp::Interpreter::new(&m).unwrap();
//! assert_eq!(i.invoke_export("run", &[64]).unwrap(), Some(7));
//! ```

use std::collections::HashMap;

use crate::{Func, Global, Module, Op, ValType};

/// A WAT parse error with a byte position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the source where the error was detected.
    pub pos: usize,
    /// Description of the failure.
    pub msg: String,
}

impl core::fmt::Display for ParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "WAT parse error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq)]
enum SExpr {
    Atom(String, usize),
    /// A string literal's raw bytes: `\hh` escapes are bytes, not chars.
    Str(Vec<u8>, usize),
    List(Vec<SExpr>, usize),
}

impl SExpr {
    fn pos(&self) -> usize {
        match self {
            SExpr::Atom(_, p) | SExpr::Str(_, p) | SExpr::List(_, p) => *p,
        }
    }

    fn as_atom(&self) -> Option<&str> {
        match self {
            SExpr::Atom(s, _) => Some(s),
            _ => None,
        }
    }

    fn head(&self) -> Option<&str> {
        match self {
            SExpr::List(items, _) => items.first().and_then(SExpr::as_atom),
            _ => None,
        }
    }
}

fn err(pos: usize, msg: impl Into<String>) -> ParseError {
    ParseError { pos, msg: msg.into() }
}

fn utf8_name(bytes: &[u8], pos: usize) -> Result<String, ParseError> {
    String::from_utf8(bytes.to_vec()).map_err(|_| err(pos, "name is not valid UTF-8"))
}

fn tokenize(src: &str) -> Result<Vec<SExpr>, ParseError> {
    let bytes = src.as_bytes();
    let mut i = 0usize;
    let mut stack: Vec<(Vec<SExpr>, usize)> = vec![(Vec::new(), 0)];
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b' ' | b'\t' | b'\n' | b'\r' => i += 1,
            b';' if i + 1 < bytes.len() && bytes[i + 1] == b';' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'(' if i + 1 < bytes.len() && bytes[i + 1] == b';' => {
                // Block comment (no nesting).
                let start = i;
                i += 2;
                loop {
                    if i + 1 >= bytes.len() {
                        return Err(err(start, "unterminated block comment"));
                    }
                    if bytes[i] == b';' && bytes[i + 1] == b')' {
                        i += 2;
                        break;
                    }
                    i += 1;
                }
            }
            b'(' => {
                stack.push((Vec::new(), i));
                i += 1;
            }
            b')' => {
                let (items, pos) = stack.pop().ok_or_else(|| err(i, "unbalanced ')'"))?;
                if stack.is_empty() {
                    return Err(err(i, "unbalanced ')'"));
                }
                stack.last_mut().expect("checked").0.push(SExpr::List(items, pos));
                i += 1;
            }
            b'"' => {
                let start = i;
                i += 1;
                let mut s = Vec::new();
                loop {
                    if i >= bytes.len() {
                        return Err(err(start, "unterminated string"));
                    }
                    match bytes[i] {
                        b'"' => {
                            i += 1;
                            break;
                        }
                        b'\\' if i + 1 < bytes.len() => {
                            let e = bytes[i + 1];
                            match e {
                                b'n' => s.push(b'\n'),
                                b't' => s.push(b'\t'),
                                b'\\' => s.push(b'\\'),
                                b'"' => s.push(b'"'),
                                _ => {
                                    // \hh hex escape
                                    let digit = |j: usize| {
                                        bytes.get(j).and_then(|&b| char::from(b).to_digit(16))
                                    };
                                    match (digit(i + 1), digit(i + 2)) {
                                        (Some(hi), Some(lo)) => s.push((hi << 4 | lo) as u8),
                                        _ => return Err(err(i, "bad escape")),
                                    }
                                    i += 1;
                                }
                            }
                            i += 2;
                        }
                        b => {
                            s.push(b);
                            i += 1;
                        }
                    }
                }
                stack.last_mut().expect("nonempty").0.push(SExpr::Str(s, start));
            }
            _ => {
                let start = i;
                while i < bytes.len()
                    && !matches!(bytes[i], b' ' | b'\t' | b'\n' | b'\r' | b'(' | b')' | b'"')
                {
                    i += 1;
                }
                stack
                    .last_mut()
                    .expect("nonempty")
                    .0
                    .push(SExpr::Atom(src[start..i].to_owned(), start));
            }
        }
    }
    if stack.len() != 1 {
        return Err(err(src.len(), "unbalanced '('"));
    }
    Ok(stack.pop().expect("checked").0)
}

fn parse_valtype(s: &SExpr) -> Result<ValType, ParseError> {
    match s.as_atom() {
        Some("i32") => Ok(ValType::I32),
        Some("i64") => Ok(ValType::I64),
        _ => Err(err(s.pos(), format!("expected value type, got {s:?}"))),
    }
}

fn parse_int(atom: &str, pos: usize) -> Result<i64, ParseError> {
    let (neg, rest) = match atom.strip_prefix('-') {
        Some(r) => (true, r),
        None => (false, atom),
    };
    let v = if let Some(hex) = rest.strip_prefix("0x") {
        u64::from_str_radix(&hex.replace('_', ""), 16)
            .map_err(|_| err(pos, format!("bad integer {atom}")))?
    } else {
        rest.replace('_', "")
            .parse::<u64>()
            .map_err(|_| err(pos, format!("bad integer {atom}")))?
    };
    Ok(if neg { (v as i64).wrapping_neg() } else { v as i64 })
}

#[derive(Default)]
struct Names {
    funcs: HashMap<String, u32>,
    globals: HashMap<String, u32>,
}

/// Parses WAT source into a [`Module`]. The module is *not* validated; call
/// [`crate::validate`] afterwards.
pub fn parse(src: &str) -> Result<Module, ParseError> {
    let top = tokenize(src)?;
    let module_sexpr = top
        .iter()
        .find(|e| e.head() == Some("module"))
        .ok_or_else(|| err(0, "no (module ...) form"))?;
    let fields = match module_sexpr {
        SExpr::List(items, _) => &items[1..],
        _ => unreachable!(),
    };

    let mut module = Module::default();
    let mut names = Names::default();

    // Pass 1: collect function/global names so bodies can forward-reference.
    let mut func_count = 0u32;
    for f in fields {
        match f.head() {
            Some("func") => {
                if let SExpr::List(items, _) = f {
                    if let Some(SExpr::Atom(name, _)) = items.get(1) {
                        if let Some(n) = name.strip_prefix('$') {
                            names.funcs.insert(n.to_owned(), func_count);
                        }
                    }
                }
                func_count += 1;
            }
            Some("global") => {
                if let SExpr::List(items, _) = f {
                    if let Some(SExpr::Atom(name, _)) = items.get(1) {
                        if let Some(n) = name.strip_prefix('$') {
                            names.globals.insert(n.to_owned(), module.globals.len() as u32);
                        }
                    }
                    module.globals.push(Global { ty: ValType::I32, mutable: false, init: 0 });
                }
            }
            _ => {}
        }
    }
    module.globals.clear(); // re-parsed for real in pass 2

    // Pass 2: parse fields.
    for f in fields {
        let items = match f {
            SExpr::List(items, _) => items,
            other => return Err(err(other.pos(), "expected a (...) field")),
        };
        match f.head() {
            Some("memory") => {
                let min = items
                    .get(1)
                    .and_then(SExpr::as_atom)
                    .ok_or_else(|| err(f.pos(), "memory needs a min page count"))?;
                module.mem_min_pages = parse_int(min, f.pos())? as u32;
                if let Some(max) = items.get(2).and_then(SExpr::as_atom) {
                    module.mem_max_pages = Some(parse_int(max, f.pos())? as u32);
                }
            }
            Some("global") => {
                let mut idx = 1;
                if matches!(items.get(idx), Some(SExpr::Atom(a, _)) if a.starts_with('$')) {
                    idx += 1;
                }
                let (ty, mutable) = match items.get(idx) {
                    Some(list @ SExpr::List(inner, _)) if list.head() == Some("mut") => {
                        (parse_valtype(&inner[1])?, true)
                    }
                    Some(atom) => (parse_valtype(atom)?, false),
                    None => return Err(err(f.pos(), "global needs a type")),
                };
                idx += 1;
                let init = match items.get(idx) {
                    Some(SExpr::List(inner, p)) => {
                        let head =
                            inner.first().and_then(SExpr::as_atom).unwrap_or_default();
                        let v = inner
                            .get(1)
                            .and_then(SExpr::as_atom)
                            .ok_or_else(|| err(*p, "const needs a value"))?;
                        let v = parse_int(v, *p)?;
                        match head {
                            "i32.const" => v as i32 as u32 as u64,
                            "i64.const" => v as u64,
                            _ => return Err(err(*p, "global init must be a const")),
                        }
                    }
                    _ => return Err(err(f.pos(), "global needs an init expression")),
                };
                module.globals.push(Global { ty, mutable, init });
            }
            Some("func") => {
                let func = parse_func(items, &names, module.globals.len())?;
                let export = func.1;
                let idx = module.push_func(func.0);
                if let Some(name) = export {
                    module.export(name, idx);
                }
            }
            Some("export") => {
                let name = match items.get(1) {
                    Some(SExpr::Str(s, p)) => utf8_name(s, *p)?,
                    _ => return Err(err(f.pos(), "export needs a string name")),
                };
                let target = items
                    .get(2)
                    .ok_or_else(|| err(f.pos(), "export needs a (func ...) target"))?;
                if let SExpr::List(inner, p) = target {
                    if inner.first().and_then(SExpr::as_atom) != Some("func") {
                        return Err(err(*p, "only (func ...) exports are supported"));
                    }
                    let idx = resolve_func(inner.get(1), &names, *p)?;
                    module.export(name, idx);
                }
            }
            Some("table") => {
                // (table funcref (elem $f0 $f1 ...)) or (elem direct)
                for item in &items[1..] {
                    if let SExpr::List(inner, _) = item {
                        if inner.first().and_then(SExpr::as_atom) == Some("elem") {
                            for e in &inner[1..] {
                                let idx = resolve_func(Some(e), &names, e.pos())?;
                                module.push_table_entry(idx);
                            }
                        }
                    }
                }
            }
            Some("data") => {
                let offset = match items.get(1) {
                    Some(SExpr::List(inner, p)) => {
                        if inner.first().and_then(SExpr::as_atom) != Some("i32.const") {
                            return Err(err(*p, "data offset must be (i32.const N)"));
                        }
                        parse_int(
                            inner.get(1).and_then(SExpr::as_atom).ok_or_else(|| err(*p, "bad offset"))?,
                            *p,
                        )? as u32
                    }
                    _ => return Err(err(f.pos(), "data needs an offset")),
                };
                let bytes = match items.get(2) {
                    Some(SExpr::Str(s, _)) => s.clone(),
                    _ => return Err(err(f.pos(), "data needs a string payload")),
                };
                module.push_data(offset, bytes);
            }
            Some(other) => return Err(err(f.pos(), format!("unsupported field `{other}`"))),
            None => return Err(err(f.pos(), "empty field")),
        }
    }
    Ok(module)
}

fn resolve_func(e: Option<&SExpr>, names: &Names, pos: usize) -> Result<u32, ParseError> {
    match e.and_then(SExpr::as_atom) {
        Some(a) => {
            if let Some(n) = a.strip_prefix('$') {
                names.funcs.get(n).copied().ok_or_else(|| err(pos, format!("unknown func ${n}")))
            } else {
                Ok(parse_int(a, pos)? as u32)
            }
        }
        None => Err(err(pos, "expected function reference")),
    }
}

/// Parses a `(func ...)` form; returns the function and an optional inline
/// export name.
fn parse_func(
    items: &[SExpr],
    names: &Names,
    _global_count: usize,
) -> Result<(Func, Option<String>), ParseError> {
    let mut i = 1usize;
    let mut name = String::from("<anon>");
    if let Some(SExpr::Atom(a, _)) = items.get(i) {
        if let Some(n) = a.strip_prefix('$') {
            name = n.to_owned();
            i += 1;
        }
    }
    let mut export = None;
    let mut params: Vec<ValType> = Vec::new();
    let mut result: Option<ValType> = None;
    let mut locals: Vec<ValType> = Vec::new();
    let mut local_names: HashMap<String, u32> = HashMap::new();

    // Header clauses: (export "..."), (param ...), (result ...), (local ...).
    while let Some(SExpr::List(inner, p)) = items.get(i) {
        match inner.first().and_then(SExpr::as_atom) {
            Some("export") => {
                if let Some(SExpr::Str(s, p)) = inner.get(1) {
                    export = Some(utf8_name(s, *p)?);
                } else {
                    return Err(err(*p, "export needs a string"));
                }
                i += 1;
            }
            Some("param") => {
                let mut j = 1;
                if let Some(SExpr::Atom(a, _)) = inner.get(j) {
                    if let Some(n) = a.strip_prefix('$') {
                        local_names.insert(n.to_owned(), params.len() as u32);
                        j += 1;
                        params.push(parse_valtype(
                            inner.get(j).ok_or_else(|| err(*p, "param needs a type"))?,
                        )?);
                        i += 1;
                        continue;
                    }
                }
                for t in &inner[j..] {
                    params.push(parse_valtype(t)?);
                }
                i += 1;
            }
            Some("result") => {
                result = Some(parse_valtype(
                    inner.get(1).ok_or_else(|| err(*p, "result needs a type"))?,
                )?);
                i += 1;
            }
            Some("local") => {
                let mut j = 1;
                if let Some(SExpr::Atom(a, _)) = inner.get(j) {
                    if let Some(n) = a.strip_prefix('$') {
                        local_names
                            .insert(n.to_owned(), (params.len() + locals.len()) as u32);
                        j += 1;
                        locals.push(parse_valtype(
                            inner.get(j).ok_or_else(|| err(*p, "local needs a type"))?,
                        )?);
                        i += 1;
                        continue;
                    }
                }
                for t in &inner[j..] {
                    locals.push(parse_valtype(t)?);
                }
                i += 1;
            }
            _ => break,
        }
    }

    // Body: flat instructions.
    let mut body = Vec::new();
    let mut label_stack: Vec<Option<String>> = Vec::new();
    let mut k = i;
    while k < items.len() {
        k = parse_instr(items, k, names, &local_names, &mut label_stack, &mut body)?;
    }
    body.push(Op::End);
    Ok((
        Func { name, params, result, locals, body },
        export,
    ))
}

fn resolve_local(
    a: &str,
    local_names: &HashMap<String, u32>,
    pos: usize,
) -> Result<u32, ParseError> {
    if let Some(n) = a.strip_prefix('$') {
        local_names.get(n).copied().ok_or_else(|| err(pos, format!("unknown local ${n}")))
    } else {
        Ok(parse_int(a, pos)? as u32)
    }
}

fn resolve_label(
    a: &str,
    labels: &[Option<String>],
    pos: usize,
) -> Result<u32, ParseError> {
    if let Some(n) = a.strip_prefix('$') {
        for (depth, l) in labels.iter().rev().enumerate() {
            if l.as_deref() == Some(n) {
                return Ok(depth as u32);
            }
        }
        Err(err(pos, format!("unknown label ${n}")))
    } else {
        Ok(parse_int(a, pos)? as u32)
    }
}

#[allow(clippy::too_many_lines)]
fn parse_instr(
    items: &[SExpr],
    k: usize,
    names: &Names,
    local_names: &HashMap<String, u32>,
    labels: &mut Vec<Option<String>>,
    out: &mut Vec<Op>,
) -> Result<usize, ParseError> {
    let tok = &items[k];
    let pos = tok.pos();
    let atom = tok
        .as_atom()
        .ok_or_else(|| err(pos, "folded instruction forms are not supported"))?;

    // Helpers for immediates.
    let next_atom = |j: usize| -> Option<(&str, usize)> {
        items.get(j).and_then(|e| e.as_atom().map(|a| (a, e.pos())))
    };
    let mem_offset = |j: usize| -> (u32, usize) {
        if let Some((a, p)) = next_atom(j) {
            if let Some(v) = a.strip_prefix("offset=") {
                if let Ok(n) = parse_int(v, p) {
                    return (n as u32, j + 1);
                }
            }
        }
        (0, j)
    };

    let simple = |op: Op, out: &mut Vec<Op>| -> Result<usize, ParseError> {
        out.push(op);
        Ok(k + 1)
    };

    match atom {
        "nop" => simple(Op::Nop, out),
        "unreachable" => simple(Op::Unreachable, out),
        "drop" => simple(Op::Drop, out),
        "select" => simple(Op::Select, out),
        "return" => simple(Op::Return, out),
        "memory.size" => simple(Op::MemorySize, out),
        "memory.grow" => simple(Op::MemoryGrow, out),
        "memory.copy" => simple(Op::MemoryCopy, out),
        "memory.fill" => simple(Op::MemoryFill, out),

        "i32.const" => {
            let (a, p) = next_atom(k + 1).ok_or_else(|| err(pos, "i32.const needs a value"))?;
            out.push(Op::I32Const(parse_int(a, p)? as i32));
            Ok(k + 2)
        }
        "i64.const" => {
            let (a, p) = next_atom(k + 1).ok_or_else(|| err(pos, "i64.const needs a value"))?;
            out.push(Op::I64Const(parse_int(a, p)?));
            Ok(k + 2)
        }
        "local.get" | "local.set" | "local.tee" => {
            let (a, p) = next_atom(k + 1).ok_or_else(|| err(pos, "local op needs an index"))?;
            let idx = resolve_local(a, local_names, p)?;
            out.push(match atom {
                "local.get" => Op::LocalGet(idx),
                "local.set" => Op::LocalSet(idx),
                _ => Op::LocalTee(idx),
            });
            Ok(k + 2)
        }
        "global.get" | "global.set" => {
            let (a, p) = next_atom(k + 1).ok_or_else(|| err(pos, "global op needs an index"))?;
            let idx = if let Some(n) = a.strip_prefix('$') {
                *names.globals.get(n).ok_or_else(|| err(p, format!("unknown global ${n}")))?
            } else {
                parse_int(a, p)? as u32
            };
            out.push(if atom == "global.get" { Op::GlobalGet(idx) } else { Op::GlobalSet(idx) });
            Ok(k + 2)
        }
        "call" => {
            let idx = resolve_func(items.get(k + 1), names, pos)?;
            out.push(Op::Call(idx));
            Ok(k + 2)
        }
        "call_indirect" => {
            // call_indirect (type $f) — we reuse a function's signature.
            let idx = match items.get(k + 1) {
                Some(SExpr::List(inner, p)) if inner.first().and_then(SExpr::as_atom) == Some("type") => {
                    resolve_func(inner.get(1), names, *p)?
                }
                other => resolve_func(other, names, pos)?,
            };
            out.push(Op::CallIndirect { type_func: idx });
            Ok(k + 2)
        }
        "block" | "loop" | "if" => {
            let mut j = k + 1;
            let mut label = None;
            if let Some((a, _)) = next_atom(j) {
                if let Some(n) = a.strip_prefix('$') {
                    label = Some(n.to_owned());
                    j = k + 2;
                }
            }
            labels.push(label);
            out.push(match atom {
                "block" => Op::Block,
                "loop" => Op::Loop,
                _ => Op::If,
            });
            Ok(j)
        }
        "else" => simple(Op::Else, out),
        "end" => {
            labels.pop();
            simple(Op::End, out)
        }
        "br" | "br_if" => {
            let (a, p) = next_atom(k + 1).ok_or_else(|| err(pos, "br needs a target"))?;
            let d = resolve_label(a, labels, p)?;
            out.push(if atom == "br" { Op::Br(d) } else { Op::BrIf(d) });
            Ok(k + 2)
        }
        "br_table" => {
            let mut j = k + 1;
            let mut ds = Vec::new();
            while let Some((a, p)) = next_atom(j) {
                match resolve_label(a, labels, p) {
                    Ok(d) => {
                        ds.push(d);
                        j += 1;
                    }
                    Err(_) => break,
                }
            }
            let default = ds.pop().ok_or_else(|| err(pos, "br_table needs targets"))?;
            out.push(Op::BrTable { targets: ds, default });
            Ok(j)
        }

        "i32.load" | "i64.load" | "i32.load8_u" | "i32.load8_s" | "i32.load16_u"
        | "i32.load16_s" | "i32.store" | "i64.store" | "i32.store8" | "i32.store16" => {
            let (offset, j) = mem_offset(k + 1);
            out.push(match atom {
                "i32.load" => Op::I32Load { offset },
                "i64.load" => Op::I64Load { offset },
                "i32.load8_u" => Op::I32Load8U { offset },
                "i32.load8_s" => Op::I32Load8S { offset },
                "i32.load16_u" => Op::I32Load16U { offset },
                "i32.load16_s" => Op::I32Load16S { offset },
                "i32.store" => Op::I32Store { offset },
                "i64.store" => Op::I64Store { offset },
                "i32.store8" => Op::I32Store8 { offset },
                _ => Op::I32Store16 { offset },
            });
            Ok(j)
        }

        _ => {
            let op = match atom {
                "i32.add" => Op::I32Add,
                "i32.sub" => Op::I32Sub,
                "i32.mul" => Op::I32Mul,
                "i32.div_s" => Op::I32DivS,
                "i32.div_u" => Op::I32DivU,
                "i32.rem_s" => Op::I32RemS,
                "i32.rem_u" => Op::I32RemU,
                "i32.and" => Op::I32And,
                "i32.or" => Op::I32Or,
                "i32.xor" => Op::I32Xor,
                "i32.shl" => Op::I32Shl,
                "i32.shr_s" => Op::I32ShrS,
                "i32.shr_u" => Op::I32ShrU,
                "i32.rotl" => Op::I32Rotl,
                "i32.rotr" => Op::I32Rotr,
                "i32.eqz" => Op::I32Eqz,
                "i32.eq" => Op::I32Eq,
                "i32.ne" => Op::I32Ne,
                "i32.lt_s" => Op::I32LtS,
                "i32.lt_u" => Op::I32LtU,
                "i32.gt_s" => Op::I32GtS,
                "i32.gt_u" => Op::I32GtU,
                "i32.le_s" => Op::I32LeS,
                "i32.le_u" => Op::I32LeU,
                "i32.ge_s" => Op::I32GeS,
                "i32.ge_u" => Op::I32GeU,
                "i64.add" => Op::I64Add,
                "i64.sub" => Op::I64Sub,
                "i64.mul" => Op::I64Mul,
                "i64.div_s" => Op::I64DivS,
                "i64.div_u" => Op::I64DivU,
                "i64.rem_s" => Op::I64RemS,
                "i64.rem_u" => Op::I64RemU,
                "i64.and" => Op::I64And,
                "i64.or" => Op::I64Or,
                "i64.xor" => Op::I64Xor,
                "i64.shl" => Op::I64Shl,
                "i64.shr_s" => Op::I64ShrS,
                "i64.shr_u" => Op::I64ShrU,
                "i64.eqz" => Op::I64Eqz,
                "i64.eq" => Op::I64Eq,
                "i64.ne" => Op::I64Ne,
                "i64.lt_s" => Op::I64LtS,
                "i64.lt_u" => Op::I64LtU,
                "i64.gt_s" => Op::I64GtS,
                "i64.gt_u" => Op::I64GtU,
                "i64.le_s" => Op::I64LeS,
                "i64.le_u" => Op::I64LeU,
                "i64.ge_s" => Op::I64GeS,
                "i64.ge_u" => Op::I64GeU,
                "i32.wrap_i64" => Op::I32WrapI64,
                "i64.extend_i32_s" => Op::I64ExtendI32S,
                "i64.extend_i32_u" => Op::I64ExtendI32U,
                _ => return Err(err(pos, format!("unknown instruction `{atom}`"))),
            };
            out.push(op);
            Ok(k + 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interpreter;
    use crate::validate;

    fn check(src: &str, export: &str, args: &[u64]) -> Option<u64> {
        let m = parse(src).unwrap();
        validate(&m).unwrap();
        Interpreter::new(&m).unwrap().invoke_export(export, args).unwrap()
    }

    #[test]
    fn add_function() {
        let r = check(
            r#"(module (memory 1)
                 (func (export "add") (param i32 i32) (result i32)
                   local.get 0
                   local.get 1
                   i32.add))"#,
            "add",
            &[20, 22],
        );
        assert_eq!(r, Some(42));
    }

    #[test]
    fn named_locals_and_labels() {
        let r = check(
            r#"(module (memory 1)
                 (func (export "sum") (param $n i32) (result i32) (local $acc i32)
                   block $exit
                     loop $top
                       local.get $n
                       i32.eqz
                       br_if $exit
                       local.get $acc
                       local.get $n
                       i32.add
                       local.set $acc
                       local.get $n
                       i32.const 1
                       i32.sub
                       local.set $n
                       br $top
                     end
                   end
                   local.get $acc))"#,
            "sum",
            &[10],
        );
        assert_eq!(r, Some(55));
    }

    #[test]
    fn memory_ops_with_offsets() {
        let r = check(
            r#"(module (memory 2)
                 (func (export "rw") (param $p i32) (result i32)
                   local.get $p
                   i32.const 0xABCD
                   i32.store offset=16
                   local.get $p
                   i32.load offset=16))"#,
            "rw",
            &[128],
        );
        assert_eq!(r, Some(0xABCD));
    }

    #[test]
    fn globals_and_calls() {
        let r = check(
            r#"(module (memory 1)
                 (global $g (mut i32) (i32.const 7))
                 (func $bump (result i32)
                   global.get $g
                   i32.const 1
                   i32.add
                   global.set $g
                   global.get $g)
                 (func (export "main") (result i32)
                   call $bump
                   drop
                   call $bump))"#,
            "main",
            &[],
        );
        assert_eq!(r, Some(9));
    }

    #[test]
    fn table_and_call_indirect() {
        let r = check(
            r#"(module (memory 1)
                 (func $ten (result i32) i32.const 10)
                 (func $twenty (result i32) i32.const 20)
                 (table funcref (elem $ten $twenty))
                 (func (export "pick") (param $i i32) (result i32)
                   local.get $i
                   call_indirect (type $ten)))"#,
            "pick",
            &[1],
        );
        assert_eq!(r, Some(20));
    }

    #[test]
    fn data_segment_and_comments() {
        let r = check(
            r#"(module
                 ;; line comment
                 (memory 1)
                 (data (i32.const 4) "ab")
                 (; block comment ;)
                 (func (export "read") (result i32)
                   i32.const 4
                   i32.load8_u))"#,
            "read",
            &[],
        );
        assert_eq!(r, Some(97)); // 'a'
    }

    #[test]
    fn string_escapes_are_raw_bytes() {
        let m = parse(r#"(module (memory 1) (data (i32.const 0) "\ff\80é\n"))"#).unwrap();
        assert_eq!(m.data, vec![(0, vec![0xFF, 0x80, 0xC3, 0xA9, b'\n'])]);
        // A bad escape is an error, also one ending inside a multi-byte char.
        assert!(parse(r#"(module (memory 1) (data (i32.const 0) "\aé"))"#).is_err());
    }

    #[test]
    fn if_else_parses() {
        let r = check(
            r#"(module (memory 1)
                 (func (export "abs") (param $x i32) (result i32) (local $r i32)
                   local.get $x
                   i32.const 0
                   i32.lt_s
                   if
                     i32.const 0
                     local.get $x
                     i32.sub
                     local.set $r
                   else
                     local.get $x
                     local.set $r
                   end
                   local.get $r))"#,
            "abs",
            &[(-5i32) as u32 as u64],
        );
        assert_eq!(r, Some(5));
    }

    #[test]
    fn parse_errors_have_positions() {
        let e = parse("(module (func (export \"f\") bogus.op))").unwrap_err();
        assert!(e.msg.contains("bogus.op"), "{e}");
        assert!(e.pos > 0);
        assert!(parse("(module").is_err());
        assert!(parse("(module))").is_err());
    }

    #[test]
    fn br_table_parses() {
        let r = check(
            r#"(module (memory 1)
                 (func (export "sw") (param $i i32) (result i32) (local $r i32)
                   block block block
                     local.get $i
                     br_table 0 1 2
                   end
                     i32.const 10 local.set $r local.get $r return
                   end
                     i32.const 20 local.set $r local.get $r return
                   end
                   i32.const 30))"#,
            "sw",
            &[1],
        );
        assert_eq!(r, Some(20));
    }
}
