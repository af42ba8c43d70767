//! A small regular-expression engine (Thompson NFA construction, breadth-
//! first simulation — no backtracking, linear time).
//!
//! The paper's "regular expression filtering of URLs" FaaS workload (§6.4.3)
//! needs a real matcher; the offline crate policy excludes the `regex`
//! crate, so this is a from-scratch engine supporting the subset URL
//! filters use: literals, `.`, `*`, `+`, `?`, character classes
//! (`[a-z0-9-]`, negated `[^/]`), alternation `|`, grouping `(...)` and
//! anchors `^`/`$`.
//!
//! Matching runs a lazy DFA whose states are NFA state sets. A missing
//! transition is filled by one breadth-first NFA step, and the step's work
//! units are cached with it, so a cached match reports exactly the work the
//! NFA simulation would have.

use std::cell::RefCell;
use std::collections::HashMap;

/// A compiled regular expression.
#[derive(Debug, Clone)]
pub struct Regex {
    prog: Vec<Inst>,
    anchored_start: bool,
    dfa: RefCell<Dfa>,
}

/// State sets the lazy DFA holds before a match starts it afresh. A fixed
/// bound: one match can add at most one set per input byte past it.
const MAX_DFA_SETS: usize = 1024;

/// Transition slots per DFA state: one per (input byte, at-end flag).
const DFA_SLOTS: usize = 512;

/// The lazy DFA: interned NFA state sets and the transitions found so far.
#[derive(Debug, Clone, Default)]
struct Dfa {
    /// State sets by id (`set[pc]` = NFA state `pc` is live).
    sets: Vec<Box<[bool]>>,
    ids: HashMap<Box<[bool]>, u32>,
    /// `DFA_SLOTS` slots per set, indexed `byte * 2 + at_end`: the next set
    /// and the NFA work units of the step.
    trans: Vec<Option<(u32, u32)>>,
    /// Start set and its closure work, indexed by whether the input is
    /// empty (the closure passes `$` only at the end).
    start: [Option<(u32, u32)>; 2],
}

impl Dfa {
    fn intern(&mut self, set: Box<[bool]>) -> u32 {
        if let Some(&id) = self.ids.get(&set) {
            return id;
        }
        let id = u32::try_from(self.sets.len()).expect("DFA sets are bounded");
        self.sets.push(set.clone());
        self.ids.insert(set, id);
        self.trans.resize(self.trans.len() + DFA_SLOTS, None);
        id
    }

    fn accepts(&self, id: u32) -> bool {
        // The program's last instruction is its single `Match`.
        *self.sets[id as usize].last().expect("program ends in Match")
    }
}

/// Compilation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegexError {
    /// Byte position in the pattern.
    pub pos: usize,
    /// Description.
    pub msg: String,
}

impl core::fmt::Display for RegexError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "regex error at {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for RegexError {}

#[derive(Debug, Clone)]
enum Inst {
    /// Match one byte against a class.
    Byte(ByteClass),
    /// Unconditional jump.
    Jmp(usize),
    /// Fork execution (both targets).
    Split(usize, usize),
    /// Accept.
    Match,
    /// End-of-input anchor.
    EndAnchor,
}

#[derive(Debug, Clone)]
enum ByteClass {
    Literal(u8),
    Any,
    /// Sorted inclusive ranges; `negated` flips the sense.
    Ranges { ranges: Vec<(u8, u8)>, negated: bool },
}

impl ByteClass {
    fn matches(&self, b: u8) -> bool {
        match self {
            ByteClass::Literal(l) => b == *l,
            ByteClass::Any => true,
            ByteClass::Ranges { ranges, negated } => {
                let inside = ranges.iter().any(|&(lo, hi)| (lo..=hi).contains(&b));
                inside != *negated
            }
        }
    }
}

// ---- parser: pattern → AST ----

#[derive(Debug, Clone)]
enum Ast {
    Empty,
    Class(ByteClass),
    Concat(Vec<Ast>),
    Alt(Box<Ast>, Box<Ast>),
    Star(Box<Ast>),
    Plus(Box<Ast>),
    Quest(Box<Ast>),
    EndAnchor,
}

struct Parser<'a> {
    pat: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: impl Into<String>) -> RegexError {
        RegexError { pos: self.pos, msg: msg.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.pat.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn parse_alt(&mut self) -> Result<Ast, RegexError> {
        let mut lhs = self.parse_concat()?;
        while self.peek() == Some(b'|') {
            self.bump();
            let rhs = self.parse_concat()?;
            lhs = Ast::Alt(lhs.into(), rhs.into());
        }
        Ok(lhs)
    }

    fn parse_concat(&mut self) -> Result<Ast, RegexError> {
        let mut items = Vec::new();
        while let Some(b) = self.peek() {
            if b == b'|' || b == b')' {
                break;
            }
            items.push(self.parse_repeat()?);
        }
        Ok(match items.len() {
            0 => Ast::Empty,
            1 => items.pop().expect("len checked"),
            _ => Ast::Concat(items),
        })
    }

    fn parse_repeat(&mut self) -> Result<Ast, RegexError> {
        let atom = self.parse_atom()?;
        Ok(match self.peek() {
            Some(b'*') => {
                self.bump();
                Ast::Star(atom.into())
            }
            Some(b'+') => {
                self.bump();
                Ast::Plus(atom.into())
            }
            Some(b'?') => {
                self.bump();
                Ast::Quest(atom.into())
            }
            _ => atom,
        })
    }

    fn parse_atom(&mut self) -> Result<Ast, RegexError> {
        match self.bump().ok_or_else(|| self.err("unexpected end of pattern"))? {
            b'(' => {
                let inner = self.parse_alt()?;
                if self.bump() != Some(b')') {
                    return Err(self.err("unclosed group"));
                }
                Ok(inner)
            }
            b'[' => self.parse_class(),
            b'.' => Ok(Ast::Class(ByteClass::Any)),
            b'$' => Ok(Ast::EndAnchor),
            b'\\' => {
                let c = self.bump().ok_or_else(|| self.err("dangling escape"))?;
                Ok(Ast::Class(match c {
                    b'd' => ByteClass::Ranges { ranges: vec![(b'0', b'9')], negated: false },
                    b'w' => ByteClass::Ranges {
                        ranges: vec![(b'a', b'z'), (b'A', b'Z'), (b'0', b'9'), (b'_', b'_')],
                        negated: false,
                    },
                    other => ByteClass::Literal(other),
                }))
            }
            b'*' | b'+' | b'?' => Err(self.err("repetition with nothing to repeat")),
            lit => Ok(Ast::Class(ByteClass::Literal(lit))),
        }
    }

    fn parse_class(&mut self) -> Result<Ast, RegexError> {
        let negated = if self.peek() == Some(b'^') {
            self.bump();
            true
        } else {
            false
        };
        let mut ranges = Vec::new();
        loop {
            let b = self.bump().ok_or_else(|| self.err("unclosed character class"))?;
            if b == b']' {
                break;
            }
            let lo = if b == b'\\' {
                self.bump().ok_or_else(|| self.err("dangling escape in class"))?
            } else {
                b
            };
            if self.peek() == Some(b'-') && self.pat.get(self.pos + 1) != Some(&b']') {
                self.bump();
                let hi = self.bump().ok_or_else(|| self.err("unclosed range"))?;
                if hi < lo {
                    return Err(self.err("inverted range"));
                }
                ranges.push((lo, hi));
            } else {
                ranges.push((lo, lo));
            }
        }
        Ok(Ast::Class(ByteClass::Ranges { ranges, negated }))
    }
}

// ---- compiler: AST → NFA program ----

fn emit(ast: &Ast, prog: &mut Vec<Inst>) {
    match ast {
        Ast::Empty => {}
        Ast::Class(c) => prog.push(Inst::Byte(c.clone())),
        Ast::Concat(items) => {
            for i in items {
                emit(i, prog);
            }
        }
        Ast::Alt(a, b) => {
            let split = prog.len();
            prog.push(Inst::Jmp(0)); // placeholder → Split
            emit(a, prog);
            let jmp = prog.len();
            prog.push(Inst::Jmp(0)); // placeholder → end
            let b_start = prog.len();
            emit(b, prog);
            let end = prog.len();
            prog[split] = Inst::Split(split + 1, b_start);
            prog[jmp] = Inst::Jmp(end);
        }
        Ast::Star(a) => {
            let split = prog.len();
            prog.push(Inst::Jmp(0));
            emit(a, prog);
            prog.push(Inst::Jmp(split));
            let end = prog.len();
            prog[split] = Inst::Split(split + 1, end);
        }
        Ast::Plus(a) => {
            let start = prog.len();
            emit(a, prog);
            let split = prog.len();
            prog.push(Inst::Split(start, split + 1));
        }
        Ast::Quest(a) => {
            let split = prog.len();
            prog.push(Inst::Jmp(0));
            emit(a, prog);
            let end = prog.len();
            prog[split] = Inst::Split(split + 1, end);
        }
        Ast::EndAnchor => prog.push(Inst::EndAnchor),
    }
}

impl Regex {
    /// Compiles `pattern`.
    pub fn new(pattern: &str) -> Result<Regex, RegexError> {
        let anchored_start = pattern.starts_with('^');
        let body = if anchored_start { &pattern[1..] } else { pattern };
        let mut p = Parser { pat: body.as_bytes(), pos: 0 };
        let ast = p.parse_alt()?;
        if p.pos != body.len() {
            return Err(p.err("unbalanced ')'"));
        }
        let mut prog = Vec::new();
        emit(&ast, &mut prog);
        prog.push(Inst::Match);
        Ok(Regex { prog, anchored_start, dfa: RefCell::default() })
    }

    /// Whether the pattern matches anywhere in `input` (or from the start
    /// if `^`-anchored). Also returns the number of NFA state-steps
    /// executed — the work metric the FaaS simulation converts to cycles.
    ///
    /// Unanchored search is single-pass: the start state is re-injected at
    /// every position (an implicit leading `.*`), so matching is linear in
    /// `input.len() × pattern states` with no restarts. Each step is a DFA
    /// transition lookup; the first time a transition is taken it runs the
    /// NFA step (`nfa_step`) and caches its result and work.
    pub fn is_match_counted(&self, input: &str) -> (bool, u64) {
        let bytes = input.as_bytes();
        let mut dfa = self.dfa.borrow_mut();
        if dfa.sets.len() >= MAX_DFA_SETS {
            *dfa = Dfa::default();
        }
        let (mut cur, start_work) = self.start_state(&mut dfa, bytes.is_empty());
        let mut work = u64::from(start_work);
        for (i, &b) in bytes.iter().enumerate() {
            if dfa.accepts(cur) {
                return (true, work);
            }
            let at_end_after = i + 1 == bytes.len();
            let slot = cur as usize * DFA_SLOTS + usize::from(b) * 2 + usize::from(at_end_after);
            let (next, w) = match dfa.trans[slot] {
                Some(t) => t,
                None => {
                    let mut next = vec![false; self.prog.len()].into_boxed_slice();
                    let w = self.nfa_step(&dfa.sets[cur as usize], b, at_end_after, &mut next);
                    let t = (dfa.intern(next), u32::try_from(w).expect("one step's work fits"));
                    dfa.trans[slot] = Some(t);
                    t
                }
            };
            work += u64::from(w);
            cur = next;
        }
        (dfa.accepts(cur), work)
    }

    /// The ε-closure of the start state, and its work.
    fn start_state(&self, dfa: &mut Dfa, empty_input: bool) -> (u32, u32) {
        if let Some(s) = dfa.start[usize::from(empty_input)] {
            return s;
        }
        let mut set = vec![false; self.prog.len()].into_boxed_slice();
        let mut work = 0;
        add_state(&self.prog, &mut set, &mut Vec::new(), 0, empty_input, &mut work);
        let s = (dfa.intern(set), u32::try_from(work).expect("closure work fits"));
        dfa.start[usize::from(empty_input)] = Some(s);
        s
    }

    /// One breadth-first NFA step: advances every live state in `cur` over
    /// byte `b` into the (all-dead) `next`, re-injecting the start state
    /// when unanchored. Returns the work units: one per live state scanned
    /// plus the ε-closure insertions.
    fn nfa_step(&self, cur: &[bool], b: u8, at_end_after: bool, next: &mut [bool]) -> u64 {
        let mut stack = Vec::new();
        let mut work = 0u64;
        for (pc, live) in cur.iter().enumerate() {
            if !live {
                continue;
            }
            work += 1;
            if let Inst::Byte(c) = &self.prog[pc] {
                if c.matches(b) {
                    add_state(&self.prog, next, &mut stack, pc + 1, at_end_after, &mut work);
                }
            }
        }
        if !self.anchored_start {
            // Implicit `.*` prefix: a match may start at the next byte.
            add_state(&self.prog, next, &mut stack, 0, at_end_after, &mut work);
        }
        work
    }

    /// Whether the pattern matches.
    pub fn is_match(&self, input: &str) -> bool {
        self.is_match_counted(input).0
    }
}

/// ε-closure insertion.
fn add_state(
    prog: &[Inst],
    set: &mut [bool],
    stack: &mut Vec<usize>,
    pc: usize,
    at_end: bool,
    work: &mut u64,
) {
    stack.push(pc);
    while let Some(pc) = stack.pop() {
        if pc >= prog.len() || set[pc] {
            continue;
        }
        *work += 1;
        match &prog[pc] {
            Inst::Jmp(t) => stack.push(*t),
            Inst::Split(a, b) => {
                stack.push(*a);
                stack.push(*b);
            }
            Inst::EndAnchor => {
                if at_end {
                    stack.push(pc + 1);
                }
            }
            Inst::Byte(_) | Inst::Match => set[pc] = true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(pat: &str, s: &str) -> bool {
        Regex::new(pat).unwrap().is_match(s)
    }

    #[test]
    fn literals_and_any() {
        assert!(m("abc", "xxabcxx"));
        assert!(!m("abc", "ab"));
        assert!(m("a.c", "abc"));
        assert!(m("a.c", "axc"));
        assert!(!m("a.c", "ac"));
    }

    #[test]
    fn anchors() {
        assert!(m("^abc", "abcdef"));
        assert!(!m("^abc", "xabc"));
        assert!(m("abc$", "xxabc"));
        assert!(!m("abc$", "abcx"));
        assert!(m("^abc$", "abc"));
        assert!(!m("^abc$", "abcd"));
    }

    #[test]
    fn repetition() {
        assert!(m("ab*c", "ac"));
        assert!(m("ab*c", "abbbc"));
        assert!(m("ab+c", "abc"));
        assert!(!m("ab+c", "ac"));
        assert!(m("ab?c", "ac"));
        assert!(m("ab?c", "abc"));
        assert!(!m("ab?c", "abbc"));
    }

    #[test]
    fn classes() {
        assert!(m("[a-z]+", "hello"));
        assert!(!m("^[a-z]+$", "Hello"));
        assert!(m("[^/]+", "segment"));
        assert!(!m("^[^/]+$", "a/b"));
        assert!(m("[a-z0-9-]+", "my-url-9"));
        assert!(m("\\d+", "route66"));
        assert!(m("\\w+", "under_score"));
    }

    #[test]
    fn alternation_and_groups() {
        assert!(m("cat|dog", "hotdog"));
        assert!(m("^(cat|dog)$", "cat"));
        assert!(!m("^(cat|dog)$", "cow"));
        assert!(m("^a(b|c)*d$", "abcbcd"));
        assert!(m("(ab)+", "ababab"));
    }

    #[test]
    fn url_filters() {
        // The kind of patterns an edge URL filter uses.
        let api = Regex::new("^/api/v[0-9]+/users/[0-9]+$").unwrap();
        assert!(api.is_match("/api/v2/users/12345"));
        assert!(!api.is_match("/api/v2/users/12345/edit"));
        assert!(!api.is_match("/apiv2/users/1"));

        let stat = Regex::new("\\.(css|js|png|jpg)$").unwrap();
        assert!(stat.is_match("/assets/app.js"));
        assert!(stat.is_match("/img/logo.png"));
        assert!(!stat.is_match("/assets/app.js.map"));
    }

    #[test]
    fn pathological_patterns_stay_linear() {
        // (a*)* style blowups are linear in a Thompson engine.
        let r = Regex::new("a*a*a*a*a*a*b").unwrap();
        let input = "a".repeat(200);
        let (matched, work) = r.is_match_counted(&input);
        assert!(!matched);
        assert!(work < 3_000_000, "NFA simulation must stay linear-ish: {work}");
    }

    #[test]
    fn errors() {
        assert!(Regex::new("(ab").is_err());
        assert!(Regex::new("[ab").is_err());
        assert!(Regex::new("*a").is_err());
        assert!(Regex::new("[z-a]").is_err());
    }

    #[test]
    fn work_counter_grows_with_input() {
        let r = Regex::new("[a-z]+@[a-z]+").unwrap();
        let (_, small) = r.is_match_counted("xx");
        let (_, big) = r.is_match_counted(&"x".repeat(500));
        assert!(big > small);
    }

    /// The matcher before the lazy DFA: a fresh breadth-first NFA
    /// simulation per call, the reference for the cached matcher.
    fn nfa_reference(re: &Regex, input: &str) -> (bool, u64) {
        let bytes = input.as_bytes();
        let n = re.prog.len();
        let mut cur = vec![false; n];
        let mut next = vec![false; n];
        let mut stack = Vec::new();
        let mut work = 0u64;
        add_state(&re.prog, &mut cur, &mut stack, 0, bytes.is_empty(), &mut work);
        for (i, &b) in bytes.iter().enumerate() {
            if cur[n - 1] {
                return (true, work);
            }
            next.iter_mut().for_each(|s| *s = false);
            let at_end_after = i + 1 == bytes.len();
            for (pc, live) in cur.iter().enumerate() {
                if !live {
                    continue;
                }
                work += 1;
                if let Inst::Byte(c) = &re.prog[pc] {
                    if c.matches(b) {
                        add_state(&re.prog, &mut next, &mut stack, pc + 1, at_end_after, &mut work);
                    }
                }
            }
            if !re.anchored_start {
                add_state(&re.prog, &mut next, &mut stack, 0, at_end_after, &mut work);
            }
            std::mem::swap(&mut cur, &mut next);
        }
        (cur[n - 1], work)
    }

    /// The FaaS simulation's URL filters, then every pattern the tests
    /// above use.
    const PATTERNS: [&str; 27] = [
        "^/api/v[0-9]+/users/[0-9]+$",
        "\\.(css|js|png|jpg)$",
        "^/(admin|internal)/",
        "/[a-z]+/[a-z0-9-]+$",
        "abc",
        "a.c",
        "^abc",
        "abc$",
        "^abc$",
        "ab*c",
        "ab+c",
        "ab?c",
        "[a-z]+",
        "^[a-z]+$",
        "[^/]+",
        "^[^/]+$",
        "[a-z0-9-]+",
        "\\d+",
        "\\w+",
        "cat|dog",
        "^(cat|dog)$",
        "^a(b|c)*d$",
        "(ab)+",
        "a*a*a*a*a*a*b",
        "[a-z]+@[a-z]+",
        "^[a-z]+@[a-z]+$",
        "x?$",
    ];

    /// Seeded inputs: the empty string, random strings over the URL
    /// alphabet, and URL-shaped paths built from segments the filters
    /// look for.
    fn inputs() -> Vec<String> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789/.-_@";
        const SEGMENTS: [&str; 12] = [
            "api", "v2", "users", "12345", "admin", "internal", "assets", "app.js", "logo.png",
            "my-url-9", "cat", "abcbcd",
        ];
        let mut rng = StdRng::seed_from_u64(0xD_FA);
        let mut out = vec![String::new()];
        for _ in 0..300 {
            let len = rng.gen_range(0..40);
            let chars = (0..len).map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())] as char);
            out.push(chars.collect());
        }
        for _ in 0..300 {
            let mut url = String::new();
            for _ in 0..rng.gen_range(1..6) {
                url.push('/');
                url.push_str(SEGMENTS[rng.gen_range(0..SEGMENTS.len())]);
            }
            out.push(url);
        }
        out
    }

    #[test]
    fn lazy_dfa_matches_the_nfa_cold_and_warm() {
        let inputs = inputs();
        for pat in PATTERNS {
            let warm = Regex::new(pat).unwrap();
            for input in &inputs {
                let want = nfa_reference(&warm, input);
                let cold = Regex::new(pat).unwrap().is_match_counted(input);
                assert_eq!(cold, want, "cold cache: {pat:?} on {input:?}");
                assert_eq!(warm.is_match_counted(input), want, "warm cache: {pat:?} on {input:?}");
            }
        }
    }

    #[test]
    fn lazy_dfa_stays_bounded_and_exact_across_resets() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // "the 11th byte from the end is an `a`": 2^11 DFA states, more
        // than the cache holds, so matching must start it afresh.
        let re = Regex::new("[ab]*a[ab][ab][ab][ab][ab][ab][ab][ab][ab][ab]$").unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let mut resets = 0;
        let mut prev = 0;
        for _ in 0..200 {
            let input: String =
                (0..60).map(|_| if rng.gen::<bool>() { 'a' } else { 'b' }).collect();
            assert_eq!(re.is_match_counted(&input), nfa_reference(&re, &input));
            let sets = re.dfa.borrow().sets.len();
            assert!(sets <= MAX_DFA_SETS + input.len() + 1, "{sets} sets");
            resets += usize::from(sets < prev);
            prev = sets;
        }
        assert!(resets > 0, "the bound must have been reached");
    }
}
