//! Set-associative cache simulation (used for both L1I and L1D).
//!
//! The emulator charges miss penalties through [`crate::cost::CostModel`];
//! this module only tracks hit/miss behaviour. Caches here are physically
//! simple: true-LRU, write-allocate, no prefetching — deliberately so, to
//! keep results deterministic and explainable.

/// A set-associative cache with true-LRU replacement.
#[derive(Debug, Clone)]
pub struct Cache {
    /// log2 of the line size in bytes.
    line_shift: u32,
    sets: usize,
    ways: usize,
    /// `tags[set * ways + way]` = line tag, or `u64::MAX` if invalid.
    tags: Vec<u64>,
    /// LRU stamps, parallel to `tags`.
    stamps: Vec<u64>,
    clock: u64,
    accesses: u64,
    misses: u64,
    /// The line accessed last (`u64::MAX` after a flush). It is resident with
    /// the newest stamp in its set, so a repeat access hits without a tag
    /// scan and leaves the LRU order as it was.
    mru: u64,
}

impl Cache {
    /// Creates a cache of `size_bytes` with `ways`-way associativity and
    /// `line_bytes` lines.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are not powers of two or inconsistent.
    pub fn new(size_bytes: usize, ways: usize, line_bytes: usize) -> Cache {
        assert!(line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(ways >= 1);
        assert_eq!(size_bytes % (ways * line_bytes), 0, "size must divide evenly");
        let sets = size_bytes / (ways * line_bytes);
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Cache {
            line_shift: line_bytes.trailing_zeros(),
            sets,
            ways,
            tags: vec![u64::MAX; sets * ways],
            stamps: vec![0; sets * ways],
            clock: 0,
            accesses: 0,
            misses: 0,
            mru: u64::MAX,
        }
    }

    /// A typical L1 data cache (48 KiB, 12-way, 64-byte lines — client x86).
    pub fn l1d_default() -> Cache {
        Cache::new(48 * 1024, 12, 64)
    }

    /// A typical L1 instruction cache (32 KiB, 8-way, 64-byte lines).
    pub fn l1i_default() -> Cache {
        Cache::new(32 * 1024, 8, 64)
    }

    /// Accesses `addr`; returns `true` on a hit. Spanning accesses should
    /// call this once per touched line (see [`Cache::access_range`]).
    pub fn access(&mut self, addr: u64) -> bool {
        self.accesses += 1;
        self.clock += 1;
        let line = addr >> self.line_shift;
        if line == self.mru {
            return true;
        }
        self.mru = line;
        let set = (line as usize) & (self.sets - 1);
        let base = set * self.ways;
        let slots = &mut self.tags[base..base + self.ways];
        if let Some(w) = slots.iter().position(|&t| t == line) {
            self.stamps[base + w] = self.clock;
            return true;
        }
        self.misses += 1;
        // Victim: the least-recently-used way.
        let mut victim = 0;
        let mut best = u64::MAX;
        for w in 0..self.ways {
            if self.tags[base + w] == u64::MAX {
                victim = w;
                break;
            }
            if self.stamps[base + w] < best {
                best = self.stamps[base + w];
                victim = w;
            }
        }
        self.tags[base + victim] = line;
        self.stamps[base + victim] = self.clock;
        false
    }

    /// Accesses every line touched by `[addr, addr+len)`; returns the number
    /// of misses (0, 1 or 2 for ordinary accesses). A range running past the
    /// top of the address space stops at its last line.
    pub fn access_range(&mut self, addr: u64, len: u64) -> u32 {
        if len == 0 {
            return 0;
        }
        let first = addr >> self.line_shift;
        let last = addr.saturating_add(len - 1) >> self.line_shift;
        if first == last {
            return u32::from(!self.access(addr));
        }
        (first..=last).map(|line| u32::from(!self.access(line << self.line_shift))).sum()
    }

    /// Total accesses so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss rate in [0, 1]; 0 if no accesses.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Invalidates all lines and zeroes counters.
    pub fn reset(&mut self) {
        self.flush();
        self.clock = 0;
        self.accesses = 0;
        self.misses = 0;
    }

    /// Invalidates all lines but keeps counters (models a cache flushed by a
    /// context switch).
    pub fn flush(&mut self) {
        self.tags.fill(u64::MAX);
        self.stamps.fill(0);
        self.mru = u64::MAX;
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        1 << self.line_shift
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_miss_then_hit() {
        let mut c = Cache::new(1024, 2, 64);
        assert!(!c.access(0x40));
        assert!(c.access(0x40));
        assert!(c.access(0x7F)); // same line
        assert!(!c.access(0x80)); // next line
        assert_eq!(c.misses(), 2);
        assert_eq!(c.accesses(), 4);
    }

    #[test]
    fn lru_eviction() {
        // 2 ways, 64-byte lines, 2 sets → set stride 128.
        let mut c = Cache::new(256, 2, 64);
        let a = 0u64;
        let b = 128; // same set as a (set 0)
        let d = 256; // same set again
        assert!(!c.access(a));
        assert!(!c.access(b));
        assert!(!c.access(d)); // evicts a (LRU)
        assert!(!c.access(a)); // a was evicted
        assert!(c.access(d)); // d still resident
    }

    #[test]
    fn range_access_spans_lines() {
        let mut c = Cache::new(1024, 2, 64);
        // 8 bytes at offset 60 spans two lines.
        assert_eq!(c.access_range(60, 8), 2);
        assert_eq!(c.access_range(60, 8), 0);
        assert_eq!(c.access_range(0, 0), 0);
    }

    #[test]
    fn flush_keeps_counters() {
        let mut c = Cache::new(1024, 2, 64);
        c.access(0);
        c.flush();
        assert_eq!(c.misses(), 1);
        assert!(!c.access(0), "flushed line must miss again");
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn range_past_the_top_of_memory_stops_at_the_last_line() {
        let mut c = Cache::new(1024, 2, 64);
        assert_eq!(c.access_range(u64::MAX - 3, 8), 1);
        assert_eq!(c.access_range(u64::MAX - 67, 128), 1, "first line missed, last line hit");
        assert_eq!(c.accesses(), 3);
    }

    /// The reference model: true LRU with a full tag scan on every access.
    struct ScanLru {
        sets: Vec<Vec<(u64, u64)>>,
        ways: usize,
        clock: u64,
    }

    impl ScanLru {
        fn access(&mut self, line: u64) -> bool {
            self.clock += 1;
            let n = self.sets.len() as u64;
            let set = &mut self.sets[(line % n) as usize];
            if let Some(slot) = set.iter_mut().find(|(tag, _)| *tag == line) {
                slot.1 = self.clock;
                return true;
            }
            if set.len() == self.ways {
                let lru = (0..set.len()).min_by_key(|&w| set[w].1).unwrap();
                set.remove(lru);
            }
            set.push((line, self.clock));
            false
        }
    }

    #[test]
    fn mru_line_matches_a_scanning_true_lru_model() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..64 {
            let mut rng = StdRng::seed_from_u64(seed);
            // 8 sets x 4 ways, or 2 sets x 2 ways (conflicts in a few steps).
            let (size, ways) = if seed % 2 == 0 { (2048, 4) } else { (256, 2) };
            let mut c = Cache::new(size, ways, 64);
            let sets = size / (ways * 64);
            let mut r = ScanLru { sets: vec![Vec::new(); sets], ways, clock: 0 };
            let (mut accesses, mut misses) = (0, 0);
            let (mut addr, mut recent, span) = (0u64, [0u64; 8], 2 * size as u64);
            for i in 0..4000 {
                if rng.gen_range(0..500) == 0 {
                    c.flush();
                    r.sets.iter_mut().for_each(Vec::clear);
                }
                // Steps within or just past the last line (MRU repeats),
                // returns to a recent address (hits found by the scan) and
                // jumps across a span twice the cache size (evictions).
                addr = match rng.gen_range(0..4) {
                    0 => rng.gen_range(0..span),
                    1 => recent[rng.gen_range(0..8)],
                    _ => (addr + rng.gen_range(0..48)) % span,
                };
                recent[i % 8] = addr;
                let hit = r.access(addr >> 6);
                accesses += 1;
                misses += u64::from(!hit);
                assert_eq!(c.access(addr), hit, "seed {seed}, access {i} at {addr:#x}");
            }
            assert_eq!((c.accesses(), c.misses()), (accesses, misses), "seed {seed}");
        }
    }

    #[test]
    fn working_set_behaviour() {
        // A working set that fits has ~zero steady-state misses; one that
        // doesn't thrashes. This is the mechanism behind the paper's
        // "Wasm's 32-bit pointers act as a cache optimization" observation.
        let mut fits = Cache::new(4096, 4, 64);
        let mut thrash = Cache::new(4096, 4, 64);
        for round in 0..8 {
            for i in 0..32 {
                fits.access(i * 64); // 2 KiB set
            }
            for i in 0..128 {
                thrash.access(i * 64); // 8 KiB set
            }
            if round == 0 {
                continue;
            }
        }
        assert_eq!(fits.misses(), 32, "small set misses only on the cold pass");
        assert!(thrash.miss_rate() > 0.9, "oversized set keeps missing");
    }
}
