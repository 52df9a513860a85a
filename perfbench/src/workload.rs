//! Seeded request streams for the three workloads.
//!
//! Everything machid receives is generated here from `(workload, seed)`:
//!
//! * the setup program every long-lived session runs after `OPEN`;
//! * one request stream per long-lived session slot (its *persona*),
//!   exactly `session_budget` requests long. When a slot's session has
//!   sent them all it is closed, reopened and set up again, and the
//!   persona starts over, so a session's age at a given request is the
//!   same in every run however fast the server is;
//! * the short script a churn session runs (`OPEN`, a few evals,
//!   `CLOSE`);
//! * each connection's schedule, which walks its slots round-robin and
//!   puts one churn session at a seeded place in every 40 steps.
//!
//! Data larger than a request line is generated in-language: the setup
//! sends seeded literals and multipliers, and comprehensions over them
//! build the relations inside machid.

use std::fmt::Write as _;

/// The seed the benchmark was developed and tuned with.
pub const DEFAULT_SEED: u64 = 1;
/// A seed kept out of development: a performance claim must also hold
/// on it.
pub const HELD_OUT_SEED: u64 = 20_261_017;

/// Closed-loop client connections, one thread each.
pub const CONNECTIONS: usize = 2;

/// Schedule steps per connection covered by [`Spec::stream_hash`].
const HASHED_STEPS: usize = 4096;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    HotRead,
    ScanJoin,
    DurableMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::HotRead,
        Workload::ScanJoin,
        Workload::DurableMixed,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotRead => "hot_read",
            Workload::ScanJoin => "scan_join",
            Workload::DurableMixed => "durable_mixed",
        }
    }

    /// Whether machid runs with a durable root for this workload.
    pub fn durable(self) -> bool {
        self == Workload::DurableMixed
    }
}

/// What a request does, for the per-class latency metrics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// An `EVAL` with no declaration and no `:=`.
    Read,
    /// An `EVAL` that declares a name or assigns a ref.
    Write,
    Open,
    Close,
    /// The setup program of a session reopened after its budget.
    Load,
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    pub class: Class,
    pub src: String,
}

impl Request {
    fn read(src: String) -> Request {
        Request {
            class: Class::Read,
            src,
        }
    }

    fn write(src: String) -> Request {
        Request {
            class: Class::Write,
            src,
        }
    }
}

/// One step of a connection's schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// The next request of this connection-local slot.
    Slot(usize),
    /// A churn session: `OPEN`, the churn script, `CLOSE`.
    Churn,
}

/// A fully generated workload.
pub struct Spec {
    pub workload: Workload,
    pub seed: u64,
    pub slots_per_conn: usize,
    /// Requests a slot's session sends before it is closed and reopened.
    pub session_budget: usize,
    /// Every block of this many schedule steps holds exactly one churn
    /// session, at a seeded position.
    pub churn_every: u64,
    /// Request lines every long-lived session runs after `OPEN`.
    pub setup: Vec<String>,
    /// Indexed by `conn * slots_per_conn + slot`.
    pub personas: Vec<Vec<Request>>,
    pub churn: Vec<Request>,
}

impl Spec {
    pub fn generate(workload: Workload, seed: u64) -> Spec {
        let mut rng = Rng::new(seed ^ workload_salt(workload));
        let (slots_per_conn, session_budget) = match workload {
            Workload::HotRead => (2, 4000),
            Workload::ScanJoin => (1, 2000),
            Workload::DurableMixed => (2, 3000),
        };
        let setup = match workload {
            Workload::HotRead => vec![format!(
                "val r = {}; val probe = {}; val hits = ref(0);",
                keyed_rows(&mut rng),
                probe_set(&mut rng)
            )],
            Workload::DurableMixed => vec![format!(
                "val r = ref({}); val probe = {}; val hits = ref(0);",
                keyed_rows(&mut rng),
                probe_set(&mut rng)
            )],
            Workload::ScanJoin => scan_join_setup(&mut rng),
        };
        let personas = (0..CONNECTIONS * slots_per_conn)
            .map(|_| {
                let mut persona_rng = Rng::new(rng.next_u64());
                // Each block of 100 requests holds exactly the target
                // mix, in shuffled order, so the mix a run sends does
                // not depend on the seed.
                let mut deck: Vec<u64> = (0..100).collect();
                (0..session_budget)
                    .map(|i| {
                        if i % 100 == 0 {
                            persona_rng.shuffle(&mut deck);
                        }
                        persona_request(workload, &mut persona_rng, i, deck[i % 100])
                    })
                    .collect()
            })
            .collect();
        let churn = match workload {
            Workload::DurableMixed => vec![
                Request::write(format!("val c = {};", rng.below(1000))),
                Request::read("c * 2;".to_string()),
            ],
            _ => vec![Request::read(format!(
                "card({{{}, {}, {}}});",
                rng.below(10),
                10 + rng.below(10),
                20 + rng.below(10)
            ))],
        };
        Spec {
            workload,
            seed,
            slots_per_conn,
            session_budget,
            churn_every: 40,
            setup,
            personas,
            churn,
        }
    }

    pub fn slot_count(&self) -> usize {
        self.personas.len()
    }

    /// The schedule of connection `conn`: an endless, seeded sequence
    /// of steps over the slots `0..slots_per_conn`.
    pub fn schedule(&self, conn: usize) -> Schedule {
        Schedule {
            rng: Rng::new(self.seed ^ workload_salt(self.workload) ^ (conn as u64 + 1) << 40),
            slots: self.slots_per_conn,
            next: 0,
            step: 0,
            churn_every: self.churn_every,
            churn_at: 0,
        }
    }

    /// Everything generated, as one canonical text: settings, setup,
    /// personas, churn script and the first steps of every schedule.
    pub fn canonical(&self) -> String {
        let mut out = format!(
            "workload {}\nseed {}\nslots {}\nbudget {}\nchurn every {}\n",
            self.workload.name(),
            self.seed,
            self.slots_per_conn,
            self.session_budget,
            self.churn_every
        );
        for line in &self.setup {
            let _ = writeln!(out, "setup {line}");
        }
        for (i, persona) in self.personas.iter().enumerate() {
            for r in persona {
                let _ = writeln!(out, "slot {i} {:?} {}", r.class, r.src);
            }
        }
        for r in &self.churn {
            let _ = writeln!(out, "churn {:?} {}", r.class, r.src);
        }
        for conn in 0..CONNECTIONS {
            let _ = write!(out, "schedule {conn}");
            for step in self.schedule(conn).take(HASHED_STEPS) {
                match step {
                    Step::Slot(j) => {
                        let _ = write!(out, " {j}");
                    }
                    Step::Churn => out.push_str(" c"),
                }
            }
            out.push('\n');
        }
        out
    }

    /// FNV-1a of [`Spec::canonical`]: recorded with every result.
    pub fn stream_hash(&self) -> u64 {
        fnv1a(self.canonical().as_bytes())
    }

    /// For the durability check: one program reading back every ref and
    /// every binding a slot's session has written after `sent` requests
    /// of its current life. `None` for in-memory workloads.
    pub fn readback(&self, slot: usize, sent: usize) -> Option<String> {
        if !self.workload.durable() {
            return None;
        }
        let mut src = String::from("!r; !hits;");
        for (i, req) in self.personas[slot][..sent].iter().enumerate() {
            if req.src.starts_with(&format!("val n{i} ")) {
                let _ = write!(src, " n{i};");
            }
        }
        Some(src)
    }
}

/// See [`Spec::schedule`].
pub struct Schedule {
    rng: Rng,
    slots: usize,
    next: usize,
    step: u64,
    churn_every: u64,
    churn_at: u64,
}

impl Iterator for Schedule {
    type Item = Step;

    fn next(&mut self) -> Option<Step> {
        let pos = self.step % self.churn_every;
        if pos == 0 {
            self.churn_at = self.rng.below(self.churn_every);
        }
        self.step += 1;
        if pos == self.churn_at {
            return Some(Step::Churn);
        }
        let slot = self.next;
        self.next = (self.next + 1) % self.slots;
        Some(Step::Slot(slot))
    }
}

fn workload_salt(w: Workload) -> u64 {
    match w {
        Workload::HotRead => 0x686f_745f_7265_6164,
        Workload::ScanJoin => 0x7363_616e_6a6f_696e,
        Workload::DurableMixed => 0x6475_7261_626c_6521,
    }
}

/// The 128-row `{[K, A]}` relation of `hot_read` and `durable_mixed`.
fn keyed_rows(rng: &mut Rng) -> String {
    let rows: Vec<String> = (0..128)
        .map(|k| format!("[K = {k}, A = {}]", rng.below(10_000)))
        .collect();
    format!("{{{}}}", rows.join(", "))
}

/// Three distinct keys of the 128-row relation.
fn probe_set(rng: &mut Rng) -> String {
    let mut keys: Vec<u64> = Vec::new();
    while keys.len() < 3 {
        let k = rng.below(128);
        if !keys.contains(&k) {
            keys.push(k);
        }
    }
    let rows: Vec<String> = keys.iter().map(|k| format!("[K = {k}]")).collect();
    format!("{{{}}}", rows.join(", "))
}

const FIG9_PROBE: &str = "select x.A where y <- probe, x <- r with x.K = y.K;";
const FIG9_PROBE_REF: &str = "select x.A where y <- probe, x <- !r with x.K = y.K;";

/// Request `i` of a persona; `roll` (0..100) picks its kind. Keys of
/// point selects range past the relation, so some answers are empty.
fn persona_request(workload: Workload, rng: &mut Rng, i: usize, roll: u64) -> Request {
    match workload {
        Workload::HotRead => {
            if roll < 10 {
                counter_or_val(rng, i, 60)
            } else if roll < 68 {
                Request::read(FIG9_PROBE.to_string())
            } else {
                Request::read(format!(
                    "select x.A where x <- r with x.K = {};",
                    rng.below(160)
                ))
            }
        }
        Workload::DurableMixed => {
            if roll < 14 {
                if rng.below(100) < 50 {
                    let k = rng.below(128);
                    Request::write(format!(
                        "r := union(select x where x <- !r with not(x.K = {k}), {{[K = {k}, A = {}]}});",
                        rng.below(10_000)
                    ))
                } else {
                    counter_or_val(rng, i, 60)
                }
            } else if roll < 62 {
                Request::read(FIG9_PROBE_REF.to_string())
            } else {
                Request::read(format!(
                    "select x.A where x <- !r with x.K = {};",
                    rng.below(160)
                ))
            }
        }
        Workload::ScanJoin => {
            if roll < 10 {
                return counter_or_val(rng, i, 60);
            }
            let c = rng.below(16);
            let src = match roll {
                10..=33 => format!(
                    "card(select x.K where x <- items with x.C = {c} andalso x.A > {});",
                    rng.below(900)
                ),
                34..=45 => format!(
                    "card(select (x.A, y.O) where x <- items, y <- orders with x.K = y.P andalso y.Q < {});",
                    2 + rng.below(10)
                ),
                46..=51 => format!(
                    "card(select (x.K, z.S) where y <- orders, x <- items, z <- sup \
                     with y.Q = {} andalso x.K = y.P andalso x.G = z.G andalso z.W < 50);",
                    rng.below(100)
                ),
                52..=63 => format!(
                    "card(select (x.K, y.O) where x <- (select p where p <- items with p.C = {c}), \
                     y <- orders with x.K = y.P);"
                ),
                64..=77 => format!(
                    "hom((fn(x) => x.A), +, 0, select x where x <- items with x.G = {});",
                    rng.below(64)
                ),
                78..=85 => format!(
                    "hom((fn(p) => cost(p)), +, 0, select p where p <- parts with p.P# = {});",
                    1000 + rng.below(64)
                ),
                _ => format!(
                    "select [K = x.K, A = x.A] where x <- items with x.C = {c} andalso x.A < {};",
                    100 + rng.below(60)
                ),
            };
            Request::read(src)
        }
    }
}

/// A write that leaves every relation alone: bump the `hits` counter
/// (`counter_percent` of the time) or declare a fresh name.
fn counter_or_val(rng: &mut Rng, i: usize, counter_percent: u64) -> Request {
    if rng.below(100) < counter_percent {
        Request::write("hits := !hits + 1;".to_string())
    } else {
        Request::write(format!("val n{i} = {};", rng.below(1000)))
    }
}

/// `scan_join`'s setup: relations of 32768, 8192 and 8192 rows
/// built from seeded digit sets and multipliers, the Figure 5 part
/// hierarchy (512 base parts, 64 composites nested up to six deep), the
/// paper's `cost` function over it, and one warm-up run of each query
/// shape, which builds the cacheable indexes before measurement.
fn scan_join_setup(rng: &mut Rng) -> Vec<String> {
    // Large multipliers prime to 2 and 5 wrap every `mod` many times,
    // so each attribute is close to uniform whatever the seed, and so
    // are selectivities and result sizes.
    let mut m = [0u64; 22];
    for x in m.iter_mut() {
        *x = 1001 + 2 * rng.below(49_000);
        if *x % 5 == 0 {
            *x += 2;
        }
    }
    let digits = |rng: &mut Rng, n: u64| {
        let mut d: Vec<u64> = (0..n).collect();
        rng.shuffle(&mut d);
        let d: Vec<String> = d.iter().map(u64::to_string).collect();
        format!("{{{}}}", d.join(", "))
    };
    let d32 = digits(rng, 32);
    let d16 = digits(rng, 16);
    let (s0, s1) = (rng.below(1000), rng.below(32768));
    vec![
        format!("val d32 = {d32}; val d16 = {d16}; val d4 = {{0, 1, 2, 3}}; val hits = ref(0);"),
        format!(
            "val items = select [K = a * 1024 + b * 32 + c, A = (a * {} + b * {} + c * {} + {s0}) mod 1000, \
             C = (a * {} + b * {} + c) mod 16, G = (a + b * {} + c * {}) mod 64] \
             where a <- d32, b <- d32, c <- d32 with true;",
            m[0], m[1], m[2], m[3], m[4], m[5], m[6]
        ),
        format!(
            "val orders = select [O = a * 256 + b * 16 + c, P = (a * {} + b * {} + c * {} + {s1}) mod 32768, \
             Q = (a * {} + b + c * {}) mod 100] where a <- d32, b <- d16, c <- d16 with true;",
            m[7], m[8], m[9], m[10], m[11]
        ),
        format!(
            "val sup = select [S = a * 256 + b * 16 + c, G = (a * {} + b + c * {}) mod 64, \
             W = (a + b * {} + c * {}) mod 1000] where a <- d32, b <- d16, c <- d16 with true;",
            m[12], m[13], m[14], m[15]
        ),
        format!(
            "val parts = union(select [Pname = \"base\", P# = a * 16 + b, \
             Pinfo = (BasePart of [Cost = (a * {} + b * {}) mod 40 + 1])] where a <- d32, b <- d16 with true, \
             select [Pname = \"comp\", P# = 1000 + a * 4 + b, Pinfo = (CompositePart of [\
             AssemCost = (a * {} + b) mod 20 + 1, \
             SubParts = union(select [P# = (a * {} + b * {} + j * {}) mod 512, Qty = j + 1] where j <- d4 with true, \
             if a * 4 + b < 2 then {{}} else {{[P# = 1000 + (a * 4 + b) div 2, Qty = 2]}})])] \
             where a <- d16, b <- d4 with true);",
            m[16], m[17], m[18], m[19], m[20], m[21]
        ),
        // Figure 5 of the paper, on one line.
        "fun cost(p) = (case p.Pinfo of BasePart of x => x.Cost, CompositePart of x => \
         x.AssemCost + hom((fn(y) => y.SubpartCost * y.Qty), +, 0, \
         select [SubpartCost = cost(z), Qty = w.Qty] where w <- x.SubParts, z <- parts with z.P# = w.P#));"
            .to_string(),
        [
            "card(select x.K where x <- items with x.C = 0 andalso x.A > 500)",
            "card(select (x.A, y.O) where x <- items, y <- orders with x.K = y.P andalso y.Q < 5)",
            "card(select (x.K, z.S) where y <- orders, x <- items, z <- sup \
             with y.Q = 0 andalso x.K = y.P andalso x.G = z.G andalso z.W < 50)",
            "card(select (x.K, y.O) where x <- (select p where p <- items with p.C = 0), \
             y <- orders with x.K = y.P)",
            "hom((fn(x) => x.A), +, 0, select x where x <- items with x.G = 0)",
            "hom((fn(p) => cost(p)), +, 0, select p where p <- parts with p.P# = 1063)",
            "card(select [K = x.K, A = x.A] where x <- items with x.C = 0 andalso x.A < 100)",
        ]
        .join("; ")
            + ";",
    ]
}

/// FNV-1a, 64-bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// SplitMix64: small, seedable, and the same on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0; the modulo bias is negligible here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machiavelli::Session;

    #[test]
    fn same_seed_gives_a_byte_identical_stream() {
        for w in Workload::ALL {
            for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
                let a = Spec::generate(w, seed).canonical();
                let b = Spec::generate(w, seed).canonical();
                assert_eq!(a.as_bytes(), b.as_bytes(), "{} seed {seed}", w.name());
            }
        }
    }

    #[test]
    fn different_seeds_give_different_streams() {
        for w in Workload::ALL {
            let a = Spec::generate(w, DEFAULT_SEED);
            let b = Spec::generate(w, HELD_OUT_SEED);
            assert_ne!(a.canonical(), b.canonical(), "{}", w.name());
            assert_ne!(a.stream_hash(), b.stream_hash(), "{}", w.name());
            // Not only the schedule: the requests themselves differ.
            assert_ne!(a.setup, b.setup, "{}", w.name());
            assert_ne!(a.personas, b.personas, "{}", w.name());
        }
    }

    #[test]
    fn personas_have_the_fixed_budget_and_every_class() {
        for w in Workload::ALL {
            let spec = Spec::generate(w, DEFAULT_SEED);
            for persona in &spec.personas {
                assert_eq!(persona.len(), spec.session_budget);
                for class in [Class::Read, Class::Write] {
                    assert!(persona.iter().any(|r| r.class == class), "{}", w.name());
                }
            }
            let steps: Vec<Step> = spec.schedule(0).take(2000).collect();
            assert!(steps.contains(&Step::Churn));
            for j in 0..spec.slots_per_conn {
                assert!(steps.contains(&Step::Slot(j)));
            }
        }
    }

    /// No generated request may fail: every workload's setup, the first
    /// requests of each persona, the churn script and the read-back all
    /// evaluate in a plain session.
    #[test]
    fn generated_requests_evaluate_without_error() {
        for w in Workload::ALL {
            let spec = Spec::generate(w, DEFAULT_SEED);
            let mut s = Session::new();
            for line in &spec.setup {
                s.run(line)
                    .unwrap_or_else(|e| panic!("{} setup: {e}\n{line}", w.name()));
            }
            let n = if w == Workload::ScanJoin { 60 } else { 400 };
            for req in &spec.personas[0][..n] {
                s.run(&req.src)
                    .unwrap_or_else(|e| panic!("{}: {e}\n{}", w.name(), req.src));
            }
            if let Some(src) = spec.readback(0, n) {
                s.run(&src)
                    .unwrap_or_else(|e| panic!("{} read-back: {e}\n{src}", w.name()));
            }
            let mut churn = Session::new();
            for req in &spec.churn {
                churn
                    .run(&req.src)
                    .unwrap_or_else(|e| panic!("{} churn: {e}", w.name()));
            }
        }
    }
}
