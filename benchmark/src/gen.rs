//! The seeded request generator and its oracle.  The product only ever
//! sees the generated requests; every expected answer is worked out here,
//! at generation time, from the generator's own model of the database.
//!
//! One schema serves all four workloads:
//!
//! * `R0(a0,b0)`, `a0 -> b0`, ordered index on `b0` — written by the write
//!   mix, and preloaded with `groups` × 100 rows `(p<n>, g<n/100>)` that
//!   point and group queries read back;
//! * `R1(a1,b1)`, `a1 -> b1` — the write mix's second relation;
//! * `D1(b0,c)` 1000 rows and `D2(c,d)` 50 rows — the planned join's inputs.
//!
//! Expectations assume requests execute in generation order.  That holds
//! for one connection (the server runs a connection's jobs in order) and
//! for one thread per relation (the embedded workload).

/// splitmix64: the whole benchmark's only source of randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` ≥ 1; the modulo bias at these sizes is < 2⁻⁴⁰).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

pub const GROUP_ROWS: u64 = 100;
pub const D1_ROWS: u64 = 1000;
pub const D2_ROWS: u64 = 50;
/// Distinct `b` values the write mix draws from.
pub const RECURRING_VALUES: u64 = 97;
pub const RELATION_NAMES: [&str; 4] = ["R0", "R1", "D1", "D2"];

/// What an insert must answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    Accepted,
    Duplicate,
    Rejected,
}

/// One generated request with its expected answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Insert `(k<rel>x<key>, v<val>)` into `R<rel>`.
    Insert {
        rel: usize,
        key: u64,
        val: u64,
        expect: Outcome,
    },
    /// Remove a row that is live, so the answer must be `true`.
    Remove { rel: usize, key: u64, val: u64 },
    /// `R0` where `a0 = p<key>`: exactly the preloaded row.
    Point { key: u64 },
    /// `R0` where `b0 = g<group>`: exactly `GROUP_ROWS` rows.
    Group { group: u64 },
    /// Row count of `R0`.
    Count { expect: u64 },
    /// `D1 ⋈ D2`: exactly `D1_ROWS` rows of three columns.
    Join,
}

/// The kind an op's latency sample is filed under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A fresh-key insert: accepted, stores a row (and, durable, a name).
    Insert,
    /// An insert of a live key — `Duplicate` or `Rejected`: stores nothing.
    Refused,
    Remove,
    Point,
    Group,
    Count,
    Join,
}

pub const KINDS: [Kind; 7] = [
    Kind::Insert,
    Kind::Refused,
    Kind::Remove,
    Kind::Point,
    Kind::Group,
    Kind::Count,
    Kind::Join,
];

impl Kind {
    pub fn index(self) -> usize {
        self as usize
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Insert => "insert",
            Kind::Refused => "refused",
            Kind::Remove => "remove",
            Kind::Point => "point",
            Kind::Group => "group",
            Kind::Count => "count",
            Kind::Join => "join",
        }
    }
}

/// The answer a boundary gave, reduced to what the oracle checks.
#[derive(Clone, Debug)]
pub enum Answer {
    Inserted(Outcome),
    Removed(bool),
    Rows(Vec<Vec<String>>),
    /// Rows from a layer below the name pool, as value codes.
    Codes(Vec<Vec<u64>>),
    Count(u64),
    /// The server shed the request (`Overloaded`).
    Shed,
    /// Any error, rendered.
    Failed(String),
}

pub fn mix_key(rel: usize, key: u64) -> String {
    format!("k{rel}x{key}")
}

pub fn mix_val(val: u64) -> String {
    format!("v{val}")
}

pub fn preload_key(key: u64) -> String {
    format!("p{key}")
}

pub fn group_name(group: u64) -> String {
    format!("g{group}")
}

/// Value codes: what the layers below the name pool store in place of
/// the strings above, one distinct `u64` per distinct string.
pub fn mix_key_code(rel: usize, key: u64) -> u64 {
    (1 << 60) | ((rel as u64) << 56) | key
}

pub fn mix_val_code(val: u64) -> u64 {
    (2 << 60) | val
}

pub fn preload_key_code(key: u64) -> u64 {
    (3 << 60) | key
}

pub fn group_code(group: u64) -> u64 {
    (4 << 60) | group
}

fn d1_row(i: u64) -> [String; 2] {
    [group_name(i), format!("c{}", i % D2_ROWS)]
}

fn d2_row(i: u64) -> [String; 2] {
    [format!("c{i}"), format!("d{i}")]
}

impl Op {
    pub fn kind(&self) -> Kind {
        match self {
            Op::Insert {
                expect: Outcome::Accepted,
                ..
            } => Kind::Insert,
            Op::Insert { .. } => Kind::Refused,
            Op::Remove { .. } => Kind::Remove,
            Op::Point { .. } => Kind::Point,
            Op::Group { .. } => Kind::Group,
            Op::Count { .. } => Kind::Count,
            Op::Join => Kind::Join,
        }
    }

    /// True for the ops the layers below `api` can replay (they have no
    /// planner and no counts by name).
    pub fn is_write(&self) -> bool {
        matches!(self, Op::Insert { .. } | Op::Remove { .. })
    }

    /// Bytes of user strings this op stores when it is accepted.
    pub fn user_bytes(&self) -> u64 {
        match self {
            Op::Insert {
                rel,
                key,
                val,
                expect: Outcome::Accepted,
            } => (mix_key(*rel, *key).len() + mix_val(*val).len()) as u64,
            _ => 0,
        }
    }

    /// Does `answer` agree with the oracle?
    pub fn accepts(&self, answer: &Answer) -> bool {
        match (self, answer) {
            (Op::Insert { expect, .. }, Answer::Inserted(got)) => expect == got,
            (Op::Remove { .. }, Answer::Removed(present)) => *present,
            (Op::Point { key }, Answer::Rows(rows)) => {
                rows.len() == 1
                    && rows[0].len() == 2
                    && rows[0][0] == preload_key(*key)
                    && rows[0][1] == group_name(key / GROUP_ROWS)
            }
            (Op::Group { group }, Answer::Rows(rows)) => {
                let name = group_name(*group);
                rows.len() as u64 == GROUP_ROWS && rows.iter().all(|r| r.len() == 2 && r[1] == name)
            }
            (Op::Point { key }, Answer::Codes(rows)) => {
                *rows == [vec![preload_key_code(*key), group_code(key / GROUP_ROWS)]]
            }
            (Op::Group { group }, Answer::Codes(rows)) => {
                let code = group_code(*group);
                rows.len() as u64 == GROUP_ROWS && rows.iter().all(|r| r.len() == 2 && r[1] == code)
            }
            (Op::Count { expect }, Answer::Count(got)) => expect == got,
            (Op::Join, Answer::Rows(rows)) => {
                rows.len() as u64 == D1_ROWS && rows.iter().all(|r| r.len() == 3)
            }
            _ => false,
        }
    }
}

/// The rows every workload loads before traffic starts, per relation.
pub struct Preload {
    pub groups: u64,
}

impl Preload {
    pub fn rows(&self, relation: usize) -> Box<dyn Iterator<Item = [String; 2]>> {
        match relation {
            0 => Box::new(
                (0..self.groups * GROUP_ROWS).map(|i| [preload_key(i), group_name(i / GROUP_ROWS)]),
            ),
            1 => Box::new(std::iter::empty()),
            2 => Box::new((0..D1_ROWS).map(d1_row)),
            _ => Box::new((0..D2_ROWS).map(d2_row)),
        }
    }

    pub fn row_counts(&self) -> [u64; 4] {
        [self.groups * GROUP_ROWS, 0, D1_ROWS, D2_ROWS]
    }

    pub fn total_rows(&self) -> u64 {
        self.row_counts().iter().sum()
    }
}

/// What the generator believes the shards counted — compared with the
/// product's own `accepted/duplicate/rejected/removed` counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tallies {
    pub accepted: u64,
    pub duplicate: u64,
    pub rejected: u64,
    pub removed: u64,
}

impl Tallies {
    pub fn add(&mut self, other: Tallies) {
        self.accepted += other.accepted;
        self.duplicate += other.duplicate;
        self.rejected += other.rejected;
        self.removed += other.removed;
    }
}

/// Ops in one window-1 cycle: 40 inserts, 40 point queries, 8 group
/// queries and 1 join.
const CYCLE_LEN: u64 = 89;

pub struct Generator {
    rng: Rng,
    groups: u64,
    /// Live mix rows per write relation, as `(key, val)`.
    live: [Vec<(u64, u64)>; 2],
    next_key: [u64; 2],
    turn: u64,
    pub tallies: Tallies,
}

impl Generator {
    /// `key_space` keeps the fresh keys of generators that share one
    /// database apart (each gets its own 2³² block).
    pub fn new(seed: u64, preload: &Preload, key_space: u64) -> Self {
        Generator {
            rng: Rng::new(seed),
            groups: preload.groups,
            live: [Vec::new(), Vec::new()],
            next_key: [key_space << 32; 2],
            turn: 0,
            tallies: Tallies::default(),
        }
    }

    /// Rows this generator's own inserts left live in `R0` and `R1`.
    pub fn live_rows(&self) -> [u64; 2] {
        [self.live[0].len() as u64, self.live[1].len() as u64]
    }

    /// One op of the write mix on `R<rel>`: 80 % fresh-key insert, 5 %
    /// re-insert of a live row, 5 % live key with another value, 10 %
    /// remove of a live row.
    pub fn write_on(&mut self, rel: usize) -> Op {
        let roll = self.rng.below(100);
        if roll < 80 || self.live[rel].is_empty() {
            let key = self.next_key[rel];
            self.next_key[rel] += 1;
            let val = self.rng.below(RECURRING_VALUES);
            self.live[rel].push((key, val));
            self.tallies.accepted += 1;
            return Op::Insert {
                rel,
                key,
                val,
                expect: Outcome::Accepted,
            };
        }
        let at = self.rng.below(self.live[rel].len() as u64) as usize;
        let (key, val) = self.live[rel][at];
        if roll < 85 {
            self.tallies.duplicate += 1;
            Op::Insert {
                rel,
                key,
                val,
                expect: Outcome::Duplicate,
            }
        } else if roll < 90 {
            self.tallies.rejected += 1;
            Op::Insert {
                rel,
                key,
                val: (val + 1) % RECURRING_VALUES,
                expect: Outcome::Rejected,
            }
        } else {
            self.live[rel].swap_remove(at);
            self.tallies.removed += 1;
            Op::Remove { rel, key, val }
        }
    }

    /// The write mix, alternating `R0` and `R1`.
    pub fn write_mix(&mut self) -> Op {
        self.turn += 1;
        self.write_on((self.turn % 2) as usize)
    }

    fn point(&mut self) -> Op {
        Op::Point {
            key: self.rng.below(self.groups * GROUP_ROWS),
        }
    }

    fn group(&mut self) -> Op {
        Op::Group {
            group: self.rng.below(self.groups),
        }
    }

    /// The read mix: 70 % point, 10 % group, 5 % count, 1 % join, 14 %
    /// write mix on `R0` (so index upkeep sits beside the reads it serves).
    pub fn read_mix(&mut self) -> Op {
        match self.rng.below(100) {
            0..=69 => self.point(),
            70..=79 => self.group(),
            80..=84 => Op::Count {
                expect: self.groups * GROUP_ROWS + self.live[0].len() as u64,
            },
            85 => Op::Join,
            _ => self.write_on(0),
        }
    }

    /// The window-1 cycle every workload runs: 40 fresh-key inserts, then
    /// 40 point queries, 8 group queries and the join.  Kinds run in
    /// blocks so that on a durable store only the first read of a cycle
    /// follows an fsync (the vCPU halts while the device works, and the
    /// request after a halt pays for waking it).
    pub fn cycle(&mut self) -> Op {
        self.turn += 1;
        match self.turn % CYCLE_LEN {
            0 => Op::Join,
            1..=40 => {
                let rel = (self.turn % 2) as usize;
                let key = self.next_key[rel];
                self.next_key[rel] += 1;
                let val = self.rng.below(RECURRING_VALUES);
                self.live[rel].push((key, val));
                self.tallies.accepted += 1;
                Op::Insert {
                    rel,
                    key,
                    val,
                    expect: Outcome::Accepted,
                }
            }
            41..=80 => self.point(),
            _ => self.group(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let preload = Preload { groups: 3 };
        let mut a = Generator::new(7, &preload, 0);
        let mut b = Generator::new(7, &preload, 0);
        for _ in 0..10_000 {
            assert_eq!(a.read_mix(), b.read_mix());
            assert_eq!(a.write_mix(), b.write_mix());
            assert_eq!(a.cycle(), b.cycle());
        }
        assert_eq!(a.tallies, b.tallies);
    }

    #[test]
    fn cycle_holds_its_ratio() {
        let mut g = Generator::new(1, &Preload { groups: 2 }, 0);
        let mut counts = [0u64; KINDS.len()];
        for _ in 0..CYCLE_LEN * 10 {
            counts[g.cycle().kind().index()] += 1;
        }
        assert_eq!(counts[Kind::Join.index()], 10);
        assert_eq!(counts[Kind::Group.index()], 80);
        assert_eq!(counts[Kind::Point.index()], 400);
        assert_eq!(counts[Kind::Insert.index()], 400);
    }
}
