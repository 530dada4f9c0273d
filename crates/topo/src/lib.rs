//! The topology plane: who exchanges gradients with whom, per round.
//!
//! DLion's prototype assumes a full mesh; this crate generalizes the
//! communication graph into a [`TopologySchedule`] — a per-round neighbor
//! oracle both backends (the discrete-event simulator and the live TCP
//! driver) consume. A schedule is a *pure function* of
//! `(spec, n, seed, round, worker)`, so every worker of a cluster — in
//! one process or across hosts — derives bit-identical neighbor sets
//! without any coordination traffic.
//!
//! Specs ([`Topology`]) cover:
//!
//! * `full` — everyone talks to everyone (the paper's setting);
//! * `ring` — `w ± 1 (mod n)`;
//! * `star:H` — hub-and-spoke around worker `H`;
//! * `kregular:K` — a seeded circulant gossip graph of degree exactly
//!   `K` whose offsets are re-drawn every round (AD-PSGD-style rotating
//!   gossip; connectivity is forced per round via a gcd repair);
//! * `groups:G` — `G` gossip groups whose *membership* reshuffles every
//!   round, in the style of Hivemind's Moshpit averaging: each round is
//!   group-wise all-reduce, mixing happens across rounds;
//! * `hier:G` — hierarchical micro-cloud-of-micro-clouds: `G` fixed
//!   groups, a per-group aggregator rank that rotates each round;
//!   members talk to their aggregator, aggregators to each other.
//!
//! Every schedule is **symmetric within a round** (`j ∈ nbrs(i, r)` ⇔
//! `i ∈ nbrs(j, r)`) — the property BSP gating relies on: the peers a
//! worker waits on for round `r` are exactly the peers that sent to it
//! in round `r`.
//!
//! Construction is validated ([`Topology::validate`] / [`Topology::build`]
//! return a typed [`TopoError`]); the neighbor accessors themselves are
//! total and never panic, so a bad `--topology` flag surfaces as a usage
//! error at the CLI instead of an assert deep in the runner.

use dlion_tensor::DetRng;
use std::sync::Arc;

/// Stream-id salt for per-round topology RNG draws. The schedule derives
/// its randomness from `seed ^ TOPO_SALT ^ mix(round)`, a stream disjoint
/// from every RNG the training path consumes (model init, shard shuffle,
/// batch sampling all derive from the *root* RNG in draw order) — adding
/// or consulting the topology plane can never perturb training draws.
const TOPO_SALT: u64 = 0x544F_504F_4752_4150; // "TOPOGRAP"

fn round_rng(seed: u64, round: u64) -> DetRng {
    DetRng::seed_from_u64(seed ^ TOPO_SALT ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// A rejected topology spec: wrong shape for the cluster size, or a
/// parameter out of range. Carries a human-readable reason the CLI layer
/// turns into a usage error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TopoError {
    pub reason: String,
}

impl TopoError {
    fn new(reason: impl Into<String>) -> TopoError {
        TopoError {
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for TopoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.reason)
    }
}

impl std::error::Error for TopoError {}

/// Which peers each worker talks to — the parsed `--topology` spec.
///
/// ```
/// use dlion_topo::Topology;
///
/// let ring = Topology::Ring.build(6, 0).unwrap();
/// assert_eq!(ring.neighbors(0, 0), vec![1, 5]);
/// assert_eq!(Topology::FullMesh.build(6, 0).unwrap().link_count(0), 30);
/// assert_eq!(Topology::parse("kregular:2"), Ok(Topology::KRegular { k: 2 }));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// Everyone talks to everyone (the paper's setting).
    FullMesh,
    /// Worker `w` talks to `w±1 (mod n)`.
    Ring,
    /// Every worker talks only to the hub; the hub talks to everyone.
    /// (Approximates a parameter-server layout inside the decentralized
    /// framework.)
    Star { hub: usize },
    /// Seeded degree-`k` circulant gossip graph, offsets re-drawn each
    /// round.
    KRegular { k: usize },
    /// `g` gossip groups with Moshpit-style membership reshuffling each
    /// round; exchange is group-wise all-to-all.
    Groups { g: usize },
    /// `g` fixed micro-cloud groups, rotating per-group aggregator;
    /// members ↔ aggregator, aggregator ↔ aggregator.
    Hier { g: usize },
}

impl Topology {
    /// Parse a `--topology` value: `full|ring|star:H|kregular:K|groups:G|hier:G`.
    pub fn parse(s: &str) -> Result<Topology, String> {
        let bad_num = |what: &str, v: &str| format!("bad {what} '{v}' (want a number)");
        match s {
            "full" | "full-mesh" | "mesh" => return Ok(Topology::FullMesh),
            "ring" => return Ok(Topology::Ring),
            "star" => return Ok(Topology::Star { hub: 0 }),
            _ => {}
        }
        if let Some(v) = s.strip_prefix("star:") {
            let hub = v.parse().map_err(|_| bad_num("star hub", v))?;
            return Ok(Topology::Star { hub });
        }
        if let Some(v) = s.strip_prefix("kregular:") {
            let k = v.parse().map_err(|_| bad_num("kregular degree", v))?;
            return Ok(Topology::KRegular { k });
        }
        if let Some(v) = s.strip_prefix("groups:") {
            let g = v.parse().map_err(|_| bad_num("group count", v))?;
            return Ok(Topology::Groups { g });
        }
        if let Some(v) = s.strip_prefix("hier:") {
            let g = v.parse().map_err(|_| bad_num("group count", v))?;
            return Ok(Topology::Hier { g });
        }
        Err(format!(
            "unknown topology '{s}' (want full|ring|star:H|kregular:K|groups:G|hier:G)"
        ))
    }

    /// Display name (used in trace events and figure tables).
    pub fn name(&self) -> String {
        match self {
            Topology::FullMesh => "full-mesh".into(),
            Topology::Ring => "ring".into(),
            Topology::Star { hub } => format!("star(hub={hub})"),
            Topology::KRegular { k } => format!("kregular(k={k})"),
            Topology::Groups { g } => format!("groups(g={g})"),
            Topology::Hier { g } => format!("hier(g={g})"),
        }
    }

    /// Construction-time validation against a concrete cluster size: the
    /// typed replacement for the old assert-in-`neighbors` paths. `seed`
    /// participates because rotating-group connectivity is seed-dependent.
    pub fn validate(&self, n: usize, seed: u64) -> Result<(), TopoError> {
        if n < 2 {
            return Err(TopoError::new(format!(
                "topology needs at least 2 workers (got {n})"
            )));
        }
        match *self {
            Topology::FullMesh | Topology::Ring => Ok(()),
            Topology::Star { hub } => {
                if hub >= n {
                    return Err(TopoError::new(format!(
                        "star hub {hub} out of range for {n} workers"
                    )));
                }
                Ok(())
            }
            Topology::KRegular { k } => {
                if k == 0 || k >= n {
                    return Err(TopoError::new(format!(
                        "kregular degree {k} out of range for {n} workers (want 1..={})",
                        n - 1
                    )));
                }
                if k % 2 == 1 && n % 2 == 1 {
                    return Err(TopoError::new(format!(
                        "kregular odd degree {k} needs an even worker count (got {n})"
                    )));
                }
                if k / 2 > (n - 1) / 2 {
                    return Err(TopoError::new(format!(
                        "kregular degree {k} too high for {n} workers"
                    )));
                }
                Ok(())
            }
            Topology::Groups { g } => {
                if g == 0 || g > n / 2 {
                    return Err(TopoError::new(format!(
                        "group count {g} out of range for {n} workers (want 1..={}, \
                         so every group has at least 2 members)",
                        n / 2
                    )));
                }
                // Rotating membership must mix the groups into one
                // connected component within the union window; this is
                // seed-dependent, so check the actual schedule.
                let sched = GroupSchedule {
                    n,
                    g,
                    seed,
                    memo: std::sync::Mutex::new(std::collections::HashMap::new()),
                };
                if !sched.is_connected_over(&vec![true; n], 0) {
                    return Err(TopoError::new(format!(
                        "groups:{g} does not mix into a connected cluster \
                         for n={n} seed={seed} (try another seed)"
                    )));
                }
                Ok(())
            }
            Topology::Hier { g } => {
                if g == 0 || g > n {
                    return Err(TopoError::new(format!(
                        "group count {g} out of range for {n} workers (want 1..={n})"
                    )));
                }
                Ok(())
            }
        }
    }

    /// Does the neighbor set vary by round?
    pub fn rotates(&self, n: usize) -> bool {
        match *self {
            Topology::FullMesh | Topology::Ring | Topology::Star { .. } => false,
            // Rotation is real only when more than one offset set exists.
            Topology::KRegular { k } => k / 2 < (n - 1) / 2,
            Topology::Groups { g } => g > 1,
            // Aggregators rotate only inside groups with >1 member.
            Topology::Hier { g } => g < n,
        }
    }

    /// How many consecutive rounds it takes for the union graph to be
    /// meaningfully mixed — the window connectivity checks look across.
    /// Per-round-connected topologies use 1; rotating groups (whose
    /// single-round graph is disconnected *by design*) use a few
    /// reshuffles.
    pub fn connectivity_window(&self) -> u64 {
        match *self {
            Topology::Groups { g } => 4 + g as u64,
            _ => 1,
        }
    }

    /// Build the validated per-round schedule for an `n`-worker cluster.
    pub fn build(&self, n: usize, seed: u64) -> Result<Arc<dyn TopologySchedule>, TopoError> {
        self.validate(n, seed)?;
        Ok(match *self {
            Topology::FullMesh | Topology::Ring | Topology::Star { .. } => {
                Arc::new(StaticSchedule { spec: *self, n })
            }
            Topology::KRegular { k } => Arc::new(KRegularSchedule {
                n,
                k,
                seed,
                memo: std::sync::Mutex::new(std::collections::HashMap::new()),
            }),
            Topology::Groups { g } => Arc::new(GroupSchedule {
                n,
                g,
                seed,
                memo: std::sync::Mutex::new(std::collections::HashMap::new()),
            }),
            Topology::Hier { g } => Arc::new(HierSchedule { n, g, seed }),
        })
    }
}

/// A per-round neighbor oracle for one concrete `(spec, n, seed)` cluster.
///
/// Implementations are pure: `neighbors(w, round)` depends on nothing but
/// the constructor arguments, so the simulator and every live worker
/// derive identical sets with no coordination. All sets are sorted by id
/// and symmetric within a round.
pub trait TopologySchedule: Send + Sync {
    fn n(&self) -> usize;
    fn spec(&self) -> Topology;

    /// Neighbor ids of worker `w` for round `round`, in id order.
    fn neighbors(&self, w: usize, round: u64) -> Vec<usize>;

    fn name(&self) -> String {
        self.spec().name()
    }

    fn rotates(&self) -> bool {
        self.spec().rotates(self.n())
    }

    /// Total directed links declared for `round`.
    fn link_count(&self, round: u64) -> usize {
        (0..self.n()).map(|w| self.neighbors(w, round).len()).sum()
    }

    /// Is the cluster restricted to `alive` workers still connected,
    /// looking across the spec's connectivity window starting at `round`?
    /// The live driver's churn guard: `false` after a demotion means the
    /// survivors have partitioned.
    fn is_connected_over(&self, alive: &[bool], round: u64) -> bool {
        let n = self.n();
        debug_assert_eq!(alive.len(), n);
        let total = alive.iter().filter(|&&a| a).count();
        if total <= 1 {
            return true; // a lone survivor is trivially connected
        }
        let Some(start) = (0..n).find(|&w| alive[w]) else {
            return true;
        };
        // BFS over the union of the window's per-round graphs.
        let window = self.spec().connectivity_window();
        let mut seen = vec![false; n];
        let mut stack = vec![start];
        seen[start] = true;
        let mut reached = 1usize;
        while let Some(w) = stack.pop() {
            for r in round..round + window {
                for j in self.neighbors(w, r) {
                    if alive[j] && !seen[j] {
                        seen[j] = true;
                        reached += 1;
                        stack.push(j);
                    }
                }
            }
        }
        reached == total
    }

    /// Which peers worker `w` ever exchanges with during rounds
    /// `0..rounds` — the links a live transport actually needs to dial.
    fn union_links(&self, w: usize, rounds: u64) -> Vec<bool> {
        let mut links = vec![false; self.n()];
        let last = if self.rotates() { rounds.max(1) } else { 1 };
        for r in 0..last {
            for j in self.neighbors(w, r) {
                links[j] = true;
            }
        }
        links
    }
}

/// FullMesh / Ring / Star: the fixed sets of the original `Topology` enum.
pub struct StaticSchedule {
    spec: Topology,
    n: usize,
}

impl TopologySchedule for StaticSchedule {
    fn n(&self) -> usize {
        self.n
    }

    fn spec(&self) -> Topology {
        self.spec
    }

    fn neighbors(&self, w: usize, _round: u64) -> Vec<usize> {
        let n = self.n;
        if w >= n {
            return Vec::new();
        }
        match self.spec {
            Topology::FullMesh => (0..n).filter(|&j| j != w).collect(),
            Topology::Ring => {
                if n == 2 {
                    return vec![1 - w];
                }
                let prev = (w + n - 1) % n;
                let next = (w + 1) % n;
                let mut v = vec![prev, next];
                v.sort_unstable();
                v.dedup();
                v
            }
            Topology::Star { hub } => {
                if hub >= n {
                    return Vec::new(); // invalid spec: total, not a panic
                }
                if w == hub {
                    (0..n).filter(|&j| j != hub).collect()
                } else {
                    vec![hub]
                }
            }
            _ => unreachable!("StaticSchedule only wraps fixed specs"),
        }
    }
}

/// Degree-`k` circulant graph on `n` nodes whose offset set is re-drawn
/// from the seed every round: neighbors of `w` are `w ± o (mod n)` for
/// each chosen offset `o`. Offsets are distinct values in `1..=(n-1)/2`
/// (each contributing two neighbors), plus the diameter `n/2` when `k`
/// is odd (contributing one). If the drawn offsets share a factor with
/// `n` (a disconnected circulant), the first offset is repaired to 1 —
/// deterministically, so every worker agrees.
pub struct KRegularSchedule {
    n: usize,
    k: usize,
    seed: u64,
    /// Memoized per-round offset sets. `neighbors` is called ~k times per
    /// worker per round from the runner's hot path — and with rounds
    /// interleaved (gradient application looks up the *sender's* round) —
    /// so this is a map, not a single slot; without it each call re-shuffles
    /// an O(n) candidate vector. Entries are a handful of usizes; the map is
    /// cleared if it ever grows past `MEMO_CAP` rounds.
    memo: std::sync::Mutex<std::collections::HashMap<u64, Vec<usize>>>,
}

/// Bound on memoized rounds per schedule before the cache resets.
const MEMO_CAP: usize = 4096;

impl KRegularSchedule {
    fn offsets(&self, round: u64) -> Vec<usize> {
        let mut memo = self.memo.lock().unwrap();
        if let Some(offs) = memo.get(&round) {
            return offs.clone();
        }
        if memo.len() >= MEMO_CAP {
            memo.clear();
        }
        let offs = self.compute_offsets(round);
        memo.insert(round, offs.clone());
        offs
    }

    fn compute_offsets(&self, round: u64) -> Vec<usize> {
        let (n, k) = (self.n, self.k);
        let half = (n - 1) / 2;
        let paired = k / 2;
        let mut candidates: Vec<usize> = (1..=half).collect();
        let mut rng = round_rng(self.seed, round);
        rng.shuffle(&mut candidates);
        candidates.truncate(paired);
        if k % 2 == 1 {
            candidates.push(n / 2);
        }
        let g = candidates.iter().fold(n, |acc, &o| gcd(acc, o));
        if g != 1 {
            // All offsets share a factor with n: the circulant would
            // split into g components. Offset 1 is coprime with
            // everything and cannot already be present (it would have
            // made the gcd 1).
            candidates[0] = 1;
        }
        candidates
    }
}

impl TopologySchedule for KRegularSchedule {
    fn n(&self) -> usize {
        self.n
    }

    fn spec(&self) -> Topology {
        Topology::KRegular { k: self.k }
    }

    fn neighbors(&self, w: usize, round: u64) -> Vec<usize> {
        let n = self.n;
        if w >= n {
            return Vec::new();
        }
        let mut v: Vec<usize> = Vec::with_capacity(self.k);
        for o in self.offsets(round) {
            v.push((w + o) % n);
            v.push((w + n - o) % n);
        }
        v.sort_unstable();
        v.dedup();
        v.retain(|&j| j != w);
        v
    }
}

/// `g` gossip groups whose membership is a fresh seeded shuffle every
/// round (Moshpit-style): position `i` of the round's permutation lands
/// in group `i % g`, so group sizes never differ by more than one, and
/// successive rounds mix members across groups. Within a group the
/// exchange is all-to-all; across groups there is no round-`r` edge —
/// connectivity is a property of the union window.
pub struct GroupSchedule {
    n: usize,
    g: usize,
    seed: u64,
    /// Memoized per-round `(group id per worker, sorted members per group)`
    /// — shared by all n `neighbors` calls of a round instead of
    /// re-shuffling the full permutation per call. A map because the runner
    /// interleaves rounds (see [`KRegularSchedule::offsets`]).
    memo: std::sync::Mutex<std::collections::HashMap<u64, std::sync::Arc<RoundGroups>>>,
}

/// One round's groups: each worker's group id and each group's sorted
/// members.
struct RoundGroups {
    group_of: Vec<usize>,
    members: Vec<Vec<usize>>,
}

impl GroupSchedule {
    /// The round's permutation: `perm[i]` is the worker at position `i`.
    fn perm(&self, round: u64) -> Vec<usize> {
        let mut perm: Vec<usize> = (0..self.n).collect();
        if self.g > 1 {
            round_rng(self.seed, round).shuffle(&mut perm);
        }
        perm
    }

    fn membership(&self, round: u64) -> std::sync::Arc<RoundGroups> {
        let mut memo = self.memo.lock().unwrap();
        if let Some(m) = memo.get(&round) {
            return m.clone();
        }
        if memo.len() >= MEMO_CAP {
            memo.clear();
        }
        let perm = self.perm(round);
        let mut group_of = vec![0usize; self.n];
        let mut members = vec![Vec::new(); self.g];
        for (pos, &w) in perm.iter().enumerate() {
            group_of[w] = pos % self.g;
            members[pos % self.g].push(w);
        }
        for m in &mut members {
            m.sort_unstable();
        }
        let m = std::sync::Arc::new(RoundGroups { group_of, members });
        memo.insert(round, m.clone());
        m
    }
}

impl TopologySchedule for GroupSchedule {
    fn n(&self) -> usize {
        self.n
    }

    fn spec(&self) -> Topology {
        Topology::Groups { g: self.g }
    }

    fn neighbors(&self, w: usize, round: u64) -> Vec<usize> {
        if w >= self.n {
            return Vec::new();
        }
        let m = self.membership(round);
        let mut v = m.members[m.group_of[w]].clone();
        v.retain(|&j| j != w);
        v
    }
}

/// Hierarchical micro-cloud-of-micro-clouds: `g` fixed contiguous groups
/// (worker `w` belongs to group `w·g/n`), each with an aggregator rank
/// that rotates through the group's members round-robin. Members talk
/// only to their group's aggregator; aggregators talk to each other —
/// per-round star-in-group plus mesh-of-aggregators, connected every
/// round.
pub struct HierSchedule {
    n: usize,
    g: usize,
    seed: u64,
}

impl HierSchedule {
    fn group_of(&self, w: usize) -> usize {
        w * self.g / self.n
    }

    fn members(&self, c: usize) -> Vec<usize> {
        (0..self.n).filter(|&w| self.group_of(w) == c).collect()
    }

    /// The group's aggregator for `round`: rotates through members, with
    /// a per-group seeded phase so aggregator duty doesn't land on every
    /// group's first rank simultaneously.
    fn aggregator(&self, c: usize, round: u64) -> usize {
        let members = self.members(c);
        let phase = (self.seed ^ TOPO_SALT).wrapping_add(c as u64) % members.len() as u64;
        members[((round + phase) % members.len() as u64) as usize]
    }
}

impl TopologySchedule for HierSchedule {
    fn n(&self) -> usize {
        self.n
    }

    fn spec(&self) -> Topology {
        Topology::Hier { g: self.g }
    }

    fn neighbors(&self, w: usize, round: u64) -> Vec<usize> {
        if w >= self.n {
            return Vec::new();
        }
        let c = self.group_of(w);
        let agg = self.aggregator(c, round);
        if w != agg {
            return vec![agg];
        }
        let mut v: Vec<usize> = self.members(c).into_iter().filter(|&j| j != w).collect();
        v.extend(
            (0..self.g)
                .filter(|&d| d != c)
                .map(|d| self.aggregator(d, round)),
        );
        v.sort_unstable();
        v.dedup();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL_SPECS: [Topology; 6] = [
        Topology::FullMesh,
        Topology::Ring,
        Topology::Star { hub: 2 },
        Topology::KRegular { k: 2 },
        Topology::Groups { g: 2 },
        Topology::Hier { g: 2 },
    ];

    /// The seed-0 schedule of `t` on `n` workers (these tests read round 0).
    fn round0(t: Topology, n: usize) -> Arc<dyn TopologySchedule> {
        t.build(n, 0).expect("a valid spec")
    }

    fn connected(t: Topology, n: usize) -> bool {
        round0(t, n).is_connected_over(&vec![true; n], 0)
    }

    #[test]
    fn full_mesh_neighbors() {
        let t = Topology::FullMesh;
        assert_eq!(round0(t, 4).neighbors(2, 0), vec![0, 1, 3]);
        assert_eq!(round0(t, 6).link_count(0), 30);
        assert!(connected(t, 6));
    }

    #[test]
    fn ring_neighbors() {
        let t = Topology::Ring;
        assert_eq!(round0(t, 6).neighbors(0, 0), vec![1, 5]);
        assert_eq!(round0(t, 6).neighbors(3, 0), vec![2, 4]);
        assert_eq!(round0(t, 6).neighbors(5, 0), vec![0, 4]);
        assert_eq!(round0(t, 6).link_count(0), 12);
        assert!(connected(t, 6));
        assert_eq!(round0(t, 2).neighbors(0, 0), vec![1]);
        assert_eq!(round0(t, 2).neighbors(1, 0), vec![0]);
        assert_eq!(round0(t, 3).neighbors(0, 0), vec![1, 2]);
    }

    #[test]
    fn star_neighbors() {
        let t = Topology::Star { hub: 2 };
        assert_eq!(round0(t, 5).neighbors(2, 0), vec![0, 1, 3, 4]);
        assert_eq!(round0(t, 5).neighbors(0, 0), vec![2]);
        assert_eq!(round0(t, 5).link_count(0), 8);
        assert!(connected(t, 5));
    }

    #[test]
    fn ring_cheaper_than_mesh() {
        for n in [3usize, 6, 10] {
            let links = |t| round0(t, n).link_count(0);
            assert!(links(Topology::Ring) <= links(Topology::FullMesh));
        }
    }

    #[test]
    fn invalid_specs_are_typed_errors_not_panics() {
        // The old assert paths: hub out of range, w >= n.
        let bad_hub = Topology::Star { hub: 9 };
        assert!(bad_hub.validate(4, 0).is_err());
        assert!(bad_hub.build(4, 0).is_err());
        assert_eq!(
            round0(Topology::Ring, 4).neighbors(7, 0),
            Vec::<usize>::new()
        );
        // Parameter-range validation per spec.
        assert!(Topology::KRegular { k: 0 }.validate(4, 0).is_err());
        assert!(Topology::KRegular { k: 4 }.validate(4, 0).is_err());
        assert!(
            Topology::KRegular { k: 3 }.validate(5, 0).is_err(),
            "odd k, odd n"
        );
        assert!(Topology::KRegular { k: 3 }.validate(6, 0).is_ok());
        assert!(Topology::Groups { g: 0 }.validate(6, 0).is_err());
        assert!(
            Topology::Groups { g: 4 }.validate(6, 0).is_err(),
            "singleton groups"
        );
        assert!(Topology::Hier { g: 7 }.validate(6, 0).is_err());
        assert!(Topology::FullMesh.validate(1, 0).is_err(), "n < 2");
        let err = bad_hub.validate(4, 0).unwrap_err();
        assert!(err.reason.contains("out of range"), "{err}");
    }

    #[test]
    fn parse_reads_every_spelling() {
        for (s, want) in [
            ("full", Topology::FullMesh),
            ("ring", Topology::Ring),
            ("star:3", Topology::Star { hub: 3 }),
            ("kregular:2", Topology::KRegular { k: 2 }),
            ("groups:4", Topology::Groups { g: 4 }),
            ("hier:2", Topology::Hier { g: 2 }),
        ] {
            assert_eq!(Topology::parse(s).unwrap(), want);
        }
        assert_eq!(Topology::parse("star").unwrap(), Topology::Star { hub: 0 });
        assert!(Topology::parse("torus").is_err());
        assert!(Topology::parse("kregular:x").is_err());
        assert!(Topology::parse("groups:").is_err());
    }

    /// Symmetry within a round is what BSP gating relies on.
    #[test]
    fn all_schedules_are_symmetric_every_round() {
        for spec in ALL_SPECS {
            for n in [4usize, 5, 9] {
                if spec.validate(n, 7).is_err() {
                    continue;
                }
                let s = spec.build(n, 7).unwrap();
                for round in 0..12u64 {
                    for w in 0..n {
                        for j in s.neighbors(w, round) {
                            assert!(
                                s.neighbors(j, round).contains(&w),
                                "{} n={n} round={round}: {w}→{j} but not {j}→{w}",
                                spec.name()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn schedules_are_deterministic_and_sorted() {
        for spec in ALL_SPECS {
            let a = spec.build(8, 42).unwrap();
            let b = spec.build(8, 42).unwrap();
            for round in 0..8u64 {
                for w in 0..8 {
                    let nb = a.neighbors(w, round);
                    assert_eq!(nb, b.neighbors(w, round), "{}", spec.name());
                    let mut sorted = nb.clone();
                    sorted.sort_unstable();
                    sorted.dedup();
                    assert_eq!(nb, sorted, "{} sorted+deduped", spec.name());
                    assert!(!nb.contains(&w), "{} no self-loop", spec.name());
                }
            }
        }
    }

    #[test]
    fn kregular_has_exact_degree_and_rotates() {
        for (n, k) in [(8usize, 2usize), (9, 2), (8, 3), (10, 4), (9, 4)] {
            let s = Topology::KRegular { k }.build(n, 3).unwrap();
            let mut distinct = std::collections::BTreeSet::new();
            for round in 0..16u64 {
                for w in 0..n {
                    assert_eq!(
                        s.neighbors(w, round).len(),
                        k,
                        "n={n} k={k} round={round} w={w}"
                    );
                }
                assert!(s.is_connected_over(&vec![true; n], round));
                distinct.insert(s.neighbors(0, round));
            }
            if (Topology::KRegular { k }).rotates(n) {
                assert!(distinct.len() > 1, "n={n} k={k} should rotate");
            }
        }
    }

    #[test]
    fn kregular_gcd_repair_keeps_rounds_connected() {
        // n=9: offset 3 alone would split into 3 components; every round
        // must still be connected thanks to the deterministic repair.
        let s = Topology::KRegular { k: 2 }.build(9, 0).unwrap();
        for round in 0..64u64 {
            assert!(s.is_connected_over(&[true; 9], round), "round {round}");
        }
    }

    #[test]
    fn groups_are_balanced_and_mix_across_rounds() {
        let n = 10;
        let s = Topology::Groups { g: 3 }.build(n, 11).unwrap();
        let mut ever: std::collections::BTreeSet<(usize, usize)> = Default::default();
        for round in 0..8u64 {
            // Every worker's group (itself + neighbors) has balanced size.
            for w in 0..n {
                let size = s.neighbors(w, round).len() + 1;
                assert!((3..=4).contains(&size), "round={round} w={w} size={size}");
            }
            for j in s.neighbors(0, round) {
                ever.insert((0, j));
            }
        }
        // Moshpit-style mixing: worker 0 meets more peers than one
        // static group could ever hold.
        assert!(ever.len() > 3, "rotation should mix groups, saw {ever:?}");
        assert!(s.rotates());
    }

    #[test]
    fn hier_members_see_aggregator_and_rotation_shares_duty() {
        let n = 8;
        let s = Topology::Hier { g: 2 }.build(n, 5).unwrap();
        let mut aggs_seen = std::collections::BTreeSet::new();
        for round in 0..8u64 {
            assert!(s.is_connected_over(&vec![true; n], round));
            // Exactly g workers have more than one neighbor (the
            // aggregators); everyone else sees exactly one.
            let degrees: Vec<usize> = (0..n).map(|w| s.neighbors(w, round).len()).collect();
            let aggs: Vec<usize> = (0..n).filter(|&w| degrees[w] > 1).collect();
            assert_eq!(aggs.len(), 2, "round={round} degrees={degrees:?}");
            // Aggregators see their 3 group members + the other aggregator.
            for &a in &aggs {
                assert_eq!(degrees[a], 4, "round={round}");
            }
            aggs_seen.extend(aggs);
        }
        assert!(aggs_seen.len() > 2, "aggregator duty should rotate");
    }

    #[test]
    fn partition_detection_over_survivors() {
        // A ring with two dead workers on opposite sides partitions.
        let s = Topology::Ring.build(6, 0).unwrap();
        let mut alive = vec![true; 6];
        alive[1] = false;
        assert!(s.is_connected_over(&alive, 0), "one hole keeps a path");
        alive[4] = false;
        assert!(
            !s.is_connected_over(&alive, 0),
            "two holes partition a ring"
        );
        // The full mesh never partitions while 2+ workers live.
        let m = Topology::FullMesh.build(6, 0).unwrap();
        assert!(m.is_connected_over(&alive, 0));
        // A dead star hub partitions the spokes.
        let star = Topology::Star { hub: 0 }.build(4, 0).unwrap();
        let mut alive = vec![true; 4];
        alive[0] = false;
        assert!(!star.is_connected_over(&alive, 0));
    }

    #[test]
    fn union_links_cover_rotation_and_cut_static_meshes() {
        let ring = Topology::Ring.build(6, 0).unwrap();
        assert_eq!(
            ring.union_links(0, 100),
            vec![false, true, false, false, false, true]
        );
        let kreg = Topology::KRegular { k: 2 }.build(9, 3).unwrap();
        let links = kreg.union_links(0, 64);
        assert!(!links[0], "never a self-link");
        let count = links.iter().filter(|&&l| l).count();
        assert!(count >= 2, "at least one round's links present");
        // Every declared neighbor over those rounds is covered.
        for r in 0..64u64 {
            for j in kreg.neighbors(0, r) {
                assert!(links[j], "round {r} neighbor {j} missing from union");
            }
        }
    }

    #[test]
    fn link_counts_scale_o_nk_not_o_n2() {
        let n = 64;
        let mesh = Topology::FullMesh.build(n, 0).unwrap();
        for spec in [
            Topology::Ring,
            Topology::KRegular { k: 4 },
            Topology::Groups { g: 8 },
            Topology::Hier { g: 8 },
        ] {
            let s = spec.build(n, 9).unwrap();
            for round in 0..4u64 {
                assert!(
                    s.link_count(round) < mesh.link_count(round) / 4,
                    "{} links {} vs mesh {}",
                    spec.name(),
                    s.link_count(round),
                    mesh.link_count(round)
                );
            }
        }
    }
}
