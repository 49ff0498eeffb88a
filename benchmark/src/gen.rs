//! Seeded input generation: the `edit-one` edit order and the fleet
//! session list. The seed is used here and nowhere else — the program
//! under test only ever sees the generated inputs.

/// The two applications, in the order every table in this crate uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum App {
    Broadleaf,
    Shopizer,
}

impl App {
    pub const ALL: [App; 2] = [App::Broadleaf, App::Shopizer];

    pub fn name(self) -> &'static str {
        match self {
            App::Broadleaf => "broadleaf",
            App::Shopizer => "shopizer",
        }
    }
}

/// xorshift64* — small, fast, and good enough to shuffle 13 items and
/// draw a few hundred sessions.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        // splitmix64 of the seed, so that seeds 11 and 12 start far apart
        // and seed 0 does not get stuck at the all-zero fixed point.
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `0..n` (the modulo bias at n ≤ 100 is below 1e-17).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// `perms` seeded permutations of the `(app, api index)` edit sites, given
/// each app's API count. Every permutation covers every site exactly once,
/// so per-permutation totals do not depend on the seed — only the order
/// (which store state precedes which edit) does.
pub fn edit_order(seed: u64, perms: usize, apis: [usize; 2]) -> Vec<Vec<(App, usize)>> {
    let mut rng = Rng::new(seed);
    let sites: Vec<(App, usize)> = App::ALL
        .into_iter()
        .zip(apis)
        .flat_map(|(app, n)| (0..n).map(move |i| (app, i)))
        .collect();
    (0..perms)
        .map(|_| {
            let mut p = sites.clone();
            rng.shuffle(&mut p);
            p
        })
        .collect()
}

/// One fleet session: which app version submits its traces, and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Session {
    pub app: App,
    /// `None` = the release version (`Fixes::none()`); `Some(k)` = the
    /// Broadleaf version with the single fix f(k+1) applied, k in 0..8.
    pub variant: Option<u8>,
    /// Open-loop due time, nanoseconds after the phase starts.
    pub due_ns: u64,
}

/// Arrival rate of the open loop, sessions per second (README: why 70).
pub const OPEN_RATE_HZ: u64 = 100;
/// Latency limit for `serve.slo_share`, from due time to `Done`.
pub const SLO_NS: u64 = 200_000_000;
/// Single-fix Broadleaf variants a session can draw (f1..f8).
pub const VARIANTS: u8 = 8;

/// The app mix holds exactly in every `MIX_BLOCK` sessions (12 Broadleaf,
/// 8 Shopizer).
const MIX_BLOCK: usize = 20;
const MIX_SHOPIZER: usize = 8;
/// Which of 15 consecutive Broadleaf sessions run a variant: 4 of 15, so
/// 32 of the 120 Broadleaf sessions in every 200.
const SPACING: [bool; 15] = [
    true, false, false, false, true, false, false, false, true, false, false, false, true, false,
    false,
];

/// The fleet session list: 60 % Broadleaf / 40 % Shopizer; Shopizer is
/// always the release version; about a quarter of the Broadleaf sessions
/// (4 of 15) run a single-fix variant, the rest the release version.
///
/// Only the order is seeded. The app mix holds exactly in every 20
/// sessions, shuffled within; variants sit at evenly spaced Broadleaf
/// sessions, so each is one switch away from the release version and one
/// switch back, and they take turns f1..f8 from a seeded start, so every
/// 50 sessions see each variant once. Drawing each session freely moved
/// the median by 40 % between seeds (it sits at the edge between the two
/// apps' latencies) and throughput by 15 %: a switch to or from f2 costs
/// 350 ms of re-solving, one to f3 only 60 ms, a repeat of the same
/// variant nothing, and what a switch costs depends on the variant before.
/// Sessions are due at a fixed `OPEN_RATE_HZ`. A longer list extends a
/// shorter one.
pub fn sessions(seed: u64, n: usize) -> Vec<Session> {
    let mut rng = Rng::new(seed ^ 0x5e55_1045);
    let mut slot = rng.below(SPACING.len() as u64) as usize;
    let mut turn = rng.below(VARIANTS as u64) as u8;
    let mut out: Vec<Session> = Vec::with_capacity(n + MIX_BLOCK);
    while out.len() < n {
        let mut apps = [App::Broadleaf; MIX_BLOCK];
        apps[..MIX_SHOPIZER].fill(App::Shopizer);
        rng.shuffle(&mut apps);
        for app in apps {
            let mut variant = None;
            if app == App::Broadleaf {
                if SPACING[slot % SPACING.len()] {
                    variant = Some(turn % VARIANTS);
                    turn += 1;
                }
                slot += 1;
            }
            let due_ns = out.len() as u64 * 1_000_000_000 / OPEN_RATE_HZ;
            out.push(Session {
                app,
                variant,
                due_ns,
            });
        }
    }
    out.truncate(n);
    out
}

/// Timestamps of one fleet session, nanoseconds after the phase starts.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionTiming {
    /// When the open loop wanted to send (closed loop: equals `send_start`).
    pub due: u64,
    /// When the first `send` was entered.
    pub send_start: u64,
    /// Total time spent blocked inside `send` calls (backpressure).
    pub send_blocked: u64,
    /// When `finish` was called.
    pub finished: u64,
    /// Receipt of the first `ServeEvent::Verdict` (of `Done` if none came).
    pub first_verdict: u64,
    /// Receipt of the last `ServeEvent::Verdict` (of `Done` if none came).
    pub last_verdict: u64,
    /// Receipt of `ServeEvent::Done`.
    pub done: u64,
    /// `AnalysisSummary.wall` as the daemon measured it.
    pub service: u64,
    /// Deepest shard queue when the session was sent (traced runs; else 0).
    pub shard_depth: i64,
}

impl SessionTiming {
    /// Latency a user feels. Counted from the *due* time, so a generator
    /// stalled in `send` charges the stall to the sessions it delayed.
    pub fn latency(&self) -> u64 {
        self.done.saturating_sub(self.due)
    }

    pub fn first_verdict_latency(&self) -> u64 {
        self.first_verdict.saturating_sub(self.due)
    }

    /// How late the generator entered `send` for this session.
    pub fn generator_lag(&self) -> u64 {
        self.send_start.saturating_sub(self.due)
    }

    /// `finish` → `Done` minus the daemon's own service time: time the
    /// session sat in the ingest channel and the work queue. Signed, so
    /// the conservation check can see a service time that exceeds the
    /// interval it is supposed to sit inside.
    pub fn queue(&self) -> i64 {
        self.done as i64 - self.finished as i64 - self.service as i64
    }

    pub fn stream_spread(&self) -> u64 {
        self.last_verdict.saturating_sub(self.first_verdict)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_seeds_differ() {
        assert_eq!(sessions(11, 500), sessions(11, 500));
        assert_ne!(sessions(11, 500), sessions(12, 500));
        assert_eq!(edit_order(11, 3, [7, 6]), edit_order(11, 3, [7, 6]));
        assert_ne!(edit_order(11, 3, [7, 6]), edit_order(12, 3, [7, 6]));
    }

    #[test]
    fn every_permutation_covers_every_site_once() {
        for perm in edit_order(11, 3, [7, 6]) {
            let mut sorted = perm.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), 13);
            assert_eq!(perm.len(), 13);
        }
    }

    #[test]
    fn a_longer_list_extends_a_shorter_one() {
        assert_eq!(sessions(11, 500)[..130], sessions(11, 130)[..]);
    }

    #[test]
    fn session_mix_is_within_five_points() {
        for seed in [11, 12, 13] {
            let s = sessions(seed, 600);
            let broadleaf = s.iter().filter(|x| x.app == App::Broadleaf).count();
            let share = broadleaf as f64 / s.len() as f64;
            assert!((share - 0.60).abs() <= 0.05, "seed {seed}: {share}");
            let release = s
                .iter()
                .filter(|x| x.app == App::Broadleaf && x.variant.is_none())
                .count();
            let share = release as f64 / broadleaf as f64;
            assert!((share - 0.75).abs() <= 0.05, "seed {seed}: {share}");
            assert!(s
                .iter()
                .all(|x| x.app == App::Broadleaf || x.variant.is_none()));
            assert!(s.iter().all(|x| x.variant.is_none_or(|v| v < VARIANTS)));
            // Exact per block: 12 of every 20 are Broadleaf; each variant
            // runs 4 times in every 200.
            assert!(s
                .chunks(20)
                .all(|c| c.iter().filter(|x| x.app == App::Broadleaf).count() == 12));
            for k in 0..VARIANTS {
                assert!(s
                    .chunks(200)
                    .all(|c| c.iter().filter(|x| x.variant == Some(k)).count() == 4));
                assert!(s
                    .chunks(50)
                    .all(|c| c.iter().filter(|x| x.variant == Some(k)).count() <= 2));
            }
            // A variant's Broadleaf neighbours run the release version.
            let broadleaf: Vec<_> = s.iter().filter(|x| x.app == App::Broadleaf).collect();
            assert!(broadleaf
                .windows(2)
                .all(|w| w[0].variant.is_none() || w[1].variant.is_none()));
        }
    }

    #[test]
    fn due_times_follow_the_fixed_rate() {
        let s = sessions(11, 2 * OPEN_RATE_HZ as usize + 1);
        assert_eq!(s[0].due_ns, 0);
        assert_eq!(s[OPEN_RATE_HZ as usize].due_ns, 1_000_000_000);
        assert_eq!(s[2 * OPEN_RATE_HZ as usize].due_ns, 2_000_000_000);
    }

    /// Fake clock: the session was due at 100 ms, `send` could only start
    /// at 180 ms because the previous session's `send` was blocked, and
    /// `Done` arrived at 230 ms. The user waited 130 ms, not 50.
    #[test]
    fn open_loop_latency_counts_from_due_time_even_when_send_blocked() {
        let ms = 1_000_000;
        let t = SessionTiming {
            due: 100 * ms,
            send_start: 180 * ms,
            send_blocked: 15 * ms,
            finished: 196 * ms,
            first_verdict: 210 * ms,
            last_verdict: 228 * ms,
            done: 230 * ms,
            service: 30 * ms,
            shard_depth: 0,
        };
        assert_eq!(t.latency(), 130 * ms);
        assert_eq!(t.first_verdict_latency(), 110 * ms);
        assert_eq!(t.generator_lag(), 80 * ms);
        assert_eq!(t.queue(), 4 * ms as i64);
        assert_eq!(t.stream_spread(), 18 * ms);
    }
}
