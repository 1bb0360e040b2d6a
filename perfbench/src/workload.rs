//! The workloads: which planning instances each one sends, and in what
//! order.
//!
//! Every request is a `plan` request for one of a workload's fixed
//! instances ("templates"). The daemon keys its plan cache on the whole
//! instance, chain name included, so the name a request gives its chain
//! decides whether it can hit: a name used before is answered from the
//! cache, a fresh name is planned from scratch by a worker. That keeps
//! the planning work of every miss drawn from the same fixed set, so
//! runs with different seeds measure the same amount of work.

use madpipe_dnn::{networks, random_chain, GpuModel, RandomChainConfig};
use madpipe_json::{ToJson, Value};
use madpipe_model::{Chain, Platform};

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 2] = ["hit", "schedule"];

/// Stand-in for the chain name inside a rendered request line.
const NAME_SLOT: &str = "@chain-name@";

/// `hit`: the request mix of `madpipe loadgen` with its defaults, the
/// mix the repository's serve-speed gate measures: 4 small random chains
/// drawn with seeds 42 to 45.
const HIT_INSTANCES: u64 = 4;
const HIT_CHAIN_SEED: u64 = 42;

/// `hit`: rounds per measurement slice (see [`Workload::slice_len`]).
const HIT_SLICE_ROUNDS: u64 = 1024;

/// Paper-network cells `(network, GPUs, memory GB, bandwidth GB/s)`
/// whose planning time is mostly phase-2 scheduling of the candidate
/// allocations. The list has an odd length, so the median and the 90th
/// percentile of a round fall on one cell's time rather than on the edge
/// between two cells' times, where they would jump between the two from
/// run to run.
const SCHEDULE_CELLS: [(&str, usize, u64, f64); 7] = [
    ("resnet50", 2, 4, 12.0),
    ("resnet50", 2, 8, 12.0),
    ("resnet50", 2, 10, 12.0),
    ("resnet50", 2, 4, 24.0),
    ("resnet50", 2, 8, 24.0),
    ("resnet50", 2, 10, 24.0),
    ("resnet50", 4, 3, 12.0),
];

/// One planning instance and its request line.
pub struct Template {
    pub chain: Chain,
    pub platform: Platform,
    /// The `plan` request with [`NAME_SLOT`] as the chain name.
    line: String,
}

impl Template {
    fn new(chain: Chain, platform: Platform) -> Self {
        let mut chain_v = chain.to_json();
        if let Value::Object(fields) = &mut chain_v {
            for (key, value) in fields.iter_mut() {
                if key == "name" {
                    *value = Value::Str(NAME_SLOT.into());
                }
            }
        }
        let line = Value::Object(vec![
            ("cmd".into(), Value::Str("plan".into())),
            ("chain".into(), chain_v),
            (
                "platform".into(),
                Value::Object(vec![
                    ("n_gpus".into(), Value::UInt(platform.n_gpus as u64)),
                    ("memory_bytes".into(), Value::UInt(platform.memory_bytes)),
                    ("bandwidth_bytes".into(), Value::Float(platform.bandwidth)),
                ]),
            ),
        ])
        .to_string_compact();
        Self {
            chain,
            platform,
            line,
        }
    }

    /// The request line for a chain called `name`.
    fn line(&self, name: &str) -> String {
        self.line.replacen(NAME_SLOT, name, 1)
    }
}

enum Mix {
    /// Every request repeats one of the fixed lines, so once the warm-up
    /// has planned each the cache answers them all.
    Hit { lines: Vec<String> },
    /// Every request a fresh key.
    Cold,
}

pub struct Workload {
    pub templates: Vec<Template>,
    /// Requests per round: one per template. A run ends on a round
    /// boundary, so every run sends whole copies of one request multiset.
    pub round_len: u64,
    /// Rounds per measurement slice.
    slice_rounds: u64,
    mix: Mix,
    seed: u64,
}

impl Workload {
    /// Build the named workload's instances from `seed`; `None` for an
    /// unknown name.
    pub fn build(name: &str, seed: u64) -> Option<Workload> {
        let (templates, hit) = match name {
            "hit" => (small_instances(), true),
            "schedule" => (paper_instances(&SCHEDULE_CELLS), false),
            _ => return None,
        };
        let (mix, slice_rounds) = if hit {
            // The chains keep their own names, so the lines are
            // byte-identical to the ones `madpipe loadgen` sends.
            let lines = templates
                .iter()
                .map(|tpl| tpl.line(tpl.chain.name()))
                .collect();
            (Mix::Hit { lines }, HIT_SLICE_ROUNDS)
        } else {
            (Mix::Cold, 1)
        };
        Some(Workload {
            round_len: templates.len() as u64,
            templates,
            slice_rounds,
            mix,
            seed,
        })
    }

    /// Requests per measurement slice: whole rounds, a fifth of a second
    /// to a second of traffic on every workload.
    pub fn slice_len(&self) -> usize {
        (self.round_len * self.slice_rounds) as usize
    }

    /// Template index and request line of request number `seq`. Each
    /// round visits the templates in its own seeded order: how long a
    /// request takes depends a little on what the daemon did just before
    /// it, and fresh orders every round average that out within a run.
    pub fn request(&self, seq: u64) -> (usize, String) {
        let (round, pos) = (seq / self.round_len, seq % self.round_len);
        let order = shuffled(self.templates.len(), splitmix(self.seed) ^ round);
        let t = order[pos as usize];
        match &self.mix {
            Mix::Hit { lines } => (t, lines[t].clone()),
            Mix::Cold => {
                let name = format!("cold-{}-{seq}", self.seed);
                (t, self.templates[t].line(&name))
            }
        }
    }

    /// One request per template, sent before timing starts: it fills the
    /// cache (`hit`), and lets the daemon's allocations and the planner's
    /// first-touch costs settle (every workload).
    pub fn warmup(&self) -> Vec<(usize, String)> {
        (0..self.templates.len())
            .map(|t| match &self.mix {
                Mix::Hit { lines } => (t, lines[t].clone()),
                Mix::Cold => (
                    t,
                    self.templates[t].line(&format!("warm-{}-{t}", self.seed)),
                ),
            })
            .collect()
    }
}

/// The small random chains of `madpipe loadgen` on its 4-GPU platform
/// with 2 GiB each, sized so one plan takes milliseconds.
fn small_instances() -> Vec<Template> {
    const GIB: u64 = 1 << 30;
    let platform = Platform::new(4, 2 * GIB, 12.0 * GIB as f64).expect("static platform");
    let cfg = RandomChainConfig {
        layers: 8,
        forward_range: (0.5e-3, 5e-3),
        weight_range: (1 << 16, 1 << 20),
        activation_range: (1 << 20, 8 << 20),
        cnn_profile: false,
    };
    (0..HIT_INSTANCES)
        .map(|i| Template::new(random_chain(&cfg, HIT_CHAIN_SEED + i), platform.clone()))
        .collect()
}

/// The paper's profiling setup (batch 8, 1000×1000 images, default GPU
/// model) on each listed cell.
fn paper_instances(cells: &[(&str, usize, u64, f64)]) -> Vec<Template> {
    let gpu = GpuModel::default();
    let mut chains: Vec<Chain> = Vec::new();
    cells
        .iter()
        .map(|&(network, p, m_gb, beta_gb)| {
            let chain = match chains.iter().find(|c| c.name() == network) {
                Some(c) => c.clone(),
                None => {
                    let c = networks::by_name(network)
                        .expect("known network")
                        .profile(8, 1000, &gpu)
                        .expect("paper networks profile cleanly");
                    chains.push(c.clone());
                    c
                }
            };
            let platform = Platform::gb(p, m_gb, beta_gb).expect("valid cell platform");
            Template::new(chain, platform)
        })
        .collect()
}

/// SplitMix64 finalizer.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded Fisher–Yates permutation of `0..n`.
fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        state = splitmix(state);
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    order
}
