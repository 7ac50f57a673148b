//! The four workloads: their generated inputs, the deployment the
//! benchmark builds from them, the run, the measured outcome and the
//! checks that outcome must pass.
//!
//! Each workload reproduces one `fabric_experiments::run_*` entry point
//! exactly (same parameters, same seed, same phases), but builds the
//! deployment itself so that set-up and simulation are timed apart and so
//! that the traced run can wrap the network in [`crate::trace::Traced`].
//! [`run_reference`] proves the reproduction: the library entry point run
//! at the same seed must process the same events.

use std::thread::ThreadId;
use std::time::{Duration as WallDuration, Instant};

use desim::{run_batch_with_workers, Duration, NetworkConfig, NodeId, RngMode, Simulation, Time};
use fabric_experiments::churn_waves::{run_churn_waves, ChurnWavesConfig, DISCOVERY_KINDS};
use fabric_experiments::conflicts::{run_conflicts, ConflictConfig};
use fabric_experiments::dissemination::{run_dissemination, DisseminationConfig};
use fabric_experiments::net::{ChannelSpec, ChurnAction, DiscoveryMode, FabricNet, NetParams};
use fabric_experiments::shard::{plan_groups, run_sharded, ShardedConfig};
use fabric_gossip::config::GossipConfig;
use fabric_orderer::cutter::BatchConfig;
use fabric_orderer::service::OrdererConfig;
use fabric_types::ids::{ChannelId, PeerId};
use fabric_types::transaction::EndorsementPolicy;
use fabric_workload::schedule::{
    increment_schedule, merge_schedules, payload_schedule, retarget_schedule, PayloadWorkload,
    ScheduledInvocation,
};
use gossip_metrics::cdf::Cdf;
use gossip_metrics::fairness::jain_index;

use crate::trace::{LayerTimes, Node};

/// Dissemination transactions: 120 blocks of 50 ≈3.2 KB transactions, so
/// 100 peers give 12 000 (block, peer) latency samples and the p99.9 has
/// 12 samples beyond it.
const DISSEM_TXS: usize = 6_000;
/// Conflict workload: 100 counters × 30 rounds at 5 tx/s.
const CONFLICT_KEYS: usize = 100;
const CONFLICT_ROUNDS: usize = 30;
/// Churn waves: 6 side channels of 12 peers, 100 blocks per channel, five
/// waves of two joiners and two leavers per side channel and a flash crowd
/// of four: 64 joins, enough that their median convergence repeats across
/// seeds (the library preset's 11 joins moved it by 40 %). The 136
/// default-channel members and 2 stable members per side channel give
/// 14 800 latency samples, 14 beyond the p99.9.
const CHURN_SIDE_CHANNELS: usize = 6;
const CHURN_SIDE_MEMBERS: usize = 12;
const CHURN_BLOCKS: u64 = 100;
const CHURN_WAVES: usize = 5;
const CHURN_FLASH_CROWD: usize = 4;
/// Large sharded: 126 clusters of 16 peers, two 10-peer channels each,
/// 10 blocks per channel: 25 200 latency samples, 25 beyond the p99.9
/// (half that moved the p99.9 by 15 % from seed to seed).
const SHARD_CLUSTERS: usize = 126;
const SHARD_CLUSTER_PEERS: usize = 16;
const SHARD_TXS: usize = 500;
/// Worker shards of the sharded workload, pinned so the result does not
/// depend on the machine's core count.
pub const SHARDS: usize = 2;

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figs. 4–6: original Fabric gossip, 100 peers, 160 KB blocks.
    DissemOriginal,
    /// One Table II cell: enhanced gossip f = 4, 1 s block period.
    ConflictsEnhanced,
    /// Join/leave waves and a flash crowd under gossiped discovery.
    ChurnWaves,
    /// 2 016 peers over 252 channels on two worker shards.
    LargeSharded,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::DissemOriginal,
        Workload::ConflictsEnhanced,
        Workload::ChurnWaves,
        Workload::LargeSharded,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DissemOriginal => "dissem_original",
            Workload::ConflictsEnhanced => "conflicts_enhanced",
            Workload::ChurnWaves => "churn_waves",
            Workload::LargeSharded => "large_sharded",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The library entry point a workload reproduces, with its configuration.
#[derive(Debug)]
enum Reference {
    Dissem(DisseminationConfig),
    Conflicts(ConflictConfig),
    Churn(ChurnWavesConfig),
    Sharded(ShardedConfig),
}

/// The inputs of one simulated group (one [`FabricNet`]).
#[derive(Debug)]
struct GroupInput {
    params: NetParams,
    schedule: Vec<ScheduledInvocation>,
    network: NetworkConfig,
    seed: u64,
    rng_mode: RngMode,
    /// The first phase runs until this instant...
    stop: Time,
    /// ...and the second phase idles on for this long.
    tail: Duration,
    /// Per channel: the latency-matrix slots of the members that sit in
    /// the channel for the whole run.
    stable_slots: Vec<Vec<usize>>,
}

/// Everything a workload's runs are made from, generated from the seed.
#[derive(Debug)]
pub struct Inputs {
    groups: Vec<GroupInput>,
    shards: usize,
    reference: Reference,
}

impl Inputs {
    /// Generates the workload's inputs from `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        match workload {
            Workload::DissemOriginal => {
                let mut cfg = DisseminationConfig::fig04_06_original().scaled(DISSEM_TXS);
                cfg.seed = seed;
                dissem_inputs(cfg)
            }
            Workload::ConflictsEnhanced => {
                let mut cfg =
                    ConflictConfig::paper(GossipConfig::enhanced_f4(), Duration::from_secs(1))
                        .scaled(CONFLICT_KEYS, CONFLICT_ROUNDS);
                cfg.seed = seed;
                conflict_inputs(cfg)
            }
            Workload::ChurnWaves => {
                let mut cfg = ChurnWavesConfig::standard(
                    CHURN_SIDE_CHANNELS,
                    CHURN_SIDE_MEMBERS,
                    CHURN_BLOCKS,
                );
                // The preset's first wave comes a quarter of the way in;
                // later waves follow every span / (waves + 2), as the
                // preset spaces its two.
                let span = cfg.side_workload.total_txs as f64 / cfg.side_workload.rate_per_sec;
                cfg.waves = CHURN_WAVES;
                cfg.wave_interval = Duration::from_secs_f64(span / (CHURN_WAVES as f64 + 2.0));
                cfg.flash_crowd = CHURN_FLASH_CROWD;
                cfg.seed = seed;
                churn_inputs(cfg)
            }
            Workload::LargeSharded => {
                let mut cfg =
                    ShardedConfig::clustered(SHARD_CLUSTERS, SHARD_CLUSTER_PEERS, SHARD_TXS);
                cfg.shards = SHARDS;
                cfg.seed = seed;
                sharded_inputs(cfg)
            }
        }
    }
}

fn last_issue(schedule: &[ScheduledInvocation]) -> Time {
    schedule.last().map(|s| s.at).unwrap_or(Time::ZERO)
}

/// Slots of the members that never leave: initial members keep their
/// spec position as slot; runtime joiners are never stable.
fn stable_slots(params: &NetParams) -> Vec<Vec<usize>> {
    params
        .channel_specs()
        .iter()
        .map(|spec| {
            spec.members
                .iter()
                .enumerate()
                .filter(|(_, m)| {
                    !params.churn.iter().any(|ev| {
                        ev.channel == spec.channel
                            && ev.peer == **m
                            && ev.action == ChurnAction::Leave
                    })
                })
                .map(|(slot, _)| slot)
                .collect()
        })
        .collect()
}

fn group(
    params: NetParams,
    schedule: Vec<ScheduledInvocation>,
    network: &NetworkConfig,
    seed: u64,
    rng_mode: RngMode,
    stop: Time,
    tail: Duration,
) -> GroupInput {
    let mut network = network.clone();
    network.nodes = FabricNet::node_count(&params);
    GroupInput {
        stable_slots: stable_slots(&params),
        params,
        schedule,
        network,
        seed,
        rng_mode,
        stop,
        tail,
    }
}

/// The deployment of `run_dissemination`.
fn dissem_inputs(cfg: DisseminationConfig) -> Inputs {
    assert_eq!(cfg.free_riders, 0, "the benchmark runs no free riders");
    let schedule = payload_schedule(&cfg.workload);
    let stop = last_issue(&schedule) + Duration::from_secs(40);
    let mut params = NetParams::new(cfg.peers, cfg.gossip.clone(), cfg.orderer.clone());
    params.validation_per_tx = Duration::from_micros(300);
    params.endorsers = vec![PeerId(1)];
    params.full_ledgers = false;
    params.orgs = cfg.orgs;
    let g = group(
        params,
        schedule,
        &cfg.network,
        cfg.seed,
        RngMode::Unified,
        stop,
        cfg.idle_tail,
    );
    Inputs {
        groups: vec![g],
        shards: 1,
        reference: Reference::Dissem(cfg),
    }
}

/// The deployment of `run_conflicts`.
fn conflict_inputs(cfg: ConflictConfig) -> Inputs {
    assert_eq!(
        cfg.endorsers, 1,
        "the benchmark's Table II cell has one endorser"
    );
    let schedule = increment_schedule(&cfg.workload, cfg.seed);
    let stop = last_issue(&schedule) + Duration::from_secs(60);
    let orderer = OrdererConfig {
        batch: BatchConfig::paper_conflicts(cfg.period),
        consensus_delay: cfg.pipeline,
    };
    let mut params = NetParams::new(cfg.peers, cfg.gossip.clone(), orderer);
    params.validation_per_tx = cfg.validation_per_tx;
    params.endorsers = vec![PeerId(1)];
    params.full_ledgers = false;
    let g = group(
        params,
        schedule,
        &cfg.network,
        cfg.seed,
        RngMode::Unified,
        stop,
        Duration::ZERO,
    );
    Inputs {
        groups: vec![g],
        shards: 1,
        reference: Reference::Conflicts(cfg),
    }
}

/// The deployment of `run_churn_waves`.
fn churn_inputs(cfg: ChurnWavesConfig) -> Inputs {
    cfg.validate();
    let mut schedules = vec![payload_schedule(&cfg.main_workload)];
    for c in 1..=cfg.side_channels {
        schedules.push(retarget_schedule(
            payload_schedule(&cfg.side_workload),
            ChannelId(c as u16),
        ));
    }
    let schedule = merge_schedules(schedules);
    let stop = last_issue(&schedule) + cfg.drain;
    let mut params = NetParams::new(cfg.peers(), cfg.gossip.clone(), cfg.orderer.clone());
    params.validation_per_tx = Duration::from_micros(300);
    params.discovery = DiscoveryMode::Protocol;
    params.extra_channels = (1..=cfg.side_channels)
        .map(|c| {
            let start = (c - 1) * cfg.side_members;
            let members: Vec<PeerId> = (start..start + cfg.side_members)
                .map(|i| PeerId(i as u32))
                .collect();
            let endorser = *members.last().expect("side channels are non-empty");
            ChannelSpec {
                channel: ChannelId(c as u16),
                members,
                orgs: 1,
                endorsers: vec![endorser],
                policy: EndorsementPolicy::AnyMember,
            }
        })
        .collect();
    params.churn = cfg.churn_events();
    let g = group(
        params,
        schedule,
        &cfg.network,
        cfg.seed,
        RngMode::Unified,
        stop,
        Duration::ZERO,
    );
    Inputs {
        groups: vec![g],
        shards: 1,
        reference: Reference::Churn(cfg),
    }
}

/// The deployment of `run_sharded`: one [`FabricNet`] per connected
/// component of the channel-overlap graph, with densely remapped peer ids
/// and the group seed mixed from the run seed and the group index.
fn sharded_inputs(cfg: ShardedConfig) -> Inputs {
    let memberships: Vec<Vec<PeerId>> = cfg.channels.iter().map(|c| c.members.clone()).collect();
    let groups = plan_groups(&memberships)
        .iter()
        .enumerate()
        .map(|(index, g)| {
            let local = |peer: &PeerId| {
                PeerId(
                    g.members
                        .binary_search(peer)
                        .expect("group members cover its channels") as u32,
                )
            };
            let local_members: Vec<Vec<PeerId>> = g
                .channels
                .iter()
                .map(|&c| cfg.channels[c].members.iter().map(local).collect())
                .collect();
            let mut params =
                NetParams::new(g.members.len(), cfg.gossip.clone(), cfg.orderer.clone());
            params.validation_per_tx = Duration::from_micros(300);
            params.full_ledgers = false;
            params.orgs = 1;
            params.default_members = Some(local_members[0].clone());
            params.endorsers = vec![local_members[0][0]];
            params.policy = EndorsementPolicy::AnyMember;
            params.extra_channels = local_members[1..]
                .iter()
                .enumerate()
                .map(|(i, members)| ChannelSpec {
                    channel: ChannelId((i + 1) as u16),
                    members: members.clone(),
                    orgs: 1,
                    endorsers: vec![members[0]],
                    policy: EndorsementPolicy::AnyMember,
                })
                .collect();
            let schedule = merge_schedules(
                g.channels
                    .iter()
                    .enumerate()
                    .map(|(local, &c)| {
                        let chan = &cfg.channels[c];
                        let workload = PayloadWorkload {
                            total_txs: chan.txs,
                            rate_per_sec: chan.rate_per_sec,
                            tx_padding: chan.tx_padding,
                        };
                        retarget_schedule(payload_schedule(&workload), ChannelId(local as u16))
                    })
                    .collect(),
            );
            let stop = last_issue(&schedule) + Duration::from_secs(40);
            let seed = cfg
                .seed
                .wrapping_add((index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            group(
                params,
                schedule,
                &cfg.network,
                seed,
                cfg.rng_mode,
                stop,
                cfg.idle_tail,
            )
        })
        .collect();
    Inputs {
        groups,
        shards: cfg.shards,
        reference: Reference::Sharded(cfg),
    }
}

/// Builds and starts the deployment, one simulation per group:
/// `FabricNet::new`, `Simulation::new` and `start`. Returns it with the
/// time that took — the benchmark's `setup_s`. Copying the generated
/// inputs is not timed.
pub fn setup<P: Node>(inputs: &Inputs) -> (Vec<Simulation<P>>, WallDuration) {
    let copies: Vec<(NetParams, Vec<ScheduledInvocation>, NetworkConfig)> = inputs
        .groups
        .iter()
        .map(|g| (g.params.clone(), g.schedule.clone(), g.network.clone()))
        .collect();
    let start = Instant::now();
    let sims = copies
        .into_iter()
        .zip(&inputs.groups)
        .map(|((params, schedule, network), g)| {
            let net = FabricNet::new(params, schedule);
            let mut sim = Simulation::with_rng_mode(P::wrap(net), network, g.seed, g.rng_mode);
            sim.with_ctx(|node, ctx| node.net_mut().start(ctx));
            sim
        })
        .collect();
    (sims, start.elapsed())
}

/// A finished deployment with its timings.
#[derive(Debug)]
pub struct Finished<P: Node> {
    sims: Vec<Simulation<P>>,
    /// Wall time of the simulation phase.
    pub wall: WallDuration,
    /// Wall time each worker shard spent simulating.
    pub shard_busy: Vec<WallDuration>,
}

/// Runs every group through its phases; groups fan out over the pinned
/// shard count.
pub fn run<P: Node>(inputs: &Inputs, mut sims: Vec<Simulation<P>>) -> Finished<P> {
    let drive = |index: usize, sim: &mut Simulation<P>| {
        let g = &inputs.groups[index];
        sim.run_until(g.stop);
        sim.run_for(g.tail);
    };
    let start = Instant::now();
    if inputs.shards <= 1 {
        for (index, sim) in sims.iter_mut().enumerate() {
            drive(index, sim);
        }
        let wall = start.elapsed();
        return Finished {
            sims,
            wall,
            shard_busy: vec![wall],
        };
    }
    let jobs: Vec<(usize, Simulation<P>)> = sims.into_iter().enumerate().collect();
    let done: Vec<(Simulation<P>, WallDuration, ThreadId)> =
        run_batch_with_workers(jobs, inputs.shards, |(index, mut sim)| {
            let begun = Instant::now();
            drive(index, &mut sim);
            (sim, begun.elapsed(), std::thread::current().id())
        });
    let wall = start.elapsed();
    let mut threads: Vec<ThreadId> = Vec::new();
    let mut shard_busy: Vec<WallDuration> = Vec::new();
    for (_, busy, thread) in &done {
        match threads.iter().position(|t| t == thread) {
            Some(i) => shard_busy[i] += *busy,
            None => {
                threads.push(*thread);
                shard_busy.push(*busy);
            }
        }
    }
    shard_busy.resize(inputs.shards, WallDuration::ZERO);
    Finished {
        sims: done.into_iter().map(|(sim, _, _)| sim).collect(),
        wall,
        shard_busy,
    }
}

/// What a run simulated: every number here is a function of the inputs
/// alone, so it repeats exactly across runs, traced or not.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Simulation events processed.
    pub events: u64,
    /// Messages sent.
    pub msgs: u64,
    /// Pooled (block, stable member) latency samples.
    pub latency_samples: usize,
    /// Samples strictly beyond the p99.9.
    pub beyond_p999: usize,
    /// Median dissemination latency, ms.
    pub latency_p50_ms: f64,
    /// 99.9th percentile dissemination latency, ms.
    pub latency_p999_ms: f64,
    /// Bytes sent by peers per block cut, MB.
    pub mb_per_block: f64,
    /// Jain's index over the bytes each peer sent.
    pub load_jain: f64,
    /// Valid transactions as a share of those issued, %.
    pub valid_tx_pct: f64,
    /// Median convergence time, s (see [`measure`]).
    pub converge_p50_s: f64,
    /// Convergence samples behind `converge_p50_s`.
    pub converge_samples: usize,
    /// (block, stable member) deliveries expected.
    pub deliveries_expected: u64,
    /// Of those, deliveries that happened.
    pub deliveries_done: u64,
    /// Blocks cut across every channel.
    pub blocks: u64,
    /// Proposals the client issued.
    pub issued: u64,
    /// Valid transactions at the channels' endorsers.
    pub valid: u64,
    /// MVCC conflicts at the channels' endorsers.
    pub mvcc_conflicts: u64,
    /// Endorsement-policy failures at commit.
    pub endorsement_failures: u64,
    /// Proposals discarded for mismatched read sets.
    pub proposal_conflicts: u64,
    /// Σ of every counter at the endorsers (conflict workload).
    pub counter_sum: u64,
    /// Chain violations at commit.
    pub commit_errors: u64,
    /// Runtime joins, and those whose news reached every sitting member.
    pub joins: usize,
    /// See `joins`.
    pub joins_converged: usize,
    /// Ledger catch-ups, and those that reached the join-time head.
    pub catchups: usize,
    /// See `catchups`.
    pub catchups_done: usize,
    /// Median catch-up time (join → join-time head), s; 0 without joins.
    pub catchup_p50_s: f64,
    /// Leadership acquisitions per channel, deployment order.
    pub handoffs: Vec<u64>,
    /// Duplicate block receipts per first receipt.
    pub dup_ratio: f64,
    /// Push fetch requests.
    pub fetches: u64,
    /// Pull requests sent.
    pub pull_requests: u64,
    /// Recovery requests.
    pub recovery_requests: u64,
    /// Discovery bytes as a share of all bytes on the wire.
    pub discovery_share: f64,
    /// Transactions submitted for ordering per block cut.
    pub tx_per_block: f64,
    /// All bytes on the wire, MB.
    pub wire_mb: f64,
}

fn ms(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e6
}

fn secs(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e9
}

/// Measures a finished deployment.
///
/// `converge_p50_s` is the median over runtime joins where the workload
/// has them: the time until every sitting member's view admitted the
/// joiner. With static membership there is nothing to join; the change
/// every member must see is then each new block, and a sample is the time
/// until the last member of the channel held it.
pub fn measure<P: Node>(inputs: &Inputs, finished: &Finished<P>) -> Outcome {
    let sims = &finished.sims;
    let mut pool: Vec<Duration> = Vec::new();
    let mut peer_bytes: Vec<f64> = Vec::new();
    let mut o = Outcome::default();
    let (mut dups, mut firsts, mut wire, mut discovery, mut submits) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut catchup_times: Vec<Duration> = Vec::new();
    let mut converge_times: Vec<Duration> = Vec::new();
    for (g, sim) in inputs.groups.iter().zip(sims) {
        let net = sim.protocol().net();
        let metrics = sim.metrics();
        o.events += sim.events_processed();
        let kind_count = |k: &str| metrics.kind(k).map_or(0, |s| s.count);
        let kind_bytes = |k: &str| metrics.kind(k).map_or(0, |s| s.bytes);
        o.msgs += metrics.kinds().map(|(_, s)| s.count).sum::<u64>();
        o.pull_requests += kind_count("pull-request");
        submits += kind_count("submit");
        wire += metrics.network_total_sent();
        discovery +=
            kind_bytes("alive") + DISCOVERY_KINDS.iter().map(|k| kind_bytes(k)).sum::<u64>();
        for (spec, stable) in g.params.channel_specs().iter().zip(&g.stable_slots) {
            let rec = net.latency_on(spec.channel).expect("channel exists");
            let blocks = net.blocks_cut_on(spec.channel);
            o.deliveries_expected += blocks * stable.len() as u64;
            for &slot in stable {
                let cells = rec.peer_latencies(slot);
                o.deliveries_done += cells.len() as u64;
                pool.extend(cells);
            }
            o.handoffs.push(net.handoffs_on(spec.channel));
            let endorser = spec.endorsers[0].index();
            if let Some(ledger) = net.ledger_on(endorser, spec.channel) {
                let stats = ledger.stats();
                o.valid += stats.valid_txs;
                o.mvcc_conflicts += stats.mvcc_conflicts;
                o.endorsement_failures += stats.endorsement_failures;
                o.counter_sum += ledger.state().counter_sum().unwrap_or(0);
            }
            if g.params.churn.is_empty() {
                for cdf in rec.all_block_cdfs().values() {
                    if cdf.len() == rec.peers() {
                        converge_times.push(cdf.max());
                    }
                }
            }
            for r in net.convergence_on(spec.channel).iter().filter(|r| r.join) {
                o.joins += 1;
                if let Some(t) = r.latency() {
                    o.joins_converged += 1;
                    converge_times.push(t);
                }
            }
        }
        for peer in 0..g.params.peers {
            peer_bytes.push(metrics.total_sent(NodeId(peer as u32)) as f64);
            let gossip = net.gossip(peer);
            for channel in gossip.channel_ids() {
                let stats = gossip.stats_on(channel).expect("joined channel has stats");
                dups += stats.duplicate_blocks;
                firsts += stats.first_seen.len() as u64;
                o.fetches += stats.fetch_requests;
                o.recovery_requests += stats.recovery_requests;
            }
        }
        for c in net.catchups() {
            o.catchups += 1;
            if let Some(t) = c.latency() {
                o.catchups_done += 1;
                catchup_times.push(t);
            }
        }
        o.blocks += net.blocks_cut();
        o.issued += net.issued();
        o.proposal_conflicts += net.proposal_conflicts();
        o.commit_errors += net.commit_errors();
    }
    let cdf = Cdf::new(pool);
    if !cdf.is_empty() {
        let p999 = cdf.quantile(0.999);
        o.latency_p50_ms = ms(cdf.quantile(0.5));
        o.latency_p999_ms = ms(p999);
        o.beyond_p999 = cdf.samples().iter().filter(|s| **s > p999).count();
    }
    o.latency_samples = cdf.len();
    let converge = Cdf::new(converge_times);
    o.converge_samples = converge.len();
    if !converge.is_empty() {
        o.converge_p50_s = secs(converge.quantile(0.5));
    }
    let catchups = Cdf::new(catchup_times);
    if !catchups.is_empty() {
        o.catchup_p50_s = secs(catchups.quantile(0.5));
    }
    let peer_total: f64 = peer_bytes.iter().sum();
    o.mb_per_block = peer_total / 1e6 / o.blocks.max(1) as f64;
    o.load_jain = jain_index(&peer_bytes);
    o.valid_tx_pct = 100.0 * o.valid as f64 / o.issued.max(1) as f64;
    o.dup_ratio = dups as f64 / firsts.max(1) as f64;
    o.discovery_share = discovery as f64 / wire.max(1) as f64;
    o.tx_per_block = submits as f64 / o.blocks.max(1) as f64;
    o.wire_mb = wire as f64 / 1e6;
    o
}

/// The handler times a traced deployment recorded, summed over groups.
pub fn layer_times<P: Node>(finished: &Finished<P>) -> LayerTimes {
    let mut total = LayerTimes::default();
    for sim in &finished.sims {
        if let Some(t) = sim.protocol().layer_times() {
            total.absorb(t);
        }
    }
    total
}

impl Outcome {
    /// Operations that failed: (block, stable member) deliveries still
    /// missing at the end of the run, plus commit errors.
    pub fn failed(&self) -> u64 {
        self.deliveries_expected - self.deliveries_done + self.commit_errors
    }

    /// The workload's output checks; each failure is one line.
    pub fn check(&self, inputs: &Inputs) -> Vec<String> {
        let mut failures = Vec::new();
        if self.deliveries_expected == 0 || self.latency_samples == 0 {
            failures.push("no block was disseminated".to_owned());
        }
        if self.commit_errors != 0 {
            failures.push(format!("{} commit errors", self.commit_errors));
        }
        if self.beyond_p999 < 10 {
            failures.push(format!(
                "only {} latency samples beyond the p99.9 (want at least 10)",
                self.beyond_p999
            ));
        }
        match &inputs.reference {
            Reference::Dissem(_) | Reference::Sharded(_) => {
                if self.deliveries_done != self.deliveries_expected {
                    failures.push(format!(
                        "completeness {} of {} deliveries",
                        self.deliveries_done, self.deliveries_expected
                    ));
                }
            }
            Reference::Conflicts(_) => {
                let accounted = self.valid
                    + self.mvcc_conflicts
                    + self.proposal_conflicts
                    + self.endorsement_failures;
                if self.issued != accounted {
                    failures.push(format!(
                        "issued {} != valid {} + conflicts {} + proposal conflicts {} + endorsement failures {}",
                        self.issued,
                        self.valid,
                        self.mvcc_conflicts,
                        self.proposal_conflicts,
                        self.endorsement_failures
                    ));
                }
                if self.counter_sum != self.valid {
                    failures.push(format!(
                        "counter sum {} != valid {}",
                        self.counter_sum, self.valid
                    ));
                }
            }
            Reference::Churn(cfg) => {
                if self.joins == 0 || self.joins_converged != self.joins {
                    failures.push(format!(
                        "{} of {} joins converged",
                        self.joins_converged, self.joins
                    ));
                }
                if let Some(c) = self.handoffs[1..]
                    .iter()
                    .position(|h| *h as usize != cfg.waves)
                {
                    failures.push(format!(
                        "side channel {} saw {} leadership hand-offs over {} waves",
                        c + 1,
                        self.handoffs[c + 1],
                        cfg.waves
                    ));
                }
            }
        }
        failures
    }
}

/// One number the library entry point reported, with the outcome field
/// it is compared with.
type Reported = (&'static str, u64, fn(&Outcome) -> u64);

/// What the library entry point reported: each number the benchmark's
/// own run must reproduce.
#[derive(Debug)]
pub struct LibraryRun {
    values: Vec<Reported>,
}

/// Runs the library entry point the workload reproduces, at the same
/// seed: `run_dissemination`, `run_conflicts`, `run_churn_waves` or
/// `run_sharded`.
pub fn run_reference(inputs: &Inputs) -> LibraryRun {
    let values: Vec<Reported> = match &inputs.reference {
        Reference::Dissem(cfg) => {
            let r = run_dissemination(cfg);
            vec![
                ("events", r.events, |o| o.events),
                ("blocks", r.blocks, |o| o.blocks),
            ]
        }
        Reference::Conflicts(cfg) => {
            // The only entry point without an event count: compare every
            // count it reports instead.
            let r = run_conflicts(cfg);
            vec![
                ("issued", r.issued, |o| o.issued),
                ("valid", r.valid, |o| o.valid),
                ("conflicts", r.conflicts, |o| o.mvcc_conflicts),
                ("proposal conflicts", r.proposal_conflicts, |o| {
                    o.proposal_conflicts
                }),
                ("counter sum", r.counter_sum, |o| o.counter_sum),
                ("blocks", r.blocks, |o| o.blocks),
            ]
        }
        Reference::Churn(cfg) => {
            let r = run_churn_waves(cfg);
            vec![
                ("events", r.events, |o| o.events),
                ("catch-ups", r.catchups.len() as u64, |o| o.catchups as u64),
            ]
        }
        Reference::Sharded(cfg) => {
            let r = run_sharded(cfg);
            vec![
                ("events", r.events, |o| o.events),
                ("blocks", r.blocks, |o| o.blocks),
            ]
        }
    };
    LibraryRun { values }
}

impl LibraryRun {
    /// The numbers on which the benchmark's own run differs, one line each.
    pub fn matches(&self, own: &Outcome) -> Vec<String> {
        self.values
            .iter()
            .filter(|(_, library, field)| field(own) != *library)
            .map(|(what, library, field)| {
                format!("{what}: library {library} vs benchmark {}", field(own))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Traced;

    /// Each workload's deployment at test size.
    fn small() -> Vec<Inputs> {
        let mut dissem = DisseminationConfig::fig04_06_original().scaled(500);
        dissem.peers = 30;
        let mut conflicts =
            ConflictConfig::paper(GossipConfig::enhanced_f4(), Duration::from_secs(1))
                .scaled(20, 10);
        conflicts.peers = 30;
        let churn = ChurnWavesConfig::standard(2, 6, 20);
        let mut sharded = ShardedConfig::clustered(3, 9, 60);
        sharded.shards = SHARDS;
        vec![
            dissem_inputs(dissem),
            conflict_inputs(conflicts),
            churn_inputs(churn),
            sharded_inputs(sharded),
        ]
    }

    fn outcome<P: Node>(inputs: &Inputs) -> (Outcome, LayerTimes) {
        let (sims, _) = setup::<P>(inputs);
        let finished = run(inputs, sims);
        (measure(inputs, &finished), layer_times(&finished))
    }

    #[test]
    fn tracing_is_transparent_and_books_every_event_to_a_layer() {
        for inputs in small() {
            let (plain, untimed) = outcome::<FabricNet>(&inputs);
            let (traced, times) = outcome::<Traced>(&inputs);
            assert_eq!(plain, traced, "the wrapper changed the simulation");
            assert_eq!(
                untimed,
                LayerTimes::default(),
                "the bare network records no layers"
            );
            assert_eq!(times.calls.iter().sum::<u64>(), traced.events);
        }
    }

    #[test]
    fn deployments_match_the_library_entry_points() {
        for inputs in small() {
            let (own, _) = outcome::<FabricNet>(&inputs);
            assert_eq!(run_reference(&inputs).matches(&own), Vec::<String>::new());
        }
    }

    #[test]
    fn outcomes_repeat_at_a_fixed_seed_and_move_with_the_seed() {
        let mut cfg = DisseminationConfig::fig04_06_original().scaled(500);
        cfg.peers = 30;
        let first = outcome::<FabricNet>(&dissem_inputs(cfg.clone())).0;
        assert_eq!(first, outcome::<FabricNet>(&dissem_inputs(cfg.clone())).0);
        cfg.seed += 1;
        assert_ne!(first, outcome::<FabricNet>(&dissem_inputs(cfg)).0);
    }

    #[test]
    fn churn_latency_counts_only_members_present_for_the_whole_run() {
        let inputs = churn_inputs(ChurnWavesConfig::standard(2, 6, 20));
        let g = &inputs.groups[0];
        // The default channel never churns; each side channel loses its
        // wave leavers and never counts its joiners.
        assert_eq!(g.stable_slots[0].len(), g.params.peers);
        for side in &g.stable_slots[1..] {
            assert_eq!(side.len(), 6 - 2 * 2);
        }
        let (o, _) = outcome::<FabricNet>(&inputs);
        assert_eq!(o.latency_samples as u64, o.deliveries_done);
        assert_eq!(o.joins, o.catchups);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
