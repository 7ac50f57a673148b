//! Quantitative Byzantine tolerance bounds: for each attacker family,
//! grow the attacker count `f` inside a deployment of `N` peers until an
//! asserted guarantee first falls, and record the measured `f*(N)`
//! frontier plus the degradation curve below it.
//!
//! Where [`crate::adversarial`] answers *"does the guarantee survive one
//! attacker?"*, this module answers *"how many colluding attackers does
//! it survive, and what does each additional one cost?"*. Four families
//! cover the three attack classes the suite distinguishes:
//!
//! | family              | class         | guarantee swept to violation        |
//! |---------------------|---------------|-------------------------------------|
//! | obituary-coalition  | coalition     | refutation heals views within bound |
//! | adaptive-leader-hunt| adaptive      | exactly one leader after the hunt   |
//! | withholder          | dissemination | gap-free catch-up within bound      |
//! | equivocator         | dissemination | completeness 1.0, payloads intact   |
//!
//! Everything is deterministic (one seeded simulation per run), so the
//! frontier is a *measurement*, not a flaky sample: CI pins the measured
//! `f*` per family and fails when a change shrinks it.

use desim::Duration;
use fabric_gossip::config::GossipConfig;
use fabric_gossip::scenario::{
    Adaptively, CoalitionForger, DiscoveryHarness, Equivocator, LeaderHunter, Predicate,
    RefutationSuppressor, SideChannel, Withholder,
};
use fabric_types::block::{Block, BlockRef};
use fabric_types::crypto::Hash256;
use fabric_types::ids::{ChannelId, PeerId};

use crate::adversarial::AdversarialConfig;
use crate::report::escape;

/// Configuration of one tolerance sweep.
#[derive(Debug, Clone)]
pub struct ToleranceConfig {
    /// Wire-format label carried into the report (`"full"` / `"delta"`).
    pub mode: &'static str,
    /// The gossip configuration every peer runs (discovery protocol on).
    pub gossip: GossipConfig,
    /// Deployment sizes `N` to sweep (sitting members per channel).
    pub deployments: Vec<u32>,
    /// Upper bound on the attacker count `f` (further capped per
    /// deployment at `N - 3` so a victim and an honest rump remain).
    pub max_f: u32,
}

impl ToleranceConfig {
    /// The standard sweep: the adversarial suite's timers, two deployment
    /// sizes, attacker counts grown until the per-deployment cap
    /// (`N - 3`) so the frontier can actually be found, not just probed.
    pub fn standard() -> Self {
        ToleranceConfig {
            mode: "full",
            gossip: AdversarialConfig::standard().gossip,
            deployments: vec![6, 9],
            max_f: 6,
        }
    }
}

/// One point of a degradation curve: what `f` attackers did.
#[derive(Debug, Clone)]
pub struct TolerancePoint {
    /// The attacker count.
    pub f: u32,
    /// Whether the family's guarantee held at this `f`.
    pub held: bool,
    /// Diagnostic detail (what was observed or how it failed).
    pub detail: String,
    /// The family's degradation metric at this `f`.
    pub metric: f64,
}

/// The measured frontier of one attacker family at one deployment size.
#[derive(Debug, Clone)]
pub struct FamilyFrontier {
    /// Family name (`"obituary-coalition"`, ...).
    pub family: &'static str,
    /// Attack class (`"coalition"` / `"adaptive"` / `"dissemination"`).
    pub kind: &'static str,
    /// Sitting members per channel in this sweep.
    pub deployment: u32,
    /// The guarantee swept to violation.
    pub guarantee: &'static str,
    /// Name of the degradation metric.
    pub metric_name: &'static str,
    /// Unit of the degradation metric.
    pub metric_unit: &'static str,
    /// The degradation curve, one point per `f` in ascending order.
    pub points: Vec<TolerancePoint>,
}

impl FamilyFrontier {
    /// The measured tolerance bound: the largest `f` such that the
    /// guarantee held at every attacker count up to and including it
    /// (0 when even a single attacker breaks it).
    pub fn f_star(&self) -> u32 {
        let mut star = 0;
        for p in &self.points {
            if !p.held {
                break;
            }
            star = p.f;
        }
        star
    }

    /// The smallest swept `f` at which the guarantee fell, if any.
    pub fn first_violation(&self) -> Option<u32> {
        self.points.iter().find(|p| !p.held).map(|p| p.f)
    }
}

/// The machine-readable result of one tolerance sweep.
#[derive(Debug, Clone)]
pub struct ToleranceReport {
    /// Wire-format label of the sweep.
    pub mode: &'static str,
    /// The harness attack-RNG seed (with the per-peer engine seeds of the
    /// determinism contract, the file reproduces the sweep alone).
    pub seed: u64,
    /// One frontier per (family, deployment), families in catalog order.
    pub frontiers: Vec<FamilyFrontier>,
}

impl ToleranceReport {
    /// The measured `f*` for one family at one deployment size.
    pub fn f_star_of(&self, family: &str, deployment: u32) -> Option<u32> {
        self.frontiers
            .iter()
            .find(|fr| fr.family == family && fr.deployment == deployment)
            .map(FamilyFrontier::f_star)
    }

    /// Whether every swept point up to each family's pinned floor held —
    /// the CI gate: `floors` pins `(family, deployment, expected f*)`.
    pub fn meets_floors(&self, floors: &[(&str, u32, u32)]) -> bool {
        floors
            .iter()
            .all(|(family, n, floor)| self.f_star_of(family, *n) >= Some(*floor))
    }

    /// Renders the report as JSON (hand-built, same style as the other
    /// artifacts — the offline workspace has no JSON dependency).
    pub fn to_json(&self) -> String {
        let mut json = String::from("{\n");
        json.push_str(&format!("  \"wire_format\": \"{}\",\n", self.mode));
        json.push_str(&format!("  \"seed\": {},\n", self.seed));
        json.push_str("  \"frontiers\": [\n");
        for (i, fr) in self.frontiers.iter().enumerate() {
            let points = fr
                .points
                .iter()
                .map(|p| {
                    format!(
                        "{{\"f\": {}, \"held\": {}, \"metric\": {:.3}, \"detail\": \"{}\"}}",
                        p.f,
                        p.held,
                        p.metric,
                        escape(&p.detail)
                    )
                })
                .collect::<Vec<_>>()
                .join(", ");
            let violation = match fr.first_violation() {
                Some(f) => f.to_string(),
                None => "null".into(),
            };
            json.push_str(&format!(
                "    {{\"family\": \"{}\", \"kind\": \"{}\", \"deployment\": {}, \
                 \"guarantee\": \"{}\", \"f_star\": {}, \"first_violation\": {}, \
                 \"metric_name\": \"{}\", \"metric_unit\": \"{}\", \"points\": [{}]}}{}\n",
                fr.family,
                fr.kind,
                fr.deployment,
                fr.guarantee,
                fr.f_star(),
                violation,
                fr.metric_name,
                fr.metric_unit,
                points,
                if i + 1 < self.frontiers.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        json.push_str("  ]\n}\n");
        json
    }
}

/// Runs the whole family catalog at every configured deployment size.
pub fn run_tolerance(cfg: &ToleranceConfig) -> ToleranceReport {
    let mut frontiers = Vec::new();
    for &n in &cfg.deployments {
        frontiers.push(obituary_coalition(cfg, n));
        frontiers.push(adaptive_leader_hunt(cfg, n));
        frontiers.push(withholder(cfg, n));
        frontiers.push(equivocator(cfg, n));
    }
    ToleranceReport {
        mode: cfg.mode,
        seed: DiscoveryHarness::SEED,
        frontiers,
    }
}

/// Paper-style text rendering of one sweep.
pub fn render_tolerance(report: &ToleranceReport) -> String {
    let mut out = String::new();
    out.push_str(&format!("Tolerance sweep — {} anti-entropy\n", report.mode));
    for fr in &report.frontiers {
        out.push_str(&format!(
            "  {} ({}) at N={}: f* = {}{}\n",
            fr.family,
            fr.kind,
            fr.deployment,
            fr.f_star(),
            match fr.first_violation() {
                Some(f) => format!(" (first violation at f={f})"),
                None => " (no violation in the swept range)".into(),
            }
        ));
        for p in &fr.points {
            out.push_str(&format!(
                "    f={}: [{}] {} = {:.2} {} — {}\n",
                p.f,
                if p.held { "ok" } else { "FAIL" },
                fr.metric_name,
                p.metric,
                fr.metric_unit,
                p.detail
            ));
        }
    }
    out
}

/// Attacker counts swept at deployment `n`: at least a victim and two
/// honest members must remain outside the coalition.
fn f_range(cfg: &ToleranceConfig, n: u32) -> impl Iterator<Item = u32> {
    1..=cfg.max_f.min(n.saturating_sub(3))
}

/// The `f` highest peer ids of an `n`-member channel — the compromised
/// set (the harness protects no id, so the top ids are as good as any and
/// keep the victim/injector ids stable across `f`).
fn top_ids(n: u32, f: u32) -> Vec<PeerId> {
    (n - f..n).map(PeerId).collect()
}

/// Family 1 (coalition) — one [`CoalitionForger`] plus `f - 1`
/// [`RefutationSuppressor`]s sharing a [`SideChannel`], all against one
/// victim. Guarantee: the victim's incarnation bump still heals every
/// view within the bound. Metric: total disrupted seconds across the
/// campaign.
fn obituary_coalition(cfg: &ToleranceConfig, n: u32) -> FamilyFrontier {
    let victim = PeerId(1);
    let points = f_range(cfg, n)
        .map(|f| {
            let members: Vec<PeerId> = (0..n).map(PeerId).collect();
            let mut net = DiscoveryHarness::new(n as usize, vec![members], &cfg.gossip);
            net.run_for(Duration::from_secs(3));
            let inc_before = incarnation_of(&net, victim);
            let side = SideChannel::new();
            let ids = top_ids(n, f);
            net.set_byzantine(
                ids[0],
                Box::new(CoalitionForger::new(victim, 2, side.clone())),
            );
            for id in &ids[1..] {
                net.set_byzantine(
                    *id,
                    Box::new(RefutationSuppressor::new(victim, side.clone())),
                );
            }
            let mut disrupted_ticks = 0u64;
            for _ in 0..60u64 {
                net.run_for(Duration::from_millis(500));
                if !net.views_converged(0) {
                    disrupted_ticks += 1;
                }
            }
            let healed = net.converge_within(0, 40).is_some();
            let inc_after = incarnation_of(&net, victim);
            let bumped = inc_after > inc_before;
            let settled = net
                .check(&Predicate::NoResurrectionBelowObituary { channel: 0 })
                .is_ok();
            TolerancePoint {
                f,
                held: healed && bumped && settled,
                detail: format!(
                    "healed: {healed}, incarnation {inc_before} -> {inc_after}, \
                     no-resurrection: {settled}"
                ),
                metric: disrupted_ticks as f64 * 0.5,
            }
        })
        .collect();
    FamilyFrontier {
        family: "obituary-coalition",
        kind: "coalition",
        deployment: n,
        guarantee: "refutation-heals-views-within-bound",
        metric_name: "disruption",
        metric_unit: "secs",
        points,
    }
}

/// Family 2 (adaptive) — `f` independent [`LeaderHunter`]s, each
/// wiretapping leadership heartbeats (dynamic election) and re-targeting
/// whatever new state it observes. Guarantee: after the campaign the
/// views agree and exactly one leader claims the channel. Metric:
/// seconds until leadership recovered after the campaign horizon.
fn adaptive_leader_hunt(cfg: &ToleranceConfig, n: u32) -> FamilyFrontier {
    const RECOVERY_LIMIT: u64 = 40;
    let mut gossip = cfg.gossip.clone();
    gossip.election.dynamic = true;
    gossip.election.heartbeat_interval = Duration::from_secs(1);
    gossip.election.leader_timeout = Duration::from_secs(4);
    let points = f_range(cfg, n)
        .map(|f| {
            let members: Vec<PeerId> = (0..n).map(PeerId).collect();
            let mut net = DiscoveryHarness::new(n as usize, vec![members], &gossip);
            net.run_for(Duration::from_secs(5));
            for id in top_ids(n, f) {
                net.set_byzantine(id, Box::new(Adaptively(LeaderHunter::new(2))));
            }
            net.run_for(Duration::from_secs(40));
            let recovered = net.secs_until(RECOVERY_LIMIT, |net| {
                net.views_converged(0) && net.leaders(0).len() == 1
            });
            let leaders = net.leaders(0);
            TolerancePoint {
                f,
                held: recovered.is_some(),
                detail: format!("leaders after the hunt: {leaders:?}"),
                metric: recovered.unwrap_or(RECOVERY_LIMIT) as f64,
            }
        })
        .collect();
    FamilyFrontier {
        family: "adaptive-leader-hunt",
        kind: "adaptive",
        deployment: n,
        guarantee: "exactly-one-leader-after-the-hunt",
        metric_name: "leadership_recovery",
        metric_unit: "secs",
        points,
    }
}

/// The dissemination families' shared scaffold: stream `height` blocks
/// into an `n`-member channel with `f` attackers attached, add a late
/// joiner, and measure the seconds until the *whole channel* (joiner
/// included) is gap-free — completeness 1.0, the paper's dissemination
/// guarantee.
fn catchup_run(
    gossip: &GossipConfig,
    n: u32,
    height: u64,
    attach: impl Fn(&mut DiscoveryHarness, PeerId),
    f: u32,
) -> (DiscoveryHarness, Option<u64>) {
    const LIMIT: u64 = 45;
    let members: Vec<PeerId> = (0..n).map(PeerId).collect();
    let joiner = PeerId(n);
    let mut net = DiscoveryHarness::new(n as usize + 1, vec![members], gossip);
    for id in top_ids(n, f) {
        attach(&mut net, id);
    }
    let mut prev = Hash256::ZERO;
    for num in 1..=height {
        let block = BlockRef::new(Block::new(num, prev, vec![]).with_padding(200));
        prev = block.hash();
        net.inject(0, block);
        net.run_for(Duration::from_millis(200));
    }
    net.run_for(Duration::from_secs(10));
    net.join(0, joiner);
    let caught = net.secs_until(LIMIT, |net| {
        net.gossip(joiner.index()).height_on(ChannelId(0)) > height
            && net.check(&Predicate::GapFreeCatchup { channel: 0 }).is_ok()
    });
    (net, caught)
}

/// The dissemination families run with every payload path armed: push,
/// pull *and* recovery, with the catch-up timers tightened.
fn dissemination_gossip(cfg: &ToleranceConfig) -> GossipConfig {
    let mut gossip = cfg.gossip.clone();
    gossip.recovery.interval = Duration::from_secs(2);
    gossip.recovery.state_info_interval = Duration::from_secs(1);
    gossip.pull = GossipConfig::original_fabric().pull;
    gossip
}

/// Family 3 (dissemination) — `f` [`Withholder`]s that advertise blocks
/// but never serve a payload. Guarantee: a late joiner still reaches
/// completeness 1.0 (gap-free) within the bound, through honest
/// redundancy. Metric: seconds to completeness.
fn withholder(cfg: &ToleranceConfig, n: u32) -> FamilyFrontier {
    const HEIGHT: u64 = 6;
    let gossip = dissemination_gossip(cfg);
    let points = f_range(cfg, n)
        .map(|f| {
            let (_net, caught) = catchup_run(
                &gossip,
                n,
                HEIGHT,
                |net, id| net.set_byzantine(id, Box::new(Withholder::new(Vec::new()))),
                f,
            );
            TolerancePoint {
                f,
                held: caught.is_some(),
                detail: match caught {
                    Some(s) => format!("channel gap-free {s}s after the join"),
                    None => "a member was still starved at the bound".into(),
                },
                metric: caught.unwrap_or(45) as f64,
            }
        })
        .collect();
    FamilyFrontier {
        family: "withholder",
        kind: "dissemination",
        deployment: n,
        guarantee: "gap-free-catchup-within-bound",
        metric_name: "time_to_completeness",
        metric_unit: "secs",
        points,
    }
}

/// Family 4 (dissemination) — `f` [`Equivocator`]s serving conflicting
/// payloads (doctored transactions under the genuine header) to even-id
/// peers. Guarantee: every doctored payload is hash-rejected, every held
/// or delivered block is intact, and completeness still reaches 1.0.
/// Metric: rejected payload count (the attack surface that bounced).
fn equivocator(cfg: &ToleranceConfig, n: u32) -> FamilyFrontier {
    const HEIGHT: u64 = 6;
    let gossip = dissemination_gossip(cfg);
    let points = f_range(cfg, n)
        .map(|f| {
            let (net, caught) = catchup_run(
                &gossip,
                n,
                HEIGHT,
                |net, id| net.set_byzantine(id, Box::new(Equivocator)),
                f,
            );
            let mut rejected = 0u64;
            let mut all_intact = true;
            for i in 0..(n as usize + 1) {
                if let Some(stats) = net.gossip(i).stats_on(ChannelId(0)) {
                    rejected += stats.invalid_payloads + stats.equivocations_rejected;
                }
                for num in 1..=HEIGHT {
                    if let Some(block) = net.gossip(i).store().get(num) {
                        all_intact &= block.data_intact();
                    }
                }
                all_intact &= net.delivered(i).iter().all(|b| b.data_intact());
            }
            TolerancePoint {
                f,
                held: caught.is_some() && all_intact && rejected > 0,
                detail: format!(
                    "complete: {}, intact: {all_intact}, rejected payloads: {rejected}",
                    caught.is_some()
                ),
                metric: rejected as f64,
            }
        })
        .collect();
    FamilyFrontier {
        family: "equivocator",
        kind: "dissemination",
        deployment: n,
        guarantee: "payloads-hash-rejected-completeness-holds",
        metric_name: "rejected_payloads",
        metric_unit: "count",
        points,
    }
}

/// The victim's incarnation as peer 0 sees it (0 when unknown).
fn incarnation_of(net: &DiscoveryHarness, peer: PeerId) -> u64 {
    net.gossip(0)
        .discovery_on(ChannelId(0))
        .and_then(|e| e.claim_of(peer))
        .map(|c| c.incarnation)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deliberately small sweep so the unit test stays fast; the bench
    /// bin runs [`ToleranceConfig::standard`].
    fn small() -> ToleranceConfig {
        ToleranceConfig {
            deployments: vec![6],
            max_f: 2,
            ..ToleranceConfig::standard()
        }
    }

    #[test]
    fn the_small_sweep_measures_every_family_and_renders_json() {
        let report = run_tolerance(&small());
        assert_eq!(report.frontiers.len(), 4, "four families at one N");
        for fr in &report.frontiers {
            assert_eq!(fr.deployment, 6);
            assert_eq!(fr.points.len(), 2, "f swept 1..=2");
            assert!(
                fr.points.iter().all(|p| p.metric.is_finite()),
                "{}: curve must be JSON-safe",
                fr.family
            );
        }
        let kinds: Vec<&str> = report.frontiers.iter().map(|f| f.kind).collect();
        assert!(kinds.contains(&"coalition"));
        assert!(kinds.contains(&"adaptive"));
        assert!(kinds.contains(&"dissemination"));
        let json = report.to_json();
        assert!(json.contains("\"f_star\":"));
        assert!(json.contains("\"first_violation\":"));
        assert!(
            !json.contains(": inf") && !json.contains(": NaN"),
            "non-finite values poison the artifact"
        );
    }

    #[test]
    fn the_small_sweep_survives_two_attackers_in_every_family() {
        let report = run_tolerance(&small());
        for fr in &report.frontiers {
            assert_eq!(
                fr.f_star(),
                2,
                "{} at N=6 must tolerate the swept range: {}",
                fr.family,
                render_tolerance(&report)
            );
        }
        assert!(report.meets_floors(&[
            ("obituary-coalition", 6, 2),
            ("adaptive-leader-hunt", 6, 2),
            ("withholder", 6, 2),
            ("equivocator", 6, 2),
        ]));
        assert!(!report.meets_floors(&[("obituary-coalition", 6, 3)]));
        assert!(!report.meets_floors(&[("no-such-family", 6, 1)]));
    }

    #[test]
    fn reports_are_deterministic() {
        let a = run_tolerance(&small());
        let b = run_tolerance(&small());
        assert_eq!(a.to_json(), b.to_json(), "same config, same frontier");
    }
}
