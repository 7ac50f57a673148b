//! The adversarial experiment family: Byzantine fault injection over the
//! discovery protocol, reported as *surviving guarantees* and *measured
//! degradation*.
//!
//! Beyond the paper (which assumes crash faults only): each of the five
//! attackers from [`fabric_gossip::scenario`] runs against a small
//! deployment twice — a benign baseline and an attacked run — and the
//! outcome records, per attacker, which guarantees held (asserted
//! booleans with a diagnostic detail) and what the attack cost
//! (baseline-vs-attacked metrics). The result is the machine-readable
//! [`AdversarialReport`]; CI persists its JSON next to
//! `BENCH_dissemination.json` and fails when any guarantee falls.
//!
//! | attacker             | survives (asserted)                      | degrades (measured)      |
//! |----------------------|------------------------------------------|--------------------------|
//! | stale replay         | no resurrection below obituary           | alive-msg bytes          |
//! | obituary forgery     | refutation via incarnation bump          | disruption window (s)    |
//! | selective forwarding | joiner still converges                   | join convergence (s)     |
//! | flood amplification  | view agreement + exactly one leader      | discovery bytes          |
//! | eclipse              | honest views clean; one honest seed wins | time-to-escape (s)       |
//!
//! Everything is deterministic: the harness is one seeded simulation (see
//! the [`fabric_gossip::scenario`] determinism section), so the same
//! [`AdversarialConfig`] always yields a byte-identical report.

use desim::Duration;
use fabric_gossip::config::GossipConfig;
use fabric_gossip::scenario::{
    DiscoveryHarness, Eclipser, Flooder, ObituaryForger, Predicate, ScenarioOp, SelectiveForwarder,
    StaleReplayer,
};
use fabric_types::ids::{ChannelId, PeerId};

use crate::report::escape;

/// Configuration of one adversarial sweep.
#[derive(Debug, Clone)]
pub struct AdversarialConfig {
    /// Wire-format label carried into the report (`"full"` / `"delta"`).
    pub mode: &'static str,
    /// The gossip configuration every peer runs (discovery protocol on).
    pub gossip: GossipConfig,
}

impl AdversarialConfig {
    /// The standard sweep: full anti-entropy exchanges, discovery timers
    /// tightened so convergence happens in seconds of scripted time
    /// (the same shape the discovery suite uses).
    pub fn standard() -> Self {
        let mut gossip = GossipConfig::enhanced_f4().with_discovery_protocol();
        gossip.discovery.heartbeat_interval = Duration::from_secs(1);
        gossip.discovery.anti_entropy_interval = Duration::from_secs(1);
        gossip.membership.alive_timeout = Duration::from_secs(5);
        AdversarialConfig {
            mode: "full",
            gossip,
        }
    }

    /// The standard sweep over the byte-lean wire format: delta
    /// anti-entropy plus adaptive heartbeat cadence. The guarantees must
    /// be wire-format independent.
    pub fn standard_delta() -> Self {
        let mut cfg = Self::standard();
        cfg.mode = "delta";
        cfg.gossip.discovery.delta = true;
        cfg.gossip.discovery.adaptive_heartbeat = true;
        cfg
    }
}

/// One asserted guarantee: did it survive the attack?
#[derive(Debug, Clone)]
pub struct Guarantee {
    /// Short stable name (`"no-resurrection"`, ...).
    pub name: &'static str,
    /// Whether the guarantee held in the attacked run.
    pub held: bool,
    /// Diagnostic detail (the failure message, or what was observed).
    pub detail: String,
}

/// One measured degradation: the benign baseline vs the attacked run.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Short stable name (`"alive_msg_bytes"`, ...).
    pub name: &'static str,
    /// The benign run's value.
    pub baseline: f64,
    /// The attacked run's value.
    pub attacked: f64,
    /// Unit label (`"bytes"`, `"secs"`).
    pub unit: &'static str,
}

impl Metric {
    /// Attacked over baseline — how many times worse the attack made it.
    /// Always finite, so it can live inside the JSON artifact (JSON has
    /// no `inf`/`NaN`): a zero-cost baseline (e.g. a disruption window
    /// that simply does not exist in the benign run) reports the attacked
    /// value itself as the factor, clamped to at least 1.0, and 1.0 when
    /// the attack added nothing either.
    pub fn inflation(&self) -> f64 {
        if self.baseline > 0.0 {
            self.attacked / self.baseline
        } else if self.attacked == 0.0 {
            1.0
        } else {
            self.attacked.max(1.0)
        }
    }
}

/// Everything one attacker's scenario produced.
#[derive(Debug, Clone)]
pub struct AttackOutcome {
    /// The attacker's stable name (matches [`fabric_gossip::scenario`]).
    pub attacker: &'static str,
    /// Which peer ran which Byzantine behavior in the attacked run — the
    /// part of the setup the attacker name alone doesn't pin down.
    pub roster: Vec<(PeerId, &'static str)>,
    /// The asserted guarantees.
    pub guarantees: Vec<Guarantee>,
    /// The measured degradations.
    pub metrics: Vec<Metric>,
}

impl AttackOutcome {
    /// Whether every guarantee survived this attacker.
    pub fn all_held(&self) -> bool {
        self.guarantees.iter().all(|g| g.held)
    }
}

/// The machine-readable result of one adversarial sweep.
#[derive(Debug, Clone)]
pub struct AdversarialReport {
    /// Wire-format label of the sweep (`"full"` / `"delta"`).
    pub mode: &'static str,
    /// The harness attack-RNG seed the sweep ran under. Together with the
    /// wire format and each outcome's roster, the artifact pins down the
    /// whole setup: re-running the sweep from the file alone reproduces
    /// it byte-identically (per-peer engine seeds are `9000 + index` by
    /// the harness determinism contract).
    pub seed: u64,
    /// One outcome per attacker, in catalog order.
    pub outcomes: Vec<AttackOutcome>,
}

impl AdversarialReport {
    /// Whether every guarantee of every attacker survived.
    pub fn all_held(&self) -> bool {
        self.outcomes.iter().all(AttackOutcome::all_held)
    }

    /// Renders the report as JSON, one attacker per line (the same
    /// hand-built style as `BENCH_dissemination.json` — no JSON
    /// dependency exists in this offline workspace).
    pub fn to_json(&self) -> String {
        let mut json = String::from("{\n");
        json.push_str(&format!("  \"wire_format\": \"{}\",\n", self.mode));
        json.push_str(&format!("  \"seed\": {},\n", self.seed));
        json.push_str(&format!("  \"all_held\": {},\n", self.all_held()));
        json.push_str("  \"attacks\": [\n");
        for (i, o) in self.outcomes.iter().enumerate() {
            let roster = o
                .roster
                .iter()
                .map(|(p, behavior)| format!("{{\"peer\": {}, \"behavior\": \"{behavior}\"}}", p.0))
                .collect::<Vec<_>>()
                .join(", ");
            let guarantees = o
                .guarantees
                .iter()
                .map(|g| {
                    format!(
                        "{{\"name\": \"{}\", \"held\": {}, \"detail\": \"{}\"}}",
                        g.name,
                        g.held,
                        escape(&g.detail)
                    )
                })
                .collect::<Vec<_>>()
                .join(", ");
            let metrics = o
                .metrics
                .iter()
                .map(|m| {
                    format!(
                        "{{\"name\": \"{}\", \"baseline\": {:.3}, \"attacked\": {:.3}, \"inflation\": {:.3}, \"unit\": \"{}\"}}",
                        m.name, m.baseline, m.attacked, m.inflation(), m.unit
                    )
                })
                .collect::<Vec<_>>()
                .join(", ");
            json.push_str(&format!(
                "    {{\"attacker\": \"{}\", \"all_held\": {}, \"roster\": [{}], \"guarantees\": [{}], \"metrics\": [{}]}}{}\n",
                o.attacker,
                o.all_held(),
                roster,
                guarantees,
                metrics,
                if i + 1 < self.outcomes.len() { "," } else { "" }
            ));
        }
        json.push_str("  ]\n}\n");
        json
    }
}

/// Runs the whole attacker catalog under `cfg` and collects the report.
pub fn run_adversarial(cfg: &AdversarialConfig) -> AdversarialReport {
    AdversarialReport {
        mode: cfg.mode,
        seed: DiscoveryHarness::SEED,
        outcomes: vec![
            stale_replay(cfg),
            obituary_forgery(cfg),
            selective_forwarding(cfg),
            flood_amplification(cfg),
            eclipse(cfg),
        ],
    }
}

/// Paper-style text rendering of one sweep.
pub fn render_adversarial(report: &AdversarialReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Adversarial sweep — {} anti-entropy ({})\n",
        report.mode,
        if report.all_held() {
            "all guarantees held"
        } else {
            "GUARANTEES VIOLATED"
        }
    ));
    for o in &report.outcomes {
        out.push_str(&format!("  {}\n", o.attacker));
        for g in &o.guarantees {
            out.push_str(&format!(
                "    [{}] {}: {}\n",
                if g.held { "ok" } else { "FAIL" },
                g.name,
                g.detail
            ));
        }
        for m in &o.metrics {
            let ratio = match m.inflation() {
                r if r.is_finite() => format!(" ({r:.2}x)"),
                _ => String::new(),
            };
            out.push_str(&format!(
                "    {} {}: baseline {:.1} -> attacked {:.1}{ratio}\n",
                m.name, m.unit, m.baseline, m.attacked
            ));
        }
    }
    out
}

/// The three core invariants every attacked network must settle to.
fn core_asserts(channel: usize) -> [ScenarioOp; 3] {
    [
        ScenarioOp::Assert(Predicate::ViewAgreement { channel }),
        ScenarioOp::Assert(Predicate::ExactlyOneLeader { channel }),
        ScenarioOp::Assert(Predicate::NoResurrectionBelowObituary { channel }),
    ]
}

/// Attacker 1 — stale-incarnation replay. A member leaves and is reaped
/// while the attacker replays its first-life claims; the reaped peer must
/// stay dead, and the spam shows up as alive-msg bytes.
fn stale_replay(cfg: &AdversarialConfig) -> AttackOutcome {
    let run = |attach: bool| -> (Result<(), String>, u64) {
        let members: Vec<PeerId> = (0..6).map(PeerId).collect();
        let mut net = DiscoveryHarness::new(6, vec![members], &cfg.gossip);
        if attach {
            net.set_byzantine(PeerId(4), Box::new(StaleReplayer::new(2)));
        }
        let mut script = vec![
            ScenarioOp::Wait { secs: 3 },
            ScenarioOp::Leave {
                channel: 0,
                peer: PeerId(3),
            },
            ScenarioOp::Wait { secs: 20 },
        ];
        script.extend(core_asserts(0));
        let res = net.run_script(&script).map_err(|e| e.to_string());
        (res, net.wire_bytes_of_kind("alive-msg"))
    };
    let (_, baseline_bytes) = run(false);
    let (attacked, attacked_bytes) = run(true);
    AttackOutcome {
        attacker: "stale-replay",
        roster: vec![(PeerId(4), "stale-replay")],
        guarantees: vec![Guarantee {
            name: "no-resurrection-below-obituary",
            held: attacked.is_ok(),
            detail: attacked
                .err()
                .unwrap_or_else(|| "replayed claims stayed inert; views settled".into()),
        }],
        metrics: vec![Metric {
            name: "alive_msg_bytes",
            baseline: baseline_bytes as f64,
            attacked: attacked_bytes as f64,
            unit: "bytes",
        }],
    }
}

/// Attacker 2 — obituary forgery. The forged deaths must disrupt views
/// only for a bounded window until the victim's incarnation bump refutes
/// them; the window is the measured cost.
fn obituary_forgery(cfg: &AdversarialConfig) -> AttackOutcome {
    let victim = PeerId(2);
    let members: Vec<PeerId> = (0..6).map(PeerId).collect();
    let mut net = DiscoveryHarness::new(6, vec![members], &cfg.gossip);
    net.run_for(Duration::from_secs(3));
    let inc_before = net
        .gossip(0)
        .discovery_on(ChannelId(0))
        .and_then(|e| e.claim_of(victim))
        .map(|c| c.incarnation)
        .unwrap_or(0);

    net.set_byzantine(PeerId(4), Box::new(ObituaryForger::new(victim, 2)));
    let mut disrupted_at = None;
    let mut healed_at = None;
    for tick in 0..60u64 {
        net.run_for(Duration::from_millis(500));
        let converged = net.views_converged(0);
        if !converged && disrupted_at.is_none() {
            disrupted_at = Some(tick);
        }
        if converged && disrupted_at.is_some() {
            healed_at = Some(tick);
            break;
        }
    }
    let disruption_secs = match (disrupted_at, healed_at) {
        (Some(d), Some(h)) => (h - d) as f64 * 0.5,
        _ => 30.0, // never healed (or never landed): report the horizon
    };
    let inc_after = net
        .gossip(0)
        .discovery_on(ChannelId(0))
        .and_then(|e| e.claim_of(victim))
        .map(|c| c.incarnation)
        .unwrap_or(0);
    let refuted = healed_at.is_some() && inc_after > inc_before;
    let settled = net.check(&Predicate::NoResurrectionBelowObituary { channel: 0 });
    AttackOutcome {
        attacker: "obituary-forgery",
        roster: vec![(PeerId(4), "obituary-forger")],
        guarantees: vec![
            Guarantee {
                name: "refutation-via-incarnation-bump",
                held: refuted,
                detail: format!(
                    "victim incarnation {inc_before} -> {inc_after}, views healed: {}",
                    healed_at.is_some()
                ),
            },
            Guarantee {
                name: "no-resurrection-below-obituary",
                held: settled.is_ok(),
                detail: settled
                    .err()
                    .unwrap_or_else(|| "the bump is a new life, not a resurrection".into()),
            },
        ],
        metrics: vec![Metric {
            name: "disruption_window",
            baseline: 0.0,
            attacked: disruption_secs,
            unit: "secs",
        }],
    }
}

/// Attacker 3 — selective forwarding. The attacker drops anti-entropy
/// toward two targets; a runtime joiner must still converge through the
/// redundant honest paths, measurably slower.
fn selective_forwarding(cfg: &AdversarialConfig) -> AttackOutcome {
    const LIMIT: u64 = 30;
    let join_secs = |attach: bool| -> Option<u64> {
        let members: Vec<PeerId> = (0..6).map(PeerId).collect();
        let mut net = DiscoveryHarness::new(8, vec![members], &cfg.gossip);
        if attach {
            net.set_byzantine(
                PeerId(4),
                Box::new(SelectiveForwarder::new(vec![PeerId(0), PeerId(1)])),
            );
        }
        net.run_for(Duration::from_secs(3));
        net.join(0, PeerId(6));
        let secs = net.converge_within(0, LIMIT)?;
        (net.leaders(0).len() == 1).then_some(secs)
    };
    let baseline = join_secs(false);
    let attacked = join_secs(true);
    AttackOutcome {
        attacker: "selective-forwarding",
        roster: vec![(PeerId(4), "selective-forwarder")],
        guarantees: vec![Guarantee {
            name: "joiner-converges-on-redundancy",
            held: attacked.is_some(),
            detail: match attacked {
                Some(s) => format!("joiner converged in {s}s despite dropped anti-entropy"),
                None => format!("joiner failed to converge within {LIMIT}s"),
            },
        }],
        metrics: vec![Metric {
            name: "join_convergence",
            baseline: baseline.unwrap_or(LIMIT) as f64,
            attacked: attacked.unwrap_or(LIMIT) as f64,
            unit: "secs",
        }],
    }
}

/// Attacker 4 — flood amplification. The spam is protocol-valid and
/// idempotent, so views and leadership must hold; the inflation of the
/// discovery byte bill is the measured damage.
fn flood_amplification(cfg: &AdversarialConfig) -> AttackOutcome {
    let run = |attach: bool| -> (Result<(), String>, u64) {
        let members: Vec<PeerId> = (0..6).map(PeerId).collect();
        let mut net = DiscoveryHarness::new(6, vec![members], &cfg.gossip);
        if attach {
            net.set_byzantine(PeerId(4), Box::new(Flooder::new(6)));
        }
        let mut script = vec![ScenarioOp::Wait { secs: 30 }];
        script.extend(core_asserts(0));
        let res = net.run_script(&script).map_err(|e| e.to_string());
        (res, net.discovery_wire_bytes())
    };
    let (_, baseline_bytes) = run(false);
    let (attacked, attacked_bytes) = run(true);
    AttackOutcome {
        attacker: "flood-amplification",
        roster: vec![(PeerId(4), "flooder")],
        guarantees: vec![Guarantee {
            name: "views-and-leadership-hold",
            held: attacked.is_ok(),
            detail: attacked
                .err()
                .unwrap_or_else(|| "flooded views still agree with one leader".into()),
        }],
        metrics: vec![Metric {
            name: "discovery_bytes",
            baseline: baseline_bytes as f64,
            attacked: attacked_bytes as f64,
            unit: "bytes",
        }],
    }
}

/// Attacker 5 — eclipse on a runtime joiner. A victim bootstrapping
/// through the attacker alone is starved indefinitely without leaking
/// into honest views; one honest bootstrap seed breaks the eclipse in
/// measured time.
fn eclipse(cfg: &AdversarialConfig) -> AttackOutcome {
    const LIMIT: u64 = 60;
    let members: Vec<PeerId> = (0..5).map(PeerId).collect();
    let attacker = PeerId(3);
    let victim = PeerId(5);
    let honest: Vec<PeerId> = members.iter().copied().filter(|p| *p != attacker).collect();

    // Full eclipse: the attacker is the only seed; the honest world must
    // stay clean (the victim never leaks into it).
    let mut net = DiscoveryHarness::new(6, vec![members.clone()], &cfg.gossip);
    net.run_for(Duration::from_secs(3));
    net.set_byzantine(attacker, Box::new(Eclipser::new(victim)));
    net.join_via(0, victim, &[attacker]);
    net.run_for(Duration::from_secs(20));
    let eclipsed_view = net.view_of(victim, 0);
    let honest_clean = net.views_agree_among(0, &honest, &members);

    // One honest seed: measured time until any honest peer enters the
    // victim's view. The benign baseline joins through the same two
    // seeds with no attacker attached.
    let escape = |attach: bool| -> Option<u64> {
        let mut net = DiscoveryHarness::new(6, vec![members.clone()], &cfg.gossip);
        net.run_for(Duration::from_secs(3));
        if attach {
            net.set_byzantine(attacker, Box::new(Eclipser::new(victim)));
        }
        net.join_via(0, victim, &[attacker, PeerId(0)]);
        net.secs_until(LIMIT, |net| {
            let view = net.view_of(victim, 0);
            honest.iter().any(|h| view.contains(h))
        })
    };
    let baseline = escape(false);
    let attacked = escape(true);
    AttackOutcome {
        attacker: "eclipse",
        roster: vec![(attacker, "eclipser")],
        guarantees: vec![
            Guarantee {
                name: "honest-views-stay-clean",
                held: honest_clean && eclipsed_view == vec![attacker],
                detail: format!(
                    "fully eclipsed victim sees {eclipsed_view:?}; honest views clean: \
                     {honest_clean}"
                ),
            },
            Guarantee {
                name: "one-honest-seed-defeats-it",
                held: attacked.is_some(),
                detail: match attacked {
                    Some(s) => format!("escaped through the honest seed in {s}s"),
                    None => format!("still eclipsed after {LIMIT}s despite an honest seed"),
                },
            },
        ],
        metrics: vec![Metric {
            name: "time_to_escape",
            baseline: baseline.unwrap_or(LIMIT) as f64,
            attacked: attacked.unwrap_or(LIMIT) as f64,
            unit: "secs",
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_full_sweep_holds_every_guarantee_and_measures_every_attack() {
        let report = run_adversarial(&AdversarialConfig::standard());
        assert_eq!(report.mode, "full");
        assert_eq!(report.outcomes.len(), 5, "the whole attacker catalog");
        for o in &report.outcomes {
            assert!(
                !o.guarantees.is_empty() && !o.metrics.is_empty(),
                "{}: every attacker asserts a guarantee and measures a cost",
                o.attacker
            );
        }
        assert!(report.all_held(), "{}", render_adversarial(&report));
    }

    #[test]
    fn the_delta_sweep_inherits_the_guarantees() {
        let report = run_adversarial(&AdversarialConfig::standard_delta());
        assert_eq!(report.mode, "delta");
        assert!(report.all_held(), "{}", render_adversarial(&report));
    }

    #[test]
    fn the_attacks_cost_something_measurable() {
        let report = run_adversarial(&AdversarialConfig::standard());
        let of = |name: &str| {
            report
                .outcomes
                .iter()
                .find(|o| o.attacker == name)
                .unwrap_or_else(|| panic!("missing outcome {name}"))
        };
        let replay = &of("stale-replay").metrics[0];
        assert!(
            replay.attacked > replay.baseline,
            "replay spam must inflate alive-msg bytes: {replay:?}"
        );
        let flood = &of("flood-amplification").metrics[0];
        assert!(
            flood.inflation() > 1.5,
            "a 6x flooder must inflate discovery bytes: {flood:?}"
        );
        let forgery = &of("obituary-forgery").metrics[0];
        assert!(
            forgery.attacked > 0.0,
            "the forged obituary must disrupt views for a nonzero window: {forgery:?}"
        );
        let selective = &of("selective-forwarding").metrics[0];
        assert!(
            selective.attacked >= selective.baseline,
            "dropping anti-entropy cannot speed convergence up: {selective:?}"
        );
    }

    #[test]
    fn reports_are_deterministic_and_render_as_json() {
        let a = run_adversarial(&AdversarialConfig::standard());
        let b = run_adversarial(&AdversarialConfig::standard());
        assert_eq!(a.to_json(), b.to_json(), "same config, same report");
        let json = a.to_json();
        assert!(json.contains("\"wire_format\": \"full\""));
        assert!(json.contains(&format!("\"seed\": {}", DiscoveryHarness::SEED)));
        assert!(json.contains("\"all_held\": true"));
        for name in [
            "stale-replay",
            "obituary-forgery",
            "selective-forwarding",
            "flood-amplification",
            "eclipse",
        ] {
            assert!(json.contains(name), "JSON must list {name}");
        }
        // The roster makes the artifact self-describing: who ran what.
        assert!(
            json.contains("{\"peer\": 4, \"behavior\": \"obituary-forger\"}"),
            "rosters must name the compromised peers"
        );
    }

    #[test]
    fn inflation_is_finite_even_on_a_zero_baseline_and_never_poisons_the_json() {
        let zero_zero = Metric {
            name: "m",
            baseline: 0.0,
            attacked: 0.0,
            unit: "secs",
        };
        assert_eq!(zero_zero.inflation(), 1.0);
        let zero_some = Metric {
            name: "m",
            baseline: 0.0,
            attacked: 8.5,
            unit: "secs",
        };
        assert!(zero_some.inflation().is_finite());
        assert_eq!(zero_some.inflation(), 8.5);
        let zero_tiny = Metric {
            name: "m",
            baseline: 0.0,
            attacked: 0.25,
            unit: "secs",
        };
        assert_eq!(zero_tiny.inflation(), 1.0, "clamped to at least 1.0");
        // The forgery metric has a genuinely zero baseline (no disruption
        // window exists in a benign run): the rendered artifact must stay
        // valid JSON — no inf, no NaN.
        let report = run_adversarial(&AdversarialConfig::standard());
        let json = report.to_json();
        assert!(
            !json.contains(": inf") && !json.contains(": -inf") && !json.contains(": NaN"),
            "non-finite values poison the JSON artifact"
        );
        assert!(json.contains("\"inflation\":"));
    }
}
