//! Plan canonicalization: collapsing structurally identical
//! subscriptions onto shared detector plans.
//!
//! The paper's workload is many observers posing the *same*
//! spatio-temporal question over different sinks: 10⁵–10⁶ stations
//! whose conditions differ only in who gets told. Evaluating one
//! detector per subscriber makes dispatch cost scale with the
//! population; evaluating one detector per *template* makes it scale
//! with the number of distinct questions. At registration the engine
//! canonicalizes each [`crate::Subscription`] into a **plan key** — a
//! string encoding of every field that influences what the detector
//! computes (region, event/layer filters, condition, pattern or
//! sustained shape, home shard) with subscriber identity (name, sink,
//! delivered count) abstracted out — and subscriptions with equal keys
//! share ONE detector instance in the shard worker, fanning its output
//! out to a subscriber list. Every subscription is a plan; one that
//! cannot share is simply a plan with one subscriber.
//!
//! What does *not* dedupe, and why:
//!
//! * **Pattern subscriptions without an explicit observer** — the
//!   default [`stem_core::ConditionObserver`] is synthesized from the
//!   subscription id, so two anonymous pattern subscriptions emit
//!   *different* derived instances and cannot share.
//! * **Sustained subscriptions with a silence policy** — a silence
//!   probe closes the episode the moment one subscriber's timeout
//!   fires; a shared detector would end the episode for every
//!   subscriber on the *first* probe and starve the rest.
//! * **Stateful plans (pattern / sustained) with different scopes** —
//!   the scope gates which instances *feed the detector*, so detector
//!   state diverges across scopes; the scope is part of their key.
//!   Plain conditions are pure, so their scope stays out of the key
//!   and is re-checked per subscriber at fan-out instead.
//!
//! Sharing is correctness-preserving: a plan's home shard is computed
//! from the subscription alone before the key is looked up, evaluation
//! outputs are memoized per instance and fanned out in subscriber
//! registration order, and per-subscriber scope gates reproduce each
//! subscription's own prune decisions — so every subscriber receives
//! exactly what it would receive registered alone (content, order, and
//! `Notification::shard`).

use crate::config::ShardId;
use crate::subscription::{Subscription, SubscriptionId};
use std::fmt::{self, Write as _};

/// Identifies one shared detector plan (dense, allocated in
/// registration order so recovery re-derives the same ids).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct PlanId(pub(crate) u64);

impl PlanId {
    /// The raw id.
    pub(crate) fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for PlanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "plan{}", self.0)
    }
}

/// Canonicalizes a subscription into its plan key. Subscriptions with
/// equal keys are evaluation-equivalent and share one detector; a
/// non-shareable subscription gets a key unique to its id, i.e. a plan
/// with one subscriber.
pub(crate) fn plan_key(sub: &Subscription, home: ShardId, id: SubscriptionId) -> String {
    if sub.pattern.is_some() && sub.observer.is_none() {
        // The default observer identity is keyed by subscription id, so
        // derived instances differ per subscriber.
        return format!("pattern-anon:{}", id.raw());
    }
    if sub.sustained.as_ref().is_some_and(|s| s.silence.is_some()) {
        // Silence probes are addressed to one subscriber's episode
        // clock; sharing would close everyone's episode on the first
        // probe.
        return format!("sustained-silence:{}", id.raw());
    }
    // Dispatch-level filters are plan-level for every kind: home shard,
    // region, event filter, layer filter.
    let mut key = String::new();
    let _ = write!(
        key,
        "h{home}|r{:?}|e{:?}|l{:?}",
        sub.region, sub.event_filter, sub.layers
    );
    if let Some(spec) = &sub.pattern {
        // Stateful: the scope gates the detector's input stream, so it
        // is part of the template. The condition only matters through
        // the default definition (an explicit definition supersedes it).
        let _ = write!(
            key,
            "|P{:?}|m{:?}|z{:?}",
            spec.pattern, spec.mode, spec.horizon
        );
        match &sub.definition {
            Some(def) => {
                let _ = write!(key, "|d{def:?}");
            }
            None => {
                let _ = write!(key, "|n{:?}|c{:?}", sub.name, sub.condition);
            }
        }
        let _ = write!(key, "|o{:?}|s{:?}", sub.observer, sub.scope);
    } else if let Some(spec) = &sub.sustained {
        // Stateful, same scope rule; silence is None here by the guard
        // above.
        let _ = write!(
            key,
            "|S{:?}|v{:?}|g{}|c{:?}|s{:?}",
            spec.config, spec.value, spec.negate, sub.condition, sub.scope
        );
    } else {
        // Plain conditions are pure: scope, name, and sink stay out of
        // the key and are re-applied per subscriber at fan-out.
        let _ = write!(key, "|c{:?}", sub.condition);
    }
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subscription::{SilenceSpec, Subscription, SustainedSpec, SustainedValue};
    use stem_cep::{ConsumptionMode, Pattern, SustainedConfig};
    use stem_core::{dsl, CcuId, ConditionObserver, ObserverId};
    use stem_spatial::{Circle, Field, Point, SpatialExtent};
    use stem_temporal::Duration;

    fn region() -> SpatialExtent {
        SpatialExtent::field(Field::circle(Circle::new(Point::new(30.0, 30.0), 20.0)))
    }

    fn plain(name: &str) -> Subscription {
        Subscription::new(name, region(), crate::subscription::Collector::new().sink())
            .for_event("reading")
            .when(dsl::parse("x.temp > 45").unwrap())
    }

    #[test]
    fn identical_plain_templates_share_regardless_of_name_and_sink() {
        let a = plan_key(&plain("station-1"), 0, SubscriptionId(0));
        let b = plan_key(&plain("station-2"), 0, SubscriptionId(1));
        assert_eq!(a, b, "name and sink are subscriber identity, not template");
    }

    #[test]
    fn condition_region_and_home_all_split_plans() {
        let base = plan_key(&plain("s"), 0, SubscriptionId(0));
        let cold = plain("s").when(dsl::parse("x.temp > 90").unwrap());
        assert_ne!(base, plan_key(&cold, 0, SubscriptionId(1)));
        let elsewhere = Subscription::new(
            "s",
            SpatialExtent::field(Field::circle(Circle::new(Point::new(70.0, 70.0), 20.0))),
            crate::subscription::Collector::new().sink(),
        )
        .for_event("reading")
        .when(dsl::parse("x.temp > 45").unwrap());
        assert_ne!(base, plan_key(&elsewhere, 0, SubscriptionId(2)));
        assert_ne!(base, plan_key(&plain("s"), 1, SubscriptionId(3)));
    }

    #[test]
    fn anonymous_patterns_and_silence_sustained_never_share() {
        let pat = |i: u64| {
            let sub = plain("p").matching(
                Pattern::atom("a", "door").then(Pattern::atom("b", "motion")),
                ConsumptionMode::Chronicle,
                None,
            );
            plan_key(&sub, 0, SubscriptionId(i))
        };
        assert_ne!(pat(0), pat(1), "default observer is keyed by id");

        let observed = |i: u64| {
            let sub = plain("p")
                .matching(
                    Pattern::atom("a", "door").then(Pattern::atom("b", "motion")),
                    ConsumptionMode::Chronicle,
                    None,
                )
                .observed_by(ConditionObserver::new(
                    ObserverId::Ccu(CcuId::new(7)),
                    Point::new(30.0, 30.0),
                    1.0,
                ));
            plan_key(&sub, 0, SubscriptionId(i))
        };
        assert_eq!(observed(0), observed(1), "explicit observer shares");

        let sustained = |silence: Option<SilenceSpec>, i: u64| {
            let sub = plain("w").sustained_spec(SustainedSpec {
                config: SustainedConfig::boolean(Duration::new(10)),
                value: SustainedValue::Condition,
                negate: false,
                silence,
            });
            plan_key(&sub, 0, SubscriptionId(i))
        };
        let quiet = Some(SilenceSpec {
            timeout: Duration::new(30),
            inactive_value: 0.0,
        });
        assert_ne!(
            sustained(quiet.clone(), 0),
            sustained(quiet, 1),
            "silence-policied sustained plans stay per-subscriber"
        );
        assert_eq!(sustained(None, 0), sustained(None, 1));
    }
}
