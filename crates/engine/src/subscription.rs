//! Subscriptions: what clients register, and how results reach them.

use crate::config::ShardId;
use std::fmt;
use std::sync::{Arc, Mutex};
use stem_cep::{ConsumptionMode, Pattern, SustainedConfig, SustainedEvent};
use stem_core::{
    ConditionExpr, ConditionObserver, EventDefinition, EventId, EventInstance, Layer, Provenance,
};
use stem_spatial::{Point, SpatialExtent};
use stem_temporal::Duration;

/// Identifies a registered subscription (assigned by the engine,
/// ascending in registration order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SubscriptionId(pub(crate) u64);

impl SubscriptionId {
    /// The raw id.
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for SubscriptionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sub{}", self.0)
    }
}

/// A composite pattern to match over the subscription's instance stream
/// (evaluated with the full SnoopIB machinery of [`stem_cep`]).
#[derive(Debug, Clone)]
pub struct PatternSpec {
    /// The pattern (sequence / conjunction / disjunction / negation).
    pub pattern: Pattern,
    /// Consumption mode for partial matches.
    pub mode: ConsumptionMode,
    /// Optional horizon: constituents further apart than this never
    /// join a match.
    pub horizon: Option<Duration>,
}

/// Where a sustained detection's sample value comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum SustainedValue {
    /// The subscription's condition outcome, sampled as 1.0 / 0.0.
    Condition,
    /// A numeric attribute of each instance.
    Attribute(String),
    /// The distance from the instance's estimated location to a fixed
    /// reference point (proximity episodes: "user nearby window B").
    DistanceTo(Point),
}

/// Closes sustained episodes when a subscription's input goes quiet.
///
/// A sustained detector only advances on samples; if the target leaves
/// every producer's range, the final episode would stay open forever.
/// Drivers send [`crate::Engine::probe_silence`] heartbeats; a probe
/// finding no input for `timeout` feeds `inactive_value` so the episode
/// can end.
#[derive(Debug, Clone, PartialEq)]
pub struct SilenceSpec {
    /// The probe feeds the inactive value only when no input arrived for
    /// at least this long.
    pub timeout: Duration,
    /// The sample fed on a stale probe, on the *transformed* axis (after
    /// any [`SustainedSpec::negate`]): it must sit below the detector's
    /// exit threshold so open episodes close.
    pub inactive_value: f64,
}

/// A sustained ("interval event") detection to run over the
/// subscription's instance stream.
#[derive(Debug, Clone)]
pub struct SustainedSpec {
    /// Minimum duration / hysteresis configuration, on the transformed
    /// axis (pre-negated thresholds for below-style episodes).
    pub config: SustainedConfig,
    /// Where sample values come from.
    pub value: SustainedValue,
    /// Negate extracted samples before feeding the detector ("value
    /// stays *below* a threshold" episodes run on the negated axis).
    pub negate: bool,
    /// Optional silence handling (see [`SilenceSpec`]).
    pub silence: Option<SilenceSpec>,
}

/// What a subscription delivered.
#[derive(Debug, Clone, PartialEq)]
pub enum NotificationKind {
    /// A raw instance inside the region that passed the condition.
    Match(EventInstance),
    /// A derived instance generated from a completed pattern match whose
    /// composite condition held.
    Derived(EventInstance),
    /// A sustained-condition episode began or ended.
    Sustained(SustainedEvent),
}

/// One delivery to a subscription's sink.
#[derive(Debug, Clone)]
pub struct Notification {
    /// The subscription this delivery belongs to.
    pub subscription: SubscriptionId,
    /// The shard that evaluated it.
    pub shard: ShardId,
    /// What happened.
    pub kind: NotificationKind,
    /// Causal provenance: which ingested instances contributed, stamped
    /// per pipeline stage. `None` with [`crate::TracePolicy::Off`];
    /// boxed so the untraced notification stays one pointer wider, not
    /// a struct wider.
    pub provenance: Option<Box<Provenance>>,
}

/// Equality deliberately ignores provenance: two runs of the same
/// stream produce equal notifications even when one traced and the
/// other did not (and stamp values are timing-dependent in threaded
/// mode). Tests comparing DES output against engine output, and engine
/// runs across shard counts, rely on this.
impl PartialEq for Notification {
    fn eq(&self, other: &Self) -> bool {
        self.subscription == other.subscription
            && self.shard == other.shard
            && self.kind == other.kind
    }
}

/// Where a subscription's notifications go. Sinks are called from shard
/// worker threads, hence `Send + Sync` and `&self`.
pub trait EventSink: Send + Sync {
    /// Delivers one notification.
    fn deliver(&self, notification: Notification);
}

/// Unbounded channel senders are lossless sinks: subscribe with the
/// sending half and consume matches from the receiving half. A dropped
/// receiver just discards deliveries.
impl EventSink for std::sync::mpsc::Sender<Notification> {
    fn deliver(&self, notification: Notification) {
        let _ = self.send(notification);
    }
}

/// Bounded channel senders are **lossy** sinks: a full channel drops
/// the notification rather than blocking the shard worker (blocking
/// here could deadlock a consumer that drains only after `finish()`).
/// Use an unbounded [`std::sync::mpsc::Sender`] or a [`Collector`]
/// when every notification matters.
impl EventSink for std::sync::mpsc::SyncSender<Notification> {
    fn deliver(&self, notification: Notification) {
        let _ = self.try_send(notification);
    }
}

/// An in-memory sink collecting every notification, for tests, benches,
/// and batch-style consumers.
///
/// Cloning shares the underlying buffer.
#[derive(Debug, Clone, Default)]
pub struct Collector {
    inner: Arc<Mutex<Vec<Notification>>>,
}

impl Collector {
    /// Creates an empty collector.
    #[must_use]
    pub fn new() -> Self {
        Collector::default()
    }

    /// A sink handle delivering into this collector.
    #[must_use]
    pub fn sink(&self) -> Box<dyn EventSink> {
        Box::new(Collector {
            inner: Arc::clone(&self.inner),
        })
    }

    /// Number of notifications collected so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().expect("collector poisoned").len()
    }

    /// Whether nothing has been collected.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes and returns everything collected, in delivery order.
    #[must_use]
    pub fn take(&self) -> Vec<Notification> {
        std::mem::take(&mut *self.inner.lock().expect("collector poisoned"))
    }
}

impl EventSink for Collector {
    fn deliver(&self, notification: Notification) {
        self.inner
            .lock()
            .expect("collector poisoned")
            .push(notification);
    }
}

/// A client's standing request: "over this region, watch for this".
///
/// Exactly one evaluation style applies, chosen by what is configured:
///
/// * only a condition (or nothing): every in-region instance passing the
///   condition is delivered as [`NotificationKind::Match`];
/// * a [`PatternSpec`]: in-region, condition-passing instances feed a
///   pattern detector and completed matches generate
///   [`NotificationKind::Derived`] instances (the composite condition is
///   evaluated over the match's bindings, paper Eq. 4.5);
/// * a [`SustainedSpec`]: in-region instances are samples of a sustained
///   condition and episodes are delivered as
///   [`NotificationKind::Sustained`].
pub struct Subscription {
    /// Name for instances this subscription derives (the `E_id` of its
    /// outputs, and its diagnostic label).
    pub name: EventId,
    /// The spatial region of interest.
    pub region: SpatialExtent,
    /// Routing scope: the region of the plane where instances this
    /// subscription must observe can occur, used by the router's
    /// interest index, home-shard assignment, and precision pass
    /// (instances outside it are pruned *before* evaluation). `None`
    /// defaults to `region` — the right answer for plain regional
    /// subscriptions.
    ///
    /// Set it explicitly when the semantic `region` and the physical
    /// arrival footprint differ: a station watching its whole logical
    /// stream (`region` = everywhere) scopes down to the deployment's
    /// sensing extent so sharding buys pruning, and a detector tracking
    /// a mobile target pads its region by the mobility slack. The scope
    /// must *cover* every location of an instance the subscription
    /// should observe — in-scope deliveries are never dropped, but an
    /// instance outside the scope never reaches the detector.
    pub scope: Option<SpatialExtent>,
    /// Only instances of this event type are considered (`None` = all).
    pub event_filter: Option<EventId>,
    /// Only instances at these model layers are considered (`None` =
    /// all). A station-style subscription (a sink watching the sensor
    /// layer, a CCU watching cyber-physical and cyber) uses this so one
    /// engine can host several Fig. 1 stations without cross-talk.
    pub layers: Option<Vec<Layer>>,
    /// Condition over each candidate instance (entities in the
    /// condition all bind to the instance) or, with a pattern, over the
    /// match's bindings.
    pub condition: Option<ConditionExpr>,
    /// Composite pattern to match, if any.
    pub pattern: Option<PatternSpec>,
    /// Sustained detection, if any (ignored when a pattern is set).
    pub sustained: Option<SustainedSpec>,
    /// For pattern subscriptions: the full event definition (estimation
    /// policies, projections, layer) used to generate derived instances.
    /// `None` derives a default cyber-layer definition from `name` and
    /// `condition`.
    pub definition: Option<EventDefinition>,
    /// For pattern subscriptions: the observer identity generating
    /// derived instances. `None` synthesizes one from the subscription
    /// id (shard-count-invariant but engine-assigned).
    pub observer: Option<ConditionObserver>,
    /// Pins the home shard to the owner of this point instead of the
    /// region's center — lets registrants spread full-stream (`region` =
    /// everywhere) subscriptions across shards.
    pub home_hint: Option<Point>,
    /// Where notifications go.
    pub sink: Box<dyn EventSink>,
}

impl fmt::Debug for Subscription {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Subscription")
            .field("name", &self.name)
            .field("region", &self.region)
            .field("scope", &self.scope)
            .field("event_filter", &self.event_filter)
            .field("condition", &self.condition)
            .field("pattern", &self.pattern)
            .field("sustained", &self.sustained)
            .finish_non_exhaustive()
    }
}

impl Subscription {
    /// Creates a subscription over `region` delivering to `sink`.
    #[must_use]
    pub fn new(name: impl Into<EventId>, region: SpatialExtent, sink: Box<dyn EventSink>) -> Self {
        Subscription {
            name: name.into(),
            region,
            scope: None,
            event_filter: None,
            layers: None,
            condition: None,
            pattern: None,
            sustained: None,
            definition: None,
            observer: None,
            home_hint: None,
            sink,
        }
    }

    /// Restricts the subscription to one constituent event type.
    #[must_use]
    pub fn for_event(mut self, event: impl Into<EventId>) -> Self {
        self.event_filter = Some(event.into());
        self
    }

    /// Sets the routing scope (see [`Subscription::scope`]).
    #[must_use]
    pub fn scoped_to(mut self, scope: SpatialExtent) -> Self {
        self.scope = Some(scope);
        self
    }

    /// The extent routing and per-shard pruning use: the explicit scope
    /// when one was set, the semantic region otherwise.
    #[must_use]
    pub fn routing_scope(&self) -> &SpatialExtent {
        self.scope.as_ref().unwrap_or(&self.region)
    }

    /// Restricts the subscription to instances at the given layers.
    #[must_use]
    pub fn at_layers(mut self, layers: impl Into<Vec<Layer>>) -> Self {
        self.layers = Some(layers.into());
        self
    }

    /// Adds a condition.
    #[must_use]
    pub fn when(mut self, condition: ConditionExpr) -> Self {
        self.condition = Some(condition);
        self
    }

    /// Adds a composite pattern.
    #[must_use]
    pub fn matching(
        mut self,
        pattern: Pattern,
        mode: ConsumptionMode,
        horizon: Option<Duration>,
    ) -> Self {
        self.pattern = Some(PatternSpec {
            pattern,
            mode,
            horizon,
        });
        self
    }

    /// Adds sustained (interval-event) detection sampling `attribute`
    /// (or the condition outcome when `None`).
    #[must_use]
    pub fn sustained(mut self, config: SustainedConfig, attribute: Option<String>) -> Self {
        self.sustained = Some(SustainedSpec {
            config,
            value: attribute.map_or(SustainedValue::Condition, SustainedValue::Attribute),
            negate: false,
            silence: None,
        });
        self
    }

    /// Adds sustained detection from a full spec (value source, axis
    /// negation, silence handling).
    #[must_use]
    pub fn sustained_spec(mut self, spec: SustainedSpec) -> Self {
        self.sustained = Some(spec);
        self
    }

    /// Overrides the event definition used to generate derived
    /// instances from pattern matches.
    #[must_use]
    pub fn with_definition(mut self, definition: EventDefinition) -> Self {
        self.definition = Some(definition);
        self
    }

    /// Overrides the observer identity generating derived instances.
    #[must_use]
    pub fn observed_by(mut self, observer: ConditionObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Pins the home shard to the owner of `point`.
    #[must_use]
    pub fn homed_near(mut self, point: Point) -> Self {
        self.home_hint = Some(point);
        self
    }
}
