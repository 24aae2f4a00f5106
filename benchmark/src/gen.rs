//! Seeded input streams, one generator family for every workload.
//!
//! Instance `g` (its *generation index*) is generated at tick
//! `4g + r`, `r` in `0..4`, so generation times are unique and a
//! notification maps back to its instance by `time / 4` without any
//! engine tracing. Arrival order is the generation order sorted by
//! `g + delay(g)` with every delay below the workload's shuffle bound,
//! which bounds each instance's displacement by that many positions.

use crate::rng::{mix64, Rng};
use std::sync::Arc;
use stem_core::{Attributes, EventId, EventInstance, Layer, MoteId, ObserverId, SeqNo};
use stem_spatial::{Point, Rect};
use stem_temporal::TimePoint;

/// Side of the square world.
pub const WORLD: f64 = 1_000.0;
/// Ticks between consecutive generation indices.
pub const TICKS_PER_INSTANCE: u64 = 4;
const MOTES: u64 = 64;
/// Delay bound of an instance that is not a straggler.
const BASE_JITTER: u64 = 32;

pub fn world() -> Rect {
    Rect::new(Point::new(0.0, 0.0), Point::new(WORLD, WORLD))
}

/// What the generator varies between workloads.
#[derive(Debug, Clone, Copy)]
pub struct StreamShape {
    /// Displacement bound, in positions.
    pub shuffle: u64,
    /// Share of instances delayed by `shuffle/2..shuffle` positions
    /// (the rest are delayed by under `BASE_JITTER` positions).
    pub stragglers: f64,
    /// `Some((hotspot, share))`: two event types, `share` of the
    /// instances inside `hotspot`. `None`: uniform `reading`s.
    pub hotspot: Option<(Rect, f64)>,
}

/// A generated input stream, in arrival order.
pub struct Stream {
    pub instances: Vec<EventInstance>,
    /// Generation index -> arrival position.
    pub arrival_of_gen: Arc<[u32]>,
}

impl Stream {
    /// Order-sensitive digest of everything the generator decided.
    pub fn hash(&self) -> u64 {
        self.instances.iter().fold(0u64, |acc, inst| {
            let p = inst.generation_location();
            let temp = inst.attributes().get_f64("temp").unwrap_or(0.0);
            let mut h = acc.rotate_left(7) ^ inst.generation_time().ticks();
            h = mix64(h ^ p.x.to_bits());
            h = mix64(h ^ p.y.to_bits());
            h = mix64(h ^ temp.to_bits());
            mix64(h ^ inst.event().as_str().len() as u64)
        })
    }
}

/// Arrival order for `n` instances: `order[position] = generation
/// index`. Every displacement is below `shape.shuffle`.
pub fn arrival_order(n: usize, shape: &StreamShape, rng: &mut Rng) -> Vec<u32> {
    let bound = shape.shuffle.max(1);
    let base = BASE_JITTER.min(bound);
    let mut keyed: Vec<(u64, u32)> = (0..n as u64)
        .map(|g| {
            let delay = if rng.unit() < shape.stragglers {
                bound / 2 + rng.below(bound - bound / 2)
            } else {
                rng.below(base)
            };
            (g + delay, g as u32)
        })
        .collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, g)| g).collect()
}

pub fn generate(seed: u64, n: usize, shape: &StreamShape) -> Stream {
    let mut rng = Rng::new(seed, 1);
    let reading = EventId::new("reading");
    let hot = EventId::new("hot");
    let smoke = EventId::new("smoke");
    let by_gen: Vec<EventInstance> = (0..n as u64)
        .map(|g| {
            let t = TICKS_PER_INSTANCE * g + rng.below(TICKS_PER_INSTANCE);
            let (event, location) = match shape.hotspot {
                None => (
                    reading.clone(),
                    Point::new(rng.range(0.0, WORLD), rng.range(0.0, WORLD)),
                ),
                Some((spot, share)) => {
                    let event = if rng.unit() < 0.5 { &hot } else { &smoke };
                    let area = if rng.unit() < share { spot } else { world() };
                    (
                        event.clone(),
                        Point::new(
                            rng.range(area.min().x, area.max().x),
                            rng.range(area.min().y, area.max().y),
                        ),
                    )
                }
            };
            let temp = rng.range(10.0, 80.0);
            EventInstance::builder(
                ObserverId::Mote(MoteId::new((g % MOTES) as u32)),
                event,
                Layer::Sensor,
            )
            .seq(SeqNo::new(g))
            .generated(TimePoint::new(t), location)
            .attributes(Attributes::new().with("temp", temp))
            .build()
        })
        .collect();
    let order = arrival_order(n, shape, &mut Rng::new(seed, 2));
    let mut arrival_of_gen = vec![0u32; n];
    for (position, &g) in order.iter().enumerate() {
        arrival_of_gen[g as usize] = position as u32;
    }
    let mut slots: Vec<Option<EventInstance>> = by_gen.into_iter().map(Some).collect();
    let instances = order
        .iter()
        .map(|&g| {
            slots[g as usize]
                .take()
                .expect("a permutation visits each index once")
        })
        .collect();
    Stream {
        instances,
        arrival_of_gen: arrival_of_gen.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(shuffle: u64, stragglers: f64) -> StreamShape {
        StreamShape {
            shuffle,
            stragglers,
            hotspot: None,
        }
    }

    #[test]
    fn same_seed_same_stream_different_seed_differs() {
        let shape = uniform(32, 0.0);
        let a = generate(17, 4_000, &shape);
        let b = generate(17, 4_000, &shape);
        let c = generate(23, 4_000, &shape);
        assert_eq!(a.hash(), b.hash());
        assert_eq!(a.arrival_of_gen, b.arrival_of_gen);
        assert_ne!(a.hash(), c.hash());
    }

    #[test]
    fn displacement_is_bounded_and_order_is_a_permutation() {
        for (bound, stragglers) in [(32u64, 0.0), (256, 0.02), (256, 1.0)] {
            let order = arrival_order(20_000, &uniform(bound, stragglers), &mut Rng::new(5, 2));
            let mut seen = vec![false; order.len()];
            let mut disordered = 0usize;
            for (position, &g) in order.iter().enumerate() {
                assert!(!seen[g as usize], "generation index {g} appears twice");
                seen[g as usize] = true;
                let displacement = (position as i64 - i64::from(g)).unsigned_abs();
                assert!(
                    displacement < bound,
                    "instance {g} moved {displacement} positions, bound {bound}"
                );
                disordered += usize::from(displacement > 0);
            }
            assert!(
                disordered > 0,
                "the shuffle must actually disorder the stream"
            );
        }
    }

    #[test]
    fn generation_times_are_unique_and_map_back_to_arrival() {
        let shape = StreamShape {
            shuffle: 256,
            stragglers: 0.02,
            hotspot: Some((
                Rect::new(Point::new(100.0, 100.0), Point::new(300.0, 300.0)),
                0.7,
            )),
        };
        let stream = generate(17, 10_000, &shape);
        let mut times: Vec<u64> = stream
            .instances
            .iter()
            .map(|i| i.generation_time().ticks())
            .collect();
        for (position, inst) in stream.instances.iter().enumerate() {
            let ticks = inst.generation_time().ticks();
            let generation_index = (ticks / TICKS_PER_INSTANCE) as usize;
            assert_eq!(stream.arrival_of_gen[generation_index], position as u32);
        }
        times.sort_unstable();
        times.dedup();
        assert_eq!(times.len(), stream.instances.len());
    }

    #[test]
    fn hotspot_share_is_honoured() {
        let spot = Rect::new(Point::new(100.0, 100.0), Point::new(300.0, 300.0));
        let shape = StreamShape {
            shuffle: 32,
            stragglers: 0.0,
            hotspot: Some((spot, 0.7)),
        };
        let stream = generate(3, 20_000, &shape);
        let inside = stream
            .instances
            .iter()
            .filter(|i| spot.contains(i.generation_location()))
            .count() as f64;
        // 70% placed inside plus 4% of the uniformly placed rest.
        let share = inside / 20_000.0;
        assert!((share - 0.712).abs() < 0.02, "hotspot share {share}");
    }
}
