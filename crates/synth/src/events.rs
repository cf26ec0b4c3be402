//! Planted ground-truth events.
//!
//! Each topic receives burst windows over the simulated five-month
//! collection period. During a burst, the topic's news and tweet rates
//! are multiplied by the burst intensity — exactly the mention-anomaly
//! signature MABED detects. Because the bursts are planted, the
//! integration tests can assert detection against ground truth, which
//! the paper's real-world data never allowed.

use crate::time::DAY;
use crate::topics::TopicKind;
use nd_linalg::rng::SplitMix64;

/// A planted burst for one topic.
#[derive(Debug, Clone)]
pub struct GroundTruthEvent {
    /// Index into the topic inventory.
    pub topic: usize,
    /// Burst start (unix seconds).
    pub start: u64,
    /// Burst end (unix seconds, exclusive).
    pub end: u64,
    /// Rate multiplier at the burst peak (≥ 1).
    pub intensity: f64,
    /// Lag between the news burst and its Twitter echo (seconds).
    /// Social media picks a story up *after* mass media publishes it —
    /// the asymmetry behind the paper's `S_TE ∈ [S_NE, S_NE + 5 days]`
    /// correlation constraint. Zero for Twitter-only topics.
    pub twitter_lag: u64,
}

impl GroundTruthEvent {
    /// Burst envelope at time `ts`: a triangular ramp peaking at the
    /// midpoint (0 outside the window, `intensity` at the peak).
    pub fn envelope(&self, ts: u64) -> f64 {
        if ts < self.start || ts >= self.end {
            return 0.0;
        }
        let len = (self.end - self.start) as f64;
        let pos = (ts - self.start) as f64 / len;
        let tri = 1.0 - (2.0 * pos - 1.0).abs();
        self.intensity * tri
    }

    /// Burst envelope as seen on Twitter: the news envelope delayed by
    /// [`Self::twitter_lag`].
    pub fn twitter_envelope(&self, ts: u64) -> f64 {
        self.envelope(ts.saturating_sub(self.twitter_lag))
    }
}

/// Plants bursts for every topic over `[start, start + days·DAY)`.
///
/// News-and-Twitter topics receive one to two bursts; Twitter-only
/// topics receive one long, flatter burst (matching Table 7's
/// long-lived chatter events). Bursts are deterministic from `seed`.
pub fn plant_events(
    topics: &[crate::topics::TopicSpec],
    start: u64,
    days: u64,
    seed: u64,
) -> Vec<GroundTruthEvent> {
    let mut rng = SplitMix64::new(seed ^ 0xEEE);
    let mut events = Vec::new();
    for (idx, spec) in topics.iter().enumerate() {
        match spec.kind {
            TopicKind::NewsAndTwitter => {
                let n_bursts = 1 + rng.next_usize(2); // 1..=2
                for _ in 0..n_bursts {
                    let duration = 3 + rng.next_usize(8) as u64; // 3..=10 days
                    let latest = days.saturating_sub(duration + 1).max(1);
                    let offset = rng.next_usize(latest as usize) as u64;
                    // Twitter echoes the story 1–2.5 days later —
                    // inside the paper's 5-day correlation window.
                    let twitter_lag = DAY + rng.next_usize((DAY + DAY / 2) as usize) as u64;
                    events.push(GroundTruthEvent {
                        topic: idx,
                        start: start + offset * DAY,
                        end: start + (offset + duration) * DAY,
                        intensity: 4.0 + 6.0 * rng.next_f64(), // 4x..10x
                        twitter_lag,
                    });
                }
            }
            TopicKind::TwitterOnly => {
                let duration = 20 + rng.next_usize(40) as u64; // 20..=59 days
                let latest = days.saturating_sub(duration + 1).max(1);
                let offset = rng.next_usize(latest as usize) as u64;
                events.push(GroundTruthEvent {
                    topic: idx,
                    start: start + offset * DAY,
                    end: start + (offset + duration).min(days) * DAY,
                    intensity: 2.0 + 2.0 * rng.next_f64(), // gentler
                    twitter_lag: 0,
                });
            }
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::MAY_2019;
    use crate::topics::topic_inventory;

    fn events() -> Vec<GroundTruthEvent> {
        plant_events(&topic_inventory(), MAY_2019, 150, 42)
    }

    #[test]
    fn every_topic_gets_at_least_one_event() {
        let evs = events();
        let topics = topic_inventory();
        for (idx, topic) in topics.iter().enumerate() {
            assert!(
                evs.iter().any(|e| e.topic == idx),
                "topic {} has no event",
                topic.name
            );
        }
    }

    #[test]
    fn events_within_window() {
        for e in events() {
            assert!(e.start >= MAY_2019);
            assert!(e.end <= MAY_2019 + 150 * DAY);
            assert!(e.end > e.start);
            assert!(e.intensity >= 1.0);
        }
    }

    #[test]
    fn news_events_have_twitter_lag_within_window() {
        let evs = events();
        let topics = topic_inventory();
        for e in &evs {
            if topics[e.topic].kind == TopicKind::NewsAndTwitter {
                assert!(e.twitter_lag >= DAY && e.twitter_lag < 3 * DAY, "{}", e.twitter_lag);
            } else {
                assert_eq!(e.twitter_lag, 0);
            }
        }
    }

    #[test]
    fn twitter_envelope_is_delayed() {
        let e = GroundTruthEvent {
            topic: 0,
            start: 1_000,
            end: 2_000,
            intensity: 5.0,
            twitter_lag: 500,
        };
        assert_eq!(e.twitter_envelope(1_000), 0.0, "echo not started yet");
        assert!(e.twitter_envelope(2_000) > 0.0, "echo still running after news ends");
        assert!((e.twitter_envelope(2_000) - e.envelope(1_500)).abs() < 1e-12);
    }

    #[test]
    fn envelope_shape() {
        let e = GroundTruthEvent { topic: 0, start: 0, end: 100, intensity: 6.0, twitter_lag: 0 };
        assert_eq!(e.envelope(200), 0.0);
        let mid = e.envelope(50);
        assert!((mid - 6.0).abs() < 0.2, "peak near intensity, got {mid}");
        assert!(e.envelope(10) < mid);
        assert!(e.envelope(90) < mid);
        assert!(e.envelope(0) < 0.2);
    }

    #[test]
    fn deterministic() {
        let a = events();
        let b = events();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.start, y.start);
            assert_eq!(x.intensity, y.intensity);
        }
    }

    #[test]
    fn twitter_only_bursts_are_longer() {
        let evs = events();
        let topics = topic_inventory();
        let news_max = evs
            .iter()
            .filter(|e| topics[e.topic].kind == TopicKind::NewsAndTwitter)
            .map(|e| e.end - e.start)
            .max()
            .unwrap();
        let twitter_min = evs
            .iter()
            .filter(|e| topics[e.topic].kind == TopicKind::TwitterOnly)
            .map(|e| e.end - e.start)
            .min()
            .unwrap();
        assert!(twitter_min > news_max, "chatter events should be long-lived");
    }
}
