//! The request-lifecycle stage vocabulary shared by the serving layer,
//! its introspection surface, and the tools that read both.
//!
//! A served request passes through a fixed pipeline; each [`Stage`] is
//! one monotonic-clock stamp taken as the request crosses that point.
//! Consecutive stamps delimit the six derived [`Interval`]s — the
//! quantities the service aggregates into `service.stage.<name>_us`
//! histograms and reports per request from the flight recorder. The
//! intervals telescope: summed, they reconstruct the accepted→flushed
//! end-to-end latency exactly, so per-stage means must add up to the
//! total mean (the introspection layer's self-consistency check).
//!
//! This lives in `wfc-spec`, not the service crate, because the wire
//! protocol (`stats` responses), the load generator's bench reports,
//! and the CLI's `top` view all name stages — the vocabulary is part of
//! the spec, the stamping machinery is not.

/// One stamp point in the request pipeline, in pipeline order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Stage {
    /// The frame's bytes began arriving on an accepted connection.
    Accepted = 0,
    /// The length-prefixed frame fully decoded into a request.
    Decoded = 1,
    /// The request was admitted to the job queue.
    Enqueued = 2,
    /// A worker began computing (or resolved the result from cache).
    EngineStart = 3,
    /// The computation (or cache lookup) produced its outcome.
    EngineDone = 4,
    /// The response frame was serialized into the connection's output
    /// buffer.
    ResponseEnqueued = 5,
    /// The last byte of the response frame left the process.
    BytesFlushed = 6,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 7] = [
        Stage::Accepted,
        Stage::Decoded,
        Stage::Enqueued,
        Stage::EngineStart,
        Stage::EngineDone,
        Stage::ResponseEnqueued,
        Stage::BytesFlushed,
    ];

    /// The stage's position in the pipeline (0-based).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Accepted => "accepted",
            Stage::Decoded => "decoded",
            Stage::Enqueued => "enqueued",
            Stage::EngineStart => "engine-start",
            Stage::EngineDone => "engine-done",
            Stage::ResponseEnqueued => "response-enqueued",
            Stage::BytesFlushed => "bytes-flushed",
        }
    }

    /// Parses a stable wire name back into a stage.
    pub fn parse(text: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|s| s.as_str() == text)
    }
}

/// One derived latency interval: the time between two consecutive
/// pipeline stamps.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Interval {
    /// Stable name (`service.stage.<name>_us` is the histogram).
    pub name: &'static str,
    /// The stamp opening the interval.
    pub start: Stage,
    /// The stamp closing the interval.
    pub end: Stage,
}

impl Interval {
    /// The six telescoping intervals, in pipeline order: frame
    /// decode, admission, queue wait, engine time, response
    /// serialization, and write-back flush.
    pub const ALL: [Interval; 6] = [
        Interval {
            name: "decode",
            start: Stage::Accepted,
            end: Stage::Decoded,
        },
        Interval {
            name: "admit",
            start: Stage::Decoded,
            end: Stage::Enqueued,
        },
        Interval {
            name: "queue",
            start: Stage::Enqueued,
            end: Stage::EngineStart,
        },
        Interval {
            name: "engine",
            start: Stage::EngineStart,
            end: Stage::EngineDone,
        },
        Interval {
            name: "respond",
            start: Stage::EngineDone,
            end: Stage::ResponseEnqueued,
        },
        Interval {
            name: "flush",
            start: Stage::ResponseEnqueued,
            end: Stage::BytesFlushed,
        },
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_are_dense_and_ordered() {
        for (i, stage) in Stage::ALL.into_iter().enumerate() {
            assert_eq!(stage.index(), i);
        }
        assert!(Stage::ALL.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn wire_names_round_trip_and_are_unique() {
        for stage in Stage::ALL {
            assert_eq!(Stage::parse(stage.as_str()), Some(stage));
        }
        assert_eq!(Stage::parse("nonsense"), None);
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Stage::ALL.len());
    }

    #[test]
    fn intervals_telescope_across_the_whole_pipeline() {
        // Each interval starts where the previous one ended, the first
        // opens at the first stamp and the last closes at the final
        // stamp — so summed interval durations equal end-to-end time.
        assert_eq!(Interval::ALL[0].start, Stage::Accepted);
        assert_eq!(
            Interval::ALL[Interval::ALL.len() - 1].end,
            Stage::BytesFlushed
        );
        for pair in Interval::ALL.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
        for interval in Interval::ALL {
            assert_eq!(interval.end.index(), interval.start.index() + 1);
        }
        let mut names: Vec<&str> = Interval::ALL.iter().map(|i| i.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Interval::ALL.len());
    }
}
