use std::error::Error;
use std::fmt;

/// Errors produced by the transcoding simulator.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TranscodeError {
    /// The event budget ran out before every session finished.
    EventBudgetExhausted {
        /// Events processed before giving up.
        events: u64,
    },
    /// A session id does not exist.
    UnknownSession(usize),
    /// The session has not finished its playlist, so it cannot be
    /// archived.
    SessionUnfinished(usize),
    /// The simulation has no sessions to run.
    NoSessions,
    /// The encoder rejected a knob setting (propagated).
    Encoder(String),
    /// `align_clock` was asked to move a clock backwards or to skip time
    /// on a server that still holds sessions (only a freshly
    /// commissioned, empty server may jump its clock forward).
    CannotAlignClock {
        /// The server's current virtual time (s).
        time: f64,
        /// The requested target time (s).
        target: f64,
        /// Sessions resident on the server.
        sessions: usize,
    },
}

impl fmt::Display for TranscodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranscodeError::EventBudgetExhausted { events } => {
                write!(f, "event budget exhausted after {events} events")
            }
            TranscodeError::UnknownSession(id) => write!(f, "no session with id {id}"),
            TranscodeError::SessionUnfinished(id) => write!(f, "session {id} has not finished"),
            TranscodeError::NoSessions => write!(f, "simulation has no sessions"),
            TranscodeError::Encoder(msg) => write!(f, "encoder error: {msg}"),
            TranscodeError::CannotAlignClock {
                time,
                target,
                sessions,
            } => write!(
                f,
                "cannot align clock from {time} s to {target} s with {sessions} session(s) resident"
            ),
        }
    }
}

impl Error for TranscodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(TranscodeError::UnknownSession(7).to_string().contains('7'));
        assert!(TranscodeError::EventBudgetExhausted { events: 42 }
            .to_string()
            .contains("42"));
    }

    #[test]
    fn error_bounds() {
        fn assert_bounds<T: Error + Send + Sync>() {}
        assert_bounds::<TranscodeError>();
    }
}
