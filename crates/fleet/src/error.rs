use mamut_transcode::TranscodeError;

/// Errors from fleet construction and simulation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FleetError {
    /// `run` was called on a fleet with no nodes.
    NoNodes,
    /// The epoch budget elapsed before the workload drained (a guard
    /// against dispatch policies that can never place a queued session).
    EpochBudgetExhausted {
        /// Epochs simulated before giving up.
        epochs: u64,
    },
    /// A node's simulator failed while advancing an epoch.
    Node {
        /// The failing node's id.
        node: usize,
        /// The underlying simulator error.
        source: TranscodeError,
    },
    /// A configuration value was out of range.
    InvalidConfig(String),
    /// The dispatch policy returned a node id the fleet does not have.
    InvalidDispatch {
        /// The offending node id.
        node: usize,
        /// How many nodes the fleet has.
        nodes: usize,
    },
    /// A migration referenced a session the node does not hold.
    UnknownSession {
        /// The node that was asked.
        node: usize,
        /// The missing session id.
        session: usize,
    },
    /// `retire` was called on a node still holding live sessions. Drain
    /// them to peers first (`drain` + `attach_session`); only a scripted
    /// crash may take sessions down with a node, and that goes through
    /// the explicit crash-kill path, never through `retire`.
    RetireWithLiveSessions {
        /// The node that refused to retire.
        node: usize,
        /// Live sessions still resident.
        live: usize,
    },
    /// The rebalance policy produced an unusable directive (out-of-range
    /// node id, or source and target identical).
    InvalidMigration {
        /// Source node id.
        from: usize,
        /// Target node id.
        to: usize,
        /// How many nodes the fleet has.
        nodes: usize,
    },
    /// Advancing a node panicked (e.g. inside a session's controller or
    /// factory), on a worker thread or on the coordinator. The panic is
    /// caught there and the run aborts with this error instead of
    /// tearing down the process. When several nodes fail in one advance,
    /// the run reports the lowest `(shard, node)`.
    WorkerPanicked {
        /// The node whose advance panicked (its id within its shard).
        node: usize,
    },
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::NoNodes => write!(f, "fleet has no nodes"),
            FleetError::EpochBudgetExhausted { epochs } => {
                write!(f, "epoch budget exhausted after {epochs} epochs")
            }
            FleetError::Node { node, source } => {
                write!(f, "node {node} failed: {source}")
            }
            FleetError::InvalidConfig(msg) => write!(f, "invalid fleet config: {msg}"),
            FleetError::InvalidDispatch { node, nodes } => write!(
                f,
                "dispatcher assigned node {node} but the fleet has {nodes} nodes"
            ),
            FleetError::UnknownSession { node, session } => {
                write!(f, "node {node} holds no live session {session}")
            }
            FleetError::RetireWithLiveSessions { node, live } => write!(
                f,
                "node {node} cannot retire with {live} live session(s); drain first"
            ),
            FleetError::InvalidMigration { from, to, nodes } => write!(
                f,
                "rebalancer directed {from} -> {to} in a fleet of {nodes} nodes"
            ),
            FleetError::WorkerPanicked { node } => {
                write!(f, "node {node} panicked while advancing")
            }
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Node { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert_eq!(FleetError::NoNodes.to_string(), "fleet has no nodes");
        let e = FleetError::Node {
            node: 3,
            source: TranscodeError::NoSessions,
        };
        assert!(e.to_string().contains("node 3"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
