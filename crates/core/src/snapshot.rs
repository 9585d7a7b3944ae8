//! Portable policy snapshots: a versioned, std-only binary codec for
//! everything a controller has learned.
//!
//! MAMUT's agents pay a long exploration phase per stream. The KaaS
//! follow-up to the paper (Costero et al., "Leveraging
//! knowledge-as-a-service…") shows that shipping learned Q-tables to new
//! sessions slashes that learning time, and digital-twin collaborative
//! transcoding likewise moves session state between nodes. Both need the
//! learned state to leave the controller that produced it — which is what
//! this module provides:
//!
//! * [`PolicySnapshot`] — the portable unit: controller tag, knobs in
//!   force, per-agent learned tables ([`AgentSnapshot`]), decision
//!   counters, and an opaque `extra` section for controller-private
//!   bookkeeping (RNG state, pending updates, phase rings) that makes a
//!   restore *exact* — a restored controller replays byte-identical
//!   decisions;
//! * [`AgentSnapshot`] — one agent's Q-table, global action counts and
//!   sparse transition records, in a structured form that fleet-level
//!   knowledge stores can merge (e.g. visit-weighted averaging);
//! * [`PolicySnapshot::encode`] / [`PolicySnapshot::decode`] — the wire
//!   codec: little-endian, length-prefixed, no external dependencies.
//!   Encoding is canonical (transition records are sorted), so
//!   `encode → decode → encode` is byte-identical;
//! * [`Format`] — the framing every `MAMUT??` codec in the workspace
//!   shares: an 8-byte magic, a little-endian `u16` version, then the
//!   body, read through one harness that rejects foreign, newer and
//!   trailing input the same way for every format.
//!
//! Producers and consumers go through the [`Controller`](crate::Controller)
//! trait: `snapshot()` captures, `restore()` rehydrates. Knowledge-style
//! snapshots with an empty `extra` section restore the *learned tables
//! only*, leaving the receiving controller's own RNG stream and in-flight
//! bookkeeping untouched — that is the warm-start path.

use std::fmt;

use crate::{AgentKind, KnobSettings};

/// Framing of an encoded [`PolicySnapshot`].
pub const POLICY_FORMAT: Format = Format {
    magic: b"MAMUTPS\0",
    version: 1,
};

/// The framing shared by every `MAMUT??` codec: an 8-byte magic, then a
/// little-endian `u16` version, then the format's body.
///
/// [`Format::writer`] starts an encoding; [`Format::read`] is the one
/// decode harness, so every format gives the same answer for the same
/// kind of damage: [`SnapshotError::BadMagic`] for input that does not
/// start with the magic (shorter input included),
/// [`SnapshotError::UnsupportedVersion`] for a newer version, and
/// [`SnapshotError::Corrupt`] for bytes left after the body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Format {
    /// Magic bytes opening every encoded value (NUL-padded).
    pub magic: &'static [u8; 8],
    /// Current codec version. Decoders reject anything newer.
    pub version: u16,
}

impl Format {
    /// A writer that already holds the magic and version.
    pub fn writer(&self) -> SnapshotWriter {
        let mut w = SnapshotWriter::new();
        w.buf.extend_from_slice(self.magic);
        w.put_u16(self.version);
        w
    }

    /// Checks the magic and version of `bytes`, decodes the rest with
    /// `body`, and requires `body` to consume all of it.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::BadMagic`], [`SnapshotError::UnsupportedVersion`]
    /// or [`SnapshotError::Corrupt`] for trailing bytes, plus whatever
    /// `body` returns.
    pub fn read<'a, T>(
        &self,
        bytes: &'a [u8],
        body: impl FnOnce(&mut SnapshotReader<'a>) -> Result<T, SnapshotError>,
    ) -> Result<T, SnapshotError> {
        let rest = bytes
            .strip_prefix(self.magic.as_slice())
            .ok_or(SnapshotError::BadMagic)?;
        let mut r = SnapshotReader::new(rest);
        r.expect_version(self.version)?;
        let value = body(&mut r)?;
        r.expect_end()?;
        Ok(value)
    }
}

/// Errors from encoding, decoding, or restoring a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapshotError {
    /// The byte stream does not start with the snapshot magic.
    BadMagic,
    /// The snapshot was written by a newer codec.
    UnsupportedVersion(u16),
    /// The byte stream ended before the structure was complete.
    Truncated,
    /// A structurally invalid value was found while decoding.
    Corrupt(&'static str),
    /// A snapshot of one controller type was offered to another.
    WrongController {
        /// The tag the restoring controller expected.
        expected: &'static str,
        /// The tag found in the snapshot.
        found: String,
    },
    /// Agent tables in the snapshot do not match the receiving
    /// controller's configuration (state/action space sizes or kinds).
    ShapeMismatch(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not the expected MAMUT format (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "codec version {v} is newer than supported")
            }
            SnapshotError::Truncated => write!(f, "snapshot byte stream is truncated"),
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
            SnapshotError::WrongController { expected, found } => {
                write!(
                    f,
                    "snapshot is for controller {found:?}, expected {expected:?}"
                )
            }
            SnapshotError::ShapeMismatch(what) => {
                write!(f, "snapshot shape does not match controller: {what}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// One observed transition `(s, a) → s'` with its count, as both an
/// [`AgentSnapshot`] and a [`TransitionModel`](crate::TransitionModel) list it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TransitionRecord {
    /// Source state index.
    pub state: u32,
    /// Action index.
    pub action: u32,
    /// Successor state index.
    pub next_state: u32,
    /// Times this exact transition was observed.
    pub count: u32,
}

/// One agent's learned state in portable form.
#[derive(Debug, Clone, PartialEq)]
pub struct AgentSnapshot {
    /// Which knob the agent owns (joint for the mono-agent baseline).
    pub kind: AgentKind,
    /// States in the agent's Q-table.
    pub n_states: u32,
    /// Actions in the agent's Q-table.
    pub n_actions: u32,
    /// Dense row-major Q-values (`n_states × n_actions`).
    pub q: Vec<f64>,
    /// Global per-action counts (`Num(a)`, length `n_actions`).
    pub action_counts: Vec<u32>,
    /// Sparse transition records, sorted by `(state, action, next_state)`
    /// — canonical order so re-encoding is byte-identical. Agents keep
    /// their [`TransitionModel`](crate::TransitionModel) in this layout,
    /// so capture and restore copy the list.
    pub transitions: Vec<TransitionRecord>,
}

impl AgentSnapshot {
    /// Dense `Num(s, a)` visit matrix reconstructed from the transition
    /// records (row-major, `n_states × n_actions`).
    pub fn visit_matrix(&self) -> Vec<u32> {
        let mut visits = vec![0u32; (self.n_states * self.n_actions) as usize];
        for t in &self.transitions {
            let i = (t.state * self.n_actions + t.action) as usize;
            visits[i] = visits[i].saturating_add(t.count);
        }
        visits
    }

    /// Total recorded visits across all state-action pairs.
    pub fn total_visits(&self) -> u64 {
        self.transitions.iter().map(|t| u64::from(t.count)).sum()
    }

    /// Internal consistency check (vector lengths match the declared
    /// dimensions, indices in range).
    fn validate(&self) -> Result<(), SnapshotError> {
        let cells = (self.n_states as usize)
            .checked_mul(self.n_actions as usize)
            .ok_or(SnapshotError::Corrupt("agent table dimensions overflow"))?;
        if self.n_states == 0 || self.n_actions == 0 {
            return Err(SnapshotError::Corrupt("agent table has a zero dimension"));
        }
        if self.q.len() != cells {
            return Err(SnapshotError::Corrupt("q-table length mismatch"));
        }
        if self.action_counts.len() != self.n_actions as usize {
            return Err(SnapshotError::Corrupt("action count length mismatch"));
        }
        for t in &self.transitions {
            if t.state >= self.n_states || t.next_state >= self.n_states {
                return Err(SnapshotError::Corrupt("transition state out of range"));
            }
            if t.action >= self.n_actions {
                return Err(SnapshotError::Corrupt("transition action out of range"));
            }
        }
        Ok(())
    }
}

/// The portable learned state of one controller.
///
/// `controller` tags the producing type (`"mamut"`, `"mono-agent"`,
/// `"heuristic"`, `"fixed"`); [`Controller::restore`](crate::Controller)
/// refuses snapshots bearing a different tag. `extra` carries
/// controller-private execution state (RNG, pending update windows, phase
/// diagnostics); [`PolicySnapshot::into_knowledge`] strips it for
/// publication to a knowledge store, where only the learned tables travel.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicySnapshot {
    /// Producing controller's tag ([`Controller::name`](crate::Controller)).
    pub controller: String,
    /// Knob settings in force at capture time.
    pub knobs: KnobSettings,
    /// Decisions taken in the exploration phase so far.
    pub exploration_decisions: u64,
    /// Decisions taken in the two exploiting phases so far.
    pub exploitation_decisions: u64,
    /// Learned tables, one per agent (empty for table-free controllers).
    pub agents: Vec<AgentSnapshot>,
    /// Opaque controller-private bookkeeping; empty in knowledge-only
    /// snapshots.
    pub extra: Vec<u8>,
}

impl PolicySnapshot {
    /// A snapshot with no learned tables — the base for table-free
    /// controllers (heuristic, fixed).
    pub fn tableless(controller: &str, knobs: KnobSettings) -> PolicySnapshot {
        PolicySnapshot {
            controller: controller.to_owned(),
            knobs,
            exploration_decisions: 0,
            exploitation_decisions: 0,
            agents: Vec::new(),
            extra: Vec::new(),
        }
    }

    /// Strips controller-private bookkeeping, keeping only the portable
    /// knowledge (tables, counters, knobs). Restoring a knowledge-only
    /// snapshot warm-starts the tables without touching the receiving
    /// controller's RNG stream or in-flight state.
    pub fn into_knowledge(mut self) -> PolicySnapshot {
        self.extra.clear();
        self
    }

    /// Fraction of all recorded decisions spent exploring (0.0 when no
    /// decisions were recorded).
    pub fn exploration_fraction(&self) -> f64 {
        let total = self.exploration_decisions + self.exploitation_decisions;
        if total == 0 {
            0.0
        } else {
            self.exploration_decisions as f64 / total as f64
        }
    }

    /// The agent snapshot of `kind`, if present.
    pub fn agent(&self, kind: AgentKind) -> Option<&AgentSnapshot> {
        self.agents.iter().find(|a| a.kind == kind)
    }

    /// Encodes the snapshot under [`POLICY_FORMAT`].
    ///
    /// The encoding is canonical: transition records are written in
    /// sorted order, so encode → decode → encode round-trips to the very
    /// same bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = POLICY_FORMAT.writer();
        w.put_str(&self.controller);
        w.put_u8(self.knobs.qp);
        w.put_u32(self.knobs.threads);
        w.put_f64(self.knobs.freq_ghz);
        w.put_u64(self.exploration_decisions);
        w.put_u64(self.exploitation_decisions);
        w.put_u32(self.agents.len() as u32);
        for agent in &self.agents {
            w.put_u8(agent_kind_code(agent.kind));
            w.put_u32(agent.n_states);
            w.put_u32(agent.n_actions);
            for &q in &agent.q {
                w.put_f64(q);
            }
            for &c in &agent.action_counts {
                w.put_u32(c);
            }
            let mut records = agent.transitions.clone();
            records.sort_unstable();
            w.put_u32(records.len() as u32);
            for t in &records {
                w.put_u32(t.state);
                w.put_u32(t.action);
                w.put_u32(t.next_state);
                w.put_u32(t.count);
            }
        }
        w.put_bytes(&self.extra);
        w.into_bytes()
    }

    /// Decodes a snapshot produced by [`PolicySnapshot::encode`].
    ///
    /// # Errors
    ///
    /// The [`Format::read`] framing errors, [`SnapshotError::Truncated`]
    /// or [`SnapshotError::Corrupt`] for a body this codec cannot accept.
    pub fn decode(bytes: &[u8]) -> Result<PolicySnapshot, SnapshotError> {
        POLICY_FORMAT.read(bytes, |r| {
            let controller = r.get_str()?;
            let knobs = KnobSettings::new(r.get_u8()?, r.get_u32()?, r.get_f64()?);
            // The knob vector is actuated verbatim by whoever restores this
            // snapshot, so structural sanity is checked at the codec border
            // like every other field (NaN frequency would otherwise flow
            // into rate/power math downstream).
            if !(knobs.freq_ghz.is_finite() && knobs.freq_ghz > 0.0) || knobs.threads == 0 {
                return Err(SnapshotError::Corrupt("invalid knob settings"));
            }
            let exploration_decisions = r.get_u64()?;
            let exploitation_decisions = r.get_u64()?;
            let n_agents = r.get_u32()?;
            let mut agents = Vec::with_capacity(n_agents.min(8) as usize);
            for _ in 0..n_agents {
                let kind = agent_kind_from_code(r.get_u8()?)?;
                let n_states = r.get_u32()?;
                let n_actions = r.get_u32()?;
                let cells = (n_states as usize)
                    .checked_mul(n_actions as usize)
                    .ok_or(SnapshotError::Corrupt("agent table dimensions overflow"))?;
                let mut q = Vec::with_capacity(r.bound_count(cells, 8)?);
                for _ in 0..cells {
                    q.push(r.get_f64()?);
                }
                let mut action_counts = Vec::with_capacity(r.bound_count(n_actions as usize, 4)?);
                for _ in 0..n_actions {
                    action_counts.push(r.get_u32()?);
                }
                let n_records = r.get_count(16)?;
                let mut transitions = Vec::with_capacity(n_records);
                for _ in 0..n_records {
                    transitions.push(TransitionRecord {
                        state: r.get_u32()?,
                        action: r.get_u32()?,
                        next_state: r.get_u32()?,
                        count: r.get_u32()?,
                    });
                }
                let agent = AgentSnapshot {
                    kind,
                    n_states,
                    n_actions,
                    q,
                    action_counts,
                    transitions,
                };
                agent.validate()?;
                agents.push(agent);
            }
            let extra = r.get_bytes()?;
            Ok(PolicySnapshot {
                controller,
                knobs,
                exploration_decisions,
                exploitation_decisions,
                agents,
                extra,
            })
        })
    }

    /// Checks the snapshot's controller tag against `expected`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::WrongController`] on mismatch — the standard
    /// first line of every [`Controller::restore`](crate::Controller).
    pub fn expect_controller(&self, expected: &'static str) -> Result<(), SnapshotError> {
        if self.controller == expected {
            Ok(())
        } else {
            Err(SnapshotError::WrongController {
                expected,
                found: self.controller.clone(),
            })
        }
    }
}

fn agent_kind_code(kind: AgentKind) -> u8 {
    kind.index() as u8
}

fn agent_kind_from_code(code: u8) -> Result<AgentKind, SnapshotError> {
    match code {
        0 => Ok(AgentKind::Qp),
        1 => Ok(AgentKind::Thread),
        2 => Ok(AgentKind::Dvfs),
        3 => Ok(AgentKind::Joint),
        _ => Err(SnapshotError::Corrupt("unknown agent kind")),
    }
}

/// Little-endian binary writer for snapshot bodies.
///
/// Public so controllers in sibling crates (the baselines) can encode
/// their private `extra` sections with the same primitives and framing
/// conventions as the core codec.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        SnapshotWriter::default()
    }

    /// Finishes writing, returning the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its exact IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Appends a length-prefixed byte slice.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }
}

/// Checked little-endian reader over a snapshot body.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        SnapshotReader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        if end > self.bytes.len() {
            return Err(SnapshotError::Truncated);
        }
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] past the end of input.
    pub fn get_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool written by [`SnapshotWriter::put_bool`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] for bytes other than 0/1.
    pub fn get_bool(&mut self) -> Result<bool, SnapshotError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Corrupt("invalid bool")),
        }
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] past the end of input.
    pub fn get_u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] past the end of input.
    pub fn get_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] past the end of input.
    pub fn get_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads an `f64` bit pattern written by [`SnapshotWriter::put_f64`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] past the end of input.
    pub fn get_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a length-prefixed byte slice.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] past the end of input.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, SnapshotError> {
        let len = self.get_u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] for invalid UTF-8,
    /// [`SnapshotError::Truncated`] past the end of input.
    pub fn get_str(&mut self) -> Result<String, SnapshotError> {
        String::from_utf8(self.get_bytes()?).map_err(|_| SnapshotError::Corrupt("invalid utf-8"))
    }

    /// Reads a finite `f64`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] with `what` for NaN or ±∞,
    /// [`SnapshotError::Truncated`] past the end of input.
    pub fn get_finite(&mut self, what: &'static str) -> Result<f64, SnapshotError> {
        let v = self.get_f64()?;
        if v.is_finite() {
            Ok(v)
        } else {
            Err(SnapshotError::Corrupt(what))
        }
    }

    /// Reads a `u32` item count, bounded by the input left: every item
    /// takes at least `min_item_bytes` encoded bytes, so a larger count
    /// cannot be honest and must not size an allocation.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] when the count cannot fit.
    pub fn get_count(&mut self, min_item_bytes: usize) -> Result<usize, SnapshotError> {
        let n = self.get_u32()? as usize;
        self.bound_count(n, min_item_bytes)
    }

    /// Returns `n` if `n` items of at least `min_item_bytes` each fit in
    /// the input left — the check [`SnapshotReader::get_count`] applies,
    /// for counts derived from earlier fields.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] when they cannot fit.
    pub fn bound_count(&self, n: usize, min_item_bytes: usize) -> Result<usize, SnapshotError> {
        if n > self.remaining() / min_item_bytes.max(1) {
            Err(SnapshotError::Truncated)
        } else {
            Ok(n)
        }
    }

    /// Reads a type tag string and checks it against `expected`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::WrongController`] on mismatch.
    pub fn expect_tag(&mut self, expected: &'static str) -> Result<(), SnapshotError> {
        let found = self.get_str()?;
        if found == expected {
            Ok(())
        } else {
            Err(SnapshotError::WrongController { expected, found })
        }
    }

    /// Reads a `u16` version word and rejects one newer than `supported`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::UnsupportedVersion`] for a newer version,
    /// [`SnapshotError::Truncated`] past the end of input.
    pub fn expect_version(&mut self, supported: u16) -> Result<u16, SnapshotError> {
        let version = self.get_u16()?;
        if version > supported {
            Err(SnapshotError::UnsupportedVersion(version))
        } else {
            Ok(version)
        }
    }

    /// Asserts the whole input was consumed.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] when trailing bytes remain.
    pub fn expect_end(&self) -> Result<(), SnapshotError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(SnapshotError::Corrupt("trailing bytes after snapshot"))
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PolicySnapshot {
        PolicySnapshot {
            controller: "mamut".into(),
            knobs: KnobSettings::new(32, 8, 2.6),
            exploration_decisions: 120,
            exploitation_decisions: 480,
            agents: vec![AgentSnapshot {
                kind: AgentKind::Dvfs,
                n_states: 3,
                n_actions: 2,
                q: vec![0.0, 1.5, -0.25, 0.0, 3.75, 0.5],
                action_counts: vec![7, 9],
                transitions: vec![
                    TransitionRecord {
                        state: 2,
                        action: 1,
                        next_state: 0,
                        count: 4,
                    },
                    TransitionRecord {
                        state: 0,
                        action: 0,
                        next_state: 2,
                        count: 3,
                    },
                ],
            }],
            extra: vec![1, 2, 3, 4],
        }
    }

    #[test]
    fn round_trip_preserves_everything() {
        let snap = sample();
        let bytes = snap.encode();
        let back = PolicySnapshot::decode(&bytes).unwrap();
        assert_eq!(back.controller, "mamut");
        assert_eq!(back.knobs, snap.knobs);
        assert_eq!(back.exploration_decisions, 120);
        assert_eq!(back.exploitation_decisions, 480);
        assert_eq!(back.agents[0].q, snap.agents[0].q);
        assert_eq!(back.agents[0].action_counts, snap.agents[0].action_counts);
        assert_eq!(back.extra, vec![1, 2, 3, 4]);
    }

    #[test]
    fn reencoding_is_byte_identical() {
        let bytes = sample().encode();
        let back = PolicySnapshot::decode(&bytes).unwrap();
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn transitions_are_canonically_sorted_on_encode() {
        let bytes = sample().encode();
        let back = PolicySnapshot::decode(&bytes).unwrap();
        let t = &back.agents[0].transitions;
        assert_eq!((t[0].state, t[0].action), (0, 0));
        assert_eq!((t[1].state, t[1].action), (2, 1));
    }

    /// A two-field test format for the framing harness itself.
    const TEST_FORMAT: Format = Format {
        magic: b"MAMUTZZ\0",
        version: 3,
    };

    fn read_test(bytes: &[u8]) -> Result<(u32, u32), SnapshotError> {
        TEST_FORMAT.read(bytes, |r| Ok((r.get_u32()?, r.get_u32()?)))
    }

    fn test_bytes() -> Vec<u8> {
        let mut w = TEST_FORMAT.writer();
        w.put_u32(7);
        w.put_u32(9);
        w.into_bytes()
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(read_test(&test_bytes()), Ok((7, 9)));
        assert_eq!(&test_bytes()[..8], TEST_FORMAT.magic);
        // Foreign magic, and any input too short to hold the magic.
        assert_eq!(read_test(b"NOTAFORMAT...."), Err(SnapshotError::BadMagic));
        for cut in 0..8 {
            assert_eq!(
                read_test(&test_bytes()[..cut]),
                Err(SnapshotError::BadMagic)
            );
        }
    }

    #[test]
    fn newer_version_rejected() {
        let mut bytes = test_bytes();
        bytes[8..10].copy_from_slice(&4u16.to_le_bytes());
        assert_eq!(read_test(&bytes), Err(SnapshotError::UnsupportedVersion(4)));
        // Older versions reach the body.
        bytes[8..10].copy_from_slice(&2u16.to_le_bytes());
        assert_eq!(read_test(&bytes), Ok((7, 9)));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = test_bytes();
        bytes.push(0);
        assert_eq!(
            read_test(&bytes),
            Err(SnapshotError::Corrupt("trailing bytes after snapshot"))
        );
    }

    #[test]
    fn counts_are_bounded_by_the_remaining_input() {
        let mut w = SnapshotWriter::new();
        w.put_u32(3);
        w.put_u64(0);
        w.put_u64(0);
        let bytes = w.into_bytes();
        // Three 8-byte items cannot fit in the 16 bytes after the count.
        assert_eq!(
            SnapshotReader::new(&bytes).get_count(8),
            Err(SnapshotError::Truncated)
        );
        assert_eq!(SnapshotReader::new(&bytes).get_count(5), Ok(3));
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let bytes = sample().encode();
        for cut in POLICY_FORMAT.magic.len()..bytes.len() {
            assert!(
                PolicySnapshot::decode(&bytes[..cut]).is_err(),
                "cut at {cut} slipped through"
            );
        }
    }

    #[test]
    fn finite_and_tag_helpers_reject_bad_fields() {
        let mut w = SnapshotWriter::new();
        w.put_f64(f64::NAN);
        w.put_str("holt-winters");
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(r.get_finite("rate"), Err(SnapshotError::Corrupt("rate")));
        assert_eq!(
            r.expect_tag("seasonal-naive"),
            Err(SnapshotError::WrongController {
                expected: "seasonal-naive",
                found: "holt-winters".into()
            })
        );
    }

    #[test]
    fn crafted_huge_dimensions_error_instead_of_allocating() {
        // A tiny input claiming a u32::MAX × u32::MAX agent table must
        // come back as an error, not a capacity-overflow panic or a
        // multi-terabyte allocation attempt.
        let mut w = POLICY_FORMAT.writer();
        w.put_str("mamut");
        w.put_u8(32); // qp
        w.put_u32(4); // threads
        w.put_f64(2.6); // freq
        w.put_u64(0);
        w.put_u64(0);
        w.put_u32(1); // one agent
        w.put_u8(0); // kind
        w.put_u32(u32::MAX); // n_states
        w.put_u32(u32::MAX); // n_actions
        assert!(PolicySnapshot::decode(&w.into_bytes()).is_err());
    }

    #[test]
    fn unphysical_knobs_rejected_at_decode() {
        let mut snap = sample();
        snap.knobs.freq_ghz = f64::NAN;
        assert_eq!(
            PolicySnapshot::decode(&snap.encode()),
            Err(SnapshotError::Corrupt("invalid knob settings"))
        );
        let mut snap = sample();
        snap.knobs.threads = 0;
        assert!(PolicySnapshot::decode(&snap.encode()).is_err());
    }

    #[test]
    fn out_of_range_transition_rejected() {
        let mut snap = sample();
        snap.agents[0].transitions[0].next_state = 99;
        let bytes = snap.encode();
        assert!(matches!(
            PolicySnapshot::decode(&bytes),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn knowledge_strips_extra_only() {
        let snap = sample().into_knowledge();
        assert!(snap.extra.is_empty());
        assert_eq!(snap.agents.len(), 1);
        assert_eq!(snap.exploration_decisions, 120);
    }

    #[test]
    fn visit_matrix_sums_transitions() {
        let snap = sample();
        let visits = snap.agents[0].visit_matrix();
        assert_eq!(visits[0], 3); // (0, 0)
        assert_eq!(visits[2 * 2 + 1], 4); // (2, 1)
        assert_eq!(snap.agents[0].total_visits(), 7);
    }

    #[test]
    fn expect_controller_checks_tag() {
        let snap = sample();
        assert!(snap.expect_controller("mamut").is_ok());
        assert_eq!(
            snap.expect_controller("heuristic"),
            Err(SnapshotError::WrongController {
                expected: "heuristic",
                found: "mamut".into()
            })
        );
    }

    #[test]
    fn exploration_fraction() {
        let snap = sample();
        assert!((snap.exploration_fraction() - 0.2).abs() < 1e-12);
        let fresh = PolicySnapshot::tableless("fixed", KnobSettings::new(32, 4, 2.6));
        assert_eq!(fresh.exploration_fraction(), 0.0);
    }

    #[test]
    fn agent_lookup_by_kind() {
        let snap = sample();
        assert!(snap.agent(AgentKind::Dvfs).is_some());
        assert!(snap.agent(AgentKind::Qp).is_none());
    }
}
