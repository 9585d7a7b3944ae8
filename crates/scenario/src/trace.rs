//! Scenario-trace persistence: a versioned, std-only binary codec for
//! realized scenarios, built on the same writer/reader primitives as
//! `mamut_core::snapshot`.
//!
//! A [`RealizedScenario`] is the unit of replay: persisting it (rather
//! than the generating description) pins the *exact* arrival instants
//! and session draws, so a sweep re-run months later — or on a machine
//! with a different libm — replays byte-for-byte. Arrival times and
//! the horizon are encoded as IEEE-754 bit patterns; encode → decode →
//! encode is byte-identical.

use mamut_core::snapshot::{Format, SnapshotError};
use mamut_fleet::SessionRequest;

use crate::scenario::RealizedScenario;

/// Framing of an encoded [`RealizedScenario`].
pub const SCENARIO_FORMAT: Format = Format {
    magic: b"MAMUTSC\0",
    version: 1,
};

impl RealizedScenario {
    /// Encodes the realized trace — name, seed, horizon, phase marks
    /// and every arrival — under [`SCENARIO_FORMAT`].
    pub fn encode(&self) -> Vec<u8> {
        let mut w = SCENARIO_FORMAT.writer();
        w.put_str(&self.name);
        w.put_u64(self.seed);
        w.put_f64(self.horizon_s);
        w.put_u32(self.marks.len() as u32);
        for (t, label) in &self.marks {
            w.put_f64(*t);
            w.put_str(label);
        }
        w.put_u32(self.arrivals.len() as u32);
        for r in &self.arrivals {
            w.put_u64(r.id);
            w.put_f64(r.arrival_s);
            w.put_bool(r.hr);
            w.put_bool(r.live);
            w.put_u64(r.frames);
            w.put_u64(r.seed);
        }
        w.into_bytes()
    }

    /// Decodes a trace produced by [`RealizedScenario::encode`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] for a stream this codec cannot accept: a
    /// framing error (see [`Format::read`]), truncation, non-finite or
    /// unsorted arrival times, or zero-length sessions.
    pub fn decode(bytes: &[u8]) -> Result<RealizedScenario, SnapshotError> {
        SCENARIO_FORMAT.read(bytes, |r| {
            let name = r.get_str()?;
            let seed = r.get_u64()?;
            let horizon_s = r.get_f64()?;
            if !(horizon_s.is_finite() && horizon_s >= 0.0) {
                return Err(SnapshotError::Corrupt("invalid scenario horizon"));
            }
            let n_marks = r.get_count(12)?;
            let mut marks = Vec::with_capacity(n_marks);
            for _ in 0..n_marks {
                let t = r.get_finite("non-finite phase mark")?;
                marks.push((t, r.get_str()?));
            }
            // Every arrival costs 34 encoded bytes.
            let n_arrivals = r.get_count(34)?;
            let mut arrivals: Vec<SessionRequest> = Vec::with_capacity(n_arrivals);
            for _ in 0..n_arrivals {
                let request = SessionRequest {
                    id: r.get_u64()?,
                    arrival_s: r.get_f64()?,
                    hr: r.get_bool()?,
                    live: r.get_bool()?,
                    frames: r.get_u64()?,
                    seed: r.get_u64()?,
                };
                if !request.arrival_s.is_finite() {
                    return Err(SnapshotError::Corrupt("non-finite arrival time"));
                }
                if request.frames == 0 {
                    return Err(SnapshotError::Corrupt("zero-length session"));
                }
                if arrivals
                    .last()
                    .is_some_and(|prev| prev.arrival_s > request.arrival_s)
                {
                    return Err(SnapshotError::Corrupt("arrivals out of order"));
                }
                arrivals.push(request);
            }
            Ok(RealizedScenario {
                name,
                seed,
                horizon_s,
                arrivals,
                marks,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    fn sample() -> RealizedScenario {
        catalog::flash_mob().realize().unwrap()
    }

    #[test]
    fn round_trip_preserves_the_trace_exactly() {
        let trace = sample();
        let bytes = trace.encode();
        let back = RealizedScenario::decode(&bytes).unwrap();
        assert_eq!(back, trace);
        assert_eq!(back.encode(), bytes, "re-encoding is byte-identical");
        // The decoded trace replays through the same fleet entry point.
        assert_eq!(back.workload().len(), trace.len());
    }

    #[test]
    fn bad_magic_version_and_truncation_are_rejected() {
        let bytes = sample().encode();
        assert_eq!(
            RealizedScenario::decode(b"NOTATRACE...."),
            Err(SnapshotError::BadMagic)
        );
        let mut newer = bytes.clone();
        newer[SCENARIO_FORMAT.magic.len()] = 0xFF;
        assert!(matches!(
            RealizedScenario::decode(&newer),
            Err(SnapshotError::UnsupportedVersion(_))
        ));
        for cut in SCENARIO_FORMAT.magic.len()..bytes.len() {
            assert!(
                RealizedScenario::decode(&bytes[..cut]).is_err(),
                "cut at {cut} slipped through"
            );
        }
        let mut trailing = bytes;
        trailing.push(7);
        assert!(RealizedScenario::decode(&trailing).is_err());
    }

    #[test]
    fn corrupt_payloads_are_rejected() {
        let mut trace = sample();
        trace.arrivals[0].arrival_s = f64::NAN;
        assert_eq!(
            RealizedScenario::decode(&trace.encode()),
            Err(SnapshotError::Corrupt("non-finite arrival time"))
        );
        let mut trace = sample();
        trace.arrivals[1].frames = 0;
        assert_eq!(
            RealizedScenario::decode(&trace.encode()),
            Err(SnapshotError::Corrupt("zero-length session"))
        );
        let mut trace = sample();
        trace.arrivals.swap(0, 1);
        assert_eq!(
            RealizedScenario::decode(&trace.encode()),
            Err(SnapshotError::Corrupt("arrivals out of order"))
        );
    }
}
