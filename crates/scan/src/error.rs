//! Error types for audit construction.

/// Errors raised when assembling audit inputs from user data.
///
/// Programmer errors (inconsistent internal state) panic instead; these
/// variants cover conditions that depend on the *data* a caller feeds
/// in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScanError {
    /// The outcome set has no observations.
    EmptyOutcomes,
    /// Locations and labels have different lengths.
    LengthMismatch {
        /// Number of locations provided.
        points: usize,
        /// Number of labels provided.
        labels: usize,
    },
    /// A location has a non-finite coordinate.
    NonFiniteLocation {
        /// Index of the offending observation.
        index: usize,
    },
    /// A continuous outcome pair produced a non-finite residual (see
    /// [`SpatialOutcomes::from_residuals`](crate::outcomes::SpatialOutcomes::from_residuals)).
    NonFiniteResidual {
        /// Index of the offending observation.
        index: usize,
    },
    /// The region set is empty.
    EmptyRegionSet,
    /// The outcomes are degenerate for the scan statistic: all
    /// positive or all negative (the test is vacuous; the paper notes
    /// the idealised definition "can only be satisfied by trivial
    /// classifiers").
    DegenerateOutcomes {
        /// Total observations.
        n: u64,
        /// Total positives.
        p: u64,
    },
    /// An audit request carries invalid knobs (the fields are public
    /// and wire-deserializable, so malformed values can arrive from
    /// outside the builder methods).
    InvalidRequest {
        /// What is wrong with the request.
        reason: String,
    },
    /// The index's aggregate range count disagrees with its member-id
    /// enumeration for a region. Every Monte Carlo world trusts the
    /// world-invariant `n(R)` measured at engine build, so a
    /// disagreement would silently corrupt every simulated `τ` — the
    /// engine validates the two answers against each other once at
    /// build time (in release builds too) and refuses to serve a
    /// substrate that fails.
    CountIntegrity {
        /// Region where the counts disagree.
        region: usize,
        /// `n(R)` from the aggregate range-count query.
        aggregate_n: u64,
        /// `n(R)` from enumerating member ids.
        enumerated_n: u64,
    },
    /// The index's member-id enumeration is corrupt: an id `>= N`, or
    /// the same id visited twice for one region. Counting either would
    /// silently corrupt every world, so the engine refuses the
    /// substrate at build, under every counting strategy.
    MembershipIntegrity {
        /// What is wrong, naming the offending point id.
        reason: String,
    },
}

impl ScanError {
    /// An [`ScanError::InvalidRequest`] with the given reason —
    /// convenience for the request-validation call sites (the scan
    /// layer's [`AuditRequest::validate`](crate::prepared::AuditRequest::validate)
    /// and the serving layer's submission guards build these).
    pub fn invalid_request(reason: impl Into<String>) -> Self {
        ScanError::InvalidRequest {
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for ScanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScanError::EmptyOutcomes => write!(f, "outcome set has no observations"),
            ScanError::LengthMismatch { points, labels } => {
                write!(f, "{points} locations but {labels} labels")
            }
            ScanError::NonFiniteLocation { index } => {
                write!(f, "observation {index} has a non-finite coordinate")
            }
            ScanError::NonFiniteResidual { index } => {
                write!(f, "observation {index} has a non-finite residual")
            }
            ScanError::EmptyRegionSet => write!(f, "region set is empty"),
            ScanError::DegenerateOutcomes { n, p } => write!(
                f,
                "outcomes are degenerate (n={n}, p={p}): scan statistic is vacuous"
            ),
            ScanError::InvalidRequest { reason } => {
                write!(f, "invalid audit request: {reason}")
            }
            ScanError::CountIntegrity {
                region,
                aggregate_n,
                enumerated_n,
            } => write!(
                f,
                "count integrity violation in region {region}: aggregate n(R) = {aggregate_n} \
                 but id enumeration yields {enumerated_n}; refusing to serve a substrate whose \
                 counts disagree"
            ),
            ScanError::MembershipIntegrity { reason } => write!(
                f,
                "membership integrity violation: {reason}; refusing to serve a substrate whose \
                 member-id enumeration cannot count exactly"
            ),
        }
    }
}

impl std::error::Error for ScanError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(ScanError::EmptyOutcomes
            .to_string()
            .contains("no observations"));
        let e = ScanError::LengthMismatch {
            points: 3,
            labels: 4,
        };
        assert!(e.to_string().contains("3 locations"));
        let e = ScanError::DegenerateOutcomes { n: 10, p: 10 };
        assert!(e.to_string().contains("degenerate"));
    }
}
