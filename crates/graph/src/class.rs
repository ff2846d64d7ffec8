//! Dependency classes and the per-edge class bitmask.

use serde::{Deserialize, Serialize};

/// A dependency class an edge may belong to.
///
/// The first three are Adya's direct dependencies; the rest are the
/// additional orders of §5 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum EdgeClass {
    /// Write-write dependency (`ww`): Tj installs the version after Ti's.
    Ww = 0,
    /// Write-read dependency (`wr`): Tj read the version Ti installed.
    Wr = 1,
    /// Read-write anti-dependency (`rw`): Tj installs the version after the
    /// one Ti read.
    Rw = 2,
    /// Per-process (session) order.
    Process = 3,
    /// Real-time order: Ti completed before Tj was invoked.
    Realtime = 4,
    /// Version order derived edges (non-traceable datatypes, §5.2).
    Version = 5,
    /// Read-read ordering (counters/sets, §3) — not an Adya dependency, but
    /// usable for cycle detection on less-informative datatypes.
    Rr = 6,
    /// Time-precedes order (§5.1): Ti's commit timestamp precedes Tj's
    /// start timestamp, per database-exposed transaction timestamps —
    /// the edges of Adya's start-ordered serialization graph.
    Timestamp = 7,
}

impl EdgeClass {
    /// All classes, in discriminant order.
    pub const ALL: [EdgeClass; 8] = [
        EdgeClass::Ww,
        EdgeClass::Wr,
        EdgeClass::Rw,
        EdgeClass::Process,
        EdgeClass::Realtime,
        EdgeClass::Version,
        EdgeClass::Rr,
        EdgeClass::Timestamp,
    ];

    /// Short label used in explanations and DOT output.
    pub fn label(self) -> &'static str {
        match self {
            EdgeClass::Ww => "ww",
            EdgeClass::Wr => "wr",
            EdgeClass::Rw => "rw",
            EdgeClass::Process => "process",
            EdgeClass::Realtime => "rt",
            EdgeClass::Version => "version",
            EdgeClass::Rr => "rr",
            EdgeClass::Timestamp => "ts",
        }
    }
}

/// A set of [`EdgeClass`]es, as a bitmask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash, Serialize, Deserialize)]
pub struct EdgeMask(pub u8);

impl EdgeMask {
    /// The empty mask.
    pub const NONE: EdgeMask = EdgeMask(0);
    /// Every class.
    pub const ALL: EdgeMask = EdgeMask(0xff);
    /// `ww` only — G0's cycle universe.
    pub const WW: EdgeMask = EdgeMask(1 << EdgeClass::Ww as u8);
    /// `wr` only.
    pub const WR: EdgeMask = EdgeMask(1 << EdgeClass::Wr as u8);
    /// `rw` only.
    pub const RW: EdgeMask = EdgeMask(1 << EdgeClass::Rw as u8);
    /// `process` only.
    pub const PROCESS: EdgeMask = EdgeMask(1 << EdgeClass::Process as u8);
    /// `rt` only.
    pub const REALTIME: EdgeMask = EdgeMask(1 << EdgeClass::Realtime as u8);
    /// `version` only.
    pub const VERSION: EdgeMask = EdgeMask(1 << EdgeClass::Version as u8);
    /// `rr` only.
    pub const RR: EdgeMask = EdgeMask(1 << EdgeClass::Rr as u8);
    /// `ts` only.
    pub const TIMESTAMP: EdgeMask = EdgeMask(1 << EdgeClass::Timestamp as u8);

    /// A mask holding a single class.
    pub const fn of(c: EdgeClass) -> EdgeMask {
        EdgeMask(1 << c as u8)
    }

    /// Union of two masks.
    pub const fn union(self, other: EdgeMask) -> EdgeMask {
        EdgeMask(self.0 | other.0)
    }

    /// Does this mask contain class `c`?
    pub const fn contains(self, c: EdgeClass) -> bool {
        self.0 & (1 << c as u8) != 0
    }

    /// Do the two masks share any class?
    pub const fn intersects(self, other: EdgeMask) -> bool {
        self.0 & other.0 != 0
    }

    /// Is the mask empty?
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterate over the classes present.
    pub fn iter(self) -> impl Iterator<Item = EdgeClass> {
        EdgeClass::ALL
            .into_iter()
            .filter(move |c| self.contains(*c))
    }
}

impl std::ops::BitOr for EdgeMask {
    type Output = EdgeMask;
    fn bitor(self, rhs: EdgeMask) -> EdgeMask {
        self.union(rhs)
    }
}

impl std::fmt::Display for EdgeMask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for c in self.iter() {
            if !first {
                write!(f, "+")?;
            }
            write!(f, "{}", c.label())?;
            first = false;
        }
        if first {
            write!(f, "∅")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_ops() {
        let m = EdgeMask::WW | EdgeMask::RW;
        assert!(m.contains(EdgeClass::Ww));
        assert!(m.contains(EdgeClass::Rw));
        assert!(!m.contains(EdgeClass::Wr));
        assert!(m.intersects(EdgeMask::RW));
        assert!(!m.intersects(EdgeMask::WR));
        assert!(!m.is_empty());
        assert!(EdgeMask::NONE.is_empty());
        assert_eq!(m.iter().count(), 2);
        assert_eq!(m.to_string(), "ww+rw");
        assert_eq!(EdgeMask::NONE.to_string(), "∅");
    }

    #[test]
    fn all_classes_have_distinct_bits() {
        let mut seen = 0u8;
        for c in EdgeClass::ALL {
            let bit = EdgeMask::of(c).0;
            assert_eq!(seen & bit, 0);
            seen |= bit;
        }
        assert_eq!(seen, EdgeMask::ALL.0);
    }
}
