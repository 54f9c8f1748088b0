//! Typed identifiers for the simulated cluster.

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident($inner:ty)) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash,
        )]
        pub struct $name(pub $inner);

        impl $name {
            /// The raw id value.
            pub fn raw(self) -> $inner {
                self.0
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}#{}", stringify!($name), self.0)
            }
        }
    };
}

id_type!(
    /// A registered microservice.
    ServiceId(u32)
);
id_type!(
    /// One user query.
    ///
    /// Real user queries carry a bare per-service sequence number.
    /// Synthetic traffic — shadow calibration probes, the contention
    /// meters' heartbeat queries, and chaos-injected pressure spikes —
    /// is tagged in the id's upper bits so the runtime can exclude it
    /// from QoS accounting without a lookup:
    ///
    /// ```text
    /// bit 63      : shadow bit (set on every synthetic query)
    /// bits 56..63 : meter index (meter heartbeats only)
    /// bits 48..56 : shadow set — mark: 0xFF shadow probe, 0xFE
    ///               pressure spike, 0x00 meter heartbeat;
    ///               shadow clear — workflow stage index (0 for plain
    ///               single-stage queries)
    /// bits  0..48 : sequence number
    /// ```
    ///
    /// Build ids through [`QueryId::user`], [`QueryId::user_stage`],
    /// [`QueryId::meter`], [`QueryId::shadow_probe`] and
    /// [`QueryId::spike`] — each asserts (in debug builds) that the
    /// sequence number cannot overflow into the tag fields and collide
    /// with another class of id.
    QueryId(u64)
);
id_type!(
    /// One serverless container.
    ContainerId(u64)
);
id_type!(
    /// One node in a multi-node topology.
    ///
    /// The raw value is a `u8`: a topology has at most 255 nodes, the
    /// bound `ExperimentBuilder::nodes` enforces. Build ids through
    /// [`NodeId::new`], which asserts (in debug builds) that a `usize`
    /// index fits; use [`NodeId::index`] to get it back for slice
    /// access.
    NodeId(u8)
);

impl NodeId {
    /// The home node of every single-node (legacy) scenario.
    pub const ZERO: NodeId = NodeId(0);

    /// A node id from a topology index, asserting it fits a `u8`.
    #[inline]
    pub fn new(index: usize) -> Self {
        debug_assert!(
            index <= u8::MAX as usize,
            "node index {index} out of range (max 255)"
        );
        NodeId(index as u8)
    }

    /// The node's topology index, for slice access.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl QueryId {
    /// Synthetic-traffic flag: set on shadow probes, meter heartbeats
    /// and spike queries; never on real user queries.
    pub const SHADOW_BIT: u64 = 1 << 63;
    /// Mark value of a shadow calibration probe (§III step 1 traffic).
    pub const PROBE_MARK: u8 = 0xFF;
    /// Mark value of a chaos-injected pressure-spike query.
    pub const SPIKE_MARK: u8 = 0xFE;
    const MARK_SHIFT: u32 = 48;
    const METER_SHIFT: u32 = 56;
    /// Low 48 bits: the per-stream sequence number.
    const SEQ_MASK: u64 = (1 << Self::MARK_SHIFT) - 1;

    /// Workflow stage indices share the mark field's bit range; they
    /// stay well under the synthetic marks (0xFE/0xFF) because a
    /// workflow holds at most 64 stages.
    pub const MAX_STAGE: usize = 63;

    /// A real user query. `seq` is the per-service sequence number.
    /// Identical to [`QueryId::user_stage`] with stage 0, so plain
    /// single-stage traffic and workflow root traffic share one id
    /// space.
    #[inline]
    pub fn user(seq: u64) -> Self {
        debug_assert!(
            seq & !Self::SEQ_MASK == 0,
            "user query seq {seq:#x} overflows into the tag bits"
        );
        QueryId(seq)
    }

    /// A real user query flowing through workflow stage `stage`. The
    /// sequence number is the *instance* number shared by every stage
    /// of one workflow traversal, so [`QueryId::seq`] keys the
    /// instance and [`QueryId::stage`] attributes the span.
    #[inline]
    pub fn user_stage(seq: u64, stage: usize) -> Self {
        debug_assert!(
            seq & !Self::SEQ_MASK == 0,
            "user query seq {seq:#x} overflows into the tag bits"
        );
        debug_assert!(
            stage <= Self::MAX_STAGE,
            "stage index {stage} out of range (max {})",
            Self::MAX_STAGE
        );
        QueryId((stage as u64) << Self::MARK_SHIFT | seq)
    }

    /// The workflow stage index of a user query (0 for plain
    /// single-stage traffic). Meaningless for synthetic queries, whose
    /// mark field overlaps this range.
    #[inline]
    pub fn stage(self) -> usize {
        debug_assert!(!self.is_shadow(), "stage() called on a synthetic query id");
        ((self.0 >> Self::MARK_SHIFT) & 0xFF) as usize
    }

    /// A shadow calibration probe mirrored to the serverless platform
    /// while its service runs on IaaS. Shares the service's sequence
    /// counter with real queries; the mark keeps the ids distinct.
    #[inline]
    pub fn shadow_probe(seq: u64) -> Self {
        debug_assert!(
            seq & !Self::SEQ_MASK == 0,
            "shadow probe seq {seq:#x} overflows into the tag bits"
        );
        QueryId(Self::SHADOW_BIT | (Self::PROBE_MARK as u64) << Self::MARK_SHIFT | seq)
    }

    /// A contention-meter heartbeat query for the `meter`-th meter.
    #[inline]
    pub fn meter(meter: usize, seq: u64) -> Self {
        debug_assert!(
            meter < (1 << (63 - Self::METER_SHIFT)),
            "meter index {meter} would overflow into the shadow bit"
        );
        debug_assert!(
            seq & !Self::SEQ_MASK == 0,
            "meter seq {seq:#x} overflows into the mark field"
        );
        QueryId(Self::SHADOW_BIT | (meter as u64) << Self::METER_SHIFT | seq)
    }

    /// A chaos-injected pressure-spike query: pure synthetic load on
    /// the shared pool, excluded from every account.
    #[inline]
    pub fn spike(seq: u64) -> Self {
        debug_assert!(
            seq & !Self::SEQ_MASK == 0,
            "spike seq {seq:#x} overflows into the tag bits"
        );
        QueryId(Self::SHADOW_BIT | (Self::SPIKE_MARK as u64) << Self::MARK_SHIFT | seq)
    }

    /// Is this any kind of synthetic query (probe, meter or spike)?
    #[inline]
    pub fn is_shadow(self) -> bool {
        self.0 & Self::SHADOW_BIT != 0
    }

    /// The 8-bit mark field (`0xFF` probe, `0xFE` spike, `0` otherwise).
    #[inline]
    pub fn mark(self) -> u8 {
        ((self.0 >> Self::MARK_SHIFT) & 0xFF) as u8
    }

    /// Is this a chaos-injected pressure-spike query?
    #[inline]
    pub fn is_spike(self) -> bool {
        self.is_shadow() && self.mark() == Self::SPIKE_MARK
    }

    /// Is this a shadow calibration probe?
    #[inline]
    pub fn is_probe(self) -> bool {
        self.is_shadow() && self.mark() == Self::PROBE_MARK
    }

    /// The sequence number, tag bits stripped.
    #[inline]
    pub fn seq(self) -> u64 {
        self.0 & Self::SEQ_MASK
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_distinct_types_with_raw_access() {
        let s = ServiceId(3);
        let q = QueryId(7);
        assert_eq!(s.raw(), 3);
        assert_eq!(q.raw(), 7);
        assert_eq!(format!("{s}"), "ServiceId#3");
    }

    #[test]
    fn node_ids_round_trip_indices() {
        assert_eq!(NodeId::ZERO, NodeId::new(0));
        assert_eq!(NodeId::new(254).index(), 254);
        assert!(NodeId::new(1) < NodeId::new(2));
        assert_eq!(format!("{}", NodeId::new(3)), "NodeId#3");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of range")]
    fn node_id_rejects_oversized_index() {
        let _ = NodeId::new(256);
    }

    #[test]
    fn stage_zero_ids_equal_plain_user_ids() {
        for seq in [0u64, 1, 42, (1 << 48) - 1] {
            assert_eq!(QueryId::user(seq), QueryId::user_stage(seq, 0));
        }
    }

    #[test]
    fn stage_ids_round_trip_and_stay_user_class() {
        let q = QueryId::user_stage(1234, 5);
        assert_eq!(q.seq(), 1234);
        assert_eq!(q.stage(), 5);
        assert!(!q.is_shadow());
        assert!(!q.is_probe());
        assert!(!q.is_spike());
        // Distinct stages of one instance are distinct ids.
        assert_ne!(q, QueryId::user_stage(1234, 6));
        // The stage field never collides with a shadow probe of the
        // same sequence number.
        assert_ne!(q.raw(), QueryId::shadow_probe(1234).raw());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stage index")]
    fn stage_out_of_range_is_rejected() {
        let _ = QueryId::user_stage(1, 64);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "overflows")]
    fn stage_seq_overflow_is_rejected() {
        let _ = QueryId::user_stage(1 << 48, 0);
    }

    #[test]
    fn ids_order_and_hash() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(ContainerId(1));
        set.insert(ContainerId(1));
        set.insert(ContainerId(2));
        assert_eq!(set.len(), 2);
        assert!(ContainerId(1) < ContainerId(2));
    }
}
