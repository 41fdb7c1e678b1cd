//! Simulator configuration: transport constants and switch buffer sizing.

use serde::{Deserialize, Serialize};
use sonet_topology::SwitchKind;
use sonet_util::SimDuration;

/// Shared-buffer parameters for one switch class.
///
/// Commodity top-of-rack ASICs of the paper's era (Trident-class) expose a
/// shared packet buffer of ~12 MB across all ports with dynamic-threshold
/// (DT) admission: a packet is admitted to an egress queue only while that
/// queue is shorter than `alpha ×` the remaining free pool. §6.3 observes
/// Web racks running at two-thirds of this shared pool despite ~1 % link
/// utilization — reproducing that requires modeling the *shared* pool, not
/// per-port FIFOs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BufferConfig {
    /// Shared pool size in bytes.
    pub shared_bytes: u64,
    /// Dynamic-threshold alpha: max egress backlog as a multiple of the
    /// free pool.
    pub alpha: f64,
}

impl BufferConfig {
    /// Trident-class ToR: 12 MB shared, alpha 1.
    pub fn tor_default() -> BufferConfig {
        BufferConfig {
            shared_bytes: 12 << 20,
            alpha: 1.0,
        }
    }

    /// Deeper-buffered aggregation switch: 96 MB shared.
    pub fn agg_default() -> BufferConfig {
        BufferConfig {
            shared_bytes: 96 << 20,
            alpha: 2.0,
        }
    }

    /// Largest share of the pool one egress queue can hold under DT
    /// admission: a lone queue stops growing once its backlog reaches
    /// `alpha ×` the free remainder, at `alpha / (1 + alpha)` of the pool.
    pub fn dt_ceiling(&self) -> f64 {
        self.alpha / (1.0 + self.alpha)
    }
}

/// Engine-wide configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Maximum segment size (application payload per data packet).
    pub mss: u32,
    /// Framing overhead per packet on the wire (Ethernet + IP + TCP).
    pub header_bytes: u32,
    /// Wire size of a zero-payload control packet (SYN/ACK/FIN).
    pub control_bytes: u32,
    /// Per-direction sending window, in segments (ACK clocking bound).
    pub window_segments: u32,
    /// Receiver sends an ACK after this many unacknowledged data segments
    /// (delayed ACK; message boundaries always ACK immediately).
    pub ack_every: u32,
    /// Go-back-N retransmission timeout.
    pub rto: SimDuration,
    /// Give up on a handshake after this many SYNs (exponential backoff
    /// between attempts); the connection is then aborted instead of
    /// retrying forever, so workloads degrade rather than wedge when a
    /// server is unreachable.
    pub syn_max_attempts: u32,
    /// Abort a connection after this many consecutive retransmissions
    /// with no acknowledgement progress *while its route is broken* (a
    /// dead link with no healthy alternative). Timeouts on a healthy
    /// route retransmit forever, as before.
    pub max_consecutive_rtos: u32,
    /// How long a closed connection's slot is quarantined before reuse.
    ///
    /// Must comfortably exceed the worst-case lifetime of in-flight
    /// packets and timers of the previous occupant; generation tags make
    /// stragglers harmless, so this only affects how quickly 5-tuples
    /// could be re-observed.
    pub conn_quarantine: SimDuration,
    /// Buffers for rack switches (RSW).
    pub rsw_buffer: BufferConfig,
    /// Buffers for aggregation switches (CSW/FC/DR/backbone).
    pub agg_buffer: BufferConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            mss: 1460,
            // 14 (Eth) + 4 (FCS) + 20 (IP) + 20 (TCP) + 12 (timestamps) = 70;
            // rounded to the 66-byte minimum ACK frame commonly seen in traces
            // plus options. We use 54 + 12 = 66 for control, 66 for data
            // framing too, so a full data packet is 1460 + 66 = 1526 wire
            // bytes and a pure ACK is 66.
            header_bytes: 66,
            control_bytes: 66,
            window_segments: 64,
            ack_every: 2,
            rto: SimDuration::from_millis(50),
            syn_max_attempts: 6,
            max_consecutive_rtos: 8,
            conn_quarantine: SimDuration::from_millis(200),
            rsw_buffer: BufferConfig::tor_default(),
            agg_buffer: BufferConfig::agg_default(),
        }
    }
}

impl SimConfig {
    /// Buffer configuration for a given switch kind.
    pub fn buffer_for(&self, kind: SwitchKind) -> BufferConfig {
        match kind {
            SwitchKind::Rsw => self.rsw_buffer,
            _ => self.agg_buffer,
        }
    }

    /// Wire size of a data packet carrying `payload` bytes.
    pub fn data_wire_bytes(&self, payload: u32) -> u32 {
        debug_assert!(payload > 0 && payload <= self.mss);
        payload + self.header_bytes
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.mss == 0 {
            return Err("mss must be positive".into());
        }
        if self.window_segments == 0 {
            return Err("window must be at least 1 segment".into());
        }
        if self.ack_every == 0 {
            return Err("ack_every must be at least 1".into());
        }
        if self.rto.is_zero() {
            return Err("rto must be positive".into());
        }
        if self.syn_max_attempts == 0 {
            return Err("syn_max_attempts must be at least 1".into());
        }
        if self.max_consecutive_rtos == 0 {
            return Err("max_consecutive_rtos must be at least 1".into());
        }
        if self.rsw_buffer.shared_bytes == 0 || self.agg_buffer.shared_bytes == 0 {
            return Err("switch buffers must be non-empty".into());
        }
        if self.rsw_buffer.alpha <= 0.0 || self.agg_buffer.alpha <= 0.0 {
            return Err("DT alpha must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        SimConfig::default()
            .validate()
            .expect("default config valid");
    }

    #[test]
    fn wire_sizes() {
        let c = SimConfig::default();
        assert_eq!(c.data_wire_bytes(1460), 1526);
        assert_eq!(c.data_wire_bytes(100), 166);
        assert_eq!(c.control_bytes, 66);
    }

    #[test]
    fn buffer_for_kind() {
        let c = SimConfig::default();
        assert_eq!(c.buffer_for(SwitchKind::Rsw), c.rsw_buffer);
        assert_eq!(c.buffer_for(SwitchKind::Csw), c.agg_buffer);
        assert_eq!(c.buffer_for(SwitchKind::Backbone), c.agg_buffer);
    }

    #[test]
    fn validation_rejects_bad_values() {
        let mut c = SimConfig::default();
        c.mss = 0;
        assert!(c.validate().is_err());
        let mut c = SimConfig::default();
        c.window_segments = 0;
        assert!(c.validate().is_err());
        let mut c = SimConfig::default();
        c.rto = SimDuration::ZERO;
        assert!(c.validate().is_err());
        let mut c = SimConfig::default();
        c.rsw_buffer.alpha = 0.0;
        assert!(c.validate().is_err());
    }
}
