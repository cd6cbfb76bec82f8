//! Frame classification and summary statistics for the evaluation.
//!
//! Figure 7 of the paper reports the *relative cost of agreement*: out of
//! all reliable/echo broadcasts executed while delivering a burst, how
//! many belonged to the agreement machinery rather than to payload
//! (`AB_MSG`) dissemination. A broadcast instance is identified on the
//! wire by its `INIT` message, so the classifier walks a frame's typed
//! envelope down to the innermost broadcast primitive and reports whether
//! the frame is such an `INIT` and which side it serves.

use bytes::Bytes;
use ritas::ab::AbMessage;
use ritas::bc::{BcMessage, BinMessage};
use ritas::codec::Reader;
use ritas::codec::WireMessage;
use ritas::eb::EbMessage;
use ritas::mvc::{MvcMessage, VectBody};
use ritas::rb::RbMessage;
use ritas::stack::InstanceKey;

/// What a broadcast-instance `INIT` serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Purpose {
    /// Dissemination of an atomically broadcast payload (`AB_MSG`).
    Payload,
    /// The agreement machinery (`AB_VECT`, consensus INIT/VECT, binary
    /// consensus step broadcasts).
    Agreement,
    /// A top-level broadcast outside an atomic broadcast session.
    Standalone,
}

/// If `frame` is the `INIT` of a reliable or echo broadcast instance,
/// returns its purpose; otherwise `None`.
///
/// Counting the `INIT`s that *arrive at one fixed process* counts
/// broadcast instances exactly once each (every instance delivers one
/// `INIT` per destination).
pub fn classify_broadcast_init(frame: &Bytes) -> Option<Purpose> {
    let mut r = Reader::new(frame);
    let key = InstanceKey::decode(&mut r).ok()?;
    let body = frame.slice(frame.len() - r.remaining()..);
    match key {
        InstanceKey::Rb { .. } => match RbMessage::from_bytes(&body).ok()? {
            RbMessage::Init(_) => Some(Purpose::Standalone),
            _ => None,
        },
        InstanceKey::Eb { .. } => match EbMessage::from_bytes(&body).ok()? {
            EbMessage::Init(_) => Some(Purpose::Standalone),
            _ => None,
        },
        InstanceKey::Bc { .. } => {
            bc_is_init(&BinMessage::from_bytes(&body).ok()?).then_some(Purpose::Standalone)
        }
        InstanceKey::Mvc { .. } => match MvcMessage::from_bytes(&body).ok()? {
            m if mvc_is_init(&m) => Some(Purpose::Standalone),
            _ => None,
        },
        InstanceKey::Vc { .. } => {
            // Vector consensus wraps proposals (RBC) and per-round MVCs.
            use ritas::vc::VcMessage;
            match VcMessage::from_bytes(&body).ok()? {
                VcMessage::Prop {
                    inner: RbMessage::Init(_),
                    ..
                } => Some(Purpose::Standalone),
                VcMessage::Round { inner, .. } if mvc_is_init(&inner) => Some(Purpose::Standalone),
                _ => None,
            }
        }
        // State-transfer traffic is point-to-point request/response,
        // not a broadcast instance.
        InstanceKey::Xfer => None,
        InstanceKey::Ab { .. } => match AbMessage::from_bytes(&body).ok()? {
            AbMessage::Msg {
                inner: RbMessage::Init(_),
                ..
            } => Some(Purpose::Payload),
            AbMessage::Vect {
                inner: RbMessage::Init(_),
                ..
            } => Some(Purpose::Agreement),
            AbMessage::Agree { inner, .. } if mvc_is_init(&inner) => Some(Purpose::Agreement),
            _ => None,
        },
    }
}

/// Whether a binary consensus message is the `INIT` of a step broadcast
/// (the lean consensus has none).
fn bc_is_init(m: &BinMessage) -> bool {
    matches!(
        m,
        BinMessage::Paper(BcMessage {
            inner: RbMessage::Init(_),
            ..
        })
    )
}

/// Whether an MVC message is the `INIT` of one of its child broadcast
/// instances (INIT RBC, VECT echo/reliable broadcast, or a binary
/// consensus step broadcast).
fn mvc_is_init(m: &MvcMessage) -> bool {
    match m {
        MvcMessage::Init {
            inner: RbMessage::Init(_),
            ..
        } => true,
        MvcMessage::Vect {
            inner: VectBody::Echo(EbMessage::Init(_)),
            ..
        } => true,
        MvcMessage::Vect {
            inner: VectBody::Reliable(RbMessage::Init(_)),
            ..
        } => true,
        MvcMessage::Bin(bc) => bc_is_init(bc),
        _ => false,
    }
}

/// Running counters maintained by the simulator network.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetCounters {
    /// Frames that traversed the network (arrivals at live hosts).
    pub frames: u64,
    /// Total wire bytes of those frames.
    pub wire_bytes: u64,
    /// Payload-side broadcast instances (counted at the observer host).
    pub payload_broadcasts: u64,
    /// Agreement-side broadcast instances (counted at the observer host).
    pub agreement_broadcasts: u64,
    /// Standalone broadcast instances (non-AB experiments).
    pub standalone_broadcasts: u64,
}

impl NetCounters {
    /// Relative cost of agreement (Figure 7): agreement broadcasts over
    /// all payload+agreement broadcasts. `None` when nothing was counted.
    pub fn agreement_ratio(&self) -> Option<f64> {
        let total = self.payload_broadcasts + self.agreement_broadcasts;
        if total == 0 {
            None
        } else {
            Some(self.agreement_broadcasts as f64 / total as f64)
        }
    }
}

/// Mean of a sample.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Sample standard deviation.
pub fn stddev(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let m = mean(samples);
    (samples.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (samples.len() - 1) as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ritas::codec::Writer;

    fn frame(key: InstanceKey, m: &impl WireMessage) -> Bytes {
        let mut w = Writer::new();
        key.encode(&mut w);
        m.encode(&mut w);
        w.freeze()
    }

    #[test]
    fn ab_msg_init_is_payload() {
        let f = frame(
            InstanceKey::Ab { session: 0 },
            &AbMessage::Msg {
                id: ritas::ab::MsgId { sender: 0, rbid: 0 },
                inner: RbMessage::Init(Bytes::from_static(b"m")),
            },
        );
        assert_eq!(classify_broadcast_init(&f), Some(Purpose::Payload));
    }

    #[test]
    fn ab_msg_echo_is_not_an_instance() {
        let f = frame(
            InstanceKey::Ab { session: 0 },
            &AbMessage::Msg {
                id: ritas::ab::MsgId { sender: 0, rbid: 0 },
                inner: RbMessage::Echo(Bytes::from_static(b"m")),
            },
        );
        assert_eq!(classify_broadcast_init(&f), None);
    }

    #[test]
    fn ab_vect_init_is_agreement() {
        let f = frame(
            InstanceKey::Ab { session: 0 },
            &AbMessage::Vect {
                origin: 1,
                round: 0,
                inner: RbMessage::Init(Bytes::from_static(b"ids")),
            },
        );
        assert_eq!(classify_broadcast_init(&f), Some(Purpose::Agreement));
    }

    #[test]
    fn consensus_inits_inside_ab_are_agreement() {
        let mvc_init = AbMessage::Agree {
            round: 0,
            inner: MvcMessage::Init {
                origin: 2,
                inner: RbMessage::Init(Bytes::from_static(b"w")),
            },
        };
        let f = frame(InstanceKey::Ab { session: 0 }, &mvc_init);
        assert_eq!(classify_broadcast_init(&f), Some(Purpose::Agreement));

        let bc_init = AbMessage::Agree {
            round: 0,
            inner: MvcMessage::Bin(BinMessage::Paper(BcMessage {
                round: 1,
                step: 1,
                origin: 0,
                inner: RbMessage::Init(Bytes::from_static(&[1])),
            })),
        };
        let f = frame(InstanceKey::Ab { session: 0 }, &bc_init);
        assert_eq!(classify_broadcast_init(&f), Some(Purpose::Agreement));

        let vect_init = AbMessage::Agree {
            round: 0,
            inner: MvcMessage::Vect {
                origin: 1,
                inner: VectBody::Echo(EbMessage::Init(Bytes::from_static(b"v"))),
            },
        };
        let f = frame(InstanceKey::Ab { session: 0 }, &vect_init);
        assert_eq!(classify_broadcast_init(&f), Some(Purpose::Agreement));
    }

    #[test]
    fn standalone_rb_init() {
        let f = frame(
            InstanceKey::Rb { sender: 0, seq: 0 },
            &RbMessage::Init(Bytes::from_static(b"m")),
        );
        assert_eq!(classify_broadcast_init(&f), Some(Purpose::Standalone));
    }

    #[test]
    fn garbage_classifies_as_none() {
        assert_eq!(
            classify_broadcast_init(&Bytes::from_static(&[0xff, 1, 2])),
            None
        );
    }

    #[test]
    fn agreement_ratio() {
        let c = NetCounters {
            payload_broadcasts: 4,
            agreement_broadcasts: 48,
            ..NetCounters::default()
        };
        let r = c.agreement_ratio().unwrap();
        assert!((r - 48.0 / 52.0).abs() < 1e-9);
        assert_eq!(NetCounters::default().agreement_ratio(), None);
    }

    #[test]
    fn summary_stats() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert!(stddev(&[1.0, 1.0, 1.0]) < 1e-12);
        assert!(stddev(&[1.0, 3.0]) > 1.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
