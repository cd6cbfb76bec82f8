//! Wire-format trait for protocol messages.
//!
//! Every protocol message in the stack implements [`WireMessage`] and is
//! encoded with the hardened reader/writer from `ritas-transport` — all
//! inputs are assumed hostile (Byzantine peers can send arbitrary bytes).

use bytes::Bytes;
pub use ritas_transport::wire::{Reader, WireError, Writer};

/// A message with a binary wire representation.
pub trait WireMessage: Sized {
    /// Appends the encoding of `self` to `w`.
    fn encode(&self, w: &mut Writer);

    /// Decodes a value from `r`, consuming exactly its encoding.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncated, oversized or invalid input.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// Encodes `self` into a fresh buffer.
    fn to_bytes(&self) -> Bytes {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.freeze()
    }

    /// Decodes a value that must occupy the whole input.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on any decode failure, including trailing
    /// bytes after a structurally-valid prefix.
    fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        decode_whole(Reader::new(bytes))
    }

    /// [`WireMessage::from_bytes`] over a shared buffer: the decoded
    /// value's byte fields are views of `bytes`, not copies (see
    /// [`Reader::shared`]). Same result, same errors.
    ///
    /// # Errors
    ///
    /// As [`WireMessage::from_bytes`].
    fn from_shared(bytes: &Bytes) -> Result<Self, WireError> {
        decode_whole(Reader::shared(bytes))
    }
}

fn decode_whole<M: WireMessage>(mut r: Reader<'_>) -> Result<M, WireError> {
    let v = M::decode(&mut r)?;
    r.finish()?;
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Pair(u32, Bytes);

    impl WireMessage for Pair {
        fn encode(&self, w: &mut Writer) {
            w.u32(self.0).bytes(&self.1);
        }

        fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
            Ok(Pair(r.u32("pair.a")?, r.bytes("pair.b")?))
        }
    }

    #[test]
    fn roundtrip() {
        let p = Pair(7, Bytes::from_static(b"xy"));
        assert_eq!(Pair::from_bytes(&p.to_bytes()).unwrap(), p);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let p = Pair(7, Bytes::from_static(b"xy"));
        let mut buf = p.to_bytes().to_vec();
        buf.push(0xff);
        assert!(matches!(
            Pair::from_bytes(&buf),
            Err(WireError::TrailingBytes { remaining: 1 })
        ));
    }

    #[test]
    fn truncation_rejected() {
        let p = Pair(7, Bytes::from_static(b"xy"));
        let buf = p.to_bytes();
        assert!(Pair::from_bytes(&buf[..buf.len() - 1]).is_err());
    }

    // ----- the two readers agree -----

    use crate::ab::{AbMessage, MsgId};
    use crate::adversary::FrameMutator;
    use crate::bc::lean::{LeanKind, LeanMessage};
    use crate::bc::{BcMessage, BinMessage};
    use crate::eb::EbMessage;
    use crate::mvc::{MvcMessage, VectBody, VectPayload};
    use crate::rb::RbMessage;
    use crate::stack::InstanceKey;
    use crate::vc::VcMessage;
    use ritas_crypto::mac::{MacTag, TAG_LEN};
    use ritas_transport::wire::MAX_FIELD_LEN;

    /// `valid` and what an adversary makes of it: every truncation, every
    /// byte flipped two ways (a flipped top byte of a length prefix is an
    /// oversized one), and a seeded [`FrameMutator`]'s rewrites.
    fn hostile_variants(valid: &Bytes, seed: u64) -> Vec<Bytes> {
        let mut out = vec![valid.clone()];
        out.extend((0..valid.len()).map(|cut| valid.slice(..cut)));
        for at in 0..valid.len() {
            for mask in [0x01, 0xFF] {
                let mut v = valid.to_vec();
                v[at] ^= mask;
                out.push(Bytes::from(v));
            }
        }
        let mut mutator = FrameMutator::new(seed);
        for _ in 0..64 {
            out.extend(mutator.mutate(valid.clone()));
        }
        out
    }

    /// Decodes every variant of every valid encoding over a shared and
    /// over a borrowing reader: same value or same error, and both
    /// outcomes occur. A value decoded over the shared reader equals the
    /// copy, so equality also covers every byte of every view.
    fn readers_agree<T: PartialEq + core::fmt::Debug>(
        valid: &[Bytes],
        decode: impl Fn(Reader<'_>) -> Result<T, WireError>,
    ) {
        let (mut accepted, mut rejected) = (0, 0);
        for (seed, encoding) in valid.iter().enumerate() {
            assert!(decode(Reader::shared(encoding)).is_ok(), "{encoding:?}");
            for input in hostile_variants(encoding, seed as u64) {
                let shared = decode(Reader::shared(&input));
                assert_eq!(shared, decode(Reader::new(&input)), "input {input:?}");
                match shared {
                    Ok(_) => accepted += 1,
                    Err(_) => rejected += 1,
                }
            }
        }
        assert!(accepted > valid.len() && rejected > valid.len());
    }

    fn messages_agree<M: WireMessage + PartialEq + core::fmt::Debug>(valid: &[M]) {
        let encodings: Vec<Bytes> = valid.iter().map(WireMessage::to_bytes).collect();
        readers_agree(&encodings, decode_whole::<M>);
    }

    fn rb_messages() -> [RbMessage; 4] {
        [
            RbMessage::Init(Bytes::from_static(b"payload")),
            RbMessage::Echo(Bytes::new()),
            RbMessage::Ready(Bytes::from_static(&[1])),
            RbMessage::Echo(Bytes::from(vec![0xA5; 300])),
        ]
    }

    fn mvc_messages() -> Vec<MvcMessage> {
        let mut out: Vec<MvcMessage> = rb_messages()
            .into_iter()
            .map(|inner| MvcMessage::Init { origin: 2, inner })
            .collect();
        out.extend([
            MvcMessage::Vect {
                origin: 1,
                inner: VectBody::Echo(EbMessage::Init(Bytes::from_static(b"vect"))),
            },
            MvcMessage::Vect {
                origin: 1,
                inner: VectBody::Echo(EbMessage::Mat(vec![Some(MacTag([3; TAG_LEN])), None])),
            },
            MvcMessage::Vect {
                origin: 3,
                inner: VectBody::Reliable(RbMessage::Ready(Bytes::from_static(b"vect"))),
            },
            MvcMessage::Bin(BinMessage::Paper(BcMessage {
                round: 2,
                step: 3,
                origin: 0,
                inner: RbMessage::Echo(Bytes::from_static(&[2])),
            })),
            MvcMessage::Bin(BinMessage::Lean(LeanMessage {
                kind: LeanKind::Term,
                round: 4,
                value: true,
            })),
        ]);
        out
    }

    #[test]
    fn shared_and_borrowing_readers_decode_every_message_alike() {
        messages_agree(&[
            InstanceKey::Rb { sender: 1, seq: 9 },
            InstanceKey::Eb { sender: 0, seq: 0 },
            InstanceKey::Bc { tag: 42 },
            InstanceKey::Mvc { tag: u64::MAX },
            InstanceKey::Vc { tag: 7 },
            InstanceKey::Ab { session: 3 },
            InstanceKey::Xfer,
        ]);
        messages_agree(&rb_messages());
        let tags = vec![MacTag([1; TAG_LEN]), MacTag([2; TAG_LEN])];
        messages_agree(&[
            EbMessage::Init(Bytes::from_static(b"m")),
            EbMessage::Vect(tags.clone()),
            EbMessage::Mat(vec![Some(tags[0]), None, Some(tags[1])]),
        ]);
        messages_agree(&[
            BinMessage::Paper(BcMessage {
                round: 1,
                step: 1,
                origin: 3,
                inner: RbMessage::Init(Bytes::from_static(&[1])),
            }),
            BinMessage::Paper(BcMessage {
                round: 7,
                step: 3,
                origin: 0,
                inner: RbMessage::Ready(Bytes::from_static(&[2])),
            }),
            BinMessage::Lean(LeanMessage {
                kind: LeanKind::Est,
                round: 1,
                value: false,
            }),
            BinMessage::Lean(LeanMessage {
                kind: LeanKind::Aux,
                round: 9,
                value: true,
            }),
        ]);
        messages_agree(&mvc_messages());
        let mut vc: Vec<VcMessage> = rb_messages()
            .into_iter()
            .map(|inner| VcMessage::Prop { origin: 1, inner })
            .collect();
        vc.extend(
            mvc_messages()
                .into_iter()
                .map(|inner| VcMessage::Round { round: 4, inner }),
        );
        messages_agree(&vc);
        let mut ab: Vec<AbMessage> = Vec::new();
        for inner in rb_messages() {
            ab.push(AbMessage::Msg {
                id: MsgId { sender: 2, rbid: 7 },
                inner: inner.clone(),
            });
            ab.push(AbMessage::Vect {
                origin: 1,
                round: 3,
                inner,
            });
        }
        ab.extend(
            mvc_messages()
                .into_iter()
                .map(|inner| AbMessage::Agree { round: 5, inner }),
        );
        ab.extend([LeanKind::Est, LeanKind::Aux, LeanKind::Term].map(|kind| {
            let inner = LeanMessage {
                kind,
                round: 2,
                value: true,
            };
            AbMessage::Slot { slot: 9, inner }
        }));
        messages_agree(&ab);
        messages_agree(&[
            VectPayload {
                value: None,
                justification: Vec::new(),
            },
            VectPayload {
                value: Some(Bytes::from_static(b"v")),
                justification: vec![
                    Some(Bytes::from_static(b"v")),
                    None,
                    Some(Bytes::from_static(b"w")),
                ],
            },
        ]);
    }

    #[test]
    fn shared_and_borrowing_readers_decode_batches_and_id_vectors_alike() {
        let batch = |start: u64, commands: &[&[u8]]| {
            let mut w = Writer::new();
            w.u64(start).u32(commands.len() as u32);
            for c in commands {
                w.bytes(c);
            }
            w.freeze()
        };
        readers_agree(
            &[
                batch(0, &[]),
                batch(5, &[b"one"]),
                batch(u64::MAX - 3, &[b"", b"two", &[0xEE; 200]]),
            ],
            crate::ab::dissemination::read_batch,
        );
        let ids = |ids: &[(u32, u64)]| {
            let mut w = Writer::new();
            w.u32(ids.len() as u32);
            for (sender, rbid) in ids {
                w.u32(*sender).u64(*rbid);
            }
            w.freeze()
        };
        readers_agree(
            &[
                ids(&[]),
                ids(&[(0, 1)]),
                ids(&[(0, 1), (3, 0), (2, u64::MAX)]),
            ],
            crate::ab::vector::read_ids,
        );
    }

    #[test]
    fn oversized_length_prefix_is_the_same_error_over_both_readers() {
        let mut w = Writer::new();
        w.u8(1).u32((MAX_FIELD_LEN + 1) as u32).raw(b"x");
        let frame = w.freeze();
        let want = Err(WireError::FieldTooLong {
            what: "rb.payload",
            len: MAX_FIELD_LEN + 1,
        });
        assert_eq!(RbMessage::from_shared(&frame), want);
        assert_eq!(RbMessage::from_bytes(&frame), want);
    }

    #[test]
    fn from_shared_fields_are_views_of_the_frame() {
        let frame = RbMessage::Echo(Bytes::from_static(b"payload")).to_bytes();
        let RbMessage::Echo(view) = RbMessage::from_shared(&frame).unwrap() else {
            panic!("an ECHO was encoded");
        };
        assert_eq!(view.as_ptr() as usize, frame.as_ptr() as usize + 5);
        let RbMessage::Echo(copy) = RbMessage::from_bytes(&frame).unwrap() else {
            panic!("an ECHO was encoded");
        };
        assert_eq!(copy, view);
        assert_ne!(copy.as_ptr(), view.as_ptr());
    }
}
