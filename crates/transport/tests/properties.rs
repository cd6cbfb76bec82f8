//! Property-based tests for the transport layer: AH sealing laws against
//! arbitrary payloads and tampering, wire codec roundtrips, and hub
//! delivery invariants.

use bytes::Bytes;
use proptest::prelude::*;
use ritas_crypto::KeyTable;
use ritas_transport::wire::{Reader, Writer};
use ritas_transport::{AuthConfig, AuthenticatedTransport, Hub, Transport};

proptest! {
    /// Any payload survives seal → network → open, and an attacker
    /// without the key cannot get an arbitrary forged frame accepted:
    /// the receiver silently drops it and only delivers honest traffic.
    /// (An empty message is not carried under AH, so payloads are
    /// non-empty.)
    #[test]
    fn ah_seal_open_and_forgery_rejection(
        payload in proptest::collection::vec(any::<u8>(), 1..300),
        forged in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let table = KeyTable::dealer(3, 77);
        let mut hub = Hub::new(3);
        let mut eps = hub.take_endpoints().into_iter();
        let a = AuthenticatedTransport::new(
            eps.next().unwrap(),
            AuthConfig::from_key_table(&table, 0),
        );
        let b = AuthenticatedTransport::new(
            eps.next().unwrap(),
            AuthConfig::from_key_table(&table, 1),
        );
        let attacker = eps.next().unwrap(); // raw endpoint, no keys

        // The attacker injects an arbitrary frame first…
        attacker.send(1, Bytes::from(forged)).unwrap();
        // …then an honest sealed frame goes through.
        a.send(1, Bytes::from(payload.clone())).unwrap();
        let (from, got) = b.recv().unwrap();
        prop_assert_eq!((from, got.as_ref()), (0usize, payload.as_slice()));
        prop_assert_eq!(b.rejected_frames(), 1);
    }

    /// Writer/Reader roundtrip arbitrary field sequences.
    #[test]
    fn wire_field_sequence_roundtrip(
        scalars in proptest::collection::vec(any::<u64>(), 0..10),
        blob in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let mut w = Writer::new();
        for s in &scalars {
            w.u64(*s);
        }
        w.bytes(&blob);
        let buf = w.freeze();
        let mut r = Reader::new(&buf);
        for s in &scalars {
            prop_assert_eq!(r.u64("s").unwrap(), *s);
        }
        let decoded = r.bytes("b").unwrap();
        prop_assert_eq!(decoded.as_ref(), blob.as_slice());
        r.finish().unwrap();
    }

    /// The hub delivers every sent frame exactly once per destination,
    /// regardless of the traffic mix.
    #[test]
    fn hub_exactly_once(sends in proptest::collection::vec((0usize..3, 0usize..3, any::<u32>()), 0..50)) {
        let mut hub = Hub::new(3);
        let eps = hub.take_endpoints();
        let mut expected = vec![Vec::new(); 3];
        for (from, to, tag) in &sends {
            eps[*from]
                .send(*to, Bytes::copy_from_slice(&tag.to_be_bytes()))
                .unwrap();
            expected[*to].push((*from, *tag));
        }
        for (to, exp) in expected.iter().enumerate() {
            let mut got = Vec::new();
            for _ in 0..exp.len() {
                let (from, p) = eps[to].recv().unwrap();
                got.push((from, u32::from_be_bytes(p.as_ref().try_into().unwrap())));
            }
            prop_assert!(eps[to].try_recv().is_none(), "extra frame at {}", to);
            // Per-sender order is preserved; cross-sender order may vary.
            for sender in 0..3 {
                let sent: Vec<u32> = exp.iter().filter(|(f, _)| *f == sender).map(|(_, t)| *t).collect();
                let recvd: Vec<u32> = got.iter().filter(|(f, _)| *f == sender).map(|(_, t)| *t).collect();
                prop_assert_eq!(sent, recvd);
            }
        }
    }
}
