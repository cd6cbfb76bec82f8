//! Cryptographic primitives for the RITAS protocol stack.
//!
//! RITAS ("Randomized Intrusion-Tolerant Asynchronous Services", DSN 2006)
//! is *signature-free*: no public-key cryptography is used anywhere in the
//! stack. All message integrity derives from two ingredients:
//!
//! * a collision-resistant **hash function** `H` (the paper's testbed used
//!   SHA-1 inside IPSec AH; this crate provides from-scratch [`Sha1`] and
//!   [`Sha256`] implementations pinned by RFC/NIST test vectors), and
//! * **pairwise secret keys** `s_ij` shared between every pair of processes
//!   `(p_i, p_j)` — see [`KeyTable`] — which turn the hash into a simple and
//!   efficient Message Authentication Code `H(m ‖ s_ij)` (paper §2.3).
//!
//! The crate also provides the **hash-vector/matrix** helpers used by the
//! *matrix echo broadcast* (paper §2.3), an [`Hmac`] construction used by the
//! AH-style channel authentication layer, and the unbiased [`coin`] flip
//! abstraction required by Bracha's randomized binary consensus (§2.4).
//!
//! # Example
//!
//! ```
//! use ritas_crypto::{KeyTable, mac};
//!
//! // A trusted dealer distributes pairwise keys among 4 processes.
//! let keys = KeyTable::dealer(4, 42);
//! let k01 = keys.shared_key(0, 1).unwrap();
//!
//! // Process 0 authenticates a message for process 1 …
//! let tag = mac::authenticate(b"hello", &k01);
//! // … and process 1 verifies it with the same shared key.
//! assert!(mac::verify(b"hello", &keys.shared_key(1, 0).unwrap(), &tag));
//! assert!(!mac::verify(b"hullo", &k01, &tag));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coin;
pub mod digest;
pub mod hkdf;
pub mod hmac;
pub mod keys;
pub mod mac;
pub mod sha1;
pub mod sha256;

pub use coin::{DeterministicCoin, FixedCoin, RoundCoin, SharedCoin, SharedCoinDealer, XorShift64};
pub use digest::Digest;
pub use hmac::{Hmac, HmacKey};
pub use keys::{ClientKeyDealer, KeyTable, ProcessKeys, SecretKey};
pub use mac::MacTag;
pub use sha1::Sha1;
pub use sha256::Sha256;
