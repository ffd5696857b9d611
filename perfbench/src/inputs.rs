//! Input generation. Everything the program under test receives is
//! made here from the seed: the Internet (announcements and the org
//! dataset) and the encoded IPFIX-lite capture.

use crate::Size;
use spoofwatch_internet::{Internet, InternetConfig};
use spoofwatch_ixp::{ipfix, Trace, TrafficConfig};
use spoofwatch_net::FaultInjector;

/// Records per chunk in every workload.
pub const CHUNK_RECORDS: usize = 2_000;

/// Share of the `dirty_resume` capture's bytes that get one bit flipped.
pub const DIRTY_CORRUPT_PERCENT: f64 = 0.1;

/// Seed of the synthetic Internet. The routing world is the same in
/// every run, so set-up cost and table memory do not move with the
/// workload seed; the seed varies the traffic (and the corruption).
pub const INTERNET_SEED: u64 = 7;

/// The generated inputs of one run.
pub struct Inputs {
    /// The synthetic Internet: announcements, org dataset, ground truth.
    pub net: Internet,
    /// The capture the study reads (corrupted for `dirty_resume`).
    pub bytes: Vec<u8>,
    /// Records the generator encoded.
    pub records_encoded: u64,
    /// Encoded records none of whose bytes were corrupted (equal to
    /// `records_encoded` on a clean capture). The file header is not
    /// part of any record, so a corrupted header shows as recovered
    /// records falling short of this count.
    pub records_untouched: u64,
}

impl Inputs {
    /// Generate `workload`'s inputs from `seed`. The traffic seed is
    /// `31 * seed`, so seed 7 gives the paper-scale study of Internet 7
    /// and trace 217.
    pub fn generate(workload: &str, seed: u64, size: Size) -> Inputs {
        let dirty = workload == "dirty_resume";
        let internet = if dirty || size == Size::Tiny {
            InternetConfig::tiny(INTERNET_SEED)
        } else {
            InternetConfig {
                seed: INTERNET_SEED,
                ..InternetConfig::default()
            }
        };
        let traffic_seed = seed.wrapping_mul(31);
        let traffic = match size {
            Size::Full => TrafficConfig {
                seed: traffic_seed,
                ..TrafficConfig::default()
            },
            Size::Tiny => TrafficConfig::tiny(traffic_seed),
        };
        let net = Internet::generate(internet);
        let flows = Trace::generate(&net, &traffic).flows;
        let clean = ipfix::encode(&flows);
        let records_encoded = flows.len() as u64;
        if !dirty {
            return Inputs {
                net,
                bytes: clean,
                records_encoded,
                records_untouched: records_encoded,
            };
        }
        let mut bytes = clean.clone();
        FaultInjector::new(seed ^ 0x5EED_D127).corrupt_percent(&mut bytes, DIRTY_CORRUPT_PERCENT);
        let header = ipfix::encode(&[]).len();
        let stride = (clean.len() - header) / flows.len().max(1);
        let records_untouched = clean[header..]
            .chunks(stride)
            .zip(bytes[header..].chunks(stride))
            .filter(|(a, b)| a == b)
            .count() as u64;
        Inputs {
            net,
            bytes,
            records_encoded,
            records_untouched,
        }
    }
}
