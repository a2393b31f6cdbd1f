//! Pins the generator's instruction streams: for every SPEC95 profile at
//! seeds 1 and 7, and for members 1 and 2 of the seeded `gcc` family, the
//! FNV-1a hash of the `Debug` text of the first 50000 instructions.
//!
//! Every figure, golden cycle count and cache entry depends on these
//! streams, so a change to the generator that is meant to be faster must
//! keep every hash. A change that is meant to alter the streams updates
//! this table and says so.

use rfcache_workload::{family_member, suite_all, BenchProfile, TraceGenerator};
use std::fmt::Write;

/// Instructions hashed per stream.
const PINNED_INSTS: usize = 50_000;

/// FNV-1a over UTF-8 text, fed through `fmt::Write` so no stream is ever
/// rendered into one string.
struct Fnv1a(u64);

impl Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &byte in s.as_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// The hash of the first [`PINNED_INSTS`] instructions, each rendered
/// with `{:?}` and ended by a newline.
fn stream_hash(profile: BenchProfile, seed: u64) -> u64 {
    let mut hash = Fnv1a(0xcbf2_9ce4_8422_2325);
    for inst in TraceGenerator::new(profile, seed).take(PINNED_INSTS) {
        writeln!(hash, "{inst:?}").expect("hashing never fails");
    }
    hash.0
}

/// `(profile, seed, hash)` for the 18 profiles, in `suite_all` order.
const PROFILES: [(&str, u64, u64); 36] = [
    ("compress", 1, 0x09732fb41bfaef3d),
    ("compress", 7, 0xe8c7d626bb29380a),
    ("gcc", 1, 0x88117eea518e3d3e),
    ("gcc", 7, 0xff0590ed2eff9410),
    ("go", 1, 0xb8e2ed45fa86ca73),
    ("go", 7, 0x37dcff8605a8f8bc),
    ("ijpeg", 1, 0x4609124307dbe746),
    ("ijpeg", 7, 0x9ed33321c038b5bd),
    ("li", 1, 0x5617ea9fd4480097),
    ("li", 7, 0x7cc4eb0fd0af2ea8),
    ("m88ksim", 1, 0x4bbb989acc5f00fe),
    ("m88ksim", 7, 0xda8c35882d0fce03),
    ("perl", 1, 0xcaf990e1f8786646),
    ("perl", 7, 0xc6a715b784e96a1d),
    ("vortex", 1, 0xf0cfc6d92e769f72),
    ("vortex", 7, 0xf0349804c019eb20),
    ("applu", 1, 0xe86bd2697fe11076),
    ("applu", 7, 0x40d4f8190b5aa8cc),
    ("apsi", 1, 0xc42ef1eb6bb233f1),
    ("apsi", 7, 0x94ea2e7ce227b053),
    ("fpppp", 1, 0xc69bac00e1cbe465),
    ("fpppp", 7, 0x81060d8e8446884f),
    ("hydro2d", 1, 0xb90d5bb3661037a2),
    ("hydro2d", 7, 0xa388f9ce496c4ed1),
    ("mgrid", 1, 0x39ffaf545d487469),
    ("mgrid", 7, 0x56df6edf24f04f6b),
    ("su2cor", 1, 0x64731488269b1e39),
    ("su2cor", 7, 0xcffd143ff6ceea7c),
    ("swim", 1, 0xb9e643a617936d44),
    ("swim", 7, 0xcfddbddfef02ac46),
    ("tomcatv", 1, 0x5e8971d79f7c6b6a),
    ("tomcatv", 7, 0x58799017f1d2a3ca),
    ("turb3d", 1, 0xebaacd5d5766f92e),
    ("turb3d", 7, 0xf61f4515053f5c06),
    ("wave5", 1, 0xcb9ed89b91d598b3),
    ("wave5", 7, 0xf33af18be4fc064e),
];

/// `(member, seed, hash)` for the `gcc` family.
const GCC_FAMILY: [(u32, u64, u64); 4] = [
    (1, 1, 0x4942ece04e6e4618),
    (1, 7, 0xb17e5b9929398443),
    (2, 1, 0x11d0ea37f4ea3a96),
    (2, 7, 0x5a351172f57585f2),
];

#[test]
fn profile_streams_are_pinned() {
    let mut got = Vec::new();
    for profile in suite_all() {
        for seed in [1, 7] {
            got.push((profile.name, seed, stream_hash(profile, seed)));
        }
    }
    assert_eq!(got, PROFILES, "a generator stream changed");
}

#[test]
fn family_streams_are_pinned() {
    let gcc = BenchProfile::by_name("gcc").expect("gcc is a SPEC95 profile");
    let mut got = Vec::new();
    for member in [1, 2] {
        for seed in [1, 7] {
            got.push((member, seed, stream_hash(family_member(&gcc, member), seed)));
        }
    }
    assert_eq!(got, GCC_FAMILY, "a gcc family stream changed");
}
