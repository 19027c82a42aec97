//! Decoded-image golden digests.
//!
//! The decode-time pass stack (`vmos::decoded`) and the analyses it leans
//! on (`fir::cfg`, `fir::liveness`) may be rewritten for speed, but never
//! so that an image changes: the engine-equivalence gate only proves that
//! a *new* image behaves like the reference, while an image that silently
//! changed layout would also move every measured figure built on it. This
//! test pins each image byte for byte.
//!
//! For the ten bundled targets under both instrumentation pipelines it
//! hashes (FNV-1a) the `Debug` rendering of the plain streams, the
//! optimized streams and the optimizer statistics, with the wall-clock
//! `decode_micros` zeroed. A failure prints the whole table of actual
//! digests so an intended image change (which must also bump
//! `OPT_VERSION`) can update it in one step.

use std::fmt::Write as _;

use vmos::decoded::DecodedImage;

/// FNV-1a over everything written into it.
struct Fnv(u64);

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

/// `(target, pipeline, digest)` in `targets::all()` order, each target
/// under `closurex_pipeline` then `baseline_pipeline`.
const GOLDEN: [(&str, &str, u64); 20] = [
    ("bsdtar", "closurex", 0x6f6a743cf642c8fd),
    ("bsdtar", "baseline", 0x1c27bc6b75036abc),
    ("libpcap", "closurex", 0xff4c2b0079b74754),
    ("libpcap", "baseline", 0xa958298bd4f5f127),
    ("gpmf-parser", "closurex", 0x155252f6953a9c82),
    ("gpmf-parser", "baseline", 0x39a19385a79a7282),
    ("libbpf", "closurex", 0xb05030fd8192ea4d),
    ("libbpf", "baseline", 0xd6eaae32a9299670),
    ("freetype", "closurex", 0x5ea18c8867b8db26),
    ("freetype", "baseline", 0xe73de633f9c3d62d),
    ("giftext", "closurex", 0x00aefe1f9b0132ad),
    ("giftext", "baseline", 0xa7e8ed2313503caa),
    ("zlib", "closurex", 0x583f128bc611a69a),
    ("zlib", "baseline", 0xcdb552b8f7275841),
    ("libdwarf", "closurex", 0x339132c0873c69fc),
    ("libdwarf", "baseline", 0x820569dffea71257),
    ("c-blosc2", "closurex", 0x343dbdfd01b2a802),
    ("c-blosc2", "baseline", 0xa527385059dd054b),
    ("md4c", "closurex", 0xa37c5889015621c8),
    ("md4c", "baseline", 0x525c7552e7d572d5),
];

fn image_digest(img: &DecodedImage) -> u64 {
    let mut stats = img.stats.clone();
    stats.decode_micros = 0;
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    write!(h, "{:?}{:?}{:?}", img.funcs, img.opt_funcs, stats).expect("hashing never fails");
    h.0
}

#[test]
fn decoded_images_match_golden_digests() {
    let mut actual = Vec::new();
    for t in targets::all() {
        for (pipeline, mut pm) in [
            ("closurex", passes::pipelines::closurex_pipeline()),
            ("baseline", passes::pipelines::baseline_pipeline()),
        ] {
            let mut m = t.module();
            pm.run(&mut m).expect("pipeline runs");
            actual.push((t.name, pipeline, image_digest(&DecodedImage::new(&m))));
        }
    }
    if actual != GOLDEN {
        let table: String = actual
            .iter()
            .map(|(t, p, d)| format!("    ({t:?}, {p:?}, {d:#018x}),\n"))
            .collect();
        panic!("decoded images differ from the golden digests; actual:\n{table}");
    }
}

/// The image cache is keyed by `Module::fingerprint`, which streams the
/// printer into its hash: for every bundled target, as built and under
/// each pipeline, it must equal FNV-1a of `print_module`'s text followed by
/// the fingerprint's structural folds.
#[test]
fn fingerprints_hash_the_printed_text() {
    for t in targets::all() {
        let raw = t.module();
        let mut modules = vec![raw.clone()];
        for mut pm in [
            passes::pipelines::closurex_pipeline(),
            passes::pipelines::baseline_pipeline(),
        ] {
            let mut m = raw.clone();
            pm.run(&mut m).expect("pipeline runs");
            modules.push(m);
        }
        for m in &modules {
            let mut h = Fnv(0xcbf2_9ce4_8422_2325);
            h.write_str(&fir::printer::print_module(m))
                .expect("hashing never fails");
            let expected = h.0
                ^ (m.functions.len() as u64).rotate_left(17)
                ^ (m.globals.len() as u64).rotate_left(33)
                ^ (m.inst_count() as u64).rotate_left(49);
            assert_eq!(m.fingerprint(), expected, "{}", t.name);
        }
    }
}
