//! Golden checkpoint bytes: the exact files a fixed checkpointed campaign
//! leaves behind, pinned as FNV-1a digests.
//!
//! The kill/resume and engine-equivalence gates prove that checkpoint
//! bytes are *self-consistent* (a resumed run matches an uninterrupted
//! one, every engine writes the same bytes). They cannot notice a change
//! that alters the bytes consistently everywhere — a reordered field, a
//! re-framed journal record, an extra header byte. These constants can:
//! they were computed once and must never move unless the on-disk format
//! (`FORMAT_VERSION`) deliberately changes. Any rework of how snapshots
//! or journal records are encoded and written has to keep them green.
//!
//! Two campaigns on `gpmf-parser` are pinned: a single-driver run
//! (`ckpt-*` snapshots plus `journal-*` write-ahead journals) and a
//! 4-lane sharded run on one worker thread (`shard-ckpt-*` epoch
//! snapshots plus per-lane `shard-journal-*` journals). The decoded-image
//! sidecar is a cache, not campaign state, and is left out.

use aflrs::{Campaign, CampaignConfig, CampaignOutcome, CheckpointConfig};
use closurex::executor::{Executor, ExecutorFactory};
use closurex::harness::{ClosureXConfig, ClosureXExecutor};
use closurex::resilience::HarnessError;
use std::path::{Path, PathBuf};

const BUDGET: u64 = 3_000_000;

fn cfg() -> CampaignConfig {
    CampaignConfig {
        budget_cycles: BUDGET,
        seed: 0xC0FFEE,
        deterministic_stage: true,
        stop_after_crashes: 0,
        ..CampaignConfig::default()
    }
}

/// The target's benign corpus plus its bug witnesses, so crash records
/// reach both snapshots and journal records.
fn corpus(t: &targets::TargetSpec) -> Vec<Vec<u8>> {
    let mut seeds = (t.seeds)();
    seeds.extend((t.witnesses)().into_iter().map(|(_, input)| input));
    seeds
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("closurex-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `(file name, byte length, FNV-1a digest)` of every snapshot and
/// journal in `dir`, sorted by name.
fn digests(dir: &Path) -> Vec<(String, u64, u64)> {
    let mut out: Vec<(String, u64, u64)> = std::fs::read_dir(dir)
        .expect("checkpoint dir")
        .map(|e| e.expect("dir entry"))
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            let state = ["ckpt-", "journal-", "shard-ckpt-", "shard-journal-"]
                .iter()
                .any(|p| name.starts_with(p));
            (state && name.ends_with(".bin")).then(|| {
                let bytes = std::fs::read(e.path()).expect("read checkpoint file");
                (name, bytes.len() as u64, vmos::wire::fnv1a(&bytes))
            })
        })
        .collect();
    out.sort();
    out
}

fn assert_golden(got: &[(String, u64, u64)], want: &[(&str, u64, u64)]) {
    let rendered: Vec<String> = got
        .iter()
        .map(|(n, len, h)| format!("(\"{n}\", {len}, {h:#018x}),"))
        .collect();
    let got: Vec<(&str, u64, u64)> = got.iter().map(|(n, l, h)| (n.as_str(), *l, *h)).collect();
    assert_eq!(
        got,
        want,
        "checkpoint bytes moved; current table:\n{}",
        rendered.join("\n")
    );
}

/// Per-lane ClosureX executors over one compiled module.
struct CxFactory {
    module: fir::Module,
}

impl ExecutorFactory for CxFactory {
    fn build(&self) -> Result<Box<dyn Executor + Send>, HarnessError> {
        ClosureXExecutor::new(&self.module, ClosureXConfig::default())
            .map(|ex| Box::new(ex) as Box<dyn Executor + Send>)
            .map_err(|e| HarnessError::BootFailed(e.to_string()))
    }
}

/// Snapshots every 150 execs, every generation kept.
const SINGLE_DRIVER: &[(&str, u64, u64)] = &[
    ("ckpt-000000000000.bin", 65884, 0xeddf578499c4fffe),
    ("ckpt-000000000150.bin", 66755, 0xc4e39fc9b1e164a8),
    ("ckpt-000000000300.bin", 66871, 0x4b9bf71c855d749a),
    ("ckpt-000000000450.bin", 67103, 0xf48195304716dd35),
    ("ckpt-000000000568.bin", 67103, 0x0e51bf53c251b35d),
    ("journal-000000000000.bin", 56677, 0xb95b185411179454),
    ("journal-000000000150.bin", 56542, 0x16bd275f2c82aa89),
    ("journal-000000000300.bin", 56632, 0x169d59876af64667),
    ("journal-000000000450.bin", 44384, 0x579d061acf1d5d1e),
];

/// Four lanes, eight epochs, every epoch kept.
const SHARDED: &[(&str, u64, u64)] = &[
    ("shard-ckpt-000000.bin", 263488, 0x2a8a6a1a66ae3b18),
    ("shard-ckpt-000001.bin", 268000, 0x0c7fa2d3d87d4ce2),
    ("shard-ckpt-000002.bin", 268024, 0x256392e6c1dc362c),
    ("shard-ckpt-000003.bin", 270248, 0xd97979408a725484),
    ("shard-ckpt-000004.bin", 270248, 0xf4a0c5d7d0ad8335),
    ("shard-ckpt-000005.bin", 270400, 0x087a7edca2b90092),
    ("shard-ckpt-000006.bin", 270400, 0x84b4a572b1b8abf9),
    ("shard-ckpt-000007.bin", 270400, 0xd88b25bddcbb7029),
    ("shard-ckpt-000008.bin", 270400, 0xb4f0a55d0542a3ce),
    ("shard-journal-000000-000.bin", 7364, 0xa441d15089ae512a),
    ("shard-journal-000000-001.bin", 7573, 0x694564fc37e6295e),
    ("shard-journal-000000-002.bin", 7537, 0x66d99784eede7f56),
    ("shard-journal-000000-003.bin", 7455, 0xc97649bb8a938f36),
    ("shard-journal-000001-000.bin", 7168, 0x2914a69b8aeca06f),
    ("shard-journal-000001-001.bin", 7168, 0x9ef142a5038d7a8b),
    ("shard-journal-000001-002.bin", 7168, 0x46d9de192cfce867),
    ("shard-journal-000001-003.bin", 7168, 0x4dca165b72790b1e),
    ("shard-journal-000002-000.bin", 7423, 0x3b4c607a7df07367),
    ("shard-journal-000002-001.bin", 7344, 0xb61167824bd0b692),
    ("shard-journal-000002-002.bin", 7227, 0xb11e05f1fc81e905),
    ("shard-journal-000002-003.bin", 7312, 0xb02e8e125bd8ae85),
    ("shard-journal-000003-000.bin", 7168, 0xf5a62614bf628f9f),
    ("shard-journal-000003-001.bin", 7544, 0x2ea90f7b5357f879),
    ("shard-journal-000003-002.bin", 7544, 0xd5d310c99250b25f),
    ("shard-journal-000003-003.bin", 7544, 0x57f727d739a45664),
    ("shard-journal-000004-000.bin", 7536, 0x455798bb7a2d063f),
    ("shard-journal-000004-001.bin", 7208, 0x847f9cfa9d0f2564),
    ("shard-journal-000004-002.bin", 7160, 0x48817d99f555bd83),
    ("shard-journal-000004-003.bin", 7160, 0xa927e68c5d1fda22),
    ("shard-journal-000005-000.bin", 7168, 0xed06533583e5fca0),
    ("shard-journal-000005-001.bin", 7168, 0x476c1fd819cf8b66),
    ("shard-journal-000005-002.bin", 7168, 0x8f411d921121412b),
    ("shard-journal-000005-003.bin", 7168, 0x99a8df45f376ff4a),
    ("shard-journal-000006-000.bin", 7544, 0xd44bdd499fb686f3),
    ("shard-journal-000006-001.bin", 7544, 0xdc690a79b1db3da9),
    ("shard-journal-000006-002.bin", 7544, 0xc3a5b1c8e9be0f92),
    ("shard-journal-000006-003.bin", 7544, 0x7effd7cfacda333f),
    ("shard-journal-000007-000.bin", 7168, 0x87b048f7441d430b),
    ("shard-journal-000007-001.bin", 7544, 0x8353d3680fe14f5f),
    ("shard-journal-000007-002.bin", 7544, 0x11e9fc9bea3ca9af),
    ("shard-journal-000007-003.bin", 7544, 0x4a08b69bfe68d6d1),
];

#[test]
fn single_driver_checkpoint_files_match_golden_digests() {
    let t = targets::by_name("gpmf-parser").expect("bundled target");
    let m = t.module();
    let seeds = corpus(t);
    let dir = temp_dir("single");
    let ck = CheckpointConfig {
        snapshot_every_execs: 150,
        keep_snapshots: 1000, // keep every generation
        ..CheckpointConfig::new(&dir)
    };
    let mut ex = ClosureXExecutor::new(&m, ClosureXConfig::default()).expect("instrument");
    let out = Campaign::new(&seeds, &cfg())
        .executor(&mut ex)
        .checkpoint(ck)
        .run()
        .expect("checkpointed campaign");
    assert!(matches!(out, CampaignOutcome::Finished(_)));
    assert_golden(&digests(&dir), SINGLE_DRIVER);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_checkpoint_files_match_golden_digests() {
    let t = targets::by_name("gpmf-parser").expect("bundled target");
    let factory = CxFactory { module: t.module() };
    let seeds = corpus(t);
    let dir = temp_dir("sharded");
    let out = Campaign::new(&seeds, &cfg())
        .factory(&factory)
        .lanes(4)
        .shards(1)
        .checkpoint(CheckpointConfig {
            keep_snapshots: 1000, // keep every epoch's snapshot and journals
            ..CheckpointConfig::new(&dir)
        })
        .run()
        .expect("sharded checkpointed campaign");
    assert!(matches!(out, CampaignOutcome::Finished(_)));
    assert_golden(&digests(&dir), SHARDED);
    let _ = std::fs::remove_dir_all(&dir);
}
