//! Golden checkpoint bytes: the exact files a fixed checkpointed campaign
//! leaves behind, pinned as FNV-1a digests.
//!
//! The kill/resume and engine-equivalence gates prove that checkpoint
//! bytes are *self-consistent* (a resumed run matches an uninterrupted
//! one, every engine writes the same bytes). They cannot notice a change
//! that alters the bytes consistently everywhere — a reordered field, an
//! extra header byte. These constants can: they were computed once and
//! must never move unless an on-disk format (the single-driver
//! `FORMAT_VERSION` or the shard snapshot's own version) deliberately
//! changes. Any rework of how snapshots are encoded and written has to
//! keep them green.
//!
//! Two campaigns on `gpmf-parser` are pinned: a single-driver run
//! (`ckpt-*` snapshots) and a 4-lane sharded run on one worker thread
//! (`shard-ckpt-*` epoch snapshots). Snapshots are the only campaign
//! state either writes; the table still matches the `journal-` and
//! `shard-journal-` prefixes an older build's journals used, so a
//! journal file reappearing fails it.

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
/// reach the snapshots.
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
];

/// Four lanes, eight epochs, every epoch kept.
const SHARDED: &[(&str, u64, u64)] = &[
    ("shard-ckpt-000000.bin", 66776, 0x0ce5fcf8e7aa3793),
    ("shard-ckpt-000001.bin", 67982, 0xe1bc60d1abd57514),
    ("shard-ckpt-000002.bin", 68006, 0xa7342c8e154e51b8),
    ("shard-ckpt-000003.bin", 68562, 0x5bbf3568886bfc24),
    ("shard-ckpt-000004.bin", 68562, 0x35474464834ae716),
    ("shard-ckpt-000005.bin", 68600, 0xa848a345662373fb),
    ("shard-ckpt-000006.bin", 68600, 0x24f62a36bdfcf63f),
    ("shard-ckpt-000007.bin", 68600, 0x87e3d9c54cea5c37),
    ("shard-ckpt-000008.bin", 68600, 0x7930a1c4598b3a61),
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
            keep_snapshots: 1000, // keep every epoch's snapshot
            ..CheckpointConfig::new(&dir)
        })
        .run()
        .expect("sharded checkpointed campaign");
    assert!(matches!(out, CampaignOutcome::Finished(_)));
    assert_golden(&digests(&dir), SHARDED);
    let _ = std::fs::remove_dir_all(&dir);
}
