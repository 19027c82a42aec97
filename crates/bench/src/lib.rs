//! # bench — experiment harnesses
//!
//! Shared machinery for the table/figure regenerator binaries (see
//! `DESIGN.md` §4 for the experiment index). Every binary prints a
//! markdown table shaped like the paper's and writes a JSON record under
//! `results/`.
//!
//! Scale note: the paper runs 5×24h Azure trials per configuration; this
//! reproduction runs 5 simulated-cycle-budget trials per configuration
//! (default 20M cycles ≈ 1 simulated second, configurable via the
//! `CLOSUREX_BUDGET` environment variable). Absolute counts are therefore
//! smaller; the paper's *shape* — who wins, by what factor, where
//! significance lands — is what the harness reproduces.

use aflrs::mwu::mann_whitney_u;
use aflrs::{Campaign, CampaignConfig, CampaignResult};
use closurex::executor::{Executor, ExecutorFactory};
use closurex::forkserver::ForkServerExecutor;
use closurex::fresh::FreshProcessExecutor;
use closurex::harness::{ClosureXConfig, ClosureXExecutor};
use closurex::naive::NaivePersistentExecutor;
use closurex::resilience::HarnessError;
use serde::Serialize;
use targets::TargetSpec;

pub mod planes;

/// Number of trials per configuration (the paper's 5).
pub const TRIALS: u64 = 5;

/// Default per-trial cycle budget.
pub const DEFAULT_BUDGET: u64 = 20_000_000;

/// Which execution mechanism a trial uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mechanism {
    /// Spawn + exec per test case.
    Fresh,
    /// AFL++ forkserver baseline.
    ForkServer,
    /// Persistent loop with no restoration.
    NaivePersistent,
    /// ClosureX.
    ClosureX,
}

impl Mechanism {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Mechanism::Fresh => "fresh-process",
            Mechanism::ForkServer => "AFL++ (forkserver)",
            Mechanism::NaivePersistent => "naive-persistent",
            Mechanism::ClosureX => "ClosureX",
        }
    }

    /// Stable wire tag for worker specs (see
    /// [`MechanismFactory::worker_spec`]).
    pub fn wire_tag(self) -> u8 {
        match self {
            Mechanism::Fresh => 0,
            Mechanism::ForkServer => 1,
            Mechanism::NaivePersistent => 2,
            Mechanism::ClosureX => 3,
        }
    }

    /// Inverse of [`Mechanism::wire_tag`].
    pub fn from_wire_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            0 => Mechanism::Fresh,
            1 => Mechanism::ForkServer,
            2 => Mechanism::NaivePersistent,
            3 => Mechanism::ClosureX,
            _ => return None,
        })
    }

    /// Build an executor over an already-compiled module.
    ///
    /// # Errors
    /// [`HarnessError::BootFailed`] when instrumentation fails (bundled
    /// targets always pass).
    pub fn build(self, module: &fir::Module) -> Result<Box<dyn Executor + Send>, HarnessError> {
        let boot = |e: passes::PassError| HarnessError::BootFailed(e.to_string());
        Ok(match self {
            Mechanism::Fresh => Box::new(FreshProcessExecutor::new(module).map_err(boot)?),
            Mechanism::ForkServer => Box::new(ForkServerExecutor::new(module).map_err(boot)?),
            Mechanism::NaivePersistent => {
                Box::new(NaivePersistentExecutor::new(module).map_err(boot)?)
            }
            Mechanism::ClosureX => {
                Box::new(ClosureXExecutor::new(module, ClosureXConfig::default()).map_err(boot)?)
            }
        })
    }

    /// Build the executor for a target.
    ///
    /// # Panics
    /// Panics if instrumentation fails (bundled targets always pass).
    pub fn executor(self, target: &TargetSpec) -> Box<dyn Executor + Send> {
        self.build(&target.module()).expect("instrument")
    }
}

/// An [`ExecutorFactory`] over a (mechanism, target) pair — what sharded
/// campaigns hand to [`aflrs::Campaign::factory`] so every lane gets its
/// own executor instance. Compiles the target once at construction; each
/// [`ExecutorFactory::build`] instruments a fresh executor over it.
pub struct MechanismFactory {
    mechanism: Mechanism,
    target_name: &'static str,
    module: fir::Module,
}

impl MechanismFactory {
    /// Compile `target` and wrap it for `mechanism`.
    pub fn new(mechanism: Mechanism, target: &TargetSpec) -> Self {
        MechanismFactory {
            mechanism,
            target_name: target.name,
            module: target.module(),
        }
    }
}

impl ExecutorFactory for MechanismFactory {
    fn build(&self) -> Result<Box<dyn Executor + Send>, HarnessError> {
        self.mechanism.build(&self.module)
    }

    /// Warm over the module *as the executor will decode it*: every
    /// executor runs its instrumentation pipeline on a clone before
    /// lowering, so the cache key is the **instrumented**
    /// module's fingerprint — warming the raw module would prime a key
    /// nothing ever reads.
    fn warm_decoded_image(&self, _dir: Option<&std::path::Path>) -> Option<vmos::WarmSource> {
        let mut m = self.module.clone();
        let mut pipeline = match self.mechanism {
            Mechanism::ClosureX => passes::pipelines::closurex_pipeline(),
            _ => passes::pipelines::baseline_pipeline(),
        };
        pipeline.run(&mut m).ok()?;
        Some(vmos::DecodedImage::warm(&m))
    }

    /// Process-isolated campaigns ship `(mechanism tag, target name)` to
    /// each worker; the worker's [`factory_from_spec`] recompiles the
    /// bundled target by name — bit-identical modules on both sides.
    fn worker_spec(&self) -> Option<Vec<u8>> {
        let mut w = vmos::Writer::new();
        w.put_u8(self.mechanism.wire_tag());
        w.put_str(self.target_name);
        Some(w.into_bytes())
    }
}

/// Rebuild the factory a [`MechanismFactory::worker_spec`] describes — the
/// parser a `proc` worker entrypoint hands to
/// [`aflrs::worker_main_hook`].
///
/// # Errors
/// A human-readable message when the spec bytes are malformed, name an
/// unknown mechanism tag, or name a target this build does not bundle.
pub fn factory_from_spec(spec: &[u8]) -> Result<Box<dyn ExecutorFactory>, String> {
    let mut r = vmos::Reader::new(spec);
    let tag = r.get_u8().map_err(|e| format!("bad worker spec: {e:?}"))?;
    let name = r
        .get_str()
        .map_err(|e| format!("bad worker spec: {e:?}"))?;
    if !r.is_empty() {
        return Err("bad worker spec: trailing bytes".to_string());
    }
    let mechanism =
        Mechanism::from_wire_tag(tag).ok_or_else(|| format!("unknown mechanism tag {tag}"))?;
    let target =
        targets::by_name(&name).ok_or_else(|| format!("unknown target {name:?} in worker spec"))?;
    Ok(Box::new(MechanismFactory::new(mechanism, target)))
}

/// [`aflrs::SpecResolver`] over the bundled targets: resolves the same
/// `(mechanism tag, target name)` wire spec as [`factory_from_spec`], so a
/// campaign service can be restarted by any binary that links this crate
/// and get byte-identical factories back.
pub struct MechanismResolver;

impl aflrs::SpecResolver for MechanismResolver {
    fn resolve(
        &self,
        spec: &[u8],
    ) -> Result<Box<dyn ExecutorFactory + Send + Sync>, String> {
        let mut r = vmos::Reader::new(spec);
        let tag = r.get_u8().map_err(|e| format!("bad factory spec: {e:?}"))?;
        let name = r
            .get_str()
            .map_err(|e| format!("bad factory spec: {e:?}"))?;
        if !r.is_empty() {
            return Err("bad factory spec: trailing bytes".to_string());
        }
        let mechanism = Mechanism::from_wire_tag(tag)
            .ok_or_else(|| format!("unknown mechanism tag {tag}"))?;
        let target = targets::by_name(&name)
            .ok_or_else(|| format!("unknown target {name:?} in factory spec"))?;
        Ok(Box::new(MechanismFactory::new(mechanism, target)))
    }
}

/// Per-trial budget: `CLOSUREX_BUDGET` env var or [`DEFAULT_BUDGET`].
pub fn budget() -> u64 {
    std::env::var("CLOSUREX_BUDGET")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_BUDGET)
}

/// Run [`TRIALS`] campaigns of `mechanism` on `target`, fanned out across
/// one OS thread per trial.
///
/// Trials are fully independent — each builds its own executor and derives
/// its RNG from `trial` alone — so parallelism cannot change any result.
/// Handles are joined in spawn order, so the returned vector is in trial
/// order regardless of which worker finishes first.
///
/// A trial that panics (a wedged executor, a bad target) is dropped with a
/// note on stderr rather than killing the whole table run — losing one
/// sample beats losing the evening's sweep.
pub fn run_trials(target: &TargetSpec, mechanism: Mechanism, budget: u64) -> Vec<CampaignResult> {
    // The engine switch is thread-local: carry the caller's choice (e.g.
    // exec_throughput's reference runs) into every worker.
    let reference = vmos::reference_engine();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..TRIALS)
            .map(|trial| {
                s.spawn(move || {
                    vmos::set_reference_engine(reference);
                    let cfg = CampaignConfig {
                        budget_cycles: budget,
                        seed: 0xC0FFEE + trial * 7919,
                        deterministic_stage: true,
                        stop_after_crashes: 0,
                        ..CampaignConfig::default()
                    };
                    run_trial_catching(target, mechanism, &cfg)
                })
            })
            .collect();
        handles
            .into_iter()
            .filter_map(|h| h.join().ok().flatten())
            .collect()
    })
}

/// Run one campaign, converting a panic anywhere in the executor or
/// campaign loop into `None`.
pub fn run_trial_catching(
    target: &TargetSpec,
    mechanism: Mechanism,
    cfg: &CampaignConfig,
) -> Option<CampaignResult> {
    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut ex = mechanism.executor(target);
        let seeds = (target.seeds)();
        Campaign::new(&seeds, cfg)
            .executor(ex.as_mut())
            .run()
            .expect("plain campaign config is always valid")
            .finished()
            .expect("no kill configured")
    }));
    match res {
        Ok(r) => Some(r),
        Err(_) => {
            eprintln!(
                "(trial dropped: {} on {} panicked, seed {})",
                mechanism.name(),
                target.name,
                cfg.seed
            );
            None
        }
    }
}

/// Mean of a sample.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Two-sided Mann-Whitney p for two result samples under `metric`.
pub fn p_value(
    a: &[CampaignResult],
    b: &[CampaignResult],
    metric: impl Fn(&CampaignResult) -> f64,
) -> f64 {
    let xa: Vec<f64> = a.iter().map(&metric).collect();
    let xb: Vec<f64> = b.iter().map(&metric).collect();
    mann_whitney_u(&xa, &xb)
}

/// Total CFG edges of a target (denominator of the coverage percentage).
pub fn total_cfg_edges(target: &TargetSpec) -> usize {
    let module = target.module();
    module
        .functions
        .iter()
        .map(|f| fir::cfg::edges(f).len().max(1))
        .sum()
}

/// Write a JSON report to `results/<name>.json`.
///
/// # Errors
/// A message naming the path when the directory or file cannot be written.
pub fn write_report<T: Serialize>(name: &str, value: &T) -> Result<(), String> {
    let dir = std::path::Path::new("results");
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, json))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("(wrote {})", path.display());
    Ok(())
}

/// Pull a bare number out of a flat JSON object by key — the deserializer
/// side of serde is stubbed in this build, so floor files are parsed by
/// string search.
pub fn json_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Read blessed value `key` from the floor file at `path`.
///
/// # Errors
/// A message naming the file and the key when the file is unreadable or
/// carries no number under `key`.
pub fn read_floor(path: &str, key: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {path} for \"{key}\": {e}"))?;
    json_number(&text, key).ok_or_else(|| format!("{path} has no number under \"{key}\""))
}

/// [`read_floor`] for a gate: a missing floor file or key exits nonzero
/// instead of silently passing, so a misspelt key cannot turn a CI gate off.
pub fn floor(path: &str, key: &str) -> f64 {
    read_floor(path, key).unwrap_or_else(|e| {
        eprintln!("FAIL: floor gate cannot run: {e}");
        std::process::exit(1);
    })
}

/// Render a markdown table.
pub fn markdown_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut s = String::new();
    s.push_str(&format!("| {} |\n", headers.join(" | ")));
    s.push_str(&format!(
        "|{}\n",
        headers.iter().map(|_| "---|").collect::<String>()
    ));
    for r in rows {
        s.push_str(&format!("| {} |\n", r.join(" | ")));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mechanisms_build_for_every_target() {
        for t in targets::all().into_iter().take(2) {
            for m in [
                Mechanism::Fresh,
                Mechanism::ForkServer,
                Mechanism::NaivePersistent,
                Mechanism::ClosureX,
            ] {
                let mut ex = m.executor(t);
                let out = ex.run(&(t.seeds)()[0]);
                assert!(out.total_cycles() > 0, "{} on {}", m.name(), t.name);
            }
        }
    }

    #[test]
    fn markdown_renders() {
        let s = markdown_table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert!(s.contains("| a | b |"));
        assert!(s.contains("| 1 | 2 |"));
    }

    #[test]
    fn floors_fail_closed() {
        let path = std::env::temp_dir().join(format!("bench-floor-{}.json", std::process::id()));
        let path = path.to_str().expect("utf-8 temp path");
        std::fs::write(path, r#"{"comment": "x", "smoke_ratio": 1.5}"#).unwrap();
        assert_eq!(read_floor(path, "smoke_ratio"), Ok(1.5));
        let missing_key = read_floor(path, "grid_rate").unwrap_err();
        assert!(missing_key.contains(path) && missing_key.contains("grid_rate"));
        let misspelt = read_floor(path, "smoke_rato").unwrap_err();
        assert!(misspelt.contains("smoke_rato"), "{misspelt}");
        std::fs::remove_file(path).unwrap();
        let missing_file = read_floor(path, "smoke_ratio").unwrap_err();
        assert!(
            missing_file.contains(path) && missing_file.contains("smoke_ratio"),
            "{missing_file}"
        );
    }

    #[test]
    fn cfg_edge_totals_positive() {
        for t in targets::all() {
            assert!(total_cfg_edges(t) > 10, "{}", t.name);
        }
    }
}
