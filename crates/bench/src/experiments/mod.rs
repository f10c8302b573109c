//! One module per paper artifact (table/figure), plus the two sweeps
//! that EXPERIMENTS.md reports beside them (`chaos`, `scenarios`). See
//! `DESIGN.md` §4 for the index. An experiment produces numbers; a
//! property that must merely hold is a test (EXPERIMENTS.md, "Gates
//! that live in tests").

pub mod chaos;
pub mod fig1;
pub mod fig10;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig2;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod overheads;
pub mod scenarios;
pub mod table2;
pub mod table3;

use crate::common::ExpConfig;
use crate::report::Report;

/// An experiment entry point: one run under `cfg`, one [`Report`].
pub type RunFn = fn(&ExpConfig) -> Report;

/// Every experiment, in paper order: `(id, aliases, entry point)`. An
/// alias names a sub-figure that its id's run already produces.
/// [`ALL`], `experiments list` and [`resolve`] all derive from this table.
/// `scenarios` goes last: its two gates abort the run if they fail
/// (ROADMAP item 11), and `all` must have written every paper artifact
/// by then.
pub const TABLE: &[(&str, &[&str], RunFn)] = &[
    ("fig1a", &[], fig1::run_fig1a),
    ("fig1b", &[], fig1::run_fig1b),
    ("fig1c", &[], fig1::run_fig1c),
    ("fig2", &[], fig2::run),
    ("table2", &[], table2::run),
    ("fig7", &["fig7a", "fig7b"], fig7::run),
    ("fig8", &[], fig8::run),
    ("fig9", &["fig9a", "fig9b"], fig9::run),
    ("table3", &[], table3::run),
    ("fig10", &["fig11"], fig10::run),
    ("fig12", &[], fig12::run),
    ("fig13", &[], fig13::run),
    ("fig14", &[], fig14::run),
    ("fig15", &[], fig15::run),
    ("fig16", &[], fig16::run),
    ("overheads", &[], overheads::run),
    ("chaos", &[], chaos::run),
    ("scenarios", &[], scenarios::run),
];

/// All experiment ids, in paper order.
pub const ALL: [&str; TABLE.len()] = {
    let mut ids = [""; TABLE.len()];
    let mut i = 0;
    while i < TABLE.len() {
        ids[i] = TABLE[i].0;
        i += 1;
    }
    ids
};

/// Resolves an id or alias to its canonical id and entry point.
pub fn resolve(name: &str) -> Option<(&'static str, RunFn)> {
    TABLE
        .iter()
        .find(|(id, aliases, _)| *id == name || aliases.contains(&name))
        .map(|&(id, _, f)| (id, f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_and_aliases_are_unique_and_resolve() {
        let mut seen = HashSet::new();
        for &(id, aliases, _) in TABLE {
            for name in std::iter::once(id).chain(aliases.iter().copied()) {
                assert!(seen.insert(name), "{name} is listed twice");
                assert_eq!(resolve(name).map(|(canon, _)| canon), Some(id));
            }
        }
        for alias in ["fig7a", "fig7b", "fig9a", "fig9b", "fig11"] {
            assert!(resolve(alias).is_some(), "{alias} must resolve");
        }
        assert!(resolve("nope").is_none());
    }

    /// The six former gate experiments are tests now and must not come
    /// back as ids; `scenarios` stays last so `all` reaches it last.
    #[test]
    fn gate_experiments_are_gone_and_scenarios_runs_last() {
        assert_eq!(ALL.last(), Some(&"scenarios"));
        for gate in [
            "pipeline",
            "registry",
            "cache",
            "obs-overhead",
            "obs-stream",
            "attribute",
        ] {
            assert!(resolve(gate).is_none(), "{gate} is a test, not an id");
        }
    }
}
