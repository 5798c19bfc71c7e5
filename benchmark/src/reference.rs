//! Reference outputs: the committed `expected/*.txt` files every timed
//! operation is compared against (event census, the 40-entry `"cg"` stats
//! section, and the recording run's `"vm"` section).  A mismatch is a
//! failed operation, never a panic.

use cg_trace::{FooterSection, TraceFooter};
use cg_vm::{EventKind, VmStats};

/// The parsed contents of one `expected/<workload>-<size>.txt`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reference {
    pub spec: &'static str,
    pub census: Vec<(String, u64)>,
    pub cg: Vec<(String, u64)>,
    pub vm: Vec<(String, u64)>,
}

const EXPECTED: [(&str, &str); 4] = [
    ("mtrt/10", include_str!("../expected/mtrt-10.txt")),
    ("javac/10", include_str!("../expected/javac-10.txt")),
    ("raytrace/10", include_str!("../expected/raytrace-10.txt")),
    ("compress/100", include_str!("../expected/compress-100.txt")),
];

pub fn census_entries(counts: &[u64]) -> Vec<(String, u64)> {
    EventKind::ALL
        .iter()
        .map(|kind| (kind.label().to_string(), counts[kind.tag() as usize]))
        .collect()
}

/// Renders a reference file: `census.<kind> N`, `cg.<key> N`, `vm.<key> N`.
pub fn render(spec: &str, footer: &TraceFooter, cg: &FooterSection, vm: &FooterSection) -> String {
    let mut out = format!(
        "# Reference output for {spec}: event census, canonical \"cg\" stats section and the\n\
         # recording run's \"vm\" section.  Regenerate with `cg-benchmark expected {spec}`\n\
         # only when a change is meant to alter these numbers.\n"
    );
    let groups = [
        ("census", census_entries(&footer.counts)),
        ("cg", cg.entries.clone()),
        ("vm", vm.entries.clone()),
    ];
    for (group, entries) in groups {
        for (key, value) in entries {
            out.push_str(&format!("{group}.{key} {value}\n"));
        }
    }
    out
}

impl Reference {
    /// The committed reference for `spec` (`"mtrt/10"`, ...).
    pub fn load(spec: &str) -> Result<Reference, String> {
        let (spec, text) = EXPECTED
            .iter()
            .find(|(s, _)| *s == spec)
            .ok_or_else(|| format!("no committed reference output for {spec}"))?;
        let mut reference = Reference {
            spec,
            census: Vec::new(),
            cg: Vec::new(),
            vm: Vec::new(),
        };
        for line in text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let parsed = line.split_once(' ').and_then(|(key, value)| {
                let (group, key) = key.split_once('.')?;
                Some((group, key.to_string(), value.parse::<u64>().ok()?))
            });
            let Some((group, key, value)) = parsed else {
                return Err(format!("expected/{spec}: malformed line '{line}'"));
            };
            match group {
                "census" => reference.census.push((key, value)),
                "cg" => reference.cg.push((key, value)),
                "vm" => reference.vm.push((key, value)),
                other => return Err(format!("expected/{spec}: unknown group '{other}'")),
            }
        }
        Ok(reference)
    }

    pub fn events(&self) -> u64 {
        self.census.iter().map(|(_, n)| n).sum()
    }

    pub fn instructions(&self) -> u64 {
        entry(&self.vm, "instructions").unwrap_or(0)
    }

    pub fn check_census(&self, counts: &[u64]) -> Result<(), String> {
        diff("census", &self.census, &census_entries(counts))
    }

    pub fn check_cg(&self, entries: &[(String, u64)]) -> Result<(), String> {
        diff("cg", &self.cg, entries)
    }

    pub fn check_vm(&self, stats: &VmStats) -> Result<(), String> {
        diff("vm", &self.vm, &cg_trace::footer::vm_section(stats).entries)
    }

    /// Checks what a recording returned: its event census and `"vm"` stats.
    pub fn check_recording(&self, recorded: &crate::ops::Recorded) -> Result<(), String> {
        self.check_census(&recorded.census.counts())?;
        self.check_vm(&recorded.vm)
    }
}

pub fn entry(entries: &[(String, u64)], key: &str) -> Option<u64> {
    entries.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
}

/// `Ok` when the two entry lists are identical; otherwise the first
/// difference, named.
pub fn diff(what: &str, want: &[(String, u64)], got: &[(String, u64)]) -> Result<(), String> {
    if want == got {
        return Ok(());
    }
    for (i, (key, value)) in want.iter().enumerate() {
        match got.get(i) {
            Some((k, v)) if k == key && v == value => {}
            Some((k, v)) => {
                return Err(format!("{what}.{key}: reference {value}, got {k} = {v}"));
            }
            None => return Err(format!("{what}.{key}: reference {value}, got nothing")),
        }
    }
    Err(format!(
        "{what}: {} entries where the reference has {}",
        got.len(),
        want.len()
    ))
}
