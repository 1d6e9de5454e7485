//! The correctness gate. Every failure it records counts in the run's
//! `failed` total and makes the benchmark exit non-zero.

use std::path::Path;
use std::time::Instant;

use charon::{AuditError, AuditOptions, Certificate};

use crate::outcome::{Decision, Pass};
use crate::slice::Slice;

/// The δ every workload verifies with (the engine and protocol default).
pub const DELTA: f64 = 1e-9;

/// Collected gate failures.
#[derive(Debug, Default)]
pub struct Gate {
    /// One line per failure.
    pub failures: Vec<String>,
    /// Findings that are not failures.
    pub notes: Vec<String>,
}

impl Gate {
    fn fail(&mut self, message: String) {
        self.failures.push(message);
    }

    /// Re-checks every refutation of `pass` outside the engine: the
    /// witness must lie inside the property's region and satisfy
    /// `F(x*) < δ` under plain forward evaluation.
    pub fn witnesses(&mut self, slice: &Slice, what: &str, pass: &Pass) {
        for (i, outcome) in &pass.results {
            if outcome.decision != Decision::Refuted {
                continue;
            }
            let prop = &slice.props[*i];
            let label = slice.label(*i);
            let Some(x) = &outcome.witness else {
                self.fail(format!("{what} {label}: refuted without a witness"));
                continue;
            };
            let region = prop.property.region();
            if x.len() != region.dim() || !region.contains(x) {
                self.fail(format!("{what} {label}: witness outside the region"));
                continue;
            }
            let f = slice.nets[prop.net]
                .net
                .objective(x, prop.property.target());
            if f.is_nan() || f >= DELTA {
                self.fail(format!(
                    "{what} {label}: witness objective {f} is not below δ"
                ));
            }
        }
    }

    /// Fails on any property that one side verifies and the other
    /// refutes. A budget-exhausted property may be decided on either side.
    pub fn no_flips(&mut self, slice: &Slice, what: &str, pass: &Pass, reference: &[Decision]) {
        for (i, outcome) in &pass.results {
            let (a, b) = (outcome.decision, reference[*i]);
            if a.decided() && b.decided() && a != b {
                self.fail(format!(
                    "{what} {}: verdict {} flips the reference {}",
                    slice.label(*i),
                    a.letter(),
                    b.letter()
                ));
            }
        }
    }

    /// Fails unless two passes agree exactly, request by request, on
    /// verdicts, regions and cache hits.
    pub fn identical(&mut self, slice: &Slice, what: &str, a: &Pass, b: &Pass) {
        if a.results.len() != b.results.len() {
            self.fail(format!(
                "{what}: {} results against {}",
                a.results.len(),
                b.results.len()
            ));
            return;
        }
        for ((i, x), (j, y)) in a.results.iter().zip(&b.results) {
            if i != j || x.decision != y.decision || x.regions != y.regions || x.cached != y.cached
            {
                self.fail(format!(
                    "{what} {}: {} / {} regions / cached {} against {} / {} / {}",
                    slice.label(*i),
                    x.decision.letter(),
                    x.regions,
                    x.cached,
                    y.decision.letter(),
                    y.regions,
                    y.cached
                ));
                return;
            }
        }
    }

    /// Records a failure found elsewhere (a drain that lost jobs).
    pub fn other(&mut self, message: String) {
        self.fail(message);
    }
}

/// Refinement budget of the certificate audit. The auditor replays each
/// leaf with one directed zonotope plus bisection. On the deeper zoo
/// networks that replay cannot confirm many leaves the engine proved
/// with a powerset domain, whatever the budget: with the default 65,536
/// regions the slice's audit took over 600 s and still left a fifth of
/// the verified certificates unconfirmed. The benchmark gives up sooner
/// and reports those certificates as unconfirmed.
pub const AUDIT_OPTIONS: AuditOptions = AuditOptions {
    refine_depth: 24,
    max_refined_regions: 256,
};

/// The certificate audit of the check pass.
#[derive(Debug, Clone, Default)]
pub struct AuditSummary {
    /// Certificates passed through `cert::audit`.
    pub audited: usize,
    /// Verified certificates with a leaf the auditor could not confirm
    /// within [`AUDIT_OPTIONS`] (`AuditError::UnsoundLeaf`). The auditor
    /// is incomplete, so this is reported, not failed.
    pub unconfirmed: usize,
    /// Certificates rejected for any other defect (tree, shape, network
    /// hash, witness), plus decisive verdicts that came without one.
    pub rejected: usize,
    /// Seconds the audits took (when they ran, for cached findings).
    pub seconds: f64,
}

/// What the auditor concluded about one certificate.
enum Finding {
    Confirmed,
    Unconfirmed(String),
    Rejected(String),
}

/// Audits one certificate, or reads the finding recorded for identical
/// certificate text by an earlier run: the audit is a pure function of
/// the certificate and the network (whose hash the certificate pins), so
/// it only has to run once per certificate. Returns the finding and the
/// seconds the audit took when it ran.
fn audit_one(cert: &Certificate, net: &nn::Network, cache: &Path) -> (Finding, f64) {
    let text = cert.to_text();
    let entry = cache.join(format!(
        "{:016x}.txt",
        nn::serialize::fnv1a(text.as_bytes())
    ));
    if let Ok(recorded) = std::fs::read_to_string(&entry) {
        let mut parts = recorded.splitn(3, ' ');
        let (kind, seconds, detail) = (parts.next(), parts.next(), parts.next());
        if let Some(seconds) = seconds.and_then(|s| s.parse().ok()) {
            let detail = detail.unwrap_or("").trim_end().to_string();
            match kind {
                Some("confirmed") => return (Finding::Confirmed, seconds),
                Some("unconfirmed") => return (Finding::Unconfirmed(detail), seconds),
                Some("rejected") => return (Finding::Rejected(detail), seconds),
                _ => {}
            }
        }
    }
    let start = Instant::now();
    let finding = match charon::audit(cert, net, &AUDIT_OPTIONS) {
        Ok(_) => Finding::Confirmed,
        Err(AuditError::UnsoundLeaf { index, margin }) => Finding::Unconfirmed(format!(
            "leaf {index} not confirmed (directed margin bound {margin:.4})"
        )),
        Err(e) => Finding::Rejected(e.to_string()),
    };
    let seconds = start.elapsed().as_secs_f64();
    let (kind, detail) = match &finding {
        Finding::Confirmed => ("confirmed", ""),
        Finding::Unconfirmed(d) => ("unconfirmed", d.as_str()),
        Finding::Rejected(d) => ("rejected", d.as_str()),
    };
    // A cache entry that fails to write only costs a re-audit next run.
    let _ = std::fs::create_dir_all(cache)
        .and_then(|()| std::fs::write(&entry, format!("{kind} {seconds} {detail}\n")));
    (finding, seconds)
}

/// Audits the certificate of every decisive verdict in `check` with the
/// independent `cert::audit` checker, keeping findings in `cache`.
pub fn audit(
    gate: &mut Gate,
    slice: &Slice,
    check: &Pass,
    certs: &[Option<Certificate>],
    cache: &Path,
) -> AuditSummary {
    let mut summary = AuditSummary::default();
    for (i, outcome) in &check.results {
        if !outcome.decision.decided() {
            continue;
        }
        let label = slice.label(*i);
        let Some(cert) = &certs[*i] else {
            summary.rejected += 1;
            gate.fail(format!(
                "check {label}: decisive verdict without a certificate"
            ));
            continue;
        };
        summary.audited += 1;
        let net = &slice.nets[slice.props[*i].net].net;
        let (finding, seconds) = audit_one(cert, net, cache);
        summary.seconds += seconds;
        match finding {
            Finding::Confirmed => {}
            Finding::Unconfirmed(detail) => {
                summary.unconfirmed += 1;
                gate.notes.push(format!("check {label}: auditor: {detail}"));
            }
            Finding::Rejected(detail) => {
                summary.rejected += 1;
                gate.fail(format!("check {label}: certificate rejected: {detail}"));
            }
        }
    }
    summary
}

/// Reads an expected-verdict file (`<net>/<index> <V|R|L>` lines) as a
/// decision per property of `slice`; `None` if the file does not exist.
///
/// # Errors
///
/// A malformed file, or one that does not list exactly the slice's
/// properties.
pub fn read_expected(path: &Path, slice: &Slice) -> Result<Option<Vec<Decision>>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    let lines: Vec<&str> = text.lines().filter(|l| !l.starts_with('#')).collect();
    if lines.len() != slice.props.len() {
        return Err(format!(
            "{}: {} verdicts for {} properties",
            path.display(),
            lines.len(),
            slice.props.len()
        ));
    }
    lines
        .iter()
        .enumerate()
        .map(|(i, line)| {
            let (label, letter) = line
                .split_once(' ')
                .ok_or_else(|| format!("bad expected line {line:?}"))?;
            if label != slice.label(i) {
                return Err(format!(
                    "expected {} at line {}, found {label}",
                    slice.label(i),
                    i + 1
                ));
            }
            letter
                .chars()
                .next()
                .and_then(Decision::from_letter)
                .ok_or_else(|| format!("bad verdict in {line:?}"))
        })
        .collect::<Result<Vec<_>, _>>()
        .map(Some)
}

/// Renders decisions in the expected-verdict file format.
pub fn expected_text(slice: &Slice, decisions: &[Decision]) -> String {
    let mut out = String::from(
        "# <network>/<property index> <V verified | R refuted | L region budget exhausted>\n",
    );
    for (i, d) in decisions.iter().enumerate() {
        out.push_str(&format!("{} {}\n", slice.label(i), d.letter()));
    }
    out
}
