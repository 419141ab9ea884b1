//! Output checks and failure accounting.

use std::collections::HashMap;

use frappe::FrappeModel;
use frappe_serve::Verdict;
use osn_types::ids::AppId;
use rand::Rng;

use crate::deploy::{round_trip, Deployment};
use crate::traffic;
use crate::wire::{classify_request, Generator};

/// Checks one served verdict against the in-process service and an
/// independent re-score: the edge's bytes must equal the in-process
/// verdict serialized, and its decision value must equal
/// `FrappeModel::decision_value` on the store's feature row, bit for bit.
pub fn compare(edge_body: &[u8], in_process: &Verdict, rescored: f64) -> Result<(), String> {
    let expected = serde_json::to_string(in_process).expect("verdicts serialize");
    if edge_body != expected.as_bytes() {
        return Err(format!(
            "app {}: edge sent {} but in-process gives {expected}",
            in_process.app,
            String::from_utf8_lossy(edge_body)
        ));
    }
    if in_process.decision_value.to_bits() != rescored.to_bits()
        || in_process.malicious != (rescored >= 0.0)
    {
        return Err(format!(
            "app {}: served decision value {} but the model gives {rescored}",
            in_process.app, in_process.decision_value
        ));
    }
    Ok(())
}

/// Failures, by kind, against attempts.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// `429` answers.
    pub shed: u64,
    /// `5xx` answers.
    pub server_errors: u64,
    /// Any other unexpected status.
    pub bad_status: u64,
    /// Requests lost to a transport error or left unanswered.
    pub transport: u64,
    /// Answers whose content was wrong.
    pub mismatches: u64,
    /// Verdicts scored by a model a completed swap had replaced.
    pub stale: u64,
    /// The first few failure descriptions.
    pub examples: Vec<String>,
}

impl Tally {
    /// Every failure.
    pub fn failed(&self) -> u64 {
        self.shed
            + self.server_errors
            + self.bad_status
            + self.transport
            + self.mismatches
            + self.stale
    }

    /// Failures that are wrong outputs rather than refusals.
    pub fn incorrect(&self) -> u64 {
        self.mismatches + self.stale
    }

    fn note(&mut self, what: String) {
        if self.examples.len() < 5 {
            self.examples.push(what);
        }
    }

    /// Books an answer whose status was not `expected`.
    pub fn status(&mut self, status: u16, expected: u16, what: &str) {
        match status {
            429 => self.shed += 1,
            500..=599 => self.server_errors += 1,
            _ => self.bad_status += 1,
        }
        self.note(format!("{what}: status {status}, expected {expected}"));
    }

    /// Books a wrong answer.
    pub fn mismatch(&mut self, what: String) {
        self.mismatches += 1;
        self.note(what);
    }

    /// Books a stale-epoch verdict.
    pub fn stale(&mut self, what: String) {
        self.stale += 1;
        self.note(what);
    }

    /// Books `n` requests lost to the transport.
    pub fn lost(&mut self, n: u64, why: &str) {
        if n > 0 {
            self.transport += n;
            self.note(format!("{n} requests lost: {why}"));
        }
    }

    /// Adds another tally's counts to this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.shed += other.shed;
        self.server_errors += other.server_errors;
        self.bad_status += other.bad_status;
        self.transport += other.transport;
        self.mismatches += other.mismatches;
        self.stale += other.stale;
        for e in other.examples {
            self.note(e);
        }
    }

    /// One line for the report.
    pub fn describe(&self) -> String {
        format!(
            "{} attempted, {} failed ({} x 429, {} x 5xx, {} other status, {} transport, \
             {} wrong verdicts, {} stale-epoch verdicts)",
            self.attempted,
            self.failed(),
            self.shed,
            self.server_errors,
            self.bad_status,
            self.transport,
            self.mismatches,
            self.stale
        )
    }
}

/// In-process verdicts serialized, by app: what the edge must send for
/// each while nothing changes.
pub fn expected_bodies(verdicts: &[Verdict]) -> HashMap<u64, Vec<u8>> {
    verdicts
        .iter()
        .map(|v| {
            let body = serde_json::to_string(v).expect("verdicts serialize");
            (v.app.raw(), body.into_bytes())
        })
        .collect()
}

/// Apps drawn for the end-of-run correctness sample.
pub const SAMPLE_APPS: usize = 200;

/// Classifies a seeded sample of apps over the edge and in process and
/// [`compare`]s each pair, booking attempts and failures in `tally`.
pub fn sample_check(
    deployment: &Deployment,
    apps: &[u64],
    seed: u64,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut rng = traffic::stream(seed, 9);
    let mut gen = Generator::connect(deployment.server.local_addr(), 1)
        .map_err(|e| format!("connect: {e}"))?;
    let mut replies = Vec::new();
    let model: std::sync::Arc<FrappeModel> =
        std::sync::Arc::clone(deployment.service.model_handle().current().model());
    for _ in 0..SAMPLE_APPS {
        let app = apps[rng.gen_range(0..apps.len())];
        tally.attempted += 1;
        let reply = round_trip(&mut gen, 0, &classify_request(app), app, &mut replies)?;
        if reply.status != 200 {
            tally.status(reply.status, 200, &format!("sample classify of app {app}"));
            continue;
        }
        let service = &deployment.service;
        let (Ok(in_process), Some(features)) =
            (service.classify(AppId(app)), service.features(AppId(app)))
        else {
            tally.mismatch(format!(
                "app {app}: the edge knows it, the service does not"
            ));
            continue;
        };
        if let Err(why) = compare(&reply.body, &in_process, model.decision_value(&features)) {
            tally.mismatch(why);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdict() -> Verdict {
        Verdict {
            app: AppId(77),
            malicious: true,
            decision_value: 0.8125,
            generation: 12,
            model_version: 1,
        }
    }

    #[test]
    fn an_intact_verdict_passes() {
        let v = verdict();
        let body = serde_json::to_string(&v).unwrap();
        assert_eq!(compare(body.as_bytes(), &v, 0.8125), Ok(()));
    }

    #[test]
    fn a_corrupted_verdict_fails() {
        let v = verdict();
        let body = serde_json::to_string(&v).unwrap();
        // one flipped byte anywhere in the body
        for i in 0..body.len() {
            let mut corrupted = body.clone().into_bytes();
            corrupted[i] ^= 0x01;
            assert!(compare(&corrupted, &v, 0.8125).is_err(), "byte {i} flipped");
        }
        // a truncated body
        assert!(compare(&body.as_bytes()[..body.len() - 1], &v, 0.8125).is_err());
        // right bytes, but the model scores the row differently
        assert!(compare(body.as_bytes(), &v, 0.8125000000000001).is_err());
        assert!(compare(body.as_bytes(), &v, -0.8125).is_err());
    }

    #[test]
    fn every_failure_kind_counts() {
        let mut t = Tally::default();
        t.status(429, 200, "a");
        t.status(503, 200, "b");
        t.status(404, 200, "c");
        t.lost(2, "reset");
        t.mismatch("d".into());
        t.stale("e".into());
        assert_eq!(t.failed(), 7);
        assert_eq!(t.incorrect(), 2);
        assert_eq!(t.examples.len(), 5);
    }
}
