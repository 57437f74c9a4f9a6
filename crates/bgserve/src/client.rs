//! A small blocking client for the service protocol — used by the
//! `bgserve` CLI subcommands, the selfcheck, and the integration tests.

use std::io::{BufReader, Write};

use bench::json::{self, str_field, u64_field, Json};
use bgcheck::program::Program;
use bgcheck::runner::{CheckKernel, Mode};

use crate::proto;
use crate::server::{Endpoint, Stream};

/// What one submission came back with.
#[derive(Clone, Debug)]
pub struct JobResult {
    pub job: u64,
    pub kernel: String,
    pub mode: String,
    pub outcome: String,
    pub final_cycle: u64,
    pub digest: u64,
    pub coverage: u64,
    pub cached: bool,
    /// `"off"`, `"ok"`, or `"mismatch"`.
    pub paranoid: String,
    /// The cache key (16 hex digits) the server filed this job under.
    pub key: String,
    /// Telemetry snapshots streamed before the result.
    pub telemetry: Vec<Json>,
    /// Mid-run `progress` events streamed before the result (only for
    /// jobs submitted with `progress_cycles`).
    pub progress: Vec<Json>,
    /// Non-fatal error events streamed before the result (e.g. a
    /// paranoid mismatch report).
    pub warnings: Vec<String>,
}

impl JobResult {
    /// The deterministic equality triple.
    pub fn triple(&self) -> (String, u64, u64) {
        (self.outcome.clone(), self.final_cycle, self.digest)
    }
}

/// One connected session.
pub struct Client {
    reader: BufReader<Stream>,
    writer: Stream,
}

impl Client {
    pub fn connect(ep: &Endpoint) -> Result<Client, String> {
        let stream = ep
            .connect()
            .map_err(|e| format!("connect {}: {e}", ep.label()))?;
        let read_half = stream
            .try_clone()
            .map_err(|e| format!("clone stream: {e}"))?;
        Ok(Client {
            reader: BufReader::new(read_half),
            writer: stream,
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|_| self.writer.write_all(b"\n"))
            .and_then(|_| self.writer.flush())
            .map_err(|e| format!("send: {e}"))
    }

    /// Read one reply line, holding no more than [`proto::MAX_LINE`] + 1
    /// bytes of it whatever the server sends.
    fn read_event(&mut self) -> Result<Json, String> {
        let mut buf = Vec::new();
        match proto::read_line(&mut self.reader, &mut buf) {
            Ok(true) => {}
            Ok(false) => return Err("server closed the connection".to_string()),
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                return Err(format!(
                    "reply line exceeds the {}-byte limit",
                    proto::MAX_LINE
                ))
            }
            Err(e) => return Err(format!("read: {e}")),
        }
        let line = std::str::from_utf8(&buf).map_err(|e| format!("read: {e}"))?;
        json::parse(line.trim())
    }

    fn event_name(v: &Json) -> String {
        v.get("event")
            .and_then(|e| e.str())
            .unwrap_or("?")
            .to_string()
    }

    pub fn ping(&mut self) -> Result<u64, String> {
        self.send(&proto::request_line("ping"))?;
        let v = self.read_event()?;
        match Self::event_name(&v).as_str() {
            "pong" => u64_field(&v, "proto"),
            other => Err(format!("expected pong, got {other:?}")),
        }
    }

    pub fn status(&mut self) -> Result<Json, String> {
        self.send(&proto::request_line("status"))?;
        let v = self.read_event()?;
        match Self::event_name(&v).as_str() {
            "status" => Ok(v),
            other => Err(format!("expected status, got {other:?}")),
        }
    }

    pub fn shutdown(&mut self) -> Result<(), String> {
        self.send(&proto::request_line("shutdown"))?;
        let v = self.read_event()?;
        match Self::event_name(&v).as_str() {
            "shutting-down" => Ok(()),
            other => Err(format!("expected shutting-down, got {other:?}")),
        }
    }

    /// Cancel a job by server-assigned id (from any session). Returns
    /// whether the server still had the job in flight — `false` means
    /// it already finished (or never existed) and nothing was done.
    pub fn cancel(&mut self, job: u64) -> Result<bool, String> {
        self.send(&proto::cancel_line(job))?;
        let v = self.read_event()?;
        match Self::event_name(&v).as_str() {
            "cancel-ack" => Ok(matches!(v.get("cancelled"), Some(Json::Bool(true)))),
            other => Err(format!("expected cancel-ack, got {other:?}")),
        }
    }

    /// Submit one job and collect its event stream through `result`.
    /// Protocol `error` events before `accepted` are fatal; after it,
    /// they are collected as warnings (a paranoid mismatch report
    /// still ends with a `result` line).
    pub fn submit(
        &mut self,
        kernel: CheckKernel,
        mode: Mode,
        p: &Program,
    ) -> Result<JobResult, String> {
        self.submit_live(kernel, mode, p, proto::LiveReq::default())
    }

    /// [`Client::submit`] with live-run knobs: cancellation deadlines
    /// (`timeout_cycles` / `timeout_wall_ms`) and a `progress_cycles`
    /// streaming interval. Interrupted jobs still return `Ok` — the
    /// outcome string is `"cancelled"` or `"timeout"`.
    pub fn submit_live(
        &mut self,
        kernel: CheckKernel,
        mode: Mode,
        p: &Program,
        live: proto::LiveReq,
    ) -> Result<JobResult, String> {
        self.send(&proto::submit_line(kernel, mode, p, live))?;
        let first = self.read_event()?;
        let job = match Self::event_name(&first).as_str() {
            "accepted" => u64_field(&first, "job")?,
            "error" => {
                return Err(first
                    .get("detail")
                    .and_then(|d| d.str())
                    .unwrap_or("unknown server error")
                    .to_string())
            }
            other => return Err(format!("expected accepted, got {other:?}")),
        };
        let mut telemetry = Vec::new();
        let mut progress = Vec::new();
        let mut warnings = Vec::new();
        loop {
            let v = self.read_event()?;
            match Self::event_name(&v).as_str() {
                "telemetry" => {
                    if let Some(s) = v.get("snapshot") {
                        telemetry.push(s.clone());
                    }
                }
                "progress" => progress.push(v),
                "error" => {
                    warnings.push(
                        v.get("detail")
                            .and_then(|d| d.str())
                            .unwrap_or("unknown")
                            .to_string(),
                    );
                }
                "result" => {
                    let cached = matches!(v.get("cached"), Some(Json::Bool(true)));
                    return Ok(JobResult {
                        job,
                        kernel: str_field(&v, "kernel")?,
                        mode: str_field(&v, "mode")?,
                        outcome: str_field(&v, "outcome")?,
                        final_cycle: u64_field(&v, "final_cycle")?,
                        digest: u64_field(&v, "digest")?,
                        coverage: u64_field(&v, "coverage")?,
                        cached,
                        paranoid: str_field(&v, "paranoid")?,
                        key: str_field(&v, "key")?,
                        telemetry,
                        progress,
                        warnings,
                    });
                }
                other => return Err(format!("unexpected event {other:?} mid-job")),
            }
        }
    }
}
