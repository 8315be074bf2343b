//! The line-delimited JSON wire protocol of the campaign service.
//!
//! Every request and response is exactly one line of JSON terminated by
//! `\n`. A connection must open with a `hello` carrying the protocol
//! version; every later request names a `cmd`. Responses always carry an
//! `ok` boolean — errors are typed through an `error` string so clients
//! can branch without parsing prose:
//!
//! | request | response(s) |
//! |---|---|
//! | `{"cmd":"hello","version":2}` | `{"ok":true,"type":"hello",...}` or `unsupported_version` |
//! | `{"cmd":"submit","tenant":t,"label":l,"stream":b,"spec":{...}}` | `submitted`, then (if `stream`) `die`* and a terminal `done`/`cancelled`/`failed` — or `queue_full` with `retry_after_ms` |
//! | `{"cmd":"status"}` | `status` with queue and job counters |
//! | `{"cmd":"results","job":n}` or `{"cmd":"results","label":l}` | replayed `die`* then the terminal event |
//! | `{"cmd":"cancel","job":n}` | `cancelled` |
//! | `{"cmd":"shutdown"}` | `shutdown`, then the daemon checkpoints and exits |

use std::io::Write;

use icvbe_campaign::json::{escape, parse, Json};
use icvbe_campaign::wire::spec_from_value;
use icvbe_campaign::CampaignSpec;

/// The protocol version this build speaks. A `hello` carrying any other
/// version is rejected with the typed `unsupported_version` error (which
/// names the supported version so old clients can say why they failed).
pub const PROTOCOL_VERSION: u64 = 2;

/// A typed protocol-level failure, rendered as a one-line error response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// Stable machine-readable kind (`bad_request`, `unsupported_version`,
    /// `unknown_job`, `queue_full`, `request_too_large`).
    pub kind: &'static str,
    /// Human-readable detail.
    pub detail: String,
}

impl ProtocolError {
    pub(crate) fn bad(detail: impl Into<String>) -> Self {
        ProtocolError {
            kind: "bad_request",
            detail: detail.into(),
        }
    }
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Version handshake; must be the first request on a connection.
    Hello {
        /// Client's protocol version.
        version: u64,
    },
    /// Submit a campaign.
    Submit {
        /// Tenant the job is accounted (and fair-scheduled) under.
        tenant: String,
        /// Client-chosen label for later `results` lookups.
        label: String,
        /// Stream per-die events on this connection until the job ends.
        stream: bool,
        /// The decoded, validated campaign spec (boxed: a spec is large
        /// next to the other variants).
        spec: Box<CampaignSpec>,
    },
    /// Service status: queue depth, active jobs and job counters.
    Status,
    /// Attach to a job's result stream (replays history, then follows).
    Results {
        /// Job id, if known.
        job: Option<u64>,
        /// Label to look up instead of a job id.
        label: Option<String>,
        /// Restrict a label lookup to one tenant.
        tenant: Option<String>,
    },
    /// Cancel a queued or running job.
    Cancel {
        /// Job id to cancel.
        job: u64,
    },
    /// Checkpoint all incomplete jobs and stop the daemon.
    Shutdown,
}

/// Parses one request line.
///
/// # Errors
///
/// [`ProtocolError`] of kind `bad_request` on malformed JSON, an unknown
/// `cmd` or missing/ill-typed fields. The version *value* is not checked
/// here — the daemon compares it against [`PROTOCOL_VERSION`] so it can
/// answer with the typed `unsupported_version` error.
pub fn parse_request(line: &str) -> Result<Request, ProtocolError> {
    let v = parse(line).map_err(|e| ProtocolError::bad(format!("malformed request: {e}")))?;
    let cmd = v
        .get("cmd")
        .and_then(Json::as_str)
        .ok_or_else(|| ProtocolError::bad("request must carry a string \"cmd\""))?;
    match cmd {
        "hello" => {
            let version = v
                .get("version")
                .and_then(Json::as_u64)
                .ok_or_else(|| ProtocolError::bad("hello must carry an integer \"version\""))?;
            Ok(Request::Hello { version })
        }
        "submit" => {
            let tenant = v
                .get("tenant")
                .and_then(Json::as_str)
                .unwrap_or("default")
                .to_string();
            let label = v
                .get("label")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            let stream = v.get("stream").and_then(Json::as_bool).unwrap_or(true);
            let spec_v = v
                .get("spec")
                .ok_or_else(|| ProtocolError::bad("submit must carry a \"spec\" object"))?;
            let spec = spec_from_value(spec_v).map_err(|e| ProtocolError::bad(format!("{e}")))?;
            Ok(Request::Submit {
                tenant,
                label,
                stream,
                spec: Box::new(spec),
            })
        }
        "status" => Ok(Request::Status),
        "results" => {
            let job = v.get("job").and_then(Json::as_u64);
            let label = v.get("label").and_then(Json::as_str).map(str::to_string);
            let tenant = v.get("tenant").and_then(Json::as_str).map(str::to_string);
            if job.is_none() && label.is_none() {
                return Err(ProtocolError::bad(
                    "results needs a \"job\" id or a \"label\"",
                ));
            }
            Ok(Request::Results { job, label, tenant })
        }
        "cancel" => {
            let job = v
                .get("job")
                .and_then(Json::as_u64)
                .ok_or_else(|| ProtocolError::bad("cancel must carry a \"job\" id"))?;
            Ok(Request::Cancel { job })
        }
        "shutdown" => Ok(Request::Shutdown),
        other => Err(ProtocolError::bad(format!("unknown cmd {other:?}"))),
    }
}

/// Sends one protocol line: `line` and its `\n` terminator, built into
/// one buffer and handed to a single `write_all`. Both ends of a
/// connection frame every line through here. A terminator sent as a
/// write of its own becomes a second small segment that Nagle's
/// algorithm holds back until the peer's delayed ACK, which stalls every
/// request/response exchange by tens of milliseconds.
///
/// # Errors
///
/// Whatever the underlying writer reports.
pub fn write_line<W: Write>(out: &mut W, line: &str) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(line.len() + 1);
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
    out.write_all(&buf)
}

/// Renders a typed error response. `retry_after_ms` is carried only by
/// `queue_full` (explicit backpressure: when to try again);
/// `unsupported_version` carries the `supported` version instead.
#[must_use]
pub fn error_line(err: &ProtocolError) -> String {
    let extra = match err.kind {
        "unsupported_version" => format!(",\"supported\":{PROTOCOL_VERSION}"),
        _ => String::new(),
    };
    format!(
        "{{\"ok\":false,\"error\":\"{}\",\"detail\":\"{}\"{extra}}}",
        err.kind,
        escape(&err.detail)
    )
}

/// Renders the `queue_full` backpressure rejection.
#[must_use]
pub fn queue_full_line(retry_after_ms: u64) -> String {
    format!(
        "{{\"ok\":false,\"error\":\"queue_full\",\"detail\":\"job queue at capacity\",\"retry_after_ms\":{retry_after_ms}}}"
    )
}

/// Renders the successful handshake response.
#[must_use]
pub fn hello_line() -> String {
    format!(
        "{{\"ok\":true,\"type\":\"hello\",\"service\":\"icvbe-serve\",\"version\":{PROTOCOL_VERSION}}}"
    )
}

/// Renders the submit acknowledgement (`queued` = jobs ahead of this one).
#[must_use]
pub fn submitted_line(job: u64, queued: usize) -> String {
    format!("{{\"ok\":true,\"type\":\"submitted\",\"job\":{job},\"queued\":{queued}}}")
}

/// Renders one streamed per-die progress event.
#[must_use]
pub fn die_line(job: u64, die: usize, folded: u64, total: usize) -> String {
    format!(
        "{{\"ok\":true,\"type\":\"die\",\"job\":{job},\"die\":{die},\"folded\":{folded},\"total\":{total}}}"
    )
}

/// Renders the terminal `done` event carrying the five report artifacts
/// verbatim (the four deterministic ones are byte-identical to a one-shot
/// `repro campaign` of the same spec).
#[must_use]
pub fn done_line(job: u64, artifacts: &[(&str, &str)]) -> String {
    let body: Vec<String> = artifacts
        .iter()
        .map(|(name, text)| format!("\"{}\":\"{}\"", escape(name), escape(text)))
        .collect();
    format!(
        "{{\"ok\":true,\"type\":\"done\",\"job\":{job},\"artifacts\":{{{}}}}}",
        body.join(",")
    )
}

/// Renders the terminal `cancelled` event.
#[must_use]
pub fn cancelled_line(job: u64) -> String {
    format!("{{\"ok\":true,\"type\":\"cancelled\",\"job\":{job}}}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use icvbe_campaign::spec::WaferMap;
    use icvbe_campaign::wire::spec_to_json;

    #[test]
    fn parses_hello_and_rejects_garbage() {
        assert_eq!(
            parse_request("{\"cmd\":\"hello\",\"version\":1}").unwrap(),
            Request::Hello { version: 1 }
        );
        assert!(parse_request("nonsense").is_err());
        assert!(parse_request("{\"cmd\":\"hello\"}").is_err());
        assert!(parse_request("{\"cmd\":\"frobnicate\"}").is_err());
    }

    #[test]
    fn parses_submit_with_embedded_spec() {
        let spec = CampaignSpec::paper_default(WaferMap::full(2, 2), 9);
        let line = format!(
            "{{\"cmd\":\"submit\",\"tenant\":\"acme\",\"label\":\"lot7\",\"stream\":false,\"spec\":{}}}",
            spec_to_json(&spec)
        );
        match parse_request(&line).unwrap() {
            Request::Submit {
                tenant,
                label,
                stream,
                spec: decoded,
            } => {
                assert_eq!(tenant, "acme");
                assert_eq!(label, "lot7");
                assert!(!stream);
                assert_eq!(*decoded, spec);
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn submit_rejects_invalid_specs() {
        let line = "{\"cmd\":\"submit\",\"spec\":{\"schema\":\"icvbe-campaign-spec-v1\"}}";
        assert!(parse_request(line).is_err());
    }

    #[test]
    fn results_needs_a_handle() {
        assert!(parse_request("{\"cmd\":\"results\"}").is_err());
        assert!(parse_request("{\"cmd\":\"results\",\"job\":3}").is_ok());
        assert!(parse_request("{\"cmd\":\"results\",\"label\":\"x\"}").is_ok());
    }

    #[test]
    fn error_lines_are_parseable_and_typed() {
        let e = ProtocolError {
            kind: "unsupported_version",
            detail: "client sent 9".to_string(),
        };
        let line = error_line(&e);
        let v = parse(&line).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            v.get("error").and_then(Json::as_str),
            Some("unsupported_version")
        );
        assert_eq!(
            v.get("supported").and_then(Json::as_u64),
            Some(PROTOCOL_VERSION)
        );
        let q = parse(&queue_full_line(250)).unwrap();
        assert_eq!(q.get("retry_after_ms").and_then(Json::as_u64), Some(250));
    }

    /// Records every `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn one_line_is_one_write_call() {
        let big = done_line(3, &[("campaign_aggregate.csv", &"x,1\n".repeat(10_000))]);
        for line in [hello_line(), submitted_line(1, 0), big] {
            let mut out = CountingWriter::default();
            write_line(&mut out, &line).unwrap();
            assert_eq!(
                out.writes,
                1,
                "a {}-byte line took several writes",
                line.len()
            );
            assert_eq!(out.bytes, format!("{line}\n").into_bytes());
        }
    }

    #[test]
    fn artifact_payloads_survive_the_wire() {
        let json_artifact = "{\"schema\":\"x\",\n\"rows\":[1,2]}";
        let line = done_line(4, &[("campaign_aggregate.json", json_artifact)]);
        let v = parse(&line).unwrap();
        let arts = v.get("artifacts").unwrap();
        assert_eq!(
            arts.get("campaign_aggregate.json").and_then(Json::as_str),
            Some(json_artifact)
        );
    }
}
