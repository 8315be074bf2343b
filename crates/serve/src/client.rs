//! A blocking client for the campaign service, used by `repro submit` /
//! `repro watch` and the end-to-end tests.

use std::fmt;
use std::io::{BufRead, BufReader};
use std::net::TcpStream;

use icvbe_campaign::json::{parse, Json};
use icvbe_campaign::wire::spec_to_json;
use icvbe_campaign::CampaignSpec;

use crate::protocol::{write_line, PROTOCOL_VERSION};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The server answered with a typed error (kind, detail).
    Server {
        /// The machine-readable error kind (`queue_full`, `unknown_job`, ...).
        kind: String,
        /// Human-readable detail.
        detail: String,
        /// Backpressure hint, present on `queue_full`.
        retry_after_ms: Option<u64>,
    },
    /// The server sent something the client could not interpret.
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Server {
                kind,
                detail,
                retry_after_ms,
            } => match retry_after_ms {
                Some(ms) => write!(f, "{kind}: {detail} (retry after {ms} ms)"),
                None => write!(f, "{kind}: {detail}"),
            },
            ClientError::Protocol(detail) => write!(f, "protocol: {detail}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// One streamed event from a job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobEvent {
    /// A die was folded (`die` index, `folded` so far, `total` dies).
    Die {
        /// Die index just folded.
        die: u64,
        /// Dies folded so far (== `die + 1`).
        folded: u64,
        /// Total dies in the campaign.
        total: u64,
    },
    /// The job completed; the report artifacts by file name.
    Done {
        /// `(file name, file contents)` pairs, in report order.
        artifacts: Vec<(String, String)>,
    },
    /// The job was cancelled.
    Cancelled,
    /// The job failed (spec became invalid mid-resume, engine error).
    Failed {
        /// Server-provided detail.
        detail: String,
    },
}

/// A connected, handshaken client.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects and performs the `hello` handshake.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] on connect failure, [`ClientError::Server`]
    /// with kind `unsupported_version` on a version mismatch.
    pub fn connect(addr: &str) -> Result<Client, ClientError> {
        let writer = TcpStream::connect(addr)?;
        // Request lines are small and each waits for its reply: send them
        // at once rather than holding them back for a delayed ACK.
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        let mut client = Client { reader, writer };
        client.send(&format!(
            "{{\"cmd\":\"hello\",\"version\":{PROTOCOL_VERSION}}}"
        ))?;
        let v = client.recv()?;
        expect_ok(&v)?;
        Ok(client)
    }

    fn send(&mut self, line: &str) -> Result<(), ClientError> {
        Ok(write_line(&mut self.writer, line)?)
    }

    fn recv(&mut self) -> Result<Json, ClientError> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(ClientError::Protocol("server closed the connection".into()));
        }
        parse(line.trim_end()).map_err(|e| ClientError::Protocol(format!("unparseable reply: {e}")))
    }

    /// Submits a campaign. With `stream` the connection then carries the
    /// job's event stream — consume it with [`Client::next_event`] or
    /// [`Client::wait_done`] before issuing other requests.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with kind `queue_full` (carrying
    /// `retry_after_ms`) when the service applies backpressure.
    pub fn submit(
        &mut self,
        tenant: &str,
        label: &str,
        spec: &CampaignSpec,
        stream: bool,
    ) -> Result<u64, ClientError> {
        use icvbe_campaign::json::escape;
        self.send(&format!(
            "{{\"cmd\":\"submit\",\"tenant\":\"{}\",\"label\":\"{}\",\"stream\":{stream},\"spec\":{}}}",
            escape(tenant),
            escape(label),
            spec_to_json(spec)
        ))?;
        let v = self.recv()?;
        expect_ok(&v)?;
        v.get("job")
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError::Protocol("submitted reply without a job id".into()))
    }

    /// Attaches to a job's event stream by id or label (history replays
    /// first, then live events).
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with kind `unknown_job` if nothing matches.
    pub fn results(
        &mut self,
        job: Option<u64>,
        label: Option<&str>,
        tenant: Option<&str>,
    ) -> Result<(), ClientError> {
        use icvbe_campaign::json::escape;
        let mut fields = vec!["\"cmd\":\"results\"".to_string()];
        if let Some(id) = job {
            fields.push(format!("\"job\":{id}"));
        }
        if let Some(l) = label {
            fields.push(format!("\"label\":\"{}\"", escape(l)));
        }
        if let Some(t) = tenant {
            fields.push(format!("\"tenant\":\"{}\"", escape(t)));
        }
        self.send(&format!("{{{}}}", fields.join(",")))
    }

    /// Reads the next streamed event.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] if the stream carries a typed error,
    /// [`ClientError::Protocol`] on an unrecognized event.
    pub fn next_event(&mut self) -> Result<JobEvent, ClientError> {
        let v = self.recv()?;
        // The `failed` terminal carries ok:false but is an event, not a
        // transport error — branch on the type before the ok check.
        match v.get("type").and_then(Json::as_str) {
            Some("die") => Ok(JobEvent::Die {
                die: v.get("die").and_then(Json::as_u64).unwrap_or(0),
                folded: v.get("folded").and_then(Json::as_u64).unwrap_or(0),
                total: v.get("total").and_then(Json::as_u64).unwrap_or(0),
            }),
            Some("done") => {
                let artifacts = match v.get("artifacts") {
                    Some(Json::Obj(members)) => members
                        .iter()
                        .filter_map(|(name, text)| {
                            text.as_str().map(|t| (name.clone(), t.to_string()))
                        })
                        .collect(),
                    _ => Vec::new(),
                };
                Ok(JobEvent::Done { artifacts })
            }
            Some("cancelled") => Ok(JobEvent::Cancelled),
            Some("failed") => Ok(JobEvent::Failed {
                detail: v
                    .get("detail")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
            }),
            other => {
                expect_ok(&v)?;
                Err(ClientError::Protocol(format!(
                    "unexpected event type {other:?}"
                )))
            }
        }
    }

    /// Consumes the stream until the terminal event, invoking `on_die`
    /// per folded die, and returns the artifacts on success.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] for cancelled/failed terminals and typed
    /// stream errors.
    pub fn wait_done(
        &mut self,
        mut on_die: impl FnMut(u64, u64),
    ) -> Result<Vec<(String, String)>, ClientError> {
        loop {
            match self.next_event()? {
                JobEvent::Die { folded, total, .. } => on_die(folded, total),
                JobEvent::Done { artifacts } => return Ok(artifacts),
                JobEvent::Cancelled => {
                    return Err(ClientError::Server {
                        kind: "cancelled".to_string(),
                        detail: "job was cancelled".to_string(),
                        retry_after_ms: None,
                    })
                }
                JobEvent::Failed { detail } => {
                    return Err(ClientError::Server {
                        kind: "failed".to_string(),
                        detail,
                        retry_after_ms: None,
                    })
                }
            }
        }
    }

    /// Fetches the service status document.
    ///
    /// # Errors
    ///
    /// Propagates transport and typed server errors.
    pub fn status(&mut self) -> Result<Json, ClientError> {
        self.send("{\"cmd\":\"status\"}")?;
        let v = self.recv()?;
        expect_ok(&v)?;
        Ok(v)
    }

    /// Requests cancellation of a job.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with kind `unknown_job` for dead ids.
    pub fn cancel(&mut self, job: u64) -> Result<(), ClientError> {
        self.send(&format!("{{\"cmd\":\"cancel\",\"job\":{job}}}"))?;
        let v = self.recv()?;
        expect_ok(&v)?;
        Ok(())
    }

    /// Asks the daemon to checkpoint live jobs and exit.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.send("{\"cmd\":\"shutdown\"}")?;
        let v = self.recv()?;
        expect_ok(&v)?;
        Ok(())
    }
}

fn expect_ok(v: &Json) -> Result<(), ClientError> {
    if v.get("ok").and_then(Json::as_bool) == Some(true) {
        return Ok(());
    }
    Err(ClientError::Server {
        kind: v
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string(),
        detail: v
            .get("detail")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string(),
        retry_after_ms: v.get("retry_after_ms").and_then(Json::as_u64),
    })
}
