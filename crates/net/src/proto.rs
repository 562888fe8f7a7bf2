//! The versioned text protocol inside [`frame`](crate::frame) payloads.
//!
//! Every payload is a line-oriented message: the first line is the
//! command tag, subsequent lines are `key value` fields (an ARTIFACT's
//! body follows a `body:` separator and runs to the end of the frame).
//! The protocol is versioned twice over:
//!
//! - [`PROTO_VERSION`] gates the message grammar itself;
//! - the HELLO handshake also carries the worker's shard-artifact format
//!   tag, checked against [`SHARD_MAGIC`](idld_campaign::SHARD_MAGIC) —
//!   a worker built against a stale artifact format is refused at
//!   connection time, not at merge time.
//!
//! Conversation shape (W = worker, C = coordinator):
//!
//! ```text
//! W→C  HELLO proto+magic        C→W  WELCOME shards | ERR
//! W→C  NEXT                     C→W  JOB spec | WAIT ms | DONE
//! W→C  BEAT                     (no reply; refreshes liveness)
//! W→C  PROGRESS shard c t       (no reply; refreshes liveness)
//! W→C  ART shard + body         C→W  OK shard | DUP shard | ERR
//! ```
//!
//! Decoding is strict: any unknown tag, missing field, or malformed
//! number is an error naming the offending line, mirroring the shard
//! artifact decoder — garbage must never parse as a quieter message.

use std::fmt::Write as _;

/// Protocol grammar version, exchanged in HELLO/WELCOME. Bumped on any
/// incompatible message change.
pub const PROTO_VERSION: &str = "idld-net v2";

/// The campaign parameters a JOB assignment carries — everything a
/// remote worker needs to run its shard *identically* to an in-process
/// run, so workers never depend on having the coordinator's environment.
///
/// `sweep` is the raw `IDLD_SWEEP` specification (empty = no sweep),
/// `workloads` the raw comma-separated filter (empty = full suite), and
/// `scale` the suite scale factor. Neither string may contain newlines.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// The shard this assignment covers.
    pub shard: usize,
    /// Total shard count of the campaign.
    pub shards: usize,
    /// Injection runs per (config × bench × model) cell.
    pub runs_per_cell: usize,
    /// Master campaign seed.
    pub seed: u64,
    /// Raw sweep specification (empty = the default point).
    pub sweep: String,
    /// Raw workload filter (empty = the full suite).
    pub workloads: String,
    /// Workload suite scale factor.
    pub scale: u32,
}

impl JobSpec {
    /// The field lines of this spec (no tag line).
    fn encode_fields(&self, s: &mut String) {
        let _ = writeln!(s, "shard {}", self.shard);
        let _ = writeln!(s, "shards {}", self.shards);
        let _ = writeln!(s, "runs_per_cell {}", self.runs_per_cell);
        let _ = writeln!(s, "seed {}", self.seed);
        let _ = writeln!(s, "sweep {}", self.sweep);
        let _ = writeln!(s, "workloads {}", self.workloads);
        let _ = writeln!(s, "scale {}", self.scale);
    }

    /// Rejects field values that would corrupt the line-oriented encoding.
    pub fn validate(&self) -> Result<(), String> {
        self.validate_as_template()?;
        if self.shard >= self.shards {
            return Err(format!(
                "job shard {} out of range for {} shards",
                self.shard, self.shards
            ));
        }
        Ok(())
    }

    /// [`JobSpec::validate`] for a coordinator's job *template*, whose
    /// `shard` field is overwritten per assignment and not checked.
    pub fn validate_as_template(&self) -> Result<(), String> {
        for (name, v) in [("sweep", &self.sweep), ("workloads", &self.workloads)] {
            if v.contains('\n') || v.contains('\r') {
                return Err(format!("job {name} value must be a single line, got {v:?}"));
            }
        }
        if self.shards == 0 {
            return Err("a campaign needs at least one shard".to_string());
        }
        Ok(())
    }
}

/// One protocol message (see the module docs for the conversation shape).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Message {
    /// Worker → coordinator handshake: grammar version + shard-artifact
    /// format tag.
    Hello { proto: String, magic: String },
    /// Coordinator → worker handshake acknowledgement.
    Welcome { shards: usize },
    /// Worker asks for a shard.
    Next,
    /// Coordinator assigns a shard.
    Job(JobSpec),
    /// Nothing to hand out yet; ask again in `ms` milliseconds.
    Wait { ms: u64 },
    /// Every shard is complete; the worker may disconnect.
    Done,
    /// Worker liveness heartbeat (no reply).
    Beat,
    /// Worker progress stream: `completed`/`total` runs of `shard`
    /// (no reply; doubles as a heartbeat).
    Progress {
        shard: usize,
        completed: usize,
        total: usize,
    },
    /// Worker uploads the encoded shard artifact.
    Artifact { shard: usize, body: String },
    /// Coordinator accepted (and persisted) the artifact.
    ArtifactOk { shard: usize },
    /// The shard was already complete; the artifact was discarded.
    ArtifactDup { shard: usize },
    /// Fatal protocol-level failure, single line.
    Error { msg: String },
}

impl Message {
    /// Serializes this message as one frame payload.
    pub fn encode(&self) -> String {
        let mut s = String::new();
        match self {
            Message::Hello { proto, magic } => {
                let _ = writeln!(s, "HELLO");
                let _ = writeln!(s, "proto {proto}");
                let _ = writeln!(s, "magic {magic}");
            }
            Message::Welcome { shards } => {
                let _ = writeln!(s, "WELCOME");
                let _ = writeln!(s, "shards {shards}");
            }
            Message::Next => s.push_str("NEXT\n"),
            Message::Job(spec) => {
                let _ = writeln!(s, "JOB");
                spec.encode_fields(&mut s);
            }
            Message::Wait { ms } => {
                let _ = writeln!(s, "WAIT");
                let _ = writeln!(s, "ms {ms}");
            }
            Message::Done => s.push_str("DONE\n"),
            Message::Beat => s.push_str("BEAT\n"),
            Message::Progress {
                shard,
                completed,
                total,
            } => {
                let _ = writeln!(s, "PROGRESS");
                let _ = writeln!(s, "shard {shard}");
                let _ = writeln!(s, "completed {completed}");
                let _ = writeln!(s, "total {total}");
            }
            Message::Artifact { shard, body } => {
                let _ = writeln!(s, "ART");
                let _ = writeln!(s, "shard {shard}");
                let _ = writeln!(s, "body:");
                s.push_str(body);
            }
            Message::ArtifactOk { shard } => {
                let _ = writeln!(s, "OK");
                let _ = writeln!(s, "shard {shard}");
            }
            Message::ArtifactDup { shard } => {
                let _ = writeln!(s, "DUP");
                let _ = writeln!(s, "shard {shard}");
            }
            Message::Error { msg } => {
                let _ = writeln!(s, "ERR");
                let _ = writeln!(s, "msg {msg}");
            }
        }
        s
    }

    /// Parses one frame payload.
    ///
    /// # Errors
    ///
    /// Any structural deviation is an error naming the offending line.
    pub fn decode(payload: &str) -> Result<Message, String> {
        let mut lines = payload.lines();
        let tag = lines.next().ok_or("empty message")?;
        let mut field = |key: &str| -> Result<String, String> {
            let line = lines
                .next()
                .ok_or_else(|| format!("{tag} message truncated before {key:?}"))?;
            line.strip_prefix(key)
                .and_then(|r| {
                    r.strip_prefix(' ')
                        .or(if r.is_empty() { Some("") } else { None })
                })
                .map(str::to_string)
                .ok_or_else(|| format!("{tag} message: expected {key:?} field, got {line:?}"))
        };
        fn num<T: std::str::FromStr>(key: &str, v: &str) -> Result<T, String>
        where
            T::Err: std::fmt::Display,
        {
            v.parse().map_err(|e| format!("field {key} {v:?}: {e}"))
        }
        let msg = match tag {
            "HELLO" => Message::Hello {
                proto: field("proto")?,
                magic: field("magic")?,
            },
            "WELCOME" => Message::Welcome {
                shards: num("shards", &field("shards")?)?,
            },
            "NEXT" => Message::Next,
            "JOB" => Message::Job(JobSpec {
                shard: num("shard", &field("shard")?)?,
                shards: num("shards", &field("shards")?)?,
                runs_per_cell: num("runs_per_cell", &field("runs_per_cell")?)?,
                seed: num("seed", &field("seed")?)?,
                sweep: field("sweep")?,
                workloads: field("workloads")?,
                scale: num("scale", &field("scale")?)?,
            }),
            "WAIT" => Message::Wait {
                ms: num("ms", &field("ms")?)?,
            },
            "DONE" => Message::Done,
            "BEAT" => Message::Beat,
            "PROGRESS" => Message::Progress {
                shard: num("shard", &field("shard")?)?,
                completed: num("completed", &field("completed")?)?,
                total: num("total", &field("total")?)?,
            },
            "ART" => {
                let shard = num("shard", &field("shard")?)?;
                let sep = lines
                    .next()
                    .ok_or("ART message truncated before \"body:\"")?;
                if sep != "body:" {
                    return Err(format!("ART message: expected \"body:\", got {sep:?}"));
                }
                // The body is the remainder of the payload, verbatim.
                let consumed = payload
                    .match_indices('\n')
                    .nth(2)
                    .map(|(i, _)| i + 1)
                    .ok_or("ART message has no body")?;
                Message::Artifact {
                    shard,
                    body: payload[consumed..].to_string(),
                }
            }
            "OK" => Message::ArtifactOk {
                shard: num("shard", &field("shard")?)?,
            },
            "DUP" => Message::ArtifactDup {
                shard: num("shard", &field("shard")?)?,
            },
            "ERR" => Message::Error { msg: field("msg")? },
            other => return Err(format!("unknown message tag {other:?}")),
        };
        // Trailing lines after a fixed-shape message are a framing bug
        // (the ART arm consumed the remainder as its body above).
        if !matches!(msg, Message::Artifact { .. }) {
            if let Some(extra) = lines.next() {
                return Err(format!("{tag} message has trailing line {extra:?}"));
            }
        }
        Ok(msg)
    }
}

/// The worker-side HELLO for this build.
pub fn hello() -> Message {
    Message::Hello {
        proto: PROTO_VERSION.to_string(),
        magic: idld_campaign::SHARD_MAGIC.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec {
            shard: 2,
            shards: 8,
            runs_per_cell: 12,
            seed: 0x1d1d,
            sweep: "grid".to_string(),
            workloads: "crc32,basicmath".to_string(),
            scale: 1,
        }
    }

    #[test]
    fn every_message_round_trips() {
        let mut empty_axes = spec();
        empty_axes.sweep.clear();
        empty_axes.workloads.clear();
        for msg in [
            hello(),
            Message::Welcome { shards: 4 },
            Message::Next,
            Message::Job(spec()),
            Message::Job(empty_axes),
            Message::Wait { ms: 250 },
            Message::Done,
            Message::Beat,
            Message::Progress {
                shard: 3,
                completed: 17,
                total: 120,
            },
            Message::Artifact {
                shard: 1,
                body: "idld-shard v4\nshard 1 4\nmulti\nline body\n".to_string(),
            },
            Message::Artifact {
                shard: 0,
                body: String::new(),
            },
            Message::ArtifactOk { shard: 1 },
            Message::ArtifactDup { shard: 1 },
            Message::Error {
                msg: "magic mismatch".to_string(),
            },
        ] {
            let wire = msg.encode();
            let back = Message::decode(&wire).unwrap_or_else(|e| panic!("{wire:?}: {e}"));
            assert_eq!(back, msg, "through {wire:?}");
        }
    }

    #[test]
    fn artifact_bodies_survive_verbatim() {
        // The body is everything after "body:" — including lines that
        // look like protocol tags.
        let body = "DONE\nNEXT\nbody:\n\n trailing \n";
        let wire = Message::Artifact {
            shard: 7,
            body: body.to_string(),
        }
        .encode();
        match Message::decode(&wire).expect("decodes") {
            Message::Artifact { shard, body: b } => {
                assert_eq!(shard, 7);
                assert_eq!(b, body);
            }
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn malformed_messages_are_rejected_loudly() {
        for bad in [
            "",
            "GREETINGS\n",
            "HELLO\n",
            "HELLO\nproto idld-net v2\n",
            "HELLO\nmagic first\nproto second\n",
            "WELCOME\nshards four\n",
            "JOB\nshard 1\n",
            "JOB\nshard 1\nshards 2\nruns_per_cell 3\nseed many\n",
            "JOB\nshard 1\nshards 2\nruns_per_cell 3\nseed 4\nsnapshot 1\n",
            "WAIT\n",
            "PROGRESS\nshard 0\ncompleted 1\n",
            "ART\nshard 0\n",
            "ART\nshard 0\nbody\nx\n",
            "OK\n",
            "NEXT\nextra line\n",
            "DONE\nshard 0\n",
        ] {
            let err = Message::decode(bad).expect_err(&format!("must reject {bad:?}"));
            assert!(!err.is_empty());
        }
    }

    #[test]
    fn job_spec_validation_rejects_unencodable_values() {
        assert!(spec().validate().is_ok());
        let mut bad = spec();
        bad.workloads = "crc32\nqsort".to_string();
        assert!(bad.validate().is_err(), "embedded newline");
        let mut bad = spec();
        bad.shard = 8;
        assert!(bad.validate().is_err(), "shard out of range");
    }
}
