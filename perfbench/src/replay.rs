//! The traced replay: each operation of a run's script executed in
//! process through the public functions a server request passes
//! through, each call wrapped in a span.
//!
//! - Query: `tsnet::wire::encode_request`, `decode_request_payload`,
//!   `TsKv::snapshot`, `M4Lsm::execute`, `encode_response`,
//!   `decode_response_payload`.
//! - Write: `encode_request`, `decode_request_payload`,
//!   `TsKv::write_batch`.
//!
//! Engine I/O counters are read around every `M4Lsm::execute`, so the
//! per-query counts are measured where the work happens.

use m4::{M4Lsm, M4Query, SpanRepr};
use tsfile::types::Point;
use tskv::stats::IoSnapshot;
use tskv::{TsKv, WriteBatch};
use tsnet::wire::{self, HEADER_LEN, TRAILER_LEN};
use tsnet::{Operator, Request, RequestEnvelope, Response, ResponseEnvelope};

use crate::setup::Sink;
use crate::trace::{Tracer, ROOT};
use crate::Res;

/// Kind of a replayed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Query,
    Write,
    Flush,
    Delete,
}

/// One replayed request: its root span and whether it belongs to the
/// measured part of the script (not set-up or warm-up).
#[derive(Debug, Clone, Copy)]
pub struct Root {
    pub span: u32,
    pub kind: Kind,
    pub measured: bool,
}

/// Counts gathered around one measured query.
#[derive(Debug, Clone, Copy)]
pub struct QueryCounts {
    pub io: IoSnapshot,
    pub non_empty_spans: u64,
    pub request_bytes: u64,
    pub response_bytes: u64,
}

pub struct Replayer<'a> {
    kv: &'a TsKv,
    pub tracer: Tracer,
    pub roots: Vec<Root>,
    pub queries: Vec<QueryCounts>,
    /// Request frame bytes of measured writes.
    pub write_request_bytes: Vec<u64>,
    /// Whether operations issued now are measured.
    pub measured: bool,
    next_req: u64,
}

fn payload(frame: &[u8]) -> Res<&[u8]> {
    Ok(frame
        .get(HEADER_LEN..frame.len().saturating_sub(TRAILER_LEN))
        .ok_or("frame shorter than its header")?)
}

impl<'a> Replayer<'a> {
    pub fn new(kv: &'a TsKv) -> Replayer<'a> {
        Replayer {
            kv,
            tracer: Tracer::new(),
            roots: Vec::new(),
            queries: Vec::new(),
            write_request_bytes: Vec::new(),
            measured: false,
            next_req: 1,
        }
    }

    fn begin(&mut self, name: &'static str, kind: Kind) -> (u64, u32) {
        let req = self.next_req;
        self.next_req += 1;
        let span = self.tracer.open(name, req, ROOT);
        self.roots.push(Root {
            span,
            kind,
            measured: self.measured,
        });
        (req, span)
    }

    /// Replay one `M4Query` (op = Lsm); returns the decoded answer.
    pub fn query(
        &mut self,
        series: &str,
        t_qs: i64,
        t_qe: i64,
        w: u32,
    ) -> Res<Vec<Option<SpanRepr>>> {
        let (req, root) = self.begin("rpc.query", Kind::Query);
        let env = RequestEnvelope {
            request_id: req,
            deadline_ms: 0,
            body: Request::M4Query {
                series: series.to_string(),
                op: Operator::Lsm,
                t_qs,
                t_qe,
                w,
            },
        };
        let t = &mut self.tracer;
        let frame = t.span("tsnet.wire.encode_request", req, root, || {
            wire::encode_request(&env)
        })?;
        let decoded: Res<RequestEnvelope> =
            t.span("tsnet.wire.decode_request_payload", req, root, || {
                Ok(wire::decode_request_payload(payload(&frame)?)?)
            });
        let Request::M4Query {
            series,
            t_qs,
            t_qe,
            w,
            ..
        } = decoded?.body
        else {
            return Err("request decoded to another kind".into());
        };
        let kv = self.kv;
        let snap = t.span("tskv.snapshot", req, root, || kv.snapshot(&series))?;
        let query = M4Query::new(t_qs, t_qe, w as usize)?;
        let before = kv.io().snapshot();
        let result = t.span("m4.lsm.execute", req, root, || {
            M4Lsm::new().execute(&snap, &query)
        })?;
        let io = kv.io().snapshot() - before;
        let non_empty_spans = result.non_empty() as u64;
        let resp = ResponseEnvelope {
            request_id: req,
            body: Response::M4 {
                spans: result.spans,
            },
        };
        let out = t.span("tsnet.wire.encode_response", req, root, || {
            wire::encode_response(&resp)
        })?;
        let back: Res<ResponseEnvelope> =
            t.span("tsnet.wire.decode_response_payload", req, root, || {
                Ok(wire::decode_response_payload(payload(&out)?)?)
            });
        let back = back?;
        t.close(root);
        if self.measured {
            self.queries.push(QueryCounts {
                io,
                non_empty_spans,
                request_bytes: frame.len() as u64,
                response_bytes: out.len() as u64,
            });
        }
        match back.body {
            Response::M4 { spans } => Ok(spans),
            _ => Err("response decoded to another kind".into()),
        }
    }

    /// Replay one `WriteBatch`.
    pub fn write_batch(&mut self, entries: Vec<(String, Vec<Point>)>) -> Res<()> {
        let (req, root) = self.begin("rpc.write", Kind::Write);
        let env = RequestEnvelope {
            request_id: req,
            deadline_ms: 0,
            body: Request::WriteBatch { entries },
        };
        let t = &mut self.tracer;
        let frame = t.span("tsnet.wire.encode_request", req, root, || {
            wire::encode_request(&env)
        })?;
        drop(env);
        let decoded: Res<RequestEnvelope> =
            t.span("tsnet.wire.decode_request_payload", req, root, || {
                Ok(wire::decode_request_payload(payload(&frame)?)?)
            });
        let Request::WriteBatch { entries } = decoded?.body else {
            return Err("request decoded to another kind".into());
        };
        let kv = self.kv;
        t.span("tskv.write_batch", req, root, || {
            let mut batch = WriteBatch::new();
            for (series, points) in &entries {
                batch.insert_many(series, points);
            }
            kv.write_batch(&batch)
        })?;
        t.close(root);
        if self.measured {
            self.write_request_bytes.push(frame.len() as u64);
        }
        Ok(())
    }
}

impl Sink for Replayer<'_> {
    fn write(&mut self, series: &str, points: &[Point]) -> Res<()> {
        self.write_batch(vec![(series.to_string(), points.to_vec())])
    }

    fn flush(&mut self, series: &str) -> Res<()> {
        let (req, root) = self.begin("rpc.flush", Kind::Flush);
        let kv = self.kv;
        self.tracer
            .span("tskv.flush", req, root, || kv.flush(series))?;
        self.tracer.close(root);
        Ok(())
    }

    fn delete(&mut self, series: &str, start: i64, end: i64) -> Res<()> {
        let (req, root) = self.begin("rpc.delete", Kind::Delete);
        let kv = self.kv;
        self.tracer
            .span("tskv.delete", req, root, || kv.delete(series, start, end))?;
        self.tracer.close(root);
        Ok(())
    }
}
