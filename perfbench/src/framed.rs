//! A client connection that buffers partial frames across read
//! timeouts.
//!
//! `tsnet::TsNetClient::poll_push` reads a frame with `read_exact`
//! under the poll timeout; when the timeout fires after part of a
//! frame has arrived, those bytes are consumed and the connection
//! loses its framing. The dashboard connection of `ingest_live` polls
//! for pushes between queries many times a second, so it uses this
//! reader instead: bytes accumulate in a buffer and a frame is decoded
//! (with `tsnet::wire::decode_frame`) only once it is complete.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use tsnet::wire::{self, HEADER_LEN, MAX_PAYLOAD_BYTES, TRAILER_LEN};
use tsnet::{Frame, NetError, Push, Request, RequestEnvelope, Response};

use crate::Res;

/// How long a call waits for its response.
const CALL_TIMEOUT: Duration = Duration::from_secs(30);

pub struct FramedConn {
    stream: TcpStream,
    buf: Vec<u8>,
    next_id: u64,
    pushes: VecDeque<Push>,
}

impl FramedConn {
    pub fn connect(addr: SocketAddr) -> Res<FramedConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(FramedConn {
            stream,
            buf: Vec::new(),
            next_id: 1,
            pushes: VecDeque::new(),
        })
    }

    /// Length of the complete frame at the front of the buffer, if any.
    fn complete_len(&self) -> Res<Option<usize>> {
        let Some(len) = self.buf.get(6..HEADER_LEN) else {
            return Ok(None);
        };
        let len = u32::from_le_bytes([len[0], len[1], len[2], len[3]]);
        if len > MAX_PAYLOAD_BYTES {
            return Err(format!("frame of {len} bytes exceeds the protocol limit").into());
        }
        let total = HEADER_LEN + len as usize + TRAILER_LEN;
        Ok((self.buf.len() >= total).then_some(total))
    }

    /// The next frame, or `None` once `deadline` passes first.
    fn read_frame(&mut self, deadline: Instant) -> Res<Option<Frame>> {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            if let Some(total) = self.complete_len()? {
                let (frame, _) = wire::decode_frame(&self.buf[..total])?;
                self.buf.drain(..total);
                return Ok(Some(frame));
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            self.stream
                .set_read_timeout(Some((deadline - now).max(Duration::from_micros(100))))?;
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Issue one request and wait for its response; pushes that
    /// arrive first are kept for [`FramedConn::poll_push`].
    pub fn call(&mut self, body: Request) -> Res<Response> {
        let request_id = self.next_id;
        self.next_id += 1;
        let frame = wire::encode_request(&RequestEnvelope {
            request_id,
            deadline_ms: 0,
            body,
        })?;
        wire::write_frame(&mut self.stream, &frame)?;
        let deadline = Instant::now() + CALL_TIMEOUT;
        loop {
            match self.read_frame(deadline)? {
                None => return Err("no response within the call timeout".into()),
                Some(Frame::Push(p)) => self.pushes.push_back(p),
                Some(Frame::Response(r)) if r.request_id == request_id => {
                    return match r.body {
                        Response::Error { code, detail } => {
                            Err(NetError::from_remote(code, detail).into())
                        }
                        body => Ok(body),
                    };
                }
                Some(_) => {}
            }
        }
    }

    /// The next push, waiting at most `timeout` for one.
    pub fn poll_push(&mut self, timeout: Duration) -> Res<Option<Push>> {
        if let Some(p) = self.pushes.pop_front() {
            return Ok(Some(p));
        }
        let deadline = Instant::now() + timeout;
        loop {
            match self.read_frame(deadline)? {
                None => return Ok(None),
                Some(Frame::Push(p)) => return Ok(Some(p)),
                Some(_) => {}
            }
        }
    }
}
