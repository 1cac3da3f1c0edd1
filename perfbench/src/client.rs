//! Benchmark-side TCP client: one socket, a read buffer that splits
//! response lines, a running digest of every response byte, and the
//! completion time of every request (a request completes at its first
//! non-`result` response line, which always ends a response group).

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::script::wire;
use crate::stats::Digest;

/// One client connection.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    timeout: Option<Duration>,
    /// Digest of every response byte received.
    pub digest: Digest,
    /// Requests written.
    pub sent: usize,
    /// Requests whose response group is complete.
    pub completed: usize,
    /// Completion time of each request, in ns since `epoch`.
    pub done_ns: Vec<u64>,
    /// Response lines kept for the caller (lockstep calls only).
    collect: bool,
    lines: Vec<String>,
    epoch: Instant,
}

impl Conn {
    /// Connects to `addr` with Nagle off (request/response round trips
    /// on a Nagle'd socket stall on the delayed-ACK timer).
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect(addr: &str, epoch: Instant) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            buf: Vec::with_capacity(1 << 16),
            timeout: None,
            digest: Digest::default(),
            sent: 0,
            completed: 0,
            done_ns: Vec::new(),
            collect: false,
            lines: Vec::new(),
            epoch,
        })
    }

    /// Restarts the request log: completion times are measured from
    /// `epoch` and request numbering starts again at zero.
    pub fn restart(&mut self, epoch: Instant) {
        self.epoch = epoch;
        self.sent = 0;
        self.completed = 0;
        self.done_ns.clear();
    }

    /// A second handle on the socket for a separate sender thread.
    ///
    /// # Errors
    ///
    /// Propagates socket clone failures.
    pub fn writer(&self) -> std::io::Result<TcpStream> {
        self.stream.try_clone()
    }

    /// Writes one request line (without its terminator).
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.stream.write_all(&wire(line))?;
        self.sent += 1;
        Ok(())
    }

    /// Reads whatever arrives within `wait` (blocking until some data
    /// arrives when `None`), folding complete lines into the digest.
    ///
    /// # Errors
    ///
    /// Propagates read failures; an early end of stream is an error.
    pub fn pump(&mut self, wait: Option<Duration>) -> std::io::Result<()> {
        let wait = wait.map(|w| w.max(Duration::from_micros(1)));
        if wait != self.timeout {
            self.stream.set_read_timeout(wait)?;
            self.timeout = wait;
        }
        let mut chunk = [0u8; 1 << 16];
        let n = match self.stream.read(&mut chunk) {
            Ok(0) => return Err(std::io::Error::new(ErrorKind::UnexpectedEof, "server hung up")),
            Ok(n) => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Ok(())
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => return Ok(()),
            Err(e) => return Err(e),
        };
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.buf.extend_from_slice(&chunk[..n]);
        let mut start = 0;
        while let Some(pos) = self.buf[start..].iter().position(|&b| b == b'\n') {
            let line = &self.buf[start..start + pos + 1];
            self.digest.update(line);
            if !line.starts_with(b"{\"type\":\"result\"") {
                self.completed += 1;
                self.done_ns.push(now);
            }
            if self.collect {
                self.lines.push(String::from_utf8_lossy(&line[..pos]).into_owned());
            }
            start += pos + 1;
        }
        self.buf.drain(..start);
        Ok(())
    }

    /// Reads until every request written so far is answered.
    ///
    /// # Errors
    ///
    /// Propagates read failures.
    pub fn settle(&mut self) -> std::io::Result<()> {
        while self.completed < self.sent {
            self.pump(None)?;
        }
        Ok(())
    }

    /// Lockstep request: sends `line` and returns its response group.
    ///
    /// # Errors
    ///
    /// Propagates socket failures.
    pub fn call(&mut self, line: &str) -> std::io::Result<Vec<String>> {
        self.collect = true;
        self.send(line)?;
        let result = self.settle();
        self.collect = false;
        result?;
        Ok(std::mem::take(&mut self.lines))
    }
}
