//! Transport abstraction: how message payloads move between a client and
//! the service.
//!
//! A [`Connection`] is a pair of halves — a [`FrameSink`] for sending and
//! a [`FrameSource`] for receiving — working at the *payload* level: the
//! bytes produced by [`crate::protocol::encode_request`] /
//! [`crate::protocol::encode_response`]. One transport is built in:
//!
//! * **TCP** ([`Connection::connect_tcp`] / [`Connection::from_tcp`]) —
//!   one socket per analyst session, payloads wrapped in the
//!   length-prefixed CRC-checked frames of [`crate::frame`], `TCP_NODELAY`
//!   set so small request frames are not nagled behind each other.
//!
//! Any other transport plugs in through [`Connection::from_halves`]; the
//! mux client ([`crate::MuxConnection`]) builds its channels that way.
//! The halves are independently `Send`, so a client can hand the source
//! to a reader thread and keep the sink ([`Connection::split`]).

use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

use crate::error::ApiError;
use crate::frame::{io_error, read_frame, write_frame};

/// The sending half of a connection.
pub trait FrameSink: Send {
    /// Sends one message payload. Errors are terminal for the connection.
    fn send(&mut self, payload: Vec<u8>) -> Result<(), ApiError>;
}

/// The receiving half of a connection.
pub trait FrameSource: Send {
    /// Receives the next message payload, blocking until one arrives.
    /// `Ok(None)` means the peer closed the connection cleanly.
    fn recv(&mut self) -> Result<Option<Vec<u8>>, ApiError>;
}

/// A bidirectional, transport-agnostic connection.
pub struct Connection {
    sink: Box<dyn FrameSink>,
    source: Box<dyn FrameSource>,
}

impl std::fmt::Debug for Connection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Connection").finish_non_exhaustive()
    }
}

impl Connection {
    /// A connection over caller-supplied halves (custom transports).
    #[must_use]
    pub fn from_halves(sink: Box<dyn FrameSink>, source: Box<dyn FrameSource>) -> Self {
        Connection { sink, source }
    }

    /// Connects to a TCP endpoint serving the analyst protocol.
    pub fn connect_tcp(addr: impl ToSocketAddrs) -> Result<Connection, ApiError> {
        let stream = TcpStream::connect(addr).map_err(io_error)?;
        Connection::from_tcp(stream)
    }

    /// Wraps an accepted / established TCP stream.
    pub fn from_tcp(stream: TcpStream) -> Result<Connection, ApiError> {
        stream.set_nodelay(true).map_err(io_error)?;
        let read_half = stream.try_clone().map_err(io_error)?;
        Ok(Connection {
            sink: Box::new(TcpSink(BufWriter::new(stream))),
            source: Box::new(TcpSource(BufReader::new(read_half))),
        })
    }

    /// Sends one payload.
    pub fn send(&mut self, payload: Vec<u8>) -> Result<(), ApiError> {
        self.sink.send(payload)
    }

    /// Receives the next payload (`None` = peer closed cleanly).
    pub fn recv(&mut self) -> Result<Option<Vec<u8>>, ApiError> {
        self.source.recv()
    }

    /// Splits into independently owned halves (reader/writer threads).
    #[must_use]
    pub fn split(self) -> (Box<dyn FrameSink>, Box<dyn FrameSource>) {
        (self.sink, self.source)
    }
}

struct TcpSink(BufWriter<TcpStream>);

impl FrameSink for TcpSink {
    fn send(&mut self, payload: Vec<u8>) -> Result<(), ApiError> {
        write_frame(&mut self.0, &payload)?;
        self.0.flush().map_err(io_error)
    }
}

struct TcpSource(BufReader<TcpStream>);

impl FrameSource for TcpSource {
    fn recv(&mut self) -> Result<Option<Vec<u8>>, ApiError> {
        read_frame(&mut self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_round_trips_frames_over_loopback() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server_thread = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut conn = Connection::from_tcp(stream).unwrap();
            while let Some(payload) = conn.recv().unwrap() {
                conn.send(payload).unwrap(); // echo
            }
        });
        let mut client = Connection::connect_tcp(addr).unwrap();
        for size in [0usize, 1, 13, 4096] {
            let payload = vec![0xA5u8; size];
            client.send(payload.clone()).unwrap();
            assert_eq!(client.recv().unwrap(), Some(payload));
        }
        drop(client);
        server_thread.join().unwrap();
    }
}
