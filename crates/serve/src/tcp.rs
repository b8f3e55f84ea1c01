//! std::net TCP front end: one accept thread, one handler thread per
//! connection, frames from [`crate::proto`].
//!
//! A connection is a sequential request/response stream: the handler
//! reads one request frame, submits it to the shared [`Service`], and
//! writes the outcome frame (rejections included — an overloaded
//! service answers `Status::Overloaded` rather than dropping the
//! connection, so clients can back off). Pipelining across requests
//! happens by opening several connections, which is exactly what the
//! load generators do.

use crate::backend::SearchBackend;
use crate::batcher::Response;
use crate::proto::{
    self, decode_ack, decode_response, encode_ack, encode_malformed, encode_ok, encode_reject,
    read_frame, write_frame, ProtoError, Request, Served, Status, OP_DELETE, OP_INSERT,
};
use crate::service::Service;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A listening server bound to a local address.
pub struct TcpServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl TcpServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and serve
    /// `service` until [`TcpServer::shutdown`] or drop.
    pub fn spawn<B: SearchBackend>(service: Arc<Service<B>>, addr: &str) -> io::Result<TcpServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new().name("cagra-serve-accept".into()).spawn(move || {
                for stream in listener.incoming() {
                    if shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let service = Arc::clone(&service);
                    // Handler threads hold their own Arc<Service>; they
                    // exit when the peer disconnects.
                    let _ = std::thread::Builder::new()
                        .name("cagra-serve-conn".into())
                        .spawn(move || handle_connection(stream, &service));
                }
            })?
        };
        Ok(TcpServer { local_addr, shutdown, accept_thread: Some(accept_thread) })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stop accepting new connections and join the accept thread.
    /// Existing connections drain on their own as peers disconnect.
    pub fn shutdown(&mut self) {
        if self.accept_thread.is_none() {
            return;
        }
        self.shutdown.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn handle_connection<B: SearchBackend>(mut stream: TcpStream, service: &Service<B>) {
    // Responses are single small frames the client is blocked on: send
    // them now instead of letting Nagle hold them for an ACK. A socket
    // that refuses the option still serves, only slower.
    let _ = stream.set_nodelay(true);
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(p) => p,
            // Clean EOF or a socket error: the conversation is over. A
            // corrupt length prefix gets a malformed report first.
            Err(ProtoError::Io(_)) => return,
            Err(ProtoError::Corrupt(msg)) => {
                let _ = write_frame(&mut stream, &encode_malformed(&msg));
                return;
            }
        };
        let outcome = match proto::decode_request(&payload) {
            Ok(Request::Query { query, k }) => match service.search_blocking(&query, k) {
                Ok(resp) => encode_ok(&resp),
                Err(e) => encode_reject(&e),
            },
            Ok(Request::Insert { vector }) => {
                encode_ack(OP_INSERT, &service.insert(&vector).map(u64::from))
            }
            Ok(Request::Delete { id }) => encode_ack(OP_DELETE, &service.delete(id).map(u64::from)),
            Err(e) => encode_malformed(&e.to_string()),
        };
        if write_frame(&mut stream, &outcome).is_err() {
            return;
        }
    }
}

/// A blocking client for the v1 protocol.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect to a server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Send one query and decode the outcome frame (whatever its
    /// status).
    pub fn search_raw(&mut self, query: &[f32], k: usize) -> Result<Served, ProtoError> {
        write_frame(&mut self.stream, &proto::encode_request(query, k))?;
        decode_response(&read_frame(&mut self.stream)?)
    }

    /// Send one query, mapping rejection statuses back onto
    /// [`crate::ServeError`]-shaped errors (message text from the
    /// server).
    pub fn search(&mut self, query: &[f32], k: usize) -> Result<Response, ClientError> {
        let served = self.search_raw(query, k).map_err(ClientError::Proto)?;
        match served.status {
            Status::Ok => served
                .response
                .ok_or_else(|| ClientError::Proto(ProtoError::Corrupt("Ok without body".into()))),
            status => Err(ClientError::Rejected { status, message: served.message }),
        }
    }

    /// Insert one vector, returning the assigned id (mutable backends
    /// only — a static backend answers `Status::Unsupported`).
    pub fn insert(&mut self, vector: &[f32]) -> Result<u32, ClientError> {
        write_frame(&mut self.stream, &proto::encode_insert(vector)).map_err(ClientError::Proto)?;
        let ack = decode_ack(&read_frame(&mut self.stream).map_err(ClientError::Proto)?)
            .map_err(ClientError::Proto)?;
        match ack.status {
            Status::Ok => u32::try_from(ack.value).map_err(|_| {
                ClientError::Proto(ProtoError::Corrupt(format!(
                    "insert id {} not a u32",
                    ack.value
                )))
            }),
            status => Err(ClientError::Rejected { status, message: ack.message }),
        }
    }

    /// Delete one id. `Ok(false)` means the id was not live.
    pub fn delete(&mut self, id: u32) -> Result<bool, ClientError> {
        write_frame(&mut self.stream, &proto::encode_delete(id)).map_err(ClientError::Proto)?;
        let ack = decode_ack(&read_frame(&mut self.stream).map_err(ClientError::Proto)?)
            .map_err(ClientError::Proto)?;
        match ack.status {
            Status::Ok => Ok(ack.value != 0),
            status => Err(ClientError::Rejected { status, message: ack.message }),
        }
    }
}

/// Client-side failure: transport/framing, or a served rejection.
#[derive(Debug)]
pub enum ClientError {
    /// Socket or framing problem.
    Proto(ProtoError),
    /// The server answered with a non-Ok status.
    Rejected {
        /// Which rejection.
        status: Status,
        /// Server-provided reason.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Proto(e) => write!(f, "{e}"),
            ClientError::Rejected { status, message } => {
                write!(f, "rejected ({status:?}): {message}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl ClientError {
    /// True when the server shed the request under load (retryable).
    pub fn is_overloaded(&self) -> bool {
        matches!(self, ClientError::Rejected { status: Status::Overloaded, .. })
    }
}
