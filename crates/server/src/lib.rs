//! # ids-server
//!
//! The network front-end: one [`ids_api::Database`], on any engine,
//! served over TCP with a CRC-framed, pipelined, typed wire protocol —
//! `std::net` only, no async runtime.  (`Server::serve` still takes the
//! database under its old name, [`ids_api::SharedDatabase`] — a `Deref`
//! shim; sessions run against the `&Database` inside.)
//!
//! The paper's Theorem 3 is what makes a *threaded* server the honest
//! architecture here: an independent schema means each relation is
//! maintained under its own lock with zero cross-relation coordination,
//! so all a network layer has to do is keep sockets fed — the database
//! itself already scales across connections.  Each connection is **one
//! thread running one loop**: block for a frame, take every further
//! frame already buffered, execute the first `queue_depth` of them
//! inline and shed the rest with typed [`wire::WireError::Overloaded`]
//! replies, append every reply — in request order — to one buffer, and
//! write it when the input is drained or it passes 64 KiB.
//!
//! What a client may rely on: replies arrive in request order; at most
//! `queue_depth` requests in flight are never shed; a peer that stops
//! reading its replies is stalled by TCP flow control and stalls only
//! itself, while the server's memory per connection stays bounded; and
//! a client dropping mid-batch can never wedge a server thread.
//!
//! * [`wire`] — the protocol: framing, message types, total decoding.
//! * [`Server`] — accept loop + one session loop per connection.
//!
//! The matching blocking client lives in the `ids-client` crate.

#![warn(missing_docs)]

mod server;
pub mod wire;

pub use server::{Server, ServerConfig};
