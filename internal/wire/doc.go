// Package wire is the one network layer the serving daemons share —
// webmaild and its router, and c3d. The paper's infrastructure watched
// the honey accounts through a live webmail service; the daemons that
// reproduce it keep only their own protocol logic and get the rest
// from here: the listener and accept loop, the set of live
// connections, the graceful-drain contract (docs/WIRE_PROTOCOL.md
// "Drain semantics"), and bounded newline framing — every request a
// server reads from a client is one frame of at most MaxFrame bytes.
package wire
