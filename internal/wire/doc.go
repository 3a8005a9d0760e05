// Package wire is the one network layer the serving daemons and their
// clients share — webmaild and its router, c3d, and the load
// generators that drive them. The paper's infrastructure watched the
// honey accounts through a live webmail service; the daemons that
// reproduce it keep only their own protocol logic and get the rest
// from here.
//
// The server half is the listener and accept loop, the set of live
// connections, the graceful-drain contract (docs/WIRE_PROTOCOL.md
// "Drain semantics"), and bounded newline framing — every request a
// server reads from a client is one frame of at most MaxFrame bytes.
//
// The client half is Client, one connection that sends a request frame
// and decodes its reply line, and Schedule, the due-time pacing both
// load generators (cmd/loadgen and c3d -replay) share, so a stalled
// reply shows in the latency of the requests queued behind it.
package wire
