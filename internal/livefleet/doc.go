// Package livefleet runs the webmail platform as a horizontally
// sharded network service: it boots each shard's account store from a
// streaming snapshot (the snapshot is the state-distribution wire
// format), fronts the shards with a partition-aware router that pools
// backend connections and applies per-connection backpressure, and
// generates deterministic attacker-shaped load against the fleet over
// real sockets. The byte-identity contract — a scripted session
// produces the same journal and activity rows whether it drives the
// in-process webmail.Service or a socket-connected shard — is what
// lets every in-process result in this repo stand in for the live
// system (see parity_test.go).
package livefleet
