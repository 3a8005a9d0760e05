// Package sinkhole implements the researchers' sinkhole mailserver.
// Paper-section map:
//
//   - §3.1 (architecture) and §3.4 (ethics): every honey account's
//     send-from address points at the sinkhole, it accepts every
//     message a honey account sends, stores it, and never forwards
//     anything — so no spam or blackmail composed on a honey account
//     can reach a victim.
//   - §4.1: the captured outbound volume ("845 email messages sent"
//     in the paper) is read back from the sinkhole store.
//
// Store implements webmail.Outbound: the sharded engine gives each
// shard one Store, and examples/live-servers plugs one into a
// TCP-served webmail platform, so mail an attacker sends over the wire
// lands in the same archive.
package sinkhole
