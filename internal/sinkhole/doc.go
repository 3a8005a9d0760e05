// Package sinkhole implements the researchers' sinkhole mailserver.
// Paper-section map:
//
//   - §3.1 (architecture) and §3.4 (ethics): every honey account's
//     send-from address is the sinkhole's Sender, it accepts every
//     message a honey account sends, counts it, and never forwards
//     anything — so no spam or blackmail composed on a honey account
//     can reach a victim. Mail with another envelope sender escaped
//     that override; the sinkhole refuses it uncounted, so the
//     containment tests see it as a count below the journaled sends.
//   - §4.1: the captured outbound volume ("845 email messages sent"
//     in the paper) is the sinkhole's count.
//
// Store implements webmail.Outbound: the sharded engine gives each
// shard one Store, and examples/live-servers plugs one into a
// TCP-served webmail platform, so mail an attacker sends over the wire
// is counted the same way. No output reads a message's text, so the
// sinkhole keeps none.
package sinkhole
