package wire

import (
	"bytes"
	"encoding/json"
	"errors"
)

var errNotObject = errors.New("wire: frame is not one JSON object")

// Decode parses one request frame into v. A frame is exactly one JSON
// object followed by '\n'; anything else — an empty line, two objects,
// a bare value, half an object — is malformed, and the server drops the
// connection without a reply. The shards and the router share this one
// rule, so the router drops a frame for its framing exactly when a
// shard would.
func Decode(frame []byte, v any) error {
	if b := bytes.TrimLeft(frame, " \t\r\n"); len(b) == 0 || b[0] != '{' {
		return errNotObject
	}
	return json.Unmarshal(frame, v)
}

// ServeJSON serves the newline-JSON request/response protocol on c:
// each frame decodes into a fresh Req, handle answers it, and the
// answer goes back as one JSON line.
func ServeJSON[Req, Resp any](c *Conn, handle func(*Req) Resp) {
	enc := json.NewEncoder(c)
	c.Serve(func(frame []byte) bool {
		var req Req
		if Decode(frame, &req) != nil {
			return false
		}
		return enc.Encode(handle(&req)) == nil
	})
}
