package webmail

import (
	"context"
	"errors"
	"fmt"
	"net/netip"

	"repro/internal/netsim"
	"repro/internal/wire"
)

// Wire protocol: newline-delimited JSON over TCP. Each request names
// an op; LOGIN binds the connection to a session, after which mailbox
// ops operate on that session. One connection == one browser tab.
//
// The simulation drives the service in-process for speed; cmd/webmaild
// and the live-servers example drive it over this protocol to show the
// platform is a real network service.

// Request is one client command.
type Request struct {
	Op       string `json:"op"`
	Account  string `json:"account,omitempty"`
	Password string `json:"password,omitempty"`
	Cookie   string `json:"cookie,omitempty"`
	// Origin is the claimed client identity; a production service
	// would derive these from the connection. City may be empty for
	// anonymised clients.
	IP        string  `json:"ip,omitempty"`
	City      string  `json:"city,omitempty"`
	Country   string  `json:"country,omitempty"`
	Lat       float64 `json:"lat,omitempty"`
	Lon       float64 `json:"lon,omitempty"`
	Tor       bool    `json:"tor,omitempty"`
	Proxy     bool    `json:"proxy,omitempty"`
	UserAgent string  `json:"user_agent,omitempty"`

	Folder string    `json:"folder,omitempty"`
	ID     MessageID `json:"id,omitempty"`
	// Limit bounds a list response to the newest N messages (0 = the
	// whole folder). Live clients set it so one response cannot grow
	// with mailbox size — part of the serving path's bounded-work
	// contract.
	Limit   int    `json:"limit,omitempty"`
	To      string `json:"to,omitempty"`
	Subject string `json:"subject,omitempty"`
	Body    string `json:"body,omitempty"`
	Query   string `json:"query,omitempty"`
}

// Response is the server's reply.
type Response struct {
	OK       bool      `json:"ok"`
	Error    string    `json:"error,omitempty"`
	Cookie   string    `json:"cookie,omitempty"`
	ID       MessageID `json:"id,omitempty"`
	Messages []Message `json:"messages,omitempty"`
	Message  *Message  `json:"message,omitempty"`
	Accesses []Access  `json:"accesses,omitempty"`
}

// Server exposes a Service over TCP. Listen, Close and Drain come from
// the shared wire layer; each connection runs one browser session.
type Server struct {
	*wire.Server
	svc *Service
}

// NewServer wraps a service.
func NewServer(svc *Service) *Server {
	s := &Server{svc: svc}
	s.Server = wire.NewServer("webmail", s.serveConn)
	return s
}

func (s *Server) serveConn(c *wire.Conn) {
	var session *Session
	wire.ServeJSON(c, func(req *Request) Response { return s.handle(&session, req) })
}

// handle executes one request against the bound session.
func (s *Server) handle(session **Session, req *Request) Response {
	fail := func(err error) Response { return Response{Error: err.Error()} }
	if req.Op != "login" && *session == nil {
		return fail(errors.New("webmail: not logged in"))
	}
	switch req.Op {
	case "login":
		ep, err := endpointFromRequest(req)
		if err != nil {
			return fail(err)
		}
		se, err := s.svc.Login(req.Account, req.Password, req.Cookie, ep)
		if err != nil {
			return fail(err)
		}
		*session = se
		return Response{OK: true, Cookie: se.Cookie()}
	case "list":
		msgs, err := (*session).ListN(Folder(req.Folder), req.Limit)
		if err != nil {
			return fail(err)
		}
		return Response{OK: true, Messages: msgs}
	case "read":
		m, err := (*session).Read(req.ID)
		if err != nil {
			return fail(err)
		}
		return Response{OK: true, Message: &m}
	case "star":
		if err := (*session).Star(req.ID); err != nil {
			return fail(err)
		}
		return Response{OK: true}
	case "search":
		msgs, err := (*session).Search(req.Query)
		if err != nil {
			return fail(err)
		}
		return Response{OK: true, Messages: msgs}
	case "draft":
		id, err := (*session).CreateDraft(req.To, req.Subject, req.Body)
		if err != nil {
			return fail(err)
		}
		return Response{OK: true, ID: id}
	case "send":
		id, err := (*session).Send(req.To, req.Subject, req.Body)
		if err != nil {
			return fail(err)
		}
		return Response{OK: true, ID: id}
	case "chpass":
		if err := (*session).ChangePassword(req.Password); err != nil {
			return fail(err)
		}
		return Response{OK: true}
	case "activity":
		acc, err := (*session).ActivityPage()
		if err != nil {
			return fail(err)
		}
		return Response{OK: true, Accesses: acc}
	case "delete":
		if err := (*session).Delete(req.ID); err != nil {
			return fail(err)
		}
		return Response{OK: true}
	default:
		return fail(fmt.Errorf("webmail: unknown op %q", req.Op))
	}
}

func endpointFromRequest(req *Request) (netsim.Endpoint, error) {
	addr, err := netip.ParseAddr(req.IP)
	if err != nil {
		return netsim.Endpoint{}, fmt.Errorf("webmail: bad ip %q: %w", req.IP, err)
	}
	ep := netsim.Endpoint{
		Addr:      addr,
		City:      req.City,
		Country:   req.Country,
		Tor:       req.Tor,
		Proxy:     req.Proxy,
		UserAgent: req.UserAgent,
	}
	ep.Point.Lat, ep.Point.Lon = req.Lat, req.Lon
	return ep, nil
}

// Client is the webmail wire client: one connection is one browser
// tab with one cookie.
type Client = wire.Client[Request, Response]

// Dial connects to a webmail shard or the fleet router.
func Dial(ctx context.Context, addr string) (*Client, error) {
	return wire.Dial[Request, Response](ctx, addr)
}

// LoginRequest builds the login request that presents the endpoint's
// identity.
func LoginRequest(account, password, cookie string, ep netsim.Endpoint) Request {
	return Request{
		Op: "login", Account: account, Password: password, Cookie: cookie,
		IP: ep.Addr.String(), City: ep.City, Country: ep.Country,
		Lat: ep.Point.Lat, Lon: ep.Point.Lon,
		Tor: ep.Tor, Proxy: ep.Proxy, UserAgent: ep.UserAgent,
	}
}
