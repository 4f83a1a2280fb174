// Package wire implements the network protocol between wrappers and
// mediators (Figure 2): wrappers serve their structural metadata,
// capability interfaces, documents and pushed-query evaluation over TCP;
// the mediator side exposes a remote wrapper as an algebra.Source. For
// interoperability, every payload is XML (Section 2: "wrappers and
// mediators communicate data, structures and operations in XML"), framed
// by a 4-byte big-endian length prefix.
//
// Requests:
//
//	<hello/>                                  → <wrapper name=... docs=.../>
//	<interface-request/>                      → <interface .../>
//	<structures-request/>                     → <structures><model .../>*</structures>
//	<fetch doc="works"/>                      → <forest>trees</forest>
//	<push><plan>...</plan><params>tab</params></push> → <tab .../>
//	<pushbatch><plan>...</plan><bindings>tab</bindings></pushbatch> → <batch><tab/>*</batch>
//
// pushbatch is the set-at-a-time form of push (batched information
// passing): the plan ships once with one binding row per parameter set; the
// wrapper evaluates it per binding — natively when its source implements
// algebra.BatchSource, else by looping Push server-side — and answers with
// one <tab> per binding, in binding order, in a single round trip.
//
// fetchstream and pushstream are the streamed forms of fetch and push:
// the response is a sequence of frames — a <streamhead> header, bounded
// row/tree chunk frames, and a terminal <streamend> — instead of one
// monolithic frame, so a large result never materializes for the wire's
// sake. See stream.go for the frame grammar.
//
// Errors travel as <error msg="..."/>.
package wire

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algebra"
	"repro/internal/capability"
	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/tab"
	"repro/internal/xmlenc"
)

// MaxFrame bounds a single message (16 MiB); larger frames abort the
// connection rather than exhausting memory.
const MaxFrame = 16 << 20

// DefaultIdleTimeout bounds how long a server connection may sit between
// requests: a stalled or vanished client is disconnected instead of pinning
// its handler goroutine (and its slot in the accept loop's wait group)
// forever.
const DefaultIdleTimeout = 2 * time.Minute

// DefaultWriteTimeout bounds writing one response frame to a client that
// has stopped reading.
const DefaultWriteTimeout = 30 * time.Second

// DefaultMaxConns bounds the connection pool a Client grows on demand when
// the parallel execution engine issues overlapping requests.
const DefaultMaxConns = 8

// DefaultMaxServerConns bounds the connections one Server handles
// concurrently. Each accepted connection pins a handler goroutine for its
// lifetime, so without a bound one misbehaving client (or a mediator fleet
// sized beyond the wrapper) can exhaust the process; excess connections are
// refused with a structured <error> frame instead of being accepted and
// starved.
const DefaultMaxServerConns = 256

// ErrServerBusy is the message a server at its connection cap answers new
// connections with (as a RemoteError on the client side) before closing
// them. Clients treat RemoteError as proof of life — the refusal does not
// count against retry budgets or circuit breakers; a replica router routes
// around the busy wrapper instead.
const ErrServerBusy = "wrapper busy: connection limit reached"

// DefaultMaxConnIdle bounds how long a pooled connection may sit parked
// before the client drops it instead of reusing it. Servers disconnect
// idle clients (DefaultIdleTimeout), so a conn parked longer than the
// server's idle window has likely been hung up on already; reusing it
// yields a bare EOF on the next request. This bound must stay below the
// serving side's idle deadline.
const DefaultMaxConnIdle = time.Minute

// ErrClientClosed is returned for requests issued on a closed client —
// including requests racing Close that would otherwise fail with a
// confusing EOF from a just-closed pooled connection.
var ErrClientClosed = errors.New("wire: client closed")

// RemoteError is a server-reported <error> frame: the wrapper is alive,
// received the request and answered that it cannot serve it. Retrying
// cannot help, so RemoteError is never retried.
type RemoteError struct{ Msg string }

// Error implements error.
func (e *RemoteError) Error() string { return "wire: remote error: " + e.Msg }

// CorruptError marks a response frame that arrived whole but whose XML
// does not parse — a transport-level corruption (e.g. a garbling
// middlebox). The request is a read-only query, so the exchange is
// retryable like any other transport failure.
type CorruptError struct{ Err error }

// Error implements error.
func (e *CorruptError) Error() string { return fmt.Sprintf("wire: corrupt response: %v", e.Err) }

// Unwrap exposes the parse failure.
func (e *CorruptError) Unwrap() error { return e.Err }

// IsRetryable classifies an error from a wire exchange: true for
// transport-level failures — broken, reset or refused connections,
// connection timeouts not caused by the caller's context, truncated or
// corrupt frames — where retrying the idempotent request may succeed;
// false for semantic outcomes: a server-reported <error> (RemoteError), a
// closed client, or the caller's context expiring (its budget is spent,
// retrying would only overrun it further).
func IsRetryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if errors.Is(err, ErrClientClosed) {
		return false
	}
	var re *RemoteError
	if errors.As(err, &re) {
		return false
	}
	var ce *CorruptError
	if errors.As(err, &ce) {
		return true
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// RetryPolicy bounds the client's transparent retries. Every request the
// client issues (hello, fetch, push, pushbatch) is a read-only query,
// hence idempotent: re-sending a failed exchange cannot duplicate effects
// at the wrapper. Retries apply only to transport failures (IsRetryable);
// RemoteError and context cancellation return immediately.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per request including
	// the first; values <= 1 disable retrying.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; every further
	// retry doubles it, capped at MaxDelay.
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff.
	MaxDelay time.Duration
	// Jitter randomizes each backoff multiplicatively within
	// [1-Jitter, 1+Jitter], decorrelating the retry storms of concurrent
	// requests.
	Jitter float64
	// Seed seeds the jitter stream, making retry timing reproducible.
	Seed int64
}

// DefaultRetryPolicy is the policy installed by Dial/DialPool.
var DefaultRetryPolicy = RetryPolicy{
	MaxAttempts: 3,
	BaseDelay:   5 * time.Millisecond,
	MaxDelay:    250 * time.Millisecond,
	Jitter:      0.5,
	Seed:        1,
}

// backoff computes the wait before retry number `retry` (0-based): an
// exponentially grown BaseDelay capped at MaxDelay, jittered by rnd ∈ [0,1).
func (p RetryPolicy) backoff(retry int, rnd float64) time.Duration {
	d := p.BaseDelay
	if d <= 0 {
		d = DefaultRetryPolicy.BaseDelay
	}
	for i := 0; i < retry; i++ {
		d *= 2
		if p.MaxDelay > 0 && d >= p.MaxDelay {
			break
		}
	}
	if p.MaxDelay > 0 && d > p.MaxDelay {
		d = p.MaxDelay
	}
	if p.Jitter > 0 {
		d = time.Duration(float64(d) * (1 + p.Jitter*(2*rnd-1)))
	}
	if d < 0 {
		d = 0
	}
	return d
}

// WriteFrame writes one length-prefixed XML payload.
func WriteFrame(w io.Writer, payload string) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", len(payload))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := io.WriteString(w, payload)
	return err
}

// ReadFrame reads one length-prefixed XML payload.
func ReadFrame(r io.Reader) (string, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return "", err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return "", fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// Exported is everything a wrapper serves: the source itself, its
// capability interface and its structural models (document name → model and
// root pattern name).
type Exported struct {
	Source     algebra.Source
	Interface  *capability.Interface
	Structures map[string]StructureRef
	// Obs, when non-nil, records a span per handled request — carrying the
	// caller's trace id when the frame was tagged — and feeds per-request
	// counters and latency histograms into its registry (the wrapper's
	// -metrics-addr plane). Traced fetch/push/pushbatch responses are
	// additionally stamped with an obs-ns attribute, the wrapper-side
	// evaluation time, which the client folds back into the caller's span.
	Obs *obs.Observer
}

// StructureRef names a document's structural pattern within a model.
type StructureRef struct {
	Model   *pattern.Model
	Pattern string
}

// Server serves one wrapper over a listener.
type Server struct {
	Exp   Exported
	ln    net.Listener
	idle  time.Duration
	write time.Duration
	slots chan struct{} // one token per inflight connection handler
	wg    sync.WaitGroup
	mu    sync.Mutex
	err   error

	// refused counts connections turned away at the cap (observability for
	// tests and load experiments).
	refused atomic.Int64
}

// ServeOptions configure ServeOpts. The zero value gives the defaults of
// Serve: DefaultIdleTimeout, DefaultWriteTimeout, DefaultMaxServerConns.
type ServeOptions struct {
	// IdleTimeout bounds the wait for the next request on a connection;
	// negative disables the deadline.
	IdleTimeout time.Duration
	// WriteTimeout bounds sending one response frame; negative disables.
	WriteTimeout time.Duration
	// MaxConns bounds concurrently handled connections (0 =
	// DefaultMaxServerConns, negative = no bound). A connection beyond the
	// cap is answered with one <error> frame (ErrServerBusy) and closed —
	// refused cleanly rather than accepted and starved, so a client sees a
	// structured refusal instead of a hang.
	MaxConns int
}

// Serve starts serving on the listener with the default idle and write
// deadlines and returns immediately; call Close to stop. Each connection
// handles a sequence of requests.
func Serve(ln net.Listener, exp Exported) *Server {
	return ServeOpts(ln, exp, ServeOptions{})
}

// ServeWith is Serve with explicit connection deadlines: idle bounds the
// wait for the next request on a connection, write bounds sending one
// response. A zero duration disables the corresponding deadline.
func ServeWith(ln net.Listener, exp Exported, idle, write time.Duration) *Server {
	opts := ServeOptions{IdleTimeout: idle, WriteTimeout: write}
	if idle == 0 {
		opts.IdleTimeout = -1
	}
	if write == 0 {
		opts.WriteTimeout = -1
	}
	return ServeOpts(ln, exp, opts)
}

// ServeOpts is the fully configurable Serve.
func ServeOpts(ln net.Listener, exp Exported, opts ServeOptions) *Server {
	idle := opts.IdleTimeout
	if idle == 0 {
		idle = DefaultIdleTimeout
	} else if idle < 0 {
		idle = 0
	}
	write := opts.WriteTimeout
	if write == 0 {
		write = DefaultWriteTimeout
	} else if write < 0 {
		write = 0
	}
	maxConns := opts.MaxConns
	if maxConns == 0 {
		maxConns = DefaultMaxServerConns
	}
	s := &Server{Exp: exp, ln: ln, idle: idle, write: write}
	if maxConns > 0 {
		s.slots = make(chan struct{}, maxConns)
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			if s.slots != nil {
				select {
				case s.slots <- struct{}{}:
				default:
					// At the cap: refuse with a structured frame instead of
					// pinning another handler goroutine. The writer goroutine
					// is bounded by the write deadline, not by client
					// behaviour.
					s.refused.Add(1)
					s.wg.Add(1)
					go func() {
						defer s.wg.Done()
						defer conn.Close()
						if s.write > 0 {
							conn.SetWriteDeadline(time.Now().Add(s.write))
						}
						_ = WriteFrame(conn, errorXML("%s", ErrServerBusy))
					}()
					continue
				}
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer conn.Close()
				defer func() {
					if s.slots != nil {
						<-s.slots
					}
				}()
				s.handle(conn)
			}()
		}
	}()
	return s
}

// Refused reports how many connections the server turned away at its
// connection cap.
func (s *Server) Refused() int64 { return s.refused.Load() }

// Close stops the server and waits for in-flight connections.
func (s *Server) Close() {
	s.ln.Close()
	s.wg.Wait()
}

// Addr reports the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) handle(conn net.Conn) {
	for {
		if s.idle > 0 {
			conn.SetReadDeadline(time.Now().Add(s.idle))
		}
		req, err := ReadFrame(conn)
		if err != nil {
			return // connection closed or idle too long
		}
		if isStreamRequest(req) {
			// Multi-frame response: header, row chunks, terminal frame.
			if !s.serveStream(conn, req) {
				return // a frame write failed: the client is gone
			}
			continue
		}
		resp := s.respond(req)
		if s.write > 0 {
			conn.SetWriteDeadline(time.Now().Add(s.write))
		}
		if err := WriteFrame(conn, resp); err != nil {
			return
		}
	}
}

func errorXML(format string, args ...any) string {
	n := data.Elem("error")
	n.Add(data.Text("@msg", fmt.Sprintf(format, args...)))
	return xmlenc.Serialize(n)
}

func (s *Server) respond(req string) string {
	n, err := xmlenc.Parse(req)
	if err != nil {
		return errorXML("bad request: %v", err)
	}
	if s.Exp.Obs == nil {
		resp, _, _ := s.answer(n, false)
		return resp
	}
	// One span per handled request, carrying the caller's trace id when the
	// frame was tagged — the wrapper-side half of a distributed trace.
	traceID := attr(n, "trace")
	sp := s.Exp.Obs.StartRequest(n.Label, traceID)
	resp, rows, aerr := s.answer(n, traceID != "")
	s.Exp.Obs.EndRequest(sp, rows, aerr)
	return resp
}

// obsStamp attaches the wrapper-side evaluation time to a traced response
// root; the client folds it back into the calling operator's span.
func obsStamp(n *data.Node, elapsed time.Duration) {
	n.Add(data.Text("@obs-ns", fmt.Sprint(elapsed.Nanoseconds())))
}

// answer serves one parsed request. traced asks fetch/push/pushbatch
// responses to carry the obs-ns evaluation-time stamp. rows is the number
// of result rows shipped (-1 when the request has no tabular result) and
// err the failure reported to the client, both for the observer.
func (s *Server) answer(n *data.Node, traced bool) (resp string, rows int, err error) {
	switch n.Label {
	case "hello":
		resp := data.Elem("wrapper")
		resp.Add(data.Text("@name", s.Exp.Source.Name()))
		docs := ""
		for i, d := range s.Exp.Source.Documents() {
			if i > 0 {
				docs += " "
			}
			docs += d
		}
		resp.Add(data.Text("@docs", docs))
		return xmlenc.Serialize(resp), -1, nil
	case "interface-request":
		if s.Exp.Interface == nil {
			return errorXML("no interface exported"), -1, errors.New("no interface exported")
		}
		return xmlenc.Serialize(capability.ToXML(s.Exp.Interface)), -1, nil
	case "structures-request":
		resp := data.Elem("structures")
		for doc, ref := range s.Exp.Structures {
			entry := data.Elem("structure")
			entry.Add(data.Text("@doc", doc))
			entry.Add(data.Text("@pattern", ref.Pattern))
			entry.Add(pattern.ModelToXML(ref.Model))
			resp.Add(entry)
		}
		return xmlenc.Serialize(resp), -1, nil
	case "fetch":
		doc := attr(n, "doc")
		start := time.Now()
		forest, err := s.Exp.Source.Fetch(doc)
		if err != nil {
			return errorXML("fetch %s: %v", doc, err), -1, err
		}
		resp := data.Elem("forest")
		resp.Kids = append(resp.Kids, forest...)
		if traced {
			obsStamp(resp, time.Since(start))
		}
		return xmlenc.Serialize(resp), len(forest), nil
	case "push":
		planNode := n.Child("plan")
		if planNode == nil {
			return errorXML("push without plan"), -1, errors.New("push without plan")
		}
		plan, err := algebra.PlanFromXML(firstElem(planNode))
		if err != nil {
			return errorXML("push plan: %v", err), -1, err
		}
		params := map[string]tab.Cell{}
		if pn := n.Child("params"); pn != nil {
			if tn := firstElem(pn); tn != nil {
				pt, err := tab.FromXML(tn)
				if err != nil {
					return errorXML("push params: %v", err), -1, err
				}
				if pt.Len() > 0 {
					for i, c := range pt.Cols {
						params[c] = pt.Rows[0][i]
					}
				}
			}
		}
		start := time.Now()
		res, err := s.Exp.Source.Push(plan, params)
		if err != nil {
			return errorXML("push: %v", err), -1, err
		}
		if traced {
			tn := tab.ToXML(res)
			obsStamp(tn, time.Since(start))
			return xmlenc.Serialize(tn), res.Len(), nil
		}
		return tab.Marshal(res), res.Len(), nil
	case "pushbatch":
		planNode := n.Child("plan")
		if planNode == nil {
			return errorXML("pushbatch without plan"), -1, errors.New("pushbatch without plan")
		}
		plan, err := algebra.PlanFromXML(firstElem(planNode))
		if err != nil {
			return errorXML("pushbatch plan: %v", err), -1, err
		}
		bn := n.Child("bindings")
		if bn == nil {
			return errorXML("pushbatch without bindings"), -1, errors.New("pushbatch without bindings")
		}
		bt, err := tab.FromXML(firstElem(bn))
		if err != nil {
			return errorXML("pushbatch bindings: %v", err), -1, err
		}
		bindings := make([]map[string]tab.Cell, bt.Len())
		for i, r := range bt.Rows {
			m := make(map[string]tab.Cell, len(bt.Cols))
			for j, col := range bt.Cols {
				m[col] = r[j]
			}
			bindings[i] = m
		}
		start := time.Now()
		var res []*tab.Tab
		if bs, ok := s.Exp.Source.(algebra.BatchSource); ok {
			res, err = bs.PushBatch(plan, bindings)
			if err == nil && len(res) != len(bindings) {
				err = fmt.Errorf("source returned %d results for %d bindings", len(res), len(bindings))
			}
		} else {
			// The source has no native batch evaluation; looping here still
			// collapses the exchange to one round trip.
			res = make([]*tab.Tab, len(bindings))
			for i, b := range bindings {
				if res[i], err = s.Exp.Source.Push(plan, b); err != nil {
					err = fmt.Errorf("binding %d: %w", i, err)
					break
				}
			}
		}
		if err != nil {
			return errorXML("pushbatch: %v", err), -1, err
		}
		resp := data.Elem("batch")
		rows = 0
		for _, t := range res {
			rows += t.Len()
			resp.Add(tab.ToXML(t))
		}
		if traced {
			obsStamp(resp, time.Since(start))
		}
		return xmlenc.Serialize(resp), rows, nil
	default:
		return errorXML("unknown request <%s>", n.Label), -1, fmt.Errorf("unknown request <%s>", n.Label)
	}
}

func attr(n *data.Node, name string) string {
	if c := n.Child("@" + name); c != nil && c.Atom != nil {
		return c.Atom.S
	}
	return ""
}

func firstElem(n *data.Node) *data.Node {
	for _, k := range n.Kids {
		if len(k.Label) > 0 && k.Label[0] != '@' {
			return k
		}
	}
	return nil
}

// Client is the mediator-side proxy for a remote wrapper; it implements
// algebra.Source (and algebra.ContextSource) over a small pool of TCP
// connections. A serial caller reuses one connection; the parallel
// execution engine's overlapping requests grow the pool on demand up to its
// bound, so concurrent DJoin pushes really overlap at the wrapper instead
// of serializing on a single socket.
type Client struct {
	addr string
	name string
	docs []string

	// dial opens one new connection; Options.WrapConn (fault injection)
	// hooks it. maxIdle bounds how long a parked connection stays
	// reusable; retry is the transport retry policy.
	dial    func(ctx context.Context) (net.Conn, error)
	maxIdle time.Duration
	retry   RetryPolicy

	// retries and redials count transport-level retry work; the mediator
	// drains them into algebra.Stats after every source call (see
	// TakeRetryStats).
	retries atomic.Int64
	redials atomic.Int64

	// rng drives backoff jitter, deterministic under the policy's seed.
	rngMu sync.Mutex
	rng   *rand.Rand

	// tokens bounds in-flight requests: one token is held per request.
	tokens chan struct{}
	// idle parks connections between requests for reuse, stamped with the
	// park time so conns idle past maxIdle are dropped, not reused.
	idle chan pooled

	// encs memoizes canonical plan encodings by plan node, so a DJoin
	// pushing one inner plan many times (chunked batches, or the per-row
	// fallback) encodes it once instead of once per request.
	encMu sync.Mutex
	encs  map[algebra.Op]string

	mu     sync.Mutex
	conns  map[net.Conn]bool // every live connection, for Close
	closed bool
}

// planEncCacheSize bounds the per-client encoding memo; queries push a
// handful of distinct plans, so the bound exists only as a leak guard.
const planEncCacheSize = 128

func (c *Client) encodePlan(plan algebra.Op) (string, error) {
	c.encMu.Lock()
	if s, ok := c.encs[plan]; ok {
		c.encMu.Unlock()
		return s, nil
	}
	c.encMu.Unlock()
	n, err := algebra.PlanToXML(plan)
	if err != nil {
		return "", err
	}
	s := xmlenc.Serialize(n)
	c.encMu.Lock()
	if len(c.encs) >= planEncCacheSize {
		c.encs = make(map[algebra.Op]string) // plans die with their query: reset wholesale
	}
	c.encs[plan] = s
	c.encMu.Unlock()
	return s, nil
}

// pooled is a parked connection stamped with its park time.
type pooled struct {
	conn   net.Conn
	parked time.Time
}

// Dial connects to a wrapper with the default pool bound and performs the
// hello exchange.
func Dial(addr string) (*Client, error) { return DialPool(addr, DefaultMaxConns) }

// DialPool is Dial with an explicit connection-pool bound (minimum 1).
func DialPool(addr string, maxConns int) (*Client, error) {
	return DialPoolContext(context.Background(), addr, maxConns)
}

// DialPoolContext is DialPool under a cancellation context: both the TCP
// dial and the hello exchange respect the context's deadline, so startup
// against a black-holed or dead address fails when the deadline passes
// instead of hanging for the OS connect timeout.
func DialPoolContext(ctx context.Context, addr string, maxConns int) (*Client, error) {
	if maxConns < 1 {
		maxConns = 1
	}
	return DialWith(ctx, addr, Options{MaxConns: maxConns})
}

// Options configure DialWith.
type Options struct {
	// MaxConns bounds the connection pool (0 = DefaultMaxConns, minimum 1).
	MaxConns int
	// Retry overrides the transport retry policy; nil means
	// DefaultRetryPolicy, and a policy with MaxAttempts <= 1 disables
	// retrying.
	Retry *RetryPolicy
	// MaxConnIdle drops pooled connections parked longer than this
	// instead of reusing them (0 = DefaultMaxConnIdle, negative = no
	// bound). Keep it below the server's idle deadline.
	MaxConnIdle time.Duration
	// WrapConn, when non-nil, wraps every new connection — the fault
	// injection hook (see internal/faults).
	WrapConn func(net.Conn) net.Conn
}

// DialWith is the fully configurable dial: pool bound, retry policy,
// pooled-connection freshness bound and connection wrapping.
func DialWith(ctx context.Context, addr string, opts Options) (*Client, error) {
	maxConns := opts.MaxConns
	if maxConns == 0 {
		maxConns = DefaultMaxConns
	}
	if maxConns < 1 {
		maxConns = 1
	}
	retry := DefaultRetryPolicy
	if opts.Retry != nil {
		retry = *opts.Retry
	}
	maxIdle := opts.MaxConnIdle
	if maxIdle == 0 {
		maxIdle = DefaultMaxConnIdle
	}
	if maxIdle < 0 {
		maxIdle = 0 // explicit "no freshness bound"
	}
	c := &Client{
		addr:    addr,
		maxIdle: maxIdle,
		retry:   retry,
		rng:     rand.New(rand.NewSource(retry.Seed)),
		tokens:  make(chan struct{}, maxConns),
		idle:    make(chan pooled, maxConns),
		encs:    map[algebra.Op]string{},
		conns:   map[net.Conn]bool{},
	}
	wrap := opts.WrapConn
	c.dial = func(ctx context.Context) (net.Conn, error) {
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, err
		}
		if wrap != nil {
			conn = wrap(conn)
		}
		return conn, nil
	}
	resp, err := c.roundTripCtx(ctx, `<hello/>`)
	if err != nil {
		c.Close()
		return nil, err
	}
	c.name = attr(resp, "name")
	if d := attr(resp, "docs"); d != "" {
		c.docs = splitSpace(d)
	}
	return c, nil
}

// TakeRetryStats drains and returns the transport retry counters
// accumulated since the last call: retries are backed-off re-attempts of
// failed exchanges, redials the transparent redials of stale pooled
// connections. Implements algebra.RetryReporter, so evaluation folds these
// into Stats after every source call without double-counting pushes.
func (c *Client) TakeRetryStats() (retries, redials int) {
	return int(c.retries.Swap(0)), int(c.redials.Swap(0))
}

// acquire obtains a connection for one request: it waits for an in-flight
// slot (or context cancellation), then reuses a parked connection that is
// still fresh, or dials a new one. reused tells the caller the connection
// may have been closed by the server while parked (the stale-connection
// redial in roundTripCtx).
func (c *Client) acquire(ctx context.Context) (conn net.Conn, reused bool, err error) {
	select {
	case c.tokens <- struct{}{}:
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
	for {
		var p pooled
		select {
		case p = <-c.idle:
		default:
		}
		if p.conn == nil {
			break
		}
		// A request racing Close must get the explicit closed error on
		// the idle-reuse path too, not a confusing EOF from the conn
		// Close just closed under us.
		c.mu.Lock()
		closed := c.closed
		c.mu.Unlock()
		if closed {
			c.drop(p.conn)
			<-c.tokens
			return nil, false, ErrClientClosed
		}
		// A conn parked past the freshness bound has likely been hung up
		// on by the server's idle deadline; drop it and keep draining.
		if c.maxIdle > 0 && time.Since(p.parked) > c.maxIdle {
			c.drop(p.conn)
			continue
		}
		return p.conn, true, nil
	}
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		<-c.tokens
		return nil, false, ErrClientClosed
	}
	nc, err := c.dial(ctx)
	if err != nil {
		<-c.tokens
		return nil, false, err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		nc.Close()
		<-c.tokens
		return nil, false, ErrClientClosed
	}
	c.conns[nc] = true
	c.mu.Unlock()
	return nc, false, nil
}

// release parks a healthy connection for reuse and frees its slot.
func (c *Client) release(conn net.Conn) {
	conn.SetDeadline(time.Time{})
	select {
	case c.idle <- pooled{conn: conn, parked: time.Now()}:
	default: // cannot happen: idle capacity equals the slot count
		c.drop(conn)
	}
	<-c.tokens
}

// discard closes a connection whose request failed and frees its slot.
func (c *Client) discard(conn net.Conn) {
	c.drop(conn)
	<-c.tokens
}

func (c *Client) drop(conn net.Conn) {
	conn.Close()
	c.mu.Lock()
	delete(c.conns, conn)
	c.mu.Unlock()
}

func splitSpace(s string) []string {
	var out []string
	start := -1
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ' ' {
			if start >= 0 {
				out = append(out, s[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	return out
}

// Close closes every pooled connection; in-flight requests fail.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	var err error
	for conn := range c.conns {
		if e := conn.Close(); e != nil && err == nil {
			err = e
		}
	}
	c.conns = map[net.Conn]bool{}
	c.mu.Unlock()
	for {
		select {
		case <-c.idle: // already closed above; just unpark
		default:
			return err
		}
	}
}

func (c *Client) roundTrip(req string) (*data.Node, error) {
	return c.roundTripCtx(context.Background(), req)
}

// countReader counts the bytes delivered through it: the stale-connection
// redial must know whether any response byte had arrived when an exchange
// failed.
type countReader struct {
	r io.Reader
	n int
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// exchange performs one request/response attempt under a cancellation
// context: the context's deadline becomes the connection deadline, and a
// cancellation unblocks any pending read immediately, so a dead wrapper
// cannot hang a query. It reports whether the connection came reused from
// the idle pool and how many response bytes had arrived when the exchange
// failed — a reused conn failing with zero response bytes is the
// stale-connection signature.
func (c *Client) exchange(ctx context.Context, req string) (resp string, reused bool, got int, err error) {
	conn, reused, err := c.acquire(ctx)
	if err != nil {
		return "", reused, 0, err
	}
	if dl, ok := ctx.Deadline(); ok {
		conn.SetDeadline(dl)
	}
	watchDone := make(chan struct{})
	watchExit := make(chan struct{})
	if ctx.Done() != nil {
		go func() {
			defer close(watchExit)
			select {
			case <-ctx.Done():
				conn.SetDeadline(time.Unix(1, 0)) // in the past: fail pending I/O now
			case <-watchDone:
			}
		}()
	} else {
		close(watchExit)
	}
	cr := &countReader{r: conn}
	if err = WriteFrame(conn, req); err == nil {
		resp, err = ReadFrame(cr)
	}
	close(watchDone)
	// Join the watchdog before deciding the connection's fate: a
	// late-scheduled watchdog that sees the cancellation after the exchange
	// completed would otherwise poison the deadline of a connection already
	// parked in the pool — or already acquired by an unrelated request,
	// failing it spuriously and churning its slot.
	<-watchExit
	if err == nil && ctx.Err() != nil {
		// The exchange raced a cancellation; the watchdog may have poisoned
		// the connection's deadline, so don't reuse it.
		err = ctx.Err()
	}
	if err != nil {
		c.discard(conn)
		if ctxErr := ctx.Err(); ctxErr != nil {
			return "", reused, cr.n, ctxErr
		}
		// The connection deadline came from the context; it can fire a tick
		// before the context's own timer does.
		var ne net.Error
		if _, hasDeadline := ctx.Deadline(); hasDeadline && errors.As(err, &ne) && ne.Timeout() {
			return "", reused, cr.n, context.DeadlineExceeded
		}
		return "", reused, cr.n, err
	}
	c.release(conn)
	return resp, reused, cr.n, nil
}

// jitterRand draws one jitter sample from the client's seeded stream.
func (c *Client) jitterRand() float64 {
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return c.rng.Float64()
}

// roundTripCtx performs one request/response exchange under a cancellation
// context, transparently retrying transport failures: every request the
// client sends is a read-only query (hello, fetch, push, pushbatch), hence
// idempotent. Retry k waits BaseDelay·2^(k-1), jittered and capped at
// MaxDelay, and gives up early when the context's remaining budget cannot
// cover the wait. Only transport-class failures retry (IsRetryable);
// server <error> frames and context cancellation return immediately.
//
// One failure mode is handled without burning a retry attempt: a pooled
// connection reused after an idle gap may have been closed by the server's
// idle deadline, in which case the first request on it fails before any
// response byte arrives. That exchange redials-and-retries once
// immediately (counted in redials, not retries).
func (c *Client) roundTripCtx(ctx context.Context, req string) (*data.Node, error) {
	redialBudget := 1
	for attempt := 1; ; {
		resp, reused, got, err := c.exchange(ctx, req)
		if err == nil {
			n, perr := xmlenc.Parse(resp)
			if perr == nil {
				if n.Label == "error" {
					return nil, &RemoteError{Msg: attr(n, "msg")}
				}
				return n, nil
			}
			// The frame arrived whole but its XML is broken: transport
			// corruption, retryable like any other transport failure.
			err = &CorruptError{Err: perr}
		}
		if !IsRetryable(err) {
			return nil, err
		}
		if reused && got == 0 && redialBudget > 0 {
			// Stale pooled connection: the server hung up while the conn
			// was parked and the request never got an answer started.
			// Redial immediately, once, without consuming a retry.
			redialBudget--
			c.redials.Add(1)
			continue
		}
		if attempt >= c.retry.MaxAttempts {
			return nil, err
		}
		d := c.retry.backoff(attempt-1, c.jitterRand())
		if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= d {
			return nil, err // the context budget cannot cover the wait
		}
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		attempt++
		c.retries.Add(1)
	}
}

// Name implements algebra.Source.
func (c *Client) Name() string { return c.name }

// Addr reports the wrapper address the client dials — replica routing and
// deployment tooling use it to label otherwise same-named replicas.
func (c *Client) Addr() string { return c.addr }

// Documents implements algebra.Source.
func (c *Client) Documents() []string { return append([]string(nil), c.docs...) }

// Fetch implements algebra.Source.
func (c *Client) Fetch(doc string) (data.Forest, error) {
	return c.FetchContext(context.Background(), doc)
}

// FetchContext implements algebra.ContextSource: Fetch under a cancellation
// context. When the context carries a trace span (obs.WithSpan), the frame
// is tagged with the trace id so the wrapper's request span joins the
// caller's trace, and the wrapper-side evaluation time comes back as an
// annotation.
func (c *Client) FetchContext(ctx context.Context, doc string) (data.Forest, error) {
	req := data.Elem("fetch")
	req.Add(data.Text("@doc", doc))
	if id := obs.TraceID(ctx); id != "" {
		req.Add(data.Text("@trace", id))
	}
	resp, err := c.roundTripCtx(ctx, xmlenc.Serialize(req))
	if err != nil {
		return nil, err
	}
	if resp.Label != "forest" {
		return nil, fmt.Errorf("wire: unexpected response <%s>", resp.Label)
	}
	c.annotateWrapperTime(ctx, resp)
	// XML carries atoms as text; restore numeric/boolean typing so that
	// mediator-side predicates (e.g. $y > 1800) behave as they do against
	// an in-process wrapper. Attribute children of the response root (the
	// obs-ns stamp) are frame metadata, not trees of the forest.
	out := make(data.Forest, 0, len(resp.Kids))
	for _, n := range resp.Kids {
		if strings.HasPrefix(n.Label, "@") {
			continue
		}
		out = append(out, xmlenc.InferAtoms(n))
	}
	return out, nil
}

// appendParams writes the single-row parameter table shared by push and
// pushstream requests.
func appendParams(req *strings.Builder, params map[string]tab.Cell) {
	if len(params) == 0 {
		return
	}
	cols := make([]string, 0, len(params))
	for k := range params {
		cols = append(cols, k)
	}
	sort.Strings(cols)
	pt := tab.New(cols...)
	row := make(tab.Row, len(cols))
	for i, k := range cols {
		row[i] = params[k]
	}
	pt.AddRow(row)
	req.WriteString("<params>")
	req.WriteString(tab.Marshal(pt))
	req.WriteString("</params>")
}

// annotateWrapperTime folds a traced response's wrapper-side evaluation
// time (the obs-ns stamp) into the calling operator's span.
func (c *Client) annotateWrapperTime(ctx context.Context, resp *data.Node) {
	sp := obs.SpanFrom(ctx)
	if sp == nil {
		return
	}
	if v := attr(resp, "obs-ns"); v != "" {
		sp.Annotate("wrapper_ns", v)
	}
}

// Push implements algebra.Source.
func (c *Client) Push(plan algebra.Op, params map[string]tab.Cell) (*tab.Tab, error) {
	return c.PushContext(context.Background(), plan, params)
}

// PushContext implements algebra.ContextSource: Push under a cancellation
// context. The plan's canonical encoding comes from the per-client memo, so
// repeated pushes of one plan (a DJoin's per-row fallback) encode it once.
func (c *Client) PushContext(ctx context.Context, plan algebra.Op, params map[string]tab.Cell) (*tab.Tab, error) {
	enc, err := c.encodePlan(plan)
	if err != nil {
		return nil, err
	}
	var req strings.Builder
	if id := obs.TraceID(ctx); id != "" {
		fmt.Fprintf(&req, `<push trace="%s"><plan>`, xmlenc.Escape(id))
	} else {
		req.WriteString("<push><plan>")
	}
	req.WriteString(enc)
	req.WriteString("</plan>")
	appendParams(&req, params)
	req.WriteString("</push>")
	resp, err := c.roundTripCtx(ctx, req.String())
	if err != nil {
		return nil, err
	}
	c.annotateWrapperTime(ctx, resp)
	return tab.FromXML(resp)
}

// PushBatch implements algebra.BatchSource.
func (c *Client) PushBatch(plan algebra.Op, bindings []map[string]tab.Cell) ([]*tab.Tab, error) {
	return c.PushBatchContext(context.Background(), plan, bindings)
}

// PushBatchContext implements algebra.BatchSource: the plan ships once with
// one binding row per parameter set, and the wrapper answers with an
// indexed result set — all in a single round trip. A variable absent from
// some bindings (hand-rolled calls only; DJoin batches bind uniformly)
// ships as an explicit null.
func (c *Client) PushBatchContext(ctx context.Context, plan algebra.Op, bindings []map[string]tab.Cell) ([]*tab.Tab, error) {
	if len(bindings) == 0 {
		return nil, nil
	}
	enc, err := c.encodePlan(plan)
	if err != nil {
		return nil, err
	}
	colSet := map[string]bool{}
	for _, b := range bindings {
		for k := range b {
			colSet[k] = true
		}
	}
	cols := make([]string, 0, len(colSet))
	for k := range colSet {
		cols = append(cols, k)
	}
	sort.Strings(cols)
	bt := tab.New(cols...)
	for _, b := range bindings {
		row := make(tab.Row, len(cols))
		for i, k := range cols {
			if cell, ok := b[k]; ok {
				row[i] = cell
			} else {
				row[i] = tab.Null()
			}
		}
		bt.AddRow(row)
	}
	var req strings.Builder
	if id := obs.TraceID(ctx); id != "" {
		fmt.Fprintf(&req, `<pushbatch trace="%s"><plan>`, xmlenc.Escape(id))
	} else {
		req.WriteString("<pushbatch><plan>")
	}
	req.WriteString(enc)
	req.WriteString("</plan><bindings>")
	req.WriteString(tab.Marshal(bt))
	req.WriteString("</bindings></pushbatch>")
	resp, err := c.roundTripCtx(ctx, req.String())
	if err != nil {
		return nil, err
	}
	if resp.Label != "batch" {
		return nil, fmt.Errorf("wire: unexpected response <%s>", resp.Label)
	}
	c.annotateWrapperTime(ctx, resp)
	out := make([]*tab.Tab, 0, len(bindings))
	for _, k := range resp.Kids {
		if k.Label != "tab" {
			continue
		}
		t, err := tab.FromXML(k)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	if len(out) != len(bindings) {
		return nil, fmt.Errorf("wire: batch of %d results for %d bindings", len(out), len(bindings))
	}
	return out, nil
}

// ImportInterface fetches the wrapper's capability interface. Transport
// and remote errors pass through unwrapped (a RemoteError means the source
// legitimately exports no interface); a malformed description fails with
// the source named, so a bad export is diagnosed at import time.
func (c *Client) ImportInterface() (*capability.Interface, error) {
	resp, err := c.roundTrip(`<interface-request/>`)
	if err != nil {
		return nil, err
	}
	iface, err := capability.FromXML(resp)
	if err != nil {
		return nil, fmt.Errorf("wire: source %s at %s: malformed interface description: %w", c.name, c.addr, err)
	}
	return iface, nil
}

// ImportStructures fetches the wrapper's structural models.
func (c *Client) ImportStructures() (map[string]StructureRef, error) {
	resp, err := c.roundTrip(`<structures-request/>`)
	if err != nil {
		return nil, err
	}
	out := map[string]StructureRef{}
	for _, k := range resp.Kids {
		if k.Label != "structure" {
			continue
		}
		me := k.Child("model")
		if me == nil {
			return nil, fmt.Errorf("wire: structure without model")
		}
		m, err := pattern.ModelFromXML(me)
		if err != nil {
			return nil, err
		}
		out[attr(k, "doc")] = StructureRef{Model: m, Pattern: attr(k, "pattern")}
	}
	return out, nil
}
