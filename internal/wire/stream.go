// Streamed protocol variants: fetchstream and pushstream deliver large
// results as a sequence of bounded frames instead of one monolithic
// response, so neither side ever materializes the full result for the
// wire's sake.
//
// Response framing (every frame still respects MaxFrame):
//
//	<fetchstream doc="works" chunk="128"/> →
//	    <streamhead/>  <forest>…</forest>*  <streamend trees="N"/>
//	<pushstream chunk="128"><plan>…</plan><params>tab</params></pushstream> →
//	    <streamhead>tab(cols only)</streamhead>  <tab>…</tab>*  <streamend rows="N"/>
//
// The header frame arrives before the result is materialized, so the
// client's time-to-first-row tracks the wrapper's, not the transfer of the
// whole result. chunk caps the rows (trees) per frame. A traced streamend
// carries the obs-ns evaluation-time stamp like one-shot responses do. A
// mid-stream failure travels as an <error> frame that cleanly terminates
// the stream; the connection stays usable on both sides. Every Serve answers
// both forms for any source (fetches of a source without a native stream
// are framed from the one-shot result), so the client never falls back.
package wire

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/algebra"
	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/tab"
	"repro/internal/xmlenc"
)

// isStreamRequest is a cheap prefix test, so the one-frame request path
// never parses a frame twice.
func isStreamRequest(req string) bool {
	return strings.HasPrefix(req, "<fetchstream") || strings.HasPrefix(req, "<pushstream")
}

// streamChunkSize reads the request's chunk attribute; absent or
// non-positive values fall back to the default chunk.
func streamChunkSize(n *data.Node) int {
	if v := attr(n, "chunk"); v != "" {
		if c, err := strconv.Atoi(v); err == nil && c > 0 {
			return c
		}
	}
	return tab.DefaultStreamChunk
}

// streamWriter writes response frames under the server's write deadline and
// latches the first failure: once the client is gone, every further frame
// is a no-op and the handler tears the connection down.
type streamWriter struct {
	s    *Server
	conn net.Conn
	dead bool
}

func (w *streamWriter) frame(payload string) bool {
	if w.dead {
		return false
	}
	if w.s.write > 0 {
		w.conn.SetWriteDeadline(time.Now().Add(w.s.write))
	}
	if WriteFrame(w.conn, payload) != nil {
		w.dead = true
	}
	return !w.dead
}

// serveStream answers one fetchstream/pushstream request with a multi-frame
// response and reports whether the connection is still usable afterwards.
func (s *Server) serveStream(conn net.Conn, req string) bool {
	w := &streamWriter{s: s, conn: conn}
	n, err := xmlenc.Parse(req)
	if err != nil {
		w.frame(errorXML("bad request: %v", err))
		return !w.dead
	}
	if s.Exp.Obs == nil {
		s.streamAnswer(w, n, false)
		return !w.dead
	}
	// One span covers the whole stream, first frame to last.
	traceID := attr(n, "trace")
	sp := s.Exp.Obs.StartRequest(n.Label, traceID)
	rows, aerr := s.streamAnswer(w, n, traceID != "")
	s.Exp.Obs.EndRequest(sp, rows, aerr)
	return !w.dead
}

func (s *Server) streamAnswer(w *streamWriter, n *data.Node, traced bool) (rows int, err error) {
	switch n.Label {
	case "fetchstream":
		return s.streamFetch(w, n, traced)
	case "pushstream":
		return s.streamPush(w, n, traced)
	default:
		w.frame(errorXML("unknown request <%s>", n.Label))
		return -1, fmt.Errorf("unknown request <%s>", n.Label)
	}
}

func (s *Server) streamFetch(w *streamWriter, n *data.Node, traced bool) (int, error) {
	doc := attr(n, "doc")
	chunk := streamChunkSize(n)
	start := time.Now()
	var cur algebra.ForestCursor
	var err error
	if ss, ok := s.Exp.Source.(algebra.StreamSource); ok {
		cur, err = ss.FetchStream(context.Background(), doc)
	} else {
		// The source has no native streaming; materialize once server-side
		// and chunk the frames, so the wire and the client stay bounded.
		var forest data.Forest
		if forest, err = s.Exp.Source.Fetch(doc); err == nil {
			cur = algebra.NewSliceForestCursor(forest, chunk)
		}
	}
	if err != nil {
		w.frame(errorXML("fetch %s: %v", doc, err))
		return -1, err
	}
	defer cur.Close() // an abandoned client stops the source-side producer
	if !w.frame("<streamhead/>") {
		return -1, nil
	}
	trees := 0
	for {
		f, nerr := cur.Next()
		if nerr == io.EOF {
			break
		}
		if nerr != nil {
			w.frame(errorXML("fetch %s: %v", doc, nerr))
			return trees, nerr
		}
		for lo := 0; lo < len(f); lo += chunk {
			hi := lo + chunk
			if hi > len(f) {
				hi = len(f)
			}
			fr := data.Elem("forest")
			fr.Kids = append(fr.Kids, f[lo:hi]...)
			if !w.frame(xmlenc.Serialize(fr)) {
				return trees, nil
			}
			trees += hi - lo
		}
	}
	end := data.Elem("streamend")
	end.Add(data.Text("@trees", fmt.Sprint(trees)))
	if traced {
		obsStamp(end, time.Since(start))
	}
	w.frame(xmlenc.Serialize(end))
	return trees, nil
}

func (s *Server) streamPush(w *streamWriter, n *data.Node, traced bool) (int, error) {
	planNode := n.Child("plan")
	if planNode == nil {
		w.frame(errorXML("pushstream without plan"))
		return -1, errors.New("pushstream without plan")
	}
	plan, err := algebra.PlanFromXML(firstElem(planNode))
	if err != nil {
		w.frame(errorXML("pushstream plan: %v", err))
		return -1, err
	}
	params := map[string]tab.Cell{}
	if pn := n.Child("params"); pn != nil {
		if tn := firstElem(pn); tn != nil {
			pt, perr := tab.FromXML(tn)
			if perr != nil {
				w.frame(errorXML("pushstream params: %v", perr))
				return -1, perr
			}
			if pt.Len() > 0 {
				for i, c := range pt.Cols {
					params[c] = pt.Rows[0][i]
				}
			}
		}
	}
	chunk := streamChunkSize(n)
	start := time.Now()
	var cur tab.Cursor
	if ps, ok := s.Exp.Source.(algebra.PushStreamSource); ok {
		cur, err = ps.PushStream(context.Background(), plan, params)
	} else {
		// The source has no native streaming; evaluate once and chunk.
		var res *tab.Tab
		if res, err = s.Exp.Source.Push(plan, params); err == nil {
			cur = tab.NewSliceCursor(res, chunk)
		}
	}
	if err != nil {
		w.frame(errorXML("pushstream: %v", err))
		return -1, err
	}
	defer cur.Close()
	head := data.Elem("streamhead")
	head.Add(tab.ToXML(tab.New(cur.Cols()...)))
	if !w.frame(xmlenc.Serialize(head)) {
		return -1, nil
	}
	rows := 0
	for {
		t, nerr := cur.Next()
		if nerr == io.EOF {
			break
		}
		if nerr != nil {
			w.frame(errorXML("pushstream: %v", nerr))
			return rows, nerr
		}
		for lo := 0; lo < t.Len(); lo += chunk {
			hi := lo + chunk
			if hi > t.Len() {
				hi = t.Len()
			}
			part := &tab.Tab{Cols: t.Cols, Rows: t.Rows[lo:hi:hi]}
			if !w.frame(tab.Marshal(part)) {
				return rows, nil
			}
			rows += hi - lo
		}
	}
	end := data.Elem("streamend")
	end.Add(data.Text("@rows", fmt.Sprint(rows)))
	if traced {
		obsStamp(end, time.Since(start))
	}
	w.frame(xmlenc.Serialize(end))
	return rows, nil
}

// ---------------------------------------------------------------------------
// Client side.

// Compile-time: a remote wrapper client streams on both the fetch and the
// push path.
var (
	_ algebra.StreamSource     = (*Client)(nil)
	_ algebra.PushStreamSource = (*Client)(nil)
)

// clientStream is one in-flight multi-frame response. It pins its pooled
// connection for the stream's whole duration: a clean terminal frame
// (streamend, or a mid-stream <error>) re-pools it, while a transport
// failure or a mid-stream abandon discards it — unread chunk frames would
// poison the next request on that connection.
type clientStream struct {
	c         *Client
	conn      net.Conn
	cr        *countReader
	ctx       context.Context
	stopWatch func()
	head      *data.Node
	end       *data.Node
	done      bool
}

// startStream performs one open attempt: acquire a connection, arm a
// stream-lifetime cancellation watchdog, send the request and read the
// header frame. reused/got feed the caller's stale-connection redial.
func (c *Client) startStream(ctx context.Context, req string) (st *clientStream, reused bool, got int, err error) {
	conn, reused, err := c.acquire(ctx)
	if err != nil {
		return nil, reused, 0, err
	}
	if dl, ok := ctx.Deadline(); ok {
		conn.SetDeadline(dl)
	}
	// Unlike exchange's per-request watchdog, this one stays armed for the
	// whole stream: a cancellation mid-stream poisons the deadline and
	// unblocks the pending chunk read, so an abandoned stream cannot hang.
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
	var stopOnce sync.Once
	stop := func() {
		stopOnce.Do(func() {
			close(watchDone)
			<-watchExit
		})
	}
	cr := &countReader{r: conn}
	var first string
	if err = WriteFrame(conn, req); err == nil {
		first, err = ReadFrame(cr)
	}
	if err != nil {
		stop()
		c.discard(conn)
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, reused, cr.n, ctxErr
		}
		var ne net.Error
		if _, hasDeadline := ctx.Deadline(); hasDeadline && errors.As(err, &ne) && ne.Timeout() {
			return nil, reused, cr.n, context.DeadlineExceeded
		}
		return nil, reused, cr.n, err
	}
	n, perr := xmlenc.Parse(first)
	if perr != nil {
		stop()
		c.discard(conn)
		return nil, reused, cr.n, &CorruptError{Err: perr}
	}
	switch n.Label {
	case "error":
		// A clean single-frame refusal: exactly one response frame was
		// consumed, so the connection is reusable.
		stop()
		if ctxErr := ctx.Err(); ctxErr != nil {
			c.discard(conn)
			return nil, reused, cr.n, ctxErr
		}
		c.release(conn)
		return nil, reused, cr.n, &RemoteError{Msg: attr(n, "msg")}
	case "streamhead":
		return &clientStream{c: c, conn: conn, cr: cr, ctx: ctx, stopWatch: stop, head: n}, reused, cr.n, nil
	default:
		stop()
		c.discard(conn)
		return nil, reused, cr.n, fmt.Errorf("wire: unexpected stream header <%s>", n.Label)
	}
}

// openStream is startStream under the client's retry policy. Retrying is
// safe only before any payload frame was delivered, which is exactly the
// failure window startStream covers; mid-stream failures surface to the
// consumer instead. The stale-pooled-connection redial works as in
// roundTripCtx.
func (c *Client) openStream(ctx context.Context, req string) (*clientStream, error) {
	redialBudget := 1
	for attempt := 1; ; {
		st, reused, got, err := c.startStream(ctx, req)
		if err == nil {
			return st, nil
		}
		if !IsRetryable(err) {
			return nil, err
		}
		if reused && got == 0 && redialBudget > 0 {
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

// next reads one frame. It returns the chunk frame, or io.EOF after the
// terminal streamend (recorded in s.end), or the mid-stream failure.
func (s *clientStream) next() (*data.Node, error) {
	if s.done {
		return nil, io.EOF
	}
	raw, err := ReadFrame(s.cr)
	if err != nil {
		s.abort()
		if ctxErr := s.ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		var ne net.Error
		if _, hasDeadline := s.ctx.Deadline(); hasDeadline && errors.As(err, &ne) && ne.Timeout() {
			return nil, context.DeadlineExceeded
		}
		return nil, err
	}
	n, perr := xmlenc.Parse(raw)
	if perr != nil {
		s.abort()
		return nil, &CorruptError{Err: perr}
	}
	switch n.Label {
	case "error":
		// The server reported a mid-stream failure and is back at its
		// request loop; the error frame cleanly terminates the stream.
		s.finish(n)
		return nil, &RemoteError{Msg: attr(n, "msg")}
	case "streamend":
		s.finish(n)
		return nil, io.EOF
	}
	return n, nil
}

// finish ends the stream on a clean terminal frame: the wrapper-side
// evaluation time is folded into the caller's span and the connection is
// re-pooled (unless a cancellation raced the last read — the watchdog may
// have poisoned the conn's deadline, so it cannot be reused).
func (s *clientStream) finish(end *data.Node) {
	s.done = true
	s.end = end
	s.stopWatch()
	s.c.annotateWrapperTime(s.ctx, end)
	if s.ctx.Err() != nil {
		s.c.discard(s.conn)
		return
	}
	s.c.release(s.conn)
}

// abort tears the stream down mid-flight; the connection has unread or lost
// frames and is never re-pooled. Idempotent, also the abandon path (Close
// before EOF).
func (s *clientStream) abort() {
	if s.done {
		return
	}
	s.done = true
	s.stopWatch()
	s.c.discard(s.conn)
}

func (s *clientStream) close() error {
	s.abort()
	return nil
}

// FetchStream implements algebra.StreamSource: the document's trees arrive
// in bounded chunk frames.
func (c *Client) FetchStream(ctx context.Context, doc string) (algebra.ForestCursor, error) {
	req := data.Elem("fetchstream")
	req.Add(data.Text("@doc", doc))
	req.Add(data.Text("@chunk", fmt.Sprint(tab.DefaultStreamChunk)))
	if id := obs.TraceID(ctx); id != "" {
		req.Add(data.Text("@trace", id))
	}
	st, err := c.openStream(ctx, xmlenc.Serialize(req))
	if err != nil {
		return nil, err
	}
	return &wireForestCursor{st: st}, nil
}

type wireForestCursor struct {
	st *clientStream
}

func (c *wireForestCursor) Next() (data.Forest, error) {
	n, err := c.st.next()
	if err != nil {
		return nil, err
	}
	if n.Label != "forest" {
		c.st.abort()
		return nil, fmt.Errorf("wire: unexpected stream frame <%s>", n.Label)
	}
	// Same typing restoration as the one-shot fetch: XML carries atoms as
	// text; attribute kids of the frame root are metadata, not trees.
	out := make(data.Forest, 0, len(n.Kids))
	for _, k := range n.Kids {
		if strings.HasPrefix(k.Label, "@") {
			continue
		}
		out = append(out, xmlenc.InferAtoms(k))
	}
	return out, nil
}

func (c *wireForestCursor) Close() error { return c.st.close() }

// PushStream implements algebra.PushStreamSource: the pushed plan's result
// rows arrive in bounded chunk frames, headed by the column set before the
// first row is produced.
func (c *Client) PushStream(ctx context.Context, plan algebra.Op, params map[string]tab.Cell) (tab.Cursor, error) {
	enc, err := c.encodePlan(plan)
	if err != nil {
		return nil, err
	}
	var req strings.Builder
	fmt.Fprintf(&req, `<pushstream chunk="%d"`, tab.DefaultStreamChunk)
	if id := obs.TraceID(ctx); id != "" {
		fmt.Fprintf(&req, ` trace="%s"`, xmlenc.Escape(id))
	}
	req.WriteString("><plan>")
	req.WriteString(enc)
	req.WriteString("</plan>")
	appendParams(&req, params)
	req.WriteString("</pushstream>")
	st, err := c.openStream(ctx, req.String())
	if err != nil {
		return nil, err
	}
	ht := firstElem(st.head)
	if ht == nil {
		st.abort()
		return nil, fmt.Errorf("wire: stream header without column table")
	}
	cols, cerr := tab.FromXML(ht)
	if cerr != nil {
		st.abort()
		return nil, cerr
	}
	return &wireTabCursor{st: st, cols: cols.Cols}, nil
}

type wireTabCursor struct {
	st   *clientStream
	cols []string
}

func (c *wireTabCursor) Cols() []string { return append([]string(nil), c.cols...) }

func (c *wireTabCursor) Next() (*tab.Tab, error) {
	n, err := c.st.next()
	if err != nil {
		return nil, err
	}
	if n.Label != "tab" {
		c.st.abort()
		return nil, fmt.Errorf("wire: unexpected stream frame <%s>", n.Label)
	}
	t, terr := tab.FromXML(n)
	if terr != nil {
		c.st.abort()
		return nil, terr
	}
	return t, nil
}

func (c *wireTabCursor) Close() error { return c.st.close() }
