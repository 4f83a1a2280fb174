package wire

import (
	"context"
	"errors"
	"io"
	"net"
	"testing"

	"repro/internal/algebra"
	"repro/internal/data"
	"repro/internal/filter"
	"repro/internal/tab"
	"repro/internal/xmlenc"
)

// drainForest pulls a forest cursor to exhaustion.
func drainForest(t *testing.T, cur algebra.ForestCursor) data.Forest {
	t.Helper()
	defer cur.Close()
	var out data.Forest
	for {
		f, err := cur.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, f...)
	}
}

func TestFetchStreamMatchesFetch(t *testing.T) {
	srv, ow := serveO2(t)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cur, err := c.FetchStream(context.Background(), "artifacts")
	if err != nil {
		t.Fatal(err)
	}
	streamed := drainForest(t, cur)
	local, err := ow.Fetch("artifacts")
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(local) {
		t.Fatalf("streamed %d trees, local %d", len(streamed), len(local))
	}
	if streamed[0].Label != "set" || len(streamed[0].Kids) != 3 {
		t.Errorf("streamed extent = %v", streamed[0])
	}
	// Server-side failures arrive as a clean error header.
	if _, err := c.FetchStream(context.Background(), "ghost"); err == nil {
		t.Error("stream fetch of unknown doc must fail")
	}
}

func TestPushStreamMatchesPush(t *testing.T) {
	srv, ow := serveO2(t)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	plan := &algebra.Select{
		From: &algebra.Bind{Doc: "artifacts",
			F: filter.MustParse(`set[ *class[ artifact.tuple[ title: $t, year: $y ] ] ]`)},
		Pred: algebra.MustParseExpr(`$y > 1800`),
	}
	cur, err := c.PushStream(context.Background(), plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := tab.Drain(cur)
	if err != nil {
		t.Fatal(err)
	}
	local, err := ow.Push(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !streamed.EqualUnordered(local) {
		t.Errorf("streamed:\n%s\nlocal:\n%s", streamed, local)
	}
	badPlan := &algebra.Bind{Doc: "artifacts",
		F: filter.MustParse(`set[ *class[ artifact.tuple[ ghost: $g ] ] ]`)}
	if _, err := c.PushStream(context.Background(), badPlan, nil); err == nil {
		t.Error("stream push of unsupported plan must fail")
	}
}

// streamProxy fronts a real wrapper server: one-shot requests are relayed
// frame for frame, stream requests are handed to onStream, so a test can
// script the stream side of the protocol.
type streamProxy struct {
	backend  string
	ln       net.Listener
	onStream func(conn net.Conn, req *data.Node)
}

func startStreamProxy(t *testing.T, backend string, onStream func(net.Conn, *data.Node)) *streamProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &streamProxy{backend: backend, ln: ln, onStream: onStream}
	go p.serve()
	t.Cleanup(func() { ln.Close() })
	return p
}

func (p *streamProxy) serve() {
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		go p.handle(conn)
	}
}

func (p *streamProxy) handle(conn net.Conn) {
	defer conn.Close()
	back, err := net.Dial("tcp", p.backend)
	if err != nil {
		return
	}
	defer back.Close()
	for {
		req, err := ReadFrame(conn)
		if err != nil {
			return
		}
		if isStreamRequest(req) {
			n, perr := xmlenc.Parse(req)
			if perr != nil {
				return
			}
			p.onStream(conn, n)
			continue
		}
		if WriteFrame(back, req) != nil {
			return
		}
		resp, err := ReadFrame(back)
		if err != nil {
			return
		}
		if WriteFrame(conn, resp) != nil {
			return
		}
	}
}

func TestMidStreamErrorTerminatesCleanly(t *testing.T) {
	// A wrapper failing mid-stream reports an <error> frame after payload
	// chunks: the consumer gets the typed remote error, and the client
	// survives to serve later one-shot traffic on the same pool.
	srv, _ := serveO2(t)
	proxy := startStreamProxy(t, srv.Addr(), func(conn net.Conn, req *data.Node) {
		if WriteFrame(conn, "<streamhead/>") != nil {
			return
		}
		f := data.Elem("forest")
		w := data.Elem("work")
		w.Add(data.Text("title", "Olympia"))
		f.Add(w)
		if WriteFrame(conn, xmlenc.Serialize(f)) != nil {
			return
		}
		WriteFrame(conn, errorXML("disk on fire"))
	})
	c, err := Dial(proxy.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cur, err := c.FetchStream(context.Background(), "artifacts")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	first, err := cur.Next()
	if err != nil || len(first) != 1 || first[0].Label != "work" {
		t.Fatalf("first batch = %v, %v; want the one work tree", first, err)
	}
	_, err = cur.Next()
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("mid-stream failure = %v, want RemoteError", err)
	}
	// The error frame is a clean terminal: the conn went back to the pool
	// and the next one-shot call reuses the intact protocol state.
	if _, err := c.Fetch("artifacts"); err != nil {
		t.Fatalf("one-shot fetch after mid-stream error: %v", err)
	}
}
