package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// sessions is the closed loop's client count, spread over as many tenant
// ids; each session waits for its reply before sending the next query.
const sessions = 2

// outcome is one request as the client saw it.
type outcome struct {
	latency  time.Duration // POST sent to terminal line read
	firstRow time.Duration // POST sent to first row line read; 0 without rows
	rows     int
	bytes    int
	fail     string // "" for a correct answer, else the failure class
	sent     time.Time
	done     time.Time // the terminal line read, or the failure seen
}

// client sends queries to one front door over at most `sessions` HTTP
// connections.
type client struct {
	url  string
	http *http.Client
	want map[string]*expected
}

func newClient(addr string, want map[string]*expected) *client {
	return &client{
		url: "http://" + addr + "/query",
		http: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     sessions,
			MaxIdleConnsPerHost: sessions,
			DisableCompression:  true,
		}},
		want: want,
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// doneLine is the terminal line of a successful answer.
type doneLine struct {
	Done bool `json:"done"`
	Rows int  `json:"rows"`
}

// query sends one query for tenant and checks the streamed answer against
// the oracle.
func (c *client) query(ctx context.Context, tenant, q string) outcome {
	body, err := json.Marshal(map[string]string{"query": q})
	if err != nil {
		return outcome{fail: "encode"}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		return outcome{fail: "request"}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", tenant)
	start := time.Now()
	o := c.do(req, start, q)
	o.sent, o.done = start, time.Now()
	return o
}

// do sends the request and reads its answer.
func (c *client) do(req *http.Request, start time.Time, q string) outcome {
	resp, err := c.http.Do(req)
	if err != nil {
		return outcome{fail: "transport"}
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		_, _ = io.Copy(io.Discard, resp.Body)
		return outcome{fail: "shed"}
	}
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return outcome{fail: fmt.Sprintf("http_%d", resp.StatusCode)}
	}
	return readAnswer(bufio.NewReaderSize(resp.Body, 64<<10), start, c.want[q])
}

// readAnswer reads one streamed NDJSON answer — the columns line, row
// lines, then the terminal line — and checks the rows against want (nil:
// no expected answer, so any answer is wrong).
func readAnswer(br *bufio.Reader, start time.Time, want *expected) outcome {
	var o outcome
	var rows []string
	header := true
	for {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			// A row longer than the buffer: gather it whole.
			rest, rerr := br.ReadBytes('\n')
			line, err = append(append([]byte(nil), line...), rest...), rerr
		}
		o.bytes += len(line)
		if err != nil {
			if err == io.EOF {
				o.fail = "truncated"
			} else {
				o.fail = "transport"
			}
			return o
		}
		line = bytes.TrimSuffix(line, []byte("\n"))
		switch {
		case header:
			header = false // the {"cols":[...]} line
		case bytes.HasPrefix(line, []byte(`{"row":`)):
			if o.rows == 0 {
				o.firstRow = time.Since(start)
			}
			o.rows++
			rows = append(rows, string(line))
		default:
			o.latency = time.Since(start)
			var d doneLine
			if err := json.Unmarshal(line, &d); err != nil || !d.Done {
				o.fail = "error_line"
				return o
			}
			if want == nil || d.Rows != o.rows || !want.matches(rows) {
				o.fail = "wrong_answer"
			}
			return o
		}
	}
}

// after returns a channel that closes once d has passed.
func after(d time.Duration) <-chan struct{} {
	ch := make(chan struct{})
	time.AfterFunc(d, func() { close(ch) })
	return ch
}

// loadResult is a closed-loop run's tally.
type loadResult struct {
	outcomes []outcome
	elapsed  time.Duration // first send to last reply
	texts    []string      // query text of each outcome, in send order
}

// closedLoop runs `sessions` sessions until stop closes, each sending the
// next query of seq only after the previous reply ended. Sessions draw
// from one shared cursor over seq, starting at from.
func closedLoop(ctx context.Context, c *client, seq []string, from int, stop <-chan struct{}) loadResult {
	var next atomic.Int64
	next.Store(int64(from))
	type sent struct {
		idx int64
		o   outcome
	}
	per := make([][]sent, sessions)
	start := time.Now()
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return ctx.Err() != nil
		}
	}
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant-%d", s)
			for !stopped() {
				i := next.Add(1) - 1
				per[s] = append(per[s], sent{i, c.query(ctx, tenant, seq[i%int64(len(seq))])})
			}
		}(s)
	}
	wg.Wait()
	res := loadResult{elapsed: time.Since(start)}
	all := make([]sent, 0, len(per[0])*sessions)
	for _, p := range per {
		all = append(all, p...)
	}
	// Restore send order, so the input-property report sees the sequence.
	ordered := make([]sent, len(all))
	for _, x := range all {
		ordered[x.idx-int64(from)] = x
	}
	for _, x := range ordered {
		res.outcomes = append(res.outcomes, x.o)
		res.texts = append(res.texts, seq[x.idx%int64(len(seq))])
	}
	return res
}
