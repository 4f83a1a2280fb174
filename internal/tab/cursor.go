package tab

import "io"

// DefaultStreamChunk is the number of rows moved per chunk on the streaming
// execution path. Chunks (rather than single rows) keep per-row interface
// and channel overhead off the hot path while still bounding memory by
// O(chunk), Volcano-style.
const DefaultStreamChunk = 128

// Cursor is a pull iterator over a relation, yielding it one chunk at a
// time. Next returns the next non-nil chunk, or io.EOF when the relation is
// exhausted; any other error is terminal. Chunks are owned by the consumer
// (producers must not reuse them). Close releases underlying resources
// (connections, goroutines) and must be safe to call more than once and
// after Next returned an error; abandoning a cursor without draining it is
// the normal way to cancel upstream work.
type Cursor interface {
	// Cols is the column list shared by every chunk the cursor yields.
	Cols() []string
	// Next returns the next chunk, io.EOF at the end of the stream, or a
	// terminal error. Implementations may return empty chunks; callers
	// should skip them rather than treat them as end-of-stream.
	Next() (*Tab, error)
	// Close releases resources; idempotent.
	Close() error
}

// sliceCursor streams an already-materialized table in chunks, without
// copying rows.
type sliceCursor struct {
	t     *Tab
	chunk int
	pos   int
}

// NewSliceCursor returns a cursor over t yielding chunks of at most chunk
// rows (DefaultStreamChunk when chunk < 1). The chunks alias t's rows.
func NewSliceCursor(t *Tab, chunk int) Cursor {
	if chunk < 1 {
		chunk = DefaultStreamChunk
	}
	return &sliceCursor{t: t, chunk: chunk}
}

func (c *sliceCursor) Cols() []string { return c.t.Cols }

func (c *sliceCursor) Next() (*Tab, error) {
	if c.pos >= len(c.t.Rows) {
		return nil, io.EOF
	}
	end := c.pos + c.chunk
	if end > len(c.t.Rows) {
		end = len(c.t.Rows)
	}
	out := &Tab{Cols: c.t.Cols, Rows: c.t.Rows[c.pos:end:end]}
	c.pos = end
	return out, nil
}

func (c *sliceCursor) Close() error {
	c.pos = len(c.t.Rows)
	return nil
}

// FuncCursor adapts a pair of closures to the Cursor interface; the zero
// value of CloseFn is fine for cursors with nothing to release.
type FuncCursor struct {
	Columns []string
	NextFn  func() (*Tab, error)
	CloseFn func() error
	closed  bool
}

func (c *FuncCursor) Cols() []string { return c.Columns }

func (c *FuncCursor) Next() (*Tab, error) {
	if c.closed {
		return nil, io.EOF
	}
	return c.NextFn()
}

func (c *FuncCursor) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	if c.CloseFn != nil {
		return c.CloseFn()
	}
	return nil
}

// rechunkCursor bounds the chunk size of an inner cursor.
type rechunkCursor struct {
	in      Cursor
	chunk   int
	pending *Tab // oversized chunk being sliced out
	pos     int
}

// Rechunk wraps a cursor so no chunk it yields exceeds chunk rows
// (DefaultStreamChunk when chunk < 1): oversized chunks are sliced without
// copying, bounded ones pass through unchanged. Producers whose natural
// unit is bigger than a chunk — a Bind matching one large tree, a wrapper
// answering a whole batch — use it to restore the bounded-chunk invariant
// downstream consumers size their buffers by.
func Rechunk(in Cursor, chunk int) Cursor {
	if chunk < 1 {
		chunk = DefaultStreamChunk
	}
	return &rechunkCursor{in: in, chunk: chunk}
}

func (c *rechunkCursor) Cols() []string { return c.in.Cols() }

func (c *rechunkCursor) Next() (*Tab, error) {
	for {
		if c.pending != nil {
			end := c.pos + c.chunk
			if end > len(c.pending.Rows) {
				end = len(c.pending.Rows)
			}
			out := &Tab{Cols: c.pending.Cols, Rows: c.pending.Rows[c.pos:end:end]}
			c.pos = end
			if c.pos >= len(c.pending.Rows) {
				c.pending, c.pos = nil, 0
			}
			return out, nil
		}
		t, err := c.in.Next()
		if err != nil {
			return nil, err
		}
		if t.Len() <= c.chunk {
			return t, nil
		}
		c.pending, c.pos = t, 0
	}
}

func (c *rechunkCursor) Close() error {
	c.pending, c.pos = nil, 0
	return c.in.Close()
}

// Drain pulls a cursor to exhaustion, concatenating every chunk into one
// materialized table, and closes it: the bridge from the streaming engine
// to callers (and blocking operators) that need one table.
func Drain(c Cursor) (*Tab, error) {
	defer c.Close()
	out := New(c.Cols()...)
	for {
		chunk, err := c.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, chunk.Rows...)
	}
}
