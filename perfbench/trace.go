package main

import (
	"bufio"
	"encoding/json"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"extbuf"
)

// Tracing, for the --trace 1 run only. Everything is measured from
// outside the program: an extbuf.Engine decorator handed to the server
// in place of the engine sees every engine batch call and every
// group-commit Sync, and a net.Listener wrapper sees every byte the
// server's connections read and write.

// span is one timed interval. Parent is the index of the enclosing span
// in the trace, or -1.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since process start
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Ops    int    `json:"ops,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	spans []span
	cur   int // the open phase span engine calls are parented to
}

func newTracer() *tracer { return &tracer{cur: -1} }

func sinceStart(t time.Time) int64 { return int64(t.Sub(processStart)) }

// child records a span parented to the open phase span.
func (t *tracer) child(name string, start, end time.Time, ops int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: sinceStart(start), End: sinceStart(end), Parent: t.cur, Ops: ops})
}

// begin opens a phase span; end closes it. Engine and sync spans
// recorded in between are its children. A nil tracer (an untraced run)
// records nothing.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: sinceStart(now), End: -1, Parent: -1})
	t.cur = len(t.spans) - 1
	return t.cur
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = sinceStart(now)
	t.cur = -1
}

// requests records one span per client request of a phase, all
// children of the phase span.
func (t *tracer) requests(r phaseResult, parent int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, st := range r.starts {
		t.spans = append(t.spans, span{Name: "client.request", Start: sinceStart(st), End: sinceStart(st.Add(r.lat[i])), Parent: parent, Ops: batchKeys})
	}
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// call is one engine call the decorator saw.
type call struct {
	kind  string // "insert", "upsert", "lookup", "delete" or "sync"
	ops   int
	start time.Time
	dur   time.Duration
}

// tracedEngine wraps the engine the server serves, timing each batch
// call the server's connection appliers make and each Sync its group
// committer runs.
type tracedEngine struct {
	extbuf.Engine
	t     *tracer
	mu    sync.Mutex
	calls []call
}

func (e *tracedEngine) record(kind string, ops int, start time.Time) {
	end := time.Now()
	e.mu.Lock()
	e.calls = append(e.calls, call{kind: kind, ops: ops, start: start, dur: end.Sub(start)})
	e.mu.Unlock()
	e.t.child("engine."+kind, start, end, ops)
}

func (e *tracedEngine) InsertBatchShip(keys, vals []uint64) (uint64, error) {
	t0 := time.Now()
	lsn, err := e.Engine.InsertBatchShip(keys, vals)
	e.record("insert", len(keys), t0)
	return lsn, err
}

func (e *tracedEngine) UpsertBatchShip(keys, vals []uint64) (uint64, error) {
	t0 := time.Now()
	lsn, err := e.Engine.UpsertBatchShip(keys, vals)
	e.record("upsert", len(keys), t0)
	return lsn, err
}

func (e *tracedEngine) LookupBatchInto(keys, vals []uint64, found []bool) error {
	t0 := time.Now()
	err := e.Engine.LookupBatchInto(keys, vals, found)
	e.record("lookup", len(keys), t0)
	return err
}

func (e *tracedEngine) DeleteBatchShipInto(keys []uint64, found []bool) (uint64, error) {
	t0 := time.Now()
	lsn, err := e.Engine.DeleteBatchShipInto(keys, found)
	e.record("delete", len(keys), t0)
	return lsn, err
}

func (e *tracedEngine) Sync() error {
	t0 := time.Now()
	err := e.Engine.Sync()
	e.record("sync", 0, t0)
	return err
}

// callsBetween returns the calls that started in [from, to).
func (e *tracedEngine) callsBetween(from, to time.Time) []call {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []call
	for _, c := range e.calls {
		if !c.start.Before(from) && c.start.Before(to) {
			out = append(out, c)
		}
	}
	return out
}

func (e *tracedEngine) allCalls() []call {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]call(nil), e.calls...)
}

// netCounts are the byte and time totals of the server's connections.
type netCounts struct {
	readBytes, writeBytes atomic.Int64
	readNs, writeNs       atomic.Int64
}

type netSnapshot struct{ readBytes, writeBytes, readNs, writeNs int64 }

func (n *netCounts) snapshot() netSnapshot {
	return netSnapshot{n.readBytes.Load(), n.writeBytes.Load(), n.readNs.Load(), n.writeNs.Load()}
}

// countingListener hands the server connections that count what they
// read and write and the time spent in Read and Write.
type countingListener struct {
	net.Listener
	n *netCounts
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: l.n}, nil
}

type countingConn struct {
	net.Conn
	n *netCounts
}

func (c *countingConn) Read(p []byte) (int, error) {
	t0 := time.Now()
	k, err := c.Conn.Read(p)
	c.n.readNs.Add(int64(time.Since(t0)))
	c.n.readBytes.Add(int64(k))
	return k, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	t0 := time.Now()
	k, err := c.Conn.Write(p)
	c.n.writeNs.Add(int64(time.Since(t0)))
	c.n.writeBytes.Add(int64(k))
	return k, err
}
