package main

import (
	"context"
	"sync"
	"time"

	"extbuf"
	"extbuf/client"
	"extbuf/internal/wire"
)

// phaseResult is what one phase of closed-loop traffic did.
type phaseResult struct {
	ops      int64 // key operations acknowledged
	attempts int64 // key operations sent
	failed   int64 // key operations that errored or returned a wrong result
	kinds    [3]int64
	lat      []time.Duration // per-request latency, send to response
	starts   []time.Time     // per-request send time
	block    time.Duration   // time spent inside Go* calls
	reqBytes int64           // the phase's request frames as wire encodes them
	start    time.Time
	end      time.Time // arrival of the last response
}

func (r *phaseResult) add(o phaseResult) {
	r.ops += o.ops
	r.attempts += o.attempts
	r.failed += o.failed
	for i := range r.kinds {
		r.kinds[i] += o.kinds[i]
	}
	r.lat = append(r.lat, o.lat...)
	r.starts = append(r.starts, o.starts...)
	r.block += o.block
	r.reqBytes += o.reqBytes
	if o.end.After(r.end) {
		r.end = o.end
	}
}

func (r phaseResult) seconds() float64 { return r.end.Sub(r.start).Seconds() }

// inflight is one sent request awaiting its response.
type inflight struct {
	p     *client.Pending
	b     *batch
	start time.Time
}

// drive sends every connection's stream of phase ph over its client,
// each connection keeping depth batches in flight (a closed loop: a
// batch is sent only when an earlier one has been answered), and checks
// every response. With encode set it also sums the request frames' wire
// sizes.
func drive(ctx context.Context, clients []*client.Client, m *model, ph phase, seconds int, seed uint64, encode bool) phaseResult {
	res := make([]phaseResult, len(clients))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res[c] = driveConn(ctx, clients[c], m.stream(ph, c, seconds, seed), encode)
		}(c)
	}
	wg.Wait()
	out := phaseResult{start: start}
	for _, r := range res {
		out.add(r)
	}
	return out
}

func driveConn(ctx context.Context, cl *client.Client, s *stream, encode bool) phaseResult {
	var r phaseResult
	// The depth batches circulating between sender and receiver are the
	// closed loop's in-flight bound: a batch is reused only once its
	// response has been checked.
	free := make(chan *batch, depth)
	for i := 0; i < depth; i++ {
		free <- newBatch()
	}
	window := make(chan inflight, depth)
	recvDone := make(chan phaseResult)
	go func() { recvDone <- receive(ctx, s.m, window, free) }()

	var pay, frame []byte
	for {
		b := <-free
		if !s.next(b) {
			break
		}
		r.attempts += int64(len(b.keys))
		r.kinds[b.kind] += int64(len(b.keys))
		if encode {
			op := wire.OpLookup
			switch b.kind {
			case opInsert:
				op = wire.OpInsert
			case opUpsert:
				op = wire.OpUpsert
			}
			if b.kind == opLookup {
				pay = wire.AppendKeys(pay[:0], b.keys)
			} else {
				pay = wire.AppendKV(pay[:0], b.keys, b.vals)
			}
			frame = wire.AppendFrame(frame[:0], op, 0, pay)
			r.reqBytes += int64(len(frame))
		}
		t0 := time.Now()
		var p *client.Pending
		var err error
		switch b.kind {
		case opInsert:
			p, err = cl.GoInsert(b.keys, b.vals)
		case opUpsert:
			p, err = cl.GoUpsert(b.keys, b.vals)
		default:
			p, err = cl.GoLookup(b.keys)
		}
		r.block += time.Since(t0)
		if err != nil {
			r.failed += int64(len(b.keys))
			free <- b
			continue
		}
		window <- inflight{p: p, b: b, start: t0}
	}
	close(window)
	got := <-recvDone
	r.ops, r.lat, r.starts, r.end = got.ops, got.lat, got.starts, got.end
	r.failed += got.failed
	return r
}

// receive collects responses in send order (the server answers each
// connection in order), timing and checking each.
func receive(ctx context.Context, m *model, window <-chan inflight, free chan<- *batch) phaseResult {
	var r phaseResult
	for f := range window {
		n := int64(len(f.b.keys))
		var bad int64
		if f.b.kind == opLookup {
			vals, found, err := f.p.Lookup(ctx)
			if err != nil {
				bad = n
			} else {
				bad = int64(checkReads(m, f.b, vals, found))
			}
		} else if err := f.p.Wait(ctx); err != nil {
			bad = n
		}
		r.end = time.Now()
		r.lat = append(r.lat, r.end.Sub(f.start))
		r.starts = append(r.starts, f.start)
		r.ops += n - bad
		r.failed += bad
		free <- f.b
	}
	return r
}

// driveDirect sends the same streams straight into an engine, one
// goroutine per connection's stream and no server, checking results as
// drive does. Mutations are made durable by one Sync at the end.
func driveDirect(e extbuf.Engine, m *model, ph phase, seconds int, seed uint64) (phaseResult, error) {
	res := make([]phaseResult, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s := m.stream(ph, c, seconds, seed)
			b := newBatch()
			vals := make([]uint64, batchKeys)
			found := make([]bool, batchKeys)
			r := &res[c]
			for s.next(b) {
				n := int64(len(b.keys))
				r.attempts += n
				var err error
				switch b.kind {
				case opInsert:
					err = e.InsertBatch(b.keys, b.vals)
				case opUpsert:
					err = e.UpsertBatch(b.keys, b.vals)
				default:
					err = e.LookupBatchInto(b.keys, vals[:n], found[:n])
				}
				bad := n
				if err == nil {
					bad = 0
					if b.kind == opLookup {
						bad = int64(checkReads(m, b, vals[:n], found[:n]))
					}
				}
				r.ops += n - bad
				r.failed += bad
			}
		}(c)
	}
	wg.Wait()
	err := e.Sync()
	out := phaseResult{start: start}
	for _, r := range res {
		out.add(r)
	}
	out.end = time.Now()
	return out, err
}
