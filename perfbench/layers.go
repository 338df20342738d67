package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"extbuf"
	"extbuf/internal/wire"
)

// perLayer fills out with the traced run's per-layer metrics. Counter
// metrics are deltas over the timed phase, divided by the key
// operations it acknowledged. Engine-call latencies are taken over the
// timed phase, except inserts: the set-up preload makes the run's only
// inserts, so their latencies are taken over it.
func perLayer(out map[string]metric, w spec, m *model, seed uint64, seconds int, te *tracedEngine,
	timed phaseResult, before, after counters, walBytes int64, t *tally, dir string) error {
	ops := float64(timed.ops)
	set := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	per := func(d int64) float64 { return float64(d) / ops }
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	mutOps := timed.kinds[opInsert] + timed.kinds[opUpsert]

	set("client.send_block_s", timed.block.Seconds(), "s")

	dn := netSnapshot{
		readBytes:  after.net.readBytes - before.net.readBytes,
		writeBytes: after.net.writeBytes - before.net.writeBytes,
		readNs:     after.net.readNs - before.net.readNs,
		writeNs:    after.net.writeNs - before.net.writeNs,
	}
	set("wire.req_bytes_per_op", per(dn.readBytes), "B/op")
	set("wire.resp_bytes_per_op", per(dn.writeBytes), "B/op")
	codec, err := codecNsPerOp(w, seed, seconds)
	if err != nil {
		return err
	}
	set("wire.codec_ns_per_op", codec, "ns/op")
	// Independent paths must agree: the bytes the server's connections
	// read are the request frames the benchmark encoded itself.
	t.check(checkEqual(dn.readBytes, timed.reqBytes))

	calls := te.callsBetween(before.at, after.at)
	byKind := func(cs []call, kind string) []time.Duration {
		var ds []time.Duration
		for _, c := range cs {
			if c.kind == kind {
				ds = append(ds, c.dur)
			}
		}
		return ds
	}
	var engineCalls, engineOps int64
	var busy time.Duration
	for _, c := range calls {
		if c.kind != "sync" {
			engineCalls++
			engineOps += int64(c.ops)
			busy += c.dur
		}
	}
	// Ops the engine was handed must equal ops the client saw acked.
	t.check(checkEqual(engineOps, timed.ops))
	syncs := byKind(calls, "sync")
	set("server.ops_per_engine_call", ratio(engineOps, engineCalls), "op/call")
	set("server.net_read_s", float64(dn.readNs)/1e9, "s")
	set("server.net_write_s", float64(dn.writeNs)/1e9, "s")
	set("server.syncs", float64(len(syncs)), "count")
	set("server.ops_per_sync", ratio(mutOps, int64(len(syncs))), "op/sync")
	set("server.sync_ms_p50", ms(percentile(syncs, 0.5)), "ms")
	set("server.sync_busy_s", sum(syncs).Seconds(), "s")

	inserts := byKind(te.allCalls(), "insert")
	set("engine.insert_call_ms_p50", ms(percentile(inserts, 0.5)), "ms")
	set("engine.insert_call_ms_p99", ms(percentile(inserts, 0.99)), "ms")
	set("engine.lookup_call_ms_p50", ms(percentile(byKind(calls, "lookup"), 0.5)), "ms")
	set("engine.upsert_call_ms_p50", ms(percentile(byKind(calls, "upsert"), 0.5)), "ms")
	set("engine.busy_s", busy.Seconds(), "s")

	ds := extbuf.Stats{
		Reads:      after.stats.Reads - before.stats.Reads,
		Writes:     after.stats.Writes - before.stats.Writes,
		WriteBacks: after.stats.WriteBacks - before.stats.WriteBacks,
	}
	set("model.reads_per_op", per(ds.Reads), "io/op")
	set("model.writes_per_op", per(ds.Writes), "io/op")
	set("model.writebacks_per_op", per(ds.WriteBacks), "io/op")

	a, b := after.store, before.store
	hits, misses := a.CacheHits-b.CacheHits, a.CacheMisses-b.CacheMisses
	set("pool.hit_rate", ratio(hits, hits+misses), "ratio")
	set("pool.evictions_per_op", per(a.Evictions-b.Evictions), "1/op")
	set("pool.dirty_writebacks_per_op", per(a.DirtyWritebacks-b.DirtyWritebacks), "1/op")
	set("store.read_syscalls_per_op", per(a.ReadSyscalls-b.ReadSyscalls), "1/op")
	set("store.write_syscalls_per_op", per(a.WriteSyscalls-b.WriteSyscalls), "1/op")
	set("store.bytes_written_per_op", per(a.BytesWritten-b.BytesWritten), "B/op")
	set("store.frames_per_flush_run", ratio(a.FlushedFrames-b.FlushedFrames, a.FlushRuns-b.FlushRuns), "frame/run")

	fsyncs := a.WALFsyncs - b.WALFsyncs
	set("wal.fsyncs", float64(fsyncs), "count")
	set("wal.ops_per_fsync", ratio(mutOps, fsyncs), "op/fsync")
	set("wal.bytes_at_crash", float64(walBytes), "B")

	am, bm := after.mem, before.mem
	set("runtime.allocs_per_op", per(int64(am.Mallocs-bm.Mallocs)), "1/op")
	set("runtime.alloc_bytes_per_op", per(int64(am.TotalAlloc-bm.TotalAlloc)), "B/op")
	set("runtime.gc_cycles", float64(am.NumGC-bm.NumGC), "count")
	set("runtime.gc_pause_ms", float64(am.PauseTotalNs-bm.PauseTotalNs)/1e6, "ms")

	// The traced run's own end-to-end figures: against the untraced
	// runs' they give the tracing overhead.
	set("traced.ops_per_s", ops/timed.seconds(), "1/s")
	set("traced.req_p50_ms", ms(percentile(timed.lat, 0.5)), "ms")
	// The 99th percentile is reported here, ungated: its run-to-run
	// spread on a shared machine is wider than any bound a gate allows.
	set("traced.req_p99_ms", ms(percentile(timed.lat, 0.99)), "ms")

	direct, err := directOpsPerS(w, seed, seconds, t, filepath.Join(dir, "direct"))
	if err != nil {
		return err
	}
	set("engine.direct_ops_per_s", direct, "1/s")
	return nil
}

func sum(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

// directOpsPerS sends the workload's set-up and timed streams straight
// into a fresh engine of the same shape, with no server, and returns
// the timed phase's key operations per second.
func directOpsPerS(w spec, seed uint64, seconds int, t *tally, dir string) (float64, error) {
	if err := os.Mkdir(dir, 0o755); err != nil {
		return 0, err
	}
	e, err := extbuf.NewSharded(structure, engineConfig(filepath.Join(dir, "t")), shards)
	if err != nil {
		return 0, fmt.Errorf("open direct engine: %w", err)
	}
	// Like the served engine, this one is abandoned, not checkpointed.
	m := newModel(w, seed)
	for _, ph := range []phase{phasePreload, phaseWarm} {
		r, err := driveDirect(e, m, ph, seconds, seed)
		if err != nil {
			return 0, err
		}
		t.phase(r)
	}
	r, err := driveDirect(e, m, phaseTimed, seconds, seed)
	if err != nil {
		return 0, err
	}
	t.phase(r)
	return float64(r.ops) / r.seconds(), nil
}

// codecNsPerOp times wire's public codec on the workload's own timed
// batches: each request frame encoded and decoded, and its response
// frame encoded and decoded, per key operation.
func codecNsPerOp(w spec, seed uint64, seconds int) (float64, error) {
	const sample = 256 // batches
	m := newModel(w, seed)
	s := m.stream(phaseTimed, 0, seconds, seed)
	var bs []*batch
	for len(bs) < sample {
		b := newBatch()
		if !s.next(b) {
			break
		}
		bs = append(bs, b)
	}
	keys := make([]uint64, batchKeys)
	vals := make([]uint64, batchKeys)
	found := make([]bool, batchKeys)
	var req, resp, pay []byte
	var ops int64
	start := time.Now()
	for time.Since(start) < 200*time.Millisecond {
		req, resp = req[:0], resp[:0]
		for i, b := range bs {
			if b.kind == opLookup {
				pay = wire.AppendKeys(pay[:0], b.keys)
				req = wire.AppendFrame(req, wire.OpLookup, uint32(i), pay)
				pay = wire.AppendValues(pay[:0], b.keys, found[:len(b.keys)])
				resp = wire.AppendFrame(resp, wire.OpValues, uint32(i), pay)
			} else {
				op := wire.OpUpsert
				if b.kind == opInsert {
					op = wire.OpInsert
				}
				pay = wire.AppendKV(pay[:0], b.keys, b.vals)
				req = wire.AppendFrame(req, op, uint32(i), pay)
				resp = wire.AppendFrame(resp, wire.OpAck, uint32(i), nil)
			}
		}
		rr := wire.NewReader(bytes.NewReader(req))
		pr := wire.NewReader(bytes.NewReader(resp))
		for _, b := range bs {
			f, err := rr.Next()
			if err == nil {
				if b.kind == opLookup {
					_, err = wire.DecodeKeysInto(f.Payload, keys)
				} else {
					_, _, err = wire.DecodeKVInto(f.Payload, keys, vals)
				}
			}
			if err == nil {
				f, err = pr.Next()
			}
			if err == nil && b.kind == opLookup {
				_, _, err = wire.DecodeValuesInto(f.Payload, vals, found)
			}
			if err != nil {
				return 0, fmt.Errorf("codec: %w", err)
			}
			ops += int64(len(b.keys))
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(ops), nil
}
