// Command perfbench is the repository's end-to-end benchmark. In one
// process it opens the buffered (Theorem 2) structure in the sharded
// engine with hashserved's default shape on the durable file backend,
// serves it with internal/server over loopback, and drives it with
// extbuf/client over two closed-loop connections. It prints one JSON
// line: the end-to-end metrics (or, with --trace 1, the per-layer
// metrics), the key operations attempted and failed, and whether every
// check passed. See README.md for the workloads and metrics.
//
// Usage:
//
//	perfbench --workload lookup-hot|update-cold --seed N
//	          --seconds S --trace 0|1 [--out DIR]
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"extbuf"
	"extbuf/client"
	"extbuf/internal/server"
)

// processStart is taken as the process starts: setup_s runs from here.
var processStart = time.Now()

// runLimit ends a run that hangs, so the process exits non-zero inside
// the three minutes a run may take.
const runLimit = 170 * time.Second

func main() {
	var (
		name    = flag.String("workload", "", "workload: lookup-hot or update-cold")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 10, "timed-phase size, in seconds of the workload's nominal rate")
		trace   = flag.Int("trace", 0, "1: traced run, reporting per-layer metrics")
		out     = flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for table files and spans")
	)
	flag.Parse()
	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runLimit)
		os.Exit(2)
	})
	w, err := specByName(*name)
	if err == nil && *seconds < 1 {
		err = errors.New("--seconds must be at least 1")
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = errors.New("--trace must be 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(w, *seed, *seconds, *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// engineConfig is hashserved's default engine on the durable file
// backend at path: b = 64, m = 1024 words per shard, the default pool,
// hash seed 1, synchronous flush policy.
func engineConfig(path string) extbuf.Config {
	return extbuf.Config{
		BlockSize:     64,
		MemoryWords:   1024,
		ExpectedItems: 1 << 20,
		Seed:          1,
		Backend:       "file",
		Path:          path,
		FlushPolicy:   extbuf.FlushSync,
	}
}

const (
	structure = "buffered"
	shards    = 4
)

// counters is a snapshot of the program's own counters.
type counters struct {
	at    time.Time
	stats extbuf.Stats
	store extbuf.StoreStats
	mem   runtime.MemStats
	net   netSnapshot
}

// tally accumulates a run's attempted and failed operations.
type tally struct{ attempted, failed int64 }

func (t *tally) phase(r phaseResult) {
	t.attempted += r.attempts
	t.failed += r.failed
}

func (t *tally) check(bad int) {
	t.attempted++
	if bad > 0 {
		t.failed++
	}
}

func run(w spec, seed uint64, seconds int, traced bool, out string) (result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	if err := os.MkdirAll(out, 0o755); err != nil {
		return result{}, err
	}
	dir, err := os.MkdirTemp(out, "run-"+w.name+"-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	live := filepath.Join(dir, "live")
	crash := filepath.Join(dir, "crash")
	for _, d := range []string{live, crash} {
		if err := os.Mkdir(d, 0o755); err != nil {
			return result{}, err
		}
	}

	m := newModel(w, seed)
	var tr *tracer
	var te *tracedEngine
	var nc netCounts

	// Set-up: open the engine and the server, dial, preload.
	eng, err := extbuf.NewSharded(structure, engineConfig(filepath.Join(live, "t")), shards)
	if err != nil {
		return result{}, fmt.Errorf("open engine: %w", err)
	}
	var served extbuf.Engine = eng
	if traced {
		tr = newTracer()
		te = &tracedEngine{Engine: eng, t: tr}
		served = te
	}
	srv, err := server.NewServer(server.Config{Engine: served, SweepEvery: time.Second})
	if err != nil {
		return result{}, fmt.Errorf("server: %w", err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return result{}, err
	}
	addr := lis.Addr().String()
	if traced {
		lis = countingListener{Listener: lis, n: &nc}
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(lis) }()
	clients := make([]*client.Client, conns)
	for c := range clients {
		if clients[c], err = client.Dial(addr, client.Options{Conns: 1, Pipeline: depth}); err != nil {
			return result{}, err
		}
	}
	stopServer := func() error {
		for _, cl := range clients {
			if cl != nil {
				cl.Close()
			}
		}
		serr := srv.Shutdown(ctx)
		if err := <-serveDone; !errors.Is(err, server.ErrServerClosed) {
			return fmt.Errorf("serve: %w", err)
		}
		return serr
	}
	var t tally
	preIOs := eng.Stats().IOs()
	sp := tr.begin("setup")
	pre := drive(ctx, clients, m, phasePreload, seconds, seed, false)
	tr.end(sp)
	setupS := time.Since(processStart).Seconds()
	// The preload is the run's only insert traffic: its model I/Os per
	// insert measure the buffered-insert path and its merge cascade.
	preloadIOs := float64(eng.Stats().IOs()-preIOs) / float64(w.preload)
	t.phase(pre)

	// Untimed warm-up reads, then a GC, so the timed phase starts from a
	// warm pool and a clean heap.
	sp = tr.begin("warmup")
	t.phase(drive(ctx, clients, m, phaseWarm, seconds, seed, false))
	runtime.GC()
	tr.end(sp)

	before := snapshot(eng, &nc, traced)
	sp = tr.begin("timed")
	timed := drive(ctx, clients, m, phaseTimed, seconds, seed, traced)
	tr.end(sp)
	after := snapshot(eng, &nc, traced)
	tr.requests(timed, sp)
	t.phase(timed)
	if timed.ops == 0 {
		return result{}, errors.New("timed phase acknowledged no operation")
	}

	sp = tr.begin("tail")
	t.phase(drive(ctx, clients, m, phaseTail, seconds, seed, false))
	tr.end(sp)
	sp = tr.begin("len")
	n, err := clients[0].Len(ctx)
	if err != nil {
		return result{}, fmt.Errorf("len: %w", err)
	}
	t.check(checkEqual(int64(n), int64(m.liveKeys())))
	tr.end(sp)
	if err := stopServer(); err != nil {
		return result{}, err
	}

	// The crash image: every table file as the last acknowledged write
	// left it, with no checkpoint since. The live engine is abandoned,
	// as a killed process would leave it.
	tableBytes, walBytes, err := dirBytes(live)
	if err != nil {
		return result{}, err
	}
	spaceAmp := float64(tableBytes) / float64(16*m.liveKeys())
	t.check(checkSpaceAmp(spaceAmp))
	sp = tr.begin("crash_image")
	if err := copyDir(live, crash); err != nil {
		return result{}, err
	}
	tr.end(sp)

	sp = tr.begin("recovery")
	t0 := time.Now()
	rec, err := extbuf.NewSharded(structure, engineConfig(filepath.Join(crash, "t")), shards)
	recoveryS := time.Since(t0).Seconds()
	tr.end(sp)
	if err != nil {
		return result{}, fmt.Errorf("recover: %w", err)
	}
	sp = tr.begin("verify")
	verifyRecovered(rec, m, &t)
	tr.end(sp)

	res := result{Metrics: map[string]metric{}}
	if traced {
		if err := perLayer(res.Metrics, w, m, seed, seconds, te, timed, before, after, walBytes, &t, dir); err != nil {
			return result{}, err
		}
		if err := tr.write(filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))); err != nil {
			return result{}, err
		}
	} else {
		ops := float64(timed.ops)
		res.Metrics["ops_per_s"] = metric{ops / timed.seconds(), "1/s"}
		res.Metrics["req_p50_ms"] = metric{ms(percentile(timed.lat, 0.50)), "ms"}
		res.Metrics["req_p90_ms"] = metric{ms(percentile(timed.lat, 0.90)), "ms"}
		res.Metrics["setup_s"] = metric{setupS, "s"}
		res.Metrics["preload_ios_per_insert"] = metric{preloadIOs, "io/op"}
		res.Metrics["recovery_s"] = metric{recoveryS, "s"}
		res.Metrics["model_ios_per_op"] = metric{float64(after.stats.IOs()-before.stats.IOs()) / ops, "io/op"}
		res.Metrics["space_amp"] = metric{spaceAmp, "ratio"}
		res.Metrics["max_rss_mb"] = metric{maxRSSMiB(), "MiB"}
	}
	res.Attempted, res.Failed = t.attempted, t.failed
	res.Correct = t.failed == 0
	return res, nil
}

// snapshot reads the program's counters at a phase boundary, when no
// request is in flight. The pipeline-riding StoreStats and the
// stop-the-world MemStats are read for traced runs only.
func snapshot(eng *extbuf.Sharded, nc *netCounts, traced bool) counters {
	c := counters{at: time.Now(), stats: eng.Stats()}
	if traced {
		c.store = eng.StoreStats()
		runtime.ReadMemStats(&c.mem)
		c.net = nc.snapshot()
	}
	return c
}

// verifyRecovered checks the engine recovered from the crash image: its
// length, every key at its last acknowledged value, and keys never
// inserted absent.
func verifyRecovered(e extbuf.Engine, m *model, t *tally) {
	t.check(checkEqual(int64(e.Len()), int64(m.liveKeys())))
	const chunk = 4096
	keys := make([]uint64, 0, chunk)
	want := make([]uint64, 0, chunk)
	vals := make([]uint64, chunk)
	found := make([]bool, chunk)
	for from := 0; from < m.liveKeys(); from += chunk {
		keys, want = lastAcked(m, from, keys, want)
		n := len(keys)
		t.attempted += int64(n)
		if err := e.LookupBatchInto(keys, vals[:n], found[:n]); err != nil {
			t.failed += int64(n)
			continue
		}
		t.failed += int64(checkExact(want, vals[:n], found[:n]))
	}
	// Never-inserted keys: one chunk, from the top of the absent range
	// (lookup-hot's reads draw from its bottom).
	keys = keys[:0]
	for j := uint64(0); j < chunk; j++ {
		keys = append(keys, m.ks.key(absentBase+absentKeys+j))
	}
	t.attempted += chunk
	if err := e.LookupBatchInto(keys, vals, found); err != nil {
		t.failed += chunk
		return
	}
	t.failed += int64(checkAbsent(found))
}

// percentile returns the q-quantile of ds by the nearest-rank method.
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// maxRSSMiB is the process's peak resident set size.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// dirBytes sums the disk space allocated to the table files in dir,
// and to its write-ahead logs alone. Allocated space, not file length:
// the logs preallocate their extent ahead of the records written.
func dirBytes(dir string) (total, wal int64, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, 0, err
		}
		st, ok := info.Sys().(*syscall.Stat_t)
		if !ok || !info.Mode().IsRegular() {
			continue
		}
		n := st.Blocks * 512 // st_blocks counts 512-byte units
		total += n
		if strings.HasSuffix(e.Name(), ".wal") {
			wal += n
		}
	}
	return total, wal, nil
}

// copyDir copies every regular file of src into dst: the on-disk state
// a killed process would leave behind.
func copyDir(src, dst string) error {
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
