package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"extbuf"
)

// testModel is a model of the named workload at a small size.
func testModel(t *testing.T, name string) *model {
	t.Helper()
	s, err := specByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return newModel(shrink(s), 7)
}

// shrink returns the workload s at a size a test runs in moments.
func shrink(s spec) spec {
	s.preload = 16 * batchKeys
	s.warmBatches = min(s.warmBatches, 8)
	s.timedBatchesPerSecond = 40
	s.tailBatches = 4
	return s
}

// readBatch is one lookup of preloaded key i and one of a key never
// inserted.
func readBatch(m *model, i uint64) *batch {
	b := newBatch()
	b.reset(opLookup)
	b.keys = append(b.keys, m.ks.key(i), m.ks.key(absentBase))
	b.idx = append(b.idx, i, 0)
	b.absent = append(b.absent, false, true)
	return b
}

func TestCheckReads(t *testing.T) {
	m := testModel(t, "update-cold")
	b := readBatch(m, 3)
	good := m.ks.value(b.keys[0], 0)
	cases := []struct {
		name  string
		vals  []uint64
		found []bool
		bad   int
	}{
		{"right", []uint64{good, 0}, []bool{true, false}, 0},
		{"wrong value", []uint64{good + 1, 0}, []bool{true, false}, 1},
		{"missing key", []uint64{0, 0}, []bool{false, false}, 1},
		{"never-inserted key found", []uint64{good, 9}, []bool{true, true}, 1},
		{"short result", []uint64{good}, []bool{true}, 2},
	}
	for _, c := range cases {
		if got := checkReads(m, b, c.vals, c.found); got != c.bad {
			t.Errorf("%s: checkReads = %d, want %d", c.name, got, c.bad)
		}
	}
	// Once an upsert of the key has been sent, its new value and the
	// old one are both values the benchmark wrote; one past the newest
	// is not.
	m.versions[3].Add(1)
	for v, bad := range map[uint32]int{0: 0, 1: 0, 2: 1} {
		if got := checkReads(m, b, []uint64{m.ks.value(b.keys[0], v), 0}, []bool{true, false}); got != bad {
			t.Errorf("version %d after one upsert: checkReads = %d, want %d", v, got, bad)
		}
	}
}

func TestCheckExactLenSpace(t *testing.T) {
	want := []uint64{10, 20}
	if got := checkExact(want, []uint64{10, 20}, []bool{true, true}); got != 0 {
		t.Errorf("right values: %d failed", got)
	}
	if got := checkExact(want, []uint64{10, 21}, []bool{true, true}); got != 1 {
		t.Errorf("wrong value: %d failed, want 1", got)
	}
	if got := checkExact(want, []uint64{10, 20}, []bool{true, false}); got != 1 {
		t.Errorf("missing key: %d failed, want 1", got)
	}
	if checkEqual(5, 5) != 0 || checkEqual(4, 5) != 1 || checkEqual(6, 5) != 1 {
		t.Error("checkEqual does not flag a wrong length")
	}
	if checkSpaceAmp(1.5) != 0 || checkSpaceAmp(0.9) != 1 {
		t.Error("checkSpaceAmp does not flag a table smaller than its data")
	}
	if checkAbsent([]bool{false, false}) != 0 || checkAbsent([]bool{false, true}) != 1 {
		t.Error("checkAbsent does not flag a found key")
	}
}

// TestVerifyRecovered runs the post-recovery check against a real
// engine holding the expected contents, then against one with a wrong
// value, a missing key and so a wrong length.
func TestVerifyRecovered(t *testing.T) {
	s := spec{name: "update-cold", preload: 4 * batchKeys}
	m := newModel(s, 3)
	e, err := extbuf.NewSharded(structure, extbuf.Config{}, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	keys := make([]uint64, 0, s.preload)
	vals := make([]uint64, 0, s.preload)
	keys, vals = lastAcked(m, 0, keys, vals)
	if err := e.InsertBatch(keys, vals); err != nil {
		t.Fatal(err)
	}
	var ok tally
	verifyRecovered(e, m, &ok)
	if ok.failed != 0 || ok.attempted == 0 {
		t.Fatalf("intact table: %d of %d failed", ok.failed, ok.attempted)
	}
	if err := e.UpsertBatch(keys[:1], []uint64{vals[0] + 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.DeleteBatch(keys[1:2]); err != nil {
		t.Fatal(err)
	}
	var bad tally
	verifyRecovered(e, m, &bad)
	// The wrong value, the missing key and the length.
	if bad.failed != 3 {
		t.Fatalf("damaged table: %d failed, want 3", bad.failed)
	}
}

// TestKeySpacesDisjoint shows that the keys the preload inserts are
// distinct and disjoint from the never-inserted keys lookups expect to
// miss, for the streams the workloads actually send.
func TestKeySpacesDisjoint(t *testing.T) {
	const seconds = 1
	hot := testModel(t, "lookup-hot")
	seen := map[uint64]string{}
	add := func(k uint64, set string) {
		if prev, ok := seen[k]; ok && prev != set {
			t.Fatalf("key %#x is in both %s and %s", k, prev, set)
		}
		seen[k] = set
	}
	b := newBatch()
	for c := 0; c < conns; c++ {
		for s := hot.stream(phasePreload, c, seconds, 7); s.next(b); {
			for _, k := range b.keys {
				add(k, "preload")
			}
		}
	}
	if got, want := len(seen), hot.liveKeys(); got != want {
		t.Fatalf("%d distinct keys preloaded, want %d", got, want)
	}
	for c := 0; c < conns; c++ {
		for s := hot.stream(phaseTimed, c, seconds, 7); s.next(b); {
			for p, k := range b.keys {
				if b.absent[p] {
					add(k, "never-inserted")
				}
			}
		}
	}
	// The ranges the key indices come from cannot overlap either: the
	// largest preload is far below the never-inserted range.
	for _, s := range specs {
		if uint64(s.preload) > absentBase {
			t.Fatalf("%s: preload indices reach the never-inserted range", s.name)
		}
	}
}

func TestStreamsDeterministic(t *testing.T) {
	gen := func(seed uint64, c int) []uint64 {
		m := testModel(t, "update-cold")
		var keys []uint64
		b := newBatch()
		for s := m.stream(phaseTimed, c, 1, seed); s.next(b); {
			keys = append(keys, b.keys...)
			keys = append(keys, b.vals...)
		}
		return keys
	}
	a, b := gen(5, 0), gen(5, 0)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("stream lengths %d and %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different batch word %d", i)
		}
	}
	if c := gen(6, 0); c[0] == a[0] && c[1] == a[1] {
		t.Error("a different seed drew the same keys")
	}
	if c := gen(5, 1); c[0] == a[0] {
		t.Error("two connections drew the same keys")
	}
}

// TestUpdateColdKinds shows that update-cold draws each batch's kind,
// so a connection's upserts and lookups interleave rather than come in
// runs the server's applier could coalesce.
func TestUpdateColdKinds(t *testing.T) {
	m := testModel(t, "update-cold")
	m.spec.timedBatchesPerSecond = 400
	var kinds []opKind
	b := newBatch()
	for s := m.stream(phaseTimed, 0, 1, 9); s.next(b); {
		kinds = append(kinds, b.kind)
	}
	switches, upserts := 0, 0
	for i, k := range kinds {
		if k == opUpsert {
			upserts++
		}
		if i > 0 && k != kinds[i-1] {
			switches++
		}
	}
	// 200 draws of probability 1/2: about 100 upserts and 100 switches.
	if upserts < 70 || upserts > 130 || switches < 70 {
		t.Fatalf("%d batches: %d upserts, %d kind switches", len(kinds), upserts, switches)
	}
}

// TestRunSmall runs every workload shape end to end at a small size,
// untraced and traced, and expects every check to pass.
func TestRunSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers and durable engines")
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		for _, traced := range []bool{false, true} {
			res, err := run(shrink(s), 11, 1, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", s.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d",
					s.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			// The run reports exactly the metrics BENCHMARK.json lists
			// for its mode, with the same units.
			want := bench.EndToEnd
			if traced {
				want = bench.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", s.name, traced, len(res.Metrics), len(want))
			}
			for _, w := range want {
				if got, ok := res.Metrics[w.Name]; !ok || got.Unit != w.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", s.name, traced, w.Name, got, w.Unit)
				}
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	ds := []time.Duration{5, 1, 4, 2, 3}
	if p := percentile(ds, 0.5); p != 3 {
		t.Errorf("p50 = %v, want 3", p)
	}
	if p := percentile(ds, 0.99); p != 5 {
		t.Errorf("p99 = %v, want 5", p)
	}
	if ds[0] != 5 {
		t.Error("percentile reordered its input")
	}
}
