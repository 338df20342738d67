package main

import (
	"fmt"
	"math/rand/v2"
	"sync/atomic"
)

// Key spaces. Every key is mix64(index ^ keySalt) for an index from one of
// two disjoint ranges, the preload's [0, preload) and the never-inserted
// keys'; mix64 is a bijection on uint64, so keys from different ranges
// (or different indices) never collide.
const (
	absentBase = uint64(1) << 62 // keys never inserted: absentBase + j
	absentKeys = 1 << 20         // size of the never-inserted range
)

// batchKeys is the number of key operations in one request frame, the
// hashload default: every batch spans all four shards.
const batchKeys = 256

// mix64 is the splitmix64 finalizer, a bijection on uint64.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// keyspace turns indices into keys and (key, version) into values. It
// is the benchmark's independent model of what the table must hold:
// values are never read back from the program to decide what is right.
//
// The key of an index does not depend on the seed, so every run
// preloads the same table; the seed picks the values and every random
// draw (Zipf ranks, uniform keys, never-inserted keys). A seeded key
// set made the table's cascade state at the end of the preload, and
// with it lookup-hot's I/Os per lookup, differ by up to 9% between
// seeds.
type keyspace struct {
	valSalt uint64
}

const keySalt = 0x6b657973

func newKeyspace(seed uint64) keyspace {
	return keyspace{valSalt: mix64(seed ^ 0x76616c73)}
}

func (ks keyspace) key(index uint64) uint64 { return mix64(index ^ keySalt) }

// value is the value version v of key k carries. Version 0 is the value
// a key is inserted with; each upsert of a key bumps its version.
func (ks keyspace) value(k uint64, v uint32) uint64 { return mix64(k^ks.valSalt) + uint64(v) }

// wrote reports whether val is a value the benchmark wrote for key k:
// one of its versions 0 through maxVersion.
func (ks keyspace) wrote(k, val uint64, maxVersion uint32) bool {
	return val-mix64(k^ks.valSalt) <= uint64(maxVersion)
}

// opKind is the request kind of a batch.
type opKind uint8

const (
	opInsert opKind = iota
	opUpsert
	opLookup
)

// batch is one request: keys with their expected outcome. For
// mutations vals are the values sent; for lookups, idx holds each key's
// index (preloaded keys) or absent marks a key never inserted.
type batch struct {
	kind   opKind
	keys   []uint64
	vals   []uint64
	idx    []uint64
	absent []bool
}

func newBatch() *batch {
	return &batch{
		keys:   make([]uint64, 0, batchKeys),
		vals:   make([]uint64, 0, batchKeys),
		idx:    make([]uint64, 0, batchKeys),
		absent: make([]bool, 0, batchKeys),
	}
}

func (b *batch) reset(kind opKind) {
	b.kind = kind
	b.keys, b.vals, b.idx, b.absent = b.keys[:0], b.vals[:0], b.idx[:0], b.absent[:0]
}

// spec is one workload's shape. All sizes are fixed per workload: the
// timed phase sends timedBatchesPerSecond x --seconds batches, so a run
// does the same work whatever the machine's speed (a time-bounded run
// ends inside a merge cascade at a point that depends on speed).
type spec struct {
	name    string
	preload int // keys inserted by set-up, indices [0, preload); a multiple of batchKeys
	// warmBatches read batches sent, untimed, after the preload.
	warmBatches int
	// timedBatchesPerSecond sets the timed phase's fixed batch count.
	timedBatchesPerSecond int
	// tailBatches upsert batches follow the timed phase, so every crash
	// image ends in acknowledged overwrites the recovery must replay in
	// order.
	tailBatches int
	// zipfS and absentEvery shape lookup-hot's reads.
	zipfS       float64
	absentEvery int
}

var specs = []spec{
	{
		name:                  "lookup-hot",
		preload:               2000 * batchKeys,
		warmBatches:           4000,
		timedBatchesPerSecond: 12000,
		tailBatches:           32,
		zipfS:                 1.5,
		absentEvery:           16,
	},
	{
		name:                  "update-cold",
		preload:               4000 * batchKeys,
		warmBatches:           400,
		timedBatchesPerSecond: 1000,
		tailBatches:           32,
	},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q (want lookup-hot or update-cold)", name)
}

// conns is the number of client connections; nproc is 2 on the machine
// the benchmark was tuned on, and one closed-loop connection per CPU
// keeps the client from starving the server.
const conns = 2

// depth is the number of batches each connection keeps in flight.
// conns x depth x batchKeys = 4096 keys, the server's default
// per-engine-call aggregation cap.
const depth = 8

// model is the benchmark's record of what the table holds. Index
// i < preload is the preloaded key key(i), whose version is bumped
// (atomically, before the upsert is sent) by each upsert of it. Once
// every write sent is acked, index i holds value(key(i), maxVersion(i)).
type model struct {
	ks       keyspace
	spec     spec
	versions []atomic.Uint32
}

func newModel(s spec, seed uint64) *model {
	return &model{ks: newKeyspace(seed), spec: s, versions: make([]atomic.Uint32, s.preload)}
}

// liveKeys is the number of keys the table holds once the preload is
// acked: no later write inserts or deletes a key.
func (m *model) liveKeys() int { return m.spec.preload }

// maxVersion is the newest version of index i sent so far.
func (m *model) maxVersion(i uint64) uint32 { return m.versions[i].Load() }

// phase names one stream of batches; each (phase, connection) pair has
// its own seeded generator, so a connection's batches do not depend on
// how the two connections interleave.
type phase uint8

const (
	phasePreload phase = iota
	phaseWarm
	phaseTimed
	phaseTail
)

// stream generates connection c's batches of one phase.
type stream struct {
	m     *model
	ph    phase
	c     int
	n     int // batches in this stream
	rng   *rand.Rand
	zipf  *rand.Zipf
	count int
}

// batches returns how many batches connection c sends in phase ph.
func (m *model) batches(ph phase, c, seconds int) int {
	total := 0
	switch ph {
	case phasePreload:
		total = m.spec.preload / batchKeys
	case phaseWarm:
		total = m.spec.warmBatches
	case phaseTimed:
		total = m.spec.timedBatchesPerSecond * seconds
	case phaseTail:
		total = m.spec.tailBatches
	}
	// Batch g goes to connection g % conns.
	n := total / conns
	if c < total%conns {
		n++
	}
	return n
}

func (m *model) stream(ph phase, c, seconds int, seed uint64) *stream {
	rng := rand.New(rand.NewPCG(seed, mix64(uint64(ph)<<8|uint64(c))))
	s := &stream{m: m, ph: ph, c: c, n: m.batches(ph, c, seconds), rng: rng}
	if m.spec.zipfS > 0 {
		s.zipf = rand.NewZipf(rng, m.spec.zipfS, 1, uint64(m.spec.preload-1))
	}
	return s
}

// next fills b with the stream's next batch, reporting false once the
// stream is exhausted. Mutations update the model before they are sent.
func (s *stream) next(b *batch) bool {
	if s.count >= s.n {
		return false
	}
	g := uint64(s.count*conns + s.c) // global batch number within the phase
	s.count++
	m := s.m
	switch {
	case s.ph == phasePreload:
		s.fresh(b, g*batchKeys)
	case s.ph == phaseTail:
		s.upserts(b)
	case s.ph == phaseTimed && m.spec.name == "update-cold" && s.rng.IntN(2) == 0:
		// update-cold draws each batch's kind, UPSERT or LOOKUP, with
		// probability 1/2, as hashload -lookupfrac 0.5 does.
		s.upserts(b)
	default:
		s.reads(b)
	}
	return true
}

// fresh fills b with inserts of the indices from first on, each at
// version 0.
func (s *stream) fresh(b *batch, first uint64) {
	b.reset(opInsert)
	for i := first; len(b.keys) < batchKeys; i++ {
		k := s.m.ks.key(i)
		b.keys = append(b.keys, k)
		b.vals = append(b.vals, s.m.ks.value(k, 0))
	}
}

// upserts fills b with overwrites of preloaded keys drawn uniformly.
// Connection c only writes keys whose index is c modulo conns, so each
// key's writes come in order from one connection and its last
// acknowledged value is known.
func (s *stream) upserts(b *batch) {
	b.reset(opUpsert)
	m := s.m
	owned := uint64(m.spec.preload / conns)
	for len(b.keys) < batchKeys {
		i := s.rng.Uint64N(owned)*conns + uint64(s.c)
		k := m.ks.key(i)
		v := m.versions[i].Add(1)
		b.keys = append(b.keys, k)
		b.vals = append(b.vals, m.ks.value(k, v))
		b.idx = append(b.idx, i)
	}
}

// reads fills b with lookups: Zipf-ranked preloaded keys with every
// absentEvery-th key never inserted (lookup-hot), or preloaded keys
// drawn uniformly (update-cold).
func (s *stream) reads(b *batch) {
	b.reset(opLookup)
	m := s.m
	for p := 0; p < batchKeys; p++ {
		if m.spec.absentEvery > 0 && p%m.spec.absentEvery == m.spec.absentEvery-1 {
			b.keys = append(b.keys, m.ks.key(absentBase+s.rng.Uint64N(absentKeys)))
			b.idx = append(b.idx, 0)
			b.absent = append(b.absent, true)
			continue
		}
		var i uint64
		if s.zipf != nil {
			i = s.zipf.Uint64()
		} else {
			i = s.rng.Uint64N(uint64(m.spec.preload))
		}
		b.keys = append(b.keys, m.ks.key(i))
		b.idx = append(b.idx, i)
		b.absent = append(b.absent, false)
	}
}
