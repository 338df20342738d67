package main

// Correctness checks. Each compares what the program returned with the
// benchmark's own model (keyspace values and the per-key versions the
// benchmark sent) and returns the number of key operations that
// disagree; every disagreement counts as a failed operation.

// checkReads checks one lookup batch's results: a key never inserted
// must be absent, and a present key must hold a value the benchmark
// wrote for it — exactly version 0 until an upsert of it has been sent,
// and at most the newest version sent once one has.
func checkReads(m *model, b *batch, vals []uint64, found []bool) int {
	if len(vals) != len(b.keys) || len(found) != len(b.keys) {
		return len(b.keys)
	}
	bad := 0
	for p, k := range b.keys {
		if b.absent[p] {
			if found[p] {
				bad++
			}
			continue
		}
		if !found[p] {
			bad++
			continue
		}
		if !m.ks.wrote(k, vals[p], m.maxVersion(b.idx[p])) {
			bad++
		}
	}
	return bad
}

// checkExact checks that every key reads exactly its wanted value: the
// last acknowledged value once every write has been acked.
func checkExact(want, vals []uint64, found []bool) int {
	if len(vals) != len(want) || len(found) != len(want) {
		return len(want)
	}
	bad := 0
	for p := range want {
		if !found[p] || vals[p] != want[p] {
			bad++
		}
	}
	return bad
}

// checkAbsent checks that no key of a never-inserted batch is found.
func checkAbsent(found []bool) int {
	bad := 0
	for _, f := range found {
		if f {
			bad++
		}
	}
	return bad
}

// checkEqual counts a count that differs from the benchmark's own — a
// wrong table length, or two independent totals that disagree — as one
// failed check.
func checkEqual(got, want int64) int {
	if got != want {
		return 1
	}
	return 0
}

// checkSpaceAmp counts a space amplification below 1 — table files
// smaller than the live keys' raw bytes, so data is missing — as one
// failed check.
func checkSpaceAmp(amp float64) int {
	if amp < 1 {
		return 1
	}
	return 0
}

// lastAcked fills keys and vals with indices [from, from+cap(keys))
// of the table's expected final contents: every key at its last
// acknowledged value.
func lastAcked(m *model, from int, keys, vals []uint64) ([]uint64, []uint64) {
	keys, vals = keys[:0], vals[:0]
	for i := from; i < from+cap(keys) && i < m.liveKeys(); i++ {
		k := m.ks.key(uint64(i))
		keys = append(keys, k)
		vals = append(vals, m.ks.value(k, m.maxVersion(uint64(i))))
	}
	return keys, vals
}
