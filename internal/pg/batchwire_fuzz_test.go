package pg_test

import (
	"bytes"
	"runtime"
	"testing"

	"pghive/internal/datagen"
	"pghive/internal/pg"
)

func writeBatch(tb testing.TB, b *pg.Batch) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := pg.NewWireWriter(&buf)
	if err := pg.WriteBatch(w, b); err != nil {
		tb.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadBatch: arbitrary bytes must never panic the batch decoder that
// spill files and serve ingest read through, and whatever it accepts must
// re-encode to bytes that decode and re-encode to themselves. Seeds are
// real encodings: an LDBC datagen batch, the same batch's edges alone, and
// an empty batch. The LDBC batch is kept small (733 bytes) because the fuzzer
// minimizes every new input it derives from a seed, and minimizing a
// multi-KB input can take a whole 20 s smoke run.
func FuzzReadBatch(f *testing.F) {
	ds := datagen.Generate(datagen.ProfileByName("LDBC"), datagen.Options{Nodes: 24, Seed: 1})
	ldbc := ds.Graph.SplitRandom(8, 1)[0]
	for _, b := range []*pg.Batch{ldbc, {Edges: ldbc.Edges}, {}} {
		f.Add(writeBatch(f, b))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := pg.ReadBatch(pg.NewWireReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		enc := writeBatch(t, b)
		again, err := pg.ReadBatch(pg.NewWireReader(bytes.NewReader(enc)))
		if err != nil {
			t.Fatalf("re-decoding an accepted batch: %v", err)
		}
		if !bytes.Equal(writeBatch(t, again), enc) {
			t.Fatal("accepted batch does not round-trip")
		}
	})
}

// TestReadBatchForgedCountsBounded: headers that claim the largest counts
// the codec admits, with no records behind them, fail on the short read
// without allocating for the claim.
func TestReadBatchForgedCountsBounded(t *testing.T) {
	const claim = 1<<28 - 1
	var forged [][]byte
	for _, prefix := range [][]uint64{
		{claim, 0},          // node records
		{0, claim},          // edge records
		{1, 0, 7, claim},    // one node's labels
		{1, 0, 7, 0, claim}, // one node's properties
	} {
		var buf bytes.Buffer
		w := pg.NewWireWriter(&buf)
		for _, x := range prefix {
			w.Uvarint(x)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		forged = append(forged, buf.Bytes())
	}
	for i, data := range forged {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := pg.ReadBatch(pg.NewWireReader(bytes.NewReader(data))); err == nil {
			t.Fatalf("forged header %d decoded", i)
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
			t.Errorf("forged header %d allocated %d bytes", i, grew)
		}
	}
}
