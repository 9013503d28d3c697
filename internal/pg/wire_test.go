package pg

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"testing"
)

// wireBytes runs emit against a WireWriter over a buffer of the given
// bufio size and returns the flushed output.
func wireBytes(t *testing.T, size int, emit func(w *WireWriter)) []byte {
	t.Helper()
	var out bytes.Buffer
	w := NewWireWriter(bufio.NewWriterSize(&out, size))
	emit(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestWirePrimitivesMatchPutForms: the appending primitives emit exactly
// the bytes of the encoding/binary Put forms at boundary values.
func TestWirePrimitivesMatchPutForms(t *testing.T) {
	var buf [binary.MaxVarintLen64]byte
	for _, x := range []uint64{0, 1, 127, 128, 1<<14 - 1, 1 << 14, math.MaxUint32, math.MaxUint32 + 1, math.MaxUint64} {
		want := buf[:binary.PutUvarint(buf[:], x)]
		if got := wireBytes(t, 4096, func(w *WireWriter) { w.Uvarint(x) }); !bytes.Equal(got, want) {
			t.Errorf("Uvarint(%d) = %x, want %x", x, got, want)
		}
	}
	for _, x := range []int64{0, 1, -1, 63, -64, 64, -65, math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64} {
		want := buf[:binary.PutVarint(buf[:], x)]
		if got := wireBytes(t, 4096, func(w *WireWriter) { w.Varint(x) }); !bytes.Equal(got, want) {
			t.Errorf("Varint(%d) = %x, want %x", x, got, want)
		}
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 1, -1.5, math.NaN(), math.Float64frombits(0x7ff8dead_beef0001), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, math.MaxFloat64} {
		binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(f))
		if got := wireBytes(t, 4096, func(w *WireWriter) { w.Float64(f) }); !bytes.Equal(got, buf[:8]) {
			t.Errorf("Float64(%x) = %x, want %x", math.Float64bits(f), got, buf[:8])
		}
	}
}

// TestUvarint32sMatchesUvarint: the bulk write equals one Uvarint per value,
// including when a 16-byte buffer fills and flushes mid-slice.
func TestUvarint32sMatchesUvarint(t *testing.T) {
	var xs []uint32
	for i := 0; i < 200; i++ {
		xs = append(xs, uint32(i)*uint32(i)*2654435761, 0, 127, 128, math.MaxUint32)
	}
	for _, size := range []int{16, 4096} {
		for _, n := range []int{0, 1, 3, 7, len(xs)} {
			want := wireBytes(t, size, func(w *WireWriter) {
				for _, x := range xs[:n] {
					w.Uvarint(uint64(x))
				}
			})
			got := wireBytes(t, size, func(w *WireWriter) { w.Uvarint32s(xs[:n]) })
			if !bytes.Equal(got, want) {
				t.Errorf("buffer %d, %d values: Uvarint32s = %x, want %x", size, n, got, want)
			}
			// A leading byte shifts where the buffer boundary cuts the slice.
			got = wireBytes(t, size, func(w *WireWriter) { w.Byte(9); w.Uvarint32s(xs[:n]) })
			if !bytes.Equal(got[1:], want) {
				t.Errorf("buffer %d, %d values after one byte: Uvarint32s differs", size, n)
			}
		}
	}
}

// TestBytesMatchesString: a byte payload is framed exactly like a string.
func TestBytesMatchesString(t *testing.T) {
	for _, p := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("section"), 5000)} {
		want := wireBytes(t, 16, func(w *WireWriter) { w.String(string(p)) })
		if got := wireBytes(t, 16, func(w *WireWriter) { w.Bytes(p) }); !bytes.Equal(got, want) {
			t.Errorf("Bytes(%d bytes) differs from String", len(p))
		}
	}
}

// TestWirePrimitivesAllocFree: on a warm writer no primitive allocates.
func TestWirePrimitivesAllocFree(t *testing.T) {
	w := NewWireWriter(bufio.NewWriter(io.Discard))
	rows := make([]uint32, 1<<12)
	for i := range rows {
		rows[i] = uint32(i * 7919)
	}
	payload := bytes.Repeat([]byte{0xab}, 100)
	for name, emit := range map[string]func(){
		"Uvarint":    func() { w.Uvarint(math.MaxUint64) },
		"Varint":     func() { w.Varint(math.MinInt64) },
		"Float64":    func() { w.Float64(math.Pi) },
		"Uvarint32s": func() { w.Uvarint32s(rows) },
		"Bytes":      func() { w.Bytes(payload) },
	} {
		if n := testing.AllocsPerRun(100, emit); n != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, n)
		}
	}
}
