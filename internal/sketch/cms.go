package sketch

import (
	"fmt"

	"pghive/internal/pg"
)

// CountMin bounds: width is a power of two in [2^4, 2^22], depth in [1, 8].
const (
	MinCMSLogWidth = 4
	MaxCMSLogWidth = 22
	MaxCMSDepth    = 8
	// DefaultCMSLogWidth/DefaultCMSDepth size a table at 2^14 × 4 × 4 B =
	// 256 KiB — small enough to hold per edge-type direction, wide enough
	// that conservative update keeps low-degree endpoints near exact at
	// hundreds of thousands of distinct keys.
	DefaultCMSLogWidth = 14
	DefaultCMSDepth    = 4
)

// rowSeeds decorrelate the depth rows. Fixed constants, so independently
// built sketches (different shards) hash identically and merge soundly.
var rowSeeds = [MaxCMSDepth]uint64{
	0x9ae16a3b2f90404f, 0xc3a5c85c97cb3127, 0xb492b66fbe98f273, 0x9ddfea08eb382d69,
	0x8f14e45fceea167a, 0xa54ff53a5f1d36f1, 0x510e527fade682d1, 0x9b05688c2b3e6c1f,
}

// CountMin is a conservative-update count-min sketch over 64-bit keys with
// uint32 counters. Point queries return the row-wise minimum, an upper
// bound on the true count; conservative update only raises the counters
// that equal the current estimate, which keeps low-count keys (the common
// case for degree evidence) much tighter than a plain count-min.
type CountMin struct {
	logW  uint8
	depth uint8
	rows  []uint32 // depth consecutive rows of 1<<logW counters
}

// NewCountMin returns an empty sketch (parameters clamped to the bounds).
func NewCountMin(logW, depth int) *CountMin {
	if logW < MinCMSLogWidth {
		logW = MinCMSLogWidth
	}
	if logW > MaxCMSLogWidth {
		logW = MaxCMSLogWidth
	}
	if depth < 1 {
		depth = 1
	}
	if depth > MaxCMSDepth {
		depth = MaxCMSDepth
	}
	return &CountMin{logW: uint8(logW), depth: uint8(depth), rows: make([]uint32, depth<<logW)}
}

// cell returns the flat index of key's counter in row d.
func (c *CountMin) cell(d int, key uint64) int {
	h := Mix64(key ^ rowSeeds[d])
	return d<<c.logW + int(h>>(64-c.logW))
}

// Inc observes one occurrence of key with conservative update and returns
// the updated estimate.
func (c *CountMin) Inc(key uint64) uint32 {
	est := uint32(1<<32 - 1)
	for d := 0; d < int(c.depth); d++ {
		if v := c.rows[c.cell(d, key)]; v < est {
			est = v
		}
	}
	if est == 1<<32-1 {
		return est // saturated
	}
	est++
	for d := 0; d < int(c.depth); d++ {
		if i := c.cell(d, key); c.rows[i] < est {
			c.rows[i] = est
		}
	}
	return est
}

// IncN observes n occurrences of key in one conservative step: every
// counter rises to at least (prior estimate + n), a sound upper bound for
// the batched stream.
func (c *CountMin) IncN(key uint64, n uint32) {
	if n == 0 {
		return
	}
	est := c.Estimate(key)
	target := uint64(est) + uint64(n)
	if target > 1<<32-1 {
		target = 1<<32 - 1
	}
	for d := 0; d < int(c.depth); d++ {
		if i := c.cell(d, key); uint64(c.rows[i]) < target {
			c.rows[i] = uint32(target)
		}
	}
}

// Estimate returns the upper-bound count for key.
func (c *CountMin) Estimate(key uint64) uint32 {
	est := uint32(1<<32 - 1)
	for d := 0; d < int(c.depth); d++ {
		if v := c.rows[c.cell(d, key)]; v < est {
			est = v
		}
	}
	return est
}

// Merge folds other into c by element-wise saturating addition. After a
// merge the estimates upper-bound the combined stream (conservative
// update's extra tightness degrades toward plain count-min, which is still
// sound). Dimensions must match.
func (c *CountMin) Merge(other *CountMin) error {
	if c.logW != other.logW || c.depth != other.depth {
		return fmt.Errorf("sketch: count-min shape mismatch: %dx2^%d vs %dx2^%d",
			c.depth, c.logW, other.depth, other.logW)
	}
	for i, v := range other.rows {
		if s := uint64(c.rows[i]) + uint64(v); s > 1<<32-1 {
			c.rows[i] = 1<<32 - 1
		} else {
			c.rows[i] = uint32(s)
		}
	}
	return nil
}

// Clone returns a deep copy.
func (c *CountMin) Clone() *CountMin {
	n := &CountMin{logW: c.logW, depth: c.depth, rows: make([]uint32, len(c.rows))}
	copy(n.rows, c.rows)
	return n
}

// CloneEmpty returns an empty sketch with the same shape (merge targets
// built lazily must match the source's dimensions).
func (c *CountMin) CloneEmpty() *CountMin {
	return &CountMin{logW: c.logW, depth: c.depth, rows: make([]uint32, len(c.rows))}
}

// MemBytes estimates the retained size.
func (c *CountMin) MemBytes() int { return len(c.rows)*4 + 16 }

// Write serializes the sketch. Counters are varint-packed: degree tables
// are mostly zeros and small counts, so this is far denser than fixed
// width.
func (c *CountMin) Write(w *pg.WireWriter) {
	w.Byte(c.logW)
	w.Byte(c.depth)
	w.Uvarint32s(c.rows)
}

// ReadCountMin decodes a sketch written by Write.
func ReadCountMin(r *pg.WireReader) (*CountMin, error) {
	logW, err := r.Byte()
	if err != nil {
		return nil, fmt.Errorf("sketch: count-min width: %w", err)
	}
	if logW < MinCMSLogWidth || logW > MaxCMSLogWidth {
		return nil, fmt.Errorf("sketch: count-min log-width %d out of range", logW)
	}
	depth, err := r.Byte()
	if err != nil {
		return nil, fmt.Errorf("sketch: count-min depth: %w", err)
	}
	if depth < 1 || depth > MaxCMSDepth {
		return nil, fmt.Errorf("sketch: count-min depth %d out of range", depth)
	}
	c := &CountMin{logW: logW, depth: depth, rows: make([]uint32, int(depth)<<logW)}
	for i := range c.rows {
		v, err := r.Uvarint(1<<32 - 1)
		if err != nil {
			return nil, fmt.Errorf("sketch: count-min counter %d: %w", i, err)
		}
		c.rows[i] = uint32(v)
	}
	return c, nil
}
