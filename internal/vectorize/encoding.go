package vectorize

import (
	"encoding/binary"
	"sort"

	"pghive/internal/pg"
)

// Record is the compact factored form of one element (§4.1 exploited as
// structure rather than materialized): an index into the batch's distinct
// weighted-prefix table plus the ascending indexes of the element's present
// property keys in the kind's sorted key layout. Together they determine the
// element's hybrid vector exactly — prefix floats plus 0/1 suffix — without
// storing any of its d+K (or 3d+Q) entries.
type Record struct {
	// TokenID indexes Encoding.Prefixes / Encoding.PrefixSets.
	TokenID int
	// Props holds the indexes of the element's property keys in the layout,
	// sorted ascending — the suffix positions the dense vector sets to 1, in
	// the order the dense dot-product loop visits them.
	Props []int32
}

// Encoding is the factored representation of one batch kind (nodes or
// edges): every element as a Record over a table of distinct prefix vectors.
// The prefix of a node is its weighted label-set embedding (d floats); the
// prefix of an edge is the concatenation of its label, source and target
// embeddings (3d floats). Distinct prefixes are few (one per label-set token
// for nodes, one per observed (label, src, dst) triple for edges), so the
// factored LSH kernel can precompute per-table projection dots once per
// prefix instead of once per element.
//
// An Encoding is only meaningful against the Vectorizer that produced it:
// Props indexes the Vectorizer's property-key layout, and the prefix floats
// are shared with its weighted-embedding memo. It is immutable after
// construction and safe for concurrent use.
type Encoding struct {
	// Dim is the full hybrid dimensionality (d+K for nodes, 3d+Q for edges).
	Dim int
	// PrefixDim is the width of the shared embedding prefix (d or 3d).
	PrefixDim int
	// Prefixes holds the distinct weighted prefix vectors, indexed by
	// Record.TokenID. Entries are read-only (node prefixes alias the
	// session's weighted memo).
	Prefixes [][]float64
	// PrefixSets holds, per TokenID, the MinHash tokens contributed by the
	// prefix (the L/S/T label-set tokens; empty label sets contribute none).
	PrefixSets [][]uint64
	// PropTokens maps each property-key index of the layout to its MinHash
	// token (hash of 'P' + key).
	PropTokens []uint64
	// Records holds one compact record per element, aligned with the batch.
	Records []Record
}

// encodingBuilder accumulates the distinct-prefix table while scanning a
// batch.
type encodingBuilder struct {
	enc    *Encoding
	ids    map[string]int // prefix fingerprint -> TokenID
	keyPos map[string]int // property key -> layout index
	arena  []int32        // shared backing for all Records' Props
}

func newEncodingBuilder(dim, prefixDim, elements, totalProps int, keyPos map[string]int, propKeys []string) *encodingBuilder {
	enc := &Encoding{
		Dim:        dim,
		PrefixDim:  prefixDim,
		PropTokens: make([]uint64, len(propKeys)),
		Records:    make([]Record, 0, elements),
	}
	for i, k := range propKeys {
		enc.PropTokens[i] = hashToken('P', k)
	}
	return &encodingBuilder{
		enc:    enc,
		ids:    make(map[string]int),
		keyPos: keyPos,
		arena:  make([]int32, 0, totalProps),
	}
}

// add appends one element: resolve (or install) its prefix and collect its
// sorted property indexes from the shared arena.
func (eb *encodingBuilder) add(fingerprint string, props pg.Properties, prefix func() ([]float64, []uint64)) {
	id, ok := eb.ids[fingerprint]
	if !ok {
		id = len(eb.enc.Prefixes)
		eb.ids[fingerprint] = id
		vec, set := prefix()
		eb.enc.Prefixes = append(eb.enc.Prefixes, vec)
		eb.enc.PrefixSets = append(eb.enc.PrefixSets, set)
	}
	start := len(eb.arena)
	for k := range props {
		if pos, ok := eb.keyPos[k]; ok {
			eb.arena = append(eb.arena, int32(pos))
		}
	}
	idx := eb.arena[start:len(eb.arena):len(eb.arena)]
	sortInt32(idx)
	eb.enc.Records = append(eb.enc.Records, Record{TokenID: id, Props: idx})
}

// sortInt32 sorts the typically tiny per-element index slices by insertion;
// large outliers fall back to the library sort.
func sortInt32(a []int32) {
	if len(a) > 48 {
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		return
	}
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

// zeroPrefix returns a shared all-zero prefix for unlabeled (or
// out-of-snapshot) tokens, matching the dense renderer's cleared embedding
// block.
func (v *Vectorizer) zeroPrefix(n int) []float64 { return make([]float64, n) }

// nodePrefix resolves one label-set token to its weighted embedding block
// and MinHash token set.
func (v *Vectorizer) nodePrefix(key string) ([]float64, []uint64) {
	var set []uint64
	if key != "" {
		set = []uint64{hashToken('L', key)}
	}
	if w, ok := v.weighted[key]; ok && key != "" {
		return w, set
	}
	return v.zeroPrefix(v.dim), set
}

// NodeEncoding renders the batch's nodes as compact factored records. The
// receiver must be the Vectorizer built from the same batch (the property
// layout and token snapshot must cover every element).
func (v *Vectorizer) NodeEncoding(b *pg.Batch) *Encoding {
	total := 0
	for i := range b.Nodes {
		total += len(b.Nodes[i].Props)
	}
	eb := newEncodingBuilder(v.NodeDim(), v.dim, len(b.Nodes), total, v.nodeKeyPos, v.nodeKeys)
	for i := range b.Nodes {
		n := &b.Nodes[i]
		key := pg.LabelSetKey(n.Labels)
		eb.add(key, n.Props, func() ([]float64, []uint64) { return v.nodePrefix(key) })
	}
	return eb.enc
}

// EdgeEncoding renders the batch's edges as compact factored records: one
// distinct prefix per observed (label, source, target) label-set triple,
// materialized as the 3d-float concatenation the dense renderer would write.
func (v *Vectorizer) EdgeEncoding(b *pg.Batch) *Encoding {
	total := 0
	for i := range b.Edges {
		total += len(b.Edges[i].Props)
	}
	eb := newEncodingBuilder(v.EdgeDim(), 3*v.dim, len(b.Edges), total, v.edgeKeyPos, v.edgeKeys)
	var fp []byte
	for i := range b.Edges {
		e := &b.Edges[i]
		lk := pg.LabelSetKey(e.Labels)
		sk := pg.LabelSetKey(e.SrcLabels)
		dk := pg.LabelSetKey(e.DstLabels)
		// Length-prefixed parts make the triple fingerprint unambiguous
		// (label keys may contain any byte).
		fp = fp[:0]
		for _, part := range [3]string{lk, sk, dk} {
			fp = binary.LittleEndian.AppendUint32(fp, uint32(len(part)))
			fp = append(fp, part...)
		}
		if id, ok := eb.ids[string(fp)]; ok {
			eb.addKnown(id, e.Props)
			continue
		}
		eb.add(string(fp), e.Props, func() ([]float64, []uint64) { return v.edgePrefix(lk, sk, dk) })
	}
	return eb.enc
}

// addKnown appends one element whose prefix is already installed.
func (eb *encodingBuilder) addKnown(id int, props pg.Properties) {
	start := len(eb.arena)
	for k := range props {
		if pos, ok := eb.keyPos[k]; ok {
			eb.arena = append(eb.arena, int32(pos))
		}
	}
	idx := eb.arena[start:len(eb.arena):len(eb.arena)]
	sortInt32(idx)
	eb.enc.Records = append(eb.enc.Records, Record{TokenID: id, Props: idx})
}

// edgePrefix materializes the concatenated (label, src, dst) weighted
// embedding blocks, exactly as EdgeVectorInto writes them.
func (v *Vectorizer) edgePrefix(lk, sk, dk string) ([]float64, []uint64) {
	d := v.dim
	vec := make([]float64, 3*d)
	v.copyEmbedding(vec[:d], lk)
	v.copyEmbedding(vec[d:2*d], sk)
	v.copyEmbedding(vec[2*d:3*d], dk)
	set := make([]uint64, 0, 3)
	if lk != "" {
		set = append(set, hashToken('L', lk))
	}
	if sk != "" {
		set = append(set, hashToken('S', sk))
	}
	if dk != "" {
		set = append(set, hashToken('T', dk))
	}
	return vec, set
}

// AppendSet appends element i's MinHash token set (the same multiset
// NodeSet/EdgeSet produce — order differs, which MinHash minima ignore) to
// dst and returns it.
func (e *Encoding) AppendSet(dst []uint64, i int) []uint64 {
	r := e.Records[i]
	dst = append(dst, e.PrefixSets[r.TokenID]...)
	for _, k := range r.Props {
		dst = append(dst, e.PropTokens[k])
	}
	return dst
}

// AppendRecordKey appends a canonical byte fingerprint of element i's record
// to dst: two records compare equal exactly when they share the prefix and
// the property-index set, i.e. when their hybrid vectors and token sets are
// identical. Used to memoize signatures per distinct record.
func (e *Encoding) AppendRecordKey(dst []byte, i int) []byte {
	r := e.Records[i]
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.TokenID))
	for _, k := range r.Props {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(k))
	}
	return dst
}

// distinctRecordsHint presizes DistinctRecords' memo map. A clean batch
// holds a few dozen distinct records per kind whatever its size, so the
// hint is fixed and a noisy batch's map simply grows.
const distinctRecordsHint = 32

// DistinctRecords deduplicates the encoding's records: recID maps every
// element to its distinct-record id, and reps holds one representative
// element index per distinct record, in first-appearance order. Signatures
// need computing only once per distinct record — most elements share a type
// and therefore a record.
func (e *Encoding) DistinctRecords() (recID []int, reps []int) {
	recID = make([]int, len(e.Records))
	memo := make(map[string]int, distinctRecordsHint)
	var key []byte
	for i := range e.Records {
		key = e.AppendRecordKey(key[:0], i)
		id, ok := memo[string(key)]
		if !ok {
			id = len(reps)
			memo[string(key)] = id
			reps = append(reps, i)
		}
		recID[i] = id
	}
	return recID, reps
}
