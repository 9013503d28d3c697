package lsh

import (
	"math"
	"math/rand"
	"testing"
)

func randomVectors(n, dim int, spread float64, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		v := make([]float64, dim)
		for j := range v {
			v[j] = spread * rng.NormFloat64()
		}
		out[i] = v
	}
	return out
}

func TestAlphaForLabels(t *testing.T) {
	tests := []struct {
		labels int
		want   float64
	}{
		{0, 0.8}, {1, 0.8}, {3, 0.8},
		{4, 1.0}, {7, 1.0}, {10, 1.0},
		{11, 1.5}, {100, 1.5},
	}
	for _, tc := range tests {
		if got := alphaForLabels(tc.labels); got != tc.want {
			t.Errorf("alphaForLabels(%d) = %v, want %v", tc.labels, got, tc.want)
		}
	}
}

func TestSampleSize(t *testing.T) {
	tests := []struct{ population, want int }{
		{0, 0},
		{5, 5},
		{9_999, 9_999},
		{10_000, 10_000},
		{500_000, 10_000},   // 1% = 5000 < floor 10k
		{2_000_000, 20_000}, // 1% = 20k > floor
	}
	for _, tc := range tests {
		if got := SampleSize(tc.population); got != tc.want {
			t.Errorf("SampleSize(%d) = %d, want %d", tc.population, got, tc.want)
		}
	}
}

func TestSampleIndexesDistinct(t *testing.T) {
	idx := SampleIndexes(500, 3)
	if len(idx) != 500 {
		t.Fatalf("len = %d, want 500", len(idx))
	}
	seen := map[int]bool{}
	for _, i := range idx {
		if i < 0 || i >= 500 || seen[i] {
			t.Fatalf("bad or duplicate index %d", i)
		}
		seen[i] = true
	}
}

func TestAdaptParamsBucketScalesWithData(t *testing.T) {
	tight := AdaptParamsAll(randomVectors(500, 8, 0.1, 1), 5, false, 1)
	loose := AdaptParamsAll(randomVectors(500, 8, 10.0, 1), 5, false, 1)
	if tight.Bucket >= loose.Bucket {
		t.Errorf("tight data bucket %v should be below loose data bucket %v", tight.Bucket, loose.Bucket)
	}
	// b = 1.2·µ·α with α=1 here.
	if math.Abs(tight.Bucket-1.2*tight.Mu) > 1e-9 {
		t.Errorf("Bucket = %v, want 1.2µ = %v", tight.Bucket, 1.2*tight.Mu)
	}
}

func TestAdaptParamsAlphaApplied(t *testing.T) {
	vecs := randomVectors(300, 8, 1, 2)
	few := AdaptParamsAll(vecs, 2, false, 1)
	mid := AdaptParamsAll(vecs, 7, false, 1)
	many := AdaptParamsAll(vecs, 20, false, 1)
	if few.Alpha != 0.8 || mid.Alpha != 1.0 || many.Alpha != 1.5 {
		t.Fatalf("alphas = %v %v %v, want 0.8 1.0 1.5", few.Alpha, mid.Alpha, many.Alpha)
	}
	if !(few.Bucket < mid.Bucket && mid.Bucket < many.Bucket) {
		t.Errorf("buckets should grow with label count: %v %v %v", few.Bucket, mid.Bucket, many.Bucket)
	}
}

func TestAdaptParamsTablesClamped(t *testing.T) {
	for _, tc := range []struct {
		n      int
		spread float64
		labels int
		isEdge bool
	}{
		{10, 0.01, 1, false},
		{5000, 100, 20, true}, // large spread pushes T up
		{2, 0.5, 3, false},
		{1, 0, 0, false}, // degenerate: single vector
		{0, 0, 0, true},  // empty input
	} {
		var vecs [][]float64
		if tc.n > 0 {
			vecs = randomVectors(tc.n, 6, tc.spread, 3)
		}
		p := AdaptParamsAll(vecs, tc.labels, tc.isEdge, 1)
		if p.Tables < minTables || p.Tables > maxTables {
			t.Errorf("n=%d spread=%v: Tables = %d outside [%d,%d]", tc.n, tc.spread, p.Tables, minTables, maxTables)
		}
		if p.Bucket <= 0 {
			t.Errorf("n=%d: Bucket = %v, want positive", tc.n, p.Bucket)
		}
	}
}

func TestAdaptParamsDeterministic(t *testing.T) {
	vecs := randomVectors(400, 8, 1, 7)
	a := AdaptParamsAll(vecs, 5, false, 42)
	b := AdaptParamsAll(vecs, 5, false, 42)
	if a != b {
		t.Errorf("AdaptParams not deterministic: %+v vs %+v", a, b)
	}
}

func TestAdaptParamsEdgeVariant(t *testing.T) {
	// With tiny logN, the node floor is 5 and the edge floor is 3, so for
	// identical small inputs T_node ≥ T_edge.
	vecs := randomVectors(20, 6, 1, 9)
	node := AdaptParamsAll(vecs, 5, false, 1)
	edge := AdaptParamsAll(vecs, 5, true, 1)
	if node.Tables < edge.Tables {
		t.Errorf("node T %d < edge T %d; node floor should dominate on small data", node.Tables, edge.Tables)
	}
}

func TestAdaptParamsPopulationDrivesT(t *testing.T) {
	// The same sample with a larger claimed population must not shrink T
	// (T grows with log10 N until the cap).
	sample := randomVectors(100, 6, 3, 4)
	small := AdaptParams(sample, 100, 5, false, 1)
	large := AdaptParams(sample, 10_000_000, 5, false, 1)
	if large.Tables < small.Tables {
		t.Errorf("T(large N) = %d < T(small N) = %d", large.Tables, small.Tables)
	}
}

func TestPairDistanceScaleExactSmall(t *testing.T) {
	// Three points on a line: distances 1, 1, 2 → mean 4/3.
	vecs := [][]float64{{0}, {1}, {2}}
	mu := pairDistanceScale(vecs, 1)
	if math.Abs(mu-4.0/3) > 1e-12 {
		t.Errorf("µ = %v, want 4/3", mu)
	}
}

func TestPairDistanceScaleDegenerate(t *testing.T) {
	if mu := pairDistanceScale(nil, 1); mu != 0 {
		t.Errorf("µ(nil) = %v, want 0", mu)
	}
	if mu := pairDistanceScale([][]float64{{1, 2}}, 1); mu != 0 {
		t.Errorf("µ(single) = %v, want 0", mu)
	}
	// All identical vectors: µ = 0, AdaptParams must still be usable.
	same := make([][]float64, 100)
	for i := range same {
		same[i] = []float64{1, 2, 3}
	}
	p := AdaptParamsAll(same, 1, false, 1)
	if p.Bucket <= 0 {
		t.Errorf("degenerate Bucket = %v, want positive fallback", p.Bucket)
	}
}

func TestPairDistanceScaleLargeInputSampled(t *testing.T) {
	// A large sample must cap pair evaluations and land near the true scale
	// for i.i.d. Gaussians: E||x−y|| ≈ 2.66 for N(0, I₄).
	vecs := randomVectors(30000, 4, 1, 5)
	mu := pairDistanceScale(vecs, 1)
	if mu < 2.2 || mu > 3.2 {
		t.Errorf("µ = %v, want ≈ 2.7 for N(0,I₄) pairs", mu)
	}
}

func TestGroupByKeys(t *testing.T) {
	clusters := GroupByKeys([]string{"a", "b", "a", "c", "b", "a"})
	if len(clusters) != 3 {
		t.Fatalf("got %d clusters, want 3", len(clusters))
	}
	if got := clusters[0].Members; len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 5 {
		t.Errorf("cluster 0 members = %v, want [0 2 5]", got)
	}
}

// TestAdaptParamsRecordsMatchesExpanded: the record form returns exactly
// what AdaptParams returns on the expanded sample, bit for bit, on both µ
// estimators and on both sides of the memo-table rule.
func TestAdaptParamsRecordsMatchesExpanded(t *testing.T) {
	for _, tc := range []struct {
		name     string
		n, r     int // sample size, distinct records
		memoized bool
	}{
		{"empty", 0, 0, false},
		{"single", 1, 1, false},
		{"one-record", 500, 1, true}, // µ = 0: degenerate bBase = 1
		{"all-pairs", 150, 12, true},
		{"all-pairs-distinct", 150, 150, false},
		{"sampled-pairs", 3000, 40, true},
		{"sampled-distinct", 400, 400, false},
		{"duplicate-heavy", 5000, 7, true},
	} {
		distinct := randomVectors(tc.r, 9, 2, int64(tc.r+1))
		rng := rand.New(rand.NewSource(int64(tc.n)))
		rec := make([]int, tc.n)
		sample := make([][]float64, tc.n)
		for k := range rec {
			// Cover every record when all are distinct; skew toward low ids
			// otherwise, so the duplicate mix is uneven.
			rec[k] = k
			if tc.r < tc.n {
				rec[k] = rng.Intn(rng.Intn(tc.r) + 1)
			}
			sample[k] = append([]float64(nil), distinct[rec[k]]...)
		}
		if got := tc.n >= 2 && tc.r*tc.r <= pairEvaluations(tc.n); got != tc.memoized {
			t.Fatalf("%s: memo table used = %t, want %t", tc.name, got, tc.memoized)
		}
		for _, isEdge := range []bool{false, true} {
			want := AdaptParams(sample, tc.n*3, 6, isEdge, 17)
			got := AdaptParamsRecords(distinct, rec, tc.n*3, 6, isEdge, 17)
			if math.Float64bits(got.Mu) != math.Float64bits(want.Mu) ||
				math.Float64bits(got.BBase) != math.Float64bits(want.BBase) ||
				math.Float64bits(got.Bucket) != math.Float64bits(want.Bucket) ||
				got.Tables != want.Tables || got.Alpha != want.Alpha {
				t.Errorf("%s edge=%t: record form %+v, expanded %+v", tc.name, isEdge, got, want)
			}
			if tc.r == 1 && (got.Mu != 0 || got.BBase != 1) {
				t.Errorf("%s edge=%t: µ = %v, bBase = %v; want 0 and the degenerate 1", tc.name, isEdge, got.Mu, got.BBase)
			}
		}
	}
}
