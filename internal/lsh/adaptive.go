package lsh

import (
	"math"
	"math/rand"
)

// Params are the LSH parameters chosen for one batch of elements.
type Params struct {
	// Mu is the sampled average pairwise Euclidean distance (the distance
	// scale of the data).
	Mu float64
	// BBase = 1.2·Mu, the base bucket length before the label factor.
	BBase float64
	// Alpha is the label-count factor: 0.8 for L ≤ 3, 1.0 for 4 ≤ L ≤ 10,
	// 1.5 for L > 10.
	Alpha float64
	// Bucket is the final ELSH bucket length b = BBase·Alpha.
	Bucket float64
	// Tables is the number of hash tables T.
	Tables int
}

// Clamp bounds for T: the paper's empirically effective range ("T ∈ [15, 35]
// work well across datasets", §4.2). The printed formula can yield smaller
// values on tiny batches, where so few tables lose all selectivity, so the
// result is clamped into the reported range.
const (
	minTables = 15
	maxTables = 35
)

// edgeAlphaScale maps the node α range [0.8, 1.5] onto the paper's edge
// range [0.5, 1.5] (≈ ×0.75): tighter buckets keep differently-labeled
// edge types apart, and the label-merge step repairs any over-separation.
const edgeAlphaScale = 0.75

// SampleSize returns the paper's element sample size for parameter
// adaptation: 1 % of the population or at least 10 000, capped at the
// population itself (§4.2).
func SampleSize(population int) int {
	s := population / 100
	if s < sampleFloor {
		s = sampleFloor
	}
	if s > population {
		s = population
	}
	return s
}

// SampleIndexes draws the adaptation sample: SampleSize(population) distinct
// indexes, deterministic for a given seed.
func SampleIndexes(population int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Perm(population)[:SampleSize(population)]
}

// AdaptParams implements the paper's adaptive parameterization (§4.2).
// sample holds the vectorized adaptation sample (use SampleIndexes to draw
// it), population is the full batch size N, labelCount is the number of
// distinct label-set tokens L, and isEdge selects the edge variant of the
// T formula (floor 3 and cap 20 instead of 5 and 25).
//
//	µ     = average Euclidean distance over sampled pairs,
//	b_base = 1.2·µ,  b = b_base·α,
//	T = b_base · max(floor, α·min(cap, log10 N)), clamped to [15, 35].
func AdaptParams(sample [][]float64, population int, labelCount int, isEdge bool, seed int64) Params {
	return paramsFromScale(pairDistanceScale(sample, seed), population, labelCount, isEdge)
}

// AdaptParamsRecords is AdaptParams over a sample given in record form:
// distinct holds one vector per distinct record and rec[k] names the record
// of sample element k, so the expanded sample is distinct[rec[k]]. Batches
// of one stream hold few distinct records, so the many repeated pairs are
// served from a per-record-pair memo instead of recomputed. It returns
// exactly what AdaptParams returns on the expanded sample: the pairs are
// drawn from the same seeded rng and summed in the same order, and
// EuclideanDistance is a deterministic, symmetric function of its two
// vectors, so every memoized term has the bits a fresh evaluation would.
func AdaptParamsRecords(distinct [][]float64, rec []int, population int, labelCount int, isEdge bool, seed int64) Params {
	n, r := len(rec), len(distinct)
	dist := func(i, j int) float64 { return EuclideanDistance(distinct[rec[i]], distinct[rec[j]]) }
	// The dense r×r memo pays off only while it has no more cells than
	// there are pair evaluations to serve; past that (many distinct records,
	// as under heavy noise) distances are computed straight from the
	// distinct vectors.
	if n >= 2 && r*r <= pairEvaluations(n) {
		memo := make([]float64, r*r)
		for k := range memo {
			memo[k] = -1
		}
		dist = func(i, j int) float64 {
			a, b := rec[i], rec[j]
			cell := a*r + b
			if d := memo[cell]; d >= 0 {
				return d
			}
			d := EuclideanDistance(distinct[a], distinct[b])
			memo[cell], memo[b*r+a] = d, d
			return d
		}
	}
	return paramsFromScale(meanPairDistance(n, seed, dist), population, labelCount, isEdge)
}

// paramsFromScale derives the LSH parameters from the distance scale µ by
// the formulas documented on AdaptParams.
func paramsFromScale(mu float64, population int, labelCount int, isEdge bool) Params {
	bBase := 1.2 * mu
	if bBase <= 0 {
		// Degenerate batch (all vectors identical or < 2 elements): any
		// positive bucket groups everything together, which is correct.
		bBase = 1
	}
	alpha := alphaForLabels(labelCount)
	floor, cap := 5.0, 25.0
	if isEdge {
		// Edges benefit from slightly smaller α due to their larger vector
		// representation (§4.2: edge α ∈ [0.5, 1.5] vs node [0.5, 2]).
		alpha *= edgeAlphaScale
		floor, cap = 3.0, 20.0
	}
	logN := 0.0
	if population > 1 {
		logN = math.Log10(float64(population))
	}
	t := bBase * math.Max(floor, alpha*math.Min(cap, logN))
	tables := int(math.Round(t))
	if tables < minTables {
		tables = minTables
	}
	if tables > maxTables {
		tables = maxTables
	}
	return Params{
		Mu:     mu,
		BBase:  bBase,
		Alpha:  alpha,
		Bucket: bBase * alpha,
		Tables: tables,
	}
}

// AdaptParamsAll is a convenience wrapper for callers that already hold all
// vectors in memory: it draws the paper's sample internally and adapts on
// it, with population = len(vectors).
func AdaptParamsAll(vectors [][]float64, labelCount int, isEdge bool, seed int64) Params {
	n := len(vectors)
	if n == 0 {
		return AdaptParams(nil, 0, labelCount, isEdge, seed)
	}
	idx := SampleIndexes(n, seed)
	sample := make([][]float64, len(idx))
	for i, j := range idx {
		sample[i] = vectors[j]
	}
	return AdaptParams(sample, n, labelCount, isEdge, seed)
}

// alphaForLabels returns the label-count factor α (§4.2): graphs with few
// labels need tighter buckets to keep types distinct; graphs with many
// labels need wider buckets to avoid over-fragmentation.
func alphaForLabels(labels int) float64 {
	switch {
	case labels <= 3:
		return 0.8
	case labels <= 10:
		return 1.0
	default:
		return 1.5
	}
}

// Sampling limits for the distance-scale estimate.
const (
	sampleFloor = 10_000 // paper: at least 10k elements
	maxPairs    = 20_000 // distance evaluations, not all O(S²) pairs
)

// pairEvaluations returns how many distances meanPairDistance evaluates
// for a sample of n elements: every pair when there are at most maxPairs,
// else maxPairs random ones.
func pairEvaluations(n int) int {
	if n < 2 {
		return 0
	}
	if all := n * (n - 1) / 2; all <= maxPairs {
		return all
	}
	return maxPairs
}

// pairDistanceScale estimates µ, the average pairwise Euclidean distance
// over the sample, evaluating at most maxPairs random pairs.
func pairDistanceScale(sample [][]float64, seed int64) float64 {
	return meanPairDistance(len(sample), seed, func(i, j int) float64 {
		return EuclideanDistance(sample[i], sample[j])
	})
}

// meanPairDistance averages dist(i, j) over pairs of a sample of n
// elements: every pair when there are at most maxPairs, else maxPairs pairs
// drawn from an rng seeded with seed (built only on that branch).
func meanPairDistance(n int, seed int64, dist func(i, j int) float64) float64 {
	count := pairEvaluations(n)
	if count == 0 {
		return 0
	}
	var sum float64
	if count == n*(n-1)/2 {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				sum += dist(i, j)
			}
		}
	} else {
		rng := rand.New(rand.NewSource(seed))
		for k := 0; k < count; k++ {
			i := rng.Intn(n)
			j := rng.Intn(n - 1)
			if j >= i {
				j++
			}
			sum += dist(i, j)
		}
	}
	return sum / float64(count)
}
