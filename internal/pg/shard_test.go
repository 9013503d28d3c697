package pg

import (
	"slices"
	"testing"
)

// partitionGraph builds a fixed element population chopped into batches of
// the given size — same elements, different batch boundaries.
func partitionGraph(batchSize int) []*Batch {
	const nodes, edges = 120, 80
	var all Batch
	for i := 0; i < nodes; i++ {
		all.Nodes = append(all.Nodes, NodeRecord{
			ID: ID(i), Labels: []string{"Person"}, Props: Properties{"age": Int(int64(i))},
		})
	}
	for i := 0; i < edges; i++ {
		all.Edges = append(all.Edges, EdgeRecord{
			ID: ID(1000 + i), Labels: []string{"KNOWS"},
			Src: ID(i), Dst: ID((i + 1) % nodes),
			SrcLabels: []string{"Person"}, DstLabels: []string{"Person"},
		})
	}
	var out []*Batch
	for len(all.Nodes) > 0 || len(all.Edges) > 0 {
		b := &Batch{}
		for len(b.Nodes) < batchSize && len(all.Nodes) > 0 {
			b.Nodes = append(b.Nodes, all.Nodes[0])
			all.Nodes = all.Nodes[1:]
		}
		for b.Len() < batchSize && len(all.Edges) > 0 {
			b.Edges = append(b.Edges, all.Edges[0])
			all.Edges = all.Edges[1:]
		}
		out = append(out, b)
	}
	return out
}

// partitionIDs partitions every batch into n parts and returns each part's
// element IDs in arrival order, concatenated across batches.
func partitionIDs(t *testing.T, batches []*Batch, n int) [][]ID {
	t.Helper()
	var out [][]ID
	for _, b := range batches {
		parts := PartitionBatch(b, n)
		if out == nil {
			out = make([][]ID, len(parts))
		}
		if len(parts) != len(out) {
			t.Fatalf("PartitionBatch(_, %d) returned %d parts, earlier %d", n, len(parts), len(out))
		}
		for i, p := range parts {
			for _, nd := range p.Nodes {
				out[i] = append(out[i], nd.ID)
			}
			for _, e := range p.Edges {
				out[i] = append(out[i], e.ID)
			}
		}
	}
	return out
}

// TestPartitionBatchExactlyOnce: every element lands in exactly one part,
// and that part is the one ShardOf names.
func TestPartitionBatchExactlyOnce(t *testing.T) {
	const shards = 4
	seen := map[ID]int{}
	total := 0
	for i, ids := range partitionIDs(t, partitionGraph(16), shards) {
		for _, id := range ids {
			seen[id]++
			total++
			if got := ShardOf(id, shards); got != i {
				t.Fatalf("element %v in part %d, ShardOf says %d", id, i, got)
			}
		}
	}
	if total != 200 {
		t.Fatalf("partitioned %d elements, want 200", total)
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("element %v partitioned %d times", id, n)
		}
	}
}

// TestPartitionBatchDeterministicAcrossBatchBoundaries: the same population
// chopped into different batch sizes gives every shard the same element
// set, in the same relative order — the assignment may not depend on where
// the batch boundaries fall.
func TestPartitionBatchDeterministicAcrossBatchBoundaries(t *testing.T) {
	const shards = 3
	want := partitionIDs(t, partitionGraph(7), shards)
	for _, size := range []int{1, 16, 50, 500} {
		got := partitionIDs(t, partitionGraph(size), shards)
		for i := range got {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("batch size %d: shard %d got %v, want %v (batch size 7)", size, i, got[i], want[i])
			}
		}
	}
}

// TestPartitionBatchSingleShardPassesEverything: n ≤ 1 gives one part that
// holds the whole batch in order.
func TestPartitionBatchSingleShardPassesEverything(t *testing.T) {
	b := partitionGraph(500)[0]
	for _, n := range []int{1, 0, -3} {
		parts := PartitionBatch(b, n)
		if len(parts) != 1 {
			t.Fatalf("n=%d: %d parts, want 1", n, len(parts))
		}
		if !slices.EqualFunc(parts[0].Nodes, b.Nodes, func(x, y NodeRecord) bool { return x.ID == y.ID }) ||
			!slices.EqualFunc(parts[0].Edges, b.Edges, func(x, y EdgeRecord) bool { return x.ID == y.ID }) {
			t.Fatalf("n=%d: the single part differs from the batch", n)
		}
	}
}
