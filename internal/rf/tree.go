// Package rf implements a random forest of CART regression trees over
// binary (or probabilistic) labels — the "f" metamodel of the paper. Mean
// aggregation over trees yields the probability estimate f_am(x) that
// Algorithm 4 thresholds or, in the "p" variant, uses directly.
//
// Tree induction runs on a columnar fast path: the dataset-level sorted
// orders (dataset.SortedOrders, computed once and shared by every tree)
// are specialized to each bootstrap sample, kept sorted through every
// split by stable partitioning, and swept with running prefix sums — so
// finding a node's best split is O(n) per candidate feature instead of
// the O(n log n) sort per node of the original induction, which
// tree_reference_test.go keeps as a test oracle.
package rf

import (
	"math/rand"

	"github.com/reds-go/reds/internal/dataset"
)

// treeNode is a node of a regression tree stored in a flat slice.
// Leaves have feature == -1 and carry the mean label in value.
type treeNode struct {
	feature int
	split   float64
	value   float64
	left    int
	right   int
}

// tree is one CART regression tree.
type tree struct {
	nodes []treeNode
	// gains accumulates the variance-reduction gain per feature,
	// feeding the forest's importance estimate.
	gains []float64
}

// treeConfig controls tree induction.
type treeConfig struct {
	mtry     int // features considered per split
	minLeaf  int // minimum examples per leaf
	maxDepth int // 0 = unlimited
}

func (t *tree) leaf(mean float64) int {
	t.nodes = append(t.nodes, treeNode{feature: -1, value: mean})
	return len(t.nodes) - 1
}

// predict returns the leaf mean for x.
func (t *tree) predict(x []float64) float64 {
	node := 0
	for {
		nd := &t.nodes[node]
		if nd.feature < 0 {
			return nd.value
		}
		if x[nd.feature] <= nd.split {
			node = nd.left
		} else {
			node = nd.right
		}
	}
}

// treeBuilder grows trees over a fixed dataset from presorted feature
// orders. One builder serves one worker goroutine: its scratch buffers
// are reused across the trees that worker grows, so steady-state tree
// induction allocates only the tree itself.
type treeBuilder struct {
	cols   [][]float64 // columnar view: cols[j][row]
	y      []float64
	shared [][]int // dataset-level ascending row order per feature
	cfg    treeConfig

	counts  []int   // bootstrap multiplicity per dataset row
	orders  [][]int // per-feature sorted row lists of the current tree, segmented by node
	rows    []int   // node rows in bootstrap order, segmented like orders
	goLeft  []bool  // per dataset row: goes left at the split being applied
	scratch []int   // right-half spill buffer for stable partitioning

	t   *tree
	rng *rand.Rand
}

// newTreeBuilder allocates a builder for n-row bootstraps over the given
// columnar dataset view and shared sorted orders.
func newTreeBuilder(cols [][]float64, y []float64, shared [][]int, cfg treeConfig) *treeBuilder {
	n := len(y)
	m := len(cols)
	orders := make([][]int, m)
	for f := range orders {
		orders[f] = make([]int, n)
	}
	return &treeBuilder{
		cols:    cols,
		y:       y,
		shared:  shared,
		cfg:     cfg,
		counts:  make([]int, n),
		orders:  orders,
		rows:    make([]int, n),
		goLeft:  make([]bool, n),
		scratch: make([]int, n),
	}
}

// build grows one tree on the bootstrap rows idx (dataset row ids, with
// multiplicity, in draw order). The per-feature sorted orders of the
// bootstrap are derived from the shared dataset orders by counting — an
// O(N) merge per feature instead of an O(n log n) sort.
func (b *treeBuilder) build(idx []int, rng *rand.Rand) *tree {
	n := len(idx)
	for i := range b.counts {
		b.counts[i] = 0
	}
	for _, i := range idx {
		b.counts[i]++
	}
	for f := range b.orders {
		ord := b.orders[f][:0]
		for _, r := range b.shared[f] {
			for c := b.counts[r]; c > 0; c-- {
				ord = append(ord, r)
			}
		}
		b.orders[f] = ord
	}
	b.rows = append(b.rows[:0], idx...)

	b.t = &tree{gains: make([]float64, len(b.cols))}
	b.rng = rng
	b.grow(0, n, 0)
	return b.t
}

// grow appends the subtree over the segment [lo, hi) of the node lists
// and returns its node index.
func (b *treeBuilder) grow(lo, hi, depth int) int {
	t, cfg := b.t, b.cfg
	sum, sq := 0.0, 0.0
	for _, i := range b.rows[lo:hi] {
		sum += b.y[i]
		sq += b.y[i] * b.y[i]
	}
	n := float64(hi - lo)
	mean := sum / n
	// Pure node, too small to split, or depth cap reached: make a leaf.
	variance := sq/n - mean*mean
	if hi-lo < 2*cfg.minLeaf || variance < 1e-12 ||
		(cfg.maxDepth > 0 && depth >= cfg.maxDepth) {
		return t.leaf(mean)
	}

	feat, split, gain, ok := b.bestSplit(lo, hi, sum)
	if !ok {
		return t.leaf(mean)
	}
	t.gains[feat] += gain

	nl := b.partition(lo, hi, feat, split)
	if nl == 0 || nl == hi-lo {
		return t.leaf(mean)
	}

	self := len(t.nodes)
	t.nodes = append(t.nodes, treeNode{feature: feat, split: split})
	l := b.grow(lo, lo+nl, depth+1)
	r := b.grow(lo+nl, hi, depth+1)
	t.nodes[self].left = l
	t.nodes[self].right = r
	return self
}

// bestSplit finds the (feature, threshold) pair maximizing the variance
// reduction over mtry randomly chosen features. The node's rows are
// already sorted along every feature, so each candidate is a single
// prefix-sum sweep. It returns ok=false when no valid split exists.
func (b *treeBuilder) bestSplit(lo, hi int, totalSum float64) (feat int, split, gain float64, ok bool) {
	m := len(b.cols)
	mtry := b.cfg.mtry
	if mtry <= 0 || mtry > m {
		mtry = m
	}
	feats := b.rng.Perm(m)[:mtry]

	n := hi - lo
	total := totalSum
	bestGain := 0.0

	for _, f := range feats {
		seg := b.orders[f][lo:hi]
		col := b.cols[f]
		// Scan split positions between distinct values.
		leftSum := 0.0
		for k := 0; k < n-1; k++ {
			i := seg[k]
			leftSum += b.y[i]
			if col[seg[k+1]] == col[i] {
				continue // not a valid cut point
			}
			nl := k + 1
			nr := n - nl
			if nl < b.cfg.minLeaf || nr < b.cfg.minLeaf {
				continue
			}
			rightSum := total - leftSum
			// Variance reduction is, up to constants, the gain in
			// sum-of-squares of child means.
			g := leftSum*leftSum/float64(nl) + rightSum*rightSum/float64(nr) - total*total/float64(n)
			if g > bestGain+1e-12 {
				bestGain = g
				feat = f
				split = (col[i] + col[seg[k+1]]) / 2
				ok = true
			}
		}
	}
	return feat, split, bestGain, ok
}

// partition stably splits the node segment [lo, hi) of the bootstrap-order
// row list and of every per-feature sorted list on x[feat] <= split, so
// both children remain sorted along every feature. Returns the left child
// size (with bootstrap multiplicity).
func (b *treeBuilder) partition(lo, hi, feat int, split float64) int {
	col := b.cols[feat]
	// Duplicated bootstrap rows share one dataset row id and one value,
	// so a per-dataset-row side assignment routes every copy together.
	for _, r := range b.rows[lo:hi] {
		b.goLeft[r] = col[r] <= split
	}
	nl := dataset.StablePartition(b.rows[lo:hi], b.goLeft, b.scratch)
	for f := range b.orders {
		dataset.StablePartition(b.orders[f][lo:hi], b.goLeft, b.scratch)
	}
	return nl
}
