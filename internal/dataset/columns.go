package dataset

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// Columns returns a column-major view of X: Columns()[j][i] == X[i][j].
// It is built lazily on first use, cached on the dataset, and safe for
// concurrent use. The hot loops of split finding and peeling scan one
// feature at a time; the columnar layout turns those scans into
// sequential walks over a single contiguous slice instead of strided
// loads across every row.
//
// The view (and the dataset) must not be mutated after the first call.
func (d *Dataset) Columns() [][]float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.columnsLocked()
}

func (d *Dataset) columnsLocked() [][]float64 {
	if d.cols != nil {
		return d.cols
	}
	n, m := d.N(), d.M()
	if m == 0 {
		return nil
	}
	backing := make([]float64, n*m)
	cols := make([][]float64, m)
	for j := range cols {
		cols[j] = backing[j*n : (j+1)*n : (j+1)*n]
	}
	for i, row := range d.X {
		for j, v := range row {
			cols[j][i] = v
		}
	}
	d.cols = cols
	return cols
}

// SortedOrders returns, for every input column j, the row indices sorted
// by X[i][j] in a deterministic total order: ascending value, -0 equal
// to +0, ties broken by row index, and every NaN last (in row order).
// It is computed once — an O(M·N) radix sort, columns spread over up to
// GOMAXPROCS workers — cached on the dataset and shared by every
// consumer (each random-forest tree, each boosting round, each PRIM
// run), which is what lets the split and peel loops drop their
// per-node / per-step sorts.
//
// Callers must not mutate the returned slices; derive copies instead.
func (d *Dataset) SortedOrders() [][]int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.sortedOrdersLocked()
}

func (d *Dataset) sortedOrdersLocked() [][]int {
	if d.ords != nil {
		return d.ords
	}
	n, m := d.N(), d.M()
	if m == 0 {
		return nil
	}
	cols := d.columnsLocked()
	backing := make([]int, n*m)
	ords := make([][]int, m)
	for j := range ords {
		ords[j] = backing[j*n : (j+1)*n : (j+1)*n]
	}
	// Columns are claimed from an atomic counter by min(GOMAXPROCS, M)
	// workers, the caller being one of them, each with its own scratch.
	var next atomic.Int64
	work := func() {
		s := &radixScratch{src: make([]keyRow, n), dst: make([]keyRow, n)}
		for j := int(next.Add(1)) - 1; j < m; j = int(next.Add(1)) - 1 {
			s.sort(cols[j], ords[j])
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(runtime.GOMAXPROCS(0), m); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	d.ords = ords
	return ords
}

const (
	radixBits    = 11
	radixBuckets = 1 << radixBits
	radixPasses  = (64 + radixBits - 1) / radixBits
)

// radixScratch is one worker's buffers for sorting columns of n rows:
// two ping-pong arrays of (key, row) pairs (32 B per row) and the digit
// histograms of every pass. Keeping key and row side by side halves the
// scattered write streams of a pass compared with parallel arrays.
type radixScratch struct {
	src, dst []keyRow
	counts   [radixPasses][radixBuckets]int
}

type keyRow struct {
	key uint64
	row int
}

// sortKey maps a float64 onto a uint64 whose unsigned order is the
// float order: the sign bit is flipped for non-negative values and every
// bit for negative ones. -0 is canonicalized to +0 so the two tie (and
// fall back to row order), and every NaN maps above +Inf.
func sortKey(v float64) uint64 {
	if math.IsNaN(v) {
		return math.MaxUint64
	}
	if v == 0 {
		return 1 << 63
	}
	b := math.Float64bits(v)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// sort writes into ord the rows of col in SortedOrders' total order: a
// stable LSD radix sort of the keys, starting from row order, so equal
// keys keep ascending row order. A pass whose digit is the same for
// every row would not move anything and is skipped.
func (s *radixScratch) sort(col []float64, ord []int) {
	n := len(col)
	if n == 0 {
		return
	}
	src, dst := s.src[:n], s.dst[:n]
	s.counts = [radixPasses][radixBuckets]int{}
	for i, v := range col {
		k := sortKey(v)
		src[i] = keyRow{k, i}
		for p := range s.counts {
			s.counts[p][k>>(p*radixBits)&(radixBuckets-1)]++
		}
	}
	for p := range s.counts {
		shift := p * radixBits
		c := &s.counts[p]
		if c[src[0].key>>shift&(radixBuckets-1)] == n {
			continue
		}
		sum := 0
		for b, cnt := range c {
			c[b] = sum
			sum += cnt
		}
		for _, e := range src {
			b := e.key >> shift & (radixBuckets - 1)
			dst[c[b]] = e
			c[b]++
		}
		src, dst = dst, src
	}
	for i, e := range src {
		ord[i] = e.row
	}
}

// invalidate drops the cached columnar views; callers must hold no
// reference to previously returned views. Used when a dataset's contents
// are replaced wholesale (JSON decode into a reused receiver).
func (d *Dataset) invalidate() {
	d.mu.Lock()
	d.cols, d.ords, d.bins = nil, nil, nil
	d.mu.Unlock()
}

// StablePartition reorders the row-index segment seg so rows with goLeft
// set come first, preserving relative order on both sides, and returns
// the left count. The left half is compacted in place (writes trail
// reads); the right half spills into scratch — which must be at least
// len(seg) long — and is copied back.
//
// This is the kernel that keeps per-feature sorted orders (derived from
// SortedOrders) sorted through recursive tree splits: partitioning a
// sorted list stably by the split predicate leaves both halves sorted.
func StablePartition(seg []int, goLeft []bool, scratch []int) int {
	nl, nr := 0, 0
	for _, r := range seg {
		if goLeft[r] {
			seg[nl] = r
			nl++
		} else {
			scratch[nr] = r
			nr++
		}
	}
	copy(seg[nl:], scratch[:nr])
	return nl
}
