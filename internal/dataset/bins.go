package dataset

import "math"

const (
	// DefaultBins is the per-feature bin budget used when a caller asks
	// for binned training without choosing one. 64 quantile bins keep a
	// node's histograms inside L1 while leaving split quality within the
	// tolerance the differential suites assert.
	DefaultBins = 64
	// MaxBins caps the per-feature bin budget. Codes are stored as uint8,
	// so 256 is a hard representation limit, not just a tuning choice.
	MaxBins = 256
	// minBins is the smallest usable budget: one cut point.
	minBins = 2
)

// Bins is the quantization view behind histogram-binned tree training:
// every feature is mapped onto at most maxBins quantile bins, and every
// cell of X carries its precomputed bin code. Like Columns and
// SortedOrders it is derived lazily, cached on the dataset (per bin
// budget) and shared — one quantization serves every tree of every
// bootstrap, every boosting round, and every fold × grid candidate of a
// tuning run.
//
// Bin b of feature j holds the values v with edges[j][b-1] < v <=
// edges[j][b]; the last bin is unbounded above. Special values route
// deterministically: -Inf always lands in bin 0, while NaN and +Inf land
// in the last bin — mirroring how the exact trees' `x <= split`
// comparison (false for NaN) sends them right at every cut.
type Bins struct {
	edges [][]float64 // per feature: ascending upper-inclusive cut values, len = bins-1
	codes [][]uint8   // column-major: codes[j][i] is the bin of X[i][j]
}

// Bins returns the quantization of the dataset at the given per-feature
// bin budget (clamped to [2, MaxBins]). It is computed once per budget —
// O(M·N): the SortedOrders radix sort plus one coding pass — cached on the
// dataset and safe for concurrent use. The dataset must be treated as
// immutable after the first call, like Columns and SortedOrders.
func (d *Dataset) Bins(maxBins int) *Bins {
	if maxBins < minBins {
		maxBins = minBins
	}
	if maxBins > MaxBins {
		maxBins = MaxBins
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if b, ok := d.bins[maxBins]; ok {
		return b
	}
	b := d.buildBinsLocked(maxBins)
	if d.bins == nil {
		d.bins = make(map[int]*Bins)
	}
	d.bins[maxBins] = b
	return b
}

func (d *Dataset) buildBinsLocked(maxBins int) *Bins {
	n, m := d.N(), d.M()
	b := &Bins{edges: make([][]float64, m), codes: make([][]uint8, m)}
	if n == 0 || m == 0 {
		return b
	}
	cols := d.columnsLocked()
	ords := d.sortedOrdersLocked()
	// Greedy quantile grouping: walk each feature's sorted order by runs
	// of equal values and close a bin once it holds at least ceil(n/maxBins)
	// rows. Runs are never split, so every value maps to exactly one bin
	// and the edges depend only on the multiset of values — row
	// permutations cannot move them.
	target := (n + maxBins - 1) / maxBins
	for j := 0; j < m; j++ {
		col, ord := cols[j], ords[j]
		var edges []float64
		count := 0
		for k := 0; k < n; {
			v := col[ord[k]]
			k2 := k + 1
			if math.IsNaN(v) {
				// NaNs sort last; they are coded into the last bin
				// regardless, so they close no bin here.
				for k2 < n && math.IsNaN(col[ord[k2]]) {
					k2++
				}
				k = k2
				continue
			}
			for k2 < n && col[ord[k2]] == v {
				k2++
			}
			count += k2 - k
			if k2 < n && !math.IsNaN(col[ord[k2]]) && count >= target && len(edges) < maxBins-1 {
				edges = append(edges, binEdge(v, col[ord[k2]]))
				count = 0
			}
			k = k2
		}
		b.edges[j] = edges
		codes := make([]uint8, n)
		for i, v := range col {
			codes[i] = b.Code(j, v)
		}
		b.codes[j] = codes
	}
	return b
}

// binEdge returns an upper-inclusive cut between adjacent distinct sorted
// values a < b: the midpoint (matching the exact trees' thresholds) when
// it is representable strictly inside [a, b), otherwise a itself — which
// still separates the two values under `v <= edge`.
func binEdge(a, b float64) float64 {
	mid := (a + b) / 2
	if math.IsNaN(mid) || math.IsInf(mid, 0) {
		mid = a/2 + b/2
	}
	if math.IsNaN(mid) || mid < a || mid >= b {
		return a
	}
	return mid
}

// NumBins returns the number of bins of feature j (at least 1).
func (b *Bins) NumBins(j int) int { return len(b.edges[j]) + 1 }

// Edge returns the upper-inclusive threshold of bin cut c of feature j:
// a split "bin <= c" corresponds to the float predicate "v <= Edge(j, c)".
func (b *Bins) Edge(j, c int) float64 { return b.edges[j][c] }

// ColumnCodes returns the precomputed bin codes of feature j, indexed by
// dataset row. Callers must not mutate the slice.
func (b *Bins) ColumnCodes(j int) []uint8 { return b.codes[j] }

// Code maps a feature value onto its bin: the first bin whose edge is >=
// v, found by binary search. NaN and +Inf deterministically take the last
// bin; -Inf takes bin 0 (it is <= every edge).
func (b *Bins) Code(j int, v float64) uint8 {
	e := b.edges[j]
	if math.IsNaN(v) {
		return uint8(len(e))
	}
	lo, hi := 0, len(e)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v <= e[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return uint8(lo)
}
