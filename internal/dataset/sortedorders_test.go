package dataset

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
)

// oracleSortedOrders is the comparison sort SortedOrders used before the
// radix sort: ascending by value, ties (including -0 == +0) broken by
// row index. Its comparator is inconsistent on NaN, so it is an oracle
// only for NaN-free columns.
func oracleSortedOrders(d *Dataset) [][]int {
	ords := make([][]int, d.M())
	for j := range ords {
		ord := make([]int, d.N())
		for i := range ord {
			ord[i] = i
		}
		sort.SliceStable(ord, func(a, b int) bool {
			va, vb := d.X[ord[a]][j], d.X[ord[b]][j]
			if va != vb {
				return va < vb
			}
			return ord[a] < ord[b]
		})
		ords[j] = ord
	}
	return ords
}

// checkTotalOrder asserts that ord is a permutation of col's rows in
// SortedOrders' documented order: ascending value with -0 == +0, ties
// by row index, every NaN last in row order.
func checkTotalOrder(t *testing.T, col []float64, ord []int) {
	t.Helper()
	if len(ord) != len(col) {
		t.Fatalf("order has %d entries for %d rows", len(ord), len(col))
	}
	seen := make([]bool, len(col))
	for k, i := range ord {
		if i < 0 || i >= len(col) || seen[i] {
			t.Fatalf("order is not a permutation: entry %d is row %d", k, i)
		}
		seen[i] = true
		if k == 0 {
			continue
		}
		p := ord[k-1]
		a, b := col[p], col[i]
		switch {
		case math.IsNaN(a) && !math.IsNaN(b):
			t.Fatalf("non-NaN row %d (%v) follows NaN row %d", i, b, p)
		case math.IsNaN(a) || a == b:
			if p > i {
				t.Fatalf("tie not broken by row index: row %d before row %d (%v, %v)", p, i, a, b)
			}
		case a > b:
			t.Fatalf("not ascending at %d: %v before %v", k, a, b)
		}
	}
}

// specialColumn fills column kind c with n values drawn to stress one
// corner of the key mapping or of the pass skipping.
func specialColumn(c, n int, rng *rand.Rand) []float64 {
	col := make([]float64, n)
	for i := range col {
		switch c % 8 {
		case 0: // the common case: uniform in [0,1)
			col[i] = rng.Float64()
		case 1: // quantized, so most rows tie
			col[i] = float64(rng.Intn(5)) / 4
		case 2: // signed zeros mixed with small magnitudes
			col[i] = []float64{0, math.Copysign(0, -1), 1e-300, -1e-300}[rng.Intn(4)]
		case 3: // infinities among ordinary values
			col[i] = []float64{math.Inf(-1), math.Inf(1), rng.NormFloat64()}[rng.Intn(3)]
		case 4: // subnormals of both signs
			col[i] = float64(rng.Intn(9)-4) * math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1000))
		case 5: // far outside [0,1], both signs
			col[i] = rng.NormFloat64() * 1e12
		case 6: // constant: every pass is skipped
			col[i] = 0.25
		case 7: // equal high digits, varying low mantissa bits
			col[i] = math.Float64frombits(math.Float64bits(0.5) + uint64(rng.Intn(1<<12)))
		}
	}
	return col
}

func specialDataset(n, m int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	for i := range x {
		x[i] = make([]float64, m)
	}
	for j := 0; j < m; j++ {
		for i, v := range specialColumn(j, n, rng) {
			x[i][j] = v
		}
	}
	return MustNew(x, make([]float64, n))
}

// TestSortedOrdersMatchesOracle: on NaN-free columns the radix sort is
// byte-identical to the comparison sort it replaced, at every size
// around the 11-bit digit boundary, at one and many columns, and at
// GOMAXPROCS 1 and 4 (one worker and a pool).
func TestSortedOrdersMatchesOracle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, n := range []int{0, 1, 2, 2047, 2048, 2049, 100000} {
		for _, m := range []int{1, 20} {
			t.Run(fmt.Sprintf("n=%d/m=%d", n, m), func(t *testing.T) {
				want := oracleSortedOrders(specialDataset(n, m, int64(n+m)))
				for _, procs := range []int{1, 4} {
					runtime.GOMAXPROCS(procs)
					got := specialDataset(n, m, int64(n+m)).SortedOrders()
					if len(got) != len(want) {
						t.Fatalf("GOMAXPROCS=%d: %d orders, want %d", procs, len(got), len(want))
					}
					for j := range want {
						if !slices.Equal(got[j], want[j]) {
							t.Fatalf("GOMAXPROCS=%d: column %d (kind %d) differs from the oracle", procs, j, j%8)
						}
					}
				}
			})
		}
	}
}

// TestSortedOrdersBootstrap: the duplicated rows of a bootstrap
// resample tie on every column and must come out in row order.
func TestSortedOrdersBootstrap(t *testing.T) {
	base := specialDataset(3000, 8, 7)
	for r := int64(0); r < 3; r++ {
		d := base.Bootstrap(rand.New(rand.NewSource(r)))
		want := oracleSortedOrders(d)
		for j, got := range d.SortedOrders() {
			if !slices.Equal(got, want[j]) {
				t.Fatalf("replica %d column %d differs from the oracle", r, j)
			}
		}
	}
}

// TestSortedOrdersNaNLast: NaNs, whatever their payload or sign bit,
// sort after +Inf in row order, and the other rows keep their order.
func TestSortedOrdersNaNLast(t *testing.T) {
	negNaN := math.Float64frombits(math.Float64bits(math.NaN()) | 1<<63)
	payloadNaN := math.Float64frombits(0x7ff0000000000001)
	col := []float64{math.NaN(), 0.5, negNaN, math.Inf(1), -1, payloadNaN, math.Inf(-1), 0.5, math.NaN()}
	x := make([][]float64, len(col))
	for i, v := range col {
		x[i] = []float64{v}
	}
	ord := MustNew(x, make([]float64, len(x))).SortedOrders()[0]
	want := []int{6, 4, 1, 7, 3, 0, 2, 5, 8}
	if !slices.Equal(ord, want) {
		t.Fatalf("order %v, want %v", ord, want)
	}
	checkTotalOrder(t, col, ord)
}

// FuzzSortedOrders: for arbitrary float64 bit patterns (NaN payloads,
// signed zeros, subnormals, infinities) SortedOrders is a permutation in
// the documented total order. The first byte picks the column count;
// the rest is read as little-endian float64s, row-major.
func FuzzSortedOrders(f *testing.F) {
	enc := func(m byte, vals ...float64) []byte {
		b := []byte{m}
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add([]byte{})
	f.Add(enc(0, 0.3, 0.1, 0.2, 0.1))
	f.Add(enc(1, 0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), -2))
	f.Add(enc(2, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e308, -1e308, 0.5, 0.5))
	f.Fuzz(func(t *testing.T, data []byte) {
		m := 1
		if len(data) > 0 {
			m = int(data[0])%4 + 1
			data = data[1:]
		}
		n := len(data) / 8 / m
		x := make([][]float64, n)
		for i := range x {
			x[i] = make([]float64, m)
			for j := range x[i] {
				x[i][j] = math.Float64frombits(binary.LittleEndian.Uint64(data[(i*m+j)*8:]))
			}
		}
		d := MustNew(x, make([]float64, n))
		cols := d.Columns()
		for j, ord := range d.SortedOrders() {
			checkTotalOrder(t, cols[j], ord)
		}
	})
}
