package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestHistogramExactBelowSubCount(t *testing.T) {
	h := NewHistogram()
	for v := int64(0); v < histSubCount; v++ {
		h.Record(v)
	}
	for _, b := range h.Buckets() {
		if b.Low != b.High {
			t.Fatalf("bucket [%d,%d] below %d is not exact", b.Low, b.High, histSubCount)
		}
		if b.Count != 1 {
			t.Fatalf("bucket %d count = %d, want 1", b.Low, b.Count)
		}
	}
	if got := h.Count(); got != histSubCount {
		t.Fatalf("Count = %d, want %d", got, histSubCount)
	}
}

func TestHistogramBucketIndexRoundTrip(t *testing.T) {
	// Every value must land in a bucket whose bounds contain it, and the
	// bucket's relative width must stay within 1/histSubCount.
	values := []int64{0, 1, 31, 32, 33, 63, 64, 65, 127, 128, 1000, 1 << 20,
		(1 << 20) + 12345, 1 << 40, (1 << 62) - 1, 1 << 62, math.MaxInt64}
	for _, v := range values {
		i := bucketIndex(v)
		low, high := bucketBounds(i)
		if v < low || v > high {
			t.Fatalf("value %d mapped to bucket %d = [%d,%d]", v, i, low, high)
		}
		if i >= histBuckets {
			t.Fatalf("value %d mapped out of range: bucket %d >= %d", v, i, histBuckets)
		}
		if v >= histSubCount {
			if rel := float64(high-low) / float64(low); rel > 1.0/histSubCount {
				t.Fatalf("bucket [%d,%d] relative width %f exceeds %f", low, high, rel, 1.0/histSubCount)
			}
		}
	}
}

func TestHistogramQuantileVsExactRank(t *testing.T) {
	// Exact-rank ground truth: sorted[ceil(p*n)-1]. The histogram must
	// return a value in [truth, truth*(1+1/32)] (bucket upper bound).
	rng := rand.New(rand.NewSource(42))
	h := NewHistogram()
	n := 10000
	xs := make([]int64, n)
	for i := range xs {
		v := int64(rng.ExpFloat64() * 1e6)
		xs[i] = v
		h.Record(v)
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	for _, p := range []float64{0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999} {
		rank := int(math.Ceil(p * float64(n)))
		truth := xs[rank-1]
		got := h.Quantile(p)
		if got < truth {
			t.Fatalf("p=%v: Quantile %d below exact-rank value %d", p, got, truth)
		}
		ceiling := truth + truth/histSubCount + 1
		if got > ceiling {
			t.Fatalf("p=%v: Quantile %d exceeds error bound %d (exact %d)", p, got, ceiling, truth)
		}
	}
	if got := h.Quantile(0); got != h.Min() {
		t.Fatalf("Quantile(0) = %d, want Min %d", got, h.Min())
	}
	if got := h.Quantile(1); got != h.Max() {
		t.Fatalf("Quantile(1) = %d, want Max %d", got, h.Max())
	}
}

func TestHistogramEmptyAndNil(t *testing.T) {
	var nilH *Histogram
	nilH.Record(5) // must not panic
	if nilH.Count() != 0 || nilH.Sum() != 0 || nilH.Min() != 0 || nilH.Max() != 0 || nilH.Quantile(0.5) != 0 {
		t.Fatal("nil histogram must report zeros")
	}
	nilH.Merge(NewHistogram())
	if nilH.Buckets() != nil {
		t.Fatal("nil histogram must have no buckets")
	}

	h := NewHistogram()
	if h.Count() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.99) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	h.Merge(nil) // must not panic
	h.Record(-17)
	if h.Min() != 0 || h.Max() != 0 || h.Count() != 1 {
		t.Fatalf("negative sample must clamp to 0: min=%d max=%d n=%d", h.Min(), h.Max(), h.Count())
	}
}

func TestHistogramMergeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	whole := NewHistogram()
	a, b := NewHistogram(), NewHistogram()
	for i := 0; i < 5000; i++ {
		v := int64(rng.Intn(1 << 30))
		whole.Record(v)
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
	}
	merged := NewHistogram()
	merged.Merge(b) // merge order must not matter
	merged.Merge(a)
	if merged.Count() != whole.Count() || merged.Sum() != whole.Sum() ||
		merged.Min() != whole.Min() || merged.Max() != whole.Max() {
		t.Fatal("merged aggregates differ from whole")
	}
	wb, mb := whole.Buckets(), merged.Buckets()
	if len(wb) != len(mb) {
		t.Fatalf("bucket count differs: %d vs %d", len(wb), len(mb))
	}
	for i := range wb {
		if wb[i] != mb[i] {
			t.Fatalf("bucket %d differs: %+v vs %+v", i, wb[i], mb[i])
		}
	}
}

func TestHistogramRecordAllocs(t *testing.T) {
	h := NewHistogram()
	v := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		h.Record(v)
		v += 997
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %v per op, want 0", allocs)
	}
}

func TestHistogramSet(t *testing.T) {
	var nilSet *HistogramSet
	if nilSet.H("x") != nil {
		t.Fatal("nil set must return nil histogram")
	}
	if nilSet.Names() != nil {
		t.Fatal("nil set must have no names")
	}
	s := NewHistogramSet()
	h1 := s.H("b.latency")
	h2 := s.H("a.latency")
	if s.H("b.latency") != h1 {
		t.Fatal("H must return the same handle per name")
	}
	h1.Record(1)
	h2.Record(2)
	names := s.Names()
	if len(names) != 2 || names[0] != "a.latency" || names[1] != "b.latency" {
		t.Fatalf("Names = %v, want sorted pair", names)
	}
}

// BenchmarkHistogramRecord is the acceptance benchmark: the Record hot
// path must be 0 allocs/op.
func BenchmarkHistogramRecord(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i))
	}
}

func BenchmarkHistogramQuantile(b *testing.B) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100000; i++ {
		h.Record(int64(rng.ExpFloat64() * 1e6))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.Quantile(0.99)
	}
}
