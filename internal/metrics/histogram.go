package metrics

import (
	"math"
	"math/bits"
	"sort"
)

// Histogram is a fixed-memory, log-bucketed (HDR-style) histogram of
// non-negative int64 samples — latencies in nanoseconds, message sizes in
// bytes, batch sizes in events. The bucket scheme is log-linear: values
// below histSubCount are recorded exactly; above that, each power-of-two
// octave is split into histSubCount linear sub-buckets, so any recorded
// value is reproduced by a percentile query within a relative error of
// 1/histSubCount (3.125%). The full int64 range fits in histBuckets
// buckets of 8 bytes each (~15 KiB), allocated once.
//
// Record is allocation-free: one add into the bucket array plus the
// count/sum/min/max updates (TestHistogramRecordAllocs and
// BenchmarkHistogramRecord prove 0 allocs/op). Like all simulated state it
// is guarded by vtime's run token alone: it is written by processes, tasks
// and the kernel's probes, and read by them or after Sim.Wait.
//
// All methods are nil-safe: a nil *Histogram records nothing and reports
// zeros, so call sites never need a guard — the same convention as
// trace.Counter and Gauge.
type Histogram struct {
	counts [histBuckets]uint64
	count  int64
	sum    int64
	min    int64
	max    int64
}

const (
	// histSubBits fixes the sub-bucket resolution: 2^histSubBits linear
	// sub-buckets per octave.
	histSubBits  = 5
	histSubCount = 1 << histSubBits // 32: ≤3.125% relative error

	// histBuckets covers [0, 2^63): histSubCount exact buckets plus
	// histSubCount sub-buckets for each of the 63-histSubBits octaves
	// above them.
	histBuckets = histSubCount + histSubCount*(63-histSubBits)
)

// NewHistogram creates an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{min: math.MaxInt64}
}

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	if v < histSubCount {
		return int(v)
	}
	// Values in [histSubCount·2^t, 2·histSubCount·2^t) land in octave t
	// with linear sub-bucket width 2^t.
	t := bits.Len64(uint64(v)) - histSubBits - 1
	return histSubCount*t + int(v>>uint(t))
}

// bucketBounds returns the lowest and highest value mapping to bucket i.
func bucketBounds(i int) (low, high int64) {
	if i < histSubCount {
		return int64(i), int64(i)
	}
	t := i/histSubCount - 1
	r := int64(i - histSubCount*t)
	return r << uint(t), ((r + 1) << uint(t)) - 1
}

// Record adds one sample. Negative samples are clamped to zero (virtual
// time never runs backwards; a negative duration is a caller bug we keep
// visible in the zero bucket rather than dropping). Nil-safe, 0 allocs/op.
func (h *Histogram) Record(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)]++
	h.count++
	h.sum += v
	h.min = min(h.min, v)
	h.max = max(h.max, v)
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of recorded samples.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Mean returns the exact sample mean (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// Min returns the smallest recorded sample (0 when empty).
func (h *Histogram) Min() int64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded sample (0 when empty).
func (h *Histogram) Max() int64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.max
}

// Quantile answers an exact-rank percentile query: it locates the sample
// of 1-based rank ceil(p·n) — no interpolation between neighbours — and
// returns the upper bound of its bucket, clamped into [Min, Max]. The
// rank selection is exact; only the returned value is quantized, to
// within 3.125% above the true sample. p ≤ 0 yields Min, p ≥ 1 yields
// Max, and an empty histogram yields 0.
func (h *Histogram) Quantile(p float64) int64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	rank := int64(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	var seen int64
	for i, c := range &h.counts {
		seen += int64(c)
		if c != 0 && seen >= rank {
			_, high := bucketBounds(i)
			return min(max(high, h.min), h.max)
		}
	}
	return h.max // unreachable: the counts sum to n
}

// Merge folds every sample recorded in o into h. Merging is deterministic:
// the merged bucket counts depend only on the two operands, never on
// recording order, so merging shard histograms yields byte-identical
// exports run to run. Nil-safe in both positions.
func (h *Histogram) Merge(o *Histogram) {
	if h == nil || o == nil {
		return
	}
	if o.count == 0 {
		return
	}
	for i, c := range &o.counts {
		h.counts[i] += c
	}
	h.count += o.count
	h.sum += o.sum
	h.min = min(h.min, o.min)
	h.max = max(h.max, o.max)
}

// HistogramBucket is one non-empty bucket of a snapshot: Count samples
// fell in [Low, High].
type HistogramBucket struct {
	Low   int64
	High  int64
	Count uint64
}

// Buckets returns the non-empty buckets in ascending value order — the
// exposition surface WritePrometheus cumulates into le-bounds.
func (h *Histogram) Buckets() []HistogramBucket {
	if h == nil {
		return nil
	}
	var out []HistogramBucket
	for i, c := range &h.counts {
		if c != 0 {
			low, high := bucketBounds(i)
			out = append(out, HistogramBucket{Low: low, High: high, Count: c})
		}
	}
	return out
}

// HistogramSet is a registry of named histograms, the distribution
// counterpart of trace.Counters: layers look their histogram up once (or
// per event — the lookup is one map access) and Record on the returned
// handle. Names follow the layer.object.noun convention, with
// latency-valued histograms recording virtual nanoseconds. A nil
// *HistogramSet is a valid no-op registry.
type HistogramSet struct {
	m map[string]*Histogram
}

// NewHistogramSet creates an empty registry.
func NewHistogramSet() *HistogramSet {
	return &HistogramSet{m: make(map[string]*Histogram)}
}

// H returns the histogram named name, creating it on first use. Returns
// nil on a nil registry; the nil histogram accepts Record as a no-op.
func (s *HistogramSet) H(name string) *Histogram {
	if s == nil {
		return nil
	}
	h, ok := s.m[name]
	if !ok {
		h = NewHistogram()
		s.m[name] = h
	}
	return h
}

// Names returns the registered histogram names, sorted.
func (s *HistogramSet) Names() []string {
	if s == nil {
		return nil
	}
	names := make([]string, 0, len(s.m))
	for n := range s.m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
