package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram is a lock-light log-bucketed distribution of int64 samples
// (latencies in nanoseconds by convention — name histograms with an `_ns`
// suffix). Observations land in geometric buckets with histSub sub-buckets
// per power of two, so the relative quantile error is bounded by
// 1/(2·histSub) (12.5%) while Observe stays three atomic operations: one
// bucket increment, one sum add, one max CAS. Histograms from different
// processes with the same layout merge by bucket addition (Merge) without
// losing the tail.
//
// A nil *Histogram is a no-op, like every other registry handle.
type Histogram struct {
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

const (
	histSubBits = 2
	// histSub is the sub-bucket resolution per power of two.
	histSub = 1 << histSubBits
	// histBuckets covers every non-negative int64: values below histSub get
	// exact buckets, larger values index by (octave, sub-bucket).
	histBuckets = (63-histSubBits)*histSub + histSub
)

// bucketIndex maps a sample to its bucket. Values 0..histSub-1 are exact;
// larger values take the top histSubBits bits after the leading one as the
// sub-bucket within their octave.
func bucketIndex(v int64) int {
	u := uint64(v)
	if u < histSub {
		return int(u)
	}
	e := bits.Len64(u) - 1
	sub := int((u >> (uint(e) - histSubBits)) & (histSub - 1))
	return (e-histSubBits)*histSub + sub + histSub
}

// bucketBound returns the largest sample value bucket i holds (the
// Prometheus `le` upper bound of that bucket).
func bucketBound(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	i -= histSub
	e := uint(i/histSub) + histSubBits
	sub := int64(i % histSub)
	lower := int64(1)<<e + sub<<(e-histSubBits)
	return lower + int64(1)<<(e-histSubBits) - 1
}

// Observe records one sample. Negative samples clamp to zero.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Start begins timing and returns a stop function recording the elapsed
// nanoseconds: defer h.Start()().
func (h *Histogram) Start() func() {
	if h == nil {
		return func() {}
	}
	start := time.Now()
	return func() { h.Observe(int64(time.Since(start))) }
}

// Merge adds o's samples into h (bucket-wise, so quantiles of the merged
// histogram are exactly the quantiles of the combined sample set at this
// layout's resolution). A nil receiver or argument is a no-op.
func (h *Histogram) Merge(o *Histogram) {
	if h == nil || o == nil {
		return
	}
	for i := range o.buckets {
		if n := o.buckets[i].Load(); n > 0 {
			h.buckets[i].Add(n)
		}
	}
	h.sum.Add(o.sum.Load())
	for {
		m, om := h.max.Load(), o.max.Load()
		if om <= m || h.max.CompareAndSwap(m, om) {
			return
		}
	}
}

// HistogramBucket is one non-empty bucket of a snapshot: Count samples were
// <= LE and greater than the previous bucket's LE.
type HistogramBucket struct {
	LE    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is a histogram's frozen state. Count is the bucket
// total (so cumulative-bucket renderings always sum exactly); quantiles are
// upper-bound estimates at the bucket resolution, deterministic for a given
// set of bucket counts.
type HistogramSnapshot struct {
	Count   int64             `json:"count"`
	Sum     int64             `json:"sum"`
	Max     int64             `json:"max"`
	P50     int64             `json:"p50"`
	P90     int64             `json:"p90"`
	P99     int64             `json:"p99"`
	P999    int64             `json:"p999"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// Snapshot freezes the histogram. Concurrent observers may land between the
// bucket loads; every sample that completed Observe before the call is
// included.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	counts := make([]int64, 0, 16)
	bounds := make([]int64, 0, 16)
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			counts = append(counts, n)
			bounds = append(bounds, bucketBound(i))
			s.Count += n
		}
	}
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	if s.Count == 0 {
		return s
	}
	quantile := func(q float64) int64 {
		rank := int64(math.Ceil(q * float64(s.Count)))
		if rank < 1 {
			rank = 1
		}
		var cum int64
		for i, n := range counts {
			cum += n
			if cum >= rank {
				return bounds[i]
			}
		}
		return bounds[len(bounds)-1]
	}
	s.P50 = quantile(0.50)
	s.P90 = quantile(0.90)
	s.P99 = quantile(0.99)
	s.P999 = quantile(0.999)
	s.Buckets = make([]HistogramBucket, len(counts))
	for i := range counts {
		s.Buckets[i] = HistogramBucket{LE: bounds[i], Count: counts[i]}
	}
	return s
}
