package main

import (
	"math"
	"sort"
	"time"
)

// pacer is the open-loop schedule: event i is due i/rate after the phase
// starts, whatever the system under test does.
type pacer struct{ rate float64 }

// due is when event i should be issued.
func (p pacer) due(i int64) time.Duration {
	return time.Duration(float64(i) / p.rate * float64(time.Second))
}

// dueCount is how many events are due at or before elapsed.
func (p pacer) dueCount(elapsed time.Duration) int64 {
	return int64(elapsed.Seconds()*p.rate) + 1
}

// pacedTick is how long the generator sleeps between bursts: it wakes at
// the next millisecond boundary and issues everything due.
const pacedTick = time.Millisecond

// runPaced issues total events on p's schedule. now and sleep are the
// clock (injected so the accounting can be tested without waiting); issue
// ingests event i; late receives, once per burst, how far behind its due
// time the burst's oldest event was issued. A stall inside issue shows up
// as lateness of every burst after it, so latencies measured from due
// times charge the stall to the matches it delayed.
func runPaced(p pacer, total int64, now func() time.Duration, sleep func(time.Duration),
	issue func(i int64), late func(i int64, d time.Duration)) {
	var issued int64
	for issued < total {
		t := now()
		n := min(p.dueCount(t), total)
		if n > issued {
			late(issued, t-p.due(issued))
			for ; issued < n; issued++ {
				issue(issued)
			}
			continue
		}
		sleep(pacedTick - t%pacedTick)
	}
}

// histBuckets one-microsecond buckets cover latencies up to ~131 ms; rarer,
// longer ones are kept exactly in over.
const histBuckets = 1 << 17

// latHist records latencies with one-microsecond resolution in constant
// memory, so the OnMatch callback stays a few instructions even at millions
// of matches per window.
type latHist struct {
	n       int
	buckets []uint32
	over    []time.Duration
}

func newLatHist() *latHist { return &latHist{buckets: make([]uint32, histBuckets)} }

func (h *latHist) add(d time.Duration) {
	h.n++
	if d < 0 {
		d = 0
	}
	if us := int64(d / time.Microsecond); us < histBuckets {
		h.buckets[us]++
		return
	}
	h.over = append(h.over, d)
}

// merged adds up histograms: the whole phase's latencies from its windows'.
func merged(hs []*latHist) *latHist {
	all := newLatHist()
	for _, h := range hs {
		all.n += h.n
		for us, c := range h.buckets {
			all.buckets[us] += c
		}
		all.over = append(all.over, h.over...)
	}
	return all
}

// supported reports whether quantile q of n samples has at least ten
// samples beyond it.
func supported(q float64, n int) bool {
	return float64(n)*(1-q) >= 10
}

// quantile returns the q-quantile in milliseconds by nearest rank,
// interpolating inside the one-microsecond bucket the rank falls in; 0 when
// nothing was recorded.
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(h.n)))
	rank = max(rank, 1)
	seen := 0
	for us, c := range h.buckets {
		if c == 0 {
			continue
		}
		if seen+int(c) >= rank {
			frac := (float64(rank-seen) - 0.5) / float64(c)
			return (float64(us) + frac) / 1000
		}
		seen += int(c)
	}
	sort.Slice(h.over, func(i, j int) bool { return h.over[i] < h.over[j] })
	return float64(h.over[rank-seen-1]) / float64(time.Millisecond)
}

// median returns the median of xs (the mean of the middle two for an even
// count). It sorts a copy.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
