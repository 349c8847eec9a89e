package main

import (
	"math"
	"testing"
	"time"
)

// fakeClock advances only when slept on or when an issue call stalls.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration    { return c.t }
func (c *fakeClock) sleep(d time.Duration) { c.t += d }

func TestPacerDueTimes(t *testing.T) {
	p := pacer{rate: 1000}
	if got := p.due(2500); got != 2500*time.Millisecond {
		t.Fatalf("event 2500 at 1000/s is due at %v", got)
	}
	if got := p.dueCount(0); got != 1 {
		t.Fatalf("%d events due at the start, want event 0 only", got)
	}
	if got := p.dueCount(10 * time.Millisecond); got != 11 {
		t.Fatalf("%d events due after 10 ms at 1000/s, want 11", got)
	}
}

func TestRunPacedOnSchedule(t *testing.T) {
	clk := &fakeClock{}
	p := pacer{rate: 10_000} // 10 events per tick
	var issued []int64
	var lates []time.Duration
	runPaced(p, 100, clk.now, clk.sleep,
		func(i int64) { issued = append(issued, i) },
		func(_ int64, d time.Duration) { lates = append(lates, d) })
	if len(issued) != 100 || issued[0] != 0 || issued[99] != 99 {
		t.Fatalf("issued %d events, want 0..99 in order", len(issued))
	}
	for _, d := range lates {
		// An event due inside a tick is issued at the next tick boundary.
		if d < 0 || d > pacedTick {
			t.Fatalf("burst ran %v late with nothing stalling, want at most one tick", d)
		}
	}
}

func TestRunPacedChargesStallToLaterBursts(t *testing.T) {
	clk := &fakeClock{}
	p := pacer{rate: 10_000}
	const stall = 30 * time.Millisecond
	maxLate := map[bool]time.Duration{}
	runPaced(p, 1000, clk.now, clk.sleep,
		func(i int64) {
			if i == 500 {
				clk.t += stall // Ingest blocked on a full shard queue
			}
		},
		func(i int64, d time.Duration) {
			after := i > 500
			maxLate[after] = max(maxLate[after], d)
		})
	if maxLate[false] > pacedTick {
		t.Fatalf("a burst before the stall ran %v late", maxLate[false])
	}
	if maxLate[true] < stall-pacedTick || maxLate[true] > stall+pacedTick {
		t.Fatalf("the burst after a %v stall ran %v late, want about the stall", stall, maxLate[true])
	}
	// The backlog is issued at once, so the generator is back on schedule.
	if end := clk.now(); end > p.due(1000)+stall {
		t.Fatalf("generator finished at %v, schedule ends at %v", end, p.due(1000))
	}
}

func TestLatencyRecorderUsesDueTimes(t *testing.T) {
	l := &latencyRecorder{p: pacer{rate: 1000}, perWindow: 100, hists: []*latHist{newLatHist(), newLatHist()}}
	l.start = time.Now().Add(-time.Second)
	l.observe(150) // due at 150 ms, observed at about 1 s, second window
	if l.hists[0].n != 0 || l.hists[1].n != 1 {
		t.Fatalf("samples per window %d, %d, want the match in the second", l.hists[0].n, l.hists[1].n)
	}
	if got := l.hists[1].quantile(0.5); got < 849 || got > 900 {
		t.Fatalf("latency %.1f ms, want about 850 (1 s minus the 150 ms due time)", got)
	}
}

func TestQuantiles(t *testing.T) {
	h := newLatHist()
	for i := 1; i <= 1000; i++ {
		h.add(time.Duration(i) * time.Millisecond / 10) // 0.1 .. 100 ms
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 99}, {1, 100}} {
		if got := h.quantile(c.q); math.Abs(got-c.want) > 0.0011 {
			t.Errorf("quantile(%v) = %.4f ms, want %.1f", c.q, got, c.want)
		}
	}
	// Latencies past the bucket range are kept exactly.
	h.add(2 * time.Second)
	if got := h.quantile(1); got != 2000 {
		t.Errorf("maximum = %.1f ms, want 2000", got)
	}
	if got := newLatHist().quantile(0.5); got != 0 {
		t.Errorf("empty histogram's median = %v, want 0", got)
	}
}

func TestQuantileInterpolatesInsideBucket(t *testing.T) {
	h := newLatHist()
	for i := 0; i < 100; i++ {
		h.add(5 * time.Microsecond)
	}
	lo, hi := h.quantile(0.01), h.quantile(1)
	if lo < 0.005 || hi >= 0.006 || lo >= hi {
		t.Fatalf("quantiles %v..%v ms of 100 samples in the 5 us bucket, want increasing inside [0.005, 0.006)", lo, hi)
	}
}

func TestMergedHistogramHoldsEveryWindowsSamples(t *testing.T) {
	a, b := newLatHist(), newLatHist()
	for i := 1; i <= 50; i++ {
		a.add(time.Duration(i) * time.Millisecond)
		b.add(time.Duration(50+i) * time.Millisecond)
	}
	b.add(2 * time.Second)
	all := merged([]*latHist{a, b})
	if all.n != 101 {
		t.Fatalf("%d samples after merging 50 and 51", all.n)
	}
	if got := all.quantile(0.5); math.Abs(got-51) > 0.0011 {
		t.Errorf("median of 1..100 ms and 2 s = %.4f ms, want 51", got)
	}
	if got := all.quantile(1); got != 2000 {
		t.Errorf("maximum = %.1f ms, want 2000", got)
	}
}

func TestTenSamplesBeyondRule(t *testing.T) {
	if supported(0.99, 999) || !supported(0.99, 1000) {
		t.Fatal("p99 needs exactly 1000 samples to have ten beyond it")
	}
	if !supported(0.5, 20) || supported(0.5, 19) {
		t.Fatal("the median needs 20 samples to have ten beyond it")
	}
}

func TestMedianOfWindows(t *testing.T) {
	if got := median([]float64{5, 1, 9}); got != 5 {
		t.Errorf("median of 3 windows = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 9, 2, 7}); got != 4 {
		t.Errorf("median of 5 windows = %v, want 4", got)
	}
	if got := median([]float64{4, 2}); got != 3 {
		t.Errorf("median of 2 = %v, want 3", got)
	}
}
