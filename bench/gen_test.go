package main

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/event"
)

// encodeStream renders the first n events of a stream to bytes.
func encodeStream(spec streamSpec, seed int64, n int) []byte {
	g := newGenerator(spec, seed)
	var b []byte
	for i := 0; i < n; i++ {
		b = event.AppendEncoded(b, g.Next(), 1)
	}
	return b
}

func TestGeneratorDeterminism(t *testing.T) {
	for _, w := range workloads() {
		a, b := encodeStream(w.stream, 7, 20_000), encodeStream(w.stream, 7, 20_000)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave different event bytes", w.name)
		}
		if c := encodeStream(w.stream, 8, 20_000); bytes.Equal(a, c) {
			t.Errorf("%s: different seeds gave the same event bytes", w.name)
		}
	}
}

// TestSeedDecidesOrderNotMix pins what keeps two seeds comparable: a pass
// over the ring holds every symbol equally often and as many prices above
// any threshold, whatever the seed.
func TestSeedDecidesOrderNotMix(t *testing.T) {
	spec := workloads()[1].stream
	mix := func(seed int64) (perSymbol map[string]int, above [3]int) {
		g := newGenerator(spec, seed)
		perSymbol = map[string]int{}
		for i := 0; i < ringLen; i++ {
			ev := g.Next()
			perSymbol[ev.Vals[1].S]++
			for k, th := range []float64{0.4, 50, 99.6} {
				if ev.Vals[2].F > th {
					above[k]++
				}
			}
		}
		return perSymbol, above
	}
	symsA, aboveA := mix(1)
	_, aboveB := mix(2)
	for s, n := range symsA {
		if n != ringLen/alertSymbols {
			t.Fatalf("symbol %s occurs %d times in a pass, want %d", s, n, ringLen/alertSymbols)
		}
	}
	if aboveA != aboveB {
		t.Fatalf("events above 0.4, 50 and 99.6: %v on seed 1, %v on seed 2", aboveA, aboveB)
	}
}

func TestGeneratorTimestampsAndRewind(t *testing.T) {
	g := newGenerator(workloads()[1].stream, 1)
	first := g.Next()
	for i := int64(1); i < 3*slabLen; i++ {
		if ev := g.Next(); ev.Ts != i {
			t.Fatalf("event %d has Ts %d", i, ev.Ts)
		}
	}
	g.Rewind()
	again := g.Next()
	if again == first {
		t.Fatal("Rewind reused an event header that was already handed out")
	}
	if again.Ts != 0 || &again.Vals[0] != &first.Vals[0] {
		t.Fatal("Rewind did not restart the stream at event 0")
	}
}

// TestQ6RegimeBoundaries pins the regime cycle: Sun and Google prices tell
// the three regimes apart, IBM is rare only in the first, and the cycle
// wraps after three regimes.
func TestQ6RegimeBoundaries(t *testing.T) {
	spec := q6Stream()
	g := newGenerator(spec, 3)
	cycle := 3 * q6RegimeLen
	wantPinned := []map[string]float64{
		{"Sun": 0, "Google": 0},
		{"Sun": 98, "Google": 0},
		{"Sun": 0, "Google": 98},
	}
	ibm := make([]int, 3)
	for i := 0; i < cycle+q6RegimeLen; i++ {
		ev := g.Next()
		regime := (i % cycle) / q6RegimeLen
		name, price := ev.Vals[1].S, ev.Vals[2].F
		if want, ok := wantPinned[regime][name]; ok && price != want {
			t.Fatalf("event %d (regime %d): %s price %v, want %v", i, regime, name, price, want)
		}
		if name == "IBM" && i < cycle {
			ibm[regime]++
		}
	}
	if ibm[0] > q6RegimeLen/100 || ibm[1] < q6RegimeLen/5 || ibm[2] < q6RegimeLen/5 {
		t.Fatalf("IBM counts per regime %v: want rare (1:100:100:100) only in the first", ibm)
	}
}

func TestGeneratorAllocsAreNettedOut(t *testing.T) {
	g := newGenerator(workloads()[1].stream, 1)
	_, perEvent := genDryRun(g, 100*slabLen)
	if want := 1.0 / slabLen; perEvent < want || perEvent > 2*want {
		t.Fatalf("generator allocates %.6f objects per event, want about one slab per %d", perEvent, slabLen)
	}
	if got := netAllocs(1.5+perEvent, perEvent); math.Abs(got-1.5) > 1e-9 {
		t.Fatalf("netAllocs left %.6f of the generator's allocations in", got-1.5)
	}
}
