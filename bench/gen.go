package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/event"
)

// slabLen is the number of event headers allocated at once. The runtime
// forbids reusing an ingested event, so every event needs a fresh header;
// slabs keep that at one allocation per 4,096 events.
const slabLen = 4096

// regime is one stationary stretch of the stream: symbols are drawn in
// proportion to weights, prices are uniform in [0,100) unless pinned.
type regime struct {
	weights []float64
	pinned  map[string]float64
}

// streamSpec describes a workload's input stream: the symbol universe and
// the regimes it cycles through, each lasting regimeLen events.
type streamSpec struct {
	names     []string
	regimes   []regime
	regimeLen int
}

// ringLen is the tuple-ring length of single-regime streams: long against
// every WITHIN window (the longest is 2,000 events), so that no window sees
// a tuple twice, and short enough to stay in cache, so that the strided
// walk costs the timed loops little.
const ringLen = 1 << 15

// generator turns a seed into an endless, timestamp-ordered event stream.
// The attribute tuples are built once into a ring (immutable, shared by
// every event that lands on them), one block per regime; per event only a
// header is written: Ts is the event's index, one tick per event as in the
// paper's generator.
//
// Every pass over a block walks it with another stride, so each pass is a
// new interleaving of the same tuples: a long run averages over many
// orderings although the ring is short, and memory stays bounded.
type generator struct {
	ring     [][]event.Value
	blockLen int   // tuples per regime block
	next     int64 // index (and Ts) of the next event
	slab     []event.Event

	// Walking state, kept incrementally so Next divides nothing: the block
	// being walked, how many of its tuples this pass has visited, the
	// position inside it, and the pass number.
	block, visited, pos, pass, step int
}

// strides are the per-pass walking steps: coprime to every block length in
// use (newGenerator checks), and large, so that two passes share almost no
// window of neighbouring events.
var strides = []int{1, 1009, 2003, 3001, 4001, 5003, 6007, 7001, 8009, 9001, 10007, 11003, 12007, 13001, 14009, 15013}

// newGenerator builds the tuple ring for spec from seed. The same seed and
// spec give the same stream.
//
// The seed decides the order of events, not their mix: within a regime
// every symbol occurs exactly in proportion to its weight, and its
// unpinned prices are spread evenly over [0,100) (see below). A query's
// admission counts are then nearly the same for every seed and only the
// interleaving differs, so a metric measured on two seeds differs by the
// run's noise and not by the luck of the draw. README.md gives the measured
// effect of each of these choices.
func newGenerator(spec streamSpec, seed int64) *generator {
	rng := rand.New(rand.NewSource(seed))
	per := ringLen
	if len(spec.regimes) > 1 {
		per = spec.regimeLen
	}
	n := per * len(spec.regimes)
	// One backing array for all tuples: 4 values per stock event.
	vals := make([]event.Value, 4*n)
	g := &generator{ring: make([][]event.Value, n), blockLen: per}
	for _, st := range strides {
		if gcd(st, per) != 1 {
			panic(fmt.Sprintf("stride %d shares a factor with the block length %d", st, per))
		}
	}
	names := make([]event.Value, len(spec.names))
	for i, s := range spec.names {
		names[i] = event.Str(s)
	}
	for ri, r := range spec.regimes {
		syms := arrange(rng, r.weights, per)
		// A symbol's unpinned prices are stratified: one in each of count[s]
		// equal strata of [0,100), dealt out in the random order strata[s].
		// Where a price lies inside its stratum is, across the symbols, an
		// even grid again, in a new random order for every stratum: the
		// number of events above any price threshold is then the same for
		// every seed, per symbol to within one and, with equal weights,
		// exactly over all symbols, while a symbol's lowest and highest
		// price stay independent of each other.
		count := make([]int, len(spec.names))
		for _, s := range syms {
			count[s]++
		}
		strata := make([][]int, len(spec.names))
		within := make([][]float64, len(spec.names))
		for s, c := range count {
			strata[s], within[s] = rng.Perm(c), make([]float64, c)
		}
		for j := 0; j < slices.Max(count); j++ {
			u, order := rng.Float64(), rng.Perm(len(spec.names))
			for s, c := range count {
				if j < c {
					within[s][j] = (float64(order[s]) + u) / float64(len(spec.names))
				}
			}
		}
		// dealt[s] counts symbol s's events so far.
		dealt := make([]int, len(spec.names))
		for k, s := range syms {
			price, pinned := r.pinned[spec.names[s]]
			if !pinned {
				j := strata[s][dealt[s]]
				price = (float64(j) + within[s][j]) / float64(count[s]) * 100
			}
			dealt[s]++
			i := ri*per + k
			t := vals[4*i : 4*i+4 : 4*i+4]
			t[0], t[1], t[2], t[3] = event.Int(int64(i)), names[s], event.Float(price), event.Float(float64(1+rng.Intn(100)))
			g.ring[i] = t
		}
	}
	g.startPass(0)
	return g
}

// arrange returns n symbol indexes in random order, each symbol as often as
// its weight's share of n (largest remainders make up the rounding).
func arrange(rng *rand.Rand, weights []float64, n int) []int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	type rem struct {
		sym  int
		frac float64
	}
	out := make([]int, 0, n)
	rems := make([]rem, len(weights))
	for s, w := range weights {
		exact := w / total * float64(n)
		for k := 0; k < int(exact); k++ {
			out = append(out, s)
		}
		rems[s] = rem{s, exact - float64(int(exact))}
	}
	sort.SliceStable(rems, func(i, j int) bool { return rems[i].frac > rems[j].frac })
	for i := 0; len(out) < n; i++ {
		out = append(out, rems[i].sym)
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Next returns the next event of the stream. The caller owns it until it
// hands it to a runtime; the value slice is shared and must not be written.
func (g *generator) Next() *event.Event {
	if len(g.slab) == 0 {
		g.slab = make([]event.Event, slabLen)
	}
	e := &g.slab[0]
	g.slab = g.slab[1:]
	e.Ts = g.next
	e.Schema = event.Stock
	e.Vals = g.ring[g.block*g.blockLen+g.pos]
	g.next++

	// Step to the next tuple: the pass's stride further inside the block;
	// after a whole block the next regime's; after the last block the next
	// pass, which starts one tuple further and walks with another stride.
	g.visited++
	if g.pos += g.step; g.pos >= g.blockLen {
		g.pos -= g.blockLen
	}
	if g.visited == g.blockLen {
		g.visited = 0
		if g.block++; g.block*g.blockLen == len(g.ring) {
			g.startPass(g.pass + 1)
		}
		g.pos = g.pass % g.blockLen
	}
	return e
}

// startPass positions the walk at the start of a pass.
func (g *generator) startPass(pass int) {
	g.pass, g.step = pass, strides[pass%len(strides)]%g.blockLen
	g.block, g.visited, g.pos = 0, 0, pass%g.blockLen
}

// Rewind restarts the stream at event 0, for another leg over the same
// prefix. Headers already handed out are not touched.
func (g *generator) Rewind() {
	g.next, g.slab = 0, nil
	g.startPass(0)
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// uniform returns n equal weights.
func uniform(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// symbols returns S000..S<n-1>.
func symbols(n int) []string {
	s := make([]string, n)
	for i := range s {
		s[i] = fmt.Sprintf("S%03d", i)
	}
	return s
}
