package zstream_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	zstream "repro"
)

func tick(seq uint64, ts int64, name string, price float64) *zstream.Event {
	return zstream.NewStock(seq, ts, int64(seq), name, price, 100)
}

func TestCompileErrors(t *testing.T) {
	if _, err := zstream.Compile("nonsense"); err == nil {
		t.Error("bad query compiled")
	}
	if _, err := zstream.Compile("PATTERN !A WITHIN 5"); err == nil {
		t.Error("lone negation compiled")
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustCompile did not panic")
		}
	}()
	zstream.MustCompile("nope")
}

func TestQueryAccessors(t *testing.T) {
	q := zstream.MustCompile("PATTERN A;B;C WITHIN 10 secs")
	if q.Window() != 10_000 {
		t.Errorf("window = %d", q.Window())
	}
	if got := q.Classes(); len(got) != 3 || got[0] != "A" {
		t.Errorf("classes = %v", got)
	}
	if !strings.Contains(q.String(), "A ; B ; C") {
		t.Errorf("string = %q", q.String())
	}
}

func TestQuery1EndToEnd(t *testing.T) {
	// the paper's Query 1 with x=5%, y=3%: a stock first 5% above the
	// Google price, then 3% below it, within 10 seconds.
	q := zstream.MustCompile(`
		PATTERN T1; T2; T3
		WHERE T1.name = T3.name
		  AND T2.name = 'Google'
		  AND T1.price > 1.05 * T2.price
		  AND T3.price < 0.97 * T2.price
		WITHIN 10 secs
		RETURN T1, T2, T3`)
	var matches []*zstream.Match
	eng, err := zstream.NewEngine(q, zstream.OnMatch(func(m *zstream.Match) {
		matches = append(matches, m.Clone())
	}))
	if err != nil {
		t.Fatal(err)
	}
	eng.Process(tick(1, 1000, "IBM", 110)) // T1 candidate
	eng.Process(tick(2, 2000, "Google", 100))
	eng.Process(tick(3, 3000, "IBM", 95)) // T3: 95 < 97
	eng.Process(tick(4, 4000, "Sun", 96)) // name mismatch with T1
	eng.Flush()

	if len(matches) != 1 {
		t.Fatalf("matches = %d", len(matches))
	}
	m := matches[0]
	if m.Start != 1000 || m.End != 3000 {
		t.Errorf("interval [%d,%d]", m.Start, m.End)
	}
	if len(m.Fields) != 3 || m.Fields[0].Events[0].Get("name").S != "IBM" {
		t.Errorf("fields wrong: %+v", m.Fields)
	}
}

func TestQuery2NegationEndToEnd(t *testing.T) {
	// Query 2: price rises 20% above threshold 100 with no dip below 100
	// in between.
	q := zstream.MustCompile(`
		PATTERN T1; !T2; T3
		WHERE T1.name = T2.name = T3.name
		  AND T1.price > 100
		  AND T2.price < 100
		  AND T3.price > 120
		WITHIN 10 secs
		RETURN T1, T3`)
	var got []*zstream.Match
	eng, err := zstream.NewEngine(q, zstream.OnMatch(func(m *zstream.Match) { got = append(got, m.Clone()) }))
	if err != nil {
		t.Fatal(err)
	}
	eng.Process(tick(1, 1000, "IBM", 105))
	eng.Process(tick(2, 2000, "IBM", 90)) // dip: negates the first IBM
	eng.Process(tick(3, 3000, "IBM", 101))
	eng.Process(tick(4, 4000, "IBM", 130)) // matches with tick 3 only
	eng.Flush()

	if len(got) != 1 {
		t.Fatalf("matches = %d", len(got))
	}
	if got[0].Fields[0].Events[0].Ts != 3000 {
		t.Errorf("T1 = %v", got[0].Fields[0].Events[0])
	}
}

func TestQuery3KleeneEndToEnd(t *testing.T) {
	// Query 3 shape with count 3: total Google volume over 3 ticks.
	q := zstream.MustCompile(`
		PATTERN T1; T2^3; T3
		WHERE T1.name = T3.name
		  AND T2.name = 'Google'
		  AND sum(T2.volume) > 250
		  AND T3.price > 1.2 * T1.price
		WITHIN 10 secs
		RETURN T1, sum(T2.volume) AS vol, T3`)
	var got []*zstream.Match
	eng, err := zstream.NewEngine(q, zstream.OnMatch(func(m *zstream.Match) { got = append(got, m.Clone()) }))
	if err != nil {
		t.Fatal(err)
	}
	eng.Process(tick(1, 1000, "IBM", 100))
	eng.Process(tick(2, 2000, "Google", 500))
	eng.Process(tick(3, 3000, "Google", 500))
	eng.Process(tick(4, 4000, "Google", 500))
	eng.Process(tick(5, 5000, "IBM", 130))
	eng.Flush()

	if len(got) != 1 {
		t.Fatalf("matches = %d", len(got))
	}
	vol := got[0].Fields[1]
	if vol.Name != "vol" || vol.Value.F != 300 {
		t.Errorf("vol field = %+v", vol)
	}
}

func TestRunChannels(t *testing.T) {
	q := zstream.MustCompile(`PATTERN A;B WHERE A.name='A' AND B.name='B' WITHIN 100`)
	in := make(chan *zstream.Event, 8)
	out, err := q.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	in <- tick(1, 1, "A", 1)
	in <- tick(2, 2, "B", 1)
	in <- tick(3, 3, "A", 1)
	close(in)
	var got []*zstream.Match
	for m := range out {
		got = append(got, m)
	}
	// Each match on the channel is the receiver's own, read after the
	// engine moved on.
	if len(got) != 1 {
		t.Fatalf("channel matches = %d", len(got))
	}
	if got[0].End != 2 || got[0].Fields[0].Events[0].Ts != 1 {
		t.Errorf("channel match = %+v", got[0])
	}
}

func TestEngineOptions(t *testing.T) {
	q := zstream.MustCompile(`PATTERN A;B;C WITHIN 100`)
	for _, opts := range [][]zstream.Option{
		{zstream.WithPlan(zstream.PlanLeftDeep)},
		{zstream.WithPlan(zstream.PlanRightDeep)},
		{zstream.WithPlan(zstream.PlanOptimal), zstream.WithBatchSize(8)},
		{zstream.WithAdaptation()},
		{zstream.WithoutHashing()},
		{zstream.WithMaxDisorder(50)},
	} {
		eng, err := zstream.NewEngine(q, opts...)
		if err != nil {
			t.Fatalf("options %v: %v", opts, err)
		}
		eng.Process(tick(1, 1, "X", 1))
		eng.Flush()
	}
}

func TestNegationOnTopOption(t *testing.T) {
	q := zstream.MustCompile(`PATTERN A;!B;C WITHIN 100`)
	eng, err := zstream.NewEngine(q, zstream.WithNegationOnTop())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(eng.Explain(), "neg-top") {
		t.Errorf("explain lacks neg-top:\n%s", eng.Explain())
	}
}

func TestExplainAndStats(t *testing.T) {
	q := zstream.MustCompile(`PATTERN A;B WHERE A.name='A' AND B.name='B' WITHIN 100`)
	eng, err := zstream.NewEngine(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(eng.Explain(), "seq") {
		t.Errorf("explain:\n%s", eng.Explain())
	}
	eng.Process(tick(1, 1, "A", 1))
	eng.Process(tick(2, 2, "B", 1))
	eng.Flush()
	st := eng.Stats()
	if st.Matches != 1 || st.Events != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestEstimateCost(t *testing.T) {
	q := zstream.MustCompile(`PATTERN A;B;C;D WITHIN 100`)
	c, shape, err := q.EstimateCost()
	if err != nil {
		t.Fatal(err)
	}
	if c <= 0 || shape == "" {
		t.Errorf("estimate = %v shape = %q", c, shape)
	}
}

func TestSchemaRoundTrip(t *testing.T) {
	s := zstream.MustSchema("Sensors", "temp", "room")
	e, err := zstream.NewEvent(s, 42, zstream.Float(21.5), zstream.Str("lab"))
	if err != nil {
		t.Fatal(err)
	}
	q := zstream.MustCompile(`
		PATTERN Warm; Hot
		WHERE Warm.temp > 20 AND Hot.temp > 30 AND Warm.room = Hot.room
		WITHIN 100`)
	eng, err := zstream.NewEngine(q)
	if err != nil {
		t.Fatal(err)
	}
	eng.Process(e)
	e2, _ := zstream.NewEvent(s, 50, zstream.Float(35), zstream.Str("lab"))
	eng.Process(e2)
	eng.Flush()
	if eng.Stats().Matches != 1 {
		t.Errorf("matches = %d", eng.Stats().Matches)
	}
}

func TestRuntimeEndToEnd(t *testing.T) {
	// Per-symbol price rise, partition-local over "name": the runtime's
	// merged output must equal a single engine's.
	q := zstream.MustCompile(`
		PATTERN Low; High
		WHERE Low.name = High.name AND High.price > 1.10 * Low.price
		WITHIN 10 secs
		RETURN Low, High`)

	ticks := []*zstream.Event{
		tick(1, 1000, "IBM", 100), tick(2, 1500, "Sun", 50),
		tick(3, 2000, "IBM", 103), tick(4, 2500, "Sun", 58),
		tick(5, 3000, "IBM", 114), tick(6, 9000, "IBM", 140),
	}

	var single []string
	eng, err := zstream.NewEngine(q, zstream.OnMatch(func(m *zstream.Match) {
		single = append(single, renderInterval(m))
	}))
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range ticks {
		cp := *ev
		eng.Process(&cp)
	}
	eng.Flush()

	rt := zstream.NewRuntime(zstream.WithShards(2), zstream.WithIngestBatch(2))
	var merged []string
	id, err := rt.Register(q, zstream.OnMatch(func(m *zstream.Match) {
		merged = append(merged, renderInterval(m))
	}))
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range ticks {
		cp := *ev
		if err := rt.Ingest(&cp); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}

	if len(single) == 0 {
		t.Fatal("single engine found no matches; test is vacuous")
	}
	if strings.Join(merged, "|") != strings.Join(single, "|") {
		t.Errorf("runtime = %v, single engine = %v", merged, single)
	}

	st := rt.Stats()
	if st.Shards != 2 || st.EventsIngested != uint64(len(ticks)) ||
		st.MatchesDelivered != uint64(len(single)) {
		t.Errorf("stats = %+v", st)
	}
	if err := rt.Unregister(id); err != zstream.ErrClosed {
		t.Errorf("Unregister after Close = %v", err)
	}
}

func TestRuntimeRegisterError(t *testing.T) {
	rt := zstream.NewRuntime(zstream.WithShards(1))
	defer rt.Close()
	q := zstream.MustCompile("PATTERN A;B WITHIN 10")
	if _, err := rt.Register(q); err != nil {
		t.Fatalf("valid register failed: %v", err)
	}
	if err := rt.Unregister(zstream.QueryID(999)); !errors.Is(err, zstream.ErrUnknownQuery) {
		t.Errorf("Unregister(999) = %v", err)
	}
	// A closure beside a negation has no plain class to anchor to.
	kq := zstream.MustCompile("PATTERN A;B+;!C;D WITHIN 10")
	if _, err := rt.Register(kq); !errors.Is(err, zstream.ErrKleeneAnchor) {
		t.Errorf("Register(A;B+;!C;D) = %v, want ErrKleeneAnchor", err)
	}
	if _, err := zstream.NewEngine(kq); !errors.Is(err, zstream.ErrKleeneAnchor) {
		t.Errorf("NewEngine(A;B+;!C;D) = %v, want ErrKleeneAnchor", err)
	}
}

func renderInterval(m *zstream.Match) string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%d..%d]", m.Start, m.End)
	for _, f := range m.Fields {
		for _, e := range f.Events {
			fmt.Fprintf(&b, " %s@%d", e.Get("name").S, e.Ts)
		}
	}
	return b.String()
}
