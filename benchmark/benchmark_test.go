package main

import (
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"wetune/internal/sql"
)

func TestNearestRank(t *testing.T) {
	s := []int{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, tc := range []struct {
		p    float64
		want int
	}{{50, 50}, {99, 100}, {90, 90}, {91, 100}, {10, 10}, {0.1, 10}, {100, 100}} {
		if got := nearestRank(s, tc.p); got != tc.want {
			t.Errorf("nearestRank(p=%v) = %d, want %d", tc.p, got, tc.want)
		}
	}
	if got := nearestRank([]int(nil), 50); got != 0 {
		t.Errorf("empty slice: got %d, want 0", got)
	}
}

func TestHighestSupported(t *testing.T) {
	if p := highestSupported(10); p != 0 {
		t.Errorf("10 samples support no tail percentile, got %v", p)
	}
	// 1000 samples: rank 990 leaves exactly ten beyond it.
	p := highestSupported(1000)
	if p != 99 {
		t.Fatalf("highestSupported(1000) = %v, want 99", p)
	}
	s := make([]int, 1000)
	for i := range s {
		s[i] = i + 1
	}
	if v := nearestRank(s, p); v != 990 || len(s)-v != 10 {
		t.Errorf("value at the supported percentile = %d, want 990 with 10 beyond", v)
	}
}

// Python: statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4)
// -> [1.75, 3.5, 5.25]; statistics.median -> 3.5.
func TestQuartilesMatchPython(t *testing.T) {
	v := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}
	q1, q2, q3 := quartiles(v)
	if q1 != 1.75 || q2 != 3.5 || q3 != 5.25 {
		t.Errorf("quartiles = %v %v %v, want 1.75 3.5 5.25", q1, q2, q3)
	}
	if m := median(v); m != 3.5 {
		t.Errorf("median = %v, want 3.5", m)
	}
	if m := median([]float64{7, 1, 3}); m != 3 {
		t.Errorf("odd median = %v, want 3", m)
	}
}

func TestSelfTimes(t *testing.T) {
	// root 0..100 with children 10..40 and 50..70; the first child has a
	// grandchild 20..25. A replayed child may lie outside its parent.
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 150, End: 170},
		{ID: 4, Parent: 2, Start: 20, End: 25},
		{ID: 5, Parent: 0, Start: 200, End: 210},
	}
	want := []int64{50, 25, 20, 5, 10}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerAggregates(t *testing.T) {
	base := time.Unix(0, 0)
	tr := newTracer(base)
	for op := 0; op < 3; op++ {
		tr.begin()
		root := tr.add("root", 0, base, base.Add(100))
		tr.add("child", root, base, base.Add(time.Duration(10*(op+1))))
		tr.finish()
	}
	if got := tr.medianDur("child"); got != 20 {
		t.Errorf("median child duration = %v, want 20", got)
	}
	if got := tr.medianSelf("root"); got != 80 {
		t.Errorf("median root self time = %v, want 80", got)
	}
	if got := tr.sumDur("root"); got != 300 {
		t.Errorf("sum of root durations = %v, want 300", got)
	}
}

func TestLaneWindows(t *testing.T) {
	ln := newLane(time.Second, 16, false)
	// Window 1: 100ns, 300ns. Window 2: 200ns. Window 3 (never closed): 900ns.
	ln.add(100, 100*time.Millisecond)
	ln.add(300, 900*time.Millisecond)
	ln.add(200, 1500*time.Millisecond)
	ln.add(900, 2100*time.Millisecond)
	s := summarizeLanes([]*lane{ln}, usage{Wall: 2100 * time.Millisecond})
	if s.Windows != 2 || s.Ops != 4 {
		t.Fatalf("windows %d ops %d, want 2 and 4", s.Windows, s.Ops)
	}
	if s.OpsPerS != 1.5 { // median of 2/s and 1/s
		t.Errorf("OpsPerS = %v, want 1.5", s.OpsPerS)
	}
	if math.Abs(s.P50US-0.15) > 1e-12 { // median of 0.1us and 0.2us
		t.Errorf("P50US = %v, want 0.15", s.P50US)
	}
}

// A window in which the hypervisor withheld CPU is dropped from the medians
// and from the CPU charged per operation.
func TestDisturbedWindowsAreDropped(t *testing.T) {
	ln := newLane(time.Second, 16, false)
	ln.add(100, 500*time.Millisecond)  // window 0: one op
	ln.add(100, 1500*time.Millisecond) // window 1: three ops, but disturbed
	ln.add(100, 1600*time.Millisecond)
	ln.add(100, 1700*time.Millisecond)
	ln.add(100, 2500*time.Millisecond)                     // window 2: one op
	ln.add(100, 3100*time.Millisecond)                     // closes window 2
	stolen := int64(float64(runtime.NumCPU()) * 100 * 0.5) // half the capacity of a one-second window
	ln.marks = []machineMark{{0, 0}, {0, 10 * time.Microsecond}, {stolen, 90 * time.Microsecond}, {stolen, 100 * time.Microsecond}}
	s := summarizeLanes([]*lane{ln}, usage{Wall: 3100 * time.Millisecond, CPU: time.Second})
	if s.Windows != 3 || s.Disturbed != 1 {
		t.Fatalf("windows %d disturbed %d, want 3 and 1", s.Windows, s.Disturbed)
	}
	if s.OpsPerS != 1 {
		t.Errorf("OpsPerS = %v, want 1 (the disturbed window had 3)", s.OpsPerS)
	}
	if s.CPUUS != 10 { // (10us + 10us) over 2 ops; the disturbed window's 80us are not charged
		t.Errorf("CPUUS = %v, want 10", s.CPUUS)
	}
}

func TestCorpusIsSeeded(t *testing.T) {
	_, a, err := buildCorpus(7, smokeCorpus)
	if err != nil {
		t.Fatal(err)
	}
	_, b, _ := buildCorpus(7, smokeCorpus)
	_, c, _ := buildCorpus(8, smokeCorpus)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two different corpora")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same corpus")
	}
	// Every position holds the same shape under every seed: that is what
	// keeps mean-based metrics, and any prefix used as a working set,
	// comparable across seeds.
	for i := range a {
		if a[i].App != c[i].App || a[i].Tag != c[i].Tag {
			t.Fatalf("slot %d is %s/%s under seed 7 and %s/%s under seed 8", i, a[i].App, a[i].Tag, c[i].App, c[i].Tag)
		}
	}
	draw := func(seed int64) []uint64 {
		z := newZipf(rngFor(seed, streamClient), 1000)
		out := make([]uint64, 200)
		for i := range out {
			out[i] = z.Uint64()
		}
		return out
	}
	if !slices.Equal(draw(7), draw(7)) || slices.Equal(draw(7), draw(8)) {
		t.Error("Zipf draws are not a function of the seed alone")
	}
	lits := func(seed int64) []int64 {
		r := rngFor(seed, streamClient+1)
		out := make([]int64, 200)
		for i := range out {
			out[i] = r.Int63n(literalSpace)
		}
		return out
	}
	if !slices.Equal(lits(7), lits(7)) || slices.Equal(lits(7), lits(8)) {
		t.Error("the unique-literal stream is not a function of the seed alone")
	}
}

func TestLastIntLiteral(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want string // the literal found, "" for none
	}{
		{"SELECT * FROM t WHERE a = 42", "42"},
		{"SELECT * FROM t WHERE a = 42 ORDER BY id DESC LIMIT 7", "7"},
		{"SELECT * FROM t1 INNER JOIN t2 ON t1.a = t2.b", ""},
		{"SELECT * FROM t WHERE a IN (SELECT b FROM u WHERE c = 5)", "5"},
		{"SELECT * FROM (SELECT 1 FROM t) AS m3 WHERE x = 1.5", "1"},
		{"SELECT * FROM t WHERE s = '12'", ""},
	} {
		start, end, ok := lastIntLiteral(tc.in)
		got := ""
		if ok {
			got = tc.in[start:end]
		}
		if got != tc.want {
			t.Errorf("lastIntLiteral(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// Unique variants must be distinct cache keys and must still be queries the
// dialect plans — otherwise serve_miss would measure 4xx answers or hits.
func TestMissVariantsDistinctAndPlannable(t *testing.T) {
	env, err := setupRewrite(3, smokeCorpus)
	if err != nil {
		t.Fatal(err)
	}
	rng := rngFor(3, streamClient)
	seen := map[string]bool{}
	mutated := 0
	for i, q := range env.corpus {
		m := newMutable(q.SQL)
		if !m.ok {
			continue
		}
		mutated++
		for k := 0; k < 2; k++ {
			text := m.text(rng.Int63n(literalSpace))
			key := q.App + "\x00" + sql.NormalizeQuery(text)
			if seen[key] {
				t.Errorf("variant %q repeats", text)
			}
			seen[key] = true
			if _, err := env.optOf[i].PlanSQL(text); err != nil {
				t.Errorf("variant %q does not plan: %v", text, err)
			}
			var wire struct{ SQL string }
			body := `{"SQL":"` + string(m.appendJSON(nil, 12345)) + `"}`
			if err := json.Unmarshal([]byte(body), &wire); err != nil || wire.SQL != m.text(12345) {
				t.Errorf("JSON form of %q decodes to %q (%v)", m.text(12345), wire.SQL, err)
			}
		}
	}
	if mutated == 0 {
		t.Fatal("no corpus query carries an integer literal")
	}
}

func specNames(ms []specMetric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default is %d", spec.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("workloads = %v, the program has %v", names, workloadNames)
	}
	if got, want := specNames(spec.EndToEnd), sortedKeys(endToEndUnits); !slices.Equal(got, want) {
		t.Errorf("end_to_end = %v, the program reports %v", got, want)
	}
	if got, want := specNames(spec.PerLayer), sortedKeys(perLayerUnits); !slices.Equal(got, want) {
		t.Errorf("per_layer = %v, the program reports %v", got, want)
	}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		unit := endToEndUnits[m.Name]
		if unit == "" {
			unit = perLayerUnits[m.Name]
		}
		if m.Unit != unit {
			t.Errorf("%s: unit %q in BENCHMARK.json, %q in the program", m.Name, m.Unit, unit)
		}
	}
}

// The functional check behind -smoke: every workload, timed and traced, on
// shrunken inputs, must be correct and report exactly the metrics
// BENCHMARK.json declares for that mode.
func TestSmokeReportsEveryDeclaredMetric(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			r, err := runWorkload(runConfig{workload: name, seed: 5, seconds: 0.3, trace: trace, smoke: true})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%v: attempted %d, failed %d: %v", name, trace, r.Attempted, r.Failed, r.Failures)
			}
			want := specNames(spec.EndToEnd)
			if trace {
				want = specNames(spec.PerLayer)
			}
			if got := r.Metrics.names(); !slices.Equal(got, want) {
				t.Errorf("%s trace=%v reports %v, BENCHMARK.json declares %v", name, trace, got, want)
			}
			var line struct {
				Correct   *bool             `json:"correct"`
				Attempted *int64            `json:"attempted"`
				Failed    *int64            `json:"failed"`
				Metrics   map[string]metric `json:"metrics"`
				Extra     map[string]any    `json:"-"`
			}
			if err := json.Unmarshal([]byte(r.finalLine()), &line); err != nil || line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(want) {
				t.Errorf("%s trace=%v: final line %s does not carry correct, attempted, failed and %d metrics (%v)", name, trace, r.finalLine(), len(want), err)
			}
			if !trace {
				for metricName, m := range r.Metrics {
					if m.Value <= 0 || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s: end-to-end metric %s = %v; it must never be 0", name, metricName, m.Value)
					}
				}
			}
		}
	}
}
