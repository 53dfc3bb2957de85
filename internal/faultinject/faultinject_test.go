package faultinject

import (
	"sync"
	"testing"
	"time"

	"wetune/internal/obs"
)

// fired reads pt's fault_injected_<point> counter, the one record of its
// fires; tests compare it before and after.
func fired(pt Point) int64 {
	return obs.Default().Counter("fault_injected_" + string(pt)).Value()
}

// TestInventoryRoundTrip pins the point inventory and the index↔point mapping
// that gives each point its own decision stream.
func TestInventoryRoundTrip(t *testing.T) {
	pts := Points()
	if len(pts) == 0 {
		t.Fatal("empty inventory")
	}
	seen := map[Point]bool{}
	for i, p := range pts {
		if seen[p] {
			t.Errorf("duplicate point %q", p)
		}
		seen[p] = true
		if got := index(p); got != int64(i) {
			t.Errorf("index(%q) = %d, want %d", p, got, i)
		}
	}
	if index("bogus") != -1 {
		t.Error("index of an unknown point should be -1")
	}
}

// TestDisarmedNeverFires pins design constraint #1: with nothing configured,
// every point is a no-op and Armed is false.
func TestDisarmedNeverFires(t *testing.T) {
	Reset()
	if Armed() {
		t.Fatal("Armed() after Reset")
	}
	for _, p := range Points() {
		before := fired(p)
		if Fire(p) {
			t.Errorf("disarmed point %q fired", p)
		}
		MaybePanic(p) // must not panic
		Stall(p)      // must not sleep
		if got := fired(p) - before; got != 0 {
			t.Errorf("disarmed point %q counted %d fires", p, got)
		}
	}
}

// TestRateExtremes: rate 1 fires every decision, rate 0 never fires, and the
// fired counter tracks exactly.
func TestRateExtremes(t *testing.T) {
	defer Reset()
	if err := Configure(7,
		Fault{Point: CacheFail, Rate: 1},
		Fault{Point: EncodeError, Rate: 0},
	); err != nil {
		t.Fatal(err)
	}
	if !Armed() {
		t.Fatal("Armed() = false after Configure")
	}
	const n = 200
	failBefore, encodeBefore := fired(CacheFail), fired(EncodeError)
	for i := 0; i < n; i++ {
		if !Fire(CacheFail) {
			t.Fatalf("rate-1 point did not fire on decision %d", i)
		}
		if Fire(EncodeError) {
			t.Fatalf("rate-0 point fired on decision %d", i)
		}
	}
	if got := fired(CacheFail) - failBefore; got != n {
		t.Errorf("fault_injected_cache_fail moved %d, want %d", got, n)
	}
	if got := fired(EncodeError) - encodeBefore; got != 0 {
		t.Errorf("fault_injected_encode_error moved %d, want 0", got)
	}
}

// drawN records pt's next n decisions.
func drawN(pt Point, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = Fire(pt)
	}
	return out
}

// TestDeterministicStreams pins design constraint #2: the decision sequence
// is a pure function of (seed, point, call index) — same seed, same stream;
// and an intermediate rate is neither all-fire nor all-miss.
func TestDeterministicStreams(t *testing.T) {
	defer Reset()
	const n = 256
	if err := Configure(42, Fault{Point: SearchStarve, Rate: 0.5}); err != nil {
		t.Fatal(err)
	}
	first := drawN(SearchStarve, n)
	if err := Configure(42, Fault{Point: SearchStarve, Rate: 0.5}); err != nil {
		t.Fatal(err)
	}
	second := drawN(SearchStarve, n)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("same seed diverged at decision %d", i)
		}
	}
	fires := 0
	for _, f := range first {
		if f {
			fires++
		}
	}
	if fires == 0 || fires == n {
		t.Errorf("rate 0.5 fired %d/%d decisions — stream is degenerate", fires, n)
	}
}

// TestSetPreservesOtherStreams pins the phase-schedule contract: re-arming one
// point must not rewind any other point's decision stream.
func TestSetPreservesOtherStreams(t *testing.T) {
	defer Reset()
	const n = 100
	// Reference: CacheFail's first 3n decisions under seed 9, uninterrupted.
	if err := Configure(9, Fault{Point: CacheFail, Rate: 0.5}); err != nil {
		t.Fatal(err)
	}
	ref := drawN(CacheFail, 3*n)

	// Same seed, but re-arm an unrelated point midway through the stream.
	if err := Configure(9,
		Fault{Point: CacheFail, Rate: 0.5},
		Fault{Point: CacheSlow, Rate: 0.2},
	); err != nil {
		t.Fatal(err)
	}
	got := drawN(CacheFail, n)
	if err := Set(Fault{Point: CacheSlow, Rate: 0.9, Delay: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	got = append(got, drawN(CacheFail, n)...)

	// Re-arming the point itself keeps its stream position too: the next
	// decision after Set continues where the old config stopped.
	if err := Set(Fault{Point: CacheFail, Rate: 0.5}); err != nil {
		t.Fatal(err)
	}
	got = append(got, drawN(CacheFail, n)...)
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("Set disturbed the stream at decision %d", i)
		}
	}
}

// TestClearDisarmsOnePoint: Clear removes one point and leaves the rest armed.
func TestClearDisarmsOnePoint(t *testing.T) {
	defer Reset()
	if err := Configure(3,
		Fault{Point: HandlerPanic, Rate: 1},
		Fault{Point: CacheFail, Rate: 1},
	); err != nil {
		t.Fatal(err)
	}
	Clear(HandlerPanic)
	if Fire(HandlerPanic) {
		t.Error("cleared point fired")
	}
	if !Fire(CacheFail) {
		t.Error("unrelated point was disarmed by Clear")
	}
	Clear(CacheFail)
	if Armed() {
		t.Error("Armed() = true with every point cleared")
	}
}

// TestConfigureRejectsBadFaults: unknown points and out-of-range rates are
// configuration errors, for Configure and Set both.
func TestConfigureRejectsBadFaults(t *testing.T) {
	defer Reset()
	if err := Configure(1, Fault{Point: "bogus", Rate: 0.5}); err == nil {
		t.Error("Configure accepted an unknown point")
	}
	if err := Configure(1, Fault{Point: CacheFail, Rate: 1.5}); err == nil {
		t.Error("Configure accepted rate > 1")
	}
	if err := Configure(1, Fault{Point: CacheFail, Rate: -0.1}); err == nil {
		t.Error("Configure accepted rate < 0")
	}
	if err := Set(Fault{Point: "bogus"}); err == nil {
		t.Error("Set accepted an unknown point")
	}
	// A failed Configure must not leave a half-armed registry.
	if Armed() {
		t.Error("Armed() = true after failed Configure")
	}
}

// TestStallSleepsWhenFired: the sleep-type point with rate 1 stalls for its
// configured delay.
func TestStallSleepsWhenFired(t *testing.T) {
	defer Reset()
	const delay = 10 * time.Millisecond
	if err := Configure(1, Fault{Point: CacheSlow, Rate: 1, Delay: delay}); err != nil {
		t.Fatal(err)
	}
	before := fired(CacheSlow)
	start := time.Now()
	Stall(CacheSlow)
	if elapsed := time.Since(start); elapsed < delay {
		t.Errorf("Stall slept %v, want >= %v", elapsed, delay)
	}
	if got := fired(CacheSlow) - before; got != 1 {
		t.Errorf("fault_injected_cache_slow moved %d, want 1", got)
	}
}

// TestMaybePanicRaisesInjected: the panic value is a typed Injected carrying
// the point, so the server's recover can tell it from a real panic.
func TestMaybePanicRaisesInjected(t *testing.T) {
	defer Reset()
	if err := Configure(1, Fault{Point: HandlerPanic, Rate: 1}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		v := recover()
		inj, ok := v.(Injected)
		if !ok {
			t.Fatalf("panic value = %#v, want Injected", v)
		}
		if inj.Point != HandlerPanic {
			t.Errorf("Injected.Point = %q, want %q", inj.Point, HandlerPanic)
		}
		var err error = inj
		if err.Error() == "" {
			t.Error("Injected has no error message")
		}
	}()
	MaybePanic(HandlerPanic)
	t.Fatal("MaybePanic(rate 1) did not panic")
}

// TestConcurrentReconfigure hammers the hot path while the configuration
// churns — the copy-on-write plan must keep this race-free (run with -race).
func TestConcurrentReconfigure(t *testing.T) {
	defer Reset()
	if err := Configure(5, Fault{Point: CacheFail, Rate: 0.5}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, p := range Points() {
					Fire(p)
					Armed()
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		switch i % 4 {
		case 0:
			_ = Set(Fault{Point: SearchStarve, Rate: 0.3})
		case 1:
			Clear(SearchStarve)
		case 2:
			_ = Configure(int64(i), Fault{Point: CacheFail, Rate: 0.5})
		case 3:
			Reset()
		}
	}
	close(stop)
	wg.Wait()
}
