package loadgen

import (
	"context"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"wetune/internal/faultinject"
	"wetune/internal/obs/journal"
)

// TestDefaultScheduleShape pins the chaos script's contract: every point of
// the inventory gets a window, every window lies inside the run, search
// starvation opens the run (the one stretch where misses are sure to reach
// the search), and a clean tail keeps ladder recovery assertable.
func TestDefaultScheduleShape(t *testing.T) {
	const d = 10 * time.Second
	phases := defaultSchedule(d)
	if len(phases) == 0 {
		t.Fatal("empty schedule")
	}
	var lastEnd time.Duration
	scheduled := map[faultinject.Point]FaultPhase{}
	for _, ph := range phases {
		scheduled[ph.Fault.Point] = ph
		if ph.Fault.Rate <= 0 || ph.Fault.Rate > 1 {
			t.Errorf("phase %s rate %v outside (0, 1]", ph.Fault.Point, ph.Fault.Rate)
		}
		if ph.At < 0 || ph.At+ph.Duration > d {
			t.Errorf("phase %s window [%v, %v] outside the run", ph.Fault.Point, ph.At, ph.At+ph.Duration)
		}
		if end := ph.At + ph.Duration; end > lastEnd {
			lastEnd = end
		}
	}
	if lastEnd > d*85/100 {
		t.Errorf("last fault clears at %v — the final 15%% of the run must be clean", lastEnd)
	}
	for _, pt := range faultinject.Points() {
		if _, ok := scheduled[pt]; !ok {
			t.Errorf("point %q has no window in the schedule", pt)
		}
	}
	if starve := scheduled[faultinject.SearchStarve]; starve.At != 0 {
		t.Errorf("search_starve opens at %v, want at the start of the run", starve.At)
	}
}

// TestPlayScheduleArmsAndClears: the player arms a phase at its offset,
// clears it at the end, and disarms everything on return.
func TestPlayScheduleArmsAndClears(t *testing.T) {
	defer faultinject.Reset()
	phases := []FaultPhase{{
		At:       0,
		Duration: 50 * time.Millisecond,
		Fault:    faultinject.Fault{Point: faultinject.CacheFail, Rate: 1},
	}}
	done := make(chan struct{})
	go func() {
		defer close(done)
		playSchedule(context.Background(), 1, phases)
	}()
	deadline := time.Now().Add(2 * time.Second)
	for !faultinject.Armed() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !faultinject.Fire(faultinject.CacheFail) {
		t.Error("armed phase did not fire at rate 1")
	}
	<-done
	if faultinject.Armed() {
		t.Error("registry still armed after the schedule finished")
	}
}

// TestRunSoakShort runs the full chaos soak harness at unit-test scale: the
// fault schedule plays over live load, every invariant holds, every point
// of the inventory fires, and the flight recorder retains every
// service-level transition of the run (nothing else it records happens at a
// rate that could push them out).
func TestRunSoakShort(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second soak")
	}
	jnl := journal.Default()
	before := jnl.Written()
	rep, err := RunSoak(context.Background(), SoakOptions{Duration: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("soak violated its invariants:\n%s", rep.Render())
	}
	if rep.Load.Requests == 0 {
		t.Error("soak made no requests")
	}
	for _, pt := range faultinject.Points() {
		if rep.FaultsFired[string(pt)] == 0 {
			t.Errorf("point %q never fired: %v", pt, rep.FaultsFired)
		}
	}
	if rep.FinalLevel != "full" {
		t.Errorf("final level = %q, want full", rep.FinalLevel)
	}
	levels := 0
	for _, ev := range jnl.Snapshot() {
		if ev.Seq >= before && ev.Kind == journal.KindServiceLevel {
			levels++
		}
	}
	if written := jnl.Written() - before; int64(levels) != rep.Transitions || written != uint64(levels) {
		t.Errorf("journal retains %d service-level events of %d written, want all %d server_level_transitions",
			levels, written, rep.Transitions)
	}
}

// TestRetryHonorsPushback: 429 answers with Retry-After are retried up to the
// attempt budget and the winning status is the one recorded.
func TestRetryHonorsPushback(t *testing.T) {
	var attempts atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	rep, err := Run(context.Background(), Options{
		Handler:     h,
		Concurrency: 1,
		Iterations:  1,
		Duration:    time.Minute,
		Retry:       RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 1 {
		t.Errorf("requests = %d, want 1 (retries are not extra requests)", rep.Requests)
	}
	if rep.Retries != 2 {
		t.Errorf("retries = %d, want 2", rep.Retries)
	}
	if rep.Status["200"] != 1 {
		t.Errorf("status = %v, want one 200", rep.Status)
	}
	if rep.Errors != 0 {
		t.Errorf("errors = %d, want 0", rep.Errors)
	}
}

// TestRetryBudgetExhausted: when every attempt is pushed back, the last 429
// stands — recorded as pushback, not as an error.
func TestRetryBudgetExhausted(t *testing.T) {
	var attempts atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		w.WriteHeader(http.StatusTooManyRequests)
	})
	rep, err := Run(context.Background(), Options{
		Handler:     h,
		Concurrency: 1,
		Iterations:  1,
		Duration:    time.Minute,
		Retry:       RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := attempts.Load(); got != 2 {
		t.Errorf("attempts = %d, want 2", got)
	}
	if rep.Retries != 1 {
		t.Errorf("retries = %d, want 1", rep.Retries)
	}
	if rep.Status["429"] != 1 || rep.Errors != 0 {
		t.Errorf("status = %v errors = %d, want one 429 and no errors", rep.Status, rep.Errors)
	}
}
