package loadgen

import (
	"context"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"wetune/internal/faultinject"
)

// TestDefaultScheduleShape pins the chaos script's contract: serving-path
// points only (ProverStall lives on the discovery pipeline), every window
// inside the run, and a clean tail so ladder recovery is assertable.
func TestDefaultScheduleShape(t *testing.T) {
	const d = 10 * time.Second
	phases := DefaultSchedule(d)
	if len(phases) == 0 {
		t.Fatal("empty schedule")
	}
	var lastEnd time.Duration
	for _, ph := range phases {
		if ph.Fault.Point == faultinject.ProverStall {
			t.Error("ProverStall in the serving-path schedule")
		}
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
		PlaySchedule(context.Background(), 1, phases)
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
// fault schedule plays over live load and every invariant must hold.
func TestRunSoakShort(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second soak")
	}
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
	if len(rep.FaultsFired) == 0 {
		t.Error("no faults fired — the schedule never armed")
	}
	if rep.FinalLevel != "full" {
		t.Errorf("final level = %q, want full", rep.FinalLevel)
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
