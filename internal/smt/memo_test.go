package smt

import (
	"context"
	"sync"
	"testing"
	"time"

	"wetune/internal/fol"
	"wetune/internal/intern"
	"wetune/internal/obs"
)

// memoGoal is a satisfiable formula whose search takes a few decisions.
func memoGoal(n int) fol.Formula {
	var fs []fol.Formula
	for i := 0; i < n; i++ {
		fs = append(fs, fol.MkOr(
			&fol.PredApp{Pred: psym(i), T: v(i)},
			&fol.PredApp{Pred: psym(i + 100), T: v(i + 100)},
		))
	}
	return fol.MkAnd(fs...)
}

func memoOptions(m *Memo, reg *obs.Registry) Options {
	return Options{MaxNodes: 20000, InstRounds: 1, MaxTermDepth: 2, Ctx: WithMemo(context.Background(), m), Metrics: reg}
}

// TestMemoAnswersRepeatsWithoutSearch: a repeat returns the stored result and
// stats, counts as an answer and a memo hit, and adds no search effort.
func TestMemoAnswersRepeatsWithoutSearch(t *testing.T) {
	m, reg := new(Memo), obs.NewRegistry()
	opts := memoOptions(m, reg)
	res1, st1 := Solve(memoGoal(6), opts)
	decisions := reg.Counter(metricDecisions).Value()
	res2, st2 := Solve(memoGoal(6), opts)
	if res1 != Sat || res2 != res1 || st2 != st1 || st1.Decisions == 0 {
		t.Fatalf("repeat: %s %+v, first solve %s %+v", res2, st2, res1, st1)
	}
	if h, mi, n := m.Counts(); h != 1 || mi != 1 || n != 1 {
		t.Errorf("memo hits=%d misses=%d stored=%d, want 1 1 1", h, mi, n)
	}
	if got := reg.Counter(metricOutcome + "sat").Value(); got != 2 {
		t.Errorf("smt_outcome_sat = %d, want both answers", got)
	}
	if reg.Counter(metricMemoHits).Value() != 1 || reg.Counter(metricDecisions).Value() != decisions ||
		reg.Histogram(metricProofSeconds).Count() != 1 {
		t.Errorf("a memo hit must count in smt_memo_hits and nowhere in the search effort")
	}
}

// TestMemoSkipsClockStops: a solve stopped by the deadline or a cancelled
// context is not stored, so the next solve of the goal searches.
func TestMemoSkipsClockStops(t *testing.T) {
	m := new(Memo)
	opts := memoOptions(m, obs.NewRegistry())
	base := opts.Ctx

	opts.Deadline = time.Nanosecond
	if res, st := Solve(memoGoal(12), opts); res != Unknown || st.StoppedBy != StopDeadline {
		t.Fatalf("deadline: %s stopped-by=%s", res, st.StoppedBy)
	}
	opts.Deadline = 0
	ctx, cancel := context.WithCancel(base)
	cancel()
	opts.Ctx = ctx
	if res, st := Solve(memoGoal(12), opts); res != Unknown || st.StoppedBy != StopDeadline {
		t.Fatalf("cancelled: %s stopped-by=%s", res, st.StoppedBy)
	}
	if _, _, n := m.Counts(); n != 0 {
		t.Fatalf("memo stored %d clock-stopped solves", n)
	}
	opts.Ctx = base
	if res, st := Solve(memoGoal(12), opts); res != Sat || st.StoppedBy != StopNone || st.Nodes == 0 {
		t.Errorf("after clock stops: %s %+v, want a real solve", res, st)
	}
	if h, mi, n := m.Counts(); h != 0 || mi != 3 || n != 1 {
		t.Errorf("memo hits=%d misses=%d stored=%d, want 0 3 1", h, mi, n)
	}
}

// TestMemoKeysOnSearchBounds: the bounds that shape the search are part of
// the key.
func TestMemoKeysOnSearchBounds(t *testing.T) {
	m := new(Memo)
	opts := memoOptions(m, obs.NewRegistry())
	Solve(memoGoal(6), opts)
	opts.MaxNodes = 200000
	Solve(memoGoal(6), opts)
	if h, _, n := m.Counts(); n != 2 || h != 0 {
		t.Errorf("MaxNodes 20000 and 200000: %d entries, %d hits; want 2 and 0", n, h)
	}
	opts.MaxNodes = 20000
	Solve(memoGoal(6), opts)
	if h, _, n := m.Counts(); n != 2 || h != 1 {
		t.Errorf("MaxNodes 20000 again: %d entries, %d hits; want 2 and 1", n, h)
	}
}

// TestMemoAcrossPools: the same goal built in two pools is one entry, and
// the second pool gets the first pool's answer.
func TestMemoAcrossPools(t *testing.T) {
	m := new(Memo)
	opts := memoOptions(m, obs.NewRegistry())
	var got [2]Stats
	for i := range got {
		p := intern.NewPool()
		p.MkVar(1000 + i) // different pool histories
		opts.Pool = p
		_, got[i] = SolveNNF(NNF(p, memoGoal(6)), opts)
	}
	if h, _, n := m.Counts(); n != 1 || h != 1 || got[0] != got[1] {
		t.Errorf("two pools: %d entries, %d hits, stats %+v and %+v", n, h, got[0], got[1])
	}
}

// TestMemoSharedByGoroutines: goroutines that each solve in a pool of their
// own share one memo and all get the results of a memo-free solve. The race
// detector run covers the locking.
func TestMemoSharedByGoroutines(t *testing.T) {
	type answer struct {
		res Result
		st  Stats
	}
	var want []answer
	for n := 1; n <= 8; n++ {
		res, st := Solve(memoGoal(n), Options{MaxNodes: 20000, InstRounds: 1, MaxTermDepth: 2, Metrics: obs.NewRegistry()})
		want = append(want, answer{res, st})
	}
	m := new(Memo)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			opts := memoOptions(m, obs.NewRegistry())
			opts.Pool = intern.NewPool()
			for round := 0; round < 3; round++ {
				for n := 1; n <= 8; n++ {
					if res, st := Solve(memoGoal(n), opts); (answer{res, st}) != want[n-1] {
						t.Errorf("goroutine %d, goal %d: %s %+v, want %+v", g, n, res, st, want[n-1])
					}
				}
			}
		}()
	}
	wg.Wait()
	if h, mi, n := m.Counts(); n != 8 || h+mi != 4*3*8 || h < 4*2*8 {
		t.Errorf("memo hits=%d misses=%d stored=%d", h, mi, n)
	}
}
