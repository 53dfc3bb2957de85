package server

import (
	"context"
	"time"

	"wetune/internal/obs"
)

// admission is the bounded two-stage gate in front of the worker pool.
//
// Stage 1 (admit) is non-blocking: a request claims one of
// workers+queueDepth admission slots or is rejected on the spot — the 429
// path. The total number of requests the daemon holds in memory is
// therefore hard-bounded no matter the offered load; overload costs the
// client a retry, never the server an unbounded goroutine pile-up.
//
// Stage 2 (acquireWorker) is blocking with a deadline: an admitted request
// waits for one of the workers execution tokens, charging the wait against
// its own request deadline — a request that spends its budget queueing
// reports 504 rather than starting a search it can no longer finish. The
// deadline is a value, not a context timer: a free token is taken without
// arming anything, and only a request that must wait arms a timer.
type admission struct {
	slots chan struct{} // admission slots: held admit → release
	work  chan struct{} // execution tokens: held acquireWorker → releaseWorker

	queued   *obs.Gauge   // admitted, waiting for a worker
	inflight *obs.Gauge   // holding an execution token
	rejected *obs.Counter // admit refusals (the 429s)
}

func newAdmission(workers, queueDepth int, reg *obs.Registry) *admission {
	return &admission{
		slots:    make(chan struct{}, workers+queueDepth),
		work:     make(chan struct{}, workers),
		queued:   reg.Gauge("server_queue_depth"),
		inflight: reg.Gauge("server_inflight"),
		rejected: reg.Counter("server_admission_rejected"),
	}
}

// admit claims an admission slot without blocking; false means the queue is
// full and the request must be rejected. Pair with release.
func (a *admission) admit() bool {
	select {
	case a.slots <- struct{}{}:
		a.queued.Add(1)
		return true
	default:
		a.rejected.Inc()
		return false
	}
}

// release returns the admission slot claimed by admit.
func (a *admission) release() {
	a.queued.Add(-1)
	<-a.slots
}

// takeToken claims an execution token, waiting at most until deadline and
// no longer than the client stays: ctx is the request's own context, whose
// cancellation (a dropped connection) ends the wait too. It tries without
// blocking first, so neither the timer nor ctx's Done channel is made unless
// the request has to wait.
func (a *admission) takeToken(ctx context.Context, deadline time.Time) bool {
	select {
	case a.work <- struct{}{}:
		return true
	default:
	}
	wait := time.Until(deadline)
	if wait <= 0 {
		return false
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case a.work <- struct{}{}:
		return true
	case <-t.C:
		return false
	case <-ctx.Done():
		return false
	}
}

// acquireWorker claims an execution token (see takeToken); false means the
// deadline passed or the client left first. Pair with releaseWorker on
// success.
func (a *admission) acquireWorker(ctx context.Context, deadline time.Time) bool {
	if !a.takeToken(ctx, deadline) {
		return false
	}
	a.inflight.Add(1)
	a.queued.Add(-1)
	return true
}

// releaseWorker returns the execution token claimed by acquireWorker.
func (a *admission) releaseWorker() {
	a.inflight.Add(-1)
	a.queued.Add(1) // the admission slot is still held until release
	<-a.work
}

// beginExec / endExec bracket a parallel batch: the request leaves the queue
// gauge for the span of its fan-out (it holds its one admission slot
// throughout, while its items claim execution tokens individually), then
// rejoins it just before release's decrement. Keeps server_queue_depth =
// "admitted requests not currently executing" under both request shapes.
func (a *admission) beginExec() { a.queued.Add(-1) }
func (a *admission) endExec()   { a.queued.Add(1) }

// acquireItemWorker claims an execution token for one batch item (see
// takeToken). Unlike acquireWorker it leaves the queue gauge alone — the
// owning request's queue accounting is handled once by beginExec/endExec,
// not per item. Pair with releaseItemWorker.
func (a *admission) acquireItemWorker(ctx context.Context, deadline time.Time) bool {
	if !a.takeToken(ctx, deadline) {
		return false
	}
	a.inflight.Add(1)
	return true
}

// releaseItemWorker returns the execution token claimed by acquireItemWorker.
func (a *admission) releaseItemWorker() {
	a.inflight.Add(-1)
	<-a.work
}
