package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"wetune"
	"wetune/internal/server"
)

// Open-loop diagnostic rates (requests per second, all lanes together). They
// sit well below each workload's closed-loop throughput, so a backlog means
// the generator or the sandbox stalled, not that the server saturated.
const (
	openRateHot  = 4000
	openRateMiss = 3000
)

// sampleEvery is the stride of the seeded response sample the timed serve
// phases keep for the full decode and output check.
const sampleEvery = 64

// missOracleSample bounds how many sampled unique texts of serve_miss the
// oracle executes after the phase.
const missOracleSample = 1000

// serveEnv is a running in-process server plus the clients and request
// material of one serve workload.
type serveEnv struct {
	*rewriteEnv
	hot     bool
	srv     *server.Server
	traced  *http.Server // traced runs serve srv.Handler() behind the timing middleware
	served  chan error   // result of the Serve goroutine
	clients []*client
	muts    []mutable // muts[i] is corpus[i] split around its last literal
	work    []int     // hot: corpus indexes by popularity rank (a corpus prefix)
	sinks   []*handlerSink
	seed    int64
	smoke   bool
	phases  int // phases started so far; each draws its own request streams
}

// handlerSink receives one lane's handler intervals from the timing
// middleware, in request order.
type handlerSink struct {
	mu    sync.Mutex
	spans [][2]time.Time
}

// timingMiddleware wraps the server's handler for the traced run: the handler
// span is recorded from outside, keyed by the lane header the client sends.
func timingMiddleware(next http.Handler, sinks []*handlerSink) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		end := time.Now()
		lane, err := strconv.Atoi(r.Header.Get(laneHeader))
		if err != nil || lane < 0 || lane >= len(sinks) {
			return
		}
		s := sinks[lane]
		s.mu.Lock()
		s.spans = append(s.spans, [2]time.Time{start, end})
		s.mu.Unlock()
	})
}

// hotWorkingSet is the number of corpus slots serve_hot's working set spans.
const hotWorkingSet = 1000

// setupServe builds the corpus and reference answers, starts the server with
// its default configuration on a loopback listener, connects one client per
// CPU and sends every query of the workload once (hot: the working set, so it
// is cached; miss: the corpus unchanged).
func setupServe(seed int64, size corpusSize, hot, traced bool) (*serveEnv, error) {
	renv, err := setupRewrite(seed, size)
	if err != nil {
		return nil, err
	}
	env := &serveEnv{rewriteEnv: renv, hot: hot, seed: seed, smoke: size == smokeCorpus, served: make(chan error, 1)}
	env.muts = make([]mutable, len(env.corpus))
	for i, q := range env.corpus {
		env.muts[i] = newMutable(q.SQL)
	}
	if hot {
		n := hotWorkingSet
		if env.smoke {
			n = 100
		}
		// A prefix of the corpus: the same sample of shapes, and so the same
		// cost and response-size profile by popularity rank, under every
		// seed. Two slots may hold the same text; that query is then simply
		// more popular.
		env.work = allIndexes(min(n, len(env.corpus)))
	}
	env.srv, err = server.New(server.Config{Schemas: env.schemas})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		env.srv.Shutdown(context.Background())
		return nil, err
	}
	lanes := runtime.GOMAXPROCS(0)
	if traced {
		for i := 0; i < lanes; i++ {
			env.sinks = append(env.sinks, &handlerSink{})
		}
		env.traced = &http.Server{Handler: timingMiddleware(env.srv.Handler(), env.sinks), ReadHeaderTimeout: 5 * time.Second}
		go func() { env.served <- env.traced.Serve(ln) }()
	} else {
		go func() { env.served <- env.srv.Serve(ln) }()
	}
	for i := 0; i < lanes; i++ {
		c, err := dial(ln.Addr().String())
		if err != nil {
			env.close()
			return nil, err
		}
		env.clients = append(env.clients, c)
	}
	for _, i := range env.population() {
		c := env.clients[0]
		c.setQuery(&env.muts[i], -1, env.corpus[i].App)
		rep, err := c.post(-1)
		if err != nil || rep.Status != http.StatusOK {
			env.close()
			return nil, fmt.Errorf("setup: warm-up request for %q: status %d, err %v", env.corpus[i].SQL, rep.Status, err)
		}
	}
	if traced {
		for _, s := range env.sinks {
			s.spans = s.spans[:0]
		}
	}
	return env, nil
}

// close disconnects the clients, drains the server and waits for its Serve
// goroutine to return.
func (env *serveEnv) close() {
	for _, c := range env.clients {
		c.close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if env.traced != nil {
		env.traced.Shutdown(ctx)
	}
	env.srv.Shutdown(ctx)
	<-env.served
}

// fill sends unique variants until every app's cache tiers are full, so the
// timed serve_miss phase measures the steady state (each miss also evicts)
// rather than the first seconds of an empty cache. It returns the requests
// sent.
func (env *serveEnv) fill(fails *failureLog) int {
	perApp := map[string]int{}
	for _, q := range env.corpus {
		perApp[q.App]++
	}
	rarest := len(env.corpus)
	for _, n := range perApp {
		rarest = min(rarest, n)
	}
	// The rarest app sees rarest/len(corpus) of the traffic; 1.1 covers the
	// literal-free shapes that do not add entries.
	total := int(math.Ceil(1.1 * servingCacheSize * float64(len(env.corpus)) / float64(rarest)))
	if env.smoke {
		total = min(total, 2000) // a functional check has no steady state to reach
	}
	phaseNo := env.nextPhase()
	var wg sync.WaitGroup
	for li, c := range env.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := env.source(phaseNo, li).rng
			for k := li; k < total; k += len(env.clients) {
				i := k % len(env.corpus)
				c.setQuery(&env.muts[i], rng.Int63n(literalSpace), env.corpus[i].App)
				if rep, err := c.post(-1); err != nil || rep.Status != http.StatusOK {
					fails.add("fill: %q: status %d, err %v", env.corpus[i].SQL, rep.Status, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return total
}

// request names one operation of a serve workload: a corpus query and, for
// serve_miss, the literal that makes its text unique (-1 = unchanged).
type request struct {
	idx int
	lit int64
}

// requestSource is one lane's seeded request stream.
type requestSource struct {
	env    *serveEnv
	rng    *rand.Rand
	zipf   *rand.Zipf
	cursor int
}

// nextPhase numbers the phases of a run.
func (env *serveEnv) nextPhase() int {
	env.phases++
	return env.phases
}

// population is the corpus indexes the workload's requests are drawn from:
// the working set when hot, every query otherwise.
func (env *serveEnv) population() []int {
	if env.hot {
		return env.work
	}
	return allIndexes(len(env.corpus))
}

// source returns lane's request stream for phase number phase. Every phase
// draws from its own stream: replaying an earlier phase's unique texts would
// turn misses into hits.
func (env *serveEnv) source(phase, lane int) *requestSource {
	rs := &requestSource{env: env, rng: rngFor(env.seed, streamClient+1000*phase+lane)}
	if env.hot {
		rs.zipf = newZipf(rs.rng, len(env.work))
	} else {
		rs.cursor = lane * len(env.corpus) / len(env.clients)
	}
	return rs
}

func (rs *requestSource) next() request {
	if rs.env.hot {
		return request{idx: rs.env.work[rs.zipf.Uint64()], lit: -1}
	}
	rs.cursor++
	if rs.cursor >= len(rs.env.order) {
		rs.cursor = 0
	}
	return request{idx: rs.env.order[rs.cursor], lit: rs.rng.Int63n(literalSpace)}
}

// sample is a response kept for the post-phase decode and output check.
type sample struct {
	req  request
	body []byte
}

// laneTotals is what one lane's closed loop accumulates besides latencies.
type laneTotals struct {
	attempted, cached     int64
	rejected, timedOut    int64 // 429, 504
	degraded              int64 // 200 below service level "full"
	costBefore, costAfter float64
	samples               []sample
	ops                   []tracedOp
}

// tracedOp is what a traced lane records per operation, joined with the
// handler sink after the phase.
type tracedOp struct {
	sent, received   time.Time
	libStart, libEnd time.Time
	bytes            int
}

// wireResponse is the part of a /v1/rewrite answer the benchmark decodes.
type wireResponse struct {
	App        string  `json:"app"`
	Output     string  `json:"output"`
	CostBefore float64 `json:"cost_before"`
	CostAfter  float64 `json:"cost_after"`
	Cached     bool    `json:"cached"`
}

// account classifies a response and folds its costs into the lane totals. It
// returns false for a failed operation.
func (env *serveEnv) account(rep reply, req request, tot *laneTotals, fails *failureLog) bool {
	q := env.corpus[req.idx]
	switch {
	case rep.Status == http.StatusTooManyRequests:
		tot.rejected++
	case rep.Status == http.StatusGatewayTimeout:
		tot.timedOut++
	case rep.Status == http.StatusOK && !rep.Full:
		tot.degraded++
	}
	if rep.Status != http.StatusOK || !rep.Full {
		fails.add("serve: %s: %q: status %d, full service level %v", q.App, env.muts[req.idx].text(req.lit), rep.Status, rep.Full)
		return false
	}
	before, ok1 := scanNumber(rep.Body, keyCostBefore)
	after, ok2 := scanNumber(rep.Body, keyCostAfter)
	if !ok1 || !ok2 {
		fails.add("serve: %s: %q: response carries no costs: %s", q.App, env.muts[req.idx].text(req.lit), rep.Body)
		return false
	}
	tot.costBefore += before
	tot.costAfter += after
	if bytes.Contains(rep.Body, keyCachedTrue) {
		tot.cached++
	}
	return true
}

// closedLoop runs one closed-loop phase: every client sends its next request
// when the previous answer arrived, for d. With lib set (traced runs) every
// response is decoded and replayed on cache-enabled library optimizers;
// otherwise one response in sampleEvery is kept for checking afterwards.
func (env *serveEnv) closedLoop(d time.Duration, fails *failureLog, lib map[string]*wetune.Optimizer) (phase, []*laneTotals) {
	lanes := newLanes(len(env.clients), d, 100_000)
	totals := make([]*laneTotals, len(env.clients))
	for i := range totals {
		totals[i] = &laneTotals{}
	}
	ctx := context.Background()
	phaseNo := env.nextPhase()
	runtime.GC()
	mark := markUsage()
	start := time.Now()
	var wg sync.WaitGroup
	for li, c := range env.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src, ln, tot := env.source(phaseNo, li), lanes[li], totals[li]
			pick := rngFor(env.seed, streamSample+100*li)
			header := -1
			if lib != nil {
				header = li
			}
			for {
				req := src.next()
				q := &env.corpus[req.idx]
				c.setQuery(&env.muts[req.idx], req.lit, q.App)
				t0 := time.Now()
				rep, err := c.post(header)
				t1 := time.Now()
				tot.attempted++
				if err != nil {
					fails.add("serve: %s: %q: %v", q.App, q.SQL, err)
					if c.redial() != nil {
						return
					}
				} else {
					ln.add(t1.Sub(t0), t1.Sub(start))
					ok := env.account(rep, req, tot, fails)
					switch {
					case !ok:
					case lib != nil:
						env.observe(ctx, lib, req, rep, t0, t1, tot, fails)
					case pick.Intn(sampleEvery) == 0:
						tot.samples = append(tot.samples, sample{req: req, body: bytes.Clone(rep.Body)})
					}
				}
				if t1.Sub(start) >= d {
					return
				}
			}
		}()
	}
	wg.Wait()
	use := mark.since()
	ph := phase{loopSummary: summarizeLanes(lanes, use), Use: use}
	for _, tot := range totals {
		ph.CostBefore += tot.costBefore
		ph.CostAfter += tot.costAfter
	}
	return ph, totals
}

// observe is the traced per-response work: decode the answer, replay the same
// text on the cache-enabled library optimizer (the library op the handler's
// self time is measured against) and compare the outputs.
func (env *serveEnv) observe(ctx context.Context, lib map[string]*wetune.Optimizer, req request, rep reply, sent, received time.Time, tot *laneTotals, fails *failureLog) {
	q := env.corpus[req.idx]
	text := env.muts[req.idx].text(req.lit)
	var wire wireResponse
	if err := json.Unmarshal(rep.Body, &wire); err != nil {
		fails.add("serve: %s: %q: undecodable response: %v", q.App, text, err)
		return
	}
	opt := lib[q.App]
	l0 := time.Now()
	res, err := opt.OptimizeSQLResultContext(ctx, text)
	l1 := time.Now()
	if err != nil || res.Output != wire.Output {
		fails.add("serve: %s: %q: server answered %q, the library %v / %v", q.App, text, wire.Output, res, err)
		return
	}
	tot.ops = append(tot.ops, tracedOp{sent: sent, received: received, libStart: l0, libEnd: l1, bytes: len(rep.Body)})
}

// checkSamples decodes the kept responses and compares each output with the
// oracle-approved library answer: the reference answer for an unchanged
// query, a fresh cache-less library call for a unique variant. For serve_miss
// it also oracle-executes up to missOracleSample rewritten variants. It
// returns how many responses and how many oracle executions it checked.
func (env *serveEnv) checkSamples(totals []*laneTotals, orc *oracle, fails *failureLog) (decoded, executed int) {
	ctx := context.Background()
	for _, tot := range totals {
		for _, s := range tot.samples {
			q := env.corpus[s.req.idx]
			m := &env.muts[s.req.idx]
			text := m.text(s.req.lit)
			var wire wireResponse
			if err := json.Unmarshal(s.body, &wire); err != nil {
				fails.add("serve: %s: %q: undecodable response: %v", q.App, text, err)
				continue
			}
			decoded++
			if before, _ := scanNumber(s.body, keyCostBefore); before != wire.CostBefore {
				fails.add("serve: %q: scanned cost_before %v, decoded %v", text, before, wire.CostBefore)
			}
			want := env.expect[s.req.idx]
			if text != q.SQL {
				var err error
				if want, err = env.optOf[s.req.idx].OptimizeSQLResultContext(ctx, text); err != nil {
					fails.add("serve: %s: library rejects sampled text %q: %v", q.App, text, err)
					continue
				}
				if len(want.Applied) > 0 && executed < missOracleSample {
					executed++
					if err := orc.check(q.App, text, want.Output); err != nil {
						fails.add("oracle: %s: %q -> %q: %v", q.App, text, want.Output, err)
					}
				}
			}
			if wire.Output != want.Output || wire.App != q.App {
				fails.add("serve: %s: %q: server answered %q (app %s), reference %q", q.App, text, wire.Output, wire.App, want.Output)
			}
		}
	}
	return decoded, executed
}

// openLoop is the diagnostic fixed-rate phase: request k is due at k/rate
// after the start whatever happened to earlier ones, and its latency counts
// from that due time, so a stall charges every request it delays. Requests
// are dealt round-robin to the lanes; a lane spins on the clock until its next
// due time, because a sleeping goroutine on this sandbox wakes late by more
// than the latencies measured (sleeping put the median at 170 us, yielding in
// the loop at 280 us, spinning at 57 us on serve_hot).
func (env *serveEnv) openLoop(rate float64, d time.Duration, fails *failureLog) (latency, lateness []uint32) {
	n := len(env.clients)
	lat := make([][]uint32, n)
	late := make([][]uint32, n)
	start := time.Now().Add(10 * time.Millisecond)
	phaseNo := env.nextPhase()
	var wg sync.WaitGroup
	for li, c := range env.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := env.source(phaseNo, li)
			var tot laneTotals
			for k := li; ; k += n {
				due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
				if due.Sub(start) >= d {
					return
				}
				for time.Now().Before(due) {
				}
				req := src.next()
				c.setQuery(&env.muts[req.idx], req.lit, env.corpus[req.idx].App)
				sent := time.Now()
				rep, err := c.post(-1)
				done := time.Now()
				if err != nil {
					fails.add("open loop: %q: %v", env.corpus[req.idx].SQL, err)
					if c.redial() != nil {
						return
					}
					continue
				}
				env.account(rep, req, &tot, fails)
				lat[li] = append(lat[li], uint32(min(done.Sub(due), 4*time.Second)))
				late[li] = append(late[li], uint32(min(sent.Sub(due), 4*time.Second)))
			}
		}()
	}
	wg.Wait()
	for i := range lat {
		latency = append(latency, lat[i]...)
		lateness = append(lateness, late[i]...)
	}
	return latency, lateness
}

// newLibrary builds cache-enabled library optimizers configured like the
// server's (both tiers at the serving default) and warms them with the same
// queries the server was warmed with.
func (env *serveEnv) newLibrary() (map[string]*wetune.Optimizer, error) {
	lib := make(map[string]*wetune.Optimizer, len(env.schemas))
	rules := wetune.BuiltinRules()
	for app, schema := range env.schemas {
		opt := wetune.NewOptimizer(rules, schema)
		opt.EnableResultCache(servingCacheSize)
		opt.EnablePlanCache(servingCacheSize)
		lib[app] = opt
	}
	for _, i := range env.population() {
		if _, err := lib[env.corpus[i].App].OptimizeSQLResult(env.corpus[i].SQL); err != nil {
			return nil, err
		}
	}
	return lib, nil
}

// cacheTraffic sums hits and lookups over the library optimizers' caches.
func cacheTraffic(lib map[string]*wetune.Optimizer) (resultHits, resultAll, planHits, planAll int64) {
	for _, opt := range lib {
		if s, ok := opt.ResultCacheStats(); ok {
			resultHits += s.Hits
			resultAll += s.Hits + s.Misses
		}
		if s, ok := opt.PlanCacheStats(); ok {
			planHits += s.Hits
			planAll += s.Hits + s.Misses
		}
	}
	return
}

// joinSpans turns the traced lanes' records and the middleware's handler
// intervals into spans: client round trip → handler → library op. Lanes whose
// counts disagree (a failed request broke the pairing) are skipped.
func (env *serveEnv) joinSpans(t *tracer, totals []*laneTotals) (skipped int) {
	for li, tot := range totals {
		sink := env.sinks[li]
		sink.mu.Lock()
		handler := sink.spans
		sink.mu.Unlock()
		if len(handler) != int(tot.attempted) || len(tot.ops) != int(tot.attempted) {
			skipped++
			continue
		}
		for k, op := range tot.ops {
			t.begin()
			root := t.add("client.roundtrip", 0, op.sent, op.received)
			h := t.add("server.handler", root, handler[k][0], handler[k][1])
			t.add("wetune.optimize_cached", h, op.libStart, op.libEnd)
			t.finish()
		}
	}
	return skipped
}
