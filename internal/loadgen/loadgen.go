// Package loadgen is the closed-loop load generator behind `wetune
// loadtest`: N workers drive POST /v1/rewrite with the fixed rewrite corpus
// (workload.RewriteCorpus) against a live server or an in-process handler,
// and the run reports throughput, exact latency quantiles and per-status
// counts — the numbers that say whether the daemon's admission control and
// worker pool hold up under sustained load.
//
// Closed loop means each worker issues its next request as soon as the
// previous one answers (back-to-back, concurrency = open requests). An
// optional Rate paces the run instead: request k is due at start + k/Rate,
// the next free worker sends it then (or at once, when the run is behind),
// and its latency counts from when it was due, so a server that cannot keep
// up shows it in the latency quantiles rather than in requests quietly never
// sent.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wetune/internal/workload"
)

// Options configures one load run. Exactly one of BaseURL or Handler must
// be set.
type Options struct {
	// BaseURL targets a live server, e.g. "http://localhost:8080".
	BaseURL string
	// Handler targets an in-process handler (no sockets): the server's
	// admission, deadline and panic paths under load without the network.
	Handler http.Handler
	// Concurrency is the worker count (default 8).
	Concurrency int
	// Duration bounds the run's wall clock (default 5s when Iterations is 0).
	Duration time.Duration
	// Iterations bounds the total requests issued (0 = unbounded; the run
	// then stops on Duration).
	Iterations int64
	// Rate paces the run at this many requests/second across all workers
	// (0 = closed loop, as fast as responses return). Latency then counts
	// from each request's due time, not from when a worker got to it.
	Rate float64
	// PerApp sizes the corpus (queries per application archetype; default 20).
	PerApp int
	// Timeout is the per-request client timeout, also sent as timeout_ms so
	// the server's search budget matches (default 5s).
	Timeout time.Duration
	// Retry, when MaxAttempts > 1, re-issues requests the server pushed back
	// (429 admission rejections and 503 drain refusals) with capped
	// exponential backoff — the well-behaved-client loop a chaos run needs so
	// overload shows up as latency, not as a wall of client-side failures.
	Retry RetryPolicy
	// Seed drives the retry backoff jitter (0 = a fixed default); runs with
	// the same seed draw the same jitter sequence per worker.
	Seed int64
}

// RetryPolicy configures pushback retries. A 429/503 answer is retried after
// the server's Retry-After (when present, honored exactly) or an exponential
// backoff: BaseBackoff doubling per attempt up to MaxBackoff, plus up to 50%
// deterministic jitter so synchronized workers do not re-stampede the
// admission gate in lockstep.
type RetryPolicy struct {
	// MaxAttempts bounds tries per request, first included (0 or 1 = no
	// retries).
	MaxAttempts int
	// BaseBackoff is the first retry's backoff (default 10ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth (default 500ms).
	MaxBackoff time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 10 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 500 * time.Millisecond
	}
	return p
}

// Report is one load run's outcome. Latency quantiles are exact (computed
// over every recorded request, not bucketed). Errors counts transport
// failures and 5xx responses; 4xx responses (unparsable corpus queries
// answer 422 by design) count only in Status.
type Report struct {
	Date        string  `json:"date"`
	Target      string  `json:"target"`
	Concurrency int     `json:"concurrency"`
	RateRPS     float64 `json:"rate_rps,omitempty"`

	DurationMS int64            `json:"duration_ms"`
	Requests   int64            `json:"requests"`
	Errors     int64            `json:"errors"`
	Status     map[string]int64 `json:"status"`
	// Retries counts re-issued requests (429/503 pushback; see RetryPolicy).
	Retries int64 `json:"retries,omitempty"`
	// Injected5xx counts 5xx answers carrying the X-WeTune-Injected-Fault
	// header — damage a chaos schedule injected on purpose. They are excluded
	// from Errors: a chaos run's pass/fail looks at real failures only.
	Injected5xx int64 `json:"injected_5xx,omitempty"`
	// ServiceLevels tallies responses per X-WeTune-Service-Level value, the
	// client-side view of the server's degradation ladder during the run.
	ServiceLevels map[string]int64 `json:"service_levels,omitempty"`

	ThroughputRPS float64 `json:"throughput_rps"`
	P50MS         float64 `json:"p50_ms"`
	P90MS         float64 `json:"p90_ms"`
	P99MS         float64 `json:"p99_ms"`
	MeanMS        float64 `json:"mean_ms"`
	MaxMS         float64 `json:"max_ms"`
}

// handlerTransport adapts an http.Handler into a RoundTripper so the
// in-process mode reuses the exact HTTP code path (status codes, headers,
// body) without opening sockets.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, r)
	return rec.Result(), nil
}

// Run executes one load run until the duration, iteration bound or ctx
// cancellation — whichever first.
func Run(ctx context.Context, opts Options) (*Report, error) {
	if (opts.BaseURL == "") == (opts.Handler == nil) {
		return nil, fmt.Errorf("loadgen: exactly one of BaseURL or Handler is required")
	}
	if opts.Concurrency <= 0 {
		opts.Concurrency = 8
	}
	if opts.Duration <= 0 && opts.Iterations <= 0 {
		opts.Duration = 5 * time.Second
	}
	if opts.PerApp <= 0 {
		opts.PerApp = 20
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 5 * time.Second
	}

	// Pre-render every request body once; workers cycle through them, so
	// the generator allocates nothing per request beyond the HTTP machinery.
	_, items := workload.RewriteCorpus(opts.PerApp)
	if len(items) == 0 {
		return nil, fmt.Errorf("loadgen: empty corpus")
	}
	timeoutMS := opts.Timeout.Milliseconds()
	bodies := make([][]byte, len(items))
	for i, it := range items {
		b, err := json.Marshal(map[string]any{
			"sql": it.SQL, "app": it.App, "timeout_ms": timeoutMS,
		})
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}

	target := opts.BaseURL
	client := &http.Client{Timeout: opts.Timeout + time.Second}
	if opts.Handler != nil {
		target = "in-process"
		client.Transport = handlerTransport{h: opts.Handler}
	}
	url := strings.TrimSuffix(opts.BaseURL, "/") + "/v1/rewrite"
	if opts.Handler != nil {
		url = "http://in-process/v1/rewrite"
	}

	runCtx := ctx
	var cancel context.CancelFunc
	if opts.Duration > 0 {
		runCtx, cancel = context.WithTimeout(ctx, opts.Duration)
		defer cancel()
	}

	retry := opts.Retry.withDefaults()

	type workerStats struct {
		lats     []time.Duration
		status   map[int]int64
		levels   map[string]int64
		errs     int64
		retries  int64
		injected int64
	}
	var next atomic.Int64 // the next request to send, in send order
	stats := make([]workerStats, opts.Concurrency)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < opts.Concurrency; w++ {
		wg.Add(1)
		go func(ws *workerStats, rng uint64) {
			defer wg.Done()
			ws.status = map[int]int64{}
			ws.levels = map[string]int64{}
			for {
				if runCtx.Err() != nil {
					return
				}
				k := next.Add(1) - 1
				if opts.Iterations > 0 && k >= opts.Iterations {
					return
				}
				body := bodies[int(k%int64(len(bodies)))]
				t0 := time.Now()
				if opts.Rate > 0 {
					t0 = start.Add(time.Duration(float64(k) / opts.Rate * float64(time.Second)))
					if !sleepUntil(runCtx, t0) {
						return
					}
				}
				var resp *http.Response
				var err error
				for attempt := 1; ; attempt++ {
					var req *http.Request
					req, err = http.NewRequestWithContext(runCtx, http.MethodPost, url, bytes.NewReader(body))
					if err != nil {
						break
					}
					req.Header.Set("Content-Type", "application/json")
					resp, err = client.Do(req)
					if err != nil || attempt >= retry.MaxAttempts || !retryable(resp.StatusCode) {
						break
					}
					wait := resp.Header.Get("Retry-After")
					_, _ = copyDiscard(resp)
					ws.retries++
					if !backoffSleep(runCtx, &rng, retry, attempt, wait) {
						return
					}
				}
				lat := time.Since(t0)
				if runCtx.Err() != nil {
					// The run deadline fired while this request was in
					// flight: its server-side deadline was artificially cut,
					// so whatever came back (a transport error, a 504 from
					// the truncated context) is the run ending, not a server
					// failure — drop it unrecorded.
					if err == nil {
						_, _ = copyDiscard(resp)
					}
					return
				}
				if err != nil {
					ws.errs++
					continue
				}
				injected := resp.Header.Get("X-WeTune-Injected-Fault") != ""
				if lvl := resp.Header.Get("X-WeTune-Service-Level"); lvl != "" {
					ws.levels[lvl]++
				}
				_, _ = copyDiscard(resp)
				ws.lats = append(ws.lats, lat)
				ws.status[resp.StatusCode]++
				if resp.StatusCode >= 500 {
					if injected {
						ws.injected++
					} else {
						ws.errs++
					}
				}
			}
		}(&stats[w], splitmix64(uint64(opts.Seed)^uint64(w)*0x9e3779b97f4a7c15+1))
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &Report{
		Date:        time.Now().UTC().Format("2006-01-02"),
		Target:      target,
		Concurrency: opts.Concurrency,
		RateRPS:     opts.Rate,
		DurationMS:  elapsed.Milliseconds(),
		Status:      map[string]int64{},
	}
	var all []time.Duration
	for i := range stats {
		ws := &stats[i]
		all = append(all, ws.lats...)
		rep.Errors += ws.errs
		rep.Retries += ws.retries
		rep.Injected5xx += ws.injected
		for code, n := range ws.status {
			rep.Status[strconv.Itoa(code)] += n
		}
		for lvl, n := range ws.levels {
			if rep.ServiceLevels == nil {
				rep.ServiceLevels = map[string]int64{}
			}
			rep.ServiceLevels[lvl] += n
		}
	}
	rep.Requests = int64(len(all))
	if elapsed > 0 {
		rep.ThroughputRPS = float64(rep.Requests) / elapsed.Seconds()
	}
	if len(all) > 0 {
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		var sum time.Duration
		for _, d := range all {
			sum += d
		}
		rep.MeanMS = ms(sum / time.Duration(len(all)))
		rep.MaxMS = ms(all[len(all)-1])
		rep.P50MS = ms(quantile(all, 0.50))
		rep.P90MS = ms(quantile(all, 0.90))
		rep.P99MS = ms(quantile(all, 0.99))
	}
	return rep, nil
}

// retryable reports whether a status is server pushback worth retrying:
// admission rejection (429) or drain refusal (503).
func retryable(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
}

// splitmix64 is the jitter PRNG (stateless mix; Vigna's public-domain
// constants).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// backoffSleep waits before retry #attempt: the server's Retry-After when it
// sent one (honored exactly), else BaseBackoff·2^(attempt-1) capped at
// MaxBackoff — plus up to 50% jitter either way. Returns false when the run
// ended mid-wait.
func backoffSleep(ctx context.Context, rng *uint64, p RetryPolicy, attempt int, retryAfter string) bool {
	wait := p.BaseBackoff << (attempt - 1)
	if wait > p.MaxBackoff || wait <= 0 {
		wait = p.MaxBackoff
	}
	if secs, err := strconv.Atoi(strings.TrimSpace(retryAfter)); err == nil && secs >= 0 {
		wait = time.Duration(secs) * time.Second
	}
	*rng = splitmix64(*rng)
	if wait > 0 {
		wait += time.Duration(*rng % uint64(wait/2+1))
	}
	return sleepUntil(ctx, time.Now().Add(wait))
}

// sleepUntil waits until t, at once when t has passed. Returns false when the
// run ended first.
func sleepUntil(ctx context.Context, t time.Time) bool {
	wait := time.Until(t)
	if wait <= 0 {
		return ctx.Err() == nil
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-timer.C:
		return true
	}
}

// quantile returns the exact q-quantile of a sorted latency slice (nearest
// rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// copyDiscard drains and closes a response body so connections are reused.
func copyDiscard(resp *http.Response) (int64, error) {
	defer resp.Body.Close()
	return io.Copy(io.Discard, resp.Body)
}

// Render returns the human-readable summary.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "loadtest: target=%s concurrency=%d", r.Target, r.Concurrency)
	if r.RateRPS > 0 {
		fmt.Fprintf(&b, " rate=%.0f/s", r.RateRPS)
	}
	fmt.Fprintf(&b, " duration=%.1fs\n", float64(r.DurationMS)/1e3)
	fmt.Fprintf(&b, "  requests: %d (%.0f req/s", r.Requests, r.ThroughputRPS)
	if r.RateRPS > 0 {
		fmt.Fprintf(&b, " of %.0f/s offered", r.RateRPS)
	}
	fmt.Fprintf(&b, "), errors: %d", r.Errors)
	if r.Retries > 0 {
		fmt.Fprintf(&b, ", retries: %d", r.Retries)
	}
	if r.Injected5xx > 0 {
		fmt.Fprintf(&b, ", injected 5xx: %d", r.Injected5xx)
	}
	b.WriteString("\n")
	if len(r.ServiceLevels) > 0 {
		lvls := make([]string, 0, len(r.ServiceLevels))
		for l := range r.ServiceLevels {
			lvls = append(lvls, l)
		}
		sort.Strings(lvls)
		b.WriteString("  service levels:")
		for _, l := range lvls {
			fmt.Fprintf(&b, " %s=%d", l, r.ServiceLevels[l])
		}
		b.WriteString("\n")
	}
	codes := make([]string, 0, len(r.Status))
	for c := range r.Status {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	for _, c := range codes {
		fmt.Fprintf(&b, "  status %s: %d\n", c, r.Status[c])
	}
	fmt.Fprintf(&b, "  latency: p50=%.2fms p90=%.2fms p99=%.2fms mean=%.2fms max=%.2fms\n",
		r.P50MS, r.P90MS, r.P99MS, r.MeanMS, r.MaxMS)
	return b.String()
}
