package main

import (
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// usageMark is a snapshot of the process counters a phase is charged against.
type usageMark struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

// usage is what one phase consumed: wall time, process CPU (user+sys, so on
// the serve workloads it includes the in-process client) and heap allocation.
type usage struct {
	Wall    time.Duration
	CPU     time.Duration
	Mallocs uint64
	Bytes   uint64
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func markUsage() usageMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usageMark{at: time.Now(), cpu: processCPU(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

func (m usageMark) since() usage {
	now := markUsage()
	return usage{
		Wall:    now.at.Sub(m.at),
		CPU:     now.cpu - m.cpu,
		Mallocs: now.mallocs - m.mallocs,
		Bytes:   now.bytes - m.bytes,
	}
}

// readSteal returns the jiffies (1/100 s) the hypervisor has withheld from
// this machine's CPUs while they had work to run: the eighth number of the
// first line of /proc/stat. Where that is unavailable it returns 0 and every
// window counts as undisturbed.
func readSteal() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return 0
	}
	return v
}

// stolenShare converts a steal delta over an interval into the share of the
// machine's CPU capacity it represents.
func stolenShare(jiffies int64, over time.Duration) float64 {
	return ratio(float64(jiffies)/100, over.Seconds()*float64(runtime.NumCPU()))
}

// disturbedShare is the stolen share above which a window, a repetition or a
// probe counts as disturbed. On this sandbox undisturbed stretches report
// under 1% and the episodes that wreck a measurement 20-50%.
const disturbedShare = 0.02

// machineMark samples the machine-wide counters a window is judged by (steal)
// and charged with (process CPU).
type machineMark struct {
	steal int64
	cpu   time.Duration
}

func markMachine() machineMark { return machineMark{steal: readSteal(), cpu: processCPU()} }

// lane records one closed-loop client's latencies and, for every window of
// the phase, how many samples it held when that window closed. Windows let
// the phase report the median window instead of a whole-phase figure, so one
// hypervisor stall moves one window, not the result. The first lane of a
// phase also samples the machine at every window boundary.
type lane struct {
	ns      []uint32
	winEnd  []int
	window  time.Duration
	next    time.Duration
	sampled bool
	marks   []machineMark // sampled lane only: marks[w], marks[w+1] bound window w
}

func newLane(window time.Duration, capacity int, sampled bool) *lane {
	l := &lane{ns: make([]uint32, 0, capacity), window: window, next: window, sampled: sampled}
	if sampled {
		l.marks = append(l.marks, markMachine())
	}
	return l
}

// newLanes makes n lanes for one phase of length d: about twenty windows,
// lane 0 sampling the machine.
func newLanes(n int, d time.Duration, opsPerSecond int) []*lane {
	lanes := make([]*lane, n)
	for i := range lanes {
		lanes[i] = newLane(d/20, int(d.Seconds()*float64(opsPerSecond))+1024, i == 0)
	}
	return lanes
}

// add records an operation that took lat and completed at offset end from the
// start of the phase.
func (l *lane) add(lat, end time.Duration) {
	for end >= l.next {
		l.winEnd = append(l.winEnd, len(l.ns))
		l.next += l.window
		if l.sampled {
			l.marks = append(l.marks, markMachine())
		}
	}
	if lat > 4*time.Second {
		lat = 4 * time.Second // uint32 nanoseconds hold 4.29 s
	}
	l.ns = append(l.ns, uint32(lat))
}

// loopSummary is one closed-loop phase condensed: the whole-phase latency
// distribution plus the medians, over the complete windows the hypervisor
// left undisturbed, of window throughput, window p50 and window p99, and the
// process CPU per operation over those windows.
type loopSummary struct {
	Ops       int
	Windows   int // complete windows
	Disturbed int // of which dropped for stolen CPU
	All       latencySummary
	OpsPerS   float64
	P50US     float64
	P99US     float64
	CPUUS     float64 // process CPU per op, us
}

// summarizeLanes merges the lanes window by window. With no complete window
// (a phase shorter than one window), or when every window was disturbed, it
// falls back to whole-phase figures and all windows respectively.
func summarizeLanes(lanes []*lane, use usage) loopSummary {
	var all []uint32
	windows := -1
	for _, l := range lanes {
		all = append(all, l.ns...)
		if windows < 0 || len(l.winEnd) < windows {
			windows = len(l.winEnd)
		}
	}
	out := loopSummary{Ops: len(all), Windows: max(windows, 0), All: summarize(all)}
	out.CPUUS = ratio(float64(use.CPU.Nanoseconds())/1e3, float64(len(all)))
	if out.Windows == 0 {
		out.OpsPerS = ratio(float64(len(all)), use.Wall.Seconds())
		out.P50US, out.P99US = out.All.P50, out.All.P99
		return out
	}
	marks := lanes[0].marks
	disturbed := make([]bool, windows)
	for w := range disturbed {
		if w+1 < len(marks) && stolenShare(marks[w+1].steal-marks[w].steal, lanes[0].window) > disturbedShare {
			disturbed[w] = true
			out.Disturbed++
		}
	}
	if out.Disturbed == windows {
		clear(disturbed) // nothing better to report than everything
	}
	var rate, p50, p99 []float64
	var buf []uint32
	var cpu time.Duration
	ops := 0
	for w := 0; w < windows; w++ {
		if disturbed[w] {
			continue
		}
		buf = buf[:0]
		for _, l := range lanes {
			lo := 0
			if w > 0 {
				lo = l.winEnd[w-1]
			}
			buf = append(buf, l.ns[lo:l.winEnd[w]]...)
		}
		if len(buf) == 0 {
			continue
		}
		slices.Sort(buf)
		rate = append(rate, float64(len(buf))/lanes[0].window.Seconds())
		p50 = append(p50, float64(nearestRank(buf, 50))/1e3)
		p99 = append(p99, float64(nearestRank(buf, 99))/1e3)
		if w+1 < len(marks) {
			cpu += marks[w+1].cpu - marks[w].cpu
			ops += len(buf)
		}
	}
	out.OpsPerS, out.P50US, out.P99US = median(rate), median(p50), median(p99)
	if ops > 0 {
		out.CPUUS = float64(cpu.Nanoseconds()) / 1e3 / float64(ops)
	}
	return out
}

// machineGuard keeps a run off the stretches in which the hypervisor
// withholds CPU. Those come in episodes of a minute or two during which
// throughput drops several-fold; a run that lands in one measures the
// sandbox, not the program. Before a timed phase the guard probes the machine
// and waits for it to settle, and a phase that was mostly disturbed is
// repeated — both within a budget that keeps the run far inside the driver's
// per-run limit.
type machineGuard struct {
	start  time.Time
	Waited time.Duration
	Probes int
}

// runBudget is how long after its start a run may still begin waiting or
// repeat a phase.
const runBudget = 60 * time.Second

func newMachineGuard() *machineGuard { return &machineGuard{start: time.Now()} }

// mayStart reports whether something expected to take d still fits the budget.
func (g *machineGuard) mayStart(d time.Duration) bool {
	return time.Since(g.start)+d < runBudget
}

// probe keeps every CPU busy for a fifth of a second and returns the share of
// that the hypervisor withheld. Steal is only counted against CPUs that want
// to run, so an idle wait would see nothing.
func probe() float64 {
	const d = 200 * time.Millisecond
	before := readSteal()
	var wg sync.WaitGroup
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for begin := time.Now(); time.Since(begin) < d; {
			}
		}()
	}
	wg.Wait()
	return stolenShare(readSteal()-before, d)
}

// waitQuiet returns once a probe finds the machine undisturbed, or the budget
// is spent. The probe's resolution is one jiffy in forty, so "undisturbed"
// here means at most one jiffy stolen.
func (g *machineGuard) waitQuiet() {
	begin := time.Now()
	defer func() { g.Waited += time.Since(begin) }()
	for g.mayStart(time.Second) {
		g.Probes++
		if probe() <= stolenShare(1, 200*time.Millisecond) {
			return
		}
		time.Sleep(800 * time.Millisecond)
	}
}

// steady runs a timed phase on a quiet machine: it waits for a clean probe,
// runs the phase, and runs it again when more than half of its windows were
// disturbed and the budget allows. It returns the last attempt and how many
// were made.
func (g *machineGuard) steady(d time.Duration, run func() phase) (phase, int) {
	for attempt := 1; ; attempt++ {
		g.waitQuiet()
		ph := run()
		if 2*ph.Disturbed <= ph.Windows || !g.mayStart(d) {
			return ph, attempt
		}
	}
}
