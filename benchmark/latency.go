package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// A measured pass runs for warmup, then for the measured seconds, which
// are split into short windows. Figures are taken over the kept
// windows: those in which the hypervisor took the least CPU time from
// this machine (steal time in /proc/stat; see kept). On a shared host steal comes
// in bursts and stalls every layer at once; a 10 ms steal inside a
// window sets that window's tail latency. A rate is the median of the
// kept windows' rates, and a percentile the median over groups of kept
// windows (see windowPercentiles). The warm-up keeps caches, the
// collector's pacing and the locks' culling state from the set-up out
// of every window.
const (
	warmup        = time.Second
	measureWindow = 100 * time.Millisecond
)

// windowOf returns the window t falls in for a pass whose measured part
// starts at start, or -1 during the warm-up.
func windowOf(start, t time.Time) int {
	d := t.Sub(start)
	if d < 0 {
		return -1
	}
	return int(d / measureWindow)
}

// passClock paces a measured pass from the goroutine that started it
// and records the steal time of every window.
type passClock struct {
	start time.Time // end of the warm-up, start of window 0
	steal []int64   // steal ticks per window
}

func newPassClock(seconds time.Duration) *passClock {
	return &passClock{start: time.Now().Add(warmup), steal: make([]int64, int(seconds/measureWindow))}
}

// wait sleeps through the warm-up and every window. At each boundary i
// (the start of window i; i == len(steal) is the end of the pass) it
// calls atBoundary(i), when not nil, and reads the steal counter.
func (c *passClock) wait(atBoundary func(i int)) {
	var last int64
	for i := 0; i <= len(c.steal); i++ {
		time.Sleep(time.Until(c.start.Add(time.Duration(i) * measureWindow)))
		if atBoundary != nil {
			atBoundary(i)
		}
		s := readSteal()
		if i > 0 {
			c.steal[i-1] = s - last
		}
		last = s
	}
}

// kept returns which windows figures are taken over: every window with
// no more steal than the cleanest tenth of the windows has. On a calm
// host that is every window without steal; in a busy minute it is still
// at least a tenth of the pass (1.5 s of a 15 s pass). It prints how
// many were kept and the steal they avoided.
func (c *passClock) kept(pass string) []bool {
	sorted := append([]int64(nil), c.steal...)
	sortInt64(sorted)
	limit := sorted[len(sorted)/10]
	keep := make([]bool, len(c.steal))
	n, total := 0, int64(0)
	for i, s := range c.steal {
		keep[i] = s <= limit
		if keep[i] {
			n++
		}
		total += s
	}
	fmt.Printf("# %s pass: kept %d of %d windows (steal <= %d ticks); steal %d ticks in all\n",
		pass, n, len(c.steal), limit, total)
	return keep
}

// readSteal returns the machine's cumulative steal time in clock ticks,
// or 0 where /proc/stat does not report it, which keeps every window.
func readSteal() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, _ := strconv.ParseInt(f[8], 10, 64)
	return n
}

// windowedSample is one latency: the window it ended in and its length
// in ns.
type windowedSample struct {
	window int32
	ns     uint32
}

// windowed collects one goroutine's latencies of one kind.
type windowed struct {
	samples []windowedSample
}

// add records a latency that ended in window w (negative: warm-up, not
// recorded).
func (w *windowed) add(window int, lat time.Duration) {
	if window < 0 {
		return
	}
	ns := lat.Nanoseconds()
	if ns > 1<<32-1 {
		ns = 1<<32 - 1
	}
	w.samples = append(w.samples, windowedSample{int32(window), uint32(ns)})
}

// counter counts one goroutine's completed operations per window.
type counter []int64

func (c *counter) add(window int, n int64) {
	if window < 0 {
		return
	}
	for len(*c) <= window {
		*c = append(*c, 0)
	}
	(*c)[window] += n
}

// windowRate sums the counters window by window and returns the
// median per-second rate over the kept windows.
func windowRate(counters []counter, keep []bool) float64 {
	var rates []float64
	for w, k := range keep {
		if !k {
			continue
		}
		var n int64
		for _, c := range counters {
			if w < len(c) {
				n += c[w]
			}
		}
		rates = append(rates, float64(n)/measureWindow.Seconds())
	}
	return median(rates)
}

// minGroupSamples is the fewest latencies a group holds: enough for a
// p99 with ten samples beyond it.
const minGroupSamples = 1000

// windowPercentiles returns two percentiles of the latencies that ended
// in kept windows. The kept windows are taken in time order and merged
// into groups of at least minGroupSamples; each percentile is computed
// per group and the median over groups is reported, so a stall that
// reached a few groups despite the steal filter sets none of the
// figures. A remainder too small for a group joins the last group.
func windowPercentiles(sets [][]windowedSample, keep []bool, p1, p2 float64) (float64, float64) {
	byWindow := make([][]int64, len(keep))
	for _, set := range sets {
		for _, s := range set {
			if int(s.window) < len(keep) && keep[s.window] {
				byWindow[s.window] = append(byWindow[s.window], int64(s.ns))
			}
		}
	}
	var groups [][]int64
	var cur []int64
	for _, w := range byWindow {
		cur = append(cur, w...)
		if len(cur) >= minGroupSamples {
			groups = append(groups, cur)
			cur = nil
		}
	}
	switch {
	case len(groups) == 0:
		groups = [][]int64{cur}
	case len(cur) > 0:
		groups[len(groups)-1] = append(groups[len(groups)-1], cur...)
	}
	var a, b []float64
	for _, g := range groups {
		sortInt64(g)
		a = append(a, percentile(g, p1))
		b = append(b, percentile(g, p2))
	}
	return median(a), median(b)
}

func sortInt64(xs []int64) { sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] }) }
