// Command perfbench is the repository's benchmark: four closed-loop
// workloads that each measure one regime of the stack from outside, by
// timing the benchmark's own calls into the public functions of wire,
// server, shard, store, lock and experiments. See README.md for the
// workloads, the metrics and how each layer metric moves an end-to-end
// one.
//
//	perfbench --workload served-point --seed 1 --seconds 10 --trace 0
//	perfbench --workload lock-overthread --seed 1 --seconds 10 --repeat 5
//	perfbench --figures out/ --seed 1
//
// Every workload reports the same metrics. An untraced run (--trace 0)
// prints the end-to-end metrics, each measured on the workload's own
// operation (see README.md). A traced run (--trace 1) first repeats the
// untraced pass, then runs a traced pass of the same length that records
// spans around the calls into each layer, and then a short traced pass
// of each other workload, so that it prints every layer's metrics
// whichever workload it runs; it also prints the tracing overhead, and
// writes the spans to --trace-dir. The last line of standard output is
// always the JSON result; a failed correctness check, a failed operation
// or a metric left unmeasured exits non-zero.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// runConfig is what every workload receives.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	// layersOnly runs one set-up and a traced pass, and reports only the
	// workload's layer metrics: no untraced pass and no end-to-end,
	// runtime or trace metrics. A traced run of another workload uses it
	// to add this workload's layers to its own.
	layersOnly bool
	traceDir   string
	lockSpec   string // lock-overthread only
}

// setups is how many set-ups a run times: n, or one when it only adds
// this workload's layers to another's traced run.
func (c runConfig) setups(n int) int {
	if c.layersOnly {
		return 1
	}
	return n
}

// layerSeconds is the measured length of the traced pass a traced run
// gives each workload other than its own.
const layerSeconds = 3 * time.Second

// endToEnd and perLayer are the metrics an untraced and a traced run
// report, as BENCHMARK.json lists them.
var (
	endToEnd = []string{"ops_per_s", "latency_p50_us", "latency_p90_us", "setup_s", "live_heap_mb"}
	perLayer = []string{
		"wire.encode_ns", "wire.decode_ns", "socket.write_us", "server.ping_rtt_us", "server.dispatch_us",
		"shard.get_ns", "shard.get_ctx_ns", "shard.put_ctx_ns",
		"optimistic.hit_ratio", "optimistic.retries_per_get",
		"lock.acquires_per_op", "lock.slow_path_ratio", "shard.snapshot_lite_us",
		"runtime.allocs_per_op", "runtime.gc_per_mop",
		"shard.point_ns", "shard.scan_us", "shard.scan_chunked_us", "shard.pairs_per_scan",
		"store.get_ns", "store.put_ns", "store.scan_us", "lock.acquires_per_scan",
		"lock.wait_ns", "lock.hold_ns", "lock.handoffs", "lock.culls", "lock.promotions",
		"lock.parks", "lock.unparks", "lock.lwss", "lock.gini",
		"sim.kvstore_s", "sim.hashdb_s", "sim.keymap_s", "sim.lrucache_s",
		"sim.steps_per_cpu_s", "sim.cycles_per_cpu_s", "sim.cache_accesses_per_cpu_s",
		"trace.ops_per_s", "trace.overhead_ratio",
	}
)

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// report is a workload's outcome: operations attempted and failed (by
// kind), the correctness checks that failed, and the metrics.
type report struct {
	attempted int64
	failures  failures
	problems  []string
	metrics   []metric
}

// failures counts failed operations by kind. Every workload is built so
// that none of them fail on a healthy program.
type failures struct {
	wrongValue   int64 // a response that did not match what was written
	deadlineMiss int64 // a budgeted request that came back expired
	ioError      int64 // a socket error or malformed response
	halted       int64 // a simulation that drained early
}

func (f failures) total() int64 { return f.wrongValue + f.deadlineMiss + f.ioError + f.halted }

func (r *report) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

// check records a failed correctness check when err is non-nil.
func (r *report) check(what string, err error) {
	if err != nil {
		r.problems = append(r.problems, what+": "+err.Error())
	}
}

// merge adds another workload's layer report to r.
func (r *report) merge(name string, o *report) {
	r.attempted += o.attempted
	r.failures.wrongValue += o.failures.wrongValue
	r.failures.deadlineMiss += o.failures.deadlineMiss
	r.failures.ioError += o.failures.ioError
	r.failures.halted += o.failures.halted
	for _, p := range o.problems {
		r.problems = append(r.problems, name+": "+p)
	}
	r.metrics = append(r.metrics, o.metrics...)
}

// expect records a failed check unless the run reported every metric
// of want exactly once and no other.
func (r *report) expect(want []string) {
	seen := map[string]int{}
	for _, m := range r.metrics {
		seen[m.name]++
	}
	for _, name := range want {
		if seen[name] != 1 {
			r.check("metrics", fmt.Errorf("%s reported %d times, want once", name, seen[name]))
		}
		delete(seen, name)
	}
	for name := range seen {
		r.check("metrics", fmt.Errorf("%s reported but not listed", name))
	}
}

type workload struct {
	name string
	run  func(runConfig) (*report, error)
}

var allWorkloads = []workload{
	{"served-point", runServed},
	{"inproc-ordered", runInproc},
	{"lock-overthread", runLockOverthread},
	{"sim-figures", runSimFigures},
}

func main() {
	var (
		name     = flag.String("workload", "", "workload: served-point, inproc-ordered, lock-overthread or sim-figures")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 10, "measured seconds per pass")
		trace    = flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
		traceDir = flag.String("trace-dir", ".bench_build/traces", "directory the traced pass writes its spans to")
		repeat   = flag.Int("repeat", 0, "run the workload this many times untraced and traced, with seeds seed..seed+N-1, and print quartiles")
		figures  = flag.String("figures", "", "write the sim-figures TSVs for --seed into this directory and exit")
		lockSpec = flag.String("lock", defaultLock, "lock spec for lock-overthread (reference runs of other locks)")
	)
	flag.Parse()

	if *figures != "" {
		if err := writeFigures(*figures, *seed); err != nil {
			fatalf("%v", err)
		}
		return
	}
	var w *workload
	for i := range allWorkloads {
		if allWorkloads[i].name == *name {
			w = &allWorkloads[i]
		}
	}
	if w == nil {
		fatalf("unknown --workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("--seconds must be >= 1 and --trace 0 or 1")
	}
	if *repeat > 0 {
		if err := runRepeat(w.name, *seed, *seconds, *repeat, *lockSpec, *traceDir); err != nil {
			fatalf("%v", err)
		}
		return
	}

	cfg := runConfig{
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		traceDir: *traceDir,
		lockSpec: *lockSpec,
	}
	fmt.Printf("# workload=%s seed=%d seconds=%d trace=%d\n", w.name, cfg.seed, *seconds, *trace)
	fmt.Printf("# host %s\n", hostFingerprint())
	rep, err := w.run(cfg)
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer
		for _, o := range allWorkloads {
			if o.name == w.name {
				continue
			}
			ocfg := cfg
			ocfg.layersOnly, ocfg.seconds = true, layerSeconds
			fmt.Printf("# layers of %s\n", o.name)
			orep, err := o.run(ocfg)
			if err != nil {
				fatalf("%s layers: %v", o.name, err)
			}
			rep.merge(o.name, orep)
		}
	}
	rep.expect(want)
	if !emit(rep) {
		os.Exit(1)
	}
}

// emit prints the human-readable report and then the JSON result line.
// It reports whether every correctness check passed. A failed operation
// of any kind fails the run: every workload is built so that none fail.
func emit(rep *report) bool {
	f := rep.failures
	if n := f.total(); n > 0 {
		rep.check("operations", fmt.Errorf("%d of %d failed", n, rep.attempted))
	}
	fmt.Printf("# ops attempted=%d failed=%d wrong_value=%d deadline_miss=%d io_error=%d halted=%d\n",
		rep.attempted, f.total(), f.wrongValue, f.deadlineMiss, f.ioError, f.halted)
	for _, m := range rep.metrics {
		fmt.Printf("%-28s %14.6g %s\n", m.name, m.value, m.unit)
	}
	for _, p := range rep.problems {
		fmt.Printf("# CHECK FAILED: %s\n", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(rep.problems) == 0, rep.attempted, f.total(), map[string]value{}}
	for _, m := range rep.metrics {
		res.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
	return res.Correct
}

// hostFingerprint names what a figure depends on: CPU model, CPU count,
// GOMAXPROCS and Go version.
func hostFingerprint() string {
	model := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s", model, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// quartiles returns the first quartile, median and third quartile of xs
// the way Python's statistics.quantiles(xs, n=4) computes them (the
// default "exclusive" method), so the spreads printed here match the
// ones a script computes from the same values.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	if n == 1 {
		return d[0], d[0], d[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		delta := i*m - j*4
		switch {
		case j < 1:
			return d[0]
		case j >= n:
			return d[n-1]
		}
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// median of xs (xs is not modified).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if len(d)%2 == 1 {
		return d[len(d)/2]
	}
	return (d[len(d)/2-1] + d[len(d)/2]) / 2
}

// percentile returns the p-quantile (0 < p < 1) of sorted by nearest
// rank.
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

// timeSetups runs setup n times and returns the median CPU seconds the
// process spent in one. Before each it tears the previous one down (when
// teardown is not nil), collects garbage and returns the freed memory to
// the operating system, so every set-up starts from the same state and
// pays for the pages it touches. Process CPU time counts the work of
// every goroutine, so work moved into set-up shows however it is spread
// over threads, and it leaves out the time the hypervisor takes from a
// shared host, which comes in bursts and would otherwise set the figure.
func timeSetups(n int, setup func() error, teardown func()) (float64, error) {
	vals := make([]float64, n)
	for i := range vals {
		if i > 0 && teardown != nil {
			teardown()
		}
		debug.FreeOSMemory()
		c0, err := processCPU()
		if err != nil {
			return 0, err
		}
		if err := setup(); err != nil {
			return 0, err
		}
		c1, err := processCPU()
		if err != nil {
			return 0, err
		}
		vals[i] = (c1 - c0).Seconds()
	}
	return median(vals), nil
}

// processCPU returns the user and system CPU time the process has used.
func processCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// sink keeps the values the measured loops compute alive, so the
// compiler cannot drop the work.
var sink atomic.Int64

// heapMB forces a collection and returns the live heap in MB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// memCounters is the part of runtime.MemStats the per-layer allocation
// metrics are deltas of.
type memCounters struct{ mallocs, numGC uint64 }

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{ms.Mallocs, uint64(ms.NumGC)}
}

// addRuntime reports allocations per op and GC cycles per million ops
// between two memCounters readings.
func (r *report) addRuntime(before, after memCounters, ops int64) {
	r.add("runtime.allocs_per_op", float64(after.mallocs-before.mallocs)/float64(ops), "allocs/op")
	r.add("runtime.gc_per_mop", float64(after.numGC-before.numGC)*1e6/float64(ops), "gc/Mop")
}
