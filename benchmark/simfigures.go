package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/experiments"
	"repro/sim"
	"repro/workloads"
)

// simFigures are the figures whose simulated workloads run on the data
// structures in internal/{skiplist,hashmap,rbtree}. Each sweep runs on
// large pages, as experiments does for them; build constructs the same
// workload for the set-up measurement.
var simFigures = []struct {
	id, layer string
	fig       func(experiments.Options) experiments.Figure
	build     func(e *sim.Engine, l *sim.Lock, n int)
}{
	{"fig8", "sim.kvstore_s", experiments.Fig8, func(e *sim.Engine, l *sim.Lock, n int) {
		workloads.BuildKVStore(e, l, n, workloads.DefaultKVStore())
	}},
	{"fig9", "sim.hashdb_s", experiments.Fig9, func(e *sim.Engine, l *sim.Lock, n int) {
		workloads.BuildHashDB(e, l, n, workloads.DefaultHashDB())
	}},
	{"fig11", "sim.keymap_s", experiments.Fig11, func(e *sim.Engine, l *sim.Lock, n int) {
		workloads.BuildKeymap(e, l, n, workloads.DefaultKeymap())
	}},
	{"fig12", "sim.lrucache_s", experiments.Fig12, func(e *sim.Engine, l *sim.Lock, n int) {
		workloads.BuildLRUCache(e, l, n, workloads.DefaultLRUCache())
	}},
}

const (
	// simSetups is how many times set-up is measured; setup_s is the
	// median.
	simSetups = 9
	// simTopThreads is the largest thread count of the quick sweep.
	simTopThreads = 64
	// simRerunThreads is the sweep point re-run to check determinism.
	simRerunThreads = 16
	// simRound is about the process CPU time one round of the four quick
	// figures takes on the reference host.
	simRound = 16 * time.Second
)

// simRounds is how many rounds a pass of seconds runs: seconds over
// simRound, rounded, and at least one. It depends on --seconds alone, not
// on how fast the host runs them, so every pass of a run length does the
// same work and reports its figures over the same samples.
func simRounds(seconds time.Duration) int {
	return max(1, int((seconds+simRound/2)/simRound))
}

func simOptions(seed uint64) experiments.Options {
	return experiments.Options{Quick: true, Seed: seed}
}

// simSetup constructs one engine per figure at the top thread count:
// the machine model, its caches, the lock and the workload's threads
// and data.
func simSetup(seed uint64) []*sim.Engine {
	var engines []*sim.Engine
	for _, f := range simFigures {
		cfg := sim.DefaultConfig(16)
		cfg.Seed = seed
		workloads.ConfigureLargePages(&cfg)
		e := sim.New(cfg)
		f.build(e, e.NewLock(sim.LockSpec{Kind: sim.KindMCSCR, Mode: sim.ModeSTP}), simTopThreads)
		engines = append(engines, e)
	}
	return engines
}

// simPass is one measured pass: whole rounds of the four figures in a
// fixed order (see simRounds). It is timed by the process's CPU time:
// the simulation is the only work in the process during the pass, so
// that counts it and the garbage collector it drives, on whichever
// thread the collector runs, and it leaves out the time the hypervisor
// takes from the machine (steal), which comes in bursts of seconds and
// would otherwise set the figure.
type simPass struct {
	figs                    []experiments.Figure // the first run of each
	seconds                 float64              // process CPU seconds
	cpu                     []float64            // per figure run
	cycles, steps, accesses float64
	points, halted          int64
}

func runSimPass(cfg runConfig, spans *spanBuf) (*simPass, error) {
	o := simOptions(cfg.seed)
	p := &simPass{}
	start := time.Now()
	for i := 0; i < simRounds(cfg.seconds)*len(simFigures); i++ {
		f := simFigures[i%len(simFigures)]
		var s int32 = -1
		if spans != nil {
			s = spans.begin(f.layer, uint64(i), -1)
		}
		c0, err := processCPU()
		if err != nil {
			return nil, err
		}
		fig := f.fig(o)
		c1, err := processCPU()
		if err != nil {
			return nil, err
		}
		el := (c1 - c0).Seconds()
		spans.end(s)
		p.cpu = append(p.cpu, el)
		if i < len(simFigures) {
			p.figs = append(p.figs, fig)
		}
		p.seconds += el
		for _, sr := range fig.Series {
			for _, pt := range sr.Points {
				p.points++
				p.cycles += float64(pt.Detail.Cycles)
				p.steps += float64(pt.Detail.Steps)
				p.accesses += float64(pt.Detail.CacheStats.Accesses)
				if pt.Detail.Halted {
					p.halted++
				}
			}
		}
	}
	fmt.Printf("# sim pass: wall %.2f s, process CPU %.2f s\n", time.Since(start).Seconds(), p.seconds)
	return p, nil
}

func runSimFigures(cfg runConfig) (*report, error) {
	var engines []*sim.Engine
	setup, err := timeSetups(cfg.setups(simSetups), func() error { engines = simSetup(cfg.seed); return nil }, func() { engines = nil })
	if err != nil {
		return nil, err
	}
	rep := &report{}
	var rate float64
	if !cfg.layersOnly {
		runtime.GC()
		p, err := runSimPass(cfg, nil)
		if err != nil {
			return nil, err
		}
		p.check(rep)
		// Re-run one sweep point of one figure with the same seed.
		k := int(cfg.seed % uint64(len(simFigures)))
		o := simOptions(cfg.seed)
		o.Threads = []int{simRerunThreads}
		rep.check("rerun", checkRerun(p.figs[k], simFigures[k].fig(o)))
		rate = p.steps / p.seconds
		if !cfg.trace {
			lat := make([]int64, len(p.cpu))
			for i, c := range p.cpu {
				lat[i] = int64(c * 1e9)
			}
			sortInt64(lat)
			rep.add("ops_per_s", rate, "ops/s")
			rep.add("latency_p50_us", percentile(lat, 0.5)/1e3, "us")
			rep.add("latency_p90_us", percentile(lat, 0.9)/1e3, "us")
			rep.add("setup_s", setup, "s")
			rep.add("live_heap_mb", heapMB(), "MB") // the set-up's engines and the figures the pass kept
			runtime.KeepAlive(p)
			runtime.KeepAlive(engines)
			return rep, nil
		}
	}

	spans := newSpanBuf(time.Now(), 64)
	runtime.GC()
	mem0 := readMem()
	tp, err := runSimPass(cfg, spans)
	if err != nil {
		return nil, err
	}
	mem1 := readMem()
	tp.check(rep)
	if !cfg.layersOnly {
		rep.addRuntime(mem0, mem1, int64(tp.steps))
	}
	for k, f := range simFigures {
		var sum float64
		n := 0
		for i := k; i < len(tp.cpu); i += len(simFigures) {
			sum += tp.cpu[i]
			n++
		}
		rep.add(f.layer, sum/float64(n), "s")
	}
	rep.add("sim.steps_per_cpu_s", tp.steps/tp.seconds, "steps/s")
	rep.add("sim.cycles_per_cpu_s", tp.cycles/tp.seconds, "cycles/s")
	rep.add("sim.cache_accesses_per_cpu_s", tp.accesses/tp.seconds, "accesses/s")
	err = rep.finishTrace(cfg, "sim-figures", []*spanBuf{spans}, rate, tp.steps/tp.seconds)
	return rep, err
}

// check adds the pass's sweep points to rep's attempted operations, its
// halted simulations to the failed ones, and checks every figure.
func (p *simPass) check(rep *report) {
	rep.attempted += p.points
	rep.failures.halted += p.halted
	for _, fig := range p.figs {
		rep.check("figure", checkFigure(fig))
	}
}

// writeFigures writes each sim-figures sweep for seed as dir/<id>.tsv,
// so two commits' experiments output can be diffed without a stored
// copy.
func writeFigures(dir string, seed uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, f := range simFigures {
		path := filepath.Join(dir, f.id+".tsv")
		if err := os.WriteFile(path, []byte(f.fig(simOptions(seed)).TSV()), 0o644); err != nil {
			return err
		}
		fmt.Println(path)
	}
	return nil
}
