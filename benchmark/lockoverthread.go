package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/lock"
	"repro/metrics"
)

// The lock-overthread workload is the paper's RandArray (§6.1) on the
// real lock: lockGoroutines goroutines, four per CPU on the 2-CPU
// reference host, contend one lock. The critical section reads random
// slots of a shared array and writes one; the non-critical section
// reads random slots of the goroutine's private array.
const (
	lockGoroutines = 8
	arrayInts      = 256 << 10 // 1 MB of int32, as in the paper
	csReads        = 100
	ncsReads       = 400
	lockSetups     = 9
	// lockSampleEvery is the traced pass's sampling stride: one
	// acquisition in lockSampleEvery is timed around Lock and the
	// critical section.
	lockSampleEvery = 64
	// lockLatencyEvery is both passes' latency stride: one acquisition
	// in lockLatencyEvery is timed from the call of Lock to its return.
	lockLatencyEvery = 8
	// lockHistoryCap bounds the admissions recorded for LWSS and Gini.
	lockHistoryCap = 1 << 20
	defaultLock    = "mcscr-stp"
)

// lockInput is the workload's data: one shared array and one private
// array per goroutine, filled from the seed.
type lockInput struct {
	shared  []int32
	private [][]int32
}

func newLockInput(seed uint64) *lockInput {
	in := &lockInput{shared: make([]int32, arrayInts), private: make([][]int32, lockGoroutines)}
	r := newRNG(seed, 0)
	fill := func(a []int32) {
		for i := range a {
			a[i] = int32(r.next())
		}
	}
	fill(in.shared)
	for g := range in.private {
		in.private[g] = make([]int32, arrayInts)
		fill(in.private[g])
	}
	return in
}

// rng is xorshift64*, seeded per stream.
type rng struct{ s uint64 }

func newRNG(seed, stream uint64) *rng {
	s := seed*0x9E3779B97F4A7C15 + stream*0xBF58476D1CE4E5B9 + 1
	r := &rng{s}
	for i := 0; i < 8; i++ {
		r.next()
	}
	return r
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

// lockPass is one measured pass over a fresh lock.
type lockPass struct {
	rate    float64 // median acquisitions per second over the kept windows
	keep    []bool  // the kept windows
	lats    [][]windowedSample
	per     []uint64 // acquisitions per goroutine
	counter uint64   // bumped inside the critical section
	stats   lockStats
	history metrics.History
	spans   []*spanBuf
}

type lockStats struct{ acquires, handoffs, culls, promotions, parks, unparks uint64 }

func runLockPass(cfg runConfig, in *lockInput, traced bool) (*lockPass, error) {
	m, err := lock.New(cfg.lockSpec, lock.WithSeed(cfg.seed))
	if err != nil {
		return nil, err
	}
	inst, ok := m.(lock.Instrumented)
	if !ok {
		return nil, fmt.Errorf("lock %q keeps no statistics", cfg.lockSpec)
	}
	p := &lockPass{per: make([]uint64, lockGoroutines)}
	if traced {
		p.history = make(metrics.History, 0, lockHistoryCap)
		epoch := time.Now()
		for range lockGoroutines {
			p.spans = append(p.spans, newSpanBuf(epoch, 1<<15))
		}
	}
	var stop atomic.Bool
	var ready, wg sync.WaitGroup
	startGate := make(chan struct{})
	var start time.Time // set before startGate closes
	lats := make([]windowed, lockGoroutines)
	counts := make([]struct {
		n atomic.Uint64
		_ [56]byte // one cache line per goroutine
	}, lockGoroutines)
	for g := 0; g < lockGoroutines; g++ {
		ready.Add(1)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := newRNG(cfg.seed, uint64(g)+1)
			priv := in.private[g]
			var spans *spanBuf
			if traced {
				spans = p.spans[g]
			}
			var sum int32
			n := uint64(0)
			ready.Done()
			<-startGate
			for !stop.Load() {
				for i := 0; i < ncsReads; i++ {
					sum += priv[r.next()%arrayInts]
				}
				sample := spans != nil && n%lockSampleEvery == 0
				timed := n%lockLatencyEvery == 0
				var w, h int32 = -1, -1
				if sample {
					w = spans.begin("lock.wait", n, -1)
				}
				var t0 time.Time
				if timed {
					t0 = time.Now()
				}
				m.Lock()
				if timed {
					t1 := time.Now()
					lats[g].add(windowOf(start, t1), t1.Sub(t0))
				}
				if sample {
					spans.end(w)
					h = spans.begin("lock.hold", n, -1)
				}
				var idx uint64
				for i := 0; i < csReads; i++ {
					idx = r.next() % arrayInts
					sum += in.shared[idx]
				}
				in.shared[idx] = sum
				p.counter++
				if traced && len(p.history) < lockHistoryCap {
					p.history = append(p.history, g)
				}
				if sample {
					spans.end(h)
				}
				m.Unlock()
				n++
				counts[g].n.Store(n)
			}
			sink.Add(int64(sum))
		}(g)
	}
	sum := func() (s uint64) {
		for g := range counts {
			s += counts[g].n.Load()
		}
		return s
	}
	ready.Wait()
	runtime.GC()
	clock := newPassClock(cfg.seconds)
	start = clock.start
	close(startGate)
	counted := make([]uint64, len(clock.steal)+1)
	clock.wait(func(i int) { counted[i] = sum() })
	stop.Store(true)
	wg.Wait()
	pass := "untraced"
	if traced {
		pass = "traced"
	}
	var rates []float64
	p.keep = clock.kept(pass)
	for w, k := range p.keep {
		if k {
			rates = append(rates, float64(counted[w+1]-counted[w])/measureWindow.Seconds())
		}
	}
	p.rate = median(rates)
	for g := range lats {
		p.lats = append(p.lats, lats[g].samples)
	}
	for g := range counts {
		p.per[g] = counts[g].n.Load()
	}
	s := inst.Stats()
	p.stats = lockStats{s.Acquires, s.Handoffs, s.Culls, s.Promotions, s.Parks, s.Unparks}
	return p, nil
}

func (p *lockPass) acquisitions() uint64 {
	var sum uint64
	for _, n := range p.per {
		sum += n
	}
	return sum
}

func (p *lockPass) check(rep *report, cfg runConfig) {
	rep.attempted += int64(p.acquisitions())
	rep.check("mutual exclusion", checkMutex(p.counter, p.per, p.stats.acquires))
	if cfg.lockSpec == defaultLock && p.stats.culls == 0 {
		rep.check("culling", fmt.Errorf("%s culled no waiter with %d goroutines", cfg.lockSpec, lockGoroutines))
	}
}

func runLockOverthread(cfg runConfig) (*report, error) {
	var in *lockInput
	setup, err := timeSetups(cfg.setups(lockSetups), func() error { in = newLockInput(cfg.seed); return nil }, func() { in = nil })
	if err != nil {
		return nil, err
	}
	rep := &report{}
	var rate float64
	if !cfg.layersOnly {
		p, err := runLockPass(cfg, in, false)
		if err != nil {
			return nil, err
		}
		p.check(rep, cfg)
		rate = p.rate
		if !cfg.trace {
			p50, p90 := windowPercentiles(p.lats, p.keep, 0.5, 0.9)
			p.lats = nil
			rep.add("ops_per_s", rate, "ops/s")
			rep.add("latency_p50_us", p50/1e3, "us")
			rep.add("latency_p90_us", p90/1e3, "us")
			rep.add("setup_s", setup, "s")
			rep.add("live_heap_mb", heapMB(), "MB") // the arrays and the lock
			runtime.KeepAlive(in)
			return rep, nil
		}
	}

	mem0 := readMem()
	tp, err := runLockPass(cfg, in, true)
	if err != nil {
		return nil, err
	}
	mem1 := readMem()
	tp.check(rep, cfg)
	if !cfg.layersOnly {
		rep.addRuntime(mem0, mem1, int64(tp.acquisitions()))
	}
	self := selfTimes(tp.spans)
	rep.add("lock.wait_ns", meanOf(self["lock.wait"]), "ns")
	rep.add("lock.hold_ns", meanOf(self["lock.hold"]), "ns")
	perK := func(v uint64) float64 { return float64(v) * 1000 / float64(tp.stats.acquires) }
	rep.add("lock.handoffs", perK(tp.stats.handoffs), "1/kacq")
	rep.add("lock.culls", perK(tp.stats.culls), "1/kacq")
	rep.add("lock.promotions", perK(tp.stats.promotions), "1/kacq")
	rep.add("lock.parks", perK(tp.stats.parks), "1/kacq")
	rep.add("lock.unparks", perK(tp.stats.unparks), "1/kacq")
	sum := metrics.Summarize(tp.history, metrics.DefaultWindow)
	rep.add("lock.lwss", sum.AvgLWSS, "goroutines")
	rep.add("lock.gini", sum.Gini, "ratio")
	err = rep.finishTrace(cfg, "lock-overthread", tp.spans, rate, tp.rate)
	return rep, err
}
