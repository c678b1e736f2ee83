package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/shard"
	"repro/store"
)

// The inproc-ordered workload drives a skiplist-backed shard.Map through
// its plain forms from inprocWorkers goroutines: zipf point GETs, PUTs,
// DELETE/re-PUT churn and short range scans. Worker g writes only the
// keys k with k%inprocWorkers == g, so it knows exactly which of its own
// keys are present and what they hold, and can check every scan against
// that.
const (
	inprocKeys    = 1 << 18
	inprocWorkers = 2
	inprocStripes = 64
	inprocLock    = "mcscr-stp"
	inprocBackend = "skiplist"
	scanKeys      = 100 // keys a scan range spans
	inprocSetups  = 5
	// inprocStream is the length of each worker's pre-generated op
	// stream; a worker cycles through it.
	inprocStream = 1 << 16
	// inprocSampleEvery is the traced pass's span stride.
	inprocSampleEvery = 16
	// inprocReplay bounds the ops and scans replayed after the traced
	// pass.
	inprocReplay = 1 << 16
	scanReplay   = 2048
	scanChunk    = 16 // ScanChunked's per-stripe chunk in the replay
	// inprocBatch is how many ops a worker runs between reads of the
	// clock that assign its completed ops to a window.
	inprocBatch = 64
)

// Op kinds of the pre-generated streams. The mix is 5% SCAN; the other
// ops are 90% GET and 10% writes, shardbench's default -read-frac, with
// the writes split evenly between PUT and churn (delete the key if
// present, re-put it if not): 85.5% GET, 4.75% PUT, 4.75% churn.
const (
	opGet uint8 = iota
	opPut
	opChurn
	opScan
)

type inprocOp struct {
	kind uint8
	key  uint64 // point key, or the scan's low bound
}

// inprocStreamFor generates worker g's ops from the seed: zipf(1.2)
// popularity over a scrambled key space for point ops, uniform scan
// starts.
func inprocStreamFor(seed uint64, g int) []inprocOp {
	rg := rand.New(rand.NewSource(int64(seed)*7919 + int64(g)))
	z := rand.NewZipf(rg, 1.2, 1, inprocKeys-1)
	ops := make([]inprocOp, inprocStream)
	for i := range ops {
		switch x := rg.Intn(2000); {
		case x < 1710:
			ops[i] = inprocOp{opGet, scramble(z.Uint64(), inprocKeys)}
		case x < 1805:
			ops[i] = inprocOp{opPut, own(scramble(z.Uint64(), inprocKeys), g, inprocWorkers)}
		case x < 1900:
			ops[i] = inprocOp{opChurn, own(scramble(z.Uint64(), inprocKeys), g, inprocWorkers)}
		default:
			ops[i] = inprocOp{opScan, uint64(rg.Intn(inprocKeys - scanKeys))}
		}
	}
	return ops
}

// scramble maps a popularity rank onto the key space [0, n), n a power
// of two, so hot keys are spread over it rather than clustered at 0.
func scramble(rank, n uint64) uint64 { return (rank * 0x9E3779B97F4A7C15) & (n - 1) }

// own moves key into worker g's partition.
func own(key uint64, g, workers int) uint64 { return key - key%uint64(workers) + uint64(g) }

func newInprocMap(seed uint64) (*shard.Map, error) {
	m, err := shard.New(shard.Config{
		Stripes:     inprocStripes,
		LockSpec:    inprocLock,
		BackendSpec: inprocBackend,
		Seed:        seed,
	})
	if err != nil {
		return nil, err
	}
	for k := uint64(0); k < inprocKeys; k++ {
		m.Put(k, encodeVal(k, 0))
	}
	return m, nil
}

// inprocWorker is one goroutine's state: its stream, its knowledge of
// its own keys, and what it measured.
type inprocWorker struct {
	g       int
	ops     []inprocOp
	pos     int
	present []bool   // own keys only
	ver     []uint32 // own keys only
	pairs   []pair
	want    []pair

	done     int64
	wrong    int64
	firstErr error
	scanLat  windowed
	opsDone  counter
	spans    *spanBuf
	scans    []uint64 // scan low bounds run in the traced pass
	pairsSum int64
	nScans   int64
}

func newInprocWorker(g int, seed uint64) *inprocWorker {
	w := &inprocWorker{
		g:       g,
		ops:     inprocStreamFor(seed, g),
		present: make([]bool, inprocKeys),
		ver:     make([]uint32, inprocKeys),
	}
	for k := range w.present {
		w.present[k] = true
	}
	return w
}

func (w *inprocWorker) owned(key uint64) bool { return int(key%inprocWorkers) == w.g }

func (w *inprocWorker) fail(err error) {
	w.wrong++
	if w.firstErr == nil {
		w.firstErr = err
	}
}

// step runs one op and checks its result.
func (w *inprocWorker) step(m *shard.Map, start time.Time) {
	op := w.ops[w.pos]
	w.pos = (w.pos + 1) % len(w.ops)
	var sp int32 = -1
	if w.spans != nil && w.done%inprocSampleEvery == 0 {
		sp = w.spans.begin(opSpanName[op.kind], uint64(w.done), -1)
	}
	k := op.key
	switch op.kind {
	case opGet:
		v, ok := m.Get(k)
		w.spans.end(sp)
		if w.owned(k) {
			if w.present[k] {
				if err := checkReadback(k, encodeVal(k, w.ver[k]), v, ok); err != nil {
					w.fail(err)
				}
			} else if ok {
				w.fail(fmt.Errorf("key %d: deleted by its owner, read %#x", k, v))
			}
		} else if ok {
			if err := checkValue(k, v); err != nil {
				w.fail(err)
			}
		}
	case opPut:
		w.ver[k]++
		fresh := m.Put(k, encodeVal(k, w.ver[k]))
		w.spans.end(sp)
		if fresh == w.present[k] {
			w.fail(fmt.Errorf("key %d: Put reported fresh=%t with the key present=%t", k, fresh, w.present[k]))
		}
		w.present[k] = true
	case opChurn:
		if w.present[k] {
			if !m.Delete(k) {
				w.fail(fmt.Errorf("key %d: Delete found no key its owner wrote", k))
			}
		} else {
			w.ver[k]++
			if !m.Put(k, encodeVal(k, w.ver[k])) {
				w.fail(fmt.Errorf("key %d: re-Put found a key its owner deleted", k))
			}
		}
		w.spans.end(sp)
		w.present[k] = !w.present[k]
	case opScan:
		lo, hi := k, k+scanKeys-1
		w.pairs = w.pairs[:0]
		t0 := time.Now()
		err := m.Scan(lo, hi, func(key, val uint64) bool {
			w.pairs = append(w.pairs, pair{key, val})
			return true
		})
		t1 := time.Now()
		w.spans.end(sp)
		w.scanLat.add(windowOf(start, t1), t1.Sub(t0))
		if w.spans != nil {
			w.scans = append(w.scans, lo)
			w.pairsSum += int64(len(w.pairs))
			w.nScans++
		}
		if err != nil {
			w.fail(err)
			break
		}
		w.want = w.want[:0]
		for key := lo + (uint64(w.g)+inprocWorkers-lo%inprocWorkers)%inprocWorkers; key <= hi; key += inprocWorkers {
			if w.present[key] {
				w.want = append(w.want, pair{key, encodeVal(key, w.ver[key])})
			}
		}
		if err := checkScan(w.pairs, lo, hi, w.owned, w.want); err != nil {
			w.fail(err)
		}
	}
	w.done++
}

var opSpanName = [...]string{opGet: "shard.get", opPut: "shard.put", opChurn: "shard.churn", opScan: "shard.scan"}

// runInprocPass runs the workers for the warm-up and then for seconds,
// and returns the median op rate over the kept windows and which
// windows were kept.
func runInprocPass(m *shard.Map, workers []*inprocWorker, seconds time.Duration, pass string) (float64, []bool) {
	var stop atomic.Bool
	var wg sync.WaitGroup
	clock := newPassClock(seconds)
	start := clock.start
	for _, w := range workers {
		wg.Add(1)
		go func(w *inprocWorker) {
			defer wg.Done()
			for !stop.Load() {
				for i := 0; i < inprocBatch; i++ {
					w.step(m, start)
				}
				w.opsDone.add(windowOf(start, time.Now()), inprocBatch)
			}
		}(w)
	}
	clock.wait(nil)
	stop.Store(true)
	wg.Wait()
	var counts []counter
	for _, w := range workers {
		counts = append(counts, w.opsDone)
		w.opsDone = nil
	}
	keep := clock.kept(pass)
	return windowRate(counts, keep), keep
}

func runInproc(cfg runConfig) (*report, error) {
	var m *shard.Map
	setup, err := timeSetups(cfg.setups(inprocSetups), func() (err error) {
		m, err = newInprocMap(cfg.seed)
		return err
	}, func() { m = nil })
	if err != nil {
		return nil, err
	}
	workers := make([]*inprocWorker, inprocWorkers)
	for g := range workers {
		workers[g] = newInprocWorker(g, cfg.seed)
	}
	rep := &report{}
	var rate float64
	if !cfg.layersOnly {
		runtime.GC()
		var keep []bool
		rate, keep = runInprocPass(m, workers, cfg.seconds, "untraced")
		collectInproc(rep, m, workers)
		if !cfg.trace {
			var lats [][]windowedSample
			for _, w := range workers {
				lats = append(lats, w.scanLat.samples)
			}
			p50, p90 := windowPercentiles(lats, keep, 0.5, 0.9)
			rep.add("ops_per_s", rate, "ops/s")
			rep.add("latency_p50_us", p50/1e3, "us")
			rep.add("latency_p90_us", p90/1e3, "us")
			rep.add("setup_s", setup, "s")
			for g := range workers {
				workers[g] = nil // live_heap_mb counts the map, not the workers' streams and records
			}
			rep.add("live_heap_mb", heapMB(), "MB")
			runtime.KeepAlive(m)
			return rep, nil
		}
	}

	epoch := time.Now()
	var bufs []*spanBuf
	for _, w := range workers {
		w.spans = newSpanBuf(epoch, 1<<17)
		w.done, w.scanLat = 0, windowed{}
		bufs = append(bufs, w.spans)
	}
	runtime.GC()
	mem0 := readMem()
	trate, _ := runInprocPass(m, workers, cfg.seconds, "traced")
	mem1 := readMem()
	tops := collectInproc(rep, m, workers)

	self := selfTimes(bufs)
	var point []int64
	for _, n := range []string{"shard.get", "shard.put", "shard.churn"} {
		point = append(point, self[n]...)
	}
	var pairsSum, nScans int64
	var scans []uint64
	for _, w := range workers {
		pairsSum += w.pairsSum
		nScans += w.nScans
		scans = append(scans, w.scans...)
	}
	if len(scans) > scanReplay {
		scans = scans[:scanReplay]
	}
	rep.add("shard.point_ns", meanOf(point), "ns")
	rep.add("shard.scan_us", percentile(self["shard.scan"], 0.5)/1e3, "us")
	rep.add("shard.pairs_per_scan", float64(pairsSum)/float64(nScans), "pairs")
	if !cfg.layersOnly {
		rep.addRuntime(mem0, mem1, tops)
	}
	if err := replayInproc(rep, m, cfg.seed, workers[0].ops, scans); err != nil {
		return nil, err
	}
	err = rep.finishTrace(cfg, "inproc-ordered", bufs, rate, trate)
	return rep, err
}

// collectInproc adds a pass's op counts and failures to rep, checks the
// map's length against what the workers know, and returns the ops done.
func collectInproc(rep *report, m *shard.Map, workers []*inprocWorker) int64 {
	var ops int64
	present := 0
	for _, w := range workers {
		ops += w.done
		rep.failures.wrongValue += w.wrong
		if w.firstErr != nil {
			rep.check(fmt.Sprintf("worker %d", w.g), w.firstErr)
		}
		w.wrong, w.firstErr = 0, nil
		for k, p := range w.present {
			if p && w.owned(uint64(k)) {
				present++
			}
		}
	}
	rep.attempted += ops
	if n := m.Len(); n != present {
		rep.check("length", fmt.Errorf("map holds %d keys, workers hold %d present", n, present))
	}
	return ops
}

// replayInproc replays the traced pass's scan ranges through ScanChunked
// and the lock counters, and the op stream on one skiplist backend sized
// like a stripe, each from one goroutine after the pass.
func replayInproc(rep *report, m *shard.Map, seed uint64, ops []inprocOp, scans []uint64) error {
	before, err := m.SnapshotLite(nil)
	if err != nil {
		return err
	}
	for _, lo := range scans {
		m.Scan(lo, lo+scanKeys-1, func(k, v uint64) bool { return true }) //nolint:errcheck // checked in the pass
	}
	after, err := m.SnapshotLite(nil)
	if err != nil {
		return err
	}
	// The second snapshot's own acquisitions (one per stripe) land in
	// after; the first snapshot's landed in before.
	rep.add("lock.acquires_per_scan", float64(after.Lock.Acquires-before.Lock.Acquires-inprocStripes)/float64(len(scans)), "acq/scan")

	lat := make([]int64, 0, len(scans))
	for _, lo := range scans {
		t0 := time.Now()
		if err := m.ScanChunked(lo, lo+scanKeys-1, scanChunk, func(k, v uint64) bool { return true }); err != nil {
			return err
		}
		lat = append(lat, int64(time.Since(t0)))
	}
	sortInt64(lat)
	rep.add("shard.scan_chunked_us", percentile(lat, 0.5)/1e3, "us")

	b, err := store.New(inprocBackend, store.WithSeed(seed))
	if err != nil {
		return err
	}
	var keys []uint64
	for k := uint64(0); k < inprocKeys; k++ {
		if m.StripeFor(k) == 0 {
			b.Put(k, encodeVal(k, 0))
		}
	}
	for _, op := range ops {
		if op.kind != opScan && m.StripeFor(op.key) == 0 {
			keys = append(keys, op.key)
		}
	}
	if len(keys) == 0 {
		return fmt.Errorf("no replayed key routes to stripe 0")
	}
	rep.add("store.get_ns", replayNs(inprocReplay, func(i int) {
		b.Get(keys[i%len(keys)])
	}), "ns")
	rep.add("store.put_ns", replayNs(inprocReplay, func(i int) {
		k := keys[i%len(keys)]
		b.Put(k, encodeVal(k, uint32(i)))
	}), "ns")
	ord := b.(store.Ordered)
	lat = lat[:0]
	for _, lo := range scans {
		t0 := time.Now()
		ord.Scan(lo, lo+scanKeys-1, func(k, v uint64) bool { return true })
		lat = append(lat, int64(time.Since(t0)))
	}
	sortInt64(lat)
	rep.add("store.scan_us", percentile(lat, 0.5)/1e3, "us")
	return nil
}
