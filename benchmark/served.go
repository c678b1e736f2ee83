package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/server"
	"repro/shard"
	"repro/wire"
)

// The served-point workload runs an in-process server on loopback and
// drives it over the wire: servedConns connections, each with one
// request in flight (a closed loop), zipf(1.2) keys over servedKeys
// preloaded keys, 90% GET and 10% PUT. Half the requests carry a
// deadline budget in classes 1-3, far larger than any healthy latency.
// Connection c writes only the keys k with k%servedConns == c, so it
// knows the latest value of every key it wrote.
const (
	servedKeys    = 1 << 20
	servedConns   = 2
	servedSetups  = 5
	preloadBatch  = 1024
	budgetMicros  = 1_000_000
	getPercent    = 90
	readbackBatch = 512
	// servedSampleEvery is the traced pass's span stride: one request in
	// servedSampleEvery records its spans.
	servedSampleEvery = 32
	// pingEvery spaces the probe phase's PINGs: one exchange in pingEvery
	// on each connection is a PING. They ride the data connections so
	// they cross the same hot socket and serve loop a GET does; a
	// separate, mostly idle probe connection also measures the wake-ups
	// of its parked goroutines. The probe phase runs after the traced
	// pass, so the traced pass differs from the untraced one only by its
	// spans.
	pingEvery   = 16
	probeLength = 3 * time.Second
	// servedReplay is how many recorded requests the after-pass replays
	// run; snapshotSamples is how many SnapshotLite calls are timed.
	servedReplay    = 1 << 17
	snapshotSamples = 32
)

func servedConfig(seed uint64) server.Config {
	return server.Config{
		Addr:        "127.0.0.1:0",
		MetricsAddr: "127.0.0.1:0",
		Stripes:     64,
		LockSpec:    "mcscr-stp",
		BackendSpec: "hashmap",
		ReadPath:    "optimistic",
		Policy:      "slo",
		Seed:        seed,
	}
}

// servedConn is one client connection and everything it measured.
type servedConn struct {
	c      int
	conn   net.Conn
	br     *bufio.Reader
	wbuf   []byte
	rbuf   []byte
	rg     *rand.Rand
	z      *rand.Zipf
	latest map[uint64]uint64 // own keys written in the run → value
	ver    uint32

	done, wrong, miss, ioErr int64
	firstErr                 error
	getLat, putLat           windowed
	ops                      counter
	spans                    *spanBuf
	recorded                 []servedReq // the traced pass's requests, for replay
	pings                    []int64     // the probe phase's PING round trips, ns
}

type servedReq struct {
	put   bool
	class uint8
	key   uint64
}

func dialServed(addr string, c int, seed uint64) (*servedConn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	rg := rand.New(rand.NewSource(int64(seed)*104729 + int64(c)))
	return &servedConn{
		c:      c,
		conn:   conn,
		br:     bufio.NewReaderSize(conn, 4096),
		wbuf:   make([]byte, 0, 64),
		rbuf:   make([]byte, 64),
		rg:     rg,
		z:      rand.NewZipf(rg, 1.2, 1, servedKeys-1),
		latest: map[uint64]uint64{},
	}, nil
}

func (sc *servedConn) fail(err error) {
	if sc.firstErr == nil {
		sc.firstErr = err
	}
}

// readResp reads one response frame and returns its header and payload
// (aliasing rbuf).
func (sc *servedConn) readResp() (wire.RespHeader, []byte, error) {
	var hb [wire.RespHeaderSize]byte
	if _, err := io.ReadFull(sc.br, hb[:]); err != nil {
		return wire.RespHeader{}, nil, err
	}
	h, err := wire.ParseRespHeader(hb[:])
	if err != nil {
		return h, nil, err
	}
	if cap(sc.rbuf) < int(h.Len) {
		sc.rbuf = make([]byte, h.Len)
	}
	p := sc.rbuf[:h.Len]
	_, err = io.ReadFull(sc.br, p)
	return h, p, err
}

// preload writes the connection's half of the key space, pipelined in
// batches, and checks every key was fresh.
func (sc *servedConn) preload() error {
	buf := make([]byte, 0, preloadBatch*(wire.ReqHeaderSize+16))
	for k := uint64(sc.c); k < servedKeys; {
		buf = buf[:0]
		n := 0
		for ; n < preloadBatch && k < servedKeys; k += servedConns {
			buf = wire.AppendPut(buf, 0, 0, k, encodeVal(k, 0))
			n++
		}
		if _, err := sc.conn.Write(buf); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			h, p, err := sc.readResp()
			if err != nil {
				return err
			}
			if err := h.Status.Err(); err != nil {
				return err
			}
			if fresh, err := wire.ParseBoolResp(p); err != nil || !fresh {
				return fmt.Errorf("preload PUT not fresh (err %v)", err)
			}
		}
	}
	return nil
}

// request sends one request and checks its response. It returns false
// when the connection is no longer usable.
func (sc *servedConn) request(start time.Time) bool {
	put := sc.rg.Intn(100) >= getPercent
	key := sc.z.Uint64()
	if put {
		key = own(key, sc.c, servedConns)
	}
	var class uint8
	var budget uint32
	if sc.rg.Intn(2) == 0 {
		class, budget = uint8(1+sc.rg.Intn(shard.NumClasses-1)), budgetMicros
	}
	var val uint64
	if put {
		sc.ver++
		val = encodeVal(key, sc.ver)
	}

	sp := sc.spans
	var root, s int32 = -1, -1
	if sp != nil && sc.done%servedSampleEvery == 0 {
		name := "client.get"
		if put {
			name = "client.put"
		}
		root = sp.begin(name, uint64(sc.done), -1)
		s = sp.begin("wire.encode", uint64(sc.done), root)
	}
	t0 := time.Now()
	if put {
		sc.wbuf = wire.AppendPut(sc.wbuf[:0], class, budget, key, val)
	} else {
		sc.wbuf = wire.AppendGet(sc.wbuf[:0], class, budget, key)
	}
	if root >= 0 {
		sp.end(s)
		s = sp.begin("socket.write", uint64(sc.done), root)
	}
	_, err := sc.conn.Write(sc.wbuf)
	if root >= 0 {
		sp.end(s)
		s = sp.begin("socket.read", uint64(sc.done), root)
	}
	var h wire.RespHeader
	var p []byte
	if err == nil {
		h, p, err = sc.readResp()
	}
	if root >= 0 {
		sp.end(s)
		s = sp.begin("wire.decode", uint64(sc.done), root)
	}
	var found, fresh bool
	var got uint64
	if err == nil && h.Status == wire.StatusOK {
		if put {
			fresh, err = wire.ParseBoolResp(p)
		} else {
			got, found, err = wire.ParseGetResp(p)
		}
	}
	t1 := time.Now()
	if root >= 0 {
		sp.end(s)
		sp.end(root)
	}
	sc.done++
	if sc.recorded != nil && len(sc.recorded) < cap(sc.recorded) {
		sc.recorded = append(sc.recorded, servedReq{put, class, key})
	}
	switch {
	case err != nil:
		sc.ioErr++
		sc.fail(err)
		return false
	case h.Status == wire.StatusDeadline:
		sc.miss++
		return true
	case h.Status != wire.StatusOK:
		sc.ioErr++
		sc.fail(h.Status.Err())
		return false
	}
	w := windowOf(start, t1)
	sc.ops.add(w, 1)
	if put {
		sc.putLat.add(w, t1.Sub(t0))
		if fresh {
			sc.wrong++
			sc.fail(fmt.Errorf("PUT %d reported a fresh key; every key is preloaded", key))
		}
		sc.latest[key] = val
		return true
	}
	sc.getLat.add(w, t1.Sub(t0))
	want, mine := sc.latest[key]
	switch {
	case !found:
		sc.wrong++
		sc.fail(fmt.Errorf("GET %d: preloaded key absent", key))
	case mine:
		if err := checkReadback(key, want, got, true); err != nil {
			sc.wrong++
			sc.fail(err)
		}
	default:
		if err := checkValue(key, got); err != nil {
			sc.wrong++
			sc.fail(err)
		}
	}
	return true
}

// readback re-reads every key the connection wrote, pipelined, and
// checks each holds the connection's latest write.
func (sc *servedConn) readback() error {
	keys := make([]uint64, 0, len(sc.latest))
	for k := range sc.latest {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for i := 0; i < len(keys); i += readbackBatch {
		batch := keys[i:min(i+readbackBatch, len(keys))]
		buf := sc.wbuf[:0]
		for _, k := range batch {
			buf = wire.AppendGet(buf, 0, 0, k)
		}
		sc.wbuf = buf
		if _, err := sc.conn.Write(buf); err != nil {
			return err
		}
		for _, k := range batch {
			h, p, err := sc.readResp()
			if err != nil {
				return err
			}
			if err := h.Status.Err(); err != nil {
				return err
			}
			got, found, err := wire.ParseGetResp(p)
			if err != nil {
				return err
			}
			if err := checkReadback(k, sc.latest[k], got, found); err != nil {
				sc.wrong++
				sc.fail(err)
			}
		}
	}
	return nil
}

// servedRig is one started server with its preloaded connections.
type servedRig struct {
	srv   *server.Server
	conns []*servedConn
}

func (r *servedRig) close() {
	for _, sc := range r.conns {
		sc.conn.Close()
	}
	r.srv.Drain() //nolint:errcheck // first and only drain
}

// setupServed starts a server, dials the connections and preloads the
// key space over them.
func setupServed(seed uint64) (*servedRig, error) {
	srv, err := server.New(servedConfig(seed))
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	rig := &servedRig{srv: srv}
	for c := 0; c < servedConns; c++ {
		sc, err := dialServed(srv.Addr(), c, seed)
		if err != nil {
			rig.close()
			return nil, err
		}
		rig.conns = append(rig.conns, sc)
	}
	errs := make([]error, servedConns)
	var wg sync.WaitGroup
	for c, sc := range rig.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[c] = sc.preload()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			rig.close()
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	return rig, nil
}

// runServedPass drives every connection for the warm-up and then for
// seconds, and returns the median request rate over the kept windows
// and which windows were kept. With ping set, every pingEvery-th
// exchange on each connection is a PING instead of a request, timed
// into sc.pings.
func runServedPass(conns []*servedConn, seconds time.Duration, pass string, ping bool) (float64, []bool) {
	var stop atomic.Bool
	var wg sync.WaitGroup
	clock := newPassClock(seconds)
	start := clock.start
	for _, sc := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; !stop.Load(); i++ {
				if ping && i%pingEvery == 0 {
					if !sc.ping(start) {
						return
					}
				} else if !sc.request(start) {
					return
				}
			}
		}()
	}
	clock.wait(nil)
	stop.Store(true)
	wg.Wait()
	var counts []counter
	for _, sc := range conns {
		counts = append(counts, sc.ops)
		sc.ops = nil
	}
	keep := clock.kept(pass)
	return windowRate(counts, keep), keep
}

// ping times one PING round trip: the socket and the serve loop with no
// map work. Round trips that end in the warm-up are not recorded.
func (sc *servedConn) ping(start time.Time) bool {
	t0 := time.Now()
	sc.wbuf = wire.AppendPing(sc.wbuf[:0])
	_, err := sc.conn.Write(sc.wbuf)
	var h wire.RespHeader
	if err == nil {
		h, _, err = sc.readResp()
	}
	if err == nil {
		err = h.Status.Err()
	}
	if err != nil {
		sc.ioErr++
		sc.fail(err)
		return false
	}
	if t1 := time.Now(); windowOf(start, t1) >= 0 {
		sc.pings = append(sc.pings, int64(t1.Sub(t0)))
	}
	return true
}

// collectServed adds a pass's outcome to rep and returns the requests
// done.
func collectServed(rep *report, conns []*servedConn) int64 {
	var ops int64
	for _, sc := range conns {
		ops += sc.done
		rep.failures.wrongValue += sc.wrong
		rep.failures.deadlineMiss += sc.miss
		rep.failures.ioError += sc.ioErr
		if sc.firstErr != nil {
			rep.check(fmt.Sprintf("connection %d", sc.c), sc.firstErr)
		}
		sc.done, sc.wrong, sc.miss, sc.ioErr, sc.firstErr = 0, 0, 0, 0, nil
	}
	rep.attempted += ops
	return ops
}

func runServed(cfg runConfig) (*report, error) {
	var rig *servedRig
	setup, err := timeSetups(cfg.setups(servedSetups), func() (err error) {
		rig, err = setupServed(cfg.seed)
		return err
	}, func() { rig.close() })
	if err != nil {
		return nil, err
	}
	defer rig.close()
	m := rig.srv.Map()

	rep := &report{}
	var rate float64
	if !cfg.layersOnly {
		runtime.GC()
		var keep []bool
		rate, keep = runServedPass(rig.conns, cfg.seconds, "untraced", false)
		collectServed(rep, rig.conns)
		if !cfg.trace {
			var lats [][]windowedSample
			for _, sc := range rig.conns {
				lats = append(lats, sc.getLat.samples, sc.putLat.samples)
				sc.getLat, sc.putLat = windowed{}, windowed{}
			}
			p50, p90 := windowPercentiles(lats, keep, 0.5, 0.9)
			servedChecks(rep, rig)
			for _, sc := range rig.conns {
				sc.latest = nil // live_heap_mb counts the server's map, not the checks' record
			}
			rep.add("ops_per_s", rate, "ops/s")
			rep.add("latency_p50_us", p50/1e3, "us")
			rep.add("latency_p90_us", p90/1e3, "us")
			rep.add("setup_s", setup, "s")
			rep.add("live_heap_mb", heapMB(), "MB")
			return rep, nil
		}
	}

	// Traced pass: spans on a sample of requests and counter deltas
	// around the pass.
	epoch := time.Now()
	var bufs []*spanBuf
	for _, sc := range rig.conns {
		sc.spans = newSpanBuf(epoch, 1<<17)
		sc.recorded = make([]servedReq, 0, servedReplay)
		sc.getLat, sc.putLat = windowed{}, windowed{}
		bufs = append(bufs, sc.spans)
	}
	runtime.GC()
	snap0, err := m.SnapshotLite(nil)
	if err != nil {
		return nil, err
	}
	mem0 := readMem()
	trate, _ := runServedPass(rig.conns, cfg.seconds, "traced", false)
	mem1 := readMem()
	snap1, err := m.SnapshotLite(nil)
	if err != nil {
		return nil, err
	}
	tops := collectServed(rep, rig.conns)

	// Probe phase: the same traffic with interleaved PINGs and no spans,
	// for the GET and PING medians dispatch is the difference of.
	for _, sc := range rig.conns {
		sc.spans = nil
		sc.recorded = slices.Clip(sc.recorded) // replay the traced pass's requests only
		sc.getLat, sc.putLat = windowed{}, windowed{}
	}
	runServedPass(rig.conns, probeLength, "probe", true)
	collectServed(rep, rig.conns)
	servedChecks(rep, rig)

	self := selfTimes(bufs)
	var gets, pings []int64
	for _, sc := range rig.conns {
		for _, s := range sc.getLat.samples {
			gets = append(gets, int64(s.ns))
		}
		pings = append(pings, sc.pings...)
	}
	sortInt64(gets)
	sortInt64(pings)
	ping := percentile(pings, 0.5)
	rep.add("socket.write_us", percentile(self["socket.write"], 0.5)/1e3, "us")
	rep.add("server.ping_rtt_us", ping/1e3, "us")
	rep.add("server.dispatch_us", (percentile(gets, 0.5)-ping)/1e3, "us")
	d := struct{ hits, retries, fallbacks, acq, slow float64 }{
		float64(snap1.OptimisticHits - snap0.OptimisticHits),
		float64(snap1.OptimisticRetries - snap0.OptimisticRetries),
		float64(snap1.OptimisticFallbacks - snap0.OptimisticFallbacks),
		float64(snap1.Lock.Acquires - snap0.Lock.Acquires),
		float64(snap1.Lock.SlowPath - snap0.Lock.SlowPath),
	}
	rep.add("optimistic.hit_ratio", d.hits/(d.hits+d.fallbacks), "ratio")
	rep.add("optimistic.retries_per_get", d.retries/(d.hits+d.fallbacks), "retries/get")
	rep.add("lock.acquires_per_op", d.acq/float64(tops), "acq/op")
	rep.add("lock.slow_path_ratio", d.slow/d.acq, "ratio")
	if !cfg.layersOnly {
		rep.addRuntime(mem0, mem1, tops)
	}
	replayServed(rep, m, rig.conns)
	err = rep.finishTrace(cfg, "served-point", bufs, rate, trate)
	return rep, err
}

// servedChecks reads back every connection's own writes and checks the
// map still holds exactly the preloaded keys.
func servedChecks(rep *report, rig *servedRig) {
	for _, sc := range rig.conns {
		if err := sc.readback(); err != nil {
			rep.failures.ioError++
			rep.check("readback", err)
		}
		rep.failures.wrongValue += sc.wrong
		if sc.firstErr != nil {
			rep.check(fmt.Sprintf("connection %d readback", sc.c), sc.firstErr)
		}
		sc.wrong, sc.firstErr = 0, nil
	}
	if n := rig.srv.Map().Len(); n != servedKeys {
		rep.check("length", fmt.Errorf("map holds %d keys, want the %d preloaded", n, servedKeys))
	}
}

// replayServed times, after the traced pass and from one goroutine, the
// codec and the map calls the server makes for the recorded requests.
func replayServed(rep *report, m *shard.Map, conns []*servedConn) {
	var reqs []servedReq
	for _, sc := range conns {
		reqs = append(reqs, sc.recorded...)
	}
	if len(reqs) == 0 {
		return
	}
	timeIt := func(name string, n int, fn func(i int)) { rep.add(name, replayNs(n, fn), "ns") }
	n := len(reqs)
	buf := make([]byte, 0, 64)
	timeIt("wire.encode_ns", n, func(i int) {
		r := reqs[i]
		if r.put {
			buf = wire.AppendPut(buf[:0], r.class, budgetMicros, r.key, encodeVal(r.key, 1))
		} else {
			buf = wire.AppendGet(buf[:0], r.class, budgetMicros, r.key)
		}
	})
	frames := make([][]byte, n)
	for i, r := range reqs {
		if r.put {
			frames[i] = wire.AppendPutResp(nil, false)
		} else {
			frames[i] = wire.AppendGetResp(nil, true, encodeVal(r.key, 0))
		}
	}
	var sum uint64
	timeIt("wire.decode_ns", n, func(i int) {
		f := frames[i]
		h, _ := wire.ParseRespHeader(f[:wire.RespHeaderSize])
		if reqs[i].put {
			ok, _ := wire.ParseBoolResp(f[wire.RespHeaderSize:])
			if ok {
				sum++
			}
		} else {
			v, _, _ := wire.ParseGetResp(f[wire.RespHeaderSize:])
			sum += v
		}
		sum += uint64(h.Len)
	})
	var gets, puts []servedReq
	for _, r := range reqs {
		if r.put {
			puts = append(puts, r)
		} else {
			gets = append(gets, r)
		}
	}
	var classCtx [shard.NumClasses]context.Context
	for c := range classCtx {
		classCtx[c] = shard.WithClass(context.Background(), c)
	}
	timeIt("shard.get_ns", len(gets), func(i int) {
		v, _ := m.Get(gets[i].key)
		sum += v
	})
	timeIt("shard.get_ctx_ns", len(gets), func(i int) {
		ctx, cancel := context.WithDeadline(classCtx[gets[i].class], time.Now().Add(budgetMicros*time.Microsecond))
		v, _, _ := m.GetContext(ctx, gets[i].key)
		cancel()
		sum += v
	})
	timeIt("shard.put_ctx_ns", len(puts), func(i int) {
		k := puts[i].key
		ctx, cancel := context.WithDeadline(classCtx[puts[i].class], time.Now().Add(budgetMicros*time.Microsecond))
		m.PutContext(ctx, k, encodeVal(k, 1)) //nolint:errcheck // a patient budget
		cancel()
	})
	lat := make([]int64, snapshotSamples)
	for i := range lat {
		t0 := time.Now()
		m.SnapshotLite(nil) //nolint:errcheck // nil context cannot expire
		lat[i] = int64(time.Since(t0))
	}
	sortInt64(lat)
	rep.add("shard.snapshot_lite_us", percentile(lat, 0.5)/1e3, "us")
	sink.Add(int64(sum))
}
