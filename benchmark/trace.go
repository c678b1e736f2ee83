package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one request share req;
// parent indexes the enclosing span in the same buffer (-1 for a root).
type span struct {
	name       string
	req        uint64
	parent     int32
	start, end int64 // ns since the tracer's epoch
}

// spanBuf is one goroutine's in-memory span log. It never grows past
// the capacity it was made with: a full buffer drops further spans (and
// counts them) instead of allocating inside the measured loop.
type spanBuf struct {
	epoch   time.Time
	spans   []span
	dropped int64
}

func newSpanBuf(epoch time.Time, capacity int) *spanBuf {
	return &spanBuf{epoch: epoch, spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its index, or -1 when the buffer is
// full.
func (b *spanBuf) begin(name string, req uint64, parent int32) int32 {
	if len(b.spans) == cap(b.spans) {
		b.dropped++
		return -1
	}
	b.spans = append(b.spans, span{name: name, req: req, parent: parent, start: int64(time.Since(b.epoch))})
	return int32(len(b.spans) - 1)
}

// end closes the span begin returned.
func (b *spanBuf) end(i int32) {
	if i >= 0 {
		b.spans[i].end = int64(time.Since(b.epoch))
	}
}

// selfTimes reduces spans to per-name self times in ns: a span's
// duration minus the durations of its children. Unclosed spans are
// skipped.
func selfTimes(bufs []*spanBuf) map[string][]int64 {
	out := map[string][]int64{}
	for _, b := range bufs {
		child := make([]int64, len(b.spans))
		for _, s := range b.spans {
			if s.parent >= 0 && s.end > 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range b.spans {
			if s.end > 0 {
				out[s.name] = append(out[s.name], s.end-s.start-child[i])
			}
		}
	}
	for _, v := range out {
		sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	}
	return out
}

func meanOf(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum int64
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs))
}

// replayRounds is how many times a replay loop runs; its figure is the
// median round, so a round the host disturbed does not set it.
const replayRounds = 5

// replayNs calls fn(0..n-1) replayRounds times and returns the median
// round's time per call in ns.
func replayNs(n int, fn func(i int)) float64 {
	rounds := make([]float64, replayRounds)
	for r := range rounds {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		rounds[r] = float64(time.Since(t0)) / float64(n)
	}
	return median(rounds)
}

// writeSpans writes every span as a tab-separated line (goroutine,
// index, parent, request, name, start ns, end ns) to
// dir/<workload>-seed<seed>.spans.tsv and returns the path.
func writeSpans(dir, workload string, seed uint64, bufs []*spanBuf) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.tsv", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "g\tid\tparent\treq\tname\tstart_ns\tend_ns")
	for g, b := range bufs {
		for i, s := range b.spans {
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\t%d\t%d\n", g, i, s.parent, s.req, s.name, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// finishTrace writes the spans and reports how many were kept and
// dropped. Unless cfg.layersOnly, it adds the traced pass's ops_per_s
// and the tracing overhead: the untraced pass's ops_per_s over the
// traced pass's.
func (r *report) finishTrace(cfg runConfig, workload string, bufs []*spanBuf, untraced, traced float64) error {
	path, err := writeSpans(cfg.traceDir, workload, cfg.seed, bufs)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	var kept, dropped int
	for _, b := range bufs {
		kept += len(b.spans)
		dropped += int(b.dropped)
	}
	fmt.Printf("# spans kept=%d dropped=%d written to %s\n", kept, dropped, path)
	if !cfg.layersOnly {
		r.add("trace.ops_per_s", traced, "ops/s")
		r.add("trace.overhead_ratio", untraced/traced, "x")
	}
	return nil
}
