package main

import (
	"fmt"

	"repro/experiments"
)

// The correctness checks every workload applies to its outputs. They are
// properties, not saved outputs, so they hold for every seed; each is
// fed a deliberately broken result in checks_test.go.

// pair is one key/value a scan yielded.
type pair struct{ key, val uint64 }

// encodeVal builds the value the map-driving workloads write: the key in
// the high half and a version in the low half, so any value read back
// names the key it belongs to.
func encodeVal(key uint64, version uint32) uint64 { return key<<32 | uint64(version) }

// checkValue fails when val does not belong to key.
func checkValue(key, val uint64) error {
	if val>>32 != key {
		return fmt.Errorf("key %d read value %#x, which belongs to key %d", key, val, val>>32)
	}
	return nil
}

// checkReadback fails when a key's own latest write is not what a read
// returned.
func checkReadback(key, want, got uint64, found bool) error {
	switch {
	case !found:
		return fmt.Errorf("key %d: own write %#x lost (key absent)", key, want)
	case got != want:
		return fmt.Errorf("key %d: own write %#x lost (read %#x)", key, want, got)
	}
	return nil
}

// checkScan fails unless pairs is strictly ascending within [lo, hi],
// every value belongs to its key, and the pairs whose keys owned reports
// are exactly want.
func checkScan(pairs []pair, lo, hi uint64, owned func(key uint64) bool, want []pair) error {
	n := 0
	for i, p := range pairs {
		if p.key < lo || p.key > hi {
			return fmt.Errorf("scan [%d,%d] yielded key %d out of range", lo, hi, p.key)
		}
		if i > 0 && p.key <= pairs[i-1].key {
			return fmt.Errorf("scan [%d,%d] yielded key %d after %d", lo, hi, p.key, pairs[i-1].key)
		}
		if err := checkValue(p.key, p.val); err != nil {
			return fmt.Errorf("scan [%d,%d]: %w", lo, hi, err)
		}
		if !owned(p.key) {
			continue
		}
		if n >= len(want) || want[n] != p {
			return fmt.Errorf("scan [%d,%d] yielded own pair %d=%#x, want %s", lo, hi, p.key, p.val, describe(want, n))
		}
		n++
	}
	if n != len(want) {
		return fmt.Errorf("scan [%d,%d] missed own pair %s", lo, hi, describe(want, n))
	}
	return nil
}

func describe(want []pair, i int) string {
	if i >= len(want) {
		return "none"
	}
	return fmt.Sprintf("%d=%#x", want[i].key, want[i].val)
}

// checkMutex fails unless the counter bumped inside the critical section
// equals both the summed per-goroutine acquisitions and the lock's own
// acquisition count, and every goroutine acquired at least once.
func checkMutex(counter uint64, perGoroutine []uint64, lockAcquires uint64) error {
	var sum uint64
	for g, n := range perGoroutine {
		if n == 0 {
			return fmt.Errorf("goroutine %d never acquired", g)
		}
		sum += n
	}
	if counter != sum || counter != lockAcquires {
		return fmt.Errorf("critical-section counter %d, goroutine acquisitions %d, lock Acquires %d", counter, sum, lockAcquires)
	}
	return nil
}

// checkFigure fails unless every lock gives the same throughput at the
// lowest thread count (one thread never contends) and MCSCR-STP is at
// least twice MCS-STP at the highest: the collapse the paper's
// concurrency restriction averts.
func checkFigure(fig experiments.Figure) error {
	at := func(label string, last bool) (float64, float64, error) {
		for _, s := range fig.Series {
			if s.Label == label && len(s.Points) > 0 {
				p := s.Points[0]
				if last {
					p = s.Points[len(s.Points)-1]
				}
				return p.X, p.Y, nil
			}
		}
		return 0, 0, fmt.Errorf("%s: no %s series", fig.ID, label)
	}
	x0, y0, err := at(fig.Series[0].Label, false)
	if err != nil {
		return err
	}
	for _, s := range fig.Series[1:] {
		if x, y, _ := at(s.Label, false); x != x0 || y != y0 {
			return fmt.Errorf("%s: at %g threads %s gives %g, %s gives %g", fig.ID, x0, fig.Series[0].Label, y0, s.Label, y)
		}
	}
	xt, mcs, err := at("MCS-STP", true)
	if err != nil {
		return err
	}
	_, cr, err := at("MCSCR-STP", true)
	if err != nil {
		return err
	}
	if cr < 2*mcs {
		return fmt.Errorf("%s: at %g threads MCSCR-STP %g is below 2x MCS-STP %g", fig.ID, xt, cr, mcs)
	}
	return nil
}

// checkRerun fails unless every point of again equals the point with
// the same series and thread count in fig: one seed, one result.
func checkRerun(fig, again experiments.Figure) error {
	for _, s := range again.Series {
		for _, p := range s.Points {
			found := false
			for _, t := range fig.Series {
				for _, q := range t.Points {
					if t.Label == s.Label && q.X == p.X {
						found = true
						if q.Y != p.Y {
							return fmt.Errorf("%s %s at %g threads: %g, re-run gives %g", fig.ID, s.Label, p.X, q.Y, p.Y)
						}
					}
				}
			}
			if !found {
				return fmt.Errorf("%s %s at %g threads: not in the figure", fig.ID, s.Label, p.X)
			}
		}
	}
	return nil
}
