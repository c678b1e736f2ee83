package main

import (
	"math"
	"testing"

	"repro/experiments"
)

// Each correctness check must pass a good result and fail every broken
// one: a check that cannot fail checks nothing.

func TestCheckScan(t *testing.T) {
	even := func(k uint64) bool { return k%2 == 0 }
	p := func(k uint64, ver uint32) pair { return pair{k, encodeVal(k, ver)} }
	good := []pair{p(10, 1), p(11, 0), p(12, 3), p(15, 0)}
	want := []pair{p(10, 1), p(12, 3)}
	if err := checkScan(good, 10, 15, even, want); err != nil {
		t.Fatalf("good scan rejected: %v", err)
	}
	broken := map[string][]pair{
		"out of order":       {p(10, 1), p(12, 3), p(11, 0), p(15, 0)},
		"repeated key":       {p(10, 1), p(11, 0), p(11, 0), p(12, 3)},
		"below range":        {p(9, 0), p(10, 1), p(11, 0), p(12, 3)},
		"above range":        {p(10, 1), p(11, 0), p(12, 3), p(16, 0)},
		"own key missing":    {p(10, 1), p(11, 0), p(15, 0)},
		"own write stale":    {p(10, 1), p(11, 0), p(12, 2), p(15, 0)},
		"deleted own key":    {p(10, 1), p(11, 0), p(12, 3), p(14, 0), p(15, 0)},
		"another key's pair": {p(10, 1), {11, encodeVal(13, 0)}, p(12, 3)},
	}
	for name, pairs := range broken {
		if checkScan(pairs, 10, 15, even, want) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckReadback(t *testing.T) {
	v := encodeVal(7, 4)
	if err := checkReadback(7, v, v, true); err != nil {
		t.Fatalf("own write rejected: %v", err)
	}
	if checkReadback(7, v, encodeVal(7, 3), true) == nil {
		t.Error("an older write accepted as the latest")
	}
	if checkReadback(7, v, 0, false) == nil {
		t.Error("a lost key accepted")
	}
}

func TestCheckValue(t *testing.T) {
	if err := checkValue(42, encodeVal(42, 9)); err != nil {
		t.Fatalf("own value rejected: %v", err)
	}
	if checkValue(42, encodeVal(43, 9)) == nil {
		t.Error("another key's value accepted")
	}
}

func TestCheckMutex(t *testing.T) {
	per := []uint64{5, 7, 1}
	if err := checkMutex(13, per, 13); err != nil {
		t.Fatalf("consistent counts rejected: %v", err)
	}
	if checkMutex(12, per, 13) == nil {
		t.Error("critical-section counter one short accepted")
	}
	if checkMutex(13, per, 14) == nil {
		t.Error("lock Acquires one over accepted")
	}
	if checkMutex(13, []uint64{5, 8, 0}, 13) == nil {
		t.Error("a goroutine that never acquired accepted")
	}
}

// figure builds a two-point figure with the standard four locks.
func figure(one, topMCS, topCR float64) experiments.Figure {
	f := experiments.Figure{ID: "test"}
	for _, l := range []string{"MCS-S", "MCS-STP", "MCSCR-S", "MCSCR-STP"} {
		top := topMCS
		if l == "MCSCR-STP" {
			top = topCR
		}
		f.Series = append(f.Series, experiments.Series{Label: l, Points: []experiments.Point{{X: 1, Y: one}, {X: 64, Y: top}}})
	}
	return f
}

func TestCheckFigure(t *testing.T) {
	if err := checkFigure(figure(100, 10, 20)); err != nil {
		t.Fatalf("good figure rejected: %v", err)
	}
	if checkFigure(figure(100, 10, math.Nextafter(20, 0))) == nil {
		t.Error("MCSCR-STP just below 2x MCS-STP accepted")
	}
	f := figure(100, 10, 30)
	f.Series[2].Points[0].Y = 99
	if checkFigure(f) == nil {
		t.Error("locks differing at one thread accepted")
	}
}

func TestCheckRerun(t *testing.T) {
	f := figure(100, 10, 30)
	again := experiments.Figure{ID: "test", Series: []experiments.Series{{Label: "MCSCR-STP", Points: []experiments.Point{{X: 64, Y: 30}}}}}
	if err := checkRerun(f, again); err != nil {
		t.Fatalf("identical re-run rejected: %v", err)
	}
	again.Series[0].Points[0].Y = 31
	if checkRerun(f, again) == nil {
		t.Error("a different re-run accepted")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) ==
	// [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, med, q3)
	}
}
