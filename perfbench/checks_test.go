package main

import (
	"path/filepath"
	"testing"

	"mithra/internal/classifier"
	"mithra/internal/cluster"
	"mithra/internal/mathx"
	"mithra/internal/serve"
)

// testTable trains a small dim-3 table: inputs with in[0] > 0.9 are bad.
func testTable(t *testing.T) (*classifier.Table, [][]float64) {
	t.Helper()
	rng := mathx.NewRNG(99)
	samples := make([]classifier.Sample, 2000)
	ins := make([][]float64, len(samples))
	for i := range samples {
		in := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		samples[i] = classifier.Sample{In: in, Bad: in[0] > 0.9}
		ins[i] = in
	}
	tab, err := classifier.TrainTable(classifier.DefaultTableConfig(), samples)
	if err != nil {
		t.Fatal(err)
	}
	return tab, ins
}

func TestCheckServedCatchesFlippedDecision(t *testing.T) {
	tab, ins := testTable(t)
	want := decisions(tab, ins[:batch])
	resps := make([]decision, batch)
	for i := range resps {
		resps[i] = decision{ID: 100 + uint32(i), Precise: want[i]}
	}
	if err := checkServed("t", 100, resps, want); err != nil {
		t.Fatalf("faithful batch rejected: %v", err)
	}
	resps[7].Precise = !resps[7].Precise
	if checkServed("t", 100, resps, want) == nil {
		t.Fatal("flipped decision passed")
	}
	resps[7].Precise = want[7]
	resps[3].Fallback, resps[3].Precise = true, true
	if checkServed("t", 100, resps, want) == nil {
		t.Fatal("fallback answer passed")
	}
	resps[3] = decision{ID: 999, Precise: want[3]}
	if checkServed("t", 100, resps, want) == nil {
		t.Fatal("wrong request ID passed")
	}
}

func TestCheckMonotoneCatchesClearedBit(t *testing.T) {
	tab, ins := testTable(t)
	snap, err := serve.NewSnapshot("t", tab, nil, 0.1, testGuarantee(), nil)
	if err != nil {
		t.Fatal(err)
	}
	folded := snap.WithFoldIn(ins[:64]).Table
	initial, final := tab.RawBytes(), folded.RawBytes()
	if err := checkMonotone("t", initial, final); err != nil {
		t.Fatalf("genuine fold-in rejected: %v", err)
	}
	set := -1
	for i, b := range initial {
		if b != 0 {
			set = i
			break
		}
	}
	if set < 0 {
		t.Fatal("test table has no bit set")
	}
	cleared := append([]byte(nil), final...)
	cleared[set] &^= initial[set] & -initial[set] // clear the lowest set bit
	if checkMonotone("t", initial, cleared) == nil {
		t.Fatal("cleared table bit passed")
	}
}

func TestCheckOnlineCatchesBrokenImplication(t *testing.T) {
	initial := []bool{true, false, false}
	served := make([]bool, 3)
	resps := []decision{{ID: 0, Precise: true}, {ID: 1, Precise: true}, {ID: 2}}
	if err := checkOnlineBatch("t", 0, resps, initial, served); err != nil {
		t.Fatalf("valid batch rejected: %v", err)
	}
	if err := checkFinal("t", served, []bool{true, true, false}); err != nil {
		t.Fatalf("valid final table rejected: %v", err)
	}
	if checkFinal("t", served, []bool{true, false, false}) == nil {
		t.Fatal("served-precise input routed approximate by the final table passed")
	}
	resps[0].Precise = false
	if checkOnlineBatch("t", 0, resps, initial, make([]bool, 3)) == nil {
		t.Fatal("initially precise input served approximate passed")
	}
}

// writeLog records ids 0..n-1 of bench, except skip, to a decision log.
func writeLog(t *testing.T, path, bench string, n, skip int, want []bool) {
	t.Helper()
	rec, err := cluster.OpenRecorder(path)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < n; id++ {
		if id != skip {
			rec.Record(bench, uint32(id), want[id])
		}
		if id%batch == batch-1 {
			if err := rec.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckDecisionLogCatchesMissingRecord(t *testing.T) {
	tab, ins := testTable(t)
	const n = 200
	want := decisions(tab, ins[:n])
	ref := serve.NewDecisionSet("t")
	ref.AppendBools(want)
	dir := t.TempDir()
	for _, c := range []struct {
		name string
		skip int
		ok   bool
	}{
		{"complete", -1, true},
		{"middle", 57, false},
		{"last", n - 1, false},
	} {
		path := filepath.Join(dir, c.name+".dlog")
		writeLog(t, path, "t", n, c.skip, want)
		err := checkDecisionLog([]string{path}, []*serve.DecisionSet{ref})
		if c.ok && err != nil {
			t.Errorf("%s log rejected: %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("log missing record %d passed", c.skip)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, med, q3 := quartiles(v)
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	if _, m, _ := quartiles([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median of 3 values = %v", m)
	}
}
