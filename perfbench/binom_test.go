package main

import (
	"math"
	"testing"

	"mithra/internal/stats"
	"mithra/internal/threshold"
)

func TestBinomTailHandCases(t *testing.T) {
	cases := []struct {
		s, n int
		p    float64
		want float64
	}{
		{24, 24, 0.6, math.Pow(0.6, 24)},        // ≈ 4.7e-6
		{23, 24, 0.6, 10.2 * math.Pow(0.6, 23)}, // 24·0.6^23·0.4 + 0.6^24
		{1, 2, 0.5, 0.75},                       // 1 - 0.5^2
		{2, 3, 0.5, 0.5},                        // (3 + 1) / 8
		{0, 10, 0.3, 1},                         // always at least 0
		{11, 10, 0.3, 0},                        // impossible
		{100, 100, 0.9, math.Pow(0.9, 100)},     // ≈ 2.66e-5
		{59, 60, 0.9, 6.9 * math.Pow(0.9, 59)},  // 60·0.1·0.9^59 + 0.9^60
	}
	for _, c := range cases {
		got := binomTail(c.s, c.n, c.p)
		if math.Abs(got-c.want) > 1e-9*c.want {
			t.Errorf("binomTail(%d, %d, %g) = %.12g, want %.12g", c.s, c.n, c.p, got, c.want)
		}
	}
	if got := binomTail(24, 24, 0.6); math.Abs(got-4.7384e-6) > 1e-9 {
		t.Errorf("24/24 at 0.6: %.6g, want about 4.7e-6", got)
	}
}

// TestCertifiesAgreesWithClopperPearson cross-checks the independent
// test against the compiler's Clopper-Pearson verdict on every outcome
// of small samples, under both guarantees the benchmark compiles for.
func TestCertifiesAgreesWithClopperPearson(t *testing.T) {
	for _, g := range []stats.Guarantee{testGuarantee(), stats.PaperGuarantee()} {
		for n := 1; n <= 120; n++ {
			for s := 0; s <= n; s++ {
				if got, want := certifies(s, n, g), g.Holds(s, n); got != want {
					t.Fatalf("%v: %d/%d certifies=%v, Clopper-Pearson %v", g, s, n, got, want)
				}
			}
		}
	}
}

// certResult builds a threshold result over 24 datasets of which good
// meet the quality loss.
func certResult(g stats.Guarantee, good int) threshold.Result {
	q := make([]float64, 24)
	for i := range q {
		q[i] = g.QualityLoss / 2
		if i >= good {
			q[i] = g.QualityLoss * 2
		}
	}
	return threshold.Result{Successes: good, Trials: 24, Qualities: q, Certified: g.Holds(good, 24)}
}

func TestCheckCertificate(t *testing.T) {
	g := testGuarantee()
	if err := checkCertificate("x", certResult(g, 18), g); err != nil {
		t.Fatalf("genuine 18/24 certificate rejected: %v", err)
	}
	inflated := certResult(g, 18)
	inflated.Successes++
	if checkCertificate("x", inflated, g) == nil {
		t.Fatal("inflated success count passed")
	}
	forged := certResult(g, 10)
	forged.Certified = true
	if checkCertificate("x", forged, g) == nil {
		t.Fatal("10/24 claimed as certified passed")
	}
	if checkCertificate("x", certResult(g, 10), g) == nil {
		t.Fatal("an uncertified deployment passed")
	}
}
